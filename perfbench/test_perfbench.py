"""Tests of the benchmark itself: checks that can fail, span arithmetic,
and a tiny run of every workload that must emit every named metric.

    python3 -m pytest perfbench -q
"""

import dataclasses
import json
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402

run.use_checkout_source()

import layers  # noqa: E402
import qgauss  # noqa: E402
import qgauss.cli  # noqa: E402
import speed  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())
CPUS = os.sched_getaffinity(0)
SEED = 1


def _run(capsys, workload, trace=0):
    argv = ["--workload", workload, "--seed", str(SEED), "--seconds", "0", "--trace", str(trace)]
    assert run.main(argv, sizes=workloads.TINY) == 0
    return json.loads(capsys.readouterr().out.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
@pytest.mark.parametrize("trace", [0, 1])
def test_tiny_run_emits_every_metric(capsys, workload, trace):
    result = _run(capsys, workload, trace)
    names = [m["name"] for m in SPEC["per_layer" if trace else "end_to_end"]]
    assert sorted(result["metrics"]) == sorted(names)
    units = {m["name"]: m["unit"] for m in SPEC["per_layer"] + SPEC["end_to_end"]}
    for name, metric in result["metrics"].items():
        assert metric["unit"] == units[name]
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0


def _wrong_table(monkeypatch):
    real = qgauss.run_trial_table

    def fake(*args, **kwargs):
        table = real(*args, **kwargs)
        rows = tuple(
            dataclasses.replace(r, p_ks_best=0.5) if r.q_out == 2.9 else r for r in table.rows
        )
        return dataclasses.replace(table, rows=rows)

    monkeypatch.setattr(qgauss, "run_trial_table", fake)


def _wrong_gen(monkeypatch):
    real = qgauss.cli.generate

    def fake(state, n):
        batch = real(state, n)
        batch.xi[0] = float(batch.xi[0]) * (1.0 + 2.0 ** -52)
        return batch

    monkeypatch.setattr(qgauss.cli, "generate", fake)


def _wrong_gof(monkeypatch):
    real = qgauss.cli.gof_test
    monkeypatch.setattr(
        qgauss.cli, "gof_test", lambda *a, **k: dataclasses.replace(real(*a, **k), p_value=0.0)
    )


def _wrong_diag(monkeypatch):
    real = qgauss.lyapunov
    monkeypatch.setattr(qgauss, "lyapunov", lambda *a, **k: 1.02 * real(*a, **k))


def _wrong_digest(monkeypatch):
    monkeypatch.setattr(workloads, "recorded_digests", lambda *a: ["0" * 16] * 16)


@pytest.mark.parametrize("workload, corrupt", [
    ("table", _wrong_table),
    ("gen", _wrong_gen),
    ("gof", _wrong_gof),
    ("diag", _wrong_diag),
    ("diag", _wrong_digest),
])
def test_wrong_output_raises_error_rate(capsys, monkeypatch, workload, corrupt):
    corrupt(monkeypatch)
    result = _run(capsys, workload)
    assert result["failed"] > 0 and not result["correct"]


def test_self_time_adds_up_for_nested_spans():
    ticks = iter([0.0, 1.0, 2.0, 3.0, 4.0, 5.0, 9.0, 10.0])
    tracer = layers.Tracer(clock=lambda: next(ticks))
    root = tracer.begin("root")        # 0 .. 10
    a = tracer.begin("a")              # 1 .. 4
    inner = tracer.begin("inner")      # 2 .. 3
    tracer.end(inner)
    tracer.end(a)
    b = tracer.begin("b")              # 5 .. 9
    tracer.end(b)
    tracer.end(root)
    assert [s[3] for s in tracer.spans] == [-1, root, a, root]
    own = layers.self_times(tracer.spans)
    assert own == [3.0, 2.0, 1.0, 4.0]
    assert sum(own) == tracer.spans[root][2] - tracer.spans[root][1]


def test_scaling_divides_by_the_sampled_loop_time(tmp_path):
    sampler = speed.SpeedSampler(Path("unused"))
    ref = speed.REFERENCE_S
    sampler.samples = [(1.0, ref), (2.0, 2 * ref), (3.0, 2 * ref), (4.0, 9 * ref)]
    assert sampler.scale(0.5, 3.5) == pytest.approx(1.5)    # median 2x slower
    assert sampler.scale(0.9, 0.95) == pytest.approx(0.05)  # nearest sample
    with speed.SpeedSampler(tmp_path / "speed.txt") as live:
        time.sleep(0.3)
    assert live.samples and os.sched_getaffinity(0) == CPUS


def test_tracing_restores_every_binding():
    generate, take = qgauss.generate, qgauss.UniformStream.take
    with layers.tracing(layers.Tracer(), qgauss):
        assert qgauss.stats.generate is not generate
        assert qgauss.cli.generate is qgauss.generator.generate is qgauss.generate
        assert qgauss.UniformStream.take is not take
    assert qgauss.stats.generate is generate and qgauss.cli.generate is generate
    assert qgauss.UniformStream.take is take


def test_exits_nonzero_without_sources(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, str(tmp_path / HERE.name / "run.py"), "--workload", "gen",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode != 0 and done.stdout == ""
