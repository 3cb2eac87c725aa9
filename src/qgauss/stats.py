"""Goodness-of-fit statistics, Monte Carlo p-values, and orbit diagnostics.

The distance between an empirical distribution function and a model cdf is
measured by one sup-type statistic with a pluggable weight:

    Z = sqrt(M) * max_i  max(|i/M - F_i|, |(i-1)/M - F_i|) * sqrt(psi(F_i))

psi = 1 is the Kolmogorov-Smirnov statistic; psi(u) = 1/(u(1-u)) is the
tail-weighted (Anderson-Darling style) variant, with F clipped to
[1/(2M), 1-1/(2M)] so the weight stays finite.

P-values come from Monte Carlo null replication in probability space:
sorted uniforms against the identity cdf, which has exactly the null law of
the statistic for any continuous model cdf and lets one null set serve
every q.  The tests validate that shortcut against the literal null
(samples drawn through the closed-form model quantile, scored through the
model cdf; tests/null_reference.py); the two agree to quantile round-off.

Every verdict (gof_test and each trial-table cell) scores its sample
through one function, _score: the sample rule, the sort, and the two
statistics under distribution.cdf_array_direct.  Both statistics are
maxima, so the compiled route (_orbit.c's qgauss_bounded_scores over
scipy's own scalar betainc and ndtr) evaluates the cdf only where a block
of samples can still reach either running maximum, with the bits of the
full evaluation; cdf_array_direct followed by _both_statistics is the
path wherever the library or those kernels are missing, and the byte
oracle.

The trial-table driver reruns the generator from many seeded starts and
keeps the best p-value per deformation parameter, which is the selection
rule the acceptance tables use.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from itertools import islice
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from . import _orbit, distribution
from .distribution import QSpec, make_spec
from .generator import GeneratorState, UniformStream, _run, derive_seed, init
from .maps import (
    MapConfig,
    _check_count,
    _check_start,
    _fold_derivative,
    _g,
    _is_absorbed,
    _is_real,
    _radial_params,
    _radial_steps,
    _z_edge,
)

__all__ = [
    "GofResult",
    "sup_weighted_statistic",
    "mc_p_value",
    "gof_test",
    "autocorrelation",
    "lyapunov",
    "TrialRow",
    "TrialTable",
    "run_trial_table",
    "DEFAULT_NULL_SEED",
]

# Null replication seed shared by default across commands, so the memoized
# null statistics are reused between tables and single tests.
DEFAULT_NULL_SEED = 0x900F
_KINDS = ("ks", "ad")


def _kind_index(kind: str) -> int:
    """Index of kind in _both_statistics' and _null_statistics' pairs."""
    if kind not in _KINDS:
        raise ValueError("kind must be one of %r, got %r" % (_KINDS, kind))
    return _KINDS.index(kind)


@dataclass(frozen=True)
class GofResult:
    """One goodness-of-fit verdict."""

    q_out: float
    kind: str
    statistic: float
    p_value: float
    n_samples: int
    n_null: int


@functools.lru_cache(maxsize=8)
def _edf_steps(M: int) -> np.ndarray:
    """The EDF's steps as one read-only array of shape (2, M): row 0 is
    i/M and row 1 is (i-1)/M for i = 1..M.

    Memoized because every statistic at one M needs the same two rows:
    at M = 10**4 forming them costs about half as much as sorting the
    sample.  One array, so the compiled scoring takes one pointer for both.
    """
    i = np.arange(1, M + 1, dtype=float)
    steps = np.empty((2, M))
    np.divide(i, M, out=steps[0])
    np.divide(i - 1.0, M, out=steps[1])
    steps.setflags(write=False)
    return steps


def _both_statistics(F: np.ndarray):
    """(KS, tail-weighted) statistics of each row of sorted cdf values.

    F holds one sample's sorted cdf values along its last axis.  A 1-d F
    gives two Python floats; an F of shape (..., M) gives two arrays of
    shape (...), one statistic per row, each with the bits the 1-d call
    gives that row.  A row that holds a NaN gives NaN for both.  The rows
    are scored in one pass of the compiled library (_orbit.c,
    qgauss_scores) wherever it can be built, and by
    _both_statistics_numpy, its byte oracle, otherwise.
    """
    lib = _orbit.kernel()
    if lib is None:
        return _both_statistics_numpy(F)
    M = F.shape[-1]
    rows = np.ascontiguousarray(F, dtype=np.float64).reshape(-1, M)
    out = np.empty((2, rows.shape[0]))
    _orbit.scores(lib, rows, _edf_steps(M), out)
    ks, ad = out
    if F.ndim == 1:
        return float(ks[0]), float(ad[0])
    return ks.reshape(F.shape[:-1]), ad.reshape(F.shape[:-1])


def _both_statistics_numpy(F: np.ndarray):
    """_both_statistics in numpy: its fallback and the compiled loop's
    test oracle.

    Every step is an elementwise IEEE operation and the reduction an exact
    max, so each row of a 2-d F gets the bits of its 1-d call.  The
    deviation max(|i/M - F_i|, |(i-1)/M - F_i|) is written
    max(i/M - F_i, F_i - (i-1)/M), which is the same double for any F_i
    because i/M > (i-1)/M and rounding is sign-symmetric and monotone.
    """
    M = F.shape[-1]
    hi, lo = _edf_steps(M)
    dev = hi - F
    np.maximum(dev, F - lo, out=dev)
    root_m = math.sqrt(M)
    ks = root_m * dev.max(axis=-1)
    w = np.clip(F, 1.0 / (2.0 * M), 1.0 - 1.0 / (2.0 * M))
    w *= 1.0 - w
    np.sqrt(w, out=w)
    np.divide(dev, w, out=w)
    ad = root_m * w.max(axis=-1)
    if F.ndim == 1:
        return float(ks), float(ad)
    return ks, ad


def _sample(samples: Sequence[float]) -> np.ndarray:
    """samples as a non-empty 1-d float array of finite values, or ValueError."""
    x = np.asarray(samples, dtype=float)
    if x.ndim != 1 or x.size == 0 or not np.isfinite(x).all():
        raise ValueError("samples must be a non-empty 1-d array of finite values")
    return x


def _score(q_out: float, samples: Sequence[float]) -> Tuple[float, float]:
    """(KS, tail-weighted) statistics of the checked, sorted samples through
    distribution.cdf_array_direct: the one scoring function of every verdict.

    Both statistics are maxima, so only the samples that can hold one need
    an exact cdf value.  Where the compiled library and scipy's scalar
    kernels (distribution._direct_kernels) are both at hand, one C call
    (_orbit.bounded_scores) bounds the cdf over blocks of samples and
    evaluates only the blocks that can reach either running maximum:
    about 900 of 10**4 values in a table trial.  It gives the bits of
    _both_statistics over cdf_array_direct at every sample, which is the
    path everywhere else and the byte oracle.
    """
    x = np.sort(_sample(samples))
    spec = make_spec(q_out)
    lib = _orbit.kernel()
    kernels = None if lib is None else distribution._direct_kernels()
    if kernels is None:
        return _both_statistics(distribution.cdf_array_direct(q_out, x))
    ks, ad, _ = _orbit.bounded_scores(lib, spec, x, _edf_steps(x.size), kernels)
    return ks, ad


def sup_weighted_statistic(
    samples: Sequence[float],
    cdf_fn: Callable[[np.ndarray], np.ndarray],
    kind: str = "ks",
) -> float:
    """Sup-weighted EDF distance between sorted samples and a model cdf.

    samples must be finite, as gof_test's, and sorted ascending; cdf_fn is
    applied to the whole sample array and must return one value per
    sample, each in [0, 1].  kind selects psi: "ks" or "ad".
    """
    i = _kind_index(kind)
    x = _sample(samples)
    if np.any(np.diff(x) < 0.0):
        raise ValueError("samples must be sorted ascending")
    F = np.asarray(cdf_fn(x), dtype=float)
    if F.shape != x.shape:
        raise ValueError(
            "cdf_fn must return one value per sample: shape %r for %r"
            % (F.shape, x.shape))
    if not (F.min() >= 0.0 and F.max() <= 1.0):
        raise ValueError("cdf_fn returned values outside [0, 1]")
    return _both_statistics(F)[i]


# Nulls kept per process.  Each caller needs only its latest few (a table
# or a gof request looks one up once or twice), and a long-running process
# that scores against fresh null seeds must not keep every null it built.
_NULL_CACHE_SIZE = 8
# Uniform words per null block: max(1, _NULL_BLOCK // M) replicates are
# drawn, sorted and scored together, so the per-call overhead (about 15 us
# of Python, ctypes and numpy dispatch per block) is paid per block, not
# per replicate.  A block of 2**16 words is one 512 KB array, sorted in
# place, a quarter of a 2 MB L2, and only one block is alive at a time.
# In two sweeps of 2**13..2**17 words over M in {100, 500, 1000, 2000,
# 10**4}, a 999-replicate null built within 6% of the fastest size at
# 2**16 for every M, in 19-26% less time than at 2**13; 2**17 was up to
# 5% faster in one sweep and up to 9% slower in the other, for twice the
# memory.  With the compiled library a build's traced peak is about one
# block (527 KB at M = 1000).  The numpy fallback's draw and scoring make
# up to three temporaries of the block's size (traced peak about 2.0 MB),
# whose pages go back to the system after every block, so its null builds
# about 1.5 times slower than with 2**13-word blocks.
_NULL_BLOCK = 2 ** 16


@functools.lru_cache(maxsize=_NULL_CACHE_SIZE)
def _null_statistics(
    M: int, n_null: int, seed: int
) -> Tuple[np.ndarray, np.ndarray]:
    """Probability-space null: (KS, tail-weighted) statistics of n_null replicates.

    Replicate j scores the sorted uniforms of the j-th take(M) from one
    UniformStream(seed) against the identity cdf, so the result is a pure
    function of (M, n_null, seed).  The replicates are built a block of
    rows (up to _NULL_BLOCK words) at a time: one take(rows*M) gives the
    same words as rows consecutive take(M) calls, each row is sorted on
    its own, and _both_statistics gives every row the bits of its 1-d
    call.  Each block is dropped before the next is drawn, so the build's
    memory is one block and the two result arrays.  The most
    recently used _NULL_CACHE_SIZE results are memoized and shared by every
    caller, so the returned arrays are read-only.
    """
    stream = UniformStream(seed)
    ks = np.empty(n_null)
    ad = np.empty(n_null)
    block = max(1, _NULL_BLOCK // M)
    for j in range(0, n_null, block):
        rows = min(block, n_null - j)
        u = stream.take(rows * M).reshape(rows, M)
        u.sort(axis=-1)
        ks[j:j + rows], ad[j:j + rows] = _both_statistics(u)
        del u
    ks.setflags(write=False)
    ad.setflags(write=False)
    return ks, ad


def _p_value(nulls: np.ndarray, stat: float) -> float:
    """(1 + #{null >= stat})/(n_null + 1) over the null statistics nulls."""
    return (1.0 + int(np.count_nonzero(nulls >= stat))) / (nulls.size + 1.0)


def mc_p_value(
    M: int,
    observed: float,
    kind: str = "ks",
    n_null: int = 999,
    seed: int = DEFAULT_NULL_SEED,
) -> float:
    """Monte Carlo p-value of an observed statistic: (1 + #{null >= obs})/(n_null + 1).

    The null is the distribution-free one in probability space
    (_null_statistics), the same for every model, so none is taken.
    """
    i = _kind_index(kind)
    _check_count("M", M, 1)
    _check_count("n_null", n_null, 1)
    _check_count("seed", seed, 0, 2 ** 64 - 1)
    if not (math.isfinite(observed) and observed >= 0.0):
        raise ValueError("observed statistic must be finite and >= 0, got %r" % (observed,))
    return _p_value(_null_statistics(M, n_null, seed)[i], observed)


def gof_test(
    samples: Sequence[float],
    q_out: float,
    kind: str = "ks",
    n_null: int = 999,
    seed: int = DEFAULT_NULL_SEED,
) -> GofResult:
    """Score samples against the protocol cdf and attach a Monte Carlo p-value.

    The verdict is the one a trial-table cell gives: _score's statistic
    against _null_statistics.  samples must be a non-empty 1-d array of
    finite values, or ValueError.  For tail-exact scoring, compose
    sup_weighted_statistic over distribution.cdf_array with mc_p_value.
    """
    i = _kind_index(kind)
    _check_count("n_null", n_null, 1)
    _check_count("seed", seed, 0, 2 ** 64 - 1)
    stat = _score(q_out, samples)[i]
    return GofResult(
        q_out=q_out, kind=kind, statistic=stat,
        p_value=_p_value(_null_statistics(len(samples), n_null, seed)[i], stat),
        n_samples=len(samples), n_null=n_null,
    )


def autocorrelation(samples: Sequence[float], m: int) -> float:
    """Empirical autocovariance C(m) with mean subtraction.

    C(0) is the biased sample variance; a constant sequence gives 0 at
    every lag.  Callers wanting the normalized ratio divide by C(0).
    """
    x = _sample(samples)
    N = x.size
    _check_count("lag m", m, 0, N - 1)
    mean = float(x.mean())
    if m == 0:
        return float(np.dot(x, x)) / N - mean * mean
    return float(np.dot(x[: N - m], x[m:])) / (N - m) - mean * mean


def lyapunov(
    q_int: float, cfg: MapConfig, z0: float, t: int, burn_in: int = 1000
) -> float:
    """Orbit-averaged log-derivative of the radial map over t steps.

    For the base configuration (l=2, c=1) the analytic derivative
    (maps.z_map_derivative) is averaged directly.  For other configurations
    the derivative factors along the conjugation chain, and the per-step
    contribution is c*log(slope) + q*(log u0 - log u_c) + log z - log z_next.
    Steps landing on the fold point or the support edge are skipped
    (measure zero under the invariant density); on the base route these
    are exactly the steps where z_map_derivative raises ValueError.

    Neither average can tell a wrong map from a right one: the sum
    telescopes along the orbit (u0 of one step is u_c of the step before,
    up to rounding), so the chain-rule average is
    c*log(l*(1 - epsilon)) + O(1/t) whatever the orbit does, and the
    analytic average is the same product with epsilon = 0.

    z0 is held to init's start rule (maps._check_start).  The burn-in and
    both routes then run in the compiled library (_orbit.c,
    qgauss_lyapunov), which steps through radial_step, as the generator's
    orbit does; where it cannot be built, _lyapunov_python runs both
    routes over the one Python radial loop (maps._radial_steps), with the
    same bits and the same exceptions.  The analytic route raises
    ZeroDivisionError where (1 - u)**(-q_int) meets u == 1 (z0 near 0
    with burn_in=0), and OverflowError where that power or q_ln's
    math.exp leaves double range, which an orbit of 2*10**4 steps from
    z0 = 1 meets from q' = 2.95 (q_int = 79) up.  Both routes match
    the per-call composition of the public functions bit for bit
    (tests/lyapunov_reference.py keeps that composition, and
    test_matches_per_call_reference compares the two).
    """
    _check_count("t", t, 1)
    _check_count("burn_in", burn_in, 0)
    _check_start(q_int, cfg, z0)
    lib = _orbit.kernel()
    if lib is None:
        acc, used = _lyapunov_python(q_int, cfg, z0, t, burn_in)
    else:
        acc, used = _orbit.lyapunov(lib, q_int, _radial_params(q_int, cfg), z0, t, burn_in)
    if used == 0:
        raise ArithmeticError("no usable steps in the Lyapunov average")
    return acc / used


def _lyapunov_python(
    q_int: float, cfg: MapConfig, z: float, t: int, burn_in: int
) -> Tuple[float, int]:
    """The Lyapunov loop in Python: the fallback for lyapunov and the
    compiled loop's test oracle.  Returns (sum of the log-derivatives,
    steps used).

    It is qgauss_lyapunov's burn-in and its two loops over one
    maps._radial_steps iterator, the one Python copy of the radial step:
    the analytic route forms each step's term from maps._fold_derivative
    at (z, u0), where u0 is g_inv(z) before the clamp, and the chain-rule
    route from (z, the clamped u0, u, z_next).
    """
    steps = _radial_steps(q_int, cfg, z)
    for z, _, _ in islice(steps, burn_in):
        pass
    log_ = math.log
    acc = 0.0
    used = 0
    if cfg.l == 2 and cfg.c == 1:
        isfinite_ = math.isfinite
        z_star = _g(q_int, 0.5)
        for z_next, u0, _ in islice(steps, t):
            # z_map_derivative(q_int, z), skipped where it raises ValueError;
            # z comes from the radial loop, so it is finite and inside the
            # support, and of its checks only z > 0 can fail.
            d = 0.0
            if z > 0.0:
                try:
                    d = _fold_derivative(q_int, z, u0, z_star)
                except ValueError:
                    pass
            if d and isfinite_(d):
                acc += log_(abs(d))
                used += 1
            z = z_next
    else:
        log_slope = cfg.c * math.log(cfg.slope)
        u_clamp = _radial_params(q_int, cfg).u_clamp
        for z_next, u0, u in islice(steps, t):
            if u0 < u_clamp:
                u0 = u_clamp
            if u0 > 0.0 and u > 0.0 and z > 0.0 and z_next > 0.0:
                acc += log_slope + q_int * (log_(u0) - log_(u)) + log_(z) - log_(z_next)
                used += 1
            z = z_next
    return acc, used


@dataclass(frozen=True)
class TrialRow:
    """Best-of-trials verdict for one deformation parameter."""

    q_out: float
    nu: Optional[float]
    p_ks_best: float
    p_ad_best: float
    p_ks: Tuple[float, ...]
    p_ad: Tuple[float, ...]
    kernel: str  # the orbit loop that generated it, "c" or "python"


@dataclass(frozen=True)
class TrialTable:
    """Best p-value table over a deformation grid."""

    rows: Tuple[TrialRow, ...]
    cfg: MapConfig
    trials: int
    samples: int
    n_null: int
    master_seed: int
    null_seed: int

    def to_csv(self, fh) -> None:
        """Write the table in the four-column layout q,nu,p_AD_best,p_KS_best."""
        fh.write("q,nu,p_AD_best,p_KS_best\n")
        for row in self.rows:
            nu = "" if row.nu is None else "%.17g" % row.nu
            fh.write(
                "%.17g,%s,%.17g,%.17g\n" % (row.q_out, nu, row.p_ad_best, row.p_ks_best)
            )

    def metadata(self) -> Dict[str, object]:
        """JSON-ready record.  "kernel" names the orbit loop that generated
        the rows, "c" or "python": every row runs in this process."""
        return {
            "kernel": self.rows[0].kernel,
            "d": self.cfg.d,
            "l": self.cfg.l,
            "c": self.cfg.c,
            "epsilon": self.cfg.epsilon,
            "trials": self.trials,
            "samples": self.samples,
            "n_null": self.n_null,
            "master_seed": self.master_seed,
            "null_seed": self.null_seed,
        }


def _trial_start(
    spec: QSpec, cfg: MapConfig, master_seed: int, iq: int, trial: int
) -> GeneratorState:
    """One trial's orbit state, from (v0, z0, w0_sign) drawn off its substream.

    For q_int < 1, z0 is halved until maps._check_start passes it, that is
    until its first radial step no longer lands on the support edge or on
    another point the radial map keeps (maps._is_absorbed); a start that
    passes at once keeps its bits.  Where every halving lands there (fold
    orders l of about 2**52 and up, where s*g_inv(z0) is an even integer),
    z0 reaches 0 and ValueError is raised.
    """
    stream = UniformStream(derive_seed(master_seed, iq, trial))
    u1, u2, u3 = stream.next_float(), stream.next_float(), stream.next_float()
    v0 = 0.05 + 0.9 * u1
    if spec.q_int < 1.0:
        z0 = (0.05 + 0.9 * u2) * _z_edge(spec.q_int)
        while z0 > 0.0 and _is_absorbed(spec.q_int, cfg, z0):
            z0 *= 0.5
        if z0 == 0.0:
            raise ValueError("no trial start for q'=%r with l=%r, c=%r: every "
                             "z0 is absorbed in one radial step, on the "
                             "support edge or a point the radial map keeps"
                             % (spec.q_out, cfg.l, cfg.c))
    else:
        z0 = 0.05 + 0.9 * u2
    return init(spec, cfg, v0=v0, z0=z0, w0_sign=1 if u3 < 0.5 else -1)


def _table_row(
    states: List[GeneratorState], samples: int, ks_null: np.ndarray,
    ad_null: np.ndarray,
) -> TrialRow:
    """One table row from its trials' orbit states, which share a QSpec
    and a map: each trial scored by _score, as gof_test scores.

    The trials are generated _orbit.LANES at a time, each group by one
    generator._run into one reused pair of (group, samples) arrays, so
    the compiled orbit steps the group in lockstep; every trial gets the
    bits generate gives it alone, and a row's memory does not grow with
    its trials.
    """
    spec = states[0].spec
    group = min(len(states), _orbit.LANES)
    xi = np.empty((group, samples))
    eta = np.empty((group, samples))
    p_ks: List[float] = []
    p_ad: List[float] = []
    for j in range(0, len(states), group):
        k = min(group, len(states) - j)
        kernel = _run(states[j:j + k], samples, xi[:k], eta[:k])
        for trial_xi in xi[:k]:
            ks, ad = _score(spec.q_out, trial_xi)
            p_ks.append(_p_value(ks_null, ks))
            p_ad.append(_p_value(ad_null, ad))
    return TrialRow(q_out=spec.q_out, nu=spec.nu, p_ks_best=max(p_ks),
                    p_ad_best=max(p_ad), p_ks=tuple(p_ks), p_ad=tuple(p_ad),
                    kernel=kernel)


def run_trial_table(
    q_list: Sequence[float],
    cfg: MapConfig = MapConfig(),
    trials: int = 100,
    samples: int = 10000,
    master_seed: int = 20260839,
    n_null: int = 999,
    null_seed: int = DEFAULT_NULL_SEED,
    jobs: int = 1,
) -> TrialTable:
    """Best-of-trials p-value table over a deformation grid.

    Every (q, trial) cell seeds its own generator start from a substream of
    master_seed, so results do not depend on jobs or evaluation order.  With
    jobs > 1 the rows run on a pool of at most one thread per grid value;
    the compiled orbit and scorer (called through ctypes) and numpy's sort
    release the GIL.  Each trial is scored as gof_test scores a sample.
    Every argument (each of at least one q', both seeds in 0..2**64-1) is
    checked, and every trial's start derived, before the null is built or a
    worker starts.
    """
    _check_count("trials", trials, 1)
    _check_count("samples", samples, 1)
    _check_count("n_null", n_null, 1)
    _check_count("jobs", jobs, 1)
    _check_count("master_seed", master_seed, 0, 2 ** 64 - 1)
    _check_count("null_seed", null_seed, 0, 2 ** 64 - 1)
    # Each row's spec and q_out in double, whatever real type q_list holds.
    specs = [make_spec(float(q) if _is_real(q) else q) for q in q_list]
    _check_count("len(q_list)", len(specs), 1)
    states = [[_trial_start(spec, cfg, master_seed, iq, trial)
               for trial in range(trials)] for iq, spec in enumerate(specs)]
    # One null for every row, built here so no two worker threads build it.
    ks_null, ad_null = _null_statistics(samples, n_null, null_seed)
    row = functools.partial(_table_row, samples=samples, ks_null=ks_null,
                            ad_null=ad_null)
    workers = min(jobs, len(states))
    if workers > 1:
        from concurrent.futures import ThreadPoolExecutor

        with ThreadPoolExecutor(max_workers=workers) as pool:
            rows = list(pool.map(row, states))
    else:
        rows = list(map(row, states))
    return TrialTable(
        rows=tuple(rows),
        cfg=cfg,
        trials=trials,
        samples=samples,
        n_null=n_null,
        master_seed=master_seed,
        null_seed=null_seed,
    )
