"""Deterministic chaotic variate generator and the transform reference sampler.

The chaotic generator carries three floats of state: a point (w, v) on the
unit circle advanced by the degree-d polynomial pair, and a radial value z
advanced by the conjugated fold map.  Each step emits the pair
(xi, eta) = (w*z, v*z), whose marginals converge to the q_out family member.
That member is a distribution.QSpec from distribution.make_spec (both
re-exported here), and the radial map runs at its q_int.

Bit discipline: generate(), step() and the trial-table rows share one
entry point (_run), which advances a group of states that share q_int and
the map: generate() and step() pass one, and stats._table_row a group of
its trials.  It runs the compiled orbit of _orbit.c, built with the
system C compiler on the first call and cached per user (see
qgauss._orbit), which steps the group in lockstep lanes and gives each
state the bits it gets alone, or, where that cannot be built,
_run_python on each state in turn, which gives the same bytes and is the
compiled orbit's test oracle.  Both take each step in the same order:
the circle step of maps._circle_step, one maps.chebyshev_pair step, and
the radial step of maps._radial_steps, one maps.z_map step, with its
constants from maps._radial_params.  The circle step renormalizes only
when the squared radius drifts more than 1e-10 from 1, which keeps short
orbits bit-identical to the unrenormalized reference recursion while
holding the invariant over long runs, before the step's outputs are
formed.  SampleBatch.metadata() names the loop that ran ("kernel").

The transform sampler (gbmm_sample) is the independent route used for
cross-validation: two uniforms in, one (x, y) pair out, no state; u1 is
floored at maps._u_floor, as qgauss_gbmm floors at the record's u_lo.
gbmm_generate runs it over a block of uniforms in the compiled library
(qgauss_gbmm), or, where that cannot be built, as a loop over gbmm_sample,
which gives the same bytes and is the compiled loop's test oracle.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field
from typing import Dict, Optional, Sequence, Tuple

import numpy as np

from . import _orbit
# Re-exported: callers take the family record from here with init.
from .distribution import QSpec, make_spec
from .maps import (
    MapConfig,
    _check_count,
    _check_start,
    _circle_step,
    _g,
    _radial_params,
    _radial_steps,
    _u_floor,
)

__all__ = [
    "QSpec",
    "make_spec",
    "GeneratorState",
    "init",
    "step",
    "generate",
    "SampleBatch",
    "gbmm_sample",
    "gbmm_generate",
    "UniformStream",
    "derive_seed",
]

@dataclass
class GeneratorState:
    """Mutable orbit state plus the seeds it was started from."""

    spec: QSpec
    cfg: MapConfig
    w: float
    v: float
    z: float
    steps: int = 0
    v0: float = 0.1
    z0: float = 1.0
    w0_sign: int = 1


def init(
    spec: QSpec,
    cfg: MapConfig,
    v0: float = 0.1,
    z0: float = 1.0,
    w0_sign: int = 1,
) -> GeneratorState:
    """Seed a generator orbit.

    v0 fixes the circle point as (w, v) = (w0_sign*sqrt(1 - v0*v0), v0) and
    must lie strictly inside (0, 1); z0 seeds the radial map and must pass
    maps._check_start: finite, > 0 and, for q_int < 1, below the edge and
    not sent onto it by the first step.
    """
    if not 0.0 < v0 < 1.0:
        raise ValueError("v0 must lie strictly inside (0, 1), got %r" % (v0,))
    _check_start(spec.q_int, cfg, z0)
    _check_count("w0_sign", w0_sign, -1, 1)
    if w0_sign == 0:
        raise ValueError("w0_sign must be +1 or -1, got 0")
    w0 = w0_sign * math.sqrt(1.0 - v0 * v0)
    return GeneratorState(
        spec=spec, cfg=cfg, w=w0, v=v0, z=z0, steps=0, v0=v0, z0=z0, w0_sign=w0_sign
    )


def _run_python(
    state: GeneratorState, n: int, xi_out: np.ndarray, eta_out: np.ndarray
) -> None:
    """The orbit loop in Python: the fallback for _run and its test oracle.

    Each step is qgauss_orbit's: maps._circle_step (the one Python copy
    of the circle step), the next z of maps._radial_steps (the one Python
    copy of the radial step), then the outputs w*z and v*z.
    """
    w = state.w
    v = state.v
    z = state.z
    d = state.cfg.d
    radial_step = _radial_steps(state.spec.q_int, state.cfg, z).__next__
    for i in range(n):
        w, v = _circle_step(d, w, v)
        z = radial_step()[0]
        xi_out[i] = w * z
        eta_out[i] = v * z
    state.w = w
    state.v = v
    state.z = z
    state.steps += n


def _run(
    states: Sequence[GeneratorState], n: int,
    xi_out: np.ndarray, eta_out: np.ndarray,
) -> str:
    """Advance each of the K states n steps, filling row j of xi_out and
    eta_out (shape (K, n)) with state j's outputs in place; returns the
    loop that ran, "c" or "python".

    step() and generate() both call this with one state, and a trial-table
    row with a group of its trials.  The states must share q_int and the
    map.  The compiled orbit (_orbit.c, built on the first call) steps
    them in lockstep when it can be built here, and _run_python runs each
    in turn otherwise; every state gets the bytes it gets alone, which
    tests/test_generator.py checks, as it holds the state to chebyshev_pair
    and z_map at every step.
    """
    if any((s.spec.q_int, s.cfg) != (states[0].spec.q_int, states[0].cfg)
           for s in states[1:]):
        raise ValueError("the states of one run must share q_int and the map")
    lib = _orbit.kernel()
    if lib is None:
        for state, xi, eta in zip(states, xi_out, eta_out):
            _run_python(state, n, xi, eta)
        return "python"
    if states:
        first = states[0]
        ends = _orbit.orbit(
            lib, first.cfg.d, _radial_params(first.spec.q_int, first.cfg),
            [(s.w, s.v, s.z) for s in states], n, xi_out, eta_out,
        )
        for state, end in zip(states, ends):
            state.w, state.v, state.z = end
            state.steps += n
    return "c"


def step(state: GeneratorState) -> Tuple[float, float]:
    """Advance one step and return the output pair (xi, eta)."""
    xi = np.empty(1)
    eta = np.empty(1)
    _run([state], 1, xi[None], eta[None])
    return float(xi[0]), float(eta[0])


@dataclass(eq=False)
class SampleBatch:
    """A generated block of output pairs plus everything needed to redo it."""

    xi: np.ndarray
    eta: np.ndarray
    spec: QSpec
    cfg: Optional[MapConfig]  # None for gbmm, which reads no map
    method: str
    seed_info: Dict[str, object] = field(default_factory=dict)
    kernel: str = "python"  # the loop that produced it: "c" or "python"

    @property
    def count(self) -> int:
        return int(self.xi.size)

    def metadata(self) -> Dict[str, object]:
        """JSON-ready regeneration record, with map fields if a map ran."""
        return {
            "method": self.method,
            "kernel": self.kernel,
            "count": self.count,
            "q_out": self.spec.q_out,
            "q_int": self.spec.q_int,
            "nu": self.spec.nu,
            **({} if self.cfg is None else asdict(self.cfg)),
            **self.seed_info,
        }


def generate(state: GeneratorState, n: int) -> SampleBatch:
    """Generate n output pairs, advancing the state in place."""
    _check_count("n", n, 0)
    xi = np.empty(n)
    eta = np.empty(n)
    seed_info = {
        "v0": state.v0,
        "z0": state.z0,
        "w0_sign": state.w0_sign,
        "skipped_steps": state.steps,
    }
    kernel = _run([state], n, xi[None], eta[None])
    return SampleBatch(
        xi=xi, eta=eta, spec=state.spec, cfg=state.cfg,
        method="chaotic", seed_info=seed_info, kernel=kernel,
    )


def gbmm_sample(spec: QSpec, u1: float, u2: float) -> Tuple[float, float]:
    """Transform two uniforms from (0,1) into one output pair.

    Radius maps._g(q_int, u1) and angle 2*pi*u2.  Boundary values of
    u1 or u2 are domain errors.  For strongly deformed q_int > 1 the radius
    power u1**(1-q_int) can exceed double range, so u1 is floored at the
    chaotic route's maps._u_floor (0 below q_int = 1), which is unreachable
    from a 53-bit uniform for q_int below about 20.  This is the compiled
    gbmm loop's fallback and byte oracle.
    """
    if not (0.0 < u1 < 1.0 and 0.0 < u2 < 1.0):
        raise ValueError("u1 and u2 must lie strictly inside (0, 1), got %r, %r" % (u1, u2))
    r = _g(spec.q_int, max(u1, _u_floor(spec.q_int)))
    a = 2.0 * math.pi * u2
    return r * math.cos(a), r * math.sin(a)


def gbmm_generate(spec: QSpec, stream: "UniformStream", n: int) -> SampleBatch:
    """Draw n transform-sampled pairs from a uniform stream.

    The pairs come from the compiled gbmm loop (_orbit.c, qgauss_gbmm)
    wherever it can be built, and from gbmm_sample, its byte oracle,
    otherwise.
    """
    _check_count("n", n, 0)
    seed_state = stream.state
    xi = np.empty(n)
    eta = np.empty(n)
    u = stream.take(2 * n)
    lib = _orbit.kernel()
    if lib is None:
        u = u.tolist()
        for i in range(n):
            x, y = gbmm_sample(spec, u[2 * i], u[2 * i + 1])
            xi[i] = x
            eta[i] = y
    else:
        # qgauss_gbmm reads the record's q_int fields, not its map's.
        _orbit.gbmm(lib, _radial_params(spec.q_int, MapConfig()), u, n, xi, eta)
    return SampleBatch(
        xi=xi, eta=eta, spec=spec, cfg=None, method="gbmm",
        seed_info={"stream_state": seed_state},
        kernel="python" if lib is None else "c",
    )


# SplitMix64 constants.
_MASK64 = (1 << 64) - 1
_SM_GAMMA = 0x9E3779B97F4A7C15
_SM_MIX1 = 0xBF58476D1CE4E5B9
_SM_MIX2 = 0x94D049BB133111EB
_TWO_NEG53 = 2.0 ** -53
# Largest uniform: (m + 0.5) * 2**-53 rounds to 1.0 for m = 2**53 - 1 only,
# and that one word is clamped here instead.
_U_MAX = 1.0 - _TWO_NEG53


def _mix64(x: int) -> int:
    x = ((x ^ (x >> 30)) * _SM_MIX1) & _MASK64
    x = ((x ^ (x >> 27)) * _SM_MIX2) & _MASK64
    return x ^ (x >> 31)


class UniformStream:
    """Deterministic uniform(0,1) stream (SplitMix64).

    The stream is counter-based: from seed s0, an int in 0..2**64-1, word k
    (k = 1, 2, ...) is mix64(s0 + k*gamma mod 2**64), and after n words
    the state is s0 + n*gamma mod 2**64.  So take(n) computes a whole
    block in one array expression, with the same bits as n next_float
    calls.

    next_float maps the top 53 bits m = word >> 11 of each word to
    (m + 0.5) * 2**-53, rounded to double, so 0.0 is never produced.  For
    m >= 2**52 the sum rounds to even; the one word with m = 2**53 - 1
    would give exactly 1.0 and is clamped to 1 - 2**-53, so every draw lies
    in the open interval (0, 1).  Used for trial seeding, the transform
    sampler, and the Monte Carlo null draws.
    """

    __slots__ = ("_s",)

    def __init__(self, seed: int):
        _check_count("seed", seed, 0, _MASK64)
        self._s = seed

    @property
    def state(self) -> int:
        return self._s

    def next_uint64(self) -> int:
        self._s = (self._s + _SM_GAMMA) & _MASK64
        return _mix64(self._s)

    def next_float(self) -> float:
        return min(((self.next_uint64() >> 11) + 0.5) * _TWO_NEG53, _U_MAX)

    def take(self, n: int) -> np.ndarray:
        """Draw n floats as an array: the same bits as n next_float calls.

        The words come from the compiled library (_orbit.c, qgauss_take)
        wherever it can be built, and from _take_numpy, its byte oracle,
        otherwise.
        """
        _check_count("n", n, 0)
        lib = _orbit.kernel()
        if lib is None:
            u = _take_numpy(self._s, n)
        else:
            u = np.empty(n)
            _orbit.take(lib, self._s, n, u)
        self._s = (self._s + n * _SM_GAMMA) & _MASK64
        return u


def _take_numpy(s: int, n: int) -> np.ndarray:
    """Words 1..n after state s as floats in numpy: UniformStream.take's
    fallback and the compiled loop's test oracle.

    Words 1..n are mixed at once in numpy uint64, whose multiply and add
    wrap mod 2**64 as the masked Python arithmetic does; word >> 11 fits in
    53 bits, so the conversion to float64 is exact and the final
    (+ 0.5) * 2**-53 and the clamp at 1 - 2**-53 are the same IEEE
    operations next_float performs.
    """
    x = np.arange(1, n + 1, dtype=np.uint64)
    x *= np.uint64(_SM_GAMMA)
    x += np.uint64(s)
    x ^= x >> np.uint64(30)
    x *= np.uint64(_SM_MIX1)
    x ^= x >> np.uint64(27)
    x *= np.uint64(_SM_MIX2)
    x ^= x >> np.uint64(31)
    u = ((x >> np.uint64(11)).astype(np.float64) + 0.5) * _TWO_NEG53
    return np.minimum(u, _U_MAX, out=u)


def derive_seed(master: int, *indices: int) -> int:
    """Fold integer indices into a master seed, with full avalanche per index.

    Pure function of its arguments (master an int in 0..2**64-1); gives every
    (q, trial) cell of a trial table its own independent substream.
    """
    _check_count("master", master, 0, _MASK64)
    s = _mix64(master)
    for k in indices:
        s = _mix64(((s + _SM_GAMMA) & _MASK64) ^ _mix64((k + _SM_GAMMA) & _MASK64))
    return s
