"""Goodness-of-fit statistics, Monte Carlo p-values, and orbit diagnostics.

The distance between an empirical distribution function and a model cdf is
measured by one sup-type statistic with a pluggable weight:

    Z = sqrt(M) * max_i  max(|i/M - F_i|, |(i-1)/M - F_i|) * sqrt(psi(F_i))

psi = 1 is the Kolmogorov-Smirnov statistic; psi(u) = 1/(u(1-u)) is the
tail-weighted (Anderson-Darling style) variant, with F clipped to
[1/(2M), 1-1/(2M)] so the weight stays finite.

P-values come from Monte Carlo null replication.  The default null works in
probability space: sorted uniforms against the identity cdf, which has
exactly the null law of the statistic for any continuous model cdf and lets
one null set serve every q.  A literal mode (samples drawn through the
closed-form model quantile, scored through the model cdf) exists to
validate that shortcut; the two agree to quantile round-off.

The trial-table driver reruns the generator from many seeded starts and
keeps the best p-value per deformation parameter, which is the selection
rule the acceptance tables use.
"""

from __future__ import annotations

import functools
import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from . import distribution
from .generator import (
    QSpec,
    UniformStream,
    derive_seed,
    generate,
    init,
    make_spec,
)
from .maps import (
    _ORBIT_BLOCK,
    _U_CLAMP_LO,
    MapConfig,
    _radial_orbit,
    _u_floor,
    z_map,
)
from .specfun import _Q_ONE_EPS, q_ln

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
_WEIGHTS = ("one", "anderson")


@dataclass(frozen=True)
class GofResult:
    """One goodness-of-fit verdict."""

    q_out: float
    kind: str
    statistic: float
    p_value: float
    n_samples: int
    n_null: int


def _edf_deviations(F: np.ndarray) -> np.ndarray:
    """max(|i/M - F_i|, |(i-1)/M - F_i|) for sorted cdf values F."""
    M = F.size
    i = np.arange(1, M + 1, dtype=float)
    return np.maximum(np.abs(i / M - F), np.abs((i - 1.0) / M - F))


def _both_statistics(F: np.ndarray) -> Tuple[float, float]:
    """(KS, tail-weighted) statistics from sorted cdf values in one pass."""
    M = F.size
    dev = _edf_deviations(F)
    ks = math.sqrt(M) * float(dev.max())
    clipped = np.clip(F, 1.0 / (2.0 * M), 1.0 - 1.0 / (2.0 * M))
    ad = math.sqrt(M) * float((dev / np.sqrt(clipped * (1.0 - clipped))).max())
    return ks, ad


def sup_weighted_statistic(
    samples: Sequence[float],
    cdf_fn: Callable[[np.ndarray], np.ndarray],
    weight: str = "one",
) -> float:
    """Sup-weighted EDF distance between sorted samples and a model cdf.

    samples must already be sorted ascending; cdf_fn is applied to the
    whole sample array (it may be scalar-only, in which case it is mapped
    elementwise).  weight selects psi: "one" or "anderson".
    """
    if weight not in _WEIGHTS:
        raise ValueError("weight must be one of %r, got %r" % (_WEIGHTS, weight))
    x = np.asarray(samples, dtype=float)
    if x.ndim != 1 or x.size == 0:
        raise ValueError("samples must be a non-empty 1-d array")
    if np.any(np.diff(x) < 0.0):
        raise ValueError("samples must be sorted ascending")
    try:
        F = np.asarray(cdf_fn(x), dtype=float)
        if F.shape != x.shape:
            raise TypeError
    except TypeError:
        F = np.array([cdf_fn(t) for t in x], dtype=float)
    if F.min() < 0.0 or F.max() > 1.0:
        raise ValueError("cdf_fn returned values outside [0, 1]")
    ks, ad = _both_statistics(F)
    return ks if weight == "one" else ad


# Nulls kept per process.  Each caller needs only its latest few (a table
# or a gof request looks one up once or twice), and a long-running process
# that scores against fresh null seeds must not keep every null it built.
_NULL_CACHE_SIZE = 8


@functools.lru_cache(maxsize=_NULL_CACHE_SIZE)
def _null_statistics(
    M: int, n_null: int, seed: int
) -> Tuple[np.ndarray, np.ndarray]:
    """Probability-space null: (KS, tail-weighted) statistics of n_null replicates.

    Replicate j scores the sorted uniforms take(M) against the identity
    cdf, drawn from one UniformStream(seed) in replicate order, so the
    result is a pure function of (M, n_null, seed).  The most recently
    used _NULL_CACHE_SIZE results are memoized; callers must not modify the
    returned arrays.
    """
    stream = UniformStream(seed)
    ks = np.empty(n_null)
    ad = np.empty(n_null)
    for j in range(n_null):
        u = stream.take(M)
        u.sort()
        ks[j], ad[j] = _both_statistics(u)
    return ks, ad


@functools.lru_cache(maxsize=_NULL_CACHE_SIZE)
def _literal_null_statistics(
    q_out: float, M: int, n_null: int, seed: int
) -> Tuple[np.ndarray, np.ndarray]:
    """Null statistics drawn through the model quantile and scored by cdf.

    Consumes the uniform stream in the same order as the probability-space
    route, so the two null sets correspond replicate for replicate.  Slower
    than that route (one scalar quantile call per draw); intended for
    validation at small M.  Memoized like _null_statistics.
    """
    stream = UniformStream(seed)
    ks = np.empty(n_null)
    ad = np.empty(n_null)
    for j in range(n_null):
        u = stream.take(M)
        u.sort()
        x = np.array([distribution.quantile(q_out, t) for t in u])
        F = distribution.cdf_array(q_out, x)
        ks[j], ad[j] = _both_statistics(F)
    return ks, ad


def mc_p_value(
    spec: QSpec,
    M: int,
    observed: float,
    kind: str = "ks",
    n_null: int = 999,
    seed: int = DEFAULT_NULL_SEED,
    method: str = "probability",
) -> float:
    """Monte Carlo p-value of an observed statistic: (1 + #{null >= obs})/(n_null + 1).

    method "probability" (default) uses the distribution-free null in
    probability space and ignores spec; "literal" replays the null through
    spec's quantile and cdf.
    """
    if kind not in ("ks", "ad"):
        raise ValueError("kind must be 'ks' or 'ad', got %r" % (kind,))
    if not (isinstance(M, int) and M > 0):
        raise ValueError("M must be a positive integer, got %r" % (M,))
    if not (isinstance(n_null, int) and n_null > 0):
        raise ValueError("n_null must be a positive integer, got %r" % (n_null,))
    if not (math.isfinite(observed) and observed >= 0.0):
        raise ValueError("observed statistic must be finite and >= 0, got %r" % (observed,))
    if method == "probability":
        ks_null, ad_null = _null_statistics(M, n_null, seed)
    elif method == "literal":
        ks_null, ad_null = _literal_null_statistics(spec.q_out, M, n_null, seed)
    else:
        raise ValueError("method must be 'probability' or 'literal', got %r" % (method,))
    nulls = ks_null if kind == "ks" else ad_null
    exceed = int(np.count_nonzero(nulls >= observed))
    return (1.0 + exceed) / (n_null + 1.0)


def _model_cdf_values(q_out: float, x: np.ndarray, arrangement: str) -> np.ndarray:
    """Model cdf at sorted sample points, in the requested arrangement.

    "direct" is the protocol arrangement: for 1 < q < 3 it saturates at
    exactly 1.0 deep in the tail (see distribution.cdf_array_direct), and the
    trial tables' sensitivity profile above q_out = 2.3 depends on that.
    "complement" is tail-exact; under it the chaotic generator passes both
    tests at every q_out on this grid, so it is offered for diagnostics, not
    for reproducing the calibrated tables.
    """
    if arrangement == "direct":
        return distribution.cdf_array_direct(q_out, x)
    if arrangement == "complement":
        return distribution.cdf_array(q_out, x)
    raise ValueError(
        "arrangement must be 'direct' or 'complement', got %r" % (arrangement,)
    )


def gof_test(
    samples: Sequence[float],
    q_out: float,
    kind: str = "ks",
    n_null: int = 999,
    seed: int = DEFAULT_NULL_SEED,
    arrangement: str = "direct",
) -> GofResult:
    """Sort samples, score them against the model cdf, and attach a p-value."""
    x = np.sort(np.asarray(samples, dtype=float))
    if x.size == 0:
        raise ValueError("samples must be non-empty")
    spec = make_spec(q_out)
    F = _model_cdf_values(q_out, x, arrangement)
    ks, ad = _both_statistics(F)
    stat = ks if kind == "ks" else ad
    p = mc_p_value(spec, int(x.size), stat, kind=kind, n_null=n_null, seed=seed)
    return GofResult(
        q_out=q_out, kind=kind, statistic=stat, p_value=p,
        n_samples=int(x.size), n_null=n_null,
    )


def autocorrelation(samples: Sequence[float], m: int) -> float:
    """Empirical autocovariance C(m) with mean subtraction.

    C(0) is the biased sample variance; a constant sequence gives 0 at
    every lag.  Callers wanting the normalized ratio divide by C(0).
    """
    x = np.asarray(samples, dtype=float)
    N = x.size
    if not (isinstance(m, int) and 0 <= m < N):
        raise ValueError("lag m must satisfy 0 <= m < len(samples), got %r" % (m,))
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

    One z_map call validates z0.  The burn-in and the chain-rule route
    step through maps._radial_orbit, the one copy of the radial step, in
    blocks of _ORBIT_BLOCK; the chain-rule route sums its terms over each
    block's (z, u0, u_c) lists.  The analytic route keeps a fused loop
    that inlines z_map, z_map_derivative, q_exp and q_ln with their exact
    expression shapes, because its derivative reuses each step's u before
    the clamp, which the kernel does not return.  Both routes match the
    per-call composition of the public functions bit for bit
    (tests/lyapunov_reference.py keeps that composition, and
    test_matches_per_call_reference compares the two).
    """
    if not (isinstance(t, int) and t > 0):
        raise ValueError("t must be a positive integer, got %r" % (t,))
    z_map(q_int, cfg, z0)
    z = z0
    for lo in range(0, burn_in, _ORBIT_BLOCK):
        z = _radial_orbit(q_int, cfg, z, min(_ORBIT_BLOCK, burn_in - lo))[0][-1]
    log_ = math.log
    acc = 0.0
    used = 0
    if cfg.l == 2 and cfg.c == 1:
        exp_ = math.exp
        sqrt_ = math.sqrt
        isfinite_ = math.isfinite
        gaussian = abs(q_int - 1.0) < _Q_ONE_EPS
        one_m_q = 1.0 - q_int
        q_ge_1 = q_int >= 1.0
        z_edge = math.sqrt(2.0 / one_m_q) if q_int < 1.0 else 0.0
        u_clamp = _U_CLAMP_LO
        u_lo = _u_floor(q_int) if q_ge_1 else 0.0
        s = cfg.l * (1.0 - cfg.epsilon)
        z_star = math.sqrt(-2.0 * q_ln(q_int, 0.5))
        scale = 2.0 ** (1.0 - q_int)
        for _ in range(t):
            if gaussian:
                u = exp_(-z * z * 0.5)
            else:
                a = 1.0 + one_m_q * (-z * z * 0.5)
                u = 0.0 if a <= 0.0 else exp_(log_(a) / one_m_q)
            # z_map_derivative(q_int, z); d = 0.0 where it raises ValueError.
            # z comes from z_map arithmetic, so it is finite and inside the
            # support: of the domain checks only z > 0 can fail.
            d = 0.0
            if z > 0.0 and abs(z - z_star) > 1e-9:
                if z > z_star:
                    num = scale * z
                    w = 2.0 * u
                else:
                    num = -scale * (1.0 - u) ** (-q_int) * u ** q_int * z
                    w = 2.0 * (1.0 - u)
                if w > 0.0:
                    if gaussian:
                        x = -2.0 * log_(w)
                    else:
                        x = -2.0 * ((exp_(log_(w) * one_m_q) - 1.0) / one_m_q)
                    if x >= 0.0:
                        d = num / sqrt_(x)
            # z_map(q_int, cfg, z)
            if q_ge_1 and u < u_clamp:
                u = u_clamp
            u = 1.0 - abs(1.0 - s * u)
            if q_ge_1 and u < u_lo:
                u = u_lo
            if u == 0.0:
                z = z_edge
            elif gaussian:
                z = sqrt_(-2.0 * log_(u))
            else:
                z = sqrt_(-2.0 * ((exp_(log_(u) * one_m_q) - 1.0) / one_m_q))
            if d and isfinite_(d):
                acc += log_(abs(d))
                used += 1
    else:
        log_slope = cfg.c * math.log(cfg.slope)
        for lo in range(0, t, _ORBIT_BLOCK):
            zs, u0s, us = _radial_orbit(q_int, cfg, z, min(_ORBIT_BLOCK, t - lo))
            for z_next, u0, u in zip(zs, u0s, us):
                if u0 > 0.0 and u > 0.0 and z > 0.0 and z_next > 0.0:
                    acc += (
                        log_slope
                        + q_int * (log_(u0) - log_(u))
                        + log_(z)
                        - log_(z_next)
                    )
                    used += 1
                z = z_next
    if used == 0:
        raise ArithmeticError("no usable steps in the Lyapunov average")
    return acc / used


@dataclass(frozen=True)
class TrialRow:
    """Best-of-trials verdict for one deformation parameter."""

    q_out: float
    nu: Optional[float]
    p_ks_best: float
    p_ad_best: float
    p_ks: Tuple[float, ...]
    p_ad: Tuple[float, ...]


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
        return {
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
    spec: QSpec, master_seed: int, iq: int, trial: int
) -> Tuple[float, float, int]:
    """Derive (v0, z0, w0_sign) for one trial from its substream."""
    stream = UniformStream(derive_seed(master_seed, iq, trial))
    u1 = stream.next_float()
    u2 = stream.next_float()
    u3 = stream.next_float()
    v0 = 0.05 + 0.9 * u1
    if spec.q_int < 1.0:
        z0 = (0.05 + 0.9 * u2) * math.sqrt(2.0 / (1.0 - spec.q_int))
    else:
        z0 = 0.05 + 0.9 * u2
    w0_sign = 1 if u3 < 0.5 else -1
    return v0, z0, w0_sign


def _table_row(
    args: Tuple[float, int, MapConfig, int, int, int, np.ndarray, np.ndarray, str]
) -> TrialRow:
    q_out, iq, cfg, trials, samples, master_seed, ks_null, ad_null, arr = args
    n_null = ks_null.size
    spec = make_spec(q_out)
    p_ks: List[float] = []
    p_ad: List[float] = []
    for trial in range(trials):
        v0, z0, w0_sign = _trial_start(spec, master_seed, iq, trial)
        state = init(spec, cfg, v0=v0, z0=z0, w0_sign=w0_sign)
        batch = generate(state, samples)
        x = np.sort(batch.xi)
        F = _model_cdf_values(q_out, x, arr)
        ks, ad = _both_statistics(F)
        p_ks.append((1.0 + int(np.count_nonzero(ks_null >= ks))) / (n_null + 1.0))
        p_ad.append((1.0 + int(np.count_nonzero(ad_null >= ad))) / (n_null + 1.0))
    return TrialRow(
        q_out=q_out,
        nu=spec.nu,
        p_ks_best=max(p_ks),
        p_ad_best=max(p_ad),
        p_ks=tuple(p_ks),
        p_ad=tuple(p_ad),
    )


def run_trial_table(
    q_list: Sequence[float],
    cfg: MapConfig = MapConfig(),
    trials: int = 100,
    samples: int = 10000,
    master_seed: int = 20260839,
    n_null: int = 999,
    null_seed: int = DEFAULT_NULL_SEED,
    jobs: int = 1,
    arrangement: str = "direct",
) -> TrialTable:
    """Best-of-trials p-value table over a deformation grid.

    Every (q, trial) cell seeds its own generator start from a substream of
    master_seed, so results do not depend on jobs or evaluation order.  The
    default "direct" cdf arrangement is part of the calibrated protocol; see
    _model_cdf_values for what "complement" changes.
    """
    if not (isinstance(trials, int) and trials > 0):
        raise ValueError("trials must be a positive integer, got %r" % (trials,))
    if not (isinstance(samples, int) and samples > 0):
        raise ValueError("samples must be a positive integer, got %r" % (samples,))
    # One null for every row, built here so pool workers do not rebuild it.
    ks_null, ad_null = _null_statistics(samples, n_null, null_seed)
    tasks = [
        (float(q), iq, cfg, trials, samples, master_seed, ks_null, ad_null,
         arrangement)
        for iq, q in enumerate(q_list)
    ]
    if jobs > 1 and len(tasks) > 1:
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            rows = list(pool.map(_table_row, tasks))
    else:
        rows = [_table_row(t) for t in tasks]
    return TrialTable(
        rows=tuple(rows),
        cfg=cfg,
        trials=trials,
        samples=samples,
        n_null=n_null,
        master_seed=master_seed,
        null_seed=null_seed,
    )
