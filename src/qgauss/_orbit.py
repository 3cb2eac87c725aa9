"""Build, cache and call the compiled loops (_orbit.c) through ctypes.

The library is compiled on first use, not at import and not at install
time, because the tests and the benchmark import the package from src/
without installing it.  The system `cc` builds it into a per-user cache,
$XDG_CACHE_HOME/qgauss (default ~/.cache/qgauss, mode 0700), under a name
keyed by a sha256 of the source and the compiler command, so an edited
source or changed flags never load a stale build.  Each process compiles
into its own temporary file and renames it into place with os.replace, so
processes that start together race only to write identical bytes.

The library has seven entry points, each behind a wrapper here: the
generator's orbits (orbit), one maps.chebyshev_pair and one maps.z_map
step at a time, of up to LANES orbits that share the map and q_int in
lockstep, the Lyapunov average (lyapunov), UniformStream words
(take), the two EDF statistics of rows of sorted values (scores), which
the Monte Carlo null calls, the same two statistics of one sample under
distribution.cdf_array_direct from the cdf values of only the samples
that can hold a maximum (bounded_scores), which stats._score calls for
stats.gof_test and the table trials, the transform sampler's pairs
(gbmm), which generator.gbmm_generate calls, and the "%.17g" CSV rows of
a block of doubles (write_rows), which qgauss gen and diag write, with
fixed-width stores of 8 digits at a time (see FIELD_BYTES).  The
wrappers check every argument the C loops trust, with the rules of maps
(_check_count, _check_degree); the callers check z0.
maps._RadialParams goes to C by pointer, as the record _Radial built from
its fields, and scores passes its two-row arrays whole.  bounded_scores
takes scipy's scalar betainc and ndtr as the addresses
distribution._direct_kernels reads from scipy.special.cython_special,
and C declares them as typed function pointers (double (double, double,
double, int) and double (double, int)), the signatures that function
checks.  take and scores are called thousands of times per null, so
they, like bounded_scores, gbmm and write_rows, pass pointers as
arr.ctypes.data, not through data_as.  kernel() returns None, and never
raises, when no compiler runs, the compile fails or the cache directory
is unusable; the callers then run their Python or numpy code, which gives
the same bytes.
"""

from __future__ import annotations

import ctypes
import functools
import hashlib
import os
import stat
import threading
from pathlib import Path
from typing import List, Optional, Sequence, Tuple, get_type_hints

import numpy as np

from .maps import _RADIUS_TOL, _RadialParams, _check_count, _check_degree

_SOURCE = Path(__file__).with_name("_orbit.c")

# -ffp-contract=off keeps every product and sum separately rounded, as in
# Python; a fused multiply-add changes the orbit's bits.
# -falign-functions=64 starts every function on a cache line, so an edit
# that grows one function does not move the others' loops across the
# 64-byte instruction-fetch windows: unaligned, an unchanged
# qgauss_scores ran 4-5% slower after the orbit grew.
_FLAGS = ("-O2", "-ffp-contract=off", "-falign-functions=64", "-fPIC", "-shared")

_DOUBLE_P = ctypes.POINTER(ctypes.c_double)

# Orbits qgauss_orbit steps together at most: the LANES of _orbit.c, and
# the group size of a trial-table row's trials (stats._table_row).
LANES = 8

# Bytes the row writer may need per value.  A field counts at most 25: the
# longest "%.17g" value (a sign, 17 digits, a point and "e-308", see
# format_g17 in _orbit.c) and the ',' or '\n' after it.  format_g17 stores
# whole 8-byte words, which may reach 26 bytes from the field's start
# before the next field overwrites what is past its count.
FIELD_BYTES = 26

# Status codes of qgauss_lyapunov: the exception the Python loop raises at
# the same step.
_LYAPUNOV_ERRORS = {
    1: (ZeroDivisionError, "division by zero in the Lyapunov derivative"),
    2: (OverflowError, "the Lyapunov derivative is out of double range"),
}

_C_TYPES = {bool: ctypes.c_int, int: ctypes.c_int64, float: ctypes.c_double}


class _Radial(ctypes.Structure):
    """_orbit.c's struct radial: the fields of maps._RadialParams, in order."""

    _fields_ = [(name, _C_TYPES[kind])
                for name, kind in get_type_hints(_RadialParams).items()]


def cache_dir() -> Path:
    """$XDG_CACHE_HOME/qgauss, or ~/.cache/qgauss when it is unset or relative."""
    base = os.environ.get("XDG_CACHE_HOME", "")
    if not os.path.isabs(base):
        base = os.path.join(os.path.expanduser("~"), ".cache")
    return Path(base) / "qgauss"


def _private_dir(path: Path) -> bool:
    """Create path (mode 0700) if needed; True if it is a directory of
    ours that no other user can write, so a library loaded from it is one
    this user built.  False where the platform has no user ids to check
    (os.getuid is missing on Windows)."""
    if not hasattr(os, "getuid"):
        return False
    try:
        path.mkdir(mode=0o700, parents=True, exist_ok=True)
        st = path.stat()
    except OSError:
        return False
    return (
        stat.S_ISDIR(st.st_mode)
        and st.st_uid == os.getuid()
        and not st.st_mode & (stat.S_IWGRP | stat.S_IWOTH)
    )


def _declare(lib: ctypes.CDLL) -> ctypes.CDLL:
    fn = lib.qgauss_orbit
    fn.argtypes = [
        ctypes.c_int, ctypes.POINTER(_Radial), ctypes.c_double,
        ctypes.c_int64, _DOUBLE_P, ctypes.c_int64, _DOUBLE_P, _DOUBLE_P,
    ]
    fn.restype = None
    fn = lib.qgauss_lyapunov
    fn.argtypes = [
        ctypes.POINTER(_Radial), ctypes.c_double, ctypes.c_double,
        ctypes.c_int64, ctypes.c_int64,
        _DOUBLE_P, ctypes.POINTER(ctypes.c_int64),
    ]
    fn.restype = ctypes.c_int
    fn = lib.qgauss_take
    fn.argtypes = [ctypes.c_uint64, ctypes.c_int64, ctypes.c_void_p]
    fn.restype = None
    fn = lib.qgauss_scores
    fn.argtypes = [
        ctypes.c_void_p, ctypes.c_int64, ctypes.c_int64,
        ctypes.c_void_p, ctypes.c_void_p,
    ]
    fn.restype = None
    fn = lib.qgauss_bounded_scores
    fn.argtypes = [
        ctypes.c_void_p, ctypes.c_int64, ctypes.c_int, ctypes.c_double,
        ctypes.c_double, ctypes.c_double, ctypes.c_void_p,
        ctypes.c_void_p, ctypes.c_void_p, ctypes.c_void_p, ctypes.c_void_p,
    ]
    fn.restype = ctypes.c_int64
    fn = lib.qgauss_gbmm
    fn.argtypes = [
        ctypes.POINTER(_Radial), ctypes.c_void_p, ctypes.c_int64,
        ctypes.c_void_p, ctypes.c_void_p,
    ]
    fn.restype = None
    fn = lib.qgauss_write_rows
    fn.argtypes = [ctypes.c_void_p, ctypes.c_int64, ctypes.c_int64, ctypes.c_void_p]
    fn.restype = ctypes.c_int64
    return lib


def build(directory: Path, cc: str = "cc") -> Optional[ctypes.CDLL]:
    """Load the library from directory, compiling it there with cc first
    if no build of this source and these flags is cached; None on failure."""
    try:
        source = _SOURCE.read_bytes()
    except OSError:
        return None
    command = (cc, *_FLAGS)
    key = hashlib.sha256(source + b"\0" + "\0".join(command).encode()).hexdigest()
    target = directory / ("orbit-%s.so" % key[:32])
    if not _private_dir(directory):
        return None
    if not target.is_file():
        # only a build needs these, so importing the package loads neither
        import subprocess
        import tempfile

        try:
            fd, tmp = tempfile.mkstemp(prefix=".orbit-", suffix=".so", dir=directory)
        except OSError:
            return None
        os.close(fd)
        try:
            done = subprocess.run(
                [*command, "-x", "c", "-", "-o", tmp, "-lm"],
                input=source, capture_output=True, timeout=120,
            )
            if done.returncode != 0:
                return None
            os.replace(tmp, target)
        except (OSError, subprocess.SubprocessError):
            return None
        finally:
            if os.path.exists(tmp):
                os.unlink(tmp)
    try:
        return _declare(ctypes.CDLL(str(target)))
    except (OSError, AttributeError):
        return None


# Held by every kernel() call, so threads that make the first call at once
# run one build and get one library.
_KERNEL_LOCK = threading.Lock()


@functools.cache
def _kernel() -> Optional[ctypes.CDLL]:
    return build(cache_dir())


def kernel() -> Optional[ctypes.CDLL]:
    """The compiled library for this process, built on the first call;
    None when it cannot be built or loaded here."""
    with _KERNEL_LOCK:
        return _kernel()


def _check_array(name: str, a: np.ndarray, shape: Tuple[int, ...],
                 writeable: bool = True) -> None:
    if not (
        isinstance(a, np.ndarray)
        and a.dtype == np.float64
        and a.shape == shape
        and a.flags.c_contiguous
        and (a.flags.writeable or not writeable)
    ):
        raise ValueError(
            "%s must be a %sC-contiguous float64 array of shape %r"
            % (name, "writeable " if writeable else "", shape)
        )


def orbit(
    lib: ctypes.CDLL,
    d: int,
    radial: _RadialParams,
    wvz: Sequence[Tuple[float, float, float]],
    n: int,
    xi: np.ndarray,
    eta: np.ndarray,
) -> List[Tuple[float, float, float]]:
    """Run n steps of each of the K orbits that start from wvz, a sequence
    of K (w, v, z) triples, in C, renormalizing the circle at
    maps._RADIUS_TOL; row j of xi and eta, of shape (K, n), gets orbit j's
    outputs.  Returns the K end (w, v, z).  The orbits step in lockstep,
    LANES at a time, and each gets the bits it gets alone.  Checks every
    argument the C loop trusts."""
    _check_degree(d)
    _check_count("c", radial.c, 1)
    _check_count("n", n, 0)
    k = len(wvz)
    _check_array("xi", xi, (k, n))
    _check_array("eta", eta, (k, n))
    state = (ctypes.c_double * (3 * k))(*(x for triple in wvz for x in triple))
    lib.qgauss_orbit(
        d, _Radial(*radial), _RADIUS_TOL, k, state, n,
        xi.ctypes.data_as(_DOUBLE_P), eta.ctypes.data_as(_DOUBLE_P),
    )
    return [tuple(state[3 * j:3 * j + 3]) for j in range(k)]


def lyapunov(
    lib: ctypes.CDLL,
    q_int: float,
    radial: _RadialParams,
    z0: float,
    t: int,
    burn_in: int,
) -> Tuple[float, int]:
    """Run stats.lyapunov's burn-in and t averaged steps from z0 in C;
    returns (sum of the log-derivatives, steps used), or raises the
    ZeroDivisionError or OverflowError the Python loop raises.  Checks
    every argument the C loop trusts; z0 is checked by the caller."""
    _check_count("c", radial.c, 1)
    _check_count("t", t, 0)
    _check_count("burn_in", burn_in, 0)
    acc = ctypes.c_double()
    used = ctypes.c_int64()
    status = lib.qgauss_lyapunov(
        _Radial(*radial), q_int, z0, burn_in, t, ctypes.byref(acc), ctypes.byref(used)
    )
    if status:
        error, message = _LYAPUNOV_ERRORS[status]
        raise error(message)
    return acc.value, used.value


def take(lib: ctypes.CDLL, state: int, n: int, out: np.ndarray) -> None:
    """Fill out with UniformStream words 1..n after state (see
    generator.UniformStream), in C.  Checks every argument the C loop
    trusts; the caller advances its state."""
    _check_count("state", state, 0, 2 ** 64 - 1)
    _check_count("n", n, 0)
    _check_array("out", out, (n,))
    lib.qgauss_take(state, n, out.ctypes.data)


def scores(lib: ctypes.CDLL, F: np.ndarray, steps: np.ndarray,
           out: np.ndarray) -> None:
    """Fill out[0] and out[1] with the (KS, tail-weighted) statistics of
    each row of the sorted values F, of shape (rows, M), against the EDF
    steps of stats._edf_steps(M), in C.  Checks every argument the C loop
    trusts."""
    if not (isinstance(F, np.ndarray) and F.ndim == 2):
        raise ValueError("F must be a 2-d array of rows of sorted values")
    rows, M = F.shape
    _check_count("M", M, 1)
    _check_array("F", F, (rows, M), writeable=False)
    _check_array("steps", steps, (2, M), writeable=False)
    _check_array("out", out, (2, rows))
    lib.qgauss_scores(F.ctypes.data, rows, M, steps.ctypes.data, out.ctypes.data)


# qgauss_bounded_scores' branch of each cdf_array_direct arrangement.
_GAUSSIAN, _COMPACT, _HEAVY = 0, 1, 2

# Samples per top-level block of qgauss_bounded_scores: the BLOCK of
# _orbit.c, which keeps one double per block in its work array.
_SCORE_BLOCK = 64


def bounded_work(M: int) -> np.ndarray:
    """A new work array for bounded_scores of M samples: each sample's
    kernel argument and value, and one double per block."""
    return np.empty(2 * M + M // _SCORE_BLOCK + 1)


def bounded_scores(lib: ctypes.CDLL, spec, x: np.ndarray, steps: np.ndarray,
                   kernels: Tuple[int, int],
                   work: Optional[np.ndarray] = None) -> Tuple[float, float, int]:
    """(KS, tail-weighted) statistics of the sample x under
    distribution.cdf_array_direct for the family member spec (a
    distribution.QSpec), against the EDF steps of stats._edf_steps(M), in
    C, and the number of betainc or ndtr calls that took.  They have the
    bits scores gives the cdf values of x.  kernels is the pair of
    addresses distribution._direct_kernels returns.  x is scored in any
    order; sorted, few of its values are evaluated: about 450 of 10**4 in
    a table trial, since each value at a block's end or a split bounds
    the parts on both sides of it.  work, from bounded_work(M), is the
    loop's scratch; a caller that scores many samples of one size passes
    one, and without it each call allocates its own.  Checks every
    argument the C loop trusts."""
    if not (isinstance(x, np.ndarray) and x.ndim == 1):
        raise ValueError("x must be a 1-d array of samples")
    M = x.size
    _check_count("M", M, 1)
    _check_array("x", x, (M,), writeable=False)
    _check_array("steps", steps, (2, M), writeable=False)
    betainc, ndtr = kernels
    _check_count("betainc", betainc, 1, 2 ** 64 - 1)
    _check_count("ndtr", ndtr, 1, 2 ** 64 - 1)
    if work is None:
        work = bounded_work(M)
    _check_array("work", work, (2 * M + M // _SCORE_BLOCK + 1,))
    branch = _GAUSSIAN if spec.gaussian else _COMPACT if spec.q_out < 1.0 else _HEAVY
    out = np.empty(2)
    calls = lib.qgauss_bounded_scores(
        x.ctypes.data, M, branch, spec.k, spec.a, spec.half_width,
        steps.ctypes.data, betainc, ndtr, work.ctypes.data, out.ctypes.data)
    return float(out[0]), float(out[1]), calls


def gbmm(lib: ctypes.CDLL, radial: _RadialParams, u: np.ndarray, n: int,
         xi: np.ndarray, eta: np.ndarray) -> None:
    """Fill xi and eta with generator.gbmm_sample of the n uniform pairs
    (u[2i], u[2i+1]), in C; radial is maps._radial_params of the member's
    q_int, whose u_lo floors u1.  Checks every argument the C loop trusts,
    and that every uniform lies in (0, 1), as gbmm_sample does."""
    _check_count("n", n, 0)
    _check_array("u", u, (2 * n,), writeable=False)
    _check_array("xi", xi, (n,))
    _check_array("eta", eta, (n,))
    if n and not (u.min() > 0.0 and u.max() < 1.0):
        raise ValueError("every uniform must lie strictly inside (0, 1)")
    lib.qgauss_gbmm(_Radial(*radial), u.ctypes.data, n, xi.ctypes.data, eta.ctypes.data)


def write_rows(lib: ctypes.CDLL, block: np.ndarray, out: np.ndarray) -> int:
    """Write the rows of the 2-d block into out as CSV, in C: each value
    in "%.17g", with the bytes of Python's % operator, the values of a row
    joined by "," and every row ended by a newline.  Returns the number of
    bytes written.  out is a uint8 array of at least FIELD_BYTES bytes per
    value.  Checks every argument the C loop trusts."""
    if not (isinstance(block, np.ndarray) and block.ndim == 2):
        raise ValueError("block must be a 2-d array of rows")
    rows, cols = block.shape
    _check_count("cols", cols, 1)
    _check_array("block", block, (rows, cols), writeable=False)
    if not (
        isinstance(out, np.ndarray)
        and out.dtype == np.uint8
        and out.ndim == 1
        and out.flags.c_contiguous
        and out.flags.writeable
        and out.size >= FIELD_BYTES * rows * cols
    ):
        raise ValueError("out must be a writeable C-contiguous uint8 array of "
                         "at least %d bytes" % (FIELD_BYTES * rows * cols,))
    return lib.qgauss_write_rows(block.ctypes.data, rows, cols, out.ctypes.data)
