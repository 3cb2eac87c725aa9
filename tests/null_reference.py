"""Per-replicate null loops on scalar next_float: the oracles for the null.

stats._null_statistics draws each replicate's M uniforms with one
UniformStream.take(M), which mixes the whole block of SplitMix64 words in
numpy uint64.  reference_null_statistics keeps its replicate loop as it was
written on one next_float call per word, so the tests can hold the
vectorised stream to the same bits, end to end through the statistics.
reference_literal_null_statistics is the literal null: the same uniforms
drawn through the model quantile and scored by the model cdf, which the
tests hold the distribution-free shortcut to, up to the round trip.  Do not
optimise either; the package code is tested *against* them.
"""

import numpy as np

from qgauss import distribution
from qgauss.generator import UniformStream
from qgauss.stats import _both_statistics


def _take(stream, M):
    out = np.empty(M)
    for i in range(M):
        out[i] = stream.next_float()
    return out


def reference_null_statistics(M, n_null, seed):
    stream = UniformStream(seed)
    ks = np.empty(n_null)
    ad = np.empty(n_null)
    for j in range(n_null):
        u = _take(stream, M)
        u.sort()
        ks[j], ad[j] = _both_statistics(u)
    return ks, ad


def reference_literal_null_statistics(q_out, M, n_null, seed):
    stream = UniformStream(seed)
    ks = np.empty(n_null)
    ad = np.empty(n_null)
    for j in range(n_null):
        u = _take(stream, M)
        u.sort()
        x = np.array([distribution.quantile(q_out, t) for t in u])
        F = distribution.cdf_array(q_out, x)
        ks[j], ad[j] = _both_statistics(F)
    return ks, ad
