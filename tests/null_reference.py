"""Per-replicate null loops on scalar next_float: the oracles for the null.

stats._null_statistics draws a block of replicates with one
UniformStream.take, which mixes the whole block of SplitMix64 words in
one compiled loop (or in numpy uint64 where the library cannot be built),
and scores the block's rows with one 2-d _both_statistics call.
reference_null_statistics keeps its replicate loop as it was written on
one next_float call per word, and scores each replicate with its own copy
of the 1-d statistics below, so the tests hold the block stream, the
row-wise sort and the package's statistic arithmetic to the same bits,
end to end.  reference_literal_null_statistics is the literal
null: the same uniforms drawn through the model quantile and scored by the
model cdf, which the tests hold the distribution-free shortcut to, up to
the round trip.  Do not optimise any of this; the package code is tested
*against* it.
"""

import math

import numpy as np

from qgauss import distribution
from qgauss.generator import UniformStream


def _edf_deviations(F):
    """max(|i/M - F_i|, |(i-1)/M - F_i|) for sorted cdf values F."""
    M = F.size
    i = np.arange(1, M + 1, dtype=float)
    return np.maximum(np.abs(i / M - F), np.abs((i - 1.0) / M - F))


def _both_statistics(F):
    """(KS, tail-weighted) statistics from sorted cdf values in one pass."""
    M = F.size
    dev = _edf_deviations(F)
    ks = math.sqrt(M) * float(dev.max())
    clipped = np.clip(F, 1.0 / (2.0 * M), 1.0 - 1.0 / (2.0 * M))
    ad = math.sqrt(M) * float((dev / np.sqrt(clipped * (1.0 - clipped))).max())
    return ks, ad


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
