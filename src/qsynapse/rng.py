"""Seeded random streams.

Every stochastic quantity in the package draws from a Philox4x64-10
counter-based generator keyed on ``(seed, stream)``.  Philox is fully
specified and platform independent, so identical seeds reproduce
bit-identical results everywhere.  Higher-level code applies its own
transforms (inverse CDF) to raw uniforms instead of calling distribution
methods, which keeps generated streams stable across library versions.
"""

from __future__ import annotations

import threading
from itertools import accumulate
from typing import Sequence

import numpy as np

_U64 = (1 << 64) - 1


def stream_rng(seed: int, stream: int = 0) -> np.random.Generator:
    """Independent generator for the (seed, stream) pair."""
    # an explicit uint64 key keeps all 64 bits; a list with a value >= 2**63
    # would become float64 and collapse seeds that differ in their low bits
    key = np.array([seed & _U64, stream & _U64], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


_local = threading.local()


def thread_rng(seed: int, stream: int = 0) -> np.random.Generator:
    """The calling thread's Philox generator, re-keyed to the (seed, stream) stream.

    It draws exactly what a fresh ``stream_rng(seed, stream)`` draws: key
    (seed, stream), counter 0, an empty output buffer.  Re-keying costs a
    fraction of building a generator, and one generator per thread lets
    concurrent calls re-key without racing.  A caller finishes its draws
    before anything else on the thread asks for the generator.
    """
    rng = getattr(_local, "rng", None)
    if rng is None:
        rng = _local.rng = stream_rng(seed, stream)
        return rng
    rng.bit_generator.state = {
        "bit_generator": "Philox",
        "state": {"counter": (0, 0, 0, 0), "key": (seed & _U64, stream & _U64)},
        "buffer": (0, 0, 0, 0),
        "buffer_pos": 4,
        "has_uint32": 0,
        "uinteger": 0,
    }
    return rng


def _pairwise_sum(a: list[float], lo: int, n: int) -> float:
    """Sum of ``a[lo:lo + n]`` in the order ``np.sum`` adds a contiguous float64 array."""
    if n < 8:
        s = 0.0
        for i in range(lo, lo + n):
            s += a[i]
        return s
    if n <= 128:
        r = a[lo:lo + 8]
        end = lo + n - n % 8
        for i in range(lo + 8, end, 8):
            for j in range(8):
                r[j] += a[i + j]
        s = ((r[0] + r[1]) + (r[2] + r[3])) + ((r[4] + r[5]) + (r[6] + r[7]))
        for i in range(end, lo + n):
            s += a[i]
        return s
    half = n // 2
    half -= half % 8
    return _pairwise_sum(a, lo, half) + _pairwise_sum(a, lo + half, n - half)


# sample_counts draws this many uniforms at a time.  A Generator yields the
# same stream whatever the block sizes, so the counts do not depend on it;
# it bounds the memory of a large measurement.
SHOT_BLOCK = 8192
# Up to this many CDF edges, one numpy compare per edge counts a block (~1.4 us
# an edge at 2000 shots); past it, searchsorted + bincount (~13-24 us) costs less.
COMPARE_EDGES = 8


def sample_counts(probs: Sequence[float], shots: int, rng: np.random.Generator) -> list[int]:
    """Histogram of ``shots`` i.i.d. inverse-CDF draws from a probability vector.

    A draw u lands in the first bin k with u < cdf[k], cdf = ``np.cumsum(p / p.sum())``
    in Python floats.  Only the edges below the last nonzero bin L are used: bins past
    L are unreachable, and L takes every draw at or above cdf[L - 1], top residue included.
    """
    p = list(map(float, probs))
    total = _pairwise_sum(p, 0, len(p))
    if total <= 0.0:
        raise ValueError("probability vector sums to zero")
    last = len(p) - 1 - next(k for k, x in enumerate(reversed(p)) if x != 0.0)
    tail = [0] * (len(p) - 1 - last)
    if last > COMPARE_EDGES:  # np.cumsum adds in order: the bits of the Python cdf below
        edges, counts = np.cumsum(np.divide(p[:last], total)), np.zeros(last + 1, dtype=np.intp)
        for start in range(0, shots, SHOT_BLOCK):
            u = rng.random(min(SHOT_BLOCK, shots - start))
            counts += np.bincount(edges.searchsorted(u, "right"), minlength=last + 1)
        return counts.tolist() + tail
    cdf, below = list(accumulate(x / total for x in p[:last])), [0] * last  # below: bins 0..k
    for start in range(0, shots, SHOT_BLOCK):
        u = rng.random(min(SHOT_BLOCK, shots - start))
        for k, edge in enumerate(cdf):
            below[k] += int(np.count_nonzero(u < edge))
    bounds = [0, *below, shots]
    return [b - a for a, b in zip(bounds, bounds[1:])] + tail
