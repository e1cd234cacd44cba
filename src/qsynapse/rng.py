"""Seeded random streams.

Every stochastic quantity in the package draws from a Philox4x64-10
counter-based generator keyed on ``(seed, stream)``.  Philox is fully
specified and platform independent, so identical seeds reproduce
bit-identical results everywhere.  Higher-level code applies its own
transforms (inverse CDF) to raw uniforms instead of calling distribution
methods, which keeps generated streams stable across library versions.
"""

from __future__ import annotations

import numpy as np

_U64 = (1 << 64) - 1


def stream_rng(seed: int, stream: int = 0) -> np.random.Generator:
    """Independent generator for the (seed, stream) pair."""
    # an explicit uint64 key keeps all 64 bits; a list with a value >= 2**63
    # would become float64 and collapse seeds that differ in their low bits
    key = np.array([seed & _U64, stream & _U64], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


# sample_counts draws this many uniforms at a time.  A Generator yields the
# same stream whatever the block sizes, so the counts do not depend on it;
# it bounds the memory of a large measurement (100000 shots in one block held
# three 800 KB arrays at once).
SHOT_BLOCK = 8192


def sample_counts(probs: np.ndarray, shots: int, rng: np.random.Generator) -> np.ndarray:
    """Histogram of ``shots`` i.i.d. inverse-CDF draws from a probability vector.

    Zero-probability bins are unreachable exactly: a bin of zero width can
    never contain a uniform draw, and the overflow guard below maps any
    rounding residue at the top of the CDF onto the last nonzero bin.
    """
    p = np.asarray(probs, dtype=float)
    total = p.sum()
    if total <= 0.0:
        raise ValueError("probability vector sums to zero")
    cdf = np.cumsum(p / total)
    last_nonzero = int(np.flatnonzero(p)[-1])
    counts = np.zeros(p.size, dtype=np.intp)
    for start in range(0, shots, SHOT_BLOCK):
        idx = np.searchsorted(cdf, rng.random(min(SHOT_BLOCK, shots - start)), side="right")
        counts += np.bincount(np.minimum(idx, last_nonzero, out=idx), minlength=p.size)
    return counts


def exponential_gap(rate: float, rng: np.random.Generator) -> float:
    """One exponential inter-arrival time at ``rate`` from a raw uniform."""
    # -log1p(-u) maps u in [0, 1) to (0, inf) without ever producing 0.0
    return -np.log1p(-rng.random()) / rate
