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


def sample_indices(probs: np.ndarray, shots: int, rng: np.random.Generator) -> np.ndarray:
    """Draw ``shots`` i.i.d. indices from a probability vector via inverse CDF.

    Zero-probability bins are unreachable exactly: a bin of zero width can
    never contain a uniform draw, and the overflow guard below maps any
    rounding residue at the top of the CDF onto the last nonzero bin.
    """
    p = np.asarray(probs, dtype=float)
    total = p.sum()
    if total <= 0.0:
        raise ValueError("probability vector sums to zero")
    cdf = np.cumsum(p / total)
    nonzero = np.flatnonzero(p)
    last_nonzero = int(nonzero[-1])
    u = rng.random(shots)
    idx = np.searchsorted(cdf, u, side="right")
    return np.minimum(idx, last_nonzero)


def exponential_gap(rate: float, rng: np.random.Generator) -> float:
    """One exponential inter-arrival time at ``rate`` from a raw uniform."""
    # -log1p(-u) maps u in [0, 1) to (0, inf) without ever producing 0.0
    return -np.log1p(-rng.random()) / rate
