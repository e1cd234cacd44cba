"""Seeded Poisson spike-train generation and merging.

Trains are reproducible by contract: the stream for a train is a
Philox4x64-10 generator keyed on (master seed, link id), and all draws are
raw uniforms passed through fixed inverse-CDF transforms.  Modulated
profiles are realized by thinning a homogeneous process at the peak rate,
so a zero-rate segment can never contain a spike.  Candidates are drawn in
blocks, with the bits of drawing them one at a time.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from .rng import thread_rng

# generate_poisson draws at most this many candidates at a time.  A Generator
# yields the same stream whatever the block sizes, so the train does not
# depend on it; it bounds the memory of a train at a huge rate.
SPIKE_BLOCK = 8192


@dataclass(frozen=True)
class RateSegment:
    start_ms: float
    end_ms: float
    rate_per_ms: float

    def __post_init__(self):
        if not -math.inf < self.start_ms < self.end_ms < math.inf:
            raise ValueError(f"segment [{self.start_ms}, {self.end_ms}) must be finite and non-empty")
        if not 0.0 <= self.rate_per_ms < math.inf:
            raise ValueError(f"segment rate {self.rate_per_ms} must be finite and >= 0")


@dataclass(frozen=True)
class RateProfile:
    """Constant rate, or piecewise-constant modulation over a base rate."""

    kind: str                      # "constant" | "modulated"
    base_rate: float               # spikes/ms
    segments: tuple[RateSegment, ...] = ()

    def __post_init__(self):
        if self.kind not in ("constant", "modulated"):
            raise ValueError(f"unknown profile kind {self.kind!r}")
        if not 0.0 <= self.base_rate < math.inf:
            raise ValueError(f"base_rate {self.base_rate} must be finite and >= 0")
        if self.kind == "constant" and self.segments:
            raise ValueError("constant profiles take no segments")
        prev_end = None
        for seg in self.segments:
            if prev_end is not None and seg.start_ms < prev_end:
                raise ValueError("segments must be ordered and non-overlapping")
            prev_end = seg.end_ms

    @classmethod
    def constant(cls, rate_per_ms: float) -> "RateProfile":
        return cls(kind="constant", base_rate=rate_per_ms)

    @classmethod
    def modulated(
        cls, base_rate: float, segments: Iterable[Sequence[float]]
    ) -> "RateProfile":
        return cls(
            kind="modulated",
            base_rate=base_rate,
            segments=tuple(RateSegment(*map(float, s)) for s in segments),
        )

    @cached_property
    def _steps(self) -> tuple[np.ndarray, np.ndarray]:
        """Edges [s0, e0, s1, e1, ...] and the rate from each edge on, base first."""
        edges = [b for seg in self.segments for b in (seg.start_ms, seg.end_ms)]
        levels = [r for seg in self.segments for r in (seg.rate_per_ms, self.base_rate)]
        return np.array(edges, dtype=float), np.array([self.base_rate] + levels, dtype=float)

    def rates_at(self, t_ms: np.ndarray) -> np.ndarray:
        """Active rate at each time: the covering segment's, else the base rate."""
        edges, levels = self._steps
        return levels.take(edges.searchsorted(t_ms, side="right"))

    def max_rate(self) -> float:
        rates = [self.base_rate] + [s.rate_per_ms for s in self.segments]
        return max(rates)


@dataclass(frozen=True)
class SpikeTrain:
    link_id: int
    times: np.ndarray     # strictly increasing, all in [0, horizon)
    horizon_ms: float

    def __post_init__(self):
        t = np.asarray(self.times, dtype=float)
        object.__setattr__(self, "times", t)
        if t.size and (np.diff(t) <= 0).any():
            raise ValueError("spike times must be strictly increasing")
        if t.size and (t[0] < 0 or t[-1] >= self.horizon_ms):
            raise ValueError("spike times must lie in [0, horizon)")

    def __len__(self) -> int:
        return int(self.times.size)


def generate_poisson(
    profile: RateProfile, horizon_ms: float, seed: int, link_id: int = 0
) -> SpikeTrain:
    """Sample one spike train; identical (profile, horizon, seed, link) pairs
    reproduce identical trains."""
    if not 0.0 < horizon_ms < math.inf:
        raise ValueError(f"horizon_ms {horizon_ms} must be finite and > 0")
    r_max = profile.max_rate()
    blocks = []
    if r_max > 0:
        # modulated draws interleave (gap, thinning) uniforms, as one-at-a-time draws do
        per = 2 if profile.kind == "modulated" else 1
        mean = r_max * horizon_ms
        n = min(int(mean + 10 * math.sqrt(mean) + 20), SPIKE_BLOCK)
        rng = thread_rng(seed, link_id)
        t = 0.0
        while True:
            u = rng.random(per * n)
            times = -np.log1p(-u[::per]) / r_max
            times[0] += t
            np.cumsum(times, out=times)
            k = int(times.searchsorted(horizon_ms, side="left"))
            if per == 2:
                blocks.append(times[:k][u[1::2][:k] * r_max < profile.rates_at(times[:k])])
            else:
                blocks.append(times[:k])
            if k < n:
                break
            t = times[-1]
    return SpikeTrain(link_id=link_id, times=np.concatenate(blocks) if blocks else np.empty(0),
                      horizon_ms=horizon_ms)


def merge_trains(trains: Sequence[SpikeTrain]) -> list[tuple[float, int]]:
    """Globally time-ordered (time, link) events; ties break on lower link id."""
    if not trains:
        return []
    horizon = trains[0].horizon_ms
    for tr in trains[1:]:
        if tr.horizon_ms != horizon:
            raise ValueError(
                f"mismatched horizons: {tr.horizon_ms} != {horizon} (link {tr.link_id})"
            )
    events = [(t, tr.link_id) for tr in trains for t in tr.times.tolist()]
    events.sort()
    return events


def write_spike_csv(trains: Sequence[SpikeTrain], path: str | Path) -> None:
    """Two-column (time_ms, link_id) replay file in merged event order."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["time_ms", "link_id"])
        for t, link in merge_trains(trains):
            writer.writerow([repr(t), link])


def read_spike_csv(path: str | Path, horizon_ms: float) -> list[SpikeTrain]:
    """Rebuild per-link trains from a (time_ms, link_id) replay file."""
    by_link: dict[int, list[float]] = {}
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header != ["time_ms", "link_id"]:
            raise ValueError(f"unexpected spike CSV header: {header}")
        for row in reader:
            by_link.setdefault(int(row[1]), []).append(float(row[0]))
    return [
        SpikeTrain(link_id=link, times=np.array(times), horizon_ms=horizon_ms)
        for link, times in sorted(by_link.items())
    ]
