"""Leaky integrate-and-fire dynamics with gap-junction coupling.

Units are mV, ms, mS/cm² and μF/cm² throughout, so the membrane time
constant cm/g_leak comes out in ms with no conversion factors.

A neuron integrates

    cm * dv/dt = -g_leak*(v - v_rest) + sum_j gs_j*(e_syn - v)
                 + sum_k g_elec*(v_k - v) + drive

between spike events.  Incoming spikes are instantaneous state jumps
(v += spike_jump, gs_j += delta_g, clamped to gs_max) applied at step
boundaries; synaptic conductances decay exponentially with tau_syn, which
is integrated in closed form.  Crossing v_thres resets v to v_rest and
counts one output spike.  Network updates are synchronous: every neuron
reads its neighbours' potentials as frozen at the start of the step.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Sequence

import numpy as np

from .errors import NumericalDivergenceError

INTEGRATORS = ("rk4", "euler")


@dataclass(frozen=True)
class LifParams:
    """Membrane and synapse constants for one homogeneous population."""

    cm: float = 1.0            # μF/cm²
    g_leak: float = 0.0551     # mS/cm²
    v_rest: float = -65.0      # mV
    v_thres: float = -50.0     # mV
    v_init: float = -70.6837   # mV
    e_syn: float = 0.0225      # mV (synaptic reversal)
    tau_syn: float = 5.0       # ms
    gs_max: float = 0.5        # mS/cm²
    g_elec: float = 0.0        # mS/cm² (default gap-junction conductance)
    spike_jump: float = 5.0    # mV per incoming spike
    delta_g: float = 0.01      # mS/cm² conductance bump per incoming spike
    g_elec_warn_bound: float = 0.025
    literal_multilink_leak: bool = False

    def __post_init__(self):
        for name in ("cm", "g_leak", "tau_syn", "gs_max"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be > 0, got {getattr(self, name)}")
        if self.v_thres <= self.v_rest:
            raise ValueError(
                f"v_thres ({self.v_thres}) must exceed v_rest ({self.v_rest}); "
                "otherwise the neuron fires perpetually"
            )
        if not 0.0 <= self.g_elec <= self.g_elec_warn_bound:
            warnings.warn(
                f"g_elec = {self.g_elec} outside the expected range "
                f"[0, {self.g_elec_warn_bound}] mS/cm²",
                stacklevel=2,
            )

    @property
    def tau_m(self) -> float:
        """Passive membrane time constant cm/g_leak in ms."""
        return self.cm / self.g_leak


@dataclass(frozen=True)
class NetworkTopology:
    """Wiring of a network: inbound links per neuron plus gap junctions.

    ``upstream_links[i]`` lists the global link ids feeding neuron i; ids
    must be exactly 0..M-1 with each id owned by one neuron.  Gap junctions
    are unordered (i, j, g_elec) triples; every pair couples both neurons
    symmetrically with the same conductance.
    """

    neuron_count: int
    upstream_links: tuple[tuple[int, ...], ...]
    elec_pairs: tuple[tuple[int, int, float], ...] = ()

    def __post_init__(self):
        if self.neuron_count < 1:
            raise ValueError("neuron_count must be >= 1")
        if len(self.upstream_links) != self.neuron_count:
            raise ValueError("upstream_links length must equal neuron_count")
        seen: list[int] = []
        for links in self.upstream_links:
            seen.extend(links)
        if sorted(seen) != list(range(len(seen))):
            raise ValueError("global link ids must be exactly 0..M-1, each owned once")
        for i, j, g in self.elec_pairs:
            if i == j:
                raise ValueError(f"self gap-junction on neuron {i}")
            if not (0 <= i < self.neuron_count and 0 <= j < self.neuron_count):
                raise ValueError(f"gap-junction references unknown neuron: ({i}, {j})")
            if g < 0:
                raise ValueError(f"gap-junction conductance must be >= 0, got {g}")

    @classmethod
    def build(
        cls,
        neuron_count: int,
        upstream_links: Sequence[Sequence[int]],
        elec_pairs: Iterable[Sequence[float]] = (),
        default_g_elec: float = 0.0,
    ) -> "NetworkTopology":
        pairs = []
        for pair in elec_pairs:
            if len(pair) == 2:
                pairs.append((int(pair[0]), int(pair[1]), float(default_g_elec)))
            else:
                pairs.append((int(pair[0]), int(pair[1]), float(pair[2])))
        return cls(
            neuron_count=neuron_count,
            upstream_links=tuple(tuple(int(l) for l in links) for links in upstream_links),
            elec_pairs=tuple(pairs),
        )

    @cached_property
    def n_links(self) -> int:
        return sum(len(links) for links in self.upstream_links)

    @cached_property
    def link_owner(self) -> np.ndarray:
        """Owning neuron index per global link id."""
        owner = np.empty(self.n_links, dtype=np.intp)
        for i, links in enumerate(self.upstream_links):
            for l in links:
                owner[l] = i
        return owner

    @cached_property
    def gap_incidence(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(dst, src, g) per directed coupling, in pair order with i before j.

        ``np.bincount`` sums into each bin in input order starting from 0.0,
        so sums over these arrays equal a per-pair accumulation bitwise.  It
        returns integer zeros for empty input, which the users below avoid.
        """
        pairs = self.elec_pairs
        ends = np.array([(i, j) for i, j, _ in pairs], dtype=np.intp).reshape(-1, 2)
        g = np.array([g for _, _, g in pairs], dtype=float)
        return ends.ravel(), ends[:, ::-1].ravel(), np.repeat(g, 2)

    @cached_property
    def gap_conductance_sum(self) -> np.ndarray:
        """Per-neuron total gap-junction conductance."""
        dst, _, g = self.gap_incidence
        return np.bincount(dst, weights=g, minlength=self.neuron_count).astype(float, copy=False)

    def gap_input(self, v: np.ndarray) -> np.ndarray:
        """Per-neuron sum of g_elec * v_k over gap-coupled neighbours k."""
        dst, src, g = self.gap_incidence
        if not dst.size:
            return np.zeros(self.neuron_count)
        return np.bincount(dst, weights=g * v[src], minlength=self.neuron_count)

    @cached_property
    def links_per_neuron(self) -> np.ndarray:
        return np.array([float(len(links)) for links in self.upstream_links])


def decay_conductance(gs, tau_syn: float, dt: float):
    """Exact exponential decay of a synaptic conductance over one step."""
    if dt <= 0:
        raise ValueError("dt must be > 0")
    if tau_syn <= 0:
        raise ValueError("tau_syn must be > 0")
    if np.any(np.asarray(gs) < 0):
        raise ValueError("gs must be >= 0")
    return gs * math.exp(-dt / tau_syn)


def _make_rhs(tot_gs, gap_const, gap_g, drives, n_links, p: LifParams):
    """Stage derivative dv/dt = f(v, decay) with per-step constants hoisted."""
    if p.literal_multilink_leak:
        # every upstream link contributes its synaptic current minus the rest
        # potential plus the full external/gap input, all behind the leak factor
        def rhs(v, decay):
            syn = tot_gs * decay * (p.e_syn - v)
            gap = gap_const - gap_g * v
            return -p.g_leak * (syn - n_links * p.v_rest + n_links * (drives + gap)) / p.cm

        return rhs
    base = p.g_leak * p.v_rest + gap_const + drives
    v_coef = p.g_leak + gap_g
    if tot_gs.any():
        def rhs(v, decay):
            s = tot_gs * decay
            return (base + s * p.e_syn - (v_coef + s) * v) / p.cm
    else:
        def rhs(v, decay):
            return (base - v_coef * v) / p.cm

    return rhs


def _advance(
    v: np.ndarray,
    gs: np.ndarray,
    owner: np.ndarray,
    n_links: np.ndarray,
    params: LifParams,
    drives: np.ndarray,
    spike_counts: np.ndarray,
    gap_const: np.ndarray,
    gap_g: np.ndarray,
    dt: float,
    t: float,
    integrator: str,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """One synchronous step for N neurons sharing one parameter set.

    Returns (v_next, gs_next, crossed).  Raises on non-finite potentials.
    """
    n = v.shape[0]
    # instantaneous spike jumps at the step boundary
    if spike_counts.any():
        gs = np.minimum(gs + params.delta_g * spike_counts, params.gs_max)
        per_neuron = np.bincount(owner, weights=spike_counts, minlength=n)
        v = v + params.spike_jump * per_neuron
    tot_gs = np.bincount(owner, weights=gs, minlength=n)

    half = math.exp(-0.5 * dt / params.tau_syn)
    full = math.exp(-dt / params.tau_syn)
    rhs = _make_rhs(tot_gs, gap_const, gap_g, drives, n_links, params)
    # divergence is diagnosed explicitly below; let inf/nan flow through
    with np.errstate(invalid="ignore", over="ignore"):
        if integrator == "rk4":
            k1 = rhs(v, 1.0)
            k2 = rhs(v + 0.5 * dt * k1, half)
            k3 = rhs(v + 0.5 * dt * k2, half)
            k4 = rhs(v + dt * k3, full)
            v1 = v + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        elif integrator == "euler":
            v1 = v + dt * rhs(v, 1.0)
        else:
            raise ValueError(f"unknown integrator {integrator!r}; expected one of {INTEGRATORS}")

    gs1 = np.clip(gs * full, 0.0, params.gs_max) if gs.shape[0] else gs
    bad = ~np.isfinite(v1)
    if bad.any():
        raise NumericalDivergenceError(int(np.flatnonzero(bad)[0]), t)
    crossed = v1 > params.v_thres
    if crossed.any():
        v1 = np.where(crossed, params.v_rest, v1)
    return v1, gs1, crossed


@dataclass
class Trajectory:
    """Recorded run: potentials, conductances and spike events per step.

    Row i of ``v``/``gs`` is the state at ``times[i]``; spike events are
    stamped with the start time of the step in which the crossing happened.
    """

    dt_ms: float
    times: np.ndarray                    # (n_steps+1,)
    v: np.ndarray                        # (n_steps+1, N)
    gs: np.ndarray                       # (n_steps+1, M)
    spike_times: np.ndarray              # (n_events,)
    spike_neurons: np.ndarray            # (n_events,)
    params: LifParams
    topology: NetworkTopology

    @property
    def duration_ms(self) -> float:
        return float(self.times[-1]) if self.times.size else 0.0

    @property
    def n_steps(self) -> int:
        return self.times.size - 1

    def spike_rows(self) -> dict[int, list[int]]:
        """Per-neuron crossing counts at each step start that has a crossing; others are absent."""
        rows: dict[int, list[int]] = {}
        steps = np.rint(self.spike_times / self.dt_ms).astype(np.intp)
        for step, neuron in zip(steps.tolist(), self.spike_neurons.astype(np.intp).tolist()):
            rows.setdefault(step, [0] * self.topology.neuron_count)[neuron] += 1
        return rows


def bin_spike_events(
    events: Iterable[tuple[float, int]], n_steps: int, n_links: int, dt: float
) -> dict[int, np.ndarray]:
    """Per-link spike counts of the steps that have spikes, from a merged (time, link) stream."""
    counts: dict[int, np.ndarray] = {}
    for time_ms, link in events:
        step = int(time_ms // dt)
        if 0 <= step < n_steps:
            counts.setdefault(step, np.zeros(n_links))[link] += 1.0
    return counts


def simulate_network(
    params: LifParams,
    topology: NetworkTopology,
    spike_events: Iterable[tuple[float, int]],
    t_end_ms: float,
    dt_ms: float,
    *,
    drives: Sequence[float] | None = None,
    integrator: str = "rk4",
    v_init: Sequence[float] | None = None,
) -> Trajectory:
    """Run the network to ``t_end_ms`` and record the full trajectory.

    On numerical divergence the raised error carries the truncated recording
    in its ``partial`` attribute.
    """
    if dt_ms <= 0 or t_end_ms <= 0:
        raise ValueError("dt_ms and t_end_ms must be > 0")
    n_steps = int(round(t_end_ms / dt_ms))
    n = topology.neuron_count
    m = topology.n_links
    counts = bin_spike_events(spike_events, n_steps, m, dt_ms)
    no_spikes = np.zeros(m)
    dr = np.zeros(n) if drives is None else np.asarray(drives, dtype=float)

    v = np.full(n, params.v_init) if v_init is None else np.asarray(v_init, dtype=float).copy()
    gs = np.zeros(m)
    times = np.arange(n_steps + 1) * dt_ms
    v_rec = np.empty((n_steps + 1, n))
    gs_rec = np.empty((n_steps + 1, m))
    v_rec[0] = v
    gs_rec[0] = gs
    ev_times: list[float] = []
    ev_neurons: list[int] = []
    gap_g = topology.gap_conductance_sum
    owner = topology.link_owner
    n_links = topology.links_per_neuron

    for i in range(n_steps):
        t = float(times[i])
        try:
            v, gs, crossed = _advance(
                v, gs, owner, n_links, params, dr, counts.get(i, no_spikes),
                topology.gap_input(v), gap_g, dt_ms, t, integrator,
            )
        except NumericalDivergenceError as err:
            err.partial = Trajectory(
                dt_ms=dt_ms,
                times=times[: i + 1],
                v=v_rec[: i + 1].copy(),
                gs=gs_rec[: i + 1].copy(),
                spike_times=np.array(ev_times),
                spike_neurons=np.array(ev_neurons, dtype=np.intp),
                params=params,
                topology=topology,
            )
            raise
        v_rec[i + 1] = v
        gs_rec[i + 1] = gs
        for idx in np.flatnonzero(crossed):
            ev_times.append(t)
            ev_neurons.append(int(idx))

    return Trajectory(
        dt_ms=dt_ms,
        times=times,
        v=v_rec,
        gs=gs_rec,
        spike_times=np.array(ev_times),
        spike_neurons=np.array(ev_neurons, dtype=np.intp),
        params=params,
        topology=topology,
    )


def _window_count(duration_ms: float, window_ms: float) -> int:
    # small nudge so exact multiples survive float rounding in times[-1]
    return int(math.floor(duration_ms / window_ms + 1e-9))


def measure_firing_probability(traj: Trajectory, window_ms: float, neuron: int) -> float:
    """Fraction of non-overlapping windows with at least one crossing."""
    if window_ms <= 0:
        raise ValueError("window_ms must be > 0")
    crossed = window_crossings(traj, window_ms)
    if not 0 <= neuron < traj.topology.neuron_count:
        raise ValueError(f"unknown neuron {neuron}")
    return float(np.count_nonzero(crossed[:, neuron]) / crossed.shape[0])


def window_crossings(traj: Trajectory, window_ms: float) -> np.ndarray:
    """(n_windows, N) boolean matrix: neuron crossed within the window."""
    if traj.times.size <= 1:
        raise ValueError("empty trajectory")
    n_windows = _window_count(traj.duration_ms, window_ms)
    if n_windows < 1:
        raise ValueError("trajectory shorter than one window")
    crossed = np.zeros((n_windows, traj.topology.neuron_count), dtype=bool)
    if traj.spike_times.size:
        w_idx = np.floor(traj.spike_times / window_ms).astype(np.intp)
        keep = w_idx < n_windows
        crossed[w_idx[keep], traj.spike_neurons[keep].astype(np.intp)] = True
    return crossed
