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
        if self.delta_g < 0:
            # keeps every conductance in [0, gs_max], so decay needs no clamp
            raise ValueError(f"delta_g must be >= 0, got {self.delta_g}")
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

    gs1 = gs * full  # stays in [0, gs_max]: delta_g >= 0 and full <= 1
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

    Row i of ``v``/``gs`` is the state at ``times[i]``; a spike event is the
    index of the step in which the crossing happened, so it is stamped with
    that step's start time.
    """

    dt_ms: float
    times: np.ndarray                    # (n_steps+1,)
    v: np.ndarray                        # (n_steps+1, N)
    gs: np.ndarray                       # (n_steps+1, M)
    spike_steps: np.ndarray              # (n_events,) step index per crossing
    spike_neurons: np.ndarray            # (n_events,)
    params: LifParams
    topology: NetworkTopology

    @property
    def n_steps(self) -> int:
        return self.times.size - 1

    @property
    def spike_times(self) -> np.ndarray:
        """Start time of each crossing's step, ``step * dt_ms`` like ``times``."""
        return self.spike_steps * self.dt_ms

    def spike_rows(self) -> dict[int, list[int]]:
        """Per-neuron crossing counts at each step start that has a crossing; others are absent."""
        rows: dict[int, list[int]] = {}
        for step, neuron in zip(self.spike_steps.tolist(), self.spike_neurons.tolist()):
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


# Networks of at most this many neurons step on Python floats, wider ones on
# numpy arrays.  Both loops give bitwise equal trajectories; the float loop
# wins while numpy's per-call overhead outweighs the per-neuron arithmetic.
# The two cost the same at 40-48 neurons (2-core x86 host, with and without
# gap junctions); 16 stays well below that.
FLOAT_LOOP_MAX_NEURONS = 16


def _step_arrays(params, topology, counts, drives, v, dt, integrator, v_rec, gs_rec,
                 ev_steps, ev_neurons):
    """Step with ``_advance``; returns (step, neuron) of a divergence, else None."""
    m = topology.n_links
    no_spikes = np.zeros(m)
    gs = np.zeros(m)
    gap_g = topology.gap_conductance_sum
    owner = topology.link_owner
    n_links = topology.links_per_neuron
    for i in range(v_rec.shape[0] - 1):
        try:
            v, gs, crossed = _advance(
                v, gs, owner, n_links, params, drives, counts.get(i, no_spikes),
                topology.gap_input(v), gap_g, dt, i * dt, integrator,
            )
        except NumericalDivergenceError as err:
            return i, err.neuron
        v_rec[i + 1] = v
        gs_rec[i + 1] = gs
        for idx in np.flatnonzero(crossed).tolist():
            ev_steps.append(i)
            ev_neurons.append(idx)
    return None


def _step_floats(params, topology, counts, drives, v, dt, integrator, v_rec, gs_rec,
                 ev_steps, ev_neurons):
    """``_step_arrays`` on Python floats, one neuron at a time.

    Every value is formed by the IEEE operations of ``_advance`` in the same
    order: link sums start from 0.0 in increasing link-id order (as
    ``np.bincount`` sums), gap inputs accumulate in ``gap_incidence`` order,
    the rhs formula is chosen for the whole network each step, and each
    stage is ``(base + s*e_syn - (v_coef + s)*x) / cm`` with the terms that
    do not depend on x hoisted per decay value.  Rows are written in place.
    """
    p = params
    if integrator not in INTEGRATORS:
        raise ValueError(f"unknown integrator {integrator!r}; expected one of {INTEGRATORS}")
    rk4 = integrator == "rk4"
    n = topology.neuron_count
    m = topology.n_links
    links = [sorted(ls) for ls in topology.upstream_links]
    gap = list(zip(*(a.tolist() for a in topology.gap_incidence)))
    gap_g = topology.gap_conductance_sum.tolist()
    v_coef = [p.g_leak + g for g in gap_g]
    dr = drives.tolist()
    v = v.tolist()
    gs = [0.0] * m
    gi = [0.0] * n
    vm = memoryview(v_rec.reshape(-1))
    gm = memoryview(gs_rec.reshape(-1))
    cm, e_syn, v_thres, v_rest = p.cm, p.e_syn, p.v_thres, p.v_rest
    delta_g, gs_max, jump = p.delta_g, p.gs_max, p.spike_jump
    g_leak_v_rest = p.g_leak * p.v_rest
    half = math.exp(-0.5 * dt / p.tau_syn)
    full = math.exp(-dt / p.tau_syn)
    h, dt6 = 0.5 * dt, dt / 6.0
    literal = p.literal_multilink_leak
    if literal:
        neg_g_leak = -p.g_leak
        n_links = topology.links_per_neuron.tolist()
        n_links_v_rest = [k * v_rest for k in n_links]

        def literal_rhs(j, x, decay):  # reads the current step's tot and gi
            syn = tot[j] * decay * (e_syn - x)
            return neg_g_leak * (syn - n_links_v_rest[j]
                                 + n_links[j] * (dr[j] + (gi[j] - gap_g[j] * x))) / cm

    for i in range(v_rec.shape[0] - 1):
        if gap:  # from the potentials before this step's spike jumps, as in _step_arrays
            gi = [0.0] * n
            for dst, src, g in gap:
                gi[dst] += g * v[src]
        c = counts.get(i)
        if c is not None:
            c = c.tolist()
            gs = [min(g + delta_g * k, gs_max) for g, k in zip(gs, c)]
            for j, ls in enumerate(links):
                s = 0.0
                for l in ls:
                    s += c[l]
                v[j] = v[j] + jump * s
        tot = []
        for ls in links:
            s = 0.0
            for l in ls:
                s += gs[l]
            tot.append(s)
        syn = any(tot)
        row = (i + 1) * n
        for j in range(n):
            x = v[j]
            if literal:
                k1 = literal_rhs(j, x, 1.0)
                if rk4:
                    k2 = literal_rhs(j, x + h * k1, half)
                    k3 = literal_rhs(j, x + h * k2, half)
                    k4 = literal_rhs(j, x + dt * k3, full)
            else:
                base = g_leak_v_rest + gi[j] + dr[j]
                c1 = ch = cf = v_coef[j]
                b1 = bh = bf = base
                if syn:
                    s = tot[j]
                    b1, c1 = base + s * e_syn, c1 + s
                    if rk4:
                        sh, sf = s * half, s * full
                        bh, ch = base + sh * e_syn, ch + sh
                        bf, cf = base + sf * e_syn, cf + sf
                k1 = (b1 - c1 * x) / cm
                if rk4:
                    k2 = (bh - ch * (x + h * k1)) / cm
                    k3 = (bh - ch * (x + h * k2)) / cm
                    k4 = (bf - cf * (x + dt * k3)) / cm
            x = x + dt6 * (k1 + 2.0 * k2 + 2.0 * k3 + k4) if rk4 else x + dt * k1
            if not math.isfinite(x):
                while ev_steps and ev_steps[-1] == i:
                    ev_steps.pop()
                    ev_neurons.pop()
                return i, j
            if x > v_thres:
                x = v_rest
                ev_steps.append(i)
                ev_neurons.append(j)
            v[j] = vm[row + j] = x
        row = (i + 1) * m
        for l in range(m):
            gs[l] = gm[row + l] = gs[l] * full
    return None


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

    Networks of up to ``FLOAT_LOOP_MAX_NEURONS`` neurons step on Python
    floats, wider ones on numpy; the trajectories are bitwise equal.  On
    numerical divergence the raised error carries the truncated recording
    in its ``partial`` attribute.
    """
    if dt_ms <= 0 or t_end_ms <= 0:
        raise ValueError("dt_ms and t_end_ms must be > 0")
    n_steps = int(round(t_end_ms / dt_ms))
    n = topology.neuron_count
    counts = bin_spike_events(spike_events, n_steps, topology.n_links, dt_ms)
    dr = np.zeros(n) if drives is None else np.asarray(drives, dtype=float)
    v = np.full(n, params.v_init) if v_init is None else np.asarray(v_init, dtype=float).copy()
    if dr.shape != (n,) or v.shape != (n,):
        raise ValueError(f"drives and v_init need one value per neuron ({n}); "
                         f"got shapes {dr.shape} and {v.shape}")
    times = np.arange(n_steps + 1) * dt_ms
    v_rec = np.empty((n_steps + 1, n))
    gs_rec = np.empty((n_steps + 1, topology.n_links))
    v_rec[0] = v
    gs_rec[0] = 0.0
    ev_steps: list[int] = []
    ev_neurons: list[int] = []
    step = _step_floats if n <= FLOAT_LOOP_MAX_NEURONS else _step_arrays
    failed = step(params, topology, counts, dr, v, dt_ms, integrator, v_rec, gs_rec,
                  ev_steps, ev_neurons)
    spike_steps = np.array(ev_steps, dtype=np.intp)
    spike_neurons = np.array(ev_neurons, dtype=np.intp)
    if failed is not None:
        i, neuron = failed
        err = NumericalDivergenceError(neuron, i * dt_ms)
        err.partial = Trajectory(dt_ms, times[: i + 1], v_rec[: i + 1].copy(),
                                 gs_rec[: i + 1].copy(), spike_steps, spike_neurons,
                                 params, topology)
        raise err
    return Trajectory(dt_ms, times, v_rec, gs_rec, spike_steps, spike_neurons, params, topology)


def window_stride(dt_ms: float, window_ms: float) -> int:
    """Steps per window; raises unless ``window_ms`` is a whole number of ``dt_ms`` steps."""
    stride = round(window_ms / dt_ms)
    if stride < 1 or abs(stride * dt_ms - window_ms) > 1e-9 * max(1.0, window_ms):
        raise ValueError(f"window_ms ({window_ms}) must be a whole number of dt_ms ({dt_ms}) steps")
    return stride


def measure_firing_probability(traj: Trajectory, window_ms: float, neuron: int) -> float:
    """Fraction of non-overlapping windows with at least one crossing."""
    if window_ms <= 0:
        raise ValueError("window_ms must be > 0")
    crossed = window_crossings(traj, window_ms)
    if not 0 <= neuron < traj.topology.neuron_count:
        raise ValueError(f"unknown neuron {neuron}")
    return float(np.count_nonzero(crossed[:, neuron]) / crossed.shape[0])


def window_crossings(traj: Trajectory, window_ms: float) -> np.ndarray:
    """(n_windows, N) boolean matrix: neuron crossed within the window.

    Window w covers steps ``w*stride`` to ``(w+1)*stride - 1``, so a crossing
    at step i lands in window ``i // stride``; a trailing partial window is
    dropped.  The crossings are marked per step and the steps folded into
    windows.
    """
    if traj.times.size <= 1:
        raise ValueError("empty trajectory")
    stride = window_stride(traj.dt_ms, window_ms)
    n_windows = traj.n_steps // stride
    if n_windows < 1:
        raise ValueError("trajectory shorter than one window")
    n = traj.topology.neuron_count
    hit = np.zeros((n_windows * stride, n), dtype=bool)
    keep = traj.spike_steps < hit.shape[0]
    hit[traj.spike_steps[keep], traj.spike_neurons[keep]] = True
    return hit.reshape(n_windows, stride, n).any(axis=1)
