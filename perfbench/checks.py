"""Independent checks of one op's artifacts.

Nothing here imports qsynapse.  Every expected value is recomputed from
the scenario document, the op seed and the documented model (README.md of
the package and the docstrings of its public functions): Philox spike
streams keyed on (seed, link) with exponential gaps and thinning, RK4
membrane steps with gap coupling and closed-form conductance decay,
integer-step windows for every window statistic, and the synapse circuit
replayed step by step.  Measurement counts are checked against the
replayed measured state within binomial bounds (the measurement seeds are
not part of the documented contract).

``check_simulate`` and ``check_fuse`` return a list of problems; an empty
list means the op passed.
"""

from __future__ import annotations

import csv
import math
from pathlib import Path

import numpy as np

LIF_DEFAULTS = {
    "cm": 1.0, "g_leak": 0.0551, "v_rest": -65.0, "v_thres": -50.0, "v_init": -70.6837,
    "e_syn": 0.0225, "tau_syn": 5.0, "gs_max": 0.5, "g_elec": 0.0, "spike_jump": 5.0,
    "delta_g": 0.01,
}
FUSION_LIF = dict(LIF_DEFAULTS, spike_jump=20.0, v_init=-65.0)
DETECT_STREAM = 1_000_000
V_TOL = 1e-9          # mV; a replayed potential this close to v_thres may go either way
REL_TOL = 1e-11
Q_TOL = 1e-9          # replayed circuit probabilities
COUNT_SIGMAS = 7.0    # a count further than this many binomial sd (+3) from shots*p fails
_U64 = (1 << 64) - 1


def philox(seed: int, stream: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(key=[seed & _U64, stream & _U64]))


def _rate_fn(kind: str, base: float, segments):
    """Vectorized rate(t): the covering segment's rate, else the base rate."""
    if kind == "constant" or not segments:
        return lambda t: np.full(t.shape, base)
    starts = np.array([float(s[0]) for s in segments])
    ends = np.array([float(s[1]) for s in segments])
    rates = np.array([float(s[2]) for s in segments])

    def rate(t):
        i = np.searchsorted(starts, t, side="right") - 1
        inside = (i >= 0) & (t < ends[np.maximum(i, 0)])
        return np.where(inside, rates[np.maximum(i, 0)], base)

    return rate


def spike_train(kind: str, base: float, segments, horizon: float, seed: int, stream: int):
    """Regenerate one train: gaps -log1p(-u)/r_max; modulated trains draw one
    thinning uniform after each candidate and keep it if u*r_max < rate(t)."""
    r_max = max([base] + [float(s[2]) for s in segments])
    if r_max <= 0:
        return np.zeros(0)
    thin = kind == "modulated"
    per = 2 if thin else 1
    n = int(r_max * horizon + 10.0 * math.sqrt(r_max * horizon) + 20)
    while True:
        u = philox(seed, stream).random(per * n)
        t = np.cumsum(-np.log1p(-u[::per]) / r_max)
        if t[-1] >= horizon:
            break
        n *= 2
    keep = t < horizon
    cand = t[keep]
    if not thin:
        return cand
    u_thin = u[1::2][: cand.size]
    return cand[u_thin * r_max < _rate_fn(kind, base, segments)(cand)]


def _read_csv(path: Path) -> tuple[list[str], np.ndarray]:
    with open(path, newline="") as fh:
        header = next(csv.reader(fh))
    return header, np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)


def _read_kv(path: Path) -> dict[str, str]:
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    if rows[0] != ["key", "value"]:
        raise ValueError(f"{path.name}: bad header {rows[0]}")
    return {k: v for k, v in rows[1:]}


def _close(a, b, tol=REL_TOL) -> bool:
    return bool(np.all(np.abs(np.asarray(a) - np.asarray(b)) <= tol * (1.0 + np.abs(b))))


def _rk4_step(v, base, v_coef, tot_gs, p, dt):
    """One RK4 step of cm dv/dt = base + s e_syn - (v_coef + s) v, s = tot_gs * decay."""
    half = math.exp(-0.5 * dt / p["tau_syn"])
    full = math.exp(-dt / p["tau_syn"])

    def f(x, decay):
        s = tot_gs * decay
        return (base + s * p["e_syn"] - (v_coef + s) * x) / p["cm"]

    k1 = f(v, 1.0)
    k2 = f(v + 0.5 * dt * k1, half)
    k3 = f(v + 0.5 * dt * k2, half)
    k4 = f(v + dt * k3, full)
    return v + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def _step_counts(trains, n_steps: int, dt: float) -> np.ndarray:
    counts = np.zeros((n_steps, len(trains)))
    for link, times in enumerate(trains):
        steps = np.floor_divide(times, dt).astype(np.int64)
        steps = steps[(steps >= 0) & (steps < n_steps)]
        np.add.at(counts[:, link], steps, 1.0)
    return counts


# ---------------------------------------------------------------------------
# simulate
# ---------------------------------------------------------------------------


def _check_trace(sc: dict, seed: int, path: Path, problems: list[str]):
    """Replay every step of trace.csv; returns (spike columns, potentials), or None."""
    p = dict(LIF_DEFAULTS, **sc.get("lif", {}))
    sim, topo = sc["simulation"], sc["topology"]
    dt, t_end = sim["dt_ms"], sim["t_end_ms"]
    n = topo["neuron_count"]
    owner = np.zeros(sum(len(l) for l in topo["upstream_links"]), dtype=np.int64)
    for i, links in enumerate(topo["upstream_links"]):
        owner[links] = i
    m = owner.size
    n_steps = int(round(t_end / dt))

    header, data = _read_csv(path)
    want = (["t_ms"] + [f"v_{i}" for i in range(n)] + [f"gs_{l}" for l in range(m)]
            + [f"spike_{i}" for i in range(n)])
    if header != want or data.shape != (n_steps + 1, len(want)):
        problems.append(f"trace.csv: header/shape {header[:3]}.. {data.shape}")
        return None
    t, V = data[:, 0], data[:, 1:1 + n]
    G, S = data[:, 1 + n:1 + n + m], data[:, 1 + n + m:]
    if not _close(t, np.arange(n_steps + 1) * dt):
        problems.append("trace.csv: t_ms column is not i*dt")

    profiles = {pr["link"]: pr for pr in sc.get("spikes", {}).get("profiles", [])}
    trains = []
    for link in range(m):
        pr = profiles.get(link)
        if pr is None:
            trains.append(np.zeros(0))
        else:
            trains.append(spike_train(pr.get("kind", "constant"), pr["rate_per_ms"],
                                      pr.get("segments", []), t_end, seed, link))
    counts = _step_counts(trains, n_steps, dt)

    gap_g = np.zeros(n)
    A = np.zeros((n, n))
    for pair in topo.get("elec_pairs", []):
        i, j = int(pair[0]), int(pair[1])
        g = float(pair[2]) if len(pair) == 3 else p["g_elec"]
        A[i, j] += g
        A[j, i] += g
        gap_g[i] += g
        gap_g[j] += g
    drives = np.array(sc.get("drive", {}).get("constant", [0.0] * n), dtype=float)

    # all steps at once: row i of the trace is the state entering step i
    v0, g0, c = V[:-1], G[:-1], counts
    gs_b = np.minimum(g0 + p["delta_g"] * c, p["gs_max"])
    per_neuron = np.zeros((n_steps, n))
    np.add.at(per_neuron.T, owner, c.T)
    vj = v0 + p["spike_jump"] * per_neuron
    tot = np.zeros((n_steps, n))
    np.add.at(tot.T, owner, gs_b.T)
    base = p["g_leak"] * p["v_rest"] + v0 @ A.T + drives
    v1 = _rk4_step(vj, base, p["g_leak"] + gap_g, tot, p, dt)
    fired = v1 > p["v_thres"]
    sure = np.abs(v1 - p["v_thres"]) > V_TOL
    v_next = np.where(fired, p["v_rest"], v1)
    gs_next = np.clip(gs_b * math.exp(-dt / p["tau_syn"]), 0.0, p["gs_max"])

    if np.any((S[:-1] != fired) & sure) or np.any(S[-1] != 0):
        problems.append("trace.csv: spike columns differ from the replayed crossings")
    either = (np.abs(V[1:] - p["v_rest"]) <= V_TOL) | (np.abs(V[1:] - v1) <= V_TOL)
    if np.any((np.abs(V[1:] - v_next) > V_TOL) & (sure | ~either)):
        problems.append("trace.csv: potentials differ from the replayed RK4 steps")
    if not _close(G[1:], gs_next) or not np.all(G[0] == 0.0):
        problems.append("trace.csv: conductances differ from the replayed steps")
    if not np.all(V[0] == p["v_init"]):
        problems.append("trace.csv: first row is not v_init")

    # closed-form decay between input spikes: gs[r] = gs[r0] exp(-(r - r0) dt / tau)
    rows = np.arange(n_steps + 1)
    bumped = np.zeros((n_steps + 1, m), dtype=bool)
    bumped[1:] = c > 0
    start = np.maximum.accumulate(np.where(bumped, rows[:, None], 0), axis=0)
    expect = G[start, np.arange(m)] * np.exp(-(rows[:, None] - start) * dt / p["tau_syn"])
    if not _close(G, expect, 1e-10):
        problems.append("trace.csv: conductance decay departs from the closed form")
    return S[:-1].astype(np.int64), V


def _windows(spikes: np.ndarray, stride: int) -> np.ndarray:
    """(n_windows, N) crossing indicator with integer windows row // stride."""
    n_windows = spikes.shape[0] // stride
    blocks = spikes[: n_windows * stride].reshape(n_windows, stride, -1)
    return blocks.sum(axis=1) > 0


def _read_operator(path: Path) -> list[list[complex]]:
    """Matrix text format: a line "d", then d rows of d "re,im" pairs."""
    rows = [ln.split() for ln in path.read_text().splitlines() if ln.strip()][1:]
    return [[complex(*(float(x) for x in cell.split(","))) for cell in row] for row in rows]


def _unit(x: list[complex]) -> list[complex]:
    norm = math.sqrt(sum(z.real * z.real + z.imag * z.imag for z in x))
    return [z / norm for z in x]


def _sq(x: list[complex]) -> np.ndarray:
    return np.array([z.real * z.real + z.imag * z.imag for z in x])


def _blank(x: list[complex], links) -> list[complex]:
    """Zero ``links`` and renormalize; unchanged when they are already zero."""
    if not any(x[l] for l in links):
        return x
    return _unit([0j if l in links else z for l, z in enumerate(x)])


class Circuit:
    """The synapse circuit of ``qsynapse.synapse``, on Python complex lists.

    One step at potential v, with e(v) = i c (v - v_rest) on component 0 and
    c = drive_scale g_leak / cm: the downstream Euler step
    down = unit(down + dt (up + e(v))); in bidirectional mode then the
    feedback mix mix = unit(up + K down), the upstream drive step
    mix = unit(mix + dt (down + e(v))) and the downstream combination
    down = unit(down + b * mix).  A stage that adds an exactly-zero vector
    is skipped.  No coupling matrix: the workloads use none.
    """

    def __init__(self, q: dict, p: dict, base_dir: Path):
        self.bidir = q.get("mode") == "bidirectional"
        self.c = q.get("drive_scale", 1.0) * p["g_leak"] / p["cm"]
        self.v_rest = p["v_rest"]
        k_path = q.get("k_operator_path")
        self.k = _read_operator(base_dir / k_path) if k_path else None
        b = q.get("b_weights")
        self.b = None if b is None else [complex(*w) if isinstance(w, list) else complex(w)
                                         for w in b]

    def _plus(self, base, extra):
        return _unit([x + y for x, y in zip(base, extra)]) if any(extra) else base

    def _drive(self, vec, v, dt):
        out = [dt * z for z in vec]
        out[0] += dt * 1j * self.c * (v - self.v_rest)
        return out

    def step(self, up, down, v, dt):
        """Returns (upstream state to record, new downstream state)."""
        down = self._plus(down, self._drive(up, v, dt))
        if not self.bidir:
            return up, down
        mix = up if self.k is None else self._plus(
            up, [sum(a * d for a, d in zip(row, down)) for row in self.k])
        mix = self._plus(mix, self._drive(down, v, dt))
        if self.b is not None:
            down = self._plus(down, [b * m for b, m in zip(self.b, mix)])
        return mix, down


def _encode(p: np.ndarray, phases) -> list[complex]:
    amps = np.sqrt(p / p.sum()).astype(complex)
    if phases is not None:
        amps = amps * np.exp(1j * np.asarray(phases, dtype=float))
    return [complex(z) for z in amps]


def _counts_fit(counts: np.ndarray, probs: np.ndarray, shots: int) -> bool:
    """Every count within COUNT_SIGMAS binomial standard deviations (+3) of shots*p."""
    mean = shots * probs
    sd = np.sqrt(mean * np.clip(1.0 - probs, 0.0, None))
    return bool(np.all(np.abs(counts - mean) <= COUNT_SIGMAS * sd + 3.0))


def _replay_windows(sc: dict, circ: Circuit, crossed: np.ndarray, v_pot: np.ndarray,
                    stride: int):
    """Per window: recorded a_sq, carried b_sq and the measured distribution."""
    q, p = sc["quantum"], dict(LIF_DEFAULTS, **sc.get("lif", {}))
    dt, up_dim = sc["simulation"]["dt_ms"], crossed.shape[1]
    down_dim = q.get("down_dim") or up_dim
    gate = q.get("gate_pair", [0, 1] if up_dim >= 2 else None)
    tags = q.get("tags") or []
    blocked = [l for l, tag in enumerate(tags) if tag in q.get("blocked_tags", [])]
    down = [complex(1.0 / math.sqrt(down_dim))] * down_dim
    running = np.cumsum(crossed, axis=0) / np.arange(1, crossed.shape[0] + 1)[:, None]
    a_sq = np.zeros(crossed.shape)
    b_sq = np.zeros((crossed.shape[0], down_dim))
    meas = np.zeros((crossed.shape[0], down_dim))
    for w, pw in enumerate(running):
        if pw.sum() == 0.0:
            b_sq[w] = _sq(down)
            continue
        up = _encode(pw, q.get("phases"))
        record = up
        for s in range(stride):
            v = float(v_pot[w * stride + s])
            if gate is not None and v > p["v_thres"]:
                i, j = gate
                up = list(up)
                up[i], up[j] = up[j], up[i]
            record, down = circ.step(up, down, v, dt)
        a_sq[w], b_sq[w] = _sq(record), _sq(down)
        measured = _blank(down, list(q.get("shutdown_links", [])))
        meas[w] = _sq(_blank(measured, blocked))
    return a_sq, b_sq, meas


def _check_quantum(sc: dict, spikes: np.ndarray, v_pot: np.ndarray, base_dir: Path,
                   path: Path, problems: list[str]) -> None:
    q, dt = sc["quantum"], sc["simulation"]["dt_ms"]
    n = sc["topology"]["neuron_count"]
    encode = q.get("encode_neurons") or list(range(n))
    up = len(encode)
    down = q.get("down_dim") or up
    stride = int(round(q["window_ms"] / dt))
    header, data = _read_csv(path)
    want = (["window", "t_start_ms", "prob_sum_up", "degenerate"]
            + [f"a_sq_{k}" for k in range(up)] + [f"b_sq_{l}" for l in range(down)]
            + [f"count_{l}" for l in range(down)])
    crossed = _windows(spikes, stride)[:, encode]
    if header != want or data.shape[0] != crossed.shape[0]:
        problems.append(f"quantum.csv: header/rows {data.shape[0]} != {crossed.shape[0]}")
        return
    w = np.arange(crossed.shape[0])
    prob_sum = (np.cumsum(crossed, axis=0) / (w + 1)[:, None]).sum(axis=1)
    a_sq, b_sq = data[:, 4:4 + up], data[:, 4 + up:4 + up + down]
    counts = data[:, 4 + up + down:]
    degenerate = prob_sum == 0.0
    live = ~degenerate
    if not np.array_equal(data[:, 0], w) or not _close(data[:, 1], w * q["window_ms"]):
        problems.append("quantum.csv: window index or start time column")
    if not _close(data[:, 2], prob_sum, 1e-12):
        problems.append("quantum.csv: prob_sum_up differs from integer-window crossings")
    if not np.array_equal(data[:, 3], degenerate.astype(float)):
        problems.append("quantum.csv: degenerate flag differs from the trace")
    if not _close(a_sq[live].sum(axis=1), 1.0, 1e-12) or np.any(a_sq[degenerate] != 0):
        problems.append("quantum.csv: a_sq rows do not sum to 1")
    if not _close(b_sq.sum(axis=1), 1.0, 1e-12):
        problems.append("quantum.csv: b_sq rows do not sum to 1")
    if np.any(counts[live].sum(axis=1) != q["shots"]) or np.any(counts[degenerate] != 0):
        problems.append("quantum.csv: counts do not sum to shots")
    dead = list(q.get("shutdown_links", []))
    dead += [l for l, tag in enumerate(q.get("tags") or []) if tag in q.get("blocked_tags", [])]
    if dead and np.any(counts[:, dead] != 0):
        problems.append("quantum.csv: shut-down or blocked link measured nonzero counts")
    p = dict(LIF_DEFAULTS, **sc.get("lif", {}))
    want_a, want_b, meas = _replay_windows(sc, Circuit(q, p, base_dir), crossed, v_pot, stride)
    if np.any(np.abs(a_sq - want_a) > Q_TOL):
        problems.append("quantum.csv: a_sq differs from the replayed circuit")
    if np.any(np.abs(b_sq - want_b) > Q_TOL):
        problems.append("quantum.csv: b_sq differs from the replayed circuit")
    if not _counts_fit(counts[live], meas[live], q["shots"]):
        problems.append("quantum.csv: counts do not fit the replayed measured state")


def _check_calibration(sc: dict, seed: int, spikes: np.ndarray, base_dir: Path, path: Path,
                       problems: list[str]) -> None:
    cal, dt = sc["calibration"], sc["simulation"]["dt_ms"]
    n = sc["topology"]["neuron_count"]
    q = sc.get("quantum") or {}
    neurons = cal.get("link_neurons") or q.get("encode_neurons") or list(range(n))
    shutdown = list(q.get("shutdown_links", []))
    kv = _read_kv(path)
    crossed = _windows(spikes, int(round(cal["window_ms"] / dt)))[:, neurons]
    p = crossed.sum(axis=0) / crossed.shape[0]
    k = len(neurons)
    try:
        got_p = np.array([float(kv[f"classical_p_{i}"]) for i in range(k)])
        freqs = np.array([float(kv[f"quantum_freq_{i}"]) for i in range(k)])
        shots = int(kv["shots"])
        tv, ks, eps = float(kv["tv_distance"]), float(kv["ks_statistic"]), float(kv["epsilon"])
        ints = {key: int(kv[key]) for key in ("windows", "seed_classical", "degenerate", "passed")}
    except (KeyError, ValueError) as err:
        problems.append(f"calibration.csv: {err!r}")
        return
    if not _close(got_p, p, 1e-15) or ints["windows"] != crossed.shape[0]:
        problems.append("calibration.csv: classical probabilities differ from the trace")
    if shots != cal["shots"] or eps != cal["epsilon"] or ints["seed_classical"] != seed:
        problems.append("calibration.csv: shots, epsilon or seed")
    if ints["degenerate"] != int(p.sum() == 0.0):
        problems.append("calibration.csv: degenerate flag")
    if p.sum() == 0.0:
        return
    c = freqs * shots
    if np.any(np.abs(c - np.rint(c)) > 1e-6) or int(np.rint(c).sum()) != shots:
        problems.append("calibration.csv: frequencies are not counts over shots")
    if shutdown and np.any(freqs[shutdown] != 0):
        problems.append("calibration.csv: shut-down link measured nonzero frequency")
    # one window settled from uniform at v_rest: no phases, no gate, then the shutdowns
    lif = dict(LIF_DEFAULTS, **sc.get("lif", {}))
    circ = Circuit(q, lif, base_dir)
    up, down = _encode(p, None), [complex(1.0 / math.sqrt(k))] * k
    for _ in range(max(1, int(round(cal["window_ms"] / dt)))):
        _, down = circ.step(up, down, lif["v_rest"], dt)
    if not _counts_fit(c, _sq(_blank(down, shutdown)), shots):
        problems.append("calibration.csv: frequencies do not fit the replayed settled state")
    classical = p / p.sum()
    if not _close(tv, 0.5 * np.abs(classical - freqs).sum(), 1e-12):
        problems.append("calibration.csv: tv_distance")
    if not _close(ks, np.abs(np.cumsum(classical) - np.cumsum(freqs)).max(), 1e-12):
        problems.append("calibration.csv: ks_statistic")
    if ints["passed"] != int(tv < eps):
        problems.append("calibration.csv: passed flag")


def check_simulate(sc: dict, seed: int, out: Path, base_dir: Path) -> list[str]:
    """``base_dir`` holds the scenario file and the operator files it names."""
    problems: list[str] = []
    replayed = _check_trace(sc, seed, out / "trace.csv", problems)
    if replayed is None:
        return problems
    spikes, V = replayed
    q = sc.get("quantum", {})
    if q.get("enabled"):
        _check_quantum(sc, spikes, V[:, q.get("potential_neuron", 0)], base_dir,
                       out / "quantum.csv", problems)
    if sc.get("calibration", {}).get("enabled"):
        _check_calibration(sc, seed, spikes, base_dir, out / "calibration.csv", problems)
    return problems


# ---------------------------------------------------------------------------
# fuse
# ---------------------------------------------------------------------------


def fusion_crossing_estimates(fus: dict, seed: int) -> np.ndarray:
    """Per-sensor fraction of windows with a crossing, from an independent run."""
    p = FUSION_LIF
    window, dt = fus["window_ms"], fus["dt_ms"]
    n_windows = fus["n_events"]
    horizon = n_windows * window
    n_steps = int(round(horizon / dt))
    starts = np.arange(n_windows) * window
    segments_end = np.arange(1, n_windows + 1) * window
    trains = []
    for k, s in enumerate(fus["sensors"]):
        detected = philox(seed, DETECT_STREAM + k).random(n_windows) < s["p"]
        rates = np.where(detected, fus.get("rate_active", 1.2), fus.get("rate_idle", 0.0))
        segments = list(zip(starts, segments_end, rates))
        trains.append(spike_train("modulated", 0.0, segments, horizon, seed, k))
    counts = _step_counts(trains, n_steps, dt).tolist()
    stride = int(round(window / dt))
    half = math.exp(-0.5 * dt / p["tau_syn"])
    full = math.exp(-dt / p["tau_syn"])
    base, g_leak, e_syn, cm = p["g_leak"] * p["v_rest"], p["g_leak"], p["e_syn"], p["cm"]

    def f(x, s):
        return (base + s * e_syn - (g_leak + s) * x) / cm

    # neurons are uncoupled, so each one is a scalar loop
    crossed = np.zeros((n_windows, len(trains)), dtype=bool)
    for k in range(len(trains)):
        v, gs = p["v_init"], 0.0
        for i in range(n_steps):
            c = counts[i][k]
            if c:
                gs = min(gs + p["delta_g"] * c, p["gs_max"])
                v = v + p["spike_jump"] * c
            k1 = f(v, gs)
            k2 = f(v + 0.5 * dt * k1, gs * half)
            k3 = f(v + 0.5 * dt * k2, gs * half)
            k4 = f(v + dt * k3, gs * full)
            v = v + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
            gs = gs * full
            if v > p["v_thres"]:
                v = p["v_rest"]
                crossed[i // stride, k] = True
    return crossed.sum(axis=0) / n_windows


def check_fuse(sc: dict, seed: int, out: Path) -> list[str]:
    problems: list[str] = []
    fus = sc["fusion"]
    kv = _read_kv(out / "fusion.csv")
    n = len(fus["sensors"])
    try:
        fused = np.array([float(kv[f"fused_{k}"]) for k in range(n)])
        ref = np.array([float(kv[f"reference_{k}"]) for k in range(n)])
        est = np.array([float(kv[f"crossing_estimate_{k}"]) for k in range(n)])
        tv = float(kv["tv_distance"])
        ints = {key: int(kv[key]) for key in ("windows", "shots", "degenerate")}
    except (KeyError, ValueError) as err:
        return [f"fusion.csv: {err!r}"]
    wp = np.array([s["weight"] * s["p"] for s in fus["sensors"]])
    if not _close(ref, wp / wp.sum(), 1e-15):
        problems.append("fusion.csv: reference_k != w_k p_k / sum_j w_j p_j")
    if ints != {"windows": fus["n_events"], "shots": fus["shots"], "degenerate": 0}:
        problems.append(f"fusion.csv: windows/shots/degenerate {ints}")
    c = fused * fus["shots"]
    if np.any(np.abs(c - np.rint(c)) > 1e-6) or int(np.rint(c).sum()) != fus["shots"]:
        problems.append("fusion.csv: fused vector is not counts over shots")
    if not _close(tv, 0.5 * np.abs(fused - ref).sum(), 1e-12):
        problems.append("fusion.csv: tv_distance")
    if not np.array_equal(est, fusion_crossing_estimates(fus, seed)):
        problems.append("fusion.csv: crossing estimates differ from an independent run")
    return problems


def check_tv_sweep(tvs: list[float], limit: float = 0.03) -> str | None:
    """Acceptance-test-11 gate over a seed sweep: mean TV + 3 sem < limit."""
    mean = float(np.mean(tvs))
    sem = float(np.std(tvs, ddof=1) / math.sqrt(len(tvs)))
    if mean + 3.0 * sem < limit:
        return None
    return f"fusion sweep: mean TV {mean:.4f} + 3 sem {3 * sem:.4f} >= {limit}"


def read_tv(out: Path) -> float:
    return float(_read_kv(out / "fusion.csv")["tv_distance"])
