"""Run orchestration and deterministic output emission.

A scenario run produces a directory of artifacts: ``trace.csv`` with the
classical trajectory, ``quantum.csv`` with per-window circuit statistics
and measurement histograms, ``calibration.csv`` when enabled, and a
``meta.json`` with the config hash, effective seed and software version.
All CSV floats are serialized with shortest round-trip formatting, so an
identical config and seed reproduces byte-identical files; wall-clock
metadata lives only in the meta file.

Seed derivation (documented contract): the spike train for link k draws
from Philox key (seed, k); fusion detection streams use (seed, 10**6 + k);
measurement seeds are salted offsets of the master seed, advanced per
window.  All randomness flows from raw Philox uniforms.
"""

from __future__ import annotations

import csv
import datetime
import json
import os
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import __version__
from .calibration import CalibrationReport, calibrate, settle_circuit, total_variation
from .engine import QuantumState, measure
from .errors import NumericalDivergenceError
from .lif import (
    LifParams,
    NetworkTopology,
    Trajectory,
    measure_firing_probability,
    simulate_network,
    window_crossings,
)
from .rng import stream_rng
from .scenario import FusionScenario, QuantumRunConfig, ScenarioConfig
from .spikes import RateProfile, generate_poisson, merge_trains
from .synapse import (
    SynapseCircuit,
    TaggedState,
    bidirectional_step,
    encode_up,
    evolve_down,
    gate_by_tag,
    gate_up,
    shutdown_link,
)

TRACE_FORMAT_VERSION = 1
OUT_ROOT_ENV = "QSYNAPSE_OUT"

_DETECT_STREAM = 1_000_000
_MEASURE_SALT = 0xD1B54A32D192ED03
_CALIBRATE_SALT = 0x9E3779B97F4A7C15
_FUSE_SALT = 0x2545F4914F6CDD1D
_U64 = (1 << 64) - 1


def _f(x: float) -> str:
    """Shortest round-trip decimal form; the byte-determinism contract."""
    return repr(float(x))


def window_measure_seed(master_seed: int, window: int) -> int:
    return ((master_seed ^ _MEASURE_SALT) + window) & _U64


def calibration_seed(master_seed: int) -> int:
    return (master_seed ^ _CALIBRATE_SALT) & _U64


def fusion_measure_seed(master_seed: int) -> int:
    return (master_seed ^ _FUSE_SALT) & _U64


# ---------------------------------------------------------------------------
# per-window quantum pipeline
# ---------------------------------------------------------------------------


@dataclass
class WindowRecord:
    """Quantum statistics for one window of the run."""

    index: int
    t_start_ms: float
    prob_sum_up: float
    degenerate: bool
    up_probs: np.ndarray
    down_probs: np.ndarray
    counts: np.ndarray
    down_amplitudes: np.ndarray   # carried downstream state at window end


def run_quantum_windows(
    traj: Trajectory, qcfg: QuantumRunConfig, master_seed: int
) -> list[WindowRecord]:
    """Drive the synapse circuit over the recorded trajectory.

    The upstream state is re-encoded at every window from the running
    crossing frequencies over windows 0..w; the downstream state starts
    uniform and is carried across windows.  Shutdowns and tag gating apply
    to the measured copy, not the carried state.  In bidirectional mode the
    feedback round trip runs after each evolution step; its combined
    upstream state is recorded but the next step keeps the gated encoding.
    """
    circuit = qcfg.circuit
    params = traj.params
    dt = traj.dt_ms
    stride = int(round(qcfg.window_ms / dt))
    n_windows = traj.n_steps // stride
    crossed = window_crossings(traj, qcfg.window_ms)[:n_windows]
    encode_idx = list(qcfg.encode_neurons)

    psi_down = QuantumState.uniform(circuit.down_dim)
    records: list[WindowRecord] = []
    for w in range(n_windows):
        t_start = w * qcfg.window_ms
        p = crossed[: w + 1, encode_idx].mean(axis=0)
        prob_sum = float(p.sum())
        if prob_sum == 0.0:
            records.append(
                WindowRecord(
                    index=w,
                    t_start_ms=t_start,
                    prob_sum_up=0.0,
                    degenerate=True,
                    up_probs=np.zeros(circuit.up_dim),
                    down_probs=psi_down.probabilities(),
                    counts=np.zeros(circuit.down_dim, dtype=int),
                    down_amplitudes=np.array(psi_down.amplitudes),
                )
            )
            continue
        circuit.check_up_probabilities(p)
        psi_up = encode_up(p, qcfg.phases)
        up_record = psi_up
        for s in range(stride):
            v_now = float(traj.v[w * stride + s, qcfg.potential_neuron])
            if qcfg.gate_pair is not None:
                psi_up = gate_up(psi_up, v_now, params.v_thres, qcfg.gate_pair)
            if circuit.coupling is None:
                drive = psi_up
            else:
                drive = QuantumState.from_amplitudes(
                    circuit.coupling @ psi_up.amplitudes,
                    psi_down.basis_labels,
                    normalize=True,
                )
            psi_down = evolve_down(psi_down, drive, v_now, params, circuit.drive_scale, dt)
            if circuit.mode == "bidirectional":
                up_record, psi_down = bidirectional_step(
                    circuit, psi_up, psi_down, v_now, params, dt
                )
            else:
                up_record = psi_up
        meas_state = psi_down
        for link in circuit.shutdown_links:
            meas_state = shutdown_link(meas_state, link)
        if qcfg.tags is not None and qcfg.blocked_tags:
            meas_state = gate_by_tag(
                TaggedState(meas_state, qcfg.tags), qcfg.blocked_tags
            ).state
        counts_by_label = measure(
            meas_state, qcfg.shots, window_measure_seed(master_seed, w)
        )
        counts = np.array([counts_by_label[l] for l in meas_state.basis_labels])
        records.append(
            WindowRecord(
                index=w,
                t_start_ms=t_start,
                prob_sum_up=prob_sum,
                degenerate=False,
                up_probs=up_record.probabilities(),
                down_probs=psi_down.probabilities(),
                counts=counts,
                down_amplitudes=np.array(psi_down.amplitudes),
            )
        )
    return records


# ---------------------------------------------------------------------------
# artifact writers
# ---------------------------------------------------------------------------


def _csv_line(cells) -> str:
    """One csv.writer row: floats as ``_f`` text never need quoting."""
    return ",".join(cells) + "\r\n"


def write_trace_csv(traj: Trajectory, path: Path) -> None:
    n = traj.topology.neuron_count
    m = traj.topology.n_links
    indicator = traj.spike_indicator()
    with open(path, "w", newline="") as fh:
        fh.write(_csv_line(
            ["t_ms"]
            + [f"v_{i}" for i in range(n)]
            + [f"gs_{l}" for l in range(m)]
            + [f"spike_{i}" for i in range(n)]
        ))
        for row in range(traj.times.size):
            fh.write(_csv_line([
                _f(traj.times[row]),
                *map(repr, traj.v[row].tolist()),
                *map(repr, traj.gs[row].tolist()),
                *map(str, indicator[row].tolist()),
            ]))


def write_quantum_csv(records: list[WindowRecord], up_dim: int, down_dim: int, path: Path) -> None:
    with open(path, "w", newline="") as fh:
        fh.write(_csv_line(
            ["window", "t_start_ms", "prob_sum_up", "degenerate"]
            + [f"a_sq_{k}" for k in range(up_dim)]
            + [f"b_sq_{l}" for l in range(down_dim)]
            + [f"count_{l}" for l in range(down_dim)]
        ))
        for rec in records:
            fh.write(_csv_line([
                str(rec.index), _f(rec.t_start_ms), _f(rec.prob_sum_up), str(int(rec.degenerate)),
                *map(repr, rec.up_probs.tolist()),
                *map(repr, rec.down_probs.tolist()),
                *map(str, rec.counts.tolist()),
            ]))


def write_calibration_csv(report: CalibrationReport, path: Path) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["key", "value"])
        for key, value in report.to_kv_rows():
            writer.writerow([key, value])


def resolve_out_dir(configured: str, override: str | None = None) -> Path:
    """--out wins; otherwise the config value, rooted at $QSYNAPSE_OUT if set."""
    if override is not None:
        return Path(override)
    p = Path(configured)
    if p.is_absolute():
        return p
    root = os.environ.get(OUT_ROOT_ENV)
    return (Path(root) / p) if root else p


# ---------------------------------------------------------------------------
# scenario runner
# ---------------------------------------------------------------------------


def _calibration_circuit(config: ScenarioConfig) -> tuple[SynapseCircuit, tuple[int, ...]]:
    if config.quantum is not None:
        neurons = config.calibration.link_neurons or config.quantum.encode_neurons
        return config.quantum.circuit, tuple(neurons)
    neurons = config.calibration.link_neurons or tuple(range(config.topology.neuron_count))
    dim = len(neurons)
    return SynapseCircuit(up_dim=dim, down_dim=dim), tuple(neurons)


def run_scenario(
    config: ScenarioConfig,
    out_dir: str | None = None,
    seed_override: int | None = None,
    quiet: bool = False,
) -> Path:
    """Execute a validated scenario and emit its artifact directory."""
    seed = config.seed if seed_override is None else seed_override
    out = resolve_out_dir(config.output.dir, out_dir)
    out.mkdir(parents=True, exist_ok=True)
    if not quiet:
        print(
            f"run: seed={seed} dt={config.dt_ms} ms t_end={config.t_end_ms} ms "
            f"v_thres={config.params.v_thres} mV integrator={config.integrator} -> {out}"
        )

    trains = [
        generate_poisson(config.profiles[link], config.t_end_ms, seed, link)
        for link in sorted(config.profiles)
    ]
    events = merge_trains(trains)
    try:
        traj = simulate_network(
            config.params,
            config.topology,
            events,
            config.t_end_ms,
            config.dt_ms,
            drives=config.drives,
            integrator=config.integrator,
        )
    except NumericalDivergenceError as err:
        partial = getattr(err, "partial", None)
        if partial is not None and config.output.emit_trace:
            write_trace_csv(partial, out / "trace.csv")
        (out / "error.txt").write_text(f"{err}\n")
        raise

    if config.output.emit_trace:
        write_trace_csv(traj, out / "trace.csv")

    if config.quantum is not None and config.output.emit_quantum:
        records = run_quantum_windows(traj, config.quantum, seed)
        write_quantum_csv(
            records, config.quantum.circuit.up_dim, config.quantum.circuit.down_dim,
            out / "quantum.csv",
        )

    if config.calibration is not None and config.output.emit_calibration:
        circuit, neurons = _calibration_circuit(config)
        report = calibrate(
            traj,
            circuit,
            config.calibration.window_ms,
            config.calibration.shots,
            seeds=(seed, calibration_seed(seed)),
            epsilon=config.calibration.epsilon,
            dt=config.dt_ms,
            link_neurons=neurons,
        )
        write_calibration_csv(report, out / "calibration.csv")

    meta = {
        "package": "qsynapse",
        "version": __version__,
        "trace_format_version": TRACE_FORMAT_VERSION,
        "config_sha256": config.sha256,
        "master_seed": seed,
        "v_thres_mv": config.params.v_thres,
        "integrator": config.integrator,
        "created_utc": datetime.datetime.now(datetime.timezone.utc).isoformat(),
    }
    (out / "meta.json").write_text(json.dumps(meta, indent=2, sort_keys=True) + "\n")
    return out


# ---------------------------------------------------------------------------
# sensor-fusion demo
# ---------------------------------------------------------------------------


@dataclass
class FusionReport:
    """Pipeline fusion vector versus the brute-force reference combiner."""

    fused: np.ndarray
    reference: np.ndarray
    tv_distance: float
    crossing_estimates: np.ndarray
    weighted: np.ndarray
    windows: int
    shots: int
    degenerate: bool = False

    def to_kv_rows(self) -> list[tuple[str, str]]:
        rows: list[tuple[str, str]] = []
        for k, v in enumerate(self.fused):
            rows.append((f"fused_{k}", _f(v)))
        for k, v in enumerate(self.reference):
            rows.append((f"reference_{k}", _f(v)))
        for k, v in enumerate(self.crossing_estimates):
            rows.append((f"crossing_estimate_{k}", _f(v)))
        rows.append(("tv_distance", _f(self.tv_distance)))
        rows.append(("windows", str(self.windows)))
        rows.append(("shots", str(self.shots)))
        rows.append(("degenerate", str(int(self.degenerate))))
        return rows


def run_fusion_demo(
    scenario: FusionScenario,
    circuit: SynapseCircuit,
    shots: int,
    seed: int,
    *,
    window_ms: float = 5.0,
    dt_ms: float = 0.25,
    settle_ms: float = 30.0,
    params: LifParams | None = None,
) -> FusionReport:
    """Fuse synthetic sensor streams through the synapse pipeline.

    Each sensor's detections set its link's Poisson rate per window; one
    neuron per sensor turns spikes into threshold crossings; the per-window
    crossing frequencies, weighted by reliability, are encoded upstream and
    the downstream measurement histogram is read as the fused confidence
    vector.  The reference combiner normalizes weight * true detection
    probability, computed without touching the quantum path.
    """
    n_sensors = len(scenario.sensors)
    if circuit.up_dim != n_sensors or circuit.down_dim != n_sensors:
        raise ValueError(
            f"circuit dimensions ({circuit.up_dim}, {circuit.down_dim}) must match "
            f"the sensor count {n_sensors}"
        )
    if params is None:
        # any spike must force a crossing so the window indicator tracks detection
        params = LifParams(spike_jump=20.0, v_init=-65.0)
    n_windows = len(scenario.event_truth)
    horizon = n_windows * window_ms
    truth = np.array(scenario.event_truth, dtype=bool)

    trains = []
    for k, ((p_det, _), (rate_on, rate_off)) in enumerate(zip(scenario.sensors, scenario.rates)):
        u = stream_rng(seed, _DETECT_STREAM + k).random(n_windows)
        detected = truth & (u < p_det)
        segments = [
            (w * window_ms, (w + 1) * window_ms, rate_on if detected[w] else rate_off)
            for w in range(n_windows)
        ]
        profile = RateProfile.modulated(0.0, segments)
        trains.append(generate_poisson(profile, horizon, seed, link_id=k))

    topology = NetworkTopology.build(n_sensors, [[k] for k in range(n_sensors)])
    traj = simulate_network(params, topology, merge_trains(trains), horizon, dt_ms)
    p_hat = np.array(
        [measure_firing_probability(traj, window_ms, k) for k in range(n_sensors)]
    )
    weights = np.array([w for _, w in scenario.sensors])
    weighted = weights * p_hat

    truths = np.array([p for p, _ in scenario.sensors])
    ref_raw = weights * truths
    if weighted.sum() == 0.0 or ref_raw.sum() == 0.0:
        dim = n_sensors
        return FusionReport(
            fused=np.zeros(dim),
            reference=np.zeros(dim),
            tv_distance=1.0,
            crossing_estimates=p_hat,
            weighted=weighted,
            windows=n_windows,
            shots=shots,
            degenerate=True,
        )

    psi_up = encode_up(weighted)
    psi_down = settle_circuit(circuit, psi_up, settle_ms, 0.1, params)
    for link in circuit.shutdown_links:
        psi_down = shutdown_link(psi_down, link)
    counts = measure(psi_down, shots, fusion_measure_seed(seed))
    fused = np.array([counts[l] for l in psi_down.basis_labels]) / shots
    reference = ref_raw / ref_raw.sum()
    return FusionReport(
        fused=fused,
        reference=reference,
        tv_distance=total_variation(fused, reference),
        crossing_estimates=p_hat,
        weighted=weighted,
        windows=n_windows,
        shots=shots,
    )


def write_fusion_csv(report: FusionReport, path: Path) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["key", "value"])
        for key, value in report.to_kv_rows():
            writer.writerow([key, value])
