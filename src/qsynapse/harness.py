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

import datetime
import json
import os
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import __version__
from .calibration import calibrate, readout, settle_circuit, total_variation
from .engine import measure  # noqa: F401  (perfbench/spans.py traces harness.measure)
from .engine import uniform_amplitudes
from .errors import NumericalDivergenceError
from .lif import (
    LifParams,
    NetworkTopology,
    Trajectory,
    measure_firing_probability,
    simulate_network,
    window_crossings,
    window_stride,
)
from .rng import thread_rng
from .scenario import (FUSION_LIF, FUSION_SETTLE_DT_MS, FusionScenario, QuantumRunConfig,
                       ScenarioConfig)
from .spikes import RateProfile, generate_poisson, merge_trains
from .synapse import SynapseCircuit, encode_amplitudes, run_circuit

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


def _flat_json(fields: dict) -> str:
    """``json.dumps(fields, indent=2, sort_keys=True) + "\\n"`` for scalar values, without
    the reference cycles that the indenting encoder builds on every call."""
    items = ",\n".join(f"  {json.dumps(k)}: {json.dumps(fields[k])}" for k in sorted(fields))
    return "{\n" + items + "\n}\n"


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
    dt = traj.dt_ms
    stride = window_stride(dt, qcfg.window_ms)
    crossed = window_crossings(traj, qcfg.window_ms)[:, list(qcfg.encode_neurons)]
    n_windows = crossed.shape[0]
    # running crossing frequency over windows 0..w; the counts are exact, so
    # each quotient equals crossed[: w + 1].mean(axis=0) bitwise.  Casting
    # before the cumsum keeps numpy from casting through a ~64 KB iterator
    # buffer, which raised the run's peak RSS.
    running = np.cumsum(crossed.astype(float), axis=0) / np.arange(1, n_windows + 1)[:, None]
    potentials = traj.v[:, qcfg.potential_neuron]

    down = uniform_amplitudes(circuit.down_dim)
    records: list[WindowRecord] = []
    for w in range(n_windows):
        p = running[w]
        prob_sum = float(p.sum())
        if prob_sum == 0.0:
            up_probs = np.zeros(circuit.up_dim)
            counts = np.zeros(circuit.down_dim, dtype=int)
        else:
            circuit.check_up_probabilities(p)
            up_record, down = run_circuit(
                circuit, encode_amplitudes(p, qcfg.phases), down,
                potentials[w * stride:(w + 1) * stride], traj.params, dt, qcfg.gate_pair,
            )
            up_amps = np.array(up_record)
            up_probs = up_amps.real**2 + up_amps.imag**2
            counts = readout(
                circuit, down, qcfg.shots, window_measure_seed(master_seed, w),
                qcfg.tags, qcfg.blocked_tags,
            )
        down_amps = np.array(down)
        records.append(
            WindowRecord(
                index=w,
                t_start_ms=w * qcfg.window_ms,
                prob_sum_up=prob_sum,
                degenerate=prob_sum == 0.0,
                up_probs=up_probs,
                down_probs=down_amps.real**2 + down_amps.imag**2,
                counts=counts,
                down_amplitudes=down_amps,
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
    spikes = traj.spike_rows()
    no_spikes = [0] * n
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
                *map(str, spikes.get(row, no_spikes)),
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


_KV_FORMAT = {"float": _f, "count": str, "flag": lambda x: str(int(x))}


def kv_rows(report) -> list[tuple[str, str]]:
    """Flat key/value rows of a report, each formatted by its declared kind.

    ``report.kv_fields()`` yields (key, kind, value): "float" is written with
    ``_f``, "floats" as one ``key_k`` row per element, "count" through
    ``str`` and "flag" as 0/1.
    """
    rows: list[tuple[str, str]] = []
    for key, kind, value in report.kv_fields():
        if kind == "floats":
            rows.extend((f"{key}_{k}", _f(x)) for k, x in enumerate(value))
        else:
            rows.append((key, _KV_FORMAT[kind](value)))
    return rows


def write_kv_csv(report, path: Path) -> None:
    """Write a report's ``kv_rows`` under a ``key,value`` header."""
    with open(path, "w", newline="") as fh:
        fh.write(_csv_line(["key", "value"]))
        for row in kv_rows(report):
            fh.write(_csv_line(row))


# the names the CLI, the runner and perfbench/spans.py call the writer by
write_calibration_csv = write_fusion_csv = write_kv_csv


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
        # the records are not kept past the write, so calibration does not run on top of them
        write_quantum_csv(
            run_quantum_windows(traj, config.quantum, seed),
            config.quantum.circuit.up_dim, config.quantum.circuit.down_dim,
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
    (out / "meta.json").write_text(_flat_json(meta))
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

    def kv_fields(self) -> list[tuple[str, str, object]]:
        """(key, kind, value) per CSV field, in file order; see ``kv_rows``."""
        return [
            ("fused", "floats", self.fused),
            ("reference", "floats", self.reference),
            ("crossing_estimate", "floats", self.crossing_estimates),
            ("tv_distance", "float", self.tv_distance),
            ("windows", "count", self.windows),
            ("shots", "count", self.shots),
            ("degenerate", "flag", self.degenerate),
        ]


def run_fusion_demo(
    scenario: FusionScenario,
    circuit: SynapseCircuit,
    shots: int,
    seed: int,
    *,
    window_ms: float = 5.0,
    dt_ms: float = 0.25,
    settle_ms: float = 30.0,
    params: LifParams = FUSION_LIF,
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
    n_windows = len(scenario.event_truth)
    horizon = n_windows * window_ms
    truth = np.array(scenario.event_truth, dtype=bool)

    trains = []
    for k, ((p_det, _), (rate_on, rate_off)) in enumerate(zip(scenario.sensors, scenario.rates)):
        u = thread_rng(seed, _DETECT_STREAM + k).random(n_windows)
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
    degenerate = bool(weighted.sum() == 0.0 or ref_raw.sum() == 0.0)
    if degenerate:
        fused, reference, tv = np.zeros(n_sensors), np.zeros(n_sensors), 1.0
    else:
        down = settle_circuit(circuit, weighted, settle_ms, FUSION_SETTLE_DT_MS, params)
        fused = readout(circuit, down, shots, fusion_measure_seed(seed)) / shots
        reference = ref_raw / ref_raw.sum()
        tv = total_variation(fused, reference)
    return FusionReport(
        fused=fused,
        reference=reference,
        tv_distance=tv,
        crossing_estimates=p_hat,
        weighted=weighted,
        windows=n_windows,
        shots=shots,
        degenerate=degenerate,
    )
