"""Declarative run configuration.

A scenario is a single JSON document with nested blocks; the exact grammar
is documented in the README.  Validation is fail-fast and closed: unknown
keys are errors naming the offending field, every referenced file must
exist at load, and every numeric field is pushed through its module's own
invariants before anything runs.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from .calibration import MIN_SHOTS, MIN_WINDOWS
from .engine import load_operator_text
from .errors import ConfigError
from .lif import INTEGRATORS, LifParams, NetworkTopology, window_stride
from .spikes import RateProfile
from .synapse import SynapseCircuit, load_composition_table

# the fusion demo settles its circuit in steps of this length, whatever fusion.dt_ms is
FUSION_SETTLE_DT_MS = 0.1
# fuse lays the lif block over these: any spike must force a crossing
FUSION_LIF = LifParams(spike_jump=20.0, v_init=-65.0)

_LIF_KEYS = {
    "cm", "g_leak", "v_rest", "v_thres", "v_init", "e_syn", "tau_syn",
    "gs_max", "g_elec", "spike_jump", "delta_g", "g_elec_warn_bound",
    "literal_multilink_leak",
}


def _require(block: dict, path: str, key: str):
    if key not in block:
        raise ConfigError(f"missing required field: {path}.{key}")
    return block[key]


def _no_unknown(block: dict, path: str, allowed: set[str]) -> None:
    if not isinstance(block, dict):
        raise ConfigError(f"{path} must be an object")
    unknown = set(block) - allowed
    if unknown:
        raise ConfigError(f"unknown field: {path}.{sorted(unknown)[0]}")


def _number(value, path: str, *, minimum=None, strict_min=None) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{path} must be a number, got {value!r}")
    v = float(value)
    if not math.isfinite(v):
        raise ConfigError(f"{path} must be finite, got {v}")
    if minimum is not None and v < minimum:
        raise ConfigError(f"{path} must be >= {minimum}, got {v}")
    if strict_min is not None and v <= strict_min:
        raise ConfigError(f"{path} must be > {strict_min}, got {v}")
    return v


def _integer(value, path: str, *, minimum=None) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(f"{path} must be an integer, got {value!r}")
    if minimum is not None and value < minimum:
        raise ConfigError(f"{path} must be >= {minimum}, got {value}")
    return value


def _boolean(value, path: str) -> bool:
    if not isinstance(value, bool):
        raise ConfigError(f"{path} must be true or false, got {value!r}")
    return value


def _string(value, path: str, choices=None) -> str:
    if not isinstance(value, str):
        raise ConfigError(f"{path} must be a string, got {value!r}")
    if choices is not None and value not in choices:
        raise ConfigError(f"{path} must be one of {sorted(choices)}, got {value!r}")
    return value


def _whole_steps(duration_ms: float, dt_ms: float, path: str, dt_path: str) -> int:
    """Steps in ``duration_ms``, which must be a whole number of ``dt_ms`` steps."""
    try:
        return window_stride(dt_ms, duration_ms)
    except ValueError:
        raise ConfigError(
            f"{path} ({duration_ms}) must be a whole number of {dt_path} ({dt_ms}) steps"
        ) from None


def _existing_file(value, path: str, base_dir: Path) -> Path:
    p = Path(_string(value, path))
    if not p.is_absolute():
        p = base_dir / p
    if not p.is_file():
        raise ConfigError(f"{path} references a missing file: {p}")
    return p


def _complex_vector(values, path: str) -> np.ndarray:
    out = []
    for i, v in enumerate(values):
        if isinstance(v, (int, float)) and not isinstance(v, bool):
            out.append(complex(_number(v, f"{path}[{i}]")))
        elif isinstance(v, list) and len(v) == 2:
            out.append(complex(_number(v[0], f"{path}[{i}][0]"), _number(v[1], f"{path}[{i}][1]")))
        else:
            raise ConfigError(f"{path}[{i}] must be a number or a [re, im] pair")
    return np.array(out, dtype=complex)


@dataclass(frozen=True)
class QuantumRunConfig:
    circuit: SynapseCircuit
    window_ms: float
    shots: int
    encode_neurons: tuple[int, ...]
    potential_neuron: int
    gate_pair: tuple[int, int] | None
    phases: tuple[float, ...] | None
    tags: tuple[str, ...] | None
    blocked_tags: tuple[str, ...]


@dataclass(frozen=True)
class CalibrationConfig:
    window_ms: float
    shots: int
    epsilon: float
    link_neurons: tuple[int, ...] | None


@dataclass(frozen=True)
class OutputConfig:
    dir: str = "runs"
    emit_trace: bool = True
    emit_quantum: bool = True
    emit_calibration: bool = True


@dataclass(frozen=True)
class FusionScenario:
    """Synthetic sensor-fusion setup: per-sensor detection probability and
    reliability weight, the ground-truth event sequence, and the spike rate
    each sensor produces per detection state."""

    sensors: tuple[tuple[float, float], ...]      # (detection prob, weight)
    event_truth: tuple[bool, ...]
    rates: tuple[tuple[float, float], ...]        # (rate when detecting, rate when idle)

    def __post_init__(self):
        if len(self.sensors) < 2:
            raise ValueError("fusion needs at least 2 sensors")
        for k, (p, w) in enumerate(self.sensors):
            if not 0.0 <= p <= 1.0:
                raise ValueError(f"sensor {k} detection probability {p} outside [0, 1]")
            if not np.isfinite(w) or w < 0:
                raise ValueError(f"sensor {k} weight {w} must be finite and >= 0")
        if len(self.rates) != len(self.sensors):
            raise ValueError("one rate mapping per sensor required")
        if not self.event_truth:
            raise ValueError("event truth sequence must be nonempty")


@dataclass(frozen=True)
class FusionConfig:
    scenario: FusionScenario
    window_ms: float
    dt_ms: float
    shots: int
    settle_ms: float
    circuit: SynapseCircuit
    params: LifParams


@dataclass(frozen=True)
class ScenarioConfig:
    dt_ms: float
    t_end_ms: float
    seed: int
    integrator: str
    params: LifParams
    topology: NetworkTopology
    drives: tuple[float, ...] | None
    profiles: dict[int, RateProfile]
    quantum: QuantumRunConfig | None
    calibration: CalibrationConfig | None
    output: OutputConfig
    fusion: FusionConfig | None
    sha256: str
    raw: dict = field(repr=False)


def _parse_topology(block: dict, params: LifParams) -> NetworkTopology:
    _no_unknown(block, "topology", {"neuron_count", "upstream_links", "elec_pairs"})
    n = _integer(_require(block, "topology", "neuron_count"), "topology.neuron_count", minimum=1)
    links_raw = _require(block, "topology", "upstream_links")
    if not isinstance(links_raw, list):
        raise ConfigError("topology.upstream_links must be a list of per-neuron link-id lists")
    links = []
    for i, per in enumerate(links_raw):
        if not isinstance(per, list):
            raise ConfigError(f"topology.upstream_links[{i}] must be a list of link ids")
        links.append([_integer(l, f"topology.upstream_links[{i}][{j}]", minimum=0)
                      for j, l in enumerate(per)])
    pairs_raw = block.get("elec_pairs", [])
    pairs = []
    for i, pair in enumerate(pairs_raw):
        if not isinstance(pair, list) or len(pair) not in (2, 3):
            raise ConfigError(f"topology.elec_pairs[{i}] must be [i, j] or [i, j, g_elec]")
        pairs.append(pair[:2] + [_number(g, f"topology.elec_pairs[{i}][2]") for g in pair[2:]])
    try:
        return NetworkTopology.build(n, links, pairs, default_g_elec=params.g_elec)
    except ValueError as err:
        raise ConfigError(f"topology: {err}") from err


def _parse_profiles(block: dict, topology: NetworkTopology) -> dict[int, RateProfile]:
    _no_unknown(block, "spikes", {"profiles"})
    profiles: dict[int, RateProfile] = {}
    for i, prof in enumerate(block.get("profiles", [])):
        path = f"spikes.profiles[{i}]"
        _no_unknown(prof, path, {"link", "kind", "rate_per_ms", "segments"})
        link = _integer(_require(prof, path, "link"), f"{path}.link", minimum=0)
        if link >= topology.n_links:
            raise ConfigError(f"{path}.link {link} is not a known link id")
        if link in profiles:
            raise ConfigError(f"{path}.link {link} has more than one profile")
        kind = _string(prof.get("kind", "constant"), f"{path}.kind", {"constant", "modulated"})
        rate = _number(_require(prof, path, "rate_per_ms"), f"{path}.rate_per_ms", minimum=0.0)
        if kind == "constant" and "segments" in prof:
            raise ConfigError(f"{path}.segments is only valid for modulated profiles")
        segments = prof.get("segments", [])
        if not isinstance(segments, list) or any(
                not isinstance(seg, list) or len(seg) != 3 for seg in segments):
            raise ConfigError(f"{path}.segments must be a list of [start_ms, end_ms, rate]")
        segments = [[_number(v, f"{path}.segments[{j}][{c}]") for c, v in enumerate(seg)]
                    for j, seg in enumerate(segments)]
        try:
            profiles[link] = (RateProfile.constant(rate) if kind == "constant"
                              else RateProfile.modulated(rate, segments))
        except ValueError as err:
            raise ConfigError(f"{path}: {err}") from err
    return profiles


def _parse_quantum(block: dict, topology: NetworkTopology, dt_ms: float,
                   n_steps: int, base_dir: Path) -> QuantumRunConfig | None:
    allowed = {
        "enabled", "mode", "window_ms", "shots", "drive_scale", "encode_neurons",
        "down_dim", "potential_neuron", "gate_pair", "phases", "b_weights",
        "k_operator_path", "k_operator_kind", "coupling_path", "shutdown_links",
        "color_table_path", "tags", "blocked_tags", "up_prob_bound", "down_prob_bound",
    }
    _no_unknown(block, "quantum", allowed)
    if not _boolean(block.get("enabled", False), "quantum.enabled"):
        return None
    window_ms = _number(_require(block, "quantum", "window_ms"), "quantum.window_ms", strict_min=0.0)
    shots = _integer(_require(block, "quantum", "shots"), "quantum.shots", minimum=1)
    if _whole_steps(window_ms, dt_ms, "quantum.window_ms", "simulation.dt_ms") > n_steps:
        raise ConfigError("quantum.window_ms exceeds the simulated duration")

    if "encode_neurons" in block and block["encode_neurons"] is not None:
        encode = tuple(
            _integer(n, f"quantum.encode_neurons[{i}]", minimum=0)
            for i, n in enumerate(block["encode_neurons"])
        )
    else:
        encode = tuple(range(topology.neuron_count))
    for n in encode:
        if n >= topology.neuron_count:
            raise ConfigError(f"quantum.encode_neurons references unknown neuron {n}")
    if not encode:
        raise ConfigError("quantum.encode_neurons must not be empty")
    up_dim = len(encode)
    down_dim = block.get("down_dim")
    down_dim = up_dim if down_dim is None else _integer(down_dim, "quantum.down_dim", minimum=1)

    potential_neuron = _integer(block.get("potential_neuron", 0), "quantum.potential_neuron", minimum=0)
    if potential_neuron >= topology.neuron_count:
        raise ConfigError(f"quantum.potential_neuron {potential_neuron} is not a neuron")

    gate_pair = None
    if "gate_pair" in block:
        if block["gate_pair"] is not None:
            gp = block["gate_pair"]
            if not isinstance(gp, list) or len(gp) != 2:
                raise ConfigError("quantum.gate_pair must be [i, j] or null")
            gate_pair = (
                _integer(gp[0], "quantum.gate_pair[0]", minimum=0),
                _integer(gp[1], "quantum.gate_pair[1]", minimum=0),
            )
    elif up_dim >= 2:
        gate_pair = (0, 1)
    if gate_pair is not None:
        if gate_pair[0] == gate_pair[1] or max(gate_pair) >= up_dim:
            raise ConfigError(f"quantum.gate_pair {list(gate_pair)} invalid for dimension {up_dim}")

    phases = None
    if block.get("phases") is not None:
        phases = tuple(_number(v, f"quantum.phases[{i}]") for i, v in enumerate(block["phases"]))
        if len(phases) != up_dim:
            raise ConfigError(f"quantum.phases must have length {up_dim}")

    mode = _string(block.get("mode", "unidirectional"), "quantum.mode",
                   {"unidirectional", "bidirectional"})

    k_operator = None
    if block.get("k_operator_path") is not None:
        kind = _string(block.get("k_operator_kind", "hermitian"), "quantum.k_operator_kind",
                       {"hermitian", "unitary"})
        k_path = _existing_file(block["k_operator_path"], "quantum.k_operator_path", base_dir)
        try:
            k_operator = load_operator_text(k_path, kind=kind)
        except ValueError as err:
            raise ConfigError(f"quantum.k_operator_path: {err}") from err
    elif "k_operator_kind" in block:
        raise ConfigError("quantum.k_operator_kind given without quantum.k_operator_path")

    coupling = None
    if block.get("coupling_path") is not None:
        c_path = _existing_file(block["coupling_path"], "quantum.coupling_path", base_dir)
        try:
            coupling = load_operator_text(c_path).entries
        except ValueError as err:
            raise ConfigError(f"quantum.coupling_path: {err}") from err

    b_weights = None
    if block.get("b_weights") is not None:
        b_weights = _complex_vector(block["b_weights"], "quantum.b_weights")

    shutdowns = tuple(
        _integer(l, f"quantum.shutdown_links[{i}]", minimum=0)
        for i, l in enumerate(block.get("shutdown_links", []))
    )

    color_table = None
    if block.get("color_table_path") is not None:
        t_path = _existing_file(block["color_table_path"], "quantum.color_table_path", base_dir)
        try:
            color_table = load_composition_table(t_path)
        except ValueError as err:
            raise ConfigError(f"quantum.color_table_path: {err}") from err

    tags = None
    if block.get("tags") is not None:
        tags = tuple(_string(t, f"quantum.tags[{i}]") for i, t in enumerate(block["tags"]))
        if len(tags) != down_dim:
            raise ConfigError(f"quantum.tags must have length {down_dim}")
    blocked = tuple(
        _string(t, f"quantum.blocked_tags[{i}]") for i, t in enumerate(block.get("blocked_tags", []))
    )
    if blocked and tags is None:
        raise ConfigError("quantum.blocked_tags requires quantum.tags")
    if color_table is not None:
        for t in (tags or ()) + blocked:
            if t not in color_table.elements:
                raise ConfigError(f"quantum tag {t!r} is not in the composition table")

    up_bound = block.get("up_prob_bound")
    down_bound = block.get("down_prob_bound")
    try:
        circuit = SynapseCircuit(
            up_dim=up_dim,
            down_dim=down_dim,
            mode=mode,
            k_operator=k_operator,
            coupling=coupling,
            drive_scale=_number(block.get("drive_scale", 1.0), "quantum.drive_scale"),
            b_weights=b_weights,
            shutdown_links=shutdowns,
            up_prob_bound=None if up_bound is None else _number(up_bound, "quantum.up_prob_bound"),
            down_prob_bound=None if down_bound is None else _number(down_bound, "quantum.down_prob_bound"),
        )
    except ValueError as err:
        raise ConfigError(f"quantum: {err}") from err
    if circuit.coupling is None and up_dim != down_dim:
        raise ConfigError(
            "quantum.down_dim differs from the upstream dimension; provide quantum.coupling_path"
        )
    return QuantumRunConfig(
        circuit=circuit,
        window_ms=window_ms,
        shots=shots,
        encode_neurons=encode,
        potential_neuron=potential_neuron,
        gate_pair=gate_pair,
        phases=phases,
        tags=tags,
        blocked_tags=blocked,
    )


def _parse_calibration(block: dict, dt_ms: float, n_steps: int,
                       topology: NetworkTopology) -> CalibrationConfig | None:
    _no_unknown(block, "calibration", {"enabled", "window_ms", "shots", "epsilon", "link_neurons"})
    if not _boolean(block.get("enabled", False), "calibration.enabled"):
        return None
    window_ms = _number(_require(block, "calibration", "window_ms"),
                        "calibration.window_ms", strict_min=0.0)
    shots = _integer(block.get("shots", 100_000), "calibration.shots", minimum=MIN_SHOTS)
    epsilon = _number(block.get("epsilon", 0.02), "calibration.epsilon", strict_min=0.0)
    stride = _whole_steps(window_ms, dt_ms, "calibration.window_ms", "simulation.dt_ms")
    if n_steps // stride < MIN_WINDOWS:
        raise ConfigError(
            f"calibration needs at least {MIN_WINDOWS} windows; shrink calibration.window_ms "
            "or extend simulation.t_end_ms"
        )
    link_neurons = None
    if block.get("link_neurons") is not None:
        link_neurons = tuple(
            _integer(n, f"calibration.link_neurons[{i}]", minimum=0)
            for i, n in enumerate(block["link_neurons"])
        )
        for n in link_neurons:
            if n >= topology.neuron_count:
                raise ConfigError(f"calibration.link_neurons references unknown neuron {n}")
    return CalibrationConfig(window_ms=window_ms, shots=shots, epsilon=epsilon,
                             link_neurons=link_neurons)


def _parse_fusion(block: dict, params: LifParams) -> FusionConfig:
    allowed = {"sensors", "n_events", "events", "rate_active", "rate_idle",
               "window_ms", "dt_ms", "shots", "settle_ms", "shutdown_links"}
    _no_unknown(block, "fusion", allowed)
    sensors_raw = _require(block, "fusion", "sensors")
    sensors = []
    rates = []
    shared_active = _number(block.get("rate_active", 1.2), "fusion.rate_active", minimum=0.0)
    shared_idle = _number(block.get("rate_idle", 0.0), "fusion.rate_idle", minimum=0.0)
    for i, s in enumerate(sensors_raw):
        path = f"fusion.sensors[{i}]"
        _no_unknown(s, path, {"p", "weight", "rate_active", "rate_idle"})
        p = _number(_require(s, path, "p"), f"{path}.p", minimum=0.0)
        w = _number(_require(s, path, "weight"), f"{path}.weight", minimum=0.0)
        sensors.append((p, w))
        rates.append((
            _number(s.get("rate_active", shared_active), f"{path}.rate_active", minimum=0.0),
            _number(s.get("rate_idle", shared_idle), f"{path}.rate_idle", minimum=0.0),
        ))
    if "events" in block and "n_events" in block:
        raise ConfigError("fusion takes either n_events or events, not both")
    if "events" in block:
        truth = tuple(_boolean(e, f"fusion.events[{i}]") for i, e in enumerate(block["events"]))
    else:
        truth = (True,) * _integer(_require(block, "fusion", "n_events"), "fusion.n_events", minimum=1)
    try:
        scenario = FusionScenario(tuple(sensors), truth, tuple(rates))
    except ValueError as err:
        raise ConfigError(f"fusion: {err}") from err
    shutdowns = tuple(
        _integer(l, f"fusion.shutdown_links[{i}]", minimum=0)
        for i, l in enumerate(block.get("shutdown_links", []))
    )
    n = len(sensors)
    try:
        circuit = SynapseCircuit(up_dim=n, down_dim=n, shutdown_links=shutdowns)
    except ValueError as err:
        raise ConfigError(f"fusion: {err}") from err
    window_ms = _number(block.get("window_ms", 5.0), "fusion.window_ms", strict_min=0.0)
    dt_ms = _number(block.get("dt_ms", 0.25), "fusion.dt_ms", strict_min=0.0)
    _whole_steps(window_ms, dt_ms, "fusion.window_ms", "fusion.dt_ms")
    settle_ms = _number(block.get("settle_ms", 30.0), "fusion.settle_ms", strict_min=0.0)
    _whole_steps(settle_ms, FUSION_SETTLE_DT_MS, "fusion.settle_ms",
                 "the fusion settle step")
    return FusionConfig(
        scenario=scenario,
        window_ms=window_ms,
        dt_ms=dt_ms,
        shots=_integer(block.get("shots", 100_000), "fusion.shots", minimum=1),
        settle_ms=settle_ms,
        circuit=circuit,
        params=params,
    )


def parse_config(raw: dict, base_dir: Path) -> ScenarioConfig:
    """Validate a decoded scenario document and build all domain objects."""
    if not isinstance(raw, dict):
        raise ConfigError("scenario document must be a JSON object")
    _no_unknown(raw, "<root>", {"simulation", "lif", "topology", "drive", "spikes",
                                "quantum", "calibration", "output", "fusion"})

    sim = _require(raw, "<root>", "simulation")
    _no_unknown(sim, "simulation", {"dt_ms", "t_end_ms", "seed", "integrator"})
    dt_ms = _number(_require(sim, "simulation", "dt_ms"), "simulation.dt_ms", strict_min=0.0)
    t_end_ms = _number(_require(sim, "simulation", "t_end_ms"), "simulation.t_end_ms", strict_min=0.0)
    n_steps = _whole_steps(t_end_ms, dt_ms, "simulation.t_end_ms", "simulation.dt_ms")
    seed = _integer(_require(sim, "simulation", "seed"), "simulation.seed", minimum=0)
    integrator = _string(sim.get("integrator", "rk4"), "simulation.integrator", set(INTEGRATORS))

    lif_block = raw.get("lif", {})
    _no_unknown(lif_block, "lif", _LIF_KEYS)
    lif_block = {k: _boolean(v, f"lif.{k}") if k == "literal_multilink_leak"
                 else _number(v, f"lif.{k}") for k, v in lif_block.items()}
    try:
        params = LifParams(**lif_block)
        fusion_params = replace(FUSION_LIF, **lif_block)
    except (TypeError, ValueError) as err:
        raise ConfigError(f"lif: {err}") from err

    topology = _parse_topology(_require(raw, "<root>", "topology"), params)

    drives = None
    if "drive" in raw:
        _no_unknown(raw["drive"], "drive", {"constant"})
        const = _require(raw["drive"], "drive", "constant")
        if not isinstance(const, list) or len(const) != topology.neuron_count:
            raise ConfigError(
                f"drive.constant must list one value per neuron ({topology.neuron_count})"
            )
        drives = tuple(_number(v, f"drive.constant[{i}]") for i, v in enumerate(const))

    profiles = _parse_profiles(raw.get("spikes", {}), topology)
    quantum = _parse_quantum(raw.get("quantum", {}), topology, dt_ms, n_steps, base_dir)
    cal = _parse_calibration(raw.get("calibration", {}), dt_ms, n_steps, topology)
    if (
        cal is not None
        and cal.link_neurons is not None
        and quantum is not None
        and len(cal.link_neurons) != quantum.circuit.up_dim
    ):
        raise ConfigError(
            "calibration.link_neurons length must match the quantum circuit's "
            f"upstream dimension ({quantum.circuit.up_dim})"
        )

    out_block = raw.get("output", {})
    _no_unknown(out_block, "output", {"dir", "emit_trace", "emit_quantum", "emit_calibration"})
    output = OutputConfig(
        dir=_string(out_block.get("dir", "runs"), "output.dir"),
        emit_trace=_boolean(out_block.get("emit_trace", True), "output.emit_trace"),
        emit_quantum=_boolean(out_block.get("emit_quantum", True), "output.emit_quantum"),
        emit_calibration=_boolean(out_block.get("emit_calibration", True), "output.emit_calibration"),
    )

    fusion = _parse_fusion(raw["fusion"], fusion_params) if "fusion" in raw else None

    canonical = json.dumps(raw, sort_keys=True, separators=(",", ":"))
    sha = hashlib.sha256(canonical.encode()).hexdigest()
    return ScenarioConfig(
        dt_ms=dt_ms,
        t_end_ms=t_end_ms,
        seed=seed,
        integrator=integrator,
        params=params,
        topology=topology,
        drives=drives,
        profiles=profiles,
        quantum=quantum,
        calibration=cal,
        output=output,
        fusion=fusion,
        sha256=sha,
        raw=raw,
    )


def load_config(path: str | Path) -> ScenarioConfig:
    """Read, decode and validate a scenario file."""
    p = Path(path)
    if not p.is_file():
        raise ConfigError(f"config file not found: {p}")
    try:
        raw = json.loads(p.read_text())
    except json.JSONDecodeError as err:
        raise ConfigError(f"{p}: invalid JSON: {err}") from err
    return parse_config(raw, p.parent)
