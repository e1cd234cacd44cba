"""Classical-vs-quantum distribution matching.

The procedure characterizes how well the synapse circuit reproduces the
classical threshold-crossing statistics: estimate per-link crossing
probabilities from a recorded run, encode them upstream, let the circuit
settle for one window, measure, and compare the normalized classical
vector against the empirical quantum frequencies.  Total variation is the
pass criterion (exact for finite supports); a two-sample KS statistic is
reported alongside.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .engine import QuantumState, measure, uniform_amplitudes
from .lif import Trajectory, measure_firing_probability, window_stride
from .synapse import SynapseCircuit, blanked, blocked_components, encode_amplitudes, run_circuit

MIN_WINDOWS = 100
MIN_SHOTS = 10_000


def total_variation(p: Sequence[float], q: Sequence[float]) -> float:
    """Half the L1 distance between two discrete distributions."""
    pa = np.asarray(p, dtype=float)
    qa = np.asarray(q, dtype=float)
    if pa.shape != qa.shape:
        raise ValueError(f"distributions differ in length: {pa.shape} vs {qa.shape}")
    return float(0.5 * np.abs(pa - qa).sum())


def ks_statistic(p: Sequence[float], q: Sequence[float]) -> float:
    """Max CDF gap between two distributions on the same ordered support."""
    pa = np.asarray(p, dtype=float)
    qa = np.asarray(q, dtype=float)
    if pa.shape != qa.shape:
        raise ValueError(f"distributions differ in length: {pa.shape} vs {qa.shape}")
    return float(np.abs(np.cumsum(pa) - np.cumsum(qa)).max())


@dataclass
class CalibrationReport:
    classical_probs: np.ndarray     # raw per-link crossing probabilities
    quantum_freqs: np.ndarray       # empirical measurement frequencies
    tv_distance: float
    ks_stat: float
    windows: int
    shots: int
    epsilon: float
    passed: bool
    degenerate: bool = False
    seeds: tuple[int, int] = (0, 0)

    def kv_fields(self) -> list[tuple[str, str, object]]:
        """(key, kind, value) per CSV field, in file order; see ``harness.kv_rows``."""
        return [
            ("classical_p", "floats", self.classical_probs),
            ("quantum_freq", "floats", self.quantum_freqs),
            ("tv_distance", "float", self.tv_distance),
            ("ks_statistic", "float", self.ks_stat),
            ("windows", "count", self.windows),
            ("shots", "count", self.shots),
            ("epsilon", "float", self.epsilon),
            ("seed_classical", "count", self.seeds[0]),
            ("seed_quantum", "count", self.seeds[1]),
            ("degenerate", "flag", self.degenerate),
            ("passed", "flag", self.passed),
        ]


def readout(
    circuit: SynapseCircuit,
    down: list[complex],
    shots: int,
    seed: int,
    tags: Sequence[str] | None = None,
    blocked_tags: Sequence[str] = (),
) -> np.ndarray:
    """Counts in basis order: ``down`` with its shutdown links blanked, then its blocked
    tags, measured as the one validated state of the readout."""
    for link in circuit.shutdown_links:
        down = blanked(down, (link,), f"link {link} is the only nonzero component")
    if tags is not None and blocked_tags:
        if len(tags) != len(down):
            raise ValueError("tags length must equal the state dimension")
        down = blanked(down, blocked_components(tags, blocked_tags),
                       "every component is blocked by tag")
    counts = measure(QuantumState.from_amplitudes(down), shots, seed)
    return np.array(list(counts.values()))


def settle_circuit(
    circuit: SynapseCircuit,
    probabilities: Sequence[float],
    window_ms: float,
    dt: float,
    params,
) -> list[complex]:
    """Encode ``probabilities``, then run the circuit for one window at rest from a uniform
    downstream start; raises unless ``window_ms`` is a whole number of ``dt`` steps."""
    _, down = run_circuit(
        circuit, encode_amplitudes(probabilities), uniform_amplitudes(circuit.down_dim),
        [params.v_rest] * window_stride(dt, window_ms), params, dt,
    )
    return down


def calibrate(
    trajectory: Trajectory,
    circuit: SynapseCircuit,
    window_ms: float,
    shots: int,
    seeds: tuple[int, int],
    epsilon: float = 0.02,
    *,
    dt: float = 0.1,
    link_neurons: Sequence[int] | None = None,
) -> CalibrationReport:
    """Compare classical crossing statistics against circuit measurement.

    A degenerate encoding (no link ever crossed) is reported as a failed
    calibration rather than raised.
    """
    if circuit.up_dim != circuit.down_dim:
        raise ValueError(
            "calibration compares upstream probabilities to downstream "
            "frequencies and requires equal circuit dimensions"
        )
    if shots < MIN_SHOTS:
        raise ValueError(f"shots must be >= {MIN_SHOTS}")
    n_windows = trajectory.n_steps // window_stride(trajectory.dt_ms, window_ms)
    if n_windows < MIN_WINDOWS:
        raise ValueError(
            f"trajectory spans {n_windows} windows of {window_ms} ms; "
            f"calibration needs at least {MIN_WINDOWS}"
        )
    neurons = list(range(circuit.up_dim)) if link_neurons is None else list(link_neurons)
    if len(neurons) != circuit.up_dim:
        raise ValueError("link_neurons length must equal the upstream dimension")

    p = np.array(
        [measure_firing_probability(trajectory, window_ms, n) for n in neurons]
    )
    degenerate = bool(p.sum() == 0.0)
    if degenerate:
        freqs = np.zeros(circuit.down_dim)
        tv = ks = 1.0
    else:
        circuit.check_up_probabilities(p)
        down = settle_circuit(circuit, p, window_ms, dt, trajectory.params)
        freqs = readout(circuit, down, shots, seeds[1]) / shots
        classical = p / p.sum()
        tv = total_variation(classical, freqs)
        ks = ks_statistic(classical, freqs)
    return CalibrationReport(
        classical_probs=p,
        quantum_freqs=freqs,
        tv_distance=tv,
        ks_stat=ks,
        windows=n_windows,
        shots=shots,
        epsilon=epsilon,
        passed=not degenerate and tv < epsilon,
        degenerate=degenerate,
        seeds=tuple(seeds),
    )
