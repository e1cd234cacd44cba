"""Workload definitions: seeded scenario generation and the op each runs.

A workload is one scenario file (plus any operator file it references),
generated from the benchmark seed, and a closed loop of ops.  One op is one
in-process ``qsynapse.cli.main`` call on its own seed.  The program only
ever sees the generated files and the op seed on its command line.

The (dt, window) pairs below are whole-step multiples whose float window
index ``floor(i * dt / window)`` equals the integer index ``i // stride``
for every step index, so the window-assignment fault recorded in
CHANGES.md does not affect these workloads (see README.md).
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

WORKLOADS = ("synapse_bidir", "fusion_seeds", "gap_network")

# acceptance-test-11 sensors: (detection probability, reliability weight)
FUSION_SENSORS = ((0.2, 0.5), (0.4, 0.5), (0.7, 1.0))
FUSION_EVENTS = 250


@dataclass(frozen=True)
class Workload:
    name: str
    command: str            # cli subcommand: "simulate" or "fuse"
    config: Path            # generated scenario file
    scenario: dict          # the decoded scenario, read by the checks

    @property
    def sim_ms(self) -> float:
        """Simulated biological milliseconds per op."""
        fus = self.scenario.get("fusion")
        if fus is not None:
            return fus["n_events"] * fus["window_ms"]
        return self.scenario["simulation"]["t_end_ms"]


def op_seed(bench_seed: int, index: int) -> int:
    """Seed of op ``index`` in a run started with ``--seed bench_seed``."""
    return (bench_seed << 20) + index


def op_argv(wl: Workload, seed: int, out_dir: Path) -> list[str]:
    return [wl.command, "--config", str(wl.config), "--seed", str(seed),
            "--out", str(out_dir), "--quiet"]


def _write(scenario: dict, work: Path) -> Path:
    path = work / "scenario.json"
    path.write_text(json.dumps(scenario, indent=1) + "\n")
    return path


def _hermitian_file(rng: np.random.Generator, dim: int, scale: float, path: Path) -> None:
    a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    h = scale * (a + a.conj().T) / 2.0
    lines = [str(dim)]
    for row in h:
        lines.append(" ".join(f"{float(z.real)!r},{float(z.imag)!r}" for z in row))
    path.write_text("\n".join(lines) + "\n")


def synapse_bidir(seed: int, work: Path) -> Workload:
    """4-neuron gap-coupled ring driving a bidirectional 4-link circuit.

    The seed draws the feedback operator, the b weights and which links get
    the modulated profile; rates and couplings are fixed so that the work
    per op depends on the op seed's spike realization only.
    """
    rng = np.random.default_rng([seed, 1])
    n = 4
    _hermitian_file(rng, n, 0.2, work / "k_operator.txt")
    rates = (0.06, 0.08, 0.10, 0.12)
    modulated = set(int(k) for k in rng.choice(n, size=2, replace=False))
    profiles = []
    for link in range(n):
        if link in modulated:
            profiles.append({"link": link, "kind": "modulated", "rate_per_ms": rates[link],
                             "segments": [[30.0, 50.0, 0.0], [50.0, 70.0, 2.0 * rates[link]]]})
        else:
            profiles.append({"link": link, "kind": "constant", "rate_per_ms": rates[link]})
    scenario = {
        "simulation": {"dt_ms": 0.1, "t_end_ms": 100.0, "seed": seed},
        "lif": {"spike_jump": 16.0, "v_init": -65.0},
        "topology": {
            "neuron_count": n,
            "upstream_links": [[k] for k in range(n)],
            "elec_pairs": [[k, (k + 1) % n, 0.015] for k in range(n)],
        },
        "spikes": {"profiles": profiles},
        "quantum": {
            "enabled": True,
            "mode": "bidirectional",
            "window_ms": 0.5,
            "shots": 2000,
            "gate_pair": [0, 1],
            "potential_neuron": 0,
            "k_operator_path": "k_operator.txt",
            "k_operator_kind": "hermitian",
            "b_weights": [[float(x), float(y)] for x, y in rng.uniform(-0.3, 0.3, size=(n, 2))],
            "tags": ["neutral", "excite", "inhibit", "block"],
            "blocked_tags": ["block"],
            "shutdown_links": [2],
        },
        "calibration": {"enabled": True, "window_ms": 1.0, "shots": 10000, "epsilon": 0.5},
        "output": {"dir": "runs"},
    }
    return Workload("synapse_bidir", "simulate", _write(scenario, work), scenario)


def fusion_seeds(seed: int, work: Path) -> Workload:
    """Acceptance-test-11 sensor fusion at a reduced event count."""
    scenario = {
        "simulation": {"dt_ms": 0.4, "t_end_ms": 4.0, "seed": seed},
        "topology": {"neuron_count": 3, "upstream_links": [[0], [1], [2]]},
        "fusion": {
            "sensors": [{"p": p, "weight": w} for p, w in FUSION_SENSORS],
            "n_events": FUSION_EVENTS,
            "rate_active": 1.5,
            "rate_idle": 0.0,
            "window_ms": 4.0,
            "dt_ms": 0.4,
            "shots": 100000,
        },
        "output": {"dir": "runs"},
    }
    return Workload("fusion_seeds", "fuse", _write(scenario, work), scenario)


def gap_network(seed: int, work: Path) -> Workload:
    """48-neuron network with 96 gap junctions, constant drives, quantum off.

    The seed draws the 48 chords beside the ring and permutes fixed sets of
    drives, input rates and coupling strengths over the neurons and pairs,
    so every seed asks for the same amount of work.
    """
    rng = np.random.default_rng([seed, 3])
    n = 48
    pairs = {(k, (k + 1) % n) for k in range(n)}
    while len(pairs) < 2 * n:
        i, j = (int(x) for x in rng.choice(n, size=2, replace=False))
        if (j, i) not in pairs:
            pairs.add((i, j))
    drives = rng.permutation(np.linspace(0.6, 1.1, n))
    rates = rng.permutation(np.linspace(0.01, 0.04, n))
    g = rng.permutation(np.linspace(0.002, 0.01, 2 * n))
    scenario = {
        "simulation": {"dt_ms": 0.1, "t_end_ms": 50.0, "seed": seed},
        "topology": {
            "neuron_count": n,
            "upstream_links": [[k] for k in range(n)],
            "elec_pairs": [[i, j, float(gk)] for (i, j), gk in zip(sorted(pairs), g)],
        },
        "drive": {"constant": [float(x) for x in drives]},
        "spikes": {"profiles": [
            {"link": k, "kind": "constant", "rate_per_ms": float(rates[k])} for k in range(n)
        ]},
        "calibration": {"enabled": True, "window_ms": 0.5, "shots": 10000,
                        "epsilon": 0.5, "link_neurons": [0, 12, 24, 36]},
        "output": {"dir": "runs"},
    }
    return Workload("gap_network", "simulate", _write(scenario, work), scenario)


BUILDERS = {"synapse_bidir": synapse_bidir, "fusion_seeds": fusion_seeds,
            "gap_network": gap_network}


def build(name: str, seed: int, work: Path) -> Workload:
    work.mkdir(parents=True, exist_ok=True)
    return BUILDERS[name](seed, work)
