"""Acceptance suite: every criterion at its stated tolerance.

Each test prints one PASS line (visible with ``pytest -s`` or in the
captured section on failure) and enforces its runtime budget where one is
stated.
"""

import math
import time
from pathlib import Path

import numpy as np
import pytest

from qsynapse import (
    DegenerateStateError,
    FusionScenario,
    LifParams,
    NetworkTopology,
    OperatorMatrix,
    QuantumState,
    RateProfile,
    RotationSpec,
    SynapseCircuit,
    TaggedState,
    Trajectory,
    bidirectional_step,
    calibrate,
    cnot_matrix,
    default_composition_table,
    encode_up,
    evolve_down,
    expm_hermitian,
    gate_by_tag,
    gate_up,
    generate_poisson,
    load_config,
    measure,
    merge_trains,
    rotation_operator,
    run_fusion_demo,
    run_scenario,
    shutdown_link,
    simulate_network,
)
from qsynapse.harness import run_quantum_windows
from qsynapse.rng import stream_rng

GOLDEN = Path(__file__).parent / "golden"


def report(n: int, text: str) -> None:
    print(f"ACCEPTANCE {n}: PASS - {text}")


def test_01_lif_relaxation_oracle():
    t0 = time.perf_counter()
    p = LifParams(cm=1.0, g_leak=0.0551, v_rest=-65.0, v_init=-70.6837)
    topo = NetworkTopology.build(1, [[]])
    traj = simulate_network(p, topo, [], 100.0, 0.01, integrator="rk4")
    analytic = p.v_rest + (p.v_init - p.v_rest) * np.exp(-traj.times * p.g_leak / p.cm)
    err = float(np.abs(traj.v[:, 0] - analytic).max())
    elapsed = time.perf_counter() - t0
    assert err < 1e-6
    assert elapsed < 1.0
    report(1, f"relaxation max error {err:.2e} mV (< 1e-6) in {elapsed:.2f}s")


def test_02_conductance_decay_closed_form():
    from qsynapse import decay_conductance

    t0 = time.perf_counter()
    g0, tau, dt, steps = 0.3, 5.0, 0.05, 5000
    g = g0
    worst = 0.0
    for i in range(1, steps + 1):
        g = decay_conductance(g, tau, dt)
        exact = g0 * math.exp(-i * dt / tau)
        worst = max(worst, abs(g - exact) / exact)
    elapsed = time.perf_counter() - t0
    assert worst < 1e-9
    assert elapsed < 1.0
    report(2, f"decay trace relative error {worst:.2e} (< 1e-9) in {elapsed:.2f}s")


def test_03_gap_junction_steady_state():
    t0 = time.perf_counter()
    p = LifParams()
    ge = 0.025
    topo = NetworkTopology.build(2, [[], []], [(0, 1, ge)])
    traj = simulate_network(p, topo, [], 600.0, 0.05, drives=[0.2, 0.0])
    coupling = (traj.v[-1, 1] - p.v_rest) / (traj.v[-1, 0] - p.v_rest)
    expected = ge / (p.g_leak + ge)
    elapsed = time.perf_counter() - t0
    assert abs(coupling - expected) < 1e-3
    assert elapsed < 5.0
    report(
        3,
        f"coupling coefficient {coupling:.6f} vs analytic {expected:.6f} "
        f"(alternative figure 0.2883 for this conductance is unreconciled with these constants) in {elapsed:.2f}s",
    )


def test_04_cnot_suite_exact():
    c = cnot_matrix().entries
    basis = np.eye(4, dtype=complex)
    assert np.array_equal(c @ basis[2], basis[3])  # |10> -> |11>
    assert np.array_equal(c @ basis[3], basis[2])  # |11> -> |10>
    assert np.array_equal(c @ basis[0], basis[0])
    assert np.array_equal(c @ basis[1], basis[1])
    assert np.array_equal(c @ c, np.eye(4, dtype=complex))
    report(4, "controlled-NOT permutation swaps |10>/|11>, fixes |00>/|01>, squares to I")


def test_05_rotation_operator_suite():
    t0 = time.perf_counter()
    rng = np.random.default_rng(505)
    worst = 0.0
    for _ in range(1000):
        dim = int(rng.integers(1, 17))
        a = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
        h = OperatorMatrix((a + a.conj().T) / 2.0, kind="hermitian")
        u = expm_hermitian(h, float(rng.uniform(-3, 3)))
        dev = np.linalg.norm(u.entries.conj().T @ u.entries - np.eye(dim))
        worst = max(worst, float(dev))
    assert worst < 1e-10

    rz = rotation_operator(RotationSpec.spin_half([0, 0, 1], 2 * math.pi))
    assert np.abs(rz.entries + np.eye(2)).max() < 1e-10
    rx = rotation_operator(RotationSpec.spin_half([1, 0, 0], math.pi / 2)).entries
    ry = rotation_operator(RotationSpec.spin_half([0, 1, 0], math.pi / 2)).entries
    noncomm = float(np.linalg.norm(rx @ ry - ry @ rx))
    assert noncomm > 0.1
    elapsed = time.perf_counter() - t0
    assert elapsed < 10.0
    report(
        5,
        f"1000 random unitaries worst deviation {worst:.2e}; Rz(2pi)=-I; "
        f"||[Rx,Ry]||={noncomm:.3f} in {elapsed:.2f}s",
    )


def test_06_normalization_invariant_randomized():
    params = LifParams()
    rng = np.random.default_rng(606)
    dim = 4
    table = default_composition_table()
    tags = tuple(rng.choice(table.elements, size=dim))
    down = QuantumState.uniform(dim)
    degenerate_errors = 0
    checked = 0
    k_op = None
    circuit = None
    for step in range(10_000):
        if step % 50 == 0:
            a = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
            k_op = OperatorMatrix(0.4 * (a + a.conj().T), kind="hermitian")
            circuit = SynapseCircuit(
                up_dim=dim, down_dim=dim, mode="bidirectional",
                k_operator=k_op, b_weights=rng.standard_normal(dim) * 0.5,
            )
        op = step % 5
        v = params.v_rest + float(rng.uniform(-20, 25))
        dt = float(rng.uniform(0.01, 0.5))
        up = encode_up(rng.uniform(0.05, 1.0, size=dim))
        try:
            if op == 0:
                down = gate_up(down, v, params.v_thres, tuple(rng.choice(dim, 2, replace=False)))
            elif op == 1:
                down = evolve_down(down, up, v, params, 1.0, dt)
            elif op == 2:
                _, down = bidirectional_step(circuit, up, down, v, params, dt)
            elif op == 3:
                down = shutdown_link(down, int(rng.integers(dim)))
            else:
                out = gate_by_tag(TaggedState(down, tags), {str(rng.choice(table.elements))})
                down = out.state
        except DegenerateStateError:
            degenerate_errors += 1
            down = QuantumState.uniform(dim)
            continue
        norm_err = abs(down.norm() - 1.0)
        assert norm_err < 1e-10, f"step {step}: |norm-1| = {norm_err}"
        checked += 1
    report(
        6,
        f"{checked} randomized steps normalized within 1e-10 "
        f"({degenerate_errors} declared degenerate-state errors)",
    )


def test_07_bidirectional_reduction_bitwise():
    from qsynapse.scenario import QuantumRunConfig

    p = LifParams(spike_jump=16.0, v_init=-65.0)
    topo = NetworkTopology.build(2, [[0], [1]])
    trains = [
        generate_poisson(RateProfile.constant(0.08), 300.0, 77, link) for link in range(2)
    ]
    traj = simulate_network(p, topo, merge_trains(trains), 300.0, 0.1)

    def qcfg(circuit):
        return QuantumRunConfig(
            circuit=circuit, window_ms=5.0, shots=1000,
            encode_neurons=(0, 1), potential_neuron=0, gate_pair=(0, 1),
            phases=None, tags=None, blocked_tags=(),
        )

    uni = run_quantum_windows(traj, qcfg(SynapseCircuit(2, 2)), 77)
    zero_k = OperatorMatrix(np.zeros((2, 2), dtype=complex), kind="hermitian")
    bi = run_quantum_windows(
        traj,
        qcfg(SynapseCircuit(2, 2, mode="bidirectional", k_operator=zero_k,
                            b_weights=np.zeros(2))),
        77,
    )
    assert len(uni) == len(bi) == 60
    for a, b in zip(uni, bi):
        assert np.array_equal(a.down_amplitudes, b.down_amplitudes)
        assert np.array_equal(a.counts, b.counts)
    report(7, "zero-feedback bidirectional run bitwise identical to one-way run (60 windows)")


def _bernoulli_trajectory(p: list[float], n_windows: int, window_ms: float, seed: int) -> Trajectory:
    params = LifParams()
    n = len(p)
    topo = NetworkTopology.build(n, [[] for _ in range(n)])
    cols = [stream_rng(seed, 500 + k).random(n_windows) < pk for k, pk in enumerate(p)]
    crossed = np.column_stack(cols)
    w_idx, n_idx = np.nonzero(crossed)
    return Trajectory(
        dt_ms=window_ms,
        times=np.arange(n_windows + 1) * window_ms,
        v=np.full((n_windows + 1, n), params.v_rest),
        gs=np.zeros((n_windows + 1, 0)),
        spike_steps=w_idx.astype(np.intp),
        spike_neurons=n_idx.astype(np.intp),
        params=params,
        topology=topo,
    )


def test_08_calibration_closure():
    t0 = time.perf_counter()
    p = [0.2, 0.3, 0.5]
    circuit = SynapseCircuit(up_dim=3, down_dim=3)
    passes = 0
    worst = 0.0
    for rep in range(100):
        traj = _bernoulli_trajectory(p, 100_000, 30.0, seed=rep)
        rpt = calibrate(traj, circuit, 30.0, 100_000, seeds=(rep, 90_000 + rep), epsilon=0.01)
        worst = max(worst, rpt.tv_distance)
        passes += int(rpt.tv_distance < 0.01)
    elapsed = time.perf_counter() - t0
    assert passes >= 99, f"{passes}/100 repetitions under TV 0.01"
    assert elapsed < 120.0
    report(8, f"{passes}/100 seed repetitions with TV < 0.01 (worst {worst:.4f}) in {elapsed:.1f}s")


def test_09_shutdown_exactness():
    state = shutdown_link(QuantumState.uniform(4), 2)
    counts = measure(state, 100_000, seed=909)
    assert counts["2"] == 0
    assert sum(counts.values()) == 100_000
    report(9, "100000 shots after link shutdown produced exactly 0 counts on the shut link")


def test_10_colored_algebra_decidability():
    table = default_composition_table()
    for a in table.elements:
        assert table.compose("neutral", a) == a
        assert table.compose(a, "neutral") == a
        assert table.compose("block", a) == "block"
        assert table.compose(a, "block") == "block"
        for b in table.elements:
            for c in table.elements:
                assert (
                    table.compose(table.compose(a, b), c)
                    == table.compose(a, table.compose(b, c))
                )
    rng = np.random.default_rng(1010)
    for _ in range(100):
        dim = int(rng.integers(2, 7))
        tags = tuple(rng.choice(table.elements, size=dim))
        state = encode_up(rng.uniform(0.05, 1.0, size=dim))
        keep = tags[int(rng.integers(dim))]
        blocked = set(rng.choice(table.elements, size=int(rng.integers(0, 4)))) - {keep}
        once = gate_by_tag(TaggedState(state, tags), blocked)
        twice = gate_by_tag(once, blocked)
        assert twice is once
    report(10, "4-element table total/associative with identity and absorber; tag gating idempotent")


def test_11_fusion_demo_statistical_gate():
    t0 = time.perf_counter()
    scenario = FusionScenario(
        sensors=((0.2, 0.5), (0.4, 0.5), (0.7, 1.0)),   # w*p = (0.1, 0.2, 0.7)
        event_truth=(True,) * 1000,
        rates=((1.5, 0.0),) * 3,
    )
    circuit = SynapseCircuit(3, 3)
    tvs = []
    for seed in range(30):
        rpt = run_fusion_demo(scenario, circuit, 100_000, seed=seed, window_ms=4.0, dt_ms=0.4)
        assert not rpt.degenerate
        assert rpt.reference == pytest.approx([0.1, 0.2, 0.7])
        tvs.append(rpt.tv_distance)
    mean = float(np.mean(tvs))
    sem = float(np.std(tvs, ddof=1) / math.sqrt(len(tvs)))
    elapsed = time.perf_counter() - t0
    assert mean + 3 * sem < 0.03, f"mean TV {mean:.4f} + 3 sem {sem:.4f} breaches 0.03"
    assert elapsed < 60.0
    report(
        11,
        f"fusion TV mean {mean:.4f} + 3*sem {3 * sem:.4f} < 0.03 over 30 seeds in {elapsed:.1f}s",
    )


def test_12_end_to_end_determinism(tmp_path):
    config = load_config(GOLDEN / "scenario.json")
    a = run_scenario(config, out_dir=str(tmp_path / "a"), quiet=True)
    b = run_scenario(config, out_dir=str(tmp_path / "b"), quiet=True)
    for name in ("trace.csv", "quantum.csv", "calibration.csv"):
        assert (a / name).read_bytes() == (b / name).read_bytes(), name
    report(12, "golden scenario reruns byte-identical across trace, quantum and calibration CSVs")
