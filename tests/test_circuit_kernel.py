"""run_circuit and run_quantum_windows against a per-step QuantumState oracle.

The oracle is the loop the kernel replaced: gate_up, the coupled drive,
one Euler step of the downstream state and the feedback round trip, each
building a validated QuantumState.  Its sums, real scalings and
normalizations are numpy calls, spelled as they were before the scalar
kernel existed, so circuits without K, coupling or b_weights are held
bitwise to numpy.  Its K @ down, coupling @ up and b_weights * coupled
products are written out in real arithmetic (each row summed from zero in
column order, nothing fused), so circuits with them are held bitwise to the
kernel's documented order and not to whichever kernel numpy dispatches to.
The public evolve_down/bidirectional_step shells and the window runner are
checked against the same oracle.
"""

import dataclasses
import json
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qsynapse import (
    DegenerateStateError,
    LifParams,
    NetworkTopology,
    OperatorMatrix,
    QuantumState,
    SynapseCircuit,
    TaggedState,
    bidirectional_step,
    default_composition_table,
    encode_up,
    evolve_down,
    expm_hermitian,
    gate_by_tag,
    gate_up,
    generate_poisson,
    measure,
    merge_trains,
    shutdown_link,
    simulate_network,
)
from qsynapse.rng import _pairwise_sum
from qsynapse.harness import run_quantum_windows, window_measure_seed
from qsynapse.lif import window_crossings
from qsynapse.scenario import QuantumRunConfig
from qsynapse.synapse import run_circuit

PARAMS = LifParams(spike_jump=16.0, v_init=-65.0)


def plain_product(a: complex, b: complex) -> complex:
    return complex(a.real * b.real - a.imag * b.imag, a.real * b.imag + a.imag * b.real)


def plain_matvec(m: np.ndarray, x: np.ndarray) -> np.ndarray:
    """m @ x with each row summed from 0.0 in column order, every operation rounded."""
    out = []
    for row in m.tolist():
        re = im = 0.0
        for a, b in zip(row, x.tolist()):
            p = plain_product(a, b)
            re, im = re + p.real, im + p.imag
        out.append(complex(re, im))
    return np.array(out, dtype=complex)


def _drive_delta(drive, v_now, params, drive_scale, dt):
    delta = dt * drive.astype(complex)
    delta[0] += dt * (1j * drive_scale * (params.g_leak / params.cm) * (v_now - params.v_rest))
    return delta


def _normalized(out, stage):
    n2 = float(np.sum(out.real**2 + out.imag**2))
    if n2 == 0.0:
        raise DegenerateStateError(f"{stage} collapsed to the zero state")
    return out / np.sqrt(n2)


def _combine(base, contribution, stage):
    if not contribution.any():
        return None
    return _normalized(base + contribution, stage)


def oracle_evolve_down(psi_down, psi_up, v_now, params, drive_scale, dt):
    delta = _drive_delta(psi_up.amplitudes, v_now, params, drive_scale, dt)
    out = _combine(psi_down.amplitudes, delta, "downstream evolution step")
    return psi_down if out is None else QuantumState(out, psi_down.basis_labels)


def oracle_bidirectional_step(circuit, psi_up, psi_down, v_now, params, dt):
    if circuit.k_operator is None:
        feedback = np.zeros(circuit.up_dim, dtype=complex)
    else:
        feedback = plain_matvec(circuit.k_operator.entries, psi_down.amplitudes)
    mixed = _combine(psi_up.amplitudes, feedback, "feedback mix")
    up2 = psi_up.amplitudes if mixed is None else mixed
    delta = _drive_delta(psi_down.amplitudes, v_now, params, circuit.drive_scale, dt)
    stepped = _combine(up2, delta, "upstream drive step")
    up2 = up2 if stepped is None else stepped
    psi_up2 = QuantumState(up2, psi_up.basis_labels)
    coupled = up2 if circuit.coupling is None else plain_matvec(circuit.coupling, up2)
    if circuit.b_weights is None:
        weighted = np.zeros(circuit.down_dim, dtype=complex)
    else:
        weighted = np.array([plain_product(w, c) for w, c in
                             zip(circuit.b_weights.tolist(), coupled.tolist())], dtype=complex)
    combined = _combine(psi_down.amplitudes, weighted, "downstream combination")
    if combined is None:
        return psi_up2, psi_down
    return psi_up2, QuantumState(combined, psi_down.basis_labels)


def same_bits(a: QuantumState, b: QuantumState) -> bool:
    return a.amplitudes.tobytes() == b.amplitudes.tobytes()


def oracle_circuit(circuit, psi_up, psi_down, potentials, params, dt, gate_pair):
    """The per-step loop; also checks the public shells against it at every step."""
    up_record = psi_up
    for v_now in potentials:
        v_now = float(v_now)
        if gate_pair is not None:
            psi_up = gate_up(psi_up, v_now, params.v_thres, gate_pair)
        if circuit.coupling is None:
            drive = psi_up
        else:
            drive = QuantumState(
                _normalized(plain_matvec(circuit.coupling, psi_up.amplitudes), "coupled drive"),
                psi_down.basis_labels,
            )
        stepped = oracle_evolve_down(psi_down, drive, v_now, params, circuit.drive_scale, dt)
        assert same_bits(evolve_down(psi_down, drive, v_now, params, circuit.drive_scale, dt),
                         stepped)
        psi_down = stepped
        if circuit.mode == "bidirectional":
            up_record, combined = oracle_bidirectional_step(
                circuit, psi_up, psi_down, v_now, params, dt
            )
            shell_up, shell_down = bidirectional_step(circuit, psi_up, psi_down, v_now, params, dt)
            assert same_bits(shell_up, up_record) and same_bits(shell_down, combined)
            psi_down = combined
        else:
            up_record = psi_up
    return up_record, psi_down


def _random_state(rng, dim):
    return QuantumState.from_amplitudes(
        rng.standard_normal(dim) + 1j * rng.standard_normal(dim), normalize=True
    )


@st.composite
def circuits(draw, up_dim=None, down_dim=None):
    """Random circuits: half without K, coupling or b_weights, half over every variant."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    mode = draw(st.sampled_from(["unidirectional", "bidirectional"]))
    # up to 20 components, so that norms are also summed with numpy's 8 accumulators
    up_dim = draw(st.integers(1, 20)) if up_dim is None else up_dim
    products = draw(st.booleans())
    with_coupling = products and draw(st.booleans())
    if down_dim is None:
        free = with_coupling and mode == "unidirectional"
        down_dim = draw(st.integers(1, 20)) if free else up_dim
    if down_dim != up_dim:
        with_coupling = True
    coupling = None
    if with_coupling:
        coupling = (rng.standard_normal((down_dim, up_dim))
                    + 1j * rng.standard_normal((down_dim, up_dim)))
    k_operator = None
    k_kind = draw(st.sampled_from(["none", "zero", "hermitian", "unitary"])) if products else "none"
    if k_kind != "none" and down_dim == up_dim:
        a = rng.standard_normal((down_dim, down_dim)) + 1j * rng.standard_normal((down_dim, down_dim))
        h = OperatorMatrix(0.3 * (a + a.conj().T), kind="hermitian")
        if k_kind == "zero":
            k_operator = OperatorMatrix(np.zeros((down_dim, down_dim), dtype=complex),
                                        kind="hermitian")
        elif k_kind == "hermitian":
            k_operator = h
        else:
            k_operator = expm_hermitian(h, 1.0)
    b_kind = draw(st.sampled_from(["none", "zero", "random"])) if products else "none"
    b_weights = {"none": None, "zero": np.zeros(down_dim),
                 "random": 0.4 * (rng.standard_normal(down_dim)
                                  + 1j * rng.standard_normal(down_dim))}[b_kind]
    circuit = SynapseCircuit(
        up_dim=up_dim, down_dim=down_dim, mode=mode, k_operator=k_operator,
        coupling=coupling, drive_scale=draw(st.floats(0.05, 2.0)),
        b_weights=b_weights,
    )
    gate_pair = None
    if up_dim >= 2 and draw(st.booleans()):
        i, j = draw(st.lists(st.integers(0, up_dim - 1), min_size=2, max_size=2, unique=True))
        gate_pair = (i, j)
    return circuit, gate_pair, rng


potentials_strategy = st.lists(
    st.one_of(st.floats(-80.0, -20.0), st.just(PARAMS.v_thres)), min_size=0, max_size=25
)


@settings(max_examples=150, deadline=None)
@given(
    drawn=circuits(),
    potentials=potentials_strategy,
    dt=st.floats(0.0, 0.5, exclude_min=True),
)
def test_run_circuit_matches_per_step_oracle_bitwise(drawn, potentials, dt):
    circuit, gate_pair, rng = drawn
    psi_up = encode_up(rng.uniform(0.05, 1.0, circuit.up_dim),
                       rng.uniform(-3.0, 3.0, circuit.up_dim))
    psi_down = _random_state(rng, circuit.down_dim)
    up, down = psi_up.amplitudes.tolist(), psi_down.amplitudes.tolist()
    try:
        want_up, want_down = oracle_circuit(circuit, psi_up, psi_down, potentials, PARAMS,
                                            dt, gate_pair)
    except DegenerateStateError as err:
        stage = str(err).split(" collapsed")[0]
        with pytest.raises(DegenerateStateError, match=stage):
            run_circuit(circuit, up, down, potentials, PARAMS, dt, gate_pair)
        return
    got_up, got_down = run_circuit(circuit, up, down, np.array(potentials), PARAMS,
                                   dt, gate_pair)
    assert np.array(got_up).tobytes() == want_up.amplitudes.tobytes()
    assert np.array(got_down).tobytes() == want_down.amplitudes.tobytes()
    assert up == psi_up.amplitudes.tolist() and down == psi_down.amplitudes.tolist()

    # zero feedback reduces to the one-way circuit exactly
    k = circuit.k_operator
    if (circuit.mode == "bidirectional"
            and (k is None or not k.entries.any())
            and (circuit.b_weights is None or not circuit.b_weights.any())):
        one_way = dataclasses.replace(circuit, mode="unidirectional")
        _, uni_down = run_circuit(one_way, up, down, potentials, PARAMS, dt, gate_pair)
        assert np.array(uni_down).tobytes() == np.array(got_down).tobytes()


@pytest.mark.parametrize("n", [*range(0, 41), 127, 128, 129, 255, 300, 1001, 4096])
def test_pairwise_sum_adds_in_numpy_order(n):
    """Squared magnitudes, as the kernel sums them; ten draws per length, because another
    order of additions changes the last bit of only some sums."""
    for k in range(10):
        rng = np.random.default_rng([n, k])
        a = rng.standard_normal(n) ** 2 + rng.standard_normal(n) ** 2
        assert _pairwise_sum(a.tolist(), 0, n) == float(np.sum(a)), k


def test_run_circuit_validates_at_entry():
    circuit = SynapseCircuit(2, 2)
    up = down = QuantumState.uniform(2).amplitudes.tolist()
    with pytest.raises(ValueError, match="dt"):
        run_circuit(circuit, up, down, [-65.0], PARAMS, 0.0)
    with pytest.raises(ValueError, match="dimensions"):
        run_circuit(circuit, [1j, 0j, 0j], down, [-65.0], PARAMS, 0.1)
    with pytest.raises(ValueError, match="gate_pair"):
        run_circuit(circuit, up, down, [-65.0], PARAMS, 0.1, gate_pair=(0, 2))
    with pytest.raises(ValueError, match="coupling"):
        run_circuit(SynapseCircuit(2, 3), up, [1j, 0j, 0j], [-65.0], PARAMS, 0.1)


def oracle_windows(traj, qcfg, master_seed):
    """The window runner before the kernel: per-step states, then its own readout."""
    circuit = qcfg.circuit
    stride = int(round(qcfg.window_ms / traj.dt_ms))
    n_windows = traj.n_steps // stride
    crossed = window_crossings(traj, qcfg.window_ms)[:n_windows]
    psi_down = QuantumState.uniform(circuit.down_dim)
    out = []
    for w in range(n_windows):
        p = crossed[: w + 1, list(qcfg.encode_neurons)].mean(axis=0)
        if p.sum() == 0.0:
            out.append((True, np.zeros(circuit.up_dim), psi_down,
                        np.zeros(circuit.down_dim, dtype=int)))
            continue
        potentials = traj.v[w * stride:(w + 1) * stride, qcfg.potential_neuron]
        up_record, psi_down = oracle_circuit(circuit, encode_up(p, qcfg.phases), psi_down,
                                             potentials, traj.params, traj.dt_ms, qcfg.gate_pair)
        meas = psi_down
        for link in circuit.shutdown_links:
            meas = shutdown_link(meas, link)
        if qcfg.tags is not None and qcfg.blocked_tags:
            meas = gate_by_tag(TaggedState(meas, qcfg.tags), qcfg.blocked_tags).state
        counts = measure(meas, qcfg.shots, window_measure_seed(master_seed, w))
        out.append((False, up_record.probabilities(), psi_down,
                    np.array([counts[label] for label in meas.basis_labels])))
    return out


@st.composite
def window_runs(draw):
    n = draw(st.integers(1, 3))
    drawn_circuit, gate_pair, rng = draw(circuits(up_dim=n))
    down_dim = drawn_circuit.down_dim
    shut = draw(st.lists(st.integers(0, down_dim - 1), unique=True, max_size=down_dim - 1))
    circuit = dataclasses.replace(drawn_circuit, shutdown_links=tuple(shut))
    elements = default_composition_table().elements
    tags = None
    blocked = ()
    if draw(st.booleans()):
        tags = tuple(draw(st.lists(st.sampled_from(elements), min_size=down_dim,
                                   max_size=down_dim)))
        blocked = tuple(draw(st.lists(st.sampled_from(elements), unique=True, max_size=2)))
    phases = None
    if draw(st.booleans()):
        phases = tuple(rng.uniform(-3.0, 3.0, n).tolist())
    t_end, dt = 12.0, 0.1
    events = sorted((float(t), int(k)) for t, k in zip(
        rng.uniform(0.0, t_end, 3 * n), rng.integers(0, n, 3 * n)))
    topo = NetworkTopology.build(n, [[k] for k in range(n)],
                                 [(k, k + 1, 0.02) for k in range(n - 1)])
    traj = simulate_network(PARAMS, topo, events, t_end, dt)
    qcfg = QuantumRunConfig(
        circuit=circuit, window_ms=draw(st.sampled_from([0.5, 1.0, 2.0])), shots=300,
        encode_neurons=tuple(range(n)), potential_neuron=draw(st.integers(0, n - 1)),
        gate_pair=gate_pair, phases=phases, tags=tags, blocked_tags=blocked,
    )
    return traj, qcfg, draw(st.integers(0, 2**64 - 1))


@settings(max_examples=60, deadline=None)
@given(window_runs())
def test_run_quantum_windows_matches_oracle(run):
    traj, qcfg, seed = run
    try:
        want = oracle_windows(traj, qcfg, seed)
    except DegenerateStateError:
        with pytest.raises(DegenerateStateError):
            run_quantum_windows(traj, qcfg, seed)
        return
    got = run_quantum_windows(traj, qcfg, seed)
    assert len(got) == len(want)
    for rec, (degenerate, up_probs, psi_down, counts) in zip(got, want):
        assert rec.degenerate == degenerate
        assert rec.up_probs.tobytes() == up_probs.tobytes()
        assert rec.down_amplitudes.tobytes() == psi_down.amplitudes.tobytes()
        assert rec.down_probs.tobytes() == psi_down.probabilities().tobytes()
        assert np.array_equal(rec.counts, counts)


def test_measured_window_builds_one_state(monkeypatch):
    """States are amplitude lists from the encoding to the measurement: run_circuit,
    the encoding and the readout blanks build no QuantumState, and a measured window
    builds exactly one, the state passed to measure."""
    from qsynapse import calibration
    from qsynapse.scenario import parse_config

    golden = Path(__file__).parent / "golden"
    raw = json.loads((golden / "feedback" / "scenario.json").read_text())
    raw["quantum"].update(shutdown_links=[2], tags=["excite", "block", "neutral"],
                          blocked_tags=["block"])
    config = parse_config(raw, golden / "feedback")
    trains = [generate_poisson(config.profiles[k], config.t_end_ms, 1, k)
              for k in sorted(config.profiles)]
    traj = simulate_network(config.params, config.topology, merge_trains(trains),
                            config.t_end_ms, config.dt_ms)
    built, measured = [], []
    post_init = QuantumState.__post_init__

    def counted_post_init(self):
        built.append(self)
        post_init(self)

    def counted_measure(state, shots, seed):
        measured.append(state)
        return measure(state, shots, seed)

    monkeypatch.setattr(QuantumState, "__post_init__", counted_post_init)
    monkeypatch.setattr(calibration, "measure", counted_measure)
    records = run_quantum_windows(traj, config.quantum, 1)
    live = sum(not rec.degenerate for rec in records)
    assert live > 0
    assert len(measured) == live
    assert [id(s) for s in built] == [id(s) for s in measured]
