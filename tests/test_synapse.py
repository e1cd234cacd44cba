import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qsynapse import (
    CompositionTable,
    ConstraintViolationWarning,
    DegenerateEncodingError,
    DegenerateStateError,
    LifParams,
    OperatorMatrix,
    QuantumState,
    SynapseCircuit,
    UnknownTagError,
    default_composition_table,
    measure,
)
from qsynapse.calibration import readout
from qsynapse.synapse import (blanked, blocked_components, encode_amplitudes,
                              load_composition_table, run_circuit)

PARAMS = LifParams()


def encoded(probabilities, phases=None):
    return QuantumState.from_amplitudes(encode_amplitudes(probabilities, phases))


def basis(dim, k):
    return QuantumState.basis_state(dim, k).amplitudes.tolist()


def uniform(dim):
    return QuantumState.uniform(dim).amplitudes.tolist()


def norm(amps):
    return math.sqrt(sum(abs(a) ** 2 for a in amps))


class TestEncodeUp:
    """``encode_amplitudes``: crossing probabilities as a normalized upstream state."""

    def test_single_certain_link_is_basis_state(self):
        st_ = encoded([1.0, 0.0, 0.0, 0.0])
        assert st_.amplitudes[0] == 1.0
        assert np.array_equal(st_.probabilities(), [1.0, 0.0, 0.0, 0.0])

    def test_equal_pair_is_uniform(self):
        st_ = encoded([0.5, 0.5])
        assert st_.amplitudes == pytest.approx([1 / math.sqrt(2)] * 2)
        counts = measure(st_, 40_000, seed=3)
        assert abs(counts["0"] - counts["1"]) < 3 * math.sqrt(40_000 * 0.25) * 2

    def test_normalized_squares_match_and_sampling_agrees(self):
        p = [0.2, 0.3, 0.5]
        st_ = encoded(p)
        assert st_.probabilities() == pytest.approx(p, abs=1e-15)
        shots = 100_000
        counts = measure(st_, shots, seed=17)
        for k, pk in enumerate(p):
            sigma = math.sqrt(shots * pk * (1 - pk))
            assert abs(counts[str(k)] - shots * pk) < 3 * sigma

    def test_unnormalized_probabilities_rescaled(self):
        st_ = encoded([0.1, 0.1])
        assert st_.probabilities() == pytest.approx([0.5, 0.5])

    def test_phases_applied(self):
        st_ = encoded([0.5, 0.5], phases=[0.0, math.pi / 2])
        assert st_.amplitudes[1] == pytest.approx(1j / math.sqrt(2))

    def test_all_zero_degenerate(self):
        with pytest.raises(DegenerateEncodingError):
            encode_amplitudes([0.0, 0.0])

    def test_nan_rejected(self):
        with pytest.raises(ValueError, match=r"\[0, 1\]"):
            encode_amplitudes([math.nan, 0.5])

    def test_range_validation(self):
        with pytest.raises(ValueError, match=r"\[0, 1\]"):
            encode_amplitudes([0.5, 1.5])


class TestGateUp:
    """The classically-controlled NOT of a one-step window: the one-way record is the
    gated encoding."""

    def _record(self, v_now):
        up = encode_amplitudes([0.3, 0.7])
        record, _ = run_circuit(SynapseCircuit(2, 2), up, uniform(2), [v_now], PARAMS, 0.1,
                                gate_pair=(0, 1))
        return up, record

    def test_below_threshold_identity(self):
        up, record = self._record(PARAMS.v_rest)
        assert record is up

    def test_at_threshold_identity(self):
        up, record = self._record(PARAMS.v_thres)
        assert record is up

    def test_above_threshold_swaps(self):
        up, record = self._record(PARAMS.v_thres + 1.0)
        assert record == up[::-1]


class TestEvolveDown:
    """The downstream Euler step of one-way windows."""

    def test_hand_computed_euler_step(self):
        _, down = run_circuit(SynapseCircuit(2, 2), basis(2, 0), basis(2, 1), [PARAMS.v_rest],
                              PARAMS, 0.1)
        # pre-normalization (0.1, 1), normalized by sqrt(1.01)
        assert down == pytest.approx([0.09950371902099892, 0.9950371902099892], abs=1e-3)

    def test_scalar_term_drives_first_component(self):
        up = basis(3, 2)
        _, down = run_circuit(SynapseCircuit(3, 3), up, basis(3, 2), [PARAMS.v_rest + 10.0],
                              PARAMS, 0.5)
        kick = 0.5j * (PARAMS.g_leak / PARAMS.cm) * 10.0
        raw = np.array([kick, 0.0, 1.0]) + 0.5 * np.array(up)
        raw /= np.linalg.norm(raw)
        assert down == pytest.approx(raw, abs=1e-12)

    def test_first_order_convergence(self):
        t_end = 1.0

        def final(dt):
            n = int(round(t_end / dt))
            _, down = run_circuit(SynapseCircuit(2, 2), basis(2, 0), basis(2, 1),
                                  [PARAMS.v_rest + 3.0] * n, PARAMS, dt)
            return np.array(down)

        ref = final(t_end / 1024)
        errs = [np.abs(final(dt) - ref).max() for dt in (0.1, 0.05, 0.025)]
        orders = [math.log2(errs[i] / errs[i + 1]) for i in range(2)]
        for order in orders:
            assert abs(order - 1.0) < 0.3, (errs, orders)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="dimensions"):
            run_circuit(SynapseCircuit(2, 2), uniform(2), uniform(3), [-65.0], PARAMS, 0.1)


def _scalar_k(dim, c):
    return OperatorMatrix(c * np.eye(dim, dtype=complex), kind="hermitian")


def _bidirectional(dim, k=None, b_weights=None):
    return SynapseCircuit(dim, dim, mode="bidirectional", k_operator=k, b_weights=b_weights)


class TestSynapseCircuit:
    def test_bidirectional_requires_square(self):
        with pytest.raises(ValueError, match="equal dimensions"):
            SynapseCircuit(up_dim=2, down_dim=3, mode="bidirectional")

    def test_k_operator_kind_checked(self):
        with pytest.raises(ValueError, match="hermitian or unitary"):
            SynapseCircuit(
                up_dim=2, down_dim=2, mode="bidirectional",
                k_operator=OperatorMatrix(np.eye(2, dtype=complex), kind="general"),
            )

    def test_k_dimension_checked(self):
        with pytest.raises(ValueError, match="dimension"):
            _bidirectional(3, _scalar_k(2, 0.0))

    def test_non_finite_numbers_rejected(self):
        for kwargs, field in (
            ({"drive_scale": math.nan}, "drive_scale"),
            ({"drive_scale": math.inf}, "drive_scale"),
            ({"coupling": [[1.0, math.nan], [0.0, 1.0]]}, "coupling"),
            ({"b_weights": [0.5, complex(math.inf, 0.0)]}, "b_weights"),
        ):
            with pytest.raises(ValueError, match=f"{field}.*finite"):
                SynapseCircuit(2, 2, **kwargs)

    def test_coupling_shape_checked(self):
        with pytest.raises(ValueError, match="coupling"):
            SynapseCircuit(up_dim=2, down_dim=3, coupling=np.eye(2))

    def test_down_bound_warns_at_construction(self):
        with pytest.warns(ConstraintViolationWarning, match="downstream"):
            SynapseCircuit(
                up_dim=2, down_dim=2,
                b_weights=np.array([1.0, 1.0]), down_prob_bound=1.5,
            )

    def test_up_bound_warns_never_raises(self):
        circuit = SynapseCircuit(up_dim=2, down_dim=2, up_prob_bound=1.0)
        with pytest.warns(ConstraintViolationWarning, match="upstream"):
            circuit.check_up_probabilities([0.9, 0.9])
        circuit.check_up_probabilities([0.4, 0.4])  # inside the bound: silent


class TestBidirectionalStep:
    """The feedback round trip of one-step bidirectional windows."""

    def test_zero_feedback_reduces_to_one_way_wiring(self):
        up = encode_amplitudes([0.25, 0.75])
        circuit = _bidirectional(2, _scalar_k(2, 0.0), np.zeros(2))
        _, one_way_down = run_circuit(SynapseCircuit(2, 2), up, uniform(2), [PARAMS.v_rest],
                                      PARAMS, 0.1)
        up2, down2 = run_circuit(circuit, up, uniform(2), [PARAMS.v_rest], PARAMS, 0.1)
        assert down2 == one_way_down
        # the upstream state still takes its drive step, driven by the stepped downstream state
        _, expected = run_circuit(SynapseCircuit(2, 2), one_way_down, up, [PARAMS.v_rest],
                                  PARAMS, 0.1)
        assert up2 == expected

    def test_global_phase_feedback_invariant(self):
        alpha = encode_amplitudes([0.2, 0.3, 0.5])
        base_probs = None
        base_counts = None
        for theta in (0.0, 0.4, 1.3, 2.6):
            k = OperatorMatrix(np.exp(1j * theta) * np.eye(3, dtype=complex), kind="unitary")
            up2, _ = run_circuit(_bidirectional(3, k), alpha, alpha, [PARAMS.v_rest], PARAMS, 0.05)
            state = QuantumState.from_amplitudes(up2)
            probs = state.probabilities()
            counts = measure(state, 20_000, seed=5)
            if base_probs is None:
                base_probs, base_counts = probs, counts
            else:
                assert probs == pytest.approx(base_probs, abs=1e-12)
                assert counts == base_counts

    def test_scalar_mixing_preserves_uniform(self):
        up2, _ = run_circuit(_bidirectional(4, _scalar_k(4, 0.5)), uniform(4), uniform(4),
                             [PARAMS.v_rest], PARAMS, 0.1)
        assert [abs(a) ** 2 for a in up2] == pytest.approx([0.25] * 4, abs=1e-12)

    def _collapse(self, stage, circuit, down, dt):
        with pytest.raises(DegenerateStateError, match=stage):
            run_circuit(circuit, basis(2, 0), down, [PARAMS.v_rest], PARAMS, dt)

    def test_downstream_evolution_collapse_named(self):
        # -e0 + 1.0*e0 is zero before the round trip starts
        self._collapse("downstream evolution step", _bidirectional(2), [-1 + 0j, 0j], 1.0)

    def test_feedback_mix_collapse_named(self):
        # normalize(e0 + 1.0*e0) = e0 exactly; K = -I cancels it in the mix
        self._collapse("feedback mix", _bidirectional(2, _scalar_k(2, -1.0)), basis(2, 0), 1.0)

    def test_upstream_drive_collapse_named(self):
        # the mix normalize(e0 - 2*e0) = -e0 exactly; its drive step adds 1.0*e0
        self._collapse("upstream drive step", _bidirectional(2, _scalar_k(2, -2.0)),
                       basis(2, 0), 1.0)

    def test_downstream_combination_collapse_named(self):
        # dt=2 makes both drive steps exact: normalize(e0 + 2 e0) = e0, so
        # b = (-1, 0) cancels the downstream state exactly
        self._collapse("downstream combination", _bidirectional(2, b_weights=[-1.0, 0.0]),
                       basis(2, 0), 2.0)


class TestShutdownLink:
    """Shutdown links as the readout blanks them."""

    def test_already_zero_unchanged(self):
        amps = basis(3, 0)
        assert blanked(amps, (2,), "link 2 is the only nonzero component") is amps

    def test_uniform_renormalizes_over_rest(self):
        out = blanked(uniform(4), (2,), "link 2 is the only nonzero component")
        assert [abs(a) ** 2 for a in out] == pytest.approx([1 / 3, 1 / 3, 0.0, 1 / 3])
        assert out[2] == 0.0
        counts = readout(SynapseCircuit(4, 4, shutdown_links=(2,)), uniform(4), 30_000, 4)
        assert counts[2] == 0
        sigma = math.sqrt(30_000 * (1 / 3) * (2 / 3))
        assert np.all(np.abs(counts[[0, 1, 3]] - 10_000) < 4 * sigma)

    def test_measurement_exactly_zero(self):
        counts = readout(SynapseCircuit(4, 4, shutdown_links=(1,)), uniform(4), 100_000, 8)
        assert counts[1] == 0
        assert counts.sum() == 100_000

    def test_only_component_rejected(self):
        with pytest.raises(DegenerateStateError, match="only nonzero"):
            readout(SynapseCircuit(2, 2, shutdown_links=(1,)), basis(2, 1), 10, 0)

    def test_range_check(self):
        with pytest.raises(ValueError, match="out of range"):
            SynapseCircuit(2, 2, shutdown_links=(5,))


class TestCompositionTable:
    def test_default_table_identity(self):
        table = default_composition_table()
        assert table.identity == "neutral"
        for x in table.elements:
            assert table.compose("neutral", x) == x
            assert table.compose(x, "neutral") == x

    def test_default_table_absorbing_block(self):
        table = default_composition_table()
        for x in table.elements:
            assert table.compose("block", x) == "block"
            assert table.compose(x, "block") == "block"

    def test_default_table_associative_exhaustive(self):
        table = default_composition_table()
        for a in table.elements:
            for b in table.elements:
                for c in table.elements:
                    left = table.compose(table.compose(a, b), c)
                    right = table.compose(a, table.compose(b, c))
                    assert left == right

    def test_unknown_tag_error(self):
        table = default_composition_table()
        with pytest.raises(UnknownTagError, match="purple"):
            table.compose("purple", "neutral")

    def test_rejects_non_associative(self):
        elems = ("e", "x", "y")
        prods = {("e", a): a for a in elems} | {(a, "e"): a for a in elems}
        prods |= {("x", "x"): "x", ("x", "y"): "y", ("y", "x"): "x", ("y", "y"): "x"}
        with pytest.raises(ValueError, match="associative"):
            CompositionTable(elems, prods)

    def test_rejects_missing_identity(self):
        elems = ("a", "b")
        prods = {(x, y): x for x in elems for y in elems}  # left projection
        with pytest.raises(ValueError, match="identity"):
            CompositionTable(elems, prods)

    def test_rejects_partial_table(self):
        with pytest.raises(ValueError, match="total"):
            CompositionTable(("a", "b"), {("a", "a"): "a"})

    def test_load_from_text(self, tmp_path):
        path = tmp_path / "table.txt"
        path.write_text(
            "neutral excite inhibit block\n"
            "neutral excite inhibit block\n"
            "excite excite block block\n"
            "inhibit block inhibit block\n"
            "block block block block\n"
        )
        table = load_composition_table(path)
        assert table.products == default_composition_table().products


class TestGateByTag:
    """Blocked tags as the readout blanks them."""

    TAGS = ("neutral", "excite", "inhibit", "block")
    AMPS = encode_amplitudes([0.1, 0.2, 0.3, 0.4])

    def _blank(self, amps, blocked):
        return blanked(amps, blocked_components(self.TAGS, blocked),
                       "every component is blocked by tag")

    def test_empty_blocked_identity(self):
        assert self._blank(self.AMPS, set()) is self.AMPS

    def test_block_all_but_one(self):
        out = self._blank(self.AMPS, {"neutral", "excite", "block"})
        assert [abs(a) ** 2 for a in out] == pytest.approx([0, 0, 1.0, 0], abs=1e-12)
        counts = readout(SynapseCircuit(4, 4), self.AMPS, 5_000, 1, self.TAGS,
                         ("neutral", "excite", "block"))
        assert counts.tolist() == [0, 0, 5_000, 0]

    def test_idempotent_bitwise(self):
        once = self._blank(self.AMPS, {"excite"})
        assert once is not self.AMPS
        assert self._blank(once, {"excite"}) is once

    def test_all_blocked_degenerate(self):
        with pytest.raises(DegenerateStateError, match="blocked"):
            readout(SynapseCircuit(4, 4), self.AMPS, 10, 0, self.TAGS, self.TAGS)

    def test_tags_length_enforced(self):
        with pytest.raises(ValueError, match="length"):
            readout(SynapseCircuit(3, 3), uniform(3), 10, 0, ("a", "b"), ("a",))


@settings(max_examples=50, deadline=None)
@given(
    probs=st.lists(st.floats(0.01, 1.0), min_size=2, max_size=6),
    v_offset=st.floats(-10.0, 10.0),
    dt=st.floats(0.01, 0.5),
)
def test_pipeline_steps_stay_normalized(probs, v_offset, dt):
    circuit = SynapseCircuit(len(probs), len(probs))
    up, down = run_circuit(circuit, encode_amplitudes(probs), uniform(len(probs)),
                           [PARAMS.v_rest + v_offset], PARAMS, dt, gate_pair=(0, 1))
    assert abs(norm(down) - 1.0) < 1e-10
    assert abs(norm(up) - 1.0) < 1e-10


def test_unitary_k_preserves_norm_before_renormalization():
    rng = np.random.default_rng(14)
    a = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    h = (a + a.conj().T) / 2.0
    from qsynapse import expm_hermitian

    k = expm_hermitian(OperatorMatrix(h, kind="hermitian"), 0.9)
    down = encode_amplitudes([0.2, 0.3, 0.5])
    fed = k.entries @ np.array(down)
    assert abs(np.linalg.norm(fed) - 1.0) < 1e-10
    up2, down2 = run_circuit(_bidirectional(3, k), down, down, [PARAMS.v_rest], PARAMS, 0.1)
    assert abs(norm(up2) - 1.0) < 1e-10
    assert abs(norm(down2) - 1.0) < 1e-10
