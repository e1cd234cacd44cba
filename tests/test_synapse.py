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
    TaggedState,
    UnknownTagError,
    bidirectional_step,
    default_composition_table,
    encode_up,
    evolve_down,
    gate_by_tag,
    gate_up,
    measure,
    shutdown_link,
)
from qsynapse.synapse import load_composition_table

PARAMS = LifParams()


class TestEncodeUp:
    def test_single_certain_link_is_basis_state(self):
        st_ = encode_up([1.0, 0.0, 0.0, 0.0])
        assert st_.amplitudes[0] == 1.0
        assert np.array_equal(st_.probabilities(), [1.0, 0.0, 0.0, 0.0])

    def test_equal_pair_is_uniform(self):
        st_ = encode_up([0.5, 0.5])
        assert st_.amplitudes == pytest.approx([1 / math.sqrt(2)] * 2)
        counts = measure(st_, 40_000, seed=3)
        assert abs(counts["0"] - counts["1"]) < 3 * math.sqrt(40_000 * 0.25) * 2

    def test_normalized_squares_match_and_sampling_agrees(self):
        p = [0.2, 0.3, 0.5]
        st_ = encode_up(p)
        assert st_.probabilities() == pytest.approx(p, abs=1e-15)
        shots = 100_000
        counts = measure(st_, shots, seed=17)
        for k, pk in enumerate(p):
            sigma = math.sqrt(shots * pk * (1 - pk))
            assert abs(counts[str(k)] - shots * pk) < 3 * sigma

    def test_unnormalized_probabilities_rescaled(self):
        st_ = encode_up([0.1, 0.1])
        assert st_.probabilities() == pytest.approx([0.5, 0.5])

    def test_phases_applied(self):
        st_ = encode_up([0.5, 0.5], phases=[0.0, math.pi / 2])
        assert st_.amplitudes[1] == pytest.approx(1j / math.sqrt(2))

    def test_all_zero_degenerate(self):
        with pytest.raises(DegenerateEncodingError):
            encode_up([0.0, 0.0])

    def test_nan_rejected(self):
        with pytest.raises(ValueError, match=r"\[0, 1\]"):
            encode_up([math.nan, 0.5])

    def test_range_validation(self):
        with pytest.raises(ValueError, match=r"\[0, 1\]"):
            encode_up([0.5, 1.5])


class TestGateUp:
    def test_below_threshold_identity(self):
        st_ = encode_up([0.3, 0.7])
        assert gate_up(st_, PARAMS.v_rest, PARAMS.v_thres, (0, 1)) is st_

    def test_at_threshold_identity(self):
        st_ = encode_up([0.3, 0.7])
        assert gate_up(st_, PARAMS.v_thres, PARAMS.v_thres, (0, 1)) is st_

    def test_above_threshold_swaps(self):
        st_ = encode_up([0.3, 0.7])
        out = gate_up(st_, PARAMS.v_thres + 1.0, PARAMS.v_thres, (0, 1))
        assert np.array_equal(out.probabilities(), st_.probabilities()[::-1])


class TestEvolveDown:
    def test_no_sources_is_identity(self):
        down = QuantumState.uniform(3)
        out = evolve_down(down, None, PARAMS.v_rest, PARAMS, 1.0, 0.1)
        assert out is down

    def test_hand_computed_euler_step(self):
        down = QuantumState.basis_state(2, 1)
        up = QuantumState.basis_state(2, 0)
        out = evolve_down(down, up, PARAMS.v_rest, PARAMS, 1.0, 0.1)
        # pre-normalization (0.1, 1), normalized by sqrt(1.01)
        assert out.amplitudes == pytest.approx(
            [0.09950371902099892, 0.9950371902099892], abs=1e-3
        )

    def test_scalar_term_drives_first_component(self):
        down = QuantumState.basis_state(3, 2)
        out = evolve_down(down, None, PARAMS.v_rest + 10.0, PARAMS, 1.0, 0.5)
        expected0 = 0.5j * (PARAMS.g_leak / PARAMS.cm) * 10.0
        raw = np.array([expected0, 0.0, 1.0])
        raw /= np.linalg.norm(raw)
        assert out.amplitudes == pytest.approx(raw, abs=1e-12)

    def test_first_order_convergence(self):
        up = QuantumState.basis_state(2, 0)
        t_end = 1.0

        def final(dt):
            down = QuantumState.basis_state(2, 1)
            for _ in range(int(round(t_end / dt))):
                down = evolve_down(down, up, PARAMS.v_rest + 3.0, PARAMS, 1.0, dt)
            return down.amplitudes

        ref = final(t_end / 1024)
        errs = [np.abs(final(dt) - ref).max() for dt in (0.1, 0.05, 0.025)]
        orders = [math.log2(errs[i] / errs[i + 1]) for i in range(2)]
        for order in orders:
            assert abs(order - 1.0) < 0.3, (errs, orders)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="dimensions differ"):
            evolve_down(QuantumState.uniform(2), QuantumState.uniform(3), -65, PARAMS, 1.0, 0.1)


def _zero_k(dim):
    return OperatorMatrix(np.zeros((dim, dim), dtype=complex), kind="hermitian")


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
            SynapseCircuit(up_dim=3, down_dim=3, mode="bidirectional", k_operator=_zero_k(2))

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
    def test_zero_feedback_reduces_to_one_way_wiring(self):
        up = encode_up([0.25, 0.75])
        down = QuantumState.uniform(2)
        circuit = SynapseCircuit(
            up_dim=2, down_dim=2, mode="bidirectional",
            k_operator=_zero_k(2), b_weights=np.zeros(2),
        )
        up2, down2 = bidirectional_step(circuit, up, down, PARAMS.v_rest, PARAMS, 0.1)
        assert down2 is down
        # the upstream state still takes its drive step
        expected = evolve_down(up, down, PARAMS.v_rest, PARAMS, 1.0, 0.1)
        assert np.array_equal(up2.amplitudes, expected.amplitudes)

    def test_global_phase_feedback_invariant(self):
        alpha = encode_up([0.2, 0.3, 0.5])
        base_probs = None
        base_counts = None
        for theta in (0.0, 0.4, 1.3, 2.6):
            k = OperatorMatrix(
                np.exp(1j * theta) * np.eye(3, dtype=complex), kind="unitary"
            )
            circuit = SynapseCircuit(up_dim=3, down_dim=3, mode="bidirectional", k_operator=k)
            up2, _ = bidirectional_step(circuit, alpha, alpha, PARAMS.v_rest, PARAMS, 0.05)
            probs = up2.probabilities()
            counts = measure(up2, 20_000, seed=5)
            if base_probs is None:
                base_probs, base_counts = probs, counts
            else:
                assert probs == pytest.approx(base_probs, abs=1e-12)
                assert counts == base_counts

    def test_scalar_mixing_preserves_uniform(self):
        uniform = QuantumState.uniform(4)
        k = OperatorMatrix(0.5 * np.eye(4, dtype=complex), kind="hermitian")
        circuit = SynapseCircuit(up_dim=4, down_dim=4, mode="bidirectional", k_operator=k)
        up2, _ = bidirectional_step(circuit, uniform, uniform, PARAMS.v_rest, PARAMS, 0.1)
        assert up2.probabilities() == pytest.approx([0.25] * 4, abs=1e-12)

    def test_feedback_mix_collapse_named(self):
        up = QuantumState.uniform(2)
        k = OperatorMatrix(-np.eye(2, dtype=complex), kind="hermitian")
        circuit = SynapseCircuit(up_dim=2, down_dim=2, mode="bidirectional", k_operator=k)
        with pytest.raises(DegenerateStateError, match="feedback mix"):
            bidirectional_step(circuit, up, up, PARAMS.v_rest, PARAMS, 0.1)

    def test_upstream_drive_collapse_named(self):
        up = QuantumState.basis_state(2, 0)
        down = QuantumState.from_amplitudes([-1.0, 0.0])
        circuit = SynapseCircuit(up_dim=2, down_dim=2, mode="bidirectional")
        with pytest.raises(DegenerateStateError, match="upstream drive step"):
            bidirectional_step(circuit, up, down, PARAMS.v_rest, PARAMS, 1.0)

    def test_downstream_combination_collapse_named(self):
        # dt=2 makes the drive step exact: normalize(e0 + 2 e0) = e0, so
        # b = (-1, 0) cancels the downstream state exactly
        up = QuantumState.basis_state(2, 0)
        down = QuantumState.basis_state(2, 0)
        circuit = SynapseCircuit(
            up_dim=2, down_dim=2, mode="bidirectional",
            b_weights=np.array([-1.0, 0.0]),
        )
        with pytest.raises(DegenerateStateError, match="downstream combination"):
            bidirectional_step(circuit, up, down, PARAMS.v_rest, PARAMS, 2.0)

    def test_mode_enforced(self):
        circuit = SynapseCircuit(up_dim=2, down_dim=2)
        st_ = QuantumState.uniform(2)
        with pytest.raises(ValueError, match="not bidirectional"):
            bidirectional_step(circuit, st_, st_, -65.0, PARAMS, 0.1)


class TestShutdownLink:
    def test_already_zero_unchanged(self):
        st_ = QuantumState.basis_state(3, 0)
        assert shutdown_link(st_, 2) is st_

    def test_uniform_renormalizes_over_rest(self):
        st_ = QuantumState.uniform(4)
        out = shutdown_link(st_, 2)
        assert out.probabilities() == pytest.approx([1 / 3, 1 / 3, 0.0, 1 / 3])
        assert out.probabilities()[2] == 0.0

    def test_measurement_exactly_zero(self):
        out = shutdown_link(QuantumState.uniform(4), 1)
        counts = measure(out, 100_000, seed=8)
        assert counts["1"] == 0

    def test_only_component_rejected(self):
        with pytest.raises(DegenerateStateError, match="only nonzero"):
            shutdown_link(QuantumState.basis_state(2, 1), 1)

    def test_range_check(self):
        with pytest.raises(ValueError, match="out of range"):
            shutdown_link(QuantumState.uniform(2), 5)


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
    def _tagged(self, probs=(0.1, 0.2, 0.3, 0.4)):
        table = default_composition_table()
        tags = ("neutral", "excite", "inhibit", "block")
        return TaggedState(encode_up(list(probs)), tags), table

    def test_empty_blocked_identity(self):
        tagged, _ = self._tagged()
        assert gate_by_tag(tagged, set()) is tagged

    def test_block_all_but_one(self):
        tagged, _ = self._tagged()
        out = gate_by_tag(tagged, {"neutral", "excite", "block"})
        assert out.state.probabilities() == pytest.approx([0, 0, 1.0, 0], abs=1e-12)
        assert out.tags == tagged.tags

    def test_idempotent_bitwise(self):
        tagged, _ = self._tagged()
        once = gate_by_tag(tagged, {"excite"})
        twice = gate_by_tag(once, {"excite"})
        assert twice is once

    def test_all_blocked_degenerate(self):
        tagged, _ = self._tagged()
        with pytest.raises(DegenerateStateError, match="blocked"):
            gate_by_tag(tagged, {"neutral", "excite", "inhibit", "block"})

    def test_tags_length_enforced(self):
        with pytest.raises(ValueError, match="length"):
            TaggedState(QuantumState.uniform(3), ("a", "b"))


@settings(max_examples=50, deadline=None)
@given(
    probs=st.lists(st.floats(0.01, 1.0), min_size=2, max_size=6),
    v_offset=st.floats(-10.0, 10.0),
    dt=st.floats(0.01, 0.5),
)
def test_pipeline_steps_stay_normalized(probs, v_offset, dt):
    up = encode_up(probs)
    down = QuantumState.uniform(len(probs))
    up = gate_up(up, PARAMS.v_rest + v_offset, PARAMS.v_thres, (0, 1))
    down = evolve_down(down, up, PARAMS.v_rest + v_offset, PARAMS, 1.0, dt)
    assert abs(down.norm() - 1.0) < 1e-10
    assert abs(up.norm() - 1.0) < 1e-10


def test_unitary_k_preserves_norm_before_renormalization():
    rng = np.random.default_rng(14)
    a = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    h = (a + a.conj().T) / 2.0
    from qsynapse import expm_hermitian

    k = expm_hermitian(OperatorMatrix(h, kind="hermitian"), 0.9)
    down = encode_up([0.2, 0.3, 0.5])
    fed = k.entries @ down.amplitudes
    assert abs(np.linalg.norm(fed) - 1.0) < 1e-10
    circuit = SynapseCircuit(up_dim=3, down_dim=3, mode="bidirectional", k_operator=k)
    up2, down2 = bidirectional_step(circuit, down, down, PARAMS.v_rest, PARAMS, 0.1)
    assert abs(up2.norm() - 1.0) < 1e-10
    assert abs(down2.norm() - 1.0) < 1e-10
