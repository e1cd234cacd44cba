import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qsynapse import (
    DegenerateStateError,
    OperatorMatrix,
    QuantumState,
    RotationSpec,
    apply_operator,
    classically_controlled_not,
    cnot_matrix,
    expm_hermitian,
    measure,
    rotation_operator,
)
from qsynapse.engine import (
    MAX_STATE_DIM,
    load_operator_text,
    save_operator_text,
    spin_half_generators,
)
from qsynapse.harness import window_measure_seed
from qsynapse.rng import COMPARE_EDGES, SHOT_BLOCK, sample_counts, stream_rng


def taylor_expm(h: np.ndarray, scale: float, terms: int = 30) -> np.ndarray:
    """Truncated series for exp(i*scale*h); the independent oracle."""
    a = 1j * scale * h
    out = np.eye(h.shape[0], dtype=complex)
    term = np.eye(h.shape[0], dtype=complex)
    for n in range(1, terms):
        term = term @ a / n
        out = out + term
    return out


def random_hermitian(rng: np.random.Generator, dim: int) -> np.ndarray:
    a = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    return (a + a.conj().T) / 2.0


class TestQuantumState:
    def test_norm_enforced(self):
        with pytest.raises(ValueError, match="norm"):
            QuantumState(np.array([1.0, 1.0], dtype=complex), ("0", "1"))

    def test_from_amplitudes_normalize(self):
        st_ = QuantumState.from_amplitudes([1.0, 1.0], normalize=True)
        assert st_.probabilities() == pytest.approx([0.5, 0.5])

    def test_amplitudes_read_only(self):
        st_ = QuantumState.uniform(2)
        with pytest.raises(ValueError):
            st_.amplitudes[0] = 0.0

    def test_dimension_cap(self):
        from qsynapse.engine import MAX_STATE_DIM

        with pytest.raises(ValueError, match="cap"):
            QuantumState.uniform(MAX_STATE_DIM + 1)

    def test_labels_must_match(self):
        with pytest.raises(ValueError, match="labels"):
            QuantumState(np.array([1.0 + 0j]), ("a", "b"))

    def test_labels_must_be_distinct(self):
        """A repeated label merged two bins in measure's dict: 353 of 1000 shots vanished."""
        with pytest.raises(ValueError, match="distinct"):
            QuantumState.from_amplitudes([0.6, 0.8], labels=("a", "a"))


class TestOperatorMatrix:
    def test_hermitian_verified(self):
        with pytest.raises(ValueError, match="hermitian"):
            OperatorMatrix(np.array([[0, 1], [0, 0]], dtype=complex), kind="hermitian")
        OperatorMatrix(np.array([[1, 2j], [-2j, 3]], dtype=complex), kind="hermitian")

    def test_unitary_verified(self):
        with pytest.raises(ValueError, match="unitary"):
            OperatorMatrix(np.array([[2, 0], [0, 1]], dtype=complex), kind="unitary")

    def test_general_unchecked(self):
        OperatorMatrix(np.array([[5, 1], [0, 0]], dtype=complex))

    @pytest.mark.parametrize("bad", [math.nan, math.inf, complex(0.0, math.nan)])
    def test_non_finite_entries_rejected(self, bad):
        """A NaN fails every ``dev >= tol`` test, so it passed the Hermitian check."""
        for kind in ("general", "hermitian", "unitary"):
            with pytest.raises(ValueError, match="finite"):
                OperatorMatrix([[bad, 0], [0, 1]], kind=kind)


def test_non_finite_state_rejected():
    for amps in ([math.nan, 0.5], [math.inf, 0.0], [complex(0.6, math.nan), 0.8]):
        with pytest.raises(ValueError, match="norm"):
            QuantumState(amps, ("0", "1"))


class TestCnot:
    def test_exact_matrix(self):
        expected = np.array(
            [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]], dtype=complex
        )
        assert np.array_equal(cnot_matrix().entries, expected)

    def test_control_set_swaps(self):
        c = cnot_matrix().entries
        e10 = np.zeros(4, dtype=complex)
        e10[2] = 1.0
        e11 = np.zeros(4, dtype=complex)
        e11[3] = 1.0
        assert np.array_equal(c @ e10, e11)
        assert np.array_equal(c @ e11, e10)

    def test_control_clear_fixes(self):
        c = cnot_matrix().entries
        for k in (0, 1):
            e = np.zeros(4, dtype=complex)
            e[k] = 1.0
            assert np.array_equal(c @ e, e)

    def test_involution_exact(self):
        c = cnot_matrix().entries
        assert np.array_equal(c @ c, np.eye(4, dtype=complex))

    def test_permutation_rows_and_columns(self):
        c = cnot_matrix().entries
        assert (np.abs(c).sum(axis=0) == 1).all()
        assert (np.abs(c).sum(axis=1) == 1).all()
        assert ((c == 0) | (c == 1)).all()


class TestClassicallyControlledNot:
    def test_control_false_identity(self):
        st_ = QuantumState.from_amplitudes([0.6, 0.8j])
        out = classically_controlled_not(st_, (0, 1), False)
        assert out is st_

    def test_swap_and_involution(self):
        st_ = QuantumState.from_amplitudes([0.6, 0.0, 0.8j, 0.0])
        once = classically_controlled_not(st_, (0, 2), True)
        assert once.amplitudes[0] == 0.8j
        assert once.amplitudes[2] == 0.6
        assert np.array_equal(
            classically_controlled_not(once, (0, 2), True).amplitudes, st_.amplitudes
        )

    def test_other_components_untouched(self):
        st_ = QuantumState.uniform(4)
        out = classically_controlled_not(st_, (1, 3), True)
        assert out.amplitudes[0] == st_.amplitudes[0]
        assert out.amplitudes[2] == st_.amplitudes[2]

    def test_index_validation(self):
        st_ = QuantumState.uniform(2)
        with pytest.raises(ValueError, match="out of range"):
            classically_controlled_not(st_, (0, 5), True)
        with pytest.raises(ValueError, match="distinct"):
            classically_controlled_not(st_, (1, 1), True)


class TestApplyOperator:
    def test_identity(self):
        st_ = QuantumState.uniform(3)
        out = apply_operator(st_, OperatorMatrix(np.eye(3, dtype=complex), "unitary"), False)
        assert np.array_equal(out.amplitudes, st_.amplitudes)

    def test_unitary_preserves_norm(self):
        rng = np.random.default_rng(0)
        h = random_hermitian(rng, 4)
        u = expm_hermitian(OperatorMatrix(h, "hermitian"), 0.7)
        st_ = QuantumState.from_amplitudes(rng.standard_normal(4) + 1j, normalize=True)
        out = apply_operator(st_, u, renormalize=False)
        assert abs(out.norm() - 1.0) < 1e-10

    def test_uniform_attenuation_cancels(self):
        st_ = QuantumState.from_amplitudes([0.6, 0.8], normalize=True)
        half = OperatorMatrix(0.5 * np.eye(2, dtype=complex))
        out = apply_operator(st_, half, renormalize=True)
        assert np.array_equal(out.amplitudes, st_.amplitudes)

    def test_zero_result_degenerate(self):
        st_ = QuantumState.from_amplitudes([1.0, 0.0])
        zero = OperatorMatrix(np.zeros((2, 2), dtype=complex))
        with pytest.raises(DegenerateStateError):
            apply_operator(st_, zero, renormalize=True)

    def test_non_unitary_without_renormalize_rejected(self):
        st_ = QuantumState.from_amplitudes([1.0, 0.0])
        half = OperatorMatrix(0.5 * np.eye(2, dtype=complex))
        with pytest.raises(ValueError, match="renormalize"):
            apply_operator(st_, half, renormalize=False)


class TestExpmHermitian:
    def test_scale_zero_identity(self):
        h = OperatorMatrix(np.array([[1, 2j], [-2j, -1]], dtype=complex), "hermitian")
        out = expm_hermitian(h, 0.0)
        assert np.allclose(out.entries, np.eye(2), atol=1e-14)

    def test_pauli_z_half_turn(self):
        # exp(-i*pi*sigma_z) = -I, via both the closed form and the series oracle
        _, _, jz = spin_half_generators()
        h = OperatorMatrix(jz, "hermitian")
        out = expm_hermitian(h, -2.0 * math.pi)
        assert np.abs(out.entries + np.eye(2)).max() < 1e-10
        assert np.abs(out.entries - taylor_expm(jz, -2.0 * math.pi)).max() < 1e-9

    def test_matches_taylor_oracle_random(self):
        rng = np.random.default_rng(42)
        for dim in (2, 3, 5, 8):
            h = random_hermitian(rng, dim)
            scale = float(rng.uniform(-1.5, 1.5))
            got = expm_hermitian(OperatorMatrix(h, "hermitian"), scale)
            assert np.abs(got.entries - taylor_expm(h, scale)).max() < 1e-9

    def test_commuting_semigroup(self):
        rng = np.random.default_rng(3)
        h = OperatorMatrix(random_hermitian(rng, 6), "hermitian")
        a, b = 0.4, -1.1
        lhs = expm_hermitian(h, a).entries @ expm_hermitian(h, b).entries
        rhs = expm_hermitian(h, a + b).entries
        assert np.abs(lhs - rhs).max() < 1e-9

    def test_rejects_non_hermitian(self):
        m = OperatorMatrix(np.array([[0, 1], [0, 0]], dtype=complex))
        with pytest.raises(ValueError, match="not hermitian"):
            expm_hermitian(m, 1.0)


@settings(max_examples=60, deadline=None)
@given(dim=st.integers(1, 16), key=st.integers(0, 2**32 - 1), scale=st.floats(-4, 4))
def test_expm_unitarity_property(dim, key, scale):
    rng = np.random.default_rng(key)
    h = OperatorMatrix(random_hermitian(rng, dim), "hermitian")
    u = expm_hermitian(h, scale)
    dev = np.linalg.norm(u.entries.conj().T @ u.entries - np.eye(dim))
    assert dev < 1e-10


class TestRotationOperator:
    def test_zero_angle_identity(self):
        spec = RotationSpec.spin_half([0.0, 0.0, 1.0], 0.0)
        out = rotation_operator(spec)
        assert np.allclose(out.entries, np.eye(2), atol=1e-14)

    def test_rz_full_turn_is_minus_identity(self):
        out = rotation_operator(RotationSpec.spin_half([0, 0, 1], 2.0 * math.pi))
        assert np.abs(out.entries + np.eye(2)).max() < 1e-10

    def test_rx_ry_do_not_commute(self):
        rx = rotation_operator(RotationSpec.spin_half([1, 0, 0], math.pi / 2)).entries
        ry = rotation_operator(RotationSpec.spin_half([0, 1, 0], math.pi / 2)).entries
        assert np.linalg.norm(rx @ ry - ry @ rx) > 0.1

    def test_rx_matches_closed_form(self):
        # R_n(theta) = cos(theta/2) I - i sin(theta/2) (n . sigma)
        theta = math.pi / 2
        c, s = math.cos(theta / 2), math.sin(theta / 2)
        expected = np.array([[c, -1j * s], [-1j * s, c]])
        got = rotation_operator(RotationSpec.spin_half([1, 0, 0], theta)).entries
        assert np.abs(got - expected).max() < 1e-12

    def test_axis_must_be_unit(self):
        with pytest.raises(ValueError, match="unit"):
            RotationSpec.spin_half([1.0, 1.0, 0.0], 1.0)

    def test_generators_must_be_hermitian(self):
        bad = np.array([[0, 1], [0, 0]], dtype=complex)
        with pytest.raises(ValueError, match="hermitian"):
            RotationSpec(np.array([0.0, 0.0, 1.0]), 1.0, (bad, bad, bad))


class TestMeasure:
    def test_basis_state_all_shots(self):
        st_ = QuantumState.basis_state(4, 2)
        counts = measure(st_, 500, seed=1)
        assert counts == {"0": 0, "1": 0, "2": 500, "3": 0}

    def test_uniform_within_binomial_bound(self):
        st_ = QuantumState.uniform(4)
        counts = measure(st_, 100_000, seed=12)
        bound = 3 * math.sqrt(100_000 * 0.25 * 0.75)  # ~411
        for c in counts.values():
            assert abs(c - 25_000) < bound

    def test_deterministic_given_seed(self):
        st_ = QuantumState.from_amplitudes([0.3, 0.4, 0.5, 0.6, 0.2], normalize=True)
        assert measure(st_, 10_000, seed=77) == measure(st_, 10_000, seed=77)
        assert measure(st_, 10_000, seed=77) != measure(st_, 10_000, seed=78)

    def test_seeds_at_or_above_2_63_keep_their_low_bits(self):
        assert not np.array_equal(stream_rng(2**63 + 1).random(4), stream_rng(2**63 + 2).random(4))

    def test_salted_window_seeds_draw_distinct_histograms(self):
        st_ = QuantumState.from_amplitudes([math.sqrt(0.3), math.sqrt(0.7)], normalize=True)
        zeros = {measure(st_, 2000, window_measure_seed(1 << 20, w))["0"] for w in range(50)}
        assert len(zeros) > 10  # binomial sd ~20 over 50 windows

    def test_histogram_sums_to_shots(self):
        st_ = QuantumState.from_amplitudes([1.0, 2.0, 3.0], normalize=True)
        counts = measure(st_, 12_345, seed=5)
        assert sum(counts.values()) == 12_345

    def test_shots_validation(self):
        with pytest.raises(ValueError):
            measure(QuantumState.uniform(2), 0, seed=1)

    @pytest.mark.parametrize("shots", [1, SHOT_BLOCK - 1, SHOT_BLOCK, SHOT_BLOCK + 1,
                                       3 * SHOT_BLOCK + 17])
    def test_block_counts_equal_one_draw(self, shots):
        """Counting block by block equals one inverse-CDF pass over all the uniforms."""
        p = np.array([0.0, 0.25, 0.0, 0.5, 0.25, 0.0])
        cdf = np.cumsum(p / p.sum())
        idx = np.minimum(np.searchsorted(cdf, stream_rng(9, 3).random(shots), side="right"), 4)
        counts = sample_counts(p, shots, stream_rng(9, 3))
        assert counts == np.bincount(idx, minlength=p.size).tolist()
        assert [counts[k] for k in (0, 2, 5)] == [0, 0, 0]


    def test_counts_equal_a_fresh_stream_per_call(self):
        """measure re-keys one generator per call; the counts are those of a generator built
        for the seed, whatever seed the previous call used and however far it drew."""
        st_ = QuantumState.from_amplitudes([0.1, 0.7, 0.0, 0.4, 0.5], normalize=True)
        p = st_.probabilities()
        seeds = [0, 2**63, 5, 2**63 + 1, 2**64 - 1, 5, 2**63, window_measure_seed(2**63 + 7, 3)]
        for k, seed in enumerate(seeds):
            shots = (1, 999, SHOT_BLOCK + 3)[k % 3]
            want = sample_counts(p, shots, stream_rng(seed))
            assert list(measure(st_, shots, seed).values()) == want, seed

    def test_threads_measuring_at_once_match_serial_calls(self):
        """Each thread re-keys its own generator, so concurrent calls with different seeds,
        each drawing several blocks, give the counts of serial calls."""
        from concurrent.futures import ThreadPoolExecutor

        st_ = QuantumState.from_amplitudes([0.1, 0.7, 0.0, 0.4, 0.5], normalize=True)
        shots = 3 * SHOT_BLOCK + 5
        seeds = [2**63 + k if k % 2 else k for k in range(24)]
        serial = [measure(st_, shots, seed) for seed in seeds]
        with ThreadPoolExecutor(max_workers=4) as pool:
            parallel = list(pool.map(lambda seed: measure(st_, shots, seed), seeds))
        assert parallel == serial


def searchsorted_counts(probs, shots, rng, block):
    """The oracle: one inverse-CDF search over the whole CDF, with an overflow guard."""
    p = np.asarray(probs, dtype=float)
    cdf = np.cumsum(p / p.sum())
    last_nonzero = int(np.flatnonzero(p)[-1])
    counts = np.zeros(p.size, dtype=np.intp)
    for start in range(0, shots, block):
        idx = np.searchsorted(cdf, rng.random(min(block, shots - start)), side="right")
        counts += np.bincount(np.minimum(idx, last_nonzero, out=idx), minlength=p.size)
    return counts.tolist()


@st.composite
def probability_vectors(draw):
    """1-20 unnormalized weights; any bins may be zero (leading, inner, trailing) but one."""
    n = draw(st.integers(1, 20))
    live = draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=n, unique=True))
    p = [0.0] * n
    for k in live:
        p[k] = draw(st.floats(1e-9, 1e9))
    return p


class TestSampleCounts:
    @pytest.mark.parametrize("block", [1, 2, 3, SHOT_BLOCK])
    @settings(max_examples=150, deadline=None)
    @given(p=probability_vectors(), data=st.data(),
           seed=st.one_of(st.integers(0, 2**63 - 1), st.integers(2**63, 2**64 - 1)))
    def test_counts_equal_the_searchsorted_histogram(self, block, p, data, seed):
        shots = data.draw(st.integers(1, 3 * block + 17), label="shots")
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr("qsynapse.rng.SHOT_BLOCK", block)
            counts = sample_counts(p, shots, stream_rng(seed, 5))
        assert counts == searchsorted_counts(p, shots, stream_rng(seed, 5), block)

    @settings(max_examples=300, deadline=None)
    @given(p=probability_vectors())
    def test_draws_on_the_edges_count_as_the_searchsorted_histogram(self, p):
        """Draws on numpy's CDF edges and one ULP either side: an edge one ULP off, or a draw
        on an edge put in the bin below it (side="right" puts it above), changes a count."""
        cdf = np.cumsum(np.array(p) / np.sum(p))
        u = np.concatenate([[0.0, 1.0 - 2.0**-53], cdf, np.nextafter(cdf, 0.0),
                            np.nextafter(cdf, 1.0)])

        class Fixed:
            def random(self, n):
                return u[:n]

        assert sample_counts(p, u.size, Fixed()) == searchsorted_counts(p, u.size, Fixed(), u.size)

    @pytest.mark.parametrize("n", [COMPARE_EDGES + 1, COMPARE_EDGES + 2, COMPARE_EDGES + 3, 48, 256,
                                   MAX_STATE_DIM])
    def test_wide_and_boundary_states_count_as_the_searchsorted_histogram(self, n):
        """Last nonzero bins 7, 8 and 9 sit on both sides of COMPARE_EDGES; 48 to 4096 bins
        place each draw by bisection.  The counts are the oracle's either way."""
        p = np.random.default_rng(n).random(n)
        p[[0, n // 2, n - 1]] = 0.0
        shots = 2 * SHOT_BLOCK + 17
        counts = sample_counts(p, shots, stream_rng(n, 5))
        assert counts == searchsorted_counts(p, shots, stream_rng(n, 5), SHOT_BLOCK)

    def test_zero_total_raises(self):
        with pytest.raises(ValueError, match="zero"):
            sample_counts([0.0, 0.0], 10, stream_rng(1))


class TestMeasureConvergence:
    def test_total_variation_shrinks_with_shots(self):
        # TV to the true distribution < 4*sqrt(d/shots) in >= 99% of seeds
        st_ = QuantumState.from_amplitudes([0.1, 0.2, 0.3, 0.4], normalize=True)
        p = st_.probabilities()
        d, shots = 4, 20_000
        bound = 4 * math.sqrt(d / shots)
        ok = 0
        for seed in range(100):
            counts = measure(st_, shots, seed=seed)
            freqs = np.array([counts[l] for l in st_.basis_labels]) / shots
            if 0.5 * np.abs(freqs - p).sum() < bound:
                ok += 1
        assert ok >= 99


class TestOperatorTextFormat:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(9)
        m = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        op = OperatorMatrix(m)
        path = tmp_path / "op.txt"
        save_operator_text(op, path)
        back = load_operator_text(path)
        assert np.array_equal(back.entries, op.entries)

    def test_loads_declared_kind(self, tmp_path):
        path = tmp_path / "h.txt"
        path.write_text("2\n1.0,0.0 0.0,1.0\n0.0,-1.0 2.0,0.0\n")
        op = load_operator_text(path, kind="hermitian")
        assert op.kind == "hermitian"

    def test_bad_dimension_line(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("x\n")
        with pytest.raises(ValueError, match="dimension"):
            load_operator_text(path)

    def test_wrong_row_count(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("2\n1.0,0.0 0.0,0.0\n")
        with pytest.raises(ValueError, match="rows"):
            load_operator_text(path)

    def test_malformed_pair(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("1\n1.0\n")
        with pytest.raises(ValueError, match="re,im"):
            load_operator_text(path)
