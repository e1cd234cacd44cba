import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qsynapse import (
    LifParams,
    NetworkTopology,
    SynapseCircuit,
    Trajectory,
    calibrate,
    ks_statistic,
    total_variation,
)
from qsynapse.harness import kv_rows


def synth_trajectory(crossed: np.ndarray, window_ms: float) -> Trajectory:
    """Trajectory whose only content is per-window crossing events."""
    n_windows, n_neurons = crossed.shape
    params = LifParams()
    topo = NetworkTopology.build(n_neurons, [[] for _ in range(n_neurons)])
    times = np.arange(n_windows + 1) * window_ms
    ev_steps, ev_n = [], []
    for w in range(n_windows):
        for n in range(n_neurons):
            if crossed[w, n]:
                ev_steps.append(w)
                ev_n.append(n)
    return Trajectory(
        dt_ms=window_ms,
        times=times,
        v=np.full((n_windows + 1, n_neurons), params.v_rest),
        gs=np.zeros((n_windows + 1, 0)),
        spike_steps=np.array(ev_steps, dtype=np.intp),
        spike_neurons=np.array(ev_n, dtype=np.intp),
        params=params,
        topology=topo,
    )


def bernoulli_crossings(p: list[float], n_windows: int, seed: int) -> np.ndarray:
    from qsynapse.rng import stream_rng

    cols = [stream_rng(seed, 500 + k).random(n_windows) < pk for k, pk in enumerate(p)]
    return np.column_stack(cols)


class TestDistances:
    def test_tv_identity_and_symmetry(self):
        p = np.array([0.2, 0.3, 0.5])
        q = np.array([0.5, 0.25, 0.25])
        assert total_variation(p, p) == 0.0
        assert total_variation(p, q) == total_variation(q, p)

    def test_tv_known_value(self):
        assert total_variation([1.0, 0.0], [0.0, 1.0]) == 1.0
        assert total_variation([0.6, 0.4], [0.4, 0.6]) == pytest.approx(0.2)

    def test_ks_known_value(self):
        assert ks_statistic([1.0, 0.0], [0.0, 1.0]) == 1.0
        assert ks_statistic([0.5, 0.5], [0.5, 0.5]) == 0.0

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            total_variation([0.5, 0.5], [1.0])


@settings(max_examples=50, deadline=None)
@given(
    raw=st.lists(
        st.lists(st.floats(0.001, 1.0), min_size=3, max_size=3),
        min_size=3, max_size=3,
    )
)
def test_tv_triangle_inequality(raw):
    a, b, c = (np.array(x) / np.sum(x) for x in raw)
    assert total_variation(a, c) <= total_variation(a, b) + total_variation(b, c) + 1e-12


class TestCalibrate:
    def _circuit(self, dim, **kw):
        return SynapseCircuit(up_dim=dim, down_dim=dim, **kw)

    def test_always_firing_single_link_is_exact(self):
        traj = synth_trajectory(np.ones((120, 1), dtype=bool), 5.0)
        report = calibrate(traj, self._circuit(1), 5.0, 10_000, seeds=(1, 2))
        assert np.array_equal(report.classical_probs, [1.0])
        assert np.array_equal(report.quantum_freqs, [1.0])
        assert report.tv_distance == 0.0
        assert report.passed

    def test_identity_circuit_close(self):
        crossed = bernoulli_crossings([0.2, 0.3, 0.5], 100_000, seed=11)
        traj = synth_trajectory(crossed, 30.0)
        report = calibrate(traj, self._circuit(3), 30.0, 100_000, seeds=(11, 12))
        assert report.tv_distance < 0.01
        assert report.passed
        assert report.windows == 100_000

    def test_shutdown_forces_tv_floor(self):
        crossed = bernoulli_crossings([0.4, 0.4, 0.2], 5_000, seed=7)
        traj = synth_trajectory(crossed, 30.0)
        circuit = self._circuit(3, shutdown_links=(0,))
        report = calibrate(traj, circuit, 30.0, 20_000, seeds=(7, 8), epsilon=0.05)
        p_hat = report.classical_probs / report.classical_probs.sum()
        assert report.quantum_freqs[0] == 0.0
        assert report.tv_distance >= p_hat[0] - 1e-12
        assert not report.passed  # epsilon well below the forced floor

    def test_degenerate_reported_not_raised(self):
        traj = synth_trajectory(np.zeros((200, 2), dtype=bool), 2.0)
        report = calibrate(traj, self._circuit(2), 2.0, 10_000, seeds=(1, 2))
        assert report.degenerate
        assert not report.passed

    def test_preconditions(self):
        traj = synth_trajectory(np.ones((50, 2), dtype=bool), 2.0)
        with pytest.raises(ValueError, match="at least 100"):
            calibrate(traj, self._circuit(2), 2.0, 10_000, seeds=(1, 2))
        big = synth_trajectory(np.ones((150, 2), dtype=bool), 2.0)
        with pytest.raises(ValueError, match="shots"):
            calibrate(big, self._circuit(2), 2.0, 5_000, seeds=(1, 2))
        with pytest.raises(ValueError, match="equal circuit dimensions"):
            calibrate(big, SynapseCircuit(up_dim=2, down_dim=3, coupling=np.ones((3, 2))),
                      2.0, 10_000, seeds=(1, 2))

    def test_link_neuron_selection(self):
        crossed = np.zeros((200, 3), dtype=bool)
        crossed[:, 2] = True  # only neuron 2 fires
        traj = synth_trajectory(crossed, 2.0)
        report = calibrate(
            traj, self._circuit(2), 2.0, 10_000, seeds=(1, 2), link_neurons=[2, 0]
        )
        assert np.array_equal(report.classical_probs, [1.0, 0.0])

    def test_doubling_shots_reduces_expected_tv(self):
        crossed = bernoulli_crossings([0.25, 0.35, 0.4], 20_000, seed=21)
        traj = synth_trajectory(crossed, 30.0)
        circuit = self._circuit(3)

        def mean_tv(shots):
            tvs = [
                calibrate(traj, circuit, 30.0, shots, seeds=(21, 1000 + rep)).tv_distance
                for rep in range(30)
            ]
            return float(np.mean(tvs))

        assert mean_tv(40_000) < mean_tv(10_000)

    def test_report_kv_rows_round_trip(self):
        traj = synth_trajectory(np.ones((120, 1), dtype=bool), 5.0)
        report = calibrate(traj, self._circuit(1), 5.0, 10_000, seeds=(1, 2))
        rows = dict(kv_rows(report))
        assert rows["passed"] == "1"
        assert float(rows["tv_distance"]) == 0.0
        assert rows["windows"] == "120"
