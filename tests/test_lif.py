import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qsynapse import (
    LifParams,
    NetworkTopology,
    NumericalDivergenceError,
    decay_conductance,
    measure_firing_probability,
    simulate_network,
)
from qsynapse.lif import (
    FLOAT_LOOP_MAX_NEURONS,
    Trajectory,
    _advance,
    bin_spike_events,
    window_crossings,
    window_stride,
)

DEFAULT_PARAMS = LifParams()  # cm=1, g_leak=0.0551, v_rest=-65, v_init=-70.6837


def euler_reference(params, t_end, dt, drive=0.0, spike_times=(), spike_jump=None):
    """Brute-force fine-step Euler for a single isolated neuron, no threshold."""
    jump = params.spike_jump if spike_jump is None else spike_jump
    n = int(round(t_end / dt))
    v = params.v_init
    remaining = sorted(spike_times)
    out = [v]
    for i in range(n):
        t = i * dt
        while remaining and remaining[0] < t + dt:
            v += jump
            remaining.pop(0)
        v += dt * (-params.g_leak * (v - params.v_rest) + drive) / params.cm
        out.append(v)
    return np.array(out)


class TestParams:
    def test_validation(self):
        with pytest.raises(ValueError, match="cm"):
            LifParams(cm=0.0)
        with pytest.raises(ValueError, match="v_thres"):
            LifParams(v_thres=-70.0)  # below v_rest
        with pytest.raises(ValueError, match="tau_syn"):
            LifParams(tau_syn=-1.0)

    def test_negative_delta_g_rejected(self):
        with pytest.raises(ValueError, match="delta_g must be >= 0"):
            LifParams(delta_g=-0.01)
        assert LifParams(delta_g=0.0).delta_g == 0.0

    def test_g_elec_bound_warns_not_raises(self):
        with pytest.warns(UserWarning, match="g_elec"):
            p = LifParams(g_elec=0.1)
        assert p.g_elec == 0.1

    def test_tau_m(self):
        assert DEFAULT_PARAMS.tau_m == pytest.approx(1.0 / 0.0551)


class TestDecayConductance:
    def test_zero_fixed_point(self):
        assert decay_conductance(0.0, 5.0, 1.0) == 0.0

    def test_one_time_constant(self):
        g0 = 0.37
        assert decay_conductance(g0, 5.0, 5.0) == pytest.approx(g0 / math.e, rel=1e-12)

    def test_semigroup(self):
        g0 = 0.2
        half_twice = decay_conductance(decay_conductance(g0, 3.0, 0.5), 3.0, 0.5)
        assert half_twice == pytest.approx(decay_conductance(g0, 3.0, 1.0), rel=1e-12)

    def test_preconditions(self):
        with pytest.raises(ValueError):
            decay_conductance(-1.0, 5.0, 1.0)
        with pytest.raises(ValueError):
            decay_conductance(1.0, 5.0, 0.0)


def run_single(params, t_end, dt, events=(), n_links=1, v_init=None):
    """One neuron with ``n_links`` inbound links, run through simulate_network."""
    topo = NetworkTopology.build(1, [list(range(n_links))])
    return simulate_network(params, topo, events, t_end, dt,
                            v_init=None if v_init is None else [v_init])


class TestStepNeuron:
    """Single-neuron step dynamics."""

    def test_rest_is_fixed_point(self):
        p = DEFAULT_PARAMS
        traj = run_single(p, 0.1, 0.1, n_links=0, v_init=p.v_rest)
        assert traj.v[1, 0] == p.v_rest

    def test_relaxation_matches_analytic_and_euler_oracle(self):
        # establish the closed form against brute-force Euler first
        p = DEFAULT_PARAMS
        tau = p.tau_m
        t_check = tau
        analytic = p.v_rest + (p.v_init - p.v_rest) * math.exp(-t_check / tau)
        ref = euler_reference(p, t_check, 1e-4)
        assert abs(ref[-1] - analytic) < 1e-3
        assert analytic == pytest.approx(-67.09091638, abs=1e-6)

        dt = 0.01
        n = int(round(t_check / dt))
        traj = run_single(p, n * dt, dt, n_links=0)
        assert traj.n_steps == n
        assert traj.v[-1, 0] == pytest.approx(
            p.v_rest + (p.v_init - p.v_rest) * math.exp(-n * dt / tau), abs=1e-9
        )

    def test_single_spike_jump_then_monotone_decay(self):
        # pure potential jump: delta_g = 0 isolates the spike_jump semantics
        p = LifParams(v_init=-65.0, delta_g=0.0)
        traj = run_single(p, 20.0, 0.01, events=[(0.0, 0)])
        vs = traj.v[1:, 0]
        # jumped by 5 then started decaying back toward rest
        assert -60.01 < vs[0] < -60.0
        ref = euler_reference(LifParams(v_init=-60.0), 20.0, 1e-4)
        assert (np.diff(vs) < 0).all()
        assert traj.spike_times.size == 0  # never crossed -50
        # decay envelope agrees with the fine-step reference
        assert abs(vs[-1] - ref[-1]) < 1e-3

    def test_spike_bumps_conductance_and_clamps(self):
        p = LifParams(gs_max=0.015, delta_g=0.01)
        # the second spike lifts gs from 0.01 * decay to above gs_max
        traj = run_single(p, 0.003, 0.001, events=[(0.0, 0), (0.0015, 0)])
        assert (traj.gs <= p.gs_max).all()
        assert traj.gs[2, 0] == pytest.approx(p.gs_max * math.exp(-0.001 / p.tau_syn), rel=1e-12)

    def test_threshold_reset_and_count(self):
        p = LifParams(spike_jump=20.0, v_init=-65.0)  # 20 > v_thres - v_rest = 15
        traj = run_single(p, 5.0, 0.5, events=[(3.0, 0)])
        assert traj.v[7, 0] == p.v_rest  # the state after the step starting at 3.0
        assert traj.spike_times.tolist() == [3.0]
        assert traj.spike_neurons.tolist() == [0]

    def test_divergence_error_names_neuron_and_time(self):
        p = LifParams(spike_jump=math.inf)
        with pytest.raises(NumericalDivergenceError, match="neuron 0 at t = 5.0") as info:
            run_single(p, 10.0, 0.5, events=[(5.0, 0)])
        assert info.value.partial.n_steps == 10


class TestStepNetwork:
    def test_decoupled_equals_independent_neurons(self):
        p = LifParams()
        topo = NetworkTopology.build(2, [[0], [1]])
        events = [(0.0, 0)]
        pair = simulate_network(p, topo, events, 2.5, 0.05, v_init=[-70.0, -60.0])
        singles = [run_single(p, 2.5, 0.05, events=events, v_init=-70.0),
                   run_single(p, 2.5, 0.05, v_init=-60.0)]
        assert pair.n_steps == 50
        for j in range(2):
            assert np.array_equal(pair.v[:, j], singles[j].v[:, 0])
            assert np.array_equal(pair.gs[:, j], singles[j].gs[:, 0])

    def test_gap_junction_steady_state_coupling(self):
        # hold neuron 0 at a steady offset with constant drive; the induced
        # offset on neuron 1 settles at g_elec / (g_leak + g_elec)
        p = LifParams()
        ge = 0.025
        topo = NetworkTopology.build(2, [[], []], [(0, 1, ge)])
        traj = simulate_network(p, topo, [], 600.0, 0.05, drives=[0.2, 0.0])
        dv1 = traj.v[-1, 0] - p.v_rest
        dv2 = traj.v[-1, 1] - p.v_rest
        expected = ge / (p.g_leak + ge)
        assert dv2 / dv1 == pytest.approx(expected, abs=1e-3)
        assert expected == pytest.approx(0.3121, abs=1e-4)

    def test_stationary_at_rest(self):
        p = LifParams()
        topo = NetworkTopology.build(3, [[], [], []], [(0, 1, 0.01), (1, 2, 0.01)])
        traj = simulate_network(p, topo, [], 10.0, 0.5, v_init=[p.v_rest] * 3)
        assert np.array_equal(traj.v, np.full_like(traj.v, p.v_rest))

    def test_permuting_storage_order_is_bit_identical(self):
        p = LifParams(spike_jump=8.0)
        topo_a = NetworkTopology.build(3, [[0], [1], [2]], [(0, 1, 0.02), (1, 2, 0.01)])
        events = [(1.0, 0), (2.5, 1), (2.5, 2), (7.0, 0)]
        traj_a = simulate_network(p, topo_a, events, 50.0, 0.1, drives=[0.3, 0.0, 0.1])
        # store old neuron i at new position perm[i]; links keep global ids
        perm = [2, 0, 1]
        links_b = [None] * 3
        for i, links in enumerate([[0], [1], [2]]):
            links_b[perm[i]] = links
        pairs_b = [(perm[0], perm[1], 0.02), (perm[1], perm[2], 0.01)]
        topo_b = NetworkTopology.build(3, links_b, pairs_b)
        drives_b = [0.0] * 3
        for i, d in enumerate([0.3, 0.0, 0.1]):
            drives_b[perm[i]] = d
        traj_b = simulate_network(p, topo_b, events, 50.0, 0.1, drives=drives_b)
        for i in range(3):
            assert np.array_equal(traj_a.v[:, i], traj_b.v[:, perm[i]])

    def test_topology_validation(self):
        with pytest.raises(ValueError, match="self gap-junction"):
            NetworkTopology.build(2, [[], []], [(1, 1, 0.01)])
        with pytest.raises(ValueError, match="link ids"):
            NetworkTopology.build(2, [[0], [0]])

    def test_literal_multilink_leak_mode_differs(self):
        base = LifParams(v_init=-60.0)
        literal = LifParams(v_init=-60.0, literal_multilink_leak=True)
        topo = NetworkTopology.build(1, [[0]])
        ev = [(0.5, 0)]
        t_a = simulate_network(base, topo, ev, 5.0, 0.1)
        t_b = simulate_network(literal, topo, ev, 5.0, 0.1)
        assert not np.allclose(t_a.v, t_b.v)


class TestIntegratorOrder:
    def test_rk4_fourth_order_euler_first_order(self):
        # stiffer leak so truncation error clears float noise on the ladder
        p = LifParams(g_leak=0.5, v_init=-80.0)
        drive = 2.0
        v_inf = p.v_rest + drive / p.g_leak
        t_end = 4.0
        topo = NetworkTopology.build(1, [[]])

        def final_v(dt, integrator):
            traj = simulate_network(p, topo, [], t_end, dt, drives=[drive], integrator=integrator)
            return traj.v[-1, 0]

        exact = v_inf + (p.v_init - v_inf) * math.exp(-t_end * p.g_leak / p.cm)
        for integrator, expected_order, tol in (("rk4", 4.0, 0.6), ("euler", 1.0, 0.3)):
            errs = [abs(final_v(dt, integrator) - exact) for dt in (0.5, 0.25, 0.125)]
            orders = [math.log2(errs[i] / errs[i + 1]) for i in range(2)]
            for order in orders:
                assert abs(order - expected_order) < tol, (integrator, errs, orders)

    def test_relaxation_invariant_tight_bound(self):
        p = DEFAULT_PARAMS
        topo = NetworkTopology.build(1, [[]])
        traj = simulate_network(p, topo, [], 100.0, 0.01)
        analytic = p.v_rest + (p.v_init - p.v_rest) * np.exp(-traj.times * p.g_leak / p.cm)
        assert np.abs(traj.v[:, 0] - analytic).max() < 1e-6


@settings(max_examples=40, deadline=None)
@given(
    schedule=st.lists(
        st.tuples(st.integers(0, 49), st.integers(0, 2), st.integers(1, 3)),
        max_size=30,
    ),
    delta_g=st.floats(0.001, 0.3),
)
def test_conductance_bound_property(schedule, delta_g):
    p = LifParams(gs_max=0.2, delta_g=delta_g)
    # mid-step times, so each spike bins into its scheduled step
    events = sorted(((step + 0.5) * 0.2, link) for step, link, count in schedule
                    for _ in range(count))
    traj = run_single(p, 50 * 0.2, 0.2, events=events, n_links=3, v_init=p.v_rest)
    assert traj.n_steps == 50
    assert (traj.gs >= 0).all() and (traj.gs <= p.gs_max).all()
    assert (traj.v <= p.v_thres).all()  # reset within the step


class TestFiringProbability:
    def _poisson_driven(self, seed=11):
        from qsynapse import RateProfile, generate_poisson, merge_trains

        p = LifParams(spike_jump=16.0)  # each spike forces a crossing
        topo = NetworkTopology.build(1, [[0]])
        train = generate_poisson(RateProfile.constant(0.08), 400.0, seed, 0)
        return simulate_network(p, topo, merge_trains([train]), 400.0, 0.1)

    def test_no_input_is_zero(self):
        p = DEFAULT_PARAMS
        topo = NetworkTopology.build(1, [[]])
        traj = simulate_network(p, topo, [], 50.0, 0.1)
        assert measure_firing_probability(traj, 5.0, 0) == 0.0

    def test_every_window_forced_is_one(self):
        p = LifParams(spike_jump=20.0, v_init=-65.0)
        topo = NetworkTopology.build(1, [[0]])
        events = [(w * 5.0 + 1.0, 0) for w in range(10)]
        traj = simulate_network(p, topo, events, 50.0, 0.1)
        assert measure_firing_probability(traj, 5.0, 0) == 1.0

    def test_matches_brute_force_recount(self):
        traj = self._poisson_driven()
        window = 10.0
        estimate = measure_firing_probability(traj, window, 0)
        # independent recount: walk the raw event list window by window
        n_windows = int(traj.times[-1] // window)
        hit = 0
        for w in range(n_windows):
            lo, hi = w * window, (w + 1) * window
            if any(
                lo <= t < hi and n == 0
                for t, n in zip(traj.spike_times, traj.spike_neurons)
            ):
                hit += 1
        assert estimate == hit / n_windows

    def test_window_crossings_matrix_agrees(self):
        traj = self._poisson_driven(seed=3)
        crossed = window_crossings(traj, 10.0)
        assert crossed.mean(axis=0)[0] == measure_firing_probability(traj, 10.0, 0)

    def test_errors(self):
        p = DEFAULT_PARAMS
        topo = NetworkTopology.build(1, [[]])
        traj = simulate_network(p, topo, [], 4.0, 0.1)
        with pytest.raises(ValueError, match="shorter than one window"):
            measure_firing_probability(traj, 5.0, 0)
        with pytest.raises(ValueError, match="unknown neuron"):
            measure_firing_probability(traj, 1.0, 4)
        with pytest.raises(ValueError, match="whole number"):
            measure_firing_probability(traj, 0.25, 0)


@settings(max_examples=200, deadline=None)
@given(
    dt=st.floats(1e-3, 10.0),
    stride=st.integers(1, 50),
    n_steps=st.integers(1, 400),
    events=st.lists(st.tuples(st.integers(0, 399), st.integers(0, 2)), max_size=40),
)
def test_window_crossings_use_integer_steps(dt, stride, n_steps, events):
    """A crossing at step i lands in window i // stride for any dt; no float times."""
    events = sorted((i, n) for i, n in events if i < n_steps)
    traj = Trajectory(
        dt_ms=dt,
        times=np.arange(n_steps + 1) * dt,
        v=np.zeros((n_steps + 1, 3)),
        gs=np.zeros((n_steps + 1, 0)),
        spike_steps=np.array([i for i, _ in events], dtype=np.intp),
        spike_neurons=np.array([n for _, n in events], dtype=np.intp),
        params=DEFAULT_PARAMS,
        topology=NetworkTopology.build(3, [[], [], []]),
    )
    window = stride * dt
    assert window_stride(dt, window) == stride
    if n_steps < stride:
        with pytest.raises(ValueError, match="shorter than one window"):
            window_crossings(traj, window)
        return
    expected = np.zeros((n_steps // stride, 3), dtype=bool)
    for i, n in events:
        if i // stride < expected.shape[0]:
            expected[i // stride, n] = True
    assert np.array_equal(window_crossings(traj, window), expected)
    assert np.array_equal(traj.spike_times, traj.spike_steps * dt)


class TestConcurrentInstances:
    def test_parallel_seeded_runs_match_serial(self):
        from concurrent.futures import ThreadPoolExecutor

        from qsynapse import RateProfile, generate_poisson, merge_trains

        p = LifParams(spike_jump=10.0)
        topo = NetworkTopology.build(2, [[0], [1]], [(0, 1, 0.02)])

        def run(seed):
            trains = [
                generate_poisson(RateProfile.constant(0.05), 100.0, seed, link)
                for link in range(2)
            ]
            return simulate_network(p, topo, merge_trains(trains), 100.0, 0.1)

        serial = [run(s) for s in range(4)]
        with ThreadPoolExecutor(max_workers=4) as pool:
            parallel = list(pool.map(run, range(4)))
        for a, b in zip(serial, parallel):
            assert np.array_equal(a.v, b.v)
            assert np.array_equal(a.gs, b.gs)


def _same_bits(a, b) -> bool:
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


def pair_loop_oracle(params, topology, events, t_end, dt, drives, integrator="rk4", v_init=None):
    """simulate_network through ``_advance`` with gap coupling summed by a Python loop over pairs."""
    n, m = topology.neuron_count, topology.n_links
    n_steps = int(round(t_end / dt))
    counts = bin_spike_events(events, n_steps, m, dt)
    times = np.arange(n_steps + 1) * dt
    gap_g = np.zeros(n)
    for a, b, g in topology.elec_pairs:
        gap_g[a] += g
        gap_g[b] += g
    v = np.full(n, params.v_init) if v_init is None else np.array(v_init, dtype=float)
    gs = np.zeros(m)
    vs, gss, ev_steps, ev_neurons = [v], [gs], [], []
    for i in range(n_steps):
        gap_const = np.zeros(n)
        for a, b, g in topology.elec_pairs:
            gap_const[a] += g * v[b]
            gap_const[b] += g * v[a]
        v, gs, crossed = _advance(
            v, gs, topology.link_owner, topology.links_per_neuron, params, drives,
            counts.get(i, np.zeros(m)), gap_const, gap_g, dt, float(times[i]), integrator,
        )
        vs.append(v)
        gss.append(gs)
        for idx in np.flatnonzero(crossed):
            ev_steps.append(i)
            ev_neurons.append(int(idx))
    ev_times = [float(times[i]) for i in ev_steps]
    return gap_g, np.array(vs), np.array(gss), ev_times, ev_steps, ev_neurons


@st.composite
def gap_networks(draw):
    """Networks on both sides of FLOAT_LOOP_MAX_NEURONS with repeated, reversed and
    zero-g pairs, neurons owning several links with permuted ids, and drawn parameters."""
    n = draw(st.one_of(st.integers(1, FLOAT_LOOP_MAX_NEURONS),
                       st.integers(FLOAT_LOOP_MAX_NEURONS + 1, 60)))
    per_neuron = draw(st.lists(st.integers(0, 3), min_size=n, max_size=n))
    ids = draw(st.permutations(range(sum(per_neuron))))
    upstream, start = [], 0
    for k in per_neuron:  # e.g. neuron 0 may own [3, 1]
        upstream.append(list(ids[start:start + k]))
        start += k
    g = st.one_of(st.just(0.0), st.floats(0.0, 0.05))
    pairs = []
    if n > 1:
        for i, d, gij in draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(1, n - 1), g),
                                       max_size=3 * n)):
            pairs.append((i, (i + d) % n, gij))
    n_steps = draw(st.integers(1, 40))
    events = []
    if ids:
        events = draw(st.lists(st.tuples(st.floats(0.0, n_steps * 0.1, exclude_max=True),
                                         st.integers(0, len(ids) - 1)), max_size=60))
    drives = draw(st.lists(st.floats(0.0, 6.0), min_size=n, max_size=n))
    # the last two sets keep |v| small against each step's increment, so a reordered
    # sum shows in the last bits of v instead of vanishing into v's rounding; a large
    # e_syn does the same for the order of each neuron's conductance sum
    small = dict(v_rest=-1.0, v_thres=4.0, v_init=-2.0, g_leak=0.3, spike_jump=2.0)
    lif = draw(st.sampled_from([dict(spike_jump=8.0), dict(small, e_syn=-3.0),
                                dict(small, e_syn=50.0)]))
    params = LifParams(
        **lif,
        delta_g=draw(st.sampled_from([0.0, 0.01, 0.3])),
        literal_multilink_leak=draw(st.booleans()),
    )
    v_init = draw(st.one_of(st.none(), st.lists(
        st.floats(params.v_rest - 15.0, params.v_thres + 5.0), min_size=n, max_size=n)))
    integrator = draw(st.sampled_from(["rk4", "euler"]))
    return (NetworkTopology.build(n, upstream, pairs), sorted(events), n_steps, np.array(drives),
            v_init, params, integrator)


@settings(max_examples=120, deadline=None)
@given(gap_networks())
def test_gap_coupling_matches_pair_loop_bitwise(net):
    """Both stepping loops equal the numpy ``_advance`` oracle bit for bit."""
    topo, events, n_steps, drives, v_init, p, integrator = net
    dt = 0.1
    traj = simulate_network(p, topo, events, n_steps * dt, dt, drives=drives,
                            integrator=integrator, v_init=v_init)
    gap_g, v, gs, ev_times, ev_steps, ev_neurons = pair_loop_oracle(
        p, topo, events, n_steps * dt, dt, drives, integrator, v_init)
    assert _same_bits(topo.gap_conductance_sum, gap_g)
    assert _same_bits(traj.v, v)
    assert _same_bits(traj.gs, gs)
    assert _same_bits(traj.spike_times, np.array(ev_times))
    assert _same_bits(traj.spike_steps, np.array(ev_steps, dtype=np.intp))
    assert _same_bits(traj.spike_neurons, np.array(ev_neurons, dtype=np.intp))


@pytest.mark.parametrize("integrator", ["rk4", "euler"])
@pytest.mark.parametrize("literal", [False, True])
def test_float_loop_matches_oracle_over_a_long_run(integrator, literal):
    """400 steps of a fixed network with permuted multi-link neurons, gap junctions and
    small potentials: every reordering of a sum has many chances to show in the bits."""
    from qsynapse import RateProfile, generate_poisson, merge_trains

    p = LifParams(v_rest=-1.0, v_thres=4.0, v_init=-2.0, g_leak=0.3, spike_jump=2.0,
                  e_syn=50.0, delta_g=0.05, literal_multilink_leak=literal)
    topo = NetworkTopology.build(4, [[3, 1, 0], [2], [5, 4], []],
                                 [(0, 1, 0.03), (1, 2, 0.02), (2, 3, 0.04), (3, 0, 0.01)])
    trains = [generate_poisson(RateProfile.constant(0.2), 40.0, 5, k) for k in range(6)]
    events = merge_trains(trains)
    drives = np.array([0.4, 1.5, 0.0, 0.8])
    traj = simulate_network(p, topo, events, 40.0, 0.1, drives=drives, integrator=integrator)
    _, v, gs, _, ev_steps, ev_neurons = pair_loop_oracle(p, topo, events, 40.0, 0.1, drives,
                                                         integrator)
    assert literal or len(ev_steps) > 10  # the literal formula pulls v down, away from v_thres
    assert _same_bits(traj.v, v)
    assert _same_bits(traj.gs, gs)
    assert _same_bits(traj.spike_steps, np.array(ev_steps, dtype=np.intp))
    assert _same_bits(traj.spike_neurons, np.array(ev_neurons, dtype=np.intp))


@pytest.mark.parametrize("n", [3, FLOAT_LOOP_MAX_NEURONS + 4])
def test_divergence_partial_matches_truncated_run(n):
    """Two 1e308 jumps overflow neuron n-1 at step 7, while neuron 0 crosses in that same
    step on one finite jump; the error names n-1 and 0.7 ms, no warning escapes, and its
    partial recording (without that step's crossing) equals a run that stops before step 7."""
    p = LifParams(spike_jump=1e308)
    topo = NetworkTopology.build(n, [[k] for k in range(n)], [(k, k + 1, 0.01) for k in range(n - 1)])
    dt = 0.1
    early = [(0.25, 1), (0.45, 0)]
    events = early + [(0.75, 0), (0.75, n - 1), (0.76, n - 1)]
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with pytest.raises(NumericalDivergenceError) as info:
            simulate_network(p, topo, events, 2.0, dt, drives=[0.5] * n)
    assert [str(w.message) for w in caught] == []
    err = info.value
    assert (err.neuron, err.time_ms) == (n - 1, 7 * dt)
    ref = simulate_network(p, topo, early, 7 * dt, dt, drives=[0.5] * n)
    part = err.partial
    assert part.n_steps == 7
    for name in ("times", "v", "gs", "spike_steps", "spike_neurons"):
        assert _same_bits(getattr(part, name), getattr(ref, name)), name
    assert part.spike_steps.tolist() == [2, 4] and part.spike_neurons.tolist() == [1, 0]


@pytest.mark.parametrize("n", [3, FLOAT_LOOP_MAX_NEURONS + 4])
def test_infinite_jump_names_the_neuron_that_got_the_spike(n):
    """Neurons without a spike keep their potential, so neither loop reports one of them."""
    topo = NetworkTopology.build(n, [[k] for k in range(n)], [(k, k + 1, 0.01) for k in range(n - 1)])
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with pytest.raises(NumericalDivergenceError, match=f"neuron {n - 1} at t = 0.5") as info:
            simulate_network(LifParams(spike_jump=math.inf), topo, [(0.55, n - 1)], 2.0, 0.1)
    assert [str(w.message) for w in caught] == []
    assert np.isfinite(info.value.partial.v).all()


@pytest.mark.parametrize("n", [3, FLOAT_LOOP_MAX_NEURONS + 4])
def test_drives_and_v_init_need_one_value_per_neuron(n):
    """Both stepping loops see the same check, so a wrong length never broadcasts or truncates."""
    topo = NetworkTopology.build(n, [[k] for k in range(n)], [])
    for bad in ([0.5], [0.5] * (n + 1), [[0.5] * n]):
        with pytest.raises(ValueError, match="one value per neuron"):
            simulate_network(DEFAULT_PARAMS, topo, [], 1.0, 0.1, drives=bad)
        with pytest.raises(ValueError, match="one value per neuron"):
            simulate_network(DEFAULT_PARAMS, topo, [], 1.0, 0.1, v_init=bad)
    simulate_network(DEFAULT_PARAMS, topo, [], 1.0, 0.1, drives=[0.5] * n, v_init=[-65.0] * n)
