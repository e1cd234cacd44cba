import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qsynapse import RateProfile, SpikeTrain, generate_poisson, merge_trains, spikes
from qsynapse.rng import stream_rng
from qsynapse.spikes import read_spike_csv, write_spike_csv


def rate_at(profile, t):
    """Per-point lookup: the covering segment's rate, else the base rate."""
    for seg in profile.segments:
        if seg.start_ms <= t < seg.end_ms:
            return seg.rate_per_ms
    return profile.base_rate


def one_at_a_time(profile, horizon_ms, seed, link_id=0):
    """The oracle: candidates drawn one at a time, each gap then (modulated) its thinning test."""
    rng = stream_rng(seed, link_id)
    r_max = profile.max_rate()
    times = []
    if r_max > 0:
        t = 0.0
        while True:
            t += -np.log1p(-rng.random()) / r_max
            if t >= horizon_ms:
                break
            if profile.kind == "constant" or rng.random() * r_max < rate_at(profile, t):
                times.append(t)
    return np.array(times)


@st.composite
def poisson_cases(draw):
    """(profile, horizon, seed, link): zero rates, segments touching or straddling the horizon."""
    horizon = draw(st.floats(1.0, 2000.0))
    rates = st.just(0.0) | st.floats(1e-4, 0.5)
    base = draw(rates)
    seed = draw(st.integers(0, 2**32) | st.integers(2**63, 2**64 - 1))
    link = draw(st.integers(0, 7))
    if draw(st.booleans()):
        return RateProfile.constant(base), horizon, seed, link
    cuts = draw(st.lists(st.just(horizon) | st.floats(0.0, 1.5 * horizon), max_size=8))
    cuts = sorted(set(cuts))
    segments = []
    for lo, hi in zip(cuts, cuts[1:]):
        rate = draw(st.none() | rates)
        if rate is not None:  # None leaves a gap at the base rate
            segments.append((lo, hi, rate))
    return RateProfile.modulated(base, segments), horizon, seed, link


class TestRateProfile:
    def test_constant(self):
        prof = RateProfile.constant(0.05)
        assert prof.rates_at(np.array([0.0, 10.0])).tolist() == [0.05, 0.05]
        assert prof.max_rate() == 0.05

    def test_modulated_lookup(self):
        prof = RateProfile.modulated(0.01, [(10, 20, 0.2), (20, 30, 0.0)])
        assert prof.rates_at(np.array([5.0, 15.0, 25.0, 30.0])).tolist() == [0.01, 0.2, 0.0, 0.01]
        assert prof.max_rate() == 0.2

    def test_validation(self):
        with pytest.raises(ValueError, match="non-overlapping"):
            RateProfile.modulated(0.0, [(0, 10, 0.1), (5, 15, 0.1)])
        with pytest.raises(ValueError, match=">= 0"):
            RateProfile.constant(-0.1)
        with pytest.raises(ValueError, match="kind"):
            RateProfile(kind="sinusoidal", base_rate=0.1)

    @pytest.mark.parametrize("base, segment", [
        (0.1, (0.0, 10.0, math.inf)),
        (0.1, (0.0, math.nan, 0.2)),
        (0.1, (0.0, 10.0, math.nan)),
        (0.1, (math.nan, 10.0, 0.2)),
        (0.1, (-math.inf, 10.0, 0.2)),
        (0.1, (0.0, math.inf, 0.2)),
        (math.nan, (0.0, 10.0, 0.2)),
        (math.inf, (0.0, 10.0, 0.2)),
    ])
    def test_non_finite_rates_and_bounds_are_rejected(self, base, segment):
        """A segment rate of inf once made generate_poisson loop forever; NaN passed every check."""
        with pytest.raises(ValueError, match="finite"):
            RateProfile.modulated(base, [segment])

    @settings(max_examples=60, deadline=None)
    @given(case=poisson_cases(), data=st.data())
    def test_rates_at_matches_per_point_lookup_at_edges(self, case, data):
        prof = case[0]
        edges = [b for seg in prof.segments for b in (seg.start_ms, seg.end_ms)]
        points = [p for b in edges for p in (np.nextafter(b, -np.inf), b, np.nextafter(b, np.inf))]
        points += data.draw(st.lists(st.floats(-10.0, 4000.0), max_size=10))
        want = [rate_at(prof, t) for t in points]
        assert prof.rates_at(np.array(points, dtype=float)).tolist() == want


class TestGeneratePoisson:
    def test_zero_rate_empty(self):
        train = generate_poisson(RateProfile.constant(0.0), 100.0, seed=1)
        assert len(train) == 0

    def test_reproducible(self):
        prof = RateProfile.constant(0.1)
        a = generate_poisson(prof, 1000.0, seed=42, link_id=3)
        b = generate_poisson(prof, 1000.0, seed=42, link_id=3)
        assert np.array_equal(a.times, b.times)
        c = generate_poisson(prof, 1000.0, seed=42, link_id=4)
        assert not np.array_equal(a.times, c.times)

    def test_frozen_stream_sentinel(self):
        # Philox(key=(7, 0)) through the inverse-CDF transform; pinned so a
        # silent generator change breaks loudly
        train = generate_poisson(RateProfile.constant(0.1), 100.0, seed=7)
        assert train.times[0] == pytest.approx(20.56299045571569, rel=1e-12)

    def test_count_within_three_sigma(self):
        rate, horizon = 0.1, 1e5
        train = generate_poisson(RateProfile.constant(rate), horizon, seed=2024)
        mean = rate * horizon
        assert abs(len(train) - mean) < 3 * math.sqrt(mean)

    def test_zero_rate_segment_never_spikes(self):
        prof = RateProfile.modulated(0.3, [(100.0, 200.0, 0.0)])
        train = generate_poisson(prof, 1000.0, seed=5)
        inside = (train.times >= 100.0) & (train.times < 200.0)
        assert not inside.any()
        assert len(train) > 0

    def test_interarrival_ks_against_exponential(self):
        rate, n = 0.2, 10_000
        horizon = (n + 1000) / rate
        train = generate_poisson(RateProfile.constant(rate), horizon, seed=99)
        gaps = np.diff(train.times)[:n]
        assert gaps.size == n
        gaps.sort()
        cdf = 1.0 - np.exp(-rate * gaps)
        empirical_hi = np.arange(1, n + 1) / n
        empirical_lo = np.arange(0, n) / n
        d = max(np.abs(empirical_hi - cdf).max(), np.abs(cdf - empirical_lo).max())
        critical = 1.6276 / math.sqrt(n)  # alpha = 0.01
        assert d < critical

    def test_superposition(self):
        horizon = 2e4
        r1, r2 = 0.05, 0.12
        t1 = generate_poisson(RateProfile.constant(r1), horizon, seed=10, link_id=0)
        t2 = generate_poisson(RateProfile.constant(r2), horizon, seed=10, link_id=1)
        merged = merge_trains([t1, t2])
        mean = (r1 + r2) * horizon
        assert abs(len(merged) - mean) < 3 * math.sqrt(mean)

    def test_invalid_horizon(self):
        with pytest.raises(ValueError):
            generate_poisson(RateProfile.constant(0.1), 0.0, seed=1)
        for horizon in (math.inf, math.nan):
            with pytest.raises(ValueError, match="finite"):
                generate_poisson(RateProfile.constant(0.1), horizon, seed=1)

    @pytest.mark.parametrize("block", [1, 2, 3, spikes.SPIKE_BLOCK])
    @settings(max_examples=40, deadline=None)
    @given(case=poisson_cases())
    def test_block_draws_equal_one_at_a_time(self, block, case):
        """Blocks of any size, small ones carrying the last time across many blocks,
        give the bits of the one-at-a-time draws."""
        profile, horizon, seed, link = case
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(spikes, "SPIKE_BLOCK", block)
            train = generate_poisson(profile, horizon, seed, link)
        want = one_at_a_time(profile, horizon, seed, link)
        assert train.times.tobytes() == want.tobytes()

    @pytest.mark.parametrize("profile", [
        RateProfile.constant(12.0),
        RateProfile.modulated(3.0, [(100.0, 400.0, 12.0), (400.0, 900.0, 0.0)]),
    ])
    def test_trains_longer_than_one_block_equal_one_at_a_time(self, profile):
        """12 candidates per ms over 1000 ms take two blocks of SPIKE_BLOCK."""
        assert 8192 == spikes.SPIKE_BLOCK < 12.0 * 1000.0
        train = generate_poisson(profile, 1000.0, seed=2**64 - 3, link_id=2)
        assert train.times.tobytes() == one_at_a_time(profile, 1000.0, 2**64 - 3, 2).tobytes()

    def test_threads_drawing_at_once_match_serial_draws(self):
        """Each thread re-keys its own generator, so trains drawn concurrently, each of
        several blocks, equal serial draws."""
        from concurrent.futures import ThreadPoolExecutor

        prof = RateProfile.modulated(0.2, [(50.0, 300.0, 4.0), (300.0, 320.0, 0.0)])
        seeds = [2**63 + k if k % 2 else k for k in range(24)]

        def draw(seed):
            return generate_poisson(prof, 4000.0, seed, link_id=seed % 5).times.tobytes()

        serial = [draw(seed) for seed in seeds]
        with ThreadPoolExecutor(max_workers=4) as pool:
            parallel = list(pool.map(draw, seeds))
        assert parallel == serial


class TestMergeTrains:
    def test_single_train_passthrough(self):
        t = generate_poisson(RateProfile.constant(0.1), 500.0, seed=8)
        merged = merge_trains([t])
        assert [e[0] for e in merged] == list(t.times)

    def test_disjoint_concatenation(self):
        a = SpikeTrain(0, np.array([1.0, 2.0]), 100.0)
        b = SpikeTrain(1, np.array([50.0, 60.0]), 100.0)
        assert merge_trains([b, a]) == [(1.0, 0), (2.0, 0), (50.0, 1), (60.0, 1)]

    def test_tie_breaks_on_lower_link(self):
        a = SpikeTrain(2, np.array([5.0]), 10.0)
        b = SpikeTrain(1, np.array([5.0]), 10.0)
        assert merge_trains([a, b]) == [(5.0, 1), (5.0, 2)]

    def test_mismatched_horizons_error(self):
        a = SpikeTrain(0, np.array([1.0]), 10.0)
        b = SpikeTrain(1, np.array([1.0]), 20.0)
        with pytest.raises(ValueError, match="mismatched horizons"):
            merge_trains([a, b])


@settings(max_examples=30, deadline=None)
@given(
    times_by_link=st.lists(
        st.lists(st.floats(0.0, 99.0), unique=True, max_size=20), min_size=1, max_size=4
    )
)
def test_merge_is_sorted_and_complete(times_by_link):
    trains = [
        SpikeTrain(link, np.array(sorted(times)), 100.0)
        for link, times in enumerate(times_by_link)
    ]
    merged = merge_trains(trains)
    assert merged == sorted(merged)
    assert len(merged) == sum(len(t) for t in trains)


class TestSpikeTrainInvariants:
    def test_strictly_increasing_enforced(self):
        with pytest.raises(ValueError, match="strictly increasing"):
            SpikeTrain(0, np.array([1.0, 1.0]), 10.0)

    def test_bounds_enforced(self):
        with pytest.raises(ValueError, match="horizon"):
            SpikeTrain(0, np.array([10.0]), 10.0)


class TestCsvRoundTrip:
    def test_round_trip(self, tmp_path):
        trains = [
            generate_poisson(RateProfile.constant(0.1), 200.0, seed=77, link_id=k)
            for k in range(3)
        ]
        path = tmp_path / "spikes.csv"
        write_spike_csv(trains, path)
        back = read_spike_csv(path, 200.0)
        assert len(back) == 3
        for orig, loaded in zip(trains, back):
            assert orig.link_id == loaded.link_id
            assert np.array_equal(orig.times, loaded.times)

    def test_header_check(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("a,b\n1,2\n")
        with pytest.raises(ValueError, match="header"):
            read_spike_csv(path, 10.0)
