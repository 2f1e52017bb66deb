"""Tests for the RunMetrics derived quantities and the exact rollups."""

import hashlib
import json
from fractions import Fraction

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from repro.sim.metrics import MetricsRollup, RunMetrics, StreamingDistribution

#: Any finite double, including negatives, zeros, subnormals and huge values.
DOUBLES = st.floats(allow_nan=False, allow_infinity=False)


class TestDerived:
    def metrics(self):
        m = RunMetrics()
        m.captures_interesting = 100
        m.ibo_drops_interesting = 20
        m.false_negatives = 10
        m.packets_interesting_high = 40
        m.packets_interesting_low = 25
        m.leftover_interesting = 5
        return m

    def test_discarded_total(self):
        assert self.metrics().interesting_discarded_total == 35

    def test_discarded_fraction(self):
        assert self.metrics().interesting_discarded_fraction == pytest.approx(0.35)

    def test_component_fractions(self):
        m = self.metrics()
        assert m.ibo_discarded_fraction == pytest.approx(0.20)
        assert m.false_negative_fraction == pytest.approx(0.10)

    def test_reported(self):
        m = self.metrics()
        assert m.reported_interesting == 65
        assert m.reported_interesting_high_quality == 40

    def test_high_quality_fraction(self):
        assert self.metrics().high_quality_fraction == pytest.approx(40 / 65)

    def test_packets_total(self):
        m = self.metrics()
        m.packets_uninteresting_high = 3
        m.packets_uninteresting_low = 2
        assert m.packets_total == 70

    def test_zero_division_guards(self):
        empty = RunMetrics()
        assert empty.interesting_discarded_fraction == 0.0
        assert empty.high_quality_fraction == 0.0
        assert empty.ibo_discarded_fraction == 0.0
        assert empty.mean_abs_prediction_error_s == 0.0

    def test_prediction_error_mean(self):
        m = RunMetrics()
        m.prediction_count = 4
        m.prediction_abs_error_s = 8.0
        assert m.mean_abs_prediction_error_s == pytest.approx(2.0)

    def test_option_use_recording(self):
        m = RunMetrics()
        m.record_option_use("ml", "hq")
        m.record_option_use("ml", "hq")
        m.record_option_use("ml", "lq")
        assert m.option_use == {"ml": {"hq": 2, "lq": 1}}

    def test_to_dict_keys_stable(self):
        keys = set(RunMetrics().to_dict())
        assert {"discarded_fraction", "reported_hq", "ibo_drops", "jobs_completed"} <= keys


class TestStreamingDistribution:
    def test_mean_and_std_are_exact(self):
        from repro.sim.metrics import StreamingDistribution

        d = StreamingDistribution()
        for value in (0.1, 0.2, 0.3, 0.4):
            d.observe(value)
        assert d.mean() == pytest.approx(0.25)
        assert d.std() == pytest.approx((0.0125) ** 0.5)

    def test_merge_is_associative_and_exact(self):
        from repro.sim.metrics import StreamingDistribution

        # Floating-point folding of these values is grouping-dependent;
        # the distribution must not be.
        values = [0.1, 0.7, 1e-9, 0.3333333333333333, 0.9999999, 0.2]
        whole = StreamingDistribution()
        for v in values:
            whole.observe(v)
        left, right = StreamingDistribution(), StreamingDistribution()
        for v in values[:2]:
            left.observe(v)
        for v in values[2:]:
            right.observe(v)
        left.merge(right)
        assert left == whole
        assert left.to_dict() == whole.to_dict()

    def test_percentiles_nearest_rank(self):
        from repro.sim.metrics import StreamingDistribution

        d = StreamingDistribution()
        for i in range(100):
            d.observe(i / 100.0)
        # Bin edges quantize upward: p50 lands in the bin holding 0.49.
        assert 0.45 <= d.percentile(50.0) <= 0.55
        assert d.percentile(99.0) >= 0.95
        assert StreamingDistribution().percentile(50.0) == 0.0

    def test_all_zero_percentiles_are_exactly_zero(self):
        from repro.sim.metrics import StreamingDistribution

        # Exact boundary population: every observation sits on a bin edge.
        # Reporting the holding bin's upper edge (the old behaviour) would
        # turn a fleet of perfect devices into "p99 = 1/256"; the lower
        # edge plus the min/max clamp reports 0.0 exactly.
        d = StreamingDistribution()
        for _ in range(200):
            d.observe(0.0)
        assert d.percentile(50.0) == 0.0
        assert d.percentile(99.0) == 0.0
        assert d.percentile(100.0) == 0.0

    def test_single_bin_percentile_is_the_observed_value(self):
        from repro.sim.metrics import StreamingDistribution

        # All mass in one interior bin: the clamp recovers the exact value,
        # not either bin edge.
        d = StreamingDistribution()
        for _ in range(7):
            d.observe(0.3)
        assert d.percentile(1.0) == 0.3
        assert d.percentile(99.0) == 0.3
        # The upper boundary value is representable too (the last bin is
        # closed): an all-1.0 population reports 1.0, not 255/256.
        top = StreamingDistribution()
        top.observe(1.0)
        assert top.percentile(50.0) == 1.0

    def test_percentile_clamps_into_observed_range(self):
        from repro.sim.metrics import StreamingDistribution

        d = StreamingDistribution()
        for v in (0.30, 0.31, 0.32):
            d.observe(v)
        # 1/256 bins cannot resolve these, but the answer can never leave
        # the exact observed [min, max].
        for q in (1.0, 50.0, 99.0):
            assert 0.30 <= d.percentile(q) <= 0.32

    def test_out_of_range_observation_rejected(self):
        from repro.errors import SimulationError
        from repro.sim.metrics import StreamingDistribution

        d = StreamingDistribution()
        with pytest.raises(SimulationError):
            d.observe(1.0000001)
        with pytest.raises(SimulationError):
            d.observe(-0.1)
        assert d.count == 0
        assert d.bins == [0] * StreamingDistribution.BIN_COUNT

    def test_round_trips_through_dict(self):
        from repro.sim.metrics import StreamingDistribution

        d = StreamingDistribution()
        for v in (0.25, 0.5, 0.5):
            d.observe(v)
        assert StreamingDistribution.from_dict(d.to_dict()) == d
        assert StreamingDistribution.from_dict(d.to_dict()).vmin == 0.25
        assert StreamingDistribution.from_dict(d.to_dict()).vmax == 0.5


class TestMetricsRollup:
    def sample(self, discards: int) -> RunMetrics:
        m = RunMetrics()
        m.captures_interesting = 10
        m.ibo_drops_interesting = discards
        m.packets_interesting_high = 10 - discards
        m.energy_consumed_j = 0.125 * discards
        return m

    def test_observe_then_mean(self):
        from repro.sim.metrics import MetricsRollup

        r = MetricsRollup()
        r.observe(self.sample(2))
        r.observe(self.sample(4))
        assert r.runs == 2
        assert r.mean("energy_consumed_j") == pytest.approx(0.375)
        assert r.counters["captures_interesting"] == 20

    def test_merge_matches_serial_fold_exactly(self):
        from repro.sim.metrics import MetricsRollup

        samples = [self.sample(k) for k in (1, 2, 3, 4, 5)]
        serial = MetricsRollup()
        for s in samples:
            serial.observe(s)
        a, b = MetricsRollup(), MetricsRollup()
        for s in samples[:2]:
            a.observe(s)
        for s in samples[2:]:
            b.observe(s)
        a.merge(b)
        assert a == serial
        assert a.to_dict() == serial.to_dict()

    def test_round_trips_through_dict(self):
        from repro.sim.metrics import MetricsRollup

        r = MetricsRollup()
        r.observe(self.sample(3))
        assert MetricsRollup.from_dict(r.to_dict()) == r

    def test_summary_has_distribution_stats(self):
        from repro.sim.metrics import MetricsRollup

        r = MetricsRollup()
        r.observe(self.sample(2))
        summary = r.summary()
        assert summary["runs"] == 1
        assert "discarded_fraction_mean" in summary
        assert "discarded_fraction_p99" in summary


def rollup_of(values) -> MetricsRollup:
    rollup = MetricsRollup()
    for value in values:
        m = RunMetrics()
        m.prediction_error_s = value
        m.energy_harvested_j = abs(value)
        rollup.observe(m)
    return rollup


class TestExactSums:
    """The scaled-int accumulators equal exact Fraction sums."""

    @given(st.lists(DOUBLES, max_size=30))
    @example([5e-324, -5e-324, 0.0, -0.0, 1.7976931348623157e308, -1e-310])
    def test_rollup_sums_equal_fraction_sums(self, values):
        sums = rollup_of(values).sums
        assert sums["prediction_error_s"] == sum(map(Fraction, values), Fraction(0))
        assert sums["energy_harvested_j"] == sum(
            (abs(Fraction(v)) for v in values), Fraction(0)
        )

    @given(st.lists(st.floats(0.0, 1.0), max_size=30))
    @example([5e-324, 0.0, -0.0, 1.0, 2.2250738585072014e-308])
    def test_distribution_sums_equal_fraction_sums(self, values):
        dist = StreamingDistribution()
        for value in values:
            dist.observe(value)
        exact = [Fraction(v) for v in values]
        assert dist.total == sum(exact, Fraction(0))
        assert dist.total_sq == sum((v * v for v in exact), Fraction(0))
        assert StreamingDistribution.from_dict(dist.to_dict()) == dist

    @given(st.lists(DOUBLES, max_size=10), st.lists(DOUBLES, max_size=10),
           st.lists(DOUBLES, max_size=10))
    def test_merge_is_associative(self, a, b, c):
        left = rollup_of(a)
        left.merge(rollup_of(b))
        left.merge(rollup_of(c))
        right = rollup_of(b)
        right.merge(rollup_of(c))
        grouped = rollup_of(a)
        grouped.merge(right)
        serial = rollup_of(a + b + c)
        assert left == grouped == serial
        assert left.to_dict() == grouped.to_dict() == serial.to_dict()
        assert MetricsRollup.from_dict(serial.to_dict()) == serial

    def test_to_dict_bytes_unchanged_for_a_fixed_fold(self):
        # The digest was recorded from the Fraction-accumulator rollup.
        rollup = MetricsRollup()
        values = (0.1, -2.5e-7, 5e-324, 0.0, 1e300, -1e-310, 3.0, 2.0 / 3.0)
        for k, v in enumerate(values):
            m = RunMetrics()
            m.captures_interesting = 10
            m.ibo_drops_interesting = k % 4
            m.false_negatives = k % 3
            m.packets_interesting_high = 7 - k % 4
            m.sim_end_s = 3600.0 + v
            m.energy_harvested_j = abs(v)
            m.prediction_error_s = v
            m.policy_time_s = v / 3.0
            rollup.observe(m)
        text = json.dumps(rollup.to_dict(), sort_keys=True)
        assert hashlib.sha256(text.encode()).hexdigest() == (
            "14e90738232c885ebd82e68c97f661f5d841b02cb41de700549f71691190b926"
        )

    @pytest.mark.parametrize("pair, sq_pair", [
        ([1, 3], [1, 3]),
        ([1, 2 ** 1075], [1, 2 ** 2149]),  # finer than any double allows
        ([1, 0], [1, 0]),
        ([1, -2], [1, -2]),
    ])
    def test_from_dict_rejects_impossible_sums(self, pair, sq_pair):
        data = rollup_of([0.5]).to_dict()
        data["sums"]["prediction_error_s"] = pair
        with pytest.raises(ValueError):
            MetricsRollup.from_dict(data)
        data = rollup_of([0.5]).to_dict()
        data["dists"]["hq_fraction"]["total_sq"] = sq_pair
        with pytest.raises(ValueError):
            MetricsRollup.from_dict(data)
