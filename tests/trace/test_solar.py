"""Tests for the synthetic solar trace generator."""

import hashlib

import numpy as np
import pytest

from repro.env.activity import CROWDED, LESS_CROWDED, MORE_CROWDED
from repro.errors import TraceError
from repro.trace.solar import SolarTraceConfig, SolarTraceGenerator


#: sha256 over the float64 bytes of (times, powers, cum_energy,
#: energy_per_period), keyed by (cells, seed, days).  Recorded from the
#: rng.choice-based generator; any rewrite must reproduce them exactly.
GOLDEN_DIGESTS = {
    (1, 0, 1): "a9d52cd77a2f6bca2bdc1073b2528786b9b603d3e196b412a0a973d82bd66fc5",
    (1, 0, 3): "10f1e42d46a1e654a982992b436877572ff6950d380af28efc7508e652988425",
    (1, 1, 1): "ea74893eb0554ce48dbd5ec4c9f6489c75a0f367d4a5187b7fa2265bf4b5c62b",
    (1, 1, 3): "e2d436ce24286621eaf465fe479eed114feda228739af9209d26fe7079c2e1ec",
    (1, 12345, 1): "6bf86a416fa444a0d2a899533cce37b75c9475a350c8c5241940fb5e89e1fa36",
    (1, 12345, 3): "ce9e80dbb02871728db7d8afc4bfe28325c7d87c7ec12ec97a36c59aa50f1646",
    (6, 0, 1): "ef85f0d21f5b62e9fb5b4c8f6d5ca6b87ac49d0ea856d3e7b316c45cbd8b508b",
    (6, 0, 3): "386725fbec79bdcbd87b3747d14305d8b6a823d38b7ed96240251f64e0e7c152",
    (6, 1, 1): "698833f1acc5faef52273af8743b74ecad153635a7125d93991af27c1a28db34",
    (6, 1, 3): "61ea5b96d5fc846e9c7a4e5ba9322cdf043536d38e0511a665940546d70b7d35",
    (6, 12345, 1): "97bf975027a970120a0bd8d023a58bcbe65bd58a8edea256a3d6c2202b179255",
    (6, 12345, 3): "14fdecb4bfa3442a9e1503db0000b79411ea28d26b64b3caa9ad8986c1ced6b7",
    (10, 0, 1): "8075d630f97219e6d3a478e70ebed8d459aa21670ea2c0d95985c309463ce2a1",
    (10, 0, 3): "170aa46d95acd642a201dc83092d0dddff65649ad5d8dba6b3526986aee535ab",
    (10, 1, 1): "8af07d78bc9262ba44f45048125cf20839c641e99b79a22551bd713484ae78c9",
    (10, 1, 3): "56d4fc5b0c071b0c35cfb2b29a4313449c41122b213223cafa6c789bde9112c3",
    (10, 12345, 1): "81da73aac6626ec756a25b278a7ac49576c61df85b1a8aca9ecbaa9630de1863",
    (10, 12345, 3): "f1341967d3fb8a89befc1da9e6816418a19c86d6981cb4be1ef74bb858173938",
}

ENVIRONMENTS = {"less": LESS_CROWDED, "crowded": CROWDED, "more": MORE_CROWDED}

#: sha256 over the bytes of a 40-event schedule's (starts, durations,
#: interesting) columns and its two differencing probabilities, keyed by
#: (environment, seed).  The solar trace's companion input: every run
#: replays one of each.
SCHEDULE_DIGESTS = {
    ("less", 0): "5b8ff0e5fc648e39e25651f22c18ac1fdc70b17407c84aa62dd6bcfd67bc7461",
    ("less", 1): "b973edc8de8e1a7932a97dc014838f61715a3de72a5cdfa5919a948a19edf6a5",
    ("crowded", 0): "f6dee5691574c482f12edaf8915028d771b3a98f8d5ea0f7e8e3300265f8721f",
    ("crowded", 1): "4e098258afef0bee26e8a52de298462688d327aa3cc1286b6cafe3126a7af267",
    ("more", 0): "7a2af8d28180e05b99850b9ecb08243897781c4f740adcf6acfa285322db2837",
    ("more", 1): "bca109b048354bbf0613f4b3cb7e698bb3395488da6168b6d0d6a450dae04ae0",
}


class TestConfigValidation:
    def test_defaults_valid(self):
        SolarTraceConfig()

    def test_rejects_zero_cells(self):
        with pytest.raises(TraceError):
            SolarTraceConfig(cells=0)

    def test_rejects_bad_daylight_fraction(self):
        with pytest.raises(TraceError):
            SolarTraceConfig(daylight_fraction=0.0)
        with pytest.raises(TraceError):
            SolarTraceConfig(daylight_fraction=1.5)

    def test_rejects_bad_transition_matrix(self):
        with pytest.raises(TraceError):
            SolarTraceConfig(
                cloud_transition=((1.0, 0.0, 0.1), (0.3, 0.4, 0.3), (0.1, 0.4, 0.5))
            )

    @pytest.mark.parametrize(
        "row",
        [
            # Within np.allclose's tolerance, outside Generator.choice's.
            (0.55, 0.35, 0.10 + 5e-6),
            (0.55, 0.35, float("nan")),
            (0.55, 0.55, -0.10),
        ],
    )
    def test_rejects_row_choice_would_refuse(self, row):
        with pytest.raises(TraceError):
            SolarTraceConfig(
                cloud_transition=(row, (0.3, 0.4, 0.3), (0.15, 0.45, 0.40))
            )

    def test_accepts_row_within_choice_tolerance(self):
        rows = ((0.55, 0.35, 0.10 + 1e-9), (0.3, 0.4, 0.3), (0.15, 0.45, 0.40))
        SolarTraceGenerator(SolarTraceConfig(cloud_transition=rows), seed=1).generate()

    def test_rejects_negative_flicker(self):
        with pytest.raises(TraceError):
            SolarTraceConfig(flicker_sigma=-0.1)

    def test_peak_power_scales_with_cells(self):
        base = SolarTraceConfig(cells=1).peak_power_w
        assert SolarTraceConfig(cells=6).peak_power_w == pytest.approx(6 * base)


class TestGeneration:
    def test_deterministic_in_seed(self):
        a = SolarTraceGenerator(seed=7).generate()
        b = SolarTraceGenerator(seed=7).generate()
        times = np.linspace(0, 1800, 50)
        assert [a.power(t) for t in times] == [b.power(t) for t in times]

    def test_different_seeds_differ(self):
        a = SolarTraceGenerator(seed=1).generate()
        b = SolarTraceGenerator(seed=2).generate()
        times = np.linspace(0, 1800, 200)
        assert any(a.power(t) != b.power(t) for t in times)

    def test_repeats_with_day_period(self):
        cfg = SolarTraceConfig()
        trace = SolarTraceGenerator(cfg, seed=3).generate()
        assert trace.period == pytest.approx(cfg.day_length_s)

    def test_night_floor_respected(self):
        cfg = SolarTraceConfig(night_floor_w=2e-3)
        trace = SolarTraceGenerator(cfg, seed=3).generate()
        assert trace.min_power >= 2e-3

    def test_power_never_exceeds_plausible_peak(self):
        cfg = SolarTraceConfig(flicker_sigma=0.0)
        trace = SolarTraceGenerator(cfg, seed=5).generate()
        assert trace.max_power <= cfg.peak_power_w * 1.0 + 1e-12

    def test_night_exists(self):
        cfg = SolarTraceConfig()
        trace = SolarTraceGenerator(cfg, seed=4).generate()
        # Sample the night window: power should be at the floor.
        night_t = cfg.day_length_s * (cfg.daylight_fraction + 0.1)
        assert trace.power(night_t) == pytest.approx(cfg.night_floor_w)

    def test_multiple_days(self):
        cfg = SolarTraceConfig()
        trace = SolarTraceGenerator(cfg, seed=6).generate(days=3)
        assert trace.period == pytest.approx(3 * cfg.day_length_s)

    def test_rejects_zero_days(self):
        with pytest.raises(TraceError):
            SolarTraceGenerator(seed=1).generate(days=0)

    def test_spans_useful_power_range(self):
        """The default trace must straddle the workload's operating powers.

        Quetzal's story requires periods where recharge dominates (P_in
        below ML power) and periods where execution dominates (P_in above
        the radio crossover); see DESIGN.md.
        """
        trace = SolarTraceGenerator(seed=1).generate()
        assert trace.min_power < 0.010  # below ML operating power
        assert trace.max_power > 0.120  # above the EA-SJF radio crossover


class TestGoldenDigests:
    @pytest.mark.parametrize("cells,seed,days", sorted(GOLDEN_DIGESTS))
    def test_output_bytes_unchanged(self, cells, seed, days):
        config = SolarTraceConfig(cells=cells)
        trace = SolarTraceGenerator(config, seed=seed).generate(days=days)
        digest = hashlib.sha256()
        for array in (trace._times, trace._powers, trace._cum_energy):
            digest.update(np.ascontiguousarray(array, dtype=np.float64).tobytes())
        digest.update(np.float64(trace._energy_per_period).tobytes())
        assert digest.hexdigest() == GOLDEN_DIGESTS[(cells, seed, days)]

    @pytest.mark.parametrize("env,seed", sorted(SCHEDULE_DIGESTS))
    def test_event_schedule_bytes_unchanged(self, env, seed):
        schedule = ENVIRONMENTS[env].generator.generate(40, seed=seed)
        starts, durations, interesting = schedule.arrays()
        digest = hashlib.sha256()
        for array in (starts, durations):
            digest.update(np.ascontiguousarray(array, dtype=np.float64).tobytes())
        digest.update(np.ascontiguousarray(interesting, dtype=np.bool_).tobytes())
        digest.update(np.float64(schedule.diff_probability).tobytes())
        digest.update(np.float64(schedule.background_diff_probability).tobytes())
        assert digest.hexdigest() == SCHEDULE_DIGESTS[(env, seed)]


def choice_cloud_factor(cfg, n, rng):
    """The cloud chain as first written, with ``rng.choice`` per draw."""
    attn = np.asarray(cfg.cloud_attenuation, dtype=float)
    transition = np.asarray(cfg.cloud_transition, dtype=float)
    mean_dwell_samples = max(1.0, cfg.cloud_dwell_mean_s / cfg.sample_period_s)
    factors = np.empty(n, dtype=float)
    state = 0
    i = 0
    while i < n:
        dwell = max(1, int(round(rng.exponential(mean_dwell_samples))))
        j = min(n, i + dwell)
        factors[i:j] = attn[state]
        i = j
        state = int(rng.choice(3, p=transition[state]))
    return factors


class TestCloudDraw:
    @pytest.mark.parametrize("seed", range(12))
    def test_matches_choice_reference(self, seed):
        draw = np.random.default_rng(1000 + seed)
        rows = [tuple(row) for row in draw.dirichlet((0.5, 0.5, 0.5), size=3)]
        rows[seed % 3] = ((1.0, 0.0, 0.0), (0.0, 1.0, 0.0), (0.0, 0.0, 1.0))[seed % 3]
        cfg = SolarTraceConfig(cloud_transition=tuple(rows), cloud_dwell_mean_s=3.0)
        ours, theirs = np.random.default_rng(seed), np.random.default_rng(seed)
        factors = SolarTraceGenerator(cfg)._cloud_factor(2000, ours)
        assert np.array_equal(factors, choice_cloud_factor(cfg, 2000, theirs))
        assert ours.bit_generator.state == theirs.bit_generator.state
