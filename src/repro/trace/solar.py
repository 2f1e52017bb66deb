"""Synthetic solar harvesting traces.

The paper replays a real outdoor solar dataset (Gorlatova et al. [32])
through a programmable supply into a BQ25504 harvester (section 6.2), scaled
as 6 cells of a commercial IXYS SM700K10L module (section 6.4) and swept over
cell counts in the sensitivity study (section 7.3).

We do not have the dataset, so this module synthesises traces with the same
qualitative structure (DESIGN.md, substitution table):

* a diurnal irradiance envelope (cosine-shaped daylight arc, zero at night),
* slow cloud dynamics modelled as a three-state Markov chain
  (clear / partly-cloudy / overcast) with dwell times of minutes,
* fast per-sample lognormal flicker.

The absolute scale is set so that a single cell peaks at
``peak_power_per_cell_w`` after harvester losses; the default per-cell peak
and the 6-cell reference produce input powers spanning well below to well
above the device's task operating powers, which is the regime where
energy-aware scheduling matters (paper sections 2.2 and 3.2).
"""

from __future__ import annotations

import bisect
import functools
from dataclasses import dataclass

import numpy as np

from repro.errors import TraceError
from repro.trace.power_trace import PiecewiseConstantTrace

__all__ = ["SolarTraceConfig", "SolarTraceGenerator"]

_ROW_SUM_ATOL = float(np.sqrt(np.finfo(np.float64).eps))


@dataclass(frozen=True)
class SolarTraceConfig:
    """Parameters of the synthetic solar trace generator.

    Attributes
    ----------
    cells:
        Number of harvester cells; output power scales linearly with this
        (paper section 7.3 sweeps 2-10 cells around the 6-cell default).
    peak_power_per_cell_w:
        Peak harvested power contributed by one cell under clear sky at
        solar noon, after harvester conversion losses.
    day_length_s:
        Length of one synthetic "day".  Real deployments see 86 400 s days;
        experiments compress this so multi-day dynamics fit in a run.
    daylight_fraction:
        Fraction of the day with non-zero irradiance.
    sample_period_s:
        Trace sampling resolution in seconds.
    cloud_dwell_mean_s:
        Mean dwell time in each cloud state.
    cloud_attenuation:
        Power multipliers for the (clear, partly, overcast) states.
    cloud_transition:
        Row-stochastic 3x3 transition matrix between cloud states, applied
        whenever a dwell expires.
    flicker_sigma:
        Standard deviation of the multiplicative lognormal flicker applied
        per sample (0 disables flicker).
    night_floor_w:
        Residual harvestable power at night (e.g. ambient indoor light);
        typically zero or a few microwatts.
    """

    cells: int = 6
    peak_power_per_cell_w: float = 50e-3
    day_length_s: float = 1800.0
    daylight_fraction: float = 0.75
    sample_period_s: float = 1.0
    cloud_dwell_mean_s: float = 60.0
    cloud_attenuation: tuple[float, float, float] = (1.0, 0.35, 0.08)
    cloud_transition: tuple[tuple[float, float, float], ...] = (
        (0.55, 0.35, 0.10),
        (0.30, 0.40, 0.30),
        (0.15, 0.45, 0.40),
    )
    flicker_sigma: float = 0.10
    night_floor_w: float = 6e-3

    def __post_init__(self) -> None:
        if self.cells < 1:
            raise TraceError(f"cells must be >= 1, got {self.cells}")
        if self.peak_power_per_cell_w <= 0:
            raise TraceError("peak_power_per_cell_w must be positive")
        if not 0 < self.daylight_fraction <= 1:
            raise TraceError("daylight_fraction must be in (0, 1]")
        if self.sample_period_s <= 0:
            raise TraceError("sample_period_s must be positive")
        if self.day_length_s < 2 * self.sample_period_s:
            raise TraceError("day_length_s must cover at least two samples")
        if len(self.cloud_attenuation) != 3:
            raise TraceError("cloud_attenuation needs exactly 3 states")
        rows = np.asarray(self.cloud_transition, dtype=float)
        if rows.shape != (3, 3):
            raise TraceError("cloud_transition must be 3x3")
        # The same tolerance ``Generator.choice`` applies to ``p``, so a
        # row accepted here is one the cloud-state draw treats as given.
        if (
            not np.all(np.isfinite(rows))
            or np.any(rows < 0)
            or np.any(np.abs(rows.sum(axis=1) - 1.0) > _ROW_SUM_ATOL)
        ):
            raise TraceError("cloud_transition rows must be probabilities summing to 1")
        if self.flicker_sigma < 0:
            raise TraceError("flicker_sigma must be non-negative")
        if self.night_floor_w < 0:
            raise TraceError("night_floor_w must be non-negative")

    @property
    def peak_power_w(self) -> float:
        """Clear-sky peak power (W) for the configured cell count."""
        return self.cells * self.peak_power_per_cell_w


@functools.lru_cache(maxsize=64)
def _clear_sky_power(cfg: SolarTraceConfig, n: int) -> np.ndarray:
    """Peak power times the cosine daylight arc at each of ``n`` samples.

    The arc is 0 at dawn/dusk and 1 at synthetic noon.  It depends only
    on the config, so a fleet's thousands of same-config traces share one
    read-only copy.
    """
    t_of_day = ((np.arange(n) + 0.5) * cfg.sample_period_s) % cfg.day_length_s
    daylight = cfg.daylight_fraction * cfg.day_length_s
    # Daylight occupies [0, daylight); night is the remainder of the day.
    phase = t_of_day / daylight  # in [0, 1) during daylight
    envelope = np.where(
        t_of_day < daylight,
        np.sin(np.pi * np.clip(phase, 0.0, 1.0)) ** 2,
        0.0,
    )
    power = cfg.peak_power_w * envelope
    power.setflags(write=False)
    return power


class SolarTraceGenerator:
    """Generates repeating synthetic solar power traces.

    The generator is deterministic given its seed, so every experiment can
    be reproduced exactly (paper section 6.2 stresses repeatability; we get
    it from seeded RNG instead of a secondary MCU).
    """

    def __init__(self, config: SolarTraceConfig | None = None, seed: int = 0) -> None:
        self.config = config or SolarTraceConfig()
        self.seed = seed

    def generate(self, days: int = 1) -> PiecewiseConstantTrace:
        """Generate ``days`` synthetic days and return a repeating trace."""
        return PiecewiseConstantTrace.from_samples(
            self.samples(days), self.config.sample_period_s, repeat=True
        )

    def samples(self, days: int = 1) -> np.ndarray:
        """The power samples (W) :meth:`generate` wraps into a trace.

        A fresh array, one sample per ``sample_period_s``; the trace store
        packs it without building the trace object.
        """
        if days < 1:
            raise TraceError(f"days must be >= 1, got {days}")
        cfg = self.config
        rng = np.random.default_rng(self.seed)
        n = int(round(days * cfg.day_length_s / cfg.sample_period_s))
        clouds = self._cloud_factor(n, rng)
        powers = _clear_sky_power(cfg, n) * clouds
        if cfg.flicker_sigma > 0:
            flicker = rng.lognormal(
                mean=-0.5 * cfg.flicker_sigma**2, sigma=cfg.flicker_sigma, size=n
            )
            powers = powers * flicker
        return np.maximum(powers, cfg.night_floor_w)

    # -- internals -----------------------------------------------------------

    def _cloud_factor(self, n: int, rng: np.random.Generator) -> np.ndarray:
        cfg = self.config
        attn = np.asarray(cfg.cloud_attenuation, dtype=float)
        # ``rng.choice(3, p=row)`` computes ``cdf = row.cumsum(); cdf /=
        # cdf[-1]``, draws one double ``u = rng.random()`` and returns
        # ``cdf.searchsorted(u, side="right")``.  ``bisect_right`` over the
        # same cdf values is that search, so each draw below consumes the
        # same double and yields the same state, without choice's ~15 us
        # of per-call argument checking.
        cdfs = []
        for row in np.asarray(cfg.cloud_transition, dtype=float):
            cdf = row.cumsum()
            cdf /= cdf[-1]
            cdfs.append(cdf.tolist())
        mean_dwell_samples = max(1.0, cfg.cloud_dwell_mean_s / cfg.sample_period_s)
        exponential, uniform = rng.exponential, rng.random
        bisect_right = bisect.bisect_right
        # The chain is drawn first and laid out by one ``np.repeat``.  Every
        # dwell takes its exponential and then its uniform draw, the last
        # dwell included, so the flicker draws that follow see the same
        # generator state.  ``round`` of a non-negative float is a
        # non-negative int, so ``or 1`` gives each dwell at least one sample.
        states = []
        dwells = []
        state = 0  # start clear
        i = 0
        while i < n:
            dwell = round(exponential(mean_dwell_samples)) or 1
            states.append(state)
            dwells.append(dwell)
            i += dwell
            state = bisect_right(cdfs[state], uniform())
        dwells[-1] -= i - n  # the last dwell stops at the trace's end
        return np.repeat(attn[states], dwells)
