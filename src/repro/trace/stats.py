"""Summary statistics of power traces.

Designers reason about an energy-harvesting deployment through a handful
of trace statistics: how much energy a day delivers, what fraction of the
time the harvester can sustain a given load, and the distribution of power
levels.  :func:`summarize` computes them over one period (or a given
horizon) by exact integration of the piecewise-constant trace.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import TraceError
from repro.trace.power_trace import PiecewiseConstantTrace

__all__ = ["TraceSummary", "summarize", "fraction_above", "percentile_power"]

#: Sampling resolution used for distribution statistics (seconds).
_SAMPLE_PERIOD_S = 1.0


def _horizon(trace: PiecewiseConstantTrace, duration_s: float | None) -> float:
    if duration_s is not None:
        if duration_s <= 0:
            raise TraceError("duration_s must be positive")
        return duration_s
    if trace.period is None:
        raise TraceError("duration_s is required for non-repeating traces")
    return trace.period


def _samples(trace: PiecewiseConstantTrace, duration_s: float) -> np.ndarray:
    n = max(2, int(round(duration_s / _SAMPLE_PERIOD_S)))
    times = (np.arange(n) + 0.5) * (duration_s / n)
    cursor = trace.cursor()  # the sample times increase monotonically
    return np.array([cursor.power(float(t)) for t in times])


def fraction_above(
    trace: PiecewiseConstantTrace, threshold_w: float, duration_s: float | None = None
) -> float:
    """Fraction of time the trace delivers at least ``threshold_w``.

    This is the designer's sustainability duty cycle: a task drawing
    ``threshold_w`` runs stall-free exactly this fraction of the time.
    """
    if threshold_w < 0:
        raise TraceError("threshold_w must be >= 0")
    horizon = _horizon(trace, duration_s)
    samples = _samples(trace, horizon)
    return float(np.mean(samples >= threshold_w))


def percentile_power(
    trace: PiecewiseConstantTrace, percentile: float, duration_s: float | None = None
) -> float:
    """The ``percentile``-th percentile of the power distribution (W)."""
    if not 0 <= percentile <= 100:
        raise TraceError("percentile must be in [0, 100]")
    horizon = _horizon(trace, duration_s)
    return float(np.percentile(_samples(trace, horizon), percentile))


@dataclass(frozen=True)
class TraceSummary:
    """One-period summary of a harvesting trace."""

    duration_s: float
    energy_j: float
    mean_power_w: float
    median_power_w: float
    p10_power_w: float
    p90_power_w: float
    min_power_w: float
    max_power_w: float

    def render(self) -> str:
        """Human-readable multi-line summary."""
        return (
            f"horizon        {self.duration_s:.0f} s\n"
            f"energy         {self.energy_j:.3f} J\n"
            f"mean power     {self.mean_power_w * 1e3:.2f} mW\n"
            f"median power   {self.median_power_w * 1e3:.2f} mW\n"
            f"p10 / p90      {self.p10_power_w * 1e3:.2f} / "
            f"{self.p90_power_w * 1e3:.2f} mW\n"
            f"min / max      {self.min_power_w * 1e3:.2f} / "
            f"{self.max_power_w * 1e3:.2f} mW"
        )


def summarize(
    trace: PiecewiseConstantTrace, duration_s: float | None = None
) -> TraceSummary:
    """Compute a :class:`TraceSummary` over one period (or ``duration_s``)."""
    horizon = _horizon(trace, duration_s)
    samples = _samples(trace, horizon)
    return TraceSummary(
        duration_s=horizon,
        energy_j=trace.integrate(0.0, horizon),
        mean_power_w=trace.integrate(0.0, horizon) / horizon,
        median_power_w=float(np.median(samples)),
        p10_power_w=float(np.percentile(samples, 10)),
        p90_power_w=float(np.percentile(samples, 90)),
        min_power_w=float(samples.min()),
        max_power_w=float(samples.max()),
    )
