"""Time-series telemetry for simulation runs.

The headline metrics (:class:`~repro.sim.metrics.RunMetrics`) are
aggregates; understanding *why* a run behaved as it did — the story told
by the paper's Figure 2a — needs the trajectories: buffer occupancy over
time, stored energy, input power, and the quality decisions taken.

:class:`TelemetryRecorder` is a trace sink: attached as the engine's
``tracer``, it keeps the ``capture`` and ``decision`` events as sample
lists cheap enough to leave enabled for paper-scale runs.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import ConfigurationError
from repro.obs.events import TraceEvent

__all__ = [
    "BufferSample",
    "DecisionSample",
    "DecisionPathStats",
    "TelemetryRecorder",
    "FleetRecorder",
]


@dataclass
class DecisionPathStats:
    """Work counters for the scheduler's cached decision path.

    Maintained by :class:`~repro.core.runtime.QuetzalRuntime` as its live
    ``decision_stats`` and surfaced through
    :class:`~repro.sim.metrics.RunMetrics`.  These count *implementation
    work*, not simulated behaviour: the simulation results are those of
    the stateless decision procedure whatever the cache-hit rate (the
    golden ``RunMetrics`` digests leave these counters out), and the
    counters are how the decision cost is observed.

    Attributes
    ----------
    decisions:
        Scheduling decisions made (Alg. 1 invocations).
    scored_candidates:
        Candidate jobs scored across all decisions; each candidate is
        scored exactly once per decision, so this is the Σ of per-decision
        candidate counts.
    cache_hits / cache_misses:
        Outcomes of the per-job decision memo, keyed on (estimator state,
        probability epoch, λ, free buffer space, PID correction).  A hit
        reuses a complete Alg.-2 evaluation (Eq.-1 scoring + IBO detection
        + degradation walk) without recomputing anything.
    score_table_rebuilds:
        Times a job's Eq.-1 score table (per-option S_e2e vector + the
        non-degradable E[S] sum + execution probabilities) had to be
        recomputed because the estimator state or a probability window
        changed.  Decision-memo misses whose score table was still valid
        (e.g. only the PID correction moved) skip this cost — the gap
        between ``cache_misses`` and ``score_table_rebuilds`` is work the
        Eq.-1 table cache saved.
    degradation_walks:
        Cache misses whose IBO detection fired, requiring a reaction walk.
    degradation_walk_steps:
        Total degradation options stepped across those walks (Alg. 2's
        option-list traversal length, summed).
    """

    decisions: int = 0
    scored_candidates: int = 0
    cache_hits: int = 0
    cache_misses: int = 0
    score_table_rebuilds: int = 0
    degradation_walks: int = 0
    degradation_walk_steps: int = 0

    def hit_rate(self) -> float:
        """Cache hits as a fraction of lookups (0 when never consulted)."""
        lookups = self.cache_hits + self.cache_misses
        if lookups == 0:
            return 0.0
        return self.cache_hits / lookups

    def mean_walk_length(self) -> float:
        """Mean degradation-walk length over walks taken (0 if none)."""
        if self.degradation_walks == 0:
            return 0.0
        return self.degradation_walk_steps / self.degradation_walks

    def accumulate(self, other: "DecisionPathStats") -> None:
        """Add another run's counters in (used by fleet-level rollups)."""
        self.decisions += other.decisions
        self.scored_candidates += other.scored_candidates
        self.cache_hits += other.cache_hits
        self.cache_misses += other.cache_misses
        self.score_table_rebuilds += other.score_table_rebuilds
        self.degradation_walks += other.degradation_walks
        self.degradation_walk_steps += other.degradation_walk_steps

    def as_dict(self) -> dict:
        return {
            "decisions": self.decisions,
            "scored_candidates": self.scored_candidates,
            "cache_hits": self.cache_hits,
            "cache_misses": self.cache_misses,
            "cache_hit_rate": self.hit_rate(),
            "score_table_rebuilds": self.score_table_rebuilds,
            "degradation_walks": self.degradation_walks,
            "degradation_walk_steps": self.degradation_walk_steps,
            "mean_walk_length": self.mean_walk_length(),
        }


@dataclass(frozen=True)
class BufferSample:
    """Device state observed at one capture tick.

    ``input_power_w`` and ``event_active`` are ``None`` on samples from
    the vector kernel, whose capture rows do not carry them.
    """

    t: float
    occupancy: int
    stored_energy_j: float
    input_power_w: float | None
    event_active: bool | None


@dataclass(frozen=True)
class DecisionSample:
    """One scheduling decision.

    ``ibo_predicted`` and ``predicted_service_s`` are ``None`` on samples
    from the vector kernel, whose decision rows do not carry them.
    """

    t: float
    job_name: str
    option_name: str
    degraded: bool
    ibo_predicted: bool | None
    predicted_service_s: float | None


class TelemetryRecorder:
    """A :class:`~repro.obs.TraceSink` that keeps Figure 2a's trajectories.

    Attach it as the engine's ``tracer``: ``capture`` events become
    :class:`BufferSample` rows and ``decision`` events
    :class:`DecisionSample` rows; every other kind is ignored.  The vector
    kernel's rows carry no ``power_w`` or ``event`` (captures) and no
    ``ibo_predicted`` or ``predicted_service_s`` (decisions); their
    samples hold ``None`` there.  The kernel also emits only active
    capture ticks, so its ``buffer_samples`` hold those alone, while
    :meth:`peak_occupancy` and :meth:`mean_occupancy` count active ticks
    on either kernel.

    Parameters
    ----------
    sample_every:
        Record every Nth capture sample (1 = all).  Decision samples are
        never thinned — they are the sparse, interesting ones.
    """

    def __init__(self, sample_every: int = 1) -> None:
        if sample_every < 1:
            raise ConfigurationError(f"sample_every must be >= 1, got {sample_every}")
        self.sample_every = sample_every
        self.buffer_samples: list[BufferSample] = []
        self.decisions: list[DecisionSample] = []
        self._capture_count = 0
        # Occupancy aggregates run over *every* active capture tick:
        # sampling thins the stored series only, never the statistics.
        self._occ_count = 0
        self._occ_peak = 0
        self._occ_sum = 0

    # -- TraceSink -----------------------------------------------------------------

    def emit(self, event: TraceEvent) -> None:
        data = event.data
        if event.kind == "capture":
            occupancy = data["occupancy"]
            self._capture_count += 1
            if data.get("active", True):
                self._occ_count += 1
                if occupancy > self._occ_peak:
                    self._occ_peak = occupancy
                self._occ_sum += occupancy
            if (self._capture_count - 1) % self.sample_every:
                return
            self.buffer_samples.append(
                BufferSample(
                    event.t, occupancy, data["energy_j"], data.get("power_w"),
                    data.get("event"),
                )
            )
        elif event.kind == "decision":
            self.decisions.append(
                DecisionSample(
                    event.t, data["job"], data["option"], data["degraded"],
                    data.get("ibo_predicted"), data.get("predicted_service_s"),
                )
            )

    # -- analysis helpers ----------------------------------------------------------

    def peak_occupancy(self) -> int:
        """Highest buffer occupancy an arriving input found.

        Counts only *active* capture ticks (those that produced an
        input): the occupancy that decides whether an input is blocked.
        Computed from every such ``capture`` event, not the (possibly
        thinned) stored series — ``sample_every`` never changes it.
        """
        return self._occ_peak

    def mean_occupancy(self) -> float:
        """Mean occupancy over active capture ticks (0 if none).

        Like :meth:`peak_occupancy`, kernel-independent and exact under
        any ``sample_every``.
        """
        if not self._occ_count:
            return 0.0
        return self._occ_sum / self._occ_count

    def degraded_fraction(self) -> float:
        """Fraction of decisions that ran a degraded option."""
        if not self.decisions:
            return 0.0
        return sum(1 for d in self.decisions if d.degraded) / len(self.decisions)

    def occupancy_series(self) -> tuple[list[float], list[int]]:
        """(times, occupancies) for plotting."""
        return (
            [s.t for s in self.buffer_samples],
            [s.occupancy for s in self.buffer_samples],
        )

    def power_series(self) -> tuple[list[float], list[float]]:
        """(times, input powers) for plotting."""
        return (
            [s.t for s in self.buffer_samples],
            [s.input_power_w for s in self.buffer_samples],
        )

    def windowed_processing_rate(
        self, window_s: float
    ) -> tuple[list[float], list[float]]:
        """(window end times, decisions per second) — Figure 2a's y-axis.

        Decisions approximate processed inputs; the rate varies with input
        power and event activity, which is the paper's motivating
        observation.
        """
        if window_s <= 0:
            raise ConfigurationError(f"window_s must be positive, got {window_s}")
        if not self.decisions:
            return [], []
        end = self.decisions[-1].t
        times, rates = [], []
        t = window_s
        idx = 0
        while t <= end + window_s:
            count = 0
            while idx < len(self.decisions) and self.decisions[idx].t < t:
                count += 1
                idx += 1
            times.append(t)
            rates.append(count / window_s)
            t += window_s
        return times, rates


class FleetRecorder:
    """A view of the last :class:`~repro.fleet.FleetResult` it was given.

    ``run_fleet(recorder=...)`` sets :attr:`result`, and
    :meth:`kernel_stats_total` reads that result's ``kernel_stats``.  It
    is kept only because ``perfbench/spans.py`` reads the kernel timing
    this way; everything else reads ``FleetResult.kernel_stats``.
    """

    def __init__(self) -> None:
        self.result = None

    def kernel_stats_total(self):
        """``result.kernel_stats``; None before any run."""
        return None if self.result is None else self.result.kernel_stats
