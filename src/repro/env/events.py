"""Sensing-event schedules.

An :class:`Event` is an interval of environmental activity in front of the
sensor.  While an event is active, periodic captures produce 'different'
images (they pass the cheap pixel-diff filter and are stored); between
events, captures are discarded by the filter.  Interesting events produce
'interesting' inputs — the paper's figure of merit is how many of these the
system fails to report (section 7).

The paper draws event durations and interarrival gaps from the VIRAT
surveillance dataset [67]; we substitute bounded log-normal distributions
with per-environment duration caps matching Table 1 (see DESIGN.md).  The
paper notes "systems ... generated more interesting inputs the longer an
interesting event lasted", which falls out naturally from periodic sampling
of longer events.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass
from typing import Iterator, Sequence

import numpy as np

from repro.errors import ConfigurationError

__all__ = ["Event", "EventSchedule", "EventScheduleGenerator"]


@dataclass(frozen=True)
class Event:
    """One contiguous interval of sensed activity.

    Attributes
    ----------
    start:
        Event start time in seconds.
    duration:
        Event length in seconds (strictly positive).
    interesting:
        Whether the event contains application-relevant content (e.g. a
        person for the paper's person-detection app).
    """

    start: float
    duration: float
    interesting: bool

    def __post_init__(self) -> None:
        if self.start < 0:
            raise ConfigurationError(f"event start must be >= 0, got {self.start}")
        if self.duration <= 0:
            raise ConfigurationError(f"event duration must be > 0, got {self.duration}")

    @property
    def end(self) -> float:
        """Event end time in seconds (exclusive)."""
        return self.start + self.duration

    def active_at(self, t: float) -> bool:
        """True if the event is in progress at time ``t``."""
        return self.start <= t < self.end


class EventSchedule:
    """An ordered, non-overlapping sequence of events.

    Stored as three columns — float64 ``starts`` and ``durations`` and a
    bool ``interesting`` flag, in event order (:meth:`arrays`).  Point
    queries answer the two I/O pins of the paper's hardware methodology
    (section 6.2): *is any event active at time t, and is it
    interesting?*  :class:`Event` objects are built once, on the first
    iteration or index, and cached; the simulation engine reads the
    columns and never builds one.

    ``diff_probability`` is the probability that a capture taken *during an
    event* passes the pixel-differencing filter (i.e. the frame actually
    changed since the last one).  Subjects that pause or move slowly produce
    runs of unchanged frames, so not every in-event capture is 'different';
    this is what makes the buffer's arrival process stochastic rather than a
    0/1 burst and gives the tracked λ its meaning.

    ``background_diff_probability`` plays the same role for captures taken
    *outside* events: surveillance scenes are never perfectly still (wind,
    vehicles, lighting), so a fraction of quiet-time frames also pass the
    filter and enter the buffer as uninteresting inputs.  This background
    load is what keeps the arrival-rate tracker informative between events.
    """

    def __init__(
        self,
        events: Sequence[Event],
        diff_probability: float = 1.0,
        background_diff_probability: float = 0.0,
    ) -> None:
        if not 0.0 < diff_probability <= 1.0:
            raise ConfigurationError(
                f"diff_probability must be in (0, 1], got {diff_probability}"
            )
        if not 0.0 <= background_diff_probability <= 1.0:
            raise ConfigurationError(
                "background_diff_probability must be in [0, 1], got "
                f"{background_diff_probability}"
            )
        events = sorted(events, key=lambda e: e.start)
        starts = [e.start for e in events]
        durations = [e.duration for e in events]
        _check_events(starts, durations)
        self._init_columns(
            np.array(starts, dtype=np.float64),
            np.array(durations, dtype=np.float64),
            np.array([e.interesting for e in events], dtype=bool),
            diff_probability,
            background_diff_probability,
        )

    @classmethod
    def _from_arrays(
        cls,
        starts: np.ndarray,
        durations: np.ndarray,
        interesting: np.ndarray,
        diff_probability: float,
        background_diff_probability: float,
    ) -> "EventSchedule":
        """Rebuild a schedule from its column arrays without re-validation.

        The trace-store attach path: the arrays were persisted from an
        already-validated schedule (sorted, non-overlapping, positive
        durations), so the checks are skipped and the columns may stay
        views of the store's segment.
        """
        schedule = cls.__new__(cls)
        schedule._init_columns(
            np.asarray(starts, dtype=np.float64),
            np.asarray(durations, dtype=np.float64),
            np.asarray(interesting, dtype=bool),
            diff_probability,
            background_diff_probability,
        )
        return schedule

    def _init_columns(
        self, starts, durations, interesting, diff_probability,
        background_diff_probability,
    ) -> None:
        self.diff_probability = diff_probability
        self.background_diff_probability = background_diff_probability
        self._arrays = (starts, durations, interesting)
        self._events: tuple[Event, ...] | None = None
        self._lookup: tuple[list, list, list] | None = None

    def arrays(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``(starts, durations, interesting)`` column arrays.

        The layout the trace store persists and the vector kernel's event
        tables load from (``end = start + duration`` element-wise
        reproduces ``Event.end`` exactly).
        """
        return self._arrays

    def _lookup_lists(self) -> tuple[list, list, list]:
        """``(starts, ends, interesting)`` as Python lists, cached.

        The point queries' tables: ``ends`` is ``start + duration`` (the
        ``Event.end`` float op), and ``starts`` carries one trailing
        ``inf`` so a forward scan stops at the last event without a
        bounds check.
        """
        lookup = self._lookup
        if lookup is None:
            starts, durations, interesting = self._arrays
            lookup = self._lookup = (
                starts.tolist() + [math.inf],
                (starts + durations).tolist(),
                interesting.tolist(),
            )
        return lookup

    def __len__(self) -> int:
        return self._arrays[0].shape[0]

    def __iter__(self) -> Iterator[Event]:
        return iter(self.events)

    def __getitem__(self, idx: int) -> Event:
        return self.events[idx]

    @property
    def events(self) -> tuple[Event, ...]:
        """The schedule as :class:`Event` objects, built on first use."""
        events = self._events
        if events is None:
            starts, durations, interesting = self._arrays
            make, setattr_ = Event.__new__, object.__setattr__
            built = []
            for s, d, i in zip(
                starts.tolist(), durations.tolist(), interesting.tolist()
            ):
                ev = make(Event)
                setattr_(ev, "start", s)
                setattr_(ev, "duration", d)
                setattr_(ev, "interesting", i)
                built.append(ev)
            events = self._events = tuple(built)
        return events

    @property
    def end_time(self) -> float:
        """Time at which the last event ends (0 for an empty schedule)."""
        starts, durations, _ = self._arrays
        if starts.shape[0] == 0:
            return 0.0
        return float(starts[-1]) + float(durations[-1])

    @property
    def interesting_count(self) -> int:
        """Number of interesting events in the schedule."""
        return int(np.count_nonzero(self._arrays[2]))

    def event_at(self, t: float) -> Event | None:
        """Return the event active at time ``t``, or ``None``."""
        starts, ends, _ = self._lookup_lists()
        idx = bisect.bisect_right(starts, t, 0, len(ends)) - 1
        if idx >= 0 and t < ends[idx]:
            return self.events[idx]
        return None

    def active_at(self, t: float) -> bool:
        """'Different' pin: is any event in progress at ``t``?"""
        return self.event_at(t) is not None

    def interesting_at(self, t: float) -> bool:
        """'Interesting' pin: is an interesting event in progress at ``t``?"""
        ev = self.event_at(t)
        return ev is not None and ev.interesting

    def total_interesting_seconds(self) -> float:
        """Total duration (s) covered by interesting events."""
        _, durations, interesting = self._arrays
        return sum(
            d for d, i in zip(durations.tolist(), interesting.tolist()) if i
        )


def _check_events(starts: list, durations: list) -> None:
    """Reject start-sorted events that do not form a schedule: the
    :class:`Event` checks (start >= 0, duration > 0) and no overlap."""
    prev_end = -math.inf
    for start, duration in zip(starts, durations):
        if start < 0:
            raise ConfigurationError(f"event start must be >= 0, got {start}")
        if duration <= 0:
            raise ConfigurationError(f"event duration must be > 0, got {duration}")
        if start < prev_end:
            raise ConfigurationError(
                f"events overlap: one ends at {prev_end}, next starts at {start}"
            )
        prev_end = start + duration


@dataclass(frozen=True)
class EventScheduleGenerator:
    """Draws event schedules from bounded log-normal activity statistics.

    Parameters mirror the environment knobs the paper exposes: the *maximum
    interesting duration* cap that distinguishes the More Crowded / Crowded /
    Less Crowded settings (Table 1) and the interarrival statistics that set
    overall activity.

    Attributes
    ----------
    max_interesting_duration_s:
        Hard cap on interesting event duration (Table 1's per-environment
        knob: 600 s / 60 s / 20 s).
    duration_median_s:
        Median of the log-normal event duration distribution before capping.
    duration_sigma:
        Log-space standard deviation of event durations.
    interarrival_median_s:
        Median gap between the end of one event and the start of the next.
    interarrival_sigma:
        Log-space standard deviation of interarrival gaps.
    interesting_probability:
        Probability that an event is interesting.
    min_duration_s:
        Floor on event durations (at least one capture period so the event
        is observable at 1 FPS).
    diff_probability:
        Probability that an in-event capture passes the differencing filter
        (see :class:`EventSchedule`).
    """

    max_interesting_duration_s: float
    duration_median_s: float = 8.0
    duration_sigma: float = 1.0
    interarrival_median_s: float = 20.0
    interarrival_sigma: float = 1.0
    interesting_probability: float = 0.5
    min_duration_s: float = 1.0
    diff_probability: float = 0.35
    background_diff_probability: float = 0.2

    def __post_init__(self) -> None:
        if self.max_interesting_duration_s < self.min_duration_s:
            raise ConfigurationError(
                "max_interesting_duration_s must be >= min_duration_s"
            )
        for name in ("duration_median_s", "interarrival_median_s", "min_duration_s"):
            if getattr(self, name) <= 0:
                raise ConfigurationError(f"{name} must be positive")
        for name in ("duration_sigma", "interarrival_sigma"):
            if getattr(self, name) < 0:
                raise ConfigurationError(f"{name} must be non-negative")
        if not 0 <= self.interesting_probability <= 1:
            raise ConfigurationError("interesting_probability must be in [0, 1]")
        if not 0 < self.diff_probability <= 1:
            raise ConfigurationError("diff_probability must be in (0, 1]")
        if not 0 <= self.background_diff_probability <= 1:
            raise ConfigurationError("background_diff_probability must be in [0, 1]")

    def generate(self, n_events: int, seed: int = 0, start_time: float = 0.0) -> EventSchedule:
        """Generate ``n_events`` sequential events.

        Deterministic in ``seed``.  The first event starts after one
        interarrival gap from ``start_time``, matching a device deployed
        into a quiet scene.
        """
        if n_events < 0:
            raise ConfigurationError(f"n_events must be >= 0, got {n_events}")
        rng = np.random.default_rng(seed)
        gap_mu = np.log(self.interarrival_median_s)
        duration_mu = np.log(self.duration_median_s)
        starts: list[float] = []
        durations: list[float] = []
        interesting: list[bool] = []
        t = start_time
        for _ in range(n_events):
            gap = float(rng.lognormal(gap_mu, self.interarrival_sigma))
            interesting.append(bool(rng.random() < self.interesting_probability))
            duration = float(rng.lognormal(duration_mu, self.duration_sigma))
            duration = max(self.min_duration_s, duration)
            # Interesting durations are capped per Table 1; uninteresting
            # events use the same cap so environments differ only in the
            # advertised knob.
            duration = min(duration, self.max_interesting_duration_s)
            t += gap
            starts.append(t)
            durations.append(duration)
            t += duration
        _check_events(starts, durations)
        return EventSchedule._from_arrays(
            np.array(starts, dtype=np.float64),
            np.array(durations, dtype=np.float64),
            np.array(interesting, dtype=bool),
            self.diff_probability,
            self.background_diff_probability,
        )
