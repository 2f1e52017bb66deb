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
from dataclasses import dataclass
from typing import Iterator, Sequence

import numpy as np

from repro.errors import ConfigurationError

__all__ = ["Event", "EventSchedule", "EventCursor", "EventScheduleGenerator"]


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

    Provides O(log n) point queries used by the capture process: *is any
    event active at time t, and is it interesting?* — exactly the two I/O
    pins of the paper's hardware methodology (section 6.2).

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
        self.diff_probability = diff_probability
        self.background_diff_probability = background_diff_probability
        events = sorted(events, key=lambda e: e.start)
        for prev, cur in zip(events, events[1:]):
            if cur.start < prev.end:
                raise ConfigurationError(
                    f"events overlap: one ends at {prev.end}, next starts at {cur.start}"
                )
        self._events: tuple[Event, ...] = tuple(events)
        self._starts = [e.start for e in self._events]

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
        durations), so ordering checks and per-event ``__post_init__``
        validation are skipped.  The :class:`Event` tuple itself is
        materialized lazily on first access — the vector kernel reads
        only :meth:`arrays`, so store-backed lanes never pay for the
        per-event objects unless a scalar fallback needs them.
        """
        schedule = cls.__new__(cls)
        schedule.diff_probability = diff_probability
        schedule.background_diff_probability = background_diff_probability
        schedule._arrays = (
            np.asarray(starts, dtype=np.float64),
            np.asarray(durations, dtype=np.float64),
            np.asarray(interesting, dtype=bool),
        )
        return schedule

    def __getattr__(self, name: str):
        # Lazy materialization for _from_arrays instances; every other
        # missing attribute is a genuine AttributeError.
        if name == "_events":
            starts, durations, interesting = self._arrays
            make, setattr_ = Event.__new__, object.__setattr__
            events = []
            for s, d, i in zip(
                starts.tolist(), durations.tolist(), interesting.tolist()
            ):
                ev = make(Event)
                setattr_(ev, "start", s)
                setattr_(ev, "duration", d)
                setattr_(ev, "interesting", i)
                events.append(ev)
            self._events = value = tuple(events)
            return value
        if name == "_starts":
            value = [e.start for e in self._events]
            self._starts = value
            return value
        raise AttributeError(
            f"{type(self).__name__!r} object has no attribute {name!r}"
        )

    def arrays(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``(starts, durations, interesting)`` column arrays, cached.

        The canonical columnar view of the schedule: float64 start times
        and durations plus a bool interesting flag, in event order.  This
        is the layout the trace store persists and the vector kernel's
        event tables load from (``end = start + duration`` element-wise
        reproduces ``Event.end`` exactly).
        """
        cached = getattr(self, "_arrays", None)
        if cached is None:
            events = self._events
            cached = self._arrays = (
                np.array([e.start for e in events], dtype=np.float64),
                np.array([e.duration for e in events], dtype=np.float64),
                np.array([e.interesting for e in events], dtype=bool),
            )
        return cached

    def __len__(self) -> int:
        return len(self._events)

    def __iter__(self) -> Iterator[Event]:
        return iter(self._events)

    def __getitem__(self, idx: int) -> Event:
        return self._events[idx]

    @property
    def events(self) -> tuple[Event, ...]:
        return self._events

    @property
    def end_time(self) -> float:
        """Time at which the last event ends (0 for an empty schedule)."""
        arrays = getattr(self, "_arrays", None)
        if arrays is not None:
            # Store-attached path: float(start) + float(duration) is the
            # exact op sequence of Event.end, without materializing the
            # event tuple.
            starts, durations, _ = arrays
            if starts.shape[0] == 0:
                return 0.0
            return float(starts[-1]) + float(durations[-1])
        return self._events[-1].end if self._events else 0.0

    @property
    def interesting_count(self) -> int:
        """Number of interesting events in the schedule."""
        return sum(1 for e in self._events if e.interesting)

    def event_at(self, t: float) -> Event | None:
        """Return the event active at time ``t``, or ``None``."""
        idx = bisect.bisect_right(self._starts, t) - 1
        if idx < 0:
            return None
        ev = self._events[idx]
        return ev if ev.active_at(t) else None

    def active_at(self, t: float) -> bool:
        """'Different' pin: is any event in progress at ``t``?"""
        return self.event_at(t) is not None

    def interesting_at(self, t: float) -> bool:
        """'Interesting' pin: is an interesting event in progress at ``t``?"""
        ev = self.event_at(t)
        return ev is not None and ev.interesting

    def total_interesting_seconds(self) -> float:
        """Total duration (s) covered by interesting events."""
        return sum(e.duration for e in self._events if e.interesting)

    def cursor(self) -> "EventCursor":
        """An :class:`EventCursor` for O(1) amortized monotone point queries."""
        return EventCursor(self)


class EventCursor:
    """Stateful monotone-access view of an :class:`EventSchedule`.

    The capture process queries the schedule at strictly increasing times
    (one query per capture tick), so the active event index only ever moves
    forward, usually by zero or one.  The cursor caches that index and
    re-validates it with two comparisons; queries that jump backward (or far
    ahead) fall back to ``bisect`` and re-seed the cache.  ``event_at``
    always returns what :meth:`EventSchedule.event_at` does.
    """

    __slots__ = ("schedule", "_events", "_starts", "_ends", "_n", "_idx")

    def __init__(self, schedule: EventSchedule) -> None:
        self.schedule = schedule
        self._events = schedule._events
        self._starts = schedule._starts
        # Pre-resolved end times: Event.end is a computed property, and the
        # capture loop asks "still active?" once per tick, so paying the
        # start+duration addition once here keeps the per-query cost at two
        # float compares.
        self._ends = [e.start + e.duration for e in self._events]
        self._n = len(self._starts)
        self._idx = 0

    def event_at(self, t: float) -> Event | None:
        """Return the event active at time ``t``, or ``None``."""
        n = self._n
        if n == 0:
            return None
        starts = self._starts
        idx = self._idx
        if starts[idx] <= t:
            nxt = idx + 1
            if nxt < n and starts[nxt] <= t:
                idx += 1
                nxt += 1
                if nxt < n and starts[nxt] <= t:
                    idx = bisect.bisect_right(starts, t) - 1
                self._idx = idx
        else:
            idx = bisect.bisect_right(starts, t) - 1
            self._idx = idx if idx >= 0 else 0
            if idx < 0:
                return None
        # Here starts[idx] <= t, so active_at reduces to t < end.
        return self._events[idx] if t < self._ends[idx] else None


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
        events: list[Event] = []
        t = start_time
        for _ in range(n_events):
            gap = float(
                rng.lognormal(np.log(self.interarrival_median_s), self.interarrival_sigma)
            )
            interesting = bool(rng.random() < self.interesting_probability)
            duration = float(
                rng.lognormal(np.log(self.duration_median_s), self.duration_sigma)
            )
            duration = max(self.min_duration_s, duration)
            # Interesting durations are capped per Table 1; uninteresting
            # events use the same cap so environments differ only in the
            # advertised knob.
            duration = min(duration, self.max_interesting_duration_s)
            t += gap
            events.append(Event(start=t, duration=duration, interesting=interesting))
            t += duration
        return EventSchedule(
            events,
            diff_probability=self.diff_probability,
            background_diff_probability=self.background_diff_probability,
        )
