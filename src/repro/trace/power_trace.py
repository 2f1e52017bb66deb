"""Piecewise-constant harvested-power traces.

The paper's simulator adds harvested energy to the storage element every
1 ms step, with input power taken from a recorded trace (section 6.3).  A
recorded trace is piecewise constant at its sampling resolution, so the
energy harvested over any interval can be integrated in closed form.  Our
engine exploits this: instead of stepping 1 ms at a time it advances between
*breakpoints* (task completions, capture ticks, trace segment boundaries,
storage depletion), integrating power exactly over each span.  The result is
numerically identical to the 1 ms loop for traces sampled at >= 1 ms (see
``tests/sim/test_engine_equivalence.py``).

Every query has one implementation, on :class:`TraceCursor`.  A cursor
(``trace.cursor()``) remembers the last segment it touched and re-locates
incrementally, which is O(1) amortized for the engine's monotone access
pattern and falls back to ``bisect`` on random access.  The trace's own
query methods are a fresh cursor per call, so they find the segment from
scratch (by ``bisect`` past the first two segments).  The cache only
changes how the segment index is found, never which one, so a warm cursor
and the trace return the same floats (``tests/trace/test_trace_cursor.py``
pins both with golden digests).
"""

from __future__ import annotations

import bisect
import math
from typing import Iterable, Sequence

import numpy as np

from repro.errors import TraceError

__all__ = ["PiecewiseConstantTrace", "TraceCursor"]

#: Whole-period counts at or beyond this are treated as "never": the skip
#: arithmetic in ``time_to_harvest`` (``n_whole * period``) would overflow
#: float range long before, and a wait this long exceeds any simulated
#: horizon by hundreds of orders of magnitude.  Reached only for denormal
#: per-period energies (~1e-300 W traces).
_MAX_HARVEST_PERIODS = 1e300


class PiecewiseConstantTrace:
    """A harvested input-power trace defined by segment start times and
    power levels.

    A trace maps simulation time (seconds, starting at 0) to harvestable
    input power :math:`P_{in}` (watts) for all ``t >= 0``; finite
    recordings repeat cyclically (the paper replays its dataset for the
    duration of each experiment).

    Parameters
    ----------
    times:
        Strictly increasing segment start times in seconds.  The first entry
        must be ``0.0``.
    powers:
        Power level (W) of each segment; ``powers[i]`` holds on
        ``[times[i], times[i+1])``.
    period:
        If given, the trace repeats with this period (must be greater than
        the last segment start).  If ``None``, the final power level holds
        forever.
    """

    def __init__(
        self,
        times: Sequence[float] | Iterable[float],
        powers: Sequence[float] | Iterable[float],
        period: float | None = None,
    ) -> None:
        times_arr = np.asarray(list(times), dtype=float)
        powers_arr = np.asarray(list(powers), dtype=float)
        if times_arr.ndim != 1 or powers_arr.ndim != 1:
            raise TraceError("times and powers must be one-dimensional")
        if len(times_arr) != len(powers_arr):
            raise TraceError(
                f"times ({len(times_arr)}) and powers ({len(powers_arr)}) "
                "must have equal length"
            )
        if len(times_arr) == 0:
            raise TraceError("trace must have at least one segment")
        if times_arr[0] != 0.0:
            raise TraceError(f"first segment must start at t=0, got {times_arr[0]}")
        if np.any(np.diff(times_arr) <= 0):
            raise TraceError("segment start times must be strictly increasing")
        self._validate_powers(powers_arr)
        if np.any(~np.isfinite(times_arr)):
            raise TraceError("times and powers must be finite")
        self._validate_period(times_arr, period)
        self._init_from_validated(times_arr, powers_arr, period)

    @staticmethod
    def _validate_powers(powers: np.ndarray) -> None:
        if np.any(powers < 0):
            raise TraceError("power levels must be non-negative")
        if np.any(~np.isfinite(powers)):
            raise TraceError("times and powers must be finite")

    @staticmethod
    def _validate_period(times: np.ndarray, period: float | None) -> None:
        if period is not None and period <= times[-1]:
            raise TraceError(
                f"period ({period}) must exceed the last segment start "
                f"({times[-1]})"
            )

    def _init_from_validated(
        self, times: np.ndarray, powers: np.ndarray, period: float | None
    ) -> None:
        """Install already-validated arrays and derive the cached state."""
        self._times = times
        self._powers = powers
        self._period = period
        self._cum_energy, self._energy_per_period = self._energy_tables(
            times, powers, period
        )

    @staticmethod
    def _energy_tables(
        times: np.ndarray, powers: np.ndarray, period: float | None
    ) -> tuple[np.ndarray, float]:
        """Cumulative energy at each segment start (for O(log n)
        integration) and the energy of one period (``inf`` if none)."""
        durations = np.diff(times)
        seg_energy = powers[:-1] * durations
        cum_energy = np.concatenate([[0.0], np.cumsum(seg_energy)])
        if period is None:
            return cum_energy, math.inf
        tail = powers[-1] * (period - times[-1])
        return cum_energy, float(cum_energy[-1] + tail)

    @classmethod
    def _attach(
        cls,
        times: np.ndarray,
        powers: np.ndarray,
        cum_energy: np.ndarray,
        period: float | None,
        energy_per_period: float,
    ) -> "PiecewiseConstantTrace":
        """Bind precomputed (possibly memory-mapped) arrays without copying.

        The trace-store attach path: ``powers`` and ``cum_energy`` may be
        read-only ``np.memmap`` views of a store file, and no derived
        state is recomputed — the caller guarantees the arrays satisfy
        ``_init_from_validated``'s postconditions exactly (the store
        persisted them from a validated trace).  The result is a plain
        :class:`PiecewiseConstantTrace` (``type() is`` checks hold), so
        every consumer — including the vector kernel's integer-grid
        envelope — treats it identically to a generator-built trace.
        """
        trace = cls.__new__(cls)
        trace._times = times
        trace._powers = powers
        trace._period = period
        trace._cum_energy = cum_energy
        trace._energy_per_period = energy_per_period
        return trace

    @classmethod
    def _from_validated(
        cls, times: np.ndarray, powers: np.ndarray, period: float | None
    ) -> "PiecewiseConstantTrace":
        """Internal fast constructor for arrays known to satisfy __init__'s
        contract (float64, 1-D, equal length, strictly increasing from 0,
        finite non-negative powers, valid period).  Skips re-validation so
        transforms of already-validated traces are O(n) array work only.
        """
        trace = cls.__new__(cls)
        trace._init_from_validated(times, powers, period)
        return trace

    # -- construction helpers ------------------------------------------------

    @classmethod
    def from_samples(
        cls,
        powers: Sequence[float],
        sample_period: float,
        repeat: bool = True,
    ) -> "PiecewiseConstantTrace":
        """Build a trace from uniformly sampled power readings.

        ``powers[i]`` holds on ``[i * sample_period, (i+1) * sample_period)``.
        With ``repeat=True`` (the default) the recording loops, mirroring the
        paper's replay of its solar dataset.
        """
        return cls._from_validated(*cls._sample_grid(powers, sample_period, repeat))

    @classmethod
    def _sample_grid(
        cls, powers: Sequence[float], sample_period: float, repeat: bool
    ) -> tuple[np.ndarray, np.ndarray, float | None]:
        """:meth:`from_samples`'s checks; returns the validated ``(times,
        powers, period)`` that :meth:`_from_validated` takes.  The trace
        store builds its solar payloads through here too."""
        if sample_period <= 0:
            raise TraceError(f"sample_period must be positive, got {sample_period}")
        if not math.isfinite(sample_period):
            raise TraceError("times and powers must be finite")
        # A copy, so the trace never aliases a caller's array.
        powers_arr = np.array(powers, dtype=float)
        if powers_arr.ndim != 1:
            raise TraceError("times and powers must be one-dimensional")
        n = len(powers_arr)
        if n == 0:
            raise TraceError("need at least one sample")
        cls._validate_powers(powers_arr)
        # i * sample_period element-wise — identical floats to the naive
        # per-index Python loop, built at numpy speed.
        times_arr = np.arange(n, dtype=float) * sample_period
        if np.any(np.diff(times_arr) <= 0):  # float-degenerate spacing only
            raise TraceError("segment start times must be strictly increasing")
        period = n * sample_period if repeat else None
        cls._validate_period(times_arr, period)
        return times_arr, powers_arr, period

    # -- properties ----------------------------------------------------------

    @property
    def period(self) -> float | None:
        """Repeat period in seconds, or ``None`` for a non-repeating trace."""
        return self._period

    @property
    def mean_power(self) -> float:
        """Long-run mean power (W); for non-repeating traces, the final level."""
        if self._period is None:
            return float(self._powers[-1])
        return self._energy_per_period / self._period

    @property
    def max_power(self) -> float:
        """Maximum power level (W) appearing in the trace."""
        return float(self._powers.max())

    @property
    def min_power(self) -> float:
        """Minimum power level (W) appearing in the trace."""
        return float(self._powers.min())

    # -- queries (each one a fresh TraceCursor) ------------------------------

    def cursor(self) -> "TraceCursor":
        """A :class:`TraceCursor` over this trace (O(1) monotone queries)."""
        return TraceCursor(self)

    def power(self, t: float) -> float:
        """Instantaneous input power (W) at time ``t`` seconds."""
        return TraceCursor(self).power(t)

    def next_boundary(self, t: float) -> float:
        """First time strictly after ``t`` at which power may change.

        Returns ``math.inf`` for a trace that never changes again.  The
        engine uses this to bound the span over which power is constant.
        """
        return TraceCursor(self).next_boundary(t)

    def span_at(self, t: float) -> tuple[float, float]:
        """``(power(t), next_boundary(t))`` from one segment lookup."""
        return TraceCursor(self).span_at(t)

    def integrate(self, t0: float, t1: float) -> float:
        """Energy (J) harvested over ``[t0, t1]``."""
        return TraceCursor(self).integrate(t0, t1)

    def time_to_harvest(self, t0: float, energy: float) -> float:
        """Duration after ``t0`` needed to harvest ``energy`` joules.

        Returns ``math.inf`` if the trace can never accumulate that much
        energy (e.g. power is zero forever after ``t0``).  This is the
        recharge wait: a depleted device sleeps until the harvester refills
        the storage element to its restart threshold.
        """
        return TraceCursor(self).time_to_harvest(t0, energy)

    # -- transforms -----------------------------------------------------------

    def scaled(self, factor: float) -> "PiecewiseConstantTrace":
        """Return a new trace with every power level multiplied by ``factor``.

        Used to model different harvester cell counts (paper section 7.3): a
        harvester with ``n`` cells delivers ``n/n_ref`` times the reference
        trace's power.

        The source arrays are already validated, so this takes the internal
        fast-constructor path: harvester-scaling sweeps pay one array
        multiply per scale factor instead of a full O(n) re-validation.
        """
        if factor < 0:
            raise TraceError(f"scale factor must be non-negative, got {factor}")
        if not math.isfinite(factor):
            raise TraceError("times and powers must be finite")
        return PiecewiseConstantTrace._from_validated(
            self._times.copy(), self._powers * factor, self._period
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"PiecewiseConstantTrace(segments={len(self._times)}, "
            f"period={self._period}, mean={self.mean_power:.4g} W)"
        )


class TraceCursor:
    """Stateful O(1)-amortized view of a :class:`PiecewiseConstantTrace`.

    The simulation engine queries its trace at (nearly) monotonically
    increasing times: each query lands in the same segment as the previous
    one or the one after it.  The cursor caches the last segment index and
    re-validates it with two comparisons instead of re-``bisect``-ing the
    full segment list; a query that jumps elsewhere (e.g. a recharge wait
    re-planned from an earlier time) falls back to ``bisect`` and re-seeds
    the cache, so arbitrary access stays correct.

    The cache decides only how the segment index is found, never which
    index, so a warm cursor returns exactly the floats of a fresh one (which
    is what the trace's own query methods are): reusing a cursor can never
    change a simulated result, only its cost.  Multiple independent cursors
    over one trace are fine; the cursor never mutates the trace.
    """

    __slots__ = ("trace", "_times", "_powers", "_cum", "_n", "_period", "_epp", "_idx")

    def __init__(self, trace: PiecewiseConstantTrace) -> None:
        if not isinstance(trace, PiecewiseConstantTrace):
            raise TraceError(
                f"TraceCursor requires a PiecewiseConstantTrace, got {type(trace).__name__}"
            )
        self.trace = trace
        # Zero-copy float64 views of the trace's own arrays: indexing one
        # yields the same Python float as indexing ``tolist()`` would, and
        # ``bisect`` takes it as a sequence, so no per-sample float objects
        # are built.
        self._times = memoryview(trace._times)
        self._powers = memoryview(trace._powers)
        self._cum = memoryview(trace._cum_energy)
        self._n = len(self._times)
        self._period = trace._period
        self._epp = trace._energy_per_period
        self._idx = 0

    # -- internal locate helpers ---------------------------------------------

    def _seg(self, local: float) -> int:
        """Segment index for a folded time — cached, else bisect.

        Returns exactly ``bisect_right(times, local) - 1``, including the
        ``-1`` for a float-pathological negative ``local``, which indexing
        resolves to the last segment.
        """
        times = self._times
        n = self._n
        idx = self._idx
        if times[idx] <= local:
            nxt = idx + 1
            if nxt == n or local < times[nxt]:
                return idx
            # Advance by one segment — the engine's common case.
            if nxt + 1 == n or local < times[nxt + 1]:
                if times[nxt] <= local:
                    self._idx = nxt
                    return nxt
        idx = bisect.bisect_right(times, local) - 1
        self._idx = idx if idx >= 0 else 0
        return idx

    def _fold(self, t: float) -> tuple[float, int]:
        """Map absolute time onto (offset within one period, whole periods)."""
        if t < 0:
            raise TraceError(f"trace queried at negative time {t}")
        period = self._period
        if period is None:
            return t, 0
        k = math.floor(t / period)
        local = t - k * period
        # Guard against float round-off pushing local to == period.
        if local >= period:
            local -= period
            k += 1
        return local, k

    # -- trace queries ----------------------------------------------------------

    def power(self, t: float) -> float:
        local, _ = self._fold(t)
        return self._powers[self._seg(local)]

    def next_boundary(self, t: float) -> float:
        return self.span_at(t)[1]

    def span_at(self, t: float) -> tuple[float, float]:
        """``(power(t), next_boundary(t))`` with one fold + one lookup.

        The engine inlines this for periodic traces (``_advance_to``) and
        calls it only for aperiodic ones.
        """
        local, k = self._fold(t)
        idx = self._seg(local)
        p = self._powers[idx]
        if idx + 1 < self._n:
            nxt_local = self._times[idx + 1]
        elif self._period is not None:
            nxt_local = self._period
        else:
            return p, math.inf
        base = k * self._period if self._period is not None else 0.0
        nxt = base + nxt_local
        # Ensure strict progress even under float rounding.
        if nxt <= t:
            nxt = math.nextafter(t, math.inf)
        return p, nxt

    def _energy_from_zero(self, local_t: float) -> float:
        """Energy over [0, local_t] within one period (local_t <= period)."""
        idx = self._seg(local_t)
        return self._cum[idx] + self._powers[idx] * (local_t - self._times[idx])

    def integrate(self, t0: float, t1: float) -> float:
        if t1 < t0:
            raise TraceError(f"integrate requires t1 >= t0, got [{t0}, {t1}]")
        if t1 == t0:
            return 0.0
        if self._period is None:
            # Clamp both endpoints into the defined range; tail power holds.
            last = self._times[-1]
            e = 0.0
            a, b = t0, t1
            if a < last:
                e += self._energy_from_zero(min(b, last)) - self._energy_from_zero(a)
            if b > last:
                e += self._powers[-1] * (b - max(a, last))
            return e
        local0, k0 = self._fold(t0)
        e0 = self._energy_from_zero(local0)
        local1, k1 = self._fold(t1)
        whole = (k1 - k0) * self._epp
        return whole + self._energy_from_zero(local1) - e0

    def time_to_harvest(self, t0: float, energy: float) -> float:
        if energy < 0:
            raise TraceError(f"energy must be non-negative, got {energy}")
        if energy == 0:
            return 0.0
        remaining = energy
        t = t0
        period = self._period
        # Walk segments; for repeating traces, skip whole periods first.
        if period is not None and self._epp > 0:
            # Align to the next period boundary, then jump whole periods.
            local, k = self._fold(t)
            to_boundary = period - local
            e_to_boundary = self.integrate(t, t + to_boundary)
            if e_to_boundary < remaining:
                remaining -= e_to_boundary
                t = (k + 1) * period
                periods = remaining / self._epp
                # A denormal per-period energy can push the whole-period
                # count (or the skipped time) past float range; the wait is
                # then beyond any representable horizon.
                if periods >= _MAX_HARVEST_PERIODS:
                    return math.inf
                n_whole = math.floor(periods)
                skip = n_whole * period
                if math.isinf(skip):
                    return math.inf
                t += skip
                remaining -= n_whole * self._epp
                if remaining <= 0:
                    return t - t0
        elif period is not None and self._epp == 0:
            return math.inf
        # Fused segment walk (bounded: at most one period or the tail), one
        # fold + one cached segment lookup per segment.
        times = self._times
        powers = self._powers
        n = self._n
        guard = 0
        while remaining > 0:
            local, k = self._fold(t)
            idx = self._seg(local)
            p = powers[idx]
            if idx + 1 < n:
                nxt_local = times[idx + 1]
            elif period is not None:
                nxt_local = period
            else:
                if p <= 0:
                    return math.inf
                return (t + remaining / p) - t0
            base = k * period if period is not None else 0.0
            nxt = base + nxt_local
            if nxt <= t:
                nxt = math.nextafter(t, math.inf)
            span = nxt - t
            harvest = p * span
            if harvest >= remaining:
                return (t + remaining / p) - t0
            remaining -= harvest
            t = nxt
            guard += 1
            if guard > 10 * n + 100:
                raise TraceError("time_to_harvest failed to converge")
        return t - t0

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"TraceCursor(idx={self._idx}, trace={self.trace!r})"
