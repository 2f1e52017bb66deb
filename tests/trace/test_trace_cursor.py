"""Tests for :class:`TraceCursor`, the one implementation of every trace query.

The engine routes every trace query through one long-lived cursor whose
cached segment index follows simulated time, while the
:class:`PiecewiseConstantTrace` query methods build a fresh cursor per
call, which finds the segment from scratch (by ``bisect`` past the first
two segments).  Bit-identical results rest on a warm cursor returning
*exactly* the floats of a fresh one for any query sequence: monotone (the
common case its cache is built for), backwards (bisect fallback), and
straddling period wraps.

``TestGoldenQueryDigests`` pins the answers themselves: digests recorded
while the trace still had its own bisect-based query bodies, which agreed
with the cursor on every query.  ``TestCursorMatchesStatelessAPI`` compares
a warm cursor with the trace's fresh-cursor methods on randomized
sequences, so it exercises the cache-versus-bisect discipline.  The rest
covers the fast-path constructors (``from_samples``, ``scaled``) that skip
re-validation.
"""

import functools
import hashlib
import math
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.trace.power_trace import PiecewiseConstantTrace
from repro.trace.solar import SolarTraceGenerator


# -- trace strategies -------------------------------------------------------

durations = st.lists(
    st.floats(1e-3, 50.0, allow_nan=False, allow_infinity=False),
    min_size=1,
    max_size=8,
)
levels = st.floats(0.0, 2.0, allow_nan=False, allow_infinity=False)


@st.composite
def traces(draw, periodic=None):
    durs = draw(durations)
    times = [0.0]
    for d in durs[:-1]:
        times.append(times[-1] + d)
    powers = [draw(levels) for _ in times]
    repeat = draw(st.booleans()) if periodic is None else periodic
    period = times[-1] + durs[-1] if repeat else None
    return PiecewiseConstantTrace(times, powers, period=period)


@st.composite
def query_times(draw, trace):
    """A time inside [0, ~4 periods], biased toward segment boundaries."""
    times = trace.cursor()._times
    span = (trace.period or times[-1] + 1.0) * 4.0 + 1.0
    base = draw(st.floats(0.0, span, allow_nan=False))
    if draw(st.booleans()):
        # Land on or just around a (period-shifted) boundary to stress the
        # float edges where folding and bisection disagree most easily.
        k = draw(st.integers(0, 3))
        i = draw(st.integers(0, len(times) - 1))
        edge = times[i] + k * (trace.period or 0.0)
        base = draw(
            st.sampled_from(
                [edge, math.nextafter(edge, math.inf), math.nextafter(edge, 0.0)]
            )
        )
    return max(0.0, base)


# -- warm cursor vs fresh cursor ---------------------------------------------


class TestCursorMatchesStatelessAPI:
    """A warm cursor against the trace's methods, each a fresh cursor."""

    @given(data=st.data())
    @settings(max_examples=150, deadline=None)
    def test_randomized_query_sequence(self, data):
        trace = data.draw(traces())
        cursor = trace.cursor()
        for _ in range(data.draw(st.integers(1, 12))):
            t = data.draw(query_times(trace))
            op = data.draw(st.sampled_from(["power", "boundary", "span", "integrate"]))
            if op == "power":
                assert cursor.power(t) == trace.power(t)
            elif op == "boundary":
                assert cursor.next_boundary(t) == trace.next_boundary(t)
            elif op == "span":
                # span_at must equal the two calls it fuses.
                assert cursor.span_at(t) == (trace.power(t), trace.next_boundary(t))
            else:
                t1 = data.draw(query_times(trace))
                lo, hi = (t, t1) if t <= t1 else (t1, t)
                assert cursor.integrate(lo, hi) == trace.integrate(lo, hi)

    @given(data=st.data())
    @settings(max_examples=100, deadline=None)
    def test_time_to_harvest(self, data):
        trace = data.draw(traces(periodic=True))
        cursor = trace.cursor()
        for _ in range(data.draw(st.integers(1, 6))):
            t = data.draw(query_times(trace))
            energy = data.draw(st.floats(0.0, 5.0, allow_nan=False))
            assert cursor.time_to_harvest(t, energy) == trace.time_to_harvest(
                t, energy
            )

    @given(data=st.data())
    @settings(max_examples=100, deadline=None)
    def test_backwards_queries_hit_bisect_fallback(self, data):
        """Non-monotone sequences must agree too (cache goes stale)."""
        trace = data.draw(traces())
        cursor = trace.cursor()
        ts = sorted(data.draw(st.lists(query_times(trace), min_size=2, max_size=8)))
        for t in reversed(ts):  # strictly anti-monotone drive
            assert cursor.power(t) == trace.power(t)
            assert cursor.next_boundary(t) == trace.next_boundary(t)

    @given(t=st.floats(0.0, 1e6, allow_nan=False))
    @settings(max_examples=100, deadline=None)
    def test_period_wrap_far_out(self, t):
        trace = PiecewiseConstantTrace([0.0, 3.0, 7.0], [0.1, 0.0, 0.5], period=11.0)
        cursor = trace.cursor()
        assert cursor.power(t) == trace.power(t)
        assert cursor.span_at(t) == (trace.power(t), trace.next_boundary(t))

    @given(data=st.data())
    @settings(max_examples=100, deadline=None)
    def test_next_boundary_strict_progress(self, data):
        """next_boundary(t) > t even exactly on a boundary float."""
        trace = data.draw(traces())
        cursor = trace.cursor()
        t = data.draw(query_times(trace))
        for _ in range(4):
            nb = cursor.next_boundary(t)
            assert nb > t
            assert nb == trace.next_boundary(t)
            if math.isinf(nb):
                break
            t = nb

    def test_cursor_on_solar_trace(self):
        """The real workload trace: a long interleaved walk stays exact."""
        trace = SolarTraceGenerator(seed=1).generate()
        cursor = trace.cursor()
        t = 0.0
        for i in range(500):
            assert cursor.span_at(t) == (trace.power(t), trace.next_boundary(t))
            assert cursor.integrate(t, t + 37.5) == trace.integrate(t, t + 37.5)
            t += 113.0 if i % 7 else 13337.25  # mix small steps and big jumps


# -- golden query digests ----------------------------------------------------

#: Query order -> sha256 over every answer of :func:`_query_digest`.
#: Recorded while :class:`PiecewiseConstantTrace` still had its own
#: bisect-based query bodies; a warm cursor and those bodies produced the
#: same digest for every order, so these are the stateless answers.
QUERY_GOLDEN = {
    "random": "1341643349deed910b9cb0cdced802dcb4df516b3cb98219ea7333c732872368",
    "monotone": "925741ee5efb5e6440ae3bcf943e71e12b055975c3afcfe7d500c3412e6b08bb",
    "reverse": "7b6f4a6aa736f01d6d49fcdbf2f70072411c21c6033a24f03d013b68b2522383",
}

_N_GENERATED = 36
_POINTS_PER_TRACE = 120  # five queries per point: 600 per trace and order


def _generated_trace(seed: int) -> PiecewiseConstantTrace:
    """Random segments from a fixed seed: ~30% zero-power segments, every
    third trace on the integer grid (the fleet kernel's shape), every
    fourth aperiodic."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 13))
    durs = np.ones(n) if seed % 3 == 0 else rng.uniform(1e-3, 50.0, n)
    times = np.concatenate([[0.0], np.cumsum(durs[:-1])])
    powers = rng.uniform(0.0, 2.0, n)
    powers[rng.random(n) < 0.3] = 0.0
    period = None if seed % 4 == 1 else float(times[-1] + durs[-1])
    return PiecewiseConstantTrace(times, powers, period=period)


@functools.cache
def _digest_traces() -> tuple[PiecewiseConstantTrace, ...]:
    special = (
        # No energy ever: every positive wait is infinite.
        PiecewiseConstantTrace([0.0, 2.0], [0.0, 0.0], period=5.0),
        # Aperiodic, dark for good after t=7 (starvation).
        PiecewiseConstantTrace([0.0, 3.0, 7.0], [0.4, 1.1, 0.0]),
        # Aperiodic single segment: next_boundary is always inf.
        PiecewiseConstantTrace([0.0], [0.25]),
        # Denormal energy per period: whole-period skip overflows to inf.
        PiecewiseConstantTrace([0.0, 4.0], [1e-310, 0.0], period=10.0),
        # Periodic with a dark middle segment.
        PiecewiseConstantTrace([0.0, 3.0, 7.0], [0.1, 0.0, 0.5], period=11.0),
        SolarTraceGenerator(seed=1).generate(),
    )
    return tuple(_generated_trace(s) for s in range(_N_GENERATED)) + special


@functools.cache
def _digest_points(index: int) -> tuple[tuple[float, float, float], ...]:
    """``(t, t1, energy)`` per point: ``t`` uniform or on/one ulp around a
    (period-shifted) boundary, ``t1 >= t`` for ``integrate``, ``energy``
    zero, a fraction or several periods' worth of the trace's energy, or
    about 1 J (infinite on the dark and denormal traces)."""
    trace = _digest_traces()[index]
    rng = np.random.default_rng(1000 + index)
    times = trace.cursor()._times
    period = trace.period
    span = period if period is not None else times[-1] + 1.0
    per_period = trace.integrate(0.0, span)
    points = []
    for _ in range(_POINTS_PER_TRACE):
        if rng.random() < 0.5:
            t = float(rng.uniform(0.0, 4.0 * span))
        else:
            k = int(rng.integers(0, 4)) if period is not None else 0
            edge = times[int(rng.integers(0, len(times)))] + k * (period or 0.0)
            t = max(0.0, [edge, math.nextafter(edge, math.inf),
                          math.nextafter(edge, 0.0)][int(rng.integers(0, 3))])
        kind = int(rng.integers(0, 4))
        t1 = t if kind == 0 else t + float(rng.uniform(0.0, span * (kind - 0.5)))
        energy = (0.0, 0.05 * per_period, 0.6 * per_period, 2.7 * per_period,
                  1.0)[int(rng.integers(0, 5))]
        points.append((t, t1, energy * float(rng.uniform(0.5, 1.5))))
    return tuple(points)


def _ordered(points, order: str):
    if order == "monotone":
        return sorted(points)
    if order == "reverse":
        return sorted(points, reverse=True)
    return points  # generation order is already random


def _query_digest(front, order: str) -> str:
    """sha256 over ``power``, ``span_at``, ``next_boundary``, ``integrate``
    and ``time_to_harvest`` at every point of every digest trace, asked of
    ``front(trace)`` in ``order``."""
    h = hashlib.sha256()
    for index, trace in enumerate(_digest_traces()):
        q = front(trace)
        for t, t1, energy in _ordered(_digest_points(index), order):
            h.update(struct.pack(
                "<6d",
                q.power(t),
                *q.span_at(t),
                q.next_boundary(t),
                q.integrate(t, t1),
                q.time_to_harvest(t, energy),
            ))
    return h.hexdigest()


class TestGoldenQueryDigests:
    @pytest.mark.parametrize("order", sorted(QUERY_GOLDEN))
    def test_warm_cursor(self, order):
        """One cursor per trace, its segment cache carried across queries."""
        digest = _query_digest(PiecewiseConstantTrace.cursor, order)
        assert digest == QUERY_GOLDEN[order]

    @pytest.mark.parametrize("order", sorted(QUERY_GOLDEN))
    def test_trace_methods(self, order):
        """The trace's own queries: a fresh cursor per call."""
        assert _query_digest(lambda trace: trace, order) == QUERY_GOLDEN[order]


# -- fast-path constructors --------------------------------------------------


def cursor_views(trace):
    """The ``(times, powers, cum)`` buffer views a cursor binds."""
    cursor = trace.cursor()
    return cursor._times, cursor._powers, cursor._cum


class TestFastConstructors:
    @given(
        powers=st.lists(levels, min_size=1, max_size=30),
        sample_period=st.floats(1e-3, 100.0, allow_nan=False),
        repeat=st.booleans(),
    )
    @settings(max_examples=100, deadline=None)
    def test_from_samples_matches_explicit_construction(
        self, powers, sample_period, repeat
    ):
        fast = PiecewiseConstantTrace.from_samples(powers, sample_period, repeat=repeat)
        times = [i * sample_period for i in range(len(powers))]
        period = len(powers) * sample_period if repeat else None
        reference = PiecewiseConstantTrace(times, powers, period=period)
        assert cursor_views(fast) == cursor_views(reference)
        assert fast.period == reference.period
        assert fast._energy_per_period == reference._energy_per_period

    @given(data=st.data(), factor=st.floats(0.0, 10.0, allow_nan=False))
    @settings(max_examples=100, deadline=None)
    def test_scaled_matches_explicit_construction(self, data, factor):
        trace = data.draw(traces())
        fast = trace.scaled(factor)
        times, powers, _ = cursor_views(trace)
        reference = PiecewiseConstantTrace(
            times, [p * factor for p in powers], period=trace.period
        )
        assert cursor_views(fast)[1:] == cursor_views(reference)[1:]
        assert fast._energy_per_period == reference._energy_per_period
        t = data.draw(query_times(trace))
        assert fast.power(t) == reference.power(t)
