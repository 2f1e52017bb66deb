"""A small metrics registry: counters, gauges, histograms, label sets.

This is the aggregation side of the observability layer.  Where the
tracer records *what happened when*, the registry records *how much of
everything* — and exposes it in the two formats monitoring stacks
actually scrape: the Prometheus text exposition format and plain JSON.

Exactness contract: counter and histogram state is integers (and exact
:class:`fractions.Fraction` sums), so :meth:`MetricsRegistry.merge` is
associative — per-shard registries fold to bit-identical totals under
any grouping, the same discipline as
:class:`~repro.sim.metrics.MetricsRollup`.  Gauges are last-write
point-in-time values and merge by summing (the only fleet gauges are
additive populations).

The ``*_registry`` builders are the registry-backed views over the
existing telemetry islands: :class:`~repro.fleet.rollup.FleetRollup`,
:class:`~repro.sim.telemetry.DecisionPathStats`, and
:class:`~repro.fleet.kernel.KernelStats` project into one namespace
without changing their own public dict shapes.
"""

from __future__ import annotations

from fractions import Fraction

from repro.errors import ConfigurationError

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "fleet_registry",
    "serve_registry",
    "decision_path_registry",
    "kernel_stats_registry",
]

_VALID_KINDS = ("counter", "gauge", "histogram")

#: Histogram bucket upper bounds used for the rollup's [0, 1] fraction
#: distributions: 16 equal buckets (exact re-binning of the rollup's 256).
FRACTION_BUCKETS = tuple((i + 1) / 16 for i in range(16))


def _label_key(label_names: tuple, labels: dict) -> tuple:
    if set(labels) != set(label_names):
        raise ConfigurationError(
            f"expected labels {label_names}, got {tuple(sorted(labels))}"
        )
    return tuple(labels[name] for name in label_names)


class _Family:
    """Shared series bookkeeping for the three metric kinds."""

    kind = "untyped"

    def __init__(self, name: str, help: str, label_names: tuple = ()) -> None:
        self.name = name
        self.help = help
        self.label_names = tuple(label_names)
        self.series: dict[tuple, object] = {}

    def _values(self):
        """(labels-dict, value) rows in insertion order."""
        return [
            (dict(zip(self.label_names, key)), value)
            for key, value in self.series.items()
        ]


class Counter(_Family):
    """Monotone total.  Values are exact (int or Fraction)."""

    kind = "counter"

    def inc(self, amount=1, **labels) -> None:
        if amount < 0:
            raise ConfigurationError("counters only go up")
        key = _label_key(self.label_names, labels)
        self.series[key] = self.series.get(key, 0) + amount

    def value(self, **labels):
        return self.series.get(_label_key(self.label_names, labels), 0)


class Gauge(_Family):
    """Point-in-time value; merge sums (use for additive populations)."""

    kind = "gauge"

    def set(self, value, **labels) -> None:
        self.series[_label_key(self.label_names, labels)] = value

    def inc(self, amount=1, **labels) -> None:
        key = _label_key(self.label_names, labels)
        self.series[key] = self.series.get(key, 0) + amount

    def value(self, **labels):
        return self.series.get(_label_key(self.label_names, labels), 0)


class Histogram(_Family):
    """Fixed-bucket histogram with exact counts and an exact sum."""

    kind = "histogram"

    def __init__(self, name, help, label_names=(), buckets=FRACTION_BUCKETS):
        super().__init__(name, help, label_names)
        if not buckets or list(buckets) != sorted(buckets):
            raise ConfigurationError("buckets must be a sorted non-empty list")
        self.buckets = tuple(buckets)

    def _row(self, key):
        row = self.series.get(key)
        if row is None:
            row = self.series[key] = {
                "counts": [0] * len(self.buckets),
                "count": 0,
                "sum": Fraction(0),
            }
        return row

    def observe(self, value, **labels) -> None:
        row = self._row(_label_key(self.label_names, labels))
        row["count"] += 1
        row["sum"] += Fraction(value)
        for i, bound in enumerate(self.buckets):
            if value <= bound:
                row["counts"][i] += 1
                break

    def observe_binned(self, counts, total, count, **labels) -> None:
        """Fold pre-binned state in (exact view over StreamingDistribution).

        ``counts`` must align with this family's buckets; ``total`` is the
        exact sum (Fraction) and ``count`` the observation count.
        """
        if len(counts) != len(self.buckets):
            raise ConfigurationError(
                f"expected {len(self.buckets)} bucket counts, got {len(counts)}"
            )
        row = self._row(_label_key(self.label_names, labels))
        for i, n in enumerate(counts):
            row["counts"][i] += n
        row["count"] += count
        row["sum"] += Fraction(total)


class MetricsRegistry:
    """A named collection of metric families."""

    def __init__(self) -> None:
        self._families: dict[str, _Family] = {}

    # -- registration ------------------------------------------------------------

    def _register(self, family: _Family) -> _Family:
        existing = self._families.get(family.name)
        if existing is not None:
            if (
                type(existing) is not type(family)
                or existing.label_names != family.label_names
            ):
                raise ConfigurationError(
                    f"metric {family.name!r} re-registered with a different "
                    "kind or label set"
                )
            return existing
        self._families[family.name] = family
        return family

    def counter(self, name: str, help: str, labels: tuple = ()) -> Counter:
        return self._register(Counter(name, help, labels))

    def gauge(self, name: str, help: str, labels: tuple = ()) -> Gauge:
        return self._register(Gauge(name, help, labels))

    def histogram(
        self, name: str, help: str, labels: tuple = (),
        buckets=FRACTION_BUCKETS,
    ) -> Histogram:
        return self._register(Histogram(name, help, labels, buckets))

    # -- access ------------------------------------------------------------------

    def families(self) -> list[_Family]:
        return list(self._families.values())

    def get(self, name: str) -> _Family | None:
        return self._families.get(name)

    def __contains__(self, name: str) -> bool:
        return name in self._families

    # -- merge -------------------------------------------------------------------

    def merge(self, other: "MetricsRegistry") -> None:
        """Fold another registry in (exact for counters/histograms)."""
        for family in other.families():
            if isinstance(family, Histogram):
                mine = self.histogram(
                    family.name, family.help, family.label_names, family.buckets
                )
                for key, row in family.series.items():
                    labels = dict(zip(family.label_names, key))
                    mine.observe_binned(
                        row["counts"], row["sum"], row["count"], **labels
                    )
            elif isinstance(family, Gauge):
                mine = self.gauge(family.name, family.help, family.label_names)
                for key, value in family.series.items():
                    mine.inc(value, **dict(zip(family.label_names, key)))
            else:
                mine = self.counter(family.name, family.help, family.label_names)
                for key, value in family.series.items():
                    mine.inc(value, **dict(zip(family.label_names, key)))

    # -- export ------------------------------------------------------------------

    def to_prometheus(self) -> str:
        """The Prometheus text exposition format (version 0.0.4)."""
        lines = []
        for family in self._families.values():
            lines.append(f"# HELP {family.name} {family.help}")
            lines.append(f"# TYPE {family.name} {family.kind}")
            if isinstance(family, Histogram):
                for labels, row in family._values():
                    cumulative = 0
                    for bound, n in zip(family.buckets, row["counts"]):
                        cumulative += n
                        lines.append(
                            f"{family.name}_bucket"
                            f"{_fmt_labels({**labels, 'le': _fmt_num(bound)})}"
                            f" {cumulative}"
                        )
                    lines.append(
                        f"{family.name}_bucket"
                        f"{_fmt_labels({**labels, 'le': '+Inf'})} {row['count']}"
                    )
                    lines.append(
                        f"{family.name}_sum{_fmt_labels(labels)}"
                        f" {_fmt_num(row['sum'])}"
                    )
                    lines.append(
                        f"{family.name}_count{_fmt_labels(labels)} {row['count']}"
                    )
            else:
                for labels, value in family._values():
                    lines.append(
                        f"{family.name}{_fmt_labels(labels)} {_fmt_num(value)}"
                    )
        return "\n".join(lines) + "\n"

    def to_dict(self) -> dict:
        """JSON-safe snapshot (exact sums rendered as floats)."""
        out: dict = {}
        for family in self._families.values():
            if isinstance(family, Histogram):
                series = [
                    {
                        "labels": labels,
                        "buckets": list(family.buckets),
                        "counts": list(row["counts"]),
                        "count": row["count"],
                        "sum": float(row["sum"]),
                    }
                    for labels, row in family._values()
                ]
            else:
                series = [
                    {"labels": labels, "value": _json_num(value)}
                    for labels, value in family._values()
                ]
            out[family.name] = {
                "kind": family.kind,
                "help": family.help,
                "labels": list(family.label_names),
                "series": series,
            }
        return out


def _fmt_labels(labels: dict) -> str:
    if not labels:
        return ""
    inner = ",".join(
        f'{name}="{_escape(str(value))}"' for name, value in labels.items()
    )
    return "{" + inner + "}"


def _escape(value: str) -> str:
    return value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")


def _fmt_num(value) -> str:
    if isinstance(value, Fraction):
        value = float(value)
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _json_num(value):
    return float(value) if isinstance(value, Fraction) else value


# ---------------------------------------------------------------------------
# Registry-backed views over the existing telemetry.
# ---------------------------------------------------------------------------

def _rebin_256_to_buckets(bins: list) -> list:
    """Exactly re-bin the rollup's 256 [0,1) bins into FRACTION_BUCKETS.

    256 is a multiple of 16, so every coarse bucket is the sum of a whole
    group of fine bins — no observation is split, and the result is
    grouping-invariant because the inputs are.
    """
    width = len(bins) // len(FRACTION_BUCKETS)
    return [
        sum(bins[i * width : (i + 1) * width])
        for i in range(len(FRACTION_BUCKETS))
    ]


def fleet_registry(rollup, kernel_stats=None) -> MetricsRegistry:
    """Project a :class:`~repro.fleet.rollup.FleetRollup` into a registry.

    Counters carry a ``policy`` label per policy bucket; the rollup's
    fraction distributions become per-policy histograms.  Everything is
    derived from the merged (exact) rollup state, so the registry is
    bit-identical across ``--shards``/``--jobs``/kernel choices whenever
    the rollup is — which the fleet determinism contract guarantees.
    """
    from repro.sim.metrics import _COUNTER_FIELDS, _DIST_FIELDS, _SUM_FIELDS

    registry = MetricsRegistry()
    registry.gauge(
        "repro_fleet_devices", "Devices folded into the fleet rollup"
    ).set(rollup.devices)
    registry.gauge(
        "repro_fleet_device_failures", "Device runs that exhausted retries"
    ).set(rollup.failure_count)
    by_policy = sorted(rollup.by_policy.items())
    for name in _COUNTER_FIELDS:
        # Fields already named *_total keep their name (no _total_total).
        metric = f"repro_{name}" if name.endswith("_total") else f"repro_{name}_total"
        counter = registry.counter(
            metric, f"Fleet total of RunMetrics.{name}",
            labels=("policy",),
        )
        for policy, sub in by_policy:
            counter.inc(sub.counters[name], policy=policy)
    for name in _SUM_FIELDS:
        # Sum fields are signed (Quetzal's prediction_error_s accumulates
        # the raw PID error), so they are additive gauges, not counters.
        gauge = registry.gauge(
            f"repro_{name}_sum", f"Fleet exact sum of RunMetrics.{name}",
            labels=("policy",),
        )
        for policy, sub in by_policy:
            gauge.inc(sub.sums[name], policy=policy)
    for name in _DIST_FIELDS:
        histogram = registry.histogram(
            f"repro_{name}", f"Per-run {name} distribution",
            labels=("policy",),
        )
        for policy, sub in by_policy:
            dist = sub.dists[name]
            histogram.observe_binned(
                _rebin_256_to_buckets(dist.bins), dist.total, dist.count,
                policy=policy,
            )
    # Only the decision-path counters a rollup carries: ``decisions`` and
    # ``score_table_rebuilds`` are policy-side, never in ``RunMetrics``.
    totals = rollup.overall.decision_path_totals()
    for name in (
        "scored_candidates", "cache_hits", "cache_misses",
        "degradation_walks", "degradation_walk_steps",
    ):
        registry.counter(
            f"repro_decision_path_{name}_total",
            f"Decision-path work counter: {name}",
        ).inc(getattr(totals, name))
    if kernel_stats is not None:
        registry.merge(kernel_stats_registry(kernel_stats))
    return registry


def figures_registry(results) -> MetricsRegistry:
    """Registry view of a batch of reproduced figures/tables.

    ``results`` is a sequence of
    :class:`~repro.experiments.reporting.FigureResult`; the projection is
    derived purely from the (deterministic) result rows, so the output is
    bit-identical across ``--jobs`` settings — the same discipline as
    :func:`fleet_registry`.  This is what the experiments CLI's
    ``--metrics-out`` writes.
    """
    results = list(results)
    registry = MetricsRegistry()
    registry.counter(
        "repro_experiments_figures_total", "Figures/tables regenerated"
    ).inc(len(results))
    rows = registry.gauge(
        "repro_experiments_rows", "Data rows per reproduced figure",
        labels=("figure",),
    )
    notes = registry.gauge(
        "repro_experiments_notes", "Notes attached per reproduced figure",
        labels=("figure",),
    )
    for result in results:
        rows.set(len(result.rows), figure=result.figure_id)
        notes.set(len(result.notes), figure=result.figure_id)
    return registry


def serve_registry(stats: dict) -> MetricsRegistry:
    """Registry view of a :meth:`FleetServer.stats` snapshot.

    This is what the serve CLI's ``--metrics-out`` writes at shutdown:
    submission/dedup/cache-hit counters plus job-state and store-size
    gauges.  Unlike the fleet/figure registries this one describes the
    *service*, not a simulation result, so it is wall-history-dependent
    by nature (two differently-ordered submission streams legitimately
    produce different hit counts).
    """
    registry = MetricsRegistry()
    registry.counter(
        "repro_serve_submissions_total", "Specs submitted to the server"
    ).inc(stats["submitted"])
    registry.counter(
        "repro_serve_deduped_total", "Submissions attached to an in-flight job"
    ).inc(stats["deduped"])
    registry.counter(
        "repro_serve_cache_hits_total", "Submissions answered from the result cache"
    ).inc(stats["cache"]["hits"])
    registry.counter(
        "repro_serve_cache_misses_total", "Submissions that had to compute"
    ).inc(stats["cache"]["misses"])
    registry.gauge(
        "repro_serve_cache_entries", "Rollups journaled in the result cache"
    ).set(stats["cache"]["entries"])
    registry.gauge(
        "repro_serve_store_entries", "Trace/schedule artifacts in the shared store"
    ).set(stats["store_entries"])
    jobs = registry.gauge(
        "repro_serve_jobs", "Jobs known to the server, by lifecycle state",
        labels=("state",),
    )
    for state, count in sorted(stats["jobs"].items()):
        jobs.set(count, state=state)
    return registry


def decision_path_registry(stats) -> MetricsRegistry:
    """Registry view of :class:`~repro.sim.telemetry.DecisionPathStats`.

    The underlying dataclass (and its ``as_dict`` shape) is unchanged;
    this exposes the same counters under the registry namespace.
    """
    registry = MetricsRegistry()
    # Namespaced ``repro_decision_path_`` (not ``repro_decision_``): the
    # rollup already exports per-policy RunMetrics counters named
    # ``decision_cache_hits`` etc., and the two must not collide.
    for name in (
        "decisions", "scored_candidates", "cache_hits", "cache_misses",
        "score_table_rebuilds", "degradation_walks", "degradation_walk_steps",
    ):
        registry.counter(
            f"repro_decision_path_{name}_total",
            f"Decision-path work counter: {name}",
        ).inc(getattr(stats, name))
    return registry


def kernel_stats_registry(stats) -> MetricsRegistry:
    """Registry view of :class:`~repro.fleet.kernel.KernelStats`.

    Lane populations and iteration counts become counters; the per-phase
    wall-clock seconds become a ``repro_kernel_phase_seconds`` counter
    with a ``phase`` label (the ``--kernel-stats`` breakdown, scrapeable).
    """
    registry = MetricsRegistry()
    for name in (
        "lanes", "scalar_lanes", "fallback_lanes", "migrated_lanes",
        "batches", "iterations", "compactions",
    ):
        registry.counter(
            f"repro_kernel_{name}_total", f"Vector-kernel count: {name}"
        ).inc(getattr(stats, name))
    phase = registry.counter(
        "repro_kernel_phase_seconds",
        "Vector-kernel wall-clock by phase",
        labels=("phase",),
    )
    for name in (
        "lane_build_s", "batch_init_s", "ctrl_s", "adv_s", "rech_s",
        "fallback_s",
    ):
        phase.inc(Fraction(getattr(stats, name)), phase=name[:-2])
    return registry
