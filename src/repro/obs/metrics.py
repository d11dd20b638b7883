"""A small process-wide metrics registry (counters, gauges, summaries).

Instrumented modules declare their metrics once at import time against the
default :data:`REGISTRY` and bump them from hot paths; the registry
renders either Prometheus text exposition (``to_prometheus``) or a plain
JSON-able dict (``to_dict``) for the run manifest.

Labels are passed as keyword arguments at update time::

    CLOUD_CALLS = REGISTRY.counter(
        "condor_cloud_api_calls_total", "AWS API calls issued by the flow")
    CLOUD_CALLS.inc(verb="create-fpga-image")

A subsystem that counts its own events lets the registry read those
counts at collect time instead of pushing each event twice: counters
and summaries take *sources* (``add_source``), so the hot path makes no
metric update at all.  A source tied to an owner leaves with it, its
final counts kept in the totals.  Gauges are collect-time only: each
series sums functions (``set_function``) read when the gauge is, and a
function tied to an owner leaves with it.

:class:`Summary` is the one distribution type: it streams every
observation through a :class:`~repro.obs.quantiles.QuantileSketch`, so
accurate p50/p95/p99 are available with O(1) memory (``.quantile()``,
the ``summary`` exposition type).

The default :data:`REGISTRY` honours the ``REPRO_NO_OBS=1`` kill switch
(updates become no-ops); explicitly constructed registries do not.
Reads are never gated, so a collect-time series keeps reporting its
owner's counts while the switch is on.

The registry and every metric lock their own state, so any thread may
update or read them; a source or gauge function reads its owner's state
on the reading thread, so an owner used by one thread at a time is read
from that thread (docs/INTERNALS.md, "Concurrency model").  Everything
is in-process; there is deliberately no dependency on
``prometheus_client`` — the exposition format is simple
enough to emit directly, and the registry stays importable everywhere.
"""

from __future__ import annotations

import contextlib
import copy
import math
import threading
import weakref
from typing import Any, Callable, Mapping

from repro.obs.quantiles import DEFAULT_QUANTILES, QuantileSketch
from repro.obs.spans import obs_disabled

__all__ = [
    "Counter",
    "Gauge",
    "Summary",
    "MetricsRegistry",
    "REGISTRY",
    "ledger_source",
]

_LabelKey = tuple[tuple[str, str], ...]


def _label_key(labels: dict[str, Any]) -> _LabelKey:
    if not labels:
        return ()
    return tuple(sorted((k, str(v)) for k, v in labels.items()))


def _render_labels(key: _LabelKey, extra: tuple[tuple[str, str], ...] = ()) \
        -> str:
    pairs = key + extra
    if not pairs:
        return ""
    body = ",".join(f'{k}="{v}"' for k, v in pairs)
    return "{" + body + "}"


def _fmt(value: float) -> str:
    if value == math.inf:
        return "+Inf"
    if float(value).is_integer():
        return str(int(value))
    return repr(float(value))


class _Metric:
    kind = "untyped"
    #: per-label-set stores ``clear_values`` empties (subclass-declared)
    _store_attrs: tuple[str, ...] = ()

    def __init__(self, name: str, help: str = ""):
        self.name = name
        self.help = help
        self._lock = threading.Lock()
        #: set by a gated registry; gated metrics honour REPRO_NO_OBS
        self._gated = False

    def _off(self) -> bool:
        return self._gated and obs_disabled()

    def clear_values(self) -> None:
        """Drop every recorded sample, keeping the declaration.

        The public locked mutator the registry's :meth:`MetricsRegistry.reset`
        uses — callers never reach into another object's ``_lock``.
        """
        with self._lock:
            for attr in self._store_attrs:
                getattr(self, attr).clear()

    def scalar_samples(self) -> dict[str, float]:
        """One flat number per series, read under this metric's lock.

        The public locked accessor behind
        :meth:`MetricsRegistry.scalars`; subclasses define the collapse
        (counters/gauges sum label sets, summaries expose ``_count``
        and ``_sum``).
        """
        raise NotImplementedError

    def header(self) -> list[str]:
        lines = []
        if self.help:
            lines.append(f"# HELP {self.name} {self.help}")
        lines.append(f"# TYPE {self.name} {self.kind}")
        return lines


#: Stands in for an owner's lock when a source takes its own.
_NO_LOCK = contextlib.nullcontext()


class _Sourced(_Metric):
    """A metric that also reads counts its owners keep (sources)."""

    def __init__(self, name: str, help: str = ""):
        super().__init__(name, help)
        #: ``(fn, lock, weak owner or None)`` per source
        self._sources: list[tuple] = []

    def add_source(self, fn: Callable[[], Mapping[tuple, Any]], *,
                   lock=None, owner: object = None) -> None:
        """Add ``fn()``, ``{label pairs: value}``, to every read.

        ``fn`` runs outside this metric's lock and, when one is given,
        under ``lock`` (that of an owner every thread shares, such as
        the resilience ledger), so it may return the owner's live state;
        it must not read this metric.  ``owner`` is held weakly, and
        ``fn`` should hold the owner's ledger, not the owner, and leave
        locking to ``lock``: each registration first folds the
        final counts of sources whose owner was collected into this
        metric's own values and drops them.  So the source list stays
        at the live owners (plus those dropped since the last
        registration), and the totals stay monotonic.  Registering is
        not an update: the kill switch does not gate it.
        """
        self._retire()
        ref = None if owner is None else weakref.ref(owner)
        with self._lock:
            self._sources.append(
                (fn, _NO_LOCK if lock is None else lock, ref))

    def _retire(self) -> None:
        """Fold the final counts of the sources whose owner was
        collected into this metric's own values, and drop them.  No
        one writes a collected owner's ledger, so it is read without
        the owner's lock."""
        with self._lock:
            live = []
            for source in self._sources:
                fn, _, ref = source
                if ref is not None and ref() is None:
                    self._fold(self._final(fn()))
                else:
                    live.append(source)
            self._sources = live

    def _gather(self, own: Callable[[], Any],
                read: Callable[[Mapping], Any]) -> tuple[Any, list]:
        """``own()`` under this metric's lock, and ``read(fn())`` of
        every source under the source's lock.  The values and the
        source list are taken together, so a source retired meanwhile
        is counted once."""
        with self._lock:
            mine = own()
            sources = [(fn, lock) for fn, lock, _ in self._sources]
        readings = []
        for fn, lock in sources:
            with lock:
                readings.append(read(fn()))
        return mine, readings

    def _merged(self, own: Callable[[], dict]) -> dict:
        """``own()``, a copy of this metric's values, with every
        source's reading folded in."""
        merged, readings = self._gather(own, self._final)
        for final in readings:
            self._fold(final, merged)
        return merged

    def _final(self, reading: Mapping) -> list:
        """A source's reading as ``[(label key, value)]``, owned by
        this metric."""
        raise NotImplementedError

    def _fold(self, final: list, into: dict | None = None) -> None:
        """Add a ``_final`` list to ``into``, by default this metric's
        own values (lock held)."""
        raise NotImplementedError


class Counter(_Sourced):
    """Monotonically increasing value: pushed increments plus sources."""

    kind = "counter"
    #: sources are wiring, not samples: ``clear_values`` keeps them
    _store_attrs = ("_values",)

    def __init__(self, name: str, help: str = ""):
        super().__init__(name, help)
        self._values: dict[_LabelKey, float] = {}

    def inc(self, amount: float = 1.0, **labels: Any) -> None:
        if amount < 0:
            raise ValueError(
                f"counter {self.name}: cannot decrease (amount={amount})")
        if self._off():
            return
        key = _label_key(labels)
        with self._lock:
            self._values[key] = self._values.get(key, 0.0) + amount

    def _final(self, reading: Mapping) -> list:
        return [(_label_key(dict(labels)), count)
                for labels, count in reading.items()]

    def _fold(self, final: list, into: dict | None = None) -> None:
        into = self._values if into is None else into
        for key, count in final:
            if count:
                into[key] = into.get(key, 0.0) + count

    def value(self, **labels: Any) -> float:
        return self._series().get(_label_key(labels), 0.0)

    def total(self) -> float:
        """Sum over every label combination."""
        return sum(self._series().values())

    def _series(self) -> dict[_LabelKey, float]:
        """Pushed values plus the sources' nonzero counts."""
        return self._merged(lambda: dict(self._values))

    def scalar_samples(self) -> dict[str, float]:
        return {self.name: sum(self._series().values())}

    def expose(self) -> list[str]:
        lines = self.header()
        series = self._series()
        for key in sorted(series):
            lines.append(f"{self.name}{_render_labels(key)}"
                         f" {_fmt(series[key])}")
        return lines

    def snapshot(self) -> dict[str, Any]:
        return {"type": self.kind, "help": self.help,
                "values": [{"labels": dict(k), "value": v}
                           for k, v in sorted(self._series().items())]}


def ledger_source(ledger: Mapping[tuple, float], kind: str,
                  *labels: str) -> Callable[[], dict[tuple, float]]:
    """A :meth:`Counter.add_source` over the ``kind`` entries of a
    ledger ``{(kind, *label values): count}``; register it with the
    ledger's lock, if every thread shares the ledger, as ``lock``."""
    def read() -> dict[tuple, float]:
        return {tuple(zip(labels, key[1:])): n
                for key, n in ledger.items() if key[0] == kind}
    return read


class Gauge(_Metric):
    """A collect-time value: each series sums what its functions return.

    :meth:`set_function` adds a function to a series; the functions run
    whenever the gauge is read or exported, outside this metric's lock.
    A function returning ``None`` adds nothing, and a series nothing
    adds to is omitted.
    """

    kind = "gauge"

    def __init__(self, name: str, help: str = ""):
        super().__init__(name, help)
        #: ``(label key, fn, weak owner or None)`` per function
        self._functions: list[tuple] = []

    def set_function(self, fn: Callable[[], float | None], *,
                     owner: object = None, **labels: Any) -> None:
        """Add ``fn()`` to this series at collect time.

        ``owner`` is held weakly, as by :meth:`Counter.add_source`, so
        ``fn`` should hold the owner's state, not the owner: once the
        owner is collected its function is dropped.  So a series over
        one kind of owner reads the sum over the live ones.
        Registration is a declaration, not an update, so it is not
        gated by the kill switch (reads never are), and
        :meth:`MetricsRegistry.reset` keeps it.
        """
        ref = None if owner is None else weakref.ref(owner)
        entry = (_label_key(labels), fn, ref)
        with self._lock:
            self._functions = self._live() + [entry]

    def _live(self) -> list[tuple]:
        """The functions whose owner is alive (lock held)."""
        return [entry for entry in self._functions
                if entry[2] is None or entry[2]() is not None]

    def _series(self, *only: _LabelKey) -> dict[_LabelKey, float]:
        """Every series, or just the ``only`` ones, read now."""
        with self._lock:
            functions = self._functions = self._live()
        series: dict[_LabelKey, float] = {}
        for key, fn, _ in functions:
            if only and key not in only:
                continue
            value = fn()
            if value is not None:
                series[key] = series.get(key, 0.0) + float(value)
        return series

    def value(self, **labels: Any) -> float:
        key = _label_key(labels)
        return self._series(key).get(key, 0.0)

    expose = Counter.expose
    snapshot = Counter.snapshot
    scalar_samples = Counter.scalar_samples


class Summary(_Sourced):
    """Streaming-quantile summary (Prometheus ``summary`` semantics).

    Each label set owns a :class:`QuantileSketch` and the exposition
    reports :data:`~repro.obs.quantiles.DEFAULT_QUANTILES` directly::

        condor_request_seconds{quantile="0.5"} 0.0123
        condor_request_seconds{quantile="0.99"} 0.0871
        condor_request_seconds_sum 12.3
        condor_request_seconds_count 1000
    """

    kind = "summary"
    _store_attrs = ("_sketches",)

    def __init__(self, name: str, help: str = ""):
        super().__init__(name, help)
        self._sketches: dict[_LabelKey, QuantileSketch] = {}

    def observe(self, value: float, **labels: Any) -> None:
        if self._off():
            return
        value = float(value)
        if math.isnan(value):
            return
        key = _label_key(labels)
        with self._lock:
            sketch = self._sketches.get(key)
            if sketch is None:
                sketch = self._sketches[key] = QuantileSketch()
            sketch.observe(value)

    # sources return ``{label pairs: sketch}``, which may be the
    # owner's live sketches: a read copies one before merging it

    def _final(self, reading: Mapping) -> list:
        return [(_label_key(dict(labels)), copy.deepcopy(sketch))
                for labels, sketch in reading.items()]

    def _fold(self, final: list, into: dict | None = None) -> None:
        into = self._sketches if into is None else into
        for key, sketch in final:
            if key in into:
                into[key].merge(sketch)
            elif sketch.count:
                into[key] = sketch

    def _collect(self) -> dict[_LabelKey, QuantileSketch]:
        """Pushed sketches copied under the lock, sources merged in."""
        return self._merged(lambda: copy.deepcopy(self._sketches))

    def _sketch(self, labels: dict[str, Any]) -> QuantileSketch:
        """One label set's sketch (empty before any observation)."""
        return self._collect().get(_label_key(labels)) or QuantileSketch()

    def count(self, **labels: Any) -> int:
        return self._sketch(labels).count

    def sum(self, **labels: Any) -> float:
        return self._sketch(labels).sum

    def quantile(self, q: float, **labels: Any) -> float | None:
        return self._sketch(labels).quantile(q)

    def scalar_samples(self) -> dict[str, float]:
        """Counts and sums added up in place: no sketch is copied."""
        def tally(sketches: Mapping) -> tuple[int, float]:
            return (sum(s.count for s in sketches.values()),
                    sum(s.sum for s in sketches.values()))
        (count, total), readings = self._gather(
            lambda: tally(self._sketches), tally)
        for n, subtotal in readings:
            count += n
            total += subtotal
        return {f"{self.name}_count": float(count),
                f"{self.name}_sum": total}

    def expose(self) -> list[str]:
        lines = self.header()
        sketches = self._collect()
        for key in sorted(sketches):
            sketch = sketches[key]
            estimates = sketch.quantiles()
            for q in DEFAULT_QUANTILES:
                ql = (("quantile", _fmt(q)),)
                lines.append(f"{self.name}{_render_labels(key, ql)}"
                             f" {_fmt(estimates[q])}")
            lines.append(f"{self.name}_sum{_render_labels(key)}"
                         f" {_fmt(sketch.sum)}")
            lines.append(f"{self.name}_count{_render_labels(key)}"
                         f" {sketch.count}")
        return lines

    def snapshot(self) -> dict[str, Any]:
        sketches = self._collect()
        values = [{"labels": dict(k), **sketches[k].snapshot()}
                  for k in sorted(sketches)]
        return {"type": self.kind, "help": self.help,
                "quantiles": list(DEFAULT_QUANTILES), "values": values}


class MetricsRegistry:
    """Named metrics with get-or-create declaration.

    A *gated* registry's metrics become no-ops while ``REPRO_NO_OBS=1``
    is set; only the process-wide default :data:`REGISTRY` is gated.
    """

    def __init__(self, *, gated: bool = False) -> None:
        self._metrics: dict[str, _Metric] = {}
        self._lock = threading.Lock()
        self._gated = gated

    def _declare(self, cls: type, name: str, help: str) -> Any:
        with self._lock:
            existing = self._metrics.get(name)
            if existing is not None:
                if not isinstance(existing, cls):
                    raise ValueError(
                        f"metric {name!r} already registered as"
                        f" {existing.kind}, not {cls.kind}")
                return existing
            metric = cls(name, help)
            metric._gated = self._gated
            self._metrics[name] = metric
            return metric

    def counter(self, name: str, help: str = "") -> Counter:
        return self._declare(Counter, name, help)

    def gauge(self, name: str, help: str = "") -> Gauge:
        return self._declare(Gauge, name, help)

    def summary(self, name: str, help: str = "") -> Summary:
        return self._declare(Summary, name, help)

    def get(self, name: str) -> _Metric | None:
        with self._lock:
            return self._metrics.get(name)

    def names(self) -> list[str]:
        with self._lock:
            return sorted(self._metrics)

    def _snapshot_metrics(self) -> list[_Metric]:
        """Name-ordered metric list, read under the registry lock.

        Exports iterate this snapshot *after* releasing the registry
        lock: each metric then locks itself, so no export path ever
        nests registry -> metric (only :meth:`reset` takes that edge,
        deliberately, in hierarchy order).
        """
        with self._lock:
            return [self._metrics[name] for name in sorted(self._metrics)]

    def reset(self) -> None:
        """Zero every metric (keeps declarations).  Test helper.

        Holds the registry lock across the sweep so a concurrent
        ``_declare`` cannot slip a half-reset view in between; the
        nested ``metric.clear_values()`` acquisitions follow the
        documented registry -> metric lock order.
        """
        with self._lock:
            for metric in self._metrics.values():
                metric.clear_values()

    # -- export --------------------------------------------------------------

    def to_prometheus(self) -> str:
        """Prometheus text exposition format (version 0.0.4)."""
        lines: list[str] = []
        for metric in self._snapshot_metrics():
            lines.extend(metric.expose())
        return "\n".join(lines) + "\n"

    def to_dict(self) -> dict[str, Any]:
        """JSON-able snapshot of every metric."""
        return {metric.name: metric.snapshot()
                for metric in self._snapshot_metrics()}

    def scalars(self) -> dict[str, float]:
        """One flat number per series — the ``metrics`` field of each
        per-step ``timeseries.jsonl`` row.

        Counters and gauges collapse to the sum over label sets;
        summaries contribute ``<name>_count`` and ``<name>_sum``.  Each metric's :meth:`~_Metric.scalar_samples`
        reads under its own lock, so this is safe against concurrent
        updates from callers' threads without the registry ever
        touching another object's private lock.
        """
        out: dict[str, float] = {}
        for metric in self._snapshot_metrics():
            out.update(metric.scalar_samples())
        return out


#: The process-wide default registry instrumented modules declare against.
REGISTRY = MetricsRegistry(gated=True)
