"""The metrics registry: counters, gauges, latency histograms.

Instruments follow the Prometheus data model and render in its text
exposition format (``render_prometheus``), so an engine's state can be
scraped straight off :class:`~repro.services.HttpServiceServer`'s
optional ``/metrics`` route.

Two ways to get a value into a metric:

* **hot-path instruments** — ``Counter.inc`` / ``Gauge.set`` /
  ``Histogram.observe``; all updates take the instrument's lock, so the
  same classes double as the thread-safe counters behind
  ``GenericRequestHandler.stats`` (its dispatch path may be driven from
  several threads at once);
* **scrape-time callbacks** — an instrument constructed with
  ``callback=`` reads its value(s) only when rendered.  State the
  engine already tracks (``engine.stats``, breaker states, queue
  lengths) is exposed this way at zero hot-path cost; a histogram
  family's callback hands back the histograms a component keeps for
  itself.

Histograms use fixed cumulative buckets (Prometheus ``le`` semantics);
the default ladder spans 100µs…10s, covering in-process component calls
and remote HTTP round-trips alike.
"""

from __future__ import annotations

import threading
from bisect import bisect_left
from typing import Callable, Iterable

__all__ = ["Counter", "Gauge", "Histogram", "MetricsRegistry",
           "DEFAULT_BUCKETS"]

#: latency bucket upper bounds, in seconds
DEFAULT_BUCKETS = (0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005, 0.01,
                   0.025, 0.05, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0)


class Counter:
    """A monotonically increasing, thread-safe counter."""

    __slots__ = ("_value", "_lock")

    def __init__(self) -> None:
        self._value = 0
        self._lock = threading.Lock()

    def inc(self, amount: int | float = 1) -> None:
        if amount < 0:
            raise ValueError("counters only go up")
        with self._lock:
            self._value += amount

    @property
    def value(self) -> int | float:
        return self._value


class Gauge:
    """A value that can go up and down (thread-safe)."""

    __slots__ = ("_value", "_lock")

    def __init__(self) -> None:
        self._value = 0.0
        self._lock = threading.Lock()

    def set(self, value: float) -> None:
        with self._lock:
            self._value = value

    def inc(self, amount: float = 1) -> None:
        with self._lock:
            self._value += amount

    def dec(self, amount: float = 1) -> None:
        with self._lock:
            self._value -= amount

    @property
    def value(self) -> float:
        return self._value


class Histogram:
    """Fixed-bucket distribution of observations (thread-safe).

    Buckets are cumulative at render time (Prometheus ``le``); storage
    is per-bucket counts so ``observe`` is one bisect + two adds.
    """

    __slots__ = ("buckets", "_counts", "_sum", "_count", "_lock")

    def __init__(self, buckets: Iterable[float] = DEFAULT_BUCKETS) -> None:
        self.buckets = tuple(sorted(buckets))
        if not self.buckets:
            raise ValueError("a histogram needs at least one bucket")
        self._counts = [0] * (len(self.buckets) + 1)   # +1 for +Inf
        self._sum = 0.0
        self._count = 0
        self._lock = threading.Lock()

    def observe(self, value: float) -> None:
        index = bisect_left(self.buckets, value)
        with self._lock:
            self._counts[index] += 1
            self._sum += value
            self._count += 1

    @property
    def count(self) -> int:
        return self._count

    @property
    def sum(self) -> float:
        return self._sum

    def snapshot(self) -> tuple[list[int], float, int]:
        """(cumulative bucket counts incl. +Inf, sum, count)."""
        with self._lock:
            counts = list(self._counts)
            total_sum, total_count = self._sum, self._count
        cumulative: list[int] = []
        running = 0
        for count in counts:
            running += count
            cumulative.append(running)
        return cumulative, total_sum, total_count


class _Family:
    """A labelled family of instruments of one kind.

    ``max_children`` caps label cardinality: once the family holds that
    many children, unseen label combinations share one hidden overflow
    instrument — writes to it land somewhere harmless instead of
    allocating, and it is never rendered, so a label built from an
    unbounded input (an attacker-chosen endpoint, a replayed rule id)
    cannot grow the exposition without limit.  ``on_overflow`` is
    called once per rejected lookup so the registry can count drops.
    """

    def __init__(self, make: Callable[[], object],
                 label_names: tuple[str, ...],
                 max_children: int | None = None,
                 on_overflow: Callable[[], None] | None = None) -> None:
        self._make = make
        self.label_names = label_names
        self._children: dict[tuple[str, ...], object] = {}
        self._lock = threading.Lock()
        self.max_children = max_children
        self._on_overflow = on_overflow
        self._overflow: object | None = None

    def labels(self, *values: str):
        """The child instrument for one label-value combination."""
        if len(values) != len(self.label_names):
            raise ValueError(
                f"expected {len(self.label_names)} label value(s) "
                f"{self.label_names}, got {len(values)}")
        key = tuple(str(value) for value in values)
        child = self._children.get(key)
        if child is None:
            with self._lock:
                child = self._children.get(key)
                if child is None:
                    if self.max_children is not None and \
                            len(self._children) >= self.max_children:
                        if self._overflow is None:
                            self._overflow = self._make()
                        child = self._overflow
                    else:
                        child = self._children[key] = self._make()
            if child is self._overflow and self._on_overflow is not None:
                self._on_overflow()
        return child

    def items(self) -> list[tuple[tuple[str, ...], object]]:
        with self._lock:
            return list(self._children.items())


class _Metric:
    """One registered metric: name, help, kind and its instrument(s)."""

    __slots__ = ("name", "help", "kind", "instrument", "callback",
                 "label_names")

    def __init__(self, name: str, help_text: str, kind: str, instrument,
                 callback, label_names) -> None:
        self.name = name
        self.help = help_text
        self.kind = kind
        self.instrument = instrument
        self.callback = callback
        self.label_names = label_names


_NAME_OK = set("abcdefghijklmnopqrstuvwxyz"
               "ABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789_:")


def _escape_label(value: str) -> str:
    return (str(value).replace("\\", "\\\\").replace("\n", "\\n")
            .replace('"', '\\"'))


def _format_value(value) -> str:
    if isinstance(value, bool):
        return "1" if value else "0"
    if isinstance(value, int):
        return str(value)
    return repr(float(value))


def _render_labels(names: tuple[str, ...], values: tuple[str, ...],
                   extra: tuple[tuple[str, str], ...] = ()) -> str:
    pairs = [f'{name}="{_escape_label(value)}"'
             for name, value in zip(names, values)]
    pairs.extend(f'{name}="{_escape_label(value)}"'
                 for name, value in extra)
    return "{" + ",".join(pairs) + "}" if pairs else ""


class MetricsRegistry:
    """Owns every instrument and renders the exposition text.

    ``max_label_values`` bounds every labelled family's cardinality
    (see :class:`_Family`); lookups beyond the cap are tallied in the
    self-metric ``eca_metrics_dropped_labels_total``.
    """

    def __init__(self, max_label_values: int | None = 1024) -> None:
        self._metrics: dict[str, _Metric] = {}
        self._lock = threading.Lock()
        self.max_label_values = max_label_values
        self._dropped_labels = Counter()
        self._metrics["eca_metrics_dropped_labels_total"] = _Metric(
            "eca_metrics_dropped_labels_total",
            "Label lookups rejected by the cardinality cap",
            "counter", self._dropped_labels, None, ())

    @property
    def dropped_labels(self) -> int:
        """Label lookups absorbed by overflow instruments so far."""
        return self._dropped_labels.value

    # -- registration ------------------------------------------------------

    def _register(self, name: str, help_text: str, kind: str,
                  labels: tuple[str, ...], callback, make) -> object:
        if not name or not set(name) <= _NAME_OK or name[0].isdigit():
            raise ValueError(f"invalid metric name {name!r}")
        with self._lock:
            existing = self._metrics.get(name)
            if existing is not None:
                if existing.kind != kind or existing.label_names != labels:
                    raise ValueError(
                        f"metric {name!r} already registered as "
                        f"{existing.kind} with labels "
                        f"{existing.label_names}")
                if callback is not None:
                    # re-installation (e.g. a recovered engine over the
                    # same registry) re-binds the scrape-time source
                    existing.callback = callback
                return existing.instrument
            if callback is not None:
                instrument = None
            elif labels:
                instrument = _Family(make, labels,
                                     max_children=self.max_label_values,
                                     on_overflow=self._dropped_labels.inc)
            else:
                instrument = make()
            self._metrics[name] = _Metric(name, help_text, kind, instrument,
                                          callback, labels)
            return instrument

    def counter(self, name: str, help_text: str = "",
                labels: tuple[str, ...] = (),
                callback: Callable[[], object] | None = None):
        """A counter, a labelled counter family, or (with ``callback``)
        a scrape-time counter whose callback returns either a number or
        a ``{label-values-tuple: number}`` mapping."""
        return self._register(name, help_text, "counter", tuple(labels),
                              callback, Counter)

    def gauge(self, name: str, help_text: str = "",
              labels: tuple[str, ...] = (),
              callback: Callable[[], object] | None = None):
        return self._register(name, help_text, "gauge", tuple(labels),
                              callback, Gauge)

    def histogram(self, name: str, help_text: str = "",
                  labels: tuple[str, ...] = (),
                  buckets: Iterable[float] = DEFAULT_BUCKETS,
                  callback: Callable[[], object] | None = None):
        """A histogram, a labelled histogram family, or (with
        ``callback``) a scrape-time family whose callback returns a
        :class:`Histogram` or a ``{label-values-tuple: [Histogram, …]}``
        mapping — several histograms under one label render as their
        sum."""
        bucket_tuple = tuple(buckets)
        return self._register(name, help_text, "histogram", tuple(labels),
                              callback, lambda: Histogram(bucket_tuple))

    def get(self, name: str):
        metric = self._metrics.get(name)
        return metric.instrument if metric is not None else None

    # -- exposition --------------------------------------------------------

    def render_prometheus(self) -> str:
        """The registry in Prometheus text exposition format 0.0.4."""
        lines: list[str] = []
        with self._lock:
            metrics = sorted(self._metrics.values(),
                             key=lambda metric: metric.name)
        for metric in metrics:
            if metric.help:
                lines.append(f"# HELP {metric.name} {metric.help}")
            lines.append(f"# TYPE {metric.name} {metric.kind}")
            if metric.kind == "histogram":
                self._render_histograms(lines, metric)
            elif metric.callback is not None:
                self._render_callback(lines, metric)
            elif metric.label_names:
                for values, child in sorted(metric.instrument.items()):
                    labels = _render_labels(metric.label_names, values)
                    lines.append(f"{metric.name}{labels} "
                                 f"{_format_value(child.value)}")
            else:
                lines.append(
                    f"{metric.name} {_format_value(metric.instrument.value)}")
        return "\n".join(lines) + "\n"

    @staticmethod
    def _render_callback(lines: list[str], metric: _Metric) -> None:
        try:
            result = metric.callback()
        except Exception:
            # a scrape must never take the engine down with it
            return
        if isinstance(result, dict):
            for values, value in sorted(
                    (tuple(str(part) for part in
                           (key if isinstance(key, tuple) else (key,))),
                     value) for key, value in result.items()):
                labels = _render_labels(metric.label_names, values)
                lines.append(f"{metric.name}{labels} "
                             f"{_format_value(value)}")
        else:
            lines.append(f"{metric.name} {_format_value(result)}")

    @staticmethod
    def _render_histograms(lines: list[str], metric: _Metric) -> None:
        if metric.callback is not None:
            try:
                result = metric.callback()
            except Exception:
                return
            children = [((), [result])] if isinstance(result, Histogram) \
                else sorted(result.items())
        elif metric.label_names:
            children = [(values, [histogram]) for values, histogram
                        in sorted(metric.instrument.items())]
        else:
            children = [((), [metric.instrument])]
        for values, histograms in children:
            cumulative, total_sum, total_count = histograms[0].snapshot()
            for histogram in histograms[1:]:
                more, more_sum, more_count = histogram.snapshot()
                cumulative = [a + b for a, b in zip(cumulative, more)]
                total_sum += more_sum
                total_count += more_count
            for bound, count in zip(histograms[0].buckets, cumulative):
                labels = _render_labels(metric.label_names, values,
                                        (("le", _format_value(bound)),))
                lines.append(f"{metric.name}_bucket{labels} {count}")
            labels = _render_labels(metric.label_names, values,
                                    (("le", "+Inf"),))
            lines.append(f"{metric.name}_bucket{labels} {cumulative[-1]}")
            labels = _render_labels(metric.label_names, values)
            lines.append(f"{metric.name}_sum{labels} "
                         f"{_format_value(total_sum)}")
            lines.append(f"{metric.name}_count{labels} {total_count}")
