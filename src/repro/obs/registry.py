"""Typed metrics: counters, gauges and histograms behind one registry.

Every :class:`~repro.sim.kernel.Simulator` owns a
:class:`MetricsRegistry`; processes and channels register their
instruments against it (labelled by process or channel endpoint names), so
an entire run's quantitative record lives in one queryable place instead
of ad-hoc attributes scattered over the codebase.
:class:`~repro.system.report.RunReport` reads the merges' VUT gauges and
the processes' queue-wait histograms from it.

Instruments are identified by ``(name, labels)``; asking the registry for
the same identity twice returns the same instrument, so wiring code can be
written get-or-create style::

    registry.counter("channel_messages_sent", src="merge", dst="warehouse")

Design notes:

* **Counter** — monotonically increasing float (message counts, busy
  time).  ``inc()`` only; resets happen by building a new simulator.
* **Gauge** — a sampled value with min/max tracking; with
  ``timeline=True`` it also keeps every ``(time, value)`` sample, which is
  how VUT occupancy *over time* is recorded.
* **Histogram** — stores observations for exact quantiles.  The run sizes
  this library simulates (10⁴–10⁵ events) make exact storage cheaper and
  more honest than bucketed approximation — so exact mode is the
  default.  A histogram created with ``bound=N`` keeps exact
  count/total/mean/max, but only an Algorithm-R reservoir of ``N``
  observations backs the quantiles, for instruments that would otherwise
  grow beyond memory.
"""

from __future__ import annotations

import random as _random
from typing import Callable, Iterator, Mapping


def percentile(values: list[float], fraction: float) -> float:
    """Linear-interpolated percentile (numpy's default method).

    Nearest-rank via ``round()`` biases small samples — e.g. the p95 of ten
    values jumps straight to the maximum — so interpolate between the two
    bracketing order statistics instead.
    """
    if not values:
        return 0.0
    ordered = sorted(values)
    if len(ordered) == 1:
        return ordered[0]
    position = fraction * (len(ordered) - 1)
    lower = int(position)
    upper = min(lower + 1, len(ordered) - 1)
    weight = position - lower
    return ordered[lower] * (1.0 - weight) + ordered[upper] * weight


class Metric:
    """Base class: a named, labelled instrument."""

    __slots__ = ("name", "labels")

    def __init__(self, name: str, labels: tuple[tuple[str, str], ...]) -> None:
        self.name = name
        self.labels = labels

    @property
    def key(self) -> str:
        """Stable flat identity, e.g. ``proc_busy_time{process=merge}``."""
        if not self.labels:
            return self.name
        inner = ",".join(f"{k}={v}" for k, v in self.labels)
        return f"{self.name}{{{inner}}}"

    def summary(self) -> dict:
        """A JSON-serialisable snapshot of the instrument's state."""
        raise NotImplementedError

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self.key})"


class Counter(Metric):
    """A monotonically increasing value."""

    __slots__ = ("_value",)

    def __init__(self, name: str, labels: tuple[tuple[str, str], ...]) -> None:
        super().__init__(name, labels)
        self._value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ValueError(f"counter {self.key} cannot decrease by {amount}")
        self._value += amount

    def advance_to(self, total: float) -> None:
        """Publish the absolute total of a sum kept elsewhere (handing over
        float differences would change its low bits).  For publishers."""
        if total < self._value:
            raise ValueError(f"counter {self.key} cannot fall back to {total}")
        self._value = float(total)

    @property
    def value(self) -> float:
        return self._value

    def summary(self) -> dict:
        return {"type": "counter", "value": self._value}


class Gauge(Metric):
    """A sampled value; optionally keeps its full (time, value) timeline."""

    __slots__ = ("_value", "_min", "_max", "_samples")

    def __init__(
        self,
        name: str,
        labels: tuple[tuple[str, str], ...],
        timeline: bool = False,
    ) -> None:
        super().__init__(name, labels)
        self._value: float | None = None
        self._min: float | None = None
        self._max: float | None = None
        self._samples: list[tuple[float, float]] | None = [] if timeline else None

    def set(self, value: float, at: float | None = None) -> None:
        self._value = value
        if self._min is None or value < self._min:
            self._min = value
        if self._max is None or value > self._max:
            self._max = value
        if self._samples is not None:
            self._samples.append((0.0 if at is None else at, value))

    @property
    def value(self) -> float:
        return 0.0 if self._value is None else self._value

    @property
    def min(self) -> float:
        return 0.0 if self._min is None else self._min

    @property
    def max(self) -> float:
        return 0.0 if self._max is None else self._max

    @property
    def samples(self) -> tuple[tuple[float, float], ...]:
        """The recorded timeline (empty unless created with timeline=True)."""
        return tuple(self._samples or ())

    def summary(self) -> dict:
        out = {
            "type": "gauge",
            "value": self.value,
            "min": self.min,
            "max": self.max,
        }
        if self._samples is not None:
            out["samples"] = len(self._samples)
        return out


class Histogram(Metric):
    """A distribution of observations with exact quantiles.

    With ``bound=N`` the histogram keeps exact ``count``/``total``/
    ``mean``/``max`` but retains only an Algorithm-R reservoir of ``N``
    observations to back the quantiles, so memory stays O(N) on
    arbitrarily long runs.  The reservoir RNG is seeded from
    the instrument's identity, keeping retained samples reproducible
    across runs and processes.
    """

    __slots__ = ("_values", "_total", "_count", "_max", "_bound", "_rng")

    def __init__(
        self,
        name: str,
        labels: tuple[tuple[str, str], ...],
        bound: int | None = None,
    ) -> None:
        super().__init__(name, labels)
        if bound is not None and bound < 1:
            raise ValueError(f"histogram {name} bound must be >= 1, got {bound}")
        self._values: list[float] = []
        self._total = 0.0
        self._count = 0
        self._max: float | None = None
        self._bound = bound
        self._rng = _random.Random(self.key) if bound is not None else None

    def observe(self, value: float) -> None:
        self._total += value
        self._count += 1
        if self._max is None or value > self._max:
            self._max = value
        if self._bound is None or len(self._values) < self._bound:
            self._values.append(value)
        else:
            slot = self._rng.randrange(self._count)
            if slot < self._bound:
                self._values[slot] = value

    @property
    def bound(self) -> int | None:
        """Reservoir size, or None for exact (unbounded) storage."""
        return self._bound

    @property
    def count(self) -> int:
        return self._count

    @property
    def total(self) -> float:
        return self._total

    @property
    def mean(self) -> float:
        return self._total / self._count if self._count else 0.0

    @property
    def max(self) -> float:
        return 0.0 if self._max is None else self._max

    def quantile(self, fraction: float) -> float:
        return percentile(self._values, fraction)

    def values(self) -> tuple[float, ...]:
        """Retained observations (all of them in exact mode)."""
        return tuple(self._values)

    def summary(self) -> dict:
        out = {
            "type": "histogram",
            "count": self.count,
            "total": self._total,
            "mean": self.mean,
            "p50": self.quantile(0.5),
            "p95": self.quantile(0.95),
            "max": self.max,
        }
        if self._bound is not None:
            out["bound"] = self._bound
        return out


class MetricsRegistry:
    """Get-or-create home for every instrument of one simulation run."""

    __slots__ = ("_metrics", "_publishers")

    def __init__(self) -> None:
        self._metrics: dict[tuple[str, tuple[tuple[str, str], ...]], Metric] = {}
        self._publishers: list[Callable[[], None]] = []

    def on_read(self, publish: Callable[[], None]) -> Callable[[], None]:
        """Run ``publish()`` before every query answers.

        A publisher hands statistics its owner keeps in plain attributes to
        instruments it has already bound; it must not call back into the
        registry.  Returns ``publish``, for an owner that must publish
        early (a full buffer).
        """
        self._publishers.append(publish)
        return publish

    def _publish(self) -> None:
        for publish in self._publishers:
            publish()

    @staticmethod
    def _label_key(labels: Mapping[str, str]) -> tuple[tuple[str, str], ...]:
        return tuple(sorted((k, str(v)) for k, v in labels.items()))

    def _get_or_create(self, cls: type, name: str, labels: Mapping[str, str],
                       **kwargs: object) -> Metric:
        key = (name, self._label_key(labels))
        metric = self._metrics.get(key)
        if metric is None:
            metric = cls(name, key[1], **kwargs)
            self._metrics[key] = metric
        elif not isinstance(metric, cls):
            raise TypeError(
                f"metric {metric.key} already registered as "
                f"{type(metric).__name__}, asked for {cls.__name__}"
            )
        return metric

    def counter(self, name: str, **labels: str) -> Counter:
        return self._get_or_create(Counter, name, labels)  # type: ignore[return-value]

    def gauge(self, name: str, timeline: bool = False, **labels: str) -> Gauge:
        gauge = self._get_or_create(Gauge, name, labels, timeline=timeline)
        return gauge  # type: ignore[return-value]

    def histogram(
        self, name: str, bound: int | None = None, **labels: str
    ) -> Histogram:
        return self._get_or_create(  # type: ignore[return-value]
            Histogram, name, labels, bound=bound
        )

    # -- queries -----------------------------------------------------------
    def __iter__(self) -> Iterator[Metric]:
        self._publish()
        return iter(self._metrics.values())

    def __len__(self) -> int:
        return len(self._metrics)

    def get(self, name: str, **labels: str) -> Metric | None:
        """The instrument with this exact identity, or None."""
        self._publish()
        return self._metrics.get((name, self._label_key(labels)))

    def family(self, name: str) -> list[Metric]:
        """Every instrument sharing ``name``, across all label sets."""
        self._publish()
        return [m for (n, _), m in sorted(self._metrics.items()) if n == name]

    def value(self, name: str, default: float = 0.0, **labels: str) -> float:
        """Convenience: the scalar value of a counter/gauge, or ``default``."""
        metric = self.get(name, **labels)
        if metric is None:
            return default
        return metric.value  # type: ignore[union-attr]

    def to_dict(self) -> dict[str, dict]:
        """Flat JSON-serialisable dump: ``{flat_key: summary}``."""
        self._publish()
        return {
            metric.key: metric.summary()
            for _, metric in sorted(self._metrics.items())
        }

    def format(self, prefix: str = "") -> str:
        """Plain-text dump (optionally restricted to a name prefix)."""
        self._publish()
        lines = []
        for _, metric in sorted(self._metrics.items()):
            if prefix and not metric.name.startswith(prefix):
                continue
            summary = metric.summary()
            kind = summary.pop("type")
            inner = " ".join(
                f"{k}={v:.4g}" if isinstance(v, float) else f"{k}={v}"
                for k, v in summary.items()
            )
            lines.append(f"{metric.key:<60} {kind:<9} {inner}")
        return "\n".join(lines)
