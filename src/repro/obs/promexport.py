"""Metrics exporter: the Prometheus text exposition format.

The registry's own :meth:`~repro.obs.registry.MetricsRegistry.to_dict` /
``format`` are debugging views; :func:`to_prometheus` renders the same
instruments in the `text exposition format
<https://prometheus.io/docs/instrumenting/exposition_formats/>`_ external
tooling expects, one ``# TYPE`` block per metric family.  Counters and
gauges export their scalar value; histograms export Prometheus *summary*
families (``quantile=`` samples plus ``_sum``/``_count``).
:func:`write_metrics` writes it to a ``.prom`` / ``.txt`` file.  The JSON
record of a run is its report
(:meth:`repro.system.report.RunReport.to_json`), which embeds
``to_dict()``.

All rendering goes through each instrument's ``summary()``, a single
mutator-free read per instrument.
"""

from __future__ import annotations

import re
from pathlib import Path

from repro.obs.registry import Counter, Gauge, Histogram, MetricsRegistry

#: quantiles exported for every histogram family
_QUANTILES = (0.5, 0.95, 0.99)

_NAME_OK = re.compile(r"[a-zA-Z_:][a-zA-Z0-9_:]*$")


def _prom_name(name: str) -> str:
    """A valid Prometheus metric name (replace anything else with '_')."""
    cleaned = re.sub(r"[^a-zA-Z0-9_:]", "_", name)
    if not _NAME_OK.match(cleaned):
        cleaned = "_" + cleaned
    return cleaned


def _escape(value: str) -> str:
    return (
        str(value)
        .replace("\\", "\\\\")
        .replace('"', '\\"')
        .replace("\n", "\\n")
    )


def _labels(metric, extra: dict[str, object] | None = None) -> str:
    pairs = [(k, v) for k, v in metric.labels]
    if extra:
        pairs.extend(extra.items())
    if not pairs:
        return ""
    inner = ",".join(f'{_prom_name(k)}="{_escape(v)}"' for k, v in pairs)
    return "{" + inner + "}"


def _fmt(value: float) -> str:
    # repr() keeps full float precision and renders ints without ".0" noise
    return repr(float(value))


def to_prometheus(registry: MetricsRegistry, namespace: str = "repro") -> str:
    """The registry in Prometheus text exposition format."""
    families: dict[str, list] = {}
    for metric in registry:
        families.setdefault(metric.name, []).append(metric)

    lines: list[str] = []
    for name in sorted(families):
        metrics = sorted(families[name], key=lambda m: m.labels)
        full = f"{_prom_name(namespace)}_{_prom_name(name)}" if namespace \
            else _prom_name(name)
        first = metrics[0]
        if isinstance(first, Counter):
            lines.append(f"# TYPE {full} counter")
            for m in metrics:
                lines.append(f"{full}{_labels(m)} {_fmt(m.value)}")
        elif isinstance(first, Gauge):
            lines.append(f"# TYPE {full} gauge")
            for m in metrics:
                lines.append(f"{full}{_labels(m)} {_fmt(m.value)}")
        elif isinstance(first, Histogram):
            lines.append(f"# TYPE {full} summary")
            for m in metrics:
                for q in _QUANTILES:
                    lines.append(
                        f"{full}{_labels(m, {'quantile': str(q)})} "
                        f"{_fmt(m.quantile(q))}"
                    )
                lines.append(f"{full}_sum{_labels(m)} {_fmt(m.total)}")
                lines.append(f"{full}_count{_labels(m)} {_fmt(float(m.count))}")
    return "\n".join(lines) + ("\n" if lines else "")


def write_metrics(registry: MetricsRegistry, path: str | Path,
                  namespace: str = "repro") -> Path:
    """Write the registry to a ``.prom`` / ``.txt`` ``path`` in Prometheus
    text exposition.  Returns the path written."""
    path = Path(path)
    suffix = path.suffix.lower()
    if suffix not in (".prom", ".txt"):
        raise ValueError(
            f"unknown metrics format {suffix!r} for {path} (use .prom/.txt; "
            f"a run's JSON record is RunReport.to_json())"
        )
    path.write_text(to_prometheus(registry, namespace=namespace),
                    encoding="utf-8")
    return path


__all__ = ["to_prometheus", "write_metrics"]
