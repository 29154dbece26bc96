"""Metrics exporters: Prometheus text exposition and JSON snapshots.

The registry's own :meth:`~repro.obs.registry.MetricsRegistry.to_dict` /
``format`` are debugging views; this module renders the same instruments
in the two formats external tooling expects:

* :func:`to_prometheus` — the `text exposition format
  <https://prometheus.io/docs/instrumenting/exposition_formats/>`_, one
  ``# TYPE`` block per metric family.  Counters and gauges export their
  scalar value; histograms export Prometheus *summary* families
  (``quantile=`` samples plus ``_sum``/``_count``).
* :func:`to_snapshot` — a JSON-serialisable snapshot (``to_dict`` plus a
  small ``meta`` header) that round-trips losslessly through
  ``json.dumps``/``loads``.

:func:`write_metrics` dispatches on file extension the way
:func:`repro.obs.export.write_trace` does for traces: ``.prom``/``.txt``
get the text exposition, ``.json`` gets the snapshot.

All rendering goes through each instrument's ``summary()``, a single
mutator-free read per instrument.
"""

from __future__ import annotations

import json
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


def parse_prometheus(text: str) -> dict[str, float]:
    """Parse exposition text back to ``{sample_line_key: value}``.

    A deliberately small inverse of :func:`to_prometheus` used by tests
    (round-trip equality) and the live ``top`` view; it handles exactly
    what :func:`to_prometheus` emits, not the full grammar.
    """
    samples: dict[str, float] = {}
    for line in text.splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        key, _, value = line.rpartition(" ")
        samples[key] = float(value)
    return samples


def to_snapshot(registry: MetricsRegistry) -> dict:
    """A JSON-serialisable snapshot of the whole registry."""
    return {
        "meta": {
            "format": "repro-metrics-snapshot/1",
            "instruments": len(registry),
        },
        "metrics": registry.to_dict(),
    }


def write_metrics(registry: MetricsRegistry, path: str | Path,
                  namespace: str = "repro") -> Path:
    """Write the registry to ``path``, format chosen by extension.

    ``.prom`` / ``.txt`` → Prometheus text exposition; ``.json`` → the
    JSON snapshot.  Returns the path written.
    """
    path = Path(path)
    suffix = path.suffix.lower()
    if suffix in (".prom", ".txt"):
        path.write_text(to_prometheus(registry, namespace=namespace),
                        encoding="utf-8")
    elif suffix == ".json":
        path.write_text(json.dumps(to_snapshot(registry), indent=2,
                                   sort_keys=True), encoding="utf-8")
    else:
        raise ValueError(
            f"unknown metrics format {suffix!r} for {path} "
            f"(use .prom/.txt or .json)"
        )
    return path


__all__ = [
    "parse_prometheus",
    "to_prometheus",
    "to_snapshot",
    "write_metrics",
]
