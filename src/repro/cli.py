"""Command-line interface: ``python -m repro <command>``.

Commands:

* ``demo``  — the Table-1 walkthrough: one update, two views, one atomic
  warehouse transaction; prints the state sequence and the MVC verdict.
* ``trace`` — replay a worked example (2, 3, 4 or 5) and print the VUT
  transitions like the paper's tables.
* ``run``   — assemble a full system over a chosen schema/view suite,
  drive a seeded workload through it, and print its run report: metrics,
  the promised and achieved MVC level.  Every architectural knob is a
  flag; ``--live`` renders the metrics registry periodically while the
  run executes.
* ``sweep`` — run several manager kinds on one identical workload and
  tabulate the comparison.
* ``inspect`` — run a workload and interrogate its observability record:
  per-update causal lineage chains (source commit → warehouse commit,
  with queue-wait vs service breakdowns) and the metrics registry.
* ``conformance`` — the schedule-exploration engine: ``explore`` hunts a
  configuration's seed space for MVC violations (and shrinks what it
  finds), ``replay`` re-executes a saved reproducer byte-for-byte, and
  ``matrix`` checks the guarantee matrix (see ``docs/conformance.md``).

``run``, ``sweep`` and ``inspect`` accept ``--trace-out PATH``; the
extension picks the format — ``.json`` is Chrome/Perfetto-loadable
(https://ui.perfetto.dev), ``.jsonl`` a lossless event log, ``.txt`` the
``Trace.format`` text (see ``docs/observability.md``).  Such a run, and
every ``inspect``, records every trace kind; any other run records the
``SystemConfig.trace_kinds`` default.  ``run`` and ``inspect`` accept
``--metrics-out PATH.json``, the run report with the registry in it.  A
path with any other extension is a usage error before anything is built.

Examples::

    python -m repro demo
    python -m repro trace 5
    python -m repro run --schema paper --manager strong --updates 200 \\
        --rate 4 --policy dbms-dependency --merges 2
    python -m repro run --trace-out trace.json --metrics-out run.json
    python -m repro run --live --live-interval 0.2
    python -m repro inspect --update 7
    python -m repro inspect --registry proc_ --slowest 3
    python -m repro conformance explore --manager naive --level strong \\
        --seeds 200 --out repro.json
    python -m repro conformance replay repro.json
    python -m repro conformance matrix --budget 60 --out-dir repros/
"""

from __future__ import annotations

import argparse
from pathlib import Path
from typing import Sequence

from repro.errors import ReproError
from repro.merge.pa import PaintingAlgorithm
from repro.merge.spa import SimplePaintingAlgorithm
from repro.obs.export import TRACE_SUFFIXES
from repro.relational.delta import Delta
from repro.relational.rows import Row
from repro.sources.update import Update
from repro.system.builder import WarehouseSystem
from repro.system.config import (
    MANAGER_KINDS,
    MANAGER_MODES,
    MERGE_ALGORITHMS,
    SUBMISSION_POLICIES,
    SystemConfig,
    manager_class,
)
from repro.viewmgr.actions import ActionList
from repro.workloads.generator import WorkloadSpec
from repro.workloads.schemas import SCHEMAS, paper_views_example1, paper_world


def _cmd_demo(args: argparse.Namespace) -> int:
    world = paper_world()
    system = WarehouseSystem(
        world, paper_views_example1(), SystemConfig(manager_kind="complete")
    )
    system.post_update(Update.insert("S", {"B": 2, "C": 3}), at=1.0)
    system.run()
    print("Table 1: insert [2,3] into S; V1 = R ./ S, V2 = S ./ T")
    for state in system.history:
        v1 = [tuple(r.values()) for r in state.view("V1").sorted_rows()]
        v2 = [tuple(r.values()) for r in state.view("V2").sorted_rows()]
        print(f"  t={state.time:6.2f}  V1={v1}  V2={v2}")
    print(f"MVC level achieved: {system.classify()}")
    return 0


def _trace_al(view: str, covered: Sequence[int]) -> ActionList:
    return ActionList.from_delta(
        view, view, tuple(covered), Delta.insert(Row(x=covered[-1]))
    )


_TRACES = {
    "2": (
        SimplePaintingAlgorithm,
        False,
        [
            ("REL1", 1, {"V1", "V2"}),
            ("REL2", 2, {"V2", "V3"}),
            ("AL21", "V2", [1]),
        ],
    ),
    "3": (
        SimplePaintingAlgorithm,
        False,
        [
            ("REL1", 1, {"V1", "V2"}),
            ("AL21", "V2", [1]),
            ("REL2", 2, {"V3"}),
            ("REL3", 3, {"V2"}),
            ("AL32", "V3", [2]),
            ("AL23", "V2", [3]),
            ("AL11", "V1", [1]),
        ],
    ),
    "4": (
        PaintingAlgorithm,
        True,
        [
            ("REL1", 1, {"V1", "V2"}),
            ("REL2", 2, {"V2", "V3"}),
            ("REL3", 3, {"V1", "V2"}),
            ("AL13", "V1", [1, 3]),
            ("AL21", "V2", [1]),
            ("AL22", "V2", [2]),
            ("AL32", "V3", [2]),
            ("AL23", "V2", [3]),
        ],
    ),
    "5": (
        PaintingAlgorithm,
        True,
        [
            ("REL1", 1, {"V1", "V2"}),
            ("REL2", 2, {"V2", "V3"}),
            ("REL3", 3, {"V2", "V3"}),
            ("AL21", "V2", [1]),
            ("AL23", "V2", [2, 3]),
            ("AL32", "V3", [2]),
            ("AL11", "V1", [1]),
            ("AL33", "V3", [3]),
        ],
    ),
}


def _cmd_trace(args: argparse.Namespace) -> int:
    algorithm_cls, show_state, events = _TRACES[args.example]
    algorithm = algorithm_cls(("V1", "V2", "V3"))
    print(f"Example {args.example} "
          f"({'PA' if algorithm_cls is PaintingAlgorithm else 'SPA'}):")
    for event in events:
        name = event[0]
        if name.startswith("REL"):
            units = algorithm.receive_rel(event[1], frozenset(event[2]))
        else:
            units = algorithm.receive_action_list(_trace_al(event[1], event[2]))
        applied = (
            ", ".join("{" + ",".join(f"U{r}" for r in u.rows) + "}" for u in units)
            or "-"
        )
        print(f"\nafter {name}: applied {applied}")
        rendering = algorithm.vut.render(show_state=show_state)
        print(rendering if rendering.strip() else "  (VUT empty)")
    return 0


def _cmd_sweep(args: argparse.Namespace) -> int:
    from repro.system.report import format_reports
    from repro.system.sweeps import sweep

    variants = {}
    for kind in args.variants.split(","):
        kind = kind.strip()
        try:
            manager_class(kind)
        except ReproError as error:
            raise SystemExit(str(error)) from None
        variants[kind] = {"manager_kind": kind}
    on_system = None
    if args.trace_out:
        from repro.obs import write_trace

        base = Path(args.trace_out)

        def on_system(name: str, system: WarehouseSystem) -> None:
            # one trace file per variant: trace.json -> trace-strong.json
            path = base.with_name(f"{base.stem}-{name}{base.suffix}")
            write_trace(system.sim.trace, path)
            print(f"trace ({name}): {path}")

    reports = sweep(_scenario(args), variants, args.seed, on_system=on_system,
                    **({"trace_kinds": None} if args.trace_out else {}))
    print(f"schema={args.schema}  updates={args.updates}  rate={args.rate}")
    print(format_reports(reports))
    return 0 if all(r.verified for r in reports) else 1


def _slo_from_flags(args: argparse.Namespace):
    """A SloPolicy from --slo-* flags, or None when none are set."""
    if args.slo_staleness is None and args.slo_queue is None \
            and args.slo_vut is None:
        return None
    from repro.obs.freshness import SloPolicy

    return SloPolicy(max_staleness=args.slo_staleness,
                     max_queue_depth=args.slo_queue, max_vut=args.slo_vut)


def _scenario(args: argparse.Namespace, **config: object):
    """The scenario the schema and workload flags describe: one fixed
    stream seeded by ``--seed``, FIFO tie-breaks, ``config`` overrides."""
    from repro.conformance.scenario import ScenarioSpec

    return ScenarioSpec(
        schema=args.schema,
        views=getattr(args, "views_file", None) or 0,
        workload=WorkloadSpec(updates=args.updates, rate=args.rate,
                              seed=args.seed, arrivals="poisson"),
        vary_workload=False,
        config=config,
        scheduler="fifo",
    )


def _build_system(args: argparse.Namespace) -> WarehouseSystem:
    """Assemble one loaded (not yet run) system from run/inspect flags."""
    spec = _scenario(
        args,
        manager_kind=args.manager,
        merge_algorithm=args.algorithm,
        submission_policy=args.policy,
        merge_groups=args.merges,
        manager_mode=args.mode,
        use_selection_filtering=args.filtering,
        warehouse_executors=args.executors,
        merge_message_cost=args.merge_cost,
    )
    # lineage (inspect) and an exported trace read every kind
    reads_trace = args.command == "inspect" or args.trace_out
    return spec.build(
        args.seed,
        freshness_tick=args.freshness_tick,
        slo=_slo_from_flags(args),
        profile_plans=args.profile,
        **({"trace_kinds": None} if reads_trace else {}),
    )


def _format_top(registry) -> str:
    """A one-screen family-level registry rendering (a ``run --live``
    frame)."""
    from repro.obs.registry import Counter, Gauge, Histogram

    families: dict[str, list] = {}
    for metric in registry:
        families.setdefault(metric.name, []).append(metric)
    lines = [f"{'family':<30} {'kind':<9} {'n':>3}  aggregate"]
    for name in sorted(families):
        group = families[name]
        first = group[0]
        if isinstance(first, Histogram):
            count = sum(m.count for m in group)
            total = sum(m.total for m in group)
            mean = total / count if count else 0.0
            agg = f"count={count} mean={mean:.6g} max={max(m.max for m in group):.6g}"
            kind = "histogram"
        elif isinstance(first, Gauge):
            agg = " ".join(
                f"{_label_suffix(m)}={m.value:.6g}" for m in group[:4]
            )
            if len(group) > 4:
                agg += f" (+{len(group) - 4} more)"
            kind = "gauge"
        elif isinstance(first, Counter):
            agg = f"total={sum(m.value for m in group):.6g}"
            kind = "counter"
        else:  # pragma: no cover - future metric kinds
            agg = ""
            kind = type(first).__name__
        lines.append(f"{name:<30} {kind:<9} {len(group):>3}  {agg}")
    return "\n".join(lines)


def _label_suffix(metric) -> str:
    return ",".join(v for _k, v in metric.labels) or metric.name


#: events per bounded slice of a live run; the renderer looks at the
#: clock between two slices
_LIVE_SLICE_EVENTS = 100


def _run_live(system: WarehouseSystem, interval: float) -> None:
    """Drive the run while rendering the registry every ``interval`` s.

    The run executes in bounded ``run(max_events=...)`` slices and a frame
    is printed between two slices once ``interval`` wall seconds have
    passed; the last ``run()`` drains and flushes, so the final state is
    the one an unsliced run reaches.
    """
    import time as _time

    last = _time.monotonic()
    while system.run(max_events=_LIVE_SLICE_EVENTS) == _LIVE_SLICE_EVENTS:
        if _time.monotonic() - last >= interval:
            print(f"\n-- live registry @ wall {_time.strftime('%H:%M:%S')} "
                  f"(sim t={system.sim.now:.2f}) --")
            print(_format_top(system.sim.metrics))
            last = _time.monotonic()
    if system.warehouse.refused is None:
        system.run()


def _epilogue(system: WarehouseSystem, args: argparse.Namespace) -> int:
    """The run/inspect ending: print the run's report, write the files
    asked for, close.  Returns 1 when the run fails its promise, else 2 on
    an SLO breach."""
    report = system.report()
    print(report.format())
    if args.metrics_out:
        import dataclasses

        path = Path(args.metrics_out)
        path.write_text(dataclasses.replace(
            report, registry=system.sim.metrics.to_dict()).to_json(),
            encoding="utf-8")
        print(f"metrics: {path}")
    if args.trace_out:
        from repro.obs import write_trace

        written = write_trace(system.sim.trace, args.trace_out)
        print(f"trace: {written} ({len(system.sim.trace)} events)")
    system.close()
    if not report.verified:
        return 1
    return 2 if report.monitor and report.monitor["breaches"] else 0


def _cmd_run(args: argparse.Namespace) -> int:
    system = _build_system(args)
    if args.live:
        _run_live(system, args.live_interval)
    else:
        system.run()
    if system.warehouse.refused is None:
        print(f"schema={args.schema} views={len(system.definitions)} "
              f"manager={args.manager} merge x{len(system.merge_processes)} "
              f"policy={args.policy}")
    return _epilogue(system, args)


def _cmd_inspect(args: argparse.Namespace) -> int:
    from repro.obs import Lineage

    system = _build_system(args)
    system.run()
    lineage = Lineage.from_system(system)
    print(f"schema={args.schema} manager={args.manager} "
          f"updates={args.updates} rate={args.rate} seed={args.seed}")
    print(f"{len(lineage)} updates numbered, "
          f"{len(lineage) - len(lineage.unreflected())} reflected, "
          f"{len(system.sim.trace)} trace events")

    if args.update is not None:
        for update_id in args.update:
            print()
            print(lineage.for_update(update_id).format())
    else:
        chains = [c for c in lineage.all() if c.reflected]
        chains.sort(key=lambda c: c.latency or 0.0, reverse=True)
        shown = chains[: args.slowest]
        print(f"\nslowest {len(shown)} update(s) by commit-to-visibility "
              f"latency (rerun with --update N for any chain):")
        for chain in shown:
            print()
            print(chain.format())
        for update_id in lineage.unreflected():
            print(f"\nU{update_id}: numbered but never reflected "
                  f"(still queued at end of run?)")

    if args.registry is not None:
        prefix = args.registry
        print(f"\nmetrics registry"
              + (f" (prefix {prefix!r})" if prefix else "") + ":")
        print(system.sim.metrics.format(prefix))

    print()
    return _epilogue(system, args)


def _cmd_cache(args: argparse.Namespace) -> int:
    from repro.cache.store import ArtifactStore

    store = ArtifactStore(args.root)
    if args.cache_command == "gc":
        report = store.gc(
            max_bytes=args.max_bytes, max_artifacts=args.max_artifacts
        )
        print(f"evicted {report['evicted']} artifact(s), "
              f"freed {report['freed_bytes']} byte(s)")
    stats = store.stats()
    print(f"store: {store.root}")
    for name in ("artifacts", "bytes", "refs", "pinned", "puts", "hits",
                 "misses", "integrity_failures", "evictions"):
        print(f"  {name:>18}: {stats[name]}")
    return 0


def add_scenario_flags(p: argparse.ArgumentParser, updates: int) -> None:
    """The flags every scenario-building command shares (``run``,
    ``inspect``, ``conformance explore``)."""
    p.add_argument("--schema", choices=sorted(SCHEMAS), default="paper")
    p.add_argument("--manager", choices=MANAGER_KINDS, default="complete")
    p.add_argument("--algorithm", choices=MERGE_ALGORITHMS, default="auto")
    p.add_argument("--policy", choices=SUBMISSION_POLICIES,
                   default="dependency-sequenced")
    p.add_argument("--merges", type=int, default=1)
    p.add_argument("--updates", type=int, default=updates)
    p.add_argument("--rate", type=float, default=2.0)


def _out_path(*suffixes: str):
    """An argparse ``type`` taking a path whose extension is one of
    ``suffixes``, so a wrong one fails before anything is built."""

    def check(path: str) -> str:
        if Path(path).suffix.lower() not in suffixes:
            raise argparse.ArgumentTypeError(
                f"{path!r}: use a {' / '.join(suffixes)} file")
        return path

    return check


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Multiple View Consistency for Data Warehousing "
        "(ICDE 1997) — reproduction toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    trace_out_path = _out_path(*TRACE_SUFFIXES)

    sub.add_parser("demo", help="the Table-1 walkthrough")

    trace = sub.add_parser("trace", help="replay a worked example's VUT trace")
    trace.add_argument("example", choices=sorted(_TRACES))

    def add_system_flags(p: argparse.ArgumentParser,
                         updates: int = 100) -> None:
        add_scenario_flags(p, updates)
        p.add_argument("--mode", choices=MANAGER_MODES, default="cached")
        p.add_argument("--executors", type=int, default=1)
        p.add_argument("--merge-cost", type=float, default=0.0)
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--filtering", action="store_true",
                       help="enable selection-condition relevance filtering")
        p.add_argument("--trace-out", default=None, metavar="PATH",
                       type=trace_out_path,
                       help="write the run's trace; format from extension "
                       "(.json Perfetto, .jsonl event log, .txt text)")
        p.add_argument("--freshness-tick", type=float, default=None,
                       metavar="T",
                       help="sample per-view staleness / queue depth / VUT "
                       "occupancy every T units of virtual time")
        p.add_argument("--slo-staleness", type=float, default=None,
                       metavar="T",
                       help="SLO: breach when any view's staleness exceeds T "
                       "(implies the freshness monitor; exit code 2 on "
                       "breach)")
        p.add_argument("--slo-queue", type=int, default=None, metavar="N",
                       help="SLO: breach when a merge queue exceeds N "
                       "messages")
        p.add_argument("--slo-vut", type=int, default=None, metavar="N",
                       help="SLO: breach when a merge VUT holds more than N "
                       "updates")
        p.add_argument("--profile", action="store_true",
                       help="profile plan propagation (per-node calls, "
                       "time, row volumes) and print the table")
        p.add_argument("--metrics-out", default=None, metavar="PATH",
                       type=_out_path(".json"),
                       help="write the run report, with the registry in "
                       "it, as .json")

    run = sub.add_parser("run", help="run a configurable warehouse workload")
    add_system_flags(run)
    run.add_argument("--views-file", default=None,
                     help="load view definitions from a catalog file "
                     "(overrides the schema's default view suite)")
    run.add_argument("--live", action="store_true",
                     help="render the registry every --live-interval wall "
                     "seconds, between bounded slices of the run")
    run.add_argument("--live-interval", type=float, default=1.0, metavar="S",
                     help="seconds between --live frames (default 1.0)")

    ins = sub.add_parser(
        "inspect",
        help="run a workload and query its lineage / metrics record",
    )
    add_system_flags(ins, updates=40)
    ins.add_argument("--update", type=int, action="append", metavar="N",
                     help="print the causal chain of update N (repeatable); "
                     "default: the slowest chains")
    ins.add_argument("--slowest", type=int, default=3, metavar="K",
                     help="without --update: show the K highest-latency "
                     "chains (default 3)")
    ins.add_argument("--registry", nargs="?", const="", default=None,
                     metavar="PREFIX",
                     help="also dump the metrics registry (optionally only "
                     "names starting with PREFIX, e.g. proc_ or chan_)")

    swp = sub.add_parser(
        "sweep", help="compare manager kinds on one workload"
    )
    swp.add_argument("--schema", choices=sorted(SCHEMAS), default="paper")
    swp.add_argument("--variants", default="complete,strong,convergent",
                     help="comma-separated manager kinds to compare")
    swp.add_argument("--updates", type=int, default=80)
    swp.add_argument("--rate", type=float, default=2.0)
    swp.add_argument("--seed", type=int, default=0)
    swp.add_argument("--trace-out", default=None, metavar="PATH",
                     type=trace_out_path,
                     help="write one trace file per variant "
                     "(trace.json -> trace-<variant>.json)")

    cache = sub.add_parser(
        "cache",
        help="inspect or garbage-collect a materialization artifact store",
    )
    cache_sub = cache.add_subparsers(dest="cache_command", required=True)
    cstats = cache_sub.add_parser(
        "stats", help="print artifact/ref/pin counts and byte totals"
    )
    cstats.add_argument("--root", required=True, metavar="DIR",
                        help="artifact store directory (CacheConfig.root)")
    cgc = cache_sub.add_parser(
        "gc", help="evict least-recently-used artifacts down to the caps"
    )
    cgc.add_argument("--root", required=True, metavar="DIR",
                     help="artifact store directory (CacheConfig.root)")
    cgc.add_argument("--max-bytes", type=int, default=None, metavar="N",
                     help="evict until total payload bytes <= N")
    cgc.add_argument("--max-artifacts", type=int, default=None, metavar="N",
                     help="evict until the artifact count <= N")

    from repro.conformance.cli import add_conformance_parser

    add_conformance_parser(sub)
    return parser


_COMMANDS = {
    "demo": _cmd_demo,
    "trace": _cmd_trace,
    "run": _cmd_run,
    "sweep": _cmd_sweep,
    "inspect": _cmd_inspect,
    "cache": _cmd_cache,
}


def main(argv: Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    if args.command == "conformance":
        from repro.conformance.cli import dispatch

        return dispatch(args)
    return _COMMANDS[args.command](args)


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
