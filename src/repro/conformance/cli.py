"""``python -m repro conformance`` — hunt, shrink, replay.

Subcommands:

* ``explore`` — build a scenario from flags, run it across a seed range,
  and report the first guarantee violation (shrunk and optionally saved
  with ``--out``).  Exit code 0 = no violation found, 2 = found.
* ``replay FILE`` — re-execute a saved reproducer and verify both that
  the violation recurs and that the trace digest matches byte-for-byte.
  Exit code 0 = reproduced, 1 = not.
* ``matrix`` — run the guarantee matrix (``repro.conformance.matrix``);
  negative-row reproducers land in ``--out-dir``.  Exit 0 = every row
  matched its expectation.
"""

from __future__ import annotations

import argparse

from repro.conformance.explorer import Explorer, Reproducer, replay
from repro.conformance.matrix import run_matrix
from repro.conformance.scenario import SCHEDULER_KINDS, ScenarioSpec
from repro.errors import ReproError
from repro.faults.plan import FaultPlan
from repro.system.config import manager_class
from repro.workloads.generator import WorkloadSpec


def parse_fleet(text: str) -> dict[str, str]:
    """``V1=complete,V2=naive`` -> per-view manager kinds."""
    fleet: dict[str, str] = {}
    for part in text.split(","):
        part = part.strip()
        if not part:
            continue
        if "=" not in part:
            raise ReproError(f"--managers wants VIEW=KIND pairs, got {part!r}")
        view, _, kind = part.partition("=")
        manager_class(kind, view)
        fleet[view.strip()] = kind.strip()
    return fleet


def parse_faults(text: str) -> FaultPlan:
    """``drop=0.05,dup=0.02,spike=0.1,unreliable,seed=3`` -> FaultPlan."""
    kwargs: dict[str, object] = {}
    for part in text.split(","):
        part = part.strip()
        if not part:
            continue
        if part == "unreliable":
            kwargs["reliable"] = False
            continue
        if "=" not in part:
            raise ReproError(f"bad --faults item {part!r}")
        key, _, value = part.partition("=")
        mapping = {
            "drop": ("drop_rate", float),
            "dup": ("duplicate_rate", float),
            "spike": ("delay_spike_rate", float),
            "spike-delay": ("delay_spike", float),
            "seed": ("seed", int),
        }
        if key not in mapping:
            raise ReproError(f"unknown --faults key {key!r}")
        name, cast = mapping[key]
        kwargs[name] = cast(value)
    return FaultPlan(**kwargs)  # type: ignore[arg-type]


def spec_from_args(args: argparse.Namespace) -> ScenarioSpec:
    """The scenario the ``explore`` flags describe."""
    config = dict(
        manager_kind=args.manager,
        merge_algorithm=args.algorithm,
        merge_groups=args.merges,
        submission_policy=args.policy,
        refresh_period=args.refresh_period,
    )
    if args.managers:
        config["manager_kinds"] = parse_fleet(args.managers)
    if args.faults:
        config["fault_plan"] = parse_faults(args.faults)
    return ScenarioSpec(
        schema=args.schema,
        views=args.views,
        workload=WorkloadSpec(
            updates=args.updates,
            rate=args.rate,
            multi_update_fraction=args.multi_update,
            arrivals="poisson",
            seed=args.workload_seed,
        ),
        vary_workload=not args.pin_workload,
        config=config,
        scheduler=args.scheduler,
        delay_rate=args.delay_rate,
        max_delay=args.max_delay,
        reorder_rate=args.reorder_rate,
    )


def _cmd_explore(args: argparse.Namespace) -> int:
    spec = spec_from_args(args)
    explorer = Explorer(
        spec,
        seeds=args.seeds,
        time_budget=args.budget,
        stop_on_first=True,
        level=args.level,
    )
    print(f"exploring: {spec.describe()}")
    target = args.level or "the advertised guarantee"
    findings = explorer.explore()
    if not findings:
        print(
            f"no violation of {target} in {explorer.runs_executed} runs "
            f"(seeds 0..{args.seeds - 1})"
        )
        return 0
    finding = findings[0]
    print(f"VIOLATION at seed {finding.seed} "
          f"(run {explorer.runs_executed} of the hunt):")
    for violation in finding.violations:
        print(f"  {violation}")
    reproducer = explorer.shrink(finding)
    perts = reproducer.perturbations
    if perts is not None:
        print(f"shrunk: {len(finding.perturbations)} -> {len(perts)} "
              f"scheduling perturbations")
        for p in perts:
            print(f"  {p.kind} lane={p.lane} index={p.index} "
                  f"amount={p.amount:g}")
    if args.out:
        path = reproducer.save(args.out)
        print(f"reproducer: {path}")
        print(f"replay with: python -m repro conformance replay {path}")
    return 2


def _cmd_replay(args: argparse.Namespace) -> int:
    reproducer = Reproducer.load(args.file)
    spec = reproducer.spec()
    print(f"replaying: {spec.describe()} seed={reproducer.seed}")
    print(f"expected violation: {reproducer.violation['scope']} at "
          f"{reproducer.violation['level']}")
    result = replay(reproducer)
    for violation in result.violations:
        print(f"  {violation}")
    print(f"violation reproduced: {'yes' if result.reproduced else 'NO'}")
    print(f"trace digest matches: "
          f"{'yes (byte-for-byte)' if result.digest_matches else 'NO'}")
    return 0 if (result.reproduced and result.digest_matches) else 1


def _cmd_matrix(args: argparse.Namespace) -> int:
    results = run_matrix(
        seeds=args.seeds, time_budget=args.budget, out_dir=args.out_dir
    )
    width = max(len(r.row.name) for r in results)
    failures = 0
    for result in results:
        status = "PASS" if result.ok else "FAIL"
        failures += not result.ok
        print(f"{status}  {result.row.name:<{width}}  {result.reason}")
        if result.reproducer_path is not None:
            print(f"      reproducer: {result.reproducer_path}")
    print(f"{len(results) - failures}/{len(results)} rows conform")
    return 0 if failures == 0 else 1


def add_conformance_parser(sub: argparse._SubParsersAction) -> None:
    """Attach the ``conformance`` subcommand tree to the main CLI."""
    from repro.cli import add_scenario_flags

    conf = sub.add_parser(
        "conformance",
        help="schedule-exploration conformance engine (hunt/shrink/replay)",
    )
    csub = conf.add_subparsers(dest="conformance_command", required=True)

    explore = csub.add_parser(
        "explore", help="hunt a configuration's seed space for violations"
    )
    add_scenario_flags(explore, updates=12)
    explore.add_argument("--views", type=int, default=0,
                         help="use only the first N views (0 = all)")
    explore.add_argument("--managers", default=None, metavar="V=KIND,...",
                         help="per-view manager kinds (mixed fleets)")
    explore.add_argument("--refresh-period", type=float, default=15.0)
    explore.add_argument("--multi-update", type=float, default=0.2,
                         metavar="FRAC",
                         help="fraction of multi-update transactions")
    explore.add_argument("--workload-seed", type=int, default=0)
    explore.add_argument("--pin-workload", action="store_true",
                         help="same update stream every run "
                         "(search interleavings only)")
    explore.add_argument("--scheduler", choices=SCHEDULER_KINDS,
                         default="delay")
    explore.add_argument("--delay-rate", type=float, default=0.15)
    explore.add_argument("--max-delay", type=float, default=3.0)
    explore.add_argument("--reorder-rate", type=float, default=0.15)
    explore.add_argument("--seeds", type=int, default=100,
                         help="seed budget (runs seeds 0..N-1)")
    explore.add_argument("--budget", type=float, default=None,
                         metavar="SECONDS", help="wall-clock budget")
    explore.add_argument("--level",
                         choices=("convergent", "strong", "complete"),
                         default=None,
                         help="check this level instead of the advertised "
                         "one (negative-oracle mode)")
    explore.add_argument("--faults", default=None,
                         metavar="drop=0.05,dup=0.02,...",
                         help="inject channel faults (add 'unreliable' to "
                         "drop the reliable transport)")
    explore.add_argument("--out", default=None, metavar="PATH",
                         help="write the shrunk reproducer JSON here")

    rep = csub.add_parser("replay", help="re-execute a saved reproducer")
    rep.add_argument("file", help="reproducer JSON from explore/matrix")

    mat = csub.add_parser("matrix", help="run the guarantee matrix")
    mat.add_argument("--seeds", type=int, default=25)
    mat.add_argument("--budget", type=float, default=None, metavar="SECONDS",
                     help="total wall-clock budget, split across rows")
    mat.add_argument("--out-dir", default=None, metavar="DIR",
                     help="write negative-row reproducers here")


def dispatch(args: argparse.Namespace) -> int:
    commands = {"explore": _cmd_explore, "replay": _cmd_replay, "matrix": _cmd_matrix}
    return commands[args.conformance_command](args)


__all__ = [
    "add_conformance_parser",
    "dispatch",
    "parse_faults",
    "parse_fleet",
    "spec_from_args",
]
