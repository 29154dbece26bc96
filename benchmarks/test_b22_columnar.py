"""B22 — Columnar engine: raw-batch ingest to view delta.

The columnar core (see docs/engine.md) exists so a source batch that
arrives as *raw value tuples* can flow to applied view deltas without
ever materializing a ``Row``: ``MaintenancePlan.propagate_counts``
takes ``{tuple: signed count}`` batches, pushes them through source-generated kernels, and the resulting
:class:`~repro.relational.delta.Delta` (the one signed tuple bag: there
is no second, row-keyed delta to compare it with) applies to a view's
:class:`~repro.relational.relation.Relation` in one vectorized call.
What is timed is **ingest to applied view delta**.

The row-dict plan family this benchmark was first written against
(``engine="rows"``: lift the batch into ``Row``/``Delta``, interpret
every operator per row) has been retired; its last measurement, 19-87x
slower per operator and 11-16x end to end, is kept in EXPERIMENTS.md's
B22 entry.  The figures below are the trajectory of the one engine.

Two arms, mirroring earlier benchmarks:

* **micro** (B9-shaped): one operator per measurement — select, project,
  join, select-project-join, group-by aggregate — timed per input delta
  row, batch-propagated against 20k-row bases.
* **end_to_end** (B1-shaped): the paper's Example 2 view suite
  (V1 = R |><| S, V2 = S |><| T |><| Q, V3 = Q) maintained through one
  :class:`~repro.relational.plan.MaintenancePlan` per view over a mixed
  insert/delete update stream, timing propagation + view-store
  application + advance per batch.

Timing is best-of-N full repeats (single runs on this workload swing
~2x with machine noise) with a warmup propagation first, so one-time
lazy index builds and kernel compilation are excluded — the same
protocol B19 uses.  The guards hold the engine to the stateless delta
rules and to recomputation at every step, and re-run the B19 scaling
workload with its probe count pinned (the count repeats exactly), so a
change to what that benchmark measures shows up here as a number, not
as a timing.

Paper question: ROADMAP north star ("as fast as the hardware allows")
— §7's performance study assumes maintenance keeps up with the source
stream; this records how much headroom the columnar engine has.
Reads: seconds per input delta row (micro) and per batch (end-to-end);
emits BENCH_b22.json via ``--bench-out``.
"""

from __future__ import annotations

import random
import time

from repro.relational.algebra import evaluate
from repro.relational.columnar import evaluate_columnar, layout_of
from repro.relational.database import Database
from repro.relational.delta import Delta, propagate_delta
from repro.relational.expressions import (
    Aggregate,
    AggregateSpec,
    BaseRelation,
    Join,
    Project,
    Select,
)
from repro.relational.plan import MaintenancePlan
from repro.relational.predicates import compare
from repro.relational.rows import Row
from repro.relational.schema import Schema
from repro.workloads.schemas import paper_views_example2

from benchmarks.conftest import fmt_table
from benchmarks.test_b19_maintenance_scaling import (
    EXPR as B19_EXPR,
    make_db as b19_make_db,
    update_stream as b19_update_stream,
)

#: index probes the re-run guard must count (exact: the stream is seeded)
B19_PROBES = 300

# -- micro arm (B9-shaped) --------------------------------------------------

MICRO_BASE = 20_000
MICRO_DOM = 2_000
AGG_DOM = 500  # hot groups: most delta rows touch an existing group state
MICRO_REPEATS = 5

# (name, delta relation, expression, batch size, timed iterations).
# Join batches are smaller because each delta row fans out ~10x.
MICRO_OPS = (
    ("select", "R",
     Select(compare("B", "<", MICRO_DOM // 2), BaseRelation("R")), 5_000, 20),
    ("project", "R", Project(("A",), BaseRelation("R")), 5_000, 20),
    ("join", "R", Join(BaseRelation("R"), BaseRelation("S")), 500, 20),
    ("spj", "R",
     Project(("A", "C"),
             Select(compare("C", "<", MICRO_DOM // 2),
                    Join(BaseRelation("R"), BaseRelation("S")))), 500, 20),
    ("aggregate", "G",
     Aggregate(("B",),
               (AggregateSpec("count", "cnt"), AggregateSpec("sum", "tot", "A")),
               BaseRelation("G")), 5_000, 20),
)

MICRO_DOMAINS = {
    "R": (MICRO_DOM, MICRO_DOM),  # (A, B)
    "S": (MICRO_DOM, MICRO_DOM),  # (B, C)
    "G": (MICRO_DOM, AGG_DOM),    # (A, B) — grouped on B
}


def micro_db() -> Database:
    rng = random.Random(7)
    db = Database()
    for name, attrs in (("R", ("A", "B")), ("S", ("B", "C")), ("G", ("A", "B"))):
        doms = MICRO_DOMAINS[name]
        db.create_relation(
            name,
            Schema(list(attrs)),
            [Row(dict(zip(layout_of(attrs), (rng.randrange(doms[0]),
                                             rng.randrange(doms[1])))))
             for _ in range(MICRO_BASE)],
        )
    return db


def micro_batch(rel: str, size: int, seed: int) -> dict[tuple, int]:
    """A mixed-sign raw tuple batch (70% inserts, 30% deletes).

    Micro measurements propagate without advancing or applying, so
    deletes need not be applicable — propagation is sign-symmetric.
    """
    rng = random.Random(seed)
    doms = MICRO_DOMAINS[rel]
    counts: dict[tuple, int] = {}
    for _ in range(size):
        t = (rng.randrange(doms[0]), rng.randrange(doms[1]))
        counts[t] = counts.get(t, 0) + (1 if rng.random() >= 0.3 else -1)
    return {t: c for t, c in counts.items() if c}


def time_micro_op(db, rel, expr, size, iters) -> float:
    """Best-of seconds per input delta row.

    The plan propagates the same raw batch repeatedly *without*
    advancing, so every iteration runs against the identical pre-state.
    """
    batch = micro_batch(rel, size, seed=101)
    plan = MaintenancePlan(expr, db)
    plan.propagate_counts({rel: batch})  # warmup: indexes + kernels
    n = len(batch)

    best = float("inf")
    for _ in range(MICRO_REPEATS):
        start = time.perf_counter()
        for _ in range(iters):
            plan.propagate_counts({rel: batch})
        best = min(best, (time.perf_counter() - start) / (iters * n))
    return best


# -- end-to-end arm (B1-shaped) ---------------------------------------------

E2E_SCHEMAS = {"R": ("A", "B"), "S": ("B", "C"), "T": ("C", "D"), "Q": ("D", "E")}
E2E_BASE = 8_000
E2E_DOM = 2_500
E2E_BATCHES = 16
E2E_BATCH = 1_000
E2E_REPEATS = 3


def e2e_world(seed: int = 11) -> dict[str, dict[tuple, int]]:
    rng = random.Random(seed)
    return {
        name: {t: 1 for t in ((rng.randrange(E2E_DOM), rng.randrange(E2E_DOM))
                              for _ in range(E2E_BASE))}
        for name in E2E_SCHEMAS
    }


def e2e_stream(world, seed: int = 13) -> list[tuple[str, dict[tuple, int]]]:
    """Round-robin raw batches, ~70% inserts / 30% deletes.

    An availability pool tracks each relation's evolving contents so a
    delete is only emitted while copies remain — every batch is
    applicable at its point in the stream.
    """
    rng = random.Random(seed)
    names = list(E2E_SCHEMAS)
    avail = {name: dict(world[name]) for name in names}
    stream = []
    for b in range(E2E_BATCHES):
        name = names[b % len(names)]
        batch: dict[tuple, int] = {}
        pool = avail[name]
        keys = list(pool)
        for _ in range(E2E_BATCH):
            if keys and rng.random() < 0.3:
                t = rng.choice(keys)
                if pool.get(t, 0) + batch.get(t, 0) > 0:
                    batch[t] = batch.get(t, 0) - 1
            else:
                t = (rng.randrange(E2E_DOM), rng.randrange(E2E_DOM))
                batch[t] = batch.get(t, 0) + 1
        batch = {t: c for t, c in batch.items() if c}
        for t, c in batch.items():
            pool[t] = pool.get(t, 0) + c
            if pool[t] <= 0:
                del pool[t]
        stream.append((name, batch))
    return stream


def e2e_db(world) -> Database:
    db = Database()
    for name, attrs in E2E_SCHEMAS.items():
        layout = layout_of(attrs)
        db.create_relation(
            name,
            Schema(list(attrs)),
            [Row(dict(zip(layout, t)))
             for t, c in world[name].items() for _ in range(c)],
        )
    return db


def e2e_views() -> dict:
    return {v.name: v.expression for v in paper_views_example2()}


def run_e2e_columnar(world, stream) -> tuple[float, dict[str, dict[Row, int]]]:
    """Timed per batch: every plan's propagate + store application +
    advance.

    Base-relation advancement (``db.apply_deltas``) is untimed — it is
    not what the engine does.
    """
    db = e2e_db(world)
    views = e2e_views()
    plans = {name: MaintenancePlan(expr, db) for name, expr in views.items()}
    stores = {name: evaluate_columnar(expr, db) for name, expr in views.items()}
    # warmup (never advanced, nothing applied): builds every lazy probe
    # index and compiles every kernel outside the timed region
    for name, attrs in E2E_SCHEMAS.items():
        for plan in plans.values():
            plan.propagate_counts({name: {(0,) * len(attrs): 1}})

    timed = 0.0
    for rel_name, batch in stream:
        start = time.perf_counter()
        for vname, plan in plans.items():
            plan.propagate_counts({rel_name: batch}).apply_to(stores[vname])
        for plan in plans.values():
            plan.advance()
        timed += time.perf_counter() - start
        db.apply_deltas({rel_name: Delta(batch, layout_of(E2E_SCHEMAS[rel_name]))})
    return timed, {name: dict(store.counts_view()) for name, store in stores.items()}


# -- guards -----------------------------------------------------------------


def test_b22_engine_equivalence_guard():
    """The engine agrees with the stateless rules and with recomputation
    at every step of a mixed stream, per view."""
    rng = random.Random(5)
    world = {
        name: {(rng.randrange(60), rng.randrange(60)): 1 for _ in range(300)}
        for name in E2E_SCHEMAS
    }
    db = e2e_db(world)
    views = e2e_views()
    plans = {name: MaintenancePlan(expr, db) for name, expr in views.items()}
    mats = {name: evaluate(expr, db) for name, expr in views.items()}

    for rel_name, batch in _small_stream(world, batches=8, batch=80, dom=60):
        lifted = Delta(batch, layout_of(E2E_SCHEMAS[rel_name]))
        out = {
            vname: plan.propagate_counts({rel_name: batch})
            for vname, plan in plans.items()
        }
        for vname, expr in views.items():
            assert out[vname] == propagate_delta(expr, db, {rel_name: lifted})
        db.apply_deltas({rel_name: lifted})
        for plan in plans.values():
            plan.advance()
        for vname, expr in views.items():
            out[vname].apply_to(mats[vname])
            assert mats[vname] == evaluate(expr, db)


def _small_stream(world, batches, batch, dom):
    rng = random.Random(23)
    names = list(E2E_SCHEMAS)
    avail = {name: dict(world[name]) for name in names}
    out = []
    for b in range(batches):
        name = names[b % len(names)]
        pool = avail[name]
        counts: dict[tuple, int] = {}
        keys = list(pool)
        for _ in range(batch):
            if keys and rng.random() < 0.3:
                t = rng.choice(keys)
                if pool.get(t, 0) + counts.get(t, 0) > 0:
                    counts[t] = counts.get(t, 0) - 1
            else:
                t = (rng.randrange(dom), rng.randrange(dom))
                counts[t] = counts.get(t, 0) + 1
        counts = {t: c for t, c in counts.items() if c}
        for t, c in counts.items():
            pool[t] = pool.get(t, 0) + c
            if pool[t] <= 0:
                del pool[t]
        out.append((name, counts))
    return out


def test_b22_b19_rerun_guard():
    """B19's scaling workload: deltas equal to the stateless rules at
    every step and the probe count B19's result rests on."""
    db = b19_make_db(500)
    plan = MaintenancePlan(B19_EXPR, db)
    for deltas in b19_update_stream():
        assert plan.propagate(deltas) == propagate_delta(B19_EXPR, db, deltas)
        db.apply_deltas(deltas)
        plan.advance()
    assert plan.probe_count() == B19_PROBES



# -- benchmarks -------------------------------------------------------------


def test_b22_micro(benchmark, report, bench_out):
    def experiment():
        db = micro_db()
        return {
            name: time_micro_op(db, rel, expr, size, iters)
            for name, rel, expr, size, iters in MICRO_OPS
        }

    results = benchmark.pedantic(experiment, rounds=1, iterations=1)

    report("B22 micro — per-operator raw-batch propagation, per input delta row:")
    report(fmt_table(
        ["operator", "columnar (us/row)"],
        [[name, f"{col * 1e6:.3f}"] for name, col in results.items()],
    ))

    artifact = bench_out("b22", {
        "benchmark": "b22_columnar",
        "question": "what does raw-batch ingest to view delta cost on the "
                    "columnar engine, per operator and end to end?",
        "micro": {
            "units": "seconds_per_input_row",
            "base_rows": MICRO_BASE,
            "repeats": MICRO_REPEATS,
            "arms": {name: {"columnar": col} for name, col in results.items()},
        },
    })
    if artifact is not None:
        report(f"wrote {artifact}")


def test_b22_end_to_end(benchmark, report, bench_out):
    def experiment():
        world = e2e_world()
        stream = e2e_stream(world)
        best, contents = float("inf"), None
        for _ in range(E2E_REPEATS):
            timed, contents = run_e2e_columnar(world, stream)
            best = min(best, timed)
        # untimed: what the maintained stores must hold after the stream
        db = e2e_db(world)
        for rel_name, batch in stream:
            layout = layout_of(E2E_SCHEMAS[rel_name])
            db.apply_deltas({rel_name: Delta(batch, layout)})
        expected = {
            name: dict(evaluate(expr, db).counts_view())
            for name, expr in e2e_views().items()
        }
        return best, contents, expected

    best, contents, expected = benchmark.pedantic(
        experiment, rounds=1, iterations=1
    )
    assert contents == expected  # the maintained views equal recomputation

    report("B22 end-to-end — Example 2 view suite over a mixed update stream:")
    report(fmt_table(
        ["arm", "total (ms)", "per batch (ms)"],
        [["columnar (raw batch)", f"{best * 1e3:.1f}",
          f"{best / E2E_BATCHES * 1e3:.2f}"]],
    ))
    report("")
    report(f"Shape: best of {E2E_REPEATS}, {E2E_BATCHES} batches of "
           f"{E2E_BATCH} rows, views V1/V2/V3; stores equal recomputation.")

    artifact = bench_out("b22", {
        "end_to_end": {
            "units": "seconds_total_maintenance",
            "base_rows": E2E_BASE,
            "batches": E2E_BATCHES,
            "batch_rows": E2E_BATCH,
            "repeats": E2E_REPEATS,
            "views": list(e2e_views()),
            "arms": {"columnar": best},
        },
    })
    if artifact is not None:
        report(f"wrote {artifact}")
