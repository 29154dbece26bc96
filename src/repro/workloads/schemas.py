"""Canonical source worlds and view suites."""

from __future__ import annotations

from typing import Callable

from repro.relational.expressions import (
    BaseRelation,
    Join,
    Project,
    Select,
    ViewDefinition,
)
from repro.relational.parser import parse_view
from repro.relational.predicates import Attr, Comparison, Const
from repro.relational.schema import Attribute, AttrType, Schema
from repro.sources.world import SourceWorld


# ---------------------------------------------------------------------------
# the paper's running example
# ---------------------------------------------------------------------------

def paper_world(
    seed_rows: bool = True,
    sources: int = 4,
) -> SourceWorld:
    """R(A,B), S(B,C), T(C,D), Q(D,E) — the relations of Examples 1-5.

    With ``seed_rows`` the world starts in the Table-1 initial state
    (``R = {[1,2]}``, ``T = {[3,4]}``, ``S`` and ``Q`` empty).  Relations
    are spread over up to four sources, matching the paper's
    one-transaction-per-source model.
    """
    world = SourceWorld()
    owners = [f"src{i % max(1, sources)}" for i in range(4)]
    world.create_relation(
        "R", Schema(["A", "B"]), owners[0], [{"A": 1, "B": 2}] if seed_rows else []
    )
    world.create_relation("S", Schema(["B", "C"]), owners[1], [])
    world.create_relation(
        "T", Schema(["C", "D"]), owners[2], [{"C": 3, "D": 4}] if seed_rows else []
    )
    world.create_relation("Q", Schema(["D", "E"]), owners[3], [])
    return world


def paper_views_example1() -> list[ViewDefinition]:
    """Example 1 / Table 1: V1 = R ./ S, V2 = S ./ T."""
    return [
        parse_view("V1 = SELECT * FROM R JOIN S"),
        parse_view("V2 = SELECT * FROM S JOIN T"),
    ]


def paper_views_example2() -> list[ViewDefinition]:
    """Example 2 / 4 / 5: V1 = R ./ S, V2 = S ./ T ./ Q, V3 = Q."""
    return [
        parse_view("V1 = SELECT * FROM R JOIN S"),
        parse_view("V2 = SELECT * FROM S JOIN T JOIN Q"),
        parse_view("V3 = SELECT * FROM Q"),
    ]


def paper_views_example3() -> list[ViewDefinition]:
    """Example 3: V1 = R ./ S, V2 = S ./ T, V3 = Q (V3 disjoint)."""
    return [
        parse_view("V1 = SELECT * FROM R JOIN S"),
        parse_view("V2 = SELECT * FROM S JOIN T"),
        parse_view("V3 = SELECT * FROM Q"),
    ]


# Example 5 uses the same views as Example 2.
paper_views_example5 = paper_views_example2


def paper_views_wide() -> list[ViewDefinition]:
    """A four-view suite over the paper's relations (fleet-size sweeps)."""
    return [
        parse_view("V1 = SELECT * FROM R JOIN S"),
        parse_view("V2 = SELECT * FROM S JOIN T JOIN Q"),
        parse_view("V3 = SELECT * FROM Q"),
        parse_view("V4 = SELECT * FROM T JOIN Q"),
    ]


# ---------------------------------------------------------------------------
# the §1.1 bank scenario
# ---------------------------------------------------------------------------

def bank_world(customers: int = 0) -> SourceWorld:
    """Checking/savings accounts and customer records over two sources.

    §1.1: "her checking account record, for instance, should match with
    her linked savings account record."  Checking lives on the retail-bank
    system, savings and customer data on a second system.
    """
    world = SourceWorld()
    world.create_relation(
        "Checking",
        Schema(
            [
                Attribute("cust", AttrType.INT),
                Attribute("cbal", AttrType.INT),
                Attribute("branch", AttrType.STR),
            ]
        ),
        "retail",
        [
            {"cust": i, "cbal": 100 * (i + 1), "branch": f"b{i % 3}"}
            for i in range(customers)
        ],
    )
    world.create_relation(
        "Savings",
        Schema([Attribute("cust", AttrType.INT), Attribute("sbal", AttrType.INT)]),
        "savings",
        [{"cust": i, "sbal": 500 + 10 * i} for i in range(customers)],
    )
    world.create_relation(
        "Customer",
        Schema(
            [
                Attribute("cust", AttrType.INT),
                Attribute("tier", AttrType.STR),
                Attribute("region", AttrType.STR),
            ]
        ),
        "savings",
        [
            {"cust": i, "tier": "gold" if i % 5 == 0 else "std", "region": f"r{i % 4}"}
            for i in range(customers)
        ],
    )
    return world


def bank_views() -> list[ViewDefinition]:
    """The views a customer-inquiry warehouse materializes.

    * ``Portfolio`` — checking joined with savings (the record pair that
      must "match" when the customer calls);
    * ``GoldLedger`` — gold-tier customers' full records (the "particular
      customers for a special promotion");
    * ``BranchBook`` — per-branch checking copy.
    """
    portfolio = ViewDefinition(
        "Portfolio", Join(BaseRelation("Checking"), BaseRelation("Savings"))
    )
    gold = ViewDefinition(
        "GoldLedger",
        Select(
            Comparison(Attr("tier"), "=", Const("gold")),
            Join(
                Join(BaseRelation("Customer"), BaseRelation("Checking")),
                BaseRelation("Savings"),
            ),
        ),
    )
    branch = ViewDefinition(
        "BranchBook",
        Project(("branch", "cust", "cbal"), BaseRelation("Checking")),
    )
    return [portfolio, gold, branch]


# ---------------------------------------------------------------------------
# parametric clustered worlds (for scaling studies, §6.1 / §7)
# ---------------------------------------------------------------------------

def clustered_world(clusters: int = 3) -> SourceWorld:
    """``clusters`` disjoint relation pairs R_i(k,v), S_i(k,w), one source each.

    Views over different clusters share no base relations, so
    :func:`repro.merge.distributed.partition_views` splits them into
    exactly ``clusters`` merge groups — the §6.1 best case.
    """
    world = SourceWorld()
    for index in range(clusters):
        world.create_relation(f"R_{index}", Schema(["k", "v"]), f"src_{index}")
        world.create_relation(f"S_{index}", Schema(["k", "w"]), f"src_{index}")
    return world


def clustered_views(clusters: int = 3, per_cluster: int = 2) -> list[ViewDefinition]:
    """Up to ``per_cluster`` views over each cluster (join + copy + select)."""
    views: list[ViewDefinition] = []
    for index in range(clusters):
        candidates = [
            parse_view(f"J_{index} = SELECT * FROM R_{index} JOIN S_{index}"),
            parse_view(f"C_{index} = SELECT * FROM R_{index}"),
            parse_view(f"H_{index} = SELECT * FROM S_{index} WHERE w >= 5"),
        ]
        views.extend(candidates[:per_cluster])
    return views


# ---------------------------------------------------------------------------
# a small retail star schema
# ---------------------------------------------------------------------------

def star_world(products: int = 8, stores: int = 4) -> SourceWorld:
    """Sales fact plus product/store dimensions over three sources."""
    world = SourceWorld()
    world.create_relation(
        "Sales",
        Schema(
            [
                Attribute("sale", AttrType.INT),
                Attribute("prod", AttrType.INT),
                Attribute("store", AttrType.INT),
                Attribute("qty", AttrType.INT),
            ]
        ),
        "pos",
        [],
    )
    world.create_relation(
        "Product",
        Schema(
            [
                Attribute("prod", AttrType.INT),
                Attribute("category", AttrType.STR),
                Attribute("price", AttrType.INT),
            ]
        ),
        "catalog",
        [
            {"prod": i, "category": f"c{i % 3}", "price": 5 + i}
            for i in range(products)
        ],
    )
    world.create_relation(
        "Store",
        Schema(
            [
                Attribute("store", AttrType.INT),
                Attribute("region", AttrType.STR),
            ]
        ),
        "ops",
        [{"store": i, "region": f"r{i % 2}"} for i in range(stores)],
    )
    return world


def star_views(selective: bool = True, aggregates: bool = False) -> list[ViewDefinition]:
    """Join views over the star schema; two are selective on purpose.

    With ``aggregates`` the suite adds summary views — the §1.2 "aggregate
    views need to use different maintenance algorithms" scenario, here
    maintained incrementally via the counting/sum delta rules.
    """
    detail = parse_view("SaleDetail = SELECT * FROM Sales JOIN Product")
    regional = parse_view(
        "RegionalSales = SELECT sale, prod, store, qty, region "
        "FROM Sales JOIN Store"
    )
    views = [detail, regional]
    if selective:
        views.append(
            parse_view(
                "BigTickets = SELECT sale, prod, qty FROM Sales JOIN Product "
                "WHERE qty >= 8"
            )
        )
        views.append(
            parse_view("CheapCatalog = SELECT * FROM Product WHERE price <= 7")
        )
    if aggregates:
        views.append(
            parse_view(
                "RegionTotals = SELECT region, count(*) AS n, sum(qty) AS total "
                "FROM Sales JOIN Store GROUP BY region"
            )
        )
        views.append(
            parse_view(
                "CategoryVolume = SELECT category, sum(qty) AS volume "
                "FROM Sales JOIN Product GROUP BY category"
            )
        )
    return views


# ---------------------------------------------------------------------------
# the named schemas a run or a conformance scenario picks from
# ---------------------------------------------------------------------------

#: name -> (world factory, view-suite factory): the CLI's ``--schema``
#: choices and :attr:`repro.conformance.ScenarioSpec.schema`
SCHEMAS: dict[
    str, tuple[Callable[[], SourceWorld], Callable[[], list[ViewDefinition]]]
] = {
    "paper": (paper_world, paper_views_example2),
    "paper-ex1": (paper_world, paper_views_example1),
    "paper-ex3": (paper_world, paper_views_example3),
    "paper-wide": (paper_world, paper_views_wide),
    "bank": (lambda: bank_world(customers=8), bank_views),
    "star": (star_world, star_views),
    "star-agg": (star_world, lambda: star_views(aggregates=True)),
    "clustered": (clustered_world, clustered_views),
}
