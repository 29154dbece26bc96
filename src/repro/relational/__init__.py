"""In-memory multiset relational engine.

This package is the database substrate for the MVC reproduction: typed
schemas, immutable rows, multiset relations, a select-project-join algebra
with both full evaluation and incremental (counting-style) delta
propagation, versioned databases, and a small view-definition parser.

The engine is deliberately self-contained — the paper's algorithms are
data-model independent, but its examples and our workloads are relational.

Storage is two-layered: the public row facade (``Row``, which
``Relation`` and ``Delta`` take and hand out) and the columnar core they
keep their bags in (:mod:`repro.relational.columnar` — position-keyed
tuple bags with compiled batch kernels), which the maintenance plans run on.
``docs/engine.md`` documents the layout and the facade contract.
"""

from repro.relational.schema import Attribute, AttrType, Schema
from repro.relational.rows import Row
from repro.relational.relation import Relation
from repro.relational.columnar import (
    ColumnarRelation,
    ColumnIndex,
    evaluate_columnar,
)
from repro.relational.predicates import (
    Attr,
    Comparison,
    Const,
    And,
    Or,
    Not,
    TRUE,
    Predicate,
)
from repro.relational.expressions import (
    Aggregate,
    AggregateSpec,
    BaseRelation,
    Expression,
    Join,
    Project,
    Select,
    ViewDefinition,
)
from repro.relational.algebra import evaluate
from repro.relational.delta import Delta, propagate_delta
from repro.relational.database import Database, VersionedDatabase
from repro.relational.parser import parse_view
from repro.relational.plan import MaintenancePlan, PlanUnsupported
from repro.relational.render import to_sql
from repro.relational.maintain import MaterializedView

__all__ = [
    "Attribute",
    "AttrType",
    "Schema",
    "Row",
    "Relation",
    "ColumnarRelation",
    "ColumnIndex",
    "evaluate_columnar",
    "Attr",
    "Const",
    "Comparison",
    "And",
    "Or",
    "Not",
    "TRUE",
    "Predicate",
    "Expression",
    "BaseRelation",
    "Select",
    "Project",
    "Join",
    "Aggregate",
    "AggregateSpec",
    "ViewDefinition",
    "to_sql",
    "MaintenancePlan",
    "PlanUnsupported",
    "MaterializedView",
    "evaluate",
    "Delta",
    "propagate_delta",
    "Database",
    "VersionedDatabase",
    "parse_view",
]
