"""The one oracle every maintenance-plan test holds a delta against."""

from __future__ import annotations

from typing import Mapping

from repro.relational.algebra import evaluate
from repro.relational.database import Database
from repro.relational.delta import Delta, propagate_delta
from repro.relational.expressions import Expression


def assert_matches_oracles(
    expr: Expression,
    pre: Database,
    deltas: Mapping[str, Delta],
    view_delta: Delta,
) -> None:
    """``view_delta`` is what maintaining ``expr`` must emit for ``deltas``.

    Two independent references, both computed from ``pre`` (the base
    state *before* ``deltas``, left untouched): the stateless counting
    rules, and the difference of two full recomputations.
    """
    assert view_delta == propagate_delta(expr, pre, deltas)
    post = Database()
    for name in pre.relation_names:
        post.create_relation(name, pre.schemas[name], pre.relation(name))
    post.apply_deltas(deltas)
    assert view_delta == Delta.between(evaluate(expr, pre), evaluate(expr, post))
