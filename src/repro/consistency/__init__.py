"""Executable consistency definitions (paper §2).

The paper defines consistency over two sequences:

* the **consistent source state sequence** ``ss_0 .. ss_f`` — base-data
  states after each committed transaction of the serial schedule;
* the **warehouse state sequence** ``ws_0 .. ws_q`` — view contents after
  each warehouse transaction.

This package turns every definition into a checker that takes those two
sequences and says whether (and how) they correspond:

* single-view **convergence** — the final view equals ``V(ss_f)``;
* single-view **strong consistency** — an order-preserving mapping from
  warehouse states onto source states exists and ends at ``ss_f``;
* single-view **completeness** — strong, plus every source state is
  reflected (the view walks through *all* of ``V(ss_0) .. V(ss_f)``);
* the **MVC** variants of each — identical definitions with the per-view
  equality ``=`` replaced by the all-views-at-once equality ``≈`` (§2.3),
  which makes a joint verdict a conjunction of per-view facts over one
  replayed schedule: :class:`Replay` walks a finished run once and every
  scope (one view, a pair, a shard, the fleet) is read off it.

The checkers are the oracles for the whole test suite: SPA runs must be
MVC-complete, PA runs MVC-strongly-consistent, pass-through runs
MVC-convergent — for *any* message interleaving.
"""

from repro.consistency.states import replay_source_states
from repro.consistency.checker import (
    ConsistencyReport,
    check_complete,
    check_convergent,
    check_strong,
)
from repro.consistency.ordered import (
    Replay,
    check_mvc_ordered,
    classify_mvc_ordered,
    reconstruct_schedule,
)

__all__ = [
    "replay_source_states",
    "ConsistencyReport",
    "check_convergent",
    "check_strong",
    "check_complete",
    "Replay",
    "check_mvc_ordered",
    "classify_mvc_ordered",
    "reconstruct_schedule",
]
