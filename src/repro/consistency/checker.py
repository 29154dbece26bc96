"""Single-view consistency checkers (§2.2).

All checkers compare a warehouse value sequence against a source value
sequence (``V(ss_0) .. V(ss_f)``) after collapsing adjacent duplicates —
see :func:`repro.consistency.states.collapse_consecutive` for why.

* ``check_convergent``  — final warehouse value equals ``V(ss_f)``.
* ``check_strong``      — the collapsed warehouse sequence embeds
  order-preservingly into the collapsed source sequence, starting at
  ``V(ss_0)`` and ending at ``V(ss_f)``.
* ``check_complete``    — the collapsed sequences are *identical*: every
  source state is reflected, in order.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from repro.errors import ConsistencyViolation
from repro.consistency.states import collapse_consecutive


@dataclass(frozen=True, slots=True)
class ConsistencyReport:
    """The outcome of a consistency check."""

    ok: bool
    level: str
    reason: str = ""
    mapping: tuple[int, ...] | None = None

    def __bool__(self) -> bool:
        return self.ok

    def require(self) -> "ConsistencyReport":
        """Raise :class:`ConsistencyViolation` unless the check passed."""
        if not self.ok:
            raise ConsistencyViolation(f"{self.level}: {self.reason}")
        return self


def _describe(value: object) -> str:
    text = repr(value)
    return text if len(text) <= 120 else text[:117] + "..."


def check_convergent(
    warehouse_values: Sequence[object],
    source_values: Sequence[object],
) -> ConsistencyReport:
    """Eventual correctness: the last warehouse value is ``V(ss_f)``."""
    if not warehouse_values or not source_values:
        return ConsistencyReport(False, "convergent", "empty state sequence")
    if warehouse_values[-1] == source_values[-1]:
        return ConsistencyReport(True, "convergent")
    return ConsistencyReport(
        False,
        "convergent",
        f"final warehouse value {_describe(warehouse_values[-1])} != "
        f"final source value {_describe(source_values[-1])}",
    )


def check_strong(
    warehouse_values: Sequence[object],
    source_values: Sequence[object],
) -> ConsistencyReport:
    """Strong consistency: order-preserving embedding ending at ``ss_f``.

    Greedy earliest matching is complete here: if any strictly increasing
    mapping exists, matching each warehouse value to the earliest
    still-available source value also succeeds.
    """
    ws = collapse_consecutive(warehouse_values)
    ss = collapse_consecutive(source_values)
    if not ws or not ss:
        return ConsistencyReport(False, "strong", "empty state sequence")
    mapping: list[int] = []
    cursor = 0
    for j, value in enumerate(ws):
        found = None
        for i in range(cursor, len(ss)):
            if ss[i] == value:
                found = i
                break
        if found is None:
            return ConsistencyReport(
                False,
                "strong",
                f"warehouse state #{j} {_describe(value)} matches no source "
                f"state at or after ss#{cursor}",
                tuple(mapping),
            )
        mapping.append(found)
        cursor = found + 1
    if ws[-1] != ss[-1]:
        return ConsistencyReport(
            False,
            "strong",
            "warehouse never reaches the final source state "
            f"{_describe(ss[-1])}",
            tuple(mapping),
        )
    return ConsistencyReport(True, "strong", mapping=tuple(mapping))


def check_complete(
    warehouse_values: Sequence[object],
    source_values: Sequence[object],
) -> ConsistencyReport:
    """Completeness: every source state reflected, in order (collapsed)."""
    ws = collapse_consecutive(warehouse_values)
    ss = collapse_consecutive(source_values)
    if ws == ss:
        return ConsistencyReport(
            True, "complete", mapping=tuple(range(len(ss)))
        )
    # Produce a helpful reason: first divergence point.
    for index, (have, want) in enumerate(zip(ws, ss)):
        if have != want:
            return ConsistencyReport(
                False,
                "complete",
                f"state #{index}: warehouse {_describe(have)} != source "
                f"{_describe(want)}",
            )
    return ConsistencyReport(
        False,
        "complete",
        f"warehouse walked through {len(ws)} distinct states, source "
        f"through {len(ss)}",
    )
