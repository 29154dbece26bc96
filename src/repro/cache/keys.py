"""Content-addressed artifact keys.

An artifact key must satisfy two properties the rest of the cache builds
on:

* **stability** — the same logical state produces the same key in every
  process and every run (so a freshly built system finds the artifacts a
  previous one published).  Nothing here may depend on ``hash()``
  (``PYTHONHASHSEED``-randomized), ``id()``, or dict insertion order.
* **sensitivity** — any change to the view definition, the base state,
  or the engine that produced the state changes the key, so a restore
  can never silently adopt state computed for a different world.

The base state enters the key as a **version vector**: one rolling
content digest per base relation.  A relation's digest starts as a
digest of its full contents (:func:`relation_digest`) and advances by
hashing each applied delta into the previous digest
(:func:`advance_digest`) — O(|delta|) per batch instead of O(|relation|),
while remaining transitively content-addressed: two replicas reach the
same digest iff they started from identical contents and applied the
same delta history.
"""

from __future__ import annotations

import hashlib
from typing import Iterable, Mapping

from repro.errors import CacheError

#: bump when the canonical encoding or key material layout changes —
#: old artifacts become unreachable (a miss), never misread.
KEY_FORMAT = 1


def _canon(value: object, out: list[bytes]) -> None:
    if type(value) is int:  # a row's usual values first; not a bool
        out.append(b"i:%d" % value)
    elif isinstance(value, (tuple, list)):
        out.append(b"(")
        for item in value:
            _canon(item, out)
            out.append(b",")
        out.append(b")")
    elif isinstance(value, str):
        out.append(b"s:")
        out.append(value.encode("utf-8"))
    elif isinstance(value, bool):  # before int: bool is an int subclass
        out.append(b"b:1" if value else b"b:0")
    elif isinstance(value, int):
        out.append(b"i:%d" % value)
    elif isinstance(value, float):
        out.append(b"f:")
        out.append(repr(value).encode("ascii"))
    elif isinstance(value, bytes):
        out.append(b"y:")
        out.append(value)
    elif value is None:
        out.append(b"n")
    elif isinstance(value, (dict, Mapping)):
        out.append(b"{")
        for key in sorted(value, key=repr):
            _canon(key, out)
            out.append(b"=")
            _canon(value[key], out)
            out.append(b";")
        out.append(b"}")
    else:
        raise CacheError(
            f"cannot canonically encode {type(value).__name__} for a cache key"
        )


def canon_bytes(value: object) -> bytes:
    """A deterministic, type-tagged byte encoding of plain data.

    Supports the value shapes key material is built from — strings,
    ints, floats, bytes, None, tuples/lists and mappings (encoded in
    sorted-key order).  Raises :class:`~repro.errors.CacheError` for
    anything else rather than falling back to ``repr`` of an arbitrary
    object (whose address could leak into the key).
    """
    out: list[bytes] = []
    _canon(value, out)
    return b"".join(out)


def relation_digest(
    layout: Iterable[str], counts: Mapping[tuple, int]
) -> str:
    """Digest a relation's full contents (value tuples with counts)."""
    layout, ordered = tuple(layout), sorted(counts, key=repr)
    if all(type(v) is int for values in ordered for v in values):
        row = b"(" + b"i:%d," * len(layout) + b")#%d;"  # ``_canon``'s bytes
        rows = b"".join([row % (*values, counts[values]) for values in ordered])
    else:
        rows = b"".join([canon_bytes(v) + b"#%d;" % counts[v] for v in ordered])
    return hashlib.blake2b(canon_bytes(layout) + rows, digest_size=16).hexdigest()


def advance_digest(
    previous: str, delta_counts: Mapping[tuple, int]
) -> str:
    """Roll a relation digest forward over one applied (signed) delta."""
    h = hashlib.blake2b(digest_size=16)
    h.update(previous.encode("ascii"))
    for values, count in sorted(
        delta_counts.items(), key=lambda kv: repr(kv[0])
    ):
        _update_counted(h, values, count)
    return h.hexdigest()


def _update_counted(h, values: tuple, count: int) -> None:
    h.update(canon_bytes(values))
    h.update(b"#%d;" % count)


def artifact_key(kind: str, material: Mapping[str, object]) -> str:
    """The store key for one artifact: ``blake2b(kind, material)``.

    ``kind`` namespaces the key space (``"view-seed"``,
    ``"view-checkpoint"``, ``"merge-checkpoint"``, ...); ``material`` is
    a mapping of plain data — for view state that is the definition AST
    rendering, the engine id and the version vector, per the scheme
    ``blake2b(view definition AST, base-state version vector, engine
    id)``.
    """
    h = hashlib.blake2b(digest_size=20)
    h.update(b"repro-artifact-key:%d:" % KEY_FORMAT)
    h.update(kind.encode("utf-8"))
    h.update(b"\x00")
    h.update(canon_bytes(material))
    return h.hexdigest()


__all__ = [
    "KEY_FORMAT",
    "advance_digest",
    "artifact_key",
    "canon_bytes",
    "relation_digest",
]
