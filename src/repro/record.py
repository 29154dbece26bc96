"""Value records: the run path's messages, updates and AST nodes.

A record class lists its fields in ``__slots__`` (a slot named ``_...`` is
a cache, outside ``==``, ``hash`` and ``repr``) and assigns them in its own
``__init__``.  :class:`Record` gives the dataclass's value semantics as
methods a ``.pyc`` holds; ``@dataclass`` runs ``exec`` over generated
source at every import.  ``compare=`` in the class statement narrows ``==``
and ``hash`` (not ``repr``) to the fields named.  A per-update record is
read-only by convention; a :class:`Node` (an expression or predicate: a
dict key built at set-up) refuses assignment and hashes once.
"""

from __future__ import annotations


class Record:
    """``==`` within one class, ``hash`` and ``repr`` over the fields."""

    __slots__ = ()
    _fields: tuple[str, ...] = ()
    _compare: tuple[str, ...] = ()

    def __init_subclass__(cls, compare: tuple[str, ...] | None = None, **kw) -> None:
        super().__init_subclass__(**kw)
        cls._fields = tuple(name for klass in reversed(cls.__mro__)
                            for name in vars(klass).get("__slots__", ())
                            if name[0] != "_")
        cls._compare = cls._fields if compare is None else compare

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in self._compare])

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        fields = (f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({', '.join(fields)})"


#: a ``None`` field's hash stand-in: before 3.12 ``hash(None)`` is an address
_NONE_HASH = 0x5EED


class Node(Record):
    """Frozen: ``_init`` sets the fields (in slot order) and the hash once."""

    __slots__ = ("_hash",)

    def _init(self, *values: object) -> None:
        for name, value in zip(self._fields, values):
            object.__setattr__(self, name, value)
        try:
            object.__setattr__(self, "_hash", hash(tuple(
                [_NONE_HASH if value is None else value for value in values]
            )))
        except TypeError:  # an unhashable field: ``hash()`` raises when asked
            object.__setattr__(self, "_hash", None)

    def __setattr__(self, name: str, value: object = None) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    __delattr__ = __setattr__

    def __hash__(self) -> int:
        return self._hash if self._hash is not None else hash(self._values())

    def __reduce__(self) -> tuple:
        return type(self), self._values()
