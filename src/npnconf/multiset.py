"""Immutable multisets with exact integer arithmetic.

Multisets are the workhorse container of the whole package: markings count
tokens per place, colored places hold value multisets, and event logs are
multisets of traces. Arithmetic is exact; a difference that would drive a
count negative raises instead of clamping.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import Any, Dict, Hashable, Iterable, Iterator, KeysView, Mapping, Tuple


def sort_key(value: Any) -> Tuple[str, str]:
    """Total, deterministic order over heterogeneous hashable values.

    Used for canonical serialization and deterministic search order; the
    order itself carries no meaning.
    """
    return (value.__class__.__name__, repr(value))


class _Value:
    """The base of the frozen dataclass values that memos key by (events,
    traces, net tokens): a value computes its hash and its ``repr`` at most
    once, with the values its dataclass methods give, and keeps them.
    Pickling and ``dataclasses.replace`` build a new value, whose caches
    start empty, so a loaded value rehashes in the loading process."""

    _hash = _repr = None

    def __hash__(self) -> int:
        if self._hash is None:
            object.__setattr__(self, "_hash", self._field_hash())
        return self._hash

    def __repr__(self) -> str:
        if self._repr is None:
            object.__setattr__(self, "_repr", self._field_repr())
        return self._repr

    def __reduce__(self):
        return (type(self), tuple(getattr(self, f.name) for f in fields(self)))


def _value(cls):
    """``dataclass(frozen=True)`` for a ``_Value`` subclass, its generated
    hash and repr kept as ``_field_hash`` and ``_field_repr``."""
    cls = dataclass(frozen=True)(cls)
    cls._field_hash, cls._field_repr = cls.__hash__, cls.__repr__
    cls.__hash__, cls.__repr__ = _Value.__hash__, _Value.__repr__
    return cls


class MultisetUnderflow(ValueError):
    """A multiset difference would make some multiplicity negative."""


class Multiset:
    """Finite multiset over hashable elements.

    A multiset never changes after construction, so its hash and its
    canonical item order are each computed at most once.
    """

    __slots__ = ("_counts", "_hash", "_items")

    def __init__(self, items: Iterable[Hashable] = ()):
        counts: Dict[Hashable, int] = {}
        for x in items:
            counts[x] = counts.get(x, 0) + 1
        self._counts = counts
        self._hash: int | None = None
        self._items: Tuple[Tuple[Hashable, int], ...] | None = None

    @classmethod
    def from_counts(cls, counts: Mapping[Hashable, int]) -> "Multiset":
        ms = cls.__new__(cls)
        clean: Dict[Hashable, int] = {}
        for x, n in counts.items():
            if n < 0:
                raise ValueError(f"negative multiplicity {n!r} for {x!r}")
            if n:
                clean[x] = int(n)
        ms._counts = clean
        ms._hash = None
        ms._items = None
        return ms

    def count(self, x: Hashable) -> int:
        return self._counts.get(x, 0)

    def distinct(self) -> KeysView[Hashable]:
        """Distinct elements, in no particular order."""
        return self._counts.keys()

    def items(self) -> Tuple[Tuple[Hashable, int], ...]:
        """(element, multiplicity) pairs in canonical order."""
        if self._items is None:
            self._items = tuple((x, self._counts[x])
                                for x in sorted(self._counts, key=sort_key))
        return self._items

    def total(self) -> int:
        return sum(self._counts.values())

    def __len__(self) -> int:
        return self.total()

    def __bool__(self) -> bool:
        return bool(self._counts)

    def __contains__(self, x: Hashable) -> bool:
        return x in self._counts

    def __iter__(self) -> Iterator[Hashable]:
        for x, n in self.items():
            for _ in range(n):
                yield x

    def __add__(self, other: "Multiset") -> "Multiset":
        counts = dict(self._counts)
        for x, n in other._counts.items():
            counts[x] = counts.get(x, 0) + n
        return Multiset.from_counts(counts)

    def __sub__(self, other: "Multiset") -> "Multiset":
        counts = dict(self._counts)
        for x, n in other._counts.items():
            have = counts.get(x, 0)
            if have < n:
                raise MultisetUnderflow(
                    f"cannot remove {n} of {x!r}, only {have} present"
                )
            counts[x] = have - n
        return Multiset.from_counts(counts)

    def __le__(self, other: "Multiset") -> bool:
        return all(n <= other.count(x) for x, n in self._counts.items())

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Multiset):
            return NotImplemented
        return self._counts == other._counts

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = hash(frozenset(self._counts.items()))
        return self._hash

    def __reduce__(self):
        # rebuilt on load, so the hash is computed in the loading process
        return (Multiset.from_counts, (self._counts,))

    def __repr__(self) -> str:
        inner = ", ".join(f"{x!r}: {n}" for x, n in self.items())
        return "Multiset({%s})" % inner


EMPTY = Multiset()
