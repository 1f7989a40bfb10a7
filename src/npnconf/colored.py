"""Colored Petri nets: typed places, arc expressions, bindings, colored firing.

Domains are finite and explicitly enumerated so that binding enumeration is
decidable. This module is also the semantic target of the system-net
projection, where net tokens are replaced by their agent names.
"""

from __future__ import annotations

import re
from collections import Counter
from collections.abc import Mapping
from dataclasses import dataclass
from functools import cached_property
from typing import (Callable, Container, Dict, FrozenSet, Hashable, Iterable,
                    Iterator, List, Optional, Sequence, Tuple, Union)

from .multiset import EMPTY, Multiset, sort_key
from .nets import (NetStructureError, NotEnabledError, PetriNet, ReplayResult,
                   search)

AtomValue = Hashable  # atomic token values: strings or ints in practice


class ExprSyntaxError(ValueError):
    """An arc expression does not conform to the concrete syntax."""


class BindingError(ValueError):
    """An expression was evaluated under a binding missing some variable."""


@dataclass(frozen=True)
class Domain:
    """A named, finite set of atomic values.

    Model files must declare nonempty domains; emptiness is tolerated here
    because projected agent-name domains can be empty for agentless classes.
    """

    name: str
    values: FrozenSet[AtomValue]

    def __init__(self, name: str, values: Iterable[AtomValue]):
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "values", frozenset(values))

    def sorted_values(self) -> Tuple[AtomValue, ...]:
        return tuple(sorted(self.values, key=sort_key))


@dataclass(frozen=True)
class Var:
    name: str

    def __str__(self) -> str:
        return self.name


@dataclass(frozen=True)
class Const:
    value: AtomValue

    def __str__(self) -> str:
        return f"`{self.value}`"


Term = Union[Var, Const]

_IDENT = re.compile(r"[A-Za-z_][A-Za-z0-9_]*$")
_INT = re.compile(r"[+-]?[0-9]+$")


@dataclass(frozen=True)
class ArcExpr:
    """A formal sum of atoms: variables and backtick-quoted constants."""

    terms: Tuple[Term, ...]

    def __init__(self, terms: Iterable[Term]):
        terms = tuple(terms)
        if not terms:
            raise ExprSyntaxError("arc expression must have at least one term")
        object.__setattr__(self, "terms", terms)

    def variables(self) -> Tuple[str, ...]:
        """Variable names in order of occurrence, with repetitions."""
        return tuple(t.name for t in self.terms if isinstance(t, Var))

    def constants(self) -> Tuple[AtomValue, ...]:
        return tuple(t.value for t in self.terms if isinstance(t, Const))

    def __str__(self) -> str:
        return " + ".join(str(t) for t in self.terms)


def parse_arc_expr(text: str) -> ArcExpr:
    """Parse ``atom ( '+' atom )*``; atoms are identifiers or `quoted` literals."""
    terms: List[Term] = []
    for chunk in text.split("+"):
        atom = chunk.strip()
        if not atom:
            raise ExprSyntaxError(f"empty atom in arc expression {text!r}")
        if atom.startswith("`"):
            if not atom.endswith("`") or len(atom) < 2:
                raise ExprSyntaxError(f"unterminated constant in {text!r}")
            literal = atom[1:-1]
            terms.append(Const(int(literal) if _INT.match(literal) else literal))
        elif _IDENT.match(atom):
            terms.append(Var(atom))
        else:
            raise ExprSyntaxError(f"bad atom {atom!r} in arc expression {text!r}")
    return ArcExpr(terms)


@dataclass(frozen=True)
class Binding:
    """An assignment of values to variable names."""

    items: Tuple[Tuple[str, Hashable], ...]

    def __init__(self, assignment: Mapping[str, Hashable] | Iterable[Tuple[str, Hashable]]):
        pairs = assignment.items() if isinstance(assignment, Mapping) else assignment
        object.__setattr__(self, "items", tuple(sorted(pairs)))

    def __getitem__(self, var: str) -> Hashable:
        for name, value in self.items:
            if name == var:
                return value
        raise KeyError(var)

    def __contains__(self, var: str) -> bool:
        return any(name == var for name, _ in self.items)

    def as_dict(self) -> Dict[str, Hashable]:
        return dict(self.items)


_Key = Tuple[str, AtomValue]  # (place, value)
_Delta = Tuple[Tuple[_Key, int], ...]  # (key, count change), no zero changes


@dataclass(frozen=True, eq=False, repr=False)
class ColoredMarking:
    """Mapping from places to value multisets; empty places are dropped.

    A marking is a map from (place, value) to its positive count and a hash,
    one XOR term per entry. ``_moved`` builds every marking: it copies the
    map and edits the entries a delta names, with their hash terms. The
    multisets by place, ``entries``, are derived on first use.
    """

    def __init__(self, assignment: Mapping[str, Multiset | Iterable[AtomValue]] = ()):
        counts: Counter = Counter()
        for place, tokens in (assignment.items() if isinstance(assignment, Mapping)
                              else assignment):
            counts.update((place, value) for value in tokens)
        m = self._set({}, 0)._moved(counts.items())
        self._set(m._counts, m._hash)

    def _set(self, counts: Dict[_Key, int], h: int) -> "ColoredMarking":
        object.__setattr__(self, "_counts", counts)
        object.__setattr__(self, "_hash", h)
        return self

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not ColoredMarking:
            return NotImplemented
        return self._counts == other._counts

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        return f"ColoredMarking(entries={self.entries!r})"

    def __reduce__(self):
        # rebuilt on load, so the hash is computed in the loading process
        return (ColoredMarking, (self.entries,))

    @cached_property
    def entries(self) -> Tuple[Tuple[str, Multiset], ...]:
        """The value multisets by place, places sorted, empty ones absent."""
        places: Dict[str, Dict[AtomValue, int]] = {}
        for (place, value), n in self._counts.items():
            places.setdefault(place, {})[value] = n
        return tuple((p, Multiset.from_counts(places[p])) for p in sorted(places))

    def get(self, place: str) -> Multiset:
        return dict(self.entries).get(place, EMPTY)

    def places(self) -> Tuple[str, ...]:
        return tuple(p for p, _ in self.entries)

    def set(self, place: str, tokens: Multiset) -> "ColoredMarking":
        return ColoredMarking([(p, ms) for p, ms in self.entries if p != place]
                              + [(place, tokens)])

    def _holds(self, need: _Delta) -> bool:
        return all(self._counts.get(key, 0) >= n for key, n in need)

    def _moved(self, delta: Iterable[Tuple[_Key, int]]) -> "ColoredMarking":
        """The marking with each key's count changed by its (nonzero)
        change; no count may fall below zero."""
        counts = self._counts.copy()
        h = self._hash
        for key, change in delta:
            old = counts.pop(key, 0)
            new = old + change
            if old:
                h ^= hash((key, old))
            if new:
                counts[key] = new
                h ^= hash((key, new))
        return object.__new__(ColoredMarking)._set(counts, h)


@dataclass(frozen=True, eq=False)
class ColoredNet:
    """A colored net with explicit domains, initial marking, and final markings."""

    net: PetriNet
    domains: Mapping[str, Domain]
    place_type: Mapping[str, str]
    arc_expr: Mapping[Tuple[str, str], ArcExpr]
    var_type: Mapping[str, str]
    activity_label: Mapping[str, str]
    initial_marking: ColoredMarking
    final_markings: FrozenSet[ColoredMarking]

    def __init__(self, net, domains, place_type, arc_expr, var_type,
                 activity_label, initial_marking, final_markings):
        object.__setattr__(self, "net", net)
        object.__setattr__(self, "domains", dict(domains))
        object.__setattr__(self, "place_type", dict(place_type))
        object.__setattr__(self, "arc_expr", dict(arc_expr))
        object.__setattr__(self, "var_type", dict(var_type))
        object.__setattr__(self, "activity_label", dict(activity_label))
        object.__setattr__(self, "initial_marking", initial_marking)
        object.__setattr__(self, "final_markings", frozenset(final_markings))
        self._validate()

    def _validate(self) -> None:
        for p in self.net.places:
            if p not in self.place_type:
                raise NetStructureError(f"place {p!r} has no type")
            if self.place_type[p] not in self.domains:
                raise NetStructureError(f"place {p!r} typed with unknown domain "
                                        f"{self.place_type[p]!r}")
        for t in self.net.transitions:
            if t not in self.activity_label:
                raise NetStructureError(f"transition {t!r} has no activity label")
        for arc in self.net.arcs:
            if arc not in self.arc_expr:
                raise NetStructureError(f"arc {arc!r} has no expression")
        for (src, dst), expr in self.arc_expr.items():
            if (src, dst) not in self.net.arcs:
                raise NetStructureError(f"expression attached to unknown arc ({src!r}, {dst!r})")
            place = src if src in self.net.places else dst
            place_dom = self.domains[self.place_type[place]]
            for term in expr.terms:
                if isinstance(term, Var):
                    if term.name not in self.var_type:
                        raise NetStructureError(f"variable {term.name!r} has no declared type")
                    var_dom = self.domains.get(self.var_type[term.name])
                    if var_dom is None:
                        raise NetStructureError(
                            f"variable {term.name!r} typed with unknown domain "
                            f"{self.var_type[term.name]!r}")
                    if not var_dom.values <= place_dom.values:
                        raise NetStructureError(
                            f"variable {term.name!r} (domain {var_dom.name!r}) does not fit "
                            f"place {place!r} (domain {place_dom.name!r})")
                else:
                    if term.value not in place_dom.values:
                        raise NetStructureError(
                            f"constant {term.value!r} not in domain of place {place!r}")
        for marking in (self.initial_marking, *self.final_markings):
            self._check_marking(marking)

    def _check_marking(self, m: ColoredMarking) -> None:
        for place, tokens in m.entries:
            if place not in self.net.places:
                raise NetStructureError(f"marking references unknown place {place!r}")
            dom = self.domains[self.place_type[place]]
            for value, _ in tokens.items():
                if value not in dom.values:
                    raise NetStructureError(
                        f"value {value!r} in place {place!r} is outside domain {dom.name!r}")

    @cached_property
    def _table(self) -> "_ColoredTable":
        return _ColoredTable(self.net, self.arc_expr, self.activity_label)

    def transition_variables(self, t: str) -> Tuple[str, ...]:
        """Distinct variables occurring on arcs adjacent to ``t``, sorted."""
        return self._table.variables[t]


_Arcs = Tuple[Tuple[str, bool, ArcExpr], ...]  # (place, is a net place, expression), by place
# per term of a transition's input or output arcs: (place, the position of its
# variable among the transition's variables, or None, and its constant, or None)
_Template = Tuple[Tuple[str, Optional[int], Optional[AtomValue]], ...]


class _ColoredTable:
    """Per-net lookups built once, on first use: the transitions of each
    activity label in sorted order, and per transition its input and output
    arcs, its distinct variables, sorted, and its input and output arcs'
    terms as templates (``takes``, ``puts``; see ``_effect``). A nested
    net's system net compiles to one table, marking its ``net_places``; the
    system component shares it, and a plain colored net has no net places."""

    def __init__(self, net: PetriNet, arc_expr: Mapping[Tuple[str, str], ArcExpr],
                 activity_label: Mapping[str, str], net_places: Container[str] = ()):
        self.by_label: Dict[str, Tuple[str, ...]] = {}
        self.inputs: Dict[str, _Arcs] = {}
        self.outputs: Dict[str, _Arcs] = {}
        self.variables: Dict[str, Tuple[str, ...]] = {}
        self.takes: Dict[str, _Template] = {}
        self.puts: Dict[str, _Template] = {}
        for t in sorted(net.transitions):
            label = activity_label.get(t)
            self.by_label[label] = self.by_label.get(label, ()) + (t,)
            self.inputs[t] = tuple((p, p in net_places, arc_expr[(p, t)])
                                   for p in sorted(net.preset(t)))
            self.outputs[t] = tuple((p, p in net_places, arc_expr[(t, p)])
                                    for p in sorted(net.postset(t)))
            self.variables[t] = tuple(sorted(
                {v for _, _, e in self.inputs[t] + self.outputs[t] for v in e.variables()}))
            position = {v: i for i, v in enumerate(self.variables[t])}
            self.takes[t], self.puts[t] = (
                tuple((p, position[term.name], None) if isinstance(term, Var)
                      else (p, None, term.value) for p, _, e in arcs for term in e.terms)
                for arcs in (self.inputs[t], self.outputs[t]))


def _demand(expr: ArcExpr, values: Mapping[str, Hashable] | Binding) -> List[Hashable]:
    """The values an arc expression evaluates to, one per term; an unbound
    variable raises ``KeyError``."""
    return [values[term.name] if isinstance(term, Var) else term.value
            for term in expr.terms]


def eval_arc_expr(expr: ArcExpr, binding: Binding) -> Multiset:
    """Evaluate a formal sum under a binding to a multiset of values."""
    try:
        return Multiset(_demand(expr, binding))
    except KeyError as exc:
        raise BindingError(f"variable {exc.args[0]!r} is unbound") from None


def _effect(table: _ColoredTable, t: str, values: Sequence[Hashable]) -> Tuple[_Delta, _Delta]:
    """What firing ``t`` with ``values``, one per variable of ``t`` in
    order, needs, as (key, count) pairs, and its net change, as (key, count
    change) pairs without zeros, read off the transition's templates."""
    need: Dict[_Key, int] = {}
    delta: Dict[_Key, int] = {}
    for counts, template in ((need, table.takes[t]), (delta, table.puts[t])):
        for place, position, constant in template:
            key = (place, constant if position is None else values[position])
            counts[key] = counts.get(key, 0) + 1
    for key, n in need.items():
        delta[key] = delta.get(key, 0) - n
    return tuple(need.items()), tuple((k, n) for k, n in delta.items() if n)


def fire_colored(cn: ColoredNet, m: ColoredMarking, t: str, b: Binding) -> ColoredMarking:
    """Fire ``t`` under ``b``: per place, remove input evaluations, add output ones."""
    values = b.as_dict()
    try:
        need, delta = _effect(cn._table, t, [values[v] for v in cn.transition_variables(t)])
    except KeyError as exc:
        raise BindingError(f"variable {exc.args[0]!r} is unbound") from None
    if not m._holds(need):
        raise NotEnabledError(t, detail=f"binding {b.items!r} does not enable it")
    return m._moved(delta)


def _assign_values(accepts: Sequence[Container], pool: Sequence[Tuple[Hashable, int, Hashable]]
                   ) -> List[Tuple[Hashable, ...]]:
    """The ways to give each position one value of ``pool``, using each
    value as often as its multiplicity and the pool up exactly, as value
    tuples. ``pool`` lists (value, multiplicity, key) in the order to try
    the values; a value fits position i when its key is in ``accepts[i]``.
    The tuples are built one position at a time, so they come in the order
    of a depth-first search over the positions."""
    if len(accepts) != sum(n for _, n, _ in pool):
        return []
    chosen: List[Tuple[int, ...]] = [()]
    for accepted in accepts:
        chosen = [c + (i,) for c in chosen for i, (_, n, key) in enumerate(pool)
                  if key in accepted and c.count(i) < n]
    return [tuple(pool[i][0] for i in c) for c in chosen]


def _payload_values(cn: ColoredNet, t: str, payload: Multiset) -> List[Tuple[Hashable, ...]]:
    """The values over the distinct variables of ``t`` whose multiset equals
    ``payload``, respecting variable domains."""
    return _assign_values([cn.domains[cn.var_type[v]].values for v in cn.transition_variables(t)],
                          [(value, n, value) for value, n in payload.items()])


Candidates = Callable[[str, Hashable], Tuple[Tuple[Binding, _Delta, _Delta], ...]]


def candidate_memo(cn: ColoredNet, assignments: Callable[[str, Hashable], Iterable[Sequence]]
                   ) -> Candidates:
    """Memoize ``assignments(t, payload)``, the values of the bindings of
    ``t`` that ``payload`` allows, in the order of its variables, which must
    not depend on a marking: each (transition, payload) gets its bindings
    once, in search order, each with its ``_effect`` (need, delta). The keys
    come from the log, so a memo should live for one check, not on the net."""
    table = cn._table
    memo: Dict[Tuple[str, Hashable], Tuple] = {}

    def candidates(t: str, payload: Hashable):
        key = (t, payload)
        found = memo.get(key)
        if found is None:
            variables = table.variables[t]
            found = memo[key] = tuple(sorted(
                ((Binding(zip(variables, values)), *_effect(table, t, values))
                 for values in assignments(t, payload)), key=lambda c: sort_key(c[0].items)))
        return found

    return candidates


def replay_colored(cn: ColoredNet, steps: Sequence[Tuple[str, Hashable]],
                   candidates: Candidates, max_states: Optional[int] = None) -> ReplayResult:
    """``search`` over (marking, position) whose moves fire the transitions
    of a step's activity; ``candidates(t, payload)``, built by
    ``candidate_memo``, lists a transition's payload-consistent bindings."""
    by_label = cn._table.by_label

    def successors(m: ColoredMarking, pos: int) -> Iterator[Tuple[Tuple[str, Binding],
                                                                  ColoredMarking]]:
        activity, payload = steps[pos]
        for t in by_label.get(activity, ()):
            for b, need, delta in candidates(t, payload):
                if m._holds(need):
                    yield (t, b), m._moved(delta)

    return search(cn.initial_marking, len(steps), successors,
                  cn.final_markings.__contains__, max_states)


def is_run_colored(cn: ColoredNet, steps: Sequence[Tuple[str, Multiset]],
                   max_states: Optional[int] = None) -> ReplayResult:
    """Decide whether a sequence of (activity, value multiset) pairs is a run
    from the initial marking to some final marking.

    Each step must fire a transition with the given activity under a binding
    whose values over the transition's distinct variables equal the step's
    multiset (each variable contributes its bound value once).
    """
    return replay_colored(
        cn, steps, candidate_memo(cn, lambda t, payload: _payload_values(cn, t, payload)),
        max_states)
