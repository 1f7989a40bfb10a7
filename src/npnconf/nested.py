"""Nested Petri nets: a colored system net whose tokens are marked workflow
nets (net tokens) or atomic data values, plus the three step kinds.

The system net's net places are typed by sets of element-net names and hold
distinguishable net tokens; atom places are typed by data domains and hold
value multisets. Conservative nets never clone or destroy net tokens, so the
set of agents is stable along every run.
"""

from __future__ import annotations

import itertools
from collections.abc import Mapping
from dataclasses import dataclass
from functools import cached_property
from operator import itemgetter
from typing import (Dict, FrozenSet, Hashable, Iterable, Iterator, List,
                    Optional, Sequence, Tuple, Union)

from .colored import ArcExpr, Binding, Domain, Var, _assign_values, _ColoredTable, _demand
from .multiset import Multiset, MultisetUnderflow, _value, _Value, sort_key
from .nets import (Marking, NotEnabledError, PetriNet, WorkflowNet, validate_workflow_net)


class RosterError(ValueError):
    """An agent name is not part of the model's roster (or marking)."""


# the report's names for the verdicts of the whole model and of the system
# net; an agent's verdict goes by the agent's name, so no agent may take either
MONOLITHIC_COMPONENT = "model"
SYSTEM_COMPONENT = "SN"


@_value
class NetToken(_Value):
    """A net token: an agent name together with its current inner marking."""

    agent: str
    inner: Marking


def _token_hash(place: str, token: NetToken) -> int:
    return hash((place, token.agent, token.inner))


@dataclass(frozen=True, eq=False, repr=False)
class NpMarking:
    """A system-net marking: net tokens on net places, values on atom places.

    Net tokens are distinguishable; each agent name occurs at most once in
    the whole marking. A marking is an index from agent name to (place, net
    token), its atom places (sorted, empty ones dropped) and its hash: the
    atoms' hash XOR one term per net token. Every marking, the empty one
    aside, is built by ``_moved``, which edits the index and the hash in
    time proportional to the tokens a step takes and puts. The tokens
    grouped by place, ``net_tokens``, are derived on first use.
    """

    def __init__(self,
                 net_tokens: Mapping[str, Iterable[NetToken]] = (),
                 atoms: Mapping[str, Multiset | Iterable[Hashable]] = ()):
        put: Dict[str, List[NetToken]] = {}
        for place, tokens in (net_tokens.items() if isinstance(net_tokens, Mapping)
                              else net_tokens):
            put.setdefault(place, []).extend(tokens)
        values = {place: ms if isinstance(ms, Multiset) else Multiset(ms)
                  for place, ms in (atoms.items() if isinstance(atoms, Mapping) else atoms)}
        m = self._set({}, (), hash(()))._moved({}, put, values)
        self._set(m._index, m.atoms, m._hash)

    def _set(self, index: Dict[str, Tuple[str, NetToken]],
             atoms: Tuple[Tuple[str, Multiset], ...], h: int) -> "NpMarking":
        object.__setattr__(self, "_index", index)
        object.__setattr__(self, "atoms", atoms)
        object.__setattr__(self, "_hash", h)
        return self

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not NpMarking:
            return NotImplemented
        return self._index == other._index and self.atoms == other.atoms

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        return f"NpMarking(net_tokens={self.net_tokens!r}, atoms={self.atoms!r})"

    def __reduce__(self):
        # rebuilt on load, so the hash is computed in the loading process
        return (NpMarking, (self.net_tokens, self.atoms))

    @cached_property
    def net_tokens(self) -> Tuple[Tuple[str, Tuple[NetToken, ...]], ...]:
        """The net tokens by place: places sorted, each place's tokens
        sorted by agent, empty places absent."""
        places: Dict[str, List[NetToken]] = {}
        for agent in sorted(self._index):
            place, tk = self._index[agent]
            places.setdefault(place, []).append(tk)
        return tuple((p, tuple(places[p])) for p in sorted(places))

    def tokens_at(self, place: str) -> Tuple[NetToken, ...]:
        return dict(self.net_tokens).get(place, ())

    def atoms_at(self, place: str) -> Multiset:
        for p, ms in self.atoms:
            if p == place:
                return ms
        return Multiset()

    def iter_tokens(self) -> Iterator[Tuple[str, NetToken]]:
        for place, toks in self.net_tokens:
            for tk in toks:
                yield place, tk

    def locate(self, agent: str) -> Optional[Tuple[str, NetToken]]:
        return self._index.get(agent)

    def agent_names(self) -> FrozenSet[str]:
        return frozenset(self._index)

    def _moved(self, taken: Mapping[str, Sequence[NetToken]],
               put: Mapping[str, Sequence[NetToken]],
               atoms: Optional[Mapping[str, Multiset]] = None) -> "NpMarking":
        """The marking with the ``taken`` net tokens, which must reside in
        their places, removed, the ``put`` ones added and, when given,
        ``atoms`` as the new atom places."""
        index = dict(self._index)
        h = self._hash
        for place, toks in taken.items():
            for tk in toks:
                del index[tk.agent]
                h ^= _token_hash(place, tk)
        for place, toks in put.items():
            for tk in toks:
                if tk.agent in index:
                    raise RosterError(f"agent {tk.agent!r} occurs more than once in marking")
                index[tk.agent] = (place, tk)
                h ^= _token_hash(place, tk)
        new_atoms = self.atoms
        if atoms is not None:
            new_atoms = tuple(sorted(((p, ms) for p, ms in atoms.items() if ms),
                                     key=lambda e: e[0]))
            h ^= hash(new_atoms) ^ hash(self.atoms)
        return object.__new__(NpMarking)._set(index, new_atoms, h)


@dataclass(frozen=True)
class ElementStep:
    """Autonomous firing of an unlabeled transition inside one net token."""

    agent: str
    transition: str


@dataclass(frozen=True)
class SystemStep:
    """Autonomous firing of an unlabeled system transition under a binding."""

    transition: str
    binding: Binding


@dataclass(frozen=True)
class SyncStep:
    """Labeled system firing synchronized with one equally-labeled inner
    transition per involved net token; inner transitions fire first."""

    transition: str
    binding: Binding
    participants: Tuple[Tuple[str, str], ...]  # (agent, inner transition)

    def __init__(self, transition: str, binding: Binding,
                 participants: Iterable[Tuple[str, str]]):
        object.__setattr__(self, "transition", transition)
        object.__setattr__(self, "binding", binding)
        object.__setattr__(self, "participants", tuple(sorted(participants)))


Step = Union[ElementStep, SystemStep, SyncStep]


@dataclass(frozen=True, eq=False)
class NestedNet:
    """A two-level net: colored system net over element-net classes.

    ``agents`` names the stable set of net tokens and assigns each its
    element-net class. Activity labels are total (system transitions here,
    element transitions on their workflow nets); sync labels are partial.
    """

    system: PetriNet
    net_place_type: Mapping[str, FrozenSet[str]]
    atom_place_type: Mapping[str, str]
    domains: Mapping[str, Domain]
    arc_expr: Mapping[Tuple[str, str], ArcExpr]
    var_type: Mapping[str, str]
    elements: Mapping[str, WorkflowNet]
    system_activity: Mapping[str, str]
    system_sync: Mapping[str, str]
    agents: Mapping[str, str]
    initial_marking: NpMarking
    final_markings: FrozenSet[NpMarking]

    def __init__(self, system, net_place_type, atom_place_type, domains, arc_expr,
                 var_type, elements, system_activity, system_sync, agents,
                 initial_marking, final_markings):
        object.__setattr__(self, "system", system)
        object.__setattr__(self, "net_place_type",
                           {p: frozenset(s) for p, s in dict(net_place_type).items()})
        object.__setattr__(self, "atom_place_type", dict(atom_place_type))
        object.__setattr__(self, "domains", dict(domains))
        object.__setattr__(self, "arc_expr", dict(arc_expr))
        object.__setattr__(self, "var_type", dict(var_type))
        object.__setattr__(self, "elements", dict(elements))
        object.__setattr__(self, "system_activity", dict(system_activity))
        object.__setattr__(self, "system_sync", dict(system_sync))
        object.__setattr__(self, "agents", dict(agents))
        object.__setattr__(self, "initial_marking", initial_marking)
        object.__setattr__(self, "final_markings", frozenset(final_markings))

    def agent_class(self, agent: str) -> WorkflowNet:
        if agent not in self.agents:
            raise RosterError(f"unknown agent {agent!r}")
        return self.elements[self.agents[agent]]

    def is_net_var(self, var: str) -> bool:
        return self.var_type.get(var) in self.elements

    @cached_property
    def _table(self) -> "_NetTable":
        return _NetTable(self)

    def transition_variables(self, t: str) -> Tuple[str, ...]:
        return self._table.system.variables[t]


class _NetTable:
    """The model's one compiled table, built on first use. ``system`` is the
    system net's compiled table (the system component reads it too); element
    nets keep their own (``WorkflowNet._table``). Per system transition, in
    sorted order with its sync label (``transitions``): its net and data
    variables, the net variables' positions, the input places each net
    variable draws from, a pool plan per variable ((source places, class),
    or (None, domain values)), its payload plan (``_payload_assignments``,
    which reads each declared domain's values, ``domain_values``) and its
    enabling rule (``_enabling_rule``);
    ``single`` maps each transition whose every enabling combination is one
    net token (one net variable read from one net place, nothing left to
    check) to that place and the variable's class. For the step
    enumeration: the roster in name order (element steps) and in repr
    order (pools) with each agent's ``rank`` there, a memo from net token
    (agent, then inner marking) to its entry (``options_of``): its options
    per sync label, None for element steps, and its specs on the ``single``
    transitions; and one from located net token (agent, then (place, inner
    marking)) to its row (``rows_of``). They hold at most roster x distinct
    inner markings and roster x distinct (place, inner marking) entries,
    each filled with one value, so walks may share them."""

    def __init__(self, np: NestedNet):
        self.system = system = _ColoredTable(np.system, np.arc_expr, np.system_activity,
                                             np.net_place_type)
        self.roster = tuple(sorted(r for r, c in np.agents.items() if c in np.elements))
        # Agents are unique in a marking and no string literal is a prefix of
        # another, so ordering net tokens by their agent's repr equals ordering
        # them by ``sort_key`` (the whole token's repr) at a fraction of the cost.
        self.by_repr = tuple((r, np.agents[r]) for r in sorted(self.roster, key=repr))
        self.rank = {r: i for i, (r, _) in enumerate(self.by_repr)}
        self.name_ranks = tuple(self.rank[r] for r in self.roster)
        self.tables = {r: np.elements[np.agents[r]]._table for r in self.roster}
        self.options: Dict[str, Dict[Marking, _TokenEntry]] = {r: {} for r in self.roster}
        self.rows: Dict[str, Dict[Tuple[str, Marking], _Row]] = {r: {} for r in self.roster}
        self.transitions = tuple((t, np.system_sync.get(t)) for t in sorted(np.system.transitions))
        self.labels = (None, *sorted({label for _, label in self.transitions} - {None}))
        domain_order = {name: d.sorted_values() for name, d in np.domains.items()}
        self.domain_values = {name: d.values for name, d in np.domains.items()}
        self.net_vars, self.data_vars, self.net_positions, self.payload_plans = {}, {}, {}, {}
        self.sources, self.plans, self.rules, self.single = {}, {}, {}, {}
        for t, _ in self.transitions:
            variables = system.variables[t]
            net_vars = self.net_vars[t] = tuple(v for v in variables if np.is_net_var(v))
            data_vars = self.data_vars[t] = tuple(v for v in variables if not np.is_net_var(v))
            self.net_positions[t] = tuple(i for i, v in enumerate(variables) if np.is_net_var(v))
            order = [(net_vars + data_vars).index(v) for v in variables]
            # per net variable its class, per data variable its domain (none
            # when undeclared), and the values' order (None: as they come)
            self.payload_plans[t] = (
                tuple((np.var_type[v],) for v in net_vars),
                tuple((np.var_type[v],) if np.var_type.get(v) in np.domains else ()
                      for v in data_vars),
                None if order == sorted(order) else itemgetter(*order))
            sources = self.sources[t] = {}
            for p, _, expr in system.inputs[t]:
                for v in dict.fromkeys(expr.variables()):
                    if np.is_net_var(v):
                        sources[v] = sources.get(v, ()) + (p,)
            # a variable with no type, or typed over an undeclared domain
            # (unvalidated models only), ranges over nothing
            self.plans[t] = tuple((sources.get(v, ()), np.var_type[v]) if np.is_net_var(v)
                                  else (None, domain_order.get(np.var_type.get(v), ()))
                                  for v in variables)
            self.rules[t] = _enabling_rule(np, self, t)
            places = sources.get(variables[0], ()) if len(variables) == 1 else ()
            if len(places) == 1 and self.rules[t] == ((), ()):
                self.single[t] = (places[0], np.var_type[variables[0]])

    def options_of(self, agent: str, inner: Marking) -> _TokenEntry:
        """The entry of net token (``agent``, ``inner``): per sync label of a
        system transition, and None (unlabeled), the (agent, inner
        transition) pairs with that label that ``inner`` enables in
        ``agent``'s class; then, per transition of ``single`` that reads the
        token's class and that it can fire, in sorted order, the transition,
        its source place and the token's specs on it, in product order."""
        by_inner = self.options[agent]
        found = by_inner.get(inner)
        if found is None:
            enabled, cls = self.tables[agent].enabled, self.by_repr[self.rank[agent]][1]
            by_label = {label: tuple((agent, ti) for ti in enabled(inner, label))
                        for label in self.labels}
            tk, singles = (NetToken(agent, inner),), []
            for t, label in self.transitions:
                place, reads = self.single.get(t, (None, None))
                if reads == cls and (label is None or by_label[label]):
                    singles.append((t, place, ((t, tk),) if label is None else
                                    tuple((t, tk, (option,)) for option in by_label[label])))
            found = by_inner[inner] = (by_label, tuple(singles))
        return found

    def rows_of(self, m: NpMarking, parent: Optional[Sequence[Optional[_Row]]] = None,
                spec: Optional[_Spec] = None) -> List[Optional[_Row]]:
        """The rows of ``m``, per agent in repr order: None where ``m`` lacks
        the agent, else its located net token's row, memoised by (place,
        inner marking): its entry's options (``options_of``) and its specs on
        the ``single`` transitions that read its place. Given the rows of the
        ``parent`` whose step ``spec`` led to ``m``, only the agents ``spec``
        names (its agent, or the net tokens among its values) are redone."""
        rows = [None] * len(self.by_repr) if parent is None else list(parent)
        agents = (self.rank if parent is None else spec[:1] if isinstance(spec[1], str)
                  else [v.agent for v in spec[1] if isinstance(v, NetToken)])
        for agent in agents:
            located, row = m._index.get(agent), None
            if located is not None:
                key = located[0], located[1].inner
                row = self.rows[agent].get(key)
                if row is None:
                    by_label, singles = self.options_of(agent, key[1])
                    row = self.rows[agent][key] = (by_label, tuple(
                        (t, found) for t, place, found in singles if place == key[0]))
            rows[self.rank[agent]] = row
        return rows

    def groups(self, m: NpMarking) -> Dict[Tuple[str, str], List[NetToken]]:
        """The net tokens of ``m`` by (place, class), each group in repr order."""
        groups: Dict[Tuple[str, str], List[NetToken]] = {}
        for agent, cls in self.by_repr:
            located = m._index.get(agent)
            if located is not None:
                groups.setdefault((located[0], cls), []).append(located[1])
        return groups

    def pools(self, groups: Mapping[Tuple[str, str], Sequence[NetToken]], t: str,
              label: Optional[str] = None, rows: Optional[Sequence[Optional[_Row]]] = None
              ) -> List[Sequence[Hashable]]:
        """Per variable of ``t``, its data domain or the net tokens of its class
        in the input places its arcs read from, in repr order per place (one
        read from two never fires). Given a sync ``label`` and the marking's
        ``rows`` (see ``rows_of``), tokens with no option under it go."""
        pools: List[Sequence[Hashable]] = []
        for places, what in self.plans[t]:
            if places is None:
                pools.append(what)
                continue
            pool = [tk for p in places for tk in groups.get((p, what), ())]
            if label is not None:
                pool = [tk for tk in pool if rows[self.rank[tk.agent]][0][label]]
            pools.append(pool)
        return pools


def _repeats(items: Sequence[Hashable]) -> bool:
    return len(set(items)) < len(items)


def validate_nested_net(np: NestedNet) -> List[str]:
    """Report every violated well-formedness condition; empty means valid."""
    violations: List[str] = []

    all_nets = [("system", np.system)] + [(name, w.net) for name, w in np.elements.items()]
    owner: Dict[str, str] = {}
    for name, net in all_nets:
        for node in sorted(net.places | net.transitions):
            if node in owner:
                violations.append(
                    f"node id {node!r} used by both {owner[node]!r} and {name!r}")
            else:
                owner[node] = name

    for name, w in sorted(np.elements.items()):
        for issue in validate_workflow_net(w):
            violations.append(f"element net {name!r}: {issue}")

    typed = set(np.net_place_type) | set(np.atom_place_type)
    for p in sorted(np.system.places):
        if p not in typed:
            violations.append(f"system place {p!r} has no type")
    for p in sorted(set(np.net_place_type) & set(np.atom_place_type)):
        violations.append(f"system place {p!r} typed as both net and atom place")
    for p, names in sorted(np.net_place_type.items()):
        if not names:
            violations.append(f"net place {p!r} has an empty type set")
        for e in sorted(names - set(np.elements)):
            violations.append(f"net place {p!r} typed over unknown element net {e!r}")
    for p, dom in sorted(np.atom_place_type.items()):
        if dom not in np.domains:
            violations.append(f"atom place {p!r} typed over unknown domain {dom!r}")
    for dom in sorted(np.domains):
        if not np.domains[dom].values:
            violations.append(f"declared domain {dom!r} is empty")

    for t in sorted(np.system.transitions):
        if t not in np.system_activity:
            violations.append(f"system transition {t!r} has no activity label")

    for arc in sorted(np.system.arcs):
        if arc not in np.arc_expr:
            violations.append(f"system arc {arc!r} has no expression")
    for (src, dst), expr in sorted(np.arc_expr.items(), key=lambda kv: kv[0]):
        if (src, dst) not in np.system.arcs:
            violations.append(f"expression attached to unknown arc ({src!r}, {dst!r})")
            continue
        place = src if src in np.system.places else dst
        if place in np.net_place_type:
            if expr.constants():
                violations.append(
                    f"arc ({src!r}, {dst!r}): net-place expressions cannot contain constants")
            for v in expr.variables():
                vt = np.var_type.get(v)
                if vt is None:
                    violations.append(f"arc ({src!r}, {dst!r}): variable {v!r} has no type")
                elif vt not in np.elements:
                    violations.append(
                        f"arc ({src!r}, {dst!r}): variable {v!r} is not net-typed")
                elif vt not in np.net_place_type[place]:
                    violations.append(
                        f"arc ({src!r}, {dst!r}): variable {v!r} (type {vt!r}) does not fit "
                        f"place {place!r}")
        elif place in np.atom_place_type:
            dom_name = np.atom_place_type[place]
            dom = np.domains.get(dom_name)
            variables = expr.variables()
            if _repeats(variables):
                violations.append(
                    f"arc ({src!r}, {dst!r}): atom-place expression repeats a variable")
            for v in variables:
                vt = np.var_type.get(v)
                if vt is None:
                    violations.append(f"arc ({src!r}, {dst!r}): variable {v!r} has no type")
                elif vt in np.elements:
                    violations.append(
                        f"arc ({src!r}, {dst!r}): net-typed variable {v!r} on an atom place")
                elif vt != dom_name:
                    violations.append(
                        f"arc ({src!r}, {dst!r}): variable {v!r} (domain {vt!r}) does not "
                        f"match place domain {dom_name!r}")
            if dom is not None:
                for c in expr.constants():
                    if c not in dom.values:
                        violations.append(
                            f"arc ({src!r}, {dst!r}): constant {c!r} outside domain {dom_name!r}")

    for r, cls in sorted(np.agents.items()):
        if cls not in np.elements:
            violations.append(f"agent {r!r} has unknown class {cls!r}")
        if r in (MONOLITHIC_COMPONENT, SYSTEM_COMPONENT):
            violations.append(f"agent {r!r} takes the name of a report component")

    for label, marking in [("initial marking", np.initial_marking)] + [
            (f"final marking {i}", mf) for i, mf in
            enumerate(sorted(np.final_markings, key=sort_key))]:
        violations.extend(f"{label}: {issue}" for issue in _check_np_marking(np, marking))

    return violations


def _check_np_marking(np: NestedNet, m: NpMarking) -> List[str]:
    issues = []
    for place, tokens in m.net_tokens:
        if place not in np.net_place_type:
            issues.append(f"net tokens on non-net place {place!r}")
            continue
        for tk in tokens:
            cls = np.agents.get(tk.agent)
            if cls is None:
                issues.append(f"net token names unknown agent {tk.agent!r}")
                continue
            if cls not in np.net_place_type[place]:
                issues.append(
                    f"agent {tk.agent!r} (class {cls!r}) not allowed in place {place!r}")
            element = np.elements.get(cls)
            if element is not None:
                bad = [p for p, _ in tk.inner.items() if p not in element.net.places]
                if bad:
                    issues.append(
                        f"inner marking of {tk.agent!r} references foreign places {bad}")
    for place, values in m.atoms:
        if place not in np.atom_place_type:
            issues.append(f"atomic values on non-atom place {place!r}")
            continue
        dom = np.domains.get(np.atom_place_type[place])
        if dom is not None:
            for value, _ in values.items():
                if value not in dom.values:
                    issues.append(
                        f"value {value!r} in place {place!r} outside domain {dom.name!r}")
    return issues


def check_conservative(np: NestedNet) -> List[str]:
    """Structural conservativeness: per system transition, the multiset of
    net-typed variables on input arcs must equal the one on output arcs,
    so net tokens are neither cloned nor destroyed."""
    violations = []
    for t in sorted(np.system.transitions):
        inbound: List[str] = []
        outbound: List[str] = []
        for p in np.system.preset(t):
            inbound.extend(v for v in np.arc_expr[(p, t)].variables() if np.is_net_var(v))
        for p in np.system.postset(t):
            outbound.extend(v for v in np.arc_expr[(t, p)].variables() if np.is_net_var(v))
        if Multiset(inbound) != Multiset(outbound):
            violations.append(
                f"transition {t!r} consumes net variables {sorted(inbound)} but "
                f"produces {sorted(outbound)}")
    return violations


def check_agreement(np: NestedNet) -> List[str]:
    """The precondition under which monolithic and compositional checking
    agree: within each net, transitions sharing an activity share their
    sync label (or lack of one), and every declared final marking puts each
    agent's inner marking as one token on its class's sink."""
    violations = []
    nets = [("system net", np.system_activity, np.system_sync)] + [
        (f"element net {name!r}", w.activity_label, w.sync_label)
        for name, w in sorted(np.elements.items())]
    for where, activity, sync in nets:
        by_activity: Dict[str, List[str]] = {}
        for t in sorted(activity):
            by_activity.setdefault(activity[t], []).append(t)
        for a, ts in sorted(by_activity.items()):
            if len({sync.get(t) for t in ts}) > 1:
                labels = ", ".join(f"{t!r} (sync {sync.get(t)!r})" for t in ts)
                violations.append(
                    f"{where}: activity {a!r} has transitions with different sync "
                    f"labels: {labels}")
    for i, mf in enumerate(sorted(np.final_markings, key=sort_key)):
        for _, tk in mf.iter_tokens():
            w = np.elements.get(np.agents.get(tk.agent))
            if w is not None and tk.inner != Multiset([w.sink]):
                violations.append(
                    f"final marking {i}: inner marking of {tk.agent!r} is not one "
                    f"token on sink {w.sink!r}")
    return violations


# A check's payload table: per (system transition, agent names, data) the
# values of ``_payload_assignments``, filled by one check call and never
# kept on the model (see ``_table_payload``).
PayloadTable = Dict[Tuple[str, Tuple[str, ...], Multiset], Tuple[Tuple[Hashable, ...], ...]]


def _payload_assignments(np: NestedNet, t: str, names: Iterable[str],
                         data: Multiset) -> Tuple[Tuple[Hashable, ...], ...]:
    """The ways an event's payload binds the variables of ``t``: each agent
    name to a net variable of its class and each tagged data value to a data
    variable of its domain, every one exactly once. Gives the values of
    ``transition_variables(t)``, agent assignments outer, each side in the
    order of a depth-first search over its variables, agent names in repr
    order and data in canonical item order."""
    table = np._table
    classes, domains, order = table.payload_plans[t]
    # an event names distinct agents, and ordering strings by repr is their
    # canonical order (``sort_key``) without building a key per name
    agents = _assign_values(classes, [(r, 1, np.agents.get(r)) for r in sorted(names, key=repr)])
    if not agents:
        return ()
    known = table.domain_values
    # a data value outside its domain has no key, so it fits no variable
    items = _assign_values(domains, [(value, n, dom if value in known.get(dom, ()) else None)
                                     for (dom, value), n in data.items()])
    both = [a + d for a in agents for d in items]
    return tuple(both) if order is None else tuple(map(order, both))


def _table_payload(np: NestedNet, t: str, names: Tuple[str, ...], data: Multiset,
                   payloads: PayloadTable) -> Tuple[Tuple[Hashable, ...], ...]:
    """``_payload_assignments`` of a payload, enumerated once per table;
    ``names`` are sorted, as events store them."""
    key = (t, names, data)
    found = payloads.get(key)
    if found is None:
        found = payloads[key] = _payload_assignments(np, t, names, data)
    return found


def _enabling_rule(np: NestedNet, table: _NetTable, t: str) -> Optional[Tuple[Tuple, Tuple]]:
    """What a combination of the pools of ``t`` must still meet to enable it,
    or None if none can: the one place that decides a transition never
    fires. A pool holds only tokens of its class residing in its source
    places, so a net variable read once from one net place needs no check.
    A net variable read twice, from two places or from an atom place, or
    put twice on net places, or a non-token value (a constant or a data
    variable) on a net-place arc, is never met. Left: (per net-place arc
    with several variables, their positions, whose tokens must differ; per
    atom-place arc, its place, its variables' positions and its constants)."""
    system = table.system
    put = [term for _, is_net, expr in system.outputs[t] if is_net for term in expr.terms]
    if _repeats(put) or not all(isinstance(x, Var) and np.is_net_var(x.name) for x in put):
        return None
    position = {v: i for i, v in enumerate(system.variables[t])}
    distinct, atoms = [], []
    for place, is_net, expr in system.inputs[t]:
        names = expr.variables()
        net = [v for v in names if np.is_net_var(v)]
        if not is_net:
            if net:
                return None
            atoms.append((place, tuple(position[v] for v in names), expr.constants()))
        elif len(net) < len(expr.terms) or _repeats(net) or any(
                len(table.sources[t][v]) > 1 for v in net):
            return None
        elif len(net) > 1:
            distinct.append(tuple(position[v] for v in net))
    return tuple(distinct), tuple(atoms)


def _rule_met(held: Sequence[Tuple[Multiset, Tuple, Tuple]], values: Sequence[Hashable]) -> bool:
    """Whether each atom-place arc's demand under ``values`` lies in the atoms
    its place holds."""
    return all(Multiset([*(values[i] for i in positions), *constants]) <= available
               for available, positions, constants in held)


def _injective_product(pools: Sequence[Sequence[Hashable]],
                       distinct: Sequence[Tuple[int, ...]]) -> List[Tuple[Hashable, ...]]:
    """The combinations of ``itertools.product(*pools)``, in its order, that
    bind distinct values in each ``distinct`` group of positions, built one
    position at a time without the values bound earlier in its group."""
    earlier = [[j for group in distinct if i in group for j in group if j < i]
               for i in range(len(pools))]
    combinations: List[Tuple[Hashable, ...]] = [()]
    for pool, before in zip(pools, earlier):
        combinations = [c + (v,) for c in combinations for v in pool
                        if all(c[j] != v for j in before)]
    return combinations


def _enabling_values(np: NestedNet, m: NpMarking, t: str,
                     pools: Sequence[Sequence[Hashable]]) -> Iterator[Tuple[Hashable, ...]]:
    """The combinations of ``pools`` (as ``_NetTable.pools`` builds them),
    in product order, that enable ``t`` in ``m``: only what the transition's
    enabling rule leaves is checked, so most transitions check nothing, and
    a combination binding one token twice in a group is never built."""
    rule = np._table.rules[t]
    if rule is None:
        return iter(())
    distinct, atoms = rule
    combinations = _injective_product(pools, distinct) if distinct else itertools.product(*pools)
    if not atoms:
        return iter(combinations)
    held = [(m.atoms_at(place), positions, constants) for place, positions, constants in atoms]
    return (values for values in combinations if _rule_met(held, values))


def system_bindings(np: NestedNet, m: NpMarking, t: str) -> List[Binding]:
    """Enabling bindings of a system transition in an NP-net marking.

    Net variables range over the net tokens residing in the input places
    their arcs read from; data variables range over their full domains.
    """
    table = np._table
    return [Binding(zip(table.system.variables[t], values))
            for values in _enabling_values(np, m, t, table.pools(table.groups(m), t))]


def involved_tokens(np: NestedNet, t: str, b: Binding) -> Tuple[NetToken, ...]:
    """Net tokens bound to variables occurring in input arc expressions."""
    values, table = b.as_dict(), np._table
    toks = {values[v] for v in table.sources[t] if v in values}
    return tuple(sorted(toks, key=lambda tk: table.rank[tk.agent]))


# A step before it is built: (agent, inner transition) for an element step,
# (transition, values) for a system step and (transition, values,
# participants) for a sync step, values in the order of its variables.
_Spec = Tuple
# A step's effect on a marking: ``NpMarking._moved``'s (taken, put, atoms).
_Delta = Tuple[Dict[str, Sequence[NetToken]], Dict[str, Sequence[NetToken]], Optional[Dict]]
# A net token's entry in the step table's memo (see ``_NetTable.options_of``).
_TokenEntry = Tuple[Dict[Optional[str], Tuple[_Spec, ...]],
                    Tuple[Tuple[str, str, Tuple[_Spec, ...]], ...]]
# A located net token's row (see ``_NetTable.rows_of``).
_Row = Tuple[Dict[Optional[str], Tuple[_Spec, ...]], Tuple[Tuple[str, Tuple[_Spec, ...]], ...]]


def _step_specs(np: NestedNet, m: NpMarking,
                rows: Optional[Sequence[Optional[_Row]]] = None) -> List[_Spec]:
    """The enabled steps of ``m`` as specs, in ``enabled_steps`` order, read
    off ``m``'s rows (see ``_NetTable.rows_of``), built here when not given."""
    table = np._table
    if rows is None:
        rows = table.rows_of(m)
    specs: List[_Spec] = []
    for i in table.name_ranks:
        if rows[i] is not None:
            specs += rows[i][0][None]
    segments: Dict[str, List[_Spec]] = {}  # per transition of ``single``, tokens in repr order
    for row in rows:
        if row is not None:
            for t, found in row[1]:
                segments.setdefault(t, []).extend(found)
    groups = None
    for t, label in table.transitions:
        if t in table.single:
            specs.extend(segments.get(t, ()))
            continue
        if groups is None:
            groups = table.groups(m)
        # Pools hold only tokens read from input places, so every bound token
        # is involved: one without a matching inner transition disables each
        # combination holding it, and dropping it from the pools is exact.
        for values in _enabling_values(np, m, t, table.pools(groups, t, label, rows)):
            if label is None:
                specs.append((t, values))
                continue
            # the enabling rule keeps the tokens of a combination distinct
            involved = [values[i] for i in table.net_positions[t]]
            if len(involved) > 1:
                involved.sort(key=lambda tk: table.rank[tk.agent])
            specs.extend((t, values, participants) for participants in itertools.product(
                *(rows[table.rank[tk.agent]][0][label] for tk in involved)))
    return specs


def _build_step(np: NestedNet, spec: _Spec) -> Step:
    if isinstance(spec[1], str):
        return ElementStep(*spec)
    binding = Binding(zip(np._table.system.variables[spec[0]], spec[1]))
    if len(spec) == 2:
        return SystemStep(spec[0], binding)
    return SyncStep(spec[0], binding, spec[2])


def enabled_steps(np: NestedNet, m: NpMarking) -> List[Step]:
    """All enabled element-autonomous, system-autonomous, and synchronization
    steps of ``m``, in deterministic order."""
    return [_build_step(np, spec) for spec in _step_specs(np, m)]


def _spec_of(np: NestedNet, step: Step) -> _Spec:
    """The spec of ``step`` (see ``_Spec``), or NotEnabledError when an
    element step names an agent outside the roster or no unlabeled transition
    of its class, or a system or sync step names a transition of the other
    kind or binds a variable outside its type, or a sync step names an agent
    twice; whether a marking enables it is ``_fire_spec``'s to judge."""
    if isinstance(step, ElementStep):
        agent, ti = step.agent, step.transition
        if agent not in np.agents:
            raise NotEnabledError(ti, detail=f"agent {agent!r} not in marking")
        w = np.agent_class(agent)
        if ti not in w.net.transitions or w.sync_label.get(ti) is not None:
            raise NotEnabledError(ti, detail=f"not an unlabeled transition enabled in {agent!r}")
        return (agent, ti)
    if not isinstance(step, (SystemStep, SyncStep)):
        raise TypeError(f"unknown step type: {step!r}")
    t, sync = step.transition, isinstance(step, SyncStep)
    if t not in np.system.transitions or (np.system_sync.get(t) is not None) != sync:
        raise NotEnabledError(
            t, detail=f"not {'a labeled' if sync else 'an unlabeled'} system transition")
    if sync and len({agent for agent, _ in step.participants}) != len(step.participants):
        raise NotEnabledError(t, detail="participants do not match the involved net tokens")
    values = step.binding.as_dict()
    for v in np.transition_variables(t):
        value = values.get(v)  # an unbound net variable reads None, no net token
        if np.is_net_var(v):
            fits = isinstance(value, NetToken) and np.agents.get(value.agent) == np.var_type[v]
        else:
            dom = np.domains.get(np.var_type.get(v))
            fits = v in values and dom is not None and value in dom.values
        if not fits:
            raise NotEnabledError(t, detail="binding does not enable it")
    bound = tuple(values[v] for v in np.transition_variables(t))
    return (t, bound, step.participants) if sync else (t, bound)


def _spec_delta(np: NestedNet, m: NpMarking, spec: _Spec) -> _Delta:
    """The delta of the step ``spec`` describes (see ``_Spec``) in ``m``,
    raising NotEnabledError when ``m`` does not enable it. A system or sync
    step binds every variable of its transition, net variables to net tokens.
    Arcs are checked in place order, inputs first: each input token must
    reside in its place, taken once. A sync step names one participant,
    (agent, inner transition), per net token taken from a net place, and
    each inner transition fires as its token is taken; the system
    transition then puts the updated tokens. Only the step's tokens and
    the atoms of ``m`` are read."""
    if isinstance(spec[1], str):
        agent, ti = spec
        located = m.locate(agent)
        if located is None:
            raise NotEnabledError(ti, detail=f"agent {agent!r} not in marking")
        place, token = located
        table = np.agent_class(agent)._table
        if ti not in table.enabled(token.inner):
            raise NotEnabledError(ti, detail=f"not an unlabeled transition enabled in {agent!r}")
        return {place: (token,)}, {place: (NetToken(agent, table.fire(token.inner, ti)),)}, None
    t, table = spec[0], np._table.system
    values = dict(zip(table.variables[t], spec[1]))
    by_agent, label = (dict(spec[2]), np.system_sync[t]) if len(spec) == 3 else (None, None)
    updated: Dict[str, NetToken] = {}
    taken: Dict[str, List[NetToken]] = {}
    moved: Dict[str, List[NetToken]] = {}
    atoms: Optional[Dict[str, Multiset]] = None
    for p, is_net, expr in table.inputs[t]:
        demand = _demand(expr, values)
        if is_net:
            gone = taken.setdefault(p, [])
            for tok in demand:
                # a constant on a net-place arc (unvalidated models only) is no token
                if (not isinstance(tok, NetToken) or tok in gone
                        or m.locate(tok.agent) != (p, tok)):
                    raise NotEnabledError(t, [p])
                gone.append(tok)
                if by_agent is None:
                    continue
                ti, inner = by_agent.get(tok.agent), np.agent_class(tok.agent)._table
                if ti is None:
                    raise NotEnabledError(
                        t, detail="participants do not match the involved net tokens")
                if ti not in inner.enabled(tok.inner, label):
                    raise NotEnabledError(ti, detail=f"sync label {label!r}, agent {tok.agent!r}")
                updated[tok.agent] = NetToken(tok.agent, inner.fire(tok.inner, ti))
        else:
            atoms = dict(m.atoms) if atoms is None else atoms
            try:
                atoms[p] = atoms.get(p, Multiset()) - Multiset(demand)
            except MultisetUnderflow as exc:
                raise NotEnabledError(t, [p], str(exc)) from exc
    if by_agent is not None and len(updated) != len(spec[2]):
        raise NotEnabledError(t, detail="participants do not match the involved net tokens")
    for p, is_net, expr in table.outputs[t]:
        produced = _demand(expr, values)
        if is_net:
            for tok in produced:
                if not isinstance(tok, NetToken):
                    raise NotEnabledError(
                        t, detail=f"puts {tok!r}, no net token, on net place {p!r}")
            moved.setdefault(p, []).extend(updated.get(tok.agent, tok) for tok in produced)
        else:
            atoms = dict(m.atoms) if atoms is None else atoms
            atoms[p] = atoms.get(p, Multiset()) + Multiset(produced)
    return taken, moved, atoms


def _fire_spec(np: NestedNet, m: NpMarking, spec: _Spec) -> NpMarking:
    """``m`` moved by the delta of ``spec`` (see ``_spec_delta``)."""
    delta = _spec_delta(np, m, spec)
    try:
        return m._moved(*delta)
    except RosterError as exc:  # a net token put twice (unvalidated models only)
        raise NotEnabledError(spec[0], detail=str(exc)) from exc


def apply_step(np: NestedNet, m: NpMarking, step: Step) -> NpMarking:
    """Apply one step, raising NotEnabledError when it is not enabled.

    Element-autonomous steps advance one inner marking in place; system
    steps move net tokens with unchanged inner markings; synchronization
    steps fire the inner transitions first and then move the updated tokens.
    """
    return _fire_spec(np, m, _spec_of(np, step))


def is_run_np(np: NestedNet, steps: Sequence[Step]) -> bool:
    """Whether the steps fire in sequence from the initial marking and end in
    a declared final marking."""
    m = np.initial_marking
    for step in steps:
        try:
            m = apply_step(np, m, step)
        except NotEnabledError:
            return False
    return m in np.final_markings
