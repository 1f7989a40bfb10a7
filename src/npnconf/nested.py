"""Nested Petri nets: a colored system net whose tokens are marked workflow
nets (net tokens) or atomic data values, plus the three step kinds.

The system net's net places are typed by sets of element-net names and hold
distinguishable net tokens; atom places are typed by data domains and hold
value multisets. Conservative nets never clone or destroy net tokens, so the
set of agents is stable along every run.
"""

from __future__ import annotations

import itertools
from bisect import bisect_left, insort
from collections.abc import Mapping
from dataclasses import dataclass
from functools import cached_property
from operator import attrgetter
from typing import (Dict, FrozenSet, Hashable, Iterable, Iterator, List,
                    Optional, Sequence, Tuple, Union)

from .colored import ArcExpr, Binding, Domain, Var, _assign_values
from .multiset import Multiset, MultisetUnderflow, sort_key
from .nets import Marking, NotEnabledError, PetriNet, WorkflowNet, validate_workflow_net


class RosterError(ValueError):
    """An agent name is not part of the model's roster (or marking)."""


@dataclass(frozen=True)
class NetToken:
    """A net token: an agent name together with its current inner marking."""

    agent: str
    inner: Marking


_HASH_MASK = (1 << 64) - 1


def _token_hash(place: str, token: NetToken) -> int:
    return hash((place, token.agent, token.inner))


_agent_of = attrgetter("agent")


def _duplicate_agent(agent: str) -> RosterError:
    return RosterError(f"agent {agent!r} occurs more than once in marking")


@dataclass(frozen=True)
class NpMarking:
    """A system-net marking: net tokens on net places, values on atom places.

    Net tokens are distinguishable; each agent name occurs at most once in
    the whole marking. Empty places are dropped, entries are kept sorted, so
    equal markings compare and hash equal.

    Each marking also keeps an index from agent name to (place, token) and
    its hash: the atoms' hash plus one term per net token. A step that moves
    or changes a few tokens updates both in time proportional to those
    tokens instead of rebuilding the marking.
    """

    net_tokens: Tuple[Tuple[str, Tuple[NetToken, ...]], ...]
    atoms: Tuple[Tuple[str, Multiset], ...]

    def __init__(self,
                 net_tokens: Mapping[str, Iterable[NetToken]] = (),
                 atoms: Mapping[str, Multiset | Iterable[Hashable]] = ()):
        nt_pairs = net_tokens.items() if isinstance(net_tokens, Mapping) else net_tokens
        cleaned_nt = []
        index: Dict[str, Tuple[str, NetToken]] = {}
        for place, tokens in nt_pairs:
            toks = tuple(sorted(tokens, key=_agent_of))
            for tk in toks:
                if tk.agent in index:
                    raise _duplicate_agent(tk.agent)
                index[tk.agent] = (place, tk)
            if toks:
                cleaned_nt.append((place, toks))
        cleaned_nt.sort(key=lambda e: e[0])
        atom_pairs = atoms.items() if isinstance(atoms, Mapping) else atoms
        cleaned_at = []
        for place, values in atom_pairs:
            ms = values if isinstance(values, Multiset) else Multiset(values)
            if ms:
                cleaned_at.append((place, ms))
        cleaned_at.sort(key=lambda e: e[0])
        atoms_t = tuple(cleaned_at)
        h = hash(atoms_t) + sum(_token_hash(p, tk) for p, tk in index.values())
        self._set(tuple(cleaned_nt), atoms_t, index, h)

    def _set(self, net_tokens, atoms, index: Dict[str, Tuple[str, NetToken]],
             h: int) -> "NpMarking":
        object.__setattr__(self, "net_tokens", net_tokens)
        object.__setattr__(self, "atoms", atoms)
        object.__setattr__(self, "_index", index)
        object.__setattr__(self, "_hash", h & _HASH_MASK)
        return self

    def __hash__(self) -> int:
        return self._hash

    def __reduce__(self):
        # rebuilt on load, so the hash is computed in the loading process
        return (NpMarking, (self.net_tokens, self.atoms))

    def tokens_at(self, place: str) -> Tuple[NetToken, ...]:
        for p, toks in self.net_tokens:
            if p == place:
                return toks
        return ()

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

    def replace_token(self, place: str, old: NetToken, new: NetToken) -> "NpMarking":
        """The marking with ``old``, a token in ``place``, swapped for
        ``new``, a token of the same agent."""
        if new.agent != old.agent or self._index.get(old.agent) != (place, old):
            raise ValueError(f"cannot replace {old!r} in {place!r} by {new!r}")
        entries = list(self.net_tokens)
        i = next(k for k, (p, _) in enumerate(entries) if p == place)
        toks = entries[i][1]
        j = bisect_left(toks, old.agent, key=_agent_of)
        entries[i] = (place, toks[:j] + (new,) + toks[j + 1:])
        index = dict(self._index)
        index[new.agent] = (place, new)
        h = self._hash - _token_hash(place, old) + _token_hash(place, new)
        return object.__new__(NpMarking)._set(tuple(entries), self.atoms, index, h)

    def _moved(self, taken: Mapping[str, Sequence[NetToken]],
               put: Mapping[str, Sequence[NetToken]],
               atoms: Optional[Mapping[str, Multiset]] = None) -> "NpMarking":
        """The marking with the ``taken`` net tokens, which must reside in
        their places, removed, the ``put`` ones added and, when given,
        ``atoms`` as the new atom places. Only the touched places are
        rebuilt."""
        index = dict(self._index)
        h = self._hash
        for place, toks in taken.items():
            for tk in toks:
                del index[tk.agent]
                h -= _token_hash(place, tk)
        for place, toks in put.items():
            for tk in toks:
                if tk.agent in index:
                    raise _duplicate_agent(tk.agent)
                index[tk.agent] = (place, tk)
                h += _token_hash(place, tk)
        places = dict(self.net_tokens)
        for place in taken.keys() | put.keys():
            toks = list(places.get(place, ()))
            for tk in taken.get(place, ()):
                del toks[bisect_left(toks, tk.agent, key=_agent_of)]
            for tk in put.get(place, ()):
                insort(toks, tk, key=_agent_of)
            if toks:
                places[place] = tuple(toks)
            else:
                places.pop(place, None)
        new_atoms = self.atoms
        if atoms is not None:
            new_atoms = tuple(sorted(((p, ms) for p, ms in atoms.items() if ms),
                                     key=lambda e: e[0]))
            h += hash(new_atoms) - hash(self.atoms)
        return object.__new__(NpMarking)._set(
            tuple(sorted(places.items(), key=lambda e: e[0])), new_atoms, index, h)


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
        return self._table.transitions[t].variables

    def net_variables(self, t: str) -> Tuple[str, ...]:
        return self._table.transitions[t].net_vars

    def data_variables(self, t: str) -> Tuple[str, ...]:
        return self._table.transitions[t].data_vars


_Arc = Tuple[str, bool, ArcExpr]  # (place, is a net place, expression)


@dataclass(frozen=True)
class _TransitionTable:
    """What step enumeration needs to know about one system transition."""

    variables: Tuple[str, ...]  # distinct, sorted
    net_vars: Tuple[str, ...]
    data_vars: Tuple[str, ...]
    inputs: Tuple[_Arc, ...]  # sorted by place
    outputs: Tuple[_Arc, ...]
    sources: Mapping[str, Tuple[str, ...]]  # net variable -> input places reading it


def _compile(np: NestedNet, t: str) -> _TransitionTable:
    def arcs(pairs) -> Tuple[_Arc, ...]:
        return tuple((p, p in np.net_place_type, np.arc_expr[key])
                     for p, key in sorted(pairs))

    inputs = arcs((p, (p, t)) for p in np.system.preset(t))
    outputs = arcs((p, (t, p)) for p in np.system.postset(t))
    variables = tuple(sorted({v for _, _, e in inputs + outputs for v in e.variables()}))
    sources: Dict[str, Tuple[str, ...]] = {}
    for p, _, expr in inputs:
        for v in dict.fromkeys(expr.variables()):
            if np.is_net_var(v):
                sources[v] = sources.get(v, ()) + (p,)
    return _TransitionTable(
        variables=variables,
        net_vars=tuple(v for v in variables if np.is_net_var(v)),
        data_vars=tuple(v for v in variables if not np.is_net_var(v)),
        inputs=inputs, outputs=outputs, sources=sources)


class _NetTable:
    """Per-model tables of the system net, built on first use. The label
    index lists, in sorted order, the system transitions of each (activity,
    has a sync label). Element nets keep their own (``WorkflowNet._table``).
    """

    def __init__(self, np: NestedNet):
        self.system_order = tuple(sorted(np.system.transitions))
        self.domain_order = {name: d.sorted_values() for name, d in np.domains.items()}
        self.transitions = {t: _compile(np, t) for t in self.system_order}
        system_by_label: Dict[Tuple[str, bool], List[str]] = {}
        for t in self.system_order:
            key = (np.system_activity.get(t), np.system_sync.get(t) is not None)
            system_by_label.setdefault(key, []).append(t)
        self.system_by_label = {key: tuple(ts) for key, ts in system_by_label.items()}


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
            if len(set(variables)) != len(variables):
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


def _demand(expr: ArcExpr, values: Mapping[str, Hashable]) -> List[Hashable]:
    """The values an arc expression evaluates to, one per term."""
    return [values[term.name] if isinstance(term, Var) else term.value
            for term in expr.terms]


def _well_typed(np: NestedNet, t: str, values: Mapping[str, Hashable]) -> bool:
    for v in np.transition_variables(t):
        if v not in values:
            return False
        value = values[v]
        if np.is_net_var(v):
            if not isinstance(value, NetToken):
                return False
            if np.agents.get(value.agent) != np.var_type[v]:
                return False
        else:
            dom = np.domains.get(np.var_type[v])
            if dom is None or value not in dom.values:
                return False
    return True


def _demand_met(inputs: Sequence[_Arc], m: NpMarking,
                values: Mapping[str, Hashable]) -> bool:
    """Whether every input arc's demand is present. Agents are unique in a
    marking, so a net token is available iff it is demanded at most once and
    resides in the place. A constant on a net-place arc (only an unvalidated
    model has one) is never available."""
    for place, is_net, expr in inputs:
        demand = _demand(expr, values)
        if is_net:
            if any(not isinstance(tk, NetToken) or m.locate(tk.agent) != (place, tk)
                   for tk in demand) or (
                    len(demand) > 1 and len(set(demand)) < len(demand)):
                return False
        elif not Multiset(demand) <= m.atoms_at(place):
            return False
    return True


def _payload_assignments(np: NestedNet, t: str, names: Iterable[str],
                         data: Multiset) -> Iterator[Tuple[Binding, Binding]]:
    """The ways an event's payload binds the variables of ``t``: each agent
    name to a net variable of its class and each tagged data value to a data
    variable of its domain, every one exactly once. Yields (net variables to
    names, data variables to untagged values), in canonical payload order."""
    def name_fits(var: str, r: str) -> bool:
        return np.agents.get(r) == np.var_type[var]

    def data_fits(var: str, item: Tuple[str, Hashable]) -> bool:
        dom, value = item
        return dom == np.var_type[var] and value in np.domains[dom].values

    # an event names distinct agents, and ordering strings by repr is their
    # canonical order (``sort_key``) without building a key per name
    pool = [(r, 1) for r in sorted(names, key=repr)]
    for nb in _assign_values(np.net_variables(t), pool, name_fits):
        for db in _assign_values(np.data_variables(t), data.items(), data_fits):
            yield nb, Binding(tuple((v, item[1]) for v, item in db.items))


def _agent_order(token: NetToken) -> str:
    # Agents are unique in a marking and no string literal is a prefix of
    # another, so ordering net tokens by their agent's repr equals ordering
    # them by ``sort_key`` (the whole token's repr) at a fraction of the cost.
    return repr(token.agent)


def _pools(np: NestedNet, m: NpMarking, t: str, label: Optional[str] = None,
           offered: Optional[Dict[str, Tuple[str, ...]]] = None
           ) -> List[Sequence[Hashable]]:
    """Per variable of ``t``, the values it ranges over: the net tokens of
    its class in the input places its arcs read from, or its data domain.
    Given a sync ``label``, only tokens whose inner marking enables a
    transition of that label stay; ``offered`` receives those transitions."""
    table = np._table
    tt = table.transitions[t]
    pools: List[Sequence[Hashable]] = []
    for v in tt.variables:
        if not np.is_net_var(v):
            pools.append(table.domain_order[np.var_type[v]])
            continue
        cls = np.var_type[v]
        enabled = np.elements[cls]._table.enabled
        pool = []
        for p in tt.sources.get(v, ()):
            for tk in m.tokens_at(p):
                if np.agents.get(tk.agent) != cls:
                    continue
                if label is not None:
                    cands = enabled(tk.inner, label)
                    if not cands:
                        continue
                    offered[tk.agent] = cands
                pool.append(tk)
        pools.append(sorted(pool, key=_agent_order))
    return pools


def _enabling_values(np: NestedNet, m: NpMarking, t: str,
                     pools: Sequence[Sequence[Hashable]]) -> Iterator[Tuple[Hashable, ...]]:
    """The combinations of ``pools``, in product order, whose demand is met.
    Pools are well-typed by construction, so only demand is checked."""
    tt = np._table.transitions[t]
    for values in itertools.product(*pools):
        if _demand_met(tt.inputs, m, dict(zip(tt.variables, values))):
            yield values


def system_bindings(np: NestedNet, m: NpMarking, t: str) -> List[Binding]:
    """Enabling bindings of a system transition in an NP-net marking.

    Net variables range over the net tokens residing in the input places
    their arcs read from; data variables range over their full domains.
    """
    variables = np._table.transitions[t].variables
    return [Binding(zip(variables, values))
            for values in _enabling_values(np, m, t, _pools(np, m, t))]


def involved_tokens(np: NestedNet, t: str, b: Binding) -> Tuple[NetToken, ...]:
    """Net tokens bound to variables occurring in input arc expressions."""
    values = b.as_dict()
    toks = {values[v] for v in np._table.transitions[t].sources if v in values}
    return tuple(sorted(toks, key=_agent_order))


# A step before it is built: (agent, inner transition) for an element step,
# (transition, values) for a system step and (transition, values,
# participants) for a sync step, values in the order of its variables.
_Spec = Tuple


def _step_specs(np: NestedNet, m: NpMarking) -> List[_Spec]:
    """The enabled steps of ``m`` as specs, in ``enabled_steps`` order."""
    specs: List[_Spec] = []
    for agent, (_, token) in sorted(m._index.items()):
        w = np.elements.get(np.agents.get(agent))
        if w is not None:
            for ti in w._table.enabled(token.inner):
                specs.append((agent, ti))
    for t in np._table.system_order:
        # Pools hold only tokens read from input places, so every bound token
        # is involved: one without a matching inner transition disables each
        # combination holding it, and dropping it from the pools is exact.
        label = np.system_sync.get(t)
        offered: Dict[str, Tuple[str, ...]] = {}
        for values in _enabling_values(np, m, t, _pools(np, m, t, label, offered)):
            if label is None:
                specs.append((t, values))
                continue
            involved = sorted({v for v in values if isinstance(v, NetToken)},
                              key=_agent_order)
            specs.extend((t, values, participants) for participants in itertools.product(
                *([(tk.agent, ti) for ti in offered[tk.agent]] for tk in involved)))
    return specs


def _build_step(np: NestedNet, spec: _Spec) -> Step:
    if isinstance(spec[1], str):
        return ElementStep(*spec)
    binding = Binding(zip(np._table.transitions[spec[0]].variables, spec[1]))
    if len(spec) == 2:
        return SystemStep(spec[0], binding)
    return SyncStep(spec[0], binding, spec[2])


def enabled_steps(np: NestedNet, m: NpMarking) -> List[Step]:
    """All enabled element-autonomous, system-autonomous, and synchronization
    steps of ``m``, in deterministic order."""
    return [_build_step(np, spec) for spec in _step_specs(np, m)]


def _fire_system(np: NestedNet, m: NpMarking, t: str,
                 values: Mapping[str, Hashable]) -> NpMarking:
    tt = np._table.transitions[t]
    taken: Dict[str, List[NetToken]] = {}
    put: Dict[str, List[NetToken]] = {}
    atoms: Optional[Dict[str, Multiset]] = None
    for p, is_net, expr in tt.inputs:
        demand = _demand(expr, values)
        if is_net:
            gone = taken.setdefault(p, [])
            for tok in demand:
                # a constant on a net-place arc (unvalidated models only) is no token
                if (not isinstance(tok, NetToken) or tok in gone
                        or m.locate(tok.agent) != (p, tok)):
                    raise NotEnabledError(t, [p])
                gone.append(tok)
        else:
            atoms = dict(m.atoms) if atoms is None else atoms
            try:
                atoms[p] = atoms.get(p, Multiset()) - Multiset(demand)
            except MultisetUnderflow as exc:
                raise NotEnabledError(t, [p], str(exc)) from exc
    for p, is_net, expr in tt.outputs:
        produced = _demand(expr, values)
        if is_net:
            put.setdefault(p, []).extend(produced)
        else:
            atoms = dict(m.atoms) if atoms is None else atoms
            atoms[p] = atoms.get(p, Multiset()) + Multiset(produced)
    return m._moved(taken, put, atoms)


def apply_step(np: NestedNet, m: NpMarking, step: Step) -> NpMarking:
    """Apply one step, raising NotEnabledError when it is not enabled.

    Element-autonomous steps advance one inner marking in place; system
    steps move net tokens with unchanged inner markings; synchronization
    steps fire the inner transitions first and then move the updated tokens.
    """
    if isinstance(step, ElementStep):
        located = m.locate(step.agent)
        if located is None:
            raise NotEnabledError(step.transition,
                                  detail=f"agent {step.agent!r} not in marking")
        place, token = located
        table = np.agent_class(step.agent)._table
        if step.transition not in table.enabled(token.inner):
            raise NotEnabledError(step.transition,
                                  detail=f"not an unlabeled transition enabled in {step.agent!r}")
        new_inner = table.fire(token.inner, step.transition)
        return m.replace_token(place, token, NetToken(step.agent, new_inner))

    if isinstance(step, SystemStep):
        t = step.transition
        if t not in np.system.transitions or np.system_sync.get(t) is not None:
            raise NotEnabledError(t, detail="not an unlabeled system transition")
        values = step.binding.as_dict()
        if not _well_typed(np, t, values):
            raise NotEnabledError(t, detail="binding does not enable it")
        return _fire_system(np, m, t, values)

    if isinstance(step, SyncStep):
        t = step.transition
        label = np.system_sync.get(t)
        if t not in np.system.transitions or label is None:
            raise NotEnabledError(t, detail="not a labeled system transition")
        if not _well_typed(np, t, step.binding.as_dict()):
            raise NotEnabledError(t, detail="binding does not enable it")
        involved = involved_tokens(np, t, step.binding)
        by_agent = dict(step.participants)
        if len(by_agent) != len(step.participants):
            raise NotEnabledError(t, detail="duplicate participant agent")
        if set(by_agent) != {tok.agent for tok in involved}:
            raise NotEnabledError(
                t, detail="participants do not match the involved net tokens")
        # stage one: fire the matching-label inner transitions; stage two
        # checks the rest of the demand
        staged = m
        updated: Dict[NetToken, NetToken] = {}
        for token in involved:
            ti = by_agent[token.agent]
            located = staged.locate(token.agent)
            if located is None or located[1] != token:
                raise NotEnabledError(t, detail=f"net token of {token.agent!r} not in marking")
            table = np.agent_class(token.agent)._table
            if ti not in table.enabled(token.inner, label):
                raise NotEnabledError(ti, detail=f"sync label {label!r}, agent {token.agent!r}")
            new_token = NetToken(token.agent, table.fire(token.inner, ti))
            staged = staged.replace_token(located[0], token, new_token)
            updated[token] = new_token
        # stage two: the system transition moves the updated tokens
        return _fire_system(np, staged, t, {v: updated.get(val, val)
                                            for v, val in step.binding.items})

    raise TypeError(f"unknown step type: {step!r}")


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
