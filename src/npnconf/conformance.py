"""Perfect-fitness checking, monolithic and compositional.

Monolithic checking replays each trace directly on the nested net, matching
events to steps positionally. Compositional checking verifies syntactic
correctness, then replays each projected trace on its component (the system
net over agent names, and each agent's element net). The two verdicts are
equivalent for well-labeled models; ``check_both`` runs both and reports any
per-trace disagreement as an internal-consistency failure.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from operator import itemgetter, xor
from typing import (Callable, Dict, Hashable, Iterable, Iterator, List, Mapping, Optional,
                    Sequence, Set, Tuple)

from .colored import Binding, candidate_memo, replay_colored
from .events import (AgentEvent, Event, EventLog, MatchTable, SyntacticReport, SystemEvent,
                     Trace, _table_matches, event_agents, log_syntactically_correct)
from .multiset import Multiset
from .nested import (MONOLITHIC_COMPONENT, SYSTEM_COMPONENT, NestedNet, NotEnabledError,
                     NetToken, NpMarking, RosterError, Step, _build_step, _payload_assignments,
                     _spec_delta, _Spec, _token_hash)
from .nets import (ReplayResult, SearchLimitExceeded, WorkflowNet, is_run_wf,
                   search)
from .projection import (AgentTrace, SystemComponent, SystemTrace, _project_traces,
                         project_system_net)


@dataclass(frozen=True)
class ReplayLimits:
    """Search limits for the fitness oracles.

    ``max_states`` bounds visited (marking, position) states per trace;
    exceeding it yields an inconclusive verdict, never a misfit.
    """

    max_states: int = 1_000_000

    def __post_init__(self):
        if self.max_states <= 0:
            raise ValueError("max_states must be positive")


DEFAULT_LIMITS = ReplayLimits()


@dataclass(frozen=True)
class TraceVerdict:
    """Per-trace, per-component outcome.

    For conclusive verdicts, ``fits`` holds iff ``failure_position`` is
    absent; the position is the longest replayable prefix. A witness (the
    replayed step or firing sequence) is present only when the trace fits.
    """

    fits: bool
    failure_position: Optional[int] = None
    witness: Optional[Tuple] = None
    inconclusive: bool = False


def _verdict(replay: Callable[..., ReplayResult], *args, limits: ReplayLimits,
             witness: Callable[[Tuple], Tuple] = tuple) -> TraceVerdict:
    """Run ``replay(*args, max_states=...)``; exceeding the limit is
    inconclusive. A fitting trace's witness is ``witness`` of the path."""
    try:
        result = replay(*args, max_states=limits.max_states)
    except SearchLimitExceeded:
        return TraceVerdict(False, inconclusive=True)
    if result.ok:
        return TraceVerdict(True, witness=witness(result.witness))
    return TraceVerdict(False, failure_position=result.prefix)


@dataclass(frozen=True)
class TraceResult:
    """All component verdicts for one distinct trace of the log, keeping the
    mapping it is given. ``fits`` and ``inconclusive`` are derived from the
    others once, at construction."""

    trace: Trace
    frequency: int
    components: Mapping[str, TraceVerdict]
    syntactic_ok: Optional[bool]  # None when the mode does not check syntax
    fits: bool = field(init=False, repr=False, compare=False)
    inconclusive: bool = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        fits, inconclusive, failed = True, False, False
        for v in self.components.values():
            if not v.fits:
                fits = False
                failed = failed or not v.inconclusive
            inconclusive = inconclusive or v.inconclusive
        checked = self.syntactic_ok is not False
        object.__setattr__(self, "fits", checked and fits)
        # a conclusive failure anywhere outweighs an inconclusive search
        object.__setattr__(self, "inconclusive", checked and inconclusive and not failed)


@dataclass(frozen=True)
class ConformanceReport:
    """Aggregate verdicts: per-trace results, the fitting-weight fraction,
    and the overall perfect-fitness boolean."""

    mode: str
    results: Tuple[TraceResult, ...]
    syntactic: Optional[SyntacticReport]
    aggregate: float
    overall: bool
    inconclusive: bool
    discrepancies: Tuple[int, ...] = ()

    @property
    def weight(self) -> int:
        return sum(r.frequency for r in self.results)


def _assemble(mode: str, results: List[TraceResult],
              syntactic: Optional[SyntacticReport],
              discrepancies: Tuple[int, ...] = ()) -> ConformanceReport:
    total = sum(r.frequency for r in results)
    fitting = sum(r.frequency for r in results if r.fits)
    aggregate = (fitting / total) if total else 1.0
    overall = all(r.fits for r in results)
    inconclusive = any(r.inconclusive for r in results)
    return ConformanceReport(mode, tuple(results), syntactic, aggregate,
                             overall, inconclusive, discrepancies)


# ----------------------------------------------------------------------
# component fitness


def fits_agent(agent_log: Multiset, w: WorkflowNet,
               limits: ReplayLimits = DEFAULT_LIMITS) -> Dict[AgentTrace, TraceVerdict]:
    """Replay each distinct projected agent trace on the element net
    (synchronization labels play no role in autonomous replay)."""
    return {seq: _agent_trace_verdict(w, seq, limits) for seq in agent_log.distinct()}


def _agent_trace_verdict(w: WorkflowNet, seq: AgentTrace,
                         limits: ReplayLimits) -> TraceVerdict:
    return _verdict(is_run_wf, w, seq, limits=limits)


def fits_system(system_log: Multiset, component: SystemComponent,
                limits: ReplayLimits = DEFAULT_LIMITS) -> Dict[SystemTrace, TraceVerdict]:
    """Replay each distinct projected system trace on the system component;
    each event's payload must match the step binding's values, agents against
    agent-typed variables and data against data-typed variables."""
    def bindings(t: str, event: SystemEvent) -> Iterator[Binding]:
        variables = component.model.transition_variables(t)
        for values in _payload_assignments(component.model, t, event.involved, event.data):
            yield Binding(zip(variables, values))

    candidates = candidate_memo(component.net, bindings)
    return {seq: _verdict(replay_colored, component.net, [(e.activity, e) for e in seq],
                          candidates, limits=limits)
            for seq in system_log.distinct()}


# ----------------------------------------------------------------------
# monolithic replay


# A marking as the monolithic replay holds it: per agent of its state table,
# the id of the agent's located net token, then the id of the atoms.
_State = Tuple[int, ...]
# An event's matches and local-state key; a kept move's (slot, new id) pairs.
_Found = Tuple[Tuple[_Spec, ...], Callable[[_State], Tuple[int, ...]]]
_Update = Tuple[Tuple[int, int], ...]


class _StateTable:
    """One check's interned markings. Each located net token (place, net
    token), None (an agent the marking lacks) and atoms tuple gets a small
    int id, and a marking is its state: one slot per agent of the initial
    marking and the roster, in name order, then the atoms'. No step brings
    in an agent, and only roster agents have matches, so the slots cover
    every marking the replay reaches."""

    def __init__(self, np: NestedNet):
        self.np = np
        self.agents = tuple(sorted(np.initial_marking.agent_names() | set(np._table.roster)))
        self.slot = {r: i for i, r in enumerate(self.agents)}
        self.values: List[Hashable] = []
        self.terms: List[int] = []  # per id, its term of a marking's hash
        self.ids: Dict[Hashable, int] = {}
        self.initial = self.state(np.initial_marking)
        # a final marking holding an agent with no slot is never reached
        self.finals = {self.state(mf) for mf in np.final_markings
                       if mf.agent_names() <= self.slot.keys()}

    def intern(self, value: Hashable, term: Callable[..., int] = hash) -> int:
        found = self.ids.get(value)
        if found is None:
            found = self.ids[value] = len(self.values)
            self.values.append(value)
            self.terms.append(term(value))
        return found

    def located(self, located: Optional[Tuple[str, NetToken]]) -> int:
        return self.intern(located, lambda l: 0 if l is None else _token_hash(*l))

    def state(self, m: NpMarking) -> _State:
        return (*map(self.located, map(m.locate, self.agents)), self.intern(m.atoms))

    def marking(self, s: _State) -> NpMarking:
        """The marking of ``s``, hashed as ``NpMarking`` hashes it."""
        index = {}
        for i in s[:-1]:
            located = self.values[i]
            if located is not None:
                index[located[1].agent] = located
        h = functools.reduce(xor, map(self.terms.__getitem__, s))
        return object.__new__(NpMarking)._set(index, self.values[s[-1]], h)

    def key_of(self, event: Event) -> Callable[[_State], Tuple[int, ...]]:
        """An event's local state: its agents' slots and the atoms'."""
        return itemgetter(*(self.slot[r] for r in event_agents(event) if r in self.slot),
                          len(self.agents))


def _updated(s: _State, update: _Update) -> _State:
    moved = list(s)
    for i, v in update:
        moved[i] = v
    return tuple(moved)


def _moves(table: _StateTable, s: _State, event: Event, found: _Found,
           local: Dict[Tuple[int, ...], Tuple[Tuple[_Spec, _Update], ...]]
           ) -> Iterator[Tuple[_Spec, _State]]:
    """The moves of state ``s`` that record ``event``, labelled by their
    step specs: its matches whose delta (``_spec_delta``) moves the marking
    of ``s``, in match order, a system or sync match with its agent names
    swapped for their net tokens there. A match reads only the event's
    agents' located tokens (every net variable binds one; a token put twice
    depends on the spec alone) and the atoms, so ``local`` keeps the moves
    by that local state as slot updates: the first state in it builds its
    marking and evaluates every match, later ones none."""
    matches, key_of = found
    key = key_of(s)
    kept = local.get(key)
    if kept is None:
        kept = local[key] = tuple(_kept_moves(table, table.marking(s), event, matches))
    return ((spec, _updated(s, update)) for spec, update in kept)


def _kept_moves(table: _StateTable, m: NpMarking, event: Event,
                matches: Sequence[_Spec]) -> Iterator[Tuple[_Spec, _Update]]:
    np, tokens = table.np, {}
    if not isinstance(event, AgentEvent):
        for r in event_agents(event):
            located = m.locate(r)
            if located is None:
                return
            tokens[r] = located[1]
    positions = np._table.net_positions
    for spec in matches:
        if tokens:
            values = list(spec[1])
            for i in positions[spec[0]]:
                values[i] = tokens[values[i]]
            spec = (spec[0], tuple(values), *spec[2:])
        try:
            taken, put, atoms = _spec_delta(np, m, spec)
            m2 = m._moved(taken, put, atoms)
        except (NotEnabledError, RosterError):  # RosterError: a token put twice
            continue
        agents = dict.fromkeys(tk.agent for toks in (*taken.values(), *put.values())
                               for tk in toks)
        update = [(table.slot[r], table.located(m2.locate(r))) for r in agents]
        if atoms is not None:
            update.append((len(table.agents), table.intern(m2.atoms)))
        yield spec, tuple(update)


# One check's successor memo, keyed by event: the event's matches and key,
# the hashes of states seen once with it, the moves built for states seen
# twice and its moves by local state (see ``_moves``).
SuccessorMemo = Dict[Event, Tuple[_Found, Set[int],
                                  Dict[_State, Tuple[Tuple[_Spec, _State], ...]], Dict]]


def _monolithic_trace_verdict(table: _StateTable, trace: Trace, limits: ReplayLimits,
                              matches: MatchTable, memo: SuccessorMemo,
                              build: Callable[[_Spec], Step]) -> TraceVerdict:
    """Search for a step sequence from the initial marking to a final
    marking where step i matches event i, over the states of ``table``.
    The check's match table is filled as the search reaches events, and
    ``build`` turns a fitting trace's specs into its witness steps.

    The moves of a (state, event) pair do not depend on the trace, so the
    check memoises them in ``memo``. A pair seen for the first time gets its
    moves built one at a time as the search tries them; from its second
    sight on, the replay builds all its moves at once and keeps them. Only
    repeated pairs are kept, so a log whose traces share nothing holds no
    states alive. Failed states stay per trace, so exploration order,
    visited counts, failure positions and witnesses are those of a replay
    of the trace alone."""
    np, events = table.np, trace.events

    def successors(s: _State, pos: int) -> Iterable[Tuple[_Spec, _State]]:
        event = events[pos]
        entry = memo.get(event)
        if entry is None:
            entry = memo[event] = ((_table_matches(event, np, matches), table.key_of(event)),
                                   set(), {}, {})
        found, seen, built, local = entry
        h = hash(s)
        if h not in seen:
            seen.add(h)
            return _moves(table, s, event, found, local)
        moves = built.get(s)
        if moves is None:
            moves = built[s] = tuple(_moves(table, s, event, found, local))
        return moves

    return _verdict(search, table.initial, len(events), successors,
                    table.finals.__contains__, limits=limits,
                    witness=lambda path: tuple(map(build, path)))


# ----------------------------------------------------------------------
# the three checkers


def _refuse_agents(np: NestedNet, *components: str) -> None:
    """Unvalidated models only: an agent's verdict would replace a component's."""
    for name in components:
        if name in np.agents:
            raise RosterError(f"agent {name!r} takes the name of a report component")


def check_monolithic(log: EventLog, np: NestedNet, limits: ReplayLimits = DEFAULT_LIMITS,
                     matches: Optional[MatchTable] = None) -> ConformanceReport:
    """Direct replay of every trace on the nested net. ``matches`` is the
    call's match table when a caller shares one; the call's state table
    (``_StateTable``), successor memo (see ``_monolithic_trace_verdict``)
    and witness steps, one per distinct spec, live only as long as the
    call."""
    matches = {} if matches is None else matches
    table, memo = _StateTable(np), {}
    build = functools.cache(functools.partial(_build_step, np))
    results = []
    for trace, freq in log.items():
        verdict = _monolithic_trace_verdict(table, trace, limits, matches, memo, build)
        results.append(TraceResult(trace, freq, {MONOLITHIC_COMPONENT: verdict}, None))
    return _assemble("monolithic", results, None)


def check_compositional(log: EventLog, np: NestedNet, limits: ReplayLimits = DEFAULT_LIMITS,
                        matches: Optional[MatchTable] = None) -> ConformanceReport:
    """Syntactic correctness plus per-component fitness of every projection.

    Each trace's verdict aggregates the system component and every roster
    agent; failures are attributed to the component that rejected them.
    Events naming agents outside the roster surface as syntactic failures.
    ``matches`` is the syntactic check's match table when a caller shares one.
    Each component replays each of its distinct projected traces once. An
    agent named after the system component raises RosterError.
    """
    _refuse_agents(np, SYSTEM_COMPONENT)
    syntactic = log_syntactically_correct(log, np, matches)
    failing = syntactic.failing_traces()
    projections = _project_traces(log, sorted(np.agents))
    system = fits_system(Multiset({st for _, _, st, _ in projections}), project_system_net(np),
                         limits)
    # an agent's verdict depends on its class, not on the agent
    by_class: Dict[str, Set[AgentTrace]] = {}
    for _, _, _, ats in projections:
        for r, at in ats.items():
            by_class.setdefault(np.agents[r], set()).add(at)
    agent = {cls: fits_agent(Multiset(ats), np.elements[cls], limits)
             for cls, ats in by_class.items()}
    results = []
    for ti, (trace, freq, st, ats) in enumerate(projections):
        verdicts = {SYSTEM_COMPONENT: system[st]}
        for r, at in ats.items():
            verdicts[r] = agent[np.agents[r]][at]
        results.append(TraceResult(trace, freq, verdicts, ti not in failing))
    return _assemble("compositional", results, syntactic)


def check_both(log: EventLog, np: NestedNet,
               limits: ReplayLimits = DEFAULT_LIMITS) -> ConformanceReport:
    """Run both checkers and compare per-trace verdicts; any disagreement on
    conclusive traces is reported as an internal-consistency failure. On a
    model that ``nested.check_agreement`` passes it would falsify the
    implementation, not the underlying equivalence. Both halves read one
    match table. An agent named after a report component raises RosterError."""
    _refuse_agents(np, MONOLITHIC_COMPONENT, SYSTEM_COMPONENT)
    matches: MatchTable = {}
    mono = check_monolithic(log, np, limits, matches)
    comp = check_compositional(log, np, limits, matches)
    results = []
    discrepancies = []
    for ti, (mr, cr) in enumerate(zip(mono.results, comp.results)):
        merged = TraceResult(mr.trace, mr.frequency, {**mr.components, **cr.components},
                             cr.syntactic_ok)
        results.append(merged)
        if not mr.inconclusive and not cr.inconclusive and mr.fits != cr.fits:
            discrepancies.append(ti)
    return _assemble("both", results, comp.syntactic, tuple(discrepancies))
