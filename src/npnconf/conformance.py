"""Perfect-fitness checking, monolithic and compositional.

Monolithic checking replays each trace directly on the nested net, matching
events to steps positionally. Compositional checking verifies syntactic
correctness, then replays each projected trace on its component (the system
net over agent names, and each agent's element net). The two verdicts are
equivalent for well-labeled models; ``check_both`` runs both and reports any
per-trace disagreement as an internal-consistency failure.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import (Callable, Dict, Hashable, Iterable, Iterator, List, Mapping,
                    Optional, Sequence, Set, Tuple, Union)

from .colored import (Binding, Candidates, ColoredNet, Var, candidate_memo,
                      replay_colored)
from .events import (AgentEvent, Event, EventLog, Match, MatchTable, SyncEvent,
                     SyntacticReport, SystemEvent, Trace, _table_matches, event_agents,
                     log_syntactically_correct)
from .multiset import Multiset
from .nested import (ElementStep, NestedNet, NetToken, NotEnabledError, NpMarking, Step,
                     SyncStep, SystemStep, _fire_element, _fire_system,
                     _payload_assignments)
from .nets import (ReplayResult, SearchLimitExceeded, WorkflowNet, is_run_wf,
                   search)
from .projection import (AgentTrace, SystemComponent, SystemTrace, project_system_net,
                         project_trace_agents, project_trace_system)

MONOLITHIC_COMPONENT = "model"
SYSTEM_COMPONENT = "SN"


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
    """All component verdicts for one distinct trace of the log. ``fits``
    and ``inconclusive`` are derived from the others once, at construction."""

    trace: Trace
    frequency: int
    components: Mapping[str, TraceVerdict]
    syntactic_ok: Optional[bool]  # None when the mode does not check syntax
    fits: bool = field(init=False, repr=False, compare=False)
    inconclusive: bool = field(init=False, repr=False, compare=False)

    def __init__(self, trace, frequency, components, syntactic_ok):
        components = dict(components)
        verdicts = components.values()
        fits = syntactic_ok is not False and all(v.fits for v in verdicts)
        # a conclusive failure anywhere outweighs an inconclusive search
        inconclusive = (syntactic_ok is not False
                        and not any(not v.fits and not v.inconclusive for v in verdicts)
                        and any(v.inconclusive for v in verdicts))
        object.__setattr__(self, "trace", trace)
        object.__setattr__(self, "frequency", frequency)
        object.__setattr__(self, "components", components)
        object.__setattr__(self, "syntactic_ok", syntactic_ok)
        object.__setattr__(self, "fits", fits)
        object.__setattr__(self, "inconclusive", inconclusive)


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
    verdicts: Dict[AgentTrace, TraceVerdict] = {}
    for seq, _ in agent_log.items():
        verdicts[seq] = _agent_trace_verdict(w, seq, limits)
    return verdicts


def _agent_trace_verdict(w: WorkflowNet, seq: AgentTrace,
                         limits: ReplayLimits) -> TraceVerdict:
    return _verdict(is_run_wf, w, seq, limits=limits)


def fits_system(system_log: Multiset, component: SystemComponent,
                limits: ReplayLimits = DEFAULT_LIMITS) -> Dict[SystemTrace, TraceVerdict]:
    """Replay each distinct projected system trace on the system component;
    each event's payload must match the step binding's values, agents against
    agent-typed variables and data against data-typed variables."""
    candidates = _system_candidates(component)
    verdicts: Dict[SystemTrace, TraceVerdict] = {}
    for seq, _ in system_log.items():
        verdicts[seq] = _system_trace_verdict(component.net, seq, candidates, limits)
    return verdicts


def _system_candidates(component: SystemComponent) -> Candidates:
    """A memo, for one check, of the bindings matching a projected event:
    agent variables take its agent names, data variables its data values."""
    def bindings(t: str, event: SystemEvent) -> Iterator[Binding]:
        for nb, db in _payload_assignments(component.model, t, event.involved, event.data):
            yield Binding(nb.items + db.items)

    return candidate_memo(component.net, bindings)


def _system_trace_verdict(cn: ColoredNet, seq: SystemTrace, candidates: Candidates,
                          limits: ReplayLimits) -> TraceVerdict:
    return _verdict(replay_colored, cn, [(e.activity, e) for e in seq], candidates,
                    limits=limits)


# ----------------------------------------------------------------------
# monolithic replay


# A match compiled for firing, once per check: for an agent event its element
# step; for a system or sync event (transition, net variables to agent names,
# data binding, input arcs, output arcs (see ``_compiled_arcs``), sync label,
# per participant (agent, inner transitions, its class's table) or None).
Plan = Union[ElementStep, Tuple]


def _compiled_arcs(np: NestedNet, t: str, names: Mapping[str, str],
                   data: Mapping[str, Hashable]) -> Optional[Tuple[Tuple, Tuple]]:
    """The input and the output arcs of ``t`` under a match, in place order:
    per arc (place, is a net place, its fixed values, the agents whose net
    tokens it carries). None when a net-place arc has a fixed value."""
    table, sides = np._table.system, ([], [])
    for side, arcs in zip(sides, (table.inputs[t], table.outputs[t])):
        for p, is_net, expr in arcs:
            fixed = [data[x.name] if isinstance(x, Var) else x.value
                     for x in expr.terms if getattr(x, "name", None) not in names]
            if is_net and fixed:
                return None
            agents = tuple(names[v] for v in expr.variables() if v in names)
            side.append((p, is_net, fixed if is_net else Multiset(fixed), agents))
    return sides


def _pinned(arcs: Tuple, tokens: Mapping[str, NetToken],
            updated: Mapping[str, NetToken]) -> List:
    """Compiled arcs resolved where the agents hold ``tokens``: the agents'
    tokens join the fixed values, on net places as ``updated`` maps them."""
    return [(p, True, [updated[r] for r in agents]) if is_net else
            (p, False, fixed + Multiset([tokens[r] for r in agents]) if agents else fixed)
            for p, is_net, fixed, agents in arcs]


def _plan(np: NestedNet, event: Event, match: Match) -> Optional[Plan]:
    """``match`` compiled for firing, or None when ``apply_step`` would refuse
    it on every marking: a value that is no net token on a net-place arc, or
    sync participants other than the agents it takes. An agent taken twice
    is refused at each firing (``_fire_system``). A match is well typed by
    construction (``_payload_assignments``)."""
    if isinstance(match, str):
        return ElementStep(event.agent, match)
    t, nb, db, inner = match
    names = dict(nb.items)
    arcs = _compiled_arcs(np, t, names, dict(db.items))
    if arcs is None:
        return None
    parts = None
    if isinstance(event, SyncEvent):
        parts = tuple((r, tis, np.elements[np.agents[r]]._table)
                      for (_, r), tis in zip(event.participants, inner))
        if {r for r, _, _ in parts} != {names[v] for v in np._table.sources[t]}:
            return None
    return (t, nb, db, *arcs, np.system_sync.get(t), parts)


# A move's label: an element step, or [plan, the event's agents to their net
# tokens, the inner transitions a sync step fires], to which ``_step`` appends
# the Step on first use, so a memoised move builds it once per check.
Label = Union[ElementStep, List]


def _step(label: Label) -> Step:
    if isinstance(label, ElementStep):
        return label
    if len(label) == 3:
        (t, nb, db, _, _, _, parts), tokens, combo = label
        b = Binding(tuple((v, tokens[r]) for v, r in nb.items) + db.items)
        label.append(SystemStep(t, b) if parts is None else
                     SyncStep(t, b, zip([r for r, _, _ in parts], combo)))
    return label[3]


def _plan_moves(np: NestedNet, m: NpMarking, event: Event,
                plans: Sequence[Plan]) -> Iterator[Tuple[Label, NpMarking]]:
    """The moves of ``m`` that record ``event``: its plans pinned to ``m``,
    in match order, a sync plan once per combination of its participants'
    inner transitions enabled in ``m``."""
    if not plans:
        return
    if isinstance(event, AgentEvent):
        located = m.locate(event.agent)
        if located is None:
            return
        place, token = located
        table = np.agent_class(event.agent)._table
        enabled = table.enabled(token.inner)
        for step in plans:
            if step.transition in enabled:
                yield step, _fire_element(m, place, token, table, step.transition)
        return
    located = {r: m.locate(r) for r in event_agents(event)}
    if None in located.values():
        return
    tokens = {r: tk for r, (_, tk) in located.items()}
    for plan in plans:
        t, _, _, take, put, label, parts = plan
        combos: Iterable = (None,)
        if parts is not None:
            offered = [(tis, table.enabled(tokens[r].inner, label)) for r, tis, table in parts]
            combos = itertools.product(*([ti for ti in tis if ti in enabled]
                                         for tis, enabled in offered))
        for combo in combos:
            updated = tokens if combo is None else {**tokens, **{
                r: NetToken(r, table.fire(tokens[r].inner, ti))
                for (r, _, table), ti in zip(parts, combo)}}
            try:
                m2 = _fire_system(m, t, _pinned(take, tokens, tokens),
                                  _pinned(put, tokens, updated))
            except NotEnabledError:
                continue
            yield [plan, tokens, combo], m2


# One check's successor memo, keyed by event: the event's plans, the hashes of
# markings seen once with it, and the moves built for markings seen twice.
SuccessorMemo = Dict[Event, Tuple[Tuple[Plan, ...], Set[int],
                                  Dict[NpMarking, Tuple[Tuple[Label, NpMarking], ...]]]]


def _monolithic_trace_verdict(np: NestedNet, trace: Trace, limits: ReplayLimits,
                              matches: MatchTable, memo: SuccessorMemo) -> TraceVerdict:
    """Search for a step sequence from the initial marking to a final
    marking where step i matches event i. The check's match table is
    filled as the search reaches events.

    The moves of a (marking, event) pair do not depend on the trace, so the
    check memoises them in ``memo``. A pair seen for the first time gets its
    moves built one at a time as the search tries them; from its second
    sight on, the replay builds all its moves at once and keeps them. Only
    repeated pairs are kept, so a log whose traces share nothing holds no
    markings alive. Failed states stay per trace, so exploration order,
    visited counts, failure positions and witnesses are those of a replay
    of the trace alone."""
    events = trace.events

    def successors(m: NpMarking, pos: int) -> Iterable[Tuple[Label, NpMarking]]:
        event = events[pos]
        entry = memo.get(event)
        if entry is None:
            plans = (_plan(np, event, match) for match in _table_matches(event, np, matches))
            entry = memo[event] = (tuple(p for p in plans if p is not None), set(), {})
        plans, seen, built = entry
        h = hash(m)
        if h not in seen:
            seen.add(h)
            return _plan_moves(np, m, event, plans)
        moves = built.get(m)
        if moves is None:
            moves = built[m] = tuple(_plan_moves(np, m, event, plans))
        return moves

    return _verdict(search, np.initial_marking, len(events), successors,
                    np.final_markings.__contains__, limits=limits,
                    witness=lambda path: tuple(map(_step, path)))


# ----------------------------------------------------------------------
# the three checkers


def check_monolithic(log: EventLog, np: NestedNet, limits: ReplayLimits = DEFAULT_LIMITS,
                     matches: Optional[MatchTable] = None) -> ConformanceReport:
    """Direct replay of every trace on the nested net. ``matches`` is the
    call's match table when a caller shares one; the call's successor memo
    (see ``_monolithic_trace_verdict``) lives only as long as the call."""
    matches = {} if matches is None else matches
    memo: SuccessorMemo = {}
    results = []
    for trace, freq in log.items():
        verdict = _monolithic_trace_verdict(np, trace, limits, matches, memo)
        results.append(TraceResult(trace, freq, {MONOLITHIC_COMPONENT: verdict}, None))
    return _assemble("monolithic", results, None)


def check_compositional(log: EventLog, np: NestedNet, limits: ReplayLimits = DEFAULT_LIMITS,
                        matches: Optional[MatchTable] = None) -> ConformanceReport:
    """Syntactic correctness plus per-component fitness of every projection.

    Each trace's verdict aggregates the system component and every roster
    agent; failures are attributed to the component that rejected them.
    Events naming agents outside the roster surface as syntactic failures.
    ``matches`` is the syntactic check's match table when a caller shares one.
    """
    syntactic = log_syntactically_correct(log, np, matches)
    failing = syntactic.failing_traces()
    component = project_system_net(np)
    candidates = _system_candidates(component)
    roster = sorted(np.agents)

    sys_cache: Dict[SystemTrace, TraceVerdict] = {}
    agent_cache: Dict[Tuple[str, AgentTrace], TraceVerdict] = {}
    projected: Dict[Event, SystemEvent] = {}
    results = []
    for ti, (trace, freq) in enumerate(log.items()):
        verdicts: Dict[str, TraceVerdict] = {}
        st = project_trace_system(trace, projected)
        if st not in sys_cache:
            sys_cache[st] = _system_trace_verdict(component.net, st, candidates, limits)
        verdicts[SYSTEM_COMPONENT] = sys_cache[st]
        for r, at in project_trace_agents(trace, roster).items():
            # the verdict depends on the agent's class, not on the agent
            cls = np.agents[r]
            key = (cls, at)
            if key not in agent_cache:
                agent_cache[key] = _agent_trace_verdict(np.elements[cls], at, limits)
            verdicts[r] = agent_cache[key]
        results.append(TraceResult(trace, freq, verdicts, ti not in failing))
    return _assemble("compositional", results, syntactic)


def check_both(log: EventLog, np: NestedNet,
               limits: ReplayLimits = DEFAULT_LIMITS) -> ConformanceReport:
    """Run both checkers and compare per-trace verdicts; any disagreement on
    conclusive traces is reported as an internal-consistency failure. On a
    model that ``nested.check_agreement`` passes it would falsify the
    implementation, not the underlying equivalence. Both halves read one
    match table."""
    matches: MatchTable = {}
    mono = check_monolithic(log, np, limits, matches)
    comp = check_compositional(log, np, limits, matches)
    results = []
    discrepancies = []
    for ti, (mr, cr) in enumerate(zip(mono.results, comp.results)):
        components = dict(mr.components)
        components.update(cr.components)
        merged = TraceResult(mr.trace, mr.frequency, components, cr.syntactic_ok)
        results.append(merged)
        if not mr.inconclusive and not cr.inconclusive and mr.fits != cr.fits:
            discrepancies.append(ti)
    return _assemble("both", results, comp.syntactic, tuple(discrepancies))
