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
from dataclasses import dataclass
from typing import (Callable, Dict, Iterable, Iterator, List, Mapping, Optional,
                    Sequence, Set, Tuple)

from .colored import (Binding, Candidates, ColoredNet, candidate_memo,
                      replay_colored)
from .events import (AgentEvent, Event, EventLog, Match, MatchTable, SyntacticReport,
                     SystemEvent, Trace, _table_matches, event_agents,
                     log_syntactically_correct)
from .multiset import Multiset
from .nested import (ElementStep, NestedNet, NotEnabledError, NpMarking, Step,
                     SyncStep, SystemStep, apply_step, _payload_assignments)
from .nets import (ReplayResult, SearchLimitExceeded, WorkflowNet, is_run_wf,
                   search)
from .projection import (AgentTrace, ProjectedSystemEvent,
                         SystemComponent, SystemTrace, project_system_net,
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


def _verdict(replay: Callable[..., ReplayResult], *args,
             limits: ReplayLimits) -> TraceVerdict:
    """Run ``replay(*args, max_states=...)``; exceeding the limit is
    inconclusive."""
    try:
        result = replay(*args, max_states=limits.max_states)
    except SearchLimitExceeded:
        return TraceVerdict(False, inconclusive=True)
    if result.ok:
        return TraceVerdict(True, witness=result.witness)
    return TraceVerdict(False, failure_position=result.prefix)


@dataclass(frozen=True)
class TraceResult:
    """All component verdicts for one distinct trace of the log."""

    trace: Trace
    frequency: int
    components: Mapping[str, TraceVerdict]
    syntactic_ok: Optional[bool]  # None when the mode does not check syntax

    def __init__(self, trace, frequency, components, syntactic_ok):
        object.__setattr__(self, "trace", trace)
        object.__setattr__(self, "frequency", frequency)
        object.__setattr__(self, "components", dict(components))
        object.__setattr__(self, "syntactic_ok", syntactic_ok)

    @property
    def fits(self) -> bool:
        return (self.syntactic_ok is not False
                and all(v.fits for v in self.components.values()))

    @property
    def inconclusive(self) -> bool:
        # a conclusive failure anywhere outweighs an inconclusive search
        if self.syntactic_ok is False:
            return False
        if any(not v.fits and not v.inconclusive for v in self.components.values()):
            return False
        return any(v.inconclusive for v in self.components.values())


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
    def bindings(t: str, event: ProjectedSystemEvent) -> Iterator[Binding]:
        for nb, db in _payload_assignments(component.model, t, event.agents, event.data):
            yield Binding(nb.items + db.items)

    return candidate_memo(component.net, bindings)


def _system_trace_verdict(cn: ColoredNet, seq: SystemTrace, candidates: Candidates,
                          limits: ReplayLimits) -> TraceVerdict:
    return _verdict(replay_colored, cn, [(e.activity, e) for e in seq], candidates,
                    limits=limits)


# ----------------------------------------------------------------------
# monolithic replay


def _step_candidates(np: NestedNet, m: NpMarking, event: Event,
                     matches: Sequence[Match]) -> List[Step]:
    """The steps of ``m`` that could record ``event``, in deterministic order:
    its matches with agent names bound to their net tokens, keeping the inner
    transitions enabled in ``m``. ``apply_step`` judges the system binding."""
    if not matches:
        return []
    tokens = {}
    for r in event_agents(event):
        located = m.locate(r)
        if located is None:
            return []
        tokens[r] = located[1]
    if isinstance(event, AgentEvent):
        enabled = np.agent_class(event.agent)._table.enabled(tokens[event.agent].inner)
        return [ElementStep(event.agent, ti) for ti in matches if ti in enabled]

    steps: List[Step] = []
    for t, nb, db, inner in matches:
        b = Binding(tuple((v, tokens[r]) for v, r in nb.items) + db.items)
        if isinstance(event, SystemEvent):
            steps.append(SystemStep(t, b))
            continue
        label = np.system_sync[t]
        per_agent = []
        for (_, r), tis in zip(event.participants, inner):
            enabled = np.agent_class(r)._table.enabled(tokens[r].inner, label)
            cands = [(r, ti) for ti in tis if ti in enabled]
            if not cands:
                break
            per_agent.append(cands)
        else:
            steps.extend(SyncStep(t, b, combo) for combo in itertools.product(*per_agent))
    return steps


# One check's successor memo, keyed by event: the event's matches, the hashes
# of markings seen once with it, and the moves built for markings seen twice.
SuccessorMemo = Dict[Event, Tuple[Tuple[Match, ...], Set[int],
                                  Dict[NpMarking, Tuple[Tuple[Step, NpMarking], ...]]]]


def _moves(np: NestedNet, m: NpMarking, event: Event,
           found: Sequence[Match]) -> Iterator[Tuple[Step, NpMarking]]:
    for step in _step_candidates(np, m, event, found):
        try:
            m2 = apply_step(np, m, step)
        except NotEnabledError:
            continue
        yield step, m2


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

    def successors(m: NpMarking, pos: int) -> Iterable[Tuple[Step, NpMarking]]:
        event = events[pos]
        entry = memo.get(event)
        if entry is None:
            entry = memo[event] = (_table_matches(event, np, matches), set(), {})
        found, seen, built = entry
        h = hash(m)
        if h not in seen:
            seen.add(h)
            return _moves(np, m, event, found)
        moves = built.get(m)
        if moves is None:
            moves = built[m] = tuple(_moves(np, m, event, found))
        return moves

    return _verdict(search, np.initial_marking, len(events), successors,
                    np.final_markings.__contains__, limits=limits)


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
    cache: Dict[Trace, TraceVerdict] = {}
    for trace, freq in log.items():
        if trace not in cache:
            cache[trace] = _monolithic_trace_verdict(np, trace, limits, matches, memo)
        results.append(TraceResult(trace, freq,
                                   {MONOLITHIC_COMPONENT: cache[trace]}, None))
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
    results = []
    for ti, (trace, freq) in enumerate(log.items()):
        verdicts: Dict[str, TraceVerdict] = {}
        st = project_trace_system(trace)
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
