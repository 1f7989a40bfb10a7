"""Projections of traces, logs, and markings onto model components.

A trace projects onto an agent as its sequence of agent activities, and onto
the system net as a sequence of ``SystemEvent``s. Their payloads keep agent
names (``involved``) and data values apart so the colored replay of the
system component can type-check them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, Iterable, List, Mapping, Optional, Sequence, Set, Tuple

from .colored import ColoredMarking, ColoredNet, Domain
from .events import (AgentEvent, Event, EventLog, LogParseError, SyncEvent, SystemEvent,
                     Trace, _data_from_json, _data_to_json, _require, dumps_traces,
                     event_agents, read_json, read_traces)
from .multiset import Multiset
from .nested import NestedNet, NpMarking, RosterError

SN_LOG_SCHEMA = "maslog-sn/1"


SystemTrace = Tuple[SystemEvent, ...]  # SN-projected events
AgentTrace = Tuple[str, ...]


@dataclass(frozen=True)
class ComponentLogs:
    """The projected logs: one for the system net, one per roster agent."""

    system_log: Multiset  # of SystemTrace
    agent_logs: Mapping[str, Multiset]  # agent -> Multiset of AgentTrace


def project_trace_agent(trace: Trace, agent: str) -> AgentTrace:
    """Agent events of ``agent`` keep their activity; sync events where the
    agent participates contribute the agent's own activity; everything else
    (including system events that merely move the agent) is dropped."""
    return project_trace_agents(trace, (agent,))[agent]


def project_trace_agents(trace: Trace, roster: Iterable[str]) -> Dict[str, AgentTrace]:
    """``project_trace_agent`` for every roster agent, in one scan of the
    trace; keys keep the roster's order."""
    out: Dict[str, List[str]] = {r: [] for r in roster}
    for e in trace:
        if isinstance(e, AgentEvent):
            if e.agent in out:
                out[e.agent].append(e.activity)
        elif isinstance(e, SyncEvent):
            for a_i, r_i in e.participants:
                if r_i in out:
                    out[r_i].append(a_i)
    return {r: tuple(seq) for r, seq in out.items()}


def project_trace_system(trace: Trace, memo: Optional[Dict[Event, SystemEvent]] = None
                         ) -> SystemTrace:
    """System events map to a ``SystemEvent`` of their activity, involved
    agents and data; sync events likewise, with the participant names as the
    involved agents; agent events are dropped. ``memo`` maps events already
    projected in this call to their projections."""
    memo = {} if memo is None else memo
    out: List[SystemEvent] = []
    for e in trace:
        if isinstance(e, AgentEvent):
            continue
        projected = memo.get(e)
        if projected is None:
            projected = memo[e] = SystemEvent(e.activity, event_agents(e), e.data)
        out.append(projected)
    return tuple(out)


def _project_traces(log: EventLog, roster: Sequence[str]
                    ) -> List[Tuple[Trace, int, SystemTrace, Dict[str, AgentTrace]]]:
    """Each distinct trace of ``log`` in canonical order, with its frequency,
    its system-net projection and its projection onto each ``roster`` agent.
    Each distinct event projects onto the system net once per call."""
    projected: Dict[Event, SystemEvent] = {}
    return [(trace, freq, project_trace_system(trace, projected),
             project_trace_agents(trace, roster)) for trace, freq in log.items()]


def project_log(log: EventLog, roster: Iterable[str]) -> ComponentLogs:
    """Project every trace onto the system net and every roster agent,
    preserving multiplicities; empty projected traces are kept so the total
    weight of each component log equals the source log's weight."""
    roster = set(roster)
    unknown = sorted(log.agent_names() - roster)
    if unknown:
        raise RosterError(f"log names agents outside the roster: {', '.join(unknown)}")
    roster = sorted(roster)
    system_counts: Dict[SystemTrace, int] = {}
    agent_counts: Dict[str, Dict[AgentTrace, int]] = {r: {} for r in roster}
    for _, freq, st, ats in _project_traces(log, roster):
        system_counts[st] = system_counts.get(st, 0) + freq
        for r, at in ats.items():
            agent_counts[r][at] = agent_counts[r].get(at, 0) + freq
    return ComponentLogs(
        Multiset.from_counts(system_counts),
        {r: Multiset.from_counts(c) for r, c in agent_counts.items()})


def project_marking_system(m: NpMarking) -> ColoredMarking:
    """Replace every net token by its agent name; atom places unchanged."""
    assignment: Dict[str, Multiset] = {}
    for place, tokens in m.net_tokens:
        assignment[place] = Multiset(tk.agent for tk in tokens)
    for place, values in m.atoms:
        assignment[place] = values
    return ColoredMarking(assignment)


def project_marking_agent(m: NpMarking, agent: str) -> Multiset:
    """The inner marking of the agent's net token."""
    located = m.locate(agent)
    if located is None:
        raise RosterError(f"agent {agent!r} has no net token in this marking")
    return located[1].inner


# ----------------------------------------------------------------------
# the system-net component


@dataclass(frozen=True, eq=False)
class SystemComponent:
    """The system net of ``model`` as a colored net over agent names, with
    sync labels dropped. Its net variables carry agent names; ``model``
    types them by element class."""

    net: ColoredNet
    model: NestedNet


def project_system_net(np: NestedNet) -> SystemComponent:
    """Build the system-net component: net places are retyped over the agent
    names of their element classes, net variables likewise, and the initial
    and final markings are projected."""
    domains: Dict[str, Domain] = dict(np.domains)
    by_class: Dict[str, Set[str]] = {}
    for r, cls in np.agents.items():
        by_class.setdefault(cls, set()).add(r)

    def ensure_agent_domain(element_names: FrozenSet[str] | Set[str]) -> str:
        name = "agents(%s)" % ",".join(sorted(element_names))
        while name in np.domains:  # a declared domain keeps its name and values
            name += "'"
        if name not in domains:
            values: Set[str] = set()
            for e in element_names:
                values.update(by_class.get(e, ()))
            domains[name] = Domain(name, values)
        return name

    place_type: Dict[str, str] = {}
    for p, classes in np.net_place_type.items():
        place_type[p] = ensure_agent_domain(classes)
    place_type.update(np.atom_place_type)

    var_type = {v: ensure_agent_domain({vt}) if vt in np.elements else vt
                for v, vt in np.var_type.items()}

    net = ColoredNet(
        net=np.system,
        domains=domains,
        place_type=place_type,
        arc_expr=np.arc_expr,
        var_type=var_type,
        activity_label=np.system_activity,
        initial_marking=project_marking_system(np.initial_marking),
        final_markings={project_marking_system(mf) for mf in np.final_markings},
    )
    # same net, arcs and labels, so the component reads the model's compiled table
    vars(net)["_table"] = np._table.system
    return SystemComponent(net, np)


# ----------------------------------------------------------------------
# component log serialization (the ``project`` command's file formats)


def agent_component_log(agent: str, traces: Multiset) -> EventLog:
    """Represent a projected agent log as a standard log of agent events."""
    made = {a: AgentEvent(a, agent) for a in set().union(*traces.distinct())}
    counts = {Trace(map(made.__getitem__, seq)): traces.count(seq)
              for seq in traces.distinct()}
    return EventLog(Multiset.from_counts(counts))


def _projected_to_json(e: SystemEvent) -> Dict:
    return {"activity": e.activity, "agents": list(e.involved),
            "data": _data_to_json(e.data)}


def serialize_system_log(traces: Multiset) -> bytes:
    """Serialize a projected system log (schema variant of the log format)."""
    return dumps_traces({"schema": SN_LOG_SCHEMA, "model": None}, traces.items(),
                        _projected_to_json)


def _projected_from_json(raw, where: str) -> SystemEvent:
    _require(isinstance(raw, dict) and isinstance(raw.get("activity"), str),
             where, "bad projected event")
    agents = raw.get("agents", [])
    _require(isinstance(agents, list) and all(isinstance(r, str) for r in agents),
             where, "'agents' must be a list of agent names")
    _require(len(set(agents)) == len(agents), where, "duplicate agent in projected event")
    return SystemEvent(raw["activity"], agents, _data_from_json(raw.get("data", []), where))


def parse_system_log(data: bytes | str) -> Multiset:
    """Inverse of serialize_system_log."""
    return read_traces(read_json(data, LogParseError), SN_LOG_SCHEMA,
                       _projected_from_json, tuple)
