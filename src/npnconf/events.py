"""Multi-agent event logs: the three event kinds, traces, logs, the log file
format, and per-event syntactic-correctness checking against a model.

Data values inside events are (domain, value) pairs so that payloads stay
typed through projection and binding matching. An event log is a multiset of
traces; the serialized form is canonical JSON (sorted traces, sorted sets)
so that re-serialization is byte-stable.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import (Dict, FrozenSet, Hashable, Iterable, Iterator, List,
                    Optional, Set, Tuple, Union)

from .colored import Binding
from .multiset import Multiset, sort_key
from .nested import NestedNet, RosterError, _payload_assignments

DataItem = Tuple[str, Hashable]  # (domain name, value)

LOG_SCHEMA = "maslog/1"


class LogParseError(ValueError):
    """The serialized log is malformed; the message carries a location."""


@dataclass(frozen=True)
class AgentEvent:
    """An activity executed autonomously by one agent."""

    activity: str
    agent: str


@dataclass(frozen=True)
class SystemEvent:
    """An activity executed by the system, moving the involved agents and
    consuming/producing the given data values.

    ``involved`` is a set of agent names, stored sorted so equal events have
    identical representations."""

    activity: str
    involved: Tuple[str, ...]
    data: Multiset
    system: str = "SN"

    def __init__(self, activity: str, involved: Iterable[str] = (),
                 data: Multiset | Iterable[DataItem] = (), system: str = "SN"):
        object.__setattr__(self, "activity", activity)
        object.__setattr__(self, "involved", tuple(sorted(set(involved))))
        object.__setattr__(self, "data",
                           data if isinstance(data, Multiset) else Multiset(data))
        object.__setattr__(self, "system", system)


@dataclass(frozen=True)
class SyncEvent:
    """A simultaneous execution: the system fires an activity while each
    participating agent fires its own activity.

    ``participants`` is a set of (agent activity, agent) pairs with distinct
    agents, stored sorted by agent name."""

    activity: str
    participants: Tuple[Tuple[str, str], ...]
    data: Multiset
    system: str = "SN"

    def __init__(self, activity: str, participants: Iterable[Tuple[str, str]] = (),
                 data: Multiset | Iterable[DataItem] = (), system: str = "SN"):
        participants = tuple(sorted({tuple(p) for p in participants},
                                    key=lambda p: (p[1], p[0])))
        names = [r for _, r in participants]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate participant agent in sync event {activity!r}")
        object.__setattr__(self, "activity", activity)
        object.__setattr__(self, "participants", participants)
        object.__setattr__(self, "data",
                           data if isinstance(data, Multiset) else Multiset(data))
        object.__setattr__(self, "system", system)


Event = Union[AgentEvent, SystemEvent, SyncEvent]


def event_agents(e: Event) -> Tuple[str, ...]:
    """The agent names an event mentions, sorted."""
    if isinstance(e, AgentEvent):
        return (e.agent,)
    if isinstance(e, SystemEvent):
        return e.involved
    if isinstance(e, SyncEvent):
        return tuple(r for _, r in e.participants)
    raise TypeError(f"unknown event type: {e!r}")


@dataclass(frozen=True)
class Trace:
    """A finite sequence of events."""

    events: Tuple[Event, ...]

    def __init__(self, events: Iterable[Event] = ()):
        object.__setattr__(self, "events", tuple(events))

    def __iter__(self) -> Iterator[Event]:
        return iter(self.events)

    def __len__(self) -> int:
        return len(self.events)

    def __getitem__(self, i):
        return self.events[i]


@dataclass(frozen=True)
class EventLog:
    """A multiset of traces."""

    traces: Multiset

    def __init__(self, traces: Multiset | Iterable[Trace] = ()):
        object.__setattr__(self, "traces",
                           traces if isinstance(traces, Multiset) else Multiset(traces))

    @property
    def weight(self) -> int:
        return self.traces.total()

    def items(self) -> Tuple[Tuple[Trace, int], ...]:
        """Distinct traces with frequencies, in canonical order."""
        return self.traces.items()

    def agent_names(self) -> FrozenSet[str]:
        return frozenset(r for trace, _ in self.items() for e in trace
                         for r in event_agents(e))

    def data_domains(self) -> Dict[str, Tuple[Hashable, ...]]:
        seen: Dict[str, Set[Hashable]] = {}
        for trace, _ in self.items():
            for e in trace:
                if isinstance(e, (SystemEvent, SyncEvent)):
                    for (dom, value), _ in e.data.items():
                        seen.setdefault(dom, set()).add(value)
        return {dom: tuple(sorted(values, key=sort_key))
                for dom, values in sorted(seen.items())}


# ----------------------------------------------------------------------
# serialization


def _data_to_json(data: Multiset) -> List[List]:
    return [[dom, value] for dom, value in data]


def _event_to_json(e: Event) -> Dict:
    if isinstance(e, AgentEvent):
        return {"type": "agent", "activity": e.activity, "agent": e.agent}
    if isinstance(e, SystemEvent):
        return {"type": "system", "activity": e.activity, "system": e.system,
                "involved": list(e.involved), "data": _data_to_json(e.data)}
    if isinstance(e, SyncEvent):
        return {"type": "sync", "activity": e.activity, "system": e.system,
                "participants": [[a, r] for a, r in e.participants],
                "data": _data_to_json(e.data)}
    raise TypeError(f"unknown event type: {e!r}")


def canonical_dumps(document) -> bytes:
    """Stable, human-readable JSON used for every emitted file."""
    return (json.dumps(document, indent=2, ensure_ascii=False) + "\n").encode("utf-8")


def serialize_log(log: EventLog, model: Optional[str] = None) -> bytes:
    """Canonical form: traces sorted lexicographically, sets sorted, derived
    roster/domain header; a fixed point of parse-then-serialize."""
    doc = {
        "schema": LOG_SCHEMA,
        "model": model,
        "roster": sorted(log.agent_names()),
        "domains": {dom: list(values) for dom, values in log.data_domains().items()},
        "traces": [
            {"frequency": freq, "events": [_event_to_json(e) for e in trace]}
            for trace, freq in log.items()
        ],
    }
    return canonical_dumps(doc)


def _require(cond: bool, where: str, message: str) -> None:
    if not cond:
        raise LogParseError(f"{where}: {message}")


def _data_from_json(raw, where: str) -> Multiset:
    _require(isinstance(raw, list), where, "data must be a list")
    items = []
    for entry in raw:
        _require(isinstance(entry, list) and len(entry) == 2,
                 where, f"data item {entry!r} must be a [domain, value] pair")
        dom, value = entry
        _require(isinstance(dom, str), where, f"domain tag {dom!r} must be a string")
        _require(isinstance(value, (str, int)) and not isinstance(value, bool),
                 where, f"data value {value!r} must be a string or integer")
        items.append((dom, value))
    return Multiset(items)


def _event_from_json(raw, where: str) -> Event:
    _require(isinstance(raw, dict), where, "event must be an object")
    kind = raw.get("type")
    activity = raw.get("activity")
    _require(isinstance(activity, str), where, "event needs a string 'activity'")
    if kind == "agent":
        agent = raw.get("agent")
        _require(isinstance(agent, str), where, "agent event needs a string 'agent'")
        return AgentEvent(activity, agent)
    system = raw.get("system", "SN")
    _require(isinstance(system, str), where, "'system' must be a string")
    if kind == "system":
        involved = raw.get("involved", [])
        _require(isinstance(involved, list) and all(isinstance(r, str) for r in involved),
                 where, "'involved' must be a list of agent names")
        return SystemEvent(activity, involved,
                           _data_from_json(raw.get("data", []), where), system)
    if kind == "sync":
        participants = raw.get("participants", [])
        _require(isinstance(participants, list), where, "'participants' must be a list")
        pairs = []
        for p in participants:
            _require(isinstance(p, list) and len(p) == 2
                     and all(isinstance(x, str) for x in p),
                     where, f"participant {p!r} must be an [activity, agent] pair")
            pairs.append((p[0], p[1]))
        names = [r for _, r in pairs]
        _require(len(set(names)) == len(names), where,
                 "duplicate participant agent in sync event")
        return SyncEvent(activity, pairs,
                         _data_from_json(raw.get("data", []), where), system)
    raise LogParseError(f"{where}: unknown event type tag {kind!r}")


def parse_log(data: bytes | str) -> EventLog:
    """Parse the log format; raises LogParseError with a location on any
    malformed syntax, unknown event tag, or event invariant violation."""
    text = data.decode("utf-8") if isinstance(data, bytes) else data
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise LogParseError(
            f"line {exc.lineno}, column {exc.colno}: {exc.msg}") from exc
    _require(isinstance(doc, dict), "document", "top level must be an object")
    _require(doc.get("schema") == LOG_SCHEMA, "document",
             f"unsupported schema {doc.get('schema')!r} (expected {LOG_SCHEMA!r})")
    raw_traces = doc.get("traces")
    _require(isinstance(raw_traces, list), "document", "'traces' must be a list")
    counts: Dict[Trace, int] = {}
    for ti, entry in enumerate(raw_traces):
        where = f"trace {ti}"
        _require(isinstance(entry, dict), where, "trace entry must be an object")
        freq = entry.get("frequency", 1)
        _require(isinstance(freq, int) and not isinstance(freq, bool) and freq >= 1,
                 where, f"frequency must be a positive integer, got {freq!r}")
        raw_events = entry.get("events")
        _require(isinstance(raw_events, list), where, "'events' must be a list")
        events = [_event_from_json(raw, f"trace {ti}, event {ei}")
                  for ei, raw in enumerate(raw_events)]
        trace = Trace(events)
        counts[trace] = counts.get(trace, 0) + freq
    return EventLog(Multiset.from_counts(counts))


# ----------------------------------------------------------------------
# syntactic correctness


@dataclass(frozen=True)
class EventCheck:
    ok: bool
    diagnosis: Optional[str] = None


def _known_agents(np: NestedNet, names: Iterable[str]) -> None:
    unknown = sorted(r for r in names if r not in np.agents)
    if unknown:
        raise RosterError(f"unknown agent name(s): {', '.join(unknown)}")


# One way a step could record an event, whatever the marking: an inner
# transition of the agent's class for an agent event; for a system or sync
# event, (system transition, net variables to agent names, data variables to
# values, per participant the inner transitions that could join it).
Match = Union[str, Tuple[str, Binding, Binding, Tuple[Tuple[str, ...], ...]]]
# ``_event_matches`` memoised by event for one check call, never kept on the model
MatchTable = Dict[Event, Tuple[Match, ...]]


def _inner_matches(np: NestedNet, agent: str, activity: str,
                   label: Optional[str]) -> Tuple[str, ...]:
    w = np.elements[np.agents[agent]]
    return tuple(ti for ti in w._table.by_activity.get(activity, ())
                 if w.sync_label.get(ti) == label)


def _event_matches(event: Event, np: NestedNet) -> Tuple[Match, ...]:
    """The ways a step of the model could record ``event``, in replay order.
    They go by labels, sync labels and payload shape, never by a marking, so
    both the syntactic check and the monolithic replay read them. An event
    naming an agent outside the roster, or of an unknown class, has none."""
    names = event_agents(event)
    if any(np.agents.get(r) not in np.elements for r in names):
        return ()
    if isinstance(event, AgentEvent):
        return _inner_matches(np, event.agent, event.activity, None)
    sync = isinstance(event, SyncEvent)
    matches: List[Match] = []
    for t in np._table.system_by_label.get((event.activity, sync), ()):
        inner: Tuple[Tuple[str, ...], ...] = ()
        if sync:
            label = np.system_sync[t]
            inner = tuple(_inner_matches(np, r, a, label) for a, r in event.participants)
            if not all(inner):
                continue
        matches.extend((t, nb, db, inner)
                       for nb, db in _payload_assignments(np, t, names, event.data))
    return tuple(matches)


def _table_matches(event: Event, np: NestedNet, table: MatchTable) -> Tuple[Match, ...]:
    found = table.get(event)
    if found is None:
        found = table[event] = _event_matches(event, np)
    return found


def syntactically_correct(event: Event, np: NestedNet,
                          matches: Optional[MatchTable] = None) -> EventCheck:
    """Static matchability of one event against some step of the model:
    labels, classes, sync-label agreement, and binding shape. The verdict is
    marking-independent. Unknown agent names raise RosterError. ``matches``
    is the call's match table when a caller shares one."""
    _known_agents(np, event_agents(event))
    if _table_matches(event, np, {} if matches is None else matches):
        return EventCheck(True)
    if isinstance(event, AgentEvent):
        return EventCheck(False, f"no unlabeled transition with activity "
                                 f"{event.activity!r} in class of {event.agent!r}")
    if isinstance(event, SystemEvent):
        return EventCheck(False, f"no unlabeled system transition matches activity "
                                 f"{event.activity!r} with this payload")
    return EventCheck(False, f"no labeled system transition matches activity "
                             f"{event.activity!r} with these participants")


@dataclass(frozen=True)
class SyntacticFailure:
    trace_index: int
    event_index: int
    diagnosis: str


@dataclass(frozen=True)
class SyntacticReport:
    failures: Tuple[SyntacticFailure, ...]

    @property
    def ok(self) -> bool:
        return not self.failures

    def failing_traces(self) -> FrozenSet[int]:
        return frozenset(f.trace_index for f in self.failures)


def log_syntactically_correct(log: EventLog, np: NestedNet,
                              matches: Optional[MatchTable] = None) -> SyntacticReport:
    """Check every event of every distinct trace (canonical order); roster
    errors are recorded as failures rather than raised. Each distinct event
    is checked once; ``matches`` is the call's match table when a caller
    shares one."""
    diagnoses: Dict[Event, Optional[str]] = {}  # None: correct
    failures = []
    for ti, (trace, _) in enumerate(log.items()):
        for ei, event in enumerate(trace):
            if event not in diagnoses:
                diagnoses[event] = _diagnosis(event, np, matches)
            if diagnoses[event] is not None:
                failures.append(SyntacticFailure(ti, ei, diagnoses[event]))
    return SyntacticReport(tuple(failures))


def _diagnosis(event: Event, np: NestedNet, matches: Optional[MatchTable]) -> Optional[str]:
    try:
        check = syntactically_correct(event, np, matches)
    except RosterError as exc:
        return str(exc)
    return None if check.ok else check.diagnosis or "no match"
