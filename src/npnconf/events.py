"""Multi-agent event logs: the three event kinds, traces, logs, the log file
format, and per-event syntactic-correctness checking against a model.

Data values inside events are (domain, value) pairs so that payloads stay
typed through projection and binding matching. An event log is a multiset of
traces; the serialized form is canonical JSON (sorted traces, sorted sets)
so that re-serialization is byte-stable.
"""

from __future__ import annotations

import json
import marshal
from dataclasses import dataclass
from functools import cached_property
from json.encoder import encode_basestring
from typing import (Callable, Dict, FrozenSet, Hashable, Iterable, Iterator, List,
                    Optional, Set, Tuple, Union)

from .multiset import Multiset, _value, _Value, sort_key
from .nested import NestedNet, PayloadTable, RosterError, _Spec, _table_payload

DataItem = Tuple[str, Hashable]  # (domain name, value)

LOG_SCHEMA = "maslog/1"


class LogParseError(ValueError):
    """The serialized log is malformed; the message carries a location."""


@_value
class AgentEvent(_Value):
    """An activity executed autonomously by one agent."""

    activity: str
    agent: str


@_value
class SystemEvent(_Value):
    """An activity executed by the system, moving the involved agents and
    consuming/producing the given data values.

    ``involved`` is a set of distinct agent names, stored sorted so equal
    events have identical representations."""

    activity: str
    involved: Tuple[str, ...]
    data: Multiset
    system: str = "SN"

    def __init__(self, activity: str, involved: Iterable[str] = (),
                 data: Multiset | Iterable[DataItem] = (), system: str = "SN"):
        involved = tuple(sorted(involved))
        if len(set(involved)) != len(involved):
            raise ValueError(f"duplicate involved agent in system event {activity!r}")
        object.__setattr__(self, "activity", activity)
        object.__setattr__(self, "involved", involved)
        object.__setattr__(self, "data",
                           data if isinstance(data, Multiset) else Multiset(data))
        object.__setattr__(self, "system", system)


@_value
class SyncEvent(_Value):
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
        participants = tuple(sorted(map(tuple, participants), key=lambda p: (p[1], p[0])))
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


@_value
class Trace(_Value):
    """A finite sequence of events."""

    events: Tuple[Event, ...]

    def __init__(self, events: Iterable[Event] = ()):
        object.__setattr__(self, "events", tuple(events))

    def __iter__(self) -> Iterator[Event]:
        return iter(self.events)

    def __len__(self) -> int:
        return len(self.events)


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
        return self._items

    @cached_property
    def _items(self) -> Tuple[Tuple[Trace, int], ...]:
        traces = self.traces
        return tuple((trace, traces.count(trace))
                     for trace in sorted(traces.distinct(), key=_trace_sort_key()))

    @cached_property
    def _events(self) -> FrozenSet[Event]:
        """The distinct events of the log."""
        return frozenset().union(*(trace.events for trace in self.traces.distinct()))

    def agent_names(self) -> FrozenSet[str]:
        return frozenset(r for e in self._events for r in event_agents(e))

    def data_domains(self) -> Dict[str, Tuple[Hashable, ...]]:
        seen: Dict[str, Set[Hashable]] = {}
        for e in self._events:
            if isinstance(e, (SystemEvent, SyncEvent)):
                for dom, value in e.data.distinct():
                    seen.setdefault(dom, set()).add(value)
        return {dom: tuple(sorted(values, key=sort_key))
                for dom, values in sorted(seen.items())}


def _trace_sort_key() -> Callable[[Hashable], Tuple[str, str]]:
    """``sort_key``, which for a ``Trace`` joins its events' cached reprs as
    the repr of a tuple does, without the dataclass repr's per-call cost."""

    def key(trace: Hashable) -> Tuple[str, str]:
        if type(trace) is not Trace:
            return sort_key(trace)
        events = trace.events
        text = ", ".join(map(repr, events)) + ("," if len(events) == 1 else "")
        return ("Trace", f"Trace(events=({text}))")

    return key


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


def _to_json(value, newline: str = "\n") -> str:
    """``json.dumps(value, indent=2, ensure_ascii=False)`` with each newline
    written as ``newline``, a newline and the indent the text starts at.
    With ``indent`` set, ``json`` never uses its C encoder, so strings,
    ints, lists and dicts with string keys are written here, and only other
    values go to ``json.dumps``, whose text is re-indented (it escapes the
    newlines inside strings, so that is exact)."""
    kind = type(value)
    if kind is str:
        return encode_basestring(value)
    if kind is int:
        return int.__repr__(value)
    inner = newline + "  "
    if kind is list:
        brackets, items = "[]", [_to_json(v, inner) for v in value]
    elif kind is dict and all(type(k) is str for k in value):
        brackets, items = "{}", [f"{encode_basestring(k)}: {_to_json(v, inner)}"
                                 for k, v in value.items()]
    else:
        return json.dumps(value, indent=2, ensure_ascii=False).replace("\n", newline)
    if not items:
        return brackets
    return brackets[0] + inner + ("," + inner).join(items) + newline + brackets[1]


def canonical_dumps(document) -> bytes:
    """Stable, human-readable JSON used for every emitted file."""
    return (_to_json(document) + "\n").encode("utf-8")


def dumps_traces(header: Dict, traces, event_to_json) -> bytes:
    """``canonical_dumps`` of ``header`` extended by a last key "traces" that
    lists each (events, frequency) pair as {"frequency", "events"}. Each
    distinct event is encoded once per call and its text spliced in at depth
    4, as the whole-document encoder would write it."""
    texts: Dict = {}
    entries = []
    for seq, freq in traces:
        parts = []
        for e in seq:
            text = texts.get(e)
            if text is None:
                text = texts[e] = _to_json(event_to_json(e), "\n        ")
            parts.append(text)
        events = ",\n        ".join(parts)
        events = f"[\n        {events}\n      ]" if parts else "[]"
        entries.append(f'    {{\n      "frequency": {freq},\n      "events": {events}\n    }}')
    return _splice_traces(canonical_dumps({**header, "traces": []}), entries)


def _splice_traces(document: bytes, entries: List[str]) -> bytes:
    """``document``, ``canonical_dumps`` bytes with an empty top-level "traces"
    list, with that list holding ``entries``, each an element's text at depth 2."""
    head, tail = document.split(b'\n  "traces": []', 1)  # top-level keys: indent 2
    body = "[\n" + ",\n".join(entries) + "\n  ]" if entries else "[]"
    return head + b'\n  "traces": ' + body.encode("utf-8") + tail


def serialize_log(log: EventLog) -> bytes:
    """Canonical form: traces sorted lexicographically, sets sorted, derived
    roster/domain header; a fixed point of parse-then-serialize."""
    header = {
        "schema": LOG_SCHEMA,
        "model": None,
        "roster": sorted(log.agent_names()),
        "domains": {dom: list(values) for dom, values in log.data_domains().items()},
    }
    return dumps_traces(header, log.items(), _event_to_json)


def read_json(data: bytes | str, error: type,
              object_pairs_hook: Optional[Callable[[List], object]] = None) -> object:
    """Decode a JSON document; undecodable bytes, bad syntax, nesting past
    the recursion limit and over-long integer literals raise ``error``, and
    so does ``object_pairs_hook``, which builds each object when given."""
    try:
        return json.loads(data.decode("utf-8") if isinstance(data, bytes) else data,
                          object_pairs_hook=object_pairs_hook)
    except json.JSONDecodeError as exc:
        raise error(f"line {exc.lineno}, column {exc.colno}: {exc.msg}") from exc
    except error:
        raise
    except (ValueError, RecursionError) as exc:  # UnicodeDecodeError is a ValueError
        raise error(f"unreadable JSON: {exc}") from exc


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
        cls, agents = SystemEvent, raw.get("involved", [])
        _require(isinstance(agents, list) and all(isinstance(r, str) for r in agents),
                 where, "'involved' must be a list of agent names")
    elif kind == "sync":
        participants = raw.get("participants", [])
        _require(isinstance(participants, list), where, "'participants' must be a list")
        cls, agents = SyncEvent, []
        for p in participants:
            _require(isinstance(p, list) and len(p) == 2
                     and all(isinstance(x, str) for x in p),
                     where, f"participant {p!r} must be an [activity, agent] pair")
            agents.append((p[0], p[1]))
    else:
        raise LogParseError(f"{where}: unknown event type tag {kind!r}")
    data = _data_from_json(raw.get("data", []), where)
    try:
        return cls(activity, agents, data, system)
    except ValueError as exc:  # the event names an agent twice
        raise LogParseError(f"{where}: {exc}") from exc


def read_traces(doc, schema: str, read_event: Callable[[object, str], Hashable],
                sequence: Callable[[List[Hashable]], Hashable]) -> Multiset:
    """The traces of a decoded log document of ``schema``, as a multiset of
    ``sequence(events)``. ``read_event(raw, where)`` builds one event or
    raises LogParseError at ``where``; identical raw events are read once
    per call and share one object."""
    _require(isinstance(doc, dict), "document", "top level must be an object")
    _require(doc.get("schema") == schema, "document",
             f"unsupported schema {doc.get('schema')!r} (expected {schema!r})")
    raw_traces = doc.get("traces")
    _require(isinstance(raw_traces, list), "document", "'traces' must be a list")
    counts: Dict[Hashable, int] = {}
    built: Dict[Hashable, Hashable] = {}  # raw event's key -> its event, this call only
    for ti, entry in enumerate(raw_traces):
        where = f"trace {ti}"
        _require(isinstance(entry, dict), where, "trace entry must be an object")
        freq = entry.get("frequency", 1)
        _require(isinstance(freq, int) and not isinstance(freq, bool) and freq >= 1,
                 where, f"frequency must be a positive integer, got {freq!r}")
        raw_events = entry.get("events")
        _require(isinstance(raw_events, list), where, "'events' must be a list")
        events = []
        for ei, raw in enumerate(raw_events):
            try:  # marshal writes a type code per value: 1, "1", 1.0 and true differ
                key = marshal.dumps(raw)
            except ValueError:  # nested past marshal's depth limit; repr tells apart too
                key = repr(raw)
            if key not in built:
                built[key] = read_event(raw, f"trace {ti}, event {ei}")
            events.append(built[key])
        trace = sequence(events)
        counts[trace] = counts.get(trace, 0) + freq
    return Multiset.from_counts(counts)


def parse_log(data: bytes | str) -> EventLog:
    """Parse the log format; raises LogParseError with a location on any
    malformed syntax, unknown event tag, or event invariant violation.
    Identical raw events are built once per call and share one object."""
    return EventLog(read_traces(read_json(data, LogParseError), LOG_SCHEMA,
                                _event_from_json, Trace))


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


def _inner_matches(np: NestedNet, agent: str, activity: str,
                   label: Optional[str]) -> Tuple[str, ...]:
    w = np.elements[np.agents[agent]]
    return tuple(ti for ti in w._table.by_activity.get(activity, ())
                 if w.sync_label.get(ti) == label)


def _iter_matches(event: Event, np: NestedNet, payloads: PayloadTable) -> Iterator[_Spec]:
    """The specs (``nested._Spec``) of the steps that could record ``event``,
    in replay order, agent names where net tokens go; a sync event's once
    per combination of its participants' inner transitions. They go by
    labels, sync labels and payload shape, never by a marking, so both the
    syntactic check and the monolithic replay read them. The payload
    assignments come from the call's payload table. An event naming an
    agent outside the roster, or of an unknown class, has none."""
    names = event_agents(event)
    if any(np.agents.get(r) not in np.elements for r in names):
        return
    if isinstance(event, AgentEvent):
        for ti in _inner_matches(np, event.agent, event.activity, None):
            yield event.agent, ti
        return
    sync = isinstance(event, SyncEvent)
    for t in np._table.system.by_label.get(event.activity, ()):
        label = np.system_sync.get(t)
        if (label is not None) != sync:
            continue
        combos: List[Tuple[Tuple[str, str], ...]] = [()]
        for a, r in event.participants if sync else ():
            combos = [c + ((r, ti),) for c in combos for ti in _inner_matches(np, r, a, label)]
        if not combos:  # some participant cannot join
            continue
        for values in _table_payload(np, t, names, event.data, payloads):
            for c in combos:
                yield (t, values, c) if sync else (t, values)


def _event_matches(event: Event, np: NestedNet,
                   payloads: Optional[PayloadTable] = None) -> Tuple[_Spec, ...]:
    """Every spec of ``_iter_matches``."""
    return tuple(_iter_matches(event, np, {} if payloads is None else payloads))


def syntactically_correct(event: Event, np: NestedNet) -> EventCheck:
    """Static matchability of one event against some step of the model:
    labels, classes, sync-label agreement, and binding shape. The verdict is
    marking-independent. Unknown agent names raise RosterError."""
    return _syntactic_check(event, np, {})


def _syntactic_check(event: Event, np: NestedNet, payloads: PayloadTable) -> EventCheck:
    """``syntactically_correct`` on the call's payload table: a first match suffices."""
    _known_agents(np, event_agents(event))
    if next(_iter_matches(event, np, payloads), None) is not None:
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
                              payloads: Optional[PayloadTable] = None) -> SyntacticReport:
    """Check every event of every distinct trace (canonical order); roster
    errors are recorded as failures rather than raised. Each distinct event
    is checked once, on ``payloads`` when a caller shares a payload table."""
    payloads = {} if payloads is None else payloads
    diagnoses: Dict[Event, Optional[str]] = {}  # None: correct
    failures = []
    for ti, (trace, _) in enumerate(log.items()):
        for ei, event in enumerate(trace.events):
            diagnosis = diagnoses.get(event, False)  # False: not checked yet
            if diagnosis is False:
                diagnosis = diagnoses[event] = _diagnosis(event, np, payloads)
            if diagnosis is not None:
                failures.append(SyntacticFailure(ti, ei, diagnosis))
    return SyntacticReport(tuple(failures))


def _diagnosis(event: Event, np: NestedNet, payloads: PayloadTable) -> Optional[str]:
    try:  # a correct event's diagnosis is None
        return _syntactic_check(event, np, payloads).diagnosis
    except RosterError as exc:
        return str(exc)
