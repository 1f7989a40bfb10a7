"""The log layer works per distinct event: ``parse_log`` builds each distinct
raw event once, and both serializers encode each distinct event once and
splice its text in. These tests pin that the spliced output is byte-identical
to encoding the whole document at once, and that the per-call memos neither
merge distinct events nor move an error's location."""

import hashlib
import json
import random
import sys

import pytest

from npnconf import events
from npnconf.cli import dumps_report, report_to_json
from npnconf.conformance import check_both
from npnconf.events import (LOG_SCHEMA, AgentEvent, EventLog, LogParseError,
                            SyncEvent, SystemEvent, Trace, _event_to_json,
                            canonical_dumps, parse_log, serialize_log)
from npnconf.model_io import loads_model
from npnconf.multiset import Multiset
from npnconf.projection import (SN_LOG_SCHEMA, agent_component_log, parse_system_log,
                                project_log, serialize_system_log)
from npnconf.simulate import NoiseSpec, SimulationConfig, generate_log, perturb_log

from conftest import FIXTURES, scaled_assistant_doc
from generators import random_log, random_nested_net


def _whole_log_document(log):
    return {
        "schema": LOG_SCHEMA,
        "model": None,
        "roster": sorted(log.agent_names()),
        "domains": {dom: list(values) for dom, values in log.data_domains().items()},
        "traces": [{"frequency": freq, "events": [_event_to_json(e) for e in trace]}
                   for trace, freq in log.items()],
    }


def _whole_system_document(traces):
    return {
        "schema": SN_LOG_SCHEMA,
        "model": None,
        "traces": [{"frequency": freq,
                    "events": [{"activity": e.activity, "agents": list(e.involved),
                                "data": [[dom, value] for dom, value in e.data]}
                               for e in seq]}
                   for seq, freq in traces.items()],
    }


ODD = ['é"\\\n', "tab\there", "Ω\\u0041", "", 'q"uote', "line\nbreak\r"]


def _odd_log():
    a, b, c, d, e, f = ODD
    return EventLog([
        Trace([AgentEvent(a, b), SystemEvent(c, [b, d], [(e, f), (a, 3)]),
               SyncEvent(f, [(a, b), (c, e)], [(d, "ü")])]),
        Trace([AgentEvent(a, b)] * 3),
        Trace([SystemEvent(d, [], []), SyncEvent(a, [(a, f)], [])]),
    ])


def _logs():
    yield "fixture", parse_log((FIXTURES / "assistant_log.json").read_bytes())
    yield "empty", EventLog()
    yield "one empty trace", EventLog([Trace()])
    yield "odd names", _odd_log()
    rng = random.Random(41)
    for i in range(25):
        np = random_nested_net(rng)
        yield f"generated {i}", generate_log(np, SimulationConfig(seed=i, trace_count=15))
    for i in range(25):
        yield f"model-free {i}", random_log(rng)


def test_serializers_match_whole_document_encoding():
    checked = 0
    for name, log in _logs():
        assert serialize_log(log) == canonical_dumps(_whole_log_document(log)), name
        system_log = project_log(log, log.agent_names()).system_log
        assert serialize_system_log(system_log) == \
            canonical_dumps(_whole_system_document(system_log)), name
        checked += 1
    assert checked == 54


def test_splice_ignores_nested_traces_keys():
    # an activity, an agent and a data domain named "traces": the encoder
    # writes each as a string or a key below the top level, and only the
    # top-level "traces" list takes the spliced entries
    np = loads_model(json.dumps(scaled_assistant_doc(["r1", "traces"])))
    odd = Trace([AgentEvent("traces", "traces"),
                 SystemEvent("traces", ["traces"], [("traces", "traces")]),
                 SyncEvent("traces", [("traces", "traces")], [("traces", 1)])])
    fitting = generate_log(np, SimulationConfig(seed=3, trace_count=4))
    log = EventLog(Multiset.from_counts({**dict(fitting.items()), odd: 2}))
    assert "traces" in log.data_domains() and "traces" in log.agent_names()
    assert serialize_log(log) == canonical_dumps(_whole_log_document(log))
    system_log = project_log(log, np.agents).system_log
    assert serialize_system_log(system_log) == \
        canonical_dumps(_whole_system_document(system_log))
    report = check_both(log, np)
    assert "traces" in report.results[0].components
    assert dumps_report(report) == canonical_dumps(report_to_json(report))


def test_system_log_bytes_pinned():
    # the noisy 12-agent log of the structured-report pins, with 20 traces:
    # its SN projection's bytes are pinned across commits and read back equal
    np = loads_model(json.dumps(scaled_assistant_doc([f"r{i}" for i in range(1, 13)])))
    log, _ = perturb_log(generate_log(np, SimulationConfig(seed=5, trace_count=20)),
                         NoiseSpec.for_model(np, seed=5, swap=0.4, drop=0.3,
                                             relabel=0.3, retarget=0.3))
    system_log = project_log(log, np.agents).system_log
    assert len(system_log.distinct()) == 20
    data = serialize_system_log(system_log)
    assert hashlib.sha256(data).hexdigest() == (
        "07f948c9ed0e18027efee12619a01045dfa6f5a7d501146328832343314bbcb9")
    assert parse_system_log(data) == system_log


def test_parsers_refuse_duplicate_system_agent():
    # every system event of the fixture log given its agent twice: parse_log
    # refuses the first at its location, as parse_system_log does for a
    # projected event naming an agent twice
    doc = json.loads((FIXTURES / "assistant_log.json").read_text())
    first = None
    for ti, trace in enumerate(doc["traces"]):
        for ei, raw in enumerate(trace["events"]):
            if raw["type"] == "system":
                raw["involved"] = raw["involved"] * 2
                first = first or (ti, ei)
    with pytest.raises(LogParseError) as exc:
        parse_log(json.dumps(doc))
    assert str(exc.value).startswith(f"trace {first[0]}, event {first[1]}: ")
    assert "duplicate involved agent" in str(exc.value)
    doc = {"schema": SN_LOG_SCHEMA, "traces": [
        {"frequency": 1, "events": [{"activity": "b", "agents": ["r1"], "data": []}]},
        {"frequency": 2, "events": [{"activity": "b", "agents": ["r2"], "data": []},
                                    {"activity": "c", "agents": ["r2", "r2"], "data": []}]}]}
    with pytest.raises(LogParseError) as exc:
        parse_system_log(json.dumps(doc))
    assert str(exc.value).startswith("trace 1, event 1: duplicate agent")


def _distinct_events(log):
    return {e for trace, _ in log.items() for e in trace}


def _count_calls(monkeypatch, owner, name):
    calls = []
    original = getattr(owner, name)

    def counting(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, name, counting)
    return calls


def test_parse_builds_each_distinct_event_once(monkeypatch):
    built = _count_calls(monkeypatch, events, "_event_from_json")
    log = parse_log((FIXTURES / "assistant_log.json").read_bytes())
    distinct = _distinct_events(log)
    assert len(distinct) == 12
    assert len(built) == len(distinct)
    occurrences = [e for trace, _ in log.items() for e in trace]
    assert len(occurrences) > len(distinct)
    assert len({id(e) for e in occurrences}) == len(distinct)


def test_serializers_encode_each_distinct_event_once(monkeypatch, assistant_log):
    calls = _count_calls(monkeypatch, json, "dumps")
    rendered = _count_calls(monkeypatch, events, "_event_to_json")
    serialize_log(assistant_log)
    assert len(rendered) == len(_distinct_events(assistant_log)) == 12
    assert len(calls) <= len(_distinct_events(assistant_log)) + 1
    system_log = project_log(assistant_log, assistant_log.agent_names()).system_log
    calls.clear()
    serialize_system_log(system_log)
    assert len(calls) <= len({e for seq, _ in system_log.items() for e in seq}) + 1


def test_log_layer_reads_each_event_hash_and_repr_once(monkeypatch, assistant_model):
    # every reader of an event's hash or repr (sorts, per-call memos, log
    # headers, emitters) gets the value the event computed once; counting
    # holds each event, so no two of them share an id
    computed = {}
    for cls in (AgentEvent, SystemEvent, SyncEvent):
        for name in ("_field_hash", "_field_repr"):
            def counting(e, original=getattr(cls, name), name=name):
                computed.setdefault((id(e), name), [e, 0])[1] += 1
                return original(e)
            monkeypatch.setattr(cls, name, counting)
    log = parse_log((FIXTURES / "assistant_log.json").read_bytes())
    check_both(log, assistant_model)
    components = project_log(log, assistant_model.agents)
    serialize_system_log(components.system_log)
    built = _count_calls(monkeypatch, AgentEvent, "__init__")
    activities = 0
    for agent, traces in components.agent_logs.items():
        serialize_log(agent_component_log(agent, traces))
        activities += len(set().union(*traces.distinct()))
    assert 0 < len(built) <= activities
    assert {(type(e).__name__, name) for (_, name), (e, _) in computed.items()} == {
        (kind, name) for kind in ("AgentEvent", "SystemEvent", "SyncEvent")
        for name in ("_field_hash", "_field_repr")}
    assert max(n for _, n in computed.values()) == 1


def _system_event(value):
    return {"type": "system", "activity": "a", "involved": [], "data": [["D", value]]}


def test_raw_event_keys_are_exact():
    # one raw event written alike is one object; a value of another JSON type
    # is another event; keys written in another order give an equal event
    reordered = dict(reversed(list(_system_event(1).items())))
    doc = {"schema": LOG_SCHEMA, "traces": [{"events": [
        _system_event(1), _system_event("1"), reordered, _system_event(1)]}]}
    (trace, _), = parse_log(json.dumps(doc)).items()
    first, text, other_order, again = trace
    assert again is first and other_order == first and hash(other_order) == hash(first)
    assert text != first and text.data == Multiset([("D", "1")])


def test_event_nested_past_the_key_encoders_depth_is_read():
    # an unread key nested deeper than marshal writes: the parser, run with
    # a recursion limit that lets JSON decode it, still reads the event
    deep = "[" * 2500 + "]" * 2500
    event = '{"type": "agent", "activity": "a", "agent": "r1", "note": %s}' % deep
    text = '{"schema": "%s", "traces": [{"events": [%s, %s]}]}' % (LOG_SCHEMA, event, event)
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(10000)
    try:
        log = parse_log(text)
    finally:
        sys.setrecursionlimit(limit)
    assert [trace.events for trace, _ in log.items()] == [(AgentEvent("a", "r1"),) * 2]


def test_parse_keeps_values_of_different_types_apart():
    doc = {"schema": LOG_SCHEMA,
           "traces": [{"events": [_system_event(1), _system_event("1")]}]}
    (trace, _), = parse_log(json.dumps(doc)).items()
    assert [e.data for e in trace] == [Multiset([("D", 1)]), Multiset([("D", "1")])]


@pytest.mark.parametrize("bad, message", [
    (True, "trace 1, event 1: data value True must be a string or integer"),
    (1.0, "trace 1, event 1: data value 1.0 must be a string or integer"),
])
def test_bad_event_after_a_like_valid_one_keeps_its_location(bad, message):
    doc = {"schema": LOG_SCHEMA,
           "traces": [{"events": [_system_event(1)]},
                      {"events": [_system_event(1), _system_event(bad)]}]}
    with pytest.raises(LogParseError) as exc:
        parse_log(json.dumps(doc))
    assert str(exc.value) == message


def test_bad_agent_name_after_a_like_valid_one_keeps_its_location():
    doc = {"schema": LOG_SCHEMA,
           "traces": [{"events": [{"type": "agent", "activity": "a", "agent": "1"}]},
                      {"events": [{"type": "agent", "activity": "a", "agent": 1}]}]}
    with pytest.raises(LogParseError) as exc:
        parse_log(json.dumps(doc))
    assert str(exc.value) == "trace 1, event 0: agent event needs a string 'agent'"
