import json
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from npnconf.events import (AgentEvent, EventLog, LogParseError, SyncEvent,
                            SystemEvent, Trace, _trace_sort_key,
                            log_syntactically_correct, parse_log, serialize_log,
                            syntactically_correct)
from npnconf.multiset import Multiset, sort_key
from npnconf.nested import RosterError

from generators import random_log


def test_table_log_shape(assistant_log):
    assert len(assistant_log.items()) == 5
    assert assistant_log.weight == 9
    assert sorted(freq for _, freq in assistant_log.items()) == [1, 1, 1, 2, 4]


def test_roundtrip_fixture(assistant_log):
    data = serialize_log(assistant_log)
    again = parse_log(data)
    assert again == assistant_log
    # canonical form is a fixed point
    assert serialize_log(again) == data


def test_parse_empty_trace_list():
    log = parse_log(json.dumps({"schema": "maslog/1", "traces": []}))
    assert log.weight == 0
    assert log == EventLog()


def test_roundtrip_log_with_one_empty_trace():
    log = EventLog([Trace()])
    assert parse_log(serialize_log(log)) == log


def test_roundtrip_preserves_data_domain_tags():
    log = EventLog([Trace([
        SystemEvent("a", ["r1"], Multiset([("D1", 5), ("D2", "u")])),
        SyncEvent("b", [("f", "r1")], Multiset([("D1", 5), ("D1", 5)])),
    ])])
    data = serialize_log(log)
    doc = json.loads(data)
    assert doc["domains"] == {"D1": [5], "D2": ["u"]}
    assert parse_log(data) == log


def test_parse_reports_syntax_error_location():
    with pytest.raises(LogParseError) as exc:
        parse_log(b'{"schema": "maslog/1",\n  "traces": [}')
    assert "line 2" in str(exc.value)


def test_parse_rejects_unknown_event_tag():
    doc = {"schema": "maslog/1",
           "traces": [{"frequency": 1,
                       "events": [{"type": "teleport", "activity": "a"}]}]}
    with pytest.raises(LogParseError) as exc:
        parse_log(json.dumps(doc))
    assert "trace 0, event 0" in str(exc.value)
    assert "teleport" in str(exc.value)


def test_parse_rejects_duplicate_sync_participant():
    doc = {"schema": "maslog/1",
           "traces": [{"frequency": 1,
                       "events": [{"type": "sync", "activity": "a",
                                   "participants": [["f", "r1"], ["g", "r1"]],
                                   "data": []}]}]}
    with pytest.raises(LogParseError) as exc:
        parse_log(json.dumps(doc))
    assert "duplicate participant" in str(exc.value)


def test_parse_rejects_duplicate_system_agent():
    # a system event naming an agent twice is refused, not read as naming it once
    doc = {"schema": "maslog/1",
           "traces": [{"frequency": 1,
                       "events": [{"type": "agent", "activity": "d", "agent": "r1"},
                                  {"type": "system", "activity": "b",
                                   "involved": ["r1", "r2", "r1"], "data": []}]}]}
    with pytest.raises(LogParseError) as exc:
        parse_log(json.dumps(doc))
    assert "trace 0, event 1" in str(exc.value)
    assert "duplicate involved agent" in str(exc.value)


@pytest.mark.parametrize("freq", [True, 0])
def test_parse_rejects_non_integer_frequency(freq):
    # a JSON boolean is not a count, although Python's bool is an int
    from npnconf.projection import parse_system_log

    event = {"type": "agent", "activity": "d", "agent": "r1"}
    with pytest.raises(LogParseError, match="trace 0"):
        parse_log(json.dumps({"schema": "maslog/1",
                              "traces": [{"frequency": freq, "events": [event]}]}))
    with pytest.raises(LogParseError, match="trace 0"):
        parse_system_log(json.dumps({"schema": "maslog-sn/1",
                                     "traces": [{"frequency": freq, "events": []}]}))


@pytest.mark.parametrize("doc, message", [
    ({"schema": "maslog-sn/1"}, "document: 'traces' must be a list"),
    ({"schema": "maslog-sn/1", "traces": [{"frequency": 1}]},
     "trace 0: 'events' must be a list"),
])
def test_parse_system_log_rejects_missing_traces_or_events(doc, message):
    # both log readers walk traces alike: a missing list is malformed, not empty
    from npnconf.projection import parse_system_log

    with pytest.raises(LogParseError, match=message):
        parse_system_log(json.dumps(doc))


def test_parse_rejects_wrong_schema():
    with pytest.raises(LogParseError):
        parse_log(json.dumps({"schema": "maslog/999", "traces": []}))


def test_parse_merges_identical_trace_entries():
    event = {"type": "agent", "activity": "d", "agent": "r1"}
    doc = {"schema": "maslog/1",
           "traces": [{"frequency": 2, "events": [event]},
                      {"frequency": 3, "events": [event]}]}
    log = parse_log(json.dumps(doc))
    assert log.items() == ((Trace([AgentEvent("d", "r1")]), 5),)


def test_roundtrip_random_logs():
    rng = random.Random(123)
    for _ in range(150):
        log = random_log(rng)
        data = serialize_log(log)
        assert parse_log(data) == log
        assert serialize_log(parse_log(data)) == data


def test_sync_event_rejects_duplicate_agent():
    with pytest.raises(ValueError):
        SyncEvent("a", [("f", "r1"), ("g", "r1")])


def test_sync_event_rejects_repeated_participant():
    # a participant named twice is refused, not collapsed into one, as a
    # system event refuses an agent named twice
    with pytest.raises(ValueError, match="duplicate participant agent"):
        SyncEvent("s", [("a", "r1"), ("a", "r1")])


def test_system_event_rejects_duplicate_agent():
    with pytest.raises(ValueError, match="duplicate involved agent"):
        SystemEvent("b", ["r1", "r1"])
    with pytest.raises(ValueError, match="duplicate involved agent"):
        SystemEvent("b", iter(["r2", "r1", "r2"]))
    assert SystemEvent("b", iter(["r2", "r1"])).involved == ("r1", "r2")


# ----------------------------------------------------------------------
# syntactic correctness


def test_agent_event_correct(assistant_model):
    check = syntactically_correct(AgentEvent("d", "r1"), assistant_model)
    assert check.ok


def test_agent_event_unknown_activity(assistant_model):
    check = syntactically_correct(AgentEvent("z", "r1"), assistant_model)
    assert not check.ok
    assert "no unlabeled transition" in check.diagnosis


def test_agent_event_labeled_activity_is_not_autonomous(assistant_model):
    # f carries a sync label, so (f, r1) cannot be an element-autonomous event
    check = syntactically_correct(AgentEvent("f", "r1"), assistant_model)
    assert not check.ok


def test_sync_event_correct(assistant_model):
    event = SyncEvent("a", [("f", "r1")])
    assert syntactically_correct(event, assistant_model).ok


def test_sync_event_label_mismatch(assistant_model):
    # g synchronizes with c, not with a
    event = SyncEvent("a", [("g", "r1")])
    assert not syntactically_correct(event, assistant_model).ok


def test_system_event_correct(assistant_model):
    assert syntactically_correct(SystemEvent("b", ["r1"]), assistant_model).ok


def test_system_event_arity_mismatch(assistant_model):
    assert not syntactically_correct(SystemEvent("b", ["r1", "r2"]),
                                     assistant_model).ok
    assert not syntactically_correct(SystemEvent("b", []), assistant_model).ok
    assert not syntactically_correct(
        SystemEvent("b", ["r1"], Multiset([("D", "u")])), assistant_model).ok


def test_system_event_labeled_transition_does_not_match(assistant_model):
    # a carries a sync label, so a bare system event cannot match it
    assert not syntactically_correct(SystemEvent("a", ["r1"]), assistant_model).ok


def test_unknown_agent_raises_roster_error(assistant_model):
    with pytest.raises(RosterError):
        syntactically_correct(AgentEvent("d", "r9"), assistant_model)
    with pytest.raises(RosterError):
        syntactically_correct(SystemEvent("b", ["r9"]), assistant_model)


def test_log_syntactically_correct_fixture(assistant_model, assistant_log):
    report = log_syntactically_correct(assistant_log, assistant_model)
    assert report.ok


def test_log_syntactic_failure_located(assistant_model, assistant_log):
    traces = [t for t, _ in assistant_log.items()]
    bad = Trace(tuple(traces[0]) + (AgentEvent("z", "r1"),))
    log = EventLog(list(assistant_log.traces) + [bad])
    report = log_syntactically_correct(log, assistant_model)
    assert len(report.failures) == 1
    failure = report.failures[0]
    ti = [t for t, _ in log.items()].index(bad)
    assert (failure.trace_index, failure.event_index) == (ti, len(bad) - 1)


def test_log_syntactic_roster_failure_recorded(assistant_model):
    log = EventLog([Trace([AgentEvent("d", "r9")])])
    report = log_syntactically_correct(log, assistant_model)
    assert not report.ok
    assert "unknown agent" in report.failures[0].diagnosis


def test_empty_log_vacuously_correct(assistant_model):
    assert log_syntactically_correct(EventLog(), assistant_model).ok


def test_log_syntactic_repeated_failures_each_reported(assistant_model):
    # the same bad event and the same unknown-agent event in several traces
    # and positions: one failure per occurrence, in log order
    bad = AgentEvent("z", "r1")
    stranger = SystemEvent("b", ["r9"])
    fine = AgentEvent("d", "r1")
    log = EventLog([Trace([bad, fine, bad]), Trace([fine, stranger, bad]),
                    Trace([stranger, stranger]), Trace([fine, bad])])
    report = log_syntactically_correct(log, assistant_model)
    no_z = "no unlabeled transition with activity 'z' in class of 'r1'"
    no_r9 = "unknown agent name(s): r9"
    assert [(f.trace_index, f.event_index, f.diagnosis) for f in report.failures] == [
        (0, 1, no_z), (1, 1, no_r9), (1, 2, no_z), (2, 0, no_z), (2, 2, no_z),
        (3, 0, no_r9), (3, 1, no_r9)]


TEXT = st.sampled_from(["a", "r1", "r2", "it's", 'q"', "\\", "é", ""])
DATA = st.lists(st.tuples(TEXT, TEXT | st.integers(-3, 3)), max_size=3)
EVENTS = st.one_of(
    st.builds(AgentEvent, TEXT, TEXT),
    st.builds(SystemEvent, TEXT, st.lists(TEXT, max_size=2, unique=True), DATA),
    st.builds(SyncEvent, TEXT, st.dictionaries(TEXT, TEXT, max_size=2).map(
        lambda agents: [(a, r) for r, a in agents.items()]), DATA))


@settings(max_examples=300, deadline=None)
@given(st.lists(EVENTS, min_size=1, max_size=4).flatmap(
    lambda pool: st.lists(st.lists(st.sampled_from(pool), max_size=4), max_size=6)),
    st.lists(EVENTS, max_size=2))
def test_canonical_trace_order_is_sort_key_order(traces, fresh):
    # events repeat within and across traces as one object; ``fresh`` adds
    # traces of events equal to none or some of them but built apart. Empty
    # and one-event traces test the tuple repr's brackets and trailing comma.
    traces = [Trace(seq) for seq in traces] + [Trace(fresh), Trace(fresh[:1])]
    log = EventLog(traces)
    key = _trace_sort_key()
    assert all(key(t) == sort_key(t) for t in log.traces.distinct())
    assert [t for t, _ in log.items()] == sorted(log.traces.distinct(), key=sort_key)
