"""The fixed-schema report emitter writes the bytes of the whole-document
encoding: ``dumps_report(r) == canonical_dumps(report_to_json(r))``."""

import json
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from npnconf.cli import dumps_report, report_to_json
from npnconf.conformance import (ConformanceReport, ReplayLimits, TraceResult,
                                 TraceVerdict, check_both, check_compositional,
                                 check_monolithic)
from npnconf.events import (AgentEvent, EventLog, SyntacticFailure, SyntacticReport,
                            Trace, canonical_dumps)
from npnconf.model_io import loads_model
from npnconf.simulate import NoiseSpec, SimulationConfig, generate_log, perturb_log

from conftest import FIXTURES
from generators import random_nested_net
from test_conformance import PRECONDITION_BREAKS

CHECKERS = (check_monolithic, check_compositional, check_both)


def _assert_emitted_as_whole_document(report):
    assert dumps_report(report) == canonical_dumps(report_to_json(report))


def test_generator_models_fitting_and_noisy_logs():
    # criterion 3's first 12 models; noisy logs bring syntactic failures and
    # failure positions in every component
    rng = random.Random(20250301)
    for i in range(12):
        np = random_nested_net(rng, max_agents=4)
        fitting = generate_log(np, SimulationConfig(seed=i, trace_count=10))
        noisy, _ = perturb_log(fitting, NoiseSpec.for_model(
            np, seed=i, swap=0.4, drop=0.3, relabel=0.3, retarget=0.3))
        for log in (fitting, noisy):
            for checker in CHECKERS:
                _assert_emitted_as_whole_document(checker(log, np))


def test_empty_log(assistant_model):
    for checker in CHECKERS:
        report = checker(EventLog(), assistant_model)
        assert report.results == ()
        _assert_emitted_as_whole_document(report)


def test_inconclusive_verdicts(assistant_model, assistant_log):
    for checker in CHECKERS:
        report = checker(assistant_log, assistant_model, ReplayLimits(max_states=2))
        assert report.inconclusive
        _assert_emitted_as_whole_document(report)


def test_syntactic_failures(assistant_model, assistant_log):
    # an unknown activity and an agent outside the roster
    (trace, _), *_ = assistant_log.items()
    log = EventLog([Trace([AgentEvent("zz", "r1"), *trace]),
                    Trace([*trace, AgentEvent("d", "r9")]), trace])
    for checker in (check_compositional, check_both):
        report = checker(log, assistant_model)
        assert not report.syntactic.ok
        _assert_emitted_as_whole_document(report)


@pytest.mark.parametrize("name", sorted(PRECONDITION_BREAKS))
def test_discrepancy(name):
    edit, _, events, _ = PRECONDITION_BREAKS[name]
    doc = json.loads((FIXTURES / "assistant_model.json").read_text())
    edit(doc)
    report = check_both(EventLog([Trace(events)]), loads_model(json.dumps(doc)))
    assert report.discrepancies == (0,)
    _assert_emitted_as_whole_document(report)


NAMES = st.sampled_from(["model", "SN", "r1"]) | st.text(
    st.characters(blacklist_categories=["Cs"]) | st.sampled_from('"\\\n\t\x00\x1fé '),
    max_size=6)
VERDICTS = st.builds(TraceVerdict, st.booleans(), st.none() | st.integers(0, 10**6),
                     inconclusive=st.booleans())
RESULTS = st.builds(TraceResult, st.just(Trace()), st.integers(1, 10**6),
                    st.dictionaries(NAMES, VERDICTS, max_size=5),
                    st.sampled_from([None, True, False]))
SYNTACTIC = st.none() | st.builds(SyntacticReport, st.lists(st.builds(
    SyntacticFailure, st.integers(0, 9), st.integers(0, 9), NAMES), max_size=3).map(tuple))


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(["monolithic", "compositional", "both"]),
       st.lists(RESULTS, max_size=4), SYNTACTIC,
       st.floats(0, 1), st.booleans(), st.booleans(),
       st.lists(st.integers(0, 9), max_size=3))
def test_any_component_names(mode, results, syntactic, aggregate, overall,
                             inconclusive, discrepancies):
    # non-ASCII, quotes, backslashes and control characters in names and
    # diagnoses; blocks repeat across traces with equal verdicts
    results = results + results[:2]
    report = ConformanceReport(mode, tuple(results), syntactic, aggregate, overall,
                               inconclusive, tuple(discrepancies))
    _assert_emitted_as_whole_document(report)
