import gc
import hashlib
import json
import random
import sys
from dataclasses import replace

import pytest

from npnconf.colored import ColoredMarking, fire_colored, is_run_colored
from npnconf.conformance import (ReplayLimits, TraceVerdict, check_both,
                                 check_compositional, check_monolithic, fits_agent,
                                 fits_system)
from npnconf.events import (AgentEvent, EventLog, SyncEvent, SystemEvent,
                            Trace, parse_log, syntactically_correct)
from npnconf.model_io import load_model, loads_model
from npnconf.multiset import Multiset, sort_key
from npnconf.nested import (NetToken, NpMarking, RosterError, SystemStep, apply_step,
                            check_agreement, enabled_steps, system_bindings)
from npnconf.nets import fire
from npnconf.projection import project_log, project_system_net
from npnconf.simulate import NoiseSpec, SimulationConfig, generate_log, perturb_log

from conftest import FIXTURES, atom_token_doc, data_token_doc, scaled_assistant_doc
from generators import random_nested_net
from worked_example import trace1
from test_nested import meet_model, s_b_model


@pytest.mark.parametrize("checker, agent", [(check_compositional, "SN"), (check_both, "SN"),
                                            (check_both, "model")],
                         ids=["compositional-SN", "both-SN", "both-model"])
def test_checkers_refuse_agent_named_after_report_component(checker, agent):
    # in a model loaded unvalidated, the agent's verdict would silently
    # replace the component's under the same key
    np = loads_model(json.dumps(scaled_assistant_doc([agent, "r2"])), validate=False)
    log = parse_log(FIXTURES.joinpath("assistant_log.json").read_text()
                    .replace('"r1"', json.dumps(agent)))
    with pytest.raises(RosterError, match=f"agent '{agent}' takes the name of a report"):
        checker(log, np)


def test_fits_agent_worked_example(assistant_model, assistant_log):
    components = project_log(assistant_log, assistant_model.agents)
    w = assistant_model.elements["customer"]
    verdicts = fits_agent(components.agent_logs["r1"], w)
    assert len(verdicts) == 4
    assert all(v.fits for v in verdicts.values())


def test_fits_agent_failure_position(customer_net):
    verdicts = fits_agent(Multiset([("d", "d", "f")]), customer_net)
    verdict = verdicts[("d", "d", "f")]
    assert not verdict.fits
    assert verdict.failure_position == 1


def test_fits_agent_empty_log(customer_net):
    assert fits_agent(Multiset(), customer_net) == {}


def test_fits_system_worked_example(assistant_model, assistant_log):
    components = project_log(assistant_log, assistant_model.agents)
    component = project_system_net(assistant_model)
    verdicts = fits_system(components.system_log, component)
    assert len(verdicts) == 5
    assert all(v.fits for v in verdicts.values())


def test_fits_system_failure_position(assistant_model):
    component = project_system_net(assistant_model)
    seq = (SystemEvent("b", {"r1"}), SystemEvent("a", {"r1"}))
    verdict = fits_system(Multiset([seq]), component)[seq]
    assert not verdict.fits
    assert verdict.failure_position == 0


def test_fits_system_empty_log(assistant_model):
    assert fits_system(Multiset(), project_system_net(assistant_model)) == {}


def test_monolithic_fixture_fits(assistant_model, assistant_log):
    report = check_monolithic(assistant_log, assistant_model)
    assert report.overall
    assert report.aggregate == 1.0
    assert report.weight == 9
    assert not report.inconclusive


def test_monolithic_swapped_events_fail_at_zero(assistant_model):
    events = list(trace1().events)
    events[0], events[2] = events[2], events[0]
    report = check_monolithic(EventLog([Trace(events)]), assistant_model)
    assert not report.overall
    verdict = report.results[0].components["model"]
    assert verdict.failure_position == 0


def test_monolithic_empty_log(assistant_model):
    report = check_monolithic(EventLog(), assistant_model)
    assert report.overall
    assert report.aggregate == 1.0


def test_compositional_fixture_fits(assistant_model, assistant_log):
    report = check_compositional(assistant_log, assistant_model)
    assert report.overall
    assert report.syntactic.ok
    assert set(report.results[0].components) == {"SN", "r1", "r2"}


def test_compositional_syntactic_failure_still_reports_components(assistant_model):
    bad = Trace(tuple(trace1()) + (AgentEvent("z", "r1"),))
    report = check_compositional(EventLog([bad]), assistant_model)
    assert not report.overall
    assert not report.syntactic.ok
    result = report.results[0]
    assert result.syntactic_ok is False
    # component checks are still reported; dropping the junk event leaves
    # projections that replay fine
    assert result.components["SN"].fits
    assert result.components["r2"].fits


def test_compositional_attributes_failure_to_component(assistant_model):
    # r2 skips its middle activity: its projection <d, g> cannot replay,
    # while the system projection stays fine
    trace = Trace([
        AgentEvent("d", "r2"), AgentEvent("d", "r1"), AgentEvent("h", "r1"),
        SyncEvent("c", [("g", "r1")]), SyncEvent("c", [("g", "r2")]),
    ])
    report = check_compositional(EventLog([trace]), assistant_model)
    result = report.results[0]
    assert not report.overall
    assert not result.components["r2"].fits
    assert result.components["r2"].failure_position == 1
    assert result.components["SN"].fits
    assert result.components["r1"].fits
    assert result.syntactic_ok


def test_check_both_fixture_no_discrepancies(assistant_model, assistant_log):
    report = check_both(assistant_log, assistant_model)
    assert report.overall
    assert report.mode == "both"
    assert report.discrepancies == ()
    assert set(report.results[0].components) == {"model", "SN", "r1", "r2"}


def test_check_both_on_roster_violations_agrees(assistant_model):
    log = EventLog([Trace([AgentEvent("d", "r9")]),
                    Trace([SystemEvent("b", ["r9"])])])
    report = check_both(log, assistant_model)
    assert not report.overall
    assert report.discrepancies == ()
    assert all(not r.fits for r in report.results)


def test_inconclusive_is_distinct_from_misfit(assistant_model, assistant_log):
    report = check_monolithic(assistant_log, assistant_model,
                              ReplayLimits(max_states=1))
    assert report.inconclusive
    assert not report.overall
    for result in report.results:
        verdict = result.components["model"]
        assert verdict.inconclusive
        assert verdict.failure_position is None


def test_multi_participant_sync_both_modes():
    np = meet_model()
    trace = Trace([SyncEvent("rendezvous", [("join", "q1"), ("join", "q2")])])
    report = check_both(EventLog([trace]), np)
    assert report.overall
    assert report.discrepancies == ()
    # missing one participant must fail in both modes
    broken = Trace([SyncEvent("rendezvous", [("join", "q1")])])
    report = check_both(EventLog([broken]), np)
    assert not report.overall
    assert report.discrepancies == ()


def _relabel(transitions, tid, activity):
    next(t for t in transitions if t["id"] == tid)["activity"] = activity


def _element_clash(doc):
    # c_e (unlabeled) takes the activity of c_f (sync s1)
    _relabel(doc["element_nets"]["customer"]["transitions"], "c_e", "f")


def _system_clash(doc):
    # s_c (sync s2) takes the activity of s_a (sync s1)
    _relabel(doc["system_net"]["transitions"], "s_c", "a")


def _sync_status_clash(doc):
    # s_b (unlabeled) takes the activity of s_a (sync s1)
    _relabel(doc["system_net"]["transitions"], "s_b", "a")


def _final_off_sink(doc):
    doc["final_markings"][0]["net_places"]["s_p2"][0]["marking"] = {"c_p2": 1}


# Each edit breaks the agreement precondition, and the trace is one the
# components accept but the whole model rejects at the given event.
PRECONDITION_BREAKS = {
    "element-sync-clash": (_element_clash, "activity 'f' has transitions with different", [
        AgentEvent("d", "r1"), SyncEvent("a", [("f", "r1")]), AgentEvent("f", "r1"),
        SystemEvent("b", ["r1"]), AgentEvent("d", "r2"), AgentEvent("h", "r2"),
        SyncEvent("c", [("g", "r2")])], 1),
    "system-sync-clash": (_system_clash, "activity 'a' has transitions with different", [
        AgentEvent("d", "r1"), AgentEvent("h", "r1"), SyncEvent("a", [("g", "r1")]),
        SystemEvent("b", ["r1"]), AgentEvent("d", "r2"), AgentEvent("h", "r2"),
        SyncEvent("a", [("g", "r2")])], 3),
    "system-sync-status-clash": (_sync_status_clash,
                                 "activity 'a' has transitions with different", [
        AgentEvent("d", "r1"), AgentEvent("h", "r1"), SystemEvent("a", ["r1"]),
        SyncEvent("a", [("f", "r1")]), AgentEvent("d", "r2"), AgentEvent("h", "r2"),
        SyncEvent("c", [("g", "r2")])], 2),
    "final-marking-off-sink": (_final_off_sink, "is not one token on sink", list(trace1()), 8),
}


@pytest.mark.parametrize("name", sorted(PRECONDITION_BREAKS))
def test_precondition_break_is_flagged_and_disagrees(name):
    edit, violation, events, position = PRECONDITION_BREAKS[name]
    doc = json.loads((FIXTURES / "assistant_model.json").read_text())
    edit(doc)
    np = loads_model(json.dumps(doc))
    violations = check_agreement(np)
    assert len(violations) == 1 and violation in violations[0]
    report = check_both(EventLog([Trace(events)]), np)
    assert report.discrepancies == (0,)
    result = report.results[0]
    assert result.syntactic_ok
    assert result.components["model"] == TraceVerdict(False, failure_position=position)
    assert all(v.fits for c, v in result.components.items() if c != "model")


def _random_final_off_sink(np):
    # the first agent of the final marking ends on its source instead
    (final,) = np.final_markings
    place, token = next(final.iter_tokens())
    moved = NetToken(token.agent, np.agent_class(token.agent).initial_marking)
    return replace(np, final_markings=[NpMarking(
        {p: [moved if tk == token else tk for tk in toks] for p, toks in final.net_tokens},
        final.atoms)])


def _random_element_clash(np):
    # an unlabeled element transition takes the activity of a labeled one
    for cls, w in sorted(np.elements.items()):
        plain = sorted(set(w.activity_label) - set(w.sync_label))
        if w.sync_label and plain:
            activity = {**w.activity_label, plain[0]: w.activity_label[min(w.sync_label)]}
            return replace(np, elements={**np.elements,
                                         cls: replace(w, activity_label=activity)})
    return None


def _random_sync_status_clash(np):
    # an unlabeled system transition takes the activity of a labeled one
    plain = sorted(set(np.system_activity) - set(np.system_sync))
    if not (np.system_sync and plain):
        return None
    activity = {**np.system_activity, plain[0]: np.system_activity[min(np.system_sync)]}
    return replace(np, system_activity=activity)


RANDOM_MUTANTS = {"final-marking-off-sink": _random_final_off_sink,
                  "element-sync-clash": _random_element_clash,
                  "system-sync-status-clash": _random_sync_status_clash}


def test_every_discrepancy_falls_on_a_flagged_model():
    # criterion 3's first 40 models; logs are simulated from the unmutated
    # model only, since a mutant's unreachable final marking exhausts the
    # simulator's budget
    rng = random.Random(20250301)
    mutants = {name: 0 for name in RANDOM_MUTANTS}
    disagreeing = {name: 0 for name in RANDOM_MUTANTS}
    for i in range(40):
        np = random_nested_net(rng, max_agents=4)
        fitting = generate_log(np, SimulationConfig(seed=i, trace_count=20))
        noise = NoiseSpec.for_model(np, seed=i, swap=0.4, drop=0.3,
                                    relabel=0.3, retarget=0.3)
        logs = (fitting, perturb_log(fitting, noise)[0])
        for name, mutate in RANDOM_MUTANTS.items():
            mutant = mutate(np)
            if mutant is None:
                continue
            mutants[name] += 1
            if any(check_both(log, mutant).discrepancies for log in logs):
                assert check_agreement(mutant), f"model {i}, {name}: unflagged discrepancy"
                disagreeing[name] += 1
    assert disagreeing["final-marking-off-sink"] == mutants["final-marking-off-sink"] == 40
    assert mutants["element-sync-clash"] and mutants["system-sync-status-clash"]


def test_witnesses_replay_soundly(assistant_model, assistant_log):
    report = check_monolithic(assistant_log, assistant_model)
    for result in report.results:
        witness = result.components["model"].witness
        m = assistant_model.initial_marking
        for step in witness:
            m = apply_step(assistant_model, m, step)
        assert m in assistant_model.final_markings

    components = project_log(assistant_log, assistant_model.agents)
    w = assistant_model.elements["customer"]
    for seq, verdict in fits_agent(components.agent_logs["r1"], w).items():
        m = w.initial_marking
        for t in verdict.witness:
            m = fire(w.net, m, t)
        assert m == w.final_marking

    component = project_system_net(assistant_model)
    for seq, verdict in fits_system(components.system_log, component).items():
        m = component.net.initial_marking
        for t, b in verdict.witness:
            m = fire_colored(component.net, m, t, b)
        assert m in component.net.final_markings


def test_monotonicity_appending_never_fixes(assistant_model):
    rng = random.Random(55)
    base = list(trace1().events)
    bad = Trace([base[1], base[0]] + base[2:])  # starts with (d, r2), (d, r1)... broken later
    events = [AgentEvent("h", "r1")] + base  # h first can never replay
    assert not check_monolithic(EventLog([Trace(events)]), assistant_model).overall
    for _ in range(10):
        extended = events + [rng.choice(base)]
        report = check_monolithic(EventLog([Trace(extended)]), assistant_model)
        assert not report.overall
        events = extended


def test_equivalence_on_random_models_small():
    rng = random.Random(2024)
    for i in range(25):
        np = random_nested_net(rng)
        log = generate_log(np, SimulationConfig(seed=i, trace_count=8))
        noise = NoiseSpec.for_model(np, seed=i, swap=0.4, drop=0.3,
                                    relabel=0.3, retarget=0.3)
        noisy, _ = perturb_log(log, noise)
        for candidate in (log, noisy):
            report = check_both(candidate, np)
            assert report.discrepancies == ()
            assert not report.inconclusive
        assert check_both(log, np).overall


def test_generated_logs_fit_small():
    rng = random.Random(31337)
    for i in range(10):
        np = random_nested_net(rng)
        log = generate_log(np, SimulationConfig(seed=1000 + i, trace_count=6))
        assert check_monolithic(log, np).overall
        assert check_compositional(log, np).overall


def _witness_digest(log, np):
    report = check_monolithic(log, np)
    witnesses = tuple(r.components["model"].witness for r in report.results)
    return hashlib.sha256(repr(witnesses).encode()).hexdigest()


def test_monolithic_witnesses_pinned(assistant_model, assistant_log):
    # pinned across commits: a change in exploration order shows here
    assert _witness_digest(assistant_log, assistant_model) == (
        "0b237c18063b161018ee3d6c45b832c947f28178cbd6fa75f2e24357519441f6")


def test_monolithic_witnesses_pinned_twelve_agents():
    np = loads_model(json.dumps(scaled_assistant_doc([f"r{i}" for i in range(1, 13)])))
    log = generate_log(np, SimulationConfig(seed=5, trace_count=3))
    assert _witness_digest(log, np) == (
        "3d5f3f40ff98b720bfe73d6bc1a607f8e3b76cedafd9cd9fa2fd3c4568e5cff9")


def test_monolithic_sort_key_calls_bounded():
    # A guard that does not depend on machine speed. Before the replay read
    # the model's label index and memos, this check made 50 sort_key calls
    # (fresh model and log, so no cache starts warm); it makes 20 now and
    # may make at most half the old count.
    np = load_model(FIXTURES / "assistant_model.json")
    log = parse_log((FIXTURES / "assistant_log.json").read_bytes())
    code = sort_key.__code__
    calls = 0

    def count(frame, event, arg):
        nonlocal calls
        if event == "call" and frame.f_code is code:
            calls += 1

    sys.setprofile(count)
    try:
        report = check_monolithic(log, np)
    finally:
        sys.setprofile(None)
    assert report.overall
    assert calls <= 25


def _component_verdict_digest(log, np):
    report = check_compositional(log, np)
    verdicts = tuple(tuple(sorted(r.components.items())) for r in report.results)
    return hashlib.sha256(repr(verdicts).encode()).hexdigest()


def test_compositional_witnesses_pinned(assistant_model, assistant_log):
    # every component's verdict and witness, pinned across commits
    assert _component_verdict_digest(assistant_log, assistant_model) == (
        "387eae76e4a90fa64516920b1aa4cd8886413c4e47926bfb655c4e63f5926c03")


def test_compositional_witnesses_pinned_twelve_agents():
    np = loads_model(json.dumps(scaled_assistant_doc([f"r{i}" for i in range(1, 13)])))
    log = generate_log(np, SimulationConfig(seed=5, trace_count=3))
    assert _component_verdict_digest(log, np) == (
        "56da9fffb766f5c989eec1d188e907af848476e4dde9e907815f1dc0f0c37cbf")


def test_compositional_sort_key_calls_bounded():
    # Machine-independent guard: before the system-component replay built
    # each candidate list once per check, this check made 39 sort_key calls
    # (fresh model and log); it may make at most 25.
    np = load_model(FIXTURES / "assistant_model.json")
    log = parse_log((FIXTURES / "assistant_log.json").read_bytes())
    code = sort_key.__code__
    calls = 0

    def count(frame, event, arg):
        nonlocal calls
        if event == "call" and frame.f_code is code:
            calls += 1

    sys.setprofile(count)
    try:
        report = check_compositional(log, np)
    finally:
        sys.setprofile(None)
    assert report.overall
    assert calls <= 25


def test_compositional_replays_each_class_trace_once(monkeypatch):
    # A verdict depends on the agent's class and projected trace, not on the
    # agent: one element-net replay per distinct (class, projection) pair.
    from npnconf import conformance
    from npnconf.projection import project_trace_agents

    np = loads_model(json.dumps(scaled_assistant_doc([f"r{i}" for i in range(1, 13)])))
    log = generate_log(np, SimulationConfig(seed=5, trace_count=3))
    noisy, _ = perturb_log(log, NoiseSpec.for_model(np, seed=5, swap=0.4, drop=0.3,
                                                    relabel=0.3, retarget=0.3))
    original = conformance.is_run_wf
    calls = 0

    def counting(*args, **kwargs):
        nonlocal calls
        calls += 1
        return original(*args, **kwargs)

    monkeypatch.setattr(conformance, "is_run_wf", counting)
    roster = sorted(np.agents)
    for lg in (log, noisy):
        projections = [(r, at) for trace, _ in lg.items()
                       for r, at in project_trace_agents(trace, roster).items()]
        pairs = {(np.agents[r], at) for r, at in projections}
        assert len(pairs) < len(set(projections))
        calls = 0
        check_compositional(lg, np)
        assert calls == len(pairs)


def test_compositional_components_are_the_projected_logs_verdicts():
    # The paper's decomposition: each trace's component verdicts are those
    # of its projections in the projected logs, replayed by fits_system on
    # the system component and by fits_agent on the agent's class net.
    from npnconf.conformance import SYSTEM_COMPONENT
    from npnconf.projection import project_trace_system
    from oracles import project_trace_agent

    rng = random.Random(20250301)  # criterion 3's first 40 models
    cases = []
    for i in range(40):
        np = random_nested_net(rng, max_agents=4)
        log = generate_log(np, SimulationConfig(seed=i, trace_count=20))
        noisy, _ = perturb_log(log, NoiseSpec.for_model(np, seed=i, swap=0.4, drop=0.3,
                                                        relabel=0.3, retarget=0.3))
        cases += [(np, log), (np, noisy)]
    doc, _, noisy = _twelve_agent_logs()
    cases.append((loads_model(doc), noisy))
    checked = 0
    for np, log in cases:
        components = project_log(log, np.agents)
        system = fits_system(components.system_log, project_system_net(np))
        agents = {r: fits_agent(components.agent_logs[r], np.elements[cls])
                  for r, cls in np.agents.items()}
        for result in check_compositional(log, np).results:
            assert set(result.components) == {SYSTEM_COMPONENT} | set(np.agents)
            st = project_trace_system(result.trace)
            assert result.components[SYSTEM_COMPONENT] == system[st]
            for r in np.agents:
                assert result.components[r] == agents[r][project_trace_agent(result.trace, r)]
            checked += 1
    assert checked > 1000


def test_max_states_verdicts_pinned():
    # Pinned across commits: each replay counts visited states at the same
    # point of its search, so every limit leaves the same components
    # inconclusive. Only the limit of 2 cuts agent replays short.
    np = loads_model(json.dumps(scaled_assistant_doc([f"r{i}" for i in range(1, 13)])))
    log, _ = perturb_log(generate_log(np, SimulationConfig(seed=5, trace_count=6)),
                         NoiseSpec.for_model(np, seed=5, swap=0.4, drop=0.3,
                                             relabel=0.3, retarget=0.3))
    verdicts = []
    inconclusive = []
    for k in (2, 10, 20, 30, 40, 60):
        report = check_both(log, np, ReplayLimits(max_states=k))
        components = [(name, v.fits, v.failure_position, v.inconclusive)
                      for r in report.results for name, v in sorted(r.components.items())]
        verdicts.append(components)
        inconclusive.append(sum(c[3] for c in components))
    assert inconclusive == [77, 11, 6, 2, 2, 0]
    assert hashlib.sha256(repr(verdicts).encode()).hexdigest() == (
        "0dfba93c8c3472437b08fadd2d2a49a1efc56483fd9bb17fb960505792a92f8d")


def _count_calls(monkeypatch, module, name):
    """Count the calls of ``module.name`` from every npnconf module that
    holds it; returns a one-element list holding the count."""
    original = getattr(module, name)
    calls = [0]

    def counting(*args, **kwargs):
        calls[0] += 1
        return original(*args, **kwargs)

    for owner in list(sys.modules.values()):
        if (getattr(owner, "__name__", "").startswith("npnconf")
                and getattr(owner, name, None) is original):
            monkeypatch.setattr(owner, name, counting)
    return calls


def _twelve_agent_logs():
    """The 12-agent model document, a simulated log of it and a noisy copy."""
    doc = json.dumps(scaled_assistant_doc([f"r{i}" for i in range(1, 13)]))
    np = loads_model(doc)
    log = generate_log(np, SimulationConfig(seed=5, trace_count=3))
    noisy, _ = perturb_log(log, NoiseSpec.for_model(np, seed=5, swap=0.4, drop=0.3,
                                                    relabel=0.3, retarget=0.3))
    return doc, log, noisy


def test_monolithic_computes_payload_matches_once(monkeypatch, assistant_model,
                                                  assistant_log):
    # Machine-independent guard: the payload matches of an event do not
    # depend on the marking, so one check computes them once per distinct
    # system or sync event and candidate transition, and only for events the
    # replay reaches; check_both's two halves read one table. Counts before
    # the replay read one match table per check: 15 (fixture), 61 (12-agent
    # log) and 8 (its noisy copy); check_both made 18, 93 and 70 before its
    # halves shared one. One payload table per check call enumerates each
    # distinct (transition, agents, data) payload once, for the syntactic
    # check and the system component alike: check_compositional and
    # check_both made 12, 62 and 62 before.
    from npnconf import nested

    calls = _count_calls(monkeypatch, nested, "_payload_assignments")

    def count(check, log, np):
        calls[0] = 0
        check(log, np)
        return calls[0]

    doc, log, noisy = _twelve_agent_logs()
    np = loads_model(doc)
    for check, bounds in ((check_monolithic, (6, 31, 8)), (check_compositional, (6, 31, 31)),
                          (check_both, (6, 31, 31))):
        assert count(check, assistant_log, assistant_model) <= bounds[0]
        assert count(check, log, np) <= bounds[1]
        assert count(check, noisy, np) <= bounds[2]


def test_parsed_inner_markings_compare_by_identity(monkeypatch):
    # Machine-independent guard: a loaded model holds one object per distinct
    # inner marking, so memo lookups keyed by an initial inner marking hit by
    # identity instead of calling Multiset.__eq__. Simulating the 12-agent
    # log, perturbing it and running check_both on both logs made 1831 calls
    # while each parsed token carried its own inner marking (313 after).
    np = loads_model(json.dumps(scaled_assistant_doc([f"r{i}" for i in range(1, 13)])))
    original = Multiset.__eq__
    calls = [0]

    def counting(self, other):
        calls[0] += 1
        return original(self, other)

    monkeypatch.setattr(Multiset, "__eq__", counting)
    log = generate_log(np, SimulationConfig(seed=5, trace_count=3))
    noisy, _ = perturb_log(log, NoiseSpec.for_model(np, seed=5, swap=0.4, drop=0.3,
                                                    relabel=0.3, retarget=0.3))
    check_both(log, np)
    check_both(noisy, np)
    assert calls[0] <= 1831 // 2


def test_element_net_firings_memoised_per_net(monkeypatch, assistant_log):
    # Machine-independent guard: each element net memoises its firings by
    # inner marking, for both modes and every agent of its class, so on a
    # freshly loaded model check_both calls nets.fire once per distinct
    # (inner marking, transition) it fires. Before the memo moved onto the
    # element net: 17 (fixture), 17 (12-agent log) and 19 (its noisy copy).
    from npnconf import nets

    calls = _count_calls(monkeypatch, nets, "fire")
    doc, log, noisy = _twelve_agent_logs()
    for load, lg in ((lambda: load_model(FIXTURES / "assistant_model.json"), assistant_log),
                     (lambda: loads_model(doc), log), (lambda: loads_model(doc), noisy)):
        np = load()
        calls[0] = 0
        check_both(lg, np)
        assert calls[0] <= 5


def test_monolithic_successor_memo_is_transparent(assistant_model):
    # The check memoises the moves of repeated (marking, event) pairs across
    # traces; a trace's verdict (fit, failure position, witness and
    # inconclusiveness) must be that of the trace checked alone, also when
    # the state limit cuts searches short.
    rng = random.Random(20250301)
    cases = [(np, generate_log(np, SimulationConfig(seed=i, trace_count=20)), i)
             for i, np in enumerate(random_nested_net(rng, max_agents=4) for _ in range(40))]
    cases.append((assistant_model,
                  generate_log(assistant_model, SimulationConfig(seed=3, trace_count=200)), 3))
    compared = 0
    for np, log, seed in cases:
        noisy, _ = perturb_log(log, NoiseSpec.for_model(np, seed=seed, swap=0.4, drop=0.3,
                                                        relabel=0.3, retarget=0.3))
        for lg in (log, noisy):
            for limits in (ReplayLimits(), ReplayLimits(max_states=3)):
                for r in check_monolithic(lg, np, limits).results:
                    alone = check_monolithic(EventLog([r.trace]), np, limits).results[0]
                    assert r.components == alone.components
                    compared += 1
    assert compared > 1000


def test_monolithic_expands_repeated_pairs_once(monkeypatch, assistant_model):
    # Machine-independent guard: one check builds the moves of a repeated
    # (marking, event) pair once, not once per trace reaching it. Counted are
    # the expansions that fire an event's matches (``_moves``). On 1000
    # simulated traces of the worked example the check would make 2810
    # without the memo, 3777 on the noisy copy; it makes 120 and 427. The
    # 12-agent logs repeat few pairs: 133 and 39 either way.
    from npnconf import conformance

    calls = _count_calls(monkeypatch, conformance, "_moves")
    log = generate_log(assistant_model, SimulationConfig(seed=3, trace_count=1000))
    noisy, _ = perturb_log(log, NoiseSpec.for_model(assistant_model, seed=3, swap=0.4,
                                                    drop=0.3, relabel=0.3, retarget=0.3))
    doc, log12, noisy12 = _twelve_agent_logs()
    np12 = loads_model(doc)
    for lg, np, bound in ((log, assistant_model, 300), (noisy, assistant_model, 600),
                          (log12, np12, 133), (noisy12, np12, 39)):
        calls[0] = 0
        check_monolithic(lg, np)
        assert 0 < calls[0] <= bound


def test_monolithic_evaluates_each_local_state_once(monkeypatch):
    # Machine-independent guard: an event's matches are evaluated
    # (``_spec_delta``) once per local state of a marking (the located
    # tokens of the event's agents and the atoms), not once per marking.
    # Firing every match of every first-seen (marking, event) pair made 133
    # and 37 evaluations on the 12-agent logs; it is 65 and 30. The kept
    # deltas hold no marking.
    from npnconf import conformance, nested
    from test_simulate import _markings_in

    calls = _count_calls(monkeypatch, nested, "_spec_delta")
    maps = {}
    moves = conformance._moves

    def recording(np, m, event, found, local):
        maps[id(local)] = local
        return moves(np, m, event, found, local)

    monkeypatch.setattr(conformance, "_moves", recording)
    doc, log, noisy = _twelve_agent_logs()
    np = loads_model(doc)
    for lg, bound in ((log, 65), (noisy, 30)):
        calls[0] = 0
        maps.clear()
        check_monolithic(lg, np)
        assert 0 < calls[0] <= bound
        assert sum(map(len, maps.values())) > 0
        assert _markings_in(list(maps.values())) == 0


def test_monolithic_moves_markings_only_to_judge_new_local_states(monkeypatch):
    # Machine-independent guard: the replay searches over interned states
    # and moves a kept move's state by its slot updates, so a marking is
    # moved (``NpMarking._moved``) only where a match of a new local state
    # is evaluated. Moving each kept move's marking made 133 and 36 moves on
    # the 12-agent logs, against 65 and 30 evaluations.
    from npnconf import nested
    from npnconf.nested import NpMarking

    evaluated = _count_calls(monkeypatch, nested, "_spec_delta")
    moved = [0]
    original = NpMarking._moved

    def counting(self, *args):
        moved[0] += 1
        return original(self, *args)

    monkeypatch.setattr(NpMarking, "_moved", counting)
    doc, log, noisy = _twelve_agent_logs()
    np = loads_model(doc)
    for lg, bound in ((log, 65), (noisy, 30)):
        evaluated[0] = moved[0] = 0
        check_monolithic(lg, np)
        assert 0 < moved[0] <= evaluated[0]
        assert moved[0] <= bound


def test_local_state_holds_the_atoms(monkeypatch):
    # b of r2 meets r2 on s_p1 with two tokens on s_q in one trace and with
    # one in the other (see ``atom_token_doc``). Every expansion the check
    # makes, served from the kept deltas or not, equals the reference, and
    # both traces fit.
    from npnconf import conformance
    from npnconf.events import _event_matches
    from npnconf.nested import _build_step
    from oracles import mono_moves

    np = loads_model(json.dumps(atom_token_doc()))

    def ready(r):
        return [AgentEvent("d", r), AgentEvent("h", r), SyncEvent("a", [("f", r)])]

    b1, b2 = SystemEvent("b", ["r1"]), SystemEvent("b", ["r2"])
    log = EventLog([Trace(ready("r1") + ready("r2") + [b2, b1]),
                    Trace(ready("r1") + [b1] + ready("r2") + [b2])])
    expanded = []
    moves = conformance._moves

    def recording(table, s, event, found, local):
        expanded.append((table, s, event, found, local))
        return moves(table, s, event, found, local)

    monkeypatch.setattr(conformance, "_moves", recording)
    assert check_monolithic(log, np).overall
    for table, s, event, found, local in expanded:
        m = table.marking(s)
        got = [(_build_step(np, spec), table.marking(s2))
               for spec, s2 in moves(table, s, event, found, local)]
        assert got == list(mono_moves(np, m, event, _event_matches(event, np))), (event, m)
    assert {table.marking(s).atoms_at("s_q") for table, s, event, _, _ in expanded
            if event == b2} == {Multiset(["u"]), Multiset(["u", "u"])}


def test_local_state_holds_every_agent_of_the_event():
    # q1 and q2 meet once both are ready (``prep``). At the meeting q1 is
    # ready in both traces and q2 only in the first, so the meeting's moves
    # in one trace do not hold in the other: the local state holds every
    # agent of the event, and checked together or alone the traces get the
    # same verdicts.
    from npnconf.nets import PetriNet, WorkflowNet

    element = WorkflowNet(
        PetriNet({"m_i", "m_r", "m_o"}, {"m_p", "m_t"},
                 {("m_i", "m_p"), ("m_p", "m_r"), ("m_r", "m_t"), ("m_t", "m_o")}),
        "m_i", "m_o", {"m_p": "prep", "m_t": "join"}, {"m_t": "meet"})
    np = replace(meet_model(), elements={"M": element})
    meet = SyncEvent("rendezvous", [("join", "q1"), ("join", "q2")])
    ready = Trace([AgentEvent("prep", "q1"), AgentEvent("prep", "q2"), meet])
    early = Trace([AgentEvent("prep", "q1"), meet, AgentEvent("prep", "q2")])
    for traces in ([ready, early], [ready], [early]):
        for r in check_monolithic(EventLog(traces), np).results:
            verdict = r.components["model"]
            assert verdict.fits if r.trace == ready else verdict == TraceVerdict(False, 1)


def test_monolithic_verdicts_match_plain_search():
    # Reference that bypasses the check's memos: a plain search whose
    # successors are the candidate steps apply_step accepts, compared on
    # fit, failure position, witness steps and inconclusiveness, also when
    # the state limit cuts searches short.
    from npnconf.events import _event_matches
    from npnconf.nested import MONOLITHIC_COMPONENT
    from npnconf.nets import SearchLimitExceeded, search
    from oracles import mono_moves

    def reference(np, events, limits):
        def successors(m, pos):
            return mono_moves(np, m, events[pos], _event_matches(events[pos], np))

        try:
            result = search(np.initial_marking, len(events), successors,
                            np.final_markings.__contains__, limits.max_states)
        except SearchLimitExceeded:
            return TraceVerdict(False, inconclusive=True)
        if result.ok:
            return TraceVerdict(True, witness=result.witness)
        return TraceVerdict(False, failure_position=result.prefix)

    rng = random.Random(20250301)
    cases = []
    for i in range(40):
        np = random_nested_net(rng, max_agents=4)
        log = generate_log(np, SimulationConfig(seed=i, trace_count=20))
        noise = NoiseSpec.for_model(np, seed=i, swap=0.4, drop=0.3, relabel=0.3, retarget=0.3)
        cases += [(np, log), (np, perturb_log(log, noise)[0])]
    doc, log12, noisy12 = _twelve_agent_logs()
    np12 = loads_model(doc)
    cases += [(np12, log12), (np12, noisy12)]
    outcomes = set()
    for np, lg in cases:
        for limits in (ReplayLimits(), ReplayLimits(max_states=3)):
            for r in check_monolithic(lg, np, limits).results:
                verdict = r.components[MONOLITHIC_COMPONENT]
                assert verdict == reference(np, r.trace.events, limits), r.trace
                outcomes.add((verdict.fits, verdict.inconclusive))
    assert outcomes == {(True, False), (False, False), (False, True)}


def _unvalidated_assistant_model(expr):
    """The worked example, loaded without validation, with arc (s_p1, s_b)
    carrying ``expr``."""
    doc = json.loads((FIXTURES / "assistant_model.json").read_text())
    for arc in doc["system_net"]["arcs"]:
        if (arc["from"], arc["to"]) == ("s_p1", "s_b"):
            arc["expr"] = expr
    return loads_model(json.dumps(doc), validate=False)


def test_plan_moves_match_apply_step_reference(monkeypatch, assistant_log):
    # Every (marking, event) pair the monolithic replay expands: its moves,
    # spec labels built into steps, equal the reference that tries each
    # candidate step through apply_step, in steps, markings and order.
    # Covers criterion 3's first 40 models (fitting and noisy logs), the
    # 12-agent logs, events with no match and unvalidated models whose
    # matches never fire.
    from npnconf import conformance
    from npnconf.events import _event_matches
    from npnconf.nested import _build_step
    from oracles import mono_moves

    expanded = {}
    moves = conformance._moves

    def recording(table, s, event, found, local):
        expanded.setdefault((id(table.np), table.marking(s), event),
                            (table, s, event, found, local))
        return moves(table, s, event, found, local)

    monkeypatch.setattr(conformance, "_moves", recording)
    rng = random.Random(20250301)
    cases = []
    for i in range(40):
        np = random_nested_net(rng, max_agents=4)
        log = generate_log(np, SimulationConfig(seed=i, trace_count=20))
        noise = NoiseSpec.for_model(np, seed=i, swap=0.4, drop=0.3, relabel=0.3, retarget=0.3)
        cases += [(np, log), (np, perturb_log(log, noise)[0])]
    doc, log12, noisy12 = _twelve_agent_logs()
    np12 = loads_model(doc)
    cases += [(np12, log12), (np12, noisy12)]
    cases += [(_unvalidated_assistant_model(e), assistant_log) for e in ("x + `r9`", "x + x")]
    for np, lg in cases:
        check_monolithic(lg, np)

    unmatched = moved = 0
    for table, s, event, found, local in expanded.values():
        np, m = table.np, table.marking(s)
        matches = _event_matches(event, np)
        got = [(_build_step(np, spec), table.marking(s2))
               for spec, s2 in moves(table, s, event, found, local)]
        assert got == list(mono_moves(np, m, event, matches)), (event, m)
        unmatched += not matches
        moved += len(got)
    assert len(expanded) > 4000 and unmatched > 100 and moved > 4000


@pytest.mark.parametrize("expr", ["x + `r9`", "x + x"])
def test_unvalidated_model_verdicts_pinned(expr, assistant_log):
    # a net-place arc that no marking fires: a constant there, or the same
    # agent taken twice; pinned before the replay compiled its matches
    np = _unvalidated_assistant_model(expr)
    report = check_monolithic(assistant_log, np)
    assert [(r.components["model"].fits, r.components["model"].failure_position)
            for r in report.results] == [(False, 6), (False, 6), (True, None),
                                         (True, None), (False, 6)]


NET_OUTPUT_SHAPES = {"data-variable": "x + a", "constant": "x + `r9`",
                     "net-variable-twice": "x + x"}


@pytest.mark.parametrize("expr", NET_OUTPUT_SHAPES.values(), ids=NET_OUTPUT_SHAPES)
def test_net_output_arc_shapes_never_fire(expr, assistant_log):
    # A data variable, a constant or a net variable twice on s_b's net-place
    # output arc (only an unvalidated model has one) would put a value that
    # is no net token, or one net token twice: the replay refuses the
    # transition. Judged by apply_step, every step enabled_steps offers on a
    # reachable marking and every binding system_bindings returns fires, and
    # the simulator's logs fit.
    np = s_b_model({"a": "D"}, expr)
    report = check_monolithic(assistant_log, np)
    assert [(r.components["model"].fits, r.components["model"].failure_position)
            for r in report.results] == [(False, 6), (False, 6), (True, None),
                                         (True, None), (False, 6)]
    seen, frontier = {np.initial_marking}, [np.initial_marking]
    while frontier:
        m = frontier.pop()
        for b in system_bindings(np, m, "s_b"):
            apply_step(np, m, SystemStep("s_b", b))
        for step in enabled_steps(np, m):
            m2 = apply_step(np, m, step)
            if m2 not in seen:
                seen.add(m2)
                frontier.append(m2)
    assert len(seen) > 10
    for seed in range(3):
        log = generate_log(np, SimulationConfig(seed=seed, trace_count=20))
        assert check_monolithic(log, np).overall


def test_monolithic_builds_witness_steps_once(monkeypatch, assistant_model):
    # Machine-independent guard: a fitting trace's witness steps are built
    # from the replay's labels, and a memoised move keeps the step it built,
    # so traces sharing moves share their steps. One check_monolithic over
    # the 1000-trace worked-example logs constructed 120 (fitting) and 148
    # (noisy) ElementStep/SystemStep/SyncStep objects while the replay built
    # a Step per candidate.
    from npnconf import nested

    calls = [0]
    for cls in (nested.ElementStep, nested.SystemStep, nested.SyncStep):
        original = cls.__init__

        def counting(self, *args, _original=original, **kwargs):
            calls[0] += 1
            _original(self, *args, **kwargs)

        monkeypatch.setattr(cls, "__init__", counting)
    log = generate_log(assistant_model, SimulationConfig(seed=3, trace_count=1000))
    noisy, _ = perturb_log(log, NoiseSpec.for_model(assistant_model, seed=3, swap=0.4,
                                                    drop=0.3, relabel=0.3, retarget=0.3))
    for lg, parent in ((log, 120), (noisy, 148)):
        calls[0] = 0
        check_monolithic(lg, assistant_model)
        assert 0 < calls[0] <= parent


def test_system_replay_builds_no_marking_per_move(monkeypatch, assistant_model):
    # a move copies the marking's counts and edits the entries its delta
    # names: no marking is built through ``__init__`` and no multiset from
    # counts, however many moves the replay makes
    from npnconf.colored import ColoredMarking

    log = generate_log(assistant_model, SimulationConfig(seed=3, trace_count=200))
    noisy, _ = perturb_log(log, NoiseSpec.for_model(assistant_model, seed=3, swap=0.4,
                                                    drop=0.3, relabel=0.3, retarget=0.3))
    system_log = project_log(noisy, assistant_model.agents).system_log
    component = project_system_net(assistant_model)
    calls = {}

    def count(owner, name, wrap=lambda f: f):
        original = getattr(owner, name)
        calls[name] = 0

        def counting(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)

        monkeypatch.setattr(owner, name, wrap(counting))

    count(ColoredMarking, "__init__")
    count(ColoredMarking, "_moved")
    count(Multiset, "from_counts", staticmethod)
    verdicts = fits_system(system_log, component)
    assert {v.fits for v in verdicts.values()} == {True, False}
    assert (calls["__init__"], calls["from_counts"]) == (0, 0)
    assert calls["_moved"] > 50


def test_compositional_draws_one_match_per_correct_event(monkeypatch):
    # the syntactic check asks the matcher for a first spec only: one per
    # syntactically correct distinct event
    from npnconf import events

    rng = random.Random(20250301)
    for i in range(10):
        np = random_nested_net(rng, max_agents=4)
        log = generate_log(np, SimulationConfig(seed=i, trace_count=20))
        noisy, _ = perturb_log(log, NoiseSpec.for_model(np, seed=i, swap=0.4, drop=0.3,
                                                        relabel=0.3, retarget=0.3))
        distinct = {e for trace, _ in noisy.items() for e in trace}
        correct = {e for e in distinct if events._event_matches(e, np)}
        original = events._iter_matches
        drawn = []

        def counting(event, np, *tables):
            for spec in original(event, np, *tables):
                drawn.append(event)
                yield spec

        monkeypatch.setattr(events, "_iter_matches", counting)
        check_compositional(noisy, np)
        monkeypatch.undo()
        assert sorted(drawn, key=sort_key) == sorted(correct, key=sort_key), i


def test_both_reads_the_compositional_syntactic_verdicts(assistant_model, assistant_log):
    # check_both's syntactic half reads a payload table its monolithic half
    # filled first: its syntactic report and every trace's syntactic_ok are
    # those of check_compositional alone
    rng = random.Random(20250301)  # criterion 3's first 20 models
    cases = [(assistant_model, assistant_log)]
    for i in range(20):
        np = random_nested_net(rng, max_agents=4)
        log = generate_log(np, SimulationConfig(seed=i, trace_count=20))
        noisy, _ = perturb_log(log, NoiseSpec.for_model(np, seed=i, swap=0.4, drop=0.3,
                                                        relabel=0.3, retarget=0.3))
        cases.append((np, noisy))
    doc, _, noisy = _twelve_agent_logs()
    cases.append((loads_model(doc), noisy))
    outcomes = set()
    for np, log in cases:
        both, comp = check_both(log, np), check_compositional(log, np)
        assert both.syntactic == comp.syntactic
        assert [r.syntactic_ok for r in both.results] == [r.syntactic_ok for r in comp.results]
        outcomes.update(r.syntactic_ok for r in comp.results)
    assert outcomes == {True, False}


def _cyclic_garbage(call):
    """What the cyclic collector finds after ``call()``, the collector
    paused from just before the call; its state is restored."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        gc.collect()
        call()
        return gc.collect()
    finally:
        if enabled:
            gc.enable()


def test_a_check_leaves_no_cyclic_garbage(assistant_model, assistant_log):
    # nothing a check builds refers to itself, so it is freed as the check
    # returns and a loaded model does not outlive its command; a recursive
    # closure in the payload matcher left 50-408 objects per check of the
    # first six criterion-3 models' noisy logs
    from test_colored import small_net

    cases = [(assistant_log, assistant_model)]
    rng = random.Random(20250301)
    for i in range(4):
        np = random_nested_net(rng, max_agents=4)
        log = generate_log(np, SimulationConfig(seed=i, trace_count=20))
        noisy, _ = perturb_log(log, NoiseSpec.for_model(np, seed=i, swap=0.4, drop=0.3,
                                                        relabel=0.3, retarget=0.3))
        cases += [(log, np), (noisy, np)]
    for log, np in cases:
        for check in (check_both, check_compositional, check_monolithic):
            assert _cyclic_garbage(lambda: check(log, np)) == 0, check.__name__
    cn = small_net({"p": ["r1", "r2"]}, finals=[ColoredMarking({"q": ["r1", "r2"]})])
    steps = [("a", Multiset(["r1"])), ("a", Multiset(["r2"]))]
    assert is_run_colored(cn, steps).ok
    assert _cyclic_garbage(lambda: is_run_colored(cn, steps)) == 0


def _data_trace(first_b, second_b):
    """Trace 1 of the worked example with data (D, ``first_b``) on r2's b
    and (D, ``second_b``) on r1's."""
    events = list(trace1())
    events[6] = SystemEvent("b", ["r2"], [("D", first_b)])
    events[7] = SystemEvent("b", ["r1"], [("D", second_b)])
    return Trace(events)


def test_data_outside_its_domain_is_a_syntactic_failure():
    # a system event whose data value lies outside the variable's domain
    # matches no transition: the syntactic check says so, and both modes
    # agree that the trace does not fit
    np = loads_model(json.dumps(data_token_doc()))
    log = EventLog([_data_trace("u", "u"), _data_trace("u", "w")])
    report = check_both(log, np)
    assert [r.fits for r in report.results] == [True, False]
    assert report.discrepancies == ()
    (failure,) = report.syntactic.failures
    assert (failure.trace_index, failure.event_index) == (1, 7)
    assert failure.diagnosis == (
        "no unlabeled system transition matches activity 'b' with this payload")
    assert syntactically_correct(SystemEvent("b", ["r1"], [("D", "w")]), np).diagnosis == (
        failure.diagnosis)


def test_payload_table_keys_hold_the_data():
    # events of one transition and the same agents but different data share
    # no payload-table entry: with data (D, v), which s_q never holds, b
    # does not fit in either mode, while the same trace with (D, u) does
    np = loads_model(json.dumps(data_token_doc()))
    traces = [_data_trace("u", "u"), _data_trace("v", "u"), _data_trace("u", "v")]
    for check in (check_both, check_compositional, check_monolithic):
        report = check(EventLog(traces), np)
        fits = {r.trace: r.fits for r in report.results}
        assert [fits[t] for t in traces] == [True, False, False], check.__name__
        assert report.discrepancies == ()
