import hashlib
import json
import random
import sys

from npnconf.colored import fire_colored
from npnconf.conformance import (ReplayLimits, check_both, check_compositional,
                                 check_monolithic, fits_agent, fits_system)
from npnconf.events import (AgentEvent, EventLog, SyncEvent, SystemEvent,
                            Trace, parse_log)
from npnconf.model_io import load_model, loads_model
from npnconf.multiset import Multiset, sort_key
from npnconf.nested import apply_step
from npnconf.nets import fire
from npnconf.projection import project_log, project_system_net
from npnconf.simulate import NoiseSpec, SimulationConfig, generate_log, perturb_log

from conftest import FIXTURES, scaled_assistant_doc
from generators import random_nested_net
from worked_example import trace1
from test_nested import meet_model


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
    from npnconf.projection import ProjectedSystemEvent

    component = project_system_net(assistant_model)
    seq = (ProjectedSystemEvent("b", {"r1"}), ProjectedSystemEvent("a", {"r1"}))
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
    # halves shared one.
    from npnconf import nested

    calls = _count_calls(monkeypatch, nested, "_payload_assignments")

    def count(check, log, np):
        calls[0] = 0
        check(log, np)
        return calls[0]

    doc, log, noisy = _twelve_agent_logs()
    np = loads_model(doc)
    for check, bounds in ((check_monolithic, (6, 31, 8)), (check_both, (12, 62, 62))):
        assert count(check, assistant_log, assistant_model) <= bounds[0]
        assert count(check, log, np) <= bounds[1]
        assert count(check, noisy, np) <= bounds[2]


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
    # (marking, event) pair once, not once per trace reaching it. On 1000
    # simulated traces of the worked example (60 distinct pairs) the check
    # made 2810 apply_step calls before the memo, 3196 on the noisy copy;
    # 120 and 145 with it. The 12-agent logs repeat few pairs: 133 and 36
    # calls, before and with the memo.
    from npnconf import nested

    calls = _count_calls(monkeypatch, nested, "apply_step")
    log = generate_log(assistant_model, SimulationConfig(seed=3, trace_count=1000))
    noisy, _ = perturb_log(log, NoiseSpec.for_model(assistant_model, seed=3, swap=0.4,
                                                    drop=0.3, relabel=0.3, retarget=0.3))
    doc, log12, noisy12 = _twelve_agent_logs()
    np12 = loads_model(doc)
    for lg, np, bound in ((log, assistant_model, 300), (noisy, assistant_model, 300),
                          (log12, np12, 133), (noisy12, np12, 36)):
        calls[0] = 0
        check_monolithic(lg, np)
        assert calls[0] <= bound
