import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from npnconf import colored
from npnconf.conformance import check_both
from npnconf.events import AgentEvent, EventLog, SystemEvent, Trace
from npnconf.model_io import load_model
from npnconf.multiset import Multiset
from npnconf.nested import NetToken, NpMarking, RosterError, apply_step
from npnconf.projection import (project_log, project_marking_agent,
                                project_marking_system, project_system_net,
                                project_trace_agent, project_trace_agents,
                                project_trace_system)
from npnconf.simulate import SimulationConfig, simulate_run

from conftest import FIXTURES
from generators import random_log, random_nested_net
import oracles
from worked_example import trace1, trace3, trace5, worked_example_log


def test_fixture_log_matches_code_built_example(assistant_log):
    assert assistant_log == worked_example_log()


def test_project_first_trace_onto_r1():
    assert project_trace_agent(trace1(), "r1") == ("d", "h", "f")


def test_project_fifth_trace_onto_r2():
    assert project_trace_agent(trace5(), "r2") == ("d", "e", "g")


def test_project_empty_trace():
    assert project_trace_agent(Trace(), "r1") == ()
    assert project_trace_system(Trace()) == ()


def test_system_events_do_not_project_onto_agents():
    # (b, SN, {r1}) involves r1 but is not an agent step of r1
    assert project_trace_agent(trace5(), "r1") == ("d", "e", "f")


def test_project_third_trace_onto_system():
    assert project_trace_system(trace3()) == (
        SystemEvent("c", {"r1"}), SystemEvent("c", {"r2"}))


def test_project_fifth_trace_onto_system():
    assert project_trace_system(trace5()) == (
        SystemEvent("a", {"r1"}),
        SystemEvent("c", {"r2"}),
        SystemEvent("b", {"r1"}))


def test_agent_only_trace_projects_to_empty_system_trace():
    trace = Trace([AgentEvent("d", "r1"), AgentEvent("e", "r2")])
    assert project_trace_system(trace) == ()


def test_project_log_matches_reference_components(assistant_log):
    components = project_log(assistant_log, ["r1", "r2"])

    expected_sn = {
        (SystemEvent("a", {"r1"}), SystemEvent("a", {"r2"}),
         SystemEvent("b", {"r2"}), SystemEvent("b", {"r1"})): 4,
        (SystemEvent("a", {"r2"}), SystemEvent("a", {"r1"}),
         SystemEvent("b", {"r1"}), SystemEvent("b", {"r2"})): 1,
        (SystemEvent("c", {"r1"}), SystemEvent("c", {"r2"})): 1,
        (SystemEvent("c", {"r2"}), SystemEvent("c", {"r1"})): 1,
        (SystemEvent("a", {"r1"}), SystemEvent("c", {"r2"}),
         SystemEvent("b", {"r1"})): 2,
    }
    assert components.system_log == Multiset.from_counts(expected_sn)

    expected_r1 = {("d", "h", "f"): 5, ("d", "h", "g"): 1,
                   ("d", "e", "g"): 1, ("d", "e", "f"): 2}
    assert components.agent_logs["r1"] == Multiset.from_counts(expected_r1)

    expected_r2 = {("d", "h", "f"): 5, ("d", "e", "g"): 3, ("d", "h", "g"): 1}
    assert components.agent_logs["r2"] == Multiset.from_counts(expected_r2)


def test_project_empty_log():
    components = project_log(EventLog(), ["r1"])
    assert components.system_log == Multiset()
    assert components.agent_logs == {"r1": Multiset()}


def test_project_single_agent_event_keeps_empty_projections():
    log = EventLog([Trace([AgentEvent("d", "r1")])])
    components = project_log(log, ["r1", "r2"])
    assert components.agent_logs["r1"] == Multiset([("d",)])
    assert components.agent_logs["r2"] == Multiset([()])
    assert components.system_log == Multiset([()])


def test_project_log_rejects_unknown_agent():
    log = EventLog([Trace([AgentEvent("d", "r9")])])
    with pytest.raises(RosterError):
        project_log(log, ["r1", "r2"])


def test_length_accounting_and_homomorphism():
    rng = random.Random(1234)
    from generators import random_log

    for _ in range(60):
        log = random_log(rng)
        for trace, _ in log.items():
            agents = {e.agent for e in trace if isinstance(e, AgentEvent)}
            sn = project_trace_system(trace)
            n_system = sum(1 for e in trace if not isinstance(e, AgentEvent))
            assert len(sn) == n_system
            for r in agents:
                projected = project_trace_agent(trace, r)
                own = sum(1 for e in trace
                          if isinstance(e, AgentEvent) and e.agent == r)
                sync = sum(1 for e in trace
                           if not isinstance(e, AgentEvent) and hasattr(e, "participants")
                           and any(p == r for _, p in e.participants))
                assert len(projected) == own + sync
        # projection commutes with concatenation
        traces = [t for t, _ in log.items()]
        if len(traces) >= 2:
            t1, t2 = traces[0], traces[1]
            joined = Trace(tuple(t1) + tuple(t2))
            assert project_trace_system(joined) == \
                project_trace_system(t1) + project_trace_system(t2)
            for r in list(log.agent_names())[:2]:
                assert project_trace_agent(joined, r) == \
                    project_trace_agent(t1, r) + project_trace_agent(t2, r)


def test_weight_preservation():
    rng = random.Random(4321)
    for i in range(15):
        np = random_nested_net(rng)
        from npnconf.simulate import generate_log
        log = generate_log(np, SimulationConfig(seed=i, trace_count=12))
        components = project_log(log, np.agents)
        assert components.system_log.total() == log.weight
        for r in np.agents:
            assert components.agent_logs[r].total() == log.weight


def test_project_marking_system_fixture(assistant_model):
    projected = project_marking_system(assistant_model.initial_marking)
    assert projected.get("s_p0") == Multiset(["r1", "r2"])
    assert projected.places() == ("s_p0",)


def test_project_marking_system_without_net_tokens():
    m = NpMarking({}, {"pool": Multiset(["u", "u"])})
    projected = project_marking_system(m)
    assert projected.get("pool") == Multiset(["u", "u"])


def test_project_marking_system_agents_in_distinct_places():
    m = NpMarking({"p": [NetToken("r1", Multiset(["a"]))],
                   "q": [NetToken("r2", Multiset(["b"]))]})
    projected = project_marking_system(m)
    assert projected.get("p") == Multiset(["r1"])
    assert projected.get("q") == Multiset(["r2"])


def test_project_marking_agent(assistant_model):
    m0 = assistant_model.initial_marking
    assert project_marking_agent(m0, "r1") == Multiset(["c_i"])
    from npnconf.nested import ElementStep
    m1 = apply_step(assistant_model, m0, ElementStep("r1", "c_d"))
    assert project_marking_agent(m1, "r1") == Multiset(["c_p1"])
    with pytest.raises(RosterError):
        project_marking_agent(m0, "r9")


def test_projected_runs_fit_components():
    """Projection of a simulated run's trace is a run of each component."""
    from npnconf.conformance import _agent_trace_verdict, DEFAULT_LIMITS, fits_system

    rng = random.Random(777)
    for i in range(15):
        np = random_nested_net(rng)
        trace, _ = simulate_run(np, SimulationConfig(seed=i))
        component = project_system_net(np)
        st = project_trace_system(trace)
        assert fits_system(Multiset([st]), component)[st].fits
        for r in np.agents:
            at = project_trace_agent(trace, r)
            w = np.elements[np.agents[r]]
            assert _agent_trace_verdict(w, at, DEFAULT_LIMITS).fits


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 2**32), st.lists(st.sampled_from(["r1", "r2", "r3", "r4", "r9"]),
                                       unique=True))
def test_project_trace_agents_matches_single_agent_projection(seed, roster):
    # roster names may be missing from the log, and log names from the roster
    for trace, _ in random_log(random.Random(seed)).items():
        projected = project_trace_agents(trace, roster)
        assert list(projected) == roster
        assert projected == {r: oracles.project_trace_agent(trace, r) for r in roster}


def test_system_component_shares_the_model_table(monkeypatch):
    # the component is the system net itself: both checking routes read one
    # compiled table, so checking a fresh model compiles its system net once
    np = load_model(FIXTURES / "assistant_model.json")
    compiled = []
    init = colored._ColoredTable.__init__

    def counting_init(self, *args):
        compiled.append(args)
        init(self, *args)

    monkeypatch.setattr(colored._ColoredTable, "__init__", counting_init)
    assert check_both(worked_example_log(), np).overall
    assert len(compiled) == 1
    assert project_system_net(np).net._table is np._table.system
