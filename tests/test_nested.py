import itertools
import json
import random
from functools import lru_cache

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from npnconf.colored import Binding, Domain, parse_arc_expr
from npnconf.model_io import load_model, loads_model
from npnconf.multiset import Multiset
from npnconf.nested import (ElementStep, NestedNet, NetToken, NotEnabledError,
                            NpMarking, RosterError, SyncStep, SystemStep,
                            apply_step, check_agreement, check_conservative,
                            enabled_steps, involved_tokens, is_run_np,
                            system_bindings, validate_nested_net)
from npnconf.nets import NetStructureError, PetriNet, WorkflowNet, enabled_transitions
from npnconf.simulate import SimulationConfig, simulate_run

from conftest import FIXTURES
from generators import random_nested_net
from oracles import np_possible_steps


def test_fixture_validates_and_is_conservative(assistant_model):
    assert validate_nested_net(assistant_model) == []
    assert check_conservative(assistant_model) == []


def test_validate_flags_shared_node_id(assistant_model):
    np = assistant_model
    clashing = WorkflowNet(
        PetriNet({"e_i", "e_o"}, {"s_a"}, {("e_i", "s_a"), ("s_a", "e_o")}),
        "e_i", "e_o", {"s_a": "z"})
    broken = NestedNet(
        system=np.system, net_place_type=np.net_place_type,
        atom_place_type=np.atom_place_type, domains=np.domains,
        arc_expr=np.arc_expr, var_type=np.var_type,
        elements={**np.elements, "clash": clashing},
        system_activity=np.system_activity, system_sync=np.system_sync,
        agents=np.agents, initial_marking=np.initial_marking,
        final_markings=np.final_markings)
    assert any("used by both" in v for v in validate_nested_net(broken))


def test_validate_flags_constant_on_net_place(assistant_model):
    np = assistant_model
    arc_expr = dict(np.arc_expr)
    arc_expr[("s_p1", "s_b")] = parse_arc_expr("`r1`")
    broken = NestedNet(
        system=np.system, net_place_type=np.net_place_type,
        atom_place_type=np.atom_place_type, domains=np.domains,
        arc_expr=arc_expr, var_type=np.var_type, elements=np.elements,
        system_activity=np.system_activity, system_sync=np.system_sync,
        agents=np.agents, initial_marking=np.initial_marking,
        final_markings=np.final_markings)
    assert any("cannot contain constants" in v for v in validate_nested_net(broken))


def _two_place_system(arc_expr_out):
    """One net place to another via one transition; output expressions vary."""
    system = PetriNet({"n_p", "n_q"}, {"n_t"},
                      {("n_p", "n_t"), ("n_t", "n_q")})
    element = WorkflowNet(
        PetriNet({"w_i", "w_o"}, {"w_t"}, {("w_i", "w_t"), ("w_t", "w_o")}),
        "w_i", "w_o", {"w_t": "go"})
    initial = NpMarking({"n_p": [NetToken("r1", Multiset(["w_i"]))]})
    final = NpMarking({"n_q": [NetToken("r1", Multiset(["w_o"]))]})
    return NestedNet(
        system=system,
        net_place_type={"n_p": {"W"}, "n_q": {"W"}},
        atom_place_type={}, domains={},
        arc_expr={("n_p", "n_t"): parse_arc_expr("x"),
                  ("n_t", "n_q"): parse_arc_expr(arc_expr_out)},
        var_type={"x": "W", "y": "W"},
        elements={"W": element},
        system_activity={"n_t": "move"}, system_sync={},
        agents={"r1": "W"},
        initial_marking=initial, final_markings=[final])


def test_conservative_flags_cloning():
    np = _two_place_system("x + x")
    report = check_conservative(np)
    assert len(report) == 1 and "n_t" in report[0]


def test_conservative_flags_disappearance():
    np = _two_place_system("y")
    report = check_conservative(np)
    assert len(report) == 1 and "n_t" in report[0]


def test_enabled_steps_fixture_initial(assistant_model):
    steps = enabled_steps(assistant_model, assistant_model.initial_marking)
    assert steps == [ElementStep("r1", "c_d"), ElementStep("r2", "c_d")]


def test_enabled_steps_empty_marking(assistant_model):
    assert enabled_steps(assistant_model, NpMarking()) == []


def test_enabled_steps_rejects_foreign_inner_place():
    # only an unvalidated model can hold such a marking; a memo of inner
    # enabledness must not answer for it without checking it
    doc = json.loads((FIXTURES / "assistant_model.json").read_text())
    doc["initial_marking"]["net_places"]["s_p0"][0]["marking"]["s_p0"] = 1
    np = loads_model(json.dumps(doc), validate=False)
    with pytest.raises(NetStructureError):
        enabled_steps(np, np.initial_marking)


def test_no_sync_step_when_system_side_lacks_agent(assistant_model):
    # r1's inner net enables the labeled f, but r1 sits past the a-transition
    marking = NpMarking({"s_p1": [NetToken("r1", Multiset(["c_p2"]))]})
    steps = enabled_steps(assistant_model, marking)
    assert not any(isinstance(s, SyncStep) for s in steps)
    assert steps == [SystemStep("s_b", Binding({"x": NetToken("r1", Multiset(["c_p2"]))}))]


def test_apply_element_step_advances_inner_only(assistant_model):
    m0 = assistant_model.initial_marking
    m1 = apply_step(assistant_model, m0, ElementStep("r1", "c_d"))
    assert m1.tokens_at("s_p0") == (NetToken("r1", Multiset(["c_p1"])),
                                    NetToken("r2", Multiset(["c_i"])))
    assert m1.atoms == m0.atoms


def test_apply_sync_step_fires_inner_then_moves(assistant_model):
    np = assistant_model
    m = np.initial_marking
    m = apply_step(np, m, ElementStep("r1", "c_d"))
    m = apply_step(np, m, ElementStep("r1", "c_h"))
    token = m.locate("r1")[1]
    assert token.inner == Multiset(["c_p2"])
    step = SyncStep("s_a", Binding({"x": token}), [("r1", "c_f")])
    m2 = apply_step(np, m, step)
    assert m2.locate("r1") == ("s_p1", NetToken("r1", Multiset(["c_o"])))


def test_apply_system_step_moves_without_inner_change(assistant_model):
    np = assistant_model
    inner = Multiset(["c_o"])
    m = NpMarking({"s_p1": [NetToken("r1", inner)]})
    step = SystemStep("s_b", Binding({"x": NetToken("r1", inner)}))
    m2 = apply_step(np, m, step)
    assert m2.locate("r1") == ("s_p2", NetToken("r1", inner))


def test_apply_step_rejects_disabled(assistant_model):
    np = assistant_model
    with pytest.raises(NotEnabledError):
        apply_step(np, np.initial_marking, ElementStep("r1", "c_h"))
    with pytest.raises(NotEnabledError):
        # f is labeled, so it cannot fire autonomously
        m = NpMarking({"s_p0": [NetToken("r1", Multiset(["c_p2"]))]})
        apply_step(np, m, ElementStep("r1", "c_f"))
    with pytest.raises(NotEnabledError):
        apply_step(np, np.initial_marking,
                   SystemStep("s_b", Binding({"x": NetToken("r1", Multiset(["c_i"]))})))


def fifth_trace_steps(np):
    """The step sequence realizing the worked example's fifth trace."""
    steps = []
    m = np.initial_marking
    plan = [
        ElementStep("r1", "c_d"),
        ElementStep("r2", "c_d"),
        ElementStep("r1", "c_e"),
        ElementStep("r2", "c_e"),
    ]
    for step in plan:
        steps.append(step)
        m = apply_step(np, m, step)
    token1 = m.locate("r1")[1]
    sync_a = SyncStep("s_a", Binding({"x": token1}), [("r1", "c_f")])
    steps.append(sync_a)
    m = apply_step(np, m, sync_a)
    token2 = m.locate("r2")[1]
    sync_c = SyncStep("s_c", Binding({"x": token2}), [("r2", "c_g")])
    steps.append(sync_c)
    m = apply_step(np, m, sync_c)
    token1 = m.locate("r1")[1]
    steps.append(SystemStep("s_b", Binding({"x": token1})))
    return steps


def test_is_run_np_fifth_trace(assistant_model):
    steps = fifth_trace_steps(assistant_model)
    assert is_run_np(assistant_model, steps)
    assert not is_run_np(assistant_model, steps[:-1])
    assert not is_run_np(assistant_model, [])


def test_step_locality(assistant_model):
    np = assistant_model
    m0 = np.initial_marking
    m1 = apply_step(np, m0, ElementStep("r2", "c_d"))
    # element-autonomous: net-token positions and atoms unchanged
    assert [p for p, _ in m1.iter_tokens()] == [p for p, _ in m0.iter_tokens()]
    assert m1.atoms == m0.atoms
    # system-autonomous: inner markings unchanged
    inner = Multiset(["c_o"])
    m = NpMarking({"s_p1": [NetToken("r1", inner)]})
    m2 = apply_step(np, m, SystemStep("s_b", Binding({"x": NetToken("r1", inner)})))
    assert m2.locate("r1")[1].inner == inner


def test_agent_conservation_along_simulated_runs():
    rng = random.Random(88)
    for i in range(20):
        np = random_nested_net(rng)
        assert validate_nested_net(np) == []
        assert check_conservative(np) == []
        _, steps = simulate_run(np, SimulationConfig(seed=i, max_steps=100))
        agents = np.initial_marking.agent_names()
        m = np.initial_marking
        for step in steps:
            m = apply_step(np, m, step)
            assert m.agent_names() == agents


def test_enabled_steps_agree_with_brute_force_oracle():
    rng = random.Random(99)
    for i in range(12):
        np = random_nested_net(rng, max_agents=3)
        markings = [np.initial_marking]
        m = np.initial_marking
        _, steps = simulate_run(np, SimulationConfig(seed=i, max_steps=100))
        for step in steps[:4]:
            m = apply_step(np, m, step)
            markings.append(m)
        for m in markings:
            mine = set(enabled_steps(np, m))
            applicable = set()
            for step in np_possible_steps(np, m):
                try:
                    apply_step(np, m, step)
                except NotEnabledError:
                    continue
                applicable.add(step)
            assert mine == applicable


def test_marking_rejects_duplicate_agent():
    with pytest.raises(RosterError):
        NpMarking({"p": [NetToken("r1", Multiset(["a"]))],
                   "q": [NetToken("r1", Multiset(["b"]))]})


def meet_model():
    """Two agents forced through one synchronization that moves both."""
    element = WorkflowNet(
        PetriNet({"m_i", "m_o"}, {"m_t"}, {("m_i", "m_t"), ("m_t", "m_o")}),
        "m_i", "m_o", {"m_t": "join"}, {"m_t": "meet"})
    system = PetriNet({"ms_p0", "ms_p1"}, {"ms_t"},
                      {("ms_p0", "ms_t"), ("ms_t", "ms_p1")})
    initial = NpMarking({"ms_p0": [NetToken("q1", Multiset(["m_i"])),
                                   NetToken("q2", Multiset(["m_i"]))]})
    final = NpMarking({"ms_p1": [NetToken("q1", Multiset(["m_o"])),
                                 NetToken("q2", Multiset(["m_o"]))]})
    return NestedNet(
        system=system,
        net_place_type={"ms_p0": {"M"}, "ms_p1": {"M"}},
        atom_place_type={}, domains={},
        arc_expr={("ms_p0", "ms_t"): parse_arc_expr("x + y"),
                  ("ms_t", "ms_p1"): parse_arc_expr("x + y")},
        var_type={"x": "M", "y": "M"},
        elements={"M": element},
        system_activity={"ms_t": "rendezvous"}, system_sync={"ms_t": "meet"},
        agents={"q1": "M", "q2": "M"},
        initial_marking=initial, final_markings=[final])


def test_multi_participant_sync():
    np = meet_model()
    assert validate_nested_net(np) == []
    assert check_conservative(np) == []
    steps = enabled_steps(np, np.initial_marking)
    assert all(isinstance(s, SyncStep) for s in steps)
    assert len(steps) == 2  # x/y binding symmetry; both describe the same move
    m2 = apply_step(np, np.initial_marking, steps[0])
    assert m2 in np.final_markings
    assert is_run_np(np, [steps[0]])


def test_enabled_steps_exact_order():
    # Names that sort differently by length, by quoting and by repr: element
    # steps follow the agent names, net-token pools follow the agents' reprs
    # (a double-quoted repr sorts before every single-quoted one).
    doc = json.loads((FIXTURES / "assistant_model.json").read_text())
    roster = ["r1", "r2", "r10", "o'k", "s'"]
    doc["agents"] = {r: "customer" for r in roster}
    doc["system_net"]["transitions"].append(
        {"id": "s_m", "activity": "m", "variables": {"x": "customer", "y": "customer"}})
    doc["system_net"]["arcs"] += [{"from": "s_p0", "to": "s_m", "expr": "x + y"},
                                  {"from": "s_m", "to": "s_p1", "expr": "x + y"}]
    doc["initial_marking"]["net_places"]["s_p0"] = [
        {"agent": r, "marking": {"c_i": 1}} for r in roster]
    doc["final_markings"][0]["net_places"]["s_p2"] = [
        {"agent": r, "marking": {"c_o": 1}} for r in roster]
    np = loads_model(json.dumps(doc))
    inner = {r: Multiset(["c_p2"] if r in ("r10", "o'k") else ["c_i"]) for r in roster}
    tok = {r: NetToken(r, inner[r]) for r in roster}
    m = NpMarking({"s_p0": tok.values()})

    pool = ["o'k", "s'", "r1", "r10", "r2"]
    assert enabled_steps(np, m) == (
        [ElementStep(r, "c_d") for r in ["r1", "r2", "s'"]]
        + [SyncStep("s_a", Binding({"x": tok[r]}), [(r, "c_f")]) for r in ["o'k", "r10"]]
        + [SyncStep("s_c", Binding({"x": tok[r]}), [(r, "c_g")]) for r in ["o'k", "r10"]]
        + [SystemStep("s_m", Binding({"x": tok[a], "y": tok[b]}))
           for a in pool for b in pool if a != b])


def swap_model():
    """Agents shuttle between two places; each move trades the value on an
    atom place for any value of its domain, so atom places change too."""
    element = WorkflowNet(
        PetriNet({"w_i", "w_o"}, {"w_t"}, {("w_i", "w_t"), ("w_t", "w_o")}),
        "w_i", "w_o", {"w_t": "work"})
    system = PetriNet({"a0", "a1", "pool"}, {"go", "back"},
                      {("a0", "go"), ("pool", "go"), ("go", "a1"), ("go", "pool"),
                       ("a1", "back"), ("back", "a0")})
    initial = NpMarking({"a0": [NetToken("q1", Multiset(["w_i"])),
                                NetToken("q2", Multiset(["w_i"]))]},
                        {"pool": Multiset([1])})
    final = NpMarking({"a1": [NetToken("q1", Multiset(["w_o"])),
                              NetToken("q2", Multiset(["w_o"]))]},
                      {"pool": Multiset([1])})
    return NestedNet(
        system=system,
        net_place_type={"a0": {"W"}, "a1": {"W"}}, atom_place_type={"pool": "N"},
        domains={"N": Domain("N", [1, 2, 3])},
        arc_expr={("a0", "go"): parse_arc_expr("x"), ("pool", "go"): parse_arc_expr("v"),
                  ("go", "a1"): parse_arc_expr("x"), ("go", "pool"): parse_arc_expr("w"),
                  ("a1", "back"): parse_arc_expr("x"), ("back", "a0"): parse_arc_expr("x")},
        var_type={"x": "W", "v": "N", "w": "N"},
        elements={"W": element},
        system_activity={"go": "go", "back": "back"}, system_sync={},
        agents={"q1": "W", "q2": "W"},
        initial_marking=initial, final_markings=[final])


def test_constant_on_net_arc_never_enables():
    # only an unvalidated model can carry one: the step is disabled, no crash
    doc = json.loads((FIXTURES / "assistant_model.json").read_text())
    for arc in doc["system_net"]["arcs"]:
        if (arc["from"], arc["to"]) == ("s_p1", "s_b"):
            arc["expr"] = "x + `r9`"
    np = loads_model(json.dumps(doc), validate=False)
    token = np.initial_marking.locate("r1")[1]
    m = NpMarking({"s_p1": [token]})
    assert not any(isinstance(s, SystemStep) for s in enabled_steps(np, m))
    with pytest.raises(NotEnabledError):
        apply_step(np, m, SystemStep("s_b", Binding({"x": token})))

@lru_cache(maxsize=None)
def _walk_models():
    rng = random.Random(20251018)
    return ((load_model(FIXTURES / "assistant_model.json"), meet_model(), swap_model())
            + tuple(random_nested_net(rng) for _ in range(12)))


def test_swap_model_is_valid():
    np = swap_model()
    assert validate_nested_net(np) == []
    assert check_conservative(np) == []


def _assert_marking_consistent(np, m):
    fresh = NpMarking(m.net_tokens, m.atoms)
    assert m == fresh and hash(m) == hash(fresh)
    for agent in sorted(np.agents) + ["nobody"]:
        scan = next(((p, tk) for p, tk in m.iter_tokens() if tk.agent == agent), None)
        assert m.locate(agent) == scan


@settings(max_examples=80, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(st.data())
def test_incremental_markings_match_rebuilt(data):
    # Markings reached by steps are built incrementally (index and hash
    # updated per moved token); they must equal, and hash like, the same
    # marking built anew, and locate must agree with a linear scan.
    models = _walk_models()
    np = models[data.draw(st.integers(0, len(models) - 1), label="model")]
    m = np.initial_marking
    _assert_marking_consistent(np, m)
    for _ in range(data.draw(st.integers(1, 40), label="length")):
        steps = enabled_steps(np, m)
        if not steps:
            break
        m = apply_step(np, m, steps[data.draw(st.integers(0, len(steps) - 1))])
        _assert_marking_consistent(np, m)



def _unpruned_enabled_steps(np, m):
    """Step enumeration without sync-pool pruning: every enabling binding,
    then the sync candidates of its involved tokens."""
    steps = []
    for _, token in sorted(m.iter_tokens(), key=lambda pt: pt[1].agent):
        w = np.agent_class(token.agent)
        enabled = enabled_transitions(w.net, token.inner)
        steps += [ElementStep(token.agent, ti) for ti in sorted(enabled)
                  if w.sync_label.get(ti) is None]
    for t in sorted(np.system.transitions):
        label = np.system_sync.get(t)
        for b in system_bindings(np, m, t):
            if label is None:
                steps.append(SystemStep(t, b))
                continue
            per_agent = []
            for token in involved_tokens(np, t, b):
                w = np.agent_class(token.agent)
                enabled = enabled_transitions(w.net, token.inner)
                per_agent.append([(token.agent, ti) for ti in sorted(enabled)
                                  if w.sync_label.get(ti) == label])
            steps += [SyncStep(t, b, combo) for combo in itertools.product(*per_agent)]
    return steps


def _applicable(np, m):
    found = set()
    for step in np_possible_steps(np, m):
        try:
            apply_step(np, m, step)
        except NotEnabledError:
            continue
        found.add(step)
    return found


def test_sync_pool_pruning_is_exact():
    # A two-variable sync transition drawing x from s_p0 and y from s_p1:
    # tokens whose inner marking enables no s1-labeled transition are
    # dropped from the pools before the product.
    doc = json.loads((FIXTURES / "assistant_model.json").read_text())
    roster = ["r1", "r2", "r3", "r4"]
    doc["agents"] = {r: "customer" for r in roster}
    doc["system_net"]["transitions"].append(
        {"id": "s_m", "activity": "m", "sync": "s1",
         "variables": {"x": "customer", "y": "customer"}})
    doc["system_net"]["arcs"] += [{"from": "s_p0", "to": "s_m", "expr": "x"},
                                  {"from": "s_p1", "to": "s_m", "expr": "y"},
                                  {"from": "s_m", "to": "s_p2", "expr": "x + y"}]
    for m in [doc["initial_marking"]] + doc["final_markings"]:
        for place, tokens in m["net_places"].items():
            m["net_places"][place] = [
                {"agent": r, "marking": dict(tokens[0]["marking"])} for r in roster]
    np = loads_model(json.dumps(doc))

    def token(r, place):
        return NetToken(r, Multiset([place]))

    markings = [
        # only r1 (in s_p0) can join; r2 in s_p1 cannot: no s_m step
        NpMarking({"s_p0": [token("r1", "c_p2"), token("r3", "c_i")],
                   "s_p1": [token("r2", "c_p1")]}),
        # r1 and r4 can join from s_p0, r2 from s_p1; r3 in s_p1 cannot
        NpMarking({"s_p0": [token("r1", "c_p2"), token("r4", "c_p2")],
                   "s_p1": [token("r2", "c_p2"), token("r3", "c_o")]}),
    ]
    joined = []
    for m in markings:
        steps = enabled_steps(np, m)
        assert steps == _unpruned_enabled_steps(np, m)
        assert set(steps) == _applicable(np, m)
        joined.append({s.binding["x"].agent + s.binding["y"].agent
                       for s in steps if s.transition == "s_m"})
    assert joined == [set(), {"r1r2", "r4r2"}]


def test_generator_models_meet_agreement_precondition():
    rng = random.Random(20250301)
    for _ in range(20):
        assert check_agreement(random_nested_net(rng, max_agents=4)) == []
