import dataclasses
import hashlib
import itertools
import json
import random
from collections import Counter
from functools import lru_cache

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from npnconf.colored import Binding, Domain, parse_arc_expr
from npnconf.conformance import check_both, check_compositional, check_monolithic
from npnconf.events import SyncEvent, SystemEvent, event_agents, parse_log, serialize_log
from npnconf.model_io import load_model, loads_model
from npnconf.multiset import Multiset
from npnconf.nested import (ElementStep, NestedNet, NetToken, NotEnabledError,
                            NpMarking, RosterError, SyncStep, SystemStep,
                            apply_step, check_agreement, check_conservative,
                            enabled_steps, involved_tokens, is_run_np,
                            system_bindings, validate_nested_net)
from npnconf.nets import NetStructureError, PetriNet, WorkflowNet, enabled_transitions
from npnconf.projection import project_system_net
from npnconf.simulate import (NoiseSpec, SimulationConfig, event_for_step, generate_log,
                              perturb_log, simulate_run)

from conftest import FIXTURES, scaled_assistant_doc, watch_step_specs
from generators import random_nested_net
from oracles import (cn_effect, np_fire, np_possible_steps, payload_reference,
                     reference_enabling_values, reference_pools,
                     step_specs_reference)


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


def _edited_doc(edit):
    """A case: the worked-example document after ``edit``, loaded unvalidated."""
    def build(np):
        doc = json.loads((FIXTURES / "assistant_model.json").read_text())
        edit(doc)
        return loads_model(json.dumps(doc), validate=False)
    return build


def _replaced(**changes):
    """A case a model document cannot express: the loaded worked example
    with each named field replaced by its function of the model."""
    return lambda np: dataclasses.replace(np, **{k: f(np) for k, f in changes.items()})


def _atom_arc(expr, values=(1, 2), **variables):
    """An edit adding domain D, atom place s_d of type D, an arc s_a -> s_d
    with ``expr``, and ``variables`` on s_a."""
    def edit(doc):
        doc["domains"]["D"] = list(values)
        doc["system_net"]["places"].append({"id": "s_d", "kind": "atom", "type": "D"})
        doc["system_net"]["arcs"].append({"from": "s_a", "to": "s_d", "expr": expr})
        doc["system_net"]["transitions"][0]["variables"].update(variables)
    return edit


def _net_arc(expr, domains=(), element=False, **variables):
    """An edit giving the arc s_p0 -> s_a the expression ``expr``, with
    ``domains`` declared over [1], element net "other" when asked, and
    ``variables`` on s_a."""
    def edit(doc):
        doc["domains"].update({name: [1] for name in domains})
        if element:
            _other_element(doc)
        doc["system_net"]["arcs"][0]["expr"] = expr
        doc["system_net"]["transitions"][0]["variables"].update(variables)
    return edit


def _other_element(doc):
    doc["element_nets"]["other"] = {
        "places": ["o_i", "o_o"], "source": "o_i", "sink": "o_o",
        "transitions": [{"id": "o_t", "activity": "o"}],
        "arcs": [["o_i", "o_t"], ["o_t", "o_o"]]}


def _chain(*edits):
    def edit_all(doc):
        for edit in edits:
            edit(doc)
    return edit_all


def _initial(edit):
    return lambda doc: edit(doc["initial_marking"])


def _roster(*agents):
    def edit(doc):
        doc.update(scaled_assistant_doc(agents))
    return edit


VALIDATION_CASES = {
    "shared-node-id": (
        _edited_doc(lambda doc: doc["system_net"]["places"].append(
            {"id": "c_i", "kind": "net", "type": ["customer"]})),
        "node id 'c_i' used by both 'system' and 'customer'"),
    "element-net": (
        _edited_doc(lambda doc: doc["element_nets"]["customer"]["arcs"].append(["c_h", "c_i"])),
        "element net 'customer': source place 'c_i' has incoming arcs"),
    "untyped-place": (
        _replaced(system=lambda np: PetriNet(np.system.places | {"s_x"},
                                             np.system.transitions, np.system.arcs)),
        "system place 's_x' has no type"),
    "typed-both-ways": (
        _replaced(atom_place_type=lambda np: {"s_p0": "D"}),
        "system place 's_p0' typed as both net and atom place"),
    "empty-type-set": (
        _replaced(net_place_type=lambda np: {**np.net_place_type, "s_p0": frozenset()}),
        "net place 's_p0' has an empty type set"),
    "unknown-element-net": (
        _edited_doc(lambda doc: doc["system_net"]["places"][0]["type"].append("ghost")),
        "net place 's_p0' typed over unknown element net 'ghost'"),
    "unknown-atom-domain": (
        _edited_doc(lambda doc: doc["system_net"]["places"].append(
            {"id": "s_d", "kind": "atom", "type": "ghost"})),
        "atom place 's_d' typed over unknown domain 'ghost'"),
    "empty-domain": (
        _replaced(domains=lambda np: {"D": Domain("D", ())}),
        "declared domain 'D' is empty"),
    "unlabeled-transition": (
        _replaced(system_activity=lambda np: {t: a for t, a in np.system_activity.items()
                                              if t != "s_b"}),
        "system transition 's_b' has no activity label"),
    "arc-without-expression": (
        _replaced(arc_expr=lambda np: {arc: e for arc, e in np.arc_expr.items()
                                       if arc != ("s_p1", "s_b")}),
        "system arc ('s_p1', 's_b') has no expression"),
    "expression-on-unknown-arc": (
        _replaced(arc_expr=lambda np: {**np.arc_expr, ("s_p0", "s_b"): parse_arc_expr("x")}),
        "expression attached to unknown arc ('s_p0', 's_b')"),
    "net-arc-constant": (
        _edited_doc(_net_arc("x + `1`")),
        "arc ('s_p0', 's_a'): net-place expressions cannot contain constants"),
    "net-arc-untyped-variable": (
        _edited_doc(_net_arc("x + y")),
        "arc ('s_p0', 's_a'): variable 'y' has no type"),
    "net-arc-data-variable": (
        _edited_doc(_net_arc("x + d", domains=["D"], d="D")),
        "arc ('s_p0', 's_a'): variable 'd' is not net-typed"),
    "net-arc-foreign-class": (
        _edited_doc(_net_arc("x + z", element=True, z="other")),
        "arc ('s_p0', 's_a'): variable 'z' (type 'other') does not fit place 's_p0'"),
    "atom-arc-repeated-variable": (
        _edited_doc(_atom_arc("d + d", d="D")),
        "arc ('s_a', 's_d'): atom-place expression repeats a variable"),
    "atom-arc-untyped-variable": (
        _edited_doc(_atom_arc("y")),
        "arc ('s_a', 's_d'): variable 'y' has no type"),
    "atom-arc-net-variable": (
        _edited_doc(_atom_arc("x")),
        "arc ('s_a', 's_d'): net-typed variable 'x' on an atom place"),
    "atom-arc-other-domain": (
        _edited_doc(_chain(_atom_arc("e", e="E"), lambda doc: doc["domains"].update(E=[1]))),
        "arc ('s_a', 's_d'): variable 'e' (domain 'E') does not match place domain 'D'"),
    "atom-arc-constant-outside-domain": (
        _edited_doc(_atom_arc("`9`")),
        "arc ('s_a', 's_d'): constant 9 outside domain 'D'"),
    "unknown-class": (
        _edited_doc(lambda doc: doc["agents"].update(r3="ghost")),
        "agent 'r3' has unknown class 'ghost'"),
    "agent-named-SN": (
        _edited_doc(_roster("SN", "r2")),
        "agent 'SN' takes the name of a report component"),
    "agent-named-model": (
        _edited_doc(_roster("r1", "model")),
        "agent 'model' takes the name of a report component"),
    "net-tokens-off-net-place": (
        _edited_doc(_initial(lambda m: m["net_places"].update(
            s_x=[m["net_places"]["s_p0"].pop()]))),
        "initial marking: net tokens on non-net place 's_x'"),
    "token-of-unknown-agent": (
        _edited_doc(_initial(lambda m: m["net_places"]["s_p0"].append(
            {"agent": "r9", "marking": {"c_i": 1}}))),
        "initial marking: net token names unknown agent 'r9'"),
    "token-of-foreign-class": (
        _edited_doc(_chain(_other_element, lambda doc: doc["agents"].update(r2="other"))),
        "initial marking: agent 'r2' (class 'other') not allowed in place 's_p0'"),
    "inner-marking-off-element": (
        _edited_doc(lambda doc: doc["final_markings"][0]["net_places"]["s_p2"][0].update(
            marking={"ghost": 1})),
        "final marking 0: inner marking of 'r1' references foreign places ['ghost']"),
    "atoms-off-atom-place": (
        _edited_doc(_initial(lambda m: m["atom_places"].update(s_p0=[1]))),
        "initial marking: atomic values on non-atom place 's_p0'"),
    "atom-outside-domain": (
        _edited_doc(_chain(_atom_arc("`1`"),
                           _initial(lambda m: m["atom_places"].update(s_d=[9])))),
        "initial marking: value 9 in place 's_d' outside domain 'D'"),
}


@pytest.mark.parametrize("build, message", VALIDATION_CASES.values(), ids=VALIDATION_CASES)
def test_validator_reports_each_violation(assistant_model, build, message):
    # one broken model per message of validate_nested_net and its marking check
    assert message in validate_nested_net(build(assistant_model))


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


def test_apply_step_builds_one_marking_per_step(assistant_model, monkeypatch):
    # every step kind takes and puts its tokens in one build, with no
    # intermediate marking per sync participant
    built = []
    set_fields = NpMarking._set
    monkeypatch.setattr(NpMarking, "_set",
                        lambda self, *fields: built.append(1) or set_fields(self, *fields))
    kinds = set()
    m = assistant_model.initial_marking
    for _ in range(20):
        steps = enabled_steps(assistant_model, m)
        for step in steps:
            built.clear()
            apply_step(assistant_model, m, step)
            assert len(built) == 1, step
            kinds.add(type(step))
        if not steps:
            break
        m = apply_step(assistant_model, m, steps[0])
    assert kinds == {ElementStep, SystemStep, SyncStep}


_CHAIN = PetriNet({"w_i", "w_o"}, {"w_t"}, {("w_i", "w_t"), ("w_t", "w_o")})

REFUSALS = {
    "source-not-a-place": (lambda np: WorkflowNet(_CHAIN, "w_x", "w_o", {"w_t": "a"}),
                           NetStructureError),
    "activity-on-unknown-transition": (
        lambda np: WorkflowNet(_CHAIN, "w_i", "w_o", {"w_t": "a", "w_u": "b"}),
        NetStructureError),
    "sync-on-unknown-transition": (
        lambda np: WorkflowNet(_CHAIN, "w_i", "w_o", {"w_t": "a"}, {"w_u": "s"}),
        NetStructureError),
    "zero-max-steps": (lambda np: SimulationConfig(max_steps=0), ValueError),
    "agent-class-outside-roster": (lambda np: np.agent_class("r9"), RosterError),
    "apply-non-step": (lambda np: apply_step(np, np.initial_marking, ("r1", "c_h")), TypeError),
}


@pytest.mark.parametrize("name", sorted(REFUSALS))
def test_refusal(name, assistant_model):
    build, error = REFUSALS[name]
    with pytest.raises(error):
        build(assistant_model)


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


def _typed_example():
    """The worked example with a data variable y (domain D = {u}) on s_b,
    through atom place s_d, and a second class clerk (customer's net with
    no sync labels) whose one agent k1 runs in net place s_k."""
    doc = json.loads((FIXTURES / "assistant_model.json").read_text())
    clerk = json.loads(json.dumps(doc["element_nets"]["customer"]).replace('"c_', '"k_'))
    for t in clerk["transitions"]:
        t.pop("sync", None)
    doc["element_nets"]["clerk"] = clerk
    doc["domains"] = {"D": ["u"]}
    sn = doc["system_net"]
    sn["places"] += [{"id": "s_d", "kind": "atom", "type": "D"},
                     {"id": "s_k", "kind": "net", "type": ["clerk"]}]
    sn["transitions"][1]["variables"]["y"] = "D"
    sn["arcs"] += [{"from": "s_d", "to": "s_b", "expr": "y"},
                   {"from": "s_b", "to": "s_d", "expr": "y"}]
    doc["agents"]["k1"] = "clerk"
    for marking, inner in [(doc["initial_marking"], "k_i")] + [
            (final, "k_o") for final in doc["final_markings"]]:
        marking["net_places"]["s_k"] = [{"agent": "k1", "marking": {inner: 1}}]
        marking["atom_places"] = {"s_d": ["u"]}
    return loads_model(json.dumps(doc))


_R1 = NetToken("r1", Multiset(["c_o"]))

ILL_TYPED_STEPS = {
    "missing-net-variable": (SystemStep("s_b", Binding({"y": "u"})),
                             "transition 's_b' is not enabled: binding does not enable it"),
    "missing-data-variable": (SystemStep("s_b", Binding({"x": _R1})),
                              "transition 's_b' is not enabled: binding does not enable it"),
    "agent-name-for-net-token": (SystemStep("s_b", Binding({"x": "r1", "y": "u"})),
                                 "transition 's_b' is not enabled: binding does not enable it"),
    "net-token-of-other-class": (
        SystemStep("s_b", Binding({"x": NetToken("k1", Multiset(["k_i"])), "y": "u"})),
        "transition 's_b' is not enabled: binding does not enable it"),
    "data-value-outside-domain": (SystemStep("s_b", Binding({"x": _R1, "y": "w"})),
                                  "transition 's_b' is not enabled: binding does not enable it"),
    "sync-step-on-unlabeled": (
        SyncStep("s_b", Binding({"x": _R1, "y": "u"}), [("r1", "c_f")]),
        "transition 's_b' is not enabled: not a labeled system transition"),
    "system-step-on-labeled": (
        SystemStep("s_a", Binding({"x": NetToken("r1", Multiset(["c_p2"]))})),
        "transition 's_a' is not enabled: not an unlabeled system transition"),
    "unknown-transition": (SystemStep("s_z", Binding({})),
                           "transition 's_z' is not enabled: not an unlabeled system transition"),
    "unknown-inner-transition": (
        ElementStep("r1", "zz"),
        "transition 'zz' is not enabled: not an unlabeled transition enabled in 'r1'"),
    "agent-outside-roster": (ElementStep("r9", "c_d"),
                             "transition 'c_d' is not enabled: agent 'r9' not in marking"),
    "element-step-on-labeled": (
        ElementStep("r1", "c_f"),
        "transition 'c_f' is not enabled: not an unlabeled transition enabled in 'r1'"),
}


@pytest.mark.parametrize("name", sorted(ILL_TYPED_STEPS))
def test_ill_typed_step_refused_by_gate_and_event(name):
    # apply_step and event_for_step both convert a step through one typing
    # check, so both refuse an ill-typed step with the same message
    np = _typed_example()
    well_typed = SystemStep("s_b", Binding({"x": _R1, "y": "u"}))
    assert event_for_step(np, well_typed).data == Multiset([("D", "u")])
    step, message = ILL_TYPED_STEPS[name]
    for convert in (lambda: apply_step(np, np.initial_marking, step),
                    lambda: event_for_step(np, step)):
        with pytest.raises(NotEnabledError) as caught:
            convert()
        assert str(caught.value) == message


def test_step_binding_variable_without_type_refused_by_gate_and_event():
    # s_b binds ``a``, which has no declared type (unvalidated models only):
    # no value lies in its type, so both refuse the step as ill-typed
    np = s_b_model({}, to_d="a")
    token = NetToken("r1", Multiset(["c_p2"]))
    step = SystemStep("s_b", Binding({"x": token, "a": 1}))
    for convert in (lambda: apply_step(np, NpMarking({"s_p1": [token]}), step),
                    lambda: event_for_step(np, step)):
        with pytest.raises(NotEnabledError) as caught:
            convert()
        assert str(caught.value) == "transition 's_b' is not enabled: binding does not enable it"


def test_sync_step_naming_an_agent_twice_refused_by_gate_and_event():
    # event_for_step must not record a step that apply_step refuses: a sync
    # step names one participant per involved net token
    np = _typed_example()
    step = SyncStep("s_a", Binding({"x": _R1}), [("r1", "c_f"), ("r1", "c_f")])
    for convert in (lambda: apply_step(np, np.initial_marking, step),
                    lambda: event_for_step(np, step)):
        with pytest.raises(NotEnabledError) as caught:
            convert()
        assert str(caught.value) == (
            "transition 's_a' is not enabled: participants do not match the involved net tokens")


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


def test_is_run_np_false_on_refused_step(assistant_model):
    # the run ends in the final marking, where r1 can no longer fire c_d:
    # the refused step makes the sequence no run, and raises nothing
    steps = fifth_trace_steps(assistant_model)
    assert not is_run_np(assistant_model, steps + [ElementStep("r1", "c_d")])


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


def test_apply_step_matches_firing_reference():
    # apply_step against oracles.np_fire, which fires by the paper's three
    # step kinds with its own arc evaluation and inner-net arithmetic: on
    # every syntactically possible step of the first reachable markings,
    # and of each with its atom places emptied (where constant arc terms
    # decide), both give the same marking or both refuse. The random models
    # are the first 15 of criterion 3's with atom places.
    rng = random.Random(20250301)
    models = [np for np in (random_nested_net(rng, max_agents=4) for _ in range(40))
              if np.atom_place_type][:15]
    models += [load_model(FIXTURES / "assistant_model.json"),
               loads_model(json.dumps(scaled_assistant_doc([f"r{i}" for i in range(1, 13)])))]
    fired = refused = 0
    for np in models:
        seen, queue = [np.initial_marking], [np.initial_marking]
        while queue and len(seen) < 30:
            m = queue.pop(0)
            for probe in (m, NpMarking(m.net_tokens)):
                for step in np_possible_steps(np, probe):
                    try:
                        got = apply_step(np, probe, step)
                    except NotEnabledError:
                        got = None
                    assert got == np_fire(np, probe, step), (step, probe)
                    fired += got is not None
                    refused += got is None
                    if probe is m and got is not None and got not in seen:
                        seen.append(got)
                        queue.append(got)
    assert fired > 1000 and refused > 5000


def test_marking_rejects_duplicate_agent():
    with pytest.raises(RosterError):
        NpMarking({"p": [NetToken("r1", Multiset(["a"]))],
                   "q": [NetToken("r1", Multiset(["b"]))]})


def meet_model(k=2):
    """``k`` agents forced through one synchronization that moves them all:
    ``ms_t`` reads ``x + y`` (two agents) or ``x1 + ... + xk`` from ``ms_p0``."""
    element = WorkflowNet(
        PetriNet({"m_i", "m_o"}, {"m_t"}, {("m_i", "m_t"), ("m_t", "m_o")}),
        "m_i", "m_o", {"m_t": "join"}, {"m_t": "meet"})
    system = PetriNet({"ms_p0", "ms_p1"}, {"ms_t"},
                      {("ms_p0", "ms_t"), ("ms_t", "ms_p1")})
    agents = [f"q{i}" for i in range(1, k + 1)]
    variables = ["x", "y"] if k == 2 else [f"x{i}" for i in range(1, k + 1)]
    initial = NpMarking({"ms_p0": [NetToken(r, Multiset(["m_i"])) for r in agents]})
    final = NpMarking({"ms_p1": [NetToken(r, Multiset(["m_o"])) for r in agents]})
    return NestedNet(
        system=system,
        net_place_type={"ms_p0": {"M"}, "ms_p1": {"M"}},
        atom_place_type={}, domains={},
        arc_expr={("ms_p0", "ms_t"): parse_arc_expr(" + ".join(variables)),
                  ("ms_t", "ms_p1"): parse_arc_expr(" + ".join(variables))},
        var_type={v: "M" for v in variables},
        elements={"M": element},
        system_activity={"ms_t": "rendezvous"}, system_sync={"ms_t": "meet"},
        agents={r: "M" for r in agents},
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


def test_step_specs_match_reference_on_a_meeting_of_six():
    # six agents meet through x1 + ... + x6: the enabled steps are the 720
    # orders of the six tokens, each with its one participant list, in the
    # order of the enumeration that checks every product combination
    from npnconf.nested import _build_step

    np = meet_model(6)
    assert validate_nested_net(np) == [] and check_conservative(np) == []
    steps = enabled_steps(np, np.initial_marking)
    assert len(steps) == 720
    assert steps == [_build_step(np, spec)
                     for spec in step_specs_reference(np, np.initial_marking)]


def test_meeting_of_six_builds_only_injective_combinations(monkeypatch):
    # Machine-independent guard: the bindings of a transition reading
    # x1 + ... + x6 from a place of six tokens are built without a repeated
    # token, 720 combinations, where building the product and dropping the
    # repeats built 6^6 = 46656
    from types import SimpleNamespace

    from npnconf import nested

    built = [0]

    def counted(combinations):
        for values in combinations:
            built[0] += 1
            yield values

    injective = nested._injective_product
    monkeypatch.setattr(nested, "itertools", SimpleNamespace(
        product=lambda *pools: counted(itertools.product(*pools))))
    monkeypatch.setattr(nested, "_injective_product", lambda *args: counted(injective(*args)))
    np = meet_model(6)
    assert len(system_bindings(np, np.initial_marking, "ms_t")) == 720
    assert built[0] == 720


def _refused_firings():
    """Per name, a model, a marking and two steps that differ in one
    respect: the first fires there, the second is refused for that one."""
    worked = load_model(FIXTURES / "assistant_model.json")
    r1, r2 = (NetToken(r, Multiset(["c_p2"])) for r in ("r1", "r2"))
    at_p0 = NpMarking({"s_p0": [r1, r2]})
    sync_a = SyncStep("s_a", Binding({"x": r1}), [("r1", "c_f")])
    meet = meet_model()
    q1, q2 = (tk for _, tk in meet.initial_marking.iter_tokens())
    both = Binding({"x": q1, "y": q2})
    return {
        "two-participants-for-one-agent": (
            worked, at_p0, sync_a,
            SyncStep("s_a", sync_a.binding, [("r1", "c_f"), ("r1", "c_f")])),
        "participant-not-taken": (
            worked, at_p0, sync_a,
            SyncStep("s_a", sync_a.binding, [("r1", "c_f"), ("r2", "c_f")])),
        "missing-participant": (
            meet, meet.initial_marking, SyncStep("ms_t", both, [("q1", "m_t"), ("q2", "m_t")]),
            SyncStep("ms_t", both, [("q1", "m_t")])),
        "stale-net-token": (
            worked, at_p0, sync_a,
            SyncStep("s_a", Binding({"x": NetToken("r1", Multiset(["c_p1"]))}),
                     [("r1", "c_f")])),
        "element-agent-not-in-marking": (
            worked, NpMarking({"s_p0": [NetToken("r2", Multiset(["c_i"]))]}),
            ElementStep("r2", "c_d"), ElementStep("r1", "c_d")),
    }


@pytest.mark.parametrize("name", sorted(_refused_firings()))
def test_firing_refuses_mismatched_step(name):
    np, m, fires, refused = _refused_firings()[name]
    apply_step(np, m, fires)
    with pytest.raises(NotEnabledError):
        apply_step(np, m, refused)


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


def _walk_cases():
    # criterion 3's first 40 models, the 12-agent worked example, swap_model
    # (atom places) and the roster of test_enabled_steps_exact_order
    rng = random.Random(20250301)
    for i in range(40):
        yield random_nested_net(rng, max_agents=4), SimulationConfig(seed=i, trace_count=20)
    yield (loads_model(json.dumps(scaled_assistant_doc([f"r{i}" for i in range(1, 13)]))),
           SimulationConfig(seed=5, trace_count=20))
    yield swap_model(), SimulationConfig(seed=3, trace_count=20)
    yield (loads_model(json.dumps(scaled_assistant_doc(["r1", "r2", "r10", "o'k", "s'"]))),
           SimulationConfig(seed=3, trace_count=20))


def test_step_specs_match_reference_on_walks(monkeypatch):
    # The enumeration reads the model's step table; on every marking the
    # walks expand it gives the specs, in order, of the enumeration that
    # rebuilds agent orders, pools and options at each marking.
    compared = []

    def checked(np, m, specs):
        assert specs == step_specs_reference(np, m), m
        compared.append(specs)

    watch_step_specs(monkeypatch, checked)
    for np, cfg in _walk_cases():
        generate_log(np, cfg)
    assert len(compared) > 4000
    assert sum(len(spec) == 3 for specs in compared for spec in specs) > 1000


def _handwritten_model():
    """Pool shapes no criterion-3 model has: ``s_u`` draws one net variable
    from two input places (it cannot be conservative, so the model is not
    validated, and it never fires), ``s_n`` two net variables from two
    places, the sync transition ``s_m`` binds two net variables whose
    tokens have two options each (``c_f`` and ``c_f2``), and in ``s_d`` the
    data variables ``a`` and ``b`` sort before the net variable ``x``."""
    doc = scaled_assistant_doc(["r1", "o'k", "s'"])
    customer = doc["element_nets"]["customer"]
    customer["transitions"].append({"id": "c_f2", "activity": "f", "sync": "s1"})
    customer["arcs"] += [["c_p2", "c_f2"], ["c_f2", "c_o"]]
    doc["domains"] = {"D": [2, 1, "z"]}
    system = doc["system_net"]
    system["places"].append({"id": "s_q", "kind": "atom", "type": "D"})
    two = {"x": "customer", "y": "customer"}
    system["transitions"] += [
        {"id": "s_u", "activity": "u", "variables": {"x": "customer"}},
        {"id": "s_n", "activity": "n", "variables": two},
        {"id": "s_m", "activity": "m", "sync": "s1", "variables": two},
        {"id": "s_d", "activity": "d", "variables": {"a": "D", "b": "D", "x": "customer"}}]
    system["arcs"] += [
        {"from": src, "to": dst, "expr": expr} for src, dst, expr in [
            ("s_p0", "s_u", "x"), ("s_p1", "s_u", "x"), ("s_u", "s_p2", "x"),
            ("s_p0", "s_n", "x"), ("s_p1", "s_n", "y"), ("s_n", "s_p2", "x + y"),
            ("s_p0", "s_m", "x + y"), ("s_m", "s_p1", "x + y"),
            ("s_p1", "s_d", "x"), ("s_q", "s_d", "a"), ("s_d", "s_p2", "x"),
            ("s_d", "s_q", "b")]]
    doc["initial_marking"]["atom_places"] = {"s_q": [1]}
    return loads_model(json.dumps(doc), validate=False)


def test_step_specs_match_reference_on_handwritten_pools():
    # every reachable marking of the handwritten model: the step specs and
    # each transition's bindings equal those of the per-marking enumeration
    from npnconf.colored import Binding
    from npnconf.nested import _enabling_values, _fire_spec, _step_specs

    np = _handwritten_model()
    assert "s_u" in [t for t, _ in np._table.transitions]
    seen, queue, fired = {np.initial_marking}, [np.initial_marking], set()
    while queue:
        m = queue.pop()
        specs = _step_specs(np, m)
        assert specs == step_specs_reference(np, m), m
        for t in sorted(np.system.transitions):
            variables = np.transition_variables(t)
            assert system_bindings(np, m, t) == [
                Binding(zip(variables, values))
                for values in _enabling_values(np, m, t, reference_pools(np, m, t))]
        for spec in specs:
            fired.add("element" if isinstance(spec[1], str) else spec[0])
            m2 = _fire_spec(np, m, spec)
            if m2 not in seen:
                seen.add(m2)
                queue.append(m2)
    assert len(seen) > 300
    assert fired == {"element", "s_a", "s_b", "s_c", "s_d", "s_m", "s_n"}
    m = NpMarking({"s_p0": [NetToken(r, Multiset(["c_p2"])) for r in ("r1", "o'k")]})
    products = [spec for spec in _step_specs(np, m) if spec[0] == "s_m"]
    assert len(products) == 8  # two bindings, two options per token
    assert products == [spec for spec in step_specs_reference(np, m) if spec[0] == "s_m"]


def _rule_shapes_model():
    """The shapes the compiled enabling rule decides, none validated: ``s_xx``
    reads ``x + x`` from one net place (it never fires), ``s_y`` reads
    ``x + y`` from ``s_p1`` (distinct tokens, none with one token there),
    ``s_o`` puts a data variable that occurs only on an output arc (it
    ranges over its whole domain), and ``s_aa`` reads ``a + a`` from an
    atom place (it needs a value twice)."""
    doc = scaled_assistant_doc(["r1", "o'k"])
    doc["domains"] = {"D": [2, 1, "z"]}
    system = doc["system_net"]
    system["places"].append({"id": "s_q", "kind": "atom", "type": "D"})
    system["transitions"] += [
        {"id": "s_xx", "activity": "xx", "variables": {"x": "customer"}},
        {"id": "s_y", "activity": "y", "variables": {"x": "customer", "y": "customer"}},
        {"id": "s_o", "activity": "o", "variables": {"x": "customer", "b": "D"}},
        {"id": "s_aa", "activity": "aa", "variables": {"x": "customer", "a": "D"}}]
    system["arcs"] += [
        {"from": src, "to": dst, "expr": expr} for src, dst, expr in [
            ("s_p0", "s_xx", "x + x"), ("s_xx", "s_p1", "x"),
            ("s_p1", "s_y", "x + y"), ("s_y", "s_p2", "x + y"),
            ("s_p0", "s_o", "x"), ("s_o", "s_p1", "x"), ("s_o", "s_q", "b"),
            ("s_p1", "s_aa", "x"), ("s_q", "s_aa", "a + a"), ("s_aa", "s_p2", "x")]]
    doc["initial_marking"]["atom_places"] = {"s_q": [1, 1, 2]}
    return loads_model(json.dumps(doc), validate=False)


def test_step_specs_match_reference_on_rule_shapes():
    # every reachable marking: the step specs and each transition's bindings
    # equal those of the enumeration that checks each combination's demand
    from npnconf.nested import _fire_spec, _step_specs

    np = _rule_shapes_model()
    seen, queue, fired = {np.initial_marking}, [np.initial_marking], set()
    bound = {"s_y": set(), "s_aa": set()}
    while queue:
        m = queue.pop()
        specs = _step_specs(np, m)
        assert specs == step_specs_reference(np, m), m
        for t in sorted(np.system.transitions):
            variables = np.transition_variables(t)
            assert system_bindings(np, m, t) == [
                Binding(zip(variables, values)) for values in
                reference_enabling_values(np, m, t, reference_pools(np, m, t))]
        for spec in specs:
            fired.add("element" if isinstance(spec[1], str) else spec[0])
            m2 = _fire_spec(np, m, spec)
            if m2 not in seen:
                seen.add(m2)
                queue.append(m2)
        bound["s_y"].add((len(m.tokens_at("s_p1")),
                          len([s for s in specs if s[0] == "s_y"])))
        if m.tokens_at("s_p1"):
            bound["s_aa"].add((m.atoms_at("s_q").count(1), m.atoms_at("s_q").count(2),
                               frozenset(s[1][0] for s in specs if s[0] == "s_aa")))
    assert len(seen) > 100
    assert fired == {"element", "s_a", "s_b", "s_c", "s_o", "s_y", "s_aa"}
    # two tokens in s_p1 give both orders of x and y; one token gives none
    assert {(1, 0), (2, 2)} <= bound["s_y"] and not {(1, 1), (1, 2)} & bound["s_y"]
    # a + a binds a value the place holds at least twice, and only such a value
    assert {(2, 1, frozenset([1])), (1, 1, frozenset())} <= bound["s_aa"]
    assert all(ones >= 2 or 1 not in values for ones, _, values in bound["s_aa"])


def _segment_order_model():
    """The worked example, unvalidated, with a roster whose repr order
    differs from its name order and three transitions that sort after
    ``s_c``: ``s_k`` reads ``x + y`` from ``s_p1`` and ``s_m`` reads one
    net variable from ``s_p0`` and a constant from the atom place ``s_q``,
    which holds it twice and gets none back, so both take the product
    path, and between them the sync transition ``s_l`` reads one net
    variable from ``s_p1``, whose tokens on ``c_p2`` have two options
    (``c_f`` and ``c_f2``)."""
    doc = scaled_assistant_doc(["r1", "o'k", "s'"])
    customer = doc["element_nets"]["customer"]
    customer["transitions"].append({"id": "c_f2", "activity": "f", "sync": "s1"})
    customer["arcs"] += [["c_p2", "c_f2"], ["c_f2", "c_o"]]
    doc["domains"] = {"D": [1]}
    system = doc["system_net"]
    system["places"].append({"id": "s_q", "kind": "atom", "type": "D"})
    system["transitions"] += [
        {"id": "s_k", "activity": "k", "variables": {"x": "customer", "y": "customer"}},
        {"id": "s_l", "activity": "l", "sync": "s1", "variables": {"x": "customer"}},
        {"id": "s_m", "activity": "m", "variables": {"x": "customer"}}]
    system["arcs"] += [
        {"from": src, "to": dst, "expr": expr} for src, dst, expr in [
            ("s_p1", "s_k", "x + y"), ("s_k", "s_p2", "x + y"),
            ("s_p1", "s_l", "x"), ("s_l", "s_p2", "x"),
            ("s_p0", "s_m", "x"), ("s_q", "s_m", "`1`"), ("s_m", "s_p1", "x")]]
    doc["initial_marking"]["atom_places"] = {"s_q": [1, 1]}
    return loads_model(json.dumps(doc), validate=False)


def test_step_specs_match_reference_on_segment_order():
    # every reachable marking: the segments of single-token transitions,
    # read off each token's memo entry in repr order, sit between the
    # product-path segments as in the per-marking enumeration
    from npnconf.nested import _fire_spec, _step_specs

    np = _segment_order_model()
    assert sorted(np._table.single) == ["s_a", "s_b", "s_c", "s_l"]
    seen, queue, fired = {np.initial_marking}, [np.initial_marking], set()
    two_options = between = blocked = 0
    while queue:
        m = queue.pop()
        specs = _step_specs(np, m)
        assert specs == step_specs_reference(np, m), m
        for spec in specs:
            fired.add("element" if isinstance(spec[1], str) else spec[0])
            m2 = _fire_spec(np, m, spec)
            if m2 not in seen:
                seen.add(m2)
                queue.append(m2)
        two_options += 2 in Counter(spec[1] for spec in specs if spec[0] == "s_l").values()
        between += {"s_k", "s_l", "s_m"} <= {spec[0] for spec in specs}
        blocked += bool(m.tokens_at("s_p0")) and not m.atoms_at("s_q")
    assert len(seen) > 1000
    assert fired == {"element", "s_a", "s_b", "s_c", "s_k", "s_l", "s_m"}
    assert two_options > 0 and between > 0 and blocked > 0


def test_worked_example_builds_no_pools(monkeypatch):
    # every transition of the worked example is a single-token one, so the
    # enumeration reads all its segments off the per-token memo entries and
    # never groups a marking's tokens or builds a pool; swap_model's
    # transitions read an atom place, so it does
    from npnconf.nested import _NetTable

    built = Counter()
    for name in ("groups", "pools"):
        def counting(self, *args, _name=name, _original=getattr(_NetTable, name)):
            built[_name] += 1
            return _original(self, *args)

        monkeypatch.setattr(_NetTable, name, counting)
    np = loads_model(json.dumps(scaled_assistant_doc([f"r{i}" for i in range(1, 13)])))
    generate_log(np, SimulationConfig(seed=5, trace_count=3))
    assert sorted(np._table.single) == ["s_a", "s_b", "s_c"]
    assert built == Counter()
    generate_log(swap_model(), SimulationConfig(seed=3, trace_count=3))
    assert built["groups"] > 0 and built["pools"] > 0


def test_worked_example_checks_no_combination(monkeypatch):
    # The worked example's transitions each read one net variable from one
    # net place, so their pools imply every enabling combination: generating
    # the 12-agent log checks none, and the log keeps its pin. A model with
    # an atom-place input arc does check them.
    from npnconf import nested

    checked = [0]
    rule_met = nested._rule_met

    def counting(*args):
        checked[0] += 1
        return rule_met(*args)

    monkeypatch.setattr(nested, "_rule_met", counting)
    np = loads_model(json.dumps(scaled_assistant_doc([f"r{i}" for i in range(1, 13)])))
    log = generate_log(np, SimulationConfig(seed=5, trace_count=3))
    assert checked[0] == 0
    assert hashlib.sha256(serialize_log(log)).hexdigest() == (
        "5aef50eadb717298bbc59c7f076593e309e76f93f599607f765927aad47bf482")
    generate_log(swap_model(), SimulationConfig(seed=3, trace_count=3))
    assert checked[0] > 0


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


def s_b_model(variables, to_p2="x", to_d=None):
    """The worked example, loaded unvalidated, with domain D over [1, 2],
    atom place s_d of type D, ``variables`` declared on s_b, the arc
    s_b -> s_p2 carrying ``to_p2`` and, when given, an arc s_b -> s_d
    carrying ``to_d``."""
    doc = json.loads((FIXTURES / "assistant_model.json").read_text())
    doc["domains"]["D"] = [1, 2]
    system = doc["system_net"]
    system["places"].append({"id": "s_d", "kind": "atom", "type": "D"})
    system["transitions"][1]["variables"].update(variables)
    for arc in system["arcs"]:
        if (arc["from"], arc["to"]) == ("s_b", "s_p2"):
            arc["expr"] = to_p2
    if to_d is not None:
        system["arcs"].append({"from": "s_b", "to": "s_d", "expr": to_d})
    return loads_model(json.dumps(doc), validate=False)


def test_non_token_on_net_output_arc_names_the_place():
    # the output side says what it would put where; the input side keeps
    # its missing-tokens message
    token = NetToken("r1", Multiset(["c_p2"]))
    m = NpMarking({"s_p1": [token]})
    for expr, binding, put in [("x + a", {"x": token, "a": 2}, "2"),
                               ("x + `r9`", {"x": token}, "'r9'")]:
        with pytest.raises(NotEnabledError) as exc:
            apply_step(s_b_model({"a": "D"}, expr), m, SystemStep("s_b", Binding(binding)))
        assert str(exc.value) == (
            f"transition 's_b' is not enabled: puts {put}, no net token, on net place 's_p2'")
    with pytest.raises(NotEnabledError) as exc:
        apply_step(s_b_model({}), NpMarking(), SystemStep("s_b", Binding({"x": token})))
    assert str(exc.value) == "transition 's_b' is not enabled (missing tokens in: 's_p1')"


UNDECLARED_TYPES = {"no-type": {}, "undeclared-domain": {"a": "Nope"}}


@pytest.mark.parametrize("declared", UNDECLARED_TYPES.values(), ids=UNDECLARED_TYPES)
def test_variable_without_declared_type_never_enables(declared, assistant_log):
    # s_b puts a variable with no type, or typed over an undeclared domain,
    # on an atom place (only an unvalidated model has one): the checks keep
    # their verdict and their NetStructureError, and the simulator never
    # enables s_b instead of raising KeyError
    np = s_b_model(declared, to_d="a")
    report = check_monolithic(assistant_log, np)
    assert [(r.components["model"].fits, r.components["model"].failure_position)
            for r in report.results] == [(False, 6), (False, 6), (True, None),
                                         (True, None), (False, 6)]
    for check in (check_compositional, check_both):
        with pytest.raises(NetStructureError, match="variable 'a'"):
            check(assistant_log, np)
    m = NpMarking({"s_p1": [NetToken("r1", Multiset(["c_p2"]))]})
    assert system_bindings(np, m, "s_b") == []
    assert enabled_steps(np, m) == []
    log = generate_log(np, SimulationConfig(seed=0, trace_count=10))
    assert check_monolithic(log, np).overall
    assert not any(e.activity == "b" for trace, _ in log.items() for e in trace.events)


@pytest.mark.parametrize("declared", UNDECLARED_TYPES.values(), ids=UNDECLARED_TYPES)
def test_payload_for_variable_without_declared_type_binds_nothing(declared):
    # every b event carries a value tagged D (a has no type) or Nope (a's
    # undeclared domain): no payload binds a, so the checks give what they
    # give without the payload
    np = s_b_model(declared, to_d="a")
    doc = json.loads((FIXTURES / "assistant_log.json").read_text())
    for trace in doc["traces"]:
        for event in trace["events"]:
            if event["activity"] == "b":
                event["data"] = [[declared.get("a", "D"), 1]]
    log = parse_log(json.dumps(doc).encode())
    assert [(r.components["model"].fits, r.components["model"].failure_position)
            for r in check_monolithic(log, np).results] == [
                (False, 6), (False, 6), (True, None), (True, None), (False, 6)]
    with pytest.raises(NetStructureError, match="variable 'a'"):
        check_compositional(log, np)


def test_net_variable_read_from_atom_place_never_enables():
    # s_b also reads x from an atom place, which here holds r1's token as a
    # value (only an unvalidated model, or a marking built by hand, puts one
    # there): no binding or step is offered, though apply_step fires it
    doc = json.loads((FIXTURES / "assistant_model.json").read_text())
    doc["domains"]["D"] = [1, 2]
    doc["system_net"]["places"].append({"id": "s_d", "kind": "atom", "type": "D"})
    doc["system_net"]["arcs"].append({"from": "s_d", "to": "s_b", "expr": "x"})
    token = NetToken("r1", Multiset(["c_p2"]))
    m = NpMarking({"s_p1": [token]}, {"s_d": [token]})
    step = SystemStep("s_b", Binding({"x": token}))
    assert enabled_steps(load_model(FIXTURES / "assistant_model.json"), m) == [step]
    np = loads_model(json.dumps(doc), validate=False)
    assert system_bindings(np, m, "s_b") == []
    assert enabled_steps(np, m) == []
    assert apply_step(np, m, step) == NpMarking({"s_p2": [token]})


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
    # the constructor builds through the same routine as a step, so the
    # canonical form is checked against a reference built here: places
    # sorted and non-empty, tokens sorted by agent
    places = {}
    for place, tk in m.iter_tokens():
        places.setdefault(place, []).append(tk)
    assert m.net_tokens == tuple((p, tuple(sorted(toks, key=lambda tk: tk.agent)))
                                 for p, toks in sorted(places.items()))
    assert m.atoms == tuple(sorted(((p, ms) for p, ms in m.atoms if ms),
                                   key=lambda entry: entry[0]))
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


def payload_model():
    """Two classes, A (agents a1, a2) and B (b1, b2), and domains D = {u, v,
    w} and E = {1, 2}. ``go`` is two transitions: ``t_pair`` reads an A, a B
    and two D values and puts the values back with a constant `u`;
    ``t_twin`` reads two As and an E value and puts back a constant `1`.
    ``t_stop`` (activity ``stop``) sorts its data variable before its net
    variable and reads a constant `v`."""
    def element(c):
        return WorkflowNet(PetriNet({f"{c}_i", f"{c}_o"}, {f"{c}_t"},
                                    {(f"{c}_i", f"{c}_t"), (f"{c}_t", f"{c}_o")}),
                           f"{c}_i", f"{c}_o", {f"{c}_t": "work"})
    arcs = {("pa", "t_pair"): "x", ("pb", "t_pair"): "y", ("q", "t_pair"): "d1 + d2",
            ("t_pair", "pa"): "x", ("t_pair", "pb"): "y", ("t_pair", "q"): "d1 + d2 + `u`",
            ("pa", "t_twin"): "x + z", ("n", "t_twin"): "e",
            ("t_twin", "pa"): "x + z", ("t_twin", "n"): "`1`",
            ("pa", "t_stop"): "x", ("q", "t_stop"): "`v`",
            ("t_stop", "pa"): "x", ("t_stop", "q"): "a"}
    tokens = {"pa": [NetToken(r, Multiset(["A_i"])) for r in ("a1", "a2")],
              "pb": [NetToken(r, Multiset(["B_i"])) for r in ("b1", "b2")]}
    initial = NpMarking(tokens, {"q": ["u", "u", "v"], "n": [1]})
    return NestedNet(
        system=PetriNet({"pa", "pb", "q", "n"}, {"t_pair", "t_twin", "t_stop"}, set(arcs)),
        net_place_type={"pa": {"A"}, "pb": {"B"}}, atom_place_type={"q": "D", "n": "E"},
        domains={"D": Domain("D", {"u", "v", "w"}), "E": Domain("E", {1, 2})},
        arc_expr={arc: parse_arc_expr(expr) for arc, expr in arcs.items()},
        var_type={"x": "A", "z": "A", "y": "B", "d1": "D", "d2": "D", "e": "E", "a": "D"},
        elements={"A": element("A"), "B": element("B")},
        system_activity={"t_pair": "go", "t_twin": "go", "t_stop": "stop"}, system_sync={},
        agents={"a1": "A", "a2": "A", "b1": "B", "b2": "B"},
        initial_marking=initial, final_markings=[initial])


# hand-made payloads of ``payload_model``: repeated data values, agents of the
# wrong class or none, data outside its domain, of another or an undeclared
# domain, and too few or too many values
PAYLOADS = [(["a1", "b1"], [("D", "u"), ("D", "u")]), (["a1", "b2"], [("D", "w"), ("D", "u")]),
            (["a1", "a2"], [("E", 1)]), (["a2", "a1"], [("E", 2)]), (["b1", "b2"], [("E", 1)]),
            (["b1", "b2"], [("D", "u"), ("D", "v")]), (["a1", "b1"], [("D", "z"), ("D", "u")]),
            (["a1", "b1"], [("E", "u"), ("D", "u")]), (["a2"], [("D", "w")]),
            (["a1"], [("F", 1)]), (["a1"], [("D", 3)]), (["a1"], []), (["a1", "c9"], [("E", 1)]),
            (["a1", "b1"], [("D", "u"), ("D", "u"), ("D", "v")]), ([], [("D", "u")])]


def _payload_cases():
    """(model, distinct system and sync events) pairs: the simulated and
    noisy logs of the first criterion-3 models, the k-agent meeting for k = 2
    to 5, and ``payload_model`` with ``PAYLOADS``."""
    rng = random.Random(20250301)
    for i in range(30):
        np = random_nested_net(rng, max_agents=4)
        log = generate_log(np, SimulationConfig(seed=i, trace_count=20))
        noisy, _ = perturb_log(log, NoiseSpec.for_model(np, seed=i, swap=0.4, drop=0.3,
                                                        relabel=0.3, retarget=0.3))
        yield np, {e for lg in (log, noisy) for trace, _ in lg.items() for e in trace
                   if isinstance(e, (SystemEvent, SyncEvent))}
    for k in range(2, 6):
        agents = [f"q{i}" for i in range(1, k + 1)]
        yield meet_model(k), {SyncEvent("rendezvous", [("join", r) for r in chosen])
                              for chosen in (agents, agents[1:], agents + ["q9"])}
    yield payload_model(), {SystemEvent("go", names, data) for names, data in PAYLOADS}


def test_payload_matcher_matches_reference():
    # The compiled payload matcher against its own depth-first search over
    # the model's arcs: same value tuples in the same order, for every system
    # transition against every event, and each system-component candidate
    # with the arc effect the reference derives from its binding.
    from npnconf import colored, nested

    models = matched = with_data = 0
    for np, events in _payload_cases():
        component = project_system_net(np)
        candidates = colored.candidate_memo(component.net, lambda t, e: (
            nested._payload_assignments(np, t, e.involved, e.data)))
        table = component.net._table
        for e in sorted(events, key=repr):
            names, projected = event_agents(e), SystemEvent(e.activity, event_agents(e), e.data)
            for t in sorted(np.system.transitions):
                got = list(nested._payload_assignments(np, t, names, e.data))
                assert got == payload_reference(np, t, names, e.data), (t, e)
                matched += len(got)
                with_data += len(got) if e.data else 0
                found = candidates(t, projected)
                assert sorted(b.items for b, _, _ in found) == sorted(
                    tuple(zip(table.variables[t], values)) for values in got)
                for b, need, delta in found:
                    values = [b[v] for v in table.variables[t]]
                    assert (need, delta) == colored._effect(table, t, values)
                    assert (dict(need), dict(delta)) == cn_effect(component.net, t, b.as_dict())
        models += 1
    assert (models, matched, with_data) == (35, 586, 43)
