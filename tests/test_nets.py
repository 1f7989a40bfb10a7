import random

import pytest

from npnconf.multiset import Multiset
from npnconf.nets import (NetStructureError, NotEnabledError, PetriNet,
                          WorkflowNet, enabled_transitions, fire, is_run_wf,
                          validate_workflow_net)

from oracles import wf_enumerate_runs, wf_reachable_markings


def simple_net():
    return PetriNet({"p", "q"}, {"t"}, {("p", "t"), ("t", "q")})


def test_construction_rejects_overlap_and_bad_arcs():
    with pytest.raises(NetStructureError):
        PetriNet({"x"}, {"x"}, set())
    with pytest.raises(NetStructureError):
        PetriNet({"p"}, {"t"}, {("p", "zz")})
    with pytest.raises(NetStructureError):
        PetriNet({"p", "q"}, {"t"}, {("p", "q")})


def test_enabled_transitions_simple():
    net = simple_net()
    assert enabled_transitions(net, Multiset(["p"])) == {"t"}
    assert enabled_transitions(net, Multiset(["q"])) == set()


def test_enabled_requires_whole_preset():
    net = PetriNet({"p1", "p2", "q"}, {"t"},
                   {("p1", "t"), ("p2", "t"), ("t", "q")})
    assert enabled_transitions(net, Multiset(["p1"])) == set()
    assert enabled_transitions(net, Multiset(["p1", "p2"])) == {"t"}


def test_enabled_rejects_foreign_marking():
    with pytest.raises(NetStructureError):
        enabled_transitions(simple_net(), Multiset(["nowhere"]))


def test_fire_moves_tokens():
    net = simple_net()
    assert fire(net, Multiset(["p"]), "t") == Multiset(["q"])


def test_fire_multi_input():
    net = PetriNet({"p1", "p2", "q"}, {"t"},
                   {("p1", "t"), ("p2", "t"), ("t", "q")})
    result = fire(net, Multiset(["p1", "p2", "q"]), "t")
    assert result == Multiset(["q", "q"])


def test_fire_not_enabled_reports_missing():
    net = simple_net()
    with pytest.raises(NotEnabledError) as exc:
        fire(net, Multiset(["q"]), "t")
    assert exc.value.transition == "t"
    assert exc.value.missing == ("p",)


def test_fire_reverse_restores_marking():
    rng = random.Random(3)
    net = PetriNet({"p1", "p2", "q1", "q2"}, {"t"},
                   {("p1", "t"), ("p2", "t"), ("t", "q1"), ("t", "q2")})
    for _ in range(50):
        m = Multiset(rng.choices(["p1", "p2", "q1", "q2"], k=rng.randrange(1, 8)))
        if all(m.count(p) >= 1 for p in ("p1", "p2")):
            fired = fire(net, m, "t")
            restored = fired - Multiset(net.postset("t")) + Multiset(net.preset("t"))
            assert restored == m


def chain_wf(activities=("d", "h", "f")):
    places = [f"p{i}" for i in range(len(activities) + 1)]
    transitions = [f"t{i}" for i in range(len(activities))]
    arcs = set()
    for i, t in enumerate(transitions):
        arcs.add((places[i], t))
        arcs.add((t, places[i + 1]))
    net = PetriNet(places, transitions, arcs)
    return WorkflowNet(net, places[0], places[-1],
                       dict(zip(transitions, activities)))


def test_validate_accepts_fixture_element_net(customer_net):
    assert validate_workflow_net(customer_net) == []


def test_validate_flags_isolated_place():
    net = PetriNet({"i", "o", "lonely"}, {"t"}, {("i", "t"), ("t", "o")})
    w = WorkflowNet(net, "i", "o", {"t": "a"})
    report = validate_workflow_net(w)
    assert report == ["node 'lonely' is not on a path from source to sink"]


def test_validate_flags_source_with_input():
    net = PetriNet({"i", "o"}, {"t", "back"},
                   {("i", "t"), ("t", "o"), ("o", "back"), ("back", "i")})
    w = WorkflowNet(net, "i", "o", {"t": "a", "back": "b"})
    report = validate_workflow_net(w)
    assert any("source" in v for v in report)
    assert any("sink" in v for v in report)


def test_validate_flags_missing_activity_label():
    net = PetriNet({"i", "o"}, {"t"}, {("i", "t"), ("t", "o")})
    w = WorkflowNet(net, "i", "o", {})
    assert validate_workflow_net(w) == ["transition 't' has no activity label"]


def test_is_run_accepts_projected_fixture_trace(customer_net):
    # one of the projected traces of the worked example
    result = is_run_wf(customer_net, ["d", "h", "f"])
    assert result.ok
    assert result.witness == ("c_d", "c_h", "c_f")


def test_is_run_rejects_empty_sequence(customer_net):
    result = is_run_wf(customer_net, [])
    assert not result.ok
    assert result.prefix == 0


def test_is_run_failure_position_from_exhaustive_enumeration(customer_net):
    # no run of the fixture net starts with h
    runs = wf_enumerate_runs(customer_net, 3)
    assert not any(r[:1] == ("h",) for r in runs)
    result = is_run_wf(customer_net, ["h", "d", "f"])
    assert not result.ok
    assert result.prefix == 0


def test_is_run_backtracks_over_duplicate_labels():
    # two transitions labeled "a": one leads to a dead end, one to the sink
    net = PetriNet({"i", "dead", "mid", "o"}, {"t1", "t2", "t3"},
                   {("i", "t1"), ("t1", "dead"),
                    ("i", "t2"), ("t2", "mid"), ("mid", "t3"), ("t3", "o")})
    w = WorkflowNet(net, "i", "o", {"t1": "a", "t2": "a", "t3": "b"})
    assert is_run_wf(w, ["a", "b"]).ok
    assert is_run_wf(w, ["a"]).prefix == 1


def test_is_run_agrees_with_enumeration_on_fixture(customer_net):
    runs = wf_enumerate_runs(customer_net, 4)
    assert runs == {("d", "h", "f"), ("d", "h", "g"), ("d", "e", "f"), ("d", "e", "g")}
    activities = ["d", "e", "f", "g", "h"]
    rng = random.Random(11)
    for _ in range(300):
        seq = tuple(rng.choices(activities, k=rng.randrange(5)))
        assert is_run_wf(customer_net, seq).ok == (seq in runs)


def test_is_run_agrees_with_enumeration_on_random_nets():
    from generators import random_workflow_net

    rng = random.Random(20250808)
    for _ in range(25):
        w = random_workflow_net(rng)
        assert validate_workflow_net(w) == []
        assert len(wf_reachable_markings(w)) <= 10_000
        max_len = 7
        runs = wf_enumerate_runs(w, max_len)
        labels = sorted(set(w.activity_label.values()))
        for seq in list(runs)[:20]:
            assert is_run_wf(w, seq).ok
        for _ in range(40):
            seq = tuple(rng.choices(labels, k=rng.randrange(max_len + 1)))
            assert is_run_wf(w, seq).ok == (seq in runs)


def loop_wf():
    # a enters the loop, b and e go round it, c leaves it
    net = PetriNet({"i", "p", "q", "o"}, {"a", "b", "e", "c"},
                   {("i", "a"), ("a", "p"), ("p", "b"), ("b", "q"),
                    ("q", "e"), ("e", "p"), ("p", "c"), ("c", "o")})
    return WorkflowNet(net, "i", "o", {t: t for t in net.transitions})


def test_is_run_long_loop_trace():
    # one search step per event, with no bound on the trace length
    w = loop_wf()
    run = ["a"] + ["b", "e"] * 5000 + ["c"]
    result = is_run_wf(w, run)
    assert result.ok
    assert result.witness == tuple(run)
    misfit = run[:-1] + ["b", "c"]
    result = is_run_wf(w, misfit)
    assert not result.ok
    assert result.prefix == 10002


def test_equal_firings_reach_one_marking_object():
    # a and b both move the token from i to p; the net's table hands back
    # one object for the marking both reach, so the enabled and fire memos
    # find it by identity instead of comparing multisets
    net = PetriNet({"i", "p", "o"}, {"a", "b", "c"},
                   {("i", "a"), ("a", "p"), ("i", "b"), ("b", "p"), ("p", "c"), ("c", "o")})
    table = WorkflowNet(net, "i", "o", {"a": "a", "b": "b", "c": "c"})._table
    start = Multiset(["i"])
    reached = table.fire(start, "a")
    assert reached == Multiset(["p"])
    assert table.fire(start, "b") is reached
    assert table.fire(Multiset(["i"]), "b") is reached
