import random

import pytest

from npnconf.colored import (ArcExpr, Binding, BindingError, ColoredMarking,
                             ColoredNet, Const, Domain, ExprSyntaxError, Var,
                             eval_arc_expr, fire_colored, is_run_colored,
                             parse_arc_expr)
from npnconf.multiset import Multiset
from npnconf.nets import NetStructureError, NotEnabledError, PetriNet
from npnconf.projection import project_system_net

from generators import random_colored_net, random_workflow_net
from oracles import cn_enabled_bindings, cn_enumerate_runs, cn_fire


def test_parse_arc_expr_variables_and_constants():
    e = parse_arc_expr("x + y")
    assert e.terms == (Var("x"), Var("y"))
    e = parse_arc_expr("  x+`5` ")
    assert e.terms == (Var("x"), Const(5))
    e = parse_arc_expr("`red`")
    assert e.terms == (Const("red"),)
    assert str(parse_arc_expr("x+`red`")) == "x + `red`"


def test_parse_arc_expr_rejects_garbage():
    for bad in ("", "x +", "x ++ y", "`unterminated", "3x"):
        with pytest.raises(ExprSyntaxError):
            parse_arc_expr(bad)


def test_eval_sum_of_two_variables():
    b = Binding({"x": "r1", "y": "r2"})
    assert eval_arc_expr(parse_arc_expr("x + y"), b) == Multiset(["r1", "r2"])


def test_eval_repeated_variable_doubles_multiplicity():
    b = Binding({"x": "r1"})
    assert eval_arc_expr(parse_arc_expr("x + x"), b) == Multiset(["r1", "r1"])


def test_eval_variable_plus_constant():
    b = Binding({"x": 3})
    assert eval_arc_expr(parse_arc_expr("x + `5`"), b) == Multiset([3, 5])


def test_eval_unbound_variable_raises():
    with pytest.raises(BindingError):
        eval_arc_expr(parse_arc_expr("x + y"), Binding({"x": 1}))


def test_eval_is_additive_over_term_concatenation():
    rng = random.Random(5)
    values = ["u", "v", "w"]
    for _ in range(100):
        b = Binding({"x": rng.choice(values), "y": rng.choice(values)})
        t1 = [rng.choice([Var("x"), Var("y"), Const("k")])
              for _ in range(rng.randint(1, 3))]
        t2 = [rng.choice([Var("x"), Var("y"), Const("k")])
              for _ in range(rng.randint(1, 3))]
        combined = eval_arc_expr(ArcExpr(t1 + t2), b)
        assert combined == eval_arc_expr(ArcExpr(t1), b) + eval_arc_expr(ArcExpr(t2), b)


def small_net(initial, finals=None, expr_in="x", expr_out="x"):
    net = PetriNet({"p", "q"}, {"t"}, {("p", "t"), ("t", "q")})
    dom = Domain("R", {"r1", "r2", "r3"})
    initial = ColoredMarking(initial)
    return ColoredNet(
        net=net, domains={"R": dom},
        place_type={"p": "R", "q": "R"},
        arc_expr={("p", "t"): parse_arc_expr(expr_in),
                  ("t", "q"): parse_arc_expr(expr_out)},
        var_type={"x": "R"},
        activity_label={"t": "a"},
        initial_marking=initial,
        final_markings=finals or {initial},
    )


def test_enabled_bindings_on_projected_fixture(assistant_model):
    # system transition labeled a, input place holding both agent names
    component = project_system_net(assistant_model)
    cn = component.net
    bindings = cn_enabled_bindings(cn, cn.initial_marking, "s_a")
    assert bindings == [{"x": "r1"}, {"x": "r2"}]


def test_enabled_bindings_empty_place():
    cn = small_net({"q": ["r1"]})
    assert cn_enabled_bindings(cn, cn.initial_marking, "t") == []


def test_enabled_bindings_constant_only_transition():
    net = PetriNet({"p", "q"}, {"t"}, {("p", "t"), ("t", "q")})
    dom = Domain("R", {"r1"})
    cn = ColoredNet(
        net=net, domains={"R": dom}, place_type={"p": "R", "q": "R"},
        arc_expr={("p", "t"): parse_arc_expr("`r1`"),
                  ("t", "q"): parse_arc_expr("`r1`")},
        var_type={}, activity_label={"t": "a"},
        initial_marking=ColoredMarking({"p": ["r1"]}),
        final_markings={ColoredMarking({"q": ["r1"]})},
    )
    assert cn_enabled_bindings(cn, cn.initial_marking, "t") == [{}]
    assert cn_enabled_bindings(cn, ColoredMarking({}), "t") == []


def test_fire_colored_moves_bound_token():
    cn = small_net({"p": ["r1", "r2"]})
    m2 = fire_colored(cn, cn.initial_marking, "t", Binding({"x": "r1"}))
    assert m2.get("p") == Multiset(["r2"])
    assert m2.get("q") == Multiset(["r1"])


def test_fire_colored_rejects_absent_value():
    cn = small_net({"p": ["r1", "r2"]})
    with pytest.raises(NotEnabledError):
        fire_colored(cn, cn.initial_marking, "t", Binding({"x": "r3"}))


def test_fire_colored_duplicates_into_two_outputs():
    net = PetriNet({"p", "q1", "q2"}, {"t"},
                   {("p", "t"), ("t", "q1"), ("t", "q2")})
    dom = Domain("R", {"r1"})
    cn = ColoredNet(
        net=net, domains={"R": dom},
        place_type={"p": "R", "q1": "R", "q2": "R"},
        arc_expr={("p", "t"): parse_arc_expr("x"),
                  ("t", "q1"): parse_arc_expr("x"),
                  ("t", "q2"): parse_arc_expr("x")},
        var_type={"x": "R"}, activity_label={"t": "a"},
        initial_marking=ColoredMarking({"p": ["r1"]}),
        final_markings={ColoredMarking({"q1": ["r1"], "q2": ["r1"]})},
    )
    m2 = fire_colored(cn, cn.initial_marking, "t", Binding({"x": "r1"}))
    assert m2 == ColoredMarking({"q1": ["r1"], "q2": ["r1"]})


def test_fire_colored_per_place_conservation():
    rng = random.Random(9)
    for _ in range(30):
        cn = random_colored_net(rng)
        m = cn.initial_marking
        for t in sorted(cn.net.transitions):
            for assignment in cn_enabled_bindings(cn, m, t):
                b = Binding(assignment)
                m2 = fire_colored(cn, m, t, b)
                for p in sorted(cn.net.places):
                    consumed = (eval_arc_expr(cn.arc_expr[(p, t)], b)
                                if (p, t) in cn.arc_expr else Multiset())
                    produced = (eval_arc_expr(cn.arc_expr[(t, p)], b)
                                if (t, p) in cn.arc_expr else Multiset())
                    assert m2.get(p) + consumed == m.get(p) + produced


def test_is_run_colored_fixture_projections(assistant_model):
    cn = project_system_net(assistant_model).net
    # projected traces of the worked example's system net
    assert is_run_colored(cn, [("c", Multiset(["r1"])), ("c", Multiset(["r2"]))]).ok
    assert is_run_colored(cn, [("a", Multiset(["r1"])), ("c", Multiset(["r2"])),
                               ("b", Multiset(["r1"]))]).ok
    result = is_run_colored(cn, [("b", Multiset(["r1"]))])
    assert not result.ok
    assert result.prefix == 0


def test_is_run_colored_agrees_with_enumeration():
    rng = random.Random(404)
    checked = 0
    for _ in range(30):
        cn = random_colored_net(rng)
        max_len = 4
        runs = cn_enumerate_runs(cn, max_len)
        for seq in sorted(runs, key=repr)[:10]:
            assert is_run_colored(cn, seq).ok
            checked += 1
        # mutate enumerated runs into mostly-non-runs and compare verdicts
        pool = sorted(runs, key=repr)
        for seq in pool[:10]:
            if not seq:
                continue
            mutated = list(seq)
            i = rng.randrange(len(mutated))
            activity, payload = mutated[i]
            mutated[i] = (activity + "_zz", payload)
            mutated = tuple(mutated)
            assert is_run_colored(cn, mutated).ok == (mutated in runs)
            checked += 1
    assert checked > 50


def test_degenerate_colors_coincide_with_plain_replay():
    rng = random.Random(77)
    for _ in range(15):
        w = random_workflow_net(rng)
        dom = Domain("dot", {"•"})
        cn = ColoredNet(
            net=w.net, domains={"dot": dom},
            place_type={p: "dot" for p in w.net.places},
            arc_expr={arc: ArcExpr([Const("•")]) for arc in w.net.arcs},
            var_type={},
            activity_label=w.activity_label,
            initial_marking=ColoredMarking({w.source: ["•"]}),
            final_markings={ColoredMarking({w.sink: ["•"]})},
        )
        labels = sorted(set(w.activity_label.values()))
        from npnconf.nets import is_run_wf
        for _ in range(30):
            seq = [rng.choice(labels) for _ in range(rng.randrange(6))]
            colored_seq = [(a, Multiset()) for a in seq]
            assert is_run_colored(cn, colored_seq).ok == is_run_wf(w, seq).ok


def test_marking_type_checking():
    with pytest.raises(NetStructureError):
        small_net({"p": ["not_in_domain"]})


_ARCS = {("p", "t"): parse_arc_expr("x"), ("t", "q"): parse_arc_expr("x")}


def _small_net_parts(**changes):
    """``small_net``'s constructor arguments, with domain S beside R and
    ``changes`` applied."""
    parts = dict(
        net=PetriNet({"p", "q"}, {"t"}, {("p", "t"), ("t", "q")}),
        domains={"R": Domain("R", {"r1", "r2", "r3"}), "S": Domain("S", {"r1", "s"})},
        place_type={"p": "R", "q": "R"},
        arc_expr=_ARCS,
        var_type={"x": "R"},
        activity_label={"t": "a"},
        initial_marking=ColoredMarking({"p": ["r1"]}),
        final_markings=set())
    parts.update(changes)
    return parts


@pytest.mark.parametrize("changes, message", [
    (dict(place_type={"p": "R"}), "place 'q' has no type"),
    (dict(place_type={"p": "R", "q": "Z"}), "place 'q' typed with unknown domain 'Z'"),
    (dict(activity_label={}), "transition 't' has no activity label"),
    (dict(arc_expr={("p", "t"): _ARCS[("p", "t")]}), "arc ('t', 'q') has no expression"),
    (dict(arc_expr={**_ARCS, ("q", "t"): parse_arc_expr("x")}),
     "expression attached to unknown arc ('q', 't')"),
    (dict(var_type={}), "variable 'x' has no declared type"),
    (dict(var_type={"x": "Z"}), "variable 'x' typed with unknown domain 'Z'"),
    (dict(var_type={"x": "S"}),
     "variable 'x' (domain 'S') does not fit place 'p' (domain 'R')"),
    (dict(arc_expr={**_ARCS, ("p", "t"): parse_arc_expr("`s`")}),
     "constant 's' not in domain of place 'p'"),
    (dict(initial_marking=ColoredMarking({"z": ["r1"]})),
     "marking references unknown place 'z'"),
    (dict(final_markings={ColoredMarking({"q": ["s"]})}),
     "value 's' in place 'q' is outside domain 'R'"),
], ids=["untyped-place", "unknown-place-domain", "unlabeled-transition",
        "arc-without-expression", "expression-on-unknown-arc", "untyped-variable",
        "unknown-variable-domain", "variable-too-wide", "constant-outside-domain",
        "marking-off-net", "value-outside-domain"])
def test_colored_net_refuses_each_defect(changes, message):
    # one broken net per message of ColoredNet._validate and its marking check
    ColoredNet(**_small_net_parts())
    with pytest.raises(NetStructureError) as exc:
        ColoredNet(**_small_net_parts(**changes))
    assert str(exc.value) == message


def test_is_run_colored_long_loop_trace():
    # one search step per event, with no bound on the trace length
    net = PetriNet({"i", "p", "q", "o"}, {"a", "b", "e", "c"},
                   {("i", "a"), ("a", "p"), ("p", "b"), ("b", "q"),
                    ("q", "e"), ("e", "p"), ("p", "c"), ("c", "o")})
    cn = ColoredNet(
        net=net, domains={"R": Domain("R", {"r1", "r2"})},
        place_type={p: "R" for p in net.places},
        arc_expr={arc: parse_arc_expr("x") for arc in net.arcs},
        var_type={"x": "R"},
        activity_label={t: t for t in net.transitions},
        initial_marking=ColoredMarking({"i": ["r1"]}),
        final_markings={ColoredMarking({"o": ["r1"]})},
    )
    run = [(a, Multiset(["r1"])) for a in ["a"] + ["b", "e"] * 5000 + ["c"]]
    result = is_run_colored(cn, run)
    assert result.ok
    assert result.witness == tuple((a, Binding({"x": "r1"})) for a, _ in run)
    misfit = run[:-1] + [("b", Multiset(["r1"])), ("c", Multiset(["r1"]))]
    result = is_run_colored(cn, misfit)
    assert not result.ok
    assert result.prefix == 10002


def test_marking_sums_a_place_given_twice():
    # a place listed twice once kept two entries, and ``get`` saw the first
    m = ColoredMarking([("p", ["x"]), ("p", ["y", "x"])])
    once = ColoredMarking({"p": ["x", "x", "y"]})
    assert m.get("p") == Multiset(["x", "x", "y"])
    assert m.entries == (("p", Multiset(["x", "x", "y"])),)
    assert m == once and hash(m) == hash(once)


def test_fired_markings_match_reference_and_fresh_build(assistant_model):
    # random binding sequences on the nets criterion 5 replays: each marking
    # reached by moves equals the reference firing and the same marking
    # built afresh from its entries, hash included
    rng = random.Random(31)
    nets = [project_system_net(assistant_model).net]
    nets += [random_colored_net(rng) for _ in range(45)]
    fired = 0
    for cn in nets:
        for _ in range(4):
            m = cn.initial_marking
            for _ in range(8):
                enabled = [(t, a) for t in sorted(cn.net.transitions)
                           for a in cn_enabled_bindings(cn, m, t)]
                if not enabled:
                    break
                t, assignment = rng.choice(enabled)
                m2 = fire_colored(cn, m, t, Binding(assignment))
                assert m2 == cn_fire(cn, m, t, assignment)
                fresh = ColoredMarking(m2.entries)
                assert m2 == fresh and hash(m2) == hash(fresh)
                m = m2
                fired += 1
    assert fired > 500
