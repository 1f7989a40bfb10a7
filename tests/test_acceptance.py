"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
"""

import os
import random
import time
from contextlib import contextmanager

from npnconf.conformance import (check_both, check_compositional,
                                 check_monolithic)
from npnconf.events import parse_log, serialize_log
from npnconf.multiset import Multiset
from npnconf.nested import apply_step, check_conservative
from npnconf.projection import (parse_system_log, project_log,
                                project_system_net, serialize_system_log)
from npnconf.simulate import (NoiseSpec, SimulationConfig, generate_log,
                              perturb_log, simulate_run)

from conftest import FIXTURES
from generators import (random_colored_net, random_log, random_nested_net,
                        random_workflow_net)
from oracles import cn_enumerate_runs, wf_enumerate_runs, wf_reachable_markings


@contextmanager
def criterion(number, name):
    try:
        yield
    except BaseException:
        print(f"[acceptance] criterion {number} ({name}): FAIL")
        raise
    print(f"[acceptance] criterion {number} ({name}): PASS")


def test_criterion_1_projection_golden(assistant_model, assistant_log):
    with criterion(1, "projection golden"):
        start = time.perf_counter()
        components = project_log(assistant_log, assistant_model.agents)

        from npnconf.events import SystemEvent as E
        expected_sn = {
            (E("a", {"r1"}), E("a", {"r2"}), E("b", {"r2"}), E("b", {"r1"})): 4,
            (E("a", {"r2"}), E("a", {"r1"}), E("b", {"r1"}), E("b", {"r2"})): 1,
            (E("c", {"r1"}), E("c", {"r2"})): 1,
            (E("c", {"r2"}), E("c", {"r1"})): 1,
            (E("a", {"r1"}), E("c", {"r2"}), E("b", {"r1"})): 2,
        }
        assert components.system_log == Multiset.from_counts(expected_sn)
        assert components.agent_logs["r1"] == Multiset.from_counts(
            {("d", "h", "f"): 5, ("d", "h", "g"): 1,
             ("d", "e", "g"): 1, ("d", "e", "f"): 2})
        assert components.agent_logs["r2"] == Multiset.from_counts(
            {("d", "h", "f"): 5, ("d", "e", "g"): 3, ("d", "h", "g"): 1})
        assert time.perf_counter() - start < 1.0


def test_criterion_2_worked_example_fitness(assistant_model, assistant_log):
    with criterion(2, "worked-example fitness"):
        start = time.perf_counter()
        for checker in (check_monolithic, check_compositional, check_both):
            report = checker(assistant_log, assistant_model)
            assert report.overall is True
            assert report.aggregate == 1.0
            assert report.weight == 9
            assert not report.inconclusive
            assert report.discrepancies == ()
        assert time.perf_counter() - start < 1.0


def test_criterion_3_mode_equivalence_suite():
    with criterion(3, "mode equivalence, 500 random models"):
        start = time.perf_counter()
        rng = random.Random(20250301)
        models = 500
        total_traces = 0
        inconclusive_traces = 0
        for i in range(models):
            np = random_nested_net(rng, max_agents=4)
            assert len(np.agents) <= 4
            assert len(np.system.transitions) <= 8
            assert all(len(w.net.transitions) <= 6 for w in np.elements.values())
            fitting = generate_log(np, SimulationConfig(seed=i, trace_count=20))
            noise = NoiseSpec.for_model(np, seed=i, swap=0.4, drop=0.3,
                                        relabel=0.3, retarget=0.3)
            perturbed, _ = perturb_log(fitting, noise)
            for log in (fitting, perturbed):
                report = check_both(log, np)
                assert report.discrepancies == (), \
                    f"model {i}: per-trace verdicts disagree"
                total_traces += len(report.results)
                inconclusive_traces += sum(1 for r in report.results
                                           if r.inconclusive)
        elapsed = time.perf_counter() - start
        assert inconclusive_traces / total_traces < 0.01
        assert elapsed < 300.0
        print(f"[acceptance]   {models} models, {total_traces} distinct traces, "
              f"{inconclusive_traces} inconclusive, {elapsed:.1f}s")


def test_criterion_4_generated_log_completeness():
    with criterion(4, "generated logs fit, 200 pairs"):
        rng = random.Random(9090)
        pairs = 200
        for i in range(pairs):
            np = random_nested_net(rng)
            log = generate_log(np, SimulationConfig(seed=50_000 + i,
                                                    trace_count=10))
            assert check_monolithic(log, np).overall is True
            assert check_compositional(log, np).overall is True


def test_criterion_5_oracle_equivalence(assistant_model, customer_net):
    with criterion(5, "replay agrees with exhaustive enumeration"):
        from npnconf.colored import is_run_colored
        from npnconf.nets import is_run_wf

        rng = random.Random(606)
        mismatches = 0

        def check_wf(w, max_len):
            nonlocal mismatches
            assert len(wf_reachable_markings(w)) <= 10_000
            runs = wf_enumerate_runs(w, max_len)
            labels = sorted(set(w.activity_label.values()))
            for seq in sorted(runs)[:30]:
                if not is_run_wf(w, seq).ok:
                    mismatches += 1
            for _ in range(40):
                seq = tuple(rng.choices(labels, k=rng.randrange(max_len + 1)))
                if is_run_wf(w, seq).ok != (seq in runs):
                    mismatches += 1

        def check_colored(cn, max_len):
            nonlocal mismatches
            runs = cn_enumerate_runs(cn, max_len)
            for seq in sorted(runs, key=repr)[:20]:
                if not is_run_colored(cn, seq).ok:
                    mismatches += 1
            for seq in sorted(runs, key=repr)[:20]:
                if not seq:
                    continue
                mutated = list(seq)
                i = rng.randrange(len(mutated))
                activity, payload = mutated[i]
                mutated[i] = (activity, payload + Multiset(["zz"]))
                mutated = tuple(mutated)
                if is_run_colored(cn, mutated).ok != (mutated in runs):
                    mismatches += 1

        check_wf(customer_net, 4)
        check_colored(project_system_net(assistant_model).net, 4)
        nets = 0
        for _ in range(60):
            check_wf(random_workflow_net(rng), 7)
            nets += 1
        for _ in range(45):
            check_colored(random_colored_net(rng), 4)
            nets += 1
        assert nets >= 100
        assert mismatches == 0


def test_criterion_6_conservation_property():
    with criterion(6, "agent conservation along 10^4 steps"):
        rng = random.Random(77007)
        steps_seen = 0
        model_index = 0
        while steps_seen < 10_000:
            np = random_nested_net(rng)
            assert check_conservative(np) == []  # structural acceptance
            for run_index in range(10):
                _, steps = simulate_run(
                    np, SimulationConfig(seed=model_index * 100 + run_index,
                                         max_steps=150))
                agents = np.initial_marking.agent_names()
                m = np.initial_marking
                for step in steps:
                    m = apply_step(np, m, step)
                    assert m.agent_names() == agents  # zero counterexamples
                steps_seen += len(steps)
            model_index += 1
        print(f"[acceptance]   {steps_seen} steps over {model_index} models")


def test_criterion_7_roundtrips(assistant_log):
    with criterion(7, "serialization round-trips, 1000 logs"):
        rng = random.Random(515151)
        for _ in range(1000):
            log = random_log(rng)
            data = serialize_log(log)
            assert parse_log(data) == log
            assert serialize_log(parse_log(data)) == data
        # fixtures: the worked-example log and the golden component logs
        data = serialize_log(assistant_log)
        assert parse_log(data) == assistant_log
        assert serialize_log(parse_log(data)) == data
        for name in ("L_r1.json", "L_r2.json"):
            raw = (FIXTURES / "golden" / name).read_bytes()
            assert serialize_log(parse_log(raw)) == raw
        raw = (FIXTURES / "golden" / "L_SN.json").read_bytes()
        assert serialize_system_log(parse_system_log(raw)) == raw


def test_criterion_8_benchmark_note(assistant_model):
    with criterion(8, "no quantitative results to reproduce"):
        # The source evaluation is the worked example plus a proof, so the
        # gate is example- and property-based; wall-clock comparison of the
        # two modes is informative only. Set NPNCONF_BENCH=1 to run it.
        if not os.environ.get("NPNCONF_BENCH"):
            print("[acceptance]   benchmark skipped (set NPNCONF_BENCH=1)")
            return
        rng = random.Random(8)
        for agents in (2, 4, 6, 8):
            np = random_nested_net(rng, max_agents=agents)
            log = generate_log(np, SimulationConfig(seed=agents, trace_count=30))
            t0 = time.perf_counter()
            check_monolithic(log, np)
            mono = time.perf_counter() - t0
            t0 = time.perf_counter()
            check_compositional(log, np)
            comp = time.perf_counter() - t0
            print(f"[acceptance]   agents<={agents}: monolithic {mono:.3f}s, "
                  f"compositional {comp:.3f}s")
