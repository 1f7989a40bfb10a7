import hashlib
import json
import random
import sys
import threading

import pytest

from npnconf.conformance import check_both, check_monolithic
from npnconf.events import AgentEvent, EventLog, Trace, serialize_log
from npnconf.model_io import loads_model
from npnconf.multiset import Multiset
from npnconf.nested import NestedNet, NetToken, NpMarking
from npnconf.simulate import (GenerationError, NoiseSpec, SimulationConfig,
                              apply_manifest, generate_log, perturb_log,
                              simulate_run)

from conftest import FIXTURES, scaled_assistant_doc
from generators import random_nested_net

ASSISTANT_SEED7_SHA256 = "1a46f3a3920b68e99887cf7b7961581d3589cd611b0e6f7caec03b3884acbf1b"


def test_same_seed_same_trace(assistant_model):
    cfg = SimulationConfig(seed=42, trace_count=1)
    t1, s1 = simulate_run(assistant_model, cfg)
    t2, s2 = simulate_run(assistant_model, cfg)
    assert t1 == t2 and s1 == s2


def test_generated_trace_fits_model(assistant_model):
    cfg = SimulationConfig(seed=0)
    trace, _ = simulate_run(assistant_model, cfg)
    report = check_monolithic(EventLog([trace]), assistant_model)
    assert report.overall


def test_unreachable_final_marking_fails(assistant_model):
    np = assistant_model
    unreachable = NpMarking({"s_p2": [NetToken("r1", Multiset(["c_i"])),
                                      NetToken("r2", Multiset(["c_i"]))]})
    broken = NestedNet(
        system=np.system, net_place_type=np.net_place_type,
        atom_place_type=np.atom_place_type, domains=np.domains,
        arc_expr=np.arc_expr, var_type=np.var_type, elements=np.elements,
        system_activity=np.system_activity, system_sync=np.system_sync,
        agents=np.agents, initial_marking=np.initial_marking,
        final_markings=[unreachable])
    with pytest.raises(GenerationError):
        simulate_run(broken, SimulationConfig(seed=0, max_steps=30))


def test_trace_count_zero_gives_empty_log(assistant_model):
    assert generate_log(assistant_model, SimulationConfig(trace_count=0)) == EventLog()


def test_generated_log_deterministic_bytes(assistant_model):
    cfg = SimulationConfig(seed=7, trace_count=20)
    one = serialize_log(generate_log(assistant_model, cfg))
    two = serialize_log(generate_log(assistant_model, cfg))
    assert one == two
    # pinned across commits: a change in step enumeration order shows here
    assert hashlib.sha256(one).hexdigest() == ASSISTANT_SEED7_SHA256


def test_different_seeds_differ(assistant_model):
    log1 = generate_log(assistant_model, SimulationConfig(seed=1, trace_count=10))
    log2 = generate_log(assistant_model, SimulationConfig(seed=2, trace_count=10))
    assert log1 != log2  # not guaranteed in general, but holds for these seeds


def test_generated_log_passes_both_modes(assistant_model):
    log = generate_log(assistant_model, SimulationConfig(seed=3, trace_count=100))
    report = check_both(log, assistant_model)
    assert report.overall
    assert report.discrepancies == ()


def test_noise_probability_validation():
    with pytest.raises(ValueError):
        NoiseSpec(drop=1.5)


def test_zero_probability_noise_is_identity(assistant_log):
    spec = NoiseSpec(seed=9)
    noisy, manifest = perturb_log(assistant_log, spec)
    assert noisy == assistant_log
    assert manifest == ()


def test_drop_rate_one_empties_single_event_traces():
    log = EventLog([Trace([AgentEvent("d", "r1")]),
                    Trace([AgentEvent("e", "r2")])])
    spec = NoiseSpec(seed=0, drop=1.0)
    noisy, manifest = perturb_log(log, spec)
    assert all(len(t) == 0 for t, _ in noisy.items())
    assert len(manifest) == 2
    assert all(rec.op == "drop" for rec in manifest)


def test_manifest_accounts_for_every_change(assistant_model):
    rng = random.Random(5)
    for i in range(10):
        log = generate_log(assistant_model, SimulationConfig(seed=i, trace_count=8))
        spec = NoiseSpec.for_model(assistant_model, seed=i, swap=0.5, drop=0.4,
                                   relabel=0.4, retarget=0.4)
        noisy, manifest = perturb_log(log, spec)
        assert apply_manifest(log, manifest) == noisy


def test_swap_noise_verdicts_agree_between_modes(assistant_model):
    log = generate_log(assistant_model, SimulationConfig(seed=11, trace_count=30))
    spec = NoiseSpec.for_model(assistant_model, seed=11, swap=0.8)
    noisy, _ = perturb_log(log, spec)
    report = check_both(noisy, assistant_model)
    assert report.discrepancies == ()


def test_retarget_changes_stay_parseable(assistant_model):
    from npnconf.events import parse_log

    log = generate_log(assistant_model, SimulationConfig(seed=13, trace_count=20))
    spec = NoiseSpec.for_model(assistant_model, seed=13, relabel=0.6, retarget=0.6)
    noisy, _ = perturb_log(log, spec)
    assert parse_log(serialize_log(noisy)) == noisy


def test_simulation_events_syntactically_correct():
    from npnconf.events import log_syntactically_correct

    rng = random.Random(14)
    for i in range(10):
        np = random_nested_net(rng)
        log = generate_log(np, SimulationConfig(seed=i, trace_count=5))
        assert log_syntactically_correct(log, np).ok


def _digest(np, cfg):
    return hashlib.sha256(serialize_log(generate_log(np, cfg))).hexdigest()


def test_generated_log_bytes_pinned_twelve_agents():
    doc = scaled_assistant_doc([f"r{i}" for i in range(1, 13)])
    cfg = SimulationConfig(seed=5, trace_count=3)
    assert _digest(loads_model(json.dumps(doc)), cfg) == (
        "5aef50eadb717298bbc59c7f076593e309e76f93f599607f765927aad47bf482")


def test_generated_log_bytes_pinned_random_models():
    # criterion 3's first 12 models: data variables, atom places and
    # transitions with several variables
    rng = random.Random(20250301)
    digest = hashlib.sha256()
    for _ in range(12):
        np = random_nested_net(rng, max_agents=4)
        digest.update(serialize_log(generate_log(np, SimulationConfig(seed=5, trace_count=10))))
    assert digest.hexdigest() == (
        "494cc488e3caa1a5ce6f5beeb9053c27d5b84e23a364d23962ec5a8edb9bcce0")


def test_simulation_builds_only_tried_steps(monkeypatch):
    # The walk applies every step it builds, and nothing but building a
    # step makes a binding, so there are at most as many bindings as
    # applied steps (enumerating whole steps made about 15 per applied step).
    from npnconf import simulate
    from npnconf.colored import Binding

    np = loads_model(json.dumps(scaled_assistant_doc([f"r{i}" for i in range(1, 13)])))
    counts = {"binding": 0, "apply": 0}
    binding_init = Binding.__init__
    apply_step = simulate.apply_step

    def counting_init(self, *args, **kwargs):
        counts["binding"] += 1
        binding_init(self, *args, **kwargs)

    def counting_apply(*args, **kwargs):
        counts["apply"] += 1
        return apply_step(*args, **kwargs)

    monkeypatch.setattr(Binding, "__init__", counting_init)
    monkeypatch.setattr(simulate, "apply_step", counting_apply)
    generate_log(np, SimulationConfig(seed=5, trace_count=3))
    assert counts["apply"] > 0
    assert counts["binding"] <= counts["apply"]


def test_run_longer_than_recursion_limit():
    # 300 agents need a run of over 1000 steps, deeper than the default
    # recursion limit; the digest was computed with the recursive walk
    # under a raised limit
    np = loads_model(json.dumps(scaled_assistant_doc([f"r{i}" for i in range(1, 301)])))
    trace, steps = simulate_run(np, SimulationConfig(seed=0, max_steps=1100))
    assert len(steps) == len(trace) == 1042
    assert hashlib.sha256(serialize_log(EventLog([trace]))).hexdigest() == (
        "729601532b1283f1b73ddb592548eb5f97e7270220e37d477d1280cd93029f62")


def test_model_shared_across_threads():
    # One fresh model, so the threads race to fill its tables and memos.
    np = loads_model((FIXTURES / "assistant_model.json").read_bytes())
    cfg = SimulationConfig(seed=7, trace_count=20)
    digests = []
    threads = [threading.Thread(target=lambda: digests.append(_digest(np, cfg)))
               for _ in range(4)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for th in threads:
            th.start()
        for th in threads:
            th.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(th.is_alive() for th in threads)
    assert digests == [ASSISTANT_SEED7_SHA256] * 4
