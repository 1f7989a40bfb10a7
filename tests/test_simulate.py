import hashlib
import json
import random
import sys
import threading
from collections import Counter
from functools import cached_property

import pytest

from npnconf.conformance import check_both, check_monolithic
from npnconf.events import AgentEvent, EventLog, Trace, serialize_log
from npnconf.model_io import loads_model
from npnconf.multiset import Multiset
from npnconf.nested import NestedNet, NetToken, NpMarking, is_run_np
from npnconf.simulate import (GenerationError, NoiseSpec, SimulationConfig,
                              generate_log, perturb_log, simulate_run)

from conftest import (FIXTURES, atom_token_doc, scaled_assistant_doc, unreachable_final_model,
                      watch_step_specs)
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


def test_generate_log_names_every_failed_trace(assistant_model):
    # one error for the whole log, naming each trace no walk could finish
    with pytest.raises(GenerationError) as exc:
        generate_log(unreachable_final_model(assistant_model),
                     SimulationConfig(seed=0, trace_count=3, max_steps=30))
    assert exc.value.failed_traces == (0, 1, 2)


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


def apply_manifest(log, records):
    """Replay a noise manifest against a log; reproduces perturb_log's output."""
    occurrences = []
    for trace, freq in log.items():
        occurrences.extend(list(trace.events) for _ in range(freq))
    for rec in records:
        events = occurrences[rec.trace_index]
        if rec.op == "swap":
            events[rec.position], events[rec.position + 1] = rec.after
        elif rec.op == "drop":
            del events[rec.position]
        else:
            events[rec.position] = rec.after[0]
    return EventLog(Trace(events) for events in occurrences)


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


def test_perturbed_occurrences_share_one_object_per_distinct_event(assistant_model):
    # equal events built by relabelling or retargeting are one object, so the
    # noisy log computes each one's hash and repr once
    log = generate_log(assistant_model, SimulationConfig(seed=13, trace_count=200))
    spec = NoiseSpec.for_model(assistant_model, seed=13, relabel=0.6, retarget=0.6)
    _, manifest = perturb_log(log, spec)
    built = [e for rec in manifest if rec.op in ("relabel", "retarget") for e in rec.after]
    assert len(built) > 2 * len(set(built))
    assert len({id(e) for e in built}) == len(set(built))


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


def test_generated_log_bytes_pinned_sixteen_agents():
    # the many-agents benchmark's logs at its seed 7: four 20-trace logs of
    # the worked example scaled to 16 agents, simulated with seeds 28 to 31
    np = loads_model(json.dumps(scaled_assistant_doc([f"r{i}" for i in range(1, 17)])))
    assert [_digest(np, SimulationConfig(seed=seed, trace_count=20))
            for seed in range(28, 32)] == [
        "85595cf498022006f4e3e7234a036c48be8176b7632db78344b7920e483666a9",
        "bceab0c8a9cb46bddd7e90cf6497472b18d5e65ceffee0fbffb84bb8d0a01b5b",
        "1eafb98385a3bcbec810ed16563b7933e051d08b49cb363a75a65e5588b8d4aa",
        "31773de692b47409654a01bcf14e3d49adce9d0a183b70311f54eb364c008e6d"]


def test_simulation_builds_only_tried_steps(monkeypatch):
    # The walk evaluates the arcs of specs it tries only, and nothing but
    # building a step makes a binding, so there are at most as many bindings
    # as evaluated specs
    # (enumerating whole steps made about 15 per applied step). Only the
    # steps of the run returned are built.
    from npnconf import nested, simulate
    from npnconf.colored import Binding

    np = loads_model(json.dumps(scaled_assistant_doc([f"r{i}" for i in range(1, 13)])))
    counts = {"binding": 0, "fire": 0, "step": 0}
    binding_init = Binding.__init__
    spec_delta = simulate._spec_delta

    def counting_init(self, *args, **kwargs):
        counts["binding"] += 1
        binding_init(self, *args, **kwargs)

    def counting_fire(*args, **kwargs):
        counts["fire"] += 1
        return spec_delta(*args, **kwargs)

    monkeypatch.setattr(Binding, "__init__", counting_init)
    monkeypatch.setattr(simulate, "_spec_delta", counting_fire)
    for cls in (nested.ElementStep, nested.SystemStep, nested.SyncStep):
        def counting_step(self, *args, _original=cls.__init__, **kwargs):
            counts["step"] += 1
            _original(self, *args, **kwargs)

        monkeypatch.setattr(cls, "__init__", counting_step)
    generate_log(np, SimulationConfig(seed=5, trace_count=3))
    assert counts["fire"] > 0
    assert counts["binding"] <= counts["fire"]
    counts["step"] = 0
    _, steps = simulate_run(np, SimulationConfig(seed=5), 0)
    assert counts["step"] == len(steps) > 0


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


def test_reached_markings_build_no_place_view(monkeypatch):
    # A marking is its agent index; the tokens grouped by place are derived
    # only when read. Validation and the system component read them for the
    # model's declared markings; no marking a replay or a simulated walk
    # reaches builds them.
    built = []
    grouped = NpMarking.__dict__["net_tokens"]

    def counting(self):
        built.append(self)
        return grouped.func(self)

    view = cached_property(counting)
    view.__set_name__(NpMarking, "net_tokens")
    monkeypatch.setattr(NpMarking, "net_tokens", view)
    np = loads_model(json.dumps(scaled_assistant_doc([f"r{i}" for i in range(1, 13)])))
    log = generate_log(np, SimulationConfig(seed=5, trace_count=3))
    noisy, _ = perturb_log(log, NoiseSpec.for_model(np, seed=5, swap=0.4, drop=0.3,
                                                    relabel=0.3, retarget=0.3))
    for lg in (log, noisy):
        check_both(lg, np)
    declared = [np.initial_marking, *np.final_markings]
    assert all(any(m is d for d in declared) for m in built)
    assert len(built) <= 1 + len(np.final_markings)


def _memo_cases():
    # criterion 3's first 40 models with their 20-trace logs, the worked
    # example's 1000-trace log and the 12-agent model
    rng = random.Random(20250301)
    for i in range(40):
        yield random_nested_net(rng, max_agents=4), SimulationConfig(seed=i, trace_count=20)
    yield (loads_model((FIXTURES / "assistant_model.json").read_bytes()),
           SimulationConfig(seed=3, trace_count=1000))
    yield (loads_model(json.dumps(scaled_assistant_doc([f"r{i}" for i in range(1, 13)]))),
           SimulationConfig(seed=5, trace_count=20))


def test_walk_memo_matches_fresh_walks():
    # generate_log shares one walk memo across its traces; simulate_run
    # walks on a fresh one and builds its events from the run's steps'
    # specs. The logs must be equal, and every step's event_for_step must
    # be the event the spec builder made for it.
    from npnconf.simulate import event_for_step

    for np, cfg in _memo_cases():
        runs = [simulate_run(np, cfg, i) for i in range(cfg.trace_count)]
        assert generate_log(np, cfg) == EventLog(trace for trace, _ in runs)
        for trace, steps in runs:
            assert tuple(event_for_step(np, step) for step in steps) == trace.events


def test_walk_memo_admits_on_second_sight(monkeypatch):
    # A marking expanded once leaves only its hash in the memo; only one
    # expanded again is stored, so each marking's steps are enumerated at
    # most twice per log (7003 enumerations of 24 markings without the
    # memo). generate_log builds events from specs, never a Step.
    from npnconf import nested, simulate

    np = loads_model((FIXTURES / "assistant_model.json").read_bytes())
    cfg = SimulationConfig(seed=3, trace_count=1000)
    expanded = Counter()
    steps = [0]
    watch_step_specs(monkeypatch, lambda np, m, specs: expanded.update([m]))
    for cls in (nested.ElementStep, nested.SystemStep, nested.SyncStep):
        def counting_step(self, *args, _original=cls.__init__, **kwargs):
            steps[0] += 1
            _original(self, *args, **kwargs)

        monkeypatch.setattr(cls, "__init__", counting_step)
    generate_log(np, cfg)
    assert steps[0] == 0
    assert sum(expanded.values()) <= 2 * len(expanded)
    expanded.clear()
    seen, stored, _ = memo = (set(), {}, {})
    for i in range(cfg.trace_count):
        simulate._walk(np, cfg, i, memo)
    assert len(seen) == len({hash(m) for m in expanded}) > 0
    assert set(stored) == {m for m, n in expanded.items() if n >= 2}
    assert all(n <= 2 for n in expanded.values())
    _, run = simulate_run(np, cfg, 0)
    assert steps[0] == len(run) > 0


def _markings_in(value):
    if isinstance(value, NpMarking):
        return 1
    if isinstance(value, dict):
        return sum(_markings_in(k) + _markings_in(v) for k, v in value.items())
    if isinstance(value, (tuple, list, set, frozenset)):
        return sum(map(_markings_in, value))
    return 0


def test_walk_evaluates_each_spec_once_per_what_it_reads(monkeypatch):
    # Machine-independent guard: the walks of one log evaluate a spec's arcs
    # (``_spec_delta``) once per what the spec reads (its located token, or
    # the atoms), not once per marking it is tried in: 72 evaluations for
    # 12 agents x 20 traces, where firing each tried spec made 819. The
    # kept deltas hold no marking.
    from npnconf import simulate

    np = loads_model(json.dumps(scaled_assistant_doc([f"r{i}" for i in range(1, 13)])))
    calls = [0]
    spec_delta = simulate._spec_delta

    def counting(*args):
        calls[0] += 1
        return spec_delta(*args)

    monkeypatch.setattr(simulate, "_spec_delta", counting)
    generate_log(np, SimulationConfig(seed=5, trace_count=20))
    assert 0 < calls[0] <= 72
    memo = (set(), {}, {})
    for i in range(20):
        simulate._walk(np, SimulationConfig(seed=5), i, memo)
    assert len(memo[2]) > 0 and _markings_in(memo[2]) == 0


def test_walk_deltas_hold_the_atoms():
    # A system spec's delta is kept by the atoms it reads: b of one token
    # meets one, two or three `u` on s_q (see ``atom_token_doc``). The
    # digest was computed while the walk fired each tried spec in full;
    # keeping b's delta by its token alone changes it. Every run is a run.
    from npnconf import simulate
    from npnconf.nested import _build_step

    np = loads_model(json.dumps(atom_token_doc(("r1", "r2", "r3"))))
    log = generate_log(np, SimulationConfig(seed=1, trace_count=30))
    assert hashlib.sha256(serialize_log(log)).hexdigest() == (
        "6700386b08ffeb3e45d0036fcdb955040e28c1cb17591a3d8e65cac9d99ea44d")
    assert check_monolithic(log, np).overall
    memo = (set(), {}, {})
    for i in range(30):
        specs = simulate._walk(np, SimulationConfig(seed=1), i, memo)
        assert is_run_np(np, [_build_step(np, spec) for spec in specs])
    assert len({atoms for spec, atoms in memo[2] if spec[0] == "s_b"}) > 1


def test_step_table_grows_per_token_not_per_marking(monkeypatch):
    # The step table keeps entries per net token (agent, then inner
    # marking): after a log they number at most roster x the distinct inner
    # markings the walks reached, and the table holds no marking. A memo
    # per marking grows with the log instead; one kept more than ten times
    # the peak memory in an earlier version of the simulator.
    np = loads_model(json.dumps(scaled_assistant_doc([f"r{i}" for i in range(1, 13)])))
    expanded = set()
    watch_step_specs(monkeypatch, lambda np, m, specs: expanded.add(m))
    generate_log(np, SimulationConfig(seed=5, trace_count=20))
    inners = {tk.inner for m in expanded for _, tk in m._index.values()}
    entries = sum(len(by_inner) for by_inner in np._table.options.values())
    assert len(expanded) > 100
    assert 0 < entries <= len(np.agents) * len(inners)
    assert _markings_in(vars(np._table)) == 0


def test_walk_reads_the_rows_of_the_agents_a_step_moved(monkeypatch):
    # Machine-independent guard: a marking the walk enumerates copies its
    # enumerated parent's rows and redoes only the agents the step into it
    # moved, so 16 agents x 20 traces read at most 2 rows per enumeration
    # on average, where reading every token's memo entry at each marking
    # took 17552 reads for 1097 enumerations (16.0 each). A token's entry
    # is read only to build a row, and the row memo holds at most roster x
    # distinct (place, inner marking) entries and no marking.
    from npnconf import nested

    class CountingMemo(dict):
        def get(self, key, default=None):
            reads[0] += 1
            return super().get(key, default)

    np = loads_model(json.dumps(scaled_assistant_doc([f"r{i}" for i in range(1, 17)])))
    reads, entry_reads, expanded = [0], [0], []
    np._table.rows = {agent: CountingMemo() for agent in np._table.roster}
    options_of = nested._NetTable.options_of

    def counting(*args):
        entry_reads[0] += 1
        return options_of(*args)

    monkeypatch.setattr(nested._NetTable, "options_of", counting)
    watch_step_specs(monkeypatch, lambda np, m, specs: expanded.append(m))
    generate_log(np, SimulationConfig(seed=5, trace_count=20))
    located = {(place, tk.inner) for m in expanded for place, tk in m._index.values()}
    entries = sum(map(len, np._table.rows.values()))
    assert len(expanded) > 1000
    assert 0 < reads[0] <= 2 * len(expanded)
    assert entry_reads[0] == entries <= len(np._table.roster) * len(located)
    assert _markings_in(np._table.rows) == 0
