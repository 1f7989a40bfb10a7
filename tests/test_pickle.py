"""Values that cache their hash are pickled so that the loading process
recomputes it: string hashes differ between processes. Each test runs
Python in fresh processes, under chosen hash seeds."""

import dataclasses
import os
import subprocess
import sys
from pathlib import Path

from npnconf.multiset import Multiset
from npnconf.nested import NetToken

ROOT = Path(__file__).resolve().parents[1]

BUILD = f"""
import pickle, sys
sys.path.insert(0, {str(ROOT / "src")!r})
from npnconf.model_io import load_model
from npnconf.multiset import Multiset
from npnconf.projection import project_marking_system
np = load_model({str(ROOT / "tests" / "fixtures" / "assistant_model.json")!r})
values = [Multiset(["a", "b", "b", ("dom", 3)]), np.initial_marking,
          project_marking_system(np.initial_marking)]
"""

DUMP = BUILD + "sys.stdout.buffer.write(pickle.dumps(values))\n"

LOAD = BUILD + """
loaded = pickle.loads(sys.stdin.buffer.read())
for old, new in zip(loaded, values):
    print(type(new).__name__, old == new, hash(old) == hash(new), old in {new})
"""


def _run(script: str, seed: str, data: bytes = b"") -> bytes:
    env = dict(os.environ, PYTHONHASHSEED=seed)
    done = subprocess.run([sys.executable, "-c", script], input=data, env=env,
                          capture_output=True, check=True)
    return done.stdout


def test_pickled_values_rehash_in_another_process():
    out = _run(LOAD, "2", _run(DUMP, "1")).decode().split("\n")
    assert out[:3] == ["Multiset True True True",
                       "NpMarking True True True",
                       "ColoredMarking True True True"]


SWAP = f"""
import sys
sys.path.insert(0, {str(ROOT / "src")!r})
from npnconf.multiset import Multiset
from npnconf.nested import NetToken, NpMarking
def marking(a, b):
    return NpMarking({{"s_p0": [NetToken(a, Multiset(["c_p1"]))],
                      "s_p2": [NetToken(b, Multiset(["c_o"]))]}})
print(hash(marking("r1", "r2")) == hash(marking("r2", "r1")))
"""

COUNT = BUILD + """
from npnconf import conformance, simulate
log = simulate.generate_log(np, simulate.SimulationConfig(seed=3, trace_count=1000))
noisy, _ = simulate.perturb_log(log, simulate.NoiseSpec.for_model(
    np, seed=3, swap=0.4, drop=0.3, relabel=0.3, retarget=0.3))
calls = []
moves = conformance._moves
conformance._moves = lambda *a: calls.append(1) or moves(*a)
conformance.check_monolithic(noisy, np)
print(len(calls))
"""


def test_swapped_agents_hash_apart_under_every_seed():
    # CPython's tuple hash is nearly additive in its items' hashes, so summed
    # per-token terms would let two agents that swap their (place, inner
    # marking) positions cancel out; the monolithic successor memo keys its
    # seen-set by hash, so a collision changes how much work a check does
    assert [_run(SWAP, str(seed)) for seed in range(16)] == [b"False\n"] * 16
    assert _run(COUNT, "0") == _run(COUNT, "1")


TRACE = f"""
import pickle, sys
sys.path.insert(0, {str(ROOT / "src")!r})
from npnconf.events import parse_log
log = parse_log(open({str(ROOT / "tests" / "fixtures" / "assistant_log.json")!r}, "rb").read())
traces = [trace for trace, _ in log.items()]
"""


def test_pickled_trace_rehashes_in_another_process():
    # a trace caches its hash on first use; the cached value of another
    # process must not come along
    dump = TRACE + "[hash(t) for t in traces]\nsys.stdout.buffer.write(pickle.dumps(traces))\n"
    load = TRACE + """
loaded = pickle.loads(sys.stdin.buffer.read())
print(all(old == new and hash(old) == hash(new) and old in set(traces)
          for old, new in zip(loaded, traces)), len(loaded))
"""
    assert _run(load, "2", _run(dump, "1")) == b"True 5\n"


MODEL = f"""
import hashlib, json, pickle, sys
sys.path[:0] = [{str(ROOT / "src")!r}, {str(ROOT / "tests")!r}]
from conftest import scaled_assistant_doc
from npnconf.events import serialize_log
from npnconf.model_io import loads_model
from npnconf.simulate import SimulationConfig, generate_log
def fresh():
    return loads_model(json.dumps(scaled_assistant_doc([f"r{{i}}" for i in range(1, 13)])))
def digest(np, traces):
    return hashlib.sha256(serialize_log(generate_log(
        np, SimulationConfig(seed=5, trace_count=traces)))).hexdigest()
"""


def test_pickled_model_with_filled_step_table_generates_same_log():
    # A model pickled after a log carries its filled step table, whose memos
    # are keyed by agent and inner marking; loaded under another hash seed
    # it must generate the logs a fresh model does.
    dump = MODEL + """
np = fresh()
digest(np, 3)
sys.stdout.buffer.write(pickle.dumps(np))
"""
    load = MODEL + """
np = pickle.loads(sys.stdin.buffer.read())
print(sum(map(len, vars(np)["_table"].options.values())) > 0,
      digest(np, 20) == digest(fresh(), 20), digest(np, 3))
"""
    assert _run(load, "2", _run(dump, "1")) == (
        b"True True 5aef50eadb717298bbc59c7f076593e309e76f93f599607f765927aad47bf482\n")


TOKEN = f"""
import pickle, sys
sys.path.insert(0, {str(ROOT / "src")!r})
from npnconf.multiset import Multiset
from npnconf.nested import NetToken
tokens = [NetToken("r1", Multiset(["c_p1"])), NetToken("r2", Multiset(["c_o", "c_o"]))]
"""


def test_pickled_net_token_rehashes_in_another_process():
    # a net token caches its hash on first use; the cached value of another
    # process must not come along
    dump = TOKEN + "[hash(t) for t in tokens]\nsys.stdout.buffer.write(pickle.dumps(tokens))\n"
    load = TOKEN + """
loaded = pickle.loads(sys.stdin.buffer.read())
print(all(old == new and hash(old) == hash(new) and old in set(tokens)
          for old, new in zip(loaded, tokens)), len(loaded))
"""
    assert _run(load, "2", _run(dump, "1")) == b"True 2\n"


EVENTS = f"""
import pickle, sys
sys.path.insert(0, {str(ROOT / "src")!r})
from npnconf.events import parse_log
log = parse_log(open({str(ROOT / "tests" / "fixtures" / "assistant_log.json")!r}, "rb").read())
events = sorted({{e for trace, _ in log.items() for e in trace}}, key=repr)
"""


def test_pickled_events_rehash_in_another_process():
    # an event caches its hash and its repr on first use; the cached hash of
    # another process must not come along
    dump = EVENTS + """
[(hash(e), repr(e)) for e in events]
sys.stdout.buffer.write(pickle.dumps(events))
"""
    load = EVENTS + """
loaded = pickle.loads(sys.stdin.buffer.read())
print(sorted({type(e).__name__ for e in loaded}), len(loaded), all(
    old == new and hash(old) == hash(new) and repr(old) == repr(new) and old in set(events)
    for old, new in zip(loaded, events)))
"""
    assert _run(load, "2", _run(dump, "1")) == (
        b"['AgentEvent', 'SyncEvent', 'SystemEvent'] 12 True\n")


def test_replaced_event_hashes_and_reprs_as_its_own_value(assistant_log):
    # ``perturb_log`` relabels with ``dataclasses.replace``: a value (event,
    # trace or net token) whose hash and repr were read must not lend them to
    # the replacement
    traces = [trace for trace, _ in assistant_log.items()]
    changes = [(e, "activity", e.activity + "'") for e in {e for t in traces for e in t}]
    changes += [(traces[0], "events", traces[0].events[1:]),
                (NetToken("r1", Multiset(["c_p1"])), "agent", "r2")]
    kinds = set()
    for value, name, changed in changes:
        hash(value), repr(value)
        new = dataclasses.replace(value, **{name: changed})
        fresh = type(value)(*(getattr(new, f.name) for f in dataclasses.fields(value)))
        assert new == fresh and hash(new) == hash(fresh) and repr(new) == repr(fresh)
        assert new != value and new not in {value} and f"{name}={changed!r}" in repr(new)
        kinds.add(type(value).__name__)
    assert kinds == {"AgentEvent", "SystemEvent", "SyncEvent", "Trace", "NetToken"}
