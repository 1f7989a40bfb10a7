import dataclasses
import json
from pathlib import Path

import pytest

from npnconf.events import parse_log
from npnconf.model_io import load_model
from npnconf.multiset import Multiset
from npnconf.nested import NetToken, NpMarking

FIXTURES = Path(__file__).parent / "fixtures"


@pytest.fixture(scope="session")
def assistant_model():
    return load_model(FIXTURES / "assistant_model.json")


@pytest.fixture(scope="session")
def assistant_log():
    return parse_log((FIXTURES / "assistant_log.json").read_bytes())


@pytest.fixture(scope="session")
def customer_net(assistant_model):
    return assistant_model.elements["customer"]


def scaled_assistant_doc(roster):
    """The worked-example model document with its roster replaced: every
    net place of the initial and final markings holds one token per agent,
    with the inner marking of the place's first token."""
    doc = json.loads((FIXTURES / "assistant_model.json").read_text())
    doc["agents"] = {r: "customer" for r in roster}
    for m in [doc["initial_marking"]] + doc["final_markings"]:
        for place, tokens in m["net_places"].items():
            m["net_places"][place] = [
                {"agent": r, "marking": dict(tokens[0]["marking"])} for r in roster]
    return doc


def atom_token_doc(roster=("r1", "r2")):
    """``scaled_assistant_doc(roster)`` with atom place s_q of domain D =
    {u}: each a puts one `u` on it and each b takes one, so the same net
    token meets b beside different atoms."""
    doc = scaled_assistant_doc(roster)
    doc["domains"]["D"] = ["u"]
    system = doc["system_net"]
    system["places"].append({"id": "s_q", "kind": "atom", "type": "D"})
    system["arcs"] += [{"from": "s_a", "to": "s_q", "expr": "`u`"},
                       {"from": "s_q", "to": "s_b", "expr": "`u`"}]
    return doc


def unreachable_final_model(np):
    """The worked-example model ``np`` with one final marking that no run
    reaches: both agents on s_p2 with their inner markings on the source."""
    stuck = NpMarking({"s_p2": [NetToken(r, Multiset(["c_i"])) for r in ("r1", "r2")]})
    return dataclasses.replace(np, final_markings=[stuck])


def watch_step_specs(monkeypatch, watch):
    """Wrap the simulator's step enumeration, ``simulate._step_specs``: each
    call passes every argument through, and ``watch(np, m, specs)`` then
    sees the marking and the specs returned for it."""
    from npnconf import simulate

    step_specs = simulate._step_specs

    def watched(np, m, *args, **kwargs):
        specs = step_specs(np, m, *args, **kwargs)
        watch(np, m, specs)
        return specs

    monkeypatch.setattr(simulate, "_step_specs", watched)
