import hashlib
import json

import pytest

from npnconf.cli import main
from npnconf.model_io import (ModelFormatError, ModelValidationError,
                              dumps_model, loads_model)
from npnconf.multiset import Multiset

from conftest import FIXTURES, scaled_assistant_doc


def fixture_doc():
    return json.loads((FIXTURES / "assistant_model.json").read_text())


def test_load_fixture(assistant_model):
    np = assistant_model
    assert set(np.agents) == {"r1", "r2"}
    assert np.system_activity == {"s_a": "a", "s_b": "b", "s_c": "c"}
    assert np.system_sync == {"s_a": "s1", "s_c": "s2"}
    assert np.initial_marking.tokens_at("s_p0")[0].inner == Multiset(["c_i"])


def test_dump_load_roundtrip(assistant_model):
    data = dumps_model(assistant_model)
    again = loads_model(data)
    assert dumps_model(again) == data


def test_dump_load_roundtrip_with_atom_place():
    # the worked example with a data variable y on s_b, read from and put
    # back on atom place s_d
    doc = fixture_doc()
    doc["domains"] = {"D": ["u", "v"]}
    sn = doc["system_net"]
    sn["places"].append({"id": "s_d", "kind": "atom", "type": "D"})
    sn["transitions"][1]["variables"]["y"] = "D"
    sn["arcs"] += [{"from": "s_d", "to": "s_b", "expr": "y"},
                   {"from": "s_b", "to": "s_d", "expr": "y"}]
    for marking in [doc["initial_marking"], *doc["final_markings"]]:
        marking["atom_places"] = {"s_d": ["u", "v"]}
    data = dumps_model(loads_model(json.dumps(doc)))
    assert {"id": "s_d", "kind": "atom", "type": "D"} in json.loads(data)["system_net"]["places"]
    assert dumps_model(loads_model(data)) == data


def test_malformed_json_rejected():
    with pytest.raises(ModelFormatError) as exc:
        loads_model(b'{"schema": "npnet/1",')
    assert "line" in str(exc.value)


def test_wrong_schema_rejected():
    with pytest.raises(ModelFormatError):
        loads_model(json.dumps({"schema": "npnet/0"}))


def test_overlapping_id_spaces_fail_validation():
    doc = fixture_doc()
    # give the system net a place that reuses an element-net place id
    doc["system_net"]["places"].append(
        {"id": "c_i", "kind": "net", "type": ["customer"]})
    with pytest.raises(ModelValidationError) as exc:
        loads_model(json.dumps(doc))
    assert any("used by both" in v for v in exc.value.violations)


def test_unknown_element_reference_fails_validation():
    doc = fixture_doc()
    doc["agents"]["r3"] = "ghost"
    with pytest.raises(ModelValidationError) as exc:
        loads_model(json.dumps(doc))
    assert any("unknown class" in v for v in exc.value.violations)


def test_non_conservative_model_fails_validation():
    doc = fixture_doc()
    for arc in doc["system_net"]["arcs"]:
        if arc["from"] == "s_b":
            arc["expr"] = "x + x"
    with pytest.raises(ModelValidationError) as exc:
        loads_model(json.dumps(doc))
    assert any("net variables" in v for v in exc.value.violations)


def test_validation_can_be_deferred():
    doc = fixture_doc()
    doc["agents"]["r3"] = "ghost"
    np = loads_model(json.dumps(doc), validate=False)
    from npnconf.nested import validate_nested_net
    assert any("unknown class" in v for v in validate_nested_net(np))


def test_conflicting_variable_types_rejected():
    doc = fixture_doc()
    doc["system_net"]["transitions"][0]["variables"] = {"x": "other"}
    with pytest.raises(ModelFormatError) as exc:
        loads_model(json.dumps(doc))
    assert "conflicting types" in str(exc.value)


def _repeat(declarations, **changes):
    declarations.append(dict(declarations[1], **changes))


@pytest.mark.parametrize("repeat, message", [
    (lambda doc: _repeat(doc["system_net"]["transitions"], activity="zzz"),
     "system net: transition 's_b' declared twice"),
    (lambda doc: _repeat(doc["system_net"]["places"]),
     "system net: place 's_p1' declared twice"),
    (lambda doc: _repeat(doc["system_net"]["arcs"], expr="x + x"),
     "system net: arc ('s_a', 's_p1') declared twice"),
    (lambda doc: _repeat(doc["element_nets"]["customer"]["transitions"], activity="zzz"),
     "element net 'customer': transition 'c_e' declared twice"),
    (lambda doc: doc["element_nets"]["customer"]["places"].append("c_p1"),
     "element net 'customer': place 'c_p1' declared twice"),
], ids=["system-transition", "system-place", "system-arc", "element-transition",
        "element-place"])
def test_repeated_declaration_rejected(repeat, message):
    # a second declaration of an id would otherwise silently replace the first
    doc = fixture_doc()
    repeat(doc)
    with pytest.raises(ModelFormatError) as exc:
        loads_model(json.dumps(doc))
    assert str(exc.value) == message


FIXTURE_TEXT = (FIXTURES / "assistant_model.json").read_text()


@pytest.mark.parametrize("old, new, key", [
    ('"agents": {', '"agents": {"r1": "NoSuchClass", ', "r1"),
    ('{"agent": "r1", "marking": {"c_i": 1}},\n',
     '{"agent": "r1", "marking": {"c_i": 1}}], "s_p0": [\n', "s_p0"),
    ('"element_nets": {', '"element_nets": {"customer": {}, ', "customer"),
], ids=["agent", "initial-marking-place", "element-net"])
def test_repeated_object_key_rejected(tmp_path, capsys, old, new, key):
    # JSON decoding keeps the last of repeated keys, so the first value
    # would vanish unseen: a misclassed agent, or an agent missing from the
    # initial marking (a log that fits would then rate 0.0)
    assert FIXTURE_TEXT.count(old) == 1
    text = FIXTURE_TEXT.replace(old, new)
    with pytest.raises(ModelFormatError) as exc:
        loads_model(text)
    assert str(exc.value) == f"object key {key!r} declared twice"
    path = tmp_path / "model.json"
    path.write_text(text)
    assert main(["validate", "--model", str(path)]) == 2
    assert capsys.readouterr().err == f"malformed model: object key {key!r} declared twice\n"


def test_bad_arc_expression_rejected():
    doc = fixture_doc()
    doc["system_net"]["arcs"][0]["expr"] = "x ++"
    with pytest.raises(ModelFormatError):
        loads_model(json.dumps(doc))


def test_empty_domain_rejected():
    doc = fixture_doc()
    doc["domains"]["D"] = []
    with pytest.raises(ModelFormatError):
        loads_model(json.dumps(doc))


def test_marking_with_unknown_agent_fails_validation():
    doc = fixture_doc()
    doc["initial_marking"]["net_places"]["s_p0"].append(
        {"agent": "r9", "marking": {"c_i": 1}})
    with pytest.raises(ModelValidationError) as exc:
        loads_model(json.dumps(doc))
    assert any("unknown agent" in v for v in exc.value.violations)


@pytest.mark.parametrize("count", [True, False])
def test_marking_with_non_integer_token_count_rejected(count):
    # a JSON boolean is not a token count, although Python's bool is an int
    doc = fixture_doc()
    doc["initial_marking"]["net_places"]["s_p0"][0]["marking"] = {"c_i": count}
    with pytest.raises(ModelFormatError, match="bad inner marking"):
        loads_model(json.dumps(doc))


def test_marking_with_duplicate_agent_rejected():
    doc = fixture_doc()
    doc["initial_marking"]["net_places"]["s_p0"].append(
        {"agent": "r1", "marking": {"c_i": 1}})
    with pytest.raises(ModelFormatError, match="occurs more than once"):
        loads_model(json.dumps(doc))


def test_marking_repr_and_dump_pinned(assistant_model):
    # dumps_model and the validation messages order final markings by repr;
    # a second final marking lists its places out of order and splits the
    # agents over two places. Both pins were computed before markings
    # became an agent index.
    assert repr(assistant_model.initial_marking) == (
        "NpMarking(net_tokens=(('s_p0', (NetToken(agent='r1', inner=Multiset({'c_i': 1})), "
        "NetToken(agent='r2', inner=Multiset({'c_i': 1})))),), atoms=())")
    doc = fixture_doc()
    doc["final_markings"].append({"net_places": {
        "s_p2": [{"agent": "r2", "marking": {"c_o": 1}}],
        "s_p0": [{"agent": "r1", "marking": {"c_o": 1}}]}, "atom_places": {}})
    assert hashlib.sha256(dumps_model(loads_model(json.dumps(doc)))).hexdigest() == (
        "62c45107248be86a921f4f6fbb8ed5c0dc5e26ce8f68f6c8da282d70246350d4")


def test_parsed_inner_markings_are_shared():
    # a loaded model holds one object per distinct inner marking, so memos
    # keyed by inner marking find the initial and final ones by identity
    np = loads_model(json.dumps(scaled_assistant_doc([f"r{i}" for i in range(1, 13)])))
    initial = [tk.inner for _, tk in np.initial_marking.iter_tokens()]
    assert len(initial) == 12
    assert all(inner is initial[0] for inner in initial)
    tokens = [tk for m in [np.initial_marking, *np.final_markings] for _, tk in m.iter_tokens()]
    assert len({id(tk.inner) for tk in tokens}) == len({tk.inner for tk in tokens}) == 2
