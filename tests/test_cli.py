import hashlib
import json

import pytest

from npnconf.cli import main
from npnconf.events import serialize_log
from npnconf.model_io import loads_model
from npnconf.simulate import NoiseSpec, SimulationConfig, generate_log, perturb_log

from conftest import FIXTURES, scaled_assistant_doc

MODEL = str(FIXTURES / "assistant_model.json")
LOG = str(FIXTURES / "assistant_log.json")


def test_validate_fixture_exit_zero(capsys):
    assert main(["validate", "--model", MODEL]) == 0
    assert capsys.readouterr().out == "model is well-formed and conservative\n"


def test_validate_broken_model_exit_one(tmp_path, capsys):
    doc = json.loads(FIXTURES.joinpath("assistant_model.json").read_text())
    doc["system_net"]["places"].append(
        {"id": "c_i", "kind": "net", "type": ["customer"]})
    path = tmp_path / "broken.json"
    path.write_text(json.dumps(doc))
    assert main(["validate", "--model", str(path)]) == 1
    assert "used by both" in capsys.readouterr().out


def _variant(tmp_path, edit):
    doc = json.loads(FIXTURES.joinpath("assistant_model.json").read_text())
    edit(doc)
    path = tmp_path / "variant.json"
    path.write_text(json.dumps(doc))
    return str(path)


def _clash_sync_labels(doc):
    # c_h takes c_f's activity but not its sync label
    for t in doc["element_nets"]["customer"]["transitions"]:
        if t["id"] == "c_h":
            t["activity"] = "f"


def _final_marking_off_sink(doc):
    doc["final_markings"][0]["net_places"]["s_p2"][0]["marking"] = {"c_p2": 1}


def test_validate_reports_activity_with_two_sync_labels(tmp_path, capsys):
    assert main(["validate", "--model", _variant(tmp_path, _clash_sync_labels)]) == 1
    out = capsys.readouterr().out
    assert ("element net 'customer': activity 'f' has transitions with different "
            "sync labels: 'c_f' (sync 's1'), 'c_h' (sync None)") in out


def test_validate_reports_final_marking_off_sink(tmp_path, capsys):
    assert main(["validate", "--model", _variant(tmp_path, _final_marking_off_sink)]) == 1
    out = capsys.readouterr().out
    assert "final marking 0: inner marking of 'r1' is not one token on sink 'c_o'" in out
    assert "1 violation(s)" in out


@pytest.mark.parametrize("edit, codes, digests", [
    (_clash_sync_labels, (1, 1),
     ("a7de8963ffd238cefc911b49d626876ae5f118a9db23dbd0d731819e159b4672",
      "94799ec8f2e4512ec5c0638ff97d11cb3b2bd3f02aff2e6c92e60dfc19e72a1a")),
    # the whole model rejects this log, but each component accepts its part,
    # so 'both' reports a discrepancy on every trace
    (_final_marking_off_sink, (0, 2),
     ("378a85b25faeeaa04a30d363079320c46c462ea4dda77117e2dc9ce4412b7a4e",
      "3eee749b974deaf5538425a219368e488c3a025c45b2d25bd8cccc4f5f58a5c9")),
], ids=["sync-labels", "final-marking"])
def test_check_compositional_warns_on_broken_precondition(tmp_path, capsys, edit,
                                                          codes, digests):
    # one warning line on stderr; report bytes and exit code as without it
    model = _variant(tmp_path, edit)
    for mode, code, digest in zip(("compositional", "both"), codes, digests):
        assert main(["check", "--model", model, "--log", LOG, "--mode", mode]) == code
        captured = capsys.readouterr()
        assert hashlib.sha256(captured.out.encode()).hexdigest() == digest
        assert captured.err == (
            "warning: the model breaks the precondition under which compositional and "
            "monolithic verdicts agree (1 violation(s); see 'npnconf validate')\n")
    main(["check", "--model", model, "--log", LOG, "--mode", "monolithic"])
    assert capsys.readouterr().err == ""


def test_check_compositional_fixture_no_warning(capsys):
    assert main(["check", "--model", MODEL, "--log", LOG, "--mode", "compositional"]) == 0
    assert capsys.readouterr().err == ""


def test_validate_missing_file_exit_two(tmp_path):
    assert main(["validate", "--model", str(tmp_path / "nope.json")]) == 2


def test_validate_corrupt_file_exit_two(tmp_path):
    path = tmp_path / "corrupt.json"
    path.write_text("{nope")
    assert main(["validate", "--model", str(path)]) == 2


def test_project_matches_goldens(tmp_path, capsys):
    out = tmp_path / "components"
    assert main(["project", "--model", MODEL, "--log", LOG,
                 "--out", str(out)]) == 0
    for name in ("L_SN.json", "L_r1.json", "L_r2.json"):
        assert (out / name).read_bytes() == (FIXTURES / "golden" / name).read_bytes()


def test_project_empty_log(tmp_path):
    empty = tmp_path / "empty.json"
    empty.write_text(json.dumps({"schema": "maslog/1", "traces": []}))
    out = tmp_path / "components"
    assert main(["project", "--model", MODEL, "--log", str(empty),
                 "--out", str(out)]) == 0
    doc = json.loads((out / "L_SN.json").read_text())
    assert doc["traces"] == []


def test_project_unknown_agent_exit_one(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({
        "schema": "maslog/1",
        "traces": [{"frequency": 1,
                    "events": [{"type": "agent", "activity": "d",
                                "agent": "r9"}]}]}))
    out = tmp_path / "components"
    assert main(["project", "--model", MODEL, "--log", str(bad),
                 "--out", str(out)]) == 1
    assert "roster" in capsys.readouterr().err


def test_project_unwritable_out_exit_two(tmp_path, capsys):
    out = tmp_path / "taken"
    out.write_text("a file, not a directory")
    assert main(["project", "--model", MODEL, "--log", LOG,
                 "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.count("\n") == 1
    assert "cannot write output" in captured.err


def test_check_fixture_all_modes(capsys):
    for mode in ("monolithic", "compositional", "both"):
        assert main(["check", "--model", MODEL, "--log", LOG,
                     "--mode", mode]) == 0
        assert "log fits the model" in capsys.readouterr().out


def test_check_structured_report(capsys):
    assert main(["check", "--model", MODEL, "--log", LOG,
                 "--mode", "both", "--report", "structured"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["schema"] == "conformance-report/1"
    assert doc["overall"] is True
    assert doc["weight"] == 9
    assert doc["discrepancies"] == []
    assert doc["syntactic"]["ok"] is True
    assert {"model", "SN", "r1", "r2"} <= set(doc["traces"][0]["components"])


def test_check_misfit_exit_one(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({
        "schema": "maslog/1",
        "traces": [{"frequency": 1,
                    "events": [{"type": "agent", "activity": "h",
                                "agent": "r1"}]}]}))
    assert main(["check", "--model", MODEL, "--log", str(bad),
                 "--mode", "both"]) == 1
    out = capsys.readouterr().out
    assert "does not fit" in out


def test_check_corrupt_model_exit_two(tmp_path):
    path = tmp_path / "corrupt.json"
    path.write_text("{")
    assert main(["check", "--model", str(path), "--log", LOG]) == 2


def test_check_inconclusive_exit_two(capsys):
    assert main(["check", "--model", MODEL, "--log", LOG,
                 "--mode", "monolithic", "--max-states", "1"]) == 2
    assert "inconclusive" in capsys.readouterr().out


@pytest.mark.parametrize("value", ["0", "-3"])
def test_check_bad_max_states_exit_two(value, capsys):
    assert main(["check", "--model", MODEL, "--log", LOG,
                 "--max-states", value]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.count("\n") == 1
    assert "--max-states" in captured.err


def test_simulate_negative_traces_exit_two(tmp_path, capsys):
    out = tmp_path / "sim.json"
    assert main(["simulate", "--model", MODEL, "--traces", "-1",
                 "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.count("\n") == 1
    assert "--traces" in captured.err
    assert not out.exists()


def test_simulate_unwritable_out_exit_two(tmp_path, capsys):
    out = tmp_path / "missing" / "sim.json"
    assert main(["simulate", "--model", MODEL, "--traces", "2",
                 "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.count("\n") == 1
    assert "cannot write output" in captured.err


def test_simulate_roundtrip(tmp_path, capsys):
    out = tmp_path / "sim.json"
    assert main(["simulate", "--model", MODEL, "--traces", "100",
                 "--seed", "5", "--out", str(out)]) == 0
    capsys.readouterr()
    assert main(["check", "--model", MODEL, "--log", str(out),
                 "--mode", "both"]) == 0


def test_simulate_zero_traces(tmp_path):
    out = tmp_path / "sim.json"
    assert main(["simulate", "--model", MODEL, "--traces", "0",
                 "--out", str(out)]) == 0
    assert json.loads(out.read_text())["traces"] == []


def test_simulate_byte_identical_across_runs(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    main(["simulate", "--model", MODEL, "--traces", "25", "--seed", "9",
          "--out", str(a)])
    main(["simulate", "--model", MODEL, "--traces", "25", "--seed", "9",
          "--out", str(b)])
    assert a.read_bytes() == b.read_bytes()


def test_project_reemission_is_byte_stable(tmp_path):
    out1 = tmp_path / "one"
    out2 = tmp_path / "two"
    main(["project", "--model", MODEL, "--log", LOG, "--out", str(out1)])
    main(["project", "--model", MODEL, "--log", LOG, "--out", str(out2)])
    for name in ("L_SN.json", "L_r1.json", "L_r2.json"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


def _long_trace_inputs(tmp_path, agents):
    # the worked example with a large roster; each agent runs d, h and the
    # sync c, so the single trace fits and has 3 * agents events
    roster = [f"r{i}" for i in range(1, agents + 1)]
    doc = scaled_assistant_doc(roster)
    events = []
    for r in roster:
        events += [{"type": "agent", "activity": "d", "agent": r},
                   {"type": "agent", "activity": "h", "agent": r},
                   {"type": "sync", "activity": "c", "participants": [["g", r]],
                    "data": []}]
    model, log = tmp_path / "model.json", tmp_path / "log.json"
    model.write_text(json.dumps(doc))
    log.write_text(json.dumps({"schema": "maslog/1",
                               "traces": [{"frequency": 1, "events": events}]}))
    return str(model), str(log)


@pytest.mark.parametrize("mode", ["monolithic", "compositional", "both"])
def test_check_long_trace_verdict(tmp_path, capsys, mode):
    # a 1041-event trace gets a conclusive verdict in every mode
    model, log = _long_trace_inputs(tmp_path, 347)
    assert main(["check", "--model", model, "--log", log, "--mode", mode]) == 0
    assert "overall: log fits the model" in capsys.readouterr().out


@pytest.mark.parametrize("mode", ["monolithic", "compositional", "both"])
def test_check_long_trace_misfit_position(tmp_path, capsys, mode):
    # without its last event (r347's sync c) the trace replays to its end
    # but stops short of a final marking
    model, log = _long_trace_inputs(tmp_path, 347)
    path = tmp_path / "log.json"
    doc = json.loads(path.read_text())
    doc["traces"][0]["events"].pop()
    path.write_text(json.dumps(doc))
    assert main(["check", "--model", model, "--log", log, "--mode", mode]) == 1
    out = capsys.readouterr().out
    expected = {"monolithic": [("model", 1040)],
                "compositional": [("SN", 346), ("r347", 2)],
                "both": [("model", 1040), ("SN", 346), ("r347", 2)]}[mode]
    failing = [line.strip() for line in out.splitlines() if "fails at" in line]
    assert failing == [f"component {name}: fails at event index {pos}"
                       for name, pos in expected]


def test_check_compositional_structured_bytes_pinned(tmp_path, capsys):
    # a perturbed 12-agent log with syntactic failures; the report bytes
    # are pinned across commits
    doc = scaled_assistant_doc([f"r{i}" for i in range(1, 13)])
    np = loads_model(json.dumps(doc))
    log, _ = perturb_log(generate_log(np, SimulationConfig(seed=5, trace_count=6)),
                         NoiseSpec.for_model(np, seed=5, swap=0.4, drop=0.3,
                                             relabel=0.3, retarget=0.3))
    model_path = tmp_path / "model.json"
    log_path = tmp_path / "log.json"
    model_path.write_text(json.dumps(doc))
    log_path.write_bytes(serialize_log(log))
    assert main(["check", "--model", str(model_path), "--log", str(log_path),
                 "--mode", "compositional", "--report", "structured"]) == 1
    out = capsys.readouterr().out
    assert json.loads(out)["syntactic"]["failures"]
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "8f311f2f5a5ec5144ee0cc7589657dc29995841274ad286b4c136e2dd4b9a549")
