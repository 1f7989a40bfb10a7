"""Command-line surface: validate | project | check | simulate.

Exit codes: 0 = success / perfect fit, 1 = domain-level failure (invalid
model, misfit, roster mismatch), 2 = operational error (unreadable or
malformed input, inconclusive search, internal discrepancy).
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import Dict, List, Optional

from .conformance import (ConformanceReport, ReplayLimits, check_both,
                          check_compositional, check_monolithic)
from .events import EventLog, LogParseError, canonical_dumps, parse_log, serialize_log
from .model_io import ModelFormatError, ModelValidationError, load_model
from .nested import (RosterError, check_agreement, check_conservative,
                     validate_nested_net)
from .projection import (agent_component_log, project_log, serialize_system_log)
from .simulate import GenerationError, SimulationConfig, generate_log

REPORT_SCHEMA = "conformance-report/1"

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_ERROR = 2


def report_to_json(report: ConformanceReport) -> Dict:
    """Structured rendering of a conformance report (the machine contract)."""
    traces = []
    for i, result in enumerate(report.results):
        components = {}
        for name in sorted(result.components, key=_component_order):
            verdict = result.components[name]
            components[name] = {
                "fits": verdict.fits,
                "failure_position": verdict.failure_position,
                "inconclusive": verdict.inconclusive,
            }
        traces.append({
            "index": i,
            "frequency": result.frequency,
            "fits": result.fits,
            "inconclusive": result.inconclusive,
            "syntactic_ok": result.syntactic_ok,
            "components": components,
        })
    syntactic = None
    if report.syntactic is not None:
        syntactic = {
            "ok": report.syntactic.ok,
            "failures": [
                {"trace": f.trace_index, "event": f.event_index,
                 "diagnosis": f.diagnosis}
                for f in report.syntactic.failures
            ],
        }
    return {
        "schema": REPORT_SCHEMA,
        "mode": report.mode,
        "overall": report.overall,
        "weight": report.weight,
        "aggregate": report.aggregate,
        "inconclusive": report.inconclusive,
        "syntactic": syntactic,
        "traces": traces,
        "discrepancies": list(report.discrepancies),
    }


def _component_order(name: str):
    return {"model": (0, ""), "SN": (1, "")}.get(name, (2, name))


def report_to_text(report: ConformanceReport) -> str:
    lines = [f"mode: {report.mode}",
             f"traces: {len(report.results)} distinct, total weight {report.weight}"]
    if report.syntactic is not None:
        if report.syntactic.ok:
            lines.append("syntactic correctness: ok")
        else:
            lines.append(f"syntactic correctness: "
                         f"{len(report.syntactic.failures)} failing event(s)")
            for f in report.syntactic.failures:
                lines.append(f"  trace {f.trace_index}, event {f.event_index}: "
                             f"{f.diagnosis}")
    for i, result in enumerate(report.results):
        if result.fits:
            continue
        status = "inconclusive" if result.inconclusive else "does not fit"
        lines.append(f"trace {i} (freq {result.frequency}): {status}")
        for name in sorted(result.components, key=_component_order):
            verdict = result.components[name]
            if verdict.fits:
                continue
            if verdict.inconclusive:
                lines.append(f"  component {name}: inconclusive (limit exceeded)")
            else:
                lines.append(f"  component {name}: fails at event index "
                             f"{verdict.failure_position}")
        if result.syntactic_ok is False:
            lines.append("  syntactically incorrect events (see above)")
    for i in report.discrepancies:
        lines.append(f"trace {i}: INTERNAL DISCREPANCY between monolithic and "
                     f"compositional verdicts")
    fitting = "fits" if report.overall else "does not fit"
    lines.append(f"overall: log {fitting} the model "
                 f"({report.aggregate:.3f} of trace weight fits)")
    return "\n".join(lines) + "\n"


def _read_model(path: str, validate: bool = True):
    try:
        return load_model(path, validate=validate)
    except OSError as exc:
        _fail(EXIT_ERROR, f"cannot read model: {exc}")
    except ModelValidationError:
        raise
    except ModelFormatError as exc:
        _fail(EXIT_ERROR, f"malformed model: {exc}")


def _read_log(path: str) -> EventLog:
    try:
        with open(path, "rb") as fh:
            return parse_log(fh.read())
    except OSError as exc:
        _fail(EXIT_ERROR, f"cannot read log: {exc}")
    except LogParseError as exc:
        _fail(EXIT_ERROR, f"malformed log: {exc}")


class _CliExit(Exception):
    def __init__(self, code: int):
        self.code = code


def _fail(code: int, message: str):
    print(message, file=sys.stderr)
    raise _CliExit(code)


def cmd_validate(args) -> int:
    try:
        np = load_model(args.model, validate=False)
    except OSError as exc:
        _fail(EXIT_ERROR, f"cannot read model: {exc}")
    except ModelFormatError as exc:
        _fail(EXIT_ERROR, f"malformed model: {exc}")
    violations = (validate_nested_net(np) + check_conservative(np)
                  + check_agreement(np))
    if violations:
        for v in violations:
            print(v)
        print(f"{len(violations)} violation(s)")
        return EXIT_FAIL
    print("model is well-formed and conservative")
    return EXIT_OK


def cmd_project(args) -> int:
    np = _read_model(args.model)
    log = _read_log(args.log)
    try:
        components = project_log(log, np.agents)
    except RosterError as exc:
        _fail(EXIT_FAIL, f"roster mismatch: {exc}")
    out = Path(args.out)
    sn_path = out / "L_SN.json"
    written = [sn_path]
    try:
        out.mkdir(parents=True, exist_ok=True)
        sn_path.write_bytes(serialize_system_log(components.system_log))
        for agent in sorted(components.agent_logs):
            path = out / f"L_{agent}.json"
            path.write_bytes(serialize_log(agent_component_log(
                agent, components.agent_logs[agent])))
            written.append(path)
    except OSError as exc:
        _fail(EXIT_ERROR, f"cannot write output: {exc}")
    for path in written:
        print(path)
    return EXIT_OK


def cmd_check(args) -> int:
    try:
        limits = ReplayLimits(max_states=args.max_states)
    except ValueError as exc:
        _fail(EXIT_ERROR, f"invalid --max-states: {exc}")
    np = _read_model(args.model)
    log = _read_log(args.log)
    checker = {"monolithic": check_monolithic,
               "compositional": check_compositional,
               "both": check_both}[args.mode]
    if args.mode != "monolithic":
        violations = check_agreement(np)
        if violations:
            print(f"warning: the model breaks the precondition under which compositional "
                  f"and monolithic verdicts agree ({len(violations)} violation(s); "
                  f"see 'npnconf validate')", file=sys.stderr)
    report = checker(log, np, limits)
    if args.report == "structured":
        sys.stdout.write(canonical_dumps(report_to_json(report)).decode("utf-8"))
    else:
        sys.stdout.write(report_to_text(report))
    if report.discrepancies or report.inconclusive:
        return EXIT_ERROR
    return EXIT_OK if report.overall else EXIT_FAIL


def cmd_simulate(args) -> int:
    try:
        cfg = SimulationConfig(seed=args.seed, trace_count=args.traces)
    except ValueError as exc:
        _fail(EXIT_ERROR, f"invalid --traces: {exc}")
    np = _read_model(args.model)
    try:
        log = generate_log(np, cfg)
    except GenerationError as exc:
        _fail(EXIT_FAIL, f"simulation failed: {exc}")
    data = serialize_log(log)
    if args.out:
        try:
            Path(args.out).write_bytes(data)
        except OSError as exc:
            _fail(EXIT_ERROR, f"cannot write output: {exc}")
        print(args.out)
    else:
        sys.stdout.write(data.decode("utf-8"))
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="npnconf",
        description="Conformance checking between nested Petri nets and "
                    "multi-agent event logs.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="check model well-formedness")
    p.add_argument("--model", required=True)
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("project", help="project a log onto model components")
    p.add_argument("--model", required=True)
    p.add_argument("--log", required=True)
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=cmd_project)

    p = sub.add_parser("check", help="check log-model conformance")
    p.add_argument("--model", required=True)
    p.add_argument("--log", required=True)
    p.add_argument("--mode", choices=["monolithic", "compositional", "both"],
                   default="both")
    p.add_argument("--report", choices=["text", "structured"], default="text")
    p.add_argument("--max-states", type=int, default=ReplayLimits().max_states,
                   help="visited-state limit per trace")
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("simulate", help="generate a fitting log by simulation")
    p.add_argument("--model", required=True)
    p.add_argument("--traces", type=int, default=10)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", help="output file (stdout when omitted)")
    p.set_defaults(func=cmd_simulate)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except _CliExit as exc:
        return exc.code
    except ModelValidationError as exc:
        print(f"invalid model: {exc}", file=sys.stderr)
        return EXIT_FAIL
    except (LogParseError, ModelFormatError) as exc:
        print(str(exc), file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
