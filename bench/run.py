"""Conformance benchmark for npnconf.

    python3 bench/run.py --workload random-models --seed 1 --seconds 20 --trace 0

Run from the repository root. The benchmark generates every input from
``--seed`` (set-up), then runs the user-facing commands ``simulate``,
``check`` (``both``, ``monolithic``, ``compositional``) and ``project`` in a
closed loop: one caller, in one process, each command started when the
previous one returned. Commands go through ``npnconf.cli.main`` in-process
with their output captured, so a timing covers model load and validation,
log parse, the checkers and report rendering, but not interpreter start-up.
A pass runs every command once over every input; passes repeat until
``--seconds`` have gone by, and at least three times.

Timings are made steady for a shared machine, where other tenants' load
switches a core between full speed and about half speed many times a second,
and can hold it at half speed for a whole run. Between every two commands,
outside the timed span, the run therefore times a fixed piece of interpreter
work (``reference_work``, which never calls the library) and rescales each
command's wall time to the speed at which that work takes ``REFERENCE_S``.
A command's time is the lower quartile of its rescaled runs, and a metric
sums those over the workload's inputs. ``setup_s`` is rescaled the same way
and is the median of ``SETUP_REPS`` set-ups. The wall times as measured are
printed beside the metrics.

With ``--trace 0`` the result carries the end-to-end metrics. With
``--trace 1`` untraced and traced passes alternate and the result carries the
per-layer metrics of the traced passes (see ``tracer.py``), plus the tracing
overhead; the spans of the last traced pass are written to
``.bench_work/spans-<workload>-<seed>.{json,bin}``.

Every command's output is checked (see ``Runner``); the last line of standard
output is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``, and the exit code is 1 if any command failed.
"""

import argparse
import contextlib
import hashlib
import io
import json
import random
import resource
import shutil
import statistics
import sys
import tempfile
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from statistics import median
from typing import Dict, List, Optional

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORK = ROOT / ".bench_work"

WORKLOADS = ("random-models", "assistant-log", "many-agents")
SETUP_REPS = 3
MIN_PASSES = 3
CRITERION3_SEED = 20250301
RANDOM_MODELS = 40
MANY_AGENTS_LOGS = 4
REFERENCE_CALLS = 5
# Seconds one call of reference_work takes on an idle core of the machine the
# benchmark was tuned on (Intel Xeon VM, 2 vCPUs, Python 3.11): the speed
# every time metric is rescaled to.
REFERENCE_S = 0.0012
NOISE = dict(swap=0.4, drop=0.3, relabel=0.3, retarget=0.3)
COMMANDS = ("simulate", "check-fit", "check-noisy", "check-monolithic",
            "check-compositional", "project")
METRIC_OF_COMMAND = {
    "simulate": "simulate_s",
    "check-fit": "check_fit_s",
    "check-noisy": "check_noisy_s",
    "check-monolithic": "check_monolithic_s",
    "check-compositional": "check_compositional_s",
    "project": "project_s",
}

sys.path.insert(0, str(BENCH))
import inputs  # noqa: E402
from tracer import Tracer  # noqa: E402


@dataclass
class Case:
    """One model with its fitting and noise-perturbed logs."""

    name: str
    model: bytes
    sim_seed: int
    traces: int
    noise_seed: int
    dir: Optional[Path] = None
    fit: bytes = b""
    noisy: bytes = b""
    noise_records: int = 0
    # indices (in the noisy log's canonical order) of distinct traces that
    # some unperturbed occurrence equals, so they must fit
    must_fit: List[int] = field(default_factory=list)
    fit_log: object = None
    noisy_log: object = None
    agents: List[str] = field(default_factory=list)


def workload_cases(workload: str, seed: int) -> List[Case]:
    if workload == "random-models":
        # The models are always the first ones of acceptance criterion 3, so
        # the spread between seeds is not swamped by the mix of model sizes;
        # the seed picks their logs, and at CRITERION3_SEED the logs are the
        # criterion's too.
        rng = random.Random(CRITERION3_SEED)
        offset = (seed - CRITERION3_SEED) * RANDOM_MODELS
        return [Case(f"m{i:03d}",
                     inputs.canonical_bytes(inputs.random_nested_model(rng, max_agents=4)),
                     sim_seed=offset + i, traces=20, noise_seed=offset + i)
                for i in range(RANDOM_MODELS)]
    if workload == "assistant-log":
        return [Case("assistant", inputs.ASSISTANT_MODEL.read_bytes(),
                     sim_seed=seed, traces=1000, noise_seed=seed)]
    if workload == "many-agents":
        # several short logs rather than one long one: the same replay work,
        # in commands short enough to time between bursts of machine load
        model = inputs.canonical_bytes(inputs.scale_roster(inputs.assistant_model(), 16))
        return [Case(f"agents16-{k}", model, sim_seed=seed * MANY_AGENTS_LOGS + k,
                     traces=20, noise_seed=seed * MANY_AGENTS_LOGS + k)
                for k in range(MANY_AGENTS_LOGS)]
    raise ValueError(f"unknown workload {workload!r}")


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


# ----------------------------------------------------------------------
# machine speed


def reference_work():
    """A fixed piece of interpreter work: calls, tuple and frozenset hashing,
    set inserts and a keyed sort, the operations the library's replay spends
    its time on. It never calls npnconf, so no change to the library moves it."""
    seen = set()
    for i in range(300):
        for j in range(8):
            seen.add(frozenset((i % 11, j % 13, (i * j) % 17)))
    return sorted(seen, key=sorted)


def machine_speed() -> float:
    """Seconds ``reference_work`` takes right now: the median of a few calls."""
    samples = []
    for _ in range(REFERENCE_CALLS):
        start = time.perf_counter()
        reference_work()
        samples.append(time.perf_counter() - start)
    return median(samples)


def at_reference_speed(elapsed: float, before: float, after: float) -> float:
    """``elapsed`` rescaled to a machine on which ``reference_work`` takes
    REFERENCE_S, by the speed measured just before and just after."""
    return elapsed * REFERENCE_S * 2 / (before + after)


def low_quartile(values: List[float]) -> float:
    return sorted(values)[len(values) // 4]


def run_cli(npn, argv):
    """Run one command in-process; returns (exit code, stdout, stderr, seconds)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        start = time.perf_counter()
        code = npn.cli.main(argv)
        elapsed = time.perf_counter() - start
    return code, out.getvalue(), err.getvalue(), elapsed


def set_up(npn, workload: str, seed: int, work: Path) -> List[Case]:
    """Generate the models, simulate their fitting logs with the ``simulate``
    command, perturb them, and write every input file under ``work``."""
    cases = workload_cases(workload, seed)
    for case in cases:
        case.dir = work / case.name
        case.dir.mkdir(parents=True, exist_ok=True)
        model_path = case.dir / "model.json"
        model_path.write_bytes(case.model)
        fit_path = case.dir / "fit.json"
        code, _, err, _ = run_cli(npn, [
            "simulate", "--model", str(model_path), "--traces", str(case.traces),
            f"--seed={case.sim_seed}", "--out", str(fit_path)])
        if code != 0:
            raise RuntimeError(f"{case.name}: simulate exited {code}: {err.strip()}")
        case.fit = fit_path.read_bytes()
        case.fit_log = npn.events.parse_log(case.fit)
        np = npn.model_io.load_model(model_path)
        case.agents = sorted(np.agents)
        spec = npn.simulate.NoiseSpec.for_model(np, seed=case.noise_seed, **NOISE)
        case.noisy_log, records = npn.simulate.perturb_log(case.fit_log, spec)
        case.noise_records = len(records)
        case.noisy = npn.events.serialize_log(case.noisy_log)
        (case.dir / "noisy.json").write_bytes(case.noisy)
        occurrences = [t for t, freq in case.fit_log.items() for _ in range(freq)]
        touched = {r.trace_index for r in records}
        clean = {t for i, t in enumerate(occurrences) if i not in touched}
        case.must_fit = [i for i, (t, _) in enumerate(case.noisy_log.items())
                         if t in clean]
    return cases


@dataclass
class Sample:
    """One command's wall time, as measured and at the reference speed."""

    seconds: float
    reference_s: float


class Runner:
    """Runs passes of commands over a workload's cases and checks every
    output. A command fails on an exception, an unexpected exit code (0 for
    fitting logs, 0 or 1 for noisy logs), a discrepancy or inconclusive
    verdict, a fitting log not reported as fitting, an unperturbed noisy
    trace reported as not fitting, a monolithic or compositional verdict
    that differs from the ``both`` verdict, a projection whose component
    logs lose weight, or an output whose bytes differ from the first pass."""

    def __init__(self, npn, cases: List[Case], calibrate: bool):
        self.npn = npn
        self.cases = cases
        self.calibrate = calibrate
        self.attempted = 0
        self.failed = 0
        self.digests: Dict[str, str] = {}
        self.noisy_fits: Dict[str, List[bool]] = {}

    def fail(self, where: str, why: str) -> None:
        self.failed += 1
        print(f"FAILED {where}: {why}", file=sys.stderr)

    def run_pass(self, tracer: Optional[Tracer] = None) -> Dict[str, List[Sample]]:
        """One pass; returns each command's sample, per kind, per case in
        case order. With ``calibrate`` the machine's speed is measured
        between every two commands, outside the timed span."""
        times = {kind: [] for kind in COMMANDS}
        before = machine_speed() if self.calibrate else 0.0
        for kind in COMMANDS:
            for case in self.cases:
                if tracer is not None:
                    tracer.begin_command(kind)
                elapsed = self.run_command(kind, case)
                if self.calibrate:
                    after = machine_speed()
                    times[kind].append(Sample(
                        elapsed, at_reference_speed(elapsed, before, after)))
                    before = after
                else:
                    times[kind].append(Sample(elapsed, elapsed))
        return times

    def run_command(self, kind: str, case: Case) -> float:
        model = str(case.dir / "model.json")
        log = str(case.dir / ("fit.json" if kind == "check-fit" else "noisy.json"))
        out = case.dir / f"out-{kind}"
        mode = {"check-fit": "both", "check-noisy": "both",
                "check-monolithic": "monolithic",
                "check-compositional": "compositional"}.get(kind)
        if kind == "simulate":
            argv = ["simulate", "--model", model, "--traces", str(case.traces),
                    f"--seed={case.sim_seed}", "--out", str(out)]
        elif kind == "project":
            argv = ["project", "--model", model, "--log", log, "--out", str(out)]
        else:
            argv = ["check", "--model", model, "--log", log, "--mode", mode,
                    "--report", "structured"]
        where = f"{case.name} {kind}"
        self.attempted += 1
        try:
            code, stdout, stderr, elapsed = run_cli(self.npn, argv)
        except Exception:
            self.fail(where, traceback.format_exc())
            return 0.0
        try:
            outputs = self.check(kind, case, code, stdout, stderr, out)
        except (ValueError, KeyError, TypeError, OSError) as exc:
            self.fail(where, f"unreadable output: {exc!r}")
            return elapsed
        if isinstance(outputs, str):
            self.fail(where, outputs)
            return elapsed
        for name, data in outputs.items():
            key = f"{case.name}/{name}"
            digest = sha256(data)
            if self.digests.setdefault(key, digest) != digest:
                self.fail(where, f"{name} differs from the first pass")
                return elapsed
        return elapsed

    def check(self, kind, case, code, stdout, stderr, out):
        """The command's output files by name, or a string saying what is wrong."""
        if kind == "simulate":
            if code != 0:
                return f"exit {code}: {stderr.strip()}"
            data = out.read_bytes()
            if data != case.fit:
                return "simulated log differs from the set-up's"
            return {"simulate.json": data}
        if kind == "project":
            if code != 0:
                return f"exit {code}: {stderr.strip()}"
            names = ["L_SN.json"] + [f"L_{r}.json" for r in case.agents]
            files = {name: (out / name).read_bytes() for name in names}
            weight = case.noisy_log.weight
            for name, data in files.items():
                got = sum(t["frequency"] for t in json.loads(data)["traces"])
                if got != weight:
                    return f"{name} holds weight {got}, the log {weight}"
            return {f"project/{name}": data for name, data in files.items()}
        fitting = kind == "check-fit"
        if code not in ((0,) if fitting else (0, 1)):
            return f"exit {code}: {stderr.strip()}"
        report = json.loads(stdout)
        if report["discrepancies"] or report["inconclusive"]:
            return "discrepancy or inconclusive verdict"
        if fitting and report["overall"] is not True:
            return "fitting log reported as not fitting"
        fits = [t["fits"] for t in report["traces"]]
        if not fitting:
            if not all(fits[i] for i in case.must_fit):
                return "an unperturbed trace is reported as not fitting"
            if kind == "check-noisy":
                self.noisy_fits[case.name] = fits
            elif fits != self.noisy_fits.get(case.name):
                return "verdicts differ from --mode both"
        return {f"report-{kind}.json": stdout.encode("utf-8")}


# ----------------------------------------------------------------------
# workload properties


def trie_nodes(sequences) -> int:
    root: Dict = {}
    nodes = 0
    for seq in sequences:
        node = root
        for item in seq:
            if item not in node:
                node[item] = {}
                nodes += 1
            node = node[item]
    return nodes


def log_properties(npn, cases: List[Case], which: str) -> Dict:
    proj = npn.projection
    total = distinct = events = longest = nodes = 0
    sys_events = agent_events = 0
    per_agent = []
    for case in cases:
        log = case.fit_log if which == "fit" else case.noisy_log
        traces = [t.events for t, _ in log.items()]
        total += log.weight
        distinct += len(traces)
        events += sum(map(len, traces))
        longest = max([longest] + [len(t) for t in traces])
        nodes += trie_nodes(traces)
        system = {proj.project_trace_system(t) for t, _ in log.items()}
        sys_events += sum(map(len, system))
        for r in case.agents:
            seqs = {proj.project_trace_agent(t, r) for t, _ in log.items()}
            per_agent.append(len(seqs))
            agent_events += sum(map(len, seqs))
    return {
        "traces": total, "distinct": distinct, "events": events,
        "mean_events": events / max(1, distinct), "max_events": longest,
        "trie_share": nodes / max(1, events),
        "system_events": sys_events, "agent_events": agent_events,
        "agent_projections_mean": statistics.fmean(per_agent) if per_agent else 0.0,
        "agent_projections_max": max(per_agent, default=0),
    }


def print_properties(npn, cases: List[Case]) -> Dict[str, Dict]:
    agents = [len(c.agents) for c in cases]
    print(f"property models {len(cases)}; agents per model "
          f"min {min(agents)} mean {statistics.fmean(agents):.2f} max {max(agents)}")
    props = {}
    for which in ("fit", "noisy"):
        p = props[which] = log_properties(npn, cases, which)
        print(f"property {which}: traces {p['traces']} total, {p['distinct']} distinct; "
              f"events per distinct trace mean {p['mean_events']:.2f} max {p['max_events']}; "
              f"prefix-trie nodes/events {p['trie_share']:.4f}; distinct agent "
              f"projections per agent mean {p['agent_projections_mean']:.2f} "
              f"max {p['agent_projections_max']}")
    print(f"property noise records {sum(c.noise_records for c in cases)}; "
          f"unperturbed distinct noisy traces {sum(len(c.must_fit) for c in cases)}")
    return props


def print_digests(cases: List[Case], runner: Runner) -> None:
    for case in cases:
        for name, data in (("model.json", case.model), ("fit.json", case.fit),
                           ("noisy.json", case.noisy)):
            print(f"sha256 {sha256(data)} input {case.name}/{name}")
    for key, digest in sorted(runner.digests.items()):
        print(f"sha256 {digest} output {key}")


# ----------------------------------------------------------------------
# main


def metric(value, unit):
    return {"value": value, "unit": unit}


def layer_metrics(tracer: Tracer, props: Dict) -> Dict[str, float]:
    noisy = props["noisy"]
    out = {}
    for i, name in enumerate(tracer.names):
        out[f"{name}.calls"] = tracer.calls[i]
        out[f"{name}.failed"] = tracer.failed[i]
        out[f"{name}.s"] = tracer.total[i]
        out[f"{name}.self_s"] = tracer.self_time[i]
    out["nested.apply_step.per_event"] = (
        tracer.calls_in("check-monolithic", "nested.apply_step") / max(1, noisy["events"]))
    out["nets.fire.per_event"] = (
        tracer.calls_in("check-compositional", "nets.fire") / max(1, noisy["agent_events"]))
    out["colored.fire_colored.per_event"] = (
        tracer.calls_in("check-compositional", "colored.fire_colored")
        / max(1, noisy["system_events"]))
    return out


def per_layer_names() -> Dict[str, str]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer"]}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    sys.path.insert(0, str(ROOT / "src"))
    try:
        import npnconf.cli
        import npnconf.events
        import npnconf.model_io
        import npnconf.projection
        import npnconf.simulate
    except ImportError as exc:
        print(f"cannot import npnconf from {ROOT / 'src'}: {exc}", file=sys.stderr)
        return 2
    if Path(npnconf.__file__).resolve().parent != ROOT / "src" / "npnconf":
        print(f"npnconf was imported from {npnconf.__file__}, not from "
              f"{ROOT / 'src'}", file=sys.stderr)
        return 2
    npn = npnconf
    layer_units = per_layer_names() if args.trace else {}

    WORK.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix="run-", dir=WORK))
    try:
        setup_times = []
        setup_digests = set()
        for _ in range(SETUP_REPS):
            before = machine_speed()
            start = time.perf_counter()
            cases = set_up(npn, args.workload, args.seed, work)
            elapsed = time.perf_counter() - start
            setup_times.append(Sample(
                elapsed, at_reference_speed(elapsed, before, machine_speed())))
            setup_digests.add(tuple(sha256(c.model + c.fit + c.noisy) for c in cases))
        props = print_properties(npn, cases)

        runner = Runner(npn, cases, calibrate=not args.trace)
        passes, walls = [], []
        traced_walls, layers = [], []
        tracer = Tracer() if args.trace else None
        start = time.perf_counter()
        min_passes = 1 if tracer else MIN_PASSES
        while len(passes) < min_passes or time.perf_counter() - start < args.seconds:
            t0 = time.perf_counter()
            passes.append(runner.run_pass())
            walls.append(time.perf_counter() - t0)
            print(f"pass {len(passes)} wall {walls[-1]:.4f} s: " + ", ".join(
                f"{METRIC_OF_COMMAND[k]} {sum(x.seconds for x in v):.4f}"
                for k, v in passes[-1].items()))
            if tracer is None:
                continue
            tracer.reset()
            tracer.install()
            try:
                tracer.begin_command("setup")
                again = set_up(npn, args.workload, args.seed, work)
                setup_digests.add(tuple(sha256(c.model + c.fit + c.noisy) for c in again))
                t0 = time.perf_counter()
                runner.run_pass(tracer)
                traced_walls.append(time.perf_counter() - t0)
            finally:
                tracer.uninstall()
            layers.append(layer_metrics(tracer, props))
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

        runner.attempted += 1
        if len(setup_digests) != 1:
            runner.fail("set-up", "repeated set-ups generated different inputs")
        print_digests(cases, runner)
        print(f"passes {len(passes)}; commands attempted {runner.attempted}, "
              f"failed {runner.failed}; failed_share "
              f"{runner.failed / max(1, runner.attempted):.6f}")

        if tracer is None:
            metrics = {}
            for kind in COMMANDS:
                runs = list(zip(*(p[kind] for p in passes)))  # per case
                name = METRIC_OF_COMMAND[kind]
                metrics[name] = metric(
                    sum(low_quartile([x.reference_s for x in r]) for r in runs), "s")
                print(f"measured {name}: sum of per-case medians "
                      f"{sum(median(x.seconds for x in r) for r in runs):.4f} s")
            metrics["setup_s"] = metric(median(x.reference_s for x in setup_times), "s")
            print(f"measured setup_s: median {median(x.seconds for x in setup_times):.4f} s")
            metrics["peak_rss_mb"] = metric(peak_rss_mb, "MiB")
        else:
            counts = [{k: v for k, v in layer.items()
                       if k.endswith((".calls", ".failed", ".per_event"))}
                      for layer in layers]
            if any(c != counts[0] for c in counts):
                runner.attempted += 1
                runner.fail("trace", "call counts differ between traced passes")
            overhead = median(traced_walls) / median(walls)
            print(f"tracing overhead: traced pass {median(traced_walls):.3f} s, "
                  f"untraced pass {median(walls):.3f} s, ratio {overhead:.3f}")
            metrics = {}
            for name, unit in layer_units.items():
                if name == "trace.overhead":
                    metrics[name] = metric(overhead, unit)
                else:
                    metrics[name] = metric(median([layer[name] for layer in layers]), unit)
            tracer.write_spans(WORK / f"spans-{args.workload}-{args.seed}")
        for name, m in metrics.items():
            print(f"metric {name} {m['value']} {m['unit']}")
        result = {"correct": runner.failed == 0, "attempted": runner.attempted,
                  "failed": runner.failed, "metrics": metrics}
        print(json.dumps(result))
        return 0 if runner.failed == 0 else 1
    finally:
        shutil.rmtree(work, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
