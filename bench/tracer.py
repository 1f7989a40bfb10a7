"""In-memory span tracer for the benchmark's traced run.

``Tracer.install`` replaces each named library function with a wrapper, in
every ``npnconf`` module that holds it (methods are replaced on their class),
and ``Tracer.uninstall`` puts the originals back. A wrapper records one span
per call: name, start, end, parent span, and the command it ran under; spans
of one command share the command's id. Counts, total time and self time
(duration minus the time covered by child spans) are kept per name as calls
return, so reading them costs nothing at the end of the run.
"""

import json
import sys
from array import array
from pathlib import Path
from time import perf_counter

# (span name, module, attribute); "Class.method" replaces a method. Targets
# in "npnconf.cli" are replaced in that module only, so "cli.report" covers
# report rendering there and not the log serializer's use of canonical_dumps.
TARGETS = [
    ("multiset.items", "npnconf.multiset", "Multiset.items"),
    ("nested.apply_step", "npnconf.nested", "apply_step"),
    ("nested.enabled_steps", "npnconf.nested", "enabled_steps"),
    ("nested.system_bindings", "npnconf.nested", "system_bindings"),
    ("nets.is_run_wf", "npnconf.nets", "is_run_wf"),
    ("nets.fire", "npnconf.nets", "fire"),
    ("colored.replay_colored", "npnconf.colored", "replay_colored"),
    ("colored.fire_colored", "npnconf.colored", "fire_colored"),
    ("conformance.check_monolithic", "npnconf.conformance", "check_monolithic"),
    ("conformance.check_compositional", "npnconf.conformance", "check_compositional"),
    ("events.parse_log", "npnconf.events", "parse_log"),
    ("events.serialize_log", "npnconf.events", "serialize_log"),
    ("events.log_syntactically_correct", "npnconf.events", "log_syntactically_correct"),
    ("projection.project_log", "npnconf.projection", "project_log"),
    ("projection.project_system_net", "npnconf.projection", "project_system_net"),
    ("projection.project_trace_system", "npnconf.projection", "project_trace_system"),
    ("projection.project_trace_agent", "npnconf.projection", "project_trace_agent"),
    ("model_io.load_model", "npnconf.model_io", "load_model"),
    ("simulate.generate_log", "npnconf.simulate", "generate_log"),
    ("simulate.simulate_run", "npnconf.simulate", "simulate_run"),
    ("simulate.perturb_log", "npnconf.simulate", "perturb_log"),
    ("cli.report", "npnconf.cli", "report_to_json"),
    ("cli.report", "npnconf.cli", "canonical_dumps"),
]


class Tracer:
    def __init__(self):
        self.names = sorted({name for name, _, _ in TARGETS})
        self._replaced = []  # (owner, attribute, original)
        self.reset()

    def reset(self):
        """Forget every span and aggregate; the wrappers stay installed."""
        n = len(self.names)
        self.calls = [0] * n
        self.failed = [0] * n
        self.total = [0.0] * n
        self.self_time = [0.0] * n
        self.kind_calls = {}  # command kind -> calls per name id
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_command = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.commands = []  # command kind per command id
        self._open = []  # [span id, time covered by children] per open span
        self.begin_command("unattributed")

    def begin_command(self, kind: str) -> None:
        """Spans recorded from now on belong to a new command of ``kind``."""
        self._command = len(self.commands)
        self.commands.append(kind)
        self._command_calls = self.kind_calls.setdefault(kind, [0] * len(self.names))

    def install(self) -> None:
        for span, module_name, attribute in TARGETS:
            nid = self.names.index(span)
            module = sys.modules[module_name]
            if "." in attribute:
                cls_name, method = attribute.split(".")
                owner = getattr(module, cls_name)
                original = owner.__dict__[method]
                self._replace(owner, method, original, self._wrap(nid, original))
                continue
            original = getattr(module, attribute)
            wrapped = self._wrap(nid, original)
            owners = [module] if module_name == "npnconf.cli" else [
                m for name, m in sorted(sys.modules.items())
                if name == "npnconf" or name.startswith("npnconf.")]
            for owner in owners:
                for name, value in list(vars(owner).items()):
                    if value is original:
                        self._replace(owner, name, original, wrapped)

    def uninstall(self) -> None:
        for owner, name, original in reversed(self._replaced):
            setattr(owner, name, original)
        self._replaced = []

    def _replace(self, owner, name, original, wrapped) -> None:
        self._replaced.append((owner, name, original))
        setattr(owner, name, wrapped)

    def _wrap(self, nid, fn):
        tracer = self

        def traced(*args, **kwargs):
            open_spans = tracer._open
            sid = len(tracer.span_start)
            tracer.span_name.append(nid)
            tracer.span_parent.append(open_spans[-1][0] if open_spans else -1)
            tracer.span_command.append(tracer._command)
            tracer.span_end.append(0.0)
            entry = [sid, 0.0]
            open_spans.append(entry)
            start = perf_counter()
            tracer.span_start.append(start)
            try:
                return fn(*args, **kwargs)
            except BaseException:
                tracer.failed[nid] += 1
                raise
            finally:
                end = perf_counter()
                open_spans.pop()
                duration = end - start
                if open_spans:
                    open_spans[-1][1] += duration
                tracer.span_end[sid] = end
                tracer.calls[nid] += 1
                tracer.total[nid] += duration
                tracer.self_time[nid] += duration - entry[1]
                tracer._command_calls[nid] += 1

        traced.__wrapped__ = fn
        return traced

    def calls_in(self, kind: str, name: str) -> int:
        counts = self.kind_calls.get(kind)
        return counts[self.names.index(name)] if counts else 0

    def write_spans(self, stem: Path) -> None:
        """Write ``<stem>.json`` (span names, command kinds, span count) and
        ``<stem>.bin``: the arrays name, parent, command (native int32), then
        start, end (native float64, seconds), each one entry per span."""
        header = {"names": self.names, "commands": self.commands,
                  "spans": len(self.span_start),
                  "arrays": ["name:i", "parent:i", "command:i", "start:d", "end:d"]}
        stem.with_suffix(".json").write_text(json.dumps(header) + "\n")
        with open(stem.with_suffix(".bin"), "wb") as fh:
            for column in (self.span_name, self.span_parent, self.span_command,
                           self.span_start, self.span_end):
                column.tofile(fh)
