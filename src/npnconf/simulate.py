"""Simulation of nested-net runs into event logs, plus controlled noise.

Generated traces are runs by construction (the random walk backtracks out of
dead ends), so every generated log perfectly fits its source model. All
randomness is seeded per trace, making output deterministic and safe to
parallelize.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Iterable, Iterator, List, Optional, Sequence, Set, Tuple

from .events import AgentEvent, Event, EventLog, SyncEvent, SystemEvent, Trace
from .multiset import Multiset
from .nested import (ElementStep, NestedNet, NpMarking, Step, SyncStep,
                     SystemStep, _build_step, _step_specs, apply_step)


class GenerationError(RuntimeError):
    """No run could be found within the configured limits."""

    def __init__(self, message: str, failed_traces: Tuple[int, ...] = ()):
        self.failed_traces = failed_traces
        super().__init__(message)


@dataclass(frozen=True)
class SimulationConfig:
    """Deterministic sampling policy: identical (model, config) pairs yield
    identical logs. Step choice is uniform over enabled steps."""

    seed: int = 0
    trace_count: int = 1
    max_steps: int = 200

    def __post_init__(self):
        if self.trace_count < 0:
            raise ValueError("trace_count must be nonnegative")
        if self.max_steps <= 0:
            raise ValueError("max_steps must be positive")


def event_for_step(np: NestedNet, step: Step) -> Event:
    """The event an observer records for one step."""
    if isinstance(step, ElementStep):
        w = np.agent_class(step.agent)
        return AgentEvent(w.activity_label[step.transition], step.agent)
    if isinstance(step, SystemStep):
        involved, data = _binding_payload(np, step.transition, step.binding)
        return SystemEvent(np.system_activity[step.transition], involved, data)
    if isinstance(step, SyncStep):
        _, data = _binding_payload(np, step.transition, step.binding)
        participants = []
        for agent, ti in step.participants:
            w = np.agent_class(agent)
            participants.append((w.activity_label[ti], agent))
        return SyncEvent(np.system_activity[step.transition], participants, data)
    raise TypeError(f"unknown step type: {step!r}")


def _binding_payload(np: NestedNet, t: str, binding):
    involved = [binding[v].agent for v in np.net_variables(t)]
    data = Multiset((np.var_type[v], binding[v]) for v in np.data_variables(t))
    return involved, data


def simulate_run(np: NestedNet, cfg: SimulationConfig,
                 trace_index: int = 0) -> Tuple[Trace, Tuple[Step, ...]]:
    """Sample one run: a randomized depth-first walk from the initial marking
    that stops at the first final marking and backtracks out of dead ends.
    The stack is explicit, so the run length is bounded only by memory."""
    rng = random.Random(f"{cfg.seed}:{trace_index}")
    budget = max(4000, 50 * cfg.max_steps)
    expansions = 0
    m = np.initial_marking
    on_path: Set[NpMarking] = {m}
    stack: List[Tuple[NpMarking, Iterator]] = []  # per marking on the path: untried specs
    steps: List[Step] = []  # the step into each marking on the path but the first
    while m not in np.final_markings:
        specs = []
        if len(steps) < cfg.max_steps and expansions < budget:
            expansions += 1
            # shuffling specs draws as shuffling steps would; only tried
            # steps are built
            specs = _step_specs(np, m)
            rng.shuffle(specs)
        stack.append((m, iter(specs)))
        m = None
        while m is None:
            top, untried = stack[-1]
            for spec in untried:
                step = _build_step(np, spec)
                m2 = apply_step(np, top, step)
                if m2 not in on_path:
                    m = m2
                    break
            else:  # top is a dead end: back out of it
                stack.pop()
                if not stack:
                    raise GenerationError(
                        f"no run found within {cfg.max_steps} steps (trace {trace_index})",
                        (trace_index,))
                on_path.discard(top)
                steps.pop()
        on_path.add(m)
        steps.append(step)
    return Trace(event_for_step(np, s) for s in steps), tuple(steps)


def generate_log(np: NestedNet, cfg: SimulationConfig) -> EventLog:
    """Aggregate ``trace_count`` simulated traces into a log."""
    traces: List[Trace] = []
    failures: List[int] = []
    for i in range(cfg.trace_count):
        try:
            trace, _ = simulate_run(np, cfg, i)
        except GenerationError:
            failures.append(i)
            continue
        traces.append(trace)
    if failures:
        raise GenerationError(
            f"{len(failures)} of {cfg.trace_count} traces failed to generate",
            tuple(failures))
    return EventLog(traces)


# ----------------------------------------------------------------------
# noise


@dataclass(frozen=True)
class NoiseSpec:
    """Seeded per-trace noise. Replacement activities and agent names are
    drawn from the model's own vocabularies so perturbed logs stay parseable
    (whether they stay syntactically correct is up to chance)."""

    seed: int = 0
    swap: float = 0.0
    drop: float = 0.0
    relabel: float = 0.0
    retarget: float = 0.0
    activities: Tuple[str, ...] = ()
    agents: Tuple[str, ...] = ()

    def __post_init__(self):
        for name in ("swap", "drop", "relabel", "retarget"):
            p = getattr(self, name)
            if not 0.0 <= p <= 1.0:
                raise ValueError(f"probability {name}={p} outside [0, 1]")

    @classmethod
    def for_model(cls, np: NestedNet, seed: int = 0, swap: float = 0.0,
                  drop: float = 0.0, relabel: float = 0.0,
                  retarget: float = 0.0) -> "NoiseSpec":
        activities = set(np.system_activity.values())
        for w in np.elements.values():
            activities.update(w.activity_label.values())
        return cls(seed, swap, drop, relabel, retarget,
                   tuple(sorted(activities)), tuple(sorted(np.agents)))


@dataclass(frozen=True)
class NoiseRecord:
    """One applied operation: enough to replay the change exactly."""

    trace_index: int  # over trace occurrences, expanded in canonical order
    op: str
    position: int
    before: Tuple[Event, ...]
    after: Tuple[Event, ...]


def _relabel_event(e: Event, activity: str) -> Event:
    if isinstance(e, AgentEvent):
        return AgentEvent(activity, e.agent)
    if isinstance(e, SystemEvent):
        return SystemEvent(activity, e.involved, e.data, e.system)
    return SyncEvent(activity, e.participants, e.data, e.system)


def _retarget_event(e: Event, rng: random.Random,
                    agents: Sequence[str]) -> Optional[Event]:
    if isinstance(e, AgentEvent):
        choices = [r for r in agents if r != e.agent]
        return AgentEvent(e.activity, rng.choice(choices)) if choices else None
    if isinstance(e, SystemEvent):
        if not e.involved:
            return None
        old = rng.choice(list(e.involved))
        choices = [r for r in agents if r not in e.involved]
        if not choices:
            return None
        new = rng.choice(choices)
        involved = [r for r in e.involved if r != old] + [new]
        return SystemEvent(e.activity, involved, e.data, e.system)
    if isinstance(e, SyncEvent):
        if not e.participants:
            return None
        a_i, old = rng.choice(list(e.participants))
        taken = {r for _, r in e.participants}
        choices = [r for r in agents if r not in taken]
        if not choices:
            return None
        new = rng.choice(choices)
        participants = [p for p in e.participants if p != (a_i, old)] + [(a_i, new)]
        return SyncEvent(e.activity, participants, e.data, e.system)
    return None


def perturb_log(log: EventLog, spec: NoiseSpec) -> Tuple[EventLog, Tuple[NoiseRecord, ...]]:
    """Apply seeded noise per trace occurrence; returns the perturbed log and
    a manifest accounting for every change."""
    occurrences: List[Trace] = []
    for trace, freq in log.items():
        occurrences.extend([trace] * freq)

    records: List[NoiseRecord] = []
    out: List[Trace] = []
    for i, trace in enumerate(occurrences):
        rng = random.Random(f"{spec.seed}:{i}")
        events = list(trace.events)
        if spec.swap and len(events) >= 2 and rng.random() < spec.swap:
            pos = rng.randrange(len(events) - 1)
            before = (events[pos], events[pos + 1])
            events[pos], events[pos + 1] = events[pos + 1], events[pos]
            records.append(NoiseRecord(i, "swap", pos, before, (events[pos], events[pos + 1])))
        if spec.drop and events and rng.random() < spec.drop:
            pos = rng.randrange(len(events))
            dropped = events.pop(pos)
            records.append(NoiseRecord(i, "drop", pos, (dropped,), ()))
        if spec.relabel and events and spec.activities and rng.random() < spec.relabel:
            pos = rng.randrange(len(events))
            old = events[pos]
            choices = [a for a in spec.activities if a != old.activity]
            if choices:
                new = _relabel_event(old, rng.choice(choices))
                events[pos] = new
                records.append(NoiseRecord(i, "relabel", pos, (old,), (new,)))
        if spec.retarget and events and spec.agents and rng.random() < spec.retarget:
            pos = rng.randrange(len(events))
            old = events[pos]
            new = _retarget_event(old, rng, spec.agents)
            if new is not None:
                events[pos] = new
                records.append(NoiseRecord(i, "retarget", pos, (old,), (new,)))
        out.append(Trace(events))
    return EventLog(out), tuple(records)


def apply_manifest(log: EventLog, records: Iterable[NoiseRecord]) -> EventLog:
    """Replay a manifest against a log; reproduces perturb_log's output."""
    occurrences: List[List[Event]] = []
    for trace, freq in log.items():
        occurrences.extend([list(trace.events)] * freq)
    occurrences = [list(events) for events in occurrences]
    for rec in records:
        events = occurrences[rec.trace_index]
        if rec.op == "swap":
            events[rec.position], events[rec.position + 1] = rec.after
        elif rec.op == "drop":
            del events[rec.position]
        else:
            events[rec.position] = rec.after[0]
    return EventLog(Trace(events) for events in occurrences)
