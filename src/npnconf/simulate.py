"""Simulation of nested-net runs into event logs, plus controlled noise.

Generated traces are runs by construction (the random walk backtracks out of
dead ends), so every generated log perfectly fits its source model. All
randomness is seeded per trace, making output deterministic and safe to
parallelize.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, replace
from typing import Dict, Hashable, Iterator, List, Optional, Sequence, Set, Tuple

from .events import AgentEvent, Event, EventLog, SyncEvent, SystemEvent, Trace
from .multiset import Multiset
from .nested import (NestedNet, NpMarking, Step, _build_step, _Delta, _Spec, _spec_delta,
                     _spec_of, _step_specs)


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
    return _spec_event(np, _spec_of(np, step))


def _spec_event(np: NestedNet, spec: _Spec) -> Event:
    """The event of the step ``spec`` describes (see ``nested._Spec``)."""
    if isinstance(spec[1], str):
        agent, ti = spec
        return AgentEvent(np.agent_class(agent).activity_label[ti], agent)
    t, values = spec[0], dict(zip(np.transition_variables(spec[0]), spec[1]))
    data = Multiset((np.var_type[v], values[v]) for v in np._table.data_vars[t])
    if len(spec) == 2:
        return SystemEvent(np.system_activity[t],
                           [values[v].agent for v in np._table.net_vars[t]], data)
    return SyncEvent(np.system_activity[t], [
        (np.agent_class(agent).activity_label[ti], agent) for agent, ti in spec[2]], data)


# One ``generate_log`` call's expanded markings: the hashes of those seen once and, per
# marking seen again, its specs in ``_step_specs`` order and its successor per spec fired;
# and each spec's delta by what it reads.
_WalkMemo = Tuple[Set[int], Dict[NpMarking, Tuple[Tuple[_Spec, ...], Dict[_Spec, NpMarking]]],
                  Dict[Tuple[_Spec, Hashable], _Delta]]


def _walk(np: NestedNet, cfg: SimulationConfig, trace_index: int,
          memo: _WalkMemo) -> List[_Spec]:
    """Sample one run as specs: a randomized depth-first walk from the
    initial marking that stops at the first final marking and backtracks
    out of dead ends. The stack is explicit, so the run length is bounded
    only by memory. A marking is stored in ``memo`` on its second
    expansion, and later expansions shuffle a copy of its stored specs, so
    the generator draws as if they were enumerated again; other markings
    derive their rows (``_NetTable.rows_of``) from an enumerated parent's.
    Deltas are kept by what a spec reads: the atoms and its tokens, offered
    only where they reside, or an element spec's agent's located token."""
    seen, stored, deltas = memo
    rng = random.Random(f"{cfg.seed}:{trace_index}")
    budget = max(4000, 50 * cfg.max_steps)
    expansions = 0
    m = np.initial_marking
    on_path: Set[NpMarking] = {m}
    # per marking on the path: its untried specs, successors so far and rows
    stack: List[Tuple[NpMarking, Iterator, Dict[_Spec, NpMarking], Optional[list]]] = []
    specs: List[_Spec] = []  # the step into each marking on the path but the first
    while m not in np.final_markings:
        offered, fired, rows = [], {}, None
        if len(specs) < cfg.max_steps and expansions < budget:
            expansions += 1
            entry = stored.get(m)
            if entry is not None:
                offered, fired = list(entry[0]), entry[1]
            else:
                rows = np._table.rows_of(m, *(stack[-1][3], specs[-1]) if stack else ())
                offered = _step_specs(np, m, rows)
                if hash(m) in seen:
                    stored[m] = (tuple(offered), fired)
                seen.add(hash(m))
            rng.shuffle(offered)
        stack.append((m, iter(offered), fired, rows))
        m = None
        while m is None:
            top, untried, fired, _ = stack[-1]
            for spec in untried:
                m2 = fired.get(spec)
                if m2 is None:
                    key = (spec, top._index[spec[0]] if isinstance(spec[1], str) else top.atoms)
                    delta = deltas.get(key)
                    if delta is None:
                        delta = deltas[key] = _spec_delta(np, top, spec)
                    m2 = fired[spec] = top._moved(*delta)
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
                specs.pop()
        on_path.add(m)
        specs.append(spec)
    return specs


def simulate_run(np: NestedNet, cfg: SimulationConfig,
                 trace_index: int = 0) -> Tuple[Trace, Tuple[Step, ...]]:
    """Sample one run (see ``_walk``) and build its steps."""
    specs = _walk(np, cfg, trace_index, (set(), {}, {}))
    return (Trace(_spec_event(np, spec) for spec in specs),
            tuple(_build_step(np, spec) for spec in specs))


def generate_log(np: NestedNet, cfg: SimulationConfig) -> EventLog:
    """Aggregate ``trace_count`` simulated traces into a log. The walks
    share one memo, and each distinct spec becomes one event object."""
    memo: _WalkMemo = (set(), {}, {})
    events: Dict[_Spec, Event] = {}
    traces: List[Trace] = []
    failures: List[int] = []
    for i in range(cfg.trace_count):
        try:
            specs = _walk(np, cfg, i, memo)
        except GenerationError:
            failures.append(i)
            continue
        events.update((spec, _spec_event(np, spec)) for spec in specs if spec not in events)
        traces.append(Trace(events[spec] for spec in specs))
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
    a manifest accounting for every change. Equal relabelled or retargeted
    events share one object."""
    occurrences: List[Trace] = []
    for trace, freq in log.items():
        occurrences.extend([trace] * freq)

    records: List[NoiseRecord] = []
    out: List[Trace] = []
    built: Dict[Event, Event] = {}
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
                new = replace(old, activity=rng.choice(choices))
                new = events[pos] = built.setdefault(new, new)
                records.append(NoiseRecord(i, "relabel", pos, (old,), (new,)))
        if spec.retarget and events and spec.agents and rng.random() < spec.retarget:
            pos = rng.randrange(len(events))
            old = events[pos]
            new = _retarget_event(old, rng, spec.agents)
            if new is not None:
                new = events[pos] = built.setdefault(new, new)
                records.append(NoiseRecord(i, "retarget", pos, (old,), (new,)))
        out.append(Trace(events))
    return EventLog(out), tuple(records)

