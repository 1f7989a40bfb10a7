"""Place/transition nets, workflow nets, the firing rule, and run replay.

A marking is a ``Multiset`` over place ids. Nets are immutable after
construction and every operation is pure, so callers may share nets across
any number of concurrent checks.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import (Callable, Dict, FrozenSet, Hashable, Iterable, Iterator, List,
                    Mapping, Optional, Sequence, Set, Tuple)

from .multiset import Multiset, sort_key

Marking = Multiset  # marking over place ids: place -> token count


class NetStructureError(ValueError):
    """A net, marking, or label map is structurally malformed."""


class NotEnabledError(RuntimeError):
    """A transition (or step) was fired without being enabled."""

    def __init__(self, transition: str, missing: Iterable[str] = (), detail: str = ""):
        self.transition = transition
        self.missing = tuple(missing)
        msg = f"transition {transition!r} is not enabled"
        if self.missing:
            msg += f" (missing tokens in: {', '.join(map(repr, self.missing))})"
        if detail:
            msg += f": {detail}"
        super().__init__(msg)


class SearchLimitExceeded(RuntimeError):
    """A replay search visited more states than its configured limit."""


@dataclass(frozen=True)
class PetriNet:
    """A plain place/transition net with unweighted arcs."""

    places: FrozenSet[str]
    transitions: FrozenSet[str]
    arcs: FrozenSet[Tuple[str, str]]

    def __init__(self, places: Iterable[str], transitions: Iterable[str],
                 arcs: Iterable[Tuple[str, str]]):
        object.__setattr__(self, "places", frozenset(places))
        object.__setattr__(self, "transitions", frozenset(transitions))
        object.__setattr__(self, "arcs", frozenset(tuple(a) for a in arcs))
        overlap = self.places & self.transitions
        if overlap:
            raise NetStructureError(f"places and transitions overlap: {sorted(overlap)}")
        nodes = self.places | self.transitions
        for src, dst in self.arcs:
            if src not in nodes or dst not in nodes:
                raise NetStructureError(f"arc ({src!r}, {dst!r}) references unknown node")
            if (src in self.places) == (dst in self.places):
                raise NetStructureError(f"arc ({src!r}, {dst!r}) connects nodes of the same kind")

    @cached_property
    def _pre(self) -> Dict[str, FrozenSet[str]]:
        pre: Dict[str, Set[str]] = {n: set() for n in self.places | self.transitions}
        for src, dst in self.arcs:
            pre[dst].add(src)
        return {n: frozenset(v) for n, v in pre.items()}

    @cached_property
    def _post(self) -> Dict[str, FrozenSet[str]]:
        post: Dict[str, Set[str]] = {n: set() for n in self.places | self.transitions}
        for src, dst in self.arcs:
            post[src].add(dst)
        return {n: frozenset(v) for n, v in post.items()}

    def preset(self, node: str) -> FrozenSet[str]:
        return self._pre[node]

    def postset(self, node: str) -> FrozenSet[str]:
        return self._post[node]


def _check_marking(net: PetriNet, m: Marking) -> None:
    unknown = [p for p in m.distinct() if p not in net.places]
    if unknown:
        raise NetStructureError(
            f"marking references unknown places: {sorted(unknown, key=sort_key)}")


def enabled_transitions(net: PetriNet, m: Marking) -> Set[str]:
    """Transitions whose whole preset is marked."""
    _check_marking(net, m)
    return {t for t in net.transitions
            if all(m.count(p) >= 1 for p in net.preset(t))}


def fire(net: PetriNet, m: Marking, t: str) -> Marking:
    """Fire ``t``: remove one token per preset place, add one per postset place."""
    if t not in net.transitions:
        raise NetStructureError(f"unknown transition {t!r}")
    _check_marking(net, m)
    missing = sorted(p for p in net.preset(t) if m.count(p) < 1)
    if missing:
        raise NotEnabledError(t, missing)
    return m - Multiset(net.preset(t)) + Multiset(net.postset(t))


@dataclass(frozen=True, eq=False)
class WorkflowNet:
    """A net with a source, a sink, activity labels, and optional sync labels."""

    net: PetriNet
    source: str
    sink: str
    activity_label: Mapping[str, str]
    sync_label: Mapping[str, str] = field(default_factory=dict)

    def __post_init__(self):
        object.__setattr__(self, "activity_label", dict(self.activity_label))
        object.__setattr__(self, "sync_label", dict(self.sync_label))
        if self.source not in self.net.places:
            raise NetStructureError(f"source {self.source!r} is not a place")
        if self.sink not in self.net.places:
            raise NetStructureError(f"sink {self.sink!r} is not a place")
        for label_map, what in ((self.activity_label, "activity"), (self.sync_label, "sync")):
            unknown = [t for t in label_map if t not in self.net.transitions]
            if unknown:
                raise NetStructureError(f"{what} labels reference unknown transitions: {unknown}")

    @property
    def initial_marking(self) -> Marking:
        return Multiset([self.source])

    @property
    def final_marking(self) -> Marking:
        return Multiset([self.sink])

    @cached_property
    def _table(self) -> "_WorkflowTable":
        return _WorkflowTable(self)


class _WorkflowTable:
    """A workflow net compiled on first use: its transitions per activity,
    in sorted order, and memos of what a marking enables and what a firing
    yields. An entry filled twice gets the same value, so checks running
    concurrently may share the net."""

    def __init__(self, w: WorkflowNet):
        # the net's parts, not the net itself: no reference cycle
        self.net = w.net
        self.sync_label = w.sync_label
        self.order = tuple(sorted(w.net.transitions))
        by_activity: Dict[str, List[str]] = {}
        for t in self.order:
            by_activity.setdefault(w.activity_label.get(t), []).append(t)
        self.by_activity = {a: tuple(ts) for a, ts in by_activity.items()}
        self.enabled_memo: Dict[Tuple[Marking, Optional[str]], Tuple[str, ...]] = {}
        self.fire_memo: Dict[Tuple[Marking, str], Marking] = {}
        self.reached: Dict[Marking, Marking] = {}

    def enabled(self, m: Marking, label: Optional[str] = None) -> Tuple[str, ...]:
        """The transitions with sync label ``label`` (None: unlabeled) that
        ``m`` enables, in sorted order."""
        found = self.enabled_memo.get((m, label))
        if found is None:
            _check_marking(self.net, m)
            found = self.enabled_memo[(m, label)] = tuple(
                t for t in self.order if self.sync_label.get(t) == label
                and all(m.count(p) >= 1 for p in self.net.preset(t)))
        return found

    def fire(self, m: Marking, t: str) -> Marking:
        """``nets.fire`` on the net; only successful firings are stored, so
        a disabled transition raises on every call. Equal markings reached
        by different firings are one object, so memo lookups on them hit by
        identity."""
        found = self.fire_memo.get((m, t))
        if found is None:
            found = fire(self.net, m, t)
            found = self.fire_memo[(m, t)] = self.reached.setdefault(found, found)
        return found


def validate_workflow_net(w: WorkflowNet) -> list[str]:
    """Report every violated workflow-net condition; empty list means valid."""
    violations = []
    if w.net.preset(w.source):
        violations.append(f"source place {w.source!r} has incoming arcs")
    if w.net.postset(w.sink):
        violations.append(f"sink place {w.sink!r} has outgoing arcs")
    for t in sorted(w.net.transitions):
        if t not in w.activity_label:
            violations.append(f"transition {t!r} has no activity label")

    forward = _reach(w.net, w.source, w.net.postset)
    backward = _reach(w.net, w.sink, w.net.preset)
    for node in sorted(w.net.places | w.net.transitions):
        if node not in forward or node not in backward:
            violations.append(f"node {node!r} is not on a path from source to sink")
    return violations


def _reach(net: PetriNet, start: str, step) -> Set[str]:
    seen = {start}
    frontier = [start]
    while frontier:
        node = frontier.pop()
        for nxt in step(node):
            if nxt not in seen:
                seen.add(nxt)
                frontier.append(nxt)
    return seen


@dataclass(frozen=True)
class ReplayResult:
    """Outcome of a run-membership search.

    ``prefix`` is the longest number of leading events that some firing
    sequence can replay; it equals the sequence length when every event
    fired but no final marking was reached.
    """

    ok: bool
    prefix: int
    witness: Optional[Tuple] = None


def search(initial: Hashable, n: int,
           successors: Callable[[Hashable, int], Iterable[Tuple[Hashable, Hashable]]],
           is_final: Callable[[Hashable], bool],
           max_states: Optional[int] = None) -> ReplayResult:
    """Depth-first search for a path of ``n`` moves from ``initial`` to a
    state that ``is_final`` accepts; the witness lists the moves' labels.

    ``successors(state, i)`` gives the (label, next state) pairs of move i
    in the order to try them; it is consumed one pair at a time, so a lazy
    one builds each move only when the search reaches it, and it may as well
    return a tuple of moves built before. States with no path
    onward are memoized per position, and ``max_states`` bounds the states
    whose successors are asked for (``SearchLimitExceeded``). The stack is
    explicit, so the run length is bounded only by memory.
    """
    failed: Set[Tuple[Hashable, int]] = set()
    stack: List[Tuple[Hashable, Iterator]] = []  # per position: state, untried moves
    path: List[Hashable] = []  # per position: label of the move being tried
    visited = best = 0
    state = initial
    while True:
        pos = len(stack)
        best = max(best, pos)
        if pos == n:
            if is_final(state):
                return ReplayResult(True, n, tuple(path))
        elif (state, pos) not in failed:
            visited += 1
            if max_states is not None and visited > max_states:
                raise SearchLimitExceeded(f"replay visited more than {max_states} states")
            stack.append((state, iter(successors(state, pos))))
            path.append(None)
        while stack:
            top, untried = stack[-1]
            move = next(untried, None)
            if move is not None:
                path[-1], state = move
                break
            stack.pop()
            path.pop()
            failed.add((top, len(stack)))
        else:
            return ReplayResult(False, best)


def is_run_wf(w: WorkflowNet, activities: Sequence[str],
              max_states: Optional[int] = None) -> ReplayResult:
    """Decide whether ``activities`` is a run of ``w`` from {source} to {sink}.

    Duplicate activity labels make the replay nondeterministic, so it is a
    ``search`` that tries transitions in lexicographic id order, which makes
    failure positions deterministic. Synchronization labels are ignored.
    """
    def successors(m: Marking, pos: int) -> Iterator[Tuple[str, Marking]]:
        for t in w._table.by_activity.get(activities[pos], ()):
            if all(m.count(p) >= 1 for p in w.net.preset(t)):
                yield t, w._table.fire(m, t)

    return search(w.initial_marking, len(activities), successors,
                  w.final_marking.__eq__, max_states)
