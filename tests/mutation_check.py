"""Mutation check: re-run the hand-made mutations the test suite must kill.

    python3 tests/mutation_check.py            # each mutation against its tests
    python3 tests/mutation_check.py --all      # each mutation against the suite
    python3 tests/mutation_check.py NAME ...   # only the named mutations
    python3 tests/mutation_check.py --list

Run from anywhere; needs pytest. Each mutation is one exact edit of one file
that must match exactly once in the current tree, so the list cannot rot
silently when the code moves: the check exits 2, before running anything,
if some edit no longer matches. Each mutation runs in a fresh temporary copy
of ``src/`` and ``tests/`` (with ``bench/``, ``README.md`` and
``pyproject.toml``, which some tests read), never in the tree itself.

A mutation is killed when a test fails under it. Known survivors are listed
with what is meant to kill them; the check exits 1 if a mutation expected to
be killed survives or a known survivor is killed (then take it off the list).
The file name keeps pytest from collecting it.
"""

from __future__ import annotations

import argparse
import os
import shutil
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Optional, Tuple

ROOT = Path(__file__).resolve().parent.parent
COPIED = ("src", "tests", "bench", "README.md", "pyproject.toml")


@dataclass(frozen=True)
class Mutation:
    name: str
    path: str  # relative to the repository root
    old: str
    new: str
    tests: Tuple[str, ...]  # pytest ids run by default
    survivor: Optional[str] = None  # why it survives, and what is meant to kill it


MUTATIONS = (
    # the monolithic replay's interned states (conformance._StateTable)
    Mutation(
        "local-key-drops-atoms", "src/npnconf/conformance.py",
        "if r in self.slot),\n                          len(self.agents))\n",
        "if r in self.slot))\n",
        ("tests/test_conformance.py::test_local_state_holds_the_atoms",)),
    Mutation(
        "local-key-drops-the-first-agent", "src/npnconf/conformance.py",
        "for r in event_agents(event) if r in self.slot",
        "for r in event_agents(event)[1:] if r in self.slot",
        ("tests/test_conformance.py::test_plan_moves_match_apply_step_reference",)),
    Mutation(  # only events of several agents change
        "local-key-keeps-only-the-first-agent", "src/npnconf/conformance.py",
        "for r in event_agents(event) if r in self.slot",
        "for r in event_agents(event)[:1] if r in self.slot",
        ("tests/test_conformance.py::test_local_state_holds_every_agent_of_the_event",)),
    Mutation(
        "final-states-drop-atoms", "src/npnconf/conformance.py",
        "        self.finals = {self.state(mf) for mf in np.final_markings\n",
        "        self.finals = {self.state(mf)[:-1] for mf in np.final_markings\n",
        ("tests/test_conformance.py::test_monolithic_verdicts_match_plain_search",)),
    # the shared code of both checking routes: the compiled payload matcher,
    # the per-check payload table and the arc templates
    Mutation(
        "payload-data-outside-domain", "src/npnconf/nested.py",
        "(value, n, dom if value in known.get(dom, ()) else None)",
        "(value, n, dom)",
        ("tests/test_conformance.py::test_data_outside_its_domain_is_a_syntactic_failure",)),
    Mutation(
        "payload-key-drops-data", "src/npnconf/nested.py",
        "    key = (t, names, data)\n",
        "    key = (t, names)\n",
        ("tests/test_conformance.py::test_payload_table_keys_hold_the_data",)),
    Mutation(
        "templates-drop-constants", "src/npnconf/colored.py",
        "for p, _, e in arcs for term in e.terms)",
        "for p, _, e in arcs for term in e.terms if isinstance(term, Var))",
        ("tests/test_nested.py::test_payload_matcher_matches_reference",)),
    Mutation(
        "demand-drops-constants", "src/npnconf/colored.py",
        "    return [values[term.name] if isinstance(term, Var) else term.value\n"
        "            for term in expr.terms]\n",
        "    return [values[term.name] for term in expr.terms if isinstance(term, Var)]\n",
        ("tests/test_nested.py::test_apply_step_matches_firing_reference",)),
    Mutation(
        "matches-ignore-sync-parity", "src/npnconf/events.py",
        "        if (label is not None) != sync:\n            continue\n",
        "",
        ("tests/test_events.py::test_system_event_labeled_transition_does_not_match",
         "tests/test_conformance.py::test_monolithic_verdicts_match_plain_search")),
    Mutation(  # only syncs of two participants with two same-activity choices each change
        "sync-product-reversed", "src/npnconf/events.py",
        "[c + ((r, ti),) for c in combos for ti in _inner_matches(np, r, a, label)]",
        "[c + ((r, ti),) for ti in _inner_matches(np, r, a, label) for c in combos]",
        ("tests/test_conformance.py::test_plan_moves_match_apply_step_reference",),
        survivor="the reference takes its match order from _event_matches, and no tested "
                 "sync has two such participants; ROADMAP item 8's generator is meant to kill it"),
    # the simulator's walk (simulate._walk)
    Mutation(
        "walk-key-drops-atoms", "src/npnconf/simulate.py",
        "else top.atoms)",
        "else None)",
        ("tests/test_simulate.py::test_walk_deltas_hold_the_atoms",)),
)


def stale(mutations) -> list:
    """The mutations whose edit does not match exactly once, with the count."""
    found = []
    for mutation in mutations:
        count = (ROOT / mutation.path).read_text().count(mutation.old)
        if count != 1:
            found.append((mutation, count))
    return found


def run(mutation: Mutation, whole_suite: bool) -> Tuple[bool, list, float]:
    """Apply ``mutation`` in a temporary copy and run its tests; returns
    (killed, failing test ids, seconds)."""
    with tempfile.TemporaryDirectory(prefix="npnconf-mutation-") as tmp:
        work = Path(tmp)
        for name in COPIED:
            source = ROOT / name
            if source.is_dir():
                shutil.copytree(source, work / name,
                                ignore=shutil.ignore_patterns("__pycache__", ".hypothesis"))
            elif source.exists():
                shutil.copy2(source, work / name)
        target = work / mutation.path
        target.write_text(target.read_text().replace(mutation.old, mutation.new))
        env = dict(os.environ, PYTHONPATH=str(work / "src"), PYTHONDONTWRITEBYTECODE="1")
        argv = [sys.executable, "-m", "pytest", "-q", "-rf", "-p", "no:cacheprovider",
                *(("tests",) if whole_suite else mutation.tests)]
        start = time.perf_counter()
        proc = subprocess.run(argv, cwd=work, env=env, capture_output=True, text=True)
        seconds = time.perf_counter() - start
    if proc.returncode not in (0, 1):
        raise RuntimeError(f"{mutation.name}: pytest exited {proc.returncode}\n"
                           f"{proc.stdout[-2000:]}{proc.stderr[-2000:]}")
    failing = [line[len("FAILED "):].split(" - ")[0] for line in proc.stdout.splitlines()
               if line.startswith("FAILED ")]
    return proc.returncode == 1, failing, seconds


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("names", nargs="*", help="mutations to run (default: all)")
    parser.add_argument("--all", action="store_true", help="run the whole suite per mutation")
    parser.add_argument("--list", action="store_true", help="list the mutations and exit")
    args = parser.parse_args(argv)
    known = {m.name: m for m in MUTATIONS}
    unknown = [name for name in args.names if name not in known]
    if unknown:
        parser.error(f"unknown mutations: {', '.join(unknown)}")
    if args.list:
        for m in MUTATIONS:
            survivor = f"  (known survivor: {m.survivor})" if m.survivor else ""
            print(f"{m.name}  {m.path}{survivor}")
        return 0
    broken = stale(MUTATIONS)
    for mutation, count in broken:
        print(f"STALE {mutation.name}: its edit matches {count} times in {mutation.path}")
    if broken:
        return 2
    unexpected = 0
    for mutation in (known[name] for name in args.names) if args.names else MUTATIONS:
        killed, failing, seconds = run(mutation, args.all)
        expected = mutation.survivor is None
        verdict = "killed" if killed else "survived"
        note = "" if killed == expected else "  UNEXPECTED"
        if mutation.survivor and not killed:
            note = f"  (known survivor: {mutation.survivor})"
        print(f"{verdict:8} {mutation.name} [{seconds:.1f} s]{note}")
        for test in failing:
            print(f"         {test}")
        unexpected += killed != expected
    return 1 if unexpected else 0


if __name__ == "__main__":
    sys.exit(main())
