"""Benchmark-owned model generators.

Models are written as ``npnet/1`` JSON documents directly, without the
library's model classes or serializers, so that an edit to the library or to
the test generators cannot silently change what the benchmark measures.

``random_nested_model`` makes the same random-number calls, in the same
order, as the nested-net generator behind acceptance criterion 3, and lays
the document out the way the library's canonical model writer does, so the
two produce byte-identical files for the same generator state.
"""

import copy
import json
import random
from pathlib import Path

ASSISTANT_MODEL = Path(__file__).with_name("assistant_model.json")


def canonical_bytes(document) -> bytes:
    """The library's canonical JSON layout: two-space indent, no key sort."""
    return (json.dumps(document, indent=2, ensure_ascii=False) + "\n").encode("utf-8")


# ----------------------------------------------------------------------
# random nested nets (acceptance criterion 3)


def random_nested_model(rng: random.Random, max_agents: int = 4) -> dict:
    """A conservative nested net with a reachable final marking.

    The system net is a forward chain of stages shared by all agents; sync
    stages carry labels in a fixed order and every element net contains the
    same labels in the same order, so every agent can always finish.
    """
    n_elements = 1 if rng.random() < 0.6 else 2
    element_names = [f"E{i}" for i in range(n_elements)]
    n_agents = rng.randint(n_elements, max_agents)
    agents = {f"r{i + 1}": element_names[i % n_elements] for i in range(n_agents)}

    sync_labels = ["sA", "sB"][: rng.randint(0, 2)]

    elements = {}
    for name in element_names:
        elements[name] = _random_element_net(rng, name, sync_labels)

    stages = [("sync", lab) for lab in sync_labels]
    for _ in range(rng.randint(0, 2)):
        stages.insert(rng.randint(0, len(stages)), ("auto", None))
    if not stages:
        stages = [("auto", None)]

    use_data = rng.random() < 0.45
    domain_values = []
    pool = []
    if use_data:
        domain_values = ["u", "v", "w"][: rng.randint(1, 3)]
        pool = sorted(rng.sample(sorted(domain_values),
                                 rng.randint(1, len(domain_values))))

    net_places = [f"sys_p{i}" for i in range(len(stages) + 1)]
    transitions = {}  # id -> (activity, sync label or None, variables)
    arcs = {}  # (from, to) -> expression text
    budget = 8
    for k, (kind, label) in enumerate(stages):
        src, dst = net_places[k], net_places[k + 1]
        for e in element_names:
            if len(transitions) >= budget:
                break
            t = f"sys_t{k}_{e}"
            var = f"x_{e}"
            variables = {var}
            arcs[(src, t)] = var
            arcs[(t, dst)] = var
            if use_data and rng.random() < 0.5:
                # constants must name a value present in the pool, or the
                # transition could never fire and agents would deadlock
                reads = "dv" if rng.random() < 0.7 else f"`{rng.choice(pool)}`"
                arcs[("sys_dpool", t)] = reads
                arcs[(t, "sys_dpool")] = reads
                if reads == "dv":
                    variables.add("dv")
            transitions[t] = (f"A{k}", label if kind == "sync" else None,
                              sorted(variables))

    var_type = {f"x_{e}": e for e in element_names}
    var_type["dv"] = "D"
    system_places = [{"id": p, "kind": "net", "type": list(element_names)}
                     for p in net_places]
    if use_data:
        system_places.append({"id": "sys_dpool", "kind": "atom", "type": "D"})

    def marking(place, inner):  # every agent at `place`, one token on `inner`
        return {
            "net_places": {place: [
                {"agent": r, "marking": {elements[cls][inner]: 1}}
                for r, cls in sorted(agents.items())]},
            "atom_places": {"sys_dpool": list(pool)} if pool else {},
        }

    return {
        "schema": "npnet/1",
        "domains": {"D": list(domain_values)} if use_data else {},
        "element_nets": {name: elements[name] for name in sorted(elements)},
        "system_net": {
            "places": sorted(system_places, key=lambda p: p["id"]),
            "transitions": [
                {"id": t, "activity": activity,
                 **({"sync": sync} if sync is not None else {}),
                 "variables": {v: var_type[v] for v in variables}}
                for t, (activity, sync, variables) in sorted(transitions.items())
            ],
            "arcs": [{"from": src, "to": dst, "expr": expr}
                     for (src, dst), expr in sorted(arcs.items())],
        },
        "agents": dict(sorted(agents.items())),
        "initial_marking": marking(net_places[0], "source"),
        "final_markings": [marking(net_places[-1], "sink")],
    }


def _random_element_net(rng: random.Random, name: str, sync_labels) -> dict:
    """A forward chain with optional choice stages; the sync-labeled
    transitions appear in the given label order."""
    stages = [("sync", lab) for lab in sync_labels]
    n_plain = rng.randint(max(0, 1 - len(stages)), 2)
    for _ in range(n_plain):
        stages.insert(rng.randint(0, len(stages)), ("plain", None))

    places = [f"{name}_p0"]
    transitions = []
    arcs = []
    budget = 6
    tcount = 0
    for k, (kind, label) in enumerate(stages):
        src = places[-1]
        dst = f"{name}_p{k + 1}"
        places.append(dst)
        activity = f"{name}a{k}"
        remaining = len(stages) - k - 1  # later stages need one slot each
        width = 2 if (rng.random() < 0.3 and tcount + 2 + remaining <= budget) else 1
        for j in range(width):
            t = f"{name}_t{k}_{j}"
            # choice branches may share the activity name; labeled branches
            # always share both activity and label
            label_of_t = activity if (kind == "sync" or j == 0 or rng.random() < 0.5) \
                else f"{name}a{k}b"
            transitions.append({"id": t, "activity": label_of_t,
                                **({"sync": label} if kind == "sync" else {})})
            arcs += [[src, t], [t, dst]]
            tcount += 1
    return {
        "places": sorted(places),
        "source": places[0],
        "sink": places[-1],
        "transitions": sorted(transitions, key=lambda t: t["id"]),
        "arcs": sorted(arcs),
    }


# ----------------------------------------------------------------------
# the worked example and its roster scaler


def assistant_model() -> dict:
    """The two-agent worked-example model, frozen inside the benchmark."""
    return json.loads(ASSISTANT_MODEL.read_bytes())


def scale_roster(model: dict, agents: int) -> dict:
    """The same nets with the roster ``r1 .. r<agents>``, every agent of the
    first agent's class, starting and ending where the first agent does."""
    scaled = copy.deepcopy(model)
    first = sorted(model["agents"])[0]
    cls = model["agents"][first]
    names = sorted(f"r{i + 1}" for i in range(agents))
    scaled["agents"] = {r: cls for r in names}
    for m in [scaled["initial_marking"]] + scaled["final_markings"]:
        for place, tokens in m["net_places"].items():
            template = next((tk for tk in tokens if tk["agent"] == first), None)
            m["net_places"][place] = [] if template is None else [
                {"agent": r, "marking": dict(template["marking"])} for r in names]
        m["net_places"] = {p: toks for p, toks in m["net_places"].items() if toks}
    return scaled
