"""Seeded random generators for property suites and the acceptance gate.

Random nested nets are built so that a run always exists (forward chains,
every choice reaches the sink, data arcs read-and-return) and so that the
monolithic/compositional equivalence holds by construction: within each net,
transitions sharing an activity name also share their sync-label status.
"""

import random

from npnconf.colored import ColoredMarking, ColoredNet, Domain, parse_arc_expr
from npnconf.events import AgentEvent, EventLog, SyncEvent, SystemEvent, Trace
from npnconf.multiset import Multiset
from npnconf.nested import NestedNet, NetToken, NpMarking
from npnconf.nets import PetriNet, WorkflowNet

from oracles import cn_enabled_bindings, cn_fire


# ----------------------------------------------------------------------
# workflow nets


def random_workflow_net(rng: random.Random) -> WorkflowNet:
    """A stage-structured workflow net: sequence / choice / parallel stages,
    with a small activity pool so duplicate labels occur."""
    places = ["i"]
    transitions = {}
    arcs = []
    counter = [0]

    def fresh(prefix):
        counter[0] += 1
        return f"{prefix}{counter[0]}"

    pool = ["a", "b", "c", "d"][: rng.randint(2, 4)]
    cur = "i"
    for _ in range(rng.randint(1, 4)):
        kind = rng.choice(["seq", "seq", "xor", "par"])
        nxt = fresh("p")
        places.append(nxt)
        if kind == "seq":
            t = fresh("t")
            transitions[t] = rng.choice(pool)
            arcs += [(cur, t), (t, nxt)]
        elif kind == "xor":
            for _ in range(2):
                t = fresh("t")
                transitions[t] = rng.choice(pool)
                arcs += [(cur, t), (t, nxt)]
        else:  # parallel split/join
            split, join = fresh("t"), fresh("t")
            transitions[split] = rng.choice(pool)
            transitions[join] = rng.choice(pool)
            arcs.append((cur, split))
            for _ in range(2):
                pa, qa = fresh("p"), fresh("p")
                ta = fresh("t")
                places += [pa, qa]
                transitions[ta] = rng.choice(pool)
                arcs += [(split, pa), (pa, ta), (ta, qa), (qa, join)]
            arcs.append((join, nxt))
        cur = nxt
    net = PetriNet(places, transitions.keys(), arcs)
    return WorkflowNet(net, "i", cur, transitions)


# ----------------------------------------------------------------------
# colored nets


def random_colored_net(rng: random.Random) -> ColoredNet:
    """A small colored net whose final markings are sampled from its own
    reachable state space (via the brute-force oracle)."""
    n_domains = rng.randint(1, 2)
    domains = {}
    for i in range(n_domains):
        name = f"D{i}"
        size = rng.randint(1, 3)
        domains[name] = Domain(name, [f"{name}v{j}" for j in range(size)])

    n_places = rng.randint(2, 3)
    place_type = {f"p{i}": rng.choice(sorted(domains)) for i in range(n_places)}
    places = sorted(place_type)

    var_type = {}
    for dom in domains:
        for k in range(2):
            var_type[f"{dom}x{k}"] = dom

    def expr_for(place):
        dom = place_type[place]
        atoms = []
        for _ in range(rng.randint(1, 2)):
            if rng.random() < 0.25:
                atoms.append(f"`{rng.choice(sorted(domains[dom].values))}`")
            else:
                atoms.append(f"{dom}x{rng.randint(0, 1)}")
        return parse_arc_expr(" + ".join(atoms))

    transitions = {}
    arcs = set()
    arc_expr = {}
    for i in range(rng.randint(2, 4)):
        t = f"t{i}"
        transitions[t] = rng.choice(["u", "v", "w"])
        for place in rng.sample(places, rng.randint(1, min(2, len(places)))):
            arcs.add((place, t))
            arc_expr[(place, t)] = expr_for(place)
        for place in rng.sample(places, rng.randint(1, min(2, len(places)))):
            arcs.add((t, place))
            arc_expr[(t, place)] = expr_for(place)

    initial = ColoredMarking({
        p: Multiset(rng.choices(sorted(domains[place_type[p]].values),
                                k=rng.randint(0, 2)))
        for p in places
    })

    cn = ColoredNet(
        net=PetriNet(places, transitions.keys(), arcs),
        domains=domains,
        place_type=place_type,
        arc_expr=arc_expr,
        var_type=var_type,
        activity_label=transitions,
        initial_marking=initial,
        final_markings={initial},
    )
    # grow a few reachable markings and pick final markings among them
    reachable = [initial]
    seen = {initial}
    frontier = [initial]
    for _ in range(60):
        if not frontier:
            break
        m = frontier.pop()
        for t in sorted(cn.net.transitions):
            for assignment in cn_enabled_bindings(cn, m, t):
                m2 = cn_fire(cn, m, t, assignment)
                if m2 not in seen:
                    seen.add(m2)
                    reachable.append(m2)
                    frontier.append(m2)
    finals = set(rng.sample(reachable, min(len(reachable), rng.randint(1, 2))))
    return ColoredNet(
        net=cn.net, domains=domains, place_type=place_type, arc_expr=arc_expr,
        var_type=var_type, activity_label=transitions,
        initial_marking=initial, final_markings=finals)


# ----------------------------------------------------------------------
# nested nets


def random_nested_net(rng: random.Random, max_agents: int = 4) -> NestedNet:
    """A conservative nested net with a guaranteed-reachable final marking.

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

    # system stages: the sync labels in order with autonomous stages mixed in
    stages = [("sync", lab) for lab in sync_labels]
    for _ in range(rng.randint(0, 2)):
        stages.insert(rng.randint(0, len(stages)), ("auto", None))
    if not stages:
        stages = [("auto", None)]

    use_data = rng.random() < 0.45
    domains = {}
    atom_place_type = {}
    atoms_initial = {}
    if use_data:
        domains["D"] = Domain("D", ["u", "v", "w"][: rng.randint(1, 3)])
        atom_place_type["sys_dpool"] = "D"
        atoms_initial["sys_dpool"] = Multiset(
            rng.sample(sorted(domains["D"].values),
                       rng.randint(1, len(domains["D"].values))))

    net_places = [f"sys_p{i}" for i in range(len(stages) + 1)]
    net_place_type = {p: frozenset(element_names) for p in net_places}
    var_type = {f"x_{e}": e for e in element_names}
    if use_data:
        var_type["dv"] = "D"

    system_activity = {}
    system_sync = {}
    arcs = set()
    arc_expr = {}
    transition_ids = []
    budget = 8
    for k, (kind, label) in enumerate(stages):
        src, dst = net_places[k], net_places[k + 1]
        activity = f"A{k}"
        for e in element_names:
            if len(transition_ids) >= budget:
                break
            t = f"sys_t{k}_{e}"
            transition_ids.append(t)
            system_activity[t] = activity
            if kind == "sync":
                system_sync[t] = label
            var = f"x_{e}"
            arcs.add((src, t))
            arc_expr[(src, t)] = parse_arc_expr(var)
            arcs.add((t, dst))
            arc_expr[(t, dst)] = parse_arc_expr(var)
            if use_data and rng.random() < 0.5:
                # constants must name a value present in the pool, or the
                # transition could never fire and agents would deadlock
                pool_values = sorted(atoms_initial["sys_dpool"].distinct())
                reads = "dv" if rng.random() < 0.7 else f"`{rng.choice(pool_values)}`"
                arcs.add(("sys_dpool", t))
                arc_expr[("sys_dpool", t)] = parse_arc_expr(reads)
                arcs.add((t, "sys_dpool"))
                arc_expr[(t, "sys_dpool")] = parse_arc_expr(reads)

    system = PetriNet(net_places + sorted(atom_place_type), transition_ids, arcs)

    initial = NpMarking(
        {net_places[0]: [NetToken(r, elements[cls].initial_marking)
                         for r, cls in agents.items()]},
        atoms_initial)
    final = NpMarking(
        {net_places[-1]: [NetToken(r, elements[cls].final_marking)
                          for r, cls in agents.items()]},
        atoms_initial)

    return NestedNet(
        system=system,
        net_place_type=net_place_type,
        atom_place_type=atom_place_type,
        domains=domains,
        arc_expr=arc_expr,
        var_type=var_type,
        elements=elements,
        system_activity=system_activity,
        system_sync=system_sync,
        agents=agents,
        initial_marking=initial,
        final_markings=[final],
    )


def _random_element_net(rng: random.Random, name: str, sync_labels) -> WorkflowNet:
    """A forward chain with optional choice stages; the sync-labeled
    transitions appear in the given label order."""
    stages = [("sync", lab) for lab in sync_labels]
    n_plain = rng.randint(max(0, 1 - len(stages)), 2)
    for _ in range(n_plain):
        stages.insert(rng.randint(0, len(stages)), ("plain", None))

    places = [f"{name}_p0"]
    transitions = {}
    sync = {}
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
            transitions[t] = activity if (kind == "sync" or j == 0 or rng.random() < 0.5) \
                else f"{name}a{k}b"
            if kind == "sync":
                sync[t] = label
            arcs += [(src, t), (t, dst)]
            tcount += 1
    net = PetriNet(places, transitions.keys(), arcs)
    return WorkflowNet(net, places[0], places[-1], transitions, sync)


# ----------------------------------------------------------------------
# model-free random logs (for parser round-trips)


def random_log(rng: random.Random) -> EventLog:
    agents = [f"r{i}" for i in range(1, rng.randint(2, 5))]
    activities = ["a", "b", "c", "d", "e"]
    domains = ["D1", "D2"]

    def random_data():
        return Multiset((rng.choice(domains), rng.choice(["u", "v", 1, 2]))
                        for _ in range(rng.randint(0, 2)))

    def random_event():
        kind = rng.random()
        if kind < 0.5:
            return AgentEvent(rng.choice(activities), rng.choice(agents))
        if kind < 0.8:
            return SystemEvent(rng.choice(activities),
                               rng.sample(agents, rng.randint(0, min(2, len(agents)))),
                               random_data())
        participants = [(rng.choice(activities), r)
                        for r in rng.sample(agents, rng.randint(1, min(2, len(agents))))]
        return SyncEvent(rng.choice(activities), participants, random_data())

    traces = []
    for _ in range(rng.randint(0, 6)):
        trace = Trace(random_event() for _ in range(rng.randint(0, 6)))
        traces.extend([trace] * rng.randint(1, 3))
    return EventLog(traces)
