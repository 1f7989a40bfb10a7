"""Independent brute-force oracles.

Everything here re-derives semantics from first principles (its own firing,
its own binding enumeration, plain BFS) so that the library's replay search
can be checked against exhaustive enumeration. Nothing in this module calls
the library's search, enabling or firing code, except ``mono_moves``: the
monolithic replay's moves found by one ``apply_step`` per candidate step, the
reference for the moves ``conformance._moves`` fires, and
``step_specs_reference``, the simulator's step enumeration as it was before
its step table, which reads the element nets' enabling memo but checks every
pool combination with its own demand check (``reference_enabling_values``),
not the enabling rule the step table compiles. ``np_fire`` is the firing
reference that ``apply_step`` itself is checked against. ``payload_reference``
and ``cn_effect`` re-derive payload matching and a binding's arc effect from
the model's arcs alone, the references for the compiled matcher and arc
templates that both checking routes share.
"""

import itertools
from collections import Counter, deque

from npnconf.colored import Var
from npnconf.multiset import Multiset


# ----------------------------------------------------------------------
# workflow nets


def wf_enumerate_runs(w, max_len, max_states=10_000):
    """All activity sequences of length <= max_len leading from {source} to
    {sink}, by BFS over (marking, path). Returns (set of runs, state count)."""
    net = w.net
    initial = Multiset([w.source])
    final = Multiset([w.sink])
    runs = set()
    seen_markings = {initial}
    queue = deque([(initial, ())])
    while queue:
        m, path = queue.popleft()
        if m == final:
            runs.add(path)
        if len(path) == max_len:
            continue
        for t in sorted(net.transitions):
            if all(m.count(p) >= 1 for p in net.preset(t)):
                m2 = m - Multiset(net.preset(t)) + Multiset(net.postset(t))
                seen_markings.add(m2)
                if len(seen_markings) > max_states:
                    raise RuntimeError("state bound exceeded")
                queue.append((m2, path + (w.activity_label[t],)))
    return runs


def wf_reachable_markings(w, max_states=10_000):
    net = w.net
    initial = Multiset([w.source])
    seen = {initial}
    queue = deque([initial])
    while queue:
        m = queue.popleft()
        for t in net.transitions:
            if all(m.count(p) >= 1 for p in net.preset(t)):
                m2 = m - Multiset(net.preset(t)) + Multiset(net.postset(t))
                if m2 not in seen:
                    seen.add(m2)
                    if len(seen) > max_states:
                        raise RuntimeError("state bound exceeded")
                    queue.append(m2)
    return seen


# ----------------------------------------------------------------------
# colored nets


def cn_eval(expr, assignment):
    values = []
    for term in expr.terms:
        if isinstance(term, Var):
            values.append(assignment[term.name])
        else:
            values.append(term.value)
    return Multiset(values)


def cn_all_bindings(cn, t):
    """Full cartesian product over the domains of t's adjacent variables,
    as plain dicts."""
    names = set()
    for p in cn.net.preset(t):
        names.update(v.name for v in cn.arc_expr[(p, t)].terms if isinstance(v, Var))
    for p in cn.net.postset(t):
        names.update(v.name for v in cn.arc_expr[(t, p)].terms if isinstance(v, Var))
    names = sorted(names)
    pools = [sorted(cn.domains[cn.var_type[v]].values, key=repr) for v in names]
    return [dict(zip(names, combo)) for combo in itertools.product(*pools)]


def cn_enabled_bindings(cn, marking, t):
    found = []
    for assignment in cn_all_bindings(cn, t):
        if all(cn_eval(cn.arc_expr[(p, t)], assignment) <= marking.get(p)
               for p in cn.net.preset(t)):
            found.append(assignment)
    return found


def cn_fire(cn, marking, t, assignment):
    out = marking
    for p in cn.net.preset(t):
        out = out.set(p, out.get(p) - cn_eval(cn.arc_expr[(p, t)], assignment))
    for p in cn.net.postset(t):
        out = out.set(p, out.get(p) + cn_eval(cn.arc_expr[(t, p)], assignment))
    return out


def cn_effect(cn, t, assignment):
    """What firing ``t`` under ``assignment`` takes, as a {(place, value):
    count} dict, and its net change, the same without zero changes."""
    need, change = Counter(), Counter()
    for counter, arcs in ((need, [(p, (p, t)) for p in cn.net.preset(t)]),
                          (change, [(p, (t, p)) for p in cn.net.postset(t)])):
        for p, arc in arcs:
            counter.update((p, assignment[term.name] if isinstance(term, Var) else term.value)
                           for term in cn.arc_expr[arc].terms)
    change.subtract(need)
    return dict(need), {key: n for key, n in change.items() if n}


def cn_enumerate_runs(cn, max_len, max_states=10_000):
    """All (activity, payload-multiset) sequences of length <= max_len from
    the initial marking to some final marking. The payload of a step is the
    multiset of values bound to the transition's distinct variables."""
    runs = set()
    seen = {cn.initial_marking}
    queue = deque([(cn.initial_marking, ())])
    while queue:
        m, path = queue.popleft()
        if m in cn.final_markings:
            runs.add(path)
        if len(path) == max_len:
            continue
        for t in sorted(cn.net.transitions):
            for assignment in cn_enabled_bindings(cn, m, t):
                m2 = cn_fire(cn, m, t, assignment)
                seen.add(m2)
                if len(seen) > max_states:
                    raise RuntimeError("state bound exceeded")
                payload = Multiset(assignment.values())
                queue.append((m2, path + ((cn.activity_label[t], payload),)))
    return runs


# ----------------------------------------------------------------------
# nested nets: payload matching, by a plain depth-first search


def _system_variables(np, t):
    """The distinct variables on the arcs of system transition ``t``, sorted."""
    exprs = ([np.arc_expr[(p, t)] for p in np.system.preset(t)]
             + [np.arc_expr[(t, p)] for p in np.system.postset(t)])
    return sorted({term.name for e in exprs for term in e.terms if isinstance(term, Var)})


def _choices(variables, pool, fits, chosen=()):
    """Depth-first over ``variables`` in order: each way to give every
    variable one (element, multiplicity) entry of ``pool``, tried in pool
    order, no entry more often than its multiplicity, ``fits(var, element)``
    holding for each."""
    if len(chosen) == len(variables):
        yield chosen
        return
    var = variables[len(chosen)]
    for element, n in pool:
        if chosen.count(element) < n and fits(var, element):
            yield from _choices(variables, pool, fits, chosen + (element,))


def payload_reference(np, t, names, data):
    """The ways an event's agent ``names`` and tagged ``data`` bind the
    variables of system transition ``t``, each used exactly once: an agent
    binds a net variable of its class, a (domain, value) item a data
    variable typed by that declared domain holding the value. Values in
    sorted variable order; agent choices outer (names in repr order), data
    inner (items in canonical order)."""
    variables = _system_variables(np, t)
    net = [v for v in variables if np.var_type.get(v) in np.elements]
    data_vars = [v for v in variables if v not in net]
    agents = [(r, 1) for r in sorted(names, key=repr)]
    items = list(data.items())
    if len(net) != len(agents) or len(data_vars) != sum(n for _, n in items):
        return []

    def name_fits(var, r):
        return np.agents.get(r) == np.var_type[var]

    def data_fits(var, item):
        dom, value = item
        return (dom == np.var_type.get(var) and dom in np.domains
                and value in np.domains[dom].values)

    found = []
    for chosen_agents in _choices(net, agents, name_fits):
        for chosen_items in _choices(data_vars, items, data_fits):
            bound = dict(zip(net, chosen_agents))
            bound.update((v, value) for v, (_, value) in zip(data_vars, chosen_items))
            found.append(tuple(bound[v] for v in variables))
    return found


# ----------------------------------------------------------------------
# nested nets: the monolithic replay's moves, tried via apply_step


def mono_step_candidates(np, m, event, matches):
    """The steps of ``m`` that could record ``event``, in deterministic order:
    its matches (step specs) with agent names bound to their net tokens,
    keeping those whose inner transitions ``m`` enables. ``apply_step``
    judges the system binding."""
    from npnconf.colored import Binding
    from npnconf.events import AgentEvent, SystemEvent, event_agents
    from npnconf.nested import ElementStep, SyncStep, SystemStep

    if not matches:
        return []
    tokens = {}
    for r in event_agents(event):
        located = m.locate(r)
        if located is None:
            return []
        tokens[r] = located[1]
    if isinstance(event, AgentEvent):
        enabled = np.agent_class(event.agent)._table.enabled(tokens[event.agent].inner)
        return [ElementStep(agent, ti) for agent, ti in matches if ti in enabled]

    steps = []
    for t, values, *participants in matches:
        b = Binding((v, tokens[x] if np.is_net_var(v) else x)
                    for v, x in zip(np.transition_variables(t), values))
        if isinstance(event, SystemEvent):
            steps.append(SystemStep(t, b))
            continue
        label, (combo,) = np.system_sync[t], participants
        if all(ti in np.agent_class(r)._table.enabled(tokens[r].inner, label)
               for r, ti in combo):
            steps.append(SyncStep(t, b, combo))
    return steps


def mono_moves(np, m, event, matches):
    """The monolithic replay's moves of ``m`` for ``event`` as (step, next
    marking) pairs: each candidate step that ``apply_step`` accepts."""
    from npnconf.nested import apply_step
    from npnconf.nets import NotEnabledError

    for step in mono_step_candidates(np, m, event, matches):
        try:
            m2 = apply_step(np, m, step)
        except NotEnabledError:
            continue
        yield step, m2


# ----------------------------------------------------------------------
# nested nets: the simulator's step enumeration, rebuilt at every marking


def _reference_firable(np):
    """The system transitions the enumeration tries, sorted: none with a
    constant on a net-place arc or a net variable put twice."""
    table = np._table.system
    for t in sorted(np.system.transitions):
        put = [v for _, is_net, expr in table.outputs[t] if is_net for v in expr.variables()]
        if not any(is_net and expr.constants()
                   for _, is_net, expr in table.inputs[t] + table.outputs[t]) and (
                len(set(put)) == len(put)):
            yield t


def reference_pools(np, m, t, label=None):
    """Per variable of ``t``, the values it ranges over: the net tokens of
    its class in the input places its arcs read from (a scan of the whole
    marking, sorted by the agent's repr), or its data domain. Given a sync
    ``label``, only tokens whose inner marking enables a transition of that
    label stay."""
    table = np._table
    sources = table.sources[t]
    pools = []
    for v in table.system.variables[t]:
        if not np.is_net_var(v):
            pools.append(np.domains[np.var_type[v]].sorted_values())
            continue
        cls = np.var_type[v]
        enabled = np.elements[cls]._table.enabled
        places = sources.get(v, ())
        pool = []
        for place, tk in m._index.values():
            if place in places and np.agents.get(tk.agent) == cls and (
                    label is None or enabled(tk.inner, label)):
                pool.append(tk)
        pools.append(sorted(pool, key=lambda tk: repr(tk.agent)))
    return pools


def _demand_met(np, m, t, assignment):
    """Whether ``m`` holds every input arc's demand under ``assignment``: on a
    net place each demanded value is a net token residing there and none is
    demanded twice (agents are unique in a marking); on an atom place the
    demanded values lie in its multiset."""
    from npnconf.nested import NetToken

    for p in sorted(np.system.preset(t)):
        demand = [assignment[term.name] if isinstance(term, Var) else term.value
                  for term in np.arc_expr[(p, t)].terms]
        if p in np.net_place_type:
            if len(set(demand)) < len(demand) or not all(
                    isinstance(tk, NetToken) and m.locate(tk.agent) == (p, tk) for tk in demand):
                return False
        elif not Multiset(demand) <= m.atoms_at(p):
            return False
    return True


def reference_enabling_values(np, m, t, pools):
    """The combinations of ``pools``, in product order, whose demand ``m``
    holds, checked one combination at a time."""
    variables = np.transition_variables(t)
    return [values for values in itertools.product(*pools)
            if _demand_met(np, m, t, dict(zip(variables, values)))]


def step_specs_reference(np, m):
    """The enabled steps of ``m`` as specs, in ``enabled_steps`` order, with
    every agent order, place scan, demand check and option list rebuilt at
    each call."""
    from npnconf.nested import NetToken

    specs = []
    for agent, (_, token) in sorted(m._index.items()):
        w = np.elements.get(np.agents.get(agent))
        if w is not None:
            for ti in w._table.enabled(token.inner):
                specs.append((agent, ti))
    for t in _reference_firable(np):
        label = np.system_sync.get(t)
        for values in reference_enabling_values(np, m, t, reference_pools(np, m, t, label)):
            if label is None:
                specs.append((t, values))
                continue
            involved = sorted({v for v in values if isinstance(v, NetToken)},
                              key=lambda tk: repr(tk.agent))
            specs.extend((t, values, participants) for participants in itertools.product(*(
                [(tk.agent, ti) for ti in np.elements[np.agents[tk.agent]]._table.enabled(
                    tk.inner, label)] for tk in involved)))
    return specs


# ----------------------------------------------------------------------
# nested nets: syntactically possible steps, tried via apply_step


def np_possible_steps(np, marking):
    """Every syntactically well-shaped step against the given marking:
    all (agent, inner transition) pairs, all system transitions with every
    assignment of present net tokens and domain values to their variables,
    and every participant combination for labeled transitions."""
    from npnconf.nested import ElementStep, SyncStep, SystemStep

    steps = []
    tokens = [tk for _, tk in marking.iter_tokens()]
    for tk in tokens:
        element = np.elements.get(np.agents.get(tk.agent))
        if element is None:
            continue
        for ti in sorted(element.net.transitions):
            steps.append(ElementStep(tk.agent, ti))

    for t in sorted(np.system.transitions):
        variables = np.transition_variables(t)
        pools = []
        for v in variables:
            if np.is_net_var(v):
                pools.append(tokens)
            else:
                pools.append(sorted(np.domains[np.var_type[v]].values, key=repr))
        for combo in itertools.product(*pools):
            from npnconf.colored import Binding

            b = Binding(zip(variables, combo))
            if np.system_sync.get(t) is None:
                steps.append(SystemStep(t, b))
            else:
                bound = {val.agent for v, val in b.items if np.is_net_var(v)}
                inner_pools = []
                for agent in sorted(bound):
                    element = np.elements.get(np.agents.get(agent))
                    if element is None:
                        inner_pools = None
                        break
                    inner_pools.append(
                        [(agent, ti) for ti in sorted(element.net.transitions)])
                if inner_pools is None:
                    continue
                for participants in itertools.product(*inner_pools):
                    steps.append(SyncStep(t, b, participants))
    return steps


def _wf_fire(w, inner, ti):
    """``ti`` fired in the inner marking ``inner``, or None if not enabled."""
    if not all(inner.count(p) >= 1 for p in w.net.preset(ti)):
        return None
    return inner - Multiset(w.net.preset(ti)) + Multiset(w.net.postset(ti))


def np_fire(np, m, step):
    """The marking a step leads to from ``m`` by the three step kinds, or
    None when the step is not enabled. An element step fires an unlabeled
    inner transition of one net token in place. A system or sync step binds
    every variable of its transition well typed (net variables to net tokens
    of their class, data variables to domain values); each input arc's
    value multiset must lie in its place; a sync step names one inner
    transition carrying the transition's sync label per agent its input
    arcs take, each fires first, and the output arcs put the updated
    tokens. Only net tokens go to net places, and an agent occurs at most
    once in the result."""
    from npnconf.nested import ElementStep, NetToken, NpMarking, SyncStep

    places = {p: Multiset(tk for q, tk in m.iter_tokens() if q == p)
              for p in np.net_place_type}
    places.update(m.atoms)
    if isinstance(step, ElementStep):
        found = [(p, tk) for p, tk in m.iter_tokens() if tk.agent == step.agent]
        if not found:
            return None
        (place, token), = found
        w = np.elements[np.agents[step.agent]]
        inner = _wf_fire(w, token.inner, step.transition)
        if w.sync_label.get(step.transition) is not None or inner is None:
            return None
        updated = {token: NetToken(token.agent, inner)}
        places[place] = places[place] - Multiset([token]) + Multiset([updated[token]])
    else:
        t = step.transition
        label = np.system_sync.get(t)
        if t not in np.system.transitions or (label is None) == isinstance(step, SyncStep):
            return None
        b = step.binding.as_dict()
        inputs = {p: np.arc_expr[(p, t)] for p in np.system.preset(t)}
        outputs = {p: np.arc_expr[(t, p)] for p in np.system.postset(t)}
        variables = {term.name for expr in [*inputs.values(), *outputs.values()]
                     for term in expr.terms if isinstance(term, Var)}
        for v in variables:
            if v not in b:
                return None
            if np.is_net_var(v):
                if not isinstance(b[v], NetToken) or np.agents.get(b[v].agent) != np.var_type[v]:
                    return None
            elif b[v] not in np.domains[np.var_type[v]].values:
                return None
        for p, expr in inputs.items():
            demand = cn_eval(expr, b)
            if not demand <= places.get(p, Multiset()):
                return None
            places[p] = places[p] - demand
        updated = {}
        if label is not None:
            taken = {b[term.name] for expr in inputs.values() for term in expr.terms
                     if isinstance(term, Var) and np.is_net_var(term.name)}
            agents = [r for r, _ in step.participants]
            if len(set(agents)) != len(agents) or set(agents) != {tk.agent for tk in taken}:
                return None
            for tk in taken:
                ti = dict(step.participants)[tk.agent]
                w = np.elements[np.agents[tk.agent]]
                inner = _wf_fire(w, tk.inner, ti)
                if w.sync_label.get(ti) != label or inner is None:
                    return None
                updated[tk] = NetToken(tk.agent, inner)
        for p, expr in outputs.items():
            produced = [updated.get(v, v) for v in cn_eval(expr, b)]
            if p in np.net_place_type and not all(isinstance(v, NetToken) for v in produced):
                return None
            places[p] = places.get(p, Multiset()) + Multiset(produced)
    tokens = [tk for p in np.net_place_type for tk in places[p]]
    if len({tk.agent for tk in tokens}) != len(tokens):
        return None
    return NpMarking({p: list(places[p]) for p in np.net_place_type},
                     {p: ms for p, ms in places.items() if p not in np.net_place_type})


# ----------------------------------------------------------------------
# projection


def project_trace_agent(trace, agent):
    """One agent's projection by its own scan of the trace: the agent's own
    events keep their activity, a sync event where it participates gives its
    activity there, and every other event is dropped."""
    from npnconf.events import AgentEvent, SyncEvent

    out = []
    for e in trace:
        if isinstance(e, AgentEvent) and e.agent == agent:
            out.append(e.activity)
        elif isinstance(e, SyncEvent):
            for a_i, r_i in e.participants:
                if r_i == agent:
                    out.append(a_i)
                    break
    return tuple(out)
