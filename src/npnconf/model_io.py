"""Reading and writing nested-net model documents.

A model document is one JSON object carrying domains, element nets, the
system net (typed places, transitions with variable declarations, arcs with
expression strings), the agent roster, the initial marking, and the declared
final markings. Loading validates referential integrity, well-formedness,
and conservativeness unless asked not to.
"""

from __future__ import annotations

from typing import Dict, List

from .colored import Domain, ExprSyntaxError, parse_arc_expr
from .events import canonical_dumps, read_json
from .multiset import Multiset
from .nested import (NestedNet, NetToken, NpMarking, RosterError,
                     check_conservative, validate_nested_net)
from .nets import NetStructureError, PetriNet, WorkflowNet

MODEL_SCHEMA = "npnet/1"


class ModelFormatError(ValueError):
    """The model document is syntactically or referentially malformed."""


class ModelValidationError(ValueError):
    """The model parsed but violates well-formedness or conservativeness."""

    def __init__(self, violations: List[str]):
        self.violations = list(violations)
        super().__init__("model is not well-formed:\n  " + "\n  ".join(violations))


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise ModelFormatError(message)


def _require_unique(ids: List, what: str) -> None:
    seen = set()
    for x in ids:
        _require(x not in seen, f"{what} {x!r} declared twice")
        seen.add(x)


def _unique_keys(pairs: List) -> Dict:
    """Build a JSON object, refusing a key it repeats (``json`` keeps the last)."""
    obj = dict(pairs)
    if len(obj) < len(pairs):
        _require_unique([key for key, _ in pairs], "object key")
    return obj


def _parse_marking(raw, where: str, inners: Dict[Multiset, Multiset]) -> NpMarking:
    _require(isinstance(raw, dict), f"{where} must be an object")
    raw_net, raw_atoms = raw.get("net_places", {}), raw.get("atom_places", {})
    _require(isinstance(raw_net, dict) and isinstance(raw_atoms, dict),
             f"{where}: 'net_places' and 'atom_places' must be objects")
    net_tokens: Dict[str, List[NetToken]] = {}
    for place, tokens in raw_net.items():
        _require(isinstance(tokens, list), f"{where}: net place {place!r} must hold a list")
        parsed = []
        for tok in tokens:
            _require(isinstance(tok, dict) and isinstance(tok.get("agent"), str)
                     and isinstance(tok.get("marking"), dict),
                     f"{where}: bad net token {tok!r} in {place!r}")
            inner = tok["marking"]
            _require(all(isinstance(n, int) and not isinstance(n, bool) and n >= 0
                         for n in inner.values()),
                     f"{where}: bad inner marking for agent {tok['agent']!r}")
            inner = Multiset.from_counts(inner)
            parsed.append(NetToken(tok["agent"], inners.setdefault(inner, inner)))
        net_tokens[place] = parsed
    atoms: Dict[str, Multiset] = {}
    for place, values in raw_atoms.items():
        _require(isinstance(values, list), f"{where}: atom place {place!r} must hold a list")
        _require(all(isinstance(v, (str, int)) and not isinstance(v, bool) for v in values),
                 f"{where}: atom values must be strings or integers")
        atoms[place] = Multiset(values)
    try:
        return NpMarking(net_tokens, atoms)
    except RosterError as exc:
        raise ModelFormatError(f"{where}: {exc}") from exc


def _marking_to_json(m: NpMarking) -> Dict:
    return {
        "net_places": {
            place: [{"agent": tk.agent, "marking": dict(tk.inner.items())}
                    for tk in tokens]
            for place, tokens in m.net_tokens
        },
        "atom_places": {place: list(values) for place, values in m.atoms},
    }


def _parse_labels(raw, where: str, what: str, activity: Dict[str, str],
                  sync: Dict[str, str]) -> str:
    """Check one transition's id, activity and sync label, record its labels in
    ``activity`` and ``sync`` and return its id; messages start with ``where``."""
    _require(isinstance(raw, dict) and isinstance(raw.get("id"), str)
             and isinstance(raw.get("activity"), str), f"{where}bad {what} {raw!r}")
    activity[raw["id"]] = raw["activity"]
    if raw.get("sync") is not None:
        _require(isinstance(raw["sync"], str), f"{where}bad sync label on {raw['id']!r}")
        sync[raw["id"]] = raw["sync"]
    return raw["id"]


def _parse_element_net(name: str, raw) -> WorkflowNet:
    _require(isinstance(raw, dict), f"element net {name!r} must be an object")
    places = raw.get("places")
    _require(isinstance(places, list) and all(isinstance(p, str) for p in places),
             f"element net {name!r}: 'places' must be a list of ids")
    transitions = raw.get("transitions")
    _require(isinstance(transitions, list), f"element net {name!r}: 'transitions' missing")
    activity: Dict[str, str] = {}
    sync: Dict[str, str] = {}
    ids = [_parse_labels(t, f"element net {name!r}: ", "transition", activity, sync)
           for t in transitions]
    arcs = raw.get("arcs")
    _require(isinstance(arcs, list) and all(
        isinstance(a, list) and len(a) == 2 and all(isinstance(n, str) for n in a)
        for a in arcs),
        f"element net {name!r}: 'arcs' must be a list of [from, to] pairs")
    _require(isinstance(raw.get("source"), str) and isinstance(raw.get("sink"), str),
             f"element net {name!r}: 'source' and 'sink' must be place ids")
    _require_unique(places, f"element net {name!r}: place")
    _require_unique(ids, f"element net {name!r}: transition")
    try:
        net = PetriNet(places, ids, [tuple(a) for a in arcs])
        return WorkflowNet(net, raw.get("source"), raw.get("sink"), activity, sync)
    except NetStructureError as exc:
        raise ModelFormatError(f"element net {name!r}: {exc}") from exc


def loads_model(data: bytes | str, validate: bool = True) -> NestedNet:
    """Parse a model document; with ``validate`` (the default), reject models
    that fail well-formedness or conservativeness checks."""
    doc = read_json(data, ModelFormatError, _unique_keys)
    _require(isinstance(doc, dict), "top level must be an object")
    _require(doc.get("schema") == MODEL_SCHEMA,
             f"unsupported schema {doc.get('schema')!r} (expected {MODEL_SCHEMA!r})")

    raw_domains = doc.get("domains", {})
    _require(isinstance(raw_domains, dict), "'domains' must be an object")
    domains = {}
    for name, values in raw_domains.items():
        _require(isinstance(values, list) and values,
                 f"domain {name!r} must be a nonempty list of values")
        _require(all(isinstance(v, (str, int)) and not isinstance(v, bool) for v in values),
                 f"domain {name!r} values must be strings or integers")
        domains[name] = Domain(name, values)

    raw_elements = doc.get("element_nets", {})
    _require(isinstance(raw_elements, dict) and raw_elements,
             "'element_nets' must be a nonempty object")
    elements = {name: _parse_element_net(name, raw)
                for name, raw in raw_elements.items()}

    raw_system = doc.get("system_net")
    _require(isinstance(raw_system, dict), "'system_net' must be an object")
    net_place_type: Dict[str, frozenset] = {}
    atom_place_type: Dict[str, str] = {}
    place_ids = []
    raw_places = raw_system.get("places", [])
    raw_transitions = raw_system.get("transitions", [])
    raw_arcs = raw_system.get("arcs", [])
    _require(all(isinstance(x, list) for x in (raw_places, raw_transitions, raw_arcs)),
             "system net 'places', 'transitions' and 'arcs' must be lists")
    for p in raw_places:
        _require(isinstance(p, dict) and isinstance(p.get("id"), str)
                 and p.get("kind") in ("net", "atom"),
                 f"bad system place {p!r}")
        place_ids.append(p["id"])
        if p["kind"] == "net":
            _require(isinstance(p.get("type"), list) and p["type"]
                     and all(isinstance(e, str) for e in p["type"]),
                     f"net place {p['id']!r} needs a nonempty 'type' list")
            net_place_type[p["id"]] = frozenset(p["type"])
        else:
            _require(isinstance(p.get("type"), str),
                     f"atom place {p['id']!r} needs a domain name 'type'")
            atom_place_type[p["id"]] = p["type"]

    system_activity: Dict[str, str] = {}
    system_sync: Dict[str, str] = {}
    var_type: Dict[str, str] = {}
    transition_ids = []
    for t in raw_transitions:
        transition_ids.append(
            _parse_labels(t, "", "system transition", system_activity, system_sync))
        variables = t.get("variables", {})
        _require(isinstance(variables, dict), f"bad variable declarations on {t['id']!r}")
        for var, vt in variables.items():
            _require(isinstance(var, str) and isinstance(vt, str),
                     f"bad variable declaration on {t['id']!r}")
            if var in var_type and var_type[var] != vt:
                raise ModelFormatError(
                    f"variable {var!r} declared with conflicting types "
                    f"{var_type[var]!r} and {vt!r}")
            var_type[var] = vt

    arc_expr = {}
    arcs = []
    for a in raw_arcs:
        _require(isinstance(a, dict) and isinstance(a.get("from"), str)
                 and isinstance(a.get("to"), str) and isinstance(a.get("expr"), str),
                 f"bad system arc {a!r}")
        arc = (a["from"], a["to"])
        try:
            arc_expr[arc] = parse_arc_expr(a["expr"])
        except ExprSyntaxError as exc:
            raise ModelFormatError(f"arc {arc!r}: {exc}") from exc
        arcs.append(arc)

    _require_unique(place_ids, "system net: place")
    _require_unique(transition_ids, "system net: transition")
    _require_unique(arcs, "system net: arc")
    try:
        system = PetriNet(place_ids, transition_ids, arcs)
    except NetStructureError as exc:
        raise ModelFormatError(f"system net: {exc}") from exc

    agents = doc.get("agents", {})
    _require(isinstance(agents, dict)
             and all(isinstance(r, str) and isinstance(c, str)
                     for r, c in agents.items()),
             "'agents' must map agent names to element-net names")

    inners: Dict[Multiset, Multiset] = {}  # one object per distinct inner marking
    initial = _parse_marking(doc.get("initial_marking", {}), "initial_marking", inners)
    raw_finals = doc.get("final_markings", [])
    _require(isinstance(raw_finals, list) and raw_finals,
             "'final_markings' must be a nonempty list")
    finals = [_parse_marking(raw, f"final_markings[{i}]", inners)
              for i, raw in enumerate(raw_finals)]

    np = NestedNet(
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
        final_markings=finals,
    )
    if validate:
        violations = validate_nested_net(np) + check_conservative(np)
        if violations:
            raise ModelValidationError(violations)
    return np


def load_model(path, validate: bool = True) -> NestedNet:
    with open(path, "rb") as fh:
        return loads_model(fh.read(), validate=validate)


def dumps_model(np: NestedNet) -> bytes:
    """Canonical serialization; re-emitting an unchanged model is byte-stable."""
    doc = {
        "schema": MODEL_SCHEMA,
        "domains": {name: sorted(dom.values, key=lambda v: (str(type(v)), str(v)))
                    for name, dom in sorted(np.domains.items())},
        "element_nets": {
            name: {
                "places": sorted(w.net.places),
                "source": w.source,
                "sink": w.sink,
                "transitions": [
                    {"id": t, "activity": w.activity_label[t],
                     **({"sync": w.sync_label[t]} if t in w.sync_label else {})}
                    for t in sorted(w.net.transitions)
                ],
                "arcs": [list(a) for a in sorted(w.net.arcs)],
            }
            for name, w in sorted(np.elements.items())
        },
        "system_net": {
            "places": [
                {"id": p, "kind": "net", "type": sorted(np.net_place_type[p])}
                if p in np.net_place_type else
                {"id": p, "kind": "atom", "type": np.atom_place_type[p]}
                for p in sorted(np.system.places)
            ],
            "transitions": [
                {"id": t, "activity": np.system_activity[t],
                 **({"sync": np.system_sync[t]} if t in np.system_sync else {}),
                 "variables": {v: np.var_type[v] for v in np.transition_variables(t)}}
                for t in sorted(np.system.transitions)
            ],
            "arcs": [
                {"from": src, "to": dst, "expr": str(np.arc_expr[(src, dst)])}
                for src, dst in sorted(np.system.arcs)
            ],
        },
        "agents": dict(sorted(np.agents.items())),
        "initial_marking": _marking_to_json(np.initial_marking),
        "final_markings": [_marking_to_json(mf) for mf in
                           sorted(np.final_markings,
                                  key=lambda m: repr(m))],
    }
    return canonical_dumps(doc)
