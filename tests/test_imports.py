import ast
import builtins
import sys
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "npnconf"


def _used_names(tree: ast.Module):
    """Every name a module reads, including names inside string annotations."""
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            try:
                expr = ast.parse(node.value, mode="eval")
            except SyntaxError:
                continue
            used.update(n.id for n in ast.walk(expr) if isinstance(n, ast.Name))
    return used


def _imported_names(tree: ast.Module):
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.asname or alias.name.split(".")[0]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield alias.asname or alias.name


@pytest.mark.parametrize("path", sorted(p for p in PACKAGE.glob("*.py")
                                        if p.name != "__init__.py"),
                         ids=lambda p: p.name)
def test_module_uses_every_name_it_imports(path):
    # deleting code tends to leave its imports behind; __init__ re-exports
    tree = ast.parse(path.read_text(), filename=str(path))
    used = _used_names(tree)
    assert [name for name in _imported_names(tree) if name not in used] == []


def _private_definitions(tree: ast.Module):
    """The private names a module defines at top level."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, ast.Assign):
            names = [t.id for t in node.targets if isinstance(t, ast.Name)]
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            names = [node.target.id]
        else:
            continue
        yield from (n for n in names if n.startswith("_") and not n.startswith("__"))


def _read_names(tree: ast.Module):
    """Every name a module loads, including names inside string annotations."""
    read = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            read.add(node.id)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            try:
                expr = ast.parse(node.value, mode="eval")
            except SyntaxError:
                continue
            read.update(n.id for n in ast.walk(expr) if isinstance(n, ast.Name))
    return read


def test_package_reads_every_private_name_it_defines():
    # deleting code tends to leave its private helpers behind; a private
    # name is read somewhere in the package, not only assigned
    trees = {p.name: ast.parse(p.read_text(), filename=str(p))
             for p in sorted(PACKAGE.glob("*.py"))}
    read = set().union(*map(_read_names, trees.values()))
    assert [(module, name) for module, tree in trees.items()
            for name in _private_definitions(tree) if name not in read] == []


def test_package_imports_only_the_standard_library():
    # the package declares no dependencies: every absolute import names a
    # standard-library module or npnconf itself
    imported = set()
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Import):
                imported.update(alias.name.split(".")[0] for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                imported.add(node.module.split(".")[0])
    assert imported
    assert sorted(imported - set(sys.stdlib_module_names) - {"npnconf"}) == []


@pytest.mark.parametrize("module, names", [("conformance.py", {"apply_step", "_spec_of"}),
                                           ("simulate.py", {"apply_step"})])
def test_one_firing_routine(module, names):
    # the replay and the simulator evaluate arcs through nested._spec_delta
    # and move markings by its deltas, not through the public gate, its
    # parts or _fire_spec, so a second firing path cannot return unnoticed
    tree = ast.parse((PACKAGE / module).read_text(), filename=module)
    imported = set(_imported_names(tree))
    assert "_spec_delta" in imported
    assert (names | {"_fire_spec"}).isdisjoint(imported)


def _parse(module: str) -> ast.Module:
    return ast.parse((PACKAGE / module).read_text(), filename=module)


def test_one_firing_entry():
    # _spec_delta is the one routine that evaluates a step's arcs, and
    # _fire_spec the one entry that fires a step by it: the replay and the
    # simulator reach no firing routine behind them, no element-step or
    # binding firing lives beside them, and the replay judges no
    # enabledness of its own
    for module in ("conformance.py", "simulate.py"):
        assert {"_fire_binding", "_fire_element"}.isdisjoint(_imported_names(_parse(module)))
    nested = _parse("nested.py")
    functions = {node.name: node for node in nested.body if isinstance(node, ast.FunctionDef)}
    assert {"_fire_binding", "_fire_element"}.isdisjoint(functions)
    assert "_spec_delta" in {node.func.id for node in ast.walk(functions["_fire_spec"])
                             if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)}
    moves, = (node for node in _parse("conformance.py").body
              if isinstance(node, ast.FunctionDef) and node.name == "_moves")
    called = {node.func.attr if isinstance(node.func, ast.Attribute) else
              getattr(node.func, "id", None)
              for node in ast.walk(moves) if isinstance(node, ast.Call)}
    assert "enabled" not in called


def test_matches_are_specs():
    # the match table holds step specs, built once per event, so the replay
    # does only the marking-dependent work: no second step format in
    # events.py, and no sort or participant product per expansion in _moves
    events = _parse("events.py")
    assert "Match" not in {target.id for node in events.body if isinstance(node, ast.Assign)
                           for target in node.targets if isinstance(target, ast.Name)}
    conformance = _parse("conformance.py")
    assert "itertools" not in _imported_names(conformance)
    moves, = (node for node in conformance.body
              if isinstance(node, ast.FunctionDef) and node.name == "_moves")
    called = {node.func.attr if isinstance(node.func, ast.Attribute) else
              getattr(node.func, "id", None)
              for node in ast.walk(moves) if isinstance(node, ast.Call)}
    assert {"sorted", "sort", "product"}.isdisjoint(called)


def test_one_pool_builder():
    # system_bindings and the simulator's step enumeration read their pools
    # through the step table's plan, so a second pool builder cannot return
    # unnoticed
    functions = {node.name: node for node in _parse("nested.py").body
                 if isinstance(node, ast.FunctionDef)}
    assert "_pools" not in functions
    for name in ("system_bindings", "_step_specs"):
        called = {node.func.attr for node in ast.walk(functions[name])
                  if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)}
        assert {"groups", "pools"} <= called


def test_single_token_segments_come_from_the_token_memo():
    # _step_specs reads the segments of single-token transitions off the
    # rows of the step table's row builder (_NetTable.rows_of), which builds
    # them from each net token's memo entry (_NetTable.options_of); neither
    # builds a net token of its own, and the step table, its memo entries and
    # its rows name a whole marking only as a method argument, so no memo
    # keyed by marking can return unnoticed
    body = _parse("nested.py").body
    functions = {node.name: node for node in body if isinstance(node, ast.FunctionDef)}
    table = next(node for node in body if isinstance(node, ast.ClassDef)
                 and node.name == "_NetTable")
    methods = {node.name: node for node in table.body if isinstance(node, ast.FunctionDef)}

    def called(function):
        return {node.func.attr if isinstance(node.func, ast.Attribute) else
                getattr(node.func, "id", None)
                for node in ast.walk(function) if isinstance(node, ast.Call)}

    assert "rows_of" in called(functions["_step_specs"])
    assert "options_of" in called(methods["rows_of"])
    assert "NetToken" not in called(functions["_step_specs"]) | called(methods["rows_of"])
    entries = [node.value for node in body if isinstance(node, ast.Assign)
               and [getattr(t, "id", None) for t in node.targets] in (["_TokenEntry"], ["_Row"])]
    assert len(entries) == 2
    arguments = {id(name) for arg in ast.walk(table) if isinstance(arg, ast.arg)
                 and arg.annotation is not None for name in ast.walk(arg.annotation)}
    assert [name for node in (table, *entries) for name in ast.walk(node)
            if isinstance(name, ast.Name) and name.id == "NpMarking"
            and id(name) not in arguments] == []
    assert any(isinstance(name, ast.Name) and name.id == "NpMarking" for name in ast.walk(table))


def test_one_model_table():
    # a model compiles into one table, NestedNet._table, which the checks
    # and the simulator's step enumeration share, so a second per-model
    # table cannot return unnoticed
    body = _parse("nested.py").body
    classes = {node.name: node for node in body if isinstance(node, ast.ClassDef)}
    assert [name for name in classes if name.endswith("Table")] == ["_NetTable"]
    cached = [node.name for node in classes["NestedNet"].body
              if isinstance(node, ast.FunctionDef)
              and any(getattr(d, "id", None) == "cached_property" for d in node.decorator_list)]
    assert cached == ["_table"]


def test_one_projection_pass():
    # check_compositional projects through projection._project_traces, the
    # pass project_log aggregates, so a second projection loop cannot
    # return unnoticed
    tree = ast.parse((PACKAGE / "conformance.py").read_text(), filename="conformance.py")
    assert {"project_trace_system", "project_trace_agents"}.isdisjoint(_imported_names(tree))


def _module_bindings(tree: ast.Module):
    """The names a module binds at its top level (not inside a def or class)."""
    bound = set(_imported_names(tree))
    todo = list(tree.body)
    while todo:
        node = todo.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            bound.add(node.name)
        elif not isinstance(node, (ast.Import, ast.ImportFrom)):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
                bound.add(node.id)
            todo.extend(ast.iter_child_nodes(node))
    return bound


def _annotation_names(annotation: ast.expr):
    """The names an annotation reads, those inside string annotations too."""
    for node in ast.walk(annotation):
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            yield from _annotation_names(ast.parse(node.value, mode="eval"))


def test_annotations_name_bound_names():
    # annotations are never evaluated (postponed evaluation), so a name
    # missing from the imports stays hidden until something resolves hints
    unbound, seen = [], 0
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        bound = _module_bindings(tree) | set(dir(builtins))
        for node in ast.walk(tree):
            if isinstance(node, ast.arg):
                annotation = node.annotation
            elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                annotation = node.returns
            elif isinstance(node, ast.AnnAssign):
                annotation = node.annotation
            else:
                continue
            if annotation is not None:
                seen += 1
                unbound.extend((path.name, name) for name in _annotation_names(annotation)
                               if name not in bound)
    assert seen > 100
    assert unbound == []


def _constants_by_function(tree: ast.Module):
    """(top-level function name or None, value) for every string or bytes
    constant of a module, f-string parts included."""
    for node in tree.body:
        owner = node.name if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) else None
        for sub in ast.walk(node):
            if isinstance(sub, ast.Constant) and isinstance(sub.value, (str, bytes)):
                yield owner, sub.value


def test_one_list_splicer():
    # the log writers and the report emitter put their pre-rendered entries
    # into the empty top-level "traces" list through events._splice_traces,
    # so a second hand-rolled splice cannot return unnoticed
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        found.extend((path.name, owner) for owner, value in _constants_by_function(tree)
                     if ('"traces": []' if isinstance(value, str) else b'"traces": []') in value)
    assert found == [("events.py", "_splice_traces")]


def test_cli_main_maps_no_input_error():
    # _read_model and _read_log map unreadable and malformed inputs to exit
    # codes where the inputs are read; main catches none of those errors
    tree = ast.parse((PACKAGE / "cli.py").read_text(), filename="cli.py")
    main = next(node for node in tree.body
                if isinstance(node, ast.FunctionDef) and node.name == "main")
    caught = {name.id for handler in ast.walk(main) if isinstance(handler, ast.ExceptHandler)
              and handler.type is not None for name in ast.walk(handler.type)
              if isinstance(name, ast.Name)}
    assert caught
    assert caught.isdisjoint({"LogParseError", "ModelFormatError", "ModelValidationError"})


def _hash_cache_writes(tree: ast.Module):
    """Lines where a module writes ``_hash`` as a lazy cache: started empty
    (None), or filled inside a ``__hash__`` method."""
    def writes(root):
        for node in ast.walk(root):
            if isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                if any(getattr(t, "id", getattr(t, "attr", None)) == "_hash" for t in targets):
                    yield node, node.value
            elif (isinstance(node, ast.Call) and len(node.args) == 3
                  and getattr(node.args[1], "value", None) == "_hash"):
                yield node, node.args[2]

    in_hash = {id(node) for f in ast.walk(tree)
               if isinstance(f, ast.FunctionDef) and f.name == "__hash__"
               for node, _ in writes(f)}
    return [node.lineno for node, value in writes(tree)
            if id(node) in in_hash or isinstance(value, ast.Constant) and value.value is None]


def test_one_value_cache():
    # events, traces and net tokens compute their hash and repr once through
    # multiset._Value, so a second hand-written cache cannot return
    # unnoticed; Multiset keeps its own, and NpMarking and ColoredMarking
    # store a hash built with the marking, which is no lazy cache
    from npnconf import events, multiset, nested

    values = (nested.NetToken, events.Trace, events.AgentEvent, events.SystemEvent,
              events.SyncEvent)
    assert [cls.__bases__ for cls in values] == [(multiset._Value,)] * len(values)
    classes = {node.name: node for module in ("events.py", "nested.py")
               for node in _parse(module).body if isinstance(node, ast.ClassDef)}
    assert [(cls.__name__, node.name) for cls in values for node in classes[cls.__name__].body
            if isinstance(node, ast.FunctionDef)
            and node.name in ("__hash__", "__reduce__")] == []
    writes = {path.name: _hash_cache_writes(_parse(path.name))
              for path in sorted(PACKAGE.glob("*.py"))}
    assert writes.pop("multiset.py")
    assert {module: lines for module, lines in writes.items() if lines} == {}
