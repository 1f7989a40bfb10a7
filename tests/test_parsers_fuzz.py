"""Parsers on arbitrary JSON raise only their documented error types.

Documents are drawn two ways: any JSON value at all, and a valid document
(the worked example's model, log and projected system log) with one or two
of its values, at any depth, replaced by any JSON value. The second way gets
the parsers past the header into every nested structure.
"""

import copy
import json

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from npnconf.events import LogParseError, parse_log
from npnconf.model_io import ModelFormatError, ModelValidationError, loads_model
from npnconf.projection import parse_system_log, project_log, serialize_system_log

from conftest import FIXTURES

FUZZ = settings(max_examples=400, deadline=None,
                suppress_health_check=[HealthCheck.too_slow])

NAMES = st.sampled_from(["c_i", "s_p0", "r1", "customer", "x", "a"])
JSON = st.recursive(
    st.none() | st.booleans() | st.integers(-2, 3) | st.floats(allow_nan=False)
    | NAMES | st.text(max_size=3),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(
        NAMES | st.text(max_size=3), inner, max_size=3),
    max_leaves=6)


def _paths(doc, prefix=()):
    yield prefix
    children = doc.items() if isinstance(doc, dict) else (
        enumerate(doc) if isinstance(doc, list) else ())
    for key, value in children:
        yield from _paths(value, prefix + (key,))


def _replaced(doc, edits):
    doc = copy.deepcopy(doc)
    for path, value in edits:
        if not path:
            return value
        node = doc
        try:
            for key in path[:-1]:
                node = node[key]
            node[path[-1]] = value
        except (KeyError, IndexError, TypeError):
            pass  # an earlier edit removed this path
    return doc


def documents(base):
    edits = st.lists(st.tuples(st.sampled_from(list(_paths(base))), JSON),
                     min_size=1, max_size=2)
    return JSON | edits.map(lambda e: _replaced(base, e))


MODEL = json.loads((FIXTURES / "assistant_model.json").read_text())
LOG = json.loads((FIXTURES / "assistant_log.json").read_text())
SYSTEM_LOG = json.loads(serialize_system_log(project_log(
    parse_log(json.dumps(LOG)), {r: "customer" for r in MODEL["agents"]}).system_log))


@FUZZ
@given(documents(LOG))
def test_parse_log_raises_only_log_parse_error(doc):
    try:
        parse_log(json.dumps(doc))
    except LogParseError:
        pass


@FUZZ
@given(documents(SYSTEM_LOG))
def test_parse_system_log_raises_only_log_parse_error(doc):
    try:
        parse_system_log(json.dumps(doc))
    except LogParseError:
        pass


@FUZZ
@given(documents(MODEL))
def test_loads_model_raises_only_model_errors(doc):
    try:
        loads_model(json.dumps(doc))
    except (ModelFormatError, ModelValidationError):
        pass
