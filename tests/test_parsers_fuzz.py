"""Parsers on arbitrary JSON raise only their documented error types.

Documents are drawn two ways: any JSON value at all, and a valid document
(the worked example's model, log and projected system log) with one or two
of its values, at any depth, replaced by any JSON value. The second way gets
the parsers past the header into every nested structure. Inputs the JSON
reader itself rejects are drawn too: arbitrary bytes, a valid document with
bytes that are not UTF-8 spliced in, and a valid document with one value
replaced by nesting around the recursion limit or an integer literal of
more than 4300 digits.
"""

import copy
import json
import sys

import pytest
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


PARSERS = [(parse_log, LOG, (LogParseError,)),
           (parse_system_log, SYSTEM_LOG, (LogParseError,)),
           (loads_model, MODEL, (ModelFormatError, ModelValidationError))]
PARSER_IDS = ["parse_log", "parse_system_log", "loads_model"]
READER = settings(max_examples=150, deadline=None,
                  suppress_health_check=[HealthCheck.too_slow])


def _spliced_bytes(base):
    """A valid document's UTF-8 text with a few arbitrary bytes inserted."""
    text = json.dumps(base, ensure_ascii=False).encode("utf-8")
    return st.tuples(st.integers(0, len(text)), st.binary(min_size=1, max_size=3)).map(
        lambda cut: text[:cut[0]] + cut[1] + text[cut[0]:])


def _depths():
    limit = sys.getrecursionlimit()
    return [limit - 200, limit - 20, limit, limit + 20, 100000]


RAW_VALUES = st.sampled_from(
    ["[" * d + "]" * d for d in _depths()] + ["[" * 100000, '{"a":' * 5000]
    + ["1" * 4300, "7" * 4301, "-" + "9" * 5000, "1" * 4301 + ".5"])


def _raw_documents(base):
    """A valid document with the value at one path replaced by raw JSON text."""
    mark = "\0RAW"
    return st.tuples(st.sampled_from(list(_paths(base))), RAW_VALUES).map(
        lambda e: json.dumps(_replaced(base, [(e[0], mark)])).replace(
            json.dumps(mark), e[1]))


@pytest.mark.parametrize("parse, base, errors", PARSERS, ids=PARSER_IDS)
def test_parsers_on_bytes_raise_only_documented_errors(parse, base, errors):
    @READER
    @given(st.binary() | _spliced_bytes(base))
    def check(data):
        try:
            parse(data)
        except errors:
            pass

    check()


@pytest.mark.parametrize("parse, base, errors", PARSERS, ids=PARSER_IDS)
def test_parsers_on_deep_nesting_and_long_integers_raise_only_documented_errors(
        parse, base, errors):
    @READER
    @given(_raw_documents(base))
    def check(text):
        for data in (text, text.encode("utf-8")):
            try:
                parse(data)
            except errors:
                pass

    check()
