from __future__ import annotations

import dataclasses
import json

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from treeconn import (
    GraphFormatError,
    ReducedInstance,
    TerminalSet,
    parse_certificate,
    parse_graph,
    path_graph,
)
from treeconn.reductions import (
    parse_3dm,
    parse_dimacs,
    parse_reduced,
    reduced_from_obj,
    serialize_reduced,
)

# field names of every JSON format, so that generated objects often get
# past the top-level checks and reach the readers' inner validation
KEYS = [
    "order", "edges", "labels", "trees", "vertices", "n", "triples",
    "graph", "terminals", "threshold", "roles", "0", "1", "2",
]

json_values = st.recursive(
    st.none()
    | st.booleans()
    | st.integers(min_value=-2, max_value=6)
    | st.floats(allow_nan=False, allow_infinity=False)
    | st.text(max_size=3),
    lambda children: st.lists(children, max_size=4)
    | st.dictionaries(st.sampled_from(KEYS) | st.text(max_size=2), children, max_size=5),
    max_leaves=25,
)

dimacs_lines = st.lists(
    st.sampled_from(["p", "cnf", "c", "0", "1", "-1", "2", "-3", "4", "x"])
    | st.integers(min_value=-5, max_value=5).map(str),
    max_size=6,
).map(" ".join)

texts = st.one_of(
    st.text(max_size=40),
    json_values.map(json.dumps),
    st.lists(dimacs_lines, max_size=6).map("\n".join),
)


@settings(max_examples=400, deadline=None)
@given(texts)
@example("[" * 100_000)
@example("1" * 5000)
@example('{"trees": 5}')
@example('{"order": 3, "edges": [5]}')
@example('{"graph": {"order": 2}, "terminals": [0, 1], "threshold": "1", "roles": []}')
def test_parsers_return_or_raise_format_error(text):
    for parse in (parse_graph, parse_certificate, parse_3dm, parse_reduced, parse_dimacs):
        try:
            parse(text)
        except GraphFormatError:
            pass


_ROLES = {"0": "a", "1": "b", "2": "c"}


@pytest.mark.parametrize(
    "roles, message",
    [
        ({" 0": "a", "1": "b", "2": "c"}, "not a decimal integer: ' 0'"),
        ({"0": "a", "1": "b", "0_2": "c"}, "not a decimal integer: '0_2'"),
        ({"0": "a", "+1": "b", "2": "c"}, "not a decimal integer: '+1'"),
        ({"0": "a", "1": "b", "2": "c", "00": "d"}, "vertex 0 has two roles"),
        ({"0": "a", "2": "c"}, "roles must cover every vertex exactly once"),
        ({"0": "a", "1": "b", "3": "c"}, "roles must cover every vertex exactly once"),
        ({"0": "a", "1": "b", "2": "c", "3": "d"}, "roles must cover every vertex exactly once"),
    ],
)
def test_reduced_role_keys_are_ascii_decimals_once_each(roles, message):
    obj = {"graph": {"order": 3, "edges": [[0, 1], [1, 2]]}, "terminals": [0, 2], "threshold": 1}
    assert reduced_from_obj({**obj, "roles": _ROLES}).roles == ("a", "b", "c")
    with pytest.raises(GraphFormatError) as err:
        reduced_from_obj({**obj, "roles": roles})
    assert str(err.value) == f"invalid reduced instance: {message}"


@pytest.mark.parametrize(
    "terminals, message",
    [([0, "2"], "invalid terminal id '2'"), ([0, -2], "invalid terminal id -2"),
     ([0, 5], "terminal 5 out of range for order 3")],
)
def test_reduced_terminals_are_checked_by_the_terminal_set(terminals, message):
    obj = {"graph": {"order": 3, "edges": [[0, 1], [1, 2]]}, "threshold": 1, "roles": _ROLES}
    with pytest.raises(GraphFormatError) as err:
        reduced_from_obj({**obj, "terminals": terminals})
    assert str(err.value) == f"invalid reduced instance: {message}"


@pytest.mark.parametrize(
    "field, value, message",
    [
        ("terminals", "0,2", "'terminals' must be a list"),
        pytest.param("roles", {"0": "a", "1": 1, "2": "c"},
                     "invalid reduced instance: roles must map vertex ids to strings",
                     id="roles-non-string-value"),
        pytest.param("roles", ["a", "b", "c"], "'roles' must map vertex ids to strings",
                     id="roles-list"),
        ("threshold", "1", "invalid reduced instance: threshold must be an int >= 1, got '1'"),
        ("threshold", True, "invalid reduced instance: threshold must be an int >= 1, got True"),
    ],
)
def test_reduced_fields_are_rejected_exactly(field, value, message):
    obj = {"graph": {"order": 3, "edges": [[0, 1], [1, 2]]}, "terminals": [0, 2],
           "threshold": 1, "roles": _ROLES}
    with pytest.raises(GraphFormatError) as err:
        parse_reduced(json.dumps({**obj, field: value}))
    assert str(err.value) == message


def test_reduced_instance_takes_plain_terminals_and_reads_back():
    # a plain tuple of terminals becomes a TerminalSet, and whatever
    # constructs is written as JSON that the parser reads back
    inst = ReducedInstance(path_graph(3), (2, 0), 1, ("a", "b", "c"))
    assert inst.terminals == TerminalSet((0, 2))
    assert parse_reduced(serialize_reduced(inst)) == inst


def test_reduced_instance_keeps_a_read_only_copy_of_its_roles():
    roles = ["a", "b", "c"]
    inst = ReducedInstance(path_graph(3), (0, 2), 1, roles)
    text = serialize_reduced(inst)
    roles[1] = "changed"
    with pytest.raises(TypeError):
        inst.roles[1] = 7
    assert inst.roles == ("a", "b", "c")
    assert serialize_reduced(inst) == text
    assert hash(inst) == hash(parse_reduced(text))
    again = dataclasses.replace(inst, threshold=2)
    assert again.roles == inst.roles and again.threshold == 2


@pytest.mark.parametrize(
    "fields, message",
    [
        ({"threshold": 0, "roles": {"0": "a"}}, "threshold must be an int >= 1, got 0"),
        ({"terminals": [0, 5], "roles": {"0": 5, "7": "b"}}, "terminal 5 out of range for order 3"),
        ({"roles": {"0": 5, "7": "b"}}, "roles must map vertex ids to strings"),
        ({"roles": {"0": "a", "1": 5, "7": "c"}}, "roles must map vertex ids to strings"),
    ],
)
def test_reduced_faults_are_named_in_field_order(fields, message):
    # with several faults the threshold is named first, then the terminals,
    # then a role that is not a string, and only then missing vertex ids
    obj = {"graph": {"order": 3, "edges": [[0, 1], [1, 2]]}, "terminals": [0, 2], "threshold": 1}
    with pytest.raises(GraphFormatError) as err:
        reduced_from_obj({**obj, **fields})
    assert str(err.value) == f"invalid reduced instance: {message}"
