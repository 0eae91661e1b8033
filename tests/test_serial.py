"""Text format of record: exact rendering, parse/serialize round-trips,
input-file parsing, and the JSON mirror."""

import hashlib
import json

import pytest

from permspec import (
    InvalidInputError,
    closure_system,
    parse_system,
    read_perm_lines,
    serialize_system,
    system_json,
)
from permspec.serial import dump_json, parse_restriction_name

from conftest import pc


def test_closure_serialization_shape():
    text = serialize_system(closure_system([]))
    lines = text.splitlines()
    assert lines[0] == "# permspec v1"
    assert lines[1] == "mode: disjoint"
    assert lines[2] == "basis: "
    assert lines[3] == "simples: "
    assert lines[4] == "root: C<>()"
    assert lines[5] == "C<>() = 1 | 12[C+<>(), C<>()] | 21[C-<>(), C<>()]"


def test_simple_roots_render_as_literals():
    text = serialize_system(closure_system([pc("2413"), pc("3142")]))
    assert "2 4 1 3[C<>(), C<>(), C<>(), C<>()]" in text


def test_known_equation_line(systems_one_simple):
    ambiguous, _ = systems_one_simple
    text = serialize_system(ambiguous)
    assert "C<2 1>() = 1 | 12[C+<2 1>(), C<2 1>()]" in text.splitlines()
    assert text.splitlines()[5].startswith("C<1 2 4 3>() = 1 | ")


def test_round_trip_identity(all_systems):
    for _, (ambiguous, disjoint) in all_systems.items():
        for system in (ambiguous, disjoint):
            text = serialize_system(system)
            back = parse_system(text)
            assert back == system
            assert serialize_system(back) == text


def test_restriction_name_grammar():
    r = parse_restriction_name("C+<2 1 3;1 3 2>(3 2 1)")
    assert r.flavor == "+"
    assert r.avoid == (pc("132"), pc("213"))
    assert r.contain == (pc("321"),)
    # names normalize on parse, so a redundant pattern disappears
    assert parse_restriction_name("C<1 2;1 2 4 3>()").avoid == (pc("12"),)
    with pytest.raises(InvalidInputError):
        parse_restriction_name("D<1 2>()")
    with pytest.raises(InvalidInputError):
        parse_restriction_name("C<1 2>")


def test_parse_rejects_malformed_input(systems_132):
    _, disjoint = systems_132
    text = serialize_system(disjoint)
    with pytest.raises(InvalidInputError):
        parse_system(text.replace("# permspec v1", "# permspec v9"))
    with pytest.raises(InvalidInputError):
        parse_system(text.replace("mode: disjoint", "mode: sideways"))
    with pytest.raises(InvalidInputError):
        parse_system(text + text.splitlines()[5] + "\n")   # duplicate equation
    body = [ln for ln in text.splitlines() if " = " not in ln]
    with pytest.raises(InvalidInputError):
        parse_system("\n".join(body) + "\n")               # no root equation


def test_perm_file_parsing():
    text = "# a comment\n1 3 2\n\n2 1  # trailing note\n"
    assert read_perm_lines(text) == [pc("132"), pc("21")]
    with pytest.raises(InvalidInputError):
        read_perm_lines("1 1 2\n")


def test_json_mirror(systems_one_simple):
    _, disjoint = systems_one_simple
    payload = json.loads(dump_json(system_json(disjoint)))
    assert payload["schema"] == "permspec/1"
    assert payload["mode"] == "disjoint"
    assert payload["root"] == "C<1 2 4 3>()"
    assert [1, 2, 4, 3] in payload["basis"]
    assert [3, 1, 4, 2] in payload["simples"]
    lhs_names = {eq["lhs"] for eq in payload["equations"]}
    assert payload["root"] in lhs_names
    assert len(lhs_names) == len(disjoint.equations)


def test_worked_disjoint_spec_text_is_pinned(systems_one_simple):
    # Captured before counting and sampling shared one suffix-row kernel;
    # any change to the format of record must show up here.
    _, disjoint = systems_one_simple
    text = serialize_system(disjoint)
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "20940e92e791806dec97c56304afeb86ab0289286a7bbd46d943d1fbaac8c93e")
