"""Text format of record: exact rendering, parse/serialize round-trips,
input-file parsing, and the JSON mirror."""

import hashlib
import json

import pytest

from permspec import (
    InvalidInputError,
    ambiguous_system,
    class_input,
    closure_system,
    compute_simples,
    disambiguate_system,
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


def test_worked_disjoint_spec_text_is_pinned(systems_one_simple,
                                             corpus_systems):
    # Recaptured when each equation became "every term minus the earlier
    # ones" (a smaller specification of the same class), each after its
    # specification passed run_check at size 7 and matched the earlier
    # root counts to n=40; any change to the format of record or to the
    # disambiguation must show up here.
    pinned = {
        "W": "45ff6b419e122b152242b3e3a426aea30b843ecb484abe1c624f7c607f8ffba0",
        "L1": "dae927c8980d795031cff95c8a1372414220d5f3c6b9d1e66cf44132f979761c",
        "L2": "7cc97e053c537a2a75ec94720015be95f474c4e41164be023a5094a5989bbf3b",
        "L4": "6634cd8e537e6293d800276310958ecfbcf442c77085ea039f80eca33dc387a4",
        "B1": "7eb01fc327bb9e4d199393ec63326dafa2cfe38b6ee6a23fbc13169a15e9e99b",
        "B2": "a93985977644b0c3fae227e841539c67565c06ac665285c1e1af3dbc776a9102",
        "B3": "82c7450e5a5c7666b82c2da13370c598272c43882b48edf2f3c42d6d2a8cedfa",
        "B4": "f930b4537858a3c7e81da9e80dcdb73c56abb9cb7d0df48be977ebaaa3571bbe",
    }
    texts = {"W": serialize_system(systems_one_simple[1])}
    texts.update((name, serialize_system(disjoint))
                 for name, (_, disjoint) in corpus_systems.items())
    assert {k: hashlib.sha256(t.encode()).hexdigest()
            for k, t in texts.items()} == pinned
