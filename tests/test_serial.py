"""Text format of record: exact rendering, parse/serialize round-trips,
input-file parsing, and the JSON mirror."""

import hashlib
import json
import re

import pytest

from permspec import (
    InvalidInputError,
    ambiguous_system,
    class_input,
    closure_system,
    compute_simples,
    disambiguate_system,
    emit_gf_equations,
    gf_json,
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
    assert " 12[" in text
    with pytest.raises(InvalidInputError):
        parse_system(text.replace(" 12[", " 1 2[", 1))     # spaced linear root


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
    roots = [t["root"] for eq in payload["equations"] for t in eq["terms"]]
    assert "12" in roots and [3, 1, 4, 2] in roots
    assert all(r in ("12", "21", [3, 1, 4, 2]) for r in roots)


def test_gf_views_read_the_spec(systems_one_simple, corpus_systems):
    systems = {"W": systems_one_simple[1]}
    systems.update((name, corpus_systems[name][1])
                   for name in ("L1", "L3", "B1", "B4"))
    for name, d in systems.items():
        text = emit_gf_equations(d)
        assert text == emit_gf_equations(parse_system(serialize_system(d)))
        spec_lines = serialize_system(d).splitlines()[5:]
        gf_lines = text.splitlines()
        assert len(gf_lines) == len(spec_lines) == len(d.equations)
        for gf_line, spec_line, r in zip(gf_lines, spec_lines, d.ordered_lhs()):
            eq = d.equations[r]
            lhs, rhs = gf_line.split(" = ")
            assert lhs == "F{%s}(z)" % spec_line.split(" = ")[0] == "F{%s}(z)" % r.name()
            pieces = [] if rhs == "0" else rhs.split(" + ")
            assert (pieces[:1] == ["z"]) == eq.has_atom
            assert [re.findall(r"F\{([^}]*)\}\(z\)", p)
                    for p in pieces[eq.has_atom:]] == \
                [[a.name() for a in t.args] for t in eq.terms]
        assert gf_json(d)["equations"] == [
            {"lhs": e["lhs"], "atom": e["atom"],
             "products": [t["args"] for t in e["terms"]]}
            for e in system_json(d)["equations"]]
    # W's simple 3 1 4 2 roots terms of four components: four factors each.
    w = systems["W"]
    simple_rooted = sum(len(t.root) == 4 for eq in w.equations.values()
                        for t in eq.terms)
    products = [p for e in gf_json(w)["equations"] for p in e["products"]]
    assert simple_rooted > 0
    assert sum(len(p) == 4 for p in products) == simple_rooted
    assert all(len(p) in (2, 4) for p in products)


def test_worked_disjoint_spec_text_is_pinned(systems_one_simple,
                                             corpus_systems):
    # Recaptured when both stages became closures from the root and the
    # disambiguator began dropping terms that use a memberless nonterminal,
    # which removed the unreachable and memberless equations from the text.
    # Each specification first passed run_check at size 7, matched the
    # earlier root counts to n=40 and kept every other equation as it was;
    # any change to the format of record or to the disambiguation must show
    # up here.
    pinned = {
        "W": "796cc48692f6515a68704c31d1c6f6dab362573f6b7483ab24fbb611f8fec61e",
        "L1": "28a9ec5761d3f9c37fe57d5953e9efe1447e441402a796c330e690f345a80501",
        "L2": "a37f0faf12d058f4e94d0aaecc5678a0fe5a2ea365d6e4fd5f4c457297efc40f",
        "L3": "fb00ab5c80f293b682f82077ccfd29348c96c9af1e2a4325feb5486fb8d9d27e",
        "L4": "cc6247e3de6451c700508e532b93a885d5582b620a3657931c7163abc3655f66",
        "B1": "8b28920793e15124ef4c44f24c292ed617794348af4a6fb6903e1df2b6460cc0",
        "B2": "d0fd2815756f945fec118efc5421756c32f656e5a8dffe170fa9c0ecaac07f1a",
        "B3": "6e0a9105ff5fb51e8ea73ca88e710345a1b69f82aecce5f7831deebf70b07b16",
        "B4": "84327244fbe8cd28babd6ac22a09275da7df369c9a56feefd8f62c3a07490bcc",
    }
    texts = {"W": serialize_system(systems_one_simple[1])}
    texts.update((name, serialize_system(disjoint))
                 for name, (_, disjoint) in corpus_systems.items())
    assert {k: hashlib.sha256(t.encode()).hexdigest()
            for k, t in texts.items()} == pinned


def _digest(system) -> str:
    return hashlib.sha256(serialize_system(system).encode()).hexdigest()


def test_worked_ambiguous_spec_text_is_pinned(systems_one_simple,
                                              corpus_systems):
    # The ambiguous text is the builder's output alone, so a change to the
    # builder shows up here even where disambiguation would hide it.
    pinned = {
        "W": "7050ef6946be070177f2d04105f6402ef973c3ffb2b366e1f1153667d241d144",
        "L1": "99e0aa7028029c983ada576b7e5b20f4248ab41bcb5c32a793f7cd5f734dae07",
        "L2": "6f919641949f649aa56c6c4329f3212e8270c984928d1c9013f9adce2f0f65e7",
        "L3": "a59582317be0db2e004eaed698a579518f6a580b6ab279db2c6761bf822f1561",
        "L4": "e316a61b8594b0f2a43dbeff50744be88e885fecc69bcd1488a28fa335397d4b",
        "B1": "12b2384809a4679ff115bf6996ebfc1a9e0277cf24ea05a1a53e1b187e4e012f",
        "B2": "1d96427e86520d2cd7507d4d3f6245c89db3689fb84ab7788b7b91e5fcb9f77c",
        "B3": "dfde085b78ac17a1c0171f6883ad8d230dec1a25fb6e25c5485144b6c85ff915",
        "B4": "0d75276db2fca67d41b3eff5faa27f30d1395def47df136c0bfab0bc115554cf",
    }
    digests = {"W": _digest(systems_one_simple[0])}
    digests.update((name, _digest(amb))
                   for name, (amb, _) in corpus_systems.items())
    assert digests == pinned


def test_many_simples_spec_texts_are_pinned():
    # Av(321, 12345) is finite with 58 simples, and its build pushes 43,853
    # embeddings, far more than any corpus base: both texts.
    basis = (pc("321"), pc("12345"))
    result = compute_simples(basis)
    assert result.complete and len(result.simples) == 58
    amb = ambiguous_system(class_input(basis, result.simples))
    assert (_digest(amb), _digest(disambiguate_system(amb))) == (
        "03d656eb4d561c4396185cd9fdc47c1d68889e46edfd390fbc44a55d2dfb88dc",
        "2404d1f5657743c62dc817110d8d0a73efd13dd19e2fe7053ecba648cff6040b")
