"""Text and JSON forms of systems and permutation files.

The text form of a system is the format of record:

    # permspec v1
    mode: disjoint
    basis: 1 2 4 3;2 4 1 3
    simples: 3 1 4 2
    root: C<1 2 4 3>()
    C<1 2 4 3>() = 1 | 12[C+<1 2>(), C<1 3 2>()] | ...

One equation per line, the root's equation first and the rest in canonical
order.  Restriction names are ``C``, ``C+`` or ``C-`` followed by the
avoided patterns in angle brackets and the mandatory ones in parentheses,
both semicolon separated.  A term is its root (``12``, ``21``, or a
permutation literal) with comma-separated component names in square
brackets.  An equation with no summands at all renders as ``NAME = 0``.
The generating-function form of a disjoint system has the same lines with
``1`` read as ``z``, ``|`` as a sum and a term as the product of its
components' series: ``C<2 1>() = 1 | 12[C+<2 1>(), C<2 1>()]`` reads
``F{C<2 1>()}(z) = z + F{C+<2 1>()}(z)*F{C<2 1>()}(z)``.

Parsing is the exact inverse: ``parse_system(serialize_system(s)) == s``.

Permutation list files (basis or simples) hold one space-separated literal
per line; ``#`` starts a comment and blank lines are skipped.
"""

from __future__ import annotations

import json
import re

from .perms import InvalidInputError, Perm, ROOT_12, ROOT_21
from .restrictions import (
    MODE_AMBIGUOUS,
    MODE_DISJOINT,
    Equation,
    Restriction,
    System,
    Term,
    make_equation,
)

FORMAT_HEADER = "# permspec v1"
JSON_SCHEMA = "permspec/1"


def read_perm_lines(text: str) -> list[Perm]:
    """Parse a permutation list file: one literal per line, # comments."""
    out = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        try:
            out.append(Perm.from_text(line))
        except ValueError as exc:
            raise InvalidInputError(f"line {lineno}: {exc}") from None
    return out


def _perm_list(perms) -> str:
    return ";".join(str(p) for p in perms)


def _parse_perm_list(text: str, what: str) -> tuple[Perm, ...]:
    text = text.strip()
    if not text:
        return ()
    try:
        return tuple(Perm.from_text(tok) for tok in text.split(";"))
    except ValueError as exc:
        raise InvalidInputError(f"bad {what}: {exc}") from None


_NAME_RE = re.compile(r"^C([+-]?)<([^>]*)>\(([^)]*)\)$")


def parse_restriction_name(name: str) -> Restriction:
    m = _NAME_RE.match(name.strip())
    if not m:
        raise InvalidInputError(f"bad restriction name: {name!r}")
    flavor, avoid_text, contain_text = m.groups()
    return Restriction(flavor,
                       _parse_perm_list(avoid_text, "avoided pattern"),
                       _parse_perm_list(contain_text, "mandatory pattern"))


def _parse_term(text: str) -> Term:
    text = text.strip()
    open_idx = text.find("[")
    if open_idx < 0 or not text.endswith("]"):
        raise InvalidInputError(f"bad term: {text!r}")
    root_text = text[:open_idx].strip()
    root = {"12": ROOT_12, "21": ROOT_21}.get(root_text)
    if root is None:
        try:
            root = Perm.from_text(root_text)
        except ValueError:
            raise InvalidInputError(f"bad term root: {root_text!r}") from None
        if len(root) == 2:  # a linear root is spelled 12 or 21 only
            raise InvalidInputError(f"bad term root: {root_text!r}")
    args = tuple(parse_restriction_name(tok)
                 for tok in text[open_idx + 1:-1].split(", "))
    try:
        return Term(root, args)
    except ValueError as exc:
        raise InvalidInputError(str(exc)) from None


def _equation_line(eq: Equation) -> str:
    pieces = (["1"] if eq.has_atom else []) + [t.name() for t in eq.terms]
    rhs = " | ".join(pieces) if pieces else "0"
    return f"{eq.lhs.name()} = {rhs}"


def _parse_equation_line(line: str) -> Equation:
    if " = " not in line:
        raise InvalidInputError(f"bad equation line: {line!r}")
    lhs_text, rhs_text = line.split(" = ", 1)
    lhs = parse_restriction_name(lhs_text)
    has_atom = False
    terms = []
    rhs_text = rhs_text.strip()
    if rhs_text != "0":
        for piece in rhs_text.split(" | "):
            piece = piece.strip()
            if piece == "1":
                has_atom = True
            else:
                terms.append(_parse_term(piece))
    return make_equation(lhs, has_atom, terms)


def serialize_system(system: System) -> str:
    """Canonical text form; root equation first, bit-exact round-trip."""
    lines = [
        FORMAT_HEADER,
        f"mode: {system.mode}",
        f"basis: {_perm_list(system.basis)}",
        f"simples: {_perm_list(system.simples)}",
        f"root: {system.root.name()}",
    ]
    lines.extend(_equation_line(system.equations[r])
                 for r in system.ordered_lhs())
    return "\n".join(lines) + "\n"


def emit_gf_equations(system: System) -> str:
    """The generating-function equations of a disjoint system, one line
    per equation of ``serialize_system`` and in its order."""
    lines = []
    for e in gf_json(system)["equations"]:
        pieces = (["z"] if e["atom"] else []) + [
            "*".join(f"F{{{n}}}(z)" for n in p) for p in e["products"]]
        lines.append(f"F{{{e['lhs']}}}(z) = " + (" + ".join(pieces) or "0"))
    return "\n".join(lines)


def parse_system(text: str) -> System:
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines or lines[0].strip() != FORMAT_HEADER:
        raise InvalidInputError(f"missing header {FORMAT_HEADER!r}")
    headers = {}
    body_start = 1
    for line in lines[1:]:
        m = re.match(r"^(mode|basis|simples|root):\s?(.*)$", line)
        if not m:
            break
        headers[m.group(1)] = m.group(2)
        body_start += 1
    for key in ("mode", "basis", "simples", "root"):
        if key not in headers:
            raise InvalidInputError(f"missing header line {key!r}")
    mode = headers["mode"]
    if mode not in (MODE_AMBIGUOUS, MODE_DISJOINT):
        raise InvalidInputError(f"bad mode: {mode!r}")
    basis = _parse_perm_list(headers["basis"], "basis element")
    simples = _parse_perm_list(headers["simples"], "simple permutation")
    root = parse_restriction_name(headers["root"])
    equations = {}
    for line in lines[body_start:]:
        eq = _parse_equation_line(line.strip())
        if eq.lhs in equations:
            raise InvalidInputError(f"duplicate equation for {eq.lhs.name()}")
        equations[eq.lhs] = eq
    if root not in equations:
        raise InvalidInputError(f"no equation for root {root.name()}")
    return System(root=root, equations=equations, basis=basis,
                  simples=simples, mode=mode)


# ---------------------------------------------------------------------------
# JSON mirrors.  Schema-versioned, machine readable; the text form above
# stays the format of record.

def system_json(system: System) -> dict:
    def term_json(t: Term) -> dict:
        root = t.root_text() if len(t.root) == 2 else list(t.root)
        return {"root": root, "args": [a.name() for a in t.args]}

    return {
        "schema": JSON_SCHEMA,
        "kind": "system",
        "mode": system.mode,
        "basis": [list(b) for b in system.basis],
        "simples": [list(s) for s in system.simples],
        "root": system.root.name(),
        "equations": [
            {
                "lhs": r.name(),
                "atom": system.equations[r].has_atom,
                "terms": [term_json(t) for t in system.equations[r].terms],
            }
            for r in system.ordered_lhs()
        ],
    }


def gf_json(system: System) -> dict:
    """``system_json``'s equations read as generating functions: each term
    is the product of its components' series."""
    if system.mode != MODE_DISJOINT:
        raise ValueError("generating functions need a disjoint system")
    return {"schema": JSON_SCHEMA, "kind": "gf", "root": system.root.name(),
            "equations": [{"lhs": e["lhs"], "atom": e["atom"],
                           "products": [t["args"] for t in e["terms"]]}
                          for e in system_json(system)["equations"]]}


def dump_json(payload: dict) -> str:
    return json.dumps(payload, indent=2, sort_keys=False) + "\n"
