"""Checks of one pass's outputs against the stored reference.

Every operation the workload plans counts as attempted; it counts as
failed when it raised, exited with an unexpected code, or produced output
that a check below rejects.  The sha256 pins are reported beside the
checks and never count as failures: they say whether a spec text, a
count table or a default-seed draw stream changed since the reference was
recorded.
"""

from __future__ import annotations

import hashlib

import oracle

CHECK_NAMES = ("ambiguous equation membership", "specification partition",
               "conservation through disambiguation", "counting equality")


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def table_text(counts) -> str:
    """A count table as ``permspec count`` prints it."""
    return "".join(f"{n}\t{c}\n" for n, c in enumerate(counts, start=1))


def expected_counts(ref: dict, basis: str, depth: int) -> dict[int, int]:
    """Known root counts: brute force to n=8, closed forms to any depth."""
    if basis == "Av132":
        return {n: oracle.catalan(n) for n in range(1, depth + 1)}
    if basis == "Sep":
        return dict(enumerate(oracle.large_schroder(depth), start=1))
    brute = ref["counts"][basis]
    return {n: brute[n - 1] for n in range(1, min(depth, len(brute)) + 1)}


def expected_simples(ref: dict, basis: str, cap: int | None) -> tuple[str, list[str]]:
    """The status line and member lines ``permspec simples`` should print."""
    known = ref["simples"][basis]
    if known["complete"]:
        return "# status: complete", known["perms"]
    if cap is None or cap > known["searched_to"]:
        raise ValueError(f"reference simples of {basis} stop at "
                         f"{known['searched_to']}")
    perms = [p for p in known["perms"] if len(p.split()) <= cap]
    return f"# status: truncated at {cap}", perms


class Verdict:
    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.pins = {"spec": 0, "table": 0, "stream": 0}

    def op(self, ok: bool, what: str) -> None:
        self.ops(1, int(ok), what)

    def ops(self, count: int, good: int, what: str) -> None:
        self.attempted += count
        if good < count:
            self.failed += count - good
            self.problems.append(f"{count - good} of {count}: {what}")


def _cli_ok(ref, workload, record) -> bool:
    basis, text = record["basis"], record.get("output")
    if text is None:
        return False
    lines = text.splitlines()
    if record["command"] == "check":
        return record["code"] == 0 and \
            lines == [f"PASS  {name}" for name in CHECK_NAMES]
    cap = next(c.cap for c in workload.simples if c.basis == basis)
    status, perms = expected_simples(ref, basis, cap)
    code = 0 if status.endswith("complete") else 2
    return record["code"] == code and lines == [status] + perms


def _draws_ok(perms, basis, lo, hi) -> int:
    """How many draws are permutations of size lo..hi avoiding the basis."""
    return sum(1 for p in perms
               if oracle.is_perm(p) and lo <= len(p) <= hi
               and oracle.avoids_all(p, basis))


def verify(ref: dict, workload, result: dict, basis_perms: dict) -> Verdict:
    v = Verdict()
    for error in result.get("errors", []):
        v.problems.append(error)
    planned = [(c.basis, "simples") for c in workload.simples] + \
        [(b, "check") for b in workload.checks]
    records = {(r["basis"], r["command"]): r for r in result["cli"]}
    for key in planned:
        record = records.get(key)
        v.op(record is not None and _cli_ok(ref, workload, record),
             f"permspec {key[1]} on {key[0]}")
    digests = ref["digests"]
    for basis in workload.specs:
        record = result["specs"].get(basis, {})
        v.op("text" in record, f"spec of {basis}")
        v.op(record.get("round_trip") is True, f"text round trip of {basis}")
        counts = record.get("counts")
        want = expected_counts(ref, basis, workload.depth)
        v.op(counts is not None and len(counts) == workload.depth and
             all(counts[n - 1] == c for n, c in want.items()),
             f"counts of {basis}")
        if "text" in record:
            v.pins["spec"] += digests["spec"].get(basis) == sha256(record["text"])
        if counts is not None:
            v.pins["table"] += digests["counts"].get(
                f"{basis}@{workload.depth}") == sha256(table_text(counts))
    for kind, steps in (("exact", workload.exact), ("boltzmann", workload.boltzmann)):
        for d in steps:
            lo, hi = (d.n, d.n) if kind == "exact" else d.window
            perms = result[kind].get(d.basis, [])[:d.k]
            v.ops(d.k, _draws_ok(perms, basis_perms[d.basis], lo, hi),
                  f"{kind} draws on {d.basis}")
    for key, draws in result.get("pins", {}).items():
        v.pins["stream"] += digests["streams"].get(
            f"{workload.name}:{key}") == sha256("\n".join(draws))
    return v
