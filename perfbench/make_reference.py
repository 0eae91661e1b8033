"""Regenerate ``reference.json``, the outputs every benchmark run is checked
against, with a record of how each part was made.

    python3 perfbench/make_reference.py

Run from the root of a permspec checkout.  Counts come from the brute-force
oracle ``permspec.perms.enumerate_avoiders``, never from the engine.
Simple permutations come from this directory's own ``oracle.py``.  The
sha256 pins are taken from one pass of each workload at the default seed;
regenerating them after a change to a spec or a sample stream is a
statement that the change is intended, and belongs in the change's notes.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys

import oracle
import run
import verify
import workloads as wl

BRUTE_FORCE_MAX = 8
SIMPLES_CAP = 10


def brute_counts(basis) -> list[int]:
    sys.path.insert(0, run.SRC)
    from permspec import Perm, enumerate_avoiders
    perms = [Perm(p) for p in basis]
    return [len(enumerate_avoiders(perms, n)) for n in range(1, BRUTE_FORCE_MAX + 1)]


def deletions(q):
    """Every permutation obtained from q by removing one point."""
    return (oracle.pattern(q[:i] + q[i + 1:]) for i in range(len(q)))


def one_point_extensions(p):
    n = len(p)
    for val in range(1, n + 2):
        lifted = [v + 1 if v >= val else v for v in p]
        for pos in range(n + 1):
            yield tuple(lifted[:pos] + [val] + lifted[pos:])


def simples(basis) -> dict:
    """Every simple member up to SIMPLES_CAP, found by growing the class.

    Each member of size m + 1 extends a member of size m by one point, and
    an extension is a member exactly when it is no basis element and every
    one-point deletion of it is a member.  The set is complete once two
    consecutive sizes past the largest simple member hold none, since every
    simple permutation of size m > 4 contains one of size m - 1 or m - 2
    (Schmerl and Trotter).
    """
    level, found, size = {(1,)}, [], 1
    while size < SIMPLES_CAP:
        size += 1
        level = {q for q in {q for p in level for q in one_point_extensions(p)}
                 if q not in basis and all(r in level for r in deletions(q))}
        found += sorted(q for q in level if oracle.is_simple(q))
        largest = max((len(q) for q in found), default=4)
        if size >= max(largest, 4) + 2:
            return {"perms": [" ".join(map(str, q)) for q in found],
                    "complete": True, "searched_to": size}
    return {"perms": [" ".join(map(str, q)) for q in found],
            "complete": False, "searched_to": size}


def digests(workloads) -> dict:
    out = {"spec": {}, "counts": {}, "streams": {}}
    for w, smoke in workloads:
        args = argparse.Namespace(workload=w.name, seed=wl.DEFAULT_SEED,
                                  smoke=smoke)
        shown = wl.smoke(w) if smoke else w
        result = run.Child(args, run._prepare(shown)).pass_(0, pins=True)
        if result["errors"]:
            raise SystemExit(f"{shown.name}: {result['errors']}")
        for basis, record in result["specs"].items():
            out["spec"][basis] = verify.sha256(record["text"])
            out["counts"][f"{basis}@{shown.depth}"] = verify.sha256(
                verify.table_text(record["counts"]))
        for key, draws in result["pins"].items():
            out["streams"][f"{shown.name}:{key}"] = verify.sha256("\n".join(draws))
    return out


def main() -> int:
    bases = {name: [tuple(int(c) for c in lit) for lit in lits]
             for name, lits in wl.BASES.items()}
    ref = {
        "provenance": {
            "command": "python3 perfbench/make_reference.py",
            "source": "permspec 0.1.0 at commit c43635a",
            "python": platform.python_version(),
            "counts": f"len(permspec.perms.enumerate_avoiders(basis, n)) for "
                      f"n = 1..{BRUTE_FORCE_MAX}",
            "simples": "the class grown one point at a time (an extension is "
                       "kept when no basis element and all its one-point "
                       "deletions are members), members simple by "
                       "perfbench/oracle.py kept, to size "
                       f"{SIMPLES_CAP} or until two sizes past the largest "
                       "simple hold none",
            "closed_forms": "Av132 and Sep are checked to any depth against "
                            "Catalan and large Schroeder numbers computed in "
                            "perfbench/oracle.py",
            "digests": "sha256 of each spec text, each count table as "
                       "'n<TAB>count' lines, and each sampler stream of "
                       f"{wl.PIN_DRAWS} draws at seed {wl.DEFAULT_SEED}, "
                       "from one pass of each workload",
        },
        "counts": {name: brute_counts(b) for name, b in bases.items()},
        "simples": {name: simples(b) for name, b in bases.items()},
    }
    ref["digests"] = digests([(w, smoke) for smoke in (False, True)
                              for w in wl.WORKLOADS.values()])
    with open(os.path.join(run.HERE, "reference.json"), "w", encoding="utf-8") as fh:
        json.dump(ref, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
