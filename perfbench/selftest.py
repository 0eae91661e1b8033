"""Self-test of the benchmark harness; takes about a minute.

    python3 perfbench/selftest.py

Checks the independent oracle against brute force, checks that the output
checks reject wrong outputs, runs all three workloads at tiny sizes with
and without tracing, and checks that the benchmark refuses to run without
the permspec sources.  Exits 0 when everything passes.
"""

from __future__ import annotations

import itertools
import json
import os
import random
import shutil
import subprocess
import sys

import oracle
import run
import verify
import workloads as wl


def check_oracle() -> None:
    rng = random.Random(7)
    patterns = [p for k in range(1, 6)
                for p in itertools.permutations(range(1, k + 1))]
    for _ in range(2000):
        perm = list(range(1, rng.randint(1, 9) + 1))
        rng.shuffle(perm)
        patt = rng.choice(patterns)
        assert oracle.Containment()(perm, patt) == oracle.contains_brute(perm, patt), \
            (perm, patt)
    assert [oracle.catalan(n) for n in range(1, 7)] == [1, 2, 5, 14, 42, 132]
    assert oracle.large_schroder(6) == [1, 2, 6, 22, 90, 394]
    assert oracle.is_simple((2, 4, 1, 3)) and not oracle.is_simple((2, 1, 4, 3))


def check_rejections(ref: dict) -> None:
    """A pass with wrong outputs must count each wrong one as failed."""
    w = wl.smoke(wl.WORKLOADS["count-sample-deep"])
    bases = {"W": [tuple(int(c) for c in lit) for lit in wl.BASES["W"]]}
    d = w.exact[0]
    good = [1, 2, 3, 4, 5, 6, 7, 8]         # avoids every element of W
    result = {
        "cli": [{"command": "simples", "basis": "W", "code": 0,
                 "output": "# status: complete\n"},            # lost a simple
                {"command": "check", "basis": "W", "code": 4,
                 "output": "\n".join(f"PASS  {n}" for n in verify.CHECK_NAMES)}],
        "specs": {"W": {"text": "", "terms": 1, "round_trip": False,
                        "counts": [1, 2, 6, 22, 88, 353, 1447, 5971, 0, 0]}},
        "exact": {"W": [good, [2, 4, 1, 3, 5, 6, 7, 8], [1, 2, 3]]},
        "boltzmann": {},
    }
    assert d.n == len(good)
    v = verify.verify(ref, w, result, bases)
    # Six commands (two wrong, four missing), W's round trip and counts,
    # the missing specs of Av132 and Sep (spec, round trip, counts each),
    # two bad exact draws and every missing Boltzmann draw.
    assert v.failed == 6 + 2 + 6 + 2 + w.boltzmann[0].k, v.problems


def smoke_runs(names: dict) -> None:
    for workload in wl.WORKLOADS:
        for trace in (0, 1):
            cmd = [sys.executable, os.path.join(run.HERE, "run.py"), "--workload",
                   workload, "--seed", "3", "--seconds", "0", "--trace",
                   str(trace), "--smoke"]
            done = subprocess.run(cmd, cwd=run.ROOT, capture_output=True,
                                  text=True, timeout=170, check=False)
            assert done.returncode == 0, done.stderr
            last = json.loads(done.stdout.strip().splitlines()[-1])
            assert set(last) == {"correct", "attempted", "failed", "metrics"}
            assert last["correct"] and last["failed"] == 0 and last["attempted"] > 0, \
                done.stdout
            want = names["per_layer" if trace else "end_to_end"]
            assert set(last["metrics"]) == set(want), \
                set(last["metrics"]) ^ set(want)
            for name, metric in last["metrics"].items():
                assert metric["unit"] == want[name], name
                assert isinstance(metric["value"], (int, float)), name
            print(f"smoke {workload} trace {trace}: ok, "
                  f"{last['attempted']} operations")


def bare_checkout_refused() -> None:
    """Without src/permspec the benchmark must fail and print no result."""
    bare = os.path.join(run.WORK, "bare")
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(run.HERE, os.path.join(bare, "perfbench"),
                    ignore=shutil.ignore_patterns("_work", "__pycache__"))
    shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), bare)
    try:
        done = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "spec-heavy",
             "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=170, check=False)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    assert done.returncode != 0 and "metrics" not in done.stdout, done.stdout
    print("bare checkout: refused with exit", done.returncode)


def main() -> int:
    with open(os.path.join(run.HERE, "reference.json"), encoding="utf-8") as fh:
        ref = json.load(fh)
    with open(os.path.join(run.ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    names = {key: {m["name"]: m["unit"] for m in bench[key]}
             for key in ("end_to_end", "per_layer")}
    check_oracle()
    print("oracle: ok")
    check_rejections(ref)
    print("rejections: ok")
    smoke_runs(names)
    bare_checkout_refused()
    return 0


if __name__ == "__main__":
    sys.exit(main())
