"""The permspec stage benchmark.

    python3 perfbench/run.py --workload spec-heavy --seed 1 --seconds 10 --trace 0

Run from the root of a permspec checkout.  Each pass of the workload runs
in a fresh interpreter (``worker.py``), one at a time, and passes repeat
until they have measured ``--seconds`` seconds.  Set-up is measured apart
by starting interpreters that only import permspec and read the inputs.
This process checks every output against ``reference.json`` with its own
code (``verify.py``, ``oracle.py``), prints a table of the metrics, and
ends with one JSON line: the end-to-end metrics with ``--trace 0``, or the
per-layer metrics of a traced pass with ``--trace 1``.  ``NOTES.md`` says
what each workload and metric is for.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

import tracer
import verify
import workloads as wl

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(HERE, "_work")

SETUP_PROBES = 5
RUN_BUDGET_S = 170.0

END_TO_END = {  # name: unit
    "setup_s": "s", "spec_s": "s", "count_s": "s",
    "exact_draws_per_s": "1/s", "boltzmann_draws_per_s": "1/s",
    "check_s": "s", "simples_s": "s", "total_s": "s",
    "peak_rss_mb": "MB", "spec_terms": "count",
}


class BenchError(RuntimeError):
    """The benchmark itself could not run; no result is printed."""


def _args():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(wl.WORKLOADS))
    parser.add_argument("--seed", type=int, default=wl.DEFAULT_SEED,
                        help="seed of the sampler streams")
    parser.add_argument("--seconds", type=float, default=10.0,
                        help="measure passes until this much time is covered")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny sizes, for the self-test")
    return parser.parse_args()


class Child:
    """Starts worker interpreters one at a time within the run's budget."""

    def __init__(self, args, work: str):
        self.args, self.work = args, work
        self.deadline = time.monotonic() + RUN_BUDGET_S
        self.env = dict(os.environ, PYTHONPATH=SRC, PYTHONHASHSEED="0")

    def run(self, *extra: str) -> tuple[float, str]:
        """(monotonic start time, standard output) of one worker."""
        cmd = [sys.executable, os.path.join(HERE, "worker.py"),
               "--workload", self.args.workload, "--work", self.work,
               "--seed", str(self.args.seed)] + \
            (["--smoke"] if self.args.smoke else []) + list(extra)
        timeout = self.deadline - time.monotonic()
        if timeout <= 0:
            raise BenchError("run budget spent")
        start = time.monotonic()
        try:
            done = subprocess.run(cmd, env=self.env, capture_output=True,
                                  text=True, timeout=timeout, check=False)
        except subprocess.TimeoutExpired:
            raise BenchError(f"worker exceeded the {RUN_BUDGET_S:.0f} s budget") from None
        if done.returncode != 0:
            raise BenchError(f"worker exited {done.returncode}:\n{done.stderr[-3000:]}")
        return start, done.stdout

    def setup(self) -> float:
        """Set-up time of one interpreter, in reference seconds (speed.py)."""
        start, out = self.run("--setup-only")
        ready, factor = (float(x) for x in out.split())
        return (ready - start) * factor

    def pass_(self, trace: int, pins: bool = False) -> dict:
        path = os.path.join(self.work, f"result-{trace}.json")
        start, _ = self.run("--result", path, "--trace", str(trace),
                            *(["--pins"] if pins else []))
        with open(path, encoding="utf-8") as fh:
            result = json.load(fh)
        return result


def _prepare(workload) -> str:
    if not os.path.isfile(os.path.join(SRC, "permspec", "__init__.py")):
        raise BenchError("no permspec sources under src/; run from a checkout")
    work = os.path.join(WORK, workload.name)
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    for name in workload.bases():
        with open(os.path.join(work, name + ".txt"), "w", encoding="utf-8") as fh:
            fh.write(wl.perm_lines(name))
    return work


def _pass_metrics(result: dict, clock: str) -> dict[str, float]:
    """End-to-end metrics of one pass, from reference or wall seconds."""
    times = result[clock]
    out = {k: times.get(k, 0.0) for k in ("spec_s", "count_s", "check_s",
                                         "simples_s", "total_s")}
    for kind in ("exact", "boltzmann"):
        draws = sum(len(d) for d in result[kind].values())
        seconds = times.get(f"{kind}_s", 0.0)
        out[f"{kind}_draws_per_s"] = draws / seconds if seconds else 0.0
    out["peak_rss_mb"] = result["peak_rss_kb"] / 1024.0
    out["spec_terms"] = sum(r.get("terms", 0) for r in result["specs"].values())
    return out


def _medians(passes, clock: str) -> dict[str, float]:
    per_pass = [_pass_metrics(r, clock) for r in passes]
    return {name: statistics.median(p[name] for p in per_pass)
            for name in per_pass[0]}


def main() -> int:
    args = _args()
    workload = wl.WORKLOADS[args.workload]
    if args.smoke:
        workload = wl.smoke(workload)
    with open(os.path.join(HERE, "reference.json"), encoding="utf-8") as fh:
        ref = json.load(fh)
    basis_perms = {name: [tuple(int(c) for c in lit) for lit in wl.BASES[name]]
                   for name in wl.BASES}
    try:
        work = _prepare(workload)
        child = Child(args, work)
        child.setup()  # warms the byte-code caches; not measured
        setups = [child.setup() for _ in range(SETUP_PROBES)]
        passes, measured = [], 0.0
        while not passes or (not args.trace and measured < args.seconds):
            passes.append(child.pass_(0, pins=bool(args.trace)))
            measured += passes[-1]["times"]["total_s"]
        traced = child.pass_(1) if args.trace else None
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 1

    verdicts = [verify.verify(ref, workload, result, basis_perms)
                for result in passes + ([traced] if traced else [])]
    attempted = sum(v.attempted for v in verdicts)
    failed = sum(v.failed for v in verdicts)
    problems = [p for v in verdicts for p in v.problems]
    metrics, walls = _medians(passes, "times"), _medians(passes, "walls")
    metrics["setup_s"] = statistics.median(setups)

    print(f"workload {workload.name}  seed {args.seed}  passes {len(passes)}  "
          f"setup probes {len(setups)}  (times in reference seconds; "
          f"wall clock beside them)")
    for name, unit in END_TO_END.items():
        wall = f"  wall {walls[name]:.6g}" if name in walls and \
            walls[name] != metrics[name] else ""
        print(f"  {name:<24} {metrics[name]:>14.6g} {unit}{wall}")
    print(f"  {'failed_ops':<24} {failed / attempted if attempted else 1.0:>14.6g} "
          f"share ({failed} of {attempted})")
    for problem in problems[:20]:
        print(f"  problem: {problem}")

    if args.trace:
        with open(traced["trace"], encoding="utf-8") as fh:
            trace = json.load(fh)
        layer = tracer.per_layer(
            trace, traced["times"]["total_s"] - passes[0]["times"]["total_s"])
        pins = verdicts[0].pins
        layer["serial.spec_digest_matches"] = pins["spec"]
        layer["engine.table_digest_matches"] = pins["table"]
        layer["sampler.stream_digest_matches"] = pins["stream"]
        for name in sorted(layer):
            print(f"  {name:<48} {layer[name]:>14.6g} {tracer.unit(name)}")
        shown = {name: {"value": value, "unit": tracer.unit(name)}
                 for name, value in layer.items()}
    else:
        shown = {name: {"value": metrics[name], "unit": unit}
                 for name, unit in END_TO_END.items()}
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": shown}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
