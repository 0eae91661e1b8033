"""One pass of a workload in a fresh interpreter.

Started by ``run.py``; not meant to be run by hand.  The pass imports
permspec, reads the basis files, notes the monotonic time at which it is
ready (set-up ends there), runs every stage of the workload and writes one
JSON result file.  Every permspec lru_cache is cleared before each timed
unit, so each unit starts cold, as a fresh ``permspec`` command would,
and a full garbage collection follows, so that no unit pays for
collecting the garbage of the one before.
Checks made here (the text round trip) and the digest pins are timed apart
and left out of ``total_s``.
"""

import argparse
import gc
import json
import os
import resource
import sys
import time

import speed


def _args():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--work", required=True, help="directory of inputs and outputs")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--trace", type=int, default=0)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--pins", action="store_true",
                        help="also draw the default-seed streams for the digest pins")
    parser.add_argument("--result", default=None)
    return parser.parse_args()


def main() -> int:
    args = _args()
    import permspec
    import permspec.cli
    import workloads as wl
    workload = wl.WORKLOADS[args.workload]
    if args.smoke:
        workload = wl.smoke(workload)
    inputs = {}
    for name in workload.bases():
        with open(os.path.join(args.work, name + ".txt"), encoding="utf-8") as fh:
            inputs[name] = permspec.read_perm_lines(fh.read())
    ready = time.monotonic()
    if args.setup_only:
        print(repr(ready), repr(speed.burst()))
        return 0
    result = Pass(permspec, wl, workload, inputs, args).run()
    with open(args.result, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


class Pass:
    def __init__(self, permspec, wl, workload, inputs, args):
        self.ps, self.wl, self.w = permspec, wl, workload
        self.inputs, self.args = inputs, args
        self.caches = self._lru_caches()
        self.tracer = None
        if args.trace:
            import tracer
            self.tracer = tracer.Tracer()
            tracer.install(self.tracer)
        self.times: dict[str, float] = {}    # reference seconds (speed.py)
        self.walls: dict[str, float] = {}    # the same units in wall seconds
        self.out: dict = {"cli": [], "specs": {}, "exact": {}, "boltzmann": {},
                          "errors": []}
        self.excluded = 0.0

    def _lru_caches(self):
        from permspec import checks, perms
        found = {}
        for module in (perms, checks):
            for value in vars(module).values():
                if hasattr(value, "cache_clear") and hasattr(value, "cache_info"):
                    found[id(value)] = value
        return list(found.values())

    def _cold(self):
        if self.tracer is not None:
            self.tracer.harvest(self.caches)
        for fn in self.caches:
            fn.cache_clear()
        gc.collect()

    def _timed(self, fn, *args):
        """(result, (wall, factor)) of one unit started with cold caches."""
        self._cold()
        mark = self.speed.mark()
        result = fn(*args)
        return result, self.speed.since(mark)

    def _add(self, metric, took):
        wall, factor = took
        self.times[metric] = self.times.get(metric, 0.0) + wall * factor
        self.walls[metric] = self.walls.get(metric, 0.0) + wall

    def _fail(self, what, exc):
        self.out["errors"].append(f"{what}: {type(exc).__name__}: {exc}")

    def run(self) -> dict:
        self.speed = speed.Speedometer()
        try:
            mark = self.speed.mark()
            self._cli()
            for basis in self.w.specs:
                self._pipeline(basis)
            self._cold()
            wall, factor = self.speed.since(mark)
        finally:
            self.speed.stop()
        self._add("total_s", (wall - self.excluded, factor))
        self.out["times"], self.out["walls"] = self.times, self.walls
        self.out["peak_rss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        if self.tracer is not None:
            path = os.path.join(self.args.work, f"trace-{self.w.name}.json")
            with open(path, "w", encoding="utf-8") as fh:
                json.dump(self.tracer.dump(), fh)
            self.out["trace"] = path
        return self.out

    def _cli(self):
        """``permspec simples`` and ``permspec check`` through cli.main.

        A command run several times counts once, at its median time; the
        other runs are left out of the pass total.
        """
        work = self.args.work
        runs = [(["simples"] + ([] if c.cap is None else ["--cap", str(c.cap)]),
                 c.basis, "simples_s", c.repeats) for c in self.w.simples]
        runs += [(["check", "--max-size", str(self.w.max_size)], b, "check_s", 1)
                 for b in self.w.checks]
        for extra, basis, metric, repeats in runs:
            output = os.path.join(work, f"out-{extra[0]}-{basis}.txt")
            argv = [extra[0], "--basis", os.path.join(work, basis + ".txt"),
                    "-o", output] + extra[1:]
            record = {"command": extra[0], "basis": basis, "code": None}
            self.out["cli"].append(record)
            try:
                timings = []
                for _ in range(repeats):
                    record["code"], took = self._timed(self.ps.cli.main, argv)
                    timings.append(took)
                timings.sort(key=lambda took: took[0] * took[1])
                median = timings[len(timings) // 2]
                self._add(metric, median)
                self.excluded += sum(wall for wall, _ in timings) - median[0]
                with open(output, encoding="utf-8") as fh:
                    record["output"] = fh.read()
            except Exception as exc:  # reported as a failed operation
                self._fail(" ".join(extra + [basis]), exc)

    def _pipeline(self, basis):
        """basis -> disjoint spec text -> counts -> exact and Boltzmann draws."""
        ps, perms = self.ps, self.inputs[basis]
        record = {}
        self.out["specs"][basis] = record
        try:
            (text, system), took = self._timed(self._spec, perms)
            self._add("spec_s", took)
            record["terms"] = sum(len(eq.terms) for eq in system.equations.values())
            record["text"] = text
            self._check(lambda: record.update(
                round_trip=ps.parse_system(text) == system))
            table, took = self._timed(ps.count_coefficients, system, self.w.depth)
            self._add("count_s", took)
            record["counts"] = [table.root_count(n) for n in range(1, self.w.depth + 1)]
        except Exception as exc:  # reported as a failed operation
            self._fail(f"{basis} spec/count", exc)
            return
        for d in self.w.exact:
            if d.basis == basis:
                self._draws("exact", d, system, table,
                            lambda st, d=d: ps.sample_exact(st, d.n))
        for d in self.w.boltzmann:
            if d.basis == basis:
                self._draws("boltzmann", d, system, table,
                            lambda st, d=d: ps.sample_boltzmann(st, d.z, d.window))

    def _spec(self, perms):
        ps = self.ps
        result = ps.compute_simples(perms)
        system = ps.disambiguate_system(
            ps.ambiguous_system(ps.class_input(perms, result.simples)))
        return ps.serialize_system(system), system

    def _draws(self, kind, d, system, table, draw):
        ps, wl = self.ps, self.wl
        state = ps.SamplerState(system, table,
                                seed=wl.stream_seed(self.args.seed, d.basis, kind))
        draws = []
        mark = self.speed.mark()
        try:
            for _ in range(d.k):
                draws.append(draw(state))
        except Exception as exc:  # reported as a failed operation
            self._fail(f"{d.basis} {kind} draw {len(draws)}", exc)
        self._add(f"{kind}_s", self.speed.since(mark))
        self.out[kind][d.basis] = [list(p.values) for p in draws]
        if self.args.pins:
            self._check(lambda: self._pin(kind, d, system, table, draw))

    def _pin(self, kind, d, system, table, draw):
        """The draw stream under the default seed, for the digest pin."""
        state = self.ps.SamplerState(
            system, table, seed=self.wl.stream_seed(self.wl.DEFAULT_SEED, d.basis, kind))
        pinned = [str(draw(state)) for _ in range(self.wl.PIN_DRAWS)]
        self.out.setdefault("pins", {})[f"{kind}:{d.basis}"] = pinned

    def _check(self, fn):
        """Run a check; its time is not part of the pass total."""
        mark = self.speed.mark()
        try:
            fn()
        finally:
            self.excluded += self.speed.since(mark)[0]


if __name__ == "__main__":
    sys.exit(main())
