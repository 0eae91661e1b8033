"""The traced run: spans and counters recorded from outside the library.

``install`` wraps public permspec functions in every module namespace that
holds them, because each module binds the names it imports when it is
imported.  Stage-level calls get a span (name, start, end, parent); the hot
algebra and membership functions, called millions of times, get counters
only.  The lru_cache statistics of ``permspec.perms`` are read, not
wrapped.  Spans stay in memory until the pass ends; ``per_layer`` turns
spans and counters into the per-layer metrics.
"""

from __future__ import annotations

import functools
import math
import sys
import time
from collections import Counter

PERMS_CACHES = ("contains", "embeddings", "is_simple", "tree_labels",
                "top_split")

# Spans whose summed durations are reported, by metric name.
SPAN_SECONDS = {
    "simples.s": "compute_simples",
    "builder.s": "ambiguous_system",
    "disambiguator.s": "disambiguate_system",
    "engine.s": "count_coefficients",
    "engine.suffix_tables.s": "CountTable.suffix_tables",
    "sampler.exact.s": "sample_exact",
    "sampler.series.s": "evaluate_series",
    "sampler.boltzmann.s": "sample_boltzmann",
    "checks.equation_violations.s": "equation_violations",
    "checks.conservation_violations.s": "conservation_violations",
    "checks.count_violations.s": "count_violations",
    "serial.serialize.s": "serialize_system",
    "serial.parse.s": "parse_system",
}

# Counters reported as they are.
COUNTERS = (
    "simples.found", "simples.explored", "simples.candidates",
    "restrictions.built", "restrictions.intersect_restrictions.calls",
    "restrictions.intersect_terms.calls", "restrictions.intersect_terms.nonempty",
    "restrictions.complement_term.calls", "restrictions.in_restriction.calls",
    "builder.equations", "builder.terms",
    "disambiguator.equations_out", "disambiguator.terms_out",
    "disambiguator.disambiguate_equation.calls", "disambiguator.largest_group",
    "disambiguator.restriction_equation.calls",
    "engine.depth", "engine.nonterminals", "engine.terms",
    "engine.suffix_tables.calls",
    "sampler.exact.draws", "sampler.boltzmann.draws",
    "checks.perms_examined", "serial.spec_bytes",
    "perms.cache_entries",
) + tuple(f"perms.{f}.{k}" for f in PERMS_CACHES[:3]
          for k in ("calls", "distinct")) + (
    "perms.tree_labels.distinct", "perms.top_split.distinct",
)

DISTINCT = ("restrictions.distinct", "restrictions.intersect_restrictions.distinct",
            "restrictions.complement_term.distinct")


class Tracer:
    def __init__(self):
        self.spans: list[list] = []      # [name, start, end, parent index]
        self.counters: Counter = Counter()
        self.seen: dict[str, set] = {name: set() for name in DISTINCT}
        self._stack: list[int] = []
        self._tables: dict[int, object] = {}

    def span(self, name, fn, after=None):
        """Wrap fn in a span; ``name`` may be a function of the arguments."""
        def wrapper(*args, **kwargs):
            label = name(args) if callable(name) else name
            rec = [label, time.perf_counter(), None,
                   self._stack[-1] if self._stack else -1]
            self._stack.append(len(self.spans))
            self.spans.append(rec)
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = time.perf_counter()
                self._stack.pop()
            if after is not None:
                after(args, result)
            return result
        return functools.wraps(fn)(wrapper)

    def count(self, fn, after):
        """Wrap fn with a cheap per-call hook and no span."""
        def wrapper(*args, **kwargs):
            result = fn(*args, **kwargs)
            after(args, result)
            return result
        return functools.wraps(fn)(wrapper)

    def suffix_tables(self, fn):
        """Span the calls that build a table; only count those that reuse one."""
        def wrapper(table, term):
            start = time.perf_counter()
            result = fn(table, term)
            end = time.perf_counter()
            self.counters["engine.suffix_tables.calls"] += 1
            if id(result) in self._tables:
                self.counters["engine.suffix_tables.reuse_s"] += end - start
            else:
                self._tables[id(result)] = result
                self.spans.append(["CountTable.suffix_tables", start, end,
                                   self._stack[-1] if self._stack else -1])
            return result
        return functools.wraps(fn)(wrapper)

    def harvest(self, caches) -> None:
        """Fold the perms cache statistics in; called before caches clear."""
        perms = sys.modules["permspec.perms"]
        entries = 0
        for fn in caches:
            info = fn.cache_info()
            if getattr(fn, "__module__", None) == "permspec.perms":
                entries += info.currsize
        self.counters["perms.cache_entries"] = max(
            self.counters["perms.cache_entries"], entries)
        for name in PERMS_CACHES:
            info = getattr(perms, name).cache_info()
            self.counters[f"perms.{name}.calls"] += info.hits + info.misses
            self.counters[f"perms.{name}.distinct"] += info.misses
        self._tables.clear()

    def dump(self) -> dict:
        counters = dict(self.counters)
        for name, items in self.seen.items():
            counters[name] = len(items)
        return {"spans": self.spans, "counters": counters}


def _patch(modules, orig, wrapper) -> None:
    for module in modules:
        for name, value in list(vars(module).items()):
            if value is orig:
                setattr(module, name, wrapper)


def install(tracer: Tracer) -> None:
    """Wrap the permspec functions the per-layer metrics need."""
    import permspec
    from permspec import (builder, checks, cli, disambiguator, engine, perms,
                          restrictions, sampler, serial, simples)
    modules = (permspec, perms, simples, restrictions, builder,
               disambiguator, engine, sampler, checks, serial, cli)
    c, seen = tracer.counters, tracer.seen

    def terms(system) -> int:
        return sum(len(eq.terms) for eq in system.equations.values())

    def on_simples(args, res):
        c["simples.found"] += len(res.simples)
        c["simples.explored"] += res.explored

    def on_ambiguous(args, system):
        c["builder.equations"] += len(system.equations)
        c["builder.terms"] += terms(system)

    def on_disambiguate(args, system):
        c["disambiguator.equations_out"] += len(system.equations)
        c["disambiguator.terms_out"] += terms(system)

    def on_equation(args, eq):
        c["disambiguator.disambiguate_equation.calls"] += 1
        groups = Counter(t.root for t in args[0].terms)
        c["disambiguator.largest_group"] = max(
            c["disambiguator.largest_group"], max(groups.values(), default=0))

    def on_count(args, table):
        c["engine.depth"] = max(c["engine.depth"], table.depth)
        c["engine.nonterminals"] += len(table.system.equations)
        c["engine.terms"] += terms(table.system)

    def on_boltzmann(args, perm):
        c["sampler.boltzmann.draws"] += 1
        c["sampler.boltzmann.size_sum"] += len(perm)

    def on_serialize(args, text):
        c["serial.spec_bytes"] += len(text.encode())

    def bump(key):
        def after(args, result):
            c[key] += 1
        return after

    spans = {
        simples.compute_simples: ("compute_simples", on_simples),
        builder.ambiguous_system: ("ambiguous_system", on_ambiguous),
        disambiguator.disambiguate_system: ("disambiguate_system",
                                            on_disambiguate),
        disambiguator.disambiguate_equation: ("disambiguate_equation",
                                              on_equation),
        disambiguator.restriction_equation: (
            "restriction_equation", bump("disambiguator.restriction_equation.calls")),
        engine.count_coefficients: ("count_coefficients", on_count),
        sampler.sample_exact: ("sample_exact", bump("sampler.exact.draws")),
        sampler.evaluate_series: ("evaluate_series", None),
        sampler.sample_boltzmann: ("sample_boltzmann", on_boltzmann),
        checks.equation_violations: ("equation_violations", None),
        checks.conservation_violations: ("conservation_violations", None),
        checks.count_violations: ("count_violations", None),
        serial.serialize_system: ("serialize_system", on_serialize),
        serial.parse_system: ("parse_system", None),
        cli.main: (lambda args: "cli.main." + args[0][0], None),
    }
    for fn, (name, after) in spans.items():
        _patch(modules, fn, tracer.span(name, fn, after))

    def on_intersect_r(args, result):
        c["restrictions.intersect_restrictions.calls"] += 1
        seen["restrictions.intersect_restrictions.distinct"].add(args)

    def on_intersect_t(args, result):
        c["restrictions.intersect_terms.calls"] += 1
        c["restrictions.intersect_terms.nonempty"] += result is not None

    def on_complement(args, result):
        c["restrictions.complement_term.calls"] += 1
        seen["restrictions.complement_term.distinct"].add(args[0])

    def on_examined(args, result):
        c["checks.perms_examined"] += len(result)

    def on_enumerated(args, result):
        c["checks.perms_examined"] += math.factorial(args[1])

    counters = {
        restrictions.intersect_restrictions: on_intersect_r,
        restrictions.intersect_terms: on_intersect_t,
        restrictions.complement_term: on_complement,
        restrictions.in_restriction: bump("restrictions.in_restriction.calls"),
    }
    for fn, after in counters.items():
        _patch(modules, fn, tracer.count(fn, after))
    # Calls made from a single module only: look the name up there alone.
    simples.is_simple = tracer.count(simples.is_simple,
                                     bump("simples.candidates"))
    checks.perms_of_size = tracer.count(checks.perms_of_size, on_examined)
    checks.enumerate_avoiders = tracer.count(checks.enumerate_avoiders,
                                             on_enumerated)

    post_init = restrictions.Restriction.__post_init__

    def counted_post_init(self):
        post_init(self)
        c["restrictions.built"] += 1
        seen["restrictions.distinct"].add(self)
    restrictions.Restriction.__post_init__ = counted_post_init
    engine.CountTable.suffix_tables = tracer.suffix_tables(
        engine.CountTable.suffix_tables)


def unit(metric: str) -> str:
    if metric.endswith((".s", "_s")):
        return "s"
    return "ratio" if metric.endswith("_ratio") else "count"


def _self_seconds(spans, prefix: str) -> float:
    """Summed duration of the spans named ``prefix`` minus their children."""
    own = {i: s[2] - s[1] for i, s in enumerate(spans) if s[0] == prefix}
    total = sum(own.values())
    for s in spans:
        if s[3] in own:
            total -= s[2] - s[1]
    return total


def per_layer(trace: dict, overhead_s: float) -> dict[str, float]:
    """The per-layer metrics of one traced pass."""
    spans, counters = trace["spans"], trace["counters"]
    out: dict[str, float] = {}
    seconds = Counter()
    for name, start, end, _ in spans:
        seconds[name] += end - start
    for metric, span in SPAN_SECONDS.items():
        out[metric] = seconds[span]
    out["engine.suffix_tables.s"] += counters.get("engine.suffix_tables.reuse_s", 0.0)
    for metric in COUNTERS + DISTINCT:
        out[metric] = counters.get(metric, 0)
    built = out["restrictions.built"]
    out["restrictions.useful_ratio"] = \
        out["restrictions.distinct"] / built if built else 0.0
    draws = out["sampler.boltzmann.draws"]
    out["sampler.boltzmann.mean_size"] = \
        counters.get("sampler.boltzmann.size_sum", 0) / draws if draws else 0.0
    for command in ("simples", "check"):
        out[f"cli.main.{command}.s"] = seconds[f"cli.main.{command}"]
        out[f"cli.main.{command}.self_s"] = _self_seconds(
            spans, f"cli.main.{command}")
    out["trace.overhead_s"] = overhead_s
    return out
