"""Batch front end: from a basis file to simples, specification, counting
sequence, generating functions, random samples, or a self-check report.

Exit codes: 0 success, 2 simple-permutation search truncated (downstream
outputs refused), 3 invalid input, 4 internal safety valve or failed
self-check.  Defaults for the search cap and counting depth can come from
the PERMSPEC_CAP and PERMSPEC_N environment variables.
"""

from __future__ import annotations

import argparse
import os
import sys

from .perms import Perm, minimal_patterns
from .simples import DEFAULT_SIMPLES_CAP, SimplesResult, compute_simples
from .builder import ambiguous_system, class_input
from .disambiguator import IterationLimitError, disambiguate_system
from .engine import DEFAULT_COUNT_DEPTH, count_coefficients, emit_gf_equations
from .sampler import (
    DivergentSeriesError,
    EmptySizeClassError,
    RejectionBudgetError,
    SamplerState,
    sample_boltzmann,
    sample_exact,
)
from .serial import (
    InvalidInputError,
    JSON_SCHEMA,
    dump_json,
    read_perm_lines,
    serialize_system,
    system_json,
)
from .checks import run_check

EXIT_OK = 0
EXIT_TRUNCATED = 2
EXIT_INVALID = 3
EXIT_INTERNAL = 4


def _env_int(name: str, fallback: int) -> int:
    value = os.environ.get(name)
    if value is None:
        return fallback
    try:
        return int(value)
    except ValueError:
        raise InvalidInputError(f"bad {name}: {value!r}") from None


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="permspec",
        description="Specifications, counting and samplers for permutation "
                    "classes given by excluded patterns.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, needs_class=True):
        p.add_argument("--basis", required=True, metavar="FILE",
                       help="basis file: one permutation literal per line")
        if needs_class:
            p.add_argument("--simples", metavar="FILE", default=None,
                           help="optional file with the class's simple "
                                "permutations (skips the search)")
        p.add_argument("--cap", type=int, default=None, metavar="N",
                       help="size cap for the simple-permutation search")
        p.add_argument("--json", action="store_true",
                       help="emit a machine-readable mirror of the output")
        p.add_argument("-o", "--output", metavar="FILE", default=None,
                       help="write to FILE instead of standard output")

    p = sub.add_parser("simples", help="list the simple permutations of the class")
    common(p, needs_class=False)

    p = sub.add_parser("spec", help="print the combinatorial specification")
    common(p)
    p.add_argument("--ambiguous", action="store_true",
                   help="stop before disambiguation")

    p = sub.add_parser("count", help="print the counting sequence")
    common(p)
    p.add_argument("-N", type=int, default=None, metavar="DEPTH",
                   help="largest size to count (default 40)")

    p = sub.add_parser("gf", help="print the generating-function equations")
    common(p)

    p = sub.add_parser("sample", help="print uniform random members")
    common(p)
    p.add_argument("-n", type=int, required=True, metavar="SIZE",
                   help="target size")
    p.add_argument("--count", type=int, default=1, metavar="K",
                   help="number of samples (default 1)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--method", choices=("exact", "boltzmann"), default="exact")
    p.add_argument("--z", type=float, default=None,
                   help="series parameter for the boltzmann method")
    p.add_argument("--window", metavar="LO:HI", default=None,
                   help="accepted size range for the boltzmann method "
                        "(default n:n)")

    p = sub.add_parser("check", help="run the oracle cross-validation suite")
    common(p)
    p.add_argument("--max-size", type=int, default=6, metavar="N",
                   help="verify membership up to this size (default 6)")
    return parser


def _load_basis(path: str) -> tuple[Perm, ...]:
    try:
        with open(path, encoding="utf-8") as handle:
            perms = read_perm_lines(handle.read())
    except OSError as exc:
        raise InvalidInputError(f"cannot read basis file: {exc}") from None
    if not perms:
        raise InvalidInputError("basis file holds no permutations")
    if any(len(b) < 2 for b in perms):
        raise InvalidInputError("basis elements must have size >= 2")
    minimized = minimal_patterns(perms)
    if len(minimized) != len(set(perms)):
        print("warning: basis was not an antichain; "
              f"minimized to {len(minimized)} element(s)", file=sys.stderr)
    return minimized


def _load_simples(args, basis) -> SimplesResult:
    if getattr(args, "simples", None):
        try:
            with open(args.simples, encoding="utf-8") as handle:
                perms = read_perm_lines(handle.read())
        except OSError as exc:
            raise InvalidInputError(f"cannot read simples file: {exc}") from None
        found = class_input(basis, perms).simples
        print("warning: using simple permutations from "
              f"{args.simples}; search skipped", file=sys.stderr)
        return SimplesResult(found, True, max((len(p) for p in found), default=4))
    cap = args.cap if args.cap is not None else _env_int(
        "PERMSPEC_CAP", DEFAULT_SIMPLES_CAP)
    return compute_simples(basis, cap=cap)


def _emit(args, text: str) -> None:
    if args.output:
        with open(args.output, "w", encoding="utf-8") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)


def _ambiguous(args):
    """The class's ambiguous system, from the basis and the simples."""
    basis = _load_basis(args.basis)
    result = _load_simples(args, basis)
    if not result.complete:
        print(f"error: simple-permutation search {result.status}; "
              "rerun with a higher --cap or supply --simples", file=sys.stderr)
        raise SystemExit(EXIT_TRUNCATED)
    return ambiguous_system(class_input(basis, result.simples))


def _specification(args):
    system = _ambiguous(args)
    if getattr(args, "ambiguous", False):
        return system
    return disambiguate_system(system)


def _cmd_simples(args) -> int:
    basis = _load_basis(args.basis)
    result = _load_simples(args, basis)
    if args.json:
        _emit(args, dump_json({
            "schema": JSON_SCHEMA, "kind": "simples",
            "status": result.status, "explored": result.explored,
            "simples": [list(p.values) for p in result.simples]}))
    else:
        lines = [f"# status: {result.status}"]
        lines += [str(p) for p in result.simples]
        _emit(args, "\n".join(lines) + "\n")
    if not result.complete:
        print("warning: search truncated; the listed set may be incomplete",
              file=sys.stderr)
        return EXIT_TRUNCATED
    return EXIT_OK


def _cmd_spec(args) -> int:
    system = _specification(args)
    _emit(args, dump_json(system_json(system)) if args.json
          else serialize_system(system))
    return EXIT_OK


def _cmd_count(args) -> int:
    system = _specification(args)
    depth = args.N if args.N is not None else _env_int(
        "PERMSPEC_N", DEFAULT_COUNT_DEPTH)
    table = count_coefficients(system, depth)
    if args.json:
        _emit(args, dump_json({
            "schema": JSON_SCHEMA, "kind": "counts",
            "basis": [list(b.values) for b in system.basis],
            "counts": {str(n): str(c) for n, c in table.root_counts()}}))
    else:
        _emit(args, "".join(f"{n}\t{c}\n" for n, c in table.root_counts()))
    return EXIT_OK


def _cmd_gf(args) -> int:
    system = _specification(args)
    gf = emit_gf_equations(system)
    if args.json:
        _emit(args, dump_json({
            "schema": JSON_SCHEMA, "kind": "gf", "root": gf.root_name,
            "equations": [{"lhs": e.name, "atom": e.has_atom,
                           "products": [list(p) for p in e.products]}
                          for e in gf.equations]}))
    else:
        _emit(args, gf.render() + "\n")
    return EXIT_OK


def _parse_window(text: str) -> tuple[int, int]:
    try:
        lo, hi = (int(tok) for tok in text.split(":"))
    except ValueError:
        raise InvalidInputError(f"bad window {text!r}, expected LO:HI") from None
    return lo, hi


def _cmd_sample(args) -> int:
    if args.n < 1:
        raise InvalidInputError("sample size must be >= 1")
    if args.count < 1:
        raise InvalidInputError("sample count must be >= 1")
    system = _specification(args)
    window = _parse_window(args.window) if args.window else (args.n, args.n)
    depth = max(args.n, window[1])
    table = count_coefficients(system, depth)
    state = SamplerState(system, table, seed=args.seed)
    if args.method == "exact":
        draws = [sample_exact(state, args.n) for _ in range(args.count)]
    else:
        if args.z is None:
            raise InvalidInputError("the boltzmann method needs --z")
        draws = [sample_boltzmann(state, args.z, window)
                 for _ in range(args.count)]
    if args.json:
        _emit(args, dump_json({
            "schema": JSON_SCHEMA, "kind": "samples", "seed": args.seed,
            "method": args.method,
            "samples": [list(p.values) for p in draws]}))
    else:
        _emit(args, "".join(str(p) + "\n" for p in draws))
    return EXIT_OK


def _cmd_check(args) -> int:
    amb = _ambiguous(args)
    dis = disambiguate_system(amb)
    report = run_check(amb, dis, args.max_size)
    if args.json:
        _emit(args, dump_json({
            "schema": JSON_SCHEMA, "kind": "check",
            "max_size": args.max_size,
            "results": [{"name": n, "passed": ok, "detail": d}
                        for n, ok, d in report]}))
    else:
        lines = [f"{'PASS' if ok else 'FAIL'}  {name}" + (f"  [{d}]" if d else "")
                 for name, ok, d in report]
        _emit(args, "\n".join(lines) + "\n")
    return EXIT_OK if all(ok for _, ok, _ in report) else EXIT_INTERNAL


_COMMANDS = {
    "simples": _cmd_simples,
    "spec": _cmd_spec,
    "count": _cmd_count,
    "gf": _cmd_gf,
    "sample": _cmd_sample,
    "check": _cmd_check,
}


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 0 for --help and 2 for usage errors; fold the
        # latter into the invalid-input code
        return EXIT_OK if not exc.code else EXIT_INVALID
    try:
        return _COMMANDS[args.command](args)
    except SystemExit as exc:
        return int(exc.code or 0)
    except InvalidInputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID
    except (EmptySizeClassError, DivergentSeriesError,
            RejectionBudgetError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID
    except IterationLimitError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
