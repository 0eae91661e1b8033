"""Batch front end: from a basis file to simples, specification, counting
sequence, generating functions, random samples, or a self-check report.

Each subcommand builds its result, an exit code with a JSON payload and a
text, and ``main`` writes it once: the payload (stamped with the schema)
under ``--json``, else the text, to standard output or to ``-o``.

Exit codes: 0 success, 2 simple-permutation search truncated (downstream
outputs refused), 3 invalid input, 4 internal error or failed self-check.
"""

from __future__ import annotations

import argparse
import sys

from .perms import DEFAULT_ORACLE_CAP, Perm, minimal_patterns
from .simples import DEFAULT_SIMPLES_CAP, compute_simples
from .builder import ambiguous_system, class_input
from .disambiguator import disambiguate_system
from .engine import DEFAULT_COUNT_DEPTH, count_coefficients
from .sampler import (
    DivergentSeriesError,
    EmptySizeClassError,
    RejectionBudgetError,
    SamplerState,
    check_boltzmann_options,
    sample_boltzmann,
    sample_exact,
)
from .serial import (
    InvalidInputError,
    JSON_SCHEMA,
    dump_json,
    emit_gf_equations,
    gf_json,
    read_perm_lines,
    serialize_system,
    system_json,
)
from .checks import check_max_size, run_check

EXIT_OK = 0
EXIT_TRUNCATED = 2
EXIT_INVALID = 3
EXIT_INTERNAL = 4


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="permspec",
        description="Specifications, counting and samplers for permutation "
                    "classes given by excluded patterns.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, run, needs_class=True):
        p.set_defaults(run=run)
        p.add_argument("--basis", required=True, metavar="FILE",
                       help="basis file: one permutation literal per line")
        if needs_class:
            p.add_argument("--simples", metavar="FILE", default=None,
                           help="optional file with the class's simple "
                                "permutations (skips the search)")
        p.add_argument("--cap", type=int, default=DEFAULT_SIMPLES_CAP,
                       metavar="N", help="size cap for the simple-permutation "
                       f"search (default {DEFAULT_SIMPLES_CAP})")
        p.add_argument("--json", action="store_true",
                       help="emit a machine-readable mirror of the output")
        p.add_argument("-o", "--output", metavar="FILE", default=None,
                       help="write to FILE instead of standard output")

    p = sub.add_parser("simples", help="list the simple permutations of the class")
    common(p, _cmd_simples, needs_class=False)

    p = sub.add_parser("spec", help="print the combinatorial specification")
    common(p, _cmd_spec)
    p.add_argument("--ambiguous", action="store_true",
                   help="stop before disambiguation")

    p = sub.add_parser("count", help="print the counting sequence")
    common(p, _cmd_count)
    p.add_argument("-N", type=int, default=DEFAULT_COUNT_DEPTH, metavar="DEPTH",
                   help=f"largest size to count (default {DEFAULT_COUNT_DEPTH})")

    p = sub.add_parser("gf", help="print the generating-function equations")
    common(p, _cmd_gf)

    p = sub.add_parser("sample", help="print uniform random members")
    common(p, _cmd_sample)
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
    common(p, _cmd_check)
    p.add_argument("--max-size", type=int, default=6, metavar="N",
                   help="verify membership up to this size, "
                        f"1..{DEFAULT_ORACLE_CAP} (default 6)")
    return parser


def _read_perms(path: str, what: str) -> list[Perm]:
    try:
        with open(path, encoding="utf-8-sig") as handle:
            text = handle.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise InvalidInputError(f"cannot read {what} file: {exc}") from None
    return read_perm_lines(text)


def _load_basis(path: str) -> tuple[Perm, ...]:
    perms = _read_perms(path, "basis")
    if not perms:
        raise InvalidInputError("basis file holds no permutations")
    if any(len(b) < 2 for b in perms):
        raise InvalidInputError("basis elements must have size >= 2")
    minimized = minimal_patterns(perms)
    if len(minimized) != len(set(perms)):
        print("warning: basis was not an antichain; "
              f"minimized to {len(minimized)} element(s)", file=sys.stderr)
    return minimized


def _emit(path: str | None, text: str) -> None:
    if path is None:
        sys.stdout.write(text)
        return
    try:
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(text)
    except OSError as exc:
        raise InvalidInputError(f"cannot write output file: {exc}") from None


def _ambiguous(args):
    """The class's ambiguous system, from the basis and the simples: those
    of the ``--simples`` file, or a search that must be complete."""
    basis = _load_basis(args.basis)
    if args.simples is not None:
        given = class_input(basis, _read_perms(args.simples, "simples"))
        print("warning: using simple permutations from "
              f"{args.simples}; search skipped", file=sys.stderr)
        return ambiguous_system(given)
    result = compute_simples(basis, cap=args.cap)
    if not result.complete:
        print(f"error: simple-permutation search {result.status}; "
              "rerun with a higher --cap or supply --simples", file=sys.stderr)
        raise SystemExit(EXIT_TRUNCATED)
    return ambiguous_system(class_input(basis, result.simples))


def _cmd_simples(args):
    result = compute_simples(_load_basis(args.basis), cap=args.cap)
    lines = [f"# status: {result.status}", *map(str, result.simples)]
    return (EXIT_OK if result.complete else EXIT_TRUNCATED,
            {"kind": "simples", "status": result.status,
             "explored": result.explored,
             "simples": [list(p) for p in result.simples]},
            "\n".join(lines) + "\n")


def _cmd_spec(args):
    system = _ambiguous(args)
    if not args.ambiguous:
        system = disambiguate_system(system)
    return EXIT_OK, system_json(system), serialize_system(system)


def _cmd_count(args):
    system = disambiguate_system(_ambiguous(args))
    counts = count_coefficients(system, args.N).root_counts()
    return (EXIT_OK,
            {"kind": "counts", "basis": [list(b) for b in system.basis],
             "counts": {str(n): str(c) for n, c in counts}},
            "".join(f"{n}\t{c}\n" for n, c in counts))


def _cmd_gf(args):
    system = disambiguate_system(_ambiguous(args))
    return EXIT_OK, gf_json(system), emit_gf_equations(system) + "\n"


def _parse_window(text: str) -> tuple[int, int]:
    try:
        lo, hi = (int(tok) for tok in text.split(":"))
    except ValueError:
        raise InvalidInputError(f"bad window {text!r}, expected LO:HI") from None
    return lo, hi


def _cmd_sample(args):
    if args.n < 1:
        raise InvalidInputError("sample size must be >= 1")
    if args.count < 1:
        raise InvalidInputError("sample count must be >= 1")
    if args.method == "exact" and (args.z, args.window) != (None, None):
        raise InvalidInputError("--z and --window are boltzmann options")
    window = _parse_window(args.window) if args.window else (args.n, args.n)
    if args.method == "boltzmann":
        if args.z is None:
            raise InvalidInputError("the boltzmann method needs --z")
        check_boltzmann_options(args.z, window)
    system = disambiguate_system(_ambiguous(args))
    if args.method == "exact":
        state = SamplerState(system, count_coefficients(system, args.n),
                             seed=args.seed)
        draws = [sample_exact(state, args.n) for _ in range(args.count)]
    else:  # the Boltzmann sampler reads series values, not a count table
        state = SamplerState(system, seed=args.seed)
        draws = [sample_boltzmann(state, args.z, window)
                 for _ in range(args.count)]
    return (EXIT_OK,
            {"kind": "samples", "seed": args.seed, "method": args.method,
             "samples": [list(p) for p in draws]},
            "".join(str(p) + "\n" for p in draws))


def _cmd_check(args):
    check_max_size(args.max_size)
    amb = _ambiguous(args)
    report = run_check(amb, disambiguate_system(amb), args.max_size)
    lines = [f"{'PASS' if ok else 'FAIL'}  {name}" + (f"  [{d}]" if d else "")
             for name, ok, d in report]
    return (EXIT_OK if all(ok for _, ok, _ in report) else EXIT_INTERNAL,
            {"kind": "check", "max_size": args.max_size,
             "results": [{"name": n, "passed": ok, "detail": d}
                         for n, ok, d in report]},
            "\n".join(lines) + "\n")


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 0 for --help and 2 for usage errors; fold the
        # latter into the invalid-input code
        return EXIT_OK if not exc.code else EXIT_INVALID
    try:
        code, payload, text = args.run(args)
        _emit(args.output, dump_json({"schema": JSON_SCHEMA, **payload})
              if args.json else text)
    except SystemExit as exc:
        return int(exc.code or 0)
    except (InvalidInputError, EmptySizeClassError, DivergentSeriesError,
            RejectionBudgetError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID
    except Exception as exc:
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    if code == EXIT_TRUNCATED:  # after the listing, which it qualifies
        print("warning: search truncated; the listed set may be incomplete",
              file=sys.stderr)
    return code


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
