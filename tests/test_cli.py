"""Command-line front end: subcommands, formats, and exit codes."""

import hashlib
import json
from collections import Counter

import pytest

from permspec import cli, count_coefficients, parse_system
from permspec.checks import check_max_size
from permspec.cli import main

ONE_SIMPLE = "1 2 4 3\n2 4 1 3\n5 3 1 6 4 2\n4 1 3 5 2\n"
SEPARABLE = "2 4 1 3\n3 1 4 2\n"


@pytest.fixture()
def basis_file(tmp_path):
    def write(content, name="basis.txt"):
        path = tmp_path / name
        path.write_text(content, encoding="utf-8")
        return str(path)
    return write


def test_spec_header_and_root(basis_file, capsys):
    assert main(["spec", "--basis", basis_file(ONE_SIMPLE)]) == 0
    out = capsys.readouterr().out
    lines = out.splitlines()
    assert "simples: 3 1 4 2" in lines
    assert "root: C<1 2 4 3>()" in lines
    assert parse_system(out).mode == "disjoint"


def test_spec_ambiguous_flag(basis_file, capsys):
    assert main(["spec", "--basis", basis_file(ONE_SIMPLE), "--ambiguous"]) == 0
    out = capsys.readouterr().out
    assert "mode: ambiguous" in out.splitlines()
    assert parse_system(out).mode == "ambiguous"


def test_count_tail_line(basis_file, capsys):
    assert main(["count", "--basis", basis_file(SEPARABLE), "-N", "7"]) == 0
    out = capsys.readouterr().out
    assert out.splitlines()[-1] == "7\t1806"


def test_truncated_simples_refuse_spec(basis_file, capsys):
    assert main(["spec", "--basis", basis_file("1 2 3\n"), "--cap", "8"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "truncated" in captured.err


def test_simples_subcommand_reports_truncation(basis_file, capsys):
    assert main(["simples", "--basis", basis_file("1 2 3\n"), "--cap", "8"]) == 2
    out = capsys.readouterr().out
    assert out.splitlines()[0] == "# status: truncated at 8"
    assert "3 1 4 2" in out.splitlines()


def test_simples_output_is_pinned(basis_file, capsys):
    # Digests of the text and JSON output of the two-point search that the
    # one-point search with parallel alternations replaced.
    basis = basis_file("1 2 3\n")
    assert main(["simples", "--basis", basis, "--cap", "10"]) == 2
    out = capsys.readouterr().out
    lines = out.splitlines()
    assert len(lines) == 386
    assert hashlib.sha256(out.encode()).hexdigest() == \
        "2b9e02f8c27e3faf00c1588b9425f0025bf8d5fdd74f27ac1c1fc594003f3620"
    sizes = Counter(len(line.split()) for line in lines[1:])
    assert [sizes[n] for n in range(4, 11)] == [2, 2, 7, 14, 37, 90, 233]

    assert main(["simples", "--basis", basis, "--cap", "10", "--json"]) == 2
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == \
        "6372f1d72b0539f9b49b951ee9e008e7a8ad72333e41116f094362d3fdecba3f"


def test_simples_subcommand_complete(basis_file, capsys):
    assert main(["simples", "--basis", basis_file(ONE_SIMPLE)]) == 0
    out = capsys.readouterr().out
    assert out.splitlines() == ["# status: complete", "3 1 4 2"]


def test_simples_file_wins_with_warning(basis_file, capsys):
    basis = basis_file(ONE_SIMPLE)
    simples = basis_file("3 1 4 2\n", name="simples.txt")
    assert main(["spec", "--basis", basis, "--simples", simples]) == 0
    captured = capsys.readouterr()
    assert "search skipped" in captured.err
    assert "root: C<1 2 4 3>()" in captured.out


def test_usage_errors_exit_3(basis_file, capsys):
    assert main(["count", "--basis", basis_file(SEPARABLE), "--bogus"]) == 3
    assert main(["bogus-command"]) == 3
    capsys.readouterr()


def test_invalid_inputs_exit_3(basis_file, capsys, tmp_path):
    assert main(["count", "--basis", str(tmp_path / "missing.txt")]) == 3
    assert main(["count", "--basis", basis_file("")]) == 3
    assert main(["count", "--basis", basis_file("not a perm\n")]) == 3
    assert main(["count", "--basis", basis_file("1\n")]) == 3
    capsys.readouterr()
    bad_simples = basis_file("1 3 2\n", name="simples.txt")
    assert main(["spec", "--basis", basis_file("1 3 2\n"),
                 "--simples", bad_simples]) == 3
    assert capsys.readouterr().err == "error: not a simple permutation: 1 3 2\n"
    covered = basis_file("3 1 4 2\n", name="covered.txt")
    assert main(["spec", "--basis", basis_file("2 1\n"),
                 "--simples", covered]) == 3
    assert capsys.readouterr().err == (
        "error: simple permutation 3 1 4 2 contains a basis element\n")


def test_out_of_range_options_exit_3(basis_file, capsys):
    basis = basis_file("1 3 2\n")
    cases = {
        ("count", "-N", "0"): "depth must be >= 1",
        ("check", "--max-size", "0"): "depth must be >= 1",
        ("spec", "--cap", "3"): "cap must be >= 6, got 3",
        ("sample", "-n", "3", "--method", "boltzmann", "--z", "-1"):
            "z must be positive",
        ("sample", "-n", "3", "--method", "boltzmann", "--z", "0.2",
         "--window", "5:3"): "bad size window: (5, 3)",
    }
    for argv, message in cases.items():
        assert main([*argv, "--basis", basis]) == 3
        assert capsys.readouterr().err == f"error: {message}\n"


def test_internal_value_error_exits_4(basis_file, capsys, monkeypatch):
    # A ValueError from inside a stage is a bug, not bad input.
    def broken(system):
        raise ValueError("inconsistent state")
    monkeypatch.setattr(cli, "disambiguate_system", broken)
    assert main(["spec", "--basis", basis_file("1 3 2\n")]) == 4
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "internal error: ValueError: inconsistent state\n"


def test_basis_minimization_warns(basis_file, capsys):
    assert main(["count", "--basis", basis_file("1 2\n1 2 4 3\n"), "-N", "3"]) == 0
    captured = capsys.readouterr()
    assert "not an antichain" in captured.err
    assert captured.out.splitlines() == ["1\t1", "2\t1", "3\t1"]


def test_gf_output(basis_file, capsys):
    assert main(["gf", "--basis", basis_file(SEPARABLE)]) == 0
    out = capsys.readouterr().out
    assert out.splitlines()[0] == \
        "F{C<>()}(z) = z + F{C+<>()}(z)*F{C<>()}(z) + F{C-<>()}(z)*F{C<>()}(z)"


def test_sample_reproducible_and_valid(basis_file, capsys):
    argv = ["sample", "--basis", basis_file("1 3 2\n"), "-n", "6",
            "--count", "5", "--seed", "12"]
    assert main(argv) == 0
    first = capsys.readouterr().out
    assert main(argv) == 0
    assert capsys.readouterr().out == first
    assert all(len(line.split()) == 6 for line in first.splitlines())


def test_sample_boltzmann_needs_z(basis_file, capsys):
    argv = ["sample", "--basis", basis_file("1 3 2\n"), "-n", "4",
            "--method", "boltzmann"]
    assert main(argv) == 3
    capsys.readouterr()
    assert main(argv + ["--z", "0.2", "--window", "3:5", "--count", "3"]) == 0
    out = capsys.readouterr().out
    assert all(3 <= len(line.split()) <= 5 for line in out.splitlines())


def test_sample_rejects_boltzmann_options_before_building(
        basis_file, capsys, monkeypatch):
    def unreachable(system):
        raise AssertionError("the specification was built")
    monkeypatch.setattr(cli, "disambiguate_system", unreachable)
    basis = basis_file("2 3 1 4\n4 1 3 2\n3 1 2 4 5\n")
    cases = {
        ("--z", "-1"): "z must be positive",
        ("--z", "0"): "z must be positive",
        ("--z", "nan"): "z must be positive",
        ("--z", "0.2", "--window", "5:3"): "bad size window: (5, 3)",
        ("--z", "0.2", "--window", "0:3"): "bad size window: (0, 3)",
        (): "the boltzmann method needs --z",
    }
    for options, message in cases.items():
        assert main(["sample", "--basis", basis, "-n", "3",
                     "--method", "boltzmann", *options]) == 3
        assert capsys.readouterr().err == f"error: {message}\n"


def test_sample_count_table_depth_is_n(basis_file, capsys, monkeypatch):
    # The Boltzmann sampler reads no count table, so it builds none; the
    # exact sampler's table goes to depth n.
    depths = []

    def recording(system, depth):
        depths.append(depth)
        return count_coefficients(system, depth)
    monkeypatch.setattr(cli, "count_coefficients", recording)
    basis = basis_file("1 3 2\n")
    assert main(["sample", "--basis", basis, "-n", "5",
                 "--method", "boltzmann", "--z", "0.2",
                 "--window", "1:3000"]) == 0
    assert depths == []
    assert len(capsys.readouterr().out.splitlines()) == 1
    assert main(["sample", "--basis", basis, "-n", "5"]) == 0
    assert depths == [5]
    assert len(capsys.readouterr().out.splitlines()) == 1


def test_sample_deep_chain_exits_0(basis_file, capsys):
    # Av(21) holds only identities, whose trees nest as deep as the size.
    argv = ["sample", "--basis", basis_file("2 1\n"), "-n", "600"]
    assert main(argv) == 0
    assert capsys.readouterr().out == " ".join(map(str, range(1, 601))) + "\n"
    assert main(argv + ["--method", "boltzmann", "--z", "0.999",
                        "--window", "1000:1200", "--count", "2"]) == 0
    for line in capsys.readouterr().out.splitlines():
        values = [int(v) for v in line.split()]
        assert 1000 <= len(values) <= 1200
        assert values == list(range(1, len(values) + 1))


def test_check_subcommand_passes(basis_file, capsys):
    assert main(["check", "--basis", basis_file("1 3 2\n"),
                 "--max-size", "5"]) == 0
    out = capsys.readouterr().out
    assert out.count("PASS") == 4 and "FAIL" not in out


def test_check_with_too_few_simples_fails_the_count(basis_file, capsys):
    # With no simples the system describes only the separable members, but
    # the walk still keeps every avoider of the basis: the count must fail.
    basis = basis_file(ONE_SIMPLE)
    empty = basis_file("", name="simples.txt")
    assert main(["check", "--basis", basis, "--simples", empty,
                 "--max-size", "7"]) == 4
    lines = capsys.readouterr().out.splitlines()
    assert [line.split()[0] for line in lines[:3]] == ["PASS"] * 3
    assert lines[3:] == ["FAIL  counting equality  [4 violation(s); first: "
                         "size 4: engine 21, enumeration 22]"]


def test_check_size_is_checked_before_building(basis_file, capsys,
                                              monkeypatch):
    # Sizes past the oracle cap would scan tens of millions of permutations.
    def unreachable(*args):
        raise AssertionError("built a system for a rejected size")
    monkeypatch.setattr(cli, "_ambiguous", unreachable)
    basis = basis_file("1 3 2\n")
    cases = {"0": "depth must be >= 1", "11": "oracle size 11 exceeds cap 10"}
    for size, message in cases.items():
        assert main(["check", "--basis", basis, "--max-size", size]) == 3
        assert capsys.readouterr().err == f"error: {message}\n"
    # The accepted edge, checked without running it.
    args = cli._build_parser().parse_args(
        ["check", "--basis", basis, "--max-size", "10"])
    assert args.max_size == 10
    check_max_size(args.max_size)


def test_json_mirrors(basis_file, capsys):
    basis = basis_file(ONE_SIMPLE)
    assert main(["simples", "--basis", basis, "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["kind"] == "simples" and payload["simples"] == [[3, 1, 4, 2]]

    assert main(["count", "--basis", basis, "-N", "5", "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["kind"] == "counts" and payload["counts"]["5"] == "87"

    assert main(["sample", "--basis", basis, "-n", "5", "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["kind"] == "samples" and len(payload["samples"][0]) == 5


def test_output_file(basis_file, tmp_path, capsys):
    target = tmp_path / "out.txt"
    assert main(["count", "--basis", basis_file(SEPARABLE), "-N", "4",
                 "-o", str(target)]) == 0
    capsys.readouterr()
    assert target.read_text().splitlines()[-1] == "4\t22"


def test_environment_defaults(basis_file, capsys, monkeypatch):
    monkeypatch.setenv("PERMSPEC_N", "3")
    assert main(["count", "--basis", basis_file(SEPARABLE)]) == 0
    out = capsys.readouterr().out
    assert out.splitlines() == ["1\t1", "2\t2", "3\t6"]
