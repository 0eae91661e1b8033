"""Command-line front end: subcommands, formats, and exit codes."""

import json

import pytest

from permspec import parse_system
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


def test_check_subcommand_passes(basis_file, capsys):
    assert main(["check", "--basis", basis_file("1 3 2\n"),
                 "--max-size", "5"]) == 0
    out = capsys.readouterr().out
    assert out.count("PASS") == 4 and "FAIL" not in out


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
