"""Command-line front end: subcommands, formats, and exit codes."""

import hashlib
import json
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

from permspec import cli, count_coefficients, parse_system, serialize_system
from permspec.checks import check_max_size
from permspec.cli import main

from conftest import CORPUS

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


def test_unreadable_and_unwritable_files_exit_3(basis_file, capsys, tmp_path):
    # An output path that cannot be opened, or an input file that is not
    # UTF-8, is bad input, not an internal error.
    basis = basis_file(SEPARABLE)
    latin = tmp_path / "latin.txt"
    latin.write_bytes(b"\xff3 1 4 2\n")
    cases = {
        ("count", "--basis", basis, "-o", str(tmp_path / "no" / "x")):
            "error: cannot write output file: ",
        ("spec", "--basis", basis, "-o", str(tmp_path)):
            "error: cannot write output file: ",
        ("spec", "--basis", str(latin)): "error: cannot read basis file: ",
        ("spec", "--basis", basis, "--simples", str(latin)):
            "error: cannot read simples file: ",
    }
    for argv, prefix in cases.items():
        assert main(list(argv)) == 3, argv
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.startswith(prefix), argv


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


def test_files_with_a_byte_order_mark_read_like_plain_ones(basis_file, capsys):
    def run(argv):
        assert main(argv) == 0
        return capsys.readouterr().out

    bom = "\ufeff"  # written as the bytes EF BB BF
    plain = basis_file(ONE_SIMPLE)
    marked = basis_file(bom + ONE_SIMPLE, name="bom.txt")
    assert Path(marked).read_bytes()[:3] == b"\xef\xbb\xbf"
    assert run(["count", "--basis", marked, "-N", "6"]) == \
        run(["count", "--basis", plain, "-N", "6"])
    simples, marked_simples = (basis_file(mark + "3 1 4 2\n", name=name)
                               for mark, name in (("", "simples.txt"),
                                                  (bom, "bom-simples.txt")))
    assert run(["spec", "--basis", plain, "--simples", marked_simples]) == \
        run(["spec", "--basis", plain, "--simples", simples])


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


def test_sample_exact_refuses_boltzmann_options_before_building(
        basis_file, capsys, monkeypatch):
    def unreachable(system):
        raise AssertionError("the specification was built")
    monkeypatch.setattr(cli, "disambiguate_system", unreachable)
    basis = basis_file("1 2 4 3\n2 4 1 3\n4 1 3 5 2\n5 3 1 6 4 2\n")
    for method in ((), ("--method", "exact")):
        for options in (("--window", "1:3"), ("--z", "0.2"),
                        ("--z", "0.2", "--window", "5:5")):
            assert main(["sample", "--basis", basis, "-n", "5",
                         *method, *options]) == 3
            assert capsys.readouterr().err == \
                "error: --z and --window are boltzmann options\n"


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


def test_module_entry_point_exit_codes(basis_file, tmp_path):
    # ``entry`` through a real interpreter: output and the process exit code.
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(Path(__file__).resolve().parents[1] / "src"),
         *filter(None, [os.environ.get("PYTHONPATH")])]))

    def run(*argv):
        return subprocess.run([sys.executable, "-m", "permspec.cli", *argv],
                              capture_output=True, text=True, env=env,
                              timeout=120)

    basis = basis_file("1 3 2\n")
    done = run("count", "--basis", basis, "-N", "8")
    assert done.returncode == 0, done.stderr
    assert done.stdout == "".join(f"{n}\t{c}\n" for n, c in enumerate(
        [1, 2, 5, 14, 42, 132, 429, 1430], start=1))
    done = run("check", "--basis", basis, "--max-size", "11")
    assert done.returncode == 3
    assert done.stderr == "error: oracle size 11 exceeds cap 10\n"
    done = run("count", "--basis", basis, "-o", str(tmp_path / "no" / "x"))
    assert done.returncode == 3
    assert done.stderr.startswith("error: cannot write output file: ")


def test_spec_text_does_not_depend_on_hash_order(basis_file, corpus_systems):
    # Restrictions hash by identity, so set order follows memory addresses
    # as well as the hash seed; the spec text must follow neither.
    basis = basis_file("".join(f"{' '.join(b)}\n" for b in CORPUS["B1"]))
    outputs = []
    for seed in ("0", "1"):
        env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=os.pathsep.join(
            [str(Path(__file__).resolve().parents[1] / "src"),
             *filter(None, [os.environ.get("PYTHONPATH")])]))
        done = subprocess.run(
            [sys.executable, "-m", "permspec.cli", "spec", "--basis", basis],
            capture_output=True, text=True, env=env, timeout=120)
        assert done.returncode == 0, done.stderr
        outputs.append(done.stdout)
    assert outputs[0] == outputs[1] == serialize_system(corpus_systems["B1"][1])


# Digests of stdout for every subcommand on the worked basis, as
# (exit code, text digest, --json digest).
SUBCOMMAND_PINS = {
    ("simples",): (
        0, "98996199c69f96caa13719f835115b48e1a79ed929bb496f6d1b5ad37743177c",
        "2db1bed62c7381540d360cbe1911cdde720a53bb8639c071eb87a038b50e2469"),
    ("spec",): (
        0, "796cc48692f6515a68704c31d1c6f6dab362573f6b7483ab24fbb611f8fec61e",
        "56474ef115194a88c2d64a184f60af7f9d86bf61b57fdb440e2184bead3d399e"),
    ("spec", "--ambiguous"): (
        0, "7050ef6946be070177f2d04105f6402ef973c3ffb2b366e1f1153667d241d144",
        "aeaec6bae92b65d92ae1b344463d8b64112ed3d35801e8bd911951e64716fb51"),
    ("count", "-N", "12"): (
        0, "dfd4dbd07b6d25bb081cdb19ee18a3041a5c3633c79039e84c19ca45e7888364",
        "ea0ae2f5d18e016aeba7b1e8b5bc6091f932b8e9a82bbf90c41ec484375a80ff"),
    ("gf",): (
        0, "44c73429ccf1186b7671b7959943e165e6092b8ea11c8615e55ae1e4064c24f9",
        "506e7ada4588e7b2361d9ad547506ad54feeb9257bb0551b2ab503e74f8005a7"),
    ("sample", "-n", "10", "--count", "5", "--seed", "3"): (
        0, "6021be33763a23ca7d00628312c3403b32942b294e3cb9044dbf043202bf283b",
        "7154b4ccc27290fd04827cd46b1dcd4aff7aa57da23767bf220a3f09a0506d26"),
    ("sample", "-n", "10", "--count", "5", "--seed", "3",
     "--method", "boltzmann", "--z", "0.2", "--window", "5:30"): (
        0, "a0f5b20286db8f7fc3c554d53ee460897d8874a91c829ab0bc4160c1a43ebba5",
        "5464871ce296e7d0c815089aff369650eb39c16c5e6d1e36d33ccde09058d0f8"),
    ("check", "--max-size", "5"): (
        0, "fb8ad826e0239a4407f1eb74c5a72c6c5a79646e37e37e9fc2657e894e419c96",
        "f571e880a4f2f89704c80626af82602bf1e5ff169b117f194dcbf3ed0d888e1a"),
}


@pytest.mark.parametrize("argv", list(SUBCOMMAND_PINS), ids=" ".join)
def test_every_subcommand_output_is_pinned(argv, basis_file, capsys):
    code, text_digest, json_digest = SUBCOMMAND_PINS[argv]
    basis = basis_file(ONE_SIMPLE)
    for extra, digest in (((), text_digest), (("--json",), json_digest)):
        assert main([*argv, "--basis", basis, *extra]) == code
        captured = capsys.readouterr()
        assert captured.err == ""
        assert hashlib.sha256(captured.out.encode()).hexdigest() == digest


def test_empty_simples_or_output_value_exits_3(basis_file, capsys):
    # An empty value names no file: it is not the option left out.
    basis = basis_file(ONE_SIMPLE)
    cases = {"--simples=": "error: cannot read simples file: ",
             "-o=": "error: cannot write output file: "}
    for option, prefix in cases.items():
        for extra in ((), ("--json",)):
            assert main(["count", "--basis", basis, "-N", "4", option,
                         *extra]) == 3
            captured = capsys.readouterr()
            assert captured.out == "" and captured.err.startswith(prefix)


def test_truncated_simples_write_first_then_warn(basis_file, capsys,
                                                 tmp_path):
    basis = basis_file("1 2 3\n")
    assert main(["simples", "--basis", basis, "--cap", "7"]) == 2
    captured = capsys.readouterr()
    assert captured.out.splitlines()[:2] == ["# status: truncated at 7",
                                             "2 4 1 3"]
    assert captured.err == \
        "warning: search truncated; the listed set may be incomplete\n"
    # An output that cannot be written is the only message: no warning
    # qualifies a listing that was never written.
    target = tmp_path / "no" / "x"
    with pytest.raises(OSError) as failure:
        open(target, "w", encoding="utf-8")
    assert main(["simples", "--basis", basis, "--cap", "7",
                 "-o", str(target)]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: cannot write output file: {failure.value}\n"
