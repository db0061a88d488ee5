import argparse
import hashlib
import math
import subprocess
import sys

import pytest

from coverfree.cli import build_parser, main
from coverfree.core import CFFParams, read_matrix_file, write_matrix_file
from coverfree.construct import rs_cff

CONSTRUCT_ARGS = {
    "trivial": ["--n", "5", "--w", "2", "--r", "2"],
    "sperner": ["--n", "5"],
    "oa": ["--q", "3", "--t", "2"],
    "rs": ["--q", "3", "--n", "4", "--r", "3"],
    "shf-recursive": ["--w", "1", "--r", "2"],
    "random": ["--w", "1", "--r", "1", "--T", "4"],
    "random-uniform": ["--ell", "2", "--w", "1", "--r", "1", "--T", "4"],
}


# Every option string each subcommand accepts, besides -h and --help: a new
# option, or a second spelling of one, changes this table.
OPTION_STRINGS = {
    "construct": {
        "--method", "--out", "--n", "--w", "--r", "--d", "--q", "--t", "--levels", "--T",
        "--ell", "--max-attempts", "--seed", "--budget", "--trials",
    },
    "verify": {"--w", "--r", "--d", "--max-r", "--seed", "--budget", "--trials"},
    "bounds": {"--w", "--r", "--T", "--d", "--n", "--N", "--k", "--c", "--csv"},
    "simulate": {"--trials", "--seed", "--errors"},
    "oracle": {"--min-n", "--w", "--r", "--T", "--cap"},
}


def test_option_strings_are_pinned():
    (commands,) = (
        a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)
    )
    accepted = {
        name: set(p._option_string_actions) - {"-h", "--help"}
        for name, p in commands.choices.items()
    }
    assert accepted == OPTION_STRINGS


def run_cli(capsys, *argv):
    rc = main(list(argv))
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


def test_no_arguments_is_usage_error(capsys):
    rc, _, _ = run_cli(capsys)
    assert rc == 2


def test_unknown_command_is_usage_error(capsys):
    rc, _, _ = run_cli(capsys, "frobnicate")
    assert rc == 2


class TestConstruct:
    @pytest.mark.parametrize("method", sorted(CONSTRUCT_ARGS))
    def test_round_trip_through_verify(self, capsys, tmp_path, method):
        out_file = str(tmp_path / f"{method}.cff")
        rc, out, _ = run_cli(
            capsys, "construct", "--method", method, "--out", out_file, *CONSTRUCT_ARGS[method]
        )
        assert rc == 0
        assert "check exhaustive ok" in out
        assert f"wrote {out_file}" in out
        rc, out, _ = run_cli(capsys, "verify", out_file)
        assert rc == 0
        assert "check exhaustive ok" in out

    def test_echoes_resolved_parameters(self, capsys, tmp_path):
        out_file = str(tmp_path / "t.cff")
        rc, out, _ = run_cli(
            capsys, "construct", "--method", "trivial",
            "--n", "5", "--w", "2", "--r", "2", "--out", out_file,
        )
        assert rc == 0
        lines = out.splitlines()
        assert lines[0].startswith("construct method=trivial n=5 w=2 r=2 seed=0")
        assert "budget=" in lines[0] and "trials=" in lines[0]
        assert lines[1] == "claim w=2 r=2 d=0 N=10 T=5"

    def test_repeat_runs_are_byte_identical(self, capsys, tmp_path):
        files = [str(tmp_path / f"{i}.cff") for i in range(2)]
        for f in files:
            rc, _, _ = run_cli(
                capsys, "construct", "--method", "random",
                "--w", "1", "--r", "1", "--T", "4", "--out", f,
            )
            assert rc == 0
        a, b = (open(f, "rb").read() for f in files)
        assert a == b

    def test_missing_method_flags(self, capsys, tmp_path):
        rc, _, err = run_cli(
            capsys, "construct", "--method", "sperner", "--out", str(tmp_path / "x")
        )
        assert rc == 2
        assert "requires --n" in err

    def test_unknown_method(self, capsys, tmp_path):
        rc, _, _ = run_cli(
            capsys, "construct", "--method", "nope", "--out", str(tmp_path / "x")
        )
        assert rc == 2

    def test_precondition_failure(self, capsys, tmp_path):
        # degenerate exponent: every degree-7 polynomial over GF(7) collides
        rc, _, err = run_cli(
            capsys, "construct", "--method", "rs",
            "--q", "7", "--n", "8", "--r", "1", "--out", str(tmp_path / "x"),
        )
        assert rc == 3
        assert err.startswith("error:")

    def test_budget_exhaustion(self, capsys, tmp_path):
        rc, _, err = run_cli(
            capsys, "construct", "--method", "shf-recursive",
            "--w", "2", "--r", "2", "--levels", "4", "--out", str(tmp_path / "x"),
        )
        assert rc == 4
        # 5^16 blocks: refused by the block cap before any check runs
        assert err == "budget exceeded: 5^(2^4) blocks exceed the cap of 1000000\n"

    @pytest.mark.parametrize(
        "point",
        [
            ["--method", "random", "--w", "27", "--r", "27", "--T", "60"],
            ["--method", "random-uniform", "--ell", "2", "--w", "600", "--r", "600", "--T", "1300"],
        ],
    )
    def test_default_past_the_point_cap(self, capsys, tmp_path, point):
        out_file = tmp_path / "x"
        rc, out, err = run_cli(capsys, "construct", *point, "--out", str(out_file))
        assert rc == 4
        assert out == "" and err.startswith("budget exceeded: the default point count")
        assert len(err.splitlines()) == 1 and not out_file.exists()

    def test_random_default_checks_the_sides_first(self, capsys, tmp_path):
        # d = -1 would make the density exponent 0: a precondition error, not a budget refusal
        out_file = tmp_path / "x"
        rc, out, err = run_cli(
            capsys, "construct", "--method", "random", "--w", "1", "--r", "1",
            "--d", "-1", "--T", "5", "--out", str(out_file),
        )
        assert rc == 3
        assert out == "" and err == "error: d must be non-negative\n"
        assert not out_file.exists()

    def test_random_uniform_checks_the_sides_first(self, capsys, tmp_path):
        out_file = tmp_path / "x"
        rc, out, err = run_cli(
            capsys, "construct", "--method", "random-uniform", "--ell", "2", "--w", "-1",
            "--r", "1", "--T", "4", "--out", str(out_file),
        )
        assert rc == 3
        assert out == "" and err == "error: w and r must be positive\n"
        assert not out_file.exists()

    def test_failed_random_search(self, capsys, tmp_path):
        rc, _, err = run_cli(
            capsys, "construct", "--method", "random", "--w", "1", "--r", "1",
            "--T", "4", "--n", "2", "--max-attempts", "2", "--out", str(tmp_path / "x"),
        )
        assert rc == 1
        assert err.startswith("construction failed:")


# Recorded before the construct methods moved into one table: stdout with the
# output path written as OUT, and the sha256 of the written file.
CHECK_AND_WRITE = "check exhaustive ok\nwrote OUT\n"
GOLDEN_RUNS = {
    "trivial": (
        ["--method", "trivial", "--n", "5", "--w", "2", "--r", "2"],
        "construct method=trivial n=5 w=2 r=2 seed=0 budget=250000 trials=100000\n"
        "claim w=2 r=2 d=0 N=10 T=5\n",
        "bc6d0dc1336c1ed3c11c20df91d2045c08d638235967f9690ce162ce3343fa2b",
    ),
    "sperner": (
        ["--method", "sperner", "--n", "5"],
        "construct method=sperner n=5 seed=0 budget=250000 trials=100000\n"
        "claim w=1 r=1 d=0 N=5 T=10\n",
        "fdf1b58ed0ed2bd354a2c8a8439dda315ce5ee25259b728eeaf87942c44b3d1b",
    ),
    "oa": (
        ["--method", "oa", "--q", "3", "--t", "2"],
        "construct method=oa q=3 t=2 d=0 seed=0 budget=250000 trials=100000\n"
        "claim w=1 r=3 d=0 N=12 T=9\n",
        "e92ea37995399bff7b404e95b6deb823d93973600c8ec04e2948b7d47c953bba",
    ),
    "rs": (
        ["--method", "rs", "--q", "3", "--n", "4", "--r", "3"],
        "construct method=rs q=3 n=4 r=3 d=0 seed=0 budget=250000 trials=100000\n"
        "claim w=1 r=3 d=0 N=12 T=9\n",
        "e92ea37995399bff7b404e95b6deb823d93973600c8ec04e2948b7d47c953bba",
    ),
    "rs-shortened": (
        ["--method", "rs", "--q", "5", "--n", "4", "--r", "1", "--d", "1"],
        "construct method=rs q=5 n=4 r=1 d=1 seed=0 budget=250000 trials=100000\n"
        "claim w=1 r=1 d=1 N=20 T=125\n",
        "0c42f7091649a06ef7d97d20b81e2a28f1b8a13d59a984ab188136ad6507dd19",
    ),
    "shf-recursive": (
        ["--method", "shf-recursive", "--w", "1", "--r", "2"],
        "construct method=shf-recursive w=1 r=2 d=0 levels=1 seed=0 budget=250000 "
        "trials=100000\nclaim w=1 r=2 d=0 N=9 T=9\n",
        "6a54603685d5a775392834f222532b49bbde78cdf47b643790392f08a1bc4f84",
    ),
    "random": (
        ["--method", "random", "--w", "1", "--r", "1", "--T", "4"],
        "construct method=random w=1 r=1 d=0 T=4 N=10 max-attempts=50 seed=0 "
        "budget=250000 trials=100000\nclaim w=1 r=1 d=0 N=10 T=4\n",
        "1c10ba7c3b858e6a0a73822498cd24f66cf5c734aacb98ebb8845ee0b9ba4ea8",
    ),
    "random-uniform": (
        ["--method", "random-uniform", "--ell", "2", "--w", "1", "--r", "1", "--T", "4"],
        "construct method=random-uniform ell=2 w=1 r=1 T=4 max-attempts=50 seed=0 "
        "budget=250000 trials=100000\nclaim w=1 r=1 d=17 N=130 T=4\n",
        "4c4e1c71059eae9a840b6f5bf242e4aabe0e5a1b0231ed862006d53c884919fb",
    ),
    # argparse quotes the choices on some Python versions only, so quotes are dropped
    "bogus": (
        ["--method", "bogus"],
        "coverfree construct: error: argument --method: invalid choice: bogus (choose "
        "from trivial, sperner, oa, rs, shf-recursive, random, random-uniform)",
        None,
    ),
}


@pytest.mark.parametrize("name", list(GOLDEN_RUNS))
def test_construct_output_is_pinned(capsys, tmp_path, name):
    argv, expected, digest = GOLDEN_RUNS[name]
    out_file = tmp_path / "golden.cff"
    rc, out, err = run_cli(capsys, "construct", "--out", str(out_file), *argv)
    if digest is None:
        assert rc == 2 and out == ""
        assert err.splitlines()[-1].replace("'", "") == expected
        return
    assert rc == 0 and err == ""
    assert out.replace(str(out_file), "OUT") == expected + CHECK_AND_WRITE
    assert hashlib.sha256(out_file.read_bytes()).hexdigest() == digest


class TestOrbitProofAtConstruct:
    """rs_cff hands its symmetries to the claim check; a file does not carry
    them, so a read-back matrix is proven by the plain scan."""

    def test_screening_design_is_proven(self, capsys, tmp_path):
        out_file = tmp_path / "screen.cff"
        rc, out, err = run_cli(
            capsys, "construct", "--method", "rs", "--q", "13", "--n", "14", "--r", "3",
            "--d", "4", "--out", str(out_file),
        )
        assert (rc, err) == (0, "")
        assert out.splitlines()[-2:] == ["check exhaustive ok", f"wrote {out_file}"]

    def test_the_file_is_proven_and_a_zero_budget_samples(self, capsys, tmp_path):
        # rs_cff(7, 8, 3): the file's plain scan visits 686 nodes
        rs783 = ["construct", "--method", "rs", "--q", "7", "--n", "8", "--r", "3"]
        path = str(tmp_path / "rs783.cff")
        rc, out, _ = run_cli(capsys, *rs783, "--out", path)
        assert rc == 0 and "check exhaustive ok\n" in out
        rc, out, _ = run_cli(capsys, "verify", path, "--trials", "200")
        assert rc == 0 and out.splitlines()[-1] == "check exhaustive ok"
        rc, out, _ = run_cli(capsys, *rs783, "--budget", "0", "--trials", "200", "--out", path)
        assert rc == 0 and "check sampled ok\n" in out


TRIVIAL = ["construct", "--method", "trivial", "--n", "5", "--w", "2", "--r", "2"]
RANDOM = ["construct", "--method", "random", *CONSTRUCT_ARGS["random"]]
SHF = ["construct", "--method", "shf-recursive", *CONSTRUCT_ARGS["shf-recursive"]]


@pytest.mark.parametrize(
    "argv,expected_rc",
    [
        ([*TRIVIAL, "--out", "{out}", "--budget", "-1"], 2),
        ([*TRIVIAL, "--out", "{out}", "--trials", "0"], 2),
        (["verify", "{rs}", "--budget", "-5"], 2),
        (["verify", "{rs}", "--trials", "-1"], 2),
        (["simulate", "{rs}", "--trials", "0"], 2),
        (["simulate", "{rs}", "--trials", "x"], 2),
        (["verify", "{rs}", "--budget", "0", "--trials", "50"], 0),  # 0 means sample
        # count flags, refused before a builder or a simulation can raise
        ([*RANDOM, "--out", "{out}", "--max-attempts", "0"], 2),
        ([*RANDOM, "--out", "{out}", "--max-attempts", "-3"], 2),
        ([*SHF, "--out", "{out}", "--levels", "-1"], 2),
        (["simulate", "{rs}", "--trials", "5", "--errors", "-1"], 2),
    ],
)
def test_check_flags_at_the_boundary(capsys, tmp_path, argv, expected_rc):
    rs_path = tmp_path / "rs.cff"
    write_matrix_file(rs_path, *rs_cff(3, 4, 3))
    out_file = tmp_path / "out.cff"
    rc, out, err = run_cli(capsys, *(a.format(out=out_file, rs=rs_path) for a in argv))
    assert rc == expected_rc
    if expected_rc == 0:
        assert "check sampled ok" in out
    else:
        assert out == "" and "error: argument --" in err
        assert not out_file.exists()


class TestVerify:
    @pytest.fixture()
    def rs_file(self, tmp_path):
        m, claim = rs_cff(3, 4, 3)
        path = str(tmp_path / "rs.cff")
        write_matrix_file(path, m, claim)
        return path, m

    def test_max_r(self, capsys, rs_file):
        path, _ = rs_file
        rc, out, _ = run_cli(capsys, "verify", path, "--max-r")
        assert rc == 0
        assert "max_r 3" in out

    @pytest.mark.parametrize(
        "flags", [("--r", "7"), ("--trials", "3"), ("--seed", "9"), ("--seed", "0")]
    )
    def test_max_r_refuses_claim_flags(self, capsys, rs_file, flags):
        path, _ = rs_file
        rc, out, err = run_cli(capsys, "verify", path, "--max-r", *flags)
        assert (rc, out) == (2, "")
        assert err.startswith(f"usage error: --max-r takes no {flags[0]}:")

    def test_echo_resolves_check_defaults(self, capsys, rs_file):
        # --max-r leaves --trials and --seed unset, so a plain verify fills
        # in their defaults itself
        path, _ = rs_file
        rc, out, _ = run_cli(capsys, "verify", path)
        assert rc == 0
        assert out.splitlines()[0] == (
            f"verify file={path} w=1 r=3 d=0 N=12 T=9 trials=100000 seed=0 "
            "budget=250000"
        )
        _, out, _ = run_cli(capsys, "verify", path, "--budget", "0", "--trials", "7", "--seed", "5")
        assert " trials=7 seed=5 " in out.splitlines()[0]

    def test_overclaim_fails_with_witness(self, capsys, tmp_path, rs_file):
        _, m = rs_file
        path = str(tmp_path / "over.cff")
        write_matrix_file(path, m, CFFParams(w=1, r=4, d=0, N=12, T=9))
        rc, out, err = run_cli(capsys, "verify", path)
        assert rc == 1
        assert "check exhaustive FAILED" in out
        assert "witness:" in err

    def test_unclaimed_file_needs_flags(self, capsys, tmp_path, rs_file):
        _, m = rs_file
        path = str(tmp_path / "plain.cff")
        write_matrix_file(path, m, None)
        rc, _, err = run_cli(capsys, "verify", path)
        assert rc == 2
        assert "pass --w and --r" in err
        rc, out, _ = run_cli(capsys, "verify", path, "--w", "1", "--r", "3")
        assert rc == 0
        assert "check exhaustive ok" in out

    def test_sampled_mode(self, capsys, rs_file):
        path, _ = rs_file
        rc, out, _ = run_cli(capsys, "verify", path, "--budget", "0", "--trials", "200")
        assert rc == 0
        assert "check sampled ok" in out

    def test_sampled_overclaim_fails_with_witness(self, capsys, tmp_path, rs_file):
        _, m = rs_file
        path = str(tmp_path / "over.cff")
        write_matrix_file(path, m, CFFParams(w=1, r=4, d=0, N=12, T=9))
        rc, out, err = run_cli(capsys, "verify", path, "--budget", "0", "--trials", "200")
        assert rc == 1
        assert out.splitlines()[-1] == "check sampled FAILED"
        # the stderr line as printed before the sampled check went through check_claim
        assert err == "witness: intersect blocks {8}, subtract blocks {3,4,5,7}, residual 0\n"

    def test_tiny_budget(self, capsys, rs_file):
        path, _ = rs_file
        rc, _, err = run_cli(capsys, "verify", path, "--max-r", "--budget", "1")
        assert rc == 4
        assert err.startswith("budget exceeded:")

    def test_max_r_refusal_names_only_the_budget_flag(self, capsys, rs_file):
        path, _ = rs_file
        rc, _, err = run_cli(capsys, "verify", path, "--max-r", "--budget", "1")
        assert rc == 4
        # max_r has no sampled mode, and the message names no library call
        assert err == (
            "budget exceeded: the budget of 1 nodes ran out with 0 of 9 B-sets cleared (0.0%)\n"
        )

    def test_claim_check_over_budget_samples_instead_of_refusing(self, capsys, rs_file):
        path, _ = rs_file
        # 9 B-sets and a cover search each: below 18 nodes the claim is
        # sampled, and the refusal is a line of stdout, not a budget error
        rc, out, err = run_cli(capsys, "verify", path, "--budget", "17", "--trials", "50")
        assert rc == 0 and err == ""
        assert out.splitlines()[-1] == "check sampled ok"
        rc, out, err = run_cli(capsys, "verify", path, "--budget", "18")
        assert rc == 0 and err == ""
        assert out.splitlines()[-1] == "check exhaustive ok"

    def test_a_refused_scan_is_named_before_the_sampled_verdict(self, capsys, tmp_path):
        # rs_cff(7, 8, 3)'s file: the plain scan needs 686 nodes
        path = str(tmp_path / "rs783.cff")
        write_matrix_file(path, *rs_cff(7, 8, 3))
        bound = "sampled 200 pairs, none violating: under 0.015 of all pairs violate, at 95% confidence"
        rc, out, err = run_cli(capsys, "verify", path, "--budget", "100", "--trials", "200")
        assert (rc, err) == (0, "")
        assert out.splitlines()[1:] == [
            "exhaustive check refused: the budget of 100 nodes ran out with 50 of 343 "
            "B-sets cleared (14.6%); sampled instead",
            bound,
            "check sampled ok",
        ]
        # a zero budget asks for sampling: nothing was refused
        rc, out, err = run_cli(capsys, "verify", path, "--budget", "0", "--trials", "200")
        assert (rc, err) == (0, "")
        assert out.splitlines()[1:] == [bound, "check sampled ok"]

    def test_missing_file(self, capsys, tmp_path):
        rc, _, err = run_cli(capsys, "verify", str(tmp_path / "nowhere.cff"))
        assert rc == 3
        assert err.startswith("error:")


class TestBounds:
    def test_table(self, capsys):
        rc, out, _ = run_cli(capsys, "bounds", "--w", "2", "--r", "2", "--T", "16")
        assert rc == 0
        lines = out.splitlines()
        assert lines[0].startswith("bounds w=2 r=2 d=0 T=16 N=- k=-")
        assert lines[1].split()[:4] == ["bound", "direction", "value", "applicable"]
        dfft = next(l for l in lines if l.startswith("dfft"))
        assert "10.000000" in dfft
        engel1 = next(l for l in lines if l.startswith("engel1"))
        assert "best lower bound" in engel1
        engel = next(l for l in lines if l.startswith("engel "))
        assert "asymptotic - indicative only" in engel
        w1 = next(l for l in lines if l.startswith("w1"))
        assert " no" in w1 and " - " in w1

    def test_csv(self, capsys, tmp_path):
        csv_file = str(tmp_path / "bounds.csv")
        rc, out, _ = run_cli(
            capsys, "bounds", "--w", "2", "--r", "2", "--T", "16", "--csv", csv_file
        )
        assert rc == 0
        assert f"wrote {csv_file}" in out
        lines = open(csv_file, encoding="ascii").read().splitlines()
        assert lines[0] == "bound,direction,value,applicable"
        assert "dfft,lower bound on N,10.0,yes" in lines
        assert "w1,lower bound on N,,no" in lines

    def test_values_past_the_digit_limit_are_written_whole(self, capsys, tmp_path):
        # the sperner bound C(20000, 10000) has 6019 digits, past the 4300
        # that Python 3.11 converts at once
        csv_file = str(tmp_path / "bounds.csv")
        rc, out, _ = run_cli(
            capsys, "bounds", "--w", "1", "--r", "1", "--T", "4", "--N", "20000",
            "--csv", csv_file,
        )
        assert rc == 0
        value = next(l for l in out.splitlines() if l.startswith("sperner")).split()[5]
        assert len(value) == 6019
        assert value.startswith("224560") and value.endswith("916640")
        # read back in two pieces, each within the limit
        assert int(value[:3000]) * 10**3019 + int(value[3000:]) == math.comb(20000, 10000)
        lines = open(csv_file, encoding="ascii").read().splitlines()
        assert f"sperner,upper bound on T,{value},yes" in lines

    def test_point_count_unlocks_t_bounds(self, capsys):
        rc, out, _ = run_cli(
            capsys, "bounds", "--w", "1", "--r", "2", "--d", "1",
            "--T", "9", "--N", "12", "--k", "4",
        )
        assert rc == 0
        assert "gbound" in out and "uniform" in out and "2d" in out
        uniform = next(l for l in out.splitlines() if l.startswith("uniform"))
        assert uniform.split()[:6] == ["uniform", "upper", "bound", "on", "T", "22"]

    def test_precondition(self, capsys):
        rc, _, err = run_cli(capsys, "bounds", "--w", "1", "--r", "2", "--T", "2")
        assert rc == 3
        assert err.startswith("error:")

    @pytest.mark.parametrize("c", ["inf", "nan"])
    def test_non_finite_c_is_refused(self, capsys, c):
        rc, out, err = run_cli(capsys, "bounds", "--w", "1", "--r", "2", "--T", "9", "--c", c)
        assert rc == 3
        assert out == "" and err.startswith("error: c must be positive and finite")

    @pytest.mark.parametrize("extra", [["--k", "4"], ["--N", "12", "--k", "0"], ["--N", "12", "--k", "13"]])
    def test_bad_k_is_bad_usage(self, capsys, extra):
        rc, out, err = run_cli(capsys, "bounds", "--w", "1", "--r", "2", "--T", "9", *extra)
        assert rc == 2
        assert out == "" and err.startswith("usage error: --k")

    @pytest.mark.parametrize(
        "point",
        [
            ["--w", "1", "--r", "2", "--T", "9", "--N", "0"],
            ["--w", "1", "--r", "2", "--d", "2", "--T", "9", "--N", "2"],
            ["--w", "2", "--r", "2", "--T", "16", "--N", "-5"],
        ],
    )
    def test_n_at_most_d_is_bad_usage(self, capsys, point):
        rc, out, err = run_cli(capsys, "bounds", *point)
        assert rc == 2
        assert out == "" and err.startswith("usage error: --N")

    @pytest.mark.parametrize(
        "point",
        [
            # 1 - w^w r^r / (w+r)^(w+r) rounds to 1 in the existence row
            ["--w", "27", "--r", "27", "--T", "100"],
            # powers past the float range in engel and in the existence row
            ["--w", "100", "--r", "50", "--T", "1000"],
            ["--w", "140", "--r", "4", "--T", "1000"],
            # e_r of drr-rate at r = 150, with d/N >= e_r so no level is built
            ["--w", "1", "--r", "150", "--d", "10", "--T", "400", "--N", "2000"],
        ],
    )
    def test_large_sides_give_finite_values(self, capsys, tmp_path, point):
        csv_file = tmp_path / "bounds.csv"
        rc, out, err = run_cli(capsys, "bounds", *point, "--csv", str(csv_file))
        assert (rc, err) == (0, "")
        assert "inf" not in out and "nan" not in out
        values = [line.split(",")[2] for line in csv_file.read_text().splitlines()[1:]]
        assert all(math.isfinite(float(v)) for v in values if v)

    def test_past_the_float_range_is_a_precondition(self, capsys):
        rc, out, err = run_cli(capsys, "bounds", "--w", "600", "--r", "600", "--T", "2000")
        assert rc == 3
        assert out == ""
        assert err == "error: the bounds at w=600, r=600, d=0, T=2000 leave the float range\n"

    def test_one_point_has_no_sperner_row(self, capsys):
        # the antichain bound needs two points, so it is left out, not raised
        rc, out, err = run_cli(capsys, "bounds", "--w", "1", "--r", "1", "--T", "4", "--N", "1")
        assert (rc, err) == (0, "")
        assert not any(line.startswith("sperner") for line in out.splitlines())



# The sha256 of stdout (the CSV path written as OUT) and of the --csv file,
# recorded before the bounds survey became one table and re-recorded when
# gbound was restricted to r >= 2 and drr-rate flagged asymptotic.
BOUNDS_GOLDEN = [
    (
        ["--w", "1", "--r", "2", "--d", "1", "--T", "9", "--N", "12", "--k", "4"],
        "a80e1031753ebcc36bf15c5a32a583e1d4766d7f98a60fe90e1b6f9a908fb092",
        "b456a123cac97bc88611f3a57b061dd1e99301b00c745c1e340517df627ec834",
    ),
    (
        ["--w", "2", "--r", "2", "--T", "16"],
        "eb0c48a19ef88d1eb338b2a8877b64b4066358a76ee4fc25326b08f6fdb2589f",
        "393f64efc97bcc0730e448b28c3c3820b2d662347de004ea962ec71c7cb9406c",
    ),
    (
        ["--w", "1", "--r", "1", "--T", "4", "--N", "2"],
        "9d9d436cf35a2c576a89f85ceaef44ddf611b0ebc1887f135ed1fb67954af1f6",
        "80b2bd4bad51f682bb5651b3c34e99f220711fbffce515cbe7c784059c0c01d9",
    ),
    (
        ["--w", "1", "--r", "3", "--d", "2", "--T", "100", "--N", "50", "--c", "0.3"],
        "9b3537a996b2115619aaf4e22b7bcb974204110dd02126ff34a4090fad5bcd1d",
        "bcbe88fef373095c41cfc14ed604051f2c46f38173f7b71c0367730891434835",
    ),
]


def test_bounds_output_is_pinned(capsys, tmp_path):
    csv_file = tmp_path / "bounds.csv"
    for argv, out_digest, csv_digest in BOUNDS_GOLDEN:
        rc, out, err = run_cli(capsys, "bounds", *argv, "--csv", str(csv_file))
        assert rc == 0 and err == ""
        out = out.replace(str(csv_file), "OUT")
        assert hashlib.sha256(out.encode()).hexdigest() == out_digest
        assert hashlib.sha256(csv_file.read_bytes()).hexdigest() == csv_digest

class TestSimulate:
    def test_perfect_family(self, capsys, tmp_path):
        m, claim = rs_cff(3, 4, 3)
        path = str(tmp_path / "rs.cff")
        write_matrix_file(path, m, claim)
        rc, out, _ = run_cli(capsys, "simulate", path, "--trials", "25")
        assert rc == 0
        assert "rate=1.0000" in out
        assert "false_positives 0" in out

    def test_unclaimed_file(self, capsys, tmp_path):
        m, _ = rs_cff(3, 4, 3)
        path = str(tmp_path / "plain.cff")
        write_matrix_file(path, m, None)
        rc, _, err = run_cli(capsys, "simulate", path, "--trials", "5")
        assert rc == 2
        assert "no claim" in err


class TestOracle:
    def test_minimum_point_count(self, capsys):
        rc, out, _ = run_cli(capsys, "oracle", "--min-n", "--w", "1", "--r", "2", "--T", "4")
        assert rc == 0
        assert "min_N 4" in out

    def test_cap_reached(self, capsys):
        rc, out, _ = run_cli(
            capsys, "oracle", "--min-n", "--w", "2", "--r", "2", "--T", "5", "--cap", "3"
        )
        assert rc == 0
        assert "min_N exceeds cap 3" in out

    def test_requires_mode_flag(self, capsys):
        rc, _, err = run_cli(capsys, "oracle", "--w", "1", "--r", "1", "--T", "4")
        assert rc == 2
        assert "requires --min-n" in err

    def test_checks_arguments_before_the_degenerate_sides(self, capsys):
        rc, out, err = run_cli(capsys, "oracle", "--min-n", "--w", "0", "--r", "1", "--T", "99")
        assert rc == 3
        assert "min_N" not in out
        assert "T <= 5" in err

    def test_cap_below_one_is_bad_usage(self, capsys):
        rc, out, err = run_cli(
            capsys, "oracle", "--min-n", "--w", "1", "--r", "1", "--T", "3", "--cap", "0"
        )
        assert rc == 2
        assert out == "" and "error: argument --cap" in err


def test_module_entry_point(tmp_path):
    proc = subprocess.run(
        [sys.executable, "-m", "coverfree", "bounds", "--w", "1", "--r", "2", "--T", "8"],
        capture_output=True,
        timeout=60,
    )
    assert proc.returncode == 0
    assert b"dfft" in proc.stdout


def test_written_files_parse_back(capsys, tmp_path):
    out_file = str(tmp_path / "oa.cff")
    rc, _, _ = run_cli(capsys, "construct", "--method", "oa", "--q", "3", "--t", "2", "--out", out_file)
    assert rc == 0
    m, claim = read_matrix_file(out_file)
    assert (m.num_points, m.num_blocks) == (12, 9)
    assert claim == CFFParams(w=1, r=3, d=0, N=12, T=9)
