import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import approxconvex
from approxconvex import cli, constructions, entropy_opt, hulls, optim
from approxconvex.cli import main
from approxconvex.optim import ConvergenceError
from conftest import origin_barycentric


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def parse_lines(stdout):
    return [json.loads(line) for line in stdout.strip().splitlines()]


class TestReports:
    def test_kappa_example(self, capsys):
        code, out, _ = run_cli(capsys, "kappa", "--n", "7")
        assert code == 0
        (rep,) = parse_lines(out)
        assert set(rep) == {"command", "params", "results", "pass", "elapsed_ms"}
        assert rep["command"] == "kappa"
        assert rep["results"] == {"lower": 3, "upper": 3, "formula": 3}
        assert rep["pass"] is True

    def test_euclid_set_example(self, capsys):
        code, out, _ = run_cli(capsys, "euclid-set", "--n", "16")
        assert code == 0
        (rep,) = parse_lines(out)
        assert rep["results"]["M"] == pytest.approx(13.589148804608305)
        assert rep["results"]["witness_distance"] == pytest.approx(4.0, abs=1e-9)
        assert rep["pass"] is True

    def test_euclid_set_off_critical(self, capsys):
        code, out, _ = run_cli(capsys, "euclid-set", "--n", "3", "--M", "0.5", "--grid", "2")
        assert code == 0
        (rep,) = parse_lines(out)
        assert rep["results"]["witness_distance"] <= 0.40747914

    def test_tree_haus_example(self, capsys):
        code, out, _ = run_cli(capsys, "tree-haus", "--M", "2", "--N", "128")
        assert code == 0
        (rep,) = parse_lines(out)
        assert rep["results"]["bound"] == pytest.approx(3.5)
        assert rep["results"]["certified"] is True

    def test_tree_haus_million_leaves(self, capsys):
        # The fresh leaves are one block, never made as labels.
        code, out, _ = run_cli(capsys, "tree-haus", "--M", "3", "--N", "1000000")
        assert code == 0
        (rep,) = parse_lines(out)
        assert rep["results"]["certified"] is True

    def test_determinism_modulo_timing(self, capsys):
        def snap():
            code, out, _ = run_cli(
                capsys, "entropy-defect", "--n", "4", "--samples", "500", "--seed", "7"
            )
            assert code == 0
            line = out.strip()
            rep = json.loads(line)
            del rep["elapsed_ms"]
            # Compare raw bytes up to the timing field for bit-stability.
            prefix = line.split(',"elapsed_ms"')[0]
            return rep, prefix

        first, praw1 = snap()
        second, praw2 = snap()
        assert first == second
        assert praw1 == praw2

    def test_tree_norm_identical_across_processes(self):
        # Tree labels hash by identity, so the iteration order of a label
        # set depends on memory addresses, which differ between processes.
        env = {**os.environ, "PYTHONPATH": str(Path(approxconvex.__file__).parents[1])}
        argv = ["tree-norm", "--M", "2", "--samples", "25", "--seed", "0"]
        prefixes = set()
        for hashseed in range(8):
            env["PYTHONHASHSEED"] = str(hashseed)
            out = subprocess.run(
                [sys.executable, "-m", "approxconvex", *argv],
                env=env, capture_output=True, text=True, check=True,
            ).stdout
            assert json.loads(out)["pass"] is True
            prefixes.add(out.split(',"elapsed_ms"')[0])
        assert len(prefixes) == 1

    def test_infinite_p_is_a_string(self, capsys):
        code, out, _ = run_cli(capsys, "lp-set", "--n", "3", "--p", "inf")
        assert code == 0
        (rep,) = parse_lines(out)
        assert rep["params"]["p"] == "inf"
        assert '"p":"inf"' in out

    def test_seventeen_digit_floats(self, capsys):
        _, out, _ = run_cli(capsys, "kappa", "--n", "2")
        assert "1.6666666666666667" in out


class TestExitCodes:
    def test_pass_is_zero(self, capsys):
        code, _, _ = run_cli(capsys, "lowbound3", "--n", "100")
        assert code == 0

    def test_violation_without_check_still_zero(self, capsys):
        code, out, _ = run_cli(capsys, "l1-bound", "--n", "2", "--eps", "1")
        assert code == 0
        (rep,) = parse_lines(out)
        assert rep["pass"] is False

    def test_violation_with_check_is_two(self, capsys):
        code, _, _ = run_cli(capsys, "l1-bound", "--n", "2", "--eps", "1", "--paper-check")
        assert code == 2

    def test_usage_error_is_one(self, capsys):
        code, _, err = run_cli(capsys, "typep-bound", "--p", "2", "--d", "1")
        assert code == 1
        assert "d >= 2" in err

    @pytest.mark.parametrize("argv", [
        ("typep-bound", "--p", "2", "--Tp", "nan", "--d", "3"),
        ("typep-bound", "--p", "2", "--d", "nan"),
        ("general-bound", "--n", "8", "--eps", "1", "--dist", "nan"),
    ])
    def test_nan_bound_input_is_one(self, capsys, argv):
        code, out, err = run_cli(capsys, *argv)
        assert code == 1
        assert out == ""
        assert "got nan" in err

    def test_entropy_defect_needs_two_vertices(self, capsys):
        code, out, err = run_cli(capsys, "entropy-defect", "--n", "0", "--samples", "10")
        assert code == 1
        assert out == ""
        assert "--n >= 1" in err

    def test_unsupported_norm_rejected_before_work(self, capsys, monkeypatch):
        def forbidden(spec):
            raise AssertionError("lp-set built its sample before checking --p")

        monkeypatch.setattr(constructions, "build_entropy_set", forbidden)
        code, out, err = run_cli(capsys, "lp-set", "--n", "4", "--p", "3")
        assert code == 1
        assert out == ""
        assert "usage error" in err
        assert "1, 2 or inf" in err

    @pytest.mark.parametrize("argv, message", [
        (("lp-set", "--n", "3", "--p", "2", "--M", "0"), "need M > 0, got 0.0"),
        (("lp-set", "--n", "3", "--p", "2", "--grid", "0"), "need grid >= 1, got 0"),
        (("euclid-set", "--n", "4", "--M", "0"), "need M > 0, got 0.0"),
        (("euclid-set", "--n", "4", "--grid", "0"), "need grid >= 1, got 0"),
        (("opt-entropy", "--n", "4", "--M", "0"), "need M > 0, got 0.0"),
    ])
    def test_zero_scale_or_grid_is_a_usage_error(self, capsys, monkeypatch, argv, message):
        # 0 used to stand for "no flag given", so the default M or grid ran.
        def forbidden(*args, **kwargs):
            raise AssertionError("work started before the flags were checked")

        monkeypatch.setattr(constructions, "build_entropy_set", forbidden)
        monkeypatch.setattr(constructions, "euclid_witness_distance", forbidden)
        code, out, err = run_cli(capsys, *argv)
        assert (code, out, err) == (1, "", f"usage error: {message}\n")

    def test_lp_set_needs_two_coordinates(self):
        # The automatic grid used to loop forever for n = 1, so the
        # command runs in its own process under a timeout.
        env = {**os.environ, "PYTHONPATH": str(Path(approxconvex.__file__).parents[1])}
        proc = subprocess.run(
            [sys.executable, "-m", "approxconvex", "lp-set", "--n", "1", "--p", "2"],
            env=env, capture_output=True, text=True, timeout=60,
        )
        assert proc.returncode == 1
        assert proc.stdout == ""
        assert "lp-set needs --n >= 2, got 1" in proc.stderr

    def test_auto_grid_rejects_one_coordinate(self):
        with pytest.raises(ValueError, match="n >= 2, got 1"):
            cli._auto_grid(1)

    @pytest.mark.parametrize("argv, message", [
        (("tree-haus", "--N", "0"), "tree-haus needs --N >= 1"),
        (("entropy-defect", "--samples", "0"), "entropy-defect needs --samples >= 1"),
        (("best-subset", "--n", "0"), "best-subset needs --n >= 1"),
        (("opt-entropy", "--n", "4", "--tol", "0"), "opt-entropy needs --tol > 0, got 0"),
        (("opt-entropy", "--n", "4", "--tol", "-1"), "opt-entropy needs --tol > 0, got -1"),
        (("opt-entropy", "--n", "0"), "opt-entropy needs --n >= 1, got 0"),
        (("opt-entropy", "--n", "1"), "opt-entropy needs --M > 0 when --n is 1"),
        (("euclid-set", "--n", "3", "--M", "inf"), "need a finite M, got inf"),
        (("opt-entropy", "--n", "2", "--M", "inf"), "need a finite M, got inf"),
        (("lp-set", "--n", "3", "--p", "1", "--M", "inf"), "need a finite M, got inf"),
    ])
    def test_out_of_domain_input_is_a_usage_error(self, capsys, argv, message):
        code, out, err = run_cli(capsys, *argv)
        assert code == 1
        assert out == ""
        assert err.startswith("usage error: ")
        assert message in err

    @pytest.mark.parametrize("argv", [
        ("euclid-set", "--n", "4", "--M", "1e300"),
        ("opt-entropy", "--n", "3", "--M", "1e300"),
    ])
    def test_overflowing_scale_is_a_numerical_failure(self, capsys, argv):
        # M^2 overflows, so every bound of the search is inf or NaN; the
        # search used to end in an IndexError from an empty heap.
        code, out, err = run_cli(capsys, *argv)
        assert code == 3
        assert out == ""
        assert err.startswith("numerical failure: bracket [")
        assert "no node left" in err

    @pytest.mark.parametrize("argv, message", [
        (("simplex-face", "--n", "3", "--trials", "0"), "simplex-face needs --trials >= 1, got 0"),
        (("best-subset", "--n", "3", "--trials", "0"), "best-subset needs --trials >= 1, got 0"),
        (("tree-norm", "--samples", "0"), "tree-norm needs --samples >= 1, got 0"),
        (("tree-jensen", "--pairs", "0"), "tree-jensen needs --pairs >= 1, got 0"),
        (("tree-jensen", "--level", "0"), "tree-jensen needs --level >= 1, got 0"),
    ])
    def test_empty_count_is_a_usage_error(self, capsys, argv, message):
        # These used to pass on a result computed from no samples.
        code, out, err = run_cli(capsys, *argv)
        assert code == 1
        assert out == ""
        assert err == f"usage error: {message}\n"

    @pytest.mark.parametrize("command", ["simplex-face", "best-subset"])
    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_one_dimensional_simplices(self, capsys, command, seed):
        # n = 1 used to draw two coincident vertices and fail as a usage error.
        code, out, err = run_cli(
            capsys, command, "--n", "1", "--trials", "5", "--seed", str(seed), "--paper-check"
        )
        assert (code, err) == (0, "")
        assert parse_lines(out)[0]["pass"] is True

    def test_numerical_failure_is_three(self, capsys, monkeypatch):
        def stalled(*args, **kwargs):
            raise ConvergenceError("stalled in a test")

        monkeypatch.setattr(hulls, "dist_to_hull", stalled)
        code, out, err = run_cli(capsys, "lp-set", "--n", "3", "--p", "2", "--grid", "4")
        assert code == 3
        assert out == ""
        assert err.startswith("numerical failure: ")
        assert "stalled in a test" in err

    def test_kernel_weights_off_the_simplex_are_numerical(self, capsys, monkeypatch):
        mnp = optim._mnp
        calls = []

        def off_simplex(L, c, stop):
            calls.append(1)
            lam, f, gap, it = mnp(L, c, stop)
            return lam * (1.0 + 1e-11), f, gap, it

        monkeypatch.setattr(optim, "_mnp", off_simplex)
        # best-subset always runs the kernel on its chosen face (_face);
        # simplex-face certifies its faces in closed form and runs it only
        # as a fallback.
        code, out, err = run_cli(capsys, "best-subset", "--n", "3", "--trials", "1")
        assert calls
        assert code == 3
        assert out == ""
        assert err.startswith("numerical failure: weights leave the simplex")

    def test_unknown_command(self, capsys):
        code, _, err = run_cli(capsys, "no-such-thing")
        assert code == 1
        assert "usage error" in err

    def test_missing_required(self, capsys):
        code, _, err = run_cli(capsys, "euclid-set")
        assert code == 1

    def test_bad_sweep(self, capsys):
        code, _, err = run_cli(capsys, "kappa", "--sweep", "5")
        assert code == 1


class TestRandomInteriorSimplex:
    @pytest.mark.parametrize("n", [1, 2, 5, 10])
    def test_unit_vertices_around_the_origin(self, n):
        rng = np.random.default_rng(n)
        for _ in range(20):
            V = cli._random_interior_simplex(rng, n)
            assert V.shape == (n + 1, n)
            assert np.allclose(np.linalg.norm(V, axis=1), 1.0)
            assert origin_barycentric(V).min() > 1e-3

    def test_law_is_the_rejection_samplers(self):
        # Flipping signs by the linear dependence gives the law of n + 1
        # unit vectors conditioned on holding the origin: compare the
        # least barycentric coordinate with rejection sampling by a
        # two-sample Kolmogorov-Smirnov statistic, against its 0.1%
        # critical value.  The Dirichlet construction in conftest, a
        # different law, scores about 0.2 here.
        n, K = 3, 1500

        def rejection(rng):
            while True:
                V = rng.standard_normal((n + 1, n))
                V /= np.linalg.norm(V, axis=1, keepdims=True)
                if origin_barycentric(V).min() > 1e-3:
                    return V

        rng1, rng2 = np.random.default_rng(1), np.random.default_rng(2)
        ref = np.sort([origin_barycentric(rejection(rng1)).min() for _ in range(K)])
        new = np.sort([origin_barycentric(cli._random_interior_simplex(rng2, n)).min() for _ in range(K)])
        x = np.concatenate([ref, new])
        ks = np.abs(np.searchsorted(ref, x, "right") - np.searchsorted(new, x, "right")).max() / K
        assert ks < 1.95 * np.sqrt(2.0 / K)


class TestOptEntropyVerdict:
    def test_one_coordinate_is_the_indicator(self, capsys):
        code, out, _ = run_cli(capsys, "opt-entropy", "--n", "1", "--M", "0.7", "--paper-check")
        assert code == 0
        (rep,) = parse_lines(out)
        assert rep["results"]["pieces"] == [[1.0, 1.0]]
        assert rep["results"]["value"] == pytest.approx(0.49, rel=1e-15)

    def test_exclusion_regime_passes(self, capsys):
        # 48 points with 5n < M^2 <= (2/ln2) n log2 n, the critical scale's
        # square: each is certified and carries no piece of value 1.
        for n in (4, 8, 16, 32):
            crit2 = constructions.critical_scale(n) ** 2
            for M2 in np.linspace(5.0 * n, crit2, 13)[1:]:
                code, out, _ = run_cli(capsys, "opt-entropy", "--n", str(n), "--M", repr(float(np.sqrt(M2))), "--paper-check")
                assert code == 0, (n, M2)
                assert parse_lines(out)[0]["pass"] is True

    @pytest.mark.parametrize("argv, value, pieces", [
        # Above both the indicator (M^2 = 1) and the uniform step.
        (("--n", "4", "--M", "1"), 1.5, ((4.0, 0.25),)),
        # Below both, but with a piece of value 1 in the exclusion regime.
        (("--n", "8", "--M", "7"), 1.0, ((1.0, 1.0), (7.0, 0.0))),
    ])
    def test_a_wrong_minimum_fails(self, capsys, monkeypatch, argv, value, pieces):
        y = entropy_opt.StepFunction(pieces=pieces, domain=float(argv[1]))
        monkeypatch.setattr(entropy_opt, "minimize_I", lambda *a, **k: (y, value))
        code, out, _ = run_cli(capsys, "opt-entropy", *argv, "--paper-check")
        assert code == 2
        assert parse_lines(out)[0]["pass"] is False


class TestFormats:
    def test_csv_sweep(self, capsys):
        code, out, _ = run_cli(capsys, "kappa", "--sweep", "1:4", "--format", "csv")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0].startswith("command,n,")
        assert len(lines) == 5
        assert lines[1].split(",")[0] == "kappa"

    def test_json_sweep_lines(self, capsys):
        code, out, _ = run_cli(capsys, "lowbound3", "--sweep", "20:24")
        assert code == 0
        reps = parse_lines(out)
        assert [r["params"]["n"] for r in reps] == [20, 21, 22, 23, 24]
        assert all(r["pass"] for r in reps)

    def test_sweep_rejected_elsewhere(self, capsys):
        code, _, err = run_cli(capsys, "euclid-set", "--n", "4", "--sweep", "1:2")
        assert code == 1


class TestTolerance:
    def test_tol_flag(self, capsys):
        for argv, tol in (((), 1e-9), (("--tol", "1e-12"), 1e-12)):
            code, out, _ = run_cli(capsys, "opt-entropy", "--n", "4", *argv)
            assert code == 0
            (rep,) = parse_lines(out)
            assert rep["params"]["tol"] == pytest.approx(tol)
        # Only opt-entropy reads a tolerance; elsewhere --tol is rejected.
        code, out, err = run_cli(capsys, "kappa", "--n", "3", "--tol", "1e-12")
        assert code == 1
        assert out == ""
        assert "usage error" in err
        code, out, _ = run_cli(capsys, "kappa", "--n", "3")
        assert "tol" not in parse_lines(out)[0]["params"]


class TestCommandSweepCoverage:
    @pytest.mark.parametrize(
        "argv",
        [
            ("entropy-defect", "--n", "3", "--samples", "300"),
            ("l1-bound", "--n", "64", "--eps", "0.5"),
            ("general-bound", "--n", "64", "--eps", "1", "--dist", "2.0"),
            ("lp-set", "--n", "3", "--p", "2", "--grid", "6"),
            ("simplex-face", "--n", "2", "--trials", "3"),
            ("best-subset", "--n", "2", "--trials", "2"),
            ("opt-entropy", "--n", "4"),
            ("typep-bound", "--p", "1.5", "--d", "3"),
            ("tree-norm", "--M", "2", "--samples", "4"),
            ("tree-jensen", "--M", "1", "--pairs", "4", "--level", "4"),
            ("tree-haus", "--M", "1", "--N", "32"),
        ],
    )
    def test_all_commands_pass(self, capsys, argv):
        code, out, _ = run_cli(capsys, *argv, "--paper-check")
        assert code == 0, out
        for rep in parse_lines(out):
            assert rep["pass"] is True
