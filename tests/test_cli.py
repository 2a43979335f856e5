"""CLI harness: modes, suites, reports, determinism, golden fixtures."""

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import ellweights
from ellweights import ParameterPoint, cli, random_parameter_point
from ellweights.cli import (SUITE_NAMES, RunConfig, build_parser,
                            config_from_args, main, run)
from ellweights.errors import ResamplingError
from ellweights.qtheta import MAX_TRUNC

# Golden fixture: the 2x2 matrix at the pinned point drawn with seed
# 20240801 at q = 0.3, computed from the hand-coded closed forms.
GOLDEN_N2 = {
    (0, 0): 5.92579543166987 - 0.09506140228936788j,
    (0, 1): 0.0,
    (1, 0): 1.2103985885642985 + 1.6341159335223254j,
    (1, 1): 0.5549914043254573 + 0.3118525801210583j,
}
# Entry at row (3,2,1), column identity, same recipe for n = 3.
GOLDEN_N3_ENTRY = -0.603982394426819 - 3.305946914716118j


def cfg(**kw):
    base = dict(n=2, mode="verify", suites=("mirror",), points=1)
    base.update(kw)
    return RunConfig(**base)


class TestRunConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            RunConfig(n=0)
        with pytest.raises(ValueError):
            RunConfig(q=1.2)
        with pytest.raises(ValueError):
            RunConfig(tol=-1)
        with pytest.raises(ValueError):
            RunConfig(mode="explore")
        with pytest.raises(ValueError):
            RunConfig(suites=("mirror", "nonsense"))
        with pytest.raises(ValueError):
            RunConfig(n=6)
        with pytest.raises(ValueError):
            RunConfig(n=3, mode="matrix", sigma=(2, 1))
        # trunc too small for |q|, q = 0 and a negative seed
        for bad in (dict(trunc=5), dict(q=0), dict(q=0, trunc=30), dict(seed=-1)):
            with pytest.raises(ValueError):
                RunConfig(**bad)
        # a tolerance every residual passes or none does
        for tol in (float("inf"), float("nan")):
            with pytest.raises(ValueError):
                RunConfig(tol=tol)
        # no suite, or one suite twice
        for suites in ((), ("pprop", "pprop")):
            with pytest.raises(ValueError):
                RunConfig(suites=suites)
        # only verify samples more than one point
        for mode in ("matrix", "weights"):
            with pytest.raises(ValueError, match="points"):
                RunConfig(mode=mode, points=5)
        # only matrix mode builds a chamber: the suites read the identity
        # chamber, whose Bruhat order the triangularity check assumes
        for mode in ("verify", "weights"):
            with pytest.raises(ValueError, match="sigma"):
                RunConfig(n=3, mode=mode, sigma=(2, 1, 3), suites=("triangular",))

    def test_context(self):
        c = cfg(q=0.3)
        assert c.context().trunc == 69

    def test_truncation_cap(self, capsys, monkeypatch):
        # |q| = 0.99999 would take 8,289,265 factors, gigabytes in one
        # batch: a configuration error, found before any evaluation
        for bad in (dict(q=0.99999), dict(q=0.3, trunc=MAX_TRUNC + 1)):
            with pytest.raises(ValueError, match="exceeds the cap"):
                RunConfig(**bad)
        assert RunConfig(q=0.9999).context().trunc == 828890 <= MAX_TRUNC
        monkeypatch.setattr(cli, "run", lambda config: pytest.fail("evaluated"))
        assert main(["verify", "--n", "2", "--q", "0.99999", "--suites", "pprop"]) == 2
        captured = capsys.readouterr()
        assert captured.err == ("configuration error: trunc=8289265 exceeds "
                                f"the cap of {MAX_TRUNC} factors\n")
        assert captured.out == ""


class TestVerifyMode:
    def test_n2_mirror_four_identities(self):
        # one check per point covers all four identities
        status, report = run(cfg(n=2, suites=("mirror",)))
        assert status == 0
        checks = report["suites"]["mirror"]["checks"]
        assert [(c["id"], c["pass"]) for c in checks] == [
            ("mirror x4 worst I=21 J=21 pt=0", True)]

    def test_n3_mirror_thirty_six(self):
        status, report = run(cfg(n=3, suites=("mirror",)))
        assert status == 0
        checks = report["suites"]["mirror"]["checks"]
        assert [c["id"] for c in checks] == ["mirror x36 worst I=231 J=123 pt=0"]

    def test_n4_mirror_one_check_per_point(self, ctx):
        # the check at each point is the largest of the point's 576
        # residuals, bit for bit, named by the entry it is read at
        report = cli.run_suite("mirror", RunConfig(n=4, suites=("mirror",), points=2), ctx)
        order = ellweights.all_permutations(4)
        assert len(report["checks"]) == len(report["points"]) == 2
        for pt, (check, data) in enumerate(zip(report["checks"], report["points"])):
            p = ParameterPoint(log_z=[complex(*v) for v in data["log_z"]],
                               log_mu=[complex(*v) for v in data["log_mu"]],
                               log_h=complex(*data["log_h"]))
            res = ellweights.mirror_residual(p, ctx)
            i, j = np.unravel_index(np.argmax(res), res.shape)
            assert res[i, j] == res.max()
            word = ["".join(map(str, order[x].word)) for x in (i, j)]
            assert check["id"] == f"mirror x576 worst I={word[0]} J={word[1]} pt={pt}"
            assert np.float64(check["residual"]).tobytes() == res.max().tobytes()

    def test_worst_entry_nan_is_named(self, ctx, monkeypatch):
        # a NaN residual is the maximum, and its entry is the one named
        res = np.array([[1e-3, 0.5], [math.nan, 2.0]])
        monkeypatch.setattr(cli, "mirror_residual", lambda p, ctx: res)
        report = cli.run_suite("mirror", cfg(), ctx)
        [check] = report["checks"]
        assert check["id"] == "mirror x4 worst I=21 J=12 pt=0"
        assert math.isnan(check["residual"]) and report["pass"] is False

    def test_theta_and_pprop_suites(self):
        status, report = run(cfg(n=3, suites=("theta", "pprop")))
        assert status == 0
        assert set(report["suites"]) == {"theta", "pprop"}

    def test_triangular_diagonal_suites(self):
        status, report = run(cfg(n=3, suites=("triangular", "diagonal")))
        assert status == 0
        assert report["suites"]["triangular"]["observed_zero_counts"] == [17]

    def test_relation_suites(self):
        status, report = run(cfg(n=2, suites=("rmatrel", "dualrel")))
        assert status == 0

    def test_n1_relation_and_mirror_suites(self):
        # no steps at n = 1: both relations check no identity, with residual
        # 0.0 and no entry named; the mirror suite has its single identity
        status, report = run(RunConfig(n=1, suites=("rmatrel", "dualrel", "mirror")))
        assert status == 0
        checks = [c for s in report["suites"].values() for c in s["checks"]]
        assert [(c["id"], c["pass"]) for c in checks] == [
            ("exchange relation x0 pt=0", True), ("dual relation x0 pt=0", True),
            ("mirror x1 worst I=1 J=1 pt=0", True)]
        assert checks[0]["residual"] == checks[1]["residual"] == 0.0

    def test_nan_residual_is_the_maximum(self, ctx, monkeypatch):
        # a plain max would report 1e-15 next to a failing NaN check
        def check(ctx, p, rng, fields):
            yield "small", 1e-15
            yield "broken", float("nan")

        monkeypatch.setitem(cli._CHECKS, "mirror", check)
        report = cli.run_suite("mirror", cfg(), ctx)
        assert math.isnan(report["max_residual"]) and report["pass"] is False
        monkeypatch.setitem(cli._CHECKS, "mirror",
                            lambda ctx, p, rng, fields: [("a", 0.0), ("b", 1e-15)])
        report = cli.run_suite("mirror", cfg(), ctx)
        assert report["max_residual"] == 1e-15 and report["pass"] is True

    def test_theta_suite_nan_is_the_maximum(self, ctx, monkeypatch):
        # a running max would keep its 1.6e-15 past one NaN theta
        calls, batched = [], cli.thetas

        def nan_at_7th(c, args):
            calls.append(len(args))
            values = batched(c, args)
            if len(calls) == 1:
                values[6] = complex("nan")
            return values

        monkeypatch.setattr(cli, "thetas", nan_at_7th)
        monkeypatch.setattr(cli, "theta", lambda c, lx: pytest.fail("scalar theta"),
                            raising=False)
        report = cli.run_suite("theta", cfg(suites=("theta",)), ctx)
        assert calls == [1000, 1000, 1000]
        assert math.isnan(report["max_residual"]) and report["pass"] is False

    def test_products_out_of_double_range_name_the_error(self):
        # at |q| = 0.999 (82,852 factors) most products leave double range:
        # every suite reports a RangeError, and no check or NaN residual
        status, report = run(RunConfig(n=2, q=0.999))
        assert (status, report["pass"]) == (1, False)
        for suite in report["suites"].values():
            assert suite["pass"] is False
            assert suite["error"]["type"] == "RangeError"
            assert "|q| = 0.999" in suite["error"]["message"]
            assert not any(math.isnan(c["residual"]) for c in suite["checks"])

    def test_interface_suite(self):
        status, report = run(cfg(n=2, suites=("interface",)))
        assert status == 0
        assert len(report["suites"]["interface"]["checks"]) == 4

    def test_schema_field(self):
        _, report = run(cfg())
        assert report["schema"] == 1
        assert report["mode"] == "verify"
        assert report["config"]["seed"] == 20240801

    def test_report_layout(self):
        # check ids and key order of every suite, pinned at n=2, two points
        status, report = run(RunConfig(n=2, points=2))
        assert status == 0
        assert list(report) == ["schema", "version", "config", "mode", "suites", "pass"]
        assert list(report["suites"]) == list(SUITE_NAMES)
        pts, words = (0, 1), ("12", "21")
        expected = {
            "theta": ["oddness x1000", "quasi-periodicity x1000"],
            "triangular": [f"triangularity pt={pt}" for pt in pts],
            "diagonal": [f"diagonal I={i} pt={pt}" for pt in pts for i in words],
            "rmatrel": [f"exchange relation x4 worst k=1 I=12 J=12 pt={pt}" for pt in pts],
            "dualrel": [f"dual relation x4 worst k=1 I=21 J=12 pt={pt}" for pt in pts],
            "mirror": ["mirror x4 worst I=21 J=21 pt=0", "mirror x4 worst I=12 J=12 pt=1"],
            "interface": [f"interface {side} I={i} pt={pt}"
                          for pt in pts for i in words for side in ("first", "second")],
            "pprop": [f"pprop I={i} pt={pt}" for pt in pts for i in words],
        }
        for name, suite in report["suites"].items():
            assert [c["id"] for c in suite["checks"]] == expected[name], name
            keys = ["checks", "max_residual", "pass"]
            if name == "triangular":
                keys.append("observed_zero_counts")
            if name != "theta":
                keys.append("points")
            assert list(suite) == keys, name
            assert list(suite["checks"][0]) == ["id", "residual", "pass"]


class TestMatrixMode:
    def test_n1_all_three_builders(self):
        status, report = run(cfg(n=1, mode="matrix", suites=()))
        assert status == 0
        body = report["matrix"]
        for key in ("direct", "r_recursion", "dual_recursion"):
            assert body[key]["entries"] == [[[1.0, 0.0]]]
        assert all(v == 0.0 for v in body["deviations"].values())

    def test_n3_deviations_small(self):
        status, report = run(cfg(n=3, mode="matrix", suites=()))
        assert status == 0
        devs = report["matrix"]["deviations"]
        assert len(devs) == 3
        assert all(v < 1e-8 for v in devs.values())
        assert report["matrix"]["observed_zero_count"] == 17

    def test_sigma_matrix(self):
        status, report = run(cfg(n=2, mode="matrix", suites=(), sigma=(2, 1)))
        assert status == 0
        assert report["matrix"]["direct"]["sigma"] == [2, 1]
        assert "r_recursion" not in report["matrix"]


class TestWeightsMode:
    def test_values_for_all_permutations(self):
        status, report = run(cfg(n=3, mode="weights", suites=()))
        assert status == 0
        vals = report["weights"]["values"]
        assert set(vals) == {"123", "132", "213", "231", "312", "321"}
        for re_im in vals.values():
            assert np.isfinite(re_im).all()


class TestDeterminism:
    def test_report_bytes_identical(self):
        c = cfg(n=2, suites=("theta", "mirror"))
        _, r1 = run(c)
        _, r2 = run(c)
        assert json.dumps(r1) == json.dumps(r2)

    def test_matrix_mode_bytes_identical(self):
        c = cfg(n=2, mode="matrix", suites=())
        _, r1 = run(c)
        _, r2 = run(c)
        assert json.dumps(r1) == json.dumps(r2)

    def test_different_seed_changes_point(self):
        _, r1 = run(cfg(n=2, mode="matrix", suites=()))
        _, r2 = run(cfg(n=2, mode="matrix", suites=(), seed=7))
        assert json.dumps(r1) != json.dumps(r2)


class TestGoldenFixtures:
    def test_pinned_n2_matrix(self, ctx):
        from ellweights import Permutation, build_A_direct
        rng = np.random.default_rng(20240801)
        p = random_parameter_point(2, rng, ctx)
        mat = build_A_direct(Permutation.identity(2), p, ctx)
        for (i, j), want in GOLDEN_N2.items():
            got = mat.entries[i, j]
            assert abs(got - want) <= 1e-10 * (1.0 + abs(want))

    def test_pinned_n3_entry(self, ctx):
        from ellweights import A_direct, Permutation
        rng = np.random.default_rng(20240801)
        p = random_parameter_point(3, rng, ctx)
        got = A_direct(Permutation.identity(3), Permutation((3, 2, 1)),
                       Permutation.identity(3), p, ctx)
        assert abs(got - GOLDEN_N3_ENTRY) <= 1e-10 * abs(GOLDEN_N3_ENTRY)


class TestCommandLine:
    def test_parser_defaults(self):
        args = build_parser().parse_args(["verify", "--n", "2"])
        config = config_from_args(args)
        assert config.mode == "verify"
        assert config.n == 2
        assert config.q == 0.3
        assert config.trunc is None

    def test_suite_list_parsing(self):
        args = build_parser().parse_args(["verify", "--suites", "theta,pprop"])
        config = config_from_args(args)
        assert config.suites == ("theta", "pprop")

    def test_sigma_parsing(self):
        args = build_parser().parse_args(["matrix", "--sigma", "2,1"])
        assert args.sigma == (2, 1)
        args = build_parser().parse_args(["matrix", "--sigma", "21"])
        assert args.sigma == (2, 1)

    def test_main_exit_codes(self, capsys, tmp_path, monkeypatch):
        assert main(["verify", "--n", "2", "--suites", "mirror"]) == 0
        out = capsys.readouterr().out
        report = json.loads(out)
        assert report["pass"] is True
        # a chamber word of the wrong length is a configuration error
        assert main(["matrix", "--n", "3", "--sigma", "2,1"]) == 2
        assert "configuration error" in capsys.readouterr().err
        # so is a point count outside verify
        assert main(["matrix", "--n", "2", "--points", "5"]) == 2
        assert "configuration error" in capsys.readouterr().err
        # so are bad numbers and empty or repeated suite lists
        for flags in (["--trunc", "5"], ["--q", "0"], ["--seed", "-1"],
                      ["--tol", "inf"], ["--tol", "nan"],
                      ["--suites", ","], ["--suites", "pprop,pprop"]):
            assert main(["verify", "--n", "2", *flags]) == 2, flags
            captured = capsys.readouterr()
            assert captured.err.startswith("configuration error:"), flags
            assert captured.out == "", flags
        # so is an output file in a missing directory, found before any
        # evaluation
        monkeypatch.setattr(cli, "run", lambda config: pytest.fail("evaluated"))
        missing = tmp_path / "missing"
        for argv in (["verify", "--n", "2", "--suites", "pprop",
                      "--out", str(missing / "r.json")],
                     ["matrix", "--n", "2", "--csv", str(missing / "x.csv")]):
            assert main(argv) == 2, argv
            captured = capsys.readouterr()
            assert captured.err == (f"configuration error: no directory to "
                                    f"write {argv[-1]} into\n"), argv
            assert captured.out == "", argv
        assert not missing.exists()
        # and an output path that names an existing directory
        for argv in (["verify", "--n", "2", "--suites", "pprop", "--out", str(tmp_path)],
                     ["matrix", "--n", "2", "--csv", str(tmp_path)]):
            assert main(argv) == 2, argv
            captured = capsys.readouterr()
            assert captured.err == (f"configuration error: cannot write "
                                    f"{tmp_path}: it is a directory\n"), argv
            assert captured.out == "", argv
        assert list(tmp_path.iterdir()) == []

    def test_main_config_error(self, capsys):
        assert main(["verify", "--n", "6"]) == 2
        assert "configuration error" in capsys.readouterr().err

    def test_out_and_csv_files(self, tmp_path):
        out = tmp_path / "report.json"
        csv = tmp_path / "matrix.csv"
        status = main(["matrix", "--n", "2", "--out", str(out), "--csv", str(csv)])
        assert status == 0
        report = json.loads(out.read_text())
        assert report["schema"] == 1
        direct = report["matrix"]["direct"]
        labels = ["".join(map(str, w)) for w in direct["order"]]
        assert labels == ["12", "21"]
        rows = [line.split(",") for line in csv.read_text().split("\n")]
        assert rows.pop() == [""]      # the file ends in a newline
        assert rows[0] == ["|A|", *labels]
        assert [row[0] for row in rows[1:]] == labels
        for row, entries in zip(rows[1:], direct["entries"], strict=True):
            assert row[1:] == [repr(float(abs(complex(*v)))) for v in entries]

    def test_cli_byte_determinism(self, tmp_path):
        out1, out2 = tmp_path / "a.json", tmp_path / "b.json"
        main(["verify", "--n", "2", "--suites", "mirror", "--out", str(out1)])
        main(["verify", "--n", "2", "--suites", "mirror", "--out", str(out2)])
        assert out1.read_bytes() == out2.read_bytes()

    def test_module_entry_point(self):
        proc = subprocess.run(
            [sys.executable, "-m", "ellweights", "verify", "--n", "2",
             "--suites", "theta"],
            capture_output=True, text=True, timeout=300,
            cwd=Path(ellweights.__file__).parents[1])   # the tree under test
        assert proc.returncode == 0
        assert json.loads(proc.stdout)["pass"] is True

    def test_resampling_exhaustion_reported(self, monkeypatch):
        import ellweights.cli as climod

        def boom(*a, **k):
            raise ResamplingError("no luck")

        monkeypatch.setattr(climod, "random_parameter_point", boom)
        status, report = run(cfg(n=2, mode="matrix", suites=()))
        assert status == 1
        assert report["error"]["type"] == "ResamplingError"

    def test_pole_error_reported(self, monkeypatch, ctx):
        # a point with z_1 = z_2 has vanishing restriction denominators;
        # the failing entry is reported under "error", not raised: at the
        # top of a matrix report, in the suite that raised in verify mode
        import ellweights.cli as climod
        base = random_parameter_point(3, np.random.default_rng(3), ctx)
        bad = ParameterPoint(log_z=(base.log_z[0], base.log_z[0], base.log_z[2]),
                             log_mu=base.log_mu, log_h=base.log_h)
        monkeypatch.setattr(climod, "random_parameter_point", lambda *a, **k: bad)
        status, report = run(cfg(n=3, mode="matrix", suites=()))
        assert (status, report["pass"]) == (1, False)
        errors = [report["error"]]
        for name in ("triangular", "diagonal"):
            status, report = run(cfg(n=3, suites=(name,)))
            assert (status, report["pass"]) == (1, False)
            assert "error" not in report
            suite = report["suites"][name]
            assert (suite["checks"], suite["pass"]) == ([], False)
            assert suite["points"] == [bad.to_json()]
            errors.append(suite["error"])
        for error in errors:
            assert error["type"] == "PoleError"
            assert error["message"].startswith("entry ((1, 2, 3), ")

    def test_suite_error_keeps_the_other_suites(self):
        # at q=0.7 the interface suite meets a matrix of condition estimate
        # 4.5e9 and raises; the seven other suites still report, and pass
        # (worst residual 2.6e-12)
        status, report = run(RunConfig(n=3, q=0.7))
        assert (status, report["pass"]) == (1, False)
        assert "error" not in report
        suites = report["suites"]
        assert list(suites) == list(SUITE_NAMES)
        error = suites["interface"]["error"]
        assert error["type"] == "IllConditionedError"
        assert error["message"].startswith("condition estimate 4.4")
        assert [name for name, s in suites.items() if not s["pass"]] == ["interface"]
        assert max(s["max_residual"] for s in suites.values()) < 1e-11

    def test_singular_matrix_fails_the_interface_alone(self, monkeypatch):
        # an exactly singular A (here one row zeroed) makes numpy's inverse
        # raise LinAlgError; the interface reports it as its own error and
        # the other suites still run and pass
        from ellweights import mirror
        real = mirror.build_A_direct

        def zero_row(*a):
            mat = real(*a)
            mat.entries[0] = 0.0
            return mat

        monkeypatch.setattr(mirror, "build_A_direct", zero_row)
        status, report = run(RunConfig(n=2))
        assert (status, report["pass"]) == (1, False)
        suites = report["suites"]
        assert list(suites) == list(SUITE_NAMES)
        assert suites["interface"]["checks"] == []
        error = suites["interface"]["error"]
        assert error["type"] == "IllConditionedError"
        assert error["message"].startswith("singular restriction matrix")
        assert [name for name, s in suites.items() if not s["pass"]] == ["interface"]

    def test_report_is_strict_json(self, tmp_path, monkeypatch):
        # non-finite residuals are written as strings, so the report parses
        # with a parser that rejects the NaN and Infinity tokens
        def check(ctx, p, rng, fields):
            yield "nan", float("nan")
            yield "inf", float("inf")
            yield "-inf", float("-inf")

        def reject(token):
            raise ValueError(f"not JSON: {token}")

        monkeypatch.setitem(cli._CHECKS, "mirror", check)
        out = tmp_path / "report.json"
        assert main(["verify", "--n", "2", "--suites", "mirror", "--out", str(out)]) == 1
        suite = json.loads(out.read_text(), parse_constant=reject)["suites"]["mirror"]
        assert [c["residual"] for c in suite["checks"]] == ["NaN", "Infinity", "-Infinity"]
        assert suite["max_residual"] == "NaN"

    def test_csv_only_in_matrix_mode(self, capsys):
        for mode in ("verify", "weights"):
            with pytest.raises(SystemExit) as exc:
                main([mode, "--csv", "x"])
            assert exc.value.code == 2
            assert "--csv" in capsys.readouterr().err


class TestPackage:
    def test_readme_library_sketch_runs(self):
        # the python block under "## Library sketch", run as a script with
        # the tree under test on the path
        src = Path(ellweights.__file__).parents[1]
        readme = (src.parent / "README.md").read_text()
        sketch = readme.split("## Library sketch", 1)[1].split("```python\n", 1)[1]
        proc = subprocess.run(
            [sys.executable, "-W", "error::RuntimeWarning", "-c", sketch.split("```", 1)[0]],
            capture_output=True, text=True, timeout=300, cwd=src,
            env={**os.environ, "PYTHONPATH": str(src)})
        assert proc.returncode == 0, proc.stderr

    def test_star_import_resolves_every_export(self):
        namespace: dict = {}
        exec("from ellweights import *", namespace)
        for name in ellweights.__all__:
            assert namespace[name] is getattr(ellweights, name)


class TestSampling:
    def test_exhaustion(self, ctx, rng, monkeypatch):
        import ellweights.sampling as sampling
        monkeypatch.setattr(sampling, "is_generic", lambda p, ctx: False)
        with pytest.raises(ResamplingError, match="in 200 draws"):
            random_parameter_point(3, rng, ctx)

    def test_points_are_generic(self, ctx, rng):
        from ellweights import is_generic
        for _ in range(5):
            p = random_parameter_point(3, rng, ctx)
            assert is_generic(p, ctx)
