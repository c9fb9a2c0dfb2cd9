import contextlib
import io
import json
import math
import os
import subprocess
import sys

import pytest

import hessbif

BASE = [sys.executable, "-m", "hessbif"]
# Absolute path of the directory holding the imported package, so the child
# runs the tree under test even from another cwd or with a relative PYTHONPATH.
PKG_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(hessbif.__file__)))


def run(args, cwd, env=None, base=BASE):
    env = dict(os.environ if env is None else env)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [PKG_ROOT, env.get("PYTHONPATH")]))
    return subprocess.run(base + args, cwd=cwd, capture_output=True, text=True,
                          env=env, timeout=600)


@pytest.fixture()
def specdir(tmp_path):
    (tmp_path / "saturating.json").write_text(json.dumps(
        {"N": 1, "k": 1, "R": 1.0, "f": {"kind": "saturating"}}))
    (tmp_path / "linear.json").write_text(json.dumps(
        {"N": 1, "k": 1, "R": 1.0, "f": {"kind": "linear"}}))
    (tmp_path / "logbump2.json").write_text(json.dumps(
        {"N": 2, "k": 2, "R": 1.0, "f": {"kind": "log_bump"}}))
    (tmp_path / "system.json").write_text(json.dumps(
        {"N": 1, "k": 1, "R": 1.0,
         "g": {"kind": "saturating_t"}, "h": {"kind": "saturating_s"},
         "monotone": {"g_in_t": True, "h_in_s": True}}))
    (tmp_path / "bad_kind.json").write_text(json.dumps(
        {"N": 1, "k": 1, "R": 1.0, "f": {"kind": "power", "params": {"p": -2.0}}}))
    return tmp_path


class TestEigen:
    def test_prints_value_and_exits_zero(self, tmp_path):
        r = run(["eigen", "--N", "1", "--k", "1", "--R", "1"], tmp_path)
        assert r.returncode == 0, r.stderr
        assert "2.4674011" in r.stdout

    def test_json_output(self, tmp_path):
        r = run(["eigen", "--N", "3", "--k", "1", "--out", "eig.json"], tmp_path)
        assert r.returncode == 0, r.stderr
        obj = json.loads((tmp_path / "eig.json").read_text())
        assert obj["schema_version"] == 1
        assert obj["lambda1"] == pytest.approx(9.869604401089358, rel=1e-8)

    def test_coupled_flag(self, tmp_path):
        r = run(["eigen", "--N", "1", "--k", "1", "--coupled", "--out", "e.json"],
                tmp_path)
        assert r.returncode == 0, r.stderr
        obj = json.loads((tmp_path / "e.json").read_text())
        assert obj["lambda0"] == pytest.approx(obj["lambda1"], rel=1e-8)

    def test_coupled_takes_eleven_ivps(self, ivps):
        # three for lambda1, seven for the coupled root and one fixed-R shot
        from hessbif import cli

        with contextlib.redirect_stdout(io.StringIO()):
            assert cli.main(["eigen", "--N", "2", "--k", "1", "--coupled"]) == cli.EXIT_OK
        assert len(ivps) == 11

    def test_overflowing_forcing_is_named(self, capsys):
        # lambda = 1 / R^2 = 1e6 at N = k = 60: the seed and atol of m stay floats, but
        # the forcing (lam * w0) ** 60 = 1e360 of the first slope does not
        from hessbif import cli

        rc = cli.main(["eigen", "--N", "60", "--k", "60", "--R", "1e-3"])
        err = capsys.readouterr().err
        assert rc == cli.EXIT_NUMERICAL, err
        assert "slope overflows" in err and "(lam * w0) ** 60" in err
        assert "Numerical result out of range" not in err

    def test_unattainable_tolerance_is_numerical_failure(self, tmp_path):
        r = run(["eigen", "--N", "1", "--k", "1", "--tol", "1e-30"], tmp_path)
        assert r.returncode == 2, r.stderr
        assert "numerical failure" in r.stderr


class TestTraceAndPlot:
    def test_trace_writes_branch_csv(self, specdir):
        r = run(["trace", "--spec", "saturating.json", "--out-branch", "b.csv",
                 "--n-points", "17"], specdir)
        assert r.returncode == 0, r.stderr
        lines = (specdir / "b.csv").read_text().splitlines()
        assert lines[0] == "index,d,lambda,is_fold"
        assert len(lines) > 17

    def test_plot_flat_branch_horizontal(self, specdir):
        r = run(["trace", "--spec", "linear.json", "--out-branch", "flat.csv",
                 "--n-points", "17"], specdir)
        assert r.returncode == 0, r.stderr
        r = run(["plot", "--branch", "flat.csv", "--out", "flat.svg"], specdir)
        assert r.returncode == 0, r.stderr
        svg = (specdir / "flat.svg").read_text()
        poly = [ln for ln in svg.splitlines() if ln.startswith("<polyline")]
        assert len(poly) == 1
        pts = poly[0].split('points="')[1].split('"')[0].split()
        ys = {p.split(",")[1] for p in pts}
        assert len(ys) == 1

    def test_plot_renders_a_csv_with_the_residual_column(self, specdir, monkeypatch):
        # a branch CSV with the older header index,d,lambda,residual,is_fold plots as the
        # same branch without that column does
        from hessbif import cli

        monkeypatch.chdir(specdir)
        with contextlib.redirect_stdout(io.StringIO()):
            assert cli.main(["trace", "--spec", "logbump2.json", "--out-branch", "new.csv",
                             "--n-points", "17"]) == 0
            rows = [line.split(",") for line in (specdir / "new.csv").read_text().splitlines()]
            assert rows[0] == ["index", "d", "lambda", "is_fold"]
            (specdir / "old.csv").write_text("".join(
                f"{i},{d},{lam},{'residual' if i == 'index' else '0'},{fold}\n"
                for i, d, lam, fold in rows))
            for name in ("new", "old"):
                assert cli.main(["plot", "--branch", f"{name}.csv", "--out", f"{name}.svg"]) == 0
        svg = (specdir / "new.svg").read_text()
        assert "<circle" in svg   # the log_bump fold
        assert (specdir / "old.svg").read_text() == svg

    def test_plot_missing_and_malformed_csv(self, tmp_path):
        r = run(["plot", "--branch", "missing.csv", "--out", "x.svg"], tmp_path)
        assert r.returncode == 3, r.stderr
        bad = tmp_path / "bad.csv"
        bad.write_text("not,a,branch\n1,2,3\n")
        r = run(["plot", "--branch", "bad.csv", "--out", "x.svg"], tmp_path)
        assert r.returncode == 3, r.stderr
        empty = tmp_path / "empty.csv"
        empty.write_text("index,d,lambda,residual,is_fold\n")
        r = run(["plot", "--branch", "empty.csv", "--out", "x.svg"], tmp_path)
        assert r.returncode == 3, r.stderr

    def test_plot_bad_interval(self, specdir):
        r = run(["trace", "--spec", "linear.json", "--out-branch", "f.csv",
                 "--n-points", "17"], specdir)
        assert r.returncode == 0, r.stderr
        for interval in ("oops", "5,1", "nan,1"):
            r = run(["plot", "--branch", "f.csv", "--out", "x.svg",
                     "--interval", interval], specdir)
            assert r.returncode == 3, (interval, r.stderr)
            assert not (specdir / "x.svg").exists(), interval


class TestVerify:
    def test_saturating_passes(self, specdir):
        r = run(["verify", "--spec", "saturating.json", "--out-report", "rep.json",
                 "--out-branch", "b.csv", "--n-points", "17"], specdir)
        assert r.returncode == 0, r.stderr
        assert "overall: PASS" in r.stdout
        obj = json.loads((specdir / "rep.json").read_text())
        assert obj["pass"] is True
        assert obj["schema_version"] == 1
        assert {"name", "predicted", "observed", "pass", "tol"} == set(obj["checks"][0])
        assert any("radial" in n for n in obj["notes"])
        # each of the 5 existence samples crosses once, and its crossing is certified
        certs = [c for c in obj["checks"] if c["name"].startswith("certificate")]
        assert len(certs) == 5 and all(c["observed"].startswith("sign change") for c in certs)
        assert any(n.startswith("certificates:") for n in obj["notes"])

    def test_linear_out_of_table_eigen_report(self, specdir):
        r = run(["verify", "--spec", "linear.json", "--n-points", "17"],
                specdir)
        assert r.returncode == 0, r.stderr
        assert "out of table" in r.stdout
        assert "eigen-branch flatness" in r.stdout

    def test_insufficient_coverage_fails_verification(self, specdir):
        # two decades of d cannot pin the asymptotes: honest exit 1
        r = run(["verify", "--spec", "saturating.json", "--d-min", "0.1",
                 "--d-max", "10", "--n-points", "16"], specdir)
        assert r.returncode == 1, r.stderr
        assert "overall: FAIL" in r.stdout

    def test_report_captured_in_process(self, specdir, monkeypatch):
        import contextlib
        import io

        from hessbif import cli

        monkeypatch.chdir(specdir)
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            rc = cli.main(["verify", "--spec", "saturating.json", "--n-points", "17"])
        assert rc == 0
        assert "overall: PASS" in out.getvalue()

    def test_missing_spec_invalid(self, tmp_path):
        r = run(["verify", "--spec", "nope.json"], tmp_path)
        assert r.returncode == 3, r.stderr

    def test_bad_nonlinearity_invalid(self, specdir):
        r = run(["verify", "--spec", "bad_kind.json"], specdir)
        assert r.returncode == 3, r.stderr
        assert "invalid input" in r.stderr


def _tabulated_spec():
    """s/(1+s) + s^2 e^(-s) at 61 knots on [1e-3, 1e3], with no declared classes."""
    s = [10.0 ** (-3.0 + 0.1 * j) for j in range(61)]
    f = [x / (1.0 + x) + x * x * math.exp(-x) for x in s]
    return {"N": 2, "k": 1, "R": 1.0, "f": {"kind": "tabulated", "params": {"s": s, "f": f}}}


class TestVerifyTabulatedWithoutClasses:
    def test_invalid_input_not_a_traceback(self, tmp_path):
        (tmp_path / "tab.json").write_text(json.dumps(_tabulated_spec()))
        r = run(["verify", "--spec", "tab.json"], tmp_path)
        assert r.returncode == 3, r.stderr
        assert "Traceback" not in r.stderr
        assert "declare f0, finf" in r.stderr

    def test_rejected_before_any_work(self, tmp_path, monkeypatch):
        from hessbif import cli

        def no_work(*args, **kwargs):
            raise AssertionError("work started before the limit classes were checked")

        for name in ("first_eigenvalue", "trace_branch"):
            monkeypatch.setattr(cli, name, no_work)
        (tmp_path / "tab.json").write_text(json.dumps(_tabulated_spec()))
        monkeypatch.chdir(tmp_path)
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            assert cli.main(["verify", "--spec", "tab.json"]) == cli.EXIT_INVALID
        assert "kind 'tabulated' does not determine them" in err.getvalue()


class TestExitCodes:
    @pytest.mark.parametrize("N,k", [(1, 1), (2, 2), (8, 8), (60, 1), (60, 60)])
    def test_loose_tolerance_eigen(self, N, k, tmp_path):
        from hessbif import cli

        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            rc = cli.main(["eigen", "--N", str(N), "--k", str(k), "--tol", "1e-5",
                           "--out", str(tmp_path / "e.json")])
        assert rc == cli.EXIT_OK
        assert f"lambda1({N},{k},R=1) = " in out.getvalue()
        assert json.loads((tmp_path / "e.json").read_text())["iterations"] == 3

    @pytest.mark.parametrize("value", ["inf", "0.02"], ids=["tol-inf", "tol-0.02"])
    def test_unusable_tolerance_invalid(self, value):
        # a tolerance of 1e-2 or more puts the eigenvalue bracket's far end at lambda <= 0;
        # the refusal must name the tolerance, not the lambda it would have produced
        from hessbif import cli

        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            rc = cli.main(["eigen", "--N", "2", "--k", "1", "--tol", value])
        assert rc == cli.EXIT_INVALID
        assert "tol must satisfy" in err.getvalue() and "lambda" not in err.getvalue()

    @pytest.mark.parametrize("args", [
        ["eigen", "--N", "x", "--k", "1"],
        ["bogus"],
        [],
        ["eigen", "--k", "1"],
        ["eigen", "--N", "1", "--k", "1", "--threads", "2"],
        ["eigen", "--N", "1", "--k", "1", "--root-tol", "1e-5"],
    ], ids=["bad-int", "unknown-command", "no-command", "missing-required", "threads",
            "root-tol"])
    def test_malformed_arguments_invalid(self, tmp_path, args):
        r = run(args, tmp_path)
        assert r.returncode == 3, r.stderr
        assert "invalid input" in r.stderr
        assert "usage" in r.stderr

    @pytest.mark.parametrize("argv", [
        ["eigen", "--N", "2", "--k", "1"],
        ["trace", "--spec", "s.json", "--out-branch", "b.csv"],
        ["verify", "--spec", "s.json"],
        ["system-trace", "--spec", "s.json", "--out-branch", "b.csv"],
        ["system-verify", "--spec", "s.json"],
        ["power-pair", "--N", "2", "--k", "2", "--alpha", "2", "--beta", "2"],
        ["sweep-k", "--spec", "s.json"],
    ], ids=lambda argv: argv[0])
    def test_root_tol_is_gone(self, argv):
        # --tol sets the root tolerance too; the old option is an unknown argument
        from hessbif import cli

        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            rc = cli.main(argv + ["--root-tol", "1e-5"])
        assert rc == cli.EXIT_INVALID
        assert "unrecognized arguments: --root-tol" in err.getvalue()

    def test_help_exits_zero(self, tmp_path):
        r = run(["verify", "--help"], tmp_path)
        assert r.returncode == 0, r.stderr
        assert "--samples" in r.stdout

    @pytest.mark.parametrize("command,spec,samples", [
        ("verify", "saturating.json", "0"),
        ("verify", "saturating.json", "-3"),
        ("system-verify", "system.json", "0"),
    ])
    def test_nonpositive_samples_invalid(self, specdir, command, spec, samples):
        r = run([command, "--spec", spec, "--samples", samples,
                 "--n-points", "16"], specdir)
        assert r.returncode == 3, r.stderr
        assert "lambda_samples" in r.stderr

    @pytest.mark.parametrize("argv", [
        ["verify", "--spec", "saturating.json", "--samples", "0"],
        ["verify", "--spec", "saturating.json", "--samples", "-3"],
        ["system-verify", "--spec", "system.json", "--samples", "0"],
        ["system-verify", "--spec", "mismatched.json", "--samples", "0"],
        ["power-pair", "--N", "1", "--k", "1", "--alpha", "1", "--beta", "1",
         "--samples", "1"],
    ], ids=["verify-0", "verify-neg", "system-verify-0", "system-verify-mismatched-0",
            "power-pair-1"])
    def test_bad_samples_rejected_before_any_work(self, specdir, monkeypatch, argv):
        from hessbif import cli
        from hessbif.system import SystemSpec

        # g and h with different limit classes: this path never reaches verify_predictions
        mismatched = {"N": 1, "k": 1, "R": 1.0,
                      "g": {"kind": "saturating_t"}, "h": {"kind": "superlinear_s"}}
        assert not SystemSpec.from_json(mismatched).matched_classes
        (specdir / "mismatched.json").write_text(json.dumps(mismatched))

        def no_work(*args, **kwargs):
            raise AssertionError("work started before --samples was checked")

        for name in ("first_eigenvalue", "trace_branch", "trace_system_branch",
                     "power_pair_constant"):
            monkeypatch.setattr(cli, name, no_work)
        monkeypatch.chdir(specdir)
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            rc = cli.main(argv)
        assert rc == cli.EXIT_INVALID
        assert "argument --samples" in err.getvalue()

    @pytest.mark.parametrize("argv", [
        ["trace", "--spec", "saturating.json", "--out-branch", "b.csv"],
        ["verify", "--spec", "saturating.json"],
        ["system-trace", "--spec", "system.json", "--out-branch", "b.csv"],
        ["system-verify", "--spec", "system.json"],
        ["sweep-k", "--spec", "saturating.json"],
    ], ids=["trace", "verify", "system-trace", "system-verify", "sweep-k"])
    def test_too_few_points_rejected_before_any_work(self, specdir, monkeypatch, argv):
        # every tracing command needs 16 base amplitudes, and says so before it prints
        from hessbif import cli

        def no_work(*args, **kwargs):
            raise AssertionError("work started before --n-points was checked")

        for name in ("first_eigenvalue", "trace_branch", "trace_system_branch"):
            monkeypatch.setattr(cli, name, no_work)
        monkeypatch.chdir(specdir)
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = cli.main(argv + ["--n-points", "15"])
        assert rc == cli.EXIT_INVALID
        assert out.getvalue() == ""
        assert "n_points must be >= 16, got 15" in err.getvalue()

    @pytest.mark.parametrize("window", [["--d-max", "inf"], ["--d-min", "nan"]],
                             ids=["d-max-inf", "d-min-nan"])
    def test_non_finite_window_named(self, specdir, window):
        from hessbif import cli

        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            rc = cli.main(["verify", "--spec", str(specdir / "saturating.json")] + window)
        assert rc == cli.EXIT_INVALID
        assert "0 < d_min < d_max < inf" in err.getvalue()
        assert "window [" in err.getvalue()

    @pytest.mark.parametrize("argv,named", [
        (["trace", "--spec", "superlinear.json", "--d-min", "1e100", "--d-max", "1e200"],
         "f(d) = inf"),
        (["trace", "--spec", "power2.json", "--d-min", "1e-200"], "f(d) = 0.0"),
    ], ids=["superlinear-overflow", "power-underflow"])
    def test_unusable_warm_start_is_numerical_failure(self, specdir, monkeypatch, argv,
                                                      named):
        # lambda0 = lambda1 d / f(d) is not a positive finite number once f(d) overflows or
        # underflows; the trace stops there and names d and f(d)
        from hessbif import cli

        (specdir / "superlinear.json").write_text(json.dumps(
            {"N": 2, "k": 1, "R": 1.0, "f": {"kind": "superlinear"}}))
        (specdir / "power2.json").write_text(json.dumps(
            {"N": 2, "k": 1, "R": 1.0, "f": {"kind": "power", "params": {"p": 2.0}}}))
        monkeypatch.chdir(specdir)
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            rc = cli.main(argv + ["--out-branch", "b.csv"])
        assert rc == cli.EXIT_NUMERICAL
        assert "no usable reference lambda at amplitude" in err.getvalue()
        assert named in err.getvalue()

    def test_unusable_coupled_cold_start_is_a_gap(self, tmp_path, capsys):
        # g(d_u, d_u) overflows on every amplitude, so every cold start is a gap
        from hessbif import cli

        path = tmp_path / "superlinear.json"
        path.write_text(json.dumps({"N": 2, "k": 1, "R": 1.0,
                                    "g": {"kind": "superlinear_t"},
                                    "h": {"kind": "superlinear_s"}}))
        rc = cli.main(["system-trace", "--spec", str(path), "--d-min", "1e300",
                       "--d-max", "1e305", "--out-branch", str(tmp_path / "b.csv")])
        assert rc == cli.EXIT_NUMERICAL
        assert "25/25 amplitudes have no lambda root" in capsys.readouterr().err

    def test_infinite_radius_invalid(self, tmp_path):
        r = run(["eigen", "--N", "1", "--k", "1", "--R", "inf"], tmp_path)
        assert r.returncode == 3, r.stderr

    @pytest.mark.parametrize("R", ["1e300", "1e-300"])
    def test_extreme_radius_is_numerical_failure(self, tmp_path, R):
        r = run(["eigen", "--N", "1", "--k", "1", "--R", R], tmp_path)
        assert r.returncode == 2, r.stderr
        assert "numerical failure" in r.stderr

    def test_loose_tolerance_coupled_eigen(self, tmp_path):
        r = run(["eigen", "--N", "8", "--k", "4", "--coupled", "--tol", "1e-5"], tmp_path)
        assert r.returncode == 0, r.stderr
        assert "lambda0 (coupled)" in r.stdout


# N = k = 60: the origin flux seed a^k r0^N underflows to 0, so the first trial step
# of the scaled IVP is span / 64 and its stage arithmetic overflows; it must be rejected
OVERFLOWING_FIRST_STEP = [{"kind": "linear"}, {"kind": "superlinear"}, {"kind": "log_bump"},
                          {"kind": "quadratic_over_linear"},
                          {"kind": "power", "params": {"p": 2.0}}]


class TestOverflowingTrialStep:
    @pytest.mark.parametrize("f", OVERFLOWING_FIRST_STEP, ids=lambda f: f["kind"])
    def test_verify_at_n_equal_k_60(self, f, tmp_path, monkeypatch):
        from hessbif import cli

        (tmp_path / "spec.json").write_text(json.dumps({"N": 60, "k": 60, "R": 1.13, "f": f}))
        monkeypatch.chdir(tmp_path)
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            rc = cli.main(["verify", "--spec", "spec.json"])
        assert rc == cli.EXIT_OK, out.getvalue()
        assert "overall: PASS" in out.getvalue()


class TestCommandPath:
    """No command loads numpy, which only the grid-profile functions need, nor dataclasses
    and the inspect it imports: the records are NamedTuples and __slots__ classes."""

    UNLOADED = ("numpy", "dataclasses", "inspect")

    def test_import_leaves_numpy_unloaded(self, tmp_path):
        code = f"import sys, hessbif.cli; print([m for m in {self.UNLOADED} if m in sys.modules])"
        r = run(["-c", code], tmp_path, base=[sys.executable])
        assert r.returncode == 0, r.stderr
        assert r.stdout.strip() == "[]"

    def test_commands_leave_numpy_unloaded(self, specdir):
        runs = [
            ["eigen", "--N", "2", "--k", "1", "--coupled"],
            ["verify", "--spec", "logbump2.json", "--n-points", "16", "--out-branch", "b.csv"],
            ["plot", "--branch", "b.csv", "--out", "b.svg"],
            ["sweep-k", "--spec", "logbump2.json", "--n-points", "16"],
            ["system-verify", "--spec", "system.json", "--n-points", "16"],
            ["power-pair", "--N", "2", "--k", "2", "--alpha", "4", "--beta", "1"],
        ]
        code = (
            "import json, sys\n"
            "from hessbif import cli\n"
            "for argv in json.loads(sys.argv[1]):\n"
            "    rc = cli.main(argv)\n"
            f"    loaded = [m for m in {self.UNLOADED} if m in sys.modules]\n"
            "    print('RESULT', argv[0], rc, *loaded, file=sys.stderr)\n"
        )
        r = run(["-c", code, json.dumps(runs)], specdir, base=[sys.executable])
        assert r.returncode == 0, r.stderr
        results = [line.split()[1:] for line in r.stderr.splitlines()
                   if line.startswith("RESULT")]
        assert results == [[argv[0], "0"] for argv in runs], r.stderr


class TestSystemCommands:
    def test_system_trace(self, specdir):
        r = run(["system-trace", "--spec", "system.json", "--out-branch", "sb.csv",
                 "--n-points", "16"], specdir)
        assert r.returncode == 0, r.stderr
        lines = (specdir / "sb.csv").read_text().splitlines()
        assert lines[0] == "index,d_u,d_v,lambda,res_u,res_v,is_fold"
        assert len(lines) >= 17  # base grid plus any local refinements
        assert all(len(line.split(",")) == 7 for line in lines[1:])

    def test_system_trace_base_rows_are_the_log_grid(self, specdir, monkeypatch):
        from hessbif import cli
        from hessbif.branch import log_grid

        monkeypatch.chdir(specdir)
        with contextlib.redirect_stdout(io.StringIO()):
            rc = cli.main(["system-trace", "--spec", "system.json", "--out-branch", "sb.csv",
                           "--n-points", "16"])
        assert rc == cli.EXIT_OK
        d_u = [float(line.split(",")[1])
               for line in (specdir / "sb.csv").read_text().splitlines()[1:]]
        base = [0.5 * d for d in log_grid(1e-2, 1e2, 16)]
        assert [x for x in d_u if x in base] == base   # every base row, in order, exactly

    def test_system_verify_passes(self, specdir):
        r = run(["system-verify", "--spec", "system.json", "--out-report", "sr.json",
                 "--n-points", "16"], specdir)
        assert r.returncode == 0, r.stderr
        obj = json.loads((specdir / "sr.json").read_text())
        assert obj["pass"] is True
        assert any("lambda0" in n for n in obj["notes"])

    @pytest.mark.parametrize("command, spec", [
        ("verify", {"f": {"kind": "log_bump"}}),
        ("system-verify", {"g": {"kind": "logbump_t"}, "h": {"kind": "logbump_s"}}),
    ], ids=["scalar", "system"])
    def test_logbump_n7k1_gaps_are_a_numerical_failure(self, tmp_path, capsys, command, spec):
        # f ~ s^2 at 0 is supercritical on the 7-ball: 14 of the 25 default amplitudes
        # have no zero of u, beyond the gap limit of both tracers
        from hessbif import cli

        path = tmp_path / "spec.json"
        path.write_text(json.dumps({"N": 7, "k": 1, "R": 1.13, **spec}))
        assert cli.main([command, "--spec", str(path)]) == cli.EXIT_NUMERICAL
        assert "14/25 amplitudes have no lambda root" in capsys.readouterr().err

    def test_system_verify_checks_declared_monotone_flags(self, specdir):
        spec = json.loads((specdir / "system.json").read_text())
        spec["monotone"]["g_in_t"] = False   # saturating_t is non-decreasing in t
        (specdir / "declared_false.json").write_text(json.dumps(spec))
        r = run(["system-verify", "--spec", "declared_false.json", "--out-report", "sr.json",
                 "--n-points", "16"], specdir)
        assert r.returncode == 1, r.stderr
        obj = json.loads((specdir / "sr.json").read_text())
        [check] = [c for c in obj["checks"] if c["name"].startswith("g non-decreasing in t")]
        assert check["pass"] is False
        assert check["observed"] == "numeric g_in_t=True, h_in_s=True"
        assert any("theorems assume" in n for n in obj["notes"])
        assert all(c["pass"] for c in obj["checks"] if c is not check)


class TestPowerPairAndSweep:
    def test_power_pair(self, tmp_path):
        r = run(["power-pair", "--N", "1", "--k", "1", "--alpha", "1", "--beta", "1",
                 "--samples", "6", "--out", "pp.json"], tmp_path)
        assert r.returncode == 0, r.stderr
        obj = json.loads((tmp_path / "pp.json").read_text())
        assert obj["constant"] == pytest.approx(6.088068189625151, rel=1e-7)
        assert obj["max_rel_deviation"] < 1e-6

    @pytest.mark.parametrize("samples", [[], ["--samples", "2"]], ids=["default", "samples-2"])
    def test_power_pair_keeps_no_state_between_calls(self, tmp_path, capsys, samples):
        # the offset that seeds each sample lives inside one call: N2k2 writes the same
        # bytes after an N1k1 call in the same process as in a fresh one
        from hessbif import cli

        def args(N, k, alpha, out):
            return ["power-pair", "--N", N, "--k", k, "--alpha", alpha, "--beta", "1",
                    "--out", str(tmp_path / out)] + samples

        for N, k, alpha, out in (("2", "2", "4", "first.json"), ("1", "1", "1", "n1k1.json"),
                                 ("2", "2", "4", "again.json")):
            assert cli.main(args(N, k, alpha, out)) == 0, capsys.readouterr().err
        r = run(args("2", "2", "4", "fresh.json"), tmp_path)
        assert r.returncode == 0, r.stderr
        first = (tmp_path / "first.json").read_bytes()
        assert (tmp_path / "again.json").read_bytes() == first
        assert (tmp_path / "fresh.json").read_bytes() == first

    def test_power_pair_bad_exponents(self, tmp_path):
        r = run(["power-pair", "--N", "2", "--k", "2", "--alpha", "3", "--beta", "1"],
                tmp_path)
        assert r.returncode == 3, r.stderr

    @pytest.mark.parametrize("mu_range", [["--mu-hi", "inf"], ["--mu-lo", "nan"],
                                          ["--mu-lo=-inf", "--mu-hi", "1"]],
                             ids=["hi-inf", "lo-nan", "lo-minus-inf"])
    def test_non_finite_mu_range_invalid_before_any_eigenvalue(self, monkeypatch, mu_range):
        from hessbif import cli
        from hessbif import system as system_mod

        def no_work(*args, **kwargs):
            raise AssertionError("an eigenvalue was computed before the mu range was checked")

        monkeypatch.setattr(system_mod, "first_eigenvalue", no_work)
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            rc = cli.main(["power-pair", "--N", "1", "--k", "1", "--alpha", "1",
                           "--beta", "1"] + mu_range)
        assert rc == cli.EXIT_INVALID
        assert "mu range must be positive and finite" in err.getvalue()

    @pytest.mark.parametrize("pair,mu_range", [
        (["1", "1", "1", "1"], ["1e-300", "1e300"]),
        (["2", "2", "1", "4"], ["5e-324", "1.7e308"]),
    ], ids=["N1k1-1e-300-1e300", "N2k2-alpha1-5e-324-1.7e308"])
    def test_extreme_finite_mu_range_has_no_traceback(self, tmp_path, pair, mu_range):
        N, k, alpha, beta = pair
        r = run(["power-pair", "--N", N, "--k", k, "--alpha", alpha, "--beta", beta,
                 "--mu-lo", mu_range[0], "--mu-hi", mu_range[1]], tmp_path)
        assert r.returncode in (0, 2), r.stderr
        assert "Traceback" not in r.stderr

    def test_non_finite_weight_is_named(self, capsys):
        # mu_ref = 1e300 at R = 1e-3 makes the weight (mu_ref s_u)^(1/k) overflow to inf
        from hessbif import cli

        rc = cli.main(["power-pair", "--N", "1", "--k", "1", "--alpha", "1", "--beta", "1",
                       "--mu-lo", "1e-300", "--mu-hi", "1e300", "--R", "1e-3"])
        err = capsys.readouterr().err
        assert rc == 2, err
        assert "returned (inf, 0.0)" in err and "refusing a non-finite integrand" in err

    def test_sweep_k(self, specdir):
        r = run(["sweep-k", "--spec", "logbump2.json", "--out", "sweep.csv",
                 "--n-points", "17"], specdir)
        assert r.returncode == 0, r.stderr
        assert "exploratory" in r.stdout
        lines = (specdir / "sweep.csv").read_text().splitlines()
        assert lines[0] == "k,lambda_star_min,comment"
        assert len(lines) == 3  # k = 1, 2


class TestDeterminism:
    def test_byte_identical_reruns(self, specdir):
        args = ["verify", "--spec", "saturating.json", "--out-report", "r1.json",
                "--out-branch", "b1.csv", "--n-points", "17"]
        r = run(args, specdir)
        assert r.returncode == 0, r.stderr
        args2 = ["verify", "--spec", "saturating.json", "--out-report", "r2.json",
                 "--out-branch", "b2.csv", "--n-points", "17"]
        r = run(args2, specdir)
        assert r.returncode == 0, r.stderr
        assert (specdir / "r1.json").read_bytes() == (specdir / "r2.json").read_bytes()
        assert (specdir / "b1.csv").read_bytes() == (specdir / "b2.csv").read_bytes()
        r = run(["plot", "--branch", "b1.csv", "--out", "p1.svg"], specdir)
        assert r.returncode == 0, r.stderr
        r = run(["plot", "--branch", "b2.csv", "--out", "p2.svg"], specdir)
        assert r.returncode == 0, r.stderr
        assert (specdir / "p1.svg").read_bytes() == (specdir / "p2.svg").read_bytes()
        (specdir / "system_n2.json").write_text(json.dumps(
            {"N": 2, "k": 1, "R": 1.0,
             "g": {"kind": "saturating_t"}, "h": {"kind": "saturating_s"}}))
        for i in (1, 2):
            r = run(["system-verify", "--spec", "system_n2.json", "--out-report", f"s{i}.json",
                     "--out-branch", f"s{i}.csv", "--n-points", "16"], specdir)
            assert r.returncode == 0, r.stderr
        assert (specdir / "s1.json").read_bytes() == (specdir / "s2.json").read_bytes()
        assert (specdir / "s1.csv").read_bytes() == (specdir / "s2.csv").read_bytes()


class TestCachedParser:
    """main builds its parser once per process; a reused parser answers as a fresh one."""

    SEQUENCE = [
        (["eigen", "--N", "2", "--k", "1", "--out", "e.json"], "e.json"),
        (["eigen", "-h"], None),
        (["verify", "--spec", "linear.json", "--samples", "0"], None),
        (["bogus"], None),
        (["eigen", "--N", "2", "--k", "2", "--coupled", "--out", "c.json"], "c.json"),
        (["power-pair", "--N", "1", "--k", "1", "--alpha", "1", "--beta", "1",
          "--samples", "2", "--out", "pp.json"], "pp.json"),
    ]

    @staticmethod
    def _call(argv, artifact):
        from hessbif import cli

        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                rc = cli.main(argv)
            except SystemExit as exc:
                rc = ("SystemExit", exc.code)
        data = None
        if artifact is not None:
            with open(artifact, "rb") as fh:
                data = fh.read()
            os.remove(artifact)
        return rc, out.getvalue(), err.getvalue(), data

    def test_reused_parser_answers_as_a_fresh_one(self, specdir, monkeypatch):
        from hessbif import cli

        monkeypatch.chdir(specdir)
        cli._parser.cache_clear()
        reused = [self._call(argv, artifact) for argv, artifact in self.SEQUENCE]
        assert cli._parser.cache_info().misses == 1
        fresh = []
        for argv, artifact in self.SEQUENCE:
            cli._parser.cache_clear()
            fresh.append(self._call(argv, artifact))
        assert reused == fresh
        assert [r[0] for r in reused] == [cli.EXIT_OK, ("SystemExit", 0), cli.EXIT_INVALID,
                                          cli.EXIT_INVALID, cli.EXIT_OK, cli.EXIT_OK]
        assert json.loads(reused[0][3])["iterations"] == 3

    def test_two_calls_build_nine_parsers(self, monkeypatch):
        # the top-level parser and its eight subcommands, built once
        import argparse

        from hessbif import cli

        built = []
        real = argparse.ArgumentParser.__init__

        def counting(self, *args, **kwargs):
            built.append(1)
            real(self, *args, **kwargs)

        cli._parser.cache_clear()
        monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting)
        for _ in range(2):
            with contextlib.redirect_stdout(io.StringIO()):
                assert cli.main(["eigen", "--N", "1", "--k", "1"]) == cli.EXIT_OK
        assert len(built) == 9

    def test_import_builds_no_parser(self, tmp_path):
        code = ("import argparse\n"
                "built = []\n"
                "real = argparse.ArgumentParser.__init__\n"
                "def counting(self, *a, **kw):\n"
                "    built.append(1)\n"
                "    real(self, *a, **kw)\n"
                "argparse.ArgumentParser.__init__ = counting\n"
                "from hessbif import cli\n"
                "print(len(built), cli._parser.cache_info().currsize)\n")
        r = run(["-c", code], tmp_path, base=[sys.executable])
        assert r.returncode == 0, r.stderr
        assert r.stdout.split() == ["0", "0"]

    def test_kernels_compile_on_first_use(self, specdir):
        # none at import; after one verify, one step and one rhs per (state size, formula,
        # N, k)
        from hessbif import cli

        code = ("import contextlib, io, json, linecache\n"
                "from hessbif import cli, core, rk\n"
                "def compiled():\n"
                "    return [rk._dop853_step.cache_info().currsize,\n"
                "            rk.slope_function.cache_info().currsize,\n"
                "            sorted(f for f in linecache.cache if f.startswith('<hessbif'))]\n"
                "print(json.dumps([core._formula_binder.cache_info().currsize] + compiled()))\n"
                "with contextlib.redirect_stdout(io.StringIO()):\n"
                "    rc = cli.main(['verify', '--spec', 'saturating.json'])\n"
                "print(json.dumps([rc] + compiled()))\n")
        r = run(["-c", code], specdir, base=[sys.executable])
        assert r.returncode == 0, r.stderr
        at_import, after_verify = map(json.loads, r.stdout.splitlines())
        assert at_import == [0, 0, 0, []]
        assert after_verify == [cli.EXIT_OK, 2, 2, [
            "<hessbif.rk dop853 n=2 flux linear N1k1>",
            "<hessbif.rk dop853 n=2 flux saturating N1k1>",
            "<hessbif.rk slope n=2 flux linear N1k1>",
            "<hessbif.rk slope n=2 flux saturating N1k1>"]]

    def test_build_parser_returns_a_fresh_parser(self):
        from hessbif import cli

        assert cli.build_parser() is not cli.build_parser()

    def test_coupled_eigen_reuses_lambda1(self, tmp_path, monkeypatch):
        # lambda0 is confirmed against the lambda1 the command already has
        import hessbif.system as system
        from hessbif import cli

        def no_second_solve(*args, **kwargs):
            raise AssertionError("eigen --coupled computed lambda1 a second time")

        monkeypatch.setattr(system, "first_eigenvalue", no_second_solve)
        out = tmp_path / "c.json"
        with contextlib.redirect_stdout(io.StringIO()):
            rc = cli.main(["eigen", "--N", "2", "--k", "1", "--coupled", "--out", str(out)])
        assert rc == cli.EXIT_OK
        obj = json.loads(out.read_text())
        assert obj["lambda0"] == obj["lambda1"]
