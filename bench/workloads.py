"""The three workloads: inputs drawn from the seed, the operations, and their checks.

An operation is one user-visible step: a ``hessbif`` command run in-process
through ``hessbif.cli.main``, or the branch-CSV round trip done through the
public API.  Each workload is a fixed list of operations; a run repeats the
whole list, so the share of failed operations is the same in every run.

The seed changes only the ball radius R (log-uniform, never a power of two,
since R in {0.5, 1, 2} makes the program's R^-2 scaling exact in floating
point) and the amplitude window [d_min, d_max] (each end moved outward by at
most a tenth of a decade, which keeps the four decades that the asymptote
checks need).  Every operation except the log_bump round trip succeeds over
these ranges.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import math
import os
import random
import traceback
import xml.etree.ElementTree as ET

import refs

# hessbif is imported inside the operations, not here, so that set-up timing
# (run.setup) covers the import.

# (name, N, k, f spec, interior extrema of lambda(d) predicted by the paper's table)
SCALAR_SPECS = (
    ("log_bump", 2, 2, {"kind": "log_bump"}, ["min"]),
    ("sum_of_powers", 2, 1,
     {"kind": "sum_of_powers", "params": {"p": 0.5, "q": 2.0, "c": 1.0}}, ["max"]),
    ("power", 3, 2, {"kind": "power", "params": {"p": 2.0}}, []),
)
# (name, N, k, weight base, params); all four are symmetric under u <-> v
SYSTEM_PAIRS = (
    ("saturating-N2k1", 2, 1, "saturating", {}),
    ("rational-N2k1", 2, 1, "rational", {"b": 2.0}),
    ("superlinear-N2k1", 2, 1, "superlinear", {}),
    ("saturating-N2k2", 2, 2, "saturating", {}),
)
EIGEN_CASES = ([(N, k) for N in range(1, 6) for k in range(1, N + 1)]
               + [(8, 1), (8, 4), (8, 8)])
EIGEN_RADII_PER_CASE = 3
# eigen commands per scalar spec and per coupled pair: one at the branch's R
# and the rest at radii of their own, so that eigen_s is a median of 24 or 8
# commands per round rather than of 3 or 4
SCALAR_EIGEN_RADII = 8
SYSTEM_EIGEN_RADII = 2
COUPLED_CASES = ((1, 1), (2, 1), (2, 2), (3, 3))
POWER_PAIRS = ((1, 1, 1.0, 1.0), (2, 2, 4.0, 1.0))
POWER_PAIR_MAX_DEV = 1e-5
CHECK_ROWS = 6   # branch rows per traced branch given the RK4 residual check

WORKLOADS = ("scalar-verify", "system-verify", "eigen-sweep")

# operation kinds that count toward verdict_s and eigen_s
VERDICT_KINDS = ("verify", "system-verify", "eigen-coupled", "power-pair")
EIGEN_KINDS = ("eigen",)


class Op:
    """One operation: ``run(outdir)`` returns (ok, note); ``check(outdir)`` returns problems.

    ``artifact`` names the output file that ``check`` reads the result from.
    """

    def __init__(self, name, kind, run, check, artifact=None):
        self.name = name
        self.kind = kind
        self.run = run
        self.check = check
        self.artifact = artifact


def _radius(rng, lo, hi):
    while True:
        R = math.exp(rng.uniform(math.log(lo), math.log(hi)))
        if not float(math.log2(R)).is_integer():
            return R


def _window(rng):
    return 1e-2 * 10.0 ** -rng.uniform(0.0, 0.1), 1e2 * 10.0 ** rng.uniform(0.0, 0.1)


def _cli(argv):
    """hessbif.cli.main(argv) with its console output captured; ok is exit code 0."""
    import hessbif.cli

    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(out):
        try:
            rc = hessbif.cli.main(argv)
        except SystemExit as exc:  # argparse rejected the arguments
            rc = exc.code
        except Exception:  # a crash is a failed operation, not a benchmark crash
            return False, traceback.format_exc(limit=3)
    return rc == 0, f"exit {rc}: {out.getvalue()[-300:]}"


def _read_json(path):
    with open(path) as fh:
        return json.load(fh)


def _read_rows(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def sample_rows(n):
    return sorted({round(j * (n - 1) / (CHECK_ROWS - 1)) for j in range(CHECK_ROWS)})


# ---------------------------------------------------------------------------
# operations shared by the workloads
# ---------------------------------------------------------------------------

def eigen_op(tag, N, k, R, coupled=False):
    fname = f"eigen-{tag}.json"
    argv = ["eigen", "--N", str(N), "--k", str(k), "--R", repr(R)]
    if coupled:
        argv.append("--coupled")

    def run(outdir):
        return _cli(argv + ["--out", os.path.join(outdir, fname)])

    def check(outdir):
        res = _read_json(os.path.join(outdir, fname))
        want = refs.eigen_reference(N, k, R)
        problems = []
        err = refs.rel_err(res["lambda1"], want)
        if err > refs.EIGEN_RTOL:
            problems.append(f"lambda1({N},{k},R={R!r}) = {res['lambda1']!r}, "
                            f"reference {want!r} (rel err {err:.2e})")
        if coupled and refs.rel_err(res["lambda0"], res["lambda1"]) > refs.EIGEN_RTOL:
            problems.append(f"lambda0 = {res['lambda0']!r} differs from "
                            f"lambda1 = {res['lambda1']!r}")
        return problems

    return Op(f"eigen{'-coupled' if coupled else ''} N={N} k={k} R={R:.4f}",
              "eigen-coupled" if coupled else "eigen", run, check, fname)


def _branch_range_problems(ds, d_min, d_max):
    problems = []
    if any(b <= a for a, b in zip(ds, ds[1:])):
        problems.append("branch amplitudes are not strictly increasing")
    if ds[0] < d_min * (1 - 1e-12) or ds[-1] > d_max * (1 + 1e-12):
        problems.append(f"branch leaves the window [{d_min!r}, {d_max!r}]")
    return problems


# ---------------------------------------------------------------------------
# scalar-verify
# ---------------------------------------------------------------------------

def scalar_ops(name, spec, extrema, d_min, d_max, inputs):
    N, k, R = spec["N"], spec["k"], spec["R"]
    spec_path = os.path.join(inputs, f"{name}.json")
    with open(spec_path, "w") as fh:
        json.dump(spec, fh)
    csv_name, rep_name, svg_name = f"{name}.csv", f"{name}-report.json", f"{name}.svg"
    window = ["--d-min", repr(d_min), "--d-max", repr(d_max)]

    def verify(outdir):
        return _cli(["verify", "--spec", spec_path,
                     "--out-report", os.path.join(outdir, rep_name),
                     "--out-branch", os.path.join(outdir, csv_name)] + window)

    def check_verify(outdir):
        problems = []
        if not _read_json(os.path.join(outdir, rep_name))["pass"]:
            problems.append("report says FAIL although the command exited 0")
        rows = _read_rows(os.path.join(outdir, csv_name))
        ds = [float(r["d"]) for r in rows]
        lams = [float(r["lambda"]) for r in rows]
        problems += _branch_range_problems(ds, d_min, d_max)
        for i in sample_rows(len(rows)):
            ok, rel, tol = refs.scalar_residual(spec, ds[i], lams[i])
            if not ok:
                problems.append(f"RK4 residual |u(R)|/d = {rel:.2e} > {tol:.2e} "
                                f"at d={ds[i]!r}, lambda={lams[i]!r}")
        found = refs.extrema(lams)
        if [kind for _, kind in found] != extrema:
            problems.append(f"extrema {found}, the table predicts {extrema}")
        marked = [i for i, r in enumerate(rows) if r["is_fold"] == "1"]
        if marked != [i for i, _ in found]:
            problems.append(f"fold rows {marked} differ from the extrema {found}")
        if spec["f"]["kind"] == "power":
            spread = refs.homogeneity_spread(ds, lams, spec["f"]["params"]["p"])
            if spread > refs.HOMOGENEITY_RTOL:
                problems.append(f"lambda d^(p-1) spreads by {spread:.2e}")
        return problems

    def plot(outdir):
        return _cli(["plot", "--branch", os.path.join(outdir, csv_name),
                     "--out", os.path.join(outdir, svg_name), "--title", name])

    def check_plot(outdir):
        rows = _read_rows(os.path.join(outdir, csv_name))
        try:
            root = ET.parse(os.path.join(outdir, svg_name)).getroot()
        except ET.ParseError as exc:
            return [f"SVG does not parse: {exc}"]
        ns = "{http://www.w3.org/2000/svg}"
        vertices = sum(len(p.get("points").split()) for p in root.iter(ns + "polyline"))
        circles = len(list(root.iter(ns + "circle")))
        folds = sum(r["is_fold"] == "1" for r in rows)
        if root.tag != ns + "svg" or vertices != len(rows) or circles != folds:
            return [f"SVG has {vertices} vertices and {circles} fold marks "
                    f"for {len(rows)} rows and {folds} folds"]
        return []

    reloaded = {}

    def roundtrip(outdir):
        import hessbif.branch as hb
        import hessbif.core as hc
        import hessbif.shooting as hs
        from hessbif.errors import HessbifError

        try:
            pspec = hc.ProblemSpec.load(spec_path)
            lam1 = hs.first_eigenvalue(pspec.N, pspec.k, pspec.R).lambda1
            pred = hb.predicted_interval(pspec.f.declared_f0, pspec.f.declared_finf, lam1)
            branch = hb.Branch.from_csv(os.path.join(outdir, csv_name))
            rep = hb.verify_predictions(branch, pred, 5)
        except HessbifError as exc:
            return False, f"{type(exc).__name__}: {exc}"
        reloaded[outdir] = [(p.d, p.lam) for p in branch.points]
        failing = [c.name for c in rep.checks if not c.passed]
        return rep.passed, f"re-verified reload fails {failing}" if failing else "pass"

    def check_roundtrip(outdir):
        rows = _read_rows(os.path.join(outdir, csv_name))
        want = [(float(r["d"]), float(r["lambda"])) for r in rows]
        if reloaded.pop(outdir, None) != want:
            return ["Branch.from_csv does not give back the CSV's (d, lambda) rows"]
        return []

    return [
        eigen_op(name, N, k, R),
        Op(f"verify {name}", "verify", verify, check_verify, csv_name),
        Op(f"plot {name}", "plot", plot, check_plot),
        Op(f"roundtrip {name}", "roundtrip", roundtrip, check_roundtrip),
    ]


def build_scalar(rng, inputs):
    ops = []
    for name, N, k, f, extrema in SCALAR_SPECS:
        spec = {"N": N, "k": k, "R": _radius(rng, 0.7, 1.4), "f": f}
        d_min, d_max = _window(rng)
        ops += [eigen_op(f"{name}-{i}", N, k, _radius(rng, 0.7, 1.4))
                for i in range(1, SCALAR_EIGEN_RADII)]
        ops += scalar_ops(name, spec, extrema, d_min, d_max, inputs)
    return ops


# ---------------------------------------------------------------------------
# system-verify
# ---------------------------------------------------------------------------

def system_op(name, spec, d_min, d_max, inputs):
    spec_path = os.path.join(inputs, f"{name}.json")
    with open(spec_path, "w") as fh:
        json.dump(spec, fh)
    csv_name, rep_name = f"{name}.csv", f"{name}-report.json"

    def run(outdir):
        return _cli(["system-verify", "--spec", spec_path,
                     "--out-report", os.path.join(outdir, rep_name),
                     "--out-branch", os.path.join(outdir, csv_name),
                     "--d-min", repr(d_min), "--d-max", repr(d_max)])

    def check(outdir):
        problems = []
        if not _read_json(os.path.join(outdir, rep_name))["pass"]:
            problems.append("report says FAIL although the command exited 0")
        rows = _read_rows(os.path.join(outdir, csv_name))
        du = [float(r["d_u"]) for r in rows]
        dv = [float(r["d_v"]) for r in rows]
        lams = [float(r["lambda"]) for r in rows]
        problems += _branch_range_problems(du, 0.5 * d_min, 0.5 * d_max)
        worst = max(abs(a - b) / a for a, b in zip(du, dv))
        if worst > refs.SYMMETRY_RTOL:
            problems.append(f"symmetric pair has |d_v - d_u|/d_u up to {worst:.2e}")
        for i in sample_rows(len(rows)):
            ok, rel, tol = refs.pair_residual(spec, du[i], dv[i], lams[i])
            if not ok:
                problems.append(f"RK4 residual {rel:.2e} > {tol:.2e} at d_u={du[i]!r}")
        found = refs.extrema(lams)
        if found:
            problems.append(f"extrema {found} on a branch the table makes monotone")
        return problems

    return Op(f"system-verify {name}", "system-verify", run, check, csv_name)


def build_system(rng, inputs):
    ops = []
    for name, N, k, base, params in SYSTEM_PAIRS:
        R = _radius(rng, 0.7, 1.4)
        d_min, d_max = _window(rng)
        spec = {"N": N, "k": k, "R": R,
                "g": {"kind": f"{base}_t", "params": params},
                "h": {"kind": f"{base}_s", "params": params}}
        ops += [eigen_op(f"{name}-{i}", N, k, _radius(rng, 0.7, 1.4))
                for i in range(1, SYSTEM_EIGEN_RADII)]
        ops += [eigen_op(name, N, k, R), system_op(name, spec, d_min, d_max, inputs)]
    return ops


# ---------------------------------------------------------------------------
# eigen-sweep
# ---------------------------------------------------------------------------

def power_pair_op(N, k, alpha, beta, R):
    fname = f"power-pair-N{N}k{k}.json"

    def run(outdir):
        return _cli(["power-pair", "--N", str(N), "--k", str(k), "--alpha", repr(alpha),
                     "--beta", repr(beta), "--R", repr(R),
                     "--out", os.path.join(outdir, fname)])

    def check(outdir):
        res = _read_json(os.path.join(outdir, fname))
        problems = []
        if not res["max_rel_deviation"] < POWER_PAIR_MAX_DEV:
            problems.append(f"lambda mu^(alpha/k) deviates by {res['max_rel_deviation']:.2e}")
        if N == 1 and k == 1 and alpha == 1.0 and beta == 1.0:
            want = (math.pi / (2.0 * R)) ** 4
            if refs.rel_err(res["constant"], want) > refs.EIGEN_RTOL:
                problems.append(f"constant {res['constant']!r}, reference (pi/2R)^4 = {want!r}")
        return problems

    return Op(f"power-pair N={N} k={k} alpha={alpha:g} beta={beta:g}", "power-pair",
              run, check, fname)


def build_eigen(rng, inputs):
    ops = []
    for N, k in EIGEN_CASES:
        for i in range(EIGEN_RADII_PER_CASE):
            ops.append(eigen_op(f"N{N}k{k}-{i}", N, k, _radius(rng, 0.5, 2.0)))
    for N, k in COUPLED_CASES:
        ops.append(eigen_op(f"coupled-N{N}k{k}", N, k, _radius(rng, 0.5, 2.0), coupled=True))
    for N, k, alpha, beta in POWER_PAIRS:
        ops.append(power_pair_op(N, k, alpha, beta, _radius(rng, 0.7, 1.4)))
    return ops


BUILDERS = {"scalar-verify": build_scalar, "system-verify": build_system,
            "eigen-sweep": build_eigen}


def build(workload, seed, inputs):
    """Write the workload's input files under ``inputs`` and return its operations."""
    os.makedirs(inputs, exist_ok=True)
    return BUILDERS[workload](random.Random(f"{workload}:{seed}"), inputs)
