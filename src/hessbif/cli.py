"""Command-line front end: eigen / trace / verify pipelines with CSV, JSON, SVG output.

Exit codes: 0 success (all checks pass), 1 verification failure (a theorem
predicate failed on the traced branch), 2 numerical failure, 3 invalid input,
malformed command-line arguments and unwritable output paths included; an
--out, --out-report or --out-branch in a missing directory fails before any
solve.  Runs are randomness-free; identical configurations produce
byte-identical artifacts.  verify and system-verify share one report path:
_verdict, then _report.

main builds its parser on its first call and reuses it for the rest of the
process, so in-process callers pay for the build once; importing the module
builds none.
"""

from __future__ import annotations

import argparse
import errno
import functools
import json
import math
import os
import sys

from .branch import (
    RADIAL_SCOPE_NOTE,
    Branch,
    VerificationReport,
    log_grid,
    predicted_interval,
    trace_branch,
    verify_predictions,
)
from .core import LimitClass, ProblemSpec, classify_limits, read_json
from .errors import (
    HessbifError,
    InvalidInputError,
    LimitConflictError,
    NumericalFailureError,
    OutOfTableError,
    TracingFailureError,
)
from .plotting import render_branches_svg
from .shooting import TOL, first_eigenvalue
from .system import (
    SystemSpec,
    add_monotonicity_check,
    confirm_coupled_eigenvalue,
    power_pair_constant,
    system_apriori_monitor,
    trace_system_branch,
)

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_NUMERICAL = 2
EXIT_INVALID = 3

EIGEN_FLATNESS_TOL = 1e-6


def _write_json(obj, path) -> None:
    with open(path, "w", newline="") as fh:
        json.dump(obj, fh, indent=2, sort_keys=True)
        fh.write("\n")


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def cmd_eigen(args) -> int:
    res = first_eigenvalue(args.N, args.k, args.R, args.tol)
    coupled = (confirm_coupled_eigenvalue(args.N, args.k, args.R, res.lambda1, args.tol)
               if args.coupled else None)
    print(f"lambda1({args.N},{args.k},R={args.R:g}) = {res.lambda1:.17g}")
    if coupled is not None:
        print(f"lambda0 (coupled) = {coupled:.17g}")
    if args.out:
        obj = {"schema_version": 1, "N": args.N, "k": args.k, "R": args.R,
               "lambda1": res.lambda1, "residual": res.residual,
               "iterations": res.iterations}
        if coupled is not None:
            obj["lambda0"] = coupled
            obj["note"] = "lambda0 computed by symmetric reduction and confirmed asymmetrically; equal to lambda1 on balls"
        _write_json(obj, args.out)
    return EXIT_OK


def _load_scalar_spec(path) -> ProblemSpec:
    spec = ProblemSpec.load(path)
    # numeric classification must agree with any declared classes
    classify_limits(spec.f)
    return spec


def cmd_trace(args) -> int:
    spec = _load_scalar_spec(args.spec)
    branch = trace_branch(spec, args.d_min, args.d_max, args.n_points, args.tol)
    branch.to_csv(args.out_branch)
    print(f"traced {len(branch.points)} points "
          f"({len(branch.folds)} folds, {len(branch.gaps)} gaps) -> {args.out_branch}")
    return EXIT_OK


def _verdict(branch: Branch, f0: LimitClass, finf: LimitClass, lam1: float, samples: int,
             spec: ProblemSpec | None = None, tol: float = TOL) -> VerificationReport:
    """verify_predictions on the table's cell for (f0, finf), certified given the scalar
    spec; out of table (the eigenvalue case), the flatness of lambda(d) at f0's eigenvalue."""
    try:
        pred = predicted_interval(f0, finf, lam1)
    except OutOfTableError:
        rep = VerificationReport(notes=[
            "out of table: equal finite limits at both ends (eigenvalue case)",
            RADIAL_SCOPE_NOTE,
        ])
        lam_target = f0.ratio_under(lam1)
        worst = max(abs(l - lam_target) for l in branch.lam_values())
        rep.add("eigen-branch flatness", f"|lambda - {lam_target:.10g}| < {EIGEN_FLATNESS_TOL}",
                f"max deviation = {worst:.3e}", worst < EIGEN_FLATNESS_TOL, EIGEN_FLATNESS_TOL)
        return rep
    return verify_predictions(branch, pred, samples, spec, tol)


def _report(rep: VerificationReport, args) -> int:
    """Write rep to --out-report if given, print it, and return its exit code."""
    if args.out_report:
        _write_json(rep.to_json(), args.out_report)
    for c in rep.checks:
        status = "PASS" if c.passed else "FAIL"
        print(f"[{status}] {c.name}: predicted {c.predicted}, observed {c.observed}")
    for note in rep.notes:
        print(f"note: {note}")
    print(f"overall: {'PASS' if rep.passed else 'FAIL'}")
    return EXIT_OK if rep.passed else EXIT_VERIFY_FAILED


def cmd_verify(args) -> int:
    spec = _load_scalar_spec(args.spec)
    # the predictions come from f's limit classes, which a tabulated kind leaves undeclared
    missing = [name for name, cls in (("f0", spec.f.declared_f0),
                                      ("finf", spec.f.declared_finf)) if cls is None]
    if missing:
        raise InvalidInputError(f"verify needs the limit classes of f: declare {', '.join(missing)} "
                                f"in the spec (kind {spec.f.kind!r} does not determine them)")
    lam1 = first_eigenvalue(spec.N, spec.k, spec.R, args.tol).lambda1
    branch = trace_branch(spec, args.d_min, args.d_max, args.n_points, args.tol,
                          lambda_scale=lam1)
    if args.out_branch:
        branch.to_csv(args.out_branch)
    return _report(_verdict(branch, spec.f.declared_f0, spec.f.declared_finf, lam1,
                            args.samples, spec, args.tol), args)


def cmd_system_trace(args) -> int:
    spec = SystemSpec.from_json(read_json(args.spec))
    grid = log_grid(args.d_min, args.d_max, args.n_points)
    branch = trace_system_branch(spec, grid, args.tol)
    branch.to_csv(args.out_branch)
    print(f"traced {len(branch.points)} system points "
          f"({len(branch.folds)} folds, {len(branch.gaps)} gaps) -> {args.out_branch}")
    return EXIT_OK


def cmd_system_verify(args) -> int:
    spec = SystemSpec.from_json(read_json(args.spec))
    lam1 = first_eigenvalue(spec.N, spec.k, spec.R, args.tol).lambda1
    grid = log_grid(args.d_min, args.d_max, args.n_points)
    branch = trace_system_branch(spec, grid, args.tol, lambda_scale=lam1)
    if args.out_branch:
        branch.to_csv(args.out_branch)

    if spec.matched_classes:
        rep = _verdict(branch, spec.mu, spec.nu, lam1, args.samples)
    else:
        rep = VerificationReport(notes=[
            "component classes mismatch (g and h): theorem verification skipped, monitors only",
            RADIAL_SCOPE_NOTE,
        ])
    system_apriori_monitor(rep, branch, spec, lam1)
    if spec.matched_classes:
        rep.notes.append(
            "coupled eigenvalue lambda0 equals scalar lambda1 on balls (symmetric reduction)")
    add_monotonicity_check(rep, spec, max(p.d for p in branch.points))
    return _report(rep, args)


def cmd_power_pair(args) -> int:
    res = power_pair_constant(args.N, args.k, args.alpha, args.beta, args.R,
                              args.samples, args.tol, mu_lo=args.mu_lo, mu_hi=args.mu_hi)
    print(f"lambda * mu^(alpha/k) = {res.constant:.17g} "
          f"(max relative deviation {res.max_rel_deviation:.3e} "
          f"over {len(res.samples)} samples)")
    if args.out:
        _write_json({
            "schema_version": 1, "N": args.N, "k": args.k,
            "alpha": args.alpha, "beta": args.beta, "R": args.R,
            "constant": res.constant,
            "max_rel_deviation": res.max_rel_deviation,
            "samples": [{"lambda": lam, "mu": mu} for lam, mu in res.samples],
            "note": "constant existence/constancy verified; no closed form is claimed",
        }, args.out)
    return EXIT_OK


def cmd_plot(args) -> int:
    branches = []
    for path in args.branch:
        label = os.path.splitext(os.path.basename(path))[0] if len(args.branch) > 1 else ""
        branches.append((label, Branch.from_csv(path)))
    interval = None
    if args.interval:
        parts = args.interval.split(",")
        if len(parts) != 2:
            raise InvalidInputError(f"--interval must be 'lo,hi', got {args.interval!r}")
        try:
            interval = (float(parts[0]), float(parts[1]))
        except ValueError as exc:
            raise InvalidInputError(f"bad --interval: {exc}") from exc
        if not interval[0] < interval[1]:
            raise InvalidInputError(f"--interval needs lo < hi, got {args.interval!r}")
    render_branches_svg(branches, args.out, interval=interval, title=args.title)
    print(f"wrote {args.out}")
    return EXIT_OK


def cmd_sweep_k(args) -> int:
    spec = _load_scalar_spec(args.spec)
    rows = []
    print("exploratory sweep over Hessian order k (no acceptance claims):")
    for k in range(1, spec.N + 1):
        kspec = ProblemSpec(N=spec.N, k=k, R=spec.R, f=spec.f)
        try:
            branch = trace_branch(kspec, args.d_min, args.d_max, args.n_points, args.tol)
        except (NumericalFailureError, TracingFailureError) as exc:
            print(f"  k={k}: trace failed ({exc})")
            rows.append((k, math.nan, "failed"))
            continue
        minima = [f.lam for f in branch.folds if f.kind == "min"]
        lam_low = min(minima) if minima else math.nan
        desc = (f"radial lambda_* = {lam_low:.10g}" if minima
                else "no interior minimum detected")
        print(f"  k={k}: {len(branch.folds)} folds; {desc}")
        rows.append((k, lam_low, desc))
    if args.out:
        with open(args.out, "w", newline="") as fh:
            fh.write("k,lambda_star_min,comment\n")
            for k, lam_low, desc in rows:
                fh.write(f"{k},{lam_low:.17g},{desc}\n")
    return EXIT_OK


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------


def _add_tol_arg(p):
    p.add_argument("--tol", type=float, default=TOL,
                   help="tolerance of every IVP (each steps at 0.1 tol) and relative "
                        f"tolerance of every root (default {TOL:g})")


def _add_trace_args(p):
    p.add_argument("--d-min", type=float, default=1e-2)
    p.add_argument("--d-max", type=float, default=1e2)
    p.add_argument("--n-points", type=_count("n_points", 16), default=25)


def _count(name: str, low: int):
    """argparse type for an integer count >= low, so a bad count fails before any work."""
    def parse(text):
        try:
            n = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
        if n < low:
            raise argparse.ArgumentTypeError(f"{name} must be >= {low}, got {n}")
        return n
    return parse


class _Parser(argparse.ArgumentParser):
    """Reports malformed arguments as invalid input (exit 3), not argparse's exit 2."""

    def error(self, message):
        self.print_usage(sys.stderr)
        raise InvalidInputError(f"{self.prog}: {message}")


def build_parser() -> argparse.ArgumentParser:
    ap = _Parser(
        prog="hessbif",
        description="Radial k-Hessian bifurcation toolkit: shooting, branch "
                    "tracing, and machine-checked existence/multiplicity predicates.")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("eigen", help="first eigenvalue of the radial operator")
    p.add_argument("--N", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--R", type=float, default=1.0)
    p.add_argument("--coupled", action="store_true",
                   help="also compute the coupled-system eigenvalue lambda0")
    p.add_argument("--out", help="write result JSON here")
    _add_tol_arg(p)
    p.set_defaults(fn=cmd_eigen)

    p = sub.add_parser("trace", help="trace a bifurcation branch lambda(d)")
    p.add_argument("--spec", required=True, help="problem spec JSON")
    p.add_argument("--out-branch", required=True, help="branch CSV output")
    _add_trace_args(p)
    _add_tol_arg(p)
    p.set_defaults(fn=cmd_trace)

    p = sub.add_parser("verify", help="trace and check theorem predicates")
    p.add_argument("--spec", required=True)
    p.add_argument("--out-report", help="verification report JSON")
    p.add_argument("--out-branch", help="branch CSV output")
    p.add_argument("--samples", type=_count("lambda_samples", 1), default=5)
    _add_trace_args(p)
    _add_tol_arg(p)
    p.set_defaults(fn=cmd_verify)

    p = sub.add_parser("system-trace", help="trace a coupled-system branch")
    p.add_argument("--spec", required=True, help="system spec JSON")
    p.add_argument("--out-branch", required=True)
    _add_trace_args(p)
    _add_tol_arg(p)
    p.set_defaults(fn=cmd_system_trace)

    p = sub.add_parser("system-verify", help="trace a system branch and check predicates")
    p.add_argument("--spec", required=True)
    p.add_argument("--out-report")
    p.add_argument("--out-branch")
    p.add_argument("--samples", type=_count("lambda_samples", 1), default=5)
    _add_trace_args(p)
    _add_tol_arg(p)
    p.set_defaults(fn=cmd_system_verify)

    p = sub.add_parser("power-pair", help="power-pair eigen manifold constant")
    p.add_argument("--N", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--alpha", type=float, required=True)
    p.add_argument("--beta", type=float, required=True)
    p.add_argument("--R", type=float, default=1.0)
    p.add_argument("--samples", type=_count("mu samples", 2), default=8,
                   help="number of samples, seeded at mu_ref on a log grid over "
                        "[mu_lo, mu_hi]; each lands at mu_ref (rho/R)^(2k)")
    p.add_argument("--mu-lo", type=float, default=None,
                   help="low end of the log grid of sample seeds, finite "
                        "(default 1e-2 lambda1^k)")
    p.add_argument("--mu-hi", type=float, default=None,
                   help="high end of the log grid of sample seeds, finite "
                        "(default 1e2 lambda1^k)")
    p.add_argument("--out")
    _add_tol_arg(p)
    p.set_defaults(fn=cmd_power_pair)

    p = sub.add_parser("plot", help="render branch CSVs to a static SVG diagram")
    p.add_argument("--branch", nargs="+", required=True, help="branch CSV file(s)")
    p.add_argument("--out", required=True, help="SVG output path")
    p.add_argument("--interval", help="shade lambda band 'lo,hi' (hi may be inf)")
    p.add_argument("--title")
    p.set_defaults(fn=cmd_plot)

    p = sub.add_parser("sweep-k",
                       help="exploratory sweep of the fold threshold over k (no claims)")
    p.add_argument("--spec", required=True)
    p.add_argument("--out", help="CSV summary output")
    _add_trace_args(p)
    _add_tol_arg(p)
    p.set_defaults(fn=cmd_sweep_k)
    return ap


# parse_args leaves the parser as it was, so one instance serves every main call
_parser = functools.cache(build_parser)


def main(argv=None) -> int:
    ap = _parser()
    try:
        args = ap.parse_args(argv)
        for name in ("out", "out_report", "out_branch"):   # fail before any solve
            path = getattr(args, name, None)
            if path and not os.path.isdir(os.path.dirname(path) or "."):
                raise FileNotFoundError(errno.ENOENT, os.strerror(errno.ENOENT), path)
        return args.fn(args)
    except (InvalidInputError, LimitConflictError) as exc:
        print(f"invalid input: {exc}", file=sys.stderr)
        return EXIT_INVALID
    except OSError as exc:   # an output path that cannot be written
        print(f"invalid input: cannot write {exc.filename}: {exc.strerror}", file=sys.stderr)
        return EXIT_INVALID
    except (NumericalFailureError, TracingFailureError, ArithmeticError) as exc:
        # float overflow or underflow to zero at extreme radii or amplitudes
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except HessbifError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
