"""Acceptance suite: one test per criterion, printed as one PASS/FAIL line each.

Run with ``pytest tests/test_acceptance.py -v -rA`` (or ``-s`` to stream the
lines).  Every tolerance is pinned here; runtime budgets are asserted on the
package operations themselves.
"""

import json
import math
import subprocess
import sys
import time
from contextlib import contextmanager

import numpy as np
import pytest

from hessbif.branch import count_solutions, trace_branch
from hessbif.core import NonlinearitySpec, ProblemSpec
from hessbif.shooting import (
    ShootingConfig,
    first_eigenvalue,
    integrate_profile,
    profile_admissible,
    solve_lambda,
)
from hessbif.system import (
    NonlinearitySpec2,
    SystemSpec,
    power_pair_constant,
    solve_system_shooting,
    trace_system_branch,
)

CFG = ShootingConfig()  # spec defaults: 1024-point grid, 1e-10 tolerances

LAM_INTERVAL = (math.pi / 2) ** 2   # 2.4674011002723395
LAM_BALL3 = math.pi**2              # 9.869604401089358
POWER_PAIR_C = (math.pi / 2) ** 4   # 6.088068189625151


@contextmanager
def criterion(number, description, budget_s):
    t0 = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"\nACCEPTANCE {number} [{description}]: FAIL")
        raise
    elapsed = time.perf_counter() - t0
    print(f"\nACCEPTANCE {number} [{description}]: PASS ({elapsed:.1f}s)")
    assert elapsed < budget_s, f"criterion {number} exceeded {budget_s}s budget"


def scalar(N, k, kind, params=None, R=1.0):
    return ProblemSpec(N=N, k=k, R=R, f=NonlinearitySpec(kind, dict(params or {})))


def coupled(N, k, base, params=None):
    return SystemSpec(N=N, k=k, R=1.0,
                      g=NonlinearitySpec2(f"{base}_t", dict(params or {})),
                      h=NonlinearitySpec2(f"{base}_s", dict(params or {})))


def test_criterion_1_eigenvalues():
    with criterion(1, "analytic first eigenvalues", 2.0):
        for (N, k, expect) in ((1, 1, LAM_INTERVAL), (3, 1, LAM_BALL3)):
            t0 = time.perf_counter()
            got = first_eigenvalue(N, k, 1.0, CFG).lambda1
            dt = time.perf_counter() - t0
            assert abs(got - expect) <= 1e-8 * expect, (N, k, got)
            assert dt < 1.0, f"first_eigenvalue({N},{k}) took {dt:.2f}s"


def test_criterion_2_scaling_law():
    with criterion(2, "eigenvalue scaling lambda1 ~ R^-2", 5.0):
        for N, k in ((1, 1), (2, 2), (3, 2)):
            lam_1 = first_eigenvalue(N, k, 1.0, CFG).lambda1
            lam_2 = first_eigenvalue(N, k, 2.0, CFG).lambda1
            assert abs(lam_2 * 4.0 - lam_1) <= 1e-8, (N, k, lam_2 * 4.0, lam_1)


def test_criterion_3_eigen_branch_flatness():
    with criterion(3, "eigen-branch flatness for linear f", 30.0):
        for N in (1, 2, 3):
            for k in range(1, N + 1):
                lam1 = first_eigenvalue(N, k, 1.0, CFG).lambda1
                br = trace_branch(scalar(N, k, "linear"), 1e-3, 1e3, 16, CFG,
                                  lambda_scale=lam1)
                worst = max(abs(p.lam - lam1) for p in br.points)
                assert worst < 1e-6, (N, k, worst)


def _assert_counts_at(branch, lams, expect_at_least=1):
    for lam in lams:
        n = count_solutions(branch, lam)
        assert n >= expect_at_least, (lam, n)


def test_criterion_4_existence_table_cells():
    with criterion(4, "existence table: four cells at N=2, k in {1,2}", 120.0):
        for k in (1, 2):
            lam1 = first_eigenvalue(2, k, 1.0, CFG).lambda1

            # (Finite, Zero): saturating; interval (lambda1, inf)
            br = trace_branch(scalar(2, k, "saturating"), 1e-2, 1e2, 17, CFG,
                              lambda_scale=lam1)
            _assert_counts_at(br, np.geomspace(1.05 * lam1, 9.5 * lam1, 5))
            assert count_solutions(br, lam1 * (1.0 - 1e-2)) == 0
            assert br.lambda_at_zero.kind == "finite"
            assert abs(br.lambda_at_zero.value - lam1) <= 1e-3 * lam1
            assert br.lambda_at_infinity.kind == "infinite"

            # (Finite, Infinite): s(1+s); interval (0, lambda1/f0), links to (0, inf)
            br = trace_branch(scalar(2, k, "superlinear"), 1e-2, 1e2, 17, CFG,
                              lambda_scale=lam1)
            lam_min = min(br.lam_values())
            _assert_counts_at(br, np.geomspace(1.5 * lam_min, 0.95 * lam1, 5))
            assert br.lambda_at_zero.kind == "finite"
            assert abs(br.lambda_at_zero.value - lam1) <= 1e-3 * lam1
            assert br.lambda_at_infinity.kind == "zero"

            # (Zero, Infinite): s^2; solutions across 3 decades of lambda
            br = trace_branch(scalar(2, k, "power", {"p": 2.0}), 1e-2, 1e2, 17, CFG,
                              lambda_scale=lam1)
            lams = br.lam_values()
            center = math.sqrt(min(lams) * max(lams))
            samples = np.geomspace(center / 10**1.55, center * 10**1.55, 5)
            assert samples[-1] / samples[0] >= 1e3
            _assert_counts_at(br, samples)
            assert br.lambda_at_zero.kind == "infinite"
            assert br.lambda_at_infinity.kind == "zero"

            # (Infinite, Zero): sqrt(s); solutions across 3 decades of lambda
            br = trace_branch(scalar(2, k, "power", {"p": 0.5}), 1e-4, 1e4, 17, CFG,
                              lambda_scale=lam1)
            lams = br.lam_values()
            center = math.sqrt(min(lams) * max(lams))
            samples = np.geomspace(center / 10**1.55, center * 10**1.55, 5)
            assert samples[-1] / samples[0] >= 1e3
            _assert_counts_at(br, samples)
            assert br.lambda_at_zero.kind == "zero"
            assert br.lambda_at_infinity.kind == "infinite"


def test_criterion_5_two_solution_fold_profile():
    with criterion(5, "superlinear-at-both-ends fold profile", 60.0):
        spec_f = {"p": 0.5, "q": 2.0, "c": 1.0}
        for k in (1, 2):
            lam1 = first_eigenvalue(2, k, 1.0, CFG).lambda1
            spec = scalar(2, k, "sum_of_powers", spec_f)
            br = trace_branch(spec, 1e-2, 1e2, 17, CFG, lambda_scale=lam1)
            maxima = [f for f in br.folds if f.kind == "max"]
            assert len(maxima) == 1 and len(br.folds) == 1, br.folds
            lam_star = maxima[0].lam
            assert count_solutions(br, 0.5 * lam_star) == 2
            assert count_solutions(br, 2.0 * lam_star) == 0
            # refinement stability: doubled base grid, same localized fold
            br2 = trace_branch(spec, 1e-2, 1e2, 34, CFG, lambda_scale=lam1)
            maxima2 = [f for f in br2.folds if f.kind == "max"]
            assert len(maxima2) == 1
            assert abs(lam_star - maxima2[0].lam) <= 1e-4 * lam_star


def test_criterion_6_coercive_zero_zero_profile():
    with criterion(6, "coercive Zero-Zero fold profile (incl. Monge-Ampere)", 60.0):
        for k in (2, 1):  # k = N = 2 is the Monge-Ampere specialization
            lam1 = first_eigenvalue(2, k, 1.0, CFG).lambda1
            br = trace_branch(scalar(2, k, "log_bump"), 1e-2, 1e2, 17, CFG,
                              lambda_scale=lam1)
            minima = [f for f in br.folds if f.kind == "min"]
            assert len(minima) == 1 and len(br.folds) == 1, br.folds
            lam_low = minima[0].lam
            assert count_solutions(br, 0.5 * lam_low) == 0
            assert count_solutions(br, 2.0 * lam_low) == 2


def test_criterion_7_coupled_eigenvalue_matches_scalar():
    with criterion(7, "coupled eigenvalue equals scalar eigenvalue", 10.0):
        from hessbif.system import confirm_coupled_eigenvalue

        for N, k in ((1, 1), (2, 1), (2, 2), (3, 3)):
            lam1 = first_eigenvalue(N, k, 1.0, CFG).lambda1
            lam0 = confirm_coupled_eigenvalue(N, k, 1.0, lam1, CFG)
            assert abs(lam0 - lam1) <= 1e-8 * lam1
            # asymmetric confirmation without imposing symmetry
            point = solve_system_shooting(coupled(N, k, "linear"), 1.0,
                                          (1.07 * lam1, 0.9), CFG)
            assert abs(point.lam - lam1) <= 1e-6 * lam1
            assert abs(point.d_v - 1.0) <= 1e-6


def test_criterion_8_power_pair_manifold():
    with criterion(8, "power-pair eigen manifold constancy", 60.0):
        res = power_pair_constant(1, 1, 1.0, 1.0, n_samples=8, cfg=CFG)
        assert abs(res.constant - POWER_PAIR_C) <= 1e-6 * POWER_PAIR_C
        assert res.max_rel_deviation < 1e-6
        mu_span = [m for _, m in res.samples]
        assert max(mu_span) / min(mu_span) >= 1e2

        lam1 = first_eigenvalue(2, 2, 1.0, CFG).lambda1
        res2 = power_pair_constant(2, 2, 4.0, 1.0, n_samples=8, cfg=CFG,
                                   mu_lo=0.1 * lam1**2, mu_hi=10.0 * lam1**2)
        assert res2.max_rel_deviation < 1e-5
        tight = ShootingConfig(integrator_tol=1e-12, root_tol=1e-12)
        res3 = power_pair_constant(2, 2, 4.0, 1.0, n_samples=8, cfg=tight,
                                   mu_lo=0.1 * lam1**2, mu_hi=10.0 * lam1**2)
        assert abs(res2.constant - res3.constant) <= 1e-8 * res3.constant


def test_criterion_9_system_table_asymptotes():
    with criterion(9, "system existence table asymptotes at N=2, k=1", 120.0):
        lam1 = first_eigenvalue(2, 1, 1.0, CFG).lambda1
        grid = np.geomspace(1e-2, 1e2, 17)

        # cell (mu=1 Finite, nu=Zero): saturating pair
        sb = trace_system_branch(coupled(2, 1, "saturating"), grid, CFG,
                                 lambda_scale=lam1)
        est = sb.lambda_at_zero
        assert est.kind == "finite"
        assert abs(est.value - lam1) <= 1e-3 * lam1
        assert sb.lambda_at_infinity.kind == "infinite"

        # cell (mu=1, nu=2 both Finite): rational pair, both asymptotes checkable
        sb = trace_system_branch(coupled(2, 1, "rational", {"b": 2.0}), grid, CFG,
                                 lambda_scale=lam1)
        est0, esti = sb.lambda_at_zero, sb.lambda_at_infinity
        assert est0.kind == "finite"
        assert abs(est0.value - lam1) <= 1e-3 * lam1
        assert esti.kind == "finite"
        assert abs(esti.value - lam1 / 2.0) <= 1e-3 * (lam1 / 2.0)


def test_criterion_10_invariant_suites(tmp_path):
    with criterion(10, "admissibility, self-consistency, determinism", 60.0):
        # admissibility on every accepted branch point, plus full-grid checks
        lam1 = first_eigenvalue(2, 2, 1.0, CFG).lambda1
        br = trace_branch(scalar(2, 2, "saturating"), 1e-2, 1e2, 16, CFG,
                          lambda_scale=lam1)
        assert all(p.admissible for p in br.points)
        for p in br.points[::5]:
            prof = integrate_profile(scalar(2, 2, "saturating"), p.lam, p.d, CFG)
            assert profile_admissible(prof, 2, 2)
            assert np.all(prof.u <= 1e-7 * max(1.0, p.d))

        # self-consistency of the analytic cosine case on the 1024-point grid
        prof = integrate_profile(scalar(1, 1, "linear"), 1.0, 1.0, CFG)
        assert prof.max_consistency_residual < 1e-6
        # and at a Dirichlet root of a nonlinear case (second-order FD error
        # scales with lambda^2, so the bound is proportionately looser)
        root = solve_lambda(scalar(1, 1, "saturating"), 1.0,
                            (LAM_INTERVAL, 10 * LAM_INTERVAL), CFG)[0]
        prof = integrate_profile(scalar(1, 1, "saturating"), root, 1.0, CFG)
        assert prof.max_consistency_residual < 1e-6 * max(1.0, root**2)

        # determinism: identical configs give byte-identical CSV/JSON/SVG
        specfile = tmp_path / "sat.json"
        specfile.write_text(json.dumps(
            {"N": 1, "k": 1, "R": 1.0, "f": {"kind": "saturating"}}))
        outputs = []
        for tag in ("a", "b"):
            rep = tmp_path / f"rep_{tag}.json"
            csv = tmp_path / f"br_{tag}.csv"
            svg = tmp_path / f"pl_{tag}.svg"
            r = subprocess.run(
                [sys.executable, "-m", "hessbif", "verify", "--spec", str(specfile),
                 "--out-report", str(rep), "--out-branch", str(csv),
                 "--n-points", "17"],
                capture_output=True, text=True, timeout=600)
            assert r.returncode == 0, r.stderr
            r = subprocess.run(
                [sys.executable, "-m", "hessbif", "plot", "--branch", str(csv),
                 "--out", str(svg)], capture_output=True, text=True, timeout=600)
            assert r.returncode == 0, r.stderr
            outputs.append((rep.read_bytes(), csv.read_bytes(), svg.read_bytes()))
        assert outputs[0] == outputs[1]
