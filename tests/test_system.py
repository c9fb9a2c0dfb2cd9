import json
import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hessbif.branch import VerificationReport
from hessbif.core import LimitClass, NonlinearitySpec, ProblemSpec
from hessbif.errors import InvalidInputError, NumericalFailureError, TracingFailureError
from hessbif.shooting import (
    DEFAULT_CONFIG,
    ShootingConfig,
    first_eigenvalue,
    flux_ivp,
    integrate_profile,
    profile_admissible,
)
from hessbif.system import (
    NonlinearitySpec2,
    SystemSpec,
    add_monotonicity_check,
    confirm_coupled_eigenvalue,
    fd_nondecreasing,
    integrate_system,
    power_pair_constant,
    solve_system_shooting,
    system_apriori_monitor,
    system_boundary_values,
    trace_system_branch,
    write_system_csv,
)

from _oracles import newton_pair

LAM_COS = 2.4674011002723395
FAST = ShootingConfig(grid_points=128)


def coupled(N, k, base, params=None, R=1.0):
    return SystemSpec(
        N=N, k=k, R=R,
        g=NonlinearitySpec2(f"{base}_t", dict(params or {})),
        h=NonlinearitySpec2(f"{base}_s", dict(params or {})),
    )


class TestNonlinearitySpec2:
    def test_zeros_on_coupling_axis(self):
        g = NonlinearitySpec2("saturating_t")
        assert g(5.0, 0.0) == 0.0
        assert g(0.0, 2.0) == pytest.approx(2.0 / 3.0)
        h = NonlinearitySpec2("saturating_s")
        assert h(0.0, 5.0) == 0.0
        assert h(2.0, 0.0) == pytest.approx(2.0 / 3.0)

    def test_declared_classes(self):
        g = NonlinearitySpec2("powermix_t")
        assert g.lim0.is_infinite and g.liminf.is_infinite
        g = NonlinearitySpec2("logbump_t")
        assert g.lim0.is_zero and g.liminf.is_zero
        g = NonlinearitySpec2("rational_t", {"b": 2.0})
        assert g.liminf == LimitClass.finite(2.0)

    def test_bad_kinds_rejected(self):
        with pytest.raises(InvalidInputError):
            NonlinearitySpec2("saturating")
        with pytest.raises(InvalidInputError):
            NonlinearitySpec2("unknown_t")
        with pytest.raises(InvalidInputError):
            NonlinearitySpec2("rational_t", {"b": -1.0})

    def test_system_spec_roles_enforced(self):
        with pytest.raises(InvalidInputError):
            SystemSpec(N=2, k=1, R=1.0, g=NonlinearitySpec2("linear_s"),
                       h=NonlinearitySpec2("linear_s"))

    @pytest.mark.parametrize("N,k", [(2.5, 1), (61, 1)])
    def test_system_spec_order_checked_as_for_scalars(self, N, k):
        # a non-integer N used to reach math.comb as a TypeError, N = 61 to be integrated
        with pytest.raises(InvalidInputError):
            SystemSpec(N=N, k=k, R=1.0, g=NonlinearitySpec2("linear_t"),
                       h=NonlinearitySpec2("linear_s"))

    def test_json_roundtrip(self):
        spec = coupled(2, 1, "rational", {"b": 2.0})
        again = SystemSpec.from_json(spec.to_json())
        assert again.g.kind == "rational_t"
        assert again.g(1.0, 1.0) == spec.g(1.0, 1.0)
        assert again.monotone_g_in_t and again.monotone_h_in_s


class TestIntegrateSystem:
    def test_lambda_zero_constant(self):
        pu, pv = integrate_system(coupled(2, 1, "linear"), 0.0, 1.0, 2.0, FAST)
        assert np.all(pu.u == -1.0)
        assert np.all(pv.u == -2.0)

    def test_symmetric_reduction_matches_scalar(self):
        # g(s,t)=t, h(s,t)=s with equal amplitudes: u == v == scalar profile
        pu, pv = integrate_system(coupled(1, 1, "linear"), 1.0, 1.0, 1.0, FAST)
        assert np.max(np.abs(pu.u - pv.u)) < 1e-10
        assert np.max(np.abs(pu.u + np.cos(pu.r))) < 1e-9
        for N, k in ((1, 1), (2, 1), (2, 2), (3, 2), (5, 5)):
            # the shared kernel integrates both alike; only the error norm's
            # component count differs
            pu, pv = integrate_system(coupled(N, k, "linear"), 1.0, 1.0, 1.0, FAST)
            scalar = integrate_profile(
                ProblemSpec(N=N, k=k, R=1.0, f=NonlinearitySpec("linear")), 1.0, 1.0, FAST)
            for prof in (pu, pv):
                for got, want in ((prof.u, scalar.u), (prof.uprime, scalar.uprime)):
                    assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want)), (N, k)

    def test_eigenvalue_boundary_zero(self):
        ru, rv = system_boundary_values(coupled(1, 1, "linear"), LAM_COS, 1.0, 1.0, FAST)
        assert abs(ru) < 1e-8 and abs(rv) < 1e-8

    def test_consistency_residuals_small(self):
        pu, pv = integrate_system(coupled(2, 1, "saturating"), 3.0, 1.0, 1.0,
                                  ShootingConfig(grid_points=1024))
        assert pu.max_consistency_residual < 1e-6
        assert pv.max_consistency_residual < 1e-6

    def test_invalid_amplitudes(self):
        with pytest.raises(InvalidInputError):
            integrate_system(coupled(2, 1, "linear"), 1.0, 0.0, 1.0, FAST)


class TestSolveSystemShooting:
    def test_symmetric_solution_found(self):
        point = solve_system_shooting(coupled(1, 1, "linear"), 1.0,
                                      (1.1 * LAM_COS, 0.8), FAST)
        assert point.lam == pytest.approx(LAM_COS, rel=1e-8)
        assert point.d_v == pytest.approx(1.0, rel=1e-8)
        assert abs(point.res_u) < 1e-9 and abs(point.res_v) < 1e-9
        assert point.admissible

    def test_rejects_bad_inputs(self):
        spec = coupled(1, 1, "linear")
        with pytest.raises(InvalidInputError):
            solve_system_shooting(spec, 0.0, (1.0, 1.0), FAST)
        with pytest.raises(InvalidInputError):
            solve_system_shooting(spec, 1.0, (-1.0, 1.0), FAST)

    def test_superlinear_small_amplitude_near_table_value(self):
        # mu = g0 = 1: branch emanates from lambda1 / mu
        spec = coupled(2, 1, "superlinear")
        lam1 = first_eigenvalue(2, 1, 1.0, FAST).lambda1
        point = solve_system_shooting(spec, 5e-4, (lam1, 5e-4), FAST)
        assert point.lam == pytest.approx(lam1, rel=1e-2)


SYMMETRIC_PAIRS = (("linear", None), ("saturating", None), ("superlinear", None),
                   ("rational", {"b": 0.5}), ("rational", {"b": 2.0}),
                   ("powermix", None), ("logbump", None))


def cold_start(spec, d_u):
    """The tracer's first-point guess (lambda1 d_u / g(d_u, d_u), d_u)."""
    lam1 = first_eigenvalue(spec.N, spec.k, spec.R, FAST).lambda1
    return lam1 * d_u / spec.g(d_u, d_u), d_u


def asymmetric(N, g, h, h_params=None):
    return SystemSpec(N=N, k=1, R=1.0, g=NonlinearitySpec2(g),
                      h=NonlinearitySpec2(h, dict(h_params or {})))


class TestOneDimensionalRoot:
    @pytest.mark.parametrize("N", [2, 3])
    @pytest.mark.parametrize("g,h,h_params", [("saturating_t", "rational_s", {"b": 3.0}),
                                              ("linear_t", "superlinear_s", None)])
    def test_agrees_with_two_residual_newton(self, N, g, h, h_params):
        # Newton on the fixed-R residuals shares no step with the scaled root.
        # The points come from a trace, so each reference lambda is the
        # neighbouring point's and rho stays near R.
        spec = asymmetric(N, g, h, h_params)
        sb = trace_system_branch(spec, np.geomspace(0.1, 40.0, 9), FAST)
        picked = [p for p in sb.points
                  if any(p.d_u == pytest.approx(d_u, rel=1e-12) for d_u in (0.05, 1.0, 20.0))]
        assert len(picked) == 3
        for point in picked:

            def residual(lam, d_v, d_u=point.d_u):
                return system_boundary_values(spec, lam, d_u, d_v, FAST)

            lam, d_v, _ = newton_pair(residual, 1.05 * point.lam, 0.95 * point.d_v,
                                      scale_u=point.d_u, scale_v=point.d_v,
                                      tol=FAST.root_tol)
            assert lam == pytest.approx(point.lam, rel=1e-9), point.d_u
            assert d_v == pytest.approx(point.d_v, rel=1e-9), point.d_u

    def test_default_tolerance_within_1e9_of_a_tight_run(self):
        # the worst coupled case of the sweep behind shooting.STEP_TOL_FACTOR, from the
        # neighbouring traced point: stepping at the caller's tolerance puts d_v 3.6e-9
        # off, one decade tighter 5.4e-10
        spec = SystemSpec(N=3, k=1, R=0.93, g=NonlinearitySpec2("saturating_t"),
                          h=NonlinearitySpec2("rational_s", {"b": 3.0}))
        init = (350.8, 5306.0)
        got = solve_system_shooting(spec, 50.0, init)
        want = solve_system_shooting(spec, 50.0, init,
                                     ShootingConfig(integrator_tol=1e-13, root_tol=1e-13))
        assert got.lam == pytest.approx(want.lam, rel=1e-9)
        assert got.d_v == pytest.approx(want.d_v, rel=1e-9)

    def test_detuned_root_fails_the_fixed_radius_check(self, monkeypatch):
        import hessbif.system as system_mod

        real = system_mod._common_zero

        def detuned(*args):
            rho, d_v = real(*args)
            return rho * (1.0 + 1e-6), d_v

        monkeypatch.setattr(system_mod, "_common_zero", detuned)
        spec = asymmetric(2, "saturating_t", "rational_s", {"b": 3.0})
        with pytest.raises(NumericalFailureError,
                           match=r"fixed-R residual check failed.*res_u = .*res_v = "):
            solve_system_shooting(spec, 1.0, cold_start(spec, 1.0), FAST)

    def test_no_zero_of_u_is_named(self):
        # N > 2k and saturating g < 1: at lambda_ref = 1e-6, u levels off below
        # zero however large d_v grows
        spec = coupled(3, 1, "saturating")
        with pytest.raises(NumericalFailureError, match="u has no zero before 1000 R"):
            solve_system_shooting(spec, 1.0, (1e-6, 1.0), FAST)

    def test_too_few_points_is_a_tracing_failure(self, monkeypatch, tmp_path):
        import hessbif.cli as cli
        import hessbif.system as system_mod

        solve = system_mod.solve_system_shooting
        grid = [float(d) for d in np.geomspace(1e-2, 1e2, 16)]
        kept = {0.5 * d for d in grid[:3]}

        def failing(spec, d_u, *rest):
            if d_u not in kept:
                raise NumericalFailureError("injected failure")
            return solve(spec, d_u, *rest)

        monkeypatch.setattr(system_mod, "solve_system_shooting", failing)
        spec = coupled(2, 1, "saturating")
        with pytest.raises(TracingFailureError, match="fewer than 4 points"):
            trace_system_branch(spec, grid, FAST)
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(spec.to_json()))
        assert cli.main(["system-trace", "--spec", str(path), "--n-points", "16",
                         "--out-branch", str(tmp_path / "out.csv")]) == 2

    def test_at_most_four_ivps_per_point(self, monkeypatch):
        import hessbif.rk as rk

        spec = coupled(2, 1, "saturating")
        lam1 = first_eigenvalue(2, 1, 1.0, FAST).lambda1
        calls = []
        real = rk.integrate

        def counting(*args, **kwargs):
            calls.append(1)
            return real(*args, **kwargs)

        monkeypatch.setattr(rk, "integrate", counting)
        sb = trace_system_branch(spec, np.geomspace(1e-2, 1e2, 16), FAST,
                                 lambda_scale=lam1)
        assert sb.gaps == []
        assert len(calls) <= 4 * len(sb.points)

    @pytest.mark.parametrize("N, k, base, params", [
        (2, 1, "saturating", None), (2, 1, "rational", {"b": 2.0}),
        (2, 1, "superlinear", None), (2, 2, "saturating", None),
        (2, 1, "powermix", None), (3, 1, "logbump", None),
    ], ids=["saturating-N2k1", "rational-N2k1", "superlinear-N2k1", "saturating-N2k2",
            "powermix-N2k1", "logbump-N3k1"])
    def test_symmetric_warm_start_is_exact(self, monkeypatch, N, k, base, params):
        # d_u (d_v / d_u) of one neighbour, or d_u times the root of both ratios, is d_u
        # itself, so every solve (base point, refinement or fold polish) takes the F = 0
        # return of _common_zero: one root IVP and one fixed-R shot per solve
        import hessbif.rk as rk
        import hessbif.system as system_mod

        spec = coupled(N, k, base, params)
        lam1 = first_eigenvalue(N, k, 1.0, FAST).lambda1
        calls, solves = [], []
        real, solve = rk.integrate, system_mod.solve_system_shooting

        def counting(*args, **kwargs):
            calls.append(1)
            return real(*args, **kwargs)

        def solving(*args):
            solves.append(1)
            return solve(*args)

        monkeypatch.setattr(rk, "integrate", counting)
        monkeypatch.setattr(system_mod, "solve_system_shooting", solving)
        sb = trace_system_branch(spec, np.geomspace(1e-2, 1e2, 16), FAST,
                                 lambda_scale=lam1)
        assert len(calls) == 2 * len(solves)
        # fold polish keeps one point of its several solves; without a fold each solve is a point
        assert (len(solves) > len(sb.points)) == bool(sb.folds)
        assert all(p.d_v == p.d_u for p in sb.points)


@settings(max_examples=20, deadline=None, derandomize=True, database=None)
@given(pair=st.sampled_from(SYMMETRIC_PAIRS),
       case=st.sampled_from([(1, 1), (2, 1), (2, 2), (3, 1)]),
       log_d=st.floats(math.log(1e-2), math.log(1e2)),
       detune=st.floats(0.8, 1.25))
def test_symmetric_pairs_solve_to_equal_amplitudes(pair, case, log_d, detune):
    spec = coupled(*case, *pair)
    d_u = math.exp(log_d)
    lam_ref, _ = cold_start(spec, d_u)
    point = solve_system_shooting(spec, d_u, (lam_ref, detune * d_u), FAST)
    assert abs(point.d_v / d_u - 1.0) <= 1e-9
    assert abs(point.res_u) <= 1e-9 * d_u and abs(point.res_v) <= 1e-9 * point.d_v


def coupled_eigenvalue(N, k, R, cfg=DEFAULT_CONFIG):
    """lambda1 confirmed as the coupled eigenvalue, as `eigen --coupled` computes it."""
    return confirm_coupled_eigenvalue(N, k, R, first_eigenvalue(N, k, R, cfg).lambda1, cfg)


class TestSystemEigenvalue:
    @pytest.mark.parametrize("N,k,expect", [(1, 1, LAM_COS), (3, 1, math.pi**2)])
    def test_analytic_cases(self, N, k, expect):
        assert coupled_eigenvalue(N, k, 1.0, FAST) == pytest.approx(expect, rel=1e-8)

    def test_coupled_equals_scalar(self):
        for N, k in ((2, 1), (2, 2), (3, 3)):
            lam0 = coupled_eigenvalue(N, k, 1.0, FAST)
            lam1 = first_eigenvalue(N, k, 1.0, FAST).lambda1
            assert abs(lam0 - lam1) <= 1e-8 * lam1

    @pytest.mark.parametrize("rel,raises", [(1e-7, True), (1e-9, False)])
    def test_consistency_bound_follows_config(self, monkeypatch, rel, raises):
        # at the default tolerances the bound is 100 * 1e-10 = 1e-8 relative
        import hessbif.system as system_mod

        solve = system_mod.solve_system_shooting

        def skewed(*args, **kwargs):
            point = solve(*args, **kwargs)
            point.lam *= 1.0 + rel
            return point

        monkeypatch.setattr(system_mod, "solve_system_shooting", skewed)
        if raises:
            with pytest.raises(NumericalFailureError, match="asymmetric"):
                coupled_eigenvalue(2, 1, 1.0)
        else:
            assert coupled_eigenvalue(2, 1, 1.0) == first_eigenvalue(2, 1, 1.0).lambda1

    @pytest.mark.parametrize("N,k", [(1, 1), (2, 1), (2, 2), (3, 3), (5, 2), (8, 4)])
    def test_loose_tolerances_agree(self, N, k):
        # the asymmetric solve is 7e-7..8e-6 off at 1e-5, above a fixed 1e-6 bound
        cfg = ShootingConfig(grid_points=128, integrator_tol=1e-5, root_tol=1e-5)
        assert coupled_eigenvalue(N, k, 1.0, cfg) == first_eigenvalue(N, k, 1.0, cfg).lambda1


class TestPowerPair:
    def test_symmetric_pair_interval(self):
        res = power_pair_constant(1, 1, 1.0, 1.0, n_samples=8, cfg=FAST)
        assert res.constant == pytest.approx((math.pi / 2) ** 4, rel=1e-8)
        assert res.max_rel_deviation < 1e-6
        lams = [lam for lam, _ in res.samples]
        assert all(b < a for a, b in zip(lams, lams[1:]))  # lam falls as mu grows

    def test_asymmetric_pair_monge_ampere(self):
        res = power_pair_constant(2, 2, 4.0, 1.0, n_samples=8, cfg=FAST)
        assert res.max_rel_deviation < 1e-5
        # dual-resolution cross-check
        tight = ShootingConfig(grid_points=128, integrator_tol=1e-12, root_tol=1e-12)
        res2 = power_pair_constant(2, 2, 4.0, 1.0, n_samples=8, cfg=tight)
        assert res.constant == pytest.approx(res2.constant, rel=1e-8)

    def test_product_rule_enforced(self):
        with pytest.raises(InvalidInputError):
            power_pair_constant(2, 2, 3.0, 1.0, cfg=FAST)
        with pytest.raises(InvalidInputError):
            power_pair_constant(1, 1, -1.0, -1.0, cfg=FAST)

    @pytest.mark.parametrize("N,k,alpha,beta", [(1, 1, 1.0, 1.0), (2, 2, 4.0, 1.0)])
    def test_samples_agree_with_two_residual_newton(self, monkeypatch, N, k, alpha, beta):
        # Newton on the fixed-R residuals at each sample's mu shares no step with the
        # scaled root; d_v is read from the root as it returns
        import hessbif.system as system_mod

        real = system_mod._common_zero
        roots = []

        def recording(*args):
            roots.append(real(*args))
            return roots[-1]

        monkeypatch.setattr(system_mod, "_common_zero", recording)
        res = power_pair_constant(N, k, alpha, beta, cfg=FAST)
        assert len(roots) == len(res.samples)
        for (lam_pp, mu), (_, dv_pp) in zip(res.samples, roots):

            def residual(lam, d_v, mu=mu):
                weights = (lambda su, sv: (lam * sv**alpha) ** (1.0 / k),
                           lambda su, sv: (mu * su**beta) ** (1.0 / k))
                y = flux_ivp(N, k, 1.0, 1.0, weights, (1.0, d_v), FAST.integrator_tol,
                             1.0)[0].y
                return y[0], y[2]

            lam, d_v, _ = newton_pair(residual, 1.17 * lam_pp, 0.91 * dv_pp,
                                      scale_u=1.0, scale_v=dv_pp, tol=FAST.root_tol)
            assert lam == pytest.approx(lam_pp, rel=1e-9), mu
            assert d_v == pytest.approx(dv_pp, rel=1e-9), mu

    def test_detuned_root_fails_the_fixed_radius_check(self, monkeypatch, tmp_path):
        import hessbif.cli as cli
        import hessbif.system as system_mod

        real = system_mod._common_zero

        def detuned(*args):
            rho, d_v = real(*args)
            return rho * (1.0 + 1e-6), d_v

        monkeypatch.setattr(system_mod, "_common_zero", detuned)
        with pytest.raises(NumericalFailureError,
                           match=r"fixed-R residual check failed.*res_u = .*res_v = "):
            power_pair_constant(1, 1, 1.0, 1.0, cfg=FAST)
        monkeypatch.chdir(tmp_path)
        assert cli.main(["power-pair", "--N", "2", "--k", "2", "--alpha", "4",
                         "--beta", "1", "--out", "pp.json"]) == cli.EXIT_NUMERICAL
        assert not (tmp_path / "pp.json").exists()

    @pytest.mark.parametrize("N,k,alpha,beta,ivps", [(1, 1, 1.0, 1.0, 67),
                                                     (2, 2, 4.0, 1.0, 84)])
    def test_ivp_count(self, monkeypatch, N, k, alpha, beta, ivps):
        # three for first_eigenvalue, then per sample the root's IVPs and one fixed-R shot
        import hessbif.rk as rk

        calls = []
        real = rk.integrate

        def counting(*args, **kwargs):
            calls.append(1)
            return real(*args, **kwargs)

        monkeypatch.setattr(rk, "integrate", counting)
        power_pair_constant(N, k, alpha, beta)
        assert len(calls) == ivps


class TestMonotonicity:
    def test_linear_coupling(self):
        spec = coupled(2, 1, "linear")
        assert fd_nondecreasing(spec.g, "t", 3.0) and fd_nondecreasing(spec.h, "s", 3.0)

    def test_quadratic_hump_fails(self):
        assert not fd_nondecreasing(lambda s, t: t * (2.0 - t), "t", 3.0)

    def test_registry_pairs_monotone(self):
        for base, params in (("saturating", None), ("superlinear", None),
                             ("rational", {"b": 0.5}), ("rational", {"b": 2.0}),
                             ("powermix", None), ("logbump", None)):
            spec = coupled(2, 1, base, params)
            assert fd_nondecreasing(spec.g, "t", 5.0), base
            assert fd_nondecreasing(spec.h, "s", 5.0), base


    @staticmethod
    def _declared_check(spec, s_max=130.0):
        rep = VerificationReport()
        add_monotonicity_check(rep, spec, s_max)
        assert len(rep.checks) == 1
        return rep

    def test_declared_flags_agree(self):
        rep = self._declared_check(coupled(2, 1, "saturating"))
        assert rep.passed
        assert rep.checks[0].name.startswith("g non-decreasing in t, h non-decreasing in s")
        assert rep.notes == []

    @pytest.mark.parametrize("g_in_t,h_in_s", [(False, True), (True, False), (False, False)])
    def test_flag_declared_false_on_monotone_pair_fails_with_note(self, g_in_t, h_in_s):
        spec = replace(coupled(2, 1, "saturating"),
                       monotone_g_in_t=g_in_t, monotone_h_in_s=h_in_s)
        rep = self._declared_check(spec)
        assert not rep.passed
        assert any("theorems assume" in n for n in rep.notes)

    def test_non_monotone_coupling(self):
        spec = coupled(2, 1, "saturating")
        spec.g = lambda s, t: t * (2.0 - t)   # a hump in t
        assert not self._declared_check(spec).passed
        spec.monotone_g_in_t = False
        rep = self._declared_check(spec)
        assert rep.passed
        assert any("theorems assume" in n for n in rep.notes)


@pytest.fixture(scope="module")
def lam1():
    return first_eigenvalue(1, 1, 1.0, FAST).lambda1


class TestTraceSystemBranch:
    def test_symmetric_linear_flat(self, lam1):
        spec = coupled(1, 1, "linear")
        sb = trace_system_branch(spec, np.geomspace(1e-2, 1e2, 16), FAST,
                                 lambda_scale=lam1)
        lams = sb.lam_values()
        assert max(abs(l - lam1) for l in lams) < 1e-6
        assert sb.folds == []
        for p in sb.points:
            assert p.d_v == pytest.approx(p.d_u, rel=1e-8)
            assert p.admissible

    def test_saturating_asymptote(self, lam1):
        spec = coupled(1, 1, "saturating")
        sb = trace_system_branch(spec, np.geomspace(1e-2, 1e2, 16), FAST,
                                 lambda_scale=lam1)
        assert sb.lambda_at_zero.kind == "finite"
        assert sb.lambda_at_zero.value == pytest.approx(lam1, rel=1e-3)
        assert sb.lambda_at_infinity.kind == "infinite"

    def test_powermix_single_max_and_monitor(self, lam1):
        spec = coupled(1, 1, "powermix")
        sb = trace_system_branch(spec, np.geomspace(1e-2, 1e2, 16), FAST,
                                 lambda_scale=lam1)
        assert [f.kind for f in sb.folds] == ["max"]
        rep = VerificationReport()
        system_apriori_monitor(rep, sb, spec, lam1)
        assert rep.passed
        assert any("superlinear norm bound" in c.name for c in rep.checks)

    def test_fold_polish_adds_the_apex(self, monkeypatch):
        # the powermix pair's maximum is polished as on scalar branches; each polish solve
        # starts from d_u times the root of the bracket's ratios, d_u itself on this
        # symmetric pair, so it takes the F = 0 return of _common_zero: 2 IVPs
        import hessbif.branch as branch_mod
        import hessbif.rk as rk
        import hessbif.system as system_mod

        ivps, solves, polished = [], [], []
        real_integrate = rk.integrate
        real_solve = system_mod.solve_system_shooting
        real_polish = branch_mod._polish_folds

        def counting(*args, **kwargs):
            ivps.append(1)
            return real_integrate(*args, **kwargs)

        def solving(*args):
            solves.append(1)
            return real_solve(*args)

        def polishing(branch, *args):
            before, n_ivps, n_solves = list(branch.points), len(ivps), len(solves)
            real_polish(branch, *args)
            polished.append((before, len(ivps) - n_ivps, len(solves) - n_solves))

        monkeypatch.setattr(rk, "integrate", counting)
        monkeypatch.setattr(system_mod, "solve_system_shooting", solving)
        monkeypatch.setattr(branch_mod, "_polish_folds", polishing)
        sb = trace_system_branch(coupled(2, 1, "powermix"), np.geomspace(1e-2, 1e2, 16), FAST)
        [(before, polish_ivps, polish_solves)] = polished
        added = [p for p in sb.points if not any(p is q for q in before)]
        assert len(added) == 1 and len(sb.points) == len(before) + 1
        [fold] = [f for f in sb.folds if f.kind == "max"]
        assert sb.points[fold.index] is added[0] and not added[0].seed
        assert all(added[0].lam >= p.lam for p in sb.points)
        assert polish_solves > 0 and polish_ivps == 2 * polish_solves
        assert sb.points is sb.points and sb.gaps is sb.gaps

    def test_sublinear_monitor_uniform_bound(self, lam1):
        spec = coupled(1, 1, "saturating")
        sb = trace_system_branch(spec, np.geomspace(1e-2, 1e2, 16), FAST,
                                 lambda_scale=lam1)
        rep = VerificationReport()
        system_apriori_monitor(rep, sb, spec, lam1)
        assert rep.passed
        assert any("uniform norm bound" in c.name for c in rep.checks)

    def test_linear_monitor_vacuous(self, lam1):
        spec = coupled(1, 1, "linear")
        sb = trace_system_branch(spec, np.geomspace(1e-2, 1e2, 16), FAST,
                                 lambda_scale=lam1)
        rep = VerificationReport()
        system_apriori_monitor(rep, sb, spec, lam1)
        assert rep.passed
        assert any("vacuous" in n for n in rep.notes)

    def test_csv_format(self, tmp_path, lam1):
        spec = coupled(1, 1, "linear")
        sb = trace_system_branch(spec, np.geomspace(1e-2, 1e2, 16), FAST,
                                 lambda_scale=lam1)
        path = tmp_path / "system.csv"
        write_system_csv(sb, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "index,d_u,d_v,lambda,res_u,res_v,is_fold"
        assert len(lines) == len(sb.points) + 1
        cells = lines[1].split(",")
        assert len(cells) == 7


class TestAdmissibility:
    @pytest.mark.parametrize("base,params,N,k", [("saturating", None, 2, 1),
                                                 ("logbump", None, 2, 2),
                                                 ("rational", {"b": 2.0}, 3, 1)])
    def test_flags_match_grid_profiles(self, base, params, N, k):
        spec = coupled(N, k, base, params, R=0.93)
        sb = trace_system_branch(spec, np.geomspace(1e-2, 1e2, 16), FAST)
        grid = ShootingConfig(grid_points=256)
        assert [p.admissible for p in sb.points] == [
            all(profile_admissible(q, N, k)
                for q in integrate_system(spec, p.lam, p.d_u, p.d_v, grid))
            for p in sb.points]


class TestProfileInvariants:
    def test_accepted_points_nonpositive_and_peaked_at_origin(self):
        spec = coupled(2, 1, "saturating")
        lam1 = first_eigenvalue(2, 1, 1.0, FAST).lambda1
        point = solve_system_shooting(spec, 1.0, (2.0 * lam1, 1.0), FAST)
        pu, pv = integrate_system(spec, point.lam, point.d_u, point.d_v, FAST)
        for prof, d in ((pu, point.d_u), (pv, point.d_v)):
            assert prof.u[0] == -d
            assert np.all(prof.u <= 1e-8)
            assert np.max(np.abs(prof.u)) == pytest.approx(d)
            assert np.all(np.diff(prof.u) >= -1e-15)
