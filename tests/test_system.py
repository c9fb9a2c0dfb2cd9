import functools
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hessbif.branch import VerificationReport
from hessbif.core import LimitClass, NonlinearitySpec, ProblemSpec
from hessbif.errors import InvalidInputError, NumericalFailureError, TracingFailureError
from hessbif.shooting import (
    HORIZON,
    TOL,
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
)

from _oracles import newton_pair
from claims_matrix import PAIR_NK, PAIRS
from claims_matrix import R as MATRIX_R

LAM_COS = 2.4674011002723395


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
        pu, pv = integrate_system(coupled(2, 1, "linear"), 0.0, 1.0, 2.0, grid_points=128)
        assert np.all(pu.u == -1.0)
        assert np.all(pv.u == -2.0)

    def test_symmetric_reduction_matches_scalar(self):
        # g(s,t)=t, h(s,t)=s with equal amplitudes: u == v == scalar profile
        pu, pv = integrate_system(coupled(1, 1, "linear"), 1.0, 1.0, 1.0, grid_points=128)
        assert np.max(np.abs(pu.u - pv.u)) < 1e-10
        assert np.max(np.abs(pu.u + np.cos(pu.r))) < 1e-9
        for N, k in ((1, 1), (2, 1), (2, 2), (3, 2), (5, 5)):
            # the shared kernel integrates both alike; only the error norm's
            # component count differs
            pu, pv = integrate_system(coupled(N, k, "linear"), 1.0, 1.0, 1.0, grid_points=128)
            scalar = integrate_profile(
                ProblemSpec(N=N, k=k, R=1.0, f=NonlinearitySpec("linear")), 1.0, 1.0,
                grid_points=128)
            for prof in (pu, pv):
                for got, want in ((prof.u, scalar.u), (prof.uprime, scalar.uprime)):
                    assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want)), (N, k)

    @pytest.mark.parametrize("base", ["saturating", "superlinear", "rational", "logbump"])
    @pytest.mark.parametrize("N,k", [(1, 1), (2, 1), (3, 2)])
    def test_profiles_end_at_the_fixed_r_shot(self, base, N, k):
        # the profile run steps as the fixed-R shot does, so (u(R), v(R)) are its bits
        spec = coupled(N, k, base, {"b": 3.0} if base == "rational" else None, R=0.93)
        for lam, d_u, d_v in ((1.0, 1.0, 1.0), (4.0, 0.5, 2.0), (0.2, 7.0, 3.0)):
            pu, pv = integrate_system(spec, lam, d_u, d_v, grid_points=256)
            assert (pu.boundary_value, pv.boundary_value) == system_boundary_values(
                spec, lam, d_u, d_v), (lam, d_u, d_v)

    def test_eigenvalue_boundary_zero(self):
        ru, rv = system_boundary_values(coupled(1, 1, "linear"), LAM_COS, 1.0, 1.0)
        assert abs(ru) < 1e-8 and abs(rv) < 1e-8

    def test_consistency_residuals_small(self):
        pu, pv = integrate_system(coupled(2, 1, "saturating"), 3.0, 1.0, 1.0,
                                  grid_points=1024)
        assert pu.max_consistency_residual < 1e-6
        assert pv.max_consistency_residual < 1e-6

    def test_invalid_amplitudes(self):
        with pytest.raises(InvalidInputError):
            integrate_system(coupled(2, 1, "linear"), 1.0, 0.0, 1.0, grid_points=128)

    @pytest.mark.parametrize("fn", [integrate_system, system_boundary_values])
    @pytest.mark.parametrize("lam,d_u,d_v", [
        (-1.0, 1.0, 1.0), (math.inf, 1.0, 1.0), (math.nan, 1.0, 1.0),
        (1.0, math.inf, 1.0), (1.0, 1.0, math.inf),
    ])
    def test_invalid_lambda_or_amplitude(self, fn, lam, d_u, d_v):
        # invalid input, as for shoot_boundary_value, not a result or a numerical failure
        with pytest.raises(InvalidInputError):
            fn(coupled(2, 1, "linear"), lam, d_u, d_v)


class TestSolveSystemShooting:
    def test_symmetric_solution_found(self):
        point = solve_system_shooting(coupled(1, 1, "linear"), 1.0,
                                      (1.1 * LAM_COS, 0.8))
        assert point.lam == pytest.approx(LAM_COS, rel=1e-8)
        assert point.d_v == pytest.approx(1.0, rel=1e-8)
        assert abs(point.res_u) < 1e-9 and abs(point.res_v) < 1e-9
        assert point.admissible

    def test_rejects_bad_inputs(self):
        spec = coupled(1, 1, "linear")
        with pytest.raises(InvalidInputError):
            solve_system_shooting(spec, 0.0, (1.0, 1.0))
        with pytest.raises(InvalidInputError):
            solve_system_shooting(spec, 1.0, (-1.0, 1.0))
        with pytest.raises(InvalidInputError):
            solve_system_shooting(spec, 1.0, (0.0, 1.0))

    @pytest.mark.parametrize("value", [math.inf, math.nan], ids=["inf", "nan"])
    @pytest.mark.parametrize("which", ["d_u", "lambda_ref", "d_v0"])
    def test_rejects_non_finite_inputs(self, which, value):
        # invalid input before any IVP, not a numerical failure inside the integrator
        args = {"d_u": 1.0, "lambda_ref": 1.0, "d_v0": 1.0, which: value}
        with pytest.raises(InvalidInputError):
            solve_system_shooting(coupled(2, 1, "linear"), args["d_u"],
                                  (args["lambda_ref"], args["d_v0"]))

    def test_superlinear_small_amplitude_near_table_value(self):
        # mu = g0 = 1: branch emanates from lambda1 / mu
        spec = coupled(2, 1, "superlinear")
        lam1 = first_eigenvalue(2, 1, 1.0).lambda1
        point = solve_system_shooting(spec, 5e-4, (lam1, 5e-4))
        assert point.lam == pytest.approx(lam1, rel=1e-2)


SYMMETRIC_PAIRS = (("linear", None), ("saturating", None), ("superlinear", None),
                   ("rational", {"b": 0.5}), ("rational", {"b": 2.0}),
                   ("powermix", None), ("logbump", None))


def cold_start(spec, d_u):
    """The tracer's first-point guess (lambda1 d_u / g(d_u, d_u), d_u)."""
    lam1 = first_eigenvalue(spec.N, spec.k, spec.R).lambda1
    return lam1 * d_u / spec.g(d_u, d_u), d_u


def asymmetric(N, g, h, h_params=None):
    return SystemSpec(N=N, k=1, R=1.0, g=NonlinearitySpec2(g),
                      h=NonlinearitySpec2(h, dict(h_params or {})))


# asymmetric pairs (N, k, g, its params, h, its params) whose traces the pair root serves
ASYMMETRIC_TRACES = [(2, 1, "saturating_t", None, "rational_s", {"b": 3.0}),
                     (2, 1, "linear_t", None, "superlinear_s", None),
                     (2, 2, "powermix_t", None, "superlinear_s", None),
                     (3, 1, "rational_t", {"b": 3.0}, "saturating_s", None)]


class TestOneDimensionalRoot:
    @pytest.mark.parametrize("N", [2, 3])
    @pytest.mark.parametrize("g,h,h_params", [("saturating_t", "rational_s", {"b": 3.0}),
                                              ("linear_t", "superlinear_s", None)])
    def test_agrees_with_two_residual_newton(self, N, g, h, h_params):
        # Newton on the fixed-R residuals shares no step with the scaled root.
        # The points come from a trace, so each reference lambda is the
        # neighbouring point's and rho stays near R.
        spec = asymmetric(N, g, h, h_params)
        sb = trace_system_branch(spec, np.geomspace(0.1, 40.0, 9))
        picked = [p for p in sb.points
                  if any(p.d_u == pytest.approx(d_u, rel=1e-12) for d_u in (0.05, 1.0, 20.0))]
        assert len(picked) == 3
        for point in picked:

            def residual(lam, d_v, d_u=point.d_u):
                return system_boundary_values(spec, lam, d_u, d_v)

            lam, d_v, _ = newton_pair(residual, 1.05 * point.lam, 0.95 * point.d_v,
                                      scale_u=point.d_u, scale_v=point.d_v,
                                      tol=TOL)
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
        want = solve_system_shooting(spec, 50.0, init, tol=1e-13)
        assert got.lam == pytest.approx(want.lam, rel=1e-9)
        assert got.d_v == pytest.approx(want.d_v, rel=1e-9)

    @pytest.mark.parametrize("d_u", [1e-2, 1.0, 50.0])
    def test_saturating_pair_within_1e9_of_a_tight_run(self, d_u):
        # the pair whose step counts the predictive step control moves most; on this
        # symmetric pair d_v = d_u, so lambda carries the comparison
        spec = coupled(2, 1, "saturating", R=1.13)
        got = solve_system_shooting(spec, d_u, cold_start(spec, d_u))
        want = solve_system_shooting(spec, d_u, cold_start(spec, d_u), tol=1e-13)
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
            solve_system_shooting(spec, 1.0, cold_start(spec, 1.0))

    def test_asymmetric_trace_ivp_bound(self, ivps):
        # 197 IVPs for these 16 points and 17 solves
        spec = SystemSpec(N=2, k=1, R=0.93, g=NonlinearitySpec2("saturating_t"),
                          h=NonlinearitySpec2("rational_s", {"b": 3.0}))
        lam1 = first_eigenvalue(2, 1, 0.93).lambda1
        ivps.clear()
        sb = trace_system_branch(spec, np.geomspace(1e-2, 1e2, 16), lambda_scale=lam1)
        assert sb.gaps == [] and len(ivps) <= 197

    def test_end_without_a_zero_of_u_is_bisected(self, monkeypatch):
        # at lambda_ref = 1.5e-5 and d_v = 1.1 neither u nor v of this symmetric pair
        # vanishes before 1000 R (F = +inf), and the march steps up to a d_v where u does
        # (F < 0).  While that infinite end bounds the bracket, zeroin bisects in log d_v
        # instead of interpolating.  The first zero of u or v comes latest at a common
        # zero, so no d_v has one here: the end zeroin returns, where u's zero leaves the
        # horizon, is no root, and its fixed-R check fails.
        import hessbif.system as system_mod

        spec = coupled(3, 1, "saturating")
        shots = []   # (log d_v, F > 0, neither u nor v has a zero)
        real = system_mod.flux_ivp

        def recording(N, k, R, lam, weights, amplitudes, *args, **kwargs):
            out = real(N, k, R, lam, weights, amplitudes, *args, **kwargs)
            if "root_tol" in kwargs:
                gap = system_mod._pair_gap(out, 1e3 * R)
                shots.append((math.log(amplitudes[1]), gap > 0.0, gap == math.inf))
            return out

        monkeypatch.setattr(system_mod, "flux_ivp", recording)
        rho, d_v = system_mod._common_zero(3, 1, 1.0, (spec.g, spec.h), 1.0, 1.5e-5, 1.1,
                                           TOL)
        assert shots[0][2]
        first = next(i for i, shot in enumerate(shots) if not shot[1])
        bisected = 0
        for i in range(first + 1, len(shots)):
            if not all(no_zero for _, up, no_zero in shots[:i] if up):
                break   # a finite F > 0 now bounds the bracket
            z_up = max(z for z, up, _ in shots[:i] if up)
            z_down = min(z for z, up, _ in shots[:i] if not up)
            assert shots[i][0] == pytest.approx(0.5 * (z_up + z_down), abs=1e-12)
            bisected += 1
        assert bisected >= 2
        assert 0.9e3 < rho < 1e3 and d_v > 1.1
        with pytest.raises(NumericalFailureError, match="fixed-R residual check failed"):
            solve_system_shooting(spec, 1.0, (1.5e-5, 1.1))

    def test_v_first_ivp_stops_at_the_zero_of_v(self, monkeypatch):
        # the coupled eigenvalue's root at N1k1 starts at d_v = 0.9, where v vanishes
        # first (F > 0): the IVP ends there, and steps no further than one where u does
        import hessbif.system as system_mod

        runs = []   # (F, accepted steps, u, v, d_v) at the stop of each root IVP
        real = system_mod.flux_ivp

        def recording(*args, **kwargs):
            out = real(*args, **kwargs)
            if "root_tol" in kwargs:
                res = out[0]
                runs.append((system_mod._pair_gap(out, args[7]), res.n_steps, res.y[0],
                             res.y[2], args[5][1]))
            return out

        monkeypatch.setattr(system_mod, "flux_ivp", recording)
        coupled_eigenvalue(1, 1, 1.0)
        v_first = [run for run in runs if run[0] > 0.0]
        u_steps = max(steps for F, steps, *_ in runs if F < 0.0)
        assert v_first and len(v_first) < len(runs)
        for _, steps, u, v, d_v in v_first:
            assert u < 0.0 and abs(v) <= TOL * d_v
            assert steps <= u_steps + 2

    @pytest.mark.parametrize("eps", [1e-4, 1e-6])
    @pytest.mark.parametrize("case", ["linear N1k1", "saturating/rational N2k1"])
    def test_gap_is_smooth_through_the_root(self, case, eps):
        # F = (v / v' - u / u') / rho changes sign across the root with one slope: a stop
        # at the zero of u alone, or a search on max(u, v), would put a kink there
        import hessbif.system as system_mod

        if case == "linear N1k1":   # the coupled eigenvalue's root
            spec, lam_ref, dv0 = coupled(1, 1, "linear"), 1.07 * LAM_COS, 0.9
        else:
            spec = asymmetric(2, "saturating_t", "rational_s", {"b": 3.0})
            lam_ref, dv0 = cold_start(spec, 1.0)
        weights, horizon = (spec.g, spec.h), HORIZON * spec.R
        _, d_v = system_mod._common_zero(spec.N, spec.k, spec.R, weights, 1.0, lam_ref, dv0,
                                         TOL)

        def gap(x):
            return system_mod._pair_gap(flux_ivp(spec.N, spec.k, spec.R, lam_ref, weights,
                                                 (1.0, x), TOL, horizon, root_tol=TOL,
                                                 also_stop=2), horizon)

        above, below = gap(d_v * math.exp(eps)), gap(d_v * math.exp(-eps))
        assert below > 0.0 > above
        assert above / -eps == pytest.approx(below / eps, rel=1e-2)

    @pytest.mark.parametrize("N, k, g, g_params, h, h_params", ASYMMETRIC_TRACES,
                             ids=[f"{g}-{h}-N{N}k{k}" for N, k, g, _, h, _ in ASYMMETRIC_TRACES])
    def test_asymmetric_trace_within_1e9_of_a_tight_run(self, N, k, g, g_params, h,
                                                         h_params):
        spec = SystemSpec(N=N, k=k, R=1.0, g=NonlinearitySpec2(g, g_params),
                          h=NonlinearitySpec2(h, h_params))
        lam1 = first_eigenvalue(N, k, 1.0).lambda1
        grid = np.geomspace(1e-2, 1e2, 16)
        got = trace_system_branch(spec, grid, lambda_scale=lam1)
        want = {p.d_u: p for p in trace_system_branch(spec, grid, 1e-13,
                                                      lambda_scale=lam1).points}
        matched = [p for p in got.points if p.d_u in want]
        assert got.gaps == [] and len(matched) >= 16
        for p in matched:
            assert p.lam == pytest.approx(want[p.d_u].lam, rel=1e-9), p.d_u
            assert p.d_v == pytest.approx(want[p.d_u].d_v, rel=1e-9), p.d_u

    def test_no_zero_of_u_is_named(self):
        # N > 2k and saturating g < 1: at lambda_ref = 1e-6, u levels off below
        # zero however large d_v grows
        spec = coupled(3, 1, "saturating")
        with pytest.raises(NumericalFailureError, match="u has no zero before 1000 R"):
            solve_system_shooting(spec, 1.0, (1e-6, 1.0))

    def test_gap_without_a_sign_change_is_named(self):
        # saturating g caps u's forcing at lambda, while superlinear h drives v in
        # proportion to its amplitude: v vanishes first however large d_v grows
        spec = asymmetric(2, "saturating_t", "superlinear_s")
        with pytest.raises(NumericalFailureError, match="the gap between the zeros of u and v "
                                                        "did not change sign after 10 doublings"):
            solve_system_shooting(spec, 5.0, cold_start(spec, 5.0))

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
            trace_system_branch(spec, grid)
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(spec.to_json()))
        assert cli.main(["system-trace", "--spec", str(path), "--n-points", "16",
                         "--out-branch", str(tmp_path / "out.csv")]) == 2

    def test_at_most_four_ivps_per_point(self, ivps):
        spec = coupled(2, 1, "saturating")
        lam1 = first_eigenvalue(2, 1, 1.0).lambda1
        ivps.clear()
        calls = ivps
        sb = trace_system_branch(spec, np.geomspace(1e-2, 1e2, 16),
                                 lambda_scale=lam1)
        assert sb.gaps == []
        assert len(calls) <= 4 * len(sb.points)

    @pytest.mark.parametrize("N, k, base, params", [
        (2, 1, "saturating", None), (2, 1, "rational", {"b": 2.0}),
        (2, 1, "superlinear", None), (2, 2, "saturating", None),
        (2, 1, "powermix", None), (3, 1, "logbump", None),
    ], ids=["saturating-N2k1", "rational-N2k1", "superlinear-N2k1", "saturating-N2k2",
            "powermix-N2k1", "logbump-N3k1"])
    def test_symmetric_warm_start_is_exact(self, monkeypatch, ivps, N, k, base, params):
        # d_u (d_v / d_u) of one neighbour, or d_u times the root of both ratios, is d_u
        # itself, so every solve (base point, refinement or fold polish) starts at
        # d_v = d_u and takes _common_zero's diagonal root: one IVP of u alone (2
        # components) and one fixed-R shot of the pair (4 components) per solve
        import hessbif.system as system_mod

        spec = coupled(N, k, base, params)
        lam1 = first_eigenvalue(N, k, 1.0).lambda1
        solves = []
        solve = system_mod.solve_system_shooting

        def solving(*args):
            solves.append(1)
            return solve(*args)

        monkeypatch.setattr(system_mod, "solve_system_shooting", solving)
        ivps.clear()
        calls = ivps
        sb = trace_system_branch(spec, np.geomspace(1e-2, 1e2, 16),
                                 lambda_scale=lam1)
        assert len(calls) == 2 * len(solves)
        assert [len(ivp.args[2]) for ivp in calls] == [2, 4] * len(solves)
        assert all("root_tol" in ivp.kwargs for ivp in calls[::2])
        # fold polish keeps one point of its several solves; without a fold each solve is a point
        assert (len(solves) > len(sb.points)) == bool(sb.folds)
        assert all(p.d_v == p.d_u for p in sb.points)


# (case, IVPs): starts that take no diagonal root, each IVP of both components
OFF_SYMMETRIC_STARTS = [("rational b 2/3", 7), ("saturating/rational", 12),
                        ("coupled eigenvalue", 6), ("power pair N1k1", 24),
                        ("power pair N2k2", 28)]


class TestDiagonalRoot:
    @pytest.mark.parametrize("N, k", PAIR_NK, ids=[f"N{N}k{k}" for N, k in PAIR_NK])
    @pytest.mark.parametrize("base, params", PAIRS, ids=[base for base, _ in PAIRS])
    def test_diagonal_rho_is_the_coupled_rho(self, ivps, N, k, base, params):
        # the root IVP of u alone against the pair's own IVP at the same (d_u, lambda_ref)
        # and d_v = d_u, on the claims matrix's symmetric pairs
        import hessbif.system as system_mod

        spec = coupled(N, k, base, params, R=MATRIX_R)
        for d_u in (1e-2, 1.0, 1e2):
            lam_ref, _ = cold_start(spec, d_u)
            ivps.clear()
            rho, d_v = system_mod._common_zero(N, k, spec.R, (spec.g, spec.h), d_u, lam_ref,
                                               d_u, TOL)
            assert d_v == d_u and [len(ivp.args[2]) for ivp in ivps] == [2]
            pair = flux_ivp(N, k, spec.R, lam_ref, (spec.g, spec.h), (d_u, d_u), TOL,
                            HORIZON * spec.R, root_tol=TOL)[0]
            assert abs(rho / pair.t - 1.0) <= 1e-11, d_u

    @pytest.mark.parametrize("case, n_ivps", OFF_SYMMETRIC_STARTS,
                             ids=[case for case, _ in OFF_SYMMETRIC_STARTS])
    def test_no_diagonal_root_off_symmetric_starts(self, monkeypatch, ivps, case, n_ivps):
        # unequal params, unequal bases, d_v0 != d_u (the coupled eigenvalue) and the
        # power pair, whose weights agree as formulas at alpha = beta = k but not in their
        # values: every IVP integrates both components, as many as before the diagonal
        # root, so lambda0 = lambda1 stays a check that does not assume u = v
        import hessbif.system as system_mod

        eigen = {(N, k): first_eigenvalue(N, k, 1.0) for N, k in ((1, 1), (2, 1), (2, 2))}
        monkeypatch.setattr(system_mod, "first_eigenvalue", lambda N, k, *_: eigen[N, k])
        pairs = {"rational b 2/3": SystemSpec(N=2, k=1, R=1.0,
                                              g=NonlinearitySpec2("rational_t", {"b": 2.0}),
                                              h=NonlinearitySpec2("rational_s", {"b": 3.0})),
                 "saturating/rational": asymmetric(2, "saturating_t", "rational_s",
                                                   {"b": 3.0})}
        runs = {name: functools.partial(solve_system_shooting, spec, 1.0,
                                        cold_start(spec, 1.0))   # d_v0 = d_u
                for name, spec in pairs.items()}
        runs["coupled eigenvalue"] = functools.partial(confirm_coupled_eigenvalue, 2, 1, 1.0,
                                                       eigen[2, 1].lambda1)
        runs["power pair N1k1"] = functools.partial(power_pair_constant, 1, 1, 1.0, 1.0)
        runs["power pair N2k2"] = functools.partial(power_pair_constant, 2, 2, 4.0, 1.0)
        ivps.clear()
        runs[case]()
        assert [len(ivp.args[2]) for ivp in ivps] == [4] * n_ivps


@settings(max_examples=20, deadline=None, derandomize=True, database=None)
@given(pair=st.sampled_from(SYMMETRIC_PAIRS),
       case=st.sampled_from([(1, 1), (2, 1), (2, 2), (3, 1)]),
       log_d=st.floats(math.log(1e-2), math.log(1e2)),
       detune=st.floats(0.8, 1.25))
def test_symmetric_pairs_solve_to_equal_amplitudes(pair, case, log_d, detune):
    spec = coupled(*case, *pair)
    d_u = math.exp(log_d)
    lam_ref, _ = cold_start(spec, d_u)
    point = solve_system_shooting(spec, d_u, (lam_ref, detune * d_u))
    assert abs(point.d_v / d_u - 1.0) <= 1e-9
    assert abs(point.res_u) <= 1e-9 * d_u and abs(point.res_v) <= 1e-9 * point.d_v


def coupled_eigenvalue(N, k, R, tol=TOL):
    """lambda1 confirmed as the coupled eigenvalue, as `eigen --coupled` computes it."""
    return confirm_coupled_eigenvalue(N, k, R, first_eigenvalue(N, k, R, tol).lambda1, tol)


class TestSystemEigenvalue:
    @pytest.mark.parametrize("N,k,expect", [(1, 1, LAM_COS), (3, 1, math.pi**2)])
    def test_analytic_cases(self, N, k, expect):
        assert coupled_eigenvalue(N, k, 1.0) == pytest.approx(expect, rel=1e-8)

    def test_coupled_equals_scalar(self):
        for N, k in ((2, 1), (2, 2), (3, 3)):
            lam0 = coupled_eigenvalue(N, k, 1.0)
            lam1 = first_eigenvalue(N, k, 1.0).lambda1
            assert abs(lam0 - lam1) <= 1e-8 * lam1

    @pytest.mark.parametrize("rel,raises", [(1e-7, True), (1e-9, False)])
    def test_consistency_bound_follows_config(self, monkeypatch, rel, raises):
        # at the default tolerances the bound is 100 * 1e-10 = 1e-8 relative
        import hessbif.system as system_mod

        solve = system_mod.solve_system_shooting

        def skewed(*args, **kwargs):
            point = solve(*args, **kwargs)
            return point._replace(lam=point.lam * (1.0 + rel))

        monkeypatch.setattr(system_mod, "solve_system_shooting", skewed)
        if raises:
            with pytest.raises(NumericalFailureError, match="asymmetric"):
                coupled_eigenvalue(2, 1, 1.0)
        else:
            assert coupled_eigenvalue(2, 1, 1.0) == first_eigenvalue(2, 1, 1.0).lambda1

    @pytest.mark.parametrize("R", [0.7, 1.3])
    @pytest.mark.parametrize("N,k", [(1, 1), (2, 1), (2, 2), (3, 1), (3, 3), (5, 2), (8, 4)])
    def test_coupled_root_within_1e10_of_lambda1(self, N, k, R):
        # the root that confirm_coupled_eigenvalue checks to eigen_rel_tol, to 1e-10
        lam1 = first_eigenvalue(N, k, R).lambda1
        point = solve_system_shooting(coupled(N, k, "linear", R=R), 1.0, (1.07 * lam1, 0.9))
        assert abs(point.lam - lam1) <= 1e-10 * lam1

    @pytest.mark.parametrize("N,k", [(1, 1), (2, 1), (2, 2), (3, 3), (5, 2), (8, 4)])
    def test_loose_tolerances_agree(self, N, k):
        # the asymmetric solve is 7e-7..8e-6 off at 1e-5, above a fixed 1e-6 bound
        assert (coupled_eigenvalue(N, k, 1.0, tol=1e-5)
                == first_eigenvalue(N, k, 1.0, tol=1e-5).lambda1)


# (N, k, alpha, beta, R) over both signs of alpha - beta, k = 1 to 3 and R != 1
POWER_PAIR_TABLE = [
    (1, 1, 1.0, 1.0, 1.0), (1, 1, 1.0, 1.0, 0.83), (2, 2, 4.0, 1.0, 1.0),
    (2, 2, 4.0, 1.0, 1.21), (3, 1, 2.0, 0.5, 1.0), (3, 3, 3.0, 3.0, 1.0),
    (4, 2, 1.0, 4.0, 1.0)]


def recorded_power_pair(monkeypatch, case, factor=1.0):
    """power_pair_constant(*case) with the d_v seed of every sample after the first, the
    previous root's image under amplitude homogeneity, scaled by factor; returns the
    result and, per sample, its root (rho, d_v) and the (d_v, F) of each root IVP it
    evaluated, F read by system._pair_gap as the root reads it."""
    import hessbif.system as system_mod

    real_zero, real_ivp = system_mod._common_zero, system_mod.flux_ivp
    roots, evals = [], []

    def common_zero(N, k, R, weights, d_u, lam_ref, dv0, *rest):
        evals.append([])
        roots.append(real_zero(N, k, R, weights, d_u, lam_ref,
                               dv0 * factor if roots else dv0, *rest))
        return roots[-1]

    def flux_ivp(*args, **kwargs):
        result = real_ivp(*args, **kwargs)
        if "root_tol" in kwargs:
            evals[-1].append((args[5][1], system_mod._pair_gap(result, args[7])))
        return result

    with monkeypatch.context() as patch:
        patch.setattr(system_mod, "_common_zero", common_zero)
        patch.setattr(system_mod, "flux_ivp", flux_ivp)
        return power_pair_constant(*case), list(zip(roots, evals))


class TestPowerPair:
    def test_symmetric_pair_interval(self):
        res = power_pair_constant(1, 1, 1.0, 1.0, n_samples=8)
        assert res.constant == pytest.approx((math.pi / 2) ** 4, rel=1e-8)
        assert res.max_rel_deviation < 1e-6
        lams = [lam for lam, _ in res.samples]
        assert all(b < a for a, b in zip(lams, lams[1:]))  # lam falls as mu grows

    def test_asymmetric_pair_monge_ampere(self):
        res = power_pair_constant(2, 2, 4.0, 1.0, n_samples=8)
        assert res.max_rel_deviation < 1e-5
        # dual-resolution cross-check
        res2 = power_pair_constant(2, 2, 4.0, 1.0, n_samples=8, tol=1e-12)
        assert res.constant == pytest.approx(res2.constant, rel=1e-8)

    def test_product_rule_enforced(self):
        with pytest.raises(InvalidInputError):
            power_pair_constant(2, 2, 3.0, 1.0)
        with pytest.raises(InvalidInputError):
            power_pair_constant(1, 1, -1.0, -1.0)

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
        res = power_pair_constant(N, k, alpha, beta)
        assert len(roots) == len(res.samples)
        for (lam_pp, mu), (_, dv_pp) in zip(res.samples, roots):

            def residual(lam, d_v, mu=mu):
                weights = (lambda su, sv: (lam * sv**alpha) ** (1.0 / k),
                           lambda su, sv: (mu * su**beta) ** (1.0 / k))
                y = flux_ivp(N, k, 1.0, 1.0, weights, (1.0, d_v), TOL,
                             1.0)[0].y
                return y[0], y[2]

            lam, d_v, _ = newton_pair(residual, 1.17 * lam_pp, 0.91 * dv_pp,
                                      scale_u=1.0, scale_v=dv_pp, tol=TOL)
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
            power_pair_constant(1, 1, 1.0, 1.0)
        monkeypatch.chdir(tmp_path)
        assert cli.main(["power-pair", "--N", "2", "--k", "2", "--alpha", "4",
                         "--beta", "1", "--out", "pp.json"]) == cli.EXIT_NUMERICAL
        assert not (tmp_path / "pp.json").exists()

    @pytest.mark.parametrize("N,k,alpha,beta,count", [(1, 1, 1.0, 1.0, 26),
                                                      (2, 2, 4.0, 1.0, 30)],
                             ids=["N1k1", "N2k2"])
    def test_ivp_count(self, ivps, N, k, alpha, beta, count):
        # two for first_eigenvalue, then per sample the root's IVPs and one fixed-R shot
        calls = ivps
        power_pair_constant(N, k, alpha, beta)
        assert len(calls) == count

    @pytest.mark.parametrize("N,k,alpha,beta,R", POWER_PAIR_TABLE)
    def test_seeded_samples_take_at_most_four_ivps(self, monkeypatch, N, k, alpha, beta, R):
        # from the second sample on the seed is the previous root's image under amplitude
        # homogeneity, a root of the same scaled problem: at most 3 root IVPs (2 on this
        # table), then the fixed-R shot
        _, samples = recorded_power_pair(monkeypatch, (N, k, alpha, beta, R))
        root_ivps = [len(evals) for _, evals in samples]
        assert len(root_ivps) == 8
        assert max(root_ivps[1:]) <= 3, root_ivps

    @pytest.mark.parametrize("factor", [0.7, 1.4])
    @pytest.mark.parametrize("N,k,alpha,beta,R", POWER_PAIR_TABLE)
    def test_doctored_seed_cannot_steer_the_samples(self, monkeypatch, N, k, alpha, beta, R,
                                                    factor):
        # the homogeneity seed only shortens the search: with it off by factor, every
        # sample is the same root, and each root is an evaluated IVP inside a bracket of
        # evaluated IVPs of opposite F
        case = (N, k, alpha, beta, R)
        want, roots = recorded_power_pair(monkeypatch, case)
        got, doctored_roots = recorded_power_pair(monkeypatch, case, factor)
        for (lam, mu), (lam_want, mu_want) in zip(got.samples, want.samples):
            assert lam == pytest.approx(lam_want, rel=1e-9)
            assert mu == pytest.approx(mu_want, rel=1e-9)
        assert got.constant == pytest.approx(want.constant, rel=1e-9)
        for (_, d_v), evals in roots + doctored_roots:
            assert d_v in [x for x, _ in evals]
            above = [x for x, F in evals if F > 0.0]
            below = [x for x, F in evals if F < 0.0]
            assert above and below
            assert max(above) <= d_v <= min(below)

    @pytest.mark.parametrize("N,k,alpha,beta,R", POWER_PAIR_TABLE)
    def test_constant_within_1e9_of_a_tight_run(self, N, k, alpha, beta, R):
        got = power_pair_constant(N, k, alpha, beta, R)
        want = power_pair_constant(N, k, alpha, beta, R, tol=1e-13)
        assert got.constant == pytest.approx(want.constant, rel=1e-9)
        assert got.max_rel_deviation < 1e-9

    def test_weights_are_inlined_bit_for_bit(self, monkeypatch, ivps):
        # the weights are compiled into the flux kernel, and a root IVP gives the same
        # bits as with the weights called as the lambdas they are written as
        import hessbif.system as system_mod

        roots = []
        real = system_mod.flux_ivp

        def recording(*args, **kwargs):
            if "root_tol" in kwargs:
                roots.append((args, kwargs))
            return real(*args, **kwargs)

        monkeypatch.setattr(system_mod, "flux_ivp", recording)
        power_pair_constant(2, 2, 4.0, 1.0)
        assert {ivp.kwargs["slope"].name for ivp in ivps} == {"flux linear N2k2",
                                                              "flux power_t power_s N2k2"}
        (N, k, R, lam, weights, *rest), kwargs = roots[len(roots) // 2]
        (lam_ref, alpha, k_inv), (mu_ref, beta, _) = (w.formula_values for w in weights)
        assert k_inv == 1.0 / k
        called = (lambda su, sv: (lam_ref * sv**alpha) ** (1.0 / k),
                  lambda su, sv: (mu_ref * su**beta) ** (1.0 / k))
        ivps.clear()
        inlined, _, _ = real(N, k, R, lam, weights, *rest, **kwargs)
        plain, _, _ = real(N, k, R, lam, called, *rest, **kwargs)
        assert [ivp.kwargs["slope"].name for ivp in ivps] == ["flux power_t power_s N2k2",
                                                              "flux call call N2k2"]
        assert (inlined.t, inlined.y, inlined.n_steps, inlined.n_rejected) == \
            (plain.t, plain.y, plain.n_steps, plain.n_rejected)


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
        base = coupled(2, 1, "saturating")
        spec = SystemSpec(base.N, base.k, base.R, base.g, base.h,
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
    return first_eigenvalue(1, 1, 1.0).lambda1


class TestTraceSystemBranch:
    def test_symmetric_linear_flat(self, lam1):
        spec = coupled(1, 1, "linear")
        sb = trace_system_branch(spec, np.geomspace(1e-2, 1e2, 16),
                                 lambda_scale=lam1)
        lams = sb.lam_values()
        assert max(abs(l - lam1) for l in lams) < 1e-6
        assert sb.folds == []
        for p in sb.points:
            assert p.d_v == pytest.approx(p.d_u, rel=1e-8)
            assert p.admissible

    def test_saturating_asymptote(self, lam1):
        spec = coupled(1, 1, "saturating")
        sb = trace_system_branch(spec, np.geomspace(1e-2, 1e2, 16),
                                 lambda_scale=lam1)
        assert sb.lambda_at_zero.kind == "finite"
        assert sb.lambda_at_zero.value == pytest.approx(lam1, rel=1e-3)
        assert sb.lambda_at_infinity.kind == "infinite"

    def test_powermix_single_max_and_monitor(self, lam1):
        spec = coupled(1, 1, "powermix")
        sb = trace_system_branch(spec, np.geomspace(1e-2, 1e2, 16),
                                 lambda_scale=lam1)
        assert [f.kind for f in sb.folds] == ["max"]
        rep = VerificationReport()
        system_apriori_monitor(rep, sb, spec, lam1)
        assert rep.passed
        assert any("superlinear norm bound" in c.name for c in rep.checks)

    def test_fold_polish_adds_the_apex(self, monkeypatch, ivps, tmp_path):
        # the powermix pair's maximum is polished as on scalar branches; each polish solve
        # starts from d_u times the root of the bracket's ratios, d_u itself on this
        # symmetric pair, so it takes _common_zero's diagonal root: 2 IVPs
        import hessbif.branch as branch_mod
        import hessbif.system as system_mod

        solves, polished = [], []
        real_solve = system_mod.solve_system_shooting
        real_polish = branch_mod._polish_folds

        def solving(*args):
            solves.append(1)
            return real_solve(*args)

        def polishing(branch, *args):
            before, n_ivps, n_solves = list(branch.points), len(ivps), len(solves)
            real_polish(branch, *args)
            polished.append((before, len(ivps) - n_ivps, len(solves) - n_solves))

        monkeypatch.setattr(system_mod, "solve_system_shooting", solving)
        monkeypatch.setattr(branch_mod, "_polish_folds", polishing)
        sb = trace_system_branch(coupled(2, 1, "powermix"), np.geomspace(1e-2, 1e2, 16))
        [(before, polish_ivps, polish_solves)] = polished
        added = [p for p in sb.points if not any(p is q for q in before)]
        assert len(added) == 1 and len(sb.points) == len(before) + 1
        [fold] = [f for f in sb.folds if f.kind == "max"]
        assert sb.points[fold.index] is added[0] and not added[0].seed
        assert all(added[0].lam >= p.lam for p in sb.points)
        assert polish_solves > 0 and polish_ivps == 2 * polish_solves
        # no amplitude became a gap, and the branch CSV marks the polished apex as the fold
        assert sb.gaps == []
        sb.to_csv(tmp_path / "b.csv")
        rows = [row.split(",") for row in (tmp_path / "b.csv").read_text().splitlines()[1:]]
        assert [int(row[0]) for row in rows if row[-1] == "1"] == [f.index for f in sb.folds]
        assert float(rows[fold.index][3]) == added[0].lam

    def test_sublinear_monitor_uniform_bound(self, lam1):
        spec = coupled(1, 1, "saturating")
        sb = trace_system_branch(spec, np.geomspace(1e-2, 1e2, 16),
                                 lambda_scale=lam1)
        rep = VerificationReport()
        system_apriori_monitor(rep, sb, spec, lam1)
        assert rep.passed
        assert any("uniform norm bound" in c.name for c in rep.checks)

    def test_linear_monitor_vacuous(self, lam1):
        spec = coupled(1, 1, "linear")
        sb = trace_system_branch(spec, np.geomspace(1e-2, 1e2, 16),
                                 lambda_scale=lam1)
        rep = VerificationReport()
        system_apriori_monitor(rep, sb, spec, lam1)
        assert rep.passed
        assert any("vacuous" in n for n in rep.notes)

    def test_csv_format(self, tmp_path, lam1):
        spec = coupled(1, 1, "linear")
        sb = trace_system_branch(spec, np.geomspace(1e-2, 1e2, 16),
                                 lambda_scale=lam1)
        path = tmp_path / "system.csv"
        sb.to_csv(path)
        lines = path.read_text().splitlines()
        assert lines[0] == "index,d_u,d_v,lambda,res_u,res_v,is_fold"
        assert len(lines) == len(sb.points) + 1
        cells = lines[1].split(",")
        assert len(cells) == 7
        # the rows of the system writer that Branch.to_csv replaced, byte for byte
        folds = {f.index for f in sb.folds}
        assert lines[1:] == [f"{i},{p.d_u:.17g},{p.d_v:.17g},{p.lam:.17g},{p.res_u:.17g},"
                             f"{p.res_v:.17g},{1 if i in folds else 0}"
                             for i, p in enumerate(sb.points)]


class TestAdmissibility:
    @pytest.mark.parametrize("base,params,N,k", [("saturating", None, 2, 1),
                                                 ("logbump", None, 2, 2),
                                                 ("rational", {"b": 2.0}, 3, 1)])
    def test_flags_match_grid_profiles(self, base, params, N, k):
        spec = coupled(N, k, base, params, R=0.93)
        sb = trace_system_branch(spec, np.geomspace(1e-2, 1e2, 16))
        assert [p.admissible for p in sb.points] == [
            all(profile_admissible(q, N, k)
                for q in integrate_system(spec, p.lam, p.d_u, p.d_v, grid_points=256))
            for p in sb.points]


class TestProfileInvariants:
    def test_accepted_points_nonpositive_and_peaked_at_origin(self):
        spec = coupled(2, 1, "saturating")
        lam1 = first_eigenvalue(2, 1, 1.0).lambda1
        point = solve_system_shooting(spec, 1.0, (2.0 * lam1, 1.0))
        pu, pv = integrate_system(spec, point.lam, point.d_u, point.d_v, grid_points=128)
        for prof, d in ((pu, point.d_u), (pv, point.d_v)):
            assert prof.u[0] == -d
            assert np.all(prof.u <= 1e-8)
            assert np.max(np.abs(prof.u)) == pytest.approx(d)
            assert np.all(np.diff(prof.u) >= -1e-15)
