import functools
import math
import random
import re
import sys
import traceback

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hessbif import core, rk, system
from hessbif.core import NonlinearitySpec, ProblemSpec
from hessbif.errors import InvalidInputError, NumericalFailureError
from hessbif.shooting import (
    HORIZON,
    TOL,
    RadialProfile,
    eigen_rel_tol,
    first_eigenvalue,
    flux_ivp,
    flux_kernel,
    integrate_profile,
    lambda_at_amplitude,
    profile_admissible,
    self_consistency_residual,
    shoot_boundary_value,
    solve_lambda,
)

from _oracles import eigen_value, time_map_fold, time_map_lambda

LAM_COS = (math.pi / 2) ** 2        # 2.4674011002723395, interval eigenvalue
LAM_SINC = math.pi**2               # 9.869604401089358, 3-ball eigenvalue
J0SQ = 5.78318596294678             # squared first zero of J_0, disk eigenvalue
# squared first zero of J_29, the eigenvalue of the unit 60-ball (N = 60, k = 1);
# mpmath.besseljzero(29, 1) ** 2
J29SQ = 1227.6123313243762


def linear_spec(N, k, R=1.0):
    return ProblemSpec(N=N, k=k, R=R, f=NonlinearitySpec("linear"))


class TestIntegrateProfile:
    def test_lambda_zero_constant(self):
        prof = integrate_profile(linear_spec(2, 1), 0.0, 1.0)
        assert np.all(prof.u == -1.0)
        assert np.all(prof.uprime == 0.0)
        assert prof.boundary_value == -1.0
        assert prof.max_consistency_residual == 0.0

    def test_cosine_case(self):
        # N=1, k=1, f(s)=s, lambda=1: u'' = -u, u = -cos(r)
        prof = integrate_profile(linear_spec(1, 1), 1.0, 1.0)
        assert prof.boundary_value == pytest.approx(-math.cos(1.0), abs=1e-10)
        assert np.max(np.abs(prof.u + np.cos(prof.r))) < 1e-9
        assert np.max(np.abs(prof.uprime - np.sin(prof.r))) < 1e-9

    def test_radial_sinc_case(self):
        # N=3, k=1, lambda = pi^2: u = -sin(pi r)/(pi r), u(1) = 0
        prof = integrate_profile(linear_spec(3, 1), LAM_SINC, 1.0)
        assert abs(prof.boundary_value) < 1e-8
        r = prof.r[1:]
        exact = -np.sin(math.pi * r) / (math.pi * r)
        assert np.max(np.abs(prof.u[1:] - exact)) < 1e-8
        assert prof.u[0] == -1.0

    @pytest.mark.parametrize("kind", ["linear", "superlinear", "sqrt", "log_bump"])
    @pytest.mark.parametrize("N,k", [(1, 1), (3, 2), (8, 1), (5, 5)])
    def test_boundary_value_is_the_fixed_r_shot(self, kind, N, k):
        # the profile run steps as the fixed-R shot does, so its u(R) is that shot's bits
        spec = ProblemSpec(N=N, k=k, R=1.13, f=core.registry()[kind])
        for lam, d in ((1.0, 1.0), (3.0, 0.2), (0.1, 8.0)):
            assert integrate_profile(spec, lam, d, grid_points=256).boundary_value == (
                shoot_boundary_value(spec, lam, d)), (lam, d)

    def test_invalid_inputs(self):
        spec = linear_spec(1, 1)
        with pytest.raises(InvalidInputError):
            integrate_profile(spec, 1.0, 0.0)
        with pytest.raises(InvalidInputError):
            integrate_profile(spec, 1.0, -2.0)
        with pytest.raises(InvalidInputError):
            integrate_profile(spec, -1.0, 1.0)
        with pytest.raises(InvalidInputError):
            integrate_profile(spec, 1.0, 1.0, grid_points=32)

    @pytest.mark.parametrize("tol", [0.0, -1e-10, 1e-2, math.inf, math.nan])
    def test_one_tolerance_in_range(self, ivps, tol):
        # one tolerance sets every IVP and every root; every entry that integrates
        # refuses it by name before its first IVP, the lambda = 0 shots included
        from hessbif import branch

        spec = linear_spec(2, 1)
        pair = system.SystemSpec(N=2, k=1, R=1.0, g=system.NonlinearitySpec2("linear_t"),
                                 h=system.NonlinearitySpec2("linear_s"))
        grid = np.geomspace(1e-2, 1e2, 16)
        entries = {
            "first_eigenvalue": lambda: first_eigenvalue(2, 1, 1.0, tol),
            "shoot_boundary_value": lambda: shoot_boundary_value(spec, 1.0, 1.0, tol),
            "shoot_boundary_value lam=0": lambda: shoot_boundary_value(spec, 0.0, 1.0, tol),
            "lambda_at_amplitude": lambda: lambda_at_amplitude(spec, 1.0, 1.0, tol),
            "solve_lambda": lambda: solve_lambda(spec, 1.0, (0.0, 10.0), tol),
            "integrate_profile": lambda: integrate_profile(spec, 1.0, 1.0, tol),
            "integrate_profile lam=0": lambda: integrate_profile(spec, 0.0, 1.0, tol),
            "trace_branch": lambda: branch.trace_branch(spec, 1e-2, 1e2, 16, tol),
            "trace_branch scaled": lambda: branch.trace_branch(spec, 1e-2, 1e2, 16, tol,
                                                               lambda_scale=J0SQ),
            "integrate_system": lambda: system.integrate_system(pair, 1.0, 1.0, 1.0, tol),
            "integrate_system lam=0": lambda: system.integrate_system(pair, 0.0, 1.0, 1.0,
                                                                      tol),
            "system_boundary_values": lambda: system.system_boundary_values(
                pair, 1.0, 1.0, 1.0, tol),
            "system_boundary_values lam=0": lambda: system.system_boundary_values(
                pair, 0.0, 1.0, 1.0, tol),
            "solve_system_shooting": lambda: system.solve_system_shooting(
                pair, 1.0, (J0SQ, 1.0), tol),
            "confirm_coupled_eigenvalue": lambda: system.confirm_coupled_eigenvalue(
                2, 1, 1.0, J0SQ, tol),
            "power_pair_constant": lambda: system.power_pair_constant(1, 1, 1.0, 1.0, tol=tol),
            "trace_system_branch": lambda: system.trace_system_branch(pair, grid, tol),
            "trace_system_branch scaled": lambda: system.trace_system_branch(
                pair, grid, tol, lambda_scale=J0SQ),
        }
        for name, run in entries.items():
            with pytest.raises(InvalidInputError, match="tol must satisfy 0 < tol < 0.01"):
                run()
            assert ivps == [], name


class TestBoundaryResidual:
    def test_constant_profile(self):
        prof = integrate_profile(linear_spec(2, 2), 0.0, 1.0)
        assert prof.boundary_value == -1.0

    def test_eigen_lambda_hits_zero(self):
        prof = integrate_profile(linear_spec(1, 1), LAM_COS, 1.0)
        assert abs(prof.boundary_value) < 1e-8

    def test_cosine_value(self):
        prof = integrate_profile(linear_spec(1, 1), 1.0, 1.0)
        assert prof.boundary_value == pytest.approx(-0.5403023058681398, abs=1e-10)


class TestSolveLambda:
    def test_interval_eigenvalue(self):
        roots = solve_lambda(linear_spec(1, 1), 1.0, (0.1, 10.0))
        assert len(roots) == 1
        assert roots[0] == pytest.approx(LAM_COS, rel=1e-9)

    def test_saturating_small_amplitude_limit(self):
        # f0 = 1 so the branch bifurcates from lambda1/f0
        spec = ProblemSpec(N=1, k=1, R=1.0, f=NonlinearitySpec("saturating"))
        roots = solve_lambda(spec, 1e-6, (0.1, 10.0))
        assert len(roots) == 1
        assert roots[0] == pytest.approx(LAM_COS, rel=1e-3)

    def test_bracket_below_branch_is_empty(self):
        assert solve_lambda(linear_spec(1, 1), 1.0, (1e-6, 1e-2)) == []

    def test_bad_bracket(self):
        with pytest.raises(InvalidInputError):
            solve_lambda(linear_spec(1, 1), 1.0, (2.0, 1.0))

    def test_monotone_residual_single_sign_change(self):
        # at most one sign change over a wide scan, per registry entry
        from hessbif.core import registry

        for name, f in registry().items():
            spec = ProblemSpec(N=2, k=1, R=1.0, f=f)
            nodes = np.geomspace(1e-3, 1e3, 49)
            vals = [shoot_boundary_value(spec, lam, 1.0) for lam in nodes]
            signs = np.sign(vals)
            changes = int(np.sum(signs[1:] != signs[:-1]))
            assert changes <= 1, name


class TestFirstEigenvalue:
    def test_interval(self):
        res = first_eigenvalue(1, 1, 1.0)
        assert res.lambda1 == pytest.approx(LAM_COS, rel=1e-9)
        assert abs(res.residual) < 1e-8

    def test_ball_3d(self):
        res = first_eigenvalue(3, 1, 1.0)
        assert res.lambda1 == pytest.approx(LAM_SINC, rel=1e-9)

    def test_disk_vs_bessel_and_oracle(self):
        got = first_eigenvalue(2, 1, 1.0).lambda1
        assert got == pytest.approx(J0SQ, rel=1e-8)
        assert got == pytest.approx(eigen_value(2, 1, 1.0), rel=1e-8)

    def test_monge_ampere_2d_dual_integrator(self):
        # no closed form: compare against the independent fixed-step RK4 oracle
        got = first_eigenvalue(2, 2, 1.0).lambda1
        assert got == pytest.approx(eigen_value(2, 2, 1.0), rel=1e-8)

    def test_homogeneity_in_amplitude(self):
        # f linear: lambda(d) independent of d
        spec = linear_spec(1, 1)
        base = solve_lambda(spec, 1.0, (0.1, 10.0))[0]
        for d in (1e-3, 1e3):
            lam = solve_lambda(spec, d, (0.1, 10.0))[0]
            assert abs(lam - base) < 1e-8

    def test_eigen_scaling_law(self):
        # lambda1 scales as R^-2 for every order k
        for N, k in ((1, 1), (2, 1), (2, 2), (3, 2), (3, 3)):
            lam_1 = first_eigenvalue(N, k, 1.0).lambda1
            lam_2 = first_eigenvalue(N, k, 2.0).lambda1
            assert abs(lam_2 * 4.0 - lam_1) < 1e-8 * max(1.0, lam_1)


class TestScaledFirstEigenvalue:
    # the fixed-R cases of the scaled solve: every (N, k) with N <= 5, plus large N
    CASES = ([(N, k) for N in range(1, 6) for k in range(1, N + 1)]
             + [(8, 1), (8, 4), (8, 8), (20, 7), (60, 60)])

    def test_two_ivps(self, ivps):
        # one scaled IVP and one fixed-lambda1 run read on both sides of R
        res = first_eigenvalue(2, 2, 1.13)
        assert len(ivps) == res.iterations == 2

    def test_detuned_scaled_value_fails_the_bracket(self, monkeypatch):
        import hessbif.shooting as shooting

        real = shooting.lambda_at_amplitude
        monkeypatch.setattr(shooting, "lambda_at_amplitude",
                            lambda *args: real(*args) * (1.0 + 1e-3))
        with pytest.raises(NumericalFailureError) as exc:
            first_eigenvalue(2, 1, 1.0)
        message = str(exc.value)
        assert message.count("u(R; ") == 2 and "does not change sign" in message

    W = eigen_rel_tol(TOL)

    @pytest.mark.parametrize("detune,fails", [(-1e-3, True), (-2.0 * W, True), (2.0 * W, True),
                                              (-0.5 * W, False), (0.5 * W, False)])
    def test_one_bracket_shot_is_w_wide_on_either_side(self, monkeypatch, detune, fails):
        # a detuned scaled value passes only if the fixed-R root is within relative w
        import hessbif.shooting as shooting

        real = shooting.lambda_at_amplitude
        monkeypatch.setattr(shooting, "lambda_at_amplitude",
                            lambda *args: real(*args) * (1.0 + detune))
        if not fails:
            assert first_eigenvalue(2, 1, 1.0).iterations == 2
            return
        with pytest.raises(NumericalFailureError) as exc:
            first_eigenvalue(2, 1, 1.0)
        message = str(exc.value)
        assert message.count("u(R; ") == 2 and "does not change sign" in message

    @pytest.mark.parametrize("N,k,R", [(2, 1, 1.0), (3, 2, 1.13), (60, 1, 1e-3)])
    def test_one_run_is_read_on_both_sides_of_R(self, ivps, N, k, R):
        # u(R; lambda1 (1 + e)) = u(R sqrt(1 + e); lambda1): one run at lambda1 out to
        # R sqrt(1 + w), read at R sqrt(1 - w) and R, gives both bracket ends and the residual
        w = eigen_rel_tol(TOL)
        res = first_eigenvalue(N, k, R)
        assert len(ivps) == 2
        run = ivps[1]
        assert run.kwargs["inputs"][0] == res.lambda1
        assert run.args[3] == R * math.sqrt(1.0 + w)
        assert run.kwargs["output_ts"] == (R * math.sqrt(1.0 - w), R)
        (u_lo, _), (residual, _) = run.result.grid_states
        assert u_lo < 0.0 < run.result.y[0]
        assert res.residual == residual

    @pytest.mark.parametrize("R", [1.0, 1.37])
    def test_sixty_ball_against_bessel_zero(self, R):
        got = first_eigenvalue(60, 1, R).lambda1 * R**2
        assert abs(got - J29SQ) <= 1e-9 * J29SQ

    @pytest.mark.parametrize("N,k", CASES)
    def test_matches_fixed_radius_bisection(self, N, k):
        R = 1.37
        res = first_eigenvalue(N, k, R)
        [root] = solve_lambda(linear_spec(N, k, R), 1.0,
                              (res.lambda1 / 2.0, res.lambda1 * 2.0), scan_cells=2)
        assert abs(res.lambda1 - root) <= 1e-9 * root

    @pytest.mark.parametrize("N,k", CASES + [(60, 1)])
    def test_bracket_holds_at_loose_tolerances(self, N, k):
        assert first_eigenvalue(N, k, 0.71, tol=1e-5).iterations == 2



class TestExtremeRadii:
    """first_eigenvalue where r^(N-k) leaves the normal floats near the origin or far
    out: at N = 60, k = 1, R = 1e-3 the series radius r0 = 2.2e-8 has r0^59 = 0.0,
    so the slope u' = (m / r^(N-k))^(1/k) must fall back to its log form there."""

    @pytest.mark.parametrize("R", [1e-3, 0.1, 1e3])
    def test_sixty_ball_against_bessel_zero(self, R):
        got = first_eigenvalue(60, 1, R).lambda1 * R**2
        assert abs(got - J29SQ) <= 1e-9 * J29SQ

    # lambda1 R^2 with u' from exp(log(m)/k + (k-N)/k log(r)) at every r
    @pytest.mark.parametrize("N,k,want", [(20, 7, 25.456704816532483),
                                          (8, 8, 3.3335198951867824)])
    def test_small_ball_matches_the_log_form(self, N, k, want):
        R = 1e-3
        got = first_eigenvalue(N, k, R).lambda1 * R * R
        assert abs(got - want) <= 1e-12 * want

@functools.lru_cache(maxsize=None)
def _unit_ball_oracle(N, k):
    return eigen_value(N, k, 1.0)


# radii that are not powers of two, where the R^-2 law is not exact in floating point
RADII = st.floats(math.log(0.3), math.log(3.0)).map(math.exp).filter(
    lambda R: math.log2(R) != round(math.log2(R)))


@settings(max_examples=30, deadline=None, derandomize=True, database=None)
@given(R=RADII, case=st.sampled_from([(1, 1), (2, 1), (2, 2), (3, 2), (3, 3)]))
def test_scaling_law_against_oracle(R, case):
    expect = _unit_ball_oracle(*case)
    assert first_eigenvalue(*case, R).lambda1 * R**2 == pytest.approx(expect, rel=1e-8)


class TestConsistencyAndAdmissibility:
    def test_cosine_consistency_below_tolerance(self):
        prof = integrate_profile(linear_spec(1, 1), 1.0, 1.0)
        assert prof.max_consistency_residual < 1e-6

    def test_refinement_reduces_residual(self):
        spec = linear_spec(1, 1)
        coarse = integrate_profile(spec, 1.0, 1.0, grid_points=512)
        fine = integrate_profile(spec, 1.0, 1.0, grid_points=1024)
        assert fine.max_consistency_residual < coarse.max_consistency_residual / 3.0

    def test_solution_profiles_admissible(self):
        for N, k in ((2, 1), (2, 2), (3, 2)):
            spec = ProblemSpec(N=N, k=k, R=1.0, f=NonlinearitySpec("saturating"))
            lam1 = first_eigenvalue(N, k, 1.0).lambda1
            roots = solve_lambda(spec, 1.0, (lam1, 50 * lam1))
            assert len(roots) == 1
            prof = integrate_profile(spec, roots[0], 1.0)
            assert profile_admissible(prof, N, k)
            assert np.all(prof.u[:-1] < 0.0)
            assert np.all(np.diff(prof.u) >= 0.0)
            assert prof.u[0] == -1.0 and prof.uprime[0] == 0.0

    def test_consistency_nonlinear_case(self):
        # root_sum_powers expresses S_k = lambda^k (|u|^k + c |u|^b)
        spec = ProblemSpec(
            N=2, k=2, R=1.0,
            f=NonlinearitySpec("root_sum_powers", {"a": 2.0, "b": 1.0, "c": 0.5}),
        )
        prof = integrate_profile(spec, 2.0, 1.0)
        assert prof.max_consistency_residual < 1e-5
        upp = np.gradient(prof.uprime, prof.r)
        mid = len(prof.r) // 2
        r, u = prof.r[mid], prof.u[mid]
        sk = upp[mid] * prof.uprime[mid] / r
        assert sk == pytest.approx(2.0**2 * (u**2 + 0.5 * (-u)), rel=1e-3)


class TestLambdaAtAmplitude:
    R = 1.13   # not a power of two, so the R^-2 scaling is not exact in floating point

    def test_matches_fixed_radius_solver_over_registry(self):
        from hessbif.core import registry

        for N, k in ((1, 1), (2, 2), (3, 2)):
            lam1 = first_eigenvalue(N, k, self.R).lambda1
            for name, f in registry().items():
                spec = ProblemSpec(N=N, k=k, R=self.R, f=f)
                for d in (0.03, 1.0, 30.0):
                    lam = lambda_at_amplitude(spec, d, lam1 * d / f(d))
                    roots = solve_lambda(spec, d, (lam / 4.0, lam * 4.0), scan_cells=4)
                    assert len(roots) == 1, (name, N, k, d)
                    assert abs(lam - roots[0]) <= 1e-9 * roots[0], (name, N, k, d)

    def test_independent_of_reference_lambda(self):
        spec = ProblemSpec(N=2, k=2, R=self.R, f=NonlinearitySpec("log_bump"))
        lam_a = lambda_at_amplitude(spec, 3.0, 1.0)
        lam_b = lambda_at_amplitude(spec, 3.0, 40.0)
        assert lam_a == pytest.approx(lam_b, rel=1e-9)

    def test_eigenvalue_from_linear_case(self):
        spec = linear_spec(3, 1, self.R)
        assert lambda_at_amplitude(spec, 1.0, 1.0) == pytest.approx(
            LAM_SINC / self.R**2, rel=1e-10)

    def test_default_tolerance_within_1e9_of_a_tight_run(self):
        # the worst scalar case of the sweep behind shooting.STEP_TOL_FACTOR: stepping
        # at the caller's tolerance puts it 1.4e-8 off, one decade tighter 8.7e-10
        spec = ProblemSpec(N=5, k=2, R=self.R, f=NonlinearitySpec("saturating"))
        lam0 = first_eigenvalue(5, 2, self.R).lambda1 * 100.0 / spec.f(100.0)
        tight = 1e-13
        assert lambda_at_amplitude(spec, 100.0, lam0) == pytest.approx(
            lambda_at_amplitude(spec, 100.0, lam0, tight), rel=1e-9)

    @pytest.mark.parametrize("d", [1e-2, 1.0, 1e2])
    def test_non_smooth_nonlinearity_within_1e9_of_a_tight_run(self, d):
        # f(s) = s^(1/2) + s^2 has an infinite slope at s = 0, the zero of u
        f = NonlinearitySpec("sum_of_powers", {"p": 0.5, "q": 2.0, "c": 1.0})
        spec = ProblemSpec(N=2, k=1, R=self.R, f=f)
        lam0 = first_eigenvalue(2, 1, self.R).lambda1 * d / f(d)
        tight = 1e-13
        assert lambda_at_amplitude(spec, d, lam0) == pytest.approx(
            lambda_at_amplitude(spec, d, lam0, tight), rel=1e-9)

    def test_no_zero_within_horizon(self):
        # supercritical Lane-Emden (p = 7 > 5 on the 3-ball): entire solutions
        # stay negative, so there is no lambda at any amplitude
        spec = ProblemSpec(N=3, k=1, R=1.0, f=NonlinearitySpec("power", {"p": 7.0}))
        assert lambda_at_amplitude(spec, 1.0, LAM_SINC) is None

    def test_input_validation(self):
        spec = linear_spec(1, 1)
        with pytest.raises(InvalidInputError):
            lambda_at_amplitude(spec, 1.0, 0.0)
        with pytest.raises(InvalidInputError):
            lambda_at_amplitude(spec, -1.0, 1.0)


class TestTimeMap:
    """lambda(d) at N = k = 1 against the exact time map of tests/_oracles.py.

    At the defaults every registry kind agrees with it to 2.2e-11 on d in
    1e-2..1e2, the two N1k1 folds to 1.3e-12 and the symmetric pairs to
    2.2e-12; the table asks for 1e-10."""

    R = 1.13

    @pytest.mark.parametrize("name", sorted(core.registry()))
    def test_registry_kind_against_the_time_map(self, name):
        f = core.registry()[name]
        spec = ProblemSpec(N=1, k=1, R=self.R, f=f)
        lam1 = first_eigenvalue(1, 1, self.R).lambda1
        for d in np.geomspace(1e-2, 1e2, 9):
            lam = lambda_at_amplitude(spec, d, lam1 * d / f(d))
            assert lam == pytest.approx(time_map_lambda(f, d, self.R), rel=1e-10), d

    @pytest.mark.parametrize("base,params", [
        ("linear", {}), ("saturating", {}), ("superlinear", {}), ("rational", {"b": 2.0}),
        ("powermix", {}), ("logbump", {})])
    def test_symmetric_pair_against_the_time_map(self, base, params):
        # at N = 1 a symmetric pair at d_u = d_v is the scalar problem with f(s) = g(s, s)
        g = system.NonlinearitySpec2(f"{base}_t", params)
        spec = system.SystemSpec(N=1, k=1, R=self.R, g=g,
                                 h=system.NonlinearitySpec2(f"{base}_s", params))
        lam1 = first_eigenvalue(1, 1, self.R).lambda1
        for d_u in (1e-2, 1.0, 1e2):
            point = system.solve_system_shooting(spec, d_u, (lam1 * d_u / g(d_u, d_u), d_u))
            assert point.lam == pytest.approx(
                time_map_lambda(lambda s: g(s, s), d_u, self.R), rel=1e-10), d_u

    @pytest.mark.parametrize("name,kind", [("sqrt_plus_square", "max"), ("log_bump", "min")])
    def test_fold_against_the_time_map(self, name, kind):
        from hessbif.branch import trace_branch

        f = core.registry()[name]
        branch = trace_branch(ProblemSpec(N=1, k=1, R=self.R, f=f), 1e-2, 1e2, 25)
        [fold] = branch.folds
        assert fold.kind == kind
        d_lo, d_hi = (branch.points[fold.index + i].d for i in (-1, 1))
        assert fold.lam == pytest.approx(time_map_fold(f, d_lo, d_hi, self.R, kind), rel=1e-10)


def _logged_attempts(monkeypatch):
    """A list that receives (h, u, u_new, err) of every trial step rk takes from here on:
    the attempts of rk.integrate, then the trials of rk._locate_zero."""
    import hessbif.rk as rk

    log = []
    make = rk._dop853_step

    def logging_make(n, slope=rk.CALL):
        step = make(n, slope)

        def logged(inputs, t, y, h, k0, rtol, atol):
            y_new, err = step(inputs, t, y, h, k0, rtol, atol)
            log.append((h, y[0], y_new[0], err))
            return y_new, err

        return logged

    monkeypatch.setattr(rk, "_dop853_step", logging_make)
    return log


class TestRootIvpCounts:
    """Attempt counts of IVPs run to the first zero of u, on which rk aims its steps.

    The counts are deterministic; the figures in the comments are those of
    stepping across the zero with a first trial of span/64."""

    R = 1.13

    def test_first_trial_accepted_on_the_horizon_span(self, monkeypatch):
        # saturating N5k2, d = 100, out to HORIZON * R: a first trial of span/64 = 17.7
        # was rejected 7 times (35 rejected, 36 accepted in all); without the predictive
        # cap on growth, 20 of 54 attempts were rejected as the error scale of u shrank
        f = NonlinearitySpec("saturating")
        lam0 = first_eigenvalue(5, 2, self.R).lambda1 * 100.0 / f(100.0)
        log = _logged_attempts(monkeypatch)
        res = flux_ivp(5, 2, self.R, lam0, f, (100.0,), 1e-10, HORIZON * self.R,
                       root_tol=1e-10)[0]
        assert log[0][0] == pytest.approx(self.R / 64.0, rel=1e-6)   # (R - r0) / 64
        assert log[0][3] <= 1.0   # accepted
        assert (res.n_steps, res.n_rejected, res.n_rhs) == (36, 3, 476)

    def test_one_rejected_trial_crosses_the_zero(self, monkeypatch):
        # saturating N2k1 at d = 0.1 and its reference lambda = lambda1 d / f(d)
        f = NonlinearitySpec("saturating")
        lam = first_eigenvalue(2, 1, self.R).lambda1 * 0.1 / f(0.1)
        log = _logged_attempts(monkeypatch)
        res = flux_ivp(2, 1, self.R, lam, f, (0.1,), 1e-10, HORIZON * self.R,
                       root_tol=1e-10)[0]
        attempts = log[:res.n_steps + res.n_rejected]
        crossing = [i for i, (_, u, u_new, err) in enumerate(attempts)
                    if err > 1.0 and u < 0.0 <= u_new]
        assert len(crossing) == 1
        # retried at 0.9 of its length, not cut by the error estimate of the kink
        i = crossing[0]
        assert attempts[i + 1][0] == 0.9 * attempts[i][0]
        assert (res.n_steps, res.n_rejected, res.n_rhs) == (16, 2, 225)


class TestStepControl:
    R = 1.13

    def test_no_growth_on_the_first_step_accepted_after_a_rejection(self, monkeypatch):
        # the fixed-R shot of power p = 2 at N5k2, d = 1: attempts[22] follows a rejection
        # and is accepted at err = 0.405, where 0.9 err^(-1/8) = 1.008 would grow the step
        f = NonlinearitySpec("power", {"p": 2.0})
        lam1 = first_eigenvalue(5, 2, self.R).lambda1
        log = _logged_attempts(monkeypatch)
        res = flux_ivp(5, 2, self.R, lam1, f, (1.0,), 1e-10, self.R)[0]
        assert (res.n_steps, res.n_rejected, res.n_rhs) == (34, 8, 496)
        attempts = log[:res.n_steps + res.n_rejected]
        after = [i for i in range(1, len(attempts) - 1)
                 if attempts[i - 1][3] > 1.0 >= attempts[i][3]]
        assert all(attempts[i + 1][0] <= attempts[i][0] for i in after)
        assert attempts[21][3] > 1.0 and 0.9 * attempts[22][3] ** -0.125 > 1.0
        assert attempts[23][0] == attempts[22][0]


class TestFluxKernel:
    @pytest.mark.parametrize("weights,amplitudes", [
        (lambda s: -0.5, (1.0,)),
        ((lambda su, sv: -0.5, lambda su, sv: su), (1.0, 1.0)),
    ], ids=["scalar", "pair"])
    def test_negative_weight_refused(self, weights, amplitudes):
        # at k = 2 the forcing (lam w)^k is positive: the sign of w itself is checked
        with pytest.raises(NumericalFailureError,
                           match=r"nonlinearity returned .*-0\.5.* refusing a negative"):
            flux_ivp(2, 2, 1.0, 1.0, weights, amplitudes, 1e-10, 1.0)

    @pytest.mark.parametrize("weights,amplitudes", [
        (lambda s: math.nan if s < 0.99 else 1.0, (1.0,)),
        ((lambda su, sv: math.inf if su < 0.99 else su, lambda su, sv: sv), (1.0, 1.0)),
    ], ids=["scalar-nan", "pair-inf"])
    def test_non_finite_weight_refused_as_non_finite(self, weights, amplitudes):
        # finite at the seed s = 1, non-finite once s falls below 0.99
        with pytest.raises(NumericalFailureError,
                           match=r"nonlinearity returned .*(nan|inf).* refusing a non-finite"):
            flux_ivp(2, 2, 1.0, 1.0, weights, amplitudes, 1e-10, 1.0)

    def test_tracebacks_show_the_kernel_source(self):
        # s (1 + s) overflows to inf at s = 1e200, which the inlined weight check refuses
        slope, inputs, _ = flux_kernel(2, 1, 1.0, NonlinearitySpec("superlinear"))
        step = rk._dop853_step(2, slope)
        with pytest.raises(NumericalFailureError) as info:
            step(inputs, 0.5, [-1e200, 1.0], 0.1, (0.0, 0.0), 1e-10, [1e-13, 1e-13])
        text = "".join(traceback.format_exception(info.value))
        assert 'File "<hessbif.rk dop853 n=2 flux superlinear N2k1>", line 11, in step' in text
        assert "refuse(w0, s0)" in text

    def test_only_caller_of_the_integrator(self, ivps):
        from hessbif import branch, shooting, system

        pair = system.SystemSpec(N=2, k=1, R=1.0, g=system.NonlinearitySpec2("saturating_t"),
                                 h=system.NonlinearitySpec2("saturating_s"))
        runs = {
            "trace_branch": lambda: branch.trace_branch(
                ProblemSpec(N=2, k=1, R=1.0, f=NonlinearitySpec("saturating")),
                1e-2, 1e2, 16),
            "trace_system_branch": lambda: system.trace_system_branch(
                pair, np.geomspace(1e-2, 1e2, 4)),
            "first_eigenvalue": lambda: first_eigenvalue(2, 2, 1.0),
            "confirm_coupled_eigenvalue": lambda: system.confirm_coupled_eigenvalue(
                2, 1, 1.0, first_eigenvalue(2, 1, 1.0).lambda1),
            "power_pair_constant": lambda: system.power_pair_constant(
                1, 1, 1.0, 1.0, n_samples=2),
            "integrate_profile": lambda: integrate_profile(linear_spec(2, 1), 1.0, 1.0,
                                                           grid_points=64),
            "integrate_system": lambda: system.integrate_system(pair, 1.0, 1.0, 1.0,
                                                                grid_points=64),
        }
        for name, run in runs.items():
            ivps.clear()
            run()
            callers = {ivp.caller for ivp in ivps}
            assert callers == {shooting.flux_ivp.__code__}, name


class TestFluxSecondDerivative:
    def test_cosine_case_exact(self):
        # u = -cos(r): u'' = cos(r)
        prof = integrate_profile(linear_spec(1, 1), 1.0, 1.0)
        assert np.max(np.abs(prof.upp - np.cos(prof.r))) < 1e-9

    def test_sk_from_flux_matches_equation_near_boundary(self):
        # S_2 of power p=2 on the 3-ball vanishes like (R - r)^4 at r = R;
        # the flux u'' keeps its sign where a differenced u'' does not
        spec = ProblemSpec(N=3, k=2, R=1.0, f=NonlinearitySpec("power", {"p": 2.0}))
        lam = lambda_at_amplitude(spec, 1.0, first_eigenvalue(3, 2, 1.0).lambda1)
        prof = integrate_profile(spec, lam, 1.0, grid_points=256)
        q = prof.uprime[-2] / prof.r[-2]
        s2 = q * q + 2.0 * q * prof.upp[-2]
        assert s2 == pytest.approx((lam * prof.u[-2] ** 2) ** 2, rel=1e-4)
        assert profile_admissible(prof, 3, 2)


def synthetic_profile(r, u, up, upp):
    return RadialProfile(r=r, u=u, uprime=up, upp=upp, lam=1.0, d=-u[0])


class TestAdmissibilityRejects:
    r = np.linspace(0.0, 1.0, 257)

    def test_flat_plateau(self):
        # u = -1 on [0, 1/2], then a quadratic rise to u(1) = 0: u' = u'' = 0 inside
        r = self.r
        inner = r <= 0.5
        u = np.where(inner, -1.0, -1.0 + 4.0 * (r - 0.5) ** 2)
        up = np.where(inner, 0.0, 8.0 * (r - 0.5))
        upp = np.where(inner, 0.0, 8.0)
        for N, k in ((1, 1), (2, 1), (3, 2)):
            assert not profile_admissible(synthetic_profile(r, u, up, upp), N, k)

    def test_overshoot_above_zero(self):
        # u = -1 + 4 r^2 - 3 r^4 rises to 1/3 > 0 inside, then falls back to 0
        r = self.r
        u = -1.0 + 4.0 * r**2 - 3.0 * r**4
        up = 8.0 * r - 12.0 * r**3
        upp = 8.0 - 36.0 * r**2
        assert np.max(u) > 0.0
        for N, k in ((1, 1), (2, 1), (3, 2)):
            assert not profile_admissible(synthetic_profile(r, u, up, upp), N, k)

    def test_convex_bowl_accepted(self):
        r = self.r
        prof = synthetic_profile(r, r**2 - 1.0, 2.0 * r, np.full_like(r, 2.0))
        assert profile_admissible(prof, 3, 2)


def _bits(fn, *args):
    """fn(*args) with its floats as hex, or the name of the exception it raised."""
    def hexed(v):
        return [hexed(x) for x in v] if isinstance(v, (list, tuple)) else v.hex()

    try:
        return hexed(fn(*args))
    except (OverflowError, NumericalFailureError) as exc:
        return type(exc).__name__


LOG_GRID = [10.0 ** e for e in range(-300, 301, 10)]
SCALAR_PARAMS = {"power": {"p": 2.5}, "sum_of_powers": {"p": 0.5, "q": 2.0, "c": 3.0},
                 "root_sum_powers": {"a": 2.0, "b": 5.0, "c": 0.5}}
PAIR_BASES = sorted(system._PAIR_BASES)


def _pair(base):
    params = {"b": 3.0} if base == "rational" else {}
    return system.NonlinearitySpec2(base + "_t", params), system.NonlinearitySpec2(base + "_s",
                                                                                  params)


def _unfolded_slope(N, k, lam, weights):
    """The flux slope as rhs(r, y), with N - 1, N - k, k and 1/k as run-time values and
    every float power written out: the kernel's template before its (N, k) is folded in."""
    ws = (weights,) if callable(weights) else tuple(weights)
    coef = k / core.binom(N - 1, k - 1)
    r_lo, r_hi = ((0.0, math.inf) if N == k
                  else (1e-300 ** (1.0 / (N - k)), 1e300 ** (1.0 / (N - k))))

    def rhs(r, y):
        if len(ws) == 1:
            s = (-y[0],)
            w = [ws[0](s[0]) if s[0] > 0.0 else 0.0]
        else:
            s = tuple(-u if u < 0.0 else 0.0 for u in y[0::2])
            w = [g(*s) for g in ws]
        if not all(0.0 <= x < math.inf for x in w):
            raise NumericalFailureError(f"refusing {w!r}")
        ra = coef * r ** (N - 1)
        r_nk = r ** (N - k) if r_lo < r < r_hi else math.inf
        out = []
        for m, x in zip(y[1::2], w):
            q = m / r_nk
            out += [q ** (1.0 / k) if sys.float_info.min <= q < math.inf
                    else math.exp(1.0 / k * math.log(m) + (k - N) / k * math.log(r)) if m > 0.0
                    else 0.0,
                    ra * (lam * x) ** k]
        return out

    return rhs


class TestSingleSource:
    """Each weight formula is stored once: the called weight and the one the flux kernel
    inlines agree bit for bit, and the kernel's rhs and inlined stages are those of the
    unfolded slope."""

    @pytest.mark.parametrize("kind", sorted(core._FORMULAS))
    def test_called_and_inlined_weight_agree(self, kind):
        f = NonlinearitySpec(kind, SCALAR_PARAMS.get(kind, {}))
        # at N = k = 1 and lam = 1 the m-slope is 1.0 * 1.0 * (1.0 * f(s)) ** 1 = f(s)
        rhs = flux_kernel(1, 1, 1.0, f)[2]
        for s in LOG_GRID:
            want = _bits(f, s)
            if want in ("inf", "nan"):
                want = "NumericalFailureError"   # the kernel refuses a non-finite weight
            got = _bits(lambda: rhs(1.0, [-s, 1.0])[1])
            assert got == want, s

    @pytest.mark.parametrize("base", PAIR_BASES)
    def test_called_and_inlined_pair_weights_agree(self, base):
        g, h = _pair(base)
        rhs = flux_kernel(1, 1, 1.0, (g, h))[2]
        grid = [0.0] + LOG_GRID
        for s in grid:
            for t in grid:
                want = [_bits(g, s, t), _bits(h, s, t)]
                if any(w in ("inf", "nan") for w in want):
                    want = "NumericalFailureError"
                got = _bits(lambda: rhs(1.0, [-s, 1.0, -t, 1.0])[1::2])
                assert got == want, (s, t)

    WEIGHTS = {
        "sum_of_powers": NonlinearitySpec("sum_of_powers", SCALAR_PARAMS["sum_of_powers"]),
        "tabulated": NonlinearitySpec("tabulated", {"s": [0.1, 1.0, 10.0],
                                                    "f": [0.05, 1.0, 5.0]}),
        "lambda": lambda s: s * s / (1.0 + s),
        "rational pair": _pair("rational"),
    }

    @pytest.mark.parametrize("N", [1, 2, 3, 5, 60])
    def test_unit_coefficients_are_folded_at_k1(self, N):
        # at k = 1 both k / C(N-1, k-1) and 1/k are 1.0, and 1.0 * x is x: no kernel
        # multiplies by them (the -1.0 of (k - N)/k at N = 2 is not a unit factor)
        for weights in self.WEIGHTS.values():
            body = flux_kernel(N, 1, 3.7, weights)[0].body
            assert re.search(r"(?<![-\w.])1\.0 \*", body) is None, body

    @pytest.mark.parametrize("name", sorted(WEIGHTS))
    @pytest.mark.parametrize("N,k", [(1, 1), (2, 1), (2, 2), (3, 1), (3, 2), (3, 3), (4, 4),
                                     (5, 1), (8, 8), (60, 1)])
    def test_inlined_stages_equal_the_rhs(self, name, N, k):
        # the kernel's rhs against the unfolded slope, and its step, which inlines the slope,
        # against the generic step calling the unfolded slope at its stages: a wrong fold of
        # any (N, k) case moves a bit of one or the other
        weights = self.WEIGHTS[name]
        slope, inputs, rhs = flux_kernel(N, k, 3.7, weights)
        reference = _unfolded_slope(N, k, 3.7, weights)
        n = 2 if callable(weights) else 4
        called, inlined = rk._dop853_step(n), rk._dop853_step(n, slope)
        rng = random.Random(f"{name} {N} {k}")
        for _ in range(200):
            t = 10.0 ** rng.uniform(-9.0, 0.3)   # r^59 underflows below r = 1e-5
            y = []
            for _ in range(n // 2):
                # m down to subnormal, where u' takes the log form
                y += [rng.uniform(-3.0, 0.2), rng.choice([0.0, 10.0 ** rng.uniform(-320.0, 2.0)])]
            h = 10.0 ** rng.uniform(-6.0, -0.5) * t
            assert _bits(rhs, t, y) == _bits(reference, t, y)
            try:
                k0 = reference(t, y)
            except OverflowError:   # u' beyond the floats, from the log form
                continue
            args = (t, y, h, k0, 1e-10, [1e-13] * n)
            assert _bits(called, reference, *args) == _bits(inlined, inputs, *args)
