import functools
import math
import random
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
    RadialProfile,
    ShootingConfig,
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

from _oracles import eigen_value

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

    def test_invalid_inputs(self):
        spec = linear_spec(1, 1)
        with pytest.raises(InvalidInputError):
            integrate_profile(spec, 1.0, 0.0)
        with pytest.raises(InvalidInputError):
            integrate_profile(spec, 1.0, -2.0)
        with pytest.raises(InvalidInputError):
            integrate_profile(spec, -1.0, 1.0)
        with pytest.raises(InvalidInputError):
            ShootingConfig(grid_points=32)


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

    def test_at_most_four_ivps(self, monkeypatch):
        # one scaled IVP, the residual at lambda1 and one fixed-R bracket residual
        import hessbif.rk as rk

        calls = []
        real = rk.integrate

        def counting(*args, **kwargs):
            calls.append(1)
            return real(*args, **kwargs)

        monkeypatch.setattr(rk, "integrate", counting)
        res = first_eigenvalue(2, 2, 1.13)
        assert len(calls) <= 3
        assert res.iterations == len(calls)

    def test_detuned_scaled_value_fails_the_bracket(self, monkeypatch):
        import hessbif.shooting as shooting

        real = shooting.lambda_at_amplitude
        monkeypatch.setattr(shooting, "lambda_at_amplitude",
                            lambda *args: real(*args) * (1.0 + 1e-3))
        with pytest.raises(NumericalFailureError) as exc:
            first_eigenvalue(2, 1, 1.0)
        message = str(exc.value)
        assert message.count("u(R; ") == 2 and "does not change sign" in message

    W = eigen_rel_tol(ShootingConfig())

    @pytest.mark.parametrize("detune,fails", [(-1e-3, True), (-2.0 * W, True), (2.0 * W, True),
                                              (-0.5 * W, False), (0.5 * W, False)])
    def test_one_bracket_shot_is_w_wide_on_either_side(self, monkeypatch, detune, fails):
        # a detuned scaled value passes only if the fixed-R root is within relative w
        import hessbif.shooting as shooting

        real = shooting.lambda_at_amplitude
        monkeypatch.setattr(shooting, "lambda_at_amplitude",
                            lambda *args: real(*args) * (1.0 + detune))
        if not fails:
            assert first_eigenvalue(2, 1, 1.0).iterations == 3
            return
        with pytest.raises(NumericalFailureError) as exc:
            first_eigenvalue(2, 1, 1.0)
        message = str(exc.value)
        assert message.count("u(R; ") == 2 and "does not change sign" in message

    def test_zero_residual_needs_no_bracket_shot(self, monkeypatch):
        import hessbif.rk as rk
        import hessbif.shooting as shooting

        lam1 = first_eigenvalue(2, 1, 1.0).lambda1
        real_shoot = shooting.shoot_boundary_value

        def zero_at_lam1(spec, lam, d, cfg):
            value = real_shoot(spec, lam, d, cfg)
            return 0.0 if lam == lam1 else value

        calls = []
        real = rk.integrate

        def counting(*args, **kwargs):
            calls.append(1)
            return real(*args, **kwargs)

        monkeypatch.setattr(shooting, "shoot_boundary_value", zero_at_lam1)
        monkeypatch.setattr(rk, "integrate", counting)
        res = first_eigenvalue(2, 1, 1.0)
        assert (res.lambda1, res.residual) == (lam1, 0.0)
        assert len(calls) == res.iterations == 2

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
        cfg = ShootingConfig(grid_points=128, integrator_tol=1e-5, root_tol=1e-5)
        assert first_eigenvalue(N, k, 0.71, cfg).iterations == 3



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
        coarse = integrate_profile(spec, 1.0, 1.0, ShootingConfig(grid_points=512))
        fine = integrate_profile(spec, 1.0, 1.0, ShootingConfig(grid_points=1024))
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
        tight = ShootingConfig(integrator_tol=1e-13, root_tol=1e-13)
        assert lambda_at_amplitude(spec, 100.0, lam0) == pytest.approx(
            lambda_at_amplitude(spec, 100.0, lam0, tight), rel=1e-9)

    @pytest.mark.parametrize("d", [1e-2, 1.0, 1e2])
    def test_non_smooth_nonlinearity_within_1e9_of_a_tight_run(self, d):
        # f(s) = s^(1/2) + s^2 has an infinite slope at s = 0, the zero of u
        f = NonlinearitySpec("sum_of_powers", {"p": 0.5, "q": 2.0, "c": 1.0})
        spec = ProblemSpec(N=2, k=1, R=self.R, f=f)
        lam0 = first_eigenvalue(2, 1, self.R).lambda1 * d / f(d)
        tight = ShootingConfig(integrator_tol=1e-13, root_tol=1e-13)
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
        # was rejected 7 times (35 rejected, 36 accepted in all)
        f = NonlinearitySpec("saturating")
        lam0 = first_eigenvalue(5, 2, self.R).lambda1 * 100.0 / f(100.0)
        log = _logged_attempts(monkeypatch)
        res = flux_ivp(5, 2, self.R, lam0, f, (100.0,), 1e-10, HORIZON * self.R,
                       root_tol=1e-10)[0]
        assert log[0][0] == pytest.approx(self.R / 64.0, rel=1e-6)   # (R - r0) / 64
        assert log[0][3] <= 1.0   # accepted
        assert (res.n_steps, res.n_rejected, res.n_rhs) == (34, 20, 661)

    def test_one_rejected_trial_crosses_the_zero(self, monkeypatch):
        # the tracer's IVP for linear N2k1 at d = 1 (reference lambda1): 11 rejected
        # trials crossed the zero of u (16 rejected, 21 accepted in all)
        lin = NonlinearitySpec("linear")
        lam1 = first_eigenvalue(2, 1, self.R).lambda1
        log = _logged_attempts(monkeypatch)
        res = flux_ivp(2, 1, self.R, lam1, lin, (1.0,), 1e-10, HORIZON * self.R,
                       root_tol=1e-10)[0]
        attempts = log[:res.n_steps + res.n_rejected]
        crossing = [i for i, (_, u, u_new, err) in enumerate(attempts)
                    if err > 1.0 and u < 0.0 <= u_new]
        assert len(crossing) == 1
        # retried at 0.9 of its length, not cut by the error estimate of the kink
        i = crossing[0]
        assert attempts[i + 1][0] == 0.9 * attempts[i][0]
        assert (res.n_steps, res.n_rejected, res.n_rhs) == (16, 2, 247)


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
        assert 'File "<hessbif.rk dop853 n=2 flux superlinear>", line 11, in step' in text
        assert "refuse(w0, s0)" in text

    def test_only_caller_of_the_integrator(self, monkeypatch):
        import sys

        import hessbif.rk as rk
        from hessbif import branch, shooting, system

        callers = set()
        real = rk.integrate

        def recording(*args, **kwargs):
            callers.add(sys._getframe(1).f_code)
            return real(*args, **kwargs)

        monkeypatch.setattr(rk, "integrate", recording)
        fast = ShootingConfig(grid_points=64)
        pair = system.SystemSpec(N=2, k=1, R=1.0, g=system.NonlinearitySpec2("saturating_t"),
                                 h=system.NonlinearitySpec2("saturating_s"))
        runs = {
            "trace_branch": lambda: branch.trace_branch(
                ProblemSpec(N=2, k=1, R=1.0, f=NonlinearitySpec("saturating")),
                1e-2, 1e2, 16, fast),
            "trace_system_branch": lambda: system.trace_system_branch(
                pair, np.geomspace(1e-2, 1e2, 4), fast),
            "first_eigenvalue": lambda: first_eigenvalue(2, 2, 1.0, fast),
            "confirm_coupled_eigenvalue": lambda: system.confirm_coupled_eigenvalue(
                2, 1, 1.0, first_eigenvalue(2, 1, 1.0, fast).lambda1, fast),
            "power_pair_constant": lambda: system.power_pair_constant(
                1, 1, 1.0, 1.0, n_samples=2, cfg=fast),
            "integrate_profile": lambda: integrate_profile(linear_spec(2, 1), 1.0, 1.0, fast),
            "integrate_system": lambda: system.integrate_system(pair, 1.0, 1.0, 1.0, fast),
        }
        for name, run in runs.items():
            callers.clear()
            run()
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
        prof = integrate_profile(spec, lam, 1.0, ShootingConfig(grid_points=256))
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
PAIR_BASES = ["linear", "saturating", "superlinear", "rational", "powermix", "logbump"]


def _pair(base):
    params = {"b": 3.0} if base == "rational" else {}
    return system.NonlinearitySpec2(base + "_t", params), system.NonlinearitySpec2(base + "_s",
                                                                                  params)


class TestSingleSource:
    """Each weight formula is stored once: the called weight and the one the flux kernel
    inlines agree bit for bit, and the kernel's inlined stages are its rhs."""

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

    @pytest.mark.parametrize("name", sorted(WEIGHTS))
    @pytest.mark.parametrize("N,k", [(2, 1), (3, 2), (4, 4), (60, 1)])
    def test_inlined_stages_equal_the_rhs(self, name, N, k):
        # the generic step calling rhs at its stages against the kernel inlining it
        weights = self.WEIGHTS[name]
        slope, inputs, rhs = flux_kernel(N, k, 3.7, weights)
        n = 2 if callable(weights) else 4
        called, inlined = rk._dop853_step(n), rk._dop853_step(n, slope)
        rng = random.Random(f"{name} {N} {k}")
        for _ in range(200):
            t = 10.0 ** rng.uniform(-9.0, 0.3)   # r^59 underflows below r = 1e-5
            y = []
            for _ in range(n // 2):
                y += [rng.uniform(-3.0, 0.2), rng.choice([0.0, 10.0 ** rng.uniform(-300.0, 2.0)])]
            h = 10.0 ** rng.uniform(-6.0, -0.5) * t
            try:
                k0 = rhs(t, y)
            except OverflowError:   # u' beyond the floats, from the log form
                continue
            args = (t, y, h, k0, 1e-10, [1e-13] * n)
            assert _bits(called, rhs, *args) == _bits(inlined, inputs, *args)
