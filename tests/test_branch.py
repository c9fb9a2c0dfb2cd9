import math
import re

import numpy as np
import pytest

from hessbif.branch import (
    AT_LEAST_ONE,
    CSV_HEADER,
    JUMP_REL,
    MAX_REFINE_DEPTH,
    AsymptoteEstimate,
    Branch,
    BranchPoint,
    TWO_ABOVE_MIN_FOLD,
    TWO_BELOW_MAX_FOLD,
    VerificationReport,
    _certify_crossings,
    _polish_folds,
    _solve_point,
    asymptote_estimates,
    count_solutions,
    detect_folds,
    log_grid,
    predicted_interval,
    reference_lambda,
    refine_jumps,
    solution_amplitudes,
    trace_branch,
    verify_predictions,
)
from hessbif.core import LimitClass, NonlinearitySpec, ProblemSpec, registry
from hessbif.errors import (
    AtFoldError,
    InvalidInputError,
    NumericalFailureError,
    OutOfTableError,
    TracingFailureError,
)
from hessbif.shooting import (
    TOL,
    eigen_rel_tol,
    first_eigenvalue,
    flux_ivp,
    flux_kernel,
    integrate_profile,
    profile_admissible,
    shoot_boundary_value,
    trajectory_admissible,
)
from hessbif.system import NonlinearitySpec2, SystemSpec, trace_system_branch

LAM_COS = 2.4674011002723395


def synthetic(lams, d0=1e-3, decades=6.0):
    n = len(lams)
    ds = [d0 * 10.0 ** (decades * i / (n - 1)) for i in range(n)]
    return Branch(points=[
        BranchPoint(d=d, lam=lam, admissible=True)
        for d, lam in zip(ds, lams)
    ])


@pytest.fixture(scope="module")
def lam1():
    return first_eigenvalue(1, 1, 1.0).lambda1


@pytest.fixture(scope="module")
def saturating_branch(lam1):
    spec = ProblemSpec(N=1, k=1, R=1.0, f=NonlinearitySpec("saturating"))
    return trace_branch(spec, 1e-2, 1e2, 17, lambda_scale=lam1)


@pytest.fixture(scope="module")
def gelfand_branch(lam1):
    # f0 = finf = Infinite: single interior maximum expected
    spec = ProblemSpec(
        N=1, k=1, R=1.0,
        f=NonlinearitySpec("sum_of_powers", {"p": 0.5, "q": 2.0, "c": 1.0}),
    )
    return trace_branch(spec, 1e-2, 1e2, 17, lambda_scale=lam1)


class TestDetectFolds:
    def test_flat_branch_no_folds(self):
        assert detect_folds(synthetic([2.4674] * 20)) == []

    def test_noise_below_plateau_tolerance_ignored(self):
        rng = np.random.default_rng(3)
        lams = 5.0 + 5e-7 * rng.standard_normal(24)
        assert detect_folds(synthetic(list(lams))) == []

    def test_single_max(self):
        br = synthetic([1.0, 2.0, 5.0, 3.0, 2.0, 1.0])
        folds = detect_folds(br)
        assert len(folds) == 1
        assert folds[0].kind == "max"
        assert folds[0].index == 2
        assert folds[0].lam == 5.0

    def test_max_then_min(self):
        br = synthetic([1.0, 4.0, 2.0, 1.0, 3.0, 6.0])
        folds = detect_folds(br)
        assert [(f.kind, f.index) for f in folds] == [("max", 1), ("min", 3)]

    def test_endpoints_never_folds(self):
        br = synthetic([5.0, 4.0, 3.0, 2.0, 1.0])
        assert detect_folds(br) == []


class TestCountSolutions:
    def test_flat_branch(self):
        br = synthetic([2.0] * 16)
        assert count_solutions(br, 1.0) == 0
        assert count_solutions(br, 3.0) == 0

    def test_single_max_profile(self):
        br = synthetic([0.1, 0.5, 2.0, 4.0, 2.0, 0.5, 0.1])
        assert count_solutions(br, 2.0 * 0.5) == 2
        assert count_solutions(br, 4.0 * 2.0) == 0

    def test_at_fold_signalled(self):
        br = synthetic([0.1, 0.5, 2.0, 4.0, 2.0, 0.5, 0.1])
        with pytest.raises(AtFoldError) as err:
            count_solutions(br, 4.0)
        assert (err.value.lam, err.value.fold_lambda) == (4.0, 4.0)

    def test_amplitude_interpolation(self):
        # lambda = d on a two-point branch: crossing at the geometric scale
        br = Branch(points=[
            BranchPoint(d=1.0, lam=1.0, admissible=True),
            BranchPoint(d=100.0, lam=100.0, admissible=True),
        ])
        amps = solution_amplitudes(br, 10.0)
        assert len(amps) == 1
        assert 1.0 < amps[0] < 100.0

    def test_gap_segments_not_bridged(self):
        br = synthetic([1.0, 2.0, 3.0, 3.0, 2.0, 1.0])
        br.gaps = [math.sqrt(br.points[2].d * br.points[3].d)]
        # without the gap this line crosses twice; segments see one each side
        assert count_solutions(br, 1.5) == 2
        assert br.segments() == [(0, 3), (3, 6)]


class TestPredictedInterval:
    def test_finite_zero(self):
        p = predicted_interval(LimitClass.finite(1.0), LimitClass.zero(), LAM_COS)
        assert p.lam_lo == pytest.approx(LAM_COS)
        assert p.lam_hi == math.inf
        assert p.profile == AT_LEAST_ONE

    def test_infinite_zero(self):
        p = predicted_interval(LimitClass.infinite(), LimitClass.zero(), 7.0)
        assert (p.lam_lo, p.lam_hi) == (0.0, math.inf)

    def test_finite_infinite_endpoint(self):
        p = predicted_interval(LimitClass.finite(2.0), LimitClass.infinite(), 2.467401)
        assert p.lam_lo == 0.0
        assert p.lam_hi == pytest.approx(1.2337005)

    def test_finite_finite_ordered(self):
        p = predicted_interval(LimitClass.finite(1.0), LimitClass.finite(4.0), 8.0)
        assert p.lam_lo == pytest.approx(2.0)
        assert p.lam_hi == pytest.approx(8.0)

    def test_diagonals_fold_driven(self):
        p = predicted_interval(LimitClass.infinite(), LimitClass.infinite(), 1.0)
        assert p.profile == TWO_BELOW_MAX_FOLD and p.fold_driven
        p = predicted_interval(LimitClass.zero(), LimitClass.zero(), 1.0)
        assert p.profile == TWO_ABOVE_MIN_FOLD and p.fold_driven

    def test_equal_finite_out_of_table(self):
        with pytest.raises(OutOfTableError):
            predicted_interval(LimitClass.finite(1.0), LimitClass.finite(1.0), 1.0)


class TestAsymptotes:
    def test_geometric_approach_finite(self):
        # lambda(d) = 2 + 3 d^0.7 toward d -> 0 on a log grid
        lams = [2.0 + 3.0 * (1e-3 * 10.0 ** (6 * i / 15.0)) ** 0.7 for i in range(16)]
        br = synthetic(lams)
        at_zero, at_inf = asymptote_estimates(br)
        assert at_zero.kind == "finite"
        assert at_zero.value == pytest.approx(2.0, rel=1e-3)
        assert at_inf.kind == "infinite"

    def test_power_decay_to_zero(self):
        lams = [5.0 * (1e-3 * 10.0 ** (6 * i / 15.0)) ** -0.5 for i in range(16)]
        br = synthetic(lams)
        at_zero, at_inf = asymptote_estimates(br)
        assert at_zero.kind == "infinite"
        assert at_inf.kind == "zero"

    def test_short_span_rejected(self):
        br = synthetic([1.0] * 16, decades=2.0)
        with pytest.raises(InvalidInputError):
            asymptote_estimates(br)


class TestTraceBranch:
    def test_linear_flat(self, lam1):
        spec = ProblemSpec(N=1, k=1, R=1.0, f=NonlinearitySpec("linear"))
        br = trace_branch(spec, 1e-3, 1e3, 16, lambda_scale=lam1)
        lams = np.array(br.lam_values())
        assert np.max(np.abs(lams - lam1)) < 1e-6
        assert br.folds == []
        assert br.lambda_at_zero.kind == "finite"
        assert br.lambda_at_zero.value == pytest.approx(lam1, rel=1e-6)
        assert br.lambda_at_infinity.value == pytest.approx(lam1, rel=1e-6)
        assert all(p.admissible for p in br.points)
        assert all(abs(shoot_boundary_value(spec, p.lam, p.d)) < 1e-7 for p in br.points)

    def test_saturating_increasing_from_lambda1(self, lam1, saturating_branch):
        br = saturating_branch
        lams = br.lam_values()
        assert all(b > a for a, b in zip(lams, lams[1:]))
        assert br.lambda_at_zero.kind == "finite"
        assert br.lambda_at_zero.value == pytest.approx(lam1, rel=1e-3)
        assert br.lambda_at_infinity.kind == "infinite"
        assert br.folds == []

    def test_gelfand_type_single_max(self, gelfand_branch):
        folds = gelfand_branch.folds
        assert [f.kind for f in folds] == ["max"]
        assert gelfand_branch.lambda_at_zero.kind == "zero"
        assert gelfand_branch.lambda_at_infinity.kind == "zero"

    def test_fold_counts(self, gelfand_branch):
        lam_star = gelfand_branch.folds[0].lam
        assert count_solutions(gelfand_branch, 0.5 * lam_star) == 2
        assert count_solutions(gelfand_branch, 2.0 * lam_star) == 0

    def test_finite_limit_asymptotes_over_registry(self, lam1):
        # lambda_at_zero -> lambda1/f0 within 1e-3, lambda_at_infinity ->
        # lambda1/finf within 1e-2, for every registry entry with finite limits
        from hessbif.core import registry

        for name, f in registry().items():
            if not (f.declared_f0.is_finite or f.declared_finf.is_finite):
                continue
            spec = ProblemSpec(N=1, k=1, R=1.0, f=f)
            br = trace_branch(spec, 1e-2, 1e2, 17, lambda_scale=lam1)
            if f.declared_f0.is_finite:
                want = lam1 / f.declared_f0.value
                assert br.lambda_at_zero.kind == "finite", name
                assert abs(br.lambda_at_zero.value - want) <= 1e-3 * want, name
            if f.declared_finf.is_finite:
                want = lam1 / f.declared_finf.value
                assert br.lambda_at_infinity.kind == "finite", name
                assert abs(br.lambda_at_infinity.value - want) <= 1e-2 * want, name

    def test_tracing_failure_on_systematic_gaps(self, monkeypatch, lam1):
        import hessbif.branch as branch_mod

        monkeypatch.setattr(branch_mod, "_solve_point",
                            lambda *args, **kwargs: [])
        spec = ProblemSpec(N=1, k=1, R=1.0, f=NonlinearitySpec("linear"))
        with pytest.raises(TracingFailureError):
            trace_branch(spec, 1e-2, 1e2, 16, lambda_scale=lam1)

    def test_supercritical_power_fails(self):
        # p = 7 > 5 on the 3-ball: no amplitude has a Dirichlet solution
        spec = ProblemSpec(N=3, k=1, R=1.0, f=NonlinearitySpec("power", {"p": 7.0}))
        with pytest.raises(TracingFailureError,
                           match=r"^16/16 amplitudes have no lambda root; resolved fewer than 4 points$"):
            trace_branch(spec, 1e-2, 1e2, 16)

    def test_one_ivp_per_point(self, monkeypatch, ivps):
        # one IVP to the first zero of u per point, which gives lambda(d) and the
        # admissibility flag; fold polish adds one per Brent solve (at most 8 for the
        # fold) and keeps only the apex; no fixed-R shot is made
        import hessbif.branch as branch_mod

        spec = ProblemSpec(N=2, k=2, R=1.13, f=NonlinearitySpec("log_bump"))
        lam1 = first_eigenvalue(2, 2, 1.13).lambda1
        solves, polish = [], []
        real_solve = branch_mod._solve_point
        real_polish = branch_mod._polish_folds

        def solving(*args):
            solves.append(1)
            return real_solve(*args)

        def polishing(branch, *args):
            polish.append((len(ivps), len(solves), len(branch.points)))
            real_polish(branch, *args)
            polish.append((len(ivps), len(solves), len(branch.points)))

        monkeypatch.setattr(branch_mod, "_solve_point", solving)
        monkeypatch.setattr(branch_mod, "_polish_folds", polishing)
        ivps.clear()
        br = trace_branch(spec, 1e-2, 1e2, 25, lambda_scale=lam1)
        calls = [ivp.kwargs.get("root_tol") for ivp in ivps]
        assert [f.kind for f in br.folds] == ["min"] and not br.gaps
        (ivps_0, solves_0, points_0), (ivps_1, solves_1, points_1) = polish
        assert ivps_0 == solves_0 == points_0
        assert points_1 == len(br.points) == points_0 + 1
        assert 0 < solves_1 - solves_0 <= 8
        assert len(calls) == ivps_1 == points_0 + (solves_1 - solves_0)
        assert calls == [TOL] * len(calls)

    @pytest.mark.parametrize("f,N,k", [
        (NonlinearitySpec("log_bump"), 2, 2),
        (NonlinearitySpec("sum_of_powers", {"p": 0.5, "q": 2.0, "c": 1.0}), 2, 1),
    ], ids=["log_bump-N2k2", "sum_of_powers-N2k1"])
    def test_fold_values_match_a_tight_trace(self, f, N, k):
        # the polished apex is a converged fold value, not one off by the search's
        # width: a pure golden-section search to 2e-3 in ln d missed by 1.6e-9 here.
        # The reference is the tight trace's fold and, independently of how that was
        # polished, the vertex of the parabola through tight solves at its ln d +- 1e-3
        spec = ProblemSpec(N=N, k=k, R=1.13, f=f)
        tight = 1e-13
        lam1 = first_eigenvalue(N, k, 1.13, tight).lambda1
        [fold] = trace_branch(spec, 1e-2, 1e2, 25).folds
        ref = trace_branch(spec, 1e-2, 1e2, 25, tight, lambda_scale=lam1)
        [want] = ref.folds
        x = math.log(ref.points[want.index].d)
        lo, mid, hi = (_solve_point(spec, math.exp(x + h), tight, lam1).lam
                       for h in (-1e-3, 0.0, 1e-3))
        vertex = mid - (hi - lo) ** 2 / (8.0 * (hi - 2.0 * mid + lo))
        assert fold.kind == want.kind
        assert fold.lam == pytest.approx(want.lam, rel=1e-9, abs=0.0)
        assert fold.lam == pytest.approx(vertex, rel=1e-9, abs=0.0)

    def test_power_branch_admissible(self):
        spec = ProblemSpec(N=3, k=2, R=1.13, f=NonlinearitySpec("power", {"p": 2.0}))
        br = trace_branch(spec, 1e-2, 1e2, 25)
        assert all(p.admissible for p in br.points)

    def test_input_validation(self, lam1):
        spec = ProblemSpec(N=1, k=1, R=1.0, f=NonlinearitySpec("linear"))
        with pytest.raises(InvalidInputError):
            trace_branch(spec, 1.0, 0.1, 16, lambda_scale=lam1)
        with pytest.raises(InvalidInputError):
            trace_branch(spec, 0.1, 1.0, 8, lambda_scale=lam1)


class TestLogGrid:
    @pytest.mark.parametrize("d_min,d_max,n", [(1e-2, 1e2, 16), (1e-2, 1e2, 25),
                                               (0.1, 40.0, 9), (3.0, 3.5, 2), (1e-8, 1e8, 101)])
    def test_pinned_ends_and_one_ratio(self, d_min, d_max, n):
        grid = log_grid(d_min, d_max, n)
        assert len(grid) == n
        assert grid[0] == d_min and grid[-1] == d_max
        ratio = (d_max / d_min) ** (1.0 / (n - 1))
        for a, b in zip(grid, grid[1:]):
            assert b / a == pytest.approx(ratio, rel=1e-12)

    @pytest.mark.parametrize("d_min,d_max,n", [(1.0, 0.1, 16), (0.0, 1.0, 16),
                                               (-1.0, 1.0, 16), (0.1, 1.0, 1),
                                               (1.0, math.inf, 16), (math.nan, 1.0, 16)])
    def test_invalid(self, d_min, d_max, n):
        with pytest.raises(InvalidInputError):
            log_grid(d_min, d_max, n)


class TestReferenceLambda:
    @pytest.mark.parametrize("d,f_d", [(1e200, math.inf), (1e-200, 0.0), (1e300, 1e-10),
                                       (1.0, math.nan)],
                             ids=["f-overflow", "f-underflow", "quotient-overflow", "f-nan"])
    def test_unusable_is_a_numerical_failure(self, d, f_d):
        with pytest.raises(NumericalFailureError,
                           match=re.escape(f"amplitude {d!r}: f(d) = {f_d!r}")):
            reference_lambda(10.0, d, f_d, "f(d)")

    def test_usable_is_the_quotient(self):
        assert reference_lambda(10.0, 3.0, 7.0, "f(d)") == 10.0 * 3.0 / 7.0


def _scalar_trace(monkeypatch, n_points, drop):
    """(base amplitudes, d of every point, seed flags, gaps) with amplitude drop made a gap.

    The base amplitudes are log_grid's, so the seed check pins trace_branch to it bit for bit.
    """
    import hessbif.branch as branch_mod

    grid = log_grid(1e-2, 1e2, n_points)
    solve = branch_mod._solve_point
    monkeypatch.setattr(branch_mod, "_solve_point",
                        lambda spec, d, *rest: None if d == grid[drop] else solve(spec, d, *rest))
    spec = ProblemSpec(N=1, k=1, R=1.0,
                       f=NonlinearitySpec("sum_of_powers", {"p": 0.5, "q": 2.0, "c": 1.0}))
    br = trace_branch(spec, 1e-2, 1e2, n_points)
    return (grid, [p.d for p in br.points], [p.seed for p in br.points], br.gaps)


def _system_trace(monkeypatch, n_points, drop):
    """As _scalar_trace for a coupled branch; its base amplitudes are d_u = d / 2."""
    import hessbif.system as system_mod

    grid = [float(d) for d in np.geomspace(1e-2, 1e2, n_points)]
    solve = system_mod.solve_system_shooting

    def dropping(spec, d_u, *rest, **kwargs):
        if d_u == 0.5 * grid[drop]:
            raise NumericalFailureError("injected gap")
        return solve(spec, d_u, *rest, **kwargs)

    monkeypatch.setattr(system_mod, "solve_system_shooting", dropping)
    spec = SystemSpec(N=1, k=1, R=1.0, g=NonlinearitySpec2("superlinear_t"),
                      h=NonlinearitySpec2("superlinear_s"))
    sb = trace_system_branch(spec, grid)
    return ([0.5 * d for d in grid], [p.d_u for p in sb.points],
            [p.seed for p in sb.points], [0.5 * g for g in sb.gaps])


def _gap_trace(monkeypatch, kind, dropped):
    """Gaps of a saturating branch, scalar or coupled, over log_grid(1e-2, 1e2, 16) with the
    base amplitudes at the indices dropped made gaps."""
    grid = log_grid(1e-2, 1e2, 16)
    gaps = {grid[i] for i in dropped}
    if kind == "scalar":
        import hessbif.branch as branch_mod

        solve = branch_mod._solve_point
        monkeypatch.setattr(branch_mod, "_solve_point",
                            lambda spec, d, *rest: None if d in gaps else solve(spec, d, *rest))
        spec = ProblemSpec(N=1, k=1, R=1.0, f=NonlinearitySpec("saturating"))
        return trace_branch(spec, 1e-2, 1e2, 16).gaps
    import hessbif.system as system_mod

    solve = system_mod.solve_system_shooting

    def dropping(spec, d_u, *rest):
        if 2.0 * d_u in gaps:
            raise NumericalFailureError("injected gap")
        return solve(spec, d_u, *rest)

    monkeypatch.setattr(system_mod, "solve_system_shooting", dropping)
    spec = SystemSpec(N=1, k=1, R=1.0, g=NonlinearitySpec2("saturating_t"),
                      h=NonlinearitySpec2("saturating_s"))
    return trace_system_branch(spec, grid).gaps


@pytest.mark.parametrize("kind", ["scalar", "system"])
def test_one_gap_rule_for_both_tracers(monkeypatch, kind):
    # 1 gap of 16 (6.25%) traces; 2 of 16 (12.5%) exceed the 10% limit
    with monkeypatch.context() as m:
        assert _gap_trace(m, kind, [5]) == [log_grid(1e-2, 1e2, 16)[5]]
    with pytest.raises(TracingFailureError, match=r"^2/16 amplitudes have no lambda root$"):
        _gap_trace(monkeypatch, kind, [5, 9])


# (kind, N, k) at R = 1.13: N = k puts a long last step before R
ADMISSIBILITY_CASES = [("log_bump", 3, 2), ("log_bump", 5, 2), ("log_bump", 3, 3),
                       ("saturating", 2, 1), ("square", 3, 2),
                       ("quadratic_over_linear", 1, 1)]


@pytest.fixture(scope="module", params=ADMISSIBILITY_CASES,
                ids=["{}-N{}k{}".format(*c) for c in ADMISSIBILITY_CASES])
def registry_branch(request):
    kind, N, k = request.param
    spec = ProblemSpec(N=N, k=k, R=1.13, f=registry()[kind])
    return spec, trace_branch(spec, 1e-2, 1e2, 25)


def _cone_flag(rhs, trajectory):
    """The cone test of trajectory_admissible with each slope recomputed as rhs(r, y)."""
    return all(y[i] > 0.0 and rhs(r, y)[i] > 0.0
               for r, y, _ in trajectory[1:-1] for i in range(1, len(y), 2))


FLAG_TRACES = {
    "log_bump-N3k2": lambda: trace_branch(
        ProblemSpec(N=3, k=2, R=1.13, f=registry()["log_bump"]), 1e-2, 1e2, 16),
    "saturating-N2k1": lambda: trace_branch(
        ProblemSpec(N=2, k=1, R=1.13, f=registry()["saturating"]), 1e-2, 1e2, 16),
    "powermix-pair-N2k1": lambda: trace_system_branch(
        SystemSpec(N=2, k=1, R=1.13, g=NonlinearitySpec2("powermix_t"),
                   h=NonlinearitySpec2("powermix_s")), np.geomspace(1e-2, 1e2, 16)),
    "saturating-pair-N2k2": lambda: trace_system_branch(
        SystemSpec(N=2, k=2, R=1.13, g=NonlinearitySpec2("saturating_t"),
                   h=NonlinearitySpec2("saturating_s")), np.geomspace(1e-2, 1e2, 16)),
}


class TestAdmissibility:
    def test_flags_match_grid_profiles(self, registry_branch):
        spec, br = registry_branch
        assert [p.admissible for p in br.points] == [
            profile_admissible(integrate_profile(spec, p.lam, p.d, grid_points=256),
                               spec.N, spec.k)
            for p in br.points]

    @pytest.mark.parametrize("N,d", [(3, 1.0), (5, 6.81)])
    def test_log_bump_points_next_to_the_boundary(self, N, d):
        # The accepted state before R = 1.13 lies 8.5e-8 (N = 3) and 5.5e-6
        # (N = 5) from R.  S_2 from the flux-form u'' cancels there to 0.0 and
        # -2.8e-14, so a cone test on u'' that drops only the last state fails.
        spec = ProblemSpec(N=N, k=2, R=1.13, f=NonlinearitySpec("log_bump"))
        br = trace_branch(spec, 1e-2, 1e2, 25)
        picked = [p for p in br.points if p.d == pytest.approx(d, rel=1e-3)]
        assert [(p.seed, p.admissible) for p in picked] == [(True, True)]

    def test_overshoot_is_inadmissible(self, registry_branch):
        # lambda 5% above the root: u crosses zero at R / sqrt(1.05), past which
        # the forcing is off (m' = 0), so the grid check fails; a fixed-R shot's
        # trajectory fails wherever an accepted state lies past the crossing,
        # i.e. unless the crossing falls inside the last step
        spec, br = registry_branch
        r_star = spec.R / math.sqrt(1.05)
        flags = []
        for p in br.points[::3]:
            lam = 1.05 * p.lam
            states = []
            res = flux_ivp(spec.N, spec.k, spec.R, lam, spec.f, (p.d,), TOL,
                           spec.R, trajectory=states)[0]
            admissible = trajectory_admissible(states)
            assert admissible == _cone_flag(flux_kernel(spec.N, spec.k, lam, spec.f)[2], states)
            assert res.y[0] > 0.0
            assert not profile_admissible(integrate_profile(spec, lam, p.d, grid_points=256),
                                          spec.N, spec.k)
            assert admissible == (states[-2][0] < r_star)
            flags.append(admissible)
        assert flags.count(False) > len(flags) / 2

    @pytest.mark.parametrize("name", sorted(FLAG_TRACES))
    def test_flags_read_the_recorded_slopes(self, monkeypatch, ivps, name):
        # every flag of a trace equals the cone test on slopes recomputed by rhs(r, y), yet
        # the trace calls rhs only for the first stage of each step, once per state stepped
        # from: n_steps calls per IVP, which RKResult.n_rhs counts
        import hessbif.branch as branch_mod
        import hessbif.rk as rk
        import hessbif.system as system_mod

        calls, flagged = [], []
        bind_slope, flag = rk.slope_function, trajectory_admissible

        def counting(n, slope):
            bind = bind_slope(n, slope)

            def counted_bind(inputs):
                rhs = bind(inputs)

                def counted(t, y):
                    calls.append(t)
                    return rhs(t, y)
                return counted
            return counted_bind

        def recording(trajectory):
            flagged.append((trajectory, flag(trajectory)))
            return flagged[-1][1]

        monkeypatch.setattr(rk, "slope_function", counting)
        monkeypatch.setattr(branch_mod, "trajectory_admissible", recording)
        monkeypatch.setattr(system_mod, "trajectory_admissible", recording)
        br = FLAG_TRACES[name]()
        assert br.gaps == [] and len(flagged) >= len(br.points)
        assert len(calls) == sum(ivp.result.n_steps for ivp in ivps)
        assert all(ivp.result.n_steps < ivp.result.n_rhs for ivp in ivps)
        rhs_of = {id(ivp.kwargs["trajectory"]): ivp.args[0] for ivp in ivps
                  if ivp.kwargs.get("trajectory") is not None}
        assert [admissible for _, admissible in flagged] == [
            _cone_flag(rhs_of[id(trajectory)], trajectory) for trajectory, _ in flagged]

    @pytest.mark.parametrize("kind", ["scalar", "system"])
    def test_traces_integrate_on_no_output_grid(self, monkeypatch, ivps, kind):
        # every branch-point IVP is grid-free; the one gridded IVP is first_eigenvalue's
        # fixed-lambda1 run, read at R sqrt(1 - w) and R
        import hessbif.branch as branch_mod
        import hessbif.system as system_mod

        eigen_ivps = []

        def recording(*args):
            start = len(ivps)
            res = first_eigenvalue(*args)
            eigen_ivps.extend(ivps[start:])
            return res

        monkeypatch.setattr(branch_mod if kind == "scalar" else system_mod,
                            "first_eigenvalue", recording)
        if kind == "scalar":
            spec = ProblemSpec(N=2, k=2, R=1.13, f=NonlinearitySpec("log_bump"))
            trace_branch(spec, 1e-2, 1e2, 16)
        else:
            spec = SystemSpec(N=2, k=1, R=1.0, g=NonlinearitySpec2("saturating_t"),
                              h=NonlinearitySpec2("saturating_s"))
            trace_system_branch(spec, np.geomspace(1e-2, 1e2, 16))
        gridded = [ivp for ivp in ivps
                   if len(ivp.args) > 6 or ivp.kwargs.get("output_ts") is not None]
        assert len(ivps) > len(eigen_ivps) == 2
        assert len(gridded) == 1 and gridded[0] is eigen_ivps[1]
        w = eigen_rel_tol(TOL)
        assert gridded[0].kwargs["output_ts"] == (spec.R * math.sqrt(1.0 - w), spec.R)


def _refine(lam_of_d, grid, declines=lambda a, b: False):
    """refine_jumps on exact samples of lam_of_d: (points, amplitudes of midpoint calls)."""
    def point(d, seed):
        return BranchPoint(d=d, lam=lam_of_d(d), admissible=True, seed=seed)

    calls = []

    def midpoint(a, b):
        calls.append((a.d, b.d))
        return None if declines(a, b) else point(math.sqrt(a.d * b.d), False)

    return refine_jumps([point(d, True) for d in grid], midpoint), calls


def _kink(d):
    return min(d, 1.0 / d)   # log-log slopes +1 and -1 meet at d = 1


def _fold(d):
    return 1.0 / (d + 1.0 / d)   # smooth maximum at d = 1


class TestRefineJumps:
    def test_depth_limit_and_declined_midpoints(self):
        grid = [10.0**e for e in (-2, -1, 0, 1, 2)]
        out, _ = _refine(_kink, grid)
        # the two intervals at the kink stay bent at every level, so only the depth cap
        # stops them; the power-law flanks are left alone
        logs = [math.log10(p.d) for p in out]
        assert logs == pytest.approx([-2, -1, -0.5, -0.25, -0.125, 0, 0.125, 0.25, 0.5, 1, 2],
                                     abs=1e-12)
        assert min(b - a for a, b in zip(logs, logs[1:])) == pytest.approx(
            1.0 / 2**MAX_REFINE_DEPTH)
        assert [p.seed for p in out] == [True, True] + [False] * 3 + [True] + [False] * 3 + [True, True]

        base = [BranchPoint(d=d, lam=_kink(d), admissible=True) for d in grid]
        assert refine_jumps(base, lambda a, b: None) == base
        # a declined interval is asked once, although its right neighbor's split
        # sends the scan back over it
        out, calls = _refine(_kink, grid, declines=lambda a, b: b.d == 1.0)
        assert calls.count((0.1, 1.0)) == 1
        assert all(p.d > 1.0 for p in out if not p.seed)

    def test_power_law_gets_no_insertions(self):
        out, calls = _refine(lambda d: 3.0 * d**-1.7, log_grid(1e-2, 1e2, 25))
        assert calls == [] and len(out) == 25
        spec = ProblemSpec(N=3, k=2, R=1.21, f=NonlinearitySpec("power", {"p": 2.0}))
        br = trace_branch(spec, 1e-2, 1e2, 25)
        assert len(br.points) == 25 and all(p.seed for p in br.points)

    def test_no_bend_is_left_above_the_depth_cap(self):
        # kinks at log10 d = 1, 1.5 and 2: splitting [10, 100] changes the neighbor
        # slope of [1, 10], which must then be examined again
        def lam_of_d(d):
            return 10.0 ** float(np.interp(math.log10(d), [0, 1, 1.5, 2, 3], [0, 1, 1, 2, 5]))

        out, _ = _refine(lam_of_d, [1.0, 10.0, 100.0, 1e3])
        steps = [(math.log(b.d / a.d), math.log(b.lam / a.lam)) for a, b in zip(out, out[1:])]
        finest = math.log(10.0) / 2**MAX_REFINE_DEPTH
        for i, (dx, dy) in enumerate(steps):
            if dx > 1.5 * finest:
                for nx, ny in steps[max(i - 1, 0):i] + steps[i + 1:i + 2]:
                    assert abs(dy - ny / nx * dx) <= math.log1p(JUMP_REL)

    @pytest.mark.parametrize("lam_of_d", [_fold, _kink], ids=["fold", "kink"])
    def test_interval_straddling_a_fold_or_kink_is_split(self, lam_of_d):
        grid = log_grid(1e-2, 1e2, 8)   # d = 1 lies inside the middle interval
        out, _ = _refine(lam_of_d, grid)
        assert any(grid[3] < p.d < grid[4] for p in out)
        # the outermost intervals are straight in log-log and stay whole
        assert [p.d for p in out[:2]] == grid[:2] and [p.d for p in out[-2:]] == grid[-2:]

    @pytest.mark.parametrize("trace", [_scalar_trace, _system_trace],
                             ids=["scalar", "system"])
    def test_seed_flags_mark_the_base_grid(self, monkeypatch, trace):
        n_points, drop = 16, 5
        grid, keys, seeds, gaps = trace(monkeypatch, n_points, drop)
        assert gaps == [grid[drop]]
        assert sum(seeds) == n_points - len(gaps)
        assert [x for x, seed in zip(keys, seeds) if seed] == grid[:drop] + grid[drop + 1:]
        inserted = [x for x, seed in zip(keys, seeds) if not seed]
        assert inserted  # fold polish (scalar) or bend refinement next to the gap (system) ran
        assert not set(inserted) & set(grid)


def _parabola_branch(kind, vertex):
    """Exact samples of lambda = 2 -/+ (ln d - vertex)^2 at ln d = 0.4 i, |i| <= 5."""
    sign = 1.0 if kind == "max" else -1.0

    def lam_of_d(d):
        return 2.0 - sign * (math.log(d) - vertex) ** 2

    ds = [math.exp(0.4 * i) for i in range(-5, 6)]
    return Branch(points=[BranchPoint(d=d, lam=lam_of_d(d), admissible=True) for d in ds]), lam_of_d


class TestPolishFolds:
    """_polish_folds on a synthetic branch, counting the stub solver's calls."""

    @staticmethod
    def _polish(branch, answer):
        calls = []

        def solve(d, near):
            calls.append((d, near))
            lam = answer(d, len(calls))
            return None if lam is None else BranchPoint(d=d, lam=lam, admissible=True, seed=False)

        before = list(branch.points)
        _polish_folds(branch, solve)
        return before, [p for p in branch.points if not any(p is q for q in before)], calls

    @pytest.mark.parametrize("kind", ["max", "min"])
    @pytest.mark.parametrize("vertex", [0.13, -0.05])
    def test_apex_found_within_the_bracket(self, kind, vertex):
        branch, lam_of_d = _parabola_branch(kind, vertex)
        [fold] = detect_folds(branch)
        assert fold.kind == kind
        before, [apex], calls = self._polish(branch, lambda d, n: lam_of_d(d))
        assert abs(math.log(apex.d) - vertex) <= 1e-4
        assert len(calls) <= 8
        left, right = before[fold.index - 1], before[fold.index + 1]
        assert all(near[0] is left and near[1] is right and left.d < d < right.d
                   for d, near in calls)
        [polished] = detect_folds(branch)
        assert branch.points[polished.index] is apex and len(branch.points) == len(before) + 1

    def test_gap_ends_the_search_and_keeps_the_best_point(self):
        branch, _ = _parabola_branch("max", 0.13)
        grid_lam = max(p.lam for p in branch.points)
        before, added, calls = self._polish(branch, lambda d, n: grid_lam + 0.5 if n == 1 else None)
        assert len(calls) == 2
        assert [(p.d, p.lam) for p in added] == [(calls[0][0], grid_lam + 0.5)]

    @pytest.mark.parametrize("offset", [0.0, 1.0], ids=["ties", "worse"])
    def test_no_point_when_no_solve_beats_the_grid_point(self, offset):
        branch, _ = _parabola_branch("min", 0.13)
        grid_lam = min(p.lam for p in branch.points)
        before, added, calls = self._polish(branch, lambda d, n: grid_lam + offset)
        assert calls and added == [] and branch.points == before


class TestRegridding:
    """Bend refinement must not lose what a denser base grid sees."""

    @pytest.mark.parametrize("kind, params, N, k, R", [
        ("log_bump", {}, 2, 2, 1.13),
        ("sum_of_powers", {"p": 0.5, "q": 2.0, "c": 1.0}, 2, 1, 0.87),
    ], ids=["log_bump-N2k2", "sum_of_powers-N2k1"])
    def test_folds_survive_a_finer_base_grid(self, kind, params, N, k, R):
        spec = ProblemSpec(N=N, k=k, R=R, f=NonlinearitySpec(kind, params))
        coarse, fine = (trace_branch(spec, 1e-2, 1e2, n).folds for n in (25, 33))
        assert len(coarse) == 1
        assert [f.kind for f in coarse] == [f.kind for f in fine]
        for a, b in zip(coarse, fine):
            assert a.lam == pytest.approx(b.lam, rel=1e-6)

    @pytest.mark.parametrize("kind, N, k", [("saturating", 2, 1), ("square", 3, 2),
                                            ("log_bump", 2, 2)],
                             ids=["saturating-N2k1", "square-N3k2", "log_bump-N2k2"])
    def test_solution_counts_match_a_dense_branch(self, kind, N, k):
        spec = ProblemSpec(N=N, k=k, R=1.13, f=registry()[kind])
        coarse, dense = (trace_branch(spec, 1e-2, 1e2, n) for n in (25, 97))
        lams = dense.lam_values()
        lo, hi = min(lams), max(lams)
        folds = [f.lam for f in coarse.folds + dense.folds]
        samples = [lo * (hi / lo) ** (i / 200) for i in range(1, 200)]
        away = [lam for lam in samples if all(abs(lam - f) > 1e-2 * f for f in folds)]
        assert len(away) > 150
        assert ([count_solutions(coarse, lam) for lam in away]
                == [count_solutions(dense, lam) for lam in away])


class TestVerifyPredictions:
    def test_saturating_report_passes(self, lam1, saturating_branch):
        f = NonlinearitySpec("saturating")
        pred = predicted_interval(f.declared_f0, f.declared_finf, lam1)
        rep = verify_predictions(saturating_branch, pred)
        assert rep.passed
        names = [c.name for c in rep.checks]
        assert any("existence at" in n for n in names)
        assert any("bifurcation point" in n for n in names)

    def test_gelfand_report_passes(self, lam1, gelfand_branch):
        f = NonlinearitySpec("sum_of_powers", {"p": 0.5, "q": 2.0, "c": 1.0})
        pred = predicted_interval(f.declared_f0, f.declared_finf, lam1)
        rep = verify_predictions(gelfand_branch, pred)
        assert rep.passed
        assert any("radial lambda*" in n for n in rep.notes)

    def test_report_records_failures(self, lam1, saturating_branch):
        # wrong prediction: pretend the branch should exist below lambda1
        wrong = predicted_interval(LimitClass.finite(100.0), LimitClass.zero(), lam1)
        rep = verify_predictions(saturating_branch, wrong)
        assert not rep.passed

    def test_nonpositive_samples_invalid(self, lam1, saturating_branch):
        f = NonlinearitySpec("saturating")
        pred = predicted_interval(f.declared_f0, f.declared_finf, lam1)
        for n in (0, -3):
            with pytest.raises(InvalidInputError, match="lambda_samples"):
                verify_predictions(saturating_branch, pred, n)

    def test_report_json_schema(self, lam1, saturating_branch):
        f = NonlinearitySpec("saturating")
        pred = predicted_interval(f.declared_f0, f.declared_finf, lam1)
        rep = verify_predictions(saturating_branch, pred)
        obj = rep.to_json()
        assert obj["schema_version"] == 1
        assert isinstance(obj["pass"], bool)
        for c in obj["checks"]:
            assert set(c) == {"name", "predicted", "observed", "pass", "tol"}
        assert any("radial" in n for n in obj["notes"])


SQUARE_N3K2 = ProblemSpec(N=3, k=2, R=1.13, f=NonlinearitySpec("power", {"p": 2.0}))


@pytest.fixture(scope="module")
def square_branch():
    # lambda = lambda(1) / d exactly, so d = 1 (row 12 of 25) is the geometric middle of the
    # traced lambdas, and the middle of 5 samples lands on its vertex to rounding
    return trace_branch(SQUARE_N3K2, 1e-2, 1e2, 25)


def _certificates(rep):
    return [c for c in rep.checks if c.name.startswith("certificate")]


class TestCertificates:
    @pytest.mark.parametrize("kind, params, n_certs", [
        ("saturating", {}, 5),
        ("sum_of_powers", {"p": 0.5, "q": 2.0, "c": 1.0}, 2),
        ("log_bump", {}, 2),
    ])
    def test_two_fixed_r_shots_per_crossing(self, ivps, lam1, kind, params, n_certs):
        spec = ProblemSpec(N=1, k=1, R=1.0, f=NonlinearitySpec(kind, params))
        br = trace_branch(spec, 1e-2, 1e2, 17, lambda_scale=lam1)
        pred = predicted_interval(spec.f.declared_f0, spec.f.declared_finf, lam1)
        ivps.clear()
        calls = ivps
        assert verify_predictions(br, pred).passed and calls == []
        rep = verify_predictions(br, pred, spec=spec)
        calls = [(ivp.args[3], ivp.kwargs.get("root_tol")) for ivp in ivps]
        assert rep.passed
        certs = _certificates(rep)
        # one per crossing behind each "count >= 1" and each "count = 2"
        counted = [int(c.observed.split()[-1]) for c in rep.checks
                   if c.predicted in ("count >= 1", "count = 2")]
        assert len(certs) == sum(counted) == n_certs
        assert all(c.observed.startswith("sign change") for c in certs)
        assert calls == [(spec.R, None)] * (2 * n_certs)
        assert any(n.startswith("certificates:") for n in rep.notes)

    def test_wrong_lambda_fails_its_certificate(self, square_branch):
        # One sample at 3e-7 above the vertex lambda at d = 1 crosses the polyline
        # left of that vertex.  Raising the vertex lambda by 1e-6 moves the crossing to
        # its right, where u(R) keeps its sign: the count still reads 1, the
        # certificate fails, and so does the report.
        br, j = square_branch, 12
        assert br.points[j].d == pytest.approx(1.0) and not br.folds
        lam1 = first_eigenvalue(3, 2, 1.13).lambda1
        f = SQUARE_N3K2.f
        target = br.points[j].lam * (1.0 + 3e-7)
        # one sample sits at sqrt(1.01 lam_lo 0.99 lam_hi)
        pred = predicted_interval(f.declared_f0, f.declared_finf, lam1)._replace(
            lam_lo=target / (1.01 * 1.001), lam_hi=target * 1.001 / 0.99)
        rep = verify_predictions(br, pred, 1, SQUARE_N3K2)
        assert rep.passed
        [cert] = _certificates(rep)
        assert cert.name.endswith(f"[{br.points[j - 1].d:.6g}, {br.points[j].d:.6g}]")
        assert cert.observed.startswith("sign change")

        points = list(br.points)
        points[j] = points[j]._replace(lam=points[j].lam * (1.0 + 1e-6))
        moved = verify_predictions(Branch(points=points), pred, 1, SQUARE_N3K2)
        assert not moved.passed
        [failed] = [c for c in moved.checks if not c.passed]
        assert failed.name.endswith(f"[{br.points[j].d:.6g}, {br.points[j + 1].d:.6g}]")
        assert failed.observed.startswith("no sign change")
        assert [c.observed for c in moved.checks if c.name.startswith("existence")] == ["count = 1"]

    def test_samples_are_nudged_off_vertices(self, square_branch):
        # the middle of 5 samples lands on the vertex at d = 1 to rounding: it is nudged
        # off it, so every certificate is a sign change
        lam1 = first_eigenvalue(3, 2, 1.13).lambda1
        f = SQUARE_N3K2.f
        pred = predicted_interval(f.declared_f0, f.declared_finf, lam1)
        rep = verify_predictions(square_branch, pred, 5, SQUARE_N3K2)
        assert rep.passed
        assert [c.observed.split(":")[0] for c in _certificates(rep)] == ["sign change"] * 5

    def test_sample_on_a_vertex_is_within_tolerance(self, monkeypatch, square_branch):
        # the vertex rule, the fallback when no nudge leaves the vertex: at lam equal to
        # the vertex lambda at d = 1, u(R; lam, 1) is ~3e-15, noise of either sign; the
        # certificate passes as "vertex within tolerance" only
        import hessbif.branch as branch_mod

        lam = square_branch.points[12].lam
        rep = VerificationReport(notes=[])
        _certify_crossings(rep, square_branch, lam, SQUARE_N3K2, TOL)
        [cert] = _certificates(rep)
        assert cert.passed and cert.observed.startswith("vertex within tolerance")
        monkeypatch.setattr(branch_mod, "eigen_rel_tol", lambda tol: 0.0)
        strict = VerificationReport(notes=[])
        _certify_crossings(strict, square_branch, lam, SQUARE_N3K2, TOL)
        [cert] = _certificates(strict)
        assert not cert.passed and cert.observed.startswith("no sign change")


class TestBranchCsv:
    def test_roundtrip(self, tmp_path, gelfand_branch):
        path = tmp_path / "branch.csv"
        gelfand_branch.to_csv(path)
        lines = path.read_text().splitlines()
        assert lines[0] == "index,d,lambda,is_fold"
        assert sum(line.endswith(",1") for line in lines[1:]) == 1
        back = Branch.from_csv(path)
        assert len(back.points) == len(gelfand_branch.points)
        for a, b in zip(back.points, gelfand_branch.points):
            assert a.d == b.d and a.lam == b.lam

    def test_empty_branch_writes_the_header(self, tmp_path):
        Branch(points=[]).to_csv(tmp_path / "empty.csv")
        assert (tmp_path / "empty.csv").read_text() == CSV_HEADER + "\n"

    def test_reads_the_residual_header(self, tmp_path, gelfand_branch):
        # CSVs written before the residual column was dropped: index,d,lambda,residual,is_fold
        gelfand_branch.to_csv(tmp_path / "new.csv")
        rows = [line.split(",") for line in (tmp_path / "new.csv").read_text().splitlines()[1:]]
        old = tmp_path / "old.csv"
        old.write_text("index,d,lambda,residual,is_fold\n"
                       + "".join(f"{i},{d},{lam},-1.5e-12,{fold}\n" for i, d, lam, fold in rows))
        back, new = Branch.from_csv(old), Branch.from_csv(tmp_path / "new.csv")
        assert [(p.d, p.lam) for p in back.points] == [(p.d, p.lam) for p in new.points]
        assert back.folds == new.folds == gelfand_branch.folds

    @pytest.mark.parametrize("kind, params, fold", [
        ("log_bump", {}, "min"),
        ("sum_of_powers", {"p": 0.5, "q": 2.0, "c": 1.0}, "max"),
    ])
    def test_reloaded_branch_reverifies(self, tmp_path, lam1, kind, params, fold):
        f = NonlinearitySpec(kind, params)
        spec = ProblemSpec(N=1, k=1, R=1.0, f=f)
        traced = trace_branch(spec, 1e-2, 1e2, 17, lambda_scale=lam1)
        assert [fo.kind for fo in traced.folds] == [fold]
        traced.to_csv(tmp_path / "branch.csv")
        back = Branch.from_csv(tmp_path / "branch.csv")
        assert back.folds == traced.folds
        pred = predicted_interval(f.declared_f0, f.declared_finf, lam1)
        assert verify_predictions(traced, pred).passed
        assert verify_predictions(back, pred).passed

    def test_malformed_rejected(self, tmp_path):
        bad, empty = tmp_path / "bad.csv", tmp_path / "empty.csv"
        for header in ("index,d,lambda,is_fold", "index,d,lambda,residual,is_fold"):
            bad.write_text(header + "\n0,1.0,2.0\n")
            with pytest.raises(InvalidInputError):
                Branch.from_csv(bad)
            empty.write_text(header + "\n")
            with pytest.raises(InvalidInputError):
                Branch.from_csv(empty)
