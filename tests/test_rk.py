import math
import random
import traceback
from fractions import Fraction

import numpy as np
import pytest
from _oracles import dop853_loop

from hessbif import rk
from hessbif.errors import NumericalFailureError
from hessbif.rk import integrate


def harmonic(t, y):
    return [y[1], -y[0]]


class TestIntegrate:
    def test_terminal_accuracy(self):
        res = integrate(harmonic, 0.0, [1.0, 0.0], 10.0, rtol=1e-10, atol=[1e-13, 1e-13])
        assert res.y[0] == pytest.approx(math.cos(10.0), abs=5e-10)
        assert res.y[1] == pytest.approx(-math.sin(10.0), abs=5e-10)

    def test_tolerance_scaling(self):
        errs = []
        for rtol in (1e-6, 1e-9):
            res = integrate(harmonic, 0.0, [1.0, 0.0], 10.0, rtol=rtol,
                            atol=[rtol * 1e-3] * 2)
            errs.append(abs(res.y[0] - math.cos(10.0)))
        assert errs[1] < errs[0] / 50

    def test_output_grid(self):
        ts = np.linspace(0.0, 2 * math.pi, 65)
        res = integrate(harmonic, 0.0, [1.0, 0.0], float(ts[-1]), rtol=1e-10,
                        atol=[1e-13, 1e-13], output_ts=ts)
        assert len(res.grid_states) == 65
        got = np.array([s[0] for s in res.grid_states])
        assert np.max(np.abs(got - np.cos(ts))) < 1e-9
        # first record is the exact initial state
        assert res.grid_states[0] == [1.0, 0.0]

    def test_stiff_blowup_detected(self):
        def explode(t, y):
            return [y[0] * y[0]]

        # y' = y^2, y(0)=1 blows up at t=1
        with pytest.raises(NumericalFailureError):
            integrate(explode, 0.0, [1.0], 2.0, rtol=1e-8, atol=[1e-10])

    def test_nan_rhs_detected(self):
        def bad(t, y):
            return [math.nan]

        with pytest.raises(NumericalFailureError):
            integrate(bad, 0.0, [1.0], 1.0, rtol=1e-8, atol=[1e-10])

    def test_step_budget(self, monkeypatch):
        # the harmonic run to t = 100 takes 318 accepted and 1 rejected attempts
        # (test_rhs_calls_per_attempt): a budget of 319 suffices, 318 does not
        monkeypatch.setattr(rk, "_MAX_STEPS", 319)
        res = integrate(harmonic, 0.0, [-1.0, 0.0], 100.0, rtol=1e-10, atol=[1e-13, 1e-13])
        assert res.n_steps + res.n_rejected == 319
        monkeypatch.setattr(rk, "_MAX_STEPS", 318)
        with pytest.raises(NumericalFailureError, match="step budget exhausted after 318 steps"):
            integrate(harmonic, 0.0, [-1.0, 0.0], 100.0, rtol=1e-10, atol=[1e-13, 1e-13])

    def test_shrinking_error_scale_is_predicted(self):
        # y = sqrt(1 - t): as y falls toward 0 its error scale atol + rtol |y| shrinks, so at
        # a fixed h the error of each step rises; the predictive factor follows that trend,
        # where the plain rule alternated accepted and rejected attempts (65 and 62, 1462
        # rhs calls)
        res = integrate(lambda t, y: [-0.5 / y[0]], 0.0, [1.0], 1.0 - 1e-6, rtol=1e-10,
                        atol=[1e-13])
        assert (res.n_steps, res.n_rejected, res.n_rhs) == (64, 2, 790)
        assert res.y[0] == pytest.approx(1e-3, rel=1e-5)

    def test_zero_rhs_fast(self):
        res = integrate(lambda t, y: [0.0, 0.0], 0.0, [3.0, -2.0], 1e6,
                        rtol=1e-10, atol=[1e-12, 1e-12])
        assert res.y == [3.0, -2.0]
        assert res.n_steps < 50

    def test_zero_crossing_located(self):
        # y = -cos(t) first crosses zero at pi/2, where y' = 1
        res = integrate(harmonic, 0.0, [-1.0, 0.0], 10.0, rtol=1e-10,
                        atol=[1e-13, 1e-13], root_tol=1e-10)
        assert res.t == pytest.approx(math.pi / 2, rel=1e-11)
        assert abs(res.y[0]) < 1e-11
        assert res.y[1] == pytest.approx(1.0, rel=1e-9)

    def test_zero_crossing_stops_output_grid(self):
        ts = np.linspace(0.0, 3.0, 31)
        res = integrate(harmonic, 0.0, [-1.0, 0.0], 3.0, rtol=1e-10,
                        atol=[1e-13, 1e-13], output_ts=ts, root_tol=1e-10)
        assert res.t == pytest.approx(math.pi / 2, rel=1e-11)
        assert len(res.grid_states) == 16   # t = 0.0 .. 1.5
        got = np.array([s[0] for s in res.grid_states])
        assert np.max(np.abs(got + np.cos(ts[:16]))) < 1e-9

    @pytest.mark.parametrize("root_tol", [None, 1e-10])
    def test_output_grid_keeps_the_free_steps(self, root_tol):
        # grid states are re-stepped from the accepted states, so the run steps as the
        # free run does, and a grid point on an accepted time is that state itself
        free_traj, grid_traj = [], []
        free = integrate(harmonic, 0.0, [-1.0, 0.0], 3.0, rtol=1e-10, atol=[1e-13, 1e-13],
                         root_tol=root_tol, trajectory=free_traj)
        ts = sorted([t for t, _, _ in free_traj[:4]] + list(np.linspace(0.05, 3.0, 60)))
        res = integrate(harmonic, 0.0, [-1.0, 0.0], 3.0, rtol=1e-10, atol=[1e-13, 1e-13],
                        output_ts=ts, root_tol=root_tol, trajectory=grid_traj)
        assert (res.n_steps, res.n_rejected, res.t, res.y) == (
            free.n_steps, free.n_rejected, free.t, free.y)
        assert grid_traj == free_traj
        states = {t: y for t, y, _ in free_traj}
        assert [res.grid_states[i] for i, t in enumerate(ts) if t in states] == [
            states[t] for t in ts if t in states]
        assert len(res.grid_states) == sum(t <= res.t for t in ts)
        # one step per grid point off the accepted states
        re_steps = sum(t not in states for t in ts[:len(res.grid_states)])
        assert res.n_rhs == free.n_rhs + 11 * re_steps

    def test_no_crossing_runs_to_endpoint(self):
        res = integrate(harmonic, 0.0, [-1.0, 0.0], 1.0, rtol=1e-10,
                        atol=[1e-13, 1e-13], root_tol=1e-10)
        plain = integrate(harmonic, 0.0, [-1.0, 0.0], 1.0, rtol=1e-10,
                          atol=[1e-13, 1e-13])
        assert res.t == 1.0
        assert res.y == plain.y

    @pytest.mark.parametrize("root_tol", [None, 1e-10])
    def test_trajectory_records_every_accepted_state(self, root_tol):
        # y = -cos(t): with root_tol the run stops at pi/2, the last record, which no step
        # starts from and so has no slope
        traj = []
        res = integrate(harmonic, 0.0, [-1.0, 0.0], 3.0, rtol=1e-10,
                        atol=[1e-13, 1e-13], root_tol=root_tol, trajectory=traj)
        plain = integrate(harmonic, 0.0, [-1.0, 0.0], 3.0, rtol=1e-10,
                          atol=[1e-13, 1e-13], root_tol=root_tol)
        assert (res.t, res.y, res.n_steps) == (plain.t, plain.y, plain.n_steps)
        assert res.grid_states is None
        assert len(traj) == res.n_steps + 1
        assert traj[0][:2] == (0.0, [-1.0, 0.0])
        assert traj[-1] == (res.t, res.y, None)
        ts = np.array([t for t, _, _ in traj])
        assert np.all(np.diff(ts) > 0.0)
        got = np.array([y[0] for _, y, _ in traj])
        assert np.max(np.abs(got + np.cos(ts))) < 1e-9
        assert all(slope == harmonic(t, y) for t, y, slope in traj[:-1])

    def test_root_within_h_min_of_the_start_is_located(self):
        # u' = 1, and a forcing m' = max(-u, 0) that switches off at the zero of u;
        # u(0) = -1e-16 is closer to its zero than h_min = 1e-14 * span
        def kinked(t, y):
            return [1.0, -y[0] if y[0] < 0.0 else 0.0]

        res = integrate(kinked, 0.0, [-1e-16, 0.0], 10.0, rtol=1e-10, atol=[1e-13, 1e-13],
                        root_tol=1e-10)
        assert (res.n_steps, res.n_rejected) == (1, 0)
        assert res.t == pytest.approx(1e-16, rel=1e-9)
        assert abs(res.y[0]) < 1e-25

    @pytest.mark.parametrize("zeros", [(1.0005, 1.0), (1.0, 1.0005)])
    def test_a_step_across_both_stop_zeros_gets_the_earlier(self, zeros):
        # y0' = y2' = 1, zeros at 1 and 1.0005: from a first trial of 2 the tangent cap ends
        # the one step at 1.001, beyond both, and each zero is located on its own
        a, b = zeros
        res = integrate(lambda t, y: [1.0, 0.0, 1.0, 0.0], 0.0, [-a, 0.0, -b, 0.0], 10.0,
                        rtol=1e-10, atol=[1e-13] * 4, root_tol=1e-10, first_step=2.0,
                        also_stop=2)
        first, other = (0, 2) if a < b else (2, 0)
        assert (res.n_steps, res.n_rejected) == (1, 0)
        assert res.t == pytest.approx(1.0, rel=1e-12)
        assert abs(res.y[first]) < 1e-12 and res.y[other] == pytest.approx(-5e-4, rel=1e-9)

    def test_overflow_in_a_trial_step_is_a_rejection(self):
        # y' = -y^3, y(0) = 1: the first trial step, span/64 = 100, drives a stage
        # state so large that the float power y**3 raises OverflowError
        raised = []

        def cubic(t, y):
            try:
                return [-y[0] ** 3]
            except OverflowError:
                raised.append(t)
                raise

        res = integrate(cubic, 0.0, [1.0], 6400.0, rtol=1e-10, atol=[1e-13])
        assert raised and raised[0] <= 100.0
        assert res.n_rejected >= 1
        assert res.t == 6400.0
        assert res.y[0] == pytest.approx(1.0 / math.sqrt(1.0 + 2.0 * 6400.0), rel=1e-8)

    def test_overflow_in_a_zero_locating_trial_is_retried(self):
        # y' = -(1 + t), y(0) = 1/2 crosses zero at sqrt(2) - 1 inside the step [0, 1];
        # the first trial step raises OverflowError, the retry is shorter
        raised = []

        def ramp(t, y):
            if not raised:
                raised.append(t)
                raise OverflowError("injected")
            return [-(1.0 + t)]

        t, y, trials = rk._locate_zero(ramp, 0.0, [0.5], [-1.0], 1.0, [-1.0], 1e-10, [1e-13],
                                       1e-12)
        assert raised
        assert trials == 7   # the overflowed trial counts
        assert t == pytest.approx(math.sqrt(2.0) - 1.0, rel=1e-11)
        assert abs(y[0]) < 1e-11



class TestZeroin:
    """rk.zeroin, the one bracketed root finder (zero location, coupled root, solve_lambda)."""

    @staticmethod
    def _logged(f):
        """(fun, xs): fun evaluates f as a zeroin point and appends each x to xs."""
        xs = []

        def fun(x):
            xs.append(x)
            return x, f(x), None
        return fun, xs

    @pytest.mark.parametrize("zero_end", [0, 1])
    def test_an_end_with_f_zero_returns_at_once(self, zero_end):
        fun, xs = self._logged(lambda x: x - 0.5)
        ends = [(0.0, -1.0, "a"), (1.0, 1.0, "b")]
        ends[zero_end] = (ends[zero_end][0], 0.0, "zero")
        b, c = rk.zeroin(fun, *ends, 1e-12)
        assert b == ends[zero_end] and c == ends[1 - zero_end]
        assert xs == []

    def test_an_infinite_end_forces_bisection(self):
        # F = +inf below 0.6, as where u has no zero before the horizon; root at 0.7
        fun, xs = self._logged(lambda x: math.inf if x < 0.6 else 0.7 - x)
        b, c = rk.zeroin(fun, (0.0, math.inf, None), (1.0, -0.3, None), 1e-12)
        assert xs[:3] == [0.5, 0.75, 0.625]   # midpoints while an infinite F bounds it
        assert b[0] == pytest.approx(0.7, abs=1e-12)
        assert len(xs) <= 10

    def test_a_moved_abscissa_keeps_a_valid_bracket(self):
        # the first three evaluations are moved, as rk's overflow retry moves a trial, to
        # 0.2 of their way from the largest x known to lie below the root
        root = 0.2 ** (1.0 / 3.0)
        s_lo = 0.0
        moved = []

        def fun(x):
            nonlocal s_lo
            if len(moved) < 3:
                moved.append(x)
                x = s_lo + 0.2 * (x - s_lo)
            f = x**3 - 0.2
            if f < 0.0:
                s_lo = max(s_lo, x)
            return x, f, None

        b, c = rk.zeroin(fun, (0.0, -0.2, None), (1.0, 0.8, None), 1e-13)
        assert len(moved) == 3
        assert b[1] == 0.0 or (b[1] < 0.0) != (c[1] < 0.0)
        assert min(b[0], c[0]) <= root <= max(b[0], c[0])
        assert b[0] == pytest.approx(root, abs=1e-12)

    def test_the_iteration_cap_is_a_numerical_failure(self, monkeypatch):
        monkeypatch.setattr(rk, "_MAX_ZEROIN_ITER", 3)
        fun, xs = self._logged(lambda x: math.sin(x) - 0.5)
        with pytest.raises(NumericalFailureError, match="zeroin did not converge in 3 steps"):
            rk.zeroin(fun, (0.0, -0.5, None), (2.0, math.sin(2.0) - 0.5, None), 0.0)
        assert len(xs) == 3


def _hex(result):
    y_new, err = result
    return [v.hex() for v in y_new], err.hex()


def _outcome(step, *args):
    """_hex of step(*args), or "OverflowError" when a float power overflowed in it."""
    try:
        return _hex(step(*args))
    except OverflowError:
        return "OverflowError"


class TestGeneratedStep:
    """The generated step against the tableau loops of tests/_oracles.py, bit for bit."""

    @staticmethod
    def _nonlinear(t, y):
        n = len(y)
        return [math.sin(t + y[c]) * y[(c + 1) % n] - 0.5 * y[c] ** 3 for c in range(n)]

    @staticmethod
    def _flat(t, y):   # -0.0 sums to -0.0, 0.0 + -0.0 to 0.0
        return [-0.0] * len(y)

    @pytest.mark.parametrize("n", [1, 2, 4])
    def test_bit_identical_to_the_tableau_loops(self, n):
        rng = random.Random(n)
        step = rk._dop853_step(n)
        for rhs in (self._nonlinear, self._flat):
            for _ in range(200):
                t = rng.uniform(0.0, 10.0)
                y = [rng.choice((0.0, -0.0)) if rng.random() < 0.2 else rng.uniform(-3.0, 3.0)
                     for _ in range(n)]
                h = 10.0 ** rng.uniform(-6.0, 0.5)
                rtol = 10.0 ** rng.uniform(-12.0, -4.0)
                atol = [10.0 ** rng.uniform(-14.0, -6.0) for _ in range(n)]
                args = (rhs, t, y, h, rhs(t, y), rtol, atol)
                assert _outcome(step, *args) == _outcome(dop853_loop, *args)

    @pytest.mark.parametrize("n", [1, 2, 4])
    @pytest.mark.parametrize("stage", range(1, 12))
    def test_non_finite_stage_gives_infinite_error(self, n, stage):
        # one infinite stage slope; a zero weight on it (stages 1 to 4) makes y_new NaN
        def spike(t, y):
            return [math.inf if t == rk._C[stage] else 1.0] * len(y)

        y = [1.0 + c for c in range(n)]
        args = (spike, 0.0, y, 1.0, spike(0.0, y), 1e-10, [1e-13] * n)
        got = rk._dop853_step(n)(*args)
        assert got[1] == math.inf
        assert _hex(got) == _hex(dop853_loop(*args))

    @pytest.mark.parametrize("n", [1, 2, 4])
    def test_overflow_raises_in_both(self, n):
        def cubic(t, y):   # the float power raises OverflowError beyond ~1e102
            return [-v ** 3 for v in y]

        def wiggle(t, y):   # an error ratio of ~1e200, whose square raises OverflowError
            return [1e-100 * math.sin(50.0 * t)] * len(y)

        step = rk._dop853_step(n)
        for rhs, y, atol in ((cubic, [1e60] * n, [1e-13] * n),
                             (wiggle, [1e-100] * n, [1e-300] * n)):
            args = (rhs, 0.0, y, 1.0, rhs(0.0, y), 1e-300, atol)
            with pytest.raises(OverflowError):
                dop853_loop(*args)
            with pytest.raises(OverflowError):
                step(*args)

    def test_rhs_calls_per_attempt(self):
        calls = []

        def counted(t, y):
            calls.append(t)
            return harmonic(t, y)

        res = integrate(counted, 0.0, [-1.0, 0.0], 100.0, rtol=1e-10, atol=[1e-13, 1e-13])
        # eleven per attempt, plus k0 = rhs(t, y) once per accepted state before the
        # last: it is reused across rejections at the same t
        assert (res.n_steps, res.n_rejected) == (318, 1)
        assert len(calls) == res.n_rhs == 11 * (res.n_steps + res.n_rejected) + res.n_steps == 3827

    def test_rhs_count_includes_zero_location(self):
        calls = []

        def counted(t, y):
            calls.append(t)
            return harmonic(t, y)

        res = integrate(counted, 0.0, [-1.0, 0.0], 10.0, rtol=1e-10, atol=[1e-13, 1e-13],
                        root_tol=1e-10)
        # y = -cos(t) crosses zero in the sixth step; locating it takes two trial steps
        assert (res.n_steps, res.n_rejected) == (6, 0)
        assert len(calls) == res.n_rhs == 11 * 6 + 6 + 11 * 2 == 94

    def test_tracebacks_show_the_generated_source(self):
        def failing(t, y):
            if t > 0.0:
                raise NumericalFailureError("injected")
            return harmonic(t, y)

        with pytest.raises(NumericalFailureError) as info:
            integrate(failing, 0.0, [1.0, 0.0], 1.0, rtol=1e-10, atol=[1e-13, 1e-13])
        text = "".join(traceback.format_exception(info.value))
        assert 'File "<hessbif.rk dop853 n=2>", line 6, in step' in text
        assert ("k1_0, k1_1, = rhs(t + 0.05260015195876773 * h, "
                "[y_0 + h1_0 * k0_0, y_1 + h1_0 * k0_1])") in text


def _moment(weights, q):
    """sum_j w_j c_j^(q-1) over the stored doubles, in exact rational arithmetic."""
    return sum(Fraction(w) * Fraction(c) ** (q - 1) for w, c in zip(weights, rk._C))


class TestTableau:
    """Order conditions of the transcribed DOP853 coefficients, so that a mistyped
    digit fails here instead of quietly lowering the order."""

    def test_rows_of_a_sum_to_c(self):
        # relative to sum |a_ij|: rows 8-11 hold entries up to 43, whose rounding
        # to doubles alone moves their sums by up to 1.8e-15
        for row, c in zip(rk._A[1:], rk._C[1:]):
            excess = float(sum(map(Fraction, row)) - Fraction(c))
            assert abs(excess) <= 1e-15 * sum(map(abs, row)), row

    @pytest.mark.parametrize("q", range(1, 9))
    def test_weights_integrate_polynomials_to_degree_7(self, q):
        assert abs(float(_moment(rk._B, q) - Fraction(1, q))) <= 1e-15

    def test_error_weights_vanish_on_low_degrees(self):
        e3 = [b - bhh for b, bhh in zip(rk._B, rk._BHH)]
        for q in range(1, 6):
            assert abs(float(_moment(rk._E5, q))) <= 1e-15, q
        for q in range(1, 4):
            assert abs(float(_moment(e3, q))) <= 1e-15, q

    def test_fixed_step_global_error_falls_as_h_to_the_8th(self):
        # y = (tan t, 1 + tan^2 t): y0' = y1, y1' = 2 y0 y1, integrated to t = 1
        step = rk._dop853_step(2)

        def rhs(t, y):
            return [y[1], 2.0 * y[0] * y[1]]

        errs = []
        for n in (8, 16, 32):
            y = [0.0, 1.0]
            for i in range(n):
                y = step(rhs, i / n, y, 1.0 / n, rhs(i / n, y), 1e-10, [1e-13] * 2)[0]
            errs.append(abs(y[0] - math.tan(1.0)))
        orders = [math.log2(a / b) for a, b in zip(errs, errs[1:])]
        assert all(7.5 < p < 8.5 for p in orders), orders
