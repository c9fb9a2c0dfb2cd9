import math

import numpy as np
import pytest

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

    def test_no_crossing_runs_to_endpoint(self):
        res = integrate(harmonic, 0.0, [-1.0, 0.0], 1.0, rtol=1e-10,
                        atol=[1e-13, 1e-13], root_tol=1e-10)
        plain = integrate(harmonic, 0.0, [-1.0, 0.0], 1.0, rtol=1e-10,
                          atol=[1e-13, 1e-13])
        assert res.t == 1.0
        assert res.y == plain.y

    @pytest.mark.parametrize("root_tol", [None, 1e-10])
    def test_trajectory_records_every_accepted_state(self, root_tol):
        # y = -cos(t): with root_tol the run stops at pi/2, the last record
        traj = []
        res = integrate(harmonic, 0.0, [-1.0, 0.0], 3.0, rtol=1e-10,
                        atol=[1e-13, 1e-13], root_tol=root_tol, trajectory=traj)
        plain = integrate(harmonic, 0.0, [-1.0, 0.0], 3.0, rtol=1e-10,
                          atol=[1e-13, 1e-13], root_tol=root_tol)
        assert (res.t, res.y, res.n_steps) == (plain.t, plain.y, plain.n_steps)
        assert res.grid_states is None
        assert len(traj) == res.n_steps + 1
        assert traj[0] == (0.0, [-1.0, 0.0])
        assert traj[-1] == (res.t, res.y)
        ts = np.array([t for t, _ in traj])
        assert np.all(np.diff(ts) > 0.0)
        got = np.array([y[0] for _, y in traj])
        assert np.max(np.abs(got + np.cos(ts))) < 1e-9

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

        t, y = rk._locate_zero(ramp, 0.0, [0.5], [-1.0], 1.0, [-1.0], 1e-10, [1e-13], 1e-12)
        assert raised
        assert t == pytest.approx(math.sqrt(2.0) - 1.0, rel=1e-11)
        assert abs(y[0]) < 1e-11
