"""Embedded adaptive Runge-Kutta stepping for small ODE systems.

Cash-Karp 5(4) pair: six stages, 5th order propagation, 4th order error
estimate.  States are plain lists of floats; the radial shooting systems here
have 2 or 4 components, where python-float arithmetic beats array overhead by
an order of magnitude.  Two modes:

  * free stepping to the right endpoint (terminal value, and on request every
    accepted state) - the hot path of root solves and branch points;
  * step clamping onto a fixed output grid, recording the state at every grid
    point - used when a full profile is requested;

and, in either mode, an optional stop where component 0 first changes sign,
located inside the last accepted step by re-stepping from its saved state.

Step control is the standard 0.9 * err^(-1/5) rule with growth clamped to
[0.2, 5.0] per step.
"""

from __future__ import annotations

import math

from .errors import NumericalFailureError

# Cash-Karp tableau
_C = (0.0, 1.0 / 5.0, 3.0 / 10.0, 3.0 / 5.0, 1.0, 7.0 / 8.0)
_A = (
    (),
    (1.0 / 5.0,),
    (3.0 / 40.0, 9.0 / 40.0),
    (3.0 / 10.0, -9.0 / 10.0, 6.0 / 5.0),
    (-11.0 / 54.0, 5.0 / 2.0, -70.0 / 27.0, 35.0 / 27.0),
    (1631.0 / 55296.0, 175.0 / 512.0, 575.0 / 13824.0,
     44275.0 / 110592.0, 253.0 / 4096.0),
)
_B5 = (37.0 / 378.0, 0.0, 250.0 / 621.0, 125.0 / 594.0, 0.0, 512.0 / 1771.0)
_B4 = (2825.0 / 27648.0, 0.0, 18575.0 / 48384.0, 13525.0 / 55296.0,
       277.0 / 14336.0, 1.0 / 4.0)

_SAFETY = 0.9
_MIN_FACTOR = 0.2
_MAX_FACTOR = 5.0
_ORDER_EXP = -0.2  # 1 / (embedded order + 1)
_MAX_LOCATE_ITER = 100


class RKResult:
    """Terminal state plus, when an output grid was given, the recorded states."""

    __slots__ = ("t", "y", "grid_states", "n_steps", "n_rejected")

    def __init__(self, t, y, grid_states, n_steps, n_rejected):
        self.t = t
        self.y = y
        self.grid_states = grid_states
        self.n_steps = n_steps
        self.n_rejected = n_rejected


def _cash_karp(rhs, t, y, h, k0, rtol, atol):
    """One Cash-Karp step of length h from (t, y), where k0 = rhs(t, y).

    Returns (y5, err): the 5th-order state and the RMS of the scaled
    4th/5th-order difference, or inf when the new state is not finite.
    """
    n = len(y)
    k = [k0, None, None, None, None, None]
    for i in range(1, 6):
        ai = _A[i]
        yi = list(y)
        for j, aij in enumerate(ai):
            kj = k[j]
            haij = h * aij
            for c in range(n):
                yi[c] += haij * kj[c]
        k[i] = rhs(t + _C[i] * h, yi)

    y5 = list(y)
    err_acc = 0.0
    ok = True
    for c in range(n):
        inc5 = 0.0
        inc4 = 0.0
        for j in range(6):
            kjc = k[j][c]
            inc5 += _B5[j] * kjc
            inc4 += _B4[j] * kjc
        y5c = y[c] + h * inc5
        y5[c] = y5c
        diff = h * (inc5 - inc4)
        scale = atol[c] + rtol * max(abs(y[c]), abs(y5c))
        err_acc += (diff / scale) ** 2
        if not math.isfinite(y5c):
            ok = False
    return y5, (math.sqrt(err_acc / n) if ok else math.inf)


def _locate_zero(rhs, t, y, k0, h, y_end, rtol, atol, root_tol):
    """(t*, y*) where component 0 changes sign inside the step (t, y) -> (t + h, y_end).

    Illinois regula falsi on the step length s in [0, h], each trial a fresh
    Cash-Karp step from the saved state, until the bracket is below root_tol
    relative to t + s; the state is then interpolated linearly across it.  A
    trial that overflows is retried at _MIN_FACTOR of its distance from s_lo.
    """
    s_lo, y_lo, f_lo = 0.0, y, y[0]
    s_hi, y_hi, f_hi = h, y_end, y_end[0]
    side = 0
    s_retry = None
    for _ in range(_MAX_LOCATE_ITER):
        if s_hi - s_lo <= root_tol * (t + s_hi):
            break
        s = s_lo + (s_hi - s_lo) * f_lo / (f_lo - f_hi) if s_retry is None else s_retry
        if not (s_lo < s < s_hi):
            s = 0.5 * (s_lo + s_hi)
        try:
            y_s = _cash_karp(rhs, t, y, s, k0, rtol, atol)[0]
        except OverflowError:   # a rejected trial: retry shorter, the bracket kept
            s_retry = s_lo + _MIN_FACTOR * (s - s_lo)
            continue
        s_retry = None
        f = y_s[0]
        if f == 0.0:
            return t + s, y_s
        if (f < 0.0) == (f_lo < 0.0):
            s_lo, y_lo, f_lo = s, y_s, f
            if side < 0:
                f_hi *= 0.5
            side = -1
        else:
            s_hi, y_hi, f_hi = s, y_s, f
            if side > 0:
                f_lo *= 0.5
            side = 1
    w = y_lo[0] / (y_lo[0] - y_hi[0])
    return (t + s_lo + w * (s_hi - s_lo),
            [a + w * (b - a) for a, b in zip(y_lo, y_hi)])


def integrate(rhs, t0, y0, t1, rtol, atol, output_ts=None, max_steps=500_000,
              root_tol=None, trajectory=None):
    """Integrate y' = rhs(t, y) from t0 to t1 (t1 > t0).

    atol is a per-component sequence (same length as y0).  output_ts, when
    given, must be ascending values in [t0, t1]; the stepper lands on each
    exactly and records the state there.  With root_tol, integration stops
    where component 0 first changes sign: the crossing is located inside the
    last accepted step to root_tol relative and returned as (t, y), t < t1;
    outputs beyond it are not recorded.  A trajectory list receives (t, y) at
    t0 and after every accepted step, ending with the returned state.  A trial
    step whose state is not finite, or whose arithmetic raises OverflowError, is
    rejected and retried at _MIN_FACTOR of its length.  Raises
    NumericalFailureError on NaN/inf states, step-size underflow, or
    step-count exhaustion.
    """
    n = len(y0)
    y = [float(v) for v in y0]
    t = float(t0)
    span = float(t1) - t
    if span <= 0.0:
        raise NumericalFailureError(f"empty integration span [{t0}, {t1}]")
    atol = [float(a) for a in atol]
    if len(atol) != n:
        raise NumericalFailureError("atol length mismatch")

    outputs = None
    out_idx = 0
    grid_states = None
    if output_ts is not None:
        outputs = [float(v) for v in output_ts]
        grid_states = []
        while out_idx < len(outputs) and outputs[out_idx] <= t:
            grid_states.append(list(y))
            out_idx += 1
    if trajectory is not None:
        trajectory.append((t, y))

    h_ctrl = span / 64.0
    h_min = 1e-14 * span
    n_steps = 0
    n_rejected = 0
    k0 = None   # rhs(t, y), kept across rejected attempts

    while t < t1:
        if n_steps + n_rejected >= max_steps:
            raise NumericalFailureError(f"step budget exhausted after {max_steps} steps")
        # clamp the attempted step onto the next output point / right endpoint
        h = h_ctrl
        hit_output = False
        if outputs is not None and out_idx < len(outputs) and t + h >= outputs[out_idx]:
            h = outputs[out_idx] - t
            hit_output = True
        elif t + h > t1:
            h = t1 - t
        clamped = h < h_ctrl
        if hit_output and h <= 0.0:
            # grid point coincides with the current time up to roundoff
            grid_states.append(list(y))
            out_idx += 1
            continue
        if h < h_min:
            raise NumericalFailureError(f"step size underflow at t={t!r}")

        if k0 is None:
            k0 = rhs(t, y)
        try:
            y5, err = _cash_karp(rhs, t, y, h, k0, rtol, atol)
        except OverflowError:   # a float power overflowed inside a trial stage
            err = math.inf

        if not math.isfinite(err):
            n_rejected += 1
            h_ctrl = h * _MIN_FACTOR
            if h_ctrl < h_min:
                raise NumericalFailureError(f"non-finite state at t={t!r}")
            continue

        if err <= 1.0:
            n_steps += 1
            if root_tol is not None and (y5[0] < 0.0) != (y[0] < 0.0):
                t, y = _locate_zero(rhs, t, y, k0, h, y5, rtol, atol, root_tol)
                if trajectory is not None:
                    trajectory.append((t, y))
                return RKResult(t, y, grid_states, n_steps, n_rejected)
            t = t + h
            y = y5
            k0 = None
            if trajectory is not None:
                trajectory.append((t, y))
            if hit_output:
                grid_states.append(list(y))
                out_idx += 1
            factor = _MAX_FACTOR if err == 0.0 else min(
                _MAX_FACTOR, max(_MIN_FACTOR, _SAFETY * err**_ORDER_EXP))
            if clamped:
                # a grid-shortened step must not erase the controller's memory
                h_ctrl = max(h_ctrl, h * factor)
            else:
                h_ctrl = h * factor
        else:
            n_rejected += 1
            h_ctrl = h * max(_MIN_FACTOR, _SAFETY * err**_ORDER_EXP)

    if outputs is not None:
        while out_idx < len(outputs):
            # trailing outputs at (or beyond, by roundoff) the right endpoint
            grid_states.append(list(y))
            out_idx += 1

    return RKResult(t, y, grid_states, n_steps, n_rejected)
