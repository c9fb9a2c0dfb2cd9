"""Embedded adaptive Runge-Kutta stepping for small ODE systems.

Dormand-Prince 8(5,3) pair (DOP853; Hairer, Norsett & Wanner, Solving ODEs I,
2nd ed. 1993, II.10): twelve stages, 8th order propagation, and Hairer's error
estimate from an embedded 5th and 3rd order pair.  States are plain lists of
floats; the radial shooting systems here have 2 or 4 components, where
python-float arithmetic beats array overhead by an order of magnitude.  Every
run steps one way, freely to the right endpoint, with an optional stop where
component 0, or one more named component, first changes sign; it returns the
terminal state and, on request, every accepted state with the slope there.
Other states are read off the accepted ones by re-stepping (Hairer, Norsett &
Wanner I, II.6): a zero is located inside the last accepted step from its
saved state, and each point of an output grid is one step from the accepted
state before it, so a run given a grid takes the steps of the run without one.
zeroin (Brent) finds the zero over the step length; it is the package's one
bracketed root finder, and system and shooting resolve their roots with it.

The error of a step of length h is h |e5|^2 / sqrt((|e5|^2 + 0.01 |e3|^2) n),
with e5 = sum E5_j k_j and e3 = sum (B_j - BHH_j) k_j scaled componentwise by
atol + rtol max(|y|, |y_new|).  Neither weight vector uses a stage at t + h, so
an attempt costs 11 rhs calls, and the slope at an accepted state is the first
stage of the next step.  A rejected step is cut by the factor 0.9 err^(-1/8),
at least 0.2.  An accepted step grows or shrinks by the smaller of that factor
(at most 5.0) and Gustafsson's predictive factor
0.9 (h / h_acc) (err_acc / err^2)^(1/8), at least 0.2, where h_acc and err_acc
belong to the accepted step before and both errors are floored at 1e-2
(K. Gustafsson, ACM TOMS 20, 1994; Hairer & Wanner, Solving ODEs II, IV.8, as
in RADAU5); the first step accepted after a rejection does not grow (as in
Hairer's codes).  The predictive factor follows a trend in the error: toward a
zero of component 0 its error scale atol + rtol |y| shrinks, so at a fixed h
the error of each step rises, and the first factor alone alternates accepted
and rejected attempts.

A stop at a sign change is a switching point: the radial shooting systems
switch a forcing off at the zero of u, or of v for a pair, so the solution has
a kink, and a trial that crosses it far fails the 8th order error test.  In
that mode the trials step onto the zeros rather than across them (Gear &
Osterby, ACM TOMS 10, 1984; Hairer, Norsett & Wanner I, II.6): each trial ends
at most 1.001 times the tangent distance -y_c/y_c' to the nearer zero, so the
step that crosses does so by a sliver and is accepted, and a rejected trial
that crossed is retried at 0.9 of its length, not cut by the error estimate,
which measures the kink and not the smoothness of the solution.  A step across
both zeros is searched for each (one search on max(u, v) would meet a kink at
a common zero).  Callers may set the first trial step (default: span / 64).

The step itself is generated from the tableau, once per (component count,
slope) and on first use: Python source with every stage and every component
unrolled into local floats, compiled under the name "<hessbif.rk dop853 n=...>"
(with the slope's name appended) and registered with linecache, so tracebacks
and profiles show its lines.  The slope is a Slope, source text that the
generator inlines at each stage; its inputs arrive as the step's first
argument.  The default, CALL, is a call of rhs(t, y), and its inputs are rhs
itself.  shooting.py inlines its flux slope instead, so those steps make no
Python call per stage; slope_function compiles the same source as rhs(t, y),
for the first slope of each step and for callers that need the slope at a
state.  On 2- and 4-component states the CALL step takes about a third of the
time per step of loops over the tableau, whose indexing costs more than the
arithmetic.  Its results are bit for bit those of the loops (tests/_oracles.py
keeps them as the reference):
Python adds a + b + c left to right, as the loops accumulate; the stage states
skip the zero entries of A, while the propagation sum starts from 0.0 + (0.0 +
-0.0 is 0.0) and keeps the zero weights of B, so a non-finite slope at any
stage makes y_new non-finite (0.0 * inf is NaN) and gives err = inf; and the
error terms are formed component by component with the float power ** 2,
which raises OverflowError where the loops' did.
"""

from __future__ import annotations

import functools
import linecache
import math
import sys
from typing import NamedTuple

from .errors import NumericalFailureError

# DOP853 tableau, Hairer's published coefficients (as in his dop853.f): nodes C,
# stage rows A (lower triangle, zeros written out), 8th order weights B, the
# 5th order error weights E5, and BHH, the 3rd order weights, so E3 = B - BHH.
_C = (0.0,
      0.526001519587677318785587544488e-01,
      0.789002279381515978178381316732e-01,
      0.118350341907227396726757197510,
      0.281649658092772603273242802490,
      0.333333333333333333333333333333,
      0.25,
      0.307692307692307692307692307692,
      0.651282051282051282051282051282,
      0.6,
      0.857142857142857142857142857142,
      1.0)
_A = (
    (),
    (5.26001519587677318785587544488e-2,),
    (1.97250569845378994544595329183e-2, 5.91751709536136983633785987549e-2),
    (2.95875854768068491816892993775e-2, 0.0, 8.87627564304205475450678981324e-2),
    (2.41365134159266685502369798665e-1, 0.0, -8.84549479328286085344864962717e-1,
     9.24834003261792003115737966543e-1),
    (3.7037037037037037037037037037e-2, 0.0, 0.0, 1.70828608729473871279604482173e-1,
     1.25467687566822425016691814123e-1),
    (3.7109375e-2, 0.0, 0.0, 1.70252211019544039314978060272e-1,
     6.02165389804559606850219397283e-2, -1.7578125e-2),
    (3.70920001185047927108779319836e-2, 0.0, 0.0, 1.70383925712239993810214054705e-1,
     1.07262030446373284651809199168e-1, -1.53194377486244017527936158236e-2,
     8.27378916381402288758473766002e-3),
    (6.24110958716075717114429577812e-1, 0.0, 0.0, -3.36089262944694129406857109825,
     -8.68219346841726006818189891453e-1, 2.75920996994467083049415600797e1,
     2.01540675504778934086186788979e1, -4.34898841810699588477366255144e1),
    (4.77662536438264365890433908527e-1, 0.0, 0.0, -2.48811461997166764192642586468,
     -5.90290826836842996371446475743e-1, 2.12300514481811942347288949897e1,
     1.52792336328824235832596922938e1, -3.32882109689848629194453265587e1,
     -2.03312017085086261358222928593e-2),
    (-9.3714243008598732571704021658e-1, 0.0, 0.0, 5.18637242884406370830023853209,
     1.09143734899672957818500254654, -8.14978701074692612513997267357,
     -1.85200656599969598641566180701e1, 2.27394870993505042818970056734e1,
     2.49360555267965238987089396762, -3.0467644718982195003823669022),
    (2.27331014751653820792359768449, 0.0, 0.0, -1.05344954667372501984066689879e1,
     -2.00087205822486249909675718444, -1.79589318631187989172765950534e1,
     2.79488845294199600508499808837e1, -2.85899827713502369474065508674,
     -8.87285693353062954433549289258, 1.23605671757943030647266201528e1,
     6.43392746015763530355970484046e-1),
)
_B = (5.42937341165687622380535766363e-2, 0.0, 0.0, 0.0, 0.0,
      4.45031289275240888144113950566, 1.89151789931450038304281599044,
      -5.8012039600105847814672114227, 3.1116436695781989440891606237e-1,
      -1.52160949662516078556178806805e-1, 2.01365400804030348374776537501e-1,
      4.47106157277725905176885569043e-2)
_E5 = (0.1312004499419488073250102996e-1, 0.0, 0.0, 0.0, 0.0,
       -0.1225156446376204440720569753e+1, -0.4957589496572501915214079952,
       0.1664377182454986536961530415e+1, -0.3503288487499736816886487290,
       0.3341791187130174790297318841, 0.8192320648511571246570742613e-1,
       -0.2235530786388629525884427845e-1)
_BHH = (0.244094488188976377952755905512, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0,
        0.733846688281611857341361741547, 0.0, 0.0,
        0.220588235294117647058823529412e-1)

_SAFETY = 0.9
_MIN_FACTOR = 0.2
_MAX_FACTOR = 5.0
_ORDER_EXP = -1.0 / 8.0  # 1 / (error order + 1)
_Q_MAX = 1e-2**_ORDER_EXP   # q = min(p, _Q_MAX): the predictive factor floors errors at 1e-2
_MAX_ZEROIN_ITER = 100
_MAX_STEPS = 500_000   # integrate's budget of step attempts, accepted and rejected
_RHS_PER_ATTEMPT = len(_A) - 1   # stages 1..11; stage 0 is k0
_TANGENT_REACH = 1.001   # root mode: a trial ends at most this far along the tangent to 0


class RKResult:
    """Terminal state plus, when an output grid was given, the states on it.

    n_steps and n_rejected count the attempts of the stepper.  n_rhs counts
    its rhs calls: 11 per attempt, per zero-locating trial and per grid state
    re-stepped, and one slope per state stepped from; an attempt cut short by
    OverflowError counts all 11.
    """

    __slots__ = ("t", "y", "grid_states", "n_steps", "n_rejected", "n_rhs")

    def __init__(self, t, y, grid_states, n_steps, n_rejected, n_rhs):
        self.t = t
        self.y = y
        self.grid_states = grid_states
        self.n_steps = n_steps
        self.n_rejected = n_rejected
        self.n_rhs = n_rhs


class Slope(NamedTuple):
    """A stage slope as Python source, which the generated step inlines at every stage.

    body is statements that set {k} (or {k0}, {k1}, ...) to the slope at time
    {t} and state {y} (or {y0}, {y1}, ...): str.format fields that the step
    fills with expressions and output names.  inputs is the assignment target
    that the step's first argument is unpacked into, and globals the
    (name, object) pairs the body reads besides its inputs.  name tags the
    generated file names.
    """

    name: str
    inputs: str
    body: str
    globals: tuple = ()


CALL = Slope("", "rhs", "{k}, = rhs({t}, [{y}])")   # the slope is a call of rhs(t, y)


def _generate(filename, source, slope):
    """The namespace of source compiled under filename, registered with linecache."""
    namespace = {"isfinite": math.isfinite, "sqrt": math.sqrt, "inf": math.inf}
    namespace.update(slope.globals)
    exec(compile(source, filename, "exec"), namespace)
    linecache.cache[filename] = (len(source), None, source.splitlines(True), filename)
    return namespace


def _slope_lines(slope, t, state, outs, indent):
    """slope.body at time t and state expressions state, setting outs, indented."""
    fields = {"t": t, "y": ", ".join(state), "k": ", ".join(outs)}
    fields.update((f"y{c}", v) for c, v in enumerate(state))
    fields.update((f"k{c}", v) for c, v in enumerate(outs))
    return [indent + line for line in slope.body.format(**fields).splitlines()]


def _filename(kind, n, slope):
    return f"<hessbif.rk {kind} n={n}{' ' + slope.name if slope.name else ''}>"


@functools.cache
def _dop853_step(n, slope=CALL):
    """step(inputs, t, y, h, k0, rtol, atol) -> (y_new, err) for n-component states,
    k0 the slope at (t, y), inputs what slope.inputs unpacks (rhs itself for CALL).

    y_new is the 8th-order state; err is the scaled error of the module
    docstring, or inf when y_new is not finite.  Generated with every stage
    unrolled and slope.body inlined at each, on the first call for each
    (n, slope); the source is registered with linecache under the step's file
    name, so tracebacks and profiles show it.
    """
    cs = range(n)

    def vec(fmt):
        return ", ".join(fmt.format(c=c) for c in cs)

    def terms(weights, c, sign="+", keep_zeros=False):
        return "".join(f" {sign} {w!r} * k{j}_{c}" for j, w in enumerate(weights)
                       if keep_zeros or w != 0.0)

    lines = ["def step(inputs, t, y, h, k0, rtol, atol):",
             f"    {slope.inputs} = inputs",
             f"    {vec('y_{c}')}, = y",
             f"    {vec('k0_{c}')}, = k0"]
    for i in range(1, len(_A)):
        row = [(j, aij) for j, aij in enumerate(_A[i]) if aij != 0.0]
        lines += [f"    h{i}_{j} = h * {aij!r}" for j, aij in row]
        state = [f"y_{c}" + "".join(f" + h{i}_{j} * k{j}_{c}" for j, _ in row) for c in cs]
        lines += _slope_lines(slope, f"t + {_C[i]!r} * h", state,
                              [f"k{i}_{c}" for c in cs], "    ")
    lines.append(f"    {vec('atol_{c}')}, = atol")
    for c in cs:
        lines += [f"    i_{c} = 0.0{terms(_B, c, keep_zeros=True)}",
                  f"    yn_{c} = y_{c} + h * i_{c}",
                  f"    a_{c} = abs(y_{c})",
                  f"    b_{c} = abs(yn_{c})",
                  # max(a, b) of the reference loops, which returns b only when b > a
                  f"    s_{c} = atol_{c} + rtol * (b_{c} if b_{c} > a_{c} else a_{c})",
                  f"    e5_{c} = 0.0{terms(_E5, c)}",
                  # e3 = i - sum BHH_j k_j, as dop853.f forms it
                  f"    e3_{c} = i_{c}{terms(_BHH, c, sign='-')}"]
    lines += [f"    e5 = 0.0{''.join(f' + (e5_{c} / s_{c}) ** 2' for c in cs)}",
              f"    e3 = 0.0{''.join(f' + (e3_{c} / s_{c}) ** 2' for c in cs)}",
              f"    if {' and '.join(f'isfinite(yn_{c})' for c in cs)}:",
              "        den = e5 + 0.01 * e3",
              f"        err = h * e5 / sqrt(den * {n}) if den > 0.0 else 0.0",
              f"        return [{vec('yn_{c}')}], err",
              f"    return [{vec('yn_{c}')}], inf",
              ""]
    return _generate(_filename("dop853", n, slope), "\n".join(lines), slope)["step"]


@functools.cache
def slope_function(n, slope):
    """bind(inputs) -> rhs(t, y), the slope of the n-component step _dop853_step(n, slope)
    as a function: generated from the same slope.body, so its values are bit for
    bit those the step inlines.  rhs returns a tuple."""
    outs = [f"k_{c}" for c in range(n)]
    lines = ["def bind(inputs):",
             f"    {slope.inputs} = inputs",
             "    def rhs(t, y):",
             f"        {', '.join(f'y_{c}' for c in range(n))}, = y"]
    lines += _slope_lines(slope, "t", [f"y_{c}" for c in range(n)], outs, "        ")
    lines += [f"        return ({', '.join(outs)},)", "    return rhs", ""]
    return _generate(_filename("slope", n, slope), "\n".join(lines), slope)["bind"]


def zeroin(fun, a, b, tol):
    """(b, c): the ends of the final bracket of a sign change of f, by Brent's zeroin
    (R. P. Brent, Algorithms for Minimization without Derivatives, 1973, ch. 4).

    a and b are evaluated points (x, f, data) whose f differ in sign (or one is 0); f
    may be infinite at an end.  fun(x) evaluates and returns the point (x', f, data),
    where x' may differ from x as long as it stays inside the bracket.  Each step goes
    from b, the end of smaller |f|: inverse quadratic or secant, or a bisection where
    those would leave the bracket, shrink it too slowly, or meet an infinite f.  The
    search stops at f(b) = 0, or once the next step from b is within tol + 2 eps |x_b|,
    and returns b with c, the other end of the bracket.  NumericalFailureError after
    _MAX_ZEROIN_ITER evaluations.
    """
    c, step = a, b[0] - a[0]   # step and prev_step: the last two steps taken
    prev_step = step
    for _ in range(_MAX_ZEROIN_ITER):
        if (b[1] > 0.0) == (c[1] > 0.0):
            c, step = a, b[0] - a[0]
            prev_step = step
        if abs(c[1]) < abs(b[1]):
            a, b, c = b, c, b
        if b[1] == 0.0:
            return b, c
        tol_b = tol + 2.0 * sys.float_info.epsilon * abs(b[0])
        half = 0.5 * (c[0] - b[0])
        xa, fa, xb, fb, fc = a[0], a[1], b[0], b[1], c[1]
        if (abs(prev_step) >= tol_b and abs(fa) > abs(fb)
                and math.isfinite(fa) and math.isfinite(fc)):   # an infinite f bisects
            s = fb / fa
            if a is c:   # secant
                p, q = 2.0 * half * s, 1.0 - s
            else:        # inverse quadratic interpolation
                q, r = fa / fc, fb / fc
                p = s * (2.0 * half * q * (q - r) - (xb - xa) * (r - 1.0))
                q = (q - 1.0) * (r - 1.0) * (s - 1.0)
            p, q = (p, -q) if p > 0.0 else (-p, q)
            if 2.0 * p < min(3.0 * half * q - abs(tol_b * q), abs(prev_step * q)):
                prev_step, step = step, p / q
            else:
                prev_step = step = half
        else:
            prev_step = step = half
        if abs(step) <= tol_b:
            return b, c
        a, b = b, fun(xb + step)
    raise NumericalFailureError(
        f"zeroin did not converge in {_MAX_ZEROIN_ITER} steps: bracket [{b[0]!r}, {c[0]!r}]")


def _locate_zero(inputs, t, y, k0, h, y_end, rtol, atol, root_tol, slope=CALL, c=0):
    """(t*, y*, trials) where component c changes sign inside the step (t, y) -> (t + h, y_end).

    zeroin on the step length s in [0, h], to root_tol (t + h), each trial a fresh
    step of _dop853_step(len(y), slope) from the saved state; t and y are then
    interpolated linearly across the final bracket.  A trial that overflows is
    retried at _MIN_FACTOR of its distance from the longest trial that ended short
    of the zero, which keeps it inside the bracket.  trials counts the trial steps
    taken, overflowed ones included.
    """
    step = _dop853_step(len(y), slope)
    s_lo = 0.0
    trials = 0

    def trial(s):
        nonlocal s_lo, trials
        while True:
            trials += 1
            try:
                y_s = step(inputs, t, y, s, k0, rtol, atol)[0]
            except OverflowError:   # a rejected trial: retry shorter
                s = s_lo + _MIN_FACTOR * (s - s_lo)
                continue
            if (y_s[c] < 0.0) == (y[c] < 0.0):
                s_lo = max(s_lo, s)
            return s, y_s[c], y_s

    (s_b, f_b, y_b), (s_c, f_c, y_c) = zeroin(trial, (0.0, y[c], y), (h, y_end[c], y_end),
                                              root_tol * (t + h))
    w = f_b / (f_b - f_c)
    return t + s_b + w * (s_c - s_b), [p + w * (q - p) for p, q in zip(y_b, y_c)], trials


def integrate(rhs, t0, y0, t1, rtol, atol, output_ts=None, root_tol=None, trajectory=None,
              first_step=None, slope=CALL, inputs=None, also_stop=None):
    """Integrate y' = rhs(t, y) from t0 to t1 (t1 > t0).

    The step inlines slope at its stages, unpacking inputs into slope.inputs;
    by default the slope calls rhs.  Otherwise rhs must be
    slope_function(len(y0), slope)(inputs), which gives the slope at each
    state stepped from.

    atol is a per-component sequence (same length as y0).  output_ts, when
    given, must be ascending values in [t0, t1]; the steps do not change, and
    after the run grid_states holds the state at each: one step of length
    s - t_j from the accepted state t_j before s, or a copy where s is an
    accepted time (or within roundoff beyond t1).  With root_tol, integration
    stops where component 0, or also_stop if given, first changes sign: the
    crossing is located inside the last accepted step to root_tol relative, on
    each component that changed sign, and the earlier returned as (t, y),
    t < t1; grid points beyond it are dropped.  A trajectory list receives
    (t, y, k) for each state stepped from, t0 and every accepted state before
    the last, with k the slope rhs(t, y) that the step evaluated there as its
    first stage, and then (t, y, None) for the returned state; so a caller that
    tests the slopes along the run calls rhs no more.  The first trial step is
    first_step, by default (t1 - t0) / 64.  A trial step whose state is not
    finite, or whose arithmetic raises OverflowError, is rejected and retried
    at _MIN_FACTOR of its length.  After an accepted step of length h the next
    is h times the smaller of the two factors of the module docstring, 0.9
    err^(-1/8) and the predictive 0.9 (h / h_acc) (err_acc / err^2)^(1/8); the
    first step accepted after a rejection does not grow.  Raises
    NumericalFailureError on NaN/inf states, step-size underflow, _MAX_STEPS
    attempts, or an OverflowError of the slope at a state stepped from, which
    no shorter step avoids (the message quotes the line that overflowed).

    With root_tol the trials aim at the zeros (module docstring): while
    y[c] < 0 < y'[c], a trial is at most max(h_min, _TANGENT_REACH * -y[c]/y'[c])
    long (2 h_min for c = also_stop), and a rejected trial of length h that
    crossed a zero is retried at 0.9 h.
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

    if output_ts is not None and trajectory is None:
        trajectory = []   # the accepted states that the grid states are stepped from
    step = _dop853_step(n, slope)
    if inputs is None:
        inputs = rhs
    h_ctrl = span / 64.0 if first_step is None else float(first_step)
    h_min = 1e-14 * span
    n_steps = 0
    n_rejected = 0
    n_rhs = 0
    k0 = None   # rhs(t, y), kept across rejected attempts
    rejected = False   # the last attempt was rejected
    h_acc = 0.0   # the last accepted step (0.0 before the first) and its q
    q_acc = 1.0
    isfinite = math.isfinite
    rooting = root_tol is not None
    also = also_stop if rooting else None
    t_end, crossed = t1, False   # t1, or also's tangent cap; True once stopped at a zero

    while t < t1:
        if n_steps + n_rejected >= _MAX_STEPS:
            raise NumericalFailureError(f"step budget exhausted after {_MAX_STEPS} steps")
        if k0 is None:
            try:
                k0 = rhs(t, y)
            except OverflowError as exc:
                import traceback   # only here: it is slow to import and no other path needs it

                site = traceback.extract_tb(exc.__traceback__)[-1].line
                raise NumericalFailureError(
                    f"slope overflows at t={t!r}, y={y!r}, in {site!r}") from exc
            n_rhs += 1
            if trajectory is not None:
                trajectory.append((t, y, k0))
            if also:   # aim at also's zero too
                reach = (_TANGENT_REACH * -y[also] / k0[also] if y[also] < 0.0 < k0[also]
                         else math.inf)
                t_end = min(t1, t + max(reach, 2.0 * h_min))   # 2 h_min keeps t_end - t > h_min
        h = h_ctrl
        if rooting and y[0] < 0.0 < k0[0]:
            reach = _TANGENT_REACH * -y[0] / k0[0]
            if reach < h:   # h = min(h, max(reach, h_min))
                h = reach if reach > h_min or h_min > h else h_min
        if t + h > t_end:
            h = t_end - t
        clamped = h < h_ctrl
        if h < h_min:
            raise NumericalFailureError(f"step size underflow at t={t!r}")

        n_rhs += _RHS_PER_ATTEMPT
        try:
            y_new, err = step(inputs, t, y, h, k0, rtol, atol)
        except OverflowError:   # a float power overflowed inside a trial stage
            err = math.inf

        if not isfinite(err):
            n_rejected += 1
            rejected = True
            h_ctrl = h * _MIN_FACTOR
            if h_ctrl < h_min:
                raise NumericalFailureError(f"non-finite state at t={t!r}")
            continue

        if err <= 1.0:
            n_steps += 1
            if rooting and ((y_new[0] < 0.0) != (y[0] < 0.0)
                            or also and (y_new[also] < 0.0) != (y[also] < 0.0)):
                crossed = (y_new[0] < 0.0) != (y[0] < 0.0)   # else only also's changed sign
                zero = _locate_zero(inputs, t, y, k0, h, y_new, rtol, atol, root_tol, slope,
                                    0 if crossed else also)
                if crossed and also and (y_new[also] < 0.0) != (y[also] < 0.0):   # both crossed
                    other = _locate_zero(inputs, t, y, k0, h, y_new, rtol, atol, root_tol, slope,
                                         also)
                    n_rhs += _RHS_PER_ATTEMPT * other[2]
                    zero = min(zero, other)   # the earlier zero
                t, y, trials = zero
                n_rhs += _RHS_PER_ATTEMPT * trials
                crossed = True
                break
            t = t + h
            y = y_new
            k0 = None
            # one power p = err^(-1/8) serves the standard factor 0.9 p and Gustafsson's
            # predictive 0.9 (h / h_acc) q^2 / q_acc, where q is p with err floored at 1e-2
            p = err**_ORDER_EXP if err > 0.0 else math.inf
            factor = _SAFETY * p
            if factor > _MAX_FACTOR:
                factor = _MAX_FACTOR
            q = p if p < _Q_MAX else _Q_MAX
            if h_acc:
                predicted = _SAFETY * h / h_acc * q * q / q_acc
                if predicted < factor:
                    factor = predicted if predicted > _MIN_FACTOR else _MIN_FACTOR
            h_acc = h
            q_acc = q
            if rejected:   # no growth on the first step accepted after a rejection
                if factor > 1.0:
                    factor = 1.0
                rejected = False
            # a step shortened to t1 or the tangent cap must not erase the controller's memory
            h_new = h * factor
            if not clamped or h_new > h_ctrl:
                h_ctrl = h_new
        else:
            n_rejected += 1
            rejected = True
            if rooting and ((y_new[0] < 0.0) != (y[0] < 0.0)
                            or also and (y_new[also] < 0.0) != (y[also] < 0.0)):
                h_ctrl = _SAFETY * h
            else:
                factor = _SAFETY * err**_ORDER_EXP
                h_ctrl = h * (factor if factor > _MIN_FACTOR else _MIN_FACTOR)

    if trajectory is not None:
        trajectory.append((t, y, None))
    grid_states = None
    if output_ts is not None:
        # after a break at a zero, crossed is still True: grid points beyond it are dropped
        grid_states = []
        run = trajectory[len(trajectory) - n_steps - 1:]   # this run's n_steps + 1 states
        j = 0
        for s in map(float, output_ts):
            while j + 1 < len(run) and run[j + 1][0] <= s:
                j += 1
            t_j, y_j, k_j = run[j]
            if s <= t_j or k_j is None:   # on an accepted state, or beyond the last one
                if s > t_j and crossed:
                    break
                grid_states.append(list(y_j))
            else:
                grid_states.append(step(inputs, t_j, y_j, s - t_j, k_j, rtol, atol)[0])
                n_rhs += _RHS_PER_ATTEMPT
    return RKResult(t, y, grid_states, n_steps, n_rejected, n_rhs)
