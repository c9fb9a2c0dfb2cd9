"""Radial shooting for the k-Hessian Dirichlet problem on a ball.

The equation S_k(D^2 u) = (lambda f(-u))^k is integrated outward in its
integral form.  With the flux variable

    m(r) = r^(N-k) (u'(r))^k,

the exact identity S_k = C(N-1,k-1) r^(1-N)/k * d/dr[ r^(N-k) (u')^k ] turns
the problem into the first-order system

    u' = (m r^(k-N))^(1/k),
    m' = (k / C(N-1,k-1)) r^(N-1) (lambda f(-u))^k,

which has no singularity to integrate through and keeps u' >= 0 by
construction, so admissibility holds wherever the right-hand side is positive.
The origin is seeded by the quadratic series u ~ -d + a r^2/2 with curvature
a = lambda f(d) / C(N,k)^(1/k).

flux_ivp is the one shooting kernel, for this problem and for the two-component
system of system.py.  Each component i has forcing F_i = lambda w_i(s) with
S_k(D^2 u_i) = F_i^k: w = f here, w = g, h of (s_u, s_v) for the system.  It
seeds every component from its series (a_i = F_i(d) / C(N,k)^(1/k)), refuses a
negative or non-finite weight w_i, and steps one decade tighter than the
caller's tolerance tol (STEP_TOL_FACTOR = 0.1): relative tolerance 0.1 tol, and
absolute tolerance 0.1 tol 1e-3 max(d_i, 1) for u_i and 0.1 tol 1e-3
max(F_i^k R^N / C(N,k), 1e-30) for m_i, the value m(R) of constant forcing
F_i(d).  flux_profiles samples it on a grid of grid_points points, from the
steps of the fixed-R shot (rk.integrate re-steps to each grid point from the
accepted state before it), so a profile ends at that shot's u(R).  tol is one
float, TOL by default, passed down from every entry; each shot refuses a tol
outside (0, MAX_TOL) before its first IVP (_check_shot).

The slope is one source template (_flux_slope), which rk inlines at every
stage of its step and also compiles as the rhs(r, y) that flux_ivp returns, so
the two cannot drift apart.  One kernel is compiled per (weight formulas, N, k),
on first use, with the geometry folded in as literals: N - 1, N - k, k, 1/k,
(k - N)/k, the constant k / C(N-1,k-1) and the range of r where r^(N-k) is a
normal float.  A power of exponent 0 or 1 and a factor 1.0 are dropped, which
keeps every bit: at k = 1 (the semilinear case), N = k (Monge-Ampere) and
N <= 2 most of the stage powers go, all of them at N = 2, k = 1.  A weight with
a formula (core.Formula: every registry kind but tabulated, every two-argument
kind and every system._BoundWeight) is inlined from the same source that its
call evaluates, so the called and the inlined weight agree bit for bit; lambda
and the weight params are kernel inputs, so one kernel serves every value of
them at its (N, k).  Only a tabulated f, which has no formula, is called.
u' = (m / r^(N-k))^(1/k) takes one float power where r^(N-k) and the quotient
are normal floats, and exp(log(m)/k + (k-N)/k log(r)) elsewhere: r0^59
underflows to 0.0 at N = 60, k = 1, R = 1e-3, where the quotient would divide
by zero.

f is extended below zero by f(max(s, 0)): past the (single) zero crossing of a
too-strongly-forced profile the forcing switches off, keeping the boundary
residual u(R) continuous and increasing in lambda.  Accepted Dirichlet
solutions never use the extension (u <= 0 up to root tolerance).  m' has a
kink at that zero, so a run to it steps onto it, not across (rk.integrate);
a pair's root IVP stops at the first zero of u or v, for the same reason.

lambda(d) comes from one IVP by ball-radius scaling (Joseph & Lundgren 1973):
S_k(D^2 u)^(1/k) is homogeneous of degree 2 under x -> s x, so the solution
at a reference lambda0 with u(0) = -d, integrated up to its first zero
r = rho, rescales to the Dirichlet solution on B_R at lambda0 (rho / R)^2.
Since u' > 0 there is exactly one such zero, hence one lambda per amplitude.
The search stops at rho = 10^3 R (lambda <= 10^6 lambda0); an amplitude
without a zero by then has no lambda and becomes a gap.  The same IVP gives a
branch point its admissibility flag (trajectory_admissible on the trajectory
of lambda_at_amplitude), from the slopes that the stepper recorded at its
accepted states: the scaling maps it exactly onto the Dirichlet solution, the
cone test is invariant under it, and its accepted states end at the zero, so
none lies past it.  The first eigenvalue comes from the same device.  The
fixed-R residual u(R; lambda) stays as the independent path: it certifies the
solution counts of branch.verify_predictions, and the tests use it through
solve_lambda, which scans it in lambda and resolves each sign change by
rk.zeroin.  first_eigenvalue confirms lambda1 with one fixed-lambda1 run read at
R sqrt(1 -/+ w) and R, which the scaling makes u(R) at lambda1 (1 -/+ w) and at
lambda1, and requires u(R) < 0 at the low end and > 0 at the high end.

numpy is imported only inside radial_derivatives, flux_profiles,
_consistency_residuals, profile_admissible and solve_lambda, so only the
grid-profile functions (integrate_profile, self_consistency_residual,
profile_admissible, system.integrate_system) and solve_lambda load it.  No
command calls them, so no command loads numpy.
"""

from __future__ import annotations

import functools
import math
import sys

from . import rk
from .core import (
    FORMULA_GLOBALS,
    EigenvalueResult,
    NonlinearitySpec,
    ProblemSpec,
    binom,
    sk_from_radial,
)
from .errors import InvalidInputError, NumericalFailureError


# tol, the one tolerance: every IVP steps at STEP_TOL_FACTOR tol (flux_ivp), and every
# root is resolved to tol relative.  It lies in (0, MAX_TOL): eigen_rel_tol = 100 tol must
# stay below 1, or the far end of an eigenvalue bracket reaches lambda <= 0
TOL = 1e-10
MAX_TOL = 1e-2
GRID_POINTS = 1024   # points of a sampled profile on [0, R], at least 64
# flux_ivp steps at STEP_TOL_FACTOR times the caller's tolerance (rtol and both
# atols).  Measured against tol = 1e-13 over 280 scalar lambda(d)
# (8 registry kinds x (N,k) in 11,21,22,32,33,52,84 x d in 1e-2..1e2, R 1.13)
# and 441 coupled points (16-point traces of 9 pairs x (N,k) in 21,22,31,
# R 0.93): stepping at the caller's 1e-10 put 14 scalar and 10 coupled values
# beyond 1e-9 (worst 1.4e-8, saturating N5k2 at d = 100); one decade tighter
# puts none there (worst 8.7e-10 scalar, 5.1e-10 coupled; medians ~1e-12).
STEP_TOL_FACTOR = 0.1
HORIZON = 1e3   # lambda_at_amplitude looks for the first zero out to HORIZON * R


class RadialProfile:
    """Discretized radial solution (r_i, u_i, u'_i, u''_i) at one (lambda, d).

    upp is u'' evaluated from the integrated flux state, not differenced.
    """

    __slots__ = ("r", "u", "uprime", "upp", "lam", "d", "max_consistency_residual")

    def __init__(self, r: np.ndarray, u: np.ndarray, uprime: np.ndarray, upp: np.ndarray,
                 lam: float, d: float, max_consistency_residual: float = math.nan):
        self.r, self.u, self.uprime, self.upp = r, u, uprime, upp
        self.lam, self.d = lam, d
        self.max_consistency_residual = max_consistency_residual

    @property
    def boundary_value(self) -> float:
        return float(self.u[-1])


def _origin_radius(N: int, R: float) -> float:
    # keep r0^N representable; series truncation error is O(r0^4) regardless
    return R * max(1e-8, 10.0 ** (-280.0 / N))


def radial_derivatives(r, m, mprime, N: int, k: int):
    """(u', u'') on r > 0 from the flux m = r^(N-k) (u')^k and its slope m'.

    u'' = (u'/k) (m'/m - (N-k)/r), the logarithmic derivative of
    u' = (m r^(k-N))^(1/k); both are 0 where m = 0.
    """
    import numpy as np

    pos = m > 0.0
    m_safe = np.where(pos, m, 1.0)
    up = np.where(pos, np.exp(np.log(m_safe) / k + (k - N) / k * np.log(r)), 0.0)
    upp = np.where(pos, up / k * (mprime / m_safe - (N - k) / r), 0.0)
    return up, upp


def _refuse(w, s):
    ws = w if isinstance(w, tuple) else (w,)
    cause = "negative" if all(math.isfinite(x) for x in ws) else "non-finite"
    raise NumericalFailureError(
        f"nonlinearity returned {w!r} at s={s!r}; refusing a {cause} integrand")


_FLUX_GLOBALS = (("exp", math.exp), ("log", math.log), ("refuse", _refuse)) + FORMULA_GLOBALS


def _power(base: str, exp) -> str:
    """base ** exp as source, with the exponent 1 folded: x ** 1 is x under the float
    power (glibc pow is within 0.52 ulp, so it returns x itself).  Other exponents keep
    **, whose bits x * x or sqrt(x) do not always reproduce."""
    return base if exp == 1 else f"{base} ** {exp!r}"


def _times(coef: float, x: str) -> str:
    """coef * x as source, with the coefficient 1.0 folded: 1.0 * x is x in IEEE arithmetic."""
    return x if coef == 1.0 else f"{coef!r} * {x}"


@functools.cache
def _flux_slope(formulas, N: int, k: int) -> rk.Slope:
    """The flux slope of len(formulas) components at (N, k) as an rk.Slope: the one
    template of the module docstring, with weight i inlined from formulas[i] or, where
    that is None, called as the input fn<i>.

    The geometry is folded in as repr literals, which round-trip exactly, and a power
    of exponent 0 or 1 and a factor 1.0 are dropped, so the kernel gives the bits of
    the template with N - 1, N - k, k and 1/k as inputs: r ** 0 is 1.0, multiplied or
    divided away; at k = 1, r^(N-1) is r^(N-k) and is taken once, and ra and the log
    form lose their factor 1.0; and at N = k the range test on r goes (r^0 is 1.0 for
    every r > 0), as does the r term of the log form, 0.0 * log(r)."""
    n = len(formulas)
    ss = [f"s{i}" for i in range(n)]
    names = ["lam"]   # the inputs, in the order flux_kernel passes them
    weights = []
    for i, formula in enumerate(formulas):
        if formula is None:
            names.append(f"fn{i}")
            weights.append(f"fn{i}({', '.join(ss)})")
        else:
            params = [f"w{i}_{p}" for p in formula.params]
            names += params
            weights.append(formula.rename(dict(zip(formula.variables + formula.params,
                                                   ss + params))))
    ws = [f"w{i}" for i in range(n)]
    lines = ["r = {t}"]
    if n == 1:   # s = -u, and the forcing is off past the zero of u
        lines += ["m0 = {y1}", "s0 = -({y0})",
                  f"w0 = ({weights[0]}) if s0 > 0.0 else 0.0"]
    else:   # each s_i = -u_i clamped at 0, where the weights vanish
        for i in range(n):
            lines += [f"u{i} = {{y{2 * i}}}", f"m{i} = {{y{2 * i + 1}}}",
                      f"s{i} = -u{i} if u{i} < 0.0 else 0.0"]
        lines += [f"w{i} = {w}" for i, w in enumerate(weights)]
    lines.append(f"if not ({' and '.join(f'0.0 <= {w} < inf' for w in ws)}):")   # < 0, inf or NaN
    lines.append(f"    refuse({ws[0]}, s0)" if n == 1 else
                 f"    refuse(({', '.join(ws)}), ({', '.join(ss)}))")
    coef, k_inv = k / binom(N - 1, k - 1), 1.0 / k
    lines.append(f"ra = {coef!r}" if N == 1 else f"ra = {_times(coef, _power('r', N - 1))}")
    if N != k:
        # r^(N-k) is a normal float, by a wide margin, for r_lo < r < r_hi
        r_lo, r_hi = 1e-300 ** (1.0 / (N - k)), 1e300 ** (1.0 / (N - k))
        r_nk = "ra" if k == 1 else _power("r", N - k)   # k = 1: ra = 1.0 * r^(N-1)
        lines.append(f"rNk = {r_nk} if {r_lo!r} < r < {r_hi!r} else inf")
    for i in range(n):
        # u' = (m / r^(N-k))^(1/k) where r^(N-k) and the quotient are normal floats
        if N == k:
            q, test = f"m{i}", f"m{i}"
            log_form = f"exp({_times(k_inv, f'log(m{i})')})"
        else:
            q, test = "q", f"(q := m{i} / rNk)"
            log_form = f"exp({_times(k_inv, f'log(m{i})')} + {(k - N) / k!r} * log(r))"
        lines += [f"{{k{2 * i}}} = ({_power(q, k_inv)} if {sys.float_info.min!r} <= {test} < inf"
                  f" else {log_form} if m{i} > 0.0 else 0.0)",
                  f"{{k{2 * i + 1}}} = ra * {_power(f'(lam * w{i})', k)}"]
    label = " ".join("call" if f is None else f.kind for f in formulas)
    return rk.Slope(f"flux {label} N{N}k{k}", ", ".join(names) + ",", "\n".join(lines),
                    _FLUX_GLOBALS)


def flux_kernel(N: int, k: int, lam: float, weights):
    """(slope, inputs, rhs) of the flux system with forcing lam * weights: the rk.Slope
    that rk.integrate inlines, the inputs it unpacks, and the same slope as
    rhs(r, y).  weights is f, or (g, h)."""
    ws = (weights,) if callable(weights) else tuple(weights)
    formulas = tuple(getattr(w, "formula", None) for w in ws)
    slope = _flux_slope(formulas, N, k)
    inputs = (lam,)
    for w, formula in zip(ws, formulas):
        inputs += (w,) if formula is None else w.formula_values
    return slope, inputs, rk.slope_function(2 * len(ws), slope)(inputs)


def _power_product(x, p, y, q):
    """x^p y^q, through logarithms where x^p or y^q alone overflows and x > 0: at
    N = k = 60, R = 1e-3 the seed a^k r0^N has a^k = 1e360 but is about 1e-102."""
    try:
        return x**p * y**q
    except OverflowError:
        if not x > 0.0:
            raise
        return math.exp(p * math.log(x) + q * math.log(y))


def flux_ivp(N: int, k: int, R: float, lam: float, weights, amplitudes, tol: float,
             t1: float, **kw):
    """rk.integrate(**kw) of one or two flux components from the origin series out to t1.

    One component: weights = f, amplitudes = (d,), state (u, m).  Two: weights =
    (g, h), amplitudes = (d_u, d_v), state (u, m_u, v, m_v).  Forcing, series,
    tolerances, the slope kernel and the weight check are as in the module
    docstring.  The first trial step is (R - r0)/64 whatever t1 is, so a run to
    the first zero of u, out to HORIZON * R, does not start with a trial 10^3
    times too long.  With root_tol, rk.integrate aims its trials at that zero,
    where the forcing switches off, and at v's with also_stop=2.  Returns
    (result, rhs, curvatures): the slope as a function and the series
    curvatures a_i = u_i''(0).
    """
    tol *= STEP_TOL_FACTOR
    c_full = binom(N, k)
    slope, inputs, rhs = flux_kernel(N, k, lam, weights)
    if len(amplitudes) == 1:
        forcing = (lam * weights(amplitudes[0]),)
    else:
        forcing = tuple(lam * w(*amplitudes) for w in weights)

    r0 = _origin_radius(N, R)
    curvatures, y0, atol = [], [], []
    for d, F in zip(amplitudes, forcing):
        a = F / c_full ** (1.0 / k)
        curvatures.append(a)
        y0 += (-d + 0.5 * a * r0 * r0, _power_product(a, k, r0, N))
        atol += (tol * 1e-3 * max(d, 1.0),
                 tol * 1e-3 * max(_power_product(F, k, R, N) / c_full, 1e-30))
    res = rk.integrate(rhs, r0, y0, t1, rtol=tol, atol=atol, first_step=(R - r0) / 64.0,
                       slope=slope, inputs=inputs, **kw)
    return res, rhs, curvatures


def flux_profiles(N: int, k: int, R: float, lam: float, weights, amplitudes, tol: float,
                  *, grid_points: int = GRID_POINTS) -> tuple:
    """One RadialProfile per component of flux_ivp on grid_points points of [0, R].

    The run steps as the fixed-R shot does (shoot_boundary_value,
    system.system_boundary_values), and its grid states are read off its
    accepted states, so the profiles end at that shot's (u_i(R)) bit for bit.
    u'' comes from the flux state and the rhs's m'; each profile's consistency
    residual is sup over interior grid points of |S_k(u_i'', u_i'/r) - F_i^k|,
    u_i'' there by central differences of u_i', so it cross-checks the integral
    form against the differential form.
    """
    import numpy as np

    if grid_points < 64:
        raise InvalidInputError(f"grid_points must be >= 64, got {grid_points}")
    grid = np.linspace(0.0, R, grid_points)
    series = grid <= _origin_radius(N, R)
    outer = grid[~series]   # nonempty: grid_points >= 64 puts grid[1] far beyond r0
    res, rhs, curvatures = flux_ivp(N, k, R, lam, weights, amplitudes, tol, R,
                                    output_ts=outer)
    states = np.asarray(res.grid_states)
    slopes = np.array([rhs(r, y) for r, y in zip(outer, res.grid_states)])
    profiles = []
    for i, (d, a) in enumerate(zip(amplitudes, curvatures)):
        u, up, upp = np.empty_like(grid), np.empty_like(grid), np.empty_like(grid)
        u[series] = -d + 0.5 * a * grid[series] ** 2
        up[series] = a * grid[series]
        upp[series] = a
        u[~series] = states[:, 2 * i]
        up[~series], upp[~series] = radial_derivatives(
            outer, states[:, 2 * i + 1], slopes[:, 2 * i + 1], N, k)
        profiles.append(RadialProfile(r=grid, u=u, uprime=up, upp=upp, lam=lam, d=d))
    for prof, res_i in zip(profiles, _consistency_residuals(profiles, lam, weights, N, k)):
        prof.max_consistency_residual = res_i
    return tuple(profiles)


def _check_shot(lam: float, amplitudes, tol: float) -> None:
    """InvalidInputError unless 0 < tol < MAX_TOL, lam is finite and >= 0 and every
    amplitude is positive and finite: the inputs of one scalar or coupled shot."""
    if not 0.0 < tol < MAX_TOL:
        raise InvalidInputError(f"tol must satisfy 0 < tol < {MAX_TOL:g}, got {tol!r}")
    for d in amplitudes:
        if not 0.0 < d < math.inf:
            raise InvalidInputError(f"amplitude must be positive and finite, got {d!r}")
    if not 0.0 <= lam < math.inf:
        raise InvalidInputError(f"lambda must be finite and nonnegative, got {lam!r}")


def _check_inputs(spec: ProblemSpec, lam: float, d: float, tol: float) -> None:
    if not isinstance(spec, ProblemSpec):
        raise InvalidInputError("spec must be a ProblemSpec")
    _check_shot(lam, (d,), tol)


def shoot_boundary_value(spec: ProblemSpec, lam: float, d: float, tol: float = TOL) -> float:
    """u(R) of the initial value problem with u(0) = -d; no profile is stored."""
    _check_inputs(spec, lam, d, tol)
    if lam == 0.0:
        return -d
    return flux_ivp(spec.N, spec.k, spec.R, lam, spec.f, (d,), tol, spec.R)[0].y[0]


def lambda_at_amplitude(spec: ProblemSpec, d: float, lam0: float, tol: float = TOL,
                        trajectory=None) -> float | None:
    """lambda(d) = lam0 (rho / R)^2 from one IVP at lam0 run to its first zero rho.

    lam0 near lambda(d) keeps rho near R.  None when u has no zero before
    rho = HORIZON * R, i.e. no lambda <= HORIZON^2 lam0 at this amplitude.
    trajectory is as in rk.integrate.
    """
    _check_inputs(spec, lam0, d, tol)
    if lam0 == 0.0:
        raise InvalidInputError("reference lambda must be positive")
    horizon = HORIZON * spec.R
    res = flux_ivp(spec.N, spec.k, spec.R, lam0, spec.f, (d,), tol, horizon,
                   root_tol=tol, trajectory=trajectory)[0]
    return None if res.t >= horizon else lam0 * (res.t / spec.R) ** 2


def integrate_profile(spec: ProblemSpec, lam: float, d: float, tol: float = TOL, *,
                      grid_points: int = GRID_POINTS) -> RadialProfile:
    """Full radial profile on the fixed output grid of grid_points points."""
    _check_inputs(spec, lam, d, tol)
    return flux_profiles(spec.N, spec.k, spec.R, lam, spec.f, (d,), tol,
                         grid_points=grid_points)[0]


def differenced_sk(profile: RadialProfile, N: int, k: int) -> np.ndarray:
    """S_k(u'', u'/r) at the interior grid points, u'' by central differences of u'."""
    r, up = profile.r, profile.uprime
    if len(r) < 3:
        raise InvalidInputError("profile too short for a consistency check")
    h = r[1] - r[0]
    return sk_from_radial((up[2:] - up[:-2]) / (2.0 * h), up[1:-1] / r[1:-1], N, k)


def _consistency_residuals(profiles, lam: float, weights, N: int, k: int) -> list[float]:
    """sup over interior grid points of |S_k(u_i'', u_i'/r) - (lam w_i(s))^k| per profile,
    with weights and s as in flux_ivp."""
    import numpy as np

    ws = (weights,) if len(profiles) == 1 else weights
    s = list(zip(*(np.maximum(-p.u[1:-1], 0.0) for p in profiles)))
    out = []
    for p, w in zip(profiles, ws):
        want = np.array([(lam * w(*x)) ** k for x in s])
        out.append(float(np.max(np.abs(differenced_sk(p, N, k) - want))))
    return out


def self_consistency_residual(profile: RadialProfile, spec: ProblemSpec) -> float:
    """sup over interior grid points of |S_k(u'', u'/r) - (lambda f(-u))^k|.

    u'' comes from second-order central differences of the stored u', so this
    cross-checks the integral-form integration against the differential form.
    """
    return _consistency_residuals((profile,), profile.lam, spec.f, spec.N, spec.k)[0]


def profile_admissible(profile: RadialProfile, N: int, k: int) -> bool:
    """Cone membership S_j > 0, j = 1..k, at every interior grid point.

    Uses the profile's u'' from the flux state: near r = R, S_k can be far
    smaller than the O(h^2) error of a differenced u''.
    """
    import numpy as np

    if len(profile.r) < 3:
        raise InvalidInputError("profile too short for an admissibility check")
    q = profile.uprime[1:-1] / profile.r[1:-1]
    upp = profile.upp[1:-1]
    return all(np.all(sk_from_radial(upp, q, N, j) > 0.0) for j in range(1, k + 1))


def trajectory_admissible(trajectory) -> bool:
    """Cone membership at the interior states (r, y, slope) of a flux_ivp trajectory.

    The flux components m of y, and their slopes m', are the odd entries of y and
    of the slope that the stepper recorded with y (rk.integrate), so the test
    calls no rhs.
    S_k = C(N-1,k-1) r^(1-N) m'/k, and u' > 0 with S_k > 0 gives S_j > 0 for
    j < k, so m > 0 and m' > 0 is the test: no u'', whose S_j cancel to
    rounding within a step of R.  The end states are dropped, as r = 0 and R
    are by profile_admissible: the last is at R or at the zero of u.

    The flag is exact for a run that stops at the first zero of u, as
    lambda_at_amplitude's does, and for a Dirichlet solution, whose u stays
    <= 0 up to R.  A fixed-R run at a detuned lambda can overshoot 0 before R,
    where the forcing switches off and m' = 0; its accepted steps resolve that
    overshoot only to one step, so profile_admissible on a grid is the
    reference there."""
    for _, y, slope in trajectory[1:-1]:
        if not all(y[i] > 0.0 and slope[i] > 0.0 for i in range(1, len(y), 2)):
            return False
    return True


# ---------------------------------------------------------------------------
# root finding on the boundary residual
# ---------------------------------------------------------------------------


def solve_lambda(spec: ProblemSpec, d: float, bracket, tol: float = TOL,
                 scan_cells: int = 64) -> list[float]:
    """All lambda roots of the boundary residual at fixed amplitude d.

    Log-spaced scan over the bracket followed by rk.zeroin on every sign
    change, to tol relative to the scan cell's upper end.  Empty list
    means no root in the bracket (non-existence evidence at this amplitude).
    Roots are sorted ascending; more than one is unusual but reported rather
    than suppressed.
    """
    import numpy as np

    lam_lo, lam_hi = bracket
    if not (lam_lo < lam_hi):
        raise InvalidInputError(f"empty bracket {bracket!r}")
    if lam_lo < 0.0:
        raise InvalidInputError("bracket must lie in lambda >= 0")
    _check_inputs(spec, lam_lo, d, tol)
    if scan_cells < 2:
        raise InvalidInputError(f"scan_cells must be >= 2, got {scan_cells}")

    lo_eff = max(lam_lo, lam_hi * 1e-15)
    nodes = np.geomspace(lo_eff, lam_hi, scan_cells + 1)
    if lam_lo < lo_eff:
        nodes = np.concatenate([[lam_lo], nodes])

    def res(lam):   # a point of rk.zeroin
        return lam, shoot_boundary_value(spec, lam, d, tol), None

    points = [res(float(lam)) for lam in nodes]
    roots = []
    for a, b in zip(points, points[1:]):
        if a[1] == 0.0:
            roots.append(a[0])
        elif (a[1] < 0.0) != (b[1] < 0.0):
            roots.append(rk.zeroin(res, a, b, tol * b[0])[0][0])
    if points[-1][1] == 0.0:
        roots.append(points[-1][0])
    return sorted(roots)


def eigen_rel_tol(tol: float) -> float:
    """Relative width 100 tol within which two eigenvalue computations must agree (1e-8
    at TOL)."""
    return 100.0 * tol


def first_eigenvalue(N: int, k: int, R: float, tol: float = TOL) -> EigenvalueResult:
    """First eigenvalue: S_k(D^2 v) = lambda1^k |v|^k with v(R) = 0, v < 0 inside.

    Degree-k homogeneity makes the amplitude irrelevant, so the linear problem
    runs at d = 1, and ball-radius scaling gives lambda1 = (rho / R)^2 from the
    first zero rho of one IVP at lambda = 1 / R^2.  The same scaling gives
    u(R; lambda1 (1 + e)) = u(R sqrt(1 + e); lambda1), so one fixed-lambda1 run
    out to R sqrt(1 + w), read at R sqrt(1 - w) and R (w = eigen_rel_tol(tol)),
    gives u(R) at lambda1 (1 - w), lambda1 and lambda1 (1 + w).  u(R) increases
    with lambda, and the two ends must be a shot on each side of its root,
    u_lo < 0 < u_hi: an independent check that the fixed-R root lies within
    relative w of the scaled value; otherwise NumericalFailureError.  residual
    is the value at R, and iterations counts the IVPs: 2.
    """
    spec = ProblemSpec(N=N, k=k, R=float(R), f=NonlinearitySpec("linear"))
    lam = lambda_at_amplitude(spec, 1.0, 1.0 / R**2, tol)
    if lam is None:
        raise NumericalFailureError(f"no first eigenvalue found for N={N}, k={k}, R={R!r}")
    w, R = eigen_rel_tol(tol), spec.R
    res = flux_ivp(N, k, R, lam, spec.f, (1.0,), tol, R * math.sqrt(1.0 + w),
                   output_ts=(R * math.sqrt(1.0 - w), R))[0]
    (u_lo, _), (residual, _) = res.grid_states
    if not u_lo < 0.0 < res.y[0]:
        raise NumericalFailureError(
            f"fixed-R residual does not change sign across the scaled eigenvalue {lam!r}: "
            f"u(R; {lam * (1.0 - w)!r}) = {u_lo!r}, u(R; {lam * (1.0 + w)!r}) = {res.y[0]!r}")
    return EigenvalueResult(lambda1=lam, residual=residual, iterations=2)
