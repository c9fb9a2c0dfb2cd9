"""Coupled radial k-Hessian systems: two-parameter shooting and eigen-structure.

Two coupled components on the same ball,

    S_k(D^2 u) = (lambda g(-u, -v))^k,
    S_k(D^2 v) = (lambda h(-u, -v))^k,

integrated simultaneously by the scalar problem's kernel, shooting.flux_ivp,
with forcing F_u = lambda g and F_v = lambda h.  At fixed u-amplitude d_u,
ball-radius scaling (as for lambda(d) in shooting.py) turns the Dirichlet
conditions (u(R), v(R)) = (0, 0) into one root in log d_v: u and v of the pair
IVP at a reference lambda_ref vanish at the same rho, lambda = lambda_ref (rho / R)^2.
Each IVP of that root stops at the first zero of u or v, and one fixed-R shot of the
pair confirms the point (_confirmed_zero).  Where g(s, s) = h(s, s), u = v at
d_v = d_u, and a search from there takes rho from an IVP of u alone.
branch.trace traces the branch over d = d_u + d_v with that point solver and returns a
plain Branch of SystemBranchPoints, which the scalar report path (cli) checks as it
checks scalar ones.

The power-pair eigenproblem S_k(D^2 u) = lambda (-v)^alpha, S_k(D^2 v) =
mu (-u)^beta (alpha beta = k^2) takes the same confirmed root at lambda = 1 with weights
(lambda_ref s_v^alpha)^(1/k) and (mu_ref s_u^beta)^(1/k), and (lambda, mu) =
(lambda_ref, mu_ref) (rho / R)^(2k).  That scaling moves a sample along the ray
mu / lambda = const and multiplies lambda mu^(alpha/k) by (rho / R)^(2k + 2 alpha),
so the product is constant across samples only through amplitude homogeneity,
which the root never applies.  Each sample's d_v starts at the previous root's image
under that homogeneity, but the root is still bracketed and resolved on the sample's
own IVPs, so a wrong guess costs IVPs, not accuracy: the checked claim stays
independent of homogeneity.

Two-argument nonlinearities are weight forms phi(x) * w(s + t), with phi = t
for the u-equation ("_t" kinds) and phi = s for the v-equation ("_s" kinds).
Each base w is one row of _PAIR_BASES, checked by core.kind_row as a scalar kind is:

    linear_t/_s        w = 1                      (1, 1)
    saturating_t/_s    w = 1/(1+x)                (1, 0)
    superlinear_t/_s   w = 1+x                    (1, inf)
    rational_t/_s      w = (1+b x)/(1+x)          (1, b)
    powermix_t/_s      w = x^(-1/2) + x           (inf, inf)
    logbump_t/_s       w = log(1+x^2)/x           (0, 0; coercive in s+t)

where the class pair is (lim_{x->0} w, lim_{x->inf} w) relative to |t| (resp.
|s|).  All of them are non-decreasing in their coupling variable on s, t >= 0.
"""

from __future__ import annotations

import functools
import math
from typing import NamedTuple

from . import rk, shooting
from .branch import Branch, VerificationReport, reference_lambda, solution_amplitudes, trace
from .core import Formula, LimitClass, _check_order, check_keys, kind_row, number
from .errors import InvalidInputError, NumericalFailureError
from .shooting import (
    GRID_POINTS,
    TOL,
    _check_shot,
    eigen_rel_tol,
    first_eigenvalue,
    flux_ivp,
    flux_profiles,
    trajectory_admissible,
)


# ---------------------------------------------------------------------------
# two-argument nonlinearities
# ---------------------------------------------------------------------------

# Each pair base is one row: w as source over s + t and the base's params, the params'
# names, and (lim0, liminf) of w as a function of the params' values, built on each
# call.  w is evaluated only where the coupling variable is positive, so s + t > 0.
_PAIR_BASES = {
    "linear": ("1.0", (), lambda: (LimitClass.finite(1.0), LimitClass.finite(1.0))),
    "saturating": ("1.0 / (1.0 + (s + t))", (),
                   lambda: (LimitClass.finite(1.0), LimitClass.zero())),
    "superlinear": ("1.0 + (s + t)", (), lambda: (LimitClass.finite(1.0), LimitClass.infinite())),
    "rational": ("(1.0 + b * (s + t)) / (1.0 + (s + t))", ("b",),
                 lambda b: (LimitClass.finite(1.0), LimitClass.finite(b))),
    "powermix": ("(s + t)**-0.5 + (s + t)", (),
                 lambda: (LimitClass.infinite(), LimitClass.infinite())),
    "logbump": ("log1p((s + t) * (s + t)) / (s + t)", (),
                lambda: (LimitClass.zero(), LimitClass.zero())),
}


class NonlinearitySpec2:
    """g(s, t) (kinds ``*_t``, coupling through t) or h(s, t) (kinds ``*_s``).

    Zeros exactly where the coupling variable vanishes; limit classes are
    relative to |t| (for g) or |s| (for h) as |s + t| tends to 0 / infinity.
    w, its params and its classes are the row of the kind's base in _PAIR_BASES.
    The weight is stored once, as formula (a core.Formula over s, t: phi w,
    and 0 where phi = 0) with its params' floats in formula_values; the call
    evaluates formula.function(formula_values), and the flux kernels inline
    the same source.
    """

    __slots__ = ("kind", "params", "couples_in_t", "lim0", "liminf",
                 "formula", "formula_values", "_eval")

    def __init__(self, kind: str, params: dict | None = None):
        self.kind = kind
        self.params = {} if params is None else params
        base, _, suffix = self.kind.rpartition("_")
        if suffix not in ("t", "s") or base not in _PAIR_BASES:
            raise InvalidInputError(f"two-argument kind must be one of {sorted(_PAIR_BASES)} "
                                    f"with suffix _t or _s, got {self.kind!r}")
        self.couples_in_t = suffix == "t"
        w, names, self.formula_values, (self.lim0, self.liminf) = kind_row(
            _PAIR_BASES, base, self.params)
        phi = "t" if self.couples_in_t else "s"
        self.formula = Formula(self.kind, f"0.0 if {phi} == 0.0 else {phi} * ({w})",
                               ("s", "t"), names)
        self._eval = self.formula.function(self.formula_values)

    def __call__(self, s: float, t: float) -> float:
        if s < 0.0 or t < 0.0:
            raise InvalidInputError(f"evaluated at negative arguments ({s!r}, {t!r})")
        return self._eval(s, t)

    def to_json(self) -> dict:
        return {"kind": self.kind, "params": dict(self.params)}

    @staticmethod
    def from_json(obj) -> "NonlinearitySpec2":
        if not isinstance(obj, dict) or "kind" not in obj:
            raise InvalidInputError(f"bad two-argument nonlinearity spec {obj!r}")
        check_keys(obj, ("kind", "params"), "two-argument nonlinearity")
        return NonlinearitySpec2(obj["kind"], dict(obj.get("params", {})))


class SystemSpec:
    """Coupled problem on the ball B_R: u driven by g, v driven by h."""

    __slots__ = ("N", "k", "R", "g", "h", "monotone_g_in_t", "monotone_h_in_s")

    def __init__(self, N: int, k: int, R: float, g: NonlinearitySpec2, h: NonlinearitySpec2,
                 monotone_g_in_t: bool = True, monotone_h_in_s: bool = True):
        _check_order(N, k)
        if not (0.0 < R < math.inf):
            raise InvalidInputError(f"radius must be positive and finite, got {R!r}")
        if not g.couples_in_t:
            raise InvalidInputError("g must couple through t (a *_t kind)")
        if h.couples_in_t:
            raise InvalidInputError("h must couple through s (a *_s kind)")
        self.N, self.k, self.R, self.g, self.h = N, k, R, g, h
        self.monotone_g_in_t = monotone_g_in_t
        self.monotone_h_in_s = monotone_h_in_s

    @property
    def matched_classes(self) -> bool:
        return (self.g.lim0.agrees_with(self.h.lim0)
                and self.g.liminf.agrees_with(self.h.liminf))

    @property
    def mu(self) -> LimitClass:
        return self.g.lim0

    @property
    def nu(self) -> LimitClass:
        return self.g.liminf

    def to_json(self) -> dict:
        return {"N": self.N, "k": self.k, "R": self.R,
                "g": self.g.to_json(), "h": self.h.to_json(),
                "monotone": {"g_in_t": self.monotone_g_in_t,
                             "h_in_s": self.monotone_h_in_s}}

    @staticmethod
    def from_json(obj: dict) -> "SystemSpec":
        if not isinstance(obj, dict):
            raise InvalidInputError(f"system spec must be a JSON object, got {obj!r}")
        check_keys(obj, ("N", "k", "R", "g", "h", "monotone"), "system spec")
        mono = obj.get("monotone", {})
        if not (isinstance(mono, dict) and set(mono) <= {"g_in_t", "h_in_s"}
                and all(isinstance(flag, bool) for flag in mono.values())):
            raise InvalidInputError(
                f"monotone must map g_in_t and h_in_s to true or false, got {mono!r}")
        try:
            return SystemSpec(
                N=obj["N"], k=obj["k"], R=number(obj["R"], "R"),
                g=NonlinearitySpec2.from_json(obj["g"]),
                h=NonlinearitySpec2.from_json(obj["h"]),
                monotone_g_in_t=mono.get("g_in_t", True),
                monotone_h_in_s=mono.get("h_in_s", True),
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise InvalidInputError(f"bad system spec: {exc}") from exc


# ---------------------------------------------------------------------------
# coupled integration
# ---------------------------------------------------------------------------


def integrate_system(spec: SystemSpec, lam: float, d_u: float, d_v: float, tol: float = TOL,
                     *, grid_points: int = GRID_POINTS):
    """Simultaneous outward integration; returns the (u, v) profile pair on grid_points
    points."""
    _check_shot(lam, (d_u, d_v), tol)
    return flux_profiles(spec.N, spec.k, spec.R, lam, (spec.g, spec.h), (d_u, d_v), tol,
                         grid_points=grid_points)


def system_boundary_values(spec: SystemSpec, lam: float, d_u: float, d_v: float,
                           tol: float = TOL):
    """(u(R), v(R)) without storing profiles."""
    _check_shot(lam, (d_u, d_v), tol)
    if lam == 0.0:
        return -d_u, -d_v
    y = flux_ivp(spec.N, spec.k, spec.R, lam, (spec.g, spec.h), (d_u, d_v), tol,
                 spec.R)[0].y
    return y[0], y[2]


# ---------------------------------------------------------------------------
# Dirichlet points: one scaled 1-D root, confirmed by a fixed-R shot
# ---------------------------------------------------------------------------


class SystemBranchPoint(NamedTuple):
    d_u: float
    d_v: float
    lam: float
    res_u: float
    res_v: float
    admissible: bool = True
    seed: bool = True   # False for points the tracer inserted (refinement, fold polish)

    @property
    def d(self) -> float:
        """Total amplitude d_u + d_v, the branch coordinate."""
        return self.d_u + self.d_v


class _BoundWeight(NamedTuple):
    """A weight as formula with its params bound to formula_values, called or, by the
    flux kernels, inlined: the power-pair weights and a pair's diagonal weight."""

    formula: Formula
    formula_values: tuple

    def __call__(self, *x: float) -> float:
        return self.formula.function(self.formula_values)(*x)


def _pair_gap(ivp, horizon):
    """F = (v / v' - u / u') / rho, from one slope at the stop rho of a pair root IVP
    (ivp = flux_ivp(...) run out to horizon); +inf when neither u nor v vanished."""
    res, rhs, _ = ivp
    if res.t >= horizon:
        return math.inf
    y, slope = res.y, rhs(res.t, res.y)
    return (y[2] / slope[2] - y[0] / slope[0]) / res.t


def _diagonal_weight(weights):
    """g(s, s) as a _BoundWeight over s when the weights (g, h) agree as formulas on the
    diagonal s = t (equal source with t renamed s, params and values); else None."""
    g, h = weights
    formula = _diagonal_formula(g.formula, h.formula)
    if formula is None or g.formula_values != h.formula_values:
        return None
    return _BoundWeight(formula, g.formula_values)


@functools.cache
def _diagonal_formula(g, h):
    """g(s, s) as a Formula over s when the formulas g and h have equal source with t
    renamed s and equal params, else None: renamed once per pair of formulas."""
    source = g.rename({"t": "s"})
    if (source, g.params) != (h.rename({"t": "s"}), h.params):
        return None
    return Formula(f"{g.kind}(s, s)", source, ("s",), g.params)


def _common_zero(N, k, R, weights, d_u, lam_ref, dv0, tol, z_tol=None):
    """(rho, d_v) where u and v of the pair IVP at lam_ref, weights (g, h) and (d_u, d_v)
    vanish together.

    The IVP stops at the first zero rho of u or of v, where one slope evaluation gives
    the gap F = (v / v' - u / u') / rho between the Newton estimates of the two zeros:
    F > 0 when v vanishes first, F < 0 when u does, and F and its slope are continuous
    through the root.  F falls as d_v grows (g rises in t, h in s); no zero of either
    before shooting.HORIZON R counts as F = +inf.  A march in z = log d_v brackets its sign
    change: a first step of 0.1, then the secant of its last two finite F, overshot by
    2%, at most 0.2, 0.4, 0.8, ...  rk.zeroin resolves it to z_tol (tol if None) in z.
    The root is zeroin's end of smaller |F|, an evaluated IVP, so rho and d_v always
    belong to one run.  When dv0 == d_u and the weights agree on the diagonal
    (_diagonal_weight), v = u, so F = 0 wherever u has a zero: rho is the first zero of
    one IVP of u alone, and d_v = d_u.  Without a zero there F = +inf at dv0, and the
    march starts from that."""
    horizon = shooting.HORIZON * R

    def point(d_v):   # (log d_v, F, (rho, d_v)), rho None when neither u nor v vanishes
        if not d_v > 0.0:
            raise NumericalFailureError(f"d_v underflows to {d_v!r} (d_u = {d_u!r})")
        ivp = flux_ivp(N, k, R, lam_ref, weights, (d_u, d_v), tol, horizon, root_tol=tol,
                       also_stop=2)
        rho = ivp[0].t
        return math.log(d_v), _pair_gap(ivp, horizon), (rho if rho < horizon else None, d_v)

    diagonal = _diagonal_weight(weights) if dv0 == d_u else None
    if diagonal is not None:
        rho = flux_ivp(N, k, R, lam_ref, diagonal, (d_u,), tol, horizon, root_tol=tol)[0].t
        if rho < horizon:
            return rho, d_u
    prev = point(dv0) if diagonal is None else (math.log(dv0), math.inf, (None, dv0))
    up = prev[1] > 0.0
    before = None   # the point evaluated before prev
    for n in range(10):   # ten doublings reach log(d_v / dv0) = +-102.3
        step = (0.1 if up else -0.1) * 2.0**n
        if n and math.isfinite(before[1]) and math.isfinite(prev[1]):
            secant = 1.02 * prev[1] * (prev[0] - before[0]) / (before[1] - prev[1])
            if 0.0 < secant / step < 1.0:
                step = secant
        cur = point(math.exp(prev[0] + step))
        if (cur[1] > 0.0) != up:
            break
        before, prev = prev, cur
    else:
        reason = (f"u has no zero before {shooting.HORIZON:g} R" if prev[2][0] is None
                  else "the gap between the zeros of u and v did not change sign "
                       "after 10 doublings")
        raise NumericalFailureError(
            f"{reason} from d_v = {dv0!r} (d_u = {d_u!r}, lambda_ref = {lam_ref!r})")
    return rk.zeroin(lambda z: point(math.exp(z)), prev, cur,
                     tol if z_tol is None else z_tol)[0][2]


def _confirmed_zero(N, k, R, weights, d_u, lam_ref, dv0, tol, trajectory=None, z_tol=None):
    """(rho, d_v, res_u, res_v) of _common_zero's root (to z_tol), confirmed by one free
    shot to R at the kernel scale lam_ref (rho / R)^2 (trajectory as in rk.integrate):
    residuals (u(R), v(R)) beyond eigen_rel_tol(tol) of (d_u, d_v) raise
    NumericalFailureError."""
    rho, d_v = _common_zero(N, k, R, weights, d_u, lam_ref, dv0, tol, z_tol)
    scale = lam_ref * (rho / R) ** 2
    ru, _, rv, _ = flux_ivp(N, k, R, scale, weights, (d_u, d_v), tol, R,
                            trajectory=trajectory)[0].y
    width = eigen_rel_tol(tol)
    if max(abs(ru) / d_u, abs(rv) / d_v) > width:
        raise NumericalFailureError(
            f"fixed-R residual check failed at d_u = {d_u!r}, d_v = {d_v!r}, kernel scale "
            f"{scale!r}: res_u = {ru!r}, res_v = {rv!r} exceed {width:g} of d_u, d_v")
    return rho, d_v, ru, rv


def solve_system_shooting(spec: SystemSpec, d_u: float, init,
                          tol: float = TOL) -> SystemBranchPoint:
    """Dirichlet point at d_u from init = (lambda_ref, d_v0): the root of _common_zero with
    lambda = lambda_ref (rho / R)^2 (from one IVP of u alone when d_v0 = d_u on a pair
    with g(s, s) = h(s, s)), confirmed by _confirmed_zero's fixed-R shot of the pair,
    whose accepted states give the admissibility flag (shooting.trajectory_admissible)."""
    lam_ref, dv0 = init
    _check_shot(lam_ref, (d_u, dv0), tol)
    if lam_ref == 0.0:
        raise InvalidInputError("reference lambda must be positive")

    states = []
    rho, d_v, ru, rv = _confirmed_zero(spec.N, spec.k, spec.R, (spec.g, spec.h), d_u, lam_ref,
                                       dv0, tol, states)
    return SystemBranchPoint(d_u=d_u, d_v=d_v, lam=lam_ref * (rho / spec.R) ** 2,
                             res_u=ru, res_v=rv, admissible=trajectory_admissible(states))


def confirm_coupled_eigenvalue(N: int, k: int, R: float, lam1: float,
                               tol: float = TOL) -> float:
    """lam1, the scalar first eigenvalue, as the coupled eigenvalue lambda0.

    A coupled solve that does not impose symmetry must find lam1 again.
    Disagreement beyond eigen_rel_tol(tol) relative (1e-8 at TOL) is
    an internal inconsistency and raises NumericalFailureError.
    """
    spec = SystemSpec(N=N, k=k, R=R,
                      g=NonlinearitySpec2("linear_t"),
                      h=NonlinearitySpec2("linear_s"))
    point = solve_system_shooting(spec, 1.0, (1.07 * lam1, 0.9), tol)
    if abs(point.lam - lam1) > eigen_rel_tol(tol) * lam1:
        raise NumericalFailureError(
            f"asymmetric coupled solve gave {point.lam!r}, symmetric reduction {lam1!r}")
    return lam1


# ---------------------------------------------------------------------------
# power-pair eigen manifold
# ---------------------------------------------------------------------------


# the power-pair weights (lambda_ref s_v^alpha)^(1/k) and (mu_ref s_u^beta)^(1/k), with
# (c, a, k_inv) = (lambda_ref, alpha, 1/k) and (mu_ref, beta, 1/k)
_POWER_T = Formula("power_t", "(c * t**a) ** k_inv", ("s", "t"), ("c", "a", "k_inv"))
_POWER_S = Formula("power_s", "(c * s**a) ** k_inv", ("s", "t"), ("c", "a", "k_inv"))


class PowerPairResult(NamedTuple):
    alpha: float
    beta: float
    samples: list
    constant: float
    max_rel_deviation: float


def power_pair_constant(N: int, k: int, alpha: float, beta: float, R: float = 1.0,
                        n_samples: int = 8, tol: float = TOL,
                        mu_lo: float | None = None, mu_hi: float | None = None) -> PowerPairResult:
    """Constancy of lambda * mu^(alpha/k) for S_k(D^2 u) = lambda (-v)^alpha,
    S_k(D^2 v) = mu (-u)^beta with alpha beta = k^2.

    Each sample, seeded at mu_ref on the log grid over [mu_lo, mu_hi], is the root that
    _confirmed_zero confirms, with the u-amplitude normalized to 1 (degree-k^2
    homogeneity), so it lands at mu = mu_ref (rho / R)^(2k).  Its lambda_ref is the
    previous sample's product on the new ray, detuned by 1.17 so that rho moves off R.
    Its d_v starts at 1.17^(-1/(k + alpha)) (mu_ref / mu_prev)^(1/k) d_v,prev, the image
    of the previous root on the detuned ray under u -> u, v -> b v, which maps
    (lambda, mu) to (lambda b^-alpha, mu b^k).  Where the product is constant that
    image is the sample's root, so every sample after the first, and the first at
    alpha = beta = k, takes 2 root IVPs and the fixed-R shot.  The seed only shortens
    the search: the root is still zeroin's end of a bracket of evaluated IVPs of
    opposite F, and a seed that missed, as it would if the product were not constant,
    costs IVPs, not accuracy.  zeroin runs to tol / 10 in log d_v: with the seed
    scaled by 0.7, a root to tol moves samples up to 3.0e-10 from a tol-1e-13 run
    (N2k2), against 3.1e-11 at tol / 10.  Samples come in increasing mu; the constant
    is the geometric mean of the products and the maximum relative deviation
    quantifies the constancy.
    """
    if not (alpha > 0.0 and beta > 0.0):
        raise InvalidInputError("alpha and beta must be positive")
    if abs(alpha * beta - k * k) > 1e-12 * k * k:
        raise InvalidInputError(
            f"alpha*beta must equal k^2, got {alpha}*{beta} != {k*k}")
    if n_samples < 2:
        raise InvalidInputError("need at least 2 mu samples")
    if not all(m is None or 0.0 < m < math.inf for m in (mu_lo, mu_hi)):
        raise InvalidInputError(
            f"mu range must be positive and finite, got ({mu_lo!r}, {mu_hi!r})")
    lam1 = first_eigenvalue(N, k, R, tol).lambda1
    if mu_lo is None:
        mu_lo = 1e-2 * lam1**k
    if mu_hi is None:
        mu_hi = 1e2 * lam1**k
    if not (mu_lo < mu_hi):
        raise InvalidInputError(f"bad mu range ({mu_lo!r}, {mu_hi!r})")

    samples = []
    lam_prev, dv_prev, mu_prev = lam1**k, 1.0, lam1**k   # the eigenpoint at alpha = beta = k
    for i in range(n_samples):
        t = i / (n_samples - 1)
        mu_ref = mu_lo ** (1.0 - t) * mu_hi**t   # mu_hi / mu_lo may overflow
        # seeded on the previous sample's product and ray, and detuned so that every root
        # moves rho off R instead of the sample inheriting its neighbour's product
        lam_ref = 1.17 * lam_prev * (mu_prev / mu_ref) ** (alpha / k)
        # the previous root's image under v -> b v: (lambda, mu) -> (lambda b^-alpha, mu b^k)
        dv0 = 1.17 ** (-1.0 / (k + alpha)) * (mu_ref / mu_prev) ** (1.0 / k) * dv_prev
        weights = (_BoundWeight(_POWER_T, (lam_ref, alpha, 1.0 / k)),
                   _BoundWeight(_POWER_S, (mu_ref, beta, 1.0 / k)))
        rho, d_v, *_ = _confirmed_zero(N, k, R, weights, 1.0, 1.0, dv0, tol, z_tol=0.1 * tol)
        lam, mu = lam_ref * (rho / R) ** (2 * k), mu_ref * (rho / R) ** (2 * k)
        samples.append((lam, mu))
        lam_prev, dv_prev, mu_prev = lam, d_v, mu
    samples.sort(key=lambda sample: sample[1])

    products = [lam * mu ** (alpha / k) for lam, mu in samples]
    log_mean = sum(math.log(p) for p in products) / len(products)
    constant = math.exp(log_mean)
    max_dev = max(abs(p - constant) / constant for p in products)
    return PowerPairResult(alpha=alpha, beta=beta, samples=samples,
                           constant=constant, max_rel_deviation=max_dev)


# ---------------------------------------------------------------------------
# system branches
# ---------------------------------------------------------------------------


def trace_system_branch(spec: SystemSpec, d_grid, tol: float = TOL,
                        *, lambda_scale: float | None = None) -> Branch:
    """System branch over total amplitude d = d_u + d_v (d_u = d / 2 drives, d_v solved),
    traced by branch.trace: one solve_system_shooting per amplitude, from the geometric
    means of lambda and d_v / d_u over its resolved neighbours (so symmetric pairs start
    at d_v = d_u exactly, two IVPs a solve) or, cold, from lambda1 d_u / g(d_u, d_u) and
    d_v = d_u.  Its NumericalFailureError (no usable cold start, no root, a failed
    fixed-R check) is a gap.
    """
    if lambda_scale is None:
        lambda_scale = first_eigenvalue(spec.N, spec.k, spec.R, tol).lambda1

    def solve(d, near):
        d_u = 0.5 * d
        try:
            if near:   # sqrt(x * x) == x in binary floating point, so one neighbour is exact
                a, b = near[0], near[-1]
                init = (math.sqrt(a.lam * b.lam),
                        d_u * math.sqrt((a.d_v / a.d_u) * (b.d_v / b.d_u)))
            else:
                init = (reference_lambda(lambda_scale, d_u, spec.g(d_u, d_u), "g(d_u, d_u)"),
                        d_u)
            return solve_system_shooting(spec, d_u, init, tol)
        except NumericalFailureError:
            return None

    return trace(d_grid, solve)


# ---------------------------------------------------------------------------
# hypothesis checks and monitors
# ---------------------------------------------------------------------------


FD_POINTS = 33     # fd_nondecreasing samples a FD_POINTS x FD_POINTS grid
FD_TOL = 1e-9      # and allows a fall of FD_TOL max(1, s_max) per difference


def fd_nondecreasing(fun, argument: str, s_max: float) -> bool:
    """Finite differences of fun(s, t) in the named argument are >= -FD_TOL max(1, s_max)
    on a FD_POINTS x FD_POINTS grid of [0, s_max]^2."""
    if argument not in ("s", "t"):
        raise InvalidInputError("argument must be 's' or 't'")
    xs = [s_max * i / (FD_POINTS - 1) for i in range(FD_POINTS)]
    step = s_max / (8.0 * FD_POINTS)
    scale = FD_TOL * max(1.0, s_max)
    for a in xs:
        for b in xs:
            if argument == "t":
                delta = fun(a, b + step) - fun(a, b)
            else:
                delta = fun(a + step, b) - fun(a, b)
            if delta < -scale:
                return False
    return True


def add_monotonicity_check(rep: VerificationReport, spec: SystemSpec, s_max: float) -> None:
    """Check that the declared monotone flags agree with the numerics on [0, s_max]^2.

    Each flag is compared on its own (g in t, h in s), so flags that are wrong
    in opposite directions cannot cancel.  A flag declared false adds a note:
    the system theorems assume both monotonicities.
    """
    declared = (spec.monotone_g_in_t, spec.monotone_h_in_s)
    # a NonlinearitySpec2's compiled formula directly: the grid [0, s_max]^2 needs no
    # negative-argument check
    observed = tuple(fd_nondecreasing(getattr(w, "_eval", w), arg, s_max)
                     for w, arg in ((spec.g, "t"), (spec.h, "s")))
    flags = "g_in_t={}, h_in_s={}".format
    rep.add(f"g non-decreasing in t, h non-decreasing in s on [0, {s_max:.6g}]",
            f"declared {flags(*declared)}", f"numeric {flags(*observed)}",
            observed == declared)
    if not all(declared):
        rep.notes.append("monotone flag declared false: the paper's system theorems assume "
                         "g non-decreasing in t and h non-decreasing in s")


def system_apriori_monitor(rep: VerificationReport, branch: Branch, spec: SystemSpec,
                           lam1: float) -> None:
    """Add norm-bound monitors on a traced system branch to rep; lam1 is its first eigenvalue.

    Superlinear case (nu = Infinite): amplitudes at sampled lambdas in a
    compact are bounded.  Sublinear case (asymptotic ratio below the
    eigenvalue at the sampled lambda): a uniform bound over the whole branch.
    Hypotheses that do not apply add a vacuous pass note.
    """
    lams = branch.lam_values()
    lam_min, lam_max = min(lams), max(lams)
    d_cap = max(p.d for p in branch.points) / 3.0
    nu = spec.nu

    if nu.is_infinite:
        for frac in (0.3, 0.5, 0.7):
            lam = lam_min + frac * (lam_max - lam_min)
            amps = solution_amplitudes(branch, lam)
            top = max(amps) if amps else 0.0
            rep.add(f"superlinear norm bound at lambda={lam:.6g}",
                    f"max (d_u+d_v) <= {d_cap:.6g}", f"max = {top:.6g}",
                    top <= d_cap)
        return

    # asymptotic ratio bound: lambda * nu < lambda1 makes solutions uniformly bounded
    if nu.is_zero:
        qualifying = branch.points
    else:
        lam_bound = lam1 / nu.value
        qualifying = [p for p in branch.points if p.lam < lam_bound * (1.0 - 1e-9)]
    if not qualifying:
        rep.notes.append("norm-bound hypotheses not met on this branch (vacuous pass)")
        return
    top = max(p.d for p in qualifying)
    rep.add("uniform norm bound (sublinear ratios)",
            "qualifying branch points have finite total amplitude",
            f"max (d_u+d_v) = {top:.6g} over {len(qualifying)} points",
            math.isfinite(top))
