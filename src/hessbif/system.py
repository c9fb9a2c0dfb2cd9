"""Coupled radial k-Hessian systems: two-parameter shooting and eigen-structure.

Two coupled components on the same ball,

    S_k(D^2 u) = (lambda g(-u, -v))^k,
    S_k(D^2 v) = (lambda h(-u, -v))^k,

integrated simultaneously by the scalar problem's kernel, shooting.flux_ivp,
with forcing F_u = lambda g and F_v = lambda h.  At fixed u-amplitude d_u,
ball-radius scaling (as for lambda(d) in shooting.py) turns the Dirichlet
conditions (u(R), v(R)) = (0, 0) into one root in log d_v: u and v of the pair
IVP at a reference lambda_ref vanish at the same rho, and lambda =
lambda_ref (rho / R)^2 (see _common_zero).

The power-pair eigenproblem S_k(D^2 u) = lambda (-v)^alpha, S_k(D^2 v) =
mu (-u)^beta (alpha beta = k^2) runs the same kernel at lambda = 1 with weights
(lambda s_v^alpha)^(1/k) and (mu s_u^beta)^(1/k), and keeps a damped Newton on
the fixed-R residuals: the constancy of the product lambda mu^(alpha/k) across
mu is the checkable claim, so it must not come from the same scaling.

Two-argument nonlinearities are weight forms phi(x) * w(s + t), with phi = t
for the u-equation ("_t" kinds) and phi = s for the v-equation ("_s" kinds):

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

import math
from dataclasses import dataclass, field

from . import shooting
from .branch import (
    Branch,
    BranchPoint,
    VerificationReport,
    attach_summaries,
    refine_jumps,
    solution_amplitudes,
)
from .core import Formula, LimitClass, _check_order
from .errors import InvalidInputError, NumericalFailureError, TracingFailureError
from .shooting import (
    DEFAULT_CONFIG,
    ShootingConfig,
    eigen_rel_tol,
    first_eigenvalue,
    flux_ivp,
    flux_profiles,
    trajectory_admissible,
)

NEWTON_MAX_ITER = 40
NEWTON_FD_STEP = 1e-6
NEWTON_MAX_HALVINGS = 8


# ---------------------------------------------------------------------------
# two-argument nonlinearities
# ---------------------------------------------------------------------------

def _weight(kind_base, params):
    """(w as source over s + t, its params, lim0, liminf) of a kind base.

    w is evaluated only where the coupling variable is positive, so s + t > 0.
    """
    if kind_base == "linear":
        return "1.0", {}, LimitClass.finite(1.0), LimitClass.finite(1.0)
    if kind_base == "saturating":
        return "1.0 / (1.0 + (s + t))", {}, LimitClass.finite(1.0), LimitClass.zero()
    if kind_base == "superlinear":
        return "1.0 + (s + t)", {}, LimitClass.finite(1.0), LimitClass.infinite()
    if kind_base == "rational":
        b = float(params.get("b", 0.0))
        if b <= 0.0:
            raise InvalidInputError("rational kind needs param b > 0")
        return ("(1.0 + b * (s + t)) / (1.0 + (s + t))", {"b": b},
                LimitClass.finite(1.0), LimitClass.finite(b))
    if kind_base == "powermix":
        return "(s + t)**-0.5 + (s + t)", {}, LimitClass.infinite(), LimitClass.infinite()
    if kind_base == "logbump":
        return ("log1p((s + t) * (s + t)) / (s + t)", {},
                LimitClass.zero(), LimitClass.zero())
    raise InvalidInputError(f"unknown two-argument kind base {kind_base!r}")


@dataclass
class NonlinearitySpec2:
    """g(s, t) (kinds ``*_t``, coupling through t) or h(s, t) (kinds ``*_s``).

    Zeros exactly where the coupling variable vanishes; limit classes are
    relative to |t| (for g) or |s| (for h) as |s + t| tends to 0 / infinity.
    The weight is stored once, as formula (a core.Formula over s, t: phi w,
    and 0 where phi = 0) with its params' floats in formula_values; the call
    evaluates formula.function(formula_values), and the flux kernels inline
    the same source.
    """

    kind: str
    params: dict = field(default_factory=dict)

    def __post_init__(self):
        base, _, suffix = self.kind.rpartition("_")
        if suffix not in ("t", "s") or not base:
            raise InvalidInputError(
                f"two-argument kind must end in _t or _s, got {self.kind!r}")
        self.couples_in_t = suffix == "t"
        w, params, self.lim0, self.liminf = _weight(base, self.params)
        phi = "t" if self.couples_in_t else "s"
        self.formula = Formula(self.kind, f"0.0 if {phi} == 0.0 else {phi} * ({w})",
                               ("s", "t"), tuple(params))
        self.formula_values = tuple(params.values())
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
        return NonlinearitySpec2(obj["kind"], dict(obj.get("params", {})))


@dataclass
class SystemSpec:
    """Coupled problem on the ball B_R: u driven by g, v driven by h."""

    N: int
    k: int
    R: float
    g: NonlinearitySpec2
    h: NonlinearitySpec2
    monotone_g_in_t: bool = True
    monotone_h_in_s: bool = True

    def __post_init__(self):
        _check_order(self.N, self.k)
        if not (0.0 < self.R < math.inf):
            raise InvalidInputError(f"radius must be positive and finite, got {self.R!r}")
        if not self.g.couples_in_t:
            raise InvalidInputError("g must couple through t (a *_t kind)")
        if self.h.couples_in_t:
            raise InvalidInputError("h must couple through s (a *_s kind)")

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
        try:
            mono = obj.get("monotone", {})
            return SystemSpec(
                N=obj["N"], k=obj["k"], R=float(obj["R"]),
                g=NonlinearitySpec2.from_json(obj["g"]),
                h=NonlinearitySpec2.from_json(obj["h"]),
                monotone_g_in_t=bool(mono.get("g_in_t", True)),
                monotone_h_in_s=bool(mono.get("h_in_s", True)),
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise InvalidInputError(f"bad system spec: {exc}") from exc


# ---------------------------------------------------------------------------
# coupled integration
# ---------------------------------------------------------------------------


def integrate_system(spec: SystemSpec, lam: float, d_u: float, d_v: float,
                     cfg: ShootingConfig = DEFAULT_CONFIG):
    """Simultaneous outward integration; returns the (u, v) profile pair."""
    if not (d_u > 0.0 and d_v > 0.0):
        raise InvalidInputError(f"amplitudes must be positive, got {d_u!r}, {d_v!r}")
    if lam < 0.0:
        raise InvalidInputError(f"lambda must be nonnegative, got {lam!r}")
    return flux_profiles(spec.N, spec.k, spec.R, lam, (spec.g, spec.h), (d_u, d_v), cfg)


def system_boundary_values(spec: SystemSpec, lam: float, d_u: float, d_v: float,
                           cfg: ShootingConfig = DEFAULT_CONFIG):
    """(u(R), v(R)) without storing profiles."""
    if not (d_u > 0.0 and d_v > 0.0):
        raise InvalidInputError(f"amplitudes must be positive, got {d_u!r}, {d_v!r}")
    if lam == 0.0:
        return -d_u, -d_v
    y = flux_ivp(spec.N, spec.k, spec.R, lam, (spec.g, spec.h), (d_u, d_v),
                 cfg.integrator_tol, spec.R)[0].y
    return y[0], y[2]


# ---------------------------------------------------------------------------
# Dirichlet points: a scaled 1-D root, and two-residual Newton for power pairs
# ---------------------------------------------------------------------------


@dataclass
class SystemBranchPoint:
    d_u: float
    d_v: float
    lam: float
    res_u: float
    res_v: float
    admissible: bool = True

    @property
    def d(self) -> float:
        """Total amplitude d_u + d_v, the branch coordinate."""
        return self.d_u + self.d_v


def _newton_pair(residual_fn, lam0, dv0, scale_u, scale_v, tol):
    """Damped Newton on (log lambda, log d_v); residual_fn(lam, d_v) -> (ru, rv)."""

    def fval(z):
        ru, rv = residual_fn(math.exp(z[0]), math.exp(z[1]))
        return (ru / scale_u, rv / scale_v)

    z = [math.log(lam0), math.log(dv0)]
    f = fval(z)
    norm = max(abs(f[0]), abs(f[1]))
    for _ in range(NEWTON_MAX_ITER):
        if norm <= tol:
            return math.exp(z[0]), math.exp(z[1]), norm
        jac = [[0.0, 0.0], [0.0, 0.0]]
        for j in range(2):
            zp = list(z)
            zp[j] += NEWTON_FD_STEP
            fp = fval(zp)
            jac[0][j] = (fp[0] - f[0]) / NEWTON_FD_STEP
            jac[1][j] = (fp[1] - f[1]) / NEWTON_FD_STEP
        det = jac[0][0] * jac[1][1] - jac[0][1] * jac[1][0]
        if det == 0.0 or not math.isfinite(det):
            raise NumericalFailureError("singular Jacobian in system shooting")
        dz0 = -(jac[1][1] * f[0] - jac[0][1] * f[1]) / det
        dz1 = -(-jac[1][0] * f[0] + jac[0][0] * f[1]) / det
        # trust region in log space keeps amplitudes/lambda positive and sane
        cap = 2.0
        biggest = max(abs(dz0), abs(dz1))
        if biggest > cap:
            dz0 *= cap / biggest
            dz1 *= cap / biggest
        step = 1.0
        for _ in range(NEWTON_MAX_HALVINGS + 1):
            zn = [z[0] + step * dz0, z[1] + step * dz1]
            try:
                fn = fval(zn)
            except NumericalFailureError:
                step *= 0.5
                continue
            nn = max(abs(fn[0]), abs(fn[1]))
            if nn < norm or nn <= tol:
                z, f, norm = zn, fn, nn
                break
            step *= 0.5
        else:
            raise NumericalFailureError(
                f"system Newton stalled at residual norm {norm:.3e}")
    if norm <= tol:
        return math.exp(z[0]), math.exp(z[1]), norm
    raise NumericalFailureError(
        f"system Newton did not converge (residual norm {norm:.3e})")


def _common_zero(spec, d_u, lam_ref, dv0, cfg):
    """(rho, d_v) where u and v of the pair IVP at lam_ref and (d_u, d_v) vanish together.

    F = v(rho_u) / d_v at u's first zero rho_u falls as d_v grows (g rises in t, h in s);
    no zero before shooting.HORIZON R counts as F > 0.  Steps of 0.1, 0.2, 0.4, ... in
    log d_v bracket its sign change; Illinois stops at a step within root_tol of an end."""
    horizon = shooting.HORIZON * spec.R

    def point(d_v):   # (log d_v, d_v, F, rho_u), rho_u None when u has no zero
        res = flux_ivp(spec.N, spec.k, spec.R, lam_ref, (spec.g, spec.h), (d_u, d_v),
                       cfg.integrator_tol, horizon, root_tol=cfg.root_tol)[0]
        z = math.log(d_v)
        if res.t >= horizon:
            return z, d_v, math.inf, None
        # v(rho_u) == u(rho_u) when u and v coincide, though the located u(rho_u) may be
        # a tiny nonzero; rho_u is then their common zero
        return z, d_v, 0.0 if res.y[2] == res.y[0] else res.y[2] / d_v, res.t

    prev = point(dv0)
    if prev[2] == 0.0:   # u and v coincide, as on symmetric pairs at d_v = d_u
        return prev[3], prev[1]
    up = prev[2] > 0.0
    for n in range(10):   # ten doublings reach log(d_v / dv0) = +-102.3
        cur = point(math.exp(prev[0] + (0.1 if up else -0.1) * 2.0**n))
        if (cur[2] > 0.0) != up:
            break
        prev = cur
    else:
        reason = (f"u has no zero before {shooting.HORIZON:g} R" if prev[3] is None
                  else "v(rho_u) did not change sign after 10 doublings")
        raise NumericalFailureError(
            f"{reason} from d_v = {dv0!r} (d_u = {d_u!r}, lambda_ref = {lam_ref!r})")

    lo, hi = (prev, cur) if up else (cur, prev)   # F(lo) > 0 >= F(hi)
    f_lo, f_hi, side = lo[2], hi[2], 0   # Illinois halves F at an end kept twice running
    for _ in range(shooting.MAX_BISECT_ITER):
        z = lo[0] + (hi[0] - lo[0]) * f_lo / (f_lo - f_hi)
        if not (lo[0] <= z <= hi[0]):
            z = 0.5 * (lo[0] + hi[0])
        near = lo if z - lo[0] < hi[0] - z and lo[3] is not None else hi
        if abs(z - near[0]) <= cfg.root_tol:
            return near[3], near[1]
        mid = point(math.exp(z))
        if mid[2] > 0.0:
            lo, f_lo, f_hi, side = mid, mid[2], f_hi * (0.5 if side < 0 else 1.0), -1
        else:
            hi, f_hi, f_lo, side = mid, mid[2], f_lo * (0.5 if side > 0 else 1.0), 1
    raise NumericalFailureError(f"v(rho_u) root not resolved (d_u = {d_u!r})")


def solve_system_shooting(spec: SystemSpec, d_u: float, init,
                          cfg: ShootingConfig = DEFAULT_CONFIG) -> SystemBranchPoint:
    """Dirichlet point at d_u from init = (lambda_ref, d_v0): the scaled root of _common_zero,
    confirmed by one free fixed-R shot to eigen_rel_tol(cfg) of the amplitudes; the accepted
    states of that shot give the admissibility flag (shooting.trajectory_admissible)."""
    if not (d_u > 0.0):
        raise InvalidInputError(f"d_u must be positive, got {d_u!r}")
    lam_ref, dv0 = init
    if not (lam_ref > 0.0 and dv0 > 0.0):
        raise InvalidInputError(f"init must be positive, got {init!r}")

    rho, d_v = _common_zero(spec, d_u, lam_ref, dv0, cfg)
    lam = lam_ref * (rho / spec.R) ** 2
    states = []
    res, rhs, _ = flux_ivp(spec.N, spec.k, spec.R, lam, (spec.g, spec.h), (d_u, d_v),
                           cfg.integrator_tol, spec.R, trajectory=states)
    ru, _, rv, _ = res.y
    if max(abs(ru) / d_u, abs(rv) / d_v) > eigen_rel_tol(cfg):
        raise NumericalFailureError(
            f"fixed-R residual check failed at lambda = {lam!r}, d_u = {d_u!r}, "
            f"d_v = {d_v!r}: res_u = {ru!r}, res_v = {rv!r}")
    return SystemBranchPoint(d_u=d_u, d_v=d_v, lam=lam, res_u=ru, res_v=rv,
                             admissible=trajectory_admissible(rhs, states))


def system_eigenvalue(N: int, k: int, R: float,
                      cfg: ShootingConfig = DEFAULT_CONFIG) -> float:
    """Coupled eigenvalue lambda0 of (S_k(D^2 u))^(1/k) = |lambda v|, and dually.

    The symmetric reduction u = v collapses the system to the scalar
    eigenproblem, whose lambda1 confirm_coupled_eigenvalue then checks.
    """
    lam1 = first_eigenvalue(N, k, R, cfg).lambda1
    return confirm_coupled_eigenvalue(N, k, R, lam1, cfg)


def confirm_coupled_eigenvalue(N: int, k: int, R: float, lam1: float,
                               cfg: ShootingConfig = DEFAULT_CONFIG) -> float:
    """lam1, the scalar first eigenvalue, as the coupled eigenvalue lambda0.

    A coupled solve that does not impose symmetry must find lam1 again.
    Disagreement beyond eigen_rel_tol(cfg) relative (1e-8 at the defaults) is
    an internal inconsistency and raises NumericalFailureError.
    """
    spec = SystemSpec(N=N, k=k, R=R,
                      g=NonlinearitySpec2("linear_t"),
                      h=NonlinearitySpec2("linear_s"))
    point = solve_system_shooting(spec, 1.0, (1.07 * lam1, 0.9), cfg)
    if abs(point.lam - lam1) > eigen_rel_tol(cfg) * lam1:
        raise NumericalFailureError(
            f"asymmetric coupled solve gave {point.lam!r}, symmetric reduction {lam1!r}")
    return lam1


# ---------------------------------------------------------------------------
# power-pair eigen manifold
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PowerPairResult:
    alpha: float
    beta: float
    samples: list
    constant: float
    max_rel_deviation: float


def power_pair_constant(N: int, k: int, alpha: float, beta: float, R: float = 1.0,
                        n_samples: int = 8, cfg: ShootingConfig = DEFAULT_CONFIG,
                        mu_lo: float | None = None, mu_hi: float | None = None) -> PowerPairResult:
    """Constancy of lambda * mu^(alpha/k) for S_k(D^2 u) = lambda (-v)^alpha,
    S_k(D^2 v) = mu (-u)^beta with alpha beta = k^2.

    Each mu on the log grid is solved independently by two-residual shooting
    with the u-amplitude normalized to 1 (degree-k^2 homogeneity); the
    constant is the geometric mean of the products and the maximum relative
    deviation quantifies the constancy.
    """
    if not (alpha > 0.0 and beta > 0.0):
        raise InvalidInputError("alpha and beta must be positive")
    if abs(alpha * beta - k * k) > 1e-12 * k * k:
        raise InvalidInputError(
            f"alpha*beta must equal k^2, got {alpha}*{beta} != {k*k}")
    if n_samples < 2:
        raise InvalidInputError("need at least 2 mu samples")
    lam1 = first_eigenvalue(N, k, R, cfg).lambda1
    if mu_lo is None:
        mu_lo = 1e-2 * lam1**k
    if mu_hi is None:
        mu_hi = 1e2 * lam1**k
    if not (0.0 < mu_lo < mu_hi):
        raise InvalidInputError(f"bad mu range ({mu_lo!r}, {mu_hi!r})")

    mus = [mu_lo * (mu_hi / mu_lo) ** (i / (n_samples - 1)) for i in range(n_samples)]
    samples = []
    seed = None
    for mu in mus:
        if seed is None:
            lam0 = lam1 ** (k + alpha) * mu ** (-alpha / k)
            dv0 = (mu / lam1**k) ** (1.0 / k)
        else:
            lam_prev, dv_prev, mu_prev = seed
            lam0 = lam_prev * (mu_prev / mu) ** (alpha / k)
            dv0 = dv_prev * (mu / mu_prev) ** (1.0 / k)
        # detune the seed so every sample genuinely re-converges instead of
        # inheriting the scaling orbit of its neighbor
        lam0 *= 1.17
        dv0 *= 0.91

        def residual(lam, d_v, mu=mu):
            weights = (lambda su, sv: (lam * sv**alpha) ** (1.0 / k),
                       lambda su, sv: (mu * su**beta) ** (1.0 / k))
            y = flux_ivp(N, k, R, 1.0, weights, (1.0, d_v), cfg.integrator_tol, R)[0].y
            return y[0], y[2]

        lam, d_v, _ = _newton_pair(residual, lam0, dv0, scale_u=1.0,
                                   scale_v=max(dv0, 1e-12), tol=cfg.root_tol)
        samples.append((lam, mu))
        seed = (lam, d_v, mu)

    products = [lam * mu ** (alpha / k) for lam, mu in samples]
    log_mean = sum(math.log(p) for p in products) / len(products)
    constant = math.exp(log_mean)
    max_dev = max(abs(p - constant) / constant for p in products)
    return PowerPairResult(alpha=alpha, beta=beta, samples=samples,
                           constant=constant, max_rel_deviation=max_dev)


# ---------------------------------------------------------------------------
# system branches
# ---------------------------------------------------------------------------


@dataclass
class SystemBranch:
    points: list[SystemBranchPoint]
    branch: Branch    # projection onto (d_u + d_v, lambda) for fold/count reuse
    gaps: list[float] = field(default_factory=list)

    def to_csv(self, path) -> None:
        fold_idx = {f.index for f in self.branch.folds}
        with open(path, "w", newline="") as fh:
            fh.write("index,d_u,d_v,lambda,res_u,res_v,is_fold\n")
            for i, p in enumerate(self.points):
                fh.write(f"{i},{p.d_u:.17g},{p.d_v:.17g},{p.lam:.17g},"
                         f"{p.res_u:.17g},{p.res_v:.17g},"
                         f"{1 if i in fold_idx else 0}\n")


def trace_system_branch(spec: SystemSpec, d_grid, cfg: ShootingConfig = DEFAULT_CONFIG,
                        *, lambda_scale: float | None = None) -> SystemBranch:
    """System branch over total amplitude d = d_u + d_v (d_u = d / 2 drives, d_v solved).

    One solve per amplitude, from the last resolved point (its lambda and its ratio
    d_v / d_u, so symmetric pairs start at d_v = d_u exactly) or, cold, from
    lambda1 d_u / g(d_u, d_u) and d_v = d_u; a failed solve is a gap.  Bends are
    refined as on scalar branches (branch.refine_jumps over d = d_u + d_v).
    """
    d_grid = [float(d) for d in d_grid]
    if len(d_grid) < 4 or any(b <= a for a, b in zip(d_grid, d_grid[1:])):
        raise InvalidInputError("d_grid must be >= 4 strictly increasing amplitudes")
    if lambda_scale is None:
        lambda_scale = first_eigenvalue(spec.N, spec.k, spec.R, cfg).lambda1

    points: list[SystemBranchPoint] = []
    gaps: list[float] = []
    for d in d_grid:
        d_u = 0.5 * d
        init = ((points[-1].lam, d_u * (points[-1].d_v / points[-1].d_u)) if points
                else (lambda_scale * d_u / spec.g(d_u, d_u), d_u))
        try:
            points.append(solve_system_shooting(spec, d_u, init, cfg))
        except NumericalFailureError:
            gaps.append(d)

    if len(points) < 4:
        raise TracingFailureError("system trace resolved fewer than 4 points")
    def midpoint(a, b):
        d_u = 0.5 * math.sqrt(a.d * b.d)
        init = (math.sqrt(a.lam * b.lam), d_u * math.sqrt((a.d_v / a.d_u) * (b.d_v / b.d_u)))
        try:
            mid = solve_system_shooting(spec, d_u, init, cfg)
        except NumericalFailureError:
            return None
        return mid if a.d < mid.d < b.d else None

    base = {id(p) for p in points}
    points = refine_jumps(points, midpoint)
    proj = [BranchPoint(d=p.d, lam=p.lam,
                        residual=max(abs(p.res_u), abs(p.res_v)),
                        admissible=p.admissible, seed=id(p) in base)
            for p in points]
    branch = attach_summaries(Branch(points=proj, gaps=list(gaps)))
    return SystemBranch(points=points, branch=branch, gaps=gaps)


# ---------------------------------------------------------------------------
# hypothesis checks and monitors
# ---------------------------------------------------------------------------


def fd_nondecreasing(fun, argument: str, s_max: float, n: int = 33,
                     tol: float = 1e-9) -> bool:
    """Finite differences of fun(s, t) in the named argument are >= -tol on [0, s_max]^2."""
    if argument not in ("s", "t"):
        raise InvalidInputError("argument must be 's' or 't'")
    xs = [s_max * i / (n - 1) for i in range(n)]
    step = s_max / (8.0 * n)
    scale = tol * max(1.0, s_max)
    for a in xs:
        for b in xs:
            if argument == "t":
                delta = fun(a, b + step) - fun(a, b)
            else:
                delta = fun(a + step, b) - fun(a, b)
            if delta < -scale:
                return False
    return True


def check_monotonicity(spec: SystemSpec, s_max: float, n: int = 33) -> bool:
    """True iff g is non-decreasing in t and h is non-decreasing in s on [0, s_max]^2."""
    return (fd_nondecreasing(spec.g, "t", s_max, n)
            and fd_nondecreasing(spec.h, "s", s_max, n))


def add_monotonicity_check(rep: VerificationReport, spec: SystemSpec, s_max: float) -> None:
    """Check that the declared monotone flags agree with the numerics on [0, s_max]^2.

    Each flag is compared on its own (g in t, h in s), so flags that are wrong
    in opposite directions cannot cancel.  A flag declared false adds a note:
    the system theorems assume both monotonicities.
    """
    declared = (spec.monotone_g_in_t, spec.monotone_h_in_s)
    observed = (fd_nondecreasing(spec.g, "t", s_max), fd_nondecreasing(spec.h, "s", s_max))
    flags = "g_in_t={}, h_in_s={}".format
    rep.add(f"g non-decreasing in t, h non-decreasing in s on [0, {s_max:.6g}]",
            f"declared {flags(*declared)}", f"numeric {flags(*observed)}",
            observed == declared)
    if not all(declared):
        rep.notes.append("monotone flag declared false: the paper's system theorems assume "
                         "g non-decreasing in t and h non-decreasing in s")


def system_apriori_monitor(sys_branch: SystemBranch, spec: SystemSpec,
                           lam1: float | None = None,
                           cfg: ShootingConfig = DEFAULT_CONFIG) -> VerificationReport:
    """Norm-bound monitors on a traced system branch.

    Superlinear case (nu = Infinite): amplitudes at sampled lambdas in a
    compact are bounded.  Sublinear case (asymptotic ratio below the
    eigenvalue at the sampled lambda): a uniform bound over the whole branch.
    Hypotheses that do not apply produce a vacuous pass note.
    """
    rep = VerificationReport(notes=["scope: radial shooting branches on a ball"])
    branch = sys_branch.branch
    if lam1 is None:
        lam1 = first_eigenvalue(spec.N, spec.k, spec.R, cfg).lambda1
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
        return rep

    # asymptotic ratio bound: lambda * nu < lambda1 makes solutions uniformly bounded
    if nu.is_zero:
        qualifying = [p for p in branch.points]
    else:
        lam_bound = lam1 / nu.value
        qualifying = [p for p in branch.points if p.lam < lam_bound * (1.0 - 1e-9)]
    if not qualifying:
        rep.notes.append("norm-bound hypotheses not met on this branch (vacuous pass)")
        return rep
    top = max(p.d for p in qualifying)
    rep.add("uniform norm bound (sublinear ratios)",
            "qualifying branch points have finite total amplitude",
            f"max (d_u+d_v) = {top:.6g} over {len(qualifying)} points",
            math.isfinite(top))
    return rep
