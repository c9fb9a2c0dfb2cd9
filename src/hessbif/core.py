"""Radial k-Hessian operator algebra and the nonlinearity registry.

The operator acting on a radial profile u(r) has Hessian eigenvalues
(u'', u'/r, ..., u'/r) with u'/r repeated N-1 times, so its k-th elementary
symmetric polynomial is

    S_k = C(N-1, k) (u'/r)^k + C(N-1, k-1) (u'/r)^(k-1) u''.

k = 1 is the Laplacian, k = N the Monge-Ampere determinant.  Admissibility
means the eigenvalue vector stays in the cone where S_j > 0 for j = 1..k.

Right-hand sides f are drawn from a closed registry of positive continuous
functions with f(0) = 0 and f(s) > 0 for s > 0.  Each entry knows its limit
classes

    f0   = lim_{s->0+} f(s)/s,      finf = lim_{s->inf} f(s)/s,

each of which is Zero, Finite(value) or Infinite; these drive the existence
interval predictions of the branch tracer.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

from .errors import InvalidInputError, LimitConflictError, UnclassifiableLimitError

# Exact integer binomials become lossy floats beyond this; larger N rejected.
MAX_DIMENSION = 60


def binom(n: int, k: int) -> int:
    """C(n, k) as an exact integer, 0 when k is out of range."""
    if k < 0 or k > n:
        return 0
    return math.comb(n, k)


def _check_order(N: int, k: int) -> None:
    if not (isinstance(N, int) and isinstance(k, int)):
        raise InvalidInputError(f"N and k must be integers, got N={N!r}, k={k!r}")
    if N < 1 or k < 1 or k > N:
        raise InvalidInputError(f"need 1 <= k <= N, got N={N}, k={k}")
    if N > MAX_DIMENSION:
        raise InvalidInputError(f"N={N} exceeds supported maximum {MAX_DIMENSION}")


def sk_from_radial(upp: float, up_over_r: float, N: int, k: int) -> float:
    """S_k of the radial Hessian eigenvalues {upp} + {up_over_r repeated N-1 times}."""
    _check_order(N, k)
    q = up_over_r
    return binom(N - 1, k) * q**k + binom(N - 1, k - 1) * q ** (k - 1) * upp


def elementary_symmetric(values) -> list:
    """All elementary symmetric polynomials e_0..e_n of the given values."""
    e = [1.0] + [0.0] * len(values)
    for n, x in enumerate(values, start=1):
        for j in range(n, 0, -1):
            e[j] += x * e[j - 1]
    return e


def gamma_k_membership(eigs, k: int) -> bool:
    """True iff S_j(eigs) > 0 for every j = 1..k (cone of ellipticity)."""
    eigs = list(eigs)
    if k < 1:
        raise InvalidInputError(f"k must be >= 1, got {k}")
    if len(eigs) < k:
        raise InvalidInputError(f"need at least k={k} eigenvalues, got {len(eigs)}")
    e = elementary_symmetric(eigs)
    return all(e[j] > 0.0 for j in range(1, k + 1))


# ---------------------------------------------------------------------------
# limit classes
# ---------------------------------------------------------------------------

ZERO = "zero"
FINITE = "finite"
INFINITE = "infinite"


@dataclass(frozen=True)
class LimitClass:
    """One of Zero, Finite(value > 0), Infinite."""

    kind: str
    value: float | None = None

    def __post_init__(self):
        if self.kind not in (ZERO, FINITE, INFINITE):
            raise InvalidInputError(f"unknown limit kind {self.kind!r}")
        if self.kind == FINITE:
            if self.value is None or not (self.value > 0.0):
                raise InvalidInputError("Finite limit must carry a positive value")
        elif self.value is not None:
            raise InvalidInputError(f"{self.kind} limit carries no value")

    @staticmethod
    def zero() -> "LimitClass":
        return LimitClass(ZERO)

    @staticmethod
    def finite(value: float) -> "LimitClass":
        return LimitClass(FINITE, float(value))

    @staticmethod
    def infinite() -> "LimitClass":
        return LimitClass(INFINITE)

    @property
    def is_zero(self) -> bool:
        return self.kind == ZERO

    @property
    def is_finite(self) -> bool:
        return self.kind == FINITE

    @property
    def is_infinite(self) -> bool:
        return self.kind == INFINITE

    def ratio_under(self, lam1: float) -> float:
        """lam1 / limit, with the conventions lam1/0 = +inf and lam1/inf = 0."""
        if self.is_zero:
            return math.inf
        if self.is_infinite:
            return 0.0
        return lam1 / self.value

    def agrees_with(self, other: "LimitClass", rtol: float = 1e-3) -> bool:
        if self.kind != other.kind:
            return False
        if self.is_finite:
            return abs(self.value - other.value) <= rtol * abs(other.value)
        return True

    def to_json(self):
        return self.value if self.is_finite else self.kind

    @staticmethod
    def from_json(obj) -> "LimitClass":
        if isinstance(obj, str):
            if obj == ZERO:
                return LimitClass.zero()
            if obj == INFINITE:
                return LimitClass.infinite()
            raise InvalidInputError(f"bad limit class string {obj!r}")
        if isinstance(obj, (int, float)):
            return LimitClass.finite(float(obj))
        raise InvalidInputError(f"bad limit class value {obj!r}")

    def __str__(self):
        if self.is_finite:
            return f"Finite({self.value:.6g})"
        return "Zero" if self.is_zero else "Infinite"


# ---------------------------------------------------------------------------
# nonlinearity registry
# ---------------------------------------------------------------------------


def _power_pair_classes(terms):
    """Limit classes of sum c_i s^(p_i) relative to s, at 0+ and at infinity.

    terms: list of (coefficient, exponent) with positive coefficients.
    """
    p_min = min(p for _, p in terms)
    p_max = max(p for _, p in terms)
    if p_min < 1.0:
        f0 = LimitClass.infinite()
    elif p_min > 1.0:
        f0 = LimitClass.zero()
    else:
        f0 = LimitClass.finite(sum(c for c, p in terms if p == 1.0))
    if p_max > 1.0:
        finf = LimitClass.infinite()
    elif p_max < 1.0:
        finf = LimitClass.zero()
    else:
        finf = LimitClass.finite(sum(c for c, p in terms if p == 1.0))
    return f0, finf


@dataclass
class NonlinearitySpec:
    """Evaluable right-hand side f with declared limit classes.

    Closed kind family (s >= 0 everywhere, f(0) = 0, f(s) > 0 for s > 0):

      linear                 f(s) = s                          (Finite 1, Finite 1)
      saturating             f(s) = s / (1 + s)                (Finite 1, Zero)
      superlinear            f(s) = s (1 + s)                  (Finite 1, Infinite)
      quadratic_over_linear  f(s) = s^2 / (1 + s)              (Zero, Finite 1)
      power                  f(s) = s^p, p > 0                 (classes from p)
      sum_of_powers          f(s) = s^p + c s^q                (classes from p, q)
      log_bump               f(s) = log(1 + s^2)               (Zero, Zero; coercive)
      root_sum_powers        f(s) = (s^a + c s^b)^(1/a)        (classes from a, b)
      tabulated              log-log interpolation of a table

    root_sum_powers with a = k expresses eigenvalue-plus-perturbation right-hand
    sides of the form lambda^k (|u|^k + c|u|^b).
    """

    kind: str
    params: dict = field(default_factory=dict)
    declared_f0: LimitClass | None = None
    declared_finf: LimitClass | None = None

    def __post_init__(self):
        self._eval = _build_eval(self.kind, self.params)
        if self.declared_f0 is None or self.declared_finf is None:
            f0, finf = _analytic_classes(self.kind, self.params)
            if self.declared_f0 is None:
                self.declared_f0 = f0
            if self.declared_finf is None:
                self.declared_finf = finf

    def __call__(self, s: float) -> float:
        if s < 0.0:
            raise InvalidInputError(f"nonlinearity evaluated at negative s={s!r}")
        if s == 0.0:
            return 0.0
        return self._eval(s)

    def to_json(self) -> dict:
        out = {"kind": self.kind, "params": dict(self.params)}
        if self.declared_f0 is not None:
            out["f0"] = self.declared_f0.to_json()
        if self.declared_finf is not None:
            out["finf"] = self.declared_finf.to_json()
        return out

    @staticmethod
    def from_json(obj: dict) -> "NonlinearitySpec":
        if not isinstance(obj, dict) or "kind" not in obj:
            raise InvalidInputError(f"nonlinearity spec must be a dict with 'kind', got {obj!r}")
        extra = set(obj) - {"kind", "params", "f0", "finf"}
        if extra:
            raise InvalidInputError(f"unknown nonlinearity keys {sorted(extra)}")
        f0 = LimitClass.from_json(obj["f0"]) if "f0" in obj else None
        finf = LimitClass.from_json(obj["finf"]) if "finf" in obj else None
        return NonlinearitySpec(obj["kind"], dict(obj.get("params", {})),
                                declared_f0=f0, declared_finf=finf)


def _build_eval(kind, params):
    def need(*names):
        missing = [n for n in names if n not in params]
        if missing:
            raise InvalidInputError(f"kind {kind!r} requires params {missing}")
        return [float(params[n]) for n in names]

    if kind == "linear":
        return lambda s: s
    if kind == "saturating":
        return lambda s: s / (1.0 + s)
    if kind == "superlinear":
        return lambda s: s * (1.0 + s)
    if kind == "quadratic_over_linear":
        return lambda s: s * s / (1.0 + s)
    if kind == "power":
        (p,) = need("p")
        if p <= 0.0:
            raise InvalidInputError(f"power kind needs p > 0, got {p}")
        return lambda s: s**p
    if kind == "sum_of_powers":
        p, q, c = need("p", "q", "c")
        if p <= 0.0 or q <= 0.0 or c <= 0.0:
            raise InvalidInputError(f"sum_of_powers needs p, q, c > 0, got {p}, {q}, {c}")
        return lambda s: s**p + c * s**q
    if kind == "log_bump":
        return lambda s: math.log1p(s * s)
    if kind == "root_sum_powers":
        a, b, c = need("a", "b", "c")
        if a <= 0.0 or b <= 0.0 or c <= 0.0:
            raise InvalidInputError(f"root_sum_powers needs a, b, c > 0, got {a}, {b}, {c}")
        inv = 1.0 / a
        return lambda s: (s**a + c * s**b) ** inv
    if kind == "tabulated":
        return _build_tabulated(params)
    raise InvalidInputError(f"unknown nonlinearity kind {kind!r}")


def _build_tabulated(params):
    s_tab = [float(x) for x in params.get("s", [])]
    f_tab = [float(x) for x in params.get("f", [])]
    if len(s_tab) != len(f_tab) or len(s_tab) < 2:
        raise InvalidInputError("tabulated kind needs matching 's' and 'f' arrays, length >= 2")
    if any(x <= 0.0 for x in s_tab) or any(y <= 0.0 for y in f_tab):
        raise InvalidInputError("tabulated knots must be strictly positive (f(0)=0 is implicit)")
    if any(b <= a for a, b in zip(s_tab, s_tab[1:])):
        raise InvalidInputError("tabulated 's' knots must be strictly increasing")
    ls = [math.log(x) for x in s_tab]
    lf = [math.log(y) for y in f_tab]
    # Endpoint slopes continue the table as power laws; the left one must keep
    # f -> 0 at 0 or the sign condition fails.
    slope_lo = (lf[1] - lf[0]) / (ls[1] - ls[0])
    if slope_lo <= 0.0:
        raise InvalidInputError("tabulated entry does not vanish at 0 (left log-log slope <= 0)")

    def ev(s):
        x = math.log(s)
        if x <= ls[0]:
            return math.exp(lf[0] + slope_lo * (x - ls[0]))
        if x >= ls[-1]:
            slope_hi = (lf[-1] - lf[-2]) / (ls[-1] - ls[-2])
            return math.exp(lf[-1] + slope_hi * (x - ls[-1]))
        lo, hi = 0, len(ls) - 1
        while hi - lo > 1:
            mid = (lo + hi) // 2
            if ls[mid] <= x:
                lo = mid
            else:
                hi = mid
        t = (x - ls[lo]) / (ls[hi] - ls[lo])
        return math.exp(lf[lo] + t * (lf[hi] - lf[lo]))

    return ev


def _analytic_classes(kind, params):
    """Closed-form limit classes where the kind determines them, else (None, None)."""
    if kind == "linear":
        return LimitClass.finite(1.0), LimitClass.finite(1.0)
    if kind == "saturating":
        return LimitClass.finite(1.0), LimitClass.zero()
    if kind == "superlinear":
        return LimitClass.finite(1.0), LimitClass.infinite()
    if kind == "quadratic_over_linear":
        return LimitClass.zero(), LimitClass.finite(1.0)
    if kind == "power":
        p = float(params["p"])
        return _power_pair_classes([(1.0, p)])
    if kind == "sum_of_powers":
        p, q, c = float(params["p"]), float(params["q"]), float(params["c"])
        return _power_pair_classes([(1.0, p), (c, q)])
    if kind == "log_bump":
        return LimitClass.zero(), LimitClass.zero()
    if kind == "root_sum_powers":
        # (s^a + c s^b)^(1/a): dominant exponent min(a,b)/a at 0, max(a,b)/a at inf.
        a, b, c = float(params["a"]), float(params["b"]), float(params["c"])
        e0 = min(a, b) / a
        einf = max(a, b) / a
        coef0 = (1.0 + c) ** (1.0 / a) if a == b else (1.0 if a < b else c ** (1.0 / a))
        f0 = (LimitClass.infinite() if e0 < 1.0 else
              LimitClass.zero() if e0 > 1.0 else LimitClass.finite(coef0))
        coefinf = (1.0 + c) ** (1.0 / a) if a == b else (1.0 if a > b else c ** (1.0 / a))
        finf = (LimitClass.infinite() if einf > 1.0 else
                LimitClass.zero() if einf < 1.0 else LimitClass.finite(coefinf))
        return f0, finf
    return None, None


# Canonical registry entries used by tests and the sweep tooling.
def registry() -> dict[str, NonlinearitySpec]:
    return {
        "linear": NonlinearitySpec("linear"),
        "saturating": NonlinearitySpec("saturating"),
        "superlinear": NonlinearitySpec("superlinear"),
        "quadratic_over_linear": NonlinearitySpec("quadratic_over_linear"),
        "sqrt": NonlinearitySpec("power", {"p": 0.5}),
        "square": NonlinearitySpec("power", {"p": 2.0}),
        "sqrt_plus_square": NonlinearitySpec("sum_of_powers", {"p": 0.5, "q": 2.0, "c": 1.0}),
        "log_bump": NonlinearitySpec("log_bump"),
    }


# ---------------------------------------------------------------------------
# numeric limit classification
# ---------------------------------------------------------------------------

RATIO_HI = 1e6
RATIO_LO = 1e-6
_DECADES = 8
_FLAT_SLOPE = 1e-3        # |dlog10 r| per decade treated as converged
_TREND_SLOPE = 1e-2       # persistent slope treated as a power-law trend


def aitken(r1, r2, r3):
    denom = (r3 - r2) - (r2 - r1)
    if denom == 0.0:
        return r3
    return r3 - (r3 - r2) ** 2 / denom


def _classify_end(ratios):
    """Classify the tail of a ratio sequence ordered toward the limit."""
    if any((not math.isfinite(r)) for r in ratios):
        raise UnclassifiableLimitError("non-finite ratio encountered")
    if any(r <= 0.0 for r in ratios):
        raise UnclassifiableLimitError("nonpositive ratio encountered (sign condition)")
    logs = [math.log10(r) for r in ratios]
    d = [b - a for a, b in zip(logs, logs[1:])]
    d_tail = d[-2:]
    r_last = ratios[-1]

    if r_last > RATIO_HI and all(x > 0.0 for x in d_tail):
        return LimitClass.infinite()
    if r_last < RATIO_LO and all(x < 0.0 for x in d_tail):
        return LimitClass.zero()

    if all(abs(x) < _FLAT_SLOPE for x in d_tail):
        value = aitken(*ratios[-3:])
        if not (value > 0.0) or not math.isfinite(value):
            raise UnclassifiableLimitError("extrapolated limit not positive")
        return LimitClass.finite(value)

    persistent = abs(d[-1]) >= 0.9 * abs(d[-2]) and d[-1] * d[-2] > 0.0
    if persistent and d[-1] > _TREND_SLOPE:
        return LimitClass.infinite()
    if persistent and d[-1] < -_TREND_SLOPE:
        return LimitClass.zero()

    contracting = abs(d[-1]) <= 0.9 * abs(d[-2])
    if contracting:
        value = aitken(*ratios[-3:])
        if not (value > 0.0) or not math.isfinite(value):
            raise UnclassifiableLimitError("extrapolated limit not positive")
        return LimitClass.finite(value)
    raise UnclassifiableLimitError(f"ratio sequence is not settling: {ratios[-4:]}")


def classify_limits(spec: NonlinearitySpec,
                    check_declared: bool = True) -> tuple[LimitClass, LimitClass]:
    """Numeric (f0, finf) from ratios f(s)/s on geometric grids s in [1e-8, 1e8].

    Raises UnclassifiableLimitError for non-settling sequences and
    LimitConflictError when a declared class disagrees with the estimate.
    """
    ratios0 = [spec(10.0**-j) / 10.0**-j for j in range(1, _DECADES + 1)]
    ratiosinf = [spec(10.0**j) / 10.0**j for j in range(1, _DECADES + 1)]
    f0 = _classify_end(ratios0)
    finf = _classify_end(ratiosinf)
    if check_declared:
        for name, est, declared in (("f0", f0, spec.declared_f0),
                                    ("finf", finf, spec.declared_finf)):
            if declared is not None and not est.agrees_with(declared):
                raise LimitConflictError(
                    f"{name}: declared {declared} but classified {est}")
    return f0, finf


# ---------------------------------------------------------------------------
# problem specification
# ---------------------------------------------------------------------------


@dataclass
class ProblemSpec:
    """One scalar Dirichlet problem on the ball of radius R in dimension N.

    k = N is the Monge-Ampere case.
    """

    N: int
    k: int
    R: float
    f: NonlinearitySpec

    def __post_init__(self):
        _check_order(self.N, self.k)
        if not (0.0 < self.R < math.inf):
            raise InvalidInputError(f"radius must be positive and finite, got {self.R!r}")
        if not isinstance(self.f, NonlinearitySpec):
            raise InvalidInputError("f must be a NonlinearitySpec")

    @property
    def is_monge_ampere(self) -> bool:
        return self.k == self.N

    def to_json(self) -> dict:
        return {"N": self.N, "k": self.k, "R": self.R, "f": self.f.to_json()}

    @staticmethod
    def from_json(obj: dict) -> "ProblemSpec":
        try:
            N = obj["N"]
            k = obj["k"]
            R = float(obj["R"])
            f = NonlinearitySpec.from_json(obj["f"])
        except (KeyError, TypeError, ValueError) as exc:
            raise InvalidInputError(f"bad problem spec: {exc}") from exc
        return ProblemSpec(N=N, k=k, R=R, f=f)

    @staticmethod
    def load(path) -> "ProblemSpec":
        try:
            with open(path) as fh:
                obj = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            raise InvalidInputError(f"cannot read problem spec {path}: {exc}") from exc
        return ProblemSpec.from_json(obj)


@dataclass(frozen=True)
class EigenvalueResult:
    """First eigenvalue of the radial operator with its boundary residual."""

    lambda1: float
    residual: float
    iterations: int
