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

import functools
import json
import math
import re
from typing import NamedTuple

from .errors import InvalidInputError, LimitConflictError, UnclassifiableLimitError

# Exact integer binomials become lossy floats beyond this; larger N rejected.
MAX_DIMENSION = 60


def binom(n: int, k: int) -> int:
    """C(n, k) as an exact integer, 0 when k is out of range."""
    if k < 0 or k > n:
        return 0
    return math.comb(n, k)


def _check_order(N: int, k: int) -> None:
    if not all(isinstance(n, int) and not isinstance(n, bool) for n in (N, k)):
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


def read_json(path):
    """The JSON document in the file at path; InvalidInputError if it cannot be read."""
    try:
        with open(path) as fh:
            return json.load(fh)
    except (OSError, ValueError) as exc:   # ValueError: bad JSON or bad UTF-8
        raise InvalidInputError(f"cannot read {path}: {exc}") from exc


def check_keys(obj, allowed, what: str) -> None:
    """InvalidInputError if the JSON object obj has a key outside allowed."""
    extra = set(obj) - set(allowed)
    if extra:
        raise InvalidInputError(f"unknown {what} keys {sorted(extra)}")


def number(value, name: str) -> float:
    """float(value), refusing a bool or a string, which float() takes as 1.0 or 0.0 or
    parses: in a spec they are typos, not numbers."""
    if isinstance(value, (bool, str)):
        raise InvalidInputError(f"{name} must be a number, got {value!r}")
    return float(value)


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
AGREE_RTOL = 1e-3   # finite limits within this relative of each other agree


class LimitClass:
    """One of Zero, Finite(value > 0), Infinite; equal when kind and value are."""

    __slots__ = ("kind", "value")

    def __init__(self, kind: str, value: float | None = None):
        if kind not in (ZERO, FINITE, INFINITE):
            raise InvalidInputError(f"unknown limit kind {kind!r}")
        if kind == FINITE:
            if value is None or not (value > 0.0):
                raise InvalidInputError("Finite limit must carry a positive value")
        elif value is not None:
            raise InvalidInputError(f"{kind} limit carries no value")
        self.kind = kind
        self.value = value

    def __eq__(self, other):
        if type(other) is not LimitClass:
            return NotImplemented
        return (self.kind, self.value) == (other.kind, other.value)

    def __hash__(self):
        return hash((self.kind, self.value))

    def __repr__(self):
        return f"LimitClass(kind={self.kind!r}, value={self.value!r})"

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

    def agrees_with(self, other: "LimitClass") -> bool:
        if self.kind != other.kind:
            return False
        if self.is_finite:
            return abs(self.value - other.value) <= AGREE_RTOL * abs(other.value)
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
        if isinstance(obj, (int, float)) and not isinstance(obj, bool):
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


def _root_sum_classes(a, b, c):
    """(f0, finf) of (s^a + c s^b)^(1/a) = s (1 + c s^(b-a))^(1/a): Finite 1 at the end
    where s^(b-a) vanishes, Infinite where it grows, Finite (1 + c)^(1/a) when a = b."""
    if a == b:
        both = (1.0 + c) ** (1.0 / a)
        return LimitClass.finite(both), LimitClass.finite(both)
    if a < b:
        return LimitClass.finite(1.0), LimitClass.infinite()
    return LimitClass.infinite(), LimitClass.finite(1.0)


# the functions a formula may call, by the names it calls them
FORMULA_GLOBALS = (("log1p", math.log1p),)


class Formula(NamedTuple):
    """A weight as one Python expression: source over variables and the named params.

    The params' values are not part of it, so one compiled function, and one
    flux kernel, serves every value.  function(values) compiles source; the flux
    kernels of shooting.py inline rename(...) of the same source, so the called
    and the inlined weight agree bit for bit.  Every name in source is a
    variable, a param or one of FORMULA_GLOBALS.
    """

    kind: str
    source: str
    variables: tuple
    params: tuple = ()

    def function(self, values):
        """The weight with its params bound to values, in the order of params."""
        return _formula_binder(self)(*values)

    def rename(self, names: dict) -> str:
        """source with each name that is a key of names replaced by its value."""
        return re.sub(r"\b[A-Za-z_]\w*", lambda m: names.get(m[0], m[0]), self.source)


@functools.cache
def _formula_binder(formula):
    """bind(*values) -> the weight as a function of formula.variables; compiled once."""
    source = (f"def bind({', '.join(formula.params)}):\n"
              f"    return lambda {', '.join(formula.variables)}: {formula.source}\n")
    namespace = dict(FORMULA_GLOBALS)
    exec(compile(source, f"<hessbif formula {formula.kind}>", "exec"), namespace)
    return namespace["bind"]


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

    Each kind but tabulated is declared once, as one row of _FORMULAS: the source
    of f, its param names and its limit classes as a function of the param
    values, which kind_row checks.  f is stored as formula (a Formula over s)
    with its params' floats in formula_values: f(s) for s > 0 is
    formula.function(formula_values), and the flux kernels inline the same
    source.  formula is None for tabulated, which is called.
    """

    __slots__ = ("kind", "params", "declared_f0", "declared_finf",
                 "formula", "formula_values", "_eval")

    def __init__(self, kind: str, params: dict | None = None,
                 declared_f0: LimitClass | None = None,
                 declared_finf: LimitClass | None = None):
        self.kind = kind
        self.params = {} if params is None else params
        if self.kind == "tabulated":
            self.formula, self.formula_values = None, ()
            self._eval = _build_tabulated(self.params)
            f0 = finf = None
        else:
            source, names, self.formula_values, (f0, finf) = kind_row(
                _FORMULAS, self.kind, self.params)
            self.formula = Formula(self.kind, source, ("s",), names)
            self._eval = self.formula.function(self.formula_values)
        self.declared_f0 = f0 if declared_f0 is None else declared_f0
        self.declared_finf = finf if declared_finf is None else declared_finf

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
        check_keys(obj, ("kind", "params", "f0", "finf"), "nonlinearity")
        f0 = LimitClass.from_json(obj["f0"]) if "f0" in obj else None
        finf = LimitClass.from_json(obj["finf"]) if "finf" in obj else None
        return NonlinearitySpec(obj["kind"], dict(obj.get("params", {})),
                                declared_f0=f0, declared_finf=finf)


# Each kind but tabulated is one row: f(s) for s > 0 as source over s and the kind's
# params, the params' names, and its (f0, finf) as a function of the params' values.
# The classes are built on each call: LimitClass instances are mutable, so no spec
# may share one with another.
_FORMULAS = {
    "linear": ("s", (), lambda: (LimitClass.finite(1.0), LimitClass.finite(1.0))),
    "saturating": ("s / (1.0 + s)", (), lambda: (LimitClass.finite(1.0), LimitClass.zero())),
    "superlinear": ("s * (1.0 + s)", (),
                    lambda: (LimitClass.finite(1.0), LimitClass.infinite())),
    "quadratic_over_linear": ("s * s / (1.0 + s)", (),
                              lambda: (LimitClass.zero(), LimitClass.finite(1.0))),
    "power": ("s**p", ("p",), lambda p: _power_pair_classes([(1.0, p)])),
    "sum_of_powers": ("s**p + c * s**q", ("p", "q", "c"),
                      lambda p, q, c: _power_pair_classes([(1.0, p), (c, q)])),
    "log_bump": ("log1p(s * s)", (), lambda: (LimitClass.zero(), LimitClass.zero())),
    "root_sum_powers": ("(s**a + c * s**b) ** (1.0 / a)", ("a", "b", "c"),
                        _root_sum_classes),
}


def kind_row(table, kind, params):
    """(source, param names, param values, limit classes) of the row of table named kind.

    params must give each name of the row a number > 0 and hold no other key.
    """
    if kind not in table:
        raise InvalidInputError(f"unknown nonlinearity kind {kind!r}")
    source, names, classes = table[kind]
    missing = [n for n in names if n not in params]
    if missing:
        raise InvalidInputError(f"kind {kind!r} requires params {missing}")
    check_keys(params, names, f"{kind} param")
    values = tuple(number(params[n], n) for n in names)
    if any(v <= 0.0 for v in values):
        raise InvalidInputError(f"{kind} needs {', '.join(names)} > 0, got "
                                f"{', '.join(map(str, values))}")
    return source, names, values, classes(*values)


def _build_tabulated(params):
    check_keys(params, ("s", "f"), "tabulated param")
    s_tab = [number(x, "s") for x in params.get("s", [])]
    f_tab = [number(x, "f") for x in params.get("f", [])]
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


def classify_limits(spec: NonlinearitySpec) -> tuple[LimitClass, LimitClass]:
    """Numeric (f0, finf) from ratios f(s)/s on geometric grids s in [1e-8, 1e8].

    Raises UnclassifiableLimitError for non-settling sequences and
    LimitConflictError when a declared class disagrees with the estimate.
    """
    ratios0 = [spec(10.0**-j) / 10.0**-j for j in range(1, _DECADES + 1)]
    ratiosinf = [spec(10.0**j) / 10.0**j for j in range(1, _DECADES + 1)]
    f0 = _classify_end(ratios0)
    finf = _classify_end(ratiosinf)
    for name, est, declared in (("f0", f0, spec.declared_f0),
                                ("finf", finf, spec.declared_finf)):
        if declared is not None and not est.agrees_with(declared):
            raise LimitConflictError(f"{name}: declared {declared} but classified {est}")
    return f0, finf


# ---------------------------------------------------------------------------
# problem specification
# ---------------------------------------------------------------------------


class ProblemSpec:
    """One scalar Dirichlet problem on the ball of radius R in dimension N.

    k = N is the Monge-Ampere case.
    """

    __slots__ = ("N", "k", "R", "f")

    def __init__(self, N: int, k: int, R: float, f: NonlinearitySpec):
        _check_order(N, k)
        if not (0.0 < R < math.inf):
            raise InvalidInputError(f"radius must be positive and finite, got {R!r}")
        if not isinstance(f, NonlinearitySpec):
            raise InvalidInputError("f must be a NonlinearitySpec")
        self.N, self.k, self.R, self.f = N, k, R, f

    @property
    def is_monge_ampere(self) -> bool:
        return self.k == self.N

    def to_json(self) -> dict:
        return {"N": self.N, "k": self.k, "R": self.R, "f": self.f.to_json()}

    @staticmethod
    def from_json(obj: dict) -> "ProblemSpec":
        if not isinstance(obj, dict):
            raise InvalidInputError(f"problem spec must be a JSON object, got {obj!r}")
        check_keys(obj, ("N", "k", "R", "f"), "problem spec")
        try:
            N = obj["N"]
            k = obj["k"]
            R = number(obj["R"], "R")
            f = NonlinearitySpec.from_json(obj["f"])
        except (KeyError, TypeError, ValueError) as exc:
            raise InvalidInputError(f"bad problem spec: {exc}") from exc
        return ProblemSpec(N=N, k=k, R=R, f=f)

    @staticmethod
    def load(path) -> "ProblemSpec":
        return ProblemSpec.from_json(read_json(path))


class EigenvalueResult(NamedTuple):
    """First eigenvalue of the radial operator, u(R) at it, and the count of IVPs behind it."""

    lambda1: float
    residual: float
    iterations: int
