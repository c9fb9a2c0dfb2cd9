"""Bifurcation diagrams lambda(d), folds, solution counts, theorem predicates.

The branch coordinate is the amplitude d = -u(0) = max|u|, which makes the
multivalued lambda -> u correspondence a single-valued map d -> lambda(d) for
radial shooting.  A traced branch is the concrete, finite stand-in for the
solution continuum: existence/multiplicity claims become crossing counts of
horizontal lines lambda = const against the polyline, and the bifurcation
points at zero/infinite amplitude become extrapolated asymptotes of the two
tails.

Each amplitude has exactly one lambda: _solve_point reads it, and the point's
admissibility flag, off one scaled IVP run to the first zero of u
(shooting.lambda_at_amplitude, shooting.trajectory_admissible), so the tracer
needs no lambda brackets and no second shot.  One tracer, trace, serves scalar
and coupled branches; trace_branch and system.trace_system_branch supply only
its point solver.  The counts that verify_predictions reads off the polyline
are certified, when it is given the spec, by sign changes of the independent
fixed-R residual u(R; lambda, d) across each crossing (_certify_crossings).

All verification is for radial branches on balls; reports say so explicitly.
"""

from __future__ import annotations

import math
from typing import NamedTuple

from .core import LimitClass, ProblemSpec, aitken
from .errors import (
    AtFoldError,
    InvalidInputError,
    NumericalFailureError,
    OutOfTableError,
    TracingFailureError,
)
from .shooting import (
    TOL,
    eigen_rel_tol,
    first_eigenvalue,
    lambda_at_amplitude,
    shoot_boundary_value,
    trajectory_admissible,
)

PLATEAU_REL = 1e-6          # extremum must beat neighbors by this (relative)
JUMP_REL = 0.20             # log-log bend ln(1 + JUMP_REL) that triggers local grid refinement
MAX_REFINE_DEPTH = 3
POLISH_XATOL = 1e-4         # fold polish stops when the apex is pinned to this in ln d
GOLDEN_STEP = (3.0 - math.sqrt(5.0)) / 2.0   # Brent's fallback step, a fraction of the longer side
GAP_FRACTION_LIMIT = 0.10
RADIAL_SCOPE_NOTE = "scope: radial shooting branches on a ball; non-radial solutions are not examined"
CERTIFICATE_NOTE = ("certificates: u(R; lambda, d) of opposite signs at the ends of a crossing's "
                    "interval prove a solution inside it, so n sign changes prove count >= n "
                    "(a vertex within tolerance is a solution to |u(R)|/d, not a proof); "
                    "'count = 0' and the upper bound of 'count = 2' are polyline readings")
CSV_HEADER = "index,d,lambda,is_fold"
OLD_CSV_HEADER = "index,d,lambda,residual,is_fold"   # read only: the residual column is ignored


class BranchPoint(NamedTuple):
    d: float
    lam: float
    admissible: bool
    seed: bool = True   # True for points of the base log grid (tails use these)


class Fold(NamedTuple):
    index: int
    lam: float
    kind: str   # "max" | "min"


class AsymptoteEstimate(NamedTuple):
    """Extrapolated branch limit: finite value, 0, +inf, or undetermined."""

    kind: str                 # "finite" | "zero" | "infinite" | "undetermined"
    value: float | None = None

    @property
    def as_float(self) -> float:
        if self.kind == "finite":
            return self.value
        if self.kind == "zero":
            return 0.0
        if self.kind == "infinite":
            return math.inf
        return math.nan

    def __str__(self):
        return f"{self.value:.8g}" if self.kind == "finite" else self.kind


class Branch:
    """Points in increasing d, the amplitudes of its gaps, its folds and tail asymptotes."""

    __slots__ = ("points", "gaps", "folds", "lambda_at_zero", "lambda_at_infinity")

    def __init__(self, points: list[BranchPoint], gaps: list[float] | None = None,
                 folds: list[Fold] | None = None,
                 lambda_at_zero: AsymptoteEstimate | None = None,
                 lambda_at_infinity: AsymptoteEstimate | None = None):
        ds = [p.d for p in points]
        if any(b <= a for a, b in zip(ds, ds[1:])):
            raise InvalidInputError("branch points must be strictly increasing in d")
        self.points = points
        self.gaps = [] if gaps is None else gaps
        self.folds = [] if folds is None else folds
        self.lambda_at_zero = lambda_at_zero
        self.lambda_at_infinity = lambda_at_infinity

    def lam_values(self):
        return [p.lam for p in self.points]

    def segments(self):
        """Index ranges [start, stop) of points not interrupted by a gap."""
        if not self.points:
            return []
        cuts = sorted(self.gaps)
        out = []
        start = 0
        for i in range(len(self.points) - 1):
            lo, hi = self.points[i].d, self.points[i + 1].d
            if any(lo < g < hi for g in cuts):
                out.append((start, i + 1))
                start = i + 1
        out.append((start, len(self.points)))
        return out

    def to_csv(self, path) -> None:
        """The branch as CSV: index, the fields of its point type but admissible and seed
        (lam headed lambda), and is_fold.  CSV_HEADER for BranchPoints and for no points;
        index,d_u,d_v,lambda,res_u,res_v,is_fold for system.SystemBranchPoints."""
        fields = ([f for f in self.points[0]._fields if f not in ("admissible", "seed")]
                  if self.points else ["d", "lam"])
        fold_idx = {f.index for f in self.folds}
        with open(path, "w", newline="") as fh:
            fh.write(",".join(["index", *("lambda" if f == "lam" else f for f in fields),
                               "is_fold"]) + "\n")
            for i, p in enumerate(self.points):
                cells = "".join(f"{getattr(p, f):.17g}," for f in fields)
                fh.write(f"{i},{cells}{1 if i in fold_idx else 0}\n")

    @staticmethod
    def from_csv(path) -> "Branch":
        """The branch of a CSV written by to_csv, or with the older header OLD_CSV_HEADER."""
        try:
            with open(path) as fh:
                header = fh.readline().strip()
                if header not in (CSV_HEADER, OLD_CSV_HEADER):
                    raise InvalidInputError(f"bad branch CSV header: {header!r}")
                n_cells = header.count(",") + 1
                points = []
                fold_rows = []
                for line in fh:
                    line = line.strip()
                    if not line:
                        continue
                    cells = line.split(",")
                    if len(cells) != n_cells:
                        raise InvalidInputError(f"bad branch CSV row: {line!r}")
                    d, lam, is_fold = float(cells[1]), float(cells[2]), cells[-1]
                    if not (0.0 < d < math.inf and 0.0 < lam < math.inf):
                        raise InvalidInputError(
                            f"branch CSV row needs 0 < d < inf and 0 < lambda < inf: {line!r}")
                    points.append(BranchPoint(d=d, lam=lam, admissible=True))
                    if is_fold.strip() not in ("0", "1"):
                        raise InvalidInputError(f"bad is_fold flag in row: {line!r}")
                    if is_fold.strip() == "1":
                        fold_rows.append(len(points) - 1)
        except OSError as exc:
            raise InvalidInputError(f"cannot read branch CSV {path}: {exc}") from exc
        except ValueError as exc:
            raise InvalidInputError(f"malformed branch CSV {path}: {exc}") from exc
        if not points:
            raise InvalidInputError(f"branch CSV {path} contains no points")
        br = Branch(points=points)
        lams = br.lam_values()
        # the CSV does not store the kind: a fold is a maximum iff it tops its neighbors
        for i in fold_rows:
            tops = all(lams[i] >= x for x in lams[max(i - 1, 0):i + 2])
            br.folds.append(Fold(i, lams[i], "max" if tops else "min"))
        return br


# ---------------------------------------------------------------------------
# fold detection and solution counting
# ---------------------------------------------------------------------------


def detect_folds(branch: Branch) -> list[Fold]:
    """Interior local extrema of lambda over d, with plateau hysteresis.

    An extremum counts only if the sequence moves by more than PLATEAU_REL
    relative on both flanks, so flat (eigen-type) branches report none.
    Segments separated by gaps are scanned independently.
    """
    if len(branch.points) < 3:
        return []
    lams = branch.lam_values()
    folds = []
    for start, stop in branch.segments():
        if stop - start < 3:
            continue
        trend = 0
        ref = lams[start]
        ref_idx = start
        for i in range(start + 1, stop):
            tol = PLATEAU_REL * max(abs(lams[i]), abs(ref))
            if lams[i] > ref + tol:
                if trend < 0 and ref_idx > start:
                    folds.append(Fold(ref_idx, lams[ref_idx], "min"))
                trend, ref, ref_idx = 1, lams[i], i
            elif lams[i] < ref - tol:
                if trend > 0 and ref_idx > start:
                    folds.append(Fold(ref_idx, lams[ref_idx], "max"))
                trend, ref, ref_idx = -1, lams[i], i
            else:
                if (trend >= 0 and lams[i] > ref) or (trend < 0 and lams[i] < ref):
                    ref, ref_idx = lams[i], i
    return sorted(folds, key=lambda f: f.index)


def _crossings(branch: Branch, lam: float):
    """(d, index) of every crossing of the horizontal line lambda = lam."""
    lams = branch.lam_values()
    hits = []
    for start, stop in branch.segments():
        for i in range(start, stop - 1):
            a, b = lams[i] - lam, lams[i + 1] - lam
            if a == 0.0:
                if i == start or (lams[i - 1] - lam) != 0.0:
                    hits.append((branch.points[i].d, i))
            elif a * b < 0.0:
                t = a / (a - b)
                ld = (math.log(branch.points[i].d) * (1 - t)
                      + math.log(branch.points[i + 1].d) * t)
                hits.append((math.exp(ld), i))
        last = stop - 1
        if lams[last] - lam == 0.0 and (stop - start) >= 2:
            hits.append((branch.points[last].d, last))
    return hits


def count_solutions(branch: Branch, lam: float) -> int:
    """Crossings of lambda = const against the branch polyline.

    Raises AtFoldError when lam sits within PLATEAU_REL relative of a fold value
    (the fold contributes its own single solution there).
    """
    if not (lam > 0.0) or not math.isfinite(lam):
        raise InvalidInputError(f"lambda must be positive, got {lam!r}")
    folds = branch.folds if branch.folds else detect_folds(branch)
    for f in folds:
        if abs(lam - f.lam) <= PLATEAU_REL * max(abs(lam), abs(f.lam)):
            raise AtFoldError(lam, f.lam)
    return len(_crossings(branch, lam))


def solution_amplitudes(branch: Branch, lam: float) -> list[float]:
    """Amplitudes d of the branch crossings at lambda = lam (log-d interpolation)."""
    return sorted(d for d, _ in _crossings(branch, lam))


# ---------------------------------------------------------------------------
# asymptote extrapolation
# ---------------------------------------------------------------------------


def _classify_tail(lams) -> AsymptoteEstimate:
    """lams: three branch values ordered toward the limit, log-spaced in d."""
    a, b, c = lams
    if min(lams) <= 0.0:
        return AsymptoteEstimate("undetermined")
    d1 = math.log10(b) - math.log10(a)
    d2 = math.log10(c) - math.log10(b)
    if abs(d2) < 1e-4:
        return AsymptoteEstimate("finite", aitken(a, b, c))
    if d1 * d2 < 0.0:
        return AsymptoteEstimate("undetermined")
    if abs(d2) <= 0.75 * abs(d1):
        # contracting in log lambda: geometric approach to a finite limit
        val = aitken(a, b, c)
        if val <= 0.02 * c:
            return AsymptoteEstimate("zero")
        return AsymptoteEstimate("finite", val)
    # persistent log-slope: power-law tail
    return AsymptoteEstimate("infinite") if d2 > 0.0 else AsymptoteEstimate("zero")


def asymptote_estimates(branch: Branch):
    """(lambda_at_zero, lambda_at_infinity) extrapolated from the branch tails.

    Uses the base-grid (seed) points only, which stay log-spaced after local
    refinement; the tail beyond the outermost fold must be monotone or the end
    is reported undetermined.
    """
    seeds = [p for p in branch.points if p.seed]
    if len(seeds) < 4:
        raise InvalidInputError("need at least 4 base-grid points for asymptotes")
    span = math.log10(seeds[-1].d / seeds[0].d)
    if span < 4.0 - 1e-9:
        raise InvalidInputError(f"branch covers only {span:.2f} decades of d, need >= 4")

    folds = branch.folds if branch.folds else detect_folds(branch)
    d_values = [p.d for p in branch.points]
    lo_lim = d_values[folds[0].index] if folds else math.inf
    hi_lim = d_values[folds[-1].index] if folds else 0.0

    head = [p for p in seeds if p.d < lo_lim]
    tail = [p for p in seeds if p.d > hi_lim]
    if len(head) >= 3:
        at_zero = _classify_tail([head[2].lam, head[1].lam, head[0].lam])
    else:
        at_zero = AsymptoteEstimate("undetermined")
    if len(tail) >= 3:
        at_inf = _classify_tail([tail[-3].lam, tail[-2].lam, tail[-1].lam])
    else:
        at_inf = AsymptoteEstimate("undetermined")
    return at_zero, at_inf


# ---------------------------------------------------------------------------
# theorem predictions
# ---------------------------------------------------------------------------

AT_LEAST_ONE = "at-least-one"
TWO_BELOW_MAX_FOLD = "two-below-max-fold"
TWO_ABOVE_MIN_FOLD = "two-above-min-fold"


class TheoremPrediction(NamedTuple):
    """Existence interval and multiplicity profile for one (f0, finf) cell."""

    case: str
    lam_lo: float
    lam_hi: float
    profile: str
    lam_from_zero: float       # branch limit as d -> 0 (may be 0.0 or inf)
    lam_from_infinity: float   # branch limit as d -> inf (may be 0.0 or inf)
    fold_driven: bool = False  # interval endpoints come from observed folds


def predicted_interval(f0: LimitClass, finf: LimitClass,
                       lambda1: float) -> TheoremPrediction:
    """Existence-table cell for the given limit classes.

    Off the diagonal, at least one solution exists for lambda between the two
    branch limits lambda1 / f0 and lambda1 / finf (ratio_under).  The two
    non-finite diagonal cells (both Infinite / both Zero) have fold-driven
    multiplicity profiles over (0, inf) instead; the Zero-Zero cell
    additionally requires a coercive nonlinearity.  Equal finite limits are
    outside the table.
    """
    if not (lambda1 > 0.0):
        raise InvalidInputError(f"lambda1 must be positive, got {lambda1!r}")
    from_zero = f0.ratio_under(lambda1)
    from_inf = finf.ratio_under(lambda1)
    case = f"{f0.kind}-{finf.kind}"
    if f0 == finf:
        if f0.is_finite:
            raise OutOfTableError(
                "equal finite limits at 0 and infinity are outside the existence table")
        profile = TWO_BELOW_MAX_FOLD if f0.is_infinite else TWO_ABOVE_MIN_FOLD
        return TheoremPrediction(case, 0.0, math.inf, profile, from_zero, from_inf,
                                 fold_driven=True)
    lo, hi = sorted((from_zero, from_inf))
    return TheoremPrediction(case, lo, hi, AT_LEAST_ONE, from_zero, from_inf)


# ---------------------------------------------------------------------------
# verification report
# ---------------------------------------------------------------------------


class Check(NamedTuple):
    name: str
    predicted: str
    observed: str
    passed: bool
    tol: float | None = None

    def to_json(self):
        return {"name": self.name, "predicted": self.predicted,
                "observed": self.observed, "pass": self.passed, "tol": self.tol}


class VerificationReport:
    """Checks of one verification run and the notes that qualify them."""

    __slots__ = ("checks", "notes")

    def __init__(self, checks: list[Check] | None = None, notes: list[str] | None = None):
        self.checks = [] if checks is None else checks
        self.notes = [] if notes is None else notes

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def add(self, name, predicted, observed, passed, tol=None):
        self.checks.append(Check(name, str(predicted), str(observed), bool(passed), tol))

    def to_json(self):
        return {
            "schema_version": 1,
            "checks": [c.to_json() for c in self.checks],
            "pass": self.passed,
            "notes": list(self.notes),
        }


def _count_off_fold(branch: Branch, lam: float, width: float | None = None
                    ) -> tuple[float, int]:
    """(lambda counted, count): lam, or lam nudged off a fold value it accidentally hits.

    Given width, lam is also nudged off any vertex lambda within width relative
    of it, where a certificate could pass only by the vertex rule; a nudge that
    stays that close is tried only after all the others.
    """
    bumps = (1.0, 1.0 + 1e-4, 1.0 - 1e-4, 1.0 + 1e-3)
    if width is not None:
        vertices = branch.lam_values()
        bumps = sorted(bumps, key=lambda bump: any(   # stable: off-vertex bumps first
            abs(lam * bump - v) <= width * abs(v) for v in vertices))
    for bump in bumps:
        try:
            return lam * bump, count_solutions(branch, lam * bump)
        except AtFoldError:
            continue
    raise AtFoldError(lam, lam)


def _certify_crossings(rep: VerificationReport, branch: Branch, lam: float,
                       spec: ProblemSpec, tol: float) -> None:
    """One check per crossing of lambda = lam: the fixed-R residual changes sign across it.

    A crossing in the polyline interval [d_i, d_i+1] (a vertex hit: the
    interval from that vertex, or into it at a branch's last point) costs two
    shots, u(R; lam, d_i) and u(R; lam, d_i+1).  u(R) is continuous in d and
    vanishes exactly at a Dirichlet solution, so opposite signs prove a
    solution with amplitude inside the interval, whatever the monotonicity of
    f.  Otherwise the check passes only as "vertex within tolerance", where
    |u(R)| / d <= eigen_rel_tol(tol) at an end: lam then sits on a vertex
    lambda to rounding, and u(R) there is noise around 0.  verify_predictions
    nudges its samples off the vertices first (_count_off_fold), so this rule
    is a fallback.
    """
    width = eigen_rel_tol(tol)
    points = branch.points
    for _, i in _crossings(branch, lam):
        a, b = (points[i], points[i + 1]) if i + 1 < len(points) else (points[i - 1], points[i])
        ua = shoot_boundary_value(spec, lam, a.d, tol)
        ub = shoot_boundary_value(spec, lam, b.d, tol)
        name = f"certificate at lambda={lam:.6g}, d in [{a.d:.6g}, {b.d:.6g}]"
        if ua < 0.0 < ub or ub < 0.0 < ua:
            rep.add(name, "u(R) changes sign", f"sign change: u(R) = {ua:.3e}, {ub:.3e}",
                    True, width)
            continue
        near, d = min((abs(ua) / a.d, a.d), (abs(ub) / b.d, b.d))
        observed = (f"vertex within tolerance: |u(R)|/d = {near:.3e} at d = {d:.6g}"
                    if near <= width else f"no sign change: u(R) = {ua:.3e}, {ub:.3e}")
        rep.add(name, "u(R) changes sign", observed, near <= width, width)


def _sample_inside(lam_lo, lam_hi, branch: Branch, n: int):
    """n lambda samples strictly inside the predicted interval, within coverage."""
    lams = branch.lam_values()
    lam_min, lam_max = min(lams), max(lams)
    margin = 1e-2
    lo = lam_lo * (1.0 + margin) if lam_lo > 0.0 else max(lam_min * 1.5, lam_max * 1e-6)
    hi = lam_hi * (1.0 - margin) if math.isfinite(lam_hi) else lam_max / 1.5
    hi = min(hi, lam_max / 1.02)
    lo = max(lo, lam_min * 1.02)
    if not (lo < hi):
        return []
    if n == 1:
        return [math.sqrt(lo * hi)]
    step = (hi / lo) ** (1.0 / (n - 1))
    return [lo * step**i for i in range(n)]


def verify_predictions(branch: Branch, prediction: TheoremPrediction,
                       lambda_samples: int = 5, spec: ProblemSpec | None = None,
                       tol: float = TOL) -> VerificationReport:
    """Check a traced branch against its predicted interval and profile.

    Samples the existence interval one tolerance-width inside (endpoint
    behavior is never asserted), checks multiplicity on both sides of the
    relevant fold for the diagonal cells, compares extrapolated asymptotes
    against the predicted bifurcation points, and runs the norm-bound monitor
    in the superlinear cases.  Given the branch's spec, every crossing behind
    a "count >= 1" or "count = 2" check is also certified by two fixed-R shots
    at tol (_certify_crossings), with the sample nudged off any vertex lambda
    within eigen_rel_tol(tol) of it.  Predicate failures are report entries,
    never exceptions; lambda_samples < 1 is invalid input.
    """
    if lambda_samples < 1:
        raise InvalidInputError(f"lambda_samples must be >= 1, got {lambda_samples}")
    rep = VerificationReport(notes=[RADIAL_SCOPE_NOTE])
    folds = branch.folds if branch.folds else detect_folds(branch)

    def count(name, lam, predicted, holds):
        lam, n = _count_off_fold(branch, lam, None if spec is None else eigen_rel_tol(tol))
        rep.add(name, predicted, f"count = {n}", holds(n))
        if spec is not None:   # a "count = 0" that holds has no crossing to certify
            _certify_crossings(rep, branch, lam, spec, tol)

    if prediction.profile == AT_LEAST_ONE:
        samples = _sample_inside(prediction.lam_lo, prediction.lam_hi,
                                 branch, lambda_samples)
        rep.add("interval-sample-coverage", f"{lambda_samples} samples",
                f"{len(samples)} samples", len(samples) == lambda_samples)
        for lam in samples:
            count(f"existence at lambda={lam:.6g}", lam, "count >= 1", lambda n: n >= 1)
    elif prediction.profile == TWO_BELOW_MAX_FOLD:
        maxima = [f for f in folds if f.kind == "max"]
        rep.add("fold-count", ">= 1 maximum", f"{len(maxima)} maxima", len(maxima) >= 1)
        if maxima:
            lam_star = max(f.lam for f in maxima)
            rep.notes.append(f"radial lambda* = {lam_star:.10g}")
            count("multiplicity below radial lambda*", 0.5 * lam_star, "count = 2",
                  lambda n: n == 2)
            count("non-existence above radial lambda*", 2.0 * lam_star, "count = 0",
                  lambda n: n == 0)
    elif prediction.profile == TWO_ABOVE_MIN_FOLD:
        minima = [f for f in folds if f.kind == "min"]
        rep.add("fold-count", ">= 1 minimum", f"{len(minima)} minima", len(minima) >= 1)
        if minima:
            lam_low = min(f.lam for f in minima)
            rep.notes.append(f"radial lambda_* = {lam_low:.10g}")
            count("multiplicity above radial lambda_*", 2.0 * lam_low, "count = 2",
                  lambda n: n == 2)
            count("non-existence below radial lambda_*", 0.5 * lam_low, "count = 0",
                  lambda n: n == 0)
    else:
        raise InvalidInputError(f"unknown profile {prediction.profile!r}")
    if spec is not None:
        rep.notes.append(CERTIFICATE_NOTE)

    at_zero = branch.lambda_at_zero
    at_inf = branch.lambda_at_infinity
    if at_zero is None or at_inf is None:
        try:
            at_zero, at_inf = asymptote_estimates(branch)
        except InvalidInputError:
            at_zero = at_inf = AsymptoteEstimate("undetermined")
    _asymptote_check(rep, "bifurcation point (d -> 0)", prediction.lam_from_zero,
                     at_zero, 1e-3)
    _asymptote_check(rep, "bifurcation point (d -> inf)", prediction.lam_from_infinity,
                     at_inf, 1e-2)

    if prediction.lam_from_infinity == 0.0 and prediction.profile == AT_LEAST_ONE:
        # superlinear growth: amplitudes stay bounded on compact lambda sets;
        # sample the upper part of the interval so crossings are interior
        samples = _sample_inside(prediction.lam_lo, prediction.lam_hi, branch, 8)[-3:]
        d_cap = max(p.d for p in branch.points) / 3.0
        for lam in samples:
            amps = solution_amplitudes(branch, lam)
            top = max(amps) if amps else 0.0
            rep.add(f"a-priori bound at lambda={lam:.6g}", f"max d <= {d_cap:.6g}",
                    f"max d = {top:.6g}", top <= d_cap)

    if branch.gaps:
        rep.notes.append(
            "no lambda root at d = "
            + ", ".join(f"{g:.6g}" for g in branch.gaps)
            + " (retained as potential non-existence evidence)")
    return rep


def _asymptote_check(rep: VerificationReport, name: str, target: float,
                     est: AsymptoteEstimate, rtol: float) -> None:
    if est.kind == "undetermined":
        rep.add(name, _fmt_limit(target), "undetermined", False, rtol)
        return
    if target == 0.0 or math.isinf(target):
        ok = est.as_float == target
        rep.add(name, _fmt_limit(target), str(est), ok, rtol)
        return
    ok = est.kind == "finite" and abs(est.value - target) <= rtol * target
    rep.add(name, f"{target:.8g}", str(est), ok, rtol)


def _fmt_limit(x: float) -> str:
    if x == 0.0:
        return "0"
    if math.isinf(x):
        return "inf"
    return f"{x:.8g}"


# ---------------------------------------------------------------------------
# tracing
# ---------------------------------------------------------------------------


def reference_lambda(lambda_scale: float, d: float, f_d: float, what: str) -> float:
    """lambda_scale d / f_d, the reference lambda at amplitude d with forcing f_d (named what);
    NumericalFailureError when an overflowed or underflowed f_d leaves no positive finite one."""
    lam = lambda_scale * d / f_d if f_d > 0.0 else math.inf
    if not 0.0 < lam < math.inf:
        raise NumericalFailureError(
            f"no usable reference lambda at amplitude {d!r}: {what} = {f_d!r}")
    return lam


def _solve_point(spec, d, tol, lambda_scale):
    """The point at amplitude d from one scaled IVP (shooting.lambda_at_amplitude: lambda(d),
    and trajectory_admissible on its states to the zero of u: the flag), or None (a gap)
    when u has no zero in range."""
    states = []
    lam = lambda_at_amplitude(spec, d, reference_lambda(lambda_scale, d, spec.f(d), "f(d)"),
                              tol, states)
    return None if lam is None else BranchPoint(d, lam, trajectory_admissible(states))


def log_grid(d_min: float, d_max: float, n: int) -> list[float]:
    """n amplitudes d_min ratio^i, ratio = (d_max / d_min)^(1/(n-1)), the last pinned to d_max."""
    if not (0.0 < d_min < d_max < math.inf):
        raise InvalidInputError(
            f"need 0 < d_min < d_max < inf, got the window [{d_min!r}, {d_max!r}]")
    if n < 2:
        raise InvalidInputError(f"a log grid needs n >= 2 points, got {n}")
    ratio = (d_max / d_min) ** (1.0 / (n - 1))
    grid = [d_min * ratio**i for i in range(n)]
    grid[-1] = d_max
    return grid


def trace(grid, solve) -> Branch:
    """The branch of solve's points over an amplitude grid, scalar or coupled.

    solve(d, near) returns the point at amplitude d (.d, .lam, .admissible,
    .seed) or a falsy gap; near holds its resolved neighbours for a warm start:
    the last resolved base point, or the two ends of a refined interval or of a
    fold bracket.  More than 10% gaps, or fewer than 4 points, raise
    TracingFailureError.  refine_jumps then splits the intervals where the branch
    bends, and _polish_folds moves each fold to its apex by Brent's method in ln d.
    Points they insert lie strictly between the two they were solved from and get
    seed = False.
    """
    grid = [float(d) for d in grid]
    if len(grid) < 4 or any(b <= a for a, b in zip(grid, grid[1:])):
        raise InvalidInputError("grid must be >= 4 strictly increasing amplitudes")
    points, gaps = [], []
    for d in grid:
        point = solve(d, points[-1:])
        if point:
            points.append(point)
        else:
            gaps.append(d)

    few = len(points) < 4
    if few or len(gaps) > GAP_FRACTION_LIMIT * len(grid):
        raise TracingFailureError(f"{len(gaps)}/{len(grid)} amplitudes have no lambda root"
                                  + ("; resolved fewer than 4 points" if few else ""))

    def between(d, near):
        point = solve(d, near)
        if not (point and near[0].d < point.d < near[1].d):
            return None
        return point._replace(seed=False)

    points = refine_jumps(points, lambda a, b: between(math.sqrt(a.d * b.d), (a, b)))
    branch = Branch(points=points, gaps=gaps)
    _polish_folds(branch, between)
    return attach_summaries(branch)


def trace_branch(spec: ProblemSpec, d_min: float, d_max: float, n_points: int,
                 tol: float = TOL, *,
                 lambda_scale: float | None = None) -> Branch:
    """Trace lambda(d) over log_grid(d_min, d_max, n_points) with trace.

    A point is one IVP with no warm start (_solve_point: the first zero rho
    of the solution at lambda0 = lambda_scale * d / f(d), searched out to 10^3 R,
    gives lambda0 (rho / R)^2, and the states up to it the admissibility flag);
    no zero is a gap.  No fixed-R shot is made.  lambda_scale defaults to lambda1.
    An f(d) that leaves no lambda0 (reference_lambda) aborts with NumericalFailureError.
    """
    if n_points < 16:
        raise InvalidInputError(f"n_points must be >= 16, got {n_points}")
    grid = log_grid(d_min, d_max, n_points)
    if lambda_scale is None:
        lambda_scale = first_eigenvalue(spec.N, spec.k, spec.R, tol).lambda1
    return trace(grid, lambda d, near: _solve_point(spec, d, tol, lambda_scale))


def attach_summaries(branch: Branch) -> Branch:
    """Set the branch's folds and, when its span allows, its tail asymptotes."""
    branch.folds = detect_folds(branch)
    try:
        branch.lambda_at_zero, branch.lambda_at_infinity = asymptote_estimates(branch)
    except InvalidInputError:
        pass  # short span traces keep asymptotes unset
    return branch


def refine_jumps(points, midpoint):
    """Insert midpoints where lambda(d) bends in log-log coordinates.

    An interval [a, b] is split when its increment ln(lam_b / lam_a) differs by
    more than ln(1 + JUMP_REL) from either neighbor's log-log slope times
    ln(d_b / d_a): the curvature test of continuation step control (Allgower
    and Georg, Numerical Continuation Methods, 1990).  A power law needs no
    split; a fold or a kink gets one.  Points expose the amplitude as p.d.
    midpoint(a, b) returns the point between a and b, or None when there is
    none (that interval is not asked again); each interval is split at most
    MAX_REFINE_DEPTH levels deep.
    """
    work = list(points)
    depth = {id(p): 0 for p in work}
    declined = set()
    bend_tol = math.log1p(JUMP_REL)

    def step(j):   # (ln d, ln lambda) increments over interval j
        a, b = work[j], work[j + 1]
        return math.log(b.d / a.d), math.log(b.lam / a.lam)

    i = 0
    while i < len(work) - 1:
        a, b = work[i], work[i + 1]
        level = max(depth[id(a)], depth[id(b)])
        dx, dy = step(i)
        neighbors = [step(j) for j in (i - 1, i + 1) if 0 <= j < len(work) - 1]
        bends = any(abs(dy - ny / nx * dx) > bend_tol for nx, ny in neighbors)
        if bends and level < MAX_REFINE_DEPTH and (id(a), id(b)) not in declined:
            mid = midpoint(a, b)
            if mid is not None:
                depth[id(mid)] = level + 1
                work.insert(i + 1, mid)
                i = max(i - 1, 0)   # the left neighbor's neighbor slope has changed
                continue
            declined.add((id(a), id(b)))
        i += 1
    return work


def _polish_folds(branch, solve):
    """Brent's minimization of -lambda (max fold) or lambda (min fold) over ln d.

    Each fold's search runs over its bracket, the open interval between the fold's
    two neighbours, by parabolic interpolation with a golden-section fallback
    (R. P. Brent, Algorithms for Minimization without Derivatives, 1973, ch. 5).
    It starts from the fold's own grid point as its best, second-best and
    previous point, so that point costs no solve, and it stops once the shrinking
    bracket pins the apex to within POLISH_XATOL of the best point (6 to 8 solves
    a fold on the registry sweep).  Every solve is solve(d, (the fold's
    two neighbours)) at a d strictly inside the bracket; a gap ends that fold's
    search.  The best point joins the branch only when it is strictly more
    extreme than the fold's grid point: near the apex the other evaluations
    differ from it in lambda by less than 1e-9 relative, so as points they would
    only make the fold's row ambiguous.
    """
    inserted = []
    for fold in detect_folds(branch):
        idx = fold.index
        if idx <= 0 or idx >= len(branch.points) - 1:
            continue
        sign = 1.0 if fold.kind == "max" else -1.0
        bracket = (branch.points[idx - 1], branch.points[idx + 1])
        a, b = math.log(bracket[0].d), math.log(bracket[1].d)
        grid_point = best = branch.points[idx]
        x = w = v = math.log(best.d)
        fx = fw = fv = -sign * best.lam
        step = last = 0.0   # the last two steps; a parabolic step must be under half of last
        tol = POLISH_XATOL / 3.0   # both ends within 2 tol of x pin the apex to POLISH_XATOL
        while abs(x - (mid := 0.5 * (a + b))) > 2.0 * tol - 0.5 * (b - a):
            parabolic = False
            if abs(last) > tol:   # vertex of the parabola through (v, fv), (w, fw), (x, fx)
                r = (x - w) * (fx - fv)
                q = (x - v) * (fx - fw)
                p = (x - v) * q - (x - w) * r
                q = 2.0 * (q - r)
                p, q = (-p if q > 0.0 else p), abs(q)
                if abs(p) < abs(0.5 * q * last) and q * (a - x) < p < q * (b - x):
                    last, step, parabolic = step, p / q, True
                    if min(x + step - a, b - x - step) < 2.0 * tol:
                        step = math.copysign(tol, mid - x)
            if not parabolic:
                last = (a if x >= mid else b) - x
                step = GOLDEN_STEP * last
            u = x + (step if abs(step) >= tol else math.copysign(tol, step))
            point = solve(math.exp(u), bracket)
            if not point:
                break
            fu = -sign * point.lam
            if fu <= fx:
                if u >= x:
                    a = x
                else:
                    b = x
                v, w, x, fv, fw, fx, best = w, x, u, fw, fx, fu, point
            else:
                if u < x:
                    a = u
                else:
                    b = u
                if fu <= fw or w == x:
                    v, w, fv, fw = w, u, fw, fu
                elif fu <= fv or v == x or v == w:
                    v, fv = u, fu
        if sign * best.lam > sign * grid_point.lam:
            inserted.append(best)
    if inserted:
        merged = {p.d: p for p in branch.points}
        for p in inserted:
            merged.setdefault(p.d, p)
        branch.points = [merged[d] for d in sorted(merged)]
