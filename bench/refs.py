"""References computed apart from hessbif, and the property checks built on them.

Nothing here imports the package.  The program integrates the radial problem
in its integral (flux) form with an adaptive Cash-Karp pair; the residual
checks below use classical fixed-step RK4 on the *differential* form,

    u'' = [ T - C(N-1,k) q^k ] / [ C(N-1,k-1) q^(k-1) ],   q = u'/r,

where T = (lambda f(-u))^k is the right-hand side of S_k(D^2 u) = T.  Every
nonlinearity is written out again here from its formula, so a wrong f in the
package cannot make a check agree with it.

Run ``python3 bench/refs.py --regen`` to recompute ``eigen_refs.json``: the
first eigenvalues for k > 1 at R = 1 by RK4 shooting at 8192 and 16384 steps
(the check takes lambda1(R) = lambda1(1) / R^2, which holds exactly because
S_k(D^2 u) is homogeneous of degree 2k under x -> x/R).  k = 1 needs no
table: lambda1 = j_{N/2-1,1}^2 / R^2 from the Bessel series below.
"""

from __future__ import annotations

import json
import math
import os
import sys

EIGEN_REFS = os.path.join(os.path.dirname(os.path.abspath(__file__)), "eigen_refs.json")

# relative tolerance on an eigenvalue against its reference; the program's
# root and integrator tolerances are 1e-10 and the references are good to
# about 1e-12, so a 1e-6 error is caught with room to spare
EIGEN_RTOL = 1e-8
# lambda(d) d^(p-1) must be constant along a pure-power branch
HOMOGENEITY_RTOL = 1e-8
# d_v = d_u on a symmetric pair
SYMMETRY_RTOL = 1e-9
# residual floor relative to the amplitude; the step-halving estimate adds to it
RESIDUAL_FLOOR = 1e-8
RK4_STEPS = 2048


# ---------------------------------------------------------------------------
# nonlinearities, written out from their formulas
# ---------------------------------------------------------------------------

def scalar_f(kind, params):
    """f(s) for s >= 0."""
    if kind == "log_bump":
        return lambda s: math.log1p(s * s)
    if kind == "power":
        p = float(params["p"])
        return lambda s: s ** p
    if kind == "sum_of_powers":
        p, q, c = (float(params[n]) for n in ("p", "q", "c"))
        return lambda s: s ** p + c * s ** q
    if kind == "linear":
        return lambda s: s
    raise ValueError(f"no reference formula for kind {kind!r}")


def pair_weight(kind, params):
    """w(x) of the weight forms g = t w(s+t), h = s w(s+t)."""
    base = kind.rpartition("_")[0]
    if base == "saturating":
        return lambda x: 1.0 / (1.0 + x)
    if base == "superlinear":
        return lambda x: 1.0 + x
    if base == "rational":
        b = float(params["b"])
        return lambda x: (1.0 + b * x) / (1.0 + x)
    if base == "linear":
        return lambda x: 1.0
    raise ValueError(f"no reference formula for kind {kind!r}")


# ---------------------------------------------------------------------------
# fixed-step RK4 on the differential form
# ---------------------------------------------------------------------------

def _rk4(upp_fns, r0, R, states, n):
    """Integrate (u_i, u_i') pairs with u_i'' = upp_fns(r, states); returns the final states."""
    h = (R - r0) / n
    r = r0
    y = list(states)
    m = len(y)

    def deriv(rr, yy):
        acc = upp_fns(rr, yy)
        out = [0.0] * m
        for i in range(0, m, 2):
            out[i] = yy[i + 1]
            out[i + 1] = acc[i // 2]
        return out

    for _ in range(n):
        k1 = deriv(r, y)
        k2 = deriv(r + 0.5 * h, [a + 0.5 * h * b for a, b in zip(y, k1)])
        k3 = deriv(r + 0.5 * h, [a + 0.5 * h * b for a, b in zip(y, k2)])
        k4 = deriv(r + h, [a + h * b for a, b in zip(y, k3)])
        y = [a + h / 6.0 * (b1 + 2.0 * b2 + 2.0 * b3 + b4)
             for a, b1, b2, b3, b4 in zip(y, k1, k2, k3, k4)]
        r += h
    return y


def _upp(N, k, r, up, target):
    q = up / r
    return ((target - math.comb(N - 1, k) * q ** k)
            / (math.comb(N - 1, k - 1) * q ** (k - 1)))


def scalar_terminal(N, k, R, lam, d, f, n):
    """u(R) of S_k(D^2 u) = (lam f(-u))^k, u(0) = -d, by n RK4 steps."""
    a = lam * f(d) / math.comb(N, k) ** (1.0 / k)
    r0 = R * 1e-7

    def acc(r, y):
        s = -y[0]
        return (_upp(N, k, r, y[1], (lam * f(s)) ** k if s > 0.0 else 0.0),)

    return _rk4(acc, r0, R, [-d + 0.5 * a * r0 * r0, a * r0], n)[0]


def pair_terminal(N, k, R, lam, d_u, d_v, w_g, w_h, n):
    """(u(R), v(R)) of the weight-form pair, by n RK4 steps."""
    c = math.comb(N, k) ** (1.0 / k)

    def g(s, t):
        return t * w_g(s + t)

    def h(s, t):
        return s * w_h(s + t)

    a_u = lam * g(d_u, d_v) / c
    a_v = lam * h(d_u, d_v) / c
    r0 = R * 1e-7

    def acc(r, y):
        su, sv = max(-y[0], 0.0), max(-y[2], 0.0)
        return (_upp(N, k, r, y[1], (lam * g(su, sv)) ** k),
                _upp(N, k, r, y[3], (lam * h(su, sv)) ** k))

    y = _rk4(acc, r0, R, [-d_u + 0.5 * a_u * r0 * r0, a_u * r0,
                          -d_v + 0.5 * a_v * r0 * r0, a_v * r0], n)
    return y[0], y[2]


def residual_ok(terminal, d, n=RK4_STEPS):
    """|u(R)| <= tol d, tol set from RK4 step halving (n vs 2n steps).

    ``terminal(n)`` returns u(R) at n steps.  Returns (ok, |u(R)|/d, tol).
    """
    coarse, fine = terminal(n), terminal(2 * n)
    tol = RESIDUAL_FLOOR + 10.0 * abs(coarse - fine) / d
    rel = abs(fine) / d
    return rel <= tol, rel, tol


def scalar_residual(spec, d, lam, n=RK4_STEPS):
    f = scalar_f(spec["f"]["kind"], spec["f"].get("params", {}))
    N, k, R = spec["N"], spec["k"], spec["R"]
    return residual_ok(lambda m: scalar_terminal(N, k, R, lam, d, f, m), d, n)


def pair_residual(spec, d_u, d_v, lam, n=RK4_STEPS):
    w_g = pair_weight(spec["g"]["kind"], spec["g"].get("params", {}))
    w_h = pair_weight(spec["h"]["kind"], spec["h"].get("params", {}))
    N, k, R = spec["N"], spec["k"], spec["R"]
    cache = {}

    def term(m):
        if m not in cache:
            cache[m] = pair_terminal(N, k, R, lam, d_u, d_v, w_g, w_h, m)
        return cache[m]

    ok_u = residual_ok(lambda m: term(m)[0], d_u, n)
    ok_v = residual_ok(lambda m: term(m)[1], d_v, n)
    return ok_u[0] and ok_v[0], max(ok_u[1], ok_v[1]), min(ok_u[2], ok_v[2])


# ---------------------------------------------------------------------------
# eigenvalues
# ---------------------------------------------------------------------------

def _bessel_reduced(nu, x):
    """J_nu(x) / (x/2)^nu by its power series (entire in x)."""
    z = 0.25 * x * x
    term = 1.0 / math.gamma(nu + 1.0)
    total = term
    m = 0
    while abs(term) > 1e-18 * abs(total) or m < 8:
        m += 1
        term *= -z / (m * (m + nu))
        total += term
    return total


def bessel_first_zero(nu):
    """First positive zero of J_nu, nu > -1, by scan and bisection."""
    x = 0.05
    prev = _bessel_reduced(nu, x)
    while True:
        nxt = x + 0.05
        val = _bessel_reduced(nu, nxt)
        if (prev > 0.0) != (val > 0.0):
            break
        x, prev = nxt, val
    lo, hi = x, nxt
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if mid in (lo, hi):
            break
        if (_bessel_reduced(nu, mid) > 0.0) == (prev > 0.0):
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def _oracle_eigen(N, k, n):
    """lambda1(N, k, R=1) by regula falsi (Illinois) on the RK4 terminal value."""
    f = scalar_f("linear", {})

    def res(lam):
        return scalar_terminal(N, k, 1.0, lam, 1.0, f, n)

    lo, hi = 0.5, 60.0
    f_lo, f_hi = res(lo), res(hi)
    if not (f_lo < 0.0 < f_hi):
        raise RuntimeError(f"oracle bracket fails for N={N} k={k}")
    side = 0
    for _ in range(200):
        mid = (lo * f_hi - hi * f_lo) / (f_hi - f_lo)
        f_mid = res(mid)
        if f_mid == 0.0 or hi - lo <= 1e-15 * hi:
            return mid
        if f_mid < 0.0:
            lo, f_lo = mid, f_mid
            if side == -1:
                f_hi *= 0.5
            side = -1
        else:
            hi, f_hi = mid, f_mid
            if side == 1:
                f_lo *= 0.5
            side = 1
        if abs(f_mid) < 1e-15:
            return mid
    return mid


def oracle_cases():
    """(N, k) pairs with k > 1 that the workloads use."""
    cases = [(N, k) for N in range(2, 6) for k in range(2, N + 1)]
    return cases + [(8, 4), (8, 8)]


def regenerate(path=EIGEN_REFS):
    table = {}
    for N, k in oracle_cases():
        coarse = _oracle_eigen(N, k, 8192)
        fine = _oracle_eigen(N, k, 16384)
        table[f"{N},{k}"] = {"lambda1_R1": fine,
                             "halving_rel_change": abs(coarse - fine) / fine}
        print(f"N={N} k={k}: {fine:.15g} (step halving moved it {abs(coarse - fine) / fine:.1e})",
              file=sys.stderr)
    with open(path, "w") as fh:
        json.dump({"method": "fixed-step RK4 on the differential form, 16384 steps, "
                             "Illinois root to 1e-15; R = 1",
                   "values": table}, fh, indent=2, sort_keys=True)
        fh.write("\n")


_TABLE = None


def eigen_reference(N, k, R):
    """Reference lambda1 on the ball of radius R."""
    global _TABLE
    if k == 1:
        return bessel_first_zero(N / 2.0 - 1.0) ** 2 / R ** 2
    if _TABLE is None:
        with open(EIGEN_REFS) as fh:
            _TABLE = json.load(fh)["values"]
    return _TABLE[f"{N},{k}"]["lambda1_R1"] / R ** 2


def rel_err(got, want):
    return abs(got - want) / abs(want)


# ---------------------------------------------------------------------------
# branch properties
# ---------------------------------------------------------------------------

def extrema(lams, rel=1e-9):
    """(index, 'max'|'min') of interior extrema of a sequence, ignoring moves below rel."""
    out = []
    trend = 0
    ref_i = 0
    for i in range(1, len(lams)):
        tol = rel * max(abs(lams[i]), abs(lams[ref_i]))
        if lams[i] > lams[ref_i] + tol:
            if trend < 0 and ref_i > 0:
                out.append((ref_i, "min"))
            trend, ref_i = 1, i
        elif lams[i] < lams[ref_i] - tol:
            if trend > 0 and ref_i > 0:
                out.append((ref_i, "max"))
            trend, ref_i = -1, i
    return out


def homogeneity_spread(ds, lams, p):
    """max/min - 1 of lambda d^(p-1) over the branch."""
    vals = [lam * d ** (p - 1.0) for d, lam in zip(ds, lams)]
    return max(vals) / min(vals) - 1.0


if __name__ == "__main__":
    if sys.argv[1:] == ["--regen"]:
        regenerate()
    else:
        print("usage: python3 bench/refs.py --regen", file=sys.stderr)
        sys.exit(2)
