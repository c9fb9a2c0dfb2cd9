"""Independent brute-force oracles for the shooting tests.

Deliberately different from the package path: classical fixed-step RK4 on the
*differential* form of the radial equation (solve S_k for u''), while the
package integrates the integral form with an adaptive embedded pair.  Slow and
simple; used only to pin expected values.  dop853_loop is the exception: the
DOP853 step written as loops over the package's own tableau, the reference
that its generated step must match bit for bit.  newton_pair is a damped
finite-difference Newton on the two fixed-R residuals of a coupled point, the
reference for the package's scaled 1-D root.  time_map_lambda is exact at
N = k = 1: lambda(d) as a quadrature, with no ODE integrated at all.
"""

import math

import numpy as np

from hessbif.errors import NumericalFailureError
from hessbif.rk import _A, _B, _BHH, _C, _E5


def _binom(n, k):
    if k < 0 or k > n:
        return 0
    return math.comb(n, k)


def eigen_terminal(N, k, R, lam, nsteps):
    """u(R) for S_k(D^2 u) = (lam |u|)^k, u(0) = -1, u'(0) = 0.

    Second-order ODE solved for u'':
        u'' = [ (lam max(-u,0))^k - C(N-1,k) q^k ] / [ C(N-1,k-1) q^(k-1) ],
    q = u'/r, seeded at r0 by the quadratic series.
    """
    c_full = _binom(N, k)
    c_hi = _binom(N - 1, k)
    c_lo = _binom(N - 1, k - 1)
    a = lam / c_full ** (1.0 / k)
    r0 = R * 1e-7
    u = -1.0 + 0.5 * a * r0 * r0
    v = a * r0

    def upp(r, u, v):
        q = v / r
        t = (lam * max(-u, 0.0)) ** k
        return (t - c_hi * q**k) / (c_lo * q ** (k - 1))

    h = (R - r0) / nsteps
    r = r0
    for _ in range(nsteps):
        k1u = v
        k1v = upp(r, u, v)
        k2u = v + 0.5 * h * k1v
        k2v = upp(r + 0.5 * h, u + 0.5 * h * k1u, v + 0.5 * h * k1v)
        k3u = v + 0.5 * h * k2v
        k3v = upp(r + 0.5 * h, u + 0.5 * h * k2u, v + 0.5 * h * k2v)
        k4u = v + h * k3v
        k4v = upp(r + h, u + h * k3u, v + h * k3v)
        u += h / 6.0 * (k1u + 2.0 * k2u + 2.0 * k3u + k4u)
        v += h / 6.0 * (k1v + 2.0 * k2v + 2.0 * k3v + k4v)
        r += h
    return u


def eigen_value(N, k, R, nsteps=8192, rel_tol=1e-12):
    """First eigenvalue by bisection on the RK4 terminal value."""
    lo, hi = 0.1 / R**2, 40.0 / R**2
    f_lo = eigen_terminal(N, k, R, lo, nsteps)
    f_hi = eigen_terminal(N, k, R, hi, nsteps)
    assert f_lo < 0.0 < f_hi, "oracle bracket does not straddle the eigenvalue"
    while hi - lo > rel_tol * hi:
        mid = 0.5 * (lo + hi)
        if eigen_terminal(N, k, R, mid, nsteps) < 0.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def dop853_loop(rhs, t, y, h, k0, rtol, atol):
    """One DOP853 step of length h from (t, y), where k0 = rhs(t, y), by the tableau loops.

    The reference for the package's generated step, which must match it bit for
    bit: returns (y_new, err), the 8th-order state and Hairer's error
    h |e5|^2 / sqrt((|e5|^2 + 0.01 |e3|^2) n) of the scaled e5 = sum E5_j k_j and
    e3 = sum (B_j - BHH_j) k_j, or inf when the new state is not finite.  The
    sums skip the zero entries of A, E5 and BHH; the B sum keeps its zeros.
    """
    n = len(y)
    k = [k0]
    for i in range(1, len(_A)):
        yi = list(y)
        for j, aij in enumerate(_A[i]):
            if aij != 0.0:
                haij = h * aij
                for c in range(n):
                    yi[c] += haij * k[j][c]
        k.append(rhs(t + _C[i] * h, yi))

    y_new = list(y)
    e5_acc = 0.0
    e3_acc = 0.0
    ok = True
    for c in range(n):
        inc = 0.0
        e5 = 0.0
        for j in range(len(_B)):
            inc += _B[j] * k[j][c]
            if _E5[j] != 0.0:
                e5 += _E5[j] * k[j][c]
        e3 = inc
        for j, bhh in enumerate(_BHH):
            if bhh != 0.0:
                e3 -= bhh * k[j][c]
        y_new[c] = y[c] + h * inc
        scale = atol[c] + rtol * max(abs(y[c]), abs(y_new[c]))
        e5_acc += (e5 / scale) ** 2
        e3_acc += (e3 / scale) ** 2
        if not math.isfinite(y_new[c]):
            ok = False
    if not ok:
        return y_new, math.inf
    den = e5_acc + 0.01 * e3_acc
    return y_new, (h * e5_acc / math.sqrt(den * n) if den > 0.0 else 0.0)


def newton_pair(residual_fn, lam0, dv0, scale_u, scale_v, tol):
    """(lambda, d_v, norm): damped Newton on (log lambda, log d_v) for residual_fn(lam, d_v)
    -> (u(R), v(R)), scaled by (scale_u, scale_v), until both are within tol.

    Forward-difference Jacobian (step 1e-6), steps capped at 2 in log space and halved
    up to 8 times until the max-norm falls, at most 40 iterations; NumericalFailureError
    when it stalls.
    """

    def fval(z):
        ru, rv = residual_fn(math.exp(z[0]), math.exp(z[1]))
        return (ru / scale_u, rv / scale_v)

    z = [math.log(lam0), math.log(dv0)]
    f = fval(z)
    norm = max(abs(f[0]), abs(f[1]))
    for _ in range(40):
        if norm <= tol:
            break
        jac = [[0.0, 0.0], [0.0, 0.0]]
        for j in range(2):
            zp = list(z)
            zp[j] += 1e-6
            fp = fval(zp)
            jac[0][j] = (fp[0] - f[0]) / 1e-6
            jac[1][j] = (fp[1] - f[1]) / 1e-6
        det = jac[0][0] * jac[1][1] - jac[0][1] * jac[1][0]
        if det == 0.0 or not math.isfinite(det):
            raise NumericalFailureError("singular Jacobian in the reference Newton")
        dz0 = -(jac[1][1] * f[0] - jac[0][1] * f[1]) / det
        dz1 = -(-jac[1][0] * f[0] + jac[0][0] * f[1]) / det
        biggest = max(abs(dz0), abs(dz1))
        if biggest > 2.0:
            dz0 *= 2.0 / biggest
            dz1 *= 2.0 / biggest
        step = 1.0
        for _ in range(9):
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
            raise NumericalFailureError(f"reference Newton stalled at residual norm {norm:.3e}")
    if norm > tol:
        raise NumericalFailureError(f"reference Newton did not converge (norm {norm:.3e})")
    return math.exp(z[0]), math.exp(z[1]), norm


def time_map_lambda(f, d, R, n=200):
    """lambda(d) at N = k = 1, where -w'' = lambda f(w) on (-R, R), w = -u, w(0) = d.

    w'^2 / 2 + lambda F(w) is conserved (F' = f), so the time map (T. Laetsch,
    Indiana Univ. Math. J. 20, 1970; J. Smoller and A. Wasserman, J. Differential
    Equations 39, 1981) gives lambda(d) = I(d)^2 / (2 R^2) with
        I(d) = int_0^1 2 sqrt(d) / sqrt(M(x)) dx,  M(x) = int_0^1 f(d - d x^2 theta) dtheta,
    after w = d (1 - x^2); M is the mean of f over [w, d], so nothing cancels.  Both
    integrals by n-point Gauss-Legendre: at n = 200 the registry kinds at d in
    1e-2..1e2 lie within 9e-13 of n = 800 (the s^(1/2) kinds, whose f has an
    endpoint singularity, converge slowest; the others within 1e-15).
    """
    nodes, weights = np.polynomial.legendre.leggauss(n)
    x, w = 0.5 * (nodes + 1.0), 0.5 * weights
    s = d - d * np.outer(x * x, x)
    mean_f = np.array([f(v) for v in s.ravel().tolist()]).reshape(s.shape) @ w
    total = np.sum(w * 2.0 * math.sqrt(d) / np.sqrt(mean_f))
    return float(total * total / (2.0 * R * R))


def time_map_fold(f, d_lo, d_hi, R, kind, rel_tol=1e-7):
    """The fold lambda of time_map_lambda: its maximum ("max") or minimum ("min") over
    d in [d_lo, d_hi], by golden-section search in log d down to rel_tol in d."""
    sign = -1.0 if kind == "max" else 1.0

    def g(z):
        return sign * time_map_lambda(f, math.exp(z), R)

    ratio = 0.5 * (math.sqrt(5.0) - 1.0)
    a, b = math.log(d_lo), math.log(d_hi)
    c, e = b - ratio * (b - a), a + ratio * (b - a)
    gc, ge = g(c), g(e)
    while b - a > rel_tol:
        if gc < ge:
            b, e, ge = e, c, gc
            c = b - ratio * (b - a)
            gc = g(c)
        else:
            a, c, gc = c, e, ge
            e = a + ratio * (b - a)
            ge = g(e)
    return sign * min(gc, ge)


# Truncated power series in x = r^2, as lists of coefficients of one length: the
# Taylor oracle of the origin series (origin_taylor) composes the registry weights
# from these exactly, with no difference quotient.

def series_mul(a, b):
    return [sum(a[i] * b[n - i] for i in range(n + 1)) for n in range(len(a))]


def series_pow(a, q):
    """a^q by J. C. P. Miller's recurrence; a[0] > 0."""
    b = [a[0] ** q]
    for n in range(1, len(a)):
        b.append(sum(((q + 1.0) * j - n) * a[j] * b[n - j] for j in range(1, n + 1))
                 / (n * a[0]))
    return b


def series_log(a):
    out = [math.log(a[0])]
    for n in range(1, len(a)):
        out.append((a[n] - sum(j * out[j] * a[n - j] for j in range(1, n)) / n) / a[0])
    return out


def _plus_one(a):
    return [1.0 + a[0]] + a[1:]


# the registry kinds (core.registry) as functions of the series of s
REGISTRY_SERIES = {
    "linear": lambda s: s,
    "saturating": lambda s: series_mul(s, series_pow(_plus_one(s), -1.0)),
    "superlinear": lambda s: series_mul(s, _plus_one(s)),
    "quadratic_over_linear": lambda s: series_mul(series_mul(s, s),
                                                  series_pow(_plus_one(s), -1.0)),
    "sqrt": lambda s: series_pow(s, 0.5),
    "square": lambda s: series_mul(s, s),
    "sqrt_plus_square": lambda s: [p + q for p, q in zip(series_pow(s, 0.5),
                                                         series_mul(s, s))],
    "log_bump": lambda s: series_log(_plus_one(series_mul(s, s))),
}


def origin_taylor(N, k, lam, d, w_series, terms=16):
    """(u, mu): Taylor coefficients in x = r^2 of u and of m / r^N for the radial
    problem S_k(D^2 u) = (lam w(-u))^k with u(0) = -d, w(s) given as w_series of the
    series of s.

    With G = (lam w(s))^k, m' = C r^(N-1) G gives mu_j = C G_j / (N + 2j),
    C = k / C(N-1, k-1), and u' = (m r^(k-N))^(1/k) = r mu_0^(1/k) (mu / mu_0)^(1/k)
    gives u_{j+1} = mu_0^(1/k) [(mu / mu_0)^(1/k)]_j / (2 (j + 1)).  Each pass fixes
    one more coefficient of u, so terms passes give them all."""
    C = k / _binom(N - 1, k - 1)
    u = [-d] + [0.0] * (terms - 1)
    for _ in range(terms):
        G = series_pow([lam * c for c in w_series([-c for c in u])], float(k))
        mu = [C * g / (N + 2 * j) for j, g in enumerate(G)]
        root = series_pow([c / mu[0] for c in mu], 1.0 / k)
        a = mu[0] ** (1.0 / k)
        u = [-d] + [a * root[j] / (2.0 * (j + 1)) for j in range(terms - 1)]
    return u, mu
