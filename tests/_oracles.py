"""Independent brute-force oracles for the shooting tests.

Deliberately different from the package path: classical fixed-step RK4 on the
*differential* form of the radial equation (solve S_k for u''), while the
package integrates the integral form with an adaptive embedded pair.  Slow and
simple; used only to pin expected values.  dop853_loop is the exception: the
DOP853 step written as loops over the package's own tableau, the reference
that its generated step must match bit for bit.  newton_pair is a damped
finite-difference Newton on the two fixed-R residuals of a coupled point, the
reference for the package's scaled 1-D root.
"""

import math

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
