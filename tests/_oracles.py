"""Independent brute-force oracles for the shooting tests.

Deliberately different from the package path: classical fixed-step RK4 on the
*differential* form of the radial equation (solve S_k for u''), while the
package integrates the integral form with an adaptive embedded pair.  Slow and
simple; used only to pin expected values.  dop853_loop is the exception: the
DOP853 step written as loops over the package's own tableau, the reference
that its generated step must match bit for bit.
"""

import math

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
