"""Independent brute-force oracles for the shooting tests.

Deliberately different from the package path: classical fixed-step RK4 on the
*differential* form of the radial equation (solve S_k for u''), while the
package integrates the integral form with an adaptive embedded pair.  Slow and
simple; used only to pin expected values.  cash_karp_loop is the exception: the
Cash-Karp step written as loops over the package's own tableau, the reference
that its generated step must match bit for bit.
"""

import math

from hessbif.rk import _A, _B4, _B5, _C


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


def cash_karp_loop(rhs, t, y, h, k0, rtol, atol):
    """One Cash-Karp step of length h from (t, y), where k0 = rhs(t, y), by the tableau loops.

    The reference for the package's generated step, which must match it bit for
    bit: returns (y5, err), the 5th-order state and the RMS of the scaled
    4th/5th-order difference, or inf when the new state is not finite.
    """
    n = len(y)
    k = [k0, None, None, None, None, None]
    for i in range(1, 6):
        ai = _A[i]
        yi = list(y)
        for j, aij in enumerate(ai):
            kj = k[j]
            haij = h * aij
            for c in range(n):
                yi[c] += haij * kj[c]
        k[i] = rhs(t + _C[i] * h, yi)

    y5 = list(y)
    err_acc = 0.0
    ok = True
    for c in range(n):
        inc5 = 0.0
        inc4 = 0.0
        for j in range(6):
            kjc = k[j][c]
            inc5 += _B5[j] * kjc
            inc4 += _B4[j] * kjc
        y5c = y[c] + h * inc5
        y5[c] = y5c
        diff = h * (inc5 - inc4)
        scale = atol[c] + rtol * max(abs(y[c]), abs(y5c))
        err_acc += (diff / scale) ** 2
        if not math.isfinite(y5c):
            ok = False
    return y5, (math.sqrt(err_acc / n) if ok else math.inf)
