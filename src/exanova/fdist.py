"""Central and noncentral F distribution in 64-bit floats.

This is the only module that leaves exact arithmetic: rational test
statistics are converted to float here, for p-values, quantiles, and
power.  `f_cdf` and `p_value_from` check their arguments and split the
statistic f the same way, into z = nu1 f/s and w = nu2/s with
s = nu1 f + nu2, and read the lower or the upper tail of one regularized
incomplete beta, computed by a continued fraction that raises
ArithmeticError if it does not converge.  Because w is formed from f and
not as 1 - z, the p-value keeps its relative digits down to about
1e-300.  The noncentral CDF is the Poisson-weighted mixture of
incomplete beta terms, summed outward from the Poisson mode with the
first weight taken in log space (Benton and Krishnamoorthy 2003, CSDA
43:249-267); each side stops on a bound of what it has left, so the
number of terms grows like sqrt(ncp).  Power is 1 - cdf, and the
noncentral lower tail far below 1e-13 is accurate only in absolute terms.
"""

from __future__ import annotations

import math

__all__ = ["f_cdf", "f_quantile", "p_value_from", "power"]

_BETACF_TOL = 1e-14
_BETACF_MAX_ITER = 400
_POISSON_TAIL = 1e-13
_QUANTILE_TOL = 1e-12


def _split(f: float, nu1: float, nu2: float, ncp: float = 0.0) -> tuple[float, float]:
    """Check the parameters, then split f into z = nu1 f/s and w = nu2/s
    for s = nu1 f + nu2, so a small w keeps its relative digits even
    where z rounds to 1."""
    if not (nu1 > 0 and nu2 > 0):
        raise ValueError("degrees of freedom must be positive")
    if ncp < 0:
        raise ValueError("noncentrality must be nonnegative")
    if f < 0:
        raise ValueError("F statistics are nonnegative")
    s = nu1 * f + nu2
    return nu1 * f / s, nu2 / s


def _betacf(a: float, b: float, x: float) -> float:
    """Continued fraction for the incomplete beta (modified Lentz)."""
    tiny = 1e-300
    qab = a + b
    qap = a + 1.0
    qam = a - 1.0
    c = 1.0
    d = 1.0 - qab * x / qap
    if abs(d) < tiny:
        d = tiny
    d = 1.0 / d
    h = d
    for m in range(1, _BETACF_MAX_ITER + 1):
        m2 = 2 * m
        aa = m * (b - m) * x / ((qam + m2) * (a + m2))
        d = 1.0 + aa * d
        if abs(d) < tiny:
            d = tiny
        c = 1.0 + aa / c
        if abs(c) < tiny:
            c = tiny
        d = 1.0 / d
        h *= d * c
        aa = -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2))
        d = 1.0 + aa * d
        if abs(d) < tiny:
            d = tiny
        c = 1.0 + aa / c
        if abs(c) < tiny:
            c = tiny
        d = 1.0 / d
        delta = d * c
        h *= delta
        if abs(delta - 1.0) < _BETACF_TOL:
            return h
    raise ArithmeticError(
        f"incomplete beta continued fraction did not converge in {_BETACF_MAX_ITER} "
        f"iterations (a={a!r}, b={b!r}, x={x!r})"
    )


def _betainc_tails(a: float, b: float, x: float, y: float, log_y: float, upper: bool) -> float:
    """I_x(a, b), or 1 - I_x(a, b) when `upper`, for x, y = 1 - x > 0 as
    `_split` forms them (x may round to 1 while y stays positive) and
    log_y = log(y).

    The continued fraction runs on the side of the mean where it converges
    fast.  The tail it gives is returned as it is, and only the other tail
    is formed as a difference from 1, so a small upper tail keeps its
    relative digits.
    """
    lfront = (
        math.lgamma(a + b)
        - math.lgamma(a)
        - math.lgamma(b)
        + a * math.log(x)
        + b * log_y
    )
    front = math.exp(lfront)
    if x < (a + 1.0) / (a + b + 2.0):
        lower = front * _betacf(a, b, x) / a
        return 1.0 - lower if upper else lower
    tail = front * _betacf(b, a, y) / b
    return tail if upper else 1.0 - tail


def f_cdf(x: float, nu1: float, nu2: float, ncp: float = 0.0) -> float:
    """CDF of the (noncentral) F distribution at x >= 0."""
    z, w = _split(x, nu1, nu2, ncp)
    if z == 0.0:
        return 0.0
    if w == 0.0:
        return 1.0
    a = nu1 / 2.0
    b = nu2 / 2.0
    log_w = math.log(w)
    if ncp == 0.0:
        return _betainc_tails(a, b, z, w, log_w, upper=False)
    # sum_k pois_k * I_z(a + k, b), pois_k the Poisson(half) weights, summed
    # outward from the mode m, so that no weight underflows at large ncp;
    # each side stops once what it has left is below _POISSON_TAIL, which
    # takes a number of terms that grows like sqrt(ncp)
    half = ncp / 2.0
    m = math.floor(half)
    pois_m = math.exp(-half + m * math.log(half) - math.lgamma(m + 1.0))
    ibeta_m = _betainc_tails(a + m, b, z, w, log_w, upper=False)
    # delta_k = I_z(a + k, b) - I_z(a + k + 1, b)
    delta_m = math.exp(
        (a + m) * math.log(z)
        + b * log_w
        + math.lgamma(a + b + m)
        - math.lgamma(a + m + 1.0)
        - math.lgamma(b)
    )
    total = pois_m * ibeta_m
    # upward: the terms after k sum to at most ibeta_k times the Poisson
    # mass above k, which is at most pois_k * r / (1 - r) with r = half/(k+1)
    pois, ibeta, delta, k = pois_m, ibeta_m, delta_m, m
    while ibeta * pois * half / (k + 1.0 - half) > _POISSON_TAIL:
        ibeta = max(ibeta - delta, 0.0)
        delta *= z * (a + b + k) / (a + k + 1.0)
        pois *= half / (k + 1)
        k += 1
        total += pois * ibeta
    # downward: the terms below k sum to at most the Poisson mass below k,
    # which is at most pois_k * k / (half - k + 1)
    pois, ibeta, delta, k = pois_m, ibeta_m, delta_m, m
    while k > 0 and pois * k / (half - k + 1.0) > _POISSON_TAIL:
        delta *= (a + k) / (z * (a + b + k - 1.0))
        ibeta += delta
        pois *= k / half
        k -= 1
        total += pois * ibeta
    return min(max(total, 0.0), 1.0)


def f_quantile(alpha: float, nu1: float, nu2: float) -> float:
    """Upper-alpha quantile of the central F distribution.

    Returns the point q with p_value_from(q) = alpha, by bisection on the
    upper tail itself, so a small alpha keeps its relative digits.
    """
    if not 0.0 < alpha < 1.0:
        raise ValueError("alpha must be strictly between 0 and 1")
    lo, hi = 0.0, 1.0
    while p_value_from(hi, nu1, nu2) > alpha:
        lo = hi
        hi *= 2.0
        if hi > 1e300:
            raise ArithmeticError("quantile bracket overflow")
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:
            break
        if p_value_from(mid, nu1, nu2) > alpha:
            lo = mid
        else:
            hi = mid
        if hi - lo <= _QUANTILE_TOL * max(1.0, hi):
            break
    return 0.5 * (lo + hi)


def p_value_from(f: float, nu1: float, nu2: float) -> float:
    """Right-tail p-value of an observed central-F statistic.

    The upper tail 1 - I_z(nu1/2, nu2/2) is computed directly, with
    w = 1 - z = nu2/(nu1 f + nu2) formed from f rather than from z, so p
    keeps its relative digits far below 1e-16, even when z rounds to 1.
    """
    z, w = _split(f, nu1, nu2)
    if z == 0.0:
        return 1.0
    if w == 0.0:
        return 0.0
    a = nu1 / 2.0
    b = nu2 / 2.0
    return _betainc_tails(a, b, z, w, math.log(w), upper=True)


def power(alpha: float, nu1: float, nu2: float, ncp: float) -> float:
    """Rejection probability of the size-alpha F test at noncentrality ncp."""
    crit = f_quantile(alpha, nu1, nu2)
    return 1.0 - f_cdf(crit, nu1, nu2, ncp)
