"""The regularized incomplete beta function I_x(a, b) and its inverse.

``_ibeta`` evaluates I_x(a, b) with DiDonato & Morris's continued
fraction (1992, BFRAC) for the smaller tail, and ``_beta_upper_quantile``
inverts it by Halley steps on the log of that tail from a first guess
(``_beta_start``), or by a Cornish-Fisher expansion once min(a, b)
reaches ``_NORMAL_LIMIT``.
Pruning's binomial bound (``trees._upper_error_estimate``) is such a
quantile, and a two-sided Student t p-value is I_{ν/(ν+t²)}(ν/2, 1/2).
Pure Python, so croptree needs no scipy.
"""

from __future__ import annotations

import math
import sys
from typing import Tuple

_EPS = 2.0 ** -52
#: Stands in for a zero in the continued fraction's Lentz recurrences.
_TINY = 1e-300
_LOG_SQRT_2PI = 0.5 * math.log(2.0 * math.pi)
#: B_2k / (2k (2k - 1)) for k = 1..8, the terms of Stirling's series.
_STIRLING = (1 / 12, -1 / 360, 1 / 1260, -1 / 1680, 1 / 1188,
             -691 / 360360, 1 / 156, -3617 / 122400)
#: From this min(a, b) on, the Cornish-Fisher expansion gives the quantile;
#: from 1e8 up it is within an ulp of the Halley iteration.
_NORMAL_LIMIT = 1e9
#: A bound on continued-fraction terms, far above the 1,300 or so that
#: min(a, b) = 1e9 takes near the mean.
_MAX_TERMS = 20000
#: The smallest normal double; below it a float holds fewer than 53 bits.
_MIN_NORMAL = sys.float_info.min


def _binet(z: float) -> float:
    """lgamma(z) - (z - 1/2) log z + z - log sqrt(2 pi), the remainder of
    Stirling's formula, without that difference's cancellation."""
    if z >= 10.0:
        w = 1.0 / (z * z)
        acc = 0.0
        for c in reversed(_STIRLING):
            acc = acc * w + c
        return acc / z
    return math.log(math.gamma(z) * math.exp(z) / z ** (z - 0.5)) - _LOG_SQRT_2PI


def _bd0(k: float, m: float, diff: float) -> float:
    """k log(k / m) + m - k, given diff = k - m: Loader's deviance term,
    summed as a series in (k - m) / (k + m) where k and m are close."""
    if abs(diff) >= 0.1 * (k + m):
        return k * math.log(k / m) - diff
    v = diff / (k + m)
    v2 = v * v
    term = k * v
    acc = 0.0
    for j in range(3, 41, 2):  # v² < 0.01: 18 terms reach 1e-36
        term *= v2
        nxt = acc + term / j
        if nxt == acc:
            break
        acc = nxt
    return diff * v + 2.0 * acc


def _beta_scale(a: float, b: float):
    """What ``_ibeta_parts`` needs of (a, b) alone: c = fl(a + b), its
    rounding error r = a + b - c, and log(Γ(a + b) a^a b^b / (Γ(a) Γ(b)
    (a + b)^(a + b))) from Stirling remainders, which stay small."""
    c = a + b
    r = (a - c) + b if a >= b else (b - c) + a
    return c, r, (0.5 * math.log(a / c * b) - _LOG_SQRT_2PI
                  + _binet(c) - _binet(a) - _binet(b))


def _bfrac(a: float, b: float, x: float, lam: float) -> float:
    """The continued fraction F with I_x(a, b) = x^a (1-x)^b / (B(a, b) F),
    lam = a - (a + b) x (DiDonato & Morris 1992, BFRAC), by Lentz's method.

    It converges fast for lam >= 0.  The one difference that cancels near
    the mean, lam, comes from the caller, computed without cancellation.
    """
    tiny, low, high = _TINY, 1.0 - _EPS, 1.0 + _EPS  # locals: a hot loop
    f = a / (a + 1.0) * (lam + 1.0)
    if f == 0.0:
        f = tiny
    c = f
    d = 0.0
    s = a + b - 1.0
    lam1 = lam + 1.0
    two_x = 2.0 - x
    den = a + 1.0  # a + 2m - 1
    m = 1.0
    for _ in range(_MAX_TERMS):
        bx = (b - m) * x
        an = (a + m - 1.0) / den * (m / den) * ((s + m) * x) * bx
        bn = m + m * bx / den + (a + m) / (den + 2.0) * (lam1 + m * two_x)
        d = bn + an * d
        if d == 0.0:
            d = tiny
        c = bn + an / c
        if c == 0.0:
            c = tiny
        d = 1.0 / d
        delta = c * d
        f *= delta
        if low <= delta <= high:
            break
        m += 1.0
        den += 2.0
    return f


def _ibeta_parts(a: float, b: float, x: float, scale):
    """(I_x(a, b), 1 - I_x(a, b), log(x^a (1-x)^b / B(a, b)), log of the
    smaller of the first two); ``scale`` is ``_beta_scale(a, b)``.  The
    smaller tail is the one computed, so it keeps its relative accuracy,
    and its log keeps it where the tail itself underflows."""
    if x <= 0.0:
        return 0.0, 1.0, -math.inf, -math.inf
    if x >= 1.0:
        return 1.0, 0.0, -math.inf, -math.inf
    c, r, log_scale = scale
    # x^a (1-x)^b / B(a, b) = exp(log_scale - bd0(a, cx) - bd0(b, cy)) with
    # cx + cy = c, where the deviance terms stay small near the mean instead
    # of cancelling as a log x + b log(1 - x) - log B(a, b) would.  1 - x
    # is exact from x = 0.5 up; the product with the smaller of x and 1 - x
    # comes first, and the other side follows from a + b = c + r.
    if x < 0.5:
        cx = c * x
        diff_a = a - cx
        cy = b - r + diff_a
        diff_b = r - diff_a
    else:
        cy = c * (1.0 - x)
        diff_b = b - cy
        cx = a - r + diff_b
        diff_a = r - diff_b
    if cx <= 0.0 or cy <= 0.0:
        log_power = -math.inf
    else:
        log_power = log_scale - _bd0(a, cx, diff_a) - _bd0(b, cy, diff_b)
    power = math.exp(log_power)
    lam = diff_a - r * x  # a - (a + b) x
    if lam >= 0.0:
        f = _bfrac(a, b, x, lam)
        p = power / f
        return p, 1.0 - p, log_power, log_power - math.log(f)
    f = _bfrac(b, a, 1.0 - x, -lam)
    q = power / f
    return 1.0 - q, q, log_power, log_power - math.log(f)


def _ibeta(a: float, b: float, x: float) -> Tuple[float, float]:
    """The regularized incomplete beta function: (I_x(a, b), 1 - I_x(a, b)).

    Below the mean a / (a + b) a continued fraction gives I_x(a, b), above
    it 1 - I_{1-x}(b, a), so the smaller tail keeps its relative accuracy.
    Within 5e-15 relative of 30-digit values for a from 0.5 to 50 at
    b = 1/2, the Student t tail's parameters; for min(a, b) up to
    _NORMAL_LIMIT (the continued fraction needs ever more terms beyond).
    """
    p, q, _log_power, _log_small = _ibeta_parts(a, b, x, _beta_scale(a, b))
    return p, q


def _beta_start(a: float, b: float, p: float, q: float) -> float:
    """A first guess at x with I_x(a, b) = p = 1 - q.

    Numerical Recipes' invbetai (Abramowitz & Stegun 26.5.22 where a, b >=
    1), except where the smaller tail is below _EPS: there that tail's
    leading power is solved on logs, I_x(a, b) ~ x^a / (a B(a, b)) or
    1 - I_x(a, b) ~ (1 - x)^b / (b B(a, b)).  So far out, the normal
    approximation can miss the side of 1/2 the root is on: for a near 1
    and a large b it puts the upper 1e-300 quantile, about 691 / b, near 1.
    """
    if min(p, q) < _EPS:
        c, _r, log_scale = _beta_scale(a, b)
        log_beta = a * math.log(a / c) + b * math.log(b / c) - log_scale
        if p < q:
            return math.exp((math.log(a) + math.log(p) + log_beta) / a)
        return -math.expm1((math.log(b) + math.log(q) + log_beta) / b)
    if a >= 1.0 and b >= 1.0:
        t = math.sqrt(-2.0 * math.log(min(p, q)))
        z = (2.30753 + t * 0.27061) / (1.0 + t * (0.99229 + t * 0.04481)) - t
        if p < 0.5:
            z = -z
        al = (z * z - 3.0) / 6.0
        h = 2.0 / (1.0 / (2.0 * a - 1.0) + 1.0 / (2.0 * b - 1.0))
        w = (z * math.sqrt(al + h) / h
             - (1.0 / (2.0 * b - 1.0) - 1.0 / (2.0 * a - 1.0))
             * (al + 5.0 / 6.0 - 2.0 / (3.0 * h)))
        return a / (a + b * math.exp(min(2.0 * w, 700.0)))
    c = a + b
    t = math.exp(a * math.log(a / c)) / a
    u = math.exp(b * math.log(b / c)) / b
    if p < t / (t + u):
        return (a * (t + u) * p) ** (1.0 / a)
    return 1.0 - (b * (t + u) * q) ** (1.0 / b)


def _bisect(lo: float, hi: float) -> float:
    """A point inside the bracket (lo, hi): its middle, on a log scale
    where hi exceeds 4 lo, for the root may lie orders of magnitude below."""
    if hi <= 4.0 * lo:
        return 0.5 * (lo + hi)
    if lo <= 0.0:
        return hi / 1024.0
    return math.exp(0.5 * (math.log(lo) + math.log(hi)))


def _halley(a: float, b: float, p: float, q: float, x: float,
            floor: float = 0.0) -> float:
    """x with I_x(a, b) = p = 1 - q: Halley steps from ``x`` on the log of
    the smaller tail, kept inside a bracket of the root, bisecting it where
    a step leaves it.  A bracket that ends at or below ``floor`` ends the
    search there.

    On the log scale a step from far out in a tail lands near the root
    instead of creeping towards it, and a tail below the normal range
    keeps in its log the bits that its float has lost.
    """
    scale = _beta_scale(a, b)
    # tail = I_x(a, b) rises with x, tail = 1 - I_x(a, b) falls
    target, sign = (p, 1.0) if p < q else (q, -1.0)
    log_target = math.log(target)
    lo, hi = 0.0, 1.0
    for _ in range(200):
        ip, iq, log_power, log_small = _ibeta_parts(a, b, x, scale)
        tail = ip if sign > 0.0 else iq
        # Only the tail computed, the smaller, can be below normal.
        log_tail = math.log(tail) if tail >= _MIN_NORMAL else log_small
        if (log_tail - log_target) * sign < 0.0:
            lo = x
        else:
            hi = x
            if hi <= floor:
                return hi
        y = 1.0 - x
        if log_tail - log_power < 700.0 and y > 0.0:  # so tail / power is finite
            # g = log(tail / target): g / g' and the Halley factor g'' / g'
            g = log_tail - log_target
            ratio = math.exp(log_tail - log_power) * x * y  # tail / density
            step = sign * g * ratio
            u = step * ((a - 1.0) / x - (b - 1.0) / y - sign / ratio)
            if abs(u) < 1.0:
                step /= 1.0 - 0.5 * u
            nxt = x - step
            # The error after a step is about step³ / width², width being
            # min(x, the spread of Beta(a, b)): one below 1e-6 of the width
            # leaves an error far below an ulp.
            spread = x * (a + b + 1.0)
            width = x if y >= spread else x * math.sqrt(y / spread)
            if not lo <= nxt <= hi:
                nxt = _bisect(lo, hi)
            elif abs(step) <= 1e-6 * width:
                return nxt
        else:
            nxt = _bisect(lo, hi)
        if nxt == x:
            return x
        x = nxt
    return x


def _cornish_fisher(a: float, b: float, q: float) -> float:
    """The upper-q quantile of Beta(a, b) from its mean, spread, skewness and
    kurtosis; its error is O(min(a, b)^-2) relative."""
    from statistics import NormalDist  # only weights above 1e9 come here

    z = NormalDist().inv_cdf(1.0 - q) if q > 0.5 else -NormalDist().inv_cdf(q)
    s = a + b
    mu, nu = a / s, b / s
    sigma = math.sqrt(mu * nu / (s + 1.0))
    skew = 2.0 * (nu - mu) * math.sqrt(s + 1.0) / ((s + 2.0) * math.sqrt(mu * nu))
    excess = (6.0 * ((mu - nu) ** 2 * (s + 1.0) / (s + 2.0) - mu * nu)
              / (mu * nu * (s + 3.0)))  # excess kurtosis
    w = (z + (z * z - 1.0) * skew / 6.0 + (z ** 3 - 3.0 * z) * excess / 24.0
         - (2.0 * z ** 3 - 5.0 * z) * skew * skew / 36.0)
    return min(max(mu + sigma * w, 0.0), 1.0)


def _beta_upper_quantile(a: float, b: float, q: float) -> float:
    """x with 1 - I_x(a, b) = q, for a >= 1, b > 0 and 0 < q < 1."""
    if a == 1.0:
        return -math.expm1(math.log(q) / b)  # 1 - I_x(1, b) = (1 - x)^b
    if b < _TINY:
        return 1.0  # the quantile is within 1e-280 of 1
    if min(a, b) >= _NORMAL_LIMIT:
        return _cornish_fisher(a, b, q)
    p = 1.0 - q
    x = _beta_start(a, b, p, q)
    if x <= 0.5:
        return _halley(a, b, p, q, max(x, _TINY))
    # Near 1, solve for 1 - x, which keeps its relative accuracy; below
    # 2^-54 it no longer moves x off 1.
    y = _beta_start(b, a, q, p)
    return 1.0 - _halley(b, a, q, p, max(y, _EPS / 4.0), _EPS / 4.0)
