"""Student-t quantiles from the ``math`` module alone.

``quantile(df, alpha)`` is the two-sided critical value t of a
100(1 - alpha)% t-band: P(T > t) = alpha / 2 for T ~ t(df), df > 0. It
starts from Hill's approximation (1970, CACM 13, Algorithm 396; for
df < 1 the power-law tail) and takes Halley steps, kept inside the bracket
of the points already evaluated, on the upper tail

    S(t) = I_x(df/2, 1/2) / 2,  x = df / (df + t^2),

with I the regularized incomplete beta function. Away from the centre I
comes from the continued fraction of DiDonato & Morris (1992, ACM TOMS 18,
360-373, ``BFRAC``), which keeps full accuracy where df/2 is large, unlike
the textbook fraction (2e-12 relative at df = 9e4); near the centre, from
the hypergeometric series of 1/2 - S. Hill's start is within 1e-7 from
df = 5 on, so one step usually suffices."""

from __future__ import annotations

import functools
import math

_HALF_LOG_PI = 0.5 * math.log(math.pi)

# A Halley step this small (relative) ends the iteration: the error after
# it is of the order of its cube, far below the tail's rounding.
_STEP_TOL = 1e-7
_MAX_STEPS = 40
_MAX_TERMS = 10_000


def _log_gamma_ratio(a: float) -> float:
    """log(Gamma(a + 1/2) / Gamma(a)). From a = 16 on, the asymptotic series
    (Bernoulli numbers); its next term is below 5e-16 there, while
    lgamma(a + 1/2) - lgamma(a) cancels: off by 2e-11 at a = 5e4."""
    if a < 16.0:
        return math.lgamma(a + 0.5) - math.lgamma(a)
    z = 1.0 / a
    z2 = z * z
    series = z * (1 / 8 - z2 * (1 / 192 - z2 * (1 / 640 - z2 * (17 / 14336 - z2 * 31 / 18432))))
    return 0.5 * math.log(a) - series


def _beta_fraction(a: float, x: float, y: float) -> float:
    """F with I_x(a, 1/2) = x^a y^(1/2) / (B(a, 1/2) F), y = 1 - x, by the
    modified Lentz method."""
    c0 = a * y - 0.5 * x + 1.0
    f = a * c0 / (a + 1.0)
    c, d, xx, two_minus_x = f, 0.0, x * x, 2.0 - x
    for m in range(1, _MAX_TERMS):
        am = a + m
        den = am + m - 1.0
        mb = m * (0.5 - m)
        an = (am - 1.0) * (am - 0.5) * mb * xx / (den * den)
        bn = m + mb * x / den + am * (c0 + m * two_minus_x) / (den + 2.0)
        d = 1.0 / (bn + an * d)
        c = bn + an / c
        delta = c * d
        f *= delta
        if abs(delta - 1.0) <= 1e-16:
            break
    return f


def _central_sum(a: float, y: float) -> float:
    """The sum of (a + 1/2)_n / (3/2)_n y^n over n >= 0: I_y(1/2, a) is
    2 y^(1/2) (1 - y)^a / B(a, 1/2) times it. Its terms are positive and,
    where it is used, shrink by at least half from term to term."""
    term = total = 1.0
    n = 0.0
    while term > 1e-17 * total:
        term *= (a + 0.5 + n) / (1.5 + n) * y
        total += term
        n += 1.0
    return total


def _excess(t: float, df: float, tail: float):
    """S(t) - tail, and the density, at t > 0."""
    a, t2 = 0.5 * df, t * t
    x, y = df / (df + t2), t2 / (df + t2)
    # x^a y^(1/2) / B(a, 1/2); the density is this over t.
    front = math.exp(-a * math.log1p(t2 / df) + 0.5 * math.log(y)
                     + _log_gamma_ratio(a) - _HALF_LOG_PI)
    if max(a + 0.5, 1.5) * y <= 0.75:
        # Near the centre: 1/2 - S = I_y(1/2, a) / 2 keeps its relative
        # accuracy as S nears 1/2.
        return (0.5 - tail) - front * _central_sum(a, y), front / t
    return 0.5 * front / _beta_fraction(a, x, y) - tail, front / t


# Acklam's rational approximation of the standard normal quantile (relative
# error below 1.2e-9): central region and lower tail.
_CENTRAL_NUM = (-3.969683028665376e01, 2.209460984245205e02, -2.759285104469687e02,
                1.383577518672690e02, -3.066479806614716e01, 2.506628277459239e00)
_CENTRAL_DEN = (-5.447609879822406e01, 1.615858368580409e02, -1.556989798598866e02,
                6.680131188771972e01, -1.328068155288572e01, 1.0)
_TAIL_NUM = (-7.784894002430293e-03, -3.223964580411365e-01, -2.400758277161838e00,
             -2.549732539343734e00, 4.374664141464968e00, 2.938163982698783e00)
_TAIL_DEN = (7.784695709041462e-03, 3.224671290700398e-01, 2.445134137142996e00,
             3.754408661907416e00, 1.0)


def _poly(coefficients, x: float) -> float:
    total = 0.0
    for c in coefficients:
        total = total * x + c
    return total


def _normal_lower(p: float) -> float:
    """The standard normal quantile at p <= 1/2 (negative)."""
    if p < 0.02425:
        r = math.sqrt(-2.0 * math.log(p))
        return _poly(_TAIL_NUM, r) / _poly(_TAIL_DEN, r)
    r = (p - 0.5) ** 2
    return (p - 0.5) * _poly(_CENTRAL_NUM, r) / _poly(_CENTRAL_DEN, r)


def _log_power_root(df: float, tail: float) -> float:
    """log t for the root of the power-law tail df^(df/2 - 1) t^-df / B(df/2, 1/2),
    which S(t) approaches as t^2 / df grows."""
    log_beta = _HALF_LOG_PI - _log_gamma_ratio(0.5 * df)
    return 0.5 * math.log(df) - (math.log(df * tail) + log_beta) / df


def _start(df: float, tail: float) -> float:
    """Hill's approximation to the quantile (as in R's ``qt``); for df < 1
    the power-law root."""
    if df < 1.0:
        return math.exp(_log_power_root(df, tail))
    p = 2.0 * tail
    if df == 2.0:
        return math.sqrt(2.0 / (p * (2.0 - p)) - 2.0)
    a = 1.0 / (df - 0.5)
    b = 48.0 / (a * a)
    c = ((20700.0 * a / b - 98.0) * a - 16.0) * a + 96.36
    d = ((94.5 / (b + c) - 3.0) / b + 1.0) * math.sqrt(a * math.pi / 2.0) * df
    y = (d * p) ** (2.0 / df)
    if y > 0.05 + a:
        x = _normal_lower(tail)
        y = x * x
        if df < 5.0:
            c += 0.3 * (df - 4.5) * (x + 0.6)
        c = (((0.05 * d * x - 5.0) * x - 7.0) * x - 2.0) * x + b + c
        y = (((((0.4 * y + 6.3) * y + 36.0) * y + 94.5) / c - y - 3.0) / b + 1.0) * x
        y = math.expm1(a * y * y)
    else:
        y = ((1.0 / (((df + 6.0) / (df * y) - 0.089 * d - 0.822) * (df + 2.0) * 3.0)
              + 0.5 / (df + 4.0)) * y - 1.0) * (df + 1.0) / (df + 2.0) + 1.0 / y
    return math.sqrt(df * y)


def _solve(df: float, tail: float):
    """(t, steps): the root of S(t) = tail, 0 < tail < 1/2, and the Halley
    steps taken (at most ``_MAX_STEPS``)."""
    log_root = _log_power_root(df, tail)
    # S(t) is the power law times 1 + O(df (df + 1) / t^2): past this the
    # root is exact, and t^2 may not even be finite.
    if 2.0 * log_root > math.log(1e17 * df * (df + 1.0)):
        return (math.exp(log_root) if log_root < 709.0 else math.inf), 0
    t, lo, hi = _start(df, tail), 0.0, math.inf
    for step in range(1, _MAX_STEPS + 1):
        excess, density = _excess(t, df, tail)
        if excess > 0.0:
            lo = t
        else:
            hi = t
        newton = -excess / density
        new = t - newton / (1.0 + newton * (df + 1.0) * t / (2.0 * (df + t * t)))
        if abs(new - t) <= _STEP_TOL * t:
            return new, step
        if not lo < new < hi:
            # A step out of the bracket: bisect it instead.
            new = 0.5 * (lo + hi) if hi < math.inf else 2.0 * t
        t = new
    return t, _MAX_STEPS


@functools.lru_cache(maxsize=256)
def quantile(df: float, alpha: float) -> float:
    """t with P(T > t) = alpha / 2, T ~ t(df): the critical value of a
    two-sided 100(1 - alpha)% band, df > 0, 0 < alpha < 1."""
    # The tail that scipy.special.stdtrit(df, 1 - alpha / 2) solves for:
    # the subtraction from 1 - alpha / 2 >= 1/2 is exact.
    return _solve(df, 1.0 - (1.0 - alpha / 2.0))[0]
