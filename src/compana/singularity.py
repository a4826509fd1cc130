"""Dominant root of the denominator kernel and the leading-term estimate.

The kernel Q(z) = 1 - 2z + z^k (1 - z) has exactly one zero inside the unit
disk, just right of 1/2; coefficient growth of the series is controlled by
(2 rho)^(-n).  This module locates that root on the real axis and evaluates
the closed-form leading-term estimate of the multiplicity probability.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

NEWTON_MAX_K = 40
_RESIDUAL_TOL = 1e-12
# math.comb(10**9 + 1000, 1000) takes 0.8 ms (Python 3.11, 2-CPU x86-64 VM).
_LOG_BINOMIAL_EXACT_MAX = 1000


class NumericalInstabilityError(RuntimeError):
    """A numerical procedure failed to stabilize within its refinement budget."""


@dataclass(frozen=True)
class DominantRoot:
    value: float
    bracket_lo: float
    bracket_hi: float
    residual: float
    method: str  # "bisection+newton" (Newton to the bisection's double) or "series-expansion"


def kernel_value(k: int, z):
    """Q(z) = 1 - 2z + z^k (1 - z); works for real or complex z."""
    return 1 - 2 * z + z**k * (1 - z)


def kernel_derivative(k: int, z):
    return -2 + k * z ** (k - 1) - (k + 1) * z**k


def root_bracket(k: int) -> tuple[float, float]:
    """Open interval guaranteed to contain the dominant root."""
    return 1.0 / (2.0 - 2.0 ** -(k + 1)), 0.5 + 2.0 ** -(k + 1)


def _series_root(k: int) -> float:
    """The root past k = NEWTON_MAX_K: 1/2 + 2^-(k+2), within O(k / 2^(2k))."""
    return 0.5 + 2.0 ** -(k + 2)


def solve_dominant_root(k: int) -> DominantRoot:
    """Locate the unique kernel zero in (0, 1); past k = 40, _series_root(k).

    Newton from 1/2 + 2^-(k+2) (the bracket midpoint for k <= 3), then a
    walk by single doubles to the adjacent a < b with Q(a) > 0 >= Q(b) in
    floats; the root is their midpoint rounded, whose |Q| is below 2e-16 for
    every k <= 40.  A bisection of the bracket stops on that same pair, as
    the float kernel changes sign once: near the root 1 - 2z is exact and
    falls by 2^-52 a double, more than the rounded z^k (1 - z) moves; so the
    method keeps its name "bisection+newton".
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    lo, hi = root_bracket(k)
    x = 0.5 * (lo + hi) if k <= 3 else _series_root(k)
    if k > NEWTON_MAX_K:
        return DominantRoot(x, lo, hi, abs(kernel_value(k, x)), "series-expansion")
    for _ in range(100):
        step = x - kernel_value(k, x) / kernel_derivative(k, x)
        if step == x:
            break
        x = step
    a, b = lo, hi
    for _ in range(64):
        if 1 - 2 * x + x**k * (1 - x) > 0:  # the bisection's test, kernel_value inlined
            a, x = x, math.nextafter(x, 1.0)
        else:
            b, x = x, math.nextafter(x, 0.0)
        if math.nextafter(a, 1.0) == b:
            break
    else:
        raise NumericalInstabilityError(f"no kernel sign change within 64 doubles, k={k}")
    x = 0.5 * (a + b)
    residual = abs(kernel_value(k, x))
    if residual > _RESIDUAL_TOL:
        raise NumericalInstabilityError(f"kernel residual {residual:.3e} at the root for k={k}")
    return DominantRoot(x, lo, hi, residual, "bisection+newton")


def _log_binomial(n: int, m: int) -> float:
    """log C(n+m, m).

    While min(n, m) <= _LOG_BINOMIAL_EXACT_MAX it is the log of the exact
    integer, within an ulp or two at any n, where a difference of lgamma
    values cancels (relative error 7.6e-7 at n = 10^9, m = 1).  Past that
    the exact integer costs more than a millisecond, and the lgamma
    difference loses less while max(n, m) stays moderate (2.3e-12 relative
    at n = 10^9, m = 1001; 1.7e-7 at n = 1001, m = 10^12).
    """
    if min(n, m) <= _LOG_BINOMIAL_EXACT_MAX:
        return math.log(math.comb(n + m, m))
    return math.lgamma(n + m + 1) - math.lgamma(m + 1) - math.lgamma(n + 1)


def _log_decay(n: int, k: int, rho: float) -> float:
    """log (2 rho)^(-n) = -n log1p(2 delta), delta = rho - 1/2, to nearly
    full relative precision.

    rho - 1/2 taken from the double rho keeps rho's absolute rounding error,
    so as delta ~ 2^-(k+2) shrinks its relative error grows like 2^k
    (1.4e-8 at k = 30; from k = 52 on rho rounds to 1/2), and n multiplies
    the log's absolute error.  One Newton step from it on
    delta = 2^(-k-2) (1 + 2 delta)^k (1 - 2 delta), the kernel equation
    Q(1/2 + delta) = 0, reaches ~1e-16 relative for every k: the step
    squares the start's relative error, and where delta starts at 0 the
    equation is linear in delta to within k 2^-k.
    """
    delta = rho - 0.5
    image = math.ldexp(math.exp(k * math.log1p(2 * delta)) * (1 - 2 * delta), -k - 2)
    slope = 1 - image * (2 * k / (1 + 2 * delta) - 2 / (1 - 2 * delta))
    delta -= (delta - image) / slope
    return -n * math.log1p(2 * delta)


def prob_multiplicity_singularity(n: int, k: int, m: int) -> float:
    """Leading-term estimate of the probability that size k has multiplicity
    m in a uniform composition of n:

        C(n+m, m) * 2 P(rho) / (-rho Q'(rho))^(m+1) * (2 rho)^(-n)

    with P(rho) = rho^(k*m) (1-rho)^(m+1).  All powers are assembled in log
    space; accuracy improves like 1 + O(1/n).
    """
    if n < 1 or k < 1 or m < 0:
        raise ValueError("need n, k >= 1 and m >= 0")
    return _leading_term(n, k, m, solve_dominant_root(k).value, _log_binomial(n, m))


def _leading_term(n: int, k: int, m: int, rho: float, log_binom: float) -> float:
    """The leading term above from rho and log C(n+m, m), for one k or the sum."""
    qprime = kernel_derivative(k, rho)
    log_p = k * m * math.log(rho) + (m + 1) * math.log1p(-rho)
    log_value = (log_binom + math.log(2.0) + log_p - (m + 1) * math.log(rho * -qprime)
                 + _log_decay(n, k, rho))
    return math.exp(log_value) if log_value > -745.0 else 0.0


def expected_sizes_with_multiplicity_singularity(n: int, m: int) -> float:
    """Dominant-root estimate of the expected number of part sizes with
    multiplicity m: the leading-term probabilities summed over k."""
    if n < 1 or m < 1:
        raise ValueError("n and m must be >= 1")
    log_binom = _log_binomial(n, m)
    # Terms before `first` underflow to 0.0: rho > the bracket's low end gives
    # n log(2 rho) > n 2^-(k+2) >= 4 (log_binom + 800), and (1 - rho) <
    # 5/8 (-rho Q'(rho)) keeps 2 P(rho) / (-rho Q'(rho))^(m+1) below 2.
    first = max(1, int(math.log2(n) - math.log2(log_binom + 800)) - 3)
    terms, peak = [], 0.0
    past_peak = math.log2(max(n, 2)) + 4
    for k in range(first, n // m + 1):
        rho = solve_dominant_root(k).value if k <= NEWTON_MAX_K else _series_root(k)
        value = _leading_term(n, k, m, rho, log_binom)
        terms.append(value)
        peak = max(peak, value)
        # Past the peak near k = log2(n/m) successive terms shrink by at
        # least 2^-m, so the untouched tail is below twice the last term.
        if k > past_peak and value < 1e-16 * peak:
            break
    return math.fsum(terms)
