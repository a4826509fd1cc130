"""Reference values computed apart from compana.

Nothing here imports the program.  Each quantity comes from a different
algorithm than the one the program uses for it:

* brute force over all 2^(n-1) cut patterns for n <= 17;
* the coefficient [z^n] z^(km) (1-z)^(m+1) / (1 - 2z + z^k (1-z))^(m+1)
  modulo a prime, by Bostan-Mori halving (the program uses a linear
  recurrence or x^n modulo the characteristic polynomial);
* the limit law, its fluctuation, the harmonic sum, the dominant root and
  the leading-term estimate in mpmath at 30 digits (the program uses
  doubles and its own Lanczos gamma).
"""

from __future__ import annotations

import math
from collections import Counter
from fractions import Fraction
from functools import lru_cache

import mpmath

mpmath.mp.dps = 30

PRIME = (1 << 61) - 1
BRUTE_MAX_N = 17

# Criterion 09 of the acceptance suite: the expected number of sizes with
# multiplicity m against the harmonic sum, relative tolerance per m.
HARMONIC_TOLERANCE = {1: 0.05, 2: 0.08}
# Criterion 10: the scaled Monte Carlo estimate against 1/m + F, at least
# this share of the target.
LIMIT_LAW_SHARE = 0.15


class Census:
    """Exact statistics of all compositions of one n."""

    def __init__(self, n: int) -> None:
        if not 1 <= n <= BRUTE_MAX_N:
            raise ValueError(f"brute force is limited to 1 <= n <= {BRUTE_MAX_N}")
        self.n = n
        self.total = 1 << (n - 1)
        self.cells: Counter = Counter()  # (k, multiplicity) -> compositions
        self.distinct: Counter = Counter()  # distinct sizes -> compositions
        event: Counter = Counter()  # (m, hits, distinct) -> compositions
        hits_total: Counter = Counter()  # m -> sum of hits over compositions
        for mask in range(self.total):
            profile: Counter = Counter()
            run = 1
            for i in range(n - 1):
                if mask >> i & 1:
                    profile[run] += 1
                    run = 1
                else:
                    run += 1
            profile[run] += 1
            for k in range(1, n + 1):
                self.cells[(k, profile.get(k, 0))] += 1
            self.distinct[len(profile)] += 1
            for mult, hits in Counter(profile.values()).items():
                event[(mult, hits, len(profile))] += 1
                hits_total[mult] += hits
        self._event = event
        self._hits = hits_total

    def count(self, k: int, m: int) -> int:
        return self.cells.get((k, m), 0)

    def event_probability(self, m: int) -> Fraction:
        num = sum(
            Fraction(hits * c, d) for (mult, hits, d), c in self._event.items() if mult == m
        )
        return num / self.total

    def expected_sizes(self, m: int) -> Fraction:
        return Fraction(self._hits.get(m, 0), self.total)

    def window_probability(self, lo: int, hi: int) -> Fraction:
        inside = sum(c for d, c in self.distinct.items() if lo <= d <= hi)
        return Fraction(inside, self.total)


@lru_cache(maxsize=None)
def census(n: int) -> Census:
    return Census(n)


def _poly_mul(a: list[int], b: list[int], p: int) -> list[int]:
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return [c % p for c in out]


def _poly_pow(a: list[int], e: int, p: int) -> list[int]:
    out = [1]
    for _ in range(e):
        out = _poly_mul(out, a, p)
    return out


@lru_cache(maxsize=4096)
def count_mod(n: int, k: int, m: int, p: int = PRIME) -> int:
    """Compositions of n in which size k occurs exactly m times, mod p.

    Bostan-Mori: [z^n] A/B = [z^(n//2)] of the even or odd half of
    A(z)B(-z) over the even half of B(z)B(-z).
    """
    if k * m > n:
        return 0
    kernel = [0] * (k + 2)
    kernel[0] += 1
    kernel[1] -= 2
    kernel[k] += 1
    kernel[k + 1] -= 1
    den = _poly_pow([c % p for c in kernel], m + 1, p)
    num = [0] * (k * m) + [(-1) ** i * math.comb(m + 1, i) % p for i in range(m + 2)]
    while n:
        mirrored = [c if i % 2 == 0 else -c % p for i, c in enumerate(den)]
        num = _poly_mul(num, mirrored, p)[n % 2 :: 2] or [0]
        den = _poly_mul(den, mirrored, p)[::2]
        n //= 2
    return num[0] * pow(den[0], -1, p) % p


@lru_cache(maxsize=None)
def _gamma_line(m: int, harmonic: int) -> mpmath.mpc:
    return mpmath.gamma(mpmath.mpc(m, 2 * mpmath.pi * harmonic / mpmath.log(2)))


def frac_log2(n: int) -> mpmath.mpf:
    x = mpmath.log(n, 2)
    return x - mpmath.floor(x)


def fluctuation(n: int, m: int, harmonics: int = 8) -> mpmath.mpf:
    """F({log2 n}) = (2/m!) Re sum_p e^(-2 pi i p x) Gamma(m + 2 pi i p / log 2)."""
    x = frac_log2(n)
    total = mpmath.mpf(0)
    for p in range(1, harmonics + 1):
        total += mpmath.re(mpmath.expjpi(-2 * p * x) * _gamma_line(m, p))
    return 2 * total / math.factorial(m)


@lru_cache(maxsize=65536)
def limit_law(n: int, m: int) -> tuple[float, float]:
    """(prediction, fluctuation): (1/m + F) / log n and F."""
    f = fluctuation(n, m)
    return float((mpmath.mpf(1) / m + f) / mpmath.log(n)), float(f)


@lru_cache(maxsize=65536)
def harmonic_sum(n: int, m: int) -> float:
    """n^m/m! sum_{k>=1} 2^(-km) exp(-n/2^k), summed to 1e-25 of its peak."""
    n_mp = mpmath.mpf(n)
    top = int(math.log2(n)) + 1 + 90 // m
    terms = [mpmath.power(2, -k * m) * mpmath.exp(-n_mp / mpmath.power(2, k)) for k in range(1, top)]
    return float(mpmath.power(n_mp, m) / math.factorial(m) * mpmath.fsum(terms))


def kernel(k: int, x) -> mpmath.mpf:
    """Q(x) = 1 - 2x + x^k (1 - x), exactly at the given float."""
    x = mpmath.mpf(x)
    return 1 - 2 * x + x**k * (1 - x)


def root_bracket(k: int) -> tuple[Fraction, Fraction]:
    return 1 / (2 - Fraction(1, 2 ** (k + 1))), Fraction(1, 2) + Fraction(1, 2 ** (k + 1))


@lru_cache(maxsize=None)
def dominant_root(k: int) -> mpmath.mpf:
    """The zero of Q in its bracket, by bisection (Q decreases there)."""
    lo, hi = (mpmath.mpf(b.numerator) / b.denominator for b in root_bracket(k))
    for _ in range(2 * mpmath.mp.prec):
        mid = (lo + hi) / 2
        if kernel(k, mid) > 0:
            lo = mid
        else:
            hi = mid
    return (lo + hi) / 2


@lru_cache(maxsize=65536)
def leading_term(n: int, k: int, m: int) -> float:
    """C(n+m, m) 2 P(rho) / (-rho Q'(rho))^(m+1) (2 rho)^(-n),
    P(rho) = rho^(km) (1-rho)^(m+1)."""
    rho = dominant_root(k)
    qprime = -2 + k * rho ** (k - 1) - (k + 1) * rho**k
    value = (
        mpmath.binomial(n + m, m)
        * 2
        * rho ** (k * m)
        * (1 - rho) ** (m + 1)
        / (-rho * qprime) ** (m + 1)
        * (2 * rho) ** (-n)
    )
    return float(value)


def distinct_window(n: int) -> tuple[int, int]:
    """The documented window: floor(log2 n) -+ ceil(log log n), within [1, n]."""
    if n < 2:
        return 1, max(1, n)
    width = math.ceil(math.log(math.log(n))) if n > 2 else 0
    center = n.bit_length() - 1
    lo = max(1, center - width)
    return lo, min(n, max(lo, center + width))
