"""Exact power-series coefficients of the multiplicity generating function.

For a part size ``k`` and multiplicity ``m`` the number of compositions of
``n`` in which ``k`` occurs exactly ``m`` times is the coefficient of ``z^n``
in the rational function

    z^(k*m) * (1 - z)^(m+1) / (1 - 2z + z^k * (1 - z))^(m+1).

Dividing by ``2**(n-1)`` gives the exact occurrence probability.  Everything
here is exact integer/rational arithmetic; floats appear only in callers.

Coefficients are produced by the linear recurrence induced by the denominator
(a ring-buffer window of deg(denominator) big integers), or, for very large
``n``, by modular exponentiation of ``x^n`` against the recurrence's
characteristic polynomial, which costs O(log n) polynomial products instead
of n recurrence steps.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

try:
    from gmpy2 import mpz
except ImportError:  # gmpy2 is optional: plain int gives the same results, slower
    mpz = int

# Above this index the characteristic-polynomial power route wins.
_POWMOD_MIN_N = 20_000

# window_tail_bounds defaults: below this n every term of the upper tail is
# computed exactly; above it, this many leading tail terms are exact and the
# rest is replaced by the closed-form expected-occurrence majorant.
_TAIL_EXACT_N_LIMIT = 512
_TAIL_EXACT_TERMS = 12


@dataclass(frozen=True)
class RationalFunctionSpec:
    """Integer-coefficient numerator/denominator, ascending degree order.

    The denominator's constant term must be 1 so that the coefficient
    recurrence c_i = num_i - sum_{j>=1} den_j * c_{i-j} is well posed.
    """

    numerator: tuple[int, ...]
    denominator: tuple[int, ...]

    def __post_init__(self) -> None:
        if not self.denominator or self.denominator[0] != 1:
            raise ValueError("denominator must have constant term 1")
        if not self.numerator:
            raise ValueError("numerator must be non-empty")

    @property
    def numerator_degree(self) -> int:
        return len(self.numerator) - 1

    @property
    def denominator_degree(self) -> int:
        return len(self.denominator) - 1


def _sparse_poly_power(base: dict[int, int], exponent: int) -> dict[int, int]:
    out = {0: 1}
    for _ in range(exponent):
        nxt: dict[int, int] = {}
        for e1, c1 in out.items():
            for e2, c2 in base.items():
                e = e1 + e2
                nxt[e] = nxt.get(e, 0) + c1 * c2
        out = {e: c for e, c in nxt.items() if c}
    return out


def _densify(poly: dict[int, int]) -> tuple[int, ...]:
    degree = max(poly)
    out = [0] * (degree + 1)
    for e, c in poly.items():
        out[e] = c
    return tuple(out)


def _kernel_sparse(k: int) -> dict[int, int]:
    # Built additively: for k = 1 the z and -2z monomials merge.
    kernel: dict[int, int] = {0: 1}
    for e, c in ((1, -2), (k, 1), (k + 1, -1)):
        kernel[e] = kernel.get(e, 0) + c
    return {e: c for e, c in kernel.items() if c}


def kernel_polynomial(k: int) -> tuple[int, ...]:
    """Coefficients of 1 - 2z + z^k - z^(k+1), the denominator kernel."""
    if k < 1:
        raise ValueError("k must be >= 1")
    return _densify(_kernel_sparse(k))


def build_multiplicity_gf(k: int, m: int) -> RationalFunctionSpec:
    """Generating function whose z^n coefficient counts compositions of n
    where part size k has multiplicity exactly m.

    Numerator z^(k*m) * (1-z)^(m+1), denominator (1 - 2z + z^k(1-z))^(m+1);
    both expanded exactly.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    if m < 0:
        raise ValueError("m must be >= 0")
    denominator = _sparse_poly_power(_kernel_sparse(k), m + 1)
    numerator = {
        k * m + i: (-1) ** i * math.comb(m + 1, i) for i in range(m + 2)
    }
    return RationalFunctionSpec(_densify(numerator), _densify(denominator))


def _extract_by_recurrence(spec: RationalFunctionSpec, n: int) -> int:
    num = spec.numerator
    den_nz = [(j, c) for j, c in enumerate(spec.denominator) if j and c]
    # Coefficients below the lowest numerator degree are identically zero.
    base = next((i for i, c in enumerate(num) if c), None)
    if base is None or n < base:
        return 0
    width = spec.denominator_degree
    if width == 0:
        return num[n] if n < len(num) else 0
    window = [0] * width
    value = 0
    for i in range(base, n + 1):
        v = num[i] if i < len(num) else 0
        reach = i - base
        for j, c in den_nz:
            if j > reach:
                break
            v -= c * window[(i - j) % width]
        window[i % width] = v
        value = v
    return value


def _reduce_mod(res: list, den_nz: list[tuple[int, int]], d: int) -> list:
    """In-place reduction modulo the monic characteristic polynomial
    x^d + sum_j den_j x^(d-j); returns the low d coefficients."""
    for deg in range(len(res) - 1, d - 1, -1):
        c = res[deg]
        if c:
            res[deg] = mpz(0)
            for j, dj in den_nz:
                res[deg - j] -= c * dj
    return res[:d]


def _poly_mul_mod(a: list, b: list, den_nz: list[tuple[int, int]], d: int) -> list:
    """Product of two coefficient vectors reduced modulo the monic
    characteristic polynomial."""
    res = [mpz(0)] * (2 * d - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                if bj:
                    res[i + j] += ai * bj
    return _reduce_mod(res, den_nz, d)


def _poly_square_mod(a: list, den_nz: list[tuple[int, int]], d: int) -> list:
    """Square reduced modulo the characteristic polynomial; exploits the
    symmetry a_i a_j + a_j a_i to halve the big multiplications."""
    res = [mpz(0)] * (2 * d - 1)
    for i, ai in enumerate(a):
        if ai:
            res[2 * i] += ai * ai
            for j in range(i + 1, d):
                aj = a[j]
                if aj:
                    res[i + j] += (ai * aj) << 1
    return _reduce_mod(res, den_nz, d)


def _extract_by_powmod(spec: RationalFunctionSpec, n: int) -> int:
    # The sequence obeys the homogeneous recurrence from index
    # numerator_degree + 1 on, and numerator_degree < denominator_degree for
    # the specs built here, so x^n reduced against the characteristic
    # polynomial contracts c_n onto the initial window c_0..c_{d-1}.
    d = spec.denominator_degree
    if spec.numerator_degree >= d or n < d:
        return _extract_by_recurrence(spec, n)
    initial = _initial_window(spec, d)
    den_nz = [(j, mpz(c)) for j, c in enumerate(spec.denominator) if j and c]
    result = [mpz(0)] * d
    result[0] = mpz(1)
    x = [mpz(0)] * d
    x[1] = mpz(1)
    for bit in bin(n)[2:]:
        result = _poly_square_mod(result, den_nz, d)
        if bit == "1":
            result = _poly_mul_mod(result, x, den_nz, d)
    return int(sum(result[t] * initial[t] for t in range(d)))


def _initial_window(spec: RationalFunctionSpec, d: int) -> list:
    num = spec.numerator
    den_nz = [(j, c) for j, c in enumerate(spec.denominator) if j and c]
    window: list = []
    for i in range(d):
        v = mpz(num[i] if i < len(num) else 0)
        for j, c in den_nz:
            if j > i:
                break
            v -= c * window[i - j]
        window.append(v)
    return window


def extract_coefficient(spec: RationalFunctionSpec, n: int) -> int:
    """Exact coefficient of z^n in the power series of the rational function.

    Runs the linear recurrence, or from n = 20 000 on (when the numerator
    degree is below the denominator's) the characteristic-polynomial power.
    """
    if n < 0:
        raise ValueError("n must be >= 0")
    if n >= _POWMOD_MIN_N and spec.numerator_degree < spec.denominator_degree:
        return _extract_by_powmod(spec, n)
    return _extract_by_recurrence(spec, n)


def _dyadic_fraction(numerator: int, exponent: int) -> Fraction:
    """Fraction numerator / 2**exponent in lowest terms."""
    return Fraction(numerator, 1 << exponent)


def count_with_multiplicity(n: int, k: int, m: int) -> int:
    """Number of compositions of n in which size k has multiplicity m."""
    if n < 1 or k < 1 or m < 0:
        raise ValueError("need n, k >= 1 and m >= 0")
    if k * m > n:
        return 0
    return extract_coefficient(build_multiplicity_gf(k, m), n)


def prob_multiplicity(n: int, k: int, m: int) -> Fraction:
    """Exact probability that part size k has multiplicity m in a uniform
    composition of n."""
    return _dyadic_fraction(count_with_multiplicity(n, k, m), n - 1)


def prob_size_present(n: int, k: int) -> Fraction:
    """Exact probability that a uniform composition of n contains a part of
    size k (the complement of multiplicity zero)."""
    if n < 1 or k < 1:
        raise ValueError("n and k must be >= 1")
    if k > n:
        return Fraction(0)
    absent = count_with_multiplicity(n, k, 0)
    return _dyadic_fraction((1 << (n - 1)) - absent, n - 1)


def expected_sizes_with_multiplicity(n: int, m: int) -> Fraction:
    """Exact expected number of part sizes having multiplicity m, i.e. the
    sum of the occurrence probabilities over k = 1..n//m."""
    if n < 1 or m < 1:
        raise ValueError("n and m must be >= 1")
    total = 0
    for k in range(1, n // m + 1):
        total += count_with_multiplicity(n, k, m)
    return _dyadic_fraction(total, n - 1)


def _presence_tail_majorant_scaled(n: int, start: int) -> int:
    """Numerator against 2**(n+1) of an exact upper bound for
    sum_{j=start..n} P(size j present), from P(present) <= E[number of
    parts equal j] = (n-j+3) * 2^(-(j+1)) for j < n, exactly 2^(-(n-1))
    for j = n."""
    if start > n:
        return 0
    if start == n:
        return 4
    r_max = n - start  # r = n - j runs 1..r_max over j = start..n-1
    # sum_{r=1..R} (r+3) 2^r = (R+2) 2^(R+1) - 4
    return (r_max + 2) * (1 << (r_max + 1)) - 4 + 4


def _window_tail_numerators(
    n: int, low: int, high: int, exact_tail_terms: int | None
) -> tuple[int, int]:
    """Window-miss bound numerators against the common denominator 2**(n+1)."""
    if not (1 <= low <= high <= n):
        raise ValueError("need 1 <= low <= high <= n")
    half = 1 << (n - 1)
    below = 0
    for j in range(1, low + 1):
        below += count_with_multiplicity(n, j, 0)
    below *= 4
    if high >= n:
        return below, 0
    if exact_tail_terms is None:
        exact_tail_terms = n if n <= _TAIL_EXACT_N_LIMIT else _TAIL_EXACT_TERMS
    exact_up_to = min(n, high + max(0, exact_tail_terms))
    above = 0
    for j in range(high + 1, exact_up_to + 1):
        above += half - count_with_multiplicity(n, j, 0)
    above *= 4
    above += _presence_tail_majorant_scaled(n, exact_up_to + 1)
    return below, above


def window_tail_bounds(
    n: int,
    low: int,
    high: int,
    exact_tail_terms: int | None = None,
) -> tuple[Fraction, Fraction]:
    """Window-miss bounds for the number of distinct part sizes.

    Returns exact rationals ``(below, above)`` with
    ``below = sum_{j<=low} (1 - P(size j present))`` and ``above`` an exact
    upper bound for ``sum_{j>high, j<=n} P(size j present)``; the
    probability that the distinct-size count lies in [low, high] is at least
    ``1 - below - above``.

    The first sum is always computed term-exactly.  For the second, every
    term is exact when ``n <= 512``; for larger n the first
    ``exact_tail_terms`` (default 12) terms are exact and the remainder is
    replaced by its closed-form expected-occurrence majorant, which keeps the
    bound valid while staying within 2^-(high + exact_tail_terms) * O(n) of
    the true sum.  Pass ``exact_tail_terms=n`` to force full exactness.
    """
    below, above = _window_tail_numerators(n, low, high, exact_tail_terms)
    return _dyadic_fraction(below, n + 1), _dyadic_fraction(above, n + 1)


def window_lower_bound(
    n: int,
    low: int,
    high: int,
    exact_tail_terms: int | None = None,
) -> Fraction:
    """Exact lower bound for P(low <= distinct sizes <= high), i.e.
    1 minus both window-miss bounds, assembled in integer arithmetic."""
    below, above = _window_tail_numerators(n, low, high, exact_tail_terms)
    return _dyadic_fraction((1 << (n + 1)) - below - above, n + 1)
