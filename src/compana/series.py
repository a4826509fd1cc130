"""Exact power-series coefficients of the multiplicity generating function.

For a part size ``k`` and multiplicity ``m`` the number of compositions of
``n`` in which ``k`` occurs exactly ``m`` times is the coefficient of ``z^n``
in the rational function

    z^(k*m) * (1 - z)^(m+1) / (1 - 2z + z^k * (1 - z))^(m+1).

Dividing by ``2**(n-1)`` gives the exact occurrence probability.  Everything
here is integer/rational arithmetic; floats appear only in callers.  The
window bounds past n = 512 carry certified fixed-point intervals instead of
n-bit coefficients, and stay rigorous bounds.

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

# Window bounds: up to this n every term is exact; above it a term of size
# j with _WINDOW_CERTIFIED_N_PER_J * j <= n is a certified interval at
# _WINDOW_BITS fractional bits, and the upper tail past
# high + _WINDOW_TAIL_TERMS is replaced by a closed-form majorant.
_WINDOW_EXACT_MAX_N = 512
_WINDOW_BITS = 160
_WINDOW_TAIL_TERMS = 12
# Measured for n = 513..8000 (Python 3.11 plain ints, 2-CPU x86-64 VM): one
# certified term costs as much as the exact coefficient at j = n/100 within
# about 10%; at n = 17 000 the certified term is still cheaper at j = 170.
_WINDOW_CERTIFIED_N_PER_J = 100


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


def _presence_tail_majorant_scaled(n: int, start: int, exponent: int) -> int:
    """Numerator against 2**exponent, rounded up, of an upper bound for
    sum_{j=start..n} P(size j present).

    P(present) <= E[number of parts equal j] = (n-j+3) * 2^(-(j+1)) for
    j < n, and exactly 2^(-(n-1)) for j = n; these sum to the closed form
    (n - start + 2) / 2^start.  Beyond j > n/2 at most one such part fits,
    so there the bound equals the tail itself.
    """
    if start > n:
        return 0
    scaled = n - start + 2
    if exponent >= start:
        return scaled << (exponent - start)
    return -((-scaled) >> (start - exponent))


# Certified window terms (n > _WINDOW_EXACT_MAX_N) are interval vectors: two
# integer lists mid, rad, with rad >= 0, standing for every real vector A
# whose entries satisfy |A_i * 2^s - mid_i| <= rad_i at a fixed scale 2^s.
# Each helper below returns an interval vector that contains the exact
# result of its operation applied to every member of its input, so the
# invariant carries from x^0 = [1 +- 0] through the whole power: products
# are exact integer convolutions of the midpoints with a radius from the
# triangle inequality, and each inexact step rounds a midpoint to an integer
# within one unit (up in the reduction, which subtracts a floor; down in the
# rescale, which floors) and widens its radius by that unit.


def _interval_reduce(mid: list, rad: list, den_nz: list[tuple[int, int]], d: int):
    """Interval vector reduced, at its own scale, modulo the characteristic
    polynomial scaled by 2^-i, x^d + sum_j den_j 2^-j x^(d-j), whose
    coefficients are exact dyadics."""
    for deg in range(len(mid) - 1, d - 1, -1):
        c, r = mid[deg], rad[deg]
        if not (c or r):
            continue
        for j, dj in den_nz:
            # x_deg in [c - r, c + r] moves -x_deg * dj / 2^j to deg - j.
            # With t = c * dj, floor(t / 2^j) lies within one unit below
            # t / 2^j, and |x_deg * dj - t| / 2^j <= ceil(r |dj| / 2^j).
            t = c * dj
            mid[deg - j] -= t >> j
            rad[deg - j] += -((-r * abs(dj)) >> j) + (1 if t & ((1 << j) - 1) else 0)
    return mid[:d], rad[:d]


def _interval_square_mod(
    mid: list, rad: list, den_nz: list[tuple[int, int]], d: int, bits: int
):
    """Square of an interval vector at scale 2^bits modulo the scaled
    characteristic polynomial, back at scale 2^bits."""
    size = 2 * d - 1
    sq = [0] * size
    for i, a in enumerate(mid):
        if a:
            sq[2 * i] += a * a
            a2 = a << 1
            for j in range(i + 1, d):
                b = mid[j]
                if b:
                    sq[i + j] += a2 * b
    # |x_i x_j - m_i m_j| <= |m_i| r_j + r_i |m_j| + r_i r_j; summed over the
    # ordered pairs with i + j = k this is sum (2|m_i| + r_i) r_j.
    err = [0] * size
    widened = [2 * abs(a) + r for a, r in zip(mid, rad)]
    for j, r in enumerate(rad):
        if r:
            for i, w in enumerate(widened):
                err[i + j] += w * r
    sq, err = _interval_reduce(sq, err, den_nz, d)
    # Back from scale 2^(2 bits): floor loses less than one unit.
    return [v >> bits for v in sq], [-((-e) >> bits) + 1 for e in err]


def _absent_interval(n: int, j: int, exponent: int) -> tuple[int, int]:
    """Integers lo <= 2^exponent * P(size j absent) <= hi for n > j.

    P(size j absent) = count(n, j, 0) / 2^(n-1) = 2 b_n where b_i =
    c_i / 2^i obeys the m = 0 recurrence scaled by 2^-i.  x^n modulo that
    recurrence's characteristic polynomial is raised by square-and-multiply
    in _WINDOW_BITS-bit interval vectors, then contracted against the exact
    initial window c_0..c_{d-1}; exponent must be at least
    _WINDOW_BITS + j.
    """
    spec = build_multiplicity_gf(j, 0)
    d = spec.denominator_degree
    initial = _initial_window(spec, d)
    den_nz = [(i, c) for i, c in enumerate(spec.denominator) if i and c]
    bits = _WINDOW_BITS
    mid = [1 << bits] + [0] * (d - 1)
    rad = [0] * d
    for bit in bin(n)[2:]:
        mid, rad = _interval_square_mod(mid, rad, den_nz, d, bits)
        if bit == "1":  # times x: a shift, then one reduction
            mid, rad = _interval_reduce([0, *mid], [0, *rad], den_nz, d)
    # 2 b_n = sum_t A_t c_t 2^(1-t), here at scale 2^(bits + d - 1).
    center = sum(int(c) * m << (d - t) for t, (m, c) in enumerate(zip(mid, initial)))
    spread = sum(abs(int(c)) * r << (d - t) for t, (r, c) in enumerate(zip(rad, initial)))
    shift = exponent - (bits + d - 1)
    lo = max(0, (center - spread) << shift)
    hi = min(1 << exponent, (center + spread) << shift)
    return lo, hi


def _window_term_interval(n: int, j: int, exponent: int) -> tuple[int, int]:
    """Integers lo <= 2^exponent * P(size j absent) <= hi.

    Up to n = _WINDOW_EXACT_MAX_N, and past the measured crossover
    _WINDOW_CERTIFIED_N_PER_J * j > n, the exact coefficient rounded outward
    (exact when exponent = n - 1); otherwise the certified interval.
    """
    if n > _WINDOW_EXACT_MAX_N and _WINDOW_CERTIFIED_N_PER_J * j <= n:
        return _absent_interval(n, j, exponent)
    scaled = count_with_multiplicity(n, j, 0) << exponent
    return scaled >> (n - 1), -((-scaled) >> (n - 1))


def _window_tail_numerators(n: int, low: int, high: int) -> tuple[int, int, int]:
    """Window-miss bound numerators (below, above) against 2**exponent,
    returned with that exponent."""
    if not (1 <= low <= high <= n):
        raise ValueError("need 1 <= low <= high <= n")
    if n <= _WINDOW_EXACT_MAX_N:
        top, exponent = n, n - 1
    else:
        top = min(n, high + _WINDOW_TAIL_TERMS)
        exponent = _WINDOW_BITS + max(low, top)
    one = 1 << exponent
    below = sum(_window_term_interval(n, j, exponent)[1] for j in range(1, low + 1))
    above = sum(one - _window_term_interval(n, j, exponent)[0] for j in range(high + 1, top + 1))
    above += _presence_tail_majorant_scaled(n, top + 1, exponent)
    return below, above, exponent


def window_tail_bounds(n: int, low: int, high: int) -> tuple[Fraction, Fraction]:
    """Window-miss bounds for the number of distinct part sizes.

    Returns rationals ``(below, above)`` with ``below`` an upper bound for
    ``sum_{j<=low} (1 - P(size j present))`` and ``above`` an upper bound for
    ``sum_{j>high, j<=n} P(size j present)``; the probability that the
    distinct-size count lies in [low, high] is at least
    ``1 - below - above``.

    For ``n <= 512`` both sums are exact.  For larger n each term of size
    ``j <= n/100`` is a certified interval (a 160-bit fixed-point power with
    outward rounding, narrower than 2^-120 up to n = 10^9) and each larger
    one the exact term rounded outward; the unfavourable end is taken, and
    only the first 12 terms of the upper tail are summed; the remainder
    is replaced by its closed-form expected-occurrence majorant, which stays
    within 2^-(high + 12) * O(n) of the true sum.
    """
    below, above, exponent = _window_tail_numerators(n, low, high)
    return _dyadic_fraction(below, exponent), _dyadic_fraction(above, exponent)


def window_lower_bound(n: int, low: int, high: int) -> Fraction:
    """Rigorous lower bound for P(low <= distinct sizes <= high), i.e.
    1 minus both window-miss bounds, assembled in integer arithmetic."""
    below, above, exponent = _window_tail_numerators(n, low, high)
    return _dyadic_fraction((1 << exponent) - below - above, exponent)
