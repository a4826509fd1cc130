"""Exact power-series coefficients of the multiplicity generating function.

For a part size ``k`` and multiplicity ``m`` the number of compositions of
``n`` in which ``k`` occurs exactly ``m`` times is the coefficient of ``z^n``
in the rational function

    z^(k*m) * (1 - z)^(m+1) / (1 - 2z + z^k * (1 - z))^(m+1).

Dividing by ``2**(n-1)`` gives the exact occurrence probability.  Everything
here is integer/rational arithmetic; floats appear only in callers.

A count comes from one of two routes, and count_with_multiplicity alone
chooses between them:

- the power: ``x^n`` raised modulo the characteristic polynomial of the
  denominator, of degree d = (k+1)(m+1), then contracted onto the initial
  window c_0..c_{d-1} (one square per bit of n: d(d+1)/2 products of narrow
  coefficients, about d^1.6 of wide ones, which are split Karatsuba-style
  into three half-size squares), cheap for small k;
- inclusion-exclusion over marked parts equal to k, about (n/k)^2 / 2
  small-by-big integer steps, cheap for large k.

The power engine is a midpoint-radius one: at 0 fractional bits it is exact
and serves the coefficients; at 160 bits, against the polynomial scaled by
2^-i, it gives the certified intervals that the window bounds use from
n = 2000 on instead of n-bit coefficients, so they stay rigorous.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

try:
    from gmpy2 import mpz
except ImportError:  # gmpy2 is optional: plain int gives the same results, slower
    mpz = int

# Route rule: count_with_multiplicity counts by inclusion-exclusion when
# (m + 1) k^2 >= _IE_SCALE * n^_IE_N_POWER, else by the power.  Fitted on a
# grid over n = 16..20 000, k = 1..200, m = 0..5 (Python 3.11 plain ints,
# 2-CPU x86-64 VM; cells near the switch re-timed with the routes
# interleaved).  The least grid k from which inclusion-exclusion stays the
# cheaper, against the rule's switch, for m = 0..5: 14/12, 10/9, 8/7, 6/6,
# 6/6, 5/5 at n = 512; 24/22, 17/15, 14/13, 12/11, 12/10, 10/9 at 2000;
# 50/57, 35/40, 29/33, 29/29, 29/26, 24/23 at 20 000.  Of the 2171 cells
# that take 0.1 ms or more, all but 9 run within 1.3x of the cheaper route;
# those 9 lie one grid step from the switch (at most 1.9x, at n = 64).
_IE_SCALE = 0.7
_IE_N_POWER = 0.85

# Squaring in the power engine: a list of at least _SQUARE_SPLIT_MIN_LEN
# coefficients whose length times the bit length of its widest coefficient
# reaches _SQUARE_SPLIT_MIN_LEN_BITS is squared by splitting it in halves
# (three half-size squares, not four), a smaller one term by term.  Measured
# one split level against the term-by-term square (Python 3.11 plain ints,
# 2-CPU x86-64 VM, dense signed coefficients), the split wins from about
# 1500 bits at 4 terms, 1000-1500 at 6, 1000 at 8, 500 at 10-12, 400 at 16,
# 200 at 32 and under 100 at 64, with length x bits near 6000-8000
# throughout; at 3 terms it saves no product.  Over the 218 power-route
# extractions of the exact-coeff benchmark's seeds 1 and 2, thresholds of
# 6144, 8192 and 12288 took the same time within noise, 10-20% less than a
# switch at 12 terms and 512 bits and 40-50% less than the term-by-term
# square alone.
_SQUARE_SPLIT_MIN_LEN = 4
_SQUARE_SPLIT_MIN_LEN_BITS = 8192

# Window bounds: up to this n every term is exact; above it the upper tail
# past high + _WINDOW_TAIL_TERMS is replaced by a closed-form majorant, and
# from n = _WINDOW_CERTIFIED_MIN_N on a term of size j with
# _WINDOW_CERTIFIED_N_PER_J * j <= n is a certified interval at
# _WINDOW_BITS fractional bits.
_WINDOW_EXACT_MAX_N = 512  # a majorant here moves printed bounds at 12 digits
_WINDOW_BITS = 160
_WINDOW_TAIL_TERMS = 12
# Measured for n = 513..8000 (Python 3.11 plain ints, 2-CPU x86-64 VM), one
# certified term against the exact count(n, j, 0): against the power route
# (small j) the exact term is cheaper below n = 2000 (1.4-1.9x at
# n = 513..1400, 0.9-1.4x at 2000) and dearer from n = 4000 (0.4-0.95x);
# against inclusion-exclusion (larger j) the two cost the same near
# j = n/90 (j = 22-24 at n = 2000, 25 at 2250, 27 at 2500, 30 at 3000), and
# the certified term costs 1.1-2.4x the exact one at j = n/90..n/60.
_WINDOW_CERTIFIED_MIN_N = 2000
_WINDOW_CERTIFIED_N_PER_J = 90


@dataclass(frozen=True)
class RationalFunctionSpec:
    """Integer-coefficient numerator/denominator, ascending degree order.

    The denominator's constant term must be 1 so that the coefficient
    recurrence c_i = num_i - sum_{j>=1} den_j * c_{i-j} is well posed, and
    the numerator's degree must be below the denominator's, so that the
    recurrence is homogeneous past the initial window c_0..c_{d-1}.
    """

    numerator: tuple[int, ...]
    denominator: tuple[int, ...]

    def __post_init__(self) -> None:
        if not self.denominator or self.denominator[0] != 1:
            raise ValueError("denominator must have constant term 1")
        if not self.numerator:
            raise ValueError("numerator must be non-empty")
        if len(self.numerator) >= len(self.denominator):
            raise ValueError("numerator degree must be below the denominator degree")

    @property
    def denominator_degree(self) -> int:
        return len(self.denominator) - 1


def build_multiplicity_gf(k: int, m: int) -> RationalFunctionSpec:
    """Generating function whose z^n coefficient counts compositions of n
    where part size k has multiplicity exactly m.

    Numerator z^(k*m) * (1-z)^(m+1), denominator (1 - 2z + z^k(1-z))^(m+1);
    both expanded exactly, the denominator by m + 1 products with the kernel.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    if m < 0:
        raise ValueError("m must be >= 0")
    den = [1]
    for _ in range(m + 1):  # times 1 - 2z + z^k - z^(k+1); for k = 1 the z terms merge
        product = [0] * (len(den) + k + 1)
        for i, c in enumerate(den):
            if c:
                product[i] += c
                product[i + 1] -= 2 * c
                product[i + k] += c
                product[i + k + 1] -= c
        den = product
    numerator = [0] * (k * m) + [(-1) ** i * math.comb(m + 1, i) for i in range(m + 2)]
    return RationalFunctionSpec(tuple(numerator), tuple(den))


def _recurrence_ring(spec: RationalFunctionSpec, stop: int) -> list:
    """Ring buffer of the d big integers, d the denominator degree, after
    running the recurrence up to index stop - 1: slot i % d holds c_i for
    stop - d <= i < stop (0 below index 0), so for stop = d the ring is the
    initial window c_0..c_{d-1} in order."""
    num = spec.numerator
    den_nz = [(j, c) for j, c in enumerate(spec.denominator) if j and c]
    width = spec.denominator_degree
    window = [0] * width
    # Coefficients below the lowest numerator degree are identically zero.
    base = next((i for i, c in enumerate(num) if c), stop)
    for i in range(base, stop):
        v = num[i] if i < len(num) else 0
        reach = i - base
        for j, c in den_nz:
            if j > reach:
                break
            v -= c * window[(i - j) % width]
        window[i % width] = v
    return window


# The power engine works on interval vectors: two integer lists mid, rad,
# with rad >= 0, standing for every real vector A whose entries satisfy
# |A_i * 2^bits - mid_i| <= rad_i at a fixed scale 2^bits.  It reduces
# modulo x^d + sum_j den_j 2^-s_j x^(d-j), given as triples (j, den_j, s_j):
# s_j = 0 for the integer characteristic polynomial, s_j = j for the one
# scaled by 2^-i.  Each helper returns an interval vector that contains the
# exact result of its operation applied to every member of its input, so
# the invariant carries from x^0 = [1 +- 0] through the whole power:
# products are exact integer convolutions of the midpoints with a radius
# from the triangle inequality, and each inexact step rounds a midpoint to
# an integer within one unit (up in the reduction, which subtracts a floor;
# down in the rescale, which floors) and widens its radius by that unit.
# A step that drops only zero bits is exact and widens nothing, so at
# bits = 0 with integer data every radius stays 0 and the power is exact.


def _interval_reduce(mid: list, rad: list, den: list[tuple[int, int, int]], d: int):
    """Interval vector reduced, at its own scale, modulo the characteristic
    polynomial given by den."""
    for deg in range(len(mid) - 1, d - 1, -1):
        c, r = mid[deg], rad[deg]
        if not (c or r):
            continue
        for j, dj, s in den:
            # x_deg in [c - r, c + r] moves -x_deg * dj / 2^s to deg - j.
            # With t = c * dj, floor(t / 2^s) lies within one unit below
            # t / 2^s, and |x_deg * dj - t| / 2^s <= ceil(r |dj| / 2^s).
            t = c * dj
            mid[deg - j] -= t >> s
            if r or s:  # else the step is exact and widens nothing
                rad[deg - j] += -((-r * abs(dj)) >> s) + (1 if t & ((1 << s) - 1) else 0)
    return mid[:d], rad[:d]


def _poly_square(a: list) -> list:
    """Coefficients of the square of the polynomial with coefficients a.

    A long or wide list is split as lo + x^h hi, h = ceil(len/2), into three
    half-size squares: a^2 = lo^2 + x^h ((lo + hi)^2 - lo^2 - hi^2)
    + x^(2h) hi^2 (Karatsuba).  Otherwise each product a_i a_j, i <= j, is
    taken once.
    """
    size = len(a)
    if (
        size >= _SQUARE_SPLIT_MIN_LEN
        and size * max(map(abs, a)).bit_length() >= _SQUARE_SPLIT_MIN_LEN_BITS
    ):
        h = (size + 1) // 2
        lo, hi = a[:h], a[h:]
        low, high = _poly_square(lo), _poly_square(hi)
        # lo has one more entry than hi when size is odd; it passes through.
        middle = _poly_square([x + y for x, y in zip(lo, hi)] + lo[len(hi):])
        out = low + [0] * (2 * size - 1 - len(low))
        for i, v in enumerate(middle):
            out[h + i] += v - low[i] - (high[i] if i < len(high) else 0)
        for i, v in enumerate(high):
            out[2 * h + i] += v
        return out
    sq = [0] * (2 * size - 1)
    for i, x in enumerate(a):
        if x:
            sq[2 * i] += x * x
            x2 = x << 1
            for j in range(i + 1, size):
                y = a[j]
                if y:
                    sq[i + j] += x2 * y
    return sq


def _interval_square_mod(
    mid: list, rad: list, den: list[tuple[int, int, int]], d: int, bits: int
):
    """Square of an interval vector at scale 2^bits modulo the characteristic
    polynomial given by den, back at scale 2^bits."""
    size = 2 * d - 1
    sq = _poly_square(mid)
    # |x_i x_j - m_i m_j| <= |m_i| r_j + r_i |m_j| + r_i r_j; summed over the
    # ordered pairs with i + j = k this is sum (2|m_i| + r_i) r_j.
    err = [0] * size
    if any(rad):  # exact inputs square exactly
        widened = [2 * abs(a) + r for a, r in zip(mid, rad)]
        for j, r in enumerate(rad):
            if r:
                for i, w in enumerate(widened):
                    err[i + j] += w * r
    sq, err = _interval_reduce(sq, err, den, d)
    if not bits:  # no bits to drop
        return sq, err
    # Back from scale 2^(2 bits): floor loses less than one unit.
    mask = (1 << bits) - 1
    return (
        [v >> bits for v in sq],
        [-((-e) >> bits) + (1 if v & mask else 0) for v, e in zip(sq, err)],
    )


def _power_of_x(n: int, den: list[tuple[int, int, int]], d: int, bits: int):
    """x^n modulo the characteristic polynomial given by den, by
    square-and-multiply, as an interval vector at scale 2^bits."""
    mid = [mpz(1) << bits] + [0] * (d - 1)
    rad = [0] * d
    for bit in bin(n)[2:]:
        mid, rad = _interval_square_mod(mid, rad, den, d, bits)
        if bit == "1":  # times x: a shift, then one reduction
            mid, rad = _interval_reduce([0, *mid], [0, *rad], den, d)
    return mid, rad


def extract_coefficient(spec: RationalFunctionSpec, n: int) -> int:
    """Exact coefficient of z^n in the power series of the rational function:
    x^n modulo the denominator's characteristic polynomial, contracted onto
    the initial window c_0..c_{d-1}."""
    if n < 0:
        raise ValueError("n must be >= 0")
    # The sequence obeys the homogeneous recurrence from index
    # len(numerator) <= d on, so the exact x^n reduced against the
    # characteristic polynomial contracts c_n onto the initial window.
    d = spec.denominator_degree
    den = [(j, c, 0) for j, c in enumerate(spec.denominator) if j and c]
    power, _ = _power_of_x(n, den, d, 0)
    return int(sum(a * c for a, c in zip(power, _recurrence_ring(spec, d))))


def count_with_multiplicity(n: int, k: int, m: int) -> int:
    """Number of compositions of n in which size k has multiplicity m.

    Counted by inclusion-exclusion when (m + 1) k^2 >= 0.7 n^0.85 (large k),
    else by extract_coefficient; the integer is the same either way.
    """
    if n < 1 or k < 1 or m < 0:
        raise ValueError("need n, k >= 1 and m >= 0")
    if k * m > n:
        return 0
    if (m + 1) * k * k >= _IE_SCALE * n**_IE_N_POWER:
        return _count_by_inclusion_exclusion(n, k, m)
    return extract_coefficient(build_multiplicity_gf(k, m), n)


def prob_multiplicity(n: int, k: int, m: int) -> Fraction:
    """Exact probability that part size k has multiplicity m in a uniform
    composition of n."""
    return Fraction(count_with_multiplicity(n, k, m), 1 << (n - 1))


def _gap_count(parts: int, r: int) -> int:
    """[z^r] ((1-z)/(1-2z))^parts: the ways to write r as an ordered list of
    `parts` compositions, each possibly empty.

    This is sum_{i>=1} b_i 2^(r-i) with b_i = C(parts, i) C(r-1, i-1), 1 at
    r = 0.  b_i is stepped exactly as b_{i+1} = b_i (parts-i)(r-i) /
    ((i+1) i) and summed by Horner's rule in 2, so each of the min(parts, r)
    steps multiplies and divides a big integer by small ones.
    """
    if not r:
        return 1
    top = min(parts, r)
    b = acc = parts
    for i in range(1, top):
        b = b * ((parts - i) * (r - i)) // ((i + 1) * i)
        acc = (acc << 1) + b
    return acc << (r - top)


def _count_by_inclusion_exclusion(n: int, k: int, m: int) -> int:
    """count_with_multiplicity(n, k, m) by inclusion-exclusion.

    Marking j of the parts equal to k leaves j + 1 possibly empty
    compositions of n - kj around them, _gap_count(j + 1, n - kj) ways; a
    composition with c parts equal to k is marked C(c, j) times, so
    count = sum_{j>=m} (-1)^(j-m) C(j, m) _gap_count(j + 1, n - kj).
    """
    total = 0
    for j in range(m, n // k + 1):
        term = math.comb(j, m) * _gap_count(j + 1, n - k * j)
        total += -term if (j - m) & 1 else term
    return total


def expected_sizes_with_multiplicity(n: int, m: int) -> Fraction:
    """Exact expected number of part sizes having multiplicity m, i.e. the
    sum of the occurrence probabilities over k = 1..n//m."""
    if n < 1 or m < 1:
        raise ValueError("n and m must be >= 1")
    total = sum(count_with_multiplicity(n, k, m) for k in range(1, n // m + 1))
    return Fraction(total, 1 << (n - 1))


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
    initial = _recurrence_ring(spec, d)
    den = [(i, c, i) for i, c in enumerate(spec.denominator) if i and c]
    bits = _WINDOW_BITS
    mid, rad = _power_of_x(n, den, d, bits)
    # 2 b_n = sum_t A_t c_t 2^(1-t), here at scale 2^(bits + d - 1).
    center = int(sum(c * m << (d - t) for t, (m, c) in enumerate(zip(mid, initial))))
    spread = int(sum(abs(c) * r << (d - t) for t, (r, c) in enumerate(zip(rad, initial))))
    shift = exponent - (bits + d - 1)
    lo = max(0, (center - spread) << shift)
    hi = min(1 << exponent, (center + spread) << shift)
    return lo, hi


def _window_term_interval(n: int, j: int, exponent: int) -> tuple[int, int]:
    """Integers lo <= 2^exponent * P(size j absent) <= hi.

    From n = _WINDOW_CERTIFIED_MIN_N on, while _WINDOW_CERTIFIED_N_PER_J * j
    <= n, the certified interval; otherwise the exact coefficient rounded
    outward (exact when exponent = n - 1).
    """
    if n >= _WINDOW_CERTIFIED_MIN_N and _WINDOW_CERTIFIED_N_PER_J * j <= n:
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


def window_lower_bound(n: int, low: int, high: int) -> Fraction:
    """Rigorous lower bound for P(low <= distinct sizes <= high).

    The count misses the window only if a size j <= low is absent or a size
    j > high is present, so the bound is 1 - below - above, assembled in
    integer arithmetic, with ``below`` an upper bound for
    ``sum_{j<=low} (1 - P(size j present))`` and ``above`` an upper bound for
    ``sum_{j>high, j<=n} P(size j present)``.

    For ``n <= 512`` both sums are exact.  For larger n only the first 12
    terms of the upper tail are summed; the remainder is replaced by its
    closed-form expected-occurrence majorant, which stays within
    2^-(high + 12) * O(n) of the true sum.  From n = 2000 on each term of
    size ``j <= n/90`` is a certified interval (a 160-bit fixed-point power
    with outward rounding, narrower than 2^-128 up to n = 10^9), and every
    other term is the exact term rounded outward; each tail takes the
    unfavourable end of every interval.
    """
    below, above, exponent = _window_tail_numerators(n, low, high)
    return Fraction((1 << exponent) - below - above, 1 << exponent)
