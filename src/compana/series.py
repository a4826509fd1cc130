"""Exact power-series coefficients of the multiplicity generating function.

For a part size ``k`` and multiplicity ``m`` the number of compositions of
``n`` in which ``k`` occurs exactly ``m`` times is the coefficient of ``z^n``
in the rational function

    z^(k*m) * (1 - z)^(m+1) / (1 - 2z + z^k * (1 - z))^(m+1).

Dividing by ``2**(n-1)`` gives the exact occurrence probability.  Everything
here is integer/rational arithmetic; floats appear only in callers.

A count comes from one of two routes, and one rule, _counts_by_power,
chooses between them:

- the power: ``x^(n-m)`` raised modulo the kernel's characteristic
  polynomial L = x^(k+1) - 2x^k + x - 1, of degree e = k + 1 and four
  terms, then contracted onto m + 1 Hermite weights solved from the
  counts c_0..c_{d-1}, d = (k+1)(m+1), that inclusion-exclusion gives in
  one to three terms each (one square per bit of n: e(e+1)/2
  products of narrow coefficients, about e^1.6 of wide ones, which are
  split Karatsuba-style into three half-size squares; the weights take
  about m^2 e^2 small products), cheap for small k;
- inclusion-exclusion over marked parts equal to k, about (n/k)^2 / 2
  small-by-big integer steps, cheap for large k.

Past n = 512 the window bound needs P(size j absent) only to a fixed
number of bits, and takes the terms the power would count from a proved
dominant-pole interval instead (_absent_interval).
"""

from __future__ import annotations

import math
from fractions import Fraction
from operator import mul

try:
    from gmpy2 import mpz
except ImportError:  # gmpy2 is optional: plain int gives the same results, slower
    mpz = int

# Route rule: count_with_multiplicity counts by inclusion-exclusion when
# (1 + _IE_M_WEIGHT m) k^2 + _IE_M_OFFSET m >= _IE_SCALE n^_IE_N_POWER, else
# by the power.  The m = 0 switch, k^2 = 0.7 n^0.85, is the one fitted to
# the m = 0 engine, unchanged (the window bound reads it).  The m terms were
# fitted to the degree-(k+1) engine on a grid over n = 12..20 000,
# k = 1..200, m = 1..5 (Python 3.11 plain ints, 2-CPU x86-64 VM; k within
# 2.5x of the m = 0 switch, every k up to 30 for n <= 400): its cost for
# m >= 1 is an m = 0 power plus a sweep of about m^2 k^2 small products,
# which inclusion-exclusion undercuts at small n.  The least grid k from
# which inclusion-exclusion stays the cheaper, against the rule's switch,
# for m = 0..5: 14/12, 11/11, 10/10, 9/9, 8/9, 7/8 at n = 512; 25/22,
# 23/20, 21/19, 20/18, 18/17, 16/16 at 2000; 50/57, 50/53, 50/50, 55/47,
# 45/45, 45/43 at 20 000 (grid steps of 5 there).  Of the 1498 m >= 1
# cells that take 0.1 ms or more, all but 18 run within 1.3x of the cheaper
# route; those lie next to the switch, at most 3x at k = 1, n <= 96.
_IE_SCALE = 0.7
_IE_N_POWER = 0.85
_IE_M_WEIGHT = 0.15
_IE_M_OFFSET = 8

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
# the terms that the power would count come from the dominant pole, at
# _WINDOW_BITS + j fractional bits or more.
_WINDOW_EXACT_MAX_N = 512  # a majorant here moves printed bounds at 12 digits
_WINDOW_BITS = 160
_WINDOW_TAIL_TERMS = 12


def _kernel_terms(k: int) -> list[tuple[int, int]]:
    """The kernel 1 - 2z + z^k - z^(k+1) as its nonzero (j, K_j) pairs past
    the constant term 1; for k = 1 the z terms merge."""
    return [(1, -1), (2, -1)] if k == 1 else [(1, -2), (k, 1), (k + 1, -1)]


def _reduce(poly: list, den: list[tuple[int, int]], d: int) -> list:
    """poly reduced modulo x^d + sum_j den_j x^(d-j), den given as (j, den_j)
    pairs: the characteristic polynomial of the kernel."""
    for deg in range(len(poly) - 1, d - 1, -1):
        c = poly[deg]
        if c:
            for j, dj in den:
                poly[deg - j] -= c * dj
    return poly[:d]


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


def _power_of_x(n: int, den: list[tuple[int, int]], d: int) -> list:
    """x^n modulo the characteristic polynomial given by den, by
    square-and-multiply."""
    power = [mpz(1)] + [0] * (d - 1)
    for bit in bin(n)[2:]:
        power = _reduce(_poly_square(power), den, d)
        if bit == "1":  # times x: a shift, then one reduction
            power = _reduce([0, *power], den, d)
    return power


def _derivative_inverse(k: int) -> tuple[list, int]:
    """Integers v_0..v_k and D > 0 with L' v = D modulo
    L = x^(k+1) - 2x^k + x - 1, v reduced by its common factor with D.

    Closed form: x (x - 2) L' = -q modulo L, q = k x^2 - (3k-1) x + 2k,
    since x^k (x - 2) = 1 - x there.  Modulo q, k^k L = a x + b, whose
    inverse is (-k a x + (3k-1) a + k b) / D with D = 2k a^2 + (3k-1) a b
    + k b^2 (the determinant of a x + b acting on Q[x]/q, times k); so
    D + B L with B = k^k (k a x - (3k-1) a - k b) is divisible by q, and by
    the primitive q in Z[x] (Gauss), with quotient W.  Then q W = D and
    v = -x (x - 2) W modulo L.  D is 0 exactly when L and q share a root.
    """
    a, b = 1, 0  # k^(j-1) x^j = a x + b modulo q, j = 1..k
    for _ in range(k - 1):
        a, b = (3 * k - 1) * a + k * b, -2 * k * a
    s = k**k
    a, b = (k - 1) * a + k * b + s, -2 * k * (a + b) - s
    det = 2 * k * a * a + (3 * k - 1) * a * b + k * b * b
    low, high = -s * ((3 * k - 1) * a + k * b), s * k * a
    top = [0] * (k + 3)  # D + B L, ascending in x
    for j, c in [(0, 1), *_kernel_terms(k)]:  # L = sum_j K_j x^(k+1-j)
        top[k + 1 - j] += low * c
        top[k + 2 - j] += high * c
    top[0] += det
    w = [0] * (k + 1)
    for deg in range(k + 2, 1, -1):  # divided by q from the top, exactly
        t = w[deg - 2] = top[deg] // k
        top[deg - 1] += (3 * k - 1) * t
        top[deg - 2] -= 2 * k * t
    v = [0] * (k + 3)
    for i, c in enumerate(w):  # times 2x - x^2
        v[i + 1] += 2 * c
        v[i + 2] -= c
    v = _reduce(v, _kernel_terms(k), k + 1)
    g = math.gcd(det, *v)
    g = -g if det < 0 else g
    return [c // g for c in v], det // g


def _kernel_shift(seq: list, e: int) -> list:
    """L(E) seq for L = x^e - 2x^(e-1) + x - 1: seq_(t+e) - 2 seq_(t+e-1)
    + seq_(t+1) - seq_t, e values shorter."""
    return [a - 2 * b + c - x for a, b, c, x in zip(seq[e:], seq[e - 1 :], seq[1:], seq)]


def _kernel_extend(seq: list, length: int, e: int) -> list:
    """seq run on to `length` values by L(E) seq = 0, in place."""
    for t in range(len(seq) - e, length - e):
        seq.append(2 * seq[t + e - 1] - seq[t + 1] + seq[t])
    return seq


def _hermite_weights(k: int, m: int, window: list) -> tuple[list[list], int]:
    """Weights H_0..H_m, each e + m long (e = k + 1), and a denominator s with
    c_n = sum_i n(n-1)...(n-i+1) sum_t [x^t](x^(n-m) mod L) H_i[t+m-i] / s.

    H_i[t] / s = h_i(x^t), the level-i Hermite weight (extract_coefficient).
    The sweep runs from i = m down to 1 on the residual, the window minus the
    levels above i: L(E)^i turns it into i! h_i(L'^i x^n) and kills the
    levels below; the inverse of L' (times D) i times gives h_i times
    i! D^i; the sequence that level i generates is then subtracted.  All of
    it is integer, on the running denominator s = prod_i i! D^i.  What is
    left is level 0: L(E) must kill it on the whole window, and then
    h_0(x^t) s is its entry t.
    """
    e, d = k + 1, (k + 1) * (m + 1)
    v, det = _derivative_inverse(k)
    if not det:
        raise ArithmeticError(f"the kernel's derivative has no inverse for k = {k}, m = {m}")
    residual, scale, levels = list(window), 1, []
    for i in range(m, 0, -1):
        r = residual[: (i + 1) * e]
        for _ in range(i):
            r = _kernel_shift(r, e)
        for _ in range(i):  # the functional f -> r(v f)
            ext = _kernel_extend(r, 2 * e - 1, e)
            r = [sum(map(mul, v, ext[t : t + e])) for t in range(e)]
        step = math.factorial(i) * det**i
        level = _kernel_extend(r, d - i, e)  # h_i(x^t) * scale * step, t < d - i
        residual[:i] = [step * c for c in residual[:i]]
        residual[i:] = [
            step * c - math.perm(n, i) * y for n, c, y in zip(range(i, d), residual[i:], level)
        ]
        scale *= step
        levels.append((level, scale))
    if any(_kernel_shift(residual, e)):
        raise ArithmeticError(f"the Hermite sweep left a nonzero residual for k = {k}, m = {m}")
    levels.append((residual, scale))
    return [[c * (scale // s) for c in level[: e + m]] for level, s in reversed(levels)], scale


def extract_coefficient(n: int, k: int, m: int) -> int:
    """count_with_multiplicity(n, k, m) by the power engine: c_n, the
    coefficient of z^n in z^(km) (1 - z)^(m+1) / K^(m+1) with the kernel
    K = 1 - 2z + z^k (1 - z), here defined at n = 0 as well.

    With L = x^(k+1) K(1/x) and d = (k+1)(m+1), above the numerator's degree
    km + m + 1, the counts obey L(E)^(m+1) c = 0 from index 0 on (E the
    shift), and

        c_n = sum_{i=0..m} n(n-1)...(n-i+1) <x^(n-i) mod L, h_i>,

    the Hermite form of the m + 1 pole terms at each root of L
    (Flajolet-Sedgewick, Analytic Combinatorics, Thm IV.9): h_i is a linear
    functional on Q[x]/L, <p, h_i> = sum_t p_t h_i(x^t).  This needs L
    squarefree.  The initial window c_0..c_{d-1} is counted by
    inclusion-exclusion (one to three terms each; n < d returns that count).
    For m = 0, h_0(x^t) = c_t: x^n mod L contracted onto the window.  Above,
    _hermite_weights solves the h_i from the window, and one power
    x^(n-m) mod L serves every level, with x^(n-i) = x^(m-i) x^(n-m) moved
    onto the weights as a shift.

    L = x^(k+1) - 2x^k + x - 1 is squarefree for every k >= 1: x and x - 2
    are units modulo L (L(0) = -1, L(2) = 1), and x (x - 2) L' = -q with
    q = k x^2 - (3k-1) x + 2k, so L' is a unit if q is.  A common root of
    L and q is an algebraic integer (L is monic) whose minimal polynomial
    divides the primitive q.  Linear, it is an integer root of L, so +-1,
    but q(1) = 1 and q(-1) = 6k - 1; quadratic, it is q / k in Z[x], so
    k = 1 and q = x^2 - 2x + 2, which does not divide L = x^2 - x - 1.
    """
    if n < 0 or k < 1 or m < 0:
        raise ValueError("need n >= 0, k >= 1 and m >= 0")
    e, d = k + 1, (k + 1) * (m + 1)
    if n < d:
        return _count_by_inclusion_exclusion(n, k, m)
    window = [_count_by_inclusion_exclusion(t, k, m) for t in range(d)]
    weights, scale = _hermite_weights(k, m, window) if m else ([window], 1)
    mixed = [sum(math.perm(n, i) * w[t + m - i] for i, w in enumerate(weights)) for t in range(e)]
    power = _power_of_x(n - m, _kernel_terms(k), e)
    return int(sum(map(mul, power, mixed))) // scale


def count_with_multiplicity(n: int, k: int, m: int) -> int:
    """Number of compositions of n in which size k has multiplicity m.

    Counted by inclusion-exclusion when (1 + 0.15 m) k^2 + 8 m >= 0.7 n^0.85
    (large k), else by extract_coefficient; the integer is the same either
    way.
    """
    if n < 1 or k < 1 or m < 0:
        raise ValueError("need n, k >= 1 and m >= 0")
    if k * m > n:
        return 0
    if _counts_by_power(n, k, m):
        return extract_coefficient(n, k, m)
    return _count_by_inclusion_exclusion(n, k, m)


def _counts_by_power(n: int, k: int, m: int) -> bool:
    """The route rule: whether count_with_multiplicity(n, k, m) raises the
    power rather than counting by inclusion-exclusion."""
    return (1 + _IE_M_WEIGHT * m) * k * k + _IE_M_OFFSET * m < _IE_SCALE * n**_IE_N_POWER


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


def _slope(j: int, bits: int, x: int, y: int) -> int:
    """2^(bits j) (2 - j (y/2^bits)^(j-1) + (j+1) (x/2^bits)^j): -Q'(z) for
    x = y = 2^bits z, a lower bound for x <= 2^bits z <= y, an upper one for
    y <= 2^bits z <= x."""
    return (2 << bits * j) - (j * y ** (j - 1) << bits) + (j + 1) * x**j


def _dominant_pole(j: int, bits: int) -> tuple[int, int]:
    """Integers a, b = a + 1 with a < 2^bits rho <= b, rho the zero of
    Q(z) = 1 - 2z + z^j (1 - z) in [1/2, 4/5], by integer Newton.

    Q(1/2) > 0 > Q(4/5) and -Q' > 1 on [1/2, 4/5], so the exact signs
    Q(a) > 0 >= Q(b) with 1/2 <= a < b < 4/5 prove the bracket.
    """
    one = 1 << bits

    def q(x: int) -> int:  # 2^(bits (j + 1)) Q(x / 2^bits), exact
        return ((one - 2 * x) << bits * j) + x**j * (one - x)

    x = (one >> 1) + (one >> (j + 2))
    for _ in range(bits.bit_length() + 8):  # Newton converges quadratically
        value, b = q(x), x + 1
        if value > 0 >= q(b) and one <= 2 * x and 5 * b < 4 * one:
            return x, b
        x += value // _slope(j, bits, x, x) or 1  # a 0 step moves one unit up
    raise ArithmeticError(f"no bracket found for the pole of size {j}")


def _fixed_power(y: int, n: int, bits: int, up: bool) -> int:
    """y^n at scale 2^bits for y >= 0 by square-and-multiply, each step
    rounded down, or up when up is set."""
    carry = (1 << bits) - 1 if up else 0
    power = 1 << bits
    for bit in bin(n)[2:]:
        power = (power * power + carry) >> bits
        if bit == "1":
            power = (power * y + carry) >> bits
    return power


def _absent_interval(n: int, j: int, exponent: int) -> tuple[int, int]:
    """Integers lo <= 2^exponent * P(size j absent) <= hi from the dominant
    pole, at most 4 units apart for n > 512.

    P(absent) = c_n / 2^(n-1), c_n = [z^n] F, F = (1 - z) / Q and
    Q = 1 - 2z + z^j (1 - z).  Singularity analysis on |z| = 4/5
    (Flajolet-Sedgewick, Analytic Combinatorics, Thm IV.9):
    - |1 - 2z|^2 - |z^j (1 - z)|^2 is linear in cos arg z, least at z = 4/5,
      and there (9 - (4/5)^(2j)) / 25 >= 209/625; so by Rouche Q has one
      zero rho inside, and on the circle |Q| >= 209/2525 and |F| < 22;
    - A = (1 - rho) / (-rho Q'(rho)) <= 0.6: rho > 1/2 and -Q'(rho) >= 1.68
      (2.24, 1.83, 1.76 at j = 1, 2, 3; past that rho <= 0.544); with
      rho <= 0.62, |A / (1 - z/rho)| < 3 on the circle;
    - Cauchy's bound on F - A / (1 - z/rho) gives c_n = A rho^-n + e_n with
      |e_n| <= 32 (5/4)^n, so P(absent) = 2A (2 rho)^-n within
      64 (5/8)^n <= 2^(6 - [2n/3]).
    At bits = exponent + bitlen(n) + 16, _dominant_pole brackets rho, A is
    bounded monomial by monomial at the bracket's ends and _fixed_power
    rounds (2 rho)^-n down and up.  The pole term, widened by the
    remainder, is rounded outward to 2^exponent.
    """
    bits = exponent + n.bit_length() + 16
    a, b = _dominant_pole(j, bits)
    one, shift = 1 << bits, bits * j + 1
    # 2 A (2 rho)^-n at scale 2^bits, with 1/(2 rho) in [one^2/2b, one^2/2a).
    power_lo = _fixed_power((one << bits) // (2 * b), n, bits, False)
    power_hi = _fixed_power(-(-(one << bits) // (2 * a)), n, bits, True)
    lo = ((one - b) << shift) * power_lo // (b * _slope(j, bits, b, a))
    hi = -(-((one - a) << shift) * power_hi // (a * _slope(j, bits, a, b)))
    rem = 1 << max(0, bits + 6 - 2 * n // 3)
    drop = bits - exponent
    return max(0, (lo - rem) >> drop), min(1 << exponent, -((-hi - rem) >> drop))


def _window_term_interval(n: int, j: int, exponent: int) -> tuple[int, int]:
    """Integers lo <= 2^exponent * P(size j absent) <= hi.

    Above n = _WINDOW_EXACT_MAX_N a size that count_with_multiplicity would
    count by the power takes the pole interval; every other term is the
    exact count rounded outward (exact when exponent = n - 1).
    """
    if n > _WINDOW_EXACT_MAX_N and _counts_by_power(n, j, 0):
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
    2^-(high + 12) * O(n) of the true sum.  Each term of a size that
    count_with_multiplicity would count by the power is then a certified
    dominant-pole interval (2A (2 rho)^-n plus a proved remainder, at most
    4 units of 2^-(160 + max(low, high + 12)) wide), and every other term is
    the exact term rounded outward; each tail takes the unfavourable end of
    every interval.
    """
    below, above, exponent = _window_tail_numerators(n, low, high)
    return Fraction((1 << exponent) - below - above, 1 << exponent)
