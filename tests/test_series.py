import math
from fractions import Fraction
from functools import lru_cache

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from compana import series
from conftest import multiplicity_census


def poly_mul(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return tuple(out)


@lru_cache(maxsize=None)
def multiplicity_gf(k, m):
    """(numerator, denominator) of the multiplicity generating function,
    ascending in z: z^(km) (1 - z)^(m+1) and K^(m+1) with the kernel
    K = 1 - 2z + z^k - z^(k+1), by full polynomial products; for k = 1 the
    kernel's two z terms add up."""
    kernel = [0] * (k + 2)
    for e, c in ((0, 1), (1, -2), (k, 1), (k + 1, -1)):
        kernel[e] += c
    numerator, denominator = (0,) * (k * m) + (1,), (1,)
    for _ in range(m + 1):
        numerator = poly_mul(numerator, (1, -1))
        denominator = poly_mul(kernel, denominator)
    return numerator, denominator


def recurrence_coefficients(k, m, n):
    """c_0..c_n by running the expanded denominator's recurrence
    c_i = num_i - sum_{j>=1} den_j c_{i-j}: the reference that the two
    count routes are checked against."""
    num, den = multiplicity_gf(k, m)
    terms = [(j, c) for j, c in enumerate(den) if j and c]
    c = [0] * (n + 1)
    base = k * m  # c_i = 0 below the numerator's lowest term
    for i in range(base, n + 1):
        v = num[i] if i < len(num) else 0
        for j, dj in terms:
            if j > i - base:
                break
            v -= dj * c[i - j]
        c[i] = v
    return c


def recurrence_coefficient(k, m, n):
    return recurrence_coefficients(k, m, n)[n]


def kernel_polynomial(k):
    """L = x^(k+1) - 2x^k + x - 1, ascending in x."""
    return list(reversed(multiplicity_gf(k, 0)[1]))


def reduce_by_kernel(poly, k):
    """poly modulo L, by hand: x^(k+1) = 2x^k - x + 1."""
    poly = list(poly)
    for deg in range(len(poly) - 1, k, -1):
        c, poly[deg] = poly[deg], 0
        poly[deg - 1] += 2 * c
        poly[deg - k] -= c
        poly[deg - k - 1] += c
    return poly[: k + 1]


def prob_size_present(n, k):
    """Exact probability that a uniform composition of n has a part of
    size k: the window tests' reference."""
    if k > n:
        return Fraction(0)
    return 1 - Fraction(series.count_with_multiplicity(n, k, 0), 1 << (n - 1))


def window_tail_bounds(n, low, high):
    """The window-miss bounds (below, above) that window_lower_bound
    subtracts from 1, as rationals."""
    below, above, exponent = series._window_tail_numerators(n, low, high)
    return Fraction(below, 1 << exponent), Fraction(above, 1 << exponent)


class TestBuildGeneratingFunction:
    # The reference multiplicity_gf, which the two count routes are checked
    # against through recurrence_coefficient.
    def test_k1_m0(self):
        assert multiplicity_gf(1, 0) == ((1, -1), (1, -1, -1))

    def test_k2_m0_denominator(self):
        assert multiplicity_gf(2, 0)[1] == (1, -2, 1, -1)

    def test_k1_m1_is_square_of_base_case(self):
        numerator, denominator = multiplicity_gf(1, 1)
        assert numerator == (0, 1, -2, 1)
        assert denominator == (1, -2, -1, 2, 1)

    @pytest.mark.parametrize("k,m", [(1, 0), (1, 2), (3, 1), (5, 2), (7, 0), (2, 4)])
    def test_degrees(self, k, m):
        numerator, denominator = multiplicity_gf(k, m)
        assert len(numerator) - 1 == k * m + m + 1
        assert len(denominator) - 1 == (k + 1) * (m + 1)
        assert denominator[0] == 1

    @pytest.mark.parametrize("k,m", [(2, 1), (3, 2), (4, 3)])
    def test_denominator_is_kernel_power(self, k, m):
        denominator = multiplicity_gf(k, m)[1]
        for z in (-3, -1, 2, 5):
            kernel = 1 - 2 * z + z**k - z ** (k + 1)
            assert sum(c * z**j for j, c in enumerate(denominator)) == kernel ** (m + 1)

    def test_matches_kernel_powers_by_poly_mul(self):
        # The kernel whose powers the reference multiplies is the one the
        # engine reduces by, and the numerator is the binomial expansion.
        for k in range(1, 61):
            kernel = multiplicity_gf(k, 0)[1]
            assert [(j, c) for j, c in enumerate(kernel) if j and c] == series._kernel_terms(k), k
            for m in range(6):
                numerator = tuple((-1) ** i * math.comb(m + 1, i) for i in range(m + 2))
                assert multiplicity_gf(k, m)[0] == (0,) * (k * m) + numerator, (k, m)

    @pytest.mark.parametrize("n", range(1, 17))
    def test_reference_matches_brute_force(self, n):
        census = multiplicity_census(n)  # a walk of brute_force_compositions(n)
        for k in range(1, n + 1):
            for m in range(n + 1):
                assert recurrence_coefficient(k, m, n) == census.get((k, m), 0), (k, m)


class TestExtractCoefficient:
    def test_avoiding_ones_n5(self):
        assert series.extract_coefficient(5, 1, 0) == 3

    def test_three_ones_n5(self):
        assert series.extract_coefficient(5, 1, 3) == 4

    def test_single_five_n5(self):
        assert series.extract_coefficient(5, 5, 1) == 1

    def test_fibonacci_cross_check(self):
        fib = [0, 1, 1]  # fib[i] with F_1 = F_2 = 1
        for _ in range(60):
            fib.append(fib[-1] + fib[-2])
        for n in range(2, 61):
            assert series.extract_coefficient(n, 1, 0) == fib[n - 1]

    @pytest.mark.parametrize("n", range(1, 11))
    def test_oracle_equivalence_small(self, n):
        census = multiplicity_census(n)
        for k in range(1, n + 1):
            for m in range(0, n + 1):
                assert series.count_with_multiplicity(n, k, m) == census.get((k, m), 0)

    @pytest.mark.parametrize("n", range(1, 13))
    def test_total_count_identity(self, n):
        for k in (1, 2, min(3, n), n):
            total = sum(series.count_with_multiplicity(n, k, m) for m in range(n + 1))
            assert total == 1 << (n - 1)

    @pytest.mark.parametrize(
        "n,k,m",
        # (2357, 20, 0): 21 terms, whose widest squares split three levels
        # deep with odd tails; (8000, 14, 3) and (7444, 9, 5): four and six
        # Hermite levels.
        [(500, 3, 0), (1000, 7, 0), (2357, 20, 0), (800, 4, 2), (1500, 2, 1), (64, 1, 0), (8000, 14, 3), (7444, 9, 5)],
    )
    def test_powmod_matches_recurrence(self, n, k, m):
        assert recurrence_coefficient(k, m, n) == series.extract_coefficient(n, k, m)

    @settings(max_examples=40, deadline=None)
    @given(st.integers(1, 60), st.integers(0, 5), st.integers(0, 3000))
    @example(1, 0, 3000)  # k = 1: the kernel's z terms merge, L = x^2 - x - 1
    @example(1, 5, 3000)
    @example(1, 5, 11)  # n = d - 1, the last window entry
    @example(7, 3, 21)  # n = km, the first nonzero count
    @example(7, 3, 32)  # n = d, the first power
    @example(60, 5, 366)
    def test_powmod_matches_recurrence_random(self, k, m, n):
        # One power modulo the degree-(k+1) kernel and m + 1 Hermite
        # weights, against the recurrence of the expanded K^(m+1): up to
        # d = 366, n = 0 and n below d included.
        assert series.extract_coefficient(n, k, m) == recurrence_coefficient(k, m, n)

    def test_window_is_seeded_from_the_counts(self):
        # Below d every count is the inclusion-exclusion count that seeds the
        # Hermite weights (k <= 60, m <= 7: d up to 488); for k <= 8 the power
        # then runs on that window at n = d and d + 1.
        for k in range(1, 61):
            for m in range(8):
                d = (k + 1) * (m + 1)
                top = d + 2 if k <= 8 else d
                counts = [series.extract_coefficient(t, k, m) for t in range(top)]
                assert counts == recurrence_coefficients(k, m, top - 1), (k, m)

    @settings(max_examples=80, deadline=None)
    @given(
        st.integers(1, 70),
        st.sampled_from((8, 64, 300, 2000, 6000)),
        st.sampled_from((0.0, 0.3, 0.8)),
        st.randoms(use_true_random=False),
    )
    def test_poly_square_matches_double_loop(self, size, width, zeros, rnd):
        # Widths on both sides of the split switch: 70 terms of 6000 bits
        # halve down to lists of 2 and 3, 70 terms of 64 bits never split.
        a = [
            0 if rnd.random() < zeros else rnd.choice((-1, 1)) * rnd.getrandbits(width)
            for _ in range(size)
        ]
        assert series._poly_square(a) == list(poly_mul(a, a))

    def test_kernel_is_squarefree(self):
        # L' v = D != 0 modulo L, so gcd(L, L') divides a nonzero constant.
        for k in range(1, 301):
            v, det = series._derivative_inverse(k)
            assert det > 0
            product = [0] * (2 * k + 1)
            for i, c in enumerate(kernel_polynomial(k)[1:]):  # L' = sum (i+1) c x^i
                if c:
                    for j, x in enumerate(v):
                        product[i + j] += (i + 1) * c * x
            assert reduce_by_kernel(product, k) == [det] + [0] * k, k

    def test_corrupted_inverse_raises(self, monkeypatch):
        inverse = series._derivative_inverse

        def corrupted(k):
            v, det = inverse(k)
            return [v[0] + 1, *v[1:]], det

        monkeypatch.setattr(series, "_derivative_inverse", corrupted)
        for count in (
            lambda: series.extract_coefficient(8000, 14, 3),
            lambda: series.count_with_multiplicity(8000, 14, 3),
        ):
            with pytest.raises(ArithmeticError, match="k = 14, m = 3"):
                count()
        monkeypatch.setattr(series, "_derivative_inverse", lambda k: (inverse(k)[0], 0))
        with pytest.raises(ArithmeticError, match="k = 2, m = 1"):
            series.extract_coefficient(10, 2, 1)

    def test_exponent_one_needs_no_inverse(self, monkeypatch):
        def refuse(k):
            raise AssertionError("m = 0 inverted the derivative")

        monkeypatch.setattr(series, "_derivative_inverse", refuse)
        assert series.extract_coefficient(500, 5, 0) == recurrence_coefficient(5, 0, 500)

    @pytest.mark.parametrize(
        "n,k,m,route",
        [
            (20_000, 200, 0, "_count_by_inclusion_exclusion"),
            (500, 100, 1, "_count_by_inclusion_exclusion"),
            (24_000, 14, 3, "_extract_by_powmod"),
            (13_000, 1, 1, "_extract_by_powmod"),
            (3, 2, 0, "_count_by_inclusion_exclusion"),
            (16, 1, 0, "_extract_by_powmod"),
            (50, 1, 1, "_extract_by_powmod"),
            (7439, 29, 1, "_extract_by_powmod"),
            (120, 6, 0, "_extract_by_powmod"),
            # Either side of the switch (1 + 0.15 m) k^2 + 8 m = 0.7 n^0.85:
            # 16.1 at n = 40, 248 at n = 1000, 448 at n = 2000.
            (1000, 15, 0, "_extract_by_powmod"),
            (1000, 16, 0, "_count_by_inclusion_exclusion"),
            (2000, 12, 2, "_extract_by_powmod"),
            (2000, 13, 2, "_extract_by_powmod"),
            (2000, 18, 2, "_extract_by_powmod"),
            (2000, 19, 2, "_count_by_inclusion_exclusion"),
            (1000, 10, 5, "_extract_by_powmod"),
            (1000, 11, 5, "_count_by_inclusion_exclusion"),
            (40, 2, 1, "_extract_by_powmod"),
            (40, 3, 1, "_count_by_inclusion_exclusion"),
        ],
    )
    def test_route(self, monkeypatch, n, k, m, route):
        # "_extract_by_powmod" labels the power route, whose body is now
        # extract_coefficient itself; the label keeps the test ids unchanged.
        monkeypatch.setattr(series, "extract_coefficient", lambda n, k, m: "_extract_by_powmod")
        monkeypatch.setattr(
            series, "_count_by_inclusion_exclusion", lambda n, k, m: "_count_by_inclusion_exclusion"
        )
        assert series.count_with_multiplicity(n, k, m) == route

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 3000), st.integers(1, 60), st.integers(0, 5))
    def test_routes_match_the_recurrence_random(self, n, k, m):
        # Each route runs where it is cheap enough for a test: the power up
        # to d = 120, inclusion-exclusion up to about 2 10^5 steps.
        exact = recurrence_coefficient(k, m, n)
        if n:
            assert series.count_with_multiplicity(n, k, m) == exact
        if (k + 1) * (m + 1) <= 120:
            assert series.extract_coefficient(n, k, m) == exact
        if n and (n // k) ** 2 <= 400_000:
            assert series._count_by_inclusion_exclusion(n, k, m) == exact


class TestProbabilities:
    def test_prob_multiplicity_examples(self):
        assert series.prob_multiplicity(5, 1, 1) == Fraction(5, 16)
        assert series.prob_multiplicity(5, 1, 0) == Fraction(3, 16)
        assert series.prob_multiplicity(10, 4, 3) == 0  # k*m > n

    @pytest.mark.parametrize("n", range(1, 11))
    def test_normalization(self, n):
        for k in range(1, n + 1):
            assert sum(series.prob_multiplicity(n, k, m) for m in range(n + 1)) == 1

    def test_prob_size_present(self):
        assert prob_size_present(5, 1) == Fraction(13, 16)
        assert prob_size_present(5, 5) == Fraction(1, 16)
        assert prob_size_present(10, 11) == 0

    def test_expected_sizes(self):
        assert series.expected_sizes_with_multiplicity(5, 1) == Fraction(19, 16)
        assert series.expected_sizes_with_multiplicity(1, 1) == 1
        assert series.expected_sizes_with_multiplicity(5, 5) == Fraction(1, 16)

    @settings(max_examples=60, deadline=None)
    @given(st.integers(1, 300), st.integers(0, 4), st.integers(1, 301))
    def test_inclusion_exclusion_matches_extraction(self, n, m, k):
        # k up to n + 1 reaches k m > n and r = n - kj = 0 (k | n).
        count = series._count_by_inclusion_exclusion(n, k, m)
        assert count == recurrence_coefficient(k, m, n)

    @pytest.mark.parametrize(
        "n,k,m", [(10, 4, 3), (12, 4, 3), (300, 1, 0), (300, 1, 4), (300, 300, 1), (300, 150, 2)]
    )
    def test_inclusion_exclusion_edges(self, n, k, m):
        # k m > n; r = 0 at j = 3; k = 1; r = 0 at j = m = 1 and 2.
        count = series._count_by_inclusion_exclusion(n, k, m)
        assert count == recurrence_coefficient(k, m, n)

    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_expected_sizes_equal_extraction_sum(self, m):
        # The sum takes both routes (the switch is at k = 7..9); the
        # recurrence is the reference for every term.
        n = 600
        total = sum(
            recurrence_coefficient(k, m, n)
            for k in range(1, n // m + 1)
        )
        assert series.expected_sizes_with_multiplicity(n, m) == Fraction(total, 1 << (n - 1))

    @pytest.mark.parametrize("n", [6, 9])
    def test_expected_sizes_against_census(self, n):
        census = multiplicity_census(n)
        for m in (1, 2):
            expected = Fraction(
                sum(census.get((k, m), 0) for k in range(1, n + 1)), 1 << (n - 1)
            )
            assert series.expected_sizes_with_multiplicity(n, m) == expected


class TestWindowTailBounds:
    def test_small_window_exact(self):
        below, above = window_tail_bounds(5, 1, 5)
        assert below == Fraction(3, 16)
        assert above == 0

    def test_full_window_has_zero_upper_tail(self):
        for n in (3, 9, 40):
            assert window_tail_bounds(n, 1, n)[1] == 0

    def test_matches_termwise_sums_when_exact(self):
        n, lo, hi = 60, 3, 8
        below, above = window_tail_bounds(n, lo, hi)
        assert below == sum(1 - prob_size_present(n, j) for j in range(1, lo + 1))
        assert above == sum(prob_size_present(n, j) for j in range(hi + 1, n + 1))

    def test_majorant_is_upper_bound(self):
        n = 200
        for start in (2, 8, 13, 40, 100, 199, 200):
            tail = sum(prob_size_present(n, j) for j in range(start, n + 1))
            for exponent in (n + 1, 60):
                majorant = Fraction(
                    series._presence_tail_majorant_scaled(n, start, exponent), 1 << exponent
                )
                assert majorant >= tail
                assert majorant - tail < Fraction(n, 1 << start) + Fraction(1, 1 << exponent)
        assert series._presence_tail_majorant_scaled(n, n + 1, 60) == 0

    @pytest.mark.parametrize("n", [3, 10, 57, 200])
    def test_majorant_equals_tail_past_half(self, n):
        # At most one part of size j > n/2 fits, so P(present) is its
        # expected count and the majorant is the tail itself.
        for start in range(n // 2 + 1, n + 1):
            tail = sum(prob_size_present(n, j) for j in range(start, n + 1))
            majorant = series._presence_tail_majorant_scaled(n, start, n)
            assert Fraction(majorant, 1 << n) == tail

    def test_lower_bound_consistency(self):
        n, lo, hi = 120, 3, 10
        below, above = window_tail_bounds(n, lo, hi)
        assert series.window_lower_bound(n, lo, hi) == 1 - below - above

    def test_malformed_window(self):
        with pytest.raises(ValueError):
            series.window_lower_bound(10, 5, 3)
        with pytest.raises(ValueError):
            series.window_lower_bound(10, 0, 3)
        with pytest.raises(ValueError):
            series.window_lower_bound(10, 2, 11)

    @pytest.mark.slow
    def test_desk_scale_window_is_tight(self):
        n = 10**4
        lo = math.floor(math.log2(n)) - math.ceil(math.log(math.log(n)))
        hi = math.floor(math.log2(n)) + math.ceil(math.log(math.log(n)))
        below, above = window_tail_bounds(n, lo, hi)
        assert below < Fraction(1, 5)
        assert above < Fraction(1, 5)

    def test_empirical_probability_respects_bound(self):
        from compana import compositions as comps

        n = 300
        lo = math.floor(math.log2(n)) - math.ceil(math.log(math.log(n)))
        hi = math.floor(math.log2(n)) + math.ceil(math.log(math.log(n)))
        bound = float(series.window_lower_bound(n, lo, hi))
        trials = 20_000
        hist = comps.distinct_size_histogram(n, trials, seed=17)
        p_hat = hist[lo : hi + 1].sum() / trials
        stderr = math.sqrt(max(p_hat * (1 - p_hat), 1e-12) / trials)
        assert p_hat >= bound - 5 * stderr


def exact_route_tail_bounds(n, low, high):
    """The window-miss bounds (below, above) from exact coefficients: the
    same term set as window_tail_bounds past n = 512 (high + 12 upper terms,
    then the exact majorant of the rest)."""
    top = min(n, high + 12)
    absent = [Fraction(series.count_with_multiplicity(n, j, 0), 1 << (n - 1))
              for j in range(1, max(low, top) + 1)]
    below = sum(absent[:low])
    above = sum(1 - absent[j - 1] for j in range(high + 1, top + 1))
    if top < n:
        above += Fraction(n - top + 1, 1 << (top + 1))
    return below, above


def exact_route_window_bound(n, low, high):
    below, above = exact_route_tail_bounds(n, low, high)
    return 1 - below - above


def slope(j, bits, x, y):
    """2^(bits j) (2 - j (y/2^bits)^(j-1) + (j+1) (x/2^bits)^j): -Q'(z) for
    x = y = 2^bits z, a lower bound for x <= 2^bits z <= y, an upper one for
    y <= 2^bits z <= x."""
    return (2 << bits * j) - (j * y ** (j - 1) << bits) + (j + 1) * x**j


def absent_interval_by_slopes(n, j, exponent):
    """series._absent_interval with each bound on -Q' taken from its own
    four powers, by slope()."""
    bits = exponent + n.bit_length() + 16
    a, b, _ = series._dominant_pole(j, bits)
    one, shift = 1 << bits, bits * j + 1
    power_lo = series._fixed_power((one << bits) // (2 * b), n, bits, False)
    power_hi = series._fixed_power(-(-(one << bits) // (2 * a)), n, bits, True)
    lo = ((one - b) << shift) * power_lo // (b * slope(j, bits, b, a))
    hi = -(-((one - a) << shift) * power_hi // (a * slope(j, bits, a, b)))
    rem = 1 << max(0, bits + 6 - 2 * n // 3)
    drop = bits - exponent
    return max(0, (lo - rem) >> drop), min(1 << exponent, -((-hi - rem) >> drop))


class TestCertifiedWindow:
    @settings(max_examples=40, deadline=None)
    @given(st.integers(1, 6000), st.integers(1, 60))
    # Below n ~ 300 the remainder 2^(6 - [2n/3]) outweighs the pole term's
    # own rounding, so these fail if it is dropped.
    @example(1, 1)
    @example(20, 5)
    @example(300, 60)
    @example(513, 1)
    # Terms that moved from inclusion-exclusion to the pole at distinct's
    # own windows.
    @example(1400, 24)
    @example(2000, 25)
    def test_interval_brackets_exact_term(self, n, j):
        exponent = series._WINDOW_BITS + 40
        lo, hi = series._absent_interval(n, j, exponent)
        exact = Fraction(series.count_with_multiplicity(n, j, 0), 1 << (n - 1))
        assert Fraction(lo, 1 << exponent) <= exact <= Fraction(hi, 1 << exponent)
        if n > 512:
            assert hi - lo <= 4

    @pytest.mark.parametrize("bits", [16, 64, 65, 129, 211, 527, 1000])
    def test_pole_bracket_signs(self, bits):
        # Past 64 bits Newton starts from the bracket at half the bits; the
        # result must still be the bracket that the exact signs of Q prove.
        for j in (1, 2, 3, 5, 13, 24, 60, 200):
            a, b, a_low = series._dominant_pole(j, bits)
            x, y = Fraction(a, 1 << bits), Fraction(b, 1 << bits)
            assert b == a + 1
            assert a_low == a ** (j - 1)
            assert 1 - 2 * x + x**j * (1 - x) > 0 >= 1 - 2 * y + y**j * (1 - y)

    @pytest.mark.parametrize("bits", [16, 65, 211, 527])
    def test_slope_bounds_match_separate_powers(self, bits):
        for j in range(1, 61):
            a, b, a_low = series._dominant_pole(j, bits)
            assert series._slope_bounds(j, bits, a, b, a_low) == \
                (slope(j, bits, a, b), slope(j, bits, b, a)), j

    @pytest.mark.parametrize("n", [513, 1000, 1400, 2000, 10**4, 10**6, 10**9])
    def test_interval_matches_separate_slopes(self, n):
        # The shared powers a^(j-1), b^(j-1) must give the very integers
        # that four separate powers give.
        for exponent in (184, series._WINDOW_BITS + 40):
            for j in range(1, 61):
                assert series._absent_interval(n, j, exponent) == \
                    absent_interval_by_slopes(n, j, exponent), (j, exponent)

    @pytest.mark.parametrize("n", [513, 1000, 4097, 9000])
    def test_bound_is_below_exact_route(self, n):
        from compana import cli

        low, high = cli.distinct_window(n)
        bound = series.window_lower_bound(n, low, high)
        exact = exact_route_window_bound(n, low, high)
        assert bound <= exact
        assert exact - bound < Fraction(1, 1 << 100)
        assert bound.denominator <= 1 << (series._WINDOW_BITS + 64)
        assert float(bound) == float(exact)

    @pytest.mark.parametrize("n", [1000, 4097])
    def test_each_tail_bound_is_above_its_exact_sum(self, n):
        from compana import cli

        low, high = cli.distinct_window(n)
        below, above = window_tail_bounds(n, low, high)
        exact_below, exact_above = exact_route_tail_bounds(n, low, high)
        assert exact_below <= below < exact_below + Fraction(1, 1 << 100)
        assert exact_above <= above < exact_above + Fraction(1, 1 << 100)

    def test_exact_terms_past_crossover(self, monkeypatch):
        # Above n = 512 a term takes the pole interval where the pole is the
        # cheaper route: against the power (small j) while
        # exponent < 55 n^(1/3), against inclusion-exclusion while
        # j^2 exponent < 30 n^1.25.  Every other term takes the exact
        # coefficient, rounded outward.
        poles = []

        def spy(n, j, exponent):
            poles.append((n, j))
            return absent_interval(n, j, exponent)

        absent_interval = series._absent_interval
        monkeypatch.setattr(series, "_absent_interval", spy)
        for n, j, exponent, pole in [
            (512, 1, 220, False), (512, 11, 220, False),
            # 513: the power counts j <= 11; inclusion-exclusion from 12.
            (513, 1, 220, True), (513, 11, 220, True), (513, 18, 220, True),
            (513, 19, 220, False),
            # 1000: the power counts j <= 15; 55 * 1000^(1/3) = 550.
            (1000, 5, 549, True), (1000, 5, 550, False), (1000, 15, 549, True),
            (1000, 16, 549, True), (1000, 17, 549, True), (1000, 18, 549, False),
            (1000, 999, 220, False), (1000, 1000, 220, False),
            (1400, 24, 184, True), (2000, 42, 220, True), (2000, 43, 220, False),
            (40000, 277, 220, True), (40000, 278, 220, False),
        ]:
            poles.clear()
            lo, hi = series._window_term_interval(n, j, exponent)
            exact = Fraction(series.count_with_multiplicity(n, j, 0), 1 << (n - 1))
            assert Fraction(lo, 1 << exponent) <= exact <= Fraction(hi, 1 << exponent)
            assert bool(poles) == pole == (n > 512 and series._window_term_by_pole(n, j, exponent))

    def test_wide_window_takes_the_pole_where_it_is_cheaper(self, monkeypatch):
        # At (700, 200, 300) the terms run to j = 312 at exponent 472.  The
        # pole undercuts the power, which counts j <= 13, since
        # 472 < 55 * 700^(1/3), and inclusion-exclusion up to j = 15; from
        # j = 16 inclusion-exclusion is the cheaper.
        poles = []

        def spy(n, j, exponent):
            poles.append((j, exponent))
            return absent_interval(n, j, exponent)

        absent_interval = series._absent_interval
        monkeypatch.setattr(series, "_absent_interval", spy)
        bound = series.window_lower_bound(700, 200, 300)
        assert poles == [(j, 472) for j in range(1, 16)]
        exact = exact_route_window_bound(700, 200, 300)
        assert bound <= exact
        assert exact - bound < Fraction(1, 1 << 400)

    @pytest.mark.parametrize("n", [513, 1000, 2000, 40000, 10**9])
    def test_window_never_raises_the_power_past_512(self, n, monkeypatch):
        from compana import cli

        def refuse(n, k, m):
            raise AssertionError("the window bound raised the power")

        monkeypatch.setattr(series, "extract_coefficient", refuse)
        series.window_lower_bound(n, *cli.distinct_window(n))

    def test_full_window_past_512(self):
        n = 700
        low, high = 3, 690
        bound = series.window_lower_bound(n, low, high)
        exact = exact_route_window_bound(n, low, high)
        assert bound <= exact
        assert exact - bound < Fraction(1, 1 << 100)
