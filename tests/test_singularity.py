import math
import random

import mpmath
import pytest

from compana import series, singularity
from conftest import count_roots_in_unit_disk, log_geometric_bounds


def bisect_root(k, tol=1e-10):
    # Independent root finder: plain bisection, no Newton polish.
    lo, hi = singularity.root_bracket(k)
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if singularity.kernel_value(k, mid) > 0:
            lo = mid
        else:
            hi = mid
        if hi - lo < tol:
            break
    return 0.5 * (lo + hi)


def reference_root(k):
    # Reference root: bisection of the bracket to adjacent doubles, then the
    # polish.  solve_dominant_root must return exactly these fields.
    lo, hi = singularity.root_bracket(k)
    if k > singularity.NEWTON_MAX_K:
        x = 0.5 + 2.0 ** -(k + 2)
        return (x, lo, hi, abs(singularity.kernel_value(k, x)), "series-expansion")
    a, b = lo, hi
    for _ in range(200):
        mid = 0.5 * (a + b)
        if mid <= a or mid >= b:
            break
        if 1 - 2 * mid + mid**k * (1 - mid) > 0:
            a = mid
        else:
            b = mid
    x = 0.5 * (a + b)
    for _ in range(100):
        q = singularity.kernel_value(k, x)
        if abs(q) <= 1e-15:
            break
        step = q / singularity.kernel_derivative(k, x)
        candidate = x - step
        if not (lo < candidate < hi):
            candidate = 0.5 * (a + b)
        if q > 0:
            a = max(a, x)
        else:
            b = min(b, x)
        if candidate == x:
            break
        x = candidate
    return (x, lo, hi, abs(singularity.kernel_value(k, x)), "bisection+newton")


def reference_leading_term(n, k, m):
    # Reference estimate: the leading term from the reference root, with
    # every log assembled here rather than in the shared helper.
    rho = reference_root(k)[0]
    qprime = singularity.kernel_derivative(k, rho)
    log_p = k * m * math.log(rho) + (m + 1) * math.log1p(-rho)
    log_value = (
        singularity._log_binomial(n, m)
        + math.log(2.0)
        + log_p
        - (m + 1) * math.log(rho * -qprime)
        + singularity._log_decay(n, k, rho)
    )
    return math.exp(log_value) if log_value > -745.0 else 0.0


def reference_expected_sizes(n, m):
    # Reference sum: one full estimate per k from k = 1, the stop rule
    # rescanning max(terms).
    terms = []
    past_peak = math.log2(max(n, 2)) + 4
    for k in range(1, n // m + 1):
        value = singularity.prob_multiplicity_singularity(n, k, m)
        terms.append(value)
        if k > past_peak and value < 1e-16 * max(terms):
            break
    return math.fsum(terms)


class TestDominantRoot:
    def test_k1_closed_form(self):
        golden_conjugate = (math.sqrt(5) - 1) / 2
        root = singularity.solve_dominant_root(1)
        assert root.method == "bisection+newton"
        assert abs(root.value - golden_conjugate) < 1e-14
        assert abs(root.bracket_lo - 1 / 1.75) < 1e-15
        assert abs(root.bracket_hi - 0.75) < 1e-15

    def test_k2_against_bisection(self):
        root = singularity.solve_dominant_root(2)
        assert abs(root.value - bisect_root(2)) < 1e-9
        assert 0.5333333333 < root.value < 0.625

    @pytest.mark.parametrize("k", range(1, 41))
    def test_bracket_and_residual(self, k):
        root = singularity.solve_dominant_root(k)
        assert root.bracket_lo < root.value < root.bracket_hi
        assert root.residual <= 1e-12
        assert root.method == "bisection+newton"

    @pytest.mark.parametrize("k", range(1, 301))
    def test_newton_lands_on_the_bisection_double(self, k):
        # k <= NEWTON_MAX_K is the whole Newton domain: the walk must stop
        # on the bisection's pair of doubles for every one of them.
        root = singularity.solve_dominant_root(k)
        fields = (root.value, root.bracket_lo, root.bracket_hi, root.residual, root.method)
        assert fields == reference_root(k)

    def test_float_root_is_the_dominant_root_value(self):
        for k in range(1, 301):
            assert singularity._root(k) == singularity.solve_dominant_root(k).value, k

    def test_float_root_keeps_the_residual_check(self, monkeypatch, capsys):
        # The leading-term routes take the float root; a residual above the
        # tolerance must still stop them, and the CLI with exit code 3.
        from compana import cli

        monkeypatch.setattr(singularity, "_RESIDUAL_TOL", 0.0)
        with pytest.raises(singularity.NumericalInstabilityError):
            singularity.expected_sizes_with_multiplicity_singularity(10**5, 1)
        with pytest.raises(singularity.NumericalInstabilityError):
            singularity.prob_multiplicity_singularity(10**5, 14, 1)
        argv = ["prob", "--n", "1e5", "--k", "14", "--m", "1", "--route", "singularity"]
        assert cli.main(argv) == cli.EXIT_NUMERICAL == 3
        assert capsys.readouterr().err.startswith("numerical instability: kernel residual ")

    def test_k50_series_expansion(self):
        root = singularity.solve_dominant_root(50)
        assert root.method == "series-expansion"
        assert root.value == 0.5 + 2.0**-52
        assert root.bracket_lo < root.value < root.bracket_hi

    @pytest.mark.parametrize("k", range(3, 31))
    def test_expansion_quality(self, k):
        root = singularity.solve_dominant_root(k)
        assert abs(root.value - (0.5 + 2.0 ** -(k + 2))) <= 4.0 * k / 2.0 ** (2 * k)


class TestWindingNumber:
    @pytest.mark.parametrize("k", range(1, 21))
    def test_exactly_one_zero_in_disk(self, k):
        assert count_roots_in_unit_disk(k) == 1

    def test_refinement_budget_error(self):
        with pytest.raises(singularity.NumericalInstabilityError):
            count_roots_in_unit_disk(3, samples=2, max_doublings=1)


def geometric_bounds(n, k):
    return tuple(math.exp(v) for v in log_geometric_bounds(n, k))


class TestGeometricBounds:
    def test_k1_n1_values(self):
        lower, mid, upper = geometric_bounds(1, 1)
        assert lower == pytest.approx(math.exp(-0.5), rel=1e-15)
        assert upper == pytest.approx(math.exp(-0.125), rel=1e-15)
        assert mid == pytest.approx(1.0 / (math.sqrt(5) - 1), rel=1e-12)

    @pytest.mark.parametrize("n", [10, 10**3, 10**6])
    @pytest.mark.parametrize("k", range(1, 31))
    def test_strict_ordering_grid(self, n, k):
        log_lower, log_mid, log_upper = log_geometric_bounds(n, k)
        assert log_lower < log_mid < log_upper
        lower, mid, upper = geometric_bounds(n, k)
        if lower > 0.0:  # fully representable in double precision
            assert lower < mid < upper
        else:  # partial underflow can only flatten, never reorder
            assert lower <= mid <= upper

    def test_huge_n_stays_ordered(self):
        lower, mid, upper = geometric_bounds(10**6, 20)
        assert 0.0 < lower < mid < upper < 1.0


class TestLeadingTermApproximation:
    def test_large_n_matches_exact_series(self):
        approx = singularity.prob_multiplicity_singularity(2000, 5, 2)
        exact = float(series.prob_multiplicity(2000, 5, 2))
        assert abs(approx - exact) / exact <= 0.01

    def test_m0_case(self):
        approx = singularity.prob_multiplicity_singularity(500, 1, 0)
        exact = float(series.prob_multiplicity(500, 1, 0))
        assert abs(approx - exact) / exact <= 0.02

    def test_small_n_right_order(self):
        approx = singularity.prob_multiplicity_singularity(5, 1, 1)
        assert 0.0 < approx < 1.0
        assert 0.1 < approx / (5 / 16) < 10.0

    def test_error_decreases_along_doubling_n(self):
        errors = []
        for n in (100, 200, 400, 800, 1600):
            exact = float(series.prob_multiplicity(n, 3, 1))
            approx = singularity.prob_multiplicity_singularity(n, 3, 1)
            errors.append(abs(approx - exact) / exact)
        for earlier, later in zip(errors, errors[1:]):
            assert later <= 2.0 * earlier
        assert errors[-1] < errors[0]

    @pytest.mark.parametrize(
        "n,m,tol",
        [(n, m, 1e-14) for n in (10**8, 10**9) for m in (1, 2, 3)]
        + [(10**9, 1001, 1e-11), (10**9, 10**9, 1e-11)],
    )
    def test_log_binomial_against_mpmath(self, n, m, tol):
        # The lgamma difference was off by 7.6e-7 at n = 1e9, m = 1; past
        # min(n, m) = 1000, where it is used again, it cancels far less.
        with mpmath.workdps(40):
            exact = mpmath.log(mpmath.binomial(n + m, m))
            rel = abs((singularity._log_binomial(n, m) - exact) / exact)
        assert rel <= tol

    @pytest.mark.parametrize("n", [10**5, 10**7, 10**9])
    def test_decay_term_against_mpmath(self, n):
        # log (2 rho)^(-n), taken from the double rho - 1/2, was off by
        # 4.4e-12 relative at k = 14, 1.4e-8 at k = 30 and wholly from k = 52
        # on; the whole estimate carries that error times the log.
        m = 1
        for k in range(1, 61):
            rho = singularity.solve_dominant_root(k).value
            log_decay = singularity._log_decay(n, k, rho)
            value = singularity.prob_multiplicity_singularity(n, k, m)
            with mpmath.workdps(40):
                z = mpmath.findroot(
                    lambda z: 1 - 2 * z + z**k * (1 - z), mpmath.mpf(0.5) + mpmath.mpf(2) ** (-k - 2)
                )
                exact_log = -n * mpmath.log(2 * z)
                assert abs((log_decay - exact_log) / exact_log) <= 1e-13, k
                qprime = -2 + k * z ** (k - 1) - (k + 1) * z**k
                exact = (n + 1) * 2 * z**k * (1 - z) ** 2 / (z * qprime) ** 2 * mpmath.exp(exact_log)
                if exact > 1e-300:
                    assert abs(value - exact) / exact <= 1e-13 + 1e-15 * abs(log_decay), k

    def test_expected_sizes_close_to_exact(self):
        value = singularity.expected_sizes_with_multiplicity_singularity(800, 1)
        exact = float(series.expected_sizes_with_multiplicity(800, 1))
        assert abs(value - exact) / exact < 0.05


class TestBitForBit:
    """The leading-term sum and the single estimate return the same doubles
    as the reference loop over k and the reference root."""

    @pytest.mark.parametrize("m", range(1, 5))
    def test_sum_small_n(self, m):
        for n in range(1, 301):
            assert singularity.expected_sizes_with_multiplicity_singularity(n, m) == \
                reference_expected_sizes(n, m), n

    def test_sum_log_uniform_n(self):
        rng = random.Random(12)
        for _ in range(200):
            n, m = int(10 ** rng.uniform(0, 15)), rng.randint(1, 6)
            assert singularity.expected_sizes_with_multiplicity_singularity(n, m) == \
                reference_expected_sizes(n, m), (n, m)

    def test_sum_huge_n(self):
        n = 10**300
        value = singularity.expected_sizes_with_multiplicity_singularity(n, 1)
        assert value == reference_expected_sizes(n, 1)
        assert 1.0 < value < 2.0

    @pytest.mark.parametrize("n,m", [(10**6, 300), (10**9, 10**4), (10**12, 2000), (20000, 5000)])
    def test_sum_large_m(self, n, m):
        # A large log C(n+m, m) moves the first term that does not underflow.
        assert singularity.expected_sizes_with_multiplicity_singularity(n, m) == \
            reference_expected_sizes(n, m)

    @pytest.mark.parametrize("n,m", [(1, 2), (3, 4), (5, 6)])
    def test_sum_empty_when_m_exceeds_n(self, n, m):
        assert singularity.expected_sizes_with_multiplicity_singularity(n, m) == 0.0
        assert reference_expected_sizes(n, m) == 0.0

    def test_single_estimate(self):
        # k * m > n, and k > 1074, where 2^-(k+2) underflows and rho is 1/2.
        for n in (1, 7, 100, 10**6, 10**15, 10**300):
            for k in (1, 2, 3, 4, 17, 40, 41, 52, 60, 1074, 1075, 1200):
                for m in (0, 1, 2, 5):
                    value = singularity.prob_multiplicity_singularity(n, k, m)
                    assert value == reference_leading_term(n, k, m), (n, k, m)
