import cmath
import math

import mpmath
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from compana import asymptotics as asym
from conftest import fluctuation_extremes

mpmath.mp.dps = 40

# |Gamma(1 + 2 pi i p / log 2)|^2 = p ALPHA / sinh(p ALPHA), by reflection.
ALPHA = 2.0 * math.pi**2 / math.log(2.0)


def reference_gamma(z: complex) -> complex:
    return complex(mpmath.gamma(mpmath.mpc(z.real, z.imag)))


def harmonic_amplitude(m: int, p: int) -> tuple[float, float]:
    """(amplitude, phase) of the p-th fluctuation harmonic: the modulus
    2 |Gamma(m + 2 pi i p / log 2)| / m! and the argument of that gamma
    value."""
    gamma_value = asym.complex_gamma(complex(m, 2.0 * math.pi * p / math.log(2.0)))
    return 2.0 * abs(gamma_value) / math.factorial(m), cmath.phase(gamma_value)


def direct_sum(n: float, m: int) -> float:
    return asym.harmonic_sum_result(n, m).direct


def plain_harmonic_sum(n: float, m: int, k_max: int = 400) -> float:
    """Independent oracle: brute ordered summation, no windowing/log tricks."""
    terms = [2.0 ** (-k * m) * math.exp(-n / 2.0**k) for k in range(1, k_max + 1)]
    return n**m / math.factorial(m) * math.fsum(sorted(terms, reverse=True))


class TestComplexGamma:
    def test_factorials(self):
        assert asym.complex_gamma(1) == pytest.approx(1.0, rel=1e-14)
        assert asym.complex_gamma(5) == pytest.approx(24.0, rel=1e-13)

    def test_poles_rejected(self):
        for z in (0, -1, -2, -7):
            with pytest.raises(ValueError):
                asym.complex_gamma(z)

    def test_against_mpmath_on_usage_heights(self):
        # Arguments the package actually evaluates: m + i 2 pi p / log 2.
        for m in (1, 2, 3, 5):
            for p in range(1, 6):
                z = complex(m, 2.0 * math.pi * p / math.log(2.0))
                ref = reference_gamma(z)
                assert abs(asym.complex_gamma(z) - ref) / abs(ref) < 1e-13

    def test_against_mpmath_across_strip(self):
        # At |Im z| = 200 the phase of t^(z+1/2) alone carries ~2.5e-13 of
        # double rounding (scipy's gamma shows the same), so the strip-wide
        # gate sits slightly above the interior one.
        for re in (0.5, 1.0, 2.5, 6.0, 10.0):
            for im in (-200.0, -45.0, -1.0, 0.5, 9.0, 45.0, 120.0, 200.0):
                z = complex(re, im)
                ref = reference_gamma(z)
                assert abs(asym.complex_gamma(z) - ref) / abs(ref) < 5e-13

    def test_recurrence_identity_random_strip(self):
        rng_points = []
        seed = 12345
        for i in range(100):
            seed = (1103515245 * seed + 12345) % (1 << 31)
            re = 0.5 + 9.5 * (seed / (1 << 31))
            seed = (1103515245 * seed + 12345) % (1 << 31)
            im = -200.0 + 400.0 * (seed / (1 << 31))
            rng_points.append(complex(re, im))
        for z in rng_points:
            lhs = asym.complex_gamma(z + 1)
            rhs = z * asym.complex_gamma(z)
            assert abs(lhs - rhs) / abs(lhs) < 1e-12

    @pytest.mark.parametrize("p", [1, 2])
    def test_reflection_modulus_identity(self, p):
        y = 2.0 * math.pi * p / math.log(2.0)
        value = abs(asym.complex_gamma(complex(1.0, y))) ** 2
        assert value == pytest.approx(math.pi * y / math.sinh(math.pi * y), rel=1e-10)

    def test_reflection_modulus_identity_unit_height(self):
        value = abs(asym.complex_gamma(complex(1.0, 1.0))) ** 2
        assert value == pytest.approx(math.pi / math.sinh(math.pi), rel=1e-10)


class TestHarmonicSumDirect:
    def test_power_of_two_near_inverse_log2(self):
        value = direct_sum(2.0**10, 1)
        assert abs(value - 1 / math.log(2)) < 1e-4
        assert value > 0

    def test_small_n_against_plain_oracle(self):
        assert direct_sum(4.0, 1) == pytest.approx(
            plain_harmonic_sum(4.0, 1), rel=1e-13
        )

    @pytest.mark.parametrize("n,m", [(1e3, 1), (1e6, 3), (1e9, 2), (37.0, 2)])
    def test_against_plain_oracle(self, n, m):
        assert direct_sum(n, m) == pytest.approx(
            plain_harmonic_sum(n, m), rel=1e-12
        )

    def test_truncation_invariance(self, monkeypatch):
        tight = direct_sum(1e6, 3)
        monkeypatch.setattr(asym, "_DIRECT_CUTOFF", 1e-40)
        wide = direct_sum(1e6, 3)
        assert abs(tight - wide) / tight < 1e-15

    def test_window_metadata(self):
        result = asym.harmonic_sum_result(1e6, 1)
        k_lo, k_hi = result.k_lo, result.k_hi
        assert 1 <= k_lo < k_hi
        assert k_lo <= round(math.log2(1e6)) <= k_hi

    def test_domain(self):
        with pytest.raises(ValueError):
            direct_sum(1.0, 1)
        with pytest.raises(ValueError):
            direct_sum(100.0, 0)


class TestHarmonicSumResidues:
    @pytest.mark.parametrize("n", [1e3, 1e4, 1e6, 1e9])
    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_matches_direct_sum(self, n, m):
        direct = direct_sum(n, m)
        residue = asym.harmonic_sum_residues(n, m, p_max=5)
        assert abs(direct - residue) / direct < 1e-8

    def test_zero_harmonics_gives_constant(self):
        for m in (1, 2, 4):
            assert asym.harmonic_sum_residues(1e5, m, p_max=0) == pytest.approx(
                1.0 / (m * math.log(2)), rel=1e-14
            )

    def test_power_of_two_inputs_share_value(self):
        values = {asym.harmonic_sum_residues(2.0**t, 1, p_max=5) for t in (8, 12, 20, 30)}
        assert max(values) - min(values) < 1e-14

    @pytest.mark.parametrize("n", [37, 1e3, 1e6, 123456789, 1e9, 3e11, 1e12, 1e100])
    def test_default_harmonics_exact_for_small_m(self, n):
        # Five harmonics give the double that 30 give up to m = 18; from
        # m ~ 28 on they do not (1e-4 relative at m = 100).
        for m in range(1, 19):
            assert asym.harmonic_sum_residues(n, m) == asym.harmonic_sum_residues(n, m, 30)

    def test_no_harmonic_past_the_cap_moves_the_sum(self):
        # The mellin --p-max cap is far past the last harmonic that counts.
        for m in (1, 40, 104):
            assert asym.harmonic_sum_residues(1e6, m, 13) == asym.harmonic_sum_residues(
                1e6, m, asym.MAX_HARMONICS
            )

    def test_result_bundle(self):
        result = asym.harmonic_sum_result(1e6, 2, p_max=5)
        assert result.direct == pytest.approx(result.residue, rel=1e-10)
        assert result.k_lo >= 1
        assert result.direct > 0


class TestFluctuation:
    def test_periodicity_on_dyadic_grid(self):
        for i in range(8):
            x = i / 8.0
            assert asym.fluctuation(x + 1.0) == asym.fluctuation(x)
            assert asym.fluctuation(x + 3.0) == asym.fluctuation(x)

    def test_zero_mean(self):
        grid = 4096
        mean = math.fsum(asym.fluctuation(i / grid) for i in range(grid)) / grid
        assert abs(mean) < 1e-12

    def test_amplitude_window_m1(self):
        peak = fluctuation_extremes(1, grid=4096)
        assert 9.0e-6 <= peak <= 1.1e-5

    def test_higher_m_amplitude_tracks_gamma_modulus(self):
        # With the residue-series gamma argument m + i theta the first
        # harmonic's modulus grows like theta^(m - 1/2), so the m = 2
        # fluctuation is larger than the m = 1 one, not 1/m! smaller.
        peak1 = fluctuation_extremes(1, grid=512)
        peak2 = fluctuation_extremes(2, grid=512)
        amp2, _ = harmonic_amplitude(2, 1)
        assert peak1 < peak2
        assert peak2 == pytest.approx(amp2, rel=1e-3)

    @pytest.mark.parametrize("m", [40, 60, 100])
    def test_large_m_matches_many_harmonics(self, m):
        # Five harmonics were off here (the residue sum by 3e-13, 4e-10 and
        # 1e-4 relative); 5 + m // 10 give the double that 100 give.
        for n in (37, 1e6, 123456789, 3e11, 1e100, 1e300):
            x = math.log2(n) % 1.0
            many = asym._harmonics(x, m, asym.MAX_HARMONICS, residue=False)
            assert asym.fluctuation(x, m) == many
            assert asym.predict_event_probability(n, m) == (1.0 / m + many) / math.log(n)

    # Near a peak of the first harmonic at m = 4 the second harmonic adds
    # 1.2e-6 of the first amplitude, so a flat 1e-6 margin is false there.
    @settings(max_examples=60, deadline=None)
    @example(x=-1.991890339176508, m=4)
    @given(st.floats(-10, 10, allow_nan=False), st.integers(1, 4))
    def test_bounded_by_first_amplitude(self, x, m):
        # Triangle inequality over the summed harmonics: |F| is at most the
        # first amplitude plus the higher ones, and those are a 1e-5 sliver.
        amplitudes = [
            harmonic_amplitude(m, p)[0]
            for p in range(1, asym.DEFAULT_HARMONICS + 1)
        ]
        first, higher = amplitudes[0], math.fsum(amplitudes[1:])
        assert higher < 1e-5 * first
        assert abs(asym.fluctuation(x, m)) <= (first + higher) * (1 + 1e-12)


class TestFirstHarmonicAmplitude:
    def test_leading_amplitude_value(self):
        amplitude, _ = harmonic_amplitude(1, 1)
        assert 9.0e-6 <= amplitude <= 1.1e-5
        assert amplitude == pytest.approx(2.0 * math.sqrt(ALPHA / math.sinh(ALPHA)), rel=1e-12)

    def test_second_harmonic_is_negligible(self):
        amp1, _ = harmonic_amplitude(1, 1)
        amp2, _ = harmonic_amplitude(1, 2)
        assert amp2 < 1e-6 * amp1

    @pytest.mark.parametrize("p", [1, 2, 3])
    def test_sinh_form_equals_gamma_modulus(self, p):
        # |Gamma(1 + i t)|^2 = pi t / sinh(pi t); with t = 2 pi p / log 2 the
        # amplitude is 2 (x / sinh x)^(1/2) at x = p * ALPHA.
        x = p * ALPHA
        sinh_form = 2.0 * math.sqrt(2.0 * x) * math.exp(-0.5 * x) / math.sqrt(-math.expm1(-2.0 * x))
        amplitude, _ = harmonic_amplitude(1, p)
        assert amplitude == pytest.approx(sinh_form, rel=1e-12)

    def test_phases_match_gamma_argument(self):
        for m, p in [(1, 1), (2, 1), (3, 2)]:
            _, phase = harmonic_amplitude(m, p)
            theta = 2.0 * math.pi * p / math.log(2.0)
            assert phase == pytest.approx(
                cmath.phase(reference_gamma(complex(m, theta))), abs=1e-10
            )

    def test_params_bundle_strictly_decreasing(self):
        assert ALPHA == pytest.approx(28.4777, abs=5e-5)
        amplitudes = [harmonic_amplitude(1, p)[0] for p in range(1, 6)]
        for earlier, later in zip(amplitudes, amplitudes[1:]):
            assert later < earlier


class TestPrediction:
    def test_million_scale_value(self):
        value = asym.predict_event_probability(1e6, 1)
        assert value == pytest.approx(1.0 / math.log(1e6), rel=1e-4)

    @pytest.mark.parametrize("n", [5.0, 1e3, 1e6, 1e9 + 7])
    @pytest.mark.parametrize("m", [1, 2, 3, 4])
    def test_scaled_value_near_inverse_m(self, n, m):
        value = asym.predict_event_probability(n, m)
        # The wobble around 1 is m * F, bounded by m times the leading
        # harmonic amplitude (which grows with m under the residue form).
        amplitude, _ = harmonic_amplitude(m, 1)
        assert abs(value * m * math.log(n) - 1.0) <= 1.001 * m * amplitude
        if m == 1:
            assert abs(value * math.log(n) - 1.0) <= 2e-5

    def test_power_of_two_scale_invariance(self):
        scaled = {
            asym.predict_event_probability(2.0**t, 1) * math.log(2.0**t) for t in (10, 20, 26)
        }
        assert max(scaled) - min(scaled) < 1e-13

    def test_domain(self):
        with pytest.raises(ValueError):
            asym.predict_event_probability(1.0, 1)

    @pytest.mark.parametrize(
        # (p_max, last m that fits): m! overflows from 171 on, the Lanczos
        # Gamma from 142 at p_max = 5; at p_max = 100 it returned nan for
        # m = 105..113 before raising from 114 on.
        "p_max,m_max", [(0, 170), (5, 141), (100, 104)],
    )
    def test_gamma_overflow_names_m_and_p_max(self, p_max, m_max):
        assert math.isfinite(asym.harmonic_sum_residues(1e6, m_max, p_max))
        for m in (m_max + 1, m_max + 10, 10**9):
            message = f"m={m} with p_max={p_max} is out of range: the limit law's Gamma factor"
            with pytest.raises(OverflowError, match=message):
                asym.harmonic_sum_residues(1e6, m, p_max)

    def test_limit_law_overflow_names_its_harmonic_count(self):
        # The limit law sums 5 + m // 10 harmonics, 18 at m = 130..139, whose
        # Lanczos Gamma overflows from m = 133 (five harmonics from 142).
        for route in (
            lambda m: asym.fluctuation(0.3, m),
            lambda m: asym.predict_event_probability(1e6, m),
        ):
            assert math.isfinite(route(132))
            for m in (133, 142, 10**9):
                message = f"m={m} with p_max={5 + m // 10} is out of range: the limit law's Gamma"
                with pytest.raises(OverflowError, match=message):
                    route(m)
