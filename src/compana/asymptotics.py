"""Limit behaviour of the multiplicity statistics.

The expected number of part sizes with multiplicity ``m`` in a uniform
composition of ``n`` approaches

    n^m / m! * sum_k 2^(-k m) exp(-n / 2^k),

a harmonic sum whose value equals a constant 1/(m log 2) plus a tiny
1-periodic oscillation in log2(n).  This module evaluates the sum directly,
through its residue (Fourier) closed form with complex-gamma coefficients,
and exposes the resulting prediction for the probability that a random part
size has multiplicity m: (1/m + F({log2 n})) / log n, where the fluctuation
F has amplitude of order 1e-5.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

LN2 = math.log(2.0)

DEFAULT_HARMONICS = 5
MAX_HARMONICS = 100  # mellin --p-max; no harmonic past p = 12 moves the sum
_DIRECT_CUTOFF = 1e-20

# Lanczos approximation, g = 607/128 with 15 terms (Godfrey's set); relative
# error stays below ~1e-13 over the half-plane Re z >= 1/2 at the imaginary
# heights used here.
_LANCZOS_G = 4.7421875
_LANCZOS_COEFFS = (
    0.99999999999999709182,
    57.156235665862923517,
    -59.597960355475491248,
    14.136097974741747174,
    -0.49191381609762019978,
    0.33994649984811888699e-4,
    0.46523628927048575665e-4,
    -0.98374475304879564677e-4,
    0.15808870322491248884e-3,
    -0.21026444172410488319e-3,
    0.21743961811521264320e-3,
    -0.16431810653676389022e-3,
    0.84418223983852743293e-4,
    -0.26190838401581408670e-4,
    0.36899182659531622704e-5,
)


@dataclass(frozen=True)
class HarmonicSumResult:
    """Scaled harmonic sum by both routes, with the direct sum's k-window."""

    direct: float
    residue: float
    k_lo: int
    k_hi: int


def complex_gamma(z: complex) -> complex:
    """Gamma function for complex arguments (Lanczos form).

    Raises ValueError at the poles (non-positive real integers).
    """
    z = complex(z)
    if z.imag == 0.0 and z.real <= 0.0 and z.real == int(z.real):
        raise ValueError(f"gamma pole at z={z.real}")
    if z.real < 0.5:
        # Reflection keeps the series argument in the convergent half-plane.
        return math.pi / (cmath.sin(math.pi * z) * complex_gamma(1.0 - z))
    z -= 1.0
    acc = complex(_LANCZOS_COEFFS[0])
    for i, coeff in enumerate(_LANCZOS_COEFFS[1:], start=1):
        acc += coeff / (z + i)
    t = z + _LANCZOS_G + 0.5
    return math.sqrt(2.0 * math.pi) * t ** (z + 0.5) * cmath.exp(-t) * acc


def _harmonics(x: float, m: int, p_max: int, residue: bool) -> float:
    """(c + 2 Re sum_{p=1..p_max} e^(-2 pi i p x) Gamma(m + 2 pi i p / log 2)) / d,
    c = (m-1)! and d = m! log 2 for the residue series, c = 0 and d = m! for
    the fluctuation, added term by term onto c so that the residue series
    keeps its rounding.  Where a Gamma factor overflows a double (m! from
    m = 171 on, checked before it is computed; the Lanczos form earlier, at
    times as nan) it raises one OverflowError naming m and p_max.
    """
    overflow = OverflowError(
        f"m={m} with p_max={p_max} is out of range: "
        "the limit law's Gamma factor overflows a double"
    )
    if m > 170:
        raise overflow
    total = float(math.factorial(m - 1)) if residue else 0.0
    try:
        for p in range(1, p_max + 1):
            phase = cmath.exp(-2j * math.pi * p * x)
            gamma = complex_gamma(complex(m, 2.0 * math.pi * p / LN2))
            total += 2.0 * (phase * gamma).real
    except OverflowError:
        raise overflow from None
    if not math.isfinite(total):
        raise overflow
    return total / (math.factorial(m) * LN2) if residue else total / math.factorial(m)


def _direct_sum(n: float, m: int) -> tuple[float, int, int]:
    """n^m/m! * sum_{k>=1} 2^(-k m) exp(-n/2^k) by direct summation, with
    the k-window it summed.

    Terms are gathered outward from the peak near k = log2(n/m) until they
    fall below _DIRECT_CUTOFF times the largest one, then summed by
    math.fsum, correctly rounded in any order.  The scaling happens in log
    space so n up to 1e9 (and beyond) is safe.
    """
    n, m = _validate_sum_args(n, m)

    def log_term(k: int) -> float:
        return -k * m * LN2 - n / 2.0**k

    floor = math.log(_DIRECT_CUTOFF)
    k_lo = k_hi = max(1, round(math.log2(n / m)))
    peak = log_term(k_lo)
    log_terms = [peak]
    while k_lo > 1 and (term := log_term(k_lo - 1)) > peak + floor:
        k_lo -= 1
        log_terms.append(term)
        peak = max(peak, term)
    while (term := log_term(k_hi + 1)) > peak + floor:
        k_hi += 1
        log_terms.append(term)
        peak = max(peak, term)
    scaled = math.fsum(math.exp(lt - peak) for lt in log_terms)
    value = math.exp(m * math.log(n) - math.lgamma(m + 1) + peak + math.log(scaled))
    return value, k_lo, k_hi


def _validate_sum_args(n: float, m: int) -> tuple[float, int]:
    n = float(n)
    if n < 2:
        raise ValueError("n must be >= 2")
    if m < 1:
        raise ValueError("m must be >= 1")
    return n, m


def harmonic_sum_residues(n: float, m: int, p_max: int = DEFAULT_HARMONICS) -> float:
    """The same scaled sum by its residue closed form:

        1/(m! log 2) * [ (m-1)! + 2 Re sum_{p=1..p_max}
                          e^(-2 pi i p {log2 n}) Gamma(m + 2 pi i p / log 2) ].

    The oscillatory phase is taken from the fractional part of log2(n), so
    large n loses no precision to the integer part.  p_max = 5 equals 30
    harmonics to the bit up to m ~ 27, but is 3e-13 off at m = 40, 1e-4 at 100.
    """
    n, m = _validate_sum_args(n, m)
    if p_max < 0:
        raise ValueError("p_max must be >= 0")
    return _harmonics(math.log2(n) % 1.0, m, p_max, residue=True)


def harmonic_sum_result(n: float, m: int, p_max: int = DEFAULT_HARMONICS) -> HarmonicSumResult:
    """Both harmonic-sum routes, with the direct sum's k-window."""
    direct, k_lo, k_hi = _direct_sum(n, m)
    return HarmonicSumResult(
        direct=direct, residue=harmonic_sum_residues(n, m, p_max), k_lo=k_lo, k_hi=k_hi
    )


def fluctuation(x: float, m: int = 1) -> float:
    """Mean-zero 1-periodic fluctuation F(x) = (2/m!) Re sum_{p>=1}
    e^(-2 pi i p x) Gamma(m + 2 pi i p / log 2), to 5 + m // 10 terms.

    Harmonic p shrinks like e^(-14.2 p) only while m is small against p, so
    the count grows with m: on 401 n from 10^0.4 to 10^300 it gives the
    double that 100 harmonics give for every m <= 100, and 30 give up to
    m = 124 (where 30 overflow).  The input is reduced mod 1.  The gamma
    argument uses m on the real axis, matching the residue series term for
    term.
    """
    if m < 1:
        raise ValueError("m must be >= 1")
    return _harmonics(float(x) % 1.0, m, DEFAULT_HARMONICS + m // 10, residue=False)


def limit_law(n: float, m: int) -> tuple[float, float, float, float]:
    """The limit law at (n, m) as (prediction, 1/m + F, {log2 n}, F), with
    F = F({log2 n}).  The prediction for the probability that a uniformly
    chosen part size of a uniform composition of n has multiplicity m is

        (1/m + F({log2 n})) / log n   (natural log).
    """
    n = float(n)
    if n <= 1:
        raise ValueError("n must exceed 1")
    frac = math.log2(n) % 1.0
    wobble = fluctuation(frac, m)
    scaled = 1.0 / m + wobble
    return scaled / math.log(n), scaled, frac, wobble


def predict_event_probability(n: float, m: int) -> float:
    """The prediction of limit_law(n, m): (1/m + F({log2 n})) / log n."""
    return limit_law(n, m)[0]
