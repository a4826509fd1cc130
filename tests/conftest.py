"""Shared oracles and checks for the test suite.

The enumeration oracles are deliberately brute force: tests compare the fast
library routes against these independently coded baselines.  The numerical
checks (the winding count, the decay sandwich, the fluctuation's extremes)
serve acceptance criteria that no library route needs.
"""

from __future__ import annotations

import math
from collections import Counter
from fractions import Fraction
from functools import lru_cache
from itertools import product

import numpy as np

from compana import asymptotics, singularity


def bits_to_composition(n: int, bits) -> tuple[int, ...]:
    """Decode a cut pattern into a composition of ``n``.

    Bit ``i`` (0-based index ``i``, unit cells 1..n) set means a part
    boundary after cell ``i+1``.  The map is a bijection between the
    ``2**(n-1)`` bit patterns and the compositions of ``n``.
    """
    if len(bits) != n - 1:
        raise ValueError(f"expected {n - 1} boundary bits, got {len(bits)}")
    parts = []
    run = 1
    for b in bits:
        if b:
            parts.append(run)
            run = 1
        else:
            run += 1
    parts.append(run)
    return tuple(parts)


def brute_force_compositions(n: int) -> list[tuple[int, ...]]:
    """All compositions of n, built from cut patterns without the library."""
    return [bits_to_composition(n, bits) for bits in product((0, 1), repeat=n - 1)]


def multiplicity_profile(parts) -> Counter:
    """Map each part size to the number of parts with that size."""
    if not parts:
        raise ValueError("a composition has at least one part")
    return Counter(parts)


@lru_cache(maxsize=None)
def multiplicity_census(n: int) -> dict[tuple[int, int], int]:
    """(k, multiplicity) -> number of compositions of n realizing it,
    for every k = 1..n and multiplicity = 0..n."""
    census: Counter = Counter()
    for parts in brute_force_compositions(n):
        profile = multiplicity_profile(parts)
        for k in range(1, n + 1):
            census[(k, profile.get(k, 0))] += 1
    return dict(census)


@lru_cache(maxsize=None)
def event_probability_by_enumeration(n: int, m: int) -> Fraction:
    total = Fraction(0)
    for parts in brute_force_compositions(n):
        profile = multiplicity_profile(parts)
        hits = sum(1 for v in profile.values() if v == m)
        total += Fraction(hits, len(profile))
    return total / 2 ** (n - 1)


def count_roots_in_unit_disk(k: int, samples: int = 4096, max_doublings: int = 8) -> int:
    """Number of kernel zeros with |z| < 1, by integrating the winding of
    Q(e^(i theta)) around the origin.

    The sample count doubles until two successive winding integers agree;
    a persistently non-integer winding raises NumericalInstabilityError.
    """
    previous = None
    n = samples
    for _ in range(max_doublings):
        theta = np.linspace(0.0, 2.0 * np.pi, n, endpoint=False)
        w = singularity.kernel_value(k, np.exp(1j * theta))
        if np.any(w == 0):
            raise singularity.NumericalInstabilityError("kernel zero on the unit circle sample")
        steps = np.angle(np.roll(w, -1) / w)
        total = float(np.sum(steps)) / (2.0 * np.pi)
        winding = round(total)
        if abs(total - winding) < 0.25 and np.max(np.abs(steps)) < 2.5:
            if previous == winding:
                return winding
            previous = winding
        else:
            previous = None
        n *= 2
    raise singularity.NumericalInstabilityError(
        f"winding number for k={k} did not stabilize at {n // 2} samples"
    )


def log_geometric_bounds(n: int, k: int) -> tuple[float, float, float]:
    """Natural logs of the geometric sandwich around the decay factor
    (2 rho)^(-n): (-n/2^k, -n log(2 rho), -n/2^(k+2)), with log(2 rho)
    evaluated as log1p(2 (rho - 1/2)) so that it keeps its precision near
    rho = 1/2."""
    rho = singularity.solve_dominant_root(k).value
    return -n / 2.0**k, -n * math.log1p(2.0 * (rho - 0.5)), -n / 2.0 ** (k + 2)


def fluctuation_extremes(m: int = 1, grid: int = 4096) -> float:
    """max |F| over a uniform grid of one period."""
    return max(abs(asymptotics.fluctuation(i / grid, m)) for i in range(grid))


# The sixteen compositions of 5, as displayed in any introduction to the
# subject; used as a frozen ground truth for the enumerator.
COMPOSITIONS_OF_FIVE = frozenset(
    {
        (5,),
        (4, 1),
        (1, 4),
        (3, 2),
        (2, 3),
        (3, 1, 1),
        (1, 3, 1),
        (1, 1, 3),
        (2, 2, 1),
        (2, 1, 2),
        (1, 2, 2),
        (2, 1, 1, 1),
        (1, 2, 1, 1),
        (1, 1, 2, 1),
        (1, 1, 1, 2),
        (1, 1, 1, 1, 1),
    }
)
