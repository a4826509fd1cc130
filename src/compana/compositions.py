"""Uniform random compositions of an integer and their multiplicity profiles.

A composition of ``n`` is an ordered tuple of positive integers summing to
``n``; there are ``2**(n-1)`` of them.  Its multiplicity profile records how
many parts each size has.

The module provides exact rational event probabilities and expected sizes
for ``n`` up to the fixed cap ``ENUMERATION_MAX_N = 25``, read from one
table that a walk over the partitions of ``n`` fills (about 5 ms at
n = 25), and seeded Monte Carlo estimators that remain
practical for very large ``n`` (a profile of a uniform composition of
``n = 10**6`` is sampled in a few dozen vectorized draws of part-size counts
rather than by materializing ~n/2 parts).  Each draw runs over the trials
that still need one, and only over those: a trial with one part left, or
whose parts left all have the current size, has one more size and is
finished without drawing, so the generator's stream, and with it every
seeded result, is the one a scan over the whole batch would give.

Only the Monte Carlo estimators use numpy and a thread pool, and they import
them when first called.  Enumeration, like the other three routes, runs on
Python ints and floats, so a command that does not sample (``exact``,
``prob``, ``predict``, ``rho``, ``mellin``, ``compare --trials 0``) starts
without loading numpy.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass
from fractions import Fraction
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    import numpy as np

ENUMERATION_MAX_N = 25

_MC_BATCH = 1 << 16

# numpy's hypergeometric draw takes fewer than 10**9 good and 10**9 bad
# items.  The profile sampler draws with at most n - 1 good items (a profile
# of all ones takes the exact branch) and at most n - 2 bad ones, so every
# n up to this bound is safe.
MC_MAX_N = 10**9


class EnumerationCapError(ValueError):
    """Raised when an exhaustive enumeration would exceed ENUMERATION_MAX_N."""


@dataclass(frozen=True)
class EventEstimate:
    """Monte Carlo estimate of an event probability.

    ``value`` is the sample mean of the per-trial statistic, ``stderr`` its
    standard error (sample standard deviation over sqrt(trials)).
    """

    value: float
    stderr: float

    def __post_init__(self) -> None:
        if not (0.0 <= self.value <= 1.0):
            raise ValueError(f"estimate {self.value} outside [0, 1]")
        if self.stderr < 0.0:
            raise ValueError("stderr must be nonnegative")


def _weight_table(n: int) -> list[list[int]]:
    """W[c][d]: the sizes that occur c times, summed over the compositions
    of ``n`` with d distinct sizes (c <= n, d <= isqrt(2n)).

    Walks the partitions of ``n`` (297 at n = 17, against 2**16
    compositions): part sizes in increasing order, each with a multiplicity
    c >= 1.  A partition with multiplicities (c_k) and p = sum c_k parts is
    the sorted form of p! / prod c_k! compositions; each c_k adds them.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if n > ENUMERATION_MAX_N:
        raise EnumerationCapError(f"n={n} exceeds the enumeration cap of {ENUMERATION_MAX_N}")
    factorials = [math.factorial(i) for i in range(n + 1)]
    # d distinct sizes need n >= 1 + 2 + ... + d, so d <= isqrt(2n).
    table = [[0] * (math.isqrt(2 * n) + 1) for _ in range(n + 1)]
    mults: list[int] = []

    def walk(rest: int, smallest: int, parts: int, orderings: int) -> None:
        # orderings = product of c! over the sizes chosen so far.
        if rest == 0:
            count = factorials[parts] // orderings
            for c in mults:
                table[c][len(mults)] += count
            return
        for k in range(smallest, rest + 1):
            for c in range(1, rest // k + 1):
                mults.append(c)
                walk(rest - k * c, k + 1, parts + c, orderings * factorials[c])
                mults.pop()

    walk(n, 1, 0, 1)
    return table


def _table_row(n: int, m: int) -> list[int]:
    """Row m of the weight table of ``n``; no size occurs more than n times."""
    if n < 1 or m < 1:
        raise ValueError("n and m must be >= 1")
    table = _weight_table(n)
    return table[m] if m <= n else []


def _event_probability(row: list[int], n: int) -> Fraction:
    return sum((Fraction(w, d) for d, w in enumerate(row) if w), Fraction(0)) / (1 << (n - 1))


def exact_event_probability(n: int, m: int) -> Fraction:
    """Exact probability that a uniform part size of a uniform composition
    of ``n`` has multiplicity ``m``.

    Averages |{sizes with multiplicity m}| / |{distinct sizes}| over all
    2**(n-1) compositions, in exact rational arithmetic.
    """
    return _event_probability(_table_row(n, m), n)


def exact_event_probabilities(n: int) -> dict[int, Fraction]:
    """exact_event_probability for every m = 1..n at which it is nonzero,
    in increasing m, from a single walk over the partitions."""
    table = _weight_table(n)
    return {m: p for m in range(1, n + 1) if (p := _event_probability(table[m], n))}


def exact_expected_sizes_with_multiplicity(n: int, m: int) -> Fraction:
    """Exact expected number of part sizes with multiplicity ``m``, averaged
    over all compositions of ``n`` (enumeration route)."""
    return Fraction(sum(_table_row(n, m)), 1 << (n - 1))


def worker_rng(seed: int, worker: int) -> np.random.Generator:
    """Independent, reproducible substream for a given (seed, worker) pair."""
    import numpy as np
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(worker,)))


def _check_sampling_args(n: int, trials: int, workers: int) -> None:
    if n > MC_MAX_N:
        raise ValueError(
            f"n={n} exceeds the Monte Carlo limit of {MC_MAX_N} (numpy's "
            "hypergeometric draw takes fewer than 10**9 items of each kind)"
        )
    if trials < 1:
        raise ValueError("trials must be >= 1")
    if workers < 1:
        raise ValueError("workers must be >= 1")


def _split_trials(trials: int, workers: int) -> list[int]:
    base, extra = divmod(trials, workers)
    return [base + (1 if w < extra else 0) for w in range(workers)]


def _profile_stats_batch(
    n: int, size: int, rng: np.random.Generator, m: int | None
) -> tuple[np.ndarray, np.ndarray | None]:
    """Distinct-size counts (and, if m given, multiplicity-m size counts)
    for ``size`` independent uniform compositions of ``n``.

    Works on counts only.  The part count p is 1 + Binomial(n-1, 1/2); given
    p remaining parts that are all >= k with shifted total M = S - (k-1)p,
    the number of parts equal to k is hypergeometric with p marked items
    among M-1, sample size p-1 (all parts equal k exactly when M == p).
    Scanning k = 1, 2, ... therefore costs about log2(n) vectorized draws
    per batch instead of O(n) bits per trial.

    The scan keeps arrays for the live trials only, in batch order.  A trial
    never draws again once it has one part left, or once M == p
    (its parts left all equal k): either way one more size remains, of
    multiplicity p, so the trial is written out and dropped.  A scan over the
    whole batch draws for the same trials (those with p >= 2 and M > p), so
    each draw gets the same (good, bad, sample) triple in the same order,
    and the generator's stream and the counts do not depend on the dropping.
    """
    import numpy as np
    if n > 1:
        p = 1 + rng.binomial(n - 1, 0.5, size=size).astype(np.int64)
    else:
        p = np.ones(size, dtype=np.int64)
    distinct = np.empty(size, dtype=np.int64)
    hits = np.empty(size, dtype=np.int64) if m is not None else None
    # Per live trial: its index, the draw's bad count M - 1 - p, and the
    # sizes seen so far (at most isqrt(2n) distinct sizes, so 32 bits hold
    # every count).  A drawn c is at most p - 1, so p stays >= 1.
    trial = np.arange(size, dtype=np.int32)
    bad = n - 1 - p
    seen = np.zeros(size, dtype=np.int32)
    seen_m = np.zeros(size, dtype=np.int32) if m is not None else None
    k = 1
    while True:
        done = (p <= 1) | (bad < 0)  # bad == -1 exactly when M == p
        out = np.flatnonzero(done)
        if len(out):
            index = trial[out]
            distinct[index] = seen[out] + 1
            if hits is not None:
                hits[index] = seen_m[out] + (p[out] == m)
            if len(out) == len(p):
                return distinct, hits
            keep = np.flatnonzero(~done)
            trial, p, bad, seen = trial[keep], p[keep], bad[keep], seen[keep]
            if seen_m is not None:
                seen_m = seen_m[keep]
        if k > n:
            raise RuntimeError("profile scan exceeded the maximum part size")
        c = rng.hypergeometric(p, bad, p - 1)
        seen += c > 0
        if seen_m is not None:
            seen_m += c == m
        p -= c
        bad -= p  # M' = S - kc - k(p - c) = M - p, so bad' = bad - p'
        k += 1


def _mc_event_worker(args: tuple[int, int, int, int, int]) -> tuple[float, float]:
    import numpy as np
    n, m, trials, seed, worker = args
    rng = worker_rng(seed, worker)
    total = 0.0
    total_sq = 0.0
    for done in range(0, trials, _MC_BATCH):
        size = min(trials - done, _MC_BATCH)
        distinct, hits = _profile_stats_batch(n, size, rng, m)
        x = hits / distinct
        total += float(np.sum(x))
        total_sq += float(np.sum(x * x))
    return total, total_sq


def _distinct_hist_worker(args: tuple[int, int, int, int]) -> np.ndarray:
    import numpy as np
    n, trials, seed, worker = args
    rng = worker_rng(seed, worker)
    # d distinct sizes need n >= 1 + 2 + ... + d, so d <= isqrt(2n).
    hist = np.zeros(math.isqrt(2 * n) + 1, dtype=np.int64)
    for done in range(0, trials, _MC_BATCH):
        size = min(trials - done, _MC_BATCH)
        distinct, _ = _profile_stats_batch(n, size, rng, None)
        counts = np.bincount(distinct)
        hist[: len(counts)] += counts
    return hist


def _run_workers(worker_fn, tasks: list, workers: int) -> list:
    """Run worker tasks, on threads when asked; results in task order.

    The threads overlap because numpy's hypergeometric draws release the
    GIL; each task draws from its own substream, so the results equal a
    serial run's.
    """
    if workers <= 1 or len(tasks) <= 1:
        return [worker_fn(t) for t in tasks]
    from concurrent.futures import ThreadPoolExecutor

    import numpy  # noqa: F401  (its first import runs here, not in a worker thread)

    with ThreadPoolExecutor(max_workers=min(workers, os.cpu_count() or 1)) as pool:
        return list(pool.map(worker_fn, tasks))


def mc_event_probability(
    n: int, m: int, trials: int, seed: int, workers: int = 1
) -> EventEstimate:
    """Monte Carlo estimate of the multiplicity-m event probability.

    Unbiased: averages |{sizes with multiplicity m}| / |{distinct sizes}|
    over independent uniform compositions.  Deterministic for a fixed
    (seed, trials, workers) triple; worker ``w`` consumes the substream
    derived from (seed, w).
    """
    if n < 1 or m < 1:
        raise ValueError("n and m must be >= 1")
    _check_sampling_args(n, trials, workers)
    tasks = [
        (n, m, t, seed, w) for w, t in enumerate(_split_trials(trials, workers)) if t > 0
    ]
    parts = _run_workers(_mc_event_worker, tasks, workers)
    total = sum(p[0] for p in parts)
    total_sq = sum(p[1] for p in parts)
    value = total / trials
    if trials > 1:
        var = max(0.0, (total_sq - total * total / trials) / (trials - 1))
        stderr = math.sqrt(var / trials)
    else:
        stderr = 0.0
    return EventEstimate(value=value, stderr=stderr)


def distinct_size_histogram(
    n: int, trials: int, seed: int, workers: int = 1
) -> np.ndarray:
    """Histogram of |{distinct part sizes}| over ``trials`` uniform
    compositions of ``n``; entry d counts trials with exactly d sizes.

    Deterministic for fixed (seed, trials, workers).
    """
    import numpy as np
    if n < 1:
        raise ValueError("n must be >= 1")
    _check_sampling_args(n, trials, workers)
    tasks = [
        (n, t, seed, w) for w, t in enumerate(_split_trials(trials, workers)) if t > 0
    ]
    hists = _run_workers(_distinct_hist_worker, tasks, workers)
    return np.trim_zeros(sum(hists), "b")
