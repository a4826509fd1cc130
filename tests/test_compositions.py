import math
import time
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from compana import compositions as comps
from conftest import (
    COMPOSITIONS_OF_FIVE,
    bits_to_composition,
    brute_force_compositions,
    event_probability_by_enumeration,
    multiplicity_census,
    multiplicity_profile,
)


class TestBitsToComposition:
    def test_no_cuts(self):
        assert bits_to_composition(5, [0, 0, 0, 0]) == (5,)

    def test_all_cuts(self):
        assert bits_to_composition(5, [1, 1, 1, 1]) == (1, 1, 1, 1, 1)

    def test_mixed(self):
        assert bits_to_composition(4, [1, 0, 1]) == (1, 2, 1)

    def test_single_cell(self):
        assert bits_to_composition(1, []) == (1,)

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            bits_to_composition(5, [1, 0])

    @pytest.mark.parametrize("n", range(1, 13))
    def test_bijection(self, n):
        seen = set()
        for mask in range(1 << (n - 1)):
            bits = [(mask >> i) & 1 for i in range(n - 1)]
            seen.add(bits_to_composition(n, bits))
        assert len(seen) == 1 << (n - 1)
        assert all(sum(c) == n for c in seen)

    @given(st.integers(1, 12), st.data())
    def test_parts_positive_and_sum(self, n, data):
        bits = data.draw(st.lists(st.booleans(), min_size=n - 1, max_size=n - 1))
        parts = bits_to_composition(n, bits)
        assert sum(parts) == n
        assert all(p >= 1 for p in parts)


class TestEnumeration:
    """The brute-force oracle lists every composition once; the library's
    exact routes refuse n above the cap."""

    EXACT_ROUTES = (
        lambda n: comps.exact_event_probability(n, 1),
        comps.exact_event_probabilities,
        lambda n: comps.exact_expected_sizes_with_multiplicity(n, 1),
    )

    def test_n5_matches_display_list(self):
        assert set(brute_force_compositions(5)) == COMPOSITIONS_OF_FIVE

    def test_n1(self):
        assert brute_force_compositions(1) == [(1,)]

    def test_n3(self):
        assert set(brute_force_compositions(3)) == {(3,), (2, 1), (1, 2), (1, 1, 1)}
        assert len(brute_force_compositions(3)) == 4

    @pytest.mark.parametrize("n", range(1, 13))
    def test_counts_and_uniqueness(self, n):
        items = brute_force_compositions(n)
        assert len(items) == 1 << (n - 1)
        assert len(set(items)) == len(items)

    def test_cap_refusal(self):
        for route in self.EXACT_ROUTES:
            with pytest.raises(comps.EnumerationCapError, match="cap"):
                route(comps.ENUMERATION_MAX_N + 1)

    def test_cap_parameter(self):
        # The message states the cap.
        for route in self.EXACT_ROUTES:
            with pytest.raises(comps.EnumerationCapError) as info:
                route(comps.ENUMERATION_MAX_N + 1)
            assert f"enumeration cap of {comps.ENUMERATION_MAX_N}" in str(info.value)

    def test_cap_boundary(self):
        for route in self.EXACT_ROUTES:
            assert route(comps.ENUMERATION_MAX_N) is not None


class TestMultiplicityProfile:
    def test_three_ones_one_two(self):
        assert multiplicity_profile((1, 1, 1, 2)) == {1: 3, 2: 1}

    def test_single_part(self):
        assert multiplicity_profile((5,)) == {5: 1}

    def test_mixed(self):
        assert multiplicity_profile((2, 1, 2)) == {2: 2, 1: 1}

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            multiplicity_profile(())

    @pytest.mark.parametrize("n", range(1, 11))
    def test_profile_invariants(self, n):
        for parts in brute_force_compositions(n):
            profile = multiplicity_profile(parts)
            assert sum(k * v for k, v in profile.items()) == n
            assert sum(profile.values()) == len(parts)
            assert set(profile) == set(parts)


class TestExactEventProbability:
    def test_n5_table(self):
        assert comps.exact_event_probability(5, 1) == Fraction(5, 8)
        assert comps.exact_event_probability(5, 2) == Fraction(3, 16)
        assert comps.exact_event_probability(5, 3) == Fraction(1, 8)
        assert comps.exact_event_probability(5, 5) == Fraction(1, 16)
        assert comps.exact_event_probability(5, 4) == 0

    @pytest.mark.parametrize("n", range(1, 11))
    def test_total_probability_one(self, n):
        assert sum(comps.exact_event_probability(n, m) for m in range(1, n + 1)) == 1

    @pytest.mark.parametrize("n,m", [(6, 1), (7, 2), (8, 1), (9, 3)])
    def test_against_independent_enumeration(self, n, m):
        assert comps.exact_event_probability(n, m) == event_probability_by_enumeration(n, m)

    def test_expected_sizes_route(self):
        assert comps.exact_expected_sizes_with_multiplicity(5, 1) == Fraction(19, 16)
        assert comps.exact_expected_sizes_with_multiplicity(5, 5) == Fraction(1, 16)

    @pytest.mark.parametrize("n,m", [(6, 1), (8, 2), (9, 3)])
    def test_expected_sizes_against_census(self, n, m):
        census = multiplicity_census(n)
        expected = Fraction(sum(census.get((k, m), 0) for k in range(1, n + 1)), 1 << (n - 1))
        assert comps.exact_expected_sizes_with_multiplicity(n, m) == expected

    @pytest.mark.parametrize("n", [1, 2, 5, 11])
    def test_every_m_from_one_walk(self, n):
        each = {m: comps.exact_event_probability(n, m) for m in range(1, n + 1)}
        assert comps.exact_event_probabilities(n) == {m: p for m, p in each.items() if p}

    def test_every_m_respects_cap(self):
        with pytest.raises(comps.EnumerationCapError):
            comps.exact_event_probabilities(comps.ENUMERATION_MAX_N + 1)

    @pytest.mark.parametrize("n", range(1, 15))
    def test_census_against_brute_force(self, n):
        # W[c][d] sums, over the compositions with d distinct sizes, the
        # sizes that occur c times.
        expected = Counter()
        for parts in brute_force_compositions(n):
            profile = multiplicity_profile(parts)
            for c in profile.values():
                expected[(c, len(profile))] += 1
        table = comps._weight_table(n)
        cells = {(c, d): w for c, row in enumerate(table) for d, w in enumerate(row) if w}
        assert cells == expected
        every_m = comps.exact_event_probabilities(n)
        for m in range(1, n + 1):
            assert every_m.get(m, 0) == event_probability_by_enumeration(n, m)

    @pytest.mark.parametrize("n", range(1, comps.ENUMERATION_MAX_N + 1))
    def test_weight_table_counts_every_composition_once(self, n):
        # A composition with d distinct sizes adds 1 to column d per size.
        table = comps._weight_table(n)
        assert sum(Fraction(w, d) for row in table for d, w in enumerate(row) if w) == 1 << (n - 1)

    @pytest.mark.parametrize("n", [1, 2, 7, comps.ENUMERATION_MAX_N])
    def test_multiplicity_past_n_reads_zero(self, n):
        for m in (n + 1, 2 * n + 5):
            probability = comps.exact_event_probability(n, m)
            sizes = comps.exact_expected_sizes_with_multiplicity(n, m)
            assert (probability, sizes) == (0, 0)
            assert isinstance(probability, Fraction) and isinstance(sizes, Fraction)
            assert m not in comps.exact_event_probabilities(n)

    def test_multiplicity_past_n_still_checks_the_cap(self):
        n = comps.ENUMERATION_MAX_N + 1
        for route in (comps.exact_event_probability, comps.exact_expected_sizes_with_multiplicity):
            with pytest.raises(comps.EnumerationCapError):
                route(n, n + 1)

    def test_total_probability_one_at_cap(self):
        assert sum(comps.exact_event_probabilities(comps.ENUMERATION_MAX_N).values()) == 1


class TestSampling:
    def test_n1_always_trivial(self):
        distinct, hits = comps._profile_stats_batch(1, 100, comps.worker_rng(123, 0), 1)
        assert distinct.tolist() == hits.tolist() == [1] * 100

    def test_uniformity_chi_square_n6(self):
        # Identify each composition with its cut mask; uniform bits make all
        # 32 outcomes equiprobable.
        rng = comps.worker_rng(2024, 0)
        draws = 1_000_000
        bits = rng.integers(0, 2, size=(draws, 5))
        ids = bits @ (1 << np.arange(5))
        counts = np.bincount(ids, minlength=32)
        expected = draws / 32
        chi2 = float(((counts - expected) ** 2 / expected).sum())
        # 31 degrees of freedom; far tail threshold keeps false alarms ~1e-8
        assert chi2 < 90.0


class TestProfileSampler:
    """The count-based sampler must reproduce the exact enumeration law."""

    def test_joint_distribution_n7(self):
        n, m, trials = 7, 1, 200_000
        exact = Counter()
        for parts in brute_force_compositions(n):
            profile = Counter(parts)
            key = (len(profile), sum(1 for v in profile.values() if v == m))
            exact[key] += 1
        rng = comps.worker_rng(99, 0)
        distinct, hits = comps._profile_stats_batch(n, trials, rng, m)
        observed = Counter(zip(distinct.tolist(), hits.tolist()))
        assert set(observed) <= set(exact)
        for key, count in exact.items():
            p = count / 2 ** (n - 1)
            sigma = math.sqrt(p * (1 - p) / trials)
            assert abs(observed.get(key, 0) / trials - p) < 6 * sigma + 2 / trials

    def test_mean_distinct_sizes_n5(self):
        hist = comps.distinct_size_histogram(5, 100_000, seed=11)
        trials = hist.sum()
        mean = sum(d * c for d, c in enumerate(hist)) / trials
        var = sum(c * (d - mean) ** 2 for d, c in enumerate(hist)) / (trials - 1)
        stderr = math.sqrt(var / trials)
        assert abs(mean - 30 / 16) <= 5 * stderr

    @pytest.mark.parametrize("d", [1, 2, 3, 4])
    @pytest.mark.parametrize("workers", [1, 2])
    def test_histogram_reaches_the_most_distinct_sizes(self, d, workers):
        # n = 1 + 2 + ... + d is the smallest n with d distinct sizes, and
        # the d! orderings of (1, ..., d) are its only such compositions.
        n = d * (d + 1) // 2
        hist = comps.distinct_size_histogram(n, 4000, seed=3, workers=workers)
        assert len(hist) == d + 1
        p = math.factorial(d) / 2 ** (n - 1)
        assert abs(hist[d] / 4000 - p) < 6 * math.sqrt(p * (1 - p) / 4000) + 1 / 4000

    def test_large_n_runs(self):
        estimate = comps.mc_event_probability(10**6, 1, trials=2_000, seed=5)
        assert 0.0 < estimate.value < 1.0
        assert estimate.stderr > 0


def full_width_profile_stats(n, size, rng, m):
    """The reference scan: every k-step runs over the whole batch, finished
    trials included, and keeps the running total of each trial."""
    if n > 1:
        p = 1 + rng.binomial(n - 1, 0.5, size=size).astype(np.int64)
    else:
        p = np.ones(size, dtype=np.int64)
    remaining = np.full(size, n, dtype=np.int64)
    distinct = np.zeros(size, dtype=np.int64)
    hits = np.zeros(size, dtype=np.int64) if m is not None else None
    k = 1
    while p.max() > 0:
        shifted = remaining - (k - 1) * p
        c = np.zeros(size, dtype=np.int64)
        full = (shifted == p) & (p > 0)
        c[full] = p[full]
        hyp = ~full & (p > 1)
        if hyp.any():
            c[hyp] = rng.hypergeometric(p[hyp], shifted[hyp] - 1 - p[hyp], p[hyp] - 1)
        distinct += c > 0
        if hits is not None:
            hits += c == m
        remaining -= k * c
        p -= c
        k += 1
    return distinct, hits


class TestLiveTrialScan:
    """The live-trial scan draws what the full-width scan draws: equal counts
    and an equal generator state after every batch."""

    @staticmethod
    def assert_same_batch(n, size, m, seed):
        rngs = [np.random.default_rng(seed) for _ in range(2)]
        distinct, hits = comps._profile_stats_batch(n, size, rngs[0], m)
        ref_distinct, ref_hits = full_width_profile_stats(n, size, rngs[1], m)
        assert distinct.dtype == ref_distinct.dtype == np.int64
        assert distinct.tolist() == ref_distinct.tolist()
        if m is None:
            assert hits is None
        else:
            assert hits.dtype == np.int64
            assert hits.tolist() == ref_hits.tolist()
        assert rngs[0].bit_generator.state == rngs[1].bit_generator.state

    @pytest.mark.parametrize(
        "n", [1, 2, 3, 4, 5, 10, 16, 100, 1000, 1200, 17_000, 40_000, 10**6, 10**9]
    )
    def test_grid(self, n):
        for size in (1, 7, 2000):
            for m in (None, 1, 2, 3):
                self.assert_same_batch(n, size, m, seed=n * 7 + size + (m or 0))

    @settings(max_examples=40, deadline=None)
    @given(
        st.integers(1, 5000),
        st.integers(1, 3000),
        st.sampled_from([None, 1, 2, 3, 4, 5]),
        st.integers(0, 2**32 - 1),
    )
    def test_random_batches(self, n, size, m, seed):
        self.assert_same_batch(n, size, m, seed)

    @pytest.mark.parametrize("workers", [1, 2])
    def test_estimators_over_two_batches(self, monkeypatch, workers):
        # 70 000 trials take two batches of _MC_BATCH in one worker.
        trials = 70_000
        assert comps._MC_BATCH < trials <= 2 * comps._MC_BATCH
        runs = []
        for batch in (comps._profile_stats_batch, full_width_profile_stats):
            monkeypatch.setattr(comps, "_profile_stats_batch", batch)
            estimate = comps.mc_event_probability(1200, 2, trials, seed=21, workers=workers)
            hist = comps.distinct_size_histogram(1200, trials, seed=21, workers=workers)
            runs.append((estimate, hist.tolist()))
        assert runs[0] == runs[1]


class TestMonteCarloEstimator:
    def test_impossible_multiplicity_is_zero(self):
        estimate = comps.mc_event_probability(5, 7, trials=5_000, seed=1)
        assert estimate.value == 0.0
        assert estimate.stderr == 0.0

    def test_close_to_exact_n5(self):
        estimate = comps.mc_event_probability(5, 1, trials=200_000, seed=31337)
        assert abs(estimate.value - 0.625) <= 5 * estimate.stderr

    def test_close_to_exact_n20(self):
        exact = float(comps.exact_event_probability(20, 1))
        estimate = comps.mc_event_probability(20, 1, trials=100_000, seed=7)
        assert abs(estimate.value - exact) <= 5 * estimate.stderr

    def test_determinism_same_config(self):
        a = comps.mc_event_probability(50, 1, trials=20_000, seed=8, workers=1)
        b = comps.mc_event_probability(50, 1, trials=20_000, seed=8, workers=1)
        assert (a.value, a.stderr) == (b.value, b.stderr)

    def test_determinism_multiworker(self):
        a = comps.mc_event_probability(50, 1, trials=20_000, seed=8, workers=3)
        b = comps.mc_event_probability(50, 1, trials=20_000, seed=8, workers=3)
        assert (a.value, a.stderr) == (b.value, b.stderr)

    def test_stderr_shrinks_like_sqrt3(self):
        small = comps.mc_event_probability(12, 1, trials=30_000, seed=3)
        large = comps.mc_event_probability(12, 1, trials=90_000, seed=4)
        ratio = small.stderr / large.stderr
        assert abs(ratio - math.sqrt(3)) < 0.2 * math.sqrt(3)

    def test_validation(self):
        with pytest.raises(ValueError):
            comps.mc_event_probability(5, 1, trials=0, seed=1)
        with pytest.raises(ValueError):
            comps.mc_event_probability(5, 1, trials=10, seed=1, workers=0)

    def test_n_bound(self):
        for sampler in (
            lambda n: comps.mc_event_probability(n, 1, trials=10, seed=1),
            lambda n: comps.distinct_size_histogram(n, trials=10, seed=1),
        ):
            with pytest.raises(ValueError, match=str(comps.MC_MAX_N)):
                sampler(comps.MC_MAX_N + 1)
            assert sampler(comps.MC_MAX_N) is not None


class TestWorkerPool:
    """Pooled workers give what their tasks give when run one after another."""

    @staticmethod
    def serial(worker_fn, tasks, workers):
        return [worker_fn(t) for t in tasks]

    @pytest.mark.parametrize("workers", [2, 3])
    def test_pool_equals_serial_run(self, monkeypatch, workers):
        runs = []
        for run_workers in (comps._run_workers, self.serial):
            monkeypatch.setattr(comps, "_run_workers", run_workers)
            estimate = comps.mc_event_probability(10**6, 2, trials=3001, seed=17, workers=workers)
            hist = comps.distinct_size_histogram(10**6, trials=3001, seed=17, workers=workers)
            runs.append((estimate, hist.tolist()))
        assert runs[0] == runs[1]

    def test_results_in_task_order(self):
        # The first task finishes last.
        def task(delay):
            time.sleep(delay)
            return delay

        delays = [0.05, 0.0, 0.01, 0.0]
        assert comps._run_workers(task, delays, workers=3) == delays


@settings(max_examples=40, deadline=None)
@given(st.integers(2, 64), st.integers(0, 5))
def test_worker_substreams_differ(seed, worker):
    a = comps.worker_rng(seed, worker).integers(0, 2**32)
    b = comps.worker_rng(seed, worker + 1).integers(0, 2**32)
    c = comps.worker_rng(seed, worker).integers(0, 2**32)
    assert a == c
    assert a != b or worker > 3  # collisions astronomically unlikely
