"""Seeded query lists, one per workload.

Each list is built from fixed strata with seeded values inside them, so two
seeds give different inputs of nearly the same cost.  The program sees only
the argv tuples returned here.
"""

from __future__ import annotations

import random

Query = tuple[str, ...]

# (k, m) cells for ``prob --route both``; the denominator degree
# (k+1)(m+1) runs from 2 to 60.
PROB_GRID = (
    (1, 0), (2, 0), (4, 0), (8, 0), (13, 0), (29, 0), (59, 0),
    (1, 1), (3, 1), (6, 1), (10, 1), (14, 1), (29, 1),
    (2, 2), (5, 2), (9, 2), (13, 2), (19, 2),
    (3, 3), (7, 3), (11, 3), (14, 3),
    (4, 4), (8, 4), (11, 4),
    (5, 5), (9, 5),
)
# Past about 14 300 the exact rational has more than 4300 decimal digits and
# ``prob`` exits 2 on Python's integer-to-string limit.  The seeded grid
# stays below; this one fixed query sits past the recurrence/powmod switch
# at 20 000 and counts as failed on every round until that is mended.
PROB_MAX_N = 13_000
PROB_FAILING: Query = ("prob", "--n", "24000", "--k", "14", "--m", "3", "--route", "both")


def _log_strata(rng: random.Random, lo: float, hi: float, count: int) -> list[int]:
    """One log-uniform draw in each of ``count`` equal slices of [lo, hi]."""
    ratio = hi / lo
    return [round(lo * ratio ** ((i + rng.random()) / count)) for i in range(count)]


def _near(rng: random.Random, anchor: int, share: float = 0.03) -> int:
    return round(anchor * (1.0 + share * (2.0 * rng.random() - 1.0)))


def _q(*parts: object) -> Query:
    return tuple(str(p) for p in parts)


def exact_coeff(rng: random.Random) -> list[Query]:
    queries = []
    for k, m in PROB_GRID:
        # n >= 8k(m+1) keeps the leading term in its O(1/n) regime;
        # n <= 500 * 2^(k+1) keeps the probability above double underflow.
        # Three anchors at the centres of three log-uniform slices.
        lo = max(32, 8 * k * (m + 1))
        hi = min(PROB_MAX_N, 500 * 2 ** (k + 1))
        for share in (1 / 6, 1 / 2, 5 / 6):
            n = _near(rng, round(lo * (hi / lo) ** share))
            queries.append(_q("prob", "--n", n, "--k", k, "--m", m, "--route", "both"))
    for _ in range(6):
        n = rng.randint(10, 16)
        queries.append(_q("prob", "--n", n, "--k", rng.randint(1, 4), "--m", rng.randint(0, 3), "--route", "both"))
    queries.append(PROB_FAILING)
    for m in (1, 2):
        queries.append(_q("compare", "--n", rng.randint(14, 16), "--m", m, "--trials", 0))
    queries.append(_q("compare", "--n", f"{_near(rng, 40)},{_near(rng, 80)},{_near(rng, 160)}", "--m", rng.randint(1, 2), "--trials", 0))
    for anchor, m in ((300, rng.randint(1, 2)), (600, 1), (1000, 2), (1700, 1)):
        queries.append(_q("compare", "--n", _near(rng, anchor), "--m", m, "--trials", 0))
    queries.append(_q("exact", "--n", 5))
    for n in (12, 13):
        queries.append(_q("exact", "--n", n))
    for n in range(12, 18):
        queries.append(_q("exact", "--n", n, "--m", rng.randint(1, 4)))
    return queries


def monte_carlo(rng: random.Random) -> list[Query]:
    queries = []
    # The limit law is checked with criterion 10's 15%; its own bias is
    # below 7% only from n = 1e2 (m = 1), 1e3 (m = 2) and 1e4 (m = 3).
    for i, n in enumerate(_log_strata(rng, 1e2, 1e9, 96)):
        m = rng.randint(1, 3 if n >= 10_000 else 2 if n >= 1000 else 1)
        workers = 2 if i % 4 == 3 else 1
        queries.append(_q("sample", "--n", n, "--m", m, "--trials", 10_000, "--seed", rng.randrange(1 << 31), "--workers", workers))
    for _ in range(8):
        queries.append(_q("sample", "--n", rng.randint(8, 16), "--m", rng.randint(1, 3), "--trials", 10_000, "--seed", rng.randrange(1 << 31)))
    for i, n in enumerate(_log_strata(rng, 2e4, 1e9, 8)):
        workers = 2 if i % 4 == 3 else 1
        queries.append(_q("compare", "--n", n, "--m", rng.randint(1, 2), "--trials", 10_000, "--seed", rng.randrange(1 << 31), "--workers", workers))
    return queries


def distinct_window(rng: random.Random) -> list[Query]:
    queries = []
    for _ in range(30):
        queries.append(_q("distinct", "--n", rng.randint(4, 16), "--trials", 2000, "--seed", rng.randrange(1 << 31), "--format", "json"))
    # Near n = 1e3 the sampler's 20 000 trials cost more than the bound.
    # All serial: a pooled query's latency also waits on the second CPU.
    for n in _log_strata(rng, 1e3, 1.4e3, 70):
        queries.append(_q("distinct", "--n", n, "--trials", 20_000, "--seed", rng.randrange(1 << 31), "--format", "json"))
    # One on each side of the recurrence/powmod switch at 20 000; near the
    # top the window bound's ~25 exact extractions take seconds.
    for anchor in (17_000, 40_000):
        queries.append(_q("distinct", "--n", _near(rng, anchor), "--trials", 5000, "--seed", rng.randrange(1 << 31), "--format", "json"))
    return queries


def limit_law(rng: random.Random) -> list[Query]:
    queries = []
    for n in _log_strata(rng, 1e2, 1e12, 500):
        queries.append(_q("predict", "--n", n, "--m", rng.randint(1, 4)))
    for n in _log_strata(rng, 1e2, 1e12, 400):
        queries.append(_q("mellin", "--n", n, "--m", rng.randint(1, 4)))
    for k in range(1, 61):
        for precision in range(13, 18):
            queries.append(_q("rho", "--k", k, "--precision", precision))
    for n in _log_strata(rng, 1e3, 1e9, 500):
        k = max(1, n.bit_length() - 1 + rng.randint(-3, 3))
        queries.append(_q("prob", "--n", n, "--k", k, "--m", rng.randint(0, 3), "--route", "singularity"))
    for n in _log_strata(rng, 2e4, 1e12, 300):
        queries.append(_q("compare", "--n", n, "--m", rng.randint(1, 2), "--trials", 0))
    return queries


WORKLOADS = {
    "exact-coeff": exact_coeff,
    "monte-carlo": monte_carlo,
    "distinct-window": distinct_window,
    "limit-law": limit_law,
}


def build(name: str, seed: int) -> list[Query]:
    """The query list of one workload for one seed, in a seeded order."""
    rng = random.Random(f"{name}/{seed}")
    queries = WORKLOADS[name](rng)
    rng.shuffle(queries)
    return queries
