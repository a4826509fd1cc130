"""End-to-end acceptance gates.

Each test is one release criterion, pinned at its agreed tolerance, and
prints a single PASS line (visible under ``pytest -s``) once its assertions
hold.  Several run acceptance-scale workloads; the whole module stays within
a few minutes.
"""

import math

import pytest

from compana import asymptotics as asym
from compana import cli
from compana import compositions as comps
from compana import series, singularity
from conftest import (
    count_roots_in_unit_disk,
    fluctuation_extremes,
    log_geometric_bounds,
    multiplicity_census,
)


def report(label: str, detail: str = "") -> None:
    suffix = f"  ({detail})" if detail else ""
    print(f"PASS  {label}{suffix}")


def run_cli(capsys, *argv) -> tuple[int, str]:
    code = cli.main(list(argv))
    return code, capsys.readouterr().out


def test_criterion_01_exact_table_for_n5(capsys):
    code, out = run_cli(capsys, "exact", "--n", "5")
    assert code == 0
    assert out.strip().splitlines()[1:] == [
        "1,5/8,0.625",
        "2,3/16,0.1875",
        "3,1/8,0.125",
        "5,1/16,0.0625",
    ]
    for m in (4, 6, 7, 100):
        assert comps.exact_event_probability(5, m) == 0
    report("exact n=5 table", "5/8, 3/16, 1/8, 1/16 and zero elsewhere")


def test_criterion_02_series_equals_enumeration_through_16():
    checked = 0
    for n in range(1, 17):
        census = multiplicity_census(n)
        for k in range(1, n + 1):
            for m in range(0, n + 1):
                assert series.count_with_multiplicity(n, k, m) == census.get((k, m), 0), (
                    n, k, m,
                )
                checked += 1
    report("series coefficients equal enumeration counts", f"{checked} (n,k,m) cells, n <= 16")


def test_criterion_03_normalization_through_16():
    for n in range(1, 17):
        for k in range(1, n + 1):
            total = sum(series.prob_multiplicity(n, k, m) for m in range(n + 1))
            assert total == 1, (n, k)
    report("multiplicity law sums to one", "all n <= 16, every k")


def test_criterion_04_root_bracket_winding_and_sandwich():
    for k in range(1, 41):
        root = singularity.solve_dominant_root(k)
        assert root.bracket_lo < root.value < root.bracket_hi
        assert root.residual <= 1e-12
    for k in range(1, 21):
        assert count_roots_in_unit_disk(k) == 1
    for n in (10, 10**3, 10**6):
        for k in range(1, 31):
            lo, mid, hi = log_geometric_bounds(n, k)
            assert lo < mid < hi
    report("dominant root bracketed, unique in disk, decay sandwiched",
           "k <= 40; winding k <= 20; grid n in {10,1e3,1e6}")


def test_criterion_05_leading_term_accuracy():
    exact_a = float(series.prob_multiplicity(2000, 5, 2))
    approx_a = singularity.prob_multiplicity_singularity(2000, 5, 2)
    rel_a = abs(approx_a - exact_a) / exact_a
    assert rel_a <= 0.01

    exact_b = float(series.prob_multiplicity(500, 1, 0))
    approx_b = singularity.prob_multiplicity_singularity(500, 1, 0)
    rel_b = abs(approx_b - exact_b) / exact_b
    assert rel_b <= 0.02

    errors = []
    for n in (100, 200, 400, 800, 1600):
        exact = float(series.prob_multiplicity(n, 3, 1))
        approx = singularity.prob_multiplicity_singularity(n, 3, 1)
        errors.append(abs(approx - exact) / exact)
    for earlier, later in zip(errors, errors[1:]):
        assert later <= 2.0 * earlier
    assert errors[-1] < errors[0]
    report("leading-term estimate accuracy",
           f"rel err {rel_a:.2e} at (2000,5,2), {rel_b:.2e} at (500,1,0), shrinking in n")


def test_criterion_06_harmonic_sum_routes_agree():
    worst = 0.0
    for n in (1e3, 1e4, 1e6, 1e9):
        for m in (1, 2, 3):
            direct = asym.harmonic_sum_result(n, m).direct
            residue = asym.harmonic_sum_residues(n, m, p_max=5)
            worst = max(worst, abs(direct - residue) / direct)
    assert worst <= 1e-8
    report("direct and residue harmonic sums agree", f"worst rel diff {worst:.2e}")


def test_criterion_07_fluctuation_amplitude():
    peak = fluctuation_extremes(1, grid=4096)
    assert 9.0e-6 <= peak <= 1.1e-5
    report("fluctuation amplitude", f"max|F| = {peak:.3e} for m=1")


def test_criterion_08_gamma_identities():
    seed = 987654321
    worst_rec = 0.0
    for _ in range(100):
        seed = (1103515245 * seed + 12345) % (1 << 31)
        re = 0.5 + 9.5 * seed / (1 << 31)
        seed = (1103515245 * seed + 12345) % (1 << 31)
        im = -200.0 + 400.0 * seed / (1 << 31)
        z = complex(re, im)
        lhs = asym.complex_gamma(z + 1)
        rhs = z * asym.complex_gamma(z)
        worst_rec = max(worst_rec, abs(lhs - rhs) / abs(lhs))
    assert worst_rec <= 1e-10

    worst_ref = 0.0
    for y in (1.0, 2 * math.pi / math.log(2), 4 * math.pi / math.log(2)):
        value = abs(asym.complex_gamma(complex(1.0, y))) ** 2
        target = math.pi * y / math.sinh(math.pi * y)
        worst_ref = max(worst_ref, abs(value - target) / target)
    assert worst_ref <= 1e-10
    report("gamma recurrence and modulus identities",
           f"worst rel {max(worst_rec, worst_ref):.2e}")


@pytest.mark.slow
def test_criterion_09_expected_size_convergence():
    exact_1 = float(series.expected_sizes_with_multiplicity(5000, 1))
    approx_1 = asym.harmonic_sum_result(5000.0, 1).direct
    rel_1 = abs(exact_1 - approx_1) / exact_1
    assert rel_1 <= 0.05

    exact_2 = float(series.expected_sizes_with_multiplicity(5000, 2))
    approx_2 = asym.harmonic_sum_result(5000.0, 2).direct
    rel_2 = abs(exact_2 - approx_2) / exact_2
    assert rel_2 <= 0.08
    report("expected multiplicity-class size converges",
           f"rel err {rel_1:.2e} (m=1), {rel_2:.2e} (m=2) at n=5000")


@pytest.mark.slow
def test_criterion_10_limit_law_against_monte_carlo():
    n, trials, seed = 10**6, 10**6, 20240
    log_n = math.log(n)
    target = 1.0 + asym.fluctuation(math.log2(n) % 1.0, 1)

    estimate = comps.mc_event_probability(n, 1, trials, seed)
    scaled = estimate.value * log_n
    tolerance = max(0.15 * target, 5.0 * estimate.stderr * log_n)
    assert abs(scaled - target) <= tolerance

    scaled_by_m = [scaled]
    for m in (2, 3):
        scaled_by_m.append(comps.mc_event_probability(n, m, trials, seed).value * log_n)
    assert scaled_by_m[0] > scaled_by_m[1] > scaled_by_m[2]
    report("limit law vs Monte Carlo at n=1e6",
           f"scaled estimates {scaled_by_m[0]:.4f} > {scaled_by_m[1]:.4f} > {scaled_by_m[2]:.4f}")


@pytest.mark.slow
def test_criterion_11_distinct_size_concentration():
    n, trials, seed = 10**6, 100_000, 4242
    lo, hi = cli.distinct_window(n)
    bound = float(series.window_lower_bound(n, lo, hi))
    assert bound >= 0.6

    hist = comps.distinct_size_histogram(n, trials, seed)
    p_hat = float(hist[lo : hi + 1].sum()) / trials
    stderr = math.sqrt(max(p_hat * (1 - p_hat), 1e-12) / trials)
    assert p_hat >= bound - 5.0 * stderr
    report("distinct-size concentration at n=1e6",
           f"window [{lo},{hi}], empirical {p_hat:.5f} >= bound {bound:.5f}")


def test_criterion_12_sampling_determinism(capsys, tmp_path):
    commands = [
        ("sample", "--n", "1000", "--m", "1", "--trials", "20000", "--seed", "9"),
        ("sample", "--n", "1000", "--m", "1", "--trials", "20000", "--seed", "9",
         "--workers", "3"),
        ("distinct", "--n", "1000", "--trials", "20000", "--seed", "9"),
        ("distinct", "--n", "1000", "--trials", "20000", "--seed", "9", "--workers", "4"),
        ("compare", "--n", "12,64", "--m", "1", "--trials", "10000", "--seed", "9",
         "--workers", "2"),
    ]
    for argv in commands:
        code_a, first = run_cli(capsys, *argv)
        code_b, second = run_cli(capsys, *argv)
        assert code_a == code_b == 0
        assert first == second, argv
    report("seeded sampling runs are byte-identical", f"{len(commands)} command variants")
