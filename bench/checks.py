"""Per-subcommand checks of compana's printed answers.

``check(argv, stdout)`` raises ``CheckError`` when an answer disagrees with
the independent values in ``reference`` or breaks a property that must hold.
Floats are printed with 12 significant digits unless ``--precision`` says
otherwise, so a printed value is compared with its reference to 1e-11
relative.  No check compares against stored program output.
"""

from __future__ import annotations

import csv
import io
import json
import math
from fractions import Fraction

import reference as ref

PRINTED = 1e-11
DOUBLE = 2.0**-52


class CheckError(AssertionError):
    pass


def options(argv: list[str] | tuple[str, ...]) -> tuple[str, dict[str, str]]:
    """Subcommand and its ``--name value`` pairs."""
    return argv[0], dict(zip(argv[1::2], argv[2::2]))


def parse_csv(text: str) -> list[dict[str, str]]:
    rows = list(csv.DictReader(io.StringIO(text)))
    if not rows:
        raise CheckError("no rows")
    return rows


def num(row: dict[str, str], key: str) -> float | None:
    text = row.get(key)
    if text is None:
        raise CheckError(f"column {key!r} missing")
    return float(text) if text != "" else None


def need(row: dict[str, str], key: str) -> float:
    value = num(row, key)
    if value is None:
        raise CheckError(f"column {key!r} empty")
    return value


def expect(cond: bool, message: str) -> None:
    if not cond:
        raise CheckError(message)


def close(name: str, got: float | None, want: float, rel: float = PRINTED, abs_tol: float = 0.0) -> None:
    if got is None:
        raise CheckError(f"{name} missing, want {want!r}")
    if not abs(got - want) <= max(rel * abs(want), abs_tol):
        raise CheckError(f"{name} = {got!r}, want {want!r} (rel {rel:g}, abs {abs_tol:g})")


def _limit_law_scaled(name: str, value: float, stderr: float, n: int, m: int) -> None:
    """Criterion 10: value * log n against 1/m + F within 15% or 5 stderr."""
    target = 1.0 / m + ref.limit_law(n, m)[1]
    scale = math.log(n)
    tolerance = max(ref.LIMIT_LAW_SHARE * target, 5.0 * stderr * scale)
    expect(
        abs(value * scale - target) <= tolerance,
        f"{name} scaled {value * scale!r} vs limit law {target!r}, tolerance {tolerance!r}",
    )


def _harmonic(name: str, value: float, n: int, m: int) -> None:
    """Criterion 09: an expected number of sizes against the harmonic sum."""
    close(f"{name} vs harmonic sum", value, ref.harmonic_sum(n, m), rel=ref.HARMONIC_TOLERANCE[m])


def _singularity_tolerance(n: int, k: int, m: int) -> float | None:
    """Relative O(1/n) error allowed to the leading term, or None outside
    the regime n >= 8k(m+1) where the bound was calibrated."""
    if n < 8 * k * (m + 1):
        return None
    return 2.0 * (m + 1) ** 2 * (k + 1) / n


def check_exact(opts: dict[str, str], out: str) -> None:
    n = int(opts["--n"])
    rows = parse_csv(out)
    truth = ref.census(n)
    got = {int(r["m"]): Fraction(r["probability"]) for r in rows}
    for r in rows:
        close(f"decimal at m={r['m']}", need(r, "decimal"), float(Fraction(r["probability"])))
    if "--m" in opts:
        m = int(opts["--m"])
        expect(list(got) == [m], f"rows for m={list(got)}, asked m={m}")
        expect(got[m] == truth.event_probability(m), f"P(m={m}) = {got[m]}, want {truth.event_probability(m)}")
        return
    want = {m: truth.event_probability(m) for m in range(1, n + 1)}
    want = {m: p for m, p in want.items() if p}
    expect(sum(got.values()) == 1, f"probabilities sum to {sum(got.values())}")
    expect(got == want, f"table {got} differs from enumeration {want}")
    if n == 5:
        expect(
            list(got.values()) == [Fraction(5, 8), Fraction(3, 16), Fraction(1, 8), Fraction(1, 16)],
            f"n=5 table {got}",
        )


def check_prob(opts: dict[str, str], out: str) -> None:
    n, k, m = int(opts["--n"]), int(opts["--k"]), int(opts["--m"])
    route = opts.get("--route", "series")
    (row,) = parse_csv(out)
    expect((int(row["n"]), int(row["k"]), int(row["m"])) == (n, k, m), f"echo {row}")
    exact = None
    if route in ("series", "both"):
        p = Fraction(row["series_rational"])
        count = p * (1 << (n - 1))
        expect(count.denominator == 1 and 0 <= count <= 1 << (n - 1), f"{p} is not a count over 2^(n-1)")
        count = int(count)
        if n <= ref.BRUTE_MAX_N:
            expect(count == ref.census(n).count(k, m), f"count {count}, enumeration {ref.census(n).count(k, m)}")
        else:
            expect(count % ref.PRIME == ref.count_mod(n, k, m), "count differs from the modular coefficient")
        exact = float(p)
        close("series", num(row, "series"), exact)
    if route in ("singularity", "both"):
        sing = need(row, "singularity")
        close("singularity vs leading term", sing, ref.leading_term(n, k, m),
              rel=1e-9 + 8 * DOUBLE * n * math.log(n + 1))
        tolerance = _singularity_tolerance(n, k, m)
        if exact and tolerance is not None:
            close("singularity vs exact", sing, exact, rel=tolerance)
    if route == "both" and exact:
        # Both operands carry 12 printed digits, so the ratio is good to ~1e-11.
        close("rel_err_singularity_series", num(row, "rel_err_singularity_series"),
              abs(sing - exact) / exact, rel=1e-9, abs_tol=2e-11)


def check_predict(opts: dict[str, str], out: str) -> None:
    n, m = int(opts["--n"]), int(opts["--m"])
    (row,) = parse_csv(out)
    prediction, wobble = ref.limit_law(n, m)
    close("prediction", num(row, "prediction"), prediction)
    close("scaled_value", num(row, "scaled_value"), 1.0 / m + wobble)
    close("fluctuation", num(row, "fluctuation"), wobble, rel=1e-8, abs_tol=1e-15)
    frac = need(row, "frac_log2_n")
    gap = abs(frac - float(ref.frac_log2(n)))
    expect(min(gap, 1 - gap) <= 1e-11, f"frac_log2_n = {frac}")


def check_sample(opts: dict[str, str], out: str) -> None:
    n, m = int(opts["--n"]), int(opts["--m"])
    (row,) = parse_csv(out)
    expect(int(row["trials"]) == int(opts["--trials"]), "trials echo")
    expect(int(row["workers"]) == int(opts.get("--workers", "1")), "workers echo")
    mc, stderr = need(row, "mc"), need(row, "mc_stderr")
    expect(0.0 <= mc <= 1.0 and stderr >= 0.0, f"mc {mc}, stderr {stderr}")
    if n <= ref.BRUTE_MAX_N:
        close("mc vs enumeration", mc, float(ref.census(n).event_probability(m)), rel=0.0,
              abs_tol=5.0 * stderr + 1e-12)
    else:
        _limit_law_scaled("mc", mc, stderr, n, m)
    if n >= 3:
        close("prediction", num(row, "prediction"), ref.limit_law(n, m)[0])


def check_distinct(opts: dict[str, str], out: str) -> None:
    n, trials = int(opts["--n"]), int(opts["--trials"])
    payload = json.loads(out)
    (row,) = payload["rows"]
    hist = {int(d): c for d, c in payload["histogram"].items()}
    expect(sum(hist.values()) == trials == row["trials"], f"histogram sums to {sum(hist.values())}")
    lo, hi = ref.distinct_window(n)
    expect((row["window_lo"], row["window_hi"]) == (lo, hi), f"window {row['window_lo']}..{row['window_hi']}")
    inside = sum(c for d, c in hist.items() if lo <= d <= hi) / trials
    close("empirical_window_prob", float(row["empirical_window_prob"]), inside)
    close("mean_distinct", float(row["mean_distinct"]), sum(d * c for d, c in hist.items()) / trials)
    bound = float(row["exact_lower_bound"])
    stderr = float(row["window_prob_stderr"])
    expect(bound <= inside + 5.0 * stderr + 1e-12, f"bound {bound} above empirical {inside} + 5 stderr")
    if n <= ref.BRUTE_MAX_N:
        exact = float(ref.census(n).window_probability(lo, hi))
        expect(bound <= exact + 1e-12, f"bound {bound} above the exact window probability {exact}")


def check_compare(opts: dict[str, str], out: str) -> None:
    m = int(opts["--m"])
    ns = [int(t) for t in opts["--n"].split(",")]
    rows = parse_csv(out)
    expect([int(r["n"]) for r in rows] == ns, "n column")
    for n, row in zip(ns, rows):
        exact, series, sing = num(row, "exact"), num(row, "series"), need(row, "singularity")
        if n <= ref.BRUTE_MAX_N:
            want = float(ref.census(n).expected_sizes(m))
            close(f"exact at n={n}", exact, want)
            close(f"series at n={n}", series, want)
        elif exact is not None and series is not None:
            close(f"exact vs series at n={n}", exact, series)
        if series is not None and n >= 16:
            _harmonic(f"series at n={n}", series, n, m)
        if n > 10_000:
            _harmonic(f"singularity at n={n}", sing, n, m)
        if n >= 3:
            close(f"prediction at n={n}", num(row, "prediction"), ref.limit_law(n, m)[0])
        if int(opts.get("--trials", "0")) > 0:
            _limit_law_scaled(f"mc at n={n}", need(row, "mc"), need(row, "mc_stderr"), n, m)


def check_rho(opts: dict[str, str], out: str) -> None:
    k = int(opts["--k"])
    printed = 10.0 ** (1 - int(opts.get("--precision", "12")))
    (row,) = parse_csv(out)
    rho, lo, hi = need(row, "rho"), need(row, "bracket_lo"), need(row, "bracket_hi")
    want_lo, want_hi = ref.root_bracket(k)
    close("bracket_lo", lo, float(want_lo), rel=printed)
    close("bracket_hi", hi, float(want_hi), rel=printed)
    # Past k = 52 the bracket is narrower than a double's spacing near 1/2,
    # so the printed ends may coincide with rho.
    expect(lo <= rho <= hi, f"rho {rho!r} outside [{lo!r}, {hi!r}]")
    residual = abs(ref.kernel(k, rho))
    expect(residual <= 1e-12, f"|Q(rho)| = {float(residual):.3e}")
    expect(need(row, "residual") <= 1e-12, "reported residual above 1e-12")
    close("rho vs bisection", rho, float(ref.dominant_root(k)), rel=0.0, abs_tol=1e-12)


def check_mellin(opts: dict[str, str], out: str) -> None:
    n, m = int(opts["--n"]), int(opts["--m"])
    (row,) = parse_csv(out)
    want = ref.harmonic_sum(n, m)
    direct, residue = need(row, "direct"), need(row, "residue")
    close("direct", direct, want, rel=1e-10)
    close("residue", residue, want, rel=1e-8)
    close("rel_diff", num(row, "rel_diff"), abs(direct - residue) / direct, rel=0.0, abs_tol=1e-8)
    expect(int(row["k_lo"]) <= math.log2(n / m) + 1 and int(row["k_hi"]) >= math.log2(n / m) - 1,
           f"window {row['k_lo']}..{row['k_hi']} misses the peak")


def warm(argv: list[str] | tuple[str, ...]) -> None:
    """Compute ahead the reference values ``check`` will look up for this
    query, so that the first timed round is not interleaved with them."""
    command, opts = options(argv)
    m = int(opts.get("--m", "1"))
    for n in (int(t) for t in opts.get("--n", "0").split(",")):
        if 1 <= n <= ref.BRUTE_MAX_N and command != "predict":
            ref.census(n)
        if command == "prob":
            k = int(opts["--k"])
            if opts.get("--route", "series") != "singularity" and n > ref.BRUTE_MAX_N:
                ref.count_mod(n, k, m)
            if opts.get("--route", "series") != "series":
                ref.leading_term(n, k, m)
        if command in ("predict", "sample", "compare") and n >= 3:
            ref.limit_law(n, m)
        if command in ("compare", "mellin") and n >= 16:
            ref.harmonic_sum(n, m)
    if command == "rho":
        ref.dominant_root(int(opts["--k"]))


CHECKS = {
    "exact": check_exact,
    "prob": check_prob,
    "predict": check_predict,
    "sample": check_sample,
    "distinct": check_distinct,
    "compare": check_compare,
    "rho": check_rho,
    "mellin": check_mellin,
}


def check(argv: list[str] | tuple[str, ...], out: str) -> None:
    command, opts = options(argv)
    try:
        CHECKS[command](opts, out)
    except (KeyError, ValueError, TypeError, json.JSONDecodeError) as exc:
        raise CheckError(f"unreadable answer: {exc!r}") from exc
