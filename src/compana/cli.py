"""Command-line surface tying the four computation routes together.

Subcommands:

  exact     exact multiplicity-event probabilities by enumeration (small n)
  prob      occurrence probability of one (n, k, m) by series and/or
            dominant-root approximation
  predict   limit-law prediction for the multiplicity event
  sample    seeded Monte Carlo estimate vs. the prediction
  distinct  distribution of the number of distinct part sizes, with the
            exact window lower bound
  compare   cross-route comparison table over a list of n
  rho       dominant denominator root for one k
  mellin    harmonic sum by direct summation and by residue series

Output is CSV (default) or JSON (``--format json``), to stdout or ``--out``.
Every sampling command is deterministic for a fixed (seed, workers) pair.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys
from fractions import Fraction
from typing import Any, Sequence

from compana import asymptotics, compositions, series, singularity
from compana.singularity import NumericalInstabilityError

SERIES_MAX_N = 10_000
DEFAULT_PRECISION = 12

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_NUMERICAL = 3

# Python's default limit on int-from-decimal conversion (3.10.7 and later);
# main lifts the process limit, parse_count keeps to this one.
_MAX_COUNT_DIGITS = getattr(sys.int_info, "default_max_str_digits", 4300)


def parse_count(text: str) -> int:
    """Positive integer; scientific (1e6, 2.5e3) and power (10^6) forms
    accepted.  Counts with more digits than Python's default int-to-str
    limit are refused whatever limit the process runs under; a power is
    judged from its base and exponent before it is computed."""
    text = text.strip()
    too_long = argparse.ArgumentTypeError(f"count has more than {_MAX_COUNT_DIGITS} digits")
    if sum(ch.isdigit() for ch in text) > _MAX_COUNT_DIGITS:
        raise too_long
    try:
        return int(text)
    except ValueError:
        pass
    if "^" in text:
        base_text, _, exp_text = text.partition("^")
        base, exponent = int(base_text), int(exp_text)
        if exponent < 0:
            raise argparse.ArgumentTypeError(f"{text!r} has a negative exponent")
        # A float estimate of the digit count refuses a power far past the
        # limit; one within a digit of it is cheap to compute and test exactly.
        if abs(base) > 1 and exponent * math.log10(abs(base)) > _MAX_COUNT_DIGITS + 1:
            raise too_long
        value = base**exponent
        if abs(value) >= 10**_MAX_COUNT_DIGITS:
            raise too_long
        return value
    value = float(text)
    if not value.is_integer() or abs(value) > 2**53:
        raise argparse.ArgumentTypeError(f"{text!r} is not an exactly-representable integer")
    return int(value)


def parse_count_list(text: str) -> list[int]:
    """Comma list of counts; ``A..B`` expands by doubling from A up to B."""
    out: list[int] = []
    for token in text.split(","):
        token = token.strip()
        if ".." in token:
            lo_text, hi_text = token.split("..", 1)
            lo, hi = parse_count(lo_text), parse_count(hi_text)
            if lo < 1 or hi < lo:
                raise argparse.ArgumentTypeError(f"bad range {token!r}")
            value = lo
            while value < hi:
                out.append(value)
                value *= 2
            out.append(hi)
        elif token:
            out.append(parse_count(token))
    if not out:
        raise argparse.ArgumentTypeError("empty n list")
    return out


def parse_trials(text: str) -> int:
    """Trial count: a count as parse_count reads it, at least 0."""
    trials = parse_count(text)
    if trials < 0:
        raise argparse.ArgumentTypeError("trials must be >= 0")
    return trials


def parse_positive_int(text: str) -> int:
    """An int of at least 1: a worker-thread count or a float precision."""
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, not {value}")
    return value


def _parse_harmonics(text: str) -> int:
    """A harmonic count for mellin, from 0 to asymptotics.MAX_HARMONICS."""
    p_max = parse_count(text)
    if not 0 <= p_max <= asymptotics.MAX_HARMONICS:
        raise argparse.ArgumentTypeError(f"must be between 0 and {asymptotics.MAX_HARMONICS}")
    return p_max


def _fmt_value(value: Any, precision: int) -> Any:
    if value is None:
        return None
    if isinstance(value, Fraction):
        return str(value)
    if isinstance(value, float):
        return format(value, f".{precision}g")
    return value


def emit(
    rows: list[dict[str, Any]],
    args: argparse.Namespace,
    extra: dict[str, Any] | None = None,
) -> None:
    """Render rows as CSV or JSON with the requested precision.

    Every row carries every column, in order, with None where a route did
    not run; the header is the first row's keys.
    """
    rows = [{c: _fmt_value(v, args.precision) for c, v in r.items()} for r in rows]
    if args.format == "json":
        payload: dict[str, Any] = {"rows": rows}
        if extra:
            payload.update(extra)
        text = json.dumps(payload, indent=2) + "\n"
    else:
        lines = [",".join(rows[0])]
        for r in rows:
            lines.append(",".join("" if v is None else str(v) for v in r.values()))
        text = "\n".join(lines) + "\n"
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)


def _rel_err(value: float | None, reference: float | None) -> float | None:
    if value is None or reference is None or reference == 0:
        return None
    return abs(value - reference) / abs(reference)


def distinct_window(n: int) -> tuple[int, int]:
    """Window [a, b] around log2(n) expected to contain the distinct-size
    count: offsets of ceil(log log n) (natural logs) on each side."""
    if n < 2:
        return 1, max(1, n)
    width = math.ceil(math.log(math.log(n))) if n > 2 else 0
    center = math.floor(math.log2(n))
    lo = max(1, center - width)
    hi = min(n, max(lo, center + width))
    return lo, hi


def cmd_exact(args: argparse.Namespace) -> int:
    if args.m is not None:
        values = {args.m: compositions.exact_event_probability(args.n, args.m)}
    else:
        values = compositions.exact_event_probabilities(args.n)
    rows = [{"m": m, "probability": p, "decimal": float(p)} for m, p in values.items()]
    emit(rows, args)
    return EXIT_OK


def cmd_prob(args: argparse.Namespace) -> int:
    n, k, m = args.n, args.k, args.m
    p = series.prob_multiplicity(n, k, m) if args.route != "singularity" else None
    exact = None if p is None else float(p)
    approx = None
    if args.route != "series":
        approx = singularity.prob_multiplicity_singularity(n, k, m)
    row = {
        "n": n,
        "k": k,
        "m": m,
        "series_rational": p,
        "series": exact,
        "singularity": approx,
        "rel_err_singularity_series": _rel_err(approx, exact),
    }
    emit([row], args)
    return EXIT_OK


def cmd_predict(args: argparse.Namespace) -> int:
    prediction, scaled, frac, wobble = asymptotics.limit_law(args.n, args.m)
    row = {
        "n": args.n,
        "m": args.m,
        "prediction": prediction,
        "scaled_value": scaled,
        "frac_log2_n": frac,
        "fluctuation": wobble,
    }
    emit([row], args)
    return EXIT_OK


def cmd_sample(args: argparse.Namespace) -> int:
    n, m = args.n, args.m
    # Before sampling, so that an m past the limit law's range fails at once.
    prediction = asymptotics.predict_event_probability(n, m) if n >= 3 else None
    estimate = compositions.mc_event_probability(n, m, args.trials, args.seed, args.workers)
    row = {
        "n": n,
        "m": m,
        "trials": args.trials,
        "seed": args.seed,
        "workers": args.workers,
        "mc": estimate.value,
        "mc_stderr": estimate.stderr,
        "prediction": prediction,
        "rel_err_pred_mc": _rel_err(prediction, estimate.value),
    }
    emit([row], args)
    return EXIT_OK


def cmd_distinct(args: argparse.Namespace) -> int:
    n = args.n
    lo, hi = distinct_window(n)
    hist = compositions.distinct_size_histogram(n, args.trials, args.seed, args.workers)
    trials = int(hist.sum())
    in_window = int(hist[lo : hi + 1].sum())
    p_window = in_window / trials
    window_stderr = math.sqrt(max(0.0, p_window * (1.0 - p_window)) / trials)
    counts = [(d, int(c)) for d, c in enumerate(hist) if c]
    mean = sum(d * c for d, c in counts) / trials
    var = sum(c * (d - mean) ** 2 for d, c in counts) / max(1, trials - 1)
    bound = series.window_lower_bound(n, lo, hi)
    row = {
        "n": n,
        "trials": trials,
        "seed": args.seed,
        "workers": args.workers,
        "window_lo": lo,
        "window_hi": hi,
        "empirical_window_prob": p_window,
        "window_prob_stderr": window_stderr,
        "exact_lower_bound": float(bound),
        "mean_distinct": mean,
        "mean_distinct_stderr": math.sqrt(var / trials),
    }
    # Before emit, so that an unwritable --hist-out leaves stdout empty.
    if args.hist_out:
        with open(args.hist_out, "w", encoding="utf-8") as handle:
            handle.write("distinct,count\n")
            for d, c in counts:
                handle.write(f"{d},{c}\n")
    extra = None
    if args.format == "json":
        extra = {"histogram": {str(d): c for d, c in counts}}
    emit([row], args, extra=extra)
    return EXIT_OK


def cmd_compare(args: argparse.Namespace) -> int:
    """Cross-route table.

    ``exact`` and ``series`` carry the exact expected number of part sizes
    with multiplicity m (enumeration and coefficient routes, identical where
    both are feasible); ``singularity`` its dominant-root approximation;
    ``prediction`` and ``mc`` the multiplicity-event probability by the limit
    law and by Monte Carlo.
    """
    m = args.m
    rows = []
    for n in args.n:
        exact = series_value = prediction = mc = mc_stderr = None
        if n <= compositions.ENUMERATION_MAX_N:
            exact = float(compositions.exact_expected_sizes_with_multiplicity(n, m))
        if n <= SERIES_MAX_N:
            series_value = float(series.expected_sizes_with_multiplicity(n, m))
        approx = singularity.expected_sizes_with_multiplicity_singularity(n, m)
        if n >= 3:
            prediction = asymptotics.predict_event_probability(n, m)
        if args.trials > 0:
            estimate = compositions.mc_event_probability(
                n, m, args.trials, args.seed, args.workers
            )
            mc, mc_stderr = estimate.value, estimate.stderr
        rows.append(
            {
                "n": n,
                "m": m,
                "exact": exact,
                "series": series_value,
                "singularity": approx,
                "prediction": prediction,
                "mc": mc,
                "mc_stderr": mc_stderr,
                "rel_err_series_exact": _rel_err(series_value, exact),
                "rel_err_pred_mc": _rel_err(prediction, mc),
            }
        )
    emit(rows, args)
    return EXIT_OK


def cmd_rho(args: argparse.Namespace) -> int:
    root = singularity.solve_dominant_root(args.k)
    row = {
        "k": args.k,
        "rho": root.value,
        "bracket_lo": root.bracket_lo,
        "bracket_hi": root.bracket_hi,
        "residual": root.residual,
        "method": root.method,
    }
    emit([row], args)
    return EXIT_OK


def cmd_mellin(args: argparse.Namespace) -> int:
    result = asymptotics.harmonic_sum_result(args.n, args.m, args.p_max)
    row = {
        "n": float(args.n),
        "m": args.m,
        "direct": result.direct,
        "residue": result.residue,
        "rel_diff": abs(result.direct - result.residue) / result.direct,
        "k_lo": result.k_lo,
        "k_hi": result.k_hi,
        "p_max": args.p_max,
    }
    emit([row], args)
    return EXIT_OK


def _check_output_paths(args: argparse.Namespace) -> None:
    """Refuse an --out or --hist-out that names a directory or whose
    directory is missing or not writable, before the command computes
    anything; creates no file."""
    for path in (args.out, vars(args).get("hist_out")):
        if not path:
            continue
        if os.path.isdir(path):
            raise OSError(f"cannot write {path}: it is a directory")
        directory = os.path.dirname(path) or "."
        if not (os.path.isdir(directory) and os.access(directory, os.W_OK)):
            raise OSError(f"cannot write {path}: {directory} is not a writable directory")


def _add_output_options(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--format", choices=("csv", "json"), default="csv")
    parser.add_argument("--out", default=None, help="write output to this file")
    parser.add_argument(
        "--precision",
        type=parse_positive_int,
        default=DEFAULT_PRECISION,
        help="significant digits for floats",
    )


def _add_sampling_options(parser: argparse.ArgumentParser, trials_default: int) -> None:
    parser.add_argument("--trials", type=parse_trials, default=trials_default)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--workers", type=parse_positive_int, default=1)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built on first use and shared by later calls."""
    parser = argparse.ArgumentParser(
        prog="compana",
        description="Multiplicity statistics of uniform random integer compositions.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("exact", help="exact event probabilities by enumeration")
    p.add_argument("--n", type=parse_count, required=True)
    p.add_argument("--m", type=parse_count, default=None)
    _add_output_options(p)
    p.set_defaults(func=cmd_exact)

    p = sub.add_parser("prob", help="occurrence probability of one (n, k, m)")
    p.add_argument("--n", type=parse_count, required=True)
    p.add_argument("--k", type=parse_count, required=True)
    p.add_argument("--m", type=parse_count, required=True)
    p.add_argument("--route", choices=("series", "singularity", "both"), default="series")
    _add_output_options(p)
    p.set_defaults(func=cmd_prob)

    p = sub.add_parser("predict", help="limit-law prediction for the event probability")
    p.add_argument("--n", type=parse_count, required=True)
    p.add_argument("--m", type=parse_count, required=True)
    _add_output_options(p)
    p.set_defaults(func=cmd_predict)

    p = sub.add_parser("sample", help="Monte Carlo estimate of the event probability")
    p.add_argument("--n", type=parse_count, required=True)
    p.add_argument("--m", type=parse_count, required=True)
    _add_sampling_options(p, trials_default=100_000)
    _add_output_options(p)
    p.set_defaults(func=cmd_sample)

    p = sub.add_parser("distinct", help="distribution of the distinct part-size count")
    p.add_argument("--n", type=parse_count, required=True)
    p.add_argument("--hist-out", default=None, help="also write the histogram CSV here")
    _add_sampling_options(p, trials_default=100_000)
    _add_output_options(p)
    p.set_defaults(func=cmd_distinct)

    p = sub.add_parser("compare", help="cross-route comparison table")
    p.add_argument("--n", type=parse_count_list, required=True, help="comma list; A..B doubles")
    p.add_argument("--m", type=parse_count, required=True)
    _add_sampling_options(p, trials_default=0)
    _add_output_options(p)
    p.set_defaults(func=cmd_compare)

    p = sub.add_parser("rho", help="dominant denominator root for one k")
    p.add_argument("--k", type=parse_count, required=True)
    _add_output_options(p)
    p.set_defaults(func=cmd_rho)

    p = sub.add_parser("mellin", help="harmonic sum, direct vs. residue series")
    p.add_argument("--n", type=parse_count, required=True)
    p.add_argument("--m", type=parse_count, required=True)
    p.add_argument("--p-max", type=_parse_harmonics, default=asymptotics.DEFAULT_HARMONICS)
    _add_output_options(p)
    p.set_defaults(func=cmd_mellin)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    # Exact rationals past n ~ 14 300 have more than 4300 decimal digits.
    # The limit stays lifted so that an in-process caller can read the
    # printed rationals back; parse_count applies the default limit itself.
    if hasattr(sys, "set_int_max_str_digits"):  # absent before Python 3.10.7
        sys.set_int_max_str_digits(0)
    try:
        _check_output_paths(args)
        return args.func(args)
    # ValueError covers EnumerationCapError; OverflowError a count too large
    # for a float, as in predict --n 10^400; OSError an --out or --hist-out
    # that cannot be written.
    except (ValueError, OverflowError, OSError, argparse.ArgumentTypeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except NumericalInstabilityError as exc:
        print(f"numerical instability: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    raise SystemExit(main())
