"""Tests of the benchmark itself: every check accepts the program's answer
and rejects a perturbed one, query lists depend on the seed alone, and the
per-layer arithmetic of the tracer holds on a hand-built span tree.

    python3 -m pytest -q bench
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import checks  # noqa: E402
import reference  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from compana import cli  # noqa: E402


def answer(*argv: str) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cli.main(list(argv)) == 0
    return out.getvalue()


def edit_csv(text: str, column: str, change, row: int = 0) -> str:
    rows = list(csv.DictReader(io.StringIO(text)))
    rows[row][column] = change(rows[row][column])
    out = io.StringIO()
    writer = csv.DictWriter(out, fieldnames=list(rows[0]), lineterminator="\n")
    writer.writeheader()
    writer.writerows(rows)
    return out.getvalue()


def scaled(factor: float):
    return lambda text: repr(float(text) * factor)


def shifted(delta: float):
    return lambda text: repr(float(text) + delta)


def drop_last_row(text: str) -> str:
    return "\n".join(text.strip().splitlines()[:-1]) + "\n"


def bump_rational(text: str) -> str:
    p = Fraction(text)
    return str(Fraction(p.numerator + 2, p.denominator))


def distinct_edit(change):
    def edit(text: str) -> str:
        payload = json.loads(text)
        change(payload)
        return json.dumps(payload)

    return edit


def _extra_count(payload: dict) -> None:
    key = next(iter(payload["histogram"]))
    payload["histogram"][key] += 1


def _raise_bound(payload: dict) -> None:
    payload["rows"][0]["exact_lower_bound"] = "0.9999"


CASES = [
    (("exact", "--n", "5"), lambda t: t.replace("5/8", "5/9")),
    (("exact", "--n", "5"), drop_last_row),
    (("exact", "--n", "12", "--m", "2"), lambda t: edit_csv(t, "probability", bump_rational)),
    (("prob", "--n", "14", "--k", "2", "--m", "1", "--route", "both"),
     lambda t: edit_csv(t, "series_rational", bump_rational)),
    (("prob", "--n", "400", "--k", "5", "--m", "2", "--route", "both"),
     lambda t: edit_csv(t, "series_rational", bump_rational)),
    (("prob", "--n", "400", "--k", "5", "--m", "2", "--route", "both"),
     lambda t: edit_csv(t, "singularity", scaled(1.5))),
    (("prob", "--n", "100000", "--k", "16", "--m", "1", "--route", "singularity"),
     lambda t: edit_csv(t, "singularity", scaled(1 + 1e-6))),
    (("predict", "--n", "123456", "--m", "2"), lambda t: edit_csv(t, "prediction", scaled(1 + 1e-9))),
    (("predict", "--n", "123456", "--m", "2"), lambda t: edit_csv(t, "fluctuation", scaled(-1.0))),
    (("sample", "--n", "12", "--m", "1", "--trials", "4000", "--seed", "3"),
     lambda t: edit_csv(t, "mc", shifted(0.05))),
    (("sample", "--n", "100000", "--m", "2", "--trials", "4000", "--seed", "3"),
     lambda t: edit_csv(t, "mc", scaled(1.3))),
    (("distinct", "--n", "12", "--trials", "2000", "--seed", "3", "--format", "json"),
     distinct_edit(_extra_count)),
    (("distinct", "--n", "12", "--trials", "2000", "--seed", "3", "--format", "json"),
     distinct_edit(_raise_bound)),
    (("distinct", "--n", "1000", "--trials", "2000", "--seed", "3", "--format", "json"),
     distinct_edit(_raise_bound)),
    (("compare", "--n", "16", "--m", "1", "--trials", "0"), lambda t: edit_csv(t, "series", scaled(1 + 1e-6))),
    (("compare", "--n", "200", "--m", "2", "--trials", "0"), lambda t: edit_csv(t, "series", scaled(1.2))),
    (("compare", "--n", "50000", "--m", "1", "--trials", "0"), lambda t: edit_csv(t, "singularity", scaled(1.1))),
    (("compare", "--n", "50000", "--m", "1", "--trials", "2000", "--seed", "5"),
     lambda t: edit_csv(t, "mc", scaled(1.4))),
    (("rho", "--k", "7", "--precision", "17"), lambda t: edit_csv(t, "rho", shifted(1e-9))),
    (("rho", "--k", "7", "--precision", "17"), lambda t: edit_csv(t, "bracket_hi", shifted(-0.1))),
    (("mellin", "--n", "1000000", "--m", "3"), lambda t: edit_csv(t, "direct", scaled(1 + 1e-8))),
]


@pytest.mark.parametrize("argv, perturb", CASES, ids=[" ".join(c[0]) for c in CASES])
def test_check_accepts_answer_and_rejects_perturbation(argv, perturb):
    text = answer(*argv)
    checks.check(argv, text)
    bad = perturb(text)
    assert bad != text
    with pytest.raises(checks.CheckError):
        checks.check(argv, bad)


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_seed_fixes_the_query_list(name):
    first = workloads.build(name, 7)
    assert first == workloads.build(name, 7)
    assert first != workloads.build(name, 8)
    assert len(first) >= 100
    code = (
        "import sys, json; sys.path.insert(0, sys.argv[1]); import workloads; "
        f"print(json.dumps(workloads.build({name!r}, 7)))"
    )
    for hash_seed in ("0", "1"):
        out = subprocess.run(
            [sys.executable, "-c", code, str(HERE)], capture_output=True, text=True, check=True,
            env={"PYTHONHASHSEED": hash_seed},
        ).stdout
        assert [tuple(q) for q in json.loads(out)] == first


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_query_lists_pass_their_checks(name):
    """A sample of each workload's queries answers correctly."""
    for argv in workloads.build(name, 11)[:12]:
        command, opts = checks.options(argv)
        sizes = [int(n) for n in opts.get("--n", "0").split(",")]
        if argv == workloads.PROB_FAILING or (command in ("distinct", "compare") and max(sizes) > 5000):
            continue
        checks.check(argv, answer(*argv))


def test_failing_query_fails():
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        assert cli.main(list(workloads.PROB_FAILING)) == 2
    assert "4300 digits" in err.getvalue()


def test_count_mod_matches_enumeration():
    for n in range(1, 13):
        truth = reference.census(n)
        for k in range(1, n + 1):
            for m in range(0, n + 1):
                assert reference.count_mod(n, k, m) == truth.count(k, m) % reference.PRIME


def test_census_of_five():
    truth = reference.census(5)
    assert [truth.event_probability(m) for m in (1, 2, 3, 4, 5)] == [
        Fraction(5, 8), Fraction(3, 16), Fraction(1, 8), 0, Fraction(1, 16)
    ]
    assert sum(truth.distinct.values()) == 16


def _span(id, parent, name, start, end, note=None):
    span = tracing.Span(id, parent, 0, name, start)
    span.end, span.note = end, note
    return span


def test_layer_metrics_self_and_inclusive_times():
    spans = [
        _span(0, None, "cli.main", 0.0, 10.0),
        _span(1, 0, "cli.build_parser", 0.0, 1.0),
        _span(2, 0, "series.window_lower_bound", 1.0, 7.0),
        _span(3, 2, "series.count_with_multiplicity", 1.0, 4.0),
        _span(4, 3, "series.extract_coefficient", 1.5, 3.5, note=100),
        _span(5, 2, "series.extract_coefficient", 4.0, 5.0, note=20),
        _span(6, 0, "compositions.distinct_size_histogram", 7.0, 9.0, note=[500, 2]),
        _span(7, 0, "cli.emit", 9.0, 9.5),
    ]
    got = tracing.layer_metrics(spans, 0)
    assert got["cli.parser_s"] == 1.0
    assert got["cli.emit_s"] == 0.5
    assert got["cli.self_s"] == 10.0 - 1.0 - 6.0 - 2.0 - 0.5
    assert got["series.extract.calls"] == 2
    assert got["series.extract.s"] == 3.0
    assert got["series.extract.result_bits"] == 120
    assert got["series.window_bound.s"] == 6.0
    assert got["series.window_bound.extract_calls"] == 2
    assert got["series.fraction.s"] == 6.0 - 3.0 - 1.0
    assert got["compositions.sample.s"] == 2.0
    assert got["compositions.sample.pool_s"] == 2.0
    assert got["compositions.sample.trials_per_s"] == 250.0
