"""Golden CLI corpus: the invocations, how one is run, and the recorder.

Each invocation runs in process through ``compana.cli.main``.  A record
holds its argv, exit code, stdout and the text of every file it wrote
through ``--out`` or ``--hist-out``.  ``{tmp}`` in an argv stands for a
scratch directory; the record names each written file relative to it.

Rewrite ``corpus.json`` from the current sources with

    PYTHONPATH=src python tests/golden/record.py

``tests/test_golden.py`` replays the corpus and demands byte-identical
results.  The seeded sampling rows depend on numpy's generator streams, so
the corpus is tied to the numpy release it was recorded with.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import tempfile
from pathlib import Path

CORPUS = Path(__file__).with_name("corpus.json")

INVOCATIONS: list[tuple[str, ...]] = [
    # exact: enumeration, with and without --m, and the cap error.
    ("exact", "--n", "5"),
    ("exact", "--n", "5", "--format", "json"),
    ("exact", "--n", "1", "--precision", "17"),
    ("exact", "--n", "10"),
    ("exact", "--n", "10", "--m", "2"),
    ("exact", "--n", "10", "--m", "3", "--format", "json", "--precision", "4"),
    ("exact", "--n", "30"),
    # exact and compare at the enumeration cap.
    ("exact", "--n", "25", "--precision", "17"),
    ("exact", "--n", "25", "--m", "7", "--format", "json"),
    # prob: series, singularity and both.
    ("prob", "--n", "2000", "--k", "5", "--m", "2", "--route", "both"),
    ("prob", "--n", "2000", "--k", "5", "--m", "2", "--route", "both", "--format", "json",
     "--out", "{tmp}/prob.json"),
    ("prob", "--n", "300", "--k", "3", "--m", "1"),
    ("prob", "--n", "1e5", "--k", "14", "--m", "2", "--route", "singularity", "--precision", "17"),
    ("prob", "--n", "5", "--k", "7", "--m", "0", "--route", "both", "--format", "json"),
    # prob on both sides of the coefficient route rule: large k, tiny n,
    # and a middle cell.
    ("prob", "--n", "5000", "--k", "100", "--m", "0"),
    ("prob", "--n", "40", "--k", "1", "--m", "2"),
    ("prob", "--n", "1200", "--k", "20", "--m", "1", "--route", "both"),
    # predict: the limit law and its fluctuation.
    ("predict", "--n", "1e6", "--m", "1"),
    ("predict", "--n", "1e9", "--m", "3", "--format", "json", "--precision", "17"),
    ("predict", "--n", "3", "--m", "2", "--precision", "4"),
    ("predict", "--n", "1", "--m", "1"),
    # sample: seeded Monte Carlo, serial and pooled, and rejected knobs.
    ("sample", "--n", "1e6", "--m", "1", "--trials", "2000", "--seed", "7"),
    ("sample", "--n", "1e6", "--m", "1", "--trials", "2000", "--seed", "7", "--workers", "2"),
    ("sample", "--n", "12", "--m", "2", "--trials", "3000", "--seed", "1", "--format", "json",
     "--precision", "17"),
    ("sample", "--n", "1e9", "--m", "2", "--trials", "500", "--seed", "3", "--workers", "2",
     "--format", "json"),
    ("sample", "--n", "100", "--m", "1", "--trials", "-1"),
    ("sample", "--n", "100", "--m", "1", "--workers", "0"),
    # distinct: histogram, window bound and the side files.
    ("distinct", "--n", "200", "--trials", "2000", "--seed", "3"),
    ("distinct", "--n", "200", "--trials", "2000", "--seed", "3", "--workers", "2", "--format", "json",
     "--hist-out", "{tmp}/hist.csv"),
    ("distinct", "--n", "12", "--trials", "1000", "--seed", "5", "--precision", "4",
     "--out", "{tmp}/distinct.csv", "--hist-out", "{tmp}/distinct-hist.csv"),
    # distinct past n = 512, where the window terms are no longer all exact.
    ("distinct", "--n", "1000", "--trials", "2000", "--seed", "4", "--precision", "17"),
    ("distinct", "--n", "5000", "--trials", "1000", "--seed", "6", "--precision", "17",
     "--format", "json"),
    ("distinct", "--n", "40000", "--trials", "500", "--seed", "8", "--precision", "17"),
    # distinct between n = 512 and 2000, and at the largest n.
    ("distinct", "--n", "600", "--trials", "500", "--seed", "2", "--precision", "17"),
    ("distinct", "--n", "1e9", "--trials", "200", "--seed", "2", "--precision", "17",
     "--format", "json"),
    # distinct at n = 1400, where sizes 19..24 of the upper tail are pole
    # terms; and at n = 3, where trials end with one part left after k = 1.
    ("distinct", "--n", "1400", "--trials", "2000", "--seed", "11", "--precision", "17",
     "--format", "json"),
    ("distinct", "--n", "3", "--trials", "200", "--seed", "4", "--format", "json"),
    ("sample", "--n", "3", "--m", "1", "--trials", "200", "--seed", "4", "--precision", "17"),
    # compare: every route, with and without Monte Carlo.
    ("compare", "--n", "10,100,400", "--m", "1"),
    ("compare", "--n", "12,50", "--m", "2", "--trials", "1000", "--seed", "9", "--format", "json"),
    ("compare", "--n", "12,50", "--m", "2", "--trials", "1000", "--seed", "9", "--workers", "2"),
    ("compare", "--n", "1e5..4e5", "--m", "1", "--precision", "17"),
    ("compare", "--n", "300,1500", "--m", "3", "--precision", "17"),
    ("compare", "--n", "20..25", "--m", "2", "--precision", "17"),
    # rho: both root methods.
    ("rho", "--k", "1"),
    ("rho", "--k", "12", "--format", "json"),
    ("rho", "--k", "60", "--precision", "17"),
    # mellin: rel_diff shows a one-ulp change in either harmonic sum.
    ("mellin", "--n", "1e9", "--m", "2"),
    ("mellin", "--n", "1e6", "--m", "1", "--format", "json", "--precision", "17"),
    ("mellin", "--n", "37", "--m", "3", "--p-max", "2", "--precision", "17"),
    ("mellin", "--n", "123456789", "--m", "4", "--precision", "17", "--out", "{tmp}/mellin.csv"),
    ("mellin", "--n", "1e12", "--m", "1", "--precision", "17"),
]


def run(argv: tuple[str, ...], tmp: Path) -> dict:
    """Run one invocation with ``{tmp}`` bound to the directory ``tmp``."""
    from compana import cli

    before = set(os.listdir(tmp))
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        try:
            code = cli.main([a.replace("{tmp}", str(tmp)) for a in argv])
        except SystemExit as exc:  # argparse rejects an argument
            code = exc.code
    files = {
        name: (tmp / name).read_text(encoding="utf-8")
        for name in sorted(set(os.listdir(tmp)) - before)
    }
    return {"argv": list(argv), "exit": code, "stdout": out.getvalue(), "files": files}


def main() -> None:
    records = []
    for argv in INVOCATIONS:
        with tempfile.TemporaryDirectory() as tmp:
            records.append(run(argv, Path(tmp)))
    CORPUS.write_text(json.dumps(records, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {len(records)} records to {CORPUS}")


if __name__ == "__main__":
    main()
