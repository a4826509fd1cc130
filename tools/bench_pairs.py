"""Interleaved benchmark pairs of two commits, written as BENCH_<pr>.json.

Each commit is exported with ``git archive`` into its own directory under
``--workdir``, and ``python3 bench/run.py --workload W --seed S`` runs in
both trees by turns: pair i runs the parent first for odd i and the change
first for even i, so a slow spell of a shared machine falls on both sides.
``--timeit LABEL STATEMENT`` times a statement the same way in both trees
(a fresh interpreter per side and pair, compana's modules imported, best
of 5 runs of 20 calls), for layer figures beside the end-to-end ones.

    python3 tools/bench_pairs.py PARENT HEAD --pr N --workdir /tmp/pairs \\
        --workload limit-law:5 --workload exact-coeff:2 --seed 1 \\
        --timeit "40 roots" "[singularity.solve_dominant_root(k) for k in range(1, 41)]"

The file keeps every run, and per metric the quartiles of each side, how
many pairs the change won and lost, and the ratio of the medians.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SIDES = ("parent", "change")
TIMEIT_PAIRS, TIMEIT_REPEAT, TIMEIT_NUMBER = 5, 5, 20

MACHINE_PROBE = """
import json, os, platform
import numpy
from compana import series
print(json.dumps({
    "python": platform.python_version(),
    "implementation": platform.python_implementation(),
    "numpy": numpy.__version__,
    "mpz_is_int": series.mpz is int,
    "cpu_count": os.cpu_count(),
    "machine": platform.machine(),
}))
"""

TIMEIT_PROBE = """
import json, sys, timeit
from compana import asymptotics, cli, compositions, series, singularity
statements, number, repeat = json.loads(sys.argv[1])
print(json.dumps([min(timeit.repeat(s, number=number, repeat=repeat, globals=globals())) / number
                  for s in statements]))
"""


def export(commit: str, workdir: Path) -> tuple[str, Path]:
    """(short hash, tree) of ``commit`` unpacked from ``git archive``.

    The tree is unpacked beside its final name and renamed only once both
    ``git archive`` and ``tar`` succeed, so a failed export leaves no
    half-filled tree for a later run to reuse.
    """
    short = subprocess.run(["git", "rev-parse", "--short", commit], cwd=ROOT, check=True,
                           capture_output=True, text=True).stdout.strip()
    tree = workdir / short
    if not tree.is_dir():
        workdir.mkdir(parents=True, exist_ok=True)
        partial = Path(tempfile.mkdtemp(prefix=f"{short}.", dir=workdir))
        archive = subprocess.Popen(["git", "archive", "--format=tar", short], cwd=ROOT,
                                   stdout=subprocess.PIPE)
        untar = subprocess.run(["tar", "-x", "-C", str(partial)], stdin=archive.stdout)
        archive.stdout.close()
        if archive.wait() != 0 or untar.returncode != 0:
            shutil.rmtree(partial)
            raise SystemExit(f"exporting {short} failed")
        partial.rename(tree)
    return short, tree


def python_in(tree: Path, code: str, *args: str) -> str:
    env = dict(os.environ, PYTHONPATH=str(tree / "src"))
    return subprocess.run([sys.executable, "-c", code, *args], cwd=tree, env=env, check=True,
                          capture_output=True, text=True).stdout


def bench_run(tree: Path, workload: str, seed: int) -> dict:
    """The summary object that ``bench/run.py`` prints as its last line."""
    out = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed)],
        cwd=tree, check=True, capture_output=True, text=True,
    ).stdout
    return json.loads(out.strip().splitlines()[-1])


def sides_in_turn(pair: int) -> tuple[str, str]:
    return SIDES if pair % 2 else SIDES[::-1]


def quartiles(values: list[float]) -> dict:
    if len(values) < 2:
        return {"q1": values[0], "median": values[0], "q3": values[0]}
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"q1": q1, "median": median, "q3": q3}


def summarize(runs: list[dict]) -> dict:
    summary = {}
    for name, metric in runs[0]["parent"]["metrics"].items():
        pairs = [(r["parent"]["metrics"][name]["value"], r["change"]["metrics"][name]["value"])
                 for r in runs]
        parent = quartiles([p for p, _ in pairs])
        change = quartiles([c for _, c in pairs])
        summary[name] = {
            "unit": metric["unit"],
            "parent": parent,
            "change": change,
            "change_lower_in_pairs": sum(c < p for p, c in pairs),
            "change_higher_in_pairs": sum(c > p for p, c in pairs),
            "median_ratio": change["median"] / parent["median"] if parent["median"] else None,
        }
    summary["correct"] = {
        "parent": all(r["parent"]["correct"] for r in runs),
        "change": all(r["change"]["correct"] for r in runs),
        "failed_parent": sum(r["parent"]["failed"] for r in runs),
        "failed_change": sum(r["change"]["failed"] for r in runs),
    }
    return summary


def workload_pairs(trees: dict[str, Path], workload: str, seed: int, pairs: int) -> dict:
    runs = []
    for pair in range(1, pairs + 1):
        run = {"pair": pair}
        for side in sides_in_turn(pair):
            run[side] = bench_run(trees[side], workload, seed)
            wall = run[side]["metrics"]["wall_s"]["value"]
            print(f"{workload} seed {seed} pair {pair} {side}: wall_s {wall:.4f}", file=sys.stderr)
        runs.append(run)
    return {
        "command": f"python3 bench/run.py --seed {seed} --workload {workload}",
        "pairs": pairs,
        "summary": summarize(runs),
        "runs": runs,
    }


def layer_pairs(trees: dict[str, Path], timeits: list[tuple[str, str]]) -> dict:
    statements = [s for _, s in timeits]
    per_side = {side: [] for side in SIDES}
    for pair in range(1, TIMEIT_PAIRS + 1):
        for side in sides_in_turn(pair):
            arg = json.dumps([statements, TIMEIT_NUMBER, TIMEIT_REPEAT])
            per_side[side].append(json.loads(python_in(trees[side], TIMEIT_PROBE, arg)))
    layers = {}
    for i, (label, statement) in enumerate(timeits):
        before = [row[i] for row in per_side["parent"]]
        after = [row[i] for row in per_side["change"]]
        layers[label] = {
            "statement": statement,
            "unit": "s",
            "parent": quartiles(before),
            "change": quartiles(after),
            "median_ratio": statistics.median(after) / statistics.median(before),
            "runs": [{"pair": p + 1, "parent": b, "change": a}
                     for p, (b, a) in enumerate(zip(before, after))],
        }
        print(f"layer {label}: {statistics.median(before):.3e} -> "
              f"{statistics.median(after):.3e} s", file=sys.stderr)
    return {
        "command": f"timeit in a fresh interpreter per side and pair, best of {TIMEIT_REPEAT} "
                   f"runs of {TIMEIT_NUMBER} calls",
        "pairs": TIMEIT_PAIRS,
        "layers": layers,
    }


def workload_spec(text: str) -> tuple[str, int]:
    name, _, pairs = text.partition(":")
    return name, int(pairs or 2)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent")
    parser.add_argument("change")
    parser.add_argument("--pr", type=int, required=True, help="writes BENCH_<pr>.json")
    parser.add_argument("--workdir", type=Path, help="where the two trees go (default: temp dir)")
    parser.add_argument("--workload", type=workload_spec, action="append", default=[],
                        metavar="NAME[:PAIRS]", help="a workload and its pair count (default 2)")
    parser.add_argument("--seed", type=int, action="append", help="repeatable; default 1")
    parser.add_argument("--timeit", nargs=2, action="append", default=[],
                        metavar=("LABEL", "STMT"))
    parser.add_argument("--claim", default="none: no-regression pairs only")
    args = parser.parse_args(argv)

    workdir = args.workdir or Path(tempfile.mkdtemp(prefix="bench-pairs-"))
    hashes, trees = {}, {}
    for side, commit in zip(SIDES, (args.parent, args.change)):
        hashes[side], trees[side] = export(commit, workdir)
    seconds = json.loads((trees["change"] / "BENCHMARK.json").read_text())["run_seconds"]
    result = {
        "command": f"python3 bench/run.py at its default run length ({seconds:g} s per "
                   "workload, BENCHMARK.json run_seconds), run from a git archive of each commit",
        "machine": json.loads(python_in(trees["change"], MACHINE_PROBE)),
        "parent": hashes["parent"],
        "change": hashes["change"],
        "order": "pair i runs the parent first for odd i, the change first for even i",
        "claim": args.claim,
    }
    for seed in args.seed or [1]:
        for workload, pairs in args.workload:
            key = f"seed_{seed}_{workload.replace('-', '_')}"
            result[key] = workload_pairs(trees, workload, seed, pairs)
    if args.timeit:
        result["layers"] = layer_pairs(trees, args.timeit)
    out = ROOT / f"BENCH_{args.pr}.json"
    out.write_text(json.dumps(result, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {out}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
