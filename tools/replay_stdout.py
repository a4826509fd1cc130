"""Replay a benchmark workload's queries on two commits and compare output.

Each commit is exported with ``bench_pairs.export`` (``git archive`` into
``--workdir``).  For every workload and seed, the query list of
``bench/workloads.py`` runs once per tree, in a fresh interpreter, through
``compana.cli.main``; the exit code, stdout and stderr of each query are
compared in order.

    python3 tools/replay_stdout.py PARENT HEAD --workload distinct-window --seed 1

Exits 1 at the first argv whose exit code, stdout or stderr differs, after
printing both sides; exits 0 when every query of every list agrees.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

from bench_pairs import export

REPLAY_PROBE = """
import contextlib, io, json, sys
sys.path.insert(0, "bench")
import workloads
from compana import cli
results = []
for argv in workloads.build(sys.argv[1], int(sys.argv[2])):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(list(argv))
        except SystemExit as exc:  # argparse rejects an argument
            code = exc.code
    results.append({"argv": list(argv), "exit": code, "stdout": out.getvalue(),
                    "stderr": err.getvalue()})
json.dump(results, sys.stdout)
"""


def replay(tree: Path, workload: str, seed: int) -> list[dict]:
    """Exit code, stdout and stderr of every query of one list, run in ``tree``."""
    env = dict(os.environ, PYTHONPATH=str(tree / "src"))
    out = subprocess.run([sys.executable, "-c", REPLAY_PROBE, workload, str(seed)], cwd=tree,
                         env=env, check=True, capture_output=True, text=True).stdout
    return json.loads(out)


def first_difference(parent: list[dict], change: list[dict]) -> tuple[dict, dict] | None:
    for before, after in zip(parent, change, strict=True):
        if before["argv"] != after["argv"]:
            raise SystemExit(f"the query lists differ: {before['argv']} against {after['argv']}")
        if before != after:  # exit code, stdout or stderr
            return before, after
    return None


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent")
    parser.add_argument("change")
    parser.add_argument("--workload", action="append", required=True, help="repeatable")
    parser.add_argument("--seed", type=int, action="append", required=True, help="repeatable")
    parser.add_argument("--workdir", type=Path, help="where the two trees go (default: temp dir)")
    args = parser.parse_args(argv)

    workdir = args.workdir or Path(tempfile.mkdtemp(prefix="replay-stdout-"))
    (short_parent, parent), (short_change, change) = (export(args.parent, workdir),
                                                      export(args.change, workdir))
    for workload in args.workload:
        for seed in args.seed:
            before, after = replay(parent, workload, seed), replay(change, workload, seed)
            diff = first_difference(before, after)
            if diff:
                print(f"{workload} seed {seed}: {' '.join(diff[0]['argv'])}")
                for short, side in zip((short_parent, short_change), diff):
                    print(f"--- {short}: exit {side['exit']}\n{side['stdout']}"
                          f"--- {short}: stderr\n{side['stderr']}", end="")
                return 1
            print(f"{workload} seed {seed}: {len(after)} queries, exit codes, stdout and "
                  f"stderr identical ({short_parent} against {short_change})")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
