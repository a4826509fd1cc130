"""Closed-loop benchmark of the compana command line.

One caller issues a workload's queries one after another, in process,
through ``compana.cli.main(argv)``, captures stdout and checks every answer
against values computed apart from the program (``checks.py``).  The query
list comes from ``--seed``; a run repeats it as whole rounds until
``--seconds`` have passed.

    python3 bench/run.py --workload limit-law --seed 1 --seconds 20 --trace 0

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
metrics of a traced run.  Without ``--workload`` every workload runs in
turn.  The last line of stdout is one JSON object; the same object and, for
traced runs, the spans of the first round go to ``bench/results/``.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RESULTS = HERE / "results"

sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

SETUP_PER_ROUND = 4
SETUP_CODE = "import compana.cli as cli; cli.build_parser()"
END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "query_p50_s": "s",
    "query_p90_s": "s",
    "cpu_s": "s",
    "peak_rss_mb": "MB",
}
SHOWN_FAILURES = 5


def cpu_seconds() -> float:
    """User plus system time of this process and its reaped children."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def peak_rss_mb() -> float:
    """Largest resident set of this process or of any reaped child."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, kids) / 1024.0


def time_setup(launches: int) -> list[float]:
    """Seconds for each of ``launches`` fresh interpreters to import
    compana.cli and build its parser, timed from launch to exit."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    times = []
    for _ in range(launches):
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", SETUP_CODE], env=env, check=True)
        times.append(time.perf_counter() - start)
    return times


def run_query(cli, argv: tuple[str, ...]) -> tuple[int | str, str, str, float, float]:
    """(exit code, stdout, stderr, seconds, cpu seconds) of one query."""
    out, err = io.StringIO(), io.StringIO()
    cpu0 = cpu_seconds()
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(list(argv))
    except SystemExit as exc:  # argparse rejects an argument
        code = exc.code if isinstance(exc.code, int) else 1
    except Exception as exc:  # an escaped exception fails this query only
        code = f"{type(exc).__name__}: {exc}"
    elapsed = time.perf_counter() - start
    return code, out.getvalue(), err.getvalue(), elapsed, cpu_seconds() - cpu0


class Outcome:
    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.correct = True
        self.messages: list[str] = []

    def fail(self, argv: tuple[str, ...], why: str, wrong: bool) -> None:
        self.failed += 1
        self.correct &= not wrong
        if len(self.messages) < SHOWN_FAILURES:
            self.messages.append(f"{'WRONG' if wrong else 'FAILED'} {' '.join(argv)}: {why.strip()[:300]}")


def run_workload(name: str, seed: int, seconds: float, traced: bool) -> dict:
    from compana import asymptotics, cli, compositions, series, singularity

    queries = workloads.build(name, seed)
    for argv in queries:
        checks.warm(argv)
    setup: list[float] = []
    if not traced:
        time_setup(1)  # writes the bytecode cache; not measured
    tracer = None
    if traced:
        tracer = tracing.Tracer()
        tracer.install({
            "cli": cli, "series": series, "compositions": compositions,
            "singularity": singularity, "asymptotics": asymptotics,
        })
    outcome = Outcome()
    latencies: list[list[float]] = []  # [round][query]
    cpus: list[list[float]] = []
    layer_rounds: list[dict[str, float]] = []
    first_spans: list = []
    begin = time.perf_counter()
    try:
        while True:
            # Keep the benchmark's own objects (reference caches, results)
            # out of the collector's sweeps, so a query pays for its own
            # garbage much as it would in a fresh process.
            gc.collect()
            gc.freeze()
            if not traced:
                # Spread over the run, so one slow spell of the machine
                # does not set the median.
                setup += time_setup(SETUP_PER_ROUND)
            latencies.append([])
            cpus.append([])
            for index, argv in enumerate(queries):
                if tracer:
                    tracer.query = index
                code, out, err, elapsed, used = run_query(cli, argv)
                outcome.attempted += 1
                latencies[-1].append(elapsed)
                cpus[-1].append(used)
                if code != 0:
                    outcome.fail(argv, f"exit {code}: {err}", wrong=False)
                    continue
                try:
                    checks.check(argv, out)
                except checks.CheckError as exc:
                    outcome.fail(argv, str(exc), wrong=True)
            if tracer:
                spans, walked = tracer.take()
                layer_rounds.append(tracing.layer_metrics(spans, walked))
                if not first_spans:
                    first_spans = spans
            if time.perf_counter() - begin >= seconds:
                break
    finally:
        if tracer:
            tracer.uninstall()

    result = {
        "correct": outcome.correct,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
    }
    if traced:
        metrics = per_layer(layer_rounds)
    else:
        typical = per_query_medians(latencies)
        values = {
            "setup_s": statistics.median(setup),
            "wall_s": sum(typical),
            "query_p50_s": statistics.median(typical),
            "query_p90_s": statistics.quantiles(typical, n=10)[8],
            "cpu_s": sum(per_query_medians(cpus)),
            "peak_rss_mb": peak_rss_mb(),
        }
        metrics = {k: {"value": v, "unit": END_TO_END[k]} for k, v in values.items()}
    result["metrics"] = metrics
    extra = {
        "workload": name, "seed": seed, "rounds": len(latencies), "queries_per_round": len(queries),
        "wall_s_per_round": [sum(row) for row in latencies], "failures": outcome.messages,
    }
    if traced:
        extra["traced_wall_s"] = sum(per_query_medians(latencies))
        origin = first_spans[0].start if first_spans else 0.0
        extra["spans_round_1"] = [s.as_list(origin) for s in first_spans]
        extra["span_fields"] = ["id", "parent", "query", "name", "start_s", "duration_s", "note"]
    write_result(name, seed, traced, {**result, **extra})
    report(name, seed, result, extra)
    return result


def per_query_medians(rounds: list[list[float]]) -> list[float]:
    """Each query's median over the rounds.  A slow spell of the shared
    machine then moves a query's figure only where it covers most of that
    query's rounds."""
    return [statistics.median(column) for column in zip(*rounds)]


def per_layer(rounds: list[dict[str, float]]) -> dict:
    """Counts and bits from the first round (every round runs the same
    queries, so they must agree); the rest as the median over rounds."""
    metrics = {}
    for key, unit in tracing.METRICS.items():
        values = [r[key] for r in rounds]
        if unit in ("count", "bits"):
            if len(set(values)) > 1:
                print(f"warning: {key} differs between rounds: {values}", file=sys.stderr)
            value = values[0]
        else:
            value = statistics.median(values)
        metrics[key] = {"value": value, "unit": unit}
    return metrics


def write_result(name: str, seed: int, traced: bool, payload: dict) -> None:
    RESULTS.mkdir(exist_ok=True)
    path = RESULTS / f"{name}-seed{seed}{'-trace' if traced else ''}.json"
    path.write_text(json.dumps(payload, indent=1) + "\n", encoding="utf-8")


def report(name: str, seed: int, result: dict, extra: dict) -> None:
    print(f"{name} (seed {seed}, {extra['rounds']} rounds of {extra['queries_per_round']} queries): "
          f"attempted {result['attempted']}, failed {result['failed']}, correct {result['correct']}")
    for key, metric in result["metrics"].items():
        print(f"  {key:38s} {metric['value']:>14} {metric['unit']}")
    if "traced_wall_s" in extra:
        print(f"  {'traced wall_s':38s} {extra['traced_wall_s']:>14} s")
    for line in extra["failures"]:
        print(f"  {line}", file=sys.stderr)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=[*workloads.WORKLOADS, "all"], default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "compana" / "cli.py").is_file():
        print(f"error: no compana sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    names = list(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
    results = {name: run_workload(name, args.seed, args.seconds, bool(args.trace)) for name in names}
    if len(results) == 1:
        (summary,) = results.values()
    else:
        summary = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{w}.{k}": v for w, r in results.items() for k, v in r["metrics"].items()},
        }
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
