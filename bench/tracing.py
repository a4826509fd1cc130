"""Spans around compana's layers, recorded from outside the program.

``Tracer.install`` replaces public functions of the five modules with
wrappers that record a span (name, parent, query, start, end, note).  The
modules call each other, and themselves, through module globals, so nested
calls such as window_lower_bound -> count_with_multiplicity ->
extract_coefficient are caught too.  A function a later version of the
program no longer has is skipped.
"""

from __future__ import annotations

import functools
import inspect
import time
from collections import defaultdict

# Public functions wrapped per layer.  Helpers called in tight loops
# (kernel_value, parse_count, ...) stay unwrapped: a span costs about 2 µs,
# more than they do.
LAYERS = {
    "cli": ("main", "build_parser", "emit"),
    "series": (
        "extract_coefficient", "build_multiplicity_gf", "count_with_multiplicity",
        "prob_multiplicity", "prob_size_present", "expected_sizes_with_multiplicity",
        "window_tail_bounds", "window_lower_bound",
    ),
    "compositions": (
        "exact_event_probability", "exact_expected_sizes_with_multiplicity",
        "mc_event_probability", "distinct_size_histogram",
    ),
    "singularity": (
        "solve_dominant_root", "prob_multiplicity_singularity",
        "expected_sizes_with_multiplicity_singularity",
    ),
    "asymptotics": (
        "complex_gamma", "fluctuation", "predict_event_probability", "harmonic_sum_direct",
        "harmonic_sum_direct_range", "harmonic_sum_residues", "harmonic_sum_result",
    ),
}

SAMPLERS = ("compositions.mc_event_probability", "compositions.distinct_size_histogram")
WALKS = ("compositions.exact_event_probability", "compositions.exact_expected_sizes_with_multiplicity")
FRACTIONS = (
    "series.prob_multiplicity", "series.prob_size_present",
    "series.window_lower_bound", "series.window_tail_bounds",
)
WINDOWS = ("series.window_lower_bound", "series.window_tail_bounds")
EXTRACT = "series.extract_coefficient"

# name -> unit, in the order BENCHMARK.json lists them.
METRICS = {
    "cli.parser_s": "s",
    "cli.emit_s": "s",
    "cli.self_s": "s",
    "series.extract.calls": "count",
    "series.extract.s": "s",
    "series.extract.result_bits": "bits",
    "series.gf_build.s": "s",
    "series.expected_sizes.s": "s",
    "series.fraction.s": "s",
    "series.window_bound.s": "s",
    "series.window_bound.extract_calls": "count",
    "compositions.sample.s": "s",
    "compositions.sample.trials": "count",
    "compositions.sample.trials_per_s": "1/s",
    "compositions.sample.pool_s": "s",
    "compositions.enumerate.s": "s",
    "compositions.enumerate.compositions": "count",
    "singularity.s": "s",
    "singularity.root_solves": "count",
    "asymptotics.s": "s",
    "asymptotics.gamma_calls": "count",
}


class Span:
    __slots__ = ("id", "parent", "query", "name", "start", "end", "note")

    def __init__(self, id: int, parent: int | None, query: int, name: str, start: float) -> None:
        self.id, self.parent, self.query, self.name = id, parent, query, name
        self.start, self.end, self.note = start, start, None

    def as_list(self, origin: float) -> list:
        return [self.id, self.parent, self.query, self.name,
                round(self.start - origin, 9), round(self.end - self.start, 9), self.note]


def _sampler_note(signature: inspect.Signature, args: tuple, kwargs: dict) -> list[int]:
    bound = signature.bind(*args, **kwargs)
    bound.apply_defaults()
    return [int(bound.arguments["trials"]), int(bound.arguments.get("workers", 1))]


class Tracer:
    """Records spans into ``spans`` while installed; ``compositions`` counts
    the compositions that enumerate_compositions yielded."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.compositions = 0
        self.query = 0
        self._stack: list[Span] = []
        self._restore: list[tuple[object, str, object]] = []

    def install(self, modules: dict[str, object]) -> None:
        for layer, names in LAYERS.items():
            module = modules[layer]
            for name in names:
                fn = getattr(module, name, None)
                if inspect.isfunction(fn):
                    self._replace(module, name, self._wrap(f"{layer}.{name}", fn))
        walker = getattr(modules["compositions"], "enumerate_compositions", None)
        if inspect.isfunction(walker):
            self._replace(modules["compositions"], "enumerate_compositions", self._count_yields(walker))

    def uninstall(self) -> None:
        for module, name, fn in reversed(self._restore):
            setattr(module, name, fn)
        self._restore.clear()

    def _replace(self, module: object, name: str, wrapper: object) -> None:
        self._restore.append((module, name, getattr(module, name)))
        setattr(module, name, wrapper)

    def _wrap(self, name: str, fn):
        spans, stack = self.spans, self._stack
        signature = inspect.signature(fn) if name in SAMPLERS else None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = Span(len(spans), stack[-1].id if stack else None, self.query, name, time.perf_counter())
            if signature is not None:
                span.note = _sampler_note(signature, args, kwargs)
            spans.append(span)
            stack.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                stack.pop()
            if name == EXTRACT:
                span.note = abs(result).bit_length()
            return result

        return wrapper

    def _count_yields(self, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            for item in fn(*args, **kwargs):
                self.compositions += 1
                yield item

        return wrapper

    def take(self) -> tuple[list[Span], int]:
        """Spans and composition count since the last take; resets both."""
        spans, count = list(self.spans), self.compositions
        self.spans.clear()
        self.compositions = 0
        return spans, count


def layer_metrics(spans: list[Span], compositions: int) -> dict[str, float]:
    """Per-layer metrics of one batch of spans.  Times are self time, except
    series.expected_sizes.s, series.window_bound.s and the compositions
    times, which include the calls nested in them."""
    by_id = {s.id: s for s in spans}
    covered: dict[int, float] = defaultdict(float)
    for s in spans:
        if s.parent is not None:
            covered[s.parent] += s.end - s.start
    own = {s.id: (s.end - s.start) - covered[s.id] for s in spans}

    def ancestors(s: Span):
        while s.parent is not None:
            s = by_id[s.parent]
            yield s

    def outermost(names: tuple[str, ...]) -> list[Span]:
        return [s for s in spans if s.name in names and not any(a.name in names for a in ancestors(s))]

    def self_time(pred) -> float:
        return sum(own[s.id] for s in spans if pred(s.name))

    def inclusive(names: tuple[str, ...]) -> float:
        return sum(s.end - s.start for s in outermost(names))

    extracts = [s for s in spans if s.name == EXTRACT and s.note is not None]
    samplers = outermost(SAMPLERS)
    sample_s = inclusive(SAMPLERS)
    trials = sum(s.note[0] for s in samplers)
    return {
        "cli.parser_s": self_time(lambda n: n == "cli.build_parser"),
        "cli.emit_s": self_time(lambda n: n == "cli.emit"),
        "cli.self_s": self_time(lambda n: n == "cli.main"),
        "series.extract.calls": len(extracts),
        "series.extract.s": self_time(lambda n: n == EXTRACT),
        "series.extract.result_bits": sum(s.note for s in extracts),
        "series.gf_build.s": self_time(lambda n: n == "series.build_multiplicity_gf"),
        "series.expected_sizes.s": inclusive(("series.expected_sizes_with_multiplicity",)),
        "series.fraction.s": self_time(lambda n: n in FRACTIONS),
        "series.window_bound.s": inclusive(WINDOWS),
        "series.window_bound.extract_calls": sum(
            1 for s in extracts if any(a.name in WINDOWS for a in ancestors(s))
        ),
        "compositions.sample.s": sample_s,
        "compositions.sample.trials": trials,
        "compositions.sample.trials_per_s": trials / sample_s if sample_s else 0.0,
        "compositions.sample.pool_s": sum(s.end - s.start for s in samplers if s.note[1] > 1),
        "compositions.enumerate.s": inclusive(WALKS),
        "compositions.enumerate.compositions": compositions,
        "singularity.s": self_time(lambda n: n.startswith("singularity.")),
        "singularity.root_solves": sum(1 for s in spans if s.name == "singularity.solve_dominant_root"),
        "asymptotics.s": self_time(lambda n: n.startswith("asymptotics.")),
        "asymptotics.gamma_calls": sum(1 for s in spans if s.name == "asymptotics.complex_gamma"),
    }
