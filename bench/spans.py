"""Spans around the calls into each ``uab`` layer, for the traced run.

The wrappers replace module and class attributes of the imported ``uab``
modules for the length of one traced body and put the originals back after it;
the package itself records nothing. Each span holds its name, start, end,
parent span and the run identifier. Spans stay in memory; the runner writes
one body's spans out at the end.
"""

from __future__ import annotations

import importlib
import itertools
import json
import threading
from collections import Counter, defaultdict
from contextlib import contextmanager
from dataclasses import asdict, dataclass
from time import perf_counter
from typing import Callable, Dict, List, Optional


@dataclass(frozen=True)
class Span:
    span_id: int
    parent_id: Optional[int]
    name: str
    start: float
    end: float
    run_id: str


class Tracer:
    """Collects the spans and counts of one traced body."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: List[Span] = []
        self.counts: Counter = Counter()
        self._ids = itertools.count()
        self._local = threading.local()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, fn: Callable, name, observe: Optional[Callable] = None) -> Callable:
        """``fn`` recording one span per call; ``name`` may be a function of the args."""

        def traced(*args, **kwargs):
            stack = self._stack()
            span_id = next(self._ids)
            parent = stack[-1] if stack else None
            stack.append(span_id)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                label = name(args) if callable(name) else name
                self.spans.append(Span(span_id, parent, label, start, end, self.run_id))
            if observe is not None:
                observe(self.counts, args, result)
            return result

        return traced


def _generate_span(args) -> str:
    # K = 1 Phase-1 sample per question, so Phase 2 starts at sample index 1.
    return "backends.generate.phase1" if args[1].first_sample_index == 0 else "backends.generate.phase2"


def _count_samples(counts, args, response):
    counts["samples"] += len(response.samples)


def _count_cache(counts, args, payload):
    counts["cache_hits" if payload is not None else "cache_misses"] += 1


def _count_abstain(counts, args, parsed):
    if parsed is None:
        counts["abstained"] += 1


def _count_units(counts, args, result):
    counts["units"] += result[1].total_extras()


# (module, class or None, attribute, span name, observer). A function appears
# once for every module that binds its name, because callers look the name up
# in their own module.
_TARGETS = [
    ("uab.harness", None, "run_experiment", "harness.run_experiment", None),
    ("uab.harness", None, "write_results_jsonl", "harness.write_results_jsonl", None),
    ("uab.harness", None, "run_two_phase", "pipeline.run_two_phase", None),
    ("uab.harness", None, "coverage_objective", "core.coverage_objective", None),
    ("uab.pipeline", None, "run_two_phase", "pipeline.run_two_phase", None),
    ("uab.pipeline", None, "parse_answer", "pipeline.parse_answer", _count_abstain),
    ("uab.pipeline", None, "majority_vote", "pipeline.majority_vote", None),
    ("uab.pipeline", None, "estimate_difficulties", "pipeline.estimate_difficulties", None),
    ("uab.pipeline", None, "apply_threshold_exits", "allocation.apply_threshold_exits", _count_units),
    ("uab.allocation", None, "apply_threshold_exits", "allocation.apply_threshold_exits", _count_units),
    ("uab.allocation", None, "verify_kkt", "allocation.verify_kkt", None),
    ("uab.core", None, "coverage_objective", "core.coverage_objective", None),
    ("uab.signals", None, "logprob_score", "signals.logprob_score", None),
    # Wrapping ``generate`` on the classes acts as a backend proxy that sorts
    # spans by phase, including the backend run_experiment builds itself.
    ("uab.backends", "SimulatedBackend", "generate", _generate_span, _count_samples),
    ("uab.backends", "HttpBackend", "generate", _generate_span, _count_samples),
    ("uab.backends", "ResponseCache", "get", "backends.cache_get", _count_cache),
    ("uab.backends", "ResponseCache", "put", "backends.cache_put", None),
]


@contextmanager
def installed(tracer: Tracer):
    """Route the calls listed in ``_TARGETS`` through ``tracer`` while active."""
    restore = []
    try:
        for module_name, class_name, attr, name, observe in _TARGETS:
            owner = importlib.import_module(module_name)
            if class_name is not None:
                owner = getattr(owner, class_name)
            original = getattr(owner, attr)
            restore.append((owner, attr, original))
            setattr(owner, attr, tracer.wrap(original, name, observe))
        yield tracer
    finally:
        for owner, attr, original in reversed(restore):
            setattr(owner, attr, original)


def _covered(intervals) -> float:
    """Length of the union of (start, end) intervals."""
    total = 0.0
    reach = float("-inf")
    for start, end in sorted(intervals):
        if end <= reach:
            continue
        total += end - max(start, reach)
        reach = end
    return total


def self_times(spans: List[Span]) -> Dict[int, float]:
    """Each span's duration minus the part of it that its child spans cover."""
    children = defaultdict(list)
    for span in spans:
        if span.parent_id is not None:
            children[span.parent_id].append((span.start, span.end))
    return {s.span_id: (s.end - s.start) - _covered(children.get(s.span_id, ())) for s in spans}


def layer_metrics(tracer: Tracer, body_s: float, stub_stats: Dict[str, int]) -> Dict[str, float]:
    """Per-layer metrics of one traced body, named ``<module>.<metric>``."""
    spans = tracer.spans
    counts = tracer.counts
    own = self_times(spans)
    total: Dict[str, float] = defaultdict(float)
    self_s: Dict[str, float] = defaultdict(float)
    calls: Counter = Counter()
    first: Dict[str, float] = {}
    last: Dict[str, float] = {}
    for s in spans:
        total[s.name] += s.end - s.start
        self_s[s.name] += own[s.span_id]
        calls[s.name] += 1
        first[s.name] = min(first.get(s.name, s.start), s.start)
        last[s.name] = max(last.get(s.name, s.end), s.end)

    p1, p2 = "backends.generate.phase1", "backends.generate.phase2"
    generate_s = total[p1] + total[p2]
    samples = counts["samples"]
    cache_lookups = counts["cache_hits"] + counts["cache_misses"]
    parse_calls = calls["pipeline.parse_answer"]
    between = first[p2] - last[p1] if p1 in first and p2 in first else 0.0
    self_sum = sum(own.values())
    return {
        "backends.generate_calls": calls[p1] + calls[p2],
        "backends.samples": samples,
        "backends.generate_s": generate_s,
        "backends.us_per_sample": 1e6 * generate_s / samples if samples else 0.0,
        "backends.http_posts": stub_stats.get("posts", 0),
        "backends.http_retries": stub_stats.get("faults", 0),
        "backends.max_in_flight": stub_stats.get("peak_in_flight", 0),
        "backends.cache_hits": counts["cache_hits"],
        "backends.cache_misses": counts["cache_misses"],
        "backends.cache_hit_ratio": counts["cache_hits"] / cache_lookups if cache_lookups else 0.0,
        "backends.cache_get_s": total["backends.cache_get"],
        "backends.cache_put_s": total["backends.cache_put"],
        "pipeline.phase1_s": last[p1] - first[p1] if p1 in first else 0.0,
        "pipeline.phase2_s": last[p2] - first[p2] if p2 in first else 0.0,
        "pipeline.between_phases_s": between,
        "pipeline.self_s": self_s["pipeline.run_two_phase"],
        "pipeline.parse_calls": parse_calls,
        "pipeline.parse_s": total["pipeline.parse_answer"],
        "pipeline.vote_calls": calls["pipeline.majority_vote"],
        "pipeline.vote_s": total["pipeline.majority_vote"],
        "pipeline.estimate_s": total["pipeline.estimate_difficulties"],
        "pipeline.abstain_frac": counts["abstained"] / parse_calls if parse_calls else 0.0,
        "signals.score_calls": calls["signals.logprob_score"],
        "signals.score_s": total["signals.logprob_score"],
        "allocation.units": counts["units"],
        "allocation.allocate_s": total["allocation.apply_threshold_exits"],
        "allocation.kkt_s": total["allocation.verify_kkt"],
        "core.objective_s": total["core.coverage_objective"],
        "harness.write_s": total["harness.write_results_jsonl"],
        "harness.self_s": self_s["harness.run_experiment"],
        "trace.body_s": body_s,
        "trace.self_sum_s": self_sum,
        "trace.unattributed_s": body_s - self_sum,
        "trace.spans": len(spans),
    }


def write_spans(spans: List[Span], path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for span in spans:
            fh.write(json.dumps(asdict(span), separators=(",", ":")))
            fh.write("\n")
