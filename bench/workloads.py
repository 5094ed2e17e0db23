"""The benchmark's four workloads: inputs made from a seed, the timed body, and
the checks on its output.

Each workload is one closed-loop caller that submits one batch and waits for
all of it. ``setup`` builds the inputs (and the stub endpoint and cache where
there is one), ``prepare`` resets per-repeat state outside the timing, ``body``
is what gets timed, and ``outcome`` checks the body's output and derives the
quality metrics from it.

Why these four:

- ``sim-batch``: ``run_experiment`` in the simulated world. The per-sample
  path (simulator, parsing, voting) does most of the work and allocation is a
  small share, so simulator and pipeline changes show here.
- ``allocate-large``: what ``uab allocate`` does with a scores file: the
  allocation, its KKT certificate and the coverage objective, with no backend
  or parsing. Allocator changes show here; backend changes predict no change.
- ``http-cold``: ``run_two_phase`` through ``HttpBackend`` against the stub
  with an injected delay and injected 503s, from an empty cache. Waiting on
  serial round trips dominates and every sample is a cache write, so batching
  and retry changes show here.
- ``http-replay``: the same run against a cache filled in setup. It makes no
  POSTs and is the only workload where cache reads hit.
"""

from __future__ import annotations

import json
import shutil
import tempfile
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Tuple

import numpy as np

from uab import allocation, core, harness, pipeline
from uab.allocation import ThresholdExitConfig
from uab.backends import (BetaLaw, HttpBackend, HttpBackendConfig, ResponseCache, SimulatedBackend,
                          SimulatedWorld, WorldConfig)
from uab.core import AllocationVector, BudgetSpec, QuestionRecord, ValidationError
from uab.pipeline import PipelineConfig

import stub
from stub import nproc

#: Questions M and samples per question N of each workload.
SIZES: Dict[str, Dict[str, int]] = {
    "sim-batch": {"m": 4000, "n": 4},
    "allocate-large": {"m": 10000, "n": 8},
    "http-cold": {"m": 200, "n": 4},
    "http-replay": {"m": 200, "n": 8},
}

#: The stub's injected delay per request on http-cold, and the unit of
#: ``latency_waves``: body wall time in round trips of this length.
ROUND_TRIP_S = 0.010

#: Client backoff before retrying a refused POST.
BACKOFF_S = 0.005

#: Distractor answers per question in the vote simulation of allocate-large;
#: the same count as the simulated world's default.
DISTRACTORS = 4

#: Largest relative difference allowed between the program's coverage
#: objective and the benchmark's own computation of it.
COVERAGE_RTOL = 1e-9


@contextmanager
def counting_samples(backend_cls):
    """Count the samples that ``backend_cls.generate`` returns inside the block.

    The count comes from the responses themselves, not from the pipeline's
    ``samples_used``, so a change that returns fewer samples than it reports
    fails the N*M check instead of showing a false gain in ``samples_per_s``.
    """
    served = [0]
    original = backend_cls.generate

    def generate(self, request):
        response = original(self, request)
        served[0] += len(response.samples)
        return response

    backend_cls.generate = generate
    try:
        yield served
    finally:
        backend_cls.generate = original


#: One question's result: (id, final answer, correct, samples used, estimated p).
Row = Tuple[str, str, Optional[bool], int, float]


@dataclass
class Outcome:
    """What one body produced, after its checks."""

    attempted: int
    failed: int
    problems: List[str]
    result: object
    samples: int
    units: int
    accuracy: float
    coverage: float
    stub_stats: Dict[str, int] = field(default_factory=dict)


def check_batch(rows: List[Row], question_ids: List[str], n: int, served: int,
                reference: Optional[List[Row]]) -> Tuple[int, List[str]]:
    """Output checks on one answered batch; returns (failed questions, problems).

    Every question gets a non-empty answer, the samples used add up to N*M, the
    backend returned N*M samples (``served``, counted outside the pipeline),
    the realized allocation passes ``verify_kkt`` under the estimated
    probabilities, and the rows equal the reference batch's. A question without
    an answer fails alone; any other failed check fails the whole batch.
    """
    m = len(question_ids)
    problems: List[str] = []
    answered = {row[0] for row in rows if row[1]}
    unanswered = [qid for qid in question_ids if qid not in answered]
    if unanswered:
        problems.append(f"{len(unanswered)} question(s) without an answer")
    whole_batch = False
    if sorted(row[0] for row in rows) != sorted(question_ids):
        problems.append("result ids differ from the question ids")
        whole_batch = True
    used = sum(row[3] for row in rows)
    if used != n * m:
        problems.append(f"samples used {used} != N*M = {n * m}")
        whole_batch = True
    if served != n * m:
        problems.append(f"backend returned {served} samples, not N*M = {n * m}")
        whole_batch = True
    try:
        alloc = AllocationVector({row[0]: row[3] - 1 for row in rows}, (n - 1) * m)
        cert = allocation.verify_kkt(alloc, {row[0]: row[4] for row in rows})
        if not cert.satisfied:
            problems.append(f"KKT certificate fails at {cert.violating_pair}")
            whole_batch = True
    except ValidationError as exc:
        problems.append(f"realized allocation invalid: {exc}")
        whole_batch = True
    if reference is not None and rows != reference:
        problems.append("results differ from the first repeat's")
        whole_batch = True
    return (m if whole_batch else len(unanswered)), problems


def batch_outcome(rows: List[Row], question_ids: List[str], n: int, served: int,
                  reference: Optional[Outcome], stub_stats=None, extra_problems=()) -> Outcome:
    failed, problems = check_batch(rows, question_ids, n, served, reference.result if reference else None)
    problems.extend(extra_problems)
    if extra_problems:
        failed = len(question_ids)
    m = len(question_ids)
    graded = [row for row in rows if row[2] is not None]
    samples = np.array([max(row[3], 1) for row in rows], dtype=np.int64)
    p = np.array([row[4] for row in rows], dtype=float)
    return Outcome(
        attempted=m,
        failed=failed,
        problems=problems,
        result=rows,
        samples=served,
        units=int(np.sum(samples - 1)),
        accuracy=sum(1 for row in graded if row[2]) / len(graded) if graded else 0.0,
        coverage=float(np.sum(1.0 - (1.0 - p) ** samples)) / m,
        stub_stats=dict(stub_stats or {}),
    )


def result_rows(results) -> List[Row]:
    return [(r.question_id, r.final_answer, r.correct, r.samples_used, r.difficulty.prob) for r in results]


class Workload:
    name = ""

    def __init__(self, seed: int, m: int, n: int, workdir: Path):
        self.seed = seed
        self.m = m
        self.n = n
        self.workdir = Path(workdir)

    def setup(self) -> None:
        pass

    def prepare(self) -> None:
        pass

    def body(self):
        raise NotImplementedError

    def outcome(self, output, reference: Optional[Outcome]) -> Outcome:
        raise NotImplementedError

    def close(self) -> None:
        pass


class SimBatch(Workload):
    name = "sim-batch"

    def setup(self):
        world = WorldConfig(m_questions=self.m, prob_law=BetaLaw(2.0, 2.0), rng_seed=self.seed)
        self.question_ids = [q.id for q in SimulatedWorld(world).questions]
        self.out_dir = Path(tempfile.mkdtemp(prefix="sim-", dir=self.workdir))
        self.config = harness.ExperimentConfig(
            pipeline=PipelineConfig(budget=BudgetSpec(self.n, self.m)),
            backend_kind="sim",
            world=world,
            seeds=(self.seed,),
            output_dir=self.out_dir,
        )

    def body(self):
        with counting_samples(SimulatedBackend) as served:
            report = harness.run_experiment(self.config)
        self.served = served[0]
        return report

    def outcome(self, report, reference):
        rows = []
        with open(self.out_dir / f"uab_seed{self.seed}.jsonl", encoding="utf-8") as fh:
            for line in fh:
                r = json.loads(line)
                rows.append((r["question_id"], r["final_answer"], r["correct"], r["samples_used"], r["p_i"]))
        return batch_outcome(rows, self.question_ids, self.n, self.served, reference)

    def close(self):
        if hasattr(self, "out_dir"):
            shutil.rmtree(self.out_dir, ignore_errors=True)


def simulated_vote_accuracy(p: np.ndarray, samples: np.ndarray, rng: np.random.Generator) -> float:
    """Share of questions whose majority vote is correct when question i draws
    ``samples[i]`` samples, each correct with probability ``p[i]`` and otherwise
    one of DISTRACTORS wrong answers at random; the correct answer wins ties,
    as the gold answers of the simulated world sort before its distractors."""
    correct = rng.binomial(samples, p)
    wrong = rng.multinomial(samples - correct, [1.0 / DISTRACTORS] * DISTRACTORS)
    return float(np.mean((correct > 0) & (correct >= wrong.max(axis=1))))


class AllocateLarge(Workload):
    name = "allocate-large"

    def setup(self):
        self.p = np.random.default_rng(self.seed).beta(2.0, 2.0, size=self.m)
        self.probs = {f"q{i:06d}": float(x) for i, x in enumerate(self.p)}
        self.budget = (self.n - 1) * self.m
        self.exits = ThresholdExitConfig()
        self._accuracy = None

    def body(self):
        _eligible, alloc, saved = allocation.apply_threshold_exits(self.probs, self.budget, self.exits)
        cert = allocation.verify_kkt(alloc, self.probs)
        objective = core.coverage_objective(alloc, self.probs)
        return alloc, cert, objective, saved

    def outcome(self, output, reference):
        alloc, cert, objective, saved = output
        problems = []
        if not cert.satisfied:
            problems.append(f"KKT certificate fails at {cert.violating_pair}")
        if alloc.total_extras() != self.budget or saved != 0:
            problems.append(f"allocated {alloc.total_extras()} of {self.budget} units, saved {saved}")
        if alloc.extras.keys() != self.probs.keys():
            problems.append("allocation ids differ from the score ids")
        if reference is not None and (alloc.extras, objective) != reference.result:
            problems.append("allocation differs from the first repeat's")
        samples = 1 + np.fromiter((alloc.extras.get(q, 0) for q in self.probs), dtype=np.int64,
                                  count=self.m)
        coverage = float(np.sum(1.0 - (1.0 - self.p) ** samples))
        if not abs(objective - coverage) <= COVERAGE_RTOL * coverage:
            problems.append(f"coverage objective {objective!r} != {coverage!r} computed here")
        if self._accuracy is None:
            rng = np.random.default_rng([self.seed, 1])
            self._accuracy = simulated_vote_accuracy(self.p, samples, rng)
        return Outcome(
            attempted=1,
            failed=1 if problems else 0,
            problems=problems,
            result=(alloc.extras, objective),
            samples=self.m + alloc.total_extras(),
            units=alloc.total_extras(),
            accuracy=self._accuracy,
            coverage=coverage / self.m,
        )


def make_questions(seed: int, m: int) -> List[QuestionRecord]:
    """M questions whose prompts come from ``seed``; the stub derives each
    question's difficulty and gold answer from its prompt."""
    codes = np.random.default_rng(seed).integers(0, 2**62, size=m)
    questions = []
    for i, code in enumerate(codes):
        prompt = f"Problem {i} (instance {int(code):x}): evaluate the expression and give the final answer."
        questions.append(QuestionRecord(id=f"h{i:05d}", prompt=prompt, gold_answer=stub.gold_answer(prompt)))
    return questions


class _HttpWorkload(Workload):
    delay_s = 0.0

    def setup(self):
        self.questions = make_questions(self.seed, self.m)
        self.question_ids = [q.id for q in self.questions]
        self.config = PipelineConfig(budget=BudgetSpec(self.n, self.m))
        self.cache_dir: Optional[Path] = None
        self.stub = stub.StubProcess()

    def _backend(self) -> HttpBackend:
        config = HttpBackendConfig(
            base_url=self.stub.base_url,
            model="bench-stub",
            backoff_seconds=BACKOFF_S,
            max_in_flight=nproc(),
        )
        return HttpBackend(config, cache=ResponseCache(self.cache_dir))

    def _fresh_cache(self) -> None:
        if self.cache_dir is not None:
            shutil.rmtree(self.cache_dir, ignore_errors=True)
        self.cache_dir = Path(tempfile.mkdtemp(prefix="cache-", dir=self.workdir))

    def prepare(self):
        self.stub.reset(self.delay_s)
        self.backend = self._backend()

    def body(self):
        with counting_samples(HttpBackend) as served:
            results = pipeline.run_two_phase(self.questions, self.backend, self.config)
        self.served = served[0]
        return results

    def close(self):
        stub_process = getattr(self, "stub", None)
        if stub_process is not None:
            stub_process.close()
        if getattr(self, "cache_dir", None) is not None:
            shutil.rmtree(self.cache_dir, ignore_errors=True)


class HttpCold(_HttpWorkload):
    name = "http-cold"
    delay_s = ROUND_TRIP_S

    def prepare(self):
        self._fresh_cache()
        super().prepare()

    def outcome(self, results, reference):
        stats = self.stub.stats()
        problems = []
        if stats["samples"] != self.n * self.m:
            problems.append(f"stub served {stats['samples']} samples, not N*M = {self.n * self.m}")
        return batch_outcome(result_rows(results), self.question_ids, self.n, self.served, reference,
                             stats, problems)


class HttpReplay(_HttpWorkload):
    name = "http-replay"

    def setup(self):
        super().setup()
        self._fresh_cache()
        self.stub.reset(self.delay_s)
        results = pipeline.run_two_phase(self.questions, self._backend(), self.config)
        self.setup_rows = result_rows(results)

    def outcome(self, results, reference):
        stats = self.stub.stats()
        problems = []
        if stats["posts"] != 0:
            problems.append(f"replay issued {stats['posts']} POSTs")
        rows = result_rows(results)
        if rows != self.setup_rows:
            problems.append("replayed results differ from the setup pass")
        return batch_outcome(rows, self.question_ids, self.n, self.served, reference, stats, problems)


WORKLOADS = {cls.name: cls for cls in (SimBatch, AllocateLarge, HttpCold, HttpReplay)}
