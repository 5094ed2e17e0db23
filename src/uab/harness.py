"""Experiment runner, metrics, and the self-verification suite.

Runs the pipeline once per seed, persists per-seed JSONL results plus an
aggregate CSV row, and reports the metrics the plots are built from. The
verification suite re-derives the solver guarantees (oracle equivalence, KKT
certificates, sensitivity bounds, telescoping, simulator inversion) on
randomized instances and fails loudly on any violation.
"""

from __future__ import annotations

import csv
import dataclasses
import json
import logging
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import List, Optional, Sequence, Tuple

import numpy as np

from .allocation import (
    OPT_TOL,
    dp_allocate_exact,
    greedy_allocate,
    regret_bound_check,
    sensitivity_gap,
    verify_kkt,
)
from .backends import (
    BackendRequest,
    HttpBackend,
    HttpBackendConfig,
    ResponseCache,
    SimulatedBackend,
    SimulatedWorld,
    WorldConfig,
)
from .core import (
    AllocationVector,
    QuestionRecord,
    ValidationError,
    coverage_objective,
    marginal_gain,
)
from .pipeline import PipelineConfig, run_two_phase
from .signals import anll, score_to_prob

logger = logging.getLogger(__name__)

AGGREGATE_CSV_HEADER = ["policy", "N", "seed_count", "acc_mean", "acc_std", "coverage_mean", "saved_pct"]


@dataclass(frozen=True)
class ExperimentConfig:
    pipeline: PipelineConfig
    backend_kind: str = "sim"  # "sim" or "http"
    world: Optional[WorldConfig] = None
    http: Optional[HttpBackendConfig] = None
    questions: Optional[Sequence[QuestionRecord]] = None
    cache_dir: Optional[Path] = None
    seeds: Tuple[int, ...] = (0, 1, 2)
    output_dir: Path = Path("results")

    def __post_init__(self):
        if not self.seeds:
            raise ValidationError("need at least one seed")
        if self.backend_kind not in ("sim", "http"):
            raise ValidationError(f"backend_kind must be 'sim' or 'http', got {self.backend_kind!r}")
        if self.backend_kind == "sim" and self.world is None:
            raise ValidationError("simulated backend needs a WorldConfig")
        if self.backend_kind == "http" and (self.http is None or self.questions is None):
            raise ValidationError("http backend needs connection settings and a question list")
        object.__setattr__(self, "output_dir", Path(self.output_dir))


@dataclass
class MetricReport:
    policy: str
    n_per_question: int
    seed_count: int
    accuracy_mean: float
    accuracy_std: float
    coverage_mean: float
    samples_issued: int
    budget_saved_pct: float
    anll_correctness_pearson: Optional[float] = None
    per_decile_allocation: Optional[List[float]] = None
    per_seed_accuracy: List[float] = field(default_factory=list)


def pearson_r(x: Sequence[float], y: Sequence[float]) -> float:
    """Pearson correlation coefficient; errors out on degenerate input."""
    if len(x) != len(y):
        raise ValidationError("x and y must have equal length")
    n = len(x)
    if n < 2:
        raise ValidationError("need at least two points")
    mx = sum(x) / n
    my = sum(y) / n
    sxx = sum((a - mx) ** 2 for a in x)
    syy = sum((b - my) ** 2 for b in y)
    if sxx == 0 or syy == 0:
        raise ValidationError("undefined correlation: zero variance input")
    sxy = sum((a - mx) * (b - my) for a, b in zip(x, y))
    return sxy / math.sqrt(sxx * syy)


def result_json_line(result) -> str:
    """Fixed-order JSON line for one ExperimentResult."""
    payload = {
        "question_id": result.question_id,
        "policy": result.policy,
        "final_answer": result.final_answer,
        "correct": result.correct,
        "samples_used": result.samples_used,
        "anll": result.difficulty.score,
        "p_i": result.difficulty.prob,
    }
    return json.dumps(payload, ensure_ascii=True, separators=(",", ":"))


def write_results_jsonl(results, path: Path) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for result in results:
            fh.write(result_json_line(result))
            fh.write("\n")


def append_aggregate_row(report: MetricReport, path: Path) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    fresh = not path.exists()
    with open(path, "a", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        if fresh:
            writer.writerow(AGGREGATE_CSV_HEADER)
        # full repr so the row reproduces the per-seed means exactly
        writer.writerow(
            [
                report.policy,
                report.n_per_question,
                report.seed_count,
                repr(report.accuracy_mean),
                repr(report.accuracy_std),
                repr(report.coverage_mean),
                repr(report.budget_saved_pct),
            ]
        )


def experiment_inputs(config: ExperimentConfig) -> Tuple[Optional[SimulatedWorld], List[QuestionRecord]]:
    """The simulated world (sim backend only) and the questions it runs over."""
    world = SimulatedWorld(config.world) if config.backend_kind == "sim" else None
    questions = world.questions if world is not None else list(config.questions)
    return world, questions


def build_backend(config: ExperimentConfig, world: Optional[SimulatedWorld], seed: int):
    """The configured backend for one seed; the HTTP one caches under ``cache_dir`` if set."""
    if config.backend_kind == "sim":
        return SimulatedBackend(world, run_seed=seed)
    cache = ResponseCache(config.cache_dir) if config.cache_dir else None
    return HttpBackend(config.http, cache=cache)


def run_experiment(config: ExperimentConfig) -> MetricReport:
    """Run the configured pipeline once per seed and aggregate the metrics.

    Writes ``<policy>_seed<seed>.jsonl`` per seed plus one row in
    ``aggregate.csv`` under the output directory. Coverage is the value of the
    coverage objective under the estimated probabilities, normalized per
    question so it is comparable to accuracy.
    """
    out_dir = Path(config.output_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    world, questions = experiment_inputs(config)
    if len(questions) != config.pipeline.budget.m_questions:
        raise ValidationError(
            f"budget covers {config.pipeline.budget.m_questions} questions, "
            f"got {len(questions)}"
        )

    k = config.pipeline.phase1_samples_k
    phase2_budget = config.pipeline.phase2_budget
    accs: List[float] = []
    coverages: List[float] = []
    saved_pcts: List[float] = []
    issued_total = 0
    pooled: List[Tuple[float, Optional[bool], int]] = []  # (score, correct, extras)
    completed = 0

    for seed in config.seeds:
        backend = build_backend(config, world, seed)
        pipeline_cfg = dataclasses.replace(config.pipeline, rng_seed=seed)
        try:
            results = run_two_phase(questions, backend, pipeline_cfg)
        except Exception:
            logger.exception("seed %d failed", seed)
            continue
        completed += 1
        write_results_jsonl(results, out_dir / f"{pipeline_cfg.policy.value}_seed{seed}.jsonl")

        graded = [r for r in results if r.correct is not None]
        accs.append(sum(1.0 for r in graded if r.correct) / len(graded) if graded else float("nan"))
        extras = {r.question_id: r.samples_used - k for r in results}
        probs = {r.question_id: r.difficulty.prob for r in results}
        alloc = AllocationVector(extras, phase2_budget)
        coverages.append(coverage_objective(alloc, probs) / len(results))
        saved = phase2_budget - alloc.total_extras()
        saved_pcts.append(100.0 * saved / phase2_budget if phase2_budget > 0 else 0.0)
        issued_total += sum(r.samples_used for r in results)
        for r in results:
            pooled.append((r.difficulty.score, r.correct, r.samples_used - k))

    if completed == 0:
        raise RuntimeError("every seed failed; see log for details")

    pearson: Optional[float] = None
    graded_pool = [(s, 1.0 if c else 0.0) for s, c, _ in pooled if c is not None]
    if len(graded_pool) >= 2:
        try:
            pearson = pearson_r([s for s, _ in graded_pool], [c for _, c in graded_pool])
        except ValidationError:
            pearson = None

    deciles: Optional[List[float]] = None
    if len(pooled) >= 10:
        order = sorted(range(len(pooled)), key=lambda i: (pooled[i][0], i))
        bins = np.array_split(np.asarray(order), 10)
        deciles = [float(np.mean([pooled[i][2] for i in chunk])) for chunk in bins]

    acc_arr = np.asarray(accs, dtype=float)
    report = MetricReport(
        policy=config.pipeline.policy.value,
        n_per_question=config.pipeline.budget.n_per_question,
        seed_count=completed,
        accuracy_mean=float(np.nanmean(acc_arr)) if len(acc_arr) else float("nan"),
        accuracy_std=float(np.nanstd(acc_arr)) if len(acc_arr) else float("nan"),
        coverage_mean=float(np.mean(coverages)),
        samples_issued=issued_total,
        budget_saved_pct=float(np.mean(saved_pcts)),
        anll_correctness_pearson=pearson,
        per_decile_allocation=deciles,
        per_seed_accuracy=accs,
    )
    append_aggregate_row(report, out_dir / "aggregate.csv")
    if completed < len(config.seeds):
        raise PartialRunError(report, len(config.seeds) - completed)
    return report


class PartialRunError(RuntimeError):
    """Some seeds failed; the report covers the completed ones."""

    def __init__(self, report: MetricReport, failed_seeds: int):
        super().__init__(f"{failed_seeds} seed(s) failed; report covers {report.seed_count}")
        self.report = report
        self.failed_seeds = failed_seeds


# ---------------------------------------------------------------------------
# Verification suite
# ---------------------------------------------------------------------------


@dataclass
class CheckResult:
    name: str
    passed: bool
    instances: int
    worst: float

    def line(self) -> str:
        status = "pass" if self.passed else "FAIL"
        return f"{self.name}: {status} ({self.instances} instances, worst slack {self.worst:.3e})"


@dataclass
class VerificationReport:
    checks: List[CheckResult]

    @property
    def all_passed(self) -> bool:
        return all(c.passed for c in self.checks)


def _check_oracle_equivalence(rng: np.random.Generator) -> CheckResult:
    worst = 0.0
    count = 0
    grid = [i / 4 for i in range(5)]
    for m in (1, 2, 3):
        vectors = [[]]
        for _ in range(m):
            vectors = [v + [g] for v in vectors for g in grid]
        for ps in vectors:
            for b in range(0, 9, 2):
                probs = {f"q{i}": p for i, p in enumerate(ps)}
                jg = coverage_objective(greedy_allocate(probs, b), probs)
                jd = coverage_objective(dp_allocate_exact(probs, b), probs)
                worst = max(worst, abs(jg - jd))
                count += 1
    for _ in range(600):
        m = int(rng.integers(4, 7))
        b = int(rng.integers(0, 13))
        probs = {f"q{i}": float(rng.integers(0, 11)) / 10 for i in range(m)}
        jg = coverage_objective(greedy_allocate(probs, b), probs)
        jd = coverage_objective(dp_allocate_exact(probs, b), probs)
        worst = max(worst, abs(jg - jd))
        count += 1
    return CheckResult("oracle_equivalence", worst <= OPT_TOL, count, worst)


def _check_kkt(rng: np.random.Generator) -> CheckResult:
    worst = float("-inf")
    count = 0
    ok = True
    for _ in range(1000):
        m = int(rng.integers(1, 51))
        b = int(rng.integers(0, 201))
        probs = {f"q{i}": float(rng.random()) for i in range(m)}
        alloc = greedy_allocate(probs, b)
        cert = verify_kkt(alloc, probs)
        ok = ok and cert.satisfied
        drops = [marginal_gain(probs[q], e) for q, e in alloc.extras.items() if e > 0]
        if drops:
            worst = max(worst, cert.lambda_star - min(drops))
        count += 1
    if worst == float("-inf"):
        worst = 0.0
    return CheckResult("kkt_certification", ok and worst <= OPT_TOL, count, worst)


def _check_sensitivity(rng: np.random.Generator) -> CheckResult:
    worst = float("-inf")
    count = 0
    for _ in range(1000):
        m = int(rng.integers(1, 31))
        b = int(rng.integers(0, 61))
        eps = float(rng.choice([0.01, 0.05, 0.1]))
        truth = {f"q{i}": float(rng.random()) for i in range(m)}
        est = {q: float(np.clip(p + rng.uniform(-eps, eps), 0, 1)) for q, p in truth.items()}
        alloc = greedy_allocate(est, b)
        gap, bound = sensitivity_gap(alloc, truth, est)
        worst = max(worst, gap - bound)
        count += 1
    return CheckResult("sensitivity_bound", worst <= OPT_TOL, count, worst)


def _check_regret(rng: np.random.Generator) -> CheckResult:
    worst = float("-inf")
    count = 0
    for _ in range(200):
        m = int(rng.integers(1, 11))
        b = int(rng.integers(0, 41))
        eps = float(rng.choice([0.01, 0.05, 0.1]))
        truth = {f"q{i}": float(rng.random()) for i in range(m)}
        est = {q: float(np.clip(p + rng.uniform(-eps, eps), 0, 1)) for q, p in truth.items()}
        regret, bound = regret_bound_check(truth, est, b)
        worst = max(worst, regret - bound)
        count += 1
    return CheckResult("regret_bound", worst <= OPT_TOL, count, worst)


def _check_telescoping(rng: np.random.Generator) -> CheckResult:
    worst = 0.0
    count = 0
    for _ in range(2000):
        p = float(rng.random())
        e = int(rng.integers(0, 12))
        probs = {"q": p}
        j0 = coverage_objective(AllocationVector({"q": e}, e), probs)
        j1 = coverage_objective(AllocationVector({"q": e + 1}, e + 1), probs)
        worst = max(worst, abs((j1 - j0) - marginal_gain(p, 1 + e)))
        count += 1
    return CheckResult("telescoping_identity", worst <= OPT_TOL, count, worst)


def _check_simulator_inversion(rng: np.random.Generator) -> CheckResult:
    world = SimulatedWorld(
        WorldConfig(m_questions=40, signal_noise_sigma=0.0, rng_seed=int(rng.integers(0, 2**31)))
    )
    backend = SimulatedBackend(world, run_seed=7)
    worst = 0.0
    count = 0
    for q in world.questions:
        for s in range(3):
            out = backend.sample_outcome(q.id, s)
            recovered = score_to_prob(anll(out.token_logprobs), world.config.world_temperature)
            worst = max(worst, abs(recovered - world.p_star[q.id]))
            count += 1
    passed = worst <= 1e-9

    corr_world = SimulatedWorld(WorldConfig(m_questions=20, correlation_rho=1.0, rng_seed=3))
    corr_backend = SimulatedBackend(corr_world, run_seed=1)
    for q in corr_world.questions:
        gold = corr_world.gold[q.id]
        outcomes = {gold in corr_backend.sample_outcome(q.id, s).text for s in range(6)}
        count += 6
        if len(outcomes) != 1:
            passed = False
            worst = max(worst, 1.0)
    return CheckResult("simulator_inversion", passed, count, worst)


def _check_simulator_waves(rng: np.random.Generator) -> CheckResult:
    """Samples drawn as one wave equal the same requests drawn one at a time,
    in a noiseless and a noisy world: the wave is prepared in one shuffled
    order and generated in another, with judge calls mixed in. ``worst``
    counts the requests that got other samples (or another label)."""
    count = 0
    differ = 0
    for sigma in (0.0, 0.15):
        world = SimulatedWorld(WorldConfig(
            m_questions=300, signal_noise_sigma=sigma, correlation_rho=0.3,
            rng_seed=int(rng.integers(0, 2**31)),
        ))
        # scattered questions and sample indices, as Phase 2 asks for them
        calls = [
            BackendRequest(q.id, q.prompt, int(rng.integers(1, 4)), first_sample_index=int(rng.integers(0, 6)))
            for q in world.questions
            if rng.random() < 0.5
        ] + [BackendRequest(q.id, q.prompt, 1, judge=True) for q in world.questions[::10]]
        one_at_a_time = SimulatedBackend(world, run_seed=3)
        expected = [one_at_a_time.generate(r).samples for r in calls]
        wave = SimulatedBackend(world, run_seed=3)
        wave.prepare_wave([calls[i] for i in rng.permutation(len(calls))])
        for i in rng.permutation(len(calls)).tolist():
            samples = wave.generate(calls[i]).samples
            differ += samples != expected[i]
            count += len(samples)
    return CheckResult("simulator_waves", differ == 0, count, float(differ))


def verify_suite(rng_seed: int = 0, verbose: bool = True) -> VerificationReport:
    """Run every solver and simulator guarantee check; nonzero exit via CLI."""
    rng = np.random.default_rng(rng_seed)
    checks = [
        _check_oracle_equivalence(rng),
        _check_kkt(rng),
        _check_sensitivity(rng),
        _check_regret(rng),
        _check_telescoping(rng),
        _check_simulator_inversion(rng),
        _check_simulator_waves(rng),
    ]
    report = VerificationReport(checks)
    if verbose:
        for check in checks:
            print(check.line())
        print("verification:", "all checks passed" if report.all_passed else "FAILURES present")
    return report
