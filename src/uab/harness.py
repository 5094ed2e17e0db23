"""Experiment runner, metrics, and the self-verification suite.

Runs the pipeline once per seed, persists per-seed JSONL results plus an
aggregate CSV row, and reports the metrics the plots are built from. The
verification suite re-derives the solver guarantees (oracle equivalence, KKT
certificates, sensitivity bounds, telescoping, simulator inversion, the heap
reference) on randomized instances and fails loudly on any violation.
"""

from __future__ import annotations

import csv
import dataclasses
import json
import logging
import math
from dataclasses import dataclass, field
from functools import partial
from pathlib import Path
from typing import List, Optional, Sequence, Tuple

import numpy as np

from .allocation import (
    OPT_TOL,
    _heap_greedy,
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
    generate_wave,
)
from .core import (
    AllocationVector,
    QuestionRecord,
    ValidationError,
    coverage_objective,
    left_sum,
    marginal_gain,
    residual_failure_power,
)
from .pipeline import PipelineConfig, collection_paused, run_two_phase
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
    mx = left_sum(x) / n
    my = left_sum(y) / n
    # the three sums in one pass, each added from the left as left_sum does
    sxx = syy = sxy = 0.0
    for a, b in zip(x, y):
        sxx += (a - mx) ** 2
        syy += (b - my) ** 2
        sxy += (a - mx) * (b - my)
    if sxx == 0 or syy == 0:
        raise ValidationError("undefined correlation: zero variance input")
    return sxy / math.sqrt(sxx * syy)


_encode_str = json.encoder.encode_basestring_ascii
_INF = math.inf


#: ``json.dumps`` as a result line writes each value.
_dumps = partial(json.dumps, ensure_ascii=True, separators=(",", ":"))


def result_json_line(result) -> str:
    """Fixed-order JSON line for one ExperimentResult: the bytes of
    :func:`_dumps` of its seven fields. The exact types a result holds are
    written inline; any other value goes to :func:`_dumps` itself."""
    qid, final, correct, used = result.question_id, result.final_answer, result.correct, result.samples_used
    policy, score, prob = result.policy, result.difficulty.score, result.difficulty.prob
    qid = _encode_str(qid) if type(qid) is str else _dumps(qid)
    policy = _encode_str(policy) if type(policy) is str else _dumps(policy)
    final = _encode_str(final) if type(final) is str else _dumps(final)
    correct = "true" if correct is True else "false" if correct is False else _dumps(correct)
    used = int.__repr__(used) if type(used) is int else _dumps(used)
    score = float.__repr__(score) if type(score) is float and -_INF < score < _INF else _dumps(score)
    prob = float.__repr__(prob) if type(prob) is float and -_INF < prob < _INF else _dumps(prob)
    return (
        f'{{"question_id":{qid},"policy":{policy},"final_answer":{final},"correct":{correct},'
        f'"samples_used":{used},"anll":{score},"p_i":{prob}}}'
    )


def write_results_jsonl(results, path: Path) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.writelines(f"{result_json_line(result)}\n" for result in results)


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
    """The configured backend for one seed; the HTTP one caches under
    ``cache_dir`` if set, keyed by the seed too."""
    if config.backend_kind == "sim":
        return SimulatedBackend(world, run_seed=seed)
    cache = ResponseCache(config.cache_dir) if config.cache_dir else None
    return HttpBackend(config.http, cache=cache, run_seed=seed)


@collection_paused
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
    # every completed seed's results, pooled in order
    scores: List[float] = []
    corrects: List[Optional[bool]] = []
    extras: List[int] = []
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

        # One pass over the results. Coverage is the coverage objective of
        # the realized extras under the estimated probabilities: its terms
        # added from the left in result order, as coverage_objective adds
        # them. The run checked both already: each p came from a checked
        # estimate, and the allocation from the allocator.
        graded = right = issued = 0
        coverage = 0.0
        for r in results:
            used, estimate, correct = r.samples_used, r.difficulty, r.correct
            issued += used
            if correct is not None:
                graded += 1
                right += correct
            coverage += 1.0 - residual_failure_power(estimate.prob, 1 + used - k)
            scores.append(estimate.score)
            corrects.append(correct)
            extras.append(used - k)
        accs.append(right / graded if graded else float("nan"))
        coverages.append(coverage / len(results))
        saved = phase2_budget - (issued - k * len(results))
        saved_pcts.append(100.0 * saved / phase2_budget if phase2_budget > 0 else 0.0)
        issued_total += issued

    if completed == 0:
        raise RuntimeError("every seed failed; see log for details")

    pearson: Optional[float] = None
    graded_scores = [s for s, c in zip(scores, corrects) if c is not None]
    if len(graded_scores) >= 2:
        try:
            pearson = pearson_r(graded_scores, [1.0 if c else 0.0 for c in corrects if c is not None])
        except ValidationError:
            pearson = None

    deciles: Optional[List[float]] = None
    if len(scores) >= 10:
        # a stable sort: equal scores keep pooled order
        order = np.argsort(np.array(scores), kind="stable")
        extras_pooled = np.array(extras)
        deciles = [float(np.mean(extras_pooled[chunk])) for chunk in np.array_split(order, 10)]

    acc_arr = np.asarray(accs, dtype=float)
    # seeds without a graded question have a NaN accuracy and are left out
    graded_seeds = not np.isnan(acc_arr).all()
    report = MetricReport(
        policy=config.pipeline.policy.value,
        n_per_question=config.pipeline.budget.n_per_question,
        seed_count=completed,
        accuracy_mean=float(np.nanmean(acc_arr)) if graded_seeds else float("nan"),
        accuracy_std=float(np.nanstd(acc_arr)) if graded_seeds else float("nan"),
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


def _check_greedy_reference(rng: np.random.Generator) -> CheckResult:
    """The water-filling allocator gives the one-unit-at-a-time heap's
    allocation exactly, tie and underflow rules included: on random, grid-tied
    and underflowing instances. ``worst`` counts the instances that differ."""
    instances = [
        ({"a": 1e-300, "b": 0.7}, 2000),
        ({"a": 0.7, "b": 0.9}, 2000),
        ({"a": 0.0, "b": 1.0, "c": 0.5}, 3000),
        ({"a": 1e-17, "b": 0.3, "c": 1e-17}, 60),
        # many units tied at the price, settled by bisection per shared p
        ({f"q{j}": 1e-30 for j in range(40)}, 500),
        ({f"q{j}": 1e-12 * (1 + (j % 3) * 1e-13) for j in range(40)}, 500),
        ({"a": 0.5, "b": 1e-30, "c": 1e-12, "d": 1e-30}, 3000),
    ]
    for i in range(600):
        m = int(rng.integers(1, 40))
        grid = (None, 10, 100)[i % 3]
        ps = rng.random(m) if grid is None else rng.integers(0, grid + 1, m) / grid
        instances.append(({f"q{j}": float(p) for j, p in enumerate(ps)}, int(rng.integers(0, 300))))
    for _ in range(40):
        # budgets past the last positive gain, which p(1-p)^n reaches by underflow
        ps = rng.choice([0.0, 1.0, 0.5, 0.7, 0.9, 0.99], int(rng.integers(1, 5)))
        instances.append(({f"q{j}": float(p) for j, p in enumerate(ps)}, int(rng.integers(300, 3000))))
    differ = sum(
        greedy_allocate(probs, b).extras != _heap_greedy(probs, b).extras for probs, b in instances
    )
    return CheckResult("greedy_reference", differ == 0, len(instances), float(differ))


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
    for q, p in zip(world.questions, world.p_star.tolist()):
        for out in backend.generate(BackendRequest(q.id, q.prompt, 3)).samples:
            recovered = score_to_prob(anll(out.token_logprobs), world.config.world_temperature)
            worst = max(worst, abs(recovered - p))
            count += 1
    passed = worst <= 1e-9

    corr_world = SimulatedWorld(WorldConfig(m_questions=20, correlation_rho=1.0, rng_seed=3))
    corr_backend = SimulatedBackend(corr_world, run_seed=1)
    for q in corr_world.questions:
        samples = corr_backend.generate(BackendRequest(q.id, q.prompt, 6)).samples
        outcomes = {q.gold_answer in out.text for out in samples}
        count += 6
        if len(outcomes) != 1:
            passed = False
            worst = max(worst, 1.0)
    return CheckResult("simulator_inversion", passed, count, worst)


def _check_simulator_waves(rng: np.random.Generator) -> CheckResult:
    """A wave's samples equal the same requests sent one at a time, in a
    noiseless and a noisy world: the wave goes through :func:`generate_wave`
    in a shuffled order, with judge calls mixed in. ``worst`` counts the
    requests that got other samples (or another label)."""
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
        expected = {r: one_at_a_time.generate(r).samples for r in calls}
        shuffled = [calls[i] for i in rng.permutation(len(calls))]
        for request, outcome in generate_wave(SimulatedBackend(world, run_seed=3), shuffled):
            differ += outcome.samples != expected[request]
            count += request.sample_count
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
        _check_greedy_reference(rng),
    ]
    report = VerificationReport(checks)
    if verbose:
        for check in checks:
            print(check.line())
        print("verification:", "all checks passed" if report.all_passed else "FAILURES present")
    return report
