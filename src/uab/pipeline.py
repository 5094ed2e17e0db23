"""Two-phase inference orchestration and the baseline allocation policies.

Phase 1 gives every question K samples (K=1 except for vote entropy) and
extracts a difficulty signal from them at no extra cost. An allocation policy
then spends the remaining budget, Phase 2 draws the extra samples, and the
final answer is a majority vote over everything generated, first round
included. Each phase's requests are independent and go to the backend as one
wave (:func:`~uab.backends.generate_wave`).
"""

from __future__ import annotations

import logging
import re
from collections import Counter
from dataclasses import dataclass, field
from enum import Enum
from typing import Dict, List, Mapping, Optional, Sequence, Union

import numpy as np

from . import signals
from .allocation import ThresholdExitConfig, apply_threshold_exits, greedy_allocate, split_evenly
from .backends import (
    BackendError,
    BackendRequest,
    BackendResponse,
    DEFAULT_MAX_TOKENS,
    DEFAULT_SAMPLING_TEMPERATURE,
    JudgeLabel,
    SampleOutput,
    VCS_INSTRUCTION,
    generate_wave,
    judge_classify_all,
)
from .core import (
    AllocationVector,
    BudgetSpec,
    DifficultyEstimate,
    ExperimentResult,
    FinishReason,
    LOGPROB_SIGNALS,
    QuestionRecord,
    SignalKind,
    TaskKind,
    ValidationError,
)

logger = logging.getLogger(__name__)


class Policy(str, Enum):
    UAB = "uab"
    UNIFORM = "uniform"
    RANDOM = "random"
    LENGTH = "length"
    LLM_JUDGE = "llm_judge"


class NoVotesError(ValueError):
    """Every sample abstained, leaving nothing to vote over."""


@dataclass(frozen=True)
class PipelineConfig:
    budget: BudgetSpec
    signal_kind: SignalKind = SignalKind.ANLL
    threshold_exit: ThresholdExitConfig = field(default_factory=ThresholdExitConfig)
    policy: Policy = Policy.UAB
    phase1_samples_k: int = 1
    rng_seed: int = 0
    sampling_temperature: float = DEFAULT_SAMPLING_TEMPERATURE
    max_tokens: int = DEFAULT_MAX_TOKENS

    def __post_init__(self):
        if not 1 <= self.phase1_samples_k <= self.budget.n_per_question:
            raise ValidationError(
                f"phase1_samples_k={self.phase1_samples_k} must be in "
                f"[1, N={self.budget.n_per_question}]"
            )
        if self.signal_kind == SignalKind.VOTE_ENTROPY and self.phase1_samples_k < 2:
            raise ValidationError("vote entropy needs at least K=2 Phase-1 samples")
        if self.phase1_samples_k > 1 and self.signal_kind != SignalKind.VOTE_ENTROPY:
            raise ValidationError("K > 1 Phase-1 samples is only used with vote entropy")
        if self.phase1_samples_k > 1 and self.policy != Policy.UAB:
            # baseline allocation rules assume a single first-round sample
            raise ValidationError(f"policy {self.policy.value} requires K = 1")

    @property
    def phase2_budget(self) -> int:
        """Units left once every question received its K Phase-1 samples."""
        return self.budget.total - self.phase1_samples_k * self.budget.m_questions


@dataclass(frozen=True)
class VoteTally:
    counts: Mapping[str, int]
    winner: str


# ---------------------------------------------------------------------------
# Answer parsing
# ---------------------------------------------------------------------------

_BOXED_MARK = "\\boxed{"
_NUMBER_RE = re.compile(r"-?\d+(?:,\d{3})*(?:\.\d+)?")
_INT_RE = re.compile(r"-?\d+")
_DECIMAL_RE = re.compile(r"-?\d+(?:,\d{3})*\.\d+")
_OPTION_RE = re.compile(r"\b([A-Ja-j])\b")
_TRAILING_PUNCT = ".,;:!?"


def canonicalize_answer(raw: str) -> str:
    """Trim whitespace and trailing punctuation; normalize numeric forms."""
    s = raw.strip().rstrip(_TRAILING_PUNCT).strip()
    compact = s.replace(",", "")
    if _INT_RE.fullmatch(compact):
        return str(int(compact))
    if _DECIMAL_RE.fullmatch(s):
        value = float(compact)
        if value.is_integer():
            return str(int(value))
        return repr(value)
    return s


def _last_boxed(text: str) -> Optional[str]:
    start = text.rfind(_BOXED_MARK)
    if start < 0:
        return None
    depth = 1
    begin = start + len(_BOXED_MARK)
    for j in range(begin, len(text)):
        ch = text[j]
        if ch == "{":
            depth += 1
        elif ch == "}":
            depth -= 1
            if depth == 0:
                return text[begin:j]
    return None


def parse_answer(text: str, task_kind: TaskKind) -> Optional[str]:
    """Extract a canonical answer from raw model output, or None to abstain.

    Open-math answers come from the last ``\\boxed{...}``, else the last
    number-like token; multiple choice takes the last standalone option letter
    A-J, case-normalized.
    """
    if not text:
        return None
    if task_kind == TaskKind.MULTIPLE_CHOICE:
        letters = _OPTION_RE.findall(text)
        return letters[-1].upper() if letters else None
    boxed = _last_boxed(text)
    if boxed is not None:
        canonical = canonicalize_answer(boxed)
        return canonical or None
    numbers = _NUMBER_RE.findall(text)
    if numbers:
        return canonicalize_answer(numbers[-1])
    return None


def majority_vote(parsed_answers: Sequence[Optional[str]]) -> VoteTally:
    """Most frequent answer; ties break to the byte-order earliest string.

    Abstentions (None) do not vote. Raises :class:`NoVotesError` when every
    sample abstained.
    """
    votes = [a for a in parsed_answers if a is not None]
    if not votes:
        raise NoVotesError("no votes")
    counts = Counter(votes)
    top = max(counts.values())
    winner = min(a for a, c in counts.items() if c == top)
    return VoteTally(counts=dict(counts), winner=winner)


def _answer(sample: SampleOutput, task_kind: TaskKind) -> Optional[str]:
    """The answer ``sample`` votes for; None, an abstention, when it errored."""
    if sample.finish_reason == FinishReason.ERROR:
        return None
    return parse_answer(sample.text, task_kind)


# ---------------------------------------------------------------------------
# Difficulty estimation from Phase-1 samples
# ---------------------------------------------------------------------------


def _fallback_estimate(qid: str, kind: SignalKind, temperature: float, why: str) -> DifficultyEstimate:
    logger.info("question %s: %s; using maximum-uncertainty fallback p=%.2f", qid, why,
                signals.VCS_FALLBACK_PROB)
    prob = signals.VCS_FALLBACK_PROB
    return DifficultyEstimate(qid, signals.prob_to_score(prob, temperature), prob, kind)


def _length_scores(questions: Sequence[QuestionRecord]) -> Dict[str, float]:
    """Prompt length min-max normalized over the batch to [0, 1], by question
    id; 0 for every question when all prompts are equally long."""
    lengths = [q.length_chars for q in questions]
    lo, hi = min(lengths), max(lengths)
    span = hi - lo
    return {q.id: (q.length_chars - lo) / span if span > 0 else 0.0 for q in questions}


def estimate_difficulties(
    questions: Sequence[QuestionRecord],
    phase1_samples: Mapping[str, Sequence[SampleOutput]],
    signal_kind: SignalKind,
    temperature: float,
    external_probs: Optional[Mapping[str, float]] = None,
    phase1_answers: Optional[Mapping[str, Sequence[Optional[str]]]] = None,
) -> Dict[str, DifficultyEstimate]:
    """Turn Phase-1 outputs into per-question success-probability estimates.

    ``phase1_answers`` holds, by question, the answers of ``phase1_samples``
    as :func:`_answer` gives them; vote entropy needs them and reads them there
    rather than parse the samples again.
    """
    estimates: Dict[str, DifficultyEstimate] = {}
    if signal_kind == SignalKind.EXTERNAL:
        if external_probs is None:
            raise ValidationError("external signal requires externally supplied probabilities")
        for q in questions:
            if q.id not in external_probs:
                raise ValidationError(f"no external probability for question {q.id!r}")
            p = float(external_probs[q.id])
            # keep the score finite even for p=0 by flooring before the log
            score = signals.prob_to_score(max(p, 1e-300), temperature)
            estimates[q.id] = DifficultyEstimate(q.id, score, p, signal_kind)
        return estimates

    if signal_kind == SignalKind.LENGTH:
        for qid, score in _length_scores(questions).items():
            prob = signals.score_to_prob(score, temperature)
            estimates[qid] = DifficultyEstimate(qid, score, prob, signal_kind)
        return estimates

    for q in questions:
        samples = [s for s in phase1_samples.get(q.id, []) if s.finish_reason != FinishReason.ERROR]
        if signal_kind in LOGPROB_SIGNALS:
            scored = [s.token_logprobs for s in samples if s.token_logprobs]
            if not scored:
                estimates[q.id] = _fallback_estimate(q.id, signal_kind, temperature,
                                                     "no usable logprobs in Phase 1")
                continue
            score = sum(signals.logprob_score(signal_kind, lps) for lps in scored) / len(scored)
            prob = signals.score_to_prob(score, temperature)
            estimates[q.id] = DifficultyEstimate(q.id, score, prob, signal_kind)
        elif signal_kind == SignalKind.VCS:
            if not samples:
                estimates[q.id] = _fallback_estimate(q.id, signal_kind, temperature,
                                                     "no Phase-1 generation")
                continue
            try:
                prob = signals.parse_vcs(samples[0].text)
            except signals.VcsUnparsableError as exc:
                estimates[q.id] = _fallback_estimate(q.id, signal_kind, temperature, str(exc))
                continue
            estimates[q.id] = DifficultyEstimate(
                q.id, signals.prob_to_score(prob, temperature), prob, signal_kind
            )
        elif signal_kind == SignalKind.VOTE_ENTROPY:
            if phase1_answers is None:
                raise ValidationError("vote entropy requires the Phase-1 answers")
            answers = [a for a in phase1_answers[q.id] if a is not None]
            if not answers:
                estimates[q.id] = _fallback_estimate(q.id, signal_kind, temperature,
                                                     "all Phase-1 samples abstained")
                continue
            entropy = signals.vote_entropy(answers)
            prob = signals.score_to_prob(entropy, temperature)
            estimates[q.id] = DifficultyEstimate(q.id, entropy, prob, signal_kind)
        else:
            raise ValidationError(f"cannot estimate difficulty for signal {signal_kind}")
    return estimates


# ---------------------------------------------------------------------------
# Baseline allocation policies
# ---------------------------------------------------------------------------


def allocate_baseline(
    policy: Policy,
    questions: Sequence[QuestionRecord],
    judge_labels: Optional[Mapping[str, JudgeLabel]],
    budget: BudgetSpec,
    rng: np.random.Generator,
) -> AllocationVector:
    """Budget split for the non-adaptive comparison policies.

    Uniform gives every question N-1 extras; random scatters the budget
    i.i.d.; length routes the score-to-probability machinery through a
    min-max-normalized prompt length; the judge policy gives easy questions
    nothing and splits the budget evenly over hard ones (all, if none is hard).
    """
    ids = [q.id for q in questions]
    b_eff = budget.effective
    if policy == Policy.UNIFORM:
        return AllocationVector(split_evenly(ids, b_eff), b_eff)
    if policy == Policy.RANDOM:
        counts = np.bincount(rng.integers(0, len(ids), size=b_eff), minlength=len(ids))
        return AllocationVector({qid: int(c) for qid, c in zip(ids, counts)}, b_eff)
    if policy == Policy.LENGTH:
        probs = {
            qid: signals.score_to_prob(score, budget.temperature)
            for qid, score in _length_scores(questions).items()
        }
        return greedy_allocate(probs, b_eff)
    if policy == Policy.LLM_JUDGE:
        if judge_labels is None:
            raise ValidationError("llm_judge policy requires judge labels")
        hard = [qid for qid in ids if judge_labels.get(qid, JudgeLabel.HARD) == JudgeLabel.HARD]
        extras = dict.fromkeys(ids, 0)
        extras.update(split_evenly(hard or ids, b_eff))
        return AllocationVector(extras, b_eff)
    raise ValidationError(f"policy {policy} has no baseline allocation rule")


# ---------------------------------------------------------------------------
# Two-phase run
# ---------------------------------------------------------------------------


#: What a failed request contributes in place of each sample it asked for.
_ERROR_SAMPLE = SampleOutput("", (), FinishReason.ERROR)


def _samples(request: BackendRequest, outcome: Union[BackendResponse, BackendError]) -> List[SampleOutput]:
    """The samples of one request; a failed request gives error samples."""
    if isinstance(outcome, BackendError):
        logger.warning("generation failed for %s (%s); recording error samples",
                       request.question_id, outcome)
        return [_ERROR_SAMPLE] * request.sample_count
    return outcome.samples


def run_two_phase(
    questions: Sequence[QuestionRecord],
    backend,
    config: PipelineConfig,
    external_probs: Optional[Mapping[str, float]] = None,
) -> List[ExperimentResult]:
    """Run the full two-phase pipeline and return one result per question.

    Every question gets K Phase-1 samples; the difficulty estimate uses those
    samples only. The configured policy then allocates the remaining budget,
    Phase 2 draws the extras, and the majority vote runs over all samples of
    both phases. Samples that errored abstain from the vote; a question whose
    samples all abstained gets the empty-string sentinel and counts incorrect.
    Within a phase, requests go out as one wave of up to the backend's
    ``max_in_flight``; samples are kept per question in request order, so
    results do not depend on that width.
    """
    if not questions:
        raise ValidationError("need at least one question")
    if len(questions) != config.budget.m_questions:
        raise ValidationError(
            f"budget covers {config.budget.m_questions} questions, got {len(questions)}"
        )
    by_id: Dict[str, QuestionRecord] = {}
    for q in questions:
        if q.id in by_id:
            raise ValidationError(f"duplicate question id {q.id!r}")
        by_id[q.id] = q

    k = config.phase1_samples_k
    want_logprobs = config.signal_kind in LOGPROB_SIGNALS
    vcs_mode = config.signal_kind == SignalKind.VCS

    def request(q: QuestionRecord, n: int, first_index: int) -> BackendRequest:
        return BackendRequest(
            question_id=q.id,
            prompt=(q.prompt + "\n\n" + VCS_INSTRUCTION) if vcs_mode else q.prompt,
            sample_count=n,
            sampling_temperature=config.sampling_temperature,
            max_tokens=config.max_tokens,
            want_logprobs=want_logprobs,
            first_sample_index=first_index,
        )

    samples: Dict[str, List[SampleOutput]] = {}
    for req, outcome in generate_wave(backend, (request(q, k, 0) for q in questions)):
        samples[req.question_id] = _samples(req, outcome)
    # each sample is parsed once, here or in Phase 2, for both the vote and
    # the vote-entropy estimate
    answers = {q.id: [_answer(s, q.task_kind) for s in samples[q.id]] for q in questions}

    estimates = estimate_difficulties(
        questions, samples, config.signal_kind, config.budget.temperature, external_probs, answers
    )
    probs = {qid: est.prob for qid, est in estimates.items()}
    # Phase-1 samples are not read past the estimate; freeing them before
    # Phase 2 is drawn lowers a run's peak memory
    del samples

    if config.policy == Policy.UAB:
        _, alloc, _saved = apply_threshold_exits(probs, config.phase2_budget, config.threshold_exit)
    else:
        judge_labels = None
        if config.policy == Policy.LLM_JUDGE:
            judge_labels = dict(zip(by_id, judge_classify_all(questions, backend)))
        rng = np.random.default_rng(config.rng_seed)
        alloc = allocate_baseline(config.policy, questions, judge_labels, config.budget, rng)

    phase2 = (request(q, alloc.extras[q.id], k) for q in questions if alloc.extras.get(q.id, 0) > 0)
    for req, outcome in generate_wave(backend, phase2):
        task_kind = by_id[req.question_id].task_kind
        answers[req.question_id].extend(_answer(s, task_kind) for s in _samples(req, outcome))

    results = []
    for q in questions:
        try:
            final = majority_vote(answers[q.id]).winner
        except NoVotesError:
            final = ""
        correct = None
        if q.gold_answer is not None:
            correct = bool(final) and final == canonicalize_answer(q.gold_answer)
        results.append(
            ExperimentResult(
                question_id=q.id,
                final_answer=final,
                correct=correct,
                samples_used=k + alloc.extras.get(q.id, 0),
                difficulty=estimates[q.id],
                policy=config.policy.value,
            )
        )
    return results
