"""Two-phase inference orchestration and the baseline allocation policies.

Phase 1 gives every question K samples (K=1 except for vote entropy) and
extracts a difficulty signal from them at no extra cost. An allocation policy
then spends the remaining budget, Phase 2 draws the extra samples, and the
final answer is a majority vote over everything generated, first round
included. Each phase's requests are independent and go to the backend as one
wave (:func:`~uab.backends.generate_wave`).
"""

from __future__ import annotations

import functools
import gc
import logging
import math
import re
from dataclasses import dataclass, field
from enum import Enum
from typing import Callable, Dict, Iterable, List, Mapping, NamedTuple, Optional, Sequence, TypeVar

import numpy as np

from . import signals
from .allocation import ExitKind, ThresholdExitConfig, apply_threshold_exits, greedy_allocate, split_evenly
from .backends import (
    BackendError,
    BackendRequest,
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
    QuestionRecord,
    SignalKind,
    TaskKind,
    ValidationError,
    _new_tuple,
)
from .signals import LOGPROB_SIGNALS

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
        if self.threshold_exit.exit_kind != ExitKind.NONE and self.policy != Policy.UAB:
            # the comparison policies spend the whole budget by their own rules
            raise ValidationError(f"policy {self.policy.value} takes no threshold exit")
        # written so that NaN fails too; an HTTP request body cannot encode it
        if not 0.0 <= self.sampling_temperature < math.inf:
            raise ValidationError(f"sampling_temperature must be finite and >= 0, got {self.sampling_temperature}")
        if self.max_tokens < 1:
            raise ValidationError(f"max_tokens must be >= 1, got {self.max_tokens}")

    @property
    def phase2_budget(self) -> int:
        """Units left once every question received its K Phase-1 samples."""
        return self.budget.total - self.phase1_samples_k * self.budget.m_questions


class VoteTally(NamedTuple):
    """The vote counts by answer, in first-vote order, and the winning answer:
    a tuple of the two, which unpacks and compares equal to a tuple of the
    same values."""

    counts: Mapping[str, int]
    winner: str


# ---------------------------------------------------------------------------
# Answer parsing
# ---------------------------------------------------------------------------

_BOXED_MARK = "\\boxed{"
_BOXED_LEN = len(_BOXED_MARK)
_NUMBER_RE = re.compile(r"-?\d+(?:,\d{3})*(?:\.\d+)?")
_INT_RE = re.compile(r"-?\d+")
_DECIMAL_RE = re.compile(r"-?\d+(?:,\d{3})*\.\d+")
_OPTION_RE = re.compile(r"\b([A-Ja-j])\b")
#: Read once per sample: a module constant is cheaper to reach than the member.
_MULTIPLE_CHOICE = TaskKind.MULTIPLE_CHOICE
_TRAILING_PUNCT = ".,;:!?"


def canonicalize_answer(raw: str) -> str:
    """Trim whitespace and trailing punctuation; normalize numeric forms.
    Idempotent; an integer too long for :func:`int` keeps its digits."""
    s = raw.strip()
    # until neither punctuation nor whitespace ends it: "x. ." is "x"
    while s and s[-1] in _TRAILING_PUNCT:
        s = s.rstrip(_TRAILING_PUNCT).rstrip()
    compact = s.replace(",", "")
    if _INT_RE.fullmatch(compact):
        try:
            return str(int(compact))
        except ValueError:
            return compact
    if _DECIMAL_RE.fullmatch(s):
        value = float(compact)
        if value.is_integer():
            return str(int(value))
        return repr(value)
    return s


def _nested_span(text: str, begin: int) -> Optional[str]:
    """The text from ``begin`` to the ``}`` that closes the brace opened just
    before it, counting nested braces; None when it does not close."""
    depth = 1
    for j in range(begin, len(text)):
        ch = text[j]
        if ch == "{":
            depth += 1
        elif ch == "}":
            depth -= 1
            if depth == 0:
                return text[begin:j]
    return None


def _canonical(span: str, memo: Dict[str, str]) -> str:
    """``canonicalize_answer(span)``, looked up in ``memo`` and added to it on
    a miss."""
    canonical = memo.get(span)
    if canonical is None:
        canonical = memo[span] = canonicalize_answer(span)
    return canonical


def parse_answer(text: str, task_kind: TaskKind, memo: Optional[Dict[str, str]] = None) -> Optional[str]:
    """Extract a canonical answer from raw model output, or None to abstain.

    Open-math answers come from the last ``\\boxed{...}``, when its braces
    close, else from the last number-like token; multiple choice takes the last
    standalone option letter A-J, case-normalized. ``memo``, when given, maps
    each open-math span already seen to its :func:`canonicalize_answer` form,
    so that a span that recurs across samples is canonicalized once; the
    result is the same with or without it.
    """
    if not text:
        return None
    if task_kind == _MULTIPLE_CHOICE:
        letters = _OPTION_RE.findall(text)
        return letters[-1].upper() if letters else None
    span = None
    begin = text.rfind(_BOXED_MARK)
    if begin >= 0:
        begin += _BOXED_LEN
        end = text.find("}", begin)
        if end >= 0:
            span = text[begin:end] if text.find("{", begin, end) < 0 else _nested_span(text, begin)
    if span is None:
        numbers = _NUMBER_RE.findall(text)
        if not numbers:
            return None
        span = numbers[-1]
    # _canonical, inline: this runs once per sample
    if memo is None:
        return canonicalize_answer(span) or None
    canonical = memo.get(span)
    if canonical is None:
        canonical = memo[span] = canonicalize_answer(span)
    return canonical or None


def _winner(counts: Mapping[str, int]) -> str:
    """The answer with the top count; ties break to the byte-order earliest
    string. Raises :class:`NoVotesError` when there are no votes."""
    winner, top = None, 0
    for answer, count in counts.items():
        if count > top or (count == top and answer < winner):
            winner, top = answer, count
    if winner is None:
        raise NoVotesError("no votes")
    return winner


def majority_vote(parsed_answers: Sequence[Optional[str]]) -> VoteTally:
    """Most frequent answer; ties break to the byte-order earliest string.

    Abstentions (None) do not vote. Raises :class:`NoVotesError` when every
    sample abstained.
    """
    counts: Dict[str, int] = {}  # in first-vote order
    for answer in parsed_answers:
        if answer is not None:
            counts[answer] = counts.get(answer, 0) + 1
    return VoteTally(counts, _winner(counts))


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
    phase1_votes: Mapping[str, Mapping[str, int]],
    signal_kind: SignalKind,
    temperature: float,
) -> Dict[str, DifficultyEstimate]:
    """Turn Phase-1 outputs into per-question success-probability estimates.

    ``phase1_votes`` holds, by question, the vote counts of
    ``phase1_samples`` in first-vote order, as a run tallies them
    (abstentions cast no vote); only vote entropy reads them, rather than
    parse the samples again. A question with no usable signal (no samples or
    votes, no logprobs, an unparsable confidence rating, only abstentions)
    gets the maximum-uncertainty fallback p = 0.5; one WARNING says how many
    did and why.
    """
    estimates: Dict[str, DifficultyEstimate] = {}
    fallbacks: Dict[str, int] = {}

    def fallback(qid: str, why: str) -> DifficultyEstimate:
        fallbacks[why] = fallbacks.get(why, 0) + 1
        return _fallback_estimate(qid, signal_kind, temperature, why)

    # score_to_prob checks each score, so the estimates built from one skip
    # the constructor's checks
    if signal_kind in LOGPROB_SIGNALS:
        logprob_score, score_to_prob, error = signals.logprob_score, signals.score_to_prob, FinishReason.ERROR
        for q in questions:
            qid = q.id
            # the mean score of the samples with logprobs, summed from the left
            total, scored = 0.0, 0
            for sample in phase1_samples.get(qid, ()):
                if sample.token_logprobs and sample.finish_reason != error:
                    total += logprob_score(signal_kind, sample.token_logprobs)
                    scored += 1
            if not scored:
                estimates[qid] = fallback(qid, "no usable logprobs in Phase 1")
                continue
            score = total / scored
            prob = score_to_prob(score, temperature)
            estimates[qid] = _new_tuple(DifficultyEstimate, (qid, score, prob, signal_kind))
    elif signal_kind == SignalKind.VCS:
        for q in questions:
            texts = [s.text for s in phase1_samples.get(q.id, ()) if s.finish_reason != FinishReason.ERROR]
            if not texts:
                estimates[q.id] = fallback(q.id, "no Phase-1 generation")
                continue
            try:
                prob = signals.parse_vcs(texts[0])
            except signals.VcsUnparsableError as exc:
                estimates[q.id] = fallback(q.id, str(exc))
                continue
            estimates[q.id] = DifficultyEstimate(q.id, signals.prob_to_score(prob, temperature), prob, signal_kind)
    elif signal_kind == SignalKind.VOTE_ENTROPY:
        for q in questions:
            counts = phase1_votes.get(q.id)
            if counts is None:
                estimates[q.id] = fallback(q.id, "no Phase-1 answers")
                continue
            if not counts:
                estimates[q.id] = fallback(q.id, "all Phase-1 samples abstained")
                continue
            entropy = signals.tally_entropy(counts.values())
            estimates[q.id] = _new_tuple(
                DifficultyEstimate, (q.id, entropy, signals.score_to_prob(entropy, temperature), signal_kind)
            )
    else:
        raise ValidationError(f"cannot estimate difficulty for signal {signal_kind}")
    if fallbacks:
        logger.warning(
            "%d of %d questions have no usable %s signal and use the fallback p=%.2f: %s",
            sum(fallbacks.values()), len(questions), SignalKind(signal_kind).value, signals.VCS_FALLBACK_PROB,
            "; ".join(f"{why} ({count})" for why, count in fallbacks.items()),
        )
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

_F = TypeVar("_F", bound=Callable)


def collection_paused(func: _F) -> _F:
    """``func`` with the garbage collector's automatic passes off while it
    runs, and the caller's :func:`gc.isenabled` state restored on every exit,
    exceptions included. Nesting is safe: an inner call finds collection off
    and leaves it off.

    A run allocates an object or more per sample and keeps most of them until
    it returns, so automatic passes keep scanning live objects; and a run
    makes no reference cycles, so those passes free nothing. Without them
    every object a run leaves behind is still freed by its reference count.
    The tests pin that a run leaves no cyclic garbage (``gc.collect()`` finds
    none after one with collection off). No pass is forced, and thresholds
    and :func:`gc.freeze` are left alone.

    The collector's state is one per process. Runs that overlap in threads
    share it: a run that finishes turns collection back on if it was on when
    that run started, so another run still going may lose its pause. Its
    results are the same either way; only its time changes.
    """

    @functools.wraps(func)
    def paused(*args, **kwargs):
        enabled = gc.isenabled()
        gc.disable()
        try:
            return func(*args, **kwargs)
        finally:
            if enabled:
                gc.enable()

    return paused


def _tally_wave(
    backend,
    requests: Iterable[BackendRequest],
    by_id: Mapping[str, QuestionRecord],
    tallies: Dict[str, Dict[str, int]],
    memo: Dict[str, str],
    kept: Optional[Dict[str, List[SampleOutput]]] = None,
) -> None:
    """Send ``requests`` as one wave and count each sample's vote in its
    question's tally as its request comes back.

    A tally keeps first-vote order, as :func:`majority_vote`'s does. Each sample
    that did not error is parsed once, with ``memo``; one that errored, or
    whose answer is None, casts no vote, and a failed request adds no
    samples. ``kept``, when given, also keeps each request's samples by
    question.
    """
    error = FinishReason.ERROR
    for req, outcome in generate_wave(backend, requests):
        qid = req.question_id
        if isinstance(outcome, BackendError):
            # the message, not the error: a handler that keeps records would
            # keep the error's traceback, and the backend in its frames
            logger.warning("generation failed for %s (%s); it contributes no samples", qid, str(outcome))
            got = []
        else:
            got = outcome.samples
        if kept is not None:
            kept[qid] = got
        counts = tallies.get(qid)
        if counts is None:
            counts = tallies[qid] = {}
        task_kind = by_id[qid].task_kind
        for sample in got:
            if sample.finish_reason != error:
                answer = parse_answer(sample.text, task_kind, memo)
                if answer is not None:
                    counts[answer] = counts.get(answer, 0) + 1


@collection_paused
def run_two_phase(
    questions: Sequence[QuestionRecord],
    backend,
    config: PipelineConfig,
) -> List[ExperimentResult]:
    """Run the full two-phase pipeline and return one result per question.

    Every question gets K Phase-1 samples; the difficulty estimate uses those
    samples only. The configured policy then allocates the remaining budget,
    Phase 2 draws the extras, and the majority vote runs over all samples of
    both phases. Samples that errored abstain from the vote, and a failed
    request adds none; a question without a vote gets the empty-string
    sentinel and counts incorrect. Only Phase-1 requests ask for logprobs,
    as only the estimate reads them.
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
    vcs_mode = config.signal_kind == SignalKind.VCS
    temperature, max_tokens = config.sampling_temperature, config.max_tokens

    def request(q: QuestionRecord, n: int, first_index: int, want_logprobs: bool) -> BackendRequest:
        # The fields, in order: question_id, prompt, sample_count,
        # sampling_temperature, max_tokens, want_logprobs,
        # first_sample_index, judge. PipelineConfig and the Phase-2 filter
        # keep n >= 1, so the record skips the constructor's checks.
        prompt = (q.prompt + "\n\n" + VCS_INSTRUCTION) if vcs_mode else q.prompt
        return _new_tuple(BackendRequest, (q.id, prompt, n, temperature, max_tokens, want_logprobs, first_index, False))

    # Each sample is parsed once, as its request comes back, and its vote
    # counted in its question's tally at once; vote entropy reads the Phase-1
    # tallies. Samples repeat a few short answer spans, so each distinct span
    # is canonicalized once, for the run's samples and gold answers alike.
    memo: Dict[str, str] = {}
    samples: Dict[str, List[SampleOutput]] = {}
    tallies: Dict[str, Dict[str, int]] = {}
    # only the estimate reads logprobs, and it reads Phase 1 only
    logprobs = config.signal_kind in LOGPROB_SIGNALS
    _tally_wave(backend, (request(q, k, 0, logprobs) for q in questions), by_id, tallies, memo, samples)

    estimates = estimate_difficulties(questions, samples, tallies, config.signal_kind, config.budget.temperature)
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

    extras = alloc.extras
    phase2 = (request(q, extras[q.id], k, False) for q in questions if extras.get(q.id, 0) > 0)
    _tally_wave(backend, phase2, by_id, tallies, memo)

    # every result uses K + extras >= 1 samples, so the records skip the
    # constructor's check
    results = []
    policy = config.policy.value
    for q in questions:
        counts = tallies[q.id]
        final = _winner(counts) if counts else ""
        correct = None
        gold = q.gold_answer
        if gold is not None:
            correct = bool(final) and final == _canonical(gold, memo)
        results.append(_new_tuple(ExperimentResult,
                                  (q.id, final, correct, k + extras.get(q.id, 0), estimates[q.id], policy)))
    return results
