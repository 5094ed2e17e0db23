"""Shared domain types and the coverage-objective arithmetic.

Everything here is an immutable value object or a pure function, so all of it
is safe to use from concurrent code without locking.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from enum import Enum
from typing import Mapping, Optional


class ValidationError(ValueError):
    """An input violated a documented precondition."""


class MissingProbabilityError(ValidationError):
    """An allocated question id has no success probability."""

    def __init__(self, question_id: str):
        super().__init__(f"no success probability for question {question_id!r}")
        self.question_id = question_id


class TaskKind(str, Enum):
    OPEN_MATH = "open_math"
    MULTIPLE_CHOICE = "multiple_choice"


class SignalKind(str, Enum):
    ANLL = "anll"
    TOTAL_NLL = "total_nll"
    TOKEN_VAR = "token_var"
    MAX_TOKEN_NLL = "max_token_nll"
    VCS = "vcs"
    VOTE_ENTROPY = "vote_entropy"
    LENGTH = "length"
    EXTERNAL = "external"


#: Signals computed from per-token log-probabilities of a generation.
LOGPROB_SIGNALS = frozenset(
    {SignalKind.ANLL, SignalKind.TOTAL_NLL, SignalKind.TOKEN_VAR, SignalKind.MAX_TOKEN_NLL}
)


class FinishReason(str, Enum):
    STOP = "stop"
    LENGTH = "length"
    ERROR = "error"


@dataclass(frozen=True)
class QuestionRecord:
    """One input question. ``length_chars`` always equals ``len(prompt)``."""

    id: str
    prompt: str
    gold_answer: Optional[str] = None
    task_kind: TaskKind = TaskKind.OPEN_MATH
    length_chars: int = -1

    def __post_init__(self):
        if not self.id:
            raise ValidationError("question id must be nonempty")
        if self.length_chars < 0:
            object.__setattr__(self, "length_chars", len(self.prompt))
        elif self.length_chars != len(self.prompt):
            raise ValidationError(
                f"length_chars={self.length_chars} does not match prompt length {len(self.prompt)}"
            )


@dataclass(frozen=True)
class DifficultyEstimate:
    """Per-question difficulty score and derived per-sample success probability."""

    question_id: str
    score: float
    prob: float
    signal_kind: SignalKind

    def __post_init__(self):
        if not math.isfinite(self.score) or self.score < 0:
            raise ValidationError(f"difficulty score must be finite and >= 0, got {self.score}")
        if not 0.0 <= self.prob <= 1.0:
            raise ValidationError(f"success probability must be in [0, 1], got {self.prob}")


@dataclass(frozen=True)
class BudgetSpec:
    """Sampling budget: N samples per question over M questions.

    ``total`` is N*M and ``effective`` is the Phase-2 budget (N-1)*M left after
    every question receives its guaranteed first sample. ``temperature`` is the
    sharpness of the score-to-probability map (not the sampling temperature).
    """

    n_per_question: int
    m_questions: int
    temperature: float = 0.2

    def __post_init__(self):
        if self.n_per_question < 1:
            raise ValidationError("n_per_question must be >= 1")
        if self.m_questions < 1:
            raise ValidationError("m_questions must be >= 1")
        if not self.temperature > 0:
            raise ValidationError("temperature must be > 0")

    @property
    def total(self) -> int:
        return self.n_per_question * self.m_questions

    @property
    def effective(self) -> int:
        return self.total - self.m_questions


@dataclass(frozen=True)
class AllocationVector:
    """Extra-sample counts per question on top of the guaranteed first sample.

    ``sum(extras.values())`` equals ``budget_effective`` for ordinary
    allocations; skip-mode threshold exits may leave a deficit, which callers
    report as saved units.
    """

    extras: Mapping[str, int]
    budget_effective: int

    def __post_init__(self):
        object.__setattr__(self, "extras", dict(self.extras))
        if self.budget_effective < 0:
            raise ValidationError("budget_effective must be >= 0")
        for qid, e in self.extras.items():
            if e < 0:
                raise ValidationError(f"negative extra count {e} for question {qid!r}")
        if self.total_extras() > self.budget_effective:
            raise ValidationError(
                f"allocated {self.total_extras()} units exceeds budget {self.budget_effective}"
            )

    def total_extras(self) -> int:
        return sum(self.extras.values())

    def deficit(self) -> int:
        """Unspent units (positive only for skip-mode exits)."""
        return self.budget_effective - self.total_extras()


@dataclass(frozen=True)
class ExperimentResult:
    """Final outcome for one question under one policy run."""

    question_id: str
    final_answer: str
    correct: Optional[bool]
    samples_used: int
    difficulty: DifficultyEstimate
    policy: str

    def __post_init__(self):
        if self.samples_used < 1:
            raise ValidationError("samples_used must be >= 1")


def residual_failure_power(p: float, n: int) -> float:
    """(1-p)**n computed via exp/log1p, with exact values at the boundaries.

    Guards: any p with n=0 gives 1, p=1 with n>=1 gives exactly 0, p=0 gives
    exactly 1. Avoids NaN from 0**0 style corner cases.
    """
    if n < 0:
        raise ValidationError("exponent must be >= 0")
    if n == 0:
        return 1.0
    if p >= 1.0:
        return 0.0
    if p <= 0.0:
        return 1.0
    return math.exp(n * math.log1p(-p))


def check_prob(p: float, qid: Optional[str] = None) -> float:
    """``p`` as a float if it is a real number (numpy scalars too) in [0, 1],
    else :class:`ValidationError` naming question ``qid``."""
    # float and int first: they are the common case, and the ABC check is slow
    if not (isinstance(p, (float, int, numbers.Real)) and 0.0 <= p <= 1.0):
        name = "p" if qid is None else f"probs[{qid!r}]"
        raise ValidationError(f"{name} must be a probability in [0, 1], got {p!r}")
    return float(p)


def coverage_objective(alloc: AllocationVector, probs: Mapping[str, float]) -> float:
    """Expected number of questions with at least one correct sample.

    Each question contributes 1 - (1-p_i)**(1+e_i); the exponent counts the
    guaranteed first sample plus the e_i extras, so the result lies in [0, M].
    """
    total = 0.0
    for qid, extras in alloc.extras.items():
        if qid not in probs:
            raise MissingProbabilityError(qid)
        p = check_prob(probs[qid], qid)
        total += 1.0 - residual_failure_power(p, 1 + extras)
    return total


def marginal_gain(p: float, e: int) -> float:
    """Coverage gain of the (e+1)-th sample on a question: p * (1-p)**e.

    ``e`` counts samples already assigned in total (first sample included), so
    the gain of one more extra on a question holding ``extras`` extras is
    ``marginal_gain(p, 1 + extras)``. Strictly decreasing in e for p in (0,1).
    """
    p = check_prob(p)
    if not isinstance(e, int) or e < 0:
        raise ValidationError(f"sample count must be a nonnegative integer, got {e!r}")
    return p * residual_failure_power(p, e)
