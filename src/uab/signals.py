"""Difficulty signals extracted from first-round generations.

All scores are "higher means harder". Log-probability signals cost nothing
beyond the generation itself; verbalized confidence and vote entropy cover
black-box endpoints that expose no logprobs.
"""

from __future__ import annotations

import math
import re
from collections import Counter
from functools import reduce
from typing import Collection, Sequence

from .core import SignalKind, ValidationError, left_sum

#: Probability substituted when a verbalized confidence rating cannot be
#: parsed: the maximum-uncertainty midpoint.
VCS_FALLBACK_PROB = 0.5


class VcsUnparsableError(ValidationError):
    """No usable ``Confidence: <1-10>`` rating in the model output."""

    def __init__(self, detail: str = ""):
        msg = "vcs_unparsable"
        if detail:
            msg += f": {detail}"
        super().__init__(msg)


#: ``a - b`` for a float ``a``: NotImplemented, not numpy arithmetic, when
#: ``b`` is neither a float nor an int.
_float_sub = float.__sub__


def _checked_nlls(token_logprobs: Sequence[float]) -> list[float]:
    if len(token_logprobs) == 0:
        raise ValidationError("no tokens")
    out = []
    for lp in token_logprobs:
        if not math.isfinite(lp) or lp > 0:
            raise ValidationError(f"token logprobs must be finite and <= 0, got {lp!r}")
        out.append(-float(lp))
    return out


def _nll_sum(token_logprobs: Sequence[float]) -> float:
    """The tokens' negative log-likelihoods summed from the left, once the
    logprobs are checked to be finite and <= 0.

    The sum does the check. It subtracts each logprob from 0.0 as a float,
    which takes floats (numpy's float64 too), ints and bools only, so no
    numpy arithmetic runs; a total below inf has no NaN or -inf term, and a
    largest logprob <= 0 rules out +inf and positive ones. Logprobs that fail
    it go through :func:`_checked_nlls`, which raises
    :class:`ValidationError` naming the first bad one; or, when they were all
    fine and only their total overflowed or their type kept them out of the
    sum, sums its NLLs.
    """
    try:
        total = reduce(_float_sub, token_logprobs, 0.0)
        # no token at all fails too: its max is taken as 1
        if type(total) is float and total < math.inf and max(token_logprobs, default=1) <= 0:
            return total
    except (TypeError, OverflowError):
        pass
    return left_sum(_checked_nlls(token_logprobs))


def anll(token_logprobs: Sequence[float]) -> float:
    """Average negative log-likelihood of a generation (per-token mean)."""
    return _nll_sum(token_logprobs) / len(token_logprobs)


def total_nll(token_logprobs: Sequence[float]) -> float:
    """Sum of per-token negative log-likelihoods (length-sensitive)."""
    return _nll_sum(token_logprobs)


def token_var(token_logprobs: Sequence[float]) -> float:
    """Population variance of per-token NLLs (divides by L, defined for L=1)."""
    n = len(token_logprobs)
    mean = _nll_sum(token_logprobs) / n
    # (nll - mean) ** 2, with nll = -lp and the sign flipped inside the square
    return left_sum([(lp + mean) ** 2 for lp in map(float, token_logprobs)]) / n


def max_token_nll(token_logprobs: Sequence[float]) -> float:
    """Largest per-token negative log-likelihood."""
    _nll_sum(token_logprobs)
    return -min(map(float, token_logprobs))


_LOGPROB_SCORERS = {
    SignalKind.ANLL: anll,
    SignalKind.TOTAL_NLL: total_nll,
    SignalKind.TOKEN_VAR: token_var,
    SignalKind.MAX_TOKEN_NLL: max_token_nll,
}

#: Signals computed from per-token log-probabilities of a generation.
LOGPROB_SIGNALS = frozenset(_LOGPROB_SCORERS)


def logprob_score(kind: SignalKind, token_logprobs: Sequence[float]) -> float:
    """Dispatch to one of the logprob-derived scorers."""
    try:
        scorer = _LOGPROB_SCORERS[kind]
    except KeyError:
        raise ValidationError(f"{kind} is not a logprob-derived signal") from None
    return scorer(token_logprobs)


def score_to_prob(score: float, temperature: float) -> float:
    """Map a difficulty score to a success probability, p = exp(-score/T).

    Small T concentrates the budget sharply on high-score questions; large T
    flattens the map toward uniform allocation.
    """
    if not (math.isfinite(score) and score >= 0):
        raise ValidationError(f"score must be finite and >= 0, got {score!r}")
    if not (math.isfinite(temperature) and temperature > 0):
        raise ValidationError(f"temperature must be > 0, got {temperature!r}")
    return math.exp(-score / temperature)


def prob_to_score(prob: float, temperature: float) -> float:
    """Inverse of :func:`score_to_prob` for signals that yield p directly."""
    if not 0.0 < prob <= 1.0:
        raise ValidationError(f"prob must be in (0, 1], got {prob!r}")
    if not temperature > 0:
        raise ValidationError("temperature must be > 0")
    return -temperature * math.log(prob)


_VCS_RE = re.compile(r"[Cc]onfidence\s*:\s*(\d+)")


def parse_vcs(text: str) -> float:
    """Extract the last ``Confidence: <n>`` self-rating and scale it to [0, 1].

    The integer must be on the 1..10 scale; surrounding whitespace and trailing
    punctuation are tolerated. Raises :class:`VcsUnparsableError` otherwise.
    """
    matches = _VCS_RE.findall(text or "")
    if not matches:
        raise VcsUnparsableError("no confidence rating found")
    value = int(matches[-1])
    if not 1 <= value <= 10:
        raise VcsUnparsableError(f"rating {value} outside 1-10")
    return value / 10.0


def tally_entropy(counts: Collection[int]) -> float:
    """Shannon entropy (natural log) of the answer distribution that vote
    ``counts`` give, its terms summed in the order of ``counts``."""
    n = sum(counts)
    if n == 0:
        raise ValidationError("vote entropy needs at least one answer")
    h = 0.0
    for c in counts:
        q = c / n
        h -= q * math.log(q)
    # guard tiny negative rounding when all answers agree
    return max(h, 0.0)


def vote_entropy(parsed_answers: Sequence[str]) -> float:
    """Shannon entropy (natural log) of the empirical answer distribution:
    :func:`tally_entropy` of the answers' counts in first-occurrence order."""
    return tally_entropy(Counter(parsed_answers).values())
