"""Property tests of answer canonicalization, the parse and its memo, the
logprob scorers, the vote, vote entropy, the config file format and the
water-filling allocator, over generated inputs."""

import math
import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from uab.allocation import ExitKind, ExitMode, ThresholdExitConfig, _heap_greedy, apply_threshold_exits
from uab.backends import BackendRequest, BackendResponse, SampleOutput
from uab.config import parse_config_text
from uab.core import FinishReason, QuestionRecord, SignalKind, TaskKind, ValidationError, left_sum
from uab.pipeline import NoVotesError, _tally_wave, _winner, canonicalize_answer, majority_vote, parse_answer
from uab.signals import LOGPROB_SIGNALS, logprob_score, tally_entropy, vote_entropy

#: Fixed examples in a fixed order, and nothing stored between runs.
_SETTINGS = settings(derandomize=True, database=None, max_examples=100)

_numbers = st.one_of(
    st.integers(-10**12, 10**12).map(str),
    st.integers(0, 10**12).map("{:,}".format),
    st.decimals(-10**6, 10**6, allow_nan=False, allow_infinity=False, places=3).map(str),
    st.floats(-1e6, 1e6, allow_nan=False).map("{:,.2f}".format),
)
_words = st.text(st.characters(blacklist_categories=("Cs",)), max_size=12)
_letters = st.sampled_from("ABCDEFGHIJabcdefghijKZ")
#: Digits, signs, separators and trailing punctuation, densely mixed.
_dense = st.text(st.sampled_from("0123456789-,. ;:!?\tx"), max_size=16)


def _boxed(inner):
    return inner.map(lambda s: "\\boxed{" + s + "}")


_atoms = st.recursive(
    st.one_of(_numbers, _words, _letters, st.sampled_from(["{", "}", "\\boxed{", " ", ".", ","])),
    lambda inner: st.one_of(
        _boxed(inner),
        st.lists(inner, max_size=4).map("".join),
        inner.map(lambda s: "{" + s + "}"),
    ),
    max_leaves=8,
)
_texts = st.lists(_atoms, max_size=6).map(" ".join)


@_SETTINGS
@given(st.one_of(_numbers, _dense, _words, _atoms, _texts))
@example("x. .")
@example("1" * 5000)
def test_canonicalize_answer_is_idempotent(raw):
    once = canonicalize_answer(raw)
    assert canonicalize_answer(once) == once


@_SETTINGS
@given(st.lists(_texts, max_size=12), st.sampled_from(list(TaskKind)))
def test_parse_memo_changes_no_answer(texts, task_kind):
    memo = {}
    shared = [parse_answer(text, task_kind, memo) for text in texts]
    assert shared == [parse_answer(text, task_kind) for text in texts]
    # and again, with every span already in the memo
    assert shared == [parse_answer(text, task_kind, memo) for text in texts]


def _reference_last_boxed(text):
    start = text.rfind("\\boxed{")
    if start < 0:
        return None
    begin = start + len("\\boxed{")
    end = text.find("}", begin)
    if end < 0:
        return None
    if text.find("{", begin, end) < 0:
        return text[begin:end]
    depth = 1
    for j in range(begin, len(text)):
        if text[j] == "{":
            depth += 1
        elif text[j] == "}":
            depth -= 1
            if depth == 0:
                return text[begin:j]
    return None


def _reference_parse(text, task_kind, memo=None):
    """The parse as it was written with a separate span search and memo
    lookup: the rule that ``parse_answer`` must keep."""
    if not text:
        return None
    if task_kind == TaskKind.MULTIPLE_CHOICE:
        letters = re.findall(r"\b([A-Ja-j])\b", text)
        return letters[-1].upper() if letters else None
    span = _reference_last_boxed(text)
    if span is None:
        numbers = re.findall(r"-?\d+(?:,\d{3})*(?:\.\d+)?", text)
        if not numbers:
            return None
        span = numbers[-1]
    if memo is None:
        return canonicalize_answer(span) or None
    if span not in memo:
        memo[span] = canonicalize_answer(span)
    return memo[span] or None


#: Unclosed and nested boxes, bare numbers, blank and option-letter texts.
_parse_texts = st.one_of(
    _texts,
    _numbers,
    _dense,
    st.sampled_from(["", " ", "\\boxed{", "\\boxed{}", "\\boxed{ }", "\\boxed{{}", "\\boxed{{1}}", "}{",
                     "\\boxed{1} \\boxed{2", "(B) or c", "\\boxed{B}"]),
    st.lists(st.one_of(_letters, _atoms), max_size=5).map(" ".join),
)


@_SETTINGS
@given(st.lists(_parse_texts, max_size=12), st.sampled_from(list(TaskKind)))
@example(["\\boxed{\\frac{1}{2}}", "\\boxed{\\frac{1}{2}", "3 and \\boxed{x", "\\boxed{a}b}"], TaskKind.OPEN_MATH)
def test_parse_answer_equals_the_reference_parse(texts, task_kind):
    memo, reference_memo = {}, {}
    for text in texts:
        assert parse_answer(text, task_kind) == _reference_parse(text, task_kind)
        assert parse_answer(text, task_kind, memo) == _reference_parse(text, task_kind, reference_memo)
    assert memo == reference_memo


def _reference_nlls(token_logprobs):
    if len(token_logprobs) == 0:
        raise ValidationError("no tokens")
    out = []
    for lp in token_logprobs:
        if not math.isfinite(lp) or lp > 0:
            raise ValidationError(f"token logprobs must be finite and <= 0, got {lp!r}")
        out.append(-float(lp))
    return out


def _reference_token_var(token_logprobs):
    nlls = _reference_nlls(token_logprobs)
    mean = left_sum(nlls) / len(nlls)
    return left_sum((x - mean) ** 2 for x in nlls) / len(nlls)


#: The scorers as they were written, each over a separately checked list of
#: NLLs: the values, types and errors that the scorers must keep.
_REFERENCE_SCORERS = {
    SignalKind.ANLL: lambda lps: left_sum(_reference_nlls(lps)) / len(_reference_nlls(lps)),
    SignalKind.TOTAL_NLL: lambda lps: left_sum(_reference_nlls(lps)),
    SignalKind.TOKEN_VAR: _reference_token_var,
    SignalKind.MAX_TOKEN_NLL: lambda lps: max(_reference_nlls(lps)),
}


def _score_outcome(score):
    """``score()``'s type and exact bits, or its error's type and message."""
    try:
        value = score()
    except Exception as exc:  # the error is part of the outcome compared
        return type(exc), str(exc)
    return type(value), value.hex() if isinstance(value, float) else repr(value)


_floats = st.one_of(
    st.floats(max_value=0.0),
    st.floats(),
    st.sampled_from([0.0, -0.0, -1e308, -1.7e308, -5e-324, float("nan"), float("inf"), -float("inf")]),
)
#: Logprobs of every kind a caller could pass: floats, ints (some beyond a
#: float's range), bools and numpy scalars.
_logprob = st.one_of(
    _floats,
    _floats,
    st.integers(-10, 2),
    st.sampled_from([-(10**400), 10**400, -(2**53 + 1)]),
    st.booleans(),
    _floats.map(np.float64),
    st.floats(width=32).map(np.float32),
    st.integers(-5, 1).map(np.int64),
)


@settings(_SETTINGS, max_examples=400)
@given(st.lists(_logprob, max_size=10), st.booleans(), st.sampled_from(sorted(LOGPROB_SIGNALS)))
@example([-1, -2], False, SignalKind.MAX_TOKEN_NLL)
@example([np.float64(-0.5), -0.25], True, SignalKind.MAX_TOKEN_NLL)
@example([-1e308, -1e308], False, SignalKind.ANLL)
@example([-1e200, 0.0], False, SignalKind.TOKEN_VAR)
@example([0.0, -0.0], True, SignalKind.MAX_TOKEN_NLL)
@example([float("nan"), 10**400], False, SignalKind.ANLL)
def test_scorers_equal_the_reference_scorers(logprobs, as_tuple, kind):
    lps = tuple(logprobs) if as_tuple else logprobs
    assert _score_outcome(lambda: logprob_score(kind, lps)) == _score_outcome(lambda: _REFERENCE_SCORERS[kind](lps))


#: Answers as the parse gives them, abstentions included; a few distinct
#: values, so that counts tie, and strings whose byte order differs from a
#: case-blind or numeric one.
_answers = st.lists(st.one_of(st.none(), st.sampled_from(["4", "04", "10", "9", "A", "a", "\u00e9", "e"]),
                              st.text(st.characters(blacklist_categories=("Cs",)), max_size=3)), max_size=16)


def _vote_outcome(vote):
    """``vote()``'s counts in first-vote order and its winner, or the error."""
    try:
        counts, winner = vote()
    except NoVotesError:
        return NoVotesError
    return list(counts.items()), winner


class _SliceBackend:
    """Serves a request ``sample_count`` of its texts, from the request's
    ``first_sample_index`` on, as samples."""

    def __init__(self, texts):
        self.texts = texts

    def generate(self, request):
        first = request.first_sample_index
        texts = self.texts[first:first + request.sample_count]
        return BackendResponse([SampleOutput(text, (), FinishReason.STOP) for text in texts])


def _wave_tally(answers, sizes):
    """The tally that a run's :func:`_tally_wave` counts for one question whose
    samples box ``answers`` (an empty text for an abstention), sent in
    requests of ``sizes`` samples and one more for the rest; and those texts."""
    texts = ["" if a is None else "\\boxed{" + a + "}" for a in answers]
    requests = []
    start = 0
    for size in sizes + [len(texts)]:
        size = min(size, len(texts) - start)
        if size:
            requests.append(BackendRequest("q", "p", size, first_sample_index=start))
            start += size
    tallies = {}
    _tally_wave(_SliceBackend(texts), requests, {"q": QuestionRecord("q", "p")}, tallies, {})
    return tallies.get("q", {}), texts


@_SETTINGS
@given(_answers, st.lists(st.integers(1, 4), max_size=16))
def test_running_tally_equals_majority_vote(answers, sizes):
    # the answers arrive request by request, as a run tallies them
    counts, texts = _wave_tally(answers, sizes)
    parsed = [parse_answer(text, TaskKind.OPEN_MATH) for text in texts]
    assert _vote_outcome(lambda: (counts, _winner(counts))) == _vote_outcome(lambda: majority_vote(parsed))


@_SETTINGS
@given(_answers)
def test_majority_vote_takes_the_top_count_and_the_byte_order_earliest_on_ties(answers):
    votes = [a for a in answers if a is not None]
    expected = NoVotesError
    if votes:
        counts = {a: votes.count(a) for a in votes}  # first-vote order
        top = max(counts.values())
        winner = min(a.encode("utf-8") for a, c in counts.items() if c == top).decode("utf-8")
        expected = list(counts.items()), winner
    assert _vote_outcome(lambda: majority_vote(answers)) == expected


def _entropy_outcome(entropy):
    """``entropy()``, or the error when there is no answer."""
    try:
        return entropy()
    except ValidationError:
        return ValidationError


@_SETTINGS
@given(_answers)
def test_tally_entropy_equals_vote_entropy_of_the_answers(answers):
    # a run's Phase-1 tally, one request per question, as vote entropy reads it
    counts, texts = _wave_tally(answers, [len(answers)])
    votes = [a for a in (parse_answer(text, TaskKind.OPEN_MATH) for text in texts) if a is not None]
    assert _entropy_outcome(lambda: tally_entropy(counts.values())) == _entropy_outcome(lambda: vote_entropy(votes))


_keys = st.from_regex(r"[a-z][a-z0-9_]*\.[a-z][a-z0-9_.]*", fullmatch=True)
#: A value runs to the end of its line or to a ``#``, and is stripped.
_values = st.text(st.characters(blacklist_categories=("Cs",), blacklist_characters="#\n\r")).map(str.strip)


@_SETTINGS
@given(st.dictionaries(_keys, _values, max_size=8), st.booleans())
def test_config_text_round_trips(pairs, commented):
    comment = "  # note" if commented else ""
    text = "".join(f"{key} = {value}{comment}\n" for key, value in pairs.items())
    assert parse_config_text(text) == pairs


#: Continuous probabilities, and the values where gains tie, vanish or
#: underflow, or differ by less than a numpy estimate resolves.
_probs = st.lists(
    st.one_of(
        st.floats(0.0, 1.0),
        st.sampled_from([0.0, 1.0, 0.5, 0.7, 0.9, 1e-10, 1e-12, 1e-17, 1e-30, 1e-300, 5e-324]),
    ),
    min_size=1,
    max_size=12,
)


@_SETTINGS
@given(
    _probs,
    st.one_of(st.integers(0, 60), st.integers(0, 2500)),
    st.sampled_from(list(ExitKind)),
    st.sampled_from(list(ExitMode)),
    st.sampled_from([0.25, 0.5, 0.75]),
)
def test_allocation_equals_the_heap_on_the_eligible_questions(ps, budget, kind, mode, theta):
    probs = {f"q{i}": p for i, p in enumerate(ps)}
    if kind == ExitKind.NONE:
        eligible = dict(probs)
    else:
        eligible = {q: p for q, p in probs.items() if (p >= theta if kind == ExitKind.HARD else p <= theta)}
    inner = budget
    if mode == ExitMode.SKIP and len(eligible) < len(probs):
        inner = budget * len(eligible) // len(probs)
    cfg = ThresholdExitConfig(kind, theta, mode)
    if inner and not eligible:  # a budget with no question to go to
        with pytest.raises(ValidationError):
            apply_threshold_exits(probs, budget, cfg)
        return
    kept, alloc, saved = apply_threshold_exits(probs, budget, cfg)
    reference = _heap_greedy(eligible, inner).extras
    assert kept == set(eligible)
    assert alloc.extras == {q: reference.get(q, 0) for q in probs}
    assert saved == budget - inner
