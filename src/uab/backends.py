"""Generation backends: a deterministic simulated world, an OpenAI-compatible
HTTP client with retries and caching, and the judge/confidence prompt plumbing.

The simulated world draws per-question success probabilities from a chosen
law and emits samples whose token logprobs invert exactly back to those
probabilities through the score-to-probability map, so the whole pipeline can
be verified at desk scale without a served model.

The backend protocol: a backend has a ``generate(request) -> BackendResponse``
method that raises :class:`BackendError` when a request fails for good, and may
declare ``max_in_flight``, the number of ``generate`` calls it serves at once.
:func:`generate_wave` takes each wave whole, as a list, and sends its
independent requests within that bound; a backend that declares no
``max_in_flight`` is called serially. Whatever a backend returns comes back
through ``generate``, one request at a time: that is the one place where a
caller sees, counts or times it. A backend may also declare
``prepare_wave(requests)``, which :func:`generate_wave` calls with the whole
wave before its first ``generate``, at every width: it may draw ahead only
what ``generate`` would otherwise draw itself, and what ``generate`` returns
must not depend on whether it ran. The simulator declares it, to read each
index a wave needs in one pass over adjacent questions; a request it was not
given reads what it lacks through the same read planner, so the simulator's
``generate`` needs nothing but the request. :class:`HttpBackend` does not
declare it.
"""

from __future__ import annotations

import email.utils
import hashlib
import json
import logging
import math
import os
import re
import threading
import time
import urllib.parse
import weakref
from dataclasses import dataclass
from datetime import datetime, timezone
from enum import Enum
from functools import partial
from pathlib import Path
from typing import Dict, Iterable, Iterator, List, Mapping, NamedTuple, Optional, Sequence, Set, Tuple, Union

import numpy as np

from .core import (
    FinishReason,
    QuestionRecord,
    TaskKind,
    ValidationError,
    _new_tuple,
    _validated_make,
)

logger = logging.getLogger(__name__)

#: Default sampling parameters for generation requests.
DEFAULT_SAMPLING_TEMPERATURE = 0.9
DEFAULT_MAX_TOKENS = 1024

JUDGE_PROMPT_TEMPLATE = (
    "Is the following question easy or hard for a language model to answer "
    "correctly? Respond with a single word: easy or hard.\n\n{question}"
)

VCS_INSTRUCTION = (
    "After giving your answer, rate how confident you are that it is correct "
    "on a scale from 1 (not confident at all) to 10 (completely certain). "
    "End your response with: Confidence: <integer>."
)

#: Synthesized generations carry this many tokens, each at a constant logprob,
#: so every logprob-derived signal stays well defined and mutually consistent.
SIM_TOKEN_COUNT = 8

#: Floor applied before taking logs of a success probability.
SIM_PROB_FLOOR = 1e-9


class UnknownQuestionError(ValidationError):
    def __init__(self, question_id: str):
        super().__init__(f"question {question_id!r} is not registered in the simulated world")
        self.question_id = question_id


class BackendError(RuntimeError):
    """A generation request failed after exhausting retries."""


class JudgeLabel(str, Enum):
    EASY = "easy"
    HARD = "hard"


@dataclass(frozen=True)
class BetaLaw:
    a: float = 2.0
    b: float = 2.0

    def __post_init__(self):
        if not all(math.isfinite(v) and v > 0 for v in (self.a, self.b)):
            raise ValidationError(f"beta law parameters must be finite and > 0, got a={self.a}, b={self.b}")


@dataclass(frozen=True)
class FixedProbs:
    probs: Tuple[float, ...]

    def __post_init__(self):
        # written so that NaN fails too
        if not all(0.0 <= p <= 1.0 for p in self.probs):
            raise ValidationError("fixed probabilities must lie in [0, 1]")


@dataclass(frozen=True)
class TwoPointLaw:
    p_lo: float
    p_hi: float
    frac_lo: float

    def __post_init__(self):
        # written so that NaN fails too
        if not all(0.0 <= p <= 1.0 for p in (self.p_lo, self.p_hi)):
            raise ValidationError("two-point probabilities must lie in [0, 1]")
        if not 0.0 <= self.frac_lo <= 1.0:
            raise ValidationError("frac_lo must be in [0, 1]")


ProbLaw = Union[BetaLaw, FixedProbs, TwoPointLaw]


@dataclass(frozen=True)
class WorldConfig:
    m_questions: int
    prob_law: ProbLaw = BetaLaw(2.0, 2.0)
    n_distractors: int = 4
    signal_noise_sigma: float = 0.0
    correlation_rho: float = 0.0
    world_temperature: float = 0.2
    rng_seed: int = 0

    def __post_init__(self):
        if self.m_questions < 1:
            raise ValidationError("m_questions must be >= 1")
        if self.n_distractors < 1:
            raise ValidationError("n_distractors must be >= 1")
        if self.signal_noise_sigma < 0:
            raise ValidationError("signal_noise_sigma must be >= 0")
        if not 0.0 <= self.correlation_rho <= 1.0:
            raise ValidationError("correlation_rho must be in [0, 1]")
        if not self.world_temperature > 0:
            raise ValidationError("world_temperature must be > 0")
        if self.rng_seed < 0:
            raise ValidationError("rng_seed must be >= 0")


class SimulatedWorld:
    """A batch of questions with known gold answers and success probabilities."""

    def __init__(self, config: WorldConfig):
        self.config = config
        rng = np.random.default_rng(config.rng_seed)
        #: Each question's success probability, in question order; read-only,
        #: as every backend built over the world shares it.
        self.p_star: np.ndarray = self._draw_probs(config, rng)
        self.p_star.setflags(write=False)

        m = config.m_questions
        ids = [f"q{i:05d}" for i in range(m)]
        # prompt lengths vary with index only, so prompt length is an
        # uninformative difficulty proxy, like real benchmarks mostly are
        tails = [" Show work." * r for r in range(5)]
        # every field is a string made here, so the records skip the
        # constructor's checks
        self.questions: List[QuestionRecord] = [
            _new_tuple(QuestionRecord, (
                qid,
                f"Problem {i}: evaluate the expression and give the final answer.{tails[i % 5]}",
                str(100 + i),
                TaskKind.OPEN_MATH,
            ))
            for i, qid in enumerate(ids)
        ]
        self.index: Dict[str, int] = dict(zip(ids, range(m)))

    @staticmethod
    def _draw_probs(config: WorldConfig, rng: np.random.Generator) -> np.ndarray:
        law = config.prob_law
        m = config.m_questions
        if isinstance(law, BetaLaw):
            return np.clip(rng.beta(law.a, law.b, size=m), 0.0, 1.0)
        if isinstance(law, FixedProbs):
            if len(law.probs) != m:
                raise ValidationError(
                    f"fixed probability list has {len(law.probs)} entries for {m} questions"
                )
            return np.asarray(law.probs, dtype=float)
        if isinstance(law, TwoPointLaw):
            lows = rng.random(m) < law.frac_lo
            return np.where(lows, float(law.p_lo), float(law.p_hi))
        raise ValidationError(f"unknown probability law {law!r}")


class _RequestFields(NamedTuple):
    question_id: str
    prompt: str
    sample_count: int
    sampling_temperature: float
    max_tokens: int
    want_logprobs: bool
    #: Index of the first sample in this request within the question's overall
    #: sample numbering; keeps cache keys and simulator streams per-sample.
    first_sample_index: int
    #: Asks for an easy/hard label instead of answer samples; only judge
    #: requests set it. Not part of the HTTP payload or the cache key.
    judge: bool


class BackendRequest(_RequestFields):
    """One generation request for one question.

    A validated tuple of its fields, as :class:`~uab.core.QuestionRecord` is.
    """

    __slots__ = ()

    def __new__(cls, question_id: str, prompt: str, sample_count: int,
                sampling_temperature: float = DEFAULT_SAMPLING_TEMPERATURE, max_tokens: int = DEFAULT_MAX_TOKENS,
                want_logprobs: bool = True, first_sample_index: int = 0, judge: bool = False):
        if sample_count < 1:
            raise ValidationError("sample_count must be >= 1")
        if first_sample_index < 0:
            raise ValidationError("first_sample_index must be >= 0")
        return tuple.__new__(cls, (question_id, prompt, sample_count, sampling_temperature, max_tokens,
                                   want_logprobs, first_sample_index, judge))

    _make = classmethod(_validated_make)


class SampleOutput(NamedTuple):
    """One generated sample: a tuple of its fields, which unpacks and compares
    equal to a tuple of the same values."""

    text: str
    token_logprobs: Tuple[float, ...]
    finish_reason: FinishReason


class BackendResponse(NamedTuple):
    """The samples of one request, in order: a one-field tuple."""

    samples: List[SampleOutput]


# RNG stream lanes within one question. Streams are keyed by Philox counters,
# so any (question, sample) outcome is independent of request order.
_LANE_QUESTION = 0
_LANE_SAMPLE = 1
_LANE_JUDGE = 2

_MASK64 = (1 << 64) - 1

#: Questions per memoised chunk of one lane and index (:meth:`SimulatedBackend._fill`):
#: the most blocks a request's memo miss reads per sample, and the most
#: chunks one ``random_raw`` call reads.
_CHUNK = 64

#: The most blocks :meth:`SimulatedBackend._fill` derives in one numpy pass:
#: ``_CHUNK`` indices of one chunk, or one index over ``_CHUNK`` chunks.
_PASS_BLOCKS = _CHUNK * _CHUNK

_UNIFORM_SHIFT = np.uint64(11)

#: The finish reason of every simulated sample, read once per sample.
_STOP = FinishReason.STOP


def _uniform(words: np.ndarray) -> np.ndarray:
    """``Generator.random()`` of each raw Philox word: its top 53 bits over 2**53."""
    return (words >> _UNIFORM_SHIFT) * (1.0 / 9007199254740992.0)


def _noise(sigma: float, u: float, v: float) -> float:
    """The Box–Muller ``normal(0, sigma)`` draw of two uniforms in [0, 1)."""
    return sigma * math.sqrt(-2.0 * math.log1p(-u)) * math.cos(2.0 * math.pi * v)


def _sim_signal(perceived_p: float, world_temperature: float) -> Tuple[Tuple[float, ...], int]:
    """Token logprobs and verbal confidence of a sample whose question the
    model perceives as solvable with probability ``perceived_p``: its logprobs
    encode ``perceived_p`` clipped to [SIM_PROB_FLOOR, 1], its confidence
    ``10 * perceived_p`` clipped to [0, 10], rounded, and then to [1, 10]."""
    p = perceived_p
    anll_value = -world_temperature * math.log(SIM_PROB_FLOOR if p < SIM_PROB_FLOOR else 1.0 if p > 1.0 else p)
    confidence = round(10 * (0.0 if p < 0.0 else 1.0 if p > 1.0 else p))
    return (-anll_value,) * SIM_TOKEN_COUNT, 1 if confidence < 1 else 10 if confidence > 10 else confidence


def _sample_text(boxed: str, confidence: int) -> str:
    """A simulated sample's text, from its boxed answer and its confidence."""
    return f"The final answer is \\boxed{{{boxed}}}. Confidence: {confidence}"


#: What :meth:`SimulatedBackend._fill` derives for the questions of a chunk:
#: each one's sample answer (lane 1 only, else None), and each one's two noise
#: uniforms (in a noisy world only, else None).
_Chunk = Tuple[Optional[List[int]], Optional[List[List[float]]]]


class SimulatedBackend:
    """Deterministic Bernoulli world behind the generation protocol.

    Correct samples emit the gold answer, incorrect ones a uniformly chosen
    distractor; synthesized token logprobs encode the (optionally noised)
    success probability through the world's temperature. With probability rho
    all samples of a question reuse one shared correctness draw.

    Every value is read from the Philox stream at counter
    ``[question, lane, index, 0]`` under the 128-bit key
    ``(world seed, run seed)``, and each stream uses its first block of four
    raw words only: the first four ``Generator.random()`` draws of a fresh
    ``Philox`` at that counter. That block sits at counter
    ``[question + 1, lane, index, 0]``, so the streams of one lane and index
    are adjacent blocks in question order and :meth:`_blocks` reads a run of
    them with one ``random_raw`` call. The blocks hold:

    - lane 0, index 0, the question table, drawn for every question when the
      backend is built: word 0 below rho puts the question in shared mode,
      and word 1 below p* makes its shared outcome a success;
    - lane 1, index s, sample s: in shared mode it takes its question's
      shared outcome, and otherwise it is correct when word 0 is below p*.
      An incorrect sample names distractor ``int(word 1 * n_distractors)``.
      In a noisy world, words 2 and 3 give the noise on its signal;
    - lane 2, index 0, the judge label: in a noisy world, words 0 and 1 give
      the noise on the p* the judge perceives.

    Noise is the Box–Muller normal of two words (:func:`_noise`), computed
    with :mod:`math` so that transcripts do not depend on numpy's code.

    Lanes 1 and 2 are memoised in chunks of ``_CHUNK`` adjacent questions per
    index, each read once, when first needed, by :meth:`_fill`; every read
    comes from one planner, :meth:`_reads`: one ``random_raw`` call per index
    over each run of adjacent chunks that the memo lacks. Before a wave,
    :meth:`prepare_wave` plans the reads of every chunk the wave needs, so a
    wave that asks every question for one index, such as Phase 1, reads that
    index in one call (up to ``_CHUNK`` chunks per call). A request whose
    values are still missing when it is served plans its own reads, and so
    reads what ``prepare_wave([request])`` would have. Either way a value
    depends on its counter only, so a request's samples depend on the request
    only, whatever order requests come in and whether the wave was prepared.
    In a noiseless world a sample depends on its question and answer only:
    each question's signal and gold text are computed when the backend is
    built, and the samples live in one table by question and answer, each
    pair one shared immutable :class:`SampleOutput` built on first use, so a
    sample costs one lookup in it.
    """

    #: The one bit generator and the chunk memo are shared by every call, so
    #: calls must not overlap; and being CPU-bound and in-process, concurrent
    #: calls would only contend for the interpreter lock anyway. Waves run
    #: serially.
    max_in_flight = 1

    def __init__(self, world: SimulatedWorld, run_seed: int = 0):
        if run_seed < 0:
            raise ValidationError("run_seed must be >= 0")
        self.world = world
        self.run_seed = run_seed
        key = ((world.config.rng_seed & _MASK64) << 64) | (run_seed & _MASK64)
        self._bits = np.random.Philox(key=key)
        # a fresh Philox's state, at counter 0 with an empty buffer
        # (buffer_pos 4); _blocks swaps in each run's counter, so a run's
        # first draw computes its first block instead of reading a stale one
        self._stream_state = self._bits.state
        cfg = world.config
        m = cfg.m_questions
        table = _uniform(self._blocks(_LANE_QUESTION, 0, 0, m))
        # A sample is correct when word 0 of its block is below its question's
        # threshold: p*, or, for a question in shared mode, 1.0 when the shared
        # outcome is a success and 0.0 when not, as every word reads as [0, 1).
        shared_mode = table[:, 0] < cfg.correlation_rho
        shared_outcome = table[:, 1] < self.world.p_star
        self._threshold = np.where(shared_mode, shared_outcome.astype(float), self.world.p_star)
        # the world's constants that each request reads
        self._p_star = world.p_star
        self._sigma = cfg.signal_noise_sigma
        self._world_temperature = cfg.world_temperature
        #: Answers per question: the distractors, then the gold answer.
        self._stride = cfg.n_distractors + 1
        #: Noiseless samples at ``question * _stride + answer``, each built on
        #: first use.
        self._outputs: List[Optional[SampleOutput]] = [None] * (m * self._stride)
        #: In a noiseless world, each question's signal (its token logprobs
        #: and confidence) and gold text; None in a noisy world, where each
        #: sample has its own signal.
        self._noiseless: Optional[List[Tuple[Tuple[float, ...], int, str]]] = None
        if not self._sigma:
            t = self._world_temperature
            self._noiseless = [
                (token_logprobs, confidence, _sample_text(q.gold_answer, confidence))
                for (token_logprobs, confidence), q in zip(
                    (_sim_signal(p, t) for p in world.p_star.tolist()), world.questions
                )
            ]
        #: Distractor texts by confidence, by answer (:meth:`_text`).
        self._wrong_texts: Dict[int, List[str]] = {}
        #: :meth:`_fill`'s values at ``[lane][chunk][index]``, None where not
        #: drawn yet. A chunk's list grows to the highest index asked of it,
        #: so the memo holds about one slot per value drawn, however the
        #: samples spread over questions. Lane 0 is the question table above;
        #: lane 2 reads index 0 only.
        self._n_chunks = -(-m // _CHUNK)
        chunks = range(self._n_chunks)
        self._memo: List[List[List[Optional[_Chunk]]]] = [
            [], [[] for _ in chunks], [[None] for _ in chunks],
        ]

    def _blocks(self, lane: int, index: int, first: int, count: int) -> np.ndarray:
        """The first blocks of the streams ``(q, lane, index)`` for the
        ``count`` questions q from ``first`` on, as a ``(count, 4)`` array of
        raw Philox words read with one ``random_raw`` call."""
        state = self._stream_state
        state["state"]["counter"] = [first, lane, index, 0]
        self._bits.state = state
        return self._bits.random_raw(4 * count).reshape(-1, 4)

    def _fill(self, lane: int, reads: Iterable[Sequence[int]]) -> None:
        """Put in the memo the values of each read ``(index, lo, hi)`` that
        :meth:`_reads` planned: those that streams ``(q, lane, index)`` give
        the questions q of chunks ``lo`` to ``hi - 1``. Each read is one
        ``random_raw`` call, and reads are
        derived together, at most ``_PASS_BLOCKS`` blocks per numpy pass,
        which bounds a pass's memory however many values a wave needs."""
        m = self.world.config.m_questions
        spans: List[Tuple[int, int, int]] = []
        size = 0
        for index, lo, hi in reads:
            first, stop = lo * _CHUNK, min(hi * _CHUNK, m)
            if size + stop - first > _PASS_BLOCKS:
                self._derive(lane, spans)
                spans, size = [], 0
            spans.append((index, first, stop))
            size += stop - first
        if spans:
            self._derive(lane, spans)

    def _derive(self, lane: int, spans: Sequence[Tuple[int, int, int]]) -> None:
        """One numpy pass of :meth:`_fill`: reads the streams ``(q, lane,
        index)`` of the questions q from ``first`` to ``stop - 1`` of each
        span ``(index, first, stop)``, derives their values and puts them in
        the memo by chunk."""
        cfg = self.world.config
        u = _uniform(np.concatenate([self._blocks(lane, index, first, stop - first) for index, first, stop in spans]))
        answers = noise = None
        if lane == _LANE_SAMPLE:
            n = cfg.n_distractors
            threshold = np.concatenate([self._threshold[first:stop] for _, first, stop in spans])
            answers = np.where(u[:, 0] < threshold, n, (u[:, 1] * n).astype(np.int64)).tolist()
        if self._sigma:
            noise = (u[:, 2:] if lane == _LANE_SAMPLE else u[:, :2]).tolist()
        memo = self._memo[lane]
        row = 0
        for index, first, stop in spans:
            for start in range(first, stop, _CHUNK):
                lo, hi = row + start - first, row + min(start + _CHUNK, stop) - first
                memo[start // _CHUNK][index] = (
                    None if answers is None else answers[lo:hi], None if noise is None else noise[lo:hi]
                )
            row += stop - first

    def _reads(self, lane: int, keys: Iterable[int]) -> List[List[int]]:
        """The reads ``[index, lo, hi]`` for :meth:`_fill` of the streams at
        ``keys``, each ``index * _n_chunks + chunk``, that the memo has no
        values for: runs of adjacent chunks of one index, at most ``_CHUNK``
        chunks each, in index order. Lengthens each chunk's list in the memo
        to reach the indices asked of it."""
        width = self._n_chunks
        memo = self._memo[lane]
        reads: List[List[int]] = []
        for key in sorted(keys):
            index, chunk = divmod(key, width)
            slots = memo[chunk]
            if len(slots) <= index:
                slots.extend([None] * (index + 1 - len(slots)))
            if slots[index] is not None:
                continue
            last = reads[-1] if reads else None
            if last is not None and last[0] == index and last[2] == chunk and chunk - last[1] < _CHUNK:
                last[2] = chunk + 1
            else:
                reads.append([index, chunk, chunk + 1])
        return reads

    def prepare_wave(self, requests: Iterable[BackendRequest]) -> None:
        """Read ahead what :meth:`generate` will read to serve ``requests``:
        every chunk of lanes 1 and 2 that they need and the memo lacks, one
        ``random_raw`` call per index over each run of adjacent chunks. It
        draws nothing that serving the requests one at a time would not, and
        skips requests for unknown questions, which :meth:`generate` fails."""
        index_of = self.world.index.get
        # the (chunk, first index, count, judge) of the requests, each once:
        # the questions of a chunk mostly ask for the same samples
        wanted: Set[Tuple[int, int, int, bool]] = set()
        for request in requests:
            question = index_of(request.question_id)
            if question is not None:
                wanted.add((question // _CHUNK, request.first_sample_index, request.sample_count, request.judge))
        width = self._n_chunks
        samples: Set[int] = set()
        judged: Set[int] = set()
        for chunk, first, count, judge in wanted:
            if judge:
                judged.add(chunk)
            else:
                # the keys index * width + chunk of the samples asked for
                samples.update(range(first * width + chunk, (first + count) * width + chunk, width))
        if judged and self._sigma:
            self._fill(_LANE_JUDGE, self._reads(_LANE_JUDGE, judged))
        if samples:
            self._fill(_LANE_SAMPLE, self._reads(_LANE_SAMPLE, samples))

    def _text(self, question: int, answer: int, confidence: int) -> str:
        """The text of a sample of ``question`` at ``confidence`` naming
        distractor ``answer``, or the gold answer when ``answer`` is
        ``n_distractors``. The distractor texts are shared by every question."""
        n = self._stride - 1
        if answer == n:
            return _sample_text(self.world.questions[question].gold_answer, confidence)
        wrong = self._wrong_texts.get(confidence)
        if wrong is None:
            wrong = self._wrong_texts[confidence] = [_sample_text(f"wrong_{a}", confidence) for a in range(n)]
        return wrong[answer]

    def _shared_output(self, key: int) -> SampleOutput:
        """The noiseless sample ``question * _stride + answer``, built and kept."""
        question, answer = divmod(key, self._stride)
        token_logprobs, confidence, text = self._noiseless[question]
        if answer != self._stride - 1:
            text = self._text(question, answer, confidence)
        output = self._outputs[key] = _new_tuple(SampleOutput, (text, token_logprobs, _STOP))
        return output

    def _judge_response(self, question: int) -> str:
        perceived = float(self._p_star[question])
        sigma = self._sigma
        if sigma:
            chunk, offset = divmod(question, _CHUNK)
            memo = self._memo[_LANE_JUDGE][chunk]
            if memo[0] is None:
                self._fill(_LANE_JUDGE, self._reads(_LANE_JUDGE, (chunk,)))
            perceived += _noise(sigma, *memo[0][1][offset])
        return "easy" if min(max(perceived, 0.0), 1.0) > 0.5 else "hard"

    def generate(self, request: BackendRequest) -> BackendResponse:
        question = self.world.index.get(request.question_id)
        if question is None:
            raise UnknownQuestionError(request.question_id)
        if request.judge:
            label = self._judge_response(question)
            return BackendResponse(samples=[SampleOutput(label, (), _STOP)] * request.sample_count)
        # Samples first_sample_index on, in one loop over the question's
        # chunk of the sample lane; the first one not drawn yet reads the
        # rest of the request's missing ones with it, as prepare_wave would.
        chunk, offset = divmod(question, _CHUNK)
        first = request.first_sample_index
        stop = first + request.sample_count
        memo = self._memo[_LANE_SAMPLE][chunk]
        if len(memo) < stop:
            memo.extend([None] * (stop - len(memo)))
        sigma = self._sigma
        p = float(self._p_star[question]) if sigma else 0.0
        base = question * self._stride
        outputs = self._outputs
        samples = []
        for index in range(first, stop):
            entry = memo[index]
            if entry is None:
                width = self._n_chunks
                self._fill(_LANE_SAMPLE, self._reads(_LANE_SAMPLE, range(index * width + chunk, stop * width, width)))
                entry = memo[index]
            answer = entry[0][offset]
            if sigma:
                token_logprobs, confidence = _sim_signal(p + _noise(sigma, *entry[1][offset]),
                                                         self._world_temperature)
                samples.append(_new_tuple(
                    SampleOutput, (self._text(question, answer, confidence), token_logprobs, _STOP)
                ))
            else:
                samples.append(outputs[base + answer] or self._shared_output(base + answer))
        return _new_tuple(BackendResponse, (samples,))


def _usable_logprobs(logprobs: Tuple[float, ...]) -> Tuple[float, ...]:
    """``logprobs``, or () when one of them is non-finite or positive (``json``
    reads ``-Infinity`` and ``NaN``): such a sample counts as one without
    logprobs, which the logprob signals would otherwise reject."""
    return logprobs if all(math.isfinite(lp) and lp <= 0.0 for lp in logprobs) else ()


def _cached_sample(entry: object) -> SampleOutput:
    """The sample a cache entry holds; :class:`ValueError` when the entry is
    not an object with a string ``text``, an optional list of numbers
    ``token_logprobs`` and an optional known ``finish_reason``."""
    if not isinstance(entry, dict) or not isinstance(entry.get("text"), str):
        raise ValueError("entry is not an object with a text string")
    logprobs = entry.get("token_logprobs", [])
    if not isinstance(logprobs, list) or not all(type(lp) in (int, float) for lp in logprobs):
        raise ValueError("token_logprobs is not a list of numbers")
    finish = FinishReason(entry.get("finish_reason", "stop"))
    return SampleOutput(entry["text"], _usable_logprobs(tuple(map(float, logprobs))), finish)


#: Length of a cache key: the hex digest of a SHA-256.
_KEY_LEN = 64
_KEY_RE = re.compile(r"[0-9a-f]{64}")
#: What a cache segment's file name ends with.
_SEGMENT_SUFFIX = ".log"

#: Where a cache entry sits: a segment, and the offset and length of the
#: entry in it.
_Location = Tuple[str, int, int]


class ResponseCache:
    """Content-addressed on-disk store of generated samples: an append-only
    log of segments in one directory, with an in-memory index of where each
    key's entry sits (the Bitcask layout).

    Each instance appends to a segment of its own, which it creates with
    ``O_EXCL`` on its first :meth:`put`. A segment is named
    ``<creation time in ns, 20 digits>-<pid>-<random hex>.log``, so names
    sort by creation time. Each put appends one line
    ``<64-hex key>\\t<entry>\\n`` with one ``os.write``, where the entry is the
    JSON object ``{"text", "token_logprobs", "finish_reason"}``.

    An instance reads the directory once, when it is opened, and indexes
    every entry in it as a segment, an offset and a length, without holding
    any entry's text: each segment's lines in name order, so later lines and
    later segments win. A line without its newline, whose writer stopped
    mid-write, is skipped; other files in the directory are ignored. What
    others write to the directory after that is not seen, so a key the index
    lacks is a miss without touching the disk, and :meth:`get` reads any
    entry with one ``os.pread``.

    Safe for concurrent use by the threads of one process, and by processes
    that share a directory, as each writes its own segment.
    """

    def __init__(self, directory: Union[str, Path]):
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        #: Guards the index and the segment while :meth:`put` writes them.
        self._lock = threading.Lock()
        self._index = self._read_index()
        self._segment: Optional[str] = None
        self._fd: Optional[int] = None
        self._close_segment: Optional[weakref.finalize] = None
        self._size = 0

    @staticmethod
    def make_key(
        endpoint: str,
        model: str,
        prompt: str,
        sampling_params: Mapping[str, object],
        sample_index: int,
        run_seed: int = 0,
    ) -> str:
        """The SHA-256 of what decides one sample, the run's seed included."""
        canonical = json.dumps(
            [endpoint, model, prompt, dict(sampling_params), sample_index, run_seed],
            sort_keys=True,
            ensure_ascii=True,
            separators=(",", ":"),
        )
        return hashlib.sha256(canonical.encode("utf-8")).hexdigest()

    def _read_index(self) -> Dict[str, _Location]:
        index: Dict[str, _Location] = {}
        for segment in sorted(map(str, self.directory.glob("*" + _SEGMENT_SUFFIX))):
            try:
                with open(segment, "rb") as fh:
                    offset = 0
                    for line in fh:
                        if line.endswith(b"\n") and len(line) > _KEY_LEN + 2 and line[_KEY_LEN] == ord("\t"):
                            index[line[:_KEY_LEN].decode("latin-1")] = (
                                segment, offset + _KEY_LEN + 1, len(line) - _KEY_LEN - 2
                            )
                        offset += len(line)
            except OSError as exc:
                logger.warning("cache segment %s unreadable (%s); skipping it", segment, exc)
        return index

    def get(self, key: str) -> Optional[SampleOutput]:
        """The sample stored under ``key``, or None on a miss. An entry that is
        not JSON, or not a sample (:func:`_cached_sample`), is a miss too, and
        the next :meth:`put` of its key replaces it."""
        where = self._index.get(key)
        if where is None:
            return None
        path, offset, length = where
        try:
            fd = os.open(path, os.O_RDONLY)
            try:
                data = os.pread(fd, length, offset)
            finally:
                os.close(fd)
            sample = _cached_sample(json.loads(data))
        except (OSError, ValueError, OverflowError) as exc:
            logger.warning("cache entry %s unreadable (%s); treating as miss", key, exc)
            return None
        return sample

    def put(self, key: str, sample: SampleOutput) -> None:
        """Append ``sample`` under ``key``."""
        if not _KEY_RE.fullmatch(key):
            raise ValueError(f"cache key {key!r} is not 64 lowercase hex digits")
        entry = {
            "text": sample.text,
            "token_logprobs": list(sample.token_logprobs),
            "finish_reason": sample.finish_reason.value,
        }
        line = f"{key}\t{json.dumps(entry, ensure_ascii=True)}\n".encode("ascii")
        with self._lock:
            if key in self._index:
                logger.info("cache entry %s overwritten (last write wins)", key)
            if self._fd is None:
                self._open_segment()
            try:
                written = os.write(self._fd, line)
                if written != len(line):
                    raise OSError(f"short write to cache segment {self._segment}")
            except OSError:
                # a torn line stays the last line of its segment: the next put
                # starts a new one
                self._close_segment()
                self._fd = None
                raise
            self._index[key] = (self._segment, self._size + _KEY_LEN + 1, len(line) - _KEY_LEN - 2)
            self._size += written

    def _open_segment(self) -> None:
        while True:
            name = f"{time.time_ns():020d}-{os.getpid()}-{os.urandom(4).hex()}{_SEGMENT_SUFFIX}"
            path = str(self.directory / name)
            try:
                fd = os.open(path, os.O_WRONLY | os.O_CREAT | os.O_EXCL | os.O_APPEND, 0o644)
            except FileExistsError:
                continue
            self._segment, self._fd, self._size = path, fd, 0
            self._close_segment = weakref.finalize(self, os.close, fd)
            return


@dataclass
class HttpBackendConfig:
    """Connection settings for an OpenAI-compatible chat-completions endpoint.

    Credentials come from the environment only (UAB_API_KEY); they are never
    read from config files.
    """

    base_url: str
    model: str
    api_key: str = ""
    max_retries: int = 5
    backoff_seconds: float = 0.5
    timeout_seconds: float = 120.0
    #: Requests sent at once, both within one wave and in total.
    max_in_flight: int = 8

    def __post_init__(self):
        if self.max_retries < 0:
            raise ValidationError("max_retries must be >= 0")
        # written so that NaN fails too
        if not self.backoff_seconds >= 0:
            raise ValidationError("backoff_seconds must be >= 0")
        if not self.timeout_seconds > 0:
            raise ValidationError("timeout_seconds must be > 0")
        if self.max_in_flight < 1:
            raise ValidationError("max_in_flight must be >= 1")


#: A reply's ``finish_reason`` as a sample's; a missing or null one is a stop.
_FINISH_MAP = {None: FinishReason.STOP, "stop": FinishReason.STOP, "length": FinishReason.LENGTH}


def _retry_after_seconds(value: str) -> Optional[float]:
    """Wait asked for by a Retry-After header, in either of its forms
    (delay-seconds or an HTTP-date); None when the value is neither."""
    try:
        seconds = float(value)
    except ValueError:
        pass
    else:
        return None if math.isnan(seconds) else max(seconds, 0.0)
    try:
        when = email.utils.parsedate_to_datetime(value)
    except (TypeError, ValueError, IndexError):
        return None
    if when.tzinfo is None:
        when = when.replace(tzinfo=timezone.utc)
    return max((when - datetime.now(timezone.utc)).total_seconds(), 0.0)


def _netrc_login(host: str) -> Optional[str]:
    """``login:password`` from the netrc file that ``NETRC`` names, else
    ``~/.netrc`` or ``~/_netrc``; None when the file is missing, unreadable or
    unparsable, or has no entry for ``host``."""
    import netrc

    named = os.environ.get("NETRC")
    for candidate in [named] if named is not None else ["~/.netrc", "~/_netrc"]:
        path = os.path.expanduser(candidate)
        if os.path.exists(path):
            try:
                found = netrc.netrc(path).authenticators(host)
            except (netrc.NetrcParseError, OSError):
                return None
            if found and any(found):
                return f"{found[0] or found[1] or ''}:{found[2] or ''}"
            return None
    return None


def _url_login(parts: urllib.parse.SplitResult) -> Optional[str]:
    """``user:password`` from a URL's userinfo, percent-decoded; None when
    it has none."""
    if parts.username is None:
        return None
    return f"{urllib.parse.unquote(parts.username)}:{urllib.parse.unquote(parts.password or '')}"


def _connection_pool(url: str, size: int):
    """A urllib3 pool manager of ``size`` connections for ``url``, going
    through the proxy the environment names for it, if any, and trusting the
    CA bundle that ``REQUESTS_CA_BUNDLE`` or ``CURL_CA_BUNDLE`` names, else
    the system's trust store."""
    import urllib.request

    import urllib3

    kwargs: Dict[str, object] = {"maxsize": size, "block": True}
    bundle = os.environ.get("REQUESTS_CA_BUNDLE") or os.environ.get("CURL_CA_BUNDLE")
    if bundle:
        kwargs["ca_cert_dir" if os.path.isdir(bundle) else "ca_certs"] = bundle
    parts = urllib.parse.urlsplit(url)
    host = parts.hostname or ""
    proxies = urllib.request.getproxies()
    proxy = proxies.get(parts.scheme) or proxies.get("all")
    if not proxy or urllib.request.proxy_bypass(f"{host}:{parts.port}" if parts.port else host):
        return urllib3.PoolManager(**kwargs)
    if "://" not in proxy:
        proxy = "http://" + proxy
    login = _url_login(urllib.parse.urlsplit(proxy))
    if login is not None:
        kwargs["proxy_headers"] = urllib3.util.make_headers(proxy_basic_auth=login)
    try:
        return urllib3.ProxyManager(proxy, **kwargs)
    except urllib3.exceptions.ProxySchemeUnknown as exc:
        raise ValidationError(f"proxy {proxy!r}: only http and https proxies are supported") from exc


def _request_headers(url: str, api_key: str) -> Dict[str, str]:
    """The headers of every POST to ``url``. A netrc login for the host, or
    else a login in the URL itself, is sent as basic auth in place of the
    bearer ``api_key``."""
    import urllib3

    headers = {
        "Accept-Encoding": urllib3.util.make_headers(accept_encoding=True)["accept-encoding"],
        "Content-Type": "application/json",
    }
    if api_key:
        headers["Authorization"] = f"Bearer {api_key}"
    parts = urllib.parse.urlsplit(url)
    login = (_netrc_login(parts.hostname) if parts.hostname else None) or _url_login(parts)
    if login is not None:
        headers["Authorization"] = urllib3.util.make_headers(basic_auth=login)["authorization"]
    return headers


def _reply_text(resp) -> str:
    """The start of a reply's body, for an error message."""
    return resp.data[:200].decode("utf-8", "replace")


class HttpBackend:
    """Client for ``POST /v1/chat/completions`` with retries and replay cache.

    Safe for concurrent use. Its connection pool holds ``config.max_in_flight``
    connections, and a POST waits for a free one, so that is the cap on
    requests in flight, across all the threads that share the backend; it is
    also the width of its waves. Each POST goes straight to a urllib3 pool
    manager (a proxy manager when a proxy applies), with urllib3's own
    retries and redirects off: :meth:`_post_with_retries` does the retrying,
    and a 3xx reply fails its request at once, as a 4xx other than 429 does.

    Proxies (``*_proxy``, ``no_proxy``, as :mod:`urllib.request` reads them),
    the CA bundle (``REQUESTS_CA_BUNDLE``, then ``CURL_CA_BUNDLE``, else the
    system's trust store) and netrc credentials are read from the environment
    once, when the backend is built; later changes to the environment do not
    reach it.
    """

    def __init__(self, config: HttpBackendConfig, cache: Optional[ResponseCache] = None, run_seed: int = 0):
        self.config = config
        self.cache = cache
        #: Part of every cache key; the endpoint never sees it.
        self.run_seed = run_seed
        self._url = config.base_url.rstrip("/") + "/v1/chat/completions"
        self._pool = _connection_pool(self._url, config.max_in_flight)
        self._headers = _request_headers(self._url, config.api_key)
        self.max_in_flight = config.max_in_flight
        #: What :meth:`_warn_once` warned about; guarded by its lock, as wave
        #: threads share the backend.
        self._warned: Set[str] = set()
        self._warned_lock = threading.Lock()

    # -- request plumbing ---------------------------------------------------

    def _cache_keys(self, request: BackendRequest, sample_indices: Iterable[int]) -> List[str]:
        """The cache keys of ``request``'s samples at ``sample_indices`` of
        its question's sample numbering."""
        params = {
            "temperature": request.sampling_temperature,
            "max_tokens": request.max_tokens,
            "logprobs": request.want_logprobs,
        }
        base_url, model, prompt = self.config.base_url, self.config.model, request.prompt
        return [ResponseCache.make_key(base_url, model, prompt, params, i, self.run_seed) for i in sample_indices]

    def _post_with_retries(self, body: bytes) -> dict:
        from urllib3.exceptions import HTTPError

        last_error = "no attempt made"
        for attempt in range(self.config.max_retries + 1):
            wait = self.config.backoff_seconds * (2**attempt)
            try:
                resp = self._pool.urlopen(
                    "POST", self._url, body=body, headers=self._headers,
                    retries=False, timeout=self.config.timeout_seconds,
                )
            except HTTPError as exc:
                last_error = f"transport error: {exc}"
            else:
                if resp.status == 200:
                    # a truncated or malformed reply is retried like a
                    # transport error
                    try:
                        data = json.loads(resp.data)
                    except ValueError as exc:
                        last_error = f"unparsable reply: {exc}"
                    else:
                        if isinstance(data, dict):
                            if attempt:
                                logger.info("request succeeded after %d retries", attempt)
                            return data
                        last_error = f"reply is not a JSON object: {_reply_text(resp)}"
                else:
                    last_error = f"HTTP {resp.status}: {_reply_text(resp)}"
                    if resp.status not in (429,) and resp.status < 500:
                        raise BackendError(last_error)
                    retry_after = resp.headers.get("Retry-After")
                    if retry_after is not None:
                        asked = _retry_after_seconds(retry_after)
                        wait = min(wait if asked is None else asked, self.config.timeout_seconds)
                        logger.warning("rate limited; honoring Retry-After=%s", retry_after)
            if attempt < self.config.max_retries:
                logger.warning("retry %d/%d after %s", attempt + 1, self.config.max_retries, last_error)
                time.sleep(wait)
        raise BackendError(f"request failed after {self.config.max_retries} retries ({last_error})")

    @staticmethod
    def _parse_choice(choice: object) -> SampleOutput:
        """The sample one reply choice holds.

        Raises :class:`BackendError` when the choice, its ``message`` or its
        ``logprobs`` is present but not a JSON object, or the content or the
        ``finish_reason`` is present but not a string. Logprobs that are
        unparsable, non-finite or positive come back empty, as if the endpoint
        had sent none.
        """
        if not isinstance(choice, dict):
            raise BackendError(f"reply choice is not a JSON object: {choice!r:.200}")
        message = choice.get("message") or {}
        lp_block = choice.get("logprobs") or {}
        if not isinstance(message, dict) or not isinstance(lp_block, dict):
            raise BackendError(f"reply choice has a malformed message or logprobs: {choice!r:.200}")
        text = message.get("content") or ""
        if not isinstance(text, str):
            raise BackendError(f"reply content is not a string: {text!r:.200}")
        logprobs = ()
        if isinstance(lp_block.get("content"), list):
            try:
                parsed = tuple(float(tok["logprob"]) for tok in lp_block["content"])
                logprobs = _usable_logprobs(parsed)
            except (KeyError, TypeError, ValueError):
                logprobs = ()
        reason = choice.get("finish_reason")
        if reason is not None and not isinstance(reason, str):
            raise BackendError(f"reply choice finish_reason is not a string: {reason!r:.200}")
        return SampleOutput(text, logprobs, _FINISH_MAP.get(reason, FinishReason.ERROR))

    # -- public API ----------------------------------------------------------

    def generate(self, request: BackendRequest) -> BackendResponse:
        n = request.sample_count
        cache = self.cache
        outputs: List[Optional[SampleOutput]] = [None] * n
        if cache is not None:
            keys = self._cache_keys(request, range(request.first_sample_index, request.first_sample_index + n))
            outputs = [cache.get(key) for key in keys]
        missing = [i for i, out in enumerate(outputs) if out is None]

        if missing:
            payload = {
                "model": self.config.model,
                "messages": [{"role": "user", "content": request.prompt}],
                "n": len(missing),
                "temperature": request.sampling_temperature,
                "max_tokens": request.max_tokens,
            }
            if request.want_logprobs:
                payload["logprobs"] = True
            choices = self._choices(payload)
            if len(choices) == 1 and len(missing) > 1:
                # an endpoint that ignores n: the rest one POST each
                self._warn_once("endpoint returned 1 choice for n=%d; fetching the other samples one request each",
                                len(missing))
                payload["n"] = 1
                for _ in missing[1:]:
                    choices += self._choices(payload)
            if len(choices) != len(missing):
                raise BackendError(
                    f"endpoint returned {len(choices)} choices for n={len(missing)}"
                )
            # every choice is parsed before any is cached: a malformed one fails
            # the whole request
            fetched = [self._parse_choice(choice) for choice in choices]
            for slot, sample in zip(missing, fetched):
                outputs[slot] = sample
                if cache is not None:
                    cache.put(keys[slot], sample)
            if request.want_logprobs and any(
                not s.token_logprobs and s.finish_reason != FinishReason.ERROR for s in fetched
            ):
                self._warn_once("endpoint omitted token logprobs for %s, or sent unusable ones; "
                                "falling back to empty logprobs", request.question_id)
        return BackendResponse(samples=outputs)

    def _choices(self, payload: dict) -> list:
        """The choices of the reply to ``payload``, POSTed with retries."""
        data = self._post_with_retries(json.dumps(payload, allow_nan=False).encode("utf-8"))
        choices = data.get("choices") or []
        if not isinstance(choices, list):
            raise BackendError(f"reply choices are not a JSON array: {choices!r:.200}")
        if payload["n"] == 1 and len(choices) != 1:
            raise BackendError(f"endpoint returned {len(choices)} choices for n=1")
        return choices

    def _warn_once(self, message: str, *args: object) -> None:
        """Log ``message % args``: a WARNING the first time this backend logs
        ``message``, DEBUG after that."""
        with self._warned_lock:
            first = message not in self._warned
            self._warned.add(message)
        logger.log(
            logging.WARNING if first else logging.DEBUG,
            message + ("; later ones are logged at DEBUG" if first else ""), *args,
        )


def _generate_or_error(backend, request: BackendRequest) -> Union[BackendResponse, BackendError]:
    """``backend.generate(request)``, or the :class:`BackendError` it raised,
    without its traceback: the traceback's frames lead back to a caller that
    keeps this return value, such as a thread pool's work item, and that
    reference cycle would outlive the wave until a garbage collection."""
    try:
        return backend.generate(request)
    except BackendError as exc:
        return exc.with_traceback(None)


def generate_wave(
    backend, requests: Iterable[BackendRequest]
) -> Iterator[Tuple[BackendRequest, Union[BackendResponse, BackendError]]]:
    """Send independent requests; yield ``(request, response)`` in request order.

    A request that fails with :class:`BackendError` yields the error, without
    its traceback, in place of its response, so a failure touches its own
    request only; any other exception propagates. ``requests`` is taken
    whole, as a list, before the first request is sent, and a backend that
    declares ``prepare_wave`` gets that list through it first. When
    ``backend.max_in_flight`` is 1 or undeclared, each request is sent and
    yielded before the next one is sent; otherwise the wave is sent on a
    thread pool of that width that lives for this call. The yielded sequence
    is the same either way.
    """
    batch = list(requests)
    prepare = getattr(backend, "prepare_wave", None)
    if prepare is not None:
        prepare(batch)
    width = getattr(backend, "max_in_flight", 1)
    if width <= 1 or not batch:
        for request in batch:
            yield request, _generate_or_error(backend, request)
        return
    from concurrent.futures import ThreadPoolExecutor

    with ThreadPoolExecutor(max_workers=min(width, len(batch)), thread_name_prefix="uab-wave") as pool:
        yield from zip(batch, pool.map(partial(_generate_or_error, backend), batch))


def _judge_request(question: QuestionRecord) -> BackendRequest:
    return BackendRequest(
        question_id=question.id,
        prompt=JUDGE_PROMPT_TEMPLATE.format(question=question.prompt),
        sample_count=1,
        max_tokens=16,
        want_logprobs=False,
        judge=True,
    )


def judge_classify_all(questions: Sequence[QuestionRecord], backend) -> List[JudgeLabel]:
    """Ask the backend to rate each question easy or hard, in one wave; labels
    come back in question order. A request that fails raises its
    :class:`BackendError`.

    Each label is the first easy/hard token in the reply; anything else
    conservatively counts as hard, which routes more budget toward the
    question.
    """
    labels = []
    for _request, outcome in generate_wave(backend, map(_judge_request, questions)):
        if isinstance(outcome, BackendError):
            raise outcome
        labels.append(_judge_label(outcome))
    return labels


def _judge_label(response: BackendResponse) -> JudgeLabel:
    text = response.samples[0].text if response.samples else ""
    match = re.search(r"\b(easy|hard)\b", text.lower())
    if match is None:
        logger.info("judge reply %r unparsable; defaulting to hard", text[:80])
        return JudgeLabel.HARD
    return JudgeLabel(match.group(1))
