"""Generation backends: a deterministic simulated world, an OpenAI-compatible
HTTP client with retries and caching, and the judge/confidence prompt plumbing.

The simulated world draws per-question success probabilities from a chosen
law and emits samples whose token logprobs invert exactly back to those
probabilities through the score-to-probability map, so the whole pipeline can
be verified at desk scale without a served model.

The backend protocol: a backend has a ``generate(request) -> BackendResponse``
method that raises :class:`BackendError` when a request fails for good, and may
declare ``max_in_flight``, the number of ``generate`` calls it serves at once.
:func:`generate_wave` sends a batch of independent requests within that bound;
a backend that declares no ``max_in_flight`` is called serially. A backend may
also have a ``prepare_wave(requests)`` hook, which :func:`generate_wave` calls
with the whole wave before it sends any of it, so that the backend can do the
wave's work at once (the simulator draws a wave in one vectorised pass). The
samples still come back through ``generate``, one request at a time: that is
the one place where a caller sees, counts or times what a backend returns, and
a backend without the hook behaves the same.
"""

from __future__ import annotations

import email.utils
import hashlib
import json
import logging
import math
import os
import re
import tempfile
import threading
import time
from dataclasses import dataclass
from datetime import datetime, timezone
from enum import Enum
from functools import partial
from pathlib import Path
from typing import Dict, Iterable, Iterator, List, Mapping, Optional, Sequence, Tuple, Union

import numpy as np

from .core import (
    FinishReason,
    QuestionRecord,
    TaskKind,
    ValidationError,
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


@dataclass(frozen=True)
class FixedProbs:
    probs: Tuple[float, ...]


@dataclass(frozen=True)
class TwoPointLaw:
    p_lo: float
    p_hi: float
    frac_lo: float


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
        p_star = self._draw_probs(config, rng)

        self.questions: List[QuestionRecord] = []
        self.p_star: Dict[str, float] = {}
        self.gold: Dict[str, str] = {}
        self.index: Dict[str, int] = {}
        for i in range(config.m_questions):
            qid = f"q{i:05d}"
            # prompt lengths vary with index only, so prompt length is an
            # uninformative difficulty proxy, like real benchmarks mostly are
            prompt = (
                f"Problem {i}: evaluate the expression and give the final answer."
                + " Show work." * (i % 5)
            )
            gold = str(100 + i)
            self.questions.append(
                QuestionRecord(id=qid, prompt=prompt, gold_answer=gold, task_kind=TaskKind.OPEN_MATH)
            )
            self.p_star[qid] = float(p_star[i])
            self.gold[qid] = gold
            self.index[qid] = i

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
            arr = np.asarray(law.probs, dtype=float)
            if np.any(arr < 0) or np.any(arr > 1):
                raise ValidationError("fixed probabilities must lie in [0, 1]")
            return arr
        if isinstance(law, TwoPointLaw):
            for p in (law.p_lo, law.p_hi):
                if not 0.0 <= p <= 1.0:
                    raise ValidationError("two-point probabilities must lie in [0, 1]")
            if not 0.0 <= law.frac_lo <= 1.0:
                raise ValidationError("frac_lo must be in [0, 1]")
            lows = rng.random(m) < law.frac_lo
            return np.where(lows, law.p_lo, law.p_hi)
        raise ValidationError(f"unknown probability law {law!r}")


@dataclass(frozen=True)
class BackendRequest:
    """One generation request for one question."""

    question_id: str
    prompt: str
    sample_count: int
    sampling_temperature: float = DEFAULT_SAMPLING_TEMPERATURE
    max_tokens: int = DEFAULT_MAX_TOKENS
    want_logprobs: bool = True
    #: Index of the first sample in this request within the question's overall
    #: sample numbering; keeps cache keys and simulator streams per-sample.
    first_sample_index: int = 0
    #: Asks for an easy/hard label instead of answer samples; only judge
    #: requests set it. Not part of the HTTP payload or the cache key.
    judge: bool = False

    def __post_init__(self):
        if self.sample_count < 1:
            raise ValidationError("sample_count must be >= 1")
        if self.first_sample_index < 0:
            raise ValidationError("first_sample_index must be >= 0")


@dataclass(frozen=True, slots=True)
class SampleOutput:
    text: str
    token_logprobs: Tuple[float, ...]
    finish_reason: FinishReason


@dataclass
class BackendResponse:
    samples: List[SampleOutput]


# RNG stream lanes within one question. Streams are keyed by Philox counters,
# so any (question, sample) outcome is independent of request order.
_LANE_QUESTION = 0
_LANE_SAMPLE = 1
_LANE_JUDGE = 2

_MASK64 = (1 << 64) - 1

#: Widest gap, in questions, that one bulk Philox draw runs across
#: (:meth:`SimulatedBackend._blocks`).
_SPAN_GAP = 64

_UNIFORM_SHIFT = np.uint64(11)


def _uniform(words: np.ndarray) -> np.ndarray:
    """``Generator.random()`` of each raw Philox word: its top 53 bits over 2**53."""
    return (words >> _UNIFORM_SHIFT) * (1.0 / 9007199254740992.0)


def _noise(sigma: float, u: float, v: float) -> float:
    """The Box–Muller ``normal(0, sigma)`` draw of two uniforms in [0, 1)."""
    return sigma * math.sqrt(-2.0 * math.log1p(-u)) * math.cos(2.0 * math.pi * v)


def _sim_signal(perceived_p: float, world_temperature: float) -> Tuple[Tuple[float, ...], int]:
    """Token logprobs and verbal confidence of a sample whose question the
    model perceives as solvable with probability ``perceived_p``."""
    noisy_p = min(max(perceived_p, SIM_PROB_FLOOR), 1.0)
    anll_value = -world_temperature * math.log(noisy_p)
    confidence = int(round(10 * min(max(perceived_p, 0.0), 1.0)))
    confidence = min(10, max(1, confidence))
    return (-anll_value,) * SIM_TOKEN_COUNT, confidence


def _sample_key(request: BackendRequest) -> Tuple[str, int, int]:
    """What a generation request's samples depend on in the simulated world."""
    return request.question_id, request.first_sample_index, request.sample_count


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

    :meth:`prepare_wave` records a wave of requests; the first :meth:`generate`
    call after it draws the whole wave at once, and each call then hands out
    the samples of its own request. In a noiseless world a sample depends on
    its question and answer only, so each such pair is one shared immutable
    :class:`SampleOutput`.
    """

    #: The one bit generator is shared by every call, so calls must not
    #: overlap; and being CPU-bound and in-process, concurrent calls would
    #: only contend for the interpreter lock anyway. Waves run serially.
    max_in_flight = 1

    def __init__(self, world: SimulatedWorld, run_seed: int = 0):
        if run_seed < 0:
            raise ValidationError("run_seed must be >= 0")
        self.world = world
        self.run_seed = run_seed
        self.generation_samples = 0
        self.judge_calls = 0
        key = ((world.config.rng_seed & _MASK64) << 64) | (run_seed & _MASK64)
        self._bits = np.random.Philox(key=key)
        # a fresh Philox's state, at counter 0 with an empty buffer
        # (buffer_pos 4); _blocks swaps in each span's counter, so a span's
        # first draw computes its first block instead of reading a stale one
        self._stream_state = self._bits.state
        cfg = world.config
        m = cfg.m_questions
        self._p_star = np.array([world.p_star[q.id] for q in world.questions])
        table = _uniform(self._blocks(_LANE_QUESTION, np.arange(m), np.zeros(m, dtype=np.int64)))
        # A sample is correct when word 0 of its block is below its question's
        # threshold: p*, or, for a question in shared mode, 1.0 when the shared
        # outcome is a success and 0.0 when not, as every word reads as [0, 1).
        shared_mode = table[:, 0] < cfg.correlation_rho
        shared_outcome = table[:, 1] < self._p_star
        self._threshold = np.where(shared_mode, shared_outcome.astype(float), self._p_star)
        #: Noiseless samples at ``question * (n_distractors + 1) + answer``,
        #: and noiseless signals by question, each built on first use.
        self._outputs: List[Optional[SampleOutput]] = [None] * (m * (cfg.n_distractors + 1))
        self._signals: List[Optional[Tuple[Tuple[float, ...], int]]] = [None] * m
        self._wave: List[BackendRequest] = []
        self._drawn: Dict[Tuple[str, int, int], List[SampleOutput]] = {}

    def _blocks(self, lane: int, questions: np.ndarray, indices: np.ndarray) -> np.ndarray:
        """The first block of each stream ``(questions[i], lane, indices[i])``,
        as an ``(n, 4)`` array of raw Philox words.

        Streams that share an index are read in spans of adjacent blocks, one
        ``random_raw`` call per span. A span runs on across gaps of up to
        ``_SPAN_GAP`` questions, and each question it skips costs one unused
        block, so a span reads fewer than ``_SPAN_GAP`` blocks per stream it
        serves. A wave in which every question draws the same index, such as
        Phase 1, is one span with no unused block.
        """
        out = np.empty((len(questions), 4), dtype=np.uint64)
        order = np.lexsort((questions, indices))
        q = questions[order]
        s = indices[order]
        cuts = (np.nonzero((s[1:] != s[:-1]) | (q[1:] - q[:-1] > _SPAN_GAP))[0] + 1).tolist()
        state = self._stream_state
        for lo, hi in zip([0, *cuts], [*cuts, len(q)]):
            first = int(q[lo])
            state["state"]["counter"] = [first, lane, int(s[lo]), 0]
            self._bits.state = state
            span = self._bits.random_raw(4 * (int(q[hi - 1]) - first + 1)).reshape(-1, 4)
            out[order[lo:hi]] = span[q[lo:hi] - first]
        return out

    def _index(self, qid: str) -> int:
        index = self.world.index.get(qid)
        if index is None:
            raise UnknownQuestionError(qid)
        return index

    def _output(self, question: int, answer: int, signal: Tuple[Tuple[float, ...], int]) -> SampleOutput:
        """A sample of ``question`` naming distractor ``answer``, or the gold
        answer when ``answer`` is ``n_distractors``, with ``signal`` from
        :func:`_sim_signal`."""
        token_logprobs, confidence = signal
        if answer == self.world.config.n_distractors:
            text = self.world.questions[question].gold_answer
        else:
            text = f"wrong_{answer}"
        return SampleOutput(
            f"The final answer is \\boxed{{{text}}}. Confidence: {confidence}", token_logprobs, FinishReason.STOP
        )

    def _shared_output(self, key: int) -> SampleOutput:
        """The noiseless sample ``question * (n_distractors + 1) + answer``,
        built on first use; each question's signal is computed once."""
        cfg = self.world.config
        question, answer = divmod(key, cfg.n_distractors + 1)
        signal = self._signals[question]
        if signal is None:
            signal = self._signals[question] = _sim_signal(float(self._p_star[question]), cfg.world_temperature)
        output = self._outputs[key] = self._output(question, answer, signal)
        return output

    def _draw(self, questions: np.ndarray, indices: np.ndarray) -> List[SampleOutput]:
        """The samples ``(questions[i], indices[i])``, drawn together. The one
        draw routine of :meth:`generate`, its waves and :meth:`sample_outcome`."""
        cfg = self.world.config
        blocks = self._blocks(_LANE_SAMPLE, questions, indices)
        u = _uniform(blocks[:, :2])
        answers = (u[:, 1] * cfg.n_distractors).astype(np.int64)
        answers[u[:, 0] < self._threshold[questions]] = cfg.n_distractors
        sigma = cfg.signal_noise_sigma
        if sigma == 0:
            # freed before the samples are built: a wave's peak memory is lower
            del blocks, u
            outputs = self._outputs
            keys = (questions * (cfg.n_distractors + 1) + answers).tolist()
            return [outputs[k] or self._shared_output(k) for k in keys]
        p = self._p_star[questions].tolist()
        noise_words = _uniform(blocks[:, 2:]).tolist()
        return [
            self._output(q, answer, _sim_signal(p_q + _noise(sigma, *uv), cfg.world_temperature))
            for q, answer, p_q, uv in zip(questions.tolist(), answers.tolist(), p, noise_words)
        ]

    def _draw_requests(
        self, requests: Sequence[BackendRequest]
    ) -> Dict[Tuple[str, int, int], List[SampleOutput]]:
        """The samples of each request, by :func:`_sample_key`, drawn together."""
        counts = np.array([r.sample_count for r in requests], dtype=np.int64)
        ends = np.cumsum(counts)
        questions = np.repeat(np.array([self._index(r.question_id) for r in requests], dtype=np.int64), counts)
        firsts = np.repeat(np.array([r.first_sample_index for r in requests], dtype=np.int64), counts)
        indices = firsts + np.arange(ends[-1]) - np.repeat(ends - counts, counts)
        samples = self._draw(questions, indices)
        return {
            _sample_key(r): samples[end - n:end]
            for r, n, end in zip(requests, counts.tolist(), ends.tolist())
        }

    def sample_outcome(self, qid: str, sample_index: int) -> SampleOutput:
        return self._draw(np.array([self._index(qid)]), np.array([sample_index]))[0]

    def _judge_response(self, qid: str) -> str:
        block = self._blocks(_LANE_JUDGE, np.array([self._index(qid)]), np.zeros(1, dtype=np.int64))
        eps = _noise(self.world.config.signal_noise_sigma, *_uniform(block[0, :2]).tolist())
        perceived = min(max(self.world.p_star[qid] + eps, 0.0), 1.0)
        return "easy" if perceived > 0.5 else "hard"

    def prepare_wave(self, requests: Sequence[BackendRequest]) -> None:
        """Record the generation requests of a wave; the next :meth:`generate`
        call draws them all. Judge requests, and requests for questions the
        world does not have, are left to their own :meth:`generate` call."""
        self._wave = [r for r in requests if not r.judge and r.question_id in self.world.index]
        self._drawn = {}

    def generate(self, request: BackendRequest) -> BackendResponse:
        if request.judge:
            label = self._judge_response(request.question_id)
            self.judge_calls += 1
            return BackendResponse(samples=[SampleOutput(label, (), FinishReason.STOP)] * request.sample_count)
        if self._wave:
            # drawn here rather than in prepare_wave, so that whoever times or
            # wraps generate sees the wave's draw inside a generate call
            self._drawn = self._draw_requests(self._wave)
            self._wave = []
        samples = self._drawn.pop(_sample_key(request), None)
        if samples is None:
            [samples] = self._draw_requests([request]).values()
        self.generation_samples += request.sample_count
        return BackendResponse(samples=samples)


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


class ResponseCache:
    """Content-addressed on-disk store of generated samples, one JSON entry
    ``{"text", "token_logprobs", "finish_reason"}`` per sample.

    Safe for concurrent use by the threads of one process.
    """

    def __init__(self, directory: Union[str, Path]):
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self.hits = 0
        self.misses = 0
        self._counter_lock = threading.Lock()

    def _count(self, hit: bool) -> None:
        with self._counter_lock:
            if hit:
                self.hits += 1
            else:
                self.misses += 1

    @staticmethod
    def make_key(
        endpoint: str,
        model: str,
        prompt: str,
        sampling_params: Mapping[str, object],
        sample_index: int,
    ) -> str:
        canonical = json.dumps(
            [endpoint, model, prompt, dict(sorted(sampling_params.items())), sample_index],
            sort_keys=True,
            ensure_ascii=True,
            separators=(",", ":"),
        )
        return hashlib.sha256(canonical.encode("utf-8")).hexdigest()

    def _path(self, key: str) -> Path:
        return self.directory / f"{key}.json"

    def get(self, key: str) -> Optional[SampleOutput]:
        """The sample stored under ``key``, or None on a miss. An entry that is
        not JSON, or not a sample (:func:`_cached_sample`), is a miss too, and
        the next :meth:`put` of its key replaces it."""
        path = self._path(key)
        if not path.exists():
            self._count(hit=False)
            return None
        try:
            sample = _cached_sample(json.loads(path.read_text(encoding="utf-8")))
        except (OSError, ValueError, OverflowError) as exc:
            logger.warning("cache entry %s unreadable (%s); treating as miss", key, exc)
            self._count(hit=False)
            return None
        self._count(hit=True)
        return sample

    def put(self, key: str, sample: SampleOutput) -> Path:
        path = self._path(key)
        if path.exists():
            logger.info("cache entry %s overwritten (last write wins)", key)
        entry = {
            "text": sample.text,
            "token_logprobs": list(sample.token_logprobs),
            "finish_reason": sample.finish_reason.value,
        }
        text = json.dumps(entry, ensure_ascii=True)
        # a temp file of its own per writer: concurrent puts of one key each
        # replace the entry whole, and the last replace wins
        fd, tmp = tempfile.mkstemp(dir=self.directory, prefix=f"{key}.", suffix=".tmp")
        try:
            with os.fdopen(fd, "w", encoding="utf-8") as fh:
                fh.write(text)
            os.replace(tmp, path)
        except OSError:
            Path(tmp).unlink(missing_ok=True)
            raise
        return path


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
        if self.max_in_flight < 1:
            raise ValidationError("max_in_flight must be >= 1")


_FINISH_MAP = {"stop": FinishReason.STOP, "length": FinishReason.LENGTH}


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


class HttpBackend:
    """Client for ``POST /v1/chat/completions`` with retries and replay cache.

    Safe for concurrent use; a bounded semaphore caps in-flight requests at
    ``config.max_in_flight``, which is also the width of its waves.

    Proxies, the CA bundle and netrc credentials are read from the environment
    once, when the backend is built; later changes to the environment do not
    reach it.
    """

    def __init__(self, config: HttpBackendConfig, cache: Optional[ResponseCache] = None):
        import requests
        from requests.adapters import HTTPAdapter

        self.config = config
        self.cache = cache
        self._url = config.base_url.rstrip("/") + "/v1/chat/completions"
        self._session = requests.Session()
        # the default pool keeps 10 connections per host; keep one per
        # in-flight request so a wider wave reuses its connections too
        adapter = HTTPAdapter(pool_maxsize=config.max_in_flight)
        self._session.mount("http://", adapter)
        self._session.mount("https://", adapter)
        # what requests would look up in the environment on every POST, looked
        # up once for the one URL this backend posts to
        settings = self._session.merge_environment_settings(self._url, {}, None, None, None)
        self._session.proxies = settings["proxies"]
        self._session.verify = settings["verify"]
        self._session.auth = requests.utils.get_netrc_auth(self._url)
        self._session.trust_env = False
        self._semaphore = threading.BoundedSemaphore(config.max_in_flight)

    @property
    def max_in_flight(self) -> int:
        return self.config.max_in_flight

    # -- request plumbing ---------------------------------------------------

    def _sampling_params(self, request: BackendRequest) -> Dict[str, object]:
        return {
            "temperature": request.sampling_temperature,
            "max_tokens": request.max_tokens,
            "logprobs": request.want_logprobs,
        }

    def _cache_key(self, request: BackendRequest, sample_index: int) -> str:
        return ResponseCache.make_key(
            self.config.base_url,
            self.config.model,
            request.prompt,
            self._sampling_params(request),
            sample_index,
        )

    def _post_once(self, payload: dict):
        headers = {"Content-Type": "application/json"}
        if self.config.api_key:
            headers["Authorization"] = f"Bearer {self.config.api_key}"
        with self._semaphore:
            return self._session.post(
                self._url, json=payload, headers=headers, timeout=self.config.timeout_seconds
            )

    def _post_with_retries(self, payload: dict) -> dict:
        import requests

        last_error = "no attempt made"
        for attempt in range(self.config.max_retries + 1):
            wait = self.config.backoff_seconds * (2**attempt)
            try:
                resp = self._post_once(payload)
            except requests.RequestException as exc:
                last_error = f"transport error: {exc}"
            else:
                if resp.status_code == 200:
                    # a truncated or malformed reply is retried like a
                    # transport error
                    try:
                        data = resp.json()
                    except ValueError as exc:
                        last_error = f"unparsable reply: {exc}"
                    else:
                        if isinstance(data, dict):
                            if attempt:
                                logger.info("request succeeded after %d retries", attempt)
                            return data
                        last_error = f"reply is not a JSON object: {resp.text[:200]}"
                else:
                    last_error = f"HTTP {resp.status_code}: {resp.text[:200]}"
                    if resp.status_code not in (429,) and resp.status_code < 500:
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
        ``logprobs`` is present but not a JSON object, or the content is not a
        string. Logprobs that are unparsable, non-finite or positive come back
        empty, as if the endpoint had sent none.
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
        finish = _FINISH_MAP.get(choice.get("finish_reason"), FinishReason.ERROR)
        if choice.get("finish_reason") is None:
            finish = FinishReason.STOP
        return SampleOutput(text, logprobs, finish)

    # -- public API ----------------------------------------------------------

    def generate(self, request: BackendRequest) -> BackendResponse:
        n = request.sample_count
        keys = [self._cache_key(request, request.first_sample_index + i) for i in range(n)]
        outputs: List[Optional[SampleOutput]] = (
            [None] * n if self.cache is None else [self.cache.get(key) for key in keys]
        )
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
            data = self._post_with_retries(payload)
            choices = data.get("choices") or []
            if not isinstance(choices, list):
                raise BackendError(f"reply choices are not a JSON array: {choices!r:.200}")
            if len(choices) != len(missing):
                raise BackendError(
                    f"endpoint returned {len(choices)} choices for n={len(missing)}"
                )
            # every choice is parsed before any is cached: a malformed one fails
            # the whole request
            fetched = [self._parse_choice(choice) for choice in choices]
            for slot, sample in zip(missing, fetched):
                outputs[slot] = sample
                if self.cache is not None:
                    self.cache.put(keys[slot], sample)
            if request.want_logprobs and any(
                not s.token_logprobs and s.finish_reason != FinishReason.ERROR for s in fetched
            ):
                logger.warning(
                    "endpoint omitted token logprobs for %s, or sent unusable ones; "
                    "falling back to empty logprobs",
                    request.question_id,
                )
        return BackendResponse(samples=outputs)


def _generate_or_error(backend, request: BackendRequest) -> Union[BackendResponse, BackendError]:
    try:
        return backend.generate(request)
    except BackendError as exc:
        return exc


def generate_wave(
    backend, requests: Iterable[BackendRequest]
) -> Iterator[Tuple[BackendRequest, Union[BackendResponse, BackendError]]]:
    """Send independent requests; yield ``(request, response)`` in request order.

    A request that fails with :class:`BackendError` yields the error in place
    of its response, so a failure touches its own request only; any other
    exception propagates. The whole wave is handed to the backend's
    ``prepare_wave`` hook, if it has one, before any request is sent. When
    ``backend.max_in_flight`` is 1 or undeclared, each request is then sent
    and yielded before the next one is sent. Otherwise the wave is sent on a
    thread pool of that width that lives for this call. The yielded sequence
    is the same either way.
    """
    batch = list(requests)
    prepare_wave = getattr(backend, "prepare_wave", None)
    if prepare_wave is not None:
        prepare_wave(batch)
    width = getattr(backend, "max_in_flight", 1)
    if width <= 1:
        for request in batch:
            yield request, _generate_or_error(backend, request)
        return
    from concurrent.futures import ThreadPoolExecutor

    if not batch:
        return
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


def judge_classify(question: QuestionRecord, backend) -> JudgeLabel:
    """Ask the backend to rate one question easy or hard.

    Parses the first easy/hard token in the reply; anything else conservatively
    counts as hard, which routes more budget toward the question.
    """
    return _judge_label(backend.generate(_judge_request(question)))


def judge_classify_all(questions: Sequence[QuestionRecord], backend) -> List[JudgeLabel]:
    """:func:`judge_classify` for every question, sent as one wave; labels come
    back in question order. A request that fails raises its :class:`BackendError`."""
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
