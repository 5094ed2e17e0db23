import email.utils
import json
import logging
import math
import random
import sys
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

import numpy as np
import pytest

from uab.backends import (
    BackendError,
    BackendRequest,
    BackendResponse,
    BetaLaw,
    FixedProbs,
    HttpBackend,
    HttpBackendConfig,
    JUDGE_PROMPT_TEMPLATE,
    JudgeLabel,
    ResponseCache,
    SampleOutput,
    SimulatedBackend,
    SimulatedWorld,
    TwoPointLaw,
    UnknownQuestionError,
    WorldConfig,
    generate_wave,
    judge_classify,
    judge_classify_all,
)
from uab.core import BudgetSpec, FinishReason, QuestionRecord, SignalKind, ValidationError
from uab.harness import result_json_line
from uab.pipeline import PipelineConfig, Policy, run_two_phase
from uab.signals import anll, score_to_prob


def make_world(m=6, sigma=0.0, rho=0.0, seed=11, probs=None, **kw):
    law = FixedProbs(tuple(probs)) if probs is not None else BetaLaw(2, 2)
    return SimulatedWorld(
        WorldConfig(
            m_questions=m,
            prob_law=law,
            signal_noise_sigma=sigma,
            correlation_rho=rho,
            rng_seed=seed,
            **kw,
        )
    )


class TestSimulatedWorld:
    def test_fixed_probs_respected(self):
        world = make_world(m=3, probs=[0.9, 0.5, 0.1])
        assert [world.p_star[q.id] for q in world.questions] == [0.9, 0.5, 0.1]

    def test_fixed_probs_length_mismatch(self):
        with pytest.raises(ValidationError):
            make_world(m=3, probs=[0.9, 0.5])

    def test_two_point_law(self):
        world = SimulatedWorld(
            WorldConfig(m_questions=200, prob_law=TwoPointLaw(0.1, 0.8, 0.5), rng_seed=0)
        )
        values = set(world.p_star.values())
        assert values <= {0.1, 0.8}
        assert len(values) == 2

    def test_question_invariants(self):
        world = make_world(m=10)
        ids = [q.id for q in world.questions]
        assert len(set(ids)) == 10
        for q in world.questions:
            assert q.length_chars == len(q.prompt)
            assert q.gold_answer == world.gold[q.id]


class TestSimulatedBackend:
    def test_certain_question_always_gold(self):
        world = make_world(m=2, probs=[1.0, 1.0])
        backend = SimulatedBackend(world, run_seed=0)
        for s in range(20):
            out = backend.sample_outcome("q00000", s)
            assert world.gold["q00000"] in out.text

    def test_empirical_rate_matches_p_star(self):
        world = make_world(m=1, probs=[0.5])
        backend = SimulatedBackend(world, run_seed=1)
        n = 20000
        gold = world.gold["q00000"]
        hits = sum(gold in out.text for out in backend.generate(BackendRequest("q00000", "p", n)).samples)
        sigma = 3 * math.sqrt(0.25 / n)
        assert abs(hits / n - 0.5) < sigma

    def test_noiseless_anll_inverts_to_p_star(self):
        world = make_world(m=8, sigma=0.0)
        backend = SimulatedBackend(world, run_seed=2)
        for q in world.questions:
            for s in range(4):
                out = backend.sample_outcome(q.id, s)
                recovered = score_to_prob(anll(out.token_logprobs), world.config.world_temperature)
                assert abs(recovered - world.p_star[q.id]) <= 1e-9

    def test_full_correlation_makes_samples_agree(self):
        # all samples of a question are correct together or incorrect together
        world = make_world(m=12, rho=1.0, probs=None, seed=5)
        backend = SimulatedBackend(world, run_seed=3)
        for q in world.questions:
            gold = world.gold[q.id]
            outcomes = {gold in backend.sample_outcome(q.id, s).text for s in range(8)}
            assert len(outcomes) == 1

    def test_zero_correlation_independence_chi_square(self):
        world = make_world(m=1, probs=[0.5], rho=0.0)
        backend = SimulatedBackend(world, run_seed=4)
        gold = world.gold["q00000"]
        n_pairs = 50000
        samples = backend.generate(BackendRequest("q00000", "p", 2 * n_pairs)).samples
        table = np.zeros((2, 2))
        for t in range(n_pairs):
            a = gold in samples[2 * t].text
            b = gold in samples[2 * t + 1].text
            table[int(a), int(b)] += 1
        total = table.sum()
        row = table.sum(axis=1)
        col = table.sum(axis=0)
        expected = np.outer(row, col) / total
        stat = ((table - expected) ** 2 / expected).sum()
        assert stat < 6.635  # chi-square df=1 critical value at alpha=0.01

    def test_determinism_and_order_independence(self):
        world = make_world(m=4)
        b1 = SimulatedBackend(world, run_seed=9)
        b2 = SimulatedBackend(world, run_seed=9)
        forward = [b1.sample_outcome("q00001", s).text for s in range(6)]
        backward = [b2.sample_outcome("q00001", s).text for s in reversed(range(6))]
        assert forward == list(reversed(backward))

    def test_samples_follow_their_philox_definition_in_any_order(self):
        world = make_world(m=6, sigma=0.15, rho=0.5, seed=21)
        cfg = world.config
        run_seed = 5
        key = (cfg.rng_seed << 64) | run_seed

        def stream(qid, lane, index):
            return np.random.Generator(np.random.Philox(key=key, counter=[world.index[qid], lane, index, 0]))

        def noise(u, v):
            return cfg.signal_noise_sigma * math.sqrt(-2.0 * math.log1p(-u)) * math.cos(2.0 * math.pi * v)

        def defined(qid, s):
            p = world.p_star[qid]
            mode = stream(qid, 0, 0)
            shared, shared_outcome = mode.random() < cfg.correlation_rho, mode.random() < p
            u_correct, u_distractor, u, v = stream(qid, 1, s).random(4).tolist()
            perceived = p + noise(u, v)
            correct = shared_outcome if shared else u_correct < p
            answer = world.gold[qid] if correct else f"wrong_{int(u_distractor * cfg.n_distractors)}"
            confidence = min(10, max(1, int(round(10 * min(max(perceived, 0.0), 1.0)))))
            logprob = cfg.world_temperature * math.log(min(max(perceived, 1e-9), 1.0))
            return f"The final answer is \\boxed{{{answer}}}. Confidence: {confidence}", (logprob,) * 8

        def defined_label(qid):
            perceived = world.p_star[qid] + noise(*stream(qid, 2, 0).random(2).tolist())
            return JudgeLabel.EASY if perceived > 0.5 else JudgeLabel.HARD

        pairs = [(q.id, s) for q in world.questions for s in range(6)]
        serial = SimulatedBackend(world, run_seed)
        expected = {pair: serial.sample_outcome(*pair) for pair in pairs}
        for pair, out in expected.items():
            assert (out.text, out.token_logprobs) == defined(*pair)
        assert [judge_classify(q, serial) for q in world.questions] == [
            defined_label(q.id) for q in world.questions
        ]

        # requests interleaved across questions, lanes and judge calls
        random.Random(3).shuffle(pairs)
        interleaved = SimulatedBackend(world, run_seed)
        for t, (qid, s) in enumerate(pairs):
            if t % 5 == 0:
                judge_classify(world.questions[t % 6], interleaved)
            resp = interleaved.generate(BackendRequest(qid, "prompt", 1, first_sample_index=s))
            assert resp.samples == [expected[qid, s]]

    def test_noise_has_sd_sigma_and_no_correlation_across_questions(self):
        sigma, n = 0.1, 20000
        world = make_world(m=2, sigma=sigma, probs=[0.5, 0.5])
        backend = SimulatedBackend(world, run_seed=6)
        # the noise each sample's signal carries, recovered from its logprobs
        noise = np.array([
            [
                score_to_prob(anll(out.token_logprobs), world.config.world_temperature) - 0.5
                for out in backend.generate(BackendRequest(q.id, "p", n)).samples
            ]
            for q in world.questions
        ])
        assert abs(noise.mean()) < 3 * sigma / math.sqrt(noise.size)
        assert abs(noise.std(ddof=1) - sigma) < 3 * sigma / math.sqrt(2 * (noise.size - 1))
        # the same sample index on adjacent questions
        assert abs(np.corrcoef(noise[0], noise[1])[0, 1]) < 3 / math.sqrt(n)

    def test_noisy_judge_labels_are_easy_at_rate_half_at_p_one_half(self):
        n = 10000
        world = make_world(m=n, sigma=0.1, probs=[0.5] * n)
        labels = judge_classify_all(world.questions, SimulatedBackend(world, run_seed=6))
        easy = sum(label == JudgeLabel.EASY for label in labels)
        assert abs(easy / n - 0.5) < 3 * math.sqrt(0.25 / n)
        # at p* = 1/2 a label is easy when its noise, cos(2 pi v) times a
        # positive radius, is positive: v is word 1 of the lane-2 block
        key = (world.config.rng_seed << 64) | 6
        for q, label in enumerate(labels[:200]):
            v = np.random.Generator(np.random.Philox(key=key, counter=[q, 2, 0, 0])).random(2)[1]
            assert label == (JudgeLabel.EASY if math.cos(2 * math.pi * v) > 0 else JudgeLabel.HARD)

    def test_blocks_match_a_fresh_philox_at_each_counter(self):
        # scattered streams with repeats and gaps on both sides of the span gap
        world = make_world(m=2, seed=2**63 + 5)
        backend = SimulatedBackend(world, run_seed=7)
        key = (world.config.rng_seed << 64) | backend.run_seed
        rng = np.random.default_rng(4)
        for size in (1, 2, 5, 300):
            questions = rng.integers(0, 5000, size=size)
            questions[: size // 3] = rng.integers(0, 40, size=size // 3)
            indices = rng.integers(0, 3, size=size)
            for lane in (0, 1, 2):
                blocks = backend._blocks(lane, questions, indices)
                for q, s, block in zip(questions.tolist(), indices.tolist(), blocks):
                    fresh = np.random.Philox(key=key, counter=[q, lane, s, 0])
                    assert block.tolist() == fresh.random_raw(4).tolist()

    def test_spans_cross_gaps_of_up_to_64_questions(self):
        class CountingBits:
            def __init__(self, bits):
                self.bits = bits
                self.words = 0

            state = property(lambda self: self.bits.state, lambda self, value: setattr(self.bits, "state", value))

            def random_raw(self, size):
                self.words += size
                return self.bits.random_raw(size)

        backend = SimulatedBackend(make_world(m=2), run_seed=0)
        backend._bits = CountingBits(backend._bits)
        # spans [0, 5] and [1000, 1064] at index 0, and [5] alone at index 1
        questions = np.array([1064, 0, 5, 1000, 5])
        backend._blocks(1, questions, np.array([0, 0, 0, 0, 1]))
        assert backend._bits.words == 4 * (6 + 65 + 1)

    @pytest.mark.parametrize("sigma, rho", [(0.0, 0.0), (0.0, 0.5), (0.15, 0.3)])
    def test_wave_equals_requests_one_at_a_time(self, sigma, rho):
        world = make_world(m=300, sigma=sigma, rho=rho, seed=8)
        rng = random.Random(6)
        # Phase-1 requests for every question, then scattered Phase-2 ones
        phase1 = [BackendRequest(q.id, "p", 1) for q in world.questions]
        phase2 = [
            BackendRequest(q.id, "p", rng.randint(1, 5), first_sample_index=rng.randint(1, 3))
            for q in world.questions
            if rng.random() < 0.3
        ]
        for requests in (phase1, phase2):
            alone = SimulatedBackend(world, run_seed=1)
            expected = {r: alone.generate(r).samples for r in requests}
            waved = SimulatedBackend(world, run_seed=1)
            shuffled = requests[:]
            rng.shuffle(shuffled)
            waved.prepare_wave(shuffled)
            rng.shuffle(shuffled)
            for t, r in enumerate(shuffled):
                if t % 9 == 0:
                    judge_classify(world.questions[t], waved)
                assert waved.generate(r).samples == expected[r]
            assert waved.generation_samples == alone.generation_samples

    def test_noiseless_samples_of_one_answer_are_one_object(self):
        world = make_world(m=1, probs=[0.5])
        backend = SimulatedBackend(world, run_seed=0)
        samples = backend.generate(BackendRequest("q00000", "p", 40)).samples
        assert len({s.text for s in samples}) == len({id(s) for s in samples}) > 1

    def test_wave_leaves_unknown_questions_to_their_own_request(self):
        world = make_world(m=2)
        backend = SimulatedBackend(world, run_seed=0)
        requests = [BackendRequest(qid, "p", 2) for qid in ("q00000", "nope", "q00001")]
        outcomes = generate_wave(backend, requests)
        assert next(outcomes)[1].samples == [backend.sample_outcome("q00000", s) for s in (0, 1)]
        with pytest.raises(UnknownQuestionError):
            next(outcomes)

    @pytest.mark.parametrize("width", [1, 3])
    def test_generate_wave_prepares_the_whole_wave_first(self, width):
        calls = []

        class Recording:
            max_in_flight = width

            def prepare_wave(self, requests):
                calls.append(("prepare", [r.question_id for r in requests]))

            def generate(self, request):
                calls.append(("generate", request.question_id))
                return BackendResponse([])

        requests = (BackendRequest(f"q{i}", "p", 1) for i in range(5))
        assert [r.question_id for r, _ in generate_wave(Recording(), requests)] == [f"q{i}" for i in range(5)]
        assert calls[0] == ("prepare", [f"q{i}" for i in range(5)])
        assert sorted(calls[1:]) == [("generate", f"q{i}") for i in range(5)]

    def test_different_run_seeds_differ(self):
        world = make_world(m=1, probs=[0.5])
        t1 = [SimulatedBackend(world, run_seed=0).sample_outcome("q00000", s).text for s in range(30)]
        t2 = [SimulatedBackend(world, run_seed=1).sample_outcome("q00000", s).text for s in range(30)]
        assert t1 != t2

    def test_unknown_question(self):
        backend = SimulatedBackend(make_world(m=2), run_seed=0)
        with pytest.raises(UnknownQuestionError):
            backend.sample_outcome("nope", 0)

    def test_generate_counts_samples_and_continues_indices(self):
        world = make_world(m=2)
        backend = SimulatedBackend(world, run_seed=0)
        r1 = backend.generate(BackendRequest("q00000", "prompt", 2, first_sample_index=0))
        r2 = backend.generate(BackendRequest("q00000", "prompt", 3, first_sample_index=2))
        assert backend.generation_samples == 5
        direct = [backend.sample_outcome("q00000", s).text for s in range(5)]
        assert [s.text for s in r1.samples] + [s.text for s in r2.samples] == direct

    def test_generate_samples(self):
        world = make_world(m=2)
        backend = SimulatedBackend(world, run_seed=0)
        resp = backend.generate(BackendRequest("q00001", "prompt", 3, first_sample_index=1))
        assert resp.samples == [backend.sample_outcome("q00001", s) for s in (1, 2, 3)]
        for s in resp.samples:
            assert s.finish_reason == FinishReason.STOP
            assert len(s.token_logprobs) == 8
            assert all(lp <= 0 for lp in s.token_logprobs)


class TestJudge:
    def test_sim_judge_labels_follow_difficulty(self):
        world = make_world(m=2, probs=[0.9, 0.1])
        backend = SimulatedBackend(world, run_seed=0)
        labels = [judge_classify(q, backend) for q in world.questions]
        assert labels == [JudgeLabel.EASY, JudgeLabel.HARD]
        assert backend.judge_calls == 2
        assert backend.generation_samples == 0

    def test_generation_prompt_in_judge_wording_gets_samples(self):
        # only a request marked as a judge request is answered with a label
        world = make_world(m=2, probs=[0.9, 0.1])
        backend = SimulatedBackend(world, run_seed=0)
        q = world.questions[0]
        prompt = JUDGE_PROMPT_TEMPLATE.format(question=q.prompt)
        resp = backend.generate(BackendRequest(q.id, prompt, 2))
        assert resp.samples == [backend.sample_outcome(q.id, s) for s in (0, 1)]
        assert backend.generation_samples == 2
        assert backend.judge_calls == 0
        label = backend.generate(BackendRequest(q.id, "any prompt", 1, judge=True))
        assert label.samples[0].text == "easy"
        assert backend.judge_calls == 1

    def test_judge_request_payload_and_cache_key_unmarked(self, stub_server, tmp_path):
        # the judge mark stays out of the POST body and the cache key, so
        # caches written before it existed still replay
        url, state = stub_server
        cache = ResponseCache(tmp_path)
        q = QuestionRecord(id="j1", prompt="Is 7 prime?")
        judge_classify(q, _http_backend(url, cache=cache))
        _path, body = state.requests[-1]
        assert set(body) == {"model", "messages", "n", "temperature", "max_tokens"}
        unmarked = BackendRequest(
            "j1", JUDGE_PROMPT_TEMPLATE.format(question=q.prompt), 1, max_tokens=16, want_logprobs=False
        )
        _http_backend(url, cache=cache).generate(unmarked)
        assert len(state.requests) == 1
        assert cache.hits == 1

    def test_parsing_rules(self):
        class CannedBackend:
            def __init__(self, text):
                self.text = text

            def generate(self, request):
                from uab.backends import BackendResponse, SampleOutput

                return BackendResponse([SampleOutput(self.text, (), FinishReason.STOP)])

        from uab.core import QuestionRecord

        q = QuestionRecord(id="q1", prompt="??")
        assert judge_classify(q, CannedBackend("easy")) == JudgeLabel.EASY
        assert judge_classify(q, CannedBackend("Hard.")) == JudgeLabel.HARD
        assert judge_classify(q, CannedBackend("I think moderately difficult")) == JudgeLabel.HARD
        assert judge_classify(q, CannedBackend("Easy, definitely")) == JudgeLabel.EASY


class TestResponseCache:
    def test_round_trip(self, tmp_path):
        cache = ResponseCache(tmp_path)
        key = ResponseCache.make_key("http://e", "m", "p", {"temperature": 0.9}, 0)
        sample = SampleOutput("hello", (-0.5,), FinishReason.STOP)
        cache.put(key, sample)
        assert cache.get(key) == sample
        entry = {"text": "hello", "token_logprobs": [-0.5], "finish_reason": "stop"}
        assert json.loads((tmp_path / f"{key}.json").read_text()) == entry

    def test_missing_key_is_miss(self, tmp_path):
        cache = ResponseCache(tmp_path)
        assert cache.get("0" * 64) is None
        assert cache.misses == 1

    def test_corruption_treated_as_miss(self, tmp_path, caplog):
        cache = ResponseCache(tmp_path)
        key = ResponseCache.make_key("e", "m", "p", {}, 1)
        cache.put(key, SampleOutput("x", (), FinishReason.STOP))
        (tmp_path / f"{key}.json").write_text("{not json", encoding="utf-8")
        with caplog.at_level(logging.WARNING):
            assert cache.get(key) is None
        assert "treating as miss" in caplog.text

    def test_overwrite_last_write_wins(self, tmp_path, caplog):
        cache = ResponseCache(tmp_path)
        key = ResponseCache.make_key("e", "m", "p", {}, 2)
        cache.put(key, SampleOutput("first", (), FinishReason.STOP))
        with caplog.at_level(logging.INFO):
            cache.put(key, SampleOutput("second", (), FinishReason.STOP))
        assert cache.get(key).text == "second"
        assert "overwritten" in caplog.text

    def test_key_sensitivity(self):
        base = ("http://e", "m", "prompt", {"temperature": 0.9, "max_tokens": 8}, 0)
        k0 = ResponseCache.make_key(*base)
        assert ResponseCache.make_key("http://e", "m", "prompt", {"temperature": 0.9, "max_tokens": 8}, 1) != k0
        assert ResponseCache.make_key("http://e", "m2", "prompt", {"temperature": 0.9, "max_tokens": 8}, 0) != k0
        # parameter order does not matter
        assert ResponseCache.make_key("http://e", "m", "prompt", {"max_tokens": 8, "temperature": 0.9}, 0) == k0

    @staticmethod
    def _hammer(target, threads=8):
        """Run ``target(i)`` on ``threads`` threads released together, with a
        short switch interval; returns the exceptions they raised."""
        barrier = threading.Barrier(threads)
        errors = []

        def run(i):
            try:
                barrier.wait(timeout=5)
                target(i)
            except Exception as exc:
                errors.append(exc)

        old_interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            workers = [threading.Thread(target=run, args=(i,)) for i in range(threads)]
            for w in workers:
                w.start()
            for w in workers:
                w.join(timeout=30)
        finally:
            sys.setswitchinterval(old_interval)
        assert not any(w.is_alive() for w in workers)
        return errors

    def test_concurrent_puts_of_one_key(self, tmp_path):
        cache = ResponseCache(tmp_path)
        key = ResponseCache.make_key("e", "m", "p", {}, 3)

        def put(i):
            for _ in range(20):
                cache.put(key, SampleOutput(f"writer {i}", (), FinishReason.STOP))

        assert self._hammer(put) == []
        assert cache.get(key).text.startswith("writer ")
        assert list(tmp_path.glob("*.tmp")) == []

    def test_counters_under_concurrent_gets(self, tmp_path):
        cache = ResponseCache(tmp_path)
        present = ResponseCache.make_key("e", "m", "p", {}, 4)
        absent = ResponseCache.make_key("e", "m", "p", {}, 5)
        cache.put(present, SampleOutput("x", (), FinishReason.STOP))

        def get(i):
            for _ in range(250):
                cache.get(present)
                cache.get(absent)

        assert self._hammer(get) == []
        assert (cache.hits, cache.misses) == (8 * 250, 8 * 250)


# ---------------------------------------------------------------------------
# HTTP contract tests against a protocol-compatible local stub
# ---------------------------------------------------------------------------


class _StubState:
    def __init__(self):
        self.lock = threading.Lock()
        self.fail_statuses = []
        self.with_logprobs = True
        self.requests = []
        self.retry_after = None
        self.delay_s = 0.0
        self.in_flight = 0
        self.peak_in_flight = 0
        #: Called with each request body that is not refused; a bytes result
        #: is sent as the whole body of a 200 reply in place of the usual one.
        self.raw_reply = None


def _make_stub_handler(state: _StubState):
    class Handler(BaseHTTPRequestHandler):
        def log_message(self, *args):
            pass

        def do_POST(self):
            length = int(self.headers["Content-Length"])
            body = json.loads(self.rfile.read(length))
            with state.lock:
                state.requests.append((self.path, body))
                status = state.fail_statuses.pop(0) if state.fail_statuses else None
                raw = state.raw_reply(body) if status is None and state.raw_reply else None
                state.in_flight += 1
                state.peak_in_flight = max(state.peak_in_flight, state.in_flight)
            try:
                if state.delay_s:
                    time.sleep(state.delay_s)
                self._reply(body, status, raw)
            finally:
                with state.lock:
                    state.in_flight -= 1

        def _reply(self, body, status, raw):
            if status is not None:
                self.send_response(status)
                if state.retry_after is not None:
                    self.send_header("Retry-After", str(state.retry_after))
                self.end_headers()
                return
            if raw is not None:
                self._send_json(raw)
                return
            # replies are a pure function of the prompt and the choice index
            prompt = body["messages"][0]["content"]
            n = body.get("n", 1)
            choices = []
            for i in range(n):
                choice = {
                    "index": i,
                    "message": {
                        "role": "assistant",
                        "content": f"The answer is \\boxed{{{(len(prompt) + i) % 3}}}.",
                    },
                    "finish_reason": "stop",
                }
                if state.with_logprobs and body.get("logprobs"):
                    choice["logprobs"] = {
                        "content": [{"logprob": -0.1 * (i + 1)}, {"logprob": -0.05 * (len(prompt) % 9)}]
                    }
                choices.append(choice)
            self._send_json(json.dumps({"choices": choices}).encode())

        def _send_json(self, payload):
            self.send_response(200)
            self.send_header("Content-Type", "application/json")
            self.send_header("Content-Length", str(len(payload)))
            self.end_headers()
            self.wfile.write(payload)

    return Handler


@pytest.fixture
def stub_server():
    state = _StubState()
    server = ThreadingHTTPServer(("127.0.0.1", 0), _make_stub_handler(state))
    thread = threading.Thread(target=server.serve_forever, kwargs={"poll_interval": 0.05}, daemon=True)
    thread.start()
    try:
        yield f"http://127.0.0.1:{server.server_port}", state
    finally:
        server.shutdown()
        server.server_close()
        thread.join(timeout=5)
        assert not thread.is_alive()


def _http_backend(url, cache=None, retries=3, max_in_flight=8, timeout=5.0):
    cfg = HttpBackendConfig(
        base_url=url, model="stub-model", api_key="k", max_retries=retries,
        backoff_seconds=0.01, timeout_seconds=timeout, max_in_flight=max_in_flight,
    )
    return HttpBackend(cfg, cache=cache)


#: Cache entries that are JSON but hold no sample.
_MALFORMED_ENTRIES = [
    {"token_logprobs": []},
    {"text": "x", "finish_reason": "weird"},
    {"text": "x", "token_logprobs": 5},
    {"text": "x", "token_logprobs": ["a"]},
    {"text": "x", "token_logprobs": [10**400]},
    ["x"],
]


@pytest.fixture
def recorded_sleeps(monkeypatch):
    """Waits asked of ``time.sleep``, which returns at once."""
    sleeps = []
    monkeypatch.setattr(time, "sleep", sleeps.append)
    return sleeps


class TestHttpBackend:
    def test_logprob_capable_endpoint(self, stub_server):
        url, state = stub_server
        backend = _http_backend(url)
        resp = backend.generate(BackendRequest("q1", "what is 2+2", 3, want_logprobs=True))
        assert len(resp.samples) == 3
        for s in resp.samples:
            assert len(s.token_logprobs) == 2
            assert s.finish_reason == FinishReason.STOP
        path, body = state.requests[-1]
        assert path == "/v1/chat/completions"
        assert body["model"] == "stub-model"
        assert body["messages"] == [{"role": "user", "content": "what is 2+2"}]
        assert body["n"] == 3 and body["logprobs"] is True

    def test_rate_limit_retry_then_success(self, stub_server, caplog):
        url, state = stub_server
        state.fail_statuses = [429, 429]
        state.retry_after = 0.01
        backend = _http_backend(url)
        with caplog.at_level(logging.INFO, logger="uab.backends"):
            resp = backend.generate(BackendRequest("q1", "p", 1))
        assert len(resp.samples) == 1
        assert "after 2 retries" in caplog.text

    def test_retries_exhausted(self, stub_server):
        url, state = stub_server
        state.fail_statuses = [500] * 10
        backend = _http_backend(url, retries=2)
        with pytest.raises(BackendError, match="after 2 retries"):
            backend.generate(BackendRequest("q1", "p", 1))

    def test_missing_logprobs_degrades_with_flag(self, stub_server, caplog):
        url, state = stub_server
        state.with_logprobs = False
        backend = _http_backend(url)
        with caplog.at_level(logging.WARNING, logger="uab.backends"):
            resp = backend.generate(BackendRequest("q1", "p", 2, want_logprobs=True))
        assert all(s.token_logprobs == () for s in resp.samples)
        assert "omitted token logprobs" in caplog.text

    def test_cache_replays_byte_identical(self, stub_server, tmp_path):
        url, state = stub_server
        cache = ResponseCache(tmp_path)
        backend = _http_backend(url, cache=cache)
        req = BackendRequest("q1", "cached prompt", 2, want_logprobs=True)
        first = backend.generate(req)
        calls_after_first = len(state.requests)
        second = backend.generate(req)
        assert len(state.requests) == calls_after_first  # served from cache
        assert [s.text for s in first.samples] == [s.text for s in second.samples]
        assert [s.token_logprobs for s in first.samples] == [
            s.token_logprobs for s in second.samples
        ]
        assert cache.hits == 2

    def test_retry_after_delay_seconds(self, stub_server, recorded_sleeps):
        url, state = stub_server
        state.fail_statuses = [429]
        state.retry_after = "1.5"
        resp = _http_backend(url).generate(BackendRequest("q1", "p", 1))
        assert len(resp.samples) == 1
        assert recorded_sleeps == [1.5]

    def test_retry_after_http_date(self, stub_server, recorded_sleeps):
        url, state = stub_server
        state.fail_statuses = [503]
        state.retry_after = email.utils.formatdate(time.time() + 3, usegmt=True)
        resp = _http_backend(url).generate(BackendRequest("q1", "p", 1))
        assert len(resp.samples) == 1
        assert len(recorded_sleeps) == 1
        # HTTP-dates have one-second resolution
        assert 1.0 < recorded_sleeps[0] <= 3.0

    def test_retry_after_unparsable_backs_off(self, stub_server, recorded_sleeps):
        url, state = stub_server
        state.fail_statuses = [429]
        state.retry_after = "soon"
        _http_backend(url).generate(BackendRequest("q1", "p", 1))
        assert recorded_sleeps == [0.01]  # backoff_seconds * 2**0

    @pytest.mark.parametrize("form", ["seconds", "http-date"])
    def test_retry_after_capped_at_timeout(self, stub_server, recorded_sleeps, form):
        url, state = stub_server
        state.fail_statuses = [429, 429]
        state.retry_after = "3600" if form == "seconds" else email.utils.formatdate(
            time.time() + 3600, usegmt=True
        )
        _http_backend(url, timeout=2.0).generate(BackendRequest("q1", "p", 1))
        assert recorded_sleeps == [2.0, 2.0]

    def test_max_in_flight_must_be_positive(self):
        with pytest.raises(ValidationError):
            HttpBackendConfig(base_url="http://e", model="m", max_in_flight=0)

    def test_client_error_no_retry(self, stub_server):
        url, state = stub_server
        state.fail_statuses = [404]
        backend = _http_backend(url)
        with pytest.raises(BackendError, match="404"):
            backend.generate(BackendRequest("q1", "p", 1))
        assert len(state.requests) == 1

    @pytest.mark.parametrize("reply", [b'{"choices": [{"index": 0, "mess', b"[]", b"<html>busy</html>"])
    def test_malformed_reply_retried_then_success(self, stub_server, reply):
        url, state = stub_server
        bad = [reply]
        state.raw_reply = lambda body: bad.pop() if bad else None
        resp = _http_backend(url).generate(BackendRequest("q1", "p", 2))
        assert len(resp.samples) == 2
        assert all(s.finish_reason == FinishReason.STOP for s in resp.samples)
        assert len(state.requests) == 2

    @pytest.mark.parametrize(
        "reply",
        [
            {"choices": ["x"]},
            {"choices": [{"message": "hi", "finish_reason": "stop"}]},
            {"choices": [{"message": {"content": "hi"}, "logprobs": [{"logprob": -0.1}]}]},
            {"choices": [{"message": {"content": ["hi"]}}]},
            {"choices": {"0": {"message": {"content": "hi"}}}},
        ],
    )
    def test_malformed_choice_fails_its_request(self, stub_server, tmp_path, reply):
        url, state = stub_server
        state.raw_reply = lambda body: json.dumps(reply).encode()
        cache = ResponseCache(tmp_path)
        with pytest.raises(BackendError, match="reply (choice|content)"):
            _http_backend(url, cache=cache).generate(BackendRequest("q1", "p", 1))
        assert len(state.requests) == 1
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("value", ["-Infinity", "NaN", "Infinity", "0.5"])
    def test_unusable_logprobs_count_as_missing(self, stub_server, value):
        url, state = stub_server
        state.raw_reply = lambda body: (
            '{"choices": [{"message": {"content": "\\\\boxed{1}"}, "finish_reason": "stop", '
            '"logprobs": {"content": [{"logprob": -0.1}, {"logprob": %s}]}}]}' % value
        ).encode()
        resp = _http_backend(url).generate(BackendRequest("q1", "p", 1))
        assert resp.samples[0].token_logprobs == ()
        assert resp.samples[0].text == "\\boxed{1}"

    def test_unusable_cached_logprobs_replay_as_missing(self, stub_server, tmp_path):
        url, state = stub_server
        cache = ResponseCache(tmp_path)
        backend = _http_backend(url, cache=cache)
        req = BackendRequest("q1", "p", 1)
        (tmp_path / f"{backend._cache_key(req, 0)}.json").write_text(json.dumps({
            "text": "\\boxed{1}", "token_logprobs": [-0.1, float("-inf")], "finish_reason": "stop",
        }))
        resp = backend.generate(req)
        assert state.requests == []
        assert resp.samples[0].token_logprobs == ()

    @pytest.mark.parametrize("entry", _MALFORMED_ENTRIES)
    def test_malformed_cache_entry_is_refetched(self, stub_server, tmp_path, entry):
        url, state = stub_server
        cache = ResponseCache(tmp_path)
        backend = _http_backend(url, cache=cache)
        req = BackendRequest("q1", "p", 2)
        clean = _http_backend(url).generate(req)
        key = backend._cache_key(req, 0)
        (tmp_path / f"{key}.json").write_text(json.dumps(entry))
        cache.put(backend._cache_key(req, 1), clean.samples[1])
        # the stub answers choice 0 of the one-sample refetch like choice 0 before
        assert backend.generate(req).samples == clean.samples
        assert state.requests[-1][1]["n"] == 1
        assert (cache.hits, cache.misses) == (1, 1)
        assert cache.get(key) == clean.samples[0]

    def test_malformed_reply_exhausts_retries(self, stub_server):
        url, state = stub_server
        state.raw_reply = lambda body: b'{"choices": ['
        with pytest.raises(BackendError, match="after 2 retries.*unparsable reply"):
            _http_backend(url, retries=2).generate(BackendRequest("q1", "p", 1))
        assert len(state.requests) == 3


_PROXY_VARIABLES = ("http_proxy", "https_proxy", "all_proxy", "no_proxy")


@pytest.fixture
def clean_proxy_env(monkeypatch):
    """No proxy variable in the environment, in either case."""
    for name in _PROXY_VARIABLES:
        monkeypatch.delenv(name, raising=False)
        monkeypatch.delenv(name.upper(), raising=False)
    return monkeypatch


class TestHttpEnvironment:
    def test_ca_bundle_read_at_construction(self, clean_proxy_env, tmp_path):
        bundle = tmp_path / "ca.pem"
        clean_proxy_env.setenv("REQUESTS_CA_BUNDLE", str(bundle))
        backend = _http_backend("http://127.0.0.1:9")
        clean_proxy_env.delenv("REQUESTS_CA_BUNDLE")
        assert backend._session.verify == str(bundle)

    def test_proxy_read_at_construction_still_applies(self, stub_server, clean_proxy_env):
        proxy_url, state = stub_server
        clean_proxy_env.setenv("http_proxy", proxy_url)
        # nothing listens on the discard port: the reply can only come
        # through the proxy
        backend = _http_backend("http://127.0.0.1:9", retries=0)
        clean_proxy_env.delenv("http_proxy")
        resp = backend.generate(BackendRequest("q1", "p", 1))
        assert len(resp.samples) == 1
        assert state.requests[0][0] == "http://127.0.0.1:9/v1/chat/completions"

    def test_netrc_read_at_construction(self, clean_proxy_env, tmp_path):
        netrc = tmp_path / "netrc"
        netrc.write_text("machine 127.0.0.1 login user password secret\n")
        netrc.chmod(0o600)
        clean_proxy_env.setenv("NETRC", str(netrc))
        assert _http_backend("http://127.0.0.1:9")._session.auth == ("user", "secret")

    def test_environment_looked_up_once(self, stub_server, clean_proxy_env):
        import requests

        url, _state = stub_server
        lookups = []
        original = requests.sessions.get_environ_proxies

        def counting(*args, **kwargs):
            lookups.append(args)
            return original(*args, **kwargs)

        clean_proxy_env.setattr(requests.sessions, "get_environ_proxies", counting)
        backend = _http_backend(url)
        for i in range(10):
            backend.generate(BackendRequest(f"q{i}", f"prompt {i}", 1))
        assert len(lookups) <= 1


# ---------------------------------------------------------------------------
# Phase waves against the stub
# ---------------------------------------------------------------------------


def _wave_questions(m=8):
    return [
        QuestionRecord(id=f"w{i}", prompt=f"Question {i}: " + "x" * i, gold_answer=str(i % 3))
        for i in range(m)
    ]


def _result_lines(questions, backend, policy=Policy.UAB, n=3):
    config = PipelineConfig(budget=BudgetSpec(n, len(questions)), policy=policy)
    return [result_json_line(r) for r in run_two_phase(questions, backend, config)]


class _FailingFor:
    """Backend wrapper that fails every request of one question."""

    def __init__(self, inner, question_id):
        self.inner = inner
        self.question_id = question_id
        self.max_in_flight = inner.max_in_flight

    def generate(self, request):
        if request.question_id == self.question_id:
            raise BackendError("injected failure")
        return self.inner.generate(request)


class TestPhaseWaves:
    def test_results_do_not_depend_on_width(self, stub_server):
        url, state = stub_server
        state.delay_s = 0.02
        questions = _wave_questions()
        serial = _result_lines(questions, _http_backend(url, max_in_flight=1))
        serial_posts = len(state.requests)
        state.peak_in_flight = 0
        wide = _result_lines(questions, _http_backend(url, max_in_flight=4))
        assert wide == serial
        assert len(state.requests) == 2 * serial_posts
        assert state.peak_in_flight >= 2

    def test_failure_touches_its_own_question_only(self, stub_server):
        url, state = stub_server
        state.delay_s = 0.01
        questions = _wave_questions()
        clean = _result_lines(questions, _http_backend(url, max_in_flight=1), Policy.UNIFORM)
        state.peak_in_flight = 0
        failing = _FailingFor(_http_backend(url, max_in_flight=4), "w3")
        flaky = _result_lines(questions, failing, Policy.UNIFORM)
        assert state.peak_in_flight >= 2
        assert flaky[:3] + flaky[4:] == clean[:3] + clean[4:]
        failed = json.loads(flaky[3])
        assert failed["final_answer"] == ""
        assert failed["correct"] is False
        assert failed["samples_used"] == 3
        assert failed["p_i"] == 0.5  # no usable Phase-1 logprobs

    def test_truncated_replies_touch_their_own_question_only(self, stub_server):
        url, state = stub_server
        state.delay_s = 0.01
        questions = _wave_questions()
        clean = _result_lines(questions, _http_backend(url, max_in_flight=1), Policy.UNIFORM)
        state.peak_in_flight = 0
        doomed = questions[3].prompt
        state.raw_reply = lambda body: (
            b'{"choices": [' if body["messages"][0]["content"] == doomed else None
        )
        flaky = _result_lines(questions, _http_backend(url, max_in_flight=4), Policy.UNIFORM)
        assert state.peak_in_flight >= 2
        assert flaky[:3] + flaky[4:] == clean[:3] + clean[4:]
        failed = json.loads(flaky[3])
        assert failed["final_answer"] == ""
        assert failed["samples_used"] == 3
        assert failed["p_i"] == 0.5

    def test_malformed_choices_touch_their_own_question_only(self, stub_server):
        url, state = stub_server
        state.delay_s = 0.01
        questions = _wave_questions()
        clean = _result_lines(questions, _http_backend(url, max_in_flight=1), Policy.UNIFORM)
        state.peak_in_flight = 0
        doomed = questions[3].prompt
        state.raw_reply = lambda body: (
            json.dumps({"choices": ["x"] * body["n"]}).encode()
            if body["messages"][0]["content"] == doomed else None
        )
        flaky = _result_lines(questions, _http_backend(url, max_in_flight=4), Policy.UNIFORM)
        assert state.peak_in_flight >= 2
        assert flaky[:3] + flaky[4:] == clean[:3] + clean[4:]
        failed = json.loads(flaky[3])
        assert failed["final_answer"] == ""
        assert failed["samples_used"] == 3
        assert failed["p_i"] == 0.5

    def test_infinite_logprob_gets_the_fallback_probability(self, stub_server):
        url, state = stub_server
        questions = _wave_questions()
        clean = _result_lines(questions, _http_backend(url, max_in_flight=1), Policy.UNIFORM)
        doomed = questions[3].prompt

        def minus_infinity(body):
            if body["messages"][0]["content"] != doomed:
                return None
            choices = [
                {
                    "message": {"content": f"The answer is \\boxed{{{(len(doomed) + i) % 3}}}."},
                    "finish_reason": "stop",
                    "logprobs": {"content": [{"logprob": -0.1}, {"logprob": float("-inf")}]},
                }
                for i in range(body["n"])
            ]
            return json.dumps({"choices": choices}).encode()

        state.raw_reply = minus_infinity
        degraded = _result_lines(questions, _http_backend(url, max_in_flight=4), Policy.UNIFORM)
        assert degraded[:3] + degraded[4:] == clean[:3] + clean[4:]
        got, want = json.loads(degraded[3]), json.loads(clean[3])
        assert got["p_i"] == 0.5 != want["p_i"]
        assert got["final_answer"] == want["final_answer"]

    @pytest.mark.parametrize("entry", _MALFORMED_ENTRIES)
    def test_malformed_cache_entry_inside_a_wave_is_a_miss(self, stub_server, tmp_path, entry):
        url, state = stub_server
        questions = _wave_questions()
        cache = ResponseCache(tmp_path)
        clean = _result_lines(questions, _http_backend(url, cache=cache, max_in_flight=4))
        posts = len(state.requests)
        doomed = _http_backend(url)._cache_key(BackendRequest("w3", questions[3].prompt, 1), 0)
        (tmp_path / f"{doomed}.json").write_text(json.dumps(entry))
        replay = _result_lines(questions, _http_backend(url, cache=cache, max_in_flight=4))
        assert replay == clean
        assert len(state.requests) == posts + 1
        assert cache.get(doomed) is not None

    @pytest.mark.parametrize(
        "signal, k", [(SignalKind.ANLL, 1), (SignalKind.VCS, 1), (SignalKind.VOTE_ENTROPY, 2)]
    )
    def test_error_sample_casts_no_vote_and_gives_no_signal(self, stub_server, signal, k):
        # a refused choice whose text still parses: finish_reason alone must
        # keep it out of the vote and out of every Phase-1 estimate
        url, state = stub_server
        questions = _wave_questions()
        questions[3] = QuestionRecord(id="w3", prompt=questions[3].prompt, gold_answer="7")
        doomed = questions[3].prompt

        def reply(finish_reason):
            def canned(body):
                if not body["messages"][0]["content"].startswith(doomed):
                    return None
                choice = {
                    "message": {"content": "The answer is \\boxed{7}. Confidence: 9"},
                    "finish_reason": finish_reason,
                    "logprobs": {"content": [{"logprob": -0.05}, {"logprob": -0.05}]},
                }
                return json.dumps({"choices": [choice] * body["n"]}).encode()
            return canned

        config = PipelineConfig(budget=BudgetSpec(3, len(questions)), signal_kind=signal, phase1_samples_k=k)
        rows = {}
        for finish_reason in ("stop", "content_filter"):
            state.raw_reply = reply(finish_reason)
            results = run_two_phase(questions, _http_backend(url, max_in_flight=4), config)
            rows[finish_reason] = json.loads(result_json_line(results[3]))
        assert rows["stop"]["final_answer"] == "7"
        assert rows["stop"]["p_i"] > 0.5
        assert rows["content_filter"]["final_answer"] == ""
        assert rows["content_filter"]["correct"] is False
        assert rows["content_filter"]["p_i"] == 0.5

    def test_generate_wave_yields_errors_in_request_order(self, stub_server):
        url, state = stub_server
        state.delay_s = 0.01
        requests = [BackendRequest(f"w{i}", f"prompt {i}", 1) for i in range(6)]
        outcomes = list(generate_wave(_FailingFor(_http_backend(url, max_in_flight=3), "w2"), requests))
        assert [r for r, _ in outcomes] == requests
        assert [isinstance(o, BackendError) for _, o in outcomes] == [False, False, True, False, False, False]
        assert all(isinstance(o, BackendResponse) for _, o in outcomes if not isinstance(o, BackendError))

    def test_judge_wave_raises_a_failed_request(self, stub_server):
        url, _state = stub_server
        failing = _FailingFor(_http_backend(url, max_in_flight=4), "w1")
        with pytest.raises(BackendError, match="injected"):
            judge_classify_all(_wave_questions(4), failing)

    def test_cli_judge_over_http_uses_cache_dir(self, stub_server, tmp_path):
        from uab.cli import main

        url, state = stub_server
        questions = tmp_path / "questions.jsonl"
        questions.write_text(
            "".join(json.dumps({"id": f"j{i}", "prompt": f"Is {i} prime?"}) + "\n" for i in range(5))
        )
        cfg = tmp_path / "judge.cfg"
        cfg.write_text(
            f"http.base_url = {url}\nhttp.model = stub-model\nhttp.cache_dir = {tmp_path / 'cache'}\n"
        )
        outs = [tmp_path / "first.jsonl", tmp_path / "second.jsonl"]
        for out in outs:
            rc = main(["judge", "--config", str(cfg), "--backend", "http",
                       "--questions", str(questions), "--out", str(out)])
            assert rc == 0
            assert len(state.requests) == 5  # the second run replays from the cache
        assert outs[0].read_text() == outs[1].read_text()
        rows = [json.loads(line) for line in outs[0].read_text().splitlines()]
        assert [r["id"] for r in rows] == [f"j{i}" for i in range(5)]
        assert {body["max_tokens"] for _, body in state.requests} == {16}
