import math

import numpy as np
import pytest

from uab.allocation import ExitKind, ExitMode, ThresholdExitConfig, greedy_allocate
from uab.backends import (
    BackendError,
    BackendRequest,
    BackendResponse,
    FixedProbs,
    JudgeLabel,
    SampleOutput,
    SimulatedBackend,
    SimulatedWorld,
    WorldConfig,
    generate_wave,
)
from uab.core import (
    BudgetSpec,
    FinishReason,
    QuestionRecord,
    SignalKind,
    TaskKind,
    ValidationError,
)
from uab.pipeline import (
    NoVotesError,
    PipelineConfig,
    Policy,
    allocate_baseline,
    canonicalize_answer,
    estimate_difficulties,
    majority_vote,
    parse_answer,
    run_two_phase,
)
from uab import pipeline
from uab.signals import score_to_prob


def sim_setup(probs, n_per_question, sigma=0.0, rho=0.0, world_seed=3, run_seed=0, **world_kw):
    world = SimulatedWorld(
        WorldConfig(
            m_questions=len(probs),
            prob_law=FixedProbs(tuple(probs)),
            signal_noise_sigma=sigma,
            correlation_rho=rho,
            rng_seed=world_seed,
            **world_kw,
        )
    )
    backend = SimulatedBackend(world, run_seed=run_seed)
    budget = BudgetSpec(n_per_question, len(probs), temperature=0.2)
    return world, backend, budget


class TestParseAnswer:
    def test_boxed_extraction(self):
        assert parse_answer("so the answer is \\boxed{42}.", TaskKind.OPEN_MATH) == "42"

    def test_boxed_nested_braces(self):
        text = "thus \\boxed{\\frac{1}{2}} holds"
        assert parse_answer(text, TaskKind.OPEN_MATH) == "\\frac{1}{2}"

    def test_last_boxed_wins(self):
        text = "\\boxed{1} but actually \\boxed{2}"
        assert parse_answer(text, TaskKind.OPEN_MATH) == "2"

    def test_option_letter(self):
        assert parse_answer("The correct option is (B).", TaskKind.MULTIPLE_CHOICE) == "B"

    def test_option_letter_case_normalized(self):
        assert parse_answer("i pick c", TaskKind.MULTIPLE_CHOICE) == "C"

    def test_nothing_extractable(self):
        assert parse_answer("I am not sure.", TaskKind.OPEN_MATH) is None
        assert parse_answer("no options here: XYZ", TaskKind.MULTIPLE_CHOICE) is None
        assert parse_answer("", TaskKind.OPEN_MATH) is None

    def test_number_fallback(self):
        assert parse_answer("the total comes to 128 apples", TaskKind.OPEN_MATH) == "128"
        assert parse_answer("first 3 then 7.5 finally", TaskKind.OPEN_MATH) == "7.5"

    def test_numeric_normalization(self):
        assert canonicalize_answer("4.0") == "4"
        assert canonicalize_answer(" 42. ") == "42"
        assert canonicalize_answer("1,234") == "1234"
        assert canonicalize_answer("0.50") == "0.5"
        assert canonicalize_answer("answer!") == "answer"

    def test_big_integers_exact(self):
        assert canonicalize_answer("12345678901234567890") == "12345678901234567890"

    @pytest.mark.parametrize("text, expected", [
        ("\\boxed{a}b}", "a"),
        ("\\boxed{ 1,234. }", "1234"),
        ("\\boxed{\\frac{1}{2}}", "\\frac{1}{2}"),
        ("\\boxed{{}}", "{}"),
        ("3 and \\boxed{x", "3"),
        ("\\boxed{\\frac{1}{2}", "2"),
        ("\\boxed{ }", None),
        ("\\boxed{}", None),
    ])
    def test_boxed_braces(self, text, expected):
        assert parse_answer(text, TaskKind.OPEN_MATH) == expected


#: Texts whose answers a shared memo must not change: nested, unbalanced and
#: repeated boxes, blank boxes, and numbers with commas, decimals and signs.
_MEMO_TEXTS = [
    "so \\boxed{42}.", "\\boxed{42}", "\\boxed{ 42. }", "\\boxed{42.0}", "\\boxed{1} then \\boxed{2}",
    "\\boxed{\\frac{1}{2}}", "\\boxed{\\frac{1}{2}", "\\boxed{a}b}", "\\boxed{ }", "\\boxed{}", "\\boxed{,}",
    "total 1,234 apples", "\\boxed{1,234}", "-7 degrees", "\\boxed{-7.50}", "0.50 or 2.5", "12345678901234567890",
    "\\boxed{answer!}", "no number here", "", "pick (B) not c", "\\boxed{B}", "\\boxed{b}",
]


class TestParseAnswerMemo:
    @pytest.mark.parametrize("task_kind", list(TaskKind))
    def test_shared_memo_changes_no_answer(self, task_kind):
        memo = {}
        for _ in range(2):  # the second pass finds every span in the memo
            for text in _MEMO_TEXTS:
                assert parse_answer(text, task_kind, memo) == parse_answer(text, task_kind)
        if task_kind == TaskKind.MULTIPLE_CHOICE:
            assert memo == {}
        else:
            assert memo == {span: canonicalize_answer(span) for span in memo}
            assert {"42", " 42. ", "1,234", "", " "} <= set(memo)

    def test_gold_answer_through_the_memo(self):
        memo = {}
        assert parse_answer("\\boxed{1,234}", TaskKind.OPEN_MATH, memo) == "1234"
        assert pipeline._canonical("1,234", memo) == "1234"
        assert pipeline._canonical(" 7. ", memo) == canonicalize_answer(" 7. ") == "7"
        assert memo == {"1,234": "1234", " 7. ": "7"}
        # a span found in the memo is not canonicalized again
        memo["1,234"] = "sentinel"
        assert pipeline._canonical("1,234", memo) == "sentinel"
        assert parse_answer("\\boxed{1,234}", TaskKind.OPEN_MATH, memo) == "sentinel"

    def test_run_grades_gold_answers_through_the_memo(self, monkeypatch):
        canonicalized = []
        original = pipeline.canonicalize_answer

        def counting(raw):
            canonicalized.append(raw)
            return original(raw)

        monkeypatch.setattr(pipeline, "canonicalize_answer", counting)
        probs = [0.9, 0.8, 0.7, 0.95]
        world, backend, budget = sim_setup(probs, n_per_question=4)
        results = run_two_phase(world.questions, backend, PipelineConfig(budget=budget))
        assert all(r.correct is not None for r in results)
        assert len(canonicalized) == len(set(canonicalized))
        assert {q.gold_answer for q in world.questions} <= set(canonicalized)


class TestMajorityVote:
    def test_strict_majority(self):
        assert majority_vote(["4", "4", "5"]).winner == "4"

    def test_tie_breaks_lexicographically(self):
        assert majority_vote(["4", "5"]).winner == "4"
        assert majority_vote(["B", "A", "B", "A"]).winner == "A"

    def test_abstentions_do_not_vote(self):
        tally = majority_vote(["7", None, None, "9", "7"])
        assert tally.winner == "7"
        assert tally.counts == {"7": 2, "9": 1}

    def test_all_abstain_errors(self):
        with pytest.raises(NoVotesError, match="no votes"):
            majority_vote([None, None])


class TestAllocateBaseline:
    def make_questions(self, m):
        return [QuestionRecord(id=f"q{i}", prompt="x" * (10 + i)) for i in range(m)]

    def test_uniform(self):
        qs = self.make_questions(3)
        alloc = allocate_baseline(Policy.UNIFORM, qs, None, BudgetSpec(4, 3), np.random.default_rng(0))
        assert alloc.extras == {"q0": 3, "q1": 3, "q2": 3}

    def test_random_conserves_budget(self):
        qs = self.make_questions(3)
        for seed in range(5):
            alloc = allocate_baseline(
                Policy.RANDOM, qs, None, BudgetSpec(2, 3), np.random.default_rng(seed)
            )
            assert alloc.total_extras() == 3
            assert all(e >= 0 for e in alloc.extras.values())

    def test_random_seeded_deterministic(self):
        qs = self.make_questions(5)
        a1 = allocate_baseline(Policy.RANDOM, qs, None, BudgetSpec(4, 5), np.random.default_rng(7))
        a2 = allocate_baseline(Policy.RANDOM, qs, None, BudgetSpec(4, 5), np.random.default_rng(7))
        assert a1.extras == a2.extras

    def test_llm_judge_splits_budget_over_hard(self):
        qs = self.make_questions(4)
        labels = {
            "q0": JudgeLabel.EASY,
            "q1": JudgeLabel.HARD,
            "q2": JudgeLabel.HARD,
            "q3": JudgeLabel.EASY,
        }
        alloc = allocate_baseline(Policy.LLM_JUDGE, qs, labels, BudgetSpec(4, 4), np.random.default_rng(0))
        # B_eff = 12 split equally over the two hard questions: 7 samples each in total
        assert alloc.extras == {"q0": 0, "q1": 6, "q2": 6, "q3": 0}

    def test_llm_judge_remainder_round_robin(self):
        qs = self.make_questions(4)
        labels = {q.id: JudgeLabel.HARD for q in qs}
        labels["q0"] = JudgeLabel.EASY
        alloc = allocate_baseline(Policy.LLM_JUDGE, qs, labels, BudgetSpec(3, 4), np.random.default_rng(0))
        # B_eff = 8 over 3 hard questions: 3, 3, 2
        assert alloc.extras == {"q0": 0, "q1": 3, "q2": 3, "q3": 2}

    def test_llm_judge_no_hard_questions(self):
        qs = self.make_questions(3)
        labels = {q.id: JudgeLabel.EASY for q in qs}
        alloc = allocate_baseline(Policy.LLM_JUDGE, qs, labels, BudgetSpec(2, 3), np.random.default_rng(0))
        assert alloc.total_extras() == 3  # conserved round-robin

    def test_llm_judge_requires_labels(self):
        qs = self.make_questions(2)
        with pytest.raises(ValidationError):
            allocate_baseline(Policy.LLM_JUDGE, qs, None, BudgetSpec(2, 2), np.random.default_rng(0))

    def test_length_allocates_toward_longer_prompts(self):
        qs = self.make_questions(4)  # lengths 10..13
        alloc = allocate_baseline(Policy.LENGTH, qs, None, BudgetSpec(4, 4), np.random.default_rng(0))
        assert alloc.total_extras() == 12
        # longest prompt maps to the lowest probability, shortest to p=1
        assert alloc.extras["q3"] >= alloc.extras["q0"]

    @pytest.mark.parametrize("lengths", [[10, 11, 12, 13], [13, 10, 12, 11, 10], [7, 7, 7]])
    def test_length_policy_spends_by_the_length_signal(self, lengths):
        qs = [QuestionRecord(id=f"q{i}", prompt="x" * n) for i, n in enumerate(lengths)]
        budget = BudgetSpec(3, len(qs), temperature=0.2)
        lo, hi = min(lengths), max(lengths)
        probs = {
            q.id: score_to_prob((n - lo) / (hi - lo) if hi > lo else 0.0, budget.temperature)
            for q, n in zip(qs, lengths)
        }
        alloc = allocate_baseline(Policy.LENGTH, qs, None, budget, np.random.default_rng(0))
        assert alloc.extras == greedy_allocate(probs, budget.effective).extras

    def test_vote_entropy_reads_the_phase1_answers(self):
        qs = [QuestionRecord(id=f"q{i}", prompt="p") for i in range(2)]
        # the tallies of ["7", "7"] and ["7", None, "8"]
        estimates = estimate_difficulties(
            qs, {}, {"q0": {"7": 2}, "q1": {"7": 1, "8": 1}}, SignalKind.VOTE_ENTROPY, 0.3
        )
        assert estimates["q0"].score == 0.0
        assert estimates["q1"].score == pytest.approx(math.log(2))

    @pytest.mark.parametrize("signal", [SignalKind.ANLL, SignalKind.VCS, SignalKind.VOTE_ENTROPY])
    def test_question_without_phase1_output_falls_back(self, signal):
        qs = [QuestionRecord(id=f"q{i}", prompt="p") for i in range(2)]
        sample = SampleOutput("\\boxed{7}. Confidence: 8", (-0.1,) * 3, FinishReason.STOP)
        estimates = estimate_difficulties(qs, {"q0": [sample]}, {"q0": {"7": 1}}, signal, 0.3)
        assert estimates["q0"].prob != 0.5
        assert estimates["q1"].prob == 0.5
        assert estimates["q1"].signal_kind == signal

    def test_one_warning_sums_up_the_fallbacks(self, caplog):
        qs = [QuestionRecord(id=f"q{i}", prompt="p") for i in range(4)]
        # the tallies of ["7", "8"], [None, None] and [None]
        votes = {"q0": {"7": 1, "8": 1}, "q1": {}, "q2": {}}
        with caplog.at_level("INFO", logger="uab.pipeline"):
            estimate_difficulties(qs, {}, votes, SignalKind.VOTE_ENTROPY, 0.3)
        warnings = [r.getMessage() for r in caplog.records if r.levelname == "WARNING"]
        assert warnings == [
            "3 of 4 questions have no usable vote_entropy signal and use the fallback p=0.50: "
            "all Phase-1 samples abstained (2); no Phase-1 answers (1)"
        ]

    def test_no_warning_when_every_question_has_a_signal(self, caplog):
        qs = [QuestionRecord(id="q0", prompt="p")]
        with caplog.at_level("INFO", logger="uab.pipeline"):
            estimate_difficulties(qs, {}, {"q0": {"7": 1}}, SignalKind.VOTE_ENTROPY, 0.3)
        assert not [r for r in caplog.records if r.levelname == "WARNING"]


class TestRunTwoPhase:
    def test_uniform_sample_accounting(self, counting):
        world, backend, budget = sim_setup([0.5, 0.7, 0.2], n_per_question=4)
        backend = counting(backend)
        cfg = PipelineConfig(budget=budget, policy=Policy.UNIFORM)
        results = run_two_phase(world.questions, backend, cfg)
        assert all(r.samples_used == 4 for r in results)
        assert backend.generation_samples == 12

    def test_uab_concentrates_on_uncertain_question(self, counting):
        # noiseless estimates (0.9, 0.3): both Phase-2 units flow to q2
        world, backend, budget = sim_setup([0.9, 0.3], n_per_question=2)
        backend = counting(backend)
        cfg = PipelineConfig(budget=budget, policy=Policy.UAB)
        results = run_two_phase(world.questions, backend, cfg)
        used = {r.question_id: r.samples_used for r in results}
        assert used == {"q00000": 1, "q00001": 3}
        assert backend.generation_samples == 4

    def test_single_sample_accuracy_matches_mean_p(self):
        rng = np.random.default_rng(0)
        probs = list(rng.beta(2, 2, size=1000))
        world, backend, budget = sim_setup(probs, n_per_question=1)
        cfg = PipelineConfig(budget=budget, policy=Policy.UAB)
        results = run_two_phase(world.questions, backend, cfg)
        accuracy = np.mean([r.correct for r in results])
        expected = np.mean(probs)
        sigma = 3 * math.sqrt(np.mean([p * (1 - p) for p in probs]) / len(probs))
        assert abs(accuracy - expected) < sigma

    def test_phase1_votes_are_counted(self):
        # with N=1 there is no Phase 2, so the vote is exactly the Phase-1 answer
        world, backend, budget = sim_setup([1.0, 1.0], n_per_question=1)
        cfg = PipelineConfig(budget=budget, policy=Policy.UNIFORM)
        results = run_two_phase(world.questions, backend, cfg)
        for r in results:
            assert r.final_answer == world.questions[world.index[r.question_id]].gold_answer
            assert r.correct is True

    def test_noiseless_estimates_recover_p_star(self):
        world, backend, budget = sim_setup([0.8, 0.4, 0.1], n_per_question=2)
        cfg = PipelineConfig(budget=budget, policy=Policy.UAB)
        results = run_two_phase(world.questions, backend, cfg)
        for r in results:
            assert r.difficulty.prob == pytest.approx(world.p_star[world.index[r.question_id]], abs=1e-9)
            # probability came through the temperature map
            assert r.difficulty.prob == pytest.approx(
                math.exp(-r.difficulty.score / budget.temperature), abs=1e-12
            )

    def test_threshold_exit_skip_reduces_issued_samples(self, counting):
        world, backend, budget = sim_setup([0.9, 0.8, 0.3, 0.2], n_per_question=4)
        backend = counting(backend)
        cfg = PipelineConfig(
            budget=budget,
            policy=Policy.UAB,
            threshold_exit=ThresholdExitConfig(ExitKind.EASY, 0.5, ExitMode.SKIP),
        )
        results = run_two_phase(world.questions, backend, cfg)
        # B_eff=12, eligible 2/4 questions -> floor(12*2/4)=6 allocated, 6 saved
        assert backend.generation_samples == 4 + 6
        high = {"q00000", "q00001"}
        for r in results:
            if r.question_id in high:
                assert r.samples_used == 1

    def test_vote_entropy_consumes_k_samples(self, counting):
        world, backend, budget = sim_setup([0.6, 0.4, 0.5], n_per_question=4)
        backend = counting(backend)
        cfg = PipelineConfig(
            budget=budget, policy=Policy.UAB, signal_kind=SignalKind.VOTE_ENTROPY,
            phase1_samples_k=2,
        )
        results = run_two_phase(world.questions, backend, cfg)
        assert backend.generation_samples == 12  # 2*3 Phase 1 + (4-2)*3 Phase 2
        assert all(r.samples_used >= 2 for r in results)
        assert sum(r.samples_used for r in results) == 12
        for r in results:
            assert 0.0 <= r.difficulty.score <= math.log(2) + 1e-12

    def test_vcs_signal_black_box(self):
        world, backend, budget = sim_setup([0.9, 0.1], n_per_question=2)
        cfg = PipelineConfig(budget=budget, policy=Policy.UAB, signal_kind=SignalKind.VCS)
        results = run_two_phase(world.questions, backend, cfg)
        by_id = {r.question_id: r for r in results}
        # confidence ratings are round(10*p) clamped to 1..10
        assert by_id["q00000"].difficulty.prob == pytest.approx(0.9)
        assert by_id["q00001"].difficulty.prob == pytest.approx(0.1)

    def test_llm_judge_policy_uses_judge_calls(self, counting):
        world, backend, budget = sim_setup([0.9, 0.1], n_per_question=3)
        backend = counting(backend)
        cfg = PipelineConfig(budget=budget, policy=Policy.LLM_JUDGE)
        results = run_two_phase(world.questions, backend, cfg)
        assert backend.judge_calls == 2
        used = {r.question_id: r.samples_used for r in results}
        # q1 easy -> 1 sample; q2 hard -> 1 + full B_eff
        assert used == {"q00000": 1, "q00001": 5}
        assert backend.generation_samples == 6

    def test_backend_failures_become_abstentions(self):
        world, backend, budget = sim_setup([0.9, 0.9], n_per_question=2)

        class FlakyBackend:
            def __init__(self, inner, fail_qid):
                self.inner = inner
                self.fail_qid = fail_qid

            def generate(self, request):
                response = self.inner.generate(request)
                if request.question_id == self.fail_qid:
                    response = BackendResponse(
                        [SampleOutput("", (), FinishReason.ERROR) for _ in response.samples]
                    )
                return response

        flaky = FlakyBackend(backend, "q00001")
        cfg = PipelineConfig(budget=budget, policy=Policy.UNIFORM)
        results = run_two_phase(world.questions, flaky, cfg)
        by_id = {r.question_id: r for r in results}
        assert by_id["q00000"].correct is True
        assert by_id["q00001"].final_answer == ""
        assert by_id["q00001"].correct is False
        # failed samples still count toward the issued budget
        assert by_id["q00001"].samples_used == 2

    @pytest.mark.parametrize("signal, k, why", [
        (SignalKind.ANLL, 1, "no usable logprobs in Phase 1"),
        (SignalKind.VCS, 1, "no Phase-1 generation"),
        (SignalKind.VOTE_ENTROPY, 2, "all Phase-1 samples abstained"),
    ])
    def test_failed_phase1_request_adds_no_samples_and_falls_back(self, caplog, signal, k, why):
        world, backend, budget = sim_setup([0.9, 0.6, 0.3], n_per_question=4)

        class FailingPhase1:
            def generate(self, request):
                if request.question_id == "q00001" and request.first_sample_index == 0:
                    raise BackendError("injected")
                return backend.generate(request)

        cfg = PipelineConfig(budget=budget, signal_kind=signal, phase1_samples_k=k)
        with caplog.at_level("WARNING", logger="uab.pipeline"):
            results = run_two_phase(world.questions, FailingPhase1(), cfg)
        probs = {r.question_id: r.difficulty.prob for r in results}
        assert probs["q00001"] == 0.5
        assert probs["q00000"] != 0.5 and probs["q00002"] != 0.5
        warnings = [r.getMessage() for r in caplog.records if r.levelname == "WARNING"]
        assert warnings == [
            "generation failed for q00001 (injected); it contributes no samples",
            f"1 of 3 questions have no usable {signal.value} signal and use the fallback p=0.50: {why} (1)",
        ]
        # the failed request's units still count as used
        assert sum(r.samples_used for r in results) == budget.total

    def test_serial_backend_never_starts_a_pool(self, monkeypatch):
        import concurrent.futures

        def refuse(*args, **kwargs):
            raise AssertionError("thread pool created")

        monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", refuse)
        for policy in (Policy.UAB, Policy.LLM_JUDGE):
            world, backend, budget = sim_setup([0.9, 0.5, 0.1], n_per_question=3)
            results = run_two_phase(world.questions, backend, PipelineConfig(budget=budget, policy=policy))
            assert sum(r.samples_used for r in results) == 9

        class Wide:
            max_in_flight = 2

            def generate(self, request):
                return backend.generate(request)

        # the patch does stop a backend that declares a wider wave
        with pytest.raises(AssertionError, match="thread pool"):
            list(generate_wave(Wide(), [BackendRequest("q00000", "p", 1)]))

    @pytest.mark.parametrize("signal, k", [
        (SignalKind.ANLL, 1), (SignalKind.VCS, 1), (SignalKind.VOTE_ENTROPY, 2),
    ])
    def test_each_sample_parsed_once(self, monkeypatch, signal, k):
        parsed = []
        original = pipeline.parse_answer

        def counting(text, task_kind, memo=None):
            parsed.append(text)
            return original(text, task_kind, memo)

        monkeypatch.setattr(pipeline, "parse_answer", counting)
        probs = list(np.random.default_rng(2).beta(2, 2, size=100))
        world, backend, budget = sim_setup(probs, n_per_question=4)
        cfg = PipelineConfig(budget=budget, signal_kind=signal, phase1_samples_k=k)
        results = run_two_phase(world.questions, backend, cfg)
        assert len(parsed) == sum(r.samples_used for r in results) == 400

    def test_determinism_byte_for_byte(self):
        from uab.harness import result_json_line

        probs = list(np.random.default_rng(5).beta(2, 2, size=30))
        runs = []
        for _ in range(2):
            world, backend, budget = sim_setup(probs, n_per_question=4, run_seed=13)
            cfg = PipelineConfig(budget=budget, policy=Policy.UAB, rng_seed=13)
            results = run_two_phase(world.questions, backend, cfg)
            runs.append("\n".join(result_json_line(r) for r in results))
        assert runs[0] == runs[1]

    def test_config_validation(self):
        budget = BudgetSpec(2, 3)
        with pytest.raises(ValidationError):
            PipelineConfig(budget=budget, phase1_samples_k=3)
        with pytest.raises(ValidationError):
            PipelineConfig(budget=budget, signal_kind=SignalKind.VOTE_ENTROPY, phase1_samples_k=1)
        with pytest.raises(ValidationError):
            PipelineConfig(budget=budget, phase1_samples_k=2)  # K>1 without vote entropy
        with pytest.raises(ValidationError):
            # baselines assume a single first-round sample
            PipelineConfig(
                budget=budget, policy=Policy.UNIFORM,
                signal_kind=SignalKind.VOTE_ENTROPY, phase1_samples_k=2,
            )

    @pytest.mark.parametrize("field, value", [
        ("sampling_temperature", float("nan")),
        ("sampling_temperature", float("inf")),
        ("sampling_temperature", -0.1),
        ("max_tokens", 0),
    ])
    def test_config_rejects_sampling_values_no_request_can_carry(self, field, value):
        with pytest.raises(ValidationError, match=field):
            PipelineConfig(budget=BudgetSpec(2, 3), **{field: value})
        # greedy decoding and a one-token cap are fine
        PipelineConfig(budget=BudgetSpec(2, 3), sampling_temperature=0.0, max_tokens=1)

    def test_question_count_must_match_budget(self):
        world, backend, budget = sim_setup([0.5, 0.5], n_per_question=2)
        bad = PipelineConfig(budget=BudgetSpec(2, 3), policy=Policy.UNIFORM)
        with pytest.raises(ValidationError):
            run_two_phase(world.questions, backend, bad)
