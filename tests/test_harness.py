import csv
import dataclasses
import gc
import hashlib
import itertools
import json
import math
import warnings
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from uab.backends import BackendError, BetaLaw, FixedProbs, SimulatedBackend, SimulatedWorld, WorldConfig
from uab.core import BudgetSpec, DifficultyEstimate, ExperimentResult, SignalKind, ValidationError
from uab.harness import (
    ExperimentConfig,
    pearson_r,
    result_json_line,
    run_experiment,
    verify_suite,
)
from uab.pipeline import PipelineConfig, Policy, run_two_phase
from uab.allocation import ExitKind, ExitMode, ThresholdExitConfig
from uab import pipeline, signals


def make_config(tmp_path, policy=Policy.UAB, m=40, n=4, seeds=(0, 1, 2), **pipeline_kw):
    world = WorldConfig(m_questions=m, prob_law=BetaLaw(2, 2), rng_seed=99)
    budget = BudgetSpec(n_per_question=n, m_questions=m, temperature=0.2)
    return ExperimentConfig(
        pipeline=PipelineConfig(budget=budget, policy=policy, **pipeline_kw),
        world=world,
        seeds=tuple(seeds),
        output_dir=Path(tmp_path) / "out",
    )


class TestPearson:
    def test_perfect_anticorrelation(self):
        assert pearson_r([1, 2, 3], [-1, -2, -3]) == pytest.approx(-1.0, abs=1e-12)

    def test_perfect_correlation(self):
        assert pearson_r([1, 2, 3], [1, 2, 3]) == pytest.approx(1.0, abs=1e-12)

    def test_partial_correlation_against_numpy_oracle(self):
        x = [0.0, 1.0, 2.0, 3.0]
        y = [1.0, 0.0, 3.0, 2.0]
        expected = float(np.corrcoef(x, y)[0, 1])
        assert expected == pytest.approx(0.6, abs=1e-12)
        assert pearson_r(x, y) == pytest.approx(expected, abs=1e-12)

    def test_random_instances_match_numpy(self):
        rng = np.random.default_rng(2)
        for _ in range(50):
            n = int(rng.integers(2, 40))
            x = rng.normal(size=n)
            y = rng.normal(size=n)
            assert pearson_r(list(x), list(y)) == pytest.approx(
                float(np.corrcoef(x, y)[0, 1]), abs=1e-10
            )

    def test_zero_variance_errors(self):
        with pytest.raises(ValidationError, match="undefined correlation"):
            pearson_r([1.0, 1.0, 1.0], [1.0, 2.0, 3.0])

    def test_length_checks(self):
        with pytest.raises(ValidationError):
            pearson_r([1.0], [1.0])
        with pytest.raises(ValidationError):
            pearson_r([1.0, 2.0], [1.0])


class TestRunExperiment:
    def test_writes_per_seed_jsonl_and_aggregate(self, tmp_path):
        config = make_config(tmp_path, seeds=(0, 1, 2))
        report = run_experiment(config)
        out = config.output_dir
        files = sorted(p.name for p in out.glob("*.jsonl"))
        assert files == ["uab_seed0.jsonl", "uab_seed1.jsonl", "uab_seed2.jsonl"]
        assert report.seed_count == 3
        with open(out / "aggregate.csv") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 1
        assert rows[0]["policy"] == "uab"
        assert rows[0]["N"] == "4"
        assert rows[0]["seed_count"] == "3"

    def test_aggregate_accuracy_equals_mean_of_jsonl(self, tmp_path):
        config = make_config(tmp_path, seeds=(0, 1, 2))
        report = run_experiment(config)
        per_seed = []
        for seed in (0, 1, 2):
            rows = [
                json.loads(line)
                for line in (config.output_dir / f"uab_seed{seed}.jsonl").read_text().splitlines()
            ]
            per_seed.append(sum(1.0 for r in rows if r["correct"]) / len(rows))
        with open(config.output_dir / "aggregate.csv") as fh:
            row = next(csv.DictReader(fh))
        assert float(row["acc_mean"]) == pytest.approx(np.mean(per_seed), abs=1e-9)
        assert report.accuracy_mean == pytest.approx(np.mean(per_seed), abs=1e-12)
        assert report.accuracy_std == pytest.approx(np.std(per_seed), abs=1e-12)

    def test_jsonl_schema(self, tmp_path):
        config = make_config(tmp_path, seeds=(0,))
        run_experiment(config)
        line = (config.output_dir / "uab_seed0.jsonl").read_text().splitlines()[0]
        row = json.loads(line)
        assert list(row) == [
            "question_id", "policy", "final_answer", "correct", "samples_used", "anll", "p_i",
        ]

    def test_samples_issued_accounting(self, tmp_path):
        config = make_config(tmp_path, m=30, n=4, seeds=(0, 1))
        report = run_experiment(config)
        assert report.samples_issued == 2 * 30 * 4
        assert report.budget_saved_pct == 0.0

    def test_skip_mode_saved_pct(self, tmp_path):
        config = make_config(
            tmp_path,
            m=40,
            seeds=(0,),
            threshold_exit=ThresholdExitConfig(ExitKind.EASY, 0.7, ExitMode.SKIP),
        )
        report = run_experiment(config)
        b_eff = 40 * 3
        issued_extras = report.samples_issued - 40 * 1
        saved = b_eff - issued_extras
        assert report.budget_saved_pct == pytest.approx(100.0 * saved / b_eff, abs=1e-9)
        assert saved > 0  # Beta(2,2) world has confidently-easy questions

    def test_decile_allocation_accounts_for_all_extras(self, tmp_path):
        config = make_config(tmp_path, m=50, seeds=(0, 1))
        report = run_experiment(config)
        deciles = report.per_decile_allocation
        assert deciles is not None and len(deciles) == 10
        pooled = 2 * 50
        sizes = [len(chunk) for chunk in np.array_split(np.arange(pooled), 10)]
        total = sum(mean * size for mean, size in zip(deciles, sizes))
        assert total == pytest.approx(2 * 50 * 3, abs=1e-9)  # all extras across seeds

    def test_pearson_between_score_and_correctness_negative(self, tmp_path):
        config = make_config(tmp_path, m=120, seeds=(0, 1))
        report = run_experiment(config)
        assert report.anll_correctness_pearson is not None
        # harder questions (higher score) are less often correct
        assert report.anll_correctness_pearson < 0

    def test_uab_coverage_dominates_uniform(self, tmp_path):
        uab_report = run_experiment(make_config(tmp_path / "a", policy=Policy.UAB, m=60))
        uniform_report = run_experiment(make_config(tmp_path / "b", policy=Policy.UNIFORM, m=60))
        assert uab_report.coverage_mean >= uniform_report.coverage_mean - 1e-12

    def test_n1_policies_identical(self, tmp_path):
        outputs = {}
        for policy in (Policy.UAB, Policy.UNIFORM, Policy.RANDOM):
            config = make_config(tmp_path / policy.value, policy=policy, n=1, seeds=(0,))
            run_experiment(config)
            path = config.output_dir / f"{policy.value}_seed0.jsonl"
            rows = [json.loads(line) for line in path.read_text().splitlines()]
            outputs[policy] = [
                (r["question_id"], r["final_answer"], r["correct"], r["samples_used"])
                for r in rows
            ]
        assert outputs[Policy.UAB] == outputs[Policy.UNIFORM] == outputs[Policy.RANDOM]

    def test_determinism_byte_identical(self, tmp_path):
        c1 = make_config(tmp_path / "r1", seeds=(5,))
        c2 = make_config(tmp_path / "r2", seeds=(5,))
        run_experiment(c1)
        run_experiment(c2)
        b1 = (c1.output_dir / "uab_seed5.jsonl").read_bytes()
        b2 = (c2.output_dir / "uab_seed5.jsonl").read_bytes()
        assert b1 == b2

    def test_seeds_required(self, tmp_path):
        with pytest.raises(ValidationError):
            make_config(tmp_path, seeds=())

    @pytest.mark.parametrize("ungraded_seeds", [(0, 1), (1,)], ids=["none_graded", "one_graded"])
    def test_accuracy_over_graded_seeds_without_warnings(self, tmp_path, monkeypatch, ungraded_seeds):
        import uab.harness as harness_mod

        real = harness_mod.run_two_phase

        def without_gold(questions, backend, cfg):
            if cfg.rng_seed in ungraded_seeds:
                questions = [q._replace(gold_answer=None) for q in questions]
            return real(questions, backend, cfg)

        monkeypatch.setattr(harness_mod, "run_two_phase", without_gold)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            report = run_experiment(make_config(tmp_path, seeds=(0, 1)))
        if ungraded_seeds == (0, 1):
            assert all(math.isnan(a) for a in report.per_seed_accuracy)
            assert math.isnan(report.accuracy_mean) and math.isnan(report.accuracy_std)
        else:
            graded, ungraded = report.per_seed_accuracy
            assert math.isnan(ungraded)
            assert (report.accuracy_mean, report.accuracy_std) == (graded, 0.0)

    def test_partial_seed_failure_reports_completed(self, tmp_path, monkeypatch):
        import uab.harness as harness_mod
        from uab.harness import PartialRunError

        real = harness_mod.run_two_phase

        def flaky(questions, backend, cfg):
            if cfg.rng_seed == 1:
                raise RuntimeError("backend fell over")
            return real(questions, backend, cfg)

        monkeypatch.setattr(harness_mod, "run_two_phase", flaky)
        config = make_config(tmp_path, seeds=(0, 1, 2))
        with pytest.raises(PartialRunError) as excinfo:
            run_experiment(config)
        report = excinfo.value.report
        assert report.seed_count == 2
        assert excinfo.value.failed_seeds == 1
        assert (config.output_dir / "uab_seed0.jsonl").exists()
        assert not (config.output_dir / "uab_seed1.jsonl").exists()
        assert (config.output_dir / "uab_seed2.jsonl").exists()


class _Failing:
    """A simulated backend whose every request for one question fails."""

    max_in_flight = 1

    def __init__(self, world, question_id):
        self.inner = SimulatedBackend(world, run_seed=0)
        self.question_id = question_id

    def generate(self, request):
        if request.question_id == self.question_id:
            raise BackendError("injected failure")
        return self.inner.generate(request)


class _Raising:
    """A backend that records whether collection was on at each request and
    raises an error that is not a BackendError."""

    max_in_flight = 1

    def __init__(self):
        self.enabled = []

    def generate(self, request):
        self.enabled.append(gc.isenabled())
        raise RuntimeError("backend fell over")


class TestCollectionPause:
    """A run turns automatic garbage collection off while it runs and leaves
    the caller's state as it found it; a run leaves no cyclic garbage, so the
    pause frees nothing later than it would have been freed."""

    @pytest.fixture(params=[True, False], ids=["enabled", "disabled"])
    def collection(self, request):
        """Automatic collection as the test's caller set it."""
        (gc.enable if request.param else gc.disable)()
        try:
            yield request.param
        finally:
            gc.enable()

    def test_run_two_phase_restores_the_callers_state(self, collection):
        world = SimulatedWorld(WorldConfig(m_questions=20, rng_seed=1))
        seen = []

        class Recording(SimulatedBackend):
            def generate(self, request):
                seen.append(gc.isenabled())
                return super().generate(request)

        run_two_phase(world.questions, Recording(world), PipelineConfig(budget=BudgetSpec(4, 20)))
        assert gc.isenabled() is collection
        assert len(seen) > 20 and not any(seen)

    def test_run_two_phase_restores_the_callers_state_when_it_raises(self, collection):
        world = SimulatedWorld(WorldConfig(m_questions=5, rng_seed=1))
        backend = _Raising()
        with pytest.raises(RuntimeError, match="fell over"):
            run_two_phase(world.questions, backend, PipelineConfig(budget=BudgetSpec(4, 5)))
        assert backend.enabled == [False]
        assert gc.isenabled() is collection

    def test_run_experiment_restores_the_callers_state(self, tmp_path, collection):
        run_experiment(make_config(tmp_path, seeds=(0,)))
        assert gc.isenabled() is collection

    def test_run_experiment_restores_the_callers_state_when_every_seed_fails(
        self, tmp_path, monkeypatch, collection
    ):
        import uab.harness as harness_mod

        def failing(questions, backend, cfg):
            raise RuntimeError("backend fell over")

        monkeypatch.setattr(harness_mod, "run_two_phase", failing)
        with pytest.raises(RuntimeError, match="every seed failed"):
            run_experiment(make_config(tmp_path, seeds=(0, 1)))
        assert gc.isenabled() is collection

    def test_run_experiment_restores_the_callers_state_on_a_partial_run(self, tmp_path, monkeypatch, collection):
        import uab.harness as harness_mod
        from uab.harness import PartialRunError

        real = harness_mod.run_two_phase
        enabled = []

        def flaky(questions, backend, cfg):
            enabled.append(gc.isenabled())
            if cfg.rng_seed == 1:
                raise RuntimeError("backend fell over")
            return real(questions, backend, cfg)

        monkeypatch.setattr(harness_mod, "run_two_phase", flaky)
        with pytest.raises(PartialRunError):
            run_experiment(make_config(tmp_path, seeds=(0, 1)))
        assert enabled == [False, False]
        assert gc.isenabled() is collection

    @pytest.mark.parametrize(
        "sigma, policy, signal",
        [
            (0.0, Policy.UAB, SignalKind.ANLL),
            (0.15, Policy.UAB, SignalKind.ANLL),
            (0.15, Policy.LLM_JUDGE, SignalKind.ANLL),
            (0.0, Policy.UAB, SignalKind.VOTE_ENTROPY),
        ],
        ids=["noiseless", "noisy", "llm_judge", "vote_entropy"],
    )
    def test_run_leaves_no_cyclic_garbage(self, tmp_path, cyclic_garbage, sigma, policy, signal):
        m = 300
        config = ExperimentConfig(
            pipeline=PipelineConfig(
                budget=BudgetSpec(4, m), policy=policy, signal_kind=signal,
                phase1_samples_k=2 if signal == SignalKind.VOTE_ENTROPY else 1,
            ),
            world=WorldConfig(m_questions=m, prob_law=BetaLaw(2, 2), signal_noise_sigma=sigma,
                              correlation_rho=0.2, rng_seed=5),
            seeds=(0, 1),
            output_dir=tmp_path,
        )
        assert cyclic_garbage(lambda: run_experiment(config)) == 0

    def test_run_with_failed_requests_leaves_no_cyclic_garbage(self, caplog, cyclic_garbage):
        world = SimulatedWorld(WorldConfig(m_questions=200, rng_seed=5))
        results = []

        def run():
            failing = _Failing(world, world.questions[7].id)
            results.extend(run_two_phase(world.questions, failing, PipelineConfig(budget=BudgetSpec(4, 200))))

        assert cyclic_garbage(run) == 0
        assert results[7].final_answer == ""
        assert "generation failed for q00007" in caplog.text


class TestVerifySuite:
    def test_fresh_checkout_passes(self, capsys):
        report = verify_suite(rng_seed=1, verbose=True)
        assert report.all_passed
        out = capsys.readouterr().out
        assert "oracle_equivalence: pass" in out
        assert "kkt_certification: pass" in out
        assert "simulator_waves: pass" in out
        assert "all checks passed" in out

    def test_detector_sensitivity(self):
        # a deliberately suboptimal allocation must fail the KKT detector the
        # suite relies on, mimicking an off-by-one mutation in the solver
        from uab.allocation import verify_kkt
        from uab.core import AllocationVector

        probs = {"q1": 0.5, "q2": 0.5, "q3": 0.5}
        bad = AllocationVector({"q1": 6, "q2": 0, "q3": 0}, 6)
        assert not verify_kkt(bad, probs).satisfied


#: Forty fixed success probabilities in a scrambled order.
GOLDEN_PROBS = tuple((i * 37 % 40 + 0.5) / 40 for i in range(40))

#: SHA-256 of the results JSONL of seeds 0 and 1, concatenated, for each
#: (correlation rho, signal). Noiseless FixedProbs worlds draw Philox uniforms
#: only, so these do not depend on numpy's distribution code.
GOLDEN_DIGESTS = {
    (0.0, SignalKind.ANLL): "63b419e6d0a68b971ff002235e2f1644af1731dbe439f8fb307056af4b727b6e",
    (0.0, SignalKind.VCS): "2a0a83d9582f9f3662b35c341a8df18c2f123f68c0fd0242b3c93dfe51e4264b",
    (0.0, SignalKind.VOTE_ENTROPY): "4c2ffe16dd0d8ffe6324413cc3e5328ad9e36c79b4c6eb98311b6ab6b66021de",
    (0.3, SignalKind.ANLL): "37c9b13ba68bb5be96e48e6395ed60e4be9536e49c7dde54650e3b3e26d1b606",
    (0.3, SignalKind.VCS): "6e08e8695c6465bc595bf3b08c80c1fbd3bd76d8822b04e099c6460b0a66a80b",
    (0.3, SignalKind.VOTE_ENTROPY): "1e3f7036cc2c51326bfe0a708bc64d2307c5c758ab32faf3120cb3edf90bbb95",
}

#: Two hundred fixed success probabilities in a scrambled order: four chunks
#: of the simulator's 64 questions, the last one partial.
GOLDEN_RUN_PROBS = tuple((i * 137 % 200 + 0.5) / 200 for i in range(200))

#: (signal noise sigma, correlation rho) of each golden world.
GOLDEN_WORLDS = {"noiseless": (0.0, 0.0), "noisy": (0.15, 0.3)}

#: SHA-256 of a whole run_experiment over seeds 0-2, for each (world, policy,
#: signal): the three results JSONL files, aggregate.csv and the repr of the
#: MetricReport's fields, pearson and deciles included. The noise is computed
#: with math from Philox uniforms, so these do not depend on numpy's
#: distribution code either.
GOLDEN_RUN_DIGESTS = {
    ("noiseless", "llm_judge", "anll"): "b938e02cc59efe8e7b195217b8b4b98f519a6e762afe056f4df1261342800d15",
    ("noiseless", "uab", "anll"): "5522db3d52d9761c96282a6704a4c1053ca8f2d8c71500ce2e475350c54f497c",
    ("noiseless", "uab", "vcs"): "0666dbefd75f419e6416611b0f262b99cd0d6875010cb0b299fa19d9c29e98b0",
    ("noiseless", "uab", "vote_entropy"): "e13284acebb49b3535f0deb825ed7d8dcafec1bd1d8391d6a86b40160a63c795",
    ("noisy", "llm_judge", "anll"): "e1800b248843d6a92a1edfc66aee21dc0421799993cc75b3cebfa96de04a7948",
    ("noisy", "uab", "anll"): "2a6f9f21024e60500ef3eeb487b3a31273be7954c51d5e84131c3f04d4ac7e38",
    ("noisy", "uab", "vcs"): "272a5f4673fe7c009015a6b15bd7b57ddb7b74e3b9b94acad68d935860097786",
    ("noisy", "uab", "vote_entropy"): "8c03c1ca49a2e9cbac4c90b4e6dafed56af8ef150df3f69c7bdf8a57bc74c36a",
}


class TestTranscripts:
    @pytest.mark.parametrize("rho, signal", sorted(GOLDEN_DIGESTS, key=lambda key: (key[0], key[1].value)))
    def test_golden_results_digest(self, tmp_path, rho, signal):
        k = 2 if signal == SignalKind.VOTE_ENTROPY else 1
        config = ExperimentConfig(
            pipeline=PipelineConfig(budget=BudgetSpec(4, 40), signal_kind=signal, phase1_samples_k=k),
            world=WorldConfig(m_questions=40, prob_law=FixedProbs(GOLDEN_PROBS), correlation_rho=rho, rng_seed=5),
            seeds=(0, 1),
            output_dir=tmp_path,
        )
        run_experiment(config)
        digest = hashlib.sha256()
        for seed in (0, 1):
            digest.update((tmp_path / f"uab_seed{seed}.jsonl").read_bytes())
        assert digest.hexdigest() == GOLDEN_DIGESTS[rho, signal]

    @pytest.mark.parametrize("rho", [0.0, 0.3])
    def test_anll_digest_does_not_depend_on_sum(self, tmp_path, monkeypatch, rho):
        for module in (signals, pipeline):
            monkeypatch.setattr(module, "sum", _compensated_sum, raising=False)
        self.test_golden_results_digest(tmp_path, rho, SignalKind.ANLL)

    @pytest.mark.parametrize("world, policy, signal", sorted(GOLDEN_RUN_DIGESTS))
    def test_golden_run_digest(self, tmp_path, world, policy, signal):
        sigma, rho = GOLDEN_WORLDS[world]
        k = 2 if signal == SignalKind.VOTE_ENTROPY else 1
        config = ExperimentConfig(
            pipeline=PipelineConfig(budget=BudgetSpec(4, 200), signal_kind=SignalKind(signal), phase1_samples_k=k,
                                    policy=Policy(policy)),
            world=WorldConfig(m_questions=200, prob_law=FixedProbs(GOLDEN_RUN_PROBS), signal_noise_sigma=sigma,
                              correlation_rho=rho, rng_seed=11),
            seeds=(0, 1, 2),
            output_dir=tmp_path,
        )
        report = run_experiment(config)
        digest = hashlib.sha256()
        for seed in (0, 1, 2):
            digest.update((tmp_path / f"{policy}_seed{seed}.jsonl").read_bytes())
        digest.update((tmp_path / "aggregate.csv").read_bytes())
        digest.update(repr(dataclasses.astuple(report)).encode())
        assert digest.hexdigest() == GOLDEN_RUN_DIGESTS[world, policy, signal]


def _compensated_sum(values, start=0):
    """``sum()`` over floats as Python 3.12 adds them: Neumaier's compensated
    summation, the compensation added once at the end."""
    total, comp = float(start), 0.0
    for x in values:
        t = total + x
        comp += (total - t) + x if abs(total) >= abs(x) else (x - t) + total
        total = t
    return total + comp if comp and math.isfinite(comp) else total


def _reference_line(result) -> str:
    """A results line as ``json.dumps`` writes it."""
    payload = {
        "question_id": result.question_id,
        "policy": result.policy,
        "final_answer": result.final_answer,
        "correct": result.correct,
        "samples_used": result.samples_used,
        "anll": result.difficulty.score,
        "p_i": result.difficulty.prob,
    }
    return json.dumps(payload, ensure_ascii=True, separators=(",", ":"))


_STRINGS = ["q1", "", "caf\u00e9 \u65e5\u672c \U0001f600", 'say "hi"', "back\\slash", "\x00\x01\x1f\n\t\r\x7f",
            "line\u2028sep\u2029", Policy.UAB]
_SCORES = [0.0, -0.0, 5e-324, 0.1, 1 / 3, 1e300, 7, np.float64(0.3), np.float64(2.5e-8)]
_PROBS = [0.0, -0.0, 5e-324, 0.5, 1, 1.0, np.float64(1 / 3)]


class TestResultJsonLine:
    def test_matches_json_dumps_on_results(self):
        lines = 0
        for text, correct, score, prob in itertools.product(_STRINGS, (None, True, False), _SCORES, _PROBS):
            estimate = DifficultyEstimate("q", score, prob, SignalKind.ANLL)
            result = ExperimentResult(text or "q", text, correct, 3, estimate, text)
            assert result_json_line(result) == _reference_line(result)
            lines += 1
        assert lines == len(_STRINGS) * 3 * len(_SCORES) * len(_PROBS)

    @pytest.mark.parametrize("value", [
        float("nan"), float("inf"), -float("inf"), 10**30, -5, True, None, ["a", 1], {"k": "v"}, "\udc80",
    ])
    def test_matches_json_dumps_on_any_value_json_accepts(self, value):
        result = SimpleNamespace(question_id=value, policy=value, final_answer=value, correct=value,
                                 samples_used=value, difficulty=SimpleNamespace(score=value, prob=value))
        assert result_json_line(result) == _reference_line(result)
