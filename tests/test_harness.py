import csv
import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

from uab.backends import BetaLaw, FixedProbs, WorldConfig
from uab.core import BudgetSpec, SignalKind, ValidationError
from uab.harness import (
    ExperimentConfig,
    pearson_r,
    run_experiment,
    verify_suite,
)
from uab.pipeline import PipelineConfig, Policy
from uab.allocation import ExitKind, ExitMode, ThresholdExitConfig


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

    def test_partial_seed_failure_reports_completed(self, tmp_path, monkeypatch):
        import uab.harness as harness_mod
        from uab.harness import PartialRunError

        real = harness_mod.run_two_phase

        def flaky(questions, backend, cfg, external_probs=None):
            if cfg.rng_seed == 1:
                raise RuntimeError("backend fell over")
            return real(questions, backend, cfg, external_probs)

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
