import itertools

import numpy as np
import pytest

from uab.allocation import (
    ExitKind,
    ExitMode,
    InstanceTooLargeError,
    ThresholdExitConfig,
    apply_threshold_exits,
    dp_allocate_exact,
    greedy_allocate,
    regret_bound_check,
    sensitivity_gap,
    split_evenly,
    uniform_allocation,
    verify_kkt,
)
from uab.core import AllocationVector, ValidationError, coverage_objective, marginal_gain


def enumerate_best(probs, budget):
    """Exhaustive oracle: maximize coverage over all compositions of the budget."""
    ids = list(probs)
    best_value = -1.0
    best_extras = None
    for combo in itertools.product(range(budget + 1), repeat=len(ids)):
        if sum(combo) != budget:
            continue
        extras = dict(zip(ids, combo))
        value = coverage_objective(AllocationVector(extras, budget), probs)
        if value > best_value:
            best_value = value
            best_extras = extras
    return best_value, best_extras


class TestGreedyAllocate:
    def test_three_question_instance_matches_enumeration(self):
        probs = {"q1": 0.9, "q2": 0.5, "q3": 0.2}
        alloc = greedy_allocate(probs, 3)
        best_value, _ = enumerate_best(probs, 3)
        # oracle-confirmed optimum concentrates on the uncertain questions
        assert alloc.extras == {"q1": 0, "q2": 1, "q3": 2}
        assert coverage_objective(alloc, probs) == pytest.approx(best_value, abs=1e-12)
        assert best_value == pytest.approx(2.138, abs=1e-12)

    def test_symmetric_tie_breaks_to_lowest_index(self):
        alloc = greedy_allocate({"q1": 0.5, "q2": 0.5}, 2)
        assert alloc.extras == {"q1": 1, "q2": 1}
        alloc3 = greedy_allocate({"q1": 0.5, "q2": 0.5}, 3)
        assert alloc3.extras == {"q1": 2, "q2": 1}

    def test_certain_question_attracts_nothing(self):
        # a guaranteed Phase-1 sample already covers p=1, so all budget goes
        # to the uncertain question; enumeration agrees
        probs = {"q1": 1.0, "q2": 0.3}
        alloc = greedy_allocate(probs, 5)
        best_value, best_extras = enumerate_best(probs, 5)
        assert alloc.extras == best_extras == {"q1": 0, "q2": 5}
        assert coverage_objective(alloc, probs) == pytest.approx(best_value, abs=1e-12)

    def test_budget_conservation(self):
        rng = np.random.default_rng(0)
        for _ in range(100):
            m = int(rng.integers(1, 12))
            b = int(rng.integers(0, 40))
            probs = {f"q{i}": float(rng.random()) for i in range(m)}
            assert greedy_allocate(probs, b).total_extras() == b

    def test_zero_gain_budget_goes_round_robin(self):
        alloc = greedy_allocate({"q1": 0.0, "q2": 0.0}, 5)
        assert alloc.extras == {"q1": 3, "q2": 2}
        alloc2 = greedy_allocate({"q1": 1.0, "q2": 0.0}, 4)
        assert alloc2.total_extras() == 4

    def test_empty_questions_with_budget_errors(self):
        # one instance check, shared by every allocator
        for allocate in (greedy_allocate, dp_allocate_exact, uniform_allocation):
            with pytest.raises(ValidationError, match="zero questions"):
                allocate({}, 2)
            with pytest.raises(ValidationError, match=">= 0"):
                allocate({"q1": 0.5}, -1)
            assert allocate({}, 0).total_extras() == 0

    def test_grid_instances_optimal_with_ties_to_lowest_index(self):
        # p on a grid of tenths, so equal gains are common
        rng = np.random.default_rng(1)
        for _ in range(200):
            m = int(rng.integers(1, 15))
            b = int(rng.integers(0, 60))
            probs = {f"q{i}": float(rng.integers(0, 11)) / 10 for i in range(m)}
            alloc = greedy_allocate(probs, b)
            assert verify_kkt(alloc, probs, tol=0.0).satisfied
            ids = list(probs)
            next_gains = [marginal_gain(probs[q], 1 + alloc.extras[q]) for q in ids]
            for j, qid in enumerate(ids):
                if alloc.extras[qid] == 0:
                    continue
                held = marginal_gain(probs[qid], alloc.extras[qid])
                # a zero-gain unit is the even-split leftover, not a tie
                if held > 0.0:
                    assert held not in next_gains[:j], (probs, b, alloc.extras)

    def test_permutation_equivariance(self):
        rng = np.random.default_rng(2)
        for _ in range(50):
            m = int(rng.integers(2, 8))
            # distinct probabilities so the tie-break never enters
            probs_vals = rng.choice(np.linspace(0.05, 0.95, 50), size=m, replace=False)
            ids = [f"q{i}" for i in range(m)]
            probs = dict(zip(ids, map(float, probs_vals)))
            b = int(rng.integers(0, 20))
            base = greedy_allocate(probs, b).extras
            perm = list(ids)
            rng.shuffle(perm)
            permuted = {qid: probs[qid] for qid in perm}
            assert greedy_allocate(permuted, b).extras == {qid: base[qid] for qid in perm}

    def test_equal_probs_divisible_budget_balances(self):
        for m, mult in ((3, 2), (5, 4)):
            probs = {f"q{i}": 0.4 for i in range(m)}
            alloc = greedy_allocate(probs, m * mult)
            assert all(e == mult for e in alloc.extras.values())

    def test_objective_monotone_in_budget(self):
        rng = np.random.default_rng(3)
        probs = {f"q{i}": float(rng.random()) for i in range(6)}
        values = [
            coverage_objective(greedy_allocate(probs, b), probs) for b in range(15)
        ]
        assert all(hi >= lo - 1e-12 for lo, hi in zip(values, values[1:]))

    def test_numpy_probability_accepted_by_allocation_and_objective(self):
        probs = {"q1": np.float32(0.3), "q2": 0.6}
        alloc = greedy_allocate(probs, 3)
        as_floats = {"q1": float(np.float32(0.3)), "q2": 0.6}
        assert alloc.extras == greedy_allocate(as_floats, 3).extras
        assert coverage_objective(alloc, probs) == coverage_objective(alloc, as_floats)
        assert verify_kkt(alloc, probs).satisfied

    def test_probability_checks_shared_by_allocators(self):
        for bad in (1.5, -0.1, float("nan"), "0.5", None):
            probs = {"q1": 0.5, "q2": bad}
            for allocate in (greedy_allocate, dp_allocate_exact, uniform_allocation):
                with pytest.raises(ValidationError, match="probs\\['q2'\\]"):
                    allocate(probs, 2)
            with pytest.raises(ValidationError, match="probs\\['q2'\\]"):
                apply_threshold_exits(probs, 2, ThresholdExitConfig())
            with pytest.raises(ValidationError, match="probs\\['q2'\\]"):
                verify_kkt(AllocationVector({"q1": 2}, 2), probs)

    def test_dominates_uniform(self):
        rng = np.random.default_rng(4)
        for _ in range(100):
            m = int(rng.integers(1, 9))
            b = m * int(rng.integers(0, 5))
            probs = {f"q{i}": float(rng.random()) for i in range(m)}
            jg = coverage_objective(greedy_allocate(probs, b), probs)
            ju = coverage_objective(uniform_allocation(probs, b), probs)
            assert jg >= ju - 1e-12


class TestSplitEvenly:
    def test_remainder_to_lowest_indices(self):
        assert split_evenly(["a", "b", "c"], 8) == {"a": 3, "b": 3, "c": 2}
        assert split_evenly(["a", "b", "c"], 2) == {"a": 1, "b": 1, "c": 0}
        assert split_evenly(["a", "b"], 0) == {"a": 0, "b": 0}
        assert split_evenly([], 0) == {}

    def test_equals_round_robin(self):
        rng = np.random.default_rng(8)
        for _ in range(200):
            ids = [f"q{i}" for i in range(int(rng.integers(1, 12)))]
            units = int(rng.integers(0, 50))
            counts = dict.fromkeys(ids, 0)
            for t in range(units):
                counts[ids[t % len(ids)]] += 1
            assert split_evenly(ids, units) == counts


class TestDpOracle:
    def test_matches_enumeration_value(self):
        probs = {"q1": 0.9, "q2": 0.5, "q3": 0.2}
        alloc = dp_allocate_exact(probs, 3)
        best_value, _ = enumerate_best(probs, 3)
        assert coverage_objective(alloc, probs) == pytest.approx(best_value, abs=1e-12)
        assert best_value == pytest.approx(2.138, abs=1e-12)

    def test_single_question_takes_everything(self):
        alloc = dp_allocate_exact({"q": 0.7}, 4)
        assert alloc.extras == {"q": 4}

    def test_degenerate_zero_probabilities(self):
        alloc = dp_allocate_exact({"a": 0.0, "b": 0.0}, 2)
        assert alloc.total_extras() == 2
        assert coverage_objective(alloc, {"a": 0.0, "b": 0.0}) == 0.0

    def test_guardrails(self):
        with pytest.raises(InstanceTooLargeError):
            dp_allocate_exact({f"q{i}": 0.5 for i in range(13)}, 4)
        with pytest.raises(InstanceTooLargeError):
            dp_allocate_exact({"q": 0.5}, 65)

    def test_exhaustive_small_sweep_matches_enumeration(self):
        grid = [i / 5 for i in range(6)]
        for m in (1, 2, 3):
            for combo in itertools.product(grid, repeat=m):
                probs = {f"q{i}": p for i, p in enumerate(combo)}
                for b in (0, 1, 3):
                    best_value, _ = enumerate_best(probs, b)
                    dp_value = coverage_objective(dp_allocate_exact(probs, b), probs)
                    assert abs(dp_value - best_value) <= 1e-12


class TestVerifyKkt:
    def test_greedy_output_satisfies(self):
        probs = {"q1": 0.9, "q2": 0.5, "q3": 0.2}
        alloc = greedy_allocate(probs, 3)
        cert = verify_kkt(alloc, probs)
        assert cert.satisfied
        # extras (0,1,2): next gains 0.09, 0.125, 0.1024 -> price 0.125
        assert cert.lambda_star == pytest.approx(0.125, abs=1e-12)
        drops = [marginal_gain(probs[q], e) for q, e in alloc.extras.items() if e > 0]
        assert cert.lambda_star <= min(drops) + 1e-12

    def test_lopsided_allocation_fails_with_pair(self):
        probs = {"q1": 0.5, "q2": 0.5}
        cert = verify_kkt(AllocationVector({"q1": 3, "q2": 0}, 3), probs)
        assert not cert.satisfied
        assert cert.violating_pair == ("q2", "q1")
        # moving one unit from q1 to q2 must improve the objective
        j_bad = coverage_objective(AllocationVector({"q1": 3, "q2": 0}, 3), probs)
        j_better = coverage_objective(AllocationVector({"q1": 2, "q2": 1}, 3), probs)
        assert j_better > j_bad

    def test_empty_budget_vacuous(self):
        probs = {"q1": 0.9, "q2": 0.5, "q3": 0.2}
        cert = verify_kkt(AllocationVector({q: 0 for q in probs}, 0), probs)
        assert cert.satisfied
        assert cert.lambda_star == pytest.approx(
            max(marginal_gain(p, 1) for p in probs.values()), abs=1e-15
        )

    def test_every_greedy_output_passes(self):
        rng = np.random.default_rng(5)
        for _ in range(300):
            m = int(rng.integers(1, 20))
            b = int(rng.integers(0, 60))
            probs = {f"q{i}": float(rng.random()) for i in range(m)}
            assert verify_kkt(greedy_allocate(probs, b), probs).satisfied


class TestSensitivityAndRegret:
    def test_identity_gap_zero(self):
        probs = {"q": 0.5}
        alloc = greedy_allocate(probs, 1)
        gap, bound = sensitivity_gap(alloc, probs, dict(probs))
        assert gap == 0.0 and bound == 0.0

    def test_single_question_closed_form(self):
        alloc = AllocationVector({"q": 1}, 1)
        gap, bound = sensitivity_gap(alloc, {"q": 0.5}, {"q": 0.6})
        assert gap == pytest.approx(abs(0.84 - 0.75), abs=1e-12)
        assert bound == pytest.approx(0.2, abs=1e-12)
        assert gap <= bound

    def test_mismatched_ids_error(self):
        alloc = AllocationVector({"q": 1}, 1)
        with pytest.raises(ValidationError):
            sensitivity_gap(alloc, {"q": 0.5}, {"r": 0.5})

    def test_random_perturbation_bound(self):
        rng = np.random.default_rng(6)
        for _ in range(300):
            m = 20
            eps = 0.05
            truth = {f"q{i}": float(rng.random()) for i in range(m)}
            est = {q: float(np.clip(p + rng.uniform(-eps, eps), 0, 1)) for q, p in truth.items()}
            alloc = greedy_allocate(est, int(rng.integers(0, 50)))
            gap, bound = sensitivity_gap(alloc, truth, est)
            assert gap <= bound + 1e-12

    def test_exact_estimates_give_zero_regret(self):
        probs = {"q1": 0.8, "q2": 0.4, "q3": 0.1}
        regret, _ = regret_bound_check(probs, dict(probs), 5)
        assert regret == pytest.approx(0.0, abs=1e-12)

    def test_swapped_probabilities_regret(self):
        truth = {"q1": 0.9, "q2": 0.2}
        est = {"q1": 0.2, "q2": 0.9}
        regret, bound = regret_bound_check(truth, est, 2)
        best_value, _ = enumerate_best(truth, 2)
        misled = greedy_allocate(est, 2)
        expected = best_value - coverage_objective(misled, truth)
        assert regret == pytest.approx(expected, abs=1e-12)
        assert regret == pytest.approx(0.189, abs=1e-12)
        assert bound == pytest.approx(2 * 4 * 0.7, abs=1e-12)
        assert 0.0 <= regret <= bound

    def test_random_trials_all_within_bound(self):
        rng = np.random.default_rng(7)
        for _ in range(150):
            m = int(rng.integers(1, 9))
            b = int(rng.integers(0, 30))
            eps = float(rng.choice([0.01, 0.05, 0.1]))
            truth = {f"q{i}": float(rng.random()) for i in range(m)}
            est = {q: float(np.clip(p + rng.uniform(-eps, eps), 0, 1)) for q, p in truth.items()}
            regret, bound = regret_bound_check(truth, est, b)
            assert 0.0 <= regret <= bound + 1e-12


class TestThresholdExits:
    def test_none_reduces_to_plain_greedy(self):
        probs = {"q1": 0.9, "q2": 0.4, "q3": 0.1}
        eligible, alloc, saved = apply_threshold_exits(probs, 3, ThresholdExitConfig())
        assert eligible == {"q1", "q2", "q3"}
        assert alloc.extras == greedy_allocate(probs, 3).extras
        assert saved == 0

    def test_hard_exit_redistribute(self):
        # hard exit drops p < theta; survivors absorb the whole budget
        probs = {"q1": 0.9, "q2": 0.4, "q3": 0.1}
        cfg = ThresholdExitConfig(ExitKind.HARD, 0.5, ExitMode.REDISTRIBUTE)
        eligible, alloc, saved = apply_threshold_exits(probs, 3, cfg)
        assert eligible == {"q1"}
        assert alloc.extras == {"q1": 3, "q2": 0, "q3": 0}
        assert alloc.total_extras() == 3
        assert saved == 0

    def test_easy_exit_skip_budget_arithmetic(self):
        probs = {"q1": 0.9, "q2": 0.4, "q3": 0.1}
        cfg = ThresholdExitConfig(ExitKind.EASY, 0.7, ExitMode.SKIP)
        eligible, alloc, saved = apply_threshold_exits(probs, 3, cfg)
        assert eligible == {"q2", "q3"}
        assert alloc.total_extras() == (3 * 2) // 3 == 2
        assert saved == 1
        assert alloc.extras["q1"] == 0
        assert alloc.deficit() == saved

    def test_all_excluded_skip_saves_everything(self):
        probs = {"q1": 0.9, "q2": 0.8}
        cfg = ThresholdExitConfig(ExitKind.EASY, 0.5, ExitMode.SKIP)
        eligible, alloc, saved = apply_threshold_exits(probs, 4, cfg)
        assert eligible == set()
        assert alloc.total_extras() == 0
        assert saved == 4

    def test_empty_instance_skip_mode(self):
        for kind in ExitKind:
            cfg = ThresholdExitConfig(kind, 0.5, ExitMode.SKIP)
            with pytest.raises(ValidationError, match="zero questions"):
                apply_threshold_exits({}, 3, cfg)
            eligible, alloc, saved = apply_threshold_exits({}, 0, cfg)
            assert eligible == set() and alloc.extras == {} and saved == 0

    def test_all_eligible_skip_spends_everything(self):
        probs = {"q1": 0.9, "q2": 0.4, "q3": 0.1}
        cfg = ThresholdExitConfig(ExitKind.EASY, 0.95, ExitMode.SKIP)
        eligible, alloc, saved = apply_threshold_exits(probs, 7, cfg)
        assert eligible == set(probs)
        assert alloc.extras == greedy_allocate(probs, 7).extras
        assert saved == 0

    def test_all_excluded_redistribute_errors(self):
        probs = {"q1": 0.9, "q2": 0.8}
        cfg = ThresholdExitConfig(ExitKind.EASY, 0.5, ExitMode.REDISTRIBUTE)
        with pytest.raises(ValidationError, match="eligible"):
            apply_threshold_exits(probs, 4, cfg)

    @pytest.mark.parametrize(
        "cfg",
        [
            ThresholdExitConfig(),
            ThresholdExitConfig(ExitKind.HARD, 0.5, ExitMode.REDISTRIBUTE),
            ThresholdExitConfig(ExitKind.EASY, 0.5, ExitMode.SKIP),
        ],
    )
    def test_each_probability_checked_once(self, monkeypatch, cfg):
        import uab.allocation

        calls = []
        original = uab.allocation.check_prob

        def counting(p, qid=None):
            calls.append(qid)
            return original(p, qid)

        monkeypatch.setattr(uab.allocation, "check_prob", counting)
        probs = {f"q{i}": (i + 0.5) / 100 for i in range(100)}
        _eligible, alloc, saved = apply_threshold_exits(probs, 300, cfg)
        assert sorted(calls) == sorted(probs)
        assert alloc.total_extras() + saved == 300

    def test_theta_validation(self):
        with pytest.raises(ValidationError):
            ThresholdExitConfig(ExitKind.HARD, 1.0, ExitMode.SKIP)
        # theta unconstrained when the gate is off
        ThresholdExitConfig(ExitKind.NONE, 0.5, ExitMode.SKIP)
