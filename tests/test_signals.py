import math
from collections import Counter

import numpy as np
import pytest

from uab.core import ValidationError
from uab.signals import (
    VcsUnparsableError,
    anll,
    max_token_nll,
    parse_vcs,
    prob_to_score,
    score_to_prob,
    token_var,
    total_nll,
    vote_entropy,
)


class TestAnll:
    def test_mean_of_negations(self):
        assert anll([-0.5, -1.5]) == pytest.approx(1.0, abs=1e-12)

    def test_fully_confident(self):
        assert anll([0.0, 0.0, 0.0]) == 0.0

    def test_three_token_mean(self):
        assert anll([-2.3, -0.1, -0.6]) == pytest.approx(1.0, abs=1e-12)

    def test_empty_errors(self):
        with pytest.raises(ValidationError, match="no tokens"):
            anll([])

    def test_positive_entry_errors(self):
        with pytest.raises(ValidationError):
            anll([-0.5, 0.2])

    def test_nonfinite_errors(self):
        with pytest.raises(ValidationError):
            anll([float("-inf")])

    def test_permutation_invariant_and_replication(self):
        rng = np.random.default_rng(0)
        vals = list(-rng.random(7))
        shuffled = list(vals)
        rng.shuffle(shuffled)
        assert anll(vals) == pytest.approx(anll(shuffled), abs=1e-12)
        assert anll([-0.37] * 9) == pytest.approx(anll([-0.37]), abs=1e-12)


class TestOtherLogprobSignals:
    def test_total_nll(self):
        assert total_nll([-0.5, -1.5]) == pytest.approx(2.0, abs=1e-12)

    def test_token_var_constant_sequence(self):
        assert token_var([-1.0, -1.0]) == 0.0

    def test_token_var_is_population_variance(self):
        vals = [-1.0, -2.0, -3.0]
        expected = np.var([1.0, 2.0, 3.0])  # ddof=0
        assert token_var(vals) == pytest.approx(float(expected), abs=1e-12)

    def test_token_var_single_token_defined(self):
        assert token_var([-0.7]) == 0.0

    def test_sums_add_from_the_left_on_every_python(self):
        # a compensated sum, as sum() adds floats from Python 3.12 on, would
        # give 0.1, 1.0 and 0.0
        tenths = (-0.1,) * 10
        assert anll(tenths) == 0.09999999999999999
        assert total_nll(tenths) == 0.9999999999999999
        assert token_var(tenths) == 1.925929944387236e-34

    def test_max_token_nll(self):
        assert max_token_nll([-0.2, -3.0, -0.4]) == pytest.approx(3.0, abs=1e-12)


class TestScoreToProb:
    def test_zero_score_is_certain(self):
        for t in (0.1, 0.2, 5.0):
            assert score_to_prob(0.0, t) == 1.0

    def test_closed_form_values(self):
        assert score_to_prob(1.0, 0.2) == pytest.approx(math.exp(-5.0), abs=1e-7)
        assert score_to_prob(0.3, 0.2) == pytest.approx(math.exp(-1.5), abs=1e-7)

    def test_temperature_limits(self):
        assert score_to_prob(0.7, 1e9) == pytest.approx(1.0, abs=1e-6)
        assert score_to_prob(0.7, 1e-9) == pytest.approx(0.0, abs=1e-6)

    def test_ranking_invariance_across_temperature(self):
        rng = np.random.default_rng(4)
        scores = rng.uniform(0.01, 3.0, size=12)
        base = np.argsort([score_to_prob(s, 0.2) for s in scores])
        for t in (0.05, 0.5, 2.0, 40.0):
            probs = [score_to_prob(s, t) for s in scores]
            assert np.array_equal(np.argsort(probs), base)

    def test_validation(self):
        with pytest.raises(ValidationError):
            score_to_prob(-0.1, 0.2)
        with pytest.raises(ValidationError):
            score_to_prob(0.1, 0.0)

    def test_prob_to_score_roundtrip(self):
        for p in (1.0, 0.5, 0.01):
            s = prob_to_score(p, 0.2)
            assert score_to_prob(s, 0.2) == pytest.approx(p, abs=1e-12)


class TestParseVcs:
    def test_ten_point_scale_normalization(self):
        assert parse_vcs("the answer is 7. Confidence: 7") == pytest.approx(0.7)

    def test_maximal_rating(self):
        assert parse_vcs("Confidence: 10") == pytest.approx(1.0)

    def test_absent_pattern(self):
        with pytest.raises(VcsUnparsableError, match="vcs_unparsable"):
            parse_vcs("no rating given")

    def test_out_of_scale(self):
        with pytest.raises(VcsUnparsableError):
            parse_vcs("Confidence: 15")
        with pytest.raises(VcsUnparsableError):
            parse_vcs("Confidence: 0")

    def test_last_occurrence_wins(self):
        assert parse_vcs("Confidence: 3 ... final Confidence: 9.") == pytest.approx(0.9)

    def test_whitespace_and_punctuation_tolerated(self):
        assert parse_vcs("Confidence :  6 .") == pytest.approx(0.6)


class TestVoteEntropy:
    def test_agreement_is_zero(self):
        assert vote_entropy(["A", "A"]) == 0.0

    def test_binary_disagreement_is_ln2(self):
        assert vote_entropy(["A", "B"]) == pytest.approx(math.log(2), abs=1e-12)

    def test_four_answer_mix(self):
        # brute-force frequency oracle for ["A","A","B","C"]
        answers = ["A", "A", "B", "C"]
        counts = Counter(answers)
        expected = -sum((c / 4) * math.log(c / 4) for c in counts.values())
        assert expected == pytest.approx(1.0397207708399179, abs=1e-12)
        assert vote_entropy(answers) == pytest.approx(expected, abs=1e-12)

    def test_empty_errors(self):
        with pytest.raises(ValidationError):
            vote_entropy([])

    def test_extremes(self):
        rng = np.random.default_rng(8)
        for k in (2, 3, 5):
            distinct = [f"a{i}" for i in range(k)]
            assert vote_entropy(distinct) == pytest.approx(math.log(k), abs=1e-12)
            assert vote_entropy(["same"] * k) == 0.0
            mixed = list(distinct)
            mixed[rng.integers(0, k)] = distinct[0]
            if len(set(mixed)) < k:
                assert vote_entropy(mixed) < math.log(k)
