import copy
import math
import pickle

import numpy as np
import pytest

from uab.backends import BackendRequest, BackendResponse, SampleOutput
from uab.core import (
    AllocationVector,
    BudgetSpec,
    DifficultyEstimate,
    ExperimentResult,
    FinishReason,
    MissingProbabilityError,
    QuestionRecord,
    SignalKind,
    TaskKind,
    ValidationError,
    coverage_objective,
    marginal_gain,
    residual_failure_power,
)
from uab.pipeline import VoteTally


def alloc(extras):
    return AllocationVector(extras, sum(extras.values()))


def mc_coverage(probs, extras, n=10**6, seed=0):
    """Monte-Carlo oracle for the expected at-least-one-correct count."""
    rng = np.random.default_rng(seed)
    total = 0.0
    for qid, p in probs.items():
        draws = rng.random((n, 1 + extras[qid])) < p
        total += draws.any(axis=1).mean()
    return total


class TestCoverageObjective:
    def test_single_question_two_samples(self):
        # 1 - 0.5^2
        assert coverage_objective(alloc({"q": 1}), {"q": 0.5}) == pytest.approx(0.75, abs=1e-12)

    def test_certain_plus_impossible(self):
        value = coverage_objective(alloc({"a": 0, "b": 0}), {"a": 1.0, "b": 0.0})
        assert value == pytest.approx(1.0, abs=1e-12)

    def test_three_question_closed_form(self):
        # hand evaluation: (1-0.1^2) + (1-0.5^3) + (1-0.8^1) = 0.99 + 0.875 + 0.2
        probs = {"a": 0.9, "b": 0.5, "c": 0.2}
        extras = {"a": 1, "b": 2, "c": 0}
        value = coverage_objective(alloc(extras), probs)
        assert value == pytest.approx(2.065, abs=1e-12)
        mc = mc_coverage(probs, extras)
        sigma = 3 * math.sqrt(3 * 0.25 / 10**6)
        assert abs(value - mc) < sigma

    def test_missing_probability_names_the_id(self):
        with pytest.raises(MissingProbabilityError, match="q2"):
            coverage_objective(alloc({"q1": 1, "q2": 1}), {"q1": 0.5})

    def test_probability_out_of_range(self):
        with pytest.raises(ValidationError):
            coverage_objective(alloc({"q": 1}), {"q": 1.5})

    def test_bounded_by_question_count(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            m = int(rng.integers(1, 9))
            probs = {f"q{i}": float(rng.random()) for i in range(m)}
            extras = {f"q{i}": int(rng.integers(0, 6)) for i in range(m)}
            value = coverage_objective(alloc(extras), probs)
            assert 0.0 <= value <= m

    def test_permutation_equivariant(self):
        rng = np.random.default_rng(11)
        probs = {f"q{i}": float(rng.random()) for i in range(6)}
        extras = {f"q{i}": int(rng.integers(0, 5)) for i in range(6)}
        value = coverage_objective(alloc(extras), probs)
        relabeled = {f"x{i}": probs[f"q{i}"] for i in range(6)}
        extras2 = {f"x{i}": extras[f"q{i}"] for i in range(6)}
        assert coverage_objective(alloc(extras2), relabeled) == pytest.approx(value, abs=1e-12)


class TestMarginalGain:
    def test_first_sample_gain_is_p(self):
        assert marginal_gain(0.5, 0) == 0.5

    def test_certain_question_has_no_residual_gain(self):
        assert marginal_gain(1.0, 3) == 0.0

    def test_closed_form_and_telescoping_identity(self):
        # 0.3 * 0.49, and equal to the coverage step from 2 to 3 total samples
        assert marginal_gain(0.3, 2) == pytest.approx(0.147, abs=1e-12)
        j2 = coverage_objective(AllocationVector({"q": 2}, 2), {"q": 0.3})
        j1 = coverage_objective(AllocationVector({"q": 1}, 1), {"q": 0.3})
        assert marginal_gain(0.3, 2) == pytest.approx(j2 - j1, abs=1e-12)

    def test_strictly_diminishing(self):
        rng = np.random.default_rng(5)
        for _ in range(300):
            p = float(rng.uniform(1e-6, 1 - 1e-6))
            e = int(rng.integers(0, 40))
            assert marginal_gain(p, e + 1) < marginal_gain(p, e)

    def test_telescoping_random_instances(self):
        rng = np.random.default_rng(7)
        for _ in range(500):
            p = float(rng.random())
            e = int(rng.integers(0, 20))
            j_hi = coverage_objective(AllocationVector({"q": e + 1}, e + 1), {"q": p})
            j_lo = coverage_objective(AllocationVector({"q": e}, e), {"q": p})
            assert abs((j_hi - j_lo) - marginal_gain(p, 1 + e)) <= 1e-12

    def test_monotone_in_budget(self):
        rng = np.random.default_rng(9)
        for _ in range(200):
            p = float(rng.random())
            e = int(rng.integers(0, 10))
            j_lo = coverage_objective(AllocationVector({"q": e}, e), {"q": p})
            j_hi = coverage_objective(AllocationVector({"q": e + 1}, e + 1), {"q": p})
            assert j_hi >= j_lo

    def test_domain_validation(self):
        with pytest.raises(ValidationError):
            marginal_gain(1.2, 0)
        with pytest.raises(ValidationError):
            marginal_gain(0.5, -1)


class TestResidualPower:
    def test_boundary_guards(self):
        assert residual_failure_power(1.0, 0) == 1.0
        assert residual_failure_power(1.0, 5) == 0.0
        assert residual_failure_power(0.0, 7) == 1.0
        assert residual_failure_power(0.3, 0) == 1.0


class TestDomainTypes:
    def test_question_length_auto(self):
        q = QuestionRecord(id="q1", prompt="hello")
        assert q.length_chars == 5

    def test_question_length_mismatch(self):
        # the length is derived from the prompt, so it cannot be given apart from it
        with pytest.raises(TypeError):
            QuestionRecord(id="q1", prompt="hello", length_chars=3)
        with pytest.raises(ValueError):
            QuestionRecord(id="q1", prompt="hello")._replace(length_chars=3)

    @pytest.mark.parametrize("gold", [4, True, ["4"]])
    def test_question_gold_answer_must_be_a_string(self, gold):
        with pytest.raises(ValidationError, match="gold_answer"):
            QuestionRecord(id="q1", prompt="hello", gold_answer=gold)

    def test_budget_spec_arithmetic(self):
        spec = BudgetSpec(n_per_question=4, m_questions=3)
        assert spec.total == 12
        assert spec.effective == 9
        assert spec.temperature == 0.2

    def test_budget_spec_validation(self):
        with pytest.raises(ValidationError):
            BudgetSpec(0, 3)
        with pytest.raises(ValidationError):
            BudgetSpec(2, 3, temperature=0.0)

    def test_allocation_vector_validation(self):
        with pytest.raises(ValidationError):
            AllocationVector({"q": -1}, 3)
        with pytest.raises(ValidationError):
            AllocationVector({"q": 5}, 3)
        av = AllocationVector({"q": 2}, 3)
        assert av.deficit() == 1

    def test_difficulty_estimate_validation(self):
        with pytest.raises(ValidationError):
            DifficultyEstimate("q", -0.1, 0.5, SignalKind.ANLL)
        with pytest.raises(ValidationError):
            DifficultyEstimate("q", 0.1, 1.5, SignalKind.ANLL)


_ESTIMATE = DifficultyEstimate("q1", 0.25, 0.3, SignalKind.ANLL)
_SAMPLE = SampleOutput("\\boxed{4}", (-0.1, -0.2), FinishReason.STOP)

#: One valid record of each value type.
_RECORDS = [
    QuestionRecord("q1", "hello", gold_answer="4", task_kind=TaskKind.MULTIPLE_CHOICE),
    _ESTIMATE,
    ExperimentResult("q1", "4", True, 3, _ESTIMATE, "uab"),
    BackendRequest("q1", "hello", 2, first_sample_index=1, judge=True),
    _SAMPLE,
    BackendResponse([_SAMPLE, _SAMPLE]),
    VoteTally({"4": 2, "5": 1}, "4"),
]

#: For each value type with checks: a valid record, a field and a value the
#: checks reject.
_BAD_FIELDS = [
    (_RECORDS[0], "id", ""),
    (_RECORDS[0], "id", None),
    (_RECORDS[0], "prompt", {"a": 1}),
    (_RECORDS[0], "gold_answer", 4),
    (_RECORDS[1], "score", -0.1),
    (_RECORDS[1], "score", math.nan),
    (_RECORDS[1], "prob", 1.5),
    (_RECORDS[2], "samples_used", 0),
    (_RECORDS[3], "sample_count", 0),
    (_RECORDS[3], "first_sample_index", -1),
]


class TestValueRecords:
    @pytest.mark.parametrize("record, field, bad", _BAD_FIELDS,
                             ids=[f"{type(r).__name__}.{f}={b!r}" for r, f, b in _BAD_FIELDS])
    def test_every_way_of_building_validates(self, record, field, bad):
        values = {**record._asdict(), field: bad}
        with pytest.raises(ValidationError):
            type(record)(**values)
        with pytest.raises(ValidationError):
            type(record)._make(values.values())
        with pytest.raises(ValidationError):
            record._replace(**{field: bad})

    @pytest.mark.parametrize("record", _RECORDS, ids=lambda r: type(r).__name__)
    def test_fields_cannot_be_assigned(self, record):
        for field in record._fields:
            with pytest.raises(AttributeError):
                setattr(record, field, getattr(record, field))
        with pytest.raises(AttributeError):
            record.extra = 1

    @pytest.mark.parametrize("record", _RECORDS, ids=lambda r: type(r).__name__)
    def test_pickle_and_copy_round_trip(self, record):
        for clone in (pickle.loads(pickle.dumps(record)), copy.copy(record), copy.deepcopy(record)):
            assert type(clone) is type(record)
            assert clone == record
            assert repr(clone) == repr(record)

    @pytest.mark.parametrize("record", _RECORDS, ids=lambda r: type(r).__name__)
    def test_records_are_tuples_of_their_fields(self, record):
        assert record == tuple(getattr(record, field) for field in record._fields)
        assert type(record)._make(record) == record
        assert record._replace() == record

    def test_question_record_repr_and_derived_length(self):
        q = QuestionRecord(id="q1", prompt="hi")
        assert repr(q) == (
            "QuestionRecord(id='q1', prompt='hi', gold_answer=None, "
            "task_kind=<TaskKind.OPEN_MATH: 'open_math'>)"
        )
        assert QuestionRecord._make(("q1", "hi")) == q
        assert q.length_chars == 2
        assert q._replace(prompt="longer").length_chars == 6
        with pytest.raises(AttributeError):
            q.length_chars = 2

    @pytest.mark.parametrize("qid, prompt", [(None, "p"), (["x"], "p"), (7, "p"), ("q", None), ("q", {"a": 1})])
    def test_question_id_and_prompt_must_be_strings(self, qid, prompt):
        with pytest.raises(ValidationError, match="id|prompt"):
            QuestionRecord(id=qid, prompt=prompt)
