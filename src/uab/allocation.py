"""Exact solvers for the concave sampling-budget allocation problem.

The objective sum_i [1 - (1-p_i)^(1+e_i)] over integer extras e_i >= 0 with
sum e_i = B is a separable concave knapsack, so assigning units one at a time
to the largest current marginal gain is exactly optimal. A small dynamic
program serves as an independent oracle, a KKT-style certificate checks any
allocation for optimality, and the sensitivity helpers bound how much
probability estimation error can cost.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from enum import Enum
from typing import Dict, Mapping, Optional, Sequence, Set, Tuple

from .core import (
    AllocationVector,
    MissingProbabilityError,
    ValidationError,
    check_prob,
    coverage_objective,
    residual_failure_power,
)

#: Tolerance for optimality certificates and greedy/DP objective comparisons.
OPT_TOL = 1e-12

#: Guardrails for the dynamic-programming oracle.
DP_MAX_QUESTIONS = 12
DP_MAX_BUDGET = 64


class ExitKind(str, Enum):
    NONE = "none"
    HARD = "hard"
    EASY = "easy"


class ExitMode(str, Enum):
    REDISTRIBUTE = "redistribute"
    SKIP = "skip"


class InstanceTooLargeError(ValidationError):
    """The exact DP oracle was asked for an instance beyond its guardrails."""


@dataclass(frozen=True)
class ThresholdExitConfig:
    """Gate Phase-2 sampling on the Phase-1 confidence estimate."""

    exit_kind: ExitKind = ExitKind.NONE
    theta: float = 0.5
    mode: ExitMode = ExitMode.REDISTRIBUTE

    def __post_init__(self):
        if self.exit_kind != ExitKind.NONE and not 0.0 < self.theta < 1.0:
            raise ValidationError(f"theta must be in (0, 1), got {self.theta}")


@dataclass(frozen=True)
class KktCertificate:
    """Optimality certificate for an allocation.

    ``lambda_star`` is the price of one budget unit: the largest marginal gain
    still on the table. The allocation is optimal iff no unplaced gain exceeds
    the smallest gain already banked, i.e. lambda_star fits under every placed
    unit's gain. ``violating_pair`` names (gainer, giver) when it does not.
    """

    lambda_star: float
    satisfied: bool
    violating_pair: Optional[Tuple[str, str]] = None


def _instance(probs: Mapping[str, float], budget_effective: int = 0) -> Dict[str, float]:
    """``probs`` as floats, after the checks every allocator shares: each p is
    a probability, and the budget is >= 0 and has a question to go to if > 0."""
    probs = {qid: check_prob(p, qid) for qid, p in probs.items()}
    if budget_effective < 0:
        raise ValidationError("budget_effective must be >= 0")
    if not probs and budget_effective > 0:
        raise ValidationError("cannot allocate a positive budget over zero questions")
    return probs


def _gain(p: float, e: int) -> float:
    """:func:`~uab.core.marginal_gain` without its checks, for probabilities
    that :func:`_instance` has already checked."""
    return p * residual_failure_power(p, e)


def split_evenly(ids: Sequence[str], units: int) -> Dict[str, int]:
    """``units`` spread over ``ids`` as evenly as integers allow.

    Every id gets ``units // len(ids)``, and the first ``units % len(ids)``
    ids, in order, get one more: the counts of a round-robin by index. An
    empty ``ids`` takes nothing; allocators reject a positive budget over no
    questions before they split.
    """
    base, rem = divmod(units, max(len(ids), 1))
    return {qid: base + (1 if i < rem else 0) for i, qid in enumerate(ids)}


def greedy_allocate(probs: Mapping[str, float], budget_effective: int) -> AllocationVector:
    """Optimal integer allocation of ``budget_effective`` extra samples.

    Repeatedly assigns one unit to the question with the largest current
    marginal gain p*(1-p)^(1+e), keyed through a max-heap (O(B log M)). Ties
    break toward the lowest input index. Once every residual gain is exactly
    zero (all p in {0, 1} exhausted), leftover units are split evenly
    (:func:`split_evenly`) so the budget is always conserved.
    """
    return _greedy(_instance(probs, budget_effective), budget_effective)


def _greedy(probs: Dict[str, float], budget_effective: int) -> AllocationVector:
    """:func:`greedy_allocate` on an instance :func:`_instance` has checked."""
    ids = list(probs)
    extras = dict.fromkeys(ids, 0)
    heap = [(-_gain(p, 1), idx) for idx, p in enumerate(probs.values())]
    heapq.heapify(heap)
    remaining = budget_effective
    while remaining > 0:
        neg_gain, idx = heap[0]
        if -neg_gain <= 0.0:
            break
        qid = ids[idx]
        extras[qid] += 1
        remaining -= 1
        heapq.heapreplace(heap, (-_gain(probs[qid], 1 + extras[qid]), idx))
    if remaining:
        for qid, n in split_evenly(ids, remaining).items():
            extras[qid] += n
    return AllocationVector(extras, budget_effective)


def dp_allocate_exact(probs: Mapping[str, float], budget_effective: int) -> AllocationVector:
    """Independent exact oracle via dynamic programming over (prefix, budget).

    best[k][b] = max over n of best[k-1][b-n] + (1 - (1-p_k)^(1+n)), with
    backpointer reconstruction; spends the budget exactly. Intended for small
    instances only (guardrails M <= 12, B <= 64); use greedy_allocate beyond.
    """
    probs = _instance(probs, budget_effective)
    ids = list(probs)
    if len(ids) > DP_MAX_QUESTIONS or budget_effective > DP_MAX_BUDGET:
        raise InstanceTooLargeError(
            f"DP oracle limited to M <= {DP_MAX_QUESTIONS}, budget <= {DP_MAX_BUDGET} "
            f"(got M={len(ids)}, budget={budget_effective}); use greedy_allocate"
        )

    b_max = budget_effective
    neg_inf = float("-inf")
    best = [0.0] + [neg_inf] * b_max
    picks = []
    for qid in ids:
        p = probs[qid]
        q = 1.0 - p
        # vals[n] = 1 - (1-p)^(1+n), built by repeated multiply
        vals = [0.0] * (b_max + 1)
        residual = residual_failure_power(p, 1)
        vals[0] = 1.0 - residual
        for n in range(1, b_max + 1):
            residual *= q
            vals[n] = 1.0 - residual
        new = [neg_inf] * (b_max + 1)
        pick = [0] * (b_max + 1)
        for b in range(b_max + 1):
            best_v = neg_inf
            best_n = 0
            for n in range(b + 1):
                prev = best[b - n]
                if prev == neg_inf:
                    continue
                v = prev + vals[n]
                if v > best_v:
                    best_v = v
                    best_n = n
            new[b] = best_v
            pick[b] = best_n
        best = new
        picks.append(pick)

    extras = {}
    b = b_max
    for k in range(len(ids) - 1, -1, -1):
        n = picks[k][b]
        extras[ids[k]] = n
        b -= n
    return AllocationVector({qid: extras[qid] for qid in ids}, budget_effective)


def verify_kkt(
    alloc: AllocationVector, probs: Mapping[str, float], tol: float = OPT_TOL
) -> KktCertificate:
    """Certify optimality of an allocation for the coverage objective.

    Checks that the largest gain of adding one more unit anywhere does not
    exceed the smallest gain of any unit already placed (within ``tol``). With
    1+e_i samples held, the add gain is p(1-p)^(1+e_i) and the placed unit's
    gain is p(1-p)^(e_i); the placed side is vacuous when e_i = 0.
    """
    probs = _instance(probs)
    for qid in alloc.extras:
        if qid not in probs:
            raise MissingProbabilityError(qid)
    if not alloc.extras:
        return KktCertificate(lambda_star=0.0, satisfied=True)

    gainer, gain_max = None, float("-inf")
    giver, drop_min = None, float("inf")
    for qid, e in alloc.extras.items():
        p = probs[qid]
        add_gain = _gain(p, 1 + e)
        if add_gain > gain_max:
            gainer, gain_max = qid, add_gain
        if e > 0:
            placed_gain = _gain(p, e)
            if placed_gain < drop_min:
                giver, drop_min = qid, placed_gain

    if giver is None or gain_max <= drop_min + tol:
        return KktCertificate(lambda_star=gain_max, satisfied=True)
    return KktCertificate(lambda_star=gain_max, satisfied=False, violating_pair=(gainer, giver))


def _matched_ids(probs_a: Mapping[str, float], probs_b: Mapping[str, float]) -> None:
    if set(probs_a) != set(probs_b):
        raise ValidationError("probability maps cover different question ids")


def linf_distance(probs_a: Mapping[str, float], probs_b: Mapping[str, float]) -> float:
    _matched_ids(probs_a, probs_b)
    return max((abs(probs_a[qid] - probs_b[qid]) for qid in probs_a), default=0.0)


def sensitivity_gap(
    alloc: AllocationVector,
    probs_true: Mapping[str, float],
    probs_est: Mapping[str, float],
) -> Tuple[float, float]:
    """Objective shift from evaluating one allocation under estimated probs.

    Returns (gap, bound) where gap = |J(alloc; est) - J(alloc; true)| and
    bound = B * max_i |est_i - true_i| with B the total samples held
    (sum of 1+e_i). The coverage term is N-Lipschitz in p, so gap <= bound.
    """
    _matched_ids(probs_true, probs_est)
    for qid in alloc.extras:
        if qid not in probs_true:
            raise MissingProbabilityError(qid)
    gap = abs(coverage_objective(alloc, probs_est) - coverage_objective(alloc, probs_true))
    total_samples = sum(1 + e for e in alloc.extras.values())
    bound = total_samples * linf_distance(probs_true, probs_est)
    return gap, bound


def regret_bound_check(
    probs_true: Mapping[str, float],
    probs_est: Mapping[str, float],
    budget_effective: int,
) -> Tuple[float, float]:
    """Regret of allocating greedily under estimates, with its 2B*eps bound.

    Computes the true-probability objective of the estimate-driven greedy
    allocation against the DP optimum under true probabilities. Raises if
    either the nonnegativity or the bound is violated beyond tolerance, since
    that would indicate a solver defect rather than an unlucky instance.
    """
    _matched_ids(probs_true, probs_est)
    alloc_est = greedy_allocate(probs_est, budget_effective)
    alloc_opt = dp_allocate_exact(probs_true, budget_effective)
    j_opt = coverage_objective(alloc_opt, probs_true)
    j_est = coverage_objective(alloc_est, probs_true)
    regret = j_opt - j_est
    if regret < 0:
        if regret < -OPT_TOL:
            raise RuntimeError(
                f"DP optimum {j_opt} fell below greedy value {j_est}; oracle defect"
            )
        regret = 0.0  # greedy tied the optimum; rounding noise only
    total_samples = budget_effective + len(probs_true)
    bound = 2.0 * total_samples * linf_distance(probs_true, probs_est)
    if regret > bound + OPT_TOL:
        raise RuntimeError(f"regret {regret} exceeds sensitivity bound {bound}")
    return regret, bound


def apply_threshold_exits(
    probs: Mapping[str, float],
    budget_effective: int,
    cfg: ThresholdExitConfig,
) -> Tuple[Set[str], AllocationVector, int]:
    """Allocate with an optional confidence gate on Phase-2 sampling.

    A hard exit drops questions with p < theta (treated as unsolvable), an
    easy exit drops p > theta (already confident); dropped questions keep
    e_i = 0 and fall back to their first sample. Redistribute mode spends the
    full budget on the survivors; skip mode shrinks the budget to
    floor(B * |eligible| / M) and reports the savings.
    """
    probs = _instance(probs, budget_effective)
    if cfg.exit_kind == ExitKind.NONE:
        eligible = list(probs)
    elif cfg.exit_kind == ExitKind.HARD:
        eligible = [qid for qid, p in probs.items() if p >= cfg.theta]
    else:
        eligible = [qid for qid, p in probs.items() if p <= cfg.theta]

    budget = budget_effective
    # every question eligible (no exit, or no questions): nothing to shrink
    if cfg.mode == ExitMode.SKIP and len(eligible) < len(probs):
        budget = (budget_effective * len(eligible)) // len(probs)
    elif not eligible and budget > 0:
        raise ValidationError("no eligible questions to redistribute the budget over")
    inner = _greedy({qid: probs[qid] for qid in eligible}, budget)
    extras = {qid: inner.extras.get(qid, 0) for qid in probs}
    return set(eligible), AllocationVector(extras, budget_effective), budget_effective - budget
