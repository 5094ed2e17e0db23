"""Exact solvers for the concave sampling-budget allocation problem.

The objective sum_i [1 - (1-p_i)^(1+e_i)] over integer extras e_i >= 0 with
sum e_i = B is a separable concave knapsack, so assigning units one at a time
to the largest current marginal gain is exactly optimal. That greedy is
computed by water-filling: for a price λ, question i has
floor((log p_i - log λ) / -log(1-p_i)) units whose gain is at least λ, so the
allocation is one threshold λ* and the units tied near it. λ* is found by
halving a price bracket on that count, O(M) array work per halving and no
sort, and the ties are settled with the scalar gains the greedy sees, against
O(B log M) for one heap pop per unit; the heap stays as the reference the
allocator is checked against. A small dynamic program serves as an
independent oracle, a KKT-style certificate checks any allocation for
optimality, and the sensitivity helpers bound how much probability estimation
error can cost.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from enum import Enum
from itertools import compress
from typing import Dict, Mapping, Optional, Sequence, Set, Tuple

import numpy as np

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

    The allocation is the marginal greedy's: unit after unit goes to the
    question with the largest current gain p*(1-p)^(1+e), ties going to the
    lowest input index. It is computed by water-filling on the price of a
    unit (:func:`_water_fill`), instead of one heap pop per unit at
    O(B log M): O(M) array work per halving of a price bracket, one scalar
    gain per unit tied at the price (at most ``_RUN_MIN`` per question), and
    a bisection per distinct p whose question holds more tied units than that
    (tiny p, or a price that has underflowed). Once every residual gain is
    exactly 0.0 (p in {0, 1}, or p(1-p)^n underflowed), the leftover units
    are split evenly (:func:`split_evenly`), so the budget is always spent.
    """
    probs = _instance(probs, budget_effective)
    counts = _water_fill(np.fromiter(probs.values(), float, len(probs)), budget_effective)
    return AllocationVector(dict(zip(probs, counts.tolist())), budget_effective)


#: Bound on |log(_gain(p, k)) - (log p + k*log1p(-p))| as numpy computes the
#: right side, for a normal gain (about 3.6e-12 with every log, log1p and exp
#: within 8 ulp, over log p >= log(2^-1074) and log gain >= log(2^-1022)),
#: plus the rounding of the closed-form count of units above a price (below
#: 4e-13 for counts under 2^40).
_LOG_EPS = 1e-10
#: Below this estimate a gain may be subnormal, where its log has no such bound.
_LOG_SUBNORMAL = math.log(2.0**-1022) + 1.0
#: Below this estimate the float gain is exactly 0.0, double rounding included.
_LOG_ZERO = math.log(2.0**-1074) - 8.0
#: Floor on -log1p(-p) where a count divides by it, so no count is inf or nan.
_NC_FLOOR = 1e-200
#: A question with more units than this near the final price (p below about
#: 2e-10, or a price in the subnormal range) is settled by bisection on its
#: gains, once for all questions of its p, instead of unit by unit.
_RUN_MIN = 2
#: The smallest positive float: a gain at least this is a positive gain.
_TINIEST = math.ulp(0.0)


def _water_fill(p: np.ndarray, budget: int) -> np.ndarray:
    """Units per question that :func:`_heap_greedy` gives ``p`` (in input
    order) for ``budget``, as an int64 array.

    The units of question i have gains p_i(1-p_i)^k, k = 1, 2, ..., falling in
    k, so the greedy takes the ``budget`` units of largest (gain, -index),
    positive gains only. Numpy's estimate log p + k*log1p(-p) of a unit's log
    gain is within ``_LOG_EPS`` of the log of the float :func:`_gain` returns;
    numpy ranks the units with it, and every order decision between estimates
    closer than that is made by :func:`_gain` itself (:func:`_settle`).
    """
    counts = np.zeros(p.size, dtype=np.int64)
    live = (p > 0.0) & (p < 1.0)
    placed = 0
    if budget and np.count_nonzero(live):
        live_counts, placed = _positive_counts(p[live], budget)
        counts[live] = live_counts
    if placed < budget:  # every positive gain is spent: split the rest as the heap does
        even, rem = divmod(budget - placed, p.size)
        counts += even
        counts[:rem] += 1
    return counts


def _positive_counts(p: np.ndarray, budget: int) -> Tuple[np.ndarray, int]:
    """:func:`_water_fill` for 0 < p < 1: the counts of the ``budget`` best
    units of positive gain, or of all of them if there are fewer, and their
    total."""
    n = p.size
    lp = np.log(p)
    c = np.log1p(-p)
    inv = 1.0 / np.minimum(c, -_NC_FLOOR)

    def held(prices):
        """Units per question whose estimate is at least each log price, a row
        per price: floor((log p - L) / -log1p(-p)), within [0, budget]."""
        units = np.subtract.outer(prices, lp) * inv
        return np.minimum(np.maximum(units, 0.0), budget).astype(np.int64)

    # Bracket: no unit is estimated above the largest log p, and at price_lo
    # the question whose unit budget+1 is estimated highest holds the budget
    # by itself. Rounding defeats that where -log1p(-p) is tiny against log p;
    # then the budget lies above _LOG_ZERO unless fewer units have a positive gain.
    price_hi, base, s_base = float(np.maximum.reduce(lp)), np.zeros(n, dtype=np.int64), 0
    price_lo = max(float(np.maximum.reduce(lp + (budget + 1) * c)), _LOG_ZERO)
    (top,) = held([price_lo])
    s_top = int(np.add.reduce(top))
    if s_top < budget:
        price_lo, (top,) = _LOG_ZERO, held([_LOG_ZERO])
        s_top = int(np.add.reduce(top))
    if s_top >= budget:
        # too wide a band to list: halve the bracket by count until it is not,
        # or until it is narrower than an estimate can resolve
        while s_top - s_base > 4 * n and price_hi - price_lo > _LOG_EPS:
            mid = 0.5 * (price_lo + price_hi)
            (units,) = held([mid])
            s_mid = int(np.add.reduce(units))
            if s_mid < budget:
                price_hi, base, s_base = mid, units, s_mid
            else:
                price_lo, top, s_top = mid, units, s_mid

    total, need = s_top - s_base, budget - s_base
    if need > total:  # fewer units than the budget may have a positive gain
        price_lo = price_hi = -math.inf
    elif total <= 4 * n:
        # the need-th largest estimate in the band is the budget-th overall
        width = top - base
        ends = np.add.accumulate(width)
        k = np.arange(total) + (top + 1 - ends).repeat(width)
        a = lp.repeat(width) + k * c.repeat(width)
        a.partition(total - need)
        price_lo = price_hi = a.item(total - need)
    # The budget's last unit has log gain within _LOG_EPS of the bracket, so
    # units estimated above hi are in and units below lo are out. A unit may be
    # subnormal under _LOG_SUBNORMAL, and is 0.0 under _LOG_ZERO.
    lo, hi = price_lo - 2 * _LOG_EPS, price_hi + 2 * _LOG_EPS
    if lo < _LOG_SUBNORMAL + 2 * _LOG_EPS:
        lo, hi = _LOG_ZERO, max(hi, _LOG_SUBNORMAL + 6 * _LOG_EPS)
    rows = held([hi, lo])
    s_sure, s_last = np.add.reduce(rows, axis=1).tolist()
    counts, placed = _settle(p, rows[0], rows[1], budget - s_sure, s_last - s_sure)
    return rows[0] + counts, s_sure + placed


def _settle(
    p: np.ndarray, first: np.ndarray, last: np.ndarray, need: int, units: int
) -> Tuple[np.ndarray, int]:
    """How many of units first_i + 1 .. last_i of each question (``units`` in
    all) the heap takes for its next ``need`` units, and their total: the
    largest gains first, equal gains to the lowest index, positive gains only,
    every :func:`_gain` as the heap sees it.

    While no question has more than ``_RUN_MIN`` such units, each unit is
    scored and the units are ranked by (-gain, index). Otherwise
    :func:`_settle_runs` finds the ``need``-th largest gain by bisection.
    """
    n = p.size
    width = last - first
    wide = units > _RUN_MIN and int(np.maximum.reduce(width)) > _RUN_MIN
    listed = ((width > 0) & (width <= _RUN_MIN) if wide else width).nonzero()[0]
    spans = zip(listed.tolist(), p[listed].tolist(), first[listed].tolist(), last[listed].tolist())
    scored = [(-_gain(pq, k), q) for q, pq, k0, k1 in spans for k in range(k0 + 1, k1 + 1)]
    if wide:
        return _settle_runs(p, first, last, scored, need)
    taken = [q for _, q in sorted(s for s in scored if s[0] < 0.0)[:need]]
    return np.bincount(taken, minlength=n), len(taken)


def _settle_runs(
    p: np.ndarray, first: np.ndarray, last: np.ndarray, scored: Sequence[Tuple[float, int]], need: int
) -> Tuple[np.ndarray, int]:
    """:func:`_settle` once some question has more than ``_RUN_MIN`` units;
    ``scored`` holds (-gain, index) for the units of the others.

    The ``need``-th largest gain G* is found by bisection over the bit
    patterns of positive floats. Each count of the units with gain >= g
    bisects on k over the run of a wide question's gains, which fall with k,
    once for all questions of the same p. Every unit above G* is taken, and
    the units equal to G* go to the lowest indices first, as the heap takes
    them.
    """
    n = p.size
    runs = (last - first > _RUN_MIN).nonzero()[0]
    ps, one, group = np.unique(p[runs], return_index=True, return_inverse=True)
    mult = np.bincount(group).tolist()
    ps, k0, k1 = ps.tolist(), first[runs[one]].tolist(), last[runs[one]].tolist()
    gains = np.array([-g for g, _ in scored])
    qs = np.array([q for _, q in scored], dtype=np.int64)
    tops = [_gain(q, k + 1) for q, k in zip(ps, k0)]
    bottoms = [_gain(q, k) for q, k in zip(ps, k1)]
    listed = gains[gains > 0.0].tolist()
    # every unit has gain < g_hi, and every positive gain is >= g_lo
    g_hi = math.nextafter(max(listed + tops), math.inf)
    g_lo = min(listed + bottoms) if min(bottoms) > 0.0 else _TINIEST

    def last_at_least(q, lo, hi, g):
        # the largest k in [lo, hi] with k == lo or _gain(q, k) >= g
        while lo < hi:
            mid = (lo + hi + 1) // 2
            if _gain(q, mid) >= g:
                lo = mid
            else:
                hi = mid - 1
        return lo

    def count(ks, g):
        return np.count_nonzero(gains >= g) + sum(m * (k - a) for m, k, a in zip(mult, ks, k0))

    # the last unit of each run with gain >= g_hi, and with gain >= g_lo
    at_hi = k0
    at_lo = [b if g >= g_lo else last_at_least(q, a, b, g_lo) for q, a, b, g in zip(ps, k0, k1, bottoms)]
    b_lo, b_hi = _bits(g_lo), _bits(g_hi)
    if count(at_lo, g_lo) >= need:  # else every positive unit is taken
        while b_hi - b_lo > 1:
            b_mid = (b_lo + b_hi) // 2
            g = _float(b_mid)
            ks = [last_at_least(q, u, o, g) for q, u, o in zip(ps, at_hi, at_lo)]
            if count(ks, g) >= need:
                b_lo, at_lo = b_mid, ks
            else:
                b_hi, at_hi = b_mid, ks
    # units of gain >= g_hi are above G*; those in [g_lo, g_hi) tie at G*,
    # unless every positive unit is taken
    gt = np.bincount(qs[gains >= _float(b_hi)], minlength=n)
    ge = np.bincount(qs[gains >= _float(b_lo)], minlength=n)
    gt[runs] += (np.array(at_hi) - k0)[group]
    ge[runs] += (np.array(at_lo) - k0)[group]
    tie = ge - gt
    left = need - int(np.add.reduce(gt))
    counts = gt + np.minimum(np.maximum(left - (np.add.accumulate(tie) - tie), 0), tie)
    return counts, int(np.add.reduce(counts))


def _bits(x: float) -> int:
    """The bit pattern of a float >= 0, which orders as the float does."""
    return int(np.float64(x).view(np.int64))


def _float(bits: int) -> float:
    return float(np.int64(bits).view(np.float64))


def _heap_greedy(probs: Dict[str, float], budget_effective: int) -> AllocationVector:
    """The marginal greedy one unit at a time through a max-heap, O(B log M):
    the reference that :func:`greedy_allocate` must equal, for checks only."""
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
    p = np.fromiter(probs.values(), float, len(probs))
    if cfg.exit_kind == ExitKind.NONE:
        eligible = np.ones(p.size, dtype=bool)
    elif cfg.exit_kind == ExitKind.HARD:
        eligible = p >= cfg.theta
    else:
        eligible = p <= cfg.theta
    n_eligible = int(eligible.sum())

    budget = budget_effective
    # every question eligible (no exit, or no questions): nothing to shrink
    if cfg.mode == ExitMode.SKIP and n_eligible < p.size:
        budget = (budget_effective * n_eligible) // p.size
    elif not n_eligible and budget > 0:
        raise ValidationError("no eligible questions to redistribute the budget over")
    counts = np.zeros(p.size, dtype=np.int64)
    counts[eligible] = _water_fill(p[eligible], budget)
    ids = list(probs)
    kept = set(compress(ids, eligible.tolist()))
    alloc = AllocationVector(dict(zip(ids, counts.tolist())), budget_effective)
    return kept, alloc, budget_effective - budget
