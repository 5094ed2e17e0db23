"""Uncertainty-aware sampling-budget allocation for batched inference.

Score each question's difficulty from its first generation, convert the score
to a success probability, and spend the rest of a fixed sampling budget where
the marginal coverage gain is largest; the greedy spend is exactly optimal for
the concave coverage objective.
"""

from .allocation import (
    ExitKind,
    ExitMode,
    KktCertificate,
    ThresholdExitConfig,
    apply_threshold_exits,
    dp_allocate_exact,
    greedy_allocate,
    regret_bound_check,
    sensitivity_gap,
    uniform_allocation,
    verify_kkt,
)
from .backends import (
    BackendRequest,
    BackendResponse,
    BetaLaw,
    FixedProbs,
    HttpBackend,
    HttpBackendConfig,
    JudgeLabel,
    ResponseCache,
    SimulatedBackend,
    SimulatedWorld,
    TwoPointLaw,
    WorldConfig,
    generate_wave,
    judge_classify,
    judge_classify_all,
)
from .core import (
    AllocationVector,
    BudgetSpec,
    DifficultyEstimate,
    ExperimentResult,
    FinishReason,
    QuestionRecord,
    SignalKind,
    TaskKind,
    ValidationError,
    coverage_objective,
    marginal_gain,
)
from .curves import MonotoneCubicInterpolant, fit_monotone_cubic, min_budget_curve
from .harness import (
    ExperimentConfig,
    MetricReport,
    pearson_r,
    run_experiment,
    verify_suite,
)
from .pipeline import (
    PipelineConfig,
    Policy,
    VoteTally,
    allocate_baseline,
    majority_vote,
    parse_answer,
    run_two_phase,
)
from .signals import (
    anll,
    max_token_nll,
    parse_vcs,
    score_to_prob,
    token_var,
    total_nll,
    vote_entropy,
)

__version__ = "0.1.0"
