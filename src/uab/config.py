"""Flat key-value run configuration.

The file format is one ``section.key = value`` pair per line; ``#`` starts a
comment. Environment variables named ``UAB_<SECTION>_<KEY>`` override file
values (the section is the part before the first underscore), and CLI flags
override both, so precedence is CLI > env > file > defaults.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Callable, Dict, Mapping, Optional, Tuple, TypeVar

from .allocation import ExitKind, ExitMode, ThresholdExitConfig
from .backends import (
    DEFAULT_MAX_TOKENS,
    DEFAULT_SAMPLING_TEMPERATURE,
    BetaLaw,
    FixedProbs,
    HttpBackendConfig,
    ProbLaw,
    TwoPointLaw,
    WorldConfig,
)
from .core import BudgetSpec, QuestionRecord, SignalKind, TaskKind, ValidationError
from .harness import ExperimentConfig
from .pipeline import PipelineConfig, Policy

ENV_PREFIX = "UAB_"

#: Sections recognized in config keys; used to map env var names back to keys.
SECTIONS = ("budget", "pipeline", "exit", "world", "run", "backend", "http")

DEFAULTS: Dict[str, str] = {
    "budget.n": "4",
    "budget.temperature": "0.2",
    "pipeline.policy": "uab",
    "pipeline.signal": "anll",
    "pipeline.k": "",
    "pipeline.sampling_temperature": str(DEFAULT_SAMPLING_TEMPERATURE),
    "pipeline.max_tokens": str(DEFAULT_MAX_TOKENS),
    "exit.kind": "none",
    "exit.theta": "0.5",
    "exit.mode": "redistribute",
    "world.m_questions": "200",
    "world.prob_law": "beta:2,2",
    "world.n_distractors": "4",
    "world.noise_sigma": "0.0",
    "world.rho": "0.0",
    "world.temperature": "0.2",
    "world.seed": "12345",
    "run.seeds": "0,1,2",
    "run.out": "results",
    "run.questions": "",
    "backend.kind": "sim",
    "http.base_url": "",
    "http.model": "",
    "http.cache_dir": "",
}


def parse_config_text(text: str) -> Dict[str, str]:
    out: Dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValidationError(f"config line {lineno}: expected 'key = value', got {raw!r}")
        key, value = line.split("=", 1)
        key = key.strip()
        if not key or "." not in key:
            raise ValidationError(f"config line {lineno}: keys are dotted 'section.key', got {key!r}")
        out[key] = value.strip()
    return out


def load_config_file(path: Path) -> Dict[str, str]:
    return parse_config_text(Path(path).read_text(encoding="utf-8"))


def env_overrides(environ: Mapping[str, str]) -> Dict[str, str]:
    out: Dict[str, str] = {}
    for name, value in environ.items():
        if not name.startswith(ENV_PREFIX):
            continue
        rest = name[len(ENV_PREFIX):].lower()
        section, _, key = rest.partition("_")
        if section in SECTIONS and key:
            out[f"{section}.{key}"] = value
    return out


def merge_settings(
    file_cfg: Optional[Mapping[str, str]] = None,
    env_cfg: Optional[Mapping[str, str]] = None,
    cli_cfg: Optional[Mapping[str, str]] = None,
) -> Dict[str, str]:
    merged = dict(DEFAULTS)
    for layer in (file_cfg, env_cfg, cli_cfg):
        if layer:
            merged.update({k: v for k, v in layer.items() if v is not None})
    return merged


T = TypeVar("T")

#: What a config value read as ``int`` or ``float`` must look like.
_EXPECTED = {int: "integer", float: "number"}


def _get(cfg: Mapping[str, str], key: str, kind: Callable[[str], T]) -> T:
    """``cfg[key]`` read as ``kind``: ``int``, ``float`` or an Enum of strings."""
    try:
        return kind(cfg[key])
    except (KeyError, ValueError) as exc:
        expected = _EXPECTED.get(kind) or "one of " + "|".join(member.value for member in kind)
        raise ValidationError(f"config key {key}: expected {expected}, got {cfg.get(key)!r}") from exc


def parse_prob_law(text: str) -> ProbLaw:
    kind, _, args = text.partition(":")
    kind = kind.strip().lower()
    try:
        parts = [float(a) for a in args.split(",") if a.strip()] if args else []
    except ValueError as exc:
        raise ValidationError(f"probability law {text!r}: parameters must be numbers") from exc
    if kind == "beta":
        if len(parts) != 2:
            raise ValidationError(f"beta law needs 'beta:a,b', got {text!r}")
        return BetaLaw(*parts)
    if kind == "two_point":
        if len(parts) != 3:
            raise ValidationError(f"two-point law needs 'two_point:lo,hi,frac', got {text!r}")
        return TwoPointLaw(*parts)
    if kind == "fixed":
        if not parts:
            raise ValidationError(f"fixed law needs 'fixed:p1,p2,...', got {text!r}")
        return FixedProbs(tuple(parts))
    raise ValidationError(f"unknown probability law {text!r}")


def parse_seed_list(text: str) -> Tuple[int, ...]:
    try:
        seeds = tuple(int(s) for s in text.split(",") if s.strip())
    except ValueError as exc:
        raise ValidationError(f"run.seeds: expected comma-separated integers, got {text!r}") from exc
    if not seeds:
        raise ValidationError("run.seeds must list at least one seed")
    return seeds


def json_id(value: object) -> str:
    """An ``id`` read from a JSON file: a string as it is, an integer (not a
    bool) as its decimal string; anything else is a :class:`ValidationError`."""
    if isinstance(value, str):
        return value
    if type(value) is int:
        return str(value)
    raise ValidationError(f"'id' must be a string or an integer, got {value!r:.200}")


def load_questions_jsonl(path: Path) -> list[QuestionRecord]:
    """The questions of a JSONL file, one JSON object per line. An integer
    ``id`` and a numeric ``gold_answer`` are read as their ``str``;
    :class:`ValidationError` names the line of a row that is not an object,
    lacks ``id`` or ``prompt``, repeats an earlier id, has an ``id`` that is
    neither a string nor an integer, a ``prompt`` that is not a string, or a
    ``gold_answer`` that is neither a string nor a number."""
    questions: Dict[str, QuestionRecord] = {}
    for lineno, line in enumerate(Path(path).read_text(encoding="utf-8").splitlines(), start=1):
        if not line.strip():
            continue
        try:
            row = json.loads(line)
        except json.JSONDecodeError as exc:
            raise ValidationError(f"{path}:{lineno}: invalid JSON ({exc})") from exc
        if not isinstance(row, dict):
            raise ValidationError(f"{path}:{lineno}: a question must be a JSON object")
        gold = row.get("gold_answer")
        if type(gold) in (int, float):
            gold = str(gold)
        try:
            question = QuestionRecord(
                id=json_id(row["id"]),
                prompt=row["prompt"],
                gold_answer=gold,
                task_kind=TaskKind(row.get("task_kind", "open_math")),
            )
        except (KeyError, ValueError) as exc:
            raise ValidationError(f"{path}:{lineno}: bad question record ({exc})") from exc
        if question.id in questions:
            raise ValidationError(f"{path}:{lineno}: duplicate question id {question.id!r}")
        questions[question.id] = question
    if not questions:
        raise ValidationError(f"{path}: no questions found")
    return list(questions.values())


def world_config_from_settings(cfg: Mapping[str, str]) -> WorldConfig:
    return WorldConfig(
        m_questions=_get(cfg, "world.m_questions", int),
        prob_law=parse_prob_law(cfg["world.prob_law"]),
        n_distractors=_get(cfg, "world.n_distractors", int),
        signal_noise_sigma=_get(cfg, "world.noise_sigma", float),
        correlation_rho=_get(cfg, "world.rho", float),
        world_temperature=_get(cfg, "world.temperature", float),
        rng_seed=_get(cfg, "world.seed", int),
    )


def build_experiment_config(cfg: Mapping[str, str], environ: Mapping[str, str]) -> ExperimentConfig:
    """Assemble a full experiment configuration from merged settings."""
    backend_kind = cfg["backend.kind"]
    world = None
    questions = None
    http = None

    if backend_kind == "sim":
        world = world_config_from_settings(cfg)
        m_questions = world.m_questions
    elif backend_kind == "http":
        questions_path = cfg.get("run.questions", "")
        if not questions_path:
            raise ValidationError("http backend needs run.questions pointing at a questions JSONL")
        questions = load_questions_jsonl(Path(questions_path))
        m_questions = len(questions)
        base_url = cfg.get("http.base_url") or environ.get("UAB_API_BASE", "")
        model = cfg.get("http.model") or environ.get("UAB_MODEL", "")
        if not base_url or not model:
            raise ValidationError(
                "http backend needs http.base_url and http.model (or UAB_API_BASE/UAB_MODEL)"
            )
        # API key only ever comes from the environment
        http = HttpBackendConfig(base_url=base_url, model=model,
                                 api_key=environ.get("UAB_API_KEY", ""))
    else:
        raise ValidationError(f"backend.kind must be sim or http, got {backend_kind!r}")

    signal = _get(cfg, "pipeline.signal", SignalKind)
    k = 2 if signal == SignalKind.VOTE_ENTROPY else 1
    if cfg.get("pipeline.k", ""):
        k = _get(cfg, "pipeline.k", int)

    budget = BudgetSpec(
        n_per_question=_get(cfg, "budget.n", int),
        m_questions=m_questions,
        temperature=_get(cfg, "budget.temperature", float),
    )
    pipeline = PipelineConfig(
        budget=budget,
        signal_kind=signal,
        threshold_exit=ThresholdExitConfig(
            exit_kind=_get(cfg, "exit.kind", ExitKind),
            theta=_get(cfg, "exit.theta", float),
            mode=_get(cfg, "exit.mode", ExitMode),
        ),
        policy=_get(cfg, "pipeline.policy", Policy),
        phase1_samples_k=k,
        sampling_temperature=_get(cfg, "pipeline.sampling_temperature", float),
        max_tokens=_get(cfg, "pipeline.max_tokens", int),
    )
    cache_dir = cfg.get("http.cache_dir", "")
    return ExperimentConfig(
        pipeline=pipeline,
        backend_kind=backend_kind,
        world=world,
        http=http,
        questions=questions,
        cache_dir=Path(cache_dir) if cache_dir else None,
        seeds=parse_seed_list(cfg["run.seeds"]),
        output_dir=Path(cfg["run.out"]),
    )
