"""Flat key-value run configuration.

The file format is one ``section.key = value`` pair per line; ``#`` starts a
comment. Environment variables named ``UAB_<SECTION>_<KEY>`` override file
values (the section is the part before the first underscore), and CLI flags
override both, so precedence is CLI > env > file > defaults. A key that
:data:`DEFAULTS` does not list, from a file or a variable of a known section,
is a :class:`~uab.core.ValidationError`.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Callable, Container, Dict, Iterator, Mapping, Optional, Tuple, TypeVar

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

#: Every default a config dataclass states is read from that dataclass.
DEFAULTS: Dict[str, str] = {
    "budget.n": "4",
    "budget.temperature": str(BudgetSpec.temperature),
    "pipeline.policy": PipelineConfig.policy.value,
    "pipeline.signal": PipelineConfig.signal_kind.value,
    "pipeline.k": "",
    "pipeline.sampling_temperature": str(DEFAULT_SAMPLING_TEMPERATURE),
    "pipeline.max_tokens": str(DEFAULT_MAX_TOKENS),
    "exit.kind": ThresholdExitConfig.exit_kind.value,
    "exit.theta": str(ThresholdExitConfig.theta),
    "exit.mode": ThresholdExitConfig.mode.value,
    "world.m_questions": "200",
    "world.prob_law": "beta:2,2",
    "world.n_distractors": str(WorldConfig.n_distractors),
    "world.noise_sigma": str(WorldConfig.signal_noise_sigma),
    "world.rho": str(WorldConfig.correlation_rho),
    "world.temperature": str(WorldConfig.world_temperature),
    "world.seed": "12345",
    "run.seeds": "0,1,2",
    "run.out": "results",
    "run.questions": "",
    "backend.kind": "sim",
    "http.base_url": "",
    "http.model": "",
    "http.cache_dir": "",
}


def parse_config_text(text: str, known: Optional[Container[str]] = None) -> Dict[str, str]:
    """The ``section.key = value`` pairs of ``text``; a key not in ``known``,
    when given, is an error naming its line."""
    out: Dict[str, str] = {}
    # lines end at "\n" only: str.splitlines would also end one at a form
    # feed or a record separator inside a value
    for lineno, raw in enumerate(text.split("\n"), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValidationError(f"config line {lineno}: expected 'key = value', got {raw!r}")
        key, value = line.split("=", 1)
        key = key.strip()
        if not key or "." not in key:
            raise ValidationError(f"config line {lineno}: keys are dotted 'section.key', got {key!r}")
        if known is not None and key not in known:
            raise ValidationError(f"config line {lineno}: unknown key {key!r}")
        out[key] = value.strip()
    return out


def read_input_text(path: Path) -> str:
    """The UTF-8 text of an input file; a file that is missing, unreadable or
    not UTF-8 is a :class:`ValidationError` that names the path."""
    try:
        return Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise ValidationError(f"{path}: cannot read ({exc.strerror or exc})") from exc
    except UnicodeDecodeError as exc:
        raise ValidationError(f"{path}: not UTF-8 text ({exc})") from exc


def load_config_file(path: Path) -> Dict[str, str]:
    """The settings of a config file, whose keys must be in :data:`DEFAULTS`;
    an error names the file."""
    text = read_input_text(path)
    try:
        return parse_config_text(text, DEFAULTS)
    except ValidationError as exc:
        raise ValidationError(f"{path}: {exc}") from exc


def env_overrides(environ: Mapping[str, str]) -> Dict[str, str]:
    """The settings of the ``UAB_<SECTION>_<KEY>`` variables whose section is
    in :data:`SECTIONS`; such a variable whose key :data:`DEFAULTS` does not
    list is an error naming it. Other variables are not read."""
    out: Dict[str, str] = {}
    for name, value in environ.items():
        if not name.startswith(ENV_PREFIX):
            continue
        rest = name[len(ENV_PREFIX):].lower()
        section, _, key = rest.partition("_")
        if section in SECTIONS and key:
            key = f"{section}.{key}"
            if key not in DEFAULTS:
                raise ValidationError(f"environment variable {name}: unknown config key {key!r}")
            out[key] = value
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


def get_setting(cfg: Mapping[str, str], key: str, kind: Callable[[str], T]) -> T:
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


def jsonl_rows(path: Path, what: str) -> Iterator[Tuple[str, str, dict]]:
    """The rows of a JSONL file of records keyed by ``id``, one JSON object per
    line, as ``(where, id, row)`` with ``where`` the row's ``path:line``.
    Blank lines are skipped; :class:`ValidationError` names the line of a row
    that is not JSON, not an object with an ``id``, has an ``id`` that is
    neither a string nor an integer (an integer is read as its ``str``) or
    repeats an earlier id, and names the file when it holds no row (``what``
    says what the rows are)."""
    seen = set()
    for lineno, line in enumerate(read_input_text(path).splitlines(), start=1):
        if not line.strip():
            continue
        where = f"{path}:{lineno}"
        try:
            row = json.loads(line)
        except json.JSONDecodeError as exc:
            raise ValidationError(f"{where}: invalid JSON ({exc})") from exc
        if not isinstance(row, dict) or "id" not in row:
            raise ValidationError(f"{where}: need a JSON object with an 'id'")
        qid = row["id"]
        if type(qid) is int:  # not a bool
            qid = str(qid)
        elif not isinstance(qid, str):
            raise ValidationError(f"{where}: 'id' must be a string or an integer, got {qid!r:.200}")
        if qid in seen:
            raise ValidationError(f"{where}: duplicate id {qid!r}")
        seen.add(qid)
        yield where, qid, row
    if not seen:
        raise ValidationError(f"{path}: no {what} found")


def load_questions_jsonl(path: Path) -> list[QuestionRecord]:
    """The questions of a JSONL file, read by :func:`jsonl_rows`. A numeric
    ``gold_answer`` is read as its ``str``; :class:`ValidationError` names the
    line of a row that lacks ``prompt``, has a ``prompt`` that is not a string,
    a ``gold_answer`` that is neither a string nor a number, or an unknown
    ``task_kind``."""
    questions = []
    for where, qid, row in jsonl_rows(path, "questions"):
        gold = row.get("gold_answer")
        if type(gold) in (int, float):
            gold = str(gold)
        try:
            questions.append(QuestionRecord(
                id=qid,
                prompt=row["prompt"],
                gold_answer=gold,
                task_kind=TaskKind(row.get("task_kind", "open_math")),
            ))
        except (KeyError, ValueError) as exc:
            raise ValidationError(f"{where}: bad question record ({exc})") from exc
    return questions


def world_config_from_settings(cfg: Mapping[str, str]) -> WorldConfig:
    return WorldConfig(
        m_questions=get_setting(cfg, "world.m_questions", int),
        prob_law=parse_prob_law(cfg["world.prob_law"]),
        n_distractors=get_setting(cfg, "world.n_distractors", int),
        signal_noise_sigma=get_setting(cfg, "world.noise_sigma", float),
        correlation_rho=get_setting(cfg, "world.rho", float),
        world_temperature=get_setting(cfg, "world.temperature", float),
        rng_seed=get_setting(cfg, "world.seed", int),
    )


def exit_config_from_settings(cfg: Mapping[str, str]) -> ThresholdExitConfig:
    return ThresholdExitConfig(
        exit_kind=get_setting(cfg, "exit.kind", ExitKind),
        theta=get_setting(cfg, "exit.theta", float),
        mode=get_setting(cfg, "exit.mode", ExitMode),
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
        if not cfg["http.base_url"] or not cfg["http.model"]:
            raise ValidationError("http backend needs http.base_url and http.model")
        # API key only ever comes from the environment
        http = HttpBackendConfig(base_url=cfg["http.base_url"], model=cfg["http.model"],
                                 api_key=environ.get("UAB_API_KEY", ""))
    else:
        raise ValidationError(f"backend.kind must be sim or http, got {backend_kind!r}")

    signal = get_setting(cfg, "pipeline.signal", SignalKind)
    k = 2 if signal == SignalKind.VOTE_ENTROPY else 1
    if cfg.get("pipeline.k", ""):
        k = get_setting(cfg, "pipeline.k", int)

    budget = BudgetSpec(
        n_per_question=get_setting(cfg, "budget.n", int),
        m_questions=m_questions,
        temperature=get_setting(cfg, "budget.temperature", float),
    )
    pipeline = PipelineConfig(
        budget=budget,
        signal_kind=signal,
        threshold_exit=exit_config_from_settings(cfg),
        policy=get_setting(cfg, "pipeline.policy", Policy),
        phase1_samples_k=k,
        sampling_temperature=get_setting(cfg, "pipeline.sampling_temperature", float),
        max_tokens=get_setting(cfg, "pipeline.max_tokens", int),
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
