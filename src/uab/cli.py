"""Command-line entry point.

Subcommands: ``allocate`` turns a scores file into an allocation, ``run``
executes the full pipeline, ``simulate`` compares policies in the simulated
world, ``invert`` computes minimum-budget-at-accuracy curves, ``verify`` runs
the property suite, and ``judge`` batch-labels questions easy/hard.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import sys
from pathlib import Path
from typing import Dict, List, Optional

from .allocation import ExitKind, ExitMode, ThresholdExitConfig, apply_threshold_exits, verify_kkt
from .backends import judge_classify_all
from .config import build_experiment_config, env_overrides, json_id, load_config_file, merge_settings
from .core import SignalKind, ValidationError, coverage_objective
from .curves import min_budget_curve
from .harness import (
    MetricReport,
    PartialRunError,
    build_backend,
    experiment_inputs,
    run_experiment,
    verify_suite,
)
from .pipeline import Policy
from .signals import score_to_prob


def _add_shared_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", type=Path, help="flat key-value config file")
    parser.add_argument("--seed", type=int, action="append", dest="seeds",
                        help="experiment seed (repeatable)")
    parser.add_argument("--policy", choices=[p.value for p in Policy])
    parser.add_argument("--n", type=int, help="samples per question N")
    parser.add_argument("--temperature", type=float, help="allocator temperature T")
    parser.add_argument("--signal", choices=[s.value for s in SignalKind], help="difficulty signal kind")
    parser.add_argument("--exit", dest="exit_kind", choices=[k.value for k in ExitKind])
    parser.add_argument("--theta", type=float, help="threshold-exit theta")
    parser.add_argument("--exit-mode", choices=[m.value for m in ExitMode])
    parser.add_argument("--backend", choices=["sim", "http"])
    parser.add_argument("--out", type=Path, help="output directory")


def _cli_overrides(args: argparse.Namespace) -> Dict[str, str]:
    mapping = {
        "pipeline.policy": getattr(args, "policy", None),
        "budget.n": getattr(args, "n", None),
        "budget.temperature": getattr(args, "temperature", None),
        "pipeline.signal": getattr(args, "signal", None),
        "exit.kind": getattr(args, "exit_kind", None),
        "exit.theta": getattr(args, "theta", None),
        "exit.mode": getattr(args, "exit_mode", None),
        "backend.kind": getattr(args, "backend", None),
        "run.out": getattr(args, "out", None),
        "run.questions": getattr(args, "questions", None),
    }
    out = {k: str(v) for k, v in mapping.items() if v is not None}
    seeds = getattr(args, "seeds", None)
    if seeds:
        out["run.seeds"] = ",".join(str(s) for s in seeds)
    return out


def _merged_settings(args: argparse.Namespace) -> Dict[str, str]:
    file_cfg = load_config_file(args.config) if getattr(args, "config", None) else None
    return merge_settings(file_cfg, env_overrides(os.environ), _cli_overrides(args))


def _print_report(report: MetricReport) -> None:
    print(
        f"policy={report.policy} N={report.n_per_question} seeds={report.seed_count} "
        f"acc={report.accuracy_mean:.4f}+/-{report.accuracy_std:.4f} "
        f"coverage={report.coverage_mean:.4f} saved={report.budget_saved_pct:.2f}% "
        f"issued={report.samples_issued}"
    )
    if report.anll_correctness_pearson is not None:
        print(f"score/correctness pearson r = {report.anll_correctness_pearson:.4f}")
    if report.per_decile_allocation is not None:
        cells = " ".join(f"{v:.2f}" for v in report.per_decile_allocation)
        print(f"extra samples per score decile: {cells}")


def _cmd_run(args: argparse.Namespace) -> int:
    cfg = _merged_settings(args)
    experiment = build_experiment_config(cfg, os.environ)
    try:
        report = run_experiment(experiment)
    except PartialRunError as exc:
        _print_report(exc.report)
        print(f"warning: {exc}", file=sys.stderr)
        return 1
    _print_report(report)
    return 0


def _cmd_simulate(args: argparse.Namespace) -> int:
    cfg = _merged_settings(args)
    cfg["backend.kind"] = "sim"
    policies = [p.strip() for p in args.policies.split(",") if p.strip()]
    if not policies:
        raise ValidationError("--policies must name at least one policy")
    # every policy's config is checked before the first run writes anything
    experiments = [build_experiment_config({**cfg, "pipeline.policy": policy}, os.environ) for policy in policies]
    status = 0
    for experiment in experiments:
        try:
            report = run_experiment(experiment)
        except PartialRunError as exc:
            report = exc.report
            status = 1
        _print_report(report)
    print(f"aggregate rows appended to {Path(cfg['run.out']) / 'aggregate.csv'}")
    return status


def _read_scores_jsonl(path: Path, temperature: float) -> Dict[str, float]:
    probs: Dict[str, float] = {}
    for lineno, line in enumerate(path.read_text(encoding="utf-8").splitlines(), start=1):
        if not line.strip():
            continue
        try:
            row = json.loads(line)
        except json.JSONDecodeError as exc:
            raise ValidationError(f"{path}:{lineno}: invalid JSON ({exc})") from exc
        if not isinstance(row, dict) or "id" not in row:
            raise ValidationError(f"{path}:{lineno}: need a JSON object with an 'id'")
        try:
            qid = json_id(row["id"])
        except ValidationError as exc:
            raise ValidationError(f"{path}:{lineno}: {exc}") from exc
        if qid in probs:
            raise ValidationError(f"{path}:{lineno}: duplicate id {qid!r}")
        field = "p" if "p" in row else "score"
        if field not in row:
            raise ValidationError(f"{path}:{lineno}: need either 'p' or 'score'")
        value = row[field]
        if type(value) not in (int, float):
            raise ValidationError(f"{path}:{lineno}: {field!r} must be a number, got {value!r:.200}")
        value = float(value)
        if field == "p" and not 0.0 <= value <= 1.0:
            raise ValidationError(f"{path}:{lineno}: 'p' must be a probability in [0, 1], got {value!r}")
        if field == "score" and not (math.isfinite(value) and value >= 0):
            raise ValidationError(f"{path}:{lineno}: 'score' must be finite and >= 0, got {value!r}")
        probs[qid] = value if field == "p" else score_to_prob(value, temperature)
    if not probs:
        raise ValidationError(f"{path}: no score rows found")
    return probs


def _cmd_allocate(args: argparse.Namespace) -> int:
    temperature = args.temperature if args.temperature is not None else 0.2
    probs = _read_scores_jsonl(args.scores, temperature)
    if args.budget_effective is not None:
        budget = args.budget_effective
    elif args.n is not None:
        budget = (args.n - 1) * len(probs)
    else:
        raise ValidationError("allocate needs --budget-effective or --n")
    exit_cfg = ThresholdExitConfig(
        exit_kind=ExitKind(args.exit_kind or "none"),
        theta=args.theta if args.theta is not None else 0.5,
        mode=ExitMode(args.exit_mode or "redistribute"),
    )
    eligible, alloc, saved = apply_threshold_exits(probs, budget, exit_cfg)
    cert = verify_kkt(alloc, probs) if exit_cfg.exit_kind == ExitKind.NONE else None
    out_path: Optional[Path] = args.out_file
    lines = [
        json.dumps({"id": qid, "p": probs[qid], "extra_samples": alloc.extras[qid]},
                   separators=(",", ":"))
        for qid in probs
    ]
    if out_path:
        out_path.parent.mkdir(parents=True, exist_ok=True)
        out_path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    else:
        for line in lines:
            print(line)
    j = coverage_objective(alloc, probs)
    msg = f"allocated {alloc.total_extras()}/{budget} units over {len(eligible)} eligible questions, J={j:.6f}"
    if saved:
        msg += f", saved {saved} units"
    if cert is not None:
        msg += f", kkt_satisfied={cert.satisfied}"
    print(msg, file=sys.stderr)
    return 0


def _cmd_invert(args: argparse.Namespace) -> int:
    points = []
    with open(args.points, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        first = True
        for row in reader:
            if not row or not row[0].strip():
                continue
            try:
                n, accuracy = (float(cell) for cell in row[:2])
            except ValueError as exc:
                # only the first row may be a header
                if not first:
                    raise ValidationError(
                        f"{args.points}:{reader.line_num}: need two numbers N,accuracy, got {row!r:.200}"
                    ) from exc
            else:
                points.append((n, accuracy))
            first = False
    try:
        targets = [float(t) for t in args.targets.split(",") if t.strip()]
    except ValueError as exc:
        raise ValidationError(f"--targets: {exc}") from exc
    results = min_budget_curve(points, targets)
    lines = ["target,min_n"]
    for target, n in results:
        lines.append(f"{target},{'' if n is None else f'{n:.6f}'}")
    if args.out_file:
        args.out_file.parent.mkdir(parents=True, exist_ok=True)
        args.out_file.write_text("\n".join(lines) + "\n", encoding="utf-8")
    else:
        print("\n".join(lines))
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    report = verify_suite(rng_seed=args.verify_seed, verbose=True)
    return 0 if report.all_passed else 1


def _cmd_judge(args: argparse.Namespace) -> int:
    experiment = build_experiment_config(_merged_settings(args), os.environ)
    world, questions = experiment_inputs(experiment)
    backend = build_backend(experiment, world, seed=0)
    labels = judge_classify_all(questions, backend)
    lines = [
        json.dumps({"id": q.id, "label": label.value}, separators=(",", ":"))
        for q, label in zip(questions, labels)
    ]
    if args.out_file:
        args.out_file.parent.mkdir(parents=True, exist_ok=True)
        args.out_file.write_text("\n".join(lines) + "\n", encoding="utf-8")
    else:
        print("\n".join(lines))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="uab", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run the two-phase pipeline")
    _add_shared_flags(p_run)
    p_run.add_argument("--questions", help="questions JSONL (http backend)")
    p_run.set_defaults(func=_cmd_run)

    p_sim = sub.add_parser("simulate", help="compare policies in the simulated world")
    _add_shared_flags(p_sim)
    p_sim.add_argument("--policies", default="uab,uniform",
                       help="comma-separated policies to compare")
    p_sim.set_defaults(func=_cmd_simulate)

    p_alloc = sub.add_parser("allocate", help="allocate a budget over a scores file")
    p_alloc.add_argument("--scores", type=Path, required=True,
                         help="JSONL with {id, score} or {id, p} rows")
    p_alloc.add_argument("--budget-effective", type=int)
    p_alloc.add_argument("--n", type=int, help="derive budget as (N-1)*M")
    p_alloc.add_argument("--temperature", type=float)
    p_alloc.add_argument("--exit", dest="exit_kind", choices=[k.value for k in ExitKind])
    p_alloc.add_argument("--theta", type=float)
    p_alloc.add_argument("--exit-mode", choices=[m.value for m in ExitMode])
    p_alloc.add_argument("--out", dest="out_file", type=Path)
    p_alloc.set_defaults(func=_cmd_allocate)

    p_inv = sub.add_parser("invert", help="minimum budget to reach accuracy targets")
    p_inv.add_argument("--points", type=Path, required=True, help="CSV of N,accuracy rows")
    p_inv.add_argument("--targets", required=True, help="comma-separated accuracy targets")
    p_inv.add_argument("--out", dest="out_file", type=Path)
    p_inv.set_defaults(func=_cmd_invert)

    p_ver = sub.add_parser("verify", help="run the property-verification suite")
    p_ver.add_argument("--seed", dest="verify_seed", type=int, default=0)
    p_ver.set_defaults(func=_cmd_verify)

    p_judge = sub.add_parser("judge", help="batch easy/hard labels for questions")
    p_judge.add_argument("--config", type=Path, help="flat key-value config file")
    p_judge.add_argument("--backend", choices=["sim", "http"])
    p_judge.add_argument("--questions", help="questions JSONL (http backend)")
    p_judge.add_argument("--out", dest="out_file", type=Path)
    p_judge.set_defaults(func=_cmd_judge)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
