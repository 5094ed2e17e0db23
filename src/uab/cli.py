"""Command-line entry point.

Subcommands: ``allocate`` turns a scores file into an allocation, ``run``
executes the full pipeline, ``simulate`` compares policies in the simulated
world, ``invert`` computes minimum-budget-at-accuracy curves, ``verify`` runs
the property suite, and ``judge`` batch-labels questions easy/hard.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import os
import sys
from pathlib import Path
from typing import Dict, List, Optional

from .allocation import ExitKind, ExitMode, apply_threshold_exits, verify_kkt
from .backends import judge_classify_all
from .config import (
    build_experiment_config,
    env_overrides,
    exit_config_from_settings,
    get_setting,
    jsonl_rows,
    load_config_file,
    merge_settings,
    read_input_text,
)
from .core import BudgetSpec, SignalKind, ValidationError, coverage_objective
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


def _cli_overrides(args: argparse.Namespace) -> Dict[str, str]:
    """The config keys set by flags: the dotted dests that were given."""
    return {
        key: ",".join(map(str, value)) if isinstance(value, list) else str(value)
        for key, value in vars(args).items()
        if "." in key and value is not None
    }


def _merged_settings(args: argparse.Namespace) -> Dict[str, str]:
    file_cfg = load_config_file(args.config) if args.config else None
    return merge_settings(file_cfg, env_overrides(os.environ), _cli_overrides(args))


def _check_writable(path: Optional[Path], directory: bool) -> None:
    """:class:`ValidationError` naming ``path`` when a command could not write
    a directory (or a file) there, checked before the command runs: the path,
    or else its nearest existing ancestor, must be a writable directory,
    unless it is the path itself and a file is wanted."""
    if path is None:
        return
    nearest = next(p for p in (path, *path.parents) if p.exists())
    if nearest.is_dir() != (directory or nearest != path) or not os.access(nearest, os.W_OK):
        raise ValidationError(f"{path}: not a writable {'directory' if directory else 'file'}")


def _write_lines(lines: List[str], out_file: Optional[Path]) -> None:
    """Write ``lines`` to ``out_file``, or to stdout when it is None."""
    if out_file:
        out_file.parent.mkdir(parents=True, exist_ok=True)
        out_file.write_text("\n".join(lines) + "\n", encoding="utf-8")
    else:
        print("\n".join(lines))


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
    _check_writable(experiment.output_dir, directory=True)
    # only the HTTP backend opens http.cache_dir
    _check_writable(experiment.cache_dir if experiment.backend_kind == "http" else None, directory=True)
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
    if cfg["backend.kind"] != "sim":
        raise ValidationError(
            f"simulate runs the simulated world only, got backend.kind={cfg['backend.kind']!r}"
        )
    policies = [p.strip() for p in args.policies.split(",") if p.strip()]
    if not policies:
        raise ValidationError("--policies must name at least one policy")
    # every policy's config is checked before the first run writes anything
    experiments = [build_experiment_config({**cfg, "pipeline.policy": policy}, os.environ) for policy in policies]
    _check_writable(Path(cfg["run.out"]), directory=True)
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
    for where, qid, row in jsonl_rows(path, "score rows"):
        field = "p" if "p" in row else "score"
        if field not in row:
            raise ValidationError(f"{where}: need either 'p' or 'score'")
        value = row[field]
        if type(value) not in (int, float):
            raise ValidationError(f"{where}: {field!r} must be a number, got {value!r:.200}")
        value = float(value)
        if field == "p" and not 0.0 <= value <= 1.0:
            raise ValidationError(f"{where}: 'p' must be a probability in [0, 1], got {value!r}")
        if field == "score" and not (math.isfinite(value) and value >= 0):
            raise ValidationError(f"{where}: 'score' must be finite and >= 0, got {value!r}")
        probs[qid] = value if field == "p" else score_to_prob(value, temperature)
    return probs


def _cmd_allocate(args: argparse.Namespace) -> int:
    _check_writable(args.out_file, directory=False)
    # the budget and exit flags over the defaults; no file or environment
    flags = _cli_overrides(args)
    cfg = merge_settings(cli_cfg=flags)
    temperature = get_setting(cfg, "budget.temperature", float)
    # checked here, as rows of p alone never reach score_to_prob; NaN fails too
    if not temperature > 0:
        raise ValidationError(f"temperature must be > 0, got {temperature!r}")
    probs = _read_scores_jsonl(args.scores, temperature)
    if args.budget_effective is not None:
        budget = args.budget_effective
    elif "budget.n" in flags:
        budget = BudgetSpec(get_setting(cfg, "budget.n", int), len(probs), temperature).effective
    else:
        raise ValidationError("allocate needs --budget-effective or --n")
    exit_cfg = exit_config_from_settings(cfg)
    eligible, alloc, saved = apply_threshold_exits(probs, budget, exit_cfg)
    cert = verify_kkt(alloc, probs) if exit_cfg.exit_kind == ExitKind.NONE else None
    _write_lines([
        json.dumps({"id": qid, "p": probs[qid], "extra_samples": alloc.extras[qid]},
                   separators=(",", ":"))
        for qid in probs
    ], args.out_file)
    j = coverage_objective(alloc, probs)
    msg = f"allocated {alloc.total_extras()}/{budget} units over {len(eligible)} eligible questions, J={j:.6f}"
    if saved:
        msg += f", saved {saved} units"
    if cert is not None:
        msg += f", kkt_satisfied={cert.satisfied}"
    print(msg, file=sys.stderr)
    return 0


def _cmd_invert(args: argparse.Namespace) -> int:
    _check_writable(args.out_file, directory=False)
    points = []
    reader = csv.reader(io.StringIO(read_input_text(args.points), newline=""))
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
    _write_lines(lines, args.out_file)
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    report = verify_suite(rng_seed=args.verify_seed, verbose=True)
    return 0 if report.all_passed else 1


def _cmd_judge(args: argparse.Namespace) -> int:
    _check_writable(args.out_file, directory=False)
    experiment = build_experiment_config(_merged_settings(args), os.environ)
    # only the HTTP backend opens http.cache_dir
    _check_writable(experiment.cache_dir if experiment.backend_kind == "http" else None, directory=True)
    world, questions = experiment_inputs(experiment)
    backend = build_backend(experiment, world, seed=0)
    labels = judge_classify_all(questions, backend)
    _write_lines([
        json.dumps({"id": q.id, "label": label.value}, separators=(",", ":"))
        for q, label in zip(questions, labels)
    ], args.out_file)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="uab", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    # Flags shared by subcommands, each declared once; a flag that sets a
    # config key has that key as its dest (see _cli_overrides).
    config = argparse.ArgumentParser(add_help=False)
    config.add_argument("--config", type=Path, help="flat key-value config file")
    budget = argparse.ArgumentParser(add_help=False)
    budget.add_argument("--n", type=int, dest="budget.n", metavar="N",
                        help="samples per question N (allocate spends (N-1)*M)")
    budget.add_argument("--temperature", type=float, dest="budget.temperature", metavar="T",
                        help="allocator temperature T")
    budget.add_argument("--exit", dest="exit.kind", choices=[k.value for k in ExitKind])
    budget.add_argument("--theta", type=float, dest="exit.theta", metavar="THETA",
                        help="threshold-exit theta")
    budget.add_argument("--exit-mode", dest="exit.mode", choices=[m.value for m in ExitMode])
    experiment = argparse.ArgumentParser(add_help=False)
    experiment.add_argument("--seed", type=int, action="append", dest="run.seeds", metavar="SEED",
                            help="experiment seed (repeatable)")
    experiment.add_argument("--signal", dest="pipeline.signal", choices=[s.value for s in SignalKind],
                            help="difficulty signal kind")
    experiment.add_argument("--out", type=Path, dest="run.out", metavar="DIR", help="output directory")
    backend = argparse.ArgumentParser(add_help=False)
    backend.add_argument("--backend", dest="backend.kind", choices=["sim", "http"])
    backend.add_argument("--questions", dest="run.questions", metavar="PATH",
                         help="questions JSONL (http backend)")
    out_file = argparse.ArgumentParser(add_help=False)
    out_file.add_argument("--out", dest="out_file", type=Path, help="output file (default: stdout)")

    p_run = sub.add_parser("run", parents=[config, experiment, budget, backend],
                           help="run the two-phase pipeline")
    p_run.add_argument("--policy", dest="pipeline.policy", choices=[p.value for p in Policy])
    p_run.set_defaults(func=_cmd_run)

    p_sim = sub.add_parser("simulate", parents=[config, experiment, budget],
                           help="compare policies in the simulated world")
    p_sim.add_argument("--policies", default="uab,uniform",
                       help="comma-separated policies to compare")
    p_sim.set_defaults(func=_cmd_simulate)

    p_alloc = sub.add_parser("allocate", parents=[budget, out_file],
                             help="allocate a budget over a scores file")
    p_alloc.add_argument("--scores", type=Path, required=True,
                         help="JSONL with {id, score} or {id, p} rows")
    p_alloc.add_argument("--budget-effective", type=int)
    p_alloc.set_defaults(func=_cmd_allocate)

    p_inv = sub.add_parser("invert", parents=[out_file], help="minimum budget to reach accuracy targets")
    p_inv.add_argument("--points", type=Path, required=True, help="CSV of N,accuracy rows")
    p_inv.add_argument("--targets", required=True, help="comma-separated accuracy targets")
    p_inv.set_defaults(func=_cmd_invert)

    p_ver = sub.add_parser("verify", help="run the property-verification suite")
    p_ver.add_argument("--seed", dest="verify_seed", type=int, default=0)
    p_ver.set_defaults(func=_cmd_verify)

    p_judge = sub.add_parser("judge", parents=[config, backend, out_file],
                             help="batch easy/hard labels for questions")
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
