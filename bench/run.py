"""Run one benchmark workload and print its metrics.

    python3 bench/run.py --workload sim-batch --seed 1 --seconds 55 --trace 0

Run from the root of a checkout: the benchmark imports ``uab`` from ``src/``
there and exits with status 2 if it is missing. Each run sets the workload up
several times, runs one untimed warm-up body whose output is the reference,
then repeats the timed body for ``--seconds`` (``wall_s`` is the fastest),
timing further set-ups between bodies (``setup_s`` is the median of all).
Every body's output is checked; a failed check counts toward ``failed``. The
command re-executes itself with PYTHONHASHSEED=0.

``--trace 0`` prints the end-to-end metrics, measured with no tracing.
``--trace 1`` alternates untraced and traced bodies and prints the per-layer
metrics (medians over the traced bodies) and the tracing overhead; the spans of
the last traced body go to ``.bench_out/``.

The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the lines before it say the same for
a reader, with the machine and the sample counts.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import tempfile
import traceback
from pathlib import Path
from time import perf_counter

import spans

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".bench_out"

WORKLOAD_NAMES = ("sim-batch", "allocate-large", "http-cold", "http-replay")

#: The workload is set up SETUP_FIRST times before the warm-up body, then once
#: more after a timed body whenever SETUP_EVERY of ``--seconds`` has passed
#: since the last. This host's speed drifts over stretches of 10-40 s, so
#: set-ups taken at one moment all read fast or all read slow; spread over the
#: run, their median (``setup_s``) varies far less from run to run.
SETUP_FIRST = 5
SETUP_EVERY = 1 / 20
#: Timed bodies run for ``--seconds`` and at least this many times.
MIN_REPEATS = 3

#: End-to-end metrics: name -> unit.
END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "samples_per_s": "1/s",
    "units_per_s": "1/s",
    "latency_waves": "ratio",
    "accuracy": "ratio",
    "coverage": "ratio",
    "peak_rss_mb": "MB",
}


def per_layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("us_per_sample"):
        return "us"
    if name.endswith(("_ratio", "_frac")):
        return "ratio"
    return "count"


class ProgramNotFound(RuntimeError):
    pass


def import_program():
    """Import ``uab`` from this checkout's ``src/`` and nowhere else."""
    src = ROOT / "src"
    if not (src / "uab" / "__init__.py").is_file():
        raise ProgramNotFound(f"no uab package under {src}; run from a checkout of the repository")
    sys.path.insert(0, str(src))
    import uab

    if Path(uab.__file__).resolve().parent != (src / "uab").resolve():
        raise ProgramNotFound(f"imported uab from {uab.__file__}, not from {src}")
    return uab


def machine() -> str:
    import numpy

    from workloads import nproc

    return (f"nproc={nproc()} python={platform.python_version()} numpy={numpy.__version__} "
            f"platform={platform.platform()}")


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


class Runner:
    """Set up one workload, time its body, check every output."""

    def __init__(self, name: str, seed: int, seconds: float, sizes, workdir: Path):
        from workloads import WORKLOADS

        self.cls = WORKLOADS[name]
        self.name = name
        self.seed = seed
        self.seconds = seconds
        self.size = sizes[name]
        self.workdir = workdir
        self.attempted = 0
        self.failed = 0
        self.problems = []
        self.setup_times = []

    def _timed_setup(self):
        """A newly set-up workload; its set-up time goes to ``setup_times``."""
        workload = self.cls(self.seed, self.size["m"], self.size["n"], self.workdir)
        gc.collect()
        start = perf_counter()
        try:
            workload.setup()
        except BaseException:
            workload.close()
            raise
        self.setup_times.append(perf_counter() - start)
        return workload

    def set_up(self):
        """Set up SETUP_FIRST times and keep the last workload."""
        for _ in range(SETUP_FIRST):
            if getattr(self, "workload", None) is not None:
                self.workload.close()
            self.workload = self._timed_setup()

    def one_body(self, reference, tracer=None):
        """(wall seconds, checked outcome) of one body; an exception fails the batch."""
        workload = self.workload
        try:
            workload.prepare()
            # Start every body from a collected heap, so that a collection
            # the previous body left pending does not land in this one.
            gc.collect()
            if tracer is None:
                start = perf_counter()
                output = workload.body()
                wall = perf_counter() - start
            else:
                with spans.installed(tracer):
                    start = perf_counter()
                    output = workload.body()
                    wall = perf_counter() - start
            outcome = workload.outcome(output, reference)
        except Exception:
            traceback.print_exc()
            self.attempted += reference.attempted if reference else 1
            self.failed += reference.attempted if reference else 1
            self.problems.append("body raised an exception")
            return None, None
        self.attempted += outcome.attempted
        self.failed += outcome.failed
        self.problems.extend(outcome.problems)
        return wall, outcome

    def timed(self, reference):
        walls = []
        bodies = 0
        deadline = perf_counter() + self.seconds
        next_setup = perf_counter()
        while bodies < MIN_REPEATS or perf_counter() < deadline:
            bodies += 1
            wall, _ = self.one_body(reference)
            if wall is not None:
                walls.append(wall)
            if perf_counter() >= next_setup:
                self._timed_setup().close()
                next_setup = perf_counter() + SETUP_EVERY * self.seconds
        return walls

    def traced(self, reference):
        """Alternate untraced and traced bodies; return the per-layer metrics."""
        plain, layers, last_spans = [], [], []
        deadline = perf_counter() + self.seconds
        k = 0
        while k < MIN_REPEATS or perf_counter() < deadline:
            k += 1
            wall, _ = self.one_body(reference)
            if wall is not None:
                plain.append(wall)
            tracer = spans.Tracer(run_id=f"{self.name}-seed{self.seed}-body{k}")
            wall, outcome = self.one_body(reference, tracer)
            if wall is not None:
                layers.append(spans.layer_metrics(tracer, wall, outcome.stub_stats))
                last_spans = tracer.spans
        if not layers or not plain:
            return None, []
        metrics = {key: statistics.median(m[key] for m in layers) for key in layers[0]}
        metrics["trace.untraced_body_s"] = statistics.median(plain)
        metrics["trace.overhead_s"] = metrics["trace.body_s"] - metrics["trace.untraced_body_s"]
        metrics["trace.bodies"] = len(layers)
        return metrics, last_spans

    def close(self):
        workload = getattr(self, "workload", None)
        if workload is not None:
            workload.close()


def run(name: str, seed: int, seconds: float, trace: bool, sizes=None):
    """Run one workload; return (result object, human-readable lines)."""
    from workloads import ROUND_TRIP_S, SIZES

    sizes = sizes or SIZES
    OUT_DIR.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{name}-", dir=OUT_DIR))
    runner = Runner(name, seed, seconds, sizes, workdir)
    size = sizes[name]
    lines = [
        f"# workload={name} seed={seed} seconds={seconds} trace={int(trace)} M={size['m']} N={size['n']}",
        f"# machine {machine()}",
    ]
    try:
        runner.set_up()
        _, reference = runner.one_body(None)
        if reference is None:
            metrics = {}
        elif trace:
            metrics, last_spans = runner.traced(reference)
            metrics = metrics or {}
            if last_spans:
                path = OUT_DIR / f"spans-{name}.jsonl"
                spans.write_spans(last_spans, path)
                lines.append(f"# spans of the last traced body: {path.relative_to(ROOT)}")
        else:
            walls = runner.timed(reference)
            metrics = {}
            if walls:
                wall = min(walls)
                q1, q3 = quartiles(walls)
                lines.append(f"# wall_s: fastest of {len(walls)} timed bodies; median {statistics.median(walls):.6f}, "
                             f"quartiles {q1:.6f} {q3:.6f}, max {max(walls):.6f}")
                lines.append(f"# setup_s: median of {len(runner.setup_times)} set-ups: "
                             + " ".join(f"{t:.6f}" for t in runner.setup_times))
                metrics = {
                    "setup_s": statistics.median(runner.setup_times),
                    "wall_s": wall,
                    "samples_per_s": reference.samples / wall,
                    "units_per_s": reference.units / wall,
                    "latency_waves": wall / ROUND_TRIP_S,
                    "accuracy": reference.accuracy,
                    "coverage": reference.coverage,
                    "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                }
    finally:
        runner.close()
        shutil.rmtree(workdir, ignore_errors=True)

    units = {key: (END_TO_END[key] if not trace else per_layer_unit(key)) for key in metrics}
    for key, value in metrics.items():
        lines.append(f"{key} {value!r} {units[key]}")
    attempted = max(runner.attempted, 1)
    failed = runner.failed if metrics else max(runner.failed, 1)
    lines.append(f"failed_frac {failed / attempted!r} ratio ({failed} of {attempted} attempted)")
    for problem in sorted(set(runner.problems)):
        lines.append(f"# check failed: {problem}")
    result = {
        "correct": bool(metrics) and failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {key: {"value": value, "unit": units[key]} for key, value in metrics.items()},
    }
    return result, lines


def main(argv=None, sizes=None) -> int:
    parser = argparse.ArgumentParser(description="Run one benchmark workload and print its metrics.")
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if args.seconds <= 0:
        parser.error("--seconds must be > 0")
    try:
        import_program()
    except ProgramNotFound as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    result, lines = run(args.workload, args.seed, args.seconds, bool(args.trace), sizes)
    for line in lines:
        print(line)
    print(json.dumps(result))
    return 0


def pin_hash_seed() -> None:
    """Re-execute this command with PYTHONHASHSEED=0 unless it is set so.

    String hashes decide dict and set layout, so with random hash seeds the
    same inputs run up to half again slower in one process than in another.
    A fixed seed takes that out of the run-to-run spread.
    """
    if os.environ.get("PYTHONHASHSEED") != "0":
        env = dict(os.environ, PYTHONHASHSEED="0")
        os.execve(sys.executable, [sys.executable, *sys.argv], env)


if __name__ == "__main__":
    pin_hash_seed()
    sys.exit(main())
