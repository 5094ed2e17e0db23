"""Toy-size self-test of the benchmark.

    python3 -m pytest bench/test_bench.py

Runs every workload at toy size in both modes and checks that each metric
named in BENCHMARK.json is printed with its unit, and that the output checks
fire on corrupted results.
"""

import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402

run.import_program()

import workloads  # noqa: E402
from uab.allocation import verify_kkt  # noqa: E402
from uab.core import AllocationVector  # noqa: E402

SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))

TOY = {
    "sim-batch": {"m": 30, "n": 4},
    "allocate-large": {"m": 200, "n": 8},
    "http-cold": {"m": 6, "n": 4},
    "http-replay": {"m": 6, "n": 4},
}


def test_workload_names_match_the_spec():
    assert list(run.WORKLOAD_NAMES) == list(workloads.WORKLOADS)
    assert {w["name"] for w in SPEC["workloads"]} <= set(run.WORKLOAD_NAMES)
    assert [m["name"] for m in SPEC["end_to_end"]] == list(run.END_TO_END)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", run.WORKLOAD_NAMES)
def test_prints_every_metric_with_its_unit(workload, trace, capsys):
    argv = ["--workload", workload, "--seed", "5", "--seconds", "0.2", "--trace", str(trace)]
    assert run.main(argv, sizes=TOY) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    declared = {m["name"]: m["unit"] for m in SPEC["per_layer" if trace else "end_to_end"]}
    assert {name: m["unit"] for name, m in result["metrics"].items()} == declared
    for name, unit in declared.items():
        value = result["metrics"][name]["value"]
        assert any(line == f"{name} {value!r} {unit}" for line in lines), name
        if not trace:
            assert value > 0, name


def _toy_sim(tmp_path):
    workload = workloads.SimBatch(seed=3, m=30, n=4, workdir=tmp_path)
    workload.setup()
    reference = workload.outcome(workload.body(), None)
    return workload, reference


def test_checks_pass_on_a_true_batch(tmp_path):
    workload, reference = _toy_sim(tmp_path)
    assert reference.failed == 0 and reference.problems == []
    again = workload.outcome(workload.body(), reference)
    assert again.failed == 0 and again.problems == []


def test_checks_fire_on_corrupted_batches(tmp_path):
    workload, reference = _toy_sim(tmp_path)
    rows = list(reference.result)
    ids = workload.question_ids
    m, n = len(ids), workload.n

    def failed(bad_rows, ref=None, served=n * m):
        count, problems = workloads.check_batch(bad_rows, ids, n, served, ref)
        assert problems
        return count

    first = rows[0]
    assert failed(rows[1:]) == m
    assert failed([(first[0], "", first[2], first[3], first[4])] + rows[1:]) == 1
    assert failed([(first[0], first[1], first[2], first[3] + 1, first[4])] + rows[1:]) == m
    # Same total, but every extra sample on one question: KKT must fail.
    lopsided = [(r[0], r[1], r[2], 1, r[4]) for r in rows]
    lopsided[0] = (first[0], first[1], first[2], 1 + (n - 1) * m, first[4])
    assert failed(lopsided) == m
    changed = [(first[0], first[1] + "0", first[2], first[3], first[4])] + rows[1:]
    assert failed(changed, rows) == m
    # The rows are intact, but the backend returned one sample short.
    assert failed(rows, served=n * m - 1) == m


def test_allocation_checks_fire_on_corrupted_allocations(tmp_path):
    workload = workloads.AllocateLarge(seed=3, m=50, n=4, workdir=tmp_path)
    workload.setup()
    alloc, cert, objective, saved = workload.body()
    reference = workload.outcome((alloc, cert, objective, saved), None)
    assert reference.failed == 0 and reference.problems == []

    extras = dict(alloc.extras)
    short = AllocationVector({**extras, "q000000": extras["q000000"] - 1} if extras["q000000"] else
                             {**extras, "q000001": extras["q000001"] - 1}, workload.budget)
    outcome = workload.outcome((short, verify_kkt(short, workload.probs), objective, 0), reference)
    assert outcome.failed == 1 and outcome.problems

    ids = list(workload.probs)
    piled = AllocationVector({q: (workload.budget if i == 0 else 0) for i, q in enumerate(ids)},
                             workload.budget)
    outcome = workload.outcome((piled, verify_kkt(piled, workload.probs), objective, 0), None)
    assert outcome.failed == 1 and any("KKT" in p for p in outcome.problems)

    outcome = workload.outcome((alloc, cert, objective * 1.001, saved), None)
    assert outcome.failed == 1 and any("coverage" in p for p in outcome.problems)

    # The same allocation built in another key order is still valid.
    reordered = AllocationVector(dict(reversed(list(extras.items()))), workload.budget)
    outcome = workload.outcome((reordered, verify_kkt(reordered, workload.probs), objective, 0), reference)
    assert outcome.failed == 0 and outcome.problems == []


def test_replay_check_fires_when_the_cache_is_cold(tmp_path):
    workload = workloads.HttpReplay(seed=3, m=4, n=4, workdir=tmp_path)
    try:
        workload.setup()
        workload._fresh_cache()
        workload.prepare()
        outcome = workload.outcome(workload.body(), None)
    finally:
        workload.close()
    assert outcome.failed == 4
    assert any("POSTs" in p for p in outcome.problems)
