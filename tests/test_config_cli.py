import csv
import json

import pytest

from uab.backends import BetaLaw, FixedProbs, TwoPointLaw
from uab.config import (
    build_experiment_config,
    env_overrides,
    load_questions_jsonl,
    merge_settings,
    parse_config_text,
    parse_prob_law,
    parse_seed_list,
)
from uab.cli import main
from uab.core import SignalKind, ValidationError


class TestConfigParsing:
    def test_basic_file(self):
        text = """
        # comment line
        budget.n = 8
        world.m_questions = 25   # trailing comment
        pipeline.policy = uniform
        """
        cfg = parse_config_text(text)
        assert cfg == {"budget.n": "8", "world.m_questions": "25", "pipeline.policy": "uniform"}

    def test_malformed_line_errors(self):
        with pytest.raises(ValidationError, match="line 1"):
            parse_config_text("this is not a key value pair")
        with pytest.raises(ValidationError):
            parse_config_text("nodots = 4")

    def test_env_overrides_mapping(self):
        env = {
            "UAB_BUDGET_N": "6",
            "UAB_WORLD_M_QUESTIONS": "17",
            "UAB_RUN_SEEDS": "3,4",
            "PATH": "/usr/bin",
            "UAB_UNKNOWNSECTION_X": "1",
        }
        cfg = env_overrides(env)
        assert cfg == {"budget.n": "6", "world.m_questions": "17", "run.seeds": "3,4"}

    def test_precedence_cli_over_env_over_file(self):
        merged = merge_settings(
            {"budget.n": "2", "budget.temperature": "0.5", "run.out": "from_file"},
            {"budget.n": "6", "run.out": "from_env"},
            {"budget.n": "8"},
        )
        assert merged["budget.n"] == "8"
        assert merged["run.out"] == "from_env"
        assert merged["budget.temperature"] == "0.5"
        assert merged["pipeline.policy"] == "uab"  # default survives

    def test_prob_law_parsing(self):
        assert parse_prob_law("beta:2,2") == BetaLaw(2.0, 2.0)
        assert parse_prob_law("two_point:0.1,0.8,0.5") == TwoPointLaw(0.1, 0.8, 0.5)
        assert parse_prob_law("fixed:0.2,0.4") == FixedProbs((0.2, 0.4))
        with pytest.raises(ValidationError):
            parse_prob_law("gaussian:0,1")
        with pytest.raises(ValidationError):
            parse_prob_law("beta:2")
        with pytest.raises(ValidationError, match="numbers"):
            parse_prob_law("beta:x,2")

    def test_seed_list(self):
        assert parse_seed_list("0,1,2") == (0, 1, 2)
        with pytest.raises(ValidationError):
            parse_seed_list("")
        with pytest.raises(ValidationError):
            parse_seed_list("a,b")

    def test_build_sim_experiment(self):
        cfg = merge_settings(cli_cfg={"world.m_questions": "12", "budget.n": "3"})
        experiment = build_experiment_config(cfg, {})
        assert experiment.world.m_questions == 12
        assert experiment.pipeline.budget.total == 36
        assert experiment.seeds == (0, 1, 2)

    def test_vote_entropy_defaults_k2(self):
        cfg = merge_settings(cli_cfg={"pipeline.signal": "vote_entropy", "world.m_questions": "5"})
        experiment = build_experiment_config(cfg, {})
        assert experiment.pipeline.phase1_samples_k == 2
        assert experiment.pipeline.signal_kind == SignalKind.VOTE_ENTROPY

    def test_http_requires_questions_and_endpoint(self, tmp_path):
        cfg = merge_settings(cli_cfg={"backend.kind": "http"})
        with pytest.raises(ValidationError, match="run.questions"):
            build_experiment_config(cfg, {})
        qfile = tmp_path / "questions.jsonl"
        qfile.write_text('{"id": "a", "prompt": "p?"}\n')
        cfg = merge_settings(
            cli_cfg={"backend.kind": "http", "run.questions": str(qfile), "budget.n": "2"}
        )
        with pytest.raises(ValidationError, match="http.base_url"):
            build_experiment_config(cfg, {})
        experiment = build_experiment_config(
            cfg, {"UAB_API_BASE": "http://x", "UAB_MODEL": "m", "UAB_API_KEY": "secret"}
        )
        assert experiment.http.api_key == "secret"
        assert experiment.pipeline.budget.m_questions == 1

    def test_load_questions_jsonl(self, tmp_path):
        path = tmp_path / "q.jsonl"
        path.write_text(
            '{"id": "a", "prompt": "one?", "gold_answer": "1"}\n'
            '{"id": "b", "prompt": "pick", "task_kind": "multiple_choice"}\n'
        )
        questions = load_questions_jsonl(path)
        assert [q.id for q in questions] == ["a", "b"]
        assert questions[0].gold_answer == "1"
        empty = tmp_path / "empty.jsonl"
        empty.write_text("\n")
        with pytest.raises(ValidationError, match="no questions"):
            load_questions_jsonl(empty)


class TestCli:
    def run_cli(self, *argv):
        return main(list(argv))

    def test_allocate_roundtrip(self, tmp_path, capsys):
        scores = tmp_path / "scores.jsonl"
        scores.write_text(
            '{"id": "q1", "score": 0.05}\n{"id": "q2", "score": 0.4}\n{"id": "q3", "p": 0.2}\n'
        )
        out = tmp_path / "alloc.jsonl"
        rc = self.run_cli(
            "allocate", "--scores", str(scores), "--n", "4", "--temperature", "0.2",
            "--out", str(out),
        )
        assert rc == 0
        rows = [json.loads(line) for line in out.read_text().splitlines()]
        assert sum(r["extra_samples"] for r in rows) == 9
        assert {r["id"] for r in rows} == {"q1", "q2", "q3"}
        err = capsys.readouterr().err
        assert "kkt_satisfied=True" in err

    def test_allocate_needs_budget(self, tmp_path):
        scores = tmp_path / "scores.jsonl"
        scores.write_text('{"id": "q1", "score": 0.3}\n')
        assert self.run_cli("allocate", "--scores", str(scores)) == 2

    def test_run_simulated(self, tmp_path, capsys):
        out = tmp_path / "results"
        rc = self.run_cli(
            "run", "--backend", "sim", "--n", "3", "--policy", "uab",
            "--seed", "0", "--seed", "1", "--out", str(out),
        )
        assert rc == 0
        # default world size is 200 questions
        assert (out / "uab_seed0.jsonl").exists()
        assert (out / "uab_seed1.jsonl").exists()
        assert (out / "aggregate.csv").exists()
        assert "policy=uab" in capsys.readouterr().out

    def test_run_with_config_file(self, tmp_path, capsys, monkeypatch):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(
            "world.m_questions = 30\nbudget.n = 2\nrun.seeds = 4\n"
            f"run.out = {tmp_path / 'cfg_out'}\n"
        )
        monkeypatch.setenv("UAB_BUDGET_N", "3")  # env overrides file
        rc = self.run_cli("run", "--config", str(cfg))
        assert rc == 0
        out = capsys.readouterr().out
        assert "N=3" in out
        assert (tmp_path / "cfg_out" / "uab_seed4.jsonl").exists()

    def test_simulate_compares_policies(self, tmp_path, capsys):
        out = tmp_path / "sim"
        rc = self.run_cli(
            "simulate", "--policies", "uab,uniform", "--n", "4", "--seed", "0",
            "--out", str(out),
        )
        assert rc == 0
        with open(out / "aggregate.csv") as fh:
            rows = list(csv.DictReader(fh))
        assert [r["policy"] for r in rows] == ["uab", "uniform"]

    def test_invert(self, tmp_path, capsys):
        points = tmp_path / "points.csv"
        points.write_text("n,accuracy\n1,40\n2,44\n4,48\n8,50\n")
        rc = self.run_cli("invert", "--points", str(points), "--targets", "44,60")
        assert rc == 0
        out = capsys.readouterr().out.splitlines()
        assert out[0] == "target,min_n"
        assert out[1] == "44.0,2.000000"
        assert out[2] == "60.0,"

    def test_verify_exit_code(self, capsys):
        assert self.run_cli("verify", "--seed", "3") == 0
        assert "all checks passed" in capsys.readouterr().out

    def test_judge_simulated(self, tmp_path):
        out = tmp_path / "labels.jsonl"
        cfg = tmp_path / "judge.cfg"
        cfg.write_text("world.m_questions = 6\nworld.prob_law = two_point:0.1,0.9,0.5\n")
        rc = self.run_cli("judge", "--config", str(cfg), "--backend", "sim", "--out", str(out))
        assert rc == 0
        rows = [json.loads(line) for line in out.read_text().splitlines()]
        assert len(rows) == 6
        assert set(r["label"] for r in rows) <= {"easy", "hard"}

    @pytest.mark.parametrize("env, argv", [
        ({"UAB_EXIT_KIND": "bogus"}, []),
        ({"UAB_PIPELINE_POLICY": "nope"}, []),
        ({"UAB_PIPELINE_K": "two"}, []),
        ({"UAB_WORLD_PROB_LAW": "beta:x,2"}, []),
        ({"UAB_PIPELINE_SIGNAL": "external"}, []),
        ({}, ["--signal", "bogus"]),
    ])
    def test_config_errors_exit_2_with_an_error_line(self, tmp_path, capsys, monkeypatch, env, argv):
        for name, value in env.items():
            monkeypatch.setenv(name, value)
        try:
            rc = self.run_cli("run", "--backend", "sim", "--out", str(tmp_path / "out"), *argv)
        except SystemExit as exc:  # argparse exits by itself
            rc = exc.code
        assert rc == 2
        assert "error:" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_cli_flag_overrides_env(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("UAB_BUDGET_N", "2")
        out = tmp_path / "flags"
        rc = self.run_cli(
            "run", "--backend", "sim", "--n", "5", "--seed", "0", "--out", str(out),
        )
        assert rc == 0
        assert "N=5" in capsys.readouterr().out
