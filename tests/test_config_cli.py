import csv
import json
from pathlib import Path

import pytest

from uab.backends import BetaLaw, FixedProbs, TwoPointLaw
from uab.config import (
    DEFAULTS,
    build_experiment_config,
    env_overrides,
    load_questions_jsonl,
    merge_settings,
    parse_config_text,
    parse_prob_law,
    parse_seed_list,
)
from uab.allocation import ThresholdExitConfig, apply_threshold_exits
from uab.cli import _cli_overrides, build_parser, main
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

    def test_unknown_variable_of_a_config_section_is_an_error(self):
        with pytest.raises(ValidationError, match="environment variable UAB_BUDGET_NN: unknown config key 'budget.nn'"):
            env_overrides({"UAB_BUDGET_N": "6", "UAB_BUDGET_NN": "5"})

    def test_unknown_key_is_an_error_only_against_known_keys(self):
        assert parse_config_text("budget.nn = 9\n") == {"budget.nn": "9"}
        with pytest.raises(ValidationError, match="config line 2: unknown key 'budget.nn'"):
            parse_config_text("budget.n = 4\nbudget.nn = 9\n", DEFAULTS)

    def test_readme_config_block_is_the_defaults(self):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
        block = readme.split("## Configuration", 1)[1].split("```ini\n", 1)[1].split("```", 1)[0]
        assert parse_config_text(block) == DEFAULTS

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
        environ = {"UAB_HTTP_BASE_URL": "http://x", "UAB_HTTP_MODEL": "m", "UAB_API_KEY": "secret"}
        experiment = build_experiment_config(merge_settings(cfg, env_overrides(environ)), environ)
        assert experiment.http.api_key == "secret"
        assert experiment.pipeline.budget.m_questions == 1

    def test_endpoint_env_names_follow_the_section_rule_only(self, tmp_path):
        qfile = tmp_path / "questions.jsonl"
        qfile.write_text('{"id": "a", "prompt": "p?"}\n')
        file_cfg = {"http.base_url": "http://from-file", "http.model": "file-model"}
        cli_cfg = {"backend.kind": "http", "run.questions": str(qfile)}

        def endpoint(environ):
            cfg = merge_settings(file_cfg, env_overrides(environ), cli_cfg)
            http = build_experiment_config(cfg, environ).http
            return http.base_url, http.model

        assert endpoint({"UAB_HTTP_BASE_URL": "http://from-env", "UAB_HTTP_MODEL": "env-model"}) == (
            "http://from-env", "env-model"
        )
        # the old aliases are not read: the file's values stand
        assert endpoint({"UAB_API_BASE": "http://from-env", "UAB_MODEL": "env-model"}) == (
            "http://from-file", "file-model"
        )
        environ = {"UAB_API_BASE": "http://from-env", "UAB_MODEL": "env-model"}
        with pytest.raises(ValidationError, match="needs http.base_url"):
            build_experiment_config(merge_settings(None, env_overrides(environ), cli_cfg), environ)

    def test_load_questions_jsonl(self, tmp_path):
        path = tmp_path / "q.jsonl"
        path.write_text(
            '{"id": "a", "prompt": "one?", "gold_answer": "1"}\n'
            '{"id": "b", "prompt": "pick", "task_kind": "multiple_choice"}\n'
        )
        questions = load_questions_jsonl(path)
        assert [q.id for q in questions] == ["a", "b"]
        assert questions[0].gold_answer == "1"
        numbers = tmp_path / "numbers.jsonl"
        numbers.write_text(
            '{"id": "a", "prompt": "p?", "gold_answer": 4}\n{"id": "b", "prompt": "q?", "gold_answer": 2.5}\n'
        )
        assert [q.gold_answer for q in load_questions_jsonl(numbers)] == ["4", "2.5"]
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

    def test_unknown_config_file_key_exits_2_naming_it(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("world.m_questions = 5\nbudget.nn = 9\n")
        rc = self.run_cli("run", "--config", str(cfg), "--out", str(tmp_path / "out"))
        assert rc == 2
        assert capsys.readouterr().err == f"error: {cfg}: config line 2: unknown key 'budget.nn'\n"
        assert not (tmp_path / "out").exists()

    def test_unknown_config_variable_exits_2_naming_it(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("UAB_BUDGET_NN", "5")
        # a variable of no config section is not read as config
        monkeypatch.setenv("UAB_API_KEY", "secret")
        rc = self.run_cli("simulate", "--seed", "0", "--out", str(tmp_path / "out"))
        assert rc == 2
        assert capsys.readouterr().err == (
            "error: environment variable UAB_BUDGET_NN: unknown config key 'budget.nn'\n"
        )
        assert not (tmp_path / "out").exists()
        monkeypatch.delenv("UAB_BUDGET_NN")
        assert self.run_cli("simulate", "--seed", "0", "--out", str(tmp_path / "out")) == 0

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

    @pytest.mark.parametrize("argv, message", [
        (["--policies", "uab,bogus"], "pipeline.policy"),
        (["--signal", "vote_entropy", "--policies", "uab,uniform"], "policy uniform requires K = 1"),
        (["--policies", ","], "--policies"),
        (["--exit", "easy", "--policies", "uab,uniform"], "policy uniform takes no threshold exit"),
    ], ids=["unknown_policy", "policy_rejects_config", "no_policy", "comparison_policy_exit"])
    def test_simulate_rejects_every_policy_before_any_run(self, tmp_path, capsys, argv, message):
        out = tmp_path / "sim"
        rc = self.run_cli("simulate", "--n", "4", "--seed", "0", "--out", str(out), *argv)
        assert rc == 2
        captured = capsys.readouterr()
        assert "error: " in captured.err and message in captured.err
        assert "aggregate rows" not in captured.out
        assert not out.exists()

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
        ({"UAB_WORLD_PROB_LAW": "beta:-1,2", "UAB_WORLD_M_QUESTIONS": "2"}, []),
        ({"UAB_WORLD_PROB_LAW": "beta:nan,2", "UAB_WORLD_M_QUESTIONS": "2"}, []),
        ({"UAB_WORLD_PROB_LAW": "fixed:0.5,nan", "UAB_WORLD_M_QUESTIONS": "2"}, []),
        ({"UAB_PIPELINE_SIGNAL": "external"}, []),
        ({}, ["--signal", "bogus"]),
        ({"UAB_PIPELINE_SAMPLING_TEMPERATURE": "nan"}, []),
        ({"UAB_PIPELINE_MAX_TOKENS": "0"}, []),
        ({"UAB_PIPELINE_SIGNAL": "length"}, []),
        ({}, ["--signal", "length"]),
        ({"UAB_PIPELINE_POLICY": "uniform"}, ["--exit", "easy", "--theta", "0.5", "--exit-mode", "skip"]),
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

    @pytest.mark.parametrize("rows, bad_line", [
        (['{"id": "a", "prompt": "p?", "gold_answer": true}'], 1),
        (['{"id": "a", "prompt": "p?"}', '{"id": "b", "prompt": "q?"}', '{"id": "a", "prompt": "r?"}'], 3),
        (['{"id": "a", "prompt": "p?"}', '["b", "q?"]'], 2),
        (['{"id": null, "prompt": "p?"}'], 1),
        (['{"id": "a", "prompt": "p?"}', '{"id": ["x"], "prompt": "q?"}'], 2),
        (['{"id": true, "prompt": "p?"}'], 1),
        (['{"id": 1.5, "prompt": "p?"}'], 1),
        (['{"id": "a", "prompt": null}'], 1),
        (['{"id": "a", "prompt": {"a": 1}}'], 1),
    ], ids=["bool_gold_answer", "duplicate_id", "array_row", "null_id", "array_id", "bool_id", "float_id",
            "null_prompt", "object_prompt"])
    def test_bad_questions_file_exits_2_naming_the_line(self, tmp_path, capsys, monkeypatch, rows, bad_line):
        questions = tmp_path / "questions.jsonl"
        questions.write_text("".join(row + "\n" for row in rows))
        # an endpoint is named, so only the questions file can stop the run
        monkeypatch.setenv("UAB_HTTP_BASE_URL", "http://127.0.0.1:9")
        monkeypatch.setenv("UAB_HTTP_MODEL", "m")
        rc = self.run_cli(
            "run", "--backend", "http", "--questions", str(questions), "--out", str(tmp_path / "out"),
        )
        assert rc == 2
        assert f"error: {questions}:{bad_line}: " in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("rows, bad_line", [
        (['{"id": "q1", "p": 0.2}', '{"id": "q2", "p": 0.3'], 2),
        (['{"p": 0.2}'], 1),
        (['{"id": "q1", "p": "high"}'], 1),
        (['{"id": "q1", "score": [0.1]}'], 1),
        (['{"id": "q1", "p": 0.2}', '{"id": "q2", "p": 0.4}', '{"id": "q1", "p": 0.6}'], 3),
        (['{"id": null, "p": 0.2}'], 1),
        (['{"id": "q1", "p": 0.2}', '{"id": ["x"], "p": 0.2}'], 2),
        (['{"id": false, "p": 0.2}'], 1),
        (['{"id": "q1", "p": 0.2}', '{"id": "q2", "p": 1.5}'], 2),
        (['{"id": "q1", "p": -0.5}'], 1),
        (['{"id": "q1", "p": NaN}'], 1),
        (['{"id": "q1", "score": 0.2}', '{"id": "q2", "score": NaN}'], 2),
        (['{"id": "q1", "score": -1}'], 1),
        (['{"id": "q1", "score": Infinity}'], 1),
    ], ids=["not_json", "missing_id", "p_not_a_number", "score_not_a_number", "duplicate_id", "null_id", "array_id",
            "bool_id", "p_above_one", "p_negative", "p_nan", "score_nan", "score_negative", "score_infinite"])
    def test_bad_scores_file_exits_2_naming_the_line(self, tmp_path, capsys, rows, bad_line):
        scores = tmp_path / "scores.jsonl"
        scores.write_text("".join(row + "\n" for row in rows))
        rc = self.run_cli("allocate", "--scores", str(scores), "--n", "3", "--out", str(tmp_path / "alloc.jsonl"))
        assert rc == 2
        assert f"error: {scores}:{bad_line}: " in capsys.readouterr().err
        assert not (tmp_path / "alloc.jsonl").exists()

    def test_integer_ids_read_as_decimal_strings(self, tmp_path):
        questions = tmp_path / "questions.jsonl"
        questions.write_text('{"id": 7, "prompt": "p?"}\n{"id": "7a", "prompt": "q?"}\n')
        assert [q.id for q in load_questions_jsonl(questions)] == ["7", "7a"]
        scores = tmp_path / "scores.jsonl"
        scores.write_text('{"id": 12, "p": 0.5}\n{"id": "b", "score": 0}\n')
        out = tmp_path / "alloc.jsonl"
        assert self.run_cli("allocate", "--scores", str(scores), "--n", "2", "--out", str(out)) == 0
        assert [json.loads(line)["id"] for line in out.read_text().splitlines()] == ["12", "b"]

    @pytest.mark.parametrize("points_csv, targets, message", [
        ("n,acc\n1,40\n2\n4,48\n", "44", "points.csv:3: "),
        ("n,acc\n1,40\n2,oops\n4,48\n", "44", "points.csv:3: "),
        ("1,40\nn,acc\n4,48\n", "44", "points.csv:2: "),
        ("n,acc\n1,40\n4,48\n", "44,high", "--targets: "),
    ], ids=["one_cell_row", "unparsable_row", "header_after_first_row", "target_not_a_number"])
    def test_bad_invert_input_exits_2(self, tmp_path, capsys, points_csv, targets, message):
        points = tmp_path / "points.csv"
        points.write_text(points_csv)
        rc = self.run_cli("invert", "--points", str(points), "--targets", targets)
        assert rc == 2
        captured = capsys.readouterr()
        assert message in captured.err and captured.err.startswith("error: ")
        assert captured.out == ""

    def test_cli_flag_overrides_env(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("UAB_BUDGET_N", "2")
        out = tmp_path / "flags"
        rc = self.run_cli(
            "run", "--backend", "sim", "--n", "5", "--seed", "0", "--out", str(out),
        )
        assert rc == 0
        assert "N=5" in capsys.readouterr().out

    @pytest.mark.parametrize("argv, settings", [
        (["run", "--seed", "3", "--seed", "4", "--policy", "uniform", "--signal", "vcs", "--out", "o",
          "--n", "5", "--temperature", "0.3", "--exit", "easy", "--theta", "0.4", "--exit-mode", "skip",
          "--backend", "http", "--questions", "q.jsonl"],
         {"run.seeds": "3,4", "pipeline.policy": "uniform", "pipeline.signal": "vcs", "run.out": "o",
          "budget.n": "5", "budget.temperature": "0.3", "exit.kind": "easy", "exit.theta": "0.4",
          "exit.mode": "skip", "backend.kind": "http", "run.questions": "q.jsonl"}),
        (["simulate", "--seed", "7", "--n", "2", "--exit", "hard"],
         {"run.seeds": "7", "budget.n": "2", "exit.kind": "hard"}),
        (["allocate", "--scores", "s.jsonl", "--n", "3", "--temperature", "0.5", "--exit", "easy",
          "--theta", "0.7", "--exit-mode", "skip", "--out", "a.jsonl"],
         {"budget.n": "3", "budget.temperature": "0.5", "exit.kind": "easy", "exit.theta": "0.7",
          "exit.mode": "skip"}),
        (["judge", "--backend", "http", "--questions", "q.jsonl", "--out", "l.jsonl"],
         {"backend.kind": "http", "run.questions": "q.jsonl"}),
        (["run"], {}),
    ], ids=["run", "simulate", "allocate", "judge", "no_flags"])
    def test_every_flag_lands_on_its_config_key(self, argv, settings):
        assert _cli_overrides(build_parser().parse_args(argv)) == settings

    def test_allocate_without_exit_flags_uses_the_default_exit_config(self, tmp_path):
        probs = {"a": 0.1, "b": 0.5, "c": 0.9, "d": 0.97}
        scores = tmp_path / "scores.jsonl"
        scores.write_text("".join(json.dumps({"id": qid, "p": p}) + "\n" for qid, p in probs.items()))
        out = tmp_path / "alloc.jsonl"
        assert self.run_cli("allocate", "--scores", str(scores), "--n", "3", "--out", str(out)) == 0
        _, alloc, _ = apply_threshold_exits(probs, 8, ThresholdExitConfig())
        rows = [json.loads(line) for line in out.read_text().splitlines()]
        assert {r["id"]: r["extra_samples"] for r in rows} == dict(alloc.extras)

    def test_simulate_takes_no_policy(self, tmp_path, capsys):
        out = tmp_path / "sim"
        with pytest.raises(SystemExit) as exc:
            self.run_cli("simulate", "--policy", "uniform", "--out", str(out))
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert "--policy" in captured.err
        assert captured.out == ""
        assert not out.exists()

    def test_unwritable_out_file_exits_2_naming_the_path(self, tmp_path, capsys):
        scores = tmp_path / "scores.jsonl"
        scores.write_text('{"id": "q1", "p": 0.2}\n{"id": "q2", "p": 0.6}\n')
        rc = self.run_cli("allocate", "--scores", str(scores), "--budget-effective", "4",
                          "--out", str(tmp_path))
        assert rc == 2
        assert capsys.readouterr() == ("", f"error: {tmp_path}: not a writable file\n")

    @pytest.mark.parametrize("argv", [["run"], ["simulate", "--policies", "uniform"]], ids=["run", "simulate"])
    def test_out_dir_that_is_a_file_exits_2_naming_the_path(self, tmp_path, capsys, monkeypatch, argv):
        out = tmp_path / "results"
        out.write_text("not a directory\n")
        monkeypatch.setenv("UAB_WORLD_M_QUESTIONS", "20")
        assert self.run_cli(*argv, "--out", str(out)) == 2
        captured = capsys.readouterr()
        assert captured.err == f"error: {out}: not a writable directory\n"
        assert captured.out == ""
        assert out.read_text() == "not a directory\n"

    @pytest.mark.parametrize("command", ["run", "judge"])
    @pytest.mark.parametrize("under", [False, True], ids=["file", "under_a_file"])
    def test_cache_dir_that_is_a_file_exits_2_naming_the_path(self, tmp_path, capsys, monkeypatch, command, under):
        questions = tmp_path / "questions.jsonl"
        questions.write_text('{"id": "a", "prompt": "p?"}\n')
        blocker = tmp_path / "cache"
        blocker.write_text("not a directory\n")
        cache = blocker / "sub" if under else blocker
        monkeypatch.setenv("UAB_HTTP_BASE_URL", "http://127.0.0.1:9")
        monkeypatch.setenv("UAB_HTTP_MODEL", "m")
        monkeypatch.setenv("UAB_HTTP_CACHE_DIR", str(cache))
        out = tmp_path / ("out" if command == "run" else "labels.jsonl")
        rc = self.run_cli(command, "--backend", "http", "--questions", str(questions), "--out", str(out))
        assert rc == 2
        assert capsys.readouterr() == ("", f"error: {cache}: not a writable directory\n")
        assert blocker.read_text() == "not a directory\n"
        assert not out.exists()

    @pytest.mark.parametrize("temperature", ["-1", "0", "nan"])
    def test_bad_allocate_temperature_exits_2_over_p_rows(self, tmp_path, capsys, temperature):
        scores = tmp_path / "scores.jsonl"
        scores.write_text('{"id": "q1", "p": 0.2}\n{"id": "q2", "p": 0.6}\n')
        rc = self.run_cli("allocate", "--scores", str(scores), "--budget-effective", "4",
                          "--temperature", temperature)
        assert rc == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error: temperature must be > 0")
        assert captured.out == ""

    def test_simulate_takes_no_backend(self, tmp_path, capsys, monkeypatch):
        out = tmp_path / "sim"
        with pytest.raises(SystemExit) as exc:
            self.run_cli("simulate", "--backend", "http", "--policies", "uniform", "--out", str(out))
        assert exc.value.code == 2
        monkeypatch.setenv("UAB_BACKEND_KIND", "http")
        monkeypatch.setenv("UAB_WORLD_M_QUESTIONS", "20")
        assert self.run_cli("simulate", "--policies", "uniform", "--out", str(out)) == 2
        captured = capsys.readouterr()
        assert "error: " in captured.err and "backend.kind" in captured.err
        assert captured.out == ""
        assert not out.exists()

    @pytest.mark.parametrize("argv", [
        ["run", "--config", "{path}"],
        ["run", "--backend", "http", "--questions", "{path}"],
        ["allocate", "--scores", "{path}", "--n", "2"],
        ["invert", "--points", "{path}", "--targets", "44"],
        ["judge", "--config", "{dir}"],
        ["allocate", "--scores", "{dir}", "--n", "2"],
        ["invert", "--points", "{latin1}", "--targets", "44"],
    ], ids=["config", "questions", "scores", "points", "config_is_a_directory", "scores_is_a_directory",
            "points_not_utf8"])
    def test_missing_or_unreadable_input_exits_2_naming_the_path(self, tmp_path, capsys, argv):
        latin1 = tmp_path / "latin1.csv"
        latin1.write_bytes("n,précision\n1,40\n".encode("latin-1"))
        path = {"{path}": str(tmp_path / "missing"), "{dir}": str(tmp_path), "{latin1}": str(latin1)}
        argv = [path.get(arg, arg) for arg in argv]
        named = next(arg for arg in argv if arg.startswith(str(tmp_path)))
        rc = self.run_cli(*argv, "--out", str(tmp_path / "out"))
        assert rc == 2
        captured = capsys.readouterr()
        assert captured.err.startswith(f"error: {named}: ")
        assert captured.out == ""
        assert not (tmp_path / "out").exists()
