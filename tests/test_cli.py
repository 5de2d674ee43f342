import contextlib
import io
import json
import os
import re
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from treekt import default_parameters, load_tree, serialize_tree
from treekt import cli
from treekt.cli import main
from treekt.evaluate import ExperimentConfig, csv_lines, run_experiment
from treekt.inference import HEAP_TOP_PAD
from treekt.online import burn_in_fit, load_stream, prediction_lines, serialize_stream
from treekt.simulate import (
    SimConfig,
    generate_classroom,
    random_question_bank,
    random_tree,
)

from conftest import DATA_DIR


TREE_DOC = json.dumps({
    "nodes": [
        {"id": "root", "label": "root"},
        {"id": "a", "label": "a", "parent": "root"},
        {"id": "b", "label": "b", "parent": "root"},
    ]
})


@pytest.fixture
def tree_file(tmp_path):
    path = tmp_path / "tree.json"
    path.write_text(TREE_DOC)
    return str(path)


def simulate_into(tmp_path, extra=()):
    out = tmp_path / "sim"
    code = main([
        "simulate", "--nodes", "6", "--students", "6",
        "--interactions", "10", "--seed", "5", "--out", str(out), *extra,
    ])
    assert code == 0
    return out


def child_env() -> dict:
    """The environment of a child Python that imports this checkout's treekt."""
    src = str(Path(cli.__file__).resolve().parents[1])
    return {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}


class TestValidateTree:
    def test_valid_file(self, tree_file, capsys):
        assert main(["validate-tree", "--tree", tree_file]) == 0
        assert "valid" in capsys.readouterr().out

    def test_structural_violation_exits_one(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"nodes": [
            {"id": "a", "label": "a", "parent": "b"},
            {"id": "b", "label": "b", "parent": "a"},
        ]}))
        assert main(["validate-tree", "--tree", str(path)]) == 1
        assert "violation" in capsys.readouterr().out

    def test_missing_file_exits_two(self, tmp_path):
        assert main(["validate-tree", "--tree", str(tmp_path / "nope.json")]) == 2

    def test_unparseable_file_exits_two(self, tmp_path):
        path = tmp_path / "garbage.json"
        path.write_text("{{{")
        assert main(["validate-tree", "--tree", str(path)]) == 2

    def test_bytes_that_are_not_utf8_exit_two(self, tmp_path, capsys):
        path = tmp_path / "tree.json"
        path.write_bytes(TREE_DOC.encode() + b"\n\xff")
        assert main(["validate-tree", "--tree", str(path)]) == 2
        assert capsys.readouterr().err.startswith(f"error: {path}: line 2: ")

    def test_bundled_example(self):
        assert main([
            "validate-tree", "--tree", str(DATA_DIR / "counting_module.json")
        ]) == 0


class TestSimulate:
    def test_writes_all_artifacts(self, tmp_path):
        out = simulate_into(tmp_path)
        for name in ["tree.json", "questions.jsonl", "stream.jsonl",
                     "theta_star.json", "ground_truth.json"]:
            assert (out / name).exists(), name

    def test_seed_reproducibility_byte_identical(self, tmp_path):
        a = simulate_into(tmp_path / "a")
        b = simulate_into(tmp_path / "b")
        for name in ["tree.json", "questions.jsonl", "stream.jsonl",
                     "theta_star.json", "ground_truth.json"]:
            assert (a / name).read_bytes() == (b / name).read_bytes(), name

    def test_explicit_tree_is_used(self, tmp_path, tree_file):
        out = tmp_path / "sim"
        assert main([
            "simulate", "--tree", tree_file, "--students", "4",
            "--interactions", "6", "--seed", "1", "--out", str(out),
        ]) == 0
        written = json.loads((out / "tree.json").read_text())
        assert {n["id"] for n in written["nodes"]} == {"root", "a", "b"}

    @pytest.mark.parametrize("flag, value, least", [
        ("--students", "-1", 0), ("--interactions", "-2", 0), ("--nodes", "0", 1),
        ("--questions-per-leaf", "0", 1),
    ])
    def test_bound_it_cannot_honour_exits_one_naming_the_flag(
            self, tmp_path, capsys, flag, value, least):
        out = tmp_path / "sim"
        assert main(["simulate", flag, value, "--seed", "0", "--out", str(out)]) == 1
        captured = capsys.readouterr()
        assert captured.err == f"error: {flag} {value}: must be at least {least}\n"
        assert captured.out == ""
        assert not out.exists()

    def test_failed_write_leaves_out_as_it_was(self, tmp_path, monkeypatch, capsys):
        # The five files land all or none: old files keep their bytes, and
        # no temporary file stays.
        out = tmp_path / "sim"
        out.mkdir()
        old = {name: f"old {name}\n".encode() for name in
               ("tree.json", "stream.jsonl", "ground_truth.json", "notes.txt")}
        for name, data in old.items():
            (out / name).write_bytes(data)
        monkeypatch.setattr(cli, "_write", failing_write(3))
        assert main(["simulate", "--nodes", "6", "--students", "6", "--interactions", "10",
                     "--seed", "5", "--out", str(out)]) == 2
        assert "disk full" in capsys.readouterr().err
        assert {path.name: path.read_bytes() for path in out.iterdir()} == old


def failing_write(fail_at):
    """cli._write that writes part of its fail_at-th file, then raises
    OSError."""
    real, calls = cli._write, []

    def write(path, text):
        calls.append(path)
        if len(calls) == fail_at:
            path.write_text("part")
            raise OSError("disk full")
        real(path, text)

    return write


class TestOutputDirectory:
    @pytest.mark.parametrize("command", ["simulate", "fit", "eval"])
    def test_failed_write_removes_the_out_it_made(self, tmp_path, monkeypatch, capsys,
                                                  command):
        sim = simulate_into(tmp_path)
        out = tmp_path / "new" / "out"
        args = {"simulate": ["--nodes", "6", "--students", "6", "--interactions", "10"],
                "fit": ["--tree", str(sim / "tree.json"), "--stream", str(sim / "stream.jsonl")],
                "eval": ["--tree", str(sim / "tree.json"), "--stream", str(sim / "stream.jsonl"),
                         "--burn-in", "4"]}[command]
        files = {"simulate": 5, "fit": 2, "eval": 3}[command]
        monkeypatch.setattr(cli, "_write", failing_write(files))
        assert main([command, *args, "--out", str(out)]) == 2
        assert "disk full" in capsys.readouterr().err
        assert not (tmp_path / "new").exists()
        monkeypatch.undo()
        assert main([command, *args, "--out", str(out)]) == 0
        assert len([*out.iterdir()]) == files


class TestFitAndEval:
    def test_fit_writes_params_and_report(self, tmp_path, capsys):
        sim = simulate_into(tmp_path)
        out = tmp_path / "fit"
        code = main([
            "fit", "--tree", str(sim / "tree.json"),
            "--stream", str(sim / "stream.jsonl"),
            "--out", str(out), "--max-iters", "15",
        ])
        assert code == 0
        params = json.loads((out / "params.json").read_text())
        assert set(params) == {"gamma", "r_easy", "r_med", "r_hard", "epsilon"}
        report = json.loads((out / "fit_report.json").read_text())
        trace = report["log_likelihood_trace"]
        assert all(b >= a - 1e-9 for a, b in zip(trace, trace[1:]))
        assert "iterations" in capsys.readouterr().out

    def test_empty_stream_exits_one(self, tmp_path, tree_file):
        stream = tmp_path / "empty.jsonl"
        stream.write_text("")
        assert main([
            "fit", "--tree", tree_file, "--stream", str(stream),
            "--out", str(tmp_path / "out"),
        ]) == 1

    def test_eval_writes_metrics_and_predictions(self, tmp_path, capsys):
        sim = simulate_into(tmp_path)
        out = tmp_path / "eval"
        code = main([
            "eval", "--tree", str(sim / "tree.json"),
            "--stream", str(sim / "stream.jsonl"),
            "--out", str(out), "--burn-in", "4", "--tol", "1e-4",
        ])
        assert code == 0
        metrics = json.loads((out / "metrics.json").read_text())
        assert 0.0 <= metrics["auc"] <= 1.0
        assert (out / "predictions.jsonl").exists()
        assert (out / "predictions.csv").exists()
        assert "AUC" in capsys.readouterr().out

    def test_eval_files_equal_the_joined_serializers(self, tmp_path):
        sim = simulate_into(tmp_path)
        out = tmp_path / "eval"
        assert main(["eval", "--tree", str(sim / "tree.json"),
                     "--stream", str(sim / "stream.jsonl"),
                     "--out", str(out), "--burn-in", "4", "--tol", "1e-4"]) == 0
        tree = load_tree(str(sim / "tree.json"))
        records = run_experiment(tree, load_stream(str(sim / "stream.jsonl"), tree),
                                 ExperimentConfig(burn_in_count=4, em_tol=1e-4)).records
        assert (out / "predictions.jsonl").read_bytes() == \
            "".join(prediction_lines(records)).encode()
        assert (out / "predictions.csv").read_bytes() == "".join(csv_lines(records)).encode()

    def test_failed_write_leaves_out_as_it_was(self, tmp_path, monkeypatch, capsys):
        sim = simulate_into(tmp_path)
        out = tmp_path / "eval"
        out.mkdir()
        old = {name: f"old {name}\n".encode() for name in
               ("metrics.json", "predictions.jsonl", "predictions.csv", "notes.txt")}
        for name, data in old.items():
            (out / name).write_bytes(data)

        def csv_lines_that_fail(records):
            lines = csv_lines(records)
            yield next(lines)
            yield next(lines)
            raise OSError("disk full")

        monkeypatch.setattr(cli, "csv_lines", csv_lines_that_fail)
        assert main(["eval", "--tree", str(sim / "tree.json"),
                     "--stream", str(sim / "stream.jsonl"),
                     "--out", str(out), "--burn-in", "4", "--tol", "1e-4"]) == 2
        assert "disk full" in capsys.readouterr().err
        assert {path.name: path.read_bytes() for path in out.iterdir()} == old

    def test_fit_files_equal_burn_in_fit_over_interactions(self, tmp_path):
        sim = simulate_into(tmp_path)
        out = tmp_path / "fit"
        assert main(["fit", "--tree", str(sim / "tree.json"),
                     "--stream", str(sim / "stream.jsonl"),
                     "--out", str(out), "--max-iters", "15"]) == 0
        tree = load_tree(str(sim / "tree.json"))
        histories: dict[str, list] = {}
        for rec in load_stream(str(sim / "stream.jsonl"), tree):
            histories.setdefault(rec.student_id, []).append(rec.interaction())
        report = burn_in_fit(tree, histories, max_iters=15, tol=1e-6).fit_report
        assert (out / "params.json").read_bytes() == report.params.to_json().encode()
        assert (out / "fit_report.json").read_bytes() == report.to_json().encode()

    @pytest.mark.parametrize("command", ["fit", "eval"])
    @pytest.mark.parametrize("bad", ["stream", "tree"])
    def test_bytes_that_are_not_utf8_exit_two(self, tmp_path, capsys, command, bad):
        sim = simulate_into(tmp_path)
        files = {"tree": sim / "tree.json", "stream": sim / "stream.jsonl"}
        data = files[bad].read_bytes()
        at = data.index(b"\n", data.index(b"\n") + 1) + 3  # on line 3
        path = tmp_path / f"bad_{files[bad].name}"
        path.write_bytes(data[:at] + b"\xff" + data[at:])
        files[bad] = path
        code = main([command, "--tree", str(files["tree"]),
                     "--stream", str(files["stream"]), "--out", str(tmp_path / "out")])
        err = capsys.readouterr().err
        assert code == 2
        where = f"{path}:3: " if bad == "stream" else f"{path}: line 3: "
        assert err.startswith(f"error: {where}not UTF-8 text"), err
        assert "Traceback" not in err

    @pytest.mark.parametrize("command", ["fit", "eval"])
    @pytest.mark.parametrize("difficulty", [None, "weird"])
    def test_bad_stream_record_exits_two(self, tmp_path, capsys, command,
                                         difficulty):
        sim = simulate_into(tmp_path)
        lines = (sim / "stream.jsonl").read_text().splitlines()
        record = json.loads(lines[2])
        if difficulty is None:
            del record["difficulty"]
        else:
            record["difficulty"] = difficulty
        lines[2] = json.dumps(record)
        stream = tmp_path / "bad.jsonl"
        stream.write_text("\n".join(lines) + "\n")
        code = main([
            command, "--tree", str(sim / "tree.json"), "--stream", str(stream),
            "--out", str(tmp_path / "out"),
        ])
        err = capsys.readouterr().err
        assert code == 2
        assert f"{stream}:3:" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("command, bad", [
        ("fit", "stream"), ("fit", "tree"), ("validate-tree", "tree")])
    def test_deeply_nested_json_exits_two(self, tmp_path, capsys, command, bad):
        # json gives up on 100 000 nested brackets with a RecursionError.
        sim = simulate_into(tmp_path)
        files = {"tree": sim / "tree.json", "stream": sim / "stream.jsonl"}
        lines = files[bad].read_text().splitlines()
        lines[2] = "[" * 100_000
        path = tmp_path / f"deep_{files[bad].name}"
        path.write_text("\n".join(lines) + "\n")
        files[bad] = path
        args = [command, "--tree", str(files["tree"])]
        if command == "fit":
            args += ["--stream", str(files["stream"]), "--out", str(tmp_path / "out")]
        code = main(args)
        captured = capsys.readouterr()
        assert code == 2
        where = (f"{path}:3: bad stream record on line 3: " if bad == "stream"
                 else f"{path}: malformed tree document: too deep on line 3")
        assert captured.err.startswith(f"error: {where}"), captured.err
        assert "violation" not in captured.out
        assert "Traceback" not in captured.err

    def test_eval_deterministic_across_thread_counts(self, tmp_path):
        sim = simulate_into(tmp_path)
        outputs = []
        for threads, sub in [("1", "t1"), ("4", "t4")]:
            out = tmp_path / sub
            assert main([
                "eval", "--tree", str(sim / "tree.json"),
                "--stream", str(sim / "stream.jsonl"),
                "--out", str(out), "--burn-in", "4", "--tol", "1e-4",
                "--threads", threads,
            ]) == 0
            outputs.append({
                name: (out / name).read_bytes()
                for name in ["metrics.json", "predictions.jsonl",
                             "predictions.csv"]
            })
        assert outputs[0] == outputs[1]

    def test_eval_deterministic_across_blas_threads(self, tmp_path):
        # The E-step's contractions go through BLAS, whose thread count
        # must not move a byte of the outputs.
        sim = tmp_path / "sim"
        assert main(["simulate", "--nodes", "20", "--students", "100",
                     "--interactions", "13", "--seed", "3", "--out", str(sim)]) == 0
        outputs = []
        for threads in ("1", "2"):
            out = tmp_path / f"blas{threads}"
            env = {**child_env(), "OPENBLAS_NUM_THREADS": threads}
            done = subprocess.run(
                [sys.executable, "-m", "treekt.cli", "eval",
                 "--tree", str(sim / "tree.json"), "--stream", str(sim / "stream.jsonl"),
                 "--out", str(out), "--burn-in", "10"],
                env=env, capture_output=True, text=True, timeout=120)
            assert done.returncode == 0, done.stderr
            outputs.append({
                name: (out / name).read_bytes()
                for name in ["metrics.json", "predictions.jsonl",
                             "predictions.csv"]
            })
        assert outputs[0] == outputs[1]


class TestOracleCheck:
    def test_passes_on_random_instances(self, capsys):
        assert main(["oracle-check", "--instances", "20", "--seed", "3"]) == 0
        assert "max deviation" in capsys.readouterr().out

    def test_zero_instances_vacuous_pass(self, capsys):
        assert main(["oracle-check", "--instances", "0"]) == 0
        assert "vacuous" in capsys.readouterr().err

    def test_oversized_tree_exits_one(self):
        assert main([
            "oracle-check", "--instances", "1", "--max-nodes", "25",
            "--seed", "0",
        ]) == 1

    @pytest.mark.parametrize("flag, value", [
        ("--instances", "-1"), ("--max-nodes", "1"), ("--max-nodes", "0"),
        ("--max-nodes", "21"), ("--max-nodes", "25"),
    ])
    def test_bound_it_cannot_honour_exits_one_before_any_instance(
            self, monkeypatch, capsys, flag, value):
        import treekt.view

        def unreachable(*args):
            raise AssertionError("an instance ran")
        # cmd_oracle_check reads posteriors from the view when it runs.
        monkeypatch.setattr(treekt.view, "posteriors", unreachable)
        assert main(["oracle-check", flag, value, "--seed", "0"]) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith(f"error: {flag} {value}: ")
        assert captured.out == ""


class TestOptionLayering:
    def test_flag_beats_config_beats_env(self, tmp_path, tree_file, monkeypatch):
        sim = simulate_into(tmp_path)
        config = tmp_path / "opts.cfg"
        config.write_text("burn_in = 4\n# comment\nmax_iters = 12\n")
        monkeypatch.setenv("TREEKT_BURN_IN", "9999")
        monkeypatch.setenv("TREEKT_TOL", "1e-3")
        out = tmp_path / "layered"
        code = main([
            "eval", "--tree", str(sim / "tree.json"),
            "--stream", str(sim / "stream.jsonl"),
            "--out", str(out), "--config", str(config),
        ])
        # burn_in comes from the config file (env is shadowed); with the
        # env burn-in of 9999 every record would land in burn-in and the
        # replay would have nothing to score.
        assert code == 0
        metrics = json.loads((out / "metrics.json").read_text())
        assert metrics["n_records"] == 6 * 6

    def test_env_used_when_nothing_else_given(self, tmp_path, monkeypatch):
        sim = simulate_into(tmp_path)
        monkeypatch.setenv("TREEKT_BURN_IN", "5")
        out = tmp_path / "enved"
        assert main([
            "eval", "--tree", str(sim / "tree.json"),
            "--stream", str(sim / "stream.jsonl"), "--out", str(out),
            "--tol", "1e-4",
        ]) == 0
        metrics = json.loads((out / "metrics.json").read_text())
        assert metrics["n_records"] == 6 * 5

    def test_flag_wins_over_everything(self, tmp_path, monkeypatch):
        sim = simulate_into(tmp_path)
        config = tmp_path / "opts.cfg"
        config.write_text("burn_in = 2\n")
        monkeypatch.setenv("TREEKT_BURN_IN", "3")
        out = tmp_path / "flagged"
        assert main([
            "eval", "--tree", str(sim / "tree.json"),
            "--stream", str(sim / "stream.jsonl"), "--out", str(out),
            "--burn-in", "6", "--config", str(config), "--tol", "1e-4",
        ]) == 0
        metrics = json.loads((out / "metrics.json").read_text())
        assert metrics["n_records"] == 6 * 4


    @pytest.mark.parametrize("source", ["config", "env"])
    def test_unreadable_value_names_its_source(self, tmp_path, monkeypatch, capsys,
                                               source):
        sim = simulate_into(tmp_path)
        argv = ["fit", "--tree", str(sim / "tree.json"),
                "--stream", str(sim / "stream.jsonl"), "--out", str(tmp_path / "out")]
        if source == "config":
            config = tmp_path / "opts.cfg"
            config.write_text("max_iters = abc\n")
            argv += ["--config", str(config)]
            where = f"{config}: max_iters: "
        else:
            monkeypatch.setenv("TREEKT_MAX_ITERS", "abc")
            where = "TREEKT_MAX_ITERS: "
        code = main(argv)
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith(f"error: {where}invalid literal for int()")
        assert "Traceback" not in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command", ["fit", "eval", "oracle-check"])
    def test_config_bytes_that_are_not_utf8_exit_two(self, tmp_path, capsys, command):
        # The config is read before any other file: the tree does not exist.
        config = tmp_path / "opts.cfg"
        config.write_bytes(b"# options\nmax_iters = 5\ntol = \xff1e-4\n")
        argv = [command, "--config", str(config)]
        if command != "oracle-check":
            argv += ["--tree", str(tmp_path / "tree.json"),
                     "--stream", str(tmp_path / "stream.jsonl"),
                     "--out", str(tmp_path / "out")]
        code = main(argv)
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith(f"error: {config}: line 3: not UTF-8 text: "), err
        assert "Traceback" not in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command", ["fit", "eval", "validate-tree"])
    @pytest.mark.parametrize("line, detail", [
        ("max_iter = 0", "unknown key 'max_iter'"),
        ("burnin=5", "unknown key 'burnin'"),
        ("= 5", "unknown key ''"),
        ("garbage line", "expected key = value, got 'garbage line'"),
    ])
    def test_config_line_that_sets_nothing_exits_two(self, tmp_path, capsys, tree_file,
                                                     command, line, detail):
        config = tmp_path / "opts.cfg"
        config.write_text(f"# options\nmax_iters = 5\n{line}\nthreads = 4\n")
        argv = [command, "--config", str(config), "--tree", tree_file]
        if command != "validate-tree":
            argv += ["--stream", str(tmp_path / "stream.jsonl"), "--out", str(tmp_path / "out")]
        code = main(argv)
        captured = capsys.readouterr()
        assert code == 2
        assert captured.err == f"error: {config}: line 3: {detail}\n"
        assert captured.out == ""
        assert not (tmp_path / "out").exists()

    def test_config_threads_line_is_accepted_and_ignored(self, tmp_path, capsys, tree_file):
        config = tmp_path / "opts.cfg"
        config.write_text("threads = 4\n")
        assert main(["validate-tree", "--config", str(config), "--tree", tree_file]) == 0
        assert capsys.readouterr().err == ""

    def test_config_keys_of_other_commands_are_ignored(self, tmp_path):
        # One config file serves every command, as TREEKT_* variables do:
        # fit takes neither burn_in nor threshold and reads neither.
        sim = simulate_into(tmp_path)
        config = tmp_path / "opts.cfg"
        config.write_text("burn_in = 3\nthreshold = 0.7\n")
        outputs = []
        for extra in ([], ["--config", str(config)]):
            out = tmp_path / f"fit{len(extra)}"
            assert main(["fit", "--tree", str(sim / "tree.json"),
                         "--stream", str(sim / "stream.jsonl"), "--out", str(out),
                         "--max-iters", "15", *extra]) == 0
            outputs.append({name: (out / name).read_bytes()
                            for name in ["params.json", "fit_report.json"]})
        assert outputs[0] == outputs[1]


class TestHeapTopPin:
    """main has glibc keep HEAP_TOP_PAD freed bytes at the heap top; the
    library never touches the allocator, and no output depends on it."""

    @staticmethod
    def _eval_bytes(sim, out) -> dict:
        assert main(["eval", "--tree", str(sim / "tree.json"),
                     "--stream", str(sim / "stream.jsonl"), "--out", str(out),
                     "--burn-in", "4"]) == 0
        return {name: (out / name).read_bytes()
                for name in ["metrics.json", "predictions.jsonl", "predictions.csv"]}

    @pytest.mark.parametrize("libc", ["raises", "no_mallopt"])
    def test_main_runs_where_libc_has_no_mallopt(self, tmp_path, monkeypatch, libc):
        import ctypes

        sim = simulate_into(tmp_path)
        want = self._eval_bytes(sim, tmp_path / "pinned")
        calls = []

        def cdll(name, *args, **kwargs):
            calls.append(name)
            if libc == "raises":
                raise OSError("no C library")
            return object()

        monkeypatch.setattr(ctypes, "CDLL", cdll)
        assert self._eval_bytes(sim, tmp_path / "unpinned") == want
        assert calls == [None]

    def test_no_import_calls_mallopt(self):
        script = """
import ctypes, json

calls = []

class Recorder:
    def __getattr__(self, name):
        return lambda *args: calls.append([name, *(getattr(a, 'value', a) for a in args)]) or 0

ctypes.CDLL = lambda *args, **kwargs: Recorder()
import treekt, treekt.cli, treekt.online, treekt.em
on_import = list(calls)
treekt.cli._pin_heap_top()
print(json.dumps({"on_import": on_import, "pin": calls[len(on_import):]}, default=repr))
"""
        done = subprocess.run([sys.executable, "-c", script], env=child_env(),
                              capture_output=True, text=True, timeout=120)
        assert done.returncode == 0, done.stderr
        seen = json.loads(done.stdout)
        assert [c for c in seen["on_import"] if c[0] == "mallopt"] == []
        # The recorder does see the helper's call: M_TOP_PAD is -2 in glibc.
        assert seen["pin"] == [["mallopt", -2, HEAP_TOP_PAD]]

    def test_eval_outputs_do_not_depend_on_the_pin(self, tmp_path):
        sim = tmp_path / "sim"
        assert main(["simulate", "--nodes", "12", "--students", "40",
                     "--interactions", "12", "--seed", "2", "--out", str(sim)]) == 0
        outputs = []
        for swap in ("", "cli._pin_heap_top = lambda: None; "):
            out = tmp_path / ("unpinned" if swap else "pinned")
            script = (f"import sys; from treekt import cli; {swap}"
                      "sys.exit(cli.main(sys.argv[1:]))")
            done = subprocess.run(
                [sys.executable, "-c", script, "eval", "--tree", str(sim / "tree.json"),
                 "--stream", str(sim / "stream.jsonl"), "--out", str(out), "--burn-in", "10"],
                env=child_env(), capture_output=True, text=True, timeout=120)
            assert done.returncode == 0, done.stderr
            outputs.append({name: (out / name).read_bytes()
                            for name in ["metrics.json", "predictions.jsonl",
                                         "predictions.csv"]})
        assert outputs[0] == outputs[1]


class TestMaxIters:
    @pytest.mark.parametrize("command", ["fit", "eval"])
    @pytest.mark.parametrize("source, value", [
        ("flag", "0"), ("flag", "-1"), ("config", "0"), ("env", "-3"),
    ])
    def test_below_one_exits_one_before_loading(self, tmp_path, monkeypatch, capsys,
                                                command, source, value):
        # The stream does not exist: reading it would exit 2.
        argv = [command, "--tree", str(tmp_path / "tree.json"),
                "--stream", str(tmp_path / "missing.jsonl"),
                "--out", str(tmp_path / "out")]
        if source == "flag":
            argv += ["--max-iters", value]
        elif source == "config":
            config = tmp_path / "opts.cfg"
            config.write_text(f"max_iters = {value}\n")
            argv += ["--config", str(config)]
        else:
            monkeypatch.setenv("TREEKT_MAX_ITERS", value)
        code = main(argv)
        err = capsys.readouterr().err
        assert code == 1
        assert f"--max-iters {value}" in err
        assert "Traceback" not in err
        assert not (tmp_path / "out").exists()


class TestThresholdAndTol:
    @pytest.mark.parametrize("command, name, value", [
        ("eval", "threshold", "nan"), ("eval", "threshold", "1.5"),
        ("eval", "threshold", "-1"), ("eval", "tol", "nan"), ("eval", "tol", "-0.001"),
        ("fit", "tol", "nan"), ("fit", "tol", "-1"),
    ])
    @pytest.mark.parametrize("source", ["flag", "config", "env"])
    def test_meaningless_value_exits_one_before_loading(
            self, tmp_path, monkeypatch, capsys, command, name, value, source):
        # The stream does not exist: reading it would exit 2.
        argv = [command, "--tree", str(tmp_path / "tree.json"),
                "--stream", str(tmp_path / "missing.jsonl"),
                "--out", str(tmp_path / "out")]
        if source == "flag":
            argv += [f"--{name}", value]
        elif source == "config":
            config = tmp_path / "opts.cfg"
            config.write_text(f"{name} = {value}\n")
            argv += ["--config", str(config)]
        else:
            monkeypatch.setenv(f"TREEKT_{name.upper()}", value)
        code = main(argv)
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith(f"error: --{name} {float(value)}: ")
        assert "Traceback" not in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("flag, value", [
        ("--tol", "0"), ("--threshold", "0"), ("--threshold", "1"),
    ])
    def test_edge_values_stay_valid(self, tmp_path, capsys, flag, value):
        code = main(["eval", "--tree", str(tmp_path / "tree.json"),
                     "--stream", str(tmp_path / "missing.jsonl"),
                     "--out", str(tmp_path / "out"), flag, value])
        assert code == 2  # past the check, failing only on the missing file
        assert "No such file" in capsys.readouterr().err


class TestEvalBoundary:
    def test_burn_in_beyond_every_history_exits_one_before_fitting(
            self, tmp_path, capsys):
        sim = simulate_into(tmp_path)
        code = main([
            "eval", "--tree", str(sim / "tree.json"),
            "--stream", str(sim / "stream.jsonl"),
            "--out", str(tmp_path / "out"), "--burn-in", "10",
        ])
        captured = capsys.readouterr()
        assert code == 1
        assert "--burn-in 10 leaves no responses" in captured.err
        assert "Traceback" not in captured.err
        assert not (tmp_path / "out").exists()

    def test_bin_flags_are_gone(self, tmp_path):
        with pytest.raises(SystemExit) as exc:
            main(["eval", "--tree", "t", "--stream", "s", "--out", str(tmp_path),
                  "--bin-hi", "0.7"])
        assert exc.value.code == 2


class TestFitBadStreams:
    """treekt fit reads its stream through a sink; every bad stream still
    exits with the code and message of load_stream's own error, and --out
    keeps its bytes."""

    @staticmethod
    def bad_stream(sim, tmp_path, case):
        data = (sim / "stream.jsonl").read_bytes()
        lines = data.decode().splitlines()
        record = json.loads(lines[2])
        if case == "not_utf8":
            at = data.index(b"\n", data.index(b"\n") + 1) + 3  # on line 3
            data = data[:at] + b"\xff" + data[at:]
        elif case == "empty":
            data = b""
        else:
            if case == "no_difficulty":
                del record["difficulty"]
            elif case == "weird_difficulty":
                record["difficulty"] = "weird"
            elif case == "unknown_kc":
                record["kc_id"] = "no_such_kc"
            elif case == "root_kc":
                record["kc_id"] = load_tree(str(sim / "tree.json")).root
            elif case == "lone_surrogate":
                record["question_id"] += "\ud800"
            elif case == "seq_repeat":  # line 1 again
                record = json.loads(lines[0])
            lines[2] = "[" * 100_000 if case == "deep" else json.dumps(record)
            data = "".join(line + "\n" for line in lines).encode()
        path = tmp_path / f"{case}.jsonl"
        path.write_bytes(data)
        return path

    @pytest.mark.parametrize("case", ["not_utf8", "no_difficulty", "weird_difficulty", "deep",
                                      "unknown_kc", "root_kc", "lone_surrogate", "seq_repeat",
                                      "empty"])
    def test_code_message_and_out_bytes(self, tmp_path, capsys, case):
        sim = simulate_into(tmp_path)
        stream = self.bad_stream(sim, tmp_path, case)
        tree = str(sim / "tree.json")
        if case == "empty":
            want = 1, "error: stream is empty\n"
        else:
            with pytest.raises(ValueError) as raised:
                load_stream(str(stream), load_tree(tree))
            code = 2 if isinstance(raised.value, cli.StreamFormatError) else 1
            want = code, f"error: {raised.value}\n"
        out = tmp_path / "out"
        out.mkdir()
        (out / "params.json").write_text("old\n")
        capsys.readouterr()
        code = main(["fit", "--tree", tree, "--stream", str(stream), "--out", str(out)])
        captured = capsys.readouterr()
        assert (code, captured.err) == want
        assert captured.out == ""
        assert {path.name: path.read_bytes() for path in out.iterdir()} == \
            {"params.json": b"old\n"}
        assert main(["fit", "--tree", tree, "--stream", str(stream),
                     "--out", str(tmp_path / "new")]) == want[0]
        assert not (tmp_path / "new").exists()


class TestFitMemory:
    def test_holds_a_pointer_per_response_beyond_the_pool(self, tmp_path, monkeypatch):
        # 20 000 responses of 200 students on a 60-node tree. When EM starts,
        # treekt fit held about 130 B per response beyond the pool while it
        # kept every parsed record; it keeps one record per cell.
        import tracemalloc
        import treekt.online

        rng = np.random.default_rng(4)
        tree = random_tree(rng, 60)
        leaves = sorted(tree.leaves())
        n_lines = 20_000
        kcs = rng.integers(0, len(leaves), n_lines)
        difficulties = rng.choice(["easy", "medium", "hard"], n_lines)
        correct = rng.integers(0, 2, n_lines)
        lines = [json.dumps({"student_id": f"s{i % 200:03d}", "question_id": f"q{kc}",
                             "kc_id": leaves[kc], "difficulty": str(d), "correct": int(c),
                             "seq": i})
                 for i, (kc, d, c) in enumerate(zip(kcs, difficulties, correct))]
        (tmp_path / "tree.json").write_text(serialize_tree(tree))
        (tmp_path / "stream.jsonl").write_text("\n".join(lines) + "\n")
        del lines
        at_start = []

        def fit(tree, pool, *args, **kwargs):
            at_start.append((tracemalloc.get_traced_memory()[0], pool.nbytes))
            return real_fit(tree, pool, *args, **kwargs)

        real_fit = treekt.online.fit
        monkeypatch.setattr(treekt.online, "fit", fit)
        tracemalloc.start()
        try:
            code = main(["fit", "--tree", str(tmp_path / "tree.json"),
                         "--stream", str(tmp_path / "stream.jsonl"),
                         "--out", str(tmp_path / "out"), "--max-iters", "1"])
        finally:
            tracemalloc.stop()
        assert code == 0
        (held, pool), = at_start
        assert held - pool <= 48 * n_lines


class TestStreamKC:
    @pytest.mark.parametrize("command", ["fit", "eval"])
    @pytest.mark.parametrize("kc, needle", [
        ("no_such_kc", "unknown KC 'no_such_kc'"),
        (None, "is not a leaf"),  # the tree's root
    ])
    def test_kc_outside_the_leaves_exits_one_before_fitting(
            self, tmp_path, capsys, monkeypatch, command, kc, needle):
        sim = simulate_into(tmp_path)
        stream = sim / "stream.jsonl"
        lines = stream.read_text().splitlines()
        record = json.loads(lines[40])
        record["kc_id"] = kc or load_tree(str(sim / "tree.json")).root
        lines[40] = json.dumps(record)
        stream.write_text("\n".join(lines) + "\n")

        def unreachable(*args, **kwargs):
            raise AssertionError("fitting started")

        monkeypatch.setattr("treekt.cli.burn_in_fit", unreachable)
        monkeypatch.setattr("treekt.evaluate.burn_in_fit", unreachable)
        code = main([command, "--tree", str(sim / "tree.json"), "--stream", str(stream),
                     "--out", str(tmp_path / "out")]
                    + (["--burn-in", "4"] if command == "eval" else []))
        err = capsys.readouterr().err
        assert code == 1
        assert f"{stream}:41: " in err
        assert needle in err
        assert "Traceback" not in err
        assert not (tmp_path / "out").exists()


class TestUnwritableIds:
    """An id that UTF-8 cannot encode (a lone surrogate, which JSON can
    escape) exits 2 where it is read, before any fit."""

    @pytest.mark.parametrize("command", ["fit", "eval"])
    @pytest.mark.parametrize("key", ["student_id", "question_id", "kc_id"])
    def test_stream_id_exits_two_naming_the_line(self, tmp_path, capsys, monkeypatch,
                                                 command, key):
        sim = simulate_into(tmp_path)
        stream = sim / "stream.jsonl"
        records = [json.loads(line) for line in stream.read_text().splitlines()]
        old = records[40][key]
        for record in records[40:]:  # line 41 and every later line with the id
            if record[key] == old:
                record[key] = old + "\ud800"
        stream.write_text("".join(json.dumps(r) + "\n" for r in records))

        def unreachable(*args, **kwargs):
            raise AssertionError("fitting started")

        monkeypatch.setattr("treekt.cli.burn_in_fit", unreachable)
        monkeypatch.setattr("treekt.evaluate.burn_in_fit", unreachable)
        code = main([command, "--tree", str(sim / "tree.json"), "--stream", str(stream),
                     "--out", str(tmp_path / "out")]
                    + (["--burn-in", "4"] if command == "eval" else []))
        err = capsys.readouterr().err
        assert code == 2, err
        assert err.startswith(f"error: {stream}:41: bad stream record on line 41: ")
        assert "cannot be written as UTF-8" in err
        assert "Traceback" not in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command", ["validate-tree", "fit"])
    def test_tree_id_exits_two_naming_the_entry(self, tmp_path, capsys, command):
        sim = simulate_into(tmp_path)
        doc = json.loads((sim / "tree.json").read_text())
        doc["nodes"][-1]["id"] += "\ud800"  # a leaf: no node names it as parent
        tree = tmp_path / "tree.json"
        tree.write_text(json.dumps(doc))
        capsys.readouterr()
        argv = [command, "--tree", str(tree)]
        if command == "fit":
            argv += ["--stream", str(sim / "stream.jsonl"), "--out", str(tmp_path / "out")]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(
            f"error: {tree}: nodes[{len(doc['nodes']) - 1}]: id ")
        assert "cannot be written as UTF-8" in captured.err


class TestImports:
    def test_no_logging_on_import(self):
        script = ("import sys, treekt; before = 'logging' in sys.modules; import treekt.cli; "
                  "print(before, 'logging' in sys.modules)")
        done = subprocess.run([sys.executable, "-c", script],
                              env={**child_env(), "PYTHONDONTWRITEBYTECODE": "1"},
                              capture_output=True, text=True, timeout=120)
        assert done.returncode == 0, done.stderr
        assert done.stdout.split() == ["False", "False"]


FUZZ_LINES = 60


def _stream_mutations():
    """(line index, (kind, field, replacement)) for one line of the fuzzed
    stream: drop a key, give a value of the wrong JSON type, or repeat the
    seq of the same student's neighbouring line."""
    fields = ["student_id", "question_id", "kc_id", "difficulty", "correct", "seq"]
    wrong = {
        "student_id": [7, None, ["s"], {"a": 1}, True],
        "question_id": [7, None, 1.5, []],
        "kc_id": [3, None, False, {}],
        "difficulty": [1, None, ["easy"], 0.5],
        "correct": ["1", 1.0, None, True, [1]],
        "seq": ["3", 2.5, None, False, {}],
    }
    drop = st.tuples(st.just("drop"), st.sampled_from(fields), st.none())
    bad_type = st.sampled_from(fields).flatmap(
        lambda f: st.tuples(st.just("type"), st.just(f), st.sampled_from(wrong[f])))
    repeat = st.tuples(st.just("repeat"), st.just("seq"), st.none())
    return st.tuples(st.integers(0, FUZZ_LINES - 1), st.one_of(drop, bad_type, repeat))


@pytest.fixture(scope="module")
def fuzz_inputs():
    rng = np.random.default_rng(0)
    tree = random_tree(rng, 5)
    stream, _ = generate_classroom(
        tree, default_parameters(tree), random_question_bank(rng, tree, 2),
        SimConfig(n_students=6, n_interactions=FUZZ_LINES // 6, seed=0))
    return serialize_tree(tree), [json.loads(line) for line in
                                  serialize_stream(stream).splitlines()]


class TestStreamFuzz:
    @settings(max_examples=60, deadline=None)
    @given(mutation=_stream_mutations())
    def test_mutated_line_fails_cleanly(self, fuzz_inputs, mutation):
        tree_doc, records = fuzz_inputs
        records = [dict(r) for r in records]
        index, (kind, field, value) = mutation
        if kind == "drop":
            del records[index][field]
        elif kind == "type":
            records[index][field] = value
        else:
            same = [i for i, r in enumerate(records)
                    if r["student_id"] == records[index]["student_id"]]
            at = same.index(index)
            earlier, index = (same[at - 1], index) if at else (index, same[1])
            records[index]["seq"] = records[earlier]["seq"]
        with tempfile.TemporaryDirectory() as tmp:
            tree, stream = Path(tmp) / "tree.json", Path(tmp) / "stream.jsonl"
            tree.write_text(tree_doc)
            stream.write_text("".join(json.dumps(r) + "\n" for r in records))
            err = io.StringIO()
            with contextlib.redirect_stderr(err), \
                    contextlib.redirect_stdout(io.StringIO()):
                code = main(["eval", "--tree", str(tree), "--stream", str(stream),
                             "--out", str(Path(tmp) / "out"), "--burn-in", "4"])
        assert code in (1, 2)
        assert f"{stream}:{index + 1}:" in err.getvalue()
        assert "Traceback" not in err.getvalue()


def _tree_mutations():
    """(node index, (kind, argument)) for one entry of the fuzzed tree
    document; every mutation breaks the tree: drop the id, give a field a
    value of the wrong JSON type, point the parent at no node, make a second
    root, repeat the next node's id, or replace the entry."""
    wrong = {
        "id": [7, None, 1.5, True, ["a"], {}],
        "label": [7, None, False, ["a"], {"a": 1}],
        "parent": [7, 2.5, True, ["root"], {}],
    }
    return st.tuples(st.integers(0, 5), st.one_of(
        st.tuples(st.just("drop"), st.just("id")),
        st.sampled_from(sorted(wrong)).flatmap(
            lambda f: st.tuples(st.just("type"), st.tuples(st.just(f), st.sampled_from(wrong[f])))),
        st.tuples(st.just("dangling"), st.none()),
        st.tuples(st.just("second_root"), st.none()),
        st.tuples(st.just("repeat"), st.none()),
        st.tuples(st.just("entry"), st.sampled_from(["a", 3, None, [], True]))))


class TestTreeFuzz:
    @settings(max_examples=60, deadline=None)
    @given(mutation=_tree_mutations(), command=st.sampled_from(["validate-tree", "fit"]))
    def test_mutated_entry_fails_cleanly(self, mutation, command):
        nodes = json.loads(serialize_tree(random_tree(np.random.default_rng(0), 6)))["nodes"]
        index, (kind, arg) = mutation
        if kind == "drop":
            del nodes[index][arg]
        elif kind == "type":
            nodes[index][arg[0]] = arg[1]
        elif kind == "dangling":
            nodes[index]["parent"] = "no_such_node"
        elif kind == "second_root":
            del nodes[index if "parent" in nodes[index] else index - 1]["parent"]
        elif kind == "repeat":
            nodes[index]["id"] = nodes[(index + 1) % len(nodes)]["id"]
        else:
            nodes[index] = arg
        with tempfile.TemporaryDirectory() as tmp:
            tree, stream = Path(tmp) / "tree.json", Path(tmp) / "stream.jsonl"
            tree.write_text(json.dumps({"nodes": nodes}))
            stream.write_text("")
            argv = [command, "--tree", str(tree)]
            if command == "fit":
                argv += ["--stream", str(stream), "--out", str(Path(tmp) / "out")]
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = main(argv)
        assert code in (1, 2)
        output = out.getvalue() + err.getvalue()
        assert re.match(rf"(violation|error): {re.escape(str(tree))}: ", output), output
        assert "Traceback" not in output
