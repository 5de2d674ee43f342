import contextlib
import io
import json
import re
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from treekt import default_parameters, load_tree, serialize_tree
from treekt.cli import main
from treekt.evaluate import ExperimentConfig, records_to_csv, run_experiment
from treekt.online import load_stream, serialize_predictions, serialize_stream
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
            serialize_predictions(records).encode()
        assert (out / "predictions.csv").read_bytes() == records_to_csv(records).encode()

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
