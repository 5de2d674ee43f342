"""The benchmark worker's contract with the program: every mode that
perfbench/worker.py runs works on a tiny classroom, so an API change that
would break the benchmark fails here first."""

import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import numpy as np

from treekt import ClassroomSession, Parameters, load_tree, observe, predict_next
from treekt.cli import main
from treekt.online import load_stream, split_burn_in
from treekt.tree import QuestionMeta, serialize_tree

from conftest import caterpillar_tree

ROOT = Path(__file__).resolve().parent.parent
WORKER = ROOT / "perfbench" / "worker.py"
BURN_IN = 3


def load_worker():
    spec = importlib.util.spec_from_file_location("perfbench_worker", WORKER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def tiny_classroom(tmp_path) -> Path:
    tree_path = tmp_path / "caterpillar.json"
    tree_path.write_text(serialize_tree(caterpillar_tree(4)), encoding="utf-8")
    inputs = tmp_path / "inputs"
    assert main(["simulate", "--tree", str(tree_path), "--students", "5",
                 "--interactions", "8", "--seed", "1", "--out", str(inputs)]) == 0
    return inputs


def traced_span_names(spans: Path, *argv: str) -> set[str]:
    """Run the worker with tracing in a child process (the tracer rebinds
    module globals) and return the names of the spans it recorded."""
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))}
    done = subprocess.run([sys.executable, str(WORKER), *argv], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    with np.load(spans) as trace:
        return set(trace["names"][trace["name_ids"]].tolist())


def test_traced_modes_record_the_kernel_and_the_counter(tmp_path):
    inputs = tiny_classroom(tmp_path)
    names = traced_span_names(tmp_path / "serve.npz", "serve", str(inputs),
                              str(tmp_path / "serve"), "0", str(BURN_IN),
                              "--trace", str(tmp_path / "serve.npz"))
    assert {"online.predict_next", "online.observe", "inference.pool_posteriors",
            "inference.count_cells"} <= names
    names = traced_span_names(tmp_path / "eval.npz", "cli", str(tmp_path / "eval.npz"),
                              "eval", "--tree", str(inputs / "tree.json"),
                              "--stream", str(inputs / "stream.jsonl"),
                              "--out", str(tmp_path / "eval"), "--burn-in", str(BURN_IN))
    # The spans perfbench/run.py layer_metrics reads: each needs its function
    # bound in a second treekt namespace, such as the package's own.
    assert {"cli.main", "inference.pool_posteriors", "em.pooled_e_step", "tree.load_tree",
            "online.load_stream", "online.burn_in_fit", "em.fit", "online.replay",
            "evaluate.metrics_report"} <= names
    assert (tmp_path / "eval" / "metrics.json").is_file()
    names = traced_span_names(tmp_path / "fit.npz", "cli", str(tmp_path / "fit.npz"),
                              "fit", "--tree", str(inputs / "tree.json"),
                              "--stream", str(inputs / "stream.jsonl"),
                              "--out", str(tmp_path / "fit"))
    assert {"cli.main", "online.burn_in_fit", "em.fit", "em.pooled_e_step"} <= names
    assert (tmp_path / "fit" / "params.json").is_file()


def test_worker_modes_run_and_serve_predicts_as_a_frozen_session(tmp_path):
    inputs = tiny_classroom(tmp_path)
    worker = load_worker()
    for kind in ("fit", "eval", "serve"):
        worker.setup(kind, inputs, BURN_IN)
    out = tmp_path / "out"
    worker.serve(inputs, out, 0.0, BURN_IN, None)

    tree = load_tree(str(inputs / "tree.json"))
    burn_in, remainder = split_burn_in(load_stream(str(inputs / "stream.jsonl")), BURN_IN)
    theta = Parameters.from_json((inputs / "theta_star.json").read_text())
    session = ClassroomSession(tree=tree, burn_in=burn_in, theta_init=theta,
                               update_batch=None)
    want = []
    for rec in remainder:
        question = QuestionMeta(rec.question_id, rec.kc, rec.difficulty)
        want.append(predict_next(session, rec.student_id, question).prob_correct)
        observe(session, rec.student_id, rec.interaction())
    got = np.fromfile(out / "predictions.f64")
    assert got.tolist() == want  # one pass: seconds=0 stops after the first
    assert len(np.fromfile(out / "latencies.f64")) == len(remainder)
    assert len(np.fromfile(out / "walls.f64")) == 1
