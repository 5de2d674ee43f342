"""Benchmark of treekt on three fixed-seed workloads.

    python3 perfbench/run.py --workload fit-wide --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30

Run from the root of a checkout; the program is imported from ./src.
Inputs come from the program's own `treekt simulate`, once per input seed,
and are cached under .bench_build/ before anything is timed. The driven
program only ever receives the generated files.

Workloads (why each exists is recorded in BENCHMARK.json):
  fit-wide     `treekt fit --tol 0` as a child process; nearly all time is in
               the bulk E-step over 200 students, with no online update.
  eval-online  `treekt eval --burn-in 10` as a child process; nearly all time
               is in the per-response one-step update over the burn-in pool.
  serve-deep   a closed loop with one client through treekt.online:
               predict_next then observe, per response, on a frozen session
               over a 200-node caterpillar tree (depth 101).

With --trace 0 the final JSON line carries the end-to-end metrics of an
untraced run; with --trace 1 a run does one untraced and one traced request
and carries the per-layer metrics of the traced one, plus the tracing
overhead. Every request's outputs are checked against references recorded by
perfbench/make_reference.py; a non-zero exit, an exception or a mismatch
counts as a failed request. The line before the final one reports the
workload's figures under their own names, with the machine they ran on.
"""

from __future__ import annotations

import argparse
import gzip
import hashlib
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from array import array
from dataclasses import dataclass, field
from importlib import metadata
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
WORKER = BENCH_DIR / "worker.py"
REFERENCE_DIR = BENCH_DIR / "reference"
WORK_DIR = ROOT / ".bench_build" / "perfbench"

# --seed N runs on simulator seed N % INPUT_SEEDS; each of those seeds has a
# reference recorded by make_reference.py.
INPUT_SEEDS = 10
SETUP_REPEATS = 5
# Tolerances of the output checks.
LOGLIK_TOL = 1e-6
PREDICTION_TOL = 1e-9
MONOTONE_SLACK = 1e-9
EPSILON_CAP = 0.3


@dataclass(frozen=True)
class Workload:
    kind: str  # "fit", "eval" or "serve"
    tree: str  # "random:<nodes>", drawn per input seed, or "caterpillar:<spine>"
    students: int
    interactions: int
    burn_in: int = 10
    cli_args: tuple[str, ...] = ()


WORKLOADS = {
    # --tol 0 fixes the work at 100 EM iterations for every input seed; with
    # the default tolerance some seeds converge early and the fit time would
    # measure convergence, not speed.
    "fit-wide": Workload("fit", "random:60", students=200, interactions=50,
                         cli_args=("--tol", "0")),
    "eval-online": Workload("eval", "random:12", students=100, interactions=30),
    "serve-deep": Workload("serve", "caterpillar:100", students=200, interactions=40),
}


class BenchError(RuntimeError):
    """The benchmark cannot run at all (no program, no inputs, no reference)."""


@dataclass
class Outcome:
    """What one run measured and checked."""

    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    latencies_s: list[float] = field(default_factory=list)
    rss_mb: list[float] = field(default_factory=list)
    setup_s: list[float] = field(default_factory=list)
    quality: dict = field(default_factory=dict)

    def fail(self, count: int, problem: str) -> None:
        self.failed += count
        if len(self.problems) < 10:
            self.problems.append(problem)


# ---------------------------------------------------------------- processes

def child_env() -> dict:
    env = {k: v for k, v in os.environ.items() if not k.startswith("TREEKT_")}
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else src
    return env


def spawn(cmd: list[str], log_path: Path) -> tuple[float, float, int]:
    """Run cmd to completion; return (wall seconds, peak RSS in MB, exit code)."""
    with open(log_path, "wb") as log:
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, stdout=log, stderr=subprocess.STDOUT,
                                env=child_env(), cwd=ROOT)
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return wall, usage.ru_maxrss / 1024.0, proc.returncode


def time_setup(workload: Workload, inputs: Path) -> float:
    """Seconds from spawning a fresh interpreter to the point where the
    program would make its first inference call."""
    cmd = [sys.executable, str(WORKER), "setup", workload.kind, str(inputs),
           str(workload.burn_in)]
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, env=child_env(), cwd=ROOT)
    try:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - start
        proc.stdout.read()
    finally:
        proc.stdout.close()
        proc.wait()
    if proc.returncode != 0 or line.strip() != b"ready":
        raise BenchError(f"set-up probe failed with exit code {proc.returncode}")
    return elapsed


def log_tail(path: Path) -> str:
    try:
        lines = path.read_text(encoding="utf-8", errors="replace").strip().splitlines()
    except OSError:
        return ""
    return lines[-1] if lines else ""


# ------------------------------------------------------------------- inputs

def caterpillar_tree(spine: int) -> str:
    """A path of `spine` nodes with one leaf hanging off each: 2*spine nodes,
    depth spine+1."""
    nodes = []
    for i in range(spine):
        entry = {"id": f"c{i}", "label": f"c{i}"}
        if i:
            entry["parent"] = f"c{i - 1}"
        nodes.append(entry)
        nodes.append({"id": f"l{i}", "label": f"l{i}", "parent": f"c{i}"})
    return json.dumps({"nodes": nodes}, indent=2) + "\n"


def simulate(out: Path, args: list[str]) -> None:
    _, _, code = spawn([sys.executable, "-m", "treekt.cli", "simulate", *args,
                        "--out", str(out)], out / "simulate.log")
    if code != 0:
        raise BenchError(f"treekt simulate exited {code}: {log_tail(out / 'simulate.log')}")


def prepare_inputs(work: Path, name: str, workload: Workload, input_seed: int) -> Path:
    """Generate (or reuse) the workload's inputs with `treekt simulate`."""
    key = hashlib.sha256(repr(workload).encode()).hexdigest()[:12]
    target = work / "inputs" / f"{name}-{key}" / str(input_seed)
    if (target / "done").is_file():
        return target
    tmp = target.with_name(target.name + ".tmp")
    shutil.rmtree(tmp, ignore_errors=True)
    tmp.mkdir(parents=True)
    shape, size = workload.tree.split(":")
    if shape == "caterpillar":
        tree_path = tmp / "caterpillar.json"
        tree_path.write_text(caterpillar_tree(int(size)), encoding="utf-8")
        tree_args = ["--tree", str(tree_path)]
    else:
        tree_args = ["--nodes", size]
    simulate(tmp, [*tree_args, "--students", str(workload.students),
                   "--interactions", str(workload.interactions), "--seed", str(input_seed)])
    (tmp / "done").write_text("", encoding="utf-8")
    shutil.rmtree(target, ignore_errors=True)
    tmp.rename(target)
    return target


def load_reference(name: str, input_seed: int, reference_dir: Path = REFERENCE_DIR) -> dict:
    path = reference_dir / f"{name}.json.gz"
    try:
        with gzip.open(path, "rt", encoding="utf-8") as fh:
            return json.load(fh)["input_seeds"][str(input_seed)]
    except (OSError, KeyError, ValueError) as exc:
        raise BenchError(f"no reference for {name} input seed {input_seed}: {exc}") from exc


def source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(path.relative_to(ROOT).as_posix().encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


# ----------------------------------------------------------------- requests

def cli_command(workload: Workload, inputs: Path, out: Path, spans: Path | None) -> list[str]:
    args = [workload.kind, "--tree", str(inputs / "tree.json"),
            "--stream", str(inputs / "stream.jsonl"), "--out", str(out), "--threads", "1"]
    if workload.kind == "eval":
        args += ["--burn-in", str(workload.burn_in)]
    args += workload.cli_args
    if spans is None:
        return [sys.executable, "-m", "treekt.cli", *args]
    return [sys.executable, str(WORKER), "cli", str(spans), *args]


def read_fit(out: Path) -> dict:
    report = json.loads((out / "fit_report.json").read_text(encoding="utf-8"))
    return {"trace": report["log_likelihood_trace"], "iterations": report["iterations"],
            "epsilon": report["parameters"]["epsilon"]}


def read_eval(out: Path) -> dict:
    raw = (out / "predictions.jsonl").read_bytes()
    rows = [json.loads(line) for line in raw.splitlines() if line.strip()]
    metrics = json.loads((out / "metrics.json").read_text(encoding="utf-8"))
    return {"auc": metrics["auc"], "p_correct": [r["p_correct"] for r in rows],
            "sha256": hashlib.sha256(raw).hexdigest()}


def prediction_mismatches(got: list[float], want: list[float]) -> int:
    """Count positions that differ by more than PREDICTION_TOL (or are missing)."""
    bad = abs(len(got) - len(want))
    return bad + sum(1 for g, w in zip(got, want) if not abs(g - w) <= PREDICTION_TOL)


def check_fit(values: dict, ref: dict) -> list[str]:
    trace = values["trace"]
    problems = []
    if any(b < a - MONOTONE_SLACK for a, b in zip(trace, trace[1:])):
        problems.append("fit: log-likelihood trace decreases")
    if not values["epsilon"] <= EPSILON_CAP:
        problems.append(f"fit: epsilon {values['epsilon']} above the cap {EPSILON_CAP}")
    if not abs(trace[-1] - ref["final_loglik"]) <= LOGLIK_TOL:
        problems.append(f"fit: final LL {trace[-1]!r} != reference {ref['final_loglik']!r}")
    return problems


def check_eval(values: dict, ref: dict, digest_path: Path) -> list[str]:
    problems = []
    if not abs(values["auc"] - ref["auc"]) <= PREDICTION_TOL:
        problems.append(f"eval: AUC {values['auc']!r} != reference {ref['auc']!r}")
    bad = prediction_mismatches(values["p_correct"], ref["p_correct"])
    if bad:
        problems.append(f"eval: {bad} predictions differ from the reference")
    # predictions.jsonl must be byte-identical across the runs of a set.
    if digest_path.is_file():
        if digest_path.read_text(encoding="utf-8") != values["sha256"]:
            problems.append("eval: predictions.jsonl differs from an earlier run")
    else:
        digest_path.parent.mkdir(parents=True, exist_ok=True)
        digest_path.write_text(values["sha256"], encoding="utf-8")
    return problems


@dataclass
class Context:
    workload: Workload
    inputs: Path
    ref: dict
    runs: Path  # scratch directory for outputs
    digest_path: Path


def cli_request(ctx: Context, outcome: Outcome, spans: Path | None = None) -> float:
    """One `treekt fit` or `treekt eval`; returns its wall time."""
    out = ctx.runs / "out"
    shutil.rmtree(out, ignore_errors=True)
    log = ctx.runs / "request.log"
    wall, rss, code = spawn(cli_command(ctx.workload, ctx.inputs, out, spans), log)
    outcome.attempted += 1
    outcome.latencies_s.append(wall)
    outcome.rss_mb.append(rss)
    if code != 0:
        outcome.fail(1, f"{ctx.workload.kind}: exit code {code}: {log_tail(log)}")
        return wall
    try:
        if ctx.workload.kind == "fit":
            values = read_fit(out)
            problems = check_fit(values, ctx.ref)
            outcome.quality = {"fit_loglik": values["trace"][-1],
                               "fit_iterations": values["iterations"]}
        else:
            values = read_eval(out)
            problems = check_eval(values, ctx.ref, ctx.digest_path)
            outcome.quality = {"eval_auc": values["auc"]}
    except (OSError, KeyError, ValueError, TypeError, IndexError) as exc:
        problems = [f"{ctx.workload.kind}: unreadable output: {exc!r}"]
    if problems:
        outcome.fail(1, "; ".join(problems))
    return wall


def serve_command(workload: Workload, inputs: Path, out: Path, seconds: float,
                  spans: Path | None) -> list[str]:
    cmd = [sys.executable, str(WORKER), "serve", str(inputs), str(out),
           repr(seconds), str(workload.burn_in)]
    return cmd + ["--trace", str(spans)] if spans is not None else cmd


def read_serve(out: Path) -> tuple[list[float], list[float], list[float]]:
    """Pass wall times, step latencies (s) and predictions of a serve worker."""
    def load(name):
        values = array("d")
        values.frombytes((out / f"{name}.f64").read_bytes())
        return values.tolist()
    return load("walls"), load("latencies"), load("predictions")


def serve_request(ctx: Context, outcome: Outcome, seconds: float,
                  spans: Path | None = None) -> list[float]:
    """One serve worker; returns the wall time of each pass over the stream."""
    out = ctx.runs / "serve"
    shutil.rmtree(out, ignore_errors=True)
    log = ctx.runs / "serve.log"
    _, rss, code = spawn(serve_command(ctx.workload, ctx.inputs, out, seconds, spans), log)
    expected = len(ctx.ref["p_correct"])
    outcome.rss_mb.append(rss)
    try:
        if code != 0:
            raise ValueError(f"exit code {code}: {log_tail(log)}")
        walls, latencies, predictions = read_serve(out)
    except (OSError, ValueError) as exc:
        outcome.attempted += expected
        outcome.fail(expected, f"serve: worker failed: {exc}")
        return []
    for i in range(len(walls)):
        outcome.attempted += expected
        got = predictions[i * expected:(i + 1) * expected]
        bad = min(expected, prediction_mismatches(got, ctx.ref["p_correct"]))
        if bad:
            outcome.fail(bad, f"serve: {bad} predictions differ from the reference")
    outcome.latencies_s.extend(latencies)
    return walls


# ------------------------------------------------------------------ metrics

def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile: with fewer than 100 samples p99 is the maximum,
    with fewer than 10 so is p90."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q / 100.0 * len(ordered)) - 1)]


def end_to_end(outcome: Outcome) -> dict:
    return {
        "setup_s": statistics.median(outcome.setup_s),
        "request_p90_ms": percentile(outcome.latencies_s, 90) * 1e3,
        "request_p99_ms": percentile(outcome.latencies_s, 99) * 1e3,
        "peak_rss_mb": statistics.median(outcome.rss_mb),
    }


def figures(name: str, outcome: Outcome, pass_walls: list[float]) -> dict:
    """The run's end-to-end figures under workload-specific names."""
    fig = {"setup_s": (statistics.median(outcome.setup_s), "s"),
           "peak_rss_mb": (statistics.median(outcome.rss_mb), "MB")}
    lat = outcome.latencies_s
    if name == "fit-wide":
        fig["fit_s"] = (statistics.median(lat), "s")
        fig["fit_loglik"] = (outcome.quality.get("fit_loglik"), "nats")
        fig["fit_iterations"] = (outcome.quality.get("fit_iterations"), "count")
    elif name == "eval-online":
        fig["eval_s"] = (statistics.median(lat), "s")
        fig["eval_auc"] = (outcome.quality.get("eval_auc"), "1")
    else:
        fig["predict_p50_ms"] = (statistics.median(lat) * 1e3, "ms")
        fig["predict_p99_ms"] = (percentile(lat, 99) * 1e3, "ms")
        fig["serve_rps"] = (len(lat) / sum(pass_walls), "1/s")
    fig["samples"] = (len(lat), "count")
    return {k: {"value": v, "unit": u} for k, (v, u) in fig.items()}


def layer_metrics(spans_path: Path, traced_s: float, untraced_s: float,
                  n_nodes: int) -> dict:
    """Per-layer figures from one traced request's spans. Self time is a
    span's duration minus its child spans; cli.self_s is the traced process's
    wall time minus the top-level spans of the other layers."""
    import numpy as np

    with np.load(spans_path) as data:
        names = [str(n) for n in data["names"]]
        name_ids, parents = data["name_ids"], data["parents"]
        duration = data["ends"] - data["starts"]
        students = data["students"]
        fit_results = data["fit_results"]
    inside = parents >= 0
    children = np.bincount(parents[inside], weights=duration[inside],
                           minlength=len(duration))
    self_time = duration - children

    def mask(name: str):
        return name_ids == (names.index(name) if name in names else -1)

    def calls(name):
        return int(mask(name).sum())

    def total(name):
        return float(duration[mask(name)].sum())

    def own(name):
        return float(self_time[mask(name)].sum())

    def pct(name, q):
        d = duration[mask(name)]
        return percentile(d.tolist(), q) if len(d) else 0.0

    cli_ids = [i for i, n in enumerate(names) if n.startswith("cli.")]
    is_cli = np.isin(name_ids, cli_ids)
    parent_cli = np.zeros_like(is_cli)
    parent_cli[inside] = is_cli[parents[inside]]
    layer_top = ~is_cli & (~inside | parent_cli)
    cli_self = traced_s - float(duration[layer_top].sum()) if is_cli.any() else 0.0

    observed = calls("online.observe")
    visits = int(students[mask("inference.posteriors")].sum()) * n_nodes
    posteriors_self = own("inference.posteriors")
    return {
        "tree.load_tree.ms": total("tree.load_tree") * 1e3,
        "online.load_stream.ms": total("online.load_stream") * 1e3,
        "online.burn_in_fit.s": total("online.burn_in_fit"),
        "online.replay.s": total("online.replay"),
        "online.observe.calls": observed,
        "online.observe.p50_ms": pct("online.observe", 50) * 1e3,
        "online.observe.p99_ms": pct("online.observe", 99) * 1e3,
        "online.predict_next.calls": calls("online.predict_next"),
        "online.predict_next.p50_ms": pct("online.predict_next", 50) * 1e3,
        "online.predict_next.p99_ms": pct("online.predict_next", 99) * 1e3,
        "online.packs_per_response": (calls("inference.observation_set") / observed
                                      if observed else 0.0),
        "inference.observation_set.calls": calls("inference.observation_set"),
        "inference.observation_set.self_s": own("inference.observation_set"),
        "inference.posteriors.calls": calls("inference.posteriors"),
        "inference.posteriors.p50_us": pct("inference.posteriors", 50) * 1e6,
        "inference.posteriors.self_s": posteriors_self,
        "inference.student_node_visits": visits,
        "inference.student_node_visits_per_s": (visits / posteriors_self
                                                if posteriors_self > 0 else 0.0),
        "em.e_step.calls": calls("em.e_step"),
        "em.e_step.p50_ms": pct("em.e_step", 50) * 1e3,
        "em.e_step.self_s": own("em.e_step"),
        "em.m_step.calls": calls("em.m_step"),
        "em.m_step.p50_us": pct("em.m_step", 50) * 1e6,
        "em.fit.calls": len(fit_results),
        "em.fit.iterations": int(fit_results[:, 0].sum()),
        "em.fit.converged": int(fit_results[:, 1].sum()),
        "em.one_step_update.calls": calls("em.one_step_update"),
        "em.one_step_update.p50_ms": pct("em.one_step_update", 50) * 1e3,
        "em.one_step_update.self_s": own("em.one_step_update"),
        "evaluate.metrics_report.ms": total("evaluate.metrics_report") * 1e3,
        "cli.self_s": cli_self,
        "trace.spans": len(duration),
        "trace.untraced_s": untraced_s,
        "trace.traced_s": traced_s,
        "trace.overhead_s": traced_s - untraced_s,
    }


# --------------------------------------------------------------------- runs

def machine_info() -> dict:
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    commit = None
    if (ROOT / ".git").exists():
        try:
            proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                                  capture_output=True, text=True)
            commit = proc.stdout.strip() or None
        except OSError:
            pass
    try:
        numpy_version = metadata.version("numpy")
    except metadata.PackageNotFoundError:
        numpy_version = None
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy_version,
        "commit": commit,
        "src_sha256": source_digest(),
    }


def repeat_for(seconds: float, request) -> None:
    """Call request() at least once, and again while another call is
    expected to end nearer to `seconds` than stopping now would."""
    start = time.perf_counter()
    done = 0
    while True:
        request()
        done += 1
        elapsed = time.perf_counter() - start
        if elapsed + elapsed / done / 2 >= seconds:
            return


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 workloads: dict = WORKLOADS, work: Path = WORK_DIR,
                 reference_dir: Path = REFERENCE_DIR) -> tuple[Outcome, dict, dict]:
    """Returns the outcome, the metrics for the final line and the figures."""
    workload = workloads[name]
    input_seed = seed % INPUT_SEEDS
    inputs = prepare_inputs(work, name, workload, input_seed)
    digest = source_digest()
    ctx = Context(workload, inputs, load_reference(name, input_seed, reference_dir),
                  work / "runs" / name,
                  work / "digests" / f"{name}-{input_seed}-{digest[:16]}.sha256")
    ctx.runs.mkdir(parents=True, exist_ok=True)
    outcome = Outcome()
    serve = workload.kind == "serve"

    if trace:
        spans = ctx.runs / "spans.npz"
        spans.unlink(missing_ok=True)
        if serve:
            untraced = serve_request(ctx, outcome, 0.0)
            traced = serve_request(ctx, outcome, 0.0, spans)
        else:
            untraced = [cli_request(ctx, outcome)]
            traced = [cli_request(ctx, outcome, spans)]
        n_nodes = len(json.loads((inputs / "tree.json").read_text(encoding="utf-8"))["nodes"])
        if untraced and traced and spans.is_file():
            metrics = layer_metrics(spans, traced[0], untraced[0], n_nodes)
        else:
            metrics = {}
        return outcome, metrics, {}

    outcome.setup_s = [time_setup(workload, inputs) for _ in range(SETUP_REPEATS)]
    pass_walls: list[float] = []
    if serve:
        pass_walls = serve_request(ctx, outcome, seconds)
    else:
        repeat_for(seconds, lambda: cli_request(ctx, outcome))
    if not outcome.latencies_s:
        return outcome, {}, {}
    return outcome, end_to_end(outcome), figures(name, outcome, pass_walls)


def benchmark_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def result_line(outcome: Outcome, metrics: dict, declared: list[dict]) -> dict:
    """The final JSON line; a metric the run could not measure fails the run."""
    out = {m["name"]: {"value": metrics.get(m["name"], 0.0), "unit": m["unit"]}
           for m in declared}
    correct = outcome.failed == 0 and all(m["name"] in metrics for m in declared)
    return {"correct": correct, "attempted": max(outcome.attempted, 1),
            "failed": outcome.failed if outcome.attempted else 1, "metrics": out}


def run_all(seed: int, seconds: float) -> int:
    """Every workload, untraced then traced, each in a fresh run.py process:
    a child's peak RSS includes its parent's RSS at exec time, so the parent
    of every measured process must stay small."""
    attempted = failed = 0
    for name in WORKLOADS:
        for trace in (0, 1):
            proc = subprocess.run(
                [sys.executable, __file__, "--workload", name, "--seed", str(seed),
                 "--seconds", repr(seconds), "--trace", str(trace)],
                capture_output=True, text=True)
            sys.stderr.write(proc.stderr)
            if proc.returncode != 0:
                return proc.returncode
            *details, last = proc.stdout.strip().splitlines()
            result = json.loads(last)
            attempted += result["attempted"]
            failed += result["failed"]
            print(*details, json.dumps({"workload": name, "trace": trace, **result}),
                  sep="\n", flush=True)
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": {}}))
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "treekt" / "cli.py").is_file():
        print(f"error: no treekt sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args.seed, args.seconds)
    trace = bool(args.trace)
    try:
        outcome, metrics, fig = run_workload(args.workload, args.seed, args.seconds, trace)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    spec = benchmark_spec()
    declared = spec["per_layer"] if trace else spec["end_to_end"]
    print(json.dumps({"workload": args.workload, "seed": args.seed,
                      "input_seed": args.seed % INPUT_SEEDS, "trace": args.trace,
                      "machine": machine_info(), "figures": fig,
                      "problems": outcome.problems}))
    print(json.dumps(result_line(outcome, metrics, declared)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
