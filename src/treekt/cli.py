"""Command-line entry point.

Exit codes: 0 success, 1 domain failure (validation violations, oracle
mismatch), 2 environment failure (missing files, unparseable input).

Option precedence: explicit flags > --config file (key=value lines) >
TREEKT_* environment variables > built-in defaults.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path
from typing import Iterable

import numpy as np

from . import __version__
from .evaluate import ExperimentConfig, csv_lines, run_experiment
from .inference import Interaction, observation_set, posteriors
from .model import Parameters, default_parameters
from .online import StreamFormatError, burn_in_fit, load_stream, prediction_lines
from .simulate import (
    SimConfig,
    brute_force_posteriors,
    generate_classroom,
    random_question_bank,
    random_tree,
    sample_response,
    sample_states,
)
from .tree import (
    TreeFormatError,
    load_tree,
    serialize_questions,
    serialize_tree,
    validate_tree,
)
from .online import serialize_stream

ENV_PREFIX = "TREEKT_"

_DEFAULTS = {
    "burn_in": 10,
    "tol": 1e-6,
    "max_iters": 100,
    "seed": 0,
    "threshold": 0.5,
}


def _layered_value(name: str, flag_value, config: dict, caster):
    """flags > config file > environment > defaults."""
    if flag_value is not None:
        return flag_value
    if name in config:
        return caster(config[name])
    env = os.environ.get(ENV_PREFIX + name.upper())
    if env is not None:
        return caster(env)
    return _DEFAULTS[name]


def _read_config(path: str | None) -> dict:
    if path is None:
        return {}
    config = {}
    for line in Path(path).read_text(encoding="utf-8").splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        key, _, value = line.partition("=")
        config[key.strip()] = value.strip()
    return config


def _resolve(args: argparse.Namespace) -> argparse.Namespace:
    config = _read_config(getattr(args, "config", None))
    casters = {
        "burn_in": int, "tol": float, "max_iters": int, "seed": int,
        "threshold": float,
    }
    for name, caster in casters.items():
        if hasattr(args, name):
            setattr(args, name, _layered_value(name, getattr(args, name), config, caster))
    return args


def _write(path: Path, text: str | Iterable[str]) -> None:
    """Write a text, or its lines one at a time without joining them."""
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w", encoding="utf-8") as fh:
        fh.writelines([text] if isinstance(text, str) else text)


def cmd_validate_tree(args) -> int:
    try:
        tree = load_tree(args.tree)
    except TreeFormatError as exc:
        if isinstance(exc.__cause__, json.JSONDecodeError):
            raise  # unparseable document is an environment failure
        print(f"violation: {exc}")
        return 1
    report = validate_tree(tree)
    print(report)
    return 0 if report.valid else 1


def cmd_fit(args) -> int:
    tree = load_tree(args.tree)
    stream = load_stream(args.stream, tree)
    by_student: dict[str, list] = {}
    for rec in stream:
        by_student.setdefault(rec.student_id, []).append(rec.interaction())
    if not by_student:
        print("error: stream is empty", file=sys.stderr)
        return 1
    report = burn_in_fit(tree, by_student, max_iters=args.max_iters,
                         tol=args.tol).fit_report
    out = Path(args.out)
    _write(out / "params.json", report.params.to_json())
    _write(out / "fit_report.json", report.to_json())
    print(
        f"fit: {report.iterations} iterations, converged={report.converged}, "
        f"final LL={report.log_likelihood_trace[-1]:.6f}"
    )
    return 0


def cmd_simulate(args) -> int:
    rng = np.random.default_rng(args.seed)
    if args.tree:
        tree = load_tree(args.tree)
    else:
        tree = random_tree(rng, args.nodes)
    params = default_parameters(tree)
    bank = random_question_bank(rng, tree, per_leaf=args.questions_per_leaf)
    config = SimConfig(
        n_students=args.students,
        n_interactions=args.interactions,
        seed=args.seed,
    )
    stream, truth = generate_classroom(tree, params, bank, config)
    out = Path(args.out)
    _write(out / "tree.json", serialize_tree(tree))
    _write(out / "questions.jsonl", serialize_questions(bank))
    _write(out / "stream.jsonl", serialize_stream(stream))
    _write(out / "theta_star.json", params.to_json())
    _write(out / "ground_truth.json", truth.to_json())
    print(f"simulated {config.n_students} students x {config.n_interactions} "
          f"interactions into {out}")
    return 0


def cmd_eval(args) -> int:
    tree = load_tree(args.tree)
    stream = load_stream(args.stream, tree)
    config = ExperimentConfig(
        burn_in_count=args.burn_in,
        threshold=args.threshold,
        em_tol=args.tol,
        em_max_iters=args.max_iters,
    )
    result = run_experiment(tree, stream, config)
    out = Path(args.out)
    _write(out / "metrics.json", result.report.to_json())
    _write(out / "predictions.jsonl", prediction_lines(result.records))
    _write(out / "predictions.csv", csv_lines(result.records))
    print(result.report.table())
    return 0


def cmd_oracle_check(args) -> int:
    if args.instances == 0:
        print("warning: 0 instances requested; vacuous pass", file=sys.stderr)
        return 0
    rng = np.random.default_rng(args.seed)
    worst = 0.0
    for _ in range(args.instances):
        n_nodes = int(rng.integers(2, args.max_nodes + 1))
        if n_nodes > 20:
            print("error: tree too large for enumeration", file=sys.stderr)
            return 1
        tree = random_tree(rng, n_nodes)
        params = _perturbed_parameters(tree, rng)
        bank = random_question_bank(rng, tree, per_leaf=2)
        n_obs = int(rng.integers(0, 31))
        interactions = []
        states = sample_states(tree, params, rng)
        for _ in range(n_obs):
            q = bank[int(rng.integers(len(bank)))]
            interactions.append(
                Interaction(q.question_id, q.kc, q.difficulty,
                            sample_response(params, q, states, rng))
            )
        obs = observation_set(tree, interactions)
        belief = posteriors(tree, params, obs)
        oracle = brute_force_posteriors(tree, params, obs)
        for node in tree.nodes:
            worst = max(worst, abs(belief.marginal[node] - oracle.marginal[node]))
            if node != tree.root:
                for cell, value in oracle.pairwise[node].items():
                    worst = max(worst, abs(belief.pairwise[node][cell] - value))
        worst = max(worst, abs(belief.log_likelihood - oracle.log_likelihood))
    print(f"oracle check: {args.instances} instances, max deviation {worst:.3e}")
    return 0 if worst < 1e-10 else 1


def _perturbed_parameters(tree, rng) -> Parameters:
    base = default_parameters(tree)
    jitter = lambda v, lo, hi: float(np.clip(v + rng.uniform(-0.05, 0.05), lo, hi))
    return Parameters(
        gamma={n: float(rng.uniform(0.05, 0.6)) for n in tree.nodes},
        r_easy=jitter(base.r_easy, 0.82, 0.97),
        r_med=jitter(base.r_med, 0.66, 0.86),
        r_hard=jitter(base.r_hard, 0.45, 0.72),
        epsilon=jitter(base.epsilon, 0.02, 0.3),
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="treekt",
        description="Knowledge tracing over concept hierarchies",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, *names):
        p.add_argument("--config", default=None, help="key=value config file")
        if "tol" in names:
            p.add_argument("--tol", type=float, default=None)
        if "max_iters" in names:
            p.add_argument("--max-iters", dest="max_iters", type=int, default=None)
        if "threads" in names:
            p.add_argument("--threads", type=int, default=None,
                           help="accepted and ignored")
        if "seed" in names:
            p.add_argument("--seed", type=int, default=None)

    p = sub.add_parser("validate-tree", help="check a tree file's invariants")
    p.add_argument("--tree", required=True)
    p.add_argument("--config", default=None)
    p.set_defaults(func=cmd_validate_tree)

    p = sub.add_parser("fit", help="fit model parameters on a stream")
    p.add_argument("--tree", required=True)
    p.add_argument("--stream", required=True)
    p.add_argument("--out", required=True)
    common(p, "tol", "max_iters", "threads")
    p.set_defaults(func=cmd_fit)

    p = sub.add_parser("simulate", help="generate a synthetic classroom")
    p.add_argument("--tree", default=None, help="use this tree instead of a random one")
    p.add_argument("--nodes", type=int, default=12)
    p.add_argument("--students", type=int, default=100)
    p.add_argument("--interactions", type=int, default=50)
    p.add_argument("--questions-per-leaf", dest="questions_per_leaf",
                   type=int, default=3)
    p.add_argument("--out", required=True)
    common(p, "seed")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("eval", help="burn-in fit, prequential replay, metrics")
    p.add_argument("--tree", required=True)
    p.add_argument("--stream", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--burn-in", dest="burn_in", type=int, default=None)
    p.add_argument("--threshold", type=float, default=None)
    common(p, "tol", "max_iters", "threads")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("oracle-check", help="message passing vs enumeration")
    p.add_argument("--instances", type=int, default=200)
    p.add_argument("--max-nodes", dest="max_nodes", type=int, default=8)
    p.add_argument("--config", default=None)
    p.add_argument("--seed", type=int, default=None)
    p.set_defaults(func=cmd_oracle_check)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        args = _resolve(args)
        return args.func(args)
    except (OSError, json.JSONDecodeError, TreeFormatError, StreamFormatError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
