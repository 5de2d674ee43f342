"""Command-line entry point.

Exit codes: 0 success, 1 domain failure (validation violations, oracle
mismatch), 2 environment failure (missing files, unparseable input).

Option precedence: explicit flags > --config file (key=value lines) >
TREEKT_* environment variables > built-in defaults; each command reads the
config keys it takes and ignores the others. Only main, not the library,
has glibc keep inference.HEAP_TOP_PAD freed bytes at the heap top.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import sys
from pathlib import Path
from typing import Iterable

import numpy as np

from . import __version__
from .evaluate import ExperimentConfig, csv_lines, run_experiment
from .inference import HEAP_TOP_PAD, Interaction
from .model import Parameters, default_parameters
from .online import StreamFormatError, burn_in_fit, load_stream, prediction_lines
from .tree import (
    TreeFormatError,
    ValidationReport,
    load_tree,
    serialize_questions,
    serialize_tree,
    utf8_line,
)
from .online import serialize_stream

ENV_PREFIX = "TREEKT_"

#: Each layered option's type and default.
_OPTIONS = {
    "burn_in": (int, 10),
    "tol": (float, 1e-6),
    "max_iters": (int, 100),
    "seed": (int, 0),
    "threshold": (float, 0.5),
}


class OptionError(ValueError):
    """A --config line or TREEKT_* variable holds a value that cannot be
    read; the message names the key and where it came from."""


def _read_config(path: str | None) -> dict:
    """key=value lines of a --config file. OptionError names the file and
    line of bytes that are not UTF-8, of a line with no '=' and of a key
    that sets no option (threads is accepted and ignored)."""
    if path is None:
        return {}
    try:
        text = Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise OptionError(f"{path}: line {utf8_line(exc)}: not UTF-8 text: {exc}") from exc
    config = {}
    for i, line in enumerate(text.splitlines(), start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        key, eq, value = (part.strip() for part in line.partition("="))
        if not eq:
            raise OptionError(f"{path}: line {i}: expected key = value, got {line!r}")
        if key not in _OPTIONS and key != "threads":
            raise OptionError(f"{path}: line {i}: unknown key {key!r}")
        config[key] = value
    return config


def _resolve(args: argparse.Namespace) -> argparse.Namespace:
    """The command's layered options: flags > config file > environment >
    defaults."""
    config_path = getattr(args, "config", None)
    config = _read_config(config_path)
    for name, (kind, default) in _OPTIONS.items():
        if getattr(args, name, 0) is not None:  # not the command's, or a flag
            continue
        env_name = ENV_PREFIX + name.upper()
        raw, source = default, None
        if name in config:
            raw, source = config[name], f"{config_path}: {name}"
        elif env_name in os.environ:
            raw, source = os.environ[env_name], env_name
        try:
            setattr(args, name, kind(raw))
        except ValueError as exc:
            raise OptionError(f"{source}: {exc}") from None
    # Refuse values no run can honour before any work.
    if getattr(args, "seed", 0) < 0:
        raise ValueError(f"--seed {args.seed}: must be at least 0")
    if getattr(args, "max_iters", 1) < 1:
        raise ValueError(f"--max-iters {args.max_iters}: EM needs at least one iteration")
    if not 0.0 <= getattr(args, "threshold", 0.5) <= 1.0:  # also NaN
        raise ValueError(f"--threshold {args.threshold}: a cut on a probability "
                         "must lie in [0, 1]")
    if not getattr(args, "tol", 0.0) >= 0.0:  # also NaN
        raise ValueError(f"--tol {args.tol}: EM's tolerance must be a number >= 0")
    return args


def _write(path: Path, text: str | Iterable[str]) -> None:
    """Write a text, or its lines one at a time without joining them."""
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w", encoding="utf-8") as fh:
        fh.writelines([text] if isinstance(text, str) else text)


def _write_all(out: Path, files: dict[str, str | Iterable[str]]) -> None:
    """_write each file under a temporary name in out, then rename every
    one into place. Whatever fails first, the temporary files are removed,
    and so are out and its parents where this call made them, so a failed
    run leaves no new or partial file or directory."""
    made = [path for path in (out, *out.parents) if not path.exists()]  # deepest first
    temps = {out / name: out / f".{name}.{os.getpid()}.tmp" for name in files}
    try:
        for temp, text in zip(temps.values(), files.values()):
            _write(temp, text)
        for path, temp in temps.items():
            os.replace(temp, path)
    except BaseException:
        for temp in temps.values():
            temp.unlink(missing_ok=True)
        for path in made:
            with contextlib.suppress(OSError):  # not empty: a file was renamed in
                path.rmdir()
        raise


def _warn_fit(report, tol: float) -> None:
    """The fit's summary on stderr: ordering breaks, then no convergence."""
    p, breaks = report.params, report.ordering_breaks
    if breaks:
        print(f"emission ordering epsilon < r_hard < r_med < r_easy violated after "
              f"{len(breaks)} of {report.iterations} M-steps, first after M-step {breaks[0]}; "
              f"final epsilon={p.epsilon:.6g} r_hard={p.r_hard:.6g} r_med={p.r_med:.6g} "
              f"r_easy={p.r_easy:.6g}", file=sys.stderr)
    if not report.converged:  # so it ran max_iters iterations
        print(f"EM did not converge within max_iters={report.iterations} (tol={tol:g})",
              file=sys.stderr)


def cmd_validate_tree(args) -> int:
    try:
        load_tree(args.tree)
    except TreeFormatError as exc:
        if isinstance(exc.__cause__, (ValueError, RecursionError)):  # json's or UTF-8's
            raise  # unparseable document is an environment failure
        print(f"violation: {exc}")
        return 1
    print(ValidationReport())  # load_tree raised on every violation
    return 0


def _fit_histories(path: str, tree) -> dict[str, list]:
    """Each student's responses in stream order, as `treekt fit` holds
    them. A fit reads a response's kc, difficulty and correct only, so a
    history holds the first record of each such cell: one pointer per
    response, and at most 6 V records in all (load_stream's sink)."""
    by_student: dict[str, list] = {}
    cells: dict[tuple, object] = {}

    def keep(rec) -> None:
        by_student.setdefault(rec.student_id, []).append(
            cells.setdefault((rec.kc, rec.difficulty, rec.correct), rec))

    load_stream(path, tree, sink=keep)
    return by_student


def cmd_fit(args) -> int:
    tree = load_tree(args.tree)
    by_student = _fit_histories(args.stream, tree)
    if not by_student:
        print("error: stream is empty", file=sys.stderr)
        return 1
    report = burn_in_fit(tree, by_student, max_iters=args.max_iters,
                         tol=args.tol).fit_report
    _warn_fit(report, args.tol)
    _write_all(Path(args.out), {"params.json": report.params.to_json(),
                                "fit_report.json": report.to_json()})
    print(
        f"fit: {report.iterations} iterations, converged={report.converged}, "
        f"final LL={report.log_likelihood_trace[-1]:.6f}"
    )
    return 0


def cmd_simulate(args) -> int:
    from .simulate import SimConfig, generate_classroom, random_question_bank, random_tree

    for name, least in (("students", 0), ("interactions", 0), ("nodes", 1),
                        ("questions_per_leaf", 1)):
        if getattr(args, name) < least:  # before any work, as in oracle-check
            raise ValueError(f"--{name.replace('_', '-')} {getattr(args, name)}: "
                             f"must be at least {least}")
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
    _write_all(out, {"tree.json": serialize_tree(tree),
                     "questions.jsonl": serialize_questions(bank),
                     "stream.jsonl": serialize_stream(stream),
                     "theta_star.json": params.to_json(),
                     "ground_truth.json": truth.to_json()})
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
    _warn_fit(result.session.fit_report, args.tol)
    _write_all(Path(args.out), {"metrics.json": result.report.to_json(),
                                "predictions.jsonl": prediction_lines(result.records),
                                "predictions.csv": csv_lines(result.records)})
    print(result.report.table())
    return 0


def cmd_oracle_check(args) -> int:
    from .simulate import (
        ENUMERATION_LIMIT,
        brute_force_posteriors,
        random_question_bank,
        random_tree,
        sample_response,
        sample_states,
    )
    from .view import observation_set, posteriors

    if args.instances < 0:
        raise ValueError(f"--instances {args.instances}: cannot be negative")
    if not 2 <= args.max_nodes <= ENUMERATION_LIMIT:
        raise ValueError(f"--max-nodes {args.max_nodes}: enumeration takes trees of "
                         f"2 to {ENUMERATION_LIMIT} nodes")
    if args.instances == 0:
        print("warning: 0 instances requested; vacuous pass", file=sys.stderr)
        return 0
    rng = np.random.default_rng(args.seed)
    worst = 0.0
    for _ in range(args.instances):
        n_nodes = int(rng.integers(2, args.max_nodes + 1))
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


def _pin_heap_top() -> None:
    """glibc's mallopt(M_TOP_PAD, HEAP_TOP_PAD); skipped where libc has none."""
    import ctypes
    try:  # M_TOP_PAD is -2 in malloc.h; mallopt takes and returns C ints
        ctypes.CDLL(None).mallopt(ctypes.c_int(-2), ctypes.c_int(HEAP_TOP_PAD))
    except (OSError, TypeError, AttributeError):
        pass


def main(argv: list[str] | None = None) -> int:
    _pin_heap_top()
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        args = _resolve(args)
        return args.func(args)
    except (OSError, json.JSONDecodeError, TreeFormatError, StreamFormatError,
            OptionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
