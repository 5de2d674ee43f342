"""Child-process side of the treekt benchmark.

Every mode runs in its own interpreter, so each measurement pays the same
imports and its peak resident memory belongs to the work alone:

    worker.py setup <fit|eval|serve> <inputs> <burn_in>
        Does what the program does before its first inference call, prints
        "ready" and exits. The parent times spawn to "ready".
    worker.py serve <inputs> <out dir> <seconds> <burn_in> [--trace spans.npz]
        Closed loop with one client: for every post-burn-in response in stream
        order, predict_next then observe, on a frozen-parameter session.
        Writes walls.f64 (one per pass), latencies.f64 (seconds, one per step)
        and predictions.f64 (every pass, concatenated), as native doubles.
    worker.py cli <spans.npz> <treekt arguments...>
        Runs treekt.cli.main with tracing on.

Tracing wraps, from outside the program, every public function of the
traced modules that another module or the package namespace binds, i.e.
the calls that cross a layer boundary. Names are bound at import time
(em imports posteriors, online imports one_step_update, ...), so every
binding of a wrapped function is replaced, not only the defining one.
"""

from __future__ import annotations

import importlib
import sys
import time
from array import array
from pathlib import Path

TRACED_MODULES = ("tree", "online", "inference", "em", "evaluate", "cli")


class Tracer:
    """Spans kept in flat arrays: name id, parent span (-1 at top level),
    start, end, and the number of students a kernel call covered."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.name_ids = array("i")
        self.parents = array("i")
        self.starts = array("d")
        self.ends = array("d")
        self.students = array("i")
        self.stack = [-1]
        self.fit_results: list[tuple[int, bool]] = []

    def install(self) -> None:
        """Wrap each boundary function and rebind it everywhere it is bound."""
        import treekt

        modules = [importlib.import_module(f"treekt.{m}") for m in TRACED_MODULES]
        namespaces = [m for n, m in sys.modules.items()
                      if n == treekt.__name__ or n.startswith("treekt.")]
        for module in modules:
            short = module.__name__.rsplit(".", 1)[1]
            for attr, fn in list(vars(module).items()):
                if attr.startswith("_") or not callable(fn) or isinstance(fn, type):
                    continue
                if getattr(fn, "__module__", None) != module.__name__:
                    continue
                bound_elsewhere = any(
                    vars(ns).get(attr) is fn for ns in namespaces if ns is not module
                )
                if not bound_elsewhere and (short, attr) != ("cli", "main"):
                    continue
                wrapped = self._wrap(f"{short}.{attr}", fn)
                for ns in namespaces:
                    for key, value in list(vars(ns).items()):
                        if value is fn:
                            setattr(ns, key, wrapped)

    def _wrap(self, name: str, fn):
        name_id = len(self.names)
        self.names.append(name)
        counts_students = name == "inference.posteriors"
        keeps_fit = name == "em.fit"
        perf = time.perf_counter
        stack = self.stack

        def traced(*args, **kwargs):
            idx = len(self.starts)
            self.name_ids.append(name_id)
            self.parents.append(stack[-1])
            self.ends.append(0.0)
            students = 0
            if counts_students:
                obs = args[2] if len(args) > 2 else kwargs.get("obs")
                students = len(obs) if isinstance(obs, (list, tuple)) else 1
            self.students.append(students)
            stack.append(idx)
            self.starts.append(perf())
            try:
                result = fn(*args, **kwargs)
            finally:
                self.ends[idx] = perf()
                stack.pop()
            if keeps_fit:
                self.fit_results.append((int(result.iterations), bool(result.converged)))
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    def save(self, path: str) -> None:
        import numpy as np

        np.savez(
            path,
            names=np.array(self.names, dtype=str),
            name_ids=np.frombuffer(self.name_ids, dtype=np.int32),
            parents=np.frombuffer(self.parents, dtype=np.int32),
            starts=np.frombuffer(self.starts, dtype=np.float64),
            ends=np.frombuffer(self.ends, dtype=np.float64),
            students=np.frombuffer(self.students, dtype=np.int32),
            fit_results=np.array(self.fit_results, dtype=np.int64).reshape(-1, 2),
        )


def setup(kind: str, inputs: Path, burn_in: int) -> None:
    """Import, load the tree and stream, split off burn-in and build the
    dataset or session: everything up to the first inference call."""
    import treekt
    from treekt import online

    tree = treekt.load_tree(str(inputs / "tree.json"))
    stream = online.load_stream(str(inputs / "stream.jsonl"))
    if kind == "fit":
        by_student: dict[str, list] = {}
        for rec in stream:
            by_student.setdefault(rec.student_id, []).append(rec.interaction())
        groups = by_student
    else:
        groups, _ = online.split_burn_in(stream, burn_in)
    if kind == "serve":
        theta = treekt.Parameters.from_json((inputs / "theta_star.json").read_text())
        online.ClassroomSession(tree=tree, burn_in=groups, theta_init=theta,
                                update_batch=None)
    else:
        # The dataset the E-step would run on next; built and dropped.
        [treekt.StudentObservations(sid, treekt.observation_set(tree, v))
         for sid, v in groups.items()]


def serve(inputs: Path, out: Path, seconds: float, burn_in: int,
          spans_path: str | None) -> None:
    tracer = None
    if spans_path is not None:
        tracer = Tracer()
        tracer.install()
    import treekt
    from treekt import online

    tree = treekt.load_tree(str(inputs / "tree.json"))
    stream = online.load_stream(str(inputs / "stream.jsonl"))
    burn, remainder = online.split_burn_in(stream, burn_in)
    theta = treekt.Parameters.from_json((inputs / "theta_star.json").read_text())
    steps = [
        (rec.student_id, treekt.QuestionMeta(rec.question_id, rec.kc, rec.difficulty),
         rec.interaction())
        for rec in remainder
    ]
    perf = time.perf_counter
    # Flat arrays keep the worker's own memory small and independent of the
    # number of passes, so peak RSS measures the program.
    walls, latencies, predictions = array("d"), array("d"), array("d")
    start = perf()
    while True:
        # A fresh session per pass: update_batch=None freezes the parameters,
        # so observe only appends and every pass predicts the same values.
        session = online.ClassroomSession(tree=tree, burn_in=burn, theta_init=theta,
                                          update_batch=None)
        pass_start = perf()
        for sid, question, interaction in steps:
            t0 = perf()
            pred = online.predict_next(session, sid, question)
            online.observe(session, sid, interaction)
            latencies.append(perf() - t0)
            predictions.append(pred.prob_correct)
        walls.append(perf() - pass_start)
        elapsed = perf() - start
        if elapsed + (elapsed / len(walls)) / 2 >= seconds:
            break
    if tracer is not None:
        tracer.save(spans_path)
    out.mkdir(parents=True, exist_ok=True)
    for name, values in (("walls", walls), ("latencies", latencies),
                         ("predictions", predictions)):
        with open(out / f"{name}.f64", "wb") as fh:
            values.tofile(fh)


def traced_cli(spans_path: str, argv: list[str]) -> int:
    tracer = Tracer()
    tracer.install()
    from treekt import cli

    try:
        return cli.main(argv)
    finally:
        tracer.save(spans_path)


def main(argv: list[str]) -> int:
    mode = argv[0]
    if mode == "setup":
        setup(argv[1], Path(argv[2]), int(argv[3]))
        print("ready", flush=True)
        return 0
    if mode == "serve":
        spans = argv[argv.index("--trace") + 1] if "--trace" in argv else None
        serve(Path(argv[1]), Path(argv[2]), float(argv[3]), int(argv[4]), spans)
        return 0
    if mode == "cli":
        return traced_cli(argv[1], argv[2:])
    print(f"unknown mode {mode!r}", file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
