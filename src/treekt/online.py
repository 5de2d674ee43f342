"""Streaming classroom lifecycle: communal burn-in, per-student models,
observe/predict, and prequential replay.

A session is fitted once on pooled early interactions. Each student then
gets a personalized parameter copy that is refreshed with a single EM
iteration over the burn-in data plus that student's own history after every
new response (optionally batched). Students never see each other's
post-burn-in data.

So the t-th update of one student does not depend on any other student's,
and work runs in rounds of distinct students. A round predicts one question
per student in one kernel call, each column at that student's parameters,
then reveals one response per student and runs every update that falls due
as one E-step over a [V, 6, T, S] slab: per target, the burn-in pool with
the target's column replaced by (or, for a newcomer, joined by) the
target's full history. Slabs hold at most SLAB_CELLS cells. replay runs
the stream as rounds; observe and predict_next are rounds of one student.
"""

from __future__ import annotations

import json
from bisect import bisect_left
from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterable, Iterator, Mapping, Sequence

import numpy as np

from .em import FitReport, batch_e_step, fit, m_step
from .inference import (
    BeliefTable,
    InferenceError,
    Interaction,
    Prediction,
    batch_posteriors,
    cell_slots,
    leaf_error,
    log_parameters,
    pack_counts,
    predict,
)
from .model import Parameters, default_parameters
from .tree import ConceptTree, Difficulty, QuestionMeta

#: Cells (targets x pool columns x nodes) of one slab of one-step updates.
#: It bounds the memory of a round whatever the pool's size, and, being
#: fixed, keeps every result the same from run to run.
SLAB_CELLS = 4800


@dataclass(frozen=True)
class StreamRecord:
    """One line of the interaction stream file."""

    student_id: str
    question_id: str
    kc: str
    difficulty: Difficulty
    correct: int
    seq: int

    def interaction(self) -> Interaction:
        return Interaction(self.question_id, self.kc, self.difficulty, self.correct)


@dataclass(frozen=True)
class PredictionRecord:
    student_id: str
    question_id: str
    p_correct: float
    actual: int
    seq: int


@dataclass
class StudentModel:
    student_id: str
    params: Parameters
    history: list[Interaction] = field(default_factory=list)
    pending: int = 0
    packed: np.ndarray | None = field(default=None, repr=False, compare=False)


@dataclass
class ClassroomSession:
    """Shared fitted model plus per-student personalized models.

    update_batch controls how many new responses accumulate before a
    one-step EM refresh (1 = after every response); None freezes parameters,
    which is how a ground-truth model is scored on a stream.
    """

    tree: ConceptTree
    burn_in: dict[str, list[Interaction]]
    theta_init: Parameters
    fit_report: FitReport | None = None
    students: dict[str, StudentModel] = field(default_factory=dict)
    update_batch: int | None = 1

    def student_history(self, student_id: str) -> list[Interaction]:
        """Burn-in plus post-burn-in responses; the conditioning set."""
        history = list(self.burn_in.get(student_id, []))
        model = self.students.get(student_id)
        if model is not None:
            history.extend(model.history)
        return history

    def _history_counts(self, student_id: str) -> np.ndarray:
        """The conditioning set as one kernel column [V, 6, 1]. A session
        that updates keeps it on the student's model, where each revealed
        response is added; it is no larger than the student's column in the
        burn-in pool. A frozen session packs it on demand."""
        model = self.students.get(student_id)
        if model is not None and model.packed is not None:
            return model.packed
        counts = pack_counts(self.tree, [self.student_history(student_id)])
        if model is not None and self.update_batch is not None:
            model.packed = counts
        return counts

    @cached_property
    def pool_ids(self) -> list[str]:
        return sorted(self.burn_in)

    @cached_property
    def pool_counts(self) -> np.ndarray:
        """The burn-in pool as kernel counts in student-id order, packed once."""
        return pack_counts(self.tree, [self.burn_in[sid] for sid in self.pool_ids])

    def _slab(self, targets: Sequence[str]) -> np.ndarray:
        """The update datasets of T targets as [V, 6, T, S]: per target, the
        pool in student-id order with the target's column replaced by its
        full history. Targets are all in the pool, or all newcomers, whose
        column is inserted in order instead."""
        pool = self.pool_counts
        columns = np.concatenate([*map(self._history_counts, targets)], axis=2)
        at = [bisect_left(self.pool_ids, sid) for sid in targets]
        if targets[0] in self.burn_in:
            slab = np.repeat(pool[:, :, None, :], len(targets), axis=2)
            slab[:, :, np.arange(len(targets)), at] = columns
            return slab
        return np.stack([np.insert(pool, j, columns[:, :, t], axis=2)
                         for t, j in enumerate(at)], axis=2)


def burn_in_fit(
    tree: ConceptTree,
    burn_in: Mapping[str, Sequence[Interaction]],
    init: Parameters | None = None,
    max_iters: int = 100,
    tol: float = 1e-6,
    update_batch: int | None = 1,
) -> ClassroomSession:
    """Fit the shared model on pooled early interactions, to convergence."""
    if not burn_in or not any(burn_in.values()):
        raise ValueError("burn-in data must be non-empty")
    session = ClassroomSession(
        tree=tree,
        burn_in={sid: list(v) for sid, v in burn_in.items()},
        theta_init=default_parameters(tree) if init is None else init,
        update_batch=update_batch,
    )
    session.fit_report = fit(tree, session.pool_counts, session.theta_init,
                             max_iters=max_iters, tol=tol)
    session.theta_init = session.fit_report.params
    return session


def _predict_round(
    session: ClassroomSession, student_ids: Sequence[str],
    questions: Sequence[QuestionMeta],
) -> list[Prediction]:
    """Predict one question for each of distinct students, every student at
    their own parameters and history, in kernel calls of SLAB_CELLS."""
    tree, preds = session.tree, []
    size = max(1, SLAB_CELLS // len(tree.nodes))
    for a in range(0, len(student_ids), size):
        chunk = student_ids[a:a + size]
        params = [
            model.params if model is not None else session.theta_init
            for model in map(session.students.get, chunk)
        ]
        counts = np.concatenate([*map(session._history_counts, chunk)], axis=2)
        post = batch_posteriors(tree, log_parameters(tree, params), counts)
        preds += [predict(p, BeliefTable(post, column), question)
                  for column, (p, question) in enumerate(zip(params, questions[a:]))]
    return preds


def _reveal_round(
    session: ClassroomSession, events: Sequence[tuple[str, Interaction]]
) -> None:
    """Append one response to each of distinct students' histories, then
    run every one-step update that falls due, in slabs of SLAB_CELLS."""
    tree, due = session.tree, []
    for student_id, interaction in events:
        model = session.students.get(student_id)
        if model is None:
            model = StudentModel(student_id=student_id, params=session.theta_init)
            session.students[student_id] = model
        if model.packed is not None:
            model.packed.flat[cell_slots(tree, [interaction])[0]] += 1.0
        model.history.append(interaction)
        if session.update_batch is None:
            continue
        model.pending += 1
        if model.pending >= session.update_batch:
            due.append(model)
    if not due:
        return
    for inserted in (False, True):
        group = [m for m in due if (m.student_id not in session.burn_in) == inserted]
        size = max(1, SLAB_CELLS // (len(tree.nodes) * (len(session.burn_in) + inserted)))
        for a in range(0, len(group), size):
            chunk = group[a:a + size]
            slab = session._slab([m.student_id for m in chunk])
            steps = batch_e_step(tree, [m.params for m in chunk], slab)
            for model, (stats, _) in zip(chunk, steps):
                model.params = m_step(stats, model.params)
                model.pending = 0


def observe(
    session: ClassroomSession, student_id: str, interaction: Interaction
) -> ClassroomSession:
    """Append a response to the student's history and refresh their model
    with a single EM iteration over burn-in data plus their history."""
    _reveal_round(session, [(student_id, interaction)])
    return session


def predict_next(
    session: ClassroomSession, student_id: str, question: QuestionMeta
) -> Prediction:
    """Posterior over the question's concept given the student's history,
    blended with the emission rates. Unseen students use the shared model
    and an empty personal history."""
    return _predict_round(session, [student_id], [question])[0]


def replay(
    session: ClassroomSession, stream: Sequence[StreamRecord]
) -> list[PredictionRecord]:
    """Prequential loop: predict each response before revealing it.

    Runs in lock-step rounds: round t predicts the t-th response of every
    student with that many left, then reveals them all. A student's
    responses keep their stream order, and students do not see each
    other's, so this equals predicting and revealing in stream order.
    Records come back in stream order."""
    queues: dict[str, list[int]] = {}
    for i, rec in enumerate(stream):
        queues.setdefault(rec.student_id, []).append(i)
    records: list = [None] * len(stream)
    for t in range(max(map(len, queues.values()), default=0)):
        batch = [(i, stream[i]) for i in (q[t] for q in queues.values() if len(q) > t)]
        preds = _predict_round(
            session, [rec.student_id for _, rec in batch],
            [QuestionMeta(rec.question_id, rec.kc, rec.difficulty) for _, rec in batch])
        for (i, rec), pred in zip(batch, preds):
            records[i] = PredictionRecord(
                student_id=rec.student_id,
                question_id=rec.question_id,
                p_correct=pred.prob_correct,
                actual=rec.correct,
                seq=rec.seq,
            )
        _reveal_round(session, [(rec.student_id, rec.interaction()) for _, rec in batch])
    return records


class StreamFormatError(ValueError):
    """A stream line cannot be read; the message names the file and line."""


#: Stream fields and their JSON types; difficulty is also a Difficulty value.
_STREAM_FIELDS = {"student_id": str, "question_id": str, "kc_id": str,
                  "difficulty": str, "correct": int, "seq": int}


def _stream_record(raw) -> StreamRecord:
    if not isinstance(raw, dict):
        raise TypeError(f"expected a JSON object, got {type(raw).__name__}")
    for key, kind in _STREAM_FIELDS.items():
        value = raw[key]
        if not isinstance(value, kind) or isinstance(value, bool):
            kind_name = "a string" if kind is str else "an integer"
            raise TypeError(f"{key} must be {kind_name}, got {value!r}")
    if raw["correct"] not in (0, 1):
        raise ValueError(f"correct must be 0 or 1, got {raw['correct']!r}")
    return StreamRecord(raw["student_id"], raw["question_id"], raw["kc_id"],
                        Difficulty(raw["difficulty"]), raw["correct"], raw["seq"])


def parse_stream(
    document: str, source: str = "<stream>", tree: ConceptTree | None = None
) -> list[StreamRecord]:
    """Parse JSON-lines stream records; source names the document in errors.
    Replay follows each student's seq order, so a student's seq must
    increase strictly from each of their lines to the next. Given a tree,
    a kc_id that is not one of its leaves raises InferenceError (a domain
    failure, not a format error) naming the line."""
    records = []
    last: dict[str, tuple[int, int]] = {}
    leaves = None if tree is None else frozenset(tree.leaves())
    for i, line in enumerate(document.splitlines(), start=1):
        if not line.strip():
            continue
        try:
            record = _stream_record(json.loads(line))
        except (KeyError, ValueError, TypeError) as exc:
            detail = f"missing key {exc}" if isinstance(exc, KeyError) else exc
            raise StreamFormatError(
                f"{source}:{i}: bad stream record on line {i}: {detail}") from exc
        seq, line_no = last.get(record.student_id, (None, None))
        if seq is not None and record.seq <= seq:
            raise StreamFormatError(
                f"{source}:{i}: seq {record.seq} of student {record.student_id!r} "
                f"does not follow seq {seq} on line {line_no}")
        last[record.student_id] = (record.seq, i)
        if leaves is not None and record.kc not in leaves:
            raise InferenceError(f"{source}:{i}: {leaf_error(tree, record.kc)}")
        records.append(record)
    return records


def serialize_stream(records: Iterable[StreamRecord]) -> str:
    lines = [
        json.dumps(
            {
                "student_id": r.student_id,
                "question_id": r.question_id,
                "kc_id": r.kc,
                "difficulty": r.difficulty.value,
                "correct": r.correct,
                "seq": r.seq,
            },
            sort_keys=True,
        )
        for r in records
    ]
    return "\n".join(lines) + ("\n" if lines else "")


def load_stream(path: str, tree: ConceptTree | None = None) -> list[StreamRecord]:
    with open(path, encoding="utf-8") as fh:
        return parse_stream(fh.read(), source=path, tree=tree)


def prediction_lines(records: Iterable[PredictionRecord]) -> Iterator[str]:
    """predictions.jsonl one record at a time, each line with its newline."""
    for r in records:
        yield json.dumps(
            {
                "student_id": r.student_id,
                "question_id": r.question_id,
                "p_correct": r.p_correct,
                "actual": r.actual,
                "seq": r.seq,
            },
            sort_keys=True,
        ) + "\n"


def serialize_predictions(records: Iterable[PredictionRecord]) -> str:
    return "".join(prediction_lines(records))


def split_burn_in(
    stream: Sequence[StreamRecord], burn_in_count: int
) -> tuple[dict[str, list[Interaction]], list[StreamRecord]]:
    """First burn_in_count responses per student go to the pooled burn-in;
    the rest stay in stream order for prequential replay."""
    taken: dict[str, int] = {}
    burn_in: dict[str, list[Interaction]] = {}
    remainder: list[StreamRecord] = []
    for rec in stream:
        n = taken.get(rec.student_id, 0)
        if n < burn_in_count:
            burn_in.setdefault(rec.student_id, []).append(rec.interaction())
            taken[rec.student_id] = n + 1
        else:
            remainder.append(rec)
    return burn_in, remainder
