"""Streaming classroom lifecycle: communal burn-in, per-student models,
observe/predict, and prequential replay.

A session is fitted once on pooled early interactions. Each student then
gets a personalized parameter copy that is refreshed with a single EM
iteration over the burn-in data plus that student's own history after every
new response (optionally batched). Students never see each other's
post-burn-in data.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterable, Mapping, Sequence

import numpy as np

from .em import FitReport, StudentObservations, fit, one_step_update, pack_dataset
from .inference import (
    Interaction,
    Prediction,
    observation_set,
    pack_counts,
    posteriors,
    predict,
)
from .model import Parameters, default_parameters
from .tree import ConceptTree, Difficulty, QuestionMeta


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
        """The conditioning set as one kernel column, kept until it grows."""
        model = self.students.get(student_id)
        if model is not None and model.packed is not None:
            return model.packed
        obs = observation_set(self.tree, self.student_history(student_id))
        counts = pack_counts(self.tree, [obs])
        if model is not None:
            model.packed = counts
        return counts

    def _update_counts(self, student_id: str) -> np.ndarray:
        """The burn-in pool's columns, minus the target student's, plus the
        target's full history, in student-id order."""
        j = sum(sid < student_id for sid in self.burn_in)
        rest = j + (student_id in self.burn_in)
        pool, column = self.pool_counts, self._history_counts(student_id)
        return np.concatenate([pool[:, :, :j], column, pool[:, :, rest:]], axis=2)

    @cached_property
    def pool_counts(self) -> np.ndarray:
        """The burn-in pool as kernel counts in student-id order, packed once."""
        return pack_dataset(self.tree, [
            StudentObservations(sid, observation_set(self.tree, interactions))
            for sid, interactions in self.burn_in.items()
        ])


def burn_in_fit(
    tree: ConceptTree,
    burn_in: Mapping[str, Sequence[Interaction]],
    init: Parameters | None = None,
    max_iters: int = 100,
    tol: float = 1e-6,
    threads: int = 1,
    update_batch: int | None = 1,
) -> ClassroomSession:
    """Fit the shared model on pooled early interactions, to convergence.
    threads is accepted and has no effect."""
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


def observe(
    session: ClassroomSession, student_id: str, interaction: Interaction
) -> ClassroomSession:
    """Append a response to the student's history and refresh their model
    with a single EM iteration over burn-in data plus their history."""
    model = session.students.get(student_id)
    if model is None:
        model = StudentModel(student_id=student_id, params=session.theta_init)
        session.students[student_id] = model
    model.history.append(interaction)
    model.packed = None
    if session.update_batch is None:
        return session
    model.pending += 1
    if model.pending >= session.update_batch:
        model.params = one_step_update(
            session.tree, model.params, session._update_counts(student_id)
        )
        model.pending = 0
    return session


def predict_next(
    session: ClassroomSession, student_id: str, question: QuestionMeta
) -> Prediction:
    """Posterior over the question's concept given the student's history,
    blended with the emission rates. Unseen students use the shared model
    and an empty personal history."""
    model = session.students.get(student_id)
    params = model.params if model is not None else session.theta_init
    belief = posteriors(session.tree, params, session._history_counts(student_id))
    return predict(params, belief, question)


def replay(
    session: ClassroomSession, stream: Sequence[StreamRecord]
) -> list[PredictionRecord]:
    """Prequential loop: predict each response before revealing it."""
    records = []
    for rec in stream:
        question = QuestionMeta(rec.question_id, rec.kc, rec.difficulty)
        pred = predict_next(session, rec.student_id, question)
        records.append(
            PredictionRecord(
                student_id=rec.student_id,
                question_id=rec.question_id,
                p_correct=pred.prob_correct,
                actual=rec.correct,
                seq=rec.seq,
            )
        )
        observe(session, rec.student_id, rec.interaction())
    return records


class StreamFormatError(ValueError):
    """A stream line cannot be read; the message names the file and line."""


def parse_stream(document: str, source: str = "<stream>") -> list[StreamRecord]:
    """Parse JSON-lines stream records; source names the document in errors."""
    records = []
    for i, line in enumerate(document.splitlines(), start=1):
        if not line.strip():
            continue
        try:
            raw = json.loads(line)
            records.append(StreamRecord(
                student_id=str(raw["student_id"]),
                question_id=str(raw["question_id"]),
                kc=str(raw["kc_id"]),
                difficulty=Difficulty(str(raw["difficulty"])),
                correct=int(raw["correct"]),
                seq=int(raw["seq"]),
            ))
        except (KeyError, ValueError, TypeError) as exc:
            detail = f"missing key {exc}" if isinstance(exc, KeyError) else exc
            raise StreamFormatError(
                f"{source}:{i}: bad stream record on line {i}: {detail}") from exc
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


def load_stream(path: str) -> list[StreamRecord]:
    with open(path, encoding="utf-8") as fh:
        return parse_stream(fh.read(), source=path)


def serialize_predictions(records: Iterable[PredictionRecord]) -> str:
    lines = [
        json.dumps(
            {
                "student_id": r.student_id,
                "question_id": r.question_id,
                "p_correct": r.p_correct,
                "actual": r.actual,
                "seq": r.seq,
            },
            sort_keys=True,
        )
        for r in records
    ]
    return "\n".join(lines) + ("\n" if lines else "")


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
