"""Binary-classification metrics over prediction records and the end-to-end
experiment harness (split burn-in, fit, prequential replay, score)."""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass
from types import SimpleNamespace
from typing import Iterable, Iterator, Sequence

from .online import (
    ClassroomSession,
    PredictionRecord,
    burn_in_fit,
    replay,
    split_burn_in,
    StreamRecord,
)
from .tree import ConceptTree


class MetricError(ValueError):
    """A metric is undefined on the given records."""


@dataclass(frozen=True)
class MetricsReport:
    auc: float
    accuracy: float
    f1: float
    n_records: int
    positive_rate: float

    def to_json(self) -> str:
        doc = {
            "auc": self.auc,
            "accuracy": self.accuracy,
            "f1": self.f1,
            "n_records": self.n_records,
            "positive_rate": self.positive_rate,
        }
        return json.dumps(doc, sort_keys=True, indent=2) + "\n"

    def table(self) -> str:
        rows = [
            ("AUC", f"{self.auc:.4f}"),
            ("ACC", f"{self.accuracy:.4f}"),
            ("F1", f"{self.f1:.4f}"),
            ("records", str(self.n_records)),
            ("positive rate", f"{self.positive_rate:.4f}"),
        ]
        width = max(len(name) for name, _ in rows)
        return "\n".join(f"{name:<{width}}  {value}" for name, value in rows)


def auc(records: Sequence[PredictionRecord]) -> float:
    """Rank-based AUC; tied scores receive average ranks."""
    scores = [r.p_correct for r in records]
    labels = [r.actual for r in records]
    n_pos = sum(labels)
    n_neg = len(labels) - n_pos
    if n_pos == 0 or n_neg == 0:
        raise MetricError("AUC needs at least one positive and one negative")

    order = sorted(range(len(scores)), key=lambda i: scores[i])
    ranks = [0.0] * len(scores)
    i = 0
    while i < len(order):
        j = i
        while j + 1 < len(order) and scores[order[j + 1]] == scores[order[i]]:
            j += 1
        avg_rank = (i + j) / 2.0 + 1.0
        for k in range(i, j + 1):
            ranks[order[k]] = avg_rank
        i = j + 1

    rank_sum = sum(rank for rank, label in zip(ranks, labels) if label == 1)
    u = rank_sum - n_pos * (n_pos + 1) / 2.0
    return u / (n_pos * n_neg)


def accuracy(records: Sequence[PredictionRecord], threshold: float = 0.5) -> float:
    if not records:
        raise MetricError("accuracy is undefined on empty input")
    hits = sum(
        1 for r in records if (1 if r.p_correct >= threshold else 0) == r.actual
    )
    return hits / len(records)


def f1(records: Sequence[PredictionRecord], threshold: float = 0.5) -> float:
    """F1 on the answered-correctly class."""
    if not records:
        raise MetricError("F1 is undefined on empty input")
    tp = fp = fn = 0
    for r in records:
        predicted = 1 if r.p_correct >= threshold else 0
        if predicted == 1 and r.actual == 1:
            tp += 1
        elif predicted == 1 and r.actual == 0:
            fp += 1
        elif predicted == 0 and r.actual == 1:
            fn += 1
    if tp + fp + fn == 0:
        raise MetricError("F1 is undefined without positives")
    return 2 * tp / (2 * tp + fp + fn)


def metrics_report(
    records: Sequence[PredictionRecord], threshold: float = 0.5
) -> MetricsReport:
    return MetricsReport(
        auc=auc(records),
        accuracy=accuracy(records, threshold),
        f1=f1(records, threshold),
        n_records=len(records),
        positive_rate=sum(r.actual for r in records) / len(records),
    )


def csv_lines(records: Iterable[PredictionRecord]) -> Iterator[str]:
    """predictions.csv one line at a time: the header, then one per record.
    The writer's "file" returns what it is given, so writerow returns the
    line."""
    writer = csv.writer(SimpleNamespace(write=str), lineterminator="\n")
    yield writer.writerow(["student_id", "question_id", "p_correct", "actual", "seq"])
    for r in records:
        yield writer.writerow([r.student_id, r.question_id, repr(r.p_correct),
                               r.actual, r.seq])


def records_to_csv(records: Iterable[PredictionRecord]) -> str:
    return "".join(csv_lines(records))


@dataclass(frozen=True)
class ExperimentConfig:
    burn_in_count: int = 10
    threshold: float = 0.5
    em_tol: float = 1e-6
    em_max_iters: int = 100


@dataclass
class ExperimentResult:
    report: MetricsReport
    records: list[PredictionRecord]
    session: ClassroomSession


def run_experiment(
    tree: ConceptTree,
    stream: Sequence[StreamRecord],
    config: ExperimentConfig = ExperimentConfig(),
) -> ExperimentResult:
    """Split off per-student burn-in, fit, replay the rest, and score.
    A remainder that cannot be scored fails before the fit."""
    burn_in, remainder = split_burn_in(stream, config.burn_in_count)
    outcomes = {rec.correct for rec in remainder}
    if len(outcomes) < 2:
        found = f"only correct={outcomes.pop()} responses" if outcomes else "no responses"
        raise MetricError(
            f"--burn-in {config.burn_in_count} leaves {found} to replay; "
            "scoring needs correct and incorrect responses after burn-in")
    session = burn_in_fit(
        tree,
        burn_in,
        max_iters=config.em_max_iters,
        tol=config.em_tol,
    )
    records = replay(session, remainder)
    return ExperimentResult(
        report=metrics_report(records, config.threshold),
        records=records,
        session=session,
    )
