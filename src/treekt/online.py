"""Streaming classroom lifecycle: communal burn-in, per-student models,
observe/predict, and prequential replay.

A session is fitted once on pooled early interactions. Each student then
gets a personalized parameter copy that is refreshed with a single EM
iteration over the burn-in data plus that student's own responses after
every new response (optionally batched). Students never see each other's
post-burn-in data. A student's parameters are a θ column [V + 4] (see em)
kept beside its log form [2V + 12], which is built once per update and
never per prediction.

So the t-th update of one student does not depend on any other student's,
and work runs in rounds of distinct students. A round predicts one question
per student in kernel calls over the students (inference.pool_posteriors:
a chunk at one θ is one target over the chunk's columns, else each student
is a target over its own column alone), then reveals one response per
student and runs every update that falls due as one em.pooled_e_step over
the session's pool, [V, 6, S]: the burn-in students in id order. A
target's history replaces its own pool column; nothing copies the pool.
Due newcomers, students with no burn-in, run as a second E-step over the
pool widened by one empty column. Each group's θ columns go through the
E-step, one M-step and one log form as [·, T] blocks.
inference.targets_per_call sizes every kernel call. replay runs the
stream as rounds. A model keeps its student's responses in the kernel's
format, a count column bumped by 1 per revealed response, and every call
gathers its columns from those; predict_next is one kernel call on one
student's column; observe is a round of one student, which checks the
response before it changes anything and, in a frozen session, only counts.
"""

from __future__ import annotations

import io
import json
from dataclasses import dataclass, field
from functools import cached_property
from operator import itemgetter
from typing import Callable, Iterable, Iterator, Mapping, NamedTuple, Sequence

import numpy as np

from .em import FitReport, batch_m_step, fit, pooled_e_step
from .inference import (
    InferenceError,
    Interaction,
    Prediction,
    blend,
    cell_slots,
    count_cells,
    kernel_plan,
    leaf_error,
    log_form,
    pool_posteriors,
    targets_per_call,
)
from .model import RATE_INDEX, Parameters, default_parameters
from .tree import ConceptTree, Difficulty, QuestionMeta, utf8_line

@dataclass(slots=True)
class StreamRecord:
    """One line of the interaction stream file: a slotted dataclass, so
    mutable and not hashable, whose __init__ sets its fields directly."""

    student_id: str
    question_id: str
    kc: str
    difficulty: Difficulty
    correct: int
    seq: int

    def interaction(self) -> Interaction:
        return Interaction(self.question_id, self.kc, self.difficulty, self.correct)


class PredictionRecord(NamedTuple):
    student_id: str
    question_id: str
    p_correct: float
    actual: int
    seq: int


@dataclass(eq=False)
class StudentModel:
    """A student's θ as a column [V + 4] in the order of the tree's plan,
    with its log form [2V + 12] beside it. counts is the conditioning set,
    burn-in then each revealed response, as a flat float64 column [6V]
    indexed by inference.cell_slots: the session's only record of the
    student's responses, an array of the model's own. A student who has
    had no update shares the session's θ_init columns."""

    student_id: str
    order: tuple[str, ...] = field(repr=False)
    theta: np.ndarray = field(repr=False)
    log_theta: np.ndarray = field(repr=False)
    counts: np.ndarray = field(repr=False)
    pending: int = 0

    @property
    def params(self) -> Parameters:
        """θ as a Parameters value, built on each read."""
        return Parameters.from_column(self.order, self.theta)


@dataclass
class ClassroomSession:
    """Shared fitted model plus per-student personalized models.

    update_batch controls how many new responses accumulate before a
    one-step EM refresh (1 = after every response); None freezes parameters,
    which is how a ground-truth model is scored on a stream. Built, a
    session checks its inputs before any work: a theta_init with no gamma
    for some node of the tree raises ParameterError, an update_batch other
    than None or an int >= 1 (a bool included) ValueError, and a burn-in
    response with no kernel cell (inference.cell_slots) InferenceError.
    Every kernel call gathers its columns from the models' count columns
    (_counts); a frozen session never builds the burn-in pool.
    """

    tree: ConceptTree
    burn_in: dict[str, list[Interaction]]
    theta_init: Parameters
    fit_report: FitReport | None = None
    students: dict[str, StudentModel] = field(default_factory=dict)
    update_batch: int | None = 1
    _init: tuple | None = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        self.theta_init.column(self.tree.nodes)  # ParameterError for a node with no γ
        batch = self.update_batch
        if batch is not None and not (type(batch) is int and batch >= 1):
            raise ValueError(f"update_batch must be None or an int >= 1, got {batch!r}")
        for history in self.burn_in.values():
            cell_slots(self.tree, history)  # InferenceError for a response with no cell

    def _init_columns(self) -> tuple[np.ndarray, np.ndarray]:
        """theta_init as a θ column and its log form, built once per value
        assigned to theta_init."""
        if self._init is None or self._init[0] is not self.theta_init:
            theta = self.theta_init.column(kernel_plan(self.tree).order)
            self._init = (self.theta_init, theta, log_form(theta[:, None])[:, 0])
        return self._init[1:]

    def _column(self, student_id: str) -> np.ndarray:
        """The student's conditioning set as a flat count column [6V]: their
        model's, or else their burn-in counted afresh."""
        if (model := self.students.get(student_id)) is not None:
            return model.counts
        slots = cell_slots(self.tree, self.burn_in.get(student_id, ()))
        return count_cells(self.tree, [slots]).reshape(-1)

    def _counts(self, student_ids: Sequence[str]) -> np.ndarray:
        """The students' conditioning sets as kernel columns [V, 6, n], in
        order: a copy of their count columns, side by side."""
        columns = _block([*map(self._column, student_ids)])
        return columns.reshape(len(self.tree.nodes), -1, len(student_ids))

    @cached_property
    def pool_columns(self) -> dict[str, int]:
        """Each burn-in student's column of the pool: student-id order."""
        return {sid: j for j, sid in enumerate(sorted(self.burn_in))}

    @cached_property
    def pool(self) -> np.ndarray:
        """The burn-in pool as kernel counts [V, 6, S]: a column per
        student in student-id order, counted once."""
        tree, burn_in = self.tree, self.burn_in
        return count_cells(tree, [cell_slots(tree, burn_in[s]) for s in self.pool_columns])


def burn_in_fit(
    tree: ConceptTree,
    burn_in: Mapping[str, Sequence[Interaction]],
    init: Parameters | None = None,
    max_iters: int = 100,
    tol: float = 1e-6,
    update_batch: int | None = 1,
) -> ClassroomSession:
    """Fit the shared model on pooled early interactions, to convergence.
    The fit reads only each response's kc, difficulty and correct, so a
    caller that drops the session, as `treekt fit` does, may pass
    StreamRecords in place of Interactions, and one object for every
    response of a cell. The session keeps the histories given, uncopied.
    An init that misses a node's gamma raises ParameterError before the
    fit."""
    if not burn_in or not any(burn_in.values()):
        raise ValueError("burn-in data must be non-empty")
    session = ClassroomSession(
        tree=tree,
        burn_in=dict(burn_in),
        theta_init=default_parameters(tree) if init is None else init,
        update_batch=update_batch,
    )
    session.fit_report = fit(tree, session.pool, session.theta_init,
                             max_iters=max_iters, tol=tol)
    session.theta_init = session.fit_report.params
    return session


def _block(columns: Sequence[np.ndarray]) -> np.ndarray:
    """Columns of equal length side by side, [n, len(columns)]."""
    return np.ascontiguousarray(np.array(columns).T)


def _rows(plan, questions: Iterable[QuestionMeta]) -> tuple[list[int], list[int]]:
    """Each question's node row in the kernel's output and its rate's row in
    a θ column (model.RATE_INDEX). A question is anything with kc and
    difficulty, such as a QuestionMeta or a StreamRecord. InferenceError
    names an unknown KC or a difficulty that is not a Difficulty."""
    try:
        nodes = [plan.index[q.kc] for q in questions]
    except KeyError as exc:
        raise InferenceError(f"unknown KC: {exc.args[0]!r}") from None
    try:
        rates = [len(plan.order) + RATE_INDEX[q.difficulty] for q in questions]
    except KeyError as exc:
        raise InferenceError(f"difficulty must be a Difficulty, got {exc.args[0]!r}") from None
    return nodes, rates


def _predict_round(
    session: ClassroomSession, student_ids: Sequence[str],
    questions: Sequence[QuestionMeta | StreamRecord],
) -> list[float]:
    """P(correct) for one question for each of distinct students, every
    student at their own θ and history, in kernel calls of
    inference.targets_per_call students (see inference.blend)."""
    plan = kernel_plan(session.tree)
    size = targets_per_call(len(plan.order))
    init = session._init_columns()
    nodes, rates = _rows(plan, questions)
    prob: list[float] = []
    for a in range(0, len(student_ids), size):
        chunk = student_ids[a:a + size]
        thetas, logs = zip(*[init if m is None else (m.theta, m.log_theta)
                             for m in map(session.students.get, chunk)])
        counts = session._counts(chunk)
        if all(log is logs[0] for log in logs):
            # One target over the chunk: a frozen session predicts as
            # predict_next does, bit for bit.
            theta, columns = thetas[0][:, None], 0
            post = pool_posteriors(session.tree, logs[0][:, None], counts)
        else:
            # A target per student, whose own column replaces the one column of an empty pool.
            theta, columns = _block(thetas), np.arange(len(chunk))
            post = pool_posteriors(session.tree, _block(logs), np.zeros_like(counts[:, :, :1]),
                                   (np.zeros(len(chunk), dtype=np.intp), counts))
        p1 = post.marginal.reshape(len(plan.order), -1)[nodes[a:a + size],
                                                       np.arange(len(chunk))]
        prob += blend(p1, theta[-1, columns], theta[rates[a:a + size], columns]).tolist()
    return prob


def _reveal_round(
    session: ClassroomSession, events: Sequence[tuple[str, Interaction | StreamRecord]]
) -> None:
    """Count one response (anything with kc, difficulty and correct) in each
    of distinct students' count columns (built at a student's first), then
    run every one-step update that falls due: one em.pooled_e_step over the
    session's pool for the due pool members, one for the due newcomers, and
    an M-step over each group's θ block. Any response with no kernel cell
    raises InferenceError before anything changes."""
    tree, due = session.tree, []
    slots = cell_slots(tree, [interaction for _, interaction in events])
    for (student_id, _), slot in zip(events, slots):
        if (model := session.students.get(student_id)) is None:
            model = session.students[student_id] = StudentModel(
                student_id, kernel_plan(tree).order, *session._init_columns(),
                session._column(student_id))
        model.counts[slot] += 1.0
        if session.update_batch is None:
            continue
        model.pending += 1
        if model.pending >= session.update_batch:
            due.append(model)
    if not due:
        return
    pool, columns = session.pool, session.pool_columns
    members = [m for m in due if m.student_id in columns]
    newcomers = [m for m in due if m.student_id not in columns]
    for group in filter(None, (members, newcomers)):
        if group is newcomers:  # each history replaces the one empty column added
            pool = np.concatenate((pool, np.zeros_like(pool[:, :, :1])), axis=2)
        at = np.array([columns.get(m.student_id, len(columns)) for m in group])
        own = session._counts([m.student_id for m in group])
        acc = pooled_e_step(tree, _block([m.log_theta for m in group]), pool, (at, own))
        theta = batch_m_step(acc, _block([m.theta for m in group]))
        for model, column, log_column in zip(group, theta.T, log_form(theta).T):
            model.theta, model.log_theta, model.pending = column, log_column, 0


def observe(
    session: ClassroomSession, student_id: str, interaction: Interaction
) -> ClassroomSession:
    """Count a response in the student's count column and refresh their model
    with a single EM iteration over burn-in data plus their responses. A
    response with no kernel cell raises InferenceError and changes nothing."""
    _reveal_round(session, [(student_id, interaction)])
    return session


def predict_next(
    session: ClassroomSession, student_id: str, question: QuestionMeta
) -> Prediction:
    """Posterior over the question's concept given the student's history,
    blended with the emission rates. Unseen students use the shared model
    and an empty personal history. One kernel call on the student's
    column, at the student's θ: one target over a pool of one column."""
    plan = kernel_plan(session.tree)
    (row,), (rate,) = _rows(plan, [question])
    model = session.students.get(student_id)
    theta, log_theta = (session._init_columns() if model is None
                        else (model.theta, model.log_theta))
    post = pool_posteriors(session.tree, log_theta[:, None], session._counts([student_id]))
    mastery = post.marginal[row, 0, 0]
    return Prediction(question.question_id, float(blend(mastery, theta[-1], theta[rate])),
                      float(mastery))


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
        indices = [q[t] for q in queues.values() if len(q) > t]
        batch = [stream[i] for i in indices]
        probs = _predict_round(session, [rec.student_id for rec in batch], batch)
        for i, rec, p_correct in zip(indices, batch, probs):
            records[i] = PredictionRecord(
                student_id=rec.student_id,
                question_id=rec.question_id,
                p_correct=p_correct,
                actual=rec.correct,
                seq=rec.seq,
            )
        _reveal_round(session, [(rec.student_id, rec) for rec in batch])
    return records


class StreamFormatError(ValueError):
    """A stream line cannot be read; the message names the file and line."""


#: Stream fields in the order they are checked, and their JSON types;
#: difficulty is also a Difficulty value.
_STREAM_FIELDS = {"student_id": str, "question_id": str, "kc_id": str,
                  "difficulty": str, "correct": int, "seq": int}
_stream_values = itemgetter(*_STREAM_FIELDS)

#: Each Difficulty by its value; a miss goes to Difficulty(), whose error
#: names the value.
_DIFFICULTY = {d.value: d for d in Difficulty}

#: A str as json.dumps writes it, quoted and ASCII-escaped.
_json_string = json.encoder.encode_basestring_ascii

#: Characters of whole lines that parse_stream and load_stream read at a
#: time (fh.readlines), each block decoded with one json.loads: this bounds
#: the text, lines and decoded values held at once, about 73 of the
#: 112-character lines simulate writes. Blocks of 16 384 characters put the
#: traced peak of treekt fit's reading above what it keeps at 0.27 MB, not
#: 0.15 MB, and read no faster.
_BLOCK_CHARS = 1 << 13


def _json_lines(lines: list[str]) -> Iterator:
    """json.loads of each line, decoding all the lines as one array with a
    0 between each two lines where they hold no bracket: a raw newline
    beside each 0 ends any string, and an open object cannot take ",0", so
    each line holds one value where the array has 2n - 1 items. Other lines
    are decoded one by one, so that an error comes from its line."""
    text, values = "\n,0,\n".join(lines), ()
    if "[" not in text and "]" not in text:
        try:
            values = json.loads(f"[{text}]")
        except (ValueError, RecursionError):
            pass
    return iter(values[::2]) if len(values) == 2 * len(lines) - 1 else map(json.loads, lines)


class _Ids(dict):
    """One parse's ids, each kept as the first string object of its value.
    A new id is checked once: one that UTF-8 cannot encode, such as one
    with a lone surrogate, raises ValueError."""

    def __missing__(self, value: str) -> str:
        try:
            value.encode("utf-8")
        except UnicodeEncodeError as exc:
            raise ValueError(f"id {value!r} cannot be written as UTF-8 ({exc.reason})") from exc
        self[value] = value
        return value


def _stream_record(raw, share) -> StreamRecord:
    """The record of a decoded line. A valid line passes one chained
    comparison of its value types, then Difficulty() names a difficulty
    that is no Difficulty's value; any other line is walked field by field
    to name its first bad field."""
    # Decoded JSON values have exact types, so `type(...) is` rejects what
    # isinstance would, bool (an int subclass) included.
    if type(raw) is dict:
        try:
            sid, qid, kc, difficulty, correct, seq = _stream_values(raw)
            if (str is type(sid) is type(qid) is type(kc) is type(difficulty)
                    and int is type(correct) is type(seq) and correct in (0, 1)):
                return StreamRecord(share(sid), share(qid), share(kc),
                                    _DIFFICULTY.get(difficulty) or Difficulty(difficulty),
                                    correct, seq)
        except KeyError:
            pass
    if type(raw) is not dict:
        raise TypeError(f"expected a JSON object, got {type(raw).__name__}")
    for key, kind in _STREAM_FIELDS.items():
        value = raw[key]
        if type(value) is not kind:
            kind_name = "a string" if kind is str else "an integer"
            raise TypeError(f"{key} must be {kind_name}, got {value!r}")
    # Every key is there with its type, so correct failed the comparison.
    raise ValueError(f"correct must be 0 or 1, got {raw['correct']!r}")


def parse_stream(
    document: str, source: str = "<stream>", tree: ConceptTree | None = None
) -> list[StreamRecord]:
    """Parse JSON-lines stream records; source names the document in errors.
    Lines are numbered as document.splitlines() numbers them, and each
    nonblank line is one JSON object with the keys of _STREAM_FIELDS,
    decoded once (_json_lines) and checked in that order. Replay follows
    each student's seq order, so a student's seq must increase strictly
    from each of their lines to the next. Given a tree, a kc_id that is not
    one of its leaves raises InferenceError (a domain failure, not a format
    error) naming the line. Equal ids of one parse are one string object,
    and an id that cannot be written as UTF-8 is a bad record (_Ids). The
    document is read as load_stream reads a file (_parse)."""
    records: list[StreamRecord] = []
    _parse(io.StringIO(document, newline=None), source, tree, records.append)
    return records


def _parse(
    fh: io.TextIOBase, source: str, tree: ConceptTree | None,
    sink: Callable[[StreamRecord], object],
) -> None:
    """parse_stream on a text file whose newlines are translated to \\n:
    each block of whole lines that fh.readlines(_BLOCK_CHARS) returns is
    split again by str.splitlines, numbered on from the block before, and
    decoded and checked before the next is read, so the lines are those of
    the whole text's splitlines. Each checked record goes to sink in line
    order."""
    share = _Ids().__getitem__
    last: dict[str, tuple[int, int]] = {}
    leaves = None if tree is None else frozenset(tree.leaves())
    start = 1
    while block := fh.readlines(_BLOCK_CHARS):
        lines = "".join(block).splitlines()
        numbers = [i for i, line in enumerate(lines, start) if line.strip()]
        values = _json_lines([lines[i - start] for i in numbers])
        start += len(lines)
        for i in numbers:
            try:
                record = _stream_record(next(values), share)
            except (KeyError, ValueError, TypeError, RecursionError) as exc:
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
            sink(record)


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


def load_stream(
    path: str, tree: ConceptTree | None = None, *,
    sink: Callable[[StreamRecord], object] | None = None,
) -> list[StreamRecord] | None:
    """parse_stream on a file, read _BLOCK_CHARS characters of whole lines
    at a time (_parse), so that it holds neither the file's text nor all
    its lines at once; bytes that are not UTF-8 raise StreamFormatError
    naming the file and their line. Given a sink, each checked record goes
    to sink in line order, in place of the returned list, and load_stream
    returns None; the parse still runs inside this call. A file that fails
    is read again whole for its UTF-8 check alone, so that bytes that are
    not UTF-8 anywhere in it are reported before any bad record or
    off-tree kc_id. Else the streamed pass's error is raised: the file's
    first, or the sink's, and the sink has had the records before it."""
    records: list[StreamRecord] = []
    try:
        with open(path, encoding="utf-8") as fh:
            _parse(fh, path, tree, sink or records.append)
        return None if sink else records
    except ValueError:  # UnicodeDecodeError, StreamFormatError, InferenceError, the sink's
        with open(path, encoding="utf-8") as fh:
            try:
                fh.read()
            except UnicodeDecodeError as exc:
                line = utf8_line(exc)
                raise StreamFormatError(
                    f"{path}:{line}: not UTF-8 text on line {line}: {exc}") from exc
        raise


def prediction_lines(records: Iterable[PredictionRecord]) -> Iterator[str]:
    """predictions.jsonl one record at a time, each line with its newline:
    the bytes of json.dumps(..., sort_keys=True) on the record's fields,
    formatted directly, ids through json's own string encoder and numbers
    as json writes them (p_correct, a probability, is finite)."""
    for r in records:
        yield (f'{{"actual": {int.__repr__(r.actual)}, '
               f'"p_correct": {float.__repr__(r.p_correct)}, '
               f'"question_id": {_json_string(r.question_id)}, '
               f'"seq": {int.__repr__(r.seq)}, '
               f'"student_id": {_json_string(r.student_id)}}}\n')


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
