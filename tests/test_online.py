import contextlib
import dataclasses
import io
import json
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

from treekt import (
    ClassroomSession,
    ConceptNode,
    Difficulty,
    ExperimentConfig,
    Interaction,
    MetricsReport,
    Parameters,
    Prediction,
    PredictionRecord,
    StreamRecord,
    StudentObservations,
    burn_in_fit,
    default_parameters,
    observation_set,
    observe,
    one_step_update,
    posteriors,
    predict,
    predict_next,
    replay,
    run_experiment,
    split_burn_in,
)
from treekt import online
from treekt.em import Accumulators, batch_m_step, pooled_e_step
from treekt.inference import (
    InferenceError,
    kernel_plan,
    log_form,
    pack_counts,
    pool_posteriors,
)
from treekt.model import PARAM_FLOOR, ParameterError
from treekt.online import (
    StreamFormatError,
    load_stream,
    parse_stream,
    prediction_lines,
    serialize_stream,
)
from treekt.simulate import (
    SimConfig,
    generate_classroom,
    random_question_bank,
    random_tree,
)
from treekt.tree import QuestionMeta

from conftest import caterpillar_tree, random_observations, random_parameters, star_tree


def small_classroom(seed=0, n_students=6, n_interactions=12, n_nodes=6):
    rng = np.random.default_rng(seed)
    tree = random_tree(rng, n_nodes)
    truth = random_parameters(tree, rng)
    bank = random_question_bank(rng, tree, per_leaf=2)
    config = SimConfig(
        n_students=n_students, n_interactions=n_interactions, seed=seed
    )
    stream, _ = generate_classroom(tree, truth, bank, config)
    return tree, bank, stream


def assert_counts(model, tree, history):
    """The model's count column is pack_counts of the history, flat."""
    np.testing.assert_array_equal(model.counts, pack_counts(tree, [history]).reshape(-1),
                                  strict=True)


class TestStreamIO:
    def test_roundtrip(self):
        _, _, stream = small_classroom()
        text = serialize_stream(stream)
        assert parse_stream(text) == stream
        assert serialize_stream(parse_stream(text)) == text

    def test_empty(self):
        assert parse_stream("") == []
        assert serialize_stream([]) == ""

    def test_bad_line_reports_position(self):
        with pytest.raises(ValueError, match="line 1"):
            parse_stream("{broken")

    @pytest.mark.parametrize("field, value", [
        ("difficulty", None), ("difficulty", "weird"), ("correct", "yes"),
    ])
    def test_bad_record_names_source_and_line(self, field, value):
        _, _, stream = small_classroom()
        lines = serialize_stream(stream[:3]).splitlines()
        record = json.loads(lines[1])
        if value is None:
            del record[field]
        else:
            record[field] = value
        lines[1] = json.dumps(record)
        with pytest.raises(StreamFormatError, match="^s.jsonl:2: "):
            parse_stream("\n".join(lines), source="s.jsonl")

    def test_repeated_ids_are_one_object(self):
        _, _, stream = small_classroom()
        records = parse_stream(serialize_stream(stream))
        for key in ("student_id", "question_id", "kc"):
            first = {}
            for rec in records:
                value = first.setdefault(getattr(rec, key), getattr(rec, key))
                assert getattr(rec, key) is value
            assert len(first) < len(records)


#: Each value class, with a value of each of its fields.
VALUE_CLASSES = [
    (Interaction, dict(question_id="q1", kc="a", difficulty=Difficulty.EASY, correct=1)),
    (Prediction, dict(question_id="q1", prob_correct=0.7, posterior_mastery=0.6)),
    (PredictionRecord, dict(student_id="s1", question_id="q1", p_correct=0.7, actual=1,
                            seq=3)),
    (QuestionMeta, dict(question_id="q1", kc="a", difficulty=Difficulty.HARD,
                        solve_rate=0.4)),
    (ConceptNode, dict(id="a", label="A", parent="root", children=("b",))),
    (MetricsReport, dict(auc=0.7, accuracy=0.6, f1=0.5, n_records=10, positive_rate=0.4)),
    (ExperimentConfig, dict(burn_in_count=5, threshold=0.4, em_tol=1e-5, em_max_iters=20)),
    (StreamRecord, dict(student_id="s1", question_id="q1", kc="a",
                        difficulty=Difficulty.MEDIUM, correct=0, seq=2)),
]


@pytest.mark.parametrize("cls, fields", VALUE_CLASSES,
                         ids=[cls.__name__ for cls, _ in VALUE_CLASSES])
def test_value_class_contract(cls, fields):
    value = cls(**fields)
    assert {key: getattr(value, key) for key in fields} == fields
    assert value == cls(*fields.values())
    first = next(iter(fields))
    assert value != cls(**{**fields, first: "other"})
    if cls is StreamRecord:
        # A slotted dataclass: replace and interaction work, hash does not.
        assert dataclasses.replace(value, correct=1) == cls(**{**fields, "correct": 1})
        assert value.interaction() == Interaction("q1", "a", Difficulty.MEDIUM, 0)
        with pytest.raises(TypeError, match="unhashable"):
            hash(value)
    else:
        # A NamedTuple: a tuple of its fields, which also hashes.
        assert tuple(value) == tuple(fields.values()) and len(value) == len(fields)
        assert hash(value) == hash(cls(**fields))


def reference_parse_stream(document: str, source: str = "<stream>"):
    """The reference stream parser: per line json.loads, then isinstance
    checks that also reject bool, then Difficulty(). parse_stream must give
    the same records, or raise the same error, on every document."""
    fields = {"student_id": str, "question_id": str, "kc_id": str,
              "difficulty": str, "correct": int, "seq": int}
    records, last = [], {}
    for i, line in enumerate(document.splitlines(), start=1):
        if not line.strip():
            continue
        try:
            raw = json.loads(line)
            if not isinstance(raw, dict):
                raise TypeError(f"expected a JSON object, got {type(raw).__name__}")
            for key, kind in fields.items():
                value = raw[key]
                if not isinstance(value, kind) or isinstance(value, bool):
                    kind_name = "a string" if kind is str else "an integer"
                    raise TypeError(f"{key} must be {kind_name}, got {value!r}")
            if raw["correct"] not in (0, 1):
                raise ValueError(f"correct must be 0 or 1, got {raw['correct']!r}")
            record = StreamRecord(raw["student_id"], raw["question_id"], raw["kc_id"],
                                  Difficulty(raw["difficulty"]), raw["correct"],
                                  raw["seq"])
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
        records.append(record)
    return records


STREAM_KEYS = ["student_id", "question_id", "kc_id", "difficulty", "correct", "seq"]
#: Field values that no field takes (bool, float, null, list, and NaN and
#: -Infinity, which json reads as floats), then a string and an integer,
#: each wrong for some fields.
WRONG_VALUES = ["true", "false", "1.0", "2.5", "null", "[]", "[1]", "NaN",
                "-Infinity", '"7"', "0"]
JSON_SPACE = st.text(alphabet=" \t\r", max_size=2)
#: Line breaks of str.splitlines, which both stream parsers number lines by.
LINE_BREAKS = ["\n", "\r", "\r\n", "\x0c", "\u2028"]
ODD_SPACE = st.sampled_from(["\x0c", "\u00a0", "\ufeff", "\x0b", "\u2028"])


@st.composite
def stream_lines(draw, seq):
    """One line of a stream document as text: a record, often valid, else
    with a field dropped, repeated, extra or of the wrong type, with
    correct 2 or an unknown difficulty, padded with JSON or other
    whitespace, or followed by a second object; or a blank line or a JSON
    value that is not an object."""
    kind = draw(st.sampled_from(
        ["valid"] * 8 + ["wrong"] * 3 + ["drop", "correct", "difficulty", "duplicate",
                                         "extra", "pad", "odd_pad", "two", "blank",
                                         "not_object"]))
    if kind == "blank":
        return draw(st.sampled_from(["", " ", "\t", "  \t "]))
    if kind == "not_object":
        return draw(st.sampled_from(["[1, 2]", '"s1"', "5", "null", "true", "{"]))
    fields = {
        "student_id": json.dumps(draw(st.sampled_from(["s1", "s2", "s\u00e9"]))),
        "question_id": json.dumps(draw(st.sampled_from(["q1", "q2"]))),
        "kc_id": json.dumps(draw(st.sampled_from(["a", "b"]))),
        "difficulty": json.dumps(draw(st.sampled_from(["easy", "medium", "hard"]))),
        "correct": draw(st.sampled_from(["0", "1"])),
        "seq": str(seq if draw(st.booleans()) else draw(st.integers(-2, 3))),
    }
    key = draw(st.sampled_from(STREAM_KEYS))
    if kind == "drop":
        del fields[key]
    elif kind == "wrong":
        fields[key] = draw(st.sampled_from(WRONG_VALUES))
    elif kind == "correct":
        fields["correct"] = draw(st.sampled_from(["2", "-1", "10"]))
    elif kind == "difficulty":
        fields["difficulty"] = json.dumps(draw(st.sampled_from(["weird", "EASY", ""])))
    items = [f'"{k}": {v}' for k, v in fields.items()]
    if kind == "duplicate":
        items.append(f'"{key}": {draw(st.sampled_from(WRONG_VALUES + [fields.get(key, "1")]))}')
    elif kind == "extra":
        items.insert(draw(st.integers(0, len(items))), '"extra": [1, {"x": null}]')
    items = draw(st.permutations(items))
    line = "{" + ", ".join(items) + "}"
    if kind == "pad":
        line = draw(JSON_SPACE) + line + draw(JSON_SPACE)
    elif kind == "odd_pad":
        space = draw(ODD_SPACE)
        line = draw(st.sampled_from([space + line, " " + space + line, line + space]))
    elif kind == "two":
        line += draw(st.sampled_from(["", " ", "\t"])) + draw(st.sampled_from(["{}", line, "1"]))
    return line


@st.composite
def stream_documents(draw):
    lines = [draw(stream_lines(seq)) for seq in range(draw(st.integers(0, 8)))]
    return draw(st.sampled_from(["\n", "\r\n"])).join(lines) + draw(
        st.sampled_from(["", "\n"]))


def outcome(parse, document, source="s.jsonl"):
    """What parse makes of document: its records, or its error's type and text."""
    try:
        records = parse(document, source=source)
    except StreamFormatError as exc:
        return type(exc), str(exc)
    assert all(type(r.difficulty) is Difficulty for r in records)
    return records


class TestParserAgainstReference:
    @settings(max_examples=300, deadline=None)
    @given(document=stream_documents())
    @example(document='{"student_id": "s1", "question_id": "q1", "kc_id": "a", '
                      '"difficulty": "easy", "correct": 1, "seq": 0}')
    @example(document=' {"student_id": "s1", "question_id": "q1", "kc_id": "a", '
                      '"difficulty": "hard", "correct": 0, "seq": 0}\t\n\n')
    @example(document='\ufeff{"student_id": "s1"}')
    @example(document='{"student_id": NaN}')
    @example(document="{} {}")
    def test_same_records_or_same_error(self, document):
        assert outcome(parse_stream, document) == outcome(reference_parse_stream, document)

    @pytest.mark.parametrize("key", STREAM_KEYS)
    @pytest.mark.parametrize("value", [None, *WRONG_VALUES])
    def test_each_field_missing_or_of_each_wrong_type(self, key, value):
        raw = {"student_id": '"s1"', "question_id": '"q1"', "kc_id": '"a"',
               "difficulty": '"easy"', "correct": "1", "seq": "0"}
        if value is None:
            del raw[key]
        else:
            raw[key] = value
        line = "{" + ", ".join(f'"{k}": {v}' for k, v in raw.items()) + "}"
        assert outcome(parse_stream, line) == outcome(reference_parse_stream, line)

    # Each id names the bad line 1, if any, then the newline.
    @pytest.mark.parametrize("newline, line_1", [
        *(pytest.param(newline, "valid", id=newline) for newline in LINE_BREAKS),
        *(pytest.param(newline, line_1, id=f"{line_1}-{newline}")
          for line_1 in ("bad record", "inner kc_id") for newline in LINE_BREAKS)])
    def test_bytes_that_are_not_utf8_name_the_file_and_line(self, tmp_path, monkeypatch,
                                                            newline, line_1):
        tree, _, stream = small_classroom()
        lines = serialize_stream(stream[:3]).splitlines()
        if line_1 == "bad record":
            lines[0] = "[]"
        elif line_1 == "inner kc_id":
            lines[0] = json.dumps({**json.loads(lines[0]), "kc_id": tree.root})
        # Line 2 ends past the first bytes the reader decodes, so that it
        # parses line 1 before it meets the bad byte on line 3.
        monkeypatch.setattr(online, "_BLOCK_CHARS", 64)
        lines[1] += " " * 2 * io.DEFAULT_BUFFER_SIZE
        first = (newline.join(lines[:2]) + newline).encode()
        path = tmp_path / "stream.jsonl"
        path.write_bytes(first + lines[2][:3].encode() + b"\xff" + lines[2][3:].encode())
        with pytest.raises(StreamFormatError) as exc:
            load_stream(str(path), tree)
        assert str(exc.value).startswith(f"{path}:3: not UTF-8 text on line 3: ")
        assert isinstance(exc.value.__cause__, UnicodeDecodeError)
        if line_1 == "valid":
            # The parser numbers a bad record in the same place the same way.
            path.write_bytes(first + b"[]")
            with pytest.raises(StreamFormatError, match=":3: bad stream record on line 3: "):
                load_stream(str(path), tree)


    #: One bad line of each kind, or two that are bad together, for the
    #: end of a long document; student s0's last valid seq is below 10**6.
    GOOD = {"student_id": "s0", "question_id": "q1", "kc_id": "a",
            "difficulty": "easy", "correct": 1, "seq": 10**6}
    HALF = '{"student_id": "s0", "question_id": "q1", "kc_id": "a", "extra": [[1'
    DEEP_BAD_LINES = {
        "wrong type": [json.dumps({**GOOD, "question_id": 7})],
        "bool": [json.dumps({**GOOD, "correct": True})],
        "correct 2": [json.dumps({**GOOD, "correct": 2})],
        "unknown difficulty": [json.dumps({**GOOD, "difficulty": "weird"})],
        "missing key": [json.dumps({k: v for k, v in GOOD.items() if k != "kc_id"})],
        "seq order": [json.dumps({**GOOD, "seq": 0})],
        "two objects": [json.dumps(GOOD) + " " + json.dumps(GOOD)],
        "two values": [json.dumps(GOOD) + ", " + json.dumps(GOOD)],
        "split object": [json.dumps(GOOD)[:40], json.dumps(GOOD)[40:]],
        # Two lines that are one value, beside one line of more values, so
        # that a chunk can hold as many values as lines.
        "split object, two values": [json.dumps(GOOD)[:-1], '"x": 1}',
                                     json.dumps(GOOD) + ", " + json.dumps(GOOD)],
        "split array, three values": [HALF, '2]], "difficulty": "easy", "correct": 1, '
                                      '"seq": 1000000}',
                                      json.dumps(GOOD) + ", 0, " + json.dumps(GOOD)],
    }

    @staticmethod
    def valid_lines(n, start=0):
        return [json.dumps({"student_id": f"s{i % 40}", "question_id": f"q{i % 7}",
                            "kc_id": "ab"[i % 2], "difficulty": list(Difficulty)[i % 3].value,
                            "correct": i % 2, "seq": i}) for i in range(start, start + n)]

    @pytest.mark.parametrize("n_valid", [1000, 1099])
    @pytest.mark.parametrize("kind", DEEP_BAD_LINES)
    def test_bad_line_deep_in_a_document(self, kind, n_valid):
        lines = [*self.valid_lines(n_valid), *self.DEEP_BAD_LINES[kind],
                 *self.valid_lines(20, start=2 * 10**6)]
        document = "\n".join(lines)
        got = outcome(parse_stream, document)
        assert got == outcome(reference_parse_stream, document)
        assert got[1].startswith(f"s.jsonl:{n_valid + 1}: ")


class TestStreamedReader:
    """load_stream reads a file online._BLOCK_CHARS characters at a time."""

    @settings(max_examples=200, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(document=stream_documents(), newline=st.sampled_from(LINE_BREAKS),
           raw=st.sampled_from(["", "\u00e9", "\x85", "\u2028"]), block=st.integers(1, 7),
           lead=st.sampled_from(["", "\u00a0", "\u2028", "\u3000"]), shift=st.integers(1, 3))
    @example(document='\ufeff{"student_id": "s1"}', newline="\n", raw="", block=1, lead="",
             shift=1)
    @example(document='{"student_id": NaN}', newline="\r\n", raw="", block=2, lead="",
             shift=1)
    @example(document="{} {}", newline="\r", raw="", block=3, lead="", shift=1)
    def test_same_outcome_as_parse_stream_at_every_block_edge(
            self, tmp_path, monkeypatch, document, newline, raw, block, lead, shift):
        # Blocks of a few characters end inside lines and between the \r
        # and \n of a pair. raw goes into student id s2 as it is: a
        # multi-byte character, or one that JSON takes in a string and
        # str.splitlines takes as a line break. A lead line of spaces ending
        # in a multi-byte space puts that character across the end of the
        # first bytes the reader decodes.
        if lead:
            lead = " " * (io.DEFAULT_BUFFER_SIZE - shift) + lead + newline
        text = lead + document.replace("\r\n", "\n").replace("\n", newline)
        text = text.replace('"s2"', f'"s{raw}2"')
        path = tmp_path / "stream.jsonl"
        path.write_bytes(text.encode())
        monkeypatch.setattr(online, "_BLOCK_CHARS", block)
        whole = []  # the texts load_stream read again whole, after its streamed pass failed
        monkeypatch.setattr(online, "parse_stream",
                            lambda document, **kw: whole.append(document) or
                            parse_stream(document, **kw))
        got = outcome(lambda _, source: load_stream(source), None, source=str(path))
        assert got == outcome(parse_stream, text, source=str(path))
        assert bool(whole) == (type(got) is tuple)  # valid files are read once
        # A sink gets parse_stream's records in order, or the records before
        # the same error; the whole-text reading after a failure gets none.
        sunk, once = [], []
        assert outcome(lambda _, source: load_stream(source, sink=sunk.append) or sunk,
                       None, source=str(path)) == got
        with contextlib.suppress(ValueError):
            online._parse_blocks([text.splitlines()], str(path), None, once.append)
        assert sunk == once
        # The streamed pass numbers lines as the whole text's splitlines does.
        with open(path, encoding="utf-8") as fh:
            assert [line for lines in online._file_lines(fh) for line in lines] == \
                text.splitlines()

    def test_an_error_of_the_sink_on_a_valid_file_is_raised(self, tmp_path):
        path = tmp_path / "stream.jsonl"
        path.write_text("".join(line + "\n" for line in TestParserAgainstReference.valid_lines(5)))
        sunk = []

        def sink(record):
            sunk.append(record)
            if len(sunk) == 3:
                raise ValueError("sink full")

        with pytest.raises(ValueError, match="^sink full$"):
            load_stream(str(path), sink=sink)
        assert sunk == parse_stream(path.read_text())[:3]

    def test_holds_little_beside_the_records(self, tmp_path):
        # Reading whole held the text and every line beside the records:
        # a traced peak 4.7 times what the records hold.
        path = tmp_path / "stream.jsonl"
        lines = TestParserAgainstReference.valid_lines(20_000)
        path.write_text("".join(line + "\n" for line in lines))
        tracemalloc.start()
        try:
            records = load_stream(str(path))
            held, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(records) == 20_000
        assert peak <= 1.5 * held


class TestSplitBurnIn:
    def test_per_student_counts(self):
        _, _, stream = small_classroom(n_students=4, n_interactions=10)
        burn_in, remainder = split_burn_in(stream, 3)
        assert all(len(v) == 3 for v in burn_in.values())
        assert len(remainder) == 4 * 7
        # Remainder preserves stream order.
        assert remainder == [r for r in stream if r in remainder]

    def test_short_histories_go_entirely_to_burn_in(self):
        _, _, stream = small_classroom(n_students=3, n_interactions=5)
        burn_in, remainder = split_burn_in(stream, 10)
        assert remainder == []
        assert sum(len(v) for v in burn_in.values()) == len(stream)


class TestSessionLifecycle:
    def test_burn_in_fit_requires_data(self):
        tree, _, _ = small_classroom()
        with pytest.raises(ValueError):
            burn_in_fit(tree, {})
        with pytest.raises(ValueError):
            burn_in_fit(tree, {"s0": []})

    def test_gamma_map_missing_a_node_fails_at_construction(self, monkeypatch):
        import treekt.online

        tree = star_tree(2)
        partial = Parameters(gamma={"root": 0.2, "l0": 0.3}, r_easy=0.9,
                             r_med=0.8, r_hard=0.7, epsilon=0.1)
        with pytest.raises(ParameterError, match="'l1'"):
            ClassroomSession(tree=tree, burn_in={}, theta_init=partial)
        # burn_in_fit fails before the fit starts.
        monkeypatch.setattr(treekt.online, "fit", None)
        burn_in = {"s0": [Interaction("q", "l0", Difficulty.EASY, 1)]}
        with pytest.raises(ParameterError, match="'l1'"):
            burn_in_fit(tree, burn_in, init=partial)

    def test_burn_in_fit_matches_direct_fit(self):
        from treekt import fit

        tree, _, stream = small_classroom(seed=1)
        burn_in, _ = split_burn_in(stream, 4)
        session = burn_in_fit(tree, burn_in, tol=1e-6)
        dataset = [
            StudentObservations(sid, observation_set(tree, obs))
            for sid, obs in burn_in.items()
        ]
        report = fit(tree, dataset, default_parameters(tree), tol=1e-6)
        assert session.theta_init == report.params

    def test_observe_equals_manual_one_step(self):
        tree, bank, stream = small_classroom(seed=2)
        burn_in, remainder = split_burn_in(stream, 4)
        session = burn_in_fit(tree, burn_in, tol=1e-6)
        rec = remainder[0]
        observe(session, rec.student_id, rec.interaction())

        dataset = [
            StudentObservations(sid, observation_set(tree, obs))
            for sid, obs in burn_in.items()
            if sid != rec.student_id
        ]
        history = burn_in[rec.student_id] + [rec.interaction()]
        dataset.append(
            StudentObservations(rec.student_id, observation_set(tree, history))
        )
        expected = one_step_update(tree, session.theta_init, dataset)
        assert session.students[rec.student_id].params == expected

    def test_cached_pool_update_equals_rebuilt_update(self):
        # The session splices the target's history into the burn-in pool it
        # packed once; that must equal a one-step update over a dataset
        # rebuilt from scratch, also for students outside the burn-in.
        tree, bank, stream = small_classroom(seed=12, n_students=8)
        burn_in, remainder = split_burn_in(stream, 4)
        session = burn_in_fit(tree, burn_in, tol=1e-6)
        events = [(r.student_id, r.interaction()) for r in remainder[:12]]
        q = bank[0]
        events += [(sid, Interaction(q.question_id, q.kc, q.difficulty, 1))
                   for sid in ("a_newcomer", "zz_newcomer", "a_newcomer")]
        fed = {sid: list(history) for sid, history in burn_in.items()}
        for sid, interaction in events:
            model = session.students.get(sid)
            before = model.params if model is not None else session.theta_init
            observe(session, sid, interaction)
            fed.setdefault(sid, []).append(interaction)
            assert_counts(session.students[sid], tree, fed[sid])
            dataset = [
                StudentObservations(other, observation_set(tree, obs))
                for other, obs in burn_in.items()
                if other != sid
            ]
            dataset.append(StudentObservations(sid, observation_set(tree, fed[sid])))
            want = one_step_update(tree, before, dataset)
            got = session.students[sid].params
            assert set(got.gamma) == set(want.gamma)
            for node in want.gamma:
                assert abs(got.gamma[node] - want.gamma[node]) <= 1e-12
            for name in ("r_easy", "r_med", "r_hard", "epsilon"):
                assert abs(getattr(got, name) - getattr(want, name)) <= 1e-12

    def test_other_students_unaffected_by_observe(self):
        tree, bank, stream = small_classroom(seed=3)
        burn_in, remainder = split_burn_in(stream, 4)
        session = burn_in_fit(tree, burn_in, tol=1e-6)
        rec = remainder[0]
        other = next(s for s in burn_in if s != rec.student_id)
        q = QuestionMeta(bank[0].question_id, bank[0].kc, bank[0].difficulty)
        before = predict_next(session, other, q)
        observe(session, rec.student_id, rec.interaction())
        after = predict_next(session, other, q)
        assert before == after

    def test_prediction_conditions_on_history(self):
        # Feeding many correct answers on one concept raises the predicted
        # success probability on that concept.
        tree, _, stream = small_classroom(seed=4)
        burn_in, _ = split_burn_in(stream, 4)
        session = burn_in_fit(tree, burn_in, tol=1e-6)
        leaf = tree.leaves()[0]
        q = QuestionMeta("probe", leaf, Difficulty.MEDIUM)
        sid = sorted(burn_in)[0]
        base = predict_next(session, sid, q)
        for i in range(8):
            observe(session, sid, Interaction(f"e{i}", leaf, Difficulty.MEDIUM, 1))
        boosted = predict_next(session, sid, q)
        assert boosted.prob_correct > base.prob_correct
        assert boosted.posterior_mastery > base.posterior_mastery

    def test_unseen_student_uses_shared_model(self):
        tree, bank, stream = small_classroom(seed=5)
        burn_in, _ = split_burn_in(stream, 4)
        session = burn_in_fit(tree, burn_in, tol=1e-6)
        q = QuestionMeta(bank[0].question_id, bank[0].kc, bank[0].difficulty)
        pred = predict_next(session, "brand_new", q)
        p1 = pred.posterior_mastery
        phi = session.theta_init.phi(q.difficulty)
        eps = session.theta_init.epsilon
        assert pred.prob_correct == pytest.approx((1 - p1) * eps + p1 * phi)

    def test_frozen_parameters_mode(self):
        tree, _, stream = small_classroom(seed=6)
        burn_in, remainder = split_burn_in(stream, 4)
        session = burn_in_fit(tree, burn_in, tol=1e-6, update_batch=None)
        theta = session.theta_init
        replay(session, remainder[:10])
        assert session.theta_init == theta
        for model in session.students.values():
            assert model.params == theta
        # Responses still accumulate, so predictions keep personalizing.
        sid = remainder[0].student_id
        fed = burn_in[sid] + [r for r in remainder[:10] if r.student_id == sid]
        assert len(fed) > len(burn_in[sid])
        assert_counts(session.students[sid], tree, fed)

    def test_frozen_prediction_equals_direct_posteriors(self):
        # A frozen session packs each history on demand through the slot
        # table; that equals a posteriors call on the history, bit for bit.
        tree, bank, stream = small_classroom(seed=8)
        burn_in, remainder = split_burn_in(stream, 4)
        session = burn_in_fit(tree, burn_in, tol=1e-6, update_batch=None)
        theta = session.theta_init
        newcomer = [StreamRecord("brand_new", q.question_id, q.kc, q.difficulty, 1, i)
                    for i, q in enumerate(bank[:3])]
        fed = {sid: list(history) for sid, history in burn_in.items()}
        for rec in remainder[:20] + newcomer:
            question = QuestionMeta(rec.question_id, rec.kc, rec.difficulty)
            history = fed.setdefault(rec.student_id, [])
            direct = predict(theta, posteriors(tree, theta, observation_set(tree, history)),
                             question)
            assert predict_next(session, rec.student_id, question) == direct
            observe(session, rec.student_id, rec.interaction())
            history.append(rec.interaction())
            assert_counts(session.students[rec.student_id], tree, history)

    def test_frozen_reads_do_no_log_work(self, monkeypatch):
        # A frozen session builds theta_init's log form once; a read of an
        # unchanged theta makes no log work and gives the same prediction.
        import treekt.em
        import treekt.inference
        import treekt.online

        calls = []

        def counted(theta):
            calls.append(theta.shape)
            return log_form(theta)

        log_form = treekt.inference.log_form
        for module in (treekt.inference, treekt.em, treekt.online):
            monkeypatch.setattr(module, "log_form", counted)
        tree, bank, stream = small_classroom(seed=10)
        burn_in, _ = split_burn_in(stream, 4)
        session = ClassroomSession(tree=tree, burn_in=burn_in,
                                   theta_init=default_parameters(tree),
                                   update_batch=None)
        sid = sorted(burn_in)[0]
        q = QuestionMeta(bank[0].question_id, bank[0].kc, bank[0].difficulty)
        first = predict_next(session, sid, q)
        assert len(calls) == 1
        second = predict_next(session, sid, q)
        assert second == first and len(calls) == 1
        # A new response changes the history, not theta.
        observe(session, sid, Interaction("e", q.kc, q.difficulty, 1))
        third = predict_next(session, sid, q)
        assert third != first and len(calls) == 1

    def test_update_batching(self):
        tree, _, stream = small_classroom(seed=7)
        burn_in, remainder = split_burn_in(stream, 4)
        batched = burn_in_fit(tree, burn_in, tol=1e-6, update_batch=3)
        sid = remainder[0].student_id
        recs = [r for r in remainder if r.student_id == sid][:3]
        observe(batched, sid, recs[0].interaction())
        observe(batched, sid, recs[1].interaction())
        assert batched.students[sid].params == batched.theta_init
        observe(batched, sid, recs[2].interaction())
        assert batched.students[sid].params != batched.theta_init


class TestReplay:
    def test_prequential_protocol(self):
        # Each record is predicted before being revealed: the first
        # prediction for a student must match a fresh session's prediction
        # from burn-in alone.
        tree, _, stream = small_classroom(seed=8)
        burn_in, remainder = split_burn_in(stream, 4)
        session = burn_in_fit(tree, burn_in, tol=1e-6)
        records = replay(session, remainder)
        assert len(records) == len(remainder)
        first = remainder[0]
        fresh = burn_in_fit(tree, burn_in, tol=1e-6)
        expected = predict_next(
            fresh,
            first.student_id,
            QuestionMeta(first.question_id, first.kc, first.difficulty),
        )
        assert records[0].p_correct == expected.prob_correct
        assert records[0].actual == first.correct

    def test_deterministic_across_runs(self):
        tree, _, stream = small_classroom(seed=9)
        burn_in, remainder = split_burn_in(stream, 4)
        a = replay(burn_in_fit(tree, burn_in, tol=1e-6), remainder)
        b = replay(burn_in_fit(tree, burn_in, tol=1e-6), remainder)
        assert a == b

    def test_serialize_predictions_roundtrip_fields(self):
        import json

        tree, _, stream = small_classroom(seed=11)
        burn_in, remainder = split_burn_in(stream, 4)
        records = replay(burn_in_fit(tree, burn_in, tol=1e-6), remainder[:5])
        lines = "".join(prediction_lines(records)).splitlines()
        assert len(lines) == 5
        doc = json.loads(lines[0])
        assert doc["student_id"] == records[0].student_id
        assert doc["p_correct"] == records[0].p_correct

    def test_serialize_predictions_bytes(self):
        records = [PredictionRecord("s1", "q1", 0.1 + 0.2, 1, 3),
                   PredictionRecord("s2", "q\u00e9", 0.5, 0, 7)]
        assert "".join(prediction_lines(records)) == (
            '{"actual": 1, "p_correct": 0.30000000000000004, "question_id": "q1", '
            '"seq": 3, "student_id": "s1"}\n'
            '{"actual": 0, "p_correct": 0.5, "question_id": "q\\u00e9", '
            '"seq": 7, "student_id": "s2"}\n')
        assert "".join(prediction_lines([])) == ""


def assert_same_params(got, want, tol=1e-12):
    assert set(got.gamma) == set(want.gamma)
    for node in want.gamma:
        assert abs(got.gamma[node] - want.gamma[node]) <= tol
    for name in ("r_easy", "r_med", "r_hard", "epsilon"):
        assert abs(getattr(got, name) - getattr(want, name)) <= tol


class TestLockStepReplay:
    """replay runs in lock-step rounds over all students; it must equal a
    loop of per-call predict_next and observe in stream order."""

    @staticmethod
    def classroom(shape, seed):
        rng = np.random.default_rng(seed)
        tree = (caterpillar_tree(100) if shape == "caterpillar"
                else random_tree(rng, int(rng.integers(3, 10))))
        bank = random_question_bank(rng, tree, per_leaf=2)
        stream, _ = generate_classroom(
            tree, random_parameters(tree, rng), bank,
            SimConfig(n_students=7, n_interactions=9, seed=seed))
        return tree, bank, stream

    @pytest.mark.parametrize("shape, seed", [
        ("random", 21), ("random", 22), ("random", 23), ("caterpillar", 24),
    ])
    @pytest.mark.parametrize("update_batch", [1, 3, None])
    def test_replay_equals_sequential(self, shape, seed, update_batch):
        tree, bank, stream = self.classroom(shape, seed)
        burn_in, remainder = split_burn_in(stream, 4)
        # A newcomer absent from burn-in joins the stream, interleaved.
        newcomer = [StreamRecord("m_new", q.question_id, q.kc, q.difficulty,
                                 i % 2, i) for i, q in enumerate(bank[:5])]
        remainder = [r for pair in zip(remainder, newcomer) for r in pair] \
            + remainder[len(newcomer):]
        fitted = burn_in_fit(tree, burn_in, tol=1e-4, update_batch=update_batch)
        q = bank[-1]
        early = Interaction(q.question_id, q.kc, q.difficulty, 1)

        def session():
            s = ClassroomSession(tree=tree, burn_in=burn_in,
                                 theta_init=fitted.theta_init,
                                 update_batch=update_batch)
            # Student state that exists before the replay starts.
            for sid in (sorted(burn_in)[0], "a_early_newcomer"):
                observe(s, sid, early)
            return s

        lockstep, sequential = session(), session()
        got = replay(lockstep, remainder)
        want = []
        for rec in remainder:
            question = QuestionMeta(rec.question_id, rec.kc, rec.difficulty)
            want.append(predict_next(sequential, rec.student_id, question))
            observe(sequential, rec.student_id, rec.interaction())

        assert [(r.student_id, r.question_id, r.actual, r.seq) for r in got] == [
            (r.student_id, r.question_id, r.correct, r.seq) for r in remainder]
        for record, pred in zip(got, want):
            assert abs(record.p_correct - pred.prob_correct) <= 1e-12
        fed = {sid: burn_in.get(sid, []) + [early]
               for sid in (sorted(burn_in)[0], "a_early_newcomer")}
        for rec in remainder:
            fed.setdefault(rec.student_id, list(burn_in.get(rec.student_id, []))).append(rec)
        assert set(lockstep.students) == set(sequential.students) == set(fed)
        for sid, model in sequential.students.items():
            other = lockstep.students[sid]
            assert_counts(other, tree, fed[sid])
            assert_counts(model, tree, fed[sid])
            assert other.pending == model.pending
            assert_same_params(other.params, model.params)

    def test_chunked_slabs_equal_one_slab(self, monkeypatch):
        # The call size only splits rounds into kernel calls: the default
        # (every target of a round in one call here), 2 targets a call, and 1.
        import treekt.em
        import treekt.online

        tree, _, stream = self.classroom("random", 25)
        burn_in, remainder = split_burn_in(stream, 4)
        fitted = burn_in_fit(tree, burn_in, tol=1e-4)
        runs = []
        for size in (None, 2, 1):
            if size is not None:
                for module in (treekt.em, treekt.online):
                    monkeypatch.setattr(module, "targets_per_call", lambda cells: size)
            s = ClassroomSession(tree=tree, burn_in=burn_in,
                                 theta_init=fitted.theta_init)
            runs.append((replay(s, remainder), s))
        (first, base), *others = runs
        for records, s in others:
            for a, b in zip(records, first):
                assert abs(a.p_correct - b.p_correct) <= 1e-12
            for sid, model in base.students.items():
                assert_same_params(s.students[sid].params, model.params)


class TestReadPath:
    """Every session gathers each column from the student's count column,
    and a frozen one predicts with one kernel call; observe checks a
    response before it changes anything."""

    @staticmethod
    def session(update_batch=None, seed=14):
        tree, bank, stream = small_classroom(seed=seed, n_students=5)
        burn_in, remainder = split_burn_in(stream, 4)
        theta = default_parameters(tree)
        return (ClassroomSession(tree=tree, burn_in=burn_in, theta_init=theta,
                                 update_batch=update_batch), bank, remainder)

    def test_step_loop_equals_replay_per_student(self):
        # Predictions of a frozen session depend only on the student's own
        # history, and a replay of one student's responses makes kernel
        # calls of one column, as predict_next does: the same bits.
        session, bank, remainder = self.session()
        newcomer = [StreamRecord("m_new", q.question_id, q.kc, q.difficulty, i % 2, i)
                    for i, q in enumerate(bank[:4])]
        remainder = [r for pair in zip(remainder, newcomer) for r in pair] \
            + remainder[len(newcomer):]
        got = {}
        for rec in remainder:
            question = QuestionMeta(rec.question_id, rec.kc, rec.difficulty)
            got.setdefault(rec.student_id, []).append(
                predict_next(session, rec.student_id, question).prob_correct)
            observe(session, rec.student_id, rec.interaction())
        for sid, probs in got.items():
            fresh, _, _ = self.session()
            records = replay(fresh, [r for r in remainder if r.student_id == sid])
            assert [r.p_correct for r in records] == probs

    @pytest.mark.parametrize("update_batch", [None, 1])
    def test_slot_list_column_equals_pack_counts(self, update_batch):
        session, bank, remainder = self.session(update_batch)
        sid = remainder[0].student_id
        fed = {sid: list(session.burn_in[sid])}
        for rec in [r for r in remainder if r.student_id == sid][:3]:
            observe(session, sid, rec.interaction())
            fed[sid].append(rec)
        q = bank[0]
        fed["m_new"] = [Interaction(q.question_id, q.kc, q.difficulty, 1)]
        observe(session, "m_new", fed["m_new"][0])
        quiet = next(other for other in sorted(session.burn_in) if other != sid)
        fed[quiet], fed["never_seen"] = session.burn_in[quiet], []
        ids = [sid, "m_new", quiet, "never_seen"]
        for sid in ids:
            counts = session._counts([sid])
            want = pack_counts(session.tree, [fed[sid]])
            assert counts.dtype == want.dtype and counts.shape == want.shape
            assert np.array_equal(counts, want)
        # One call on all four counts the same columns, in the order asked.
        counts = session._counts(ids)
        assert counts.dtype == np.float64 and counts.shape[2] == len(ids)
        for j, sid in enumerate(ids):
            assert np.array_equal(counts[:, :, j:j + 1], session._counts([sid]))
        # The pool is counted from the same burn-in slots, members in id
        # order, and holds only the burn-in.
        want = pack_counts(session.tree, [*map(session.burn_in.get, sorted(session.burn_in))])
        assert session.pool.shape[2] == len(session.burn_in)
        assert session.pool.dtype == want.dtype and np.array_equal(session.pool, want)

    @pytest.mark.parametrize("update_batch", [None, 1])
    def test_models_keep_one_count_column(self, update_batch):
        # Frozen and updating sessions build models with the same fields,
        # and a model's only arrays are its θ column, its log form and its
        # one count column, an array of its own.
        session, bank, remainder = self.session(update_batch)
        q = bank[0]
        observe(session, "m_new", Interaction(q.question_id, q.kc, q.difficulty, 1))
        replay(session, remainder)
        assert session.students
        for model in session.students.values():
            arrays = [name for name, value in vars(model).items()
                      if isinstance(value, np.ndarray)]
            assert arrays == ["theta", "log_theta", "counts"]
        # A frozen session never builds the pool, and no column is a view
        # of the pool or of another model's.
        pool = vars(session).get("pool")  # where the cached_property keeps it
        assert (pool is None) == (update_batch is None)
        columns = [m.counts for m in session.students.values()]
        arrays = columns if pool is None else [*columns, pool]
        for column in columns:
            assert not any(np.shares_memory(column, other)
                           for other in arrays if other is not column)

    @pytest.mark.parametrize("update_batch", [None, 1])
    def test_counting_work_is_linear_in_the_history(self, monkeypatch, update_batch):
        # A revealed response is counted once, into its student's column:
        # the slot entries that cell_slots and count_cells receive during a
        # replay grow with the stream, not with the square of a history.
        tree, _, stream = small_classroom(seed=16, n_students=3, n_interactions=400)
        burn_in, remainder = split_burn_in(stream, 4)
        session = ClassroomSession(tree=tree, burn_in=burn_in,
                                   theta_init=default_parameters(tree),
                                   update_batch=update_batch)
        entries = []
        real_cell_slots, real_count_cells = online.cell_slots, online.count_cells

        def cell_slots(tree, interactions):
            entries.append(len(interactions))
            return real_cell_slots(tree, interactions)

        def count_cells(tree, columns):
            entries.append(sum(map(len, columns)))
            return real_count_cells(tree, columns)

        monkeypatch.setattr(online, "cell_slots", cell_slots)
        monkeypatch.setattr(online, "count_cells", count_cells)
        replay(session, remainder)
        assert len(remainder) == 3 * 396
        assert sum(entries) <= 3 * len(stream)
        for sid, model in session.students.items():
            assert_counts(model, tree, burn_in[sid] + [
                r for r in remainder if r.student_id == sid])

    def test_burn_in_fit_fits_the_pool_itself(self, monkeypatch):
        import treekt.online

        fitted = []
        real_fit = treekt.online.fit

        def fit(tree, dataset, *args, **kwargs):
            fitted.append(dataset)
            return real_fit(tree, dataset, *args, **kwargs)

        monkeypatch.setattr(treekt.online, "fit", fit)
        tree, _, stream = small_classroom(seed=14, n_students=5)
        burn_in, _ = split_burn_in(stream, 4)
        session = burn_in_fit(tree, burn_in, tol=1e-4)
        assert len(fitted) == 1 and fitted[0] is session.pool
        assert session.pool.shape[2] == len(burn_in)

    def test_unknown_kc_raises(self):
        session, _, remainder = self.session()
        sid = remainder[0].student_id
        with pytest.raises(InferenceError, match="^unknown KC: 'nope'$"):
            predict_next(session, sid, QuestionMeta("q", "nope", Difficulty.EASY))

    @pytest.mark.parametrize("update_batch", [None, 1])
    @pytest.mark.parametrize("newcomer", [False, True])
    @pytest.mark.parametrize("bad", ["internal", "unknown", "correct", "difficulty"])
    def test_bad_response_changes_nothing(self, update_batch, newcomer, bad):
        hit, bank, remainder = self.session(update_batch)
        clean, _, _ = self.session(update_batch)
        sid = "m_new" if newcomer else remainder[0].student_id
        q = bank[0]
        if not newcomer:
            for s in (hit, clean):
                observe(s, sid, remainder[0].interaction())
        bad_response = {
            "internal": Interaction("q", hit.tree.root, q.difficulty, 1),
            "unknown": Interaction("q", "nope", q.difficulty, 1),
            "correct": Interaction("q", q.kc, q.difficulty, 2),
            "difficulty": Interaction("q", q.kc, "weird", 1),
        }[bad]
        before = [(m.student_id, m.counts.tolist(), m.pending)
                  for m in hit.students.values()]
        with pytest.raises(InferenceError):
            observe(hit, sid, bad_response)
        assert [(m.student_id, m.counts.tolist(), m.pending)
                for m in hit.students.values()] == before
        question = QuestionMeta(q.question_id, q.kc, q.difficulty)
        assert predict_next(hit, sid, question) == predict_next(clean, sid, question)
        for s in (hit, clean):
            observe(s, sid, Interaction(q.question_id, q.kc, q.difficulty, 0))
        assert predict_next(hit, sid, question) == predict_next(clean, sid, question)


def slab_e_step(tree, log_theta, slab):
    """The E-steps of T targets over a stacked slab [V, 6, T, S], one kernel
    call per target over its own slab: how replay ran its updates before
    the pooled E-step, kept as its reference."""
    posts = [pool_posteriors(tree, log_theta[:, t:t + 1], slab[:, :, t])
             for t in range(slab.shape[2])]
    marginal = np.concatenate([post.marginal for post in posts], axis=1)
    pair = np.concatenate([post.pair for post in posts], axis=2)
    ll = np.concatenate([post.log_likelihood for post in posts])
    return {"unmastered": np.einsum("vkts,vts->tk", slab, pair[0]),
            "mastered": np.einsum("vkts,vts->tk", slab, marginal),
            "pair": pair.sum(axis=3), "root": marginal[0].sum(axis=1),
            "ll": ll.sum(axis=1)}


class TestPooledEStep:
    """pooled_e_step contracts one shared pool with every target's
    posteriors; it must equal the stacked per-target slabs it replaced."""

    @staticmethod
    def setup(shape, seed, n_students=9, n_targets=6):
        rng = np.random.default_rng(seed)
        tree = caterpillar_tree(12) if shape == "caterpillar" else random_tree(rng, 11)
        pool = pack_counts(tree, [random_observations(tree, rng, 12)
                                  for _ in range(n_students)])
        own = pack_counts(tree, [random_observations(tree, rng, 20)
                                 for _ in range(n_targets)])
        order = kernel_plan(tree).order
        theta = np.stack([random_parameters(tree, rng).column(order)
                          for _ in range(n_targets)], axis=1)
        return rng, tree, pool, own, log_form(theta)

    @staticmethod
    def assert_close(acc, want, targets, n_students):
        for name in ("unmastered", "mastered", "root"):
            assert np.abs(getattr(acc, name)[targets] - want[name]).max() <= 1e-12
        assert np.abs(acc.pair[:, :, targets] - want["pair"]).max() <= 1e-12
        assert np.all(np.broadcast_to(acc.n_students, acc.root.shape)[targets] == n_students)

    @pytest.mark.parametrize("shape, seed", [("random", 31), ("caterpillar", 32)])
    @pytest.mark.parametrize("size", [None, 1])
    def test_members_and_newcomers_equal_stacked_slabs(self, monkeypatch, shape,
                                                       seed, size):
        import treekt.em

        if size is not None:
            monkeypatch.setattr(treekt.em, "targets_per_call", lambda cells: size)
        rng, tree, pool, own, log_theta = self.setup(shape, seed)
        n_students = pool.shape[2]
        members = rng.choice(n_students, 3, replace=False)
        inserted = rng.integers(0, n_students + 1, 3)
        # Targets 0-2 replace their pool column; 3-5 are newcomers, whose
        # history the old slabs inserted in id order, and which replace the
        # empty last column of the pool widened by one, as replay runs them.
        acc = pooled_e_step(tree, log_theta[:, :3], pool, (members, own[:, :, :3]))
        assert acc.ll is None
        widened = np.concatenate((pool, np.zeros_like(pool[:, :, :1])), axis=2)
        acc_new = pooled_e_step(tree, log_theta[:, 3:], widened,
                                (np.full(3, n_students), own[:, :, 3:]))
        assert acc_new.ll is None

        slab = np.repeat(pool[:, :, None, :], 3, axis=2)
        slab[:, :, np.arange(3), members] = own[:, :, :3]
        want = slab_e_step(tree, log_theta[:, :3], slab)
        self.assert_close(acc, want, slice(None), n_students)
        slab = np.stack([np.insert(pool, j, own[:, :, 3 + t], axis=2)
                         for t, j in enumerate(inserted)], axis=2)
        want_new = slab_e_step(tree, log_theta[:, 3:], slab)
        self.assert_close(acc_new, want_new, slice(None), n_students + 1)

    def test_member_updates_run_only_the_pool_columns(self, monkeypatch):
        import treekt.em

        widths = []

        def recorded(*args):
            post = pool_posteriors(*args)
            widths.append(post.marginal.shape[2])
            return post

        monkeypatch.setattr(treekt.em, "pool_posteriors", recorded)
        _, tree, pool, own, log_theta = self.setup("random", 35)
        pooled_e_step(tree, log_theta, pool, (np.array([0, 3, 8, 2, 5, 1]), own))
        assert widths and set(widths) == {pool.shape[2]}

    def test_an_experiment_runs_every_e_step_over_the_session_pool(self, monkeypatch):
        # Every replayed student has burn-in, so no update widens the pool:
        # the fit and every one-step update read session.pool itself.
        import treekt.em
        import treekt.online

        calls = []

        def recorded(tree, log_theta, pool, own=None):
            calls.append((pool, own))
            return pooled_e_step(tree, log_theta, pool, own)

        monkeypatch.setattr(treekt.em, "pooled_e_step", recorded)
        monkeypatch.setattr(treekt.online, "pooled_e_step", recorded)
        tree, _, stream = small_classroom(seed=16, n_students=8)
        session = run_experiment(tree, stream, ExperimentConfig(burn_in_count=3)).session
        assert session.pool.shape[2] == len(session.burn_in) == 8
        assert any(own is not None for _, own in calls)
        assert all(pool is session.pool for pool, _ in calls)

    @staticmethod
    def old_contractions(tree, log_theta, pool, own):
        """The sums as the E-step formed them from the full planes: the
        stacked pair cells and the marginal, each contracted with the pool,
        in the same kernel calls of em.targets_per_call targets."""
        import treekt.em

        n_nodes, n_cells, n_columns = pool.shape
        n_targets = log_theta.shape[1]
        unmastered, mastered = np.empty((2, n_targets, n_cells))
        pair, root = np.empty((2, n_nodes, n_targets)), np.empty(n_targets)
        step = treekt.em.targets_per_call(n_nodes * n_columns)
        for a in range(0, n_targets, step):
            c = slice(a, a + step)
            part = None if own is None else (own[0][c], own[1][:, :, c])
            post = pool_posteriors(tree, log_theta[:, c], pool, part)
            cells, marginal = post.pair, post.marginal
            u = np.matmul(pool, cells[0].transpose(0, 2, 1)).sum(axis=0)
            m = np.matmul(pool, marginal.transpose(0, 2, 1)).sum(axis=0)
            if own is not None:
                t, j = np.arange(len(part[0])), part[0]
                delta = part[1] - pool[:, :, j]
                u += np.einsum("vkt,vt->kt", delta, cells[0][:, t, j])
                m += np.einsum("vkt,vt->kt", delta, marginal[:, t, j])
            unmastered[c], mastered[c] = u.T, m.T
            pair[:, :, c] = cells.sum(axis=-1)
            root[c] = marginal[0].sum(axis=-1)
        return Accumulators(unmastered, mastered, pair, root, n_columns)

    @pytest.mark.parametrize("shape, seed", [("random", 36), ("caterpillar", 37)])
    @pytest.mark.parametrize("edge", [PARAM_FLOOR, 1.0 - PARAM_FLOOR])
    @pytest.mark.parametrize("row", [None, "gamma", "r_easy", "r_med", "r_hard", "epsilon"])
    @pytest.mark.parametrize("size", [None, 2])
    @pytest.mark.parametrize("with_own", [False, True])
    def test_sums_equal_the_old_contractions_at_the_edges(
            self, monkeypatch, shape, seed, edge, row, size, with_own):
        # The E-step reads one posterior plane at a time. The mastered sums
        # stay a contraction of the marginal: the totals less the
        # unmastered sums missed 1e-12 by up to 2.8e-10 where the mastered
        # mass is tiny (γ or a rate at an edge).
        import treekt.em

        if size is not None:
            monkeypatch.setattr(treekt.em, "targets_per_call", lambda cells: size)
        rng, tree, pool, own, _ = self.setup(shape, seed)
        order = kernel_plan(tree).order
        theta = np.stack([random_parameters(tree, rng).column(order)
                          for _ in range(own.shape[2])], axis=1)
        rows = {"gamma": slice(0, len(order)), "r_easy": -4, "r_med": -3, "r_hard": -2,
                "epsilon": -1}
        if row is not None:
            theta[rows[row]] = edge
        log_theta = log_form(theta)
        part = (rng.integers(0, pool.shape[2], own.shape[2]), own) if with_own else None
        acc = pooled_e_step(tree, log_theta, pool, part)
        want = self.old_contractions(tree, log_theta, pool, part)

        def assert_relative(got, expected):
            assert np.all(np.abs(got - expected) <= 1e-12 * np.abs(expected))

        for name in ("unmastered", "mastered", "pair", "root"):
            assert_relative(getattr(acc, name), getattr(want, name))
        assert acc.n_students == want.n_students
        assert_relative(batch_m_step(acc, theta), batch_m_step(want, theta))

    @pytest.mark.parametrize("shape, seed", [("random", 33), ("caterpillar", 34)])
    def test_without_own_columns_every_target_sees_the_pool(self, shape, seed):
        _, tree, pool, _, log_theta = self.setup(shape, seed)
        acc = pooled_e_step(tree, log_theta, pool)
        slab = np.repeat(pool[:, :, None, :], log_theta.shape[1], axis=2)
        want = slab_e_step(tree, log_theta, slab)
        self.assert_close(acc, want, slice(None), pool.shape[2])
        assert np.abs(acc.ll - want["ll"]).max() <= 1e-12


class TestSessionChecks:
    """A session checks update_batch and every burn-in response when it is
    built, before any work."""

    @staticmethod
    def inputs():
        tree, bank, stream = small_classroom(seed=15, n_students=3)
        burn_in, _ = split_burn_in(stream, 3)
        return tree, bank, burn_in

    @pytest.mark.parametrize("batch", [0, -1, 1.5, "2", True, False])
    def test_update_batch_must_be_none_or_a_positive_int(self, batch):
        tree, _, burn_in = self.inputs()
        message = f"^update_batch must be None or an int >= 1, got {re.escape(repr(batch))}$"
        with pytest.raises(ValueError, match=message):
            ClassroomSession(tree=tree, burn_in=burn_in,
                             theta_init=default_parameters(tree), update_batch=batch)
        with pytest.raises(ValueError, match=message):
            burn_in_fit(tree, burn_in, update_batch=batch)

    @pytest.mark.parametrize("batch", [None, 1, 2])
    def test_valid_update_batch(self, batch):
        tree, _, burn_in = self.inputs()
        ClassroomSession(tree=tree, burn_in=burn_in,
                         theta_init=default_parameters(tree), update_batch=batch)

    @pytest.mark.parametrize("bad, message", [
        ("internal", "observation KC '{root}' is not a leaf"),
        ("unknown", "observation references unknown KC 'nope'"),
        ("correct", "correct must be 0 or 1, got 2"),
        ("difficulty", "difficulty must be a Difficulty, got 'weird'"),
    ])
    def test_burn_in_response_without_a_cell(self, bad, message):
        # Before, a response on the root in b's burn-in raised only when b
        # was first read, after a's response of the same round was applied.
        tree, bank, _ = self.inputs()
        q = bank[0]
        good = Interaction(q.question_id, q.kc, q.difficulty, 1)
        bad_response = {
            "internal": Interaction("q", tree.root, q.difficulty, 1),
            "unknown": Interaction("q", "nope", q.difficulty, 1),
            "correct": Interaction("q", q.kc, q.difficulty, 2),
            "difficulty": Interaction("q", q.kc, "weird", 1),
        }[bad]
        expected = f"^{re.escape(message.format(root=tree.root))}$"
        with pytest.raises(InferenceError, match=expected):
            ClassroomSession(tree=tree, burn_in={"a": [good], "b": [bad_response]},
                             theta_init=default_parameters(tree))

    def test_predict_next_names_a_difficulty_that_is_not_one(self):
        tree, bank, burn_in = self.inputs()
        session = ClassroomSession(tree=tree, burn_in=burn_in,
                                   theta_init=default_parameters(tree))
        q = bank[0]
        with pytest.raises(InferenceError,
                           match="^difficulty must be a Difficulty, got 'weird'$"):
            predict_next(session, sorted(burn_in)[0], QuestionMeta("q", q.kc, "weird"))
        with pytest.raises(InferenceError,
                           match="^difficulty must be a Difficulty, got 'weird'$"):
            replay(session, [StreamRecord("m_new", "q", q.kc, "weird", 1, 0)])
        assert session.students == {}


class TestPredictionLines:
    """prediction_lines formats each line itself; its bytes must be
    json.dumps(..., sort_keys=True) of the record's fields."""

    IDS = ["s1", "qé", "☃ snow", "\U0001F600", 'say "hi"', "back\\slash",
           "ctl\x00\x01\x1f\x7f", "tab\tnew\nline\r", "/slash", ""]
    PROBS = [5e-324, 1.0 - 2.0 ** -53, 0.1 + 0.2, 0.5, 1e-17, 2.0 ** -1074 * 3]

    def test_bytes_equal_json_dumps(self):
        records = [PredictionRecord(sid, qid, p, i % 2, i * 7919)
                   for i, (sid, qid, p) in enumerate(
                       (sid, qid, p) for sid in self.IDS for qid in self.IDS[::-1]
                       for p in self.PROBS)]
        want = [json.dumps({"student_id": r.student_id, "question_id": r.question_id,
                            "p_correct": r.p_correct, "actual": r.actual,
                            "seq": r.seq}, sort_keys=True) + "\n" for r in records]
        assert list(prediction_lines(records)) == want
