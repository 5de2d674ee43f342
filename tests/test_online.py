import json

import numpy as np
import pytest

from treekt import (
    ClassroomSession,
    Difficulty,
    Interaction,
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
    split_burn_in,
)
from treekt.online import (
    StreamFormatError,
    parse_stream,
    serialize_predictions,
    serialize_stream,
)
from treekt.simulate import (
    SimConfig,
    generate_classroom,
    random_question_bank,
    random_tree,
)
from treekt.tree import QuestionMeta

from conftest import caterpillar_tree, random_parameters


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
        for sid, interaction in events:
            model = session.students.get(sid)
            before = model.params if model is not None else session.theta_init
            observe(session, sid, interaction)
            dataset = [
                StudentObservations(other, observation_set(tree, obs))
                for other, obs in burn_in.items()
                if other != sid
            ]
            dataset.append(StudentObservations(
                sid, observation_set(tree, session.student_history(sid))
            ))
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
        # History still accumulates, so predictions keep personalizing.
        sid = remainder[0].student_id
        assert len(session.student_history(sid)) > len(burn_in[sid])

    def test_frozen_prediction_equals_direct_posteriors(self):
        # A frozen session packs each history on demand through the slot
        # table; that equals a posteriors call on the history, bit for bit.
        tree, bank, stream = small_classroom(seed=8)
        burn_in, remainder = split_burn_in(stream, 4)
        session = burn_in_fit(tree, burn_in, tol=1e-6, update_batch=None)
        theta = session.theta_init
        newcomer = [StreamRecord("brand_new", q.question_id, q.kc, q.difficulty, 1, i)
                    for i, q in enumerate(bank[:3])]
        for rec in remainder[:20] + newcomer:
            question = QuestionMeta(rec.question_id, rec.kc, rec.difficulty)
            history = session.student_history(rec.student_id)
            direct = predict(theta, posteriors(tree, theta, observation_set(tree, history)),
                             question)
            assert predict_next(session, rec.student_id, question) == direct
            observe(session, rec.student_id, rec.interaction())
        assert all(model.packed is None for model in session.students.values())

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
        lines = serialize_predictions(records).splitlines()
        assert len(lines) == 5
        doc = json.loads(lines[0])
        assert doc["student_id"] == records[0].student_id
        assert doc["p_correct"] == records[0].p_correct

    def test_serialize_predictions_bytes(self):
        records = [PredictionRecord("s1", "q1", 0.1 + 0.2, 1, 3),
                   PredictionRecord("s2", "q\u00e9", 0.5, 0, 7)]
        assert serialize_predictions(records) == (
            '{"actual": 1, "p_correct": 0.30000000000000004, "question_id": "q1", '
            '"seq": 3, "student_id": "s1"}\n'
            '{"actual": 0, "p_correct": 0.5, "question_id": "q\\u00e9", '
            '"seq": 7, "student_id": "s2"}\n')
        assert serialize_predictions([]) == ""


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

        def session():
            s = ClassroomSession(tree=tree, burn_in=burn_in,
                                 theta_init=fitted.theta_init,
                                 update_batch=update_batch)
            # Student state that exists before the replay starts.
            q = bank[-1]
            for sid in (sorted(burn_in)[0], "a_early_newcomer"):
                observe(s, sid, Interaction(q.question_id, q.kc, q.difficulty, 1))
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
        assert set(lockstep.students) == set(sequential.students)
        for sid, model in sequential.students.items():
            other = lockstep.students[sid]
            assert len(other.history) == len(model.history)
            assert other.pending == model.pending
            assert_same_params(other.params, model.params)

    def test_chunked_slabs_equal_one_slab(self, monkeypatch):
        # The slab budget only splits rounds into kernel calls.
        import treekt.online

        tree, _, stream = self.classroom("random", 25)
        burn_in, remainder = split_burn_in(stream, 4)
        fitted = burn_in_fit(tree, burn_in, tol=1e-4)
        runs = []
        for cells in (treekt.online.SLAB_CELLS, 2 * len(tree.nodes) * len(burn_in), 1):
            monkeypatch.setattr(treekt.online, "SLAB_CELLS", cells)
            s = ClassroomSession(tree=tree, burn_in=burn_in,
                                 theta_init=fitted.theta_init)
            runs.append((replay(s, remainder), s))
        (first, base), *others = runs
        for records, s in others:
            for a, b in zip(records, first):
                assert abs(a.p_correct - b.p_correct) <= 1e-12
            for sid, model in base.students.items():
                assert_same_params(s.students[sid].params, model.params)
