import dataclasses
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from treekt import (
    Difficulty,
    FitReport,
    Interaction,
    Parameters,
    StudentObservations,
    burn_in_fit,
    default_parameters,
    e_step,
    fit,
    m_step,
    observation_set,
    one_step_update,
    serialize_tree,
)
from treekt.cli import main
from treekt.em import Accumulators, SufficientStats, batch_m_step
from treekt.inference import CELL_KEYS
from treekt.model import DEFAULT_R_EASY, DEFAULT_R_MED, EPSILON_CAP, PARAM_FLOOR
from treekt.online import StreamRecord, serialize_stream
from treekt.simulate import (
    SimConfig,
    generate_classroom,
    random_question_bank,
    random_tree,
)

from conftest import random_parameters, single_node_tree, star_tree


def make_dataset(tree, params, rng, n_students=20, n_interactions=15):
    bank = random_question_bank(rng, tree, per_leaf=2)
    config = SimConfig(
        n_students=n_students,
        n_interactions=n_interactions,
        seed=int(rng.integers(1 << 30)),
        match_ability=False,
    )
    stream, _ = generate_classroom(tree, params, bank, config)
    by_student = {}
    for rec in stream:
        by_student.setdefault(rec.student_id, []).append(rec.interaction())
    return [
        StudentObservations(sid, observation_set(tree, interactions))
        for sid, interactions in by_student.items()
    ]


class TestEStep:
    def test_total_ll_is_sum_of_per_student_lls(self):
        from treekt import log_likelihood

        rng = np.random.default_rng(0)
        tree = random_tree(rng, 6)
        params = random_parameters(tree, rng)
        dataset = make_dataset(tree, params, rng, n_students=8)
        _, total = e_step(tree, params, dataset)
        expected = sum(log_likelihood(tree, params, s.obs) for s in dataset)
        assert total == pytest.approx(expected, abs=1e-9)

    def test_serial_and_parallel_identical(self):
        rng = np.random.default_rng(1)
        tree = random_tree(rng, 8)
        params = random_parameters(tree, rng)
        dataset = make_dataset(tree, params, rng, n_students=12)
        s1, ll1 = e_step(tree, params, dataset)
        s4, ll4 = e_step(tree, params, dataset)
        assert ll1 == ll4
        assert s1.gamma_num == s4.gamma_num
        assert s1.gamma_den_extra == s4.gamma_den_extra
        assert s1.root_num == s4.root_num
        assert (s1.eps_pos, s1.eps_neg) == (s4.eps_pos, s4.eps_neg)
        assert s1.r_pos == s4.r_pos and s1.r_neg == s4.r_neg

    def test_dataset_order_does_not_matter(self):
        rng = np.random.default_rng(2)
        tree = random_tree(rng, 6)
        params = random_parameters(tree, rng)
        dataset = make_dataset(tree, params, rng, n_students=10)
        s1, ll1 = e_step(tree, params, dataset)
        s2, ll2 = e_step(tree, params, list(reversed(dataset)))
        assert ll1 == ll2 and s1.gamma_num == s2.gamma_num


class TestMStep:
    def test_closed_form_ratios(self):
        stats = SufficientStats(
            gamma_num={"n1": 3.0},
            gamma_den_extra={"n1": 9.0},
            root_num=14.0,
            n_students=20,
            eps_pos=2.0,
            eps_neg=18.0,
            r_pos={Difficulty.EASY: 8.0, Difficulty.MEDIUM: 6.0, Difficulty.HARD: 3.0},
            r_neg={Difficulty.EASY: 2.0, Difficulty.MEDIUM: 4.0, Difficulty.HARD: 3.0},
        )
        prev = default_parameters(star_tree(1))
        prev = prev.with_gamma({"root": 0.1, "n1": 0.1})
        params = m_step(stats, prev)
        assert params.gamma_of("n1") == pytest.approx(3.0 / 12.0)
        assert params.gamma_of("root") == pytest.approx(0.7)
        assert params.epsilon == pytest.approx(0.1)
        assert params.r_easy == pytest.approx(0.8)
        assert params.r_med == pytest.approx(0.6)
        assert params.r_hard == pytest.approx(0.5)

    def test_epsilon_capped(self):
        stats = SufficientStats(
            gamma_num={},
            gamma_den_extra={},
            root_num=1.0,
            n_students=10,
            eps_pos=40.0,
            eps_neg=60.0,
        )
        prev = default_parameters(single_node_tree())
        params = m_step(stats, prev)
        # Unconstrained ratio is 0.4; the cap pins it to exactly 0.3.
        assert params.epsilon == EPSILON_CAP

    def test_empty_cells_retain_previous_values(self):
        # Zero-mass accumulators leave the previous value in place; only the
        # root prior (the node with no pairwise cell) is always refreshed.
        stats = SufficientStats(
            gamma_num={"l0": 0.0},
            gamma_den_extra={"l0": 0.0},
            root_num=2.0,
            n_students=4,
        )
        prev = Parameters(
            gamma={"root": 0.1, "l0": 0.33},
            r_easy=0.91, r_med=0.81, r_hard=0.71, epsilon=0.11,
        )
        params = m_step(stats, prev)
        assert params.gamma_of("l0") == 0.33
        assert params.gamma_of("root") == pytest.approx(0.5)
        assert params.r_easy == 0.91
        assert params.r_med == 0.81
        assert params.r_hard == 0.71
        assert params.epsilon == 0.11

    def test_requires_students(self):
        with pytest.raises(ValueError):
            m_step(SufficientStats(), default_parameters(single_node_tree()))

    def test_all_outputs_stay_in_open_interval(self):
        stats = SufficientStats(
            gamma_num={"n1": 5.0},
            gamma_den_extra={"n1": 0.0},
            root_num=0.0,
            n_students=5,
            eps_pos=0.0,
            eps_neg=7.0,
            r_pos={Difficulty.EASY: 4.0, Difficulty.MEDIUM: 0.0, Difficulty.HARD: 0.0},
            r_neg={Difficulty.EASY: 0.0, Difficulty.MEDIUM: 1.0, Difficulty.HARD: 0.0},
        )
        prev = default_parameters(star_tree(1))
        prev = prev.with_gamma({"root": 0.1, "n1": 0.1})
        params = m_step(stats, prev)
        for value in [params.epsilon, params.r_easy, params.r_med,
                      params.r_hard, *params.gamma.values()]:
            assert 0.0 < value < 1.0


class TestFit:
    def test_monotone_log_likelihood(self):
        rng = np.random.default_rng(3)
        for _ in range(5):
            tree = random_tree(rng, int(rng.integers(2, 9)))
            truth = random_parameters(tree, rng)
            dataset = make_dataset(tree, truth, rng, n_students=15)
            report = fit(tree, dataset, default_parameters(tree), max_iters=40)
            trace = report.log_likelihood_trace
            assert len(trace) >= 2
            for prev, cur in zip(trace, trace[1:]):
                assert cur >= prev - 1e-9

    def test_convergence_flag(self):
        rng = np.random.default_rng(4)
        tree = random_tree(rng, 5)
        truth = random_parameters(tree, rng)
        dataset = make_dataset(tree, truth, rng, n_students=10)
        report = fit(tree, dataset, default_parameters(tree),
                     max_iters=500, tol=1e-8)
        assert report.converged
        assert report.iterations < 500
        assert abs(report.log_likelihood_trace[-1]
                   - report.log_likelihood_trace[-2]) < 1e-8

    @pytest.mark.parametrize("kwargs, message", [
        ({"max_iters": 0}, "max_iters 0: EM needs at least one iteration"),
        ({"max_iters": -3}, "max_iters -3: EM needs at least one iteration"),
        ({"tol": float("nan")}, "tol nan: EM's tolerance must be a number >= 0"),
        ({"tol": -1e-6}, "tol -1e-06: EM's tolerance must be a number >= 0"),
    ])
    def test_bounds_it_cannot_honour(self, monkeypatch, kwargs, message):
        # Checked before any work: the E-step is never run.
        import treekt.em

        rng = np.random.default_rng(5)
        tree = random_tree(rng, 5)
        dataset = make_dataset(tree, random_parameters(tree, rng), rng, n_students=4)
        burn_in = {s.student_id: list(s.obs) for s in dataset}

        def no_e_step(*args):
            raise AssertionError("E-step ran")

        monkeypatch.setattr(treekt.em, "pooled_e_step", no_e_step)
        for call in (lambda: fit(tree, dataset, default_parameters(tree), **kwargs),
                     lambda: burn_in_fit(tree, burn_in, **kwargs)):
            with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
                call()

    def test_edge_bounds_stay_valid(self):
        rng = np.random.default_rng(6)
        tree = random_tree(rng, 5)
        dataset = make_dataset(tree, random_parameters(tree, rng), rng, n_students=4)
        report = fit(tree, dataset, default_parameters(tree), max_iters=1, tol=0.0)
        assert report.iterations == 1 and len(report.log_likelihood_trace) == 1

    def test_empty_dataset_rejected(self):
        tree = single_node_tree()
        with pytest.raises(ValueError):
            fit(tree, [], default_parameters(tree))
        with pytest.raises(ValueError):
            one_step_update(tree, default_parameters(tree), [])

    def test_two_fixed_iterations_equal_two_single_steps(self):
        rng = np.random.default_rng(5)
        tree = random_tree(rng, 7)
        truth = random_parameters(tree, rng)
        dataset = make_dataset(tree, truth, rng, n_students=10)
        init = default_parameters(tree)
        report = fit(tree, dataset, init, max_iters=2, tol=0.0)
        stepped = one_step_update(tree, init, dataset)
        stepped = one_step_update(tree, stepped, dataset)
        assert report.params == stepped

    def test_logs_one_summary_per_fit(self, tmp_path, capsys):
        # Mastered students who always miss hard questions drive r_hard
        # below epsilon after every M-step; with tol=0 the fit also runs out
        # of iterations. The report holds both facts, and treekt fit prints
        # one line for each on stderr, not one per step.
        tree = star_tree(3)
        interactions = [
            Interaction(f"q{i}", tree.leaves()[i % 3], d, int(d is not Difficulty.HARD))
            for i, d in enumerate(list(Difficulty) * 10)
        ]
        dataset = [
            StudentObservations(f"s{j}", observation_set(tree, interactions))
            for j in range(4)
        ]
        report = fit(tree, dataset, default_parameters(tree), max_iters=6, tol=0.0)
        assert not report.converged
        assert len(report.ordering_breaks) == report.iterations == 6
        assert report.ordering_breaks[0] == 1

        (tmp_path / "tree.json").write_text(serialize_tree(tree))
        (tmp_path / "stream.jsonl").write_text(serialize_stream(
            StreamRecord(f"s{j}", *it, seq)
            for j in range(4) for seq, it in enumerate(interactions)))
        capsys.readouterr()
        assert main(["fit", "--tree", str(tmp_path / "tree.json"),
                     "--stream", str(tmp_path / "stream.jsonl"),
                     "--out", str(tmp_path / "out"), "--max-iters", "6", "--tol", "0"]) == 0
        messages = capsys.readouterr().err.splitlines()
        assert len(messages) == 2
        assert "after 6 of 6 M-steps, first after M-step 1" in messages[0]
        assert "did not converge" in messages[1]

    def test_report_serializes(self):
        rng = np.random.default_rng(6)
        tree = random_tree(rng, 4)
        dataset = make_dataset(tree, random_parameters(tree, rng), rng, 5)
        report = fit(tree, dataset, default_parameters(tree), max_iters=3, tol=0.0)
        import json

        doc = json.loads(report.to_json())
        assert doc["iterations"] == report.iterations
        assert doc["log_likelihood_trace"] == report.log_likelihood_trace


class TestOneStepUpdate:
    def test_never_decreases_likelihood(self):
        rng = np.random.default_rng(7)
        for _ in range(10):
            tree = random_tree(rng, int(rng.integers(2, 8)))
            truth = random_parameters(tree, rng)
            dataset = make_dataset(tree, truth, rng, n_students=8,
                                   n_interactions=10)
            params = random_parameters(tree, rng)
            for _ in range(3):
                _, before = e_step(tree, params, dataset)
                params = one_step_update(tree, params, dataset)
                _, after = e_step(tree, params, dataset)
                assert after >= before - 1e-9


def reference_clamp(p):
    return min(max(p, PARAM_FLOOR), 1.0 - PARAM_FLOOR)


def reference_m_step(stats, prev):
    """The dict-based scalar M-step that batch_m_step replaced, kept as its
    oracle."""
    if stats.n_students == 0:
        raise ValueError("m_step requires statistics from a non-empty dataset")

    gamma = dict(prev.gamma)
    for node, num in stats.gamma_num.items():
        den = num + stats.gamma_den_extra.get(node, 0.0)
        if den > 0.0:
            gamma[node] = reference_clamp(num / den)
    for node in gamma:
        if node not in stats.gamma_num:
            gamma[node] = reference_clamp(stats.root_num / stats.n_students)

    def ratio(pos, neg, fallback):
        den = pos + neg
        if den <= 0.0:
            return fallback
        return reference_clamp(pos / den)

    epsilon = ratio(stats.eps_pos, stats.eps_neg, prev.epsilon)
    epsilon = min(epsilon, EPSILON_CAP)
    r_easy = ratio(stats.r_pos[Difficulty.EASY], stats.r_neg[Difficulty.EASY],
                   prev.r_easy)
    r_med = ratio(stats.r_pos[Difficulty.MEDIUM], stats.r_neg[Difficulty.MEDIUM],
                  prev.r_med)
    r_hard = ratio(stats.r_pos[Difficulty.HARD], stats.r_neg[Difficulty.HARD],
                   prev.r_hard)
    return Parameters(
        gamma=gamma, r_easy=r_easy, r_med=r_med, r_hard=r_hard, epsilon=epsilon
    )


def reference_stats(acc, order, t):
    """Target t's accumulators as the per-target dicts the E-step built
    before it returned arrays."""
    pair = acc.pair[:, :, t].tolist()
    stats = SufficientStats(
        gamma_num=dict(zip(order[1:], pair[1][1:])),
        gamma_den_extra=dict(zip(order[1:], pair[0][1:])),
        root_num=float(acc.root[t]),
        n_students=acc.n_students,
    )
    unmastered, mastered = acc.unmastered.tolist(), acc.mastered.tolist()
    for k, (difficulty, correct) in enumerate(CELL_KEYS):
        if correct == 1:
            stats.eps_pos += unmastered[t][k]
            stats.r_pos[difficulty] += mastered[t][k]
        else:
            stats.eps_neg += unmastered[t][k]
            stats.r_neg[difficulty] += mastered[t][k]
    return stats


#: Accumulator cells: no mass (the parameter keeps its previous value),
#: a sliver (a ratio below PARAM_FLOOR next to a larger cell) or a mass.
_cell = st.one_of(st.just(0.0), st.floats(1e-300, 1e-7), st.floats(0.0, 1e3))
_probability = st.floats(0.0, 1.0, exclude_min=True, exclude_max=True)


@st.composite
def _m_step_inputs(draw):
    n_nodes, n_targets = draw(st.integers(1, 5)), draw(st.integers(1, 6))

    def block(*shape):
        size = int(np.prod(shape))
        return np.array(draw(st.lists(_cell, min_size=size, max_size=size))).reshape(shape)

    n_students = draw(st.integers(1, 50))
    unmastered = block(n_targets, 6)
    # Scaled-down correct cells give ε ratios below the cap as well as above.
    unmastered[:, 1::2] *= draw(st.sampled_from([1.0, 0.1, 1e-3]))
    acc = Accumulators(
        unmastered=unmastered, mastered=block(n_targets, 6),
        pair=block(2, n_nodes, n_targets),
        root=np.array(draw(st.lists(st.floats(0.0, float(n_students)),
                                    min_size=n_targets, max_size=n_targets))),
        n_students=n_students)
    size = (n_nodes + 4) * n_targets
    prev = np.array(draw(st.lists(_probability, min_size=size, max_size=size)))
    return acc, prev.reshape(n_nodes + 4, n_targets)


class TestBatchMStep:
    @settings(max_examples=200, deadline=None)
    @given(inputs=_m_step_inputs())
    def test_every_column_equals_the_scalar_m_step(self, inputs):
        acc, prev = inputs
        order = tuple(f"n{v}" for v in range(len(prev) - 4))
        theta = batch_m_step(acc, prev)
        assert theta.shape == prev.shape
        for t in range(prev.shape[1]):
            want = reference_m_step(reference_stats(acc, order, t),
                                    Parameters.from_column(order, prev[:, t]))
            got = Parameters.from_column(order, theta[:, t])
            assert dict(got.gamma) == dict(want.gamma)
            for name in ("r_easy", "r_med", "r_hard", "epsilon"):
                assert getattr(got, name) == getattr(want, name)

    def test_fallback_cap_floor_and_summation_order(self):
        # One column holds no mass anywhere, one an epsilon ratio of 0.9 and
        # rate ratios below the floor, one correct epsilon cells whose sum
        # depends on its order: (0.1 + 0.2) + 0.3 != 0.1 + (0.2 + 0.3).
        order = ("root", "a")
        prev = np.array([[0.2] * 3, [0.4] * 3, [0.9] * 3, [0.8] * 3, [0.7] * 3,
                         [0.1] * 3])
        acc = Accumulators(
            unmastered=np.array([[0.0] * 6, [1.0, 9.0, 0.0, 0.0, 0.0, 0.0],
                                 [5.0, 0.1, 5.0, 0.2, 0.0, 0.3]]),
            mastered=np.array([[0.0] * 6, [1.0, 1e-9] * 3, [1.0] * 6]),
            pair=np.array([[[0.0] * 3, [0.0, 2.0, 1.0]],
                           [[0.0] * 3, [0.0, 1e-12, 1.0]]]),
            root=np.array([0.0, 3.0, 1.0]), n_students=4)
        theta = batch_m_step(acc, prev)
        assert theta[1:, 0].tolist() == prev[1:, 0].tolist()
        assert theta[0, 0] == PARAM_FLOOR
        assert theta[-1, 1] == EPSILON_CAP
        assert theta[1:5, 1].tolist() == [PARAM_FLOOR] * 4
        assert theta[-1, 2] == ((0.1 + 0.2) + 0.3) / (10.0 + ((0.1 + 0.2) + 0.3))
        for t in range(3):
            want = reference_m_step(reference_stats(acc, order, t),
                                    Parameters.from_column(order, prev[:, t]))
            assert Parameters.from_column(order, theta[:, t]) == want



class TestFitThroughTheMStepEdges:
    """Whole fits whose every M-step meets one of batch_m_step's edges: the
    log-likelihood trace still never drops."""

    @staticmethod
    def edge_fit(monkeypatch, seed, truth, init, bank_filter=lambda q: True):
        """The rates and ε after each M-step of a 40-step fit on a simulated
        classroom, checking that the fit's trace is monotone."""
        import treekt.em

        rng = np.random.default_rng(seed)
        tree = random_tree(rng, 6)
        truth = dataclasses.replace(random_parameters(tree, rng), **truth)
        bank = [q for q in random_question_bank(rng, tree, per_leaf=3) if bank_filter(q)]
        config = SimConfig(n_students=40, n_interactions=25, seed=seed, match_ability=False)
        stream, _ = generate_classroom(tree, truth, bank, config)
        histories = {}
        for rec in stream:
            histories.setdefault(rec.student_id, []).append(rec.interaction())
        dataset = [StudentObservations(sid, observation_set(tree, history))
                   for sid, history in histories.items()]
        steps, real_m_step = [], treekt.em.batch_m_step

        def batch_m_step(acc, prev):
            theta = real_m_step(acc, prev)
            steps.append(dict(zip(("r_easy", "r_med", "r_hard", "epsilon"),
                                  theta[-4:, 0].tolist())))
            return theta

        monkeypatch.setattr(treekt.em, "batch_m_step", batch_m_step)
        init = dataclasses.replace(default_parameters(tree), **init)
        trace = fit(tree, dataset, init, max_iters=40, tol=0.0).log_likelihood_trace
        assert len(trace) == len(steps) == 40
        for prev, cur in zip(trace, trace[1:]):
            assert cur >= prev - 1e-12 * abs(prev)
        return steps

    @pytest.mark.parametrize("seed", [0, 1])
    def test_cells_with_no_mass_beside_cells_with_mass(self, monkeypatch, seed):
        # No hard question is asked: r_hard's cells hold no mass, so every
        # M-step keeps its start, while the other rates move.
        steps = self.edge_fit(monkeypatch, seed, {}, {"r_hard": 0.61},
                              lambda q: q.difficulty is not Difficulty.HARD)
        assert all(step["r_hard"] == 0.61 for step in steps)
        assert steps[-1]["r_easy"] != DEFAULT_R_EASY
        assert steps[-1]["r_med"] != DEFAULT_R_MED

    @pytest.mark.parametrize("seed", [0, 1])
    def test_epsilon_cap_binding(self, monkeypatch, seed):
        # Unmastered students guess right 60% of the time: ε's ratio lies
        # above EPSILON_CAP at every M-step, so every step caps it.
        steps = self.edge_fit(monkeypatch, seed, {"epsilon": 0.6}, {"epsilon": EPSILON_CAP})
        assert all(step["epsilon"] == EPSILON_CAP for step in steps)

    @pytest.mark.parametrize("seed", [0, 1])
    def test_rates_at_one_minus_the_floor(self, monkeypatch, seed):
        # Mastered students never slip: every rate's ratio is 1, clamped to
        # 1 - PARAM_FLOOR at every M-step, where the fit also starts.
        rates = dict.fromkeys(("r_easy", "r_med", "r_hard"), 1.0 - PARAM_FLOOR)
        steps = self.edge_fit(monkeypatch, seed, {**rates, "epsilon": 0.05}, rates)
        assert all(step[name] == 1.0 - PARAM_FLOOR for step in steps for name in rates)
