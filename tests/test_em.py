import logging

import numpy as np
import pytest

from treekt import (
    Difficulty,
    FitReport,
    Interaction,
    Parameters,
    StudentObservations,
    default_parameters,
    e_step,
    fit,
    m_step,
    observation_set,
    one_step_update,
)
from treekt.em import SufficientStats
from treekt.model import EPSILON_CAP
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

    def test_logs_one_summary_per_fit(self, caplog):
        # Mastered students who always miss hard questions drive r_hard
        # below epsilon after every M-step; with tol=0 the fit also runs out
        # of iterations. Each condition gets one line, not one per step.
        tree = star_tree(3)
        interactions = [
            Interaction(f"q{i}", tree.leaves()[i % 3], d, int(d is not Difficulty.HARD))
            for i, d in enumerate(list(Difficulty) * 10)
        ]
        dataset = [
            StudentObservations(f"s{j}", observation_set(tree, interactions))
            for j in range(4)
        ]
        with caplog.at_level(logging.WARNING, logger="treekt"):
            report = fit(tree, dataset, default_parameters(tree),
                         max_iters=6, tol=0.0)
        messages = [r.getMessage() for r in caplog.records]
        assert not report.converged
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
