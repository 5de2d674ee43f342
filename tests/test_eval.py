import json

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from treekt import accuracy, auc, f1, metrics_report, run_experiment
from treekt.evaluate import ExperimentConfig, MetricError, csv_lines
from treekt.online import PredictionRecord
from treekt.simulate import (
    SimConfig,
    generate_classroom,
    random_question_bank,
    random_tree,
)

from conftest import random_parameters


def rec(p, actual, i=0):
    return PredictionRecord("s", f"q{i}", p, actual, i)


def make_records(pairs):
    return [rec(p, a, i) for i, (p, a) in enumerate(pairs)]


class TestAuc:
    def test_perfect_separation(self):
        records = make_records([(0.9, 1), (0.8, 1), (0.2, 0), (0.1, 0)])
        assert auc(records) == 1.0

    def test_perfect_inversion(self):
        records = make_records([(0.1, 1), (0.9, 0)])
        assert auc(records) == 0.0

    def test_all_tied_scores_give_half(self):
        records = make_records([(0.5, 1), (0.5, 0), (0.5, 1), (0.5, 0)])
        assert auc(records) == 0.5

    def test_hand_value_with_ties(self):
        # Scores 0.2(0), 0.4(1), 0.4(0), 0.8(1): ranks 1, 2.5, 2.5, 4.
        # U = (2.5 + 4) - 2*3/2 = 3.5; AUC = 3.5 / (2*2) = 0.875.
        records = make_records([(0.2, 0), (0.4, 1), (0.4, 0), (0.8, 1)])
        assert auc(records) == pytest.approx(0.875)

    def test_single_class_undefined(self):
        with pytest.raises(MetricError):
            auc(make_records([(0.4, 1), (0.6, 1)]))

    def test_probability_interpretation(self):
        # AUC equals the probability a random positive outranks a random
        # negative, with ties counting half.
        rng = np.random.default_rng(0)
        for _ in range(20):
            n = int(rng.integers(4, 40))
            records = make_records([
                (float(rng.choice([0.1, 0.3, 0.5, 0.7, 0.9])),
                 int(rng.integers(2)))
                for _ in range(n)
            ])
            pos = [r.p_correct for r in records if r.actual == 1]
            neg = [r.p_correct for r in records if r.actual == 0]
            if not pos or not neg:
                continue
            wins = sum(
                1.0 if p > q else (0.5 if p == q else 0.0)
                for p in pos for q in neg
            )
            assert auc(records) == pytest.approx(wins / (len(pos) * len(neg)))

    @given(st.floats(min_value=0.01, max_value=5.0))
    def test_invariant_under_monotone_transforms(self, power):
        records = make_records(
            [(0.1, 0), (0.3, 1), (0.45, 0), (0.45, 1), (0.7, 1), (0.9, 0)]
        )
        transformed = [
            PredictionRecord(r.student_id, r.question_id,
                             r.p_correct ** power, r.actual, r.seq)
            for r in records
        ]
        assert auc(transformed) == pytest.approx(auc(records))


class TestThresholdMetrics:
    RECORDS = make_records([(0.9, 1), (0.8, 0), (0.3, 0), (0.2, 1)])

    def test_accuracy(self):
        assert accuracy(self.RECORDS) == 0.5
        assert accuracy(self.RECORDS, threshold=0.85) == 0.75

    def test_f1_hand_value(self):
        # At 0.5: tp=1 (0.9), fp=1 (0.8), fn=1 (0.2) -> F1 = 2/4.
        assert f1(self.RECORDS) == pytest.approx(0.5)

    def test_empty_input_undefined(self):
        with pytest.raises(MetricError):
            accuracy([])
        with pytest.raises(MetricError):
            f1([])

    def test_f1_without_any_positives(self):
        with pytest.raises(MetricError):
            f1(make_records([(0.1, 0), (0.2, 0)]))

    def test_report_bundle(self):
        report = metrics_report(self.RECORDS)
        assert report.n_records == 4
        assert report.positive_rate == 0.5
        doc = json.loads(report.to_json())
        assert doc["auc"] == report.auc
        text = report.table()
        assert "AUC" in text and "F1" in text


class TestCsvExport:
    def test_float_roundtrip(self):
        records = make_records([(0.1 + 0.2, 1)])
        text = "".join(csv_lines(records))
        lines = text.splitlines()
        assert lines[0] == "student_id,question_id,p_correct,actual,seq"
        assert float(lines[1].split(",")[2]) == records[0].p_correct

    def test_fields_quoted_as_a_csv_file_writer_quotes_them(self):
        records = [PredictionRecord("a,b", 'q"1', 0.25, 1, 3)]
        assert "".join(csv_lines(records)).splitlines()[1] == '"a,b","q""1",0.25,1,3'


class TestRunExperiment:
    def test_end_to_end(self):
        rng = np.random.default_rng(1)
        tree = random_tree(rng, 8)
        truth = random_parameters(tree, rng)
        bank = random_question_bank(rng, tree, per_leaf=2)
        stream, _ = generate_classroom(
            tree, truth, bank, SimConfig(n_students=8, n_interactions=12, seed=1)
        )
        config = ExperimentConfig(burn_in_count=4, em_tol=1e-4)
        result = run_experiment(tree, stream, config)
        assert result.report.n_records == 8 * 8
        assert 0.0 <= result.report.auc <= 1.0
        assert all(0.0 <= r.p_correct <= 1.0 for r in result.records)
        # Session retains the burn-in fit for inspection.
        assert result.session.fit_report is not None

    def test_deterministic(self):
        rng = np.random.default_rng(2)
        tree = random_tree(rng, 6)
        truth = random_parameters(tree, rng)
        bank = random_question_bank(rng, tree, per_leaf=2)
        stream, _ = generate_classroom(
            tree, truth, bank, SimConfig(n_students=6, n_interactions=10, seed=2)
        )
        config = ExperimentConfig(burn_in_count=3, em_tol=1e-4)
        a = run_experiment(tree, stream, config)
        b = run_experiment(tree, stream, config)
        assert a.records == b.records
        assert a.report == b.report

    @pytest.mark.parametrize("burn_in, outcome", [(10, None), (3, 1), (3, 0),
                                                  (0, None), (-1, None)])
    def test_unscorable_remainder_fails_before_fit(self, monkeypatch, burn_in,
                                                   outcome):
        # A remainder that is empty, or holds one outcome class, cannot be
        # scored, and a burn-in below 1 leaves nothing to fit; that must be
        # found before the burn-in fit is paid for.
        import dataclasses

        import treekt.evaluate

        def no_fit(*args, **kwargs):
            raise AssertionError("burn_in_fit reached")

        monkeypatch.setattr(treekt.evaluate, "burn_in_fit", no_fit)
        rng = np.random.default_rng(3)
        tree = random_tree(rng, 6)
        bank = random_question_bank(rng, tree, per_leaf=2)
        stream, _ = generate_classroom(
            tree, random_parameters(tree, rng), bank,
            SimConfig(n_students=4, n_interactions=6, seed=3),
        )
        if outcome is not None:
            stream = [dataclasses.replace(r, correct=outcome) for r in stream]
        with pytest.raises(MetricError, match=f"--burn-in {burn_in} "):
            run_experiment(tree, stream, ExperimentConfig(burn_in_count=burn_in))
