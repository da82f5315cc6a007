"""Metric implementations against hand fixtures and the naive reference."""

import json
import math

import numpy as np
import pytest

from mixcon.errors import InputError, NumericError
from mixcon.metrics import (
    MetricsReport,
    PredictionSet,
    average_precision,
    pr_f1_report,
    report_to_json,
)

from reference import naive_report


def random_instance(rng, max_samples=50, max_classes=6):
    n = int(rng.integers(1, max_samples + 1))
    c = int(rng.integers(1, max_classes + 1))
    scores = rng.random((n, c))
    truths = rng.integers(0, 2, (n, c))
    return PredictionSet(scores, truths)


class TestAveragePrecision:
    def test_hand_fixture_five_sixths(self):
        ap = average_precision([0.9, 0.8, 0.1], [1, 0, 1])
        assert ap == pytest.approx(5.0 / 6.0, rel=1e-12)

    def test_perfect_ranking_is_one(self):
        assert average_precision([0.9, 0.8, 0.2, 0.1], [1, 1, 0, 0]) == 1.0

    def test_single_positive_sample_is_one(self):
        assert average_precision([0.123], [1]) == 1.0

    def test_no_positives_returns_nan(self):
        assert math.isnan(average_precision([0.4, 0.2], [0, 0]))

    def test_ties_break_by_original_order(self):
        # Equal scores keep original order, so the positive placed first
        # among the tied pair gets the better rank.
        first = average_precision([0.5, 0.5], [1, 0])
        second = average_precision([0.5, 0.5], [0, 1])
        assert first == 1.0
        assert second == 0.5

    def test_validation(self):
        with pytest.raises(InputError):
            average_precision([[0.5]], [[1]])
        with pytest.raises(InputError):
            average_precision([0.5, 0.5], [0, 2])
        with pytest.raises(NumericError):
            average_precision([0.5, float("nan")], [0, 1])


class TestMapScore:
    def test_mean_of_class_aps(self):
        preds = PredictionSet(
            np.array([[0.9, 0.9], [0.1, 0.1]]),
            np.array([[1, 0], [0, 1]]),
        )
        assert pr_f1_report(preds).map == pytest.approx(0.75, abs=1e-15)

    def test_positive_free_class_excluded(self):
        preds = PredictionSet(
            np.array([[0.9, 0.9], [0.1, 0.1]]),
            np.array([[1, 0], [0, 0]]),
        )
        assert pr_f1_report(preds).map == 1.0

    def test_all_classes_positive_free_gives_nan(self):
        preds = PredictionSet(np.array([[0.9], [0.1]]), np.array([[0], [0]]))
        report = pr_f1_report(preds)
        assert math.isnan(report.map)
        assert json.loads(report_to_json(report))["metrics"]["map"] is None


class TestReport:
    def test_perfect_predictions_all_ones(self):
        truths = np.array([[1, 0, 1], [0, 1, 1], [1, 1, 0]])
        preds = PredictionSet(truths.astype(float), truths)
        report = pr_f1_report(preds)
        for name in ("map", "cp", "cr", "cf1", "op", "or_", "of1"):
            assert getattr(report, name) == 1.0

    def test_all_zero_scores(self):
        preds = PredictionSet(
            np.zeros((3, 2)), np.array([[1, 0], [0, 1], [1, 1]])
        )
        report = pr_f1_report(preds)
        assert report.or_ == 0.0
        assert report.of1 == 0.0
        assert report.cp == 1.0

    def test_hand_confusion_fixture(self):
        scores = np.array([[0.9, 0.4], [0.6, 0.7], [0.2, 0.8]])
        truths = np.array([[1, 0], [0, 1], [1, 1]])
        report = pr_f1_report(PredictionSet(scores, truths))
        assert report.cp == pytest.approx(0.75, abs=1e-15)
        assert report.cr == pytest.approx(0.75, abs=1e-15)
        assert report.cf1 == pytest.approx(0.75, abs=1e-15)
        assert report.op == pytest.approx(0.75, abs=1e-15)
        assert report.or_ == pytest.approx(0.75, abs=1e-15)
        assert report.of1 == pytest.approx(0.75, abs=1e-15)
        assert report.map == pytest.approx(11.0 / 12.0, rel=1e-12)
        assert report.per_class[0]["precision"] == 0.5
        assert report.per_class[1]["f1"] == 1.0

    def test_matches_naive_reference_exactly(self):
        rng = np.random.default_rng(2024)
        for _ in range(100):
            preds = random_instance(rng)
            report = pr_f1_report(preds, threshold=0.5)
            expected = naive_report(preds.scores, preds.truths, 0.5)
            got = report.headline()
            for key, value in expected.items():
                if isinstance(value, float) and math.isnan(value):
                    assert math.isnan(got[key])
                else:
                    assert got[key] == value, key

    def test_threshold_monotonicity_of_pooled_recall(self):
        rng = np.random.default_rng(5)
        preds = random_instance(rng, max_samples=30, max_classes=4)
        recalls = [
            pr_f1_report(preds, threshold=t).or_
            for t in (0.1, 0.3, 0.5, 0.7, 0.9)
        ]
        assert all(a >= b for a, b in zip(recalls, recalls[1:]))

    def test_permutation_invariance(self):
        rng = np.random.default_rng(6)
        n, c = 20, 3
        scores = rng.permutation(np.linspace(0.01, 0.99, n * c)).reshape(n, c)
        truths = rng.integers(0, 2, (n, c))
        truths[0] = 1
        base = pr_f1_report(PredictionSet(scores, truths))
        perm = rng.permutation(n)
        shuffled = pr_f1_report(PredictionSet(scores[perm], truths[perm]))
        for name in ("map", "cp", "cr", "cf1", "op", "or_", "of1"):
            assert getattr(base, name) == getattr(shuffled, name)

    def test_map_invariant_under_monotone_transform(self):
        rng = np.random.default_rng(7)
        n, c = 15, 4
        scores = rng.permutation(np.linspace(0.05, 0.95, n * c)).reshape(n, c)
        truths = rng.integers(0, 2, (n, c))
        truths[0] = 1
        a = pr_f1_report(PredictionSet(scores, truths)).map
        b = pr_f1_report(PredictionSet(scores**2, truths)).map
        assert a == b

    def test_threshold_validation(self):
        preds = PredictionSet(np.array([[0.5]]), np.array([[1]]))
        with pytest.raises(InputError):
            pr_f1_report(preds, threshold=0.0)
        with pytest.raises(InputError):
            pr_f1_report(preds, threshold=1.0)


class TestTypes:
    def test_prediction_set_validation(self):
        with pytest.raises(InputError):
            PredictionSet(np.array([[1.5]]), np.array([[1]]))
        with pytest.raises(InputError):
            PredictionSet(np.array([[0.5]]), np.array([[2]]))
        with pytest.raises(InputError):
            PredictionSet(np.array([[0.5]]), np.array([[1], [0]]))
        with pytest.raises(NumericError):
            PredictionSet(np.array([[float("inf")]]), np.array([[1]]))

    def test_report_invariants_enforced(self):
        with pytest.raises(InputError):
            MetricsReport(
                map=0.5, cp=0.5, cr=0.5, cf1=0.9, op=0.5, or_=0.5,
                of1=0.5, per_class=(), threshold=0.5,
            )
        with pytest.raises(InputError):
            MetricsReport(
                map=0.5, cp=1.5, cr=0.5, cf1=0.75, op=0.5, or_=0.5,
                of1=0.5, per_class=(), threshold=0.5,
            )


class TestSerialization:
    def test_fixed_keys_and_round_trip(self):
        truths = np.array([[1, 0], [0, 1]])
        report = pr_f1_report(PredictionSet(truths.astype(float), truths))
        blob = report_to_json(report, config_hash="deadbeef", seed=3)
        payload = json.loads(blob)
        assert set(payload) == {
            "metrics", "threshold", "per_class", "config_hash", "seed",
        }
        assert set(payload["metrics"]) == {
            "map", "cp", "cr", "cf1", "op", "or", "of1",
        }
        assert payload["metrics"]["or"] == 1.0
        assert payload["config_hash"] == "deadbeef"
        assert report_to_json(report, config_hash="deadbeef", seed=3) == blob

    def test_nan_sentinels_become_null(self):
        preds = PredictionSet(np.array([[0.9], [0.1]]), np.array([[0], [0]]))
        payload = json.loads(report_to_json(pr_f1_report(preds)))
        assert payload["metrics"]["map"] is None
        assert payload["per_class"][0]["ap"] is None
