import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from contactformer.metrics import (
    DegenerateC,
    full_report,
    instance_auc_scores,
    per_instance_auc,
    threshold_report,
    weighted_prf,
)


def oracle_prf(y_true, y_pred, n_classes):
    """Independent confusion-matrix oracle with explicit python loops."""
    per_class = []
    for c in range(n_classes):
        tp = sum(1 for t, p in zip(y_true, y_pred) if t == c and p == c)
        fp = sum(1 for t, p in zip(y_true, y_pred) if t != c and p == c)
        fn = sum(1 for t, p in zip(y_true, y_pred) if t == c and p != c)
        precision = tp / (tp + fp) if tp + fp else 1.0
        recall = tp / (tp + fn) if tp + fn else 1.0
        f1 = (2 * precision * recall / (precision + recall)
              if precision + recall else 1.0)
        per_class.append((tp + fn, precision, recall, f1))
    total = sum(s for s, _, _, _ in per_class)
    wp = sum(s * p for s, p, _, _ in per_class) / total
    wr = sum(s * r for s, _, r, _ in per_class) / total
    wf = sum(s * f for s, _, _, f in per_class) / total
    return wp, wr, wf


def oracle_roc_auc(scores, positive_idx):
    """Trapezoid integration of the ROC curve of one-hot vs scores."""
    scores = list(scores)
    n_neg = len(scores) - 1
    thresholds = sorted(set(scores), reverse=True)
    points = [(0.0, 0.0)]
    for t in thresholds:
        tpr = 1.0 if scores[positive_idx] >= t else 0.0
        fpr = sum(1 for i, s in enumerate(scores)
                  if i != positive_idx and s >= t) / n_neg
        points.append((fpr, tpr))
    auc = 0.0
    for (x0, y0), (x1, y1) in zip(points, points[1:]):
        auc += (x1 - x0) * (y0 + y1) / 2.0
    return auc


class TestWeightedPrf:
    def test_hand_computed_example(self):
        p, r, f, table = weighted_prf([0, 0, 1], [0, 1, 1], 2)
        # class 0: P=1, R=1/2; class 1: P=1/2, R=1
        assert abs(p - (2 * 1.0 + 1 * 0.5) / 3) < 1e-12
        assert abs(r - (2 * 0.5 + 1 * 1.0) / 3) < 1e-12
        assert np.array_equal(table.support, [2, 1])

    def test_perfect_predictions(self):
        p, r, f, _ = weighted_prf([0, 1, 2], [0, 1, 2], 3)
        assert p == r == f == 1.0

    def test_zero_support_zero_prediction_class(self):
        p, r, f, table = weighted_prf([0, 0], [0, 0], 2)
        assert table.precision[1] == table.recall[1] == table.f1[1] == 1.0
        assert table.support[1] == 0
        assert p == r == f == 1.0  # the empty class carries no weight

    def test_f1_zero_over_zero_convention(self):
        # class 1: tp=0, fp>0, fn>0 -> P=0, R=0, F1 hits 0/0 -> 1.0
        _, _, _, table = weighted_prf([1, 0], [0, 1], 2)
        assert table.precision[1] == 0.0
        assert table.recall[1] == 0.0
        assert table.f1[1] == 1.0

    def test_accuracy_equals_weighted_recall(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            c = int(rng.integers(2, 6))
            n = int(rng.integers(1, 20))
            y_true = rng.integers(0, c, size=n)
            y_pred = rng.integers(0, c, size=n)
            _, recall, _, _ = weighted_prf(y_true, y_pred, c)
            assert abs(recall - (y_true == y_pred).mean()) < 1e-12

    def test_matches_oracle_on_random_cases(self):
        rng = np.random.default_rng(1)
        for _ in range(200):
            c = int(rng.integers(1, 6))
            n = int(rng.integers(1, 21))
            y_true = rng.integers(0, c, size=n)
            y_pred = rng.integers(0, c, size=n)
            got = weighted_prf(y_true, y_pred, c)[:3]
            assert np.allclose(got, oracle_prf(y_true, y_pred, c), atol=1e-12)

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            weighted_prf([0, 2], [0, 1], 2)


class TestPerInstanceAuc:
    def test_perfect_ranking(self):
        prob = np.array([[0.6, 0.3, 0.1]])
        assert per_instance_auc(prob, [0]) == 1.0

    def test_middle_rank(self):
        assert per_instance_auc(np.array([[0.3, 0.5, 0.2]]), [0]) == 0.5

    def test_tie_counts_half(self):
        assert per_instance_auc(np.array([[0.4, 0.4, 0.2]]), [0]) == 0.75

    def test_degenerate_class_count(self):
        with pytest.raises(DegenerateC):
            per_instance_auc(np.array([[1.0]]), [0])

    def test_rows_must_normalize(self):
        with pytest.raises(ValueError):
            per_instance_auc(np.array([[0.9, 0.9]]), [0])

    def test_matches_roc_oracle_with_ties(self):
        rng = np.random.default_rng(2)
        for _ in range(300):
            c = int(rng.integers(2, 6))
            grid = rng.integers(0, 4, size=c)
            if grid.sum() == 0:
                grid[0] = 1
            scores = grid / grid.sum()
            label = int(rng.integers(0, c))
            got = instance_auc_scores(scores[None, :], [label])[0]
            assert abs(got - oracle_roc_auc(scores, label)) < 1e-12

    @given(st.data())
    @settings(max_examples=200, deadline=None)
    def test_invariant_under_monotone_transforms(self, data):
        c = data.draw(st.integers(min_value=2, max_value=5))
        n = data.draw(st.integers(min_value=1, max_value=8))
        seed = data.draw(st.integers(min_value=0, max_value=10**6))
        rng = np.random.default_rng(seed)
        scores = rng.integers(0, 5, size=(n, c)).astype(float)
        labels = rng.integers(0, c, size=n)
        base = instance_auc_scores(scores, labels)
        for transform in (lambda s: 3.0 * s + 1.0, np.exp, lambda s: s**3):
            assert np.allclose(instance_auc_scores(transform(scores), labels),
                               base, atol=1e-12)


class TestThresholdReport:
    def test_single_bucket_equals_global(self):
        rng = np.random.default_rng(3)
        y_true = rng.integers(0, 3, size=30)
        y_pred = rng.integers(0, 3, size=30)
        sizes = np.array([40, 50, 60])  # everything >= 30
        report = threshold_report(y_true, y_pred, sizes)
        assert report["lt10"] is None and report["lt30"] is None
        p, r, f, _ = weighted_prf(y_true, y_pred, 3)
        assert report["ge30"].precision == p
        assert report["ge30"].recall == r
        assert report["ge30"].n_instances == 30

    def test_bucket_membership_counts(self):
        sizes = np.array([5, 50])
        y_true = np.array([0] * 5 + [1] * 50)
        y_pred = y_true.copy()
        report = threshold_report(y_true, y_pred, sizes)
        assert report["lt10"].n_instances == 5
        assert report["ge10"].n_instances == 50

    def test_matches_filter_then_recompute_oracle(self):
        rng = np.random.default_rng(4)
        for _ in range(50):
            c = int(rng.integers(2, 5))
            n = int(rng.integers(5, 30))
            sizes = rng.integers(1, 40, size=c)
            y_true = rng.integers(0, c, size=n)
            y_pred = rng.integers(0, c, size=n)
            report = threshold_report(y_true, y_pred, sizes)
            mask = sizes[y_true] >= 10
            for name, m in (("ge10", mask), ("lt10", ~mask)):
                if not m.any():
                    assert report[name] is None
                    continue
                wp, wr, wf = oracle_prf(y_true[m], y_pred[m], c)
                assert abs(report[name].precision - wp) < 1e-12
                assert abs(report[name].recall - wr) < 1e-12
                assert abs(report[name].f1 - wf) < 1e-12
                assert report[name].accuracy == (y_true[m] == y_pred[m]).mean()


class TestFullReport:
    def test_report_fields_and_serialization(self):
        rng = np.random.default_rng(5)
        prob = rng.dirichlet(np.ones(4), size=25)
        labels = rng.integers(0, 4, size=25)
        sizes = np.array([3, 12, 40, 7])
        report = full_report(prob, labels, class_sizes=sizes)
        assert 0.0 <= report.accuracy <= 1.0
        assert 0.0 <= report.mean_auc <= 1.0
        text = report.to_flat_text()
        assert text.startswith("accuracy\t")
        payload = json.loads(report.to_json())
        assert set(payload["thresholds"]) == {"ge10", "lt10", "ge30", "lt30"}
        assert len(payload["per_class"]["support"]) == 4


def flat_text_pinned(report) -> str:
    """MetricsReport.to_flat_text as first written, with every key listed by hand."""
    lines = [
        f"accuracy\t{report.accuracy:.6f}",
        f"weighted_precision\t{report.precision:.6f}",
        f"weighted_recall\t{report.recall:.6f}",
        f"weighted_f1\t{report.f1:.6f}",
        f"mean_instance_auc\t{report.mean_auc:.6f}",
    ]
    for name in sorted(report.thresholds):
        bucket = report.thresholds[name]
        if bucket is None:
            lines.append(f"{name}\tabsent")
            continue
        for metric in ("accuracy", "precision", "recall", "f1"):
            lines.append(f"{name}_{metric}\t{getattr(bucket, metric):.6f}")
        lines.append(f"{name}_n\t{bucket.n_instances}")
    return "\n".join(lines) + "\n"


def json_pinned(report) -> str:
    """MetricsReport.to_json as first written, with every key listed by hand."""
    payload = {
        "accuracy": report.accuracy,
        "weighted_precision": report.precision,
        "weighted_recall": report.recall,
        "weighted_f1": report.f1,
        "mean_instance_auc": report.mean_auc,
        "per_class": {
            "support": report.per_class.support.tolist(),
            "precision": report.per_class.precision.tolist(),
            "recall": report.per_class.recall.tolist(),
            "f1": report.per_class.f1.tolist(),
        },
        "thresholds": {
            name: None if bucket is None else {
                "n_instances": bucket.n_instances,
                "accuracy": bucket.accuracy,
                "precision": bucket.precision,
                "recall": bucket.recall,
                "f1": bucket.f1,
            }
            for name, bucket in sorted(report.thresholds.items())
        },
    }
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


class TestReportBytes:
    """The report files `evaluate` writes keep their bytes: both serializers match
    the hand-listed originals above on drawn reports."""

    @given(st.data())
    @settings(max_examples=200, deadline=None)
    def test_serializers_match_pinned_copies(self, data):
        c = data.draw(st.integers(min_value=2, max_value=5), label="classes")
        n = data.draw(st.integers(min_value=1, max_value=12), label="instances")
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
        grid = rng.integers(0, 4, size=(n, c)).astype(float)
        grid[grid.sum(axis=1) == 0, 0] = 1.0
        prob = grid / grid.sum(axis=1, keepdims=True)
        labels = rng.integers(0, c, size=n)
        # a size bucket that no instance falls in is reported as None
        sizes = data.draw(st.none() | st.lists(st.sampled_from([1, 9, 10, 29, 30, 45]),
                                               min_size=c, max_size=c), label="class_sizes")
        report = full_report(prob, labels, class_sizes=sizes)
        if sizes is None:
            assert report.thresholds == {}
        assert report.to_json() == json_pinned(report)
        assert report.to_flat_text() == flat_text_pinned(report)
