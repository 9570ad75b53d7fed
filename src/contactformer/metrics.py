"""Classification metrics for heavily imbalanced label spaces.

Weighted precision/recall/F1 aggregate per-class values by class support,
with the 0/0 convention fixed to 1.0 (a class with no true and no
predicted instances is counted as perfectly handled, then contributes
zero weight). AUC-ROC is computed per instance from the rank of the true
class's score among all class scores and averaged over instances.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass

import numpy as np

SIZE_THRESHOLDS = (10, 30)  # class sizes that split the report's buckets


class DegenerateC(ValueError):
    """Per-instance AUC needs at least two classes."""


@dataclass(frozen=True)
class ClassTable:
    """Per-class metric columns, each of length C."""

    support: np.ndarray
    precision: np.ndarray
    recall: np.ndarray
    f1: np.ndarray


@dataclass(frozen=True)
class BucketMetrics:
    """Metrics recomputed over the instances of one class-size bucket."""

    n_instances: int
    accuracy: float
    precision: float
    recall: float
    f1: float


@dataclass(frozen=True)
class MetricsReport:
    accuracy: float
    precision: float
    recall: float
    f1: float
    mean_auc: float
    per_class: ClassTable
    thresholds: dict[str, BucketMetrics | None]  # empty without class sizes

    def headline(self) -> dict[str, float]:
        """The five whole-set metrics under their report names."""
        return {
            "accuracy": self.accuracy,
            "weighted_precision": self.precision,
            "weighted_recall": self.recall,
            "weighted_f1": self.f1,
            "mean_instance_auc": self.mean_auc,
        }

    def to_flat_text(self) -> str:
        """Flat key-value lines, one metric per line."""
        lines = [f"{name}\t{value:.6f}" for name, value in self.headline().items()]
        for name in sorted(self.thresholds):
            bucket = self.thresholds[name]
            if bucket is None:
                lines.append(f"{name}\tabsent")
                continue
            for metric in ("accuracy", "precision", "recall", "f1"):
                lines.append(f"{name}_{metric}\t{getattr(bucket, metric):.6f}")
            lines.append(f"{name}_n\t{bucket.n_instances}")
        return "\n".join(lines) + "\n"

    def to_json(self) -> str:
        payload = {
            **self.headline(),
            "per_class": {name: column.tolist() for name, column in vars(self.per_class).items()},
            "thresholds": {name: None if bucket is None else asdict(bucket)
                           for name, bucket in self.thresholds.items()},
        }
        return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def _safe_div(num: np.ndarray, den: np.ndarray) -> np.ndarray:
    """Element-wise num/den with the 0/0 -> 1.0 convention."""
    out = np.ones_like(num, dtype=np.float64)
    nonzero = den != 0
    out[nonzero] = num[nonzero] / den[nonzero]
    return out


def weighted_prf(y_true, y_pred, n_classes: int) -> tuple[float, float, float, ClassTable]:
    """Support-weighted precision, recall, F1 plus the per-class table."""
    y_true = np.asarray(y_true)
    y_pred = np.asarray(y_pred)
    if y_true.shape != y_pred.shape:
        raise ValueError("y_true and y_pred must have the same shape")
    if y_true.size == 0:
        raise ValueError("empty evaluation set")
    for arr in (y_true, y_pred):
        if arr.min() < 0 or arr.max() >= n_classes:
            raise ValueError("label out of range")

    tp = np.bincount(y_true[y_true == y_pred], minlength=n_classes).astype(np.float64)
    support = np.bincount(y_true, minlength=n_classes).astype(np.float64)
    predicted = np.bincount(y_pred, minlength=n_classes).astype(np.float64)

    precision = _safe_div(tp, predicted)
    recall = _safe_div(tp, support)
    f1 = _safe_div(2.0 * precision * recall, precision + recall)

    total = support.sum()
    table = ClassTable(support, precision, recall, f1)
    return (
        float((support * precision).sum() / total),
        float((support * recall).sum() / total),
        float((support * f1).sum() / total),
        table,
    )


def instance_auc_scores(scores: np.ndarray, labels) -> np.ndarray:
    """Rank-based per-instance AUC: (#below + 0.5 * #ties) / (C - 1).

    Works on arbitrary score rows (no normalization assumed); invariant
    under any strictly monotone transform of each row.
    """
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels)
    if scores.ndim != 2:
        raise ValueError(f"scores must be (B, C), got {scores.shape}")
    n, c = scores.shape
    if c < 2:
        raise DegenerateC(f"need at least 2 classes, got {c}")
    if labels.shape != (n,):
        raise ValueError("labels shape mismatch")
    true_scores = scores[np.arange(n), labels][:, None]
    below = (scores < true_scores).sum(axis=1)
    ties = (scores == true_scores).sum(axis=1) - 1  # exclude the true class
    return (below + 0.5 * ties) / (c - 1)


def per_instance_auc(prob: np.ndarray, labels) -> float:
    """Mean one-vs-rest AUC over instances; rows must sum to 1 within 1e-5."""
    prob = np.asarray(prob, dtype=np.float64)
    if prob.ndim == 2 and not np.allclose(prob.sum(axis=1), 1.0, atol=1e-5):
        raise ValueError("probability rows must sum to 1 within 1e-5")
    return float(instance_auc_scores(prob, labels).mean())


def threshold_report(y_true, y_pred, class_sizes) -> dict[str, BucketMetrics | None]:
    """Bucket instances by their true class's full-dataset size.

    class_sizes[c] is the size of class c in the complete pre-split
    dataset, which is what SIZE_THRESHOLDS refer to. For each threshold
    t two buckets are reported (ge / lt); an empty bucket is reported as
    None, not as zeros.
    """
    y_true = np.asarray(y_true)
    y_pred = np.asarray(y_pred)
    class_sizes = np.asarray(class_sizes)
    n_classes = class_sizes.shape[0]
    instance_sizes = class_sizes[y_true]

    report: dict[str, BucketMetrics | None] = {}
    for t in SIZE_THRESHOLDS:
        for name, mask in ((f"ge{t}", instance_sizes >= t), (f"lt{t}", instance_sizes < t)):
            if not mask.any():
                report[name] = None
                continue
            sub_true, sub_pred = y_true[mask], y_pred[mask]
            precision, recall, f1, _ = weighted_prf(sub_true, sub_pred, n_classes)
            report[name] = BucketMetrics(
                n_instances=int(mask.sum()),
                accuracy=float((sub_true == sub_pred).mean()),
                precision=precision,
                recall=recall,
                f1=f1,
            )
    return report


def full_report(prob: np.ndarray, y_true, class_sizes=None) -> MetricsReport:
    """Assemble the complete report from predicted probabilities."""
    prob = np.asarray(prob)
    y_true = np.asarray(y_true)
    y_pred = prob.argmax(axis=1)
    n_classes = prob.shape[1]
    precision, recall, f1, table = weighted_prf(y_true, y_pred, n_classes)
    buckets = {}
    if class_sizes is not None:
        buckets = threshold_report(y_true, y_pred, class_sizes)
    return MetricsReport(
        accuracy=float((y_true == y_pred).mean()),
        precision=precision,
        recall=recall,
        f1=f1,
        mean_auc=per_instance_auc(prob, y_true),
        per_class=table,
        thresholds=buckets,
    )
