"""Correctness checks: each takes program outputs plus an independent answer.

Every function returns a list of failure messages (empty = pass), so the
smoke test can feed each one a deliberately corrupted output and see it
fire. The reference answers come from the benchmark's own generators,
from a separate computation, or from a property the method must have;
none is a stored copy of an earlier run.
"""

from __future__ import annotations

import math

import numpy as np


# --- training workloads ------------------------------------------------------

def finite_losses(losses) -> list[str]:
    bad = [k for k, v in enumerate(losses) if not math.isfinite(v)]
    if not losses:
        return ["no training step was recorded"]
    return [f"non-finite loss at steps {bad[:5]}"] if bad else []


def first_loss_near_log_c(first_loss: float, n_classes: int, rel_tol: float = 0.25) -> list[str]:
    """With a small classifier init the logits start near uniform, so the
    class-weighted cross-entropy of the first step sits near log C.

    The logits' spread (0.02 * sqrt(d) at most) moves a batch's loss by
    about 0.1 nats with batches of 8; 25% of log C is several times that.
    """
    target = math.log(n_classes)
    if abs(first_loss - target) > rel_tol * target:
        return [f"first-step loss {first_loss:.4f} is not within {rel_tol:.0%} of log C = {target:.4f}"]
    return []


def same_logits(alone: np.ndarray, in_batch: np.ndarray, atol: float = 1e-4) -> list[str]:
    err = float(np.max(np.abs(np.asarray(alone) - np.asarray(in_batch))))
    if not err <= atol:
        return [f"eval logits differ by {err:.3g} between a lone entry and a padded batch"]
    return []


def locality(base: np.ndarray, far: np.ndarray, near: np.ndarray, tol: float = 1e-6) -> list[str]:
    """Position i's output after changing a residue out of contact with i
    (far) must equal the original; after changing a contact (near) it must
    move, or the check would pass vacuously."""
    failures = []
    moved_far = float(np.max(np.abs(far - base)))
    moved_near = float(np.max(np.abs(near - base)))
    if not moved_far <= tol:
        failures.append(f"a non-contact residue moved position i's output by {moved_far:.3g}")
    if not moved_near > tol:
        failures.append("changing a contact of position i left its output unchanged")
    return failures


def directional_derivative(analytic: float, numeric: float, grad_norm: float,
                           rel_tol: float = 1e-4) -> list[str]:
    """Relative to the larger of the two values, or to 1% of the gradient's
    norm when the random direction happens to be nearly orthogonal to it."""
    err = abs(analytic - numeric) / max(abs(analytic), abs(numeric), 0.01 * grad_norm, 1e-300)
    if not err <= rel_tol:
        return [f"gradient along a random direction {analytic:.6g} != central difference "
                f"{numeric:.6g} (relative error {err:.3g})"]
    return []


def instance_auc(prob: np.ndarray, labels: np.ndarray) -> float:
    """Mean over instances of P(true-class score beats a wrong class), ties = 1/2."""
    n, c = prob.shape
    total = 0.0
    for row, y in zip(prob, labels):
        others = np.delete(row, y)
        total += ((others < row[y]).sum() + 0.5 * (others == row[y]).sum()) / (c - 1)
    return total / n


def eval_report(accuracy: float, mean_auc: float, prob: np.ndarray, labels) -> list[str]:
    prob = np.asarray(prob, dtype=np.float64)
    labels = np.asarray(labels)
    failures = []
    row_err = float(np.max(np.abs(prob.sum(axis=1) - 1.0)))
    if not row_err <= 1e-6:
        failures.append(f"a probability row sums to 1 {row_err:+.3g}")
    acc = float(np.mean(prob.argmax(axis=1) == labels))
    if abs(acc - accuracy) > 1e-12:
        failures.append(f"reported accuracy {accuracy} != recomputed {acc}")
    auc = instance_auc(prob, labels)
    if abs(auc - mean_auc) > 1e-9:
        failures.append(f"reported mean AUC {mean_auc} != recomputed {auc}")
    return failures


# --- ingest ---------------------------------------------------------------

def reject_counts(observed: dict[str, int], planted: dict[str, int]) -> list[str]:
    if observed != planted:
        return [f"reject counts {observed} != planted {planted}"]
    return []


def row_outcomes(expected: dict[str, str | None], rejected: dict[str, str],
                 accepted_ids: set[str]) -> int:
    """Number of index rows whose prep outcome differs from the planted one."""
    wrong = 0
    for entry_id, code in expected.items():
        if code is None:
            wrong += entry_id not in accepted_ids or entry_id in rejected
        else:
            wrong += rejected.get(entry_id) != code or entry_id in accepted_ids
    return wrong


def accepted_entries(loaded, expected: dict[str, tuple[str, str, int]]) -> list[str]:
    """Loaded entries against the generator: ids, sequences, contacts, labels.

    expected maps entry id to (sequence, brute-force contact pairs as
    "i-j,..." in ascending order, label).
    """
    failures = []
    ids = [e.id for e in loaded]
    if sorted(ids) != sorted(expected):
        failures.append(f"accepted ids differ: {len(ids)} loaded, {len(expected)} expected")
    for e in loaded:
        if e.id not in expected:
            continue
        seq, pairs, label = expected[e.id]
        if e.sequence != seq:
            failures.append(f"{e.id}: sequence differs from the generator's")
        if ",".join(f"{i}-{j}" for i, j in sorted(map(tuple, e.contact_map.pairs))) != pairs:
            failures.append(f"{e.id}: contacts differ from the brute-force recomputation")
        if e.label != label:
            failures.append(f"{e.id}: label {e.label} != {label}")
        if len(failures) > 10:
            break
    return failures


def split_partition(ids: dict[str, list[str]], class_counts: dict[str, dict[int, int]],
                    label_of: dict[str, int], train_frac: float = 0.7,
                    val_frac: float = 0.5) -> list[str]:
    """The manifest partitions the accepted ids, per class, by the floor rule:
    train = max(1, floor(0.7 n)), val = floor(0.5 (n - train)), test = the rest."""
    failures = []
    listed = [i for split in ("train", "val", "test") for i in ids[split]]
    if sorted(listed) != sorted(label_of) or len(set(listed)) != len(listed):
        failures.append("split ids are not a partition of the accepted ids")
        return failures
    sizes: dict[int, int] = {}
    for label in label_of.values():
        sizes[label] = sizes.get(label, 0) + 1
    for label, n in sorted(sizes.items()):
        n_train = max(1, math.floor(train_frac * n + 1e-9))
        n_val = math.floor(val_frac * (n - n_train) + 1e-9)
        want = {"train": n_train, "val": n_val, "test": n - n_train - n_val}
        for split, k in want.items():
            got = sum(1 for i in ids[split] if label_of[i] == label)
            if got != k or class_counts[split].get(label, 0) != k:
                failures.append(f"class {label} (n={n}): {split} has {got}, floor rule says {k}")
    return failures


def saved_text(lines: list[str], expected_lines: list[str]) -> list[str]:
    if lines != expected_lines:
        bad = next(k for k, (a, b) in enumerate(zip(lines + [""], expected_lines + [""]))
                   if a != b)
        return [f"processed.tsv differs from the expected entries at line {bad + 1}"]
    return []
