"""Training loop with best-validation checkpointing and early stopping.

Each epoch runs seed-shuffled mini-batches of weighted cross-entropy with
Adam (decoupled weight decay), then scores the validation set in eval
mode. The checkpoint is (over)written only when the validation loss
strictly improves on the best seen so far, starting from a pre-training
baseline, so the archived model is always the one with the lowest
validation loss. An epoch without strict improvement counts against the
patience budget.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

from . import autodiff as ad
from .autodiff import zero_grads
from .data import Entry, batch_encode, compute_class_weights
from .metrics import MetricsReport, full_report
from .model import ModelConfig, encoder_forward, init_params, require_ints, save_checkpoint
from .optim import AdamState, adam_step


class Divergence(RuntimeError):
    """Training loss or a parameter gradient became non-finite."""


@dataclass(frozen=True)
class TrainConfig:
    lr: float = 1e-4
    batch_size: int = 64
    max_epochs: int = 200
    patience: int = 20
    seed: int = 0
    class_weighting: bool = True

    def __post_init__(self):
        if not 0 <= self.lr < math.inf:
            raise ValueError(f"lr must be finite and >= 0, got {self.lr}")
        require_ints(self, batch_size=1, max_epochs=1, patience=1, seed=0)


@dataclass(frozen=True)
class EpochRecord:
    epoch: int
    train_loss: float
    val_loss: float
    val_acc: float


@dataclass
class TrainResult:
    params: dict
    history: list[EpochRecord] = field(default_factory=list)
    best_val_loss: float = float("inf")
    best_epoch: int = 0


def softmax_np(z: np.ndarray) -> np.ndarray:
    z = z - z.max(axis=-1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=-1, keepdims=True)


def _batches(n: int, batch_size: int, order=None):
    idx = np.arange(n) if order is None else order
    for start in range(0, n, batch_size):
        yield idx[start:start + batch_size]


def predict(entries: list[Entry], config: ModelConfig, params: dict, batch_size: int = 64):
    """Eval-mode forward pass over entries, in order, one batch at a time.

    Yields (labels (b,), logits (b, C) as float64, pooled (b, d)) per batch.
    Raises ValueError on an empty entry list or a batch_size below 1.
    """
    if not entries:
        raise ValueError("cannot predict on an empty entry list")
    if batch_size < 1:
        raise ValueError(f"batch_size must be >= 1, got {batch_size}")
    for sel in _batches(len(entries), batch_size):
        batch = batch_encode([entries[i] for i in sel], config.max_len,
                             config.attention_mode)
        with ad.no_grad():
            logits, pooled = encoder_forward(batch, config, params, train_mode=False)
        yield batch.labels, logits.data.astype(np.float64), pooled.data


def _eval_loss(entries, config, params, weights, batch_size):
    """(class-weighted mean NLL, accuracy) over entries in eval mode."""
    total_wnll = total_w = plain_nll = 0.0
    correct = 0
    for labels, logits, _ in predict(entries, config, params, batch_size):
        nll = -ad.log_softmax(logits)[np.arange(labels.size), labels]
        w = weights[labels]
        total_wnll += float((w * nll).sum())
        total_w += float(w.sum())
        plain_nll += float(nll.sum())
        correct += int((logits.argmax(axis=1) == labels).sum())
    # total_w can be 0 only if every class in `entries` is absent from train
    loss = total_wnll / total_w if total_w > 0 else plain_nll / len(entries)
    return loss, correct / len(entries)


def _dump_divergence(path, epoch, batch_index, loss_value, params):
    payload = {
        "epoch": epoch,
        "batch_index": batch_index,
        "loss": str(loss_value),
        "param_norms": {
            name: float(np.linalg.norm(p.tensor.data)) for name, p in params.items()
        },
    }
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(payload, indent=2, sort_keys=True) + "\n")


def train(
    model_config: ModelConfig,
    train_entries: list[Entry],
    val_entries: list[Entry],
    train_config: TrainConfig,
    checkpoint_path=None,
    label_index_hash: str = "",
    verbose: bool = False,
) -> TrainResult:
    """Fit the encoder; returns the final params plus the per-epoch log.

    The checkpoint at `checkpoint_path` always holds the parameters with
    the best (lowest) validation loss seen, including the pre-training
    baseline. Fixed seeds make the whole run deterministic.

    Raises Divergence (after writing a state dump next to the checkpoint),
    before the Adam step, if the loss or a parameter gradient is non-finite.
    """
    if not train_entries or not val_entries:
        raise ValueError("train and validation sets must be non-empty")
    cfg = train_config
    params = init_params(model_config, np.random.default_rng([cfg.seed, 1]))
    dropout_rng = np.random.default_rng([cfg.seed, 2])

    c = model_config.n_classes
    train_labels = [e.label for e in train_entries]
    if cfg.class_weighting:
        weights = compute_class_weights(train_labels, c)
    else:
        weights = np.ones(c, dtype=np.float64)

    result = TrainResult(params=params)
    opt_state = AdamState()

    def checkpoint():
        if checkpoint_path is not None:
            save_checkpoint(checkpoint_path, model_config, params, label_index_hash)

    # Pre-training baseline: patience is measured against this too.
    best_val, _ = _eval_loss(val_entries, model_config, params, weights, cfg.batch_size)
    result.best_val_loss = best_val
    checkpoint()

    bad_epochs = 0
    for epoch in range(1, cfg.max_epochs + 1):
        order = np.random.default_rng([cfg.seed, 3, epoch]).permutation(len(train_entries))
        total_wnll = total_w = 0.0
        for batch_index, sel in enumerate(_batches(len(train_entries), cfg.batch_size, order)):
            batch = batch_encode([train_entries[i] for i in sel],
                                 model_config.max_len, model_config.attention_mode)
            zero_grads(params.values())  # free the last step's gradients before this forward
            logits, _ = encoder_forward(batch, model_config, params,
                                        train_mode=True, rng=dropout_rng)
            loss = ad.weighted_cross_entropy(logits, batch.labels, weights)
            loss_value = loss.item()
            bad = None if np.isfinite(loss_value) else "loss"
            if bad is None:
                loss.backward()
                # a float64 sum is finite iff every element is: float32 grads cannot overflow it
                bad = next((f"gradient of {name!r}" for name, p in params.items()
                            if p.tensor.grad is not None
                            and not np.isfinite(p.tensor.grad.sum(dtype=np.float64))), None)
            if bad is not None:
                if checkpoint_path is not None:
                    _dump_divergence(f"{checkpoint_path}.divergence.json",
                                     epoch, batch_index, loss_value, params)
                raise Divergence(f"non-finite {bad} at epoch {epoch}, batch {batch_index}")
            adam_step(params, opt_state, lr=cfg.lr)
            w_batch = float(weights[batch.labels].sum())
            total_wnll += loss_value * w_batch
            total_w += w_batch

        train_loss = total_wnll / total_w
        val_loss, val_acc = _eval_loss(val_entries, model_config, params,
                                       weights, cfg.batch_size)
        result.history.append(EpochRecord(epoch, train_loss, val_loss, val_acc))
        if verbose:
            print(f"epoch {epoch:4d}  train {train_loss:.4f}  "
                  f"val {val_loss:.4f}  acc {val_acc:.4f}")

        if val_loss < result.best_val_loss:
            result.best_val_loss = val_loss
            result.best_epoch = epoch
            bad_epochs = 0
            checkpoint()
        else:
            bad_epochs += 1
            if bad_epochs >= cfg.patience:
                break
    return result


def evaluate(
    config: ModelConfig,
    params: dict,
    entries: list[Entry],
    batch_size: int = 64,
    class_sizes=None,
) -> tuple[MetricsReport, np.ndarray, np.ndarray]:
    """Score entries in eval mode.

    Returns (report, probabilities (B, C), pooled embeddings (B, d)).
    class_sizes, if given, must be the per-class counts of the complete
    pre-split dataset; they drive the class-size threshold breakdowns.
    """
    probs = []
    pooled_rows = []
    for _, logits, pooled in predict(entries, config, params, batch_size):
        probs.append(softmax_np(logits))
        pooled_rows.append(pooled)
    prob = np.concatenate(probs, axis=0)
    labels = np.array([e.label for e in entries])
    report = full_report(prob, labels, class_sizes=class_sizes)
    return report, prob, np.concatenate(pooled_rows, axis=0)


def history_to_csv(history: list[EpochRecord]) -> str:
    lines = ["epoch,train_loss,val_loss,val_acc"]
    for rec in history:
        lines.append(f"{rec.epoch},{rec.train_loss!r},{rec.val_loss!r},{rec.val_acc!r}")
    return "\n".join(lines) + "\n"
