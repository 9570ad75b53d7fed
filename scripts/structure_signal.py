#!/usr/bin/env python3
"""Desk-scale experiment: does contact-masked attention beat sequence-only?

Trains the same encoder twice on the bundled topology task, once with the
attention mask derived from contact maps and once with full (sequence
only) attention, then compares test accuracy. Labels in this task are
decidable only from contact wiring, so the gap isolates the value of the
structural signal.
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from contactformer.cli import int_at_least, positive_int
from contactformer.data import ATTENTION_MODES
from contactformer.model import ModelConfig
from contactformer.synthetic import topology_dataset
from contactformer.train import TrainConfig, evaluate, history_to_csv, train


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--epochs", type=int, default=15)
    parser.add_argument("--embed-dim", type=int, default=256)
    parser.add_argument("--heads", type=int, default=8)
    parser.add_argument("--layers", type=int, default=5)
    parser.add_argument("--lr", type=float, default=1e-4)
    parser.add_argument("--batch-size", type=int, default=64)
    parser.add_argument("--length", type=int_at_least(2), default=16)
    parser.add_argument("--n-train", type=positive_int, default=400)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--log-dir", default=None,
                        help="write per-mode epoch CSVs here")
    args = parser.parse_args()

    try:
        tcfg = TrainConfig(lr=args.lr, batch_size=args.batch_size,
                           max_epochs=args.epochs, patience=10 * args.epochs,
                           seed=args.seed)
        configs = {mode: ModelConfig(n_classes=4, embed_dim=args.embed_dim,
                                     n_heads=args.heads, n_layers=args.layers,
                                     attention_mode=mode)
                   for mode in ATTENTION_MODES}
    except ValueError as exc:  # an out-of-range setting
        parser.error(str(exc))
    train_set, val_set, test_set = topology_dataset(
        args.n_train, 100, 100, length=args.length, seed=args.seed)

    results = {}
    for mode, cfg in configs.items():
        started = time.perf_counter()
        run = train(cfg, train_set, val_set, tcfg, verbose=True)
        report, _, _ = evaluate(cfg, run.params, test_set)
        results[mode] = (report, time.perf_counter() - started)
        if args.log_dir:
            log_dir = Path(args.log_dir)
            log_dir.mkdir(parents=True, exist_ok=True)
            (log_dir / f"{mode}.log.csv").write_text(history_to_csv(run.history))

    print(f"\n{'mode':10s} {'test acc':>9s} {'weighted F1':>12s} {'mean AUC':>9s} {'time':>7s}")
    for mode, (report, seconds) in results.items():
        print(f"{mode:10s} {report.accuracy:9.3f} {report.f1:12.3f} "
              f"{report.mean_auc:9.3f} {seconds:6.0f}s")
    gap = results["contact"][0].accuracy - results["full"][0].accuracy
    print(f"\ncontact - full accuracy gap: {gap:+.3f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
