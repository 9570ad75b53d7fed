#!/usr/bin/env python3
"""Two training steps of the default encoder at the paper's batch shape.

Draws 2 x --batch-size protein-like chains of 30-500 residues with the
benchmark's generator (perfbench/gen.py, seed 1, 16 structural
families) and runs two consecutive steps of the default encoder (d=256,
8 heads, 5 layers, contact mode, dropout 0.1), the first on the first
--batch-size chains and the second on the rest, with one Adam state and
one dropout generator, as a training loop would: batch_encode, a
train-mode forward pass, weighted cross-entropy, backward and an Adam
update. After each step it prints the step's time, the process's peak
RSS (ru_maxrss) and the minor page faults the step took (the ru_minflt
delta), so the second step shows what a loop holds across steps and
how many of its pages the allocator had to fault in again. The defaults, batch 64 and max_len 512, are the paper's
configuration.

    python3 scripts/paper_step.py [--batch-size 64] [--max-len 512]
"""

from __future__ import annotations

import argparse
import resource
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import numpy as np

import gen
from contactformer import autodiff as ad
from contactformer.cli import positive_int
from contactformer.contacts import ContactMap
from contactformer.data import Entry, batch_encode, compute_class_weights
from contactformer.model import ModelConfig, encoder_forward, init_params
from contactformer.optim import AdamState, adam_step

FAMILIES = 16
STEPS = 2


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--batch-size", type=positive_int, default=64)
    parser.add_argument("--max-len", type=positive_int, default=512)
    args = parser.parse_args()

    chains = gen.train_long_inputs(1, STEPS * args.batch_size, 0, 0, FAMILIES).train
    entries = [Entry(c.entry_id, c.sequence, ContactMap(len(c.sequence), tuple(c.pairs)), c.label)
               for c in chains]
    config = ModelConfig(n_classes=FAMILIES, max_len=args.max_len)
    params = init_params(config, np.random.default_rng(0))
    weights = compute_class_weights([e.label for e in entries], FAMILIES)
    opt_state = AdamState()
    rng = np.random.default_rng(1)

    finite = True
    for step in range(STEPS):
        faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        started = time.perf_counter()
        batch = batch_encode(entries[step * args.batch_size:(step + 1) * args.batch_size],
                             config.max_len, config.attention_mode)
        logits, _ = encoder_forward(batch, config, params, train_mode=True, rng=rng)
        loss = ad.weighted_cross_entropy(logits, batch.labels, weights)
        forward_s = time.perf_counter() - started
        ad.zero_grads(params.values())
        loss.backward()
        adam_step(params, opt_state, lr=1e-4)
        step_s = time.perf_counter() - started

        usage = resource.getrusage(resource.RUSAGE_SELF)
        peak_mb = usage.ru_maxrss / 1024  # KiB on Linux
        real = int((~batch.key_padding_mask).sum())
        print(f"step {step + 1}: batch {len(batch.labels)}, max_len {args.max_len}: {real} real "
              f"tokens of {batch.tokens.size} slots; loss {loss.item():.4f}")
        print(f"step {step + 1}: {step_s:.2f} s (forward {forward_s:.2f} s), "
              f"peak RSS {peak_mb:.0f} MB, {usage.ru_minflt - faults} minor page faults")
        finite = finite and bool(np.isfinite(loss.item()))
    return 0 if finite else 1


if __name__ == "__main__":
    sys.exit(main())
