#!/usr/bin/env python3
"""Time the encoder's attention core, ad.masked_attention, on packed batches.

Three cases, each packed by model.pack from chains of perfbench/gen.py's
protein-like generator (30-500 residues):

* paper: one batch of --batch-size chains at --max-len, with
  --embed-dim split over --heads (defaults: the paper's B=64,
  max_len 512, d=256, 8 heads), in contact mode;
* paper-full: the same batch in full mode, where every block allows
  every entry;
* long: the long benchmark workload's training batches (32 chains,
  seed 1, B=8, max_len 256, d=128, 8 heads), in contact mode.

q, k and v are random float32 (T, d) rows, split into the heads by the
op; its cost does not depend on their values. For each case it prints the median over
--repeats, after one warm-up pass, of one forward call and of forward
plus backward (summed over the case's batches); the share of (query,
key) entries in pack's (count, n, n) blocks that the masks allow; and the
bytes the node keeps alive for backward: memory allocated during the
forward call (tracemalloc) and still held once it returns, less the
output array.

    python3 scripts/attention_probe.py [--batch-size 64] [--max-len 512]
        [--embed-dim 256] [--heads 8] [--repeats 5]
"""

from __future__ import annotations

import argparse
import statistics
import sys
import time
import tracemalloc
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import numpy as np

import gen
from contactformer import autodiff as ad
from contactformer.cli import positive_int
from contactformer.contacts import ContactMap
from contactformer.data import Entry, batch_encode
from contactformer.model import pack

FAMILIES = 16


def chains(n: int) -> list[Entry]:
    return [Entry(c.entry_id, c.sequence, ContactMap(len(c.sequence), tuple(c.pairs)), c.label)
            for c in gen.train_long_inputs(1, n, 0, 0, FAMILIES).train]


def probe(name: str, batches: list[list[Entry]], max_len: int, d: int, heads: int,
          repeats: int, mode: str = "contact") -> None:
    rng = np.random.default_rng(0)
    calls = []
    allowed = cells = 0
    for entries in batches:
        _, blocks = pack(batch_encode(entries, max_len, mode))
        t = sum(block.shape[0] * block.shape[1] for block in blocks)
        q, k, v, g = (rng.standard_normal((t, d)).astype(np.float32) for _ in range(4))
        calls.append((q, k, v, g, blocks))
        allowed += sum(int((~block).sum()) for block in blocks)
        cells += sum(block.size for block in blocks)

    def forward(q, k, v, g, blocks, backward):
        leaves = [ad.Tensor(a, requires_grad=True) for a in (q, k, v)]
        out = ad.masked_attention(*leaves, blocks, heads)
        if backward:
            out.backward(g)

    for call in calls:  # warm-up: first-touch page faults, BLAS thread start
        forward(*call, True)
    timings = {}
    for backward in (False, True):
        runs = []
        for _ in range(repeats):
            started = time.perf_counter()
            for call in calls:
                forward(*call, backward)
            runs.append(time.perf_counter() - started)
        timings[backward] = statistics.median(runs)

    kept = 0
    for q, k, v, g, blocks in calls:
        leaves = [ad.Tensor(a, requires_grad=True) for a in (q, k, v)]
        tracemalloc.start()
        out = ad.masked_attention(*leaves, blocks, heads)
        kept += tracemalloc.get_traced_memory()[0] - out.data.nbytes
        tracemalloc.stop()
        del out

    tokens = sum(q.shape[0] for q, *_ in calls)
    print(f"{name}: {len(calls)} batch(es), T={tokens} tokens, d={d}, {heads} heads; "
          f"allowed share {allowed / cells:.4f} ({allowed} of {cells} entries)")
    print(f"{name}: forward {timings[False] * 1e3:.1f} ms, forward + backward "
          f"{timings[True] * 1e3:.1f} ms; kept for backward {kept / 2**20:.2f} MiB")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--batch-size", type=positive_int, default=64)
    parser.add_argument("--max-len", type=positive_int, default=512)
    parser.add_argument("--embed-dim", type=positive_int, default=256)
    parser.add_argument("--heads", type=positive_int, default=8)
    parser.add_argument("--repeats", type=positive_int, default=5)
    args = parser.parse_args()
    if args.embed_dim % args.heads:
        parser.error(f"--embed-dim {args.embed_dim} is not divisible by --heads {args.heads}")

    paper_chains = chains(args.batch_size)
    for name, mode in (("paper", "contact"), ("paper-full", "full")):
        probe(name, [paper_chains], args.max_len, args.embed_dim, args.heads, args.repeats, mode)
    long_chains = chains(32)
    probe("long", [long_chains[i:i + 8] for i in range(0, 32, 8)], 256, 128, 8, args.repeats)
    return 0


if __name__ == "__main__":
    sys.exit(main())
