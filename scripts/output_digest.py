#!/usr/bin/env python3
"""Digests of the benchmark workloads' training and inference outputs.

For each workload (short, long) of perfbench/workloads.py, runs two
`train` rounds and one `evaluate` round through its TrainWorkload, on
the inputs of --seed, and prints the first 16 hex digits of the sha256
of the checkpoint bytes, the step losses, the `evaluate` probabilities
and repr(best_val_loss). Two commits whose outputs are bit-identical
print the same lines; the digests depend on the BLAS build, so compare
runs on one machine.

    python3 scripts/output_digest.py [--seed 1]
"""

from __future__ import annotations

import argparse
import hashlib
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import numpy as np

import workloads
from contactformer.cli import int_at_least


def digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()[:16]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int_at_least(0), default=1)
    args = parser.parse_args()

    for name, sizes in workloads.WORKLOADS.items():
        with tempfile.TemporaryDirectory() as workdir:
            workload = workloads.TrainWorkload(name, args.seed, Path(workdir), sizes.train)
            workload.train_round()
            workload.train_round()
            workload.infer_round()
            _, prob = workload.last_eval
            rows = {
                "checkpoint": workload.checkpoint.read_bytes(),
                "step_losses": np.array(workload.losses.values, dtype=np.float64).tobytes(),
                "probabilities": np.ascontiguousarray(prob, dtype=np.float64).tobytes(),
                "best_val_loss": repr(workload.best_val_loss).encode(),
            }
        for what, data in rows.items():
            print(f"{name}\t{what}\t{digest(data)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
