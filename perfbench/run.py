#!/usr/bin/env python3
"""Benchmark of the contactformer pipeline: one workload per process.

    python3 perfbench/run.py --workload short --seed 1 --seconds 40 --trace 0

Run it from the root of a checkout: it imports the package from ./src.
With --trace 0 it prints the end-to-end metrics; with --trace 1 it runs
half the time untraced, then one traced round of each phase, and prints
the per-layer metrics plus the tracing overhead. The last line of
standard output is one JSON object: correct, attempted, failed, metrics.
The exit code is 0 only if every correctness check passed.

    python3 perfbench/run.py --workload long --seed 1 --write-inputs DIR

writes the generated inputs of a workload and seed to DIR and exits.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

WORKLOAD_NAMES = ("short", "long")
WARMUPS = 5      # set-up is repeated this often; setup_s reports the median
MIN_CYCLES = 2   # per run, however short --seconds is


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=40.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--write-inputs", metavar="DIR", default=None,
                   help="write the workload's generated inputs to DIR and exit")
    return p.parse_args(argv)


def import_package(root: Path) -> float:
    """Import contactformer from root/src with the BLAS thread count set; seconds taken."""
    src = root / "src"
    if not (src / "contactformer" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no src/contactformer under {root}; "
                         "run from the root of a checkout")
    threads = str(len(os.sched_getaffinity(0)))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = threads
    t0 = time.perf_counter()
    sys.path.insert(0, str(src))
    import contactformer
    from contactformer import autodiff, cli, contacts, data, metrics, model, optim, pdb_io  # noqa: F401
    seconds = time.perf_counter() - t0
    if Path(contactformer.__file__).resolve().parent != (src / "contactformer").resolve():
        raise SystemExit(f"perfbench: imported contactformer from {contactformer.__file__}, "
                         f"not from {src}")
    return seconds


def run_rounds(phases, seconds: float) -> list[list[tuple[float, float]]]:
    """Whole cycles until `seconds` have passed; (units, seconds) of each round, per phase.

    A cycle is a fixed sequence holding each phase's `per_cycle` rounds,
    spread over it, so every run attempts whole cycles of the same
    operations. Running cycles for a fixed time, rather than a fixed
    number of them, averages each phase over the whole run when the
    machine is fast and bounds the run's length when it is slow; a slow
    spell touches a minority of any phase's rounds, and the median skips it.
    """
    cycle = [i for _, i in sorted((k / p.per_cycle, i) for i, p in enumerate(phases)
                                  for k in range(p.per_cycle))]
    rounds: list[list[tuple[float, float]]] = [[] for _ in phases]
    end = time.perf_counter() + seconds
    cycles = 0
    while cycles < MIN_CYCLES or time.perf_counter() < end:
        for i in cycle:
            rounds[i].append(phases[i].run())
        cycles += 1
    return rounds


def median_rate(rounds) -> float:
    return statistics.median(u / s for u, s in rounds)


def peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0  # ru_maxrss is in KiB on Linux


def write_inputs(name: str, seed: int, out: Path):
    import gen
    import workloads

    out.mkdir(parents=True, exist_ok=True)
    sizes = workloads.WORKLOADS[name]
    s = sizes.ingest
    corpus = gen.write_corpus(out / "corpus", seed, s.n_rows, s.n_superfamilies,
                              s.rejects_per_code, s.lengths)
    print(f"wrote {corpus.index_path} and the PDB files under {corpus.pdb_dir}")
    _, *splits = workloads.training_data(name, seed, sizes.train)
    for split, entries in zip(("train", "val", "test"), splits):
        with open(out / f"{split}.tsv", "w", encoding="utf-8") as fh:
            for e in entries:
                pairs = ",".join(f"{i}-{j}" for i, j in e.contact_map.pairs)
                fh.write(f"{e.id}\t{e.label}\t{e.sequence}\t{pairs}\n")
    print(f"wrote train.tsv, val.tsv and test.tsv under {out}")


def main(argv=None) -> int:
    args = parse_args(argv)
    root = Path.cwd()
    import_s = import_package(root)
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    import tracing
    import workloads

    if args.write_inputs:
        write_inputs(args.workload, args.seed, Path(args.write_inputs))
        return 0

    base = root / ".bench_work"
    workdir = base / f"{args.workload}-seed{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        t0 = time.perf_counter()
        work = workloads.Pipeline(args.workload, args.seed, workdir,
                                  workloads.WORKLOADS[args.workload])
        inputs_s = time.perf_counter() - t0
        warmups = []
        for _ in range(WARMUPS):
            t0 = time.perf_counter()
            work.warm_up()
            warmups.append(time.perf_counter() - t0)
        setup_s = import_s + statistics.median(warmups)
        # Keep the benchmark's own objects (inputs, reference answers) out
        # of the collector's way during the timed rounds, and out of the
        # copy-on-write pages of forked prep workers.
        gc.collect()
        gc.freeze()
        print(f"# inputs generated in {inputs_s:.2f} s; warm-ups {', '.join(f'{w:.3f}' for w in warmups)} s")

        seconds = args.seconds / 2 if args.trace else args.seconds
        untraced = dict(zip((p.metric for p in work.phases), run_rounds(work.phases, seconds)))
        for metric, rounds in untraced.items():
            print(f"# {metric} round seconds: " + " ".join(f"{s:.3f}" for _, s in rounds))
        rss = peak_rss_mb()

        if args.trace:
            tracer = tracing.Tracer(workdir)
            tracer.install()
            try:
                traced = {phase.metric: phase.run() for phase in work.phases}
            finally:
                tracer.uninstall()
            tracer.merge_workers()
            trace_dir = base / "traces"
            trace_dir.mkdir(parents=True, exist_ok=True)
            tracer.write(trace_dir / f"{args.workload}-seed{args.seed}.jsonl")
            values = tracer.layer_metrics(work.workers)
            metrics = {k: (values[k], u)
                       for k, u in {**tracing.INGEST_METRICS, **tracing.TRAIN_METRICS}.items()}
            plain = sum(statistics.median(s for _, s in r) for r in untraced.values())
            (overhead, unit), = tracing.OVERHEAD.items()
            metrics[overhead] = (sum(s for _, s in traced.values()) / plain - 1.0, unit)
        else:
            metrics = {phase.metric: (median_rate(untraced[phase.metric]), phase.unit)
                       for phase in work.phases}
            metrics.update(work.end_to_end())
            metrics["peak_rss_mb"] = (rss, "MB")
            metrics["setup_s"] = (setup_s, "s")

        failures = work.check()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    for message in failures:
        print(f"CHECK FAILED: {message}")
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value:.6g} {unit}")
    print(f"# attempted {work.attempted}, failed {work.failed}")
    result = {
        "correct": not failures,
        "attempted": work.attempted,
        "failed": work.failed,
        "metrics": {name: {"value": float(value), "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0 if not failures else 1


if __name__ == "__main__":
    sys.exit(main())
