"""Span tracer for the traced run.

It wraps the public functions of each module of ``src/contactformer``
where their callers look them up (``train.py`` imports ``batch_encode``,
``encoder_forward``, ``adam_step`` and ``save_checkpoint`` by name, so
those are wrapped on the ``train`` module), plus the backward closure
each autodiff op records. Spans are kept in memory and written out when
the run ends. A span's self time is its time minus that of its children.
``prep`` workers are forked after the wrappers are in place; each writes
its spans to its own file after every row, and the parent merges them.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import time
from collections import defaultdict
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

import numpy as np

from contactformer import autodiff as ad
from contactformer import cli, contacts, data, model, pdb_io

train_mod = importlib.import_module("contactformer.train")

OPS = ("linear", "matmul", "mul", "add", "masked_softmax", "layer_norm", "dropout", "relu",
       "embedding", "reshape", "transpose", "masked_mean", "weighted_cross_entropy")

# Per-layer metrics, with their units: those of training and inference, and
# those of prep and load_entries. Every workload runs both.
TRAIN_METRICS = {
    "data.batch_encode_s": "s", "data.batch_encode_calls": "count",
    "data.mask_bytes": "bytes", "data.valid_share": "share",
    **{f"autodiff.{op}.{d}_s": "s" for op in OPS for d in ("fwd", "bwd")},
    "autodiff.backward_s": "s", "autodiff.backward_self_s": "s", "autodiff.nodes": "count",
    "autodiff.bwd_grad_bytes": "bytes", "autodiff.float64_share": "share",
    "autodiff.bwd_useful_share": "share",
    "model.encoder_forward_train_s": "s", "model.encoder_forward_eval_s": "s",
    "model.multi_head_attention_s": "s", "model.save_checkpoint_s": "s",
    "model.save_checkpoint_calls": "count", "model.load_checkpoint_s": "s",
    "optim.adam_step_s": "s", "train.train_self_s": "s", "train.steps": "count",
    "metrics.full_report_s": "s",
}
INGEST_METRICS = {
    "pdb_io.parse_structure_s": "s", "pdb_io.check_completeness_s": "s", "pdb_io.residues": "count",
    "contacts.build_contact_map_s": "s", "contacts.text_roundtrip_s": "s", "contacts.pairs": "count",
    "data.read_index_s": "s", "data.save_entries_s": "s", "data.load_entries_s": "s",
    "data.load_entries_calls": "count",
    "cli.prep_worker_busy_s": "s", "cli.prep_worker_utilization": "share", "cli.prep_parent_s": "s",
}
OVERHEAD = {"trace.overhead_share": "share"}

# Spans a prep worker spends in pdb_io / contacts calls.
WORKER_BUSY = ("pdb_io.parse_structure", "pdb_io.check_completeness", "pdb_io.residues_to_sequence",
               "contacts.build_contact_map", "contacts.serialize_contacts")


class Tracer:
    def __init__(self, span_dir: Path):
        self.span_dir = span_dir
        self.pid = os.getpid()
        self.spans: list[tuple] = []   # (pid, id, parent id, name, t0, t1, self seconds)
        self.counts: dict[str, float] = defaultdict(float)
        self._stack: list[list] = []   # [id, child seconds]
        self._next_id = 0
        self._patches: list[tuple] = []
        self._worker_file = None

    # --- spans ---------------------------------------------------------------

    def _begin(self) -> int:
        self._next_id += 1
        self._stack.append([self._next_id, 0.0])
        return self._next_id

    def _end(self, name: str, t0: float, t1: float):
        span_id, child = self._stack.pop()
        parent = self._stack[-1] if self._stack else None
        if parent is not None:
            parent[1] += t1 - t0
        self.spans.append((self.pid, span_id, parent[0] if parent else 0, name, t0, t1,
                           t1 - t0 - child))

    def timed(self, name, fn, after=None):
        """fn wrapped in a span; name may be a function of the call's arguments."""
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            tracer._begin()
            t0 = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                tracer._end(name(*args, **kwargs) if callable(name) else name, t0, t1)
            if after is not None:
                after(out, *args, **kwargs)
            return out

        return wrapper

    # --- installation --------------------------------------------------------

    def _patch(self, owner, attr: str, replacement):
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    def _wrap(self, owner, attr: str, name, after=None):
        self._patch(owner, attr, self.timed(name, getattr(owner, attr), after))

    def install(self):
        c = self.counts

        def residues(chain, *_, **__):
            c["pdb_io.residues"] += len(chain.residues)

        def pairs(cmap, *_, **__):
            c["contacts.pairs"] += len(cmap.pairs)

        def batch(b, *_, **__):
            c["data.batch_encode_calls"] += 1
            c["data.mask_bytes"] += b.attention_masks.nbytes
            c["data.valid_positions"] += int((~b.key_padding_mask).sum())
            c["data.positions"] += b.key_padding_mask.size

        def counter(key):
            def count(*_, **__):
                c[key] += 1
            return count

        self._wrap(pdb_io, "parse_structure", "pdb_io.parse_structure", residues)
        self._wrap(pdb_io, "check_completeness", "pdb_io.check_completeness")
        self._wrap(pdb_io, "residues_to_sequence", "pdb_io.residues_to_sequence")
        self._wrap(cli, "build_contact_map", "contacts.build_contact_map", pairs)
        self._wrap(cli, "serialize_contacts", "contacts.serialize_contacts")
        self._wrap(contacts, "deserialize_contacts", "contacts.deserialize_contacts")
        self._wrap(cli, "read_index", "data.read_index")
        self._wrap(cli, "save_entries", "data.save_entries")
        for owner in (cli, data):
            self._wrap(owner, "load_entries", "data.load_entries", counter("data.load_entries_calls"))
        self._wrap(train_mod, "batch_encode", "data.batch_encode", batch)
        self._wrap(train_mod, "encoder_forward",
                   lambda *a, **k: "model.encoder_forward_" + (
                       "train" if k.get("train_mode", a[3] if len(a) > 3 else False) else "eval"))
        self._wrap(model, "multi_head_attention", "model.multi_head_attention")
        self._wrap(train_mod, "save_checkpoint", "model.save_checkpoint",
                   counter("model.save_checkpoint_calls"))
        self._wrap(model, "load_checkpoint", "model.load_checkpoint")
        self._wrap(train_mod, "adam_step", "optim.adam_step", counter("train.steps"))
        self._wrap(train_mod, "full_report", "metrics.full_report")
        self._wrap(train_mod, "train", "train.train")
        self._wrap(train_mod, "evaluate", "train.evaluate")
        self._wrap(cli, "cmd_prep", "cli.cmd_prep")
        self._wrap(cli, "cmd_split", "cli.cmd_split")
        self._install_prep_worker()
        self._install_pool()
        for op in OPS:
            self._wrap(ad, op, f"autodiff.{op}.fwd", self._op_output(op))
        self._wrap(ad.Tensor, "backward", "autodiff.backward")

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def _op_output(self, op: str):
        c = self.counts
        tracer = self

        def after(out, *args, **kwargs):
            if any(out is a for a in args):
                return  # identity (dropout outside training): no new node
            c["autodiff.outputs"] += 1
            c["autodiff.float64_outputs"] += out.data.dtype == np.float64
            backward = out._backward
            if backward is None:
                return
            c["autodiff.nodes"] += 1

            def timed_backward(g):
                tracer._begin()
                t0 = time.perf_counter()
                try:
                    grads = list(backward(g))
                finally:
                    tracer._end(f"autodiff.{op}.bwd", t0, time.perf_counter())
                for parent, grad in grads:
                    c["autodiff.bwd_grad_bytes"] += np.asarray(grad).nbytes
                    c["autodiff.bwd_grads"] += 1
                    c["autodiff.bwd_useful"] += parent.requires_grad
                return grads

            out._backward = timed_backward

        return after

    def _install_prep_worker(self):
        tracer = self
        prep_one = cli._prep_one

        @functools.wraps(prep_one)
        def traced_prep_one(task):
            if os.getpid() != tracer.pid:  # first row in a forked worker
                tracer.pid = os.getpid()
                tracer.spans, tracer._stack = [], []
                tracer.counts.clear()
                tracer._worker_file = open(tracer.span_dir / f"worker-{tracer.pid}.jsonl", "a",
                                           encoding="utf-8")
            tracer._begin()
            t0 = time.perf_counter()
            try:
                return prep_one(task)
            finally:
                tracer._end("cli.prep_one", t0, time.perf_counter())
                if tracer._worker_file is not None:
                    tracer._worker_file.write(json.dumps(
                        {"spans": tracer.spans, "counts": tracer.counts}) + "\n")
                    tracer._worker_file.flush()
                    tracer.spans = []
                    tracer.counts.clear()

        # Pickled by reference as contactformer.cli._prep_one, which now
        # names this wrapper in the parent and in every forked worker.
        self._patch(cli, "_prep_one", traced_prep_one)

    def _install_pool(self):
        tracer = self

        class TracedPool(ProcessPoolExecutor):
            def __init__(self, *args, **kwargs):
                self._t0 = time.perf_counter()
                tracer._begin()
                super().__init__(*args, **kwargs)

            def __exit__(self, *exc):
                try:
                    return super().__exit__(*exc)
                finally:
                    tracer._end("cli.prep_pool", self._t0, time.perf_counter())

        self._patch(cli, "ProcessPoolExecutor", TracedPool)

    def merge_workers(self):
        """Fold the span files of finished prep workers into this process."""
        for path in sorted(self.span_dir.glob("worker-*.jsonl")):
            with open(path, encoding="utf-8") as fh:
                for line in fh:
                    record = json.loads(line)
                    self.spans.extend(tuple(s) for s in record["spans"])
                    for key, value in record["counts"].items():
                        self.counts[key] += value
            path.unlink()

    def write(self, path: Path):
        with open(path, "w", encoding="utf-8") as fh:
            for s in self.spans:
                fh.write(json.dumps(dict(zip(("pid", "id", "parent", "name", "t0", "t1", "self_s"), s)))
                         + "\n")

    # --- per-layer metrics -----------------------------------------------------

    def layer_metrics(self, workers: int) -> dict[str, float]:
        """Every per-layer metric of INGEST_METRICS and TRAIN_METRICS."""
        total: dict[str, float] = defaultdict(float)
        own: dict[str, float] = defaultdict(float)
        for pid, _, _, name, t0, t1, self_s in self.spans:
            total[name] += t1 - t0
            own[name] += self_s
        c = self.counts
        prep_wall = total["cli.cmd_prep"]
        busy = sum(total[n] for n in WORKER_BUSY)
        out = {
            "pdb_io.parse_structure_s": total["pdb_io.parse_structure"],
            "pdb_io.check_completeness_s": total["pdb_io.check_completeness"],
            "pdb_io.residues": c["pdb_io.residues"],
            "contacts.build_contact_map_s": total["contacts.build_contact_map"],
            "contacts.text_roundtrip_s": total["contacts.serialize_contacts"]
            + total["contacts.deserialize_contacts"],
            "contacts.pairs": c["contacts.pairs"],
            "data.read_index_s": total["data.read_index"],
            "data.save_entries_s": total["data.save_entries"],
            "data.load_entries_s": total["data.load_entries"],
            "data.load_entries_calls": c["data.load_entries_calls"],
            "cli.prep_worker_busy_s": busy,
            "cli.prep_worker_utilization": busy / (prep_wall * workers) if prep_wall else 0.0,
            "cli.prep_parent_s": prep_wall - total["cli.prep_pool"],
            "data.batch_encode_s": total["data.batch_encode"],
            "data.batch_encode_calls": c["data.batch_encode_calls"],
            "data.mask_bytes": c["data.mask_bytes"],
            "data.valid_share": c["data.valid_positions"] / max(c["data.positions"], 1),
        }
        for op in OPS:
            out[f"autodiff.{op}.fwd_s"] = total[f"autodiff.{op}.fwd"]
            out[f"autodiff.{op}.bwd_s"] = total[f"autodiff.{op}.bwd"]
        out.update({
            "autodiff.backward_s": total["autodiff.backward"],
            "autodiff.backward_self_s": own["autodiff.backward"],
            "autodiff.nodes": c["autodiff.nodes"],
            "autodiff.bwd_grad_bytes": c["autodiff.bwd_grad_bytes"],
            "autodiff.float64_share": c["autodiff.float64_outputs"] / max(c["autodiff.outputs"], 1),
            "autodiff.bwd_useful_share": c["autodiff.bwd_useful"] / max(c["autodiff.bwd_grads"], 1),
            "model.encoder_forward_train_s": total["model.encoder_forward_train"],
            "model.encoder_forward_eval_s": total["model.encoder_forward_eval"],
            "model.multi_head_attention_s": total["model.multi_head_attention"],
            "model.save_checkpoint_s": total["model.save_checkpoint"],
            "model.save_checkpoint_calls": c["model.save_checkpoint_calls"],
            "model.load_checkpoint_s": total["model.load_checkpoint"],
            "optim.adam_step_s": total["optim.adam_step"],
            "train.train_self_s": own["train.train"],
            "train.steps": c["train.steps"],
            "metrics.full_report_s": total["metrics.full_report"],
        })
        return out
