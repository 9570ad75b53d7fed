"""The workloads: their inputs, warm-up, timed rounds and checks.

A workload is a pipeline of two parts: ``prep`` and ``load_entries`` of
a generated PDB corpus (``IngestWorkload``), and ``train`` and
``evaluate`` of an encoder (``TrainWorkload``). ``short`` trains the
structure-signal task and preps short chains; ``long`` trains and preps
protein-like chains of 30-500 residues.

Program code is always reached through its module (``train_mod.train``,
``model.load_checkpoint``, ``cli.main``) so that the traced run's
wrappers, installed on those modules, see every call.

A round is one call of a public entry point on the full inputs and
times only that call. Every round of a phase repeats exactly the same
operations, so the operation counts per round never change.
"""

from __future__ import annotations

import contextlib
import importlib
import io
import math
import os
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from contactformer import autodiff as ad
from contactformer import cli, data, model
from contactformer.contacts import ContactMap
from contactformer.data import Entry
from contactformer.model import ModelConfig
from contactformer.synthetic import topology_contacts, topology_dataset
from contactformer.train import TrainConfig

# The package re-exports the function `train` under the module's name.
train_mod = importlib.import_module("contactformer.train")

import checks
import gen


@dataclass(frozen=True)
class Phase:
    """A timed window: `metric` is the rate of units per second of `run`."""

    metric: str
    unit: str
    per_cycle: int  # rounds in each cycle of the run
    run: object     # () -> (units, seconds) for one round


# --- training workloads -----------------------------------------------------

@dataclass(frozen=True)
class TrainSizes:
    n_train: int
    n_val: int
    n_test: int
    batch_size: int
    epochs: int
    grad_batch: int
    train_rounds: int  # per cycle
    infer_rounds: int


TRAIN_SHORT = TrainSizes(n_train=128, n_val=64, n_test=256, batch_size=64, epochs=1, grad_batch=4,
                         train_rounds=2, infer_rounds=3)
TRAIN_LONG = TrainSizes(n_train=32, n_val=16, n_test=32, batch_size=8, epochs=1, grad_batch=2,
                        train_rounds=1, infer_rounds=3)
TRAIN_LONG_FAMILIES = 16


def _entries(samples) -> list[Entry]:
    return [Entry(s.entry_id, s.sequence, ContactMap(len(s.sequence), tuple(s.pairs)), s.label)
            for s in samples]


def training_data(name: str, seed: int, sizes: TrainSizes):
    """(config, train, val, test entries) of a training workload."""
    if name == "short":
        # The structure-signal task on the default encoder (d=256, 8 heads,
        # 5 layers, contact mode): the paper's headline experiment.
        tr, va, te = topology_dataset(sizes.n_train, sizes.n_val, sizes.n_test,
                                      length=16, seed=seed)
        return ModelConfig(n_classes=4), tr, va, te
    inputs = gen.train_long_inputs(seed, sizes.n_train, sizes.n_val, sizes.n_test,
                                   TRAIN_LONG_FAMILIES)
    config = ModelConfig(n_classes=inputs.n_classes, embed_dim=128, n_heads=8, n_layers=2,
                         max_len=256)
    return config, _entries(inputs.train), _entries(inputs.val), _entries(inputs.test)


class StepLosses:
    """Records the loss of every training step while active.

    It wraps ``autodiff.weighted_cross_entropy``, which ``train`` calls
    once per step: one Python call per step, in every run.
    """

    def __init__(self):
        self.values: list[float] = []
        self.active = False
        original = ad.weighted_cross_entropy

        def weighted_cross_entropy(*args, **kwargs):
            out = original(*args, **kwargs)
            if self.active:
                self.values.append(float(out.data))
            return out

        ad.weighted_cross_entropy = weighted_cross_entropy


class TrainWorkload:
    def __init__(self, name: str, seed: int, workdir: Path, sizes: TrainSizes):
        self.name, self.seed, self.sizes = name, seed, sizes
        self.config, self.train_set, self.val_set, self.test_set = training_data(name, seed, sizes)
        # The program's own seed stays fixed, so batch order and dropout
        # masks are the same in every run; the inputs come from --seed.
        self.train_config = TrainConfig(batch_size=sizes.batch_size, max_epochs=sizes.epochs,
                                        patience=sizes.epochs + 1, seed=0)
        self.checkpoint = workdir / "model.ckpt"
        self.label_hash = model.hash_text(f"{name}:{seed}")
        self.class_sizes = np.bincount([e.label for e in self.train_set + self.val_set + self.test_set],
                                       minlength=self.config.n_classes)
        self.losses = StepLosses()
        self.attempted = self.failed = 0
        self.first_losses: list[float] = []
        self.best_val_loss = math.nan
        self.last_eval = None
        self.phases = [Phase("train_residues_per_s", "residues/s", sizes.train_rounds,
                             self.train_round),
                       Phase("infer_residues_per_s", "residues/s", sizes.infer_rounds,
                             self.infer_round)]

    def _residues(self, entries) -> int:
        return sum(min(len(e.sequence), self.config.max_len) for e in entries)

    def _eval_batches(self, n: int) -> int:
        return math.ceil(n / self.sizes.batch_size)

    def warm_up(self):
        """One step and one eval pass on the workload's largest batch shape."""
        longest = sorted(self.train_set, key=lambda e: -len(e.sequence))[: self.sizes.batch_size]
        cfg = TrainConfig(batch_size=self.sizes.batch_size, max_epochs=1, patience=2, seed=1)
        train_mod.train(self.config, longest, longest, cfg)

    def train_round(self):
        start = len(self.losses.values)
        self.losses.active = True
        t0 = time.perf_counter()
        result = train_mod.train(self.config, self.train_set, self.val_set, self.train_config,
                                 checkpoint_path=self.checkpoint, label_index_hash=self.label_hash)
        seconds = time.perf_counter() - t0
        self.losses.active = False
        step_losses = self.losses.values[start:]
        self.first_losses.append(step_losses[0] if step_losses else math.nan)
        self.attempted += len(step_losses) + self._eval_batches(len(self.val_set)) * (
            len(result.history) + 1)
        self.failed += sum(1 for v in step_losses if not math.isfinite(v))
        self.best_val_loss = result.best_val_loss
        return self._residues(self.train_set) * len(result.history), seconds

    def infer_round(self):
        t0 = time.perf_counter()
        config, params, _ = model.load_checkpoint(self.checkpoint, expected_config=self.config,
                                                  expected_label_hash=self.label_hash)
        report, prob, _ = train_mod.evaluate(config, params, self.test_set,
                                             batch_size=self.sizes.batch_size,
                                             class_sizes=self.class_sizes)
        seconds = time.perf_counter() - t0
        self.attempted += self._eval_batches(len(self.test_set))
        self.last_eval = (report, prob)
        return self._residues(self.test_set), seconds

    def end_to_end(self) -> dict[str, tuple[float, str]]:
        return {"val_loss": (self.best_val_loss, "nats")}

    # --- checks ------------------------------------------------------------

    def check(self) -> list[str]:
        failures = checks.finite_losses(self.losses.values)
        failures += checks.first_loss_near_log_c(self.first_losses[0], self.config.n_classes)
        _, params, _ = model.load_checkpoint(self.checkpoint)
        failures += checks.same_logits(*self.padding_pair(params))
        failures += checks.locality(*self.locality_outputs())
        failures += checks.directional_derivative(*self.directional_derivatives())
        report, prob = self.last_eval
        failures += checks.eval_report(report.accuracy, report.mean_auc, prob,
                                       [e.label for e in self.test_set])
        return failures

    def _logits(self, config, params, entries) -> np.ndarray:
        batch = data.batch_encode(entries, config.max_len, config.attention_mode)
        with ad.no_grad():
            logits = model.encoder_forward(batch, config, params, train_mode=False)[0]
        return logits.data

    def _longer_companion(self, entry: Entry) -> Entry:
        """An entry longer than `entry`, so that `entry` gets padded."""
        longest = max(self.test_set, key=lambda e: len(e.sequence))
        if len(longest.sequence) > len(entry.sequence):
            return longest
        n = len(entry.sequence) + 8
        rng = np.random.default_rng([self.seed, 5])
        return Entry("companion", gen.random_sequence(rng, n), topology_contacts(1, n), 1)

    def padding_pair(self, params):
        entry = min(self.test_set, key=lambda e: len(e.sequence))
        alone = self._logits(self.config, params, [entry])[0]
        in_batch = self._logits(self.config, params, [entry, self._longer_companion(entry)])[0]
        return alone, in_batch

    def locality_outputs(self):
        """Position i's output in a one-layer contact-mode encoder for the
        original entry, a far mutation and a near mutation."""
        config = ModelConfig(n_classes=self.config.n_classes, embed_dim=self.config.embed_dim,
                             n_heads=self.config.n_heads, n_layers=1, dropout=0.0,
                             max_len=self.config.max_len)
        params = model.init_params(config, np.random.default_rng([self.seed, 6]))
        entry = next(e for e in self.test_set if e.contact_map.pairs)
        dense = entry.contact_map.dense()
        n = min(len(entry.sequence), config.max_len)
        i = next(k for k in range(n) if dense[k, :n].sum() > 1 and not dense[k, :n].all())
        far = next(j for j in range(n) if not dense[i, j])
        near = next(j for j in range(n) if dense[i, j] and j != i)

        def output_at_i(sequence: str) -> np.ndarray:
            # The encoder's per-position outputs are the input of the
            # masked-mean pooling; capture them there.
            captured = []
            original = ad.masked_mean

            def capture(x, keep):
                captured.append(x.data)
                return original(x, keep)

            ad.masked_mean = capture
            try:
                self._logits(config, params, [Entry(entry.id, sequence, entry.contact_map, entry.label)])
            finally:
                ad.masked_mean = original
            return captured[0][0, i]

        def mutate(seq: str, j: int) -> str:
            letter = "A" if seq[j] != "A" else "C"
            return seq[:j] + letter + seq[j + 1:]

        seq = entry.sequence
        return output_at_i(seq), output_at_i(mutate(seq, far)), output_at_i(mutate(seq, near))

    def directional_derivatives(self, h: float = 1e-6):
        """d loss / d t along a random unit direction u at t = 0: the analytic
        value from backward, a float64 central difference, and the gradient's
        norm. A small h makes it rare for a ReLU kink to fall inside [-h, h]."""
        params = model.init_params(self.config, np.random.default_rng([self.seed, 7]),
                                   dtype=np.float64)
        by_length = sorted(self.train_set, key=lambda e: len(e.sequence))
        entries = by_length[:: max(1, len(by_length) // self.sizes.grad_batch)][: self.sizes.grad_batch]
        entries[-1] = by_length[-1]
        batch = data.batch_encode(entries, self.config.max_len, self.config.attention_mode)
        weights = data.compute_class_weights([e.label for e in self.train_set], self.config.n_classes)

        def loss() -> ad.Tensor:
            logits = model.encoder_forward(batch, self.config, params, train_mode=False)[0]
            return ad.weighted_cross_entropy(logits, batch.labels, weights)

        rng = np.random.default_rng([self.seed, 8])
        direction = {k: rng.standard_normal(p.tensor.shape) for k, p in params.items()}
        norm = math.sqrt(sum(float((u * u).sum()) for u in direction.values()))
        ad.zero_grads(params.values())
        loss().backward()
        grads = {k: p.tensor.grad for k, p in params.items() if p.tensor.grad is not None}
        analytic = sum(float((g * direction[k]).sum()) for k, g in grads.items()) / norm
        grad_norm = math.sqrt(sum(float((g * g).sum()) for g in grads.values()))

        def shifted(t: float) -> float:
            for k, p in params.items():
                p.tensor.data += (t / norm) * direction[k]
            with ad.no_grad():
                value = loss().item()
            for k, p in params.items():
                p.tensor.data -= (t / norm) * direction[k]
            return value

        numeric = (shifted(h) - shifted(-h)) / (2 * h)
        return analytic, numeric, grad_norm


# --- ingest -------------------------------------------------------------------

@dataclass(frozen=True)
class IngestSizes:
    n_rows: int
    n_superfamilies: int
    rejects_per_code: int
    warmup_rows: int
    prep_rounds: int  # per cycle
    load_rounds: int
    lengths: tuple[float, float, int, int]  # log-normal median, sigma, min, max


INGEST_SHORT = IngestSizes(n_rows=2000, n_superfamilies=40, rejects_per_code=5, warmup_rows=32,
                           prep_rounds=1, load_rounds=1, lengths=(40.0, 0.25, 30, 80))
INGEST_LONG = IngestSizes(n_rows=500, n_superfamilies=40, rejects_per_code=5, warmup_rows=32,
                          prep_rounds=1, load_rounds=1, lengths=(120.0, 0.75, 30, 500))


def _quiet(argv: list[str]) -> int:
    """Run a contactformer subcommand with its stdout captured."""
    with contextlib.redirect_stdout(io.StringIO()):
        return cli.main(argv)


class IngestWorkload:
    def __init__(self, seed: int, workdir: Path, sizes: IngestSizes):
        self.seed, self.sizes, self.workdir = seed, sizes, workdir
        self.corpus = gen.write_corpus(workdir / "corpus", seed, sizes.n_rows,
                                       sizes.n_superfamilies, sizes.rejects_per_code,
                                       sizes.lengths)
        self.workers = len(os.sched_getaffinity(0))
        self.out = workdir / "prep"
        self.expected = {r.entry_id: r.reject for r in self.corpus.rows}
        self.attempted = self.failed = 0
        self.split_done = False
        warm_index = workdir / "warm-index.tsv"
        lines = self.corpus.index_path.read_text(encoding="utf-8").splitlines()
        warm_index.write_text("\n".join(lines[: sizes.warmup_rows]) + "\n", encoding="utf-8")
        self.warm_index = warm_index
        self.phases = [Phase("prep_entries_per_s", "entries/s", sizes.prep_rounds,
                             self.prep_round),
                       Phase("load_entries_per_s", "entries/s", sizes.load_rounds,
                             self.load_round)]

    def _prep(self, index: Path, out: Path) -> int:
        return _quiet(["prep", "--index", str(index), "--pdb-dir", str(self.corpus.pdb_dir),
                       "--out", str(out), "--workers", str(self.workers)])

    def warm_up(self):
        """prep and load of the first rows, with the same worker count."""
        warm_out = self.workdir / "warm-prep"
        if self._prep(self.warm_index, warm_out) != 0:
            raise RuntimeError("warm-up prep failed")
        data.load_entries(warm_out / "processed.tsv")

    def _outcomes(self) -> tuple[dict[str, str], list[str]]:
        rejected = {}
        for line in (self.out / "rejects.log").read_text(encoding="utf-8").splitlines():
            entry_id, code, _ = line.split("\t", 2)
            rejected[entry_id] = code
        saved = (self.out / "processed.tsv").read_text(encoding="utf-8").splitlines()
        return rejected, saved

    def prep_round(self):
        t0 = time.perf_counter()
        status = self._prep(self.corpus.index_path, self.out)
        seconds = time.perf_counter() - t0
        rows = len(self.corpus.rows)
        self.attempted += rows
        if status != 0:
            self.failed += rows
        else:
            rejected, saved = self._outcomes()
            accepted = {line.split("\t", 1)[0] for line in saved}
            self.failed += checks.row_outcomes(self.expected, rejected, accepted)
        return rows, seconds

    def load_round(self):
        if not self.split_done:
            self.split_status = _quiet(["split", "--data", str(self.out), "--seed", str(self.seed),
                                        "--out", str(self.workdir / "manifest.json")])
            self.split_done = True
        self.loaded = None  # the previous round's entries are garbage now
        t0 = time.perf_counter()
        self.loaded = data.load_entries(self.out / "processed.tsv")
        seconds = time.perf_counter() - t0
        return len(self.loaded), seconds

    def check(self) -> list[str]:
        rejected, saved = self._outcomes()
        observed = {code: 0 for code in gen.REJECT_CODES}
        for code in rejected.values():
            observed[code] = observed.get(code, 0) + 1
        failures = checks.reject_counts(observed, self.corpus.planted())

        accepted_rows = [r for r in self.corpus.rows if r.reject is None]
        label_of_sf = {sf: k for k, sf in enumerate(sorted({r.superfamily for r in accepted_rows}))}
        expected = {r.entry_id: (r.sequence, r.pairs, label_of_sf[r.superfamily])
                    for r in accepted_rows}
        failures += checks.accepted_entries(self.loaded, expected)
        expected_lines = [f"{r.entry_id}\t{label_of_sf[r.superfamily]}\t{r.sequence}\t{r.pairs}"
                          for r in accepted_rows]
        failures += checks.saved_text(saved, expected_lines)

        if self.split_status != 0:
            failures.append(f"split exited with {self.split_status}")
        else:
            manifest = data.SplitManifest.from_json(
                (self.workdir / "manifest.json").read_text(encoding="utf-8"))
            label_of = {entry_id: v[2] for entry_id, v in expected.items()}
            failures += checks.split_partition(manifest.ids, manifest.class_counts, label_of)
        return failures


# --- pipelines ------------------------------------------------------------------

@dataclass(frozen=True)
class PipelineSizes:
    ingest: IngestSizes
    train: TrainSizes


class Pipeline:
    """prep and load of a corpus, then training and inference: every phase
    of the package's command-line pipeline, so that every workload reports
    every end-to-end metric."""

    def __init__(self, name: str, seed: int, workdir: Path, sizes: PipelineSizes):
        self.ingest = IngestWorkload(seed, workdir, sizes.ingest)
        self.train = TrainWorkload(name, seed, workdir, sizes.train)
        self.parts = (self.ingest, self.train)
        self.workers = self.ingest.workers
        self.phases = self.ingest.phases + self.train.phases

    @property
    def attempted(self) -> int:
        return sum(part.attempted for part in self.parts)

    @property
    def failed(self) -> int:
        return sum(part.failed for part in self.parts)

    def warm_up(self):
        for part in self.parts:
            part.warm_up()

    def end_to_end(self) -> dict[str, tuple[float, str]]:
        return self.train.end_to_end()

    def check(self) -> list[str]:
        return [f for part in self.parts for f in part.check()]


WORKLOADS = {
    "short": PipelineSizes(INGEST_SHORT, TRAIN_SHORT),
    "long": PipelineSizes(INGEST_LONG, TRAIN_LONG),
}
