"""Command-line pipeline: prep, split, train, evaluate, embed.

Exit codes: 0 success, 1 usage error, 2 data error, 3 training
divergence. Every subcommand prints its resolved configuration, and
identical flags plus seed produce byte-identical primary outputs.
"""

from __future__ import annotations

import argparse
import re
import sys
from collections import Counter
from concurrent.futures import ProcessPoolExecutor
from dataclasses import fields
from pathlib import Path

import numpy as np

from . import pdb_io
from .contacts import DEFAULT_THRESHOLD, build_contact_map, serialize_contacts
from .data import (
    ATTENTION_MODES,
    Entry,
    LabelIndex,
    SplitManifest,
    load_entries,
    read_index,
    save_entries,
    stratified_split,
)
from .model import ModelConfig, hash_text, load_checkpoint
from .train import Divergence, TrainConfig, evaluate, history_to_csv, predict, train

REJECT_REASONS = ("NOT_FOUND", "MALFORMED", "INCOMPLETE", "NONSTANDARD")

_DATA_ERRORS = (OSError, ValueError, KeyError)


class _Parser(argparse.ArgumentParser):
    """argparse exits with 2 on usage errors; remap to 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(1)


def _print_config(args: argparse.Namespace):
    for key in sorted(vars(args)):
        if key == "func":
            continue
        print(f"# {key} = {getattr(args, key)}")


# --- prep ------------------------------------------------------------------

def _prep_one(task):
    """Process the index rows naming one PDB file, read and scanned once; returns
    one (sequence, pair field, reason, detail) per row, in row order."""
    pdb_path, rows, pdb_dir, threshold = task
    path = Path(pdb_dir) / pdb_path
    if not path.is_file():  # also keeps a directory, FIFO or device from being read
        return [(None, None, "NOT_FOUND", str(path))] * len(rows)
    try:
        text = path.read_text(encoding="utf-8", errors="replace")
    except OSError:  # unreadable, e.g. no read permission
        return [(None, None, "NOT_FOUND", str(path))] * len(rows)
    return [_prep_row(text, row, threshold) for row in rows]


def _prep_row(text, row, threshold):
    try:
        chain = pdb_io.parse_structure(text, row.chain_id, row.residue_range)
    except ValueError as exc:  # PdbParseError, or a chain id that is not one character
        return None, None, "MALFORMED", str(exc)
    report = pdb_io.check_completeness(chain, row.residue_range)
    if report.n_gaps > 0:
        return None, None, "INCOMPLETE", f"gaps={report.n_gaps}"
    if report.nonstandard_residues:
        return None, None, "NONSTANDARD", ",".join(report.nonstandard_residues)
    sequence = pdb_io.residues_to_sequence(chain)
    # The finished pair field of processed.tsv: the parent writes it as it comes.
    return sequence, serialize_contacts(build_contact_map(chain.ca, threshold)), None, None


def finite_positive_float(text: str) -> float:
    if not 0 < float(text) < float("inf"):
        raise argparse.ArgumentTypeError(f"must be a finite positive number, got {text!r}")
    return float(text)


def int_at_least(low: int):
    """argparse type: an integer >= low."""
    def parse(text: str) -> int:
        if int(text) < low:
            raise argparse.ArgumentTypeError(f"must be an integer >= {low}, got {text!r}")
        return int(text)
    parse.__name__ = "int"  # argparse's "invalid int value: 'x'"
    return parse


positive_int = int_at_least(1)


def unit_fraction(text: str) -> float:
    if not 0 <= float(text) <= 1:
        raise argparse.ArgumentTypeError(f"must be a number in [0, 1], got {text!r}")
    return float(text)


def cmd_prep(args) -> int:
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    rows, malformed = read_index(args.index)

    # One task per file, in the order each file is first named; entry ids are unique.
    by_file: dict[str, list] = {}
    for row in rows:
        by_file.setdefault(row.pdb_path, []).append(row)
    tasks = [(pdb_path, file_rows, args.pdb_dir, args.threshold)
             for pdb_path, file_rows in by_file.items()]
    if args.workers > 1:
        # A few large chunks per worker: few round trips, and a short tail at the end.
        chunksize = max(1, -(-len(tasks) // (8 * args.workers)))  # 1 when all rows are malformed
        with ProcessPoolExecutor(max_workers=args.workers) as pool:
            per_file = list(pool.map(_prep_one, tasks, chunksize=chunksize))
    else:
        per_file = [_prep_one(t) for t in tasks]
    outcome = {row.entry_id: out for file_rows, outs in zip(by_file.values(), per_file)
               for row, out in zip(file_rows, outs)}
    results = [(row, *outcome[row.entry_id]) for row in rows]

    accepted = [(row, seq, pairs) for row, seq, pairs, reason, _ in results if reason is None]
    rejects = [(entry_id, "MALFORMED", detail) for entry_id, detail in malformed]
    rejects += [(row.entry_id, reason, detail) for row, _, _, reason, detail in results if reason]
    reason_counts = Counter(reason for _, reason, _ in rejects)

    with open(out_dir / "rejects.log", "w", encoding="utf-8") as fh:
        for entry_id, reason, detail in rejects:
            fh.write(f"{entry_id}\t{reason}\t{detail}\n")

    print(f"# accepted = {len(accepted)}")
    for reason in REJECT_REASONS:
        print(f"# rejected[{reason}] = {reason_counts[reason]}")
    if not accepted:
        print("prep: no entries survived the quality filters", file=sys.stderr)
        return 2

    label_index = LabelIndex(row.superfamily_id for row, _, _ in accepted)
    (out_dir / "labels.tsv").write_text(label_index.to_text(), encoding="utf-8")

    save_entries(out_dir / "processed.tsv",
                 [(row.entry_id, label_index.index_of(row.superfamily_id), sequence, pairs)
                  for row, sequence, pairs in accepted])
    return 0


# --- split -----------------------------------------------------------------

def cmd_split(args) -> int:
    entries = load_entries(Path(args.data) / "processed.tsv")
    manifest = stratified_split(entries, args.train_frac, args.val_frac, args.seed)
    Path(args.out).write_text(manifest.to_json(), encoding="utf-8")
    for split in ("train", "val", "test"):
        print(f"# {split} = {len(manifest.ids[split])}")
    return 0


# --- shared loading --------------------------------------------------------

def _load_splits(data_dir, manifest_path=None) -> tuple[dict[str, list[Entry]], str, str]:
    """Returns ({split: entries}, label index hash, labels.tsv text).

    processed.tsv and labels.tsv are each read once. Split "all" holds
    every entry; the manifest, if given, adds its splits.
    """
    entries = load_entries(Path(data_dir) / "processed.tsv")
    label_text = (Path(data_dir) / "labels.tsv").read_text(encoding="utf-8")
    splits = {"all": entries}
    if manifest_path is not None:
        by_id = {e.id: e for e in entries}
        manifest = SplitManifest.from_json(Path(manifest_path).read_text(encoding="utf-8"))
        for split, ids in manifest.ids.items():
            if missing := [i for i in ids if i not in by_id]:
                raise ValueError(f"manifest {manifest_path}: {split} entry {missing[0]!r} "
                                 "is not in processed.tsv")
            splits[split] = [by_id[i] for i in ids]
    return splits, hash_text(label_text), label_text


# --- train -----------------------------------------------------------------

# the train flag that sets each ModelConfig and TrainConfig field; the field gives its default
_MODEL_FLAGS = {"embed_dim": "--embed-dim", "n_heads": "--heads", "n_layers": "--layers",
                "ffn_dim": "--ffn-dim", "dropout": "--dropout", "max_len": "--max-len",
                "attention_mode": "--attention"}
_TRAIN_FLAGS = {"lr": "--lr", "batch_size": "--batch-size", "max_epochs": "--epochs",
                "patience": "--patience", "seed": "--seed"}


def _dest(flag: str) -> str:
    """The argparse attribute of a --flag."""
    return flag[2:].replace("-", "_")


def _train_configs(args, n_classes: int) -> tuple[ModelConfig, TrainConfig]:
    """The configs train's flags describe. Their checks are the only range checks
    of those flags: each raises ValueError for a value out of range."""
    def values(flags):
        return {field: getattr(args, _dest(flag)) for field, flag in flags.items()}

    return (ModelConfig(n_classes=n_classes, use_positional=not args.no_positional,
                        **values(_MODEL_FLAGS)),
            TrainConfig(class_weighting=not args.no_class_weights, **values(_TRAIN_FLAGS)))


def cmd_train(args) -> int:
    splits, label_hash, label_text = _load_splits(args.data, args.manifest)
    label_index = LabelIndex.from_text(label_text)

    model_config, train_config = _train_configs(args, n_classes=len(label_index))
    result = train(model_config, splits["train"], splits["val"], train_config,
                   checkpoint_path=args.checkpoint, label_index_hash=label_hash,
                   verbose=True)
    log_path = args.log if args.log else f"{args.checkpoint}.log.csv"
    Path(log_path).write_text(history_to_csv(result.history), encoding="utf-8")
    print(f"# best_val_loss = {result.best_val_loss!r}")
    print(f"# best_epoch = {result.best_epoch}")
    return 0


# --- evaluate --------------------------------------------------------------

def cmd_evaluate(args) -> int:
    splits, label_hash, _ = _load_splits(args.data, args.manifest)
    config, params, _ = load_checkpoint(args.checkpoint, expected_label_hash=label_hash)
    class_sizes = np.bincount([e.label for e in splits["all"]], minlength=config.n_classes)
    report, _, _ = evaluate(config, params, splits[args.split], batch_size=args.batch_size,
                            class_sizes=class_sizes)
    print(report.to_flat_text(), end="")
    if args.out:
        Path(args.out).write_text(report.to_json(), encoding="utf-8")
    if args.text:
        Path(args.text).write_text(report.to_flat_text(), encoding="utf-8")
    return 0


# --- embed -----------------------------------------------------------------

def cmd_embed(args) -> int:
    splits, label_hash, _ = _load_splits(args.data,
                                         None if args.split == "all" else args.manifest)
    entries = splits[args.split]
    config, params, _ = load_checkpoint(args.checkpoint, expected_label_hash=label_hash)
    pooled = np.concatenate([p for _, _, p in predict(entries, config, params, args.batch_size)])
    with open(args.out, "w", encoding="utf-8") as fh:
        for entry, vec in zip(entries, pooled):
            joined = ",".join(f"{v:.8g}" for v in vec)
            fh.write(f"{entry.id}\t{entry.label}\t{joined}\n")
    print(f"# wrote {len(entries)} embeddings of dim {pooled.shape[1]}")
    return 0


# --- parser ----------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="contactformer",
                     description="Contact-map-masked transformer pipeline")
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser("prep", help="parse structures, filter, build contact maps")
    p.add_argument("--index", required=True, help="TSV: entry_id pdb_path chain "
                   "res_start res_end superfamily ('-' in both = whole chain)")
    p.add_argument("--pdb-dir", required=True)
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--threshold", type=finite_positive_float, default=DEFAULT_THRESHOLD)
    p.add_argument("--workers", type=positive_int, default=1)
    p.set_defaults(func=cmd_prep)

    p = sub.add_parser("split", help="stratified train/val/test split")
    p.add_argument("--data", required=True, help="prep output directory")
    p.add_argument("--seed", type=int_at_least(0), default=0)
    p.add_argument("--train-frac", type=unit_fraction, default=0.7)
    p.add_argument("--val-frac", type=unit_fraction, default=0.5,
                   help="validation fraction of the non-train remainder")
    p.add_argument("--out", required=True, help="manifest JSON path")
    p.set_defaults(func=cmd_split)

    # main reports an out-of-range train setting under this parser's usage
    p = parser.train = sub.add_parser("train", help="train and checkpoint at best val loss")
    p.add_argument("--data", required=True)
    p.add_argument("--manifest", required=True)
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--log", default=None, help="epoch CSV (default: <checkpoint>.log.csv)")
    p.add_argument("--embed-dim", type=int)
    p.add_argument("--heads", type=int)
    p.add_argument("--layers", type=int)
    p.add_argument("--ffn-dim", type=int, help="default: 4 * embed-dim")
    p.add_argument("--dropout", type=float)
    p.add_argument("--max-len", type=int)
    p.add_argument("--attention", choices=ATTENTION_MODES)
    p.add_argument("--no-positional", action="store_true",
                   help="disable sinusoidal positional encodings")
    p.add_argument("--lr", type=float)
    p.add_argument("--batch-size", type=int)
    p.add_argument("--epochs", type=int)
    p.add_argument("--patience", type=int)
    p.add_argument("--seed", type=int)
    p.add_argument("--no-class-weights", action="store_true")
    config_defaults = {f.name: f.default for config in (ModelConfig, TrainConfig)
                       for f in fields(config)}
    p.set_defaults(func=cmd_train, **{_dest(flag): config_defaults[field]
                                      for field, flag in (_MODEL_FLAGS | _TRAIN_FLAGS).items()})

    p = sub.add_parser("evaluate", help="metric report for one split")
    p.add_argument("--data", required=True)
    p.add_argument("--manifest", required=True)
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--split", choices=("train", "val", "test"), default="test")
    p.add_argument("--batch-size", type=positive_int, default=64)
    p.add_argument("--out", default=None, help="JSON report path")
    p.add_argument("--text", default=None, help="flat text report path")
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("embed", help="export pooled embeddings for projection")
    p.add_argument("--data", required=True)
    p.add_argument("--manifest", default=None)
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--split", choices=("train", "val", "test", "all"), default="all")
    p.add_argument("--batch-size", type=positive_int, default=64)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_embed)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.subcommand == "embed" and args.split != "all" and not args.manifest:
        parser.error("embed with --split other than 'all' needs --manifest")
    if args.subcommand == "train":
        try:
            _train_configs(args, n_classes=1)  # the one field taken from the data
        except ValueError as exc:  # reworded from config fields to the flags that set them
            flags = _MODEL_FLAGS | _TRAIN_FLAGS
            parser.train.error(re.sub(r"\w+", lambda m: flags.get(m[0], m[0]), str(exc)))
    _print_config(args)
    try:
        return args.func(args)
    except Divergence as exc:
        print(f"contactformer: divergence: {exc}", file=sys.stderr)
        return 3
    except _DATA_ERRORS as exc:
        print(f"contactformer: data error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
