"""Command-line pipeline: prep, split, train, evaluate, embed.

Exit codes: 0 success, 1 usage error, 2 data error, 3 training
divergence. Every subcommand prints its resolved configuration, and
identical flags plus seed produce byte-identical primary outputs.
"""

from __future__ import annotations

import argparse
import sys
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

import numpy as np

from . import contacts, pdb_io
from .contacts import build_contact_map, serialize_contacts
from .data import (
    Entry,
    IndexRow,
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
    """Process one index row; returns (row, sequence, contact_text, reason, detail)."""
    row, pdb_dir, threshold = task
    path = Path(pdb_dir) / row.pdb_path
    if not path.is_file():
        return row, None, None, "NOT_FOUND", str(path)
    text = path.read_text(encoding="utf-8", errors="replace")
    try:
        chain = pdb_io.parse_structure(text, row.chain_id, row.residue_range,
                                       pdb_id=row.entry_id[:4])
    except ValueError as exc:  # PdbParseError, or a chain id that is not one character
        return row, None, None, "MALFORMED", str(exc)
    report = pdb_io.check_completeness(chain, row.residue_range)
    if report.n_gaps > 0:
        return row, None, None, "INCOMPLETE", f"gaps={report.n_gaps}"
    if report.nonstandard_residues:
        return row, None, None, "NONSTANDARD", ",".join(report.nonstandard_residues)
    sequence = pdb_io.residues_to_sequence(chain)
    cmap = build_contact_map(chain.ca_coordinates(), threshold)
    return row, sequence, serialize_contacts(cmap), None, None


def cmd_prep(args) -> int:
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    rows, malformed = read_index(args.index)

    tasks = [(row, args.pdb_dir, args.threshold) for row in rows]
    if args.workers > 1:
        with ProcessPoolExecutor(max_workers=args.workers) as pool:
            results = list(pool.map(_prep_one, tasks, chunksize=4))
    else:
        results = [_prep_one(t) for t in tasks]

    accepted: list[tuple[IndexRow, str, str]] = []
    rejects = [(entry_id, "MALFORMED", detail) for entry_id, detail in malformed]
    for row, sequence, contact_text, reason, detail in results:
        if reason is None:
            accepted.append((row, sequence, contact_text))
        else:
            rejects.append((row.entry_id, reason, detail))

    reason_counts = {r: 0 for r in REJECT_REASONS}
    for _, reason, _ in rejects:
        reason_counts[reason] += 1

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

    entries = []
    for row, sequence, contact_text in accepted:
        cmap = contacts.deserialize_contacts(contact_text)
        entries.append(Entry(row.entry_id, sequence, cmap,
                             label_index.index_of(row.superfamily_id)))
    save_entries(out_dir / "processed.tsv", entries)
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
        splits.update({split: [by_id[i] for i in ids] for split, ids in manifest.ids.items()})
    return splits, hash_text(label_text), label_text


def _model_config_from_args(args, n_classes: int) -> ModelConfig:
    return ModelConfig(
        n_classes=n_classes,
        embed_dim=args.embed_dim,
        n_heads=args.heads,
        n_layers=args.layers,
        ffn_dim=args.ffn_dim,
        dropout=args.dropout,
        max_len=args.max_len,
        attention_mode=args.attention,
        use_positional=not args.no_positional,
    )


# --- train -----------------------------------------------------------------

def cmd_train(args) -> int:
    splits, label_hash, label_text = _load_splits(args.data, args.manifest)
    label_index = LabelIndex.from_text(label_text)

    model_config = _model_config_from_args(args, n_classes=len(label_index))
    train_config = TrainConfig(
        lr=args.lr,
        batch_size=args.batch_size,
        max_epochs=args.epochs,
        patience=args.patience,
        seed=args.seed,
        class_weighting=not args.no_class_weights,
    )
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

def _add_model_flags(p: argparse.ArgumentParser):
    p.add_argument("--embed-dim", type=int, choices=(128, 256), default=256)
    p.add_argument("--heads", type=int, default=8)
    p.add_argument("--layers", type=int, default=5)
    p.add_argument("--ffn-dim", type=int, default=None,
                   help="default: 4 * embed-dim")
    p.add_argument("--dropout", type=float, default=0.1)
    p.add_argument("--max-len", type=int, default=512)
    p.add_argument("--attention", choices=("contact", "full"), default="contact")
    p.add_argument("--no-positional", action="store_true",
                   help="disable sinusoidal positional encodings")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="contactformer",
                     description="Contact-map-masked transformer pipeline")
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser("prep", help="parse structures, filter, build contact maps")
    p.add_argument("--index", required=True, help="TSV: entry_id pdb_path chain "
                   "res_start res_end superfamily ('-' = unbounded)")
    p.add_argument("--pdb-dir", required=True)
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--threshold", type=float, default=8.0)
    p.add_argument("--workers", type=int, default=1)
    p.set_defaults(func=cmd_prep)

    p = sub.add_parser("split", help="stratified train/val/test split")
    p.add_argument("--data", required=True, help="prep output directory")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--train-frac", type=float, default=0.7)
    p.add_argument("--val-frac", type=float, default=0.5,
                   help="validation fraction of the non-train remainder")
    p.add_argument("--out", required=True, help="manifest JSON path")
    p.set_defaults(func=cmd_split)

    p = sub.add_parser("train", help="train and checkpoint at best val loss")
    p.add_argument("--data", required=True)
    p.add_argument("--manifest", required=True)
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--log", default=None, help="epoch CSV (default: <checkpoint>.log.csv)")
    _add_model_flags(p)
    p.add_argument("--lr", type=float, default=1e-4)
    p.add_argument("--batch-size", type=int, default=64)
    p.add_argument("--epochs", type=int, default=200)
    p.add_argument("--patience", type=int, default=20)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--no-class-weights", action="store_true")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("evaluate", help="metric report for one split")
    p.add_argument("--data", required=True)
    p.add_argument("--manifest", required=True)
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--split", choices=("train", "val", "test"), default="test")
    p.add_argument("--batch-size", type=int, default=64)
    p.add_argument("--out", default=None, help="JSON report path")
    p.add_argument("--text", default=None, help="flat text report path")
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("embed", help="export pooled embeddings for projection")
    p.add_argument("--data", required=True)
    p.add_argument("--manifest", default=None)
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--split", choices=("train", "val", "test", "all"), default="all")
    p.add_argument("--batch-size", type=int, default=64)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_embed)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.subcommand == "embed" and args.split != "all" and not args.manifest:
        parser.error("embed with --split other than 'all' needs --manifest")
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
