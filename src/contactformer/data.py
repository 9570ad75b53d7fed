"""Tokenization, label indexing, stratified splits, and batch assembly.

Residues map to token ids 1..20 in alphabetical order of their 1-letter
codes; 0 is the padding index. A batch carries three aligned pieces per
sample (the model's input contract): the padded token row, the
key-padding mask (true = pad), and an L x L attention mask derived from
the contact map (true = query i may NOT attend key j). The diagonal of
every valid position is always attendable, so no live query row is ever
fully masked.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

from .contacts import ContactMap

ALPHABET = "ACDEFGHIKLMNPQRSTVWY"
TOKEN_OF = {aa: i + 1 for i, aa in enumerate(ALPHABET)}
PAD_ID = 0


class UnknownResidue(ValueError):
    """Sequence contains a character outside the 20-letter alphabet."""


class EmptyDataset(ValueError):
    """An operation needs at least one entry."""


class LengthMismatch(ValueError):
    """Sequence length and contact-map size disagree."""


def tokenize(sequence: str) -> list[int]:
    """Map a 1-letter sequence to token ids (A=1 .. Y=20)."""
    try:
        return [TOKEN_OF[aa] for aa in sequence]
    except KeyError as exc:
        raise UnknownResidue(f"unknown residue {exc.args[0]!r} in sequence") from None


@dataclass(frozen=True)
class Entry:
    """One classified chain slice: sequence + contact map + class index."""

    id: str
    sequence: str
    contact_map: ContactMap
    label: int

    def __post_init__(self):
        if len(self.sequence) != self.contact_map.n:
            raise LengthMismatch(
                f"entry {self.id!r}: sequence length {len(self.sequence)} "
                f"!= contact map size {self.contact_map.n}"
            )


class LabelIndex:
    """Bijection between superfamily identifiers and indices 0..C-1."""

    def __init__(self, superfamily_ids):
        ids = sorted(set(superfamily_ids))
        if not ids:
            raise EmptyDataset("no superfamily identifiers")
        self._ids = ids
        self._index = {sf: i for i, sf in enumerate(ids)}

    def __len__(self) -> int:
        return len(self._ids)

    def index_of(self, superfamily_id: str) -> int:
        return self._index[superfamily_id]

    def id_of(self, index: int) -> str:
        return self._ids[index]

    def to_text(self) -> str:
        return "".join(f"{sf}\t{i}\n" for i, sf in enumerate(self._ids))

    @classmethod
    def from_text(cls, text: str) -> "LabelIndex":
        ids = []
        for ln in text.splitlines():
            if not ln.strip():
                continue
            sf, idx = ln.split("\t")
            ids.append((int(idx), sf))
        return cls(sf for _, sf in sorted(ids))


@dataclass(frozen=True)
class SplitManifest:
    """Seed plus per-split entry-id lists and per-class counts."""

    seed: int
    ids: dict[str, list[str]]  # keys: train / val / test
    class_counts: dict[str, dict[int, int]]

    def to_json(self) -> str:
        payload = {
            "seed": self.seed,
            "ids": self.ids,
            "class_counts": {
                split: {str(k): v for k, v in sorted(counts.items())}
                for split, counts in self.class_counts.items()
            },
        }
        return json.dumps(payload, indent=2, sort_keys=True) + "\n"

    @classmethod
    def from_json(cls, text: str) -> "SplitManifest":
        payload = json.loads(text)
        return cls(
            seed=payload["seed"],
            ids=payload["ids"],
            class_counts={
                split: {int(k): v for k, v in counts.items()}
                for split, counts in payload["class_counts"].items()
            },
        )


def stratified_split(
    entries: list[Entry],
    train_frac: float = 0.7,
    val_frac_of_rest: float = 0.5,
    seed: int = 0,
) -> SplitManifest:
    """Per-class split: train = max(1, floor(train_frac * n)) members.

    Of the r remaining, floor(val_frac_of_rest * r) go to validation and
    the rest to test. Assignment inside a class is a seeded shuffle of the
    id-sorted members, so the result is deterministic for a fixed seed and
    independent of input order. Singleton classes go entirely to train.
    """
    if not entries:
        raise EmptyDataset("cannot split an empty dataset")
    by_class: dict[int, list[str]] = {}
    for e in entries:
        by_class.setdefault(e.label, []).append(e.id)

    ids = {"train": [], "val": [], "test": []}
    counts = {"train": {}, "val": {}, "test": {}}
    for label in sorted(by_class):
        members = sorted(by_class[label])
        rng = np.random.default_rng([seed, label])
        order = rng.permutation(len(members))
        shuffled = [members[i] for i in order]
        n = len(shuffled)
        # +1e-9 guards floor() against representation error in frac * n
        n_train = max(1, math.floor(train_frac * n + 1e-9))
        rest = n - n_train
        n_val = math.floor(val_frac_of_rest * rest + 1e-9)
        splits = {
            "train": shuffled[:n_train],
            "val": shuffled[n_train:n_train + n_val],
            "test": shuffled[n_train + n_val:],
        }
        for split, chunk in splits.items():
            ids[split].extend(chunk)
            if chunk:
                counts[split][label] = len(chunk)
    return SplitManifest(seed=seed, ids=ids, class_counts=counts)


def compute_class_weights(labels, n_classes: int) -> np.ndarray:
    """Balanced weights w_c = N / (C * n_c); absent classes get weight 0.

    No renormalization is applied, so when all C classes are present the
    weights of the dataset sum back to N.
    """
    labels = np.asarray(labels)
    if labels.size and (labels.min() < 0 or labels.max() >= n_classes):
        raise ValueError("label out of range")
    counts = np.bincount(labels, minlength=n_classes).astype(np.float64)
    weights = np.zeros(n_classes, dtype=np.float64)
    present = counts > 0
    weights[present] = labels.size / (n_classes * counts[present])
    return weights


@dataclass(frozen=True)
class EncodedBatch:
    """Padded tokens + masks + labels, ready for the encoder."""

    tokens: np.ndarray            # (B, L) int64, 0 = pad
    key_padding_mask: np.ndarray  # (B, L) bool, true = pad
    attention_masks: np.ndarray   # (B, L, L) bool, true = may not attend
    labels: np.ndarray            # (B,) int64


def batch_encode(
    entries: list[Entry],
    max_len: int = 512,
    attention_mode: str = "contact",
) -> EncodedBatch:
    """Assemble one padded batch.

    Sequences longer than max_len keep their first max_len residues and
    the matching leading square of their contact map. In "contact" mode
    the attention mask is the negated contact map inside each sample's
    valid square; in "full" mode that square is all-false (sequence-only
    attention). Padded rows and columns stay all-true, so the attention
    mask alone keeps padded keys out of every query's softmax.
    """
    if not entries:
        raise EmptyDataset("cannot encode an empty batch")
    if attention_mode not in ("contact", "full"):
        raise ValueError(f"unknown attention mode {attention_mode!r}")

    rows = [(tokenize(e.sequence)[:max_len], e.contact_map.truncated(max_len), e.label)
            for e in entries]

    b = len(rows)
    l = max(len(toks) for toks, _, _ in rows)
    tokens = np.zeros((b, l), dtype=np.int64)
    key_pad = np.ones((b, l), dtype=bool)
    attn = np.ones((b, l, l), dtype=bool)
    labels = np.zeros(b, dtype=np.int64)
    for bi, (toks, cmap, label) in enumerate(rows):
        n = len(toks)
        tokens[bi, :n] = toks
        key_pad[bi, :n] = False
        if attention_mode == "contact":
            attn[bi, :n, :n] = ~cmap.dense()
        else:
            attn[bi, :n, :n] = False
        labels[bi] = label
    return EncodedBatch(tokens, key_pad, attn, labels)


# --- file formats ---------------------------------------------------------

@dataclass(frozen=True)
class IndexRow:
    """One line of the dataset index TSV."""

    entry_id: str
    pdb_path: str
    chain_id: str
    res_start: int | None
    res_end: int | None
    superfamily_id: str

    @property
    def residue_range(self) -> tuple[int, int] | None:
        if self.res_start is None or self.res_end is None:
            return None
        return (self.res_start, self.res_end)


def read_index(path) -> tuple[list[IndexRow], list[tuple[str, str]]]:
    """Parse the TSV index: entry_id, pdb_path, chain_id, start, end, superfamily.

    '-' in the range columns means unbounded (whole chain). Returns the
    valid rows and, for every malformed row, (entry_id, reason): a row
    without 6 fields, a non-integer range bound, or a repeated entry id
    (the first occurrence is kept).
    """
    rows: list[IndexRow] = []
    malformed: list[tuple[str, str]] = []
    seen: set[str] = set()
    with open(path, encoding="utf-8") as fh:
        for lineno, ln in enumerate(fh, start=1):
            ln = ln.rstrip("\n")
            if not ln.strip() or ln.startswith("#"):
                continue
            parts = ln.split("\t")
            where = f"line {lineno}"
            if len(parts) != 6:
                malformed.append((parts[0], f"{where}: expected 6 tab-separated fields"))
                continue
            entry_id, pdb_path, chain_id, start, end, sf = parts
            if entry_id in seen:
                malformed.append((entry_id, f"{where}: duplicate entry id"))
                continue
            try:
                bounds = [None if v == "-" else int(v) for v in (start, end)]
            except ValueError as exc:
                malformed.append((entry_id, f"{where}: {exc}"))
                continue
            seen.add(entry_id)
            rows.append(IndexRow(entry_id, pdb_path, chain_id, *bounds, sf))
    if not rows and not malformed:
        raise EmptyDataset(f"index {path} has no entries")
    return rows, malformed


def entry_to_line(entry: Entry) -> str:
    pairs = ",".join(f"{i}-{j}" for i, j in sorted(entry.contact_map.pairs))
    return f"{entry.id}\t{entry.label}\t{entry.sequence}\t{pairs}\n"


def entry_from_line(line: str) -> Entry:
    entry_id, label, sequence, pair_field = line.rstrip("\n").split("\t")
    pairs = tuple(
        tuple(int(v) for v in chunk.split("-"))
        for chunk in pair_field.split(",")
        if chunk
    )
    return Entry(entry_id, sequence, ContactMap(len(sequence), pairs), int(label))


def save_entries(path, entries: list[Entry]) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for e in entries:
            fh.write(entry_to_line(e))


def load_entries(path) -> list[Entry]:
    with open(path, encoding="utf-8") as fh:
        return [entry_from_line(ln) for ln in fh if ln.strip()]
