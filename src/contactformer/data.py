"""Tokenization, label indexing, stratified splits, and batch assembly.

Residues map to token ids 1..20 in alphabetical order of their 1-letter
codes; 0 is the padding index. A batch carries two aligned pieces per
sample (the model's input contract): the padded token row, whose zeros
are the key-padding mask, and an L x L attention mask derived from the
contact map (true = query i may NOT attend key j). The diagonal is
always attendable and pad keys are disallowed, so no query row is fully masked.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .contacts import ContactMap, deserialize_contacts, parse_pairs

ALPHABET = "ACDEFGHIKLMNPQRSTVWY"
TOKEN_OF = {aa: i + 1 for i, aa in enumerate(ALPHABET)}

ATTENTION_MODES = ("contact", "full")  # contact-masked, or sequence-only


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

    def to_text(self) -> str:
        return "".join(f"{sf}\t{i}\n" for i, sf in enumerate(self._ids))

    @classmethod
    def from_text(cls, text: str) -> "LabelIndex":
        ids = []
        for ln in text.split("\n"):  # the separator to_text writes; ids may hold other breaks
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
        """ValueError unless text is to_json's shape: an object with an integer seed,
        ids mapping each split to a list of entry ids, class_counts each split to an object."""
        payload = json.loads(text)
        if not (isinstance(payload, dict) and type(payload.get("seed")) is int
                and isinstance(payload.get("ids"), dict)
                and all(isinstance(ids, list) and all(isinstance(i, str) for i in ids)
                        for ids in payload["ids"].values())
                and isinstance(payload.get("class_counts"), dict)
                and all(isinstance(counts, dict) for counts in payload["class_counts"].values())):
            raise ValueError("split manifest must be an object with an integer seed, ids "
                             "mapping each split to a list of entry ids, and class_counts "
                             "mapping each split to an object")
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
    if not (0 <= train_frac <= 1 and 0 <= val_frac_of_rest <= 1):
        raise ValueError(f"split fractions must lie in [0, 1]: {train_frac!r}, {val_frac_of_rest!r}")
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

    tokens: np.ndarray           # (B, L) int64, 0 = pad
    attention_masks: np.ndarray  # (B, L, L) bool, true = may not attend
    labels: np.ndarray           # (B,) int64

    @property
    def key_padding_mask(self) -> np.ndarray:
        return self.tokens == 0  # (B, L) bool, true = pad


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
    attention). Everywhere the diagonal is attendable and pad keys are
    disallowed, so a pad query attends only itself and no valid query sees it.
    """
    if not entries:
        raise EmptyDataset("cannot encode an empty batch")
    if attention_mode not in ATTENTION_MODES:
        raise ValueError(f"unknown attention mode {attention_mode!r}")
    if max_len < 1:
        raise ValueError(f"max_len must be >= 1, got {max_len}")

    rows = [tokenize(e.sequence)[:max_len] for e in entries]
    b, l = len(rows), max(map(len, rows))
    tokens = np.zeros((b, l), dtype=np.int64)
    attn = np.ones((b, l, l), dtype=bool)
    attn[:, np.arange(l), np.arange(l)] = False
    contact = attention_mode == "contact"
    for bi, (e, toks) in enumerate(zip(entries, rows)):
        n = len(toks)
        tokens[bi, :n] = toks
        attn[bi, :n, :n] = ~e.contact_map.dense()[:n, :n] if contact else False
    labels = np.array([e.label for e in entries], dtype=np.int64)
    return EncodedBatch(tokens, attn, labels)


# --- file formats ---------------------------------------------------------

@dataclass(frozen=True)
class IndexRow:
    """One line of the dataset index TSV."""

    entry_id: str
    pdb_path: str
    chain_id: str
    residue_range: tuple[int, int] | None  # inclusive; None = the whole chain
    superfamily_id: str


def read_index(path) -> tuple[list[IndexRow], list[tuple[str, str]]]:
    """Parse the TSV index: entry_id, pdb_path, chain_id, start, end, superfamily.

    '-' in both range columns means the whole chain. Returns the valid rows
    and, for every malformed row, (entry_id, reason): a row not valid UTF-8
    (U+FFFD marks the bad bytes), without 6 fields, with a non-integer range
    bound or exactly one '-' bound, or with a repeated entry id (the first
    is kept).
    """
    rows: list[IndexRow] = []
    malformed: list[tuple[str, str]] = []
    seen: set[str] = set()
    with open(path, "rb") as fh:
        lines = fh.read().splitlines()  # splits at "\n", "\r\n" and "\r", as text mode does
    for lineno, raw in enumerate(lines, start=1):
        ln = raw.decode("utf-8", errors="replace")
        if not ln.strip() or ln.startswith("#"):
            continue
        parts = ln.split("\t")
        where = f"line {lineno}"
        if "\ufffd" in ln and ln.encode("utf-8") != raw:  # a real U+FFFD round-trips
            malformed.append((parts[0], f"{where}: not valid UTF-8"))
            continue
        if len(parts) != 6:
            malformed.append((parts[0], f"{where}: expected 6 tab-separated fields"))
            continue
        entry_id, pdb_path, chain_id, start, end, sf = parts
        if entry_id in seen:
            malformed.append((entry_id, f"{where}: duplicate entry id"))
            continue
        try:
            residue_range = None if start == end == "-" else (int(start), int(end))
        except ValueError as exc:
            reason = "a residue range needs both bounds or neither" if "-" in (start, end) else exc
            malformed.append((entry_id, f"{where}: {reason}"))
            continue
        seen.add(entry_id)
        rows.append(IndexRow(entry_id, pdb_path, chain_id, residue_range, sf))
    if not rows and not malformed:
        raise EmptyDataset(f"index {path} has no entries")
    return rows, malformed


def entry_from_line(line: str) -> Entry:
    """The entry of one processed.tsv line (see :func:`save_entries`); ValueError naming
    the entry if the line is malformed (the pair field: see :func:`deserialize_contacts`)."""
    fields = line.rstrip("\n").split("\t")
    try:
        entry_id, label, sequence, pairs = fields
        return Entry(entry_id, sequence, deserialize_contacts(pairs, len(sequence)), int(label))
    except ValueError as exc:
        raise ValueError(f"entry {fields[0]!r}: {exc}") from None


def save_entries(path, rows) -> None:
    """Write processed.tsv: one tab-separated line per (entry id, label, sequence, pair field)."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.writelines(f"{entry_id}\t{label}\t{sequence}\t{pairs}\n"
                      for entry_id, label, sequence, pairs in rows)


def load_entries(path) -> list[Entry]:
    """The entries of processed.tsv's non-blank lines, in file order.

    The pair fields of the lines in save_entries' form are parsed and checked at
    once. Other lines (pairs out of order or repeated, empty chunks, a failed check)
    go through :func:`entry_from_line`, which normalizes them or raises naming the entry.
    """
    with open(path, encoding="utf-8") as fh:
        fields = [ln.split("\t") for ln in fh.read().split("\n") if ln and not ln.isspace()]
    fast = [k for k, f in enumerate(fields) if len(f) == 4 and f[1].isdecimal() and f[2]]
    ij = parse_pairs(",".join(fields[k][3] for k in fast if fields[k][3]))
    if ij is None:  # some pair field is malformed or has empty chunks
        fast = [k for k in fast if parse_pairs(fields[k][3]) is not None]
        ij = parse_pairs(",".join(fields[k][3] for k in fast if fields[k][3]))
    sizes = np.array([len(fields[k][2]) for k in fast], dtype=np.int64)
    counts = np.array([fields[k][3].count("-") for k in fast], dtype=np.int64)
    ends = np.cumsum(counts)
    n = np.repeat(sizes, counts)
    bad = (ij[:, 0] >= ij[:, 1]) | (ij[:, 1] >= n)  # parse_pairs reads digits only: no i < 0
    # keys of pairs in range lie in [0, n * n); offset by the squares of the earlier sizes,
    # they rise iff each entry's pairs ascend (an entry after a bad pair may be flagged too)
    key = np.repeat(np.cumsum(sizes * sizes) - sizes * sizes, counts)
    key += ij[:, 0] * n
    key += ij[:, 1]
    bad[1:] |= key[1:] <= key[:-1]
    slow = {fast[e] for e in np.searchsorted(ends, np.flatnonzero(bad), side="right").tolist()}
    del n, key, bad
    ij = ij.astype(np.int32)  # frees the int64 pairs
    ij.setflags(write=False)
    pairs = {k: ij[e - c:e] for k, c, e in zip(fast, counts.tolist(), ends.tolist())
             if k not in slow}
    return [Entry(f[0], f[2], ContactMap._checked(len(f[2]), pairs[k]), int(f[1]))
            if k in pairs else entry_from_line("\t".join(f)) for k, f in enumerate(fields)]
