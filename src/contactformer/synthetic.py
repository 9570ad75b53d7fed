"""Bundled synthetic tasks: no external data needed for tests or demos.

Two generators:

* ``overfit_dataset`` - trivially separable sequences (disjoint per-class
  letter sets) for overfitting sanity checks.
* ``topology_dataset`` - the structure-signal task. Labels are decidable
  ONLY from contact topology: every class draws sequences from the same
  iid uniform distribution over the 20 letters (identical marginal
  sequence statistics), while the contact map follows one of four
  distinct wiring patterns. A model restricted to sequence-only
  attention can do no better than chance on fresh test samples.
"""

from __future__ import annotations

import numpy as np

from .contacts import ContactMap
from .data import ALPHABET, Entry

N_TOPOLOGY_CLASSES = 4


def _band_pairs(length: int, width: int) -> tuple[tuple[int, int], ...]:
    return tuple(
        (i, j)
        for i in range(length)
        for j in range(i + 1, min(i + width + 1, length))
    )


def topology_contacts(label: int, length: int) -> ContactMap:
    """Class-specific wiring: isolated, chain, thick band, or ladder."""
    if label == 0:
        pairs: tuple[tuple[int, int], ...] = ()
    elif label == 1:
        pairs = _band_pairs(length, 1)
    elif label == 2:
        pairs = _band_pairs(length, 3)
    elif label == 3:
        half = length // 2
        rungs = tuple((i, i + half) for i in range(length - half))
        pairs = _band_pairs(length, 1) + rungs  # ContactMap sorts and drops repeats
    else:
        raise ValueError(f"label must be in [0, {N_TOPOLOGY_CLASSES}), got {label}")
    return ContactMap(length, pairs)


def _uniform_sequence(rng: np.random.Generator, length: int) -> str:
    return "".join(rng.choice(list(ALPHABET), size=length))


def topology_dataset(
    n_train: int = 400,
    n_val: int = 100,
    n_test: int = 100,
    length: int = 16,
    seed: int = 0,
) -> tuple[list[Entry], list[Entry], list[Entry]]:
    """Generate the contact-topology classification task.

    Labels cycle through the four classes (balanced splits); sequences
    are iid uniform regardless of class, so all label signal lives in
    the contact maps.
    """
    maps = [topology_contacts(c, length) for c in range(N_TOPOLOGY_CLASSES)]

    def make(split: str, split_idx: int, n: int) -> list[Entry]:
        rng = np.random.default_rng([seed, split_idx])
        entries = []
        for i in range(n):
            label = i % N_TOPOLOGY_CLASSES
            entries.append(Entry(
                id=f"topo-{split}-{i:04d}",
                sequence=_uniform_sequence(rng, length),
                contact_map=maps[label],
                label=label,
            ))
        return entries

    return make("train", 1, n_train), make("val", 2, n_val), make("test", 3, n_test)


def overfit_dataset(
    n: int = 32,
    n_classes: int = 4,
    length: int = 10,
    seed: int = 0,
) -> list[Entry]:
    """Separable toy set: each class draws letters from its own alphabet slice."""
    if n_classes < 1 or 20 % n_classes != 0:
        raise ValueError("n_classes must divide 20")
    rng = np.random.default_rng([seed, 7])
    slice_size = 20 // n_classes
    cmap = ContactMap(length, _band_pairs(length, 2))
    entries = []
    for i in range(n):
        label = i % n_classes
        letters = ALPHABET[label * slice_size:(label + 1) * slice_size]
        seq = "".join(rng.choice(list(letters), size=length))
        entries.append(Entry(f"overfit-{i:03d}", seq, cmap, label))
    return entries
