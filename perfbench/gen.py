"""Seeded input generators for the benchmark workloads.

Everything here is benchmark-side code: it draws chains, writes PDB text
and computes the reference answers (sequences, contact pairs, planted
reject codes) that the checks compare the program's outputs against.
Coordinates are kept as integers in milli-Angstrom, which is exactly what
the PDB text holds at 3 decimals, so the reference contact pairs are
computed without rounding error.
"""

from __future__ import annotations

import statistics
from dataclasses import dataclass
from pathlib import Path

import numpy as np

ALPHABET = "ACDEFGHIKLMNPQRSTVWY"
AA1_TO_3 = {
    "A": "ALA", "C": "CYS", "D": "ASP", "E": "GLU", "F": "PHE", "G": "GLY",
    "H": "HIS", "I": "ILE", "K": "LYS", "L": "LEU", "M": "MET", "N": "ASN",
    "P": "PRO", "Q": "GLN", "R": "ARG", "S": "SER", "T": "THR", "V": "VAL",
    "W": "TRP", "Y": "TYR",
}
STEP_MA = 3800               # CA-CA spacing, milli-Angstrom
THRESHOLD_MA2 = 8000 ** 2    # 8 A contact threshold, squared milli-Angstrom
REJECT_CODES = ("NOT_FOUND", "MALFORMED", "INCOMPLETE", "NONSTANDARD")


# --- lengths, families, chains ----------------------------------------------

def lognormal_lengths(n: int, median: float, sigma: float, lo: int, hi: int) -> np.ndarray:
    """The n stratified quantiles of a clipped log-normal, ascending.

    Every seed gets the same multiset of lengths, so padding and the
    O(L^2) work do not change with the seed; the seed decides which
    entry gets which length and everything else about the entry.
    """
    dist = statistics.NormalDist()
    z = np.array([dist.inv_cdf((k + 0.5) / n) for k in range(n)])
    return np.clip(np.rint(median * np.exp(sigma * z)), lo, hi).astype(int)


def zipf_sizes(total: int, n_classes: int) -> list[int]:
    """Class sizes proportional to 1/(k+1), summing to total (largest remainder)."""
    w = 1.0 / np.arange(1, n_classes + 1)
    raw = total * w / w.sum()
    sizes = np.floor(raw).astype(int)
    for k in np.argsort(-(raw - sizes))[: total - sizes.sum()]:
        sizes[k] += 1
    return sizes.tolist()


def family_shape(family: int) -> tuple[float, float]:
    """(persistence, confinement radius scale) of a structural family.

    The spread of both around (2.1, 4.1) gives about 10 CA contacts per
    residue at 8 A on average, roughly independent of chain length.
    """
    u = (family * 0.6180339887) % 1.0
    v = (family * 0.4142135623 + 0.3) % 1.0
    return 1.6 + 1.0 * u, 3.6 + 1.0 * v


def ca_walks(rng: np.random.Generator, lengths, families) -> list[np.ndarray]:
    """(n, 3) int64 CA traces in milli-Angstrom, one per (length, family).

    Each is a persistent walk in a soft sphere whose radius grows as
    n^(1/3), so a chain fills it at a roughly constant density whatever
    its length. All chains step together, one residue per iteration.
    """
    lengths = np.asarray(lengths, dtype=int)
    shapes = np.array([family_shape(int(f)) for f in families]).reshape(-1, 2)
    persistence = shapes[:, :1]
    radius = (shapes[:, 1] * lengths ** (1.0 / 3.0) * 1000.0)[:, None]
    noise = rng.normal(size=(lengths.size, int(lengths.max(initial=1)), 3))
    direction = noise[:, 0] / np.linalg.norm(noise[:, 0], axis=1, keepdims=True)
    pos = np.zeros((lengths.size, 3))
    out = np.zeros_like(noise)
    for t in range(1, noise.shape[1]):
        direction = persistence * direction + noise[:, t]
        r = np.sqrt((pos * pos).sum(axis=1, keepdims=True))
        outside = r > radius
        pull = 0.9 * (r - radius + 1000.0) / 1000.0 * pos / np.maximum(r, 1e-9)
        direction = np.where(outside, direction - pull, direction)
        direction /= np.sqrt((direction * direction).sum(axis=1, keepdims=True))
        pos = pos + STEP_MA * direction
        out[:, t] = pos
    coords = np.rint(out).astype(np.int64)
    return [coords[k, :n] for k, n in enumerate(lengths)]


def contact_pairs(coords_ma: np.ndarray) -> list[tuple[int, int]]:
    """All (i, j), i < j, with exact CA distance <= 8 A (brute force, integers)."""
    # Integer milli-Angstrom values and their squared distances (< 2^53)
    # are exact in float64, which is faster than int64 here.
    c = coords_ma.astype(np.float64)
    d2 = np.zeros((len(c), len(c)))
    for axis in range(3):
        diff = c[:, None, axis] - c[None, :, axis]
        d2 += diff * diff
    iu, ju = np.nonzero(np.triu(d2 <= THRESHOLD_MA2, k=1))
    return list(zip(iu.tolist(), ju.tolist()))


def pairs_text(pairs) -> str:
    return ",".join(f"{i}-{j}" for i, j in pairs)


def random_sequence(rng: np.random.Generator, n: int) -> str:
    return "".join(rng.choice(list(ALPHABET), size=n))


# --- in-memory entries for the training workloads ---------------------------

@dataclass
class ChainSample:
    entry_id: str
    sequence: str
    pairs: list[tuple[int, int]]
    label: int


@dataclass
class TrainLongInputs:
    train: list[ChainSample]
    val: list[ChainSample]
    test: list[ChainSample]
    n_classes: int


def train_long_inputs(seed: int, n_train: int, n_val: int, n_test: int,
                      n_families: int, median: float = 120.0,
                      sigma: float = 0.75) -> TrainLongInputs:
    """Protein-like chains with Zipf-sized families; labels are the family.

    Lengths are fixed per position (stratified log-normal quantiles in a
    fixed interleaved order), so batch shapes are the same for every
    seed. Family assignment, folds and sequences come from the seed.
    """
    rng = np.random.default_rng([seed, 11])
    splits = {}
    for name, n in (("train", n_train), ("val", n_val), ("test", n_test)):
        lengths = lognormal_lengths(n, median, sigma, 30, 500)
        lengths = lengths[np.random.default_rng(n).permutation(n)]
        labels = np.repeat(np.arange(n_families), zipf_sizes(n, n_families))
        labels = labels[rng.permutation(n)]
        walks = ca_walks(rng, lengths, labels)
        splits[name] = [
            ChainSample(f"long-{name}-{k:04d}", random_sequence(rng, int(length)),
                        contact_pairs(coords), int(label))
            for k, (length, label, coords) in enumerate(zip(lengths, labels, walks))
        ]
    return TrainLongInputs(splits["train"], splits["val"], splits["test"], n_families)


# --- PDB corpus for prep -------------------------------------

@dataclass
class RowExpectation:
    """What prep must make of one index row."""

    entry_id: str
    superfamily: str
    reject: str | None = None  # planted reason code, None = accepted
    sequence: str = ""
    pairs: str = ""            # contact pairs as "i-j,..." (one string: no GC load)


@dataclass
class Corpus:
    index_path: Path
    pdb_dir: Path
    rows: list[RowExpectation]

    def planted(self) -> dict[str, int]:
        counts = {code: 0 for code in REJECT_CODES}
        for r in self.rows:
            if r.reject is not None:
                counts[r.reject] += 1
        return counts


def _atom(serial: int, res_name: str, chain: str, seq_id: int, xyz, altloc: str = " ",
          record: str = "ATOM  ", atom: str = " CA ") -> str:
    x, y, z = xyz[0] / 1000.0, xyz[1] / 1000.0, xyz[2] / 1000.0
    return (f"{record}{serial % 100000:5d} {atom}{altloc}{res_name:>3s} {chain}{seq_id:4d}"
            f"    {x:8.3f}{y:8.3f}{z:8.3f}  1.00  0.00           C")


def _chain_lines(chain: str, names: list[str], coords, first_id: int,
                 altlocs: bool, skip: int | None = None, bad_coord: int | None = None):
    """ATOM lines of one chain, with optional altloc B copies, a gap or a bad field."""
    lines = []
    for k, (name, xyz) in enumerate(zip(names, coords.tolist())):
        if k == skip:
            continue
        seq_id = first_id + k
        altloc = "A" if altlocs and k % 5 == 2 else " "
        line = _atom(len(lines) + 1, name, chain, seq_id, xyz, altloc=altloc)
        if k == bad_coord:
            line = line[:30] + "   1.2.3" + line[38:]
        lines.append(line)
        if altloc == "A":
            lines.append(_atom(len(lines) + 1, name, chain, seq_id,
                               [v + 600 for v in xyz], altloc="B"))
    return lines


def write_corpus(out_dir: Path, seed: int, n_rows: int, n_superfamilies: int,
                 rejects_per_code: int,
                 lengths: tuple[float, float, int, int] = (120.0, 0.75, 30, 500)) -> Corpus:
    """Write index.tsv and pdbs/ under out_dir; return the expected outcomes.

    Row lengths are the stratified quantiles of a log-normal given as
    (median, sigma, min, max).

    Files hold one to three chains. About a third carry altloc A/B
    duplicates, a quarter a second MODEL, and a quarter HETATM waters
    plus a calcium ion named CA. A third of the rows take an inner
    residue range of a longer chain. The planted rejects are single-chain
    files: a missing file, an unparseable coordinate, a numbering gap
    and an MSE residue.
    """
    rng = np.random.default_rng([seed, 23])
    pdb_dir = out_dir / "pdbs"
    pdb_dir.mkdir(parents=True, exist_ok=True)
    lengths = lognormal_lengths(n_rows, *lengths)[rng.permutation(n_rows)]
    sf_of_row = np.repeat(np.arange(n_superfamilies), zipf_sizes(n_rows, n_superfamilies))
    sf_of_row = sf_of_row[rng.permutation(n_rows)]

    planted = [code for code in REJECT_CODES for _ in range(rejects_per_code)]
    reject_at = dict(zip(rng.choice(n_rows, size=len(planted), replace=False).tolist(), planted))

    # First pass: lay out files, chains and rows. Second: draw every walk
    # at once. Third: write the text.
    files = []   # (stem, altlocs, models, hetatm, [chain spec, ...])
    k = 0
    while k < n_rows:
        n_chains = 1 if k in reject_at else int(rng.choice([1, 1, 2, 3]))
        n_chains = min(n_chains, n_rows - k)
        if any(k + c in reject_at for c in range(1, n_chains)):
            n_chains = 1
        flags = rng.random(3)
        specs = []
        for c in range(n_chains):
            ranged = bool(rng.random() < 0.33)
            left, right = rng.integers(1, 15, size=2).tolist() if ranged else (0, 0)
            specs.append((k + c, "ABC"[c], left, int(lengths[k + c]), right,
                          int(rng.integers(1, 200)), ranged))
        files.append((f"f{len(files):05d}", flags[0] < 0.33, flags[1] < 0.25,
                      flags[2] < 0.25, specs))
        k += n_chains

    # Chains of multi-model files get a second, independent walk.
    walk_specs = [(spec, second) for _, _, models, _, specs in files
                  for second in ((False, True) if models else (False,)) for spec in specs]
    walks = dict(zip(
        ((spec[0], second) for spec, second in walk_specs),
        ca_walks(rng, [s[2] + s[3] + s[4] for s, _ in walk_specs],
                 [int(sf_of_row[s[0]]) for s, _ in walk_specs]),
    ))

    rows: list[RowExpectation] = []
    index_lines: list[str] = []
    for stem, altlocs, models, hetatm, specs in files:
        model_lines: list[str] = []
        second_model: list[str] = []
        for row_no, chain, left, n, right, first_id, ranged in specs:
            sf = f"sf{int(sf_of_row[row_no]):03d}"
            coords = walks[(row_no, False)]
            seq = random_sequence(rng, left + n + right)
            names = [AA1_TO_3[a] for a in seq]
            start, end = first_id + left, first_id + left + n - 1
            reject = reject_at.get(row_no)
            skip = bad = None
            if reject == "INCOMPLETE":
                skip = left + n // 2
            elif reject == "MALFORMED":
                bad = left + n // 3
            elif reject == "NONSTANDARD":
                names[left + n // 2] = "MSE"
            model_lines += _chain_lines(chain, names, coords, first_id, altlocs,
                                        skip=skip, bad_coord=bad) + ["TER"]
            if models:
                second_model += _chain_lines(chain, names, walks[(row_no, True)],
                                             first_id, False) + ["TER"]
            entry_id = f"{stem}{chain}"
            if ranged:
                entry_id += f"_{start}-{end}"
                range_cols = f"{start}\t{end}"
            else:
                range_cols = "-\t-" if rng.random() < 0.5 else f"{start}\t{end}"
            index_lines.append(f"{entry_id}\t{stem}.pdb\t{chain}\t{range_cols}\t{sf}")
            exp = RowExpectation(entry_id, sf, reject)
            if reject is None:
                exp.sequence = seq[left:left + n]
                exp.pairs = pairs_text(contact_pairs(coords[left:left + n]))
            rows.append(exp)
        if reject_at.get(specs[0][0]) == "NOT_FOUND":
            continue
        lines = ["HEADER    BENCHMARK CORPUS"]
        if models:
            lines += ["MODEL        1", *model_lines, "ENDMDL",
                      "MODEL        2", *second_model, "ENDMDL"]
        else:
            lines += model_lines
        if hetatm:
            lines.append(_atom(90001, "HOH", "A", 901, (10000, 10000, 10000),
                               record="HETATM", atom=" O  "))
            lines.append(_atom(90002, " CA", "A", 902, (-5000, 2000, 7000),
                               record="HETATM", atom="CA  "))
        lines.append("END")
        (pdb_dir / f"{stem}.pdb").write_text("\n".join(lines) + "\n", encoding="utf-8")

    index_path = out_dir / "index.tsv"
    index_path.write_text("\n".join(index_lines) + "\n", encoding="utf-8")
    return Corpus(index_path, pdb_dir, rows)
