"""Fixed-column PDB parsing for one chain slice of CA atoms.

Only ATOM records are read (HETATM is ignored), only the first model of a
multi-model file, and only alternate locations ' ' or 'A'. The parser
returns either a ChainStructure satisfying its invariants or raises a
typed error; it never returns a partially valid structure. A chain is a
set of per-residue columns, all in file order: seq ids, insertion codes
and residue names as tuples, and the CA positions as one read-only
(N, 3) float64 array.

Column layout (1-based, per the PDB format):
    1-6 record name, 13-16 atom name, 17 altloc, 18-20 residue name,
    22 chain id, 23-26 residue number, 27 insertion code,
    31-38 / 39-46 / 47-54 x / y / z.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

# 3-letter -> 1-letter codes of the 20 standard amino acids.
AA3_TO_1 = {
    "ALA": "A", "ARG": "R", "ASN": "N", "ASP": "D", "CYS": "C",
    "GLN": "Q", "GLU": "E", "GLY": "G", "HIS": "H", "ILE": "I",
    "LEU": "L", "LYS": "K", "MET": "M", "PHE": "F", "PRO": "P",
    "SER": "S", "THR": "T", "TRP": "W", "TYR": "Y", "VAL": "V",
}
AA1_TO_3 = {v: k for k, v in AA3_TO_1.items()}


class PdbParseError(ValueError):
    """Base class for structure-parsing failures."""


class EmptyInput(PdbParseError):
    """The input text is empty."""


class ChainNotFound(PdbParseError):
    """No usable CA record matches the requested chain (and range)."""


class MalformedLine(PdbParseError):
    """A matched ATOM line has unparseable or non-finite fields."""


class NonstandardResidue(PdbParseError):
    """A residue name is outside the 20 standard amino acids."""


@dataclass(frozen=True, eq=False)
class ChainStructure:
    """One chain slice as per-residue columns, in file order.

    `residues` holds the 3-letter names as parsed (e.g. "ALA" or "MSE"), so
    len(chain.residues) is the residue count; `insertion_codes` holds one
    character per residue, " " when absent. `ca` is the (N, 3) float64 array
    of CA positions and is read-only. `==` is identity: compare the columns.
    """

    chain_id: str
    seq_ids: tuple[int, ...]
    insertion_codes: tuple[str, ...]
    residues: tuple[str, ...]
    ca: np.ndarray


@dataclass(frozen=True)
class CompletenessReport:
    """Gaps and nonstandard residues: prep rejects an entry for each under its own reason code."""

    n_gaps: int
    nonstandard_residues: tuple[str, ...]


@functools.lru_cache(maxsize=1)  # the rows naming one file share its scan
def _ca_lines(pdb_text: str) -> dict[str, list[tuple[str, str]]]:
    """First-model ATOM CA lines with altloc ' ' or 'A', as (raw, padded to 54
    columns), by chain id in file order. Shared between calls: do not modify."""
    if not pdb_text.strip():
        raise EmptyInput("empty PDB text")
    by_chain: dict[str, list[tuple[str, str]]] = {}
    for raw in pdb_text.splitlines():
        if raw[0:6] == "ENDMDL":
            break
        if raw[12:16].strip() != "CA" or raw[0:6].strip() != "ATOM":
            continue
        line = raw.ljust(54)
        if line[16] in (" ", "A"):
            by_chain.setdefault(line[21], []).append((raw, line))
    return by_chain


def parse_structure(
    pdb_text: str,
    chain_id: str,
    residue_range: tuple[int, int] | None = None,
) -> ChainStructure:
    """Extract the CA trace of one chain from fixed-column PDB text.

    Args:
        pdb_text: contents of a PDB-format file.
        chain_id: single-character chain identifier.
        residue_range: optional inclusive (start, end) filter on the author
            residue number (insertion codes are not part of the comparison).

    Returns:
        ChainStructure with residues exactly in file order. Reading stops at
        the first ENDMDL record, so multi-model files contribute only their
        first model. Duplicate (seq_id, insertion_code) keeps the first
        occurrence.

    Raises:
        EmptyInput: pdb_text is empty or whitespace.
        ValueError: chain_id is not one character.
        ChainNotFound: no ATOM/CA record matches chain_id (and range).
        MalformedLine: a matched ATOM line has unparseable residue number
            or coordinates, or a non-finite coordinate.
    """
    by_chain = _ca_lines(pdb_text)
    if len(chain_id) != 1:
        raise ValueError(f"chain_id must be one character, got {chain_id!r}")

    seq_ids, icodes, names, xyz = [], [], [], []  # the columns; xyz flat
    seen: set[tuple[int, str]] = set()
    for raw, line in by_chain.get(chain_id, ()):
        try:
            seq_id = int(line[22:26])
        except ValueError as exc:
            raise MalformedLine(f"unparseable residue number: {raw!r}") from exc
        if residue_range is not None:
            start, end = residue_range
            if not (start <= seq_id <= end):
                continue
        try:
            x = float(line[30:38])
            y = float(line[38:46])
            z = float(line[46:54])
        except ValueError as exc:
            raise MalformedLine(f"unparseable coordinates: {raw!r}") from exc
        if not (math.isfinite(x) and math.isfinite(y) and math.isfinite(z)):
            raise MalformedLine(f"non-finite coordinates: {raw!r}")
        icode = line[26]
        key = (seq_id, icode)
        if key in seen:
            continue
        seen.add(key)
        seq_ids.append(seq_id)
        icodes.append(icode)
        names.append(line[17:20].strip())
        xyz += (x, y, z)

    if not seq_ids:
        where = f"chain {chain_id!r}"
        if residue_range is not None:
            where += f" in range {residue_range}"
        raise ChainNotFound(f"no CA ATOM record matches {where}")
    ca = np.array(xyz, dtype=np.float64).reshape(-1, 3)
    ca.setflags(write=False)
    return ChainStructure(chain_id, tuple(seq_ids), tuple(icodes), tuple(names), ca)


def _nonstandard(chain: ChainStructure) -> tuple[str, ...]:
    """Sorted distinct residue names outside the 20 standard amino acids."""
    return tuple(sorted(set(chain.residues).difference(AA3_TO_1)))


def residues_to_sequence(chain: ChainStructure) -> str:
    """1-letter sequence in residue order.

    Raises NonstandardResidue if any residue is outside the standard 20;
    such entries are rejected rather than silently remapped.
    """
    bad = _nonstandard(chain)
    if bad:
        raise NonstandardResidue(
            f"chain {chain.chain_id!r} contains nonstandard residues: {', '.join(bad)}"
        )
    return "".join(map(AA3_TO_1.__getitem__, chain.residues))


def check_completeness(
    chain: ChainStructure,
    residue_range: tuple[int, int] | None = None,
) -> CompletenessReport:
    """Report-only quality check: gaps and nonstandard residues.

    A gap is counted whenever the next residue's seq_id exceeds the
    previous one by more than 1 (insertion-coded residues share a seq_id
    and therefore never introduce gaps). If residue_range is given, a
    missing endpoint counts as one gap per missing side.
    """
    ids = chain.seq_ids
    n_gaps = 0
    for prev, nxt in zip(ids, ids[1:]):
        if nxt > prev + 1:
            n_gaps += 1
    if residue_range is not None and ids:
        start, end = residue_range
        if ids[0] > start:
            n_gaps += 1
        if ids[-1] < end:
            n_gaps += 1
    return CompletenessReport(n_gaps, _nonstandard(chain))

