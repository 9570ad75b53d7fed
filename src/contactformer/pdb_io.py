"""Fixed-column PDB parsing for one chain slice of CA atoms.

Only ATOM records are read (HETATM is ignored), only the first model of a
multi-model file, and only alternate locations ' ' or 'A'. The parser
returns either a ChainStructure satisfying its invariants or raises a
typed error; it never returns a partially valid structure.

Column layout (1-based, per the PDB format):
    1-6 record name, 13-16 atom name, 17 altloc, 18-20 residue name,
    22 chain id, 23-26 residue number, 27 insertion code,
    31-38 / 39-46 / 47-54 x / y / z.
"""

from __future__ import annotations

from dataclasses import dataclass, field

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


@dataclass(frozen=True)
class Residue:
    """One residue observed through its CA atom."""

    seq_id: int
    insertion_code: str  # single character, " " when absent
    res_name: str        # 3-letter code as parsed, e.g. "ALA" or "MSE"
    ca_position: tuple[float, float, float]


@dataclass(frozen=True)
class ChainStructure:
    """Ordered residues of one chain slice, in file order."""

    pdb_id: str
    chain_id: str
    residues: tuple[Residue, ...]

    def __len__(self) -> int:
        return len(self.residues)

    def ca_coordinates(self) -> np.ndarray:
        """(N, 3) float64 array of CA positions in residue order."""
        return np.array([r.ca_position for r in self.residues], dtype=np.float64)


@dataclass(frozen=True)
class CompletenessReport:
    """Quality summary used to accept or reject an entry."""

    n_residues: int
    n_gaps: int
    nonstandard_residues: tuple[str, ...] = field(default_factory=tuple)

    @property
    def passed(self) -> bool:
        return self.n_gaps == 0 and not self.nonstandard_residues


def parse_structure(
    pdb_text: str,
    chain_id: str,
    residue_range: tuple[int, int] | None = None,
    pdb_id: str = "",
) -> ChainStructure:
    """Extract the CA trace of one chain from fixed-column PDB text.

    Args:
        pdb_text: contents of a PDB-format file.
        chain_id: single-character chain identifier.
        residue_range: optional inclusive (start, end) filter on the author
            residue number (insertion codes are not part of the comparison).
        pdb_id: identifier stored on the result; not used for matching.

    Returns:
        ChainStructure with residues exactly in file order. Reading stops at
        the first ENDMDL record, so multi-model files contribute only their
        first model. Duplicate (seq_id, insertion_code) keeps the first
        occurrence.

    Raises:
        EmptyInput: pdb_text is empty or whitespace.
        ChainNotFound: no ATOM/CA record matches chain_id (and range).
        MalformedLine: a matched ATOM line has unparseable residue number
            or coordinates, or a non-finite coordinate.
    """
    if not pdb_text.strip():
        raise EmptyInput("empty PDB text")
    if len(chain_id) != 1:
        raise ValueError(f"chain_id must be one character, got {chain_id!r}")

    residues: list[Residue] = []
    seen: set[tuple[int, str]] = set()
    for raw in pdb_text.splitlines():
        record = raw[0:6].strip()
        if record == "ENDMDL":
            break
        if record != "ATOM":
            continue
        line = raw.ljust(54)
        if line[12:16].strip() != "CA":
            continue
        if line[16] not in (" ", "A"):
            continue
        if line[21] != chain_id:
            continue
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
        if not all(np.isfinite(v) for v in (x, y, z)):
            raise MalformedLine(f"non-finite coordinates: {raw!r}")
        icode = line[26]
        key = (seq_id, icode)
        if key in seen:
            continue
        seen.add(key)
        residues.append(Residue(seq_id, icode, line[17:20].strip(), (x, y, z)))

    if not residues:
        where = f"chain {chain_id!r}"
        if residue_range is not None:
            where += f" in range {residue_range}"
        raise ChainNotFound(f"no CA ATOM record matches {where}")
    return ChainStructure(pdb_id, chain_id, tuple(residues))


def _nonstandard(chain: ChainStructure) -> tuple[str, ...]:
    """Sorted distinct residue names outside the 20 standard amino acids."""
    return tuple(sorted({r.res_name for r in chain.residues if r.res_name not in AA3_TO_1}))


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
    return "".join(AA3_TO_1[r.res_name] for r in chain.residues)


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
    n_gaps = 0
    for prev, nxt in zip(chain.residues, chain.residues[1:]):
        if nxt.seq_id > prev.seq_id + 1:
            n_gaps += 1
    if residue_range is not None and chain.residues:
        start, end = residue_range
        if chain.residues[0].seq_id > start:
            n_gaps += 1
        if chain.residues[-1].seq_id < end:
            n_gaps += 1
    return CompletenessReport(len(chain.residues), n_gaps, _nonstandard(chain))


def chain_to_pdb_text(chain: ChainStructure) -> str:
    """Serialize a ChainStructure back to ATOM lines (round-trip inverse)."""
    lines = []
    for serial, r in enumerate(chain.residues, start=1):
        x, y, z = r.ca_position
        lines.append(
            f"ATOM  {serial:5d}  CA  {r.res_name:>3s} {chain.chain_id}"
            f"{r.seq_id:4d}{r.insertion_code}   {x:8.3f}{y:8.3f}{z:8.3f}"
            f"{1.0:6.2f}{0.0:6.2f}           C"
        )
    lines.append("END")
    return "\n".join(lines) + "\n"
