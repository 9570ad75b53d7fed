"""CA-CA contact maps: construction from coordinates and one text form.

A contact map is an N x N symmetric boolean matrix with a unit diagonal:
entry (i, j) is true iff the Euclidean distance between CA atoms i and j
is at most the threshold (8.0 A by default, boundary inclusive). Since
only pairwise distances enter, the map is invariant under rigid motions
of the coordinates. Its one text form is the pair field of processed.tsv,
comma-separated "i-j" pairs; the size N comes from the sequence beside it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

DEFAULT_THRESHOLD = 8.0


class NonFiniteCoordinate(ValueError):
    """A coordinate is NaN or infinite."""


@dataclass(frozen=True, eq=False)
class ContactMap:
    """Sparse symmetric boolean contact matrix.

    Only off-diagonal pairs (i, j) with i < j are stored, as a read-only int32
    (E, 2) array `ij`, ascending and without repeats; the unit diagonal and the
    symmetry are implicit. Takes any sequence of (i, j) integer pairs, in any order.
    """

    n: int
    ij: np.ndarray = ()

    def __post_init__(self):
        if not 1 <= self.n <= 2**31:  # every index i < n fits int32
            raise ValueError(f"contact map needs 1 <= n <= 2**31, got {self.n}")
        ij = np.asarray(self.ij) if len(self.ij) else np.empty((0, 2), dtype=np.int32)
        if ij.ndim != 2 or ij.shape[1] != 2 or ij.dtype.kind not in "iu":
            raise ValueError(f"contact pairs must be integer (i, j) pairs, got {ij.shape}")
        bad = (ij[:, 0] < 0) | (ij[:, 0] >= ij[:, 1]) | (ij[:, 1] >= self.n)
        if bad.any():
            i, j = ij[np.argmax(bad)]
            raise ValueError(f"bad contact pair ({i}, {j}) for n={self.n}")
        key = ij[:, 0].astype(np.int64) * self.n + ij[:, 1]
        if not (key[1:] > key[:-1]).all():
            ij = np.stack(np.divmod(np.unique(key), self.n), axis=1)
        ij = ij.astype(np.int32)  # a copy, so freezing it leaves the caller's array alone
        ij.setflags(write=False)
        object.__setattr__(self, "ij", ij)

    @property
    def pairs(self) -> tuple[tuple[int, int], ...]:
        """The pairs as a tuple of (i, j) int tuples (builds one object per pair)."""
        return tuple(map(tuple, self.ij.tolist()))

    def __eq__(self, other):
        return (isinstance(other, ContactMap) and self.n == other.n
                and np.array_equal(self.ij, other.ij))

    def __hash__(self):
        return hash((self.n, self.ij.tobytes()))

    def dense(self) -> np.ndarray:
        """Full boolean matrix including diagonal and symmetric entries."""
        mat = np.eye(self.n, dtype=bool)
        i, j = self.ij.T
        mat[i, j] = mat[j, i] = True
        return mat


def build_contact_map(positions, threshold: float = DEFAULT_THRESHOLD) -> ContactMap:
    """Threshold the pairwise CA-CA distances of one conformation.

    Args:
        positions: (N, 3) array-like of coordinates in Angstrom.
        threshold: contact distance in Angstrom, finite and positive; a pair
            at exactly the threshold counts as a contact.

    Raises:
        NonFiniteCoordinate: if any coordinate is NaN or infinite.
        ValueError: if positions is empty or not 3-dimensional, or the
            threshold is not in (0, inf).
    """
    if not 0 < threshold < np.inf:  # false for NaN too
        raise ValueError(f"threshold must be a finite positive distance, got {threshold!r}")
    pos = np.asarray(positions, dtype=np.float64)
    if pos.size == 0:
        raise ValueError("positions must be non-empty")
    if pos.ndim != 2 or pos.shape[1] != 3:
        raise ValueError(f"positions must be (N, 3), got {pos.shape}")
    if not np.all(np.isfinite(pos)):
        raise NonFiniteCoordinate("positions contain non-finite coordinates")

    # Compare squared distances, summed over x, y, z in that order in two
    # (N, N) buffers: exact at the boundary, no sqrt, no (N, N, 3) array.
    n = pos.shape[0]
    d2, axis = np.empty((2, n, n))
    np.square(np.subtract.outer(pos[:, 0], pos[:, 0], out=d2), out=d2)
    for c in pos.T[1:]:
        d2 += np.square(np.subtract.outer(c, c, out=axis), out=axis)
    # row-major flat indices: the pairs i < j come out ascending
    i, j = np.divmod(np.flatnonzero(d2 <= threshold * threshold), n)
    upper = i < j
    return ContactMap(n, np.stack((i[upper], j[upper]), axis=1))


def serialize_contacts(cmap: ContactMap) -> str:
    """The pair field of processed.tsv: comma-separated "i-j", ascending; "" without pairs."""
    return ("%d-%d," * len(cmap.ij))[:-1] % tuple(cmap.ij.ravel().tolist())


_DROP_DIGITS = str.maketrans("", "", "0123456789")


def deserialize_contacts(text: str, n: int) -> ContactMap:
    """Inverse of :func:`serialize_contacts` for a map of size n.

    Each comma-separated chunk is "i-j" of ASCII digits; empty chunks are
    skipped, pairs may come in any order and repeats are dropped. Raises
    ValueError for anything else, or a pair that breaks 0 <= i < j < n.
    """
    if ",," in text or text[:1] == "," or text[-1:] == ",":
        text = ",".join(filter(None, text.split(",")))
    k = text.count(",") + 1 if text else 0
    # digits and exactly one "-" per chunk, with digits on both sides of it
    if (text.translate(_DROP_DIGITS) != ("-," * k)[:-1] or "-," in text or ",-" in text
            or text[:1] == "-" or text[-1:] == "-"):
        raise ValueError("malformed contact pairs")
    ij = np.fromstring(text.replace("-", ","), dtype=np.int64, sep=",").reshape(-1, 2)
    return ContactMap(n, ij)
