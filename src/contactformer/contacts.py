"""CA-CA contact maps: construction from coordinates and a sparse text format.

A contact map is an N x N symmetric boolean matrix with a unit diagonal:
entry (i, j) is true iff the Euclidean distance between CA atoms i and j
is at most the threshold (8.0 A by default, boundary inclusive). Since
only pairwise distances enter, the map is invariant under rigid motions
of the coordinates.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

import numpy as np

DEFAULT_THRESHOLD = 8.0


class NonFiniteCoordinate(ValueError):
    """A coordinate is NaN or infinite."""


class FormatError(ValueError):
    """Serialized contact text does not follow the expected format."""


class IndexOutOfRange(ValueError):
    """A serialized contact pair refers to an index >= n."""


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

    def truncated(self, n: int) -> "ContactMap":
        """Leading n x n square of the map (for sequence truncation)."""
        if n >= self.n:
            return self
        return ContactMap(n, self.ij[self.ij[:, 1] < n])


def build_contact_map(positions, threshold: float = DEFAULT_THRESHOLD) -> ContactMap:
    """Threshold the pairwise CA-CA distances of one conformation.

    Args:
        positions: (N, 3) array-like of coordinates in Angstrom.
        threshold: contact distance in Angstrom; a pair at exactly the
            threshold counts as a contact.

    Raises:
        NonFiniteCoordinate: if any coordinate is NaN or infinite.
        ValueError: if positions is empty or not 3-dimensional.
    """
    pos = np.asarray(positions, dtype=np.float64)
    if pos.size == 0:
        raise ValueError("positions must be non-empty")
    if pos.ndim != 2 or pos.shape[1] != 3:
        raise ValueError(f"positions must be (N, 3), got {pos.shape}")
    if not np.all(np.isfinite(pos)):
        raise NonFiniteCoordinate("positions contain non-finite coordinates")

    # Compare squared distances: exact at the boundary, no sqrt noise.
    diff = pos[:, None, :] - pos[None, :, :]
    d2 = np.einsum("ijk,ijk->ij", diff, diff)
    close = d2 <= threshold * threshold
    return ContactMap(pos.shape[0], np.argwhere(np.triu(close, 1)))


def serialize_contacts(cmap: ContactMap) -> str:
    """Text form: "n=<N>" then one "i j" line per pair, i < j, ascending."""
    return f"n={cmap.n}\n" + "%d %d\n" * len(cmap.ij) % tuple(cmap.ij.ravel().tolist())


# Lines as serialize_contacts writes them, then lines of two integers of at
# most 18 ASCII digits (so int64 holds them) between blanks, or blank lines.
_CANONICAL_LINES = re.compile(r"(?:[0-9]{1,18} [0-9]{1,18}\n)*")
_PAIR_LINES = re.compile(r"(?:[ \t]*(?:[-+]?[0-9]{1,18}[ \t]+[-+]?[0-9]{1,18}[ \t]*)?\n)*")


def deserialize_contacts(text: str) -> ContactMap:
    """Inverse of :func:`serialize_contacts`; blank lines and extra blanks are allowed.

    Raises:
        FormatError: malformed header, n > 2**31, a line that is not two
            integers, a negative index, pairs with i >= j, or out-of-order pairs.
        IndexOutOfRange: a pair index >= n.
    """
    head, body = "", text.replace("\r", "\n")  # "\r" and "\r\n" end lines too
    while not head.strip() and body:  # blank lines before the header are skipped
        head, _, body = body.partition("\n")
    if not head.startswith("n="):
        raise FormatError("missing 'n=<N>' header line")
    try:
        n = int(head[2:])
    except ValueError as exc:
        raise FormatError(f"bad header {head!r}") from exc
    if not 1 <= n <= 2**31:
        raise FormatError(f"n must be in [1, 2**31], got {n}")

    body += "\n"  # ends a last line that lacks one; a blank line is harmless
    end = _PAIR_LINES.match(body, _CANONICAL_LINES.match(body).end()).end()
    prefix = body[:end].strip()  # numpy parses blanks alone as one 0
    ij = np.fromstring(prefix, dtype=np.int64, sep=" ").reshape(-1, 2)
    i, j = ij[:, 0], ij[:, 1]
    # The first bad pair decides the error, as for a line-by-line reader.
    # Its predecessor is valid, so comparing i * n + j orders the two.
    unordered, out_of_range = (i < 0) | (i >= j), j >= n
    bad = unordered | out_of_range | np.r_[False, np.diff(i * n + j) <= 0]
    if bad.any():
        k = int(np.argmax(bad))
        error = IndexOutOfRange if out_of_range[k] and not unordered[k] else FormatError
        raise error(f"pair ({i[k]}, {j[k]}) breaks 0 <= i < j < n={n} or ascending order")
    if end < len(body):
        line = body[end:].partition("\n")[0]
        raise FormatError(f"expected 'i j', got {line!r}")
    return ContactMap(n, ij)
