import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from contactformer.contacts import (
    ContactMap,
    FormatError,
    IndexOutOfRange,
    NonFiniteCoordinate,
    build_contact_map,
    deserialize_contacts,
    serialize_contacts,
)

from conftest import random_rotation


def brute_force_pairs(positions, threshold):
    """Independent O(N^2) oracle: explicit per-pair distance loop."""
    pos = np.asarray(positions, dtype=float)
    pairs = []
    for i in range(len(pos)):
        for j in range(i + 1, len(pos)):
            d = float(np.sqrt(((pos[i] - pos[j]) ** 2).sum()))
            if d <= threshold:
                pairs.append((i, j))
    return tuple(pairs)


class TestBuildContactMap:
    def test_close_pair_is_contact(self):
        cmap = build_contact_map([(0, 0, 0), (5, 0, 0)])
        assert (0, 1) in cmap.pairs

    def test_far_pair_is_not_contact(self):
        cmap = build_contact_map([(0, 0, 0), (8.1, 0, 0)])
        assert cmap.pairs == ()

    def test_boundary_distance_counts_as_contact(self):
        cmap = build_contact_map([(0, 0, 0), (8.0, 0, 0)])
        assert (0, 1) in cmap.pairs

    def test_matches_brute_force_oracle(self):
        rng = np.random.default_rng(42)
        pos = rng.uniform(0, 30, size=(20, 3))
        cmap = build_contact_map(pos)
        assert cmap.pairs == brute_force_pairs(pos, 8.0)

    def test_dense_is_symmetric_with_unit_diagonal(self):
        rng = np.random.default_rng(3)
        mat = build_contact_map(rng.uniform(0, 25, size=(15, 3))).dense()
        assert np.array_equal(mat, mat.T)
        assert mat.diagonal().all()

    def test_rigid_motion_invariance(self):
        rng = np.random.default_rng(11)
        pos = rng.uniform(0, 30, size=(18, 3))
        ref = build_contact_map(pos)
        for _ in range(10):
            rot = random_rotation(rng)
            shift = rng.uniform(-50, 50, size=3)
            assert build_contact_map(pos @ rot.T + shift) == ref

    def test_threshold_monotonicity(self):
        rng = np.random.default_rng(5)
        pos = rng.uniform(0, 30, size=(25, 3))
        small = set(build_contact_map(pos, threshold=6.0).pairs)
        large = set(build_contact_map(pos, threshold=9.0).pairs)
        assert small <= large

    def test_rejects_non_finite(self):
        with pytest.raises(NonFiniteCoordinate):
            build_contact_map([(0, 0, 0), (np.nan, 0, 0)])

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            build_contact_map(np.zeros((0, 3)))

    def test_single_point(self):
        cmap = build_contact_map([(1.0, 2.0, 3.0)])
        assert cmap.n == 1 and cmap.pairs == ()


class TestSerialization:
    def test_format_example(self):
        assert serialize_contacts(ContactMap(3, ((0, 1),))) == "n=3\n0 1\n"

    def test_index_out_of_range(self):
        with pytest.raises(IndexOutOfRange):
            deserialize_contacts("n=2\n0 5\n")

    @pytest.mark.parametrize("text", [
        "", "0 1\n", "n=x\n", "n=3\n0\n", "n=3\na b\n",
        "n=3\n1 1\n", "n=3\n-1 2\n", "n=3\n0 2\n0 1\n", "n=0\n",
    ])
    def test_malformed_text(self, text):
        with pytest.raises(FormatError):
            deserialize_contacts(text)

    @given(
        n=st.integers(min_value=1, max_value=12),
        data=st.data(),
    )
    @settings(max_examples=200, deadline=None)
    def test_round_trip_random_sparse_maps(self, n, data):
        all_pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
        chosen = data.draw(st.lists(st.sampled_from(all_pairs), unique=True)
                           if all_pairs else st.just([]))
        cmap = ContactMap(n, tuple(sorted(chosen)))
        assert deserialize_contacts(serialize_contacts(cmap)) == cmap


class TestContactMapType:
    def test_rejects_bad_pairs(self):
        with pytest.raises(ValueError):
            ContactMap(3, ((1, 1),))
        with pytest.raises(ValueError):
            ContactMap(3, ((0, 3),))

    def test_truncated_drops_out_of_window_pairs(self):
        cmap = ContactMap(5, ((0, 1), (1, 4), (2, 3)))
        cut = cmap.truncated(4)
        assert cut.n == 4 and cut.pairs == ((0, 1), (2, 3))
        assert cmap.truncated(5) is cmap


class TestContactMapArray:
    @given(n=st.integers(min_value=1, max_value=12), data=st.data())
    @settings(max_examples=200, deadline=None)
    def test_canonical_int32_read_only(self, n, data):
        all_pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
        chosen = data.draw(st.lists(st.sampled_from(all_pairs), max_size=2 * len(all_pairs))
                           if all_pairs else st.just([]))
        cmap = ContactMap(n, chosen)
        assert cmap.ij.dtype == np.int32 and cmap.ij.shape == (len(set(chosen)), 2)
        assert not cmap.ij.flags.writeable
        assert cmap.pairs == tuple(sorted(set(chosen)))
        mat = cmap.dense()
        assert np.array_equal(mat, mat.T) and mat.diagonal().all()
        assert int(np.triu(mat, 1).sum()) == len(set(chosen))
        assert ContactMap(n, list(reversed(chosen))) == cmap
        assert hash(ContactMap(n, list(reversed(chosen)))) == hash(cmap)

    def test_accepts_any_sequence_of_pairs(self):
        ref = ContactMap(4, ((0, 1), (2, 3)))
        assert ContactMap(4, [np.array([0, 1]), np.array([2, 3])]) == ref
        assert ContactMap(4, np.array([[2, 3], [0, 1]], dtype=np.int64)) == ref
        assert ContactMap(4, [(2, 3), (0, 1), (2, 3)]) == ref
        assert ContactMap(4) == ContactMap(4, ()) == ContactMap(4, np.empty((0, 2)))
        assert ContactMap(4) != ref and ContactMap(5, ref.ij) != ref
        assert ref.pairs == ((0, 1), (2, 3)) and not ContactMap(4).pairs
        assert all(type(v) is int for pair in ref.pairs for v in pair)

    def test_rejects_non_pairs(self):
        for pairs in ([(0, 1, 2)], [0, 1], [(0.0, 1.0)], [("0", "1")]):
            with pytest.raises(ValueError):
                ContactMap(3, pairs)
        with pytest.raises(ValueError):
            ContactMap(2**31 + 1)

    def test_stored_array_frozen_caller_array_not(self):
        src = np.array([[0, 1], [1, 2]], dtype=np.int32)
        cmap = ContactMap(3, src)
        src[0, 1] = 2  # the caller's array stays writable and is not shared
        assert cmap.pairs == ((0, 1), (1, 2))
        with pytest.raises(ValueError):
            cmap.ij[0, 0] = 1


def old_deserialize_contacts(text):
    """The line-by-line parser that vectorized deserialize_contacts replaced,
    kept as the oracle for its accepted inputs and its error classes."""
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines or not lines[0].startswith("n="):
        raise FormatError("missing 'n=<N>' header line")
    try:
        n = int(lines[0][2:])
    except ValueError as exc:
        raise FormatError(f"bad header {lines[0]!r}") from exc
    if n < 1:
        raise FormatError(f"n must be >= 1, got {n}")
    pairs = []
    prev = None
    for ln in lines[1:]:
        toks = ln.split()
        if len(toks) != 2:
            raise FormatError(f"expected 'i j', got {ln!r}")
        try:
            i, j = int(toks[0]), int(toks[1])
        except ValueError as exc:
            raise FormatError(f"non-integer pair {ln!r}") from exc
        if i < 0 or j < 0 or i >= j:
            raise FormatError(f"pair must satisfy 0 <= i < j, got ({i}, {j})")
        if j >= n:
            raise IndexOutOfRange(f"pair ({i}, {j}) out of range for n={n}")
        if prev is not None and (i, j) <= prev:
            raise FormatError(f"pairs not strictly ascending at ({i}, {j})")
        prev = (i, j)
        pairs.append((i, j))
    return ContactMap(n, tuple(pairs))


def outcome(parse, text):
    """The parsed value, or the class of the ValueError it raised."""
    try:
        return parse(text)
    except ValueError as exc:
        return type(exc)


def mutate(text, data, separators, n, pieces):
    """Apply a few drawn edits: drop or double a separator, insert one of
    `pieces`, swap two lines, or replace a number by one in [0, n + 3]."""
    for _ in range(data.draw(st.integers(0, 3))):
        kind = data.draw(st.sampled_from(["drop", "double", "insert", "swap", "number"]))
        seps = [k for k, ch in enumerate(text) if ch in separators]
        if kind in ("drop", "double") and seps:
            k = data.draw(st.sampled_from(seps))
            text = text[:k] + (text[k] * 2 if kind == "double" else "") + text[k + 1:]
        elif kind == "insert":
            k = data.draw(st.integers(0, len(text)))
            piece = data.draw(st.sampled_from(pieces))
            text = text[:k] + piece + text[k:]
        elif kind == "swap":
            lines = text.split("\n")
            a, b = (data.draw(st.integers(0, len(lines) - 1)) for _ in range(2))
            lines[a], lines[b] = lines[b], lines[a]
            text = "\n".join(lines)
        elif kind == "number":
            spans = [m.span() for m in re.finditer(r"[0-9]+", text)]
            a, b = data.draw(st.sampled_from(spans))
            text = text[:a] + str(data.draw(st.integers(0, n + 3))) + text[b:]
    return text


class TestDeserializeOracle:
    @given(n=st.integers(min_value=1, max_value=12), data=st.data())
    @settings(max_examples=600, deadline=None)
    def test_same_map_or_same_error_as_line_parser(self, n, data):
        all_pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
        chosen = data.draw(st.lists(st.sampled_from(all_pairs), unique=True, max_size=8)
                           if all_pairs else st.just([]))
        text = mutate(serialize_contacts(ContactMap(n, chosen)), data, " \n", n,
                      ["-", "+", "7", " 3", "-2", "\n", "x", " ", "\t", "\r\n"])
        assert outcome(deserialize_contacts, text) == outcome(old_deserialize_contacts, text)

    @pytest.mark.parametrize("text", [
        "n=3\n0 1\n\n1 2\n", "\n \nn=3\n", "n=3 \n 0  1 \r\n1\t2", "n=9\n007 8\n",
    ])
    def test_blank_lines_and_blanks_accepted(self, text):
        assert deserialize_contacts(text) == old_deserialize_contacts(text)

    @pytest.mark.parametrize("text,error", [
        ("n=2\n0 5\n0 x\n", IndexOutOfRange),  # the first bad line decides
        ("n=2\n0 x\n0 5\n", FormatError),
        ("n=3\n1 2\n0 7\n", IndexOutOfRange),  # range is checked before order
        ("n=3\n1 2\n0 1\n", FormatError),
        ("n=3\n-0 1\n-1 2\n", FormatError),
        ("n=3\n0 1 2\n", FormatError),
        ("n=3\n0-1\n", FormatError),
    ])
    def test_error_class_follows_first_bad_line(self, text, error):
        with pytest.raises(error):
            deserialize_contacts(text)
        with pytest.raises(error):
            old_deserialize_contacts(text)
