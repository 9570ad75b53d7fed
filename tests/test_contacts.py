import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from contactformer.contacts import (
    ContactMap,
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
                pairs.append([i, j])
    return pairs


class TestBuildContactMap:
    def test_close_pair_is_contact(self):
        cmap = build_contact_map([(0, 0, 0), (5, 0, 0)])
        assert cmap.ij.tolist() == [[0, 1]]

    def test_far_pair_is_not_contact(self):
        cmap = build_contact_map([(0, 0, 0), (8.1, 0, 0)])
        assert cmap.ij.shape == (0, 2)

    def test_boundary_distance_counts_as_contact(self):
        cmap = build_contact_map([(0, 0, 0), (8.0, 0, 0)])
        assert cmap.ij.tolist() == [[0, 1]]

    def test_matches_brute_force_oracle(self):
        rng = np.random.default_rng(42)
        pos = rng.uniform(0, 30, size=(20, 3))
        cmap = build_contact_map(pos)
        assert cmap.ij.tolist() == brute_force_pairs(pos, 8.0)

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
        small = set(map(tuple, build_contact_map(pos, threshold=6.0).ij.tolist()))
        large = set(map(tuple, build_contact_map(pos, threshold=9.0).ij.tolist()))
        assert small <= large

    def test_rejects_non_finite(self):
        with pytest.raises(NonFiniteCoordinate):
            build_contact_map([(0, 0, 0), (np.nan, 0, 0)])

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            build_contact_map(np.zeros((0, 3)))

    def test_single_point(self):
        cmap = build_contact_map([(1.0, 2.0, 3.0)])
        assert cmap.n == 1 and cmap.ij.shape == (0, 2)

    @pytest.mark.parametrize("threshold", [-8.0, 0.0, np.nan, np.inf])
    def test_rejects_threshold_outside_zero_to_inf(self, threshold):
        with pytest.raises(ValueError, match="threshold"):
            build_contact_map([(0, 0, 0), (5, 0, 0)], threshold)


def previous_build_contact_map(positions, threshold):
    """build_contact_map's computation before it used two (N, N) buffers: the
    oracle for its pairs, bit for bit."""
    pos = np.asarray(positions, dtype=np.float64)
    d2 = sum((c[:, None] - c[None, :]) ** 2 for c in pos.T)
    close = d2 <= threshold * threshold
    return ContactMap(pos.shape[0], np.argwhere(np.triu(close, 1)))


# integer directions of integer length: (vector, length)
EXACT_DIRECTIONS = [((1, 0, 0), 1), ((0, 4, 3), 5), ((2, 3, 6), 7), ((1, 4, 8), 9), ((4, 4, 7), 9)]


def assert_canonical_map(cmap):
    """cmap's pairs are a read-only int32 (E, 2) array that the checking
    constructor takes unchanged: a map built without its checks is canonical."""
    assert cmap.ij.dtype == np.int32 and cmap.ij.ndim == 2 and cmap.ij.shape[1] == 2
    assert not cmap.ij.flags.writeable
    assert ContactMap(cmap.n, cmap.ij) == cmap


class TestBuildContactMapOracle:
    @given(data=st.data(), n=st.integers(1, 64), scale=st.integers(100, 2000),
           spread=st.sampled_from([2000, 10000, 40000, 99999]))
    @settings(max_examples=300, deadline=None)
    def test_same_pairs_as_the_previous_computation(self, data, n, scale, spread):
        """Coordinates on the 0.001 A grid of PDB text, with pairs planted at
        exactly the threshold distance (on the grid): the same int32 pairs."""
        vector, length = data.draw(st.sampled_from(EXACT_DIRECTIONS), label="direction")
        threshold = scale * length / 1000.0
        milli = np.array(data.draw(st.lists(
            st.tuples(*(st.integers(-spread, spread) for _ in range(3))),
            min_size=n, max_size=n), label="milli-A"), dtype=np.int64)
        for _ in range(data.draw(st.integers(0, n), label="planted")):
            i, j = (data.draw(st.integers(0, n - 1)) for _ in range(2))
            signs = np.array(data.draw(st.tuples(*(st.sampled_from([-1, 1]) for _ in range(3)))))
            order = data.draw(st.permutations(range(3)))
            milli[j] = milli[i] + signs * np.array(vector)[order] * scale
        positions = milli / 1000.0
        ours = build_contact_map(positions, threshold)
        reference = previous_build_contact_map(positions, threshold)
        assert ours.n == reference.n == n
        assert ours.ij.dtype == reference.ij.dtype == np.int32
        assert np.array_equal(ours.ij, reference.ij)
        assert_canonical_map(ours)


class TestSerialization:
    def test_format_example(self):
        assert serialize_contacts(ContactMap(4, ((2, 3), (0, 1)))) == "0-1,2-3"
        assert serialize_contacts(ContactMap(3)) == ""

    def test_index_out_of_range(self):
        with pytest.raises(ValueError):
            deserialize_contacts("0-5", 2)

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
        assert deserialize_contacts(serialize_contacts(cmap), n) == cmap


class TestContactMapType:
    def test_rejects_bad_pairs(self):
        with pytest.raises(ValueError):
            ContactMap(3, ((1, 1),))
        with pytest.raises(ValueError):
            ContactMap(3, ((0, 3),))


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
        assert cmap.ij.tolist() == [list(pair) for pair in sorted(set(chosen))]
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
        assert ref.ij.tolist() == [[0, 1], [2, 3]] and ContactMap(4).ij.shape == (0, 2)

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
        assert cmap.ij.tolist() == [[0, 1], [1, 2]]
        with pytest.raises(ValueError):
            cmap.ij[0, 0] = 1


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
        elif kind == "number" and re.search("[0-9]", text):
            spans = [m.span() for m in re.finditer(r"[0-9]+", text)]
            a, b = data.draw(st.sampled_from(spans))
            text = text[:a] + str(data.draw(st.integers(0, n + 3))) + text[b:]
    return text


def spec_deserialize_contacts(text, n):
    """deserialize_contacts as its docstring states it, one chunk at a time:
    the oracle for the accepted texts and the ValueError."""
    pairs = []
    for chunk in filter(None, text.split(",")):
        sides = chunk.split("-")
        if len(sides) != 2 or not all(s.isascii() and s.isdigit() for s in sides):
            raise ValueError(f"malformed chunk {chunk!r}")
        pairs.append((int(sides[0]), int(sides[1])))
    return ContactMap(n, pairs)


class TestDeserializeOracle:
    @given(n=st.integers(min_value=2, max_value=12), data=st.data())
    @settings(max_examples=600, deadline=None)
    def test_same_map_or_same_error_as_line_parser(self, n, data):
        """Serialized maps with drawn edits, including blanks, signs, digit
        groups and non-ASCII digits that int() would take: same map or
        ValueError as the chunk-by-chunk parser."""
        all_pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
        chosen = data.draw(st.lists(st.sampled_from(all_pairs), unique=True, min_size=1,
                                    max_size=8))
        text = serialize_contacts(ContactMap(n, chosen))
        for _ in range(2):  # up to six edits
            text = mutate(text, data, ",-", n,
                          ["-", ",", ",,", "7", "1-2", " ", "+", "_", "\r", "٣", "x", "1-2-3"])
        assert (outcome(lambda t: deserialize_contacts(t, n), text)
                == outcome(lambda t: spec_deserialize_contacts(t, n), text))
