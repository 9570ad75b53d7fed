import math

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from contactformer.contacts import ContactMap, deserialize_contacts, serialize_contacts
from test_contacts import assert_canonical_map, mutate, outcome
from contactformer.data import (
    ALPHABET,
    EmptyDataset,
    Entry,
    LabelIndex,
    LengthMismatch,
    SplitManifest,
    UnknownResidue,
    batch_encode,
    compute_class_weights,
    entry_from_line,
    load_entries,
    read_index,
    save_entries,
    stratified_split,
    tokenize,
)


def entry(eid, seq, pairs=(), label=0):
    return Entry(eid, seq, ContactMap(len(seq), tuple(pairs)), label)


def dummy_entries(class_sizes, seed=0):
    """One single-residue entry per instance; ids unique per class."""
    entries = []
    for label, size in enumerate(class_sizes):
        for k in range(size):
            entries.append(entry(f"c{label}-{k:03d}", "A", label=label))
    return entries


class TestTokenize:
    def test_first_letters(self):
        assert tokenize("ACD") == [1, 2, 3]

    def test_last_letter(self):
        assert tokenize("Y") == [20]

    def test_unknown_residue(self):
        with pytest.raises(UnknownResidue):
            tokenize("AXA")

    def test_full_alphabet_is_1_to_20(self):
        assert tokenize(ALPHABET) == list(range(1, 21))


class TestStratifiedSplit:
    def test_class_of_ten(self):
        manifest = stratified_split(dummy_entries([10]), seed=1)
        assert (len(manifest.ids["train"]), len(manifest.ids["val"]),
                len(manifest.ids["test"])) == (7, 1, 2)

    def test_singleton_class_goes_to_train(self):
        manifest = stratified_split(dummy_entries([1]), seed=1)
        assert len(manifest.ids["train"]) == 1
        assert not manifest.ids["val"] and not manifest.ids["test"]

    def test_class_of_two(self):
        manifest = stratified_split(dummy_entries([2]), seed=1)
        assert (len(manifest.ids["train"]), len(manifest.ids["val"]),
                len(manifest.ids["test"])) == (1, 0, 1)

    def test_empty_dataset(self):
        with pytest.raises(EmptyDataset):
            stratified_split([])

    def test_deterministic_for_fixed_seed(self):
        entries = dummy_entries([13, 4, 9, 1])
        assert stratified_split(entries, seed=5) == stratified_split(entries, seed=5)

    def test_input_order_does_not_matter(self):
        entries = dummy_entries([13, 4, 9])
        assert stratified_split(entries[::-1], seed=5) == stratified_split(entries, seed=5)

    @given(sizes=st.lists(st.integers(min_value=1, max_value=40),
                          min_size=1, max_size=8),
           seed=st.integers(min_value=0, max_value=2**31 - 1))
    @settings(max_examples=150, deadline=None)
    def test_splits_partition_the_entries(self, sizes, seed):
        entries = dummy_entries(sizes)
        manifest = stratified_split(entries, seed=seed)
        combined = manifest.ids["train"] + manifest.ids["val"] + manifest.ids["test"]
        assert sorted(combined) == sorted(e.id for e in entries)
        assert len(set(combined)) == len(combined)

    @given(n=st.integers(min_value=10, max_value=500))
    @settings(max_examples=100, deadline=None)
    def test_train_fraction_within_rounding_bound(self, n):
        manifest = stratified_split(dummy_entries([n]), seed=3)
        frac = len(manifest.ids["train"]) / n
        assert abs(frac - 0.7) <= 1.0 / n

    def test_class_counts_recorded(self):
        manifest = stratified_split(dummy_entries([10, 2]), seed=0)
        assert manifest.class_counts["train"] == {0: 7, 1: 1}
        assert manifest.class_counts["test"] == {0: 2, 1: 1}

    def test_manifest_json_round_trip(self):
        manifest = stratified_split(dummy_entries([10, 2, 5]), seed=9)
        assert SplitManifest.from_json(manifest.to_json()) == manifest

    @pytest.mark.parametrize("frac", [-1.0, 1.5, float("nan")])
    @pytest.mark.parametrize("arg", ["train_frac", "val_frac_of_rest"])
    def test_fraction_outside_unit_interval_rejected(self, arg, frac):
        # a negative fraction used to put entries in both train and test
        with pytest.raises(ValueError, match=r"\[0, 1\]"):
            stratified_split(dummy_entries([10, 4]), seed=1, **{arg: frac})

    @pytest.mark.parametrize("train_frac, val_frac", [(0.0, 0.0), (1.0, 1.0), (0.0, 1.0)])
    def test_unit_interval_bounds_accepted(self, train_frac, val_frac):
        entries = dummy_entries([10, 4])
        manifest = stratified_split(entries, train_frac, val_frac, seed=1)
        combined = manifest.ids["train"] + manifest.ids["val"] + manifest.ids["test"]
        assert sorted(combined) == sorted(e.id for e in entries)


class TestClassWeights:
    def test_uneven_counts(self):
        w = compute_class_weights([0, 0, 1, 2], 3)
        assert np.allclose(w, [4 / 6, 4 / 3, 4 / 3])

    def test_uniform_labels_give_unit_weights(self):
        w = compute_class_weights([0, 1, 2, 0, 1, 2], 3)
        assert np.allclose(w, 1.0)

    def test_absent_class_gets_zero_without_renormalization(self):
        w = compute_class_weights([0, 0], 2)
        assert np.allclose(w, [0.5, 0.0])

    def test_weighted_loss_neutrality(self):
        rng = np.random.default_rng(0)
        labels = rng.integers(0, 6, size=200)
        labels[:6] = np.arange(6)  # ensure all classes present
        w = compute_class_weights(labels, 6)
        assert math.isclose(w[labels].sum(), labels.size, rel_tol=1e-12)

    def test_label_out_of_range(self):
        with pytest.raises(ValueError):
            compute_class_weights([0, 3], 3)


class TestBatchEncode:
    def test_fully_connected_two_mer(self):
        batch = batch_encode([entry("e", "AC", pairs=[(0, 1)])])
        assert batch.tokens.tolist() == [[1, 2]]
        assert not batch.attention_masks.any()

    def test_self_only_attention(self):
        batch = batch_encode([entry("e", "ACD")])
        mask = batch.attention_masks[0]
        assert not mask.diagonal().any()
        assert mask[~np.eye(3, dtype=bool)].all()

    def test_padding_definition(self):
        batch = batch_encode([entry("a", "AC"), entry("b", "ACD")])
        assert batch.tokens.shape == (2, 3)
        assert batch.key_padding_mask[0].tolist() == [False, False, True]
        assert batch.key_padding_mask[1].tolist() == [False, False, False]
        assert (~batch.key_padding_mask).sum(axis=1).tolist() == [2, 3]

    def test_pad_iff_token_zero_iff_beyond_length(self):
        batch = batch_encode([entry("a", "AC"), entry("b", "ACDEF")])
        for b, n in enumerate((2, 5)):
            assert ((batch.tokens[b] == 0) == batch.key_padding_mask[b]).all()
            assert batch.key_padding_mask[b, n:].all()
            assert not batch.key_padding_mask[b, :n].any()

    def test_truncation_keeps_leading_prefix(self):
        seq = "ACDEFGHIKL"
        batch = batch_encode([entry("e", seq, pairs=[(0, 1), (2, 9)])], max_len=4)
        assert batch.tokens.shape == (1, 4)
        assert batch.tokens[0].tolist() == tokenize(seq)[:4]
        mask = batch.attention_masks[0]
        assert not mask[0, 1]  # kept pair inside the window
        assert mask[0, 2]      # non-contact stays masked
        assert not mask.diagonal().any()

    @pytest.mark.parametrize("max_len", [0, -3])
    def test_rejects_max_len_below_one(self, max_len):
        # -3 would slice [:-3] and drop each sequence's last 3 residues
        with pytest.raises(ValueError, match="max_len must be >= 1"):
            batch_encode([entry("a", "ACDEF"), entry("b", "ACDEFGH")], max_len=max_len)

    def test_full_mode_is_all_attendable_within_valid_region(self):
        batch = batch_encode([entry("a", "AC"), entry("b", "ACD")],
                             attention_mode="full")
        assert not batch.attention_masks[1].any()
        mask = batch.attention_masks[0]
        assert not mask[:2, :2].any()
        assert not mask.diagonal().any()  # the pad slot attends itself ...
        off_diagonal = ~np.eye(3, dtype=bool)
        assert (mask[2:] == off_diagonal[2:]).all()  # ... and nothing else
        assert (mask[:, 2:] == off_diagonal[:, 2:]).all()

    def test_every_valid_query_row_has_an_attendable_key(self):
        rng = np.random.default_rng(0)
        entries = []
        for k in range(8):
            n = int(rng.integers(1, 12))
            seq = "".join(rng.choice(list(ALPHABET), size=n))
            all_pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
            take = [p for p in all_pairs if rng.random() < 0.2]
            entries.append(entry(f"e{k}", seq, pairs=take))
        batch = batch_encode(entries)
        for b, n in enumerate((~batch.key_padding_mask).sum(axis=1)):
            rows = batch.attention_masks[b, :n]
            assert (~rows).any(axis=1).all()
            assert not rows.diagonal().any()

    @given(lengths=st.lists(st.integers(min_value=1, max_value=20), min_size=1, max_size=5),
           max_len=st.integers(min_value=1, max_value=24),
           mode=st.sampled_from(["contact", "full"]),
           seed=st.integers(min_value=0, max_value=2**32 - 1))
    @settings(max_examples=150, deadline=None)
    def test_padded_rows_and_columns_are_disallowed(self, lengths, max_len, mode, seed):
        # attention reads only attention_masks, so padding must be masked there;
        # the diagonal stays attendable, so no query row is fully masked
        rng = np.random.default_rng(seed)
        entries = []
        for k, n in enumerate(lengths):
            seq = "".join(rng.choice(list(ALPHABET), size=n))
            pairs = [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < 0.3]
            entries.append(entry(f"e{k}", seq, pairs))
        batch = batch_encode(entries, max_len=max_len, attention_mode=mode)
        masks, key_pad = batch.attention_masks, batch.key_padding_mask
        l = masks.shape[1]
        assert not masks[:, np.arange(l), np.arange(l)].any()
        off_diagonal = ~np.eye(l, dtype=bool)
        for b, length in enumerate(lengths):
            n = min(length, max_len)
            assert (masks[b, :, n:] == off_diagonal[:, n:]).all()
            assert (masks[b, n:, :] == off_diagonal[n:, :]).all()
        assert masks[~key_pad[:, :, None] & key_pad[:, None, :]].all()  # valid query, pad key

    def test_empty_batch(self):
        with pytest.raises(EmptyDataset):
            batch_encode([])


def saved_text(tmp_path, entries) -> str:
    """processed.tsv's text as save_entries writes it for entries."""
    path = tmp_path / "processed.tsv"
    save_entries(path, [(e.id, e.label, e.sequence, serialize_contacts(e.contact_map))
                        for e in entries])
    return path.read_text()


class TestEntryIO:
    def test_line_round_trip(self, tmp_path):
        e = entry("1abcA", "ACDY", pairs=[(0, 2), (1, 3)], label=7)
        line = saved_text(tmp_path, [e])
        assert line == "1abcA\t7\tACDY\t0-2,1-3\n"
        assert entry_from_line(line) == e

    def test_line_round_trip_without_contacts(self, tmp_path):
        e = entry("x", "AC", label=1)
        line = saved_text(tmp_path, [e])
        assert line == "x\t1\tAC\t\n"
        assert entry_from_line(line) == e

    def test_entry_validates_lengths(self):
        with pytest.raises(LengthMismatch):
            Entry("e", "ACD", ContactMap(2), 0)

    def test_saved_rows_are_the_lines_of_their_entries(self, tmp_path):
        # save_entries takes rows in field form; each line is the entry's own line.
        entries = [entry("1abcA", "ACDY", pairs=[(0, 2), (1, 3)], label=7),
                   entry("x", "AC", label=1)]
        assert saved_text(tmp_path, entries) == "1abcA\t7\tACDY\t0-2,1-3\nx\t1\tAC\t\n"
        assert load_entries(tmp_path / "processed.tsv") == entries



def old_entry_from_line(line):
    """The tuple-based parser that vectorized entry_from_line replaced, with
    the pair checks its ContactMap made; the oracle for accepted lines and
    their errors."""
    entry_id, label, sequence, pair_field = line.rstrip("\n").split("\t")
    pairs = tuple(
        tuple(int(v) for v in chunk.split("-"))
        for chunk in pair_field.split(",")
        if chunk
    )
    if len(sequence) < 1:
        raise ValueError("contact map needs n >= 1")
    for i, j in pairs:
        if not (0 <= i < j < len(sequence)):
            raise ValueError(f"bad contact pair ({i}, {j})")
    return Entry(entry_id, sequence, ContactMap(len(sequence), pairs), int(label))


class TestEntryLineOracle:
    @given(n=st.integers(min_value=1, max_value=12), data=st.data())
    @settings(max_examples=600, deadline=None)
    def test_same_entry_or_same_error_as_tuple_parser(self, n, data):
        """Pairs in any order, repeated or reversed, then drawn edits of the
        line: new and old parser agree on the entry or on the error class."""
        all_pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
        chosen = data.draw(st.lists(st.sampled_from(all_pairs), max_size=8)
                           if all_pairs else st.just([]))
        if chosen and data.draw(st.booleans()):
            chosen[0] = chosen[0][::-1]
        seq = "".join(data.draw(st.lists(st.sampled_from(ALPHABET), min_size=n, max_size=n)))
        pair_field = ",".join(f"{i}-{j}" for i, j in chosen)
        # no edit puts in whitespace, which int() used to strip from a number
        line = mutate(f"e1\t{data.draw(st.integers(0, 5))}\t{seq}\t{pair_field}", data,
                      ",-\t", n, ["-", ",", "7", "-3", "x", "1-2-3", "\t", ",,"]) + "\n"
        assert outcome(entry_from_line, line) == outcome(old_entry_from_line, line)
        # the pair field alone, edited, through the parser entry_from_line calls
        field = mutate(pair_field, data, ",-", n, ["-", ",", "7", "-3", "x", "1-2-3", ",,"])
        expected = outcome(old_entry_from_line, f"e1\t0\t{seq}\t{field}\n")
        if isinstance(expected, Entry):
            expected = expected.contact_map
        assert outcome(lambda text: deserialize_contacts(text, n), field) == expected

    @pytest.mark.parametrize("line", [
        "e\t0\tACDE\t0-1,,2-3,\n", "e\t0\tACDE\t,2-3,0-1,0-1\n", "e\t0\tA\t\n",
    ])
    def test_empty_chunks_order_and_repeats_accepted(self, line):
        assert entry_from_line(line) == old_entry_from_line(line)

    @pytest.mark.parametrize("field", [
        "3-4-5", "0-1-2,3", "0-1,2", "0--1", "-0-1", "0-1-", "1-0", "0-4", "0-x", "0-1,2-3-",
        "0-1,-2", "0-,1-2", "-1,2-3", "0-1,2-", "0-1 2-3", "0-1/2-3",
    ])
    def test_malformed_pairs_rejected(self, field):
        with pytest.raises(ValueError, match="entry 'e'"):  # the error names the entry
            entry_from_line(f"e\t0\tACDE\t{field}\n")
        with pytest.raises(ValueError):
            old_entry_from_line(f"e\t0\tACDE\t{field}\n")
        with pytest.raises(ValueError, match="^(malformed contact pairs|bad contact pair)"):
            deserialize_contacts(field, 4)

    @pytest.mark.parametrize("line", [
        "e\tx\tACDE\t0-1\n", "e\t0\tACDE\n", "e\t0\tACDE\t0-1\textra\n",
    ])
    def test_malformed_label_or_field_count_rejected(self, line):
        with pytest.raises(ValueError, match="entry 'e'"):
            entry_from_line(line)
        with pytest.raises(ValueError):
            old_entry_from_line(line)


def draw_line(data, entry_id):
    """A processed.tsv line drawn as TestEntryLineOracle draws one, or in the
    canonical form save_entries writes (pairs ascending, no repeats)."""
    n = data.draw(st.integers(min_value=1, max_value=12))
    all_pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    chosen = data.draw(st.lists(st.sampled_from(all_pairs), max_size=8)
                       if all_pairs else st.just([]))
    if data.draw(st.booleans()):
        chosen = sorted(set(chosen))
    elif chosen and data.draw(st.booleans()):
        chosen[0] = chosen[0][::-1]
    if data.draw(st.integers(0, 3)) == 0:  # a pair just out of range: i == j or j == n
        i = data.draw(st.integers(0, n))
        edge = (i, data.draw(st.sampled_from([i, n])))
        chosen.insert(data.draw(st.integers(0, len(chosen))), edge)
    seq = "".join(data.draw(st.lists(st.sampled_from(ALPHABET), min_size=n, max_size=n)))
    pair_field = ",".join(f"{i}-{j}" for i, j in chosen)
    if data.draw(st.booleans()):  # an empty chunk: a leading, doubled or trailing comma
        chunks = pair_field.split(",")
        k = data.draw(st.integers(0, len(chunks)))
        pair_field = ",".join(chunks[:k] + [""] + chunks[k:])
    line = f"{entry_id}\t{data.draw(st.integers(0, 5))}\t{seq}\t{pair_field}"
    if data.draw(st.integers(0, 3)) == 0:  # edits, as TestEntryLineOracle makes them
        line = mutate(line, data, ",-\t", n,
                      ["-", ",", "7", "-3", "x", "1-2-3", "\t", ",,", "\u00b2"])
    return line


class TestLoadEntriesOracle:
    @given(data=st.data())
    @settings(max_examples=400, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_same_entries_or_first_error_as_line_by_line(self, tmp_path, data):
        """Whole files of drawn lines, blank lines among them: load_entries returns
        the old parser's entries, or raises its error class naming the first bad line."""
        lines = [data.draw(st.sampled_from(["", " ", "\t\t"])) if data.draw(st.integers(0, 9)) == 0
                 else draw_line(data, f"e{k}") for k in range(data.draw(st.integers(0, 8)))]
        path = tmp_path / "processed.tsv"
        path.write_text("".join(ln + "\n" for ln in lines), encoding="utf-8")
        expected = []
        for ln in filter(str.strip, lines):
            try:
                expected.append(old_entry_from_line(ln))
            except ValueError as exc:
                entry_id = ln.split("\t")[0]
                with pytest.raises(type(exc)) as raised:
                    load_entries(path)
                assert type(raised.value) is type(exc)
                assert str(raised.value).startswith(f"entry {entry_id!r}: ")
                return
        loaded = load_entries(path)
        assert loaded == expected
        for e in loaded:
            assert_canonical_map(e.contact_map)

    @pytest.mark.parametrize("line", [
        "e\t+3\tACDE\t0-1", "e\t 3\tACDE\t0-1", "e\t\u0663\tACDE\t0-1", "e\t\u00b2\tACDE\t0-1",
        "e\t0\t\t", "e\t0\tACDE\t0-1\t", "e\t0\tACDE", "e\t0\tACDE\t2-3,0-1",
        "e\t0\tACDE\t0-1,0-1", "e\t0\tACDE\t,0-1", "e\t0\tACDE\t0-1,,2-3", "e\t0\tACDE\t,",
        "e\t0\tACDE\t0-1,-2", "e\t0\tACDE\t0-,1-2", "e\t0\tACDE\t0-1,2", "e\t0\tACDE\t0-1 ",
        "e\t0\tACDE\t0-99999999999999999999", "e\t0\tACDE\t0000000000000000000001-2",
        "e\t0\tACDE\t0-1,2-4", "e\t0\tACDE\t0-1,2-2", "e\t0\tACDE\t0-1,3-2",
        "e\t0\tACDE\t-1,2-3",
    ])
    def test_line_outside_the_one_pass_between_canonical_lines(self, tmp_path, line):
        """A line the one pass does not take, between two it takes: the entries
        of entry_from_line line by line, or its error naming the line's entry."""
        lines = ["a\t1\tAC\t0-1", line, "z\t2\tACD\t0-2,1-2"]
        path = tmp_path / "processed.tsv"
        path.write_text("".join(ln + "\n" for ln in lines), encoding="utf-8")
        expected = [outcome(entry_from_line, ln) for ln in lines]
        if expected[1] is ValueError:
            with pytest.raises(ValueError, match="^entry 'e': "):
                load_entries(path)
        else:
            assert load_entries(path) == expected

    def test_canonical_file_shares_one_pair_array(self, tmp_path):
        entries = [entry("a", "ACDY", pairs=[(0, 2), (1, 3)]), entry("b", "AC"),
                   entry("c", "ACD", pairs=[(0, 1), (0, 2), (1, 2)], label=2)]
        saved_text(tmp_path, entries)
        loaded = load_entries(tmp_path / "processed.tsv")
        assert loaded == entries
        assert loaded[0].contact_map.ij.base is loaded[2].contact_map.ij.base is not None


# Index bytes: arbitrary, or rows of tab-separated fields drawn from
# meaningful values and short arbitrary bytes, ended by "\n", "\r\n" or "\r".
_INDEX_FIELD = st.one_of(
    st.sampled_from([b"-", b"12", b"x", b"", b"#", b"1aa0A", b"a.pdb", b" ",
                     b"\xe9", b"\xef\xbf\xbd"]),  # a bad byte; a valid U+FFFD
    st.binary(max_size=5),
)
_INDEX_BYTES = st.one_of(
    st.binary(max_size=200),
    st.tuples(st.lists(st.lists(_INDEX_FIELD, min_size=1, max_size=8).map(b"\t".join),
                       max_size=6),
              st.sampled_from([b"\n", b"\r\n", b"\r"])).map(lambda t: t[1].join(t[0])),
)


class TestReadIndexFuzz:
    @given(raw=_INDEX_BYTES)
    @settings(max_examples=400, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_arbitrary_bytes_raise_only_empty_dataset(self, tmp_path, raw):
        path = tmp_path / "index.tsv"
        path.write_bytes(raw)
        try:
            rows, malformed = read_index(path)
        except EmptyDataset:
            return
        assert rows or malformed
        assert len({row.entry_id for row in rows}) == len(rows)
        for entry_id, reason in malformed:  # prep writes these to rejects.log as UTF-8
            (entry_id + reason).encode("utf-8")


_RANGE_BOUND = st.just("-") | st.integers(-50, 50).map(str)


class TestReadIndexRange:
    @given(start=_RANGE_BOUND, end=_RANGE_BOUND)
    @settings(max_examples=200, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_both_bounds_or_neither(self, tmp_path, start, end):
        path = tmp_path / "index.tsv"
        path.write_text(f"e\tx.pdb\tA\t{start}\t{end}\tsf\n")
        rows, malformed = read_index(path)
        if (start == "-") != (end == "-"):
            assert rows == []
            assert malformed == [("e", "line 1: a residue range needs both bounds or neither")]
            return
        assert malformed == []
        expected = None if start == "-" else (int(start), int(end))
        assert [row.residue_range for row in rows] == [expected]


class TestLabelIndex:
    def test_contiguous_sorted_indices(self):
        idx = LabelIndex(["b.2", "a.1", "c.3", "a.1"])
        assert len(idx) == 3
        assert idx.index_of("a.1") == 0
        assert idx.to_text() == "a.1\t0\nb.2\t1\nc.3\t2\n"

    def test_text_round_trip(self):
        idx = LabelIndex(["b.2", "a.1"])
        again = LabelIndex.from_text(idx.to_text())
        assert again.to_text() == idx.to_text()

    @given(ids=st.lists(st.text(st.characters(exclude_characters="\t\n\r")), min_size=1))
    def test_text_round_trip_of_any_ids(self, ids):
        # ids may hold U+0085, U+2028 and other breaks that str.splitlines splits at
        idx = LabelIndex(ids)
        again = LabelIndex.from_text(idx.to_text())
        expected = "".join(f"{sf}\t{i}\n" for i, sf in enumerate(sorted(set(ids))))
        assert again.to_text() == expected
