import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from contactformer.contacts import ContactMap
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
    entry_to_line,
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

    def test_full_mode_is_all_attendable_within_valid_region(self):
        batch = batch_encode([entry("a", "AC"), entry("b", "ACD")],
                             attention_mode="full")
        assert not batch.attention_masks[1].any()
        assert not batch.attention_masks[0, :2, :2].any()
        assert batch.attention_masks[0, 2:, :].all()
        assert batch.attention_masks[0, :, 2:].all()

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
        # attention reads only attention_masks, so padding must be masked there
        rng = np.random.default_rng(seed)
        entries = []
        for k, n in enumerate(lengths):
            seq = "".join(rng.choice(list(ALPHABET), size=n))
            pairs = [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < 0.3]
            entries.append(entry(f"e{k}", seq, pairs))
        batch = batch_encode(entries, max_len=max_len, attention_mode=mode)
        for b, length in enumerate(lengths):
            n = min(length, max_len)
            assert batch.attention_masks[b, :, n:].all()
            assert batch.attention_masks[b, n:, :].all()
        assert (batch.attention_masks | batch.key_padding_mask[:, None, :]
                == batch.attention_masks).all()

    def test_empty_batch(self):
        with pytest.raises(EmptyDataset):
            batch_encode([])


class TestEntryIO:
    def test_line_round_trip(self):
        e = entry("1abcA", "ACDY", pairs=[(0, 2), (1, 3)], label=7)
        assert entry_from_line(entry_to_line(e)) == e

    def test_line_round_trip_without_contacts(self):
        e = entry("x", "AC", label=1)
        line = entry_to_line(e)
        assert line == "x\t1\tAC\t\n"
        assert entry_from_line(line) == e

    def test_entry_validates_lengths(self):
        with pytest.raises(LengthMismatch):
            Entry("e", "ACD", ContactMap(2), 0)


class TestLabelIndex:
    def test_contiguous_sorted_indices(self):
        idx = LabelIndex(["b.2", "a.1", "c.3", "a.1"])
        assert len(idx) == 3
        assert idx.index_of("a.1") == 0
        assert idx.id_of(2) == "c.3"

    def test_text_round_trip(self):
        idx = LabelIndex(["b.2", "a.1"])
        again = LabelIndex.from_text(idx.to_text())
        assert again.to_text() == idx.to_text()
