import json
import math
import os
import struct
from dataclasses import asdict

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from contactformer import autodiff as ad
from contactformer.autodiff import Tensor
from contactformer.contacts import ContactMap
from contactformer.data import EncodedBatch, Entry, batch_encode
from contactformer.model import (
    CHECKPOINT_MAGIC,
    CheckpointError,
    ConfigMismatch,
    ModelConfig,
    count_parameters,
    encoder_forward,
    encoder_layers_forward,
    hash_text,
    init_params,
    load_checkpoint,
    multi_head_attention,
    pack,
    param_shapes,
    positional_encoding,
    save_checkpoint,
)

from conftest import (BAD_HEADERS, HUGE_HEADER_LENGTHS, peak_allocation,
                      rewrite_checkpoint_header, set_header_length, tiny_config)


def random_entries(rng, n, length_range=(3, 10), n_classes=4, contact_prob=0.3):
    from contactformer.data import ALPHABET
    entries = []
    for k in range(n):
        size = int(rng.integers(*length_range))
        seq = "".join(rng.choice(list(ALPHABET), size=size))
        pairs = tuple(
            (i, j) for i in range(size) for j in range(i + 1, size)
            if rng.random() < contact_prob
        )
        entries.append(Entry(f"r{k}", seq, ContactMap(size, pairs),
                             int(rng.integers(0, n_classes))))
    return entries


def pad_batch(batch: EncodedBatch, extra: int) -> EncodedBatch:
    """Widen a batch by `extra` pad slots (tokens 0, masks true but for the
    diagonal, as batch_encode pads)."""
    b, l = batch.tokens.shape
    tokens = np.zeros((b, l + extra), dtype=batch.tokens.dtype)
    tokens[:, :l] = batch.tokens
    attn = np.ones((b, l + extra, l + extra), dtype=bool)
    attn[:, np.arange(l + extra), np.arange(l + extra)] = False
    attn[:, :l, :l] = batch.attention_masks
    return EncodedBatch(tokens, attn, batch.labels)


class TestPositionalEncoding:
    def test_row_zero_alternates_zero_one(self):
        pe = positional_encoding(4, 6)
        assert np.allclose(pe[0], [0, 1, 0, 1, 0, 1])

    def test_values_bounded(self):
        pe = positional_encoding(64, 16)
        assert (pe >= -1).all() and (pe <= 1).all()

    def test_first_frequency_is_sin_of_position(self):
        pe = positional_encoding(8, 4)
        assert abs(pe[1, 0] - math.sin(1.0)) < 1e-6
        assert abs(pe[1, 0] - 0.8414709848078965) < 1e-6

    def test_odd_dimension_supported(self):
        pe = positional_encoding(5, 7)
        assert pe.shape == (5, 7)

    def test_built_once_and_read_only(self):
        pe = positional_encoding(6, 4, np.float32)
        assert positional_encoding(6, 4, np.float32) is pe
        with pytest.raises(ValueError):
            pe[0, 0] = 1.0

    @pytest.mark.parametrize("dim", [7, 16, 128])
    def test_rows_do_not_depend_on_length(self, dim):
        # encoder_forward indexes the max_len table; a batch's own-length table is its head
        full = positional_encoding(512, dim, np.float32)
        for length in (1, 5, 16, 100, 257, 511):
            assert positional_encoding(length, dim, np.float32).tobytes() == full[:length].tobytes()


class TestCountParameters:
    def test_hand_computed_tiny_case(self):
        cfg = tiny_config()  # embed 8, heads 2, layers 1, ffn 32, classes 4
        # embed 21*8 + attn 4*(64+8) + ln 2*16 + ffn (8*32+32)+(32*8+8) + clf 8*4+4
        assert count_parameters(cfg) == 168 + 288 + 32 + 552 + 36 == 1076

    def test_closed_form_equals_enumeration_on_random_configs(self):
        rng = np.random.default_rng(0)
        for _ in range(100):
            heads = int(rng.integers(1, 5))
            cfg = ModelConfig(
                n_classes=int(rng.integers(1, 50)),
                embed_dim=heads * int(rng.integers(1, 8)) * 2,
                n_heads=heads,
                n_layers=int(rng.integers(1, 4)),
                ffn_dim=int(rng.integers(1, 64)),
            )
            params = init_params(cfg, rng)
            assert count_parameters(cfg) == sum(
                p.tensor.data.size for p in params.values())

    def test_reference_config_count(self):
        cfg = ModelConfig(n_classes=2796, embed_dim=256, n_heads=8, n_layers=5)
        assert count_parameters(cfg) == 4_672_748

    def test_param_shapes_is_init_order(self):
        cfg = tiny_config(n_layers=2)
        params = init_params(cfg, np.random.default_rng(0))
        assert param_shapes(cfg) == {name: p.tensor.shape for name, p in params.items()}
        assert list(param_shapes(cfg)) == list(params)


class TestConfigValidation:
    def test_embed_dim_must_divide_heads(self):
        with pytest.raises(ValueError):
            ModelConfig(n_classes=2, embed_dim=10, n_heads=4)

    def test_bad_attention_mode(self):
        with pytest.raises(ValueError):
            ModelConfig(n_classes=2, attention_mode="banana")

    @pytest.mark.parametrize("field, value", [
        ("n_classes", 0), ("embed_dim", 0), ("n_heads", 0), ("n_heads", -2), ("ffn_dim", 0),
        ("max_len", 0), ("vocab_size", 0), ("n_layers", -1), ("embed_dim", 8.0),
    ])
    def test_impossible_size_rejected(self, field, value):
        with pytest.raises(ValueError, match=f"{field} must be an integer >= "):
            tiny_config(**{field: value})

    def test_zero_layers_allowed(self):
        assert count_parameters(tiny_config(n_layers=0)) == 21 * 8 + 8 * 4 + 4

    def test_default_ffn_is_4x(self):
        assert ModelConfig(n_classes=2, embed_dim=32, n_heads=4).ffn_dim == 128


class TestMultiHeadAttention:
    def test_single_head_matches_dense_oracle(self):
        rng = np.random.default_rng(0)
        d = 2
        x_np = rng.standard_normal((2, d))  # one sequence of two tokens
        params = init_params(ModelConfig(n_classes=2, embed_dim=d, n_heads=1,
                                         n_layers=1, ffn_dim=4, dropout=0.0),
                             rng, dtype=np.float64)
        pfx = "layers.0.attn"
        out = multi_head_attention(Tensor(x_np), [np.zeros((1, 2, 2), dtype=bool)], params,
                                   n_heads=1, prefix=pfx)

        # explicit 2x2 recomputation
        def w(name):
            return params[f"{pfx}.{name}.weight"].tensor.data
        def b(name):
            return params[f"{pfx}.{name}.bias"].tensor.data
        q = x_np @ w("q") + b("q")
        k = x_np @ w("k") + b("k")
        v = x_np @ w("v") + b("v")
        scores = q @ k.T / math.sqrt(d)
        e = np.exp(scores - scores.max(axis=1, keepdims=True))
        weights = e / e.sum(axis=1, keepdims=True)
        expected = (weights @ v) @ w("out") + b("out")
        assert np.allclose(out.data, expected, atol=1e-12)

    def test_attention_rows_sum_to_one_and_masked_entries_zero(self, monkeypatch):
        rng = np.random.default_rng(1)
        cfg = tiny_config()
        entries = random_entries(rng, 5)
        batch = batch_encode(entries)
        index, blocks = pack(batch)
        params = init_params(cfg, rng)
        x = ad.embedding(params["embed.weight"].tensor, batch.tokens[index])

        # with each head's v one-hot in each token's position (dh = L), the
        # fused op's output row t is query t's weights over the positions of
        # its sequence
        captured = []
        original = ad.masked_attention
        t, l, h = len(index[0]), batch.tokens.shape[1], cfg.n_heads

        def capture(q, k, v, blocks, n_heads):
            onehot = np.zeros((t, n_heads, l), dtype=v.dtype)
            onehot[np.arange(t), :, index[1]] = 1.0
            captured.append(original(q, k, Tensor(onehot.reshape(t, -1)), blocks, n_heads).data)
            return original(q, k, v, blocks, n_heads)

        monkeypatch.setattr(ad, "masked_attention", capture)
        multi_head_attention(x, blocks, params, h, prefix="layers.0.attn")
        (weights,) = captured
        weights = weights.reshape(t, h, l)
        lengths = (~batch.key_padding_mask).sum(axis=1)
        for row, bi, i in zip(weights, *index):
            assert np.allclose(row.sum(axis=-1), 1.0, atol=1e-6)
            assert (row[:, batch.attention_masks[bi, i]] == 0).all()
            assert (row[:, lengths[bi]:] == 0).all()  # no weight past its sequence's end

    def test_projections_feed_the_attention_node_directly(self, monkeypatch):
        """Heads are views inside masked_attention: no reshape node between the
        q, k and v projections and the attention node, or after it."""
        rng = np.random.default_rng(11)
        cfg = tiny_config()
        params = init_params(cfg, rng)
        x = Tensor(rng.standard_normal((5, cfg.embed_dim)).astype(np.float32))
        original, made = ad.masked_attention, []

        def recording(*args):
            made.append(original(*args))
            return made[-1]

        monkeypatch.setattr(ad, "masked_attention", recording)
        out = multi_head_attention(x, [np.zeros((1, 5, 5), dtype=bool)], params, cfg.n_heads,
                                   prefix="layers.0.attn")
        (ctx,) = made
        assert ctx.shape == x.shape
        # graph parents are nodes; the leaves x and the weights stand for themselves
        assert out._node._parents[0] is ctx._node
        assert [p._parents[:2] for p in ctx._node._parents] == [
            (x, params[f"layers.0.attn.{name}.weight"].tensor) for name in "qkv"]


class TestEncoderForward:
    def test_logits_shape(self):
        rng = np.random.default_rng(2)
        cfg = tiny_config(n_layers=2)
        entries = random_entries(rng, 6)
        batch = batch_encode(entries)
        params = init_params(cfg, rng)
        logits, pooled = encoder_forward(batch, cfg, params)
        assert logits.shape == (6, cfg.n_classes)
        assert pooled.shape == (6, cfg.embed_dim)
        t = int((~batch.key_padding_mask).sum())
        x = Tensor(np.zeros((t, cfg.embed_dim), dtype=np.float32))
        states = encoder_layers_forward(x, pack(batch)[1], cfg, params)
        assert states.shape == (t, 8)

    def test_eval_mode_bit_deterministic(self):
        rng = np.random.default_rng(3)
        cfg = tiny_config(dropout=0.1)
        batch = batch_encode(random_entries(rng, 4))
        params = init_params(cfg, rng)
        a, _ = encoder_forward(batch, cfg, params, train_mode=False)
        b, _ = encoder_forward(batch, cfg, params, train_mode=False)
        assert np.array_equal(a.data, b.data)

    def test_train_mode_dropout_needs_rng(self):
        rng = np.random.default_rng(4)
        cfg = tiny_config(dropout=0.1)
        batch = batch_encode(random_entries(rng, 2))
        with pytest.raises(ValueError):
            encoder_forward(batch, cfg, init_params(cfg, rng), train_mode=True)

    def test_batch_longer_than_max_len_rejected(self):
        rng = np.random.default_rng(5)
        cfg = tiny_config(max_len=4)
        batch = batch_encode(random_entries(rng, 2, length_range=(6, 8)))
        with pytest.raises(ConfigMismatch):
            encoder_forward(batch, cfg, init_params(cfg, rng))

    @pytest.mark.parametrize("other", [dict(ffn_dim=16), dict(n_layers=2), dict(n_classes=3)])
    def test_params_of_another_layout_rejected(self, other):
        rng = np.random.default_rng(7)
        batch = batch_encode(random_entries(rng, 2))
        with pytest.raises(ConfigMismatch, match="parameter layout"):
            encoder_forward(batch, tiny_config(), init_params(tiny_config(**other), rng))

    def test_padding_invariance_in_eval_mode(self):
        rng = np.random.default_rng(6)
        cfg = tiny_config(n_layers=2)
        params = init_params(cfg, rng)
        batch = batch_encode(random_entries(rng, 3))
        base, pooled_base = encoder_forward(batch, cfg, params)
        wide, pooled_wide = encoder_forward(pad_batch(batch, 16), cfg, params)
        assert np.abs(base.data - wide.data).max() < 1e-5
        assert np.abs(pooled_base.data - pooled_wide.data).max() < 1e-5

    def test_self_only_attention_is_positionwise(self):
        rng = np.random.default_rng(7)
        cfg = tiny_config(use_positional=False)
        params = init_params(cfg, rng, dtype=np.float64)
        entries = random_entries(rng, 1, length_range=(5, 6), contact_prob=0.0)
        batch = batch_encode(entries)
        blocks = pack(batch)[1]

        def states_for(x_np):
            return encoder_layers_forward(Tensor(x_np), blocks, cfg, params).data

        x = rng.standard_normal((batch.tokens.shape[1], cfg.embed_dim))
        base = states_for(x)
        bumped = x.copy()
        bumped[2] += 0.1
        delta = np.abs(states_for(bumped) - base).max(axis=-1)
        assert delta[2] > 1e-9
        assert (np.delete(delta, 2) == 0.0).all()

    def test_full_mode_equals_contact_mode_on_complete_graphs(self):
        rng = np.random.default_rng(8)
        from contactformer.data import ALPHABET
        entries = []
        for k in range(4):
            n = int(rng.integers(2, 7))
            seq = "".join(rng.choice(list(ALPHABET), size=n))
            complete = tuple((i, j) for i in range(n) for j in range(i + 1, n))
            entries.append(Entry(f"e{k}", seq, ContactMap(n, complete), k % 2))

        cfg_contact = tiny_config(attention_mode="contact")
        cfg_full = tiny_config(attention_mode="full")
        params = init_params(cfg_contact, rng)
        batch_c = batch_encode(entries, attention_mode="contact")
        batch_f = batch_encode(entries, attention_mode="full")
        assert np.array_equal(batch_c.attention_masks, batch_f.attention_masks)
        out_c, _ = encoder_forward(batch_c, cfg_contact, params)
        out_f, _ = encoder_forward(batch_f, cfg_full, params)
        assert np.array_equal(out_c.data, out_f.data)

    def test_one_layer_locality_follows_contacts(self):
        rng = np.random.default_rng(9)
        cfg = tiny_config(use_positional=False)
        params = init_params(cfg, rng, dtype=np.float64)
        entries = random_entries(rng, 1, length_range=(6, 7), contact_prob=0.4)
        batch = batch_encode(entries)
        n = int((~batch.key_padding_mask[0]).sum())
        blocks = pack(batch)[1]
        dense = entries[0].contact_map.dense()

        x = rng.standard_normal((n, cfg.embed_dim))
        base = encoder_layers_forward(Tensor(x), blocks, cfg, params)
        for j in range(n):
            bumped = x.copy()
            bumped[j] += 0.05
            out = encoder_layers_forward(Tensor(bumped), blocks, cfg, params)
            delta = np.abs(out.data - base.data).max(axis=-1)
            for i in range(n):
                if dense[i, j]:
                    assert delta[i] > 1e-9
                else:
                    assert delta[i] == 0.0

    def test_positional_flag_changes_output(self):
        rng = np.random.default_rng(10)
        batch = batch_encode(random_entries(rng, 2, length_range=(4, 5)))
        cfg_pe = tiny_config()
        cfg_nope = tiny_config(use_positional=False)
        params = init_params(cfg_pe, rng)
        with_pe, _ = encoder_forward(batch, cfg_pe, params)
        without, _ = encoder_forward(batch, cfg_nope, params)
        assert not np.allclose(with_pe.data, without.data)


def padded_forward(batch: EncodedBatch, config: ModelConfig, params) -> tuple[Tensor, Tensor]:
    """The encoder as it ran before packing, without dropout: every layer on
    the padded (B, L, d) batch, attention as the matmul -> masked_softmax ->
    matmul chain over the (B, L, L) masks, pooling by masked_mean."""
    b, l = batch.tokens.shape
    d, h = config.embed_dim, config.n_heads
    dh = d // h

    def lin(t, name):
        return ad.linear(t, params[f"{name}.weight"].tensor, params[f"{name}.bias"].tensor)

    def norm(t, name):
        return ad.layer_norm(t, params[f"{name}.scale"].tensor, params[f"{name}.shift"].tensor)

    def heads(t, name):
        return ad.transpose(ad.reshape(lin(t, name), (b, l, h, dh)), (0, 2, 1, 3))

    embed = params["embed.weight"].tensor
    x = ad.mul(ad.embedding(embed, batch.tokens), math.sqrt(d))
    if config.use_positional:
        x = ad.add(x, positional_encoding(l, d, dtype=embed.dtype))
    for i in range(config.n_layers):
        pre = f"layers.{i}.attn"
        q, k, v = (heads(x, f"{pre}.{name}") for name in "qkv")
        scores = ad.mul(ad.matmul(q, ad.transpose(k, (0, 1, 3, 2))), 1.0 / math.sqrt(dh))
        ctx = ad.matmul(ad.masked_softmax(scores, batch.attention_masks[:, None]), v)
        attn = lin(ad.reshape(ad.transpose(ctx, (0, 2, 1, 3)), (b, l, d)), f"{pre}.out")
        x = norm(ad.add(x, attn), f"layers.{i}.ln1")
        ff = lin(ad.relu(lin(x, f"layers.{i}.ffn.w1")), f"layers.{i}.ffn.w2")
        x = norm(ad.add(x, ff), f"layers.{i}.ln2")
    pooled = ad.masked_mean(x, ~batch.key_padding_mask)
    return lin(pooled, "classifier"), pooled


class TestPackedForward:
    def test_pack_blocks_are_the_mask_squares_tiling_the_rows(self):
        rng = np.random.default_rng(31)
        batch = batch_encode(random_entries(rng, 9, length_range=(1, 6)))
        (rows, cols), blocks = pack(batch)
        lengths = (~batch.key_padding_mask).sum(axis=1)
        assert [block.shape[1] for block in blocks] == sorted(set(lengths))  # shortest first
        start = 0
        for block in blocks:
            count, n, _ = block.shape
            assert block.shape == (count, n, n)
            for m in range(count):
                seq = slice(start + m * n, start + (m + 1) * n)
                assert (rows[seq] == rows[seq][0]).all() and (cols[seq] == np.arange(n)).all()
                assert np.array_equal(block[m], batch.attention_masks[rows[seq][0], :n, :n])
            start += count * n
        assert start == len(rows) == lengths.sum()

    @pytest.mark.parametrize("seed", range(4))
    def test_matches_padded_oracle_with_gradients(self, seed):
        rng = np.random.default_rng([30, seed])
        cfg = tiny_config(n_layers=2, max_len=12, use_positional=seed % 2 == 0)
        params = init_params(cfg, rng, dtype=np.float64)
        # lengths 1-15 in a batch of 7: equal lengths share a group, and
        # lengths past max_len are truncated to it
        batch = batch_encode(random_entries(rng, 7, length_range=(1, 16)), cfg.max_len)
        class_weights = rng.uniform(0.5, 2.0, cfg.n_classes)
        results = []
        for forward in (encoder_forward, padded_forward):
            ad.zero_grads(params.values())
            logits, pooled = forward(batch, cfg, params)
            ad.weighted_cross_entropy(logits, batch.labels, class_weights).backward()
            grads = {name: p.tensor.grad.copy() for name, p in params.items()}
            results.append((logits.data, pooled.data, grads))
        (logits, pooled, grads), (logits_ref, pooled_ref, grads_ref) = results
        rounding = 1e-12
        assert np.abs(logits - logits_ref).max() <= rounding * np.abs(logits_ref).max()
        assert np.abs(pooled - pooled_ref).max() <= rounding * np.abs(pooled_ref).max()
        assert grads.keys() == grads_ref.keys() == param_shapes(cfg).keys()
        for name, g in grads.items():
            err = np.abs(g - grads_ref[name]).max()
            if name.endswith("attn.k.bias"):
                # Adding a constant to every key of a query shifts all its scores
                # by one amount, which a softmax ignores: the exact gradient is 0
                # and both paths return rounding noise, so only an absolute bound.
                assert err <= rounding, name
            else:
                assert err <= rounding * np.abs(grads_ref[name]).max(), name

    @given(lengths=st.lists(st.integers(1, 14), min_size=1, max_size=6),
           seed=st.integers(0, 2**32 - 1), data=st.data())
    @settings(max_examples=40, deadline=None)
    def test_logits_do_not_depend_on_batchmates_or_place(self, lengths, seed, data):
        cfg = tiny_config(n_layers=2, max_len=12)  # lengths 13 and 14 are truncated
        rng = np.random.default_rng(seed)
        params = init_params(cfg, rng, dtype=np.float64)
        entries = [random_entries(rng, 1, length_range=(n, n + 1))[0] for n in lengths]
        order = data.draw(st.permutations(range(len(entries))))
        together = encoder_forward(batch_encode([entries[i] for i in order], cfg.max_len),
                                   cfg, params)[0].data
        for place, i in enumerate(order):
            alone = encoder_forward(batch_encode([entries[i]], cfg.max_len), cfg, params)[0].data
            assert np.abs(together[place] - alone[0]).max() < 1e-12


class TestCheckpoint:
    def test_round_trip_is_bit_exact(self, tmp_path):
        rng = np.random.default_rng(11)
        cfg = tiny_config(n_layers=2)
        params = init_params(cfg, rng)
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, cfg, params, label_index_hash=hash_text("labels"))
        cfg2, params2, label_hash = load_checkpoint(path)
        assert cfg2 == cfg
        assert label_hash == hash_text("labels")
        assert list(params2) == list(params)
        for name in params:
            a, b = params[name].tensor.data, params2[name].tensor.data
            assert a.dtype == b.dtype and np.array_equal(a, b)

    def test_saved_twice_is_byte_identical(self, tmp_path):
        rng = np.random.default_rng(12)
        cfg = tiny_config()
        params = init_params(cfg, rng)
        p1, p2 = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
        save_checkpoint(p1, cfg, params)
        save_checkpoint(p2, cfg, params)
        assert p1.read_bytes() == p2.read_bytes()

    def test_config_mismatch_rejected(self, tmp_path):
        rng = np.random.default_rng(13)
        cfg = tiny_config()
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, cfg, init_params(cfg, rng))
        with pytest.raises(ConfigMismatch):
            load_checkpoint(path, expected_config=tiny_config(n_layers=3))

    def test_label_hash_mismatch_rejected(self, tmp_path):
        rng = np.random.default_rng(14)
        cfg = tiny_config()
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, cfg, init_params(cfg, rng), label_index_hash="aaa")
        with pytest.raises(ConfigMismatch):
            load_checkpoint(path, expected_label_hash="bbb")

    def test_version_1_file_loads_bit_exact(self, tmp_path):
        # v1 wrote a per-tensor "trainable" field (always true); v2 dropped it
        rng = np.random.default_rng(15)
        cfg = tiny_config()
        params = init_params(cfg, rng)
        manifest = [{"name": name, "shape": list(p.tensor.shape), "dtype": "<f4",
                     "trainable": True} for name, p in params.items()]
        header = json.dumps({"config": asdict(cfg), "label_index_hash": "v1",
                             "tensors": manifest}, sort_keys=True).encode("utf-8")
        path = tmp_path / "v1.ckpt"
        path.write_bytes(CHECKPOINT_MAGIC + struct.pack("<IQ", 1, len(header)) + header
                         + b"".join(p.tensor.data.tobytes() for p in params.values()))
        cfg2, params2, label_hash = load_checkpoint(path)
        assert cfg2 == cfg and label_hash == "v1"
        assert list(params2) == list(params)
        for name in params:
            a, b = params[name].tensor.data, params2[name].tensor.data
            assert a.dtype == b.dtype and np.array_equal(a, b)

    def test_unknown_version_rejected(self, tmp_path):
        rng = np.random.default_rng(16)
        cfg = tiny_config()
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, cfg, init_params(cfg, rng))
        raw = bytearray(path.read_bytes())
        raw[4:8] = struct.pack("<I", 3)
        path.write_bytes(bytes(raw))
        with pytest.raises(CheckpointError):
            load_checkpoint(path)

    def test_truncated_file_rejected(self, tmp_path):
        rng = np.random.default_rng(17)
        cfg = tiny_config()
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, cfg, init_params(cfg, rng))
        path.write_bytes(path.read_bytes()[:-3])
        with pytest.raises(CheckpointError, match="truncated"):
            load_checkpoint(path)

    def test_file_cut_short_after_the_size_check_rejected(self, tmp_path, monkeypatch):
        # the file loses 3 bytes between the size check and the reads
        rng = np.random.default_rng(23)
        cfg = tiny_config()
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, cfg, init_params(cfg, rng))
        path.write_bytes(path.read_bytes()[:-3])
        fstat = os.fstat

        def fstat_before_the_cut(fd):
            fields = list(fstat(fd))
            fields[6] += 3  # st_size
            return os.stat_result(fields)

        monkeypatch.setattr(os, "fstat", fstat_before_the_cut)
        with pytest.raises(CheckpointError, match="truncated tensor data: 'classifier.bias'"):
            load_checkpoint(path)

    @pytest.fixture
    def wide_params(self):
        """A config whose largest tensors, the FFN's (256, 1024) float32 weights, take 1 MiB."""
        cfg = tiny_config(embed_dim=256, n_heads=2, ffn_dim=1024)
        return cfg, init_params(cfg, np.random.default_rng(24))

    def test_save_makes_no_copy_of_a_tensor(self, tmp_path, wide_params):
        cfg, params = wide_params
        _, peak = peak_allocation(lambda: save_checkpoint(tmp_path / "model.ckpt", cfg, params))
        assert peak <= 0.25 * max(p.tensor.data.nbytes for p in params.values())

    def test_load_reads_each_tensor_into_its_array(self, tmp_path, wide_params):
        cfg, params = wide_params
        save_checkpoint(tmp_path / "model.ckpt", cfg, params)
        (_, loaded, _), peak = peak_allocation(lambda: load_checkpoint(tmp_path / "model.ckpt"))
        sizes = [p.tensor.data.nbytes for p in params.values()]
        assert peak <= sum(sizes) + 0.25 * max(sizes)
        assert all(loaded[n].tensor.data.tobytes() == p.tensor.data.tobytes()
                   for n, p in params.items())

    def test_trailing_byte_rejected(self, tmp_path):
        rng = np.random.default_rng(18)
        cfg = tiny_config()
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, cfg, init_params(cfg, rng))
        path.write_bytes(path.read_bytes() + b"\x00")
        with pytest.raises(CheckpointError, match="trailing"):
            load_checkpoint(path)

    def test_element_count_must_match_config(self, tmp_path):
        # a manifest (and data) one tensor short is consistent with itself
        rng = np.random.default_rng(19)
        cfg = tiny_config()
        params = init_params(cfg, rng)
        params.pop("classifier.bias")
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, cfg, params)
        with pytest.raises(CheckpointError, match="manifest does not match"):
            load_checkpoint(path)

    @pytest.mark.parametrize("edit", sorted(BAD_HEADERS))
    def test_bad_header_rejected(self, tmp_path, edit):
        rng = np.random.default_rng(21)
        cfg = tiny_config(n_layers=2)
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, cfg, init_params(cfg, rng))
        load_checkpoint(path)
        rewrite_checkpoint_header(path, BAD_HEADERS[edit])
        with pytest.raises(CheckpointError):
            load_checkpoint(path)

    @pytest.mark.parametrize("header_len", HUGE_HEADER_LENGTHS)
    def test_header_longer_than_file_rejected(self, tmp_path, header_len):
        rng = np.random.default_rng(22)
        cfg = tiny_config()
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, cfg, init_params(cfg, rng))
        set_header_length(path, header_len)
        with pytest.raises(CheckpointError, match="truncated checkpoint header"):
            load_checkpoint(path)

    def test_failed_write_keeps_previous_checkpoint(self, tmp_path, monkeypatch):
        from contactformer import model as model_mod
        rng = np.random.default_rng(20)
        cfg = tiny_config()
        params = init_params(cfg, rng)
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, cfg, params, label_index_hash="old")
        before = path.read_bytes()

        class FailingFile:
            """Passes three writes (magic, sizes, header) through, then raises."""

            def __init__(self, fh):
                self.fh, self.writes = fh, 0

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                self.fh.close()

            def write(self, data):
                self.writes += 1
                if self.writes > 3:
                    raise OSError("disk full")
                return self.fh.write(data)

        monkeypatch.setattr(model_mod, "open",
                            lambda *a, **k: FailingFile(open(*a, **k)), raising=False)
        with pytest.raises(OSError, match="disk full"):
            save_checkpoint(path, cfg, init_params(cfg, rng), label_index_hash="new")
        monkeypatch.undo()

        assert path.read_bytes() == before
        assert [f.name for f in tmp_path.iterdir()] == ["model.ckpt"]
        _, loaded, label_hash = load_checkpoint(path)
        assert label_hash == "old"
        for name in params:
            assert np.array_equal(loaded[name].tensor.data, params[name].tensor.data)

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "junk.ckpt"
        path.write_bytes(b"NOPE" + b"\x00" * 32)
        with pytest.raises(CheckpointError):
            load_checkpoint(path)
