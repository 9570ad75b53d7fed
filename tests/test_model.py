import json
import math
import struct
from dataclasses import asdict

import numpy as np
import pytest

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
    positional_encoding,
    save_checkpoint,
)

from conftest import tiny_config


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
    """Widen a batch by `extra` pad columns (tokens 0, masks true)."""
    b, l = batch.tokens.shape
    tokens = np.zeros((b, l + extra), dtype=batch.tokens.dtype)
    tokens[:, :l] = batch.tokens
    key_pad = np.ones((b, l + extra), dtype=bool)
    key_pad[:, :l] = batch.key_padding_mask
    attn = np.ones((b, l + extra, l + extra), dtype=bool)
    attn[:, :l, :l] = batch.attention_masks
    return EncodedBatch(tokens, key_pad, attn, batch.labels)


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


class TestConfigValidation:
    def test_embed_dim_must_divide_heads(self):
        with pytest.raises(ValueError):
            ModelConfig(n_classes=2, embed_dim=10, n_heads=4)

    def test_bad_attention_mode(self):
        with pytest.raises(ValueError):
            ModelConfig(n_classes=2, attention_mode="banana")

    def test_default_ffn_is_4x(self):
        assert ModelConfig(n_classes=2, embed_dim=32, n_heads=4).ffn_dim == 128


class TestMultiHeadAttention:
    def test_single_head_matches_dense_oracle(self):
        rng = np.random.default_rng(0)
        d = 2
        x_np = rng.standard_normal((1, 2, d))
        params = init_params(ModelConfig(n_classes=2, embed_dim=d, n_heads=1,
                                         n_layers=1, ffn_dim=4, dropout=0.0),
                             rng, dtype=np.float64)
        pfx = "layers.0.attn"
        attn_mask = np.zeros((1, 2, 2), dtype=bool)
        out = multi_head_attention(Tensor(x_np), attn_mask, params,
                                   n_heads=1, prefix=pfx)

        # explicit 2x2 recomputation
        def w(name):
            return params[f"{pfx}.{name}.weight"].tensor.data
        def b(name):
            return params[f"{pfx}.{name}.bias"].tensor.data
        q = x_np[0] @ w("q") + b("q")
        k = x_np[0] @ w("k") + b("k")
        v = x_np[0] @ w("v") + b("v")
        scores = q @ k.T / math.sqrt(d)
        e = np.exp(scores - scores.max(axis=1, keepdims=True))
        weights = e / e.sum(axis=1, keepdims=True)
        expected = (weights @ v) @ w("out") + b("out")
        assert np.allclose(out.data[0], expected, atol=1e-12)

    def test_attention_rows_sum_to_one_and_masked_entries_zero(self, monkeypatch):
        rng = np.random.default_rng(1)
        cfg = tiny_config()
        entries = random_entries(rng, 5)
        batch = batch_encode(entries)
        params = init_params(cfg, rng)
        x = ad.embedding(params["embed.weight"].tensor, batch.tokens)

        # with v the identity (d_h = L), the fused op's output is its weights
        captured = []
        original = ad.masked_attention

        def capture(q, k, v, disallow, scale):
            eye = Tensor(np.broadcast_to(np.eye(v.shape[-2], dtype=v.dtype),
                                         v.shape[:-1] + (v.shape[-2],)))
            captured.append(original(q, k, eye, disallow, scale).data)
            return original(q, k, v, disallow, scale)

        monkeypatch.setattr(ad, "masked_attention", capture)
        multi_head_attention(x, batch.attention_masks, params, cfg.n_heads,
                             prefix="layers.0.attn")
        (weights,) = captured
        lengths = (~batch.key_padding_mask).sum(axis=1)
        for bi, n in enumerate(lengths):
            valid = weights[bi, :, :n, :]
            assert np.allclose(valid.sum(axis=-1), 1.0, atol=1e-6)
            disallow = (batch.attention_masks[bi][None, :, :]
                        | batch.key_padding_mask[bi][None, None, :])
            assert (weights[bi][np.broadcast_to(disallow, weights[bi].shape)] == 0).all()
            # padded keys receive zero attention from every query
            assert (weights[bi, :, :, n:] == 0).all()


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
        x = Tensor(np.zeros(batch.tokens.shape + (cfg.embed_dim,), dtype=np.float32))
        states = encoder_layers_forward(x, batch.attention_masks, cfg, params)
        assert states.shape == batch.tokens.shape + (8,)

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

        def states_for(x_np):
            return encoder_layers_forward(Tensor(x_np), batch.attention_masks,
                                          cfg, params).data

        x = rng.standard_normal((1, batch.tokens.shape[1], cfg.embed_dim))
        base = states_for(x)
        bumped = x.copy()
        bumped[0, 2] += 0.1
        delta = np.abs(states_for(bumped) - base).max(axis=-1)[0]
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
        dense = entries[0].contact_map.dense()

        x = rng.standard_normal((1, n, cfg.embed_dim))
        base = encoder_layers_forward(Tensor(x), batch.attention_masks, cfg, params)
        for j in range(n):
            bumped = x.copy()
            bumped[0, j] += 0.05
            out = encoder_layers_forward(Tensor(bumped), batch.attention_masks,
                                         cfg, params)
            delta = np.abs(out.data - base.data).max(axis=-1)[0]
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
        with pytest.raises(CheckpointError, match="elements"):
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
