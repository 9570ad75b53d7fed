import math

import numpy as np
import pytest

from contactformer.model import ModelConfig, load_checkpoint
from contactformer.synthetic import overfit_dataset, topology_dataset
from contactformer.train import (
    Divergence,
    EpochRecord,
    TrainConfig,
    TrainResult,
    _eval_loss,
    evaluate,
    history_to_csv,
    predict,
    train,
)


def overfit_config(**overrides):
    base = dict(n_classes=4, embed_dim=16, n_heads=2, n_layers=2, ffn_dim=32,
                max_len=64)
    base.update(overrides)
    return ModelConfig(**base)


class TestTrainingLoop:
    def test_overfits_separable_synthetic_data(self):
        entries = overfit_dataset(32, 4, length=10, seed=0)
        cfg = overfit_config()
        result = train(cfg, entries, entries,
                       TrainConfig(lr=1e-3, batch_size=4, max_epochs=40,
                                   patience=1000, seed=0))
        # validating on the train set: val_loss is the post-epoch train loss
        assert result.history[0].val_loss < math.log(4)
        assert any(r.val_acc == 1.0 for r in result.history)

    def test_fixed_seed_reproduces_epoch_one_loss(self):
        entries = overfit_dataset(16, 4, length=8, seed=3)
        cfg = overfit_config()
        tcfg = TrainConfig(lr=1e-3, batch_size=4, max_epochs=1, patience=10, seed=11)
        a = train(cfg, entries, entries, tcfg)
        b = train(cfg, entries, entries, tcfg)
        assert a.history[0].train_loss == b.history[0].train_loss
        assert a.history[0].val_loss == b.history[0].val_loss

    def test_frozen_lr_stops_after_exactly_patience_epochs(self):
        entries = overfit_dataset(8, 4, length=6, seed=1)
        cfg = overfit_config(dropout=0.0)
        result = train(cfg, entries, entries,
                       TrainConfig(lr=0.0, batch_size=4, max_epochs=50,
                                   patience=3, seed=0))
        assert len(result.history) == 3
        assert result.stopped_early

    def test_checkpoint_holds_best_validation_loss(self, tmp_path):
        train_set = overfit_dataset(24, 4, length=8, seed=5)
        val_set = overfit_dataset(8, 4, length=8, seed=6)
        cfg = overfit_config()
        path = tmp_path / "best.ckpt"
        result = train(cfg, train_set, val_set,
                       TrainConfig(lr=1e-3, batch_size=4, max_epochs=10,
                                   patience=50, seed=0),
                       checkpoint_path=path)
        loaded_cfg, loaded_params, _ = load_checkpoint(path)
        assert loaded_cfg == cfg
        weights = np.ones(cfg.n_classes)
        from contactformer.data import compute_class_weights
        weights = compute_class_weights([e.label for e in train_set], cfg.n_classes)
        loss, _ = _eval_loss(val_set, cfg, loaded_params, weights, batch_size=4)
        assert abs(loss - result.best_val_loss) < 1e-9
        # saves are strictly improving, so best <= every epoch's val loss
        assert all(result.best_val_loss <= r.val_loss + 1e-12 for r in result.history)

    def test_divergence_raises_and_dumps_state(self, tmp_path):
        entries = overfit_dataset(8, 4, length=6, seed=2)
        cfg = overfit_config(dropout=0.0)
        from contactformer.model import init_params
        params = init_params(cfg, np.random.default_rng(0))
        params["classifier.weight"].tensor.data[0, 0] = np.nan
        path = tmp_path / "model.ckpt"
        with pytest.raises(Divergence):
            train(cfg, entries, entries,
                  TrainConfig(lr=1e-3, batch_size=4, max_epochs=2, seed=0),
                  checkpoint_path=path, params=params)
        assert (tmp_path / "model.ckpt.divergence.json").exists()

    def test_rejects_empty_sets(self):
        entries = overfit_dataset(4, 4, length=6)
        with pytest.raises(ValueError):
            train(overfit_config(), [], entries, TrainConfig())

    def test_class_weighting_flag(self):
        entries = overfit_dataset(16, 4, length=6, seed=4)
        cfg = overfit_config(dropout=0.0)
        on = train(cfg, entries, entries,
                   TrainConfig(lr=1e-3, batch_size=8, max_epochs=1, seed=0,
                               class_weighting=True))
        off = train(cfg, entries, entries,
                    TrainConfig(lr=1e-3, batch_size=8, max_epochs=1, seed=0,
                                class_weighting=False))
        # balanced classes: balanced weights are all 1, so the losses agree
        assert on.history[0].train_loss == off.history[0].train_loss


class TestAttentionModes:
    def test_modes_identical_on_all_ones_contact_corpus(self):
        # complete-graph contact maps make the two mask constructions equal,
        # so the whole training trajectory must match bit for bit
        from contactformer.contacts import ContactMap
        from contactformer.data import ALPHABET, Entry

        rng = np.random.default_rng(0)
        entries = []
        for k in range(16):
            n = int(rng.integers(3, 9))
            seq = "".join(rng.choice(list(ALPHABET), size=n))
            complete = tuple((i, j) for i in range(n) for j in range(i + 1, n))
            entries.append(Entry(f"e{k}", seq, ContactMap(n, complete), k % 4))

        tcfg = TrainConfig(lr=1e-3, batch_size=4, max_epochs=2, patience=10, seed=0)
        histories = {}
        for mode in ("contact", "full"):
            cfg = overfit_config(attention_mode=mode)
            histories[mode] = train(cfg, entries, entries, tcfg).history
        assert histories["contact"] == histories["full"]


class TestEvaluate:
    def test_report_and_outputs_align(self):
        entries = overfit_dataset(12, 4, length=8, seed=7)
        cfg = overfit_config()
        result = train(cfg, entries, entries,
                       TrainConfig(lr=1e-3, batch_size=4, max_epochs=5,
                                   patience=50, seed=0))
        report, prob, pooled = evaluate(cfg, result.params, entries)
        assert prob.shape == (12, 4)
        assert pooled.shape == (12, cfg.embed_dim)
        assert np.allclose(prob.sum(axis=1), 1.0, atol=1e-6)
        preds = prob.argmax(axis=1)
        labels = np.array([e.label for e in entries])
        assert report.accuracy == (preds == labels).mean()

    def test_predict_yields_every_entry_in_order(self):
        entries = overfit_dataset(10, 4, length=8, seed=8)
        cfg = overfit_config()
        from contactformer.model import init_params
        params = init_params(cfg, np.random.default_rng(0))
        batches = list(predict(entries, cfg, params, batch_size=4))
        assert [labels.size for labels, _, _ in batches] == [4, 4, 2]
        assert (np.concatenate([labels for labels, _, _ in batches]).tolist()
                == [e.label for e in entries])
        assert all(logits.dtype == np.float64 for _, logits, _ in batches)
        _, _, pooled = evaluate(cfg, params, entries, batch_size=4)
        assert np.array_equal(np.concatenate([p for _, _, p in batches]), pooled)

    def test_empty_entries_rejected(self):
        cfg = overfit_config()
        from contactformer.model import init_params
        with pytest.raises(ValueError):
            evaluate(cfg, init_params(cfg, np.random.default_rng(0)), [])


class TestFloat32:
    def test_training_step_stays_float32(self, monkeypatch):
        from contactformer import autodiff as ad
        from contactformer.data import batch_encode, compute_class_weights
        from contactformer.model import encoder_forward, init_params

        entries = overfit_dataset(8, 4, length=6, seed=9)
        cfg = overfit_config(dropout=0.1)
        params = init_params(cfg, np.random.default_rng(0), dtype=np.float32)
        batch = batch_encode(entries)
        weights = compute_class_weights(batch.labels, cfg.n_classes)

        # every op builds its output through autodiff._make
        dtypes = []
        make = ad._make

        def recording(data, parents, backward):
            out = make(data, parents, backward)
            dtypes.append(out.data.dtype)
            return out

        monkeypatch.setattr(ad, "_make", recording)
        logits, pooled = encoder_forward(batch, cfg, params, train_mode=True,
                                         rng=np.random.default_rng(1))
        loss = ad.weighted_cross_entropy(logits, batch.labels, weights)
        loss.backward()
        assert dtypes and set(dtypes) == {np.dtype(np.float32)}
        assert logits.dtype == pooled.dtype == loss.dtype == np.float32
        assert all(p.tensor.grad.dtype == np.float32 for p in params.values())


class TestAutodiffGraph:
    def test_every_recorded_parent_requires_grad(self):
        # constants (embedding scale, positional table, 1/sqrt(d_h)) stay out
        from contactformer import autodiff as ad
        from contactformer.data import batch_encode, compute_class_weights
        from contactformer.model import encoder_forward, init_params

        entries = overfit_dataset(8, 4, length=6, seed=9)
        cfg = overfit_config(dropout=0.1)
        params = init_params(cfg, np.random.default_rng(0), dtype=np.float32)
        batch = batch_encode(entries)
        logits, _ = encoder_forward(batch, cfg, params, train_mode=True,
                                    rng=np.random.default_rng(1))
        loss = ad.weighted_cross_entropy(logits, batch.labels,
                                         compute_class_weights(batch.labels, cfg.n_classes))
        stack, seen, n_parents = [loss], set(), 0
        while stack:
            node = stack.pop()
            if id(node) in seen:
                continue
            seen.add(id(node))
            for parent in node._parents:
                assert parent.requires_grad, f"constant parent {parent!r}"
                n_parents += 1
                stack.append(parent)
        assert n_parents > len(params)


class TestHistoryCsv:
    def test_format(self):
        history = [EpochRecord(1, 1.5, 1.25, 0.5)]
        text = history_to_csv(history)
        assert text.splitlines()[0] == "epoch,train_loss,val_loss,val_acc"
        assert text.splitlines()[1] == "1,1.5,1.25,0.5"


class TestTopologyDatasetContract:
    def test_sequences_identically_distributed_across_classes(self):
        # same generator stream regardless of label: label is decided by
        # index parity, sequence by the rng, so marginals match by design
        train_set, _, _ = topology_dataset(200, 8, 8, length=12, seed=1)
        by_label = {}
        for e in train_set:
            by_label.setdefault(e.label, []).append(e.sequence)
        assert sorted(by_label) == [0, 1, 2, 3]
        lengths = {len(s) for seqs in by_label.values() for s in seqs}
        assert lengths == {12}

    def test_topologies_differ_by_class(self):
        train_set, _, _ = topology_dataset(8, 4, 4, length=10, seed=0)
        maps = {e.label: e.contact_map for e in train_set}
        assert len({m.pairs for m in maps.values()}) == 4
