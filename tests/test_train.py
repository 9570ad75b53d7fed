import gc
import importlib
import math
import tempfile
import weakref
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from contactformer import autodiff as ad
from contactformer.model import ModelConfig, init_params, load_checkpoint
from contactformer.optim import AdamState, adam_step
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


# the package's `train` attribute is the function, not this module
train_mod = importlib.import_module("contactformer.train")


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

    def test_divergence_raises_and_dumps_state(self, tmp_path, monkeypatch):
        entries = overfit_dataset(8, 4, length=6, seed=2)
        cfg = overfit_config(dropout=0.0)
        params = init_params(cfg, np.random.default_rng(0))
        params["classifier.weight"].tensor.data[0, 0] = np.nan
        monkeypatch.setattr(train_mod, "init_params", lambda *_: params)
        path = tmp_path / "model.ckpt"
        with pytest.raises(Divergence):
            train(cfg, entries, entries,
                  TrainConfig(lr=1e-3, batch_size=4, max_epochs=2, seed=0),
                  checkpoint_path=path)
        assert (tmp_path / "model.ckpt.divergence.json").exists()

    @given(target=st.integers(0, 10_000), element=st.integers(0, 10**6),
           value=st.sampled_from([np.inf, -np.inf, np.nan]), bad_step=st.integers(0, 3))
    @settings(max_examples=12, deadline=None)
    def test_non_finite_gradient_stops_before_adam(self, target, element, value, bad_step):
        """An inf or NaN put into one gradient after backward() raises
        Divergence and leaves the parameters and Adam state as they were."""
        entries = overfit_dataset(8, 4, length=6, seed=2)
        cfg = overfit_config(dropout=0.0)
        params = init_params(cfg, np.random.default_rng(0))
        name = sorted(params)[target % len(params)]
        states, snapshots, steps = [], [], []

        def state_bytes():
            data = {n: p.tensor.data.tobytes() for n, p in params.items()}
            state = states[0] if states else AdamState()
            data.update({("m", n): a.tobytes() for n, a in state.m.items()})
            data.update({("v", n): a.tobytes() for n, a in state.v.items()})
            data["t"] = state.t
            return data

        def make_state():
            states.append(AdamState())
            return states[0]

        def adam(*args, **kwargs):
            out = adam_step(*args, **kwargs)
            snapshots.append(state_bytes())
            return out

        def backward(tensor, grad=None):
            real_backward(tensor, grad)
            if len(steps) == bad_step:
                g = params[name].tensor.grad
                g.flat[element % g.size] = value
            steps.append(1)

        real_backward = ad.Tensor.backward
        before = state_bytes()
        with tempfile.TemporaryDirectory() as tmp, pytest.MonkeyPatch.context() as mp:
            mp.setattr(train_mod, "AdamState", make_state)
            mp.setattr(train_mod, "adam_step", adam)
            mp.setattr(ad.Tensor, "backward", backward)
            mp.setattr(train_mod, "init_params", lambda *_: params)
            path = Path(tmp) / "model.ckpt"
            with pytest.raises(Divergence, match="gradient"):
                train(cfg, entries, entries,
                      TrainConfig(lr=1e-3, batch_size=4, max_epochs=2, seed=0),
                      checkpoint_path=path)
            assert (Path(tmp) / "model.ckpt.divergence.json").exists()
        assert len(snapshots) == bad_step
        assert state_bytes() == (snapshots[-1] if snapshots else before)

    @pytest.mark.parametrize("lr", [-1.0, math.nan, math.inf])
    def test_rejects_negative_or_non_finite_lr(self, lr):
        with pytest.raises(ValueError, match="lr must be finite and >= 0"):
            TrainConfig(lr=lr)

    @pytest.mark.parametrize("field, value", [
        ("max_epochs", 0), ("max_epochs", -1), ("patience", 0), ("patience", -1), ("seed", -1),
        ("batch_size", 0), ("max_epochs", 2.0),
    ])
    def test_rejects_out_of_range_integer(self, field, value):
        with pytest.raises(ValueError, match=f"{field} must be an integer >= "):
            TrainConfig(**{field: value})

    def test_smallest_integers_accepted(self):
        cfg = TrainConfig(batch_size=1, max_epochs=1, patience=1, seed=0)
        assert (cfg.batch_size, cfg.max_epochs, cfg.patience, cfg.seed) == (1, 1, 1, 0)

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

    @pytest.mark.parametrize("batch_size", [0, -2])
    def test_predict_rejects_non_positive_batch_size(self, batch_size):
        entries = overfit_dataset(4, 4, length=8, seed=8)
        cfg = overfit_config()
        from contactformer.model import init_params
        params = init_params(cfg, np.random.default_rng(0))
        with pytest.raises(ValueError, match="batch_size must be >= 1"):
            list(predict(entries, cfg, params, batch_size=batch_size))

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


@pytest.fixture
def no_gc():
    """Only reference counting frees memory inside the test."""
    gc.disable()
    try:
        yield
    finally:
        gc.enable()


class OutputRecorder:
    """Weak references to the data of every tensor an autodiff op makes while .on is
    true, and the name of each op."""

    def __init__(self, monkeypatch):
        self.refs, self.ops, self.on = [], [], True
        make = ad._make

        def recording(data, parents, grads):
            out = make(data, parents, grads)
            if self.on:
                self.refs.append(weakref.ref(out.data))
                self.ops.append(grads.__qualname__.split(".")[0])  # e.g. "relu.<locals>.<lambda>"
            return out

        monkeypatch.setattr(ad, "_make", recording)


class TestAutodiffGraph:
    def test_backward_frees_the_graph(self, monkeypatch, no_gc):
        from contactformer.data import batch_encode, compute_class_weights
        from contactformer.model import encoder_forward

        entries = overfit_dataset(8, 4, length=6, seed=9)
        cfg = overfit_config(dropout=0.1)
        params = init_params(cfg, np.random.default_rng(0))
        batch = batch_encode(entries)
        recorder = OutputRecorder(monkeypatch)
        refs = recorder.refs
        logits = encoder_forward(batch, cfg, params, train_mode=True,
                                 rng=np.random.default_rng(1))[0]
        # after the forward pass, an op's output is alive only if a backward closure
        # reads it: linear reads its input, masked_attention q, k and v, linear_relu
        # (recorded as its linear) its output. layer_norm keeps its own xhat, dropout
        # a bool mask; add and scatter keep shapes and indices, masked_mean its counts.
        layer = [("linear", True)] * 3 + [
            ("masked_attention", True), ("linear", False), ("dropout", False), ("add", False),
            ("layer_norm", True), ("linear", True), ("linear", False),
            ("dropout", False), ("add", False), ("layer_norm", True)]
        kept = [("embedding", False), ("mul", False), ("add", False), ("dropout", True),
                *layer * cfg.n_layers]
        kept[-1] = ("layer_norm", False)  # the last layer's output feeds scatter alone
        kept += [("scatter", False), ("masked_mean", True), ("linear", True)]  # pooled, logits
        assert [(op, r() is not None) for op, r in zip(recorder.ops, refs)] == kept
        loss = ad.weighted_cross_entropy(logits, batch.labels,
                                         compute_class_weights(batch.labels, cfg.n_classes))
        loss.backward()
        alive = [r() for r in refs if r() is not None]
        assert len(alive) == 2 and alive[0] is logits.data and alive[1] is loss.data
        assert all(p.tensor.grad is not None for p in params.values())

    def test_no_step_graph_outlives_its_backward(self, monkeypatch, no_gc):
        # at each forward pass, nothing made by an earlier training forward pass
        # is alive, except the logits and pooled outputs train() still names
        entries = overfit_dataset(8, 4, length=6, seed=2)
        recorder = OutputRecorder(monkeypatch)
        recorder.on = False
        earlier, live_at_call = [], []
        forward = train_mod.encoder_forward

        def checked_forward(batch, config, params, train_mode=False, rng=None):
            live_at_call.append(sum(r() is not None for r in earlier))
            recorder.on = train_mode
            try:
                logits, pooled = forward(batch, config, params, train_mode, rng)
            finally:
                recorder.on = False
            earlier.extend(r for r in recorder.refs
                           if r() is not logits.data and r() is not pooled.data)
            recorder.refs.clear()
            return logits, pooled

        monkeypatch.setattr(train_mod, "encoder_forward", checked_forward)
        train(overfit_config(dropout=0.1), entries, entries[:6],
              TrainConfig(batch_size=4, max_epochs=2, patience=10, seed=0))
        # the baseline's 2 validation batches, then per epoch 2 steps and 2 validation batches
        assert live_at_call == [0] * 10 and len(earlier) > 40

    def test_no_gradient_is_alive_during_a_training_forward(self, monkeypatch):
        """The previous step's .grad buffers are freed before the next step's
        activations are built, not after."""
        entries = overfit_dataset(8, 4, length=6, seed=2)
        forward, steps = train_mod.encoder_forward, []

        def checked_forward(batch, config, params, train_mode=False, rng=None):
            if train_mode:
                steps.append(sum(p.tensor.grad is not None for p in params.values()))
            return forward(batch, config, params, train_mode, rng)

        monkeypatch.setattr(train_mod, "encoder_forward", checked_forward)
        result = train(overfit_config(dropout=0.1), entries, entries[:6],
                       TrainConfig(batch_size=4, max_epochs=2, patience=10, seed=0))
        assert steps == [0, 0, 0, 0]  # 2 epochs of 2 steps
        assert all(p.tensor.grad is not None for p in result.params.values())

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
        stack, seen, n_parents = [loss._node], set(), 0
        while stack:
            node = stack.pop()
            if id(node) in seen:
                continue
            seen.add(id(node))
            for parent in node._parents:
                assert parent.requires_grad, f"constant parent {parent!r}"
                n_parents += 1
                if isinstance(parent, ad.Node):  # a Tensor parent is a leaf
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
        assert len({m.ij.tobytes() for m in maps.values()}) == 4


def previous_masked_attention(q, k, v, blocks, n_heads):
    """ad.masked_attention before its dense path for blocks that allow every
    entry: each block's allowed entries gathered by a flat index, for all modes."""
    h, qd, kd, vd = n_heads, q.data, k.data, v.data  # (its shape checks left out)
    shapes = [np.shape(b) for b in blocks]
    starts = np.cumsum([0] + [math.prod(s[:2]) for s in shapes]).tolist()  # first rows
    c = np.asarray(1.0 / math.sqrt(q.shape[1] // h), dtype=q.data.dtype)

    def heads(a: np.ndarray, number: int) -> np.ndarray:
        """Block number's rows of a (T, H * w) array as an (H, count, n, w) view."""
        count, n, _ = shapes[number]
        rows = a[starts[number]:starts[number + 1]]
        return rows.reshape(count, n, h, a.shape[1] // h).transpose(2, 0, 1, 3)

    def allowed(number: int) -> tuple[np.ndarray, np.ndarray]:
        """Flat index m n^2 + i n + j of each allowed entry in row-major order, and row degrees."""
        count, n, _ = shapes[number]
        index = np.flatnonzero(~np.asarray(blocks[number], dtype=bool))
        return index, np.bincount(index // n, minlength=count * n)

    def row_sums(s: np.ndarray, degree: np.ndarray) -> np.ndarray:
        """s.sum(-1) of an (H, count, n, n) block, repeated to line up with its (H, E) entries."""
        return np.repeat(s.sum(axis=-1).reshape(h, -1), degree, axis=1)

    # np.empty: the blocks tile the rows, so one block writes each row (here and in backward)
    out = np.empty(vd.shape, dtype=vd.dtype)
    weights = []
    for number in range(len(shapes)):
        index, degree = allowed(number)
        # a C-ordered (H, count, n, n) buffer, so that each head's scores are one flat run
        s = np.matmul(heads(qd, number), np.swapaxes(heads(kd, number), -1, -2),
                      out=np.empty((h, *shapes[number]), dtype=qd.dtype))
        dense = s.reshape(h, -1)
        w = np.take(dense, index, axis=1)
        w *= c
        w -= np.repeat(np.maximum.reduceat(w, np.cumsum(degree) - degree, axis=1), degree, axis=1)
        np.exp(w, out=w)
        s.fill(0)
        dense[:, index] = w
        w /= row_sums(s, degree)
        dense[:, index] = w
        heads(out, number)[...] = s @ heads(vd, number)
        weights.append(w)

    def backward(g):
        gq, gk, gv = (np.empty(a.shape, dtype=a.dtype) for a in (qd, kd, vd))
        for number, w in enumerate(weights):
            index, degree = allowed(number)
            qg, kg, vg, gg = (heads(a, number) for a in (qd, kd, vd, g))
            # one dense buffer: the weight gradient gs, then p, then gs * p, then the score gradient
            s = np.matmul(gg, np.swapaxes(vg, -1, -2), out=np.empty((h, *shapes[number]), qd.dtype))
            dense = s.reshape(h, -1)
            gw = np.take(dense, index, axis=1)
            s.fill(0)
            dense[:, index] = w
            heads(gv, number)[...] = np.swapaxes(s, -1, -2) @ gg
            dense[:, index] = gw * w
            gw -= row_sums(s, degree)
            gw *= w
            gw *= c
            dense[:, index] = gw
            heads(gq, number)[...] = s @ kg
            heads(gk, number)[...] = np.swapaxes(np.swapaxes(qg, -1, -2) @ s, -1, -2)
        return gq, gk, gv

    return ad._make(out, (q, k, v), backward)


class TestFullModeFastPath:
    def test_full_mode_steps_match_the_gathering_kernel(self, monkeypatch):
        """Three full-mode training steps and an eval pass: the losses, every
        parameter gradient and the eval logits equal those of the kernel that
        gathers every block, bit for bit."""
        from contactformer.contacts import ContactMap
        from contactformer.data import Entry, batch_encode, compute_class_weights
        from contactformer.model import encoder_forward

        rng = np.random.default_rng(23)
        lengths = [3, 7, 7, 12, 1, 12, 9, 5]
        entries = [Entry(f"e{i}", "".join(rng.choice(list("ACDEFGHIKLMNPQRSTVWY"), n)),
                         ContactMap(n), i % 4) for i, n in enumerate(lengths)]
        cfg = overfit_config(attention_mode="full", dropout=0.1)
        batch = batch_encode(entries, cfg.max_len, cfg.attention_mode)
        weights = compute_class_weights(batch.labels, cfg.n_classes)
        kernel, dense_blocks = ad.masked_attention, []

        def recording(q, k, v, blocks, n_heads):
            dense_blocks.extend(not b.any() for b in blocks)
            return kernel(q, k, v, blocks, n_heads)

        def run(attention):
            monkeypatch.setattr(ad, "masked_attention", attention)
            params = init_params(cfg, np.random.default_rng(5), dtype=np.float32)
            state, dropout_rng, arrays = AdamState(), np.random.default_rng(6), []
            for _ in range(3):
                ad.zero_grads(params.values())
                logits, _ = encoder_forward(batch, cfg, params, train_mode=True, rng=dropout_rng)
                loss = ad.weighted_cross_entropy(logits, batch.labels, weights)
                loss.backward()
                arrays += [loss.data.copy()] + [p.tensor.grad.copy() for p in params.values()]
                adam_step(params, state, lr=1e-3)
            logits, _ = encoder_forward(batch, cfg, params, train_mode=False)
            return arrays + [logits.data]

        ours, reference = run(recording), run(previous_masked_attention)
        assert dense_blocks and all(dense_blocks)  # every block took the dense path
        assert len(ours) == len(reference)
        for a, b in zip(ours, reference):
            assert a.dtype == b.dtype == np.float32 and np.array_equal(a, b)
