"""Acceptance gate: every exit criterion at its stated tolerance.

Each test covers one criterion; the terminal summary (see conftest)
prints a PASS/FAIL line per criterion. The structure-signal experiment
is the long pole (a few minutes on a desktop CPU); everything else runs
in seconds.
"""

import itertools
import time

import numpy as np

from contactformer import autodiff as ad
from contactformer import cli
from contactformer.autodiff import Tensor
from contactformer.contacts import ContactMap, build_contact_map
from contactformer.data import (
    ALPHABET,
    Entry,
    batch_encode,
    load_entries,
    stratified_split,
)
from contactformer.metrics import instance_auc_scores, weighted_prf
from contactformer.model import (
    ModelConfig,
    encoder_forward,
    encoder_layers_forward,
    init_params,
    load_checkpoint,
    save_checkpoint,
)
from contactformer.synthetic import overfit_dataset, topology_dataset
from contactformer.train import TrainConfig, evaluate, train

from conftest import random_rotation, tiny_config
from test_metrics import oracle_prf, oracle_roc_auc
from test_model import pad_batch, random_entries


def test_gradient_fidelity():
    """Full tiny model passes the finite-difference check in under 30 s."""
    started = time.perf_counter()
    cfg = tiny_config()  # embed 8, 2 heads, 1 layer, ffn 32, C=4
    params = init_params(cfg, np.random.default_rng(0), dtype=np.float64)
    entries = overfit_dataset(4, 4, length=6, seed=1)  # L = 6
    batch = batch_encode(entries)

    def f():
        logits, _ = encoder_forward(batch, cfg, params, train_mode=False)
        return ad.weighted_cross_entropy(logits, batch.labels, np.ones(4))

    # h = 5e-4: small enough for truncation, large enough that the fp
    # noise on dead coordinates (key bias) stays under the 1e-8 floor
    err = ad.grad_check(f, [p.tensor for p in params.values()], h=5e-4)
    elapsed = time.perf_counter() - started
    assert err < 1e-4, f"max relative error {err:.3e}"
    assert elapsed < 30.0, f"took {elapsed:.1f}s"


def test_mask_locality():
    """Perturbing residue j moves position i iff contact(i, j) or i = j."""
    started = time.perf_counter()
    rng = np.random.default_rng(7)
    cfg = tiny_config(use_positional=False)
    for _ in range(100):
        n = int(rng.integers(3, 9))
        params = init_params(cfg, rng, dtype=np.float64)
        pairs = tuple((i, j) for i in range(n) for j in range(i + 1, n)
                      if rng.random() < 0.35)
        cmap = ContactMap(n, pairs)
        entry = Entry("loc", "A" * n, cmap, 0)
        batch = batch_encode([entry])
        dense = cmap.dense()

        x = rng.standard_normal((1, n, cfg.embed_dim))
        base = encoder_layers_forward(Tensor(x), batch.attention_masks, cfg, params)
        for j in range(n):
            bumped = x.copy()
            bumped[0, j] += 0.05 * rng.standard_normal(cfg.embed_dim) + 0.05
            out = encoder_layers_forward(Tensor(bumped), batch.attention_masks,
                                         cfg, params)
            delta = np.abs(out.data - base.data).max(axis=-1)[0]
            for i in range(n):
                if dense[i, j]:
                    assert delta[i] > 1e-9, f"contact ({i},{j}) had no effect"
                else:
                    assert delta[i] <= 1e-9, f"non-contact ({i},{j}) leaked"
    elapsed = time.perf_counter() - started
    assert elapsed < 60.0, f"took {elapsed:.1f}s"


def test_padding_invariance():
    """Up to 64 extra pad tokens move logits by less than 1e-5."""
    rng = np.random.default_rng(13)
    for case in range(50):
        cfg = tiny_config(n_layers=int(rng.integers(1, 3)), max_len=128)
        params = init_params(cfg, rng)
        batch = batch_encode(random_entries(rng, int(rng.integers(1, 4))))
        extra = int(rng.integers(1, 65))
        base, _ = encoder_forward(batch, cfg, params)
        wide, _ = encoder_forward(pad_batch(batch, extra), cfg, params)
        worst = np.abs(base.data - wide.data).max()
        assert worst < 1e-5, f"case {case}: logits moved by {worst:.2e}"


def test_contact_map_oracle():
    """Exact match with O(N^2) recomputation; invariant under rigid motions."""
    from test_contacts import brute_force_pairs

    rng = np.random.default_rng(21)
    for _ in range(200):
        n = int(rng.integers(2, 51))
        pos = rng.uniform(0, 40, size=(n, 3))
        cmap = build_contact_map(pos)
        assert cmap.pairs == brute_force_pairs(pos, 8.0)
        for _ in range(20):
            rot = random_rotation(rng)
            shift = rng.uniform(-100, 100, size=3)
            assert build_contact_map(pos @ rot.T + shift) == cmap


def test_metric_oracles():
    """weighted_prf and per-instance AUC vs independent oracles, 1e-12."""
    # exhaustive label configurations, B <= 6, C <= 3
    for c in (1, 2, 3):
        for b in range(1, 7):
            for y_true in itertools.product(range(c), repeat=b):
                for y_pred in itertools.product(range(c), repeat=b):
                    got = weighted_prf(list(y_true), list(y_pred), c)[:3]
                    want = oracle_prf(y_true, y_pred, c)
                    assert np.allclose(got, want, atol=1e-12), (y_true, y_pred)

    # exhaustive-label AUC with deterministic tie-rich score grids
    for c in (2, 3):
        grid_rows = [np.array(v, dtype=float)
                     for v in itertools.product(range(4), repeat=c)
                     if sum(v) > 0]
        for b in range(1, 7):
            for idx, labels in enumerate(itertools.product(range(c), repeat=b)):
                scores = np.stack([grid_rows[(idx + k) % len(grid_rows)]
                                   for k in range(b)])
                got = instance_auc_scores(scores, list(labels))
                want = [oracle_roc_auc(scores[k], labels[k]) for k in range(b)]
                assert np.allclose(got, want, atol=1e-12)

    # 1,000 random cases, B <= 20, C <= 5
    rng = np.random.default_rng(5)
    for _ in range(1000):
        c = int(rng.integers(2, 6))
        b = int(rng.integers(1, 21))
        y_true = rng.integers(0, c, size=b)
        y_pred = rng.integers(0, c, size=b)
        assert np.allclose(weighted_prf(y_true, y_pred, c)[:3],
                           oracle_prf(y_true, y_pred, c), atol=1e-12)
        grid = rng.integers(0, 6, size=(b, c)).astype(float)
        grid[grid.sum(axis=1) == 0, 0] = 1.0
        got = instance_auc_scores(grid, y_true)
        want = [oracle_roc_auc(grid[k], y_true[k]) for k in range(b)]
        assert np.allclose(got, want, atol=1e-12)


def test_split_stratification():
    """1,000 random datasets: partition, rounding bound, determinism."""
    rng = np.random.default_rng(11)
    for trial in range(1000):
        n_classes = int(rng.integers(1, 12))
        sizes = rng.integers(1, 40, size=n_classes)
        entries = []
        for label, size in enumerate(sizes):
            for k in range(size):
                entries.append(Entry(f"t{trial}-c{label}-{k}", "A",
                                     ContactMap(1), label))
        seed = int(rng.integers(0, 2**31))
        manifest = stratified_split(entries, seed=seed)

        combined = sum((manifest.ids[s] for s in ("train", "val", "test")), [])
        assert sorted(combined) == sorted(e.id for e in entries)
        for label, size in enumerate(sizes):
            if size >= 10:
                n_train = manifest.class_counts["train"][label]
                assert abs(n_train / size - 0.7) <= 1.0 / size
        if trial % 100 == 0:
            assert stratified_split(entries, seed=seed) == manifest


def test_structure_signal_experiment():
    """Contact-masked attention beats sequence-only by >= 10 points.

    Labels in the bundled topology task are decidable only from contact
    wiring; sequences are iid uniform for every class. Both models train
    with the default configuration for 15 epochs (well under the
    300-epoch budget) on 400 train / 100 val and are scored on 100 test
    samples.
    """
    started = time.perf_counter()
    train_set, val_set, test_set = topology_dataset(400, 100, 100, length=16, seed=0)
    tcfg = TrainConfig(lr=1e-4, batch_size=64, max_epochs=15, patience=50, seed=0)
    assert tcfg.max_epochs <= 300

    acc = {}
    for mode in ("contact", "full"):
        cfg = ModelConfig(n_classes=4, attention_mode=mode)
        result = train(cfg, train_set, val_set, tcfg)
        report, _, _ = evaluate(cfg, result.params, test_set)
        acc[mode] = report.accuracy
    elapsed = time.perf_counter() - started

    print(f"\nstructure signal: contact={acc['contact']:.3f} "
          f"full={acc['full']:.3f} ({elapsed:.0f}s)")
    assert acc["contact"] - acc["full"] >= 0.10, acc
    assert elapsed < 900.0, f"took {elapsed:.1f}s"


def test_overfit_sanity():
    """32 separable samples reach train accuracy 1.0 within 200 epochs."""
    entries = overfit_dataset(32, 4, length=10, seed=0)
    cfg = ModelConfig(n_classes=4, embed_dim=16, n_heads=2, n_layers=2,
                      ffn_dim=32, max_len=64)
    result = train(cfg, entries, entries,
                   TrainConfig(lr=1e-3, batch_size=4, max_epochs=200,
                               patience=1000, seed=0))
    perfect = [r.epoch for r in result.history if r.val_acc == 1.0]
    assert perfect and perfect[0] <= 200


def test_checkpoint_round_trip(tmp_path):
    """save -> load -> evaluate is bit-identical to pre-save evaluation."""
    rng = np.random.default_rng(3)
    cfg = tiny_config(n_layers=2)
    entries = random_entries(rng, 12)
    result = train(cfg, entries[:8], entries[8:],
                   TrainConfig(lr=1e-3, batch_size=4, max_epochs=3,
                               patience=10, seed=0))
    report_before, prob_before, pooled_before = evaluate(cfg, result.params, entries)

    path = tmp_path / "round.ckpt"
    save_checkpoint(path, cfg, result.params, label_index_hash="x")
    _, loaded, _ = load_checkpoint(path)
    report_after, prob_after, pooled_after = evaluate(cfg, loaded, entries)

    assert np.array_equal(prob_before, prob_after)
    assert np.array_equal(pooled_before, pooled_after)
    assert report_before.accuracy == report_after.accuracy
    assert report_before.mean_auc == report_after.mean_auc


def test_prep_filter_taxonomy(corpus_dir, tmp_path, capsys):
    """prep reports per-reason counts; the bundled corpus yields 10/2."""
    code = cli.main(["prep", "--index", str(corpus_dir / "index.tsv"),
                     "--pdb-dir", str(corpus_dir / "pdbs"),
                     "--out", str(tmp_path / "out")])
    assert code == 0
    out = capsys.readouterr().out
    assert "# accepted = 10" in out
    for reason, count in (("NOT_FOUND", 1), ("MALFORMED", 0),
                          ("INCOMPLETE", 1), ("NONSTANDARD", 0)):
        assert f"# rejected[{reason}] = {count}" in out
    assert len(load_entries(tmp_path / "out" / "processed.tsv")) == 10
