"""Fast smoke test of the benchmark itself, at tiny sizes.

    python3 -m pytest -q perfbench/test_smoke.py

It runs every workload end to end (untraced and traced), and shows that
each correctness check fires when it is handed a corrupted output.
"""

from __future__ import annotations

import dataclasses
import json
import math
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
REPO = HERE.parent
sys.path[:0] = [str(REPO / "src"), str(HERE)]

import checks  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

def tiny(sizes):
    return dataclasses.replace(
        sizes,
        ingest=dataclasses.replace(sizes.ingest, n_rows=40, n_superfamilies=5,
                                   rejects_per_code=1, warmup_rows=4),
        train=dataclasses.replace(sizes.train, n_train=8, n_val=4, n_test=8, batch_size=4,
                                  grad_batch=2),
    )


TINY = {name: tiny(sizes) for name, sizes in workloads.WORKLOADS.items()}


def finished(name, workdir):
    """A tiny workload after its warm-up and two rounds of every phase."""
    work = workloads.Pipeline(name, 3, workdir, TINY[name])
    work.warm_up()
    run.run_rounds(work.phases, 0.01)
    return work


@pytest.fixture(params=sorted(TINY))
def trained(request, tmp_path):
    return finished(request.param, tmp_path).train


@pytest.fixture(params=sorted(TINY))
def ingested(request, tmp_path):
    return finished(request.param, tmp_path).ingest


@pytest.mark.parametrize("name", sorted(TINY))
def test_workload_runs_clean_and_traced(name, tmp_path):
    work = finished(name, tmp_path)
    assert work.check() == []
    assert work.attempted > 0 and work.failed == 0

    tracer = tracing.Tracer(tmp_path)
    tracer.install()
    try:
        for phase in work.phases:
            phase.run()
    finally:
        tracer.uninstall()
    tracer.merge_workers()
    values = tracer.layer_metrics(2)
    assert set(values) == {*tracing.INGEST_METRICS, *tracing.TRAIN_METRICS}
    assert all(math.isfinite(v) for v in values.values())
    assert values["cli.prep_worker_busy_s"] > 0 and values["autodiff.backward_s"] > 0
    assert work.check() == []


def test_training_checks_fire_on_bad_output(trained):
    work = trained
    report, prob = work.last_eval
    labels = [e.label for e in work.test_set]
    bad = prob.copy()
    bad[0, 0] += 0.01  # a probability row that no longer sums to 1
    assert checks.eval_report(report.accuracy, report.mean_auc, bad, labels)
    assert checks.eval_report(1.0 - report.accuracy + 0.1, report.mean_auc, prob, labels)
    assert checks.eval_report(report.accuracy, report.mean_auc + 0.01, prob, labels)

    assert checks.finite_losses(work.losses.values + [math.nan])
    assert checks.first_loss_near_log_c(3 * math.log(work.config.n_classes), work.config.n_classes)

    alone, in_batch = work.padding_pair(workloads.model.load_checkpoint(work.checkpoint)[1])
    assert checks.same_logits(alone, in_batch + 1e-3)
    base, far, near = work.locality_outputs()
    assert checks.locality(base, far + 1e-3, near)
    assert checks.locality(base, far, base)
    analytic, numeric, norm = work.directional_derivatives()
    assert checks.directional_derivative(analytic, numeric * 1.01, norm)


def test_ingest_checks_fire_on_bad_output(ingested):
    work = ingested
    planted = work.corpus.planted()
    wrong = dict(planted, NOT_FOUND=planted["NOT_FOUND"] + 1)
    assert checks.reject_counts(wrong, planted)

    rejected, saved = work._outcomes()
    accepted = {line.split("\t", 1)[0] for line in saved}
    assert checks.row_outcomes(work.expected, rejected, accepted) == 0
    some_reject = next(iter(rejected))
    assert checks.row_outcomes(work.expected, {**rejected, some_reject: "MALFORMED"
                                               if rejected[some_reject] != "MALFORMED"
                                               else "NOT_FOUND"}, accepted) == 1

    first = work.loaded[0]
    pairs = list(first.contact_map.pairs)
    moved = workloads.ContactMap(first.contact_map.n, tuple(pairs[1:]))
    work.loaded[0] = dataclasses.replace(first, contact_map=moved)
    assert any("contacts differ" in f for f in work.check())
    letter = "C" if first.sequence[0] == "A" else "A"
    work.loaded[0] = dataclasses.replace(first, sequence=letter + first.sequence[1:])
    assert any("sequence differs" in f for f in work.check())
    work.loaded[0] = first
    assert work.check() == []

    assert checks.saved_text(saved[:-1], saved)
    assert checks.saved_text(saved[:-1] + [saved[-1] + ",0-1"], saved)

    manifest = json.loads((work.workdir / "manifest.json").read_text())
    label_of = {e.id: e.label for e in work.loaded}
    ids = manifest["ids"]
    counts = {s: {int(k): v for k, v in c.items()} for s, c in manifest["class_counts"].items()}
    assert checks.split_partition(ids, counts, label_of) == []
    moved_id = ids["train"][0]
    shifted = {"train": ids["train"][1:], "val": ids["val"], "test": ids["test"] + [moved_id]}
    assert checks.split_partition(shifted, counts, label_of)


def test_instance_auc_is_the_rank_definition():
    prob = np.array([[0.5, 0.3, 0.2], [0.2, 0.2, 0.6], [0.1, 0.6, 0.3]])
    # True-class scores beat (2, 1.5, 0) of the 2 wrong classes.
    assert checks.instance_auc(prob, np.array([0, 1, 0])) == pytest.approx((1 + 0.25 + 0) / 3)


def test_benchmark_json_lists_every_metric():
    spec = json.loads((REPO / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOAD_NAMES)
    per_layer = {**tracing.INGEST_METRICS, **tracing.TRAIN_METRICS, **tracing.OVERHEAD}
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == per_layer
    phases = {"train_residues_per_s", "infer_residues_per_s", "prep_entries_per_s",
              "load_entries_per_s"}
    assert {m["name"] for m in spec["end_to_end"]} == phases | {"val_loss", "peak_rss_mb",
                                                                "setup_s"}


def test_refuses_to_run_without_the_package(tmp_path):
    proc = subprocess.run([sys.executable, str(HERE / "run.py"), "--workload", "short",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_main_prints_the_result_line(tmp_path, monkeypatch, capsys):
    (tmp_path / "src").symlink_to(REPO / "src")
    monkeypatch.chdir(tmp_path)
    monkeypatch.setitem(workloads.WORKLOADS, "short", TINY["short"])
    spec = json.loads((REPO / "BENCHMARK.json").read_text())
    for trace, kind in ((0, "end_to_end"), (1, "per_layer")):
        assert run.main(["--workload", "short", "--seed", "2", "--seconds", "0.01",
                         "--trace", str(trace)]) == 0
        result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] and result["failed"] == 0
        assert result["metrics"] == {m["name"]: {"value": result["metrics"][m["name"]]["value"],
                                                 "unit": m["unit"]} for m in spec[kind]}
