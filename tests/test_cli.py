import json

import pytest

from contactformer import cli
from contactformer.data import SplitManifest, load_entries


def run(argv):
    return cli.main([str(a) for a in argv])


def prep_corpus(corpus_dir, out_dir, extra=()):
    code = run(["prep", "--index", corpus_dir / "index.tsv",
                "--pdb-dir", corpus_dir / "pdbs", "--out", out_dir, *extra])
    assert code == 0
    return out_dir


@pytest.fixture(scope="module")
def pipeline_dir(corpus_dir, tmp_path_factory):
    """prep + split + a tiny trained checkpoint, shared across tests."""
    out = tmp_path_factory.mktemp("pipeline")
    prep_corpus(corpus_dir, out)
    assert run(["split", "--data", out, "--seed", 7,
                "--out", out / "manifest.json"]) == 0
    assert run(["train", "--data", out, "--manifest", out / "manifest.json",
                "--checkpoint", out / "model.ckpt", "--embed-dim", 128,
                "--layers", 1, "--epochs", 2, "--patience", 10,
                "--batch-size", 4, "--seed", 0]) == 0
    return out


class TestPrep:
    def test_corpus_counts_and_reasons(self, corpus_dir, tmp_path, capsys):
        prep_corpus(corpus_dir, tmp_path / "out")
        captured = capsys.readouterr().out
        assert "# accepted = 10" in captured
        assert "# rejected[NOT_FOUND] = 1" in captured
        assert "# rejected[INCOMPLETE] = 1" in captured
        entries = load_entries(tmp_path / "out" / "processed.tsv")
        assert len(entries) == 10
        rejects = (tmp_path / "out" / "rejects.log").read_text().splitlines()
        reasons = {ln.split("\t")[0]: ln.split("\t")[1] for ln in rejects}
        assert reasons == {"9zz0A": "NOT_FOUND", "9zz1A": "INCOMPLETE"}

    def test_rerun_is_byte_identical(self, corpus_dir, tmp_path):
        a = prep_corpus(corpus_dir, tmp_path / "a")
        b = prep_corpus(corpus_dir, tmp_path / "b")
        for name in ("processed.tsv", "labels.tsv", "rejects.log"):
            assert (a / name).read_bytes() == (b / name).read_bytes()

    def test_parallel_workers_match_sequential(self, corpus_dir, tmp_path):
        a = prep_corpus(corpus_dir, tmp_path / "seq")
        b = prep_corpus(corpus_dir, tmp_path / "par", extra=["--workers", "2"])
        for name in ("processed.tsv", "labels.tsv", "rejects.log"):
            assert (a / name).read_bytes() == (b / name).read_bytes()

    def test_missing_file_is_not_found(self, tmp_path):
        (tmp_path / "pdbs").mkdir()
        index = tmp_path / "index.tsv"
        index.write_text("onlyA\tgone.pdb\tA\t-\t-\tsf.1\n")
        code = run(["prep", "--index", index, "--pdb-dir", tmp_path / "pdbs",
                    "--out", tmp_path / "out"])
        assert code == 2  # zero survivors
        log = (tmp_path / "out" / "rejects.log").read_text()
        assert "onlyA\tNOT_FOUND" in log

    def test_all_four_reason_codes(self, tmp_path):
        pdbs = tmp_path / "pdbs"
        pdbs.mkdir()

        def atom(seq_id, res="ALA", coords="   1.000   2.000   3.000"):
            return (f"ATOM  {seq_id:5d}  CA  {res:>3s} A{seq_id:4d}    " + coords)

        (pdbs / "ok.pdb").write_text("\n".join(atom(i) for i in (1, 2, 3)) + "\n")
        (pdbs / "bad.pdb").write_text(atom(1, coords="   x.xxx   2.000   3.000") + "\n")
        (pdbs / "gap.pdb").write_text("\n".join(atom(i) for i in (1, 5)) + "\n")
        (pdbs / "mod.pdb").write_text("\n".join(
            [atom(1), atom(2, res="MSE")]) + "\n")
        index = tmp_path / "index.tsv"
        index.write_text("".join([
            "ok\tok.pdb\tA\t-\t-\tsf.1\n",
            "missing\tnope.pdb\tA\t-\t-\tsf.1\n",
            "bad\tbad.pdb\tA\t-\t-\tsf.1\n",
            "gap\tgap.pdb\tA\t-\t-\tsf.2\n",
            "mod\tmod.pdb\tA\t-\t-\tsf.2\n",
        ]))
        assert run(["prep", "--index", index, "--pdb-dir", pdbs,
                    "--out", tmp_path / "out"]) == 0
        log = (tmp_path / "out" / "rejects.log").read_text()
        reasons = {ln.split("\t")[0]: ln.split("\t")[1]
                   for ln in log.splitlines()}
        assert reasons == {"missing": "NOT_FOUND", "bad": "MALFORMED",
                           "gap": "INCOMPLETE", "mod": "NONSTANDARD"}

    def test_bad_rows_are_rejected_not_fatal(self, corpus_dir, tmp_path):
        # a two-character chain id and a pdb_path naming a directory
        index = tmp_path / "index.tsv"
        index.write_text((corpus_dir / "index.tsv").read_text()
                         + "twochA\t1aa0.pdb\tAB\t-\t-\tsfa.1.1\n"
                         + f"dirA\t{tmp_path}\tA\t-\t-\tsfa.1.1\n")
        assert run(["prep", "--index", index, "--pdb-dir", corpus_dir / "pdbs",
                    "--out", tmp_path / "out"]) == 0
        log = (tmp_path / "out" / "rejects.log").read_text()
        reasons = {ln.split("\t")[0]: ln.split("\t")[1] for ln in log.splitlines()}
        assert reasons["twochA"] == "MALFORMED"
        assert reasons["dirA"] == "NOT_FOUND"
        assert len(load_entries(tmp_path / "out" / "processed.tsv")) == 10

    def test_malformed_index_rows_are_rejected_not_fatal(self, corpus_dir, tmp_path, capsys):
        index = tmp_path / "index.tsv"
        index.write_text((corpus_dir / "index.tsv").read_text()
                         + "badrngA\t1aa0.pdb\tA\tx\t24\tsfa.1.1\n"
                         + "shortA\t1aa0.pdb\tA\n"
                         + "1aa0A\t1aa0.pdb\tA\t-\t-\tsfz.9.9\n")
        assert run(["prep", "--index", index, "--pdb-dir", corpus_dir / "pdbs",
                    "--out", tmp_path / "out"]) == 0
        assert "# rejected[MALFORMED] = 3" in capsys.readouterr().out
        log = (tmp_path / "out" / "rejects.log").read_text().splitlines()
        malformed = [ln.split("\t")[0] for ln in log if ln.split("\t")[1] == "MALFORMED"]
        assert malformed == ["badrngA", "shortA", "1aa0A"]
        entries = load_entries(tmp_path / "out" / "processed.tsv")
        assert len(entries) == 10
        # the first occurrence of a duplicated id is the one kept
        assert "sfz.9.9" not in (tmp_path / "out" / "labels.tsv").read_text()


class TestSplit:
    def test_manifest_partitions_entries(self, pipeline_dir):
        manifest = SplitManifest.from_json(
            (pipeline_dir / "manifest.json").read_text())
        entries = load_entries(pipeline_dir / "processed.tsv")
        combined = sum((manifest.ids[s] for s in ("train", "val", "test")), [])
        assert sorted(combined) == sorted(e.id for e in entries)

    def test_same_seed_byte_identical(self, pipeline_dir, tmp_path):
        out1, out2 = tmp_path / "m1.json", tmp_path / "m2.json"
        for out in (out1, out2):
            assert run(["split", "--data", pipeline_dir, "--seed", 7,
                        "--out", out]) == 0
        assert out1.read_bytes() == out2.read_bytes()
        assert out1.read_bytes() == (pipeline_dir / "manifest.json").read_bytes()


class TestTrainEvaluateEmbed:
    def test_train_writes_checkpoint_and_log(self, pipeline_dir):
        assert (pipeline_dir / "model.ckpt").exists()
        log = (pipeline_dir / "model.ckpt.log.csv").read_text().splitlines()
        assert log[0] == "epoch,train_loss,val_loss,val_acc"
        assert len(log) == 3  # header + 2 epochs

    def test_train_rerun_is_byte_identical(self, pipeline_dir, tmp_path):
        args = ["train", "--data", pipeline_dir,
                "--manifest", pipeline_dir / "manifest.json",
                "--embed-dim", 128, "--layers", 1, "--epochs", 2,
                "--patience", 10, "--batch-size", 4, "--seed", 0]
        assert run(args + ["--checkpoint", tmp_path / "again.ckpt"]) == 0
        assert ((tmp_path / "again.ckpt").read_bytes()
                == (pipeline_dir / "model.ckpt").read_bytes())

    def test_train_parses_processed_once(self, pipeline_dir, tmp_path, monkeypatch):
        calls = []
        load = cli.load_entries

        def counting(path):
            calls.append(path)
            return load(path)

        monkeypatch.setattr(cli, "load_entries", counting)
        assert run(["train", "--data", pipeline_dir,
                    "--manifest", pipeline_dir / "manifest.json",
                    "--checkpoint", tmp_path / "once.ckpt", "--embed-dim", 128,
                    "--layers", 1, "--epochs", 1, "--batch-size", 4]) == 0
        assert len(calls) == 1

    def test_train_reads_labels_once(self, pipeline_dir, tmp_path, monkeypatch):
        import builtins
        import io

        reads = []
        for owner in (builtins, io):  # open() and pathlib's io.open
            original = owner.open

            def counting(file, *args, _original=original, **kwargs):
                if str(file).endswith("labels.tsv"):
                    reads.append(file)
                return _original(file, *args, **kwargs)

            monkeypatch.setattr(owner, "open", counting)
        assert run(["train", "--data", pipeline_dir,
                    "--manifest", pipeline_dir / "manifest.json",
                    "--checkpoint", tmp_path / "once.ckpt", "--embed-dim", 128,
                    "--layers", 1, "--epochs", 1, "--batch-size", 4]) == 0
        assert len(reads) == 1

    def test_evaluate_writes_reports(self, pipeline_dir, tmp_path, capsys):
        out = tmp_path / "report.json"
        text = tmp_path / "report.txt"
        assert run(["evaluate", "--data", pipeline_dir,
                    "--manifest", pipeline_dir / "manifest.json",
                    "--checkpoint", pipeline_dir / "model.ckpt",
                    "--split", "test", "--out", out, "--text", text]) == 0
        payload = json.loads(out.read_text())
        assert "accuracy" in payload and "thresholds" in payload
        assert text.read_text().startswith("accuracy\t")
        assert "accuracy\t" in capsys.readouterr().out

    def test_evaluate_rejects_tampered_labels(self, pipeline_dir, tmp_path):
        import shutil
        clone = tmp_path / "clone"
        shutil.copytree(pipeline_dir, clone)
        labels = clone / "labels.tsv"
        labels.write_text(labels.read_text() + "zz.9\t3\n")
        code = run(["evaluate", "--data", clone,
                    "--manifest", clone / "manifest.json",
                    "--checkpoint", clone / "model.ckpt"])
        assert code == 2

    def test_embed_writes_vectors_for_all_entries(self, pipeline_dir, tmp_path):
        out = tmp_path / "emb.tsv"
        assert run(["embed", "--data", pipeline_dir,
                    "--checkpoint", pipeline_dir / "model.ckpt",
                    "--out", out]) == 0
        lines = out.read_text().splitlines()
        assert len(lines) == 10
        entry_id, label, vec = lines[0].split("\t")
        assert len(vec.split(",")) == 128
        float(vec.split(",")[0])

    def test_embed_rerun_byte_identical(self, pipeline_dir, tmp_path):
        outs = [tmp_path / "e1.tsv", tmp_path / "e2.tsv"]
        for out in outs:
            assert run(["embed", "--data", pipeline_dir,
                        "--checkpoint", pipeline_dir / "model.ckpt",
                        "--out", out]) == 0
        assert outs[0].read_bytes() == outs[1].read_bytes()


class TestExitCodes:
    def test_unknown_flag_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            run(["split", "--data", "x", "--out", "y", "--bogus"])
        assert exc.value.code == 1

    def test_missing_subcommand_is_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            run([])
        assert exc.value.code == 1

    def test_missing_data_is_data_error(self, tmp_path):
        assert run(["split", "--data", tmp_path / "nowhere",
                    "--out", tmp_path / "m.json"]) == 2

    def test_divergence_maps_to_exit_three(self, pipeline_dir, monkeypatch, tmp_path):
        from contactformer.train import Divergence

        def explode(*args, **kwargs):
            raise Divergence("boom")

        monkeypatch.setattr(cli, "train", explode)
        code = run(["train", "--data", pipeline_dir,
                    "--manifest", pipeline_dir / "manifest.json",
                    "--checkpoint", tmp_path / "x.ckpt", "--epochs", 1])
        assert code == 3
