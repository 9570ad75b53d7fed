import json
import math
from pathlib import Path

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from contactformer import cli, pdb_io
from contactformer.contacts import DEFAULT_THRESHOLD
from contactformer.data import SplitManifest, load_entries
from contactformer.model import ModelConfig
from contactformer.train import TrainConfig

from conftest import BAD_HEADERS, HUGE_HEADER_LENGTHS, rewrite_checkpoint_header, set_header_length


def run(argv):
    return cli.main([str(a) for a in argv])


def prep_corpus(corpus_dir, out_dir, extra=()):
    code = run(["prep", "--index", corpus_dir / "index.tsv",
                "--pdb-dir", corpus_dir / "pdbs", "--out", out_dir, *extra])
    assert code == 0
    return out_dir


# a manifest of the wrong shape, made from the real one
MALFORMED_MANIFESTS = {
    "number": lambda m: 3,
    "list": lambda m: [1, 2],
    "ids_not_lists": lambda m: {**m, "ids": {**m["ids"], "train": 5}},
    "class_counts_not_an_object": lambda m: {**m, "class_counts": []},
}


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

    def test_pair_text_is_made_once_per_row_and_never_parsed(self, corpus_dir, tmp_path,
                                                             monkeypatch):
        # A worker serializes each accepted row's map once; the parent writes that text as is.
        from contactformer import contacts
        plain = prep_corpus(corpus_dir, tmp_path / "plain")
        calls = {}
        for owner, name in ((cli, "serialize_contacts"), (contacts, "deserialize_contacts")):
            calls[name] = 0

            def counted(*args, _real=getattr(owner, name), _name=name, **kwargs):
                calls[_name] += 1
                return _real(*args, **kwargs)

            monkeypatch.setattr(owner, name, counted)
        out = prep_corpus(corpus_dir, tmp_path / "counted", extra=["--workers", "1"])
        assert calls == {"serialize_contacts": 10, "deserialize_contacts": 0}  # 10 accepted
        for name in ("processed.tsv", "labels.tsv", "rejects.log"):
            assert (out / name).read_bytes() == (plain / name).read_bytes()

    def test_outputs_do_not_depend_on_chunk_boundaries(self, tmp_path, capsys, monkeypatch):
        # The index names 44 files, more than 8 x 3 workers, so every pool chunk holds
        # several files; one file has two rows far apart in the index.
        pdbs = tmp_path / "pdbs"
        pdbs.mkdir()
        names = sorted(pdb_io.AA3_TO_1)

        def write(name, residues):
            (pdbs / name).write_text("".join(
                f"ATOM  {i:5d}  CA  {res:>3s} A{i:4d}    {x:8.3f}{y:8.3f}{z:8.3f}\n"
                for i, res, (x, y, z) in residues))

        rows = []
        for k in range(40):
            n = 4 + k % 9
            write(f"f{k:02d}.pdb", [(i, names[(i + k) % 20],
                                     (3.8 * i, 2.0 * ((i + k) % 3), 1.5 * (i % 2)))
                                    for i in range(1, n + 1)])
            rows.append(f"e{k:02d}\tf{k:02d}.pdb\tA\t-\t-\tsf.{k % 5}\n")
        rows.insert(30, "e07part\tf07.pdb\tA\t2\t5\tsf.9\n")
        write("bad.pdb", [(1, "ALA", (0.0, 0.0, 0.0))])
        (pdbs / "bad.pdb").write_text((pdbs / "bad.pdb").read_text().replace("0.000", "x.xxx", 1))
        write("gap.pdb", [(i, "GLY", (3.8 * i, 0.0, 0.0)) for i in (1, 2, 5)])
        write("mod.pdb", [(1, "ALA", (0.0, 0.0, 0.0)), (2, "MSE", (3.8, 0.0, 0.0))])
        for at, row in ((3, "missing\tnope.pdb\tA\t-\t-\tsf.1\n"),
                        (12, "bad\tbad.pdb\tA\t-\t-\tsf.1\n"),
                        (25, "gap\tgap.pdb\tA\t-\t-\tsf.2\n"),
                        (37, "mod\tmod.pdb\tA\t-\t-\tsf.3\n")):
            rows.insert(at, row)
        index = tmp_path / "index.tsv"
        index.write_text("".join(rows))

        chunksizes = []

        class Pool(cli.ProcessPoolExecutor):
            def map(self, fn, *iterables, chunksize=1, **kwargs):
                chunksizes.append(chunksize)
                return super().map(fn, *iterables, chunksize=chunksize, **kwargs)

        monkeypatch.setattr(cli, "ProcessPoolExecutor", Pool)
        outs = {}
        for workers in (1, 2, 3):
            out = tmp_path / f"w{workers}"
            assert run(["prep", "--index", index, "--pdb-dir", pdbs, "--out", out,
                        "--workers", workers]) == 0
            stdout = [ln for ln in capsys.readouterr().out.splitlines()
                      if not ln.startswith(("# out = ", "# workers = "))]
            outs[workers] = [stdout] + [(out / name).read_bytes()
                                        for name in ("processed.tsv", "labels.tsv", "rejects.log")]
        assert min(chunksizes) > 1 and len(chunksizes) == 2
        assert outs[1] == outs[2] == outs[3]
        assert "# accepted = 41" in outs[1][0]
        saved = [e.id for e in load_entries(tmp_path / "w1" / "processed.tsv")]
        assert saved.index("e07") < saved.index("e29") < saved.index("e07part")
        reasons = [ln.split(b"\t")[:2] for ln in outs[1][3].splitlines()]
        assert reasons == [[b"missing", b"NOT_FOUND"], [b"bad", b"MALFORMED"],
                           [b"gap", b"INCOMPLETE"], [b"mod", b"NONSTANDARD"]]

    def test_all_malformed_index_gives_the_same_rejects_on_any_worker_count(self, tmp_path,
                                                                           capsys):
        # no row reaches the pool, which must still start and hand back nothing
        index = tmp_path / "index.tsv"
        index.write_text("e1\tx.pdb\tA\t5\t-\tsf1\ne2\tx.pdb\tA\n")
        outs = {}
        for workers in (1, 2, 3):
            out = tmp_path / f"w{workers}"
            assert run(["prep", "--index", index, "--pdb-dir", tmp_path, "--out", out,
                        "--workers", workers]) == 2
            captured = capsys.readouterr()
            assert "no entries survived" in captured.err
            stdout = [ln for ln in captured.out.splitlines()
                      if not ln.startswith(("# out = ", "# workers = "))]
            outs[workers] = stdout, (out / "rejects.log").read_bytes()
        assert outs[1] == outs[2] == outs[3]
        assert "# rejected[MALFORMED] = 2" in outs[1][0]
        assert [ln.split(b"\t")[:2] for ln in outs[1][1].splitlines()] == [
            [b"e1", b"MALFORMED"], [b"e2", b"MALFORMED"]]

    def test_each_file_is_read_once(self, corpus_dir, tmp_path, monkeypatch):
        # 12 rows name 11 files: 3ca0.pdb twice, and 9zz0.pdb is missing
        read_text, reads = Path.read_text, []

        def counted(path, *args, **kwargs):
            reads.append(path.name)
            return read_text(path, *args, **kwargs)

        monkeypatch.setattr(Path, "read_text", counted)
        prep_corpus(corpus_dir, tmp_path / "out", extra=["--workers", "1"])
        assert len(reads) == 10 and reads.count("3ca0.pdb") == 1

    def test_outputs_follow_index_order_when_rows_of_a_file_are_apart(self, corpus_dir,
                                                                        tmp_path):
        rows = (corpus_dir / "index.tsv").read_text().splitlines(keepends=True)
        moved = [row for row in rows if not row.startswith("3ca0B")]
        moved.insert(1, next(row for row in rows if row.startswith("3ca0B")))
        moved.insert(4, "9zz0B\t9zz0.pdb\tB\t1\t25\tsfa.1.1\n")
        index = tmp_path / "index.tsv"
        index.write_text("".join(moved))
        outs = []
        for workers in (1, 2):
            outs.append(tmp_path / f"w{workers}")
            assert run(["prep", "--index", index, "--pdb-dir", corpus_dir / "pdbs",
                        "--out", outs[-1], "--workers", workers]) == 0
        index_ids = [row.split("\t")[0] for row in moved]
        saved = [e.id for e in load_entries(outs[0] / "processed.tsv")]
        assert saved == [i for i in index_ids if i in saved] and len(saved) == 10
        assert saved[:2] == ["1aa0A", "3ca0B"]
        log = [ln.split("\t") for ln in (outs[0] / "rejects.log").read_text().splitlines()]
        assert [ln[:2] for ln in log] == [["9zz0B", "NOT_FOUND"], ["9zz0A", "NOT_FOUND"],
                                          ["9zz1A", "INCOMPLETE"]]
        assert log[0][2] == log[1][2] == str(corpus_dir / "pdbs" / "9zz0.pdb")
        for name in ("processed.tsv", "labels.tsv", "rejects.log"):
            assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()

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
                         + "1aa0A\t1aa0.pdb\tA\t-\t-\tsfz.9.9\n"
                         + "halfA\t1aa0.pdb\tA\t5\t-\tsfa.1.1\n")
        assert run(["prep", "--index", index, "--pdb-dir", corpus_dir / "pdbs",
                    "--out", tmp_path / "out"]) == 0
        assert "# rejected[MALFORMED] = 4" in capsys.readouterr().out
        log = (tmp_path / "out" / "rejects.log").read_text().splitlines()
        malformed = [ln.split("\t")[0] for ln in log if ln.split("\t")[1] == "MALFORMED"]
        assert malformed == ["badrngA", "shortA", "1aa0A", "halfA"]
        assert "halfA\tMALFORMED\tline 16: a residue range needs both bounds or neither" in log
        entries = load_entries(tmp_path / "out" / "processed.tsv")
        assert len(entries) == 10
        # the first occurrence of a duplicated id is the one kept
        assert "sfz.9.9" not in (tmp_path / "out" / "labels.tsv").read_text()

    def test_unreadable_file_is_not_found(self, corpus_dir, tmp_path, monkeypatch):
        read_text = Path.read_text

        def deny(path, *args, **kwargs):
            if path.name == "1aa0.pdb":
                raise PermissionError(13, "Permission denied", str(path))
            return read_text(path, *args, **kwargs)

        monkeypatch.setattr(Path, "read_text", deny)
        out = prep_corpus(corpus_dir, tmp_path / "out")
        log = (out / "rejects.log").read_text().splitlines()
        assert f"1aa0A\tNOT_FOUND\t{corpus_dir / 'pdbs' / '1aa0.pdb'}" in log
        assert len(load_entries(out / "processed.tsv")) == 9

    def test_line_break_character_in_superfamily_id(self, corpus_dir, tmp_path):
        # U+0085 is a line break to str.splitlines but not a labels.tsv row separator
        index = tmp_path / "index.tsv"
        index.write_text((corpus_dir / "index.tsv").read_text(encoding="utf-8")
                         + "nelA\t1aa0.pdb\tA\t-\t-\tsf\x85x\n", encoding="utf-8")
        out = tmp_path / "out"
        assert run(["prep", "--index", index, "--pdb-dir", corpus_dir / "pdbs",
                    "--out", out]) == 0
        assert "sf\x85x\t" in (out / "labels.tsv").read_text(encoding="utf-8")
        assert run(["split", "--data", out, "--out", out / "manifest.json"]) == 0
        assert run(["train", "--data", out, "--manifest", out / "manifest.json",
                    "--checkpoint", out / "model.ckpt", "--embed-dim", 128, "--layers", 1,
                    "--epochs", 1, "--batch-size", 4]) == 0

    def test_non_utf8_index_row_is_malformed(self, corpus_dir, tmp_path, capsys):
        index = tmp_path / "index.tsv"
        index.write_bytes((corpus_dir / "index.tsv").read_bytes()
                          + b"bad\xe9A\t1aa0.pdb\tA\t-\t-\tsfa.1.1\n")
        assert run(["prep", "--index", index, "--pdb-dir", corpus_dir / "pdbs",
                    "--out", tmp_path / "out"]) == 0
        assert "# rejected[MALFORMED] = 1" in capsys.readouterr().out
        log = (tmp_path / "out" / "rejects.log").read_text(encoding="utf-8").splitlines()
        assert "bad\ufffdA\tMALFORMED\tline 13: not valid UTF-8" in log
        assert len(load_entries(tmp_path / "out" / "processed.tsv")) == 10


def _field(*examples):
    """A drawn index field: one of `examples`, or short arbitrary text
    without "/", so a path cannot leave the structure directory."""
    return st.one_of(st.sampled_from(examples),
                     st.text(max_size=6).filter(lambda t: "/" not in t))


# One appended index row: 1 to 7 tab-separated drawn fields, or arbitrary bytes.
_FUZZED_ROW = st.one_of(
    st.tuples(
        _field("1aa0A", "9zz0A", "newA", ""),
        _field("1aa0.pdb", "3ca0.pdb", "9zz1.pdb", "gone.pdb", "", ".", ".."),
        _field("A", "B", "C", "", "AB", " "),
        _field("-", "1", "24", "x", "", "-5", "99999999999999999999"),
        _field("-", "12", "30", "x", ""),
        _field("sfa.1.1", "sfz.9.9", ""),
    ).flatmap(lambda f: st.integers(1, 7).map(lambda k: "\t".join((f + f)[:k]).encode())),
    st.binary(max_size=40),
)


class TestPrepFuzz:
    @given(row=_FUZZED_ROW)
    @settings(max_examples=100, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_one_fuzzed_row_never_aborts(self, corpus_dir, tmp_path, row):
        index = tmp_path / "index.tsv"
        index.write_bytes((corpus_dir / "index.tsv").read_bytes() + row + b"\n")
        out = tmp_path / "out"
        assert run(["prep", "--index", index, "--pdb-dir", corpus_dir / "pdbs",
                    "--out", out]) == 0
        (out / "rejects.log").read_text(encoding="utf-8")  # stays valid UTF-8
        assert len(load_entries(out / "processed.tsv")) >= 10


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

    @pytest.mark.parametrize("edit", sorted(BAD_HEADERS))
    def test_evaluate_rejects_bad_checkpoint_header(self, pipeline_dir, tmp_path, edit):
        checkpoint = tmp_path / "bad.ckpt"
        checkpoint.write_bytes((pipeline_dir / "model.ckpt").read_bytes())
        rewrite_checkpoint_header(checkpoint, BAD_HEADERS[edit])
        assert run(["evaluate", "--data", pipeline_dir,
                    "--manifest", pipeline_dir / "manifest.json",
                    "--checkpoint", checkpoint]) == 2

    def test_embed_rejects_impossible_header_length(self, pipeline_dir, tmp_path):
        checkpoint = tmp_path / "bad.ckpt"
        checkpoint.write_bytes((pipeline_dir / "model.ckpt").read_bytes())
        set_header_length(checkpoint, HUGE_HEADER_LENGTHS[-1])
        assert run(["embed", "--data", pipeline_dir, "--checkpoint", checkpoint,
                    "--out", tmp_path / "emb.tsv"]) == 2

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

    @pytest.mark.parametrize("subcommand", ["train", "evaluate", "embed"])
    @pytest.mark.parametrize("kind", sorted(MALFORMED_MANIFESTS))
    def test_malformed_manifest_is_data_error(self, pipeline_dir, tmp_path, capsys,
                                              subcommand, kind):
        payload = json.loads((pipeline_dir / "manifest.json").read_text())
        (tmp_path / "manifest.json").write_text(json.dumps(MALFORMED_MANIFESTS[kind](payload)))
        out = tmp_path / "out"
        out.mkdir()
        argv = {"train": ["--checkpoint", out / "x.ckpt", "--epochs", 1],
                "evaluate": ["--checkpoint", pipeline_dir / "model.ckpt",
                             "--out", out / "report.json", "--text", out / "report.txt"],
                "embed": ["--checkpoint", pipeline_dir / "model.ckpt", "--split", "test",
                          "--out", out / "emb.tsv"]}[subcommand]
        assert run([subcommand, "--data", pipeline_dir,
                    "--manifest", tmp_path / "manifest.json", *argv]) == 2
        err = capsys.readouterr().err
        assert "data error: split manifest must be an object" in err
        assert list(out.iterdir()) == []

    def test_embed_rerun_byte_identical(self, pipeline_dir, tmp_path):
        outs = [tmp_path / "e1.tsv", tmp_path / "e2.tsv"]
        for out in outs:
            assert run(["embed", "--data", pipeline_dir,
                        "--checkpoint", pipeline_dir / "model.ckpt",
                        "--out", out]) == 0
        assert outs[0].read_bytes() == outs[1].read_bytes()


class _Loaded(Exception):
    """Raised by a stub loader: train got past its flag checks."""


# train flag -> (config, field, values around the field's bounds)
TRAIN_FLAGS = {
    "--lr": ("train", "lr", st.sampled_from([-1.0, 0.0, 1e-3, math.nan, math.inf])),
    "--dropout": ("model", "dropout", st.sampled_from([-0.1, 0.0, 0.5, 1.0, math.nan])),
    "--embed-dim": ("model", "embed_dim", st.sampled_from([-1, 0, 12, 64, 100, 128, 256])),
    # 3, 5, 6, 7, 9 do not divide the default embed_dim, 256
    "--heads": ("model", "n_heads", st.integers(-1, 9)),
    "--max-len": ("model", "max_len", st.integers(-1, 2)),
    "--layers": ("model", "n_layers", st.integers(-2, 2)),
    "--ffn-dim": ("model", "ffn_dim", st.integers(-1, 2)),
    "--epochs": ("train", "max_epochs", st.integers(-1, 2)),
    "--patience": ("train", "patience", st.integers(-1, 2)),
    "--seed": ("train", "seed", st.integers(-2, 2)),
    "--batch-size": ("train", "batch_size", st.integers(-1, 2)),
}


class TestExitCodes:
    def test_unknown_flag_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            run(["split", "--data", "x", "--out", "y", "--bogus"])
        assert exc.value.code == 1

    def test_missing_subcommand_is_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            run([])
        assert exc.value.code == 1

    @pytest.mark.parametrize("threshold", ["-1", "0", "nan", "inf"])
    def test_threshold_outside_zero_to_inf_is_usage_error(self, corpus_dir, tmp_path,
                                                          threshold):
        out = tmp_path / "out"
        out.mkdir()
        with pytest.raises(SystemExit) as exc:
            run(["prep", "--index", corpus_dir / "index.tsv", "--pdb-dir", corpus_dir / "pdbs",
                 "--out", out, f"--threshold={threshold}"])
        assert exc.value.code == 1
        assert list(out.iterdir()) == []

    @pytest.mark.parametrize("flag", ["--train-frac", "--val-frac"])
    @pytest.mark.parametrize("value", ["-1", "1.5", "nan"])
    def test_split_fraction_outside_unit_interval_is_usage_error(self, pipeline_dir, tmp_path,
                                                                 flag, value):
        manifest = tmp_path / "manifest.json"
        with pytest.raises(SystemExit) as exc:
            run(["split", "--data", pipeline_dir, "--out", manifest, f"{flag}={value}"])
        assert exc.value.code == 1
        assert not manifest.exists()

    def test_negative_split_seed_is_usage_error(self, pipeline_dir, tmp_path, monkeypatch):
        loads = []
        monkeypatch.setattr(cli, "load_entries", loads.append)
        manifest = tmp_path / "manifest.json"
        with pytest.raises(SystemExit) as exc:
            run(["split", "--data", pipeline_dir, "--out", manifest, "--seed=-1"])
        assert exc.value.code == 1
        assert loads == []
        assert not manifest.exists()

    @pytest.mark.parametrize("workers", ["0", "-2"])
    def test_non_positive_workers_is_usage_error(self, corpus_dir, tmp_path, workers):
        out = tmp_path / "out"
        out.mkdir()
        with pytest.raises(SystemExit) as exc:
            run(["prep", "--index", corpus_dir / "index.tsv", "--pdb-dir", corpus_dir / "pdbs",
                 "--out", out, f"--workers={workers}"])
        assert exc.value.code == 1
        assert list(out.iterdir()) == []

    @pytest.mark.parametrize("subcommand", ["train", "evaluate", "embed"])
    @pytest.mark.parametrize("batch_size", ["0", "-2"])
    def test_non_positive_batch_size_is_usage_error(self, pipeline_dir, tmp_path, subcommand,
                                                    batch_size):
        out = tmp_path / "out"
        out.mkdir()
        common = ["--data", pipeline_dir, "--manifest", pipeline_dir / "manifest.json",
                  f"--batch-size={batch_size}"]
        extra = {"train": ["--checkpoint", out / "x.ckpt", "--epochs", 1],
                 "evaluate": ["--checkpoint", pipeline_dir / "model.ckpt",
                              "--out", out / "report.json", "--text", out / "report.txt"],
                 "embed": ["--checkpoint", pipeline_dir / "model.ckpt", "--out", out / "e.tsv"]}
        with pytest.raises(SystemExit) as exc:
            run([subcommand, *common, *extra[subcommand]])
        assert exc.value.code == 1
        assert list(out.iterdir()) == []

    def test_missing_data_is_data_error(self, tmp_path):
        assert run(["split", "--data", tmp_path / "nowhere",
                    "--out", tmp_path / "m.json"]) == 2

    @pytest.mark.parametrize("flag, value", [
        ("--lr", "-1"), ("--lr", "nan"), ("--lr", "inf"),
        ("--dropout", "1.5"), ("--dropout", "1"), ("--dropout", "-0.1"),
        ("--max-len", "0"), ("--heads", "0"), ("--heads", "3"),  # 3 does not divide 256
        ("--layers", -1), ("--ffn-dim", 0), ("--epochs", "0"), ("--epochs", "-1"),
        ("--patience", "0"), ("--patience", "-1"), ("--seed", "-1"),
    ])
    def test_out_of_range_train_flag_is_usage_error(self, pipeline_dir, tmp_path, monkeypatch,
                                                    flag, value):
        loads = []
        monkeypatch.setattr(cli, "load_entries", loads.append)
        out = tmp_path / "out"
        out.mkdir()
        with pytest.raises(SystemExit) as exc:
            run(["train", "--data", pipeline_dir, "--manifest", pipeline_dir / "manifest.json",
                 "--checkpoint", out / "x.ckpt", "--epochs", 1, f"{flag}={value}"])
        assert exc.value.code == 1
        assert loads == []
        assert list(out.iterdir()) == []

    @pytest.mark.parametrize("flag, value, message", [
        ("--epochs", "0", "--epochs must be an integer >= 1, got 0"),
        ("--layers", "-1", "--layers must be an integer >= 0, got -1"),
        ("--heads", "3", "--embed-dim 256 not divisible by --heads 3"),
        ("--lr", "nan", "--lr must be finite and >= 0, got nan"),
    ])
    def test_out_of_range_train_flag_is_named_under_train_usage(self, tmp_path, capsys, flag,
                                                                 value, message):
        with pytest.raises(SystemExit) as exc:
            run(["train", "--data", tmp_path, "--manifest", tmp_path / "m.json",
                 "--checkpoint", tmp_path / "x.ckpt", f"{flag}={value}"])
        assert exc.value.code == 1
        err = capsys.readouterr().err
        assert err.startswith("usage: contactformer train ")
        assert err.splitlines()[-1] == f"contactformer train: error: {message}"
        assert list(tmp_path.iterdir()) == []

    @settings(max_examples=200, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(flags=st.fixed_dictionaries({flag: st.none() | values
                                        for flag, (_, _, values) in TRAIN_FLAGS.items()}))
    @example(flags={"--lr": 0.0, "--dropout": 0.0, "--heads": 1, "--max-len": 1, "--layers": 0,
                    "--ffn-dim": 1, "--epochs": 1, "--patience": 1, "--seed": 0,
                    "--batch-size": 1})
    @example(flags={"--embed-dim": 64, "--heads": 8})
    def test_configs_alone_decide_train_flag_ranges(self, tmp_path, flags):
        given_flags = {flag: value for flag, value in flags.items() if value is not None}
        kwargs = {"model": {"n_classes": 1}, "train": {}}
        for flag, value in given_flags.items():
            config, field, _ = TRAIN_FLAGS[flag]
            kwargs[config][field] = value
        try:
            ModelConfig(**kwargs["model"])
            TrainConfig(**kwargs["train"])
            valid = True
        except ValueError:
            valid = False

        loads = []

        def loader(*args):
            loads.append(args)
            raise _Loaded

        argv = ["train", "--data", tmp_path, "--manifest", tmp_path / "manifest.json",
                "--checkpoint", tmp_path / "x.ckpt"]
        argv += [f"{flag}={value}" for flag, value in given_flags.items()]
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(cli, "_load_splits", loader)
            with pytest.raises(_Loaded if valid else SystemExit) as exc:
                run(argv)
        assert len(loads) == (1 if valid else 0)
        if not valid:
            assert exc.value.code == 1
        assert list(tmp_path.iterdir()) == []

    def test_divergence_maps_to_exit_three(self, pipeline_dir, monkeypatch, tmp_path):
        from contactformer.train import Divergence

        def explode(*args, **kwargs):
            raise Divergence("boom")

        monkeypatch.setattr(cli, "train", explode)
        code = run(["train", "--data", pipeline_dir,
                    "--manifest", pipeline_dir / "manifest.json",
                    "--checkpoint", tmp_path / "x.ckpt", "--epochs", 1])
        assert code == 3


class TestParserDefaults:
    def test_train_defaults_are_the_configs(self):
        args = cli.build_parser().parse_args(["train", "--data", "d", "--manifest", "m",
                                              "--checkpoint", "c"])
        assert cli._train_configs(args, 1) == (ModelConfig(n_classes=1), TrainConfig())

    def test_prep_threshold_defaults_to_the_contact_threshold(self):
        args = cli.build_parser().parse_args(["prep", "--index", "i", "--pdb-dir", "p",
                                              "--out", "o"])
        assert args.threshold == DEFAULT_THRESHOLD
