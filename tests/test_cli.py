import json
import os
import shutil
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from matrices import csr, mat_bytes, to_scipy
from test_seqmodel import model_file, write_model_file

import apisentry
from apisentry import cli, reproduce, seqmodel
from apisentry.cli import main
from apisentry.data import demo_corpus_path, generate_demo_corpus
from apisentry.gbdt import GbdtConfig, save_detector, train_bagged
from apisentry.metrics import RareLabel
from apisentry.ngrams import CsrMatrix, load_matrix, save_matrix
from apisentry.seqmodel import BiLstmConfig, init_model, save_model


@pytest.fixture()
def demo(tmp_path):
    raw = tmp_path / "raw.csv"
    shutil.copy(demo_corpus_path(), raw)
    return raw


def test_bundled_demo_corpus_matches_generator():
    assert demo_corpus_path().read_text(encoding="utf-8") == generate_demo_corpus()


def python(code, *args):
    """Run `code` in a fresh interpreter that imports this checkout's
    apisentry; returns its standard output."""
    env = dict(os.environ, PYTHONPATH=str(Path(apisentry.__file__).parents[1]))
    return subprocess.run([sys.executable, "-c", code, *map(str, args)], env=env,
                          capture_output=True, text=True, check=True).stdout


def test_cli_import_leaves_scipy_stats_out():
    """scipy.stats took 0.86 s and 50 MB to import, most of the CLI's
    start-up, and scipy.sparse 0.25 s; the package needs neither."""
    code = "import sys, apisentry.cli; print(sorted(m for m in sys.modules if 'scipy' in m))"
    assert python(code).strip() == "[]"


WITHOUT_SCIPY = """
import sys
import tracemalloc
from pathlib import Path


class NoScipy:
    def find_spec(self, name, path=None, target=None):
        if name.partition(".")[0] == "scipy":
            raise ImportError(f"{name} is not available")


sys.meta_path.insert(0, NoScipy())
from apisentry import gbdt, ngrams
from apisentry.cli import main

work = Path(sys.argv[1])
steps = [
    ["ingest", "--in", sys.argv[2], "--collapse", "--out", work / "cooked.csv"],
    ["featurize", "--fit", "--vocab", work / "vocab.tsv", "--in", work / "cooked.csv",
     "--out", work / "x.mat", "--labels-out", work / "y.labels"],
    ["train-detector", "--train", work / "x.mat", "--labels", work / "y.labels",
     "--out", work / "model.det"],
    ["detect", "--model", work / "model.det", "--in", work / "x.mat", "--out", work / "p.csv"],
    ["evaluate", "--task", "detect", "--pred", work / "p.csv", "--truth", work / "y.labels",
     "--out", work / "report.json"],
    ["rank-features", "--model", work / "model.det", "--vocab", work / "vocab.tsv",
     "-k", "3", "--out", work / "rank.tsv"],
]
for argv in steps:
    assert main([str(a) for a in argv]) == 0, argv
x = ngrams.vectorize([7, 8, 9, 1], ngrams.load_vocabulary(work / "vocab.tsv"))
print(*gbdt.ensemble_predict(gbdt.load_detector(work / "model.det"), x))
"""


def test_detection_runs_where_scipy_cannot_be_imported(demo, tmp_path):
    """An import of scipy anywhere on these paths, even inside a function,
    fails here."""
    label, score = python(WITHOUT_SCIPY, tmp_path, demo).splitlines()[-1].split()
    assert label in ("0", "1") and 0.0 <= float(score) <= 1.0


def run(*argv):
    return main([str(a) for a in argv])


def detector_pipeline(workdir, raw, seed=42, trees_config=None):
    """ingest -> split -> balance -> featurize -> train-detector -> detect
    -> evaluate; returns the paths of everything produced."""
    paths = {
        "cooked": workdir / "cooked.csv",
        "train": workdir / "train.csv",
        "test": workdir / "test.csv",
        "train_bal": workdir / "train_bal.csv",
        "test_bal": workdir / "test_bal.csv",
        "vocab": workdir / "vocab.tsv",
        "train_mat": workdir / "train.mat",
        "train_labels": workdir / "train.labels",
        "test_mat": workdir / "test.mat",
        "test_labels": workdir / "test.labels",
        "model": workdir / "model.det",
        "preds": workdir / "predictions.csv",
        "report": workdir / "report.json",
    }
    config = workdir / "gbdt.cfg"
    config.write_text(trees_config or "", encoding="utf-8")
    assert run("ingest", "--in", raw, "--format", "csv", "--collapse",
               "--max-len", 100, "--out", paths["cooked"]) == 0
    assert run("split", "--in", paths["cooked"], "--out-train", paths["train"],
               "--out-test", paths["test"], "--test-frac", 0.2, "--seed", seed) == 0
    assert run("balance", "--in", paths["train"], "--out", paths["train_bal"],
               "--test-in", paths["test"], "--test-out", paths["test_bal"],
               "--seed", seed) == 0
    assert run("featurize", "--vocab", paths["vocab"], "--fit",
               "--in", paths["train_bal"], "--out", paths["train_mat"],
               "--labels-out", paths["train_labels"]) == 0
    assert run("featurize", "--vocab", paths["vocab"],
               "--in", paths["test_bal"], "--out", paths["test_mat"],
               "--labels-out", paths["test_labels"]) == 0
    assert run("train-detector", "--train", paths["train_mat"],
               "--labels", paths["train_labels"], "--out", paths["model"],
               "--seed", seed, "--config", config) == 0
    assert run("detect", "--model", paths["model"], "--in", paths["test_mat"],
               "--out", paths["preds"]) == 0
    assert run("evaluate", "--task", "detect", "--pred", paths["preds"],
               "--truth", paths["test_labels"], "--out", paths["report"]) == 0
    return paths


class TestPipeline:
    def test_end_to_end_detection(self, demo, tmp_path):
        paths = detector_pipeline(tmp_path, demo)
        report = json.loads(paths["report"].read_text())
        assert report["task"] == "detect"
        assert report["accuracy"] >= 0.95  # planted 3-gram separates the demo corpus
        assert paths["report"].with_suffix(".json.manifest.json").exists()

    def test_stored_zero_lines_change_no_output(self, demo, tmp_path):
        paths = detector_pipeline(tmp_path, demo)
        for name in ("train_mat", "test_mat"):  # a 0 in each row's first empty cell
            m = load_matrix(paths[name])
            rows = np.concatenate([np.repeat(np.arange(m.shape[0]), np.diff(m.indptr)),
                                   np.arange(m.shape[0])])
            cols = np.concatenate([m.indices, (to_scipy(m).toarray() == 0).argmax(axis=1)])
            order = np.lexsort((cols, rows))
            zeros = CsrMatrix(np.append(m.data, np.zeros(m.shape[0]))[order], cols[order],
                              np.searchsorted(rows[order], np.arange(m.shape[0] + 1)), m.shape)
            save_matrix(zeros, tmp_path / f"{name}.zeros")
        model, preds = tmp_path / "zeros.det", tmp_path / "zeros.csv"
        assert run("train-detector", "--train", tmp_path / "train_mat.zeros",
                   "--labels", paths["train_labels"], "--out", model,
                   "--config", tmp_path / "gbdt.cfg") == 0
        assert model.read_bytes() == paths["model"].read_bytes()
        assert run("detect", "--model", model, "--in", tmp_path / "test_mat.zeros",
                   "--out", preds) == 0
        assert preds.read_bytes() == paths["preds"].read_bytes()

    def test_manifest_contents(self, demo, tmp_path):
        cooked = tmp_path / "out.csv"
        assert run("ingest", "--in", demo, "--collapse", "--out", cooked) == 0
        manifest = json.loads((tmp_path / "out.csv.manifest.json").read_text())
        assert manifest["command"] == "ingest"
        assert manifest["config"]["collapse"] is True
        assert str(cooked) in manifest["outputs"]
        assert all(d.startswith("sha256:") for d in manifest["outputs"].values())

    def test_featurize_manifests_place_the_vocabulary(self, demo, tmp_path):
        vocab = tmp_path / "vocab.tsv"
        assert run("featurize", "--vocab", vocab, "--fit", "--in", demo,
                   "--out", tmp_path / "fit.mat") == 0
        assert run("featurize", "--vocab", vocab, "--in", demo,
                   "--out", tmp_path / "apply.mat") == 0
        fit = json.loads((tmp_path / "fit.mat.manifest.json").read_text())
        apply = json.loads((tmp_path / "apply.mat.manifest.json").read_text())
        assert str(vocab) in fit["outputs"] and str(vocab) not in fit["inputs"]
        assert str(vocab) in apply["inputs"] and str(vocab) not in apply["outputs"]

    def test_reproduce_manifest_lists_the_dataset(self, demo, tmp_path):
        outdir = tmp_path / "repro"
        assert run("reproduce", "--dataset1", demo, "--outdir", outdir, "--quick",
                   "--seq-traces", 5, "--top-k", 50) == 0
        manifest = json.loads((outdir / "summary.txt.manifest.json").read_text())
        assert list(manifest["inputs"]) == [str(demo)]

    def test_reproduce_top_ngrams_are_rank_features_rows(self, demo, tmp_path, capsys):
        outdir = tmp_path / "repro"
        assert run("reproduce", "--dataset1", demo, "--outdir", outdir, "--quick",
                   "--seq-traces", 5, "--top-k", 50) == 0
        capsys.readouterr()
        assert run("rank-features", "--model", outdir / "d1_detector.det",
                   "--vocab", outdir / "d1_vocab.tsv", "-k", 10) == 0
        ranked = capsys.readouterr().out.splitlines()[1:]
        top = (outdir / "d1_features_top10.tsv").read_text().splitlines()[1:]
        assert len(top) == len(ranked) == 10
        assert [row.rsplit("\t", 2)[0] for row in top] == ranked

    def test_reproduce_rare_label_aucs_are_17_digits(self, demo, tmp_path, monkeypatch):
        monkeypatch.setattr(reproduce, "rare_label_report", lambda corpus, auc: [
            RareLabel(label=3, frequency=1, auc=None), RareLabel(label=4, frequency=2, auc=0.1)])
        outdir = tmp_path / "repro"
        assert run("reproduce", "--dataset2", demo, "--outdir", outdir, "--quick",
                   "--seq-traces", 5) == 0
        assert (outdir / "dataset2_rare_labels.tsv").read_text() == (
            "label\tfrequency\tauc\n3\t1\tundefined\n4\t2\t0.10000000000000001\n")

    def test_reproduce_top_k_zero_keeps_every_ngram(self, demo, tmp_path):
        for top_k in (0, 10**9):
            assert run("reproduce", "--dataset1", demo, "--outdir", tmp_path / str(top_k),
                       "--quick", "--seq-traces", 5, "--top-k", top_k) == 0
        vocab = (tmp_path / "0" / "d1_vocab.tsv").read_bytes()
        assert vocab == (tmp_path / str(10**9) / "d1_vocab.tsv").read_bytes()
        assert vocab.count(b"\n") > 50

    def test_rank_features_finds_planted_trigram(self, demo, tmp_path, capsys):
        paths = detector_pipeline(tmp_path, demo)
        out = tmp_path / "rank.tsv"
        assert run("rank-features", "--model", paths["model"],
                   "--vocab", paths["vocab"], "-k", 5, "--out", out) == 0
        top = out.read_text().splitlines()[1]
        assert "[7,8,9]" in top

    def test_predictor_roundtrip(self, demo, tmp_path, capsys):
        cooked = tmp_path / "cooked.csv"
        model = tmp_path / "model.seq"
        curves = tmp_path / "curves.csv"
        assert run("ingest", "--in", demo, "--collapse", "--out", cooked) == 0
        assert run("train-predictor", "--in", cooked, "--out", model,
                   "--embed", 8, "--hidden", 8, "--max-epochs", 1,
                   "--batch-size", 256, "--curves", curves, "--seed", 1) == 0
        assert curves.read_text().startswith("epoch,train_loss,val_loss")
        capsys.readouterr()
        assert run("predict-next", "--model", model, "--seq", "7,8", "-k", 3) == 0
        printed = capsys.readouterr().out.strip().split(",")
        assert len(printed) == 3
        assert all(tok.isdigit() for tok in printed)


# int() reads each as the number its ASCII digits spell: '0_5' as 5, and
# Arabic-Indic or full-width digits as ASCII ones
OTHER_SPELLINGS = [
    lambda digits: "0_" + digits,
    lambda digits: digits.translate({0x30 + i: 0x660 + i for i in range(10)}),
    lambda digits: digits.translate({0x30 + i: 0xff10 + i for i in range(10)}),
]


class TestValidation:
    def test_missing_required_flag_exits_one(self, capsys):
        assert run("predict-next", "--seq", "1,2") == 1
        err = capsys.readouterr().err
        assert "usage" in err and "--model" in err

    def test_unknown_command_exits_one(self):
        assert run("frobnicate") == 1

    def test_missing_input_file_exits_one(self, tmp_path, capsys):
        assert run("ingest", "--in", tmp_path / "nope.csv",
                   "--out", tmp_path / "out.csv") == 1
        assert "missing input" in capsys.readouterr().err

    def test_malformed_corpus_exits_one(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text("0,1,2\n0,x\n")
        assert run("ingest", "--in", bad, "--out", tmp_path / "out.csv") == 1
        assert "line 2" in capsys.readouterr().err

    def test_reproduce_without_datasets_exits_one(self, tmp_path, capsys):
        assert run("reproduce", "--outdir", tmp_path / "repro") == 1
        assert not (tmp_path / "repro").exists()
        err = capsys.readouterr().err
        assert err.startswith("apisentry: error: reproduce: no datasets supplied.\n")
        assert "--dataset1 d1.csv and/or --dataset2 d2.csv" in err

    def test_reproduce_dataset_beyond_its_vocabulary_cap_exits_one(self, tmp_path, capsys):
        big = tmp_path / "d2.csv"
        big.write_text("#vocab=343\n1,1,2,3\n")
        assert run("reproduce", "--dataset2", big, "--outdir", tmp_path / "repro") == 1
        assert f"{big}: dataset2 should have vocabulary size <= 342, got 343" \
            in capsys.readouterr().err
        assert not (tmp_path / "repro" / "summary.txt").exists()

    def test_reproduce_checks_every_dataset_before_writing(self, demo, tmp_path, capsys):
        big = tmp_path / "big.csv"
        big.write_text("#vocab=343\n1,1,2,3\n")
        outdir = tmp_path / "repro"
        assert run("reproduce", "--dataset1", demo, "--dataset2", big, "--outdir", outdir,
                   "--quick", "--seq-traces", 5, "--top-k", 50) == 1
        assert f"{big}: dataset2 should have vocabulary size <= 342, got 343" \
            in capsys.readouterr().err
        assert not outdir.exists()
        assert sorted(p.name for p in tmp_path.iterdir()) == ["big.csv", "raw.csv"]

    def test_version_flag(self, capsys):
        assert run("--version") == 0

    def test_repeated_matrix_column_exits_one(self, demo, tmp_path, capsys):
        paths = detector_pipeline(tmp_path, demo)
        m, bad = load_matrix(paths["test_mat"]), tmp_path / "dup.mat"
        row = int(np.flatnonzero(np.diff(m.indptr) >= 2)[0])
        indices = m.indices.copy()
        indices[m.indptr[row] + 1] = indices[m.indptr[row]]
        bad.write_bytes(mat_bytes(m.shape, m.indptr, indices, m.data.astype(np.int64)))
        assert run("detect", "--model", paths["model"], "--in", bad,
                   "--out", tmp_path / "p.csv") == 1
        assert (f"{bad}: entry ({row},{indices[m.indptr[row]]}) holds "
                f"{int(m.data[m.indptr[row] + 1])}; columns must ascend") in capsys.readouterr().err

    def test_text_matrix_exits_one_naming_the_tag(self, tmp_path, capsys):
        matrix, labels = tmp_path / "x.mat", tmp_path / "y.labels"
        matrix.write_text("2,2\n0,1,1\n1,0,2\n")
        labels.write_text("0\n1\n")
        assert run("train-detector", "--train", matrix, "--labels", labels,
                   "--out", tmp_path / "m.det") == 1
        assert f"{matrix}: line 1: not an 'apisentry-matrix v2' file" in capsys.readouterr().err

    @pytest.mark.parametrize("task, pred, truth, scores, refusal", [
        ("detect", "row,label,score\n0,1,0.9\n1,0,0.2\n", "1\n0\n", "0.9\n0.2\n0.4\n",
         "{scores} has 3 scores but {truth} has 2 truths"),
        ("detect", "row,label,score\n0,1,0.9\n1,0,0.2\n", "1\n0\n1\n0\n1\n", None,
         "{pred} has 2 predictions but {truth} has 5 truths"),
        ("next-call", "1\n0\n", "1\n0\n2\n", None,
         "{pred} has 2 predictions but {truth} has 3 truths"),
        ("next-call", "1\n0\n", "1\n0\n", "0.5,0.5\n0.5,0.5\n1,0\n",
         "{scores} has 3 scores but {truth} has 2 truths"),
    ], ids=["detect-scores", "detect-pred", "next-call-pred", "next-call-scores"])
    def test_evaluate_count_mismatch_names_both_files_and_exits_one(
            self, tmp_path, capsys, task, pred, truth, scores, refusal):
        paths = {"pred": tmp_path / "pred.txt", "truth": tmp_path / "truth.txt",
                 "scores": tmp_path / "scores.txt"}
        argv = ["evaluate", "--task", task]
        for name, text in (("pred", pred), ("truth", truth), ("scores", scores)):
            if text is not None:
                paths[name].write_text(text)
                argv += [f"--{name}", paths[name]]
        out = tmp_path / "report.json"
        assert run(*argv, "--out", out) == 1
        assert refusal.format(**paths) in capsys.readouterr().err
        assert not out.exists()

    def test_truncated_sequence_model_header_exits_one(self, tmp_path, capsys):
        model, lines, _ = model_file(tmp_path)
        write_model_file(model, lines[:20], b"")
        assert run("predict-next", "--model", model, "--seq", "1,2") == 1
        assert f"{model}: line 21: unexpected end of file" in capsys.readouterr().err

    def test_payload_size_the_tensors_do_not_take_is_refused_at_its_line(self, tmp_path,
                                                                        capsys):
        model, lines, payload = model_file(tmp_path)
        at = len(lines) - 1
        lines[at] = f"payload {len(payload) + 8}"
        write_model_file(model, lines, payload + bytes(8))
        assert run("predict-next", "--model", model, "--seq", "1,2") == 1
        assert f"{model}: line {at + 1}: the tensors take {len(payload)} bytes, " \
            f"not {len(payload) + 8}" in capsys.readouterr().err

    @pytest.mark.parametrize("field", ["learning_rate", "adam_eps"])
    def test_infinite_sequence_model_setting_refused_at_its_own_line(self, tmp_path, capsys,
                                                                      field):
        model, lines, payload = model_file(tmp_path)
        at = next(i for i, ln in enumerate(lines) if ln.startswith(field + " "))
        lines[at] = f"{field} inf"
        write_model_file(model, lines, payload)
        assert run("predict-next", "--model", model, "--seq", "1,2") == 1
        assert f"{model}: line {at + 1}: {field} must be" in capsys.readouterr().err

    def test_sequence_model_with_zero_hidden_exits_one(self, tmp_path, capsys):
        model, lines, payload = model_file(tmp_path)
        write_model_file(model, ["hidden 0" if ln == "hidden 2" else ln for ln in lines], payload)
        assert run("predict-next", "--model", model, "--seq", "1,2") == 1
        # line 1 is the format tag, then vocab_size, embed_dim and hidden
        assert f"{model}: line 4: hidden must be >= 1" in capsys.readouterr().err

    @pytest.mark.parametrize("field, tensor, shape", [
        ("vocab_size", "emb", (6, 2)), ("embed_dim", "emb", (6, 2)), ("hidden", "fw.W", (2, 8)),
    ])
    def test_sequence_model_sizes_the_file_does_not_hold_exit_one(self, tmp_path, capsys,
                                                                  field, tensor, shape):
        """Sized from the config lines alone, these parameters would take
        terabytes; the first tensor header that disagrees is refused."""
        model, lines, payload = model_file(tmp_path)
        at = lines.index(f"{field} 2" if field != "vocab_size" else "vocab_size 5")
        lines[at] = f"{field} 100000000000"
        write_model_file(model, lines, payload)
        assert run("predict-next", "--model", model, "--seq", "1,2") == 1
        header = lines.index(f"tensor {tensor} {shape[0]} {shape[1]}") + 1
        assert f"{model}: line {header}: tensor '{tensor}' has wrong shape {shape}" \
            in capsys.readouterr().err

    @pytest.mark.parametrize("field, bad", [
        ("max_depth", "0"), ("learning_rate", "0"), ("n_estimators", "-1"),
        ("reg_lambda", "-1"), ("gamma", "nan"), ("min_child_hessian", "-inf"),
        ("reg_lambda", "inf"), ("gamma", "inf"), ("min_child_hessian", "inf"),
        ("combine", "average"), ("threshold", "7"), ("threshold", "nan"), ("members", "2"),
    ])
    def test_detector_config_value_refused_at_its_own_line(self, tmp_path, capsys, field, bad):
        model, matrix, lines = self.small_detector(tmp_path)
        at = next(i for i, ln in enumerate(lines) if ln.startswith(field + " "))
        lines[at] = f"{field} {bad}"
        model.write_text("\n".join(lines) + "\n")
        assert run("detect", "--model", model, "--in", matrix,
                   "--out", tmp_path / "p.csv") == 1
        assert f"{model}: line {at + 1}: {field} must be" in capsys.readouterr().err

    @pytest.mark.parametrize("kind, index, bad", [
        ("base_score ", 1, "inf"), ("l ", 1, "nan"), ("s ", 2, "nan"), ("s ", 5, "-inf"),
    ])
    def test_non_finite_detector_number_exits_one(self, tmp_path, capsys, kind, index, bad):
        model, matrix, lines = self.small_detector(tmp_path)
        at = next(i for i, ln in enumerate(lines) if ln.startswith(kind))
        parts = lines[at].split()
        lines[at] = " ".join(parts[:index] + [bad] + parts[index + 1:])
        model.write_text("\n".join(lines) + "\n")
        out = tmp_path / "p.csv"
        assert run("detect", "--model", model, "--in", matrix, "--out", out) == 1
        assert f"{model}: line {at + 1}: '{bad}' is not a finite number" \
            in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("flag, value, message", [
        ("--reg-lambda", "nan", "reg_lambda must be >= 0, got nan"),
        ("--gamma", "-1", "gamma must be >= 0, got -1.0"),
        ("--reg-lambda", "inf", "reg_lambda must be finite, got inf"),
        ("--gamma", "inf", "gamma must be finite, got inf"),
        ("--min-child-hessian", "inf", "min_child_hessian must be finite, got inf"),
        ("--threshold", "7", "threshold must be in [0,1], got 7.0"),
        ("--threshold", "nan", "threshold must be in [0,1], got nan"),
    ])
    def test_bad_detector_setting_exits_one(self, tmp_path, capsys, flag, value, message):
        _, matrix, _ = self.small_detector(tmp_path)
        labels, out = tmp_path / "y.labels", tmp_path / "m.det"
        labels.write_text("0\n0\n1\n1\n0\n0\n1\n1\n")
        assert run("train-detector", "--train", matrix, "--labels", labels,
                   "--out", out, flag, value) == 1
        assert f"error: {message}" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("flag, value, field", [
        ("--max-prefix-len", 0, "max_prefix_len"), ("--max-prefix-len", -3, "max_prefix_len"),
        ("--hidden", 0, "hidden"), ("--embed", 0, "embed_dim"), ("--lr", -0.5, "learning_rate"),
        ("--lr", "inf", "learning_rate"),
    ])
    def test_nonsense_predictor_size_exits_one(self, demo, tmp_path, capsys, flag, value, field):
        cooked, model = tmp_path / "cooked.csv", tmp_path / "model.seq"
        assert run("ingest", "--in", demo, "--collapse", "--out", cooked) == 0
        capsys.readouterr()
        assert run("train-predictor", "--in", cooked, "--out", model, "--max-epochs", 1,
                   flag, value) == 1
        assert f"error: {field} must be" in capsys.readouterr().err
        assert not model.exists()

    def test_blank_detector_node_line_exits_one(self, tmp_path, capsys):
        X = csr(np.array([[0.0, 1.0], [1.0, 0.0], [2.0, 1.0], [0.0, 3.0]]))
        model, matrix = tmp_path / "model.det", tmp_path / "x.mat"
        config = GbdtConfig(n_estimators=2, max_depth=2)
        save_detector(train_bagged(X, np.array([0, 1, 1, 0]), configs=[config] * 3), model)
        save_matrix(X, matrix)
        lines = model.read_text().splitlines()
        node = next(i for i, ln in enumerate(lines) if ln.startswith(("s ", "l ")))
        lines[node] = ""
        model.write_text("\n".join(lines) + "\n")
        assert run("detect", "--model", model, "--in", matrix,
                   "--out", tmp_path / "p.csv") == 1
        assert f"line {node + 1}: bad node line" in capsys.readouterr().err

    @staticmethod
    def small_detector(tmp_path):
        """A tiny detector file with split nodes, its matrix and the
        detector's lines."""
        X = csr(np.array([[i % 4, i // 4] for i in range(8)], dtype=float))
        model, matrix = tmp_path / "model.det", tmp_path / "x.mat"
        config = GbdtConfig(n_estimators=2, max_depth=2, min_child_hessian=0.1)
        save_detector(train_bagged(X, np.arange(8) % 4 // 2, configs=[config] * 3,
                                   bootstrap=False), model)
        save_matrix(X, matrix)
        return model, matrix, model.read_text().splitlines()

    @pytest.mark.parametrize("kind, edit", [
        ("s", lambda parts: parts + ["123", "junk"]), ("s", lambda parts: parts + ["7"]),
        ("s", lambda parts: parts[:-1]), ("l", lambda parts: parts + ["7"]),
        ("l", lambda parts: parts[:1]),
    ])
    def test_node_line_with_a_field_too_many_or_too_few_exits_one(self, tmp_path, capsys,
                                                                  kind, edit):
        model, matrix, lines = self.small_detector(tmp_path)
        node = next(i for i, ln in enumerate(lines) if ln.startswith(kind + " "))
        lines[node] = " ".join(edit(lines[node].split()))
        model.write_text("\n".join(lines) + "\n")
        assert run("detect", "--model", model, "--in", matrix,
                   "--out", tmp_path / "p.csv") == 1
        assert f"{model}: line {node + 1}: bad node line" in capsys.readouterr().err

    def test_node_count_beyond_the_file_exits_one(self, tmp_path, capsys):
        model, matrix, lines = self.small_detector(tmp_path)
        last_tree = max(i for i, ln in enumerate(lines) if ln.startswith("tree "))
        lines[last_tree] = "tree 1 1000000000000"
        model.write_text("\n".join(lines) + "\n")
        assert run("detect", "--model", model, "--in", matrix,
                   "--out", tmp_path / "p.csv") == 1
        assert f"{model}: line {len(lines) + 1}: unexpected end of file" \
            in capsys.readouterr().err

    def test_tree_without_nodes_exits_one(self, tmp_path, capsys):
        model, matrix, lines = self.small_detector(tmp_path)
        tree = max(i for i, ln in enumerate(lines) if ln.startswith("tree "))
        lines[tree:] = ["tree 1 0"]  # the last tree, without its nodes
        model.write_text("\n".join(lines) + "\n")
        assert run("detect", "--model", model, "--in", matrix,
                   "--out", tmp_path / "p.csv") == 1
        assert f"{model}: line {tree + 1}: a tree has at least one node" \
            in capsys.readouterr().err

    def test_split_node_pointing_back_exits_one(self, tmp_path, capsys):
        model, matrix, lines = self.small_detector(tmp_path)
        node = next(i for i, ln in enumerate(lines) if ln.startswith("s "))
        parts = lines[node].split()
        lines[node] = " ".join(parts[:3] + ["0"] + parts[4:])
        model.write_text("\n".join(lines) + "\n")
        assert run("detect", "--model", model, "--in", matrix,
                   "--out", tmp_path / "p.csv") == 1
        assert f"{model}: line {node + 1}: split node out of range" in capsys.readouterr().err

    def test_matrix_header_too_large_to_allocate_exits_one(self, tmp_path, capsys):
        matrix, labels = tmp_path / "huge.mat", tmp_path / "y.labels"
        rows = 10**11
        matrix.write_bytes(mat_bytes((rows, 3), [0, 1], [0], [1], nnz=1,
                                     payload=8 * (rows + 3)))
        labels.write_text("1\n")
        tracemalloc.start()
        try:
            assert run("train-detector", "--train", matrix, "--labels", labels,
                       "--out", tmp_path / "m.det") == 1
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20
        assert f"{matrix}: the payload holds 32 bytes, not {8 * (rows + 3)}" \
            in capsys.readouterr().err

    @pytest.mark.parametrize("spell", OTHER_SPELLINGS)
    @pytest.mark.parametrize("prefix, index", [
        ("n_features ", 1), ("members ", 1), ("max_depth ", 1), ("n_estimators ", 1),
        ("member ", 1), ("trees ", 1), ("tree ", 1), ("tree ", 2), ("s ", 1), ("s ", 3),
        ("s ", 4),
    ])
    def test_detector_integer_in_another_spelling_exits_one(self, tmp_path, capsys, spell,
                                                            prefix, index):
        model, matrix, lines = self.small_detector(tmp_path)
        at = next(i for i, ln in enumerate(lines) if ln.startswith(prefix))
        parts = lines[at].split()
        parts[index] = spell(parts[index])
        lines[at] = " ".join(parts)
        model.write_text("\n".join(lines) + "\n")
        assert run("detect", "--model", model, "--in", matrix,
                   "--out", tmp_path / "p.csv") == 1
        assert f"{model}: line {at + 1}: {parts[index]!r} is not an integer" \
            in capsys.readouterr().err

    @pytest.mark.parametrize("spell", OTHER_SPELLINGS)
    @pytest.mark.parametrize("prefix, index", [
        ("threshold ", 1), ("learning_rate ", 1), ("reg_lambda ", 1),
        ("min_child_hessian ", 1), ("base_score ", 1), ("s ", 2), ("s ", 5), ("l ", 1),
    ])
    def test_detector_float_in_another_spelling_exits_one(self, tmp_path, capsys, spell,
                                                          prefix, index):
        model, matrix, lines = self.small_detector(tmp_path)
        at = next(i for i, ln in enumerate(lines) if ln.startswith(prefix))
        parts = lines[at].split()
        sign, digits = parts[index][:parts[index].startswith("-")], parts[index].lstrip("-")
        parts[index] = sign + spell(digits)
        lines[at] = " ".join(parts)
        model.write_text("\n".join(lines) + "\n")
        assert run("detect", "--model", model, "--in", matrix,
                   "--out", tmp_path / "p.csv") == 1
        assert f"{model}: line {at + 1}: {parts[index]!r} is not a number" \
            in capsys.readouterr().err

    @pytest.mark.parametrize("spell", OTHER_SPELLINGS)
    @pytest.mark.parametrize("line", ["vocab_size 5", "hidden 2", "max_prefix_len 99",
                                      "tensor emb 6 2", "tensor dense.b 5", "payload 936"])
    def test_sequence_model_integer_in_another_spelling_exits_one(self, tmp_path, capsys,
                                                                  spell, line):
        model, lines, payload = model_file(tmp_path)
        at = lines.index(line)
        parts = line.split()
        parts[-1] = spell(parts[-1])
        lines[at] = " ".join(parts)
        write_model_file(model, lines, payload)
        assert run("predict-next", "--model", model, "--seq", "1,2") == 1
        assert f"{model}: line {at + 1}: {parts[-1]!r} is not an integer" \
            in capsys.readouterr().err

    @pytest.mark.parametrize("spell", OTHER_SPELLINGS)
    @pytest.mark.parametrize("field", ["dropout_rate", "learning_rate", "adam_eps"])
    def test_sequence_model_float_in_another_spelling_exits_one(self, tmp_path, capsys,
                                                                spell, field):
        model, lines, payload = model_file(tmp_path)
        at = next(i for i, ln in enumerate(lines) if ln.startswith(field + " "))
        bad = spell(lines[at].split()[1])
        lines[at] = f"{field} {bad}"
        write_model_file(model, lines, payload)
        assert run("predict-next", "--model", model, "--seq", "1,2") == 1
        assert f"{model}: line {at + 1}: {bad!r} is not a number" in capsys.readouterr().err

    def test_label_outside_zero_one_exits_one(self, tmp_path, capsys):
        _, matrix, _ = self.small_detector(tmp_path)
        labels = tmp_path / "y.labels"
        labels.write_text("2\n0\n1\n1\n0\n0\n1\n1\n")
        out = tmp_path / "m.det"
        assert run("train-detector", "--train", matrix, "--labels", labels,
                   "--no-bootstrap", "--out", out) == 1
        assert f"{labels}: line 1: label must be 0, 1 or '-', got '2'" \
            in capsys.readouterr().err
        assert not out.exists()


MALFORMED_LINE_CASES = {
    # case: (files to write, argv naming them, the malformed file, its bad line)
    "prediction row": (
        {"pred.csv": "row,label,score\n0,1\n", "truth.txt": "1\n"},
        ["evaluate", "--pred", "pred.csv", "--truth", "truth.txt"], "pred.csv", 2),
    "truth token": (
        {"pred.csv": "row,label,score\n0,1,0.9\n1,0,0.1\n", "truth.txt": "1\nx\n"},
        ["evaluate", "--pred", "pred.csv", "--truth", "truth.txt"], "truth.txt", 2),
    "detect score token": (
        {"pred.csv": "row,label,score\n0,1,0.9\n", "truth.txt": "1\n", "s.txt": "high\n"},
        ["evaluate", "--pred", "pred.csv", "--truth", "truth.txt", "--scores", "s.txt"],
        "s.txt", 1),
    "ragged score rows": (
        {"p.txt": "0\n1\n", "t.txt": "0\n1\n", "s.csv": "0.5,0.5\n0.2\n"},
        ["evaluate", "--task", "next-call", "--pred", "p.txt", "--truth", "t.txt",
         "--scores", "s.csv"], "s.csv", 2),
    "labels token": (
        {"x.mat": mat_bytes((2, 2), [0, 1, 2], [1, 0], [1, 2]), "y.labels": "zero\n1\n"},
        ["train-detector", "--train", "x.mat", "--labels", "y.labels"], "y.labels", 1),
    "vocabulary line": (
        {"c.csv": "0,1,2,3\n", "v.tsv": "#built_from=c.csv\n#min_count=1\nx\t1,2\t1\n"},
        ["featurize", "--vocab", "v.tsv", "--in", "c.csv"], "v.tsv", 3),
    "vocabulary n-gram id with an underscore": (
        {"c.csv": "0,1,2,3\n", "v.tsv": "#built_from=c.csv\n#min_count=1\n0\t1_0,2\t3\n"},
        ["featurize", "--vocab", "v.tsv", "--in", "c.csv"], "v.tsv", 3),
    "vocabulary n-gram id with a non-ASCII digit": (
        {"c.csv": "0,1,2,3\n", "v.tsv": "#built_from=c.csv\n#min_count=1\n0\t\u0663,4\t3\n"},
        ["featurize", "--vocab", "v.tsv", "--in", "c.csv"], "v.tsv", 3),
    "vocabulary column with an underscore": (
        {"c.csv": "0,1,2,3\n", "v.tsv": "#built_from=c.csv\n#min_count=1\n0_0\t1,2\t3\n"},
        ["featurize", "--vocab", "v.tsv", "--in", "c.csv"], "v.tsv", 3),
    "vocabulary count with a full-width digit": (
        {"c.csv": "0,1,2,3\n", "v.tsv": "#built_from=c.csv\n#min_count=1\n0\t1,2\t\uff13\n"},
        ["featurize", "--vocab", "v.tsv", "--in", "c.csv"], "v.tsv", 3),
    "vocabulary minimum count with an underscore": (
        {"c.csv": "0,1,2,3\n", "v.tsv": "#built_from=c.csv\n#min_count=0_1\n0\t1,2\t3\n"},
        ["featurize", "--vocab", "v.tsv", "--in", "c.csv"], "v.tsv", 2),
    "corpus call id": (
        {"c.csv": "1,2,x\n"}, ["ingest", "--in", "c.csv"], "c.csv", 1),
    "corpus call id with an underscore": (
        {"c.csv": "1,2,3\n0,1_0,2\n"}, ["ingest", "--in", "c.csv"], "c.csv", 2),
    "adapt wide call id with an underscore": (
        {"w.csv": "hash,t_0,t_1,malware\na,1,2,1\nb,1_0,4,0\n"},
        ["adapt", "--in", "w.csv"], "w.csv", 3),
    "adapt seqcol call id with an underscore": (
        {"s.csv": "hash,calls\na,1 2\nb,2 1_0\n"},
        ["adapt", "--in", "s.csv", "--layout", "seqcol"], "s.csv", 3),
    "adapt line after a blank line": (
        {"s.csv": "hash,calls,y\n\na,1 2,7\n"},
        ["adapt", "--in", "s.csv", "--layout", "seqcol", "--label-col", "y"], "s.csv", 3),
    "adapt wide label other than 0, 1 or -": (
        {"w.csv": "hash,t_0,t_1,malware\na,1,2,1\nb,3,4,yes\n"},
        ["adapt", "--in", "w.csv"], "w.csv", 3),
    "adapt row without the sequence column": (
        {"s.csv": "hash,y,calls\na,1\n"},
        ["adapt", "--in", "s.csv", "--layout", "seqcol"], "s.csv", 2),
    "prediction label beyond 64 bits": (
        {"pred.csv": "row,label,score\n0,1,0.9\n1,99999999999999999999,0.1\n",
         "truth.txt": "1\n0\n"},
        ["evaluate", "--pred", "pred.csv", "--truth", "truth.txt"], "pred.csv", 3),
    "truth id beyond 64 bits": (
        {"p.txt": "0\n1\n", "t.txt": "0\n99999999999999999999\n"},
        ["evaluate", "--task", "next-call", "--pred", "p.txt", "--truth", "t.txt"], "t.txt", 2),
    "matrix shape beyond 64 bits": (
        {"x.mat": b"apisentry-matrix v2\nshape 99999999999999999999 2\nnnz 0\npayload 8\n",
         "y.labels": "0\n1\n"},
        ["train-detector", "--train", "x.mat", "--labels", "y.labels"], "x.mat", 4),
    "predictions without their header": (
        {"pred.csv": "0,1,0.9\n1,0,0.1\n2,1,0.8\n", "truth.txt": "1\n0\n"},
        ["evaluate", "--pred", "pred.csv", "--truth", "truth.txt"], "pred.csv", 1),
    "prediction row out of order": (
        {"pred.csv": "row,label,score\n0,1,0.9\n2,0,0.1\n", "truth.txt": "1\n0\n"},
        ["evaluate", "--pred", "pred.csv", "--truth", "truth.txt"], "pred.csv", 3),
    "prediction label other than 0 or 1": (
        {"pred.csv": "row,label,score\n0,7,0.9\n", "truth.txt": "1\n"},
        ["evaluate", "--pred", "pred.csv", "--truth", "truth.txt"], "pred.csv", 2),
    "truth label other than 0 or 1": (
        {"pred.csv": "row,label,score\n0,1,0.9\n1,0,0.1\n", "truth.txt": "1\n2\n"},
        ["evaluate", "--pred", "pred.csv", "--truth", "truth.txt"], "truth.txt", 2),
    "two truths on one line": (
        {"pred.csv": "row,label,score\n0,1,0.9\n1,0,0.1\n", "truth.txt": "1 0\n"},
        ["evaluate", "--pred", "pred.csv", "--truth", "truth.txt"], "truth.txt", 1),
    "detect score nan": (
        {"pred.csv": "row,label,score\n0,1,0.9\n", "truth.txt": "1\n", "s.txt": "nan\n"},
        ["evaluate", "--pred", "pred.csv", "--truth", "truth.txt", "--scores", "s.txt"],
        "s.txt", 1),
    "prediction score nan": (
        {"pred.csv": "row,label,score\n0,1,0.9\n1,0,nan\n", "truth.txt": "1\n0\n"},
        ["evaluate", "--pred", "pred.csv", "--truth", "truth.txt"], "pred.csv", 3),
    "matrix header with an underscore": (
        {"x.mat": b"apisentry-matrix v2\nshape 1_0 2\nnnz 0\npayload 88\n", "y.labels": "1\n"},
        ["train-detector", "--train", "x.mat", "--labels", "y.labels"], "x.mat", 2),
    "corpus vocabulary header with an underscore": (
        {"c.csv": "#vocab=1_0\n1,2,3\n"}, ["ingest", "--in", "c.csv"], "c.csv", 1),
    "adapt wide call column with a non-ASCII digit": (
        {"w.csv": "hash,t_0,t_\u0663,malware\na,1,2,1\n"}, ["adapt", "--in", "w.csv"],
        "w.csv", 1),
    "adapt wide call column with a negative index": (
        {"w.csv": "hash,t_0,t_-1,malware\na,1,2,1\n"}, ["adapt", "--in", "w.csv"],
        "w.csv", 1),
    "names id with a non-ASCII digit": (
        {"p.txt": "0\n1\n", "t.txt": "0\n1\n", "s.csv": "0.5,0.5\n0.5,0.5\n",
         "c.csv": "0,0,1\n", "n.csv": "id,name\n0,NtOpenFile\n\u0661,NtClose\n"},
        ["evaluate", "--task", "next-call", "--pred", "p.txt", "--truth", "t.txt",
         "--scores", "s.csv", "--corpus", "c.csv", "--names", "n.csv"], "n.csv", 3),
    "next-call truth id -1": (
        {"p.txt": "0\n1\n", "t.txt": "0\n-1\n"},
        ["evaluate", "--task", "next-call", "--pred", "p.txt", "--truth", "t.txt"], "t.txt", 2),
    "next-call prediction id -1": (
        {"p.txt": "-1\n1\n", "t.txt": "0\n1\n"},
        ["evaluate", "--task", "next-call", "--pred", "p.txt", "--truth", "t.txt"], "p.txt", 1),
    "score row with nan": (
        {"p.txt": "0\n1\n", "t.txt": "0\n1\n", "s.csv": "0.5,0.5\n0.2,nan\n"},
        ["evaluate", "--task", "next-call", "--pred", "p.txt", "--truth", "t.txt",
         "--scores", "s.csv"], "s.csv", 2),
}


@pytest.mark.parametrize("case", sorted(MALFORMED_LINE_CASES))
def test_malformed_line_exits_one_naming_file_and_line(case, tmp_path, capsys):
    files, argv, bad, line = MALFORMED_LINE_CASES[case]
    paths = {name: tmp_path / name for name in files}
    for name, text in files.items():
        paths[name].write_bytes(text if isinstance(text, bytes) else text.encode())
    out = tmp_path / "out"
    argv = [paths.get(arg, arg) for arg in argv] + ["--out", out]
    assert run(*argv) == 1
    assert f"{paths[bad]}: line {line}: " in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("test_args, refusal", [
    (["--test-in", "t.csv"], "--test-out is required with --test-in"),
    (["--test-in", "t.csv", "--test-out", "t_bal.csv"], "t.csv: line 2: "),
    (["--test-out", "t_bal.csv"], "--test-in is required with --test-out"),
], ids=["no --test-out", "malformed --test-in", "no --test-in"])
def test_balance_refusal_writes_nothing(test_args, refusal, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    Path("c.csv").write_text("0,1,2\n1,2,3\n0,3,1\n")
    Path("t.csv").write_text("0,1,2\nx,2,3\n")
    assert run("balance", "--in", "c.csv", "--out", "b.csv", *test_args) == 1
    assert refusal in capsys.readouterr().err
    assert sorted(os.listdir()) == ["c.csv", "t.csv"]


@pytest.fixture(scope="module")
def cli_inputs(tmp_path_factory):
    """A directory holding a valid file of each kind a command reads."""
    work = tmp_path_factory.mktemp("inputs")
    files = {
        "c.csv": "".join(f"{j % 2},{j % 5},{(j + 1) % 5},{(j + 2) % 5}\n" for j in range(12)),
        "t.csv": "0,1,2\n1,2,3\n",
        "w.csv": "hash,t_0,t_1,malware\na,1,2,0\nb,3,4,1\n",
        "p.txt": "0\n1\n", "t.txt": "0\n1\n", "s.csv": "0.5,0.5\n0.5,0.5\n",
        "n.csv": "id,name\n0,NtOpenFile\n1,NtClose\n",
    }
    for name, text in files.items():
        (work / name).write_text(text)
    save_model(init_model(BiLstmConfig(vocab_size=5, embed_dim=2, hidden=2), seed=0),
               work / "m.seq")
    for argv in (["featurize", "--vocab", "v.tsv", "--fit", "--in", "c.csv", "--out", "x.mat",
                  "--labels-out", "y.labels"],
                 ["train-detector", "--train", "x.mat", "--labels", "y.labels", "--out", "m.det"],
                 ["detect", "--model", "m.det", "--in", "x.mat", "--out", "p.csv"]):
        assert run(*(work / a if a in ("v.tsv", "c.csv", "x.mat", "y.labels", "m.det", "p.csv")
                     else a for a in argv)) == 0
    for manifest in work.glob("*.manifest.json"):
        manifest.unlink()
    return work


def untouched(*args, **kwargs):
    raise AssertionError("train_bagged ran")


@pytest.mark.parametrize("argv", [
    ["ingest", "--in", "c.csv", "--out", "nodir/o.csv"],
    ["adapt", "--in", "w.csv", "--out", "nodir/o.csv"],
    ["split", "--in", "c.csv", "--out-train", "tr.csv", "--out-test", "nodir/te.csv"],
    ["balance", "--in", "c.csv", "--out", "b.csv", "--test-in", "t.csv",
     "--test-out", "nodir/t.csv"],
    ["featurize", "--vocab", "new.tsv", "--fit", "--in", "c.csv", "--out", "m.mat",
     "--labels-out", "nodir/x"],
    ["featurize", "--vocab", "nodir/v.tsv", "--fit", "--in", "c.csv", "--out", "m.mat"],
    ["train-detector", "--train", "x.mat", "--labels", "y.labels", "--out", "nodir/m.det"],
    ["detect", "--model", "m.det", "--in", "x.mat", "--out", "nodir/p.csv"],
    ["rank-features", "--model", "m.det", "--vocab", "v.tsv", "--out", "nodir/r.tsv"],
    ["train-predictor", "--in", "c.csv", "--out", "model.seq", "--curves", "nodir/c.csv",
     "--embed", "2", "--hidden", "2", "--max-epochs", "1"],
    ["evaluate", "--pred", "p.csv", "--truth", "y.labels", "--out", "nodir/r.json"],
], ids=lambda argv: argv[0] + ("-vocab" if "nodir/v.tsv" in argv else ""))
def test_an_output_without_its_directory_writes_nothing(argv, cli_inputs, tmp_path,
                                                        monkeypatch, capsys):
    shutil.copytree(cli_inputs, tmp_path, dirs_exist_ok=True)
    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(cli, "train_bagged", untouched)
    before = sorted(os.listdir())
    assert run(*argv) == 1
    captured = capsys.readouterr()
    assert "missing output directory(ies): nodir" in captured.err
    assert captured.out == ""
    assert sorted(os.listdir()) == before


@pytest.mark.parametrize("argv", [
    ["train-detector", "--train", "x.mat", "--labels", "y.labels", "--out", "adir"],
    ["detect", "--model", "m.det", "--in", "x.mat", "--out", "adir"],
    ["rank-features", "--model", "m.det", "--vocab", "v.tsv", "--out", "adir"],
    ["evaluate", "--pred", "p.csv", "--truth", "y.labels", "--out", "adir"],
], ids=lambda argv: argv[0])
def test_an_output_that_is_a_directory_writes_nothing(argv, cli_inputs, tmp_path, monkeypatch,
                                                      capsys):
    shutil.copytree(cli_inputs, tmp_path, dirs_exist_ok=True)
    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(cli, "train_bagged", untouched)
    Path("adir").mkdir()
    before = sorted(os.listdir())
    assert run(*argv) == 1
    captured = capsys.readouterr()
    assert "error: output is a directory: adir\n" in captured.err
    assert captured.out == ""
    assert sorted(os.listdir()) == before and os.listdir("adir") == []


DETECT = ["--pred", "p.csv", "--truth", "y.labels"]
NEXT_CALL = ["--task", "next-call", "--pred", "p.txt", "--truth", "t.txt"]
SCORED = NEXT_CALL + ["--scores", "s.csv"]


@pytest.mark.parametrize("task, extra, needs", [
    pytest.param(task, extra, needs, id=f"{name} {extra[0]}")
    for name, task, extra, needs in [
        ("detect", DETECT, ["--rare-threshold", "3"], "--task next-call"),
        ("detect", DETECT, ["--corpus", "c.csv"], "--task next-call"),
        ("detect", DETECT, ["--names", "n.csv"], "--task next-call"),
        ("next-call", NEXT_CALL, ["--corpus", "c.csv", "--names", "n.csv",
                                  "--rare-threshold", "3"], "--scores"),
        ("next-call", SCORED, ["--names", "n.csv"], "--corpus"),
        ("next-call", SCORED, ["--rare-threshold", "3"], "--corpus"),
    ]])
def test_evaluate_refuses_an_option_its_task_cannot_use(task, extra, needs, cli_inputs,
                                                        tmp_path, monkeypatch, capsys):
    shutil.copytree(cli_inputs, tmp_path, dirs_exist_ok=True)
    monkeypatch.chdir(tmp_path)
    before = sorted(os.listdir())
    assert run("evaluate", *task, *extra, "--out", "r.json") == 1
    assert f"error: {extra[0]} needs {needs}\n" in capsys.readouterr().err
    assert sorted(os.listdir()) == before


INPUT_FLAGS = {"--in", "--test-in", "--vocab", "--train", "--labels", "--model", "--pred",
               "--truth", "--scores", "--corpus", "--names", "--dataset1", "--dataset2"}
# each command with every input it reads, --vocab without --fit among them, and the
# inputs evaluate reads although its task does not use them
READING_COMMANDS = {
    "ingest": ["ingest", "--in", "c.csv", "--out", "o.csv"],
    "adapt": ["adapt", "--in", "w.csv", "--out", "o.csv"],
    "split": ["split", "--in", "c.csv", "--out-train", "tr.csv", "--out-test", "te.csv"],
    "balance": ["balance", "--in", "c.csv", "--out", "b.csv", "--test-in", "t.csv",
                "--test-out", "tb.csv"],
    "featurize": ["featurize", "--vocab", "v.tsv", "--in", "c.csv", "--out", "m.mat"],
    "train-detector": ["train-detector", "--train", "x.mat", "--labels", "y.labels",
                       "--out", "o.det"],
    "detect": ["detect", "--model", "m.det", "--in", "x.mat", "--out", "o.csv"],
    "rank-features": ["rank-features", "--model", "m.det", "--vocab", "v.tsv", "--out", "r.tsv"],
    "train-predictor": ["train-predictor", "--in", "c.csv", "--out", "o.seq", "--embed", "2",
                        "--hidden", "2", "--max-epochs", "1"],
    "predict-next": ["predict-next", "--model", "m.seq", "--seq", "1,2"],
    "evaluate detect": ["evaluate", "--pred", "p.csv", "--truth", "y.labels",
                        "--corpus", "c.csv", "--names", "n.csv", "--out", "r.json"],
    "evaluate next-call": ["evaluate", "--task", "next-call", "--pred", "p.txt", "--truth",
                           "t.txt", "--scores", "s.csv", "--corpus", "c.csv", "--names", "n.csv",
                           "--out", "r.json"],
    "reproduce": ["reproduce", "--dataset1", "c.csv", "--dataset2", "t.csv", "--outdir", "repro"],
}


@pytest.mark.parametrize("argv, gone", [
    pytest.param(argv, argv[i + 1], id=f"{name} {flag}")
    for name, argv in READING_COMMANDS.items()
    for i, flag in enumerate(argv) if flag in INPUT_FLAGS])
def test_a_missing_input_is_named_and_nothing_is_written(argv, gone, cli_inputs, tmp_path,
                                                         monkeypatch, capsys):
    shutil.copytree(cli_inputs, tmp_path, dirs_exist_ok=True)
    monkeypatch.chdir(tmp_path)
    Path(gone).unlink()
    before = sorted(os.listdir())
    assert run(*argv) == 1
    captured = capsys.readouterr()
    assert f"error: missing input file(s): {gone}\n" in captured.err
    assert captured.out == ""
    assert sorted(os.listdir()) == before


COUNT = "expected a non-negative integer, got {!r}"
FLAG_CASES = [
    (["featurize", "--vocab", "v.tsv", "--in", "c.csv", "--out", "m.mat", "--top-k", "-5"],
     COUNT),
    (["featurize", "--vocab", "v.tsv", "--in", "c.csv", "--out", "m.mat", "--min-count", "-1"],
     COUNT),
    (["rank-features", "--model", "m.det", "--vocab", "v.tsv", "-k", "-1"], COUNT),
    (["train-predictor", "--in", "c.csv", "--out", "m.seq", "--trace-cap", "-3"], COUNT),
    (["evaluate", "--pred", "p.csv", "--truth", "t.txt", "--out", "r.json",
      "--rare-threshold", "-1"], COUNT),
    (["reproduce", "--outdir", "repro", "--seq-traces", "-1"], COUNT),
    (["featurize", "--vocab", "v.tsv", "--in", "c.csv", "--out", "m.mat",
      "--min-count", "\u0663"], COUNT),
    (["train-predictor", "--in", "c.csv", "--out", "m.seq", "--embed", "1_6"],
     "invalid int value: {!r}"),
    (["train-detector", "--train", "x.mat", "--labels", "y.labels", "--out", "m.det",
      "--gamma", "\uff10.5"], "invalid float value: {!r}"),
]


# each case given directly, then through --config
@pytest.mark.parametrize("argv, refusal, via_config", [
    pytest.param(argv, refusal, via_config, id=f"argv{i}" + "-config" * via_config)
    for via_config in (False, True) for i, (argv, refusal) in enumerate(FLAG_CASES)])
def test_negative_count_exits_one(argv, refusal, via_config, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    flag, value = argv[-2:]
    if via_config:
        Path("run.cfg").write_text(f"{flag.lstrip('-').replace('-', '_')}={value}\n")
        argv = argv[:-2] + ["--config", "run.cfg"]
    assert run(*argv) == 1
    err = capsys.readouterr().err
    assert f"{flag}: {refusal.format(value)}" in err
    assert ("the rejected value is from run.cfg" in err) == via_config
    assert sorted(os.listdir()) == (["run.cfg"] if via_config else [])


@pytest.mark.parametrize("k", ["0", "-3", "abc", "1001"])
def test_predict_next_k_out_of_range_exits_one(k, tmp_path, capsys):
    model = tmp_path / "model.seq"
    save_model(init_model(BiLstmConfig(vocab_size=5, embed_dim=2, hidden=2), seed=0), model)
    assert run("predict-next", "--model", model, "--seq", "1,2", "-k", k) == 1
    captured = capsys.readouterr()
    assert f"argument -k: expected an integer from 1 to 1000, got '{k}'" in captured.err
    assert captured.out == ""


def test_predict_next_k_at_its_limit_decodes(tmp_path, capsys):
    model = tmp_path / "model.seq"
    config = BiLstmConfig(vocab_size=5, embed_dim=2, hidden=2, max_prefix_len=4)
    save_model(init_model(config, seed=0), model)
    assert run("predict-next", "--model", model, "--seq", "1,2", "-k", "1000") == 0
    assert len(capsys.readouterr().out.strip().split(",")) == 1000


@pytest.mark.parametrize("seq", ["1_0,2", "1,\u0663", "\uff11,2", "1,-2", ",", "1,x"])
def test_predict_next_seq_token_other_than_ascii_digits_exits_one(seq, tmp_path, capsys):
    # int() reads '1_0' as 10 and Arabic-Indic or full-width digits as ASCII ones
    model = tmp_path / "model.seq"
    save_model(init_model(BiLstmConfig(vocab_size=12, embed_dim=2, hidden=2), seed=0), model)
    assert run("predict-next", "--model", model, "--seq", seq) == 1
    captured = capsys.readouterr()
    assert f"error: --seq {seq!r}: " in captured.err
    assert captured.out == ""


def test_predict_next_seq_holding_the_pad_id_exits_one(tmp_path, capsys):
    model = tmp_path / "model.seq"
    save_model(init_model(BiLstmConfig(vocab_size=12, embed_dim=2, hidden=2), seed=0), model)
    assert run("predict-next", "--model", model, "--seq", "12,1") == 1
    captured = capsys.readouterr()
    assert "error: call id 12 is outside [0, 12)\n" in captured.err
    assert captured.out == ""


class TestTraceCap:
    CORPUS = "#vocab=20\n0,1,2,3,4,5,6\n1,15,7,8,9,10\n"
    FLAGS = ["--embed", 2, "--hidden", 2, "--max-epochs", 1, "--val-frac", 0.5]

    def train_predictor(self, tmp_path, monkeypatch, *flags):
        """Run train-predictor on CORPUS; returns its exit code and the
        (prefix, next) pairs it trained on."""
        corpus = tmp_path / "c.csv"
        corpus.write_text(self.CORPUS)
        seen = []

        def train(samples, config):
            seen.extend(samples)
            return seqmodel.train(samples, config)

        monkeypatch.setattr(cli, "train", train)
        code = run("train-predictor", "--in", corpus, "--out", tmp_path / "m.seq",
                   *self.FLAGS, *flags)
        return code, [(tuple(prefix), nxt) for prefix, nxt in seen]

    def test_samples_come_from_each_traces_last_calls(self, tmp_path, monkeypatch):
        code, samples = self.train_predictor(tmp_path, monkeypatch, "--trace-cap", 4)
        assert code == 0
        assert samples == [((3, 4), 5), ((3, 4, 5), 6), ((7, 8), 9), ((7, 8, 9), 10)]

    def test_without_a_cap_every_call_is_cut(self, tmp_path, monkeypatch):
        code, samples = self.train_predictor(tmp_path, monkeypatch)
        assert code == 0
        assert len(samples) == 4 + 3 and samples[4] == ((15, 7), 8)

    def test_id_beyond_the_vocabulary_size_exits_one_naming_the_trace(self, tmp_path,
                                                                      monkeypatch, capsys):
        code, _ = self.train_predictor(tmp_path, monkeypatch, "--vocab-size", 12)
        assert code == 1
        assert "error: trace t2 has call id >= vocab size 12" in capsys.readouterr().err
        assert not (tmp_path / "m.seq").exists()

    def test_an_id_the_cap_cuts_off_is_not_checked(self, tmp_path, monkeypatch):
        code, samples = self.train_predictor(tmp_path, monkeypatch, "--vocab-size", 12,
                                             "--trace-cap", 4)
        assert code == 0 and samples[2:] == [((7, 8), 9), ((7, 8, 9), 10)]


class TestAdapt:
    def test_wide_labels_read_as_in_a_corpus(self, tmp_path):
        raw = tmp_path / "wide.csv"
        raw.write_text("hash,t_0,t_1,malware\na,1,2,0\nb,3,4,1\nc,5,6,-\n")
        out = tmp_path / "out.csv"
        assert run("adapt", "--in", raw, "--out", out) == 0
        rows = [ln for ln in out.read_text().splitlines() if not ln.startswith("#")]
        assert rows == ["0,1,2", "1,3,4", "-,5,6"]

    def test_seqcol_label_col_is_read(self, tmp_path):
        raw = tmp_path / "seq.csv"
        raw.write_text("hash,calls,y\na,1 2 3,0\nb,3 2 1,1\n")
        out = tmp_path / "out.csv"
        assert run("adapt", "--in", raw, "--out", out, "--layout", "seqcol",
                   "--label-col", "y") == 0
        rows = [ln for ln in out.read_text().splitlines() if not ln.startswith("#")]
        assert rows == ["0,1,2,3", "1,3,2,1"]

    def test_seqcol_missing_label_col_exits_one(self, tmp_path, capsys):
        raw = tmp_path / "seq.csv"
        raw.write_text("hash,calls\na,1 2 3\n")
        out = tmp_path / "out.csv"
        assert run("adapt", "--in", raw, "--out", out, "--layout", "seqcol",
                   "--label-col", "y") == 1
        assert f"{raw}: line 1: label column 'y' not in header" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("label", ["7", "-1", "01", "", "٠"])
    def test_seqcol_constant_label_other_than_a_corpus_label_exits_one(self, tmp_path,
                                                                       capsys, label):
        raw = tmp_path / "seq.csv"
        raw.write_text("hash,calls\na,1 2 3\n")
        out = tmp_path / "out.csv"
        assert run("adapt", "--in", raw, "--out", out, "--layout", "seqcol",
                   "--constant-label", label) == 1
        assert f"argument --constant-label: invalid label value: {label!r}" \
            in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("label, row", [("0", "0,1,2,3"), ("1", "1,1,2,3"), ("-", "-,1,2,3")])
    def test_seqcol_constant_label_is_written(self, tmp_path, label, row):
        raw = tmp_path / "seq.csv"
        raw.write_text("hash,calls\na,1 2 3\n")
        out = tmp_path / "out.csv"
        assert run("adapt", "--in", raw, "--out", out, "--layout", "seqcol",
                   "--constant-label", label) == 0
        assert [ln for ln in out.read_text().splitlines() if not ln.startswith("#")] == [row]
        assert run("ingest", "--in", out, "--out", tmp_path / "cooked.csv") == 0


class TestSettings:
    def test_config_file_supplies_defaults(self, demo, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("max_len=5\ncollapse=true\n")
        out = tmp_path / "out.csv"
        assert run("ingest", "--in", demo, "--out", out, "--config", cfg) == 0
        first_trace = out.read_text().splitlines()[1]
        assert len(first_trace.split(",")) == 1 + 5

    def test_flag_overrides_config_file(self, demo, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("max_len=5\n")
        out = tmp_path / "out.csv"
        assert run("ingest", "--in", demo, "--out", out, "--config", cfg,
                   "--max-len", 7) == 0
        first_trace = out.read_text().splitlines()[1]
        assert len(first_trace.split(",")) == 1 + 7

    def test_env_seed_respected(self, demo, tmp_path, monkeypatch):
        out_a = tmp_path / "a_train.csv"
        out_b = tmp_path / "b_train.csv"
        monkeypatch.setenv("APISENTRY_SEED", "9")
        assert run("split", "--in", demo, "--out-train", out_a,
                   "--out-test", tmp_path / "a_test.csv") == 0
        monkeypatch.delenv("APISENTRY_SEED")
        assert run("split", "--in", demo, "--out-train", out_b,
                   "--out-test", tmp_path / "b_test.csv", "--seed", 9) == 0
        assert out_a.read_bytes() == out_b.read_bytes()

    @pytest.mark.parametrize("line, message", [
        ("format=xml", "argument --format: invalid choice: 'xml'"),
        ("max_len=abc", "argument --max-len: invalid int value: 'abc'"),
        ("collapse=maybe", "line 2: collapse must be one of"),
        ("max_lenn=5", "line 2: unknown key 'max_lenn'"),
        ("config=other.cfg", "line 2: 'config' cannot be set from a config file"),
        ("max_len 5", "line 2: expected key=value"),
    ])
    def test_bad_config_line_exits_one(self, demo, tmp_path, capsys, line, message):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"# ingest settings\n{line}\n")
        out = tmp_path / "out.csv"
        assert run("ingest", "--in", demo, "--out", out, "--config", cfg) == 1
        err = capsys.readouterr().err
        assert message in err
        assert str(cfg) in err
        assert not out.exists()

    def test_other_commands_keys_are_skipped(self, demo, tmp_path):
        cfg = tmp_path / "pipeline.cfg"
        cfg.write_text("top_k=50\nno_bootstrap=true\nmax_len=5\n")
        out = tmp_path / "out.csv"
        assert run("ingest", "--in", demo, "--out", out, "--config", cfg) == 0
        first_trace = out.read_text().splitlines()[1]
        assert len(first_trace.split(",")) == 1 + 5

    def test_manifest_records_unpassed_defaults(self, demo, tmp_path):
        out = tmp_path / "out.csv"
        assert run("ingest", "--in", demo, "--out", out) == 0
        config = json.loads((tmp_path / "out.csv.manifest.json").read_text())["config"]
        assert config["max_len"] == 100
        assert config["format"] == "csv" and config["collapse"] is False
