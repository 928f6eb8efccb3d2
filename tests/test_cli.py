import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from matrices import csr

import apisentry
from apisentry.cli import main
from apisentry.data import demo_corpus_path, generate_demo_corpus
from apisentry.gbdt import GbdtConfig, save_detector, train_bagged
from apisentry.ngrams import save_matrix
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
            lines = paths[name].read_text().splitlines()
            cells = {tuple(map(int, ln.split(",")[:2])) for ln in lines[1:]}
            n_rows, n_cols = map(int, lines[0].split(","))
            zeros = [f"{r},{min(set(range(n_cols)) - {c for q, c in cells if q == r})},0"
                     for r in range(n_rows)]
            (tmp_path / f"{name}.zeros").write_text("\n".join(lines[:1] + zeros + lines[1:]))
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

    def test_duplicate_matrix_triplet_exits_one(self, demo, tmp_path, capsys):
        paths = detector_pipeline(tmp_path, demo)
        bad = tmp_path / "dup.mat"
        lines = paths["test_mat"].read_text().splitlines()
        bad.write_text("\n".join(lines + [lines[1]]) + "\n")
        assert run("detect", "--model", paths["model"], "--in", bad,
                   "--out", tmp_path / "p.csv") == 1
        assert f"line {len(lines) + 1}: duplicate entry" in capsys.readouterr().err

    def test_evaluate_detect_score_count_mismatch_exits_one(self, tmp_path, capsys):
        pred = tmp_path / "pred.csv"
        pred.write_text("row,label,score\n0,1,0.9\n1,0,0.2\n")
        truth = tmp_path / "truth.txt"
        truth.write_text("1\n0\n")
        scores = tmp_path / "scores.txt"
        scores.write_text("0.9\n0.2\n0.4\n")
        out = tmp_path / "report.json"
        assert run("evaluate", "--task", "detect", "--pred", pred, "--truth", truth,
                   "--scores", scores, "--out", out) == 1
        assert "3 scores" in capsys.readouterr().err
        assert not out.exists()

    def test_truncated_sequence_model_exits_one(self, tmp_path, capsys):
        model = tmp_path / "model.seq"
        save_model(init_model(BiLstmConfig(vocab_size=5, embed_dim=2, hidden=2), seed=0), model)
        model.write_text("\n".join(model.read_text().splitlines()[:20]) + "\n")
        assert run("predict-next", "--model", model, "--seq", "1,2") == 1
        assert f"{model}: line 21: unexpected end of file" in capsys.readouterr().err

    @pytest.mark.parametrize("field", ["learning_rate", "adam_eps"])
    def test_infinite_sequence_model_setting_refused_at_its_own_line(self, tmp_path, capsys,
                                                                      field):
        model = tmp_path / "model.seq"
        save_model(init_model(BiLstmConfig(vocab_size=5, embed_dim=2, hidden=2), seed=0), model)
        lines = model.read_text().splitlines()
        at = next(i for i, ln in enumerate(lines) if ln.startswith(field + " "))
        lines[at] = f"{field} inf"
        model.write_text("\n".join(lines) + "\n")
        assert run("predict-next", "--model", model, "--seq", "1,2") == 1
        assert f"{model}: line {at + 1}: {field} must be" in capsys.readouterr().err

    def test_sequence_model_with_zero_hidden_exits_one(self, tmp_path, capsys):
        model = tmp_path / "model.seq"
        save_model(init_model(BiLstmConfig(vocab_size=5, embed_dim=2, hidden=2), seed=0), model)
        model.write_text(model.read_text().replace("\nhidden 2\n", "\nhidden 0\n"))
        assert run("predict-next", "--model", model, "--seq", "1,2") == 1
        # line 1 is the format tag, then vocab_size, embed_dim and hidden
        assert f"{model}: line 4: hidden must be >= 1" in capsys.readouterr().err

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

    def test_non_finite_sequence_model_number_exits_one(self, tmp_path, capsys):
        model = tmp_path / "model.seq"
        save_model(init_model(BiLstmConfig(vocab_size=5, embed_dim=2, hidden=2), seed=0), model)
        lines = model.read_text().splitlines()
        at = lines.index("tensor dense.b 5") + 1
        lines[at] = " ".join(["nan"] + lines[at].split()[1:])
        model.write_text("\n".join(lines) + "\n")
        assert run("predict-next", "--model", model, "--seq", "1,2", "-k", 3) == 1
        captured = capsys.readouterr()
        assert f"{model}: line {at + 1}: a tensor row holds a number that is not finite" \
            in captured.err
        assert captured.out == ""

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
        matrix.write_text("10000000000000,3\n0,0,1\n")
        labels.write_text("1\n")
        assert run("train-detector", "--train", matrix, "--labels", labels,
                   "--out", tmp_path / "m.det") == 1
        assert f"{matrix}: line 1: cannot allocate" in capsys.readouterr().err

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
        {"x.mat": "2,2\n0,1,1\n1,0,2\n", "y.labels": "zero\n1\n"},
        ["train-detector", "--train", "x.mat", "--labels", "y.labels"], "y.labels", 1),
    "vocabulary line": (
        {"c.csv": "0,1,2,3\n", "v.tsv": "#built_from=c.csv\n#min_count=1\nx\t1,2\t1\n"},
        ["featurize", "--vocab", "v.tsv", "--in", "c.csv"], "v.tsv", 3),
    "corpus call id": (
        {"c.csv": "1,2,x\n"}, ["ingest", "--in", "c.csv"], "c.csv", 1),
    "adapt line after a blank line": (
        {"s.csv": "hash,calls,y\n\na,1 2,7\n"},
        ["adapt", "--in", "s.csv", "--layout", "seqcol", "--label-col", "y"], "s.csv", 3),
    "adapt wide label other than 0, 1 or -": (
        {"w.csv": "hash,t_0,t_1,malware\na,1,2,1\nb,3,4,yes\n"},
        ["adapt", "--in", "w.csv"], "w.csv", 3),
    "adapt row without the sequence column": (
        {"s.csv": "hash,y,calls\na,1\n"},
        ["adapt", "--in", "s.csv", "--layout", "seqcol"], "s.csv", 2),
}


@pytest.mark.parametrize("case", sorted(MALFORMED_LINE_CASES))
def test_malformed_line_exits_one_naming_file_and_line(case, tmp_path, capsys):
    files, argv, bad, line = MALFORMED_LINE_CASES[case]
    paths = {name: tmp_path / name for name in files}
    for name, text in files.items():
        paths[name].write_text(text)
    out = tmp_path / "out"
    argv = [paths.get(arg, arg) for arg in argv] + ["--out", out]
    assert run(*argv) == 1
    assert f"{paths[bad]}: line {line}: " in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("argv", [
    ["featurize", "--vocab", "v.tsv", "--in", "c.csv", "--out", "m.mat", "--top-k", "-5"],
    ["featurize", "--vocab", "v.tsv", "--in", "c.csv", "--out", "m.mat", "--min-count", "-1"],
    ["rank-features", "--model", "m.det", "--vocab", "v.tsv", "-k", "-1"],
    ["train-predictor", "--in", "c.csv", "--out", "m.seq", "--trace-cap", "-3"],
    ["evaluate", "--pred", "p.csv", "--truth", "t.txt", "--out", "r.json",
     "--rare-threshold", "-1"],
    ["reproduce", "--outdir", "repro", "--seq-traces", "-1"],
])
def test_negative_count_exits_one(argv, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert run(*argv) == 1
    assert f"{argv[-2]}: expected a non-negative integer, got '{argv[-1]}'" \
        in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


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
