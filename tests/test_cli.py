import json
import shutil

import pytest

from apisentry.cli import main
from apisentry.data import demo_corpus_path, generate_demo_corpus


@pytest.fixture()
def demo(tmp_path):
    raw = tmp_path / "raw.csv"
    shutil.copy(demo_corpus_path(), raw)
    return raw


def test_bundled_demo_corpus_matches_generator():
    assert demo_corpus_path().read_text(encoding="utf-8") == generate_demo_corpus()


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

    def test_manifest_contents(self, demo, tmp_path):
        cooked = tmp_path / "out.csv"
        assert run("ingest", "--in", demo, "--collapse", "--out", cooked) == 0
        manifest = json.loads((tmp_path / "out.csv.manifest.json").read_text())
        assert manifest["command"] == "ingest"
        assert manifest["config"]["collapse"] is True
        assert str(cooked) in manifest["outputs"]
        assert all(d.startswith("sha256:") for d in manifest["outputs"].values())

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
        assert not (tmp_path / "repro" / "summary.txt").exists()

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


class TestAdapt:
    def test_seqcol_label_col_is_read(self, tmp_path):
        raw = tmp_path / "seq.csv"
        raw.write_text("hash,calls,y\na,1 2 3,0\nb,3 2 1,1\n")
        out = tmp_path / "out.csv"
        assert run("adapt", "--in", raw, "--out", out, "--layout", "seqcol",
                   "--label-col", "y") == 0
        rows = [ln for ln in out.read_text().splitlines() if not ln.startswith("#")]
        assert rows == ["0,1,2,3", "1,3,2,1"]


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
