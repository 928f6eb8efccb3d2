"""Child processes of the benchmark.

    python3 perfbench/child.py setup import
        import the program, print "ready", exit
    python3 perfbench/child.py setup triage WORKDIR
        import the program and load the triage vocabulary, detector and
        predictor from WORKDIR, print "ready", exit
    python3 perfbench/child.py prepare WORKDIR
        train the triage artifacts in WORKDIR with the program's own CLI

The parent times `setup` from process start to the "ready" line. `prepare`
runs in its own process so that training memory stays out of the serving
process's peak RSS.
"""

from __future__ import annotations

import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

# Artifact file names in a triage work directory.
VOCAB = "vocab.tsv"
DETECTOR = "model.det"
PREDICTOR = "model.seq"


def setup(kind: str, workdir: str | None) -> None:
    from apisentry import cli, gbdt, ngrams, seqmodel  # noqa: F401
    if kind == "triage":
        wd = Path(workdir)
        ngrams.load_vocabulary(wd / VOCAB)
        gbdt.load_detector(wd / DETECTOR)
        seqmodel.load_model(wd / PREDICTOR)
    sys.stdout.write("ready\n")
    sys.stdout.flush()


def prepare(workdir: str) -> int:
    """Detector: the README pipeline up to train-detector on the artifact
    corpus. Predictor: the paper's shapes (embed 64, hidden 150, B=128),
    trained for one short epoch on early prefixes, since triage only needs a
    model of the right shape and format to serve from."""
    from apisentry.cli import main

    wd = Path(workdir)
    steps = [
        ["ingest", "--in", wd / "artifact_raw.csv", "--collapse", "--max-len", "100",
         "--out", wd / "artifact.csv"],
        ["balance", "--in", wd / "artifact.csv", "--out", wd / "artifact_bal.csv"],
        ["featurize", "--vocab", wd / VOCAB, "--fit", "--in", wd / "artifact_bal.csv",
         "--out", wd / "artifact.mat", "--labels-out", wd / "artifact.labels"],
        ["train-detector", "--train", wd / "artifact.mat", "--labels", wd / "artifact.labels",
         "--out", wd / DETECTOR],
        ["train-predictor", "--in", wd / "predictor_train.csv", "--out", wd / PREDICTOR,
         "--trace-cap", "20", "--max-prefix-len", "99", "--max-epochs", "1"],
    ]
    for argv in steps:
        rc = main([str(a) for a in argv])
        if rc != 0:
            sys.stderr.write(f"prepare: {argv[0]} exited {rc}\n")
            return 1
    return 0


if __name__ == "__main__":
    mode = sys.argv[1] if len(sys.argv) > 1 else ""
    if mode == "setup":
        setup(sys.argv[2], sys.argv[3] if len(sys.argv) > 3 else None)
    elif mode == "prepare":
        sys.exit(prepare(sys.argv[2]))
    else:
        sys.stderr.write(__doc__)
        sys.exit(2)
