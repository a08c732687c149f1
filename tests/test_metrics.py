import itertools
import os

import numpy as np
import pytest

from labelforge.config import write_atomic
from labelforge.corpus import LabelSpace
from labelforge.errors import IdAlignment, LabelForgeError
from labelforge.label_model import aggregate
from labelforge.lf_core import ABSTAIN, LabelMatrix
from labelforge.metrics import (
    evaluate_labeling,
    label_quality,
    ledger_appender,
    weighted_f1,
)


def matrix(rows):
    entries = np.asarray(rows, dtype=int)
    return LabelMatrix(
        entries=entries,
        row_ids=[f"d{i}" for i in range(entries.shape[0])],
        col_ids=[f"lf{j}" for j in range(entries.shape[1])],
    )


def covered_share(rows):
    """Coverage as report.json reports it: the share of aggregated rows flagged covered."""
    _, covered = aggregate(matrix(rows), {"kind": "majority_vote"}, LabelSpace(("a", "b")), None)
    return float(np.mean(covered))


def test_coverage_row_counts():
    assert covered_share([[0, ABSTAIN], [ABSTAIN, 1], [ABSTAIN, ABSTAIN]]) == pytest.approx(2 / 3)
    assert covered_share([[ABSTAIN], [ABSTAIN]]) == 0.0
    assert covered_share([[0], [1]]) == 1.0


def test_weighted_f1_perfect():
    per_class, weighted = weighted_f1([0, 1, 0], [0, 1, 0], 2)
    assert per_class == [1.0, 1.0]
    assert weighted == 1.0


def test_weighted_f1_hand_confusion_table():
    per_class, weighted = weighted_f1([0, 1, 1, 1], [0, 0, 1, 1], 2)
    assert per_class[0] == pytest.approx(2 / 3)
    assert per_class[1] == pytest.approx(0.8)
    assert weighted == pytest.approx(0.5 * (2 / 3) + 0.5 * 0.8)


def test_weighted_f1_absent_class_zero_f1():
    # class 1 never predicted, never recalled correctly
    per_class, weighted = weighted_f1([0, 0], [0, 1], 2)
    assert per_class[1] == 0.0
    assert weighted == pytest.approx(0.5 * per_class[0])


def test_weighted_f1_length_mismatch():
    with pytest.raises(LabelForgeError, match="pred has 1 items, gold has 2"):
        weighted_f1([0], [0, 1], 2)


def f1_oracle(pred, gold, num_classes):
    """Brute-force per-class F1 from raw pair counts."""
    out = []
    for c in range(num_classes):
        tp = sum(1 for p, g in zip(pred, gold) if p == c and g == c)
        fp = sum(1 for p, g in zip(pred, gold) if p == c and g != c)
        fn = sum(1 for p, g in zip(pred, gold) if p != c and g == c)
        precision = tp / (tp + fp) if tp + fp else 0.0
        recall = tp / (tp + fn) if tp + fn else 0.0
        out.append(
            2 * precision * recall / (precision + recall) if precision + recall else 0.0
        )
    weighted = sum(
        (sum(1 for g in gold if g == c) / len(gold)) * out[c] for c in range(num_classes)
    )
    return out, weighted


def test_weighted_f1_matches_oracle_exhaustively():
    # every (pred, gold) combination over 2 classes and 4 items
    for gold in itertools.product(range(2), repeat=4):
        for pred in itertools.product(range(2), repeat=4):
            per_class, weighted = weighted_f1(list(pred), list(gold), 2)
            oracle_per, oracle_weighted = f1_oracle(pred, gold, 2)
            assert per_class == pytest.approx(oracle_per)
            assert weighted == pytest.approx(oracle_weighted)


def test_weighted_f1_matches_oracle_random_multiclass():
    rng = np.random.default_rng(0)
    for _ in range(200):
        n = int(rng.integers(1, 10))
        num_classes = int(rng.integers(2, 5))
        gold = rng.integers(0, num_classes, size=n).tolist()
        pred = rng.integers(0, num_classes, size=n).tolist()
        per_class, weighted = weighted_f1(pred, gold, num_classes)
        oracle_per, oracle_weighted = f1_oracle(pred, gold, num_classes)
        assert per_class == pytest.approx(oracle_per)
        assert weighted == pytest.approx(oracle_weighted)
        assert 0.0 <= weighted <= 1.0


def test_label_quality_product():
    assert label_quality(0.9, 0.8) == pytest.approx(0.72)
    assert label_quality(1.0, 0.37) == pytest.approx(0.37)
    assert label_quality(0.0, 0.9) == 0.0
    with pytest.raises(ValueError):
        label_quality(1.2, 0.5)


def test_label_quality_never_exceeds_factors():
    rng = np.random.default_rng(1)
    for _ in range(200):
        c, w = rng.uniform(0, 1, size=2)
        q = label_quality(float(c), float(w))
        assert q <= c + 1e-12 and q <= w + 1e-12


def labels_for(hard, covered):
    """(dists, covered): one-hot rows for covered labels, uniform rows otherwise."""
    covered = np.array(covered)
    dists = np.where(covered[:, None], np.eye(2)[hard], 0.5)
    return dists, covered


IDS = ["d0", "d1"]


def gold_for(labels):
    return {f"d{i}": g for i, g in enumerate(labels)}


def test_evaluate_labeling_perfect():
    dists, covered = labels_for([0, 1], [True, True])
    report = evaluate_labeling(dists, covered, IDS, gold_for([0, 1]))
    assert report.coverage == 1.0
    assert report.weighted_f1 == 1.0
    assert report.label_quality == 1.0
    assert report.n_evaluated == 2


def test_evaluate_labeling_half_covered_quality():
    dists, covered = labels_for([0, 0], [True, False])
    report = evaluate_labeling(dists, covered, IDS, gold_for([0, 1]))
    assert report.coverage == pytest.approx(0.5)
    assert report.weighted_f1 == 1.0  # covered rows only
    assert report.label_quality == pytest.approx(0.5)


def test_evaluate_labeling_id_alignment():
    dists, covered = labels_for([0, 1], [True, True])
    with pytest.raises(IdAlignment):
        evaluate_labeling(dists, covered, IDS, {"zz": 0, "d1": 1})
    with pytest.raises(IdAlignment):
        evaluate_labeling(dists, covered, IDS[:1], gold_for([0, 1]))


def append_ledger_row(path, row):
    write_atomic(path, ledger_appender(path, row))


def test_ledger_append(tmp_path):
    path = str(tmp_path / "ledger.csv")
    append_ledger_row(path, {"dataset": "x", "coverage": 1.0, "config_hash": "abc"})
    append_ledger_row(path, {"dataset": "y", "coverage": 0.5, "config_hash": "def"})
    lines = open(path).read().splitlines()
    assert lines[0].startswith("dataset,coverage")
    assert len(lines) == 3


def test_ledger_write_failure_leaves_previous_ledger(tmp_path, monkeypatch):
    path = str(tmp_path / "ledger.csv")
    append_ledger_row(path, {"dataset": "x", "coverage": 1.0, "config_hash": "abc"})
    before = open(path, "rb").read()

    real_open = open

    class TornFile:
        """Writes half of what it is given, then fails like a crash mid-write."""

        def __init__(self, fh):
            self.fh = fh

        def write(self, text):
            self.fh.write(text[: len(text) // 2])
            raise OSError("disk gone")

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            self.fh.close()

    def torn_open(file, mode="r", *args, **kwargs):
        fh = real_open(file, mode, *args, **kwargs)
        return TornFile(fh) if "w" in mode or "a" in mode else fh

    monkeypatch.setattr("builtins.open", torn_open)
    with pytest.raises(OSError):
        append_ledger_row(path, {"dataset": "y", "coverage": 0.5, "config_hash": "def"})
    monkeypatch.undo()
    assert open(path, "rb").read() == before
    assert os.listdir(tmp_path) == ["ledger.csv"]
    append_ledger_row(path, {"dataset": "y", "coverage": 0.5, "config_hash": "def"})
    assert open(path).read().splitlines()[1:] == ["x,1.0,,,,abc,", "y,0.5,,,,def,"]
