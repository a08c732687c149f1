"""Digest comparison and artifact re-checks of the benchmark."""

import json
import os

from outputs import DIGESTED, artifact_digests, check_run, mismatches, quality_mismatches

CLASSES = ("pos", "neg")
UNLABELED = [("u0", 0), ("u1", 1), ("u2", 1)]
TEST = [("t0", 0), ("t1", 1)]


def _write_run(out_dir, coverage=2 / 3, label_quality=2 / 3, e2e_f1=1.0):
    os.makedirs(out_dir, exist_ok=True)
    with open(os.path.join(out_dir, "label_matrix.csv"), "w") as fh:
        fh.write("doc_id,lf0,lf1\nu0,0,-1\nu1,-1,1\nu2,-1,-1\n")
    rows = [
        {"doc_id": "u0", "dist": [1.0, 0.0], "covered": True, "hard": "pos"},
        {"doc_id": "u1", "dist": [0.0, 1.0], "covered": True, "hard": "neg"},
        {"doc_id": "u2", "dist": [0.5, 0.5], "covered": False, "hard": "pos"},
    ]
    with open(os.path.join(out_dir, "labels.jsonl"), "w") as fh:
        fh.writelines(json.dumps(r) + "\n" for r in rows)
    with open(os.path.join(out_dir, "predictions.jsonl"), "w") as fh:
        for doc_id, pred in (("t0", "pos"), ("t1", "neg")):
            fh.write(json.dumps({"doc_id": doc_id, "pred": pred}) + "\n")
    with open(os.path.join(out_dir, "report.json"), "w") as fh:
        json.dump({"coverage": coverage, "label_quality": label_quality, "e2e_f1": e2e_f1}, fh)
    with open(os.path.join(out_dir, "lf_pool.json"), "w") as fh:
        json.dump({"lfs": []}, fh)


def test_digest_check_flags_one_changed_byte(tmp_path):
    a, b = str(tmp_path / "a"), str(tmp_path / "b")
    _write_run(a)
    _write_run(b)
    assert mismatches(artifact_digests(a), artifact_digests(b)) == []
    path = os.path.join(b, "label_matrix.csv")
    data = bytearray(open(path, "rb").read())
    data[-2] ^= 1
    open(path, "wb").write(bytes(data))
    assert mismatches(artifact_digests(a), artifact_digests(b)) == ["label_matrix.csv"]
    assert set(artifact_digests(a)) == set(DIGESTED)


def test_check_run_accepts_consistent_artifacts(tmp_path):
    _write_run(str(tmp_path))
    assert check_run(str(tmp_path), CLASSES, UNLABELED, TEST) == []


def test_check_run_flags_a_report_that_disagrees(tmp_path):
    _write_run(str(tmp_path), coverage=1.0)
    problems = check_run(str(tmp_path), CLASSES, UNLABELED, TEST)
    assert len(problems) == 1 and "coverage" in problems[0]


def test_quality_check_flags_a_changed_or_missing_metric():
    golden = {"coverage": 1.0, "label_quality": 0.9, "e2e_f1": 0.95}
    assert quality_mismatches(golden, dict(golden)) == []
    assert quality_mismatches(golden, {**golden, "label_quality": 0.9 - 1e-6}) == ["label_quality"]
    assert quality_mismatches(golden, {"coverage": 1.0, "label_quality": 0.9}) == ["e2e_f1"]
