"""Output checks for one labeling run.

``artifact_digests`` fingerprints the artifacts that must be byte-identical
between runs of one input; ``manifest.json`` and ``ledger.csv`` are left out
because they carry timings and timestamps. ``check_run`` re-derives the
reported quality metrics from the artifacts and the gold labels the
benchmark generated, without calling labelforge's own metric code.
"""

from __future__ import annotations

import csv
import hashlib
import json
import os

DIGESTED = ("labels.jsonl", "lf_pool.json", "label_matrix.csv", "report.json", "predictions.jsonl")
QUALITY = ("coverage", "label_quality", "e2e_f1")
TOLERANCE = 1e-9


def artifact_digests(out_dir: str) -> dict[str, str]:
    digests = {}
    for name in DIGESTED:
        with open(os.path.join(out_dir, name), "rb") as fh:
            digests[name] = hashlib.sha256(fh.read()).hexdigest()
    return digests


def mismatches(reference: dict, other: dict) -> list[str]:
    """Names whose values differ between two runs of the same input."""
    return sorted(k for k in reference.keys() | other.keys() if reference.get(k) != other.get(k))


def quality_mismatches(expected: dict, got: dict) -> list[str]:
    """Quality metrics that differ by more than ``TOLERANCE`` or are missing."""
    return sorted(
        k for k in expected
        if not isinstance(got.get(k), (int, float)) or abs(got[k] - expected[k]) > TOLERANCE
    )


def _weighted_f1(pred: list[int], gold: list[int], num_classes: int) -> float:
    total = len(gold)
    score = 0.0
    for c in range(num_classes):
        tp = sum(1 for p, g in zip(pred, gold) if p == c and g == c)
        predicted = sum(1 for p in pred if p == c)
        actual = sum(1 for g in gold if g == c)
        if not actual:
            continue
        precision = tp / predicted if predicted else 0.0
        recall = tp / actual
        f1 = 2 * precision * recall / (precision + recall) if precision + recall else 0.0
        score += actual / total * f1
    return score


def _read_jsonl(path: str) -> list[dict]:
    with open(path, encoding="utf-8") as fh:
        return [json.loads(line) for line in fh if line.strip()]


def check_run(
    out_dir: str,
    class_names: tuple[str, ...],
    unlabeled_gold: list[tuple[str, int]],
    test_gold: list[tuple[str, int]],
) -> list[str]:
    """Problems found in one run's artifacts; an empty list means correct."""
    problems: list[str] = []
    with open(os.path.join(out_dir, "report.json"), encoding="utf-8") as fh:
        report = json.load(fh)
    for key in QUALITY:
        value = report.get(key)
        if not isinstance(value, (int, float)) or not 0 < value <= 1:
            problems.append(f"report.json {key}={value!r} is not in (0, 1]")
    if problems:
        return problems

    with open(os.path.join(out_dir, "label_matrix.csv"), encoding="utf-8") as fh:
        rows = list(csv.reader(fh))[1:]
    matrix_ids = [row[0] for row in rows]
    voted = [any(int(v) != -1 for v in row[1:]) for row in rows]
    labels = _read_jsonl(os.path.join(out_dir, "labels.jsonl"))
    ids = [doc_id for doc_id, _ in unlabeled_gold]
    if matrix_ids != ids or [rec["doc_id"] for rec in labels] != ids:
        return ["label_matrix.csv or labels.jsonl rows do not follow the unlabeled pool"]

    coverage = sum(voted) / len(voted)
    pred, gold = [], []
    for rec, covered, (_, truth) in zip(labels, voted, unlabeled_gold):
        if rec["covered"] != covered:
            problems.append(f"labels.jsonl {rec['doc_id']} covered flag disagrees with the matrix")
            break
        if abs(sum(rec["dist"]) - 1.0) > 1e-6:
            problems.append(f"labels.jsonl {rec['doc_id']} distribution does not sum to 1")
            break
        if covered:
            pred.append(class_names.index(rec["hard"]))
            gold.append(truth)
    label_quality = coverage * _weighted_f1(pred, gold, len(class_names)) if pred else 0.0

    predictions = _read_jsonl(os.path.join(out_dir, "predictions.jsonl"))
    if [rec["doc_id"] for rec in predictions] != [doc_id for doc_id, _ in test_gold]:
        return problems + ["predictions.jsonl rows do not follow the test split"]
    e2e_f1 = _weighted_f1(
        [class_names.index(rec["pred"]) for rec in predictions],
        [truth for _, truth in test_gold],
        len(class_names),
    )
    for key, expected in (("coverage", coverage), ("label_quality", label_quality), ("e2e_f1", e2e_f1)):
        if abs(report[key] - expected) > TOLERANCE:
            problems.append(f"report.json {key}={report[key]} but the artifacts give {expected}")
    return problems
