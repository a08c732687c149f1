"""Coverage, weighted F1, label quality, and evaluation reports.

Label quality is coverage times the weighted F1 of aggregated hard labels;
the F1 is computed over covered rows only since the coverage factor already
charges once for abstained instances.
"""

from __future__ import annotations

import csv
import json
from collections.abc import Callable, Mapping
from dataclasses import asdict, dataclass
from typing import TextIO

import numpy as np
from numpy.typing import ArrayLike

from .errors import IdAlignment, LabelForgeError


@dataclass
class EvalReport:
    coverage: float
    per_class_f1: list[float]
    weighted_f1: float
    label_quality: float
    confusion: list[list[int]]
    n_evaluated: int
    f1_convention: str = "covered_rows_only"

    def to_json(self) -> dict:
        return asdict(self)


def confusion_counts(pred: ArrayLike, gold: ArrayLike, num_classes: int) -> np.ndarray:
    """counts[g, p]: how many items of gold class g were predicted p."""
    counts = np.zeros((num_classes, num_classes), dtype=int)
    np.add.at(counts, (np.asarray(gold, dtype=int), np.asarray(pred, dtype=int)), 1)
    return counts


def weighted_f1(pred: ArrayLike, gold: ArrayLike, num_classes: int) -> tuple[list[float], float]:
    """Per-class F1 plus the gold-proportion weighted mean.

    F1_c is 0 when precision + recall is 0; classes absent from gold carry
    zero weight.
    """
    if len(pred) != len(gold):
        raise LabelForgeError(f"pred has {len(pred)} items, gold has {len(gold)}")
    if len(gold) == 0:
        raise ValueError("weighted_f1 needs at least one example")
    counts = confusion_counts(pred, gold, num_classes)
    per_class = []
    weighted = 0.0
    total = counts.sum()
    for c in range(num_classes):
        tp = counts[c, c]
        predicted = counts[:, c].sum()
        actual = counts[c, :].sum()
        precision = tp / predicted if predicted else 0.0
        recall = tp / actual if actual else 0.0
        f1 = 2 * precision * recall / (precision + recall) if precision + recall else 0.0
        per_class.append(float(f1))
        if actual:
            weighted += (actual / total) * f1
    return per_class, float(weighted)


def label_quality(cov: float, weighted: float) -> float:
    """Coverage-weighted F1: the exact product of the two factors."""
    if not (0 <= cov <= 1 and 0 <= weighted <= 1):
        raise ValueError("coverage and weighted F1 must be in [0, 1]")
    return cov * weighted


def evaluate_labeling(
    dists: np.ndarray, covered: np.ndarray, doc_ids: list[str], gold: Mapping[str, int]
) -> EvalReport:
    """Score aggregated labels against gold looked up by document id.

    Coverage is the fraction of rows flagged covered; F1 runs over the
    covered rows only, predicting each row's argmax.
    """
    if len(dists) == 0:
        raise ValueError("evaluate_labeling needs at least one label")
    if not len(dists) == len(covered) == len(doc_ids):
        raise IdAlignment("label rows do not align with their doc ids")
    if not all(map(gold.__contains__, doc_ids)):
        missing = {doc_id for doc_id in doc_ids if doc_id not in gold}
        raise IdAlignment(f"{len(missing)} labeled doc ids have no gold label")
    num_classes = dists.shape[1]
    pred = dists.argmax(axis=1)[covered]
    truth = np.fromiter(map(gold.__getitem__, doc_ids), dtype=int, count=len(doc_ids))[covered]
    cov = float(np.mean(covered))
    if len(pred):
        per_class, weighted = weighted_f1(pred, truth, num_classes)
    else:
        per_class, weighted = [0.0] * num_classes, 0.0
    confusion = confusion_counts(pred, truth, num_classes).tolist()
    return EvalReport(
        coverage=cov,
        per_class_f1=per_class,
        weighted_f1=weighted,
        label_quality=label_quality(cov, weighted),
        confusion=confusion,
        n_evaluated=len(pred),
    )


LEDGER_FIELDS = (
    "dataset",
    "coverage",
    "weighted_f1",
    "label_quality",
    "e2e_f1",
    "config_hash",
    "timestamp",
)


def ledger_appender(path: str, row: dict) -> Callable[[TextIO], None]:
    """A writer of the ledger at ``path`` plus one results row (header on first use).

    It keeps the ``LEDGER_FIELDS`` of ``row``; pass it to ``config.write_atomic``,
    so a crash mid-write keeps the old file.
    """
    try:
        with open(path, encoding="utf-8", newline="") as fh:
            previous = fh.read()
    except FileNotFoundError:
        previous = ""

    def write(fh):
        fh.write(previous)
        writer = csv.DictWriter(fh, fieldnames=LEDGER_FIELDS)
        if not previous:
            writer.writeheader()
        writer.writerow({k: row.get(k, "") for k in LEDGER_FIELDS})

    return write


def write_report_json(fh: TextIO, payload: dict) -> None:
    json.dump(payload, fh, indent=2, sort_keys=True)
    fh.write("\n")
