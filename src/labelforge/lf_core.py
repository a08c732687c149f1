"""Label-function abstraction, label matrix, and per-LF reliability estimates.

A weak label is a class index or ABSTAIN (-1). Every label function is total:
applying it to any document yields a weak label and never fails. Accuracy is
precision-over-covered on the seed set; coverage is the non-abstain fraction.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

import numpy as np

from .corpus import Document, LabeledExample
from .errors import EmptyLfSet

ABSTAIN = -1
EPS = 1e-9


class Category(str, enum.Enum):
    SURFACE = "surface"
    STRUCTURAL = "structural"
    SEMANTIC = "semantic"

    def __str__(self):
        return self.value


CATEGORIES = (Category.SURFACE, Category.STRUCTURAL, Category.SEMANTIC)


@dataclass
class LabelFunction:
    """A category-tagged rule payload plus its estimated reliability.

    ``rule`` must expose apply(doc) -> weak label; classifier rules also carry
    the calibrated confidence threshold (mirrored here as ``threshold``).
    est_accuracy/est_coverage are populated before exploitation filters run.
    """

    id: str
    category: Category
    rule: object
    threshold: float = 0.0
    est_accuracy: float | None = None
    est_coverage: float | None = None
    meta: dict = field(default_factory=dict)

    def describe(self) -> dict:
        payload = self.rule.describe() if hasattr(self.rule, "describe") else {}
        return {
            "id": self.id,
            "category": self.category.value,
            "threshold": self.threshold,
            "est_accuracy": self.est_accuracy,
            "est_coverage": self.est_coverage,
            "meta": self.meta,
            "rule": payload,
        }


def apply_lf_many(lf: LabelFunction, docs: list[Document]) -> np.ndarray:
    """Votes of one LF on each doc; rules may provide an apply_many fast path."""
    if hasattr(lf.rule, "apply_many"):
        return np.asarray(lf.rule.apply_many(docs), dtype=int)
    return np.array([lf.rule.apply(d) for d in docs], dtype=int)


@dataclass
class LabelMatrix:
    """N x m grid of weak labels; entry (i, j) is lfs[j] applied to docs[i]."""

    entries: np.ndarray
    row_ids: list[str]
    col_ids: list[str]

    @property
    def n_rows(self) -> int:
        return self.entries.shape[0]

    @property
    def n_cols(self) -> int:
        return self.entries.shape[1]

    def to_csv(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(",".join(["doc_id"] + list(self.col_ids)) + "\n")
            for i, doc_id in enumerate(self.row_ids):
                cells = ",".join(str(int(v)) for v in self.entries[i])
                fh.write(f"{doc_id},{cells}\n")


def build_label_matrix(lfs: list[LabelFunction], docs: list[Document]) -> LabelMatrix:
    """Apply every LF to every document; column order follows the LF list."""
    if not lfs:
        raise EmptyLfSet("cannot build a label matrix from zero LFs")
    columns = [apply_lf_many(lf, docs) for lf in lfs]
    entries = np.stack(columns, axis=1) if docs else np.zeros((0, len(lfs)), dtype=int)
    return LabelMatrix(
        entries=entries,
        row_ids=[d.id for d in docs],
        col_ids=[lf.id for lf in lfs],
    )


def estimate_accuracy(lf: LabelFunction, seed: list[LabeledExample]) -> float:
    """Precision over covered seed examples: correct / (non-abstained + eps)."""
    if not seed:
        raise ValueError("accuracy estimation needs a non-empty seed set")
    votes = apply_lf_many(lf, [ex.doc for ex in seed])
    gold = np.array([ex.gold for ex in seed])
    voted = votes != ABSTAIN
    correct = int(np.sum(voted & (votes == gold)))
    return correct / (int(np.sum(voted)) + EPS)


def estimate_coverage(lf: LabelFunction, docs: list[Document]) -> float:
    """Fraction of documents receiving a non-abstain vote."""
    if not docs:
        raise ValueError("coverage estimation needs a non-empty doc list")
    votes = apply_lf_many(lf, docs)
    return float(np.mean(votes != ABSTAIN))
