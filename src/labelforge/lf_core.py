"""Label-function abstraction, label matrix, and per-LF reliability estimates.

A weak label is a class index or ABSTAIN (-1). Every label function is total:
applying it to any document yields a weak label and never fails. Accuracy is
precision-over-covered on the seed set; coverage is the non-abstain fraction.
"""

from __future__ import annotations

import enum
import re
from dataclasses import dataclass, field
from typing import TextIO

import numpy as np

from .corpus import TokenIndex
from .errors import LabelForgeError

ABSTAIN = -1
EPS = 1e-9
ROW_BLOCK = 512  # artifact rows formatted per write: bounds the strings alive at once
# an int8 vote's text, indexed by its byte: 255 is "-1"
_CELL_STR = np.array([str(v if v < 128 else v - 256) for v in range(256)], dtype=object)
_CSV_QUOTE = re.compile(r'[,"\r\n]')  # a doc id holding one is quoted, so csv.reader reads it


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

    ``rule`` exposes describe() -> its JSON payload. Classifier rules carry a
    classifier, its featurizer and the calibrated confidence threshold
    (mirrored here as ``threshold``) and are voted from the featurizer's row
    tables; every other rule exposes apply_many(index) -> one weak label per
    row of a split's ``corpus.TokenIndex``. Scoring computes each LF's votes
    once on the unlabeled pool and keeps that column as ``votes`` (outside
    describe() and equality); est_coverage, dedup agreement and the label
    matrix all read it.
    """

    id: str
    category: Category
    rule: object
    threshold: float = 0.0
    est_accuracy: float | None = None
    est_coverage: float | None = None
    meta: dict = field(default_factory=dict)
    votes: np.ndarray | None = field(default=None, repr=False, compare=False)

    def describe(self) -> dict:
        return {
            "id": self.id,
            "category": self.category.value,
            "threshold": self.threshold,
            "est_accuracy": self.est_accuracy,
            "est_coverage": self.est_coverage,
            "meta": self.meta,
            "rule": self.rule.describe(),
        }


def apply_lf_many(lf: LabelFunction, index: TokenIndex) -> np.ndarray:
    """Votes of one LF on each row of a split's index, as int8 (see ``corpus.MAX_CLASSES``)."""
    return np.asarray(lf.rule.apply_many(index), dtype=np.int8)


@dataclass
class LabelMatrix:
    """N x m grid of weak labels; entry (i, j) is lfs[j] applied to docs[i]."""

    entries: np.ndarray
    row_ids: list[str]
    col_ids: list[str]

    def to_csv(self, fh: TextIO) -> None:
        ids = self.row_ids
        if _CSV_QUOTE.search("".join(ids)):  # one scan per write: most ids need no quotes
            ids = ['"' + i.replace('"', '""') + '"' if _CSV_QUOTE.search(i) else i for i in ids]
        fh.write(",".join(["doc_id"] + list(self.col_ids)) + "\n")
        for start in range(0, len(self.entries), ROW_BLOCK):
            block = slice(start, start + ROW_BLOCK)
            cells = _CELL_STR[self.entries[block].astype(np.uint8)].tolist()
            fh.write("".join([f"{doc_id},{','.join(row)}\n"
                              for doc_id, row in zip(ids[block], cells)]))


def build_label_matrix(lfs: list[LabelFunction], row_ids: list[str]) -> LabelMatrix:
    """Stack the LFs' pool vote columns; column order follows the LF list."""
    if not lfs:
        raise LabelForgeError("cannot build a label matrix from zero LFs")
    if any(lf.votes is None or len(lf.votes) != len(row_ids) for lf in lfs):
        raise LabelForgeError("every LF needs one pool vote per matrix row")
    entries = (
        np.stack([lf.votes for lf in lfs], axis=1, dtype=np.int8)
        if row_ids else np.zeros((0, len(lfs)), dtype=np.int8)
    )
    return LabelMatrix(entries=entries, row_ids=list(row_ids), col_ids=[lf.id for lf in lfs])


def estimate_accuracy(votes: np.ndarray, gold) -> float:
    """Precision of a seed vote column over its covered rows: correct / (non-abstained + eps)."""
    if len(votes) == 0:
        raise ValueError("accuracy estimation needs a non-empty seed vote column")
    voted = votes != ABSTAIN
    correct = int(np.sum(voted & (votes == np.asarray(gold))))
    return correct / (int(np.sum(voted)) + EPS)


def estimate_coverage(votes: np.ndarray) -> float:
    """Fraction of a vote column that is not an abstain."""
    if len(votes) == 0:
        raise ValueError("coverage estimation needs a non-empty vote column")
    return float(np.mean(votes != ABSTAIN))
