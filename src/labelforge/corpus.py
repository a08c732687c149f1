"""Data model and ingestion: label spaces, documents, and dataset splits.

A dataset is made of a large unlabeled pool, a small labeled seed set, and an
optional held-out test split. Records arrive as JSONL or CSV with the schema
{"id", "text", "label"?, "split"?}; gold labels attached to unlabeled records
are kept aside for evaluation only and never enter the labeling pipeline.
Each split is read as token ids over one shared vocabulary (``TokenIndex``),
from which featurizers and surface rules work.
"""

from __future__ import annotations

import csv
import itertools
import json
import re
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import LabelForgeError, MalformedRecord

SPLITS = ("unlabeled", "seed", "test")

_TOKEN_RE = re.compile(r"[^\W_]+", re.UNICODE)

# Votes are stored as int8 with ABSTAIN = -1, so every class index, and the
# count of classes one rule matches on a doc, must fit below 128.
MAX_CLASSES = 127

# Every walk over a split's rows goes one ``row_blocks`` range at a time: building
# a feature table, a product over a ``features.SparseRows`` table, writing an
# artifact. Measured with OpenBLAS 0.3.31 on one thread, a block's rows of
# ``x @ w.T`` were bit-equal to the whole table's product from 608 rows on, and
# for a single candidate on the 256- and 377-column tables differed in the last
# bit at 576 rows; the shortest block, 768 rows, keeps clear of that.
ROW_BLOCK = 1024


def row_blocks(n: int) -> list[tuple[int, int]]:
    """n rows split evenly into max(1, round(n / ROW_BLOCK)) ranges [lo, hi).

    Each holds 768 to 1,535 rows; under 1,536 rows the one range is all of them.
    """
    count = max(1, round(n / ROW_BLOCK))
    edges = [n * i // count for i in range(count + 1)]
    return list(zip(edges[:-1], edges[1:]))


def tokenize(text: str) -> tuple[str, ...]:
    """Every lowercased alphanumeric run of the text, in order."""
    return tuple(_TOKEN_RE.findall(text.lower()))


@dataclass(frozen=True)
class LabelSpace:
    """Ordered class names; index k maps to class_names[k] for the whole run."""

    class_names: tuple[str, ...]

    def __post_init__(self):
        names = tuple(self.class_names)
        object.__setattr__(self, "class_names", names)
        if len(names) < 2:
            raise ValueError("a label space needs at least 2 classes")
        if len(set(names)) != len(names) or any(not n for n in names):
            raise ValueError("class names must be unique and non-empty")
        if len(names) > MAX_CLASSES:
            raise ValueError(f"a label space holds at most {MAX_CLASSES} classes, got {len(names)}")

    @property
    def num_classes(self) -> int:
        return len(self.class_names)

    def index_of(self, name: str) -> int:
        try:
            return self.class_names.index(name)
        except ValueError:
            raise LabelForgeError(f"unknown label: {name!r}") from None

    def name_of(self, index: int) -> str:
        return self.class_names[index]


@dataclass(frozen=True, slots=True)
class Document:
    id: str
    text: str  # may be empty; label functions must still handle it


class TokenIndex:
    """One split as token ids over a shared vocabulary.

    ``token_ids`` (token -> id, a new token takes the next id) may be shared
    by several indexes. Each text is tokenized once, here, and ``ids`` is
    the only copy of the split's tokens: one ``int32`` array, row r at
    ``offsets[r]:offsets[r + 1]``. Featurizers and token-mode surface rules
    read these two arrays.
    """

    def __init__(self, docs: list[Document], token_ids: dict[str, int] | None = None):
        self.docs = docs
        self.token_ids = vocab = {} if token_ids is None else token_ids
        lengths = np.empty(len(docs), np.int64)

        def rows():  # one document's ids at a time, its length recorded as it goes
            for r, doc in enumerate(docs):
                row = [vocab.setdefault(t, len(vocab)) for t in tokenize(doc.text)]
                lengths[r] = len(row)
                yield row

        self.ids = np.fromiter(itertools.chain.from_iterable(rows()), np.int32)
        self.offsets = np.concatenate(([0], np.cumsum(lengths)))

    def __len__(self) -> int:
        return len(self.docs)

    def __iter__(self):
        return iter(self.docs)

    def token_rows(self, lo: int, hi: int) -> np.ndarray:
        """The row of each token of rows lo to hi - 1, in ``ids`` order."""
        return np.repeat(np.arange(lo, hi, dtype=np.int32), np.diff(self.offsets[lo:hi + 1]))


@dataclass(frozen=True, slots=True)
class LabeledExample:
    doc: Document
    gold: int


@dataclass
class Dataset:
    """Unlabeled pool, labeled seed, optional test split over one label space.

    ``unlabeled_gold`` stashes gold labels that arrived on unlabeled-split
    records. It exists purely so runs on synthetic or benchmark corpora can be
    scored; the labeling pipeline itself never reads it.
    """

    labels: LabelSpace
    unlabeled: list[Document]
    seed: list[LabeledExample]
    test: list[LabeledExample] = field(default_factory=list)
    unlabeled_gold: dict[str, int] = field(default_factory=dict)

    def __post_init__(self):
        seen: set[str] = set()
        for doc in self.all_documents():
            if doc.id in seen:
                raise LabelForgeError(f"duplicate document id: {doc.id!r}")
            seen.add(doc.id)
        if not self.unlabeled:
            raise ValueError("unlabeled pool must be non-empty")
        if not self.seed:
            raise ValueError("seed set must be non-empty")
        for ex in list(self.seed) + list(self.test):
            if not 0 <= ex.gold < self.labels.num_classes:
                raise ValueError(f"gold label {ex.gold} outside label space")

    @cached_property
    def seed_index(self) -> TokenIndex:
        """The seed split as token ids, built on first read."""
        return TokenIndex([ex.doc for ex in self.seed])

    @cached_property
    def pool_index(self) -> TokenIndex:
        """The unlabeled pool as token ids over the seed index's vocabulary."""
        return TokenIndex(self.unlabeled, self.seed_index.token_ids)

    @cached_property
    def test_index(self) -> TokenIndex:
        """The test split as token ids over the pool index's vocabulary, after seed and pool."""
        return TokenIndex([ex.doc for ex in self.test], self.pool_index.token_ids)

    def all_documents(self):
        for doc in self.unlabeled:
            yield doc
        for ex in self.seed:
            yield ex.doc
        for ex in self.test:
            yield ex.doc


def _record_from_csv_row(row: dict) -> dict:
    rec = {"id": row.get("id"), "text": row.get("text")}
    if row.get("label"):
        rec["label"] = row["label"]
    if row.get("split"):
        rec["split"] = row["split"]
    return rec


def iter_records(path: str, fmt: str):
    """Yield (line_number, record dict) pairs from a JSONL or CSV file; a leading BOM is skipped."""
    if fmt == "jsonl":
        with open(path, encoding="utf-8-sig") as fh:
            for line_no, line in enumerate(fh, start=1):
                if not line.strip():
                    continue
                try:
                    rec = json.loads(line)
                except json.JSONDecodeError as exc:
                    raise MalformedRecord(line_no, str(exc)) from None
                if not isinstance(rec, dict):
                    raise MalformedRecord(line_no, "record is not an object")
                yield line_no, rec
    elif fmt == "csv":
        with open(path, encoding="utf-8-sig", newline="") as fh:
            reader = csv.DictReader(fh)
            for line_no, row in enumerate(reader, start=2):
                yield line_no, _record_from_csv_row(row)
    else:
        raise ValueError(f"unsupported format: {fmt!r}")


def load_dataset(path: str, fmt: str, labels: LabelSpace) -> Dataset:
    """Ingest a JSONL or CSV file into splits.

    Raises MalformedRecord on missing/invalid fields, and LabelForgeError when
    a label value does not name a class or a document id repeats.
    """
    unlabeled: list[Document] = []
    seed: list[LabeledExample] = []
    test: list[LabeledExample] = []
    unlabeled_gold: dict[str, int] = {}

    for line_no, rec in iter_records(path, fmt):
        doc_id = rec.get("id")
        text = rec.get("text")
        if not isinstance(doc_id, str) or not doc_id:
            raise MalformedRecord(line_no, "missing or empty 'id'")
        if not isinstance(text, str):
            raise MalformedRecord(line_no, "missing 'text'")
        split = rec.get("split", "unlabeled")
        if split not in SPLITS:
            raise MalformedRecord(line_no, f"unknown split {split!r}")

        gold = None
        if "label" in rec and rec["label"] is not None:
            label = rec["label"]
            if not isinstance(label, str):
                raise MalformedRecord(line_no, "'label' must be a string")
            gold = labels.index_of(label)

        doc = Document(id=doc_id, text=text)
        if split == "unlabeled":
            unlabeled.append(doc)
            if gold is not None:
                unlabeled_gold[doc_id] = gold
        else:
            if gold is None:
                raise MalformedRecord(line_no, f"'{split}' record has no label")
            ex = LabeledExample(doc=doc, gold=gold)
            (seed if split == "seed" else test).append(ex)

    return Dataset(
        labels=labels,
        unlabeled=unlabeled,
        seed=seed,
        test=test,
        unlabeled_gold=unlabeled_gold,
    )


def _records_of(dataset: Dataset):
    for doc in dataset.unlabeled:
        rec = {"id": doc.id, "text": doc.text, "split": "unlabeled"}
        if doc.id in dataset.unlabeled_gold:
            rec["label"] = dataset.labels.name_of(dataset.unlabeled_gold[doc.id])
        yield rec
    for split, examples in (("seed", dataset.seed), ("test", dataset.test)):
        for ex in examples:
            yield {
                "id": ex.doc.id,
                "text": ex.doc.text,
                "label": dataset.labels.name_of(ex.gold),
                "split": split,
            }


def save_dataset(dataset: Dataset, path: str, fmt: str = "jsonl") -> None:
    """Write a dataset back out in the ingestion schema (round-trip safe)."""
    if fmt == "jsonl":
        with open(path, "w", encoding="utf-8") as fh:
            for rec in _records_of(dataset):
                fh.write(json.dumps(rec, sort_keys=True) + "\n")
    elif fmt == "csv":
        with open(path, "w", encoding="utf-8", newline="") as fh:
            writer = csv.DictWriter(fh, fieldnames=["id", "text", "label", "split"])
            writer.writeheader()
            for rec in _records_of(dataset):
                writer.writerow({k: rec.get(k, "") for k in writer.fieldnames})
    else:
        raise ValueError(f"unsupported format: {fmt!r}")
