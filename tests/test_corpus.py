import json
from pathlib import Path

import numpy as np
import pytest

from labelforge import corpus
from labelforge.corpus import (
    Dataset,
    Document,
    LabeledExample,
    MAX_CLASSES,
    LabelSpace,
    TokenIndex,
    load_dataset,
    save_dataset,
)
from labelforge.errors import LabelForgeError, MalformedRecord

LABELS = LabelSpace(("pos", "neg"))


def write_jsonl(path, records):
    with open(path, "w", encoding="utf-8") as fh:
        for rec in records:
            fh.write(json.dumps(rec) + "\n")
    return str(path)


def test_label_space_validation():
    assert LABELS.num_classes == 2
    assert LABELS.index_of("neg") == 1
    with pytest.raises(LabelForgeError, match=r"^unknown label: 'maybe'$"):
        LABELS.index_of("maybe")
    with pytest.raises(ValueError):
        LabelSpace(("pos", "pos"))
    with pytest.raises(ValueError):
        LabelSpace(("pos", ""))
    assert LabelSpace(tuple(f"c{k}" for k in range(MAX_CLASSES))).num_classes == 127
    with pytest.raises(ValueError, match="at most 127"):
        LabelSpace(tuple(f"c{k}" for k in range(MAX_CLASSES + 1)))


def test_load_three_line_jsonl(tmp_path):
    path = write_jsonl(tmp_path / "d.jsonl", [
        {"id": "a", "text": "hello", "split": "unlabeled"},
        {"id": "b", "text": "great stuff", "label": "pos", "split": "seed"},
        {"id": "c", "text": "awful", "label": "neg", "split": "test"},
    ])
    ds = load_dataset(path, "jsonl", LABELS)
    assert len(ds.unlabeled) == 1
    assert len(ds.seed) == 1
    assert len(ds.test) == 1
    assert ds.seed[0].gold == 0
    assert ds.test[0].gold == 1


def test_unknown_label_rejected(tmp_path):
    path = write_jsonl(tmp_path / "d.jsonl", [
        {"id": "a", "text": "x", "label": "maybe"},
        {"id": "b", "text": "y", "label": "pos", "split": "seed"},
    ])
    with pytest.raises(LabelForgeError) as err:
        load_dataset(path, "jsonl", LABELS)
    assert str(err.value) == "unknown label: 'maybe'"


def test_duplicate_id_rejected(tmp_path):
    path = write_jsonl(tmp_path / "d.jsonl", [
        {"id": "a", "text": "x", "split": "unlabeled"},
        {"id": "a", "text": "y", "split": "unlabeled"},
    ])
    with pytest.raises(LabelForgeError, match=r"^duplicate document id: 'a'$"):
        load_dataset(path, "jsonl", LABELS)


def test_duplicate_id_across_splits_rejected(tmp_path):
    path = write_jsonl(tmp_path / "d.jsonl", [
        {"id": "a", "text": "x", "split": "unlabeled"},
        {"id": "a", "text": "y", "label": "pos", "split": "seed"},
    ])
    with pytest.raises(LabelForgeError, match=r"^duplicate document id: 'a'$"):
        load_dataset(path, "jsonl", LABELS)


def test_malformed_record_reports_line(tmp_path):
    path = write_jsonl(tmp_path / "d.jsonl", [
        {"id": "a", "text": "x"},
        {"id": "b", "split": "seed", "label": "pos"},
    ])
    with pytest.raises(MalformedRecord) as err:
        load_dataset(path, "jsonl", LABELS)
    assert err.value.line_number == 2


def test_seed_record_without_label_is_malformed(tmp_path):
    path = write_jsonl(tmp_path / "d.jsonl", [
        {"id": "a", "text": "x", "split": "seed"},
    ])
    with pytest.raises(MalformedRecord):
        load_dataset(path, "jsonl", LABELS)


def test_unlabeled_gold_side_channel(tmp_path):
    path = write_jsonl(tmp_path / "d.jsonl", [
        {"id": "a", "text": "x", "label": "pos", "split": "unlabeled"},
        {"id": "b", "text": "y", "label": "neg", "split": "seed"},
    ])
    ds = load_dataset(path, "jsonl", LABELS)
    assert ds.unlabeled_gold == {"a": 0}


def test_csv_round_trip(tmp_path):
    path = write_jsonl(tmp_path / "d.jsonl", [
        {"id": "a", "text": "hello there", "label": "pos", "split": "unlabeled"},
        {"id": "b", "text": "so, good", "label": "pos", "split": "seed"},
        {"id": "c", "text": "", "label": "neg", "split": "test"},
    ])
    ds = load_dataset(path, "jsonl", LABELS)
    csv_path = str(tmp_path / "d.csv")
    save_dataset(ds, csv_path, "csv")
    again = load_dataset(csv_path, "csv", LABELS)
    assert [d.id for d in again.unlabeled] == [d.id for d in ds.unlabeled]
    assert again.test[0].doc.text == ""


def test_jsonl_round_trip_identity(tmp_path):
    path = write_jsonl(tmp_path / "d.jsonl", [
        {"id": "a", "text": "hello", "label": "pos", "split": "unlabeled"},
        {"id": "b", "text": "bye", "label": "neg", "split": "seed"},
        {"id": "c", "text": "mid", "label": "pos", "split": "test"},
    ])
    ds = load_dataset(path, "jsonl", LABELS)
    out = str(tmp_path / "out.jsonl")
    save_dataset(ds, out, "jsonl")
    again = load_dataset(out, "jsonl", LABELS)
    assert [(d.id, d.text) for d in again.unlabeled] == [(d.id, d.text) for d in ds.unlabeled]
    assert [(e.doc.id, e.gold) for e in again.seed] == [(e.doc.id, e.gold) for e in ds.seed]
    assert [(e.doc.id, e.gold) for e in again.test] == [(e.doc.id, e.gold) for e in ds.test]
    assert again.unlabeled_gold == ds.unlabeled_gold


def make_examples(n, num_classes=2):
    return [
        LabeledExample(doc=Document(id=f"d{i}", text=f"text {i}"), gold=i % num_classes)
        for i in range(n)
    ]


def test_dataset_invariants():
    with pytest.raises(ValueError):
        Dataset(labels=LABELS, unlabeled=[], seed=make_examples(1))
    doc = Document(id="x", text="t")
    with pytest.raises(ValueError):
        Dataset(labels=LABELS, unlabeled=[doc], seed=[LabeledExample(doc=Document(id="y", text=""), gold=5)])


def test_token_index_shares_one_vocabulary():
    token_ids = {}
    first = TokenIndex([Document("a", "zebra good")], token_ids)
    docs = [Document(f"d{i}", t) for i, t in enumerate(("good good movie", "", "movie good"))]
    index = TokenIndex(docs, token_ids)
    assert token_ids == {"zebra": 0, "good": 1, "movie": 2}
    assert first.ids.tolist() == [0, 1]
    assert index.ids.dtype == np.int32 and index.ids.tolist() == [1, 1, 2, 2, 1]
    assert index.offsets.tolist() == [0, 3, 3, 5]
    assert index.token_rows().tolist() == [0, 0, 0, 2, 2]
    assert index.rows("good").tolist() == [0, 2] and index.rows("movie").tolist() == [0, 2]
    assert index.rows("zebra").tolist() == []  # in the vocabulary, not in this split
    TokenIndex([Document("b", "late")], token_ids)  # grows the vocabulary after the postings
    assert token_ids["late"] == 3 and index.rows("late").tolist() == []


def test_dataset_indexes_split_after_split_over_one_vocabulary():
    dataset = Dataset(
        labels=LABELS,
        unlabeled=[Document("u0", "good movie"), Document("u1", "bad")],
        seed=[LabeledExample(Document("s0", "bad day"), 1)],
        test=[LabeledExample(Document("t0", "fresh good day"), 0)],
    )
    test = dataset.test_index  # read first, still built after the seed and the pool
    assert test.token_ids is dataset.pool_index.token_ids is dataset.seed_index.token_ids
    assert test.token_ids == {"bad": 0, "day": 1, "good": 2, "movie": 3, "fresh": 4}
    assert test.docs == [ex.doc for ex in dataset.test] and test.ids.tolist() == [4, 2, 1]
    assert dataset.test_index is test


def test_only_corpus_builds_token_indexes():
    """The shared vocabulary grows in one module: no other source file builds an index."""
    sources = sorted(Path(corpus.__file__).parent.glob("*.py"))
    assert len(sources) > 10
    builders = [p.name for p in sources
                if p.name != "corpus.py" and "TokenIndex(" in p.read_text(encoding="utf-8")]
    assert builders == []


def test_token_indexes_are_the_only_token_copy():
    """The three split indexes retain ids, offsets and one vocabulary: no token string per token."""
    import tracemalloc

    from labelforge.synth import make_noisy_corpus

    dataset = make_noisy_corpus(0, 4000, 40, 400)
    tracemalloc.start()
    try:
        indexes = (dataset.seed_index, dataset.pool_index, dataset.test_index)
        retained, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    tokens = sum(len(index.ids) for index in indexes)
    assert tokens > 50_000
    assert retained / tokens <= 16, f"{retained / tokens:.1f} bytes retained per token"
