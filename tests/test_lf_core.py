import csv
import io

import numpy as np
import pytest

from labelforge.corpus import Document, LabeledExample, TokenIndex
from labelforge.errors import LabelForgeError
from labelforge.lf_core import (
    ABSTAIN,
    Category,
    LabelFunction,
    LabelMatrix,
    apply_lf_many,
    build_label_matrix,
    estimate_accuracy,
    estimate_coverage,
)
from labelforge.surface import SurfaceRule


class FixedRule:
    """Rule mapping doc id -> weak label, ABSTAIN when unmapped."""

    def __init__(self, votes):
        self.votes = votes

    def apply_many(self, docs):
        return [self.votes.get(doc.id, ABSTAIN) for doc in docs]

    def describe(self):
        return {"kind": "fixed"}


def lf(lf_id, votes, category=Category.SURFACE):
    return LabelFunction(id=lf_id, category=category, rule=FixedRule(votes))


def seed_accuracy(one, seed):
    """Apply one LF to the seed docs, then score that vote column."""
    votes = apply_lf_many(one, TokenIndex([ex.doc for ex in seed]))
    return estimate_accuracy(votes, [ex.gold for ex in seed])


def docs(n):
    return TokenIndex([Document(id=f"d{i}", text=f"text {i}") for i in range(n)])


def matrix_of(lfs, ds):
    """Give each LF its vote column on ds, then stack the columns."""
    for one in lfs:
        one.votes = apply_lf_many(one, ds)
    return build_label_matrix(lfs, [d.id for d in ds])


def test_apply_lf_keyword_rule():
    rule = SurfaceRule(patterns={0: {"excellent"}}, match_mode="token")
    sut = LabelFunction(id="s", category=Category.SURFACE, rule=rule)
    votes = apply_lf_many(sut, TokenIndex([Document(id="a", text="excellent food"),
                                           Document(id="b", text="the weather")]))
    assert votes.tolist() == [0, ABSTAIN]


def test_build_label_matrix_elementwise():
    ds = docs(2)
    lfs = [lf("a", {"d0": 0, "d1": 1}), lf("b", {"d0": 1})]
    matrix = matrix_of(lfs, ds)
    assert matrix.entries.tolist() == [[0, 1], [1, ABSTAIN]]
    assert matrix.row_ids == ["d0", "d1"]
    assert matrix.col_ids == ["a", "b"]


def test_build_label_matrix_empty_lfs():
    with pytest.raises(LabelForgeError, match="from zero LFs"):
        build_label_matrix([], ["d0", "d1"])


def test_build_label_matrix_needs_a_full_vote_column():
    ds = docs(3)
    one = lf("a", {"d0": 0})
    with pytest.raises(LabelForgeError, match="one pool vote per matrix row"):
        build_label_matrix([one], [d.id for d in ds])  # never scored
    one.votes = apply_lf_many(one, TokenIndex(ds.docs[:2]))
    with pytest.raises(LabelForgeError, match="one pool vote per matrix row"):
        build_label_matrix([one], [d.id for d in ds])


def test_matrix_column_permutation_follows_lf_order():
    ds = docs(3)
    lfs = [lf("a", {"d0": 0}), lf("b", {"d1": 1}), lf("c", {"d2": 0})]
    m1 = matrix_of(lfs, ds)
    m2 = matrix_of(list(reversed(lfs)), ds)
    assert np.array_equal(m1.entries[:, ::-1], m2.entries)
    assert m2.col_ids == ["c", "b", "a"]


def test_matrix_is_pure_function():
    ds = docs(4)
    lfs = [lf("a", {"d0": 0, "d3": 1}), lf("b", {"d1": 1})]
    m1 = matrix_of(lfs, ds)
    m2 = matrix_of(lfs, ds)
    assert np.array_equal(m1.entries, m2.entries)


def test_estimate_accuracy_hand_count():
    # votes on 4 of 6, 3 correct -> 3 / (4 + 1e-9)
    seed = [LabeledExample(doc=Document(id=f"d{i}", text=""), gold=0) for i in range(6)]
    votes = {"d0": 0, "d1": 0, "d2": 0, "d3": 1}
    value = seed_accuracy(lf("a", votes), seed)
    assert value == pytest.approx(3 / (4 + 1e-9))


def test_estimate_accuracy_all_abstain_is_zero():
    seed = [LabeledExample(doc=Document(id="d0", text=""), gold=0)]
    assert seed_accuracy(lf("a", {}), seed) == 0.0


def test_estimate_accuracy_perfect_within_eps():
    seed = [LabeledExample(doc=Document(id=f"d{i}", text=""), gold=1) for i in range(5)]
    value = seed_accuracy(lf("a", {f"d{i}": 1 for i in range(5)}), seed)
    assert value == pytest.approx(1.0, abs=1e-9)


def test_estimate_coverage_counts():
    ds = docs(6)
    votes = {f"d{i}": 0 for i in range(4)}
    assert estimate_coverage(apply_lf_many(lf("a", votes), ds)) == pytest.approx(4 / 6)
    assert estimate_coverage(apply_lf_many(lf("b", {}), ds)) == 0.0
    assert estimate_coverage(apply_lf_many(lf("c", {f"d{i}": 1 for i in range(6)}), ds)) == 1.0
    with pytest.raises(ValueError):
        estimate_coverage(np.zeros(0, dtype=int))


def test_matrix_column_coverage_matches_estimate():
    rng = np.random.default_rng(42)
    ds = docs(30)
    for trial in range(50):
        votes = {
            f"d{i}": int(rng.integers(0, 2))
            for i in range(30)
            if rng.random() < rng.random()
        }
        one = lf(f"lf{trial}", votes)
        matrix = matrix_of([one], ds)
        col_cov = float(np.mean(matrix.entries[:, 0] != ABSTAIN))
        oracle = sum(1 for d in ds if d.id in votes) / len(ds)
        assert col_cov == pytest.approx(oracle)
        assert estimate_coverage(one.votes) == pytest.approx(oracle)


def test_accuracy_monotone_under_adding_correct_example():
    rng = np.random.default_rng(7)
    for _ in range(50):
        n = int(rng.integers(2, 12))
        seed = [LabeledExample(doc=Document(id=f"d{i}", text=""), gold=int(rng.integers(0, 2)))
                for i in range(n)]
        votes = {f"d{i}": int(rng.integers(0, 2)) for i in range(n) if rng.random() < 0.7}
        base = seed_accuracy(lf("a", votes), seed)
        extra = LabeledExample(doc=Document(id="extra", text=""), gold=0)
        votes_plus = dict(votes)
        votes_plus["extra"] = 0
        grown = seed_accuracy(lf("a", votes_plus), seed + [extra])
        # hand oracle on the grown sample
        correct = sum(1 for ex in seed + [extra] if votes_plus.get(ex.doc.id, ABSTAIN) == ex.gold)
        voted = sum(1 for ex in seed + [extra] if votes_plus.get(ex.doc.id, ABSTAIN) != ABSTAIN)
        assert grown == pytest.approx(correct / (voted + 1e-9))
        assert grown >= base - 1e-12


def test_matrix_csv_export():
    ds = docs(2)
    lfs = [lf("a", {"d0": 0}), lf("b", {"d1": 1})]
    matrix = matrix_of(lfs, ds)
    fh = io.StringIO()
    matrix.to_csv(fh)
    lines = fh.getvalue().splitlines()
    assert lines[0] == "doc_id,a,b"
    assert lines[1] == "d0,0,-1"
    assert lines[2] == "d1,-1,1"


def test_vote_columns_and_matrix_are_int8_and_csv_bytes_hold():
    from labelforge.candidates import class_top, threshold_votes

    ds = docs(3)
    probs = np.array([[0.9, 0.1], [0.45, 0.55], [0.5, 0.5]])
    assert threshold_votes(*class_top(probs), 0.5).dtype == np.int8
    lfs = [lf("a", {"d0": 0, "d2": 1}), lf("b", {"d1": 1})]
    matrix = matrix_of(lfs, ds)
    assert lfs[0].votes.dtype == np.int8
    assert matrix.entries.dtype == np.int8
    wide = [lf("c", {}), lf("d", {"d0": 1})]
    for one in wide:
        one.votes = np.asarray(apply_lf_many(one, ds), dtype=np.int64)  # cast on stacking
    assert build_label_matrix(wide, [d.id for d in ds]).entries.dtype == np.int8
    empty = matrix_of(wide, TokenIndex([]))
    assert empty.entries.shape == (0, 2) and empty.entries.dtype == np.int8
    fh = io.StringIO()
    matrix.to_csv(fh)
    assert fh.getvalue().encode("utf-8") == b"doc_id,a,b\nd0,0,-1\nd1,-1,1\nd2,1,-1\n"


@pytest.mark.parametrize("shape", [(0, 3), (1, 1), (4, 0), (511, 5), (512, 2), (513, 22), (1030, 7)])
def test_matrix_csv_equals_the_per_cell_writer(shape):
    rng = np.random.default_rng(shape[0])
    entries = rng.integers(-1, 5, size=shape).astype(np.int8)
    if entries.size:
        entries.flat[: min(entries.size, 256)] = np.arange(-128, 128)[: min(entries.size, 256)]
    matrix = LabelMatrix(entries=entries, row_ids=[f'd"{i}\u00e9' for i in range(shape[0])],
                         col_ids=[f"lf{j}" for j in range(shape[1])])
    want = io.StringIO()  # the per-cell writer the string table replaced, ids as csv writes them
    want.write(",".join(["doc_id"] + matrix.col_ids) + "\n")
    for i, doc_id in enumerate(matrix.row_ids):
        want.write(f"{csv_field(doc_id)},{','.join(str(int(v)) for v in entries[i])}\n")
    got = io.StringIO()
    matrix.to_csv(got)
    assert got.getvalue() == want.getvalue()


def csv_field(text):
    """``text`` as ``csv.writer``'s default dialect writes one field of a row."""
    row = io.StringIO()
    csv.writer(row).writerow([text, ""])  # quotes a field holding , " CR or LF
    return row.getvalue()[:-len(",\r\n")]


@pytest.mark.parametrize("doc_id", ["a,b", 'say "hi"', "cr\rid", "lf\nid", ',"\r\n', "\r\n"])
def test_matrix_csv_ids_read_back_through_csv_reader(doc_id):
    matrix = LabelMatrix(entries=np.array([[0, -1], [1, 1]], dtype=np.int8),
                         row_ids=[doc_id, "d1"], col_ids=["a", "b"])
    fh = io.StringIO()
    matrix.to_csv(fh)
    assert list(csv.reader(io.StringIO(fh.getvalue()))) == [
        ["doc_id", "a", "b"], [doc_id, "0", "-1"], ["d1", "1", "1"]]
    assert fh.getvalue().startswith(f"doc_id,a,b\n{csv_field(doc_id)},0,-1\n")
    assert fh.getvalue().endswith("\nd1,1,1\n")  # an id that needs no quotes keeps its bytes
