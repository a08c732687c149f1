import io
import json

import numpy as np
import pytest

from labelforge.corpus import LabelSpace
from labelforge.errors import LabelForgeError
from labelforge.label_model import (
    aggregate,
    fit_dawid_skene,
    load_labels_jsonl,
    write_dist_rows,
)
from labelforge.lf_core import ABSTAIN, LabelMatrix
from labelforge.metrics import evaluate_labeling

LABELS2 = LabelSpace(("pos", "neg"))
LABELS3 = LabelSpace(("a", "b", "c"))
MV, DS = {"kind": "majority_vote"}, {"kind": "dawid_skene"}


def weighted(*weights):
    return {"kind": "weighted_majority_vote", "weights": list(weights)}


def matrix(rows, prefix="d"):
    entries = np.asarray(rows, dtype=np.int8)
    return LabelMatrix(
        entries=entries,
        row_ids=[f"{prefix}{i}" for i in range(entries.shape[0])],
        col_ids=[f"lf{j}" for j in range(entries.shape[1])],
    )


def test_majority_vote_counts():
    dists, covered = aggregate(matrix([[0, 0, 1, ABSTAIN]]), MV, LABELS2, None)
    assert np.allclose(dists[0], [2 / 3, 1 / 3])
    assert covered[0]


def test_all_abstain_row_uniform_uncovered():
    dists, covered = aggregate(matrix([[ABSTAIN, ABSTAIN]]), MV, LABELS2, None)
    assert np.allclose(dists[0], [0.5, 0.5])
    assert not covered[0]


def test_weighted_vote_mass():
    dists, _ = aggregate(matrix([[0, 0, 1]]), weighted(1.0, 1.0, 3.0), LABELS2, None)
    assert np.allclose(dists[0], [2 / 5, 3 / 5])


def test_weighted_vote_without_weights_weighs_by_accuracy():
    m = matrix([[0, 0, 1], [1, ABSTAIN, 0]])
    want, _ = aggregate(m, weighted(0.5, 0.25, 3.0), LABELS2, None)
    assert np.allclose(want, [[0.75 / 3.75, 3.0 / 3.75], [3.0 / 3.5, 0.5 / 3.5]])
    absent = {"kind": "weighted_majority_vote"}
    for table in (absent, {**absent, "weights": None}):
        dists, covered = aggregate(m, table, LABELS2, [0.5, 0.25, 3.0])
        assert np.array_equal(dists, want) and covered.all()
    configured, _ = aggregate(m, weighted(1.0, 1.0, 1.0), LABELS2, [0.5, 0.25, 3.0])
    assert np.array_equal(configured, aggregate(m, MV, LABELS2, None)[0])
    with pytest.raises(LabelForgeError, match="needs a positive weight"):
        aggregate(m, absent, LABELS2, [0.0, 0.0, 0.0])


def test_unknown_label_model_kind_raises():
    with pytest.raises(ValueError, match="unknown label model kind"):
        aggregate(matrix([[0, 1]]), {"kind": "snorkel"}, LABELS2, None)


def test_weights_of_another_length_name_both_counts():
    with pytest.raises(ValueError, match="^weights length 2 must match the LF count 3$"):
        aggregate(matrix([[0, 1, 1]]), weighted(1.0, 2.0), LABELS2, None)


def test_weighted_all_zero_raises():
    with pytest.raises(LabelForgeError, match="needs a positive weight"):
        aggregate(matrix([[0, 1]]), weighted(0.0, 0.0), LABELS2, None)


def test_equal_weights_match_majority():
    rng = np.random.default_rng(0)
    rows = rng.integers(-1, 2, size=(50, 5))
    m = matrix(rows.tolist())
    mv_dists, mv_covered = aggregate(m, MV, LABELS2, None)
    wv_dists, wv_covered = aggregate(m, weighted(2.0, 2.0, 2.0, 2.0, 2.0), LABELS2, None)
    assert np.allclose(mv_dists, wv_dists)
    assert np.array_equal(mv_covered, wv_covered)


def test_weight_scaling_invariance():
    rng = np.random.default_rng(1)
    rows = rng.integers(-1, 2, size=(30, 4))
    weights = tuple(rng.uniform(0.1, 1.0, size=4))
    scaled = tuple(7.3 * w for w in weights)
    m = matrix(rows.tolist())
    a, _ = aggregate(m, weighted(*weights), LABELS2, None)
    b, _ = aggregate(m, weighted(*scaled), LABELS2, None)
    assert np.allclose(a, b)


def test_majority_vote_permutation_invariant():
    rng = np.random.default_rng(2)
    rows = rng.integers(-1, 2, size=(40, 6))
    m1 = matrix(rows.tolist())
    perm = rng.permutation(6)
    m2 = matrix(rows[:, perm].tolist())
    a, _ = aggregate(m1, MV, LABELS2, None)
    b, _ = aggregate(m2, MV, LABELS2, None)
    assert np.allclose(a, b)


def test_every_output_is_distribution():
    rng = np.random.default_rng(3)
    for kind in (MV, weighted(0.3, 0.7, 0.1), DS):
        rows = rng.integers(-1, 3, size=(25, 3))
        if not (rows != ABSTAIN).any():
            continue
        dists, covered = aggregate(matrix(rows.tolist()), kind, LABELS3, None)
        assert dists.dtype == np.float64 and dists.shape == (25, 3)
        assert covered.dtype == np.bool_ and covered.shape == (25,)
        assert np.array_equal(covered, (rows != ABSTAIN).any(axis=1))
        assert (dists[~covered] == 1 / 3).all()
        for dist in dists:
            assert (dist >= 0).all()
            assert dist.sum() == pytest.approx(1.0, abs=1e-9)


def test_hard_labels_tie_breaks_to_smallest():
    dists = np.array([[0.3, 0.7], [0.5, 0.5], [0.5, 0.5]])
    covered = np.array([True, True, False])
    fh = io.StringIO()
    write_dist_rows(fh, dists, ["d0", "d1", "d2"], LABELS2, "hard", covered)
    hard = [json.loads(line)["hard"] for line in fh.getvalue().splitlines()]
    assert hard == ["neg", "pos", "pos"]
    # gold is class 0 for the tied covered row: a class-0 prediction is a perfect score
    report = evaluate_labeling(dists, covered, ["d0", "d1", "d2"], {"d0": 1, "d1": 0, "d2": 1})
    assert report.confusion == [[1, 0], [0, 1]]
    assert report.weighted_f1 == 1.0


# --- Dawid-Skene ---


def brute_force_em(entries, num_classes, n_iter=60, smoothing=1e-6):
    """Naive-loop EM oracle: majority-vote init, abstain skipped, add-delta."""
    entries = np.asarray(entries)
    keep = [i for i in range(entries.shape[0]) if (entries[i] != ABSTAIN).any()]
    entries = entries[keep]
    n, m = entries.shape
    post = np.zeros((n, num_classes))
    for i in range(n):
        votes = [v for v in entries[i] if v != ABSTAIN]
        for v in votes:
            post[i][v] += 1.0
        post[i] = post[i] / post[i].sum() if post[i].sum() else np.full(num_classes, 1 / num_classes)
    priors = np.full(num_classes, 1.0 / num_classes)
    confusion = np.zeros((m, num_classes, num_classes))
    for _ in range(n_iter):
        priors = post.sum(axis=0) + smoothing
        priors = priors / priors.sum()
        for j in range(m):
            counts = np.zeros((num_classes, num_classes))
            for i in range(n):
                if entries[i, j] != ABSTAIN:
                    for c in range(num_classes):
                        counts[c, entries[i, j]] += post[i, c]
            counts += smoothing
            confusion[j] = counts / counts.sum(axis=1, keepdims=True)
        new_post = np.zeros_like(post)
        for i in range(n):
            for c in range(num_classes):
                val = np.log(priors[c])
                for j in range(m):
                    if entries[i, j] != ABSTAIN:
                        val += np.log(confusion[j, c, entries[i, j]] + 1e-300)
                new_post[i, c] = val
            new_post[i] -= new_post[i].max()
            new_post[i] = np.exp(new_post[i])
            new_post[i] /= new_post[i].sum()
        if np.max(np.abs(new_post - post)) < 1e-9:
            post = new_post
            break
        post = new_post
    return priors, confusion, post


def truthful_matrix(num_docs=20, num_classes=2, num_lfs=3, seed=0):
    rng = np.random.default_rng(seed)
    gold = rng.integers(0, num_classes, size=num_docs)
    rows = np.tile(gold[:, None], (1, num_lfs))
    return rows, gold


def test_ds_truthful_lfs_recover_identity():
    rows, gold = truthful_matrix()
    model = fit_dawid_skene(matrix(rows.tolist()), 2, max_iter=100, tol=1e-8)
    assert model.converged
    for j in range(3):
        assert np.allclose(model.confusion[j], np.eye(2), atol=1e-3)
    assert (model.posteriors.argmax(axis=1) == gold).all()


def test_ds_matches_brute_force_oracle_truthful():
    rows, _ = truthful_matrix(seed=3)
    model = fit_dawid_skene(matrix(rows.tolist()), 2, max_iter=60, tol=0.0)
    _, oracle_confusion, oracle_post = brute_force_em(rows, 2, n_iter=60)
    assert np.allclose(model.confusion, oracle_confusion, atol=1e-6)
    assert np.allclose(model.posteriors, oracle_post, atol=1e-6)


def test_ds_constant_lf_confusion_concentrates():
    rng = np.random.default_rng(4)
    gold = rng.integers(0, 2, size=40)
    rows = np.stack([gold, gold, np.zeros_like(gold)], axis=1)
    model = fit_dawid_skene(matrix(rows.tolist()), 2, max_iter=100, tol=1e-9)
    # the constant LF's confusion rows concentrate on column 0
    assert model.confusion[2][:, 0].min() > 0.99
    _, oracle_confusion, _ = brute_force_em(rows, 2, n_iter=100)
    assert np.allclose(model.confusion, oracle_confusion, atol=1e-5)


def per_row_em(entries, num_classes, max_iter, tol, smoothing=1e-6):
    """Reference Dawid-Skene EM that runs every step row by row, over covered rows."""
    entries = entries[(entries != ABSTAIN).any(axis=1)]
    n, m = entries.shape
    mass = np.zeros((n, num_classes))
    for j in range(m):
        voted = entries[:, j] != ABSTAIN
        np.add.at(mass, (np.flatnonzero(voted), entries[voted, j]), 1.0)
    totals = mass.sum(axis=1, keepdims=True)
    posteriors = np.where(totals > 0, mass / np.maximum(totals, 1e-300), 1.0 / num_classes)
    confusion = np.zeros((m, num_classes, num_classes))
    history = []
    for iteration in range(1, max_iter + 1):
        priors = posteriors.sum(axis=0) + smoothing
        priors /= priors.sum()
        for j in range(m):
            col = entries[:, j]
            voted = col != ABSTAIN
            counts = np.zeros((num_classes, num_classes))
            sub, votes = posteriors[voted], col[voted]
            for label in np.unique(votes):
                counts[:, label] = sub[votes == label].sum(axis=0)
            counts += smoothing
            confusion[j] = counts / counts.sum(axis=1, keepdims=True)
        log_joint = np.tile(np.log(priors + 1e-300), (n, 1))
        for j in range(m):
            voted = entries[:, j] != ABSTAIN
            log_joint[voted] += np.log(confusion[j][:, entries[voted, j]].T + 1e-300)
        row_max = log_joint.max(axis=1, keepdims=True)
        new = np.exp(log_joint - row_max)
        row_sum = new.sum(axis=1, keepdims=True)
        history.append(float(np.sum(row_max[:, 0] + np.log(row_sum[:, 0]))))
        new /= row_sum
        delta = float(np.max(np.abs(new - posteriors)))
        posteriors = new
        if delta < tol:
            break
    return posteriors, confusion, history, iteration


def test_ds_pattern_em_equals_per_row_em_bit_for_bit():
    rng = np.random.default_rng(11)
    for trial in range(40):
        num_classes = int(rng.integers(2, 5))
        m = int(rng.integers(2, 7))
        patterns = rng.integers(-1, num_classes, size=(int(rng.integers(1, 25)), m))
        entries = patterns[rng.integers(0, len(patterns), size=int(rng.integers(1, 300)))]
        entries[:, int(rng.integers(0, m))] = ABSTAIN  # one LF always abstains
        entries = entries.astype(np.int8)
        if not (entries != ABSTAIN).any():
            continue
        tol = float(rng.choice([0.0, 1e-4]))
        model = fit_dawid_skene(matrix(entries), num_classes, max_iter=30, tol=tol)
        posteriors, confusion, history, iterations = per_row_em(entries, num_classes, 30, tol)
        assert model.iterations_run == iterations, trial
        assert np.array_equal(model.posteriors, posteriors), trial
        assert np.array_equal(model.confusion, confusion), trial
        assert model.log_likelihood_history == history, trial


@pytest.mark.parametrize("num_classes, m, n_rows", [
    (5, 6, 400),  # five classes
    (2, 39, 300),  # the last LF count whose base-3 row codes would fit an int64
    (2, 40, 300),  # such codes would overflow; a row's bytes, the pattern key, have no limit
    (3, 45, 200),
    (3, 4, 1),  # a one-row matrix
])
def test_ds_em_equals_per_row_em_at_the_edges(num_classes, m, n_rows):
    rng = np.random.default_rng(num_classes * 1000 + m)
    for trial in range(4):
        patterns = rng.integers(-1, num_classes, size=(int(rng.integers(1, 30)), m))
        # half the patterns differ from the first only in the leading LFs, whose digits a
        # wrapped int64 code would drop
        patterns[len(patterns) // 2:, 4:] = patterns[0, 4:]
        entries = patterns[rng.integers(0, len(patterns), size=n_rows)].astype(np.int8)
        entries[:, int(rng.integers(0, m))] = ABSTAIN  # an LF that never votes
        entries[0, (int(rng.integers(0, m)) + 1) % m] = int(rng.integers(0, num_classes))
        tol = float(rng.choice([0.0, 1e-4]))
        model = fit_dawid_skene(matrix(entries), num_classes, max_iter=20, tol=tol)
        posteriors, confusion, history, iterations = per_row_em(entries, num_classes, 20, tol)
        assert model.iterations_run == iterations, trial
        assert np.array_equal(model.posteriors, posteriors), trial
        assert np.array_equal(model.confusion, confusion), trial
        assert model.log_likelihood_history == history, trial


def test_ds_no_signal():
    with pytest.raises(LabelForgeError, match="every matrix entry is ABSTAIN"):
        fit_dawid_skene(matrix([[ABSTAIN, ABSTAIN]]), 2)


def test_ds_log_likelihood_nondecreasing():
    rng = np.random.default_rng(5)
    for trial in range(20):
        rows = rng.integers(-1, 2, size=(30, 4))
        if not (rows != ABSTAIN).any():
            continue
        model = fit_dawid_skene(matrix(rows.tolist()), 2, max_iter=40, tol=0.0)
        history = model.log_likelihood_history
        assert all(b >= a - 1e-9 for a, b in zip(history, history[1:]))


def test_ds_abstain_rows_uniform_in_aggregate():
    rows = [[0, 1], [ABSTAIN, ABSTAIN], [1, 1]]
    dists, covered = aggregate(matrix(rows), DS, LABELS2, None)
    assert not covered[1]
    assert np.allclose(dists[1], 0.5)
    assert covered[0] and covered[2]


def heterogeneous_matrix(rng, num_docs=500, accs=(0.9, 0.9, 0.55), coverage=0.7, num_classes=2):
    """Abstention-aware LFs of heterogeneous accuracy: split rows separate
    accuracy-weighting (DS) from unweighted counting (MV)."""
    gold = rng.integers(0, num_classes, size=num_docs)
    cols = []
    for acc in accs:
        votes = gold.copy()
        flip = rng.random(num_docs) >= acc
        for i in np.flatnonzero(flip):
            wrong = [c for c in range(num_classes) if c != gold[i]]
            votes[i] = wrong[int(rng.integers(0, len(wrong)))]
        votes[rng.random(num_docs) >= coverage] = ABSTAIN
        cols.append(votes)
    return np.stack(cols, axis=1), gold


def test_ds_beats_majority_on_heterogeneous_lfs():
    wins = 0
    for seed in range(20):
        rng = np.random.default_rng(1000 + seed)
        rows, gold = heterogeneous_matrix(rng)
        m = matrix(rows.tolist())
        mv_dists, covered = aggregate(m, MV, LABELS2, None)
        ds_dists, _ = aggregate(m, DS, LABELS2, None)
        mv = mv_dists.argmax(axis=1)
        ds = ds_dists.argmax(axis=1)
        if (ds[covered] == gold[covered]).mean() >= (mv[covered] == gold[covered]).mean():
            wins += 1
    assert wins >= 18


def test_labels_jsonl_round_trip(tmp_path):
    dists = np.array([[0.75, 0.25], [0.5, 0.5]])
    covered = np.array([True, False])
    fh = io.StringIO()
    write_dist_rows(fh, dists, ["d0", "d1"], LABELS2, "hard", covered)
    path = str(tmp_path / "labels.jsonl")
    with open(path, "w", encoding="utf-8") as out:
        out.write(fh.getvalue())
    again, again_covered, doc_ids = load_labels_jsonl(path, LABELS2)
    assert doc_ids == ["d0", "d1"]
    assert np.allclose(again[0], dists[0])
    assert again_covered.dtype == np.bool_ and np.array_equal(again_covered, covered)
    first = open(path).readline()
    assert '"hard": "pos"' in first


def test_labels_jsonl_loads_the_non_finite_values_it_writes(tmp_path):
    dists = np.array([[np.nan, 0.5], [np.inf, -np.inf], [1.0, 0.0]])
    fh = io.StringIO()
    write_dist_rows(fh, dists, ["d0", "d1", "d2"], LABELS2, "hard", np.array([True, False, True]))
    path = tmp_path / "labels.jsonl"
    path.write_text(fh.getvalue(), encoding="utf-8")
    again, _, _ = load_labels_jsonl(str(path), LABELS2)
    assert again.tobytes() == dists.tobytes()


def reference_labels_jsonl(fh, dists, covered, doc_ids, labels):
    """The per-row writer built on json.dumps that the array formatter replaced."""
    hard = dists.argmax(axis=1).tolist()
    for dist, cov, cls, doc_id in zip(dists.tolist(), covered.tolist(), hard, doc_ids):
        rec = {"doc_id": doc_id, "dist": dist, "covered": cov, "hard": labels.name_of(cls)}
        fh.write(json.dumps(rec, sort_keys=True) + "\n")


def reference_predictions_jsonl(fh, probs, docs, labels):
    for doc, dist in zip(docs, probs):
        rec = {"doc_id": doc.id, "dist": [float(v) for v in dist],
               "pred": labels.name_of(int(np.argmax(dist)))}
        fh.write(json.dumps(rec, sort_keys=True) + "\n")


ODD_IDS = ['plain', 'say "hi"', "back\\slash", "caf\u00e9", "\u03a3igma", "line\nbreak",
           "tab\there", "\U0001f600", "\x00\x1f", ""]


@pytest.mark.parametrize("labels", [LABELS2, LABELS3, LabelSpace(("n\u00e9g", 'q"t', "c", "d\\", "e"))])
@pytest.mark.parametrize("n_rows", [0, 1, 511, 512, 513, 1030])
@pytest.mark.parametrize("non_finite", [False, True])
def test_jsonl_writers_equal_the_json_dumps_writers(labels, n_rows, non_finite):
    from labelforge.corpus import Document

    rng = np.random.default_rng(n_rows)
    dists = rng.dirichlet(np.ones(labels.num_classes), size=n_rows)
    dists[: n_rows // 3] = np.round(dists[: n_rows // 3], 1)  # ties, short reprs, exact 0.0
    if non_finite:
        for col, value in ((0, np.nan), (1, np.inf), (-1, -np.inf)):
            dists[rng.integers(0, n_rows, size=min(n_rows, 3)), col] = value
    covered = rng.random(n_rows) < 0.7
    doc_ids = [ODD_IDS[i % len(ODD_IDS)] + str(i) for i in range(n_rows)]
    docs = [Document(id=doc_id, text="") for doc_id in doc_ids]
    got, want = io.StringIO(), io.StringIO()
    write_dist_rows(got, dists, doc_ids, labels, "hard", covered)
    reference_labels_jsonl(want, dists, covered, doc_ids, labels)
    assert got.getvalue() == want.getvalue()
    got, want = io.StringIO(), io.StringIO()
    write_dist_rows(got, dists, doc_ids, labels, "pred")
    reference_predictions_jsonl(want, dists, docs, labels)
    assert got.getvalue() == want.getvalue()
