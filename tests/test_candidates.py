import dataclasses
import math
from fractions import Fraction
from types import SimpleNamespace

import numpy as np
import pytest

from labelforge import candidates, exploitation
from labelforge.candidates import (
    CalibratedClassifierLF,
    LinearClassifier,
    calibrate_threshold,
    class_top,
    draw_subsample,
    fit_logistic,
    synthesize_candidates,
    threshold_grid,
    threshold_votes,
    whm,
)
from labelforge.config import PipelineConfig
from labelforge.corpus import Dataset, Document, LabeledExample, LabelSpace
from labelforge.errors import DegenerateSubsample, LabelForgeError
from labelforge.exploitation import score_candidates
from labelforge.features import build_featurizers
from labelforge.lf_core import ABSTAIN, Category
from labelforge.nets import MlpNet


def separable_seed(n=10):
    """One-hot disjoint features: class 0 -> (1,0), class 1 -> (0,1); returns (x, gold)."""
    gold = np.arange(n) % 2
    return np.eye(2)[gold], gold


def test_whm_formula_values():
    assert whm(0.8, 0.5, 1.0) == pytest.approx(2 * 0.8 * 0.5 / 1.3)
    assert whm(0.8, 0.5, 0.0) == pytest.approx(0.8)
    assert whm(0.8, 0.5, 0.1) == pytest.approx(1.01 * 0.4 / (0.008 + 0.5))
    assert whm(0.0, 0.0, 0.0) == 0.0


def test_whm_is_a_mean_and_monotone():
    rng = np.random.default_rng(0)
    for _ in range(500):
        p, c = rng.uniform(0.01, 1.0, size=2)
        beta = rng.uniform(0.0, 3.0)
        value = whm(p, c, beta)
        assert min(p, c) - 1e-12 <= value <= max(p, c) + 1e-12
        # monotone non-decreasing in both arguments
        assert whm(min(p + 0.05, 1.0), c, beta) >= value - 1e-12
        assert whm(p, min(c + 0.05, 1.0), beta) >= value - 1e-12


def test_predict_proba_softmax_of_zeros():
    clf = LinearClassifier(weights=np.zeros((3, 4)), bias=np.zeros(3))
    probs = clf.predict_proba_many(np.ones(4))[0]
    assert np.allclose(probs, 1 / 3)
    assert probs.sum() == pytest.approx(1.0, abs=1e-9)


def test_predict_proba_bias_dominates():
    clf = LinearClassifier(weights=np.zeros((2, 3)), bias=np.array([10.0, 0.0]))
    probs = clf.predict_proba_many(np.zeros(3))[0]
    assert probs[0] > 0.9999
    assert probs[0] == pytest.approx(1 / (1 + math.exp(-10)))


def test_predict_proba_dimension_mismatch():
    clf = LinearClassifier(weights=np.zeros((2, 3)), bias=np.zeros(2))
    with pytest.raises(LabelForgeError, match="expected dim 3, got 4"):
        clf.predict_proba_many(np.zeros(4))


def reference_softmax(z):
    """Softmax from numpy's own reductions over the class axis."""
    e = np.exp(z - z.max(axis=-1, keepdims=True))
    return e / e.sum(axis=-1, keepdims=True)


def reference_fit_logistic(x, y, num_classes, epochs=300, lr=0.5, l2=1e-3):
    """One candidate at a time on 2-D arrays: the trainer before stacking."""
    n, d = x.shape
    w = np.zeros((num_classes, d))
    b = np.zeros(num_classes)
    onehot = np.zeros((n, num_classes))
    onehot[np.arange(n), y] = 1.0
    for _ in range(epochs):
        probs = reference_softmax(x @ w.T + b)
        err = (probs - onehot) / n
        w -= lr * (err.T @ x + l2 * w)
        b -= lr * err.sum(axis=0)
    return w, b


def fit_one(x, y, num_classes, **kw):
    """``fit_logistic`` as the k = 1 stack."""
    return fit_logistic(x[None], y[None], num_classes, **kw)[0]


@pytest.mark.parametrize("k", [1, 3, 8])
@pytest.mark.parametrize("num_classes", [2, 3, 5, 8, 9])  # 8 and up: numpy's pairwise class sum
# small shapes; the bench's wide tables (seed-heavy's 320 and 400 rows, separable-loop's
# 32); and widths where a class-major error array changes the backward product's bits
@pytest.mark.parametrize("n,d", [(32, 21), (320, 64), (320, 374), (400, 378), (32, 374),
                                 (64, 2), (64, 9), (64, 378)])
def test_stacked_fit_equals_per_candidate_reference(k, num_classes, n, d):
    rng = np.random.default_rng(100 * k + 10 * num_classes + n)
    x = np.abs(rng.normal(size=(k, n, d)))
    x /= np.linalg.norm(x, axis=2, keepdims=True)
    y = rng.integers(0, num_classes, size=(k, n))
    l2 = [1e-3 * (i + 1) for i in range(k)]
    fitted = fit_logistic(x, y, num_classes, epochs=80, l2=l2)
    assert len(fitted) == k
    for i, clf in enumerate(fitted):
        w, b = reference_fit_logistic(x[i], y[i], num_classes, epochs=80, l2=l2[i])
        assert np.array_equal(clf.weights, w)
        assert np.array_equal(clf.bias, b)


@pytest.mark.parametrize("shape", [(1, 320, 2), (4, 320, 2), (8, 32, 2), (1, 400, 5),
                                   (3, 17, 3), (1, 1, 2)])
def test_bias_step_accumulate_adds_rows_in_order(shape):
    """``fit_logistic``'s bias step: the last row of the running sum over axis 1
    equals adding the rows one by one, on magnitudes from 1e-16 to 1e16."""
    rng = np.random.default_rng(sum(shape))
    err = rng.normal(size=shape) * 10.0 ** rng.integers(-16, 17, size=shape)
    in_order = np.zeros((shape[0], 1, shape[2]))
    for row in range(shape[1]):
        in_order[:, 0] += err[:, row]
    assert np.array_equal(np.add.accumulate(err, axis=1)[:, -1:], in_order)


def test_train_on_separable_data_fits_perfectly():
    x, gold = separable_seed(10)
    clf = fit_one(x, gold, 2, epochs=200)
    probs = clf.predict_proba_many(x)
    assert (probs.argmax(axis=1) == gold).all()


def logistic_objective(clf, x, y, l2=1e-3):
    """Cross-entropy + 0.5 * l2 * ||W||^2 of the returned weights (bias unpenalized)."""
    probs = clf.predict_proba_many(x)
    ce = -np.mean(np.log(probs[np.arange(len(y)), y] + 1e-12))
    return ce + 0.5 * l2 * float(np.sum(clf.weights * clf.weights))


def test_training_loss_monotone_nonincreasing():
    # zero-init full-batch GD is deterministic, so the k-epoch fit is the k-th iterate
    rng = np.random.default_rng(3)
    for trial in range(5):
        n, d, c = 30, 8, 3
        x = rng.normal(size=(n, d))
        x /= np.linalg.norm(x, axis=1, keepdims=True)
        y = rng.integers(0, c, size=n)
        losses = [logistic_objective(fit_one(x, y, c, epochs=k), x, y) for k in range(121)]
        assert (np.diff(losses) <= 1e-9).all()
        assert losses[-1] < losses[0]


def test_training_deterministic():
    x, gold = separable_seed(8)
    idx = draw_subsample(gold, 6, rng_seed=5)
    assert np.array_equal(idx, draw_subsample(gold, 6, rng_seed=5))
    a = fit_one(x[idx], gold[idx], 2)
    b = fit_one(x[idx], gold[idx], 2)
    assert np.array_equal(a.weights, b.weights)
    ds = toy_dataset()
    cfg = PipelineConfig(base_seed=5)
    cfg.candidate_training["semantic_head_widths"] = [16]
    (a,), _ = synthesize(Category.SEMANTIC, ds, 1, cfg)
    (b,), _ = synthesize(Category.SEMANTIC, ds, 1, cfg)
    assert np.array_equal(a.rule.classifier.w1, b.rule.classifier.w1)
    assert np.array_equal(a.rule.classifier.w2, b.rule.classifier.w2)
    assert a.rule.trained_on == b.rule.trained_on
    assert a.rule.trained_on["head_width"] == 16


def test_full_subsample_uses_whole_seed():
    _, gold = separable_seed(8)
    assert draw_subsample(gold, 8, rng_seed=1).tolist() == list(range(8))


def test_degenerate_subsample():
    with pytest.raises(DegenerateSubsample):
        draw_subsample(np.zeros(6, dtype=int), 4, rng_seed=0)


def test_threshold_grid_covers_unit_interval():
    grid = threshold_grid(0.01)
    assert len(grid) == 101
    assert grid[0] == 0.0
    assert grid[-1] >= 1.0 - 1e-12
    odd = threshold_grid(0.03)
    assert odd[-1] == 1.0


NO_POOL = np.zeros((0, 2))


def calibrate_probs(seed_probs, gold, pool_probs, beta, grid_step=0.01):
    """``calibrate_threshold`` on the ``class_top`` of seed and pool probability tables."""
    seed_top, seed_cls = class_top(np.asarray(seed_probs))
    return calibrate_threshold(seed_top, seed_cls == np.asarray(gold), class_top(pool_probs)[0],
                               beta, grid_step)


def test_calibrate_flat_curve_picks_smallest_omega():
    # all max-probs 0.9 and perfect precision -> best omega 0
    omega = calibrate_probs(np.array([[0.9, 0.1]] * 4), [0] * 4, NO_POOL,
                            beta=0.1, grid_step=0.01)
    assert omega == 0.0


def test_calibrate_two_point_example():
    # max-probs ~0.6 (wrong) and 0.9 (right): raising omega past the wrong
    # prediction lifts precision 0.5 -> 1.0 while halving coverage, and
    # WHM(1.0, 0.5, 0.1) > WHM(0.5, 1.0, 0.1), so best omega lands in (0.6, 0.9]
    probs = np.array([[0.605, 0.395], [0.9, 0.1]])  # predicted 0 twice
    gold = [1, 0]  # the first prediction is wrong, the second right
    omega = calibrate_probs(probs, gold, NO_POOL, beta=0.1, grid_step=0.01)
    assert 0.6 < omega <= 0.9
    assert whm(1.0, 0.5, 0.1) > whm(0.5, 1.0, 0.1)


def seed_precision(probs, gold, omega):
    """Exact share of the rows voting above omega whose argmax is the gold class (0 if none)."""
    voted = probs.max(axis=1) > omega
    right = (probs.argmax(axis=1) == gold)[voted]
    return Fraction(int(right.sum()), max(len(right), 1))


def test_calibrate_beta_zero_maximizes_precision():
    probs, gold = np.array([[0.605, 0.395], [0.9, 0.1]]), np.array([1, 0])
    omega = calibrate_probs(probs, gold, NO_POOL, beta=0.0, grid_step=0.01)
    assert seed_precision(probs, gold, omega) == max(
        seed_precision(probs, gold, w) for w in threshold_grid(0.01)
    )
    assert 0.6 < omega


def brute_force_best_omega(max_probs, correct, cov_probs, beta, grid_step):
    """Independent argmax over the same grid, smallest-omega tie rule."""
    grid = [k * grid_step for k in range(int(math.floor(1 / grid_step + 1e-9)) + 1)]
    if grid[-1] < 1.0 - 1e-12:
        grid.append(1.0)
    best, best_score = None, -1.0
    for omega in grid:
        voted = [m > omega for m in max_probs]
        n_voted = sum(voted)
        prec = sum(c for c, v in zip(correct, voted) if v) / (n_voted + 1e-9)
        cov = sum(1 for m in cov_probs if m > omega) / len(cov_probs)
        denom = beta * beta * prec + cov
        score = (1 + beta * beta) * prec * cov / denom if denom else 0.0
        if score > best_score + 1e-15:
            best, best_score = omega, score
    return best


def test_calibration_matches_brute_force_oracle():
    rng = np.random.default_rng(11)
    for trial in range(30):
        n = int(rng.integers(3, 20))
        probs = []
        gold = []
        for i in range(n):
            p = rng.uniform(0.34, 0.99)
            probs.append([p, 1 - p])
            gold.append(int(rng.integers(0, 2)))
        beta = float(rng.choice([0.0, 0.1, 0.5, 1.0]))
        omega = calibrate_probs(np.array(probs), gold, NO_POOL, beta=beta, grid_step=0.01)
        max_probs = [max(p) for p in probs]
        correct = [int(np.argmax(p)) == g for p, g in zip(probs, gold)]
        expected = brute_force_best_omega(max_probs, correct, max_probs, beta, 0.01)
        assert omega == pytest.approx(expected)


def test_seed_of_50_takes_coverage_from_the_seed_even_with_a_pool():
    # half the seed right at 0.9, half wrong at 0.605; every pool max is 0.55,
    # so pool coverage would keep omega 0, seed coverage drops the wrong half
    seed_probs = np.array([[0.9, 0.1]] * 25 + [[0.605, 0.395]] * 25)
    gold = [0] * 25 + [1] * 25
    pool_probs = np.array([[0.55, 0.45]] * 40)
    max_seed = seed_probs.max(axis=1).tolist()
    max_pool = pool_probs.max(axis=1).tolist()
    correct = [g == 0 for g in gold]
    by_seed = brute_force_best_omega(max_seed, correct, max_seed, 0.1, 0.01)
    by_pool = brute_force_best_omega(max_seed, correct, max_pool, 0.1, 0.01)
    assert 0.6 < by_seed < 0.9 and by_pool == 0.0
    omega = calibrate_probs(seed_probs, gold, pool_probs, beta=0.1, grid_step=0.01)
    assert omega == pytest.approx(by_seed)
    # one seed row fewer and the pool decides
    small = calibrate_probs(seed_probs[1:], gold[1:], pool_probs, beta=0.1, grid_step=0.01)
    assert small == brute_force_best_omega(
        max_seed[1:], correct[1:], max_pool, 0.1, 0.01
    ) == 0.0


def test_coverage_is_nonincreasing_in_omega():
    rng = np.random.default_rng(5)
    for _ in range(20):
        n = int(rng.integers(4, 30))
        probs = np.array([[p, 1 - p] for p in rng.uniform(0.3, 1.0, size=n)])
        covs = [(threshold_votes(*class_top(probs), w) != ABSTAIN).sum()
                for w in threshold_grid(0.05)]
        assert all(a >= b for a, b in zip(covs, covs[1:]))


def test_describe_needs_the_classifier_training_record():
    featurizer = SimpleNamespace(describe=lambda: {"kind": "index"})
    with pytest.raises(TypeError):
        CalibratedClassifierLF(classifier=SimpleNamespace(), featurizer=featurizer)
    clf_lf = CalibratedClassifierLF(classifier=SimpleNamespace(), featurizer=featurizer,
                                    trained_on={"indices": [0]})
    assert clf_lf.describe()["trained_on"] == {"indices": [0]}


def test_calibrated_lf_thresholding():
    probs = np.array([[0.55, 0.45], [0.9, 0.1], [0.4, 0.6]])
    assert threshold_votes(*class_top(probs), 0.6).tolist() == [ABSTAIN, 0, ABSTAIN]
    assert threshold_votes(*class_top(probs), 0.0).tolist() == [0, 0, 1]


def reference_threshold_votes(probs, omega):
    votes = probs.argmax(axis=1).astype(np.int8)
    votes[probs.max(axis=1) <= omega] = ABSTAIN
    return votes


def reference_calibrate_threshold(seed_probs, gold, pool_probs, beta, grid_step):
    """The threshold search on numpy's row maxima, as calibrate_threshold ran it before."""
    omegas = np.array(threshold_grid(grid_step))

    def above(values):
        return len(values) - np.searchsorted(np.sort(values), omegas, side="right")

    max_seed = seed_probs.max(axis=1)
    correct = seed_probs.argmax(axis=1) == np.asarray(gold)
    max_cov = pool_probs.max(axis=1) if len(seed_probs) < 50 and len(pool_probs) else max_seed
    prec = above(max_seed[correct]) / (above(max_seed) + 1e-9)
    cov = above(max_cov) / len(max_cov)
    best_omega, best_score = 0.0, -1.0
    for omega, score in zip(omegas.tolist(), whm(prec, cov, beta).tolist()):
        if score > best_score + 1e-15:
            best_score, best_omega = score, omega
    return best_omega


@pytest.mark.parametrize("num_classes", [2, 3, 9])
def test_thresholding_a_4000_row_pool_equals_numpy_row_maxima(num_classes):
    rng = np.random.default_rng(num_classes)
    logits = rng.normal(scale=2.0, size=(4000, num_classes))
    logits[::7] = logits[::7, :1]  # tied classes in every seventh row
    pool_probs = reference_softmax(logits)
    seed_probs = reference_softmax(rng.normal(scale=2.0, size=(40, num_classes)))
    gold = rng.integers(0, num_classes, size=40)
    for omega in threshold_grid(0.05) + [1.0 / num_classes, float(pool_probs[0].max())]:
        assert np.array_equal(threshold_votes(*class_top(pool_probs), omega),
                              reference_threshold_votes(pool_probs, omega))
    for rows in (40, 80):  # coverage from the pool below 50 seed rows, from the seed above
        seed, seed_gold = np.resize(seed_probs, (rows, num_classes)), np.resize(gold, rows)
        for beta in (0.0, 0.1, 1.0):
            omega = calibrate_probs(seed, seed_gold, pool_probs, beta)
            assert omega == reference_calibrate_threshold(seed, seed_gold, pool_probs, beta, 0.01)


def toy_dataset(n_unlabeled=40, n_seed=12):
    labels = LabelSpace(("pos", "neg"))
    rng = np.random.default_rng(0)
    unlabeled, seed = [], []
    for i in range(n_unlabeled):
        cls = i % 2
        text = "sun warm bright" if cls == 0 else "rain cold dark"
        unlabeled.append(Document(id=f"u{i}", text=text + f" fill{rng.integers(3)}"))
    for i in range(n_seed):
        cls = i % 2
        text = "sun warm bright" if cls == 0 else "rain cold dark"
        seed.append(LabeledExample(doc=Document(id=f"s{i}", text=text), gold=cls))
    return Dataset(labels=labels, unlabeled=unlabeled, seed=seed)


def synthesize(category, ds, count, cfg, round_index=0):
    """``synthesize_candidates`` of ``count`` candidates per round over the category's
    featurizers from ``build_featurizers``."""
    cfg = dataclasses.replace(cfg, candidates_per_round=count)
    structural, semantic, _ = build_featurizers(ds, cfg)
    featurizers = structural if category == Category.STRUCTURAL else semantic
    return synthesize_candidates(category, ds, cfg, featurizers, round_index)


def test_synthesize_candidates_deterministic_and_seeded():
    ds = toy_dataset()
    cfg = PipelineConfig(base_seed=7)
    lfs, skips = synthesize(Category.STRUCTURAL, ds, 3, cfg)
    assert [lf.id for lf in lfs] == [
        "structural-s00008", "structural-s00009", "structural-s00010",
    ]
    assert skips == []
    again, _ = synthesize(Category.STRUCTURAL, ds, 3, cfg)
    score_candidates(lfs, ds, cfg)
    score_candidates(again, ds, cfg)
    assert [lf.est_accuracy for lf in again] == [lf.est_accuracy for lf in lfs]
    assert [lf.votes.tolist() for lf in again] == [lf.votes.tolist() for lf in lfs]
    assert [lf.rule.omega for lf in again] == [lf.rule.omega for lf in lfs]
    later, _ = synthesize(Category.STRUCTURAL, ds, 3, cfg, round_index=2)
    assert [lf.id for lf in later] == [
        "structural-s02008", "structural-s02009", "structural-s02010",
    ]


def test_synthesize_on_separable_data_estimates_perfect():
    ds = toy_dataset()
    cfg = PipelineConfig(base_seed=1)
    lfs, _ = synthesize(Category.STRUCTURAL, ds, 1, cfg)
    assert len(lfs) == 1
    score_candidates(lfs, ds, cfg)
    assert lfs[0].est_accuracy == pytest.approx(1.0, abs=1e-6)


def test_synthesize_semantic_with_mlp_head():
    ds = toy_dataset()
    cfg = PipelineConfig(base_seed=1)
    cfg.candidate_training["semantic_head_widths"] = [0, 16]
    lfs, _ = synthesize(Category.SEMANTIC, ds, 2, cfg)
    assert len(lfs) == 2
    assert lfs[0].meta["head_width"] == 0
    assert lfs[1].meta["head_width"] == 16
    assert all(lf.est_accuracy is None and lf.votes is None for lf in lfs)  # scored later
    score_candidates(lfs, ds, cfg)
    assert all(lf.est_accuracy is not None for lf in lfs)
    assert all(len(lf.votes) == len(ds.unlabeled) for lf in lfs)


def test_synthesize_all_degenerate_reports_skips():
    labels = LabelSpace(("pos", "neg"))
    seed = [LabeledExample(doc=Document(id=f"s{i}", text="same text"), gold=0) for i in range(6)]
    ds = Dataset(labels=labels, unlabeled=[Document(id="u0", text="same text")], seed=seed)
    cfg = PipelineConfig(base_seed=0)
    lfs, skips = synthesize(Category.STRUCTURAL, ds, 3, cfg, round_index=1)
    assert lfs == []
    assert len(skips) == 3
    assert all(s["category"] == "structural" and s["round"] == 1 for s in skips)
    assert [s["rng_seed"] for s in skips] == [1001, 1002, 1003]


def test_abstain_disabled_zeroes_omega():
    ds = toy_dataset()
    cfg = PipelineConfig(base_seed=2, abstain_enabled=False)
    lfs, _ = synthesize(Category.SEMANTIC, ds, 2, cfg)
    score_candidates(lfs, ds, cfg)
    assert all(lf.describe()["threshold"] == 0.0 for lf in lfs)
    assert all(lf.rule.omega == 0.0 for lf in lfs)
    assert all(ABSTAIN not in lf.votes for lf in lfs)


def test_each_candidate_predicts_once_per_split(monkeypatch):
    """One scoring call makes one pass over each pool table, for all of its featurizer's
    logistic heads; each logistic head predicts the seed on its own, and each MLP head
    predicts once per split."""
    ds = toy_dataset()
    cfg = PipelineConfig(base_seed=3)
    cfg.candidate_training["semantic_head_widths"] = [0, 16]
    products = []  # (table, classifiers) per top_stack or LinearClassifier product
    real_stack, real_linear = candidates.top_stack, LinearClassifier.predict_proba_many

    def counting_stack(classifiers, x):
        products.append((x, list(classifiers)))
        return real_stack(classifiers, x)

    def counting_linear(self, x):
        products.append((x, [self]))
        return real_linear(self, x)

    monkeypatch.setattr(exploitation, "top_stack", counting_stack)
    monkeypatch.setattr(LinearClassifier, "predict_proba_many", counting_linear)
    mlp_rows = {}
    real_mlp = MlpNet.predict_proba_many

    def counting_mlp(self, x):
        mlp_rows.setdefault(id(self), []).append(len(x))
        return real_mlp(self, x)

    monkeypatch.setattr(MlpNet, "predict_proba_many", counting_mlp)
    shared = 0
    for category in (Category.STRUCTURAL, Category.SEMANTIC):
        lfs, _ = synthesize(category, ds, 6, cfg)
        products.clear()
        score_candidates(lfs, ds, cfg)
        heads = [lf for lf in lfs if isinstance(lf.rule.classifier, LinearClassifier)]
        tables = {id(lf.rule.featurizer): lf.rule.featurizer for lf in heads}.values()
        assert len(products) == len(tables) + len(heads)
        for featurizer in tables:
            group = [lf.rule.classifier for lf in heads if lf.rule.featurizer is featurizer]
            pool_products = [clfs for x, clfs in products if x is featurizer.pool]
            assert len(pool_products) == 1
            assert [id(c) for c in pool_products[0]] == [id(c) for c in group]
            shared += len(group) > 1
        for lf in heads:
            seed_products = [clfs for x, clfs in products if x is lf.rule.featurizer.seed
                             and any(c is lf.rule.classifier for c in clfs)]
            assert len(seed_products) == 1 and len(seed_products[0]) == 1
        for lf in lfs:
            if isinstance(lf.rule.classifier, MlpNet):
                assert sorted(mlp_rows[id(lf.rule.classifier)]) == [len(ds.seed), len(ds.unlabeled)]
            assert lf.describe()["threshold"] == lf.rule.omega
    assert shared >= 2 and len(mlp_rows) >= 2


def reference_synthesize(category, ds, cfg, featurizers):
    """Candidate by candidate, each logistic head through the 2-D reference trainer."""
    training = cfg.candidate_training
    gold = np.array([ex.gold for ex in ds.seed])
    num_classes = ds.labels.num_classes
    made, skips = [], []
    for k in range(1, cfg.candidates_per_round + 1):
        rng_seed = cfg.base_seed + k
        fraction = training["subsample_fractions"][(k - 1) % len(training["subsample_fractions"])]
        size = min(max(int(math.ceil(fraction * len(gold))), 1), len(gold))
        featurizer = featurizers[(k - 1) % len(featurizers)]
        if category == Category.STRUCTURAL:
            l2, width = training["regularizations"][(k - 1) % len(training["regularizations"])], 0
        else:
            widths = training["semantic_head_widths"]
            l2, width = training["l2"], widths[(k - 1) % len(widths)]
        try:
            idx = draw_subsample(gold, size, rng_seed)
        except DegenerateSubsample as exc:
            skips.append({"category": category.value, "round": 0, "candidate": k,
                          "rng_seed": rng_seed, "reason": str(exc)})
            continue
        x, y = featurizer.seed[idx], gold[idx]
        if width == 0:
            weights = reference_fit_logistic(
                x, y, num_classes, training["epochs"], training["lr"], l2
            )
        else:
            net = MlpNet(x.shape[1], width, num_classes, rng_seed=rng_seed)
            net.fit(x, np.eye(num_classes)[y], epochs=training["mlp_epochs"],
                    lr=training["mlp_lr"], l2=l2, shuffle_seed=rng_seed)
            weights = (net.w1, net.b1, net.w2, net.b2)
        trained_on = {"indices": idx.tolist(), "rng_seed": rng_seed, "head_width": width}
        made.append((f"{category.value}-s{rng_seed:05d}", trained_on, weights, featurizer))
    return made, skips


@pytest.mark.parametrize("stack_bytes", [candidates.STACK_BYTES, 1])
def test_synthesize_equals_per_candidate_reference(monkeypatch, stack_bytes):
    # two structural featurizers ((1, 1) and (1, 2) n-grams); every third
    # candidate draws a 1-row subsample, which is degenerate, so candidate 3
    # is skipped between candidates 1 and 5 of featurizer 0's group
    monkeypatch.setattr(candidates, "STACK_BYTES", stack_bytes)
    ds = toy_dataset(n_seed=16)
    cfg = PipelineConfig(base_seed=4, candidates_per_round=12)
    cfg.candidate_training.update(
        epochs=60, subsample_fractions=[0.75, 0.75, 0.01], semantic_head_widths=[0, 8, 0],
    )
    structural, semantic, _ = build_featurizers(ds, cfg)
    assert len(structural) == 2
    for category, featurizers in ((Category.STRUCTURAL, structural), (Category.SEMANTIC, semantic)):
        lfs, skips = synthesize_candidates(category, ds, cfg, featurizers)
        want, want_skips = reference_synthesize(category, ds, cfg, featurizers)
        assert skips == want_skips
        assert [s["candidate"] for s in skips] == [3, 6, 9, 12]
        assert [lf.id for lf in lfs] == [w[0] for w in want]
        for lf, (_, trained_on, weights, featurizer) in zip(lfs, want):
            clf = lf.rule.classifier
            assert lf.rule.trained_on == trained_on
            assert lf.rule.featurizer is featurizer
            if isinstance(clf, LinearClassifier):
                got = (clf.weights, clf.bias)
            else:
                got = (clf.w1, clf.b1, clf.w2, clf.b2)
            assert len(got) == len(weights)
            assert all(np.array_equal(g, w) for g, w in zip(got, weights))
