"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Quantitative targets come from the construction of the bundled synthetic
corpora (a single marker-token rule is perfect by design on the separable
corpus); comparisons against independent brute-force oracles pin the formula
paths. The noisy-corpus experiments follow the 5-seed averaging protocol.
"""

import csv
import json
import math
import os
import time

import numpy as np
import pytest

from labelforge.candidates import (
    LinearClassifier,
    calibrate_threshold,
    class_top,
    whm,
)
from labelforge.cli import main
from labelforge.config import PipelineConfig
from labelforge.corpus import LabelSpace, save_dataset
from labelforge.exploitation import inter_filter, intra_filter
from labelforge.label_model import (
    aggregate,
    fit_dawid_skene,
)
from labelforge.lf_core import ABSTAIN, Category, LabelFunction, LabelMatrix
from labelforge.metrics import label_quality, weighted_f1
from labelforge.pipeline import run_pipeline
from labelforge.synth import (
    make_noisy_corpus,
    make_separable_corpus,
    noisy_experiment_overrides,
)

ACCEPTANCE_SEEDS = (0, 1, 2, 3, 4)
MV = {"kind": "majority_vote"}


def report(criterion, passed, detail=""):
    status = "PASS" if passed else "FAIL"
    print(f"[{status}] criterion {criterion}: {detail}")
    assert passed, f"criterion {criterion} failed: {detail}"


def scaled_default_config(**kw):
    """The default configuration with K_c scaled down to 5 per category."""
    base = dict(k_per_category={"surface": 5, "structural": 5, "semantic": 5})
    base.update(kw)
    return PipelineConfig(**base)


def noisy_config(**kw):
    return PipelineConfig(**noisy_experiment_overrides(), **kw)


# --- criterion 1: formula oracles -------------------------------------------


def test_criterion_1_formula_oracles():
    start = time.perf_counter()
    rng = np.random.default_rng(20240801)
    three_classes = LabelSpace(("a", "b", "c"))

    class Stub:
        def __init__(self, acc):
            self.est_accuracy = acc

    for _ in range(1000):
        p, c = rng.uniform(0, 1, size=2)
        beta = float(rng.uniform(0, 2))
        mine = whm(float(p), float(c), beta)
        denom = beta * beta / c + 1.0 / p if p > 0 and c > 0 else None
        oracle = (1 + beta * beta) / denom if denom else (
            0.0 if beta * beta * p + c == 0 else (1 + beta * beta) * p * c / (beta * beta * p + c)
        )
        assert abs(mine - oracle) < 1e-9

        accs = rng.uniform(0, 1, size=int(rng.integers(1, 9)))
        alpha = float(rng.uniform(0, 1))
        pool = [LabelFunction(id=f"l{i}", category=Category.SURFACE, rule=None,
                              est_accuracy=float(a)) for i, a in enumerate(accs)]
        _, _, theta = intra_filter(pool, alpha)
        assert abs(theta - alpha * float(sorted(accs)[-1])) < 1e-9

        thetas = {cat: float(t) for cat, t in zip(
            (Category.SURFACE, Category.STRUCTURAL, Category.SEMANTIC),
            rng.uniform(0, 1, size=3))}
        _, _, theta_inter = inter_filter({c_: [] for c_ in thetas}, thetas)
        assert abs(theta_inter - 0.5 * max(thetas.values())) < 1e-9

        n, m = int(rng.integers(1, 12)), int(rng.integers(1, 5))
        entries = rng.integers(-1, 3, size=(n, m))
        matrix = LabelMatrix(entries=entries, row_ids=[f"d{i}" for i in range(n)],
                             col_ids=[f"c{j}" for j in range(m)])
        oracle_cov = sum(
            1 for i in range(n) if any(entries[i, j] != ABSTAIN for j in range(m))
        ) / n
        _, covered = aggregate(matrix, MV, three_classes, None)
        assert abs(float(np.mean(covered)) - oracle_cov) < 1e-9

        size = int(rng.integers(1, 12))
        num_classes = int(rng.integers(2, 5))
        gold = rng.integers(0, num_classes, size=size).tolist()
        pred = rng.integers(0, num_classes, size=size).tolist()
        per_class, weighted = weighted_f1(pred, gold, num_classes)
        oracle_weighted = 0.0
        for cls in range(num_classes):
            tp = sum(1 for a, b in zip(pred, gold) if a == cls and b == cls)
            fp = sum(1 for a, b in zip(pred, gold) if a == cls and b != cls)
            fn = sum(1 for a, b in zip(pred, gold) if a != cls and b == cls)
            prec = tp / (tp + fp) if tp + fp else 0.0
            rec = tp / (tp + fn) if tp + fn else 0.0
            f1 = 2 * prec * rec / (prec + rec) if prec + rec else 0.0
            assert abs(per_class[cls] - f1) < 1e-9
            oracle_weighted += (gold.count(cls) / size) * f1
        assert abs(weighted - oracle_weighted) < 1e-9

        cov_v, wf_v = rng.uniform(0, 1, size=2)
        assert abs(label_quality(float(cov_v), float(wf_v)) - cov_v * wf_v) < 1e-9

    elapsed = time.perf_counter() - start
    report(1, elapsed < 5.0, f"1000 seeded inputs matched all oracles in {elapsed:.2f}s")


# --- criterion 2: calibration oracle -----------------------------------------


def _brute_force_omega(max_probs, correct, cov_probs, beta, grid_step):
    steps = int(math.floor(1 / grid_step + 1e-9))
    grid = [k * grid_step for k in range(steps + 1)]
    if grid[-1] < 1.0 - 1e-12:
        grid.append(1.0)
    best, best_score = None, -1.0
    for omega in grid:
        voted = [m > omega for m in max_probs]
        prec = sum(c for c, v in zip(correct, voted) if v) / (sum(voted) + 1e-9)
        cov = sum(1 for m in cov_probs if m > omega) / len(cov_probs)
        denom = beta * beta * prec + cov
        score = (1 + beta * beta) * prec * cov / denom if denom else 0.0
        if score > best_score + 1e-15:
            best, best_score = omega, score
    return best


def test_criterion_2_calibration_oracle():
    start = time.perf_counter()
    rng = np.random.default_rng(7)
    for trial in range(100):
        n_seed = int(rng.integers(3, 30))
        n_unlabeled = int(rng.integers(0, 40))
        dim = int(rng.integers(2, 6))
        num_classes = int(rng.integers(2, 4))
        clf = LinearClassifier(
            weights=rng.normal(scale=2.0, size=(num_classes, dim)),
            bias=rng.normal(size=num_classes),
        )
        x_seed, gold = np.zeros((n_seed, dim)), []
        for i in range(n_seed):
            x_seed[i] = rng.normal(size=dim)
            gold.append(int(rng.integers(0, num_classes)))
        x_pool = np.array([rng.normal(size=dim) for _ in range(n_unlabeled)]).reshape(-1, dim)
        beta = float(rng.choice([0.0, 0.05, 0.1, 0.3, 1.0]))
        seed_probs = clf.predict_proba_many(x_seed)
        pool_probs = clf.predict_proba_many(x_pool)
        seed_top, seed_cls = class_top(seed_probs)
        omega = calibrate_threshold(seed_top, seed_cls == np.array(gold), class_top(pool_probs)[0],
                                    beta=beta, grid_step=0.01)

        max_probs = seed_probs.max(axis=1).tolist()
        correct = (seed_probs.argmax(axis=1) == np.array(gold)).tolist()
        if n_seed < 50 and n_unlabeled:
            cov_probs = pool_probs.max(axis=1).tolist()
        else:
            cov_probs = max_probs
        expected = _brute_force_omega(max_probs, correct, cov_probs, beta, 0.01)
        assert omega == pytest.approx(expected), f"trial {trial}"
    elapsed = time.perf_counter() - start
    report(2, elapsed < 30.0, f"100 random classifiers matched argmax oracle in {elapsed:.2f}s")


# --- criterion 3: Dawid-Skene -------------------------------------------------


def _matrix(rows):
    entries = np.asarray(rows, dtype=int)
    return LabelMatrix(entries=entries, row_ids=[f"d{i}" for i in range(len(entries))],
                       col_ids=[f"l{j}" for j in range(entries.shape[1])])


def test_criterion_3_dawid_skene():
    start = time.perf_counter()
    # (a) log-likelihood non-decreasing on 50 seeded random matrices
    rng = np.random.default_rng(99)
    checked = 0
    while checked < 50:
        rows = rng.integers(-1, 3, size=(int(rng.integers(10, 40)), int(rng.integers(2, 6))))
        if not (rows != ABSTAIN).any():
            continue
        num_classes = 3
        model = fit_dawid_skene(_matrix(rows.tolist()), num_classes, max_iter=30, tol=0.0)
        history = model.log_likelihood_history
        assert all(b >= a - 1e-9 for a, b in zip(history, history[1:]))
        checked += 1

    # (b) three truthful LFs on a 20-doc set: identity confusions, gold posteriors
    rng = np.random.default_rng(5)
    gold = rng.integers(0, 2, size=20)
    rows = np.stack([gold, gold, gold], axis=1)
    model = fit_dawid_skene(_matrix(rows.tolist()), 2, max_iter=100, tol=1e-8)
    for j in range(3):
        assert np.abs(model.confusion[j] - np.eye(2)).max() < 1e-3
    assert (model.posteriors.argmax(axis=1) == gold).all()

    # (c) heterogeneous accuracies {0.9, 0.9, 0.55}: DS >= MV in >= 18 of 20 seeds
    labels = LabelSpace(("a", "b"))
    wins = 0
    for seed in range(20):
        srng = np.random.default_rng(1000 + seed)
        g = srng.integers(0, 2, size=500)
        cols = []
        for acc in (0.9, 0.9, 0.55):
            votes = g.copy()
            flip = srng.random(500) >= acc
            votes[flip] = 1 - votes[flip]
            votes[srng.random(500) >= 0.7] = ABSTAIN
            cols.append(votes)
        m = _matrix(np.stack(cols, axis=1).tolist())
        mv_dists, covered = aggregate(m, MV, labels, None)
        ds_dists, _ = aggregate(m, {"kind": "dawid_skene"}, labels, None)
        mv = mv_dists.argmax(axis=1)
        ds = ds_dists.argmax(axis=1)
        if (ds[covered] == g[covered]).mean() >= (mv[covered] == g[covered]).mean():
            wins += 1
    elapsed = time.perf_counter() - start
    report(3, wins >= 18 and elapsed < 60.0,
           f"LL monotone on 50 matrices; identity recovered; DS>=MV in {wins}/20 seeds ({elapsed:.1f}s)")


# --- criterion 4: end-to-end separable pipeline -------------------------------


def test_criterion_4_separable_end_to_end(tmp_path):
    start = time.perf_counter()
    dataset = make_separable_corpus(0)
    summary = run_pipeline(scaled_default_config(), dataset, str(tmp_path / "sep"),
                           dataset_name="separable")
    elapsed = time.perf_counter() - start
    ok = (
        summary["coverage"] >= 0.95
        and summary["label_quality"] >= 0.90
        and summary["e2e_f1"] >= 0.90
        and elapsed < 180.0
    )
    report(4, ok, f"coverage={summary['coverage']:.3f} quality={summary['label_quality']:.3f} "
                  f"e2e={summary['e2e_f1']:.3f} in {elapsed:.1f}s")


# --- criterion 5: abstention improves label quality ---------------------------


def test_criterion_5_abstention(tmp_path):
    start = time.perf_counter()
    on_quality, off_quality, coverages = [], [], []
    for seed in ACCEPTANCE_SEEDS:
        dataset = make_noisy_corpus(100 + seed)
        on = run_pipeline(noisy_config(base_seed=seed), dataset,
                          str(tmp_path / f"on{seed}"), dataset_name="noisy")
        off = run_pipeline(noisy_config(base_seed=seed, abstain_enabled=False), dataset,
                           str(tmp_path / f"off{seed}"), dataset_name="noisy")
        on_quality.append(on["label_quality"])
        off_quality.append(off["label_quality"])
        coverages += [on["coverage"], off["coverage"]]
    mean_on, mean_off = float(np.mean(on_quality)), float(np.mean(off_quality))
    elapsed = time.perf_counter() - start
    ok = mean_on >= mean_off and min(coverages) >= 0.95 and elapsed < 300.0
    report(5, ok, f"mean quality on={mean_on:.4f} off={mean_off:.4f} "
                  f"(gap {mean_on - mean_off:+.4f}), min coverage={min(coverages):.3f}, {elapsed:.0f}s")


# --- criterion 6: alpha sweep shape -------------------------------------------


def test_criterion_6_alpha_sweep(tmp_path):
    start = time.perf_counter()
    means = {}
    for alpha in (0.0, 0.7, 0.9):
        qualities = []
        for seed in ACCEPTANCE_SEEDS:
            dataset = make_noisy_corpus(100 + seed)
            summary = run_pipeline(noisy_config(alpha=alpha, base_seed=seed), dataset,
                                   str(tmp_path / f"a{alpha}_{seed}"), dataset_name="noisy")
            qualities.append(summary["label_quality"])
        means[alpha] = float(np.mean(qualities))

    # termination guard: alpha=1.0 must stop at the round budget, not loop forever
    guard_cfg = noisy_config(alpha=1.0, base_seed=0)
    dataset = make_noisy_corpus(100)
    guard = run_pipeline(guard_cfg, dataset, str(tmp_path / "guard"), dataset_name="noisy")
    guard_fired = guard["rounds"] == guard_cfg.max_rounds
    reports_payload = json.load(open(os.path.join(str(tmp_path / "guard"), "filter_reports.json")))
    shortfall_reported = bool(reports_payload[-1]["shortfall"])

    moderate = 0.5 * (means[0.7] + means[0.9])
    elapsed = time.perf_counter() - start
    ok = moderate > means[0.0] and guard_fired and shortfall_reported and elapsed < 600.0
    report(6, ok, f"mean quality alpha 0={means[0.0]:.4f} 0.7={means[0.7]:.4f} 0.9={means[0.9]:.4f} "
                  f"(moderate-zero gap {moderate - means[0.0]:+.4f}); guard at round "
                  f"{guard['rounds']}/{guard_cfg.max_rounds}, {elapsed:.0f}s")


# --- criterion 7: determinism --------------------------------------------------


def test_criterion_7_determinism(tmp_path):
    start = time.perf_counter()
    data_path = str(tmp_path / "separable.jsonl")
    save_dataset(make_separable_corpus(0), data_path)
    config_path = str(tmp_path / "config.json")
    with open(config_path, "w", encoding="utf-8") as fh:
        json.dump(scaled_default_config().to_json(), fh)

    out_a, out_b = str(tmp_path / "a"), str(tmp_path / "b")
    assert main(["run", "--config", config_path, "--data", data_path, "--out", out_a]) == 0
    assert main(["run", "--config", config_path, "--data", data_path, "--out", out_b]) == 0

    labels_a = open(os.path.join(out_a, "labels.jsonl"), "rb").read()
    labels_b = open(os.path.join(out_b, "labels.jsonl"), "rb").read()
    row_a = list(csv.DictReader(open(os.path.join(out_a, "ledger.csv"))))[0]
    row_b = list(csv.DictReader(open(os.path.join(out_b, "ledger.csv"))))[0]
    metrics_equal = all(
        row_a[k] == row_b[k]
        for k in ("dataset", "coverage", "weighted_f1", "label_quality", "e2e_f1", "config_hash")
    )
    elapsed = time.perf_counter() - start
    ok = labels_a == labels_b and metrics_equal and elapsed < 360.0
    report(7, ok, f"labels byte-identical={labels_a == labels_b}, "
                  f"ledger metrics identical={metrics_equal}, {elapsed:.0f}s")


# --- criterion 8: invariant suite ----------------------------------------------


def test_criterion_8_invariant_suite():
    """200 seeded generations for each core invariant family.

    The per-module test files carry the full invariant coverage; this check
    re-runs the load-bearing ones at the stated generation count.
    """
    start = time.perf_counter()
    rng = np.random.default_rng(888)
    labels = LabelSpace(("a", "b", "c"))

    for _ in range(200):
        # label-model outputs are distributions; MV permutation-invariant
        rows = rng.integers(-1, 3, size=(int(rng.integers(2, 15)), int(rng.integers(1, 5))))
        if not (rows != ABSTAIN).any():
            continue
        m = _matrix(rows.tolist())
        dists, _ = aggregate(m, MV, labels, None)
        for dist in dists:
            assert (dist >= 0).all() and abs(dist.sum() - 1.0) < 1e-9
        perm = rng.permutation(rows.shape[1])
        m2 = _matrix(rows[:, perm].tolist())
        assert np.allclose(dists, aggregate(m2, MV, labels, None)[0])

        # whm mean property and filter monotonicity
        p_v, c_v = rng.uniform(0.01, 1.0, size=2)
        beta = float(rng.uniform(0, 2))
        value = whm(float(p_v), float(c_v), beta)
        assert min(p_v, c_v) - 1e-12 <= value <= max(p_v, c_v) + 1e-12

        accs = rng.uniform(0, 1, size=int(rng.integers(1, 7)))
        pool = [LabelFunction(id=f"l{i}", category=Category.SURFACE, rule=None,
                              est_accuracy=float(a)) for i, a in enumerate(accs)]
        alpha = float(rng.uniform(0, 1))
        kept, removed, theta = intra_filter(pool, alpha)
        assert len(kept) + len(removed) == len(pool)
        assert all(x.est_accuracy >= theta for x in kept)
        assert any(abs(x.est_accuracy - accs.max()) < 1e-12 for x in kept)

    elapsed = time.perf_counter() - start
    report(8, True, f"core invariants held over 200 seeded generations each ({elapsed:.1f}s)")
