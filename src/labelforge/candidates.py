"""Structural and semantic LF candidates: train, calibrate, threshold.

Each candidate is a lightweight probabilistic classifier trained on a random
seed subsample, turned into a label function by a confidence threshold. The
threshold is picked on a grid by maximizing the weighted harmonic mean of
precision (on the seed) and coverage, with beta weighting precision, once
``exploitation.score_candidates`` has each seed and pool row's ``class_top``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .corpus import Dataset
from .errors import DegenerateSubsample, LabelForgeError
from .features import table_blocks
from .lf_core import ABSTAIN, EPS, Category, LabelFunction
from .nets import MlpNet, class_major_sum, class_max, softmax

# Largest stacked x one fit_logistic call trains on. A stack that outgrows the
# L2 cache (2 MiB where measured) trains slower than its candidates one by one.
STACK_BYTES = 1 << 20


@dataclass
class LinearClassifier:
    """Multinomial logistic regression fit by full-batch gradient descent."""

    weights: np.ndarray  # C x d
    bias: np.ndarray  # C

    def predict_proba_many(self, x: np.ndarray) -> np.ndarray:
        x = np.atleast_2d(x)
        if x.shape[1] != self.weights.shape[1]:
            raise LabelForgeError(f"expected dim {self.weights.shape[1]}, got {x.shape[1]}")
        return softmax(x @ self.weights.T + self.bias)


def class_top(probs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(top, cls) of class probabilities: each row's maximum and its argmax as int8."""
    return class_max(probs)[..., 0], probs.argmax(axis=-1).astype(np.int8)


def top_stack(classifiers: list[LinearClassifier], table) -> tuple[np.ndarray, np.ndarray]:
    """(k, n) ``class_top`` tables of k classifiers over a row table's n rows, in one pass.

    Each ``features.table_blocks`` block of the table, dense or ``SparseRows``,
    gets one product for all k and its softmax is reduced at once, so no
    probability table of the whole pool is ever made.
    """
    w, b = np.concatenate([c.weights for c in classifiers]), np.stack([c.bias for c in classifiers])
    top, cls = np.empty((len(b), len(table))), np.empty((len(b), len(table)), np.int8)
    for lo, hi, rows in table_blocks(table):
        z = (rows @ w.T).reshape(hi - lo, *b.shape)
        z += b
        top[:, lo:hi].T[...], cls[:, lo:hi].T[...] = class_top(softmax(z, out=z))
    return top, cls


def fit_logistic(
    x: np.ndarray,
    y: np.ndarray,
    num_classes: int,
    epochs: int = 300,
    lr: float = 0.5,
    l2: float | list[float] = 1e-3,
) -> list[LinearClassifier]:
    """Train k classifiers at once: x is (k, n, d), y (k, n), l2 a scalar or k values.

    Zero-initialized full-batch GD on cross-entropy + L2 (bias unpenalized).
    Each epoch runs on the whole stack class-major: the logits are (k, C, n),
    so the softmax works on one contiguous row per class, summed in numpy's
    order for a row of classes (``class_major_sum``). The error goes into a
    (k, n, C) buffer, which the backward product reads as it always has: a
    class-major operand changes that product's bits at some widths. On the
    SkylakeX kernel every classifier gets the weights a k = 1 fit of its own
    slice in the (n, C) layout would; under Haswell, not for C = 3, 5 or 9.
    """
    k, n, d = x.shape
    l2 = np.reshape(l2, (-1, 1, 1))
    w = np.zeros((k, num_classes, d))
    b = np.zeros((k, 1, num_classes))
    onehot = (np.arange(num_classes)[:, None] == y[:, None]).astype(float)  # (k, C, n)
    err = np.empty((k, n, num_classes))
    x_t, b_t, err_t = x.transpose(0, 2, 1), b.transpose(0, 2, 1), err.transpose(0, 2, 1)
    for _ in range(epochs):
        z = np.matmul(w, x_t)
        z += b_t
        z -= z.max(axis=1, keepdims=True)
        np.exp(z, out=z)
        z /= class_major_sum(z)
        z -= onehot
        np.divide(z, n, out=err_t)
        w -= lr * (np.matmul(err_t, x) + l2 * w)
        # adds the n rows in order, as err.sum(axis=1) does, at half its cost
        b -= lr * np.add.accumulate(err, axis=1)[:, -1:]
    return [LinearClassifier(weights=w[i], bias=b[i, 0]) for i in range(k)]


def draw_subsample(gold: np.ndarray, size: int, rng_seed: int) -> np.ndarray:
    """Sorted indices of ``size`` (1 to len(gold)) seed rows, drawn without replacement.

    The subsample must contain at least two classes; up to 10 redraws are
    attempted before DegenerateSubsample.
    """
    n = len(gold)
    rng = np.random.default_rng(rng_seed)
    for _ in range(10):
        cand = rng.permutation(n)[:size] if size < n else np.arange(n)
        if len(set(gold[cand].tolist())) >= 2:
            return np.sort(cand)
        if size == n:
            break
    raise DegenerateSubsample(f"no 2-class subsample of size {size} found")


def whm(precision, coverage, beta: float):
    """Weighted harmonic mean (1+b^2) p c / (b^2 p + c), elementwise; 0 on a zero denominator."""
    denom = np.asarray(beta * beta * precision + coverage, dtype=float)
    score = (1.0 + beta * beta) * precision * coverage
    return np.divide(score, denom, out=np.zeros_like(denom), where=denom != 0)[()]


def threshold_votes(top: np.ndarray, cls: np.ndarray, omega: float) -> np.ndarray:
    """cls (int8) per row, ABSTAIN where top is <= omega (a NaN top keeps its vote)."""
    return np.where(top <= omega, ABSTAIN, cls)


@dataclass
class CalibratedClassifierLF:
    """Classifier + featurization + confidence threshold omega.

    Votes argmax when the max class probability strictly exceeds omega,
    abstains otherwise (omega 0 means the LF always votes). Its votes come
    from ``threshold_votes`` over the ``class_top`` of the featurizer's
    tables, which ``exploitation.score_candidates`` computes.
    """

    classifier: object
    featurizer: object
    trained_on: dict  # the classifier's seed rows, rng seed and head width
    omega: float = 0.0

    def describe(self) -> dict:
        return {
            "omega": self.omega,
            "featurization": self.featurizer.describe(),
            "trained_on": self.trained_on,
        }


def threshold_grid(grid_step: float) -> list[float]:
    steps = int(math.floor(1.0 / grid_step + 1e-9))
    grid = [k * grid_step for k in range(steps + 1)]
    if grid[-1] < 1.0 - 1e-12:
        grid.append(1.0)
    return grid


def calibrate_threshold(seed_top: np.ndarray, seed_correct: np.ndarray, pool_top: np.ndarray,
                        beta: float, grid_step: float = 0.01) -> float:
    """The omega maximizing WHM(precision, coverage) over the threshold grid.

    Reads row tops (``class_top``): the seed's, with whether each seed row's
    class is its gold one, and the pool's. Precision comes from the seed; coverage
    from the pool when the seed is small (< 50 examples), from the seed otherwise.
    Ties resolve to the smallest omega so coverage is never given up for free.
    """
    if len(seed_top) == 0:
        raise ValueError("calibration needs a non-empty seed set")
    omegas = np.array(threshold_grid(grid_step))

    def above(values):  # how many values strictly exceed each omega
        return len(values) - np.searchsorted(np.sort(values), omegas, side="right")

    cov_top = pool_top if len(seed_top) < 50 and len(pool_top) else seed_top
    prec = above(seed_top[seed_correct]) / (above(seed_top) + EPS)
    cov = above(cov_top) / len(cov_top)
    best_omega, best_score = 0.0, -1.0
    for omega, score in zip(omegas.tolist(), whm(prec, cov, beta).tolist()):
        if score > best_score + 1e-15:
            best_score, best_omega = score, omega
    return best_omega


def synthesize_candidates(
    category: Category, dataset: Dataset, config, featurizers: list, round_index: int = 0
) -> tuple[list[LabelFunction], list[dict]]:
    """A round's ``config.candidates_per_round`` trained structural or semantic LFs.

    Candidate k trains on the subsample drawn with rng seed
    ``config.base_seed + 1000 * round_index + k`` and takes its variation
    (featurizer and regularization for structural, head width for semantic)
    round-robin from ``featurizers`` (the category's list from
    ``features.build_featurizers``) and the config lists. Degenerate
    subsamples are skipped, not fatal; skips come back as report dicts that
    name the category and round.
    One pass makes each candidate's LF as it is drawn and trains an MLP head
    at once. Logistic heads that share a featurizer and a subsample size train
    together afterwards through ``fit_logistic``, in stacks of at most
    STACK_BYTES. Omega stays 0 until ``score_candidates`` calibrates it.
    """
    base = config.base_seed + 1000 * round_index
    training = config.candidate_training
    regs = training["regularizations"]
    widths = training["semantic_head_widths"]
    fractions = training["subsample_fractions"]
    num_classes = dataset.labels.num_classes
    gold = np.array([ex.gold for ex in dataset.seed])

    lfs: list[LabelFunction] = []
    skips: list[dict] = []
    stacks: dict[tuple[int, int], list] = {}  # (featurizer, size) -> logistic (idx, l2, rule)
    for k in range(1, config.candidates_per_round + 1):
        rng_seed = base + k
        fraction = fractions[(k - 1) % len(fractions)]
        size = min(max(int(math.ceil(fraction * len(gold))), 1), len(gold))
        if category == Category.STRUCTURAL:
            l2, width = regs[(k - 1) % len(regs)], 0
        else:
            l2, width = training["l2"], widths[(k - 1) % len(widths)]
        try:
            idx = draw_subsample(gold, size, rng_seed)
        except DegenerateSubsample as exc:
            skips.append({"category": category.value, "round": round_index, "candidate": k,
                          "rng_seed": rng_seed, "reason": str(exc)})
            continue
        f = (k - 1) % len(featurizers)
        featurizer = featurizers[f]
        rule = CalibratedClassifierLF(None, featurizer, {"indices": idx.tolist(),
                                                         "rng_seed": rng_seed, "head_width": width})
        lfs.append(LabelFunction(f"{category.value}-s{rng_seed:05d}", category, rule, meta={
            "l2": l2, "head_width": width, "subsample_size": size,
            "featurization": featurizer.describe()}))
        if width == 0:
            stacks.setdefault((f, size), []).append((idx, l2, rule))
            continue
        net = MlpNet(featurizer.seed.shape[1], width, num_classes, rng_seed=rng_seed)
        rule.classifier = net.fit(featurizer.seed, np.eye(num_classes)[gold[idx]],
                                  epochs=training["mlp_epochs"], lr=training["mlp_lr"],
                                  l2=l2, shuffle_seed=rng_seed, rows=idx)

    for (f, size), members in stacks.items():
        table = featurizers[f].seed
        per_stack = max(STACK_BYTES // (size * table.shape[1] * table.itemsize), 1)
        for start in range(0, len(members), per_stack):
            idxs, l2s, rules = zip(*members[start:start + per_stack])
            x, y = np.stack([table[i] for i in idxs]), np.stack([gold[i] for i in idxs])
            fitted = fit_logistic(x, y, num_classes, epochs=training["epochs"], lr=training["lr"],
                                  l2=list(l2s))
            for rule, clf in zip(rules, fitted):
                rule.classifier = clf
    return lfs, skips
