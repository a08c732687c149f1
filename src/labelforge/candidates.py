"""Structural and semantic LF candidates: train, calibrate, threshold.

Each candidate is a lightweight probabilistic classifier trained on a random
seed subsample, turned into a label function by a confidence threshold. The
threshold is picked on a grid by maximizing the weighted harmonic mean of
precision (on the seed) and coverage, with beta weighting precision, once
``exploitation.score_candidates`` has the candidate's seed and pool probabilities.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .corpus import Dataset
from .errors import DegenerateSubsample, DimensionMismatch
from .lf_core import ABSTAIN, EPS, Category, LabelFunction
from .nets import MlpNet, softmax


@dataclass
class LinearClassifier:
    """Multinomial logistic regression fit by full-batch gradient descent."""

    weights: np.ndarray  # C x d
    bias: np.ndarray  # C
    trained_on: dict = field(default_factory=dict)

    @property
    def dim(self) -> int:
        return self.weights.shape[1]

    def predict_proba_many(self, x: np.ndarray) -> np.ndarray:
        x = np.atleast_2d(x)
        if x.shape[1] != self.dim:
            raise DimensionMismatch(f"expected dim {self.dim}, got {x.shape[1]}")
        return softmax(x @ self.weights.T + self.bias)


def fit_logistic(
    x: np.ndarray,
    y: np.ndarray,
    num_classes: int,
    epochs: int = 300,
    lr: float = 0.5,
    l2: float = 1e-3,
) -> LinearClassifier:
    """Zero-initialized full-batch GD on cross-entropy + L2 (bias unpenalized)."""
    n, d = x.shape
    w = np.zeros((num_classes, d))
    b = np.zeros(num_classes)
    onehot = np.zeros((n, num_classes))
    onehot[np.arange(n), y] = 1.0
    for _ in range(epochs):
        probs = softmax(x @ w.T + b)
        err = (probs - onehot) / n
        w -= lr * (err.T @ x + l2 * w)
        b -= lr * err.sum(axis=0)
    return LinearClassifier(weights=w, bias=b)


def train_candidate(
    x_seed: np.ndarray,
    gold: np.ndarray,
    subsample_size: int,
    rng_seed: int,
    epochs: int = 300,
    lr: float = 0.5,
    l2: float = 1e-3,
    head_width: int = 0,
    num_classes: int | None = None,
):
    """Train one candidate on a without-replacement subsample of the seed rows.

    ``x_seed`` holds the seed feature rows and ``gold`` their classes. The
    subsample must contain at least two classes; up to 10 redraws are
    attempted before DegenerateSubsample. head_width 0 is the logistic head,
    anything larger a one-hidden-layer ReLU head of that width.
    """
    n = len(gold)
    if not 1 <= subsample_size <= n:
        raise ValueError("subsample_size must be in [1, len(seed)]")
    rng = np.random.default_rng(rng_seed)
    idx = None
    for _ in range(10):
        cand = rng.permutation(n)[:subsample_size] if subsample_size < n else np.arange(n)
        if len(set(gold[cand].tolist())) >= 2:
            idx = np.sort(cand)
            break
        if subsample_size == n:
            break
    if idx is None:
        raise DegenerateSubsample(f"no 2-class subsample of size {subsample_size} found")

    if num_classes is None:
        num_classes = max(int(gold.max()) + 1, 2)
    x = x_seed[idx]
    y = gold[idx]
    descriptor = {"indices": idx.tolist(), "rng_seed": rng_seed, "head_width": head_width}
    if head_width == 0:
        clf = fit_logistic(x, y, num_classes, epochs=epochs, lr=lr, l2=l2)
        clf.trained_on = descriptor
        return clf
    onehot = np.zeros((len(y), num_classes))
    onehot[np.arange(len(y)), y] = 1.0
    net = MlpNet(x.shape[1], head_width, num_classes, rng_seed=rng_seed)
    net.fit(x, onehot, epochs=epochs, lr=min(lr, 0.1), l2=l2, shuffle_seed=rng_seed)
    net.trained_on = descriptor
    return net


def whm(precision, coverage, beta: float):
    """Weighted harmonic mean (1+b^2) p c / (b^2 p + c), elementwise; 0 on a zero denominator."""
    denom = np.asarray(beta * beta * precision + coverage, dtype=float)
    score = (1.0 + beta * beta) * precision * coverage
    return np.divide(score, denom, out=np.zeros_like(denom), where=denom != 0)[()]


def threshold_votes(probs: np.ndarray, omega: float) -> np.ndarray:
    """Argmax class per row as int8, ABSTAIN where the max probability is <= omega."""
    votes = probs.argmax(axis=1).astype(np.int8)
    votes[probs.max(axis=1) <= omega] = ABSTAIN
    return votes


@dataclass
class CalibratedClassifierLF:
    """Classifier + featurization + confidence threshold omega.

    Votes argmax when the max class probability strictly exceeds omega,
    abstains otherwise (omega 0 means the LF always votes). Its votes come
    from ``threshold_votes`` over the probabilities of the featurizer's
    tables, which ``exploitation.score_candidates`` computes.
    """

    classifier: object
    featurizer: object
    omega: float = 0.0

    def describe(self) -> dict:
        return {
            "omega": self.omega,
            "featurization": self.featurizer.describe(),
            "trained_on": self.classifier.trained_on,
        }


@dataclass
class CalibrationCurve:
    grid: list[tuple[float, float, float, float]]  # (omega, precision, coverage, whm)
    best_omega: float


def threshold_grid(grid_step: float) -> list[float]:
    if not 0 < grid_step <= 1:
        raise ValueError("grid_step must be in (0, 1]")
    steps = int(math.floor(1.0 / grid_step + 1e-9))
    grid = [k * grid_step for k in range(steps + 1)]
    if grid[-1] < 1.0 - 1e-12:
        grid.append(1.0)
    return grid


def calibrate_threshold(
    seed_probs: np.ndarray,
    gold,
    pool_probs: np.ndarray,
    beta: float,
    grid_step: float = 0.01,
) -> CalibrationCurve:
    """Pick omega maximizing WHM(precision, coverage) over the threshold grid.

    Reads class probabilities: seed rows (with their gold classes) and pool
    rows. Precision comes from the seed; coverage from the unlabeled pool when
    the seed is small (< 50 examples), from the seed otherwise. Ties resolve to
    the smallest omega so coverage is never given up for free.
    """
    if len(seed_probs) == 0:
        raise ValueError("calibration needs a non-empty seed set")
    omegas = np.array(threshold_grid(grid_step))

    def above(values):  # how many values strictly exceed each omega
        return len(values) - np.searchsorted(np.sort(values), omegas, side="right")

    max_seed = seed_probs.max(axis=1)
    correct = seed_probs.argmax(axis=1) == np.asarray(gold)
    max_cov = pool_probs.max(axis=1) if len(seed_probs) < 50 and len(pool_probs) else max_seed
    prec = above(max_seed[correct]) / (above(max_seed) + EPS)
    cov = above(max_cov) / len(max_cov)
    grid = list(zip(omegas.tolist(), prec.tolist(), cov.tolist(), whm(prec, cov, beta).tolist()))
    best_omega, best_score = 0.0, -1.0
    for omega, _, _, score in grid:
        if score > best_score + 1e-15:
            best_score, best_omega = score, omega
    return CalibrationCurve(grid=grid, best_omega=best_omega)


def synthesize_candidates(
    category: Category,
    dataset: Dataset,
    count: int,
    config,
    featurizers: list,
    base_seed: int | None = None,
) -> tuple[list[LabelFunction], list[dict]]:
    """Produce ``count`` trained classifier LFs for one category.

    Candidate k trains on the subsample drawn with rng seed base_seed + k and
    takes its variation (featurizer and regularization for structural, head
    width for semantic) round-robin from ``featurizers`` (the category's list
    from ``features.build_featurizers``) and the config lists. Degenerate
    subsamples are skipped, not fatal; skips come back as report dicts.
    Omega stays 0 until ``score_candidates`` calibrates it.
    """
    if count < 1:
        raise ValueError("count must be >= 1")
    if category not in (Category.STRUCTURAL, Category.SEMANTIC):
        raise ValueError("synthesize_candidates handles structural/semantic only")
    base = config.base_seed if base_seed is None else base_seed
    training = config.candidate_training
    regs = training["regularizations"]
    widths = training["semantic_head_widths"]
    fractions = training["subsample_fractions"]
    gold = np.array([ex.gold for ex in dataset.seed])
    n_l = len(gold)

    lfs: list[LabelFunction] = []
    skips: list[dict] = []
    for k in range(1, count + 1):
        rng_seed = base + k
        fraction = fractions[(k - 1) % len(fractions)]
        subsample_size = min(max(int(math.ceil(fraction * n_l)), 1), n_l)
        featurizer = featurizers[(k - 1) % len(featurizers)]
        if category == Category.STRUCTURAL:
            l2 = regs[(k - 1) % len(regs)]
            width = 0
        else:
            l2 = training["l2"]
            width = widths[(k - 1) % len(widths)]
        try:
            clf = train_candidate(
                featurizer.seed,
                gold,
                subsample_size,
                rng_seed,
                epochs=training["epochs"] if width == 0 else training["mlp_epochs"],
                lr=training["lr"] if width == 0 else training["mlp_lr"],
                l2=l2,
                head_width=width,
                num_classes=dataset.labels.num_classes,
            )
        except DegenerateSubsample as exc:
            skips.append({"candidate": k, "rng_seed": rng_seed, "reason": str(exc)})
            continue
        lfs.append(LabelFunction(
            id=f"{category.value}-s{rng_seed:05d}",
            category=category,
            rule=CalibratedClassifierLF(classifier=clf, featurizer=featurizer),
            meta={
                "l2": l2,
                "head_width": width,
                "subsample_size": subsample_size,
                "featurization": featurizer.describe(),
            },
        ))
    return lfs, skips
