"""End classifier: an MLP trained on probabilistic labels, scored on gold test.

Training minimizes soft-target cross-entropy against the aggregated label
distributions (hard mode swaps in one-hot targets through the same loop).
Rows the label model left uncovered are excluded from training.
"""

from __future__ import annotations

import json
from typing import TextIO

import numpy as np

from .corpus import LabeledExample
from .errors import LabelForgeError
from .metrics import EvalReport, evaluate_labeling
from .nets import MlpNet


def write_checkpoint(fh: TextIO, net: MlpNet, config_hash: str) -> None:
    """The net's shapes, weights and the run's config hash as one JSON object."""
    payload = {"dim_in": net.dim_in, "hidden": net.hidden, "num_classes": net.num_classes,
               **{name: getattr(net, name).tolist() for name in ("w1", "b1", "w2", "b2")},
               "config_hash": config_hash}
    json.dump(payload, fh)


def build_targets(
    dists: np.ndarray, covered: np.ndarray, mode: str
) -> tuple[np.ndarray, np.ndarray]:
    """Select the covered rows and their target distributions.

    Returns (row indices, targets). Hard mode one-hot-encodes the argmax, so
    soft training with one-hot distributions is gradient-identical to it.
    """
    keep = np.flatnonzero(covered)
    if len(keep) == 0:
        raise LabelForgeError("no covered rows to train on")
    targets = dists[keep]
    if mode == "hard":
        targets = np.eye(dists.shape[1])[targets.argmax(axis=1)]
    if np.ptp(targets.argmax(axis=1)) == 0:  # every covered row has one hard label
        raise LabelForgeError("covered hard labels span fewer than 2 classes")
    return keep, targets


def train_downstream(dists: np.ndarray, covered: np.ndarray, featurizer, config) -> MlpNet:
    """Fit the MLP on the labels of the featurizer's pool rows; deterministic for a fixed seed.

    Reads the ``downstream`` table of the pipeline ``config`` and seeds the
    net's initialization and shuffling with its ``base_seed``.
    """
    if len(dists) != len(featurizer.pool):
        raise ValueError("label rows and pool rows must align")
    table = config.downstream
    keep, targets = build_targets(dists, covered, table["mode"])
    net = MlpNet(featurizer.pool.shape[1], table["hidden"], targets.shape[1],
                 rng_seed=config.base_seed)
    return net.fit(featurizer.pool, targets, epochs=table["epochs"], lr=table["lr"],
                   batch_size=table["batch_size"], shuffle_seed=config.base_seed, rows=keep)


def evaluate_e2e(probs: np.ndarray, test: list[LabeledExample]) -> EvalReport:
    """Weighted F1 of the argmax of the test probabilities against the gold labels.

    ``metrics.evaluate_labeling`` scores it with every row covered, so
    coverage is 1.0 and label quality equals the F1.
    """
    if not test:
        raise ValueError("evaluate_e2e needs a non-empty test split")
    if len(probs) != len(test):
        raise ValueError("probs and test rows must align")
    report = evaluate_labeling(probs, np.ones(len(test), dtype=bool), [ex.doc.id for ex in test],
                               {ex.doc.id: ex.gold for ex in test})
    report.f1_convention = "all_rows"
    return report
