"""Shared numpy nets: stable softmax and a one-hidden-layer ReLU classifier.

Used by the semantic candidate heads (configurable width) and by the
downstream end classifier (width 100). Training is plain gradient descent on
soft-target cross-entropy with seeded initialization and shuffling, so runs
are bit-reproducible single-threaded.
"""

from __future__ import annotations

import numpy as np


def softmax(z: np.ndarray) -> np.ndarray:
    z = np.atleast_2d(z)
    shifted = z - z.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=-1, keepdims=True)


def glorot_uniform(rng: np.random.Generator, fan_in: int, fan_out: int) -> np.ndarray:
    limit = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-limit, limit, size=(fan_in, fan_out))


class MlpNet:
    """dim_in -> hidden ReLU -> C softmax, trained on soft targets."""

    def __init__(self, dim_in: int, hidden: int, num_classes: int, rng_seed: int = 0):
        rng = np.random.default_rng(rng_seed)
        self.dim_in = dim_in
        self.hidden = hidden
        self.num_classes = num_classes
        self.w1 = glorot_uniform(rng, dim_in, hidden)
        self.b1 = np.zeros(hidden)
        self.w2 = glorot_uniform(rng, hidden, num_classes)
        self.b2 = np.zeros(num_classes)
        self.trained_on: dict = {}

    def predict_proba_many(self, x: np.ndarray) -> np.ndarray:
        x = np.atleast_2d(x)
        h = np.maximum(x @ self.w1 + self.b1, 0.0)
        return softmax(h @ self.w2 + self.b2)

    def fit(
        self,
        x: np.ndarray,
        targets: np.ndarray,
        epochs: int,
        lr: float,
        batch_size: int | None = None,
        l2: float = 0.0,
        shuffle_seed: int = 0,
    ) -> "MlpNet":
        """Minibatch gradient descent; batch_size None means full batch."""
        n = x.shape[0]
        rng = np.random.default_rng(shuffle_seed)
        size = n if batch_size is None else min(batch_size, n)
        for _ in range(epochs):
            order = rng.permutation(n) if batch_size is not None else np.arange(n)
            for start in range(0, n, size):
                idx = order[start:start + size]
                xb, tb = x[idx], targets[idx]
                h_pre = xb @ self.w1 + self.b1
                h = np.maximum(h_pre, 0.0)
                probs = softmax(h @ self.w2 + self.b2)

                dz2 = (probs - tb) / xb.shape[0]
                gw2 = h.T @ dz2 + l2 * self.w2
                gb2 = dz2.sum(axis=0)
                dh = dz2 @ self.w2.T
                dh[h_pre <= 0] = 0.0
                gw1 = xb.T @ dh + l2 * self.w1
                gb1 = dh.sum(axis=0)

                self.w2 -= lr * gw2
                self.b2 -= lr * gb2
                self.w1 -= lr * gw1
                self.b1 -= lr * gb1
        return self
