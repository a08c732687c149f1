"""Shared numpy nets: class-axis reductions, stable softmax and a one-hidden-layer ReLU classifier.

Used by the semantic candidate heads (configurable width) and by the
downstream end classifier (width 100). Training is plain gradient descent on
soft-target cross-entropy with seeded initialization and shuffling, so runs
are bit-reproducible single-threaded.
"""

from __future__ import annotations

import numpy as np


# numpy reduces a short last axis with a generic loop once per row. Below 8 classes
# and from 64 rows on, a chain of whole-column ops is faster and gives the same floats:
# max is exact, and numpy's pairwise sum adds fewer than 8 values in order from +0.0.
def class_max(z: np.ndarray) -> np.ndarray:
    """``z.max(axis=-1, keepdims=True)``, bit for bit."""
    if not 0 < z.shape[-1] < 8 or z.size < 64 * z.shape[-1]:
        return z.max(axis=-1, keepdims=True)
    out = z[..., :1].copy()
    for j in range(1, z.shape[-1]):
        np.maximum(out, z[..., j:j + 1], out=out)
    return out


def class_sum(z: np.ndarray) -> np.ndarray:
    """``z.sum(axis=-1, keepdims=True)`` of a float array, bit for bit."""
    if not 0 < z.shape[-1] < 8 or z.size < 64 * z.shape[-1]:
        return z.sum(axis=-1, keepdims=True)
    out = z[..., :1] + 0.0
    for j in range(1, z.shape[-1]):
        out += z[..., j:j + 1]
    return out


def softmax(z: np.ndarray) -> np.ndarray:
    z = np.atleast_2d(z)
    e = z - class_max(z)
    np.exp(e, out=e)
    return np.divide(e, class_sum(e), out=e)


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
        rows: np.ndarray | None = None,
    ) -> "MlpNet":
        """Minibatch gradient descent on ``x[rows]``; None means all rows, or full batch.

        Batches are slices of the rows permuted into one buffer per epoch. The
        step works in place, with the float operations of the plain step.
        """
        rows = np.arange(len(x)) if rows is None else rows
        n = len(rows)
        rng = np.random.default_rng(shuffle_seed)
        size = n if batch_size is None else min(batch_size, n)
        xs, ts = np.empty((n, x.shape[1])), np.empty_like(targets, order="C")
        for _ in range(epochs):
            order = rng.permutation(n) if batch_size is not None else np.arange(n)
            np.take(x, rows[order], axis=0, out=xs, mode="clip")  # "raise" would buffer a copy
            np.take(targets, order, axis=0, out=ts, mode="clip")
            for start in range(0, n, size):
                xb, tb = xs[start:start + size], ts[start:start + size]
                h_pre = xb @ self.w1
                h_pre += self.b1
                h = np.maximum(h_pre, 0.0)
                dz2 = h @ self.w2  # logits, then softmax, then the output error
                dz2 += self.b2
                dz2 -= class_max(dz2)
                np.exp(dz2, out=dz2)
                dz2 /= class_sum(dz2)
                dz2 -= tb
                dz2 /= xb.shape[0]

                gw2 = h.T @ dz2
                gb2 = dz2.sum(axis=0)
                dh = dz2 @ self.w2.T
                np.putmask(dh, h_pre <= 0, 0.0)
                gw1 = xb.T @ dh
                gb1 = dh.sum(axis=0)
                if l2:
                    gw2 += l2 * self.w2
                    gw1 += l2 * self.w1

                for param, grad in ((self.w2, gw2), (self.b2, gb2), (self.w1, gw1), (self.b1, gb1)):
                    grad *= lr
                    param -= grad
        return self
