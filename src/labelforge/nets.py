"""Shared numpy nets: class-axis reductions, stable softmax and a one-hidden-layer ReLU classifier.

Used by the semantic candidate heads (configurable width) and by the
downstream end classifier (width 100). Training is plain gradient descent on
soft-target cross-entropy with seeded initialization and shuffling, so runs
are bit-reproducible single-threaded.
"""

from __future__ import annotations

import numpy as np

from .corpus import ROW_BLOCK


# numpy reduces a short last axis with a generic loop once per row. Below 8 classes
# and from 64 rows on, a chain of whole-column ops is faster and gives the same floats:
# max is exact, and the sum keeps the order of numpy's pairwise sum (class_major_sum).
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
    return class_major_sum(z.swapaxes(-1, -2)).swapaxes(-1, -2)


def class_major_sum(z: np.ndarray) -> np.ndarray:
    """Sum over the class rows of a (..., C, n) float array, keeping that axis.

    Each column gets the floats numpy's pairwise sum gives the same C values as
    one contiguous row, for 1 <= C <= 128 (a label space holds at most
    ``corpus.MAX_CLASSES``): below 8 values it adds them in order from +0.0;
    from 8 on it keeps eight running partials, adds them as a tree, adds the
    rest in order, and the reduction adds that to +0.0.
    """
    c = z.shape[-2]
    if c < 8:
        out = z[..., :1, :] + 0.0
        for j in range(1, c):
            out += z[..., j:j + 1, :]
        return out
    r = z[..., :8, :].copy()
    for i in range(8, c - c % 8, 8):
        r += z[..., i:i + 8, :]
    r = r[..., 0::2, :] + r[..., 1::2, :]  # ((r0 + r1) + (r2 + r3)) + ((r4 + r5) + (r6 + r7))
    r = r[..., 0::2, :] + r[..., 1::2, :]
    out = r[..., :1, :] + r[..., 1:, :]
    for j in range(c - c % 8, c):
        out += z[..., j:j + 1, :]
    out += 0.0
    return out


def softmax(z: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Softmax over the last axis, into ``out`` (``z`` itself works) or a new array."""
    z = np.atleast_2d(z)
    e = np.subtract(z, class_max(z), out=out)
    np.exp(e, out=e)
    return np.divide(e, class_sum(e), out=e)


class MlpNet:
    """dim_in -> hidden ReLU -> C softmax, trained on soft targets."""

    def __init__(self, dim_in: int, hidden: int, num_classes: int, rng_seed: int = 0):
        rng = np.random.default_rng(rng_seed)
        self.dim_in = dim_in
        self.hidden = hidden
        self.num_classes = num_classes
        self.theta = np.zeros(hidden * (num_classes + 1 + dim_in) + num_classes)
        self.w2, self.b2, self.w1, self.b1 = self._views(self.theta)
        for w in (self.w1, self.w2):  # Glorot-uniform
            limit = np.sqrt(6.0 / sum(w.shape))
            w[...] = rng.uniform(-limit, limit, size=w.shape)

    def _views(self, flat: np.ndarray) -> tuple[np.ndarray, ...]:
        """w2, b2, w1 and b1 (or their gradients) as views of one vector, in that order."""
        h, c = self.hidden, self.num_classes
        w2, b2, w1, b1 = np.split(flat, np.cumsum([h * c, c, self.dim_in * h]))
        return w2.reshape(h, c), b2, w1.reshape(self.dim_in, h), b1

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

        Batches are slices of the permuted rows, gathered ``corpus.ROW_BLOCK // size``
        whole batches (at least one) at a time into one buffer. The gradients are
        views of one vector, like the parameters, so a step is one scale and one
        subtraction, with the float operations of the plain step.
        """
        rows = np.arange(len(x)) if rows is None else rows
        n = len(rows)
        rng = np.random.default_rng(shuffle_seed)
        size = n if batch_size is None else min(batch_size, n)
        chunk = min(n, max(1, ROW_BLOCK // size) * size)
        xs, ts = np.empty((chunk, x.shape[1])), np.empty((chunk, targets.shape[1]), targets.dtype)
        grad = np.empty_like(self.theta)
        gw2, gb2, gw1, gb1 = self._views(grad)
        for _ in range(epochs):
            order = rng.permutation(n) if batch_size is not None else np.arange(n)
            for start in range(0, n, size):
                at = start % chunk
                if at == 0:  # gather the next chunk; "raise" would buffer a copy
                    part = order[start:start + chunk]
                    np.take(x, rows[part], axis=0, out=xs[:len(part)], mode="clip")
                    np.take(targets, part, axis=0, out=ts[:len(part)], mode="clip")
                stop = min(at + size, len(part))
                xb, tb = xs[at:stop], ts[at:stop]
                h_pre = xb @ self.w1
                h_pre += self.b1
                h = np.maximum(h_pre, 0.0)
                dz2 = h @ self.w2  # logits, then softmax, then the output error
                dz2 += self.b2
                softmax(dz2, out=dz2)
                dz2 -= tb
                dz2 /= xb.shape[0]

                np.matmul(h.T, dz2, out=gw2)
                np.add.reduce(dz2, axis=0, out=gb2)
                dh = dz2 @ self.w2.T
                np.putmask(dh, h_pre <= 0, 0.0)
                np.matmul(xb.T, dh, out=gw1)
                np.add.reduce(dh, axis=0, out=gb1)
                if l2:
                    gw2 += l2 * self.w2
                    gw1 += l2 * self.w1

                grad *= lr
                self.theta -= grad
        return self
