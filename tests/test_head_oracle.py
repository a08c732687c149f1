"""Pool scoring hands on each head's (top, cls) exactly as its full probability table gives them.

``candidates.top_stack`` multiplies a row block by all of a featurizer's heads at
once and reduces each block's softmax as it goes. The oracle holds it to two
references, over dense and ``SparseRows`` pools of 700, 1,000 and 4,000 rows:

- the stacked (n, k, C) probability table that pool scoring built before
  (one product over a dense table, one per row block of a ``SparseRows``),
  reduced by ``class_top``: bit for bit on the default kernel and on Haswell;
- each head's own ``predict_proba_many`` over the dense table, reduced by
  ``class_top``: bit for bit on the SkylakeX kernel. Under the Haswell kernel a
  product of heads side by side differs in the last bit from a head's own
  product at 700 rows, as it did before the tables were reduced in blocks.

Every table has all-zero rows, where a head with equal biases gives every class
the same probability (top 1/C, which is the grid omega 0.5 for C = 2 and 0.2 for
C = 5), and every head after the first ties classes 0 and 1 on every row.
"""

import json
import os
import subprocess
import sys

import numpy as np
import pytest

from labelforge.candidates import (
    LinearClassifier, class_top, threshold_grid, threshold_votes, top_stack,
)
from labelforge.corpus import row_blocks
from labelforge.features import SparseRows, dense
from labelforge.nets import softmax

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
DIM = 256
RECORDED_CORE = "SkylakeX"  # the kernel the per-head reference was measured on


def sparse(x):
    """The dense table x kept as its nonzeros, a ``row_blocks`` range at a time."""
    blocks = [x[lo:hi].reshape(-1) for lo, hi in row_blocks(len(x))]
    return SparseRows(x.shape, [(b[b != 0], np.flatnonzero(b).astype(np.int32)) for b in blocks])


def heads_and_table(num_classes, k, rows):
    rng = np.random.default_rng(1000 * num_classes + 100 * k + rows)
    x = rng.normal(size=(rows, DIM))
    x[rng.random(x.shape) < 0.5] = 0.0
    x[::10] = 0.0
    heads = []
    for i in range(k):
        weights, bias = rng.normal(size=(num_classes, DIM)), rng.normal(size=num_classes)
        if i == 0:
            bias[:] = 0.0
        else:
            weights[1], bias[1] = weights[0], bias[0]
        heads.append(LinearClassifier(weights, bias))
    return heads, x


def stacked_table(heads, table):
    """(n, k, C) probabilities as pool scoring built them before the block reduction."""
    w, b = np.concatenate([h.weights for h in heads]), np.stack([h.bias for h in heads])
    x = dense(table)
    spans = [(0, len(x))] if isinstance(table, np.ndarray) else row_blocks(len(x))
    z = np.empty((len(x), len(w)))
    for lo, hi in spans:
        z[lo:hi] = x[lo:hi] @ w.T
    z = z.reshape(len(x), *b.shape) + b
    return softmax(z, out=z)


def oracle() -> dict:
    """The cases whose (top, cls) differ from each reference, and how many heads had a top
    equal to a grid omega."""
    out = {"stacked": [], "per_head": [], "grid_tops": 0}
    grid = set(threshold_grid(0.01))
    for num_classes in (2, 3, 5, 9):
        for k in (1, 3, 8):
            for rows in (700, 1000, 4000):
                heads, x = heads_and_table(num_classes, k, rows)
                for kind, table in (("dense", x), ("sparse", sparse(x))):
                    case = [num_classes, k, rows, kind]
                    top, cls = top_stack(heads, table)
                    assert top.shape == cls.shape == (k, rows) and cls.dtype == np.int8
                    s_top, s_cls = class_top(stacked_table(heads, table))
                    if not (np.array_equal(top, s_top.T) and np.array_equal(cls, s_cls.T)):
                        out["stacked"].append(case)
                    for i, head in enumerate(heads):
                        h_top, h_cls = class_top(head.predict_proba_many(x))
                        if not (np.array_equal(top[i], h_top) and np.array_equal(cls[i], h_cls)):
                            out["per_head"].append(case + [i])
                    # all-zero rows: head 0 ties every class, so its top is 1/C and its class 0
                    assert np.all(cls[0, ::10] == 0) and np.all(top[0, ::10] == 1.0 / num_classes)
                    if 1.0 / num_classes in grid:  # a top equal to omega abstains
                        assert np.all(threshold_votes(top[0], cls[0], 1.0 / num_classes)[::10] == -1)
                        out["grid_tops"] += 1
                    for i in range(1, k):  # classes 0 and 1 tie on every row: 1 is never the class
                        assert not np.any(cls[i] == 1)
    return out


def run_in_child(oracle: str, env_extra: dict) -> tuple[object, str]:
    """Call ``oracle`` ("module.function" of a test module) in a child with ``env_extra``
    set: its JSON result, and the BLAS core the child's OpenBLAS names ("" for another BLAS)."""
    code = ("import json, sys; sys.path[:0] = [sys.argv[1], sys.argv[2]]; "
            f"import {oracle.split('.')[0]}; print(json.dumps({oracle}()))")
    env = dict(os.environ, OPENBLAS_VERBOSE="2", OPENBLAS_NUM_THREADS="1", **env_extra)
    done = subprocess.run(
        [sys.executable, "-c", code, os.path.join(ROOT, "src"), os.path.join(ROOT, "tests")],
        env=env, capture_output=True, text=True, timeout=600,
    )
    assert done.returncode == 0, done.stderr
    cores = [line.split(":", 1)[1].strip() for line in done.stderr.splitlines()
             if line.startswith("Core:")]
    return json.loads(done.stdout.splitlines()[-1]), cores[0] if cores else ""


@pytest.mark.parametrize("coretype", ["default", "Haswell"])
def test_head_oracle_in_a_child(coretype):
    env_extra = {} if coretype == "default" else {"OPENBLAS_CORETYPE": coretype}
    result, core = run_in_child("test_head_oracle.oracle", env_extra)
    if coretype == "Haswell":
        assert core == "Haswell"
    assert result["grid_tops"] == 2 * 3 * 3 * 2  # C = 2 and 5, three k, three sizes, both kinds
    assert result["stacked"] == []
    if core == RECORDED_CORE:
        assert result["per_head"] == []
