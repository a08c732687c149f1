"""Every function ``bench/layers.py`` wraps still exists in labelforge, save the known deleted.

The bench tracer skips a target that no longer resolves, and the per-layer
metrics it feeds then read zero without an error. This test makes a rename or
a deletion of a wrapped function fail instead. It only reads ``bench/``.
"""

import importlib
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "bench"))

from layers import TARGETS  # noqa: E402

# wrapped functions that are gone from labelforge; their metrics read zero
GONE = {
    "exploitation.coverage_hint",
    "candidates.train_candidate",
    "features.fit_tfidf",
    "features.EmbeddingFeaturizer.transform_many",
    "features.HashingEmbedder.embed",
    "features.RemoteEmbedder.embed",
    "features.tokenize",
    "surface.eval_surface",
}


def resolves(target) -> bool:
    """Whether the target's module and dotted attribute exist, as the tracer looks them up."""
    try:
        owner = importlib.import_module(f"labelforge.{target.module}")
    except ModuleNotFoundError:
        return False
    for part in target.attr.split("."):
        owner = getattr(owner, part, None)
    return callable(owner)


def test_only_the_known_deleted_bench_targets_are_unresolved():
    unresolved = {f"{t.module}.{t.attr}" for t in TARGETS if not resolves(t)}
    assert unresolved == GONE
