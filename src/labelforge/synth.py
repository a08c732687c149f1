"""Bundled synthetic corpora for desk-scale experiments.

Two generators. The separable corpus gives every document its class marker,
so a single-token rule scores perfect F1 by construction. The noisy corpus
adds an ambiguous slice built from a dedicated haze vocabulary: ambiguous
documents are near-duplicates that cancel inside linear feature models (no
signal to fit, low confidence, bias-driven forced votes), carry a marker
that lies with small probability (so threshold calibration sees real
low-confidence errors), and are salted with bait tokens that look
class-indicative on a small seed yet flip a coin on the ambiguous slice.
"""

from __future__ import annotations

import numpy as np

from .corpus import Dataset, Document, LabeledExample, LabelSpace

CLASS_NAMES = ("pos", "neg")
MARKERS = ("brightmark", "gloommark")
# small, dense vocabularies: every token is frequent, so lightweight
# classifiers cannot memorize individual documents through rare tokens
TOPIC_VOCABS = (
    tuple(f"bright{i:02d}" for i in range(5)),
    tuple(f"gloom{i:02d}" for i in range(5)),
)
FILLERS = tuple(f"fill{i:02d}" for i in range(8))
HAZE = tuple(f"haze{i}" for i in range(6))
BAIT = "glint"  # class-0 bait: frequent in clean class-0 docs AND the ambiguous slice


def _zipf_weights(n: int, s: float = 1.2) -> np.ndarray:
    w = 1.0 / np.arange(1, n + 1) ** s
    return w / w.sum()


def _zipf_cdf(n: int, s: float = 1.2) -> np.ndarray:
    # built as Generator.choice builds its CDF from p, so _draw returns the
    # tokens rng.choice(n, k, p=_zipf_weights(n, s)) would, from the same uniforms
    cdf = _zipf_weights(n, s).cumsum()
    cdf /= cdf[-1]
    return cdf


TOPIC_CDF = _zipf_cdf(len(TOPIC_VOCABS[0]))
FILLER_CDF = _zipf_cdf(len(FILLERS))
HAZE_CDF = _zipf_cdf(len(HAZE), s=1.8)


def _draw(rng: np.random.Generator, vocab: tuple[str, ...], k: int, cdf: np.ndarray) -> list[str]:
    return [vocab[i] for i in cdf.searchsorted(rng.random(k), side="right").tolist()]


def _clean_doc(rng: np.random.Generator, cls: int, leakage: float = 0.0) -> str:
    topics = _draw(rng, TOPIC_VOCABS[cls], int(rng.integers(7, 10)), TOPIC_CDF)
    # cross-class leakage keeps single-topic rules honest but imperfect
    if rng.random() < leakage:
        topics += _draw(rng, TOPIC_VOCABS[1 - cls], 1, TOPIC_CDF)
    fillers = _draw(rng, FILLERS, int(rng.integers(3, 5)), FILLER_CDF)
    tokens = [MARKERS[cls]] * 2 + topics + fillers
    if cls == 0 and rng.random() < 0.8:
        tokens += [BAIT] * 3
    rng.shuffle(tokens)
    return " ".join(tokens)


def _ambiguous_doc(rng: np.random.Generator, cls: int, marker_fidelity: float) -> str:
    haze = _draw(rng, HAZE, 7, HAZE_CDF)
    marker_cls = cls if rng.random() < marker_fidelity else 1 - cls
    tokens = [MARKERS[marker_cls]] + haze
    if rng.random() < 0.8:
        tokens.append(BAIT)
    rng.shuffle(tokens)
    return " ".join(tokens)


def _assemble(
    rng: np.random.Generator,
    n_unlabeled: int,
    n_seed: int,
    n_test: int,
    ambiguous_fraction: float,
    marker_fidelity: float = 0.96,
    leakage: float = 0.0,
) -> Dataset:
    labels = LabelSpace(CLASS_NAMES)
    splits = (
        [("u", "unlabeled")] * n_unlabeled
        + [("s", "seed")] * n_seed
        + [("t", "test")] * n_test
    )
    unlabeled: list[Document] = []
    seed: list[LabeledExample] = []
    test: list[LabeledExample] = []
    unlabeled_gold: dict[str, int] = {}
    for i, (prefix, split) in enumerate(splits):
        cls = int(rng.integers(0, 2))
        if rng.random() < ambiguous_fraction:
            text = _ambiguous_doc(rng, cls, marker_fidelity=marker_fidelity)
        else:
            text = _clean_doc(rng, cls, leakage=leakage)
        doc = Document(id=f"{prefix}{i:05d}", text=text)
        if split == "unlabeled":
            unlabeled.append(doc)
            unlabeled_gold[doc.id] = cls
        elif split == "seed":
            seed.append(LabeledExample(doc=doc, gold=cls))
        else:
            test.append(LabeledExample(doc=doc, gold=cls))
    return Dataset(
        labels=labels,
        unlabeled=unlabeled,
        seed=seed,
        test=test,
        unlabeled_gold=unlabeled_gold,
    )


def make_separable_corpus(
    rng_seed: int, n_unlabeled: int = 2000, n_seed: int = 40, n_test: int = 400
) -> Dataset:
    """Fully separable corpus: every doc carries its class marker twice."""
    rng = np.random.default_rng(rng_seed)
    return _assemble(rng, n_unlabeled, n_seed, n_test, ambiguous_fraction=0.0)


def noisy_experiment_overrides() -> dict:
    """Config overrides for the bundled noisy-corpus experiments.

    Small per-round counts against a deliberately short supply of good
    surface cues: with filtering off the pool absorbs weak deep-rank rules,
    while moderate alpha values cull them and keep digging. Unigram features
    and a small hashing dimension keep the tiny-vocabulary corpus honest for
    the lightweight classifiers.
    """
    return {
        "k_per_category": {"surface": 8, "structural": 8, "semantic": 8},
        "candidates_per_round": 4,
        "provider": {"kind": "offline_seeded", "rng_seed": 0, "top_t": 2},
        "tfidf": {"ngram_ranges": [[1, 1]], "min_df": 1, "min_token_len": 2},
        "embedding": {"kind": "hashing", "dim": 24},
        "candidate_training": {
            "epochs": 300,
            "lr": 0.5,
            "l2": 0.05,
            "regularizations": [0.03, 0.06, 0.1],
            "subsample_fractions": [0.8],
            "semantic_head_widths": [0],
            "mlp_epochs": 200,
            "mlp_lr": 0.1,
        },
    }


def make_noisy_corpus(
    rng_seed: int,
    n_unlabeled: int = 2000,
    n_seed: int = 40,
    n_test: int = 400,
    ambiguous_fraction: float = 0.2,
) -> Dataset:
    """Corpus with an ~20% ambiguous slice plus cross-class topic leakage."""
    rng = np.random.default_rng(rng_seed)
    return _assemble(
        rng, n_unlabeled, n_seed, n_test, ambiguous_fraction, leakage=0.35
    )
