"""Deterministic text featurization: tokenizer, TF-IDF, and embeddings.

The TF-IDF vectorizer backs structural label functions; embeddings back
semantic ones. The default embedding provider is a dependency-free signed
hashing projection so the semantic pathway runs fully offline; a remote
provider with an on-disk cache covers real encoder services.
"""

from __future__ import annotations

import hashlib
import json
import re
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .corpus import Dataset, Document
from .errors import DimensionMismatch, EmptyVocabulary, ProviderUnreachable

_TOKEN_RE = re.compile(r"[^\W_]+", re.UNICODE)


@lru_cache(maxsize=262144)
def _tokenize_cached(text: str, min_token_len: int) -> tuple[str, ...]:
    return tuple(t for t in _TOKEN_RE.findall(text.lower()) if len(t) >= min_token_len)


def tokenize(text: str, min_token_len: int = 2) -> tuple[str, ...]:
    """Lowercase, split on non-alphanumeric, drop tokens shorter than the floor."""
    return _tokenize_cached(text, min_token_len)


@dataclass(frozen=True)
class Tokenizer:
    min_token_len: int = 2

    def __call__(self, text: str) -> tuple[str, ...]:
        return tokenize(text, self.min_token_len)


def _ngrams(tokens: tuple[str, ...], ngram_range: tuple[int, int]):
    lo, hi = ngram_range
    for n in range(lo, hi + 1):
        for i in range(len(tokens) - n + 1):
            yield " ".join(tokens[i:i + n])


@dataclass
class TfidfModel:
    """Vocabulary + smoothed idf; transform output is L2-normalized."""

    vocabulary: dict[str, int]
    idf: np.ndarray
    ngram_range: tuple[int, int]
    tokenizer: Tokenizer

    @property
    def dim(self) -> int:
        return len(self.vocabulary)


def fit_tfidf(
    docs: list[Document],
    tokenizer: Tokenizer = Tokenizer(),
    ngram_range: tuple[int, int] = (1, 2),
    min_df: int = 1,
) -> TfidfModel:
    """Build the vocabulary from uni/bigram document frequencies.

    idf_t = ln((1 + N) / (1 + df_t)) + 1, strictly positive. Vocabulary terms
    are index-assigned in sorted order so fitting is order-independent.
    """
    if not docs:
        raise ValueError("fit_tfidf needs at least one document")
    df: dict[str, int] = {}
    for doc in docs:
        for term in set(_ngrams(tokenizer(doc.text), ngram_range)):
            df[term] = df.get(term, 0) + 1
    terms = sorted(t for t, c in df.items() if c >= min_df)
    if not terms:
        raise EmptyVocabulary("no terms survived tokenization")
    vocabulary = {t: i for i, t in enumerate(terms)}
    n = len(docs)
    idf = np.array([np.log((1 + n) / (1 + df[t])) + 1.0 for t in terms])
    return TfidfModel(vocabulary, idf, ngram_range, tokenizer)


def transform_tfidf(model: TfidfModel, doc: Document) -> np.ndarray:
    """Term counts scaled by idf, then L2-normalized; OOV terms are ignored."""
    vec = np.zeros(model.dim)
    for term in _ngrams(model.tokenizer(doc.text), model.ngram_range):
        col = model.vocabulary.get(term)
        if col is not None:
            vec[col] += 1.0
    vec *= model.idf
    norm = np.linalg.norm(vec)
    if norm > 0:
        vec /= norm
    return vec


def _stable_hash(term: str, personal: bytes) -> int:
    digest = hashlib.blake2b(term.encode("utf-8"), digest_size=8, person=personal).digest()
    return int.from_bytes(digest, "big")


@dataclass(frozen=True)
class HashingEmbedder:
    """Signed-hash projection of unigrams and bigrams onto a fixed dimension.

    Each term lands on coordinate blake2b(term) mod dim with a sign drawn from
    an independent hash; the accumulated vector is L2-normalized. Output
    depends only on (text, dim), so it is identical across runs and platforms.
    """

    dim: int = 256

    def raw_projection(self, text: str) -> np.ndarray:
        vec = np.zeros(self.dim)
        tokens = tokenize(text, min_token_len=1)
        terms = list(tokens) + [" ".join(tokens[i:i + 2]) for i in range(len(tokens) - 1)]
        for term in terms:
            coord = _stable_hash(term, b"lf-coord") % self.dim
            sign = 1.0 if _stable_hash(term, b"lf-sign") % 2 == 0 else -1.0
            vec[coord] += sign
        return vec

    def embed(self, doc: Document) -> np.ndarray:
        vec = self.raw_projection(doc.text)
        norm = np.linalg.norm(vec)
        if norm > 0:
            vec /= norm
        return vec


def _default_embedding_transport(endpoint: str, payload: dict, timeout: float) -> dict:
    import urllib.request

    req = urllib.request.Request(
        endpoint,
        data=json.dumps(payload).encode("utf-8"),
        headers={"Content-Type": "application/json"},
    )
    with urllib.request.urlopen(req, timeout=timeout) as resp:
        return json.loads(resp.read().decode("utf-8"))


@dataclass
class RemoteEmbedder:
    """Embedding service client with a per-document JSONL cache.

    Vectors are cached by (provider config hash, doc id) so re-runs are
    idempotent and never re-bill. The transport is injectable for tests.
    """

    endpoint: str
    model: str
    dim: int = 768
    timeout: float = 30.0
    cache_path: str | None = None
    transport: object = None
    _cache: dict[str, list[float]] = field(default_factory=dict)

    def __post_init__(self):
        if self.transport is None:
            self.transport = _default_embedding_transport
        if self.cache_path:
            self._load_cache()

    def config_hash(self) -> str:
        key = f"remote:{self.endpoint}:{self.model}:{self.dim}"
        return hashlib.sha256(key.encode()).hexdigest()[:16]

    def _load_cache(self):
        """Load cached vectors; a record counts once its newline is on disk."""
        try:
            with open(self.cache_path, "rb") as fh:
                data = fh.read()
        except FileNotFoundError:
            return
        end = data.rfind(b"\n") + 1
        if end < len(data):
            # A write cut short: drop the fragment so the next append starts a line.
            with open(self.cache_path, "r+b") as fh:
                fh.truncate(end)
        for line in data[:end].splitlines():
            if not line.strip():
                continue
            rec = json.loads(line)
            if rec.get("provider_hash") == self.config_hash():
                if len(rec["vector"]) != self.dim:
                    raise DimensionMismatch(
                        f"cached vector for {rec['doc_id']!r} has {len(rec['vector'])} values, "
                        f"expected {self.dim}"
                    )
                self._cache[rec["doc_id"]] = rec["vector"]

    def _append_cache(self, doc_id: str, vector: list[float]):
        if not self.cache_path:
            return
        rec = {"doc_id": doc_id, "provider_hash": self.config_hash(), "vector": vector}
        with open(self.cache_path, "a", encoding="utf-8") as fh:
            fh.write(json.dumps(rec) + "\n")

    def embed(self, doc: Document) -> np.ndarray:
        if doc.id in self._cache:
            return np.asarray(self._cache[doc.id], dtype=float)
        payload = {"model": self.model, "input": doc.text}
        try:
            reply = self.transport(self.endpoint, payload, self.timeout)
        except Exception as exc:
            raise ProviderUnreachable(f"embedding service failed: {exc}") from exc
        vector = reply.get("embedding") if isinstance(reply, dict) else None
        if not isinstance(vector, list):
            raise ProviderUnreachable("embedding service reply holds no embedding list")
        if len(vector) != self.dim:
            raise DimensionMismatch(
                f"embedding service returned {len(vector)} values, expected {self.dim}"
            )
        vector = [float(v) for v in vector]
        self._cache[doc.id] = vector
        self._append_cache(doc.id, vector)
        return np.asarray(vector, dtype=float)


class Featurizer:
    """Doc -> feature vector, plus the ``seed`` and ``pool`` row tables of one dataset.

    ``build_tables`` vectorizes each split once, in split row order; callers
    that hold row indices read those tables. Subclasses supply ``kind``,
    ``vectorize(doc)`` and ``describe()``.
    """

    def __init__(self, dim: int):
        self.dim = dim

    def transform_many(self, docs: list[Document]) -> np.ndarray:
        """One (len(docs), dim) array, row i vectorized from docs[i]."""
        out = np.empty((len(docs), self.dim))
        for row, doc in enumerate(docs):
            out[row] = self.vectorize(doc)
        return out

    def build_tables(self, dataset: Dataset) -> Featurizer:
        self.seed = self.transform_many([ex.doc for ex in dataset.seed])
        self.pool = self.transform_many(dataset.unlabeled)
        return self


class TfidfFeaturizer(Featurizer):
    kind = "tfidf"

    def __init__(self, model: TfidfModel):
        self.model = model
        super().__init__(model.dim)

    def vectorize(self, doc: Document) -> np.ndarray:
        return transform_tfidf(self.model, doc)

    def describe(self) -> dict:
        return {"kind": self.kind, "ngram_range": list(self.model.ngram_range), "dim": self.dim}


class EmbeddingFeaturizer(Featurizer):
    kind = "embedding"

    def __init__(self, provider):
        self.provider = provider
        super().__init__(provider.dim)

    def vectorize(self, doc: Document) -> np.ndarray:
        return self.provider.embed(doc)

    def describe(self) -> dict:
        return {"kind": self.kind, "provider": type(self.provider).__name__, "dim": self.dim}
