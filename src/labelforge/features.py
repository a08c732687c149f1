"""Deterministic text featurization: TF-IDF and embeddings.

Each featurizer is one fitted model that vectorizes a document from its
cached tokens. TF-IDF backs structural label functions and the downstream
classifier; embeddings back semantic ones. The default embedder is a
dependency-free signed hashing projection so the semantic pathway runs fully
offline; a remote embedder with an on-disk cache covers real encoder services.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field

import numpy as np

from .corpus import Dataset, Document
from .errors import DimensionMismatch, EmptyVocabulary, ProviderUnreachable


class Featurizer:
    """Doc -> feature vector, plus the ``seed`` and ``pool`` row tables of one dataset.

    ``build_tables`` vectorizes each split once, in split row order; callers
    that hold row indices read those tables. Subclasses set ``dim`` and supply
    ``kind``, ``vectorize(doc)`` and ``describe()``.
    """

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
    """TF-IDF over n-grams of a doc's tokens of at least ``min_token_len`` characters.

    Fitting on ``docs`` builds the vocabulary and the smoothed idf
    ln((1 + N) / (1 + df_t)) + 1, strictly positive. Vocabulary terms are
    index-assigned in sorted order so fitting is order-independent. A vector
    is term counts scaled by idf, then L2-normalized; OOV terms are ignored.
    """

    kind = "tfidf"

    def __init__(
        self,
        docs: list[Document],
        ngram_range: tuple[int, int] = (1, 2),
        min_df: int = 1,
        min_token_len: int = 2,
    ):
        if not docs:
            raise ValueError("TF-IDF fitting needs at least one document")
        self.ngram_range = tuple(ngram_range)
        self.min_token_len = min_token_len
        df: dict[str, int] = {}
        for doc in docs:
            for term in set(self._ngrams(doc)):
                df[term] = df.get(term, 0) + 1
        terms = sorted(t for t, c in df.items() if c >= min_df)
        if not terms:
            raise EmptyVocabulary("no terms survived tokenization")
        self.vocabulary = {t: i for i, t in enumerate(terms)}
        n = len(docs)
        self.idf = np.array([np.log((1 + n) / (1 + df[t])) + 1.0 for t in terms])
        self.dim = len(terms)

    def _ngrams(self, doc: Document):
        tokens = [t for t in doc.tokens if len(t) >= self.min_token_len]
        lo, hi = self.ngram_range
        for n in range(lo, hi + 1):
            for i in range(len(tokens) - n + 1):
                yield " ".join(tokens[i:i + n])

    def vectorize(self, doc: Document) -> np.ndarray:
        vec = np.zeros(self.dim)
        for term in self._ngrams(doc):
            col = self.vocabulary.get(term)
            if col is not None:
                vec[col] += 1.0
        vec *= self.idf
        norm = np.linalg.norm(vec)
        if norm > 0:
            vec /= norm
        return vec

    def describe(self) -> dict:
        return {"kind": self.kind, "ngram_range": list(self.ngram_range), "dim": self.dim}


def _stable_hash(term: str, personal: bytes) -> int:
    digest = hashlib.blake2b(term.encode("utf-8"), digest_size=8, person=personal).digest()
    return int.from_bytes(digest, "big")


class HashingEmbedder(Featurizer):
    """Signed-hash projection of unigrams and bigrams onto a fixed dimension.

    Each term lands on coordinate blake2b(term) mod dim with a sign drawn from
    an independent hash; the accumulated vector is L2-normalized. Output
    depends only on (text, dim), so it is identical across runs and platforms.

    A term is hashed once per embedder: its code (2 * coord, plus 1 when the
    sign is negative) is kept in ``_codes``. A row counts its codes and takes
    positive minus negative counts; every sum is a small exact integer, so the
    float64 bits do not depend on the order terms are added in.
    """

    kind = "embedding"

    def __init__(self, dim: int = 256):
        self.dim = dim
        self._codes: dict[str, int] = {}

    def _code(self, term: str) -> int:
        coord = _stable_hash(term, b"lf-coord") % self.dim
        negative = _stable_hash(term, b"lf-sign") % 2
        code = self._codes[term] = 2 * coord + negative
        return code

    def raw_projection(self, tokens: tuple[str, ...]) -> np.ndarray:
        codes = self._codes
        terms = list(tokens) + [" ".join(tokens[i:i + 2]) for i in range(len(tokens) - 1)]
        found = [codes[t] if t in codes else self._code(t) for t in terms]
        counts = np.bincount(found, minlength=2 * self.dim).astype(float)
        return counts[0::2] - counts[1::2]

    def vectorize(self, doc: Document) -> np.ndarray:
        vec = self.raw_projection(doc.tokens)
        norm = np.linalg.norm(vec)
        if norm > 0:
            vec /= norm
        return vec

    def describe(self) -> dict:
        return {"kind": self.kind, "provider": type(self).__name__, "dim": self.dim}


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
class RemoteEmbedder(Featurizer):
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

    kind = "embedding"

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

    def vectorize(self, doc: Document) -> np.ndarray:
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

    def describe(self) -> dict:
        return {"kind": self.kind, "provider": type(self).__name__, "dim": self.dim}


def build_featurizers(dataset: Dataset, config) -> tuple[list, list, TfidfFeaturizer]:
    """The structural and semantic featurizers and the downstream one, tables built.

    The downstream featurizer is the structural one with the downstream
    n-gram range; only when no structural range matches is another fitted.
    """
    tfidf = config.tfidf

    def fit(ngram_range) -> TfidfFeaturizer:
        return TfidfFeaturizer(
            dataset.unlabeled, ngram_range, tfidf["min_df"], tfidf["min_token_len"]
        ).build_tables(dataset)

    structural = [fit(ngram_range) for ngram_range in tfidf["ngram_ranges"]]
    embedding = config.embedding
    if embedding["kind"] == "hashing":
        semantic = HashingEmbedder(dim=embedding["dim"])
    else:
        semantic = RemoteEmbedder(
            endpoint=embedding["endpoint"],
            model=embedding["model"],
            dim=embedding["dim"],
            cache_path=embedding.get("cache_path"),
        )
    target = tuple(config.downstream["ngram_range"])
    downstream = next((f for f in structural if f.ngram_range == target), None) or fit(target)
    return structural, [semantic.build_tables(dataset)], downstream
