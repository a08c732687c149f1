"""Deterministic text featurization: TF-IDF and embeddings.

Each featurizer is one fitted model that turns a whole split into a row
table at once. TF-IDF and the hashing embedder read the split's token ids
(``corpus.TokenIndex``) and only count: per ``corpus.row_blocks`` range, an
array program yields each cell's exact integer count, and one ``Featurizer``
step scales and L2-normalizes the block. Their unlabeled-pool tables are kept
as those blocks' nonzeros (``SparseRows``), which products densify one block
at a time. The remote embedder, which needs one service call per document,
embeds each document's text. TF-IDF backs structural label functions and the
downstream classifier; embeddings back semantic ones. The default embedder is
a dependency-free signed hashing projection so the semantic pathway runs fully
offline; a remote embedder with an on-disk cache covers real encoder services.
"""

from __future__ import annotations

import hashlib
import json
import sys
from dataclasses import dataclass, field

import numpy as np

from .corpus import Dataset, Document, TokenIndex, row_blocks
from .errors import LabelForgeError, ProviderUnreachable, post_json, with_retries


def _normalize_rows(table: np.ndarray) -> np.ndarray:
    """L2-normalize each nonzero row in place by sqrt(row.dot(row)), as ``np.linalg.norm``."""
    norms = np.sqrt(np.vecdot(table, table))[:, None]  # row.dot(row)'s bits, which einsum's are not
    return np.divide(table, norms, out=table, where=norms > 0)


def _long_tokens(token_ids: dict[str, int], min_token_len: int) -> np.ndarray:
    """Per token id: whether the token has at least ``min_token_len`` characters."""
    return np.fromiter((len(t) >= min_token_len for t in token_ids), bool, len(token_ids))


def _ngrams(index: TokenIndex, block: tuple[int, int], ngram_range, long: np.ndarray, base: int):
    """(row, code) of every n-gram occurrence in a block of rows, as two int64 arrays.

    Tokens that are not ``long`` are dropped first, so they never break
    adjacency. An n-gram within one row is coded as its token ids in base
    ``base`` (digit = id + 1). Ids from ``base - 2`` up, tokens a fit never
    saw, keep their place under the reserved digit ``base - 1``: they break
    adjacency, and their n-grams match no fitted code.
    """
    ids = index.ids[index.offsets[block[0]]:index.offsets[block[1]]]
    kept = long[ids]
    token_rows = index.token_rows(*block)[kept].astype(np.int64)
    digits = np.minimum(ids[kept], base - 2).astype(np.int64) + 1
    rows, codes = [np.zeros(0, np.int64)], [np.zeros(0, np.int64)]
    for n in range(ngram_range[0], ngram_range[1] + 1):
        m = len(digits) - n + 1
        if m <= 0:
            continue
        code = digits[:m].copy()
        for j in range(1, n):
            code *= base
            code += digits[j:j + m]
        within = token_rows[:m] == token_rows[n - 1:]
        rows.append(token_rows[:m][within])
        codes.append(code[within])
    return np.concatenate(rows), np.concatenate(codes)


def _term(code: int, base: int, tokens: list[str]) -> str:
    """The n-gram string of an ``_ngrams`` code; ``tokens`` lists the tokens by id."""
    words = []
    while code:
        code, digit = divmod(code, base)
        words.append(tokens[digit - 1])
    return " ".join(reversed(words))


class SparseRows:
    """A float64 (n, dim) row table kept as its nonzeros, one ``row_blocks`` range at a time.

    ``parts[j]`` is range j's (float64 values, ``int32`` cells): the cells are
    flat positions (row within the range * dim + column) in the range's dense
    block, which fit while dim is under 1.39 million. Products never read the
    table sparse: ``table_blocks`` densifies one range at a time, so each
    product is a dense one over a block of rows.
    """

    def __init__(self, shape: tuple[int, int], parts: list[tuple[np.ndarray, np.ndarray]]):
        self.shape, self.parts = shape, parts

    def __len__(self) -> int:
        return self.shape[0]


def table_blocks(table):
    """Yield (lo, hi, rows) per ``row_blocks`` range of a table: rows lo to hi - 1 as a view,
    or of a ``SparseRows`` written into one buffer that every block of this call reuses."""
    spans = row_blocks(len(table))
    if not isinstance(table, SparseRows):
        yield from ((lo, hi, table[lo:hi]) for lo, hi in spans)
        return
    buf = np.zeros((max(hi - lo for lo, hi in spans), table.shape[1]))
    flat = buf.reshape(-1)
    for (lo, hi), (values, cells) in zip(spans, table.parts, strict=True):
        at = cells.astype(np.intp)  # cast once, for the write and the reset
        flat[at] = values
        yield lo, hi, buf[:hi - lo]
        flat[at] = 0.0


def dense(table) -> np.ndarray:
    """A row table as one dense array: a ``SparseRows`` densified, an array as it is."""
    if not isinstance(table, SparseRows):
        return table
    out = np.empty(table.shape)
    for lo, hi, rows in table_blocks(table):
        out[lo:hi] = rows
    return out


class Featurizer:
    """Split -> row table, plus the ``seed`` and ``pool`` tables of one dataset.

    ``transform_many(index)``, index a split's ``TokenIndex``, returns one
    dense (len(index), dim) array. ``build_tables`` featurizes each split
    once, from the dataset's token indexes, in split row order: the seed table
    dense, and the pool table as its nonzeros (``SparseRows``), never dense
    whole. Subclasses set ``dim`` and ``ngram_range`` and supply ``kind`` and
    ``_counts``, or override ``transform_many`` and ``build_tables``.

    ``_counts(index)`` yields, for each ``row_blocks`` range (lo, hi) of
    ``index``, the ascending flat cells (row - lo) * dim + column of the
    range's nonzero counts and those exact integer counts (a count may be 0).
    ``_rows`` scales them by ``idf`` per column, when it is set, and
    L2-normalizes each row.
    """

    idf: np.ndarray | None = None

    def describe(self) -> dict:
        return {"kind": self.kind, "provider": type(self).__name__, "dim": self.dim}

    def _rows(self, index: TokenIndex):
        """Yield (lo, hi, rows, cells) for each ``row_blocks`` range of ``index``: rows is
        the range's vectors, written into one buffer that every block of this call
        reuses, and cells the ascending flat positions in rows of all its nonzeros."""
        spans = row_blocks(len(index))
        buf = np.zeros((max(hi - lo for lo, hi in spans), self.dim))
        flat = buf.reshape(-1)
        for (lo, hi), (cells, counts) in zip(spans, self._counts(index), strict=True):
            flat[cells] = counts if self.idf is None else counts * self.idf[cells % self.dim]
            yield lo, hi, _normalize_rows(buf[:hi - lo]), cells
            flat[cells] = 0.0

    def transform_many(self, index: TokenIndex) -> np.ndarray:
        table = np.empty((len(index), self.dim))
        for lo, hi, rows, _ in self._rows(index):
            table[lo:hi] = rows
        return table

    def build_tables(self, dataset: Dataset) -> Featurizer:
        self.seed = self.transform_many(dataset.seed_index)
        index = dataset.pool_index
        self.pool = SparseRows((len(index), self.dim), [
            (rows.reshape(-1)[cells], cells.astype(np.int32))
            for _, _, rows, cells in self._rows(index)])
        return self


class TfidfFeaturizer(Featurizer):
    """TF-IDF over n-grams of a doc's tokens of at least ``min_token_len`` characters.

    Fitting on a split's ``index`` builds the vocabulary and the smoothed idf
    ln((1 + N) / (1 + df_t)) + 1, strictly positive. Vocabulary terms are
    index-assigned in sorted order so fitting is order-independent. A vector
    is term counts scaled by idf, then L2-normalized; OOV terms are ignored.

    The n-grams of a split are counted from its token ids (``_ngrams``);
    each distinct n-gram code of the fit is mapped to its string once.
    """

    kind = "tfidf"

    def __init__(
        self,
        index: TokenIndex,
        ngram_range: tuple[int, int] = (1, 2),
        min_df: int = 1,
        min_token_len: int = 2,
    ):
        if not len(index):
            raise ValueError("TF-IDF fitting needs at least one document")
        self.ngram_range = tuple(ngram_range)
        self.min_token_len = min_token_len
        self.token_ids = index.token_ids
        self._base = len(self.token_ids) + 2
        if float(self._base) ** self.ngram_range[1] >= 2.0 ** 63:
            raise ValueError(f"ngram_range {self.ngram_range} is too wide for int64 n-gram codes")
        long, in_rows = _long_tokens(self.token_ids, min_token_len), [np.zeros(0, np.int64)]
        for block in row_blocks(len(index)):
            rows, codes = _ngrams(index, block, self.ngram_range, long, self._base)
            distinct, inverse = np.unique(codes, return_inverse=True)
            # distinct (row, code) pairs; a return_* argument keeps np.unique on its sort path
            pairs, _ = np.unique(rows * len(distinct) + inverse, return_counts=True)
            in_rows.append(distinct[pairs % len(distinct)])
        codes, df = np.unique(np.concatenate(in_rows), return_counts=True)
        codes, df = codes[df >= min_df], df[df >= min_df]
        if not len(codes):
            raise LabelForgeError("no terms survived tokenization")
        tokens = list(self.token_ids)
        terms = [_term(code, self._base, tokens) for code in codes.tolist()]
        order = sorted(range(len(terms)), key=terms.__getitem__)
        self._codes = codes  # ascending; code self._codes[i] is column self._columns[i]
        self._columns = np.empty(len(codes), dtype=np.int64)
        self._columns[order] = np.arange(len(codes))
        n = len(index)
        self.idf = np.log((1 + n) / (1 + df[order])) + 1.0
        self.dim = len(terms)

    def _counts(self, index: TokenIndex):
        if index.token_ids is not self.token_ids:
            raise ValueError("TF-IDF transforms only indexes over the vocabulary it was fitted on")
        long = _long_tokens(index.token_ids, self.min_token_len)
        for lo, hi in row_blocks(len(index)):
            rows, codes = _ngrams(index, (lo, hi), self.ngram_range, long, self._base)
            at = np.minimum(np.searchsorted(self._codes, codes), len(self._codes) - 1)
            known = self._codes[at] == codes
            yield np.unique((rows[known] - lo) * self.dim + self._columns[at[known]],
                            return_counts=True)

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
    sign is negative) is kept in ``_codes``; each block of a split looks up
    its distinct n-grams once. A cell sums +1 or -1 per n-gram that lands on
    it: every sum is a small exact integer, so the float64 bits do not depend
    on the order terms are added in.
    """

    kind = "embedding"
    ngram_range = (1, 2)

    def __init__(self, dim: int = 256):
        self.dim = dim
        self._codes: dict[str, int] = {}

    def _code(self, term: str) -> int:
        code = self._codes.get(term)
        if code is None:
            coord = _stable_hash(term, b"lf-coord") % self.dim
            negative = _stable_hash(term, b"lf-sign") % 2
            code = self._codes[term] = 2 * coord + negative
        return code

    def _counts(self, index: TokenIndex):
        tokens = list(index.token_ids)
        long, base = np.ones(len(tokens), bool), len(tokens) + 2
        coded: dict[int, int] = {}  # n-gram code of this call -> ``_code`` of its string
        for lo, hi in row_blocks(len(index)):
            rows, codes = _ngrams(index, (lo, hi), self.ngram_range, long, base)
            terms, at = np.unique(codes, return_inverse=True)
            for c in set(terms.tolist()).difference(coded):
                coded[c] = self._code(_term(c, base, tokens))
            codes = np.array([coded[c] for c in terms.tolist()], dtype=np.int64)[at]
            # code // 2 is the coordinate, code % 2 the sign bit; a cell whose signs
            # cancel keeps its count of 0
            cells, at = np.unique((rows - lo) * self.dim + codes // 2, return_inverse=True)
            yield cells, np.bincount(at, 1 - 2 * (codes % 2), len(cells))


@dataclass
class RemoteEmbedder(Featurizer):
    """Embedding service client with a per-document JSONL cache.

    Vectors are cached by (provider config hash, doc id, SHA-256 of the
    text), so re-runs are idempotent and never re-bill, and a changed text
    misses. A record without the text digest never hits: its document is
    requested again once and cached with the digest. A failed call is tried
    ``errors.RETRIES`` times; a reply is checked once, and only a vector of
    ``dim`` finite numbers is kept. The transport is injectable for tests.
    """

    endpoint: str
    model: str
    dim: int = 768
    timeout: float = 30.0
    cache_path: str | None = None
    transport: object = post_json
    _cache: dict[tuple, list[float]] = field(default_factory=dict, init=False, repr=False,
                                           compare=False)

    kind = "embedding"

    def __post_init__(self):
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
                source = f"cached vector for {rec['doc_id']!r}"
                key = (rec["doc_id"], rec.get("text_sha256"))
                self._cache[key] = self._checked(rec["vector"], source)

    def _checked(self, vector: list, source: str) -> list[float]:
        """``vector`` as floats, once it holds ``dim`` finite real numbers (no bool or string)."""
        if len(vector) != self.dim:
            raise LabelForgeError(f"{source} has {len(vector)} values, expected {self.dim}")
        for v in vector:  # a comparison with NaN is false; an int is compared exactly
            if type(v) not in (int, float) or not abs(v) <= sys.float_info.max:
                raise LabelForgeError(f"{source} holds {v!r}, not a finite number")
        return [float(v) for v in vector]

    def _append_cache(self, key: tuple, vector: list[float]):
        if not self.cache_path:
            return
        rec = {"doc_id": key[0], "provider_hash": self.config_hash(), "text_sha256": key[1],
               "vector": vector}
        with open(self.cache_path, "a", encoding="utf-8") as fh:
            fh.write(json.dumps(rec) + "\n")

    def build_tables(self, dataset: Dataset) -> Featurizer:
        """Both tables dense: a service's vectors have no zeros to leave out."""
        self.seed = self.transform_many(dataset.seed_index)
        self.pool = self.transform_many(dataset.pool_index)
        return self

    def transform_many(self, index: TokenIndex) -> np.ndarray:
        out = np.empty((len(index), self.dim))
        for row, doc in enumerate(index):
            out[row] = self.vectorize(doc)
        return out

    def vectorize(self, doc: Document) -> np.ndarray:
        key = (doc.id, hashlib.sha256(doc.text.encode("utf-8")).hexdigest())
        if key in self._cache:
            return np.asarray(self._cache[key], dtype=float)
        payload = {"model": self.model, "input": doc.text}
        headers = {"Content-Type": "application/json"}
        reply = with_retries("embedding service", lambda: self.transport(
            self.endpoint, payload, headers, self.timeout))
        vector = reply.get("embedding") if isinstance(reply, dict) else None
        if not isinstance(vector, list):
            raise ProviderUnreachable("embedding service reply holds no embedding list")
        vector = self._checked(vector, f"embedding service reply for {doc.id!r}")
        self._cache[key] = vector
        self._append_cache(key, vector)
        return np.asarray(vector, dtype=float)


def build_featurizers(dataset: Dataset, config) -> tuple[list, list, TfidfFeaturizer]:
    """The structural and semantic featurizers and the downstream one, tables built.

    The downstream featurizer is the structural one with the downstream
    n-gram range; only when no structural range matches is another fitted.
    Its pool table is kept dense: the downstream MLP reads it row by row.
    """
    tfidf = config.tfidf

    def fit(ngram_range) -> TfidfFeaturizer:
        return TfidfFeaturizer(
            dataset.pool_index, ngram_range, tfidf["min_df"], tfidf["min_token_len"]
        ).build_tables(dataset)

    structural = [fit(ngram_range) for ngram_range in tfidf["ngram_ranges"]]
    params = dict(config.embedding)
    embedder = HashingEmbedder if params.pop("kind") == "hashing" else RemoteEmbedder
    semantic = embedder(**params)
    target = tuple(config.downstream["ngram_range"])
    downstream = next((f for f in structural if f.ngram_range == target), None) or fit(target)
    downstream.pool = dense(downstream.pool)
    return structural, [semantic.build_tables(dataset)], downstream
