import hashlib
import json
import math

import numpy as np
import pytest

from labelforge.config import PipelineConfig
from labelforge.corpus import Dataset, Document, LabeledExample, LabelSpace, TokenIndex, tokenize
from labelforge.errors import LabelForgeError, ProviderUnreachable
from labelforge import features as features_module
from labelforge.features import (
    HashingEmbedder,
    RemoteEmbedder,
    TfidfFeaturizer,
    build_featurizers,
)


def doc(text, doc_id="d"):
    return Document(id=doc_id, text=text)


def index(docs, token_ids=None):
    """The docs as one split's token index, over ``token_ids`` (a fresh vocabulary when None)."""
    return TokenIndex(list(docs), token_ids)


def tfidf_rows(tfidf, docs):
    """The TF-IDF rows of docs indexed over the vocabulary the featurizer was fitted on."""
    return tfidf.transform_many(index(docs, tfidf.token_ids))


def test_tokenizer_basics():
    assert tokenize("Hello, World! a") == ("hello", "world", "a")
    assert tokenize("under_score") == ("under", "score")
    assert tokenize("") == ()
    assert not hasattr(doc("Hello"), "tokens")  # a split's TokenIndex holds the only copy


def test_idf_formula_hand_computed():
    # docs ["a b", "b c"]: df(b)=2, idf(b)=ln(3/3)+1=1.0
    tfidf = TfidfFeaturizer(index([doc("a b", "1"), doc("b c", "2")]), (1, 1), min_token_len=1)
    assert tfidf.idf[tfidf.vocabulary["b"]] == pytest.approx(1.0)
    assert tfidf.idf[tfidf.vocabulary["a"]] == pytest.approx(math.log(3 / 2) + 1)


def test_idf_monotone_in_rarity():
    docs = [doc("x common", str(i)) for i in range(4)] + [doc("rare common", "r")]
    tfidf = TfidfFeaturizer(index(docs), (1, 1), min_token_len=1)
    assert tfidf.idf[tfidf.vocabulary["common"]] < tfidf.idf[tfidf.vocabulary["rare"]]


def test_empty_vocabulary():
    with pytest.raises(LabelForgeError, match="no terms survived tokenization"):
        TfidfFeaturizer(index([doc("", "1"), doc("!!", "2")]))


def test_transform_unit_norm_and_oov():
    docs = [doc("a b", "1"), doc("b c", "2")]
    tfidf = TfidfFeaturizer(index(docs), (1, 1), min_token_len=1)
    vec = tfidf_rows(tfidf, [docs[0]])[0]
    assert np.linalg.norm(vec) == pytest.approx(1.0, abs=1e-9)
    assert np.allclose(tfidf_rows(tfidf, [doc("zz qq")])[0], 0.0)


def test_transform_single_token_doc():
    tfidf = TfidfFeaturizer(index([doc("a b", "1"), doc("b c", "2")]), (1, 1), min_token_len=1)
    vec = tfidf_rows(tfidf, [doc("b b")])[0]
    nonzero = np.flatnonzero(vec)
    assert list(nonzero) == [tfidf.vocabulary["b"]]
    assert vec[tfidf.vocabulary["b"]] == pytest.approx(1.0)


def test_bigram_vocabulary():
    tfidf = TfidfFeaturizer(index([doc("a b c", "1")]), (1, 2), min_token_len=1)
    assert "a b" in tfidf.vocabulary
    assert "b c" in tfidf.vocabulary


def test_fit_permutation_invariant_as_weight_maps():
    docs = [doc("a b", "1"), doc("b c", "2"), doc("c d a", "3")]
    m1 = TfidfFeaturizer(index(docs), (1, 2), min_token_len=1)
    m2 = TfidfFeaturizer(index(reversed(docs)), (1, 2), min_token_len=1)
    for d in docs:
        v1 = tfidf_rows(m1, [d])[0]
        v2 = tfidf_rows(m2, [d])[0]
        w1 = {t: v1[i] for t, i in m1.vocabulary.items() if v1[i]}
        w2 = {t: v2[i] for t, i in m2.vocabulary.items() if v2[i]}
        assert w1.keys() == w2.keys()
        for t in w1:
            assert w1[t] == pytest.approx(w2[t], abs=1e-12)


def signed_hash_oracle(text, dim):
    """Independent recomputation of the documented signed-hash scheme."""
    toks = tokenize(text)
    terms = list(toks) + [" ".join(toks[i:i + 2]) for i in range(len(toks) - 1)]
    vec = np.zeros(dim)
    for term in terms:
        coord = int.from_bytes(
            hashlib.blake2b(term.encode(), digest_size=8, person=b"lf-coord").digest(), "big"
        ) % dim
        sign_bits = int.from_bytes(
            hashlib.blake2b(term.encode(), digest_size=8, person=b"lf-sign").digest(), "big"
        )
        vec[coord] += 1.0 if sign_bits % 2 == 0 else -1.0
    norm = np.linalg.norm(vec)
    return vec / norm if norm > 0 else vec


def test_hashing_tables_equal_per_occurrence_hashing(monkeypatch):
    from labelforge import features

    rng = np.random.default_rng(4)
    words = ["aa", "bb", "cc", "dd", "é", "x"]
    texts = ["", "aa aa aa", "aa bb aa bb"] + [
        " ".join(rng.choice(words, size=rng.integers(0, 12))) for _ in range(200)
    ]
    dataset = Dataset(
        labels=LabelSpace(("pos", "neg")),
        unlabeled=[doc(t, f"u{i}") for i, t in enumerate(texts)],
        seed=[LabeledExample(doc(t, f"s{i}"), i % 2) for i, t in enumerate(texts[:20])],
    )
    hashed = []
    real = features._stable_hash

    def counting(term, personal):
        hashed.append(term)
        return real(term, personal)

    monkeypatch.setattr(features, "_stable_hash", counting)
    emb = HashingEmbedder(dim=16).build_tables(dataset)
    assert np.array_equal(emb.pool, np.stack([signed_hash_oracle(t, 16) for t in texts]))
    assert np.array_equal(emb.seed, np.stack([signed_hash_oracle(t, 16) for t in texts[:20]]))
    assert len(hashed) == 2 * len(set(hashed))  # two hashes per distinct term, no more


def test_hashing_embedder_deterministic():
    emb = HashingEmbedder(dim=64)
    a = emb.transform_many(index([doc("aa bb", "1")]))[0]
    b = emb.transform_many(index([doc("aa bb", "2")]))[0]
    assert np.array_equal(a, b)
    assert np.linalg.norm(a) == pytest.approx(1.0)


def test_hashing_embedder_empty_text():
    assert np.allclose(HashingEmbedder(dim=16).transform_many(index([doc("")]))[0], 0.0)


def test_hashing_embedder_matches_oracle():
    emb = HashingEmbedder(dim=64)
    for text in ("aa bb", "aa bb cc", "the quick brown fox"):
        assert np.allclose(emb.transform_many(index([doc(text)]))[0], signed_hash_oracle(text, 64))


def test_hashing_cosine_between_overlapping_texts():
    emb = HashingEmbedder(dim=64)
    a = emb.transform_many(index([doc("aa bb")]))[0]
    b = emb.transform_many(index([doc("aa bb cc")]))[0]
    cos = float(a @ b)
    expected = float(signed_hash_oracle("aa bb", 64) @ signed_hash_oracle("aa bb cc", 64))
    assert cos == pytest.approx(expected)
    assert 0.0 < cos < 1.0


def test_hashing_one_token_changes_at_most_two_raw_coords(monkeypatch):
    monkeypatch.setattr(features_module, "_normalize_rows", lambda table: table)  # raw counts
    emb = HashingEmbedder(dim=512)
    rng = np.random.default_rng(0)
    words = [f"w{i}" for i in range(40)]
    for _ in range(200):
        base = " ".join(rng.choice(words, size=rng.integers(1, 10)))
        extra = str(rng.choice(words))
        before, after = emb.transform_many(index([doc(base), doc(base + " " + extra)]))
        assert int(np.sum(before != after)) <= 2


def test_remote_embedder_cache(tmp_path):
    calls = []

    def transport(endpoint, payload, timeout):
        calls.append(payload["input"])
        return {"embedding": [1.0, 2.0]}

    cache = str(tmp_path / "cache.jsonl")
    emb = RemoteEmbedder(endpoint="http://x", model="m", dim=2, cache_path=cache, transport=transport)
    v1 = emb.vectorize(doc("hello", "a"))
    v2 = emb.vectorize(doc("hello", "a"))
    assert np.array_equal(v1, v2)
    assert calls == ["hello"]
    # a new provider instance reads the persisted cache
    emb2 = RemoteEmbedder(endpoint="http://x", model="m", dim=2, cache_path=cache, transport=transport)
    emb2.vectorize(doc("hello", "a"))
    assert calls == ["hello"]


def test_remote_embedder_cache_survives_torn_last_line(tmp_path):
    calls = []

    def transport(endpoint, payload, timeout):
        calls.append(payload["input"])
        return {"embedding": [float(len(payload["input"])), 1.0]}

    def embedder():
        return RemoteEmbedder(endpoint="http://x", model="m", dim=2, cache_path=cache,
                              transport=transport)

    cache = str(tmp_path / "cache.jsonl")
    first = embedder()
    first.vectorize(doc("a", "1"))
    first.vectorize(doc("bb", "2"))
    torn = json.dumps({"doc_id": "3", "provider_hash": first.config_hash(), "vector": [3.0, 1.0]})
    with open(cache, "a", encoding="utf-8") as fh:
        fh.write(torn[: len(torn) // 2])

    embedder().vectorize(doc("dddd", "4"))  # loads records 1-2, then appends record 4
    assert calls == ["a", "bb", "dddd"]
    again = embedder()
    for text, doc_id in (("a", "1"), ("bb", "2"), ("dddd", "4")):
        assert again.vectorize(doc(text, doc_id)).tolist() == [float(len(text)), 1.0]
    assert calls == ["a", "bb", "dddd"]
    assert all(json.loads(line) for line in open(cache, encoding="utf-8"))

    lines = open(cache, encoding="utf-8").read().splitlines(keepends=True)
    with open(cache, "w", encoding="utf-8") as fh:
        fh.write(lines[0] + "not json\n" + lines[1])
    with pytest.raises(json.JSONDecodeError):  # damage mid-file is not a torn write
        embedder()


def test_remote_embedder_cache_is_not_a_constructor_argument():
    emb = RemoteEmbedder(endpoint="http://x", model="m", dim=2, transport=lambda *a: None)
    emb._cache["a"] = [1.0, 2.0]
    assert "_cache=" not in repr(emb)
    assert emb == RemoteEmbedder(endpoint="http://x", model="m", dim=2, transport=emb.transport)
    with pytest.raises(TypeError):
        RemoteEmbedder(endpoint="http://x", model="m", _cache={})


def test_remote_embedder_unreachable():
    def transport(endpoint, payload, timeout):
        raise OSError("down")

    emb = RemoteEmbedder(endpoint="http://x", model="m", transport=transport)
    with pytest.raises(ProviderUnreachable):
        emb.vectorize(doc("x", "a"))


def test_featurizer_memoization():
    """transform_many featurizes each doc it is given; tables follow split row order."""
    docs = [doc("a b", "1"), doc("b c", "2"), doc("c a a", "3")]
    feat = TfidfFeaturizer(index(docs), min_token_len=1)
    rows = tfidf_rows(feat, [docs[1], docs[0], docs[1]])
    assert rows.shape == (3, feat.dim)
    for row, d in zip(rows, [docs[1], docs[0], docs[1]]):
        assert np.array_equal(row, tfidf_rows(feat, [d])[0])
    assert tfidf_rows(feat, []).shape == (0, feat.dim)

    dataset = Dataset(
        labels=LabelSpace(("pos", "neg")),
        unlabeled=[docs[2], docs[0]],
        seed=[LabeledExample(doc=docs[1], gold=0)],
    )
    feat = TfidfFeaturizer(dataset.pool_index, min_token_len=1)
    assert feat.build_tables(dataset) is feat
    assert feat.seed.shape == (1, feat.dim) and feat.pool.shape == (2, feat.dim)
    assert np.array_equal(feat.seed[0], tfidf_rows(feat, [docs[1]])[0])
    assert np.array_equal(feat.pool[0], tfidf_rows(feat, [docs[2]])[0])
    assert np.array_equal(feat.pool[1], tfidf_rows(feat, [docs[0]])[0])

    efeat = HashingEmbedder(dim=8).build_tables(dataset)
    assert efeat.transform_many(index([docs[0]])).shape == (1, 8)
    expected = np.stack([HashingEmbedder(dim=8).transform_many(index([d]))[0]
                         for d in dataset.unlabeled])
    assert np.array_equal(efeat.pool, expected)


def test_remote_embedder_rejects_bad_replies_without_caching(tmp_path):
    replies = {
        "good": {"embedding": [1.0, 2.0, 3.0]},
        "short": {"embedding": [0.5]},
        "missing": {"vector": [1.0, 2.0, 3.0]},
        "scalar": {"embedding": 0.5},
    }

    def flaky(endpoint, payload, timeout):
        return replies[payload["input"]]

    def good(endpoint, payload, timeout):
        return {"embedding": [float(len(payload["input"]))] * 3}

    cache = str(tmp_path / "cache.jsonl")
    emb = RemoteEmbedder(endpoint="http://x", model="m", dim=3, cache_path=cache, transport=flaky)
    emb.vectorize(doc("good", "a"))
    with pytest.raises(LabelForgeError, match="embedding service returned 1 values, expected 3"):
        emb.vectorize(doc("short", "b"))
    for text in ("missing", "scalar"):
        with pytest.raises(ProviderUnreachable):
            emb.vectorize(doc(text, text))
    assert [json.loads(line)["doc_id"] for line in open(cache, encoding="utf-8")] == ["a"]

    fresh = RemoteEmbedder(endpoint="http://x", model="m", dim=3, cache_path=cache, transport=good)
    rows = fresh.transform_many(index([doc("good", "a"), doc("short", "b")]))
    assert rows.tolist() == [[1.0, 2.0, 3.0], [5.0, 5.0, 5.0]]

    short = {"doc_id": "z", "provider_hash": fresh.config_hash(), "vector": [0.5]}
    with open(cache, "a", encoding="utf-8") as fh:
        fh.write(json.dumps(short) + "\n")
    # a cache written before replies were checked
    with pytest.raises(LabelForgeError, match="cached vector for 'z' has 1 values, expected 3"):
        RemoteEmbedder(endpoint="http://x", model="m", dim=3, cache_path=cache, transport=good)


def test_tfidf_drops_tokens_below_the_length_floor():
    d = doc("a bb a cc")
    assert tokenize(d.text) == ("a", "bb", "a", "cc")
    tfidf = TfidfFeaturizer(index([d]), (1, 2))
    assert sorted(tfidf.vocabulary) == ["bb", "bb cc", "cc"]


def test_build_featurizers_fits_each_once_and_describes_them():
    docs = [doc("sun warm a", "u0"), doc("rain cold b", "u1"), doc("sun cold", "u2")]
    dataset = Dataset(
        labels=LabelSpace(("pos", "neg")),
        unlabeled=docs[:2],
        seed=[LabeledExample(doc=docs[2], gold=0)],
    )
    cfg = PipelineConfig()
    cfg.embedding = {"kind": "hashing", "dim": 8}
    structural, semantic, downstream = build_featurizers(dataset, cfg)
    assert [f.describe() for f in structural] == [
        {"kind": "tfidf", "ngram_range": [1, 1], "dim": 4},
        {"kind": "tfidf", "ngram_range": [1, 2], "dim": 6},
    ]
    assert [f.describe() for f in semantic] == [
        {"kind": "embedding", "provider": "HashingEmbedder", "dim": 8},
    ]
    assert downstream is structural[0]  # the downstream range (1, 1) is fitted once
    for feat in structural + semantic:
        assert feat.seed.shape == (1, feat.dim) and feat.pool.shape == (2, feat.dim)

    cfg.downstream = {**cfg.downstream, "ngram_range": [2, 2]}
    structural, _, downstream = build_featurizers(dataset, cfg)
    assert all(downstream is not f for f in structural)
    assert downstream.describe() == {"kind": "tfidf", "ngram_range": [2, 2], "dim": 2}
    assert downstream.pool.shape == (2, 2)


class PerDocTfidf:
    """The per-document TF-IDF that split tables replaced, kept as the reference."""

    def __init__(self, docs, ngram_range, min_df=1, min_token_len=2):
        self.ngram_range = tuple(ngram_range)
        self.min_token_len = min_token_len
        df = {}
        for d in docs:
            for term in set(self._ngrams(d)):
                df[term] = df.get(term, 0) + 1
        terms = sorted(t for t, c in df.items() if c >= min_df)
        self.vocabulary = {t: i for i, t in enumerate(terms)}
        n = len(docs)
        self.idf = np.array([np.log((1 + n) / (1 + df[t])) + 1.0 for t in terms])
        self.dim = len(terms)

    def _ngrams(self, d):
        tokens = [t for t in tokenize(d.text) if len(t) >= self.min_token_len]
        lo, hi = self.ngram_range
        for n in range(lo, hi + 1):
            for i in range(len(tokens) - n + 1):
                yield " ".join(tokens[i:i + n])

    def vectorize(self, d):
        vec = np.zeros(self.dim)
        for term in self._ngrams(d):
            col = self.vocabulary.get(term)
            if col is not None:
                vec[col] += 1.0
        vec *= self.idf
        norm = np.linalg.norm(vec)
        if norm > 0:
            vec /= norm
        return vec


def per_doc_hashing(docs, dim):
    """The per-document hashing projection that split tables replaced, kept as the reference."""
    rows = []
    for d in docs:
        toks = tokenize(d.text)
        terms = list(toks) + [" ".join(toks[i:i + 2]) for i in range(len(toks) - 1)]
        found = [
            2 * (features_module._stable_hash(t, b"lf-coord") % dim)
            + features_module._stable_hash(t, b"lf-sign") % 2
            for t in terms
        ]
        counts = np.bincount(found, minlength=2 * dim).astype(float)
        vec = counts[0::2] - counts[1::2]
        norm = np.linalg.norm(vec)
        if norm > 0:
            vec /= norm
        rows.append(vec)
    return np.stack(rows) if rows else np.zeros((0, dim))


def random_split_docs(rng, words, n, prefix):
    texts = ["", "a", "é é Σ", "bb bb bb", "a bb a cc"] + [
        " ".join(rng.choice(words, size=rng.integers(0, 14))) for _ in range(n)
    ]
    return [doc(t, f"{prefix}{i}") for i, t in enumerate(texts)]


@pytest.mark.parametrize("block_tokens", [1 << 16, 5])  # one block per split, and many
@pytest.mark.parametrize("ngram_range", [(1, 1), (1, 2), (2, 2), (1, 3)])
def test_split_tables_equal_the_per_doc_reference(ngram_range, block_tokens, monkeypatch):
    monkeypatch.setattr(features_module, "BLOCK_TOKENS", block_tokens)
    rng = np.random.default_rng(11)
    words = ["a", "b", "bb", "cc", "dd", "ee", "Σx", "σ", "naïve", "zz9", "x"]
    pool = random_split_docs(rng, words, 300, "u")
    seed = random_split_docs(rng, words, 30, "s")
    oov = words + ["m"] + [f"new{i}" for i in range(40)]  # tokens the pool never holds
    test = random_split_docs(rng, oov, 80, "t")
    dataset = Dataset(
        labels=LabelSpace(("pos", "neg")),
        unlabeled=pool,
        seed=[LabeledExample(d, i % 2) for i, d in enumerate(seed)],
        test=[LabeledExample(d, i % 2) for i, d in enumerate(test)],
    )
    feat = TfidfFeaturizer(dataset.pool_index, ngram_range).build_tables(dataset)
    ref = PerDocTfidf(pool, ngram_range)
    assert feat.vocabulary == ref.vocabulary
    assert np.array_equal(feat.idf, ref.idf)
    test_index = dataset.test_index
    assert test_index.token_ids is dataset.pool_index.token_ids is feat.token_ids
    assert test_index.docs == test
    test_table = feat.transform_many(test_index)
    for table, docs in ((feat.pool, pool), (feat.seed, seed), (test_table, test)):
        assert np.array_equal(table, np.stack([ref.vectorize(d) for d in docs]))
    for d in test[:12]:  # one-doc splits, some shorter than an n-gram
        assert np.array_equal(tfidf_rows(feat, [d])[0], ref.vectorize(d))

    emb = HashingEmbedder(dim=16).build_tables(dataset)
    test_table = emb.transform_many(test_index)
    for table, docs in ((emb.pool, pool), (emb.seed, seed), (test_table, test)):
        assert np.array_equal(table, per_doc_hashing(docs, 16))


def test_tfidf_rejects_an_index_over_another_vocabulary():
    docs = [doc("a b", "1"), doc("b c", "2")]
    tfidf = TfidfFeaturizer(index(docs), (1, 1), min_token_len=1)
    assert tfidf_rows(tfidf, docs).shape == (2, tfidf.dim)
    with pytest.raises(ValueError, match="vocabulary"):
        tfidf.transform_many(index(docs))  # same tokens, but a fresh vocabulary
    with pytest.raises(ValueError, match="vocabulary"):
        tfidf.transform_many(index(docs, dict(tfidf.token_ids)))  # an equal copy is not it
