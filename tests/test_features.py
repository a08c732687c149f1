import hashlib
import json
import math
import os
import re
import time
import tracemalloc

import numpy as np
import pytest

from labelforge.config import PipelineConfig
from labelforge import corpus as corpus_module
from labelforge.corpus import (
    Dataset, Document, LabeledExample, LabelSpace, TokenIndex, row_blocks, tokenize,
)
from labelforge.errors import LabelForgeError, ProviderUnreachable
from labelforge import features as features_module
from labelforge.features import (
    HashingEmbedder,
    RemoteEmbedder,
    SparseRows,
    TfidfFeaturizer,
    build_featurizers,
    dense,
    table_blocks,
)


def doc(text, doc_id="d"):
    return Document(id=doc_id, text=text)


def index(docs, token_ids=None):
    """The docs as one split's token index, over ``token_ids`` (a fresh vocabulary when None)."""
    return TokenIndex(list(docs), token_ids)


def vocabulary(tfidf):
    """A fitted TF-IDF featurizer's term -> column map, read from the codes its transforms use."""
    tokens = list(tfidf.token_ids)
    return {features_module._term(code, tfidf._base, tokens): col
            for code, col in zip(tfidf._codes.tolist(), tfidf._columns.tolist())}


def tfidf_rows(tfidf, docs):
    """The TF-IDF rows of docs indexed over the vocabulary the featurizer was fitted on."""
    return tfidf.transform_many(index(docs, tfidf.token_ids))


# what a transport raises when the service times out or answers with a body that is not JSON
TRANSPORT_FAILURES = {"timeout": TimeoutError("timed out"),
                      "malformed_json": json.JSONDecodeError("Expecting value", "<html>", 0)}


@pytest.fixture
def sleeps(monkeypatch):
    """The seconds the retry loop sleeps, recorded instead of slept."""
    slept = []
    monkeypatch.setattr(time, "sleep", slept.append)
    return slept


def test_tokenizer_basics():
    assert tokenize("Hello, World! a") == ("hello", "world", "a")
    assert tokenize("under_score") == ("under", "score")
    assert tokenize("") == ()
    assert not hasattr(doc("Hello"), "tokens")  # a split's TokenIndex holds the only copy


def test_idf_formula_hand_computed():
    # docs ["a b", "b c"]: df(b)=2, idf(b)=ln(3/3)+1=1.0
    tfidf = TfidfFeaturizer(index([doc("a b", "1"), doc("b c", "2")]), (1, 1), min_token_len=1)
    assert tfidf.idf[vocabulary(tfidf)["b"]] == pytest.approx(1.0)
    assert tfidf.idf[vocabulary(tfidf)["a"]] == pytest.approx(math.log(3 / 2) + 1)


def test_idf_monotone_in_rarity():
    docs = [doc("x common", str(i)) for i in range(4)] + [doc("rare common", "r")]
    tfidf = TfidfFeaturizer(index(docs), (1, 1), min_token_len=1)
    assert tfidf.idf[vocabulary(tfidf)["common"]] < tfidf.idf[vocabulary(tfidf)["rare"]]


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
    assert list(nonzero) == [vocabulary(tfidf)["b"]]
    assert vec[vocabulary(tfidf)["b"]] == pytest.approx(1.0)


def test_bigram_vocabulary():
    tfidf = TfidfFeaturizer(index([doc("a b c", "1")]), (1, 2), min_token_len=1)
    assert "a b" in vocabulary(tfidf)
    assert "b c" in vocabulary(tfidf)


def test_fit_permutation_invariant_as_weight_maps():
    docs = [doc("a b", "1"), doc("b c", "2"), doc("c d a", "3")]
    m1 = TfidfFeaturizer(index(docs), (1, 2), min_token_len=1)
    m2 = TfidfFeaturizer(index(reversed(docs)), (1, 2), min_token_len=1)
    for d in docs:
        v1 = tfidf_rows(m1, [d])[0]
        v2 = tfidf_rows(m2, [d])[0]
        w1 = {t: v1[i] for t, i in vocabulary(m1).items() if v1[i]}
        w2 = {t: v2[i] for t, i in vocabulary(m2).items() if v2[i]}
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
    assert np.array_equal(dense(emb.pool), np.stack([signed_hash_oracle(t, 16) for t in texts]))
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


def test_hashing_terms_that_cancel_leave_a_kept_zero():
    """In "b c" at dim 8, "b" and "b c" land on coordinate 5 with opposite signs: the
    cell reads 0.0 (not -0.0) in the dense rows, and is kept, as 0.0, among the nonzeros."""
    h = features_module._stable_hash
    assert h("b", b"lf-coord") % 8 == h("b c", b"lf-coord") % 8 == 5 != h("c", b"lf-coord") % 8
    assert h("b", b"lf-sign") % 2 != h("b c", b"lf-sign") % 2
    pool = [doc("b c", "u0"), doc("b", "u1"), doc("c b", "u2")]
    dataset = Dataset(labels=LabelSpace(("pos", "neg")), unlabeled=pool,
                      seed=[LabeledExample(doc("b c", "s"), 0)])
    emb = HashingEmbedder(dim=8).build_tables(dataset)
    for rows in (emb.transform_many(dataset.pool_index), emb.seed):
        assert rows[0, 5] == 0.0 and not np.signbit(rows[0, 5])
        assert np.count_nonzero(rows[0]) == 1
    assert np.array_equal(dense(emb.pool), emb.transform_many(dataset.pool_index))
    [(values, cells)] = emb.pool.parts
    assert 5 in cells.tolist()
    kept = values[cells.tolist().index(5)]
    assert kept == 0.0 and not np.signbit(kept)
    assert abs(emb.seed[0].sum()) == 1.0  # the row is "c" alone, normalized


def test_remote_embedder_cache(tmp_path):
    calls = []

    def transport(endpoint, payload, headers, timeout):
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


def test_remote_embedder_cache_is_keyed_by_the_text(tmp_path):
    """A doc whose text changed calls the service and caches the new vector; an unchanged
    text makes no call, in this embedder or in one over the same cache file. A record
    written without the text digest never hits: its doc is requested once more."""
    calls = []

    def transport(endpoint, payload, headers, timeout):
        calls.append(payload["input"])
        return {"embedding": [float(len(payload["input"])), 1.0]}

    def embedder():
        return RemoteEmbedder(endpoint="http://x", model="m", dim=2, cache_path=cache,
                              transport=transport)

    cache = str(tmp_path / "cache.jsonl")
    legacy = {"doc_id": "d1", "provider_hash": embedder().config_hash(), "vector": [9.0, 9.0]}
    with open(cache, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(legacy) + "\n")
    assert embedder().vectorize(doc("old", "d1")).tolist() == [3.0, 1.0]
    second = embedder()
    assert second.vectorize(doc("old", "d1")).tolist() == [3.0, 1.0]
    assert calls == ["old"]
    assert second.vectorize(doc("changed", "d1")).tolist() == [7.0, 1.0]
    assert calls == ["old", "changed"]
    third = embedder()
    for text, vector in (("changed", [7.0, 1.0]), ("old", [3.0, 1.0])):
        assert third.vectorize(doc(text, "d1")).tolist() == vector
    assert calls == ["old", "changed"]
    records = [json.loads(line) for line in open(cache, encoding="utf-8")]
    assert records == [legacy] + [
        {**legacy, "text_sha256": hashlib.sha256(text.encode("utf-8")).hexdigest(),
         "vector": [float(len(text)), 1.0]} for text in ("old", "changed")]


def per_row_normalized(table):
    """The table's nonzero rows divided by sqrt(row.dot(row)), one row at a time."""
    out = table.copy()
    norms = np.sqrt(np.fromiter((row.dot(row) for row in out), float, len(out)))[:, None]
    return np.divide(out, norms, out=out, where=norms > 0)


def test_row_norms_equal_the_per_row_dot_form_on_the_bench_tables(monkeypatch):
    """Every table the three bench corpora (seed 0) normalize, the test splits included,
    comes out bit-equal to the per-row form."""
    from labelforge.synth import (make_noisy_corpus, make_separable_corpus,
                                  noisy_experiment_overrides)

    real, widths = features_module._normalize_rows, set()

    def checked(table):
        want = per_row_normalized(table)
        got = real(table)
        assert np.array_equal(got, want), table.shape
        widths.add(table.shape[1])
        return got

    monkeypatch.setattr(features_module, "_normalize_rows", checked)
    for dataset, config in ((make_separable_corpus(0, 4000, 40, 400), PipelineConfig()),
                            (make_noisy_corpus(0, 16000, 40, 400),
                             PipelineConfig(**noisy_experiment_overrides())),
                            (make_separable_corpus(0, 2000, 400, 400), PipelineConfig())):
        downstream = build_featurizers(dataset, config)[2]
        downstream.transform_many(dataset.test_index)
    assert widths == {21, 24, 27, 256, 374, 377}


@pytest.mark.parametrize("rows", [
    [[3.0, 4.0]],
    [[0.1, 0.2, 0.3]],
    [[0.0, 0.0, 0.0]],
    [[0.0, 0.0, 0.0], [1e-3, 2.0, 0.5], [0.0, 0.0, 0.0]],
    np.zeros((0, 3)),
], ids=["one-row", "one-row-fraction", "zero-row", "zero-rows-around", "no-rows"])
def test_row_norms_of_small_tables_and_zero_rows(rows):
    table = np.array(rows, dtype=float)
    want = per_row_normalized(table)
    got = features_module._normalize_rows(table)
    assert got is table and np.array_equal(got, want)
    assert not np.any(got[~np.any(want, axis=1)])  # a zero row stays zero


def test_remote_embedder_cache_survives_torn_last_line(tmp_path):
    calls = []

    def transport(endpoint, payload, headers, timeout):
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


def test_remote_embedder_unreachable(tmp_path, sleeps):
    """A failed call is tried three times, 1 s then 2 s apart, and caches nothing."""
    cache = str(tmp_path / "cache.jsonl")
    request = ("http://x", {"model": "m", "input": "x"}, {"Content-Type": "application/json"}, 30.0)
    for failure in (OSError("down"), *TRANSPORT_FAILURES.values()):
        calls = []

        def transport(endpoint, payload, headers, timeout):
            calls.append((endpoint, payload, headers, timeout))
            raise failure

        sleeps.clear()
        emb = RemoteEmbedder(endpoint="http://x", model="m", dim=2, cache_path=cache,
                             transport=transport)
        message = f"^embedding service failed after 3 tries: {re.escape(str(failure))}$"
        with pytest.raises(ProviderUnreachable, match=message):
            emb.vectorize(doc("x", "a"))
        assert calls == [request] * 3 and sleeps == [1.0, 2.0]
        assert not os.path.exists(cache)


@pytest.mark.parametrize("failure", TRANSPORT_FAILURES.values(), ids=TRANSPORT_FAILURES.keys())
def test_remote_embedder_keeps_the_reply_after_a_failed_call(tmp_path, sleeps, failure):
    replies = [failure, {"embedding": [1.0, 2]}]

    def transport(endpoint, payload, headers, timeout):
        reply = replies.pop(0)
        if isinstance(reply, Exception):
            raise reply
        return reply

    cache = str(tmp_path / "cache.jsonl")
    emb = RemoteEmbedder(endpoint="http://x", model="m", dim=2, cache_path=cache,
                         transport=transport)
    assert emb.vectorize(doc("x", "a")).tolist() == [1.0, 2.0]
    assert emb.vectorize(doc("x", "a")).tolist() == [1.0, 2.0]  # from the cache: no third call
    assert replies == [] and sleeps == [1.0]
    assert [json.loads(line) for line in open(cache, encoding="utf-8")] == [
        {"doc_id": "a", "provider_hash": emb.config_hash(),
         "text_sha256": hashlib.sha256(b"x").hexdigest(), "vector": [1.0, 2.0]}]


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
    assert np.array_equal(dense(feat.pool), tfidf_rows(feat, [docs[2], docs[0]]))

    efeat = HashingEmbedder(dim=8).build_tables(dataset)
    assert efeat.transform_many(index([docs[0]])).shape == (1, 8)
    expected = np.stack([HashingEmbedder(dim=8).transform_many(index([d]))[0]
                         for d in dataset.unlabeled])
    assert np.array_equal(dense(efeat.pool), expected)


def test_remote_embedder_rejects_bad_replies_without_caching(tmp_path, sleeps):
    replies = {
        "good": {"embedding": [1.0, 2.0, 3.0]},
        "short": {"embedding": [0.5]},
        "missing": {"vector": [1.0, 2.0, 3.0]},
        "scalar": {"embedding": 0.5},
        "empty": {},
        "nan": {"embedding": [float("nan"), 1.0, 2.0]},
        "inf": {"embedding": [1.0, float("inf"), 2.0]},
        "-inf": {"embedding": [1.0, 2.0, float("-inf")]},
        "huge": {"embedding": [1.0, 2.0, 10**400]},
        "string": {"embedding": ["1.5", 1.0, 2.0]},
        "bool": {"embedding": [True, 1.0, 2.0]},
        "null": {"embedding": [None, 1.0, 2.0]},
    }
    calls = []

    def flaky(endpoint, payload, headers, timeout):
        calls.append(payload["input"])
        return replies[payload["input"]]

    def good(endpoint, payload, headers, timeout):
        return {"embedding": [float(len(payload["input"]))] * 3}

    cache = str(tmp_path / "cache.jsonl")
    emb = RemoteEmbedder(endpoint="http://x", model="m", dim=3, cache_path=cache, transport=flaky)
    emb.vectorize(doc("good", "a"))
    with pytest.raises(LabelForgeError,
                       match="^embedding service reply for 'b' has 1 values, expected 3$"):
        emb.vectorize(doc("short", "b"))
    for text in ("missing", "scalar", "empty"):
        with pytest.raises(ProviderUnreachable, match="holds no embedding list"):
            emb.vectorize(doc(text, text))
    for text, value in (("nan", "nan"), ("inf", "inf"), ("-inf", "-inf"), ("huge", "1" + "0" * 400),
                        ("string", "'1.5'"), ("bool", "True"), ("null", "None")):
        with pytest.raises(LabelForgeError, match=f"^embedding service reply for '{text}' "
                           f"holds {value}, not a finite number$"):
            emb.vectorize(doc(text, text))
    assert calls == list(replies) and sleeps == []  # a bad reply is final: no second call
    assert [json.loads(line)["doc_id"] for line in open(cache, encoding="utf-8")] == ["a"]

    fresh = RemoteEmbedder(endpoint="http://x", model="m", dim=3, cache_path=cache, transport=good)
    rows = fresh.transform_many(index([doc("good", "a"), doc("short", "b")]))
    assert rows.tolist() == [[1.0, 2.0, 3.0], [5.0, 5.0, 5.0]]

    # caches written before replies were checked
    cached = [([0.5], "has 1 values, expected 3"),
              ([1.0, float("nan"), 2.0], "holds nan, not a finite number"),
              ([1.0, "1.5", 2.0], "holds '1.5', not a finite number")]
    for i, (vector, problem) in enumerate(cached):
        bad = str(tmp_path / f"bad{i}.jsonl")
        with open(bad, "w", encoding="utf-8") as fh:
            fh.write(json.dumps({"doc_id": "z", "provider_hash": fresh.config_hash(),
                                 "vector": vector}) + "\n")
        with pytest.raises(LabelForgeError, match=f"^cached vector for 'z' {problem}$"):
            RemoteEmbedder(endpoint="http://x", model="m", dim=3, cache_path=bad, transport=good)


def test_tfidf_drops_tokens_below_the_length_floor():
    d = doc("a bb a cc")
    assert tokenize(d.text) == ("a", "bb", "a", "cc")
    tfidf = TfidfFeaturizer(index([d]), (1, 2))
    assert sorted(vocabulary(tfidf)) == ["bb", "bb cc", "cc"]


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


@pytest.mark.parametrize("row_block", [1 << 16, 5])  # one block per split, and many
@pytest.mark.parametrize("ngram_range", [(1, 1), (1, 2), (2, 2), (1, 3)])
def test_split_tables_equal_the_per_doc_reference(ngram_range, row_block, monkeypatch):
    monkeypatch.setattr(corpus_module, "ROW_BLOCK", row_block)
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
    assert vocabulary(feat) == ref.vocabulary
    assert np.array_equal(feat.idf, ref.idf)
    test_index = dataset.test_index
    assert test_index.token_ids is dataset.pool_index.token_ids is feat.token_ids
    assert test_index.docs == test
    test_table = feat.transform_many(test_index)
    for table, docs in ((dense(feat.pool), pool), (feat.seed, seed), (test_table, test)):
        assert np.array_equal(table, np.stack([ref.vectorize(d) for d in docs]))
    for d in test[:12]:  # one-doc splits, some shorter than an n-gram
        assert np.array_equal(tfidf_rows(feat, [d])[0], ref.vectorize(d))

    emb = HashingEmbedder(dim=16).build_tables(dataset)
    test_table = emb.transform_many(test_index)
    for table, docs in ((dense(emb.pool), pool), (emb.seed, seed), (test_table, test)):
        assert np.array_equal(table, per_doc_hashing(docs, 16))


def test_tfidf_rejects_an_index_over_another_vocabulary():
    docs = [doc("a b", "1"), doc("b c", "2")]
    tfidf = TfidfFeaturizer(index(docs), (1, 1), min_token_len=1)
    assert tfidf_rows(tfidf, docs).shape == (2, tfidf.dim)
    with pytest.raises(ValueError, match="vocabulary"):
        tfidf.transform_many(index(docs))  # same tokens, but a fresh vocabulary
    with pytest.raises(ValueError, match="vocabulary"):
        tfidf.transform_many(index(docs, dict(tfidf.token_ids)))  # an equal copy is not it


def test_row_blocks_split_evenly_into_768_to_1535_rows():
    for n in [0, *range(1, 20000), 200000, 1000003]:
        spans = row_blocks(n)
        assert spans[0][0] == 0 and spans[-1][1] == n
        assert all(a[1] == b[0] for a, b in zip(spans, spans[1:]))
        sizes = [hi - lo for lo, hi in spans]
        assert max(sizes) - min(sizes) <= 1
        if n < 1536:
            assert len(spans) == 1
        else:
            assert 768 <= min(sizes) and max(sizes) <= 1535


@pytest.mark.parametrize("row_block", [corpus_module.ROW_BLOCK, 16])
def test_sparse_pool_tables_equal_the_dense_tables(row_block, monkeypatch):
    """Kept as its nonzeros, a pool table densifies, block by block, to the dense table."""
    monkeypatch.setattr(corpus_module, "ROW_BLOCK", row_block)
    rng = np.random.default_rng(5)
    words = ["a", "b", "bb", "cc", "dd", "ee", "Σx", "σ", "naïve", "zz9", "x"]
    pool = random_split_docs(rng, words, 300, "u")
    dataset = Dataset(labels=LabelSpace(("pos", "neg")), unlabeled=pool,
                      seed=[LabeledExample(doc(pool[1].text, "s"), 0)])
    for feat in (TfidfFeaturizer(dataset.pool_index, (1, 2)), HashingEmbedder(dim=16)):
        table = feat.build_tables(dataset).pool
        want = feat.transform_many(dataset.pool_index)
        assert isinstance(table, SparseRows) and table.shape == want.shape == (305, feat.dim)
        assert len(table) == len(want) and len(table.parts) == len(row_blocks(305))
        for (lo, hi), (values, cells) in zip(row_blocks(305), table.parts):
            assert values.dtype == np.float64 and cells.dtype == np.int32
            assert np.all(np.diff(cells) > 0)
            assert np.array_equal(values, want[lo:hi].reshape(-1)[cells])
        kept = np.concatenate([values for values, _ in table.parts])
        assert np.count_nonzero(kept) == np.count_nonzero(want) <= len(kept)
        blocks = [(lo, hi, rows.copy()) for lo, hi, rows in table_blocks(table)]
        assert [(lo, hi) for lo, hi, _ in blocks] == row_blocks(305)
        for lo, hi, rows in blocks:
            assert np.array_equal(rows, want[lo:hi])
        assert np.array_equal(dense(table), want)


def test_a_sparse_pool_build_never_holds_a_second_copy_of_its_nonzeros():
    """Building the (1, 2) TF-IDF tables of a 32,000-row separable pool peaks under the bytes
    kept, plus the one dense block buffer, plus half the bytes kept: a table gathered from
    its blocks into one array would hold all its nonzeros twice for a moment."""
    from labelforge.synth import make_separable_corpus

    dataset = make_separable_corpus(0, 32000, 40, 0)
    feat = TfidfFeaturizer(dataset.pool_index, (1, 2))
    dataset.seed_index  # both token indexes are built before tracing starts
    tracemalloc.start()
    try:
        feat.build_tables(dataset)
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert isinstance(feat.pool, SparseRows)
    assert kept >= sum(values.nbytes + cells.nbytes for values, cells in feat.pool.parts)
    buffer = max(hi - lo for lo, hi in row_blocks(32000)) * feat.dim * 8
    assert peak < kept + buffer + kept / 2
