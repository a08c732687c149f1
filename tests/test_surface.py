import json
import math
import random
import re
import time

import numpy as np
import pytest

from labelforge.corpus import Document, LabelSpace, TokenIndex, tokenize
from labelforge.errors import ConfigError, MalformedProviderReply, ProviderUnreachable, post_json
from labelforge.lf_core import ABSTAIN
from labelforge.surface import (
    GenerationRequest,
    OfflineSeededProvider,
    RemoteLlmProvider,
    SurfaceRule,
    class_token_log_odds,
    extract_rule_array,
    generate_surface_lfs,
    parse_provider_reply,
    surface_similarity,
)

LABELS = LabelSpace(("pos", "neg"))


def doc(text):
    return Document(id="d", text=text)


def chat(content):
    """A chat-completions reply whose one choice holds ``content``."""
    return {"choices": [{"message": {"role": "assistant", "content": content}}]}


# what a transport raises when the service times out or answers with a body that is not JSON
TRANSPORT_FAILURES = {"timeout": TimeoutError("timed out"),
                      "malformed_json": json.JSONDecodeError("Expecting value", "<html>", 0)}


@pytest.fixture
def sleeps(monkeypatch):
    """The seconds the retry loop sleeps, recorded instead of slept."""
    slept = []
    monkeypatch.setattr(time, "sleep", slept.append)
    return slept


def vote(rule, text):
    """The rule's vote on one doc through ``apply_many``, the path for both modes."""
    return int(rule.apply_many(TokenIndex([doc(text)]))[0])


def test_token_mode_case_insensitive_phrase():
    rule = SurfaceRule(patterns={0: {"great service"}}, match_mode="token")
    assert vote(rule, "Great service today") == 0


def test_conflict_abstains():
    rule = SurfaceRule(patterns={0: {"excellent"}, 1: {"terrible"}}, match_mode="token")
    assert vote(rule, "excellent but terrible") == ABSTAIN
    assert vote(rule, "excellent food") == 0
    assert vote(rule, "nothing here") == ABSTAIN


def test_substring_mode_contiguous():
    rule = SurfaceRule(patterns={1: {"rude staff"}}, match_mode="substring")
    assert vote(rule, "staff was rude") == ABSTAIN
    assert vote(rule, "such RUDE STAFF here") == 1


def test_token_mode_no_partial_word_match():
    rule = SurfaceRule(patterns={0: {"art"}}, match_mode="token")
    assert vote(rule, "start of it") == ABSTAIN
    assert vote(rule, "fine art here") == 0


def test_whitespace_and_case_invariance():
    rule = SurfaceRule(patterns={0: {"excellent"}}, match_mode="token")
    assert vote(rule, "  EXCELLENT  ") == 0
    sub = SurfaceRule(patterns={0: {"excellent"}}, match_mode="substring")
    assert vote(sub, "  EXCELLENT  ") == 0


def contains_phrase(tokens, phrase):
    """Phrase-scan oracle: does ``phrase`` occur as a contiguous run of ``tokens``?"""
    if not phrase or len(phrase) > len(tokens):
        return False
    span = len(phrase)
    return any(tokens[i:i + span] == phrase for i in range(len(tokens) - span + 1))


def phrase_scan_vote(rule, text):
    """A rule's vote by token-window scan (token mode) or raw substring test."""
    matched = []
    for cls, pats in rule.patterns.items():
        if rule.match_mode == "token":
            tokens = tokenize(text)
            hit = any(contains_phrase(tokens, tokenize(p)) for p in pats)
        else:
            hit = any(p in text.strip().lower() for p in pats)
        if hit:
            matched.append(cls)
    return matched[0] if len(matched) == 1 else ABSTAIN


def test_surface_votes_match_phrase_scan_oracle():
    rng = random.Random(0)
    words = ["good", "Good", "movie", "bad", "a", "ab", "é", "x_y", "_", "-", "", "art", "start"]
    seps = [" ", "  ", "-", "_", ", ", "\t"]

    def text(max_words):
        parts = [rng.choice(words) for _ in range(rng.randint(0, max_words))]
        return "".join(p + rng.choice(seps) for p in parts)

    for trial in range(4000):
        patterns = {cls: {text(3) for _ in range(rng.randint(1, 3))} for cls in (0, 1)}
        rule = SurfaceRule(patterns=patterns, match_mode=rng.choice(["token", "substring"]))
        document = text(8)
        assert vote(rule, document) == phrase_scan_vote(rule, document), trial


def test_token_scan_votes_match_phrase_scan_oracle():
    # A small vocabulary makes repeated tokens, phrases whose tokens occur
    # apart, empty docs and tokens claimed by two classes all common.
    rng = random.Random(1)
    words = ["good", "bad", "movie", "a", "good", "art", "Start", "é"]

    def text(lo, hi):
        return " ".join(rng.choice(words) for _ in range(rng.randint(lo, hi)))

    for trial in range(300):
        texts = [text(0, 9) for _ in range(rng.randint(0, 40))]
        docs = [Document(id=f"d{i}", text=t) for i, t in enumerate(texts)]
        patterns = {cls: {text(1, 3) for _ in range(rng.randint(1, 3))} for cls in (0, 1, 2)}
        rule = SurfaceRule(patterns=patterns, match_mode="token")
        want = [phrase_scan_vote(rule, t) for t in texts]
        votes = rule.apply_many(TokenIndex(docs))
        assert votes.dtype == np.int8
        assert votes.tolist() == want, trial


def test_token_scan_phrase_adjacency():
    docs = [doc(t) for t in ("good good movie", "", "movie good", "bad movie good")]
    index = TokenIndex(docs)
    assert len(index) == 4 and list(index) == docs
    phrase = SurfaceRule(patterns={0: {"good movie"}, 1: {"bad"}}, match_mode="token")
    assert phrase.apply_many(index).tolist() == [0, ABSTAIN, ABSTAIN, 1]
    shared = SurfaceRule(patterns={0: {"movie"}, 1: {"movie good"}}, match_mode="token")
    assert shared.apply_many(index).tolist() == [0, ABSTAIN, ABSTAIN, ABSTAIN]


@pytest.mark.parametrize("texts, pattern, want", [
    # the phrase's tokens end row 0 and start row 1: no row holds the run
    (["bad good", "movie bad"], "good movie", [ABSTAIN, ABSTAIN]),
    (["bad good", "movie good movie"], "good movie", [ABSTAIN, 0]),
    # the phrase is the split's last tokens, and the last row holds only it
    (["movie", "bad good movie"], "good movie", [ABSTAIN, 0]),
    (["movie", "good movie"], "good movie", [ABSTAIN, 0]),
    (["good", "movie"], "movie", [ABSTAIN, 0]),
    # in the shared vocabulary, not in this split
    (["good movie", "bad"], "zebra", [ABSTAIN, ABSTAIN]),
    (["good movie", "bad"], "good zebra", [ABSTAIN, ABSTAIN]),
    # in no vocabulary at all
    (["good movie", "bad"], "unseen", [ABSTAIN, ABSTAIN]),
    (["good movie", "bad"], "good unseen", [ABSTAIN, ABSTAIN]),
    # longer than the whole split
    (["good", "movie"], "good movie good movie", [ABSTAIN, ABSTAIN]),
    (["good movie"], "good movie bad", [ABSTAIN]),
    # empty docs between matches, before the first and after the last
    (["", "good movie", "", "", "good movie", ""], "good movie",
     [ABSTAIN, 0, ABSTAIN, ABSTAIN, 0, ABSTAIN]),
    (["", "good", "", "movie", ""], "good movie", [ABSTAIN] * 5),
    (["", "good", "", "good", ""], "good", [ABSTAIN, 0, ABSTAIN, 0, ABSTAIN]),
    # a split of empty docs, and a split of no documents
    (["", ""], "good", [ABSTAIN, ABSTAIN]),
    ([], "good", []),
    ([], "good movie", []),
])
def test_token_scan_edge_cases(texts, pattern, want):
    token_ids = {}
    TokenIndex([doc("zebra good movie")], token_ids)  # "zebra" enters the shared vocabulary
    index = TokenIndex([Document(f"d{i}", t) for i, t in enumerate(texts)], token_ids)
    rule = SurfaceRule(patterns={0: {pattern}}, match_mode="token")
    votes = rule.apply_many(index)
    assert votes.dtype == np.int8 and votes.tolist() == want
    assert want == [phrase_scan_vote(rule, t) for t in texts]


@pytest.fixture(scope="module")
def noisy_pool():
    from labelforge.synth import make_noisy_corpus

    return make_noisy_corpus(0, 16000, 40, 0).unlabeled


@pytest.mark.parametrize("kind", ["one-token", "frequent-token", "two-token"])
def test_first_vote_on_a_pool_holds_no_per_split_table(noisy_pool, kind):
    """The first token-mode vote on a fresh 16,000-doc noisy pool index peaks under 1 MiB
    traced: a posting index of the split would take about 25 bytes a token (5.4 MiB)."""
    import tracemalloc

    index = TokenIndex(noisy_pool)
    counts = np.bincount(index.ids)
    vocab = sorted(index.token_ids, key=index.token_ids.get)
    first = index.ids[:2]  # the first document has at least two tokens
    pattern = {"one-token": vocab[int(np.argsort(counts)[len(counts) // 2])],
               "frequent-token": vocab[int(np.argmax(counts))],
               "two-token": " ".join(vocab[i] for i in first)}[kind]
    rule = SurfaceRule(patterns={0: {pattern}}, match_mode="token")
    assert len(index.ids) > 100_000
    tracemalloc.start()
    try:
        votes = rule.apply_many(index)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert np.count_nonzero(votes == 0) > 0
    assert peak < 2**20, f"{peak / 2**20:.2f} MiB"


def test_substring_rules_scan_each_doc():
    rule = SurfaceRule(patterns={1: {"rude staff"}}, match_mode="substring")
    docs = [doc("such RUDE STAFF here"), doc("staff was rude"), doc("")]
    votes = rule.apply_many(TokenIndex(docs))
    assert votes.dtype == np.int8
    assert votes.tolist() == [1, ABSTAIN, ABSTAIN]


def test_similarity_jaccard():
    a = SurfaceRule(patterns={0: {"a", "b"}, 1: {"c"}})
    b = SurfaceRule(patterns={0: {"b"}, 1: {"c", "d"}})
    assert surface_similarity(a, a) == 1.0
    assert surface_similarity(a, b) == pytest.approx(2 / 4)
    disjoint = SurfaceRule(patterns={0: {"x"}})
    assert surface_similarity(a, disjoint) == 0.0


def log_odds_oracle(examples, class_names):
    """Independent add-1 smoothed log-odds scorer."""
    counts = {name: {} for name in class_names}
    totals = {name: 0 for name in class_names}
    vocab = set()
    for text, name in examples:
        for tok in (t for t in tokenize(text) if len(t) >= 2):
            counts[name][tok] = counts[name].get(tok, 0) + 1
            totals[name] += 1
            vocab.add(tok)
    v = len(vocab)

    def score(tok, name):
        inside = counts[name].get(tok, 0)
        outside = sum(counts[o].get(tok, 0) for o in class_names if o != name)
        rest = sum(totals[o] for o in class_names if o != name)
        return math.log((inside + 1) / (totals[name] + v)) - math.log((outside + 1) / (rest + v))

    return score, vocab


def test_offline_provider_top_tokens_from_log_odds():
    examples = tuple(
        [("good great fine", "pos")] * 3 + [("bad awful poor", "neg")] * 3
    )
    request = GenerationRequest(
        task_description="sentiment", class_names=("pos", "neg"), examples=examples, count=2
    )
    provider = OfflineSeededProvider(rng_seed=0, top_t=5)
    rules = generate_surface_lfs(provider, request)
    assert 1 <= len(rules) <= 2
    score, vocab = log_odds_oracle(examples, ("pos", "neg"))
    pos_ranked = sorted((t for t in vocab if score(t, "pos") > 0), key=lambda t: -score(t, "pos"))
    neg_ranked = sorted((t for t in vocab if score(t, "neg") > 0), key=lambda t: -score(t, "neg"))
    for rule in rules:
        for cls, pats in rule.patterns.items():
            ranked = pos_ranked if cls == 0 else neg_ranked
            assert pats <= set(ranked[:5])


def test_offline_provider_deterministic():
    examples = tuple([("alpha beta", "pos")] * 4 + [("gamma delta", "neg")] * 4)
    request = GenerationRequest("t", ("pos", "neg"), examples, count=3)
    a = OfflineSeededProvider(rng_seed=9).generate(request, round_index=1)
    b = OfflineSeededProvider(rng_seed=9).generate(request, round_index=1)
    assert [r.patterns for r in a] == [r.patterns for r in b]
    c = OfflineSeededProvider(rng_seed=10).generate(request, round_index=1)
    assert a != c or [r.patterns for r in a] == [r.patterns for r in c]


def test_offline_provider_ranks_the_seed_once_per_request(monkeypatch):
    from labelforge import surface

    examples = tuple((f"tok{i} tok{i + 1} filler", "pos") for i in range(30)) + tuple(
        (f"neg{i} other", "neg") for i in range(30)
    )
    request = GenerationRequest("t", ("pos", "neg"), examples, count=4)
    fresh = [OfflineSeededProvider(rng_seed=3, top_t=3).generate(request, r) for r in range(10)]
    calls = []
    real = surface.class_token_log_odds

    def counting(*args):
        calls.append(1)
        return real(*args)

    monkeypatch.setattr(surface, "class_token_log_odds", counting)
    provider = OfflineSeededProvider(rng_seed=3, top_t=3)
    rules = [provider.generate(request, r) for r in range(10)]
    assert len(calls) == 1
    assert [[r.patterns for r in rs] for rs in rules] == [[r.patterns for r in rs] for rs in fresh]
    assert any(rules)
    other = GenerationRequest("t", ("pos", "neg"), examples[:20], count=4)
    provider.generate(other, 0)
    assert len(calls) == 2


def test_offline_provider_rounds_disjoint():
    examples = tuple(
        (f"tok{i} tok{i + 1} filler", "pos") for i in range(10)
    ) + tuple((f"neg{i} other", "neg") for i in range(10))
    request = GenerationRequest("t", ("pos", "neg"), examples, count=2)
    provider = OfflineSeededProvider(rng_seed=0, top_t=2)
    r0 = provider.generate(request, round_index=0)
    r1 = provider.generate(request, round_index=1)
    used0 = set().union(*(r.all_patterns() for r in r0)) if r0 else set()
    used1 = set().union(*(r.all_patterns() for r in r1)) if r1 else set()
    assert not used0 & used1


def test_extract_rule_array_from_messy_reply():
    text = 'Sure! Here are rules:\n[{"match_mode": "token", "patterns": {"pos": ["great"]}}]\nDone.'
    assert len(extract_rule_array(text)) == 1
    assert extract_rule_array("no array here [1,") == []


def test_parse_provider_reply_drops_invalid():
    reply = json.dumps([
        {"match_mode": "token", "patterns": {"pos": ["great"]}},
        {"match_mode": "bogus", "patterns": {"pos": ["x"]}},
    ])
    rules, dropped = parse_provider_reply(reply, LABELS)
    assert len(rules) == 1
    assert dropped == 1


def test_parse_provider_reply_all_invalid_raises():
    with pytest.raises(MalformedProviderReply):
        parse_provider_reply("[]", LABELS)


def test_remote_provider_retries_then_unreachable(sleeps):
    """A failed call is tried ``retries`` times, 1 s, 2 s, ... apart (exponential backoff)."""
    request = GenerationRequest("t", ("pos", "neg"), (), count=2)
    headers = {"Content-Type": "application/json", "Authorization": "Bearer k"}
    for failure in (OSError("boom"), *TRANSPORT_FAILURES.values()):
        for retries, slept in ((3, [1.0, 2.0]), (1, [])):
            calls = []

            def transport(endpoint, payload, headers, timeout):
                calls.append((endpoint, headers, timeout))
                raise failure

            sleeps.clear()
            provider = RemoteLlmProvider(endpoint="http://x", model="m", api_key="k",
                                         timeout=5.0, retries=retries, labels=LABELS,
                                         transport=transport)
            with pytest.raises(ProviderUnreachable, match=f"^remote provider failed after "
                               f"{retries} tries: {re.escape(str(failure))}$"):
                provider.generate(request)
            assert calls == [("http://x", headers, 5.0)] * retries and sleeps == slept
    assert RemoteLlmProvider().retries == 3


GOOD_REPLY = json.dumps([{"match_mode": "token", "patterns": {"pos": ["great"]}}])


@pytest.mark.parametrize("failure", TRANSPORT_FAILURES.values(), ids=TRANSPORT_FAILURES.keys())
def test_remote_provider_keeps_the_reply_after_a_failed_call(sleeps, failure):
    replies = [failure, chat(GOOD_REPLY)]

    def transport(endpoint, payload, headers, timeout):
        reply = replies.pop(0)
        if isinstance(reply, Exception):
            raise reply
        return reply

    provider = RemoteLlmProvider(endpoint="http://x", model="m", labels=LABELS,
                                 transport=transport)
    rules = provider.generate(GenerationRequest("t", ("pos", "neg"), (), count=2))
    assert [rule.describe()["patterns"] for rule in rules] == [{"0": ["great"]}]
    assert replies == [] and sleeps == [1.0]


@pytest.mark.parametrize("reply", [
    {},  # an empty reply
    {"choices": []},
    {"choices": [{"message": {}}]},
    ["not", "an", "envelope"],
    chat("no rules here"),
    chat(json.dumps([{"patterns": {"maybe": ["x"]}}])),  # no rule names a known label
])
def test_remote_provider_does_not_retry_a_bad_reply(sleeps, reply):
    calls = []

    def transport(endpoint, payload, headers, timeout):
        calls.append(1)
        return reply

    provider = RemoteLlmProvider(endpoint="http://x", model="m", labels=LABELS,
                                 transport=transport)
    with pytest.raises(MalformedProviderReply):
        provider.generate(GenerationRequest("t", ("pos", "neg"), (), count=2))
    assert calls == [1] and sleeps == []


def test_remote_provider_parses_and_counts_warnings():
    reply = json.dumps([
        {"id": "r0", "match_mode": "token", "patterns": {"pos": ["great"], "neg": ["bad"]}},
        {"patterns": {"pos": []}},
    ])

    def transport(endpoint, payload, headers, timeout):
        return chat(f"header text {reply} trailing")

    provider = RemoteLlmProvider(
        endpoint="http://x", model="m", labels=LABELS, transport=transport
    )
    rules = provider.generate(GenerationRequest("t", ("pos", "neg"), (), count=5))
    assert len(rules) == 1
    assert provider.last_warnings == 1


def test_remote_clients_share_one_transport():
    from labelforge.features import RemoteEmbedder

    assert RemoteLlmProvider().transport is post_json
    assert RemoteEmbedder(endpoint="http://x", model="m").transport is post_json


def test_provider_state_is_not_a_constructor_argument():
    for make in (OfflineSeededProvider, RemoteLlmProvider):
        assert make().last_warnings == 0
        with pytest.raises(TypeError):
            make(last_warnings=3)
        with pytest.raises(TypeError):
            make(kind="offline_seeded")


def test_remote_provider_env_config(monkeypatch):
    monkeypatch.setenv("LABELFORGE_LLM_ENDPOINT", "http://env")
    monkeypatch.setenv("LABELFORGE_LLM_MODEL", "env-model")
    monkeypatch.setenv("LABELFORGE_LLM_API_KEY", "k")
    monkeypatch.setenv("LABELFORGE_LLM_TIMEOUT", "7.5")
    provider = RemoteLlmProvider()
    assert provider.endpoint == "http://env"
    assert provider.model == "env-model"
    assert provider.api_key == "k"
    assert provider.timeout == 7.5


def test_remote_provider_table_timeout_beats_env(monkeypatch):
    monkeypatch.setenv("LABELFORGE_LLM_TIMEOUT", "99")
    assert RemoteLlmProvider(endpoint="http://x", model="m", timeout=5.0).timeout == 5.0
    monkeypatch.delenv("LABELFORGE_LLM_TIMEOUT")
    assert RemoteLlmProvider(endpoint="http://x", model="m").timeout == 60.0


def test_remote_provider_bad_env_timeout_names_the_variable(monkeypatch):
    monkeypatch.setenv("LABELFORGE_LLM_TIMEOUT", "abc")
    with pytest.raises(ConfigError, match="^LABELFORGE_LLM_TIMEOUT must be a number"):
        RemoteLlmProvider(endpoint="http://x", model="m")


def test_class_token_log_odds_positive_only():
    ranked = class_token_log_odds(
        (("shared good", "pos"), ("shared bad", "neg")), ("pos", "neg")
    )
    assert "good" in ranked[0]
    assert "shared" not in ranked[0]
    assert "shared" not in ranked[1]


def reference_log_odds(examples, class_names):
    """The ranking as first written: a dict of dicts, each token's count over the other
    classes summed one class at a time."""
    name_to_idx = {n: i for i, n in enumerate(class_names)}
    counts = {i: {} for i in range(len(class_names))}
    totals = {i: 0 for i in range(len(class_names))}
    vocab = set()
    for text, label_name in examples:
        cls = name_to_idx[label_name]
        for tok in (t for t in tokenize(text) if len(t) > 1):
            counts[cls][tok] = counts[cls].get(tok, 0) + 1
            totals[cls] += 1
            vocab.add(tok)
    v = max(len(vocab), 1)
    ranked = {}
    for cls in counts:
        rest_total = sum(t for c, t in totals.items() if c != cls)
        scored = []
        for tok in vocab:
            inside = counts[cls].get(tok, 0)
            outside = sum(counts[c].get(tok, 0) for c in counts if c != cls)
            score = math.log((inside + 1) / (totals[cls] + v)) - math.log(
                (outside + 1) / (rest_total + v)
            )
            if score > 0:
                scored.append((-score, tok))
        scored.sort()
        ranked[cls] = [tok for _, tok in scored]
    return ranked


def reference_generate(request, round_index, rng_seed, top_t):
    """The offline provider's rules as first written: a per-class table of permuted slices,
    then one rule per k looked up in it."""
    ranked = reference_log_odds(request.examples, request.class_names)
    num_classes = len(request.class_names)
    offset = round_index * top_t
    rng = np.random.default_rng(rng_seed + round_index)
    per_class_chunks = {}
    for cls in range(num_classes):
        rules_for_cls = len(range(cls, request.count, num_classes))
        pool = ranked.get(cls, [])[offset:offset + top_t]
        count = max(rules_for_cls, 1)
        chunks = [pool[k * len(pool) // count:(k + 1) * len(pool) // count] for k in range(count)]
        order = rng.permutation(len(chunks))
        per_class_chunks[cls] = [chunks[i] for i in order]
    rules = []
    for k in range(request.count):
        cls = k % num_classes
        idx = k // num_classes
        chunk = per_class_chunks[cls][idx] if idx < len(per_class_chunks[cls]) else []
        if chunk:
            rules.append({cls: set(chunk)})
    return rules


def skewed_examples(num_classes, seed):
    """Seed examples whose classes favour overlapping word ranges; the last class of three or
    more has none, and some tokens are one character (never ranked)."""
    rng = random.Random(seed)
    words = [f"w{i}" for i in range(12 * num_classes)] + list("xyz")
    examples = []
    for cls in range(num_classes - (num_classes >= 3)):
        favoured = words[8 * cls:8 * cls + 16]
        for _ in range(rng.randint(3, 9)):
            text = rng.choices(favoured, k=rng.randint(2, 7)) + rng.choices(words, k=2)
            examples.append((" ".join(text), f"c{cls}"))
    return tuple(examples)


@pytest.mark.parametrize("num_classes", [2, 3, 5])
@pytest.mark.parametrize("seed", [0, 1])
def test_offline_provider_matches_the_per_class_table_reference(num_classes, seed):
    """Counts below C leave some classes without a rule; each class still takes its
    permutation in class order, so the rules of the classes that have one do not move."""
    class_names = tuple(f"c{cls}" for cls in range(num_classes))
    examples = skewed_examples(num_classes, seed)
    assert class_token_log_odds(examples, class_names) == reference_log_odds(examples,
                                                                           class_names)
    cases = 0
    for count in range(1, 10):
        request = GenerationRequest("t", class_names, examples, count=count)
        for top_t in (1, 2, 5):
            provider = OfflineSeededProvider(rng_seed=seed + 7, top_t=top_t)
            for round_index in range(10):
                got = [r.patterns for r in provider.generate(request, round_index)]
                assert got == reference_generate(request, round_index, seed + 7, top_t), (
                    count, top_t, round_index)
                cases += bool(got)
    assert cases > 100
