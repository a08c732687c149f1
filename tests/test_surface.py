import json
import math
import random

import numpy as np
import pytest

from labelforge.corpus import Document, LabelSpace, TokenIndex, tokenize
from labelforge.errors import ConfigError, MalformedProviderReply, ProviderUnreachable
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


def test_posting_index_votes_match_phrase_scan_oracle():
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


def test_posting_index_rows_and_phrase_adjacency():
    docs = [doc(t) for t in ("good good movie", "", "movie good", "bad movie good")]
    index = TokenIndex(docs)
    assert len(index) == 4 and list(index) == docs
    assert index.rows("good").tolist() == [0, 2, 3]
    assert index.rows("good").dtype == np.int32
    assert index.rows("absent").tolist() == []
    phrase = SurfaceRule(patterns={0: {"good movie"}, 1: {"bad"}}, match_mode="token")
    assert phrase.apply_many(index).tolist() == [0, ABSTAIN, ABSTAIN, 1]
    shared = SurfaceRule(patterns={0: {"movie"}, 1: {"movie good"}}, match_mode="token")
    assert shared.apply_many(index).tolist() == [0, ABSTAIN, ABSTAIN, ABSTAIN]


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


def test_generation_request_count_validation():
    with pytest.raises(ValueError):
        GenerationRequest("t", ("pos", "neg"), (), count=0)


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


def test_remote_provider_retries_then_unreachable():
    attempts = []
    sleeps = []

    def transport(endpoint, payload, headers, timeout):
        attempts.append(1)
        raise OSError("boom")

    provider = RemoteLlmProvider(
        endpoint="http://x", model="m", retries=3, backoff=1.0,
        labels=LABELS, transport=transport, sleep=sleeps.append,
    )
    request = GenerationRequest("t", ("pos", "neg"), (), count=2)
    with pytest.raises(ProviderUnreachable):
        provider.generate(request)
    assert len(attempts) == 3
    assert sleeps == [1.0, 2.0]  # exponential backoff


def test_remote_provider_parses_and_counts_warnings():
    reply = json.dumps([
        {"id": "r0", "match_mode": "token", "patterns": {"pos": ["great"], "neg": ["bad"]}},
        {"patterns": {"pos": []}},
    ])

    def transport(endpoint, payload, headers, timeout):
        return f"header text {reply} trailing"

    provider = RemoteLlmProvider(
        endpoint="http://x", model="m", labels=LABELS, transport=transport
    )
    rules = provider.generate(GenerationRequest("t", ("pos", "neg"), (), count=5))
    assert len(rules) == 1
    assert provider.last_warnings == 1


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
