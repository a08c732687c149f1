import json
import math
import random

import pytest

from labelforge.corpus import Document, LabelSpace, tokenize
from labelforge.errors import MalformedProviderReply, ProviderUnreachable
from labelforge.lf_core import ABSTAIN
from labelforge.surface import (
    GenerationRequest,
    OfflineSeededProvider,
    RemoteLlmProvider,
    SurfaceRule,
    class_token_log_odds,
    eval_surface,
    extract_rule_array,
    generate_surface_lfs,
    parse_provider_reply,
    rule_from_json,
    rule_to_json,
    surface_similarity,
)

LABELS = LabelSpace(("pos", "neg"))


def doc(text):
    return Document(id="d", text=text)


def test_token_mode_case_insensitive_phrase():
    rule = SurfaceRule(patterns={0: {"great service"}}, match_mode="token")
    assert eval_surface(rule, doc("Great service today")) == 0


def test_conflict_abstains():
    rule = SurfaceRule(patterns={0: {"excellent"}, 1: {"terrible"}}, match_mode="token")
    assert eval_surface(rule, doc("excellent but terrible")) == ABSTAIN
    assert eval_surface(rule, doc("excellent food")) == 0
    assert eval_surface(rule, doc("nothing here")) == ABSTAIN


def test_substring_mode_contiguous():
    rule = SurfaceRule(patterns={1: {"rude staff"}}, match_mode="substring")
    assert eval_surface(rule, doc("staff was rude")) == ABSTAIN
    assert eval_surface(rule, doc("such RUDE STAFF here")) == 1


def test_token_mode_no_partial_word_match():
    rule = SurfaceRule(patterns={0: {"art"}}, match_mode="token")
    assert eval_surface(rule, doc("start of it")) == ABSTAIN
    assert eval_surface(rule, doc("fine art here")) == 0


def test_whitespace_and_case_invariance():
    rule = SurfaceRule(patterns={0: {"excellent"}}, match_mode="token")
    assert eval_surface(rule, doc("  EXCELLENT  ")) == 0
    sub = SurfaceRule(patterns={0: {"excellent"}}, match_mode="substring")
    assert eval_surface(sub, doc("  EXCELLENT  ")) == 0


def contains_phrase(tokens, phrase):
    """Phrase-scan oracle: does ``phrase`` occur as a contiguous run of ``tokens``?"""
    if not phrase or len(phrase) > len(tokens):
        return False
    span = len(phrase)
    return any(tokens[i:i + span] == phrase for i in range(len(tokens) - span + 1))


def phrase_scan_vote(rule, text):
    """eval_surface by token-window scan (token mode) or raw substring test."""
    matched = []
    for cls, pats in rule.patterns.items():
        if rule.match_mode == "token":
            tokens = tokenize(text, min_token_len=1)
            hit = any(contains_phrase(tokens, tokenize(p, min_token_len=1)) for p in pats)
        else:
            hit = any(p in text.strip().lower() for p in pats)
        if hit:
            matched.append(cls)
    return matched[0] if len(matched) == 1 else ABSTAIN


def test_eval_surface_matches_phrase_scan_oracle():
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
        assert eval_surface(rule, doc(document)) == phrase_scan_vote(rule, document), trial


def test_similarity_jaccard():
    a = SurfaceRule(patterns={0: {"a", "b"}, 1: {"c"}})
    b = SurfaceRule(patterns={0: {"b"}, 1: {"c", "d"}})
    assert surface_similarity(a, a) == 1.0
    assert surface_similarity(a, b) == pytest.approx(2 / 4)
    disjoint = SurfaceRule(patterns={0: {"x"}})
    assert surface_similarity(a, disjoint) == 0.0


def test_rule_json_round_trip():
    rule = SurfaceRule(patterns={0: {"good", "fine"}, 1: {"bad"}}, match_mode="substring")
    obj = rule_to_json(rule, "r1", LABELS)
    parsed_id, again = rule_from_json(json.loads(json.dumps(obj)), LABELS)
    assert parsed_id == "r1"
    assert again.patterns == rule.patterns
    assert again.match_mode == rule.match_mode


def log_odds_oracle(examples, class_names):
    """Independent add-1 smoothed log-odds scorer."""
    counts = {name: {} for name in class_names}
    totals = {name: 0 for name in class_names}
    vocab = set()
    for text, name in examples:
        for tok in tokenize(text):
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


def test_class_token_log_odds_positive_only():
    ranked = class_token_log_odds(
        (("shared good", "pos"), ("shared bad", "neg")), ("pos", "neg")
    )
    assert "good" in ranked[0]
    assert "shared" not in ranked[0]
    assert "shared" not in ranked[1]
