"""Surface label functions: pattern-set rules plus their generation providers.

A surface rule maps each class to a set of lowercase lexical patterns and
votes for a class exactly when that class alone has a matching pattern;
conflicts and misses abstain. Rules come either from a live LLM endpoint or
from a deterministic offline generator that ranks seed-set tokens by
smoothed log-odds, so the whole pathway is testable without network access.
"""

from __future__ import annotations

import json
import math
import os
import time
from dataclasses import dataclass, field

import numpy as np

from .corpus import LabelSpace, TokenIndex, tokenize
from .errors import ConfigError, MalformedProviderReply, ProviderUnreachable
from .lf_core import ABSTAIN

MATCH_MODES = ("token", "substring")


@dataclass
class SurfaceRule:
    """Per-class pattern sets; match_mode picks token-phrase or raw substring."""

    patterns: dict[int, set[str]]
    match_mode: str = "token"
    # class -> its patterns: token tuples (token mode) or lowercased strings (substring)
    _needles: dict[int, tuple] = field(init=False, repr=False, default_factory=dict)

    def __post_init__(self):
        if self.match_mode not in MATCH_MODES:
            raise ValueError(f"match_mode must be one of {MATCH_MODES}")
        self.patterns = {
            int(cls): {p.strip().lower() for p in pats if p and p.strip()}
            for cls, pats in self.patterns.items()
        }
        for cls, pats in self.patterns.items():
            if self.match_mode == "token":
                self._needles[cls] = tuple(filter(None, map(tokenize, pats)))
            else:
                self._needles[cls] = tuple(pats)

    def apply_many(self, index: TokenIndex) -> np.ndarray:
        """One int8 vote per row of a split's index: the single class with a match, else abstain.

        Token mode reads each needle's rows from the posting index; substring
        mode (LLM replies only) looks for each needle in each lowercased text.
        """
        texts = [doc.text.lower() for doc in index] if self.match_mode == "substring" else None
        matched = np.zeros(len(index), dtype=np.int8)  # classes with a matching needle
        votes = np.full(len(index), ABSTAIN, dtype=np.int8)
        for cls, needles in self._needles.items():
            if texts is not None:
                hit = np.fromiter((any(n in t for n in needles) for t in texts), bool, len(texts))
            else:
                hit = np.zeros(len(index), dtype=bool)
                for needle in needles:
                    hit[_phrase_rows(index, needle)] = True
            matched += hit
            votes[hit] = cls
        votes[matched != 1] = ABSTAIN
        return votes

    def describe(self) -> dict:
        return {
            "match_mode": self.match_mode,
            "patterns": {str(c): sorted(p) for c, p in sorted(self.patterns.items())},
        }

    def all_patterns(self) -> set[str]:
        out: set[str] = set()
        for pats in self.patterns.values():
            out |= pats
        return out


def _phrase_rows(index: TokenIndex, phrase: tuple[str, ...]) -> np.ndarray:
    """Sorted rows whose tokens hold ``phrase`` as a contiguous run.

    A one-token phrase is its posting list. A longer one intersects its
    tokens' postings, then tests adjacency on those rows' token ids alone.
    """
    rows = index.rows(phrase[0])
    for token in phrase[1:]:
        rows = np.intersect1d(rows, index.rows(token), assume_unique=True)
    if len(phrase) == 1 or not len(rows):
        return rows
    want, span = [index.token_ids[t] for t in phrase], len(phrase)  # all held by these rows
    adjacent = []
    for row in rows.tolist():
        ids = index.ids[index.offsets[row]:index.offsets[row + 1]].tolist()
        adjacent.append(any(ids[i:i + span] == want for i in range(len(ids) - span + 1)))
    return rows[np.array(adjacent, dtype=bool)]


def surface_similarity(a: SurfaceRule, b: SurfaceRule) -> float:
    """Jaccard similarity of the class-agnostic pattern unions."""
    pa, pb = a.all_patterns(), b.all_patterns()
    if not pa and not pb:
        return 1.0
    union = pa | pb
    return len(pa & pb) / len(union)


@dataclass(frozen=True)
class GenerationRequest:
    """What the generator sees: the task, the ordered label names, seed examples.

    class_names must follow the dataset label-space order; their positions map
    to the zero-based class indices used everywhere else.
    """

    task_description: str
    class_names: tuple[str, ...]
    examples: tuple[tuple[str, str], ...] = ()
    count: int = 4

    def __post_init__(self):
        if self.count < 1:
            raise ValueError("count must be >= 1")


def class_token_log_odds(
    examples: tuple[tuple[str, str], ...], class_names: tuple[str, ...]
) -> dict[int, list[str]]:
    """Rank class-indicative tokens by add-1 smoothed log-odds, best first.

    Only tokens of 2+ characters with positive log-odds make a class's list:
    a token that is not evidence for the class is never a usable pattern.
    """
    name_to_idx = {n: i for i, n in enumerate(class_names)}
    counts: dict[int, dict[str, int]] = {i: {} for i in range(len(class_names))}
    totals = {i: 0 for i in range(len(class_names))}
    vocab: set[str] = set()
    for text, label_name in examples:
        cls = name_to_idx[label_name]
        for tok in (t for t in tokenize(text) if len(t) > 1):
            counts[cls][tok] = counts[cls].get(tok, 0) + 1
            totals[cls] += 1
            vocab.add(tok)
    v = max(len(vocab), 1)
    ranked: dict[int, list[str]] = {}
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


def _chunks(pool: list[str], count: int) -> list[list[str]]:
    """Split a ranked pool into count contiguous near-even slices."""
    out = []
    for k in range(count):
        lo = k * len(pool) // count
        hi = (k + 1) * len(pool) // count
        out.append(pool[lo:hi])
    return out


@dataclass
class OfflineSeededProvider:
    """LLM-free rule generator, deterministic given (rng_seed, request, round).

    Rules are one-sided, like the classic keyword LF: rule k targets class
    k mod C and takes a disjoint slice of that class's top-T positive
    log-odds tokens, so the strongest cue becomes a focused single-pattern
    rule. Later rounds shift the window T ranks deeper, proposing genuinely
    new (and progressively weaker) rules.
    """

    rng_seed: int = 0
    top_t: int = 5
    last_warnings: int = field(default=0, init=False)
    # (request, its ranked tokens): the ranking reads only the request, so a
    # request asked again in a later round is not re-ranked.
    _ranked: tuple | None = field(default=None, init=False, repr=False, compare=False)

    def generate(self, request: GenerationRequest, round_index: int = 0) -> list[SurfaceRule]:
        if self._ranked is None or self._ranked[0] != request:
            self._ranked = (request, class_token_log_odds(request.examples, request.class_names))
        ranked = self._ranked[1]
        num_classes = len(request.class_names)
        offset = round_index * self.top_t
        rng = np.random.default_rng(self.rng_seed + round_index)
        per_class_chunks = {}
        for cls in range(num_classes):
            rules_for_cls = len(range(cls, request.count, num_classes))
            pool = ranked.get(cls, [])[offset:offset + self.top_t]
            chunks = _chunks(pool, max(rules_for_cls, 1))
            order = rng.permutation(len(chunks))
            per_class_chunks[cls] = [chunks[i] for i in order]
        rules: list[SurfaceRule] = []
        for k in range(request.count):
            cls = k % num_classes
            idx = k // num_classes
            chunk = per_class_chunks[cls][idx] if idx < len(per_class_chunks[cls]) else []
            if chunk:
                rules.append(SurfaceRule(patterns={cls: set(chunk)}, match_mode="token"))
        self.last_warnings = 0
        return rules


def extract_rule_array(text: str) -> list:
    """Pull the first well-formed JSON array out of a model reply."""
    decoder = json.JSONDecoder()
    for i, ch in enumerate(text):
        if ch != "[":
            continue
        try:
            value, _ = decoder.raw_decode(text[i:])
        except json.JSONDecodeError:
            continue
        if isinstance(value, list):
            return value
    return []


def parse_provider_reply(text: str, labels: LabelSpace) -> tuple[list[SurfaceRule], int]:
    """Validate the reply's rule objects; returns (rules, dropped count)."""
    entries = extract_rule_array(text)
    rules: list[SurfaceRule] = []
    dropped = 0
    for obj in entries:
        try:
            patterns = {
                labels.index_of(name): {str(p) for p in pats}
                for name, pats in obj["patterns"].items()
            }
            rule = SurfaceRule(patterns=patterns, match_mode=obj.get("match_mode", "token"))
            if not rule.all_patterns():
                raise ValueError("empty rule")
            rules.append(rule)
        except Exception:
            dropped += 1
    if not rules:
        raise MalformedProviderReply(text)
    return rules, dropped


def build_prompt(request: GenerationRequest) -> str:
    lines = [
        "You write labeling rules for a text classification task.",
        f"Task description: {request.task_description}",
        "Available labels (in order; positions map to numeric classes 0..C-1): "
        + ", ".join(request.class_names),
    ]
    if request.examples:
        lines.append("Labeled examples:")
        for text, name in request.examples[:20]:
            lines.append(f"  [{name}] {text}")
    lines.append(
        f"Reply with a JSON array of exactly {request.count} rule objects, each "
        '{"id": string, "match_mode": "token"|"substring", '
        '"patterns": {"<label name>": [keyword or phrase, ...], ...}}. '
        "Patterns must be short, high-precision cues. No prose outside the array."
    )
    return "\n".join(lines)


def _default_llm_transport(endpoint: str, payload: dict, headers: dict, timeout: float) -> str:
    import urllib.request

    req = urllib.request.Request(
        endpoint, data=json.dumps(payload).encode("utf-8"), headers=headers
    )
    with urllib.request.urlopen(req, timeout=timeout) as resp:
        reply = json.loads(resp.read().decode("utf-8"))
    return reply["choices"][0]["message"]["content"]


@dataclass
class RemoteLlmProvider:
    """Chat-completions client; endpoint/model/key/timeout come from env when unset.

    Failed calls retry with exponential backoff; once retries are exhausted
    the provider raises ProviderUnreachable and the caller decides whether to
    degrade (the exploration loop keeps going with fewer rules).
    """

    endpoint: str | None = None
    model: str | None = None
    api_key: str | None = None
    timeout: float | None = None  # unset: LABELFORGE_LLM_TIMEOUT, else 60 s
    retries: int = 3
    backoff: float = 1.0
    labels: LabelSpace | None = None
    transport: object = None
    sleep: object = time.sleep
    last_warnings: int = field(default=0, init=False)

    def __post_init__(self):
        self.endpoint = self.endpoint or os.environ.get("LABELFORGE_LLM_ENDPOINT")
        self.model = self.model or os.environ.get("LABELFORGE_LLM_MODEL")
        self.api_key = self.api_key or os.environ.get("LABELFORGE_LLM_API_KEY")
        if self.timeout is None:
            env_timeout = os.environ.get("LABELFORGE_LLM_TIMEOUT") or "60"
            try:
                self.timeout = float(env_timeout)
            except ValueError:
                raise ConfigError(
                    f"LABELFORGE_LLM_TIMEOUT must be a number of seconds, got {env_timeout!r}"
                ) from None
        if self.transport is None:
            self.transport = _default_llm_transport

    def generate(self, request: GenerationRequest, round_index: int = 0) -> list[SurfaceRule]:
        if not self.endpoint or not self.model:
            raise ProviderUnreachable("remote provider endpoint/model not configured")
        if self.labels is None:
            self.labels = LabelSpace(tuple(request.class_names))
        payload = {
            "model": self.model,
            "messages": [{"role": "user", "content": build_prompt(request)}],
        }
        headers = {"Content-Type": "application/json"}
        if self.api_key:
            headers["Authorization"] = f"Bearer {self.api_key}"
        last_exc = None
        for attempt in range(self.retries):
            try:
                text = self.transport(self.endpoint, payload, headers, self.timeout)
                rules, dropped = parse_provider_reply(text, self.labels)
                self.last_warnings = dropped
                return rules[: request.count]
            except MalformedProviderReply:
                raise
            except Exception as exc:
                last_exc = exc
                if attempt < self.retries - 1:
                    self.sleep(self.backoff * (2 ** attempt))
        raise ProviderUnreachable(f"remote provider failed after {self.retries} tries: {last_exc}")


def generate_surface_lfs(
    provider, request: GenerationRequest, round_index: int = 0
) -> list[SurfaceRule]:
    """Ask a provider for up to request.count validated surface rules."""
    return provider.generate(request, round_index=round_index)
