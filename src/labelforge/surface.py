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
from collections import Counter
from dataclasses import dataclass, field

import numpy as np

from .corpus import LabelSpace, TokenIndex, tokenize
from .errors import (RETRIES, ConfigError, MalformedProviderReply, ProviderUnreachable,
                     post_json, with_retries)
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

        Token mode finds each needle's rows in one scan of the index's ids;
        substring mode (LLM replies only) looks for each needle in each
        lowercased text.
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
    """The row of each place where ``phrase`` starts a contiguous run of a row's tokens.

    One scan of ``index.ids``: the places holding the first token, kept where
    each later token follows, mapped to rows through ``index.offsets``. A
    run that crosses into the next row is dropped; a token outside the
    vocabulary matches nothing.
    """
    want = [index.token_ids.get(t, -1) for t in phrase]  # no id is -1
    ids, n = index.ids, len(phrase)
    at = np.flatnonzero(ids[:max(len(ids) - n + 1, 0)] == want[0])
    for j in range(1, n):
        at = at[ids[at + j] == want[j]]
    rows = np.searchsorted(index.offsets, at, side="right") - 1
    return rows if n == 1 else rows[at + n <= index.offsets[rows + 1]]


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


def class_token_log_odds(
    examples: tuple[tuple[str, str], ...], class_names: tuple[str, ...]
) -> dict[int, list[str]]:
    """Rank class-indicative tokens by add-1 smoothed log-odds, best first.

    Only tokens of 2+ characters with positive log-odds make a class's list:
    a token that is not evidence for the class is never a usable pattern.
    """
    name_to_idx = {n: i for i, n in enumerate(class_names)}
    counts = [Counter() for _ in class_names]
    for text, label_name in examples:
        counts[name_to_idx[label_name]].update(t for t in tokenize(text) if len(t) > 1)
    overall = sum(counts, Counter())  # each token's count over all classes
    v, total = max(len(overall), 1), overall.total()
    ranked: dict[int, list[str]] = {}
    for cls, own in enumerate(counts):
        inside_total = own.total()
        scored = []
        for tok, n in overall.items():  # the other classes' count is the exact n - own[tok]
            score = math.log((own[tok] + 1) / (inside_total + v)) - math.log(
                (n - own[tok] + 1) / (total - inside_total + v)
            )
            if score > 0:
                scored.append((-score, tok))
        ranked[cls] = [tok for _, tok in sorted(scored)]
    return ranked


def _chunks(pool: list[str], count: int) -> list[list[str]]:
    """Split a ranked pool into count contiguous near-even slices."""
    return [pool[k * len(pool) // count:(k + 1) * len(pool) // count] for k in range(count)]


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
        ranked, num_classes = self._ranked[1], len(request.class_names)
        window = slice(round_index * self.top_t, (round_index + 1) * self.top_t)
        rng = np.random.default_rng(self.rng_seed + round_index)
        slices = []  # per class: its window cut in one slice per rule it targets, permuted
        for cls in range(num_classes):
            rules_for_cls = max(len(range(cls, request.count, num_classes)), 1)
            chunks = _chunks(ranked[cls][window], rules_for_cls)
            slices.append([chunks[i] for i in rng.permutation(len(chunks))])
        self.last_warnings = 0
        return [SurfaceRule(patterns={k % num_classes: set(chunk)}, match_mode="token")
                for k in range(request.count)
                if (chunk := slices[k % num_classes][k // num_classes])]


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


@dataclass
class RemoteLlmProvider:
    """Chat-completions client; endpoint/model/key/timeout come from env when unset.

    A failed call is tried ``retries`` times (``errors.with_retries``), then
    raises ProviderUnreachable; a reply without a valid rule raises
    MalformedProviderReply at once. Either way the caller decides whether to
    degrade (the exploration loop keeps going with fewer rules).
    """

    endpoint: str | None = None
    model: str | None = None
    api_key: str | None = None
    timeout: float | None = None  # unset: LABELFORGE_LLM_TIMEOUT, else 60 s
    retries: int = RETRIES
    labels: LabelSpace | None = None
    transport: object = post_json
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
        reply = with_retries("remote provider", lambda: self.transport(
            self.endpoint, payload, headers, self.timeout), self.retries)
        try:
            text = str(reply["choices"][0]["message"]["content"])
        except (KeyError, IndexError, TypeError):
            raise MalformedProviderReply(str(reply)) from None
        rules, self.last_warnings = parse_provider_reply(text, self.labels)
        return rules[: request.count]


def generate_surface_lfs(
    provider, request: GenerationRequest, round_index: int = 0
) -> list[SurfaceRule]:
    """Ask a provider for up to request.count validated surface rules."""
    return provider.generate(request, round_index=round_index)
