"""Pipeline configuration: all tunables, JSON round-trip, stable hashing."""

from __future__ import annotations

import copy
import dataclasses
import hashlib
import json
import math
import os
from collections.abc import Callable
from dataclasses import dataclass, field
from typing import TextIO

from .errors import ConfigError

SCHEMA_VERSION = 1


def _table(**default) -> dict:
    """A table field: each config gets a fresh copy of ``default``, and the checks read it."""
    return field(default_factory=lambda: copy.deepcopy(default), metadata={"default": default})


# the keys each kind of a dispatched table takes besides "kind", each with a value of its type
TABLE_KINDS = {
    "label_model": {"majority_vote": {}, "weighted_majority_vote": {"weights": [1.0]},
                    "dawid_skene": {"max_iter": 100, "tol": 1e-6}},
    "provider": {"offline_seeded": {"rng_seed": 0, "top_t": 5},
                 "remote_llm": {"endpoint": "", "model": "", "timeout": 60.0, "retries": 3}},
    "embedding": {"hashing": {"dim": 256},
                  "remote": {"endpoint": "", "model": "", "dim": 768, "cache_path": ""}},
}

# each interval (or the one value taken), as its message reads: its test and the dotted keys
# it bounds, where "*" stands for every value of a table or every item of a list
BOUNDS = {
    str(SCHEMA_VERSION): (lambda v: v == SCHEMA_VERSION, ["schema_version"]),
    "in [0, 1]": (lambda v: 0 <= v <= 1, ["alpha"]),
    "in (0, 1]": (lambda v: 0 < v <= 1,
                  ["grid_step", "tau_dup.*", "candidate_training.subsample_fractions.*"]),
    "in (0, 0.1]": (lambda v: 0 < v <= 0.1, ["candidate_training.mlp_lr"]),
    "> 0": (lambda v: v > 0, ["candidate_training.lr", "downstream.lr", "provider.timeout"]),
    ">= 0": (lambda v: v >= 0,
             ["beta", "base_seed", "provider.rng_seed", "candidate_training.l2",
              "candidate_training.regularizations.*", "candidate_training.semantic_head_widths.*",
              "label_model.tol", "label_model.weights.*"]),
    ">= 1": (lambda v: v >= 1,
             ["k_per_category.*", "max_rounds", "candidates_per_round", "dedup_sample_size",
              "tfidf.min_df", "tfidf.min_token_len", "candidate_training.epochs",
              "candidate_training.mlp_epochs", "downstream.hidden", "downstream.batch_size",
              "downstream.epochs", "label_model.max_iter", "provider.top_t", "provider.retries",
              "embedding.dim"]),
}
_BOUND_OF = {key: (interval, test) for interval, (test, keys) in BOUNDS.items() for key in keys}

_TYPE_NAMES = {bool: "a boolean", int: "an integer", float: "a number", str: "a string",
               list: "a list", dict: "an object"}


def _check_value(key: str, value, default) -> None:
    """Raise ConfigError unless ``value`` has the type of ``default`` and is in its bound.

    Types are exact (a bool is an int to isinstance), except that a float
    takes an int. A list whose default is non-empty must be non-empty, and its
    items (keyed by index) are checked against the default's first item; a
    table's values are checked against the default's value under the same key.
    A number bounded in ``BOUNDS``, under its own key or its parent's ``*``,
    must be finite and in its interval.
    """
    want = type(default)
    if type(value) is not want and (want, type(value)) != (float, int):
        raise ConfigError(f"{key} must be {_TYPE_NAMES[want]}, got {value!r}")
    if want is list and default:
        if not value:
            raise ConfigError(f"{key} must be a non-empty list")
        for i, item in enumerate(value):
            _check_value(f"{key}.{i}", item, default[0])
    elif want is dict:
        for name, sub in default.items():
            if name in value:
                _check_value(f"{key}.{name}", value[name], sub)
    elif bound := _BOUND_OF.get(key) or _BOUND_OF.get(key.rpartition(".")[0] + ".*"):
        interval, test = bound
        if type(value) is float and not math.isfinite(value):
            raise ConfigError(f"{key} must be a finite number")
        if not test(value):
            raise ConfigError(f"{key} must be {interval}")


def _kind_example(name: str, table: dict) -> dict:
    """The example of ``table``'s kind, once the kind, its keys and remote strings are checked."""
    kinds = TABLE_KINDS[name]
    kind = table.get("kind", "majority_vote" if name == "label_model" else None)
    if type(kind) is not str or kind not in kinds:
        raise ConfigError(f"{name} kind {kind!r} is not one of {list(kinds)}")
    if set(table) - {"kind"} - kinds[kind].keys():
        raise ConfigError(f"{name} kind {kind!r} takes only keys {sorted(kinds[kind])}")
    for key in ("endpoint", "model", "cache_path"):
        if key in table and not table[key]:
            raise ConfigError(f"{name} {key} must be a non-empty string")
    # null weights are the LFs' accuracies
    return {k: v for k, v in kinds[kind].items() if (k, table.get(k)) != ("weights", None)}


@dataclass
class PipelineConfig:
    """Every tunable of a run; serializes to a stable hash for reports."""

    schema_version: int = SCHEMA_VERSION
    alpha: float = 0.9
    beta: float = 0.1
    k_per_category: dict = _table(surface=20, structural=20, semantic=20)
    candidates_per_round: int = 8
    max_rounds: int = 10
    base_seed: int = 0
    grid_step: float = 0.01
    tau_dup: dict = _table(surface=0.9, structural=0.98, semantic=0.98)
    abstain_enabled: bool = True
    dedup_sample_size: int = 500
    label_model: dict = _table(kind="majority_vote")
    provider: dict = _table(kind="offline_seeded", rng_seed=0, top_t=5)
    embedding: dict = _table(kind="hashing", dim=256)
    tfidf: dict = _table(ngram_ranges=[[1, 1], [1, 2]], min_df=1, min_token_len=2)
    candidate_training: dict = _table(
        epochs=300, lr=0.5, l2=1e-3, regularizations=[1e-3, 3e-3, 1e-2],
        subsample_fractions=[0.8], semantic_head_widths=[0], mlp_epochs=200, mlp_lr=0.1)
    downstream: dict = _table(hidden=100, epochs=50, batch_size=32, lr=0.01, mode="soft",
                              ngram_range=[1, 1])
    task_description: str = "classify each document into one of the given classes"
    # empty: infer from data file
    class_names: list = field(default_factory=list, metadata={"default": []})

    def __post_init__(self):
        for f in dataclasses.fields(self):
            key, value = f.name, getattr(self, f.name)
            default = f.metadata.get("default", f.default)
            if type(value) is dict and key in TABLE_KINDS:
                default = _kind_example(key, value)
            elif type(value) is dict and type(default) is dict and value.keys() != default.keys():
                # a table every stage reads key by key takes exactly its default's keys
                keys, want = set(value), set(default)
                raise ConfigError(f"{key} needs exactly the keys {sorted(want)}: "
                                  f"missing {sorted(want - keys)}, unknown {sorted(keys - want)}")
            _check_value(key, value, default)
        if self.embedding["kind"] == "remote" and not (
            self.embedding.get("endpoint") and self.embedding.get("model")
        ):
            raise ConfigError("a remote embedding needs an endpoint and a model")
        weights = self.label_model.get("weights")
        if weights is not None and not any(w > 0 for w in weights):
            raise ConfigError("label_model.weights must hold a positive value")
        if self.downstream["mode"] not in ("soft", "hard"):
            raise ConfigError("downstream mode must be soft or hard")
        ranges = [*self.tfidf["ngram_ranges"], self.downstream["ngram_range"]]
        if not all(len(r) == 2 and 1 <= r[0] <= r[1] for r in ranges):
            raise ConfigError("tfidf ngram_ranges and downstream ngram_range must be "
                              "[low, high], 1 <= low <= high")

    def to_json(self) -> dict:
        return dataclasses.asdict(self)

    @classmethod
    def from_json(cls, obj: dict) -> "PipelineConfig":
        if not isinstance(obj, dict):
            raise ConfigError(f"a config must be a JSON object, not {type(obj).__name__}")
        known = {f.name for f in dataclasses.fields(cls)}
        unknown = set(obj) - known
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")
        return cls(**obj)

    @classmethod
    def load(cls, path: str) -> "PipelineConfig":
        with open(path, encoding="utf-8-sig") as fh:  # a byte-order mark is not JSON
            return cls.from_json(json.load(fh))

    def config_hash(self) -> str:
        canonical = json.dumps(self.to_json(), sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(canonical.encode("utf-8")).hexdigest()[:16]


@dataclass
class RunManifest:
    """Run-level provenance: hashes, timings, artifact paths, why the loop stopped.

    ``stop_reason`` is "filled" when every category reached its target and
    "round_budget" when max_rounds ran out first; ``shortfall`` is the last
    round's per-category gap (empty when filled). ``provider_warnings`` sums
    the surface provider's dropped rules over rounds; ``warnings`` names each
    class with no seed examples.
    """

    config_hash: str
    input_digests: dict = field(default_factory=dict)
    stage_seconds: dict = field(default_factory=dict)
    artifacts: dict = field(default_factory=dict)
    stop_reason: str = ""
    shortfall: dict = field(default_factory=dict)
    provider_warnings: int = 0
    warnings: list = field(default_factory=list)


def write_atomic(path: str, write: Callable[[TextIO], None]) -> None:
    """Run ``write(fh)`` on a temp file, then rename it over ``path``.

    A failure part-way leaves ``path`` as it was and removes the temp file.
    """
    tmp = path + ".tmp"
    try:
        with open(tmp, "w", encoding="utf-8", newline="") as fh:
            write(fh)
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.remove(tmp)


def file_digest(path: str) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(65536), b""):
            h.update(chunk)
    return h.hexdigest()[:16]
