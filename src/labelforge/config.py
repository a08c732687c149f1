"""Pipeline configuration: all tunables, JSON round-trip, stable hashing."""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
from collections.abc import Callable
from dataclasses import dataclass, field
from typing import TextIO

from .errors import ConfigError

SCHEMA_VERSION = 1


def _default_k() -> dict:
    return {"surface": 20, "structural": 20, "semantic": 20}


def _default_tau() -> dict:
    return {"surface": 0.9, "structural": 0.98, "semantic": 0.98}


def _default_provider() -> dict:
    return {"kind": "offline_seeded", "rng_seed": 0, "top_t": 5}


def _default_embedding() -> dict:
    return {"kind": "hashing", "dim": 256}


def _default_tfidf() -> dict:
    return {"ngram_ranges": [[1, 1], [1, 2]], "min_df": 1, "min_token_len": 2}


def _default_candidate_training() -> dict:
    return {
        "epochs": 300,
        "lr": 0.5,
        "l2": 1e-3,
        "regularizations": [1e-3, 3e-3, 1e-2],
        "subsample_fractions": [0.8],
        "semantic_head_widths": [0],
        "mlp_epochs": 200,
        "mlp_lr": 0.1,
    }


def _default_downstream() -> dict:
    return {
        "hidden": 100,
        "epochs": 50,
        "batch_size": 32,
        "lr": 0.01,
        "mode": "soft",
        "ngram_range": [1, 1],
    }


def _default_label_model() -> dict:
    return {"kind": "majority_vote"}


# the keys each kind of a dispatched table takes besides "kind", each with a value of its type
TABLE_KINDS = {
    "label_model": {"majority_vote": {}, "weighted_majority_vote": {"weights": [1.0]},
                    "dawid_skene": {"max_iter": 100, "tol": 1e-6}},
    "provider": {"offline_seeded": {"rng_seed": 0, "top_t": 5},
                 "remote_llm": {"endpoint": "", "model": "", "timeout": 60.0, "retries": 3}},
    "embedding": {"hashing": {"dim": 256},
                  "remote": {"endpoint": "", "model": "", "dim": 768, "cache_path": ""}},
}

# nested tables every stage reads key by key: each takes exactly its default's keys
_COMPLETE_TABLES = {
    "k_per_category": _default_k,
    "tau_dup": _default_tau,
    "tfidf": _default_tfidf,
    "candidate_training": _default_candidate_training,
    "downstream": _default_downstream,
}


_TYPE_NAMES = {bool: "a boolean", int: "an integer", float: "a number", str: "a string",
               list: "a list", dict: "an object"}


def _check_type(name: str, value, default) -> None:
    """Raise ConfigError unless ``value`` has the type of ``default``.

    Types are exact (a bool is an int to isinstance), except that a float
    takes an int. A list whose default is non-empty must be non-empty, and its
    items are checked against the default's first item; a table's values are
    checked against the default's value under the same key.
    """
    want = type(default)
    if type(value) is not want and (want, type(value)) != (float, int):
        raise ConfigError(f"{name} must be {_TYPE_NAMES[want]}, got {value!r}")
    if want is list and default:
        if not value:
            raise ConfigError(f"{name} must be a non-empty list")
        for item in value:
            _check_type(name, item, default[0])
    elif want is dict:
        for key in value.keys() & default.keys():
            _check_type(f"{name}.{key}", value[key], default[key])


@dataclass
class PipelineConfig:
    """Every tunable of a run; serializes to a stable hash for reports."""

    schema_version: int = SCHEMA_VERSION
    alpha: float = 0.9
    beta: float = 0.1
    k_per_category: dict = field(default_factory=_default_k)
    candidates_per_round: int = 8
    max_rounds: int = 10
    base_seed: int = 0
    grid_step: float = 0.01
    tau_dup: dict = field(default_factory=_default_tau)
    abstain_enabled: bool = True
    dedup_sample_size: int = 500
    label_model: dict = field(default_factory=_default_label_model)
    provider: dict = field(default_factory=_default_provider)
    embedding: dict = field(default_factory=_default_embedding)
    tfidf: dict = field(default_factory=_default_tfidf)
    candidate_training: dict = field(default_factory=_default_candidate_training)
    downstream: dict = field(default_factory=_default_downstream)
    task_description: str = "classify each document into one of the given classes"
    class_names: list = field(default_factory=list)  # empty: infer from data file

    def __post_init__(self):
        for f in dataclasses.fields(self):
            default = f.default_factory() if f.default is dataclasses.MISSING else f.default
            _check_type(f.name, getattr(self, f.name), default)
        for name, default in _COMPLETE_TABLES.items():
            keys, want = set(getattr(self, name)), set(default())
            if keys != want:
                raise ConfigError(f"{name} needs exactly the keys {sorted(want)}: "
                                  f"missing {sorted(want - keys)}, unknown {sorted(keys - want)}")
        for name, kinds in TABLE_KINDS.items():
            table = getattr(self, name)
            kind = table.get("kind", "majority_vote" if name == "label_model" else None)
            if kind not in kinds:
                raise ConfigError(f"{name} kind {kind!r} is not one of {list(kinds)}")
            if set(table) - {"kind"} - kinds[kind].keys():
                raise ConfigError(f"{name} kind {kind!r} takes only keys {sorted(kinds[kind])}")
            # null weights are the LFs' accuracies
            _check_type(name, {k: v for k, v in table.items() if (k, v) != ("weights", None)},
                        kinds[kind])
            for key in ("endpoint", "model", "cache_path"):
                if key in table and not table[key]:
                    raise ConfigError(f"{name} {key} must be a non-empty string")
        if self.embedding["kind"] == "remote" and not (
            self.embedding.get("endpoint") and self.embedding.get("model")
        ):
            raise ConfigError("a remote embedding needs an endpoint and a model")
        ds, training, lm = self.downstream, self.candidate_training, self.label_model
        ranges = [*self.tfidf["ngram_ranges"], ds["ngram_range"]]
        for ok, rule in (
            (0 <= self.alpha <= 1, "alpha must be in [0, 1]"),
            (self.beta >= 0, "beta must be >= 0"),
            (min(self.k_per_category.values()) >= 1, "k_per_category values must be >= 1"),
            (self.max_rounds >= 1, "max_rounds must be >= 1"),
            (self.candidates_per_round >= 1, "candidates_per_round must be >= 1"),
            (0 < self.grid_step <= 1, "grid_step must be in (0, 1]"),
            (all(0 < v <= 1 for v in self.tau_dup.values()), "tau_dup values must be in (0, 1]"),
            (self.dedup_sample_size >= 1, "dedup_sample_size must be >= 1"),
            (self.base_seed >= 0, "base_seed must be >= 0"),
            (self.provider.get("rng_seed", 0) >= 0, "provider rng_seed must be >= 0"),
            (min(self.tfidf["min_df"], self.tfidf["min_token_len"]) >= 1,
             "tfidf min_df and min_token_len must be >= 1"),
            (ds["mode"] in ("soft", "hard"), "downstream mode must be soft or hard"),
            (all(len(r) == 2 and 1 <= r[0] <= r[1] for r in ranges),
             "tfidf ngram_ranges and downstream ngram_range must be [low, high], 1 <= low <= high"),
            (min(ds["hidden"], ds["batch_size"], ds["epochs"]) >= 1,
             "downstream hidden, batch_size and epochs must be >= 1"),
            (ds["lr"] > 0, "downstream lr must be > 0"),
            (self.embedding.get("dim", 1) >= 1, "embedding dim must be >= 1"),
            (self.provider.get("top_t", 1) >= 1, "provider top_t must be >= 1"),
            (all(0 < f <= 1 for f in training["subsample_fractions"]),
             "candidate_training subsample_fractions must be in (0, 1]"),
            (min(training["semantic_head_widths"]) >= 0,
             "candidate_training semantic_head_widths must be >= 0"),
            (min(training["epochs"], training["mlp_epochs"]) >= 1,
             "candidate_training epochs and mlp_epochs must be >= 1"),
            (min(training["lr"], training["mlp_lr"]) > 0,
             "candidate_training lr and mlp_lr must be > 0"),
            (min(training["l2"], *training["regularizations"]) >= 0,
             "candidate_training l2 and regularizations must be >= 0"),
            (lm.get("max_iter", 1) >= 1, "label_model max_iter must be >= 1"),
            (lm.get("tol", 0) >= 0, "label_model tol must be >= 0"),
            (min(lm.get("weights") or [0]) >= 0, "label_model weights must be >= 0"),
            (self.provider.get("retries", 1) >= 1, "provider retries must be >= 1"),
            (self.provider.get("timeout", 1) > 0, "provider timeout must be > 0"),
        ):
            if not ok:
                raise ConfigError(rule)

    def to_json(self) -> dict:
        return dataclasses.asdict(self)

    @classmethod
    def from_json(cls, obj: dict) -> "PipelineConfig":
        known = {f.name for f in dataclasses.fields(cls)}
        unknown = set(obj) - known
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")
        return cls(**obj)

    @classmethod
    def load(cls, path: str) -> "PipelineConfig":
        with open(path, encoding="utf-8") as fh:
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
    status: str = "ok"
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
