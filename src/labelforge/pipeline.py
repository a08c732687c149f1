"""End-to-end run orchestration: explore, exploit, aggregate, train, score.

Produces the full artifact set for one configured run: LF pool JSON, label
matrix CSV, probabilistic labels JSONL, evaluation report, results-ledger row
and a run manifest with per-stage timings.
"""

from __future__ import annotations

import functools
import json
import os
import time
from contextlib import contextmanager, suppress
from dataclasses import asdict

from . import metrics as metrics_mod
from .candidates import synthesize_candidates
from .config import PipelineConfig, RunManifest, file_digest, write_atomic
from .corpus import Dataset
from .downstream import evaluate_e2e, train_downstream, write_checkpoint
from .errors import LabelForgeError, ProviderUnreachable, MalformedProviderReply
from .exploitation import run_exploitation_loop
from .features import build_featurizers
from .label_model import aggregate, write_dist_rows
from .lf_core import CATEGORIES, Category, LabelFunction, build_label_matrix
from .surface import (
    GenerationRequest,
    OfflineSeededProvider,
    RemoteLlmProvider,
    generate_surface_lfs,
)


class StageError(LabelForgeError):
    def __init__(self, stage: str, cause: Exception):
        self.stage = stage
        self.cause = cause
        super().__init__(f"stage {stage!r} failed: {cause}")


@contextmanager
def _stage(seconds: dict, name: str):
    """Accumulate a stage's wall seconds; wrap any failure as a StageError."""
    start = time.perf_counter()
    try:
        yield
    except StageError:
        raise
    except Exception as exc:
        raise StageError(name, exc) from exc
    finally:
        seconds[name] = seconds.get(name, 0.0) + time.perf_counter() - start


def build_provider(config: PipelineConfig, dataset: Dataset):
    params = dict(config.provider)
    if params.pop("kind") == "offline_seeded":
        return OfflineSeededProvider(**{"rng_seed": config.base_seed, **params})
    return RemoteLlmProvider(labels=dataset.labels, **params)


def build_generators(
    config: PipelineConfig, dataset: Dataset, featurizers: dict, manifest: RunManifest
) -> dict:
    """Per-category generators: round_index -> (candidate LFs, skip reports).

    Surface rounds add provider warnings to ``manifest``; a provider found
    unreachable is not asked again, and each later round reports a skip.
    """
    provider = build_provider(config, dataset)
    request = GenerationRequest(
        task_description=config.task_description,
        class_names=dataset.labels.class_names,
        examples=tuple((ex.doc.text, dataset.labels.name_of(ex.gold)) for ex in dataset.seed),
        count=config.candidates_per_round,
    )
    unreachable: list[int] = []  # the round that found the surface provider unreachable

    def surface_gen(round_index: int):
        skip = {"category": "surface", "round": round_index}
        if unreachable:
            return [], [{**skip, "reason": f"surface provider unreachable since round "
                                           f"{unreachable[0]}; not asked again"}]
        try:
            rules = generate_surface_lfs(provider, request, round_index=round_index)
        except (ProviderUnreachable, MalformedProviderReply) as exc:
            if isinstance(exc, ProviderUnreachable):
                unreachable.append(round_index)
                manifest.warnings.append(f"surface provider unreachable in round {round_index}; "
                                         "later rounds skipped surface generation")
            return [], [{**skip, "reason": str(exc)}]
        manifest.provider_warnings += provider.last_warnings
        return [
            LabelFunction(
                id=f"surface-r{round_index:02d}-c{k:02d}",
                category=Category.SURFACE,
                rule=rule,
                meta={"round": round_index},
            )
            for k, rule in enumerate(rules)
        ], []

    return {Category.SURFACE: surface_gen, **{
        cat: functools.partial(synthesize_candidates, cat, dataset, config, tables)
        for cat, tables in featurizers.items()}}


def clear_outcome(out_dir: str) -> None:
    """Remove the files that say how the last command into ``out_dir`` ended."""
    for name in ("manifest.json", "error.json", "predictions.jsonl", "sweep.csv"):
        with suppress(FileNotFoundError, NotADirectoryError):  # an --out that is a file has none
            os.remove(os.path.join(out_dir, name))


def run_pipeline(
    config: PipelineConfig,
    dataset: Dataset,
    out_dir: str,
    dataset_name: str = "dataset",
    dataset_path: str | None = None,
) -> dict:
    """Execute every stage and write artifacts; returns the summary dict."""
    try:
        os.makedirs(out_dir, exist_ok=True)
    except OSError as exc:  # e.g. a file by that name: bad input, before any stage runs
        raise StageError("ingest", exc) from exc
    clear_outcome(out_dir)  # the last run's outcome goes first
    seconds: dict[str, float] = {}
    manifest = RunManifest(config_hash=config.config_hash())
    if dataset_path:
        manifest.input_digests["dataset"] = file_digest(dataset_path)
    seeded = {ex.gold for ex in dataset.seed}
    manifest.warnings = [f"class {name!r} has no seed examples"
                         for c, name in enumerate(dataset.labels.class_names) if c not in seeded]

    with _stage(seconds, "featurize"):
        structural, semantic, end_featurizer = build_featurizers(dataset, config)
        featurizers = {Category.STRUCTURAL: structural, Category.SEMANTIC: semantic}

    with _stage(seconds, "explore_exploit"):
        generators = build_generators(config, dataset, featurizers, manifest)
        kept, reports, skips = run_exploitation_loop(dataset, config, generators)
        manifest.shortfall = dict(reports[-1]["shortfall"])
        manifest.stop_reason = "round_budget" if manifest.shortfall else "filled"

    with _stage(seconds, "matrix"):
        lfs = [lf for cat in CATEGORIES for lf in kept[cat]]
        matrix = build_label_matrix(lfs, [d.id for d in dataset.unlabeled])

    with _stage(seconds, "aggregate"):
        accuracies = [lf.est_accuracy or 0.0 for lf in lfs]
        dists, covered = aggregate(matrix, config.label_model, dataset.labels, accuracies)

    with _stage(seconds, "metrics"):
        labeling_report = None
        gold_ids = set(dataset.unlabeled_gold)
        if gold_ids and gold_ids == set(matrix.row_ids):
            labeling_report = metrics_mod.evaluate_labeling(
                dists, covered, matrix.row_ids, dataset.unlabeled_gold
            )

    with _stage(seconds, "downstream"):
        net = train_downstream(dists, covered, end_featurizer, config)
        test_probs = e2e_report = None
        if dataset.test:
            test_probs = net.predict_proba_many(end_featurizer.transform_many(dataset.test_index))
            e2e_report = evaluate_e2e(test_probs, dataset.test)

    with _stage(seconds, "write"):
        write_start = time.perf_counter()  # the manifest records the seconds up to its own write
        summary = {
            "dataset": dataset_name,
            "config_hash": config.config_hash(),
            "pool_counts": reports[-1]["kept"],
            "rounds": len(reports),
            "coverage": labeling_report.coverage if labeling_report else None,
            "weighted_f1": labeling_report.weighted_f1 if labeling_report else None,
            "label_quality": labeling_report.label_quality if labeling_report else None,
            "e2e_f1": e2e_report.weighted_f1 if e2e_report else None,
            "labeling_report": labeling_report.to_json() if labeling_report else None,
            "e2e_report": e2e_report.to_json() if e2e_report else None,
        }
        lf_pool = {"rounds": len(reports), "counts": reports[-1]["kept"],
                   "skip_reports": skips, "lfs": [lf.describe() for lf in lfs]}
        artifacts = {  # file name -> writer of its contents
            "model.json": lambda fh: write_checkpoint(fh, net, config.config_hash()),
            "lf_pool.json": lambda fh: json.dump(lf_pool, fh, indent=2, sort_keys=True),
            "filter_reports.json": lambda fh: json.dump(reports, fh, indent=2, sort_keys=True),
            "label_matrix.csv": matrix.to_csv,
            "labels.jsonl": lambda fh: write_dist_rows(
                fh, dists, matrix.row_ids, dataset.labels, "hard", covered),
            "report.json": lambda fh: metrics_mod.write_report_json(fh, summary),
            "ledger.csv": metrics_mod.ledger_appender(
                os.path.join(out_dir, "ledger.csv"),
                {**summary, "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S")}),
        }
        if dataset.test:
            artifacts["predictions.jsonl"] = lambda fh: write_dist_rows(
                fh, test_probs, [ex.doc.id for ex in dataset.test], dataset.labels, "pred")
        paths = {os.path.splitext(name)[0]: os.path.join(out_dir, name)
                 for name in (*artifacts, "manifest.json")}
        for name, write in artifacts.items():
            write_atomic(os.path.join(out_dir, name), write)
        manifest.stage_seconds = {**seconds, "write": time.perf_counter() - write_start}
        manifest.artifacts = paths
        write_atomic(paths["manifest"],
                     lambda fh: metrics_mod.write_report_json(fh, asdict(manifest)))

    summary["stage_seconds"] = seconds
    summary["artifacts"] = paths
    return summary
