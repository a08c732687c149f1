"""The labelforge functions the traced run wraps, and the per-layer metrics.

Layers are the modules of ``src/labelforge``. Seconds are self time (the
span minus its wrapped children) unless the name ends in ``_incl_s``. Counts
that no span carries (rounds, accepted LFs) come from the run's artifacts.
A function that no longer exists reads as zero calls and zero seconds.
"""

from __future__ import annotations

import json
import os

from tracer import Target, Tracer, child_items, span_stats


def _arg(position: int, keyword: str):
    def items(args, kwargs, result):
        value = args[position] if len(args) > position else kwargs.get(keyword, ())
        return len(value)

    return items


def _result_len(args, kwargs, result):
    return len(result)


def _ds_iterations(args, kwargs, result):
    return result.iterations_run


def _target_rows(args, kwargs, result):
    return len(result[0])


TARGETS = (
    Target("corpus", "load_dataset", "corpus.load_dataset"),
    Target("pipeline", "run_pipeline", "pipeline.run_pipeline"),
    Target("lf_core", "apply_lf_many", "lf_core.apply_lf_many", _arg(1, "docs")),
    Target("lf_core", "build_label_matrix", "lf_core.build_label_matrix"),
    Target("lf_core", "estimate_coverage", "lf_core.estimate_coverage"),
    Target("lf_core", "estimate_accuracy", "lf_core.estimate_accuracy"),
    Target("exploitation", "run_exploitation_loop", "exploitation.run_exploitation_loop"),
    Target("exploitation", "coverage_hint", "exploitation.coverage_hint"),
    Target("exploitation", "deduplicate", "exploitation.deduplicate"),
    Target("exploitation", "intra_filter", "exploitation.intra_filter"),
    Target("exploitation", "inter_filter", "exploitation.inter_filter"),
    Target("candidates", "synthesize_candidates", "candidates.synthesize_candidates"),
    Target("candidates", "train_candidate", "candidates.train_candidate"),
    Target("candidates", "fit_logistic", "candidates.fit_logistic"),
    Target("candidates", "calibrate_threshold", "candidates.calibrate_threshold"),
    Target("features", "fit_tfidf", "features.fit_tfidf"),
    Target("features", "TfidfFeaturizer.transform_many", "features.transform", _arg(1, "docs")),
    Target("features", "EmbeddingFeaturizer.transform_many", "features.transform", _arg(1, "docs")),
    Target("features", "HashingEmbedder.embed", "features.embed"),
    Target("features", "RemoteEmbedder.embed", "features.embed"),
    Target("features", "tokenize", "features.tokenize"),
    Target("surface", "generate_surface_lfs", "surface.generate_surface_lfs", _result_len),
    Target("surface", "eval_surface", "surface.eval_surface"),
    Target("label_model", "aggregate", "label_model.aggregate"),
    Target("label_model", "fit_dawid_skene", "label_model.fit_dawid_skene", _ds_iterations),
    Target("downstream", "train_downstream", "downstream.train_downstream"),
    Target("downstream", "build_targets", "downstream.build_targets", _target_rows),
    Target("downstream", "evaluate_e2e", "downstream.evaluate_e2e"),
)

# metric name -> span names whose self seconds it sums
SELF_SECONDS = {
    "lf_core.apply_s": ("lf_core.apply_lf_many",),
    "lf_core.estimate_coverage_s": ("lf_core.estimate_coverage",),
    "lf_core.estimate_accuracy_s": ("lf_core.estimate_accuracy",),
    "lf_core.build_label_matrix_s": ("lf_core.build_label_matrix",),
    "exploitation.coverage_hint_s": ("exploitation.coverage_hint",),
    "exploitation.dedup_s": ("exploitation.deduplicate",),
    "exploitation.filter_s": ("exploitation.intra_filter", "exploitation.inter_filter"),
    "candidates.train_s": ("candidates.train_candidate",),
    "candidates.fit_logistic_s": ("candidates.fit_logistic",),
    "candidates.calibrate_s": ("candidates.calibrate_threshold",),
    "candidates.synthesize_s": ("candidates.synthesize_candidates",),
    "features.fit_tfidf_s": ("features.fit_tfidf",),
    "features.transform_s": ("features.transform",),
    "features.embed_s": ("features.embed",),
    "features.tokenize_s": ("features.tokenize",),
    "surface.generate_s": ("surface.generate_surface_lfs",),
    "surface.eval_s": ("surface.eval_surface",),
    "label_model.aggregate_s": ("label_model.aggregate", "label_model.fit_dawid_skene"),
    "downstream.train_s": ("downstream.train_downstream", "downstream.build_targets"),
    "downstream.evaluate_s": ("downstream.evaluate_e2e",),
    "corpus.load_dataset_s": ("corpus.load_dataset",),
}

INCLUSIVE_SECONDS = {
    "lf_core.apply_incl_s": "lf_core.apply_lf_many",
    "exploitation.coverage_hint_incl_s": "exploitation.coverage_hint",
}

CALLS = {
    "lf_core.apply_calls": "lf_core.apply_lf_many",
    "lf_core.estimate_coverage_calls": "lf_core.estimate_coverage",
    "lf_core.build_label_matrix_calls": "lf_core.build_label_matrix",
    "exploitation.coverage_hint_calls": "exploitation.coverage_hint",
    "exploitation.dedup_calls": "exploitation.deduplicate",
    "candidates.train_calls": "candidates.train_candidate",
    "candidates.calibrate_calls": "candidates.calibrate_threshold",
    "features.transform_calls": "features.transform",
    "features.embed_calls": "features.embed",
    "features.tokenize_calls": "features.tokenize",
    "surface.generate_calls": "surface.generate_surface_lfs",
    "surface.eval_calls": "surface.eval_surface",
}

ITEMS = {
    "lf_core.apply_docs": "lf_core.apply_lf_many",
    "surface.rules_generated": "surface.generate_surface_lfs",
    "label_model.ds_iterations": "label_model.fit_dawid_skene",
    "downstream.train_rows": "downstream.build_targets",
}

# pipeline stage -> metric, read from run_pipeline's returned stage_seconds
STAGES = {
    "featurize": "pipeline.featurize_s",
    "explore_exploit": "pipeline.explore_exploit_s",
    "matrix": "pipeline.matrix_s",
    "aggregate": "pipeline.aggregate_s",
    "downstream": "pipeline.downstream_s",
    "write": "pipeline.write_s",
}

# (name, unit, better) for every per-layer metric, in report order
PER_LAYER = (
    [(m, "count", "lower") for m in CALLS]
    + [(m, "s", "lower") for m in SELF_SECONDS]
    + [(m, "s", "lower") for m in INCLUSIVE_SECONDS]
    + [
        ("lf_core.apply_docs", "docs", "lower"),
        ("surface.rules_generated", "count", "higher"),
        ("label_model.ds_iterations", "count", "lower"),
        ("downstream.train_rows", "rows", "higher"),
        ("exploitation.rounds", "count", "lower"),
        ("exploitation.candidates_generated", "count", "lower"),
        ("exploitation.lfs_accepted", "count", "higher"),
        ("exploitation.accept_ratio", "ratio", "higher"),
        ("exploitation.docs_scanned_per_accepted_lf", "docs", "lower"),
        ("exploitation.dedup_drop_ratio", "ratio", "lower"),
        ("candidates.calibrate_docs", "docs", "lower"),
        ("candidates.skipped", "count", "lower"),
    ]
    + [(m, "s", "lower") for m in STAGES.values()]
    + [
        ("trace.untraced_docs_per_s", "docs/s", "higher"),
        ("trace.traced_docs_per_s", "docs/s", "higher"),
        ("trace.overhead_ratio", "ratio", "lower"),
        ("trace.wall_s", "s", "lower"),
        ("trace.spans", "count", "lower"),
    ]
)


def _load_json(path: str, default):
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except FileNotFoundError:
        return default


def span_metrics(tracer: Tracer) -> dict[str, float]:
    """Calls, item counts and seconds per layer, from the recorded spans."""
    stats = span_stats(tracer)

    def get(span: str, field: str):
        entry = stats.get(span)
        return getattr(entry, field) if entry else 0

    out: dict[str, float] = {}
    for metric, span in CALLS.items():
        out[metric] = get(span, "calls")
    for metric, spans in SELF_SECONDS.items():
        out[metric] = sum(get(span, "self_s") for span in spans)
    for metric, span in INCLUSIVE_SECONDS.items():
        out[metric] = get(span, "total_s")
    for metric, span in ITEMS.items():
        out[metric] = get(span, "items")
    out["candidates.calibrate_docs"] = child_items(
        tracer, "features.transform", "candidates.calibrate_threshold"
    )
    out["trace.spans"] = len(tracer)
    return out


def artifact_metrics(out_dir: str, apply_docs: int) -> dict[str, float]:
    """Loop outcome counts from lf_pool.json and filter_reports.json."""
    pool = _load_json(os.path.join(out_dir, "lf_pool.json"), {})
    reports = _load_json(os.path.join(out_dir, "filter_reports.json"), [])
    generated = sum(sum(r.get("generated", {}).values()) for r in reports)
    duplicates = sum(len(r.get("removed_duplicate", [])) for r in reports)
    accepted = sum(pool.get("counts", {}).values())
    skipped = sum(
        1 for s in pool.get("skip_reports", []) if s.get("category") in ("structural", "semantic")
    )
    return {
        "exploitation.rounds": pool.get("rounds", 0),
        "exploitation.candidates_generated": generated,
        "exploitation.lfs_accepted": accepted,
        "exploitation.accept_ratio": accepted / generated if generated else 0.0,
        "exploitation.docs_scanned_per_accepted_lf": apply_docs / accepted if accepted else 0.0,
        "exploitation.dedup_drop_ratio": duplicates / generated if generated else 0.0,
        "candidates.skipped": skipped,
    }


def stage_metrics(stage_seconds: dict) -> dict[str, float]:
    return {metric: float(stage_seconds.get(stage, 0.0)) for stage, metric in STAGES.items()}
