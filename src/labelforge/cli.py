"""Command-line entry point: run, sweep, eval, gen-synth."""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys
import time

from .config import PipelineConfig, write_atomic
from .corpus import LabelSpace, iter_records, load_dataset, save_dataset
from .errors import IdAlignment, LabelForgeError
from .label_model import load_labels_jsonl
from .lf_core import CATEGORIES
from .metrics import evaluate_labeling, write_report_json
from .pipeline import StageError, build_provider, clear_outcome, run_pipeline
from .synth import make_noisy_corpus, make_separable_corpus

EXIT_OK = 0
EXIT_FAILURE = 1
EXIT_INPUT = 2
EXIT_ALIGNMENT = 3


def _write_error(out_dir: str, stage: str, error: Exception, code: int) -> int:
    """Name the failed ``stage`` in ``out_dir``'s ``error.json``; return the exit ``code``.

    Beside a finished outcome, or where the file cannot be written, one stderr line says so.
    """
    try:
        os.makedirs(out_dir, exist_ok=True)
        for finished in ("manifest.json", "sweep.csv"):
            if os.path.exists(os.path.join(out_dir, finished)):
                raise FileExistsError(f"it would sit beside {finished}")
        write_atomic(os.path.join(out_dir, "error.json"),
                     lambda fh: write_report_json(fh, {"stage": stage, "error": str(error)}))
    except OSError as exc:
        print(f"stage {stage!r} failed: {error}; error.json not written: {exc}", file=sys.stderr)
    return code


def _load_inputs(args) -> tuple[PipelineConfig, object]:
    os.makedirs(args.out, exist_ok=True)  # an --out that cannot be a directory is bad input
    config = PipelineConfig.load(args.config)
    if args.seed_override is not None:
        config = PipelineConfig.from_json({**config.to_json(), "base_seed": args.seed_override})
    if not os.path.exists(args.data):
        raise FileNotFoundError(f"dataset file not found: {args.data}")
    dataset = load_dataset(args.data, args.data_format,
                           _label_space(config, args.data, args.data_format))
    seed_classes = {ex.gold for ex in dataset.seed}
    if len(seed_classes) < 2:
        raise ValueError(f"seed set covers {len(seed_classes)} class(es); at least 2 needed")
    if len(dataset.unlabeled) < 2:
        raise ValueError(f"unlabeled pool has {len(dataset.unlabeled)} doc(s); at least 2 needed")
    build_provider(config, dataset)  # a remote provider reads its environment before featurize
    return config, dataset


def _label_space(config: PipelineConfig | None, path: str, fmt: str) -> LabelSpace:
    """The config's ``class_names`` in their order; without them, the data file's labels."""
    if config is not None and config.class_names:
        return LabelSpace(tuple(config.class_names))
    return _infer_labels(path, fmt)


def _infer_labels(path: str, fmt: str) -> LabelSpace:
    """The sorted string labels of the data file; ``load_dataset`` rejects any other."""
    labels = (rec.get("label") for _, rec in iter_records(path, fmt))
    return LabelSpace(tuple(sorted({n for n in labels if isinstance(n, str) and n})))


def _run_into(args, config: PipelineConfig, dataset, out_dir: str) -> dict | None:
    """The pipeline's summary of a run into ``out_dir``; None once its failed stage is named."""
    try:
        return run_pipeline(config, dataset, out_dir,
                            dataset_name=args.dataset_name or os.path.basename(args.data),
                            dataset_path=args.data)
    except StageError as exc:
        _write_error(out_dir, exc.stage, exc.cause, EXIT_FAILURE)
        return None


def cmd_run(args) -> int:
    try:
        clear_outcome(args.out)  # a directory says how its last command ended, and only that
        config, dataset = _load_inputs(args)
    except (OSError, LabelForgeError, ValueError) as exc:
        return _write_error(args.out, "ingest", exc, EXIT_INPUT)
    summary = _run_into(args, config, dataset, args.out)
    if summary is None:
        return EXIT_FAILURE
    print(json.dumps({k: summary[k] for k in
                      ("dataset", "coverage", "label_quality", "e2e_f1", "config_hash")}))
    return EXIT_OK


def _on_off(raw: str) -> bool:
    switch = {"on": True, "true": True, "1": True, "off": False, "false": False, "0": False}
    if raw.lower() not in switch:
        raise ValueError(f"abstain value must be on/off, got {raw!r}")
    return switch[raw.lower()]


# sweep parameter -> (config field, parse of one raw value into that field)
SWEEP_PARAMS = {
    "alpha": ("alpha", float),
    "beta": ("beta", float),
    "k": ("k_per_category", lambda raw: {c.value: int(raw) for c in CATEGORIES}),
    "abstain": ("abstain_enabled", _on_off),
}


def cmd_sweep(args) -> int:
    raw_values = [v for v in args.values.split(",") if v != ""]
    field_name, parse = SWEEP_PARAMS[args.param]
    try:
        clear_outcome(args.out)
        if not raw_values:
            raise ValueError("no sweep values given")
        if len(set(raw_values)) < len(raw_values):  # two runs would share one run directory
            raise ValueError(f"sweep values repeat: {args.values!r}")
        config, dataset = _load_inputs(args)
        configs = [PipelineConfig.from_json({**config.to_json(), field_name: parse(raw)})
                   for raw in raw_values]
    except (OSError, LabelForgeError, ValueError) as exc:
        return _write_error(args.out, "sweep", exc, EXIT_INPUT)

    rows = []
    sweep_csv = os.path.join(args.out, "sweep.csv")
    fields = ["param", "value", "coverage", "label_quality", "e2e_f1", "wall_time_s", "status"]

    def write_rows(fh):
        writer = csv.DictWriter(fh, fieldnames=fields, extrasaction="ignore")
        writer.writeheader()
        writer.writerows(rows)

    for raw, cfg in zip(raw_values, configs):
        start = time.perf_counter()
        summary = _run_into(args, cfg, dataset, os.path.join(args.out, f"{args.param}={raw}"))
        rows.append({**(summary or {}),  # a failed run's scores are left out, so they read ""
                     "param": args.param, "value": raw, "status": "ok" if summary else "error",
                     "wall_time_s": round(time.perf_counter() - start, 3)})
        write_atomic(sweep_csv, write_rows)  # an interrupted sweep keeps the rows it finished
    print(f"sweep complete: {sweep_csv}")
    return EXIT_OK


def cmd_eval(args) -> int:
    out_dir = os.path.dirname(args.out) or "."
    try:
        os.makedirs(out_dir, exist_ok=True)  # --out's parent is input
        if not os.path.exists(args.labels) or not os.path.exists(args.data):
            raise FileNotFoundError("labels or dataset file missing")
        config = PipelineConfig.load(args.config) if args.config else None
        labels_space = _label_space(config, args.data, args.data_format)
        dataset = load_dataset(args.data, args.data_format, labels_space)
        dists, covered, doc_ids = load_labels_jsonl(args.labels, labels_space)
        gold_map = dict(dataset.unlabeled_gold)
        for ex in list(dataset.seed) + list(dataset.test):
            gold_map.setdefault(ex.doc.id, ex.gold)
        report = evaluate_labeling(dists, covered, doc_ids, gold_map).to_json()
        write_atomic(args.out, lambda fh: write_report_json(fh, report))  # IsADirectoryError too
    except (OSError, LabelForgeError, ValueError) as exc:
        return _write_error(out_dir, "eval", exc,
                            EXIT_ALIGNMENT if isinstance(exc, IdAlignment) else EXIT_INPUT)
    print(json.dumps(report))
    return EXIT_OK


def cmd_gen_synth(args) -> int:
    made = {}
    try:
        clear_outcome(args.out)
        os.makedirs(args.out, exist_ok=True)
        for kind, make in (("separable", make_separable_corpus), ("noisy", make_noisy_corpus)):
            if args.kind in (kind, "both"):
                made[kind] = os.path.join(args.out, f"{kind}.jsonl")
                save_dataset(make(args.seed), made[kind])  # a negative seed is a ValueError
    except (OSError, ValueError) as exc:
        return _write_error(args.out, "gen-synth", exc, EXIT_INPUT)
    print(json.dumps(made))
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="labelforge")
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="execute the full pipeline on one dataset")
    run.set_defaults(func=cmd_run)
    sweep = sub.add_parser("sweep", help="re-run the pipeline across one parameter")
    sweep.add_argument("--param", required=True, choices=list(SWEEP_PARAMS))
    sweep.add_argument("--values", required=True, help="comma-separated values")
    sweep.set_defaults(func=cmd_sweep)
    for pipeline_cmd in (run, sweep):
        pipeline_cmd.add_argument("--config", required=True)
        pipeline_cmd.add_argument("--data", required=True)
        pipeline_cmd.add_argument("--out", required=True)
        pipeline_cmd.add_argument("--data-format", default="jsonl", choices=["jsonl", "csv"])
        pipeline_cmd.add_argument("--seed-override", type=int, default=None)
        pipeline_cmd.add_argument("--dataset-name", default="")

    evl = sub.add_parser("eval", help="score an exported labels file against gold")
    evl.add_argument("--labels", required=True)
    evl.add_argument("--data", required=True)
    evl.add_argument("--out", required=True)
    evl.add_argument("--data-format", default="jsonl", choices=["jsonl", "csv"])
    evl.add_argument("--config", default=None,
                     help="the run's config; its class_names fix the label order")
    evl.set_defaults(func=cmd_eval)

    synth = sub.add_parser("gen-synth", help="emit the bundled synthetic corpora")
    synth.add_argument("--out", required=True)
    synth.add_argument("--seed", type=int, default=0)
    synth.add_argument("--kind", default="both", choices=["separable", "noisy", "both"])
    synth.set_defaults(func=cmd_gen_synth)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
