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
from .pipeline import StageError, build_provider, run_pipeline
from .synth import make_noisy_corpus, make_separable_corpus

EXIT_OK = 0
EXIT_FAILURE = 1
EXIT_INPUT = 2
EXIT_ALIGNMENT = 3


def _write_error(out_dir: str, stage: str, error: Exception) -> None:
    try:
        os.makedirs(out_dir, exist_ok=True)
        write_atomic(os.path.join(out_dir, "error.json"),
                     lambda fh: write_report_json(fh, {"stage": stage, "error": str(error)}))
    except OSError:
        pass


def _load_inputs(args) -> tuple[PipelineConfig, object]:
    config = PipelineConfig.load(args.config)
    if args.seed_override is not None:
        config.base_seed = args.seed_override
    if not os.path.exists(args.data):
        raise FileNotFoundError(f"dataset file not found: {args.data}")
    dataset = load_dataset(args.data, args.data_format,
                           _label_space(config, args.data, args.data_format))
    seed_classes = {ex.gold for ex in dataset.seed}
    if len(seed_classes) < 2:
        raise ValueError(f"seed set covers {len(seed_classes)} class(es); at least 2 needed")
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


def cmd_run(args) -> int:
    try:
        config, dataset = _load_inputs(args)
    except (OSError, LabelForgeError, ValueError) as exc:
        _write_error(args.out, "ingest", exc)
        return EXIT_INPUT
    try:
        summary = run_pipeline(
            config,
            dataset,
            args.out,
            dataset_name=args.dataset_name or os.path.basename(args.data),
            dataset_path=args.data,
        )
    except StageError as exc:
        _write_error(args.out, exc.stage, exc.cause)
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
    if not raw_values:
        _write_error(args.out, "sweep", ValueError("no sweep values given"))
        return EXIT_INPUT
    field_name, parse = SWEEP_PARAMS[args.param]
    try:
        if len(set(raw_values)) < len(raw_values):  # two runs would share one run directory
            raise ValueError(f"sweep values repeat: {args.values!r}")
        config, dataset = _load_inputs(args)
        configs = [PipelineConfig.from_json({**config.to_json(), field_name: parse(raw)})
                   for raw in raw_values]
    except (OSError, LabelForgeError, ValueError) as exc:
        _write_error(args.out, "sweep", exc)
        return EXIT_INPUT

    os.makedirs(args.out, exist_ok=True)
    rows = []
    for raw, cfg in zip(raw_values, configs):
        run_dir = os.path.join(args.out, f"{args.param}={raw}")
        start = time.perf_counter()
        row = {"param": args.param, "value": raw, "status": "ok"}
        try:
            summary = run_pipeline(
                cfg,
                dataset,
                run_dir,
                dataset_name=args.dataset_name or os.path.basename(args.data),
                dataset_path=args.data,
            )
            row.update(
                coverage=summary["coverage"],
                label_quality=summary["label_quality"],
                e2e_f1=summary["e2e_f1"],
            )
        except StageError as exc:
            _write_error(run_dir, exc.stage, exc.cause)
            row.update(coverage="", label_quality="", e2e_f1="", status="error")
        row["wall_time_s"] = round(time.perf_counter() - start, 3)
        rows.append(row)

    sweep_csv = os.path.join(args.out, "sweep.csv")
    fields = ["param", "value", "coverage", "label_quality", "e2e_f1", "wall_time_s", "status"]

    def write_rows(fh):
        writer = csv.DictWriter(fh, fieldnames=fields)
        writer.writeheader()
        writer.writerows(rows)

    write_atomic(sweep_csv, write_rows)
    print(f"sweep complete: {sweep_csv}")
    return EXIT_OK


def cmd_eval(args) -> int:
    try:
        if not os.path.exists(args.labels) or not os.path.exists(args.data):
            raise FileNotFoundError("labels or dataset file missing")
        config = PipelineConfig.load(args.config) if args.config else None
        labels_space = _label_space(config, args.data, args.data_format)
        dataset = load_dataset(args.data, args.data_format, labels_space)
        dists, covered, doc_ids = load_labels_jsonl(args.labels, labels_space)
    except (OSError, LabelForgeError, ValueError) as exc:
        _write_error(os.path.dirname(args.out) or ".", "eval", exc)
        return EXIT_INPUT

    gold_map = dict(dataset.unlabeled_gold)
    for ex in list(dataset.seed) + list(dataset.test):
        gold_map.setdefault(ex.doc.id, ex.gold)
    try:
        report = evaluate_labeling(dists, covered, doc_ids, gold_map).to_json()
    except (IdAlignment, ValueError) as exc:
        _write_error(os.path.dirname(args.out) or ".", "eval", exc)
        return EXIT_ALIGNMENT if isinstance(exc, IdAlignment) else EXIT_INPUT
    os.makedirs(os.path.dirname(args.out) or ".", exist_ok=True)
    write_atomic(args.out, lambda fh: write_report_json(fh, report))
    print(json.dumps(report))
    return EXIT_OK


def cmd_gen_synth(args) -> int:
    os.makedirs(args.out, exist_ok=True)
    made = {}
    for kind, make in (("separable", make_separable_corpus), ("noisy", make_noisy_corpus)):
        if args.kind in (kind, "both"):
            made[kind] = os.path.join(args.out, f"{kind}.jsonl")
            save_dataset(make(args.seed), made[kind])
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
