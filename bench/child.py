"""One labeling run in a fresh process; ``run.py`` starts one per sample.

Set-up (imports, corpus synthesis, the JSONL write) happens first; the timed
interval runs from ``corpus.load_dataset`` to the return of
``pipeline.run_pipeline``, which writes every artifact. Checks, digests and
span analysis come after the interval. The result goes to ``result.json`` in
the work directory, so stdout stays free for the program's own output.

    python3 bench/child.py --root . --workload noisy-pool --seed 0 --work DIR [--trace] [--setup-only]
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time

from outputs import QUALITY, artifact_digests, check_run
from workloads import WORKLOADS


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--root", required=True)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--work", required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    sys.path.insert(0, os.path.join(os.path.abspath(args.root), "src"))
    import numpy as np
    from labelforge import corpus, pipeline, synth
    from labelforge.config import PipelineConfig

    workload = WORKLOADS[args.workload]
    tracer = None
    if args.trace:
        import layers
        from tracer import Tracer

        tracer = Tracer(run_id=f"{workload.name}-seed{args.seed}-{os.path.basename(args.work)}")
        tracer.install("labelforge", layers.TARGETS)

    make = synth.make_noisy_corpus if workload.corpus == "noisy" else synth.make_separable_corpus
    generated = make(args.seed, workload.n_unlabeled, workload.n_seed, workload.n_test)
    overrides = synth.noisy_experiment_overrides() if workload.noisy_overrides else {}
    overrides.update(workload.overrides)
    config = PipelineConfig(**overrides)
    os.makedirs(args.work, exist_ok=True)
    data_path = os.path.join(args.work, "corpus.jsonl")
    corpus.save_dataset(generated, data_path)
    out_dir = os.path.join(args.work, "out")

    result = {"ready": time.monotonic()}
    if not args.setup_only:
        cpu0 = time.process_time()
        wall0 = time.perf_counter()
        dataset = corpus.load_dataset(data_path, "jsonl", generated.labels)
        summary = pipeline.run_pipeline(
            config, dataset, out_dir, dataset_name=workload.name, dataset_path=data_path
        )
        wall = time.perf_counter() - wall0
        cpu = time.process_time() - cpu0
        # read before the checks below, which load whole artifacts into memory
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        problems = check_run(
            out_dir,
            generated.labels.class_names,
            [(doc.id, generated.unlabeled_gold[doc.id]) for doc in generated.unlabeled],
            [(ex.doc.id, ex.gold) for ex in generated.test],
        )
        with open(os.path.join(out_dir, "report.json"), encoding="utf-8") as fh:
            report = json.load(fh)
        result.update(
            wall_s=wall,
            cpu_s=cpu,
            docs_per_s=len(dataset.unlabeled) / wall,
            peak_rss_mb=peak_rss_mb,
            quality={key: report[key] for key in QUALITY},
            digests=artifact_digests(out_dir),
            problems=problems,
            stage_seconds=summary["stage_seconds"],
            numpy=np.__version__,
        )
        if tracer is not None:
            tracer.save(os.path.join(args.work, "spans.npz"))
            span = layers.span_metrics(tracer)
            result["layers"] = {
                **span,
                **layers.artifact_metrics(out_dir, span["lf_core.apply_docs"]),
            }
    with open(os.path.join(args.work, "result.json"), "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
