"""labelforge benchmark: complete labeling runs, end-to-end and per layer.

    python3 bench/run.py --workload separable-loop --seed 0 --seconds 36 --trace 0

Run from the root of a source checkout; the program is imported from
``src/``. Each sample is one labeling run in a fresh process (``child.py``),
so every sample pays the cold ``tokenize`` cache a command-line user pays,
with the BLAS/OpenMP thread variables pinned to 1 before numpy loads.

With ``--trace 0`` the command keeps starting samples while the next one is
expected to finish inside ``--seconds``, and reports the median of each
end-to-end metric. Set-up time is taken from every sample plus extra
set-up-only processes, so it is always a median of at least three.

With ``--trace 1`` it makes one untraced and one traced sample and reports
the per-layer metrics of the traced one, the pipeline stage seconds of the
untraced one, and the tracing overhead between the two. The traced sample's
spans are left in ``.bench_work/<workload>/1/spans.npz``.

A sample fails when it raises, when its artifacts disagree with the reported
quality metrics, when its digests or quality metrics differ from the first
sample of the invocation, or when its quality metrics differ from the golden
values ``golden.json`` holds for this workload and seed. Golden digests are
compared and printed but do not fail a sample: the float bytes in
``report.json`` and ``labels.jsonl`` follow the BLAS kernel the CPU selects.
The golden check is what lets a workload that fits one sample into
``--seconds`` (separable-loop) fail at all. ``failed_run_ratio`` is printed
with the metrics. The last line of stdout is one JSON object with the keys
"correct", "attempted", "failed" and "metrics".
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import layers  # noqa: E402
from outputs import QUALITY, mismatches, quality_mismatches  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

THREAD_VARS = (
    "OPENBLAS_NUM_THREADS",
    "OMP_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)
BLAS_THREADS = 1  # one process per run; extra BLAS threads only add noise on small matrices
DEADLINE_S = 170.0  # the whole invocation must end within 180 s
MIN_SETUPS = 3
GOLDEN = os.path.join(HERE, "golden.json")

END_TO_END = (
    ("docs_per_s", "docs/s"),
    ("cpu_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
    ("label_quality", "ratio"),
    ("coverage", "ratio"),
    ("e2e_f1", "ratio"),
)
UNITS = dict(END_TO_END) | {name: unit for name, unit, _ in layers.PER_LAYER}


def host_info() -> dict:
    model = platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "cpu": model,
        "python": platform.python_version(),
        "blas_threads": BLAS_THREADS,
    }


class Sample:
    """One child process: its result file plus the verdict on it."""

    def __init__(self, index, result, error, spawn, wall, setup_only=False):
        self.index = index
        self.setup_only = setup_only
        self.result = result or {}
        self.error = error
        self.setup_s = self.result["ready"] - spawn if "ready" in self.result else None
        self.duration_s = wall

    @property
    def ok(self) -> bool:
        return self.error is None


def run_child(root, workload, seed, work_dir, index, timeout, trace=False, setup_only=False) -> Sample:
    work = os.path.join(work_dir, str(index))
    cmd = [
        sys.executable, os.path.join(HERE, "child.py"),
        "--root", root, "--workload", workload, "--seed", str(seed), "--work", work,
    ]
    if trace:
        cmd.append("--trace")
    if setup_only:
        cmd.append("--setup-only")
    env = dict(os.environ, **{var: str(BLAS_THREADS) for var in THREAD_VARS})
    spawn = time.monotonic()
    try:
        proc = subprocess.run(
            cmd, cwd=root, env=env, capture_output=True, text=True, timeout=max(timeout, 1.0)
        )
    except subprocess.TimeoutExpired:
        error = f"timed out after {timeout:.0f}s"
        return Sample(index, None, error, spawn, time.monotonic() - spawn, setup_only)
    wall = time.monotonic() - spawn
    if proc.returncode != 0:
        tail = (proc.stderr or proc.stdout).strip().splitlines()[-1:] or ["no output"]
        return Sample(index, None, f"exit {proc.returncode}: {tail[0]}", spawn, wall, setup_only)
    with open(os.path.join(work, "result.json"), encoding="utf-8") as fh:
        result = json.load(fh)
    problems = result.get("problems", [])
    return Sample(index, result, "; ".join(problems) or None, spawn, wall, setup_only)


def load_golden(workload: str, seed: int) -> dict | None:
    """The recorded quality metrics and digests of one workload and seed, if any."""
    with open(GOLDEN, encoding="utf-8") as fh:
        return json.load(fh).get(workload, {}).get(str(seed))


def judge(samples: list[Sample], golden: dict | None) -> None:
    """Fail every sample whose quality differs from the golden values, or whose
    digests or quality differ from the first good sample."""
    timed = [s for s in samples if not s.setup_only]
    for sample in timed:
        if sample.ok and golden is not None:
            diff = quality_mismatches(golden["quality"], sample.result["quality"])
            if diff:
                sample.error = f"quality differs from golden: {', '.join(diff)}"
    reference = next((s for s in timed if s.ok), None)
    for sample in timed:
        if not sample.ok or sample is reference:
            continue
        for key in ("digests", "quality"):
            diff = mismatches(reference.result[key], sample.result[key])
            if diff:
                sample.error = f"{key} differ from sample {reference.index}: {', '.join(diff)}"
                break


def print_sample(sample: Sample, golden: dict | None) -> None:
    r = sample.result
    status = "ok" if sample.ok else f"FAILED ({sample.error})"
    head = f"sample {sample.index}: {'set-up only ' if sample.setup_only else ''}{status}"
    if "wall_s" not in r:
        print(head + (f" setup_s={sample.setup_s:.3f}" if sample.setup_s is not None else ""))
        return
    print(
        f"{head} wall_s={r['wall_s']:.3f} docs_per_s={r['docs_per_s']:.2f} "
        f"cpu_s={r['cpu_s']:.3f} setup_s={sample.setup_s:.3f} peak_rss_mb={r['peak_rss_mb']:.1f} "
        + " ".join(f"{k}={v:.6f}" for k, v in r["quality"].items())
    )
    stages = " ".join(f"{k}={v:.3f}" for k, v in r["stage_seconds"].items())
    print(f"  stage_seconds: {stages}")
    for name, digest in r["digests"].items():
        print(f"  sha256 {name} {digest}")
    if golden is not None:
        diff = mismatches(golden["digests"], r["digests"])
        print(f"  golden digests: {'differ: ' + ', '.join(diff) if diff else 'match'}")


def measure(args, root, work_dir, golden) -> tuple[list[Sample], dict]:
    """Untraced samples for --seconds, then set-up-only ones up to MIN_SETUPS."""
    start = time.monotonic()
    samples: list[Sample] = []
    while True:
        remaining = DEADLINE_S - (time.monotonic() - start)
        samples.append(run_child(root, args.workload, args.seed, work_dir, len(samples), remaining))
        elapsed = time.monotonic() - start
        typical = statistics.median(s.duration_s for s in samples)
        if elapsed + typical > min(args.seconds, DEADLINE_S - 10):
            break
    while (
        sum(s.ok for s in samples) < MIN_SETUPS and time.monotonic() - start < DEADLINE_S - 10
    ):
        samples.append(run_child(
            root, args.workload, args.seed, work_dir, len(samples), 30, setup_only=True
        ))
        if not samples[-1].ok:
            break
    judge(samples, golden)
    if not any(s.ok and not s.setup_only for s in samples):
        return samples, {}
    return samples, {
        name: statistics.median(values_of(samples, name)) for name, _ in END_TO_END
    }


def values_of(samples: list[Sample], name: str) -> list[float]:
    """One end-to-end metric from every good sample that measured it."""
    if name == "setup_s":
        return [s.setup_s for s in samples if s.ok]
    timed = [s.result for s in samples if s.ok and not s.setup_only]
    if name in QUALITY:
        return [r["quality"][name] for r in timed]
    return [r[name] for r in timed]


def measure_traced(args, root, work_dir, golden) -> tuple[list[Sample], dict]:
    """One untraced and one traced sample of the same input."""
    start = time.monotonic()
    plain = run_child(root, args.workload, args.seed, work_dir, 0, DEADLINE_S)
    remaining = DEADLINE_S - (time.monotonic() - start)
    traced = run_child(root, args.workload, args.seed, work_dir, 1, remaining, trace=True)
    samples = [plain, traced]
    judge(samples, golden)
    if not (plain.ok and traced.ok):
        return samples, {}
    untraced_dps = plain.result["docs_per_s"]
    traced_dps = traced.result["docs_per_s"]
    metrics = {
        **traced.result["layers"],
        **layers.stage_metrics(plain.result["stage_seconds"]),
        "trace.untraced_docs_per_s": untraced_dps,
        "trace.traced_docs_per_s": traced_dps,
        "trace.overhead_ratio": untraced_dps / traced_dps,
        "trace.wall_s": traced.result["wall_s"],
    }
    return samples, {name: metrics.get(name, 0) for name, _, _ in layers.PER_LAYER}


def summarize(samples: list[Sample], metrics: dict, trace: bool, failed: int, attempted: int):
    print(f"failed_run_ratio ratio {failed / attempted:.4f} ({failed} of {attempted} runs)")
    if trace:
        for name, value in metrics.items():
            print(f"{name} {UNITS[name]} {value}")
        return
    for name, value in metrics.items():
        values = values_of(samples, name)
        print(
            f"{name} {UNITS[name]} median={value:.6g} min={min(values):.6g} "
            f"max={max(values):.6g} n={len(values)}"
        )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--seconds", type=float, default=36.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    workload = WORKLOADS[args.workload]
    if args.seed is None:
        args.seed = workload.default_seed
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "labelforge", "pipeline.py")):
        print(f"no labelforge source under {os.path.join(root, 'src')}; "
              "run from the root of a source checkout", file=sys.stderr)
        return 2
    work_dir = os.path.join(root, ".bench_work", args.workload)
    shutil.rmtree(work_dir, ignore_errors=True)
    os.makedirs(work_dir)

    print(f"# labelforge benchmark workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}")
    print(f"# workload {json.dumps(workload.describe(), sort_keys=True)}")
    golden = load_golden(args.workload, args.seed)
    print(f"# golden values for this seed: {'yes' if golden else 'none on file'}")
    host = host_info()
    if args.trace:
        samples, metrics = measure_traced(args, root, work_dir, golden)
    else:
        samples, metrics = measure(args, root, work_dir, golden)
    numpy_version = next((s.result["numpy"] for s in samples if "numpy" in s.result), "unknown")
    print(f"# host {json.dumps({**host, 'numpy': numpy_version}, sort_keys=True)}")
    for sample in samples:
        print_sample(sample, golden)
    timed = [s for s in samples if not s.setup_only]
    failed = sum(1 for s in timed if not s.ok)
    summarize(samples, metrics, bool(args.trace), failed, len(timed))
    print(json.dumps({
        "correct": bool(metrics) and failed == 0,
        "attempted": len(timed),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": UNITS[name]} for name, value in metrics.items()},
    }))
    return 0 if metrics else 1


if __name__ == "__main__":
    sys.exit(main())
