"""Run the benchmark over several seeds and summarize the spread per metric.

    python3 bench/sweep.py --seeds 10 --seconds 36 --out bench/baseline.json --golden bench/golden.json
    python3 bench/sweep.py --seeds 10 --seconds 36 --out bench/baseline.json --repeat

For each workload: one ``run.py --trace 0`` per seed, then one traced run on
the workload's default seed. Each end-to-end metric gets its median, its
quartiles from ``statistics.quantiles(values, n=4)`` and its spread, the
inter-quartile distance as a share of the median. Run from the checkout root.

An existing ``--out`` file is updated: the workloads run replace their
entries and the others stay. ``--repeat`` runs the same seeds again without
the traced run and adds them to each workload's entry as a second set, with
each median's change against the first set. ``--golden`` records each seed's
quality metrics and artifact digests in a golden file that ``run.py`` checks
against; a seed already on file that now gives other values is reported and
fails the sweep.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from outputs import QUALITY, mismatches, quality_mismatches  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def invoke(workload: str, seed: int, seconds: float, trace: int) -> tuple[dict, list[str]]:
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=200)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"{' '.join(cmd)} failed: {proc.stderr.strip()[-500:]}")
    return json.loads(lines[-1]), lines


def first_digests(lines: list[str]) -> dict[str, str]:
    """The artifact digests printed for the first sample of one invocation."""
    digests: dict[str, str] = {}
    for line in lines:
        if line.startswith("  sha256 "):
            _, name, digest = line.split()
            digests[name] = digest
        elif digests:
            break
    return digests


def spread(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {
        "median": median,
        "q1": q1,
        "q3": q3,
        "spread": (q3 - q1) / median if median else 0.0,
        "n": len(values),
        "values": values,
    }


def load(path: str) -> dict:
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def dump(path: str, data: dict) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(data, fh, indent=1, sort_keys=True)
        fh.write("\n")


def record_golden(golden: dict, name: str, seed: int, result: dict, lines: list[str]) -> bool:
    """Add one seed's outputs to the golden table; False if they contradict it."""
    entry = {
        "quality": {k: result["metrics"][k]["value"] for k in QUALITY},
        "digests": first_digests(lines),
    }
    known = golden.setdefault(name, {}).setdefault(str(seed), entry)
    diff = quality_mismatches(known["quality"], entry["quality"])
    diff += mismatches(known["digests"], entry["digests"])
    if diff:
        print(f"{name} seed={seed} differs from golden: {', '.join(diff)}", flush=True)
    return not diff


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workloads", nargs="*", default=list(WORKLOADS))
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=36)
    parser.add_argument("--no-trace", action="store_true")
    parser.add_argument("--repeat", action="store_true")
    parser.add_argument("--out")
    parser.add_argument("--golden")
    args = parser.parse_args(argv)
    if args.seeds < 2:
        parser.error("--seeds must be at least 2 to give quartiles")
    if args.repeat and not (args.out and os.path.exists(args.out)):
        parser.error("--repeat adds to an existing --out file")

    if args.out and os.path.exists(args.out):
        summary = load(args.out)  # workloads this sweep does not run keep their entries
    else:
        summary = {"seconds": args.seconds, "workloads": {}}
    golden = load(args.golden) if args.golden and os.path.exists(args.golden) else {}
    seeds = list(range(args.first_seed, args.first_seed + args.seeds))
    agree = True
    for name in args.workloads:
        runs = []
        for seed in seeds:
            result, lines = invoke(name, seed, args.seconds, 0)
            runs.append(result)
            values = " ".join(f"{k}={v['value']:.6g}" for k, v in result["metrics"].items())
            print(f"{name} seed={seed} correct={result['correct']} {values}", flush=True)
            if args.golden and result["correct"]:
                agree &= record_golden(golden, name, seed, result, lines)
        stats = {
            metric: spread([r["metrics"][metric]["value"] for r in runs])
            for metric in runs[0]["metrics"]
        }
        for metric, entry in stats.items():
            print(f"{name} {metric} median={entry['median']:.6g} spread={entry['spread']:.4f}")
        attempted = sum(r["attempted"] for r in runs)
        failed = sum(r["failed"] for r in runs)
        if args.repeat:
            entry = summary["workloads"][name]
            if entry["seeds"] != [seeds[0], seeds[-1]]:
                raise SystemExit(f"{name}: the first set ran seeds {entry['seeds']}")
            first = entry["end_to_end"]
            entry.update(
                end_to_end_repeat=stats,
                repeat_attempted=attempted,
                repeat_failed=failed,
                median_change_repeat_vs_first={
                    metric: stats[metric]["median"] / first[metric]["median"] - 1
                    for metric in stats
                },
            )
            continue
        entry = {
            "definition": WORKLOADS[name].describe(),
            "seeds": [seeds[0], seeds[-1]],
            "attempted": attempted,
            "failed": failed,
            "end_to_end": stats,
        }
        if not args.no_trace:
            seed = WORKLOADS[name].default_seed
            result, lines = invoke(name, seed, args.seconds, 1)
            entry["traced"] = {
                "seed": seed,
                "correct": result["correct"],
                "digests": first_digests(lines),
                "per_layer": {k: v["value"] for k, v in result["metrics"].items()},
            }
            print(f"{name} traced correct={result['correct']}", flush=True)
        summary["workloads"][name] = entry
        summary["host"] = next(
            json.loads(line[len("# host "):]) for line in lines if line.startswith("# host ")
        )
    if args.out:
        dump(args.out, summary)
    if args.golden:
        dump(args.golden, golden)
    return 0 if agree else 1


if __name__ == "__main__":
    sys.exit(main())
