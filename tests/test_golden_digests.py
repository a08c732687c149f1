"""Seed 0 of every bench workload reproduces the artifact digests in ``bench/golden.json``.

Each workload runs through ``bench/child.py`` in its own process, with the BLAS
thread variables pinned to 1 as the bench pins them. ``predictions.jsonl`` is
compared only when OpenBLAS picks the kernel the golden file was recorded on:
the downstream net's float bytes follow the kernel, and the other four
artifacts do not.
"""

import json
import os
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH = os.path.join(ROOT, "bench")
sys.path.insert(0, BENCH)

from workloads import WORKLOADS  # noqa: E402

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
KERNEL_FREE = ("labels.jsonl", "lf_pool.json", "label_matrix.csv", "report.json")
RECORDED_CORE = "SkylakeX"  # the OpenBLAS core golden.json's predictions.jsonl was made on


def run_child(workload: str, work: str) -> tuple[dict, str]:
    """The child's result.json and the core OpenBLAS reported on its stderr."""
    env = dict(os.environ, OPENBLAS_VERBOSE="2", **{var: "1" for var in THREAD_VARS})
    done = subprocess.run(
        [sys.executable, os.path.join(BENCH, "child.py"), "--root", ROOT,
         "--workload", workload, "--seed", "0", "--work", work],
        env=env, capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stderr
    cores = [line.split(":", 1)[1].strip() for line in done.stderr.splitlines()
             if line.startswith("Core:")]
    with open(os.path.join(work, "result.json"), encoding="utf-8") as fh:
        return json.load(fh), cores[0] if cores else ""


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_seed_0_matches_the_golden_digests(workload, tmp_path):
    with open(os.path.join(BENCH, "golden.json"), encoding="utf-8") as fh:
        golden = json.load(fh)[workload]["0"]
    result, core = run_child(workload, str(tmp_path))
    assert result["problems"] == []
    compared = KERNEL_FREE + (("predictions.jsonl",) if core == RECORDED_CORE else ())
    differ = [name for name in compared if result["digests"][name] != golden["digests"][name]]
    assert differ == [], f"digests differ on the {core or 'unreported'} core"
