"""Workload definitions: corpus kind, split sizes, config overrides, and why.

Every workload is closed-loop: one labeling run at a time from one process.
The seed given to the benchmark picks the synthetic corpus; the pipeline
config (its own base seed included) is the same for every seed.
"""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    corpus: str  # "separable" or "noisy": which synth generator builds it
    n_unlabeled: int
    n_seed: int
    n_test: int
    noisy_overrides: bool = False  # start from synth.noisy_experiment_overrides()
    overrides: dict = field(default_factory=dict)
    default_seed: int = 0

    def describe(self) -> dict:
        return {
            "corpus": self.corpus,
            "unlabeled": self.n_unlabeled,
            "seed": self.n_seed,
            "test": self.n_test,
            "config": ("noisy_experiment_overrides() + " if self.noisy_overrides else "defaults + ")
            + repr(self.overrides),
            "default_seed": self.default_seed,
        }


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="separable-loop",
            why="uses the whole 10-round budget, so LF application over the pool "
            "(apply_lf_many, coverage_hint) dominates: touch-the-corpus-once shows here",
            corpus="separable",
            n_unlabeled=4000,
            n_seed=40,
            n_test=400,
        ),
        Workload(
            name="noisy-pool",
            why="few rounds over a large pool: Dawid-Skene EM, downstream MLP training "
            "and per-doc embedding carry weight, and an up-front pool table gets little reuse",
            corpus="noisy",
            n_unlabeled=16000,
            n_seed=40,
            n_test=400,
            noisy_overrides=True,
            overrides={
                "max_rounds": 3,
                "label_model": {"kind": "dawid_skene", "max_iter": 25, "tol": 0.0},
            },
        ),
        Workload(
            name="seed-heavy",
            why="a 400-doc seed makes candidate training (fit_logistic) the largest cost "
            "and calibration take its seed-only branch: pool-side changes should not move it",
            corpus="separable",
            n_unlabeled=2000,
            n_seed=400,
            n_test=400,
        ),
    )
}
