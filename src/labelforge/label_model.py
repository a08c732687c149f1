"""Abstention-aware aggregation of the label matrix into probabilistic labels.

Three aggregators, picked by the config's ``label_model`` table, share one
contract: labels are an (n, C) table of class distributions plus an (n,)
bool covered mask, row-aligned with the matrix. Rows where every LF
abstained come back uniform and uncovered so downstream consumers can
exclude them. ABSTAIN is treated as missing data throughout (never as a
class).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from json.encoder import encode_basestring_ascii
from typing import TextIO

import numpy as np

from .corpus import LabelSpace, iter_records, row_blocks
from .errors import LabelForgeError, MalformedRecord
from .lf_core import ABSTAIN, LabelMatrix
from .nets import class_max, class_sum

DS_SMOOTHING = 1e-6


@dataclass
class DawidSkeneModel:
    """One row-stochastic confusion matrix per LF, plus the fit's posteriors."""

    confusion: np.ndarray  # m x C x C, rows sum to 1
    iterations_run: int
    converged: bool
    posteriors: np.ndarray  # over rows used for fitting
    log_likelihood_history: list[float] = field(default_factory=list)


def _vote_dists(entries: np.ndarray, num_classes: int, weights: np.ndarray) -> np.ndarray:
    """Each row's weighted vote share per class; a row where no weight landed is uniform."""
    n, m = entries.shape
    mass = np.zeros((n, num_classes))
    for j in range(m):  # within one column no (row, class) cell repeats
        col = entries[:, j]
        voted = col != ABSTAIN
        mass[voted, col[voted]] += weights[j]
    totals = class_sum(mass)
    return np.where(totals > 0, mass / np.maximum(totals, 1e-300), 1.0 / num_classes)


def _log_joint(entries: np.ndarray, priors: np.ndarray, confusion: np.ndarray) -> np.ndarray:
    """log p(y=c) + sum over voting LFs of log p(vote | y=c), one row per item."""
    log_joint = np.tile(np.log(priors + 1e-300), (entries.shape[0], 1))
    log_confusion = np.log(confusion + 1e-300)
    for j in range(entries.shape[1]):
        col = entries[:, j]
        voted = col != ABSTAIN
        log_joint[voted] += log_confusion[j][:, col[voted]].T
    return log_joint


def fit_dawid_skene(
    matrix: LabelMatrix, num_classes: int, max_iter: int = 100, tol: float = 1e-6
) -> DawidSkeneModel:
    """Classic EM over covered rows, with ABSTAIN skipped in the likelihood.

    Posteriors start from majority-vote distributions; the M-step smooths
    counts by DS_SMOOTHING so confusion rows stay stochastic even when an LF
    never emits some class. Stops when the largest posterior change drops
    below tol.

    A row's posterior depends only on its vote pattern, so the E-step runs
    once per distinct pattern and is scattered back to rows; the
    log-likelihood, the convergence test and the M-step still read the
    per-row values, in row order. The M-step sums posterior columns with
    ``np.bincount``, which adds each key's weights in row order from 0.0,
    as ``posteriors[rows].sum(axis=0)`` does.
    """
    entries = matrix.entries
    covered = (entries != ABSTAIN).any(axis=1)
    if not covered.any():
        raise LabelForgeError("every matrix entry is ABSTAIN")
    entries = entries[covered]
    m = entries.shape[1]
    shifted = np.ascontiguousarray(entries.T + 1)  # per LF, one key per row; 0 is ABSTAIN
    # a row's votes as one opaque value of its bytes, for any LF count and entry dtype
    rows = np.ascontiguousarray(entries).view(np.dtype((np.void, entries.itemsize * m)))
    _, first, inverse = np.unique(rows.reshape(-1), return_index=True, return_inverse=True)
    patterns, inverse = entries[first], inverse.reshape(-1)

    posteriors = _vote_dists(entries, num_classes, np.ones(m))

    priors = np.full(num_classes, 1.0 / num_classes)
    confusion = np.zeros((m, num_classes, num_classes))
    iterations = 0
    converged = False
    ll_history: list[float] = []

    for iterations in range(1, max_iter + 1):
        # M-step: priors and per-LF confusion rows from current posteriors
        priors = posteriors.sum(axis=0) + DS_SMOOTHING
        priors /= priors.sum()
        counts = np.empty((m, num_classes, num_classes))
        for c in range(num_classes):
            column = np.ascontiguousarray(posteriors[:, c])
            for j, keys in enumerate(shifted):
                counts[j, c] = np.bincount(keys, weights=column, minlength=num_classes + 1)[1:]
        counts += DS_SMOOTHING
        confusion = counts / counts.sum(axis=2, keepdims=True)

        # E-step, once per pattern: the log-likelihood and posteriors share one log-joint
        log_joint = _log_joint(patterns, priors, confusion)
        row_max = class_max(log_joint)
        new_posteriors = np.exp(log_joint - row_max)
        row_sum = class_sum(new_posteriors)
        ll_history.append(float(np.sum((row_max[:, 0] + np.log(row_sum[:, 0]))[inverse])))
        new_posteriors = (new_posteriors / row_sum)[inverse]

        delta = float(np.max(np.abs(new_posteriors - posteriors)))
        posteriors = new_posteriors
        if delta < tol:
            converged = True
            break

    return DawidSkeneModel(
        confusion=confusion,
        iterations_run=iterations,
        converged=converged,
        posteriors=posteriors,
        log_likelihood_history=ll_history,
    )


def aggregate(
    matrix: LabelMatrix, label_model: dict, labels: LabelSpace, accuracies: list[float] | None
) -> tuple[np.ndarray, np.ndarray]:
    """Map each matrix row to a distribution over classes.

    ``label_model`` is the config table: its "kind" (default majority vote)
    picks the aggregator. A weighted vote without "weights" (or with None)
    weighs each LF by its entry of ``accuracies``; Dawid-Skene reads
    "max_iter" and "tol" when they are set.

    Returns (dists, covered): an (n, C) float table row-aligned with
    matrix.row_ids, and the (n,) bool mask of rows with at least one vote.
    Uncovered rows are uniform.
    """
    n, m = matrix.entries.shape
    if n == 0 or m == 0:
        raise ValueError("aggregate needs a non-empty label matrix")
    num_classes = labels.num_classes
    covered = (matrix.entries != ABSTAIN).any(axis=1)
    kind = label_model.get("kind", "majority_vote")

    if kind == "dawid_skene":
        fit_args = {key: label_model[key] for key in ("max_iter", "tol") if key in label_model}
        model = fit_dawid_skene(matrix, num_classes, **fit_args)
        dists = np.full((n, num_classes), 1.0 / num_classes)
        dists[covered] = model.posteriors
        return dists, covered
    if kind == "weighted_majority_vote":
        weights = label_model.get("weights")
        weights = np.asarray(accuracies if weights is None else weights, dtype=float)
        if len(weights) != m:
            raise ValueError(f"weights length {len(weights)} must match the LF count {m}")
        if not np.any(weights > 0):
            raise LabelForgeError("weighted vote needs a positive weight")
    elif kind == "majority_vote":
        weights = np.ones(m)
    else:
        raise ValueError(f"unknown label model kind: {kind!r}")
    return _vote_dists(matrix.entries, num_classes, weights), covered


def write_dist_rows(fh: TextIO, dists: np.ndarray, doc_ids: list[str], labels: LabelSpace,
                    class_key: str, covered: np.ndarray | None = None) -> None:
    """Each row as ``json.dumps({["covered",] "dist", "doc_id", class_key}, sort_keys=True)``
    writes it, where ``class_key`` sorts after "doc_id" and names the argmax class."""
    float_str = float.__repr__ if np.isfinite(dists).all() else json.dumps  # NaN, Infinity
    names = [encode_basestring_ascii(name) for name in labels.class_names]
    hard = dists.argmax(axis=1).tolist()
    flags = ['{"covered": false, ', '{"covered": true, ']
    heads = ["{"] * len(dists) if covered is None else [flags[cov] for cov in covered.tolist()]
    for lo, hi in row_blocks(len(dists)):
        block = slice(lo, hi)
        fh.write("".join([
            f'{head}"dist": [{", ".join(map(float_str, dist))}], '
            f'"doc_id": {encode_basestring_ascii(doc_id)}, "{class_key}": {names[cls]}}}\n'
            for head, dist, doc_id, cls in zip(
                heads[block], dists[block].tolist(), doc_ids[block], hard[block])
        ]))


def load_labels_jsonl(path: str, labels: LabelSpace) -> tuple[np.ndarray, np.ndarray, list[str]]:
    """Read a labels file into (dists, covered, doc_ids).

    A record that is not {doc_id, dist, covered}, that repeats a doc_id, or whose
    "hard" does not name the argmax of its dist under this label order, raises MalformedRecord.
    """
    dists: list[list[float]] = []
    covered: list[bool] = []
    doc_ids: list[str] = []
    seen: set[str] = set()
    for line_no, rec in iter_records(path, "jsonl"):
        dist = rec.get("dist")
        if not isinstance(rec.get("doc_id"), str):
            raise MalformedRecord(line_no, "'doc_id' must be a string")
        if rec["doc_id"] in seen:
            raise MalformedRecord(line_no, f"'doc_id' {rec['doc_id']!r} repeats an earlier line")
        seen.add(rec["doc_id"])
        if not (
            isinstance(dist, list) and len(dist) == labels.num_classes
            and all(isinstance(v, (int, float)) and not isinstance(v, bool) for v in dist)
        ):
            raise MalformedRecord(line_no, f"'dist' must be a list of {labels.num_classes} numbers")
        try:
            dist = [float(v) for v in dist]
        except OverflowError:  # a JSON integer past float64's range
            raise MalformedRecord(line_no, "'dist' holds an integer no float can hold") from None
        if not isinstance(rec.get("covered"), bool):
            raise MalformedRecord(line_no, "'covered' must be a bool")
        argmax_name = labels.name_of(int(np.argmax(dist)))
        if rec.get("hard", argmax_name) != argmax_name:
            raise MalformedRecord(
                line_no, f"'hard' {rec['hard']!r} is not the argmax of 'dist' under the "
                f"label order {list(labels.class_names)}, which is {argmax_name!r}",
            )
        dists.append(dist)
        covered.append(rec["covered"])
        doc_ids.append(rec["doc_id"])
    table = np.array(dists, dtype=float).reshape(-1, labels.num_classes)
    return table, np.array(covered, dtype=bool), doc_ids
