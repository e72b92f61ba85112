"""Single-truth aggregation baselines: token majority vote and Dawid-Skene.

Both treat tokens independently, so their output may violate BIO adjacency;
downstream training consumes it as-is.  Both count the crowd's votes with
``annotators.vote_counts``: majority vote is ``annotators.majority_vote``,
which also starts SA-SLC's EM, and Dawid-Skene starts from the votes
normalized per row.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .annotators import annotation_table, majority_vote, vote_counts
from .crf import CrfModel, TrainOptions, build_model, optimize
from .types import CrowdDataset, CrowdInstance, LabelSeq


def logsumexp(a, axis: int = -1) -> np.ndarray:
    """log(sum(exp(a))) along ``axis``, max-shift stabilized.

    A slice that is entirely -inf gives -inf, not NaN: under zero smoothing
    annotator factors can rule out every label.
    """
    a = np.asarray(a)
    top = a.max(axis=axis, keepdims=True)
    # an all -inf slice sums to 0 once shifted by 0, and log(0) is its answer
    top = np.where(np.isfinite(top), top, 0.0)
    with np.errstate(divide="ignore"):
        return np.log(np.exp(a - top).sum(axis=axis)) + top.squeeze(axis)


@dataclass
class DsModel:
    """Token-level annotator confusions (truth by assigned) and class prior."""

    roster: tuple[str, ...]
    confusion: np.ndarray  # (K, M, M)
    prior: np.ndarray  # (M,)
    loglik_history: list[float]


def ds_fit(
    ds: CrowdDataset, iters: int = 100, tol: float = 1e-8, smoothing: float = 1.0
) -> tuple[DsModel, list[np.ndarray]]:
    """Dawid-Skene estimation over tokens as independent items.

    Posteriors start from normalized vote counts; each round refits the prior
    and per-annotator confusion tables from smoothed posterior-weighted
    counts and then recomputes token posteriors.  The recorded history is the
    objective each round maximizes: marginal token log-likelihood plus, when
    ``smoothing`` > 0, the log-density of the implied Dirichlet prior on the
    tables.  That sum is non-decreasing; the raw likelihood alone need not
    be.  The loop stops early once the change drops below ``tol``.

    ``iters`` must be at least 1, ``tol`` nonnegative and ``smoothing``
    finite and nonnegative; the errors name the first two as ``aggregate``'s
    options and config keys do, ``ds_iters`` and ``ds_tol``.
    """
    if iters < 1:
        raise ValueError("ds_iters must be at least 1")
    if not tol >= 0:  # NaN fails too
        raise ValueError("ds_tol must be nonnegative")
    if not 0 <= smoothing < np.inf:
        raise ValueError("smoothing must be finite and nonnegative")
    if not ds.roster:
        raise ValueError("dataset has no annotator roster")
    m = ds.scheme.size
    k = len(ds.roster)
    a = annotation_table(ds)
    t_total = a.shape[0]
    ends = np.cumsum([len(inst.tokens) for inst in ds.instances])
    votes = vote_counts(a, m)
    unlabeled = np.flatnonzero(votes.sum(axis=1) == 0)
    if unlabeled.size:
        i = np.searchsorted(ends, unlabeled[0], side="right")
        raise ValueError(f"instance {i}: some token has no annotations")

    rows, ks = np.nonzero(a >= 0)  # every label given, row by row in roster order
    y = a[rows, ks]
    post = votes / votes.sum(axis=1, keepdims=True)

    history: list[float] = []
    for _ in range(iters):
        # maximization from current posteriors, each sum taken in row order
        # a distribution with no mass and no smoothing falls back to uniform, as
        # in ``params_from_counts``
        mass = t_total + smoothing * m
        prior = (post.sum(axis=0) + smoothing) / mass if mass else np.full(m, 1 / m)
        counts, denom = np.zeros((k, m, m)), np.zeros((k, m))
        np.add.at(counts, (ks[:, None], np.arange(m), y[:, None]), post[rows])
        np.add.at(denom, ks, post[rows])
        total = denom[:, :, None] + smoothing * m
        confusion = np.where(total > 0, (counts + smoothing) / np.where(total > 0, total, 1.0), 1.0 / m)
        # posterior step, and the objective at the parameters just fitted
        with np.errstate(divide="ignore"):
            logpost = np.tile(np.log(prior), (t_total, 1))
            np.add.at(logpost, rows, np.log(confusion[ks, :, y]))
        norm = logsumexp(logpost, axis=1)
        value = float(norm.sum())
        if smoothing > 0:
            value += smoothing * float(np.log(prior).sum() + np.log(confusion).sum())
        history.append(value)
        post = np.exp(logpost - norm[:, None])
        if len(history) > 1 and abs(history[-1] - history[-2]) < tol:
            break

    model = DsModel(tuple(ds.roster), confusion, prior, history)
    return model, [p.copy() for p in np.split(post, ends)[:-1]]


def ds_decode(model: DsModel, instance: CrowdInstance) -> LabelSeq:
    """Per-token MAP truth under a fitted model (lowest index on ties)."""
    logp = np.tile(np.log(model.prior), (len(instance.tokens), 1))
    for ann_id, labels in instance.annotations.items():
        ki = model.roster.index(ann_id)
        y = np.asarray(labels, dtype=np.intp)
        with np.errstate(divide="ignore"):
            logp += np.log(model.confusion[ki][:, y]).T
    return tuple(int(row.argmax()) for row in logp)


def aggregate_labels(
    ds: CrowdDataset, method: str, ds_iters: int = 100, ds_tol: float = 1e-8
) -> list[LabelSeq]:
    """One label sequence per instance by the named baseline (``mv`` or ``ds``)."""
    if method == "mv":
        for i, inst in enumerate(ds.instances):
            if not inst.annotations:
                raise ValueError(f"instance {i}: no annotations to vote over")
        return majority_vote(ds, annotation_table(ds))
    if method == "ds":
        model, _ = ds_fit(ds, iters=ds_iters, tol=ds_tol)
        return [ds_decode(model, inst) for inst in ds.instances]
    raise ValueError(f"unknown aggregation method: {method!r}")


def wrapper_train(ds: CrowdDataset, method: str = "mv", opts: TrainOptions = TrainOptions()) -> CrfModel:
    """Aggregate a single truth per instance, then fit a plain tagger on it."""
    seqs = aggregate_labels(ds, method)
    model = build_model(ds.scheme, (inst.tokens for inst in ds.instances))
    data = [(inst.tokens, z, 1.0) for inst, z in zip(ds.instances, seqs)]
    return optimize(model, data, opts).model
