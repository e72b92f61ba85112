"""Joint estimation of the tagger and the annotator reliability tables.

Alternates a posterior step (weights over each instance's candidate truth
sequences, combining the annotator factors with the tagger's sequence
probabilities) with a maximization step (a warm-started, iteration-capped
tagger refit on the posterior-weighted candidates, plus closed-form
smoothed updates of the reliability tables).  Candidate lattices depend only
on the crowd labels, so they are built once and reused across iterations,
their sequences kept as one (S, L) array per instance.  The tagger refit
takes that array and its posterior weights as one weighted example per
instance, so its objective scores each sentence once.

Which table and context score each annotator label is decided in
``annotators`` alone.  The contexts depend only on the data, so
``initialize`` derives them once per instance and present annotator with
``annotation_contexts``; the posterior step scores candidates from them
through ``context_factor``, and the table update counts with them.

``e_step`` scores the corpus in one batch (one featurization, one packed
forward pass) and returns the posteriors with the observed log-likelihood
that normalizes them, so N rounds of ``fit`` score it N + 1 times.  ``fit``
returns its last posteriors, from which ``posterior_modes`` reads each
instance's most probable candidate without scoring the corpus again.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .annotators import (
    AnnotatorParams,
    annotation_contexts,
    context_factor,
    params_from_counts,
    resolve_mentions,
    sample_init_params,
)
from .crf import (
    CrfModel,
    TrainOptions,
    TrainResult,
    build_model,
    extract_features,
    log_partition,
    logsumexp,
    optimize,
    sequence_scores,
)
from .lattice import ValidLattice, candidate_sets, enumerate_valid
from .types import CrowdDataset, CrowdInstance, LabelScheme, LabelSeq, validate_dataset


@dataclass(frozen=True)
class EmConfig:
    """Knobs for the alternating estimation loop.

    ``consistency_hi`` defaults to half the roster size and ``consistency_lo``
    to one half; with ``normalize_consistency`` the agreement ratio is first
    divided by the roster size and the defaults become 1/2 and 1/(2K).  A
    lone annotator's consistency is 1 at every position either way, so with
    a roster of one ``consistency_lo`` defaults to 0 and every lattice is the
    annotation itself.
    """

    max_iters: int = 20
    rel_tol: float = 1e-4
    consistency_hi: float | None = None
    consistency_lo: float | None = None
    normalize_consistency: bool = False
    lattice_cap: int = 5000
    smoothing: float = 1.0
    l2_penalty: float = 1.0
    seed: int = 0
    init_max_iter: int = 100
    inner_max_iter: int = 25
    opt_tol: float = 1e-5

    def __post_init__(self):
        for name in ("max_iters", "lattice_cap", "init_max_iter", "inner_max_iter"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be at least 1")
        for name in ("rel_tol", "opt_tol"):
            if not getattr(self, name) >= 0:  # NaN fails too
                raise ValueError(f"{name} must be nonnegative")
        for name in ("smoothing", "l2_penalty"):
            if not 0 <= getattr(self, name) < np.inf:
                raise ValueError(f"{name} must be finite and nonnegative")

    def thresholds(self, roster_size: int) -> tuple[float, float]:
        if self.normalize_consistency:
            hi, lo = 0.5, 0.5 / roster_size
        else:
            hi, lo = roster_size / 2, 0.5
        if roster_size == 1:
            lo = 0.0  # hi = lo = 1/2 otherwise, which candidate_labels rejects
        hi = hi if self.consistency_hi is None else self.consistency_hi
        lo = lo if self.consistency_lo is None else self.consistency_lo
        return hi, lo


@dataclass
class EmState:
    """Mutable training state; single-owner, not thread-safe."""

    cfg: EmConfig
    crf: CrfModel
    annotators: AnnotatorParams
    lattices: tuple[ValidLattice, ...]
    candidates: tuple[np.ndarray, ...]  # per lattice, its sequences as an (S, L) array
    # per instance, (roster index, annotation_contexts) of each present annotator in roster order
    contexts: tuple[tuple[tuple[int, tuple[np.ndarray, np.ndarray, np.ndarray]], ...], ...]
    iteration: int
    loglik_history: list[float]
    last_train: TrainResult | None = field(repr=False, default=None)


def build_lattice(
    inst: CrowdInstance, scheme: LabelScheme, roster_size: int, cfg: EmConfig
) -> ValidLattice:
    """Candidate sets under the configured consistency thresholds, then the
    valid sequences through them, capped at ``cfg.lattice_cap``."""
    hi, lo = cfg.thresholds(roster_size)
    norm = roster_size if cfg.normalize_consistency else None
    sets = candidate_sets(inst, scheme, hi, lo, normalize_by=norm)
    return enumerate_valid(inst, sets, scheme, cfg.lattice_cap)


def initialize(ds: CrowdDataset, cfg: EmConfig) -> EmState:
    """Lattices, Dirichlet reliability tables, and a tagger fit on one annotator.

    The seed fixes the tables and the uniformly chosen annotator whose labels
    train the initial tagger; the feature inventory covers the whole corpus.
    """
    problems = validate_dataset(ds)
    if problems:
        raise ValueError("invalid dataset: " + "; ".join(problems[:5]))
    if not ds.roster:
        raise ValueError("dataset has no annotator roster")
    lattices = tuple(build_lattice(inst, ds.scheme, len(ds.roster), cfg) for inst in ds.instances)
    params = sample_init_params(ds.roster, ds.scheme.size, [cfg.seed, 0])
    rng = np.random.default_rng([cfg.seed, 1])
    with_data = [a for a in ds.roster if any(a in inst.annotations for inst in ds.instances)]
    if not with_data:
        raise ValueError("no annotator labeled any instance")
    chosen = with_data[int(rng.integers(len(with_data)))]
    model = build_model(ds.scheme, (inst.tokens for inst in ds.instances))
    seed_data = [
        (inst.tokens, inst.annotations[chosen], 1.0)
        for inst in ds.instances
        if chosen in inst.annotations
    ]
    opts = TrainOptions(max_iter=cfg.init_max_iter, tol=cfg.opt_tol, l2=cfg.l2_penalty)
    model = optimize(model, seed_data, opts).model
    candidates = tuple(np.asarray(lat.sequences, dtype=np.intp) for lat in lattices)
    contexts = tuple(_present_contexts(inst, ds.roster, ds.scheme.size) for inst in ds.instances)
    return EmState(cfg, model, params, lattices, candidates, contexts, 0, [])


def _present_contexts(inst: CrowdInstance, roster: Sequence[str], n_labels: int):
    links = resolve_mentions(inst.tokens)
    return tuple(
        (k, annotation_contexts(inst.annotations[ann], links, n_labels))
        for k, ann in enumerate(roster)
        if ann in inst.annotations
    )


def e_step(state: EmState, ds: CrowdDataset) -> tuple[list[np.ndarray], float]:
    """Posterior weight of every candidate truth sequence, per instance, and
    the observed log-likelihood, from one scoring pass.

    Weights multiply each present annotator's label likelihood with the
    tagger's sequence probability and normalize over the lattice.  The
    log-likelihood sums, over instances and present annotators, the log
    marginal probability of the annotator's labels, the truth marginalized
    over the instance's lattice.
    """
    pots = extract_features(state.crf, [inst.tokens for inst in ds.instances])
    posteriors, total = [], 0.0
    for pot, logz, z, present in zip(pots, log_partition(pots), state.candidates, state.contexts):
        logw = logp = sequence_scores(pot, z) - logz
        pos = np.arange(z.shape[1])[None, :]
        for k, contexts in present:
            a = context_factor(state.annotators, k, contexts)[pos, z].sum(axis=1)
            total += float(logsumexp(logp + a))
            logw = logw + a
        logw -= logsumexp(logw)
        posteriors.append(np.exp(logw))
    return posteriors, total


def confusion_counts(
    state: EmState, ds: CrowdDataset, posteriors: Sequence[np.ndarray]
) -> tuple[np.ndarray, np.ndarray]:
    """Posterior-weighted (context, truth, assigned) counts, split by context type."""
    m = ds.scheme.size
    counts = np.zeros((2, len(ds.roster), m + 1, m, m))  # index 0 local, 1 mention
    cols = np.arange(m)[None, :]
    for z, w, present in zip(state.candidates, posteriors, state.contexts):
        L = z.shape[1]
        q = np.zeros((L, m))  # posterior marginal of each truth label per position
        np.add.at(q, (np.arange(L)[None, :], z), w[:, None])
        for ki, (y, ctx, is_mention) in present:
            np.add.at(counts, (is_mention[:, None].astype(np.intp), ki, ctx[:, None], cols, y[:, None]), q)
    return counts[0], counts[1]


def m_step(
    state: EmState, ds: CrowdDataset, posteriors: Sequence[np.ndarray]
) -> tuple[CrfModel, AnnotatorParams]:
    """Warm-started tagger refit plus closed-form reliability updates.

    The tagger step is iteration-capped, improving rather than maximizing its
    objective; the reliability update is the exact smoothed maximizer.
    """
    data = [(inst.tokens, z, w) for inst, z, w in zip(ds.instances, state.candidates, posteriors)]
    opts = TrainOptions(
        max_iter=state.cfg.inner_max_iter, tol=state.cfg.opt_tol, l2=state.cfg.l2_penalty
    )
    result = optimize(state.crf, data, opts)
    state.last_train = result
    local, mention = confusion_counts(state, ds, posteriors)
    params = params_from_counts(ds.roster, local, mention, state.cfg.smoothing)
    return result.model, params


def observed_loglik(state: EmState, ds: CrowdDataset) -> float:
    """The log-likelihood half of ``e_step``."""
    return e_step(state, ds)[1]


@dataclass
class FitResult:
    crf: CrfModel
    annotators: AnnotatorParams
    history: list[float]
    iterations: int
    converged: bool
    state: EmState
    posteriors: list[np.ndarray]  # the last e_step's, under the returned parameters


def _log_line(stream, iteration, loglik, delta, opt_iters, seconds) -> None:
    if stream is not None:
        print(f"{iteration}\t{loglik:.6f}\t{delta:.6f}\t{opt_iters}\t{seconds:.2f}", file=stream)


def fit(ds: CrowdDataset, cfg: EmConfig = EmConfig(), log=None) -> FitResult:
    """Alternate posterior and maximization steps until the relative change in
    the observed log-likelihood drops below ``rel_tol`` or ``max_iters`` runs
    out; each round's ``e_step`` also gives the next round's posteriors.
    ``log`` (a writable stream) receives one tab-separated line per
    iteration: iteration, log-likelihood, delta, tagger iterations, seconds.
    """
    state = initialize(ds, cfg)
    post, ll = e_step(state, ds)
    state.loglik_history.append(ll)
    _log_line(log, 0, ll, float("nan"), 0, 0.0)
    converged = False
    for it in range(1, cfg.max_iters + 1):
        t0 = time.perf_counter()
        state.crf, state.annotators = m_step(state, ds, post)
        state.iteration = it
        post, ll = e_step(state, ds)
        prev = state.loglik_history[-1]
        state.loglik_history.append(ll)
        delta = ll - prev
        _log_line(log, it, ll, delta, state.last_train.iterations, time.perf_counter() - t0)
        if abs(delta) <= cfg.rel_tol * max(1.0, abs(prev)):
            converged = True
            break
    return FitResult(
        state.crf, state.annotators, list(state.loglik_history), state.iteration, converged, state, post
    )


def posterior_modes(state: EmState, posteriors: Sequence[np.ndarray]) -> list[LabelSeq]:
    """Highest-posterior candidate sequence per instance, from ``e_step``
    posteriors such as ``FitResult.posteriors`` (first one in lattice order
    on a tie)."""
    return [lat.sequences[int(np.argmax(w))] for lat, w in zip(state.lattices, posteriors)]
