"""Joint estimation of the tagger and the annotator reliability tables.

Starts from the crowd's majority vote (``initialize``), so a fit draws no
random number, then alternates a posterior step with a maximization step: a
warm-started, iteration-capped tagger refit on the posterior's expected label
counts, plus closed-form smoothed updates of the reliability tables.

An instance's valid lattice is exactly the set of paths through its
``ValidLattice.states`` along the scheme's allowed transitions, so its
posterior is a linear chain: the tagger's unary scores, -inf off the states,
plus the ``context_factor`` row of each of its ``annotation_entries`` (each
row's annotators in roster order), and the tagger's bigram weights, -inf on
forbidden transitions.  Refits change only the tagger's weights, so
``initialize`` featurizes and packs the corpus once (``EmState.corpus``)
for the seed fit and every round.  Over that packing ``e_step`` takes the
tagger's log-partitions from one forward pass and the posteriors from one
masked forward-backward pass (``expected_counts``), enumerating no
candidate sequence, so N rounds of ``fit`` score the corpus N + 1 times;
``m_step`` featurizes nothing again, and ``posterior_modes`` runs one
Viterbi pass over the last chains.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, replace
from itertools import chain
from typing import NamedTuple

import numpy as np

from .annotators import (
    AnnotatorParams,
    AnnotationEntries,
    annotation_entries,
    annotation_table,
    context_factor,
    majority_vote,
    params_from_counts,
)
from .crf import (
    BatchPotentials,
    CrfModel,
    TrainOptions,
    TrainResult,
    _Corpus,
    _Examples,
    _InputTable,
    build_model,
    expected_counts,
    extract_features,
    log_partition,
    optimize,
    viterbi,
)
from .lattice import ValidLattice, candidate_sets, enumerate_valid
from .types import CrowdDataset, CrowdInstance, LabelScheme, validate_dataset


@dataclass(frozen=True)
class EmConfig:
    """Knobs for the alternating estimation loop.

    ``consistency_hi`` defaults to half the roster size and ``consistency_lo``
    to one half; with ``normalize_consistency`` the agreement ratio is first
    divided by the roster size and the defaults become 1/2 and 1/(2K).  A
    lone annotator's consistency is 1 at every position either way, so with
    a roster of one ``consistency_lo`` defaults to 0 and every lattice is the
    annotation itself.  ``lattice_cap`` changes no result: EM sums over
    every lattice path, and the cap bounds only what ``ValidLattice.sequences``
    lists when something reads it.  There is no seed: ``initialize`` draws nothing.
    """

    max_iters: int = 20
    rel_tol: float = 1e-4
    consistency_hi: float | None = None
    consistency_lo: float | None = None
    normalize_consistency: bool = False
    lattice_cap: int = 5000
    smoothing: float = 1.0
    l2_penalty: float = 1.0
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
            lo = 0.0  # hi = lo = 1/2 otherwise, which candidate_sets rejects
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
    mask: np.ndarray  # (P, M) over the corpus laid end to end: 0 on the lattices' states, -inf elsewhere
    entries: AnnotationEntries  # every labeled (position, annotator) entry, from ``annotation_entries``
    corpus: _Corpus  # featurized and packed once: the tagger's inventory never changes during a fit
    iteration: int
    history: list[float]  # the joint objective after each round, the initial one first
    last_train: TrainResult | None = field(repr=False, default=None)


def build_lattice(
    inst: CrowdInstance, scheme: LabelScheme, roster_size: int, cfg: EmConfig
) -> ValidLattice:
    """Candidate sets under the configured consistency thresholds, then the
    valid lattice through them; no path is listed."""
    hi, lo = cfg.thresholds(roster_size)
    norm = roster_size if cfg.normalize_consistency else None
    sets = candidate_sets(inst, scheme, hi, lo, normalize_by=norm)
    return enumerate_valid(inst, sets, scheme, cfg.lattice_cap)


def initialize(ds: CrowdDataset, cfg: EmConfig) -> EmState:
    """Lattices, and tables and a tagger fit to the crowd's majority vote.

    The vote (``majority_vote``, as ``aggregate --method mv``) is taken as
    the truth, as Dawid & Skene (1979) and HMM-Crowd (Nguyen et al. 2017)
    start: the tables are its one-hot ``confusion_counts`` add-one smoothed
    whatever ``cfg.smoothing`` is (unsmoothed, their zeros can leave an
    instance no finite-scoring path), and the tagger is fit on its labels
    over ``EmState.corpus``, as the M-step fits, an instance of weight 0 if
    nobody labeled it, else 1.  Nothing is drawn at random; the corpus's one
    ``_InputTable`` gives the tagger its inventory (``build_model``).
    """
    problems = validate_dataset(ds)
    if problems:
        raise ValueError("invalid dataset: " + "; ".join(problems[:5]))
    if not ds.roster:
        raise ValueError("dataset has no annotator roster")
    lattices = tuple(build_lattice(inst, ds.scheme, len(ds.roster), cfg) for inst in ds.instances)
    table = annotation_table(ds)
    entries = annotation_entries(ds, table)
    if not entries.row.size:
        raise ValueError("no annotator labeled any instance")
    onehot = np.eye(ds.scheme.size)[list(chain.from_iterable(majority_vote(ds, table)))]
    params = params_from_counts(ds.roster, *confusion_counts(entries, onehot, len(ds.roster)), 1.0)
    inputs = _InputTable([inst.tokens for inst in ds.instances])
    model = build_model(ds.scheme, inputs)
    corpus = _Corpus(model, inputs)
    pk = corpus.pack
    weights = np.array([1.0 if inst.annotations else 0.0 for inst in ds.instances])[pk.order]
    unary = onehot[pk.from_concat] * weights[pk.row_seq, None]
    # the vote's label-pair counts: both rows of a pair weigh w, and w * w = w
    seed = _Examples(corpus, unary, unary[pk.prev_rows].T @ unary[pk.later], weights)
    opts = TrainOptions(max_iter=cfg.init_max_iter, tol=cfg.opt_tol, l2=cfg.l2_penalty)
    model = optimize(model, seed, opts).model
    states = list(chain.from_iterable(lat.states for lat in lattices))  # per corpus position
    mask = np.full((len(states), ds.scheme.size), -np.inf)
    mask[np.repeat(np.arange(len(states)), list(map(len, states))), list(chain.from_iterable(states))] = 0.0
    return EmState(cfg, model, params, lattices, mask, entries, corpus, 0, [])


class Posterior(NamedTuple):
    """Every instance's posterior over its lattice, laid end to end, from ``e_step``."""

    chain: BatchPotentials  # tagger plus annotator log-factors, -inf off the lattices
    unary: np.ndarray  # (P, M) label marginals
    pair: np.ndarray  # (B, M, M) label-pair marginals summed over each instance's positions


def e_step(state: EmState, ds: CrowdDataset) -> tuple[Posterior, float]:
    """Every instance's posterior over its lattice paths, and the joint MAP
    objective EM ascends (Neal & Hinton 1998): sum_i (log Z_masked,i -
    log Z_i) - (l2/2)||theta||^2 + s * sum log tables, 0 for the last term
    when the smoothing s is 0, the first sum taken in instance order.  An
    instance none of whose paths the tables allow (zero smoothing can give
    one) is a ValueError naming it."""
    batch = replace(extract_features(state.crf, state.corpus.inputs), pack=state.corpus.pack)
    factors = np.zeros(state.mask.shape)
    np.add.at(factors, state.entries.row, context_factor(state.annotators, state.entries))
    pairwise = np.where(ds.scheme.allowed_transitions, state.crf.bigram_weights(), -np.inf)
    chain = BatchPotentials(batch.unary + state.mask + factors, pairwise, batch.lengths, batch.pack)
    logz, unary, pair = expected_counts(chain, "instance")
    evidence = float((logz - log_partition(batch)).sum())
    return Posterior(chain, unary, pair), evidence + _log_prior(state)


def _log_prior(state: EmState) -> float:
    """The prior terms of ``e_step``'s objective: s * sum log tables (0
    when s is 0) - (l2/2)||theta||^2."""
    s, tables, theta = state.cfg.smoothing, state.annotators, state.crf.weights
    prior = s * float(np.log(tables.local).sum() + np.log(tables.mention).sum()) if s else 0.0
    return prior - 0.5 * state.cfg.l2_penalty * float(theta @ theta)


def confusion_counts(entries: AnnotationEntries, posterior: np.ndarray, roster_size: int) -> tuple[np.ndarray, np.ndarray]:
    """(local, mention) (annotator, context, truth, assigned) counts of the
    ``entries``, each spread over the truths by its row of the (P, M) ``posterior``."""
    m, e = posterior.shape[1], entries
    counts = np.zeros((2, roster_size, m + 1, m, m))  # index 0 local, 1 mention
    kind = e.is_mention[:, None].astype(np.intp)
    at = (kind, e.annotator[:, None], e.context[:, None], np.arange(m), e.assigned[:, None])
    np.add.at(counts, at, posterior[e.row])
    return counts[0], counts[1]


def m_step(state: EmState, ds: CrowdDataset, posterior: Posterior) -> tuple[CrfModel, AnnotatorParams]:
    """Warm-started tagger refit plus closed-form reliability updates.

    The tagger refit, on the posterior over the fit's packed corpus, is
    iteration-capped, improving rather than maximizing its objective; the
    reliability update is the exact smoothed maximizer.
    """
    pk = state.corpus.pack
    unary, pair = posterior.unary[pk.from_concat], posterior.pair[pk.order].sum(axis=0)
    data = _Examples(state.corpus, unary, pair, np.ones(len(pk.order)))
    opts = TrainOptions(max_iter=state.cfg.inner_max_iter, tol=state.cfg.opt_tol, l2=state.cfg.l2_penalty)
    result = optimize(state.crf, data, opts)
    state.last_train = result
    local, mention = confusion_counts(state.entries, posterior.unary, len(ds.roster))
    params = params_from_counts(ds.roster, local, mention, state.cfg.smoothing)
    return result.model, params


def observed_loglik(state: EmState, ds: CrowdDataset) -> float:
    """The objective half of ``e_step``."""
    return e_step(state, ds)[1]


@dataclass
class FitResult:
    crf: CrfModel
    annotators: AnnotatorParams
    history: list[float]
    iterations: int
    converged: bool
    state: EmState
    posterior: Posterior  # the last e_step's, under the returned parameters


def _log_line(stream, iteration, objective, delta, opt_iters, seconds) -> None:
    if stream is not None:
        print(f"{iteration}\t{objective:.6f}\t{delta:.6f}\t{opt_iters}\t{seconds:.2f}", file=stream)


def fit(ds: CrowdDataset, cfg: EmConfig = EmConfig(), log=None) -> FitResult:
    """Alternate posterior and maximization steps until the change in the
    joint objective drops below ``rel_tol`` times the size of its evidence
    term, sum_i (log Z_masked,i - log Z_i), or ``max_iters`` runs out; each
    round's ``e_step`` also gives the next round's posteriors.  The prior
    terms are left out of that scale: the tables' log-prior runs over every
    table row, most of which no data reaches, so it would make the test
    looser the larger the tables.  ``log`` (a writable stream) receives one
    tab-separated line per iteration: iteration, objective, delta, tagger
    iterations, seconds.
    """
    state = initialize(ds, cfg)
    post, value = e_step(state, ds)
    state.history.append(value)
    evidence = value - _log_prior(state)
    _log_line(log, 0, value, float("nan"), 0, 0.0)
    for it in range(1, cfg.max_iters + 1):
        t0 = time.perf_counter()
        state.crf, state.annotators = m_step(state, ds, post)
        state.iteration = it
        post, value = e_step(state, ds)
        delta = value - state.history[-1]
        state.history.append(value)
        _log_line(log, it, value, delta, state.last_train.iterations, time.perf_counter() - t0)
        converged = abs(delta) <= cfg.rel_tol * max(1.0, abs(evidence))  # max_iters >= 1: always set
        evidence = value - _log_prior(state)
        if converged:
            break
    return FitResult(state.crf, state.annotators, list(state.history), state.iteration, converged, state, post)


def posterior_modes(posterior: Posterior) -> list[int]:
    """The most probable lattice path of every instance, from an ``e_step``
    posterior such as ``FitResult.posterior``: one label per position, the
    paths laid end to end, as ``formats.save_tagged`` takes them.  Ties
    follow ``viterbi``: of tied best paths, the one with the lowest last
    label, then the lowest label at each earlier position in turn."""
    return viterbi(posterior.chain).tolist()
