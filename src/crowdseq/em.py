"""Joint estimation of the tagger and the annotator reliability tables.

Alternates a posterior step with a maximization step: a warm-started,
iteration-capped tagger refit on the posterior's expected label counts, plus
closed-form smoothed updates of the reliability tables.

An instance's valid lattice is exactly the set of paths through its
``ValidLattice.states`` along the scheme's allowed transitions, so its
posterior is a linear chain: the tagger's unary scores plus each present
annotator's ``context_factor`` (derived once, in ``initialize``, from
``annotators``), -inf off the states, and the tagger's bigram weights, -inf
on forbidden transitions.  ``e_step`` featurizes the corpus once, takes the
tagger's log-partitions from one packed forward pass and the posteriors from
one masked forward-backward pass (``expected_counts``), enumerating no
candidate sequence, so N rounds of ``fit`` score the corpus N + 1 times.
``posterior_modes`` runs one Viterbi pass over the last round's masked
chains.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import NamedTuple, Sequence

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
    SequencePotentials,
    TrainOptions,
    TrainResult,
    build_model,
    expected_counts,
    extract_features,
    log_partition,
    optimize,
    viterbi,
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
    annotation itself.  ``lattice_cap`` bounds only the sequences
    ``build_lattice`` lists for inspection: EM sums over every lattice path.
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
    masks: tuple[np.ndarray, ...]  # per lattice, (L, M): 0 on its states, -inf elsewhere
    # per instance, (roster index, annotation_contexts) of each present annotator in roster order
    contexts: tuple[tuple[tuple[int, tuple[np.ndarray, np.ndarray, np.ndarray]], ...], ...]
    iteration: int
    history: list[float]  # the joint objective after each round, the initial one first
    last_train: TrainResult | None = field(repr=False, default=None)


def build_lattice(
    inst: CrowdInstance, scheme: LabelScheme, roster_size: int, cfg: EmConfig
) -> ValidLattice:
    """Candidate sets under the configured consistency thresholds, then the
    valid lattice through them, listing at most ``cfg.lattice_cap`` paths."""
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
    labels = range(ds.scheme.size)
    masks = tuple(np.where([[s in st for s in labels] for st in lat.states], 0.0, -np.inf) for lat in lattices)
    contexts = tuple(_present_contexts(inst, ds.roster, ds.scheme.size) for inst in ds.instances)
    return EmState(cfg, model, params, lattices, masks, contexts, 0, [])


def _present_contexts(inst: CrowdInstance, roster: Sequence[str], n_labels: int):
    links = resolve_mentions(inst.tokens)
    return tuple(
        (k, annotation_contexts(inst.annotations[ann], links, n_labels))
        for k, ann in enumerate(roster)
        if ann in inst.annotations
    )


class Posterior(NamedTuple):
    """One instance's posterior over its lattice, from ``e_step``."""

    chain: SequencePotentials  # tagger plus annotator log-factors, -inf off the lattice
    unary: np.ndarray  # (L, M) label marginals
    pair: np.ndarray  # (M, M) label-pair marginals summed over positions


def e_step(state: EmState, ds: CrowdDataset) -> tuple[list[Posterior], float]:
    """Every instance's posterior over its lattice paths, and the joint MAP
    objective EM ascends (Neal & Hinton 1998): sum_i (log Z_masked,i -
    log Z_i) - (l2/2)||theta||^2 + s * sum log tables, 0 for the last term
    when the smoothing s is 0.  An instance none of whose paths the tables
    allow (zero smoothing can give one) is a ValueError naming it."""
    pots = extract_features(state.crf, [inst.tokens for inst in ds.instances])
    theta, s, tables = state.crf.weights, state.cfg.smoothing, state.annotators
    pairwise = np.where(ds.scheme.allowed_transitions, state.crf.bigram_weights(), -np.inf)
    chains = [
        SequencePotentials(pot.unary + mask + sum(context_factor(tables, k, c) for k, c in present), pairwise)
        for pot, mask, present in zip(pots, state.masks, state.contexts)
    ]
    logz, counts = expected_counts(chains, "instance")
    prior = s * float(np.log(tables.local).sum() + np.log(tables.mention).sum()) if s else 0.0
    prior -= 0.5 * state.cfg.l2_penalty * float(theta @ theta)
    return [Posterior(c, *q) for c, q in zip(chains, counts)], float((logz - log_partition(pots)).sum()) + prior


def confusion_counts(
    state: EmState, ds: CrowdDataset, posteriors: Sequence[Posterior]
) -> tuple[np.ndarray, np.ndarray]:
    """Posterior-weighted (context, truth, assigned) counts, split by context type."""
    m = ds.scheme.size
    counts = np.zeros((2, len(ds.roster), m + 1, m, m))  # index 0 local, 1 mention
    cols = np.arange(m)[None, :]
    for (_, q, _), present in zip(posteriors, state.contexts):
        for ki, (y, ctx, is_mention) in present:
            np.add.at(counts, (is_mention[:, None].astype(np.intp), ki, ctx[:, None], cols, y[:, None]), q)
    return counts[0], counts[1]


def m_step(
    state: EmState, ds: CrowdDataset, posteriors: Sequence[Posterior]
) -> tuple[CrfModel, AnnotatorParams]:
    """Warm-started tagger refit plus closed-form reliability updates.

    The tagger step is iteration-capped, improving rather than maximizing its
    objective; the reliability update is the exact smoothed maximizer.
    """
    data = [(inst.tokens, (p.unary, p.pair), 1.0) for inst, p in zip(ds.instances, posteriors)]
    opts = TrainOptions(max_iter=state.cfg.inner_max_iter, tol=state.cfg.opt_tol, l2=state.cfg.l2_penalty)
    result = optimize(state.crf, data, opts)
    state.last_train = result
    local, mention = confusion_counts(state, ds, posteriors)
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
    posteriors: list[Posterior]  # the last e_step's, under the returned parameters


def _log_line(stream, iteration, objective, delta, opt_iters, seconds) -> None:
    if stream is not None:
        print(f"{iteration}\t{objective:.6f}\t{delta:.6f}\t{opt_iters}\t{seconds:.2f}", file=stream)


def fit(ds: CrowdDataset, cfg: EmConfig = EmConfig(), log=None) -> FitResult:
    """Alternate posterior and maximization steps until the relative change in
    the joint objective drops below ``rel_tol`` or ``max_iters`` runs out;
    each round's ``e_step`` also gives the next round's posteriors.  ``log``
    (a writable stream) receives one tab-separated line per iteration:
    iteration, objective, delta, tagger iterations, seconds.
    """
    state = initialize(ds, cfg)
    post, value = e_step(state, ds)
    state.history.append(value)
    _log_line(log, 0, value, float("nan"), 0, 0.0)
    for it in range(1, cfg.max_iters + 1):
        t0 = time.perf_counter()
        state.crf, state.annotators = m_step(state, ds, post)
        state.iteration = it
        post, value = e_step(state, ds)
        prev, delta = state.history[-1], value - state.history[-1]
        state.history.append(value)
        _log_line(log, it, value, delta, state.last_train.iterations, time.perf_counter() - t0)
        converged = abs(delta) <= cfg.rel_tol * max(1.0, abs(prev))  # max_iters >= 1: always set
        if converged:
            break
    return FitResult(state.crf, state.annotators, list(state.history), state.iteration, converged, state, post)


def posterior_modes(posteriors: Sequence[Posterior]) -> list[LabelSeq]:
    """Most probable lattice path per instance, from ``e_step`` posteriors
    such as ``FitResult.posteriors`` (Viterbi's tie rule: lowest label index)."""
    return viterbi([p.chain for p in posteriors])
