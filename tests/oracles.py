"""Brute-force reference implementations the fast code must match."""

from __future__ import annotations

import itertools

import numpy as np
from scipy.special import logsumexp

from crowdseq import LabelScheme
from crowdseq.crf import SequencePotentials, sequence_score


def loop_observation_rows(model, tokens) -> list[np.ndarray]:
    """Per position, the interned ids of the observations firing there, in
    template order, one ``FeatureTemplate.observation`` call per position
    and template."""
    rows = []
    for t in range(len(tokens)):
        obs = (tpl.observation(tokens, t) for tpl in model.templates if tpl.kind != "label-bigram")
        rows.append(np.array([model.obs_index[o] for o in obs if o in model.obs_index], dtype=np.intp))
    return rows


def loop_obs_index(token_seqs, templates) -> dict[str, int]:
    """Observation ids in order of first appearance, interned by one
    ``FeatureTemplate.observation`` call per position and template."""
    obs_index: dict[str, int] = {}
    for tokens in token_seqs:
        for t in range(len(tokens)):
            for tpl in templates:
                if tpl.kind == "label-bigram":
                    continue
                obs = tpl.observation(tokens, t)
                if obs is not None and obs not in obs_index:
                    obs_index[obs] = len(obs_index)
    return obs_index


def all_sequences(pot: SequencePotentials):
    return itertools.product(range(pot.n_labels), repeat=pot.length)


def brute_log_partition(pot: SequencePotentials) -> float:
    return float(logsumexp([sequence_score(pot, z) for z in all_sequences(pot)]))


def brute_marginals(pot: SequencePotentials) -> tuple[np.ndarray, np.ndarray]:
    L, M = pot.length, pot.n_labels
    logZ = brute_log_partition(pot)
    unary = np.zeros((L, M))
    pairwise = np.zeros((max(L - 1, 0), M, M))
    for z in all_sequences(pot):
        p = np.exp(sequence_score(pot, z) - logZ)
        for t, lab in enumerate(z):
            unary[t, lab] += p
            if t > 0:
                pairwise[t - 1, z[t - 1], lab] += p
    return unary, pairwise


def brute_viterbi(pot: SequencePotentials) -> tuple[int, ...]:
    # ties resolve to the lexicographically smallest sequence
    best, best_z = -np.inf, None
    for z in all_sequences(pot):
        s = sequence_score(pot, z)
        if s > best + 1e-12:
            best, best_z = s, z
    return best_z


def brute_valid(candidates, scheme: LabelScheme) -> list[tuple[int, ...]]:
    out = []
    for z in itertools.product(*candidates):
        if not scheme.initial_allowed[z[0]]:
            continue
        if all(scheme.allowed_transitions[a, b] for a, b in zip(z, z[1:])):
            out.append(z)
    return out


def random_potentials(rng, L: int, M: int, per_step: bool = False) -> SequencePotentials:
    pairwise = rng.normal(size=(L - 1, M, M)) if per_step and L > 1 else rng.normal(size=(M, M))
    return SequencePotentials(unary=rng.normal(size=(L, M)), pairwise=pairwise)


def brute_weighted_nll(model, data, l2: float) -> tuple[float, np.ndarray]:
    """Weighted CRF objective and gradient by enumerating every label sequence.

    Each sequence's feature counts are laid out like the weight vector, so the
    gradient is sum_i w_i (E[counts] - counts(z_i)) + l2 * theta.
    """
    m = model.scheme.size
    nu = model.n_obs * m
    theta = model.weights

    def counts(rows, z):
        phi = np.zeros(model.dim)
        for t, lab in enumerate(z):
            np.add.at(phi, rows[t] * m + lab, 1.0)
            if t > 0 and model.has_bigram:
                phi[nu + z[t - 1] * m + lab] += 1.0
        return phi

    value = 0.5 * l2 * float(theta @ theta)
    grad = l2 * theta.copy()
    for tokens, labels, w in data:
        rows = loop_observation_rows(model, tokens)
        phis = np.array([counts(rows, z) for z in itertools.product(range(m), repeat=len(tokens))])
        scores = phis @ theta
        logz = float(logsumexp(scores))
        p = np.exp(scores - logz)
        observed = counts(rows, labels)
        value += w * (logz - float(observed @ theta))
        grad += w * (p @ phis - observed)
    return value, grad
