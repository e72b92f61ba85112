"""Candidate ground-truth construction from crowd agreement.

Crowd votes at each position (``annotators.vote_counts``) induce a
candidate label set: strong consensus keeps only the plurality label(s),
moderate agreement keeps the labels the crowd actually used, weak agreement
keeps the whole inventory.  The valid sequences over those sets are the
paths respecting the scheme's transition constraints (plus "no I- at the
start" under BIO).  A forward boolean reachability pass over the (L, M)
candidate mask finds the labels some valid prefix reaches and the first
position every path is blocked at (which gets widened); a backward pass
keeps the labels lying on some complete valid path, the lattice's states.
The valid sequences are exactly the paths through them along allowed
transitions, so nothing needs them listed.  ``ValidLattice.n_valid`` counts
them exactly and ``ValidLattice.sequences`` lists the first ``cap`` of them
in lexicographic label order, each on first access.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import chain, islice

import numpy as np

from .annotators import vote_counts
from .types import CrowdInstance, LabelScheme, LabelSeq


def _label_sets(mask: np.ndarray) -> tuple[tuple[int, ...], ...]:
    """Per row of a boolean (L, M) mask, the labels it holds, ascending."""
    labels = iter(np.nonzero(mask)[1].tolist())
    return tuple(tuple(islice(labels, n)) for n in mask.sum(axis=1).tolist())


def _candidate_mask(candidates, n_labels: int) -> np.ndarray:
    """(L, M) boolean mask of per-position candidate sets."""
    if not candidates:
        raise ValueError("empty sequence")
    mask = np.zeros((len(candidates), n_labels), dtype=bool)
    mask[np.repeat(np.arange(len(candidates)), [len(c) for c in candidates]), list(chain(*candidates))] = True
    return mask


def candidate_sets(
    instance: CrowdInstance,
    scheme: LabelScheme,
    hi: float,
    lo: float,
    normalize_by: int | None = None,
) -> tuple[tuple[int, ...], ...]:
    """Per-position candidate sets for one instance.

    A position's consistency is its plurality count over the number of
    distinct labels used, so with many annotators in agreement it can exceed
    one (it reaches the annotator count under unanimity); with
    ``normalize_by`` set (typically the roster size) it is divided by that.
    Consistency at or above ``hi`` keeps the plurality labels (all of them
    on a tie); strictly between the thresholds keeps every label the crowd
    used; at or below ``lo`` every scheme label is a candidate.  The
    comparisons are exact, in integers from each threshold's
    ``as_integer_ratio()`` (an infinite ``hi`` is 1/0, which nothing
    reaches).  An instance nobody labeled admits every label everywhere.
    """
    if not instance.annotations:
        return tuple(tuple(range(scheme.size)) for _ in instance.tokens)
    if not hi > lo >= 0:
        raise ValueError("thresholds must satisfy hi > lo >= 0")
    votes = vote_counts(np.array(list(instance.annotations.values()), dtype=np.intp).T, scheme.size)
    top, used = votes.max(axis=1), (votes > 0).sum(axis=1)
    # one comparison per distinct (plurality, distinct-count) pair, in Python
    # integers: top / (used * norm) >= n / d is top * d >= n * used * norm
    width = scheme.size + 1  # used <= M, so a pair is top * width + used
    pairs, back = np.unique(top * width + used, return_inverse=True)
    (hn, hd), (ln, ld) = (1, 0) if hi == np.inf else hi.as_integer_ratio(), lo.as_integer_ratio()
    tu = [(t, u * (normalize_by or 1)) for t, u in (divmod(int(p), width) for p in pairs)]
    # per position, 0 keeps the plurality labels, 1 the labels used, 2 every label
    band = np.array([0 if t * hd >= hn * u else 1 if t * ld > ln * u else 2 for t, u in tu], dtype=np.intp)[back]
    keep = np.where((band == 0)[:, None], votes == top[:, None], (votes > 0) | (band == 2)[:, None])
    return _label_sets(keep)


def count_valid(candidates, scheme: LabelScheme) -> int:
    """Exact number of constraint-respecting paths through the candidate
    sets, counted in Python integers, so no count overflows."""
    mask = _candidate_mask(candidates, scheme.size)
    allowed = scheme.allowed_transitions.astype(object)
    paths = np.where(mask[0] & scheme.initial_allowed, 1, 0).astype(object)
    for row in mask[1:]:
        paths = np.where(row, paths @ allowed, 0)
    return int(paths.sum())


@dataclass(frozen=True)
class ValidLattice:
    """Constraint-pruned valid sequences for one instance: the paths through
    ``states`` along the scheme's allowed transitions."""

    final_candidates: tuple[tuple[int, ...], ...]  # the requested sets after any widening
    states: tuple[tuple[int, ...], ...]  # per position, labels on some full valid path
    widened: tuple[int, ...]  # positions widened to the full label set
    cap: int  # most paths ``sequences`` lists
    scheme: LabelScheme

    @cached_property
    def n_valid(self) -> int:
        """Exact number of valid sequences over ``final_candidates``, counted
        on first access."""
        return count_valid(self.final_candidates, self.scheme)

    @property
    def n_unpruned(self) -> int:
        out = 1
        for s in self.final_candidates:
            out *= len(s)
        return out

    @property
    def capped(self) -> bool:
        return self.n_valid > self.cap

    @cached_property
    def sequences(self) -> tuple[LabelSeq, ...]:
        """The first ``min(n_valid, cap)`` valid sequences in lexicographic
        label order, listed on first access.

        Depth-first with an explicit stack, so no recursion limit bounds the
        sentence length.  Every state has an allowed successor on a full
        valid path, so no branch dead-ends.
        """
        allowed, states = self.scheme.allowed_transitions, self.states
        seqs: list[LabelSeq] = []
        prefix: list[int] = []
        frames = [iter(states[0])]  # per depth: the labels still to try
        while frames and len(seqs) < self.cap:
            s = next(frames[-1], None)
            if s is None:
                frames.pop()
                if prefix:
                    prefix.pop()
            elif len(prefix) + 1 == len(states):
                seqs.append((*prefix, s))
            else:
                prefix.append(s)
                frames.append(iter([b for b in states[len(prefix)] if allowed[s, b]]))
        return tuple(seqs)


def enumerate_valid(
    instance: CrowdInstance,
    candidates,
    scheme: LabelScheme,
    cap: int = 5000,
) -> ValidLattice:
    """The valid lattice over the candidate sets; ``cap`` bounds only what
    ``ValidLattice.sequences`` lists.

    If constraints eliminate every path, the first blocked position is
    widened to the full label set and the forward pass goes on from there
    (each position at most once); a position blocked even at full width is
    an error.
    """
    if cap < 1:
        raise ValueError("cap must be at least 1")
    cand = [tuple(c) for c in candidates]
    L = len(cand)
    if L != len(instance.tokens):
        raise ValueError("candidate sets do not match the token sequence")
    if any(not c for c in cand):
        raise ValueError("empty candidate set")
    mask = _candidate_mask(cand, scheme.size)
    allowed, full = scheme.allowed_transitions, tuple(range(scheme.size))
    widened: list[int] = []
    live = np.zeros_like(mask)  # forward: labels some valid prefix reaches
    nxt = scheme.initial_allowed  # labels the prefixes so far may continue with
    for j in range(L):
        live[j] = mask[j] & nxt
        if not live[j].any():
            if not nxt.any():
                raise ValueError(f"constraints eliminate every candidate at position {j}")
            widened.append(j)
            cand[j] = full
            live[j] = nxt
        nxt = live[j] @ allowed
    # backward: keep only states lying on at least one complete valid path
    for j in range(L - 2, -1, -1):
        live[j] &= allowed @ live[j + 1]
    return ValidLattice(tuple(cand), _label_sets(live), tuple(widened), cap, scheme)
