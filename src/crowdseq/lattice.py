"""Candidate ground-truth construction from crowd agreement.

Crowd votes at each position induce a candidate label set: strong consensus
keeps only the plurality label(s), moderate agreement keeps the labels the
crowd actually used, weak agreement keeps the whole inventory.  The valid
sequences over those sets are the paths respecting the scheme's transition
constraints (plus "no I- at the start" under BIO).  One forward sweep
counts the valid prefix paths ending in each label at each position; it
gives the reachable labels, the first position every path is blocked at
(which gets widened), and the exact valid count.  A backward pass keeps the
labels lying on some complete valid path, the lattice's states: the valid
sequences are exactly the paths through them along allowed transitions, so
nothing needs them listed.  ``ValidLattice.sequences`` lists the first
``cap`` of them in lexicographic label order, on first access.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

from .types import CrowdInstance, LabelScheme, LabelSeq


@dataclass(frozen=True)
class PositionConsistency:
    """Vote summary for one position."""

    labels: tuple[int, ...]  # distinct labels used, ascending
    counts: tuple[int, ...]  # votes per label, aligned with ``labels``
    consistency: Fraction  # plurality count over distinct-label count

    @property
    def top_labels(self) -> tuple[int, ...]:
        top = max(self.counts)
        return tuple(l for l, c in zip(self.labels, self.counts) if c == top)


def label_consistency(instance: CrowdInstance, j: int) -> PositionConsistency:
    """Vote summary at position j.

    The consistency ratio divides the plurality count by the number of
    distinct labels used, so with many annotators in agreement it can exceed
    one (it reaches the annotator count under unanimity).
    """
    votes: dict[int, int] = {}
    for labels in instance.annotations.values():
        votes[labels[j]] = votes.get(labels[j], 0) + 1
    if not votes:
        raise ValueError(f"no annotations at position {j}")
    labs = tuple(sorted(votes))
    counts = tuple(votes[l] for l in labs)
    return PositionConsistency(labs, counts, Fraction(max(counts), len(labs)))


def candidate_labels(
    entry: PositionConsistency, scheme: LabelScheme, hi: float, lo: float
) -> tuple[int, ...]:
    """Candidate truth labels from one position's vote summary.

    Consistency at or above ``hi`` keeps the plurality labels (all of them on
    a tie); strictly between the thresholds keeps every label the crowd used;
    at or below ``lo`` every scheme label is a candidate.
    """
    if not hi > lo >= 0:
        raise ValueError("thresholds must satisfy hi > lo >= 0")
    if entry.consistency >= hi:
        return entry.top_labels
    if entry.consistency > lo:
        return entry.labels
    return tuple(range(scheme.size))


def candidate_sets(
    instance: CrowdInstance,
    scheme: LabelScheme,
    hi: float,
    lo: float,
    normalize_by: int | None = None,
) -> tuple[tuple[int, ...], ...]:
    """Per-position candidate sets for one instance.

    With ``normalize_by`` set (typically the roster size), consistency is
    divided by it before the threshold comparison.  An instance nobody
    labeled admits every label everywhere.
    """
    full = tuple(range(scheme.size))
    if not instance.annotations:
        return tuple(full for _ in instance.tokens)
    sets = []
    for j in range(len(instance.tokens)):
        entry = label_consistency(instance, j)
        if normalize_by:
            entry = PositionConsistency(
                entry.labels, entry.counts, entry.consistency / normalize_by
            )
        sets.append(candidate_labels(entry, scheme, hi, lo))
    return tuple(sets)


def _prefix_counts(cand, scheme: LabelScheme) -> list[dict[int, int]]:
    """Per position, the number of constraint-respecting prefix paths that
    end in each label; a label no such prefix reaches is left out, so an
    empty entry marks the first position where every path is blocked."""
    allowed = scheme.allowed_transitions
    init = scheme.initial_allowed
    counts = [{s: 1 for s in cand[0] if init[s]}]
    for j in range(1, len(cand)):
        prev = counts[-1]
        nxt: dict[int, int] = {}
        for s in cand[j]:
            total = sum(c for sp, c in prev.items() if allowed[sp, s])
            if total:
                nxt[s] = total
        counts.append(nxt)
    return counts


def count_valid(candidates, scheme: LabelScheme) -> int:
    """Exact number of constraint-respecting paths through the candidate sets."""
    return sum(_prefix_counts(candidates, scheme)[-1].values())


@dataclass(frozen=True)
class ValidLattice:
    """Constraint-pruned valid sequences for one instance: the paths through
    ``states`` along the scheme's allowed transitions."""

    final_candidates: tuple[tuple[int, ...], ...]  # the requested sets after any widening
    states: tuple[tuple[int, ...], ...]  # per position, labels on some full valid path
    n_valid: int  # exact count over final_candidates
    widened: tuple[int, ...]  # positions widened to the full label set
    cap: int  # most paths ``sequences`` lists
    scheme: LabelScheme

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
    widened to the full label set and the construction is retried (each
    position at most once); a position blocked after its own widening is an
    error.
    """
    if cap < 1:
        raise ValueError("cap must be at least 1")
    cand = [tuple(c) for c in candidates]
    L = len(cand)
    if L != len(instance.tokens):
        raise ValueError("candidate sets do not match the token sequence")
    if any(not c for c in cand):
        raise ValueError("empty candidate set")
    allowed = scheme.allowed_transitions
    full = tuple(range(scheme.size))
    widened: list[int] = []
    while True:
        fwd = _prefix_counts(cand, scheme)
        blocked = next((j for j, f in enumerate(fwd) if not f), None)
        if blocked is None:
            break
        if blocked in widened:
            raise ValueError(f"constraints eliminate every candidate at position {blocked}")
        widened.append(blocked)
        cand[blocked] = full

    # keep only states lying on at least one complete valid path
    bwd = [set() for _ in range(L)]
    bwd[L - 1] = set(fwd[L - 1])
    for j in range(L - 2, -1, -1):
        bwd[j] = {s for s in fwd[j] if any(allowed[s, n] for n in bwd[j + 1])}
    states = tuple(tuple(sorted(bwd[j])) for j in range(L))
    return ValidLattice(tuple(cand), states, sum(fwd[L - 1].values()), tuple(widened), cap, scheme)
