"""Exact inference on a packed batch: the scaled forward-backward kernel
and its max-product twin.

Sum-product inference runs in probability space, scaled step by step
(Rabiner 1989, section V.A): the unary scores are exponentiated less their
row maximum and the pairwise table less its maximum, the forward messages
are renormalized to sum to 1 at every step, their row sums giving log Z,
and the backward messages are normalized on their own.  That holds ratios
within the float64 range only: a sequence where, at some position, the
best prefixes and suffixes outweigh every whole path by more than ~708 nats
(one step's scores spanning that much, or a dead end outweighing every live
path by that much) is refused with a ValueError naming it, never a NaN or a
silent -inf.  Viterbi, max-product, stays in log space.

Inference runs on a packed batch: sequences sorted longest first and laid
out time-major in flat (P, M) arrays over their P positions, so step t
touches only the sequences still running and nothing is padded (see
``_Packing``).  One scaled forward-backward kernel and its max-product
twin, ``_viterbi``, work on that layout; a potential of -inf rules a label
or a transition out.  Each step of the kernel is one small matrix product
per direction, and every (t-1, t) pair marginal is an outer product of the
forward message before and the backward factor after, times the pairwise
table, so no step loops over pairs.  ``_pack`` checks a
``crf.BatchPotentials`` and gathers its unary rows into packed order with
one indexing.  ``_viterbi`` accumulates its prefix scores in that packed
copy, each step keeping a running max over the from-labels so that it holds
(rows, M) scores at a time, and its back-pointers take the smallest
unsigned type that holds M.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Sequence

import numpy as np

if TYPE_CHECKING:
    from .crf import BatchPotentials

_TINY = np.finfo(float).tiny  # a scaled row sum below this is out of the float64 range


class _Packing:
    """Time-major layout of a batch of nonempty sequences sorted longest
    first, ties in batch order, ``order`` holding the batch index of each.

    Step t holds position t of the ``sizes[t]`` sequences still running, in
    that order, so row ``offsets[t] + s`` is position t of sequence s and
    the first ``sizes[t + 1]`` rows of step t are those that continue (the
    layout of PyTorch's PackedSequence).  Nothing is padded.
    """

    def __init__(self, lengths: Sequence[int]):
        lengths = np.asarray(lengths, dtype=np.intp)
        if lengths.min(initial=1) < 1:
            raise ValueError("empty sequence")
        order = np.argsort(-lengths, kind="stable")
        self.order, starts, lengths = order.tolist(), (np.cumsum(lengths) - lengths)[order], lengths[order]
        steps = np.arange(lengths.max(initial=0))
        self.sizes = np.searchsorted(-lengths, -steps, side="left")
        self.offsets = np.concatenate(([0], np.cumsum(self.sizes)))
        step = np.repeat(steps, self.sizes)
        self.row_seq = np.arange(step.size) - self.offsets[step]  # sequence of each row
        self.last_rows = self.offsets[lengths - 1] + np.arange(lengths.size)
        self.from_concat = starts[self.row_seq] + step  # packed row -> row of the batch
        # the rows past step 0, each with the row before it in its sequence
        head = int(self.sizes[0]) if self.sizes.size else 0
        self.later = slice(head, None)
        self.prev_rows = np.arange(head, step.size) - self.sizes[step[head:] - 1]
        # per step t: its rows, and the rows of step t - 1 that continue into it
        bounds = self.offsets.tolist()
        self.step_rows = [slice(a, b) for a, b in zip(bounds, bounds[1:])]
        self.prev_step_rows = [slice(0, 0)] + [slice(a, a + n) for a, n in zip(bounds, self.sizes[1:].tolist())]

    @property
    def steps(self) -> int:
        return self.sizes.size


def _no_path(unary: np.ndarray, pairwise: np.ndarray, pk: _Packing) -> np.ndarray:
    """Which packed sequences have no path of finite score: the forward
    pass over the -inf pattern alone, as booleans."""
    live = unary > -np.inf
    allowed = pairwise > -np.inf
    for t in range(1, pk.steps):
        live[pk.step_rows[t]] &= (live[pk.prev_step_rows[t], :, None] & allowed).any(axis=1)
    return ~live[pk.last_rows].any(axis=1)


def _forward(
    unary: np.ndarray, pairwise: np.ndarray, pk: _Packing, name: str, dead_ok: bool = False
) -> tuple[np.ndarray, ...]:
    """The scaled forward pass (Rabiner 1989, section V.A) over a packed
    batch: ``(u, e, alpha, c, logz)``.

    ``u = exp(unary - row max)`` (shift 0 on an all -inf row) and ``e =
    exp(pairwise - max)``, the one (M, M) table every step shares (shift 0
    when it is all -inf); then step by step ``alpha_t = (alpha_{t-1} @ e) *
    u_t / c_t``, ``c_t`` its row sum, and log Z per sequence (B,) is the sum
    of its rows' log c_t and shifts, a row past step 0 adding the table's.

    A sequence with a row whose sum ``c_t`` falls below the smallest normal
    float is refused with a ValueError calling it ``name`` and its batch
    index, ``pk.order[i]`` for packed sequence i: "has no finite-scoring path"
    when the -inf pattern leaves it no path (``log_partition`` gives -inf
    for it instead, with ``dead_ok``), else "its path scores span more than
    the float64 range": one step's scores span ~708 nats more than the
    prefixes kept reach, as when a dead end outweighs every live path by
    that much.  This pass alone cannot tell whether a prefix it let
    underflow would have won later; ``_forward_backward`` checks that.
    """
    shift = unary.max(axis=1)
    shift[shift == -np.inf] = 0.0
    u = np.exp(unary - shift[:, None])
    peak = pairwise.max(initial=-np.inf)
    peak = 0.0 if peak == -np.inf else peak
    e = np.exp(pairwise - peak)
    shift[pk.later] += peak  # each row's shifts: its unary max, and the pairwise max past step 0
    alpha = np.empty_like(u)
    c = np.empty(len(u))
    with np.errstate(divide="ignore", invalid="ignore"):  # a row with no mass left: refused below
        for t, (rows, prev) in enumerate(zip(pk.step_rows, pk.prev_step_rows)):
            if t == 0:
                a = u[rows]
            else:  # one vector-matrix product per row: a row's bits do not depend on the batch
                a = np.matmul(alpha[prev, None, :], e)[:, 0] * u[rows]
            c[rows] = s = a.sum(axis=1)
            np.divide(a, s[:, None], out=alpha[rows])
        logz = np.bincount(pk.row_seq, np.log(c) + shift, minlength=len(pk.last_rows))
    kept = c >= _TINY  # NaN fails too
    if not kept.all():
        failed = np.unique(pk.row_seq[~kept])
        dead = _no_path(unary, pairwise, pk)[failed]
        refused = [(pk.order[i], d) for i, d in zip(failed.tolist(), dead.tolist()) if not (dead_ok and d)]
        if refused:
            i, d = min(refused)
            raise ValueError(f"{name} {i} has no finite-scoring path") if d else _out_of_range(name, i)
        logz[failed] = -np.inf
    return u, e, alpha, c, logz


def _forward_backward(
    unary: np.ndarray, pairwise: np.ndarray, pk: _Packing, name: str = "sequence"
) -> tuple[np.ndarray, ...]:
    """Exact inference over a packed batch: ``(logz, uni, before, after,
    e)``, log Z per sequence (B,), the unary marginals per packed row (P,
    M), and the factors of every (t-1, t) pair marginal: for the rows
    ``pk.later`` that have a predecessor, ``e * before[r, :, None] *
    after[r, None, :]``.

    ``beta`` is the mirror recursion of ``_forward``, ``beta_{t-1} = (u_t *
    beta_t) @ e.T`` divided by its row sum: scaled apart from ``alpha``, it
    cannot overflow.  With ``norm = sum(alpha * beta)`` per row, the unary
    marginals are ``alpha * beta / norm``, ``before`` is the predecessor's
    ``alpha`` and ``after = u * beta / (c * norm)``, ``c * norm`` being the
    sum of the row's pair marginal before it is normalized.

    Refuses what ``_forward`` refuses and, as out of range, a sequence
    where ``norm`` or ``c * norm`` falls below the smallest normal float:
    there the best prefixes and the best suffixes at some position outweigh
    every whole path by more than ~708 nats, so the mass either pass let
    underflow could matter.  Above it, what underflowed is below the
    float64 rounding of what is kept.
    """
    u, e, alpha, c, logz = _forward(unary, pairwise, pk, name)
    beta = np.ones_like(u)
    with np.errstate(invalid="ignore"):  # a row with no mass left: refused below
        for t in range(pk.steps - 1, 0, -1):
            rows = pk.step_rows[t]
            b = (u[rows] * beta[rows]) @ e.T
            np.divide(b, b.sum(axis=1, keepdims=True), out=beta[pk.prev_step_rows[t]])
    uni = alpha * beta
    norm = uni.sum(axis=1)
    later = pk.later
    pair_norm = c[later] * norm[later]
    kept = norm >= _TINY  # NaN fails too
    kept[later] &= pair_norm >= _TINY
    if not kept.all():
        raise _out_of_range(name, min(pk.order[i] for i in pk.row_seq[~kept].tolist()))
    uni /= norm[:, None]
    return logz, uni, alpha[pk.prev_rows], u[later] * beta[later] / pair_norm[:, None], e


def _out_of_range(name: str, i: int) -> ValueError:
    return ValueError(f"{name} {i}: its path scores span more than the float64 range")


def _viterbi(unary: np.ndarray, pairwise: np.ndarray, pk: _Packing) -> np.ndarray:
    """The label of every packed row on its sequence's best path.

    The max-product form of ``_forward``.  It overwrites ``unary`` with the
    best prefix scores, so it takes the fresh array ``_pack`` made.  Each
    step keeps a running max over the M from-labels, (rows, M) scores,
    replaced only by a strictly greater score, so each back-pointer, in the
    smallest unsigned type that holds M, is the first best predecessor; the
    final argmax takes the first maximum too.  Of tied best paths it thus
    returns the one with the lowest last label, then the lowest label at each
    earlier position in turn, going back.  The backtrack runs step by step
    over the whole batch.
    """
    back = np.zeros(unary.shape, dtype=np.min_scalar_type(unary.shape[1]))
    for t in range(1, pk.steps):
        rows = pk.step_rows[t]
        prev, back_t = unary[pk.prev_step_rows[t]], back[rows]
        best = prev[:, :1] + pairwise[0]
        score, better = np.empty_like(best), np.empty(best.shape, dtype=bool)
        for i in range(1, pairwise.shape[0]):
            np.add(prev[:, i, None], pairwise[i], out=score)
            np.greater(score, best, out=better)
            np.copyto(best, score, where=better)
            back_t[better] = i
        unary[rows] += best
    path = np.empty(unary.shape[0], dtype=np.intp)
    path[pk.last_rows] = unary[pk.last_rows].argmax(axis=1)
    for t in range(pk.steps - 1, 0, -1):
        rows = pk.step_rows[t]
        path[pk.prev_step_rows[t]] = np.take_along_axis(back[rows], path[rows, None], axis=1)[:, 0]
    return path


def _pack(batch: BatchPotentials) -> tuple[np.ndarray, np.ndarray, _Packing]:
    """A batch packed: its unary rows in packed order, a fresh array
    gathered straight from the batch's, its pairwise table and its
    ``_Packing``, ``batch.pack`` if set.  Refuses a pairwise table other
    than one (M, M) table, lengths that do not add up to the unary rows, an
    empty sequence and NaN or +inf potentials."""
    p, m = batch.unary.shape
    if batch.pairwise.shape != (m, m):
        raise ValueError(f"pairwise table of shape {batch.pairwise.shape}: expected one ({m}, {m}) table")
    if sum(batch.lengths) != p:
        raise ValueError(f"lengths add up to {sum(batch.lengths)}, not to the {p} unary rows")
    pk = batch.pack or _Packing(batch.lengths)
    unary, pairwise = batch.unary[pk.from_concat], batch.pairwise
    if not ((unary < np.inf).all() and (pairwise < np.inf).all()):  # NaN fails too
        raise ValueError("potentials must not be NaN or +inf")
    return unary, pairwise, pk
