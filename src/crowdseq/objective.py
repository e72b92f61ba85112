"""The training objective: weighted examples packed over a corpus, and the
weighted negative log-likelihood with its gradient.

A training example is one token sequence with one label sequence (as
one-hot counts) or soft label counts, and a weight; the objective takes its
examples packed over a ``_Corpus`` (``_Examples``), the sequences looked up
in the model's inventory and packed once, so EM builds its corpus once per
fit, with the observation ids firing at each packed row: the batch's unary
table sums the weight rows of those ids, the unary gradient scatters the
weighted marginals ``w * q`` back onto them with one ``np.bincount``, and
the weighted sum of the pair marginals, the (M, M) bigram gradient, is one
(M x R) @ (R x M) product over the R positions that follow another.
``crf.optimize`` minimizes it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable, Sequence

import numpy as np

from .features import _InputTable, _unary_table
from .kernel import _forward_backward, _Packing

if TYPE_CHECKING:
    from .crf import CrfModel
    from .types import LabelSeq

# One weighted example: (tokens, labels, weight), where labels is one label
# sequence or its soft counts, (L, M) label and (M, M) label-pair counts.
WeightedExample = tuple[Sequence[str], "LabelSeq | tuple[np.ndarray, np.ndarray]", float]


def _label_counts(labels, m: int) -> tuple[np.ndarray, np.ndarray]:
    """Soft counts as they are, or a label sequence's one-hot counts."""
    if len(labels) == 2 and np.ndim(labels[0]) == 2:
        uni, pair = labels
    else:
        z = np.asarray(labels, dtype=np.intp)
        uni, pair = np.eye(m)[z], np.zeros((m, m))
        np.add.at(pair, (z[..., :-1], z[..., 1:]), 1.0)
    if np.ndim(uni) != 2 or np.shape(uni)[1] != m or np.shape(pair) != (m, m):
        raise ValueError("labels must be one label sequence or its (L, M) and (M, M) soft counts")
    return uni, pair


class _Corpus:
    """Token sequences packed once, for every pass while a model's inventory
    holds: their ``_InputTable``, its columns holding the model's ids, its
    ``_Packing``, the (P, T) observation ids of the packed rows, and the
    firing (row, observation) entries in row-major order with the bin obs *
    M + label of each entry's M labels, over which ``scatter`` sums."""

    def __init__(self, model: CrfModel, inputs: _InputTable):
        self.inputs = inputs
        self.pack = _Packing(self.inputs.lengths)
        self.ids = self.inputs.ids()[self.pack.from_concat]
        self.shape = (model.n_obs, model.scheme.size)
        self.entry_rows, tpl = np.nonzero(self.ids >= 0)
        self.bins = (self.ids[self.entry_rows, tpl][:, None] * self.shape[1] + np.arange(self.shape[1])).ravel()

    def scatter(self, table: np.ndarray) -> np.ndarray:
        """The (n_obs, M) sums of the packed (P, M) ``table``'s rows over the
        rows where each observation fires, in increasing row order; an
        observation belongs to one template, so it fires once a row at most."""
        n_obs, m = self.shape
        return np.bincount(self.bins, table.take(self.entry_rows, axis=0).ravel(), n_obs * m).reshape(self.shape)


@dataclass
class _Examples:
    """Examples packed over a corpus, one per sequence, for ``_WeightedObjective``."""

    corpus: _Corpus
    unary: np.ndarray  # (P, M) label counts of the packed rows, times their sequence's weight
    pair: np.ndarray  # (M, M) weighted label-pair counts, summed in packed order
    weights: np.ndarray  # (B,) in packed order

    def __len__(self) -> int:
        return len(self.weights)


def _examples(model: CrfModel, data: Iterable[WeightedExample]) -> _Examples:
    """Weighted examples checked and packed, those of weight 0 left out."""
    m = model.scheme.size
    kept = []
    for tokens, labels, w in data:
        w = float(w)
        if not np.isfinite(w):
            raise ValueError("non-finite weight")
        if w < 0:
            raise ValueError("negative weight")
        uni, pair = _label_counts(labels, m)
        if len(uni) != len(tokens):
            raise ValueError("label/token length mismatch")
        if not tokens:
            raise ValueError("empty token sequence")
        if w > 0:
            kept.append((tokens, w * uni, w * pair, w))
    corpus = _Corpus(model, _InputTable([tokens for tokens, _, _, _ in kept]).look_up(model))
    unary = np.concatenate([uni for _, uni, _, _ in kept] or [np.zeros((0, m))])[corpus.pack.from_concat]
    packed = [kept[i] for i in corpus.pack.order]
    pair = sum((pair for _, _, pair, _ in packed), np.zeros((m, m)))
    return _Examples(corpus, unary, pair, np.array([w for _, _, _, w in packed]))


class _WeightedObjective:
    """Weighted negative log-likelihood with its gradient over ``_Examples``;
    the empirical feature counts are scattered onto the corpus's ids once,
    at construction."""

    def __init__(self, examples: _Examples, l2: float):
        if l2 < 0:
            raise ValueError("l2 penalty must be nonnegative")
        self.l2 = float(l2)
        self.corpus, self.seq_w, self.emp_b = examples.corpus, examples.weights, examples.pair
        self.row_w = self.seq_w[self.corpus.pack.row_seq, None]
        self.emp_u = self.corpus.scatter(examples.unary)

    def value_and_grad(self, theta: np.ndarray) -> tuple[float, np.ndarray]:
        if not np.isfinite(theta).all():
            raise ValueError("non-finite weights")
        corpus = self.corpus
        (n_obs, m), pk = corpus.shape, corpus.pack
        wu, wb = theta[: n_obs * m].reshape(n_obs, m), theta[n_obs * m :].reshape(m, m)
        logz, uni, before, after, e = _forward_backward(_unary_table(wu, corpus.ids), wb, pk)
        value = float(self.seq_w @ logz) - float((wu * self.emp_u).sum()) - float((wb * self.emp_b).sum())
        pair = e * ((before * self.row_w[pk.later]).T @ after)
        grad = np.concatenate([(corpus.scatter(self.row_w * uni) - self.emp_u).ravel(), (pair - self.emp_b).ravel()])
        value += 0.5 * self.l2 * float(theta @ theta)
        grad += self.l2 * theta
        return value, grad


def weighted_nll_and_gradient(
    model: CrfModel, data: Iterable[WeightedExample], l2: float = 1.0
) -> tuple[float, np.ndarray]:
    """Weighted negative log-likelihood and its gradient at the model's weights.

    objective = sum_i w_i * (log Z(x_i) - score(x_i, z_i)) + (l2/2) ||theta||^2
    """
    return _WeightedObjective(_examples(model, data), l2).value_and_grad(model.weights)
