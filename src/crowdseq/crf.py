"""Linear-chain CRF: the model, its inference and training entry points,
and its model file.

The score of a label sequence decomposes as

    score(x, z) = sum_t unary[t, z_t] + sum_{t>0} pairwise[z_{t-1}, z_t]

where the unary table collects the weights of every observation feature
firing at a position and the one (M, M) pairwise table holds label-bigram
weights.  The weight vector is the flattened (n_obs, M) unary block
followed by the flattened (M, M) bigram block.

The stages live in their own modules, and this one holds the public entry
points over them:

- ``features``: the one feature set ``TEMPLATES`` and the featurizer,
  ``_InputTable``, which numbers a batch's observations once per token type
  and scores the batch from them;
- ``kernel``: exact inference on a packed batch, the scaled
  forward-backward pass and Viterbi;
- ``objective``: training examples packed over a corpus and the weighted
  negative log-likelihood, imported by ``optimize`` when it first runs;
- ``modelfile``: the v4 model file's reader, imported by ``load_model``
  when it first runs.

So ``decode`` compiles no objective, and ``train`` and ``aggregate`` no
model-file reader.  The benchmark's tracer wraps ``minimize``, ``viterbi``,
``extract_features``, ``load_model`` and ``save_model`` on this module, and
the functions here reach them through it at call time.

Every inference entry point takes one ``BatchPotentials``: the (P, M) unary
rows of its sequences laid end to end, their lengths, one pairwise table
and, where one is made for many batches, their packing.
``extract_features`` scores a list of sentences, or their input table, into
one.  ``log_partition`` runs one forward pass, ``expected_counts`` (EM's
posteriors) one forward-backward pass and ``viterbi`` one Viterbi pass over
a batch; one sentence is a batch of one.  ``decode`` cuts its Viterbi
labels into one path per sentence.

Training minimizes the objective with ``minimize``, a numpy L-BFGS whose
Armijo line search lowers the value at every accepted step, so no part of
the program needs scipy.
"""

from __future__ import annotations

import zlib
from collections import deque
from collections.abc import Mapping
from dataclasses import dataclass, replace
from itertools import accumulate
from typing import TYPE_CHECKING, Iterable, Sequence

import numpy as np

from .features import TEMPLATES, _InputTable
from .kernel import _forward, _forward_backward, _pack, _viterbi
from .types import LabelScheme, LabelSeq

if TYPE_CHECKING:
    from .kernel import _Packing
    from .objective import WeightedExample, _Examples

# format v4's constants, which save_model and the reader, ``modelfile``, share
MODEL_MAGIC = "crowdseq-crf v4"
_name_hash = zlib.crc32  # of a name's UTF-8 bytes: the key of the name index
# line 4 of a model file: the templates and the label bigram
_TEMPLATES_LINE = "\t".join(["templates", *(t.spec_string for t in TEMPLATES), "label-bigram"])


@dataclass
class CrfModel:
    """Weights over interned observation features and label bigrams.

    Every interned observation owns one weight per label (an observation is
    "extracted" jointly with each label it could pair with); observations
    never seen during interning contribute nothing at prediction time.
    """

    scheme: LabelScheme
    obs_index: Mapping[str, int]  # a dict, or an input table's modelfile._Numbering
    weights: np.ndarray

    @property
    def n_obs(self) -> int:
        return len(self.obs_index)

    @property
    def dim(self) -> int:
        m = self.scheme.size
        return self.n_obs * m + m * m

    def unary_weights(self) -> np.ndarray:
        m = self.scheme.size
        return self.weights[: self.n_obs * m].reshape(self.n_obs, m)

    def bigram_weights(self) -> np.ndarray:
        m = self.scheme.size
        return self.weights[self.n_obs * m :].reshape(m, m)


def build_model(scheme: LabelScheme, token_seqs: Iterable[Sequence[str]] | _InputTable) -> CrfModel:
    """Intern every observation ``TEMPLATES`` fire on the corpus; zero weights.

    Ids follow first appearance in the input table's ``ids``, position by
    position and, at a position, template by template; a given table is left
    holding them, as ``look_up`` leaves one.
    """
    table = token_seqs if isinstance(token_seqs, _InputTable) else _InputTable(list(token_seqs))
    names = table.number()
    end = table.codes.size * len(table.columns)  # past every entry of ids(), flattened
    first = np.full(len(names) + 1, end)  # where each number first fires there; the last slot takes -1's
    for j, (off, col) in enumerate(table.columns):
        np.minimum.at(first, col[table._reads(off)], np.arange(j, end, len(table.columns)))
    order = np.argsort(first[:-1])[: np.count_nonzero(first[:-1] < end)]  # the numbers that fire, by first appearance
    ids = np.full(len(names), -1)
    ids[order] = np.arange(order.size)
    table.renumber(ids)
    model = CrfModel(scheme, dict(zip(np.array(names, dtype=object)[order].tolist(), range(order.size))), np.zeros(0))
    model.weights = np.zeros(model.dim)
    return model


@dataclass
class BatchPotentials:
    """Log-potential tables for a batch of sequences laid end to end, the
    one input of every inference entry point: their (P, M) unary rows,
    sequence after sequence, one (M, M) pairwise table shared by every
    step, their lengths, and the batch's ``_Packing`` where one is made once
    for many batches."""

    unary: np.ndarray  # (P, M)
    pairwise: np.ndarray  # (M, M)
    lengths: list[int]
    pack: _Packing | None = None


def extract_features(model: CrfModel, token_seqs: Sequence[Sequence[str]] | _InputTable) -> BatchPotentials:
    """The ``BatchPotentials`` of a list of token sequences under the
    model's current weights, in order, from a single pass over the whole
    batch; an empty list is an empty batch.  Given the ``_InputTable`` of a
    batch whose columns hold the model's ids, as ``load_model`` leaves the
    one ``decode_file`` passes it, it scores that table instead of
    featurizing the batch again.  The unary scores come from
    ``_InputTable.unary``: the templates that read a position's own token
    are scored once per token type.  The pairwise table is a copy of the
    bigram weights, so the batch keeps no part of the weight vector alive
    (``decode_file`` drops the model before Viterbi).
    """
    if not isinstance(token_seqs, _InputTable):
        token_seqs = _InputTable(token_seqs).look_up(model)
    return BatchPotentials(token_seqs.unary(model.unary_weights()), model.bigram_weights().copy(), token_seqs.lengths)


def log_partition(batch: BatchPotentials) -> np.ndarray:
    """log of the sum of exp(score) over all M^L label sequences, one value
    per sequence of the batch (B,), from a single packed forward pass.  A
    sequence with no finite-scoring path gives -inf; one whose scores the
    pass cannot hold in the float64 range is refused (see ``_forward``)."""
    unary, pairwise, pk = _pack(batch)
    return _forward(unary, pairwise, pk, "sequence", dead_ok=True)[-1][np.argsort(pk.order)]


def expected_counts(batch: BatchPotentials, name: str = "sequence") -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """log Z (B,), (P, M) label marginals, the sequences laid end to end,
    and (B, M, M) pair marginals summed over each sequence's positions, of
    a batch, from one packed pass.  A sequence with no finite-scoring path,
    or whose scores the pass cannot hold in the float64 range, is refused,
    the error calling it ``name`` and its index (see ``_forward_backward``)."""
    unary, pairwise, pk = _pack(batch)
    logz, uni, before, after, e = _forward_backward(unary, pairwise, pk, name)
    m = unary.shape[1]
    # the pair marginals summed per sequence, one bin per (sequence, from, to)
    bins = (pk.row_seq[pk.later, None] * m * m + np.arange(m * m)).ravel()
    sums = np.bincount(bins, (before[:, :, None] * after[:, None, :]).ravel(), len(pk.order) * m * m)
    marg = np.empty_like(uni)
    marg[pk.from_concat] = uni
    packed = np.argsort(pk.order)  # the packed index of each sequence
    return logz[packed], marg, (e * sums.reshape(-1, m, m))[packed]


def viterbi(batch: BatchPotentials) -> np.ndarray:
    """The labels of the batch's positions on their sequences' highest-scoring
    label sequences, as one flat (P,) array, the paths laid end to end: the
    pass packs the batch's (P, M) table with one gather, and no path is cut
    out of it.  Of tied best paths it returns the one with the lowest last
    label, then the lowest label at each earlier position in turn, going
    back (see ``_viterbi``)."""
    unary, pairwise, pk = _pack(batch)
    labels = np.empty(len(unary), dtype=np.intp)
    labels[pk.from_concat] = _viterbi(unary, pairwise, pk)
    return labels


def decode(model: CrfModel, token_seqs: Iterable[Sequence[str]]) -> list[LabelSeq]:
    """The highest-scoring label sequence of each token sequence, in input
    order, featurized in one batch and decoded in one packed Viterbi pass."""
    batch = extract_features(model, list(token_seqs))
    flat = viterbi(batch).tolist()
    return [tuple(flat[end - n : end]) for n, end in zip(batch.lengths, accumulate(batch.lengths))]


_PAIRS = 10  # (s, y) pairs kept by minimize
_TRIALS = 20  # step lengths one line search tries


@dataclass(frozen=True)
class MinimizeResult:
    """Where ``minimize`` stopped.  ``fun`` and ``jac`` are the value and
    gradient at ``x``; ``status`` is 0 converged, 1 iteration limit, 2 the
    line search gave up (``x`` is then the last iterate)."""

    x: np.ndarray
    fun: float
    jac: np.ndarray
    nit: int
    nfev: int
    status: int

    @property
    def success(self) -> bool:
        return self.status == 0


def _direction(g: np.ndarray, pairs: deque) -> np.ndarray:
    """-H g by the two-loop recursion, H the inverse Hessian estimate of
    ``pairs`` (s, y, s.y), oldest first, from H0 = (s.y / y.y) I of the
    newest; -g when there is none."""
    d = -g
    alphas = []
    for s, y, sy in reversed(pairs):
        alphas.append(float(s @ d) / sy)
        d -= alphas[-1] * y
    if pairs:
        _, y, sy = pairs[-1]
        d *= sy / float(y @ y)
    for (s, y, sy), a in zip(pairs, reversed(alphas)):
        d += (a - float(y @ d) / sy) * s
    return d


def minimize(fun, x0: np.ndarray, max_iter: int, gtol: float) -> MinimizeResult:
    """Unconstrained L-BFGS (Liu & Nocedal 1989; Nocedal & Wright 2006,
    Alg. 7.4) on ``fun(x) -> (value, gradient)`` from ``x0``; neither
    ``x0`` nor, in ``fun``, ``x`` is changed.

    The direction comes from the last 10 pairs of a step s and its change
    in gradient y (``_direction``); a pair with s.y <= 1e-10 y.y is
    dropped, so the estimate stays positive definite.  The line search
    starts at step 1, or at min(1, 1/||g||_2) while no pair is kept, and
    halves it, at most 20 times, until the value falls by at least 1e-4
    times the step times the slope (Armijo), so every accepted step lowers
    the value.  ``status`` is 0 once ||g||_inf <= ``gtol`` or a step lowers
    the value by at most 1e-14 of max(|f_old|, |f|, 1), 1 after
    ``max_iter`` iterations, and 2 when the line search fails (or rounding
    left the direction without descent), at the last iterate.  The pairs
    live for one call.
    """
    x = np.array(x0, dtype=float).ravel()
    f, g = fun(x)
    f, nfev, nit = float(f), 1, 0
    pairs = deque(maxlen=_PAIRS)
    status = 0 if np.abs(g).max(initial=0.0) <= gtol else None
    while status is None and nit < max_iter:
        d = _direction(g, pairs)
        slope = float(g @ d)
        step = 1.0 if pairs else min(1.0, 1.0 / float(np.linalg.norm(g)))
        for _ in range(_TRIALS if slope < 0 else 0):
            x_new = x + step * d
            f_new, g_new = fun(x_new)
            nfev += 1
            if f_new <= f + 1e-4 * step * slope:
                break
            step /= 2
        else:
            status = 2
            break
        s, y = x_new - x, g_new - g
        sy = float(s @ y)
        if sy > 1e-10 * float(y @ y):
            pairs.append((s, y, sy))
        f_old, x, f, g = f, x_new, float(f_new), g_new
        nit += 1
        if np.abs(g).max() <= gtol or f_old - f <= 1e-14 * max(abs(f_old), abs(f), 1.0):
            status = 0
    return MinimizeResult(x, f, g, nit, nfev, 1 if status is None else status)


@dataclass(frozen=True)
class TrainOptions:
    max_iter: int = 100
    tol: float = 1e-5  # stop when the gradient's infinity norm drops below this
    l2: float = 1.0


@dataclass
class TrainResult:
    model: CrfModel
    objective: float
    grad_norm: float
    iterations: int
    converged: bool
    warning: bool  # line search gave up; weights are the best point seen


def optimize(
    model: CrfModel, data: Iterable[WeightedExample] | _Examples, opts: TrainOptions = TrainOptions()
) -> TrainResult:
    """Minimize the weighted negative log-likelihood with L-BFGS.

    ``data`` is weighted examples, or ``_Examples`` over a corpus of the
    model's inventory, as EM's M-step passes them.  The line search
    enforces sufficient decrease, so the objective never increases across
    accepted iterations; on a line-search failure the best point seen so
    far is returned with ``warning`` set.
    """
    from .objective import _examples, _Examples, _WeightedObjective

    obj = _WeightedObjective(data if isinstance(data, _Examples) else _examples(model, data), opts.l2)
    res = minimize(obj.value_and_grad, model.weights, opts.max_iter, opts.tol)
    trained = replace(model, weights=res.x)
    return TrainResult(trained, res.fun, float(np.abs(res.jac).max()), res.nit, res.success, res.status == 2)


def save_model(model: CrfModel, path) -> None:
    """Format v4 (see ``modelfile``): the header, the observation
    names as UTF-8 lines in id order, their hash index, then the weight
    vector as raw little-endian float64."""
    n = model.n_obs
    names = np.empty(n, dtype=object)
    names[np.fromiter(model.obs_index.values(), np.intp, n)] = list(model.obs_index)
    names = names.tolist()
    body = "\n".join([*names, ""])
    if body.count("\n") != n or "\t" in body or "\r" in body:
        obs = next(obs for obs in model.obs_index if "\t" in obs or "\n" in obs or "\r" in obs)
        raise ValueError(f"observation not serializable: {obs!r}")
    block = body.encode("utf-8")
    keys = np.fromiter(map(_name_hash, map(str.encode, names)), np.uint64, n)
    keys <<= 32
    keys |= np.arange(n, dtype=np.uint64)
    keys.sort()  # by hash, then id
    index = np.empty(2 * n, dtype="<u4")
    index[:n], index[n:] = keys >> 32, keys & 0xFFFFFFFF
    header = [
        MODEL_MAGIC,
        "kind\t" + model.scheme.kind,
        "labels\t" + "\t".join(model.scheme.labels),
        _TEMPLATES_LINE,
        f"observations\t{n}",
        f"names\t{len(block)}\t{zlib.crc32(index, zlib.crc32(block))}",
    ]
    with open(path, "wb") as fh:
        fh.write(("\n".join(header) + "\n").encode("utf-8"))
        fh.write(block)
        fh.write(index)
        fh.write(np.ascontiguousarray(model.weights, dtype="<f8"))


def load_model(path, inputs: _InputTable | None = None) -> CrfModel:
    """Read a ``save_model`` file, format v4, with ``modelfile.read``.

    ``decode_file`` passes its input table as ``inputs``, whose columns then
    hold the returned model's ids.  The model holds the rows of the
    observations the table numbers (``inputs.number``), in that numbering,
    which its ``obs_index`` holds as a ``_Numbering``, and a zero row for
    each that the file lacks, so its memory grows with the input's
    vocabulary, not the file's; the names are found through the file's
    index (``_NameBlock.find``).  Every name line is still read and
    checked.  A file of an older format is refused by its format: the model
    must be retrained.  A line 4 other than the ``templates`` line
    ``save_model`` writes is refused: there is one feature set.  Bytes that
    are not UTF-8 where text is expected raise a ValueError naming their
    line.  The whole read, the reader's import included, runs inside this
    call.
    """
    from . import modelfile

    return modelfile.read(path, inputs)


def decode_file(path, token_seqs: Iterable[Sequence[str]]) -> tuple[LabelScheme, list[int]]:
    """The label scheme of the ``save_model`` file at ``path`` and the label
    of every position of the token sequences on their highest-scoring label
    sequences under it, one flat list, the sequences laid end to end in
    input order: the paths ``decode(load_model(path), token_seqs)`` gives,
    concatenated.

    The input is featurized once (``_InputTable``): the observations it
    fires pick the model rows that ``load_model`` keeps, numbered as the
    table numbers them, and ``extract_features`` scores the table's types
    and positions after the weights are in, into the one (P, M) unary table
    of a single packed Viterbi pass.
    """
    table = _InputTable(list(token_seqs))
    model = load_model(path, table)
    scheme, batch = model.scheme, extract_features(model, table)
    del model, table  # the weight rows and the observation names: Viterbi needs neither
    return scheme, viterbi(batch).tolist()
