"""Linear-chain CRF: sparse observation features, exact inference, training.

The score of a label sequence decomposes as

    score(x, z) = sum_t unary[t, z_t] + sum_{t>0} pairwise[z_{t-1}, z_t]

where the unary table collects the weights of every observation feature
firing at a position and the pairwise table holds label-bigram weights
(position-independent unless a caller supplies per-step tables).  All
inference runs in log space with max-shift stabilization; probabilities only
appear in marginal outputs.

Inference runs on a packed batch: sequences sorted longest first and laid
out time-major in flat (P, M) arrays over their P positions, so step t
touches only the sequences still running and nothing is padded (see
``_Packing``).  One forward-backward kernel and its max-product twin,
``_viterbi``, work on that layout; a potential of -inf rules a label or a
transition out.  A training example is one token sequence with one label
sequence (as one-hot counts) or soft label counts, and a weight; the
objective packs each example's tokens once, with the observation ids firing
at each position: the batch's unary table sums the weight rows of those
ids, the unary gradient scatters the weighted marginals ``w * q`` back onto
them with one ``np.bincount``, and the pair marginals are summed into the
(M, M) bigram gradient step by step.  ``_pack`` lays out and checks a batch:
``decode`` runs one Viterbi pass, ``log_partition`` one forward pass and
``expected_counts`` (EM's posteriors) one forward-backward pass over a list
of sentences; on one sentence they and ``marginals`` run on a batch of one.

Features are built per batch (``_by_position``): each template's
observations come from one list comprehension over the token types, and the
previous/next-token templates shift that per-type column by one position,
with the BOS/EOS observation at sentence edges.  ``build_model`` interns the
resulting strings in first-appearance order, position by position.
``_observation_ids`` maps them to a (P, T) array of observation ids, one
column per template and -1 where nothing interned fires, from which
``_unary_table`` sums the weight rows template by template, for decode and
the objective alike.  ``extract_features`` takes one sentence or a list.

Training needs scipy only for its compiled L-BFGS-B routine, which
``minimize`` drives directly and ``_setulb`` loads by file location, so
neither ``scipy`` nor ``scipy.optimize`` is imported.  Loading a model and
decoding never touch scipy at all.

``save_model`` writes format v2: the magic line, ``kind``, ``labels``,
``templates`` and ``observations`` header lines, then one line per
observation, ``name<TAB>w_1 ... w_M`` in label order, then, with a bigram
template, M lines ``bigram<TAB>from_label<TAB>w_1 ... w_M``.  ``load_model``
reads the observation lines in chunks of ``_CHUNK_LINES``: ``np.loadtxt``
parses a chunk's weights and one ``dict.update`` interns its names, and the
chunk's float64 block is appended to one buffer that becomes the weight
vector without a copy.  A chunk that parse does not take whole (a malformed
line, or a weight that only ``float`` reads, such as ``1_0``) goes through
the per-line reader, one split and ``float`` per line, which names the bad
line.  It still reads v1 files (one line per observation and label, then
one per label pair) line by line, and in either format names the line of a
malformed entry.

The weight vector is the flattened (n_obs, M) unary block followed, when a
label-bigram template is present, by the flattened (M, M) bigram block.
"""

from __future__ import annotations

import importlib.machinery
import importlib.util
import sys
from array import array
from dataclasses import dataclass, replace
from itertools import cycle, islice, product
from pathlib import Path
from typing import Iterable, Iterator, Sequence

import numpy as np

from .types import LabelScheme, LabelSeq

BOS_TOKEN = "<s>"
EOS_TOKEN = "</s>"

MODEL_MAGIC = "crowdseq-crf v2"
MODEL_MAGIC_V1 = "crowdseq-crf v1"  # one line per weight; still read

_CHUNK_LINES = 4096  # v2 observation lines parsed per np.loadtxt call
_FLOAT_REFUSES = "\x1c\x1d\x1e\x1f"  # np.loadtxt strips these around a number

_PLAIN_KINDS = (
    "token-identity",
    "token-lowercase",
    "is-capitalized",
    "is-digit",
    "previous-token",
    "next-token",
    "label-bigram",
)
_SIZED_KINDS = ("prefix", "suffix")


@dataclass(frozen=True)
class FeatureTemplate:
    """One observation (or label-bigram) feature generator."""

    kind: str
    width: int | None = None

    def __post_init__(self):
        if self.kind in _PLAIN_KINDS:
            if self.width is not None:
                raise ValueError(f"{self.kind} takes no width")
        elif self.kind in _SIZED_KINDS:
            if not self.width or self.width < 1:
                raise ValueError(f"{self.kind} needs a positive width")
        else:
            raise ValueError(f"unknown template kind: {self.kind!r}")

    @property
    def spec_string(self) -> str:
        return self.kind if self.width is None else f"{self.kind}-{self.width}"

    @property
    def offset(self) -> int:
        """Where the token this template reads sits, relative to position t."""
        return {"previous-token": -1, "next-token": 1}.get(self.kind, 0)

    @classmethod
    def parse(cls, text: str) -> "FeatureTemplate":
        for kind in _SIZED_KINDS:
            if text.startswith(kind + "-"):
                return cls(kind, int(text[len(kind) + 1 :]))
        return cls(text)

    def observation(self, tokens: Sequence[str], t: int) -> str | None:
        """The observation string fired at position t, or None."""
        i = t + self.offset
        tok = tokens[i] if 0 <= i < len(tokens) else BOS_TOKEN if i < 0 else EOS_TOKEN
        return self.observations((tok,))[0]

    def observations(self, toks: Sequence[str]) -> list[str | None]:
        """The observation string fired where this template reads each of
        ``toks``, or None: one list comprehension per kind."""
        k, w = self.kind, self.width
        if k == "token-identity":
            return ["w=" + tok for tok in toks]
        if k == "token-lowercase":
            return ["wl=" + tok.lower() for tok in toks]
        if k == "prefix":
            return [f"p{w}=" + tok[:w] if len(tok) >= w else None for tok in toks]
        if k == "suffix":
            return [f"s{w}=" + tok[-w:] if len(tok) >= w else None for tok in toks]
        if k == "is-capitalized":
            return ["cap" if tok[:1].isupper() else None for tok in toks]
        if k == "is-digit":
            return ["num" if tok.isdigit() else None for tok in toks]
        if k == "previous-token":
            return ["w-1=" + tok for tok in toks]
        if k == "next-token":
            return ["w+1=" + tok for tok in toks]
        return [None] * len(toks)  # label-bigram fires on label pairs, not observations


DEFAULT_TEMPLATES: tuple[FeatureTemplate, ...] = (
    FeatureTemplate("token-identity"),
    FeatureTemplate("token-lowercase"),
    FeatureTemplate("prefix", 2),
    FeatureTemplate("prefix", 3),
    FeatureTemplate("suffix", 2),
    FeatureTemplate("suffix", 3),
    FeatureTemplate("is-capitalized"),
    FeatureTemplate("is-digit"),
    FeatureTemplate("previous-token"),
    FeatureTemplate("next-token"),
    FeatureTemplate("label-bigram"),
)


@dataclass
class CrfModel:
    """Weights over interned observation features and label bigrams.

    Every interned observation owns one weight per label (an observation is
    "extracted" jointly with each label it could pair with); observations
    never seen during interning contribute nothing at prediction time.
    """

    scheme: LabelScheme
    templates: tuple[FeatureTemplate, ...]
    obs_index: dict[str, int]
    weights: np.ndarray

    @property
    def n_obs(self) -> int:
        return len(self.obs_index)

    @property
    def has_bigram(self) -> bool:
        return any(t.kind == "label-bigram" for t in self.templates)

    @property
    def dim(self) -> int:
        m = self.scheme.size
        return self.n_obs * m + (m * m if self.has_bigram else 0)

    def unary_weights(self) -> np.ndarray:
        m = self.scheme.size
        return self.weights[: self.n_obs * m].reshape(self.n_obs, m)

    def bigram_weights(self) -> np.ndarray:
        m = self.scheme.size
        if not self.has_bigram:
            return np.zeros((m, m))
        return self.weights[self.n_obs * m :].reshape(m, m)


def build_model(
    scheme: LabelScheme,
    token_seqs: Iterable[Sequence[str]],
    templates: Sequence[FeatureTemplate] = DEFAULT_TEMPLATES,
) -> CrfModel:
    """Intern every observation the templates fire on the corpus; zero weights.

    Ids follow first appearance, position by position and, at a position,
    template by template (``_by_position`` builds the observations).
    """
    templates = tuple(templates)
    fired = _by_position(list(token_seqs), templates, lambda obs: np.array(obs, dtype=object))
    seen = dict.fromkeys(fired.ravel().tolist())  # insertion-ordered: first appearance
    seen.pop(None, None)  # a template that fires nothing
    model = CrfModel(scheme, templates, dict(zip(seen, range(len(seen)))), np.zeros(0))
    model.weights = np.zeros(model.dim)
    return model


@dataclass
class SequencePotentials:
    """Log-potential tables for one sequence."""

    unary: np.ndarray  # (L, M)
    pairwise: np.ndarray  # (M, M), or (L-1, M, M) for position-dependent scores

    @property
    def length(self) -> int:
        return self.unary.shape[0]

    @property
    def n_labels(self) -> int:
        return self.unary.shape[1]


def _by_position(token_seqs: Sequence[Sequence[str]], templates, lookup) -> np.ndarray:
    """What each observation template fires at each position of the
    sequences laid end to end: a (P, T) array, one column per template,
    whose entries ``lookup`` maps from a list of observation strings (None
    where a template fires nothing) to an array.

    Each template's observations come once per token type.  A template
    reading a neighbour (``offset`` -1 or +1) is its type column shifted by
    one position, with its BOS/EOS observation at sentence edges.
    """
    types: dict[str, int] = {}
    codes = np.array(
        [types.setdefault(tok, len(types)) for tokens in token_seqs for tok in tokens], dtype=np.intp
    )
    lengths = np.array([len(tokens) for tokens in token_seqs if len(tokens)], dtype=np.intp)
    ends = np.cumsum(lengths)
    edges = {-1: ends - lengths, 1: ends - 1}  # first and last position of each sentence
    tpls = [tpl for tpl in templates if tpl.kind != "label-bigram"]
    type_list = list(types)
    cols = []
    for tpl in tpls:
        col = lookup(tpl.observations(type_list))[codes]
        if tpl.offset:
            col = np.roll(col, -tpl.offset)
            col[edges[tpl.offset]] = lookup([tpl.observation(("",), 0)])[0]
        cols.append(col)
    return np.stack(cols, axis=1) if cols else np.empty((codes.size, 0), dtype=np.intp)


def _observation_ids(model: CrfModel, token_seqs: Sequence[Sequence[str]]) -> np.ndarray:
    """Interned observation ids of the sequences laid end to end: a (P, T)
    array, one column per observation template, -1 where none fires."""
    get = model.obs_index.get  # a template that fires nothing gives None, never a key
    return _by_position(token_seqs, model.templates, lambda obs: np.array([get(o, -1) for o in obs], dtype=np.intp))


def _unary_table(wu: np.ndarray, ids: np.ndarray) -> np.ndarray:
    """The (P, M) unary scores of positions whose observation ids are the
    (P, T) ``ids``: the weight rows ``wu[id]`` summed left to right over the
    templates, skipping -1."""
    unary = np.zeros((ids.shape[0], wu.shape[1]))
    for col in ids.T:
        miss = np.flatnonzero(col < 0)
        if miss.size < col.size:
            rows = wu.take(col, axis=0)  # a miss reads the last row: add 0 instead, which is exact
            rows[miss] = 0.0
            unary += rows
    return unary


def extract_features(
    model: CrfModel, tokens: Sequence[str] | Sequence[Sequence[str]]
) -> SequencePotentials | list[SequencePotentials]:
    """Potential tables under the model's current weights.

    Given a list of token sequences instead of one, returns one entry per
    sequence, in order, from a single pass over the whole batch; an empty
    list is an empty batch.
    """
    if not tokens:
        return []
    one = isinstance(tokens[0], str)
    seqs = [tokens] if one else tokens
    unary = _unary_table(model.unary_weights(), _observation_ids(model, seqs))
    pairwise = model.bigram_weights()
    bounds = np.cumsum([len(s) for s in seqs])[:-1]
    pots = [SequencePotentials(u, pairwise.copy()) for u in np.split(unary, bounds)]
    return pots[0] if one else pots


def logsumexp(a, axis: int = -1) -> np.ndarray:
    """log(sum(exp(a))) along ``axis``, max-shift stabilized.

    A slice that is entirely -inf gives -inf, not NaN: under zero smoothing
    annotator factors can rule out every label.
    """
    a = np.asarray(a)
    top = a.max(axis=axis, keepdims=True)
    finite = np.isfinite(top)
    if finite.all():
        return np.log(np.exp(a - top).sum(axis=axis)) + top.squeeze(axis)
    # an all -inf slice sums to 0 once shifted by 0, and log(0) is its answer
    top = np.where(finite, top, 0.0)
    with np.errstate(divide="ignore"):
        return np.log(np.exp(a - top).sum(axis=axis)) + top.squeeze(axis)


class _Packing:
    """Time-major layout of a batch of sequences sorted longest first.

    Step t holds position t of the ``sizes[t]`` sequences still running, in
    batch order, so row ``offsets[t] + s`` is position t of sequence s and
    the first ``sizes[t + 1]`` rows of step t are those that continue (the
    layout of PyTorch's PackedSequence).  Nothing is padded.
    """

    def __init__(self, lengths: Sequence[int]):
        lengths = np.asarray(lengths, dtype=np.intp)  # positive, nonincreasing
        steps = np.arange(lengths.max(initial=0))
        self.sizes = np.searchsorted(-lengths, -steps, side="left")
        self.offsets = np.concatenate(([0], np.cumsum(self.sizes)))
        step = np.repeat(steps, self.sizes)
        self.row_seq = np.arange(step.size) - self.offsets[step]  # sequence of each row
        self.last_rows = self.offsets[lengths - 1] + np.arange(lengths.size)
        # packed row -> row of the sequences laid end to end
        self.from_concat = np.concatenate(([0], np.cumsum(lengths)))[self.row_seq] + step

    @property
    def steps(self) -> int:
        return self.sizes.size

    def rows(self, t: int, n: int) -> slice:
        """Rows of step t holding its first n sequences."""
        return slice(self.offsets[t], self.offsets[t] + n)


def _step_table(pairwise: np.ndarray, t: int) -> np.ndarray:
    return pairwise if pairwise.ndim == 2 else pairwise[t - 1]


def _forward(unary: np.ndarray, pairwise: np.ndarray, pk: _Packing) -> np.ndarray:
    alpha = unary.copy()
    for t in range(1, pk.steps):
        n = pk.sizes[t]
        prev = alpha[pk.rows(t - 1, n), :, None] + _step_table(pairwise, t)
        alpha[pk.rows(t, n)] += logsumexp(prev, axis=1)
    return alpha


def _backward(unary: np.ndarray, pairwise: np.ndarray, pk: _Packing) -> np.ndarray:
    beta = np.zeros_like(unary)
    for t in range(pk.steps - 2, -1, -1):
        n = pk.sizes[t + 1]
        nxt = pk.rows(t + 1, n)
        beta[pk.rows(t, n)] = logsumexp(
            _step_table(pairwise, t + 1) + (unary[nxt] + beta[nxt])[:, None, :], axis=2
        )
    return beta


def _forward_backward(
    unary: np.ndarray, pairwise: np.ndarray, pk: _Packing, order: Sequence[int], name: str = "sequence"
) -> tuple[np.ndarray, np.ndarray, Iterator[np.ndarray]]:
    """Exact inference over a packed batch: log Z per sequence (B,), the
    unary marginals per packed row (P, M) and an iterator over the steps
    t >= 1 of the (t-1, t) pair marginals of the sequences still running,
    (sizes[t], M, M).  A sequence whose every path scores -inf is refused,
    the error calling it ``name`` and its batch index, ``order[i]`` for
    packed sequence i."""
    alpha = _forward(unary, pairwise, pk)
    logz = logsumexp(alpha[pk.last_rows], axis=1)
    dead = [order[i] for i in np.flatnonzero(logz == -np.inf)]
    if dead:
        raise ValueError(f"{name} {min(dead)} has no finite-scoring path")
    beta = _backward(unary, pairwise, pk)
    uni = np.exp(alpha + beta - logz[pk.row_seq, None])
    uni /= uni.sum(axis=1, keepdims=True)
    ahead = unary + beta

    def pairs():
        for t in range(1, pk.steps):
            n = pk.sizes[t]
            p = np.exp(
                alpha[pk.rows(t - 1, n), :, None]
                + _step_table(pairwise, t)
                + ahead[pk.rows(t, n), None, :]
                - logz[:n, None, None]
            )
            yield p / p.sum(axis=(1, 2), keepdims=True)

    return logz, uni, pairs()


def _viterbi(unary: np.ndarray, pairwise: np.ndarray, pk: _Packing) -> np.ndarray:
    """The label of every packed row on its sequence's best path.

    The max-product form of ``_forward``.  Back-pointers and the final
    argmax take the first maximum, so ties resolve to the lowest label
    index; the backtrack runs step by step over the whole batch.
    """
    score = unary.copy()
    back = np.empty(unary.shape, dtype=np.intp)
    for t in range(1, pk.steps):
        n = pk.sizes[t]
        cand = score[pk.rows(t - 1, n), :, None] + _step_table(pairwise, t)
        back[pk.rows(t, n)] = cand.argmax(axis=1)
        score[pk.rows(t, n)] += cand.max(axis=1)
    path = np.empty(unary.shape[0], dtype=np.intp)
    path[pk.last_rows] = score[pk.last_rows].argmax(axis=1)
    for t in range(pk.steps - 1, 0, -1):
        n = pk.sizes[t]
        rows = pk.rows(t, n)
        path[pk.rows(t - 1, n)] = np.take_along_axis(back[rows], path[rows, None], axis=1)[:, 0]
    return path


def _pack(pots: Sequence[SequencePotentials]) -> tuple[np.ndarray, np.ndarray, _Packing, list[int]]:
    """A nonempty batch packed: its unary rows in packed order, its pairwise
    table, the ``_Packing`` and the batch index of each packed sequence.
    Refuses a longer batch without one shared (M, M) pairwise table, an
    empty sequence and NaN or +inf potentials."""
    pairwise = pots[0].pairwise
    if len(pots) > 1 and (pairwise.ndim != 2 or (np.stack([p.pairwise for p in pots]) != pairwise).any()):
        raise ValueError("a batch must share one (M, M) pairwise table")
    lengths = [p.length for p in pots]
    if min(lengths) < 1:
        raise ValueError("empty sequence")
    order = sorted(range(len(pots)), key=lengths.__getitem__, reverse=True)
    pk = _Packing([lengths[i] for i in order])
    unary = np.concatenate([pots[i].unary for i in order])[pk.from_concat]
    if not ((unary < np.inf).all() and (pairwise < np.inf).all()):  # NaN fails too
        raise ValueError("potentials must not be NaN or +inf")
    return unary, pairwise, pk, order


def log_partition(pot: SequencePotentials | Sequence[SequencePotentials]) -> float | np.ndarray:
    """log of the sum of exp(score) over all M^L label sequences; given a
    list of potentials sharing one (M, M) pairwise table, as ``viterbi``
    takes, an array of one value per entry from a single packed pass."""
    if isinstance(pot, SequencePotentials):
        return float(log_partition([pot])[0])
    pots = list(pot)
    if not pots:
        return np.zeros(0)
    unary, pairwise, pk, order = _pack(pots)
    return logsumexp(_forward(unary, pairwise, pk)[pk.last_rows], axis=1)[np.argsort(order)]


def marginals(pot: SequencePotentials) -> tuple[np.ndarray, np.ndarray]:
    """Posterior label probabilities (L, M) and pair probabilities (L-1, M, M)."""
    unary, pairwise, pk, order = _pack([pot])
    _, uni, pairs = _forward_backward(unary, pairwise, pk, order)
    return uni, np.array([p[0] for p in pairs]).reshape(-1, pot.n_labels, pot.n_labels)


def expected_counts(pots: Sequence[SequencePotentials], name: str = "sequence") -> tuple[np.ndarray, list[tuple]]:
    """log Z, (L, M) label marginals and (M, M) pair marginals summed over
    positions of each entry of a nonempty batch sharing one (M, M) pairwise
    table, from one packed pass.  An entry with no finite-scoring path is
    refused, the error calling it ``name`` and its index."""
    unary, pairwise, pk, order = _pack(pots)
    logz, uni, pairs = _forward_backward(unary, pairwise, pk, order, name)
    pair = np.zeros((len(order), unary.shape[1], unary.shape[1]))
    for p in pairs:
        pair[: len(p)] += p
    packed = np.argsort(order)  # the packed index of each entry
    return logz[packed], [(uni[pk.offsets[: pot.length] + s], pair[s]) for pot, s in zip(pots, packed)]


def viterbi(pot: SequencePotentials | Sequence[SequencePotentials]) -> LabelSeq | list[LabelSeq]:
    """Highest-scoring label sequence; ties resolve to the lowest label index.

    Given a list of potentials instead of one, returns one path per entry,
    in order, from a single packed pass.  The entries of a longer list must
    share one position-independent (M, M) pairwise table.
    """
    if isinstance(pot, SequencePotentials):
        return viterbi([pot])[0]
    pots = list(pot)
    if not pots:
        return []
    unary, pairwise, pk, order = _pack(pots)
    labels = np.empty_like(pk.from_concat)
    labels[pk.from_concat] = _viterbi(unary, pairwise, pk)
    flat = labels.tolist()  # the paths in sorted order, laid end to end
    paths: list[LabelSeq] = [()] * len(pots)
    start = 0
    for i in order:
        paths[i] = tuple(flat[start : start + pots[i].length])
        start += pots[i].length
    return paths


def decode(model: CrfModel, token_seqs: Iterable[Sequence[str]]) -> list[LabelSeq]:
    """The highest-scoring label sequence of each token sequence, in input
    order, featurized in one batch and decoded in one packed Viterbi pass."""
    return viterbi(extract_features(model, list(token_seqs)))


# One weighted example: (tokens, labels, weight), where labels is one label
# sequence or its soft counts, (L, M) label and (M, M) label-pair counts as
# ``expected_counts`` gives them.
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


class _WeightedObjective:
    """Weighted negative log-likelihood with its gradient.

    Each example is one sequence of the batch with its label counts (one-hot
    for a label sequence) times its weight.  The examples with positive
    weight are packed once (see ``_Packing``) with the (P, T) observation ids
    of their positions, from which ``_unary_table`` builds the batch's unary
    table.  The unary gradient and the empirical feature counts scatter a
    (P, M) table back onto those ids (``_scatter``), the counts once, at
    construction.
    """

    def __init__(self, model: CrfModel, data: Iterable[WeightedExample], l2: float):
        if l2 < 0:
            raise ValueError("l2 penalty must be nonnegative")
        self.model = model
        self.l2 = float(l2)
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
        kept.sort(key=lambda e: -len(e[0]))
        self.pack = pk = _Packing([len(tokens) for tokens, _, _, _ in kept])
        self.seq_w = np.array([w for _, _, _, w in kept])
        self.row_w = self.seq_w[pk.row_seq, None]

        self.ids = _observation_ids(model, [tokens for tokens, _, _, _ in kept])[pk.from_concat]
        # the firing (row, observation) entries in row-major order, and the
        # bin obs * M + label of each entry's M labels
        self.entry_rows, tpl = np.nonzero(self.ids >= 0)
        self.bins = (self.ids[self.entry_rows, tpl][:, None] * m + np.arange(m)).ravel()
        counts = np.concatenate([uni for _, uni, _, _ in kept] or [np.zeros((0, m))])  # end to end
        self.emp_u = self._scatter(counts[pk.from_concat])
        self.emp_b = sum((pair for _, _, pair, _ in kept), np.zeros((m, m)))

    def _scatter(self, table: np.ndarray) -> np.ndarray:
        """The (n_obs, M) sums of the (P, M) ``table``'s rows over the
        positions where each observation fires.

        An observation id belongs to one template, so it fires at most once
        per row, and each bin adds up its rows in increasing row order.
        """
        m = table.shape[1]
        flat = np.bincount(self.bins, table.take(self.entry_rows, axis=0).ravel(), minlength=self.model.n_obs * m)
        return flat.reshape(-1, m)

    def value_and_grad(self, theta: np.ndarray) -> tuple[float, np.ndarray]:
        if not np.isfinite(theta).all():
            raise ValueError("non-finite weights")
        model = self.model
        m = model.scheme.size
        nu = model.n_obs * m
        wu = theta[:nu].reshape(model.n_obs, m)
        wb = theta[nu:].reshape(m, m) if model.has_bigram else np.zeros((m, m))
        logz, uni, pairs = _forward_backward(_unary_table(wu, self.ids), wb, self.pack, range(len(self.seq_w)))
        value = float(self.seq_w @ logz) - float((wu * self.emp_u).sum())
        grad = [(self._scatter(self.row_w * uni) - self.emp_u).ravel()]
        if model.has_bigram:
            value -= float((wb * self.emp_b).sum())
            pair = sum((self.seq_w[: len(p)] @ p.reshape(len(p), m * m) for p in pairs), np.zeros(m * m))
            grad.append(pair - self.emp_b.ravel())
        grad = np.concatenate(grad)
        value += 0.5 * self.l2 * float(theta @ theta)
        grad += self.l2 * theta
        return value, grad


def weighted_nll_and_gradient(
    model: CrfModel, data: Iterable[WeightedExample], l2: float = 1.0
) -> tuple[float, np.ndarray]:
    """Weighted negative log-likelihood and its gradient at the model's weights.

    objective = sum_i w_i * (log Z(x_i) - score(x_i, z_i)) + (l2/2) ||theta||^2
    """
    return _WeightedObjective(model, data, l2).value_and_grad(model.weights)


_LBFGSB = "scipy.optimize._lbfgsb"
# the C port of L-BFGS-B; scipy's older Fortran wrapper took iprint and csave
_SETULB_SIGNATURE = "setulb(m,x,l,u,nbd,f,g,factr,pgtol,wa,iwa,task,lsave,isave,dsave,maxls,ln_task)"
_SCIPY_NEEDED = "scipy >= 1.17"


def _lbfgsb_location() -> str | None:
    """The file of scipy's compiled L-BFGS-B extension, found without running
    any scipy ``__init__``; None when scipy or the file is missing."""
    spec = importlib.util.find_spec("scipy")
    if spec is None or not spec.submodule_search_locations:
        return None
    folder = Path(spec.submodule_search_locations[0], "optimize")
    for suffix in importlib.machinery.EXTENSION_SUFFIXES:
        if (folder / f"_lbfgsb{suffix}").is_file():
            return str(folder / f"_lbfgsb{suffix}")
    return None


def _setulb():
    """scipy's compiled L-BFGS-B routine ``setulb``.

    The extension is loaded by file location and registered under its own
    name, so ``scipy`` and ``scipy.optimize`` never run, and a later import
    of ``scipy.optimize`` reuses it (as this reuses theirs).
    """
    module = sys.modules.get(_LBFGSB)
    if module is None:
        path = _lbfgsb_location()
        try:
            if path is None:
                raise ImportError("no scipy/optimize/_lbfgsb extension found")
            loader = importlib.machinery.ExtensionFileLoader(_LBFGSB, path)
            module = importlib.util.module_from_spec(importlib.util.spec_from_loader(_LBFGSB, loader))
            loader.exec_module(module)
        except ImportError as e:
            raise ValueError(f"training needs {_SCIPY_NEEDED} for its compiled L-BFGS-B routine: {e}") from None
    setulb = getattr(module, "setulb", None)
    if setulb is None or not (setulb.__doc__ or "").startswith(_SETULB_SIGNATURE):
        raise ValueError(f"training needs {_SCIPY_NEEDED}, whose compiled L-BFGS-B routine is {_SETULB_SIGNATURE}")
    sys.modules[_LBFGSB] = module
    return setulb


@dataclass(frozen=True)
class MinimizeResult:
    """Where ``minimize`` stopped.  ``fun`` and ``jac`` are the value and
    gradient at ``x``; ``status`` is scipy's: 0 converged, 1 iteration
    limit, 2 the line search gave up (``x`` is then the last iterate)."""

    x: np.ndarray
    fun: float
    jac: np.ndarray
    nit: int
    nfev: int
    status: int

    @property
    def success(self) -> bool:
        return self.status == 0


def minimize(fun, x0: np.ndarray, max_iter: int, gtol: float) -> MinimizeResult:
    """Unconstrained L-BFGS-B (Byrd, Lu, Nocedal & Zhu 1995) on
    ``fun(x) -> (value, gradient)`` from ``x0``; ``fun`` must leave ``x``
    unchanged.

    A reverse-communication driver over scipy's compiled ``setulb``: each
    call returns a task, FG for the value and gradient at ``x`` or NEW_X
    for a new iterate, until the routine converges or gives up.  It does
    what ``scipy.optimize.minimize(method="L-BFGS-B", jac=True)`` does with
    10 corrections, at most 20 line-search steps, ``ftol=1e-14`` and
    ``gtol``: it evaluates ``fun`` once at ``x0`` and after that only where
    ``x`` differs from the last point evaluated, and stops after
    ``max_iter`` iterations, so its iterates, ``nit``, ``nfev`` and
    ``status`` are scipy's.
    """
    setulb = _setulb()
    m = 10
    x = np.array(x0, dtype=float).ravel()
    n = x.size
    g = np.zeros(n)
    wa = np.zeros(2 * m * n + 5 * n + 11 * m * m + 8 * m)
    iwa = np.zeros(3 * n, dtype=np.int32)
    task, ln_task, lsave = np.zeros(2, np.int32), np.zeros(2, np.int32), np.zeros(4, np.int32)
    isave, dsave = np.zeros(44, np.int32), np.zeros(29)
    nbd = np.zeros(n, np.int32)  # no variable is bounded, so the bounds go unread
    bounds = np.zeros(n)
    factr = 1e-14 / np.finfo(float).eps

    at = x.copy()
    value, grad = fun(at)
    nfev, nit = 1, 0
    f = fx = value  # fx: the value at the current iterate
    while True:
        # setulb reads f as a number; it writes x, g and its state in place
        setulb(m, x, bounds, bounds, nbd, f, g, factr, gtol, wa, iwa, task, lsave, isave, dsave, 20, ln_task)
        if task[0] == 3:  # FG
            if not np.array_equal(x, at):
                at = x.copy()
                value, grad = fun(at)
                nfev += 1
            f = value
            g[:] = grad
        elif task[0] == 1:  # NEW_X: x is the next iterate and f, g were taken there
            nit += 1
            fx = f
            if nit >= max_iter:
                task[:] = 5, 504  # STOP on the iteration limit
        else:
            break
    # on a line-search failure setulb restores x and g to the last iterate
    status = 0 if task[0] == 4 else 1 if nit >= max_iter else 2
    return MinimizeResult(x, float(fx), g, nit, nfev, status)


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
    model: CrfModel, data: Iterable[WeightedExample], opts: TrainOptions = TrainOptions()
) -> TrainResult:
    """Minimize the weighted negative log-likelihood with L-BFGS.

    The line search enforces sufficient decrease, so the objective never
    increases across accepted iterations; on a line-search failure the best
    point seen so far is returned with ``warning`` set.
    """
    obj = _WeightedObjective(model, data, opts.l2)
    if model.dim == 0:
        return TrainResult(replace(model, weights=model.weights.copy()), 0.0, 0.0, 0, True, False)
    _setulb()  # its first load is set-up time, not fit time
    res = minimize(obj.value_and_grad, model.weights, opts.max_iter, opts.tol)
    gnorm = float(np.abs(res.jac).max())
    converged = res.success or gnorm <= opts.tol
    trained = replace(model, weights=res.x)
    return TrainResult(trained, res.fun, gnorm, res.nit, converged, res.status == 2)


def save_model(model: CrfModel, path) -> None:
    """Versioned flat text dump, format v2 (see the module docstring);
    floats use shortest round-trip encoding."""
    labels = model.scheme.labels
    lines = [MODEL_MAGIC]
    lines.append("kind\t" + model.scheme.kind)
    lines.append("labels\t" + "\t".join(labels))
    lines.append("templates\t" + "\t".join(t.spec_string for t in model.templates))
    lines.append(f"observations\t{model.n_obs}")
    rows = model.unary_weights().tolist()
    for obs, r in model.obs_index.items():
        if "\t" in obs or "\n" in obs or "\r" in obs:
            raise ValueError(f"observation not serializable: {obs!r}")
        lines.append(obs + "\t" + "\t".join(map(repr, rows[r])))
    if model.has_bigram:
        for la, row in zip(labels, model.bigram_weights().tolist()):
            lines.append(f"bigram\t{la}\t" + "\t".join(map(repr, row)))
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def _field_problem(line: str, n_fields: int, n_weights: int) -> str:
    """Why a model body line with ``n_fields`` fields, the last ``n_weights``
    of them weights, failed to parse."""
    parts = line.rstrip("\n").split("\t")
    if len(parts) != n_fields:
        return f"expected {n_fields} tab-separated fields, found {len(parts)}"
    for w in parts[n_fields - n_weights :]:
        try:
            float(w)
        except ValueError:
            break
    return f"weight {w!r} is not a number"


def _read_v1_body(fh, labels, n_obs: int, has_bigram: bool, bad) -> tuple[dict[str, int], array]:
    """Bodies of the v1 format: one line per (observation, label) weight,
    then one per (label, label) bigram weight."""
    m = len(labels)
    obs_index: dict[str, int] = {}
    weights = array("d")
    # the line being read follows the five header lines and one line per weight kept
    for line, (c, label) in zip(islice(fh, n_obs * m), cycle(enumerate(labels))):
        try:
            obs, lab, w = line.split("\t")
            weight = float(w)
        except ValueError:
            raise bad(6 + len(weights), _field_problem(line, 3, 1)) from None
        if c == 0:
            if obs in obs_index:
                raise bad(6 + len(weights), f"duplicate observation {obs!r}")
            obs_index[obs] = len(obs_index)
            block = obs
        elif obs != block:
            raise bad(6 + len(weights), "observation block out of order")
        if lab != label:
            raise bad(6 + len(weights), "label column mismatch")
        weights.append(weight)
    if has_bigram and len(weights) == n_obs * m:
        for line, (la, lb) in zip(islice(fh, m * m), product(labels, repeat=2)):
            try:
                tag, got_a, got_b, w = line.split("\t")
                weight = float(w)
            except ValueError:
                raise bad(6 + len(weights), _field_problem(line, 4, 1)) from None
            if tag != "bigram" or got_a != la or got_b != lb:
                raise bad(6 + len(weights), "bigram block mismatch")
            weights.append(weight)
    return obs_index, weights


def _read_v2_lines(lines: list[str], first: int, m: int, obs_index: dict[str, int], weights: array, bad) -> None:
    """Observation lines ``first``, ``first + 1``, ... of a v2 body, each
    split once and its weights read by ``float``; names the first bad line."""
    for i, line in enumerate(lines, first):
        parts = line.split("\t")
        try:
            if len(parts) != m + 1:
                raise ValueError
            weights.extend(map(float, parts[1:]))
        except ValueError:
            raise bad(6 + i, _field_problem(line, m + 1, m)) from None
        if parts[0] in obs_index:
            raise bad(6 + i, f"duplicate observation {parts[0]!r}")
        obs_index[parts[0]] = i


def _read_v2_body(fh, labels, n_obs: int, has_bigram: bool, bad) -> tuple[dict[str, int], array]:
    """Bodies of the v2 format: one line per observation, then one per
    bigram from-label.

    Observation lines are read ``_CHUNK_LINES`` at a time.  ``np.loadtxt``
    parses a chunk's weights and one ``dict.update`` interns its names; a
    chunk that parse does not take whole goes to ``_read_v2_lines``, which
    reads the weights ``float`` alone accepts (``1_0``, non-ASCII digits)
    and names a bad line.
    """
    m = len(labels)
    obs_index: dict[str, int] = {}
    weights = array("d")
    cols = range(1, m + 1)
    for first in range(0, n_obs, _CHUNK_LINES):
        lines = list(islice(fh, min(_CHUNK_LINES, n_obs - first)))
        if not lines:
            break
        text = "".join(lines)
        # np.loadtxt skips blank lines and ignores surplus fields, and float
        # refuses a number next to _FLOAT_REFUSES, which np.loadtxt strips
        if text.count("\t") == m * len(lines) and not any(c in text for c in _FLOAT_REFUSES):
            try:
                block = np.loadtxt(lines, delimiter="\t", usecols=cols, comments=None, quotechar=None, ndmin=2)
            except ValueError:
                block = None
            if block is not None and block.shape[0] == len(lines):
                obs_index.update(zip([line.partition("\t")[0] for line in lines], range(first, first + len(lines))))
                if len(obs_index) == first + len(lines):
                    weights.frombytes(memoryview(block).cast("B"))
                    continue
                # a duplicate name: the per-line reader finds it among the names known before this chunk
                obs_index = dict(islice(obs_index.items(), first))
        _read_v2_lines(lines, first, m, obs_index, weights, bad)
    if has_bigram and len(obs_index) == n_obs:
        for i, (line, la) in enumerate(zip(islice(fh, m), labels), 6 + n_obs):
            parts = line.split("\t")
            try:
                if len(parts) != m + 2:
                    raise ValueError
                weights.extend(map(float, parts[2:]))
            except ValueError:
                raise bad(i, _field_problem(line, m + 2, m)) from None
            if parts[0] != "bigram" or parts[1] != la:
                raise bad(i, "bigram block mismatch")
    return obs_index, weights


def load_model(path) -> CrfModel:
    """Read a ``save_model`` file, v2 or v1, in one pass over its lines."""
    with open(path, encoding="utf-8") as fh:
        header = [line.rstrip("\n") for line in islice(fh, 5)]
        if not header or header[0] not in (MODEL_MAGIC, MODEL_MAGIC_V1):
            raise ValueError(f"{path}: not a {MODEL_MAGIC} or v1 file")

        def fields(i, tag, n=None):
            parts = header[i].split("\t") if i < len(header) else [None]
            if parts[0] != tag or (n is not None and len(parts) != n):
                raise ValueError(f"{path}, line {i + 1}: expected {tag!r}")
            return parts[1:]

        kind = fields(1, "kind", 2)[0]
        labels = tuple(fields(2, "labels"))
        templates = tuple(FeatureTemplate.parse(s) for s in fields(3, "templates"))
        n_text = fields(4, "observations", 2)[0]
        if not n_text.isdecimal():
            raise ValueError(f"{path}, line 5: observation count {n_text!r} is not a nonnegative integer")
        n_obs = int(n_text)
        scheme = LabelScheme(labels, kind)
        model = CrfModel(scheme, templates, {}, np.zeros(0))
        v1 = header[0] == MODEL_MAGIC_V1
        per_line = 1 if v1 else scheme.size  # weights on a body line
        read_body = _read_v1_body if v1 else _read_v2_body

        def bad(line_no: int, why: str) -> ValueError:
            return ValueError(f"{path}, line {line_no}: {why}")

        obs_index, weights = read_body(fh, labels, n_obs, model.has_bigram, bad)
        found = 5 + len(weights) // per_line + sum(1 for _ in fh)
    m = scheme.size
    expected = 5 + (n_obs * m + (m * m if model.has_bigram else 0)) // per_line
    if found != expected:
        raise ValueError(f"{path}: expected {expected} lines, found {found}")
    model.obs_index = obs_index
    model.weights = np.frombuffer(weights)  # shares the array's buffer: no second copy
    return model
