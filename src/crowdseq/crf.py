"""Linear-chain CRF: sparse observation features, exact inference, training.

The score of a label sequence decomposes as

    score(x, z) = sum_t unary[t, z_t] + sum_{t>0} pairwise[z_{t-1}, z_t]

where the unary table collects the weights of every observation feature
firing at a position and the one (M, M) pairwise table holds label-bigram
weights.  Sum-product inference runs in probability space, scaled step by
step (Rabiner 1989, section V.A): the unary scores are exponentiated less
their row maximum and the pairwise table less its maximum, the forward
messages are renormalized to sum to 1 at every step, their row sums giving
log Z, and the backward messages are normalized on their own.  That holds
ratios within the float64 range only: a sequence where, at some position,
the best prefixes and suffixes outweigh every whole path by more than ~708
nats (one step's scores spanning that much, or a dead end outweighing every
live path by that much) is refused with a ValueError naming it, never a NaN
or a silent -inf.  Viterbi, max-product, stays in log space.

Inference runs on a packed batch: sequences sorted longest first and laid
out time-major in flat (P, M) arrays over their P positions, so step t
touches only the sequences still running and nothing is padded (see
``_Packing``).  One scaled forward-backward kernel and its max-product
twin, ``_viterbi``, work on that layout; a potential of -inf rules a label
or a transition out.  Each step of the kernel is one small matrix product
per direction, and every (t-1, t) pair marginal is an outer product of the
forward message before and the backward factor after, times the pairwise
table, so no step loops over pairs.  A training example is one token
sequence with one label sequence (as one-hot counts) or soft label counts,
and a weight; the objective takes its examples packed over a ``_Corpus``
(``_Examples``), the sequences looked up in the model's inventory and
packed once, so EM builds its corpus once per fit, with the observation
ids firing at each packed row: the batch's unary table sums the weight rows
of those ids, the unary gradient scatters the weighted marginals ``w * q``
back onto them with one ``np.bincount``, and the weighted sum of the pair
marginals, the (M, M) bigram gradient, is one (M x R) @ (R x M) product
over the R positions that follow another.  Every inference entry point
takes one ``BatchPotentials``: the (P, M) unary rows of its sequences laid
end to end, their lengths, one pairwise table and, where one is made for
many batches, their packing.  ``_pack`` checks a batch and gathers its
unary rows into packed order with one indexing: ``log_partition`` runs one
forward pass, ``expected_counts`` (EM's posteriors) one forward-backward
pass and ``viterbi`` one Viterbi pass over a batch; one sentence is a batch
of one.  ``_viterbi`` accumulates its prefix scores in that packed copy, each
step keeping a running max over the from-labels so that it holds (rows, M)
scores at a time, and its back-pointers take the smallest unsigned type
that holds M.

Every model has one feature set: the observation templates ``TEMPLATES``
(the token, lowercased; its 2- and 3-character prefixes and suffixes;
capitalization; digits; the previous and the next token) and the label
bigram.  An observation is its template's ``head`` and then the piece of
the token the template cuts (``FeatureTemplate.pieces``).  Features are built
per batch by one featurizer, ``_InputTable.number``: each template cuts its
pieces once over the token types, a neighbour template's with the BOS/EOS
token after them, and numbers their observations, one column per template;
``ids`` spreads the columns over the positions, shifting the
previous/next-token ones by one position with the BOS/EOS entry at sentence
edges, into one (P, T) array.  ``build_model`` renumbers them by first
appearance in that array, and ``_InputTable.look_up`` maps each to its id in
a model (-1 where nothing interned fires); either leaves the columns holding
the model's ids, for ``extract_features`` and ``_Corpus``, and
``decode_file`` keeps the numbers (see below).  ``_unary_table`` gathers the
weight rows of (P, T) ids, a zero row for -1, and sums them in template
order.  ``extract_features`` scores a batch with ``_InputTable.unary``:
``_unary_table`` sums the rows of the leading templates, which read a
position's own token, once per token type, and each position adds the
previous-token and then the next-token row to its type's sum, the same rows
in the same order and so the same bits as ``_unary_table`` over the (P, T)
ids, which the objective uses.  Given a list of sentences or their input
table, it returns the batch's ``BatchPotentials``; ``decode`` cuts its
Viterbi labels into one path per sentence.

Training minimizes the objective with ``minimize``, a numpy L-BFGS whose
Armijo line search lowers the value at every accepted step, so no part of
the program needs scipy.

``save_model`` writes format v4: six UTF-8 header lines (the magic line,
``kind``, ``labels``, ``templates``, ``observations`` and ``names``; the
``templates`` line names ``TEMPLATES`` and the label bigram, and
``load_model`` refuses any other; ``names`` holds the name block's byte
size and one crc32 over the name block and then the index), the name
block, one line per observation holding its name, in id order, the name
index, and the weight vector as raw little-endian float64, with nothing
after it.  The index is n uint32, the
crc32 of each name's UTF-8 bytes (``_name_hash``), ascending, then the n
uint32 ids in that order, equal hashes in id order, all little-endian.
``load_model`` checks the file's size against the header first, reads the
index and refuses one that is not sorted so or whose ids are not a
permutation, then streams the names ``_NAME_BYTES`` at a time, each slice
cut after its last line: a line ends at ``\\n`` alone, and a name holding
a tab or a CR, or bytes that are not UTF-8, is refused by its line, as is a
block of another line count; the checksum then covers the names and the
index.  Loaded whole, every name is interned (a repeat is refused by its
line) and hashed again against the index; the weights go straight into one
preallocated array with ``readinto``.  Files of the formats before v4 are
refused by name: the model must be retrained.

``decode_file`` featurizes the token sequences to decode once: its input
table numbers the observations ``TEMPLATES`` fire on their token types,
and the BOS/EOS ones, by first use, template by template
(``_InputTable.number``).  The identity and neighbour templates fire a
distinct observation on each type, so each takes a block of numbers; the
others number each distinct piece, so no observation is built twice.
``load_model`` hashes each of those once and finds its rows through the
index (``_NameBlock.find``): one ``searchsorted`` per chunk of sorted
hashes, then, as the names stream past, a byte comparison of each row
found with the input's name, so a name of another hash is never hashed or
looked up.  Names of one hash sit together in the index, so the duplicate
check compares just those.  Each row found goes to its number in one
(rows, M) weight table, read a chunk of rows at a time, a zero row
standing for an observation the file lacks, so decode's memory grows with
its input's vocabulary, not the model's.  The table's numbers, read after
the weights are in, index those rows: ``extract_features`` scores each
type once and adds each position's neighbour rows, so each position sums
the same weight rows in the same order as under the whole model (a zero
row adds +0.0 as the id -1 does), and ``viterbi`` runs one packed pass over
that one (P, M) table, its labels coming back as one flat column, the
sequences laid end to end.

The weight vector is the flattened (n_obs, M) unary block followed by the
flattened (M, M) bigram block.
"""

from __future__ import annotations

import io
import zlib
from collections import deque
from collections.abc import Mapping
from dataclasses import dataclass, replace
from functools import cached_property
from itertools import accumulate, islice, repeat
from typing import Iterable, Sequence

import numpy as np

from .formats import DataError
from .types import LabelScheme, LabelSeq

BOS_TOKEN = "<s>"
EOS_TOKEN = "</s>"

MODEL_MAGIC = "crowdseq-crf v4"
_RETIRED_MAGICS = tuple(f"crowdseq-crf v{i}".encode() for i in (1, 2, 3))  # refused by name: retrain
_HEADER_LINES = 6

_CHUNK_LINES = 4096  # weight rows read at once
_NAME_BYTES = 1 << 16  # bytes of observation names read at once
_name_hash = zlib.crc32  # of a name's UTF-8 bytes: the key of the name index
_TINY = np.finfo(float).tiny  # a scaled row sum below this is out of the float64 range
_GATHER_ROWS = 1024  # positions whose (T, M) weight rows _unary_table gathers at once


@dataclass(frozen=True)
class FeatureTemplate:
    """One observation feature generator of ``TEMPLATES``."""

    kind: str
    width: int | None = None

    @property
    def spec_string(self) -> str:
        return self.kind if self.width is None else f"{self.kind}-{self.width}"

    @property
    def offset(self) -> int:
        """Where the token this template reads sits, relative to position t."""
        return {"previous-token": -1, "next-token": 1}.get(self.kind, 0)

    @property
    def head(self) -> str:
        """What each of its observations starts with: all of it for a flag."""
        if self.width is not None:
            return f"{self.kind[0]}{self.width}="  # p2=, s3=, ...
        return {
            "token-identity": "w=", "token-lowercase": "wl=", "is-capitalized": "cap", "is-digit": "num",
            "previous-token": "w-1=", "next-token": "w+1=",
        }[self.kind]

    @property
    def distinct(self) -> bool:
        """Whether its piece of a token is the token itself."""
        return self.kind in ("token-identity", "previous-token", "next-token")

    def pieces(self, toks: Sequence[str]) -> list[str | None]:
        """What follows ``head`` in the observation fired reading each of
        ``toks``, or None where the template fires nothing."""
        k, w = self.kind, self.width
        if k == "token-lowercase":
            return [tok.lower() for tok in toks]
        if k == "prefix":
            return [tok[:w] if len(tok) >= w else None for tok in toks]
        if k == "suffix":
            return [tok[-w:] if len(tok) >= w else None for tok in toks]
        if k == "is-capitalized":
            return ["" if tok[:1].isupper() else None for tok in toks]
        if k == "is-digit":
            return ["" if tok.isdigit() else None for tok in toks]
        return list(toks)  # the token itself


# the observation templates of every model; the label-bigram block follows
# their weights
TEMPLATES: tuple[FeatureTemplate, ...] = (
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
)
# the leading templates, those that read the position's own token
_OWN = next(j for j, tpl in enumerate(TEMPLATES) if tpl.offset)
# line 4 of a model file: the templates and the label bigram
_TEMPLATES_LINE = "\t".join(["templates", *(t.spec_string for t in TEMPLATES), "label-bigram"])


class _Numbering(Mapping):
    """Names numbered 0, 1, ... in list order, as a read-only mapping that
    takes its length and order from the list: ``load_model`` gives a model
    the observations an input table numbers this way, since decode never
    looks one up, and builds the dict a look-up needs at the first."""

    def __init__(self, names: list[str]):
        self.names = names

    def __len__(self) -> int:
        return len(self.names)

    def __iter__(self):
        return iter(self.names)

    def __getitem__(self, name: str) -> int:
        return self._numbers[name]

    @cached_property
    def _numbers(self) -> dict[str, int]:
        return dict(zip(self.names, range(len(self.names))))


@dataclass
class CrfModel:
    """Weights over interned observation features and label bigrams.

    Every interned observation owns one weight per label (an observation is
    "extracted" jointly with each label it could pair with); observations
    never seen during interning contribute nothing at prediction time.
    """

    scheme: LabelScheme
    obs_index: Mapping[str, int]  # a dict, or an input table's _Numbering
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


class _InputTable:
    """A batch of token sequences laid end to end, featurized once per token
    type.

    ``codes`` holds each position's token type, the types numbered by first
    appearance.  Each template's column holds one entry per type and, for a
    neighbour template (``offset`` -1 or +1), one for the BOS/EOS token after
    them: ``number`` fills them with the numbers of the observations the
    template fires, -1 where it fires nothing, and ``renumber`` maps those
    numbers to ids, as ``look_up`` does to a model's and ``build_model`` to
    the model it builds.  ``ids`` spreads the columns over the positions, a
    neighbour template's shifted by one position with its BOS/EOS entry at
    sentence edges; ``unary`` scores the positions from them.  A string in
    place of a sentence is refused: its characters would pass for tokens.
    """

    def __init__(self, token_seqs: Sequence[Sequence[str]]):
        if any(isinstance(tokens, str) for tokens in token_seqs):
            raise ValueError("a sentence is a sequence of tokens, not a string: pass [tokens] for one sentence")
        types: dict[str, int] = {}
        self.codes = np.array(
            [types.setdefault(tok, len(types)) for tokens in token_seqs for tok in tokens], dtype=np.intp
        )
        self.lengths = [len(tokens) for tokens in token_seqs]
        self.types, self.type_codes = list(types), types

    def look_up(self, model: CrfModel) -> _InputTable:
        """The columns numbered and each number mapped to its observation's
        id in the model, -1 for one it lacks, one look-up per distinct
        observation; returns the table."""
        names = self.number()
        self.renumber(np.fromiter(map(model.obs_index.get, names, repeat(-1)), np.intp, len(names)))
        return self

    def renumber(self, ids: np.ndarray) -> None:
        """Each column entry n >= 0 replaced by ``ids[n]``; -1 stays."""
        ids = np.append(ids, -1)  # what -1 reads
        self.columns = [(off, ids[col]) for off, col in self.columns]

    def number(self) -> list[str]:
        """Fills the columns with the observations numbered by first use,
        template by template, -1 where a template fires nothing; returns the
        observations in number order.

        Each template cuts its ``FeatureTemplate.pieces`` once.  No two
        templates fire the same observation, as their heads differ, so each
        numbers its own with no look-up in the others': a ``distinct`` one
        takes one block of consecutive numbers for the types (its BOS/EOS
        entry shares the number of a type that is the BOS/EOS token), and
        any other numbers each distinct piece on first use, building the
        observation of each distinct piece alone."""
        names: list[str] = []
        self.columns, n = [], len(self.types)  # (offset, entry per type, then the BOS/EOS token's)
        for tpl in TEMPLATES:
            reads = [*self.types, BOS_TOKEN if tpl.offset < 0 else EOS_TOKEN] if tpl.offset else self.types
            head, base, pieces = tpl.head, len(names), tpl.pieces(reads)
            if tpl.distinct:
                names += [head + piece for piece in islice(pieces, n)]
                col = np.arange(base, base + len(pieces))
                if tpl.offset and pieces[n] in self.type_codes:
                    col[n] = base + self.type_codes[pieces[n]]
                elif tpl.offset:
                    names.append(head + pieces[n])
            else:
                seen: dict[str, int] = {}
                at = seen.setdefault
                col = np.array([-1 if piece is None else at(piece, base + len(seen)) for piece in pieces], np.intp)
                names += [head + piece for piece in seen]
            self.columns.append((tpl.offset, col))
        return names

    def _reads(self, off: int) -> np.ndarray:
        """The type each position reads at ``off``, len(types) (the BOS/EOS
        entry) past a sentence edge."""
        if not off:
            return self.codes
        lengths = np.array([n for n in self.lengths if n], dtype=np.intp)
        ends = np.cumsum(lengths)
        reads = np.roll(self.codes, -off)
        reads[ends - lengths if off < 0 else ends - 1] = len(self.types)
        return reads

    def ids(self) -> np.ndarray:
        """The (P, T) column entries of each position, one column per
        template."""
        fired = np.empty((self.codes.size, len(self.columns)), dtype=np.intp)
        for j, (off, col) in enumerate(self.columns):
            fired[:, j] = col[self._reads(off)]
        return fired

    def unary(self, wu: np.ndarray) -> np.ndarray:
        """The (P, M) unary scores of the positions, the columns holding ids
        of the weight rows ``wu``: ``_unary_table(wu, self.ids())`` bit for
        bit.  The leading templates, which read a position's own token, are
        summed once per type, and each position adds its neighbour
        templates' rows to its type's sum in template order: the same rows
        in the same order."""
        unary = _unary_table(wu, np.stack([col for _, col in self.columns[:_OWN]], axis=1))[self.codes]
        for off, col in self.columns[_OWN:]:
            unary += _unary_table(wu, col[self._reads(off), None])
        return unary


def _unary_table(wu: np.ndarray, ids: np.ndarray) -> np.ndarray:
    """The (P, M) unary scores of positions whose observation ids are the
    (P, T) ``ids``: the weight rows ``wu[id]`` summed left to right over the
    templates, a zero row for the id -1.

    One gather per ``_GATHER_ROWS`` positions, template-major so that the
    sum adds whole (rows, M) blocks in template order.  A miss reads the
    last row and is set to zero: appending a zero row would copy ``wu``.
    With no rows every id is -1, and the table is zero."""
    if not wu.shape[0]:
        return np.zeros((ids.shape[0], wu.shape[1]))
    unary = np.empty((ids.shape[0], wu.shape[1]))
    for lo in range(0, ids.shape[0], _GATHER_ROWS):
        cols = ids[lo : lo + _GATHER_ROWS].T
        rows = wu.take(cols, axis=0)
        rows[cols < 0] = 0.0
        rows.sum(axis=0, out=unary[lo : lo + _GATHER_ROWS])
    return unary


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
    obj = _WeightedObjective(data if isinstance(data, _Examples) else _examples(model, data), opts.l2)
    res = minimize(obj.value_and_grad, model.weights, opts.max_iter, opts.tol)
    trained = replace(model, weights=res.x)
    return TrainResult(trained, res.fun, float(np.abs(res.jac).max()), res.nit, res.success, res.status == 2)


def save_model(model: CrfModel, path) -> None:
    """Format v4 (see the module docstring): the header, the observation
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


@dataclass
class _NameBlock:
    """The name block of an open v4 file and its index: ``keys`` and
    ``ids``, read and checked by ``open``.  ``read`` streams the names,
    ``intern`` and ``find`` use it."""

    fh: io.BufferedReader
    path: str
    size: int  # bytes of the names
    checksum: int  # crc32 of the names and then the index
    index: np.ndarray  # the hashes, ascending, then the ids, as little-endian uint32

    @property
    def keys(self) -> np.ndarray:
        return self.index[: self.index.size // 2]

    @property
    def ids(self) -> np.ndarray:
        return self.index[self.index.size // 2 :]

    def bad(self, row: int, why: str) -> ValueError:
        return ValueError(f"{self.path}, line {_HEADER_LINES + 1 + row}: {why}")

    @classmethod
    def open(cls, fh, path, n_obs: int, size: int, checksum: int) -> _NameBlock:
        """Reads the index that follows the ``size`` bytes of names at the
        file position, and refuses one whose hashes do not ascend, with
        equal hashes in id order, or whose ids are not a permutation of the
        rows.  Leaves ``fh`` at the first name."""
        start = fh.tell()
        block = cls(fh, str(path), size, checksum, np.empty(2 * n_obs, dtype="<u4"))
        fh.seek(start + size)
        fh.readinto(block.index)
        fh.seek(start)
        keys, ids = block.keys, block.ids
        if ((keys[1:] < keys[:-1]) | ((keys[1:] == keys[:-1]) & (ids[1:] <= ids[:-1]))).any():
            raise ValueError(f"{path}: the name index is not sorted by hash and id")
        seen = np.zeros(n_obs, dtype=bool)
        if n_obs and ids.max() < n_obs:
            for lo in range(0, n_obs, _CHUNK_LINES):  # ids index as intp: a chunk at a time
                seen[ids[lo : lo + _CHUNK_LINES]] = True
        if not seen.all():
            raise ValueError(f"{path}: the name index ids are not a permutation of the names")
        return block

    def read(self, visit) -> None:
        """Reads the names ``_NAME_BYTES`` at a time, each slice cut after
        its last ``\\n``, and calls ``visit(first, raw, ends, text)`` on
        each slice, of rows ``first``, ``first + 1``, ...: its bytes, the
        offset of each line's ``\\n`` and its text.  Lines end at ``\\n``
        alone; names the first that holds a tab or a CR or is not UTF-8, and
        refuses a block of other than one whole line per id, or whose
        checksum with the index is wrong.  Leaves ``fh`` at the weights."""
        n_obs = self.index.size // 2
        crc, rest, row, left = 0, b"", 0, self.size
        while left > 0 and (data := self.fh.read(min(_NAME_BYTES, left))):
            left -= len(data)
            crc = zlib.crc32(data, crc)
            raw = rest + data
            ends = np.flatnonzero(np.frombuffer(raw, dtype=np.uint8) == ord("\n"))
            end = int(ends[-1]) + 1 if ends.size else 0
            raw, rest = raw[:end], raw[end:]
            cut = min((at for at in (raw.find(b"\t"), raw.find(b"\r")) if at >= 0), default=end)
            try:
                text = raw[:cut].decode("utf-8")  # UTF-8 never holds a tab or CR byte inside a character
            except UnicodeDecodeError:
                raise DataError.not_utf8(self.path, raw, _HEADER_LINES + 1 + row) from None
            if cut < end:
                raise self.bad(row + raw.count(b"\n", 0, cut), f"observation name holds {chr(raw[cut])!r}")
            if ends.size and row + ends.size <= n_obs:
                visit(row, raw, ends, text)
            row += ends.size
        if rest:
            raise self.bad(row, "the name block ends inside this line")
        if row != n_obs:
            raise ValueError(f"{self.path}: expected {n_obs} observation names, found {row}")
        self.fh.seek(self.index.nbytes, io.SEEK_CUR)
        if zlib.crc32(self.index, crc) != self.checksum:
            raise ValueError(f"{self.path}: the names or their index do not match the header's checksum")

    def intern(self) -> dict[str, int]:
        """Every name, numbered from 0 in file order; a repeated name, and
        one whose hash is not the index's, raise, naming its line."""
        obs_index: dict[str, int] = {}
        hashes = np.empty(self.index.size // 2, dtype=np.uint32)

        def visit(first, raw, ends, text):
            names = text.split("\n")  # not splitlines, which also ends a line at \x1c, \x85, \u2028, ...
            names.pop()  # the empty string after the last newline
            obs_index.update(zip(names, range(first, first + len(names))))
            if len(obs_index) < first + len(names):  # a repeated name: find its line
                known = set(islice(obs_index, first))  # an update keeps a key's place
                for i, name in enumerate(names, first):
                    if name in known:
                        raise self.bad(i, f"duplicate observation {name!r}")
                    known.add(name)
            hashes[first : first + len(names)] = np.fromiter(map(_name_hash, raw.split(b"\n")), np.uint32, len(names))

        self.read(visit)
        wrong = self.ids[hashes[self.ids] != self.keys]
        if wrong.size:
            raise self.bad(int(wrong.min()), "the name index holds another hash for this name")
        return obs_index

    def find(self, names: list[str]) -> tuple[np.ndarray, np.ndarray]:
        """The file rows, ascending, of ``names``, an input table's
        observations in number order (``_InputTable.number``), and their
        numbers.

        The names are encoded once, ``_CHUNK_LINES`` at a time, and each
        one's bytes hashed, measured and kept end to end.  A chunk's hashes,
        sorted, meet the index in one ``searchsorted``, and each run of equal
        hashes there gives (row, number) pairs, whose bytes ``read`` compares
        as it streams the rows.  Names of one hash sit next to each other in
        the index, so the duplicate check compares only those, naming the
        later line."""
        keys, ids, n_obs, n_q = self.keys, self.ids, self.keys.size, len(names)
        offsets = np.zeros(n_q + 1, dtype=np.intp)  # of each name's bytes in encoded
        encoded = []  # the names' bytes end to end, a chunk at a time
        pairs = [np.zeros(0, np.int64)]  # row * n_q + number
        for lo in range(0, n_q, _CHUNK_LINES):
            # each name encoded once; its bytes live only while their chunk is hashed, measured
            # and joined: many small objects alive at once would leave the heap larger for the
            # rest of decode
            chunk = list(_utf8(names[lo : lo + _CHUNK_LINES]))
            encoded.append(b"".join(chunk))
            offsets[lo + 1 : lo + 1 + len(chunk)] = np.fromiter(map(len, chunk), np.intp, len(chunk))
            hashes = np.fromiter(map(_name_hash, chunk), np.uint32, len(chunk))
            order = np.argsort(hashes)
            hashes = hashes[order]
            at = np.searchsorted(keys, hashes)
            live = np.flatnonzero(at < n_obs)
            while live.size:  # walk each run of equal hashes
                live = live[keys[at[live]] == hashes[live]]
                pairs.append(ids[at[live]].astype(np.int64) * n_q + order[live] + lo)
                at[live] += 1
                live = live[at[live] < n_obs]
        np.cumsum(offsets, out=offsets)
        encoded = b"".join(encoded)
        pairs = np.concatenate(pairs)
        pairs.sort()
        matched = np.zeros(pairs.size, dtype=bool)
        runs = np.flatnonzero(keys[1:] == keys[:-1]).tolist()  # each index entry whose hash the next shares
        twins = ids[sorted({*runs, *(i + 1 for i in runs)})].tolist()  # index order: each run's rows ascend
        looked = np.array(sorted(twins), dtype=np.intp)
        named = {}

        def visit(first, raw, ends, text):
            a, b = np.searchsorted(pairs, (first * n_q, (first + ends.size) * n_q))
            c, d = np.searchsorted(looked, (first, first + ends.size))
            starts = np.concatenate(([0], ends[:-1] + 1))
            for row in looked[c:d].tolist():
                named[row] = raw[starts[row - first] : ends[row - first]]
            rows, picks = np.divmod(pairs[a:b], n_q)
            lo, hi = starts[rows - first], ends[rows - first]
            name_lo, name_hi = offsets[picks], offsets[picks + 1]
            same = np.array_equal(hi - lo, name_hi - name_lo)
            if same and _gather(raw, lo, hi) == _gather(encoded, name_lo, name_hi):
                matched[a:b] = True
            else:  # a name of the input shares a hash with another name of the file
                spans = zip(lo.tolist(), hi.tolist(), name_lo.tolist(), name_hi.tolist())
                matched[a:b] = [raw[i:j] == encoded[k:n] for i, j, k, n in spans]

        self.read(visit)
        seen, repeats = set(), []
        for row in twins:
            if named[row] in seen:
                repeats.append(row)
            seen.add(named[row])
        if repeats:
            row = min(repeats)
            raise self.bad(row, f"duplicate observation {named[row].decode()!r}")
        return np.divmod(pairs[matched], n_q)


def _utf8(names: Iterable[str]):
    """Each name's bytes, one at a time; a lone surrogate gives bytes that
    are not UTF-8, so never those of a name in a file."""
    return map(str.encode, names, repeat("utf-8"), repeat("surrogatepass"))


def _gather(data, starts: np.ndarray, stops: np.ndarray) -> bytes:
    """The bytes ``data[start:stop]`` of each start and stop, end to end."""
    sizes = stops - starts
    at = np.repeat(starts - np.cumsum(sizes) + sizes, sizes) + np.arange(sizes.sum())
    return np.frombuffer(data, dtype=np.uint8)[at].tobytes()


def _read_weights(fh, n_obs: int, m: int, weights: np.ndarray, picks) -> None:
    """Reads the raw little-endian float64 weights that end the file, the
    (n_obs, M) unary block and then the (M, M) bigram block, into
    ``weights``, an input table's (rows, M) weights and then the bigram's:
    the unary block is read ``_CHUNK_LINES`` rows at a time, and the rows
    ``picks`` holds, file rows (ascending) and their numbers, go to their
    numbers."""
    rows, numbers = picks
    unary = weights[: weights.size - m * m].reshape(-1, m)
    buf = np.empty((min(_CHUNK_LINES, n_obs), m), dtype="<f8")
    bounds = [*np.searchsorted(rows, range(0, n_obs, _CHUNK_LINES)).tolist(), rows.size]
    for lo, a, b in zip(range(0, n_obs, _CHUNK_LINES), bounds, bounds[1:]):
        block = buf[: min(_CHUNK_LINES, n_obs - lo)]
        fh.readinto(block)
        unary[numbers[a:b]] = block[rows[a:b] - lo]
    fh.readinto(weights[unary.size :])


def load_model(path, inputs: _InputTable | None = None) -> CrfModel:
    """Read a ``save_model`` file, format v4.

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
    line.
    """
    with open(path, "rb") as fh:
        magic = fh.readline().rstrip(b"\n")
        if magic != MODEL_MAGIC.encode():
            if magic in _RETIRED_MAGICS:
                raise ValueError(f"{path}: {magic.decode()} files are no longer read; retrain the model")
            raise ValueError(f"{path}: not a {MODEL_MAGIC} file")
        lines = [fh.readline() for _ in range(_HEADER_LINES - 1)]
        try:
            header = [MODEL_MAGIC, *(line.decode("utf-8").rstrip("\n") for line in lines)]
        except UnicodeDecodeError:
            raise DataError.not_utf8(path, b"".join(lines), 2) from None

        def fields(i, tag, n=None):
            parts = header[i].split("\t")
            if parts[0] != tag or (n is not None and len(parts) != n):
                raise ValueError(f"{path}, line {i + 1}: expected {tag!r}")
            return parts[1:]

        def count(i, text, what):
            if not text.isdecimal():
                raise ValueError(f"{path}, line {i + 1}: {what} {text!r} is not a nonnegative integer")
            return int(text)

        kind = fields(1, "kind", 2)[0]
        labels = tuple(fields(2, "labels"))
        if header[3] != _TEMPLATES_LINE:
            raise ValueError(f"{path}, line 4: expected {_TEMPLATES_LINE!r}")
        n_obs = count(4, fields(4, "observations", 2)[0], "observation count")
        size, checksum = (count(5, text, what) for text, what in zip(fields(5, "names", 3), ("name bytes", "checksum")))
        scheme = LabelScheme(labels, kind)
        model = CrfModel(scheme, {}, np.zeros(0))
        m = scheme.size
        start = fh.tell()
        found = fh.seek(0, io.SEEK_END) - start - size - 8 * n_obs
        expected = (n_obs + m) * m * 8
        if found < 0:
            raise ValueError(f"{path}: the file ends inside its names or their index")
        if found != expected:
            raise ValueError(f"{path}: expected {expected} bytes of weights, found {found}")
        fh.seek(start)
        names = _NameBlock.open(fh, path, n_obs, size, checksum)
        if inputs is None:
            model.obs_index = names.intern()
            model.weights = np.empty((n_obs + m) * m, dtype="<f8")
            fh.readinto(model.weights)
        else:
            model.obs_index = _Numbering(inputs.number())
            picks = names.find(model.obs_index.names)
            model.weights = np.zeros((len(model.obs_index) + m) * m, dtype="<f8")
            _read_weights(fh, n_obs, m, model.weights, picks)
    return model


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
