"""The one feature set of every model, and its featurizer.

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
edges, into one (P, T) array.  ``crf.build_model`` renumbers them by first
appearance in that array, and ``_InputTable.look_up`` maps each to its id in
a model (-1 where nothing interned fires); either leaves the columns holding
the model's ids, for ``crf.extract_features`` and ``objective._Corpus``, and
``crf.decode_file`` keeps the numbers (see ``modelfile``).
``_unary_table`` gathers the weight rows of (P, T) ids, a zero row for -1,
and sums them in template order, as the objective does.
``_InputTable.unary`` sums the rows of the leading templates, which read a
position's own token, once per token type, and each position adds the
previous-token and then the next-token row to its type's sum: the same
rows in the same order and so the same bits as ``_unary_table`` over the
(P, T) ids.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import islice, repeat
from typing import TYPE_CHECKING, Sequence

import numpy as np

if TYPE_CHECKING:
    from .crf import CrfModel

BOS_TOKEN = "<s>"
EOS_TOKEN = "</s>"
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
