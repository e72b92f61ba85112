"""Per-annotator reliability tables over label contexts.

Each annotator carries two stacks of categorical distributions over the
label they assign, conditioned on a candidate truth label and on a context
label.  The ``local`` table's context is the annotator's own previous
annotation, with a reserved beginning-of-sequence slot covering the first
token; the ``mention`` table's context is the label the same annotator gave
the nearest earlier token with an identical surface form.  Exactly one table
applies per token: ``mention`` wherever such an earlier occurrence exists,
``local`` otherwise.

Tables are stored stacked as arrays of shape (K, M + 1, M, M) indexed by
(annotator, context, truth, assigned); context index M is the
beginning-of-sequence slot.  The mention table keeps that slot only for
shape uniformity and never reads it.

The crowd's labels are one (T, K) ``annotation_table`` over the corpus laid
end to end, which Dawid-Skene reads too; ``annotation_entries`` derives each
labeled entry's context from it, and no other code derives contexts.
``vote_counts`` turns such a table into per-row label votes; candidate sets,
``majority_vote`` and Dawid-Skene's start all count votes with it, and no
other code counts them.  ``majority_vote`` is both ``aggregate --method mv``
and the start of EM.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import islice
from pathlib import Path
from typing import NamedTuple, Sequence

import numpy as np

from .formats import read_utf8
from .types import CrowdDataset, LabelScheme, LabelSeq

PARAMS_MAGIC = "crowdseq-annotators v1"
BOS_LABEL = "<bos>"


def bos_context(n_labels: int) -> int:
    """Context index reserved for the start of a sequence."""
    return n_labels


def resolve_mentions(tokens: Sequence[str]) -> tuple[int | None, ...]:
    """For each position, the nearest earlier position with the identical token."""
    last: dict[str, int] = {}
    links: list[int | None] = []
    for j, tok in enumerate(tokens):
        links.append(last.get(tok))
        last[tok] = j
    return tuple(links)


@dataclass
class AnnotatorParams:
    """Stacked reliability tables, roster-aligned."""

    roster: tuple[str, ...]
    local: np.ndarray  # (K, M+1, M, M)
    mention: np.ndarray  # (K, M+1, M, M)

    @property
    def n_labels(self) -> int:
        return self.local.shape[2]

    def annotator_index(self, annotator: str) -> int:
        try:
            return self.roster.index(annotator)
        except ValueError:
            raise KeyError(f"annotator {annotator!r} not in roster") from None

    def validate(self, atol: float = 1e-9) -> None:
        m = self.n_labels
        k = len(self.roster)
        for name, tab in (("local", self.local), ("mention", self.mention)):
            if tab.shape != (k, m + 1, m, m):
                raise ValueError(f"{name} table has shape {tab.shape}, expected {(k, m + 1, m, m)}")
            if (tab < 0).any():
                raise ValueError(f"{name} table has negative entries")
            if not (np.abs(tab.sum(axis=3) - 1.0) <= atol).all():  # NaN fails too
                raise ValueError(f"{name} table rows are off the simplex")


class AnnotationEntries(NamedTuple):
    """Labeled (position, annotator) entries of a corpus laid end to end, row-major."""

    row: np.ndarray  # (E,) corpus row
    annotator: np.ndarray  # (E,) roster index
    assigned: np.ndarray  # (E,) the label the annotator gave
    context: np.ndarray  # (E,) its context label, or the beginning-of-sequence slot
    is_mention: np.ndarray  # (E,) whether the mention table applies


def annotation_table(ds: CrowdDataset) -> np.ndarray:
    """(T, K) label each roster annotator gave each row of the corpus laid
    end to end, -1 where they skipped the instance."""
    table = np.full((sum(len(inst.tokens) for inst in ds.instances), len(ds.roster)), -1, dtype=np.intp)
    start = 0
    for inst in ds.instances:
        for k, ann in enumerate(ds.roster):
            if ann in inst.annotations:
                table[start : start + len(inst.tokens), k] = inst.annotations[ann]
        start += len(inst.tokens)
    return table


def vote_counts(table: np.ndarray, n_labels: int) -> np.ndarray:
    """(T, M) number of annotators who gave each row of an
    ``annotation_table``-shaped array each label; -1 entries count for none."""
    rows, cols = np.nonzero(table >= 0)
    labels = table[rows, cols]
    if labels.size and labels.max() >= n_labels:
        raise ValueError(f"label {labels.max()} out of range for {n_labels} labels")
    return np.bincount(rows * n_labels + labels, minlength=len(table) * n_labels).reshape(len(table), n_labels)


def majority_vote(ds: CrowdDataset, table: np.ndarray) -> list[LabelSeq]:
    """Each instance's most voted label at each position, from its rows of
    ``table`` (``annotation_table(ds)``): a tie goes to the lowest label, and
    a position nobody labeled gets label 0."""
    labels = iter(vote_counts(table, ds.scheme.size).argmax(axis=1).tolist())
    return [tuple(islice(labels, len(inst.tokens))) for inst in ds.instances]


def annotation_entries(ds: CrowdDataset, table: np.ndarray) -> AnnotationEntries:
    """The labeled entries of ``annotation_table(ds)``.

    A row with a link (from ``resolve_mentions``, within its sentence) takes
    the label the annotator gave the linked row as context, and the mention
    table applies; any other takes the annotator's previous label, or the
    beginning-of-sequence slot at its sentence's first token.
    """
    lengths = np.array([len(inst.tokens) for inst in ds.instances], dtype=np.intp)
    first = np.repeat(np.cumsum(lengths) - lengths, lengths)  # per row, its sentence's first row
    links = [-1 if j is None else j for inst in ds.instances for j in resolve_mentions(inst.tokens)]
    links = np.array(links, dtype=np.intp)
    at = np.arange(len(table))
    source = np.where(links >= 0, first + links, np.where(at > first, at - 1, -1))  # context row, or -1
    rows, annotator = np.nonzero(table >= 0)
    src = source[rows]
    context = np.where(src >= 0, table[src, annotator], bos_context(ds.scheme.size))
    return AnnotationEntries(rows, annotator, table[rows, annotator], context, links[rows] >= 0)


def context_factor(params: AnnotatorParams, entries: AnnotationEntries) -> np.ndarray:
    """(E, M) table of log p(assigned_e | truth = m, context_e) for the
    ``annotation_entries``, which do not depend on the truth."""
    at = (entries.annotator, entries.context, slice(None), entries.assigned)
    with np.errstate(divide="ignore"):
        return np.log(np.where(entries.is_mention[:, None], params.mention[at], params.local[at]))


def params_from_counts(
    roster: Sequence[str],
    local_counts: np.ndarray,
    mention_counts: np.ndarray,
    smoothing: float = 1.0,
) -> AnnotatorParams:
    """Normalize weighted count tensors into reliability tables.

    Each row becomes (count + smoothing) / (row total + smoothing * M); a row
    with no mass and no smoothing falls back to uniform.
    """
    if smoothing < 0:
        raise ValueError("smoothing must be nonnegative")
    if (local_counts < 0).any() or (mention_counts < 0).any():
        raise ValueError("negative weight")

    def norm(c):
        m = c.shape[-1]
        denom = c.sum(axis=-1, keepdims=True) + smoothing * m
        safe = np.where(denom > 0, denom, 1.0)
        return np.where(denom > 0, (c + smoothing) / safe, 1.0 / m)

    return AnnotatorParams(tuple(roster), norm(local_counts), norm(mention_counts))


def save_annotators(params: AnnotatorParams, scheme: LabelScheme, path) -> None:
    """Versioned flat text dump; floats use shortest round-trip encoding."""
    if scheme.size != params.n_labels:
        raise ValueError("scheme size does not match the tables")
    params.validate(atol=1e-6)
    for annotator in params.roster:
        if "\t" in annotator or "\n" in annotator or "\r" in annotator:
            raise ValueError(f"annotator id not serializable: {annotator!r}")
    contexts = list(scheme.labels) + [BOS_LABEL]
    lines = [PARAMS_MAGIC]
    lines.append("kind\t" + scheme.kind)
    lines.append("labels\t" + "\t".join(scheme.labels))
    lines.append("roster\t" + "\t".join(params.roster))
    for name, tab in (("local", params.local), ("mention", params.mention)):
        for annotator, table in zip(params.roster, np.asarray(tab, dtype=float).tolist()):
            lines.append(f"table\t{name}\t{annotator}")
            for ctx, rows in zip(contexts, table):
                for truth, row in zip(scheme.labels, rows):
                    lines.append(f"{ctx}\t{truth}\t" + "\t".join(map(repr, row)))
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def load_annotators(path) -> tuple[AnnotatorParams, LabelScheme]:
    """Read a ``save_annotators`` file, checked as that function checks it.
    Lines end at ``\\n`` alone, never where ``str.splitlines`` also ends
    one (``\\x85``, ``\\u2028``, ...), which an annotator id may hold."""
    lines = read_utf8(path).split("\n")
    if not lines[-1]:
        lines.pop()  # after the last line end
    if not lines or lines[0] != PARAMS_MAGIC:
        raise ValueError(f"{path}: not a {PARAMS_MAGIC} file")
    if len(lines) < 4:
        raise ValueError(f"{path}: truncated header ({len(lines)} of 4 lines)")
    kind, labels, names = (line.split("\t") for line in lines[1:4])
    if (kind[0], labels[0], names[0]) != ("kind", "labels", "roster") or len(kind) != 2:
        raise ValueError(f"{path}: malformed header")
    scheme = LabelScheme(tuple(labels[1:]), kind[1])
    roster = tuple(names[1:])
    m = scheme.size
    k = len(roster)
    contexts = list(scheme.labels) + [BOS_LABEL]
    local = np.zeros((k, m + 1, m, m))
    mention = np.zeros((k, m + 1, m, m))
    i = 4
    for name, tab in (("local", local), ("mention", mention)):
        for ki, annotator in enumerate(roster):
            if i >= len(lines) or lines[i] != f"table\t{name}\t{annotator}":
                raise ValueError(f"{path}, line {i + 1}: expected table header for {annotator!r}")
            i += 1
            for ci, ctx in enumerate(contexts):
                for ti, truth in enumerate(scheme.labels):
                    if i >= len(lines):
                        raise ValueError(f"{path}: truncated table for {annotator!r}")
                    parts = lines[i].split("\t")
                    if len(parts) != 2 + m or parts[0] != ctx or parts[1] != truth:
                        raise ValueError(f"{path}, line {i + 1}: malformed row")
                    try:
                        tab[ki, ci, ti] = [float(v) for v in parts[2:]]
                    except ValueError as e:
                        raise ValueError(f"{path}, line {i + 1}: {e}") from None
                    i += 1
    if i != len(lines):
        raise ValueError(f"{path}: trailing content at line {i + 1}")
    params = AnnotatorParams(roster, local, mention)
    try:
        params.validate(atol=1e-6)
    except ValueError as e:
        raise ValueError(f"{path}: {e}") from None
    return params, scheme
