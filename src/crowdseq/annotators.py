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
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

from .types import LabelScheme, LabelSeq

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


def sample_init_params(roster: Sequence[str], n_labels: int, seed) -> AnnotatorParams:
    """Flat-Dirichlet rows for both tables, deterministic in the seed."""
    rng = np.random.default_rng(seed)
    k, m = len(roster), n_labels
    local = rng.dirichlet(np.ones(m), size=(k, m + 1, m))
    mention = rng.dirichlet(np.ones(m), size=(k, m + 1, m))
    return AnnotatorParams(tuple(roster), local, mention)


def annotation_contexts(
    assigned: LabelSeq, links, n_labels: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per position of one annotation: the assigned label, its context, and
    whether the mention table applies there.

    A position with a link (from ``resolve_mentions``) takes the label the
    annotator gave the linked position; any other takes the annotator's
    previous label, or the beginning-of-sequence slot at the first token.
    """
    y = np.asarray(assigned, dtype=np.intp)
    prev = np.empty(y.size, dtype=np.intp)
    prev[0] = bos_context(n_labels)
    prev[1:] = y[:-1]
    is_mention = np.array([l is not None for l in links])
    link_idx = np.array([l if l is not None else 0 for l in links], dtype=np.intp)
    return y, np.where(is_mention, y[link_idx], prev), is_mention


def factor_matrix(
    params: AnnotatorParams, annotator: str, assigned: LabelSeq, links
) -> np.ndarray:
    """(L, M) table of log p(assigned_j | truth = m, context_j).

    The contexts come from the annotation itself, so the table does not
    depend on any candidate truth sequence.
    """
    contexts = annotation_contexts(assigned, links, params.n_labels)
    return context_factor(params, params.annotator_index(annotator), contexts)


def context_factor(params: AnnotatorParams, k: int, contexts) -> np.ndarray:
    """``factor_matrix`` for the annotator at roster index ``k``, from the
    ``annotation_contexts`` of their labels."""
    y, ctx, is_mention = contexts
    local_rows = params.local[k][ctx, :, y]
    mention_rows = params.mention[k][ctx, :, y]
    with np.errstate(divide="ignore"):
        return np.log(np.where(is_mention[:, None], mention_rows, local_rows))


def annotation_loglik(
    params: AnnotatorParams, annotator: str, assigned: LabelSeq, truth: LabelSeq, links
) -> float:
    """Log-probability of one annotator's labels given a candidate truth sequence."""
    if len(assigned) != len(truth):
        raise ValueError("assigned/truth length mismatch")
    phi = factor_matrix(params, annotator, assigned, links)
    z = np.asarray(truth, dtype=np.intp)
    return float(phi[np.arange(z.size), z].sum())


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
    contexts = list(scheme.labels) + [BOS_LABEL]
    lines = [PARAMS_MAGIC]
    lines.append("kind\t" + scheme.kind)
    lines.append("labels\t" + "\t".join(scheme.labels))
    lines.append("roster\t" + "\t".join(params.roster))
    for name, tab in (("local", params.local), ("mention", params.mention)):
        for ki, annotator in enumerate(params.roster):
            lines.append(f"table\t{name}\t{annotator}")
            for ci, ctx in enumerate(contexts):
                for ti, truth in enumerate(scheme.labels):
                    row = "\t".join(repr(float(v)) for v in tab[ki, ci, ti])
                    lines.append(f"{ctx}\t{truth}\t{row}")
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def load_annotators(path) -> tuple[AnnotatorParams, LabelScheme]:
    """Read a ``save_annotators`` file, checked as that function checks it."""
    lines = Path(path).read_text(encoding="utf-8").splitlines()
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
