"""Entity spans and exact-match precision/recall/F1 for BIO tag sequences."""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple, Sequence

from .types import LabelScheme, LabelSeq


class EntitySpan(NamedTuple):
    start: int
    end: int  # exclusive
    entity_type: str


@dataclass(frozen=True)
class PrfReport:
    precision: float
    recall: float
    f1: float
    tp: int
    fp: int
    fn: int

    @classmethod
    def from_counts(cls, tp: int, fp: int, fn: int) -> "PrfReport":
        p = tp / (tp + fp) if tp + fp else 0.0
        r = tp / (tp + fn) if tp + fn else 0.0
        f1 = 2 * p * r / (p + r) if p + r else 0.0
        return cls(p, r, f1, tp, fp, fn)


def extract_entities(labels: Sequence[int], scheme: LabelScheme, strict: bool = False) -> list[EntitySpan]:
    """Spans of maximal ``B-T (I-T)*`` runs, left to right.

    An ``I-T`` whose left neighbour does not continue a ``T`` segment starts
    a new span (the lenient reading used by standard chunking scorers).  With
    ``strict`` such orphan ``I-`` tokens are ignored instead.
    """
    if scheme.kind != "BIO":
        raise ValueError("entity extraction requires a BIO scheme")
    spans: list[EntitySpan] = []
    open_start: int | None = None
    open_type: str | None = None

    def close(j: int) -> None:
        nonlocal open_start, open_type
        if open_start is not None:
            spans.append(EntitySpan(open_start, j, open_type))
            open_start = None
            open_type = None

    for j, idx in enumerate(labels):
        lab = scheme.labels[idx]
        if lab == "O":
            close(j)
        elif lab.startswith("B-"):
            close(j)
            open_start, open_type = j, lab[2:]
        else:
            ty = lab[2:]
            if open_start is not None and open_type == ty:
                continue
            close(j)
            if not strict:
                open_start, open_type = j, ty
    close(len(labels))
    return spans


def _check_aligned(pred: Sequence[LabelSeq], gold: Sequence[LabelSeq]) -> None:
    if len(pred) != len(gold):
        raise ValueError(f"{len(pred)} predicted sequences vs {len(gold)} gold")
    for i, (p, g) in enumerate(zip(pred, gold)):
        if len(p) != len(g):
            raise ValueError(f"sequence {i}: length {len(p)} != {len(g)}")


def entity_prf(
    pred: Sequence[LabelSeq],
    gold: Sequence[LabelSeq],
    scheme: LabelScheme,
    strict: bool = False,
) -> PrfReport:
    """Corpus-level exact-span-match scores (micro-averaged): the counts of
    ``entity_prf_by_type`` summed over the types.

    A predicted entity counts as correct only when its start, end, and type
    all match a gold entity.
    """
    reports = entity_prf_by_type(pred, gold, scheme, strict).values()
    return PrfReport.from_counts(*(sum(getattr(r, c) for r in reports) for c in ("tp", "fp", "fn")))


def entity_prf_by_type(
    pred: Sequence[LabelSeq],
    gold: Sequence[LabelSeq],
    scheme: LabelScheme,
    strict: bool = False,
) -> dict[str, PrfReport]:
    """Per-entity-type exact-match scores."""
    _check_aligned(pred, gold)
    counts = {ty: [0, 0, 0] for ty in scheme.entity_types}
    for p, g in zip(pred, gold):
        ps = set(extract_entities(p, scheme, strict))
        gs = set(extract_entities(g, scheme, strict))
        for span in ps & gs:
            counts[span.entity_type][0] += 1
        for span in ps - gs:
            counts[span.entity_type][1] += 1
        for span in gs - ps:
            counts[span.entity_type][2] += 1
    return {ty: PrfReport.from_counts(*c) for ty, c in counts.items()}


def token_accuracy(pred: Sequence[LabelSeq], gold: Sequence[LabelSeq]) -> float:
    """Fraction of positions labeled identically, over the whole corpus."""
    _check_aligned(pred, gold)
    total = sum(len(g) for g in gold)
    if total == 0:
        raise ValueError("no tokens to score")
    hits = sum(int(a == b) for p, g in zip(pred, gold) for a, b in zip(p, g))
    return hits / total
