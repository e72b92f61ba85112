"""Core domain types shared by every other module.

Labels are interned to integer indices as early as possible; all numeric
code works on indices and only the IO layer deals in tag strings.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

LabelSeq = tuple[int, ...]
"""A label sequence: indices into a :class:`LabelScheme`."""

_BIO_PATTERN = re.compile(r"^(O|[BI]-.+)$")


@dataclass(frozen=True)
class LabelScheme:
    """An ordered tag inventory plus the transition constraints it implies.

    ``kind`` is ``"BIO"`` for begin/inside/outside tagging, where an ``I-T``
    token may only continue a ``T`` segment, or ``"RAW"`` for a free label
    set with no transition constraints.

    Invariants: labels are unique, non-empty, free of whitespace, and there
    are at least two of them.  Under BIO every label is ``O``, ``B-T`` or
    ``I-T``, and every ``I-T`` has a matching ``B-T``.
    """

    labels: tuple[str, ...]
    kind: str = "BIO"

    def __post_init__(self):
        object.__setattr__(self, "labels", tuple(self.labels))
        if self.kind not in ("BIO", "RAW"):
            raise ValueError(f"unknown scheme kind: {self.kind!r}")
        if len(self.labels) < 2:
            raise ValueError("a label scheme needs at least two labels")
        if len(set(self.labels)) != len(self.labels):
            raise ValueError("duplicate labels in scheme")
        for lab in self.labels:
            if not lab or lab.split() != [lab]:
                raise ValueError(f"bad label: {lab!r}")
        if self.kind == "BIO":
            for lab in self.labels:
                if not _BIO_PATTERN.match(lab):
                    raise ValueError(f"not a BIO label: {lab!r}")
            inside = {lab[2:] for lab in self.labels if lab.startswith("I-")}
            missing = [t for t in sorted(inside) if f"B-{t}" not in self.labels]
            if missing:
                raise ValueError(f"I- labels without a matching B-: {missing}")

    @property
    def size(self) -> int:
        return len(self.labels)

    @cached_property
    def entity_types(self) -> tuple[str, ...]:
        """Entity types in order of first appearance (empty for RAW schemes)."""
        if self.kind != "BIO":
            return ()
        seen: dict[str, None] = {}
        for lab in self.labels:
            if lab != "O":
                seen.setdefault(lab[2:])
        return tuple(seen)

    @cached_property
    def _label_to_index(self) -> dict[str, int]:
        return {lab: i for i, lab in enumerate(self.labels)}

    def index(self, label: str) -> int:
        try:
            return self._label_to_index[label]
        except KeyError:
            raise KeyError(f"label {label!r} not in scheme") from None

    @cached_property
    def allowed_transitions(self) -> np.ndarray:
        """Boolean (M, M) table: [i, j] is true iff label i may precede label j.

        Under BIO, ``I-T`` may follow only ``B-T`` or ``I-T``; RAW allows every pair.
        """
        m = self.size
        ok = np.ones((m, m), dtype=bool)
        if self.kind == "BIO":
            for j, to in enumerate(self.labels):
                if to.startswith("I-"):
                    ty = to[2:]
                    for i, frm in enumerate(self.labels):
                        ok[i, j] = frm in (f"B-{ty}", f"I-{ty}")
        ok.setflags(write=False)
        return ok

    @cached_property
    def initial_allowed(self) -> np.ndarray:
        """Labels admissible at the first position (no I- under BIO)."""
        ok = np.array(
            [self.kind == "RAW" or not lab.startswith("I-") for lab in self.labels]
        )
        ok.setflags(write=False)
        return ok

    @classmethod
    def bio(cls, entity_types) -> "LabelScheme":
        """Canonical BIO scheme: O first, then B-T, I-T per type in the given order."""
        labels = ["O"]
        for ty in entity_types:
            labels += [f"B-{ty}", f"I-{ty}"]
        return cls(tuple(labels), "BIO")

    @classmethod
    def infer(cls, labels_seen) -> "LabelScheme":
        """Scheme from observed tag strings.

        All tags BIO-shaped (with at least one non-O) gives the canonical BIO
        scheme over the types seen, sorted; anything else gives a RAW scheme
        over the sorted tag set.
        """
        seen = sorted(set(labels_seen))
        if seen and all(_BIO_PATTERN.match(lab) for lab in seen) and any(lab != "O" for lab in seen):
            return cls.bio(sorted({lab[2:] for lab in seen if lab != "O"}))
        return cls(tuple(seen), "RAW")


@dataclass(frozen=True)
class CrowdInstance:
    """One token sequence, per-annotator label sequences, and optional gold.

    An annotator absent from ``annotations`` did not label this instance;
    present annotations always cover the full sequence.  Treat instances as
    immutable after construction.
    """

    tokens: tuple[str, ...]
    annotations: dict[str, LabelSeq] = field(default_factory=dict)
    gold: LabelSeq | None = None

    def __post_init__(self):
        object.__setattr__(self, "tokens", tuple(self.tokens))
        object.__setattr__(
            self, "annotations", {k: tuple(v) for k, v in self.annotations.items()}
        )
        if self.gold is not None:
            object.__setattr__(self, "gold", tuple(self.gold))

    def __len__(self) -> int:
        return len(self.tokens)


@dataclass(frozen=True)
class CrowdDataset:
    """A label scheme, instances, and the annotator roster."""

    scheme: LabelScheme
    instances: tuple[CrowdInstance, ...]
    roster: tuple[str, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "instances", tuple(self.instances))
        object.__setattr__(self, "roster", tuple(self.roster))

    def __len__(self) -> int:
        return len(self.instances)


def validate_dataset(ds: CrowdDataset) -> list[str]:
    """Collect every invariant violation as a human-readable string.

    An empty list means the dataset is well-formed.  Violations are data,
    not exceptions; callers decide whether to raise.
    """
    problems: list[str] = []
    m = ds.scheme.size
    if not ds.instances:
        problems.append("dataset: no instances")
    seen_ids = set()
    for ann_id in ds.roster:
        if ann_id in seen_ids:
            problems.append(f"roster: duplicate annotator id {ann_id!r}")
        seen_ids.add(ann_id)
    roster = set(ds.roster)
    for i, inst in enumerate(ds.instances):
        n = len(inst.tokens)
        if n == 0:
            problems.append(f"instance {i}: empty token sequence")
            continue
        for j, tok in enumerate(inst.tokens):
            if not tok:
                problems.append(f"instance {i}, position {j}: empty token")
        for ann_id, labels in inst.annotations.items():
            if ann_id not in roster:
                problems.append(f"instance {i}, annotator {ann_id!r}: not in roster")
            if len(labels) != n:
                problems.append(
                    f"instance {i}, annotator {ann_id!r}: annotation length "
                    f"{len(labels)} != {n}"
                )
                continue
            y = np.asarray(labels)
            problems += (
                f"instance {i}, annotator {ann_id!r}, position {j}: label index {labels[j]} out of range"
                for j in np.flatnonzero(~((y >= 0) & (y < m)))
            )
        if inst.gold is not None:
            if len(inst.gold) != n:
                problems.append(f"instance {i}, gold: length {len(inst.gold)} != {n}")
            else:
                y = np.asarray(inst.gold)
                problems += (
                    f"instance {i}, gold, position {j}: label index {inst.gold[j]} out of range"
                    for j in np.flatnonzero(~((y >= 0) & (y < m)))
                )
    return problems
