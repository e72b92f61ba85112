"""Synthetic crowd generation by entity-level corruption of gold tags.

Each annotator draws a personal precision target around the configured mean.
An entity-survival probability is then solved for in closed form so that
the expected exact-match entity precision of the produced annotation hits
that target.  A corrupted entity undergoes one weighted operation: retyping, a
one-token boundary shift, deletion, or deletion plus a spurious single-token
entity over an outside token.  Every random draw comes from a generator
keyed by (seed, annotator, instance, entity), so outputs are reproducible
bit-for-bit and raising the target precision never corrupts an entity that
would have survived at a lower target.

Outputs are always valid BIO sequences.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields

import numpy as np

from .scoring import EntitySpan, PrfReport, entity_prf, extract_entities
from .types import CrowdDataset, CrowdInstance

PRECISION_FLOOR = 0.05

OPS = ("type-swap", "boundary-shift", "entity-drop", "spurious")


@dataclass(frozen=True)
class CorruptionMix:
    """How a corrupted entity is rewritten; weights must sum to one."""

    type_swap: float = 0.4
    boundary_shift: float = 0.3
    entity_drop: float = 0.2
    spurious: float = 0.1

    def __post_init__(self):
        w = self.weights()
        if not np.isfinite(w).all():  # NaN passes both checks below
            bad = ", ".join(f"{f.name}={v}" for f, v in zip(fields(self), w) if not np.isfinite(v))
            raise ValueError(f"mix weights must be finite, got {bad}")
        if (w < 0).any():
            raise ValueError("mix weights must be nonnegative")
        if abs(float(w.sum()) - 1.0) > 1e-9:
            raise ValueError("mix weights must sum to 1")

    def weights(self) -> np.ndarray:
        return np.array(
            [self.type_swap, self.boundary_shift, self.entity_drop, self.spurious]
        )


@dataclass(frozen=True)
class SimConfig:
    n_annotators: int = 5
    target_precision: float = 0.7
    precision_spread: float = 0.1
    mix: CorruptionMix = field(default_factory=CorruptionMix)
    seed: int = 0

    def __post_init__(self):
        if self.n_annotators < 1:
            raise ValueError("need at least one annotator")
        if not 0 < self.target_precision <= 1:
            raise ValueError("target precision must lie in (0, 1]")
        if not 0 <= self.precision_spread < math.inf:
            raise ValueError(f"precision_spread must be finite and nonnegative, got {self.precision_spread}")


@dataclass(frozen=True)
class GoldStats:
    n_entities: int
    n_entity_types: int
    n_outside_tokens: int


def corpus_stats(ds: CrowdDataset) -> GoldStats:
    n_entities = 0
    n_outside = 0
    o_idx = ds.scheme.index("O")
    for inst in ds.instances:
        if inst.gold is None:
            raise ValueError("gold labels required on every instance")
        n_entities += len(extract_entities(inst.gold, ds.scheme))
        n_outside += sum(1 for lab in inst.gold if lab == o_idx)
    return GoldStats(n_entities, len(ds.scheme.entity_types), n_outside)


def effective_mix(mix: CorruptionMix, stats: GoldStats) -> np.ndarray:
    """Mix weights with corpus-infeasible operations zeroed and renormalized.

    Retyping needs a second entity type and a spurious entity needs an
    outside token somewhere; when nothing at all is feasible every
    corruption becomes a drop.
    """
    w = mix.weights().copy()
    if stats.n_entity_types < 2:
        w[0] = 0.0
    if stats.n_outside_tokens == 0:
        w[3] = 0.0
    total = float(w.sum())
    if total == 0.0:
        return np.array([0.0, 0.0, 1.0, 0.0])
    return w / total


def expected_precision(q: float, weights: np.ndarray) -> float:
    """Expected exact-match entity precision at survival probability q.

    Retyping, shifting, and spurious insertion each leave one wrong predicted
    entity; a drop leaves none.  Precision is the surviving mass over
    surviving plus wrong mass.
    """
    fp_share = float(weights[0] + weights[1] + weights[3])
    if fp_share == 0.0:
        return 1.0
    denom = q + (1.0 - q) * fp_share
    return q / denom if denom > 0 else 0.0


def calibrate_q(target_precision: float, mix: CorruptionMix, stats: GoldStats) -> float:
    """Survival probability whose expected precision hits the target.

    Inverts ``expected_precision``: p = q / (q + (1 - q) f) gives
    q = p f / (1 - p + p f), with f the mix's false-positive share.  Raises
    when the mix cannot reach the target (a pure-drop mix achieves
    precision 1 at every q).
    """
    if not 0 < target_precision <= 1:
        raise ValueError("target precision must lie in (0, 1]")
    if target_precision == 1.0:
        return 1.0
    w = effective_mix(mix, stats)
    f = float(w[0] + w[1] + w[3])
    if f == 0.0:
        raise ValueError(
            "every corruption is a drop, so precision is 1 at any survival "
            "probability; the only feasible target is 1.0"
        )
    return target_precision * f / (1.0 - target_precision + target_precision * f)


def _feasible_shifts(e: int, spans: list[EntitySpan], length: int) -> list[EntitySpan]:
    """The one-position boundary shifts of ``spans[e]`` that stay in the
    sentence, keep a token and overlap no other span.  ``extract_entities``
    gives sorted, disjoint spans, so only the spans either side can block
    one."""
    span, near = spans[e], spans[max(e - 1, 0) : e] + spans[e + 1 : e + 2]
    out = []
    for ds_, de in ((-1, 0), (1, 0), (0, -1), (0, 1)):
        a, b = span.start + ds_, span.end + de
        if a < 0 or b > length or a >= b:
            continue
        if any(a < s.end and s.start < b for s in near):
            continue
        out.append(EntitySpan(a, b, span.entity_type))
    return out


def _corrupt_annotation(inst, spans, o_positions, q, weights, types, seed_parts, scheme):
    placed: list[EntitySpan] = []
    for e, span in enumerate(spans):
        rng = np.random.default_rng([*seed_parts, e])
        if rng.random() <= q:
            placed.append(span)
            continue
        op = OPS[int(rng.choice(4, p=weights))]
        if op == "boundary-shift":
            options = _feasible_shifts(e, spans, len(inst.tokens))
            if options:
                placed.append(options[int(rng.integers(len(options)))])
                continue
            # a shift equal in effect to a retype keeps the calibration exact
            op = "type-swap" if len(types) > 1 else "entity-drop"
        if op == "type-swap":
            others = [t for t in types if t != span.entity_type]
            if others:
                placed.append(
                    EntitySpan(span.start, span.end, others[int(rng.integers(len(others)))])
                )
                continue
            op = "entity-drop"
        if op == "spurious" and o_positions:
            pos = int(o_positions[int(rng.integers(len(o_positions)))])
            ty = types[int(rng.integers(len(types)))]
            placed.append(EntitySpan(pos, pos + 1, ty))
        # entity-drop places nothing

    labels = [scheme.index("O")] * len(inst.tokens)
    occupied = [False] * len(inst.tokens)
    for span in sorted(placed):
        if any(occupied[span.start : span.end]):
            continue  # rare collision between shifted or spurious spans
        for t in range(span.start, span.end):
            occupied[t] = True
        labels[span.start] = scheme.index(f"B-{span.entity_type}")
        for t in range(span.start + 1, span.end):
            labels[t] = scheme.index(f"I-{span.entity_type}")
    return tuple(labels)


def simulate(gold_ds: CrowdDataset, cfg: SimConfig) -> CrowdDataset:
    """Crowd annotations for a gold corpus; a pure function of (corpus, config)."""
    scheme = gold_ds.scheme
    if scheme.kind != "BIO":
        raise ValueError("simulation requires a BIO scheme")
    stats = corpus_stats(gold_ds)
    weights = effective_mix(cfg.mix, stats)
    types = scheme.entity_types
    o_idx = scheme.index("O")
    roster = tuple(f"ann{k + 1}" for k in range(cfg.n_annotators))

    survival = []
    for k in range(cfg.n_annotators):
        rng = np.random.default_rng([cfg.seed, k])
        p_k = float(np.clip(rng.normal(cfg.target_precision, cfg.precision_spread), PRECISION_FLOOR, 1.0))
        survival.append(calibrate_q(p_k, cfg.mix, stats))

    per_instance = []
    for inst in gold_ds.instances:
        spans = extract_entities(inst.gold, scheme)
        o_positions = [j for j, lab in enumerate(inst.gold) if lab == o_idx]
        per_instance.append((spans, o_positions))

    instances = []
    for i, inst in enumerate(gold_ds.instances):
        spans, o_positions = per_instance[i]
        annotations = {}
        for k, ann_id in enumerate(roster):
            annotations[ann_id] = _corrupt_annotation(
                inst, spans, o_positions, survival[k], weights, types, (cfg.seed, k, i), scheme
            )
        instances.append(CrowdInstance(inst.tokens, annotations, inst.gold))
    return CrowdDataset(scheme, tuple(instances), roster)


def annotator_precision(ds: CrowdDataset) -> dict[str, PrfReport]:
    """Exact-match entity scores of each annotator's labels against gold."""
    out = {}
    for ann_id in ds.roster:
        pred = []
        gold = []
        for inst in ds.instances:
            labels = inst.annotations.get(ann_id)
            if labels is None:
                continue
            if inst.gold is None:
                raise ValueError("gold labels required on every instance")
            pred.append(labels)
            gold.append(inst.gold)
        out[ann_id] = entity_prf(pred, gold, ds.scheme)
    return out
