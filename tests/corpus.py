"""Deterministic synthetic gold corpora, and random annotator tables, for
the test suite.

Sentences are drawn from a tiny grammar over three entity types with both
single- and multi-token surface forms, plus a template that repeats the
same person twice so non-local (repeated-mention) structure is present.
"""

from __future__ import annotations

import numpy as np

from crowdseq import AnnotatorParams, CrowdDataset, CrowdInstance, LabelScheme

SCHEME = LabelScheme.bio(("LOC", "ORG", "PER"))

PEOPLE = [
    ("alice",),
    ("bob",),
    ("carol",),
    ("david", "jones"),
    ("emma", "stone"),
    ("frank",),
    ("grace", "hopper"),
    ("henry",),
]
ORGS = [
    ("acme",),
    ("globex", "corp"),
    ("initech",),
    ("umbrella", "group"),
    ("stark", "industries"),
]
LOCS = [
    ("paris",),
    ("rome",),
    ("new", "york"),
    ("oslo",),
    ("san", "marino"),
    ("cairo",),
]
VERBS = ["visited", "joined", "left", "toured", "praised", "sued"]
FILLER = ["yesterday", "today", "quietly", "again", "finally"]


def _entity(tokens: tuple[str, ...], etype: str) -> tuple[list[str], list[str]]:
    tags = [f"B-{etype}"] + [f"I-{etype}"] * (len(tokens) - 1)
    return list(tokens), tags


def _pick(rng, pool):
    return pool[int(rng.integers(len(pool)))]


def make_gold(n_sentences: int, seed: int) -> CrowdDataset:
    rng = np.random.default_rng([seed, 77])
    instances = []
    for _ in range(n_sentences):
        shape = int(rng.integers(4))
        toks: list[str] = []
        tags: list[str] = []

        def add(words, labels):
            toks.extend(words)
            tags.extend(labels)

        per = _pick(rng, PEOPLE)
        if shape == 0:
            add(*_entity(per, "PER"))
            add([_pick(rng, VERBS)], ["O"])
            add(*_entity(_pick(rng, LOCS), "LOC"))
            add([_pick(rng, FILLER)], ["O"])
        elif shape == 1:
            add(*_entity(per, "PER"))
            add([_pick(rng, VERBS)], ["O"])
            add(*_entity(_pick(rng, ORGS), "ORG"))
        elif shape == 2:
            add(*_entity(_pick(rng, ORGS), "ORG"))
            add([_pick(rng, VERBS)], ["O"])
            add(*_entity(per, "PER"))
            add([_pick(rng, FILLER)], ["O"])
        else:
            # the same person appears twice: repeated-mention structure
            add(*_entity(per, "PER"))
            add([_pick(rng, VERBS)], ["O"])
            add(*_entity(_pick(rng, LOCS), "LOC"))
            add([","], ["O"])
            add(*_entity(per, "PER"))
            add([_pick(rng, VERBS)], ["O"])
            add(*_entity(_pick(rng, ORGS), "ORG"))
        gold = tuple(SCHEME.index(t) for t in tags)
        instances.append(CrowdInstance(tuple(toks), {}, gold))
    return CrowdDataset(SCHEME, tuple(instances), ())


def split(ds: CrowdDataset, n_head: int) -> tuple[CrowdDataset, CrowdDataset]:
    """First n_head instances and the rest, as two datasets."""
    return (
        CrowdDataset(ds.scheme, ds.instances[:n_head], ds.roster),
        CrowdDataset(ds.scheme, ds.instances[n_head:], ds.roster),
    )


def dirichlet_tables(roster, n_labels: int, seed) -> AnnotatorParams:
    """Flat-Dirichlet rows for both reliability tables, deterministic in the
    seed: every row off the simplex's edges, so every factor is finite."""
    rng = np.random.default_rng(seed)
    k, m = len(roster), n_labels
    local = rng.dirichlet(np.ones(m), size=(k, m + 1, m))
    mention = rng.dirichlet(np.ones(m), size=(k, m + 1, m))
    return AnnotatorParams(tuple(roster), local, mention)
