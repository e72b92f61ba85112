"""Hypothesis strategies shared by the test modules."""

from hypothesis import strategies as st

from corpus import SCHEME
from crowdseq import CrowdDataset, CrowdInstance, LabelScheme


@st.composite
def crowd_datasets(draw, max_annotators: int = 3):
    """Small crowds over a BIO or a RAW scheme: one to ``max_annotators``
    annotators who may skip instances (an instance nobody labeled included),
    sentences of one to 40 tokens."""
    scheme = draw(st.sampled_from([LabelScheme.bio(("LOC",)), SCHEME, LabelScheme(("a", "b", "c"), "RAW")]))
    roster = tuple(f"r{k}" for k in range(draw(st.integers(1, max_annotators))))
    words = ["ann", "rome", "saw", "acme", "the"]
    instances = []
    for _ in range(draw(st.integers(1, 4))):
        n = draw(st.integers(1, 40))
        tokens = tuple(draw(st.lists(st.sampled_from(words), min_size=n, max_size=n)))
        labels = st.lists(st.integers(0, scheme.size - 1), min_size=n, max_size=n).map(tuple)
        present = draw(st.lists(st.sampled_from(roster), unique=True, max_size=len(roster)))
        instances.append(CrowdInstance(tokens, {a: draw(labels) for a in present}))
    if not any(inst.annotations for inst in instances):
        instances[0] = CrowdInstance(instances[0].tokens, {roster[0]: (0,) * len(instances[0].tokens)})
    return CrowdDataset(scheme, tuple(instances), roster)
