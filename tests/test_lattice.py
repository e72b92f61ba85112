"""Candidate-set construction and valid-sequence enumeration."""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from crowdseq import (
    CrowdInstance,
    LabelScheme,
    ValidLattice,
    candidate_labels,
    candidate_sets,
    count_valid,
    enumerate_valid,
    label_consistency,
)
from oracles import brute_valid

SCHEME = LabelScheme.bio(("LOC", "ORG", "PER"))
L = {name: i for i, name in enumerate(SCHEME.labels)}


def inst(tokens, columns):
    """Instance whose annotator k labeled position j with columns[j][k]."""
    n = len(columns[0])
    assert all(len(c) == n for c in columns)
    annotations = {
        f"a{k}": tuple(L[columns[j][k]] for j in range(len(tokens)))
        for k in range(n)
    }
    return CrowdInstance(tuple(tokens), annotations)


class TestConsistency:
    def test_two_against_one(self):
        c = label_consistency(inst(("x",), [["O", "O", "B-PER"]]), 0)
        assert c.labels == (L["O"], L["B-PER"])
        assert c.counts == (2, 1)
        assert c.consistency == Fraction(2, 2) == 1

    def test_unanimous_three(self):
        c = label_consistency(inst(("x",), [["B-LOC"] * 3]), 0)
        assert c.labels == (L["B-LOC"],)
        assert c.counts == (3,)
        assert c.consistency == Fraction(3, 1) == 3

    def test_three_way_split(self):
        c = label_consistency(inst(("x",), [["O", "B-LOC", "B-ORG"]]), 0)
        assert c.consistency == Fraction(1, 3)
        assert c.top_labels == (L["O"], L["B-LOC"], L["B-ORG"])

    def test_top_labels_breaks_nothing_on_plurality(self):
        c = label_consistency(inst(("x",), [["O", "O", "B-PER", "B-PER", "B-LOC"]]), 0)
        assert c.consistency == Fraction(2, 3)
        assert c.top_labels == (L["O"], L["B-PER"])

    def test_no_annotations_is_an_error(self):
        bare = CrowdInstance(("x",), {})
        with pytest.raises(ValueError, match="no annotations at position 0"):
            label_consistency(bare, 0)

    def test_profile_covers_every_position(self):
        it = inst(("a", "b"), [["O", "O"], ["B-PER", "O"]])
        prof = [label_consistency(it, j) for j in range(len(it.tokens))]
        assert len(prof) == 2
        assert prof[0].consistency == 2
        assert prof[1].consistency == Fraction(1, 2)


class TestCandidateLabels:
    def entry(self, column):
        return label_consistency(inst(("x",), [column]), 0)

    def test_high_consistency_keeps_plurality(self):
        e = self.entry(["O", "O", "O", "B-PER", "B-LOC"])  # 3/3 = 1
        assert candidate_labels(e, SCHEME, hi=1.0, lo=0.1) == (L["O"],)

    def test_middle_band_keeps_used_labels(self):
        e = self.entry(["O", "O", "B-PER", "B-LOC"])  # 2/3
        got = candidate_labels(e, SCHEME, hi=1.0, lo=0.1)
        assert got == tuple(sorted((L["O"], L["B-PER"], L["B-LOC"])))

    def test_low_consistency_admits_everything(self):
        e = self.entry(["O", "B-PER", "B-LOC"])  # 1/3
        got = candidate_labels(e, SCHEME, hi=1.0, lo=0.5)
        assert got == tuple(range(SCHEME.size))

    def test_boundaries_are_inclusive_hi_exclusive_lo(self):
        e = self.entry(["O", "O", "B-PER", "B-LOC"])  # 2/3
        assert candidate_labels(e, SCHEME, hi=Fraction(2, 3), lo=0.1) == (L["O"],)
        got = candidate_labels(e, SCHEME, hi=1.0, lo=Fraction(2, 3))
        assert got == tuple(range(SCHEME.size))

    def test_threshold_validation(self):
        e = self.entry(["O"])
        with pytest.raises(ValueError, match="hi > lo >= 0"):
            candidate_labels(e, SCHEME, hi=0.5, lo=0.5)
        with pytest.raises(ValueError, match="hi > lo >= 0"):
            candidate_labels(e, SCHEME, hi=0.5, lo=-0.1)

    @given(
        counts=st.lists(st.integers(1, 4), min_size=1, max_size=4),
        hi1=st.fractions(Fraction(1, 10), Fraction(4, 1)),
        hi2=st.fractions(Fraction(1, 10), Fraction(4, 1)),
        lo1=st.fractions(Fraction(0, 1), Fraction(2, 1)),
        lo2=st.fractions(Fraction(0, 1), Fraction(2, 1)),
    )
    @settings(max_examples=200)
    def test_raising_either_threshold_grows_the_set(self, counts, hi1, hi2, lo1, lo2):
        column = []
        for lab, c in zip(SCHEME.labels, counts):
            column.extend([lab] * c)
        e = self.entry(column)
        lo_hi = sorted((hi1, hi2))
        lo_lo = sorted((lo1, lo2))
        if lo_hi[0] > lo_lo[1]:
            small = set(candidate_labels(e, SCHEME, lo_hi[0], lo_lo[1]))
            grown_hi = set(candidate_labels(e, SCHEME, lo_hi[1], lo_lo[1]))
            assert small <= grown_hi
        if lo_hi[0] > lo_lo[0]:
            base = set(candidate_labels(e, SCHEME, lo_hi[0], lo_lo[0]))
            if lo_hi[0] > lo_lo[1]:
                grown_lo = set(candidate_labels(e, SCHEME, lo_hi[0], lo_lo[1]))
                assert base <= grown_lo


class TestCandidateSets:
    def test_normalization_divides_by_roster_size(self):
        it = inst(("x",), [["O", "O", "O", "O"]])  # consistency 4
        assert candidate_sets(it, SCHEME, hi=0.5, lo=0.1, normalize_by=4) == ((L["O"],),)
        # 4/8 = 0.5 >= hi still picks the plurality; 4/16 = 0.25 falls through
        assert candidate_sets(it, SCHEME, hi=0.5, lo=0.1, normalize_by=8) == ((L["O"],),)
        assert candidate_sets(it, SCHEME, hi=0.5, lo=0.1, normalize_by=16) == ((L["O"],),)

    def test_unlabeled_instance_admits_every_label(self):
        bare = CrowdInstance(("a", "b"), {})
        full = tuple(range(SCHEME.size))
        assert candidate_sets(bare, SCHEME, hi=2.5, lo=0.5) == (full, full)


class TestCountValid:
    def test_single_position(self):
        assert count_valid(((L["O"], L["B-PER"]),), SCHEME) == 2
        # I- tags cannot start a sequence
        assert count_valid(((L["I-PER"],),), SCHEME) == 0

    def test_two_positions_by_hand(self):
        cand = ((L["B-PER"],), (L["I-PER"], L["O"], L["I-LOC"]))
        assert count_valid(cand, SCHEME) == 2  # I-PER and O; I-LOC is unreachable

    @pytest.mark.parametrize("seed", range(6))
    def test_matches_exhaustive_enumeration(self, seed):
        rng = np.random.default_rng([seed, 31])
        n = int(rng.integers(2, 6))
        cand = tuple(
            tuple(sorted(rng.choice(SCHEME.size, size=rng.integers(1, 4), replace=False)))
            for _ in range(n)
        )
        assert count_valid(cand, SCHEME) == len(brute_valid(cand, SCHEME))


class TestEnumerateValid:
    def make_instance(self, n):
        return CrowdInstance(tuple(f"t{j}" for j in range(n)), {"a0": (0,) * n})

    @pytest.mark.parametrize("seed", range(8))
    def test_matches_exhaustive_enumeration(self, seed):
        rng = np.random.default_rng([seed, 32])
        n = int(rng.integers(2, 6))
        cand = tuple(
            tuple(sorted(rng.choice(SCHEME.size, size=rng.integers(1, 4), replace=False)))
            for _ in range(n)
        )
        if count_valid(cand, SCHEME) == 0:
            return
        lat = enumerate_valid(self.make_instance(n), cand, SCHEME)
        assert not lat.capped
        assert set(lat.sequences) == set(brute_valid(cand, SCHEME))
        assert lat.n_valid == len(lat.sequences)

    def test_sequences_come_out_in_label_index_order(self):
        cand = ((L["O"], L["B-PER"]), (L["O"], L["B-LOC"]))
        lat = enumerate_valid(self.make_instance(2), cand, SCHEME)
        assert lat.sequences == tuple(sorted(lat.sequences))

    def test_states_keep_only_labels_on_full_paths(self):
        # I-LOC at position 1 is unreachable from B-PER
        cand = ((L["B-PER"],), (L["I-PER"], L["I-LOC"]))
        lat = enumerate_valid(self.make_instance(2), cand, SCHEME)
        assert lat.states == ((L["B-PER"],), (L["I-PER"],))

    def test_blocked_position_is_widened_to_the_full_set(self):
        cand = ((L["B-PER"],), (L["I-LOC"],))
        lat = enumerate_valid(self.make_instance(2), cand, SCHEME)
        assert lat.widened == (1,)
        assert lat.final_candidates == ((L["B-PER"],), tuple(range(SCHEME.size)))
        assert set(lat.sequences) == set(brute_valid(lat.final_candidates, SCHEME))
        assert lat.n_unpruned == SCHEME.size

    def test_initially_blocked_start_is_widened(self):
        cand = ((L["I-ORG"],), (L["O"],))
        lat = enumerate_valid(self.make_instance(2), cand, SCHEME)
        assert lat.widened == (0,)
        assert all(seq[1] == L["O"] for seq in lat.sequences)

    def test_a_capped_listing_is_the_lexicographic_prefix(self):
        columns = [
            ["O", "O", "B-PER"],
            ["B-LOC", "B-ORG", "B-ORG"],
            ["O", "I-ORG", "B-PER"],
        ]
        it = inst(("a", "b", "c"), columns)
        cand = candidate_sets(it, SCHEME, hi=2.5, lo=0.0)
        full = enumerate_valid(it, cand, SCHEME)
        assert not full.capped
        assert full.sequences == tuple(sorted(brute_valid(cand, SCHEME)))
        for cap in (1, 2, 5, len(full.sequences) - 1):
            capped = enumerate_valid(it, cand, SCHEME, cap=cap)
            assert capped.capped
            assert capped.n_valid == full.n_valid
            assert capped.sequences == full.sequences[:cap]

    def test_cap_equal_to_count_is_not_capped(self):
        cand = ((L["O"], L["B-PER"]), (L["O"], L["B-LOC"]))
        n = count_valid(cand, SCHEME)
        lat = enumerate_valid(self.make_instance(2), cand, SCHEME, cap=n)
        assert not lat.capped
        assert len(lat.sequences) == n

    def test_long_unanimous_sentence(self):
        # longer than the interpreter's recursion limit, listed capped and uncapped
        n = 1500
        it = self.make_instance(n)
        assert enumerate_valid(it, ((L["O"],),) * n, SCHEME).sequences == ((L["O"],) * n,)
        cand = ((L["O"],),) * (n - 1) + ((L["O"], L["B-PER"]),)
        capped = enumerate_valid(it, cand, SCHEME, cap=1)
        assert capped.capped
        assert capped.sequences == ((L["O"],) * n,)

    def test_a_40_token_all_label_lattice_is_counted_without_listing(self):
        n = 40
        full = tuple(range(SCHEME.size))
        lat = enumerate_valid(self.make_instance(n), (full,) * n, SCHEME)
        # transfer matrix in exact integers: paths = init^T A^(n-1) 1
        a = SCHEME.allowed_transitions.astype(object)
        paths = SCHEME.initial_allowed.astype(object) @ np.linalg.matrix_power(a, n - 1)
        assert lat.n_valid == sum(paths) > 10**27
        assert lat.capped
        assert "sequences" not in vars(lat)
        assert lat.states[0] == tuple(s for s in full if SCHEME.initial_allowed[s])
        assert lat.states[1:] == (full,) * (n - 1)

    def test_argument_validation(self):
        it = self.make_instance(2)
        with pytest.raises(ValueError, match="cap"):
            enumerate_valid(it, ((0,), (0,)), SCHEME, cap=0)
        with pytest.raises(ValueError, match="token sequence"):
            enumerate_valid(it, ((0,),), SCHEME)
        with pytest.raises(ValueError, match="empty candidate set"):
            enumerate_valid(it, ((0,), ()), SCHEME)


class TestWorkedExample:
    """An eight-token instance with five annotators in partial agreement."""

    COLUMNS = [
        ["O", "O", "O", "O", "O"],
        ["B-PER", "B-PER", "B-PER", "O", "B-ORG"],
        ["I-LOC", "I-LOC", "I-ORG", "I-ORG", "I-PER"],
        ["I-ORG", "I-ORG", "I-ORG", "O", "I-PER"],
        ["B-ORG", "B-ORG", "B-ORG", "O", "B-LOC"],
        ["O", "O", "I-ORG", "I-ORG", "B-ORG"],
        ["I-PER", "I-PER", "I-PER", "I-ORG", "O"],
        ["O", "O", "O", "O", "O"],
    ]

    def build(self):
        it = inst(tuple(f"t{j}" for j in range(8)), self.COLUMNS)
        cand = candidate_sets(it, SCHEME, hi=2.5, lo=0.5)
        return it, cand

    def test_pruning_removes_most_of_the_product(self):
        it, cand = self.build()
        sizes = tuple(len(c) for c in cand)
        assert sizes == (1, 3, 3, 3, 3, 3, 3, 1)
        lat = enumerate_valid(it, cand, SCHEME)
        assert lat.n_unpruned == 729
        assert lat.n_valid == 44
        assert not lat.capped
        assert lat.widened == ()
        assert set(lat.sequences) == set(brute_valid(cand, SCHEME))

    def test_boundary_inconsistent_products_are_pruned(self):
        it, cand = self.build()
        lat = enumerate_valid(it, cand, SCHEME)
        bad = (
            ("O", "B-PER", "I-LOC", "I-ORG", "B-ORG", "O", "I-PER", "O"),
            ("O", "B-PER", "I-ORG", "I-ORG", "B-ORG", "I-ORG", "I-PER", "O"),
        )
        for names in bad:
            seq = tuple(L[x] for x in names)
            assert all(seq[j] in cand[j] for j in range(8))  # inside the raw product
            assert seq not in lat.sequences


def test_valid_lattice_unpruned_product():
    lat = ValidLattice(
        final_candidates=((0, 1, 2), (0, 1)),
        states=((0,), (0,)),
        n_valid=1,
        widened=(0,),
        cap=1,
        scheme=SCHEME,
    )
    assert lat.n_unpruned == 6
    assert not lat.capped
    assert lat.sequences == ((0, 0),)
