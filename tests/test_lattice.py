"""Candidate-set construction and valid-sequence enumeration."""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from crowdseq import (
    CrowdInstance,
    EmConfig,
    LabelScheme,
    ValidLattice,
    candidate_sets,
    count_valid,
    enumerate_valid,
)
from oracles import brute_valid, loop_candidate_sets, loop_lattice
from strategies import crowd_datasets

SCHEME = LabelScheme.bio(("LOC", "ORG", "PER"))
L = {name: i for i, name in enumerate(SCHEME.labels)}
FULL = tuple(range(SCHEME.size))


def inst(tokens, columns):
    """Instance whose annotator k labeled position j with columns[j][k]."""
    n = len(columns[0])
    assert all(len(c) == n for c in columns)
    annotations = {
        f"a{k}": tuple(L[columns[j][k]] for j in range(len(tokens)))
        for k in range(n)
    }
    return CrowdInstance(tuple(tokens), annotations)


def one(column, hi, lo, normalize_by=None):
    """The candidate set of a one-position instance labeled ``column``."""
    return candidate_sets(inst(("x",), [column]), SCHEME, hi, lo, normalize_by)[0]


def ids(*names):
    """The named labels' indices, ascending, as a candidate set lists them."""
    return tuple(sorted(L[n] for n in names))


class TestConsistency:
    """A position's consistency, its plurality count over its number of
    distinct labels, seen through the thresholds: ``hi`` is inclusive and
    ``lo`` exclusive, so at hi = c the plurality labels are kept, just above
    c the labels used, and at lo = c every label."""

    EPS = Fraction(1, 10**6)

    @pytest.mark.parametrize(
        "column, c, top, used",
        [
            (["O", "O", "B-PER"], Fraction(2, 2), ids("O"), ids("O", "B-PER")),
            (["B-LOC"] * 3, Fraction(3, 1), ids("B-LOC"), ids("B-LOC")),
            (["O", "B-LOC", "B-ORG"], Fraction(1, 3), ids("O", "B-LOC", "B-ORG"), ids("O", "B-LOC", "B-ORG")),
            # a tie keeps every plurality label
            (["O", "O", "B-PER", "B-PER", "B-LOC"], Fraction(2, 3), ids("O", "B-PER"), ids("O", "B-PER", "B-LOC")),
        ],
    )
    def test_consistency_is_the_plurality_over_the_labels_used(self, column, c, top, used):
        assert one(column, hi=c, lo=0) == top
        assert one(column, hi=c + self.EPS, lo=c - self.EPS) == used
        assert one(column, hi=c + self.EPS, lo=c) == FULL

    def test_every_position_gets_its_own_set(self):
        it = inst(("a", "b"), [["O", "O"], ["B-PER", "O"]])  # consistency 2, then 1/2
        assert candidate_sets(it, SCHEME, hi=2, lo=Fraction(1, 4)) == (ids("O"), ids("O", "B-PER"))
        assert candidate_sets(it, SCHEME, hi=2, lo=Fraction(1, 2)) == (ids("O"), FULL)
        assert candidate_sets(it, SCHEME, hi=Fraction(1, 2), lo=0) == (ids("O"), ids("O", "B-PER"))


class TestCandidateSets:
    def test_high_consistency_keeps_plurality(self):
        assert one(["O", "O", "O", "B-PER", "B-LOC"], hi=1.0, lo=0.1) == ids("O")  # 3/3 = 1

    def test_middle_band_keeps_used_labels(self):
        assert one(["O", "O", "B-PER", "B-LOC"], hi=1.0, lo=0.1) == ids("O", "B-LOC", "B-PER")  # 2/3

    def test_low_consistency_admits_everything(self):
        assert one(["O", "B-PER", "B-LOC"], hi=1.0, lo=0.5) == FULL  # 1/3

    def test_boundaries_are_inclusive_hi_exclusive_lo(self):
        column = ["O", "O", "B-PER", "B-LOC"]  # 2/3
        assert one(column, hi=Fraction(2, 3), lo=0.1) == ids("O")
        assert one(column, hi=1.0, lo=Fraction(2, 3)) == FULL
        # the float nearest 2/3 lies below it
        assert one(column, hi=2 / 3, lo=0.1) == ids("O")
        assert one(column, hi=1.0, lo=2 / 3) == ids("O", "B-LOC", "B-PER")

    def test_an_infinite_hi_keeps_the_labels_used(self):
        assert one(["B-LOC"] * 5, hi=float("inf"), lo=0.5) == ids("B-LOC")
        assert one(["O", "O", "B-PER"], hi=float("inf"), lo=0.5) == ids("O", "B-PER")
        assert one(["O", "B-PER"], hi=float("inf"), lo=0.5) == FULL

    def test_threshold_validation(self):
        with pytest.raises(ValueError, match="hi > lo >= 0"):
            one(["O"], hi=0.5, lo=0.5)
        with pytest.raises(ValueError, match="hi > lo >= 0"):
            one(["O"], hi=0.5, lo=-0.1)
        with pytest.raises(ValueError, match="hi > lo >= 0"):
            one(["O"], hi=float("nan"), lo=0.1)
        # nobody labeled the instance: every label, and no threshold is read
        bare = CrowdInstance(("a",), {})
        assert candidate_sets(bare, SCHEME, hi=0.5, lo=0.5) == (FULL,)

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
        lo_hi = sorted((hi1, hi2))
        lo_lo = sorted((lo1, lo2))
        if lo_hi[0] > lo_lo[1]:
            small = set(one(column, lo_hi[0], lo_lo[1]))
            grown_hi = set(one(column, lo_hi[1], lo_lo[1]))
            assert small <= grown_hi
        if lo_hi[0] > lo_lo[0]:
            base = set(one(column, lo_hi[0], lo_lo[0]))
            if lo_hi[0] > lo_lo[1]:
                grown_lo = set(one(column, lo_hi[0], lo_lo[1]))
                assert base <= grown_lo

    @pytest.mark.parametrize(
        "normalize_by, want",
        [(None, ids("O")), (3, ids("O")), (4, ids("O", "B-PER")), (15, FULL)],
    )
    def test_normalization_divides_by_roster_size(self, normalize_by, want):
        # consistency 3/2; over 3 it is 1/2 >= hi, over 4 it is 3/8, over 15 it is 1/10 <= lo
        assert one(["O", "O", "O", "B-PER"], hi=0.5, lo=Fraction(1, 10), normalize_by=normalize_by) == want

    def test_unlabeled_instance_admits_every_label(self):
        bare = CrowdInstance(("a", "b"), {})
        assert candidate_sets(bare, SCHEME, hi=2.5, lo=0.5) == (FULL, FULL)


def _outcome(fn, *args, **kwargs):
    try:
        return fn(*args, **kwargs)
    except ValueError as e:
        return f"ValueError: {e}"


# ratios that votes produce, so a position's consistency lands on a threshold
_VOTE_RATIOS = [Fraction(1, 3), Fraction(1, 2), Fraction(2, 3), Fraction(1), Fraction(3, 2), Fraction(2)]
_THRESHOLDS = st.one_of(
    st.none(),
    st.floats(0, 6),
    # every float, subnormal to huge, which candidate_sets compares as the
    # ratio of its integer pair
    st.floats(min_value=0, allow_nan=False),
    st.fractions(0, 6),
    st.just(float("inf")),
    st.sampled_from(_VOTE_RATIOS),
    # the floats on either side of a vote ratio
    st.builds(math.nextafter, st.sampled_from(_VOTE_RATIOS).map(float), st.sampled_from([0.0, math.inf])),
)


class TestAgainstTheLoopOracle:
    @given(
        ds=crowd_datasets(max_annotators=6),
        hi=_THRESHOLDS,
        lo=_THRESHOLDS,
        normalize=st.booleans(),
    )
    @settings(max_examples=300, deadline=None)
    def test_candidate_sets_and_lattices_equal_the_per_position_loop(self, ds, hi, lo, normalize):
        k = len(ds.roster)
        default_hi, default_lo = EmConfig(normalize_consistency=normalize).thresholds(k)
        scale = k if normalize else 1  # a drawn ratio lands on a normalized consistency
        hi = default_hi if hi is None else hi / scale if isinstance(hi, Fraction) else hi
        lo = default_lo if lo is None else lo / scale if isinstance(lo, Fraction) else lo
        norm = k if normalize else None
        for it in ds.instances:
            want = _outcome(loop_candidate_sets, it, ds.scheme, hi, lo, norm)
            got = _outcome(candidate_sets, it, ds.scheme, hi, lo, norm)
            assert got == want
            if isinstance(want, str):
                continue
            lat = _outcome(enumerate_valid, it, want, ds.scheme)
            ref = _outcome(loop_lattice, want, ds.scheme)
            if isinstance(ref, str):
                assert lat == ref
            else:
                assert (lat.final_candidates, lat.states, lat.n_valid, lat.widened) == ref


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
        assert "n_valid" not in vars(lat)  # counted when read
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

    def test_an_empty_sequence_is_a_value_error(self):
        with pytest.raises(ValueError, match="^empty sequence$"):
            enumerate_valid(CrowdInstance((), {"a0": ()}), (), SCHEME)
        with pytest.raises(ValueError, match="^empty sequence$"):
            count_valid((), SCHEME)


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


def test_valid_lattice_unpruned_product_and_lazy_count():
    lat = ValidLattice(
        final_candidates=((L["O"], L["I-LOC"], L["I-PER"]), (L["O"], L["B-LOC"])),
        states=((L["O"],), (L["O"], L["B-LOC"])),
        widened=(0,),
        cap=2,
        scheme=SCHEME,
    )
    assert lat.n_unpruned == 6
    assert "n_valid" not in vars(lat)
    assert lat.n_valid == 2
    assert not lat.capped
    assert lat.sequences == ((L["O"], L["O"]), (L["O"], L["B-LOC"]))
