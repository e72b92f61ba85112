from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from crowdseq import (
    EntitySpan,
    LabelScheme,
    PrfReport,
    entity_prf,
    entity_prf_by_type,
    extract_entities,
    token_accuracy,
)

SCHEME = LabelScheme.bio(("LOC", "PER"))


def tags(*names):
    return tuple(SCHEME.index(n) for n in names)


class TestExtractEntities:
    def test_simple_spans(self):
        spans = extract_entities(tags("B-PER", "I-PER", "O", "B-LOC"), SCHEME)
        assert spans == [EntitySpan(0, 2, "PER"), EntitySpan(3, 4, "LOC")]

    def test_adjacent_b_tags_are_separate_entities(self):
        spans = extract_entities(tags("B-PER", "B-PER"), SCHEME)
        assert spans == [EntitySpan(0, 1, "PER"), EntitySpan(1, 2, "PER")]

    def test_type_change_inside_closes_span(self):
        spans = extract_entities(tags("B-PER", "I-LOC"), SCHEME)
        # lenient reading: the stray I-LOC starts a new LOC span
        assert spans == [EntitySpan(0, 1, "PER"), EntitySpan(1, 2, "LOC")]

    def test_orphan_inside_starts_span_leniently(self):
        spans = extract_entities(tags("O", "I-PER", "I-PER"), SCHEME)
        assert spans == [EntitySpan(1, 3, "PER")]

    def test_strict_drops_orphan_inside(self):
        spans = extract_entities(tags("O", "I-PER", "I-PER"), SCHEME, strict=True)
        assert spans == []

    def test_strict_keeps_wellformed_spans(self):
        labels = tags("B-PER", "I-PER", "O", "I-LOC")
        assert extract_entities(labels, SCHEME, strict=True) == [EntitySpan(0, 2, "PER")]

    def test_empty_sequence(self):
        assert extract_entities((), SCHEME) == []

    def test_raw_scheme_rejected(self):
        raw = LabelScheme(("X", "Y"), "RAW")
        with pytest.raises(ValueError):
            extract_entities((0,), raw)

    @given(st.lists(st.sampled_from(range(SCHEME.size)), min_size=1, max_size=12))
    def test_lenient_spans_cover_every_non_o_token(self, labels):
        spans = extract_entities(tuple(labels), SCHEME)
        covered = set()
        for s in spans:
            assert s.start < s.end
            covered.update(range(s.start, s.end))
        non_o = {j for j, lab in enumerate(labels) if lab != 0}
        assert covered == non_o


class TestPrfReport:
    def test_from_counts(self):
        r = PrfReport.from_counts(tp=3, fp=1, fn=2)
        assert r.precision == 3 / 4
        assert r.recall == 3 / 5
        assert r.f1 == 2 * (3 / 4) * (3 / 5) / (3 / 4 + 3 / 5)

    def test_zero_denominators_give_zero(self):
        r = PrfReport.from_counts(tp=0, fp=0, fn=0)
        assert (r.precision, r.recall, r.f1) == (0.0, 0.0, 0.0)


# Ten hand-checked cases: (predicted tags, gold tags, tp, fp, fn).
# Counts verified by listing the exact spans on paper.
PRF_FIXTURE = [
    # 1. exact match
    (("B-PER", "I-PER", "O"), ("B-PER", "I-PER", "O"), 1, 0, 0),
    # 2. complete miss
    (("O", "O", "O"), ("B-PER", "I-PER", "O"), 0, 0, 1),
    # 3. spurious prediction
    (("B-LOC", "O", "O"), ("O", "O", "O"), 0, 1, 0),
    # 4. boundary error: predicted span too short
    (("B-PER", "O", "O"), ("B-PER", "I-PER", "O"), 0, 1, 1),
    # 5. boundary error: predicted span too long
    (("B-PER", "I-PER", "I-PER"), ("B-PER", "I-PER", "O"), 0, 1, 1),
    # 6. type error on same span
    (("B-LOC", "I-LOC", "O"), ("B-PER", "I-PER", "O"), 0, 1, 1),
    # 7. one of two found
    (("B-PER", "O", "O", "O"), ("B-PER", "O", "B-LOC", "O"), 1, 0, 1),
    # 8. split: one gold span predicted as two
    (("B-PER", "B-PER", "O"), ("B-PER", "I-PER", "O"), 0, 2, 1),
    # 9. merge: two gold spans predicted as one
    (("B-LOC", "I-LOC", "I-LOC"), ("B-LOC", "O", "B-LOC"), 0, 1, 2),
    # 10. mixed: exact PER, missed LOC, spurious LOC
    (
        ("B-PER", "O", "O", "B-LOC", "O"),
        ("B-PER", "O", "B-LOC", "O", "O"),
        1, 1, 1,
    ),
]


class TestEntityPrf:
    @pytest.mark.parametrize("pred,gold,tp,fp,fn", PRF_FIXTURE)
    def test_fixture_counts(self, pred, gold, tp, fp, fn):
        r = entity_prf([tags(*pred)], [tags(*gold)], SCHEME)
        assert (r.tp, r.fp, r.fn) == (tp, fp, fn)

    @pytest.mark.parametrize("pred,gold,tp,fp,fn", PRF_FIXTURE)
    def test_fixture_rates_are_exact_divisions(self, pred, gold, tp, fp, fn):
        r = entity_prf([tags(*pred)], [tags(*gold)], SCHEME)
        expect_p = tp / (tp + fp) if tp + fp else 0.0
        expect_r = tp / (tp + fn) if tp + fn else 0.0
        assert r.precision == expect_p
        assert r.recall == expect_r
        if tp:
            frac = 2 * Fraction(tp, tp + fp) * Fraction(tp, tp + fn) / (
                Fraction(tp, tp + fp) + Fraction(tp, tp + fn)
            )
            assert r.f1 == pytest.approx(float(frac), abs=0)

    def test_micro_pooling_across_sequences(self):
        pred = [tags("B-PER", "O"), tags("O", "B-LOC")]
        gold = [tags("B-PER", "O"), tags("B-LOC", "O")]
        r = entity_prf(pred, gold, SCHEME)
        assert (r.tp, r.fp, r.fn) == (1, 1, 1)

    def test_identical_inputs_score_one(self):
        seqs = [tags("B-PER", "I-PER", "O", "B-LOC")]
        r = entity_prf(seqs, seqs, SCHEME)
        assert (r.precision, r.recall, r.f1) == (1.0, 1.0, 1.0)

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            entity_prf([tags("O", "O")], [tags("O")], SCHEME)

    def test_count_mismatch_rejected(self):
        with pytest.raises(ValueError):
            entity_prf([tags("O")], [tags("O"), tags("O")], SCHEME)

    def test_strict_flag_changes_orphan_handling(self):
        pred = [tags("O", "I-PER")]
        gold = [tags("O", "B-PER")]
        lenient = entity_prf(pred, gold, SCHEME)
        strict = entity_prf(pred, gold, SCHEME, strict=True)
        assert lenient.tp == 1  # orphan I-PER read as a span at the same position
        assert strict.tp == 0 and strict.fn == 1

    @given(
        st.lists(
            st.lists(st.sampled_from(range(SCHEME.size)), min_size=1, max_size=8),
            min_size=1,
            max_size=4,
        )
    )
    def test_self_comparison_is_perfect(self, raw):
        seqs = [tuple(r) for r in raw]
        rep = entity_prf(seqs, seqs, SCHEME)
        assert rep.fp == 0 and rep.fn == 0
        total = sum(len(extract_entities(s, SCHEME)) for s in seqs)
        assert rep.tp == total


class TestByType:
    def test_counts_split_by_type(self):
        pred = [tags("B-PER", "O", "B-LOC")]
        gold = [tags("B-PER", "O", "B-PER")]
        by = entity_prf_by_type(pred, gold, SCHEME)
        assert by["PER"].tp == 1 and by["PER"].fn == 1
        assert by["LOC"].fp == 1 and by["LOC"].tp == 0

    def test_type_reports_pool_to_micro_counts(self):
        pred = [tags("B-PER", "B-LOC", "O"), tags("O", "I-LOC", "I-LOC")]
        gold = [tags("B-PER", "B-PER", "O"), tags("O", "B-LOC", "I-LOC")]
        micro = entity_prf(pred, gold, SCHEME)
        by = entity_prf_by_type(pred, gold, SCHEME)
        assert sum(r.tp for r in by.values()) == micro.tp
        assert sum(r.fp for r in by.values()) == micro.fp
        assert sum(r.fn for r in by.values()) == micro.fn

    @given(
        st.lists(
            st.lists(
                st.tuples(st.sampled_from(range(SCHEME.size)), st.sampled_from(range(SCHEME.size))),
                min_size=1,
                max_size=8,
            ),
            min_size=1,
            max_size=4,
        ),
        st.booleans(),
    )
    def test_micro_counts_are_the_type_sums_and_the_span_matches(self, raw, strict):
        pred = [tuple(p for p, _ in r) for r in raw]
        gold = [tuple(g for _, g in r) for r in raw]
        micro = entity_prf(pred, gold, SCHEME, strict)
        by = entity_prf_by_type(pred, gold, SCHEME, strict).values()
        sums = tuple(sum(getattr(r, c) for r in by) for c in ("tp", "fp", "fn"))
        assert (micro.tp, micro.fp, micro.fn) == sums
        tp = fp = fn = 0  # an independent exact-span matcher
        for p, g in zip(pred, gold):
            ps, gs = set(extract_entities(p, SCHEME, strict)), set(extract_entities(g, SCHEME, strict))
            tp, fp, fn = tp + len(ps & gs), fp + len(ps - gs), fn + len(gs - ps)
        assert sums == (tp, fp, fn)


class TestTokenAccuracy:
    def test_exact(self):
        assert token_accuracy([(0, 1)], [(0, 1)]) == 1.0

    def test_partial(self):
        assert token_accuracy([(0, 1, 2, 0)], [(0, 1, 0, 0)]) == 0.75

    def test_pooled_over_sequences(self):
        assert token_accuracy([(0,), (1, 1)], [(1,), (1, 1)]) == pytest.approx(2 / 3)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            token_accuracy([], [])
