"""Synthetic crowd generation and its precision calibration."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from corpus import SCHEME, make_gold
from crowdseq import (
    CorruptionMix,
    CrowdDataset,
    CrowdInstance,
    GoldStats,
    LabelScheme,
    SimConfig,
    annotator_precision,
    calibrate_q,
    corpus_stats,
    effective_mix,
    expected_precision,
    extract_entities,
    simulate,
)
from crowdseq.simulate import _feasible_shifts
from oracles import loop_feasible_shifts


class TestConfigs:
    def test_mix_must_be_a_distribution(self):
        with pytest.raises(ValueError, match="sum to 1"):
            CorruptionMix(0.5, 0.5, 0.5, 0.5)
        with pytest.raises(ValueError, match="nonnegative"):
            CorruptionMix(-0.2, 0.5, 0.5, 0.2)
        with pytest.raises(ValueError, match=r"^mix weights must be finite, got type_swap=nan$"):
            CorruptionMix(float("nan"), 0.3, 0.2, 0.1)
        with pytest.raises(ValueError, match=r"^mix weights must be finite, got boundary_shift=inf, spurious=nan$"):
            CorruptionMix(0.4, float("inf"), 0.2, float("nan"))
        assert CorruptionMix().weights() == pytest.approx([0.4, 0.3, 0.2, 0.1])

    def test_sim_config_validation(self):
        with pytest.raises(ValueError, match="annotator"):
            SimConfig(n_annotators=0)
        with pytest.raises(ValueError, match="precision"):
            SimConfig(target_precision=0.0)
        with pytest.raises(ValueError, match="precision"):
            SimConfig(target_precision=1.2)
        for spread in (-0.1, float("nan"), float("inf"), -float("inf")):
            with pytest.raises(ValueError, match="^precision_spread must be finite and nonnegative"):
                SimConfig(precision_spread=spread)


class TestStats:
    def test_counts_entities_and_outside_tokens(self):
        L = {name: i for i, name in enumerate(SCHEME.labels)}
        insts = (
            CrowdInstance(("a", "b", "c"), {}, (L["B-PER"], L["I-PER"], L["O"])),
            CrowdInstance(("d", "e"), {}, (L["B-LOC"], L["O"])),
        )
        ds = CrowdDataset(SCHEME, insts, ())
        stats = corpus_stats(ds)
        assert stats == GoldStats(n_entities=2, n_entity_types=3, n_outside_tokens=2)

    def test_requires_gold_everywhere(self):
        ds = CrowdDataset(SCHEME, (CrowdInstance(("a",), {}),), ())
        with pytest.raises(ValueError, match="gold labels required"):
            corpus_stats(ds)


class TestEffectiveMix:
    def test_single_type_disables_retyping(self):
        stats = GoldStats(10, 1, 5)
        w = effective_mix(CorruptionMix(), stats)
        assert w[0] == 0.0
        assert w.sum() == pytest.approx(1.0)
        np.testing.assert_allclose(w[1:], np.array([0.3, 0.2, 0.1]) / 0.6)

    def test_no_outside_tokens_disable_spurious(self):
        stats = GoldStats(10, 3, 0)
        w = effective_mix(CorruptionMix(), stats)
        assert w[3] == 0.0
        assert w.sum() == pytest.approx(1.0)

    def test_everything_infeasible_becomes_a_drop(self):
        stats = GoldStats(10, 1, 0)
        w = effective_mix(CorruptionMix(0.6, 0.0, 0.0, 0.4), stats)
        np.testing.assert_allclose(w, [0.0, 0.0, 1.0, 0.0])


class TestCalibration:
    def test_full_survival_is_perfectly_precise(self):
        assert expected_precision(1.0, np.array([0.4, 0.3, 0.2, 0.1])) == 1.0

    def test_pure_drop_is_precise_at_any_survival(self):
        w = np.array([0.0, 0.0, 1.0, 0.0])
        for q in (0.0, 0.3, 0.9):
            assert expected_precision(q, w) == 1.0

    def test_hand_value(self):
        w = np.array([0.4, 0.3, 0.1, 0.1])  # fp share 0.8
        assert expected_precision(0.5, w) == pytest.approx(5 / 9)

    def test_target_one_needs_no_search(self):
        stats = GoldStats(10, 3, 5)
        assert calibrate_q(1.0, CorruptionMix(), stats) == 1.0

    def test_pure_drop_cannot_reach_lower_targets(self):
        stats = GoldStats(10, 1, 0)
        with pytest.raises(ValueError, match="only feasible target is 1.0"):
            calibrate_q(0.8, CorruptionMix(0.0, 0.0, 1.0, 0.0), stats)

    @pytest.mark.parametrize("target", [0.3, 0.55, 0.9, 0.99])
    def test_round_trip_hits_the_target(self, target):
        stats = GoldStats(50, 3, 40)
        q = calibrate_q(target, CorruptionMix(), stats)
        w = effective_mix(CorruptionMix(), stats)
        assert expected_precision(q, w) == pytest.approx(target, abs=1e-12)
        assert 0.0 <= q <= 1.0

    def test_target_validation(self):
        stats = GoldStats(10, 3, 5)
        with pytest.raises(ValueError, match="target precision"):
            calibrate_q(0.0, CorruptionMix(), stats)


class TestSimulate:
    def test_perfect_annotators_copy_the_gold(self):
        gold = make_gold(15, seed=2)
        crowd = simulate(gold, SimConfig(n_annotators=3, target_precision=1.0, precision_spread=0.0, seed=2))
        assert crowd.roster == ("ann1", "ann2", "ann3")
        for g, c in zip(gold.instances, crowd.instances):
            assert c.gold == g.gold
            for labels in c.annotations.values():
                assert labels == g.gold

    def test_outputs_respect_the_transition_constraints(self):
        gold = make_gold(25, seed=6)
        crowd = simulate(gold, SimConfig(n_annotators=4, target_precision=0.5, precision_spread=0.15, seed=6))
        allowed = SCHEME.allowed_transitions
        init = SCHEME.initial_allowed
        for inst in crowd.instances:
            for labels in inst.annotations.values():
                assert init[labels[0]]
                for a, b in zip(labels, labels[1:]):
                    assert allowed[a, b]

    def test_pure_function_of_corpus_and_config(self):
        gold = make_gold(10, seed=3)
        cfg = SimConfig(n_annotators=3, target_precision=0.6, precision_spread=0.1, seed=3)
        a = simulate(gold, cfg)
        b = simulate(gold, cfg)
        for ia, ib in zip(a.instances, b.instances):
            assert ia.annotations == ib.annotations
        c = simulate(gold, SimConfig(n_annotators=3, target_precision=0.6, precision_spread=0.1, seed=4))
        assert any(
            ia.annotations != ic.annotations for ia, ic in zip(a.instances, c.instances)
        )

    def test_requires_a_bio_scheme(self):
        raw = LabelScheme(("A", "B"), "RAW")
        ds = CrowdDataset(raw, (CrowdInstance(("x",), {}, (0,)),), ())
        with pytest.raises(ValueError, match="BIO scheme"):
            simulate(ds, SimConfig(n_annotators=1))

    @pytest.mark.parametrize("target", [0.5, 0.7, 0.9])
    def test_measured_precision_tracks_the_target(self, target):
        gold = make_gold(60, seed=13)
        crowd = simulate(gold, SimConfig(n_annotators=4, target_precision=target, precision_spread=0.0, seed=13))
        precs = [r.precision for r in annotator_precision(crowd).values()]
        assert abs(float(np.mean(precs)) - target) < 0.06

    def test_higher_target_keeps_more_true_entities(self):
        gold = make_gold(60, seed=13)

        def tps(target):
            crowd = simulate(gold, SimConfig(n_annotators=4, target_precision=target, precision_spread=0.0, seed=13))
            return {a: r.tp for a, r in annotator_precision(crowd).items()}

        lo, hi = tps(0.5), tps(0.9)
        assert all(hi[a] >= lo[a] for a in lo)

    def test_annotator_precision_requires_gold(self):
        inst = CrowdInstance(("a",), {"ann1": (0,)})
        ds = CrowdDataset(SCHEME, (inst,), ("ann1",))
        with pytest.raises(ValueError, match="gold labels required"):
            annotator_precision(ds)


class TestBoundaryShifts:
    @settings(max_examples=200, deadline=None)
    @given(labels=st.lists(st.integers(0, SCHEME.size - 1), max_size=40))
    def test_the_spans_either_side_give_the_full_scans_options(self, labels):
        # random BIO sequences, orphan I- tags and touching spans included
        spans = extract_entities(labels, SCHEME)
        for e, span in enumerate(spans):
            assert _feasible_shifts(e, spans, len(labels)) == loop_feasible_shifts(span, spans, len(labels))
