import numpy as np
import pytest
from hypothesis import given, strategies as st

from crowdseq import (
    CrowdDataset,
    CrowdInstance,
    LabelScheme,
    validate_dataset,
)


class TestLabelScheme:
    def test_bio_constructor_keeps_caller_order(self):
        s = LabelScheme.bio(("PER", "LOC"))
        assert s.labels == ("O", "B-PER", "I-PER", "B-LOC", "I-LOC")
        assert s.kind == "BIO"
        assert s.size == 5
        assert s.entity_types == ("PER", "LOC")

    def test_index_lookup(self):
        s = LabelScheme.bio(("PER",))
        assert s.index("O") == 0
        assert s.index("I-PER") == 2
        with pytest.raises(KeyError):
            s.index("B-LOC")

    def test_rejects_duplicate_labels(self):
        with pytest.raises(ValueError):
            LabelScheme(("O", "O"), "RAW")

    def test_rejects_whitespace_and_empty(self):
        with pytest.raises(ValueError):
            LabelScheme(("O", "B PER"), "RAW")
        with pytest.raises(ValueError):
            LabelScheme(("O", ""), "RAW")

    def test_rejects_single_label(self):
        with pytest.raises(ValueError):
            LabelScheme(("O",), "RAW")

    def test_bio_kind_rejects_malformed_tags(self):
        with pytest.raises(ValueError):
            LabelScheme(("O", "X-PER"), "BIO")

    def test_bio_requires_matching_b_for_i(self):
        with pytest.raises(ValueError):
            LabelScheme(("O", "B-PER", "I-LOC"), "BIO")

    def test_raw_kind_accepts_anything_nonblank(self):
        s = LabelScheme(("NOUN", "VERB"), "RAW")
        assert s.size == 2
        assert s.entity_types == ()


class TestTransitions:
    def setup_method(self):
        self.s = LabelScheme.bio(("LOC", "PER"))

    def allowed(self, frm, to):
        return self.s.allowed_transitions[self.s.index(frm), self.s.index(to)]

    def test_i_requires_same_type_predecessor(self):
        assert self.allowed("B-PER", "I-PER")
        assert self.allowed("I-PER", "I-PER")
        assert not self.allowed("B-LOC", "I-PER")
        assert not self.allowed("O", "I-PER")
        assert not self.allowed("I-LOC", "I-PER")

    def test_b_and_o_always_reachable(self):
        for frm in self.s.labels:
            for to in ("O", "B-LOC", "B-PER"):
                assert self.allowed(frm, to)

    def test_initial_forbids_inside_tags(self):
        allowed = self.s.initial_allowed
        assert allowed[self.s.index("O")]
        assert allowed[self.s.index("B-PER")]
        assert not allowed[self.s.index("I-PER")]
        assert not allowed[self.s.index("I-LOC")]

    def test_raw_scheme_allows_everything(self):
        s = LabelScheme(("X", "Y"), "RAW")
        assert s.allowed_transitions.all()
        assert s.initial_allowed.all()

    def test_matrices_are_read_only(self):
        with pytest.raises(ValueError):
            self.s.allowed_transitions[0, 0] = False


class TestInfer:
    def test_bio_shaped_labels_give_bio_scheme(self):
        s = LabelScheme.infer(["B-PER", "O", "I-PER", "B-LOC", "I-LOC"])
        assert s.kind == "BIO"
        assert s.labels == ("O", "B-LOC", "I-LOC", "B-PER", "I-PER")

    def test_types_sorted_and_inside_filled_in(self):
        # an I- tag is synthesized for every type even if unseen
        s = LabelScheme.infer(["B-ZED", "B-ALPHA", "O"])
        assert s.labels == ("O", "B-ALPHA", "I-ALPHA", "B-ZED", "I-ZED")

    def test_non_bio_labels_give_raw_scheme(self):
        s = LabelScheme.infer(["VERB", "NOUN", "NOUN"])
        assert s.kind == "RAW"
        assert s.labels == ("NOUN", "VERB")

    def test_all_o_is_raw(self):
        # nothing but O carries no BIO evidence and O alone is not a scheme
        with pytest.raises(ValueError):
            LabelScheme.infer(["O", "O"])

    def test_mixed_shapes_fall_back_to_raw(self):
        s = LabelScheme.infer(["B-PER", "WEIRD", "O"])
        assert s.kind == "RAW"
        assert s.labels == ("B-PER", "O", "WEIRD")

    @given(st.lists(st.sampled_from(["O", "B-PER", "I-PER", "B-LOC", "I-LOC"]),
                    min_size=1).filter(lambda ls: set(ls) != {"O"}))
    def test_infer_on_bio_tags_indexes_every_input(self, labels):
        s = LabelScheme.infer(labels)
        assert s.kind == "BIO"
        for lab in labels:
            assert s.labels[s.index(lab)] == lab


class TestInstances:
    def test_sequences_coerced_to_tuples(self):
        inst = CrowdInstance(["a", "b"], {"u": [0, 1]}, [0, 0])
        assert inst.tokens == ("a", "b")
        assert inst.annotations["u"] == (0, 1)
        assert inst.gold == (0, 0)
        assert len(inst) == 2

    def test_gold_may_be_absent(self):
        inst = CrowdInstance(("a",), {}, None)
        assert inst.gold is None


class TestValidateDataset:
    def setup_method(self):
        self.scheme = LabelScheme.bio(("PER",))

    def ds(self, instances, roster=("u",)):
        return CrowdDataset(self.scheme, tuple(instances), roster)

    def test_clean_dataset_passes(self):
        inst = CrowdInstance(("bob",), {"u": (1,)}, (1,))
        assert validate_dataset(self.ds([inst])) == []

    def test_empty_dataset_reported(self):
        problems = validate_dataset(self.ds([]))
        assert any("no instances" in p for p in problems)

    def test_unknown_annotator_reported(self):
        inst = CrowdInstance(("bob",), {"ghost": (1,)}, None)
        problems = validate_dataset(self.ds([inst]))
        assert any("ghost" in p for p in problems)

    def test_length_mismatch_reported(self):
        inst = CrowdInstance(("a", "b"), {"u": (0,)}, None)
        problems = validate_dataset(self.ds([inst]))
        assert any("length" in p for p in problems)

    def test_label_out_of_range_reported(self):
        inst = CrowdInstance(("a",), {"u": (99,)}, None)
        problems = validate_dataset(self.ds([inst]))
        assert any("99" in p for p in problems)

    def test_out_of_range_labels_are_reported_in_order(self):
        insts = [
            CrowdInstance(("a", "b", "c"), {"v": (0, 7, 1), "u": (-1, 0, 3)}, (5, 0, -2)),
            CrowdInstance(("d",), {"u": (2,)}, (0,)),
        ]
        assert validate_dataset(self.ds(insts, roster=("u", "v"))) == [
            "instance 0, annotator 'v', position 1: label index 7 out of range",
            "instance 0, annotator 'u', position 0: label index -1 out of range",
            "instance 0, annotator 'u', position 2: label index 3 out of range",
            "instance 0, gold, position 0: label index 5 out of range",
            "instance 0, gold, position 2: label index -2 out of range",
        ]

    def test_bad_gold_reported(self):
        inst = CrowdInstance(("a",), {"u": (0,)}, (99,))
        problems = validate_dataset(self.ds([inst]))
        assert any("gold" in p for p in problems)

    def test_duplicate_roster_reported(self):
        inst = CrowdInstance(("a",), {"u": (0,)}, None)
        problems = validate_dataset(self.ds([inst], roster=("u", "u")))
        assert any("duplicate" in p for p in problems)

    def test_empty_token_reported(self):
        inst = CrowdInstance(("",), {"u": (0,)}, None)
        problems = validate_dataset(self.ds([inst]))
        assert any("empty" in p for p in problems)
