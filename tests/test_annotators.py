"""Annotator reliability tables: contexts, likelihoods, fitting, persistence."""

import re

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings

from crowdseq import (
    AnnotatorParams,
    CrowdDataset,
    CrowdInstance,
    DataError,
    LabelScheme,
    bos_context,
    load_annotators,
    params_from_counts,
    resolve_mentions,
    save_annotators,
)
from crowdseq.annotators import (
    BOS_LABEL,
    annotation_entries,
    annotation_table,
    context_factor,
    majority_vote,
    vote_counts,
)
from corpus import dirichlet_tables
from oracles import annotation_loglik, factor_matrix, loop_annotation_entries, mv_token
from strategies import crowd_datasets

SCHEME = LabelScheme(("O", "B-PER", "I-PER"))
M = SCHEME.size


def identity_params(roster=("u",), m=M):
    eye = np.broadcast_to(np.eye(m), (len(roster), m + 1, m, m)).copy()
    return AnnotatorParams(tuple(roster), eye, eye.copy())


def uniform_params(roster=("u",), m=M):
    flat = np.full((len(roster), m + 1, m, m), 1.0 / m)
    return AnnotatorParams(tuple(roster), flat, flat.copy())


class TestMentions:
    def test_links_point_to_the_nearest_earlier_duplicate(self):
        toks = ("shanghai", "is", "big", ",", "shanghai", "grows")
        assert resolve_mentions(toks) == (None, None, None, None, 0, None)

    def test_chained_repeats(self):
        assert resolve_mentions(("a", "a", "a")) == (None, 0, 1)

    def test_matching_is_exact_on_surface_form(self):
        assert resolve_mentions(("Rome", "rome")) == (None, None)

    def test_empty(self):
        assert resolve_mentions(()) == ()


def test_bos_context_is_the_extra_slot():
    assert bos_context(M) == M
    p = dirichlet_tables(("u",), M, seed=0)
    assert p.local.shape[1] == bos_context(M) + 1


class TestParamsContainer:
    def test_annotator_index(self):
        p = uniform_params(roster=("u", "v"))
        assert p.annotator_index("v") == 1
        with pytest.raises(KeyError, match="not in roster"):
            p.annotator_index("w")

    def test_validate_accepts_simplex_tables(self):
        identity_params().validate()
        uniform_params().validate()

    def test_validate_rejects_bad_shape(self):
        p = uniform_params()
        p.mention = p.mention[:, :M]
        with pytest.raises(ValueError, match="shape"):
            p.validate()

    def test_validate_rejects_negative_entries(self):
        p = uniform_params()
        p.local[0, 0, 0, 0] = -0.1
        p.local[0, 0, 0, 1] = 1.0 - 1.0 / M + 0.1
        with pytest.raises(ValueError, match="negative"):
            p.validate()

    def test_validate_rejects_unnormalized_rows(self):
        p = uniform_params()
        p.local[0, 1, 2] = 0.7
        with pytest.raises(ValueError, match="simplex"):
            p.validate()


class TestMajorityVote:
    def test_ties_go_low_and_an_unlabeled_instance_gets_label_0(self):
        ds = CrowdDataset(SCHEME, (
            CrowdInstance(("a", "b"), {"u": (2, 1), "v": (1, 1), "w": (2, 0)}),
            CrowdInstance(("c", "d", "e"), {}),
            CrowdInstance(("f",), {"w": (2,)}),
        ), ("u", "v", "w"))
        assert majority_vote(ds, annotation_table(ds)) == [(2, 1), (0, 0, 0), (2,)]

    @settings(max_examples=60, deadline=None)
    @given(ds=crowd_datasets())
    def test_matches_the_per_position_oracle(self, ds):
        votes = majority_vote(ds, annotation_table(ds))
        for inst, z in zip(ds.instances, votes, strict=True):
            assert z == (mv_token(inst) if inst.annotations else (0,) * len(inst.tokens))


def entry_tuples(ds):
    """``annotation_entries`` of the dataset as sorted-comparable tuples."""
    e = annotation_entries(ds, annotation_table(ds))
    return list(zip(*(column.tolist() for column in e)))


class TestAnnotationTable:
    def test_table_lays_the_corpus_end_to_end(self):
        ds = CrowdDataset(SCHEME, (
            CrowdInstance(("a", "b"), {"v": (1, 2)}),
            CrowdInstance(("c",), {"u": (0,), "v": (2,)}),
        ), ("u", "v"))
        np.testing.assert_array_equal(annotation_table(ds), [[-1, 1], [-1, 2], [0, 2]])

    def test_votes_count_each_rows_labels_and_skip_nothing_else(self):
        table = np.array([[-1, 1, 1], [0, 2, -1], [-1, -1, -1], [2, 0, 2]])
        np.testing.assert_array_equal(vote_counts(table, 3), [[0, 2, 0], [1, 0, 1], [0, 0, 0], [1, 0, 2]])
        assert vote_counts(table[:0], 3).shape == (0, 3)
        with pytest.raises(ValueError, match="label 3 out of range for 3 labels"):
            vote_counts(np.array([[0, 3]]), 3)

    def test_entries_of_a_hand_built_corpus(self):
        # "rome" repeats within the first sentence, ends it and starts the
        # next two; v skips the single-token middle sentence
        ds = CrowdDataset(SCHEME, (
            CrowdInstance(("rome", "is", "rome"), {"u": (1, 0, 1), "v": (0, 0, 2)}),
            CrowdInstance(("rome",), {"u": (2,)}),
            CrowdInstance(("rome", "rome"), {"u": (0, 1), "v": (1, 2)}),
        ), ("u", "v"))
        bos = bos_context(M)
        assert entry_tuples(ds) == [
            (0, 0, 1, bos, False), (0, 1, 0, bos, False),
            (1, 0, 0, 1, False), (1, 1, 0, 0, False),
            (2, 0, 1, 1, True), (2, 1, 2, 0, True),
            (3, 0, 2, bos, False),
            (4, 0, 0, bos, False), (4, 1, 1, bos, False),
            (5, 0, 1, 0, True), (5, 1, 2, 1, True),
        ]
        assert entry_tuples(ds) == loop_annotation_entries(ds)

    def test_a_roster_of_one_with_single_token_sentences(self):
        ds = CrowdDataset(SCHEME, tuple(
            CrowdInstance((tok,), {"solo": (lab,)}) for tok, lab in (("x", 1), ("x", 2), ("y", 0))
        ), ("solo",))
        assert entry_tuples(ds) == [(j, 0, lab, bos_context(M), False) for j, lab in enumerate((1, 2, 0))]

    @settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(ds=crowd_datasets())
    def test_entries_match_the_per_annotation_loop(self, ds):
        assert entry_tuples(ds) == loop_annotation_entries(ds)

    def test_context_factor_gathers_each_entrys_row(self):
        ds = CrowdDataset(SCHEME, (
            CrowdInstance(("p", "q", "p", "r", "q"), {"u": (0, 1, 2, 2, 1), "v": (1, 1, 0, 2, 2)}),
            CrowdInstance(("q", "p"), {"v": (2, 0)}),
        ), ("u", "v"))
        p = dirichlet_tables(ds.roster, M, seed=13)
        e = annotation_entries(ds, annotation_table(ds))
        phi = context_factor(p, e)
        assert phi.shape == (len(e.row), M)
        start = 0
        for inst in ds.instances:
            links = resolve_mentions(inst.tokens)
            for k, ann in enumerate(ds.roster):
                if ann in inst.annotations:
                    mine = (e.annotator == k) & (e.row >= start) & (e.row < start + len(inst.tokens))
                    expected = factor_matrix(p, ann, inst.annotations[ann], links)
                    assert np.array_equal(phi[mine], expected)
            start += len(inst.tokens)


class TestLikelihood:
    def test_identity_tables_score_exact_copies_at_zero(self):
        p = identity_params()
        toks = ("a", "b", "c")
        links = resolve_mentions(toks)
        truth = (0, 1, 2)
        assert annotation_loglik(p, "u", truth, truth, links) == 0.0
        assert annotation_loglik(p, "u", (0, 1, 1), truth, links) == -np.inf

    def test_uniform_tables_score_every_sequence_alike(self):
        p = uniform_params()
        toks = ("a", "b", "c", "d")
        links = resolve_mentions(toks)
        expected = 4 * np.log(1.0 / M)
        for truth in ((0, 0, 0, 0), (0, 1, 2, 0)):
            got = annotation_loglik(p, "u", (0, 1, 2, 0), truth, links)
            assert got == pytest.approx(expected, rel=1e-12)

    def test_hand_expanded_product_with_a_mention_link(self):
        rng = np.random.default_rng(3)
        local = rng.dirichlet(np.ones(M), size=(1, M + 1, M))
        mention = rng.dirichlet(np.ones(M), size=(1, M + 1, M))
        p = AnnotatorParams(("u",), local, mention)
        toks = ("x", "y", "x")
        links = resolve_mentions(toks)
        assert links == (None, None, 0)
        assigned = (1, 2, 0)
        truth = (1, 2, 1)
        bos = bos_context(M)
        expected = (
            np.log(local[0, bos, truth[0], assigned[0]])
            + np.log(local[0, assigned[0], truth[1], assigned[1]])
            + np.log(mention[0, assigned[0], truth[2], assigned[2]])
        )
        got = annotation_loglik(p, "u", assigned, truth, links)
        assert got == pytest.approx(float(expected), rel=1e-12)

    def test_factor_matrix_agrees_with_the_loglik(self):
        rng = np.random.default_rng(9)
        p = dirichlet_tables(("u", "v"), M, seed=11)
        toks = ("p", "q", "p", "r", "q")
        links = resolve_mentions(toks)
        assigned = tuple(int(x) for x in rng.integers(0, M, size=5))
        phi = factor_matrix(p, "v", assigned, links)
        assert phi.shape == (5, M)
        for _ in range(5):
            truth = tuple(int(x) for x in rng.integers(0, M, size=5))
            direct = annotation_loglik(p, "v", assigned, truth, links)
            via_phi = sum(phi[j, truth[j]] for j in range(5))
            assert direct == pytest.approx(via_phi, rel=1e-12)

    def test_mention_bos_slot_is_never_consulted(self):
        p = dirichlet_tables(("u",), M, seed=5)
        toks = ("x", "x", "y")
        links = resolve_mentions(toks)
        assigned = (0, 1, 2)
        before = factor_matrix(p, "u", assigned, links)
        p.mention[0, bos_context(M)] = np.roll(p.mention[0, bos_context(M)], 1, axis=1)
        after = factor_matrix(p, "u", assigned, links)
        np.testing.assert_array_equal(before, after)

    def test_length_mismatch_is_rejected(self):
        p = uniform_params()
        with pytest.raises(ValueError, match="length mismatch"):
            annotation_loglik(p, "u", (0, 1), (0,), (None, None))


class TestFitting:
    def test_unsmoothed_counts_normalize_exactly(self):
        local = np.zeros((1, M + 1, M, M))
        local[0, 0, 0] = [2.0, 1.0, 1.0]
        mention = np.zeros((1, M + 1, M, M))
        p = params_from_counts(("u",), local, mention, smoothing=0.0)
        np.testing.assert_allclose(p.local[0, 0, 0], [0.5, 0.25, 0.25])

    def test_empty_row_without_smoothing_falls_back_to_uniform(self):
        zeros = np.zeros((1, M + 1, M, M))
        p = params_from_counts(("u",), zeros, zeros.copy(), smoothing=0.0)
        np.testing.assert_allclose(p.local, 1.0 / M)
        p.validate()

    def test_smoothing_adds_to_every_cell(self):
        local = np.zeros((1, M + 1, M, M))
        local[0, 1, 2] = [2.0, 1.0, 0.0]
        p = params_from_counts(("u",), local, np.zeros_like(local), smoothing=1.0)
        np.testing.assert_allclose(p.local[0, 1, 2], [3 / 6, 2 / 6, 1 / 6])
        np.testing.assert_allclose(p.local[0, 0, 0], 1.0 / M)

    def test_negative_inputs_are_rejected(self):
        zeros = np.zeros((1, M + 1, M, M))
        bad = zeros.copy()
        bad[0, 0, 0, 0] = -1.0
        with pytest.raises(ValueError, match="negative weight"):
            params_from_counts(("u",), bad, zeros)
        with pytest.raises(ValueError, match="smoothing"):
            params_from_counts(("u",), zeros, zeros, smoothing=-0.5)


class TestPersistence:
    @pytest.mark.parametrize("annotator", ["a\rb", "a\tb", "a\nb"])
    def test_save_refuses_an_id_that_would_not_reload(self, tmp_path, annotator):
        p = dirichlet_tables(("u", annotator), M, seed=19)
        with pytest.raises(ValueError, match=f"^annotator id not serializable: {re.escape(repr(annotator))}$"):
            save_annotators(p, SCHEME, tmp_path / "annotators.tsv")
        assert not (tmp_path / "annotators.tsv").exists()

    def test_round_trip_is_bit_exact(self, tmp_path):
        p = dirichlet_tables(("anna", "bert"), M, seed=19)
        path = tmp_path / "annotators.tsv"
        save_annotators(p, SCHEME, path)
        q, scheme = load_annotators(path)
        assert scheme.labels == SCHEME.labels
        assert scheme.kind == SCHEME.kind
        assert q.roster == p.roster
        np.testing.assert_array_equal(q.local, p.local)
        np.testing.assert_array_equal(q.mention, p.mention)

    @pytest.mark.parametrize("dtype", [float, np.float32, int])
    def test_each_entry_is_written_as_its_float_repr(self, tmp_path, dtype):
        p = dirichlet_tables(("anna", "bert"), M, seed=23)
        if dtype is int:
            p = identity_params(("anna", "bert"))
        p = AnnotatorParams(p.roster, p.local.astype(dtype), p.mention.astype(dtype))
        path = tmp_path / "annotators.tsv"
        save_annotators(p, SCHEME, path)
        body = path.read_text(encoding="utf-8").splitlines()[4:]
        contexts = list(SCHEME.labels) + [BOS_LABEL]
        want = []
        for name, tab in (("local", p.local), ("mention", p.mention)):  # one float() per numpy scalar
            for ki, annotator in enumerate(p.roster):
                want.append(f"table\t{name}\t{annotator}")
                for ci, ctx in enumerate(contexts):
                    for ti, truth in enumerate(SCHEME.labels):
                        want.append(f"{ctx}\t{truth}\t" + "\t".join(repr(float(v)) for v in tab[ki, ci, ti]))
        assert body == want

    def test_scheme_table_mismatch_is_rejected(self, tmp_path):
        p = dirichlet_tables(("u",), M, seed=1)
        other = LabelScheme.bio(("LOC", "ORG"))
        with pytest.raises(ValueError, match="does not match"):
            save_annotators(p, other, tmp_path / "x.tsv")

    def test_wrong_magic_is_rejected(self, tmp_path):
        path = tmp_path / "bad.tsv"
        path.write_text("something else\n", encoding="utf-8")
        with pytest.raises(ValueError, match="not a"):
            load_annotators(path)

    def test_truncated_file_is_rejected(self, tmp_path):
        p = dirichlet_tables(("u",), M, seed=2)
        path = tmp_path / "annotators.tsv"
        save_annotators(p, SCHEME, path)
        lines = path.read_text(encoding="utf-8").splitlines()
        path.write_text("\n".join(lines[:-3]) + "\n", encoding="utf-8")
        with pytest.raises(ValueError):
            load_annotators(path)

    def test_ids_holding_what_splitlines_ends_a_line_at_round_trip(self, tmp_path):
        # \x85, \x0b, \x1c-\x1f and \u2028 end a line for str.splitlines, never for the reader
        roster = ("a\x85b", "c\x0b", "\x1c\x1d", "\x1e\x1fd", "e\u2028", "f")
        p = dirichlet_tables(roster, M, seed=29)
        path = tmp_path / "annotators.tsv"
        save_annotators(p, SCHEME, path)
        q, scheme = load_annotators(path)
        assert q.roster == roster and scheme.labels == SCHEME.labels
        assert q.local.tobytes() == p.local.tobytes() and q.mention.tobytes() == p.mention.tobytes()

    def test_bytes_that_are_not_utf8_name_their_line(self, tmp_path):
        p = dirichlet_tables(("u",), M, seed=2)
        path = tmp_path / "annotators.tsv"
        save_annotators(p, SCHEME, path)
        lines = path.read_bytes().split(b"\n")
        lines[6] = lines[6].replace(b"\t", b"\t\xe9", 1)
        path.write_bytes(b"\n".join(lines))
        with pytest.raises(DataError, match=f"^{re.escape(str(path))}, line 7: not UTF-8 \\(byte 0xe9: invalid"):
            load_annotators(path)

    def test_trailing_garbage_is_rejected(self, tmp_path):
        p = dirichlet_tables(("u",), M, seed=2)
        path = tmp_path / "annotators.tsv"
        save_annotators(p, SCHEME, path)
        with path.open("a", encoding="utf-8") as fh:
            fh.write("extra\n")
        with pytest.raises(ValueError, match="trailing"):
            load_annotators(path)
