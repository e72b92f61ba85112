"""Annotator reliability tables: contexts, likelihoods, fitting, persistence."""

import numpy as np
import pytest

from crowdseq import (
    AnnotatorParams,
    LabelScheme,
    bos_context,
    load_annotators,
    params_from_counts,
    resolve_mentions,
    sample_init_params,
    save_annotators,
)
from oracles import annotation_loglik, factor_matrix

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
    p = sample_init_params(("u",), M, seed=0)
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


class TestInit:
    def test_rows_are_distributions(self):
        p = sample_init_params(("u", "v", "w"), M, seed=42)
        p.validate()
        assert p.local.shape == (3, M + 1, M, M)
        assert not np.allclose(p.local, p.mention)

    def test_deterministic_in_the_seed(self):
        a = sample_init_params(("u",), M, seed=[7, 1])
        b = sample_init_params(("u",), M, seed=[7, 1])
        c = sample_init_params(("u",), M, seed=[7, 2])
        np.testing.assert_array_equal(a.local, b.local)
        np.testing.assert_array_equal(a.mention, b.mention)
        assert not np.array_equal(a.local, c.local)


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
        p = sample_init_params(("u", "v"), M, seed=11)
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
        p = sample_init_params(("u",), M, seed=5)
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
    def test_round_trip_is_bit_exact(self, tmp_path):
        p = sample_init_params(("anna", "bert"), M, seed=19)
        path = tmp_path / "annotators.tsv"
        save_annotators(p, SCHEME, path)
        q, scheme = load_annotators(path)
        assert scheme.labels == SCHEME.labels
        assert scheme.kind == SCHEME.kind
        assert q.roster == p.roster
        np.testing.assert_array_equal(q.local, p.local)
        np.testing.assert_array_equal(q.mention, p.mention)

    def test_scheme_table_mismatch_is_rejected(self, tmp_path):
        p = sample_init_params(("u",), M, seed=1)
        other = LabelScheme.bio(("LOC", "ORG"))
        with pytest.raises(ValueError, match="does not match"):
            save_annotators(p, other, tmp_path / "x.tsv")

    def test_wrong_magic_is_rejected(self, tmp_path):
        path = tmp_path / "bad.tsv"
        path.write_text("something else\n", encoding="utf-8")
        with pytest.raises(ValueError, match="not a"):
            load_annotators(path)

    def test_truncated_file_is_rejected(self, tmp_path):
        p = sample_init_params(("u",), M, seed=2)
        path = tmp_path / "annotators.tsv"
        save_annotators(p, SCHEME, path)
        lines = path.read_text(encoding="utf-8").splitlines()
        path.write_text("\n".join(lines[:-3]) + "\n", encoding="utf-8")
        with pytest.raises(ValueError):
            load_annotators(path)

    def test_trailing_garbage_is_rejected(self, tmp_path):
        p = sample_init_params(("u",), M, seed=2)
        path = tmp_path / "annotators.tsv"
        save_annotators(p, SCHEME, path)
        with path.open("a", encoding="utf-8") as fh:
            fh.write("extra\n")
        with pytest.raises(ValueError, match="trailing"):
            load_annotators(path)
