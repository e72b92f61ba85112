import re
import shutil
import subprocess
import sys
import tempfile
import types
import warnings
from pathlib import Path

import numpy as np
import pytest
from corpus import make_gold
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import (
    brute_log_partition,
    brute_marginals,
    brute_valid,
    brute_viterbi,
    brute_weighted_nll,
    loop_obs_index,
    loop_observation_rows,
    random_potentials,
    sequence_score,
)
from scipy.special import logsumexp as scipy_logsumexp

from crowdseq import (
    DEFAULT_TEMPLATES,
    FeatureTemplate,
    LabelScheme,
    SequencePotentials,
    TrainOptions,
    build_model,
    decode,
    expected_counts,
    extract_features,
    load_model,
    log_partition,
    marginals,
    optimize,
    save_model,
    viterbi,
    weighted_nll_and_gradient,
)
from crowdseq import crf
from crowdseq.crf import BOS_TOKEN, EOS_TOKEN, logsumexp

SCHEME = LabelScheme.bio(("LOC", "PER"))
# written by the v1 save_model: build_model(SCHEME, [("a", "b")]) with
# np.random.default_rng(2).normal weights
MODEL_V1 = Path(__file__).parent / "data" / "model_v1.tsv"


def ragged_batch(rng, extra_lengths=()):
    """Weighted examples over sentences of lengths 1, 2, 3 and 5 (plus any
    ``extra_lengths``): one sentence object labeled twice, a distinct object
    with the same words, and a sentence whose only example has weight 0."""

    def sentence(n):
        return tuple(str(w) for w in rng.choice(["aa", "bb", "Cc", "d1", "ee"], size=n))

    def labels(n):
        return tuple(int(x) for x in rng.integers(0, SCHEME.size, size=n))

    short, pair, triple, five = sentence(1), sentence(2), sentence(3), sentence(5)
    twin = tuple(list(triple))
    unweighted = sentence(2)
    data = [
        (five, labels(5), 0.7),
        (short, labels(1), 1.3),
        (triple, labels(3), 0.4),
        (pair, labels(2), 2.0),
        (triple, labels(3), 0.9),
        (twin, labels(3), 0.5),
        (unweighted, labels(2), 0.0),
    ]
    data += [(sentence(n), labels(n), 0.8) for n in extra_lengths]
    model = build_model(SCHEME, [tokens for tokens, _, _ in data])
    model.weights[:] = rng.normal(size=model.dim) * 0.3
    return model, data


def one_sentence_objective(model, data, l2):
    """The weighted objective built from log_partition and marginals, one
    example at a time."""
    m = model.scheme.size
    grad_u = np.zeros((model.n_obs, m))
    grad_b = np.zeros((m, m))
    value = 0.5 * l2 * float(model.weights @ model.weights)
    for tokens, labels, w in data:
        pot = extract_features(model, tokens)
        uni, pair = marginals(pot)
        value += w * (log_partition(pot) - sequence_score(pot, labels))
        observed = np.eye(m)[list(labels)]
        for t, rows in enumerate(loop_observation_rows(model, tokens)):
            np.add.at(grad_u, rows, w * (uni[t] - observed[t]))
        grad_b += w * pair.sum(axis=0)
        np.add.at(grad_b, (labels[:-1], labels[1:]), -w)
    grad = np.concatenate([grad_u.ravel(), grad_b.ravel()]) + l2 * model.weights
    return value, grad


class TestTemplates:
    def test_token_identity(self):
        t = FeatureTemplate("token-identity")
        assert t.observation(("Big", "apple"), 1) == "w=apple"

    def test_lowercase(self):
        assert FeatureTemplate("token-lowercase").observation(("Big",), 0) == "wl=big"

    def test_prefix_requires_enough_characters(self):
        t = FeatureTemplate("prefix", 3)
        assert t.observation(("abcd",), 0) == "p3=abc"
        assert t.observation(("ab",), 0) is None

    def test_suffix(self):
        t = FeatureTemplate("suffix", 2)
        assert t.observation(("hello",), 0) == "s2=lo"

    def test_shape_predicates(self):
        assert FeatureTemplate("is-capitalized").observation(("Rome",), 0) == "cap"
        assert FeatureTemplate("is-capitalized").observation(("rome",), 0) is None
        assert FeatureTemplate("is-digit").observation(("1984",), 0) == "num"
        assert FeatureTemplate("is-digit").observation(("x1",), 0) is None

    def test_neighbors_use_boundary_tokens(self):
        prev = FeatureTemplate("previous-token")
        nxt = FeatureTemplate("next-token")
        toks = ("a", "b")
        assert prev.observation(toks, 0) == f"w-1={BOS_TOKEN}"
        assert prev.observation(toks, 1) == "w-1=a"
        assert nxt.observation(toks, 1) == f"w+1={EOS_TOKEN}"
        assert nxt.observation(toks, 0) == "w+1=b"

    def test_bigram_template_has_no_observation(self):
        assert FeatureTemplate("label-bigram").observation(("a",), 0) is None

    def test_spec_string_round_trip(self):
        for t in DEFAULT_TEMPLATES:
            assert FeatureTemplate.parse(t.spec_string) == t

    def test_sized_kind_requires_width(self):
        with pytest.raises(ValueError):
            FeatureTemplate("prefix")
        with pytest.raises(ValueError):
            FeatureTemplate("token-identity", 2)
        with pytest.raises(ValueError):
            FeatureTemplate("nonsense")


class TestBuildModel:
    def test_unseen_observation_contributes_nothing(self):
        model = build_model(SCHEME, [("alpha", "beta")])
        (ids,) = crf._observation_ids(model, [("gamma",)])
        known = set(model.obs_index.values())
        assert all(r in known for r in ids[ids >= 0])
        # gamma itself was never interned, so its identity template fires nothing
        assert "w=gamma" not in model.obs_index
        assert ids[0] == -1

    def test_dimension_counts_unary_and_bigram_blocks(self):
        model = build_model(SCHEME, [("a",)])
        assert model.dim == model.n_obs * SCHEME.size + SCHEME.size**2
        no_bigram = build_model(
            SCHEME, [("a",)], templates=(FeatureTemplate("token-identity"),)
        )
        assert not no_bigram.has_bigram
        assert no_bigram.dim == no_bigram.n_obs * SCHEME.size

    def test_weights_start_at_zero(self):
        model = build_model(SCHEME, [("a", "b")])
        assert (model.weights == 0).all()

    def test_interning_is_insertion_ordered(self):
        model = build_model(SCHEME, [("b", "a")], templates=(FeatureTemplate("token-identity"),))
        assert list(model.obs_index) == ["w=b", "w=a"]

    @pytest.mark.parametrize("order", ["default", "reversed"])
    def test_interning_matches_the_per_position_loop(self, order):
        # capitals, digits, tokens shorter than the affix widths, repeats,
        # one-token and empty sentences, and tokens spelling the edge markers
        seqs = [
            ("Rome", "1984", "a"), (), ("x",), ("a", BOS_TOKEN, "Rome"),
            (EOS_TOKEN, "ab", "ROME", "rome", "42"), ("1984",), ("Rome", "1984", "a"),
        ]
        templates = DEFAULT_TEMPLATES if order == "default" else DEFAULT_TEMPLATES[::-1]
        model = build_model(SCHEME, iter(seqs), templates)
        assert list(model.obs_index.items()) == list(loop_obs_index(seqs, templates).items())
        kinds = {obs.split("=")[0] for obs in model.obs_index}
        assert kinds == {"w", "wl", "p2", "p3", "s2", "s3", "cap", "num", "w-1", "w+1"}
        assert f"w-1={BOS_TOKEN}" in model.obs_index and f"w+1={EOS_TOKEN}" in model.obs_index


class TestFeatures:
    def edge_batch(self):
        """A model with random weights, and a ragged batch of sentences with
        length-1 sentences, tokens shorter than the affix widths, digits,
        capitals, tokens the model never interned and one token ("x") ending
        a sentence and starting the next."""
        model = build_model(SCHEME, [("x", "x"), ("Rome", "ab", "1984"), ("a",)])
        model.weights[:] = np.random.default_rng(6).normal(size=model.dim)
        batch = [
            ("Rome", "x"),
            ("x",),
            ("x", "ab", "1984"),
            ("a",),
            ("Paris", "zz9", "x"),
            ("x", "never", "seen", "Rome"),
        ]
        return model, batch

    def test_batch_matches_one_sentence_at_a_time(self):
        model, batch = self.edge_batch()
        pots = extract_features(model, batch)
        assert len(pots) == len(batch)
        for tokens, pot in zip(batch, pots):
            one = extract_features(model, tokens)
            assert np.array_equal(pot.unary, one.unary)
            assert np.array_equal(pot.pairwise, one.pairwise)

    def test_rows_match_the_per_position_template_loop(self):
        model, batch = self.edge_batch()
        got = [row[row >= 0].tolist() for row in crf._observation_ids(model, batch)]
        want = [r.tolist() for tokens in batch for r in loop_observation_rows(model, tokens)]
        assert got == want
        wu = model.unary_weights()
        for tokens in batch:
            want = loop_observation_rows(model, tokens)
            unary = np.array([wu[r].sum(axis=0) if r.size else np.zeros(SCHEME.size) for r in want])
            assert np.array_equal(extract_features(model, tokens).unary, unary)


class TestInferenceOracles:
    # exhaustive-enumeration equivalence on small random instances
    @pytest.mark.parametrize("seed", range(8))
    def test_log_partition_matches_enumeration(self, seed):
        rng = np.random.default_rng(seed)
        pot = random_potentials(rng, L=int(rng.integers(1, 7)), M=int(rng.integers(2, 5)))
        assert log_partition(pot) == pytest.approx(brute_log_partition(pot), rel=1e-10)

    @pytest.mark.parametrize("seed", range(8))
    def test_marginals_match_enumeration(self, seed):
        rng = np.random.default_rng(seed + 100)
        pot = random_potentials(rng, L=int(rng.integers(1, 7)), M=int(rng.integers(2, 5)))
        u, b = marginals(pot)
        bu, bb = brute_marginals(pot)
        np.testing.assert_allclose(u, bu, atol=1e-10)
        np.testing.assert_allclose(b, bb, atol=1e-10)

    @pytest.mark.parametrize("seed", range(8))
    def test_viterbi_matches_enumeration(self, seed):
        rng = np.random.default_rng(seed + 200)
        pot = random_potentials(rng, L=int(rng.integers(1, 7)), M=int(rng.integers(2, 5)))
        assert viterbi(pot) == brute_viterbi(pot)

    @pytest.mark.parametrize("seed", range(4))
    def test_viterbi_with_per_step_tables_matches_enumeration(self, seed):
        rng = np.random.default_rng(seed + 300)
        pot = random_potentials(rng, L=int(rng.integers(2, 7)), M=int(rng.integers(2, 5)), per_step=True)
        assert pot.pairwise.ndim == 3
        assert viterbi(pot) == brute_viterbi(pot)

    def test_per_step_pairwise_supported(self):
        rng = np.random.default_rng(42)
        pot = random_potentials(rng, L=5, M=3, per_step=True)
        assert log_partition(pot) == pytest.approx(brute_log_partition(pot), rel=1e-10)
        assert viterbi(pot) == brute_viterbi(pot)

    def test_viterbi_ties_resolve_to_lowest_index(self):
        pot = random_potentials(np.random.default_rng(0), L=4, M=3)
        pot.unary[:] = 0.0
        pot.pairwise[:] = 0.0
        assert viterbi(pot) == (0, 0, 0, 0)

    def test_marginal_rows_are_distributions(self):
        rng = np.random.default_rng(9)
        pot = random_potentials(rng, L=6, M=4)
        u, b = marginals(pot)
        np.testing.assert_allclose(u.sum(axis=1), 1.0, atol=1e-12)
        np.testing.assert_allclose(b.sum(axis=(1, 2)), 1.0, atol=1e-12)

    def test_logsumexp_matches_scipy(self):
        rng = np.random.default_rng(12)
        a = rng.normal(size=(4, 6, 5)) * 300
        a[1, 2, 3] = -np.inf
        for axis in (0, 1, -1):
            np.testing.assert_allclose(logsumexp(a, axis=axis), scipy_logsumexp(a, axis=axis), rtol=1e-14)
        assert float(logsumexp(a[0, 0])) == pytest.approx(float(scipy_logsumexp(a[0, 0])), rel=1e-14)

    def test_logsumexp_of_an_all_minus_inf_row_is_minus_inf(self):
        a = np.array([[-np.inf, -np.inf, -np.inf], [0.0, -np.inf, 1.0]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            out = logsumexp(a, axis=1)
        assert out[0] == -np.inf
        assert out[1] == pytest.approx(np.log(1.0 + np.e), rel=1e-15)
        assert float(logsumexp(a[0])) == -np.inf

    def test_length_one_sequence(self):
        pot = random_potentials(np.random.default_rng(3), L=1, M=4)
        assert log_partition(pot) == pytest.approx(brute_log_partition(pot), rel=1e-12)
        assert len(viterbi(pot)) == 1


class TestDecode:
    def test_matches_per_sentence_viterbi_on_a_ragged_batch(self):
        rng = np.random.default_rng(17)
        model, data = ragged_batch(rng, extra_lengths=(9, 1, 4))
        seqs = [tokens for tokens, _, _ in data]
        seqs.append(seqs[2])  # the same sentence twice
        lengths = [len(tokens) for tokens in seqs]
        assert 1 in lengths and lengths != sorted(lengths, reverse=True)
        expected = [viterbi(extract_features(model, tokens)) for tokens in seqs]
        assert decode(model, seqs) == expected
        assert viterbi([extract_features(model, tokens) for tokens in seqs]) == expected

    def test_all_zero_weights_tie_everywhere_to_label_zero(self):
        seqs = [("a", "b", "c"), ("d",), ("e", "f", "g", "h", "i"), ("j", "k")]
        model = build_model(SCHEME, seqs)
        assert decode(model, seqs) == [(0,) * len(tokens) for tokens in seqs]

    def test_empty_batch(self):
        model = build_model(SCHEME, [("a",)])
        assert extract_features(model, []) == []
        assert log_partition([]).shape == (0,)
        assert viterbi([]) == []
        assert decode(model, []) == []

    def test_v1_model_and_its_v2_resave_decode_alike(self, tmp_path):
        seqs = [("a", "b"), ("b",), ("a", "x", "b", "a"), ("Zed", "1984", "b")]
        v1 = load_model(MODEL_V1)
        save_model(v1, tmp_path / "v2.tsv")
        paths = decode(v1, seqs)
        assert decode(load_model(tmp_path / "v2.tsv"), seqs) == paths
        assert paths == [viterbi(extract_features(v1, tokens)) for tokens in seqs]

    def test_rejects_a_batch_without_one_shared_table_and_empty_sequences(self):
        rng = np.random.default_rng(4)
        a, b = random_potentials(rng, L=3, M=3), random_potentials(rng, L=2, M=3)
        with pytest.raises(ValueError, match="share one"):
            viterbi([a, b])
        with pytest.raises(ValueError, match="empty"):
            viterbi(SequencePotentials(np.zeros((0, 3)), np.zeros((3, 3))))


class TestBatchedLogPartition:
    @pytest.mark.parametrize("m", [3, 7, 9])
    def test_matches_one_sentence_calls_bit_for_bit_and_enumeration(self, m):
        rng = np.random.default_rng(m)
        pairwise = rng.normal(size=(m, m)) * 2
        lengths = rng.permutation(np.arange(1, 41))
        pots = [SequencePotentials(rng.normal(size=(n, m)) * 3, pairwise.copy()) for n in lengths]
        batch = log_partition(pots)
        assert batch.shape == (len(pots),)
        assert batch.tolist() == [log_partition(pot) for pot in pots]
        enumerable = [(pot, z) for pot, z in zip(pots, batch) if m**pot.length <= 1000]
        assert len(enumerable) >= 2
        for pot, z in enumerable:
            assert abs(z - brute_log_partition(pot)) <= 1e-10

    def test_refuses_a_batch_whose_pairwise_tables_differ(self):
        rng = np.random.default_rng(8)
        a, b = random_potentials(rng, L=3, M=3), random_potentials(rng, L=2, M=3)
        with pytest.raises(ValueError, match="share one"):
            log_partition([a, b])
        assert log_partition([]).shape == (0,)

    def test_an_empty_sequence_is_a_value_error(self):
        empty = SequencePotentials(np.zeros((0, 3)), np.zeros((3, 3)))
        for fn in (log_partition, marginals):
            with pytest.raises(ValueError, match="^empty sequence$"):
                fn(empty)
        with pytest.raises(ValueError, match="^empty sequence$"):
            log_partition([SequencePotentials(np.zeros((2, 3)), empty.pairwise), empty])


def masked_batch(rng, lengths, m):
    """Potentials sharing one pairwise table, with -inf on about a third of
    the unary entries and on one transition, each entry keeping a finite
    path."""
    pairwise = rng.normal(size=(m, m))
    pairwise[0, 1] = -np.inf
    pots = []
    for n in lengths:
        unary = rng.normal(size=(n, m)) * 2
        unary[rng.random((n, m)) < 0.35] = -np.inf
        unary[:, 0] = rng.normal(size=n)  # label 0 throughout is a finite path
        pots.append(SequencePotentials(unary, pairwise))
    return pots


class TestMaskedInference:
    @pytest.mark.parametrize("m", [2, 3, 4])
    def test_expected_counts_match_enumeration(self, m):
        rng = np.random.default_rng([m, 61])
        pots = masked_batch(rng, [3, 1, 5, 2, 5, 4], m)
        logz, counts = expected_counts(pots)
        assert len(counts) == len(pots)
        for pot, z, (uni, pair) in zip(pots, logz, counts):
            assert z == pytest.approx(brute_log_partition(pot), rel=1e-10)
            assert z == log_partition(pot)
            bu, bb = brute_marginals(pot)
            np.testing.assert_allclose(uni, bu, atol=1e-10)
            np.testing.assert_allclose(pair, bb.sum(axis=0), atol=1e-10)
            np.testing.assert_allclose(uni, marginals(pot)[0], atol=1e-14)
            assert viterbi(pot) == brute_viterbi(pot)
        assert viterbi(pots) == [viterbi(pot) for pot in pots]

    def test_nan_and_plus_inf_are_refused_at_every_entry_point(self):
        entry_points = (log_partition, marginals, viterbi, lambda pot: expected_counts([pot]))
        for bad in (np.nan, np.inf):
            for where in ("unary", "pairwise"):
                pot = random_potentials(np.random.default_rng(3), L=3, M=3)
                getattr(pot, where)[1, 2] = bad
                for fn in entry_points:
                    with pytest.raises(ValueError, match="^potentials must not be NaN or \\+inf$"):
                        fn(pot)

    def test_a_sequence_with_no_finite_path_is_refused_by_index(self):
        rng = np.random.default_rng(7)
        live = masked_batch(rng, [3, 2], 3)
        dead = SequencePotentials(live[0].unary.copy(), live[0].pairwise)
        dead.unary[1] = -np.inf
        assert log_partition(dead) == -np.inf
        with pytest.raises(ValueError, match="^instance 1 has no finite-scoring path$"):
            expected_counts([live[0], dead, live[1], dead], "instance")
        with pytest.raises(ValueError, match="^sequence 0 has no finite-scoring path$"):
            marginals(dead)


class TestGradient:
    def test_unary_table_and_scatter_add_in_position_then_template_order(self):
        # the order of the per-position, per-template loop below, and so its bits
        rng = np.random.default_rng(4)
        gold = make_gold(30, seed=4)
        model = build_model(gold.scheme, [inst.tokens for inst in gold.instances])
        obj = crf._WeightedObjective(model, [(inst.tokens, inst.gold, 1.0) for inst in gold.instances], l2=1.0)
        m = model.scheme.size
        wu = rng.normal(size=(model.n_obs, m))
        table = rng.random((len(obj.ids), m))
        want_unary, want_scatter = np.zeros(table.shape), np.zeros(wu.shape)
        for p, row in enumerate(obj.ids.tolist()):
            for o in row:
                if o >= 0:
                    want_unary[p] += wu[o]
                    want_scatter[o] += table[p]
        assert crf._unary_table(wu, obj.ids).tobytes() == want_unary.tobytes()
        assert obj._scatter(table).tobytes() == want_scatter.tobytes()

    def fd_check(self, model, data, l2, rng, n_coords=10):
        theta = rng.normal(size=model.dim) * 0.2
        model.weights[:] = theta
        _, grad = weighted_nll_and_gradient(model, data, l2=l2)
        h = 1e-5
        coords = rng.choice(model.dim, size=min(n_coords, model.dim), replace=False)
        for idx in coords:
            wp, wm = theta.copy(), theta.copy()
            wp[idx] += h
            wm[idx] -= h
            model.weights[:] = wp
            vp, _ = weighted_nll_and_gradient(model, data, l2=l2)
            model.weights[:] = wm
            vm, _ = weighted_nll_and_gradient(model, data, l2=l2)
            fd = (vp - vm) / (2 * h)
            assert grad[idx] == pytest.approx(fd, rel=1e-4, abs=1e-7)
        model.weights[:] = theta

    @pytest.mark.parametrize("seed", range(4))
    def test_matches_central_differences(self, seed):
        rng = np.random.default_rng(seed)
        toks = tuple(rng.choice(["aa", "bb", "cc", "Dd"]) for _ in range(4))
        model = build_model(SCHEME, [toks])
        z1 = (0, 1, 2, 0)
        z2 = (1, 2, 2, 0)
        data = [(toks, z1, 0.3), (toks, z2, 1.7)]
        self.fd_check(model, data, l2=0.8, rng=rng)

    @pytest.mark.parametrize("seed", range(2))
    def test_matches_central_differences_on_a_ragged_batch(self, seed):
        rng = np.random.default_rng([seed, 8])
        model, data = ragged_batch(rng)
        self.fd_check(model, data, l2=0.5, rng=rng, n_coords=30)

    @pytest.mark.parametrize("seed", range(3))
    def test_ragged_batch_matches_enumeration(self, seed):
        model, data = ragged_batch(np.random.default_rng([seed, 7]))
        ref_value, ref_grad = brute_weighted_nll(model, data, l2=0.6)
        # the same examples with the triple sentence's two labelings as one
        # example of soft counts: their weighted mean, under their summed weight
        (triple, first, w_first), (_, second, w_second) = data[2], data[4]
        m = model.scheme.size
        total = w_first + w_second
        uni = (w_first * np.eye(m)[list(first)] + w_second * np.eye(m)[list(second)]) / total
        pair = np.zeros((m, m))
        np.add.at(pair, (first[:-1], first[1:]), w_first / total)
        np.add.at(pair, (second[:-1], second[1:]), w_second / total)
        soft = data[:2] + [(triple, (uni, pair), total), data[3]] + data[5:]
        for given in (data, soft):
            value, grad = weighted_nll_and_gradient(model, given, l2=0.6)
            assert value == pytest.approx(ref_value, rel=1e-12)
            np.testing.assert_allclose(grad, ref_grad, rtol=1e-10, atol=1e-12)

    def test_batch_with_a_long_outlier_matches_the_one_sentence_path(self):
        model, data = ragged_batch(np.random.default_rng(11), extra_lengths=(300, 4))
        value, grad = weighted_nll_and_gradient(model, data, l2=0.6)
        ref_value, ref_grad = one_sentence_objective(model, data, l2=0.6)
        assert value == pytest.approx(ref_value, rel=1e-12)
        np.testing.assert_allclose(grad, ref_grad, rtol=1e-10, atol=1e-10)

    def test_generator_input_matches_the_same_list(self):
        # fresh token tuples per example: their ids are free for reuse once dropped
        gold = make_gold(4, seed=3)
        model = build_model(gold.scheme, [inst.tokens for inst in gold.instances])

        def examples():
            for inst in gold.instances:
                yield tuple(list(inst.tokens)), inst.gold, 1.0

        v_gen, g_gen = weighted_nll_and_gradient(model, examples())
        v_list, g_list = weighted_nll_and_gradient(model, list(examples()))
        assert v_gen == v_list
        np.testing.assert_array_equal(g_gen, g_list)

    def test_duplicate_bigrams_counted_per_occurrence(self):
        # a sequence that repeats the same label pair must count it twice
        toks = ("x", "x", "x")
        model = build_model(SCHEME, [toks])
        data = [(toks, (0, 0, 0), 1.0)]
        rng = np.random.default_rng(1)
        self.fd_check(model, data, l2=0.0, rng=rng)

    def test_zero_weight_examples_are_ignored(self):
        toks = ("p", "q")
        model = build_model(SCHEME, [toks])
        base = [(toks, (0, 1), 1.0)]
        padded = base + [(toks, (1, 0), 0.0)]
        v1, g1 = weighted_nll_and_gradient(model, base, l2=1.0)
        v2, g2 = weighted_nll_and_gradient(model, padded, l2=1.0)
        assert v1 == v2
        np.testing.assert_array_equal(g1, g2)

    def test_weights_scale_linearly(self):
        toks = ("p", "q")
        model = build_model(SCHEME, [toks])
        v1, g1 = weighted_nll_and_gradient(model, [(toks, (0, 1), 1.0)], l2=0.0)
        v2, g2 = weighted_nll_and_gradient(model, [(toks, (0, 1), 2.5)], l2=0.0)
        assert v2 == pytest.approx(2.5 * v1, rel=1e-12)
        np.testing.assert_allclose(g2, 2.5 * g1, atol=1e-12)

    def test_negative_weight_rejected(self):
        toks = ("p",)
        model = build_model(SCHEME, [toks])
        with pytest.raises(ValueError):
            weighted_nll_and_gradient(model, [(toks, (0,), -1.0)], l2=1.0)

    def test_soft_counts_are_checked(self):
        toks = ("p", "q")
        model = build_model(SCHEME, [toks])
        m = SCHEME.size
        uni, pair = np.full((2, m), 1.0 / m), np.full((m, m), 1.0 / m**2)
        for labels, weight, why in (
            ((uni, pair), -0.1, "negative weight"),
            ((uni, pair), np.nan, "non-finite weight"),
            ((uni[:1], pair), 1.0, "label/token length mismatch"),
            ((uni[:, 1:], pair), 1.0, "one label sequence or its"),
            ((uni, pair[1:]), 1.0, "one label sequence or its"),
            (np.array([(0, 1), (1, 0)]), 1.0, "one label sequence or its"),
        ):
            with pytest.raises(ValueError, match=why):
                weighted_nll_and_gradient(model, [(toks, labels, weight)], l2=1.0)

    def test_a_label_sequence_counts_as_its_one_hot_soft_counts(self):
        model, data = ragged_batch(np.random.default_rng(5))
        m = model.scheme.size

        def one_hot(z):
            pair = np.zeros((m, m))
            np.add.at(pair, (z[:-1], z[1:]), 1.0)
            return np.eye(m)[list(z)], pair

        soft = [(tokens, one_hot(z), w) for tokens, z, w in data]
        value, grad = weighted_nll_and_gradient(model, data, l2=0.6)
        assert weighted_nll_and_gradient(model, soft, l2=0.6)[0] == value
        np.testing.assert_array_equal(weighted_nll_and_gradient(model, soft, l2=0.6)[1], grad)

    def test_l2_default_is_one(self):
        toks = ("p", "q")
        model = build_model(SCHEME, [toks])
        model.weights[:] = 0.3
        data = [(toks, (0, 1), 1.0)]
        v_default, _ = weighted_nll_and_gradient(model, data)
        v_one, _ = weighted_nll_and_gradient(model, data, l2=1.0)
        assert v_default == v_one
        v_zero, _ = weighted_nll_and_gradient(model, data, l2=0.0)
        assert v_default == pytest.approx(v_zero + 0.5 * float(model.weights @ model.weights))


def separable_data():
    seqs = [
        (("alice", "runs"), (SCHEME.index("B-PER"), SCHEME.index("O"))),
        (("paris", "waits"), (SCHEME.index("B-LOC"), SCHEME.index("O"))),
        (("alice", "sees", "paris"),
         (SCHEME.index("B-PER"), SCHEME.index("O"), SCHEME.index("B-LOC"))),
    ]
    model = build_model(SCHEME, [t for t, _ in seqs])
    return model, [(t, z, 1.0) for t, z in seqs]


def rosenbrock(x):
    value = float(np.sum(100.0 * (x[1:] - x[:-1] ** 2) ** 2 + (1.0 - x[:-1]) ** 2))
    grad = np.zeros_like(x)
    grad[:-1] = -400.0 * x[:-1] * (x[1:] - x[:-1] ** 2) - 2.0 * (1.0 - x[:-1])
    grad[1:] += 200.0 * (x[1:] - x[:-1] ** 2)
    return value, grad


def cosh_with_a_step(x):
    """sum(cosh(x)), plus 1 wherever that falls below 5.01, with the gradient
    of sum(cosh(x)): L-BFGS-B takes a few steps, then its line search gives
    up, and the last point it evaluated is not the iterate it returns."""
    value = float(np.sum(np.cosh(x)))
    return value + (value < 5.01), np.sinh(x)


def check_minimize_matches_scipy():
    """``crf.minimize`` retraces ``scipy.optimize.minimize``'s L-BFGS-B
    bit for bit: a CRF fit run to convergence and stopped at five
    iterations, a 50-dimensional Rosenbrock, and a line-search failure.

    Run in a fresh interpreter, ``crf.minimize`` loads the routine before
    scipy.optimize is imported, unless the caller imported it first.
    """
    model, data = separable_data()
    fit = crf._WeightedObjective(model, data, l2=0.01).value_and_grad
    problems = [
        (fit, model.weights, 200),
        (fit, model.weights, 5),
        (rosenbrock, np.tile([-1.2, 1.0], 25), 1000),
        (cosh_with_a_step, np.linspace(-2.0, 3.0, 5), 100),
    ]
    ours = [crf.minimize(fun, x0, max_iter, 1e-5) for fun, x0, max_iter in problems]
    from scipy.optimize import minimize as scipy_minimize

    for (fun, x0, max_iter), res in zip(problems, ours):
        ref = scipy_minimize(
            fun, x0, jac=True, method="L-BFGS-B", options={"maxiter": max_iter, "gtol": 1e-5, "ftol": 1e-14}
        )
        assert res.x.tobytes() == ref.x.tobytes()
        assert (res.nit, res.nfev, res.status, res.success) == (ref.nit, ref.nfev, ref.status, ref.success)
        value, grad = fun(res.x)
        assert res.fun == value and res.jac.tobytes() == grad.tobytes()
    assert [res.status for res in ours] == [0, 1, 0, 2]
    assert ours[3].nit > 0  # the line search failed after some iterations, not at the start


class TestMinimize:
    @pytest.mark.parametrize("scipy_first", [True, False], ids=["scipy-loads-the-routine", "crf-loads-the-routine"])
    def test_matches_scipy_whichever_loads_the_routine(self, scipy_first):
        code = (
            "import sys\n"
            f"sys.path[:0] = [{str(Path(crf.__file__).parents[1])!r}, {str(Path(__file__).parent)!r}]\n"
            + ("import scipy.optimize\n" if scipy_first else "")
            + "import test_crf\n"
            f"assert ('scipy.optimize' in sys.modules) == {scipy_first}\n"
            "test_crf.check_minimize_matches_scipy()\n"
        )
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr

    def test_loads_no_scipy_package(self):
        code = (
            "import sys\n"
            f"sys.path.insert(0, {str(Path(crf.__file__).parents[1])!r})\n"
            "import numpy as np\n"
            "from crowdseq import crf\n"
            "res = crf.minimize(lambda x: (float(x @ x), 2 * x), np.ones(3), 10, 1e-5)\n"
            "assert res.success\n"
            "print(sorted(m for m in sys.modules if m.startswith('scipy')))\n"
        )
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.split() == ["['scipy.optimize._lbfgsb']"]

    def test_a_routine_of_another_signature_is_refused(self, monkeypatch):
        monkeypatch.setitem(sys.modules, "scipy.optimize._lbfgsb", types.SimpleNamespace(setulb=lambda *args: None))
        with pytest.raises(ValueError, match=re.escape("training needs scipy >= 1.17")):
            crf.minimize(lambda x: (float(x @ x), 2 * x), np.ones(3), 10, 1e-5)


class TestOptimize:

    def test_separable_data_fits_exactly(self):
        model, data = separable_data()
        res = optimize(model, data, TrainOptions(max_iter=200, l2=0.01))
        assert res.converged
        for toks, z, _ in data:
            assert viterbi(extract_features(res.model, toks)) == z

    def test_huge_l2_shrinks_weights_to_zero(self):
        model, data = separable_data()
        res = optimize(model, data, TrainOptions(max_iter=200, l2=1e6))
        assert float(np.linalg.norm(res.model.weights)) < 1e-3

    def test_objective_decreases_from_start(self):
        model, data = separable_data()
        start, _ = weighted_nll_and_gradient(model, data, l2=1.0)
        res = optimize(model, data, TrainOptions(max_iter=50, l2=1.0))
        assert res.objective < start

    def test_warm_start_preserved_under_zero_iterations(self):
        model, data = separable_data()
        model.weights[:] = 0.25
        before = model.weights.copy()
        res = optimize(model, data, TrainOptions(max_iter=1))
        # one step may move, but the input model object keeps its weights
        np.testing.assert_array_equal(model.weights, before)
        assert res.model is not model

    def test_empty_model_short_circuits(self):
        # no templates produce no parameters
        model = build_model(SCHEME, [("a",)], templates=())
        res = optimize(model, [(("a",), (0,), 1.0)], TrainOptions())
        assert res.model.dim == 0
        assert res.iterations == 0

    def test_calls_minimize_through_the_module_attribute(self, monkeypatch):
        # the benchmark's tracer times L-BFGS by replacing crf.minimize
        calls = []
        real = crf.minimize

        def counting(*args, **kwargs):
            calls.append(1)
            return real(*args, **kwargs)

        monkeypatch.setattr(crf, "minimize", counting)
        model, data = separable_data()
        optimize(model, data, TrainOptions(max_iter=5))
        assert calls == [1]

    @pytest.mark.parametrize("case", ["converged", "iteration-limit", "line-search-failure"])
    def test_objective_and_gradient_norm_are_those_at_the_returned_weights(self, case, monkeypatch):
        if case == "line-search-failure":
            true_value_and_grad = crf._WeightedObjective.value_and_grad

            def uphill_below_5(self, theta):
                # one iteration, then the line search gives up away from the iterate
                value, grad = true_value_and_grad(self, theta)
                return value, -grad if value < 5.0 else grad

            monkeypatch.setattr(crf._WeightedObjective, "value_and_grad", uphill_below_5)
        model, data = separable_data()
        opts = TrainOptions(max_iter=3 if case == "iteration-limit" else 200, l2=0.01)
        res = optimize(model, data, opts)
        value, grad = crf._WeightedObjective(model, data, opts.l2).value_and_grad(res.model.weights)
        assert res.objective == value
        assert res.grad_norm == float(np.abs(grad).max())
        assert (res.converged, res.warning) == {
            "converged": (True, False), "iteration-limit": (False, False), "line-search-failure": (False, True)
        }[case]

    def test_deterministic(self):
        model, data = separable_data()
        r1 = optimize(model, data, TrainOptions(max_iter=60))
        r2 = optimize(model, data, TrainOptions(max_iter=60))
        np.testing.assert_array_equal(r1.model.weights, r2.model.weights)
        assert r1.objective == r2.objective


class TestPersistence:
    def test_round_trip_is_exact(self, tmp_path):
        rng = np.random.default_rng(8)
        model = build_model(SCHEME, [("alice", "saw", "paris"), ("bob", "left")])
        model.weights[:] = rng.normal(size=model.dim)
        path = tmp_path / "model.tsv"
        save_model(model, path)
        loaded = load_model(path)
        assert loaded.scheme.labels == model.scheme.labels
        assert loaded.scheme.kind == model.scheme.kind
        assert loaded.templates == model.templates
        assert list(loaded.obs_index) == list(model.obs_index)
        np.testing.assert_array_equal(loaded.weights, model.weights)

    def test_round_trip_preserves_inference(self, tmp_path):
        rng = np.random.default_rng(21)
        toks = ("alice", "saw", "paris")
        model = build_model(SCHEME, [toks])
        model.weights[:] = rng.normal(size=model.dim)
        save_model(model, tmp_path / "m.tsv")
        loaded = load_model(tmp_path / "m.tsv")
        p1 = extract_features(model, toks)
        p2 = extract_features(loaded, toks)
        assert log_partition(p1) == log_partition(p2)
        assert viterbi(p1) == viterbi(p2)

    def test_v1_fixture_and_its_v2_resave_load_equal(self, tmp_path):
        v1 = load_model(MODEL_V1)
        save_model(v1, tmp_path / "v2.tsv")
        lines = (tmp_path / "v2.tsv").read_text().splitlines()
        assert lines[0] == "crowdseq-crf v2"
        assert len(lines) == 5 + v1.n_obs + SCHEME.size
        v2 = load_model(tmp_path / "v2.tsv")
        assert v2.obs_index == v1.obs_index and list(v2.obs_index) == list(v1.obs_index)
        assert v2.templates == v1.templates and v2.scheme.labels == v1.scheme.labels
        assert v1.weights.tobytes() == v2.weights.tobytes()
        want = build_model(SCHEME, [("a", "b")])
        want.weights[:] = np.random.default_rng(2).normal(size=want.dim)
        assert v1.weights.tobytes() == want.weights.tobytes()

    def v1_lines(self, tmp_path):
        """A copy of the committed v1 fixture and its lines."""
        path = tmp_path / "m.tsv"
        shutil.copyfile(MODEL_V1, path)
        return path, path.read_text().splitlines()

    def v2_lines(self, tmp_path):
        """The fixture's model saved by save_model (v2) and its lines."""
        path = tmp_path / "m.tsv"
        save_model(load_model(MODEL_V1), path)
        return path, path.read_text().splitlines()

    def test_truncated_file_rejected(self, tmp_path):
        path, lines = self.v1_lines(tmp_path)
        path.write_text("\n".join(lines[:-3]) + "\n")
        with pytest.raises(ValueError, match="expected 70 lines, found 67"):
            load_model(path)

    def test_v2_truncated_file_rejected(self, tmp_path):
        path, lines = self.v2_lines(tmp_path)
        path.write_text("\n".join(lines[:-3]) + "\n")
        with pytest.raises(ValueError, match="expected 18 lines, found 15"):
            load_model(path)

    def test_surplus_lines_rejected(self, tmp_path):
        path, lines = self.v1_lines(tmp_path)
        path.write_text("\n".join(lines + ["", "extra"]) + "\n")
        with pytest.raises(ValueError, match=f"expected {len(lines)} lines, found {len(lines) + 2}"):
            load_model(path)

    def test_v2_surplus_lines_rejected(self, tmp_path):
        path, lines = self.v2_lines(tmp_path)
        path.write_text("\n".join(lines + ["", "extra"]) + "\n")
        with pytest.raises(ValueError, match="expected 18 lines, found 20"):
            load_model(path)

    @pytest.mark.parametrize("where", ["body", "bigram"])
    def test_wrong_field_count_names_the_line(self, tmp_path, where):
        path, lines = self.v1_lines(tmp_path)
        i = 6 if where == "body" else len(lines) - 1
        lines[i] += "\t0.5"
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError, match=f"^{re.escape(str(path))}, line {i + 1}: expected . tab-separated fields"):
            load_model(path)

    @pytest.mark.parametrize("where", ["body", "bigram"])
    def test_v2_wrong_field_count_names_the_line(self, tmp_path, where):
        path, lines = self.v2_lines(tmp_path)
        i, n = (6, 6) if where == "body" else (len(lines) - 1, 7)
        lines[i] += "\t0.5"
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(
            ValueError, match=f"^{re.escape(str(path))}, line {i + 1}: expected {n} tab-separated fields, found {n + 1}$"
        ):
            load_model(path)

    def test_non_numeric_weight_names_the_line(self, tmp_path):
        path, lines = self.v1_lines(tmp_path)
        lines[7] = lines[7].rsplit("\t", 1)[0] + "\tabc"
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError, match=f"^{re.escape(str(path))}, line 8: weight 'abc' is not a number"):
            load_model(path)

    @pytest.mark.parametrize("where", ["body", "bigram"])
    def test_v2_non_numeric_weight_names_the_line(self, tmp_path, where):
        path, lines = self.v2_lines(tmp_path)
        i = 7 if where == "body" else len(lines) - 2
        parts = lines[i].split("\t")
        parts[3] = "abc"  # a weight in the middle of the row
        lines[i] = "\t".join(parts)
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError, match=f"^{re.escape(str(path))}, line {i + 1}: weight 'abc' is not a number$"):
            load_model(path)

    def test_duplicate_observation_names_the_line(self, tmp_path):
        path, lines = self.v1_lines(tmp_path)
        m = SCHEME.size
        first = lines[5].split("\t")[0]
        for i in range(5 + m, 5 + 2 * m):  # the second block takes the first one's name
            lines[i] = first + "\t" + lines[i].split("\t", 1)[1]
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError, match=f"^{re.escape(str(path))}, line {6 + m}: duplicate observation"):
            load_model(path)

    def test_v2_duplicate_observation_names_the_line(self, tmp_path):
        path, lines = self.v2_lines(tmp_path)
        first = lines[5].split("\t")[0]
        lines[6] = first + "\t" + lines[6].split("\t", 1)[1]  # the second row takes the first one's name
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError, match=f"^{re.escape(str(path))}, line 7: duplicate observation {first!r}$"):
            load_model(path)

    @pytest.mark.parametrize("version", ["v1", "v2"])
    def test_bigram_label_order_names_the_line(self, tmp_path, version):
        path, lines = self.v1_lines(tmp_path) if version == "v1" else self.v2_lines(tmp_path)
        lines[-2], lines[-1] = lines[-1], lines[-2]
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError, match=f"^{re.escape(str(path))}, line {len(lines) - 1}: bigram block mismatch$"):
            load_model(path)

    def chunked_v2_lines(self, tmp_path, monkeypatch):
        """A v2 model of 24 observations read in chunks of five lines, and
        its lines; observation 13 (line 19) sits in the third chunk."""
        monkeypatch.setattr(crf, "_CHUNK_LINES", 5)
        model = build_model(SCHEME, [("alice", "saw", "paris")])
        assert model.n_obs == 24
        model.weights[:] = np.random.default_rng(4).normal(size=model.dim)
        path = tmp_path / "m.tsv"
        save_model(model, path)
        return path, path.read_text().splitlines()

    def assert_fault_at_line_19(self, path, lines, why):
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError, match=f"^{re.escape(str(path))}, line 19: {re.escape(why)}$"):
            load_model(path)

    def test_chunked_wrong_field_count_names_the_line(self, tmp_path, monkeypatch):
        path, lines = self.chunked_v2_lines(tmp_path, monkeypatch)
        lines[18] += "\t0.5"
        self.assert_fault_at_line_19(path, lines, "expected 6 tab-separated fields, found 7")

    def test_chunked_field_counts_that_cancel_name_the_first_line(self, tmp_path, monkeypatch):
        # the chunk keeps its tab count: one line has a surplus field, the next one too few
        path, lines = self.chunked_v2_lines(tmp_path, monkeypatch)
        lines[18] += "\t0.5"
        lines[19] = lines[19].rsplit("\t", 1)[0]
        self.assert_fault_at_line_19(path, lines, "expected 6 tab-separated fields, found 7")

    def test_chunked_non_numeric_weight_names_the_line(self, tmp_path, monkeypatch):
        path, lines = self.chunked_v2_lines(tmp_path, monkeypatch)
        parts = lines[18].split("\t")
        parts[3] = "abc"
        lines[18] = "\t".join(parts)
        self.assert_fault_at_line_19(path, lines, "weight 'abc' is not a number")

    @pytest.mark.parametrize("surplus", [False, True])
    def test_chunked_blank_line_names_the_line(self, tmp_path, monkeypatch, surplus):
        path, lines = self.chunked_v2_lines(tmp_path, monkeypatch)
        if surplus:  # a later line of the chunk carries the blank line's tabs
            lines[19] += "\t0.5" * SCHEME.size
        lines[18] = ""
        self.assert_fault_at_line_19(path, lines, "expected 6 tab-separated fields, found 1")

    def test_chunked_duplicate_of_an_earlier_chunk_names_the_line(self, tmp_path, monkeypatch):
        path, lines = self.chunked_v2_lines(tmp_path, monkeypatch)
        first = lines[6].split("\t")[0]  # observation 1, in the first chunk
        lines[18] = first + "\t" + lines[18].split("\t", 1)[1]
        self.assert_fault_at_line_19(path, lines, f"duplicate observation {first!r}")

    def test_chunked_truncated_body_rejected(self, tmp_path, monkeypatch):
        path, lines = self.chunked_v2_lines(tmp_path, monkeypatch)
        path.write_text("\n".join(lines[:18]) + "\n")
        with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: expected 34 lines, found 18$"):
            load_model(path)

    @pytest.mark.parametrize("text, value", [("1_0", 10.0), ("\u0661", 1.0), (" 2.5 ", 2.5)])
    def test_chunked_weights_only_float_reads_still_load(self, tmp_path, monkeypatch, text, value):
        path, lines = self.chunked_v2_lines(tmp_path, monkeypatch)
        want = load_model(path).weights.copy()
        parts = lines[18].split("\t")
        parts[3] = text
        lines[18] = "\t".join(parts)
        path.write_text("\n".join(lines) + "\n")
        got = load_model(path)
        want[13 * SCHEME.size + 2] = value
        assert got.weights.tobytes() == want.tobytes()
        assert list(got.obs_index.values()) == list(range(24))

    def test_chunked_weight_next_to_a_separator_is_refused(self, tmp_path, monkeypatch):
        # np.loadtxt strips \x1c around a number; float, and so the reader, refuses it
        path, lines = self.chunked_v2_lines(tmp_path, monkeypatch)
        parts = lines[18].split("\t")
        parts[3] = "\x1c1"
        lines[18] = "\t".join(parts)
        self.assert_fault_at_line_19(path, lines, "weight '\\x1c1' is not a number")

    @settings(max_examples=60, deadline=None)
    @given(
        chunk=st.integers(1, 4),
        names=st.lists(
            st.text(
                st.one_of(st.sampled_from(' #"'), st.characters(blacklist_categories=("Cs",), blacklist_characters="\t\n\r")),
                max_size=6,
            ),
            max_size=11,
            unique=True,
        ),
        bigram=st.booleans(),
        data=st.data(),
    )
    def test_round_trip_across_chunks_is_bit_identical(self, chunk, names, bigram, data):
        templates = DEFAULT_TEMPLATES if bigram else DEFAULT_TEMPLATES[:-1]
        model = crf.CrfModel(SCHEME, templates, dict(zip(names, range(len(names)))), np.zeros(0))
        edge = st.sampled_from([-0.0, 0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e308, -1e308])
        weights = data.draw(st.lists(st.one_of(edge, st.floats(allow_nan=False)), min_size=model.dim, max_size=model.dim))
        model.weights = np.array(weights, dtype=float)
        with pytest.MonkeyPatch.context() as mp, tempfile.TemporaryDirectory() as tmp:
            mp.setattr(crf, "_CHUNK_LINES", chunk)
            save_model(model, Path(tmp, "m.tsv"))
            loaded = load_model(Path(tmp, "m.tsv"))
        assert loaded.weights.tobytes() == model.weights.tobytes()
        assert list(loaded.obs_index.items()) == list(model.obs_index.items())

    @pytest.mark.parametrize("sep", ["\t", "\n", "\r"])
    def test_an_observation_holding_a_line_or_field_separator_is_refused(self, tmp_path, sep):
        model = build_model(LabelScheme.bio(("LOC",)), [(f"a{sep}b", "c")])
        with pytest.raises(ValueError, match="observation not serializable"):
            save_model(model, tmp_path / "m.tsv")
        assert not (tmp_path / "m.tsv").exists()

    def test_wrong_magic_rejected(self, tmp_path):
        path = tmp_path / "m.tsv"
        path.write_text("not a model\n")
        with pytest.raises(ValueError):
            load_model(path)


class TestConstrainedUse(object):
    def test_brute_valid_agrees_with_transition_matrix(self):
        cands = ((0, 1), (0, 2), (0, 1, 2))
        got = brute_valid(cands, SCHEME)
        for z in got:
            assert SCHEME.initial_allowed[z[0]]
            for a, b in zip(z, z[1:]):
                assert SCHEME.allowed_transitions[a, b]
