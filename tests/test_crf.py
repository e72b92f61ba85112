import re
import subprocess
import sys
import tempfile
import warnings
import zlib
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from corpus import make_gold
from hypothesis import example, given, settings
from hypothesis import strategies as st
from oracles import (
    Chain,
    batch,
    brute_log_partition,
    brute_marginals,
    brute_valid,
    brute_viterbi,
    brute_viterbi_last_first,
    brute_weighted_nll,
    chain,
    fired_observations,
    log_space_inference,
    log_space_weighted_nll,
    loop_obs_index,
    range_gap,
    loop_observation_rows,
    marginals,
    paths,
    random_potentials,
    model_file_parts,
    name_index,
    OLD_MODEL_FILES,
    TEMPLATES_LINE,
    sequence_score,
    position_observation,
    string_obs_index,
    template_observations,
    write_model_file,
)

from crowdseq import (
    LabelScheme,
    TrainOptions,
    build_model,
    decode,
    decode_file,
    expected_counts,
    extract_features,
    load_model,
    log_partition,
    optimize,
    save_model,
    viterbi,
    weighted_nll_and_gradient,
)
from crowdseq import crf
from crowdseq.crf import BOS_TOKEN, EOS_TOKEN

SCHEME = LabelScheme.bio(("LOC", "PER"))
TEMPLATE = {tpl.spec_string: tpl for tpl in crf.TEMPLATES}


def small_model():
    """``build_model(SCHEME, [("a", "b")])``, 8 observations over 5 labels,
    with ``np.random.default_rng(2).normal`` weights."""
    model = build_model(SCHEME, [("a", "b")])
    model.weights[:] = np.random.default_rng(2).normal(size=model.dim)
    return model


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
    """The weighted objective built from log_partition on a batch of one and
    the pair marginals of ``marginals``, one example at a time."""
    m = model.scheme.size
    grad_u = np.zeros((model.n_obs, m))
    grad_b = np.zeros((m, m))
    value = 0.5 * l2 * float(model.weights @ model.weights)
    for tokens, labels, w in data:
        pot = chain(model, tokens)
        uni, pair = marginals(pot)
        value += w * (log_partition(batch(pot))[0] - sequence_score(pot, labels))
        observed = np.eye(m)[list(labels)]
        for t, rows in enumerate(loop_observation_rows(model, tokens)):
            np.add.at(grad_u, rows, w * (uni[t] - observed[t]))
        grad_b += w * pair.sum(axis=0)
        np.add.at(grad_b, (labels[:-1], labels[1:]), -w)
    grad = np.concatenate([grad_u.ravel(), grad_b.ravel()]) + l2 * model.weights
    return value, grad


class TestTemplates:
    def test_one_feature_set_in_the_model_file_order(self):
        assert "\t".join(["templates", *TEMPLATE, "label-bigram"]) == TEMPLATES_LINE

    def test_token_identity(self):
        assert template_observations(TEMPLATE["token-identity"], ("Big", "apple")) == ["w=Big", "w=apple"]

    def test_lowercase(self):
        assert template_observations(TEMPLATE["token-lowercase"], ("Big",)) == ["wl=big"]

    def test_prefix_requires_enough_characters(self):
        assert template_observations(TEMPLATE["prefix-3"], ("abcd", "ab")) == ["p3=abc", None]

    def test_suffix(self):
        assert template_observations(TEMPLATE["suffix-2"], ("hello",)) == ["s2=lo"]

    def test_shape_predicates(self):
        assert template_observations(TEMPLATE["is-capitalized"], ("Rome", "rome")) == ["cap", None]
        assert template_observations(TEMPLATE["is-digit"], ("1984", "x1")) == ["num", None]

    def test_neighbors_use_boundary_tokens(self):
        neighbours = [obs for obs in build_model(SCHEME, [("a", "b")]).obs_index if obs.startswith(("w-1=", "w+1="))]
        assert neighbours == [f"w-1={BOS_TOKEN}", "w+1=b", "w-1=a", f"w+1={EOS_TOKEN}"]


class TestBuildModel:
    def test_unseen_observation_contributes_nothing(self):
        model = build_model(SCHEME, [("alpha", "beta")])
        (ids,) = crf._InputTable([("gamma",)]).look_up(model).ids()
        known = set(model.obs_index.values())
        assert all(r in known for r in ids[ids >= 0])
        # gamma itself was never interned, so its identity template fires nothing
        assert "w=gamma" not in model.obs_index
        assert ids[0] == -1

    def test_dimension_counts_unary_and_bigram_blocks(self):
        model = build_model(SCHEME, [("a",)])
        assert model.dim == model.n_obs * SCHEME.size + SCHEME.size**2

    def test_weights_start_at_zero(self):
        model = build_model(SCHEME, [("a", "b")])
        assert (model.weights == 0).all()

    def test_interning_is_insertion_ordered(self):
        model = build_model(SCHEME, [("b", "a")])
        assert list(model.obs_index) == [
            "w=b", "wl=b", f"w-1={BOS_TOKEN}", "w+1=a", "w=a", "wl=a", "w-1=b", f"w+1={EOS_TOKEN}"
        ]

    def test_interning_matches_the_per_position_loop(self):
        # capitals, digits, tokens shorter than the affix widths, repeats,
        # one-token and empty sentences, and tokens spelling the edge markers
        seqs = [
            ("Rome", "1984", "a"), (), ("x",), ("a", BOS_TOKEN, "Rome"),
            (EOS_TOKEN, "ab", "ROME", "rome", "42"), ("1984",), ("Rome", "1984", "a"),
        ]
        model = build_model(SCHEME, iter(seqs))
        assert list(model.obs_index.items()) == list(loop_obs_index(seqs).items())
        kinds = {obs.split("=")[0] for obs in model.obs_index}
        assert kinds == {"w", "wl", "p2", "p3", "s2", "s3", "cap", "num", "w-1", "w+1"}
        assert f"w-1={BOS_TOKEN}" in model.obs_index and f"w+1={EOS_TOKEN}" in model.obs_index

    # the edge markers as tokens, tokens too short for any affix, digits,
    # capitals and repeated types; empty sentences and an empty corpus
    corpora = st.lists(
        st.lists(st.sampled_from([BOS_TOKEN, EOS_TOKEN, "a", "B", "7", "ab", "1984", "Rome", "rome", "Ñandú"]), max_size=6),
        max_size=5,
    )

    @settings(max_examples=100, deadline=None)
    @given(seqs=corpora, other=corpora)
    @example(seqs=[], other=[[BOS_TOKEN, "a", EOS_TOKEN]])
    def test_the_featurizer_matches_the_string_interning_oracle(self, seqs, other):
        model = build_model(SCHEME, seqs)
        assert list(model.obs_index.items()) == list(string_obs_index(seqs).items())
        for batch in (seqs, other):  # look_up: each template's observation at each position, looked up alone
            want = [
                [model.obs_index.get(position_observation(tpl, tokens, t), -1) for tpl in crf.TEMPLATES]
                for tokens in batch for t in range(len(tokens))
            ]
            assert crf._InputTable(batch).look_up(model).ids().tolist() == want
        # given a table, build_model leaves it as look_up leaves one
        table = crf._InputTable(seqs)
        assert list(build_model(SCHEME, table).obs_index.items()) == list(model.obs_index.items())
        looked = crf._InputTable(seqs).look_up(model)
        assert [(off, col.tolist()) for off, col in table.columns] == [(off, col.tolist()) for off, col in looked.columns]


class TestBareSentence:
    """One sentence where a list of them belongs is refused by every entry
    point: its tokens would pass for sentences of characters."""

    REFUSED = r"^a sentence is a sequence of tokens, not a string: pass \[tokens\] for one sentence$"
    BARE = (("Big", "apple"), ["Big", "apple"], "Big")

    def test_build_model(self):
        for bare in self.BARE:
            with pytest.raises(ValueError, match=self.REFUSED):
                build_model(SCHEME, bare)

    def test_extract_features(self):
        model = build_model(SCHEME, [("Big", "apple")])
        for bare in self.BARE:
            with pytest.raises(ValueError, match=self.REFUSED):
                extract_features(model, bare)

    def test_optimize(self):
        model = build_model(SCHEME, [("Big", "apple")])
        with pytest.raises(ValueError, match=self.REFUSED):
            optimize(model, [("Big", (0, 0, 0), 1.0)])

    def test_weighted_nll_and_gradient(self):
        model = build_model(SCHEME, [("Big", "apple")])
        with pytest.raises(ValueError, match=self.REFUSED):
            weighted_nll_and_gradient(model, [("Big", (0, 0, 0), 1.0)])


class TestFeatures:
    def edge_batch(self):
        """A model with random weights, and a ragged batch of sentences with
        length-1 sentences, tokens shorter than the affix widths, digits,
        capitals, tokens the model never interned and one token ("x") ending
        a sentence and starting the next."""
        model = build_model(SCHEME, [("x", "x"), ("Rome", "ab", "1984"), ("a",)])
        model.weights[:] = np.random.default_rng(6).normal(size=model.dim)
        sentences = [
            ("Rome", "x"),
            ("x",),
            ("x", "ab", "1984"),
            ("a",),
            ("Paris", "zz9", "x"),
            ("x", "never", "seen", "Rome"),
        ]
        return model, sentences

    def test_batch_matches_one_sentence_at_a_time(self):
        model, sentences = self.edge_batch()
        pots = extract_features(model, sentences)
        assert pots.lengths == [len(tokens) for tokens in sentences]
        assert np.array_equal(pots.pairwise, model.bigram_weights())
        assert not np.shares_memory(pots.pairwise, model.weights)
        for tokens, unary in zip(sentences, np.split(pots.unary, np.cumsum(pots.lengths)[:-1])):
            assert np.array_equal(unary, chain(model, tokens).unary)

    def test_rows_match_the_per_position_template_loop(self):
        model, sentences = self.edge_batch()
        got = [row[row >= 0].tolist() for row in crf._InputTable(sentences).look_up(model).ids()]
        want = [r.tolist() for tokens in sentences for r in loop_observation_rows(model, tokens)]
        assert got == want
        wu = model.unary_weights()
        for tokens in sentences:
            want = loop_observation_rows(model, tokens)
            unary = np.array([wu[r].sum(axis=0) if r.size else np.zeros(SCHEME.size) for r in want])
            assert np.array_equal(chain(model, tokens).unary, unary)


class TestInferenceOracles:
    # exhaustive-enumeration equivalence on small random instances
    @pytest.mark.parametrize("seed", range(8))
    def test_log_partition_matches_enumeration(self, seed):
        rng = np.random.default_rng(seed)
        pot = random_potentials(rng, L=int(rng.integers(1, 7)), M=int(rng.integers(2, 5)))
        assert log_partition(batch(pot))[0] == pytest.approx(brute_log_partition(pot), rel=1e-10)

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
        assert paths(batch(pot)) == [brute_viterbi(pot)]

    def test_viterbi_ties_resolve_to_lowest_index(self):
        pot = random_potentials(np.random.default_rng(0), L=4, M=3)
        pot.unary[:] = 0.0
        pot.pairwise[:] = 0.0
        assert paths(batch(pot)) == [(0, 0, 0, 0)]

    @pytest.mark.parametrize("seed", range(8))
    def test_viterbi_ties_go_to_the_lowest_last_label_then_back(self, seed):
        # potentials in {-1, 0, 1}: every sum is exact, so tied paths tie exactly
        rng = np.random.default_rng(seed + 500)
        m = int(rng.integers(2, 5))

        def table(*shape):
            return rng.integers(-1, 2, size=shape).astype(float)

        pairwise = table(m, m)
        pots = [Chain(table(int(rng.integers(1, 6)), m), pairwise) for _ in range(8)]
        want = [brute_viterbi_last_first(pot) for pot in pots]
        assert paths(batch(*pots)) == want

    def test_viterbi_tie_rule_is_not_the_lexicographic_one(self):
        pot = Chain(np.zeros((2, 2)), np.array([[0.0, 1.0], [1.0, 0.0]]))  # (0, 1) and (1, 0) tie
        assert paths(batch(pot)) == [brute_viterbi_last_first(pot)] == [(1, 0)]
        assert brute_viterbi(pot) == (0, 1)

    def test_marginal_rows_are_distributions(self):
        rng = np.random.default_rng(9)
        pot = random_potentials(rng, L=6, M=4)
        u, b = marginals(pot)
        np.testing.assert_allclose(u.sum(axis=1), 1.0, atol=1e-12)
        np.testing.assert_allclose(b.sum(axis=(1, 2)), 1.0, atol=1e-12)

    def test_length_one_sequence(self):
        pot = random_potentials(np.random.default_rng(3), L=1, M=4)
        assert log_partition(batch(pot))[0] == pytest.approx(brute_log_partition(pot), rel=1e-12)
        assert len(viterbi(batch(pot))) == 1

    @pytest.mark.parametrize("seed", range(4))
    def test_a_ragged_batch_matches_enumeration(self, seed):
        # sequences of 1 to 6 positions under one shared table, in one pass each
        rng = np.random.default_rng(seed + 300)
        m = int(rng.integers(2, 5))
        pairwise = rng.normal(size=(m, m))
        pots = [Chain(rng.normal(size=(int(rng.integers(1, 7)), m)), pairwise) for _ in range(5)]
        logz, unary, pairs = expected_counts(batch(*pots))
        np.testing.assert_allclose(logz, [brute_log_partition(pot) for pot in pots], rtol=1e-10)
        assert log_partition(batch(*pots)).tolist() == logz.tolist()
        want = [brute_marginals(pot) for pot in pots]
        np.testing.assert_allclose(unary, np.concatenate([uni for uni, _ in want]), atol=1e-10)
        np.testing.assert_allclose(pairs, [pair.sum(axis=0) for _, pair in want], atol=1e-10)
        assert paths(batch(*pots)) == [brute_viterbi(pot) for pot in pots]


class TestDecode:
    def test_matches_per_sentence_viterbi_on_a_ragged_batch(self):
        rng = np.random.default_rng(17)
        model, data = ragged_batch(rng, extra_lengths=(9, 1, 4))
        seqs = [tokens for tokens, _, _ in data]
        seqs.append(seqs[2])  # the same sentence twice
        lengths = [len(tokens) for tokens in seqs]
        assert 1 in lengths and lengths != sorted(lengths, reverse=True)
        expected = [path for tokens in seqs for path in paths(extract_features(model, [tokens]))]
        assert decode(model, seqs) == expected
        assert paths(extract_features(model, seqs)) == expected

    def test_all_zero_weights_tie_everywhere_to_label_zero(self):
        seqs = [("a", "b", "c"), ("d",), ("e", "f", "g", "h", "i"), ("j", "k")]
        model = build_model(SCHEME, seqs)
        assert decode(model, seqs) == [(0,) * len(tokens) for tokens in seqs]

    def test_empty_batch(self):
        model = build_model(SCHEME, [("a",)])
        empty = extract_features(model, [])
        assert empty.unary.shape == (0, SCHEME.size) and empty.lengths == []
        assert log_partition(empty).shape == (0,)
        assert viterbi(empty).shape == (0,)
        m = SCHEME.size
        assert [part.shape for part in expected_counts(empty)] == [(0,), (0, m), (0, m, m)]
        assert decode(model, []) == []

    @pytest.mark.parametrize("seed", range(6))
    def test_matches_per_sentence_viterbi_on_random_batches(self, seed):
        # few words, some never interned, and weights mostly zero: many ties
        rng = np.random.default_rng(seed + 40)
        words = ["a", "B", "c3", "dd", "Ee", "7"]

        def sentence():
            return tuple(str(w) for w in rng.choice(words, size=int(rng.integers(1, 7))))

        seqs = [sentence() for _ in range(int(rng.integers(1, 12)))] + [(words[0],), (words[5],)]
        model = build_model(SCHEME, [sentence() for _ in range(3)])
        model.weights[:] = rng.normal(size=model.dim) * (rng.random(model.dim) < 0.2)
        expected = [path for tokens in seqs for path in paths(extract_features(model, [tokens]))]
        assert decode(model, seqs) == expected
        for tokens, path in zip(seqs, expected):  # a best path, though not always the brute force's pick among ties
            pot = chain(model, tokens)
            assert sequence_score(pot, path) == pytest.approx(sequence_score(pot, brute_viterbi(pot)), abs=1e-12)

    @pytest.mark.parametrize("fn", [log_partition, expected_counts, viterbi], ids=lambda fn: fn.__name__)
    def test_a_batch_whose_tables_do_not_fit_is_refused(self, fn):
        # a table per step, a table of other labels, and lengths short of or
        # past the rows: short ones used to score a cut batch without a word
        rng = np.random.default_rng(4)
        pots = batch(random_potentials(rng, L=3, M=3), random_potentials(rng, L=2, M=3))
        for bad, message in (
            (replace(pots, pairwise=rng.normal(size=(4, 3, 3))), r"^pairwise table of shape \(4, 3, 3\): expected one \(3, 3\) table$"),
            (replace(pots, pairwise=np.zeros((2, 2))), r"^pairwise table of shape \(2, 2\): expected one \(3, 3\) table$"),
            (replace(pots, lengths=[3, 1]), "^lengths add up to 4, not to the 5 unary rows$"),
            (replace(pots, lengths=[3, 2, 1]), "^lengths add up to 6, not to the 5 unary rows$"),
        ):
            with pytest.raises(ValueError, match=message):
                fn(bad)

    def test_back_pointers_hold_more_than_255_labels(self):
        rng = np.random.default_rng(8)
        m = 300
        pots = [Chain(rng.normal(size=(n, m)), rng.normal(size=(m, m))) for n in (4, 1)]
        pots[0].unary[:3, 299] += 50.0  # the back-pointers into position 0, 1 and 2 read 299
        score, back = pots[0].unary[0], []
        for row in pots[0].unary[1:]:
            cand = score[:, None] + pots[0].pairwise
            back.append(cand.argmax(axis=0))
            score = cand.max(axis=0) + row
        path = [int(score.argmax())]
        for b in reversed(back):
            path.append(int(b[path[-1]]))
        assert paths(batch(*pots)) == [tuple(reversed(path)), (int(pots[1].unary[0].argmax()),)]
        assert path[1:] == [299, 299, 299]


class TestBatchedLogPartition:
    @pytest.mark.parametrize("m", [3, 7, 9])
    def test_matches_one_sentence_calls_bit_for_bit_and_enumeration(self, m):
        rng = np.random.default_rng(m)
        pairwise = rng.normal(size=(m, m)) * 2
        lengths = rng.permutation(np.arange(1, 41))
        pots = [Chain(rng.normal(size=(n, m)) * 3, pairwise) for n in lengths]
        logz = log_partition(batch(*pots))
        assert logz.shape == (len(pots),)
        assert logz.tolist() == [log_partition(batch(pot))[0] for pot in pots]
        enumerable = [(pot, z) for pot, z in zip(pots, logz) if m**pot.length <= 1000]
        assert len(enumerable) >= 2
        for pot, z in enumerable:
            assert abs(z - brute_log_partition(pot)) <= 1e-10

    def test_an_empty_sequence_is_a_value_error(self):
        empty = Chain(np.zeros((0, 3)), np.zeros((3, 3)))
        for fn in (log_partition, expected_counts, viterbi):
            for pots in ((empty,), (Chain(np.zeros((2, 3)), empty.pairwise), empty)):
                with pytest.raises(ValueError, match="^empty sequence$"):
                    fn(batch(*pots))

    def test_a_preset_packing_gives_the_same_bits(self, monkeypatch):
        # ragged, unsorted lengths with ties, and -inf entries: the batch's
        # packing, made once as EM makes its corpus's, is the one used
        pots = masked_batch(np.random.default_rng(23), [3, 5, 1, 5, 3, 2, 3, 1], 4)
        plain = batch(*pots)
        preset = replace(plain, pack=crf._Packing(plain.lengths))
        want = [log_partition(plain), *expected_counts(plain), viterbi(plain)]
        monkeypatch.setattr(crf, "_Packing", None)  # no entry point may pack the batch again
        got = [log_partition(preset), *expected_counts(preset), viterbi(preset)]
        assert [a.tobytes() for a in got] == [a.tobytes() for a in want]


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
        pots.append(Chain(unary, pairwise))
    return pots


class TestMaskedInference:
    @pytest.mark.parametrize("m", [2, 3, 4])
    def test_expected_counts_match_enumeration(self, m):
        rng = np.random.default_rng([m, 61])
        pots = masked_batch(rng, [3, 1, 5, 2, 5, 4], m)
        logz, unary, pairs = expected_counts(batch(*pots))
        assert len(logz) == len(pairs) == len(pots) and len(unary) == sum(pot.length for pot in pots)
        for pot, z, uni, pair in zip(pots, logz, np.split(unary, np.cumsum([pot.length for pot in pots])[:-1]), pairs):
            assert z == pytest.approx(brute_log_partition(pot), rel=1e-10)
            assert z == log_partition(batch(pot))[0]
            bu, bb = brute_marginals(pot)
            np.testing.assert_allclose(uni, bu, atol=1e-10)
            np.testing.assert_allclose(pair, bb.sum(axis=0), atol=1e-10)
            np.testing.assert_allclose(uni, marginals(pot)[0], atol=1e-14)
            assert paths(batch(pot)) == [brute_viterbi(pot)]
        assert paths(batch(*pots)) == [paths(batch(pot))[0] for pot in pots]

    def test_nan_and_plus_inf_are_refused_at_every_entry_point(self):
        for bad in (np.nan, np.inf):
            for where in ("unary", "pairwise"):
                pot = random_potentials(np.random.default_rng(3), L=3, M=3)
                getattr(pot, where)[1, 2] = bad
                for fn in (log_partition, expected_counts, viterbi):
                    with pytest.raises(ValueError, match="^potentials must not be NaN or \\+inf$"):
                        fn(batch(pot))

    def test_a_sequence_with_no_finite_path_is_refused_by_index(self):
        rng = np.random.default_rng(7)
        live = masked_batch(rng, [3, 2], 3)
        dead = Chain(live[0].unary.copy(), live[0].pairwise)
        dead.unary[1] = -np.inf
        assert log_partition(batch(dead))[0] == -np.inf
        with pytest.raises(ValueError, match="^instance 1 has no finite-scoring path$"):
            expected_counts(batch(live[0], dead, live[1], dead), "instance")
        with pytest.raises(ValueError, match="^sequence 0 has no finite-scoring path$"):
            expected_counts(batch(dead))


def ranged_batch(rng, lengths, m, spread, p_inf):
    """Potentials sharing one pairwise table: finite entries spread over up
    to ``spread`` nats within each unary row and the table, on row offsets
    of 1 to 50 nats (so log Z stays away from 0, where a relative bound says
    nothing), and about a share ``p_inf`` of -inf entries on the unary and
    on the transitions.  One random path per sequence stays finite, and a
    finite transition is added wherever a label finite at one position
    would have none into a finite label of the next, so no path dead-ends."""
    pairwise = rng.uniform(-spread, 0.0, (m, m)) + rng.uniform(-20.0, 20.0)
    finite_pairwise = pairwise.copy()
    pairwise[rng.random(pairwise.shape) < p_inf] = -np.inf
    pots = []
    for n in lengths:
        finite = rng.uniform(-spread, 0.0, (n, m)) + rng.uniform(1.0, 50.0, (n, 1))
        unary = np.where(rng.random((n, m)) < p_inf, -np.inf, finite)
        path = rng.integers(m, size=n)
        unary[np.arange(n), path] = finite[np.arange(n), path]
        for t in range(n - 1):
            ahead = unary[t + 1] > -np.inf
            for i in np.flatnonzero(unary[t] > -np.inf):
                if not (ahead & (pairwise[i] > -np.inf)).any():
                    pairwise[i, path[t + 1]] = finite_pairwise[i, path[t + 1]]
        pots.append(Chain(unary, pairwise))
    return pots


RANGE = "its path scores span more than the float64 range"


class TestLogSpaceOracle:
    """The scaled kernel against the log-space recursion it replaced.  It
    may refuse a sequence as out of range only where the log-space messages
    show a ratio beyond the float64 range (``range_gap``)."""

    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        length=st.integers(1, 400),
        m=st.integers(2, 5),
        spread=st.floats(0.01, 300.0),
        p_inf=st.sampled_from([0.0, 0.2, 0.5]),
    )
    def test_log_partition_and_marginals(self, seed, length, m, spread, p_inf):
        (pot,) = ranged_batch(np.random.default_rng(seed), [length], m, spread, p_inf)
        try:
            got_uni, got_pair = marginals(pot)
        except ValueError as err:
            assert str(err) == f"sequence 0: {RANGE}"
            assert range_gap(pot) > 700
            return
        logz, uni, pair = log_space_inference(pot)
        assert log_partition(batch(pot))[0] == pytest.approx(logz, rel=1e-12)
        np.testing.assert_allclose(got_uni, uni, rtol=0, atol=1e-10)
        np.testing.assert_allclose(got_pair, pair, rtol=0, atol=1e-10)

    @settings(max_examples=30, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        lengths=st.lists(st.integers(1, 400), min_size=1, max_size=4),
        m=st.integers(2, 5),
        spread=st.floats(0.01, 300.0),
        p_inf=st.sampled_from([0.0, 0.2, 0.5]),
    )
    def test_expected_counts(self, seed, lengths, m, spread, p_inf):
        pots = ranged_batch(np.random.default_rng(seed), lengths, m, spread, p_inf)
        try:
            logz, unary, pairs = expected_counts(batch(*pots))
        except ValueError as err:
            i = int(re.fullmatch(f"sequence (\\d+): {RANGE}", str(err)).group(1))
            assert range_gap(pots[i]) > 700
            return
        per_sequence = np.split(unary, np.cumsum(lengths)[:-1])
        for pot, got_z, got_uni, got_pair in zip(pots, logz, per_sequence, pairs):
            ref_z, uni, pair = log_space_inference(pot)
            assert got_z == pytest.approx(ref_z, rel=1e-12)
            np.testing.assert_allclose(got_uni, uni, rtol=0, atol=1e-10)
            np.testing.assert_allclose(got_pair, pair.sum(axis=0), rtol=0, atol=1e-10)

    @settings(max_examples=20, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        lengths=st.lists(st.integers(1, 400), min_size=1, max_size=3),
        scale=st.floats(0.01, 20.0),
    )
    def test_weighted_nll_and_gradient(self, seed, lengths, scale):
        rng = np.random.default_rng(seed)
        words = ["aa", "Bb", "c1", "dd", "42", "eee"]
        data = []
        for n in lengths:
            tokens = tuple(rng.choice(words, size=n).tolist())
            data.append((tokens, tuple(rng.integers(SCHEME.size, size=n).tolist()), rng.uniform(0.1, 2.0)))
        model = build_model(SCHEME, [tokens for tokens, _, _ in data])
        model.weights[:] = rng.normal(size=model.dim) * scale
        value, grad = weighted_nll_and_gradient(model, data, l2=0.5)
        ref_value, ref_grad = log_space_weighted_nll(model, data, l2=0.5)
        assert value == pytest.approx(ref_value, rel=1e-12)
        np.testing.assert_allclose(grad, ref_grad, rtol=0, atol=1e-10)


class TestScaledRange:
    @staticmethod
    def dead_end_chain(gap):
        """Three positions, two labels: label 0 first outscores label 1 by
        ``gap`` nats but has no finite transition onward, so every path
        starts with label 1 and log Z = -gap + log 2."""
        unary = np.array([[0.0, -gap], [0.0, 0.0], [0.0, 0.0]])
        return Chain(unary, np.array([[-np.inf, -np.inf], [0.0, 0.0]]))

    def test_a_live_path_far_below_a_dead_end_is_refused_by_name(self):
        live = self.dead_end_chain(600.0)
        assert log_partition(batch(live))[0] == pytest.approx(-600.0 + np.log(2.0), rel=1e-15)
        far = self.dead_end_chain(760.0)
        assert range_gap(far) > 750
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for fn, message in (
                (lambda pot: log_partition(batch(pot)), "sequence 0"),
                (lambda pot: expected_counts(batch(pot)), "sequence 0"),
                (lambda pot: log_partition(batch(live, pot)), "sequence 1"),
                (lambda pot: expected_counts(batch(live, pot), "instance"), "instance 1"),
            ):
                with pytest.raises(ValueError, match=f"^{message}: {RANGE}$"):
                    fn(far)

    def test_one_step_spanning_more_than_the_range_is_refused(self):
        # the one path takes a transition 800 nats below the step's best
        pot = Chain(np.array([[0.0, -np.inf], [-np.inf, 0.0]]), np.array([[0.0, -800.0], [0.0, 0.0]]))
        with pytest.raises(ValueError, match=f"^sequence 0: {RANGE}$"):
            log_partition(batch(pot))

    def test_prefixes_and_suffixes_that_no_path_joins_are_refused(self):
        # label 1 is never reached, yet its suffixes outscore label 0's by
        # 600 nats a step: unnormalized, the backward pass would overflow
        unary = np.array([[0.0, -np.inf], [-600.0, 0.0], [-600.0, 0.0], [-600.0, 0.0]])
        joinless = Chain(unary, np.array([[0.0, -np.inf], [0.0, 0.0]]))
        # the one path is 0, 1, 0; at position 1, label 2 is the better by
        # 360 nats but unreachable, and the step on from label 1 is 360 nats
        # below the one from label 2: each factor of the pair marginal's sum
        # stays in range, 360 nats down, but their product, 720 nats down,
        # does not
        table = np.full((3, 3), -np.inf)
        table[0, 1], table[1, 0], table[2, 0] = 0.0, -360.0, 0.0
        pair_far = Chain(np.array([[0.0, -np.inf, -np.inf], [-np.inf, -360.0, 0.0], [0.0, -np.inf, -np.inf]]), table)
        assert range_gap(joinless) > 708 and range_gap(pair_far) > 708
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for pot in (joinless, pair_far):
                for fn in (marginals, lambda pot: expected_counts(batch(pot))):
                    with pytest.raises(ValueError, match=f"^sequence 0: {RANGE}$"):
                        fn(pot)

    def test_a_chain_with_no_path_keeps_minus_inf_and_its_message(self):
        # the path dies at position 250 of 300, after many normalizations
        rng = np.random.default_rng(12)
        pairwise = rng.normal(size=(3, 3))
        dead = Chain(rng.normal(size=(300, 3)), pairwise)
        dead.unary[250] = -np.inf
        live = Chain(rng.normal(size=(40, 3)), pairwise)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            logz = log_partition(batch(live, dead))
            assert logz[1] == -np.inf and np.isfinite(logz[0])
            with pytest.raises(ValueError, match="^instance 1 has no finite-scoring path$"):
                expected_counts(batch(live, dead), "instance")
            with pytest.raises(ValueError, match="^sequence 0 has no finite-scoring path$"):
                expected_counts(batch(dead))

    def test_a_2000_token_sentence_gives_a_finite_objective_and_gradient(self):
        gold = make_gold(400, seed=8)
        tokens = tuple(tok for inst in gold.instances for tok in inst.tokens)[:2000]
        labels = tuple(lab for inst in gold.instances for lab in inst.gold)[:2000]
        assert len(tokens) == 2000
        model = build_model(gold.scheme, [tokens])
        model.weights[:] = np.random.default_rng(8).normal(size=model.dim)
        value, grad = weighted_nll_and_gradient(model, [(tokens, labels, 1.0)], l2=1.0)
        ref_value, ref_grad = log_space_weighted_nll(model, [(tokens, labels, 1.0)], l2=1.0)
        assert np.isfinite(value) and np.isfinite(grad).all()
        assert value == pytest.approx(ref_value, rel=1e-12)
        np.testing.assert_allclose(grad, ref_grad, rtol=0, atol=1e-10)


class TestGradient:
    def test_unary_table_and_scatter_add_in_position_then_template_order(self):
        # the order of the per-position, per-template loop below, and so its bits
        rng = np.random.default_rng(4)
        gold = make_gold(30, seed=4)
        model = build_model(gold.scheme, [inst.tokens for inst in gold.instances])
        corpus = crf._Corpus(model, crf._InputTable([inst.tokens for inst in gold.instances]).look_up(model))
        m = model.scheme.size
        wu = rng.normal(size=(model.n_obs, m))
        table = rng.random((len(corpus.ids), m))
        want_unary, want_scatter = np.zeros(table.shape), np.zeros(wu.shape)
        for p, row in enumerate(corpus.ids.tolist()):
            for o in row:
                if o >= 0:
                    want_unary[p] += wu[o]
                    want_scatter[o] += table[p]
        assert crf._unary_table(wu, corpus.ids).tobytes() == want_unary.tobytes()
        assert corpus.scatter(table).tobytes() == want_scatter.tobytes()

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
    of sum(cosh(x)): L-BFGS takes a few steps towards 0, then no step along
    its direction lowers the value enough and its line search gives up."""
    value = float(np.sum(np.cosh(x)))
    return value + (value < 5.01), np.sinh(x)


def separable_fit():
    model, data = separable_data()
    return crf._WeightedObjective(crf._examples(model, data), l2=0.01).value_and_grad, model.weights


def rosenbrock_50():
    return rosenbrock, np.tile([-1.2, 1.0], 25)


def steep_bowl():
    """4 x^2 from 0.5: the first trial step lands on -0.5, where the value
    is the same, so only sufficient decrease refuses it."""
    return (lambda x: (float(4.0 * x @ x), 8.0 * x)), np.array([0.5])


class TestMinimize:
    @pytest.mark.parametrize("problem", [separable_fit, rosenbrock_50, steep_bowl])
    def test_every_accepted_step_decreases_sufficiently(self, problem):
        fun, x0 = problem()
        seen = []

        def spy(x):
            value, grad = fun(x)
            seen.append((x.copy(), value, grad))
            return value, grad

        res = crf.minimize(spy, x0, 1000, 1e-5)
        # walk the evaluations: a trial becomes the iterate exactly when it
        # meets the Armijo condition at the current one
        (x, f, g), accepted = seen[0], 0
        for x_new, f_new, g_new in seen[1:]:
            if f_new <= f + 1e-4 * float(g @ (x_new - x)):
                assert f_new < f
                (x, f, g), accepted = (x_new, f_new, g_new), accepted + 1
        assert res.status == 0 and (res.nit, res.nfev) == (accepted, len(seen))
        assert res.x.tobytes() == x.tobytes() and res.fun == f and res.jac.tobytes() == g.tobytes()

    def test_rosenbrock_converges(self):
        res = crf.minimize(*rosenbrock_50(), 1000, 1e-5)
        assert res.status == 0 and res.success
        assert float(np.abs(res.x - 1.0).max()) < 1e-4
        assert float(np.abs(res.jac).max()) <= 1e-5

    def test_drops_a_pair_of_negative_curvature(self):
        # -cos(x) is concave near 3, so the first step's s.y < 0; kept, it
        # would turn the next direction uphill
        res = crf.minimize(lambda x: (-float(np.cos(x).sum()), np.sin(x)), np.array([3.0]), 100, 1e-8)
        assert res.status == 0 and abs(float(res.x[0])) < 1e-6

    def test_a_failed_line_search_returns_the_last_iterate(self):
        res = crf.minimize(cosh_with_a_step, np.linspace(-2.0, 3.0, 5), 100, 1e-5)
        assert res.status == 2 and not res.success and res.nit >= 1
        value, grad = cosh_with_a_step(res.x)
        assert res.fun == value and res.jac.tobytes() == grad.tobytes()

    @pytest.mark.parametrize("problem", [separable_fit, rosenbrock_50])
    def test_stops_at_the_iteration_limit(self, problem):
        fun, x0 = problem()
        res = crf.minimize(fun, x0, 5, 1e-5)
        assert (res.status, res.nit) == (1, 5) and not res.success
        value, grad = fun(res.x)
        assert res.fun == value and res.jac.tobytes() == grad.tobytes()

    def test_leaves_x0_unchanged(self):
        fun, x0 = rosenbrock_50()
        before = x0.copy()
        res = crf.minimize(fun, x0, 50, 1e-5)
        assert x0.tobytes() == before.tobytes() and res.x is not x0

    def test_a_stationary_start_takes_no_step(self):
        res = crf.minimize(lambda x: (float(x @ x), 2 * x), np.zeros(3), 10, 1e-5)
        assert (res.status, res.nit, res.nfev) == (0, 0, 1)

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
        assert proc.stdout.split() == ["[]"]


class TestOptimize:

    def test_separable_data_fits_exactly(self):
        model, data = separable_data()
        res = optimize(model, data, TrainOptions(max_iter=200, l2=0.01))
        assert res.converged
        assert decode(res.model, [toks for toks, _, _ in data]) == [z for _, z, _ in data]

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
        value, grad = crf._WeightedObjective(crf._examples(model, data), opts.l2).value_and_grad(res.model.weights)
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


# decode's test tokens: multi-byte UTF-8, case variants that lowercase
# alike, one- and two-character tokens, and qq, which no model here holds
DECODE_ALPHABET = ["a", "b", "ab", "é", "Ñandú", "日本語", "alice", "Saw", "paris", "Paris", "PARIS", "1984", "qq", "A"]


def decode_flat(model, tokens) -> list[int]:
    """``decode``'s paths laid end to end, as ``decode_file`` gives them."""
    return [label for path in decode(model, tokens) for label in path]


def assert_loads_for(path, whole, tokens):
    """The model file at ``path`` holds ``whole``.  ``load_model(path)``
    gives it bit for bit when tokens is None; else ``load_model`` given the
    input table of ``tokens`` numbers the observations they fire on their
    types and past the sentence edges, holding ``whole``'s row of each bit
    for bit, a zero row where ``whole`` has none, and its bigram block, and
    the unary scores those rows give are ``whole``'s."""
    if tokens is None:
        got = load_model(path)
        assert list(got.obs_index.items()) == list(whole.obs_index.items())
        assert got.scheme == whole.scheme
        assert got.weights.tobytes() == whole.weights.tobytes()
        return
    tokens = list(tokens)
    table = crf._InputTable(tokens)
    got = load_model(path, table)
    assert list(got.obs_index.values()) == list(range(got.n_obs))
    assert got.obs_index.keys() == fired_observations(tokens)
    assert got.scheme == whole.scheme
    m = whole.scheme.size
    rows = [whole.unary_weights()[whole.obs_index[obs]] if obs in whole.obs_index else np.zeros(m) for obs in got.obs_index]
    assert got.unary_weights().tobytes() == np.array(rows, dtype=float).reshape(-1, m).tobytes()
    assert got.bigram_weights().tobytes() == whole.bigram_weights().tobytes()
    if tokens:
        with np.errstate(invalid="ignore"):  # inf - inf in an edge-value row gives NaN alike
            unary = crf._unary_table(got.unary_weights(), table.ids())
            want = extract_features(whole, tokens).unary
        assert unary.tobytes() == want.tobytes()


# name hashes under which names share a hash: every name one, or three in all
SHARED_HASHES = [lambda name: 7, lambda name: zlib.crc32(name) % 3]


class TestPersistence:
    @pytest.fixture(params=["whole", "every row", "edges only"])
    def tokens(self, request):
        """No tokens, tokens that fire every row of the test models, or
        tokens that fire only their BOS/EOS rows, none of the faulty rows."""
        return {"whole": None, "every row": [("a", "b"), ("alice", "saw", "paris")], "edges only": [("qq",)]}[
            request.param
        ]

    @staticmethod
    def load(path, tokens):
        """``load_model(path)``, or ``decode_file(path, tokens)``."""
        return load_model(path) if tokens is None else decode_file(path, tokens)

    def test_round_trip_is_exact(self, tmp_path):
        rng = np.random.default_rng(8)
        model = build_model(SCHEME, [("alice", "saw", "paris"), ("bob", "left")])
        model.weights[:] = rng.normal(size=model.dim)
        path = tmp_path / "model.tsv"
        save_model(model, path)
        loaded = load_model(path)
        assert loaded.scheme.labels == model.scheme.labels
        assert loaded.scheme.kind == model.scheme.kind
        assert list(loaded.obs_index) == list(model.obs_index)
        np.testing.assert_array_equal(loaded.weights, model.weights)

    def test_round_trip_preserves_inference(self, tmp_path):
        rng = np.random.default_rng(21)
        toks = ("alice", "saw", "paris")
        model = build_model(SCHEME, [toks])
        model.weights[:] = rng.normal(size=model.dim)
        save_model(model, tmp_path / "m.tsv")
        loaded = load_model(tmp_path / "m.tsv")
        p1 = extract_features(model, [toks])
        p2 = extract_features(loaded, [toks])
        assert log_partition(p1).tobytes() == log_partition(p2).tobytes()
        assert viterbi(p1).tolist() == viterbi(p2).tolist()

    def test_the_file_holds_the_documented_layout(self, tmp_path):
        model = small_model()
        save_model(model, tmp_path / "m.bin")
        head, names, index, weights = model_file_parts(tmp_path / "m.bin")
        labels = "\t".join(SCHEME.labels)
        assert head[:2] == [b"crowdseq-crf v4", b"kind\tBIO"]
        assert head[2:] == [f"labels\t{labels}".encode(), TEMPLATES_LINE.encode(), b"observations\t8"]
        assert names == [obs.encode() for obs in model.obs_index]
        assert index.tolist() == name_index(names).tolist()
        assert weights == model.weights.astype("<f8").tobytes()
        write_model_file(tmp_path / "copy.bin", head, names, weights)
        assert (tmp_path / "copy.bin").read_bytes() == (tmp_path / "m.bin").read_bytes()

    def parts(self, tmp_path, monkeypatch):
        """``small_model()`` saved, its names read 16 bytes at a time and its
        weights three rows at a time: the path and the file's parts
        (``model_file_parts``)."""
        monkeypatch.setattr(crf, "_CHUNK_LINES", 3)
        monkeypatch.setattr(crf, "_NAME_BYTES", 16)
        path = tmp_path / "m.bin"
        save_model(small_model(), path)
        return (path, *model_file_parts(path))

    def assert_refused(self, path, message, tokens):
        with pytest.raises(ValueError, match=f"^{re.escape(str(path) + message)}$"):
            self.load(path, tokens)

    @pytest.mark.parametrize("kind", ["float64 edge values", "float32 origin"])
    def test_round_trip_is_bit_exact(self, tmp_path, kind, tokens):
        model = small_model()
        if kind == "float32 origin":
            model.weights = model.weights.astype(np.float32)
            model.weights[:4] = [1e-40, -1e-45, np.float32(0.1), np.finfo(np.float32).max]  # subnormals included
        else:
            nans = np.array([0x7FF0000000000001, 0xFFF8000000000123, 0x7FF8000000000000], dtype=np.uint64).view(float)
            edges = np.array([-0.0, np.inf, -np.inf, 5e-324, -5e-324, 2.2250738585072014e-308 / 3, np.finfo(float).max])
            model.weights[:10] = np.concatenate((nans, edges))  # NaN payloads (one signaling) and subnormals
        save_model(model, tmp_path / "m.bin")
        want = replace(model, weights=model.weights.astype(float))  # float32 widens exactly
        if tokens is None:
            got = load_model(tmp_path / "m.bin")
            assert got.weights.view(np.int64).tolist() == want.weights.view(np.int64).tolist()
        assert_loads_for(tmp_path / "m.bin", want, tokens)

    @pytest.mark.parametrize("decode_for", ["whole", "its own sentence", "edges only"])
    def test_names_keep_characters_that_splitlines_ends_a_line_at(self, tmp_path, monkeypatch, decode_for):
        # \x0b, \x0c, \x1c-\x1f, \x85, \u2028 and \u2029 end a line for str.splitlines, never for the reader
        monkeypatch.setattr(crf, "_CHUNK_LINES", 4)
        monkeypatch.setattr(crf, "_NAME_BYTES", 8)
        sentence = ("a\u2028b", "\x85", "x\x0by", "\x1c\x1d", "\x1e\x1fZ", "\x0c\u2029", "café", "名前")
        model = build_model(SCHEME, [sentence])
        model.weights[:] = np.random.default_rng(3).normal(size=model.dim)
        save_model(model, tmp_path / "m.bin")
        tokens = {"whole": None, "its own sentence": [sentence], "edges only": [("qq",)]}[decode_for]
        assert_loads_for(tmp_path / "m.bin", model, tokens)
        if tokens is not None:
            assert decode_file(tmp_path / "m.bin", tokens) == (SCHEME, decode_flat(model, tokens))

    @pytest.mark.parametrize("change", [-1, 1], ids=["a line short", "a line long"])
    def test_name_block_of_the_wrong_line_count(self, tmp_path, monkeypatch, change, tokens):
        path, head, names, index, weights = self.parts(tmp_path, monkeypatch)
        names = names[:-1] if change < 0 else [*names, b"w=zz"]
        write_model_file(path, head, names, weights, index=index)
        self.assert_refused(path, f": expected 8 observation names, found {8 + change}", tokens)

    def test_name_block_that_ends_inside_a_line(self, tmp_path, monkeypatch, tokens):
        path, head, names, index, weights = self.parts(tmp_path, monkeypatch)
        block = b"\n".join(names)  # the last name without its newline
        checksum = zlib.crc32(index.tobytes(), zlib.crc32(block))
        header = b"".join(line + b"\n" for line in head) + b"names\t%d\t%d\n" % (len(block), checksum)
        path.write_bytes(header + block + index.tobytes() + weights)
        self.assert_refused(path, ", line 14: the name block ends inside this line", tokens)

    @pytest.mark.parametrize("change", [-1, 1, -40, 40], ids=["byte short", "byte long", "row short", "row long"])
    def test_weight_block_of_the_wrong_size(self, tmp_path, monkeypatch, change, tokens):
        path, head, names, index, weights = self.parts(tmp_path, monkeypatch)
        assert len(weights) == (8 * 5 + 5 * 5) * 8  # a row is 5 weights, 40 bytes
        weights = weights[:change] if change < 0 else weights + bytes(range(1, change + 1))
        write_model_file(path, head, names, weights)
        self.assert_refused(path, f": expected 520 bytes of weights, found {520 + change}", tokens)

    def test_file_that_ends_inside_its_index(self, tmp_path, monkeypatch, tokens):
        path, head, names, index, weights = self.parts(tmp_path, monkeypatch)
        path.write_bytes(path.read_bytes()[: -len(weights) - 4])
        self.assert_refused(path, ": the file ends inside its names or their index", tokens)

    @pytest.mark.parametrize(
        "name, why",
        [
            (b"w=a\tb", "observation name holds '\\t'"),
            (b"w=a\rb", "observation name holds '\\r'"),
            (b"w=a\r", "observation name holds '\\r'"),
            (b"caf\xe9", "not UTF-8 (byte 0xe9: invalid continuation byte)"),
            (b"\xffw", "not UTF-8 (byte 0xff: invalid start byte)"),
        ],
    )
    @pytest.mark.parametrize("row", [0, 4], ids=["first chunk", "second chunk"])
    def test_malformed_name_names_the_line(self, tmp_path, monkeypatch, name, why, row, tokens):
        path, head, names, index, weights = self.parts(tmp_path, monkeypatch)
        names[row] = name
        names[row + 1] = b"\xfe" + names[row + 1]  # a later fault is not the one named
        write_model_file(path, head, names, weights)
        self.assert_refused(path, f", line {7 + row}: {why}", tokens)

    def test_duplicate_observation_names_the_line(self, tmp_path, monkeypatch, tokens):
        path, head, names, index, weights = self.parts(tmp_path, monkeypatch)
        names[4] = names[6] = names[0]  # observation 4, in the second chunk, is the first repeat
        write_model_file(path, head, names, weights)
        self.assert_refused(path, f", line 11: duplicate observation {names[0].decode()!r}", tokens)

    def test_header_not_utf8_names_the_line(self, tmp_path, monkeypatch):
        path, head, names, index, weights = self.parts(tmp_path, monkeypatch)
        head[2] += b"\x80"
        write_model_file(path, head, names, weights)
        self.assert_refused(path, ", line 3: not UTF-8 (byte 0x80: invalid start byte)", None)

    @pytest.mark.parametrize(
        "fault, why",
        [
            ("hashes out of order", "the name index is not sorted by hash and id"),
            ("equal hashes out of id order", "the name index is not sorted by hash and id"),
            ("a repeated id", "the name index ids are not a permutation of the names"),
            ("an id past the names", "the name index ids are not a permutation of the names"),
        ],
    )
    def test_malformed_index_is_refused(self, tmp_path, monkeypatch, fault, why, tokens):
        path, head, names, index, weights = self.parts(tmp_path, monkeypatch)
        keys, ids = index[:8].copy(), index[8:].copy()
        assert (np.diff(keys.astype(np.int64)) > 0).all()  # eight distinct hashes
        if fault == "hashes out of order":
            keys[[0, 1]], ids[[0, 1]] = keys[[1, 0]], ids[[1, 0]]
        elif fault == "equal hashes out of id order":
            keys[:], ids[:] = 7, np.arange(8)[::-1]
        elif fault == "a repeated id":
            ids[1] = ids[0]
        else:
            ids[3] = 8
        write_model_file(path, head, names, weights, index=np.concatenate((keys, ids)))  # the checksum agrees
        self.assert_refused(path, f": {why}", tokens)

    @pytest.mark.parametrize("edit", ["a name", "the index"])
    def test_checksum_catches_an_edited_name_or_index(self, tmp_path, monkeypatch, edit, tokens):
        path, head, names, index, weights = self.parts(tmp_path, monkeypatch)
        checksum = int(path.read_bytes().split(b"\n")[5].split(b"\t")[2])
        if edit == "a name":
            names[3] = names[3][:-1] + b"~"  # same length, still UTF-8
        else:
            index = index.copy()
            index[[8, 9]] = index[[9, 8]]  # two ids trade hashes: still sorted, still a permutation
        write_model_file(path, head, names, weights, index=index, checksum=checksum)
        self.assert_refused(path, ": the names or their index do not match the header's checksum", tokens)

    def test_whole_load_checks_every_hash_against_the_index(self, tmp_path, monkeypatch):
        path, head, names, index, weights = self.parts(tmp_path, monkeypatch)
        row = 5
        other = name_index(names, lambda name: zlib.crc32(name) ^ (name == names[row]))
        write_model_file(path, head, names, weights, index=other)  # sorted, checksum agrees
        self.assert_refused(path, f", line {7 + row}: the name index holds another hash for this name", None)

    @pytest.mark.parametrize("version", ["v1", "v2", "v3"])
    def test_retired_formats_are_refused_by_name(self, tmp_path, version, tokens):
        path = tmp_path / "m.tsv"
        path.write_bytes(OLD_MODEL_FILES[version])
        self.assert_refused(path, f": crowdseq-crf {version} files are no longer read; retrain the model", tokens)

    @pytest.mark.parametrize("name_hash", SHARED_HASHES, ids=["one hash", "three hashes"])
    @pytest.mark.parametrize("decode_for", ["every row", "some rows", "edges only"])
    def test_names_that_share_a_hash_decode_alike(self, tmp_path, monkeypatch, name_hash, decode_for):
        monkeypatch.setattr(crf, "_name_hash", name_hash)
        monkeypatch.setattr(crf, "_NAME_BYTES", 16)
        model = build_model(SCHEME, [("alice", "saw", "paris")])
        model.weights[:] = np.random.default_rng(4).normal(size=model.dim)
        path = tmp_path / "m.bin"
        save_model(model, path)
        keys = model_file_parts(path)[2][: model.n_obs]
        assert len(set(keys.tolist())) < model.n_obs
        tokens = {
            "every row": [("alice", "saw", "paris")],
            "some rows": [("saw",), ("Paris", "qq")],
            "edges only": [("qq",)],
        }[decode_for]
        whole = load_model(path)
        assert list(whole.obs_index.items()) == list(model.obs_index.items())
        assert decode_file(path, tokens) == (SCHEME, decode_flat(whole, tokens))
        assert_loads_for(path, model, tokens)

    @pytest.mark.parametrize("name_hash", SHARED_HASHES, ids=["one hash", "three hashes"])
    def test_a_duplicate_among_names_of_one_hash_names_the_line(self, tmp_path, monkeypatch, name_hash, tokens):
        path, head, names, index, weights = self.parts(tmp_path, monkeypatch)
        monkeypatch.setattr(crf, "_name_hash", name_hash)
        names[6] = names[2]
        write_model_file(path, head, names, weights, index=name_index(names, name_hash))
        self.assert_refused(path, f", line 13: duplicate observation {names[2].decode()!r}", tokens)

    @settings(max_examples=60, deadline=None)
    @given(
        chunk=st.integers(1, 4),
        name_bytes=st.integers(1, 24),
        names=st.lists(
            st.text(
                st.one_of(st.sampled_from(' #"'), st.characters(blacklist_categories=("Cs",), blacklist_characters="\t\n\r")),
                max_size=6,
            ),
            max_size=11,
            unique=True,
        ),
        data=st.data(),
    )
    def test_round_trip_across_chunks_is_bit_identical(self, chunk, name_bytes, names, data):
        model = crf.CrfModel(SCHEME, dict(zip(names, range(len(names)))), np.zeros(0))
        edge = st.sampled_from([-0.0, 0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e308, -1e308])
        weights = data.draw(st.lists(st.one_of(edge, st.floats(allow_nan=False)), min_size=model.dim, max_size=model.dim))
        model.weights = np.array(weights, dtype=float)
        with pytest.MonkeyPatch.context() as mp, tempfile.TemporaryDirectory() as tmp:
            mp.setattr(crf, "_CHUNK_LINES", chunk)
            mp.setattr(crf, "_NAME_BYTES", name_bytes)
            save_model(model, Path(tmp, "m.tsv"))
            loaded = load_model(Path(tmp, "m.tsv"))
        assert loaded.weights.tobytes() == model.weights.tobytes()
        assert list(loaded.obs_index.items()) == list(model.obs_index.items())

    @settings(max_examples=80, deadline=None)
    @given(
        chunk=st.integers(1, 4),
        name_bytes=st.integers(1, 24),
        modulus=st.sampled_from([None, 1, 3]),
        seqs=st.lists(st.lists(st.sampled_from(DECODE_ALPHABET), min_size=1, max_size=5), max_size=6),
        seed=st.integers(0, 2**32 - 1),
        normal=st.booleans(),
    )
    @example(chunk=2, name_bytes=5, modulus=None, seqs=[["Ñandú"], ["é"], ["日本語", "PARIS"]], seed=1, normal=True)
    def test_decode_file_decodes_as_the_whole_model(self, chunk, name_bytes, modulus, seqs, seed, normal):
        # weights in {-1, 0, 1}: many exact ties, which must break alike, or
        # normal floats, whose sums round: decode's per-type table must add
        # the rows in template order; qq fires only the BOS/EOS rows; a
        # modulus makes names share a hash, names cross slice edges;
        # prefixes and suffixes of multi-byte tokens are cut by character
        with pytest.MonkeyPatch.context() as mp, tempfile.TemporaryDirectory() as tmp:
            mp.setattr(crf, "_CHUNK_LINES", chunk)
            mp.setattr(crf, "_NAME_BYTES", name_bytes)
            if modulus is not None:
                mp.setattr(crf, "_name_hash", lambda name: zlib.crc32(name) % modulus)
            model = build_model(SCHEME, [("alice", "saw", "paris"), ("a", "1984", "b"), ("Ñandú", "é", "日本語", "Paris")])
            rng = np.random.default_rng(seed)
            model.weights[:] = rng.normal(size=model.dim) if normal else rng.integers(-1, 2, size=model.dim)
            path = Path(tmp, "m.tsv")
            save_model(model, path)
            whole = load_model(path)
            assert decode_file(path, iter(seqs)) == (whole.scheme, decode_flat(whole, seqs))
            assert_loads_for(path, whole, seqs)
            assert_loads_for(path, whole, [("qq",)])
            table = crf._InputTable(seqs)
            got = load_model(path, table)
            unary = extract_features(got, table).unary
            assert unary.tobytes() == crf._unary_table(got.unary_weights(), table.ids()).tobytes()

    def test_decode_file_of_an_input_that_fires_no_row(self, tmp_path):
        # a file whose names the input never fires, not even at the sentence edges
        model = crf.CrfModel(SCHEME, {"w=alice": 0, "w=saw": 1}, np.zeros(0))
        model.weights = np.random.default_rng(5).normal(size=model.dim)
        save_model(model, tmp_path / "m.bin")
        tokens = [("qq", "Saw"), ("A",)]
        got = load_model(tmp_path / "m.bin", crf._InputTable(tokens))
        assert not got.unary_weights().any() and got.bigram_weights().tobytes() == model.bigram_weights().tobytes()
        assert_loads_for(tmp_path / "m.bin", model, tokens)
        assert decode_file(tmp_path / "m.bin", tokens) == (SCHEME, decode_flat(model, tokens))

    def test_a_model_with_no_observations_decodes_by_its_bigram_block(self, tmp_path):
        model = build_model(SCHEME, [])
        model.weights = np.random.default_rng(6).normal(size=model.dim)
        save_model(model, tmp_path / "m.bin")
        whole = load_model(tmp_path / "m.bin")
        assert whole.n_obs == 0
        pot = Chain(np.zeros((2, SCHEME.size)), whole.bigram_weights())
        assert extract_features(whole, [("a", "b")]).unary.tobytes() == pot.unary.tobytes()
        assert decode(whole, [("a", "b")]) == [brute_viterbi(pot)]
        assert decode_file(tmp_path / "m.bin", [("a", "b")]) == (SCHEME, list(brute_viterbi(pot)))

    @pytest.mark.parametrize("sep", ["\t", "\n", "\r"])
    def test_an_observation_holding_a_line_or_field_separator_is_refused(self, tmp_path, sep):
        model = build_model(LabelScheme.bio(("LOC",)), [(f"a{sep}b", "c")])
        with pytest.raises(ValueError, match="observation not serializable"):
            save_model(model, tmp_path / "m.tsv")
        assert not (tmp_path / "m.tsv").exists()

    @pytest.mark.parametrize("magic", [b"not a model", b"crowdseq-crf v5", b"crowdseq-crf v4 ", b""])
    def test_wrong_magic_rejected(self, tmp_path, magic, tokens):
        path = tmp_path / "m.tsv"
        save_model(small_model(), path)
        path.write_bytes(magic + b"\n" + path.read_bytes().split(b"\n", 1)[1])
        self.assert_refused(path, ": not a crowdseq-crf v4 file", tokens)

    @pytest.mark.parametrize(
        "line, text, why",
        [
            (4, b"templates\ttoken-identity\tlabel-bigram", f"expected {TEMPLATES_LINE!r}"),
            (4, TEMPLATES_LINE.removesuffix("\tlabel-bigram").encode(), f"expected {TEMPLATES_LINE!r}"),
            (
                4,
                TEMPLATES_LINE.replace("prefix-2\tprefix-3", "prefix-3\tprefix-2").encode(),
                f"expected {TEMPLATES_LINE!r}",
            ),
            (4, TEMPLATES_LINE.replace("prefix-3", "prefix-4").encode(), f"expected {TEMPLATES_LINE!r}"),
            (4, TEMPLATES_LINE.encode() + b"\t", f"expected {TEMPLATES_LINE!r}"),
            (4, b"labels\tO", f"expected {TEMPLATES_LINE!r}"),
            (5, b"observations\t8.0", "observation count '8.0' is not a nonnegative integer"),
            (5, b"observations\t8\t0", "expected 'observations'"),
            (6, b"names\t-3\t0", "name bytes '-3' is not a nonnegative integer"),
            (6, b"names\t3\tabc", "checksum 'abc' is not a nonnegative integer"),
            (6, b"names\t3", "expected 'names'"),
        ],
    )
    def test_malformed_header_line_is_named(self, tmp_path, line, text, why, tokens):
        path = tmp_path / "m.bin"
        save_model(small_model(), path)
        data = path.read_bytes().split(b"\n", 6)
        data[line - 1] = text
        path.write_bytes(b"\n".join(data))
        self.assert_refused(path, f", line {line}: {why}", tokens)

    @pytest.mark.parametrize("name_hash", [zlib.crc32, lambda name: 7], ids=["crc32", "one hash"])
    @pytest.mark.parametrize("token", ["\ud800", "a\nb"], ids=["lone surrogate", "newline"])
    def test_an_input_token_no_file_can_hold_finds_no_row(self, tmp_path, monkeypatch, name_hash, token):
        monkeypatch.setattr(crf, "_name_hash", name_hash)
        model = small_model()
        save_model(model, tmp_path / "m.bin")
        tokens = [(token, "a"), ("b", token)]
        got = load_model(tmp_path / "m.bin", crf._InputTable(tokens))
        assert not got.unary_weights()[[got.obs_index["w=" + token], got.obs_index["wl=" + token]]].any()
        assert decode_file(tmp_path / "m.bin", tokens) == (SCHEME, decode_flat(model, tokens))


class TestConstrainedUse(object):
    def test_brute_valid_agrees_with_transition_matrix(self):
        cands = ((0, 1), (0, 2), (0, 1, 2))
        got = brute_valid(cands, SCHEME)
        for z in got:
            assert SCHEME.initial_allowed[z[0]]
            for a, b in zip(z, z[1:]):
                assert SCHEME.allowed_transitions[a, b]
