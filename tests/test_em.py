"""Joint estimation loop: posteriors, count updates, likelihood, convergence."""

import dataclasses
import io
import re

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from scipy.special import logsumexp

from corpus import SCHEME, make_gold, split
from crowdseq import crf, em, features, objective
from crowdseq import (
    CrowdDataset,
    CrowdInstance,
    EmConfig,
    SimConfig,
    confusion_counts,
    e_step,
    extract_features,
    fit,
    initialize,
    log_partition,
    m_step,
    observed_loglik,
    optimize,
    params_from_counts,
    posterior_modes,
    resolve_mentions,
    simulate,
)
from oracles import (
    Chain,
    annotation_contexts,
    annotation_loglik,
    batch,
    chain,
    factor_matrix,
    log_space_inference,
    mv_token,
    sequence_score,
    sorted_objective,
)
from strategies import crowd_datasets

L = {name: i for i, name in enumerate(SCHEME.labels)}


def tiny_dataset(skipped=False):
    """Three short instances, two annotators, one repeated token.

    With ``skipped`` a third annotator ``w`` comes first in every
    annotations dict, out of roster order, and ``v`` skips the second
    instance.
    """
    gold1 = (L["B-PER"], L["O"], L["B-LOC"])
    gold2 = (L["B-ORG"], L["I-ORG"], L["O"], L["B-ORG"])
    gold3 = (L["O"], L["B-PER"], L["I-PER"])
    anns = [
        {"u": gold1, "v": (L["B-PER"], L["O"], L["B-ORG"])},
        {"u": gold2, "v": gold2},
        {"u": (L["O"], L["B-PER"], L["B-PER"]), "v": gold3},
    ]
    roster = ("u", "v")
    if skipped:
        w_labels = [
            (L["B-PER"], L["I-PER"], L["B-LOC"]),
            (L["B-ORG"], L["O"], L["O"], L["B-LOC"]),
            gold3,
        ]
        anns = [{"w": w, **a} for w, a in zip(w_labels, anns)]
        del anns[1]["v"]
        roster = ("u", "v", "w")
    tokens = (("anna", "visits", "rome"), ("acme", "corp", "hired", "acme"), ("then", "bo", "li"))
    insts = tuple(
        CrowdInstance(t, a, g) for t, a, g in zip(tokens, anns, (gold1, gold2, gold3))
    )
    return CrowdDataset(SCHEME, insts, roster)


def small_cfg(**kw):
    base = dict(max_iters=2, rel_tol=0.0, init_max_iter=20, inner_max_iter=8)
    base.update(kw)
    return EmConfig(**base)


class TestConfig:
    def test_field_validation(self):
        with pytest.raises(ValueError, match="max_iters"):
            EmConfig(max_iters=0)
        with pytest.raises(ValueError, match="rel_tol"):
            EmConfig(rel_tol=-1e-9)
        with pytest.raises(ValueError, match="lattice_cap"):
            EmConfig(lattice_cap=0)
        with pytest.raises(ValueError, match="smoothing"):
            EmConfig(smoothing=-0.1)
        nan, inf = float("nan"), float("inf")
        for name, values in (
            ("smoothing", (nan, inf)),
            ("l2_penalty", (-1.0, nan, inf)),
            ("opt_tol", (-1e-9, nan)),
            ("rel_tol", (nan,)),
            ("init_max_iter", (0, -3)),
            ("inner_max_iter", (0, -3)),
        ):
            for value in values:
                with pytest.raises(ValueError, match=f"^{name} "):
                    EmConfig(**{name: value})

    def test_default_thresholds_scale_with_the_roster(self):
        assert EmConfig().thresholds(5) == (2.5, 0.5)
        assert EmConfig().thresholds(8) == (4.0, 0.5)
        assert EmConfig().thresholds(2) == (1.0, 0.5)
        assert EmConfig().thresholds(1) == (0.5, 0.0)

    def test_normalized_thresholds(self):
        cfg = EmConfig(normalize_consistency=True)
        assert cfg.thresholds(5) == (0.5, 0.1)
        assert cfg.thresholds(10) == (0.5, 0.05)
        assert cfg.thresholds(1) == (0.5, 0.0)

    @pytest.mark.parametrize("normalize", [False, True])
    def test_a_lone_annotators_lattice_is_the_annotation(self, normalize):
        labels = (L["B-PER"], L["I-PER"], L["O"], L["B-LOC"])
        inst = CrowdInstance(("Ann", "Lee", "saw", "Rome"), {"solo": labels})
        lattice = em.build_lattice(inst, SCHEME, 1, EmConfig(normalize_consistency=normalize))
        assert lattice.sequences == (labels,)

    def test_explicit_thresholds_win(self):
        cfg = EmConfig(consistency_hi=3.0, consistency_lo=0.25)
        assert cfg.thresholds(5) == (3.0, 0.25)
        cfg = EmConfig(consistency_hi=0.9, normalize_consistency=True)
        assert cfg.thresholds(4) == (0.9, 0.125)


class TestInitialize:
    def test_requires_a_roster(self):
        ds = tiny_dataset()
        bare = CrowdDataset(ds.scheme, ds.instances, ())
        with pytest.raises(ValueError, match="roster"):
            initialize(bare, small_cfg())

    def test_rejects_invalid_datasets(self):
        bad = CrowdDataset(
            SCHEME,
            (CrowdInstance(("a",), {"u": (SCHEME.size + 3,)}),),
            ("u",),
        )
        with pytest.raises(ValueError, match="invalid dataset"):
            initialize(bad, small_cfg())

    def test_builds_one_lattice_per_instance(self):
        ds = tiny_dataset()
        state = initialize(ds, small_cfg())
        assert len(state.lattices) == len(ds.instances)
        assert state.iteration == 0
        assert state.history == []
        state.annotators.validate()

    def test_deterministic(self):
        ds = tiny_dataset()
        a, b = initialize(ds, small_cfg()), initialize(ds, small_cfg())
        assert a.crf.weights.tobytes() == b.crf.weights.tobytes()
        assert a.annotators.local.tobytes() == b.annotators.local.tobytes()
        assert a.annotators.mention.tobytes() == b.annotators.mention.tobytes()

    @pytest.mark.parametrize("smoothing", [0.0, 0.5, 1.0])
    def test_tables_are_the_one_hot_vote_counts_smoothed_by_one(self, smoothing):
        for ds in (tiny_dataset(), tiny_dataset(skipped=True)):
            state = initialize(ds, small_cfg(smoothing=smoothing))
            votes = [label for inst in ds.instances for label in mv_token(inst)]
            want = params_from_counts(ds.roster, *per_instance_counts(ds, np.eye(SCHEME.size)[votes]), 1.0)
            assert state.annotators.local.tobytes() == want.local.tobytes()
            assert state.annotators.mention.tobytes() == want.mention.tobytes()

    @staticmethod
    def seed_fit(monkeypatch, ds):
        """``initialize(ds)``'s state, and the model and the data it passed
        ``optimize``."""
        passed = []
        monkeypatch.setattr(
            em, "optimize", lambda model, data, opts: passed.append((model, data)) or optimize(model, data, opts)
        )
        state = initialize(ds, small_cfg())
        [(model, data)] = passed
        return state, model, data

    @staticmethod
    def with_an_unlabeled_instance():
        tiny = tiny_dataset(skipped=True)
        return CrowdDataset(SCHEME, (*tiny.instances, CrowdInstance(("nobody", "came"), {})), tiny.roster)

    def test_the_seed_fit_lies_over_the_fit_s_corpus(self, monkeypatch):
        ds = self.with_an_unlabeled_instance()
        state, _, data = self.seed_fit(monkeypatch, ds)
        assert isinstance(data, objective._Examples) and data.corpus is state.corpus
        # weight 1 for each labeled instance, 0 for the one nobody labeled, in packed order
        want = [1.0 if ds.instances[i].annotations else 0.0 for i in state.corpus.pack.order]
        assert data.weights.tolist() == want and 0.0 in want

    def test_the_seed_fit_is_on_the_vote_labels_of_every_labeled_instance(self, monkeypatch):
        # the objective of the vote's examples over the labeled instances alone: bit for bit when
        # every instance is labeled; else zero-weight rows may change a BLAS sum's order
        rng = np.random.default_rng(7)
        for ds, exact in ((tiny_dataset(skipped=True), True), (self.with_an_unlabeled_instance(), False)):
            state, model, data = self.seed_fit(monkeypatch, ds)
            triples = [(inst.tokens, mv_token(inst), 1.0) for inst in ds.instances if inst.annotations]
            l2 = state.cfg.l2_penalty
            got, want = objective._WeightedObjective(data, l2), objective._WeightedObjective(objective._examples(model, triples), l2)
            for theta in (model.weights, rng.normal(size=model.dim)):
                (value, grad), (want_value, want_grad) = got.value_and_grad(theta), want.value_and_grad(theta)
                if exact:
                    assert value == want_value and grad.tobytes() == want_grad.tobytes()
                else:
                    assert value == pytest.approx(want_value, rel=1e-12, abs=0)
                    np.testing.assert_allclose(grad, want_grad, rtol=1e-12, atol=1e-12 * np.abs(want_grad).max())

    def test_rejects_a_crowd_that_labeled_nothing(self):
        ds = tiny_dataset()
        bare = CrowdDataset(ds.scheme, tuple(CrowdInstance(inst.tokens, {}) for inst in ds.instances), ds.roster)
        with pytest.raises(ValueError, match="^no annotator labeled any instance$"):
            initialize(bare, small_cfg())


def enumerated_posterior(state, ds):
    """Per instance of uncapped lattices: its lattice sequences (S, L) and
    their posterior weights, recomputed from single-sequence primitives."""
    out = []
    for inst, lat in zip(ds.instances, state.lattices):
        assert not lat.capped
        pot = chain(state.crf, inst.tokens)
        logz = log_partition(batch(pot))[0]
        links = resolve_mentions(inst.tokens)
        logw = []
        for seq in lat.sequences:
            v = sequence_score(pot, seq) - logz
            for ann, labels in inst.annotations.items():
                v += annotation_loglik(state.annotators, ann, labels, seq, links)
            logw.append(v)
        logw = np.array(logw)
        out.append((np.array(lat.sequences, dtype=np.intp), np.exp(logw - logsumexp(logw))))
    return out


def enumerated_counts(z, w, m):
    """The (L, M) label marginals and the (M, M) pair marginals summed over
    positions of sequences ``z`` (S, L) weighted by ``w``, added up sequence
    by sequence."""
    uni, pair = np.zeros((z.shape[1], m)), np.zeros((m, m))
    for seq, wi in zip(z, w):
        uni[np.arange(z.shape[1]), seq] += wi
        np.add.at(pair, (seq[:-1], seq[1:]), wi)
    return uni, pair


def per_instance_chains(state, ds):
    """Each instance's chain scores as a per-instance loop adds them: the
    tagger's unary scores, then 0 on the lattice's states and -inf elsewhere,
    then the ``factor_matrix`` of each present annotator summed in roster
    order."""
    pots = extract_features(state.crf, [inst.tokens for inst in ds.instances])
    labels = range(ds.scheme.size)
    out = []
    for inst, lat, unary in zip(ds.instances, state.lattices, per_instance(ds, pots.unary)):
        mask = np.where([[s in states for s in labels] for states in lat.states], 0.0, -np.inf)
        links = resolve_mentions(inst.tokens)
        present = [a for a in ds.roster if a in inst.annotations]
        out.append(unary + mask + sum(factor_matrix(state.annotators, a, inst.annotations[a], links) for a in present))
    return out


def per_instance(ds, table):
    """The rows of a (P, M) table over the corpus laid end to end, cut into
    one (L, M) table per instance."""
    return np.split(table, np.cumsum([len(inst.tokens) for inst in ds.instances])[:-1])


def per_instance_posteriors(ds, post):
    """An ``e_step`` posterior cut into each instance's (L, M) label and
    (M, M) pair marginals."""
    return list(zip(per_instance(ds, post.unary), post.pair, strict=True))


def paths(ds, labels):
    """``posterior_modes``' label column cut into one path per instance."""
    return [tuple(z.tolist()) for z in per_instance(ds, np.array(labels))]


def per_instance_counts(ds, posterior):
    """``confusion_counts`` of a (P, M) label posterior by one ``np.add.at``
    per (instance, present annotator), in corpus and roster order."""
    m = ds.scheme.size
    counts = np.zeros((2, len(ds.roster), m + 1, m, m))
    for inst, unary in zip(ds.instances, per_instance(ds, posterior)):
        links = resolve_mentions(inst.tokens)
        mention = np.array([link is not None for link in links], dtype=np.intp)
        for k, ann in enumerate(ds.roster):
            if ann in inst.annotations:
                y = np.array(inst.annotations[ann])
                ctx = np.array(annotation_contexts(y, links, m))
                np.add.at(counts, (mention[:, None], k, ctx[:, None], np.arange(m), y[:, None]), unary)
    return counts[0], counts[1]


class TestEStep:
    def test_posteriors_normalize_on_the_lattice(self):
        ds = tiny_dataset()
        state = initialize(ds, small_cfg())
        post = e_step(state, ds)[0]
        assert post.unary.shape == (sum(len(inst.tokens) for inst in ds.instances), SCHEME.size)
        assert post.pair.shape == (len(ds.instances), SCHEME.size, SCHEME.size)
        for inst, lat, (uni, pair) in zip(ds.instances, state.lattices, per_instance_posteriors(ds, post)):
            np.testing.assert_allclose(uni.sum(axis=1), 1.0, atol=1e-12)
            assert pair.sum() == pytest.approx(len(inst.tokens) - 1, abs=1e-12)
            assert (uni >= 0).all() and (pair >= 0).all()
            for j, states in enumerate(lat.states):
                off = np.setdiff1d(np.arange(SCHEME.size), states)
                assert (uni[j, off] == 0).all()

    def test_singleton_lattice_gets_all_the_mass(self):
        ds = tiny_dataset()
        # unanimity on instance 1 plus hi below 2 forces a single candidate
        state = initialize(ds, small_cfg(consistency_hi=1.9))
        post = e_step(state, ds)[0]
        [only] = state.lattices[1].sequences
        np.testing.assert_allclose(per_instance(ds, post.unary)[1], np.eye(SCHEME.size)[list(only)], atol=1e-12)

    def test_flat_parameters_give_a_flat_posterior(self):
        ds = tiny_dataset()
        state = initialize(ds, small_cfg())
        state.crf.weights[:] = 0.0
        m = SCHEME.size
        state.annotators.local[:] = 1.0 / m
        state.annotators.mention[:] = 1.0 / m
        for lat, (got_uni, got_pair) in zip(state.lattices, per_instance_posteriors(ds, e_step(state, ds)[0])):
            z = np.array(lat.sequences)
            uni, pair = enumerated_counts(z, np.full(len(z), 1.0 / len(z)), m)
            np.testing.assert_allclose(got_uni, uni, atol=1e-12)
            np.testing.assert_allclose(got_pair, pair, atol=1e-12)

    def test_matches_single_sequence_primitives(self):
        for ds in (tiny_dataset(), tiny_dataset(skipped=True)):
            state = initialize(ds, small_cfg())
            post = e_step(state, ds)[0]
            for (got_uni, got_pair), (z, w) in zip(per_instance_posteriors(ds, post), enumerated_posterior(state, ds)):
                uni, pair = enumerated_counts(z, w, SCHEME.size)
                np.testing.assert_allclose(got_uni, uni, atol=1e-10)
                np.testing.assert_allclose(got_pair, pair, atol=1e-10)

    def test_an_instance_with_no_possible_path_is_named(self):
        ds = tiny_dataset()
        state = initialize(ds, small_cfg(smoothing=0.0))
        # no annotator is thought ever to assign O after a label, as u does in instance 0
        state.annotators.local[:, :, :, 0] = 0.0
        state.annotators.local /= state.annotators.local.sum(axis=3, keepdims=True)
        with np.errstate(all="raise"):
            with pytest.raises(ValueError, match="^instance 0 has no finite-scoring path$"):
                e_step(state, ds)

    @settings(max_examples=30, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(ds=crowd_datasets(), seed=st.integers(0, 2**16), sparse=st.booleans())
    def test_chains_are_the_per_instance_sums_bit_for_bit(self, ds, seed, sparse):
        state = initialize(ds, EmConfig(smoothing=0.0, init_max_iter=5))
        if sparse:  # unsmoothed tables with zeros give -inf factors
            m, k = ds.scheme.size, len(ds.roster)
            rng = np.random.default_rng(seed)
            counts = rng.random((2, k, m + 1, m, m)) * (rng.random((2, k, m + 1, m, m)) < 0.5)
            state.annotators = params_from_counts(ds.roster, counts[0], counts[1], 0.0)
        try:
            post = e_step(state, ds)[0]
        except ValueError as e:  # no chain to compare
            assert re.fullmatch(r"instance \d+ has no finite-scoring path", str(e))
            return
        assert post.chain.lengths == [len(inst.tokens) for inst in ds.instances]
        assert np.array_equal(post.chain.unary, np.concatenate(per_instance_chains(state, ds)))

    def test_a_2000_token_sentence_gives_finite_marginals(self):
        gold = make_gold(400, seed=8)
        tokens = tuple(tok for inst in gold.instances for tok in inst.tokens)[:2000]
        labels = tuple(lab for inst in gold.instances for lab in inst.gold)[:2000]
        assert len(tokens) == 2000
        long = CrowdDataset(SCHEME, (CrowdInstance(tokens, {}, labels),), ())
        crowd = simulate(long, SimConfig(n_annotators=3, target_precision=0.5, precision_spread=0.1, seed=8))
        state = initialize(crowd, EmConfig(init_max_iter=5, lattice_cap=10))
        post, value = e_step(state, crowd)
        assert np.isfinite(value)
        assert np.isfinite(post.unary).all() and np.isfinite(post.pair).all()
        np.testing.assert_allclose(post.unary.sum(axis=1), 1.0, rtol=0, atol=1e-9)
        _, uni, pair = log_space_inference(Chain(post.chain.unary, post.chain.pairwise))
        np.testing.assert_allclose(post.unary, uni, rtol=0, atol=1e-10)
        np.testing.assert_allclose(post.pair[0], pair.sum(axis=0), rtol=0, atol=1e-10)


class TestCounts:
    @settings(max_examples=30, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(ds=crowd_datasets())
    def test_matches_the_per_instance_loop_bit_for_bit(self, ds):
        state = initialize(ds, EmConfig(init_max_iter=5))
        post = e_step(state, ds)[0]
        got = confusion_counts(state.entries, post.unary, len(ds.roster))
        for got_counts, expected in zip(got, per_instance_counts(ds, post.unary), strict=True):
            assert np.array_equal(got_counts, expected)

    def test_matches_per_sequence_accumulation(self):
        for ds in (tiny_dataset(), tiny_dataset(skipped=True)):
            state = initialize(ds, small_cfg())
            post = e_step(state, ds)[0]
            local, mention = confusion_counts(state.entries, post.unary, len(ds.roster))

            m = SCHEME.size
            k = len(ds.roster)
            exp_local = np.zeros((k, m + 1, m, m))
            exp_mention = np.zeros((k, m + 1, m, m))
            for inst, (z, w) in zip(ds.instances, enumerated_posterior(state, ds)):
                links = resolve_mentions(inst.tokens)
                for ann, labels in inst.annotations.items():
                    ki = ds.roster.index(ann)
                    for seq, wi in zip(z, w):
                        for j, (yj, zj) in enumerate(zip(labels, seq)):
                            if links[j] is not None:
                                exp_mention[ki, labels[links[j]], zj, yj] += wi
                            else:
                                ctx = m if j == 0 else labels[j - 1]
                                exp_local[ki, ctx, zj, yj] += wi
            np.testing.assert_allclose(local, exp_local, atol=1e-12)
            np.testing.assert_allclose(mention, exp_mention, atol=1e-12)

    def test_total_mass_counts_every_labeled_token(self):
        ds = tiny_dataset()
        state = initialize(ds, small_cfg())
        post = e_step(state, ds)[0]
        local, mention = confusion_counts(state.entries, post.unary, len(ds.roster))
        labeled = sum(len(inst.tokens) * len(inst.annotations) for inst in ds.instances)
        assert float(local.sum() + mention.sum()) == pytest.approx(labeled, abs=1e-9)


class TestMStep:
    def test_leaves_the_input_state_unchanged(self):
        ds = tiny_dataset()
        state = initialize(ds, small_cfg())
        post = e_step(state, ds)[0]
        before = state.crf.weights.copy()
        crf, params = m_step(state, ds, post)
        np.testing.assert_array_equal(state.crf.weights, before)
        assert crf is not state.crf
        params.validate()

    def test_refits_on_one_soft_count_example_per_instance(self, monkeypatch):
        ds = tiny_dataset()
        state = initialize(ds, small_cfg())
        post = e_step(state, ds)[0]
        calls = []

        def spy(model, data, opts):
            calls.append((data, opts))
            return optimize(model, data, opts)

        monkeypatch.setattr(em, "optimize", spy)
        refit, _ = m_step(state, ds, post)
        [(data, opts)] = calls
        # the fit's corpus, each instance's marginals in its packed rows, weight 1 each
        pk = state.corpus.pack
        assert len(data) == len(ds.instances)
        assert data.corpus is state.corpus and data.weights.tolist() == [1.0] * len(ds.instances)
        assert data.unary.tobytes() == post.unary[pk.from_concat].tobytes()
        assert data.pair.tobytes() == sum((post.pair[i] for i in pk.order), np.zeros_like(data.pair)).tobytes()
        expanded = [
            (inst.tokens, tuple(seq), float(wi))
            for inst, (z, w) in zip(ds.instances, enumerated_posterior(state, ds))
            for seq, wi in zip(z, w)
        ]
        assert len(expanded) > len(data)
        np.testing.assert_allclose(refit.weights, optimize(state.crf, expanded, opts).model.weights, rtol=1e-10)

    @settings(max_examples=30, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(ds=crowd_datasets(), seed=st.integers(0, 2**16))
    def test_objective_is_the_per_instance_examples_objective_bit_for_bit(self, ds, seed):
        # the objective built from the fit's corpus and an E-step posterior,
        # and from per-instance soft-count examples, against the objective
        # those examples gave when each round sorted, featurized and packed them
        state = initialize(ds, EmConfig(init_max_iter=5, inner_max_iter=1))
        post = e_step(state, ds)[0]
        passed = []
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(em, "optimize", lambda model, data, opts: passed.append(data) or optimize(model, data, opts))
            m_step(state, ds, post)
        triples = [(inst.tokens, counts, 1.0) for inst, counts in zip(ds.instances, per_instance_posteriors(ds, post))]
        model, l2 = state.crf, state.cfg.l2_penalty
        reference = sorted_objective(model, triples, l2)
        rng = np.random.default_rng(seed)
        for theta in (model.weights, model.weights + rng.normal(size=model.dim)):
            want_value, want_grad = reference(theta)
            for examples in (passed[0], objective._examples(model, triples)):
                value, grad = objective._WeightedObjective(examples, l2).value_and_grad(theta)
                assert value == want_value and grad.tobytes() == want_grad.tobytes()

    def test_improves_the_joint_objective(self):
        ds = tiny_dataset()
        state = initialize(ds, small_cfg())
        post, before = e_step(state, ds)
        state.crf, state.annotators = m_step(state, ds, post)
        assert observed_loglik(state, ds) > before


class TestObservedLoglik:
    def test_is_the_joint_objective(self):
        for ds in (tiny_dataset(), tiny_dataset(skipped=True)):
            for smoothing in (0.0, 1.0):
                state = initialize(ds, small_cfg(smoothing=smoothing))
                assert observed_loglik(state, ds) == pytest.approx(joint_objective(state, ds), rel=1e-10)


class TestFit:
    def make_noisy(self):
        gold = make_gold(20, seed=9)
        return simulate(
            gold, SimConfig(n_annotators=3, target_precision=0.7, precision_spread=0.1, seed=9)
        ), gold

    def test_likelihood_never_decreases(self):
        crowd, _ = self.make_noisy()
        r = fit(crowd, EmConfig(max_iters=3, rel_tol=0.0, init_max_iter=30, inner_max_iter=10))
        diffs = [b - a for a, b in zip(r.history, r.history[1:])]
        assert min(diffs) > -1e-6
        assert r.history[-1] > r.history[0]

    def test_runs_exactly_max_iters_without_a_tolerance(self):
        crowd, _ = self.make_noisy()
        r = fit(crowd, EmConfig(max_iters=2, rel_tol=0.0, init_max_iter=20, inner_max_iter=6))
        assert r.iterations == 2
        assert len(r.history) == 3
        assert not r.converged

    @pytest.mark.parametrize("precision, rounds, converged", [(0.3, 20, False), (0.7, 4, True)])
    def test_the_default_tolerance_is_scaled_by_the_evidence(self, precision, rounds, converged):
        # scaled by the whole objective, most of it the tables' log-prior
        # over rows no data reaches, the test stopped the precision-0.3 fit
        # after 12 rounds, and its held-out F1 fell from 0.652 to 0.621; the
        # precision-0.7 fit stops after 4 rounds either way
        train, _ = split(make_gold(160, seed=5), 120)
        crowd = simulate(train, SimConfig(n_annotators=5, target_precision=precision, precision_spread=0.1, seed=5))
        r = fit(crowd, EmConfig())
        assert (r.iterations, r.converged) == (rounds, converged)

    def test_loose_tolerance_stops_after_one_iteration(self):
        crowd, _ = self.make_noisy()
        r = fit(crowd, EmConfig(max_iters=50, rel_tol=1e9, init_max_iter=20, inner_max_iter=6))
        assert r.iterations == 1
        assert r.converged

    def test_deterministic(self):
        crowd, _ = self.make_noisy()
        cfg = EmConfig(max_iters=2, rel_tol=0.0, init_max_iter=20, inner_max_iter=6)
        a = fit(crowd, cfg)
        b = fit(crowd, cfg)
        assert a.history == b.history
        np.testing.assert_array_equal(a.crf.weights, b.crf.weights)
        np.testing.assert_array_equal(a.annotators.local, b.annotators.local)
        np.testing.assert_array_equal(a.annotators.mention, b.annotators.mention)

    def test_log_stream_gets_one_line_per_iteration(self):
        crowd, _ = self.make_noisy()
        buf = io.StringIO()
        r = fit(crowd, EmConfig(max_iters=2, rel_tol=0.0, init_max_iter=20, inner_max_iter=6), log=buf)
        lines = buf.getvalue().splitlines()
        assert len(lines) == r.iterations + 1
        assert lines[0].startswith("0\t")
        for line in lines:
            assert len(line.split("\t")) == 5

    def test_scores_the_corpus_once_per_round_plus_once(self, monkeypatch):
        crowd, _ = self.make_noisy()
        calls = {"extract_features": 0, "log_partition": 0, "number": 0}
        for owner, name in ((em, "extract_features"), (em, "log_partition"), (features._InputTable, "number")):
            def counted(*args, _fn=getattr(owner, name), _name=name):
                calls[_name] += 1
                return _fn(*args)

            monkeypatch.setattr(owner, name, counted)
        rounds = 3
        r = fit(crowd, EmConfig(max_iters=rounds, rel_tol=0.0, init_max_iter=20, inner_max_iter=6))
        assert r.iterations == rounds
        # every featurization from strings goes through number: build_model's, of
        # the one corpus the seed fit and every round read
        assert calls == {"extract_features": rounds + 1, "log_partition": rounds + 1, "number": 1}

    def test_looks_the_corpus_up_once_per_fit(self, monkeypatch):
        crowd, _ = self.make_noisy()
        rounds = 3
        cfg = EmConfig(max_iters=rounds, rel_tol=0.0, init_max_iter=20, inner_max_iter=6)
        builds = []
        init = features._InputTable.__init__

        def counted(table, token_seqs):
            builds.append(len(token_seqs))
            init(table, token_seqs)

        monkeypatch.setattr(features._InputTable, "__init__", counted)
        r = fit(crowd, cfg)
        assert r.iterations == rounds
        # one, in initialize: build_model's, which the seed fit and every round read
        assert builds == [len(crowd.instances)]
        monkeypatch.undo()
        tokens = [inst.tokens for inst in crowd.instances]

        def fresh(model, _inputs):  # the corpus looked up again on every call
            return crf.extract_features(model, features._InputTable(tokens).look_up(model))

        monkeypatch.setattr(em, "extract_features", fresh)
        again = fit(crowd, cfg)
        assert again.history == r.history and again.crf.weights.tobytes() == r.crf.weights.tobytes()

    def test_history_is_the_joint_objective_after_each_m_step(self):
        crowd, _ = self.make_noisy()
        cfg = EmConfig(max_iters=2, rel_tol=0.0, init_max_iter=20, inner_max_iter=6)
        state = initialize(crowd, cfg)
        history = [observed_loglik(state, crowd)]
        oracle = [joint_objective(state, crowd)]
        for _ in range(cfg.max_iters):
            post, value = e_step(state, crowd)
            assert value == history[-1]
            state.crf, state.annotators = m_step(state, crowd, post)
            history.append(observed_loglik(state, crowd))
            oracle.append(joint_objective(state, crowd))
        assert fit(crowd, cfg).history == history
        assert history == pytest.approx(oracle, rel=1e-10)

    def test_the_lattice_cap_does_not_change_the_fit(self):
        gold = make_gold(40, seed=3)
        crowd = simulate(gold, SimConfig(n_annotators=5, target_precision=0.3, precision_spread=0.1, seed=3))
        cfg = EmConfig(max_iters=2, rel_tol=0.0, init_max_iter=20, inner_max_iter=6)
        one = fit(crowd, dataclasses.replace(cfg, lattice_cap=1))
        every = fit(crowd, dataclasses.replace(cfg, lattice_cap=100_000))
        assert all(lat.capped for lat in one.state.lattices if lat.n_valid > 1)
        assert not any(lat.capped for lat in every.state.lattices)
        assert one.history == every.history
        assert one.crf.weights.tobytes() == every.crf.weights.tobytes()
        assert one.annotators.local.tobytes() == every.annotators.local.tobytes()
        assert one.annotators.mention.tobytes() == every.annotators.mention.tobytes()
        assert posterior_modes(one.posterior) == posterior_modes(every.posterior)

    def test_no_lattice_lists_its_paths(self):
        gold = make_gold(40, seed=3)
        crowd = simulate(gold, SimConfig(n_annotators=5, target_precision=0.3, precision_spread=0.1, seed=3))
        cfg = EmConfig(max_iters=2, rel_tol=0.0, init_max_iter=20, inner_max_iter=6, lattice_cap=5)
        for lattices in (initialize(crowd, cfg).lattices, fit(crowd, cfg).state.lattices):
            assert any(lat.capped for lat in lattices)
            assert not any("sequences" in vars(lat) for lat in lattices)


def joint_objective(state, ds):
    """The joint MAP objective generalized EM ascends, from public primitives:
    sum_i log sum_{z in lattice_i} p(z|x_i) prod_k p(y_ik|z), minus the
    tagger's (l2/2)||theta||^2, plus the tables' Dirichlet log-prior
    s * sum log p (0 when s = 0, where 0 * log 0 would be undefined)."""
    total = 0.0
    pots = extract_features(state.crf, [inst.tokens for inst in ds.instances])
    logzs = log_partition(pots)
    for inst, lat, unary, logz in zip(ds.instances, state.lattices, per_instance(ds, pots.unary), logzs):
        z = np.asarray(lat.sequences, dtype=np.intp)  # (S, L)
        pos = np.arange(z.shape[1])
        logw = unary[pos, z].sum(axis=1) + pots.pairwise[z[:, :-1], z[:, 1:]].sum(axis=1)
        logw -= logz
        links = resolve_mentions(inst.tokens)
        for ann, labels in inst.annotations.items():
            logw += factor_matrix(state.annotators, ann, labels, links)[pos, z].sum(axis=1)
        total += float(logsumexp(logw))
    total -= 0.5 * state.cfg.l2_penalty * float(state.crf.weights @ state.crf.weights)
    s = state.cfg.smoothing
    if s:
        total += s * float(np.log(state.annotators.local).sum() + np.log(state.annotators.mention).sum())
    return total


class TestJointObjective:
    @pytest.mark.parametrize("smoothing", [0.0, 1.0])
    def test_fit_history_never_decreases_and_is_the_joint_objective(self, smoothing):
        # precision 0.3, cap 500: the per-annotator sum of log marginals that
        # fit recorded before the exact E-step fell by 0.76 in one round here
        # at smoothing 0; the joint objective EM ascends cannot fall
        gold = make_gold(40, seed=3)
        crowd = simulate(
            gold, SimConfig(n_annotators=5, target_precision=0.3, precision_spread=0.1, seed=3)
        )
        cfg = EmConfig(
            max_iters=8, rel_tol=0, smoothing=smoothing,
            init_max_iter=20, inner_max_iter=10, lattice_cap=500,
        )
        r = fit(crowd, cfg)
        assert any(lat.capped for lat in r.state.lattices)
        assert np.isfinite(r.history).all()
        assert min(b - a for a, b in zip(r.history, r.history[1:])) > -1e-6
        # the oracle enumerates every lattice path, so it needs them uncapped
        state = initialize(crowd, dataclasses.replace(cfg, lattice_cap=100_000))
        values = [joint_objective(state, crowd)]
        for _ in range(cfg.max_iters):
            post = e_step(state, crowd)[0]
            state.crf, state.annotators = m_step(state, crowd, post)
            values.append(joint_objective(state, crowd))
        assert r.history == pytest.approx(values, rel=1e-10)


def brute_mode(z, w):
    """The highest-weight sequence of ``z``, or None on a tie for the top."""
    top = np.argsort(-w, kind="stable")[:2]
    if len(top) > 1 and w[top[1]] >= w[top[0]] * (1 - 1e-9):
        return None
    return tuple(z[top[0]].tolist())


class TestPosteriorModes:
    def test_unanimous_crowd_recovers_its_labels(self):
        gold = make_gold(10, seed=4)
        insts = tuple(
            CrowdInstance(i.tokens, {f"a{k}": i.gold for k in range(3)}, i.gold)
            for i in gold.instances
        )
        crowd = CrowdDataset(SCHEME, insts, tuple(f"a{k}" for k in range(3)))
        r = fit(crowd, EmConfig(max_iters=1, init_max_iter=10, inner_max_iter=4))
        assert paths(crowd, posterior_modes(r.posterior)) == [i.gold for i in gold.instances]

    def test_modes_come_from_the_lattices(self):
        ds = tiny_dataset()
        state = initialize(ds, small_cfg())
        modes = paths(ds, posterior_modes(e_step(state, ds)[0]))
        assert len(modes) == len(state.lattices)
        for mode, lat in zip(modes, state.lattices):
            assert mode in lat.sequences

    def test_modes_are_the_brute_force_argmax_where_nothing_ties(self):
        crowd, _ = TestFit().make_noisy()
        r = fit(crowd, EmConfig(max_iters=2, rel_tol=0.0, init_max_iter=20, inner_max_iter=6))
        checked = 0
        for mode, (z, w) in zip(paths(crowd, posterior_modes(r.posterior)), enumerated_posterior(r.state, crowd)):
            want = brute_mode(z, w)
            if want is not None:
                assert mode == want
                checked += 1
        assert checked >= len(crowd.instances) - 2

    def test_a_tie_goes_to_the_lowest_label_from_the_last_position(self):
        # the added instance's lattice is (O, B-ORG), (B-LOC, I-LOC), (B-LOC, B-ORG):
        # first in lattice order is not Viterbi's pick
        tiny = tiny_dataset()
        split = CrowdInstance(("x", "y"), {"u": (L["O"], L["I-LOC"]), "v": (L["B-LOC"], L["B-ORG"])})
        ds = CrowdDataset(SCHEME, (*tiny.instances, split), tiny.roster)
        state = initialize(ds, small_cfg(consistency_lo=0.25))
        assert state.lattices[-1].sequences == ((0, 3), (1, 2), (1, 3))
        state.crf.weights[:] = 0.0
        state.annotators.local[:] = 1.0 / SCHEME.size
        state.annotators.mention[:] = 1.0 / SCHEME.size
        assert any(len(lat.sequences) > 1 for lat in state.lattices)
        allowed = SCHEME.allowed_transitions
        expected = []
        for lat in state.lattices:
            # Viterbi's rule: the lowest last label, then back-pointers that
            # each take the lowest label leading on
            path = [lat.states[-1][0]]
            for states in reversed(lat.states[:-1]):
                path.insert(0, next(s for s in states if allowed[s, path[0]]))
            expected.append(tuple(path))
        assert paths(ds, posterior_modes(e_step(state, ds)[0])) == expected
        assert expected != [lat.sequences[0] for lat in state.lattices]


def check_posteriors(state, ds, post, value):
    assert np.isfinite(value)
    assert np.isfinite(post.unary).all() and np.isfinite(post.pair).all()
    np.testing.assert_allclose(post.unary.sum(axis=1), 1.0, atol=1e-9)
    np.testing.assert_allclose(post.pair.sum(axis=(1, 2)), [len(inst.tokens) - 1 for inst in ds.instances], atol=1e-9)
    for mode, lat in zip(paths(ds, posterior_modes(post)), state.lattices, strict=True):
        assert all(s in states for s, states in zip(mode, lat.states))
        assert all(ds.scheme.allowed_transitions[a, b] for a, b in zip(mode, mode[1:]))
    if not any(lat.capped for lat in state.lattices):
        assert value == pytest.approx(joint_objective(state, ds), rel=1e-9, abs=1e-9)


class TestProperties:
    @settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(ds=crowd_datasets(), smoothing=st.sampled_from([0.0, 0.5, 1.0]), cap=st.sampled_from([1, 3, 5000]))
    def test_fit_gives_a_finite_objective_and_normalized_marginals(self, ds, smoothing, cap):
        cfg = EmConfig(max_iters=2, rel_tol=0.0, smoothing=smoothing, lattice_cap=cap,
                       init_max_iter=5, inner_max_iter=3)
        r = fit(ds, cfg)
        assert min(b - a for a, b in zip(r.history, r.history[1:])) > -1e-6
        check_posteriors(r.state, ds, r.posterior, r.history[-1])

    @settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(ds=crowd_datasets(), seed=st.integers(0, 2**16))
    def test_unsmoothed_tables_give_a_finite_e_step_or_name_the_instance(self, ds, seed):
        # tables refit without smoothing from sparse random counts hold zeros,
        # which can rule out every path of an instance
        state = initialize(ds, EmConfig(smoothing=0.0, init_max_iter=5))
        m, k = ds.scheme.size, len(ds.roster)
        rng = np.random.default_rng(seed)
        counts = rng.random((2, k, m + 1, m, m)) * (rng.random((2, k, m + 1, m, m)) < 0.3)
        state.annotators = params_from_counts(ds.roster, counts[0], counts[1], 0.0)
        try:
            post, value = e_step(state, ds)
        except ValueError as e:
            assert re.fullmatch(r"instance \d+ has no finite-scoring path", str(e))
            i = int(str(e).split()[1])
            assert i < len(ds.instances) and ds.instances[i].annotations
            return
        check_posteriors(state, ds, post, value)
