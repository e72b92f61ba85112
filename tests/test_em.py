"""Joint estimation loop: posteriors, count updates, likelihood, convergence."""

import dataclasses
import io
import re

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from scipy.special import logsumexp

from corpus import SCHEME, make_gold
from crowdseq import em
from crowdseq import (
    CrowdDataset,
    CrowdInstance,
    EmConfig,
    LabelScheme,
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
from oracles import annotation_loglik, factor_matrix, sequence_score

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
    base = dict(max_iters=2, rel_tol=0.0, seed=3, init_max_iter=20, inner_max_iter=8)
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

    def test_deterministic_in_the_seed(self):
        ds = tiny_dataset()
        a = initialize(ds, small_cfg(seed=11))
        b = initialize(ds, small_cfg(seed=11))
        c = initialize(ds, small_cfg(seed=12))
        np.testing.assert_array_equal(a.crf.weights, b.crf.weights)
        np.testing.assert_array_equal(a.annotators.local, b.annotators.local)
        assert not np.array_equal(a.annotators.local, c.annotators.local)


def enumerated_posterior(state, ds):
    """Per instance of uncapped lattices: its lattice sequences (S, L) and
    their posterior weights, recomputed from single-sequence primitives."""
    out = []
    for inst, lat in zip(ds.instances, state.lattices):
        assert not lat.capped
        pot = extract_features(state.crf, inst.tokens)
        logz = log_partition(pot)
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


class TestEStep:
    def test_posteriors_normalize_on_the_lattice(self):
        ds = tiny_dataset()
        state = initialize(ds, small_cfg())
        post = e_step(state, ds)[0]
        assert len(post) == len(ds.instances)
        for inst, lat, p in zip(ds.instances, state.lattices, post):
            assert p.unary.shape == (len(inst.tokens), SCHEME.size)
            np.testing.assert_allclose(p.unary.sum(axis=1), 1.0, atol=1e-12)
            assert p.pair.sum() == pytest.approx(len(inst.tokens) - 1, abs=1e-12)
            assert (p.unary >= 0).all() and (p.pair >= 0).all()
            for j, states in enumerate(lat.states):
                off = np.setdiff1d(np.arange(SCHEME.size), states)
                assert (p.unary[j, off] == 0).all()

    def test_singleton_lattice_gets_all_the_mass(self):
        ds = tiny_dataset()
        # unanimity on instance 1 plus hi below 2 forces a single candidate
        state = initialize(ds, small_cfg(consistency_hi=1.9))
        post = e_step(state, ds)[0]
        [only] = state.lattices[1].sequences
        np.testing.assert_allclose(post[1].unary, np.eye(SCHEME.size)[list(only)], atol=1e-12)

    def test_flat_parameters_give_a_flat_posterior(self):
        ds = tiny_dataset()
        state = initialize(ds, small_cfg())
        state.crf.weights[:] = 0.0
        m = SCHEME.size
        state.annotators.local[:] = 1.0 / m
        state.annotators.mention[:] = 1.0 / m
        for lat, p in zip(state.lattices, e_step(state, ds)[0]):
            z = np.array(lat.sequences)
            uni, pair = enumerated_counts(z, np.full(len(z), 1.0 / len(z)), m)
            np.testing.assert_allclose(p.unary, uni, atol=1e-12)
            np.testing.assert_allclose(p.pair, pair, atol=1e-12)

    def test_matches_single_sequence_primitives(self):
        for ds in (tiny_dataset(), tiny_dataset(skipped=True)):
            state = initialize(ds, small_cfg())
            post = e_step(state, ds)[0]
            for p, (z, w) in zip(post, enumerated_posterior(state, ds)):
                uni, pair = enumerated_counts(z, w, SCHEME.size)
                np.testing.assert_allclose(p.unary, uni, atol=1e-10)
                np.testing.assert_allclose(p.pair, pair, atol=1e-10)

    def test_an_instance_with_no_possible_path_is_named(self):
        ds = tiny_dataset()
        state = initialize(ds, small_cfg(smoothing=0.0))
        # no annotator is thought ever to assign O after a label, as u does in instance 0
        state.annotators.local[:, :, :, 0] = 0.0
        state.annotators.local /= state.annotators.local.sum(axis=3, keepdims=True)
        with np.errstate(all="raise"):
            with pytest.raises(ValueError, match="^instance 0 has no finite-scoring path$"):
                e_step(state, ds)


class TestCounts:
    def test_matches_per_sequence_accumulation(self):
        for ds in (tiny_dataset(), tiny_dataset(skipped=True)):
            state = initialize(ds, small_cfg())
            post = e_step(state, ds)[0]
            local, mention = confusion_counts(state, ds, post)

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
        local, mention = confusion_counts(state, ds, post)
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
            calls.append((list(data), opts))
            return optimize(model, calls[-1][0], opts)

        monkeypatch.setattr(em, "optimize", spy)
        crf, _ = m_step(state, ds, post)
        [(data, opts)] = calls
        assert len(data) == len(ds.instances)
        for (tokens, (uni, pair), w), inst, p in zip(data, ds.instances, post):
            assert tokens is inst.tokens
            assert uni is p.unary and pair is p.pair and w == 1.0
        expanded = [
            (inst.tokens, tuple(seq), float(wi))
            for inst, (z, w) in zip(ds.instances, enumerated_posterior(state, ds))
            for seq, wi in zip(z, w)
        ]
        assert len(expanded) > len(data)
        np.testing.assert_allclose(crf.weights, optimize(state.crf, expanded, opts).model.weights, rtol=1e-10)

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
        r = fit(crowd, EmConfig(max_iters=3, rel_tol=0.0, seed=9, init_max_iter=30, inner_max_iter=10))
        diffs = [b - a for a, b in zip(r.history, r.history[1:])]
        assert min(diffs) > -1e-6
        assert r.history[-1] > r.history[0]

    def test_runs_exactly_max_iters_without_a_tolerance(self):
        crowd, _ = self.make_noisy()
        r = fit(crowd, EmConfig(max_iters=2, rel_tol=0.0, seed=9, init_max_iter=20, inner_max_iter=6))
        assert r.iterations == 2
        assert len(r.history) == 3
        assert not r.converged

    def test_loose_tolerance_stops_after_one_iteration(self):
        crowd, _ = self.make_noisy()
        r = fit(crowd, EmConfig(max_iters=50, rel_tol=1e9, seed=9, init_max_iter=20, inner_max_iter=6))
        assert r.iterations == 1
        assert r.converged

    def test_deterministic(self):
        crowd, _ = self.make_noisy()
        cfg = EmConfig(max_iters=2, rel_tol=0.0, seed=9, init_max_iter=20, inner_max_iter=6)
        a = fit(crowd, cfg)
        b = fit(crowd, cfg)
        assert a.history == b.history
        np.testing.assert_array_equal(a.crf.weights, b.crf.weights)
        np.testing.assert_array_equal(a.annotators.local, b.annotators.local)
        np.testing.assert_array_equal(a.annotators.mention, b.annotators.mention)

    def test_log_stream_gets_one_line_per_iteration(self):
        crowd, _ = self.make_noisy()
        buf = io.StringIO()
        r = fit(crowd, EmConfig(max_iters=2, rel_tol=0.0, seed=9, init_max_iter=20, inner_max_iter=6), log=buf)
        lines = buf.getvalue().splitlines()
        assert len(lines) == r.iterations + 1
        assert lines[0].startswith("0\t")
        for line in lines:
            assert len(line.split("\t")) == 5

    def test_scores_the_corpus_once_per_round_plus_once(self, monkeypatch):
        crowd, _ = self.make_noisy()
        calls = {"extract_features": 0, "log_partition": 0}
        for name in calls:
            def counted(*args, _fn=getattr(em, name), _name=name):
                calls[_name] += 1
                return _fn(*args)

            monkeypatch.setattr(em, name, counted)
        rounds = 3
        r = fit(crowd, EmConfig(max_iters=rounds, rel_tol=0.0, seed=9, init_max_iter=20, inner_max_iter=6))
        assert r.iterations == rounds
        assert calls == {"extract_features": rounds + 1, "log_partition": rounds + 1}

    def test_history_is_the_joint_objective_after_each_m_step(self):
        crowd, _ = self.make_noisy()
        cfg = EmConfig(max_iters=2, rel_tol=0.0, seed=9, init_max_iter=20, inner_max_iter=6)
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
        cfg = EmConfig(max_iters=2, rel_tol=0.0, seed=3, init_max_iter=20, inner_max_iter=6)
        one = fit(crowd, dataclasses.replace(cfg, lattice_cap=1))
        every = fit(crowd, dataclasses.replace(cfg, lattice_cap=100_000))
        assert all(lat.capped for lat in one.state.lattices if lat.n_valid > 1)
        assert not any(lat.capped for lat in every.state.lattices)
        assert one.history == every.history
        assert one.crf.weights.tobytes() == every.crf.weights.tobytes()
        assert one.annotators.local.tobytes() == every.annotators.local.tobytes()
        assert one.annotators.mention.tobytes() == every.annotators.mention.tobytes()
        assert posterior_modes(one.posteriors) == posterior_modes(every.posteriors)


def joint_objective(state, ds):
    """The joint MAP objective generalized EM ascends, from public primitives:
    sum_i log sum_{z in lattice_i} p(z|x_i) prod_k p(y_ik|z), minus the
    tagger's (l2/2)||theta||^2, plus the tables' Dirichlet log-prior
    s * sum log p (0 when s = 0, where 0 * log 0 would be undefined)."""
    total = 0.0
    pots = extract_features(state.crf, [inst.tokens for inst in ds.instances])
    for inst, lat, pot in zip(ds.instances, state.lattices, pots):
        z = np.asarray(lat.sequences, dtype=np.intp)  # (S, L)
        pos = np.arange(z.shape[1])
        logw = pot.unary[pos, z].sum(axis=1) + pot.pairwise[z[:, :-1], z[:, 1:]].sum(axis=1)
        logw -= log_partition(pot)
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
            max_iters=8, rel_tol=0, seed=3, smoothing=smoothing,
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
        r = fit(crowd, EmConfig(max_iters=1, seed=4, init_max_iter=10, inner_max_iter=4))
        assert posterior_modes(r.posteriors) == [i.gold for i in gold.instances]

    def test_modes_come_from_the_lattices(self):
        ds = tiny_dataset()
        state = initialize(ds, small_cfg())
        modes = posterior_modes(e_step(state, ds)[0])
        for mode, lat in zip(modes, state.lattices):
            assert mode in lat.sequences

    def test_modes_are_the_brute_force_argmax_where_nothing_ties(self):
        crowd, _ = TestFit().make_noisy()
        r = fit(crowd, EmConfig(max_iters=2, rel_tol=0.0, seed=9, init_max_iter=20, inner_max_iter=6))
        checked = 0
        for mode, (z, w) in zip(posterior_modes(r.posteriors), enumerated_posterior(r.state, crowd)):
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
        assert posterior_modes(e_step(state, ds)[0]) == expected
        assert expected != [lat.sequences[0] for lat in state.lattices]


@st.composite
def crowd_datasets(draw):
    """Small crowds over a BIO or a RAW scheme: one to three annotators who
    may skip instances (an instance nobody labeled included), sentences of
    one to five tokens."""
    scheme = draw(st.sampled_from([LabelScheme.bio(("LOC",)), SCHEME, LabelScheme(("a", "b", "c"), "RAW")]))
    roster = tuple(f"r{k}" for k in range(draw(st.integers(1, 3))))
    words = ["ann", "rome", "saw", "acme", "the"]
    instances = []
    for _ in range(draw(st.integers(1, 4))):
        n = draw(st.integers(1, 5))
        tokens = tuple(draw(st.lists(st.sampled_from(words), min_size=n, max_size=n)))
        labels = st.lists(st.integers(0, scheme.size - 1), min_size=n, max_size=n).map(tuple)
        present = draw(st.lists(st.sampled_from(roster), unique=True, max_size=len(roster)))
        instances.append(CrowdInstance(tokens, {a: draw(labels) for a in present}))
    if not any(inst.annotations for inst in instances):
        instances[0] = CrowdInstance(instances[0].tokens, {roster[0]: (0,) * len(instances[0].tokens)})
    return CrowdDataset(scheme, tuple(instances), roster)


def check_posteriors(state, ds, post, value):
    assert np.isfinite(value)
    for inst, p in zip(ds.instances, post):
        assert np.isfinite(p.unary).all() and np.isfinite(p.pair).all()
        np.testing.assert_allclose(p.unary.sum(axis=1), 1.0, atol=1e-9)
        assert p.pair.sum() == pytest.approx(len(inst.tokens) - 1, abs=1e-9)
    for mode, lat in zip(posterior_modes(post), state.lattices):
        assert all(s in states for s, states in zip(mode, lat.states))
        assert all(ds.scheme.allowed_transitions[a, b] for a, b in zip(mode, mode[1:]))
    if not any(lat.capped for lat in state.lattices):
        assert value == pytest.approx(joint_objective(state, ds), rel=1e-9, abs=1e-9)


class TestProperties:
    @settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(ds=crowd_datasets(), smoothing=st.sampled_from([0.0, 0.5, 1.0]), cap=st.sampled_from([1, 3, 5000]))
    def test_fit_gives_a_finite_objective_and_normalized_marginals(self, ds, smoothing, cap):
        cfg = EmConfig(max_iters=2, rel_tol=0.0, seed=1, smoothing=smoothing, lattice_cap=cap,
                       init_max_iter=5, inner_max_iter=3)
        r = fit(ds, cfg)
        assert min(b - a for a, b in zip(r.history, r.history[1:])) > -1e-6
        check_posteriors(r.state, ds, r.posteriors, r.history[-1])

    @settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(ds=crowd_datasets(), seed=st.integers(0, 2**16))
    def test_unsmoothed_tables_give_a_finite_e_step_or_name_the_instance(self, ds, seed):
        # tables refit without smoothing from sparse random counts hold zeros,
        # which can rule out every path of an instance
        state = initialize(ds, EmConfig(smoothing=0.0, seed=seed, init_max_iter=5))
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
