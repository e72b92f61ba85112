"""Joint estimation loop: posteriors, count updates, likelihood, convergence."""

import io

import numpy as np
import pytest
from scipy.special import logsumexp

from corpus import SCHEME, make_gold
from crowdseq import em
from crowdseq import (
    CrowdDataset,
    CrowdInstance,
    EmConfig,
    SimConfig,
    annotation_loglik,
    confusion_counts,
    e_step,
    extract_features,
    factor_matrix,
    fit,
    initialize,
    log_partition,
    m_step,
    observed_loglik,
    optimize,
    posterior_modes,
    resolve_mentions,
    sequence_score,
    simulate,
)

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
        assert state.loglik_history == []
        state.annotators.validate()

    def test_deterministic_in_the_seed(self):
        ds = tiny_dataset()
        a = initialize(ds, small_cfg(seed=11))
        b = initialize(ds, small_cfg(seed=11))
        c = initialize(ds, small_cfg(seed=12))
        np.testing.assert_array_equal(a.crf.weights, b.crf.weights)
        np.testing.assert_array_equal(a.annotators.local, b.annotators.local)
        assert not np.array_equal(a.annotators.local, c.annotators.local)


def brute_posterior(state, ds):
    """Candidate weights recomputed from public single-sequence primitives."""
    out = []
    for inst, lat in zip(ds.instances, state.lattices):
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
        logw -= logw.max()
        w = np.exp(logw)
        out.append(w / w.sum())
    return out


class TestEStep:
    def test_posteriors_normalize(self):
        ds = tiny_dataset()
        state = initialize(ds, small_cfg())
        post = e_step(state, ds)[0]
        assert len(post) == len(ds.instances)
        for lat, w in zip(state.lattices, post):
            assert w.shape == (len(lat.sequences),)
            assert w.sum() == pytest.approx(1.0, abs=1e-12)
            assert (w >= 0).all()

    def test_singleton_lattice_gets_all_the_mass(self):
        ds = tiny_dataset()
        # unanimity on instance 1 plus hi below 2 forces a single candidate
        state = initialize(ds, small_cfg(consistency_hi=1.9))
        post = e_step(state, ds)[0]
        assert len(state.lattices[1].sequences) == 1
        np.testing.assert_allclose(post[1], [1.0])

    def test_flat_parameters_give_a_flat_posterior(self):
        ds = tiny_dataset()
        state = initialize(ds, small_cfg())
        state.crf.weights[:] = 0.0
        m = SCHEME.size
        state.annotators.local[:] = 1.0 / m
        state.annotators.mention[:] = 1.0 / m
        for lat, w in zip(state.lattices, e_step(state, ds)[0]):
            np.testing.assert_allclose(w, 1.0 / len(lat.sequences), atol=1e-12)

    def test_matches_single_sequence_primitives(self):
        for ds in (tiny_dataset(), tiny_dataset(skipped=True)):
            state = initialize(ds, small_cfg())
            post = e_step(state, ds)[0]
            expected = brute_posterior(state, ds)
            for got, want in zip(post, expected):
                np.testing.assert_allclose(got, want, atol=1e-10)


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
            for inst, lat, w in zip(ds.instances, state.lattices, post):
                links = resolve_mentions(inst.tokens)
                for ann, labels in inst.annotations.items():
                    ki = ds.roster.index(ann)
                    for seq, wi in zip(lat.sequences, w):
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

    def test_refits_on_one_candidate_stack_per_instance(self, monkeypatch):
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
        for (tokens, z, w), inst, lat, p in zip(data, ds.instances, state.lattices, post):
            assert tokens is inst.tokens
            np.testing.assert_array_equal(z, lat.sequences)
            np.testing.assert_array_equal(w, p)
        expanded = [
            (inst.tokens, seq, float(wi))
            for inst, lat, p in zip(ds.instances, state.lattices, post)
            for seq, wi in zip(lat.sequences, p)
        ]
        assert len(expanded) > len(data)
        np.testing.assert_allclose(crf.weights, optimize(state.crf, expanded, opts).model.weights, rtol=1e-10)

    def test_improves_the_observed_likelihood(self):
        ds = tiny_dataset()
        state = initialize(ds, small_cfg())
        before = observed_loglik(state, ds)
        post = e_step(state, ds)[0]
        state.crf, state.annotators = m_step(state, ds, post)
        after = observed_loglik(state, ds)
        assert after > before - 1e-9


class TestObservedLoglik:
    def test_matches_single_sequence_primitives(self):
        for ds in (tiny_dataset(), tiny_dataset(skipped=True)):
            state = initialize(ds, small_cfg())
            expected = 0.0
            for inst, lat in zip(ds.instances, state.lattices):
                pot = extract_features(state.crf, inst.tokens)
                logz = log_partition(pot)
                links = resolve_mentions(inst.tokens)
                for ann, labels in inst.annotations.items():
                    terms = []
                    for seq in lat.sequences:
                        v = sequence_score(pot, seq) - logz
                        v += annotation_loglik(state.annotators, ann, labels, seq, links)
                        terms.append(v)
                    hi = max(terms)
                    expected += hi + np.log(sum(np.exp(t - hi) for t in terms))
            assert observed_loglik(state, ds) == pytest.approx(expected, rel=1e-10)


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

    def test_history_is_the_loglik_after_each_m_step(self):
        crowd, _ = self.make_noisy()
        cfg = EmConfig(max_iters=2, rel_tol=0.0, seed=9, init_max_iter=20, inner_max_iter=6)
        state = initialize(crowd, cfg)
        history = [observed_loglik(state, crowd)]
        for _ in range(cfg.max_iters):
            post, ll = e_step(state, crowd)
            assert ll == history[-1]
            state.crf, state.annotators = m_step(state, crowd, post)
            history.append(observed_loglik(state, crowd))
        assert fit(crowd, cfg).history == history


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
    def test_never_decreases_across_em_rounds(self, smoothing):
        # precision 0.3 and cap 500: on this corpus the observed_loglik that
        # fit records falls by 0.76 in one round at smoothing 0
        gold = make_gold(40, seed=3)
        crowd = simulate(
            gold, SimConfig(n_annotators=5, target_precision=0.3, precision_spread=0.1, seed=3)
        )
        cfg = EmConfig(
            max_iters=8, rel_tol=0, seed=3, smoothing=smoothing,
            init_max_iter=20, inner_max_iter=10, lattice_cap=500,
        )
        state = initialize(crowd, cfg)
        values = [joint_objective(state, crowd)]
        for _ in range(cfg.max_iters):
            post = e_step(state, crowd)[0]
            state.crf, state.annotators = m_step(state, crowd, post)
            values.append(joint_objective(state, crowd))
        assert np.isfinite(values).all()
        assert min(b - a for a, b in zip(values, values[1:])) > -1e-6


class TestPosteriorModes:
    def test_unanimous_crowd_recovers_its_labels(self):
        gold = make_gold(10, seed=4)
        insts = tuple(
            CrowdInstance(i.tokens, {f"a{k}": i.gold for k in range(3)}, i.gold)
            for i in gold.instances
        )
        crowd = CrowdDataset(SCHEME, insts, tuple(f"a{k}" for k in range(3)))
        r = fit(crowd, EmConfig(max_iters=1, seed=4, init_max_iter=10, inner_max_iter=4))
        modes = posterior_modes(r.state, r.posteriors)
        assert modes == [i.gold for i in gold.instances]

    def test_modes_come_from_the_lattices(self):
        ds = tiny_dataset()
        state = initialize(ds, small_cfg())
        modes = posterior_modes(state, e_step(state, ds)[0])
        for mode, lat in zip(modes, state.lattices):
            assert mode in lat.sequences

    def test_a_tie_goes_to_the_first_sequence_in_lattice_order(self):
        ds = tiny_dataset()
        state = initialize(ds, small_cfg())
        state.crf.weights[:] = 0.0
        state.annotators.local[:] = 1.0 / SCHEME.size
        state.annotators.mention[:] = 1.0 / SCHEME.size
        assert any(len(lat.sequences) > 1 for lat in state.lattices)
        modes = posterior_modes(state, e_step(state, ds)[0])
        assert modes == [lat.sequences[0] for lat in state.lattices]
