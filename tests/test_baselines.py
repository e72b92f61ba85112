"""Token-level aggregation baselines."""

import warnings

import numpy as np
import pytest
from scipy.special import logsumexp as scipy_logsumexp

from crowdseq import (
    CrowdDataset,
    CrowdInstance,
    DsModel,
    LabelScheme,
    TrainOptions,
    aggregate_labels,
    decode,
    ds_decode,
    ds_fit,
    wrapper_train,
)
from crowdseq.baselines import logsumexp
from oracles import loop_ds_fit, mv_token

RAW = LabelScheme(("A", "B", "C"), "RAW")


def vote(inst):
    """``aggregate_labels``' majority vote of one instance over RAW's labels."""
    return aggregate_labels(CrowdDataset(RAW, (inst,), ("a", "b", "c", "d", "e")), "mv")[0]


class TestMajorityVote:
    def test_plurality_wins(self):
        inst = CrowdInstance(("x", "y"), {"a": (0, 1), "b": (0, 2), "c": (1, 2)})
        assert vote(inst) == mv_token(inst) == (0, 2)

    def test_ties_resolve_to_the_lowest_label_index(self):
        inst = CrowdInstance(("x",), {"a": (2,), "b": (1,)})
        assert vote(inst) == mv_token(inst) == (1,)
        inst = CrowdInstance(("x",), {"a": (2,), "b": (1,), "c": (2,), "d": (1,), "e": (0,)})
        assert vote(inst) == mv_token(inst) == (1,)

    def test_unanimity(self):
        inst = CrowdInstance(("x", "y", "z"), {"a": (1, 0, 2), "b": (1, 0, 2)})
        assert vote(inst) == mv_token(inst) == (1, 0, 2)

    def test_no_annotations_is_an_error(self):
        with pytest.raises(ValueError, match="^instance 0: no annotations to vote over$"):
            vote(CrowdInstance(("x",), {}))
        with pytest.raises(ValueError, match="no annotations"):
            mv_token(CrowdInstance(("x",), {}))


class TestLogsumexp:
    def test_logsumexp_matches_scipy(self):
        rng = np.random.default_rng(12)
        a = rng.normal(size=(4, 6, 5)) * 300
        a[1, 2, 3] = -np.inf
        for axis in (0, 1, -1):
            np.testing.assert_allclose(logsumexp(a, axis=axis), scipy_logsumexp(a, axis=axis), rtol=1e-14)
        assert float(logsumexp(a[0, 0])) == pytest.approx(float(scipy_logsumexp(a[0, 0])), rel=1e-14)

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_rows_with_a_finite_max_are_the_max_shifted_sum(self, dtype):
        rng = np.random.default_rng(21)
        for _ in range(1500):
            a = (rng.normal(size=(int(rng.integers(1, 5)), int(rng.integers(1, 7)))) * 50).astype(dtype)
            a[rng.random(a.shape) < 0.3] = -np.inf
            # every row and every column keeps a finite entry
            a[:, int(rng.integers(a.shape[1]))] = rng.normal()
            a[int(rng.integers(a.shape[0]))] = rng.normal()
            for axis in (0, 1):
                top = a.max(axis=axis, keepdims=True)
                expected = np.log(np.exp(a - top).sum(axis=axis)) + top.squeeze(axis)
                got = logsumexp(a, axis=axis)
                assert got.dtype == expected.dtype == dtype
                assert np.array_equal(got, expected)

    def test_logsumexp_of_an_all_minus_inf_row_is_minus_inf(self):
        a = np.array([[-np.inf, -np.inf, -np.inf], [0.0, -np.inf, 1.0]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            out = logsumexp(a, axis=1)
        assert out[0] == -np.inf
        assert out[1] == pytest.approx(np.log(1.0 + np.e), rel=1e-15)
        assert float(logsumexp(a[0])) == -np.inf


def planted_dataset():
    """Two mostly-reliable annotators and one label-permuting adversary."""
    rng = np.random.default_rng([3, 0])
    perm = (1, 2, 0)
    insts = []
    for _ in range(40):
        gold = tuple(int(x) for x in rng.integers(0, 3, size=5))
        toks = tuple(f"t{int(x)}" for x in rng.integers(0, 50, size=5))
        ann = {}
        for name in ("r1", "r2"):
            lab = []
            for g in gold:
                if rng.random() < 0.85:
                    lab.append(g)
                else:
                    lab.append(int((g + 1 + rng.integers(2)) % 3))
            ann[name] = tuple(lab)
        ann["adv"] = tuple(perm[g] for g in gold)
        insts.append(CrowdInstance(toks, ann, gold))
    return CrowdDataset(RAW, tuple(insts), ("r1", "r2", "adv")), perm


def token_accuracy_of(ds, seqs):
    good = tot = 0
    for inst, seq in zip(ds.instances, seqs):
        for a, b in zip(inst.gold, seq):
            good += int(a == b)
            tot += 1
    return good / tot


class TestDawidSkene:
    def test_recovers_truth_against_an_adversary(self):
        ds, perm = planted_dataset()
        mv_acc = token_accuracy_of(ds, [mv_token(i) for i in ds.instances])
        model, _ = ds_fit(ds)
        ds_acc = token_accuracy_of(ds, [ds_decode(model, i) for i in ds.instances])
        assert ds_acc >= 0.99
        assert ds_acc > mv_acc + 0.1

    def test_learns_the_adversary_permutation(self):
        ds, perm = planted_dataset()
        model, _ = ds_fit(ds)
        adv = model.roster.index("adv")
        for truth, assigned in enumerate(perm):
            assert model.confusion[adv, truth, assigned] > 0.9

    def test_history_never_decreases(self):
        ds, _ = planted_dataset()
        model, _ = ds_fit(ds)
        h = model.loglik_history
        assert len(h) >= 2
        assert all(b - a > -1e-9 for a, b in zip(h, h[1:]))

    def test_unanimous_crowd_concentrates_the_posterior(self):
        insts = tuple(
            CrowdInstance(("x", "y"), {f"a{k}": (0, 2) for k in range(3)}, (0, 2))
            for _ in range(4)
        )
        ds = CrowdDataset(RAW, insts, tuple(f"a{k}" for k in range(3)))
        model, post = ds_fit(ds)
        for p in post:
            assert float(p.max(axis=1).min()) > 0.9
        for inst in ds.instances:
            assert ds_decode(model, inst) == inst.gold

    def test_single_annotator_is_taken_at_face_value(self):
        insts = tuple(
            CrowdInstance(("x", "y", "z"), {"solo": (0, 1, 2)}) for _ in range(3)
        )
        ds = CrowdDataset(RAW, insts, ("solo",))
        model, _ = ds_fit(ds)
        for inst in ds.instances:
            assert ds_decode(model, inst) == inst.annotations["solo"]

    def test_label_permutation_equivariance(self):
        ds, _ = planted_dataset()
        pi = (2, 0, 1)
        permuted = CrowdDataset(
            ds.scheme,
            tuple(
                CrowdInstance(
                    i.tokens,
                    {a: tuple(pi[v] for v in lab) for a, lab in i.annotations.items()},
                )
                for i in ds.instances
            ),
            ds.roster,
        )
        base, _ = ds_fit(ds)
        perm, _ = ds_fit(permuted)
        np.testing.assert_allclose(base.loglik_history, perm.loglik_history, rtol=1e-9)
        for i in ds.instances[:5]:
            j = CrowdInstance(
                i.tokens, {a: tuple(pi[v] for v in lab) for a, lab in i.annotations.items()}
            )
            want = tuple(pi[v] for v in ds_decode(base, i))
            assert ds_decode(perm, j) == want

    def test_posterior_shapes_follow_the_instances(self):
        ds, _ = planted_dataset()
        _, post = ds_fit(ds)
        assert len(post) == len(ds.instances)
        for inst, p in zip(ds.instances, post):
            assert p.shape == (len(inst.tokens), RAW.size)
            np.testing.assert_allclose(p.sum(axis=1), 1.0, atol=1e-9)
        assert ds_fit(CrowdDataset(RAW, (), ds.roster))[1] == []

    def test_unlabeled_token_is_an_error(self):
        ds = CrowdDataset(RAW, (CrowdInstance(("x",), {}),), ("a",))
        with pytest.raises(ValueError, match="no annotations"):
            ds_fit(ds)

    @pytest.mark.parametrize("smoothing, iters", [(1.0, 100), (0.5, 7), (0.0, 20)])
    def test_matches_the_per_annotator_loop_bit_for_bit(self, smoothing, iters):
        ds, _ = planted_dataset()
        skipped = {("adv", 0), ("r1", 1)}  # (annotator, instance index mod 3)
        skipping = CrowdDataset(RAW, tuple(
            CrowdInstance(inst.tokens, {a: y for a, y in inst.annotations.items() if (a, i % 3) not in skipped})
            for i, inst in enumerate(ds.instances)
        ), ds.roster)
        for data in (ds, skipping):
            model, post = ds_fit(data, iters=iters, smoothing=smoothing)
            confusion, prior, history, loop_post = loop_ds_fit(data, iters=iters, smoothing=smoothing)
            assert np.array_equal(model.confusion, confusion) and np.array_equal(model.prior, prior)
            assert model.loglik_history == history
            assert np.array_equal(np.concatenate(post), loop_post)

    def test_unsmoothed_truth_rows_with_no_mass_fall_back_to_uniform(self):
        # label 2 gets no vote, so no posterior mass: its confusion rows are uniform
        ds = CrowdDataset(RAW, (CrowdInstance(("x", "y"), {"a": (0, 1), "b": (0, 0)}),), ("a", "b"))
        model, post = ds_fit(ds, smoothing=0.0)
        assert np.isfinite(model.confusion).all() and np.isfinite(model.loglik_history).all()
        np.testing.assert_allclose(model.confusion.sum(axis=2), 1.0, atol=1e-12)
        assert (model.confusion >= 0).all()
        np.testing.assert_array_equal(model.confusion[:, 2], 1.0 / 3)
        assert np.isfinite(post[0]).all()
        np.testing.assert_allclose(post[0].sum(axis=1), 1.0, atol=1e-12)
        for smoothing in (0.0, 0.5, 1.0):
            model, post = ds_fit(ds, smoothing=smoothing)
            confusion, prior, history, loop_post = loop_ds_fit(ds, smoothing=smoothing)
            assert np.array_equal(model.confusion, confusion) and np.array_equal(model.prior, prior)
            assert model.loglik_history == history and np.array_equal(post[0], loop_post)
        # no instances: no mass anywhere
        model, post = ds_fit(CrowdDataset(RAW, (), ds.roster), smoothing=0.0)
        assert post == [] and np.array_equal(model.prior, np.full(3, 1 / 3))
        np.testing.assert_array_equal(model.confusion, 1 / 3)

    def test_the_unlabeled_instance_is_named(self):
        insts = (
            CrowdInstance(("x", "y"), {"a": (0, 1)}),
            CrowdInstance(("z",), {"b": (2,)}),
            CrowdInstance(("x", "w", "v"), {}),
            CrowdInstance(("q",), {}),
        )
        ds = CrowdDataset(RAW, insts, ("a", "b"))
        with pytest.raises(ValueError, match="^instance 2: some token has no annotations$"):
            ds_fit(ds)
        with pytest.raises(ValueError, match="^instance 2: no annotations to vote over$"):
            aggregate_labels(ds, "mv")

    @pytest.mark.parametrize(
        "option, message",
        [
            ({"iters": 0}, "ds_iters must be at least 1"),
            ({"iters": -1}, "ds_iters must be at least 1"),
            ({"tol": float("nan")}, "ds_tol must be nonnegative"),
            ({"tol": -1.0}, "ds_tol must be nonnegative"),
            ({"smoothing": -1.0}, "smoothing must be finite and nonnegative"),
            ({"smoothing": float("nan")}, "smoothing must be finite and nonnegative"),
            ({"smoothing": float("inf")}, "smoothing must be finite and nonnegative"),
        ],
    )
    def test_bad_options_are_refused(self, option, message):
        ds, _ = planted_dataset()
        with pytest.raises(ValueError, match=f"^{message}$"):
            ds_fit(ds, **option)

    def test_one_round_is_the_least(self):
        ds, _ = planted_dataset()
        model, _ = ds_fit(ds, iters=1, tol=0.0, smoothing=0.0)
        assert len(model.loglik_history) == 1

    def test_empty_roster_is_an_error(self):
        ds = CrowdDataset(RAW, (CrowdInstance(("x",), {"a": (0,)}),), ())
        with pytest.raises(ValueError, match="roster"):
            ds_fit(ds)


class TestDecodeTies:
    def test_flat_model_picks_the_lowest_index(self):
        m = RAW.size
        model = DsModel(
            ("a",),
            np.full((1, m, m), 1.0 / m),
            np.full(m, 1.0 / m),
            [],
        )
        inst = CrowdInstance(("x", "y"), {"a": (2, 1)})
        assert ds_decode(model, inst) == (0, 0)


class TestAggregateAndWrap:
    def test_unknown_method_is_an_error(self):
        ds, _ = planted_dataset()
        with pytest.raises(ValueError, match="unknown aggregation method"):
            aggregate_labels(ds, "oracle")

    def test_method_dispatch(self):
        ds, _ = planted_dataset()
        assert aggregate_labels(ds, "mv") == [mv_token(i) for i in ds.instances]
        model, _ = ds_fit(ds)
        assert aggregate_labels(ds, "ds") == [ds_decode(model, i) for i in ds.instances]

    def test_wrapper_train_fits_the_aggregate(self):
        scheme = LabelScheme.bio(("PER",))
        gold_a = (scheme.index("B-PER"), scheme.index("O"))
        gold_b = (scheme.index("O"), scheme.index("O"))
        insts = tuple(
            CrowdInstance(toks, {"a": lab, "b": lab})
            for toks, lab in (
                (("Ada", "sleeps"), gold_a),
                (("Bo", "waits"), gold_a),
                (("rain", "falls"), gold_b),
                (("Cy", "runs"), gold_a),
            )
        )
        ds = CrowdDataset(scheme, insts, ("a", "b"))
        model = wrapper_train(ds, "mv", opts=TrainOptions(max_iter=60, l2=0.01))
        decoded = decode(model, [i.tokens for i in ds.instances])
        assert decoded == [mv_token(i) for i in ds.instances]
