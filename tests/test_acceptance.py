"""End-to-end acceptance checks.

Each test prints one ``criterion N: PASS/FAIL`` line on the real stdout so
the verdicts stay visible under pytest's capture.
"""

import time

import numpy as np
import pytest

from corpus import SCHEME, make_gold, split
from crowdseq import (
    CrowdDataset,
    CrowdInstance,
    EmConfig,
    LabelScheme,
    PrfReport,
    SimConfig,
    TrainOptions,
    annotator_precision,
    build_model,
    candidate_sets,
    confusion_counts,
    corpus_stats,
    count_valid,
    decode,
    ds_decode,
    ds_fit,
    e_step,
    entity_prf,
    enumerate_valid,
    fit,
    load_conll,
    log_partition,
    optimize,
    simulate,
    save_conll,
    weighted_nll_and_gradient,
    wrapper_train,
)
from crowdseq.cli import main as cli_main
from oracles import (
    batch,
    brute_log_partition,
    brute_marginals,
    brute_valid,
    brute_viterbi,
    marginals,
    mv_token,
    paths,
    random_potentials,
)
from test_baselines import planted_dataset, token_accuracy_of
from test_scoring import PRF_FIXTURE, SCHEME as PRF_SCHEME, tags


@pytest.fixture
def report(capfd):
    """Verdict printer that bypasses capture so every line reaches the terminal."""

    def _report(n: int, ok: bool, detail: str) -> None:
        with capfd.disabled():
            print(f"criterion {n}: {'PASS' if ok else 'FAIL'} ({detail})", flush=True)
        assert ok, f"criterion {n} failed: {detail}"

    return _report


def test_criterion_1_inference_matches_enumeration(report):
    t0 = time.perf_counter()
    worst_rel = 0.0
    viterbi_exact = True
    for seed in range(50):
        rng = np.random.default_rng([seed, 41])
        L = int(rng.integers(1, 7))
        M = int(rng.integers(2, 5))
        pot = random_potentials(rng, L, M)
        logz = log_partition(batch(pot))[0]
        ref = brute_log_partition(pot)
        worst_rel = max(worst_rel, abs(logz - ref) / max(1.0, abs(ref)))
        un, pw = marginals(pot)
        run, rpw = brute_marginals(pot)
        worst_rel = max(worst_rel, float(np.abs(un - run).max()))
        if L > 1:
            worst_rel = max(worst_rel, float(np.abs(pw - rpw).max()))
        if paths(batch(pot)) != [brute_viterbi(pot)]:
            viterbi_exact = False
    secs = time.perf_counter() - t0
    ok = worst_rel < 1e-8 and viterbi_exact and secs < 10.0
    report(1, ok, f"50 instances, max rel err {worst_rel:.2e}, viterbi exact {viterbi_exact}, {secs:.1f}s")


def test_criterion_2_gradient_matches_central_differences(report):
    worst = 0.0
    h = 1e-5
    for seed in range(20):
        rng = np.random.default_rng([seed, 42])
        toks = tuple(str(w) for w in rng.choice(["aa", "Bb", "cc", "d1", "ee"], size=int(rng.integers(2, 5))))
        model = build_model(SCHEME, [toks])
        model.weights[:] = rng.normal(size=model.dim) * 0.3
        n = len(toks)
        data = [
            (toks, tuple(int(x) for x in rng.integers(0, SCHEME.size, size=n)), 0.5 + float(rng.random())),
            (toks, tuple(int(x) for x in rng.integers(0, SCHEME.size, size=n)), float(rng.random())),
        ]
        _, grad = weighted_nll_and_gradient(model, data, l2=0.7)
        theta = model.weights.copy()
        coords = range(model.dim) if model.dim <= 60 else rng.choice(model.dim, size=60, replace=False)
        for idx in coords:
            wp, wm = theta.copy(), theta.copy()
            wp[idx] += h
            wm[idx] -= h
            model.weights[:] = wp
            vp, _ = weighted_nll_and_gradient(model, data, l2=0.7)
            model.weights[:] = wm
            vm, _ = weighted_nll_and_gradient(model, data, l2=0.7)
            fd = (vp - vm) / (2 * h)
            worst = max(worst, abs(grad[idx] - fd) / max(1.0, abs(fd)))
        model.weights[:] = theta
    ok = worst < 1e-4
    report(2, ok, f"20 instances, max rel err {worst:.2e}")


def test_criterion_3_lattice_matches_brute_force(report):
    checked = 0
    all_equal = True
    for seed in range(40):
        rng = np.random.default_rng([seed, 43])
        n = int(rng.integers(2, 7))
        cand = tuple(
            tuple(sorted(rng.choice(SCHEME.size, size=int(rng.integers(1, 5)), replace=False)))
            for _ in range(n)
        )
        product = 1
        for c in cand:
            product *= len(c)
        if product > 10_000 or count_valid(cand, SCHEME) == 0:
            continue
        inst = CrowdInstance(tuple(f"t{j}" for j in range(n)), {"a": (0,) * n})
        lat = enumerate_valid(inst, cand, SCHEME, cap=20_000)
        ref = brute_valid(cand, SCHEME)
        if set(lat.sequences) != set(ref) or lat.n_valid != len(ref):
            all_equal = False
        checked += 1

    # worked example: five annotators, eight tokens, strong but partial agreement
    L = {name: i for i, name in enumerate(SCHEME.labels)}
    columns = [
        ["O"] * 5,
        ["B-PER", "B-PER", "B-PER", "O", "B-ORG"],
        ["I-LOC", "I-LOC", "I-ORG", "I-ORG", "I-PER"],
        ["I-ORG", "I-ORG", "I-ORG", "O", "I-PER"],
        ["B-ORG", "B-ORG", "B-ORG", "O", "B-LOC"],
        ["O", "O", "I-ORG", "I-ORG", "B-ORG"],
        ["I-PER", "I-PER", "I-PER", "I-ORG", "O"],
        ["O"] * 5,
    ]
    inst = CrowdInstance(
        tuple(f"t{j}" for j in range(8)),
        {f"a{k}": tuple(L[columns[j][k]] for j in range(8)) for k in range(5)},
    )
    sets = candidate_sets(inst, SCHEME, hi=2.5, lo=0.5)
    lat = enumerate_valid(inst, sets, SCHEME)
    pruned_strictly = lat.n_valid < lat.n_unpruned
    excluded_gone = True
    for names in (
        ("O", "B-PER", "I-LOC", "I-ORG", "B-ORG", "O", "I-PER", "O"),
        ("O", "B-PER", "I-ORG", "I-ORG", "B-ORG", "I-ORG", "I-PER", "O"),
    ):
        seq = tuple(L[x] for x in names)
        if not all(seq[j] in sets[j] for j in range(8)) or seq in lat.sequences:
            excluded_gone = False
    ok = (
        all_equal
        and checked >= 20
        and lat.n_unpruned == 729
        and lat.n_valid == 44
        and pruned_strictly
        and excluded_gone
    )
    report(3, ok, f"{checked} lattices equal brute force; example prunes 729 -> {lat.n_valid}")


def test_criterion_4_em_ascends_uncapped(report):
    t0 = time.perf_counter()
    gold = make_gold(200, seed=100)
    crowd = simulate(
        gold, SimConfig(n_annotators=5, target_precision=0.7, precision_spread=0.1, seed=100)
    )
    r = fit(crowd, EmConfig(max_iters=10, rel_tol=0.0, lattice_cap=100_000))
    secs = time.perf_counter() - t0
    capped = any(l.capped for l in r.state.lattices)
    diffs = [b - a for a, b in zip(r.history, r.history[1:])]
    ok = r.iterations >= 10 and not capped and min(diffs) > -1e-6 and secs < 300.0
    report(
        4,
        ok,
        f"{r.iterations} iterations, min delta {min(diffs):.3f}, capped {capped}, {secs:.0f}s",
    )


def test_criterion_5_perfect_annotators_recover_the_supervised_model(report):
    ds = make_gold(120, seed=55)
    train, test = split(ds, 90)
    crowd = simulate(
        train, SimConfig(n_annotators=3, target_precision=1.0, precision_spread=0.0, seed=55)
    )
    r = fit(crowd, EmConfig(max_iters=5))
    local_c, mention_c = confusion_counts(r.state.entries, e_step(r.state, crowd)[0].unary, len(crowd.roster))

    def diag_share(counts):
        return float(np.einsum("kctt->", counts) / counts.sum())

    dm_local = diag_share(local_c)
    dm_mention = diag_share(mention_c)

    sup = build_model(ds.scheme, (i.tokens for i in train.instances))
    sup = optimize(
        sup, [(i.tokens, i.gold, 1.0) for i in train.instances], TrainOptions(max_iter=100, l2=1.0)
    ).model

    def heldout_f1(model):
        preds = decode(model, [i.tokens for i in test.instances])
        return entity_prf(preds, [i.gold for i in test.instances], ds.scheme).f1

    f1_joint = heldout_f1(r.crf)
    f1_sup = heldout_f1(sup)
    ok = abs(f1_joint - f1_sup) <= 0.01 and dm_local > 0.95 and dm_mention > 0.95
    report(
        5,
        ok,
        f"heldout F1 {f1_joint:.4f} vs supervised {f1_sup:.4f}, "
        f"correct-label mass local {dm_local:.3f} mention {dm_mention:.3f}",
    )


def test_criterion_6_joint_model_beats_the_vote_wrapper_at_low_precision(report):
    joint_scores = []
    mv_scores = []
    for seed in (1, 2, 3):
        ds = make_gold(160, seed=seed)
        train, test = split(ds, 120)
        crowd = simulate(
            train, SimConfig(n_annotators=5, target_precision=0.3, precision_spread=0.1, seed=seed)
        )
        golds = [i.gold for i in test.instances]

        def heldout_f1(model):
            preds = decode(model, [i.tokens for i in test.instances])
            return entity_prf(preds, golds, ds.scheme).f1

        r = fit(crowd, EmConfig(max_iters=8, inner_max_iter=20))
        joint_scores.append(heldout_f1(r.crf))
        mv_model = wrapper_train(crowd, "mv", opts=TrainOptions(max_iter=100, l2=1.0))
        mv_scores.append(heldout_f1(mv_model))
    mean_joint = float(np.mean(joint_scores))
    mean_mv = float(np.mean(mv_scores))
    ok = mean_joint >= mean_mv
    report(6, ok, f"mean heldout F1 {mean_joint:.4f} vs vote wrapper {mean_mv:.4f} over 3 seeds")


def test_criterion_7_simulator_hits_its_precision_targets(report):
    gold = make_gold(120, seed=7)
    n_entities = corpus_stats(gold).n_entities
    errors = {}
    for target in (0.3, 0.5, 0.7, 0.9):
        crowd = simulate(
            gold, SimConfig(n_annotators=5, target_precision=target, precision_spread=0.0, seed=7)
        )
        precs = [rep.precision for rep in annotator_precision(crowd).values()]
        errors[target] = abs(float(np.mean(precs)) - target)
    ok = n_entities >= 200 and all(e < 0.05 for e in errors.values())
    detail = ", ".join(f"p={t}: err {e:.4f}" for t, e in errors.items())
    report(7, ok, f"{n_entities} entities; {detail}")


def test_criterion_8_scorer_reproduces_the_hand_fixture(report):
    all_exact = True
    for pred, gold, tp, fp, fn in PRF_FIXTURE:
        got = entity_prf([tags(*pred)], [tags(*gold)], PRF_SCHEME)
        want = PrfReport.from_counts(tp, fp, fn)
        if got != want:
            all_exact = False
    ok = all_exact and len(PRF_FIXTURE) == 10
    report(8, ok, f"{len(PRF_FIXTURE)} hand-scored cases, exact equality {all_exact}")


def test_criterion_9_dawid_skene_is_monotone_and_beats_the_vote(report):
    ds, _ = planted_dataset()
    model, _ = ds_fit(ds)
    h = model.loglik_history
    monotone = all(b - a > -1e-9 for a, b in zip(h, h[1:]))
    mv_acc = token_accuracy_of(ds, [mv_token(i) for i in ds.instances])
    ds_acc = token_accuracy_of(ds, [ds_decode(model, i) for i in ds.instances])
    ok = monotone and ds_acc >= mv_acc
    report(9, ok, f"monotone {monotone}; accuracy {ds_acc:.4f} vs vote {mv_acc:.4f}")


def test_criterion_10_pipelines_are_byte_identical_under_a_seed(tmp_path, capfd, report):
    gold_path = tmp_path / "gold.tsv"
    save_conll(gold_path, make_gold(10, seed=21))
    fast = ["--max-iters", "2", "--init-max-iter", "10", "--inner-max-iter", "4"]

    products = {}
    for tag in ("a", "b"):
        crowd = tmp_path / f"crowd_{tag}.tsv"
        model = tmp_path / f"model_{tag}.tsv"
        annot = tmp_path / f"annotators_{tag}.tsv"
        hist = tmp_path / f"history_{tag}.txt"
        agg = tmp_path / f"saslc_{tag}.tsv"
        assert cli_main([
            "simulate", str(gold_path), "--out", str(crowd),
            "--seed", "21", "--annotators", "3",
        ]) == 0
        assert cli_main([
            "train", str(crowd), "--model-out", str(model),
            "--annotators-out", str(annot), "--history-file", str(hist),
            "--seed", "21", *fast,
        ]) == 0
        assert cli_main([
            "aggregate", str(crowd), "--method", "saslc", "--out", str(agg),
            "--seed", "21", *fast,
        ]) == 0
        products[tag] = tuple(p.read_bytes() for p in (crowd, model, annot, hist, agg))
    capfd.readouterr()
    same = products["a"] == products["b"]
    report(10, same, "simulate/train/aggregate reruns byte-identical" if same else "outputs differ")
