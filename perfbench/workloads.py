"""The benchmark's workloads: inputs made from a seed, the timed CLI command,
the output files whose bytes must repeat, and the quality checks run once
after the timed loop.

Inputs come from ``tests/corpus.make_gold`` and ``crowdseq.simulate``; the
program under test only ever sees the files written here.  A training
workload is split into independent parts, each a corpus of its own with its
own directory and seed, and the benchmark reports the median over parts.
Lattice sizes are heavy-tailed (a few sentences reach the cap), so the
summed work of one corpus varies from seed to seed far more than the
median part does.  Two sizes exist: ``full`` for measurement and ``tiny``
for the harness self-test.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from crowdseq import baselines, crf, formats, scoring
from crowdseq.simulate import SimConfig, simulate
from tests import corpus

# parts per workload and sentence counts per part
SIZES = {
    "full": {
        "parts": {"train-clean": 4, "aggregate-noisy": 8, "decode-bulk": 1},
        "train": 12, "heldout": 100, "noisy": 12, "names": 48000, "decode": 4000, "brief": 50,
    },
    "tiny": {
        "parts": {"train-clean": 2, "aggregate-noisy": 2, "decode-bulk": 1},
        "train": 6, "heldout": 10, "noisy": 6, "names": 400, "decode": 200, "brief": 20,
    },
}

# Both training workloads cap every L-BFGS fit at 20 iterations, which most
# fits reach.  Uncapped, the initial fit stops after 40-52 iterations and the
# M-steps after 38-50 in all, depending on the seed, which made throughput
# depend on the seed more than on the code.
EM_FLAGS = ["--max-iters", "2", "--rel-tol", "0", "--init-max-iter", "20", "--inner-max-iter", "20"]

# At precision 0.3 candidate sequences per token vary from seed to seed by a
# quarter (IQR / median of the median part, 20 seeds) at a cap of 2000 and
# by a seventh at 500, and they set most of the time.  A cap of 500 still
# gives ~3x train-clean's sequences per token and caps many lattices.
NOISY_LATTICE_CAP = 500


def _f1_problems(what: str, f1: float) -> list[str]:
    # Quality varies with the seed (two EM iterations on small corpora), so
    # the check is for broken output only: all-O labels score exactly 0.
    return [] if f1 > 0 else [f"{what} F1 is 0: no predicted entity matches the gold"]


@dataclass
class Part:
    """One set-up part: its directory, seed and what the checks need."""

    work: Path
    seed: int
    tokens: int  # tokens in the file the timed command reads
    crowd: object = None  # simulated CrowdDataset, gold included
    gold: object = None  # gold CrowdDataset the outputs are scored against


RunCli = Callable[[list[str], Path, str], "str | None"]  # (argv, cwd, label) -> stdout, None on failure


def _token_count(ds) -> int:
    return sum(len(inst.tokens) for inst in ds.instances)


def _pooled_f1(parts: list[Part], pred_name: str) -> float:
    """Entity F1 of every part's predictions against its gold, pooled."""
    pred, gold = [], []
    for p in parts:
        predicted = formats.load_conll(p.work / pred_name, p.gold.scheme).instances
        if [inst.tokens for inst in predicted] != [inst.tokens for inst in p.gold.instances]:
            raise ValueError(f"{p.work.name}/{pred_name}: tokens differ from the input's")
        pred += [inst.gold for inst in predicted]
        gold += [inst.gold for inst in p.gold.instances]
    return scoring.entity_prf(pred, gold, parts[0].gold.scheme).f1


def _baselines(parts: list[Part]) -> dict[str, float]:
    out = {}
    for method in ("mv", "ds"):
        pred, gold = [], []
        for p in parts:
            pred += baselines.aggregate_labels(p.crowd, method)
            gold += [inst.gold for inst in p.crowd.instances]
        out[f"baselines.{method}_f1"] = scoring.entity_prf(pred, gold, parts[0].crowd.scheme).f1
    return out


def _crowd(gold, seed: int, precision: float):
    return simulate(gold, SimConfig(n_annotators=5, target_precision=precision, precision_spread=0.1, seed=seed))


class TrainClean:
    name = "train-clean"
    outputs = ("model.txt", "annotators.txt", "history.txt")

    def setup(self, work: Path, seed: int, size: str) -> Part:
        n = SIZES[size]
        train, heldout = corpus.split(corpus.make_gold(n["train"] + n["heldout"], seed), n["train"])
        crowd = _crowd(train, seed, 0.7)
        formats.save_crowd(work / "crowd.txt", crowd)
        formats.save_conll(work / "heldout.txt", heldout)
        return Part(work, seed, _token_count(crowd), crowd, heldout)

    def command(self, seed: int) -> list[str]:
        return [
            "train", "crowd.txt", "--model-out", "model.txt", "--annotators-out", "annotators.txt",
            "--history-file", "history.txt", "--seed", str(seed), "--lattice-cap", "100000", *EM_FLAGS,
        ]

    def finish(self, parts: list[Part], run_cli: RunCli) -> tuple[dict, list[str]]:
        problems = []
        final = 0.0
        for p in parts:
            history = [float(x) for x in (p.work / "history.txt").read_text().split()]
            if len(history) != 3 or not np.isfinite(history).all() or history[-1] <= history[0]:
                problems.append(f"part seed {p.seed}: log-likelihood history {history} does not rise over 3 finite values")
            final += history[-1]
            if run_cli(["decode", "model.txt", "heldout.txt", "--out", "heldout_pred.txt"], p.work, "decode-heldout") is None:
                return {}, problems  # the failed command is already counted and reported
        quality = {"final_loglik": final, "heldout_f1": _pooled_f1(parts, "heldout_pred.txt"), **_baselines(parts)}
        return quality, problems + _f1_problems("held-out", quality["heldout_f1"])


class AggregateNoisy:
    name = "aggregate-noisy"
    outputs = ("aggregated.txt",)

    def setup(self, work: Path, seed: int, size: str) -> Part:
        gold = corpus.make_gold(SIZES[size]["noisy"], seed)
        crowd = _crowd(gold, seed, 0.3)
        formats.save_crowd(work / "crowd.txt", crowd)
        return Part(work, seed, _token_count(crowd), crowd, gold)

    def command(self, seed: int) -> list[str]:
        return [
            "aggregate", "crowd.txt", "--method", "saslc", "--out", "aggregated.txt", "--seed", str(seed),
            "--lattice-cap", str(NOISY_LATTICE_CAP), *EM_FLAGS,
        ]

    def finish(self, parts: list[Part], run_cli: RunCli) -> tuple[dict, list[str]]:
        problems = []
        final = 0.0
        for p in parts:
            # stderr carries the EM log: iteration, log-likelihood, delta, tagger iterations, seconds
            log = (p.work / "timed.err").read_text().strip().splitlines()
            loglik = float(log[-1].split("\t")[1])
            if len(log) != 3 or not np.isfinite(loglik):
                problems.append(f"part seed {p.seed}: EM log has {len(log)} lines, last log-likelihood {loglik}")
            final += loglik
        quality = {"final_loglik": final, "aggregate_f1": _pooled_f1(parts, "aggregated.txt"), **_baselines(parts)}
        return quality, problems + _f1_problems("aggregate", quality["aggregate_f1"])


SYLLABLES = (
    "ka lo mi ren sa tor vel an bri cor dun el fa gil har is jo kel mar nor ol pen quin ros sil "
    "tam ul var wen yar zel bo cha dre fen gra hul ix lum mor"
).split()


def _names(rng, count: int) -> list[tuple[str, ...]]:
    """Distinct one- or two-token names of two to four syllables each."""
    out: set[tuple[str, ...]] = set()
    while len(out) < count:
        k = count - len(out)
        n_tokens = rng.integers(1, 3, size=k)
        n_syllables = rng.integers(2, 5, size=(k, 2))
        syllables = rng.integers(len(SYLLABLES), size=(k, 2, 4))
        for i in range(k):
            out.add(tuple(
                "".join(SYLLABLES[j] for j in syllables[i, t, : n_syllables[i, t]]) for t in range(n_tokens[i])
            ))
    return sorted(out)


@contextmanager
def _rich_vocabulary(seed: int, count: int):
    """``make_gold``'s grammar with ``count`` entity names in place of 19."""
    rng = np.random.default_rng([seed, 5])
    saved = corpus.PEOPLE, corpus.ORGS, corpus.LOCS
    corpus.PEOPLE, corpus.ORGS, corpus.LOCS = _names(rng, count // 2), _names(rng, count // 4), _names(rng, count // 4)
    try:
        yield corpus.PEOPLE + corpus.ORGS + corpus.LOCS
    finally:
        corpus.PEOPLE, corpus.ORGS, corpus.LOCS = saved


class DecodeBulk:
    name = "decode-bulk"
    outputs = ("predicted.txt",)

    def setup(self, work: Path, seed: int, size: str) -> Part:
        """A tagger briefly trained on a few gold sentences, widened to every
        name of the vocabulary (~2e5 observations at full size, zero weights
        past the trained ones), and an unseen corpus of the same names."""
        n = SIZES[size]
        with _rich_vocabulary(seed, n["names"]) as names:
            brief = corpus.make_gold(n["brief"], seed)
            unseen = corpus.make_gold(n["decode"], seed + 1_000_003)
        sentences = [inst.tokens for inst in brief.instances]
        examples = [(inst.tokens, inst.gold, 1.0) for inst in brief.instances]
        tagger = crf.optimize(crf.build_model(brief.scheme, sentences), examples, crf.TrainOptions(max_iter=10)).model
        # Interning the sentences first gives their observations the tagger's
        # rows; runs of 20 name tokens add identity, affix and neighbour
        # observations for every name.
        tokens = [tok for name in names for tok in name]
        model = crf.build_model(brief.scheme, [*sentences, *(tokens[i : i + 20] for i in range(0, len(tokens), 20))])
        trained = tagger.n_obs * brief.scheme.size
        model.weights[:trained] = tagger.weights[:trained]
        model.weights[model.n_obs * brief.scheme.size :] = tagger.weights[trained:]
        crf.save_model(model, work / "model.txt")
        formats.save_conll(work / "unseen.txt", unseen)
        return Part(work, seed, _token_count(unseen), gold=unseen)

    def command(self, seed: int) -> list[str]:
        return ["decode", "model.txt", "unseen.txt", "--out", "predicted.txt"]

    def finish(self, parts: list[Part], run_cli: RunCli) -> tuple[dict, list[str]]:
        f1 = _pooled_f1(parts, "predicted.txt")
        return {"decode_f1": f1}, _f1_problems("decode", f1)


WORKLOADS = {w.name: w for w in (TrainClean(), AggregateNoisy(), DecodeBulk())}
