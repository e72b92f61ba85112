"""Command-line pipelines: simulate -> aggregate/train -> decode -> evaluate.

Exit status is 0 on success, 1 on usage errors, and 2 on data errors
(malformed files, incompatible inputs).  Subcommands that draw random
numbers require an explicit ``--seed``; given the same seed and inputs,
every run writes byte-identical outputs.  ``--threads`` is accepted for
interface stability, and results never depend on it.  The program starts no
threads itself, but the BLAS library under numpy and scipy may: unless
``OPENBLAS_NUM_THREADS=1`` is set, OpenBLAS runs the BLAS calls under
training's L-BFGS-B routine on a thread pool.  On small inputs setting the
variable is faster and writes the same bytes.
"""

from __future__ import annotations

import argparse
import dataclasses
import sys

from . import annotators as ann_mod
from . import baselines, crf, em, formats, scoring
from .simulate import CorruptionMix, SimConfig, annotator_precision, simulate
from .types import CrowdDataset, CrowdInstance, LabelScheme


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # raise instead of exiting so main() owns the status codes
    def error(self, message):
        raise _UsageError(f"{self.format_usage()}{self.prog}: error: {message}")


def _add_common(p):
    p.add_argument(
        "--threads",
        type=int,
        default=None,
        help="accepted for compatibility; output never depends on it",
    )


def _add_em_flags(p):
    p.add_argument("--config", default=None, help="run-config file supplying defaults")
    p.add_argument("--max-iters", type=int, default=None)
    p.add_argument("--rel-tol", type=float, default=None)
    p.add_argument("--consistency-hi", type=float, default=None)
    p.add_argument("--consistency-lo", type=float, default=None)
    p.add_argument("--normalize-consistency", action="store_true", default=None)
    p.add_argument("--lattice-cap", type=int, default=None, help="paths a lattice lists; EM sums over every path")
    p.add_argument("--smoothing", type=float, default=None)
    p.add_argument("--l2", type=float, default=None, dest="l2_penalty", help="L2 penalty on model weights")
    p.add_argument("--init-max-iter", type=int, default=None)
    p.add_argument("--inner-max-iter", type=int, default=None)
    p.add_argument("--opt-tol", type=float, default=None)


def _load_file_config(args) -> dict:
    path = getattr(args, "config", None)
    return formats.load_config(path) if path else {}


def _pick(args, attr, cfg, key, default):
    value = getattr(args, attr, None)
    if value is not None:
        return value
    if key in cfg:
        return cfg[key]
    return default


def _em_config(args, cfg: dict, seed: int) -> em.EmConfig:
    """Every field but the seed from its flag, else its config key (both
    named after the field), else its default."""
    fields = (f for f in dataclasses.fields(em.EmConfig) if f.name != "seed")
    return em.EmConfig(**{f.name: _pick(args, f.name, cfg, f.name, f.default) for f in fields}, seed=seed)


def _require_seed(args, why: str) -> int:
    if args.seed is None:
        raise _UsageError(f"--seed is required {why}")
    return args.seed


def _cmd_simulate(args) -> int:
    cfg = _load_file_config(args)
    seed = _require_seed(args, "to simulate annotators")
    gold = formats.load_conll(args.gold)
    mix = CorruptionMix(
        type_swap=_pick(args, "mix_swap", cfg, "mix_type_swap", 0.4),
        boundary_shift=_pick(args, "mix_shift", cfg, "mix_boundary_shift", 0.3),
        entity_drop=_pick(args, "mix_drop", cfg, "mix_entity_drop", 0.2),
        spurious=_pick(args, "mix_spurious", cfg, "mix_spurious", 0.1),
    )
    sim_cfg = SimConfig(
        n_annotators=_pick(args, "annotators", cfg, "n_annotators", 5),
        target_precision=_pick(args, "target_precision", cfg, "target_precision", 0.7),
        precision_spread=_pick(args, "precision_spread", cfg, "precision_spread", 0.1),
        mix=mix,
        seed=seed,
    )
    crowd = simulate(gold, sim_cfg)
    formats.save_crowd(args.out, crowd)
    print("annotator\tprecision\trecall\tf1")
    for ann_id, report in annotator_precision(crowd).items():
        print(f"{ann_id}\t{report.precision!r}\t{report.recall!r}\t{report.f1!r}")
    return 0


def _write_labeled(path, ds: CrowdDataset, labelings) -> None:
    relabeled = tuple(
        CrowdInstance(inst.tokens, {}, tuple(labels))
        for inst, labels in zip(ds.instances, labelings)
    )
    formats.save_conll(path, CrowdDataset(ds.scheme, relabeled, ()))


def _cmd_aggregate(args) -> int:
    cfg = _load_file_config(args)
    ds = formats.load_crowd(args.crowd)
    if args.method == "saslc":
        seed = _require_seed(args, "for --method saslc")
        result = em.fit(ds, _em_config(args, cfg, seed), log=sys.stderr)
        labelings = em.posterior_modes(result.posteriors)
    else:
        labelings = baselines.aggregate_labels(
            ds,
            args.method,
            ds_iters=_pick(args, "ds_iters", cfg, "ds_iters", 100),
            ds_tol=_pick(args, "ds_tol", cfg, "ds_tol", 1e-8),
        )
    _write_labeled(args.out, ds, labelings)
    return 0


def _cmd_train(args) -> int:
    cfg = _load_file_config(args)
    seed = _require_seed(args, "to initialize training")
    ds = formats.load_crowd(args.crowd)
    result = em.fit(ds, _em_config(args, cfg, seed), log=sys.stderr)
    crf.save_model(result.crf, args.model_out)
    ann_mod.save_annotators(result.annotators, ds.scheme, args.annotators_out)
    if args.history_file:
        with open(args.history_file, "w", encoding="utf-8") as fh:
            for value in result.history:
                fh.write(f"{value!r}\n")
    return 0


def _cmd_decode(args) -> int:
    model = crf.load_model(args.model)
    token_seqs = formats.load_tokens(args.input)
    decoded = tuple(
        CrowdInstance(tokens, {}, labels)
        for tokens, labels in zip(token_seqs, crf.decode(model, token_seqs))
    )
    formats.save_conll(args.out, CrowdDataset(model.scheme, decoded, ()))
    return 0


def _cmd_evaluate(args) -> int:
    pred_raw = formats.read_tag_file(args.pred)
    gold_raw = formats.read_tag_file(args.gold)
    if len(pred_raw) != len(gold_raw):
        raise ValueError(
            f"sequence count mismatch: {len(pred_raw)} predicted vs {len(gold_raw)} gold"
        )
    tags = [t for _, ts in pred_raw for t in ts] + [t for _, ts in gold_raw for t in ts]
    if set(tags) == {"O"}:
        # no entities anywhere; the scheme machinery has nothing to say
        report = scoring.PrfReport.from_counts(0, 0, 0)
        by_type: dict = {}
    else:
        scheme = LabelScheme.infer(tags)
        pred = [tuple(scheme.index(t) for t in ts) for _, ts in pred_raw]
        gold = [tuple(scheme.index(t) for t in ts) for _, ts in gold_raw]
        report = scoring.entity_prf(pred, gold, scheme, strict=args.strict)
        by_type = (
            scoring.entity_prf_by_type(pred, gold, scheme, strict=args.strict)
            if args.by_type
            else {}
        )
    print(f"precision  {report.precision:.6f}  (tp {report.tp}, fp {report.fp})")
    print(f"recall     {report.recall:.6f}  (tp {report.tp}, fn {report.fn})")
    print(f"f1         {report.f1:.6f}")
    if args.by_type:
        print("type\tprecision\trecall\tf1\ttp\tfp\tfn")
        for etype in sorted(by_type):
            r = by_type[etype]
            print(f"{etype}\t{r.precision!r}\t{r.recall!r}\t{r.f1!r}\t{r.tp}\t{r.fp}\t{r.fn}")
    print(
        f"{report.precision!r}\t{report.recall!r}\t{report.f1!r}"
        f"\t{report.tp}\t{report.fp}\t{report.fn}"
    )
    return 0


def _cmd_inspect_lattice(args) -> int:
    ds = formats.load_crowd(args.crowd)
    if not 0 <= args.instance < len(ds.instances):
        raise ValueError(
            f"instance index {args.instance} out of range (dataset has {len(ds.instances)})"
        )
    inst = ds.instances[args.instance]
    base = em.EmConfig(
        consistency_hi=args.consistency_hi,
        consistency_lo=args.consistency_lo,
        normalize_consistency=bool(args.normalize_consistency),
        lattice_cap=args.cap,
    )
    lat = em.build_lattice(inst, ds.scheme, len(ds.roster), base)
    print("position\ttoken\tcandidates\treachable")
    for j, token in enumerate(inst.tokens):
        cand = ",".join(ds.scheme.labels[i] for i in lat.final_candidates[j])
        reach = ",".join(ds.scheme.labels[i] for i in lat.states[j])
        print(f"{j}\t{token}\t{cand}\t{reach}")
    print(f"unpruned\t{lat.n_unpruned}")
    print(f"valid\t{lat.n_valid}")
    print(f"enumerated\t{len(lat.sequences)}")
    print(f"capped\t{'true' if lat.capped else 'false'}")
    widened = ",".join(str(j) for j in lat.widened) if lat.widened else "-"
    print(f"widened\t{widened}")
    return 0


def _cmd_report_annotators(args) -> int:
    params, scheme = ann_mod.load_annotators(args.params)
    table = params.local if args.table == "local" else params.mention
    contexts = list(scheme.labels) + [ann_mod.BOS_LABEL]
    if args.context is not None and args.context not in contexts:
        raise ValueError(f"unknown context label: {args.context!r}")
    if args.truth is not None and args.truth not in scheme.labels:
        raise ValueError(f"unknown truth label: {args.truth!r}")
    if args.annotator is not None and args.annotator not in params.roster:
        roster = ", ".join(params.roster)
        raise ValueError(f"unknown annotator: {args.annotator!r} (roster: {roster})")
    print("annotator\tcontext\ttruth\tassigned\tprobability")
    for k, ann_id in enumerate(params.roster):
        if args.annotator is not None and ann_id != args.annotator:
            continue
        for c, ctx_name in enumerate(contexts):
            if args.context is not None and ctx_name != args.context:
                continue
            for t, truth_name in enumerate(scheme.labels):
                if args.truth is not None and truth_name != args.truth:
                    continue
                for a, assigned_name in enumerate(scheme.labels):
                    value = float(table[k, c, t, a])
                    print(f"{ann_id}\t{ctx_name}\t{truth_name}\t{assigned_name}\t{value!r}")
    return 0


def build_parser() -> _Parser:
    parser = _Parser(prog="crowdseq", description=__doc__)
    sub = parser.add_subparsers(dest="command", metavar="COMMAND")

    p = sub.add_parser("simulate", help="corrupt a gold tag file into crowd annotations")
    p.add_argument("gold", help="gold tag file")
    p.add_argument("--out", required=True, help="crowd annotation file to write")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--annotators", type=int, default=None)
    p.add_argument("--target-precision", type=float, default=None)
    p.add_argument("--precision-spread", type=float, default=None)
    p.add_argument("--mix-swap", type=float, default=None)
    p.add_argument("--mix-shift", type=float, default=None)
    p.add_argument("--mix-drop", type=float, default=None)
    p.add_argument("--mix-spurious", type=float, default=None)
    p.add_argument("--config", default=None, help="run-config file supplying defaults")
    _add_common(p)
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("aggregate", help="infer one label sequence per instance")
    p.add_argument("crowd", help="crowd annotation file")
    p.add_argument("--method", required=True, choices=("mv", "ds", "saslc"))
    p.add_argument("--out", required=True, help="tag file to write")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--ds-iters", type=int, default=None)
    p.add_argument("--ds-tol", type=float, default=None)
    _add_em_flags(p)
    _add_common(p)
    p.set_defaults(func=_cmd_aggregate)

    p = sub.add_parser("train", help="fit the sequence model and annotator tables")
    p.add_argument("crowd", help="crowd annotation file")
    p.add_argument("--model-out", required=True)
    p.add_argument("--annotators-out", required=True)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--history-file", default=None, help="write the joint objective after each round")
    _add_em_flags(p)
    _add_common(p)
    p.set_defaults(func=_cmd_train)

    p = sub.add_parser("decode", help="label token sequences with a trained model")
    p.add_argument("model", help="model file from train")
    p.add_argument("input", help="token or tag file; only the first column is read")
    p.add_argument("--out", required=True, help="tag file to write")
    _add_common(p)
    p.set_defaults(func=_cmd_decode)

    p = sub.add_parser("evaluate", help="entity-level precision/recall/F1")
    p.add_argument("pred", help="predicted tag file")
    p.add_argument("gold", help="gold tag file")
    p.add_argument("--strict", action="store_true", help="drop spans that start inside an entity")
    p.add_argument("--by-type", action="store_true")
    _add_common(p)
    p.set_defaults(func=_cmd_evaluate)

    p = sub.add_parser("inspect-lattice", help="show candidate sets for one instance")
    p.add_argument("crowd", help="crowd annotation file")
    p.add_argument("--instance", type=int, required=True)
    p.add_argument("--consistency-hi", type=float, default=None)
    p.add_argument("--consistency-lo", type=float, default=None)
    p.add_argument("--normalize-consistency", action="store_true", default=None)
    p.add_argument("--cap", type=int, default=em.EmConfig.lattice_cap)
    _add_common(p)
    p.set_defaults(func=_cmd_inspect_lattice)

    p = sub.add_parser("report-annotators", help="dump learned confusion tables")
    p.add_argument("params", help="annotator parameter file from train")
    p.add_argument("--table", choices=("local", "mention"), default="local")
    p.add_argument("--annotator", default=None, help="restrict to one annotator id")
    p.add_argument("--context", default=None, help="restrict to one context label (or <bos>)")
    p.add_argument("--truth", default=None, help="restrict to one true label")
    _add_common(p)
    p.set_defaults(func=_cmd_report_annotators)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as e:
        print(e, file=sys.stderr)
        return 1
    except SystemExit as e:  # argparse exits itself on --help
        return int(e.code or 0)
    if getattr(args, "func", None) is None:
        print(parser.format_usage(), file=sys.stderr, end="")
        return 1
    try:
        return args.func(args)
    except _UsageError as e:
        print(e, file=sys.stderr)
        return 1
    except (formats.DataError, ValueError, KeyError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


def main_entry() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    main_entry()
