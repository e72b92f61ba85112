"""Command-line pipelines: simulate -> aggregate/train -> decode -> evaluate.

Exit status is 0 on success, 1 on usage errors, and 2 on data errors
(malformed files, incompatible inputs).  Only ``simulate`` draws random
numbers: it requires a nonnegative seed, ``--seed`` or else the run-config
key ``seed``, and one seed gives byte-identical outputs.  ``train`` and
``aggregate`` draw none (EM starts from the majority vote), so they accept a
seed for compatibility and ignore it.  They refuse a negative seed, and an
output directory that does not exist, before they read their input.
``--threads`` is accepted for interface stability, and results never
depend on it.  The program starts no threads itself, but the BLAS library
under numpy may: unless ``OPENBLAS_NUM_THREADS=1`` is set, OpenBLAS runs
numpy's matrix products on a thread pool.  The outputs are the same bytes
either way.  No command imports scipy.

Each command imports the modules it runs when it runs, so start-up loads
only ``formats`` and ``types`` besides argparse: ``decode`` never imports
``em``, ``lattice``, ``annotators`` or ``baselines``, and neither ``train``
nor ``aggregate --method saslc`` imports ``baselines``.

A command's wall time is interpreter start, the numpy import, loading the
package (compiling it from source as well where no bytecode cache is
written, as under ``PYTHONDONTWRITEBYTECODE``; an installed package has
one), the work itself, and teardown.  ``main`` registers ``gc.freeze`` as
an exit hook, once however often it is called, so the collections the
interpreter runs while it shuts down skip every object alive by then
instead of walking numpy's and the package's whole heap to free memory the
operating system takes back anyway.  Standard output and error are still
flushed, other exit hooks still run, and objects still die when their
reference count falls to zero; only objects in reference cycles go
unfinalized at exit, which CPython never promised to finalize, and every
file the package opens is closed before the call that opened it returns
(``with``, ``Path.read_text``, ``Path.write_text``).  The hook runs only at
exit, so a caller that runs ``main`` many times in one process keeps
collecting its cyclic garbage.

``train`` writes the model in format v4: names as text, a hash index over
them and weights as raw float64 (see ``crf``).  ``decode`` reads only that
format; a model saved in an older one is refused by its format, exit
status 2, and must be retrained.  ``decode``, like ``simulate``, ``train``
and ``aggregate``, refuses an output path whose directory does not exist
before it reads any input.  It reads its token file first and featurizes it
once (``crf.decode_file``): the observations those tokens fire are hashed
and found through the index, which picks the model rows it loads, so its
name work and memory grow with the input's vocabulary, not the model's, and
its output is what the whole model gives.  It and ``aggregate`` write their
labels with one writer (``formats.save_tagged``), from the token sequences
and one label per token, the sequences laid end to end.
"""

from __future__ import annotations

import argparse
import atexit
import dataclasses
import errno
import gc
import os
import sys
from itertools import chain

from . import formats
from .types import LabelScheme


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
    p.add_argument("--lattice-cap", type=int, default=None, help="accepted for compatibility; EM sums over every lattice path")
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


def _em_config(args, cfg: dict):
    """Every field from its flag, else its config key (both named after the
    field), else its default."""
    from .em import EmConfig

    return EmConfig(**{f.name: _pick(args, f.name, cfg, f.name, f.default) for f in dataclasses.fields(EmConfig)})


def _seed(args, cfg: dict, required_to: str | None = None) -> int | None:
    """``--seed``, else the config key ``seed``, else None unless ``required_to``."""
    seed = _pick(args, "seed", cfg, "seed", None)
    if seed is None and required_to:
        raise _UsageError(f"--seed is required to {required_to} (or the config key seed)")
    if seed is not None and seed < 0:
        raise ValueError(f"seed must be a nonnegative integer, got {seed}")
    return seed


def _require_out_dirs(*paths) -> None:
    """Fail as ``open(path, "w")`` would, before any work, when a path's
    directory does not exist; ``None`` stands for an output not asked for."""
    for path in paths:
        if path is not None and not os.path.isdir(os.path.dirname(path) or "."):
            raise FileNotFoundError(errno.ENOENT, os.strerror(errno.ENOENT), path)


def _cmd_simulate(args) -> int:
    from .simulate import CorruptionMix, SimConfig, annotator_precision, simulate

    cfg = _load_file_config(args)
    seed = _seed(args, cfg, required_to="simulate annotators")
    _require_out_dirs(args.out)
    gold = formats.load_conll(args.gold)
    default = {f.name: f.default for cls in (SimConfig, CorruptionMix) for f in dataclasses.fields(cls)}
    mix = CorruptionMix(
        type_swap=_pick(args, "mix_swap", cfg, "mix_type_swap", default["type_swap"]),
        boundary_shift=_pick(args, "mix_shift", cfg, "mix_boundary_shift", default["boundary_shift"]),
        entity_drop=_pick(args, "mix_drop", cfg, "mix_entity_drop", default["entity_drop"]),
        spurious=_pick(args, "mix_spurious", cfg, "mix_spurious", default["spurious"]),
    )
    sim_cfg = SimConfig(
        n_annotators=_pick(args, "annotators", cfg, "n_annotators", default["n_annotators"]),
        target_precision=_pick(args, "target_precision", cfg, "target_precision", default["target_precision"]),
        precision_spread=_pick(args, "precision_spread", cfg, "precision_spread", default["precision_spread"]),
        mix=mix,
        seed=seed,
    )
    crowd = simulate(gold, sim_cfg)
    formats.save_crowd(args.out, crowd)
    print("annotator\tprecision\trecall\tf1")
    for ann_id, report in annotator_precision(crowd).items():
        print(f"{ann_id}\t{report.precision!r}\t{report.recall!r}\t{report.f1!r}")
    return 0


def _cmd_aggregate(args) -> int:
    cfg = _load_file_config(args)
    _seed(args, cfg)
    _require_out_dirs(args.out)
    ds = formats.load_crowd(args.crowd)
    if args.method == "saslc":
        from . import em

        result = em.fit(ds, _em_config(args, cfg), log=sys.stderr)
        labels = em.posterior_modes(result.posterior)
    else:
        from . import baselines

        labelings = baselines.aggregate_labels(
            ds,
            args.method,
            ds_iters=_pick(args, "ds_iters", cfg, "ds_iters", 100),
            ds_tol=_pick(args, "ds_tol", cfg, "ds_tol", 1e-8),
        )
        labels = list(chain.from_iterable(labelings))
    formats.save_tagged(args.out, ds.scheme, [inst.tokens for inst in ds.instances], labels)
    return 0


def _cmd_train(args) -> int:
    from . import annotators, crf, em

    cfg = _load_file_config(args)
    _seed(args, cfg)
    _require_out_dirs(args.model_out, args.annotators_out, args.history_file)
    ds = formats.load_crowd(args.crowd)
    result = em.fit(ds, _em_config(args, cfg), log=sys.stderr)
    crf.save_model(result.crf, args.model_out)
    annotators.save_annotators(result.annotators, ds.scheme, args.annotators_out)
    if args.history_file:
        with open(args.history_file, "w", encoding="utf-8") as fh:
            for value in result.history:
                fh.write(f"{value!r}\n")
    return 0


def _cmd_decode(args) -> int:
    from . import crf

    _require_out_dirs(args.out)
    token_seqs = formats.load_tokens(args.input)
    scheme, labels = crf.decode_file(args.model, token_seqs)
    formats.save_tagged(args.out, scheme, token_seqs, labels)
    return 0


def _cmd_evaluate(args) -> int:
    from . import scoring

    pred_raw = formats.read_tag_file(args.pred)
    gold_raw = formats.read_tag_file(args.gold)
    if len(pred_raw) != len(gold_raw):
        raise ValueError(
            f"sequence count mismatch: {len(pred_raw)} predicted vs {len(gold_raw)} gold"
        )
    for i, ((pred_toks, _), (gold_toks, _)) in enumerate(zip(pred_raw, gold_raw)):
        if len(pred_toks) != len(gold_toks):
            raise ValueError(f"sequence {i}: length {len(pred_toks)} != {len(gold_toks)}")
        if pred_toks != gold_toks:
            j = next(j for j, (p, g) in enumerate(zip(pred_toks, gold_toks)) if p != g)
            raise ValueError(f"sequence {i}, token {j}: {pred_toks[j]!r} predicted vs {gold_toks[j]!r} gold")
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
    from decimal import Decimal

    from . import em

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
        lattice_cap=em.EmConfig.lattice_cap if args.cap is None else args.cap,
    )
    lat = em.build_lattice(inst, ds.scheme, len(ds.roster), base)
    print("position\ttoken\tcandidates\treachable")
    for j, token in enumerate(inst.tokens):
        cand = ",".join(ds.scheme.labels[i] for i in lat.final_candidates[j])
        reach = ",".join(ds.scheme.labels[i] for i in lat.states[j])
        print(f"{j}\t{token}\t{cand}\t{reach}")
    # Decimal prints an int of any size, str() none past sys.get_int_max_str_digits()
    print(f"unpruned\t{Decimal(lat.n_unpruned)}")
    print(f"valid\t{Decimal(lat.n_valid)}")
    print(f"enumerated\t{min(lat.n_valid, lat.cap)}")
    print(f"capped\t{'true' if lat.capped else 'false'}")
    widened = ",".join(str(j) for j in lat.widened) if lat.widened else "-"
    print(f"widened\t{widened}")
    return 0


def _cmd_report_annotators(args) -> int:
    from . import annotators

    params, scheme = annotators.load_annotators(args.params)
    table = params.local if args.table == "local" else params.mention
    contexts = list(scheme.labels) + [annotators.BOS_LABEL]
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
    p.add_argument("--seed", type=int, default=None, help="accepted for compatibility; output never depends on it")
    p.add_argument("--ds-iters", type=int, default=None)
    p.add_argument("--ds-tol", type=float, default=None)
    _add_em_flags(p)
    _add_common(p)
    p.set_defaults(func=_cmd_aggregate)

    p = sub.add_parser("train", help="fit the sequence model and annotator tables")
    p.add_argument("crowd", help="crowd annotation file")
    p.add_argument("--model-out", required=True)
    p.add_argument("--annotators-out", required=True)
    p.add_argument("--seed", type=int, default=None, help="accepted for compatibility; output never depends on it")
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
    p.add_argument(
        "--cap", type=int, default=None, help="the 'enumerated' line reports min(valid, cap); default EmConfig.lattice_cap"
    )
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
    # see the module docstring; unregistering first keeps one hook however
    # often main runs in one process
    atexit.unregister(gc.freeze)
    atexit.register(gc.freeze)
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
