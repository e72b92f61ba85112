"""Child launcher for the benchmark, with an optional outside-in tracer.

Run as ``python3 perfbench/tracing.py [--spans FILE --run-id N] -- ARGV...``
from the root of a checkout.  It imports ``crowdseq`` from the checkout's
``src`` and calls ``crowdseq.cli.main(ARGV)``, exiting with its status.

With ``--spans`` it first replaces the public functions listed in ``WRAPS``
by timing wrappers, at the module attribute the caller looks up (``em``
imports ``optimize`` and friends by name, so those are wrapped on ``em``).
Nothing under ``src/`` changes.  Spans ``(name, start, end, parent, run_id,
attrs)`` stay in memory and are written once, as JSON, when ``main``
returns.  Times are ``time.perf_counter`` readings, which on Linux share the
system-wide monotonic clock with the parent process.

``layer_metrics`` turns the spans of one traced command into the per-layer
metrics the benchmark reports; self time is a span's duration minus its
direct children's.
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

# (module, attribute, span name).  The span name is the layer that owns the
# function, which is not always the module the attribute is looked up on.
WRAPS = (
    ("em", "fit", "em.fit"),
    ("em", "initialize", "em.initialize"),
    ("em", "e_step", "em.e_step"),
    ("em", "m_step", "em.m_step"),
    ("em", "observed_loglik", "em.observed_loglik"),
    ("em", "posterior_modes", "em.posterior_modes"),
    ("em", "confusion_counts", "em.confusion_counts"),
    ("em", "params_from_counts", "annotators.params_from_counts"),
    ("em", "optimize", "crf.optimize"),
    ("em", "candidate_sets", "lattice.candidate_sets"),
    ("em", "enumerate_valid", "lattice.enumerate_valid"),
    ("em", "extract_features", "crf.extract_features"),
    ("em", "log_partition", "crf.log_partition"),
    ("crf", "minimize", "crf.minimize"),
    ("crf", "viterbi", "crf.viterbi"),
    ("crf", "extract_features", "crf.extract_features"),
    ("crf", "load_model", "crf.load_model"),
    ("crf", "save_model", "crf.save_model"),
    ("annotators", "save_annotators", "annotators.save_annotators"),
    ("formats", "load_crowd", "formats.load_crowd"),
    ("formats", "load_conll", "formats.load_conll"),
    ("formats", "load_tokens", "formats.load_tokens"),
    ("formats", "read_tag_file", "formats.read_tag_file"),
    ("formats", "load_config", "formats.load_config"),
    ("formats", "save_conll", "formats.save_conll"),
    ("formats", "save_crowd", "formats.save_crowd"),
)


def _attrs(name: str, args, result) -> dict | None:
    """Counts read at the boundary, from arguments and results only."""
    if name == "crf.minimize":
        return {"nfev": int(result.nfev), "nit": int(result.nit)}
    if name == "crf.optimize":
        return {
            "examples": len(args[1]),
            "converged": bool(result.converged),
            "warning": bool(result.warning),
        }
    if name == "lattice.enumerate_valid":
        return {"sequences": len(result.sequences), "capped": bool(result.capped), "n_valid": int(result.n_valid)}
    if name == "em.fit":
        return {"iterations": int(result.iterations)}
    return None


class Tracer:
    """In-memory span recorder; single-threaded, like the program it wraps."""

    def __init__(self, run_id: int):
        self.run_id = run_id
        self.spans: list[list] = []
        self._stack: list[int] = []

    def span(self, name: str, fn):
        def wrapper(*args, **kwargs):
            idx = len(self.spans)
            parent = self._stack[-1] if self._stack else None
            rec = [name, time.perf_counter(), None, parent, self.run_id, None]
            self.spans.append(rec)
            self._stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = time.perf_counter()
                self._stack.pop()
            rec[5] = _attrs(name, args, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def install(self) -> None:
        import importlib

        for mod_name, attr, span_name in WRAPS:
            mod = importlib.import_module(f"crowdseq.{mod_name}")
            setattr(mod, attr, self.span(span_name, getattr(mod, attr)))


def main(argv: list[str]) -> int:
    spans_path = None
    run_id = 0
    while argv and argv[0] != "--":
        if argv[0] == "--spans":
            spans_path, argv = argv[1], argv[2:]
        elif argv[0] == "--run-id":
            run_id, argv = int(argv[1]), argv[2:]
        else:
            raise SystemExit(f"unknown launcher option {argv[0]!r}")
    sys.path.insert(0, str(ROOT / "src"))
    from crowdseq import cli

    if spans_path is None:
        return cli.main(argv[1:])
    tracer = Tracer(run_id)
    tracer.install()
    status = tracer.span("cli.main", cli.main)(argv[1:])
    Path(spans_path).write_text(json.dumps(tracer.spans), encoding="utf-8")
    return status


# ---- aggregation, run in the benchmark process ----

COUNT_METRICS = (
    "lattice.sequences",
    "lattice.capped",
    "crf.init_nfev",
    "crf.mstep_nfev",
    "crf.init_nit",
    "crf.mstep_nit",
    "crf.mstep_examples",
    "em.iterations",
)

FORMAT_LOADS = ("formats.load_crowd", "formats.load_conll", "formats.load_tokens", "formats.read_tag_file", "formats.load_config")
# every file the CLI writes, the trained model and annotator tables included
FORMAT_SAVES = ("formats.save_conll", "formats.save_crowd", "crf.save_model", "annotators.save_annotators")

# Spans whose time some per-layer metric reports, by self time or inclusive
# of their children.  ``cli.main`` and ``em.fit`` are only the frame around
# the layers: their self time, and the self time of any span with no
# reported ancestor, is ``trace.unattributed_s``.
REPORTED = {
    "crf.minimize", "crf.optimize", "crf.extract_features", "crf.log_partition", "crf.viterbi",
    "crf.load_model", "lattice.candidate_sets", "lattice.enumerate_valid", "em.e_step",
    "em.observed_loglik", "em.m_step", "em.initialize", "em.posterior_modes", "em.confusion_counts",
    "annotators.params_from_counts", *FORMAT_LOADS, *FORMAT_SAVES,
}


def self_times(spans: list) -> list[float]:
    out = [s[2] - s[1] for s in spans]
    for s in spans:
        if s[3] is not None:
            out[s[3]] -= s[2] - s[1]
    return out


def _under(spans: list, i: int, name: str) -> bool:
    p = spans[i][3]
    while p is not None:
        if spans[p][0] == name:
            return True
        p = spans[p][3]
    return False


def layer_metrics(spans: list) -> dict[str, float]:
    """Per-layer times (s) and counts for the spans of one traced command."""
    selfs = self_times(spans)
    m: dict[str, float] = {}

    def add(key, value):
        m[key] = m.get(key, 0) + value

    n_valid = 0
    for i, (name, start, end, _parent, _run, attrs) in enumerate(spans):
        dur = end - start
        attrs = attrs or {}
        if name == "crf.minimize":
            phase = "init" if _under(spans, i, "em.initialize") else "mstep"
            add(f"crf.{phase}_fit_s", dur)
            add(f"crf.{phase}_nfev", attrs["nfev"])
            add(f"crf.{phase}_nit", attrs["nit"])
        elif name == "crf.optimize":
            add("crf.objective_setup_s", selfs[i])
            if _under(spans, i, "em.m_step"):
                add("crf.mstep_examples", attrs["examples"])
            add("crf.unconverged", 0 if attrs["converged"] else 1)
            add("crf.linesearch_warnings", 1 if attrs["warning"] else 0)
        elif name == "crf.extract_features":
            under_em = any(_under(spans, i, f) for f in ("em.e_step", "em.observed_loglik"))
            add("crf.extract_features_s" if under_em else "crf.decode_extract_s", dur)
        elif name == "crf.log_partition":
            add("crf.log_partition_s", dur)
        elif name == "crf.viterbi":
            add("crf.viterbi_s", dur)
        elif name == "crf.load_model":
            add("crf.load_model_s", dur)
        elif name in ("lattice.candidate_sets", "lattice.enumerate_valid"):
            add("lattice.build_s", dur)
            if name == "lattice.enumerate_valid":
                add("lattice.sequences", attrs["sequences"])
                add("lattice.capped", int(attrs["capped"]))
                n_valid += attrs["n_valid"]
        elif name in ("em.e_step", "em.observed_loglik", "em.m_step", "em.initialize"):
            add(name + "_s", selfs[i])
        elif name == "em.posterior_modes":
            add("em.posterior_modes_s", dur)  # inclusive: its E-step is the work
        elif name == "em.fit":
            add("em.iterations", attrs["iterations"])
        elif name in ("em.confusion_counts", "annotators.params_from_counts"):
            add("annotators.tables_s", dur)
        elif name in FORMAT_LOADS:
            add("formats.load_s", dur)
        elif name in FORMAT_SAVES:
            add("formats.save_s", dur)
    nfev = m.get("crf.init_nfev", 0) + m.get("crf.mstep_nfev", 0)
    fit_s = m.get("crf.init_fit_s", 0.0) + m.get("crf.mstep_fit_s", 0.0)
    m["crf.eval_ms"] = 1000.0 * fit_s / nfev if nfev else 0.0
    m["lattice.kept_ratio"] = m.get("lattice.sequences", 0) / n_valid if n_valid else 0.0
    reported: list[bool] = []
    for name, _start, _end, parent, _run, _attrs in spans:  # a parent precedes its children
        reported.append(name in REPORTED or (parent is not None and reported[parent]))
    m["trace.unattributed_s"] = sum(t for t, r in zip(selfs, reported) if not r)
    return m


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
