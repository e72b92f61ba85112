"""crowdseq benchmark: train / aggregate / decode throughput through the CLI.

    python3 perfbench/run.py --workload train-clean --seed 1 --seconds 30 --trace 0

Run from the root of a checkout.  Set-up makes the workload's input files
from ``--seed``, one directory per part (see ``workloads.py``), and is
repeated; ``setup_s`` is the median.  The timed command then runs on the
parts in turn, one child process at a time with single-threaded BLAS, until
``--seconds`` have passed and every part has run.  Each child's wall time is
taken around spawn and reap, and its peak RSS from ``os.wait4``.
Before each untraced timed command a probe child starts the interpreter and
imports numpy and scipy, running none of the program's code.  On a shared
VM other tenants slow every process by up to 1.6x for minutes at a time;
the probe slows with the program (over 30 s windows of one input, the
spread of the command's median wall fell from 28-31% to 7-13% once divided
by the probe's median wall).  So the timings are scaled to a machine whose
probe takes ``PROBE_REF_S``: ``speed = PROBE_REF_S / median probe wall``,
``setup_s`` is the median set-up time x ``speed`` and ``tokens_per_s`` is
the median over untraced commands of input tokens / wall (interpreter start
and model load included: users pay them) / ``speed``.  The record keeps the
unscaled values and every probe.  ``peak_rss_mb`` is the median peak RSS
and ``ok_share`` the share of commands that succeeded.

A command fails if it exits non-zero or if an output file's bytes differ
from the first run of the same source tree, workload, seed and size.  Failed
commands are left out of the medians, counted in ``failed`` and listed in
the record.

``--trace 1`` runs each part untraced and then under the outside-in tracer
(``tracing.py``) and reports per-layer metrics instead, as medians over the
traced commands.  The exact counts in ``tracing.COUNT_METRICS`` must repeat
across traced runs of the same source tree and part, and at most
``MAX_UNATTRIBUTED_SHARE`` of a traced command's wall may lie outside every
per-layer metric.  ``BENCHMARK.json`` names the workloads, the metrics and
their units.

Standard output ends with one JSON line: ``correct``, ``attempted``,
``failed`` and ``metrics``.  The full record, with metadata, goes to
``.perfbench_work/results/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench_work"
STORE = WORK / "store.json"

BLAS_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}

# set-up repeats until both are reached; setup_s is the median
SETUP_MIN_REPEATS = 3
SETUP_MIN_TOTAL_S = 3.0
CHILD_CPU_LIMIT_S = 150

PROBE = ("-c", "import numpy, scipy.optimize, scipy.special")
# the probe's wall on a 2-vCPU Xeon VM while no other tenant was busy
PROBE_REF_S = 0.6

# A traced command may spend at most this share of its wall in time that
# no per-layer metric reports (``trace.unattributed_share``).
MAX_UNATTRIBUTED_SHARE = 0.1


@dataclass
class Child:
    label: str
    status: int
    wall_s: float
    rss_mb: float
    spawned: float  # perf_counter at spawn
    traced: bool
    ok: bool = True


def _limit_cpu():
    resource.setrlimit(resource.RLIMIT_CPU, (CHILD_CPU_LIMIT_S, CHILD_CPU_LIMIT_S))


def run_child(argv: list[str], work: Path, label: str, spans: Path | None = None, run_id: int = 0) -> Child:
    """One CLI command in its own process; blocks until it has been reaped."""
    launcher = [sys.executable, str(HERE / "tracing.py")]
    if spans is not None:
        launcher += ["--spans", str(spans), "--run-id", str(run_id)]
    env = {**os.environ, **BLAS_ENV}
    with open(work / f"{label}.out", "wb") as out, open(work / f"{label}.err", "wb") as err:
        spawned = time.perf_counter()
        proc = subprocess.Popen([*launcher, "--", *argv], cwd=work, stdout=out, stderr=err, env=env, preexec_fn=_limit_cpu)
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - spawned
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Child(label, proc.returncode, wall, usage.ru_maxrss / 1024.0, spawned, spans is not None)


def probe_s(work: Path) -> float:
    """Wall of one probe child, spawn to reap."""
    spawned = time.perf_counter()
    subprocess.run([sys.executable, *PROBE], cwd=work, env={**os.environ, **BLAS_ENV}, check=True)
    return time.perf_counter() - spawned


def _digest(path: Path) -> str | None:
    return hashlib.sha256(path.read_bytes()).hexdigest() if path.is_file() else None


def source_digest() -> str:
    """Identifies the program and the benchmark's inputs: ``src``, the corpus
    generator and the benchmark itself."""
    h = hashlib.sha256()
    for p in sorted([*(ROOT / "src").rglob("*.py"), ROOT / "tests" / "corpus.py", *HERE.glob("*.py")]):
        h.update(str(p.relative_to(ROOT)).encode() + b"\0" + p.read_bytes() + b"\0")
    return h.hexdigest()


def _load_store() -> dict:
    try:
        return json.loads(STORE.read_text())
    except (OSError, ValueError):
        return {}


def _save_store(store: dict) -> None:
    tmp = STORE.with_suffix(f".{os.getpid()}.tmp")
    tmp.write_text(json.dumps(store, indent=1, sort_keys=True))
    os.replace(tmp, STORE)


def _git_commit() -> str | None:
    if not (ROOT / ".git").exists():  # an exported checkout; never report an enclosing repository
        return None
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def metadata(args, src: str) -> dict:
    import numpy
    import scipy

    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "size": args.size,
        "git_commit": _git_commit(),
        "source_sha256": src,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "blas_env": BLAS_ENV,
    }


def _median(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0


def measure(args, spec: dict) -> dict:
    """One run; ``spec`` is BENCHMARK.json, which names the metrics and units."""
    import tracing
    from workloads import SIZES, WORKLOADS

    wl = WORKLOADS[args.workload]
    src = source_digest()
    work = WORK / f"{wl.name}-{args.seed}-{args.size}-{os.getpid()}"
    key = f"{src}|{wl.name}|{args.seed}|{args.size}"
    ref = _load_store().get(key, {"outputs": {}, "counts": {}})
    children: list[Child] = []
    problems: list[str] = []

    # part i of seed s has seed 1000 s + i, so parts of different seeds never coincide
    n_parts = SIZES[args.size]["parts"][wl.name]
    setup_times = []
    while len(setup_times) < SETUP_MIN_REPEATS or sum(setup_times) < SETUP_MIN_TOTAL_S:
        t0 = time.perf_counter()
        parts = []
        for i in range(n_parts):
            (work / str(i)).mkdir(parents=True, exist_ok=True)
            parts.append(wl.setup(work / str(i), 1000 * args.seed + i, args.size))
        setup_times.append(time.perf_counter() - t0)

    def run_cli(argv: list[str], cwd: Path, label: str, spans: Path | None = None, rep: int = 0) -> str | None:
        child = run_child(argv, cwd, label, spans, rep)
        children.append(child)
        if child.status != 0:
            child.ok = False
            problems.append(f"{cwd.name}/{label}: exit status {child.status}")
            return None
        return (cwd / f"{label}.out").read_text()

    # Untraced runs cycle through the parts; with --trace 1 each part runs
    # untraced and then traced.
    per_run = 2 if args.trace else 1
    timed: list[tuple[Child, Part, list | None]] = []
    probes: list[float] = []
    start = time.perf_counter()
    rep = 0
    while True:
        part = parts[(rep // per_run) % n_parts]
        traced = per_run == 2 and rep % 2 == 1
        for name in wl.outputs:
            (part.work / name).unlink(missing_ok=True)
        if not args.trace:
            probes.append(probe_s(part.work))
        spans_path = part.work / "spans.json" if traced else None
        if run_cli(wl.command(part.seed), part.work, "timed", spans_path, rep) is not None:
            digests = {name: _digest(part.work / name) for name in wl.outputs}
            missing = sorted(k for k, v in digests.items() if v is None)
            if missing:
                children[-1].ok = False
                problems.append(f"part {part.work.name} rep {rep}: missing outputs {missing}")
            elif digests != ref["outputs"].setdefault(part.work.name, digests):
                children[-1].ok = False
                problems.append(f"part {part.work.name} rep {rep}: output bytes differ from the first run of this source tree")
        child = children[-1]
        timed.append((child, part, json.loads(spans_path.read_text()) if traced and child.ok else None))
        rep += 1
        if time.perf_counter() - start >= args.seconds and rep >= n_parts * per_run:
            break

    try:
        quality, finish_problems = wl.finish(parts, run_cli)
    except Exception:  # unreadable outputs: report an incorrect run rather than no result
        quality, finish_problems = {}, [f"output checks raised {traceback.format_exc()}"]
    problems += finish_problems
    plain = [(c, p) for c, p, spans in timed if c.ok and not c.traced]
    failed = sum(not c.ok for c in children)
    record = {
        "meta": metadata(args, src),
        "runs": [{**vars(c), "part": p.work.name} for c, p, _ in timed],
        "other_commands": [vars(c) for c in children if all(c is not t[0] for t in timed)],
        "dropped_from_medians": [f"rep {i}" for i, (c, _, _) in enumerate(timed) if not c.ok],
        "quality": quality,
        "setup_s_all": setup_times,
    }
    if args.trace:
        per_rep, overhead = [], []
        for i, (child, part, spans) in enumerate(timed):
            if spans is None:
                continue
            m = tracing.layer_metrics(spans)
            m["cli.import_s"] = spans[0][1] - child.spawned
            m["trace.unattributed_share"] = m.pop("trace.unattributed_s") / child.wall_s
            if m["trace.unattributed_share"] > MAX_UNATTRIBUTED_SHARE:
                problems.append(
                    f"traced rep {i}: {m['trace.unattributed_share']:.1%} of its wall is in no per-layer metric"
                )
            counts = {k: m.get(k, 0) for k in tracing.COUNT_METRICS}
            expected = ref["counts"].setdefault(part.work.name, counts)
            unstable = sorted(k for k in counts if counts[k] != expected[k])
            if unstable:
                problems.append(f"part {part.work.name}: counts differ between traced runs of this source tree: {unstable}")
            untraced = timed[i - 1][0]
            if untraced.ok:
                overhead.append(child.wall_s / untraced.wall_s - 1)
            per_rep.append(m)
        # a layer the workload never enters reports 0
        metrics = {m["name"]: _median([r.get(m["name"], 0.0) for r in per_rep]) for m in spec["per_layer"]}
        metrics.update(quality)
        metrics["trace.overhead"] = _median(overhead)
        record["per_rep_layers"] = per_rep
    else:
        record["probe_s_all"] = probes
        record["unscaled"] = {
            "setup_s": _median(setup_times),
            "tokens_per_s": _median([p.tokens / c.wall_s for c, p in plain]),
        }
        speed = PROBE_REF_S / _median(probes)
        metrics = {
            "setup_s": record["unscaled"]["setup_s"] * speed,
            "tokens_per_s": record["unscaled"]["tokens_per_s"] / speed,
            "peak_rss_mb": _median([c.rss_mb for c, _ in plain]),
            "ok_share": (len(children) - failed) / len(children),
        }
    _save_store({**_load_store(), key: ref})
    record["problems"] = problems
    record["result"] = {
        "correct": not problems and failed == 0,
        "attempted": len(children),
        "failed": failed,
        "metrics": {
            m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
            for m in spec["per_layer" if args.trace else "end_to_end"]
        },
    }
    results = WORK / "results"
    results.mkdir(parents=True, exist_ok=True)
    out = results / f"{wl.name}-seed{args.seed}-trace{args.trace}-{time.strftime('%Y%m%dT%H%M%S')}-{os.getpid()}.json"
    out.write_text(json.dumps(record, indent=1))
    shutil.rmtree(work)
    record["record_file"] = str(out.relative_to(ROOT))
    return record


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0, help="timed loop length")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full", help="tiny is for the self-test")
    args = parser.parse_args(argv)
    missing = [f for f in ("src/crowdseq/cli.py", "tests/corpus.py") if not (ROOT / f).is_file()]
    if missing:
        print(f"error: {ROOT} is not a crowdseq checkout; missing {', '.join(missing)}", file=sys.stderr)
        return 2
    os.environ.update(BLAS_ENV)  # before numpy is imported
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    if args.workload not in names:
        parser.error(f"--workload must be one of {', '.join(names)}")
    record = measure(args, spec)
    for name, m in record["result"]["metrics"].items():
        print(f"{args.workload}\t{name}\t{m['value']!r}\t{m['unit']}")
    if not args.trace:
        for name, value in record["unscaled"].items():
            print(f"{args.workload}\tunscaled:{name}\t{value!r}")
        for name, value in record["quality"].items():
            print(f"{args.workload}\tquality:{name}\t{value!r}")
    for problem in record["problems"]:
        print(f"PROBLEM: {problem}")
    print(f"record: {record['record_file']}")
    print(json.dumps(record["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
