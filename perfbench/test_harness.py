"""Self-test of the benchmark harness at a tiny corpus size.

    python3 -m pytest -q perfbench/test_harness.py
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src"), str(ROOT)]

import run  # noqa: E402
import tracing  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args], cwd=cwd, capture_output=True, text=True, timeout=170
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_every_metric_is_emitted_and_outputs_check(workload, trace):
    proc = _bench("--workload", workload, "--seed", "7", "--seconds", "0", "--trace", str(trace), "--size", "tiny")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0, proc.stdout
    spec = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {m["name"]: m["unit"] for m in spec} == {k: v["unit"] for k, v in result["metrics"].items()}
    if not trace:
        assert all(v["value"] > 0 for v in result["metrics"].values())


@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_traced_runs_leave_outputs_byte_identical_and_repeat_counts(workload, tmp_path):
    wl = WORKLOADS[workload]
    wl.setup(tmp_path, 5, "tiny")

    def outputs(label, spans=None):
        child = run.run_child(wl.command(5), tmp_path, label, spans)
        assert child.status == 0, (tmp_path / f"{label}.err").read_text()
        out = {name: (tmp_path / name).read_bytes() for name in wl.outputs}
        for name in wl.outputs:
            (tmp_path / name).unlink()
        return out, child.wall_s

    expected, _ = outputs("plain")
    layers = []
    for i in range(2):
        spans_path = tmp_path / f"spans{i}.json"
        out, wall_s = outputs(f"traced{i}", spans_path)
        assert out == expected
        spans = json.loads(spans_path.read_text())
        assert spans[0][0] == "cli.main" and spans[0][3] is None
        layers.append(tracing.layer_metrics(spans))
        assert layers[-1]["trace.unattributed_s"] < run.MAX_UNATTRIBUTED_SHARE * wall_s
    counts = [{k: m.get(k) for k in tracing.COUNT_METRICS} for m in layers]
    assert counts[0] == counts[1]
    if workload == "decode-bulk":
        assert layers[0]["crf.load_model_s"] > 0 and layers[0]["crf.viterbi_s"] > 0
    else:
        m = layers[0]
        assert m["crf.init_nfev"] > 0 and m["crf.mstep_nfev"] > 0 and m["em.iterations"] == 2
        assert m["lattice.sequences"] >= 6 and m["crf.mstep_examples"] > 0


def test_fails_without_printing_a_result_outside_a_checkout(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = _bench("--workload", "train-clean", "--seed", "1", "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
