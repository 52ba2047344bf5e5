"""Tests of the benchmark itself: python3 -m pytest bench/tests

The short runs take about a minute in all; the failure-accounting tests
use a stand-in for `rbraid.cli` and run in milliseconds.
"""
from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "bench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=600)


def result_line(done: subprocess.CompletedProcess) -> dict:
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.splitlines()[-1])


@pytest.mark.parametrize("name", [w["name"] for w in SPEC["workloads"]])
def test_short_run_prints_every_metric(name):
    done = bench("--workload", name, "--seed", "2", "--seconds", "0.1")
    result = result_line(done)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    want = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {k: m["unit"] for k, m in result["metrics"].items()} == want
    assert all(m["value"] > 0 for m in result["metrics"].values())
    assert "failed_share 0.0000 ratio" in done.stdout


def test_traced_counts_repeat_exactly():
    counts = ["linalg.matmul_madds", "tensor.mul_calls", "linalg.echelon_inserts",
              "rmatrix.w_dim"]
    runs = [result_line(bench("--workload", "braid-audit", "--seconds", "0.1", "--trace", "1"))
            for _ in range(2)]
    names = {m["name"] for m in SPEC["per_layer"]}
    for r in runs:
        assert set(r["metrics"]) == names
        assert r["failed"] == 0
    for c in counts:
        assert runs[0]["metrics"][c]["value"] == runs[1]["metrics"][c]["value"] > 0


def test_without_program_exits_nonzero_and_prints_no_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    done = bench("--workload", "braid-audit", "--seconds", "1", cwd=tmp_path)
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout


# -- failure accounting, with a stand-in for rbraid.cli ---------------------------

REPORT = '{"command":"solve","input_sha256":"ab","payload":{"x":1},"status":"unique","timing_ms":%d}\n'


class FakeCli:
    def __init__(self, outputs):
        self.outputs = list(outputs)

    def main(self, argv):
        out = self.outputs.pop(0)
        if isinstance(out, BaseException):
            raise out
        sys.stdout.write(out)
        return 0


def harness_for(outputs, tmp_path, digests=None):
    job = workloads.Job("solve:X", ["solve", "x.json"], 0, "unique")
    wl = workloads.Workload("fake", [job], {"x.json": {}}, ("solve:X", "solve:X"))
    wl.write_inputs(tmp_path)
    return run.Harness(FakeCli(outputs), wl, tmp_path, digests), job


def test_timing_may_change_but_no_other_byte(tmp_path):
    changed = (REPORT % 5).replace('"x":1', '"x":2')
    h, job = harness_for([REPORT % 5, REPORT % 900, changed], tmp_path)
    outcomes = [h.run_job(job) for _ in range(3)]
    assert [o.failure is None for o in outcomes] == [True, True, False]
    assert "first pass" in outcomes[2].failure


def test_recorded_digest_mismatch_fails(tmp_path):
    h, job = harness_for([REPORT % 5], tmp_path, digests={"solve:X": "0" * 64})
    assert "recorded digest" in h.run_job(job).failure


@pytest.mark.parametrize("raised", [RuntimeError("boom"), SystemExit(2), KeyError("k")])
def test_exception_from_main_is_a_failed_job(tmp_path, raised):
    h, job = harness_for([raised, REPORT % 1], tmp_path)
    assert "main raised" in h.run_job(job).failure
    assert h.run_job(job).failure is None  # the harness carries on


@pytest.mark.parametrize("text", ["", REPORT % 1 + REPORT % 1, "[1]\n", REPORT[:-2] % 1])
def test_stdout_must_be_one_json_object(tmp_path, text):
    h, job = harness_for([text], tmp_path)
    assert h.run_job(job).failure is not None


def test_generator_is_seeded():
    for name in workloads.WORKLOADS:
        a, b = workloads.make(name, 3), workloads.make(name, 3)
        assert a.files == b.files and [j.id for j in a.jobs] == [j.id for j in b.jobs]
        assert len({j.id for j in a.jobs}) == len(a.jobs)


def test_tail_percentile_keeps_ten_samples_beyond():
    values = list(range(1, 131))
    p, v = run.tail_percentile(values)
    assert p == 92 and sum(x > v for x in values) >= 10
    assert run.tail_percentile([3.0, 1.0, 2.0]) == (100, 3.0)
