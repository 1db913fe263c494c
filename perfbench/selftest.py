"""Self-test of the benchmark at tiny scale (about three minutes).

    python3 perfbench/selftest.py

Checks that stdout carries only the result line, that its metric names and
units match BENCHMARK.json, that a corrupted expected output is reported as
failed jobs rather than a crash, and that a directory holding only the
benchmark (no program) exits non-zero without a result.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def bench(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--seed", "3", "--seconds", "1",
         "--scale", "0.1", *args],
        cwd=cwd, capture_output=True, text=True, timeout=180)


def result_of(proc) -> dict:
    assert proc.returncode == 0, proc.stderr[-2000:]
    lines = proc.stdout.splitlines()
    assert len(lines) == 1, f"stdout must hold only the result line, got {lines[:5]}"
    result = json.loads(lines[0])
    assert set(result) == RESULT_KEYS, result.keys()
    assert isinstance(result["attempted"], int) and result["attempted"] >= 1
    assert isinstance(result["failed"], int)
    return result


def check_metrics(result: dict, declared: list) -> None:
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    want = {m["name"]: m["unit"] for m in declared}
    assert got == want, f"metrics differ from BENCHMARK.json: {set(got) ^ set(want)}"
    for name, v in result["metrics"].items():
        assert isinstance(v["value"], float), (name, v)


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    for w in spec["workloads"]:
        r = result_of(bench("--workload", w["name"], "--trace", "0"))
        assert r["correct"] and r["failed"] == 0, r
        check_metrics(r, spec["end_to_end"])
        print(f"ok: {w['name']} end-to-end, {r['attempted']} jobs", flush=True)

    name = spec["workloads"][0]["name"]
    r = result_of(bench("--workload", name, "--trace", "1"))
    assert r["correct"] and r["failed"] == 0, r
    check_metrics(r, spec["per_layer"])
    m = r["metrics"]
    rows = sum(m[k]["value"] for k in ("pipelines.read_s", "pipelines.fused_op_s",
                                      "pipelines.shuffle_s", "pipelines.finalize_write_s",
                                      "pipelines.unattributed_s"))
    assert abs(rows - m["pipelines.job_s"]["value"]) < 1e-6, (rows, m["pipelines.job_s"])
    assert m["state.resume_rerun_stages"]["value"] == 2.0
    print("ok: per-layer trace", flush=True)

    r = result_of(bench("--workload", name, "--trace", "0", "--corrupt-expected"))
    assert not r["correct"] and r["failed"] == r["attempted"], r
    print(f"ok: corrupted oracle -> {r['failed']}/{r['attempted']} failed", flush=True)

    bare = os.path.join(ROOT, ".perfbench_run", "selftest-bare")
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(os.path.join(ROOT, "perfbench"), os.path.join(bare, "perfbench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    try:
        proc = bench("--workload", name, "--trace", "0", cwd=bare)
        assert proc.returncode != 0 and not proc.stdout, (proc.returncode, proc.stdout)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    print("ok: no program -> exit", proc.returncode, "and no result", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
