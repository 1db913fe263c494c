"""Seeded, oracle-checked benchmark of the KG-construction pipeline.

    python3 perfbench/run.py --workload turns_dense --seed 1 --seconds 30 --trace 0

Run from the repository root. The inputs are generated from ``--seed``; every
job's triples are compared, as a set, with the sequential oracle's. The last
line of stdout is one JSON object ``{"correct", "attempted", "failed",
"metrics"}``; everything else (Ray's logs, the run report) goes to stderr.

``--trace 0`` reports the end-to-end metrics:

- ``setup_s``: ``ray.init`` plus ``put_region_table`` on an empty trie cache
  (the ``put`` is sampled three times, its median is added);
- ``cold_job_s``: the median wall time of the workload's cold jobs, each run
  with empty trie and index caches, after an untimed warm-up job;
- ``turns_per_s``: input turns over the median warm-job wall time;
- ``peak_rss_mb``: the median over the timed jobs of each job's peak RSS,
  summed over this process and its Ray descendants, idle pooled workers
  left out.

``--trace 1`` instead reports the per-layer metrics of ``layers.py``.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import shutil
import statistics
import sys
import time
import traceback

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
RUN_BUDGET_S = 165     # the whole run ends inside the 180 s contract
JOB_DEADLINE_S = 75.0  # a job past this counts as failed
SETTLE_S = 1.0  # untimed pause before each job: the last one's actors exit
SETUP_REPS = 3
_T0 = time.perf_counter()


def log(*parts) -> None:
    print(f"perfbench [{time.perf_counter() - _T0:6.1f} s]", *parts,
          file=sys.stderr, flush=True)


def parse_args(argv):
    from workloads import WORKLOADS

    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--scale", type=float, default=1.0,
                    help="multiply input sizes (the self-test runs tiny inputs)")
    ap.add_argument("--corrupt-expected", action="store_true",
                    help="drop one oracle triple: every job must then fail")
    return ap.parse_args(argv)


class Jobs:
    """Runs pipeline jobs under a deadline and checks each against the oracle."""

    def __init__(self, t_start: float, corrupt: bool):
        self.t_start = t_start
        self.corrupt = corrupt  # drop one oracle triple: every job must fail
        self.oracle = None
        self._expected = None
        self.attempted = 0
        self.failed = 0
        self.broken = False  # a job hung; the session cannot be trusted
        self.walls: list[tuple[str, float]] = []

    def expect(self, oracle) -> None:
        """Check jobs against ``oracle``, whose process may still be running."""
        self.oracle = oracle

    def expected(self) -> set:
        """The oracle's triples; waits for its process the first time."""
        if self._expected is None:
            self._expected = self.oracle.triples()
            if self.corrupt:
                self._expected = set(sorted(self._expected)[1:])
            log(f"{len(self._expected)} oracle triples "
                f"(cache {'hit' if self.oracle.hit else 'miss'})")
        return self._expected

    def remaining_s(self) -> float:
        return RUN_BUDGET_S - (time.perf_counter() - self.t_start)

    def run(self, label: str, fn):
        """(wall seconds, result or None). A job that raises, outlives its
        deadline or emits other triples than the oracle counts as failed."""
        from session import JobTimeout, run_with_deadline
        from workloads import triple_set

        import pyarrow.parquet as pq

        if self.broken:  # a job hung: the session cannot run another
            return 0.0, None
        self.attempted += 1
        time.sleep(SETTLE_S)
        deadline = max(1.0, min(JOB_DEADLINE_S, self.remaining_s()))
        t0 = time.perf_counter()
        result = None
        try:
            result = run_with_deadline(fn, deadline)
        except JobTimeout as e:
            self.broken = True
            log(label, "FAILED:", e)
        except Exception:
            log(label, "FAILED:\n" + traceback.format_exc())
        wall = time.perf_counter() - t0
        self.walls.append((label, wall))
        if result is None:
            self.failed += 1
        else:
            got, expected = triple_set(pq.read_table(result["triples"])), self.expected()
            if got != expected:
                self.failed += 1
                log(label, f"FAILED: {len(got - expected)} extra, "
                    f"{len(expected - got)} missing triples vs the oracle")
        log(f"{label}: {wall:.3f} s")
        return wall, result


def job_fn(mode: str, data_dir: str, out_dir: str, resume: bool = False):
    from address_semantic_search_ray.pipelines.kg import run_kg_pipeline, run_kg_streaming

    if mode == "streaming":
        return lambda: run_kg_streaming(data_dir, out_dir, concurrency=1, batch_size=1024)
    return lambda: run_kg_pipeline(data_dir, out_dir, concurrency=1, resume=resume)


def measure_setup(session, region_path: str) -> float:
    from address_semantic_search_ray.stages.interpret import put_region_table

    init_s = session.start_ray()
    puts = []
    for _ in range(SETUP_REPS):
        session.clear_caches()
        t0 = time.perf_counter()
        ref = put_region_table(region_path)
        puts.append(time.perf_counter() - t0)
        del ref
    log(f"setup: ray.init {init_s:.3f} s, put_region_table (cold) "
        + ", ".join(f"{p:.3f}" for p in puts) + " s")
    return init_s + statistics.median(puts)


def end_to_end(spec, args, session, jobs: Jobs, data_dir: str, region_path: str,
               start_oracle) -> dict:
    from session import RssSampler

    setup_s = measure_setup(session, region_path)
    run = job_fn("streaming", data_dir, os.path.join(session.run_dir, "out"))
    # untimed, while the oracle runs: one job starts Ray Data's worker
    # processes, their imports and the object store's memory, so every cold
    # job below pays the same costs
    jobs.expect(start_oracle())
    jobs.run("warm-up job (untimed)", run)
    jobs.expected()  # even after a failed warm-up, no timed job overlaps the oracle
    walls = {"C": [], "W": []}
    peaks = []
    t_window = time.perf_counter()
    # the workload's schedule, then warm jobs while --seconds allows
    for i, kind in enumerate(itertools.chain(spec.schedule, itertools.repeat("W"))):
        if jobs.broken:
            break
        if i >= len(spec.schedule):
            typical = statistics.median(walls["W"])
            if time.perf_counter() - t_window + typical > args.seconds:
                break
            if typical + 5 > jobs.remaining_s():
                break
        if kind == "C":
            session.clear_caches()
            log("cold caches:", session.cache_state())
        label = f"{'cold' if kind == 'C' else 'warm'} job {len(walls[kind]) + 1}"
        with RssSampler() as rss:
            walls[kind].append(jobs.run(label, run)[0])
        peaks.append(rss.peak_bytes)
    # a hung warm-up leaves no measured job; the run already counts it failed
    fallback = walls["C"] or walls["W"] or [jobs.walls[-1][1]]
    cold_s = statistics.median(walls["C"] or fallback)
    warm_s = statistics.median(walls["W"] or fallback)
    return {
        "turns_per_s": {"value": spec.n_turns / warm_s, "unit": "1/s"},
        "cold_job_s": {"value": cold_s, "unit": "s"},
        "setup_s": {"value": setup_s, "unit": "s"},
        "peak_rss_mb": {"value": statistics.median(peaks or [RssSampler().sample()]) / 2**20,
                        "unit": "MiB"},
    }


def per_layer(spec, session, jobs: Jobs, data_dir: str, region_path: str,
              start_oracle) -> dict:
    """Every layer on this workload's input: kernel and stages in-process,
    then a streaming job traced through ``ds.stats()``, the sharded index
    build, and a checkpointed job with its resumes."""
    import layers

    jobs.expect(start_oracle())
    jobs.expected()  # the oracle's process must not overlap a measurement
    m, artifacts = layers.kernel_and_stages(data_dir, region_path, session.run_dir)
    session.start_ray()

    stream = job_fn("streaming", data_dir, os.path.join(session.run_dir, "stream"))
    jobs.run("streaming cold job", stream)
    untraced_s, _ = jobs.run("streaming warm job", stream)
    os.environ["ASR_STREAM_STATS"] = "1"
    try:
        traced_s, result = jobs.run("streaming warm job (stats)", stream)
    finally:
        del os.environ["ASR_STREAM_STATS"]
    if result is not None:
        m.update(layers.pipeline_rows(result["stats"], traced_s))
    m["pipelines.trace_overhead_s"] = traced_s - untraced_s
    if not jobs.broken:
        m["pipelines.sharded_index_build_s"] = layers.sharded_index_build_s(artifacts["corpus"])

    work = os.path.join(session.run_dir, "work")
    wall, result = jobs.run("checkpointed job", job_fn("checkpointed", data_dir, work))
    if result is not None:
        m.update(layers.state_rows(result, wall))
    noop_s, noop = jobs.run("resume (no-op)", job_fn("checkpointed", data_dir, work, resume=True))
    m["state.resume_noop_s"] = noop_s
    if noop is not None and layers.rerun_stages(noop):
        jobs.failed += 1
        log("FAILED: no-op resume reran", layers.rerun_stages(noop))
    if result is not None:
        shutil.rmtree(result["links"])
    _, rerun = jobs.run("resume after deleting links/",
                        job_fn("checkpointed", data_dir, work, resume=True))
    if rerun is not None:
        stages = layers.rerun_stages(rerun)
        m["state.resume_rerun_stages"] = float(len(stages))
        if stages != ["links", "triples"]:
            jobs.failed += 1
            log("FAILED: resume after deleting links/ reran", stages)
    missing = [k for k in layers.PER_LAYER if k not in m]
    if missing:  # only after a failed job, which already marks the run
        log("not measured (reported as 0):", missing)
    return {k: {"value": float(m.get(k, 0.0)), "unit": layers.unit_of(k)}
            for k in layers.PER_LAYER}


def run(args) -> tuple[dict, bool]:
    from session import Session
    from workloads import WORKLOADS, Oracle, check_path, make_inputs

    from address_semantic_search_ray.pipelines.oracle import default_region_dict_path

    t_start = time.perf_counter()
    spec = WORKLOADS[args.workload].scaled(args.scale)
    run_dir = os.path.join(ROOT, ".perfbench_run", f"{spec.name}-{os.getpid()}")
    session = Session(ROOT, run_dir)
    try:
        data_dir = os.path.join(run_dir, "data")
        make_inputs(spec, args.seed, data_dir)
        log(f"{spec}: {check_path(spec, data_dir)}")
        jobs = Jobs(t_start, args.corrupt_expected)

        def start_oracle():
            return Oracle(spec, args.seed, data_dir, os.path.join(ROOT, ".perfbench_cache"), ROOT)

        region_path = default_region_dict_path()
        if args.trace:
            metrics = per_layer(spec, session, jobs, data_dir, region_path, start_oracle)
        else:
            metrics = end_to_end(spec, args, session, jobs, data_dir, region_path, start_oracle)
        log("jobs:", json.dumps(jobs.walls))
    finally:
        session.stop()
        shutil.rmtree(run_dir, ignore_errors=True)
    result = {"correct": jobs.failed == 0, "attempted": jobs.attempted,
              "failed": jobs.failed, "metrics": metrics}
    return result, jobs.broken


def main(argv=None) -> int:
    args = parse_args(argv)
    sys.path.insert(0, ROOT)
    try:
        import address_semantic_search_ray.pipelines.kg  # noqa: F401
    except ImportError as e:
        log(f"cannot import the program from {ROOT}: {e}")
        return 2
    # only the result line may reach stdout: point fd 1 (inherited by every
    # Ray process) at stderr and keep a private handle on the real stdout
    result_fd = os.dup(1)
    os.dup2(2, 1)
    result, hung = run(args)
    os.write(result_fd, (json.dumps(result) + "\n").encode())
    os.close(result_fd)
    if hung:  # its thread may still be inside Ray: skip interpreter teardown
        os._exit(0)
    return 0


if __name__ == "__main__":
    sys.exit(main())
