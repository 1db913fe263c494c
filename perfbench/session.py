"""The Ray session the benchmark owns: environment, private caches, set-up
timing, peak-RSS sampling, job deadlines and teardown."""

from __future__ import annotations

import os
import shutil
import tempfile
import threading
import time

import ray  # also puts Ray's bundled psutil on sys.path
import psutil

# At least 4 logical CPUs: with 2, the sharded index path can reserve every
# slot and starve its own ReadParquet.
NUM_CPUS = 4
OBJECT_STORE_MB = 512
# Ray's default kills a surplus idle worker after 1 s, so each job re-spawns
# a varying number of worker processes. Warm checkpointed jobs measured 6-11 s
# across runs with that default and 8.3-9.5 s with idle workers kept.
IDLE_WORKER_KEEP_MS = 600_000
# Unix socket paths are capped at 107 bytes; Ray appends up to 64 characters
# (/session_<timestamp>_<usec>_<pid>/sockets/plasma_store) to its temp dir.
_MAX_RAY_TEMP_DIR = 40


class JobTimeout(Exception):
    pass


def reset_dir(path: str) -> None:
    shutil.rmtree(path, ignore_errors=True)
    os.makedirs(path, mode=0o700)


class RssSampler:
    """Peak of RSS summed over this process and all its descendants (the Ray
    head processes and workers are children of this process), leaving out
    idle pooled workers: how many Ray keeps idle varies from run to run, and
    each one moved the sum by ~100 MiB."""

    INTERVAL_S = 0.2

    def __init__(self):
        self.peak_bytes = 0
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._loop, daemon=True)

    def sample(self) -> int:
        me = psutil.Process()
        total = 0
        for p in [me] + me.children(recursive=True):
            try:
                if not p.name().startswith("ray::IDLE"):
                    total += p.memory_info().rss
            except psutil.Error:  # exited between listing and reading
                pass
        self.peak_bytes = max(self.peak_bytes, total)
        return total

    def _loop(self):
        while not self._stop.wait(self.INTERVAL_S):
            self.sample()

    def __enter__(self):
        self.sample()
        self._thread.start()
        return self

    def __exit__(self, *exc):
        self._stop.set()
        self._thread.join()
        self.sample()


def run_with_deadline(fn, deadline_s: float):
    """Run ``fn()`` in a daemon thread; raise JobTimeout if it outlives the
    deadline (the caller then tears the session down, which unblocks it)."""
    box: dict = {}

    def target():
        try:
            box["result"] = fn()
        except BaseException as e:  # handed to the caller, which re-raises
            box["error"] = e

    t = threading.Thread(target=target, daemon=True)
    t.start()
    t.join(deadline_s)
    if t.is_alive():
        raise JobTimeout(f"job exceeded its {deadline_s:.0f} s deadline")
    if "error" in box:
        raise box["error"]
    return box["result"]


class Session:
    """Private run directory + environment + Ray lifetime.

    ``PYTHONPATH`` is set in the environment before ``ray.init`` so every
    worker imports the checkout's package whatever its cwd (a caller outside
    the repo root otherwise leaves actors in a ModuleNotFoundError restart
    loop). Trie and index caches point at empty directories private to the
    run, so no state left in a shared temp dir reaches a cold measurement."""

    def __init__(self, root: str, run_dir: str):
        self.root = root
        self.run_dir = run_dir
        self.trie_cache = os.path.join(run_dir, "trie_cache")
        self.index_cache = os.path.join(run_dir, "index_cache")
        self.ray_temp = None
        reset_dir(run_dir)
        reset_dir(self.trie_cache)
        reset_dir(self.index_cache)
        env = os.environ
        env["PYTHONPATH"] = os.pathsep.join(
            [root] + [p for p in env.get("PYTHONPATH", "").split(os.pathsep) if p])
        env["ASR_TRIE_CACHE"] = self.trie_cache
        env["ASR_INDEX_CACHE"] = self.index_cache
        env["RAY_USAGE_STATS_ENABLED"] = "0"
        env["RAY_DATA_DISABLE_PROGRESS_BARS"] = "1"
        env.pop("ASR_STREAM_STATS", None)

    def clear_caches(self) -> None:
        reset_dir(self.trie_cache)
        reset_dir(self.index_cache)

    def cache_state(self) -> dict:
        return {"trie_cache_files": len(os.listdir(self.trie_cache)),
                "index_cache_files": len(os.listdir(self.index_cache))}

    def start_ray(self) -> float:
        """``ray.init`` wall seconds."""
        temp = os.path.join(self.root, ".perfbench_ray")
        if len(temp) > _MAX_RAY_TEMP_DIR:
            # a deep checkout cannot host Ray's sockets: use a short private
            # directory outside it
            temp = tempfile.mkdtemp(prefix="pbray")
        self.ray_temp = temp
        t0 = time.perf_counter()
        ray.init(address="local", num_cpus=NUM_CPUS, include_dashboard=False,
                 object_store_memory=OBJECT_STORE_MB << 20, _temp_dir=temp,
                 logging_level="ERROR", log_to_driver=False,
                 _system_config={"idle_worker_killing_time_threshold_ms": IDLE_WORKER_KEEP_MS})
        from ray.data import DataContext

        DataContext.get_current().enable_progress_bars = False
        return time.perf_counter() - t0

    def stop(self) -> None:
        """Shut Ray down, then stop and reap anything still running below
        this process."""
        if ray.is_initialized():
            ray.shutdown()
        procs = psutil.Process().children(recursive=True)
        for p in procs:
            try:
                p.terminate()
            except psutil.Error:
                pass
        _gone, alive = psutil.wait_procs(procs, timeout=10)
        for p in alive:
            try:
                p.kill()
            except psutil.Error:
                pass
        psutil.wait_procs(alive, timeout=10)
        if self.ray_temp:
            shutil.rmtree(self.ray_temp, ignore_errors=True)
