"""Workload inputs, the oracle gate and the path/property checks.

Inputs are generated from the workload seed with the program's own
``data.synth`` generators and written as part-file directories, the layout
both KG pipelines read. Generation is never timed. The expected triples come
from ``pipelines.oracle.run_oracle`` (the sequential reference), computed in a
child process so its heap never shows in the benchmark's RSS, and cached per
(workload, seed, scale, code hash) because it costs several seconds.
"""

from __future__ import annotations

import dataclasses
import glob
import hashlib
import os
import subprocess
import sys

import pyarrow.parquet as pq

PACKAGE = "address_semantic_search_ray"


@dataclasses.dataclass(frozen=True)
class Workload:
    name: str
    n_addresses: int
    n_turns: int
    # jobs in order, C = cold (trie and index caches emptied first), W = warm
    schedule: str

    def scaled(self, scale: float) -> "Workload":
        return dataclasses.replace(
            self, n_addresses=max(200, int(self.n_addresses * scale)),
            n_turns=max(500, int(self.n_turns * scale)))


# Sized for a small host: a run must hold the set-up samples, a warm-up job
# and the schedule inside about a minute. A job spends a few seconds in Ray's
# scheduling whatever its input, and that part varies by about a second from
# job to job, so turns_dense has 10k turns, long enough for that second to be
# a small share, and two jobs of each kind, whose medians are reported.
# Both run run_kg_streaming. turns_dense draws its mentions from 1k addresses,
# so turns and link keys repeat and the memos serve most of them;
# links_sparse draws them from 4k: about 15% of its link keys repeat
# (turns_dense: about 57%) and each link query scores about 1.7 times as
# many documents.
WORKLOADS = {
    "turns_dense": Workload("turns_dense", 1000, 10000, "CWCW"),
    "links_sparse": Workload("links_sparse", 4000, 5000, "CWCW"),
}


def code_hash(root: str) -> str:
    """Content hash of the program and of this benchmark: a cached oracle is
    reused only for the exact code that produced it."""
    h = hashlib.sha256()
    files = sorted(glob.glob(os.path.join(root, PACKAGE, "**", "*.py"), recursive=True))
    files += sorted(glob.glob(os.path.join(root, PACKAGE, "data", "*.parquet")))
    files += sorted(glob.glob(os.path.join(os.path.dirname(__file__), "*.py")))
    for f in files:
        h.update(os.path.relpath(f, root).encode())
        with open(f, "rb") as fh:
            h.update(fh.read())
    return h.hexdigest()[:16]


def _write_parts(table, dir_path: str, rows_per_part: int) -> None:
    os.makedirs(dir_path, exist_ok=True)
    for i, start in enumerate(range(0, table.num_rows, rows_per_part)):
        pq.write_table(table.slice(start, rows_per_part),
                       os.path.join(dir_path, f"part-{i:05d}.parquet"))


def make_inputs(spec: Workload, seed: int, data_dir: str) -> None:
    """addresses.parquet/ and transcripts.parquet/ under ``data_dir``."""
    from address_semantic_search_ray.data.synth import (
        generate_addresses, generate_transcripts)
    from address_semantic_search_ray.kernel.regions import RegionDict
    from address_semantic_search_ray.pipelines.oracle import default_region_dict_path

    regions = RegionDict.from_parquet(default_region_dict_path())
    addresses = generate_addresses(regions, spec.n_addresses, seed=seed)
    transcripts, _truth = generate_transcripts(addresses, spec.n_turns, seed=seed)
    _write_parts(addresses, os.path.join(data_dir, "addresses.parquet"), 1024)
    _write_parts(transcripts, os.path.join(data_dir, "transcripts.parquet"), 8192)


def check_path(spec: Workload, data_dir: str) -> dict:
    """Raise unless the input takes run_kg_streaming's overlapped index
    path; returns the facts that decided it."""
    from address_semantic_search_ray.pipelines.kg import (
        SMALL_INDEX_OVERLAP_MAX_BYTES, estimate_index_bytes)

    est = estimate_index_bytes(os.path.join(data_dir, "addresses.parquet"))
    # run_kg_streaming builds the index in one overlapped (and disk-cached)
    # task at or below this threshold, and shards it above
    if est > SMALL_INDEX_OVERLAP_MAX_BYTES:
        raise RuntimeError(f"{spec.name}: index estimate {est} B takes the sharded path")
    return {"index_estimate_bytes": est, "path": "overlapped-index"}


def triple_set(table) -> set:
    """Triples as a set, score rounded to 9 digits (tests/test_kg_pipeline.py)."""
    cols = [table.column(c).to_pylist() for c in
            ("subj", "pred", "obj", "conv_id", "turn_idx", "district_key")]
    cols.append([round(s, 9) for s in table.column("score").to_pylist()])
    return set(zip(*cols))


def _oracle_to(data_dir: str, out_path: str) -> None:
    from address_semantic_search_ray.pipelines.oracle import run_oracle

    tmp = out_path + f".tmp{os.getpid()}"
    pq.write_table(run_oracle(data_dir), tmp)
    os.replace(tmp, out_path)


if __name__ == "__main__":  # the oracle's own process: workloads.py DATA_DIR OUT
    _oracle_to(sys.argv[1], sys.argv[2])


class Oracle:
    """The expected triples of one input. The constructor starts the oracle's
    process, so it can run while untimed work goes on; ``triples`` waits for
    it. Results are cached per (workload, seed, scale, code hash)."""

    def __init__(self, spec: Workload, seed: int, data_dir: str, cache_dir: str, root: str):
        key = hashlib.sha256(
            f"{spec}|{seed}|{code_hash(root)}".encode()).hexdigest()[:20]
        self.path = os.path.join(cache_dir, f"oracle-{spec.name}-{key}.parquet")
        self.hit = os.path.exists(self.path)
        self.proc = None
        if not self.hit:
            os.makedirs(cache_dir, exist_ok=True)
            env = dict(os.environ, PYTHONPATH=root)
            self.proc = subprocess.Popen(
                [sys.executable, os.path.abspath(__file__), data_dir, self.path],
                env=env, stdout=sys.stderr)

    def triples(self) -> set:
        if self.proc is not None:
            rc = self.proc.wait()
            if rc:
                raise subprocess.CalledProcessError(rc, self.proc.args)
        return triple_set(pq.read_table(self.path))
