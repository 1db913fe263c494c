"""No-Ray multiprocessing twin of the fused KG stage: the scaling-ceiling
attribution artifact.

The bench's 8->32 CPU scaling efficiency lands ~0.5 on this single-socket
host. This script demonstrates the ceiling is NOT Ray's: it runs the
IDENTICAL fused task body (``per_block(MentionLinkTriplesStage, ...)``:
one stage-state load per ``STREAM_BLOCK_ROWS``-turn block, then arrow
prefilter + trie scan + link + compact emit per 1,024-row slice) as plain
``multiprocessing`` processes — no Ray, no object store, the pickled
region state and corpus index built ONCE in the parent and inherited by
fork — at the same two pool sizes as the bench anchors (6 procs / 20 procs). If
per-process throughput collapses at 20 procs without Ray in the picture,
the gap is single-socket memory-bus contention, which a real N->4N *node*
cluster does not have (each node owns its memory bus).

Usage (from /root/repo, after `python bench.py` has generated the synthetic
input under /tmp/asr_synth/sf0.1x10 — the same 2M-turn input the bench
anchors run):

    python tools/mp_twin.py [--turns 2000000] [--procs 6,20]
"""
from __future__ import annotations

import argparse
import multiprocessing as mp
import os
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

# built once in the parent, inherited by fork (read-only in children)
_STATE: dict = {}


def _worker(start: int, n_rows: int, q: mp.Queue) -> None:
    import gc

    import pyarrow.parquet as pq

    from address_semantic_search_ray.pipelines.kg import STREAM_BLOCK_ROWS
    from address_semantic_search_ray.stages.fused import MentionLinkTriplesStage
    from address_semantic_search_ray.stages.interpret import per_block

    try:
        task = per_block(MentionLinkTriplesStage, _STATE["region_bytes"],
                         _STATE["index_payload"], batch_size=1024)
        tbl = pq.read_table(_STATE["transcripts"],
                            columns=["conv_id", "turn_idx", "role", "text"])
        # wrap the slice so every process sees real rows even when
        # start+n_rows exceeds the file (turn multiplier < procs*slice)
        n_file = tbl.num_rows
        start = start % max(1, n_file - n_rows) if n_file > n_rows else 0
        tbl = tbl.slice(start, n_rows)
        gc.collect()
        t0w, t0c = time.time(), time.process_time()
        for off in range(0, tbl.num_rows, STREAM_BLOCK_ROWS):
            for _ in task(tbl.slice(off, STREAM_BLOCK_ROWS)):
                pass
        q.put((tbl.num_rows, time.time() - t0w, time.process_time() - t0c))
    except Exception as exc:  # a dead-before-put worker deadlocks q.get
        q.put((0, 0.0, 0.0))
        raise exc


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("--turns", type=int, default=2_000_000)
    ap.add_argument("--procs", default="6,20")
    ap.add_argument("--data", default="/tmp/asr_synth/sf0.1x10")
    args = ap.parse_args()

    from address_semantic_search_ray.pipelines.kg import _build_small_corpus_index_impl
    from address_semantic_search_ray.pipelines.oracle import default_region_dict_path
    from address_semantic_search_ray.stages.interpret import region_state_bytes

    region_bytes = region_state_bytes(default_region_dict_path())
    _STATE["region_bytes"] = region_bytes
    _STATE["index_payload"] = _build_small_corpus_index_impl(
        os.path.join(args.data, "addresses.parquet"), region_bytes)
    _STATE["transcripts"] = os.path.join(args.data, "transcripts.parquet")

    for nproc in (int(x) for x in args.procs.split(",")):
        n = args.turns // nproc
        q: mp.Queue = mp.Queue()
        ps = [mp.Process(target=_worker, args=(i * n, n, q))
              for i in range(nproc)]
        t0 = time.time()
        for p in ps:
            p.start()
        res = []
        for _ in ps:
            res.append(q.get(timeout=1200))
        for p in ps:
            p.join(timeout=60)
        wall = time.time() - t0
        rows = sum(r[0] for r in res)
        stage_walls = [r[1] for r in res if r[0]]
        n_failed = sum(1 for r in res if not r[0])
        if not stage_walls:  # every worker died before its timing put
            raise SystemExit(f"nproc={nproc}: all {nproc} workers failed")
        per_proc = (sum(r[0] / r[1] for r in res if r[0] and r[1])
                    / len(stage_walls))
        if n_failed:
            print(f"nproc={nproc}: WARNING {n_failed} worker(s) failed — "
                  "throughput below is understated", flush=True)
        print(f"nproc={nproc}: {rows} turns, job wall {wall:.1f}s "
              f"(incl fork+read), mean stage wall {sum(stage_walls)/len(stage_walls):.1f}s, "
              f"per-proc {per_proc:.0f} turns/s, "
              f"job throughput {rows/wall:.0f} turns/s", flush=True)


if __name__ == "__main__":
    os.chdir(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
    main()
