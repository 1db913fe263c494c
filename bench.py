"""Benchmark harness: headline KG pipeline + per-operator timings.

- ``python bench.py`` — run at $GRAFT_SF_DIR (default /root/testdata/sf0.1)
  with ``ray.init(num_cpus=$RAY_GRAFT_CPUS or 32)``; its last stdout line is
  ONE compact JSON object (under 1 KB, so a log tail keeps it whole):
  ``{"metric": ..., "value": seconds, "unit": "sec", "sf": ...,
  "num_cpus": N, "turns_per_sec": ..., "queries_sum_sec": ...,
  "scaling_efficiency": {"8_32": ..., ...}, "sidecar": path}``. The
  per-query timings and the scaling samples go to the sidecar JSON file
  (``bench_queries.json`` next to this script).
- ``python bench.py --scaling`` — runs the headline pipeline twice in fresh
  processes (num_cpus=8 then 32) on the same pre-generated input and reports
  both throughputs + scaling efficiency (sandbox stand-in for N vs 4N nodes).
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import time

REPO = os.path.dirname(os.path.abspath(__file__))
SIDECAR = os.path.join(REPO, "bench_queries.json")
SF_DIR = os.environ.get("GRAFT_SF_DIR", "/root/testdata/sf0.1")
NUM_CPUS = int(os.environ.get("RAY_GRAFT_CPUS", "32"))

# operators timed alongside the headline pipeline (each returns a Dataset)
BENCH_QUERIES = (
    "pricing_summary", "topk_orders", "topk_per_group", "customer_nation_join",
    "orders_priority_semijoin",
    "asof_join_events_orders", "range_join_events_orders",
    "events_hourly", "events_hopping",
    "events_sessionize", "dedup_exact", "dedup_wordset_jaccard",
    "dedup_ngram_jaccard", "dedup_minhash_lsh", "dedup_simhash",
    "dedup_clusters", "dedup_filter", "dedup_common_spans",
    "events_topk_hourly",
    "events_distinct_users_hourly", "events_zscore_hourly", "events_funnel",
    "events_approx_users_hll", "events_heavy_users_cms",
    "events_unseen_users_bloom", "events_user_paths", "events_cdc_compact",
    "orders_rollup",
    "orders_shipping_priority", "nation_market_share",
    "local_supplier_volume", "supplier_revenue_top", "events_running_total",
    "events_value_p95_hourly", "docs_bigram_lm",
    "token_quantiles", "split_assign",
    "decontaminate", "stratified_sample", "docs_pack_sequences", "docs_tfidf",
    "docs_postings", "text_normalize",
    "docs_weighted_sample", "docs_c4_filter", "docs_vocab_growth",
    "text_token_count", "text_quality",
    "text_lang_id", "text_scrub_pii", "text_repetition", "docs_top_terms",
    "events_retention",
    "lang_stats", "similarity_topk", "similarity_topk_lsh",
    "similarity_topk_ivf", "similarity_topk_pq", "knn_graph",
    "embedding_near_dup", "embedding_near_dup_lsh", "embedding_kmeans",
    "multimodal_image_meta", "multimodal_wav_decode", "multimodal_ppm_decode",
    "multimodal_ppm_resize",
    "kg_links_explain", "kg_region_degree", "kg_part_of_closure",
    "kg_located_at_rollup",
    "kg_entity_cooccurrence", "kg_conv_first_mentions",
    "kg_cooccur_triangles", "kg_region_pagerank", "kg_community_lpa",
    "kg_link_prediction",
)


def _consume(res) -> int:
    import pandas as pd
    import pyarrow as pa

    import ray.data

    if isinstance(res, ray.data.Dataset):
        n = 0
        for b in res.iter_batches(batch_size=65536, batch_format="pyarrow"):
            n += b.num_rows
        return n
    if isinstance(res, (pa.Table, pd.DataFrame)):
        return len(res)
    return 0


def run_bench() -> dict:
    os.chdir(REPO)
    import ray

    if not ray.is_initialized():
        ray.init(address="local", num_cpus=NUM_CPUS, include_dashboard=False,
                 ignore_reinit_error=True, logging_level="ERROR")
    from ray.data import DataContext

    ctx = DataContext.get_current()
    ctx.enable_progress_bars = False

    from address_semantic_search_ray.data.synth import ensure_dataset, scale_for_sf
    from address_semantic_search_ray.pipelines import queries as q
    from address_semantic_search_ray.pipelines.kg import run_kg_pipeline, run_kg_streaming

    sf = float(os.path.basename(SF_DIR.rstrip("/"))[2:]) if "sf" in os.path.basename(SF_DIR.rstrip("/")) else 0.1
    mult = float(os.environ.get("ASR_BENCH_TURNS_MULT", "10"))
    data_dir = ensure_dataset(sf, root="/tmp/asr_synth", multiplier=mult)
    _, base_turns = scale_for_sf(sf)
    n_turns = int(base_turns * mult)

    # warm the page cache with one untimed read
    import pyarrow.parquet as pq

    pq.read_table(os.path.join(data_dir, "transcripts.parquet"))

    # stage-actor pool size: the round-3 sweep measured the node saturating
    # at ~20 fused-stage actors (28 actors 36.2 s vs 20 actors 35.9 s vs 12
    # actors 50.2 s) — beyond ~20 the single socket's memory bus is the
    # binding resource, and the freed CPUs serve the read/shuffle tail.
    # ASR_BENCH_ACTORS overrides for sweeps.
    conc = int(os.environ.get("ASR_BENCH_ACTORS", "0")) \
        or max(2, min(NUM_CPUS - 2, 20))

    # headline: broadcast-index streaming KG pipeline (the corpus is the small
    # side; one pass over the transcript stream, no mid-pipeline disk)
    work = f"/tmp/asr_bench_work/sf{sf:g}_cpu{NUM_CPUS}"
    shutil.rmtree(work, ignore_errors=True)
    t0 = time.time()
    run_kg_streaming(data_dir, os.path.join(work, "stream"), concurrency=conc, batch_size=1024)
    kg_sec = time.time() - t0

    headline_only = os.environ.get("ASR_BENCH_HEADLINE_ONLY") == "1"

    timings = {"kg_pipeline_streaming": round(kg_sec, 3)}
    if not headline_only:
        # the checkpointed/partitioned mode, timed at base scale for comparison
        base_dir = ensure_dataset(sf, root="/tmp/asr_synth")
        t0 = time.time()
        run_kg_pipeline(base_dir, os.path.join(work, "ckpt"), concurrency=conc,
                        batch_size=1024, resume=False)
        timings["kg_pipeline_checkpointed_base_scale"] = round(time.time() - t0, 3)
    for name in (() if headline_only else BENCH_QUERIES):
        fn = getattr(q, name)
        t0 = time.time()
        _consume(fn(SF_DIR))
        timings[name] = round(time.time() - t0, 3)

    result = {
        "metric": "kg_pipeline_sec",
        "value": round(kg_sec, 3),
        "unit": "sec",
        "sf": sf,
        "num_cpus": NUM_CPUS,
        "n_turns": n_turns,
        "turns_per_sec": round(n_turns / kg_sec, 1),
    }
    ray.shutdown()
    if headline_only:
        return result
    scaling = {}
    if os.environ.get("ASR_BENCH_SKIP_SCALING") != "1":
        # the scaling measurement is part of the default bench output so the
        # per-round BENCH json always carries it
        scaling["8_32"] = _scaling_pair(8, 32)
        # supplementary doubling BELOW the single-socket saturation point
        # (~16-20 workers, BASELINE.md): on a real N->4N-node cluster every
        # doubling adds memory buses with the cores, so this pair — not the
        # bus-saturated 16->32 one — is the regime a cluster doubling lives in
        scaling["8_16"] = _scaling_pair(8, 16, runs=1)
        # second sub-saturation doubling (round-4 verdict #6): 4->8 sits
        # even further below the ~16-20-worker bus knee, giving BASELINE.md
        # two clean doublings before saturation next to the primary pair
        scaling["4_8"] = _scaling_pair(4, 8, runs=1)
    with open(SIDECAR, "w") as f:
        json.dump({"queries": timings, "scaling": scaling}, f, indent=1)
    result.update({
        "checkpointed_base_scale_sec": timings["kg_pipeline_checkpointed_base_scale"],
        "queries_n": len(BENCH_QUERIES),
        "queries_sum_sec": round(sum(timings[n] for n in BENCH_QUERIES), 3),
        "scaling_efficiency": {k: v["scaling_efficiency"] for k, v in scaling.items()},
        "sidecar": SIDECAR,
    })
    return result


def _run_headline_subprocess(ncpu: int) -> dict:
    env = dict(os.environ, RAY_GRAFT_CPUS=str(ncpu), ASR_BENCH_HEADLINE_ONLY="1")
    out = subprocess.run([sys.executable, os.path.join(REPO, "bench.py")],
                         env=env, capture_output=True, text=True, check=True,
                         cwd=REPO).stdout
    return json.loads(out.strip().splitlines()[-1])


def _scaling_pair(lo_cpus: int, hi_cpus: int, runs: int | None = None) -> dict:
    """Same job, same input, two fresh ray.init sizes (the sandbox stand-in
    for N vs 4N nodes). Machine-level interference here arrives in multi-
    minute phases with +-20-50% wall-time swings, so the two sizes are run
    as INTERLEAVED (lo, hi) pairs — each pair lands in roughly one noise
    phase, making its ratio fair — and the reported efficiency is the MEDIAN
    of the per-pair ratios. All samples are reported."""
    if runs is None:
        runs = int(os.environ.get("ASR_BENCH_SCALING_RUNS", "2"))
    lo_s, hi_s, effs = [], [], []
    for _ in range(runs):
        lo = _run_headline_subprocess(lo_cpus)["value"]
        hi = _run_headline_subprocess(hi_cpus)["value"]
        lo_s.append(lo)
        hi_s.append(hi)
        effs.append((lo / hi) / (hi_cpus / lo_cpus))
    import statistics

    median_eff = statistics.median(effs)
    t_lo, t_hi = min(lo_s), min(hi_s)
    n_turns = _run_headline_n_turns()
    return {
        "cpus": [lo_cpus, hi_cpus],
        "sec": [t_lo, t_hi],
        "sec_samples": [lo_s, hi_s],
        "pair_efficiencies": [round(e, 3) for e in effs],
        "turns_per_sec": [round(n_turns / t_lo, 1), round(n_turns / t_hi, 1)],
        "scaling_efficiency": round(median_eff, 3),
    }


def _run_headline_n_turns() -> int:
    sf = float(os.path.basename(SF_DIR.rstrip("/"))[2:]) \
        if "sf" in os.path.basename(SF_DIR.rstrip("/")) else 0.1
    mult = float(os.environ.get("ASR_BENCH_TURNS_MULT", "10"))
    return int(max(2_000, int(2_000_000 * sf)) * mult)


def run_scaling() -> dict:
    # pre-generate the dataset so both runs measure compute, not generation
    sf = float(os.path.basename(SF_DIR.rstrip("/"))[2:]) if "sf" in os.path.basename(SF_DIR.rstrip("/")) else 0.1
    sys.path.insert(0, REPO)
    from address_semantic_search_ray.data.synth import ensure_dataset

    mult = float(os.environ.get("ASR_BENCH_TURNS_MULT", "10"))
    ensure_dataset(sf, root="/tmp/asr_synth", multiplier=mult)
    ensure_dataset(sf, root="/tmp/asr_synth")

    pair = _scaling_pair(8, 32)
    result = {
        "metric": "scaling_efficiency",
        "sec_8": pair["sec"][0],
        "sec_32": pair["sec"][1],
        "turns_per_sec_8": pair["turns_per_sec"][0],
        "turns_per_sec_32": pair["turns_per_sec"][1],
        "scaling_efficiency": pair["scaling_efficiency"],
        # the sub-saturation doubling (below the ~16-20-worker memory-bus
        # knee, BASELINE.md) — the regime an N->4N NODE scale-up lives in
        "scaling_8_16": _scaling_pair(8, 16, runs=1)["scaling_efficiency"],
        "sf": sf,
    }
    # NOTE: a 2-CPU lower anchor is not measurable — a 2-actor pool reserves
    # every CPU and Ray's read tasks starve (see BASELINE.md); the
    # low-contention evidence is the no-Ray multiprocessing measurement there.
    return result


if __name__ == "__main__":
    if "--scaling" in sys.argv:
        print(json.dumps(run_scaling()))
    else:
        print(json.dumps(run_bench()))
