"""Per-layer measurements for the traced run (``--trace 1``).

Spans are taken here, around calls into each layer of the program; nothing
inside the program is instrumented. Layers are the repo's modules:

- kernel    (trie, interpreter, mentions, npindex): timed in-process on the
            workload's distinct turns, distinct link keys and corpus rows,
            plus the input shares a memo or prefilter claim must cite;
- stages    (interpret, fused, idf, link, triples): the stage objects
            replayed in-process on the workload's 1,024-row batches;
- pipelines (the Ray plans in pipelines/kg.py): operator rows of a traced
            streaming job from ``ds.stats()``, plus a direct call of
            ``build_sharded_index_refs``;
- state     (StageRunner checkpoints): stage rows of a checkpointed job from
            its returned ``metrics``, a no-op resume and a partial rerun.

Each operator row is that operator's total remote CPU seconds, and
``pipelines.unattributed_s`` is the job's wall time minus their sum: actor
start-up, scheduling, work in this process and idle time. The rows plus the
rest add up to the job's wall time by construction. CPU seconds of tasks that ran in
parallel on different cores would be counted in full, so the rest is a lower
bound on the fixed costs. With one fused actor the plan is nearly serial.
"""

from __future__ import annotations

import gc
import os
import pickle
import re
import time
from collections import Counter

import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq

from session import reset_dir

CHECKPOINT_STAGES = ("doc_vectors", "idf", "mentions", "links", "triples")

PER_LAYER = (
    "kernel.find_mentions_us_per_turn", "kernel.find_similar_us_per_query",
    "kernel.interpret_us_per_addr", "kernel.dup_turn_frac",
    "kernel.link_key_reuse_frac", "kernel.mentions_per_turn",
    "kernel.prefilter_pass_frac", "kernel.docs_per_link_query",
    "stages.region_state_s", "stages.fused_init_s", "stages.corpus_interpret_s",
    "stages.idf_s", "stages.index_build_s", "stages.index_payload_mb",
    "stages.fused_turns_per_cpu_s", "stages.finalize_rows_per_s",
    "pipelines.read_s", "pipelines.fused_op_s", "pipelines.fused_task_max_s",
    "pipelines.shuffle_s", "pipelines.finalize_write_s",
    "pipelines.sharded_index_build_s", "pipelines.unattributed_s",
    "pipelines.job_s", "pipelines.trace_overhead_s",
    *(f"state.{s}_s" for s in CHECKPOINT_STAGES),
    "state.unattributed_s", "state.job_s", "state.resume_noop_s",
    "state.resume_rerun_stages",
)


def unit_of(name: str) -> str:
    if "_us_per_" in name:
        return "us"
    if name.endswith("_frac"):
        return "frac"
    if name.endswith("_mb"):
        return "MiB"
    if name.endswith("_per_s") or name.endswith("_per_cpu_s"):
        return "1/s"
    if name.endswith("_s"):
        return "s"
    return "count"


class _Span:
    """``with _Span(out, name):`` stores the block's duration on ``clock``."""

    def __init__(self, out: dict, name: str, clock=time.perf_counter):
        self.out, self.name, self.clock = out, name, clock

    def __enter__(self):
        self.t0 = self.clock()
        return self

    def __exit__(self, *exc):
        self.out[self.name] = self.clock() - self.t0


def _unfreeze_gc() -> None:
    # the program's stage constructors freeze and disable the collector for
    # their actor's lifetime; this process keeps running afterwards
    gc.unfreeze()
    gc.enable()


def kernel_and_stages(data_dir: str, region_path: str, work_dir: str) -> tuple[dict, dict]:
    """In-process replay; returns (metrics, artifacts reused by later layers)."""
    from address_semantic_search_ray.kernel.interpreter import Interpreter
    from address_semantic_search_ray.kernel.mentions import district_key, find_mentions
    from address_semantic_search_ray.kernel.npindex import NpCorpusIndex
    from address_semantic_search_ray.stages.fused import (
        MentionLinkTriplesStage, finalize_route_group)
    from address_semantic_search_ray.stages.idf import driver_idf
    from address_semantic_search_ray.stages.interpret import (
        CorpusInterpretStage, region_state_bytes)

    m: dict = {}
    t: dict = {}
    addresses = pq.read_table(os.path.join(data_dir, "addresses.parquet"),
                              columns=["addr_id", "text"])
    transcripts = pq.read_table(os.path.join(data_dir, "transcripts.parquet"),
                                columns=["conv_id", "turn_idx", "role", "text"])

    # stages.region_state_s: trie build + pickle on an empty cache
    cache = os.path.join(work_dir, "trie_cache_cold")
    reset_dir(cache)
    saved = os.environ.get("ASR_TRIE_CACHE")
    os.environ["ASR_TRIE_CACHE"] = cache
    try:
        with _Span(t, "region_state"):
            region_bytes = region_state_bytes(region_path)
    finally:
        os.environ["ASR_TRIE_CACHE"] = saved if saved is not None else cache
    m["stages.region_state_s"] = t["region_state"]

    regions, trie = pickle.loads(region_bytes)
    interp = Interpreter(regions, trie=trie)

    texts = addresses.column("text").to_pylist()
    with _Span(t, "interpret"):
        for text in texts:
            interp.interpret(text)
    m["kernel.interpret_us_per_addr"] = t["interpret"] / len(texts) * 1e6

    with _Span(t, "corpus_interpret"):
        corpus = CorpusInterpretStage(region_bytes)(addresses)
    _unfreeze_gc()
    m["stages.corpus_interpret_s"] = t["corpus_interpret"]
    with _Span(t, "idf"):
        idf_tbl = driver_idf(corpus)
    m["stages.idf_s"] = t["idf"]
    with _Span(t, "index_build"):
        payload = NpCorpusIndex.from_tables(
            corpus.drop_columns(["term_keys"]), idf_tbl).to_payload()
    m["stages.index_build_s"] = t["index_build"]
    m["stages.index_payload_mb"] = sum(
        v.nbytes for v in payload.values() if hasattr(v, "nbytes")) / 2**20
    index = NpCorpusIndex.from_payload(payload)

    # input shares, measured where the fused stage's memos and prefilter act
    turn_texts = [x for x in transcripts.column("text").to_pylist() if x]
    multiplicity = Counter(turn_texts)
    keys_per_text = {}
    with _Span(t, "find_mentions"):
        for text in multiplicity:
            keys_per_text[text] = [
                (district_key(mm.addr), mm.addr.town.name if mm.addr.town else "",
                 mm.addr.village.name if mm.addr.village else "",
                 mm.addr.road, mm.addr.road_num, mm.addr.text)
                for mm in find_mentions(text, interp)]
    m["kernel.find_mentions_us_per_turn"] = t["find_mentions"] / len(multiplicity) * 1e6
    all_keys = [k for text, n in multiplicity.items() for k in keys_per_text[text] * n]
    distinct_keys = list(dict.fromkeys(all_keys))
    with _Span(t, "find_similar"):
        for k in distinct_keys:
            index.find_similar(*k, top_n=1)
    m["kernel.find_similar_us_per_query"] = (
        t["find_similar"] / max(len(distinct_keys), 1) * 1e6)
    docs_per_district = Counter(corpus.column("district_key").to_pylist())
    m["kernel.dup_turn_frac"] = 1 - len(multiplicity) / len(turn_texts)
    m["kernel.link_key_reuse_frac"] = 1 - len(distinct_keys) / max(len(all_keys), 1)
    m["kernel.mentions_per_turn"] = len(all_keys) / transcripts.num_rows
    m["kernel.docs_per_link_query"] = (
        sum(docs_per_district.get(k[0], 0) for k in distinct_keys)
        / max(len(distinct_keys), 1))

    # fused stage: actor construction, then the job's 1,024-row batches
    with _Span(t, "fused_init"):
        stage = MentionLinkTriplesStage(region_bytes, payload, 1)
    _unfreeze_gc()
    m["stages.fused_init_s"] = t["fused_init"]
    # the stage's own arrow-side prefilter: turns it passes to the row loop
    passed = pc.sum(pc.match_substring_regex(
        transcripts.column("text"), stage._prefilter)).as_py() or 0
    m["kernel.prefilter_pass_frac"] = passed / transcripts.num_rows
    outs = []
    with _Span(t, "fused_cpu", clock=time.process_time):
        for start in range(0, transcripts.num_rows, 1024):
            outs.append(stage(transcripts.slice(start, 1024)))
    m["stages.fused_turns_per_cpu_s"] = transcripts.num_rows / t["fused_cpu"]
    del stage
    gc.collect()

    routed = pa.concat_tables(outs).sort_by("route")
    routes = routed.column("route").to_numpy()
    bounds = [0] + [i for i in range(1, len(routes)) if routes[i] != routes[i - 1]] + [len(routes)]
    groups = [routed.slice(a, b - a) for a, b in zip(bounds, bounds[1:])]
    with _Span(t, "finalize"):
        for g in groups:
            finalize_route_group(g)
    m["stages.finalize_rows_per_s"] = routed.num_rows / t["finalize"]
    return m, {"corpus": corpus}


_TIME = re.compile(r"([\d.]+)(us|ms|s)\b")
_UNIT = {"us": 1e-6, "ms": 1e-3, "s": 1.0}


def _seconds(field: str) -> float:
    v, unit = _TIME.match(field.strip()).groups()
    return float(v) * _UNIT[unit]


def parse_stats(stats: str) -> dict:
    """Operator rows of ``ds.stats()``: {operator name: {cpu_s, wall_max_s}},
    suboperators (the Sort's map/reduce) folded into their operator."""
    rows: dict = {}
    name = None
    for line in stats.splitlines():
        head = re.match(r"^Operator \d+ (.*?):", line)
        if head:
            name = head.group(1)
            rows[name] = {"cpu_s": 0.0, "wall_max_s": 0.0}
        elif not line.startswith(("\t", "*")) and line.strip():
            name = None  # a trailing "Dataset throughput" section
        elif name and "Remote cpu time:" in line:
            rows[name]["cpu_s"] += _seconds(line.split(",")[-1])
        elif name and "Remote wall time:" in line:
            fields = line.split(":", 1)[1].split(",")
            rows[name]["wall_max_s"] = max(rows[name]["wall_max_s"], _seconds(fields[1]))
    return rows


def pipeline_rows(stats: str, wall_s: float) -> dict:
    """The five ``pipelines.*`` operator metrics and the unattributed rest."""
    rows = parse_stats(stats)
    groups = {"read": ("ReadParquet",), "fused_op": ("MentionLinkTriplesStage",),
              "shuffle": ("Sort", "Aggregate", "Repartition"),
              "finalize_write": ("finalize_route_group", "Write")}
    m = {f"pipelines.{g}_s": 0.0 for g in groups}
    m["pipelines.fused_task_max_s"] = 0.0
    for name, row in rows.items():
        for g, needles in groups.items():
            if any(n in name for n in needles):
                m[f"pipelines.{g}_s"] += row["cpu_s"]
                if g == "fused_op":
                    m["pipelines.fused_task_max_s"] = max(
                        m["pipelines.fused_task_max_s"], row["wall_max_s"])
                break
    m["pipelines.job_s"] = wall_s
    m["pipelines.unattributed_s"] = wall_s - sum(m[f"pipelines.{g}_s"] for g in groups)
    return m


def sharded_index_build_s(corpus: pa.Table) -> float:
    """``build_sharded_index_refs`` on the interpreted corpus, already in the
    object store, until every bucket payload exists."""
    import ray
    import ray.data as rd

    from address_semantic_search_ray.pipelines.kg import build_sharded_index_refs

    n_blocks = 8
    step = -(-corpus.num_rows // n_blocks)
    ds = rd.from_arrow([corpus.slice(i, step) for i in range(0, corpus.num_rows, step)])
    ds = ds.materialize()
    t0 = time.perf_counter()
    refs = build_sharded_index_refs(ds)
    ray.wait(list(refs.values()), num_returns=len(refs), fetch_local=False)
    return time.perf_counter() - t0


def state_rows(result: dict, wall_s: float) -> dict:
    by_stage = {r["stage"]: r.get("wall_sec", 0.0) for r in result["metrics"]}
    m = {f"state.{s}_s": float(by_stage[s]) for s in CHECKPOINT_STAGES}
    m["state.job_s"] = wall_s
    m["state.unattributed_s"] = wall_s - sum(m[f"state.{s}_s"] for s in CHECKPOINT_STAGES)
    return m


def rerun_stages(result: dict) -> list[str]:
    return [r["stage"] for r in result["metrics"] if not r["skipped"]]
