"""The flagship Ray-Data KG-construction pipeline (SURVEY.md §3 target lifecycle).

Two modes, byte-identical triples:

``run_kg_pipeline`` (checkpointed/partitioned — the 100 TB-corpus path):
    read_parquet(addresses)   -> map_batches(CorpusInterpretStage)
                              -> doc_vectors/ (hive: bucket=crc32(district)%64)
    doc_vectors               -> partial df combine -> groupby((district,term)).sum
                              -> idf finalize -> idf/ (bucketed)
    read_parquet(transcripts) -> map_batches(MentionStage) -> mentions/
    mentions                  -> sort(district_key) -> map_batches(LinkStage,
                                 per-block bucket LRU)  -> links/
    links                     -> map_batches(route_link_batch)
                              -> groupby(route).map_groups(finalize_route_group)
                                 [K3 + D4]      -> triples/ Parquet
                                 (route count: group_count(rows of links/))

``run_kg_streaming`` (broadcast-index — when the corpus index fits in worker
memory, the common case against a 10^12-turn transcript table): the corpus
index is a zero-copy numpy index in plasma (kernel/npindex.py — ONE copy
per node, not per task) built by ``build_index_ref``; then ONE fused
streaming job with no mid-pipeline disk:
    read_parquet(transcripts) -> map_batches(MentionLinkTriplesStage)
                              -> groupby(route).map_groups(finalize_route_group)
                              -> triples/ Parquet
                                 (route count: group_count(transcript rows))
An index estimated above ``BROADCAST_INDEX_MAX_BYTES`` falls back to the
checkpointed mode.

Every stateful stage of both modes is a task pool of at most
``concurrency`` tasks, one call per read block (``stages/interpret.py:
per_block``): the call builds the stage for its block with gc paused and
drops it at the block's end, so a job starts no process of its own, holds
no CPU after it returns, and a pooled worker keeps no state. A region-state
stage reads ``stream_read_blocks(rows, concurrency)`` blocks, so a small
input pays one region load per task slot.

``build_index_ref`` is the one index-build router of every linking entry
point (this mode, ``extras.regression_accuracy``, ``extras.links_explain``):
up to ``SMALL_INDEX_OVERLAP_MAX_BYTES`` one overlapped single-task build,
above it a distributed interpret + per-bucket sharded build
(``build_sharded_index_refs``).

Both modes turn link rows into triples through the same code
(stages/fused.py): ``route_link_rows`` puts mentions (by conv) and part_of
edges (by child, parent) into one bucket space, whose size
``cogroup.group_count`` takes from a row bound read off parquet footers
(the transcripts when streaming, ``links/`` when checkpointed);
``finalize_route_group`` dedups and formats one bucket of either kind.
Every linker keys its queries with ``query_key`` (kernel/mentions.py) and
memoizes them in ``LinkMemo`` (stages/link.py).

Shuffle keys: (district_key, term_key) for IDF, district_key for linking,
conv_id (and the part_of pair, in the same bucket space) for
canonicalization — ONE partitioning key reused per concern.
Every checkpointed stage boundary is resumable (state/checkpoint.py); stage
fingerprints include the code version, so a resume after a code change
reruns every stage.

Must NOT call ray.init(): the driver/bench owns the session.
"""

from __future__ import annotations

import os

import ray
import ray.data as rd

from ..kernel.npindex import N_DISTRICT_BUCKETS
from ..stages.cogroup import footer_rows, group_count
from ..stages.fused import (
    MentionLinkTriplesStage, finalize_route_group, route_link_batch,
)
from ..stages.idf import build_idf
from ..stages.interpret import (
    CorpusInterpretStage, MentionStage, paused_gc, per_block, put_region_table,
)
from ..stages.link import LinkStage
from ..state.checkpoint import StageRunner, code_salt, fingerprint_paths
from .oracle import default_region_dict_path


def run_kg_pipeline(
    data_dir: str,
    work_dir: str,
    region_dict_path: str | None = None,
    *,
    top_n: int = 1,
    concurrency: int = 4,
    batch_size: int = 2048,
    link_batch_size: int = 256,
    resume: bool = True,
) -> dict:
    """Run the full pipeline; returns {"triples": path, "metrics": [...]}."""
    region_dict_path = region_dict_path or default_region_dict_path()
    addresses_path = os.path.join(data_dir, "addresses.parquet")
    transcripts_path = os.path.join(data_dir, "transcripts.parquet")

    runner = StageRunner(work_dir, resume=resume)
    region_ref = None

    def get_region_ref():
        nonlocal region_ref
        if region_ref is None:
            region_ref = put_region_table(region_dict_path)
        return region_ref

    params = {"top_n": top_n, "code": code_salt()}

    # -- stage 1: corpus doc vectors ---------------------------------------
    fp_corpus = fingerprint_paths(addresses_path, region_dict_path, extra=params)

    def write_corpus(tmp):
        ds = _per_block_read(addresses_path, ["addr_id", "text"], concurrency)
        ds = ds.map_batches(
            per_block(CorpusInterpretStage, get_region_ref(),
                      batch_size=batch_size),
            batch_format="pyarrow", batch_size=None, concurrency=concurrency,
        )
        # sort by bucket so each hive dir gets ~1 file instead of 1 per block
        ds.sort("bucket").write_parquet(tmp, partition_cols=["bucket"])

    doc_dir = runner.run("doc_vectors", fp_corpus, write_corpus)

    # -- stage 2: distributed IDF ------------------------------------------
    fp_idf = fingerprint_paths(doc_dir, extra=params)

    def write_idf(tmp):
        corpus_ds = rd.read_parquet(doc_dir, columns=["district_key", "term_keys"])
        idf_ds = build_idf(corpus_ds)
        idf_ds.sort("bucket").write_parquet(tmp, partition_cols=["bucket"])

    idf_dir = runner.run("idf", fp_idf, write_idf)

    # -- stage 3: mention detection ----------------------------------------
    fp_mentions = fingerprint_paths(transcripts_path, region_dict_path, extra=params)

    def write_mentions(tmp):
        ds = _per_block_read(transcripts_path,
                             ["conv_id", "turn_idx", "role", "text"], concurrency)
        ds = ds.map_batches(
            per_block(MentionStage, get_region_ref(), batch_size=batch_size),
            batch_format="pyarrow", batch_size=None, concurrency=concurrency,
        )
        ds.write_parquet(tmp)

    mentions_dir = runner.run("mentions", fp_mentions, write_mentions)

    # -- stage 4: co-partitioned linking -----------------------------------
    fp_links = fingerprint_paths(mentions_dir, doc_dir, idf_dir, extra=params)

    def write_links(tmp):
        # sort (the one shuffle) clusters districts so each block's bucket
        # LRU hits. Many blocks are the skew lever: a hot district (one key
        # can be >40% of all mention x doc pair-work) is sliced into many
        # blocks that the task pool spreads — same effect as salting,
        # without a second shuffle, because the corpus side is read per
        # bucket. A LinkStage loads nothing up front, so a block costs little.
        ds = rd.read_parquet(mentions_dir).sort("district_key")
        # order-preserving block split: one link call per block
        ds = ds.repartition(concurrency * 12)
        out = ds.map_batches(
            per_block(LinkStage, doc_dir, idf_dir, top_n,
                      batch_size=link_batch_size),
            batch_format="pyarrow", batch_size=None, concurrency=concurrency,
        )
        out.write_parquet(tmp)

    links_dir = runner.run("links", fp_links, write_links)

    # -- stage 5: triples + canonicalization -------------------------------
    # the same routing + finalize as the streaming mode (stages/fused.py)
    fp_triples = fingerprint_paths(links_dir, extra=params)

    def write_triples(tmp):
        (
            rd.read_parquet(links_dir)
            .map_batches(route_link_batch, batch_format="pyarrow",
                         fn_kwargs={"n": group_count(footer_rows(links_dir))})
            .groupby("route")
            .map_groups(finalize_route_group, batch_format="pyarrow")
            .write_parquet(tmp)
        )

    triples_dir = runner.run("triples", fp_triples, write_triples)

    metrics_path = runner.flush_metrics()
    return {"triples": triples_dir, "mentions": mentions_dir, "doc_vectors": doc_dir,
            "idf": idf_dir, "links": links_dir, "metrics": runner.metrics,
            "metrics_path": metrics_path}


# Mode thresholds are byte budgets, not row counts (round-2 verdict #7):
# the flat index measures ~4.0x the corpus text's uncompressed bytes + ~70 B
# per row (calibrated at sf0.01/sf0.1, both within 1%). The single-task
# overlapped build is bounded by what one worker can interpret while the
# fused tasks start (~15 MB of index == ~40k rows); the sharded broadcast
# build is bounded by what fits in a node's object store alongside blocks
# in flight — beyond that the checkpointed pipeline (bucket LRU, disk-backed)
# is the only honest mode.
SMALL_INDEX_OVERLAP_MAX_BYTES = 16 << 20
BROADCAST_INDEX_MAX_BYTES = 4 << 30
# read blocks per task slot of a region-state stage: enough tasks for the
# pool to load-balance, few enough that per-task overhead stays small
STREAM_BLOCKS_PER_SLOT = 6
# rows one read block should hold before the pool gets more blocks than
# task slots: each block is one stage task (with one stage-state load, and
# memos that span only that block) and, downstream, one sort map and reduce
# task, one finalize task and one output file, so a small input pays those
# once per slot instead of STREAM_BLOCKS_PER_SLOT times
STREAM_BLOCK_ROWS = 16_384


def stream_read_blocks(rows: int, concurrency: int) -> int:
    """Read blocks of a region-state stage over ~``rows`` rows: one per
    ``STREAM_BLOCK_ROWS``, at least one per task slot, at most
    ``STREAM_BLOCKS_PER_SLOT`` per slot."""
    return min(concurrency * STREAM_BLOCKS_PER_SLOT,
               max(concurrency, -(-rows // STREAM_BLOCK_ROWS)))


def _per_block_read(path: str, columns: list[str], concurrency: int,
                    rows: int | None = None):
    """``path`` read in ``stream_read_blocks`` blocks, one stage build each;
    ``rows`` is its row count when the caller already holds it."""
    if rows is None:
        rows = footer_rows(path)
    return rd.read_parquet(path, columns=columns,
                           override_num_blocks=stream_read_blocks(rows, concurrency))


def estimate_index_bytes(addresses_path: str) -> int:
    """Predicted broadcast-index size from parquet footers only (no data
    read): 4.5 x uncompressed text bytes + 64 B/row (measured 4.0x / 37 B,
    with margin)."""
    import glob

    import pyarrow.parquet as pq

    files = sorted(glob.glob(os.path.join(addresses_path, "*.parquet"))) \
        if os.path.isdir(addresses_path) else [addresses_path]
    rows = 0
    text_bytes = 0
    for f in files:
        md = pq.read_metadata(f)
        rows += md.num_rows
        for rg in range(md.num_row_groups):
            g = md.row_group(rg)
            for c in range(g.num_columns):
                col = g.column(c)
                if col.path_in_schema == "text":
                    text_bytes += col.total_uncompressed_size
    return int(text_bytes * 4.5) + rows * 64


def _index_cache_path(addresses_path: str, region_digest: str) -> str | None:
    """Disk-cache location for a built corpus-index payload, keyed by the
    address file stats + the package's ``code_salt`` (same recipe as the
    trie cache in ``stages/interpret.py``). The reference persists its
    interpreted doc vectors exactly this way — per-district `.vt` files
    written once and loaded by the query path
    (``SimilarityComputer.java:631-688`` cache folder) — so a steady-state
    run never re-interprets the corpus.
    Security posture matches ``region_state_bytes``: per-user 0700 dir,
    ownership verified before unpickling (the key is derivable, so a shared
    world-writable dir would allow pickle planting)."""
    import glob
    import hashlib
    import tempfile

    files = sorted(glob.glob(os.path.join(addresses_path, "*.parquet"))) \
        if os.path.isdir(addresses_path) else [addresses_path]
    if not files:
        return None
    parts = []
    for f in files:
        st = os.stat(f)
        parts.append(f"{os.path.abspath(f)}:{st.st_size}:{st.st_mtime_ns}")
    parts.append(code_salt())
    # the index payload depends on the REGION DICT too (interpretation runs
    # through the region trie): a different dict over the same addresses
    # must never hit a stale cache entry (ADVICE r4)
    parts.append(region_digest)
    key = hashlib.blake2b("|".join(parts).encode(), digest_size=10).hexdigest()
    uid = os.getuid() if hasattr(os, "getuid") else 0
    cache_dir = os.environ.get(
        "ASR_INDEX_CACHE",
        os.path.join(tempfile.gettempdir(), f"asr_index_cache-{uid}"))
    return os.path.join(cache_dir, f"npindex-{key}.pkl")


def _owned_by_me(path: str) -> bool:
    st_p = os.stat(path)
    return not hasattr(os, "getuid") or st_p.st_uid == os.getuid()


def _build_small_corpus_index_impl(addresses_path: str, region_ref):
    """One-task corpus index build — the exact same per-row code path as the
    distributed CorpusInterpretStage (same interpreter, caps, idf math), so
    both paths produce identical indexes; file order matches the Ray read
    (sorted paths).

    The finished payload is disk-cached per corpus + code version (see
    ``_index_cache_path``): at 100 TB the corpus index is built once and
    read by every job over the transcript stream, exactly like the
    reference's persisted `.vt` doc-vector cache — rebuilding ~10 s of
    serial interpret per run would be a fixed cost every cluster size pays.
    Set ``ASR_INDEX_CACHE=off`` to disable."""
    import pickle
    import tempfile

    import pyarrow.parquet as pq

    from ..kernel.npindex import NpCorpusIndex
    from ..stages.idf import driver_idf

    import hashlib as _hl

    # region_ref arrives as the pickled region-state BYTES here (Ray deref'd
    # the ObjectRef; mp_twin passes the bytes directly) — its digest is the
    # region-dict identity for the cache key
    region_digest = _hl.blake2b(region_ref, digest_size=10).hexdigest() \
        if isinstance(region_ref, (bytes, bytearray)) else repr(region_ref)
    cache_path = None if os.environ.get("ASR_INDEX_CACHE") == "off" \
        else _index_cache_path(addresses_path, region_digest)
    if cache_path is not None:
        try:
            if _owned_by_me(os.path.dirname(cache_path)) \
                    and _owned_by_me(cache_path):
                with open(cache_path, "rb") as f, paused_gc():
                    return pickle.loads(f.read())
        except OSError:
            pass

    with paused_gc():
        stage = CorpusInterpretStage(region_ref)
        tbl = pq.read_table(addresses_path, columns=["addr_id", "text"])
        corpus_tbl = stage(tbl)
        del stage
        idf_tbl = driver_idf(corpus_tbl)
        payload = NpCorpusIndex.from_tables(
            corpus_tbl.drop_columns(["term_keys"]), idf_tbl).to_payload()
    if cache_path is not None:
        try:
            cache_dir = os.path.dirname(cache_path)
            os.makedirs(cache_dir, mode=0o700, exist_ok=True)
            fd, tmp = tempfile.mkstemp(dir=cache_dir)
            with os.fdopen(fd, "wb") as f:
                f.write(pickle.dumps(payload, protocol=5))
            os.replace(tmp, cache_path)
        except OSError:
            pass  # best-effort
    return payload


_build_small_corpus_index = ray.remote(_build_small_corpus_index_impl)


def _split_corpus_block_impl(tbl, n_buckets: int):
    """Map side of the index-build exchange: one interpreted corpus block ->
    one table per bucket (vectorized filter on the precomputed bucket
    column). ``num_returns=n_buckets`` so each reduce task fetches ONLY its
    bucket's slices — a real all-to-all, no driver hop, no over-fetch."""
    import pyarrow.compute as pc

    bucket_col = tbl.column("bucket")
    return tuple(tbl.filter(pc.equal(bucket_col, b)) for b in range(n_buckets))


def _build_bucket_payload_impl(*parts):
    """Reduce side: concat this bucket's slices (block order == the global
    interpreted row order, so per-district doc order matches a single-task
    build), finalize the bucket's per-district IDF, build the flat index.
    The returned payload dict of numpy arrays lands in plasma; every
    consumer's ``ray.get`` maps it zero-copy."""
    import pyarrow as pa

    from ..kernel.npindex import NpCorpusIndex
    from ..stages.idf import driver_idf

    tables = [p for p in parts if p.num_rows > 0]
    if not tables:
        return None
    tbl = pa.concat_tables(tables)
    idf_tbl = driver_idf(tbl)
    docs_tbl = tbl.drop_columns(["term_keys", "bucket"])
    return NpCorpusIndex.from_tables(docs_tbl, idf_tbl).to_payload()


_split_corpus_block = ray.remote(_split_corpus_block_impl)
_build_bucket_payload = ray.remote(_build_bucket_payload_impl)


def build_sharded_index_refs(corpus_ds) -> dict:
    """Distributed broadcast-index build: interpreted corpus Dataset ->
    {bucket: ObjectRef(payload)}. The corpus NEVER passes through the
    driver (round-2 verdict fix #2): blocks stay in plasma; split tasks
    partition them by district bucket with ``num_returns`` so build tasks
    fetch only their own slices; each bucket's index builds in parallel."""
    refs = corpus_ds.to_arrow_refs()
    split = _split_corpus_block.options(num_returns=N_DISTRICT_BUCKETS)
    parts = [split.remote(r, N_DISTRICT_BUCKETS) for r in refs]
    return {
        b: _build_bucket_payload.remote(*[parts[i][b] for i in range(len(parts))])
        for b in range(N_DISTRICT_BUCKETS)
    }


def build_index_ref(addresses_path: str, region_ref, concurrency: int,
                    batch_size: int = 2048):
    """The broadcast corpus index of every linking entry point (the
    streaming KG mode, the regression and explain linkers), routed by the
    index's estimated size; ``resolve_index`` (stages/fused.py) accepts
    either shape. Per-bucket IDF equals the per-district IDF the kg_idf
    oracle checks (districts never span buckets).

    Small corpus: ONE Ray task builds the whole index and its ObjectRef is
    returned at once, so the caller hands it to its stage while the corpus
    interprets — the fused tasks unpickle their trie and the transcript read
    starts instead of paying corpus-build + ramp back to back (~5 s of fixed
    latency at every cluster size). Big corpus: distributed interpret
    -> per-bucket sharded build (``build_sharded_index_refs``); the corpus
    never funnels through the driver."""
    if estimate_index_bytes(addresses_path) <= SMALL_INDEX_OVERLAP_MAX_BYTES:
        return _build_small_corpus_index.remote(addresses_path, region_ref)
    corpus_ds = (
        _per_block_read(addresses_path, ["addr_id", "text"], concurrency)
        .map_batches(
            per_block(CorpusInterpretStage, region_ref, batch_size=batch_size),
            batch_format="pyarrow", batch_size=None, concurrency=concurrency,
        )
        .materialize()  # one execution; a bare to_arrow_refs schema-peeks
        # the plan and runs the whole read+interpret a second time
    )
    return build_sharded_index_refs(corpus_ds)


def run_kg_streaming(
    data_dir: str,
    out_dir: str,
    region_dict_path: str | None = None,
    *,
    top_n: int = 1,
    concurrency: int = 4,
    batch_size: int = 2048,
) -> dict:
    """Broadcast-index mode: ONE streaming pass over the transcripts.

    The corpus index (doc vectors + idf) is ``ray.put`` and joined map-side
    inside a fused mention+link task stage (at most ``concurrency`` tasks
    at once, one per read block, ``batch_size``-row slices inside it) — no
    sort, no co-partition shuffle, no mid-pipeline disk. Use when the corpus index
    fits in worker memory (the common case: the corpus is tiny next to a
    10^12-turn transcript table); ``run_kg_pipeline`` is the
    checkpointed/partitioned path for when it does not. Both modes emit
    identical triples.
    """
    region_dict_path = region_dict_path or default_region_dict_path()
    addresses_path = os.path.join(data_dir, "addresses.parquet")
    transcripts_path = os.path.join(data_dir, "transcripts.parquet")

    region_ref = put_region_table(region_dict_path)

    # corpus index in plasma, zero-copy views in every task — never
    # replicated per process (``build_index_ref``); an index too big to
    # broadcast routes to the checkpointed pipeline instead
    if estimate_index_bytes(addresses_path) > BROADCAST_INDEX_MAX_BYTES:
        # the index would not fit in worker memory as a broadcast — route to
        # the checkpointed/partitioned pipeline (bucket LRU over hive
        # partitions); it emits byte-identical triples
        result = run_kg_pipeline(
            data_dir, os.path.join(out_dir, "work"),
            region_dict_path=region_dict_path, top_n=top_n,
            concurrency=concurrency, batch_size=batch_size,
        )
        result["mode"] = "checkpointed-fallback"
        return result
    index_ref = build_index_ref(addresses_path, region_ref, concurrency, batch_size)

    n_turns = footer_rows(transcripts_path)
    triples_ds = (
        _per_block_read(transcripts_path, ["conv_id", "turn_idx", "role", "text"],
                        concurrency, rows=n_turns)
        .map_batches(
            per_block(MentionLinkTriplesStage, region_ref, index_ref, top_n,
                      group_count(n_turns),
                      batch_size=batch_size),
            batch_format="pyarrow", batch_size=None, concurrency=concurrency,
        )
        .groupby("route")
        .map_groups(finalize_route_group, batch_format="pyarrow")
    )
    # ONE streaming job end-to-end: fused mention+link+emit, a single routed
    # groupby whose groups each hold whole conversations and whole part_of
    # edges (per-conv canonicalization and global edge dedup), then the
    # write. No mid-pipeline materialization.
    os.makedirs(out_dir, exist_ok=True)
    triples_dir = os.path.join(out_dir, "triples")
    import shutil

    shutil.rmtree(triples_dir, ignore_errors=True)
    triples_ds.write_parquet(triples_dir)
    result = {"triples": triples_dir}
    if os.environ.get("ASR_STREAM_STATS") == "1":
        # per-stage wall/cpu/row audit of the executed plan (BASELINE.md)
        result["stats"] = triples_ds.stats()
    return result
