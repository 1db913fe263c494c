"""Entity-linking stage: score mentions against their district's doc vectors.

Layout: doc-vector and idf checkpoints are hive-partitioned by
``bucket = crc32(district_key) % n_buckets`` (not by raw district — 3k+ tiny
directories cost more in file-system and read-task overhead than they save;
a bucket is the pruning unit, a district the lookup unit inside it).

Execution: mentions are SORTED by district_key (the only shuffle) and scored
by an actor pool; each actor keeps an LRU of loaded buckets, so consecutive
batches — district-clustered after the sort — hit the cache. Worst-case
bucket loads = actors x buckets, vs. groups x 2 parquet opens for the naive
per-district ``map_groups`` (measured 3-5x slower at sf0.1).

Skew: a hot district spans many batches but loads its bucket once per actor;
batch size bounds per-task memory regardless of key skew. This mirrors the
reference's per-district ``.vt`` cache with ``cacheVectorsInMemory``
(SimilarityComputer.java:83, 558-617) as a bounded per-actor cache.
"""

from __future__ import annotations

import glob
import os
from collections import OrderedDict

import pyarrow as pa
import pyarrow.parquet as pq

from ..kernel.npindex import NpCorpusIndex
from .fused import FUSED_SCHEMA

DEFAULT_N_BUCKETS = 64


def bucket_of(district_key: str, n_buckets: int = DEFAULT_N_BUCKETS) -> int:
    from ..kernel.npindex import district_bucket

    return district_bucket(district_key, n_buckets)


def _read_dir(root: str, bucket: int, columns=None) -> pa.Table | None:
    files = glob.glob(os.path.join(root, f"bucket={bucket}", "*.parquet"))
    if not files:
        return None
    return pa.concat_tables([pq.read_table(f, columns=columns) for f in files])


def load_bucket_index(doc_dir: str, idf_dir: str, bucket: int) -> NpCorpusIndex | None:
    """bucket -> flat numpy similarity index over the bucket's districts
    (same vectorized scoring kernel as the broadcast mode — bit-identical
    to the sequential kernel, so both pipeline modes emit equal triples)."""
    docs_tbl = _read_dir(doc_dir, bucket,
                         columns=["addr_id", "district_key", "town", "village",
                                  "road", "road_num", "residual"])
    if docs_tbl is None:
        return None
    idf_tbl = _read_dir(idf_dir, bucket, columns=["district_key", "term_key", "idf"])
    if idf_tbl is None:
        idf_tbl = pa.table({"district_key": pa.array([], pa.string()),
                            "term_key": pa.array([], pa.string()),
                            "idf": pa.array([], pa.float64())})
    return NpCorpusIndex.from_tables(docs_tbl, idf_tbl)


class LinkerActor:
    """Actor-pool scorer with an LRU of loaded buckets: mention rows -> link
    rows (``FUSED_SCHEMA``, the streaming stage's link-row schema, so both
    modes route and finalize them with the same code)."""

    def __init__(self, doc_dir: str, idf_dir: str, top_n: int = 1,
                 n_buckets: int = DEFAULT_N_BUCKETS, cache_buckets: int = 16):
        self.doc_dir = doc_dir
        self.idf_dir = idf_dir
        self.top_n = top_n
        self.n_buckets = n_buckets
        self.cache_buckets = cache_buckets
        self._cache: OrderedDict[int, NpCorpusIndex | None] = OrderedDict()
        import gc

        gc.collect()
        gc.freeze()
        gc.disable()  # see _RegionStateMixin._freeze_state (+ _maybe_gc)
        self._gc_tick = 0
        # result memo: repeated query shapes (same fields, same district) are
        # common in conversational data; deterministic, bounded
        self._results: dict[tuple, tuple] = {}

    _GC_EVERY = 512  # see _RegionStateMixin._maybe_gc

    def _maybe_gc(self):
        self._gc_tick += 1
        if self._gc_tick >= self._GC_EVERY:
            self._gc_tick = 0
            import gc

            gc.collect()

    def _bucket_index(self, bucket: int) -> dict:
        if bucket in self._cache:
            self._cache.move_to_end(bucket)
            return self._cache[bucket]
        idx = load_bucket_index(self.doc_dir, self.idf_dir, bucket)
        self._cache[bucket] = idx
        if len(self._cache) > self.cache_buckets:
            self._cache.popitem(last=False)
        return idx

    def __call__(self, batch: pa.Table) -> pa.Table:
        self._maybe_gc()
        linked_out, score_out = [], []
        for key, town, village, road, road_num, residual in zip(
            batch.column("district_key").to_pylist(),
            batch.column("town").to_pylist(),
            batch.column("village").to_pylist(),
            batch.column("road").to_pylist(),
            batch.column("road_num").to_pylist(),
            batch.column("residual").to_pylist(),
        ):
            memo_key = (key, town, village, road, road_num, residual)
            hit = self._results.get(memo_key)
            if hit is not None:
                linked, score = hit
            else:
                idx = self._bucket_index(bucket_of(key, self.n_buckets))
                top = idx.find_similar(key, town, village, road, road_num,
                                       residual, top_n=self.top_n) \
                    if idx is not None else []
                linked, score = (top[0][0], top[0][1]) if top else (-1, 0.0)
                if len(self._results) > 500_000:
                    self._results.clear()
                self._results[memo_key] = (linked, score)
            linked_out.append(linked)
            score_out.append(score)
        # every other link-row column passes through from the mention row
        scored = {"linked_addr": pa.array(linked_out, pa.int64()),
                  "score": pa.array(score_out, pa.float64())}
        return pa.Table.from_arrays(
            [scored[f.name] if f.name in scored else batch.column(f.name).cast(f.type)
             for f in FUSED_SCHEMA],
            schema=FUSED_SCHEMA,
        )
