"""Entity-linking stage: score mentions against their district's doc vectors.

Layout: doc-vector and idf checkpoints are hive-partitioned by
``bucket = district_bucket(district_key)`` (``kernel/npindex.py``; not by
raw district — 3k+ tiny directories cost more in file-system and read-task
overhead than they save; a bucket is the pruning unit, a district the
lookup unit inside it).

Execution: mentions are SORTED by district_key (the only shuffle), split
into blocks in order and scored by a task pool, one ``LinkStage`` per block
(``stages/interpret.py:per_block``). A stage keeps an LRU of loaded buckets,
so consecutive slices — district-clustered after the sort — hit the cache.
Worst-case bucket loads = blocks x buckets each block touches, vs. groups x
2 parquet opens for the naive per-district ``map_groups`` (measured 3-5x
slower at sf0.1).

Skew: a hot district spans many blocks, which the pool spreads over its
slots; slice size bounds per-call memory regardless of key skew. This
mirrors the reference's per-district ``.vt`` cache with
``cacheVectorsInMemory`` (SimilarityComputer.java:83, 558-617) as a bounded
per-block cache.

``LinkMemo`` is the one link memo of every linking entry point (this
stage, the fused streaming stage, the regression and explain linkers):
results keyed by ``query_key`` (kernel/mentions.py), bounded by
``LINK_MEMO_MAX``.
"""

from __future__ import annotations

import glob
import os
from collections import OrderedDict

import pyarrow as pa
import pyarrow.parquet as pq

from ..kernel.mentions import QUERY_COLUMNS
from ..kernel.npindex import NpCorpusIndex, district_bucket
from .fused import FUSED_SCHEMA

# entries a link memo holds before it starts over
LINK_MEMO_MAX = 500_000


class LinkMemo:
    """``query_key`` -> ``rank(query)``, computed once per distinct query.

    Link queries repeat heavily on conversational streams (the same
    structured address in many turns, ~57% of keys on a dense stream) and a
    result depends on the query alone, so every linker probes this memo
    first. Bounded: at ``LINK_MEMO_MAX`` entries it is cleared, which only
    costs recomputation — results never depend on the memo's contents."""

    def __init__(self, rank):
        self._rank = rank
        self._memo: dict = {}

    def __call__(self, query: tuple):
        hit = self._memo.get(query)
        if hit is None:
            hit = self._rank(query)
            if len(self._memo) >= LINK_MEMO_MAX:
                self._memo.clear()
            self._memo[query] = hit
        return hit


def top1_link_memo(find_similar, top_n: int = 1) -> LinkMemo:
    """Memoized top-1 link: query -> (linked_addr, score); linked_addr -1
    and score 0 when the query's district has no scoring document."""
    def rank(query):
        top = find_similar(*query, top_n=top_n)
        return (top[0][0], top[0][1]) if top else (-1, 0.0)

    return LinkMemo(rank)


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


def query_rows(batch: pa.Table):
    """The link queries of a batch of stored mention rows (``QUERY_COLUMNS``)."""
    return zip(*(batch.column(c).to_pylist() for c in QUERY_COLUMNS))


class LinkStage:
    """Scorer with an LRU of loaded buckets: mention rows -> link rows
    (``FUSED_SCHEMA``, the streaming stage's link-row schema, so both modes
    route and finalize them with the same code). It loads nothing up front."""

    CACHE_BUCKETS = 16  # loaded bucket indexes kept per stage

    def __init__(self, doc_dir: str, idf_dir: str, top_n: int = 1):
        self.doc_dir = doc_dir
        self.idf_dir = idf_dir
        self._cache: OrderedDict[int, NpCorpusIndex | None] = OrderedDict()
        self._link = top1_link_memo(self._find_similar, top_n)

    def _find_similar(self, key, *fields, top_n):
        idx = self._bucket_index(district_bucket(key))
        return idx.find_similar(key, *fields, top_n=top_n) if idx is not None else []

    def _bucket_index(self, bucket: int) -> dict:
        if bucket in self._cache:
            self._cache.move_to_end(bucket)
            return self._cache[bucket]
        idx = load_bucket_index(self.doc_dir, self.idf_dir, bucket)
        self._cache[bucket] = idx
        if len(self._cache) > self.CACHE_BUCKETS:
            self._cache.popitem(last=False)
        return idx

    def __call__(self, batch: pa.Table) -> pa.Table:
        linked_out, score_out = [], []
        for query in query_rows(batch):
            linked, score = self._link(query)
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
