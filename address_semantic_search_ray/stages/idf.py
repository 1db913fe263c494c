"""Distributed IDF build (the north rule's groupby-aggregate).

A1 (``SimilarityComputer.statInverseDocRefers``, java:166-187): document
frequency per (district_key, term_key). Pre-aggregated INSIDE ``map_batches``
(one partial-count row per key per batch) before the hash-shuffle groupby, so
the all-to-all exchange moves partials, not raw term occurrences.

A2 (idf finalize, java:580-599): ``idf = ln(n_docs/(df+1))`` clamped >=0,
numeric/ASCII keys forced to 2. Per-district doc counts are a tiny aggregate
(one row per district) — collected to the driver and broadcast into the
finalize ``map_batches`` via ``ray.put``.
"""

from __future__ import annotations

import math
from collections import Counter

import pyarrow as pa


def _ln_elementwise(ratios) -> "np.ndarray":
    """Elementwise ``math.log`` (libm) over a float64 array, 0.0 for
    non-positive inputs.

    NOT ``np.log``: numpy's SIMD log differs from libm's in the last ulp
    (np.log(3.0)=...96 vs math.log(3.0)=...98), and the sequential kernel
    (``kernel/similarity.py:compute_idf``), the naive oracles and the Java
    reference (Math.log) all use libm. One ulp here flipped a top-N tie in
    the explain path; every idf producer must be bit-identical."""
    import numpy as np

    log = math.log
    return np.array([log(v) if v > 0.0 else 0.0 for v in ratios.tolist()],
                    dtype=np.float64)


def partial_df_counts(batch: pa.Table) -> pa.Table:
    """Per-batch combiner: explode term_keys and count (district, key) pairs."""
    counts: Counter = Counter()
    doc_counts: Counter = Counter()
    keys_col = batch.column("term_keys").to_pylist()
    dist_col = batch.column("district_key").to_pylist()
    for dist, keys in zip(dist_col, keys_col):
        doc_counts[dist] += 1
        for k in keys:
            counts[(dist, k)] += 1
    # doc-count partials ride along as term_key="" rows (no real term key is
    # empty — analyse() never emits empty-text terms)
    rows_d, rows_k, rows_c = [], [], []
    for (dist, key), c in counts.items():
        rows_d.append(dist)
        rows_k.append(key)
        rows_c.append(c)
    for dist, c in doc_counts.items():
        rows_d.append(dist)
        rows_k.append("")
        rows_c.append(c)
    return pa.table({
        "district_key": pa.array(rows_d, pa.string()),
        "term_key": pa.array(rows_k, pa.string()),
        "df": pa.array(rows_c, pa.int64()),
    })


def driver_idf(corpus_tbl: pa.Table) -> pa.Table:
    """(district_key, term_key, idf) computed driver-side from an in-memory
    corpus doc table (columns district_key, term_keys).

    For the broadcast-index streaming mode the corpus is the SMALL side by
    definition, and a Ray groupby job costs ~3-4 s of fixed latency at every
    cluster size; this computes the identical values (same libm-log / clamp /
    forced-2.0 ops as ``build_idf``'s finalize — bit-equal floats) in one
    in-process pass. The big-corpus checkpointed path keeps ``build_idf``."""
    import numpy as np
    import pyarrow.compute as pc

    counts: Counter = Counter()
    doc_counts: Counter = Counter()
    for dist, keys in zip(corpus_tbl.column("district_key").to_pylist(),
                          corpus_tbl.column("term_keys").to_pylist()):
        doc_counts[dist] += 1
        for k in keys:
            counts[(dist, k)] += 1
    dists, keys, dfs = [], [], []
    for (d, k), c in counts.items():
        dists.append(d)
        keys.append(k)
        dfs.append(c)
    dfs_arr = np.asarray(dfs, dtype=np.float64)
    n_docs = np.asarray([doc_counts[d] for d in dists], dtype=np.float64)
    idf = _ln_elementwise(n_docs / (dfs_arr + 1.0))
    idf = np.maximum(idf, 0.0)
    keys_arr = pa.array(keys, pa.string())
    forced = pc.match_substring_regex(keys_arr, r"^([0-9]+|[A-Za-z]+)$").to_numpy(
        zero_copy_only=False)
    idf[forced] = 2.0
    return pa.table({
        "district_key": pa.array(dists, pa.string()),
        "term_key": keys_arr,
        "idf": pa.array(idf, pa.float64()),
    })


def build_idf(corpus_ds, doc_counts_out: dict | None = None):
    """corpus doc rows -> idf Dataset (district_key, term_key, idf).

    The shuffle key is (district_key, term_key); partials are combined by a
    hash aggregate. Returns the idf dataset; if ``doc_counts_out`` is given it
    is filled with {district_key: n_docs} (driver-side, tiny).
    """
    import numpy as np
    import pyarrow.compute as pc
    import ray
    from ray.data.aggregate import Sum

    partials = corpus_ds.map_batches(partial_df_counts, batch_format="pyarrow")
    # ONE shuffle; the aggregated (district, term) table is orders of magnitude
    # smaller than the corpus — pin it so doc-count extraction and finalize
    # don't re-execute the aggregation
    df = partials.groupby(["district_key", "term_key"]) \
        .aggregate(Sum("df", alias_name="df")).materialize()

    def split_docs(batch: pa.Table) -> pa.Table:
        return batch.filter(pc.equal(batch.column("term_key"), ""))

    doc_counts_tbl = df.map_batches(split_docs, batch_format="pyarrow").to_pandas()
    doc_counts = dict(zip(doc_counts_tbl["district_key"], doc_counts_tbl["df"]))
    if doc_counts_out is not None:
        doc_counts_out.update(doc_counts)
    counts_ref = ray.put(doc_counts)

    def finalize(batch: pa.Table) -> pa.Table:
        # vectorized idf = ln(n_docs/(df+1)) clamped, numeric/ASCII keys -> 2
        batch = batch.filter(pc.not_equal(batch.column("term_key"), ""))
        counts = ray.get(counts_ref)
        dists = batch.column("district_key").to_pylist()
        keys = batch.column("term_key")
        dfs = batch.column("df").to_numpy(zero_copy_only=False).astype(np.float64)
        n_docs = np.array([counts.get(d, 0) for d in dists], dtype=np.float64)
        idf = _ln_elementwise(n_docs / (dfs + 1.0))
        idf = np.maximum(idf, 0.0)
        forced = pc.match_substring_regex(keys, r"^([0-9]+|[A-Za-z]+)$").to_numpy(
            zero_copy_only=False)
        idf[forced] = 2.0
        from ..kernel.npindex import district_bucket

        buckets = [district_bucket(d) for d in dists]
        return pa.table({
            "bucket": pa.array(buckets, pa.int32()),
            "district_key": batch.column("district_key"),
            "term_key": keys,
            "idf": pa.array(idf, pa.float64()),
        })

    return df.map_batches(finalize, batch_format="pyarrow")
