"""Bucketed co-group: the one keyed shuffle behind the folds of
``pipelines/queries.py``.

``cogroup(sides, key, fold)`` routes every row to ``hash(key) % N`` and
calls ``fold`` once per bucket. A key never spans buckets, so a fold that
groups by ``key`` inside its bucket sees all of that key's rows, and the
output does not depend on N. Ray pays its per-group ``map_groups`` cost
(~5-15 ms) once per bucket, not once per distinct key. The KG triples
shuffle (stages/fused.py) routes with the same ``bucket_of`` and sizes its
bucket space with the same ``group_count``.

The helper owns the whole decision:

- **hash**: integer keys by value (``% N``), string keys by crc32 (never
  builtin ``hash``, which differs across workers), a list of key columns
  combined into one;
- **count**: ``group_count(row_bound)``, computed when the plan is built
  from a row bound the caller reads off parquet footers
  (``footer_rows``): the bound over ``GROUP_ROWS_BUDGET / 2``, clamped
  between ``GROUPS_PER_CPU`` groups per cluster CPU (the whole count when
  no bound is known, as in ``cogroup``) and ``MAX_GROUPS``. Each group
  costs a fixed few ms, so the count follows the input instead of paying
  for empty buckets, and a 10x input keeps every group under the budget.
  ``N_COGROUP_BUCKETS`` is the one test hook: set, it forces every count;
- **plan**: the sides are tagged (``_side`` = position) and unioned, then
  one ``groupby("_b").map_groups(fold)``. Tagging makes every shuffled
  block metadata-free Arrow, so a side may emit DataFrames; a fold may
  return a DataFrame too, which becomes a metadata-free Arrow block.
"""

from __future__ import annotations

import functools
import glob
import math
import os
import zlib

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

# test hook: an int forces every bucket count (the output is
# count-independent); None sizes each count from its input
N_COGROUP_BUCKETS: int | None = None
# rows one group may hold: a group is one pandas fold in one task
# (``finalize_route_group`` over 195k routed rows raised peak RSS by
# 120 MB); counts aim at half of it, the slack for hash skew
GROUP_ROWS_BUDGET = 100_000
GROUPS_PER_CPU = 4
MAX_GROUPS = 1 << 13
BUCKET = "_b"
SIDE = "_side"


def to_arrow(df: pd.DataFrame) -> pa.Table:
    """pandas -> metadata-free Arrow block. Stages that feed a plain
    ``groupby`` / ``aggregate`` must emit ARROW blocks: Ray 2.49's
    sort-shuffle takes a per-row python path on pandas blocks (~12x slower
    — measured 6.7 s vs 0.56 s aggregating the same 14.7k partial rows).
    ``cogroup`` tags its sides in Arrow, so they need not."""
    return pa.Table.from_pandas(df, preserve_index=False) \
        .replace_schema_metadata(None)


def footer_rows(path: str) -> int:
    """Row count of a parquet file or directory from its footers alone
    (no Dataset, no data read)."""
    import pyarrow.parquet as pq

    files = sorted(glob.glob(os.path.join(path, "**", "*.parquet"),
                             recursive=True)) if os.path.isdir(path) else [path]
    return sum(pq.read_metadata(f).num_rows for f in files)


def _cluster_cpus() -> int:
    import ray

    if ray.is_initialized():
        return max(1, int(ray.cluster_resources().get("CPU", 1)))
    return os.cpu_count() or 1


def group_count(row_bound: int = 0) -> int:
    """Bucket count of a keyed fold over ~``row_bound`` rows (see the
    module docstring); ``N_COGROUP_BUCKETS`` overrides it."""
    if N_COGROUP_BUCKETS is not None:
        return N_COGROUP_BUCKETS
    want = math.ceil(row_bound / (GROUP_ROWS_BUDGET // 2))
    return min(MAX_GROUPS, max(GROUPS_PER_CPU * _cluster_cpus(), want))


def _column_hash(col: pa.ChunkedArray) -> np.ndarray:
    if pa.types.is_integer(col.type):
        return pc.fill_null(col, 0).to_numpy().astype(np.uint64)
    if pa.types.is_null(col.type):  # pandas types an empty str column null
        return np.zeros(len(col), dtype=np.uint64)
    if pa.types.is_string(col.type) or pa.types.is_large_string(col.type):
        # crc once per distinct value of the batch, then gather
        enc = pc.dictionary_encode(pc.fill_null(col, "").combine_chunks())
        crc = np.fromiter((zlib.crc32(v.encode())
                           for v in enc.dictionary.to_pylist()),
                          dtype=np.uint64, count=len(enc.dictionary))
        return crc[enc.indices.to_numpy(zero_copy_only=False)]
    raise TypeError(f"cogroup key of type {col.type}: use an int or string")


def bucket_of(t: pa.Table, key, n: int) -> np.ndarray:
    """int64 bucket in [0, n) of every row of ``t`` by ``key`` (a column
    name or a list of them)."""
    keys = [key] if isinstance(key, str) else list(key)
    h = _column_hash(t.column(keys[0]))
    for k in keys[1:]:
        h = h * np.uint64(1_000_003) + _column_hash(t.column(k))
    return (h % np.uint64(n)).astype(np.int64)


def _tag(t: pa.Table, key, n: int, side) -> pa.Table:
    # a side that emitted DataFrames arrives with pandas schema metadata
    t = t.replace_schema_metadata(None)
    if side is not None:
        t = t.append_column(SIDE, pa.array(np.full(t.num_rows, side,
                                                   dtype=np.int64)))
    return t.append_column(BUCKET, pa.array(bucket_of(t, key, n), pa.int64()))


def cogroup(sides, key, fold):
    """Co-group ``sides`` (one Dataset, or a list of Datasets sharing one
    schema) by ``key`` and apply ``fold(group: pd.DataFrame)`` per bucket.

    A side may emit DataFrames or Arrow tables. With several sides each
    row carries its side's position in ``_side``; a fold tells the sides
    apart by it. Every group also carries the ``_b`` column. ``fold``
    returns a DataFrame or an Arrow table."""
    n = group_count()
    if not isinstance(sides, (list, tuple)):
        sides = [sides]
    tagged = [ds.map_batches(_tag, batch_format="pyarrow",
                             fn_kwargs={"key": key, "n": n,
                                        "side": i if len(sides) > 1 else None})
              for i, ds in enumerate(sides)]
    both = tagged[0].union(*tagged[1:]) if len(tagged) > 1 else tagged[0]

    @functools.wraps(fold)
    def run(group: pd.DataFrame) -> pa.Table:
        out = fold(group)
        return out if isinstance(out, pa.Table) else to_arrow(out)

    return both.groupby(BUCKET).map_groups(run, batch_format="pandas")
