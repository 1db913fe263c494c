"""Simulate the driver's correctness gate locally.

Runs every ``queries()`` entry at the given sf, converts to pandas, runs the
matching ``oracle_sql()`` in DuckDB with the test tables registered as views,
and compares row-count + schema + order-insensitive values (like the driver).
The oracle SQL reads the sf0.01 artifact dirs pinned in ``__ray_entry__``
(``SF001_*``); the simulator points it at the given sf's own dirs, so every
scale is checked against its own naive twins and KG checkpoints.

Usage: python tools/driver_sim.py [sf_dir] [query ...]
"""

from __future__ import annotations

import os
import re
import sys
import time

import duckdb
import pandas as pd

TABLES = ("region", "nation", "customer", "supplier", "part", "orders",
          "lineitem", "events", "documents", "embeddings")


def normalize(df: pd.DataFrame) -> pd.DataFrame:
    df = df[sorted(df.columns)].copy()
    for c in df.columns:
        if pd.api.types.is_float_dtype(df[c]):
            df[c] = df[c].round(6)
        if pd.api.types.is_integer_dtype(df[c]):
            df[c] = df[c].astype("int64")
    return df.sort_values(list(df.columns), kind="stable").reset_index(drop=True)


def oracle_sql_at(entry_mod, sf_dir: str) -> dict[str, str]:
    """``oracle_sql()`` with its pinned sf0.01 dirs moved to ``sf_dir``'s scale."""
    from address_semantic_search_ray.data.synth import dataset_dir
    from address_semantic_search_ray.pipelines import naive, queries

    sf = queries._sf_of(sf_dir)
    moves = {
        entry_mod.SF001_ORACLE: naive.oracle_dir(sf),
        entry_mod.SF001_WORK: os.path.join(queries.WORK_ROOT, f"sf{sf:g}"),
        entry_mod.SF001_SYNTH: dataset_dir(sf, queries.SYNTH_ROOT),
    }
    # one pass, longest path first: the oracle dir lies inside the work dir
    pinned = re.compile("|".join(map(re.escape, sorted(moves, key=len, reverse=True))))
    return {name: pinned.sub(lambda m: moves[m.group(0)], sql)
            for name, sql in entry_mod.oracle_sql().items()}


def to_pandas(res) -> pd.DataFrame:
    import pyarrow as pa
    import ray.data

    if isinstance(res, ray.data.Dataset):
        return res.to_pandas()
    if isinstance(res, pa.Table):
        return res.to_pandas()
    return res


def main():
    sf_dir = sys.argv[1] if len(sys.argv) > 1 else "/root/testdata/sf0.01"
    only = set(sys.argv[2:])

    import ray

    if not ray.is_initialized():
        ray.init(address="local", num_cpus=8, include_dashboard=False, logging_level="ERROR")
    from ray.data import DataContext

    DataContext.get_current().enable_progress_bars = False

    import __ray_entry__ as entry_mod

    con = duckdb.connect()
    for t in TABLES:
        con.execute(f"CREATE VIEW {t} AS SELECT * FROM read_parquet('{sf_dir}/{t}.parquet')")

    qs = entry_mod.queries()
    oracles = oracle_sql_at(entry_mod, sf_dir)
    n_pass = n_fail = 0
    for name, fn in qs.items():
        if only and name not in only:
            continue
        t0 = time.time()
        try:
            ray_df = to_pandas(fn(sf_dir))
        except Exception as e:
            print(f"FAIL {name}: query raised {type(e).__name__}: {e}")
            n_fail += 1
            continue
        wall = time.time() - t0
        if name not in oracles:
            print(f"ok   {name}: rows={len(ray_df)} ({wall:.1f}s) [rows-only]")
            n_pass += 1
            continue
        try:
            oracle_df = con.sql(oracles[name]).df()
        except Exception as e:
            print(f"FAIL {name}: oracle raised {type(e).__name__}: {e}")
            n_fail += 1
            continue
        a, b = normalize(ray_df), normalize(oracle_df)
        if list(a.columns) != list(b.columns):
            print(f"FAIL {name}: columns {list(a.columns)} vs {list(b.columns)}")
            n_fail += 1
            continue
        if len(a) != len(b):
            print(f"FAIL {name}: rows {len(a)} vs {len(b)}")
            n_fail += 1
            continue
        if not a.equals(b):
            neq = (a != b).any(axis=1)
            print(f"FAIL {name}: {int(neq.sum())}/{len(a)} rows differ; first:")
            print(pd.concat([a[neq].head(2), b[neq].head(2)]))
            n_fail += 1
            continue
        print(f"PASS {name}: rows={len(a)} ({wall:.1f}s)")
        n_pass += 1
    print(f"\n{n_pass} pass, {n_fail} fail")
    ray.shutdown()
    return 1 if n_fail else 0


if __name__ == "__main__":
    raise SystemExit(main())
