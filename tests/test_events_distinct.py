"""events_distinct_users_hourly: the bucketed exact-distinct aggregate vs a
single-process pandas naive twin, plus the disjoint-partials invariant the
scale shape relies on (each user_id lands in exactly one bucket)."""

from __future__ import annotations

import pandas as pd
import pyarrow.parquet as pq

SF_DIR = "/root/testdata/sf0.001"


def _naive(sf_dir: str) -> set:
    df = pq.read_table(
        sf_dir + "/events.parquet",
        columns=["event_type", "ts", "user_id"]).to_pandas()
    hour = df["ts"].dt.floor("h").dt.strftime("%Y-%m-%d %H:00:00")
    agg = (df.assign(hour=hour)
           .groupby(["event_type", "hour"])["user_id"].nunique())
    return {(et, h, int(n)) for (et, h), n in agg.items()}


def test_distinct_users_hourly_matches_naive(ray_session):
    from address_semantic_search_ray.pipelines.queries import (
        events_distinct_users_hourly)

    got = events_distinct_users_hourly(SF_DIR).to_pandas()
    got_set = set(zip(got["event_type"], got["hour"],
                      got["n_users"].astype(int)))
    assert got_set == _naive(SF_DIR)


def test_distinct_users_hourly_bucket_independence(ray_session, monkeypatch):
    # the disjoint-partials argument: results identical at any bucket count
    from address_semantic_search_ray.pipelines.queries import (
        events_distinct_users_hourly)
    from address_semantic_search_ray.stages import cogroup

    monkeypatch.setattr(cogroup, "N_COGROUP_BUCKETS", 1)
    a = events_distinct_users_hourly(SF_DIR).to_pandas()
    monkeypatch.setattr(cogroup, "N_COGROUP_BUCKETS", 7)
    b = events_distinct_users_hourly(SF_DIR).to_pandas()
    key = ["event_type", "hour"]
    pd.testing.assert_frame_equal(
        a.sort_values(key).reset_index(drop=True)[key + ["n_users"]],
        b.sort_values(key).reset_index(drop=True)[key + ["n_users"]])


def test_retention_matches_naive(ray_session):
    from address_semantic_search_ray.pipelines.queries import events_retention

    df = pq.read_table(SF_DIR + "/events.parquet",
                       columns=["user_id", "ts"]).to_pandas()
    df["day"] = df["ts"].dt.strftime("%Y-%m-%d")
    ud = df[["user_id", "day"]].drop_duplicates()
    cohort = ud.groupby("user_id")["day"].transform("min")
    want = (ud.assign(cohort_day=cohort)
            .groupby(["cohort_day", "day"]).size())
    want_set = {(c, d, int(n)) for (c, d), n in want.items()}

    got = events_retention(SF_DIR).to_pandas()
    got_set = set(zip(got["cohort_day"], got["day"],
                      got["n_users"].astype(int)))
    assert got_set == want_set


def test_retention_bucket_independence(ray_session, monkeypatch):
    from address_semantic_search_ray.pipelines.queries import events_retention
    from address_semantic_search_ray.stages import cogroup

    key = ["cohort_day", "day"]
    monkeypatch.setattr(cogroup, "N_COGROUP_BUCKETS", 1)
    a = (events_retention(SF_DIR).to_pandas()
         .sort_values(key).reset_index(drop=True)[key + ["n_users"]])
    monkeypatch.setattr(cogroup, "N_COGROUP_BUCKETS", 5)
    b = (events_retention(SF_DIR).to_pandas()
         .sort_values(key).reset_index(drop=True)[key + ["n_users"]])
    pd.testing.assert_frame_equal(a, b)


def test_zscore_excludes_degenerate_types(ray_session, tmp_path):
    # one type with a single hour (std undefined) and one with constant
    # hourly counts (std == 0) are excluded; a varying type gets z-scores
    import numpy as np
    import pyarrow as pa

    ts = pd.to_datetime(
        ["2024-01-01 00:10", "2024-01-01 00:20",            # 'single': 1 hour
         "2024-01-01 00:05", "2024-01-01 01:05",            # 'flat': 1 per hour
         "2024-01-01 00:01", "2024-01-01 00:02",            # 'vary': 2 then 1
         "2024-01-01 01:03"]).astype("datetime64[us]")
    types = ["single", "single", "flat", "flat", "vary", "vary", "vary"]
    tbl = pa.table({
        "event_id": pa.array(range(7), pa.int64()),
        "ts": pa.array(ts),
        "user_id": pa.array([1] * 7, pa.int64()),
        "event_type": pa.array(types),
        "value": pa.array([0.0] * 7, pa.float64()),
        "props": pa.array([""] * 7),
    })
    pq.write_table(tbl, str(tmp_path / "events.parquet"))

    from address_semantic_search_ray.pipelines.queries import events_zscore_hourly

    got = events_zscore_hourly(str(tmp_path)).to_pandas()
    assert set(got["event_type"]) == {"vary"}
    g = got.sort_values("hour")
    n = g["n"].to_numpy(np.float64)
    want = np.round((n - n.mean()) / n.std(ddof=1), 6)
    assert np.array_equal(g["z"].to_numpy(), want)


def test_funnel_window_boundaries(ray_session, tmp_path):
    # user 1: B exactly at first_A + window (inclusive -> converted)
    # user 2: B strictly before A (not converted)
    # user 3: B after the window (not converted)
    # user 4: A only (row present, not converted); user 5: B only (no row)
    import pyarrow as pa

    base = pd.Timestamp("2024-01-01 00:00:00")
    week = pd.Timedelta(days=7)
    rows = [
        (1, "signup", base), (1, "purchase", base + week),
        (2, "purchase", base - pd.Timedelta(seconds=1)), (2, "signup", base),
        (3, "signup", base), (3, "purchase", base + week + pd.Timedelta(seconds=1)),
        (4, "signup", base),
        (5, "purchase", base),
    ]
    tbl = pa.table({
        "event_id": pa.array(range(len(rows)), pa.int64()),
        "ts": pa.array(pd.Series([r[2] for r in rows]).astype("datetime64[us]")),
        "user_id": pa.array([r[0] for r in rows], pa.int64()),
        "event_type": pa.array([r[1] for r in rows]),
        "value": pa.array([0.0] * len(rows), pa.float64()),
        "props": pa.array([""] * len(rows)),
    })
    pq.write_table(tbl, str(tmp_path / "events.parquet"))

    from address_semantic_search_ray.pipelines.queries import events_funnel

    got = events_funnel(str(tmp_path)).to_pandas()
    assert len(got) == 4  # exactly one row per signup user, no duplicates
    assert dict(zip(got["user_id"], got["converted"])) \
        == {1: True, 2: False, 3: False, 4: False}


def test_range_join_window_boundaries(ray_session, tmp_path):
    # orders exactly AT ts and exactly at ts-30d are both inclusive;
    # one microsecond outside either edge is excluded
    import numpy as np
    import pyarrow as pa

    ev_ts = pd.Timestamp("2024-06-01 12:00:00")
    win = pd.Timedelta(days=30)
    us = pd.Timedelta(microseconds=1)
    orders = [
        (1, ev_ts),                 # at upper edge -> in
        (1, ev_ts - win),           # at lower edge -> in
        (1, ev_ts + us),            # just after -> out
        (1, ev_ts - win - us),      # just before -> out
        (2, ev_ts),                 # other user -> out for user 1
    ]
    pq.write_table(pa.table({
        "o_orderkey": pa.array(range(len(orders)), pa.int64()),
        "o_custkey": pa.array([o[0] for o in orders], pa.int64()),
        "o_orderstatus": pa.array(["O"] * len(orders)),
        "o_totalprice": pa.array([1.0] * len(orders), pa.float64()),
        "o_orderdate": pa.array(pd.Series([o[1] for o in orders])
                                .astype("datetime64[us]")),
        "o_orderpriority": pa.array([""] * len(orders)),
    }), str(tmp_path / "orders.parquet"))
    pq.write_table(pa.table({
        "event_id": pa.array([100, 200], pa.int64()),
        "ts": pa.array(pd.Series([ev_ts, ev_ts]).astype("datetime64[us]")),
        "user_id": pa.array([1, 3], pa.int64()),   # user 3: no orders
        "event_type": pa.array(["click"] * 2),
        "value": pa.array([0.0] * 2, pa.float64()),
        "props": pa.array([""] * 2),
    }), str(tmp_path / "events.parquet"))

    from address_semantic_search_ray.pipelines.queries import (
        range_join_events_orders)

    got = range_join_events_orders(str(tmp_path)).to_pandas() \
        .set_index("event_id")
    assert int(got.loc[100, "n_orders"]) == 2
    assert int(got.loc[200, "n_orders"]) == 0
    assert len(got) == 2
