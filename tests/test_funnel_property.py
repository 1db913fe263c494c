"""Property-based funnel test: random small event streams vs a brute-force
single-process twin (hypothesis). Guards the bucket-disjointness argument
and the inclusive window arithmetic under arbitrary orderings/duplicates."""

from __future__ import annotations

import pandas as pd
import pyarrow as pa
import pyarrow.parquet as pq
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

_EVENT = st.tuples(
    st.integers(min_value=0, max_value=9),                  # user_id
    st.sampled_from(["signup", "purchase", "click"]),
    st.integers(min_value=0, max_value=20 * 86400),          # seconds offset
)


def _naive(rows, window_s):
    first_a: dict = {}
    for uid, et, s in rows:
        if et == "signup":
            first_a[uid] = min(first_a.get(uid, s), s)
    out = {}
    for uid, a in first_a.items():
        out[uid] = any(et == "purchase" and a <= s <= a + window_s
                       for u2, et, s in rows if u2 == uid)
    return out


@settings(max_examples=30, deadline=None)
@given(st.lists(_EVENT, min_size=1, max_size=40))
def test_funnel_matches_brute_force(ray_session, tmp_path_factory, rows):
    from address_semantic_search_ray.pipelines.queries import events_funnel
    from address_semantic_search_ray.stages import cogroup

    tmp = tmp_path_factory.mktemp("funnel_prop")
    base = pd.Timestamp("2024-01-01").value // 1000  # us
    ts = pd.Series([base + s * 1_000_000 for _, _, s in rows]) \
        .astype("datetime64[us]")
    tbl = pa.table({
        "event_id": pa.array(range(len(rows)), pa.int64()),
        "ts": pa.array(ts),
        "user_id": pa.array([r[0] for r in rows], pa.int64()),
        "event_type": pa.array([r[1] for r in rows]),
        "value": pa.array([0.0] * len(rows), pa.float64()),
        "props": pa.array([""] * len(rows)),
    })
    pq.write_table(tbl, str(tmp / "events.parquet"))

    with pytest.MonkeyPatch.context() as mp:  # 3 buckets: users share them
        mp.setattr(cogroup, "N_COGROUP_BUCKETS", 3)
        got = events_funnel(str(tmp)).to_pandas()
    want = _naive(rows, 7 * 86400)
    if not want:  # no signup events anywhere -> empty (schemaless) dataset
        assert len(got) == 0
        return
    got_map = dict(zip(got["user_id"].astype(int), got["converted"]))
    assert got_map == want and len(got) == len(want)
