"""KG graph analytics over the triple table: per-conversation first-mention
provenance, co-mention triangle support, and weighted PageRank — each checked
against an independent single-process formulation built straight from the
triples parquet (no shared kernels with the distributed pipeline)."""

from __future__ import annotations

import math

import pandas as pd
import pytest

from tests.conftest import SF_SMALL


@pytest.fixture(scope="module")
def triples_df(ray_session):
    import pyarrow.parquet as pq

    from address_semantic_search_ray.pipelines import queries as q

    res = q._kg_artifacts(SF_SMALL)
    return pq.read_table(res["triples"]).to_pandas()


@pytest.fixture(scope="module")
def cooccur_edges(triples_df):
    """Naive co-mention edge dict {(a, b): n_convs} with a < b."""
    m = triples_df[triples_df["pred"] == "mentions"][["conv_id", "obj"]] \
        .drop_duplicates()
    edges: dict = {}
    for _, grp in m.groupby("conv_id"):
        objs = sorted(set(grp["obj"]))
        for i in range(len(objs)):
            for j in range(i + 1, len(objs)):
                k = (objs[i], objs[j])
                edges[k] = edges.get(k, 0) + 1
    return edges


def test_conv_first_mentions_matches_naive(ray_session, triples_df):
    from address_semantic_search_ray.pipelines import queries as q

    got = q.kg_conv_first_mentions(SF_SMALL).to_pandas() \
        .sort_values(["conv_id", "obj"]).reset_index(drop=True)
    m = triples_df[triples_df["pred"] == "mentions"]
    want = (m.groupby(["conv_id", "obj"], as_index=False)
            .agg(first_turn=("turn_idx", "min"),
                 n_mentions=("turn_idx", "size"))
            .sort_values(["conv_id", "obj"]).reset_index(drop=True))
    assert len(got) == len(want) > 0
    assert (got["conv_id"] == want["conv_id"]).all()
    assert (got["obj"] == want["obj"]).all()
    assert (got["first_turn"].to_numpy() == want["first_turn"].to_numpy()).all()
    assert (got["n_mentions"].to_numpy() == want["n_mentions"].to_numpy()).all()


def test_cooccur_triangles_matches_naive(ray_session, cooccur_edges):
    from address_semantic_search_ray.pipelines import queries as q

    got = q.kg_cooccur_triangles(SF_SMALL).to_pandas()
    got = dict(zip(got["node"], got["n_triangles"]))

    adj: dict = {}
    for (a, b) in cooccur_edges:
        adj.setdefault(a, set()).add(b)
        adj.setdefault(b, set()).add(a)
    want = {n: 0 for n in adj}
    for (a, b) in cooccur_edges:
        for c in adj[a] & adj[b]:
            if c > b:  # each triangle a<b<c counted once, at edge (a,b)
                want[a] += 1
                want[b] += 1
                want[c] += 1
    assert got == want
    assert sum(want.values()) % 3 == 0
    assert sum(want.values()) > 0, "fixture corpus should contain triangles"


def test_region_pagerank_matches_naive(ray_session, cooccur_edges):
    from address_semantic_search_ray.pipelines import queries as q

    got = q.kg_region_pagerank(SF_SMALL).to_pandas()
    got_m = dict(zip(got["node"], got["rank"]))

    # independent dict-based weighted power iteration (math, not numpy)
    nodes = sorted({n for e in cooccur_edges for n in e})
    n = len(nodes)
    wdeg = {u: 0.0 for u in nodes}
    for (a, b), w in cooccur_edges.items():
        wdeg[a] += float(w)
        wdeg[b] += float(w)
    rank = {u: 1.0 / n for u in nodes}
    for _ in range(5):
        acc = {u: 0.0 for u in nodes}
        for (a, b), w in cooccur_edges.items():
            acc[b] += rank[a] * float(w) / wdeg[a]
            acc[a] += rank[b] * float(w) / wdeg[b]
        rank = {u: (1.0 - 0.85) / n + 0.85 * acc[u] for u in nodes}

    assert set(got_m) == set(nodes)
    for u in nodes:
        assert got_m[u] == pytest.approx(rank[u], abs=2e-6)
    # ranks form a probability distribution (no dangling mass in the
    # symmetrized co-mention graph)
    assert math.isclose(sum(rank.values()), 1.0, rel_tol=1e-9)
    assert math.isclose(float(got["rank"].sum()), 1.0, abs_tol=1e-3)


def test_cooccur_graph_memo_shared(ray_session):
    from address_semantic_search_ray.pipelines import queries as q

    e1, p1 = q._cooccur_graph(SF_SMALL)
    e2, p2 = q._cooccur_graph(SF_SMALL)
    assert e1 is e2 and p1 == p2


def test_community_lpa_matches_naive(ray_session, cooccur_edges):
    """2-round synchronous LPA vs a dict-based twin (plain loops, min-label
    tie-break), plus structural sanity: communities are non-trivial."""
    from address_semantic_search_ray.pipelines import queries as q

    got = q.kg_community_lpa(SF_SMALL).to_pandas()
    got_m = dict(zip(got["node"], got["community"]))

    adj: dict = {}
    for (a, b), w in cooccur_edges.items():
        adj.setdefault(a, {})[b] = float(w)
        adj.setdefault(b, {})[a] = float(w)
    labels = {u: u for u in adj}
    for _ in range(2):
        new = {}
        for u, nbrs in adj.items():
            votes: dict = {}
            for v, w in nbrs.items():
                votes[labels[v]] = votes.get(labels[v], 0.0) + w
            best = min(votes, key=lambda l: (-votes[l], l))
            new[u] = best
        labels = new

    assert got_m == labels
    n_comm = len(set(labels.values()))
    assert 1 < n_comm < len(labels), "LPA should find non-trivial communities"


def test_link_prediction_matches_naive(ray_session, cooccur_edges):
    """Adamic-Adar top-k vs a dict-based wedge sum (math.log, plain loops)."""
    from address_semantic_search_ray.pipelines import queries as q

    k = 20
    got = q.kg_link_prediction(SF_SMALL, k=k).to_pandas()

    adj: dict = {}
    for (a, b) in cooccur_edges:
        adj.setdefault(a, set()).add(b)
        adj.setdefault(b, set()).add(a)
    aa: dict = {}
    for w, nbrs in adj.items():
        if len(nbrs) < 2 or len(nbrs) > 2000:  # hub cut, no-op at this scale
            continue
        inv = 1.0 / math.log(len(nbrs))
        ns = sorted(nbrs)
        for i in range(len(ns)):
            for j in range(i + 1, len(ns)):
                pair = (ns[i], ns[j])
                if pair in cooccur_edges:
                    continue
                aa[pair] = aa.get(pair, 0.0) + inv
    want = sorted(((round(v, 6), a, b) for (a, b), v in aa.items()),
                  key=lambda t: (-t[0], t[1], t[2]))[:k]

    assert len(got) == min(k, len(aa))
    for row, (v, a, b) in zip(got.itertuples(index=False), want):
        assert (row.obj_a, row.obj_b) == (a, b)
        assert row.aa == pytest.approx(v, abs=2e-6)


def test_part_of_closure_matches_naive(ray_session, triples_df):
    """Forest-walk closure vs a dict-based BFS over the raw triples."""
    from address_semantic_search_ray.pipelines import queries as q

    got = q.kg_part_of_closure(SF_SMALL).to_pandas()
    got_set = set(zip(got["subj"], got["ancestor"], got["depth"]))

    e = triples_df[triples_df["pred"] == "part_of"][["subj", "obj"]] \
        .drop_duplicates()
    # canonical forest: smallest parent per child (see _build_partof_closure)
    parent = e.groupby("subj")["obj"].min().to_dict()
    want = set()
    for s in parent:
        a, d = parent[s], 1
        while True:
            want.add((s, a, d))
            if a not in parent:
                break
            a, d = parent[a], d + 1
    assert got_set == want
    assert len(got) == len(got_set), "closure rows must be distinct"
    assert int(got["depth"].max()) >= 2, "fixture should have multi-level chains"


def test_located_at_rollup_matches_naive(ray_session, triples_df):
    """Subtree rollup vs a dict walk: each region's total = own located_at
    count + every descendant's (via the parent-pointer chain)."""
    from address_semantic_search_ray.pipelines import queries as q

    got = q.kg_located_at_rollup(SF_SMALL).to_pandas()
    got_m = dict(zip(got["region"], got["n_located"]))

    e = triples_df[triples_df["pred"] == "part_of"][["subj", "obj"]] \
        .drop_duplicates()
    parent = e.groupby("subj")["obj"].min().to_dict()
    direct = triples_df[triples_df["pred"] == "located_at"]["obj"] \
        .value_counts().to_dict()
    want: dict = {}
    for r, n in direct.items():
        a = r
        while True:
            want[a] = want.get(a, 0) + n
            if a not in parent:
                break
            a = parent[a]
    assert got_m == want
    # a parent's subtree total must be >= any child's
    for s, p in parent.items():
        if s in want and p in want:
            assert want[p] >= want[s]


def test_triangles_shard_invariant(ray_session):
    """Exactness must not depend on the shard split (the wedge expansion
    is per-edge-slice; every triangle closes at exactly one edge)."""
    from address_semantic_search_ray.pipelines import queries as q

    a = q.kg_cooccur_triangles(SF_SMALL, n_shards=3).to_pandas() \
        .sort_values("node").reset_index(drop=True)
    b = q.kg_cooccur_triangles(SF_SMALL, n_shards=64).to_pandas() \
        .sort_values("node").reset_index(drop=True)
    assert a.equals(b)


def _closure_oracles(triples_dir: str) -> dict:
    """The two recursive-CTE oracles, pointed at ``triples_dir``."""
    import __ray_entry__ as entry

    sql = entry.oracle_sql()
    return {name: sql[name].replace(entry.SF001_ORACLE, triples_dir)
            for name in ("kg_part_of_closure", "kg_located_at_rollup")}


def _write_edges(path, edges, located=()):
    import pyarrow as pa
    import pyarrow.parquet as pq

    rows = [(s, "part_of", o) for s, o in edges] + \
        [("conv:c", "located_at", o) for o in located]
    pq.write_table(pa.table({"subj": [r[0] for r in rows],
                             "pred": [r[1] for r in rows],
                             "obj": [r[2] for r in rows]}),
                   str(path / "kg_triples.parquet"))


def test_closure_oracles_stop_on_cyclic_part_of(tmp_path):
    """A cyclic part_of table: both CTE oracles terminate at the Ray
    closure's depth guard (32) and the Ray closure raises its ValueError."""
    import duckdb
    import pyarrow as pa

    from address_semantic_search_ray.pipelines.queries import _build_partof_closure

    edges = [("region:a", "region:b"), ("region:b", "region:c"),
             ("region:c", "region:a")]
    _write_edges(tmp_path, edges, located=["region:a"])
    sql = _closure_oracles(str(tmp_path))
    closure = duckdb.sql(sql["kg_part_of_closure"]).df()
    assert closure["depth"].max() == 32
    assert len(closure) == 3 * 32
    assert len(duckdb.sql(sql["kg_located_at_rollup"]).df()) == 3
    with pytest.raises(ValueError, match="too deep"):
        _build_partof_closure(pa.table({"subj": [s for s, _ in edges],
                                        "obj": [o for _, o in edges]}))


def test_closure_oracles_unchanged_on_acyclic_part_of(tmp_path):
    """On an acyclic table the guard cuts nothing: the guarded CTE equals
    the unguarded one and the Ray closure, pair for pair and depth for
    depth, and the rollup equals its unguarded form."""
    import duckdb
    import pyarrow as pa

    from address_semantic_search_ray.pipelines.queries import _build_partof_closure

    # a 6-deep chain, a branch, and a child with two parents (smallest wins)
    edges = [(f"region:{i}", f"region:{i + 1}") for i in range(6)] + \
        [("region:x", "region:2"), ("region:y", "region:5"),
         ("region:y", "region:4")]
    _write_edges(tmp_path, edges, located=["region:0", "region:x", "region:x"])
    for name, guarded in _closure_oracles(str(tmp_path)).items():
        unguarded = "\n".join(line for line in guarded.splitlines()
                              if "WHERE c.depth < 32" not in line)
        assert unguarded != guarded
        a, b = (duckdb.sql(q).df() for q in (guarded, unguarded))
        cols = list(a.columns)
        pd.testing.assert_frame_equal(
            a.sort_values(cols).reset_index(drop=True),
            b.sort_values(cols).reset_index(drop=True))
        if name == "kg_part_of_closure":
            ray_side = _build_partof_closure(pa.table({
                "subj": [s for s, _ in edges],
                "obj": [o for _, o in edges]})).to_pandas()
            assert sorted(map(tuple, a[cols].values.tolist())) == \
                sorted(map(tuple, ray_side[cols].values.tolist()))
