"""Secondary reference pipelines: E4 town mining, E5 labeled regression.

- E4 (``misc/ExtractTown.java:35-114``): lines -> scrub/brackets/region/
  redundancy -> town/village mining (P8) -> per-district distinct (A3) ->
  promotion to new region nodes with ``id = parent_id*10000 + seq`` and type
  by last char 镇/乡 -> Town, 村 -> Village (``AddressPersister.importRegionTowns``,
  java:168-199).
- E5 (``misc/RegressionTestRunTest.java:73-184``): labeled 7-field CSV ->
  interpret -> top-1 link -> compare grid_id -> accuracy buckets split at
  similarity 0.85 (hs/hf/ls/lf/zero, A5).
- Explain-mode linking (``links_explain``) over the mentions checkpoint.

Each stage is a task pool, one stage build per read block
(``stages/interpret.py:per_block``), like the KG stages.
"""

from __future__ import annotations

import os

import pyarrow as pa

import ray
import ray.data as rd

from ..kernel.mentions import QUERY_COLUMNS, query_key
from ..stages.fused import resolve_index
from ..stages.interpret import _RegionStateMixin, per_block
from ..stages.link import LinkMemo, query_rows, top1_link_memo
from .kg import build_index_ref

SIM_THRESHOLD = 0.85  # RegressionTestRunTest.java:150-184


class TownMineStage(_RegionStateMixin):
    """text -> (district_id, town_name) candidate rows (P8 over the chain)."""

    def __init__(self, region_ref):
        self._init_interpreter(region_ref)

    def __call__(self, batch: pa.Table) -> pa.Table:
        it = self.interpreter
        dist_out, town_out = [], []
        for text in batch.column("text").to_pylist():
            towns: dict = {}
            it.extract_town_village_text(text, it.visitor, towns)
            for did, names in towns.items():
                for name in names:
                    dist_out.append(did)
                    town_out.append(name)
        return pa.table({
            "district_id": pa.array(dist_out, pa.int64()),
            "town_name": pa.array(town_out, pa.string()),
        })


def mine_towns(texts_ds, region_ref, concurrency: int = 4):
    """E4: distributed mining + per-district distinct + region-node promotion.

    Returns a Dataset of new region rows
    (id, parent_id, type, name) — id allocation ``parent*10000 + seq`` with
    seq ordered by name for determinism (the reference uses DB insert order).
    """
    import pandas as pd

    cands = texts_ds.map_batches(
        per_block(TownMineStage, region_ref, batch_size=2048),
        batch_format="pyarrow", batch_size=None, concurrency=concurrency,
    )

    def promote(group: pd.DataFrame) -> pd.DataFrame:
        did = int(group["district_id"].iloc[0])
        names = sorted(set(group["town_name"]))
        rows = []
        for seq, name in enumerate(names, start=1):
            # AddressPersister.importRegionTowns: 镇/乡 -> Town(400), 村 -> Village(410)
            rtype = 410 if name.endswith("村") else 400
            rows.append((did * 10000 + seq, did, rtype, name))
        import numpy as np

        return pd.DataFrame({
            "id": np.asarray([r[0] for r in rows], dtype=np.int64),
            "parent_id": np.asarray([r[1] for r in rows], dtype=np.int64),
            "type": np.asarray([r[2] for r in rows], dtype=np.int64),
            "name": [r[3] for r in rows],
        })

    return cands.groupby("district_id").map_groups(promote, batch_format="pandas")


class RegressionLinkStage(_RegionStateMixin):
    """regression rows -> (order_no, grid_id, linked_grid, similarity)."""

    def __init__(self, region_ref, index_ref, grid_ref):
        self._init_interpreter(region_ref)
        # single payload or sharded
        self._link = top1_link_memo(resolve_index(index_ref).find_similar)
        self.grid_by_addr = ray.get(grid_ref)

    def __call__(self, batch: pa.Table) -> pa.Table:
        it = self.interpreter
        orders, grids, linked_grids, sims = [], [], [], []
        for order_no, text, grid in zip(
            batch.column("order_no").to_pylist(),
            batch.column("text").to_pylist(),
            batch.column("grid_id").to_pylist(),
        ):
            a = it.interpret(text)
            linked_grid, sim = "", 0.0
            if a is not None and a.province is not None and a.city is not None \
                    and a.district is not None:
                linked, sim = self._link(query_key(a))
                linked_grid = self.grid_by_addr.get(linked, "")
            orders.append(order_no)
            grids.append(grid)
            linked_grids.append(linked_grid)
            sims.append(sim)
        return pa.table({
            "order_no": pa.array(orders, pa.string()),
            "grid_id": pa.array(grids, pa.string()),
            "linked_grid": pa.array(linked_grids, pa.string()),
            "similarity": pa.array(sims, pa.float64()),
        })


def regression_accuracy(data_dir: str, region_dict_path: str | None = None,
                        concurrency: int = 4):
    """E5 harness: returns one-row Dataset with hs/hf/ls/lf/zero bucket counts
    (hit/miss split at similarity 0.85, A5 semantics)."""
    import pyarrow.parquet as pq

    from ..sources.readers import read_regression_csv
    from ..stages.interpret import put_region_table
    from .oracle import default_region_dict_path

    region_dict_path = region_dict_path or default_region_dict_path()
    region_ref = put_region_table(region_dict_path)
    addresses_path = os.path.join(data_dir, "addresses.parquet")
    index_ref = build_index_ref(addresses_path, region_ref, concurrency)

    addr_tbl = pq.read_table(addresses_path, columns=["addr_id", "grid_id"])
    grid_ref = ray.put(dict(zip(addr_tbl.column("addr_id").to_pylist(),
                                addr_tbl.column("grid_id").to_pylist())))

    linked = read_regression_csv(os.path.join(data_dir, "regression.csv")).map_batches(
        per_block(RegressionLinkStage, region_ref, index_ref, grid_ref,
                  batch_size=1024),
        batch_format="pyarrow", batch_size=None, concurrency=concurrency,
    )

    def buckets(batch: pa.Table) -> pa.Table:
        hs = hf = ls = lf = zero = 0
        for grid, linked_grid, sim in zip(
            batch.column("grid_id").to_pylist(),
            batch.column("linked_grid").to_pylist(),
            batch.column("similarity").to_pylist(),
        ):
            if sim <= 0:
                zero += 1
            elif sim >= SIM_THRESHOLD:
                if linked_grid == grid:
                    hs += 1
                else:
                    hf += 1
            else:
                if linked_grid == grid:
                    ls += 1
                else:
                    lf += 1
        return pa.table({
            "hs": pa.array([hs], pa.int64()), "hf": pa.array([hf], pa.int64()),
            "ls": pa.array([ls], pa.int64()), "lf": pa.array([lf], pa.int64()),
            "zero": pa.array([zero], pa.int64()),
        })

    from ray.data.aggregate import Sum

    partials = linked.map_batches(buckets, batch_format="pyarrow")
    agg = partials.aggregate(*[Sum(c, alias_name=c) for c in ("hs", "hf", "ls", "lf", "zero")])
    import pandas as pd

    return pd.DataFrame([agg])


# -- explain-mode linking (round-3: VERDICT missing #3) ----------------------

EXPLAIN_SCHEMA = pa.schema([
    ("conv_id", pa.string()),
    ("turn_idx", pa.int32()),
    ("mention_idx", pa.int32()),
    ("rank", pa.int32()),           # 0 = best candidate
    ("linked_addr", pa.int64()),
    ("score", pa.float64()),        # rounded 6
    ("term_text", pa.string()),
    ("term_type", pa.string()),     # 1-char TermType code
    ("boost", pa.float64()),
    ("tfidf", pa.float64()),        # rounded 6
    ("density", pa.float64()),      # -1 for non-Text terms (MatchedTerm.java)
    ("coord", pa.float64()),
])


class ExplainLinker:
    """Explain-mode scorer: mention rows -> one row per
    (candidate rank, matched term) — the reference's ``explain && topN``
    path (SimilarityComputer.java:456-550 + MatchedTerm.java:3-45; surfaced
    by HttpDemoServiceImpl.java:40-96).

    Holds ONLY the flat numpy corpus index: one ``ray.put`` payload whose
    arrays every task maps zero-copy (per-node index memory O(1) in task
    count — the python-Doc replica this stage used to carry re-created the
    round-1 N-replicas memory-bus problem). The per-district scan selects
    each mention's <=top_n winners with sims bit-equal to the python scorer
    (tests/test_npindex.py); the per-term MatchedTerm breakdown then derives
    from the SAME flat arrays (``NpCorpusIndex.explain_matched``) only for
    those winners."""

    def __init__(self, np_index_ref, top_n: int = 2):
        self.np_index = resolve_index(np_index_ref)
        self.top_n = top_n
        # mention TEXTS are ~97% distinct on transcript streams but the link
        # query repeats heavily (~79% hit at base sf0.1, BASELINE.md); the
        # ranked winners + their MatchedTerm breakdown depend only on it
        self._ranked = LinkMemo(self._rank)

    def _rank(self, query: tuple) -> list:
        """query -> [(doc_id, sim, MatchedTerm rows)] for its <=top_n winners."""
        import numpy as np

        idx = self.np_index
        key = query[0]
        sims = idx.score_district(*query)
        if sims is None:
            return []
        sims = np.asarray(sims, dtype=np.float64)
        pos = np.flatnonzero(sims > 0.0)
        # == find_similar_explain's filter + stable sort desc (both indexes
        # list a district's docs in corpus row order, so ties break
        # identically)
        sel = pos[np.argsort(-sims[pos], kind="stable")][:self.top_n]
        return [(idx.doc_id_at(key, int(i)), float(sims[int(i)]),
                 idx.explain_matched(key, int(i), *query[1:]))
                for i in sel]

    def __call__(self, batch: pa.Table) -> pa.Table:
        out = {name: [] for name in EXPLAIN_SCHEMA.names}
        for conv_id, turn_idx, mention_idx, query in zip(
            batch.column("conv_id").to_pylist(),
            batch.column("turn_idx").to_pylist(),
            batch.column("mention_idx").to_pylist(),
            query_rows(batch),
        ):
            for rank, (doc_id, sim, matched) in enumerate(self._ranked(query)):
                for mt in matched:
                    out["conv_id"].append(conv_id)
                    out["turn_idx"].append(turn_idx)
                    out["mention_idx"].append(mention_idx)
                    out["rank"].append(rank)
                    out["linked_addr"].append(doc_id)
                    out["score"].append(round(sim, 6))
                    out["term_text"].append(mt["text"])
                    out["term_type"].append(mt["type"])
                    out["boost"].append(mt["boost"])
                    out["tfidf"].append(round(mt["tfidf"], 6))
                    out["density"].append(round(mt["density"], 6))
                    out["coord"].append(round(mt["coord"], 6))
        return pa.Table.from_arrays(
            [pa.array(out[f.name], f.type) for f in EXPLAIN_SCHEMA],
            schema=EXPLAIN_SCHEMA)


def links_explain(data_dir: str, mentions_dir: str, top_n: int = 2,
                  region_dict_path: str | None = None,
                  concurrency: int = 20):
    """Distributed explain-mode linking over the mentions checkpoint.
    ``concurrency`` caps the task pool; its default is the fused stage's
    measured saturation point (~20 tasks per socket, BASELINE.md).

    ONE broadcast index (the flat numpy payload, plasma-mapped zero-copy per
    node) drives both the per-district scan and the per-term MatchedTerm
    breakdown; no per-task python-Doc replica. Built by the kg pipeline's
    ``build_index_ref``, so corpora beyond the single-task budget get the
    sharded per-bucket build (the index shape ExplainLinker resolves
    transparently)."""
    from ..stages.interpret import put_region_table
    from .oracle import default_region_dict_path

    region_dict_path = region_dict_path or default_region_dict_path()
    addresses_path = os.path.join(data_dir, "addresses.parquet")
    region_ref = put_region_table(region_dict_path)
    np_index_ref = build_index_ref(addresses_path, region_ref, concurrency)
    return rd.read_parquet(
        mentions_dir,
        columns=["conv_id", "turn_idx", "mention_idx", *QUERY_COLUMNS],
    ).map_batches(
        per_block(ExplainLinker, np_index_ref, top_n, batch_size=1024),
        batch_format="pyarrow", batch_size=None, concurrency=concurrency,
    )
