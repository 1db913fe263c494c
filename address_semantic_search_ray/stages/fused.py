"""Link rows -> triples, shared by both KG modes, and the fused
mention-detection + linking stage of the broadcast-index mode.

Both modes turn link rows (``FUSED_SCHEMA``) into triples the same way:
``route_link_rows`` puts each mention row and each batch-deduped
``part_of`` edge into ONE bucket space ``[0, n)`` (``TRIPLE_ROUTE_SCHEMA``,
int codes only) with ``stages/cogroup.py``'s hash: mentions by ``conv_id``,
edges by ``(child, parent)``. The caller sizes ``n`` from its input with
``cogroup.group_count``. One ``groupby("route").map_groups(
finalize_route_group)`` then splits each group into its edge rows
(``mention_idx == -1``) and mention rows, and dedups and formats both
(``TRIPLE_SCHEMA``). A conversation and an edge never span groups, so the
triples do not depend on ``n``.

- Streaming (``run_kg_streaming``): the flat numpy similarity index
  (kernel/npindex.py) is ``ray.put`` ONCE; each task's ``ray.get`` maps the
  same plasma buffers read-only (zero-copy, O(1) index memory per node
  regardless of task count), and ``MentionLinkTriplesStage`` detects,
  links and routes in one pass over the transcript stream — a broadcast
  map-side join with no sort and no co-partition shuffle. Like every
  stage, it lives one read block (``stages/interpret.py:per_block``).
- Checkpointed (``run_kg_pipeline``): the ``links/`` checkpoint written by
  ``LinkStage`` has the same link-row schema; ``route_link_batch`` is the
  Arrow adapter that feeds it to ``route_link_rows``.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

from ..kernel.mentions import find_mentions, query_key
from ..kernel.npindex import NpCorpusIndex, ShardedNpIndex
from .cogroup import bucket_of, group_count
from .interpret import _RegionStateMixin, _region_ids


def resolve_index(index_ref):
    """Accepts a single-payload ObjectRef, a raw payload dict (in-process
    callers such as tests), or a sharded {bucket: payload ObjectRef} map; the
    ``ray.get`` of each payload maps plasma buffers zero-copy per node."""
    if isinstance(index_ref, dict):
        if "district_keys" in index_ref:  # raw payload
            return NpCorpusIndex.from_payload(index_ref)
        import ray

        buckets = sorted(index_ref)
        payloads = ray.get([index_ref[b] for b in buckets])
        return ShardedNpIndex.from_payloads(dict(zip(buckets, payloads)))
    import ray

    return NpCorpusIndex.from_payload(ray.get(index_ref))


# one row per linked mention: the fused stage's output and the checkpointed
# pipeline's links/ schema
FUSED_SCHEMA = pa.schema([
    ("conv_id", pa.string()),
    ("turn_idx", pa.int32()),
    ("mention_idx", pa.int32()),
    ("role", pa.string()),
    ("district_key", pa.string()),
    ("least_region_id", pa.int64()),
    ("linked_addr", pa.int64()),  # -1 when unlinked
    ("score", pa.float64()),
    ("region_chain", pa.list_(pa.int64())),
])

TRIPLE_ROUTE_SCHEMA = pa.schema([
    ("route", pa.int32()),  # bucket in [0, n): mentions by conv, edges by pair
    ("conv_id", pa.string()),
    ("turn_idx", pa.int32()),
    ("mention_idx", pa.int32()),  # -1 marks a part_of edge row
    ("role", pa.string()),
    ("district_key", pa.string()),
    ("least", pa.int64()),   # mention rows: least_region_id; edges: child
    ("linked", pa.int64()),  # mention rows: linked_addr (-1 none); edges: parent
    ("score", pa.float64()),
])

# the final triple format, shared with the single-process oracle — see the
# ``pipelines/oracle.py`` docstring
TRIPLE_SCHEMA = pa.schema([
    ("subj", pa.string()),
    ("pred", pa.string()),
    ("obj", pa.string()),
    ("conv_id", pa.string()),
    ("turn_idx", pa.int32()),
    ("district_key", pa.string()),
    ("score", pa.float64()),
])


def route_link_rows(rows: dict[str, list], n: int) -> pa.Table:
    """Link rows as plain column lists (``FUSED_SCHEMA`` names) -> routed
    COMPACT rows: one per mention, bucketed by ``conv_id``, plus the batch's
    distinct ``part_of`` edges as int pairs (``mention_idx`` -1), bucketed
    by ``(child, parent)``, all in ``[0, n)``. No subj/pred/obj strings
    yet — ``finalize_route_group`` builds them after the shuffle, so the
    all-to-all moves ~2.5x fewer bytes per turn and no per-row f-string is
    allocated here."""
    convs = rows["conv_id"]
    edges = set()
    for chain in rows["region_chain"]:
        for child, parent in zip(chain, chain[1:]):
            edges.add((child, parent))
    nm, ne = len(convs), len(edges)
    e_child = [c for c, _ in edges]
    e_parent = [p for _, p in edges]
    t = pa.Table.from_arrays(
        [
            pa.array(convs + [""] * ne, pa.string()),
            pa.array(rows["turn_idx"] + [-1] * ne, pa.int32()),
            pa.array(rows["mention_idx"] + [-1] * ne, pa.int32()),
            pa.array(rows["role"] + [""] * ne, pa.string()),
            pa.array(rows["district_key"] + [""] * ne, pa.string()),
            pa.array(rows["least_region_id"] + e_child, pa.int64()),
            pa.array(rows["linked_addr"] + e_parent, pa.int64()),
            pa.array(rows["score"] + [1.0] * ne, pa.float64()),
        ],
        schema=pa.schema(list(TRIPLE_ROUTE_SCHEMA)[1:]),
    )
    route = np.concatenate([bucket_of(t.slice(0, nm), "conv_id", n),
                            bucket_of(t.slice(nm), ["least", "linked"], n)])
    return t.add_column(0, TRIPLE_ROUTE_SCHEMA.field("route"),
                        pa.array(route.astype(np.int32)))


def route_link_batch(batch: pa.Table, n: int) -> pa.Table:
    """Arrow adapter over ``route_link_rows`` for a batch of stored link rows."""
    return route_link_rows(
        {c: batch.column(c).to_pylist() for c in FUSED_SCHEMA.names}, n)


class MentionLinkTriplesStage(_RegionStateMixin):
    """Fully fused: transcripts -> routed COMPACT rows in ONE pass
    (detect + link, then ``route_link_rows`` into ``n_routes`` buckets; an
    in-process caller that passes none gets ``group_count()``). The whole
    streaming pipeline stays a single job: read -> this stage (one per read
    block, ``per_block``) -> one groupby -> finalize -> write. Its turn and
    link memos live as long as the stage: one block."""

    def __init__(self, region_ref, index_ref, top_n: int = 1,
                 n_routes: int | None = None):
        from .link import top1_link_memo  # link.py imports this module

        self._n_routes = n_routes or group_count()
        self._init_interpreter(region_ref)
        self._init_prefilter()
        self.np_index = resolve_index(index_ref)
        self._link = top1_link_memo(self.np_index.find_similar, top_n)
        self._turn_results: dict[str, list] = {}

    def _link_rows(self, batch: pa.Table) -> dict[str, list]:
        """One pass: detect + link; returns plain column lists (FUSED_SCHEMA
        order) so routing consumes them without an Arrow round-trip."""
        batch = self._apply_prefilter(batch)
        it = self.interpreter
        link = self._link
        # turn-level memo: web-scale transcript streams are heavy with EXACT
        # duplicate turns (boilerplate, re-shares, crawl dups — the reason
        # C4-style pipelines dedupe exact text first). One dict probe on the
        # raw text skips the whole interpret+link for a repeated turn.
        # Measured on the bench stream (67% dup turns): +4-15% — modest,
        # because the duplicated turns are mostly the CHEAP chitchat ones;
        # the win grows with duplicate-heavy address-dense streams. Output
        # is byte-identical either way (hash-checked A/B).
        turn_memo = self._turn_results
        out = {name: [] for name in FUSED_SCHEMA.names}
        o_conv = out["conv_id"].append
        o_turn = out["turn_idx"].append
        o_mi = out["mention_idx"].append
        o_role = out["role"].append
        o_key = out["district_key"].append
        o_least = out["least_region_id"].append
        o_linked = out["linked_addr"].append
        o_score = out["score"].append
        o_chain = out["region_chain"].append
        for conv_id, turn_idx, role, text in zip(
            batch.column("conv_id").to_pylist(),
            batch.column("turn_idx").to_pylist(),
            batch.column("role").to_pylist(),
            batch.column("text").to_pylist(),
        ):
            if not text:
                continue
            rec = turn_memo.get(text)
            if rec is None:
                rec = []
                for mention_idx, m in enumerate(find_mentions(text, it)):
                    query = query_key(m.addr)
                    least, chain = _region_ids(m.addr)
                    linked, score = link(query)
                    rec.append((mention_idx, query[0], least, linked, score, chain))
                if len(turn_memo) > 200_000:
                    turn_memo.clear()
                turn_memo[text] = rec
            for mention_idx, key, least, linked, score, chain in rec:
                o_conv(conv_id)
                o_turn(turn_idx)
                o_mi(mention_idx)
                o_role(role)
                o_key(key)
                o_least(least)
                o_linked(linked)
                o_score(score)
                o_chain(chain)
        return out

    def __call__(self, batch: pa.Table) -> pa.Table:
        return route_link_rows(self._link_rows(batch), self._n_routes)


def _edge_triples(df):
    """part_of edge rows -> deduped part_of triples."""
    import pandas as pd

    df = df.drop_duplicates(["least", "linked"])
    return pd.DataFrame({
        "subj": "region:" + df["least"].astype(str),
        "pred": "part_of",
        "obj": "region:" + df["linked"].astype(str),
        "conv_id": "", "turn_idx": -1, "district_key": "", "score": 1.0,
    }).sort_values(["subj", "obj"])


def _mention_triples(df):
    """Mention rows -> their located_at + mentions triples (see
    ``finalize_route_group``)."""
    import pandas as pd

    df = df.sort_values(["conv_id", "turn_idx", "mention_idx"],
                        kind="stable").reset_index(drop=True)
    pos = np.arange(len(df), dtype=np.int64)
    la_keep = ~df.duplicated(["conv_id", "role", "least"]).to_numpy()
    me_keep = ~df.duplicated(["conv_id", "linked"]).to_numpy()
    la, me = df[la_keep], df[me_keep]
    la_out = pd.DataFrame({
        "subj": "conv:" + la["conv_id"] + ":" + la["role"],
        "pred": "located_at",
        "obj": "region:" + la["least"].astype(str),
        "conv_id": la["conv_id"], "turn_idx": la["turn_idx"],
        "district_key": la["district_key"], "score": la["score"],
        # located_at precedes mentions within a mention (oracle emission
        # order), hence the 2i / 2i+1 interleave positions
        "_pos": pos[la_keep] * 2,
    })
    me_out = pd.DataFrame({
        "subj": "conv:" + me["conv_id"],
        "pred": "mentions",
        "obj": np.where(me["linked"].to_numpy() >= 0,
                        ("addr:" + me["linked"].astype(str)).to_numpy(),
                        "addr:none"),
        "conv_id": me["conv_id"], "turn_idx": me["turn_idx"],
        "district_key": me["district_key"], "score": me["score"],
        "_pos": pos[me_keep] * 2 + 1,
    })
    return (pd.concat([la_out, me_out], ignore_index=True)
            .sort_values("_pos", kind="stable").drop(columns=["_pos"]))


def finalize_route_group(group: pa.Table) -> pa.Table:
    """One routed bucket, any mix of mention and edge rows -> final triple
    rows.

    Edge rows (``mention_idx == -1``) dedup their int pairs and format
    them as part_of triples. Mention rows expand to their located_at +
    mentions triples HERE — first-wins dedup runs on the int codes ((conv,
    role, least) is exactly located_at's (conv, subj, pred, obj) key and
    (conv, linked) exactly mentions'), in the stable (conv, turn, mention,
    pred) order the oracle emits; the subj/obj strings are then built
    vectorized for the survivors only. Output equals the oracle's triples
    (driver kg_triples hash + mode-parity tests)."""
    import pandas as pd

    df = group.to_pandas()
    is_edge = (df["mention_idx"] == -1).to_numpy()
    parts = [build(df[mask]) for build, mask in
             ((_mention_triples, ~is_edge), (_edge_triples, is_edge))
             if mask.any()]
    out = pd.concat(parts, ignore_index=True) if len(parts) > 1 else parts[0]
    out = out[TRIPLE_SCHEMA.names]
    # strip the pandas schema-metadata blob (unhashable in pyarrow 16 —
    # trips Ray's block-schema dedup into per-batch warnings)
    return pa.Table.from_pandas(out, schema=TRIPLE_SCHEMA,
                                preserve_index=False).replace_schema_metadata(None)
