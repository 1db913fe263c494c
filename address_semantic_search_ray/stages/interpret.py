"""Interpretation stages (stateful ``map_batches`` UDFs).

Design (SURVEY.md §2.3/§7): the region dictionary (~48k rows, ~1 MB Arrow) is
``ray.put`` ONCE on the driver as the pickled (region dict, trie) pair; every
stage unpickles it in ``__init__`` (one object-store read per stage, never
re-shipped per batch) — replicated read-only state, mirroring the
reference's one-visitor-per-thread rule (RegionInterpreterVisitor.java:52-56).

Every stage has one lifetime: one read block. ``per_block`` wraps a stage
class as a task-pool ``map_batches`` UDF that builds the stage for its
block inside ``paused_gc()``, runs it over the block's slices and drops it,
so no process keeps stage state (or a paused collector) after its task.
In-process callers (the single-task index build, ``perfbench``) build a
stage and call it on a table directly.

Batches are ``pyarrow`` in / ``pyarrow`` out (zero-copy from the object
store); the per-row trie walk is pure CPU.
"""

from __future__ import annotations

import contextlib
import gc
from collections.abc import Iterator

import pyarrow as pa

from ..kernel.interpreter import Interpreter
from ..kernel.mentions import QUERY_COLUMNS, find_mentions, query_key
from ..kernel.regions import RegionDict


@contextlib.contextmanager
def paused_gc():
    """Cyclic gc off for the block, restored (never frozen) on exit. Bulk
    object builds and loads (the trie pickle, a stage's state, an index
    payload) allocate millions of acyclic objects, and the collections they
    trigger walk all of them: unpickling the region state takes ~0.5 s with
    gc on and ~0.2 s with it off. Nesting is safe: an inner pause finds gc
    off and leaves it off."""
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if was_enabled:
            gc.enable()


def per_block(stage_cls, *args, batch_size: int):
    """``stage_cls(*args)`` as a task-pool ``map_batches`` UDF; map it with
    ``batch_size=None`` so each call gets one whole read block. The call
    builds one stage for the block with gc paused, yields the stage's
    output for each ``batch_size``-row slice, then drops the stage and
    gives the collector back. The cost is one stage build per block. The
    UDF carries the stage's name, which Ray gives the operator."""
    def run(block: pa.Table) -> Iterator[pa.Table]:
        with paused_gc():
            stage = stage_cls(*args)
            for start in range(0, block.num_rows, batch_size):
                yield stage(block.slice(start, batch_size))
            del stage

    run.__name__ = run.__qualname__ = stage_cls.__name__
    return run


def region_state_bytes(region_dict_path: str) -> bytes:
    """Pickled (RegionDict, TermIndex) for ``region_dict_path``, cached on
    disk keyed by the dict file's size+mtime: the build costs ~2.5 s of
    SERIAL driver time (parquet load + trie build + pickle) and the result
    is a pure function of the dict file — every later process (bench
    subprocesses, scaling runs, retries) loads it in ~0.3 s instead. The
    write is atomic (tmp + rename), so concurrent builders are safe."""
    import hashlib
    import os
    import pickle
    import tempfile

    from ..state.checkpoint import code_salt

    st = os.stat(region_dict_path)
    # code-version salt: stale pickles after a package change must miss
    parts = [f"{os.path.abspath(region_dict_path)}:{st.st_size}:{st.st_mtime_ns}",
             code_salt()]
    key = hashlib.blake2b("|".join(parts).encode(), digest_size=10).hexdigest()
    # per-user cache dir, mode 0700: a world-writable shared path would let
    # another local user pre-plant a pickle under a derivable key (the key is
    # a pure function of file sizes/mtimes) — arbitrary code execution at
    # unpickle time. Ownership of dir AND file is verified before reading.
    uid = os.getuid() if hasattr(os, "getuid") else 0
    cache_dir = os.environ.get(
        "ASR_TRIE_CACHE",
        os.path.join(tempfile.gettempdir(), f"asr_trie_cache-{uid}"))
    cache_path = os.path.join(cache_dir, f"trie-{key}.pkl")

    def _owned(path: str) -> bool:
        st_p = os.stat(path)
        return not hasattr(os, "getuid") or st_p.st_uid == os.getuid()

    try:
        if _owned(cache_dir) and _owned(cache_path):
            with open(cache_path, "rb") as f:
                return f.read()
    except OSError:
        pass

    from ..kernel.interpreter import Interpreter
    from ..kernel.regions import RegionDict

    with paused_gc():
        regions = RegionDict.from_parquet(region_dict_path)
        trie = Interpreter(regions).trie
        payload = pickle.dumps((regions, trie), protocol=5)
    try:
        os.makedirs(cache_dir, mode=0o700, exist_ok=True)
        fd, tmp = tempfile.mkstemp(dir=cache_dir)
        with os.fdopen(fd, "wb") as f:
            f.write(payload)
        os.replace(tmp, cache_path)
    except OSError:
        pass  # cache is best-effort
    return payload


def put_region_table(region_dict_path: str):
    """Driver-side: put the pickled (region dict, trie) pair in the object
    store ONCE. Unpickling it per stage (~0.2 s with gc paused) is several
    times faster than rebuilding from the arrow table (~1.6 s), and plasma
    stores the bytes once per node."""
    import ray

    return ray.put(region_state_bytes(region_dict_path))


class _RegionStateMixin:
    """Replicated read-only region state of a stage: the interpreter over
    the shared (region dict, trie) pair and the turn prefilter."""

    def _init_interpreter(self, region_ref):
        import pickle

        import ray

        payload = ray.get(region_ref) if not isinstance(region_ref, bytes) else region_ref
        with paused_gc():
            self.regions, trie = pickle.loads(payload)
        self.interpreter = Interpreter(self.regions, trie=trie)

    def _init_prefilter(self):
        """Vectorized turn prefilter: a turn with NO trie root-edge char can't
        contain a mention (the scan gate needs one at the mention start), so
        ``_apply_prefilter`` drops such rows arrow-side before any Python row
        work. RE2 handles the ~full first-char class fine."""
        chars = "".join(sorted(self.interpreter.trie.first_chars))
        for c in "\\]^-":
            chars = chars.replace(c, "\\" + c)
        self._prefilter = f"[{chars}]"

    def _apply_prefilter(self, batch: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        mask = pc.match_substring_regex(batch.column("text"), self._prefilter)
        if (pc.sum(mask).as_py() or 0) < batch.num_rows:
            batch = batch.filter(mask)
        return batch


# Import-side column caps at the persist boundary (S5): the reference
# truncates stored address fields before DB insert
# (persist/AddressPersister.java:106-115): text<=100, road<=8, road_num<=10.
# Applied identically in the oracle corpus build so both corpora agree.
IMPORT_CAPS = {"text": 100, "road": 8, "road_num": 10}


def apply_import_caps(addr) -> None:
    if len(addr.text) > IMPORT_CAPS["text"]:
        addr.text = addr.text[:IMPORT_CAPS["text"]]
    if len(addr.road) > IMPORT_CAPS["road"]:
        addr.road = addr.road[:IMPORT_CAPS["road"]]
    if len(addr.road_num) > IMPORT_CAPS["road_num"]:
        addr.road_num = addr.road_num[:IMPORT_CAPS["road_num"]]


def _query_columns(queries: list[tuple]) -> dict[str, pa.Array]:
    """``query_key`` tuples -> one string column per ``QUERY_COLUMNS`` name."""
    cols = zip(*queries) if queries else [()] * len(QUERY_COLUMNS)
    return {name: pa.array(list(col), pa.string())
            for name, col in zip(QUERY_COLUMNS, cols)}


def _region_ids(addr):
    """(least_region_id, hierarchy chain ids root-ward, collapsed)."""
    chain = [addr.village, addr.town, addr.street, addr.district, addr.city, addr.province]
    ids = []
    for r in chain:
        if r is not None and (not ids or ids[-1] != r.id):
            ids.append(r.id)
    return (ids[0] if ids else 0), ids


class CorpusInterpretStage(_RegionStateMixin):
    """addresses(addr_id, text) -> doc-vector rows (one per interpretable address).

    Output columns: addr_id, district_key, town, village, road, road_num,
    residual (the analyse() inputs — tokens re-derived deterministically at
    load), plus term_keys (list<string>) for the distributed IDF groupby (A1).
    """

    def __init__(self, region_ref):
        self._init_interpreter(region_ref)

    def __call__(self, batch: pa.Table) -> pa.Table:
        from ..kernel.document import analyse, term_idf_key
        from ..kernel.npindex import district_bucket

        it = self.interpreter
        addr_ids, queries, term_keys = [], [], []
        for addr_id, text in zip(batch.column("addr_id").to_pylist(),
                                 batch.column("text").to_pylist()):
            a = it.interpret(text)
            if a is None or a.city is None or a.district is None:
                continue
            a.id = addr_id
            apply_import_caps(a)  # persist-boundary caps (S5)
            addr_ids.append(addr_id)
            queries.append(query_key(a))
            term_keys.append([term_idf_key(t) for t in analyse(a).terms])
        return pa.table({
            "bucket": pa.array([district_bucket(q[0]) for q in queries], pa.int32()),
            "addr_id": pa.array(addr_ids, pa.int64()),
            **_query_columns(queries),
            "term_keys": pa.array(term_keys, pa.list_(pa.string())),
        })


class MentionStage(_RegionStateMixin):
    """transcripts -> one row per detected address mention.

    Output: conv_id, turn_idx, mention_idx (scan order within the turn), role,
    district_key, town, village, road, road_num, residual, least_region_id,
    region_chain (list<int64>, leaf->root).
    """

    def __init__(self, region_ref):
        self._init_interpreter(region_ref)
        self._init_prefilter()

    def __call__(self, batch: pa.Table) -> pa.Table:
        batch = self._apply_prefilter(batch)
        it = self.interpreter
        out = {k: [] for k in ("conv_id", "turn_idx", "mention_idx", "role",
                               "least_region_id", "region_chain")}
        queries = []
        for conv_id, turn_idx, role, text in zip(
            batch.column("conv_id").to_pylist(),
            batch.column("turn_idx").to_pylist(),
            batch.column("role").to_pylist(),
            batch.column("text").to_pylist(),
        ):
            if not text:
                continue
            for mention_idx, m in enumerate(find_mentions(text, it)):
                least, chain = _region_ids(m.addr)
                out["conv_id"].append(conv_id)
                out["turn_idx"].append(turn_idx)
                out["mention_idx"].append(mention_idx)
                out["role"].append(role)
                queries.append(query_key(m.addr))
                out["least_region_id"].append(least)
                out["region_chain"].append(chain)
        return pa.table({
            "conv_id": pa.array(out["conv_id"], pa.string()),
            "turn_idx": pa.array(out["turn_idx"], pa.int32()),
            "mention_idx": pa.array(out["mention_idx"], pa.int32()),
            "role": pa.array(out["role"], pa.string()),
            **_query_columns(queries),
            "least_region_id": pa.array(out["least_region_id"], pa.int64()),
            "region_chain": pa.array(out["region_chain"], pa.list_(pa.int64())),
        })
