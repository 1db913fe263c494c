"""Actor-pool interpretation stages (stateful ``map_batches`` UDFs).

Design (SURVEY.md §2.3/§7): the region dictionary (~48k rows, ~1 MB Arrow) is
``ray.put`` ONCE on the driver; every actor fetches it in ``__init__`` (one
object-store read per actor, never re-shipped per batch) and builds its own
trie + visitor — replicated read-only state, mirroring the reference's
one-visitor-per-thread rule (RegionInterpreterVisitor.java:52-56).

Batches are ``pyarrow`` in / ``pyarrow`` out (zero-copy from the object
store); the per-row trie walk is pure CPU inside the actor.
"""

from __future__ import annotations

import pyarrow as pa

from ..kernel.interpreter import Interpreter
from ..kernel.mentions import district_key, find_mentions
from ..kernel.regions import RegionDict


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

    from ..kernel import interpreter as _ki
    from ..kernel import regions as _kr
    from ..kernel import trie as _kt
    from ..kernel import visitor as _kv
    from ..state.checkpoint import code_salt

    st = os.stat(region_dict_path)
    # code-version salt: stale pickles after a kernel change must miss
    parts = [f"{os.path.abspath(region_dict_path)}:{st.st_size}:{st.st_mtime_ns}",
             code_salt(_kt, _kr, _kv, _ki)]
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
    store ONCE. Unpickling in each actor (~0.5 s) is 2-3x faster than
    rebuilding from the arrow table (~1.6 s) — it cuts the actor-pool ramp
    at every scale, and plasma stores the bytes once per node."""
    import ray

    return ray.put(region_state_bytes(region_dict_path))


class _RegionStateMixin:
    def _init_interpreter(self, region_ref):
        import pickle

        import ray

        payload = ray.get(region_ref) if not isinstance(region_ref, bytes) else region_ref
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

    def _freeze_state(self):
        """Move the (large, immutable) per-actor state out of GC's reach and
        stop cyclic GC in the hot loop. Freeze alone still leaves periodic
        young-gen collections whose heap walks contend badly under a full
        actor pool (A/B at 28 processes: +25% throughput with GC off). The
        hot loop allocates mostly acyclic objects that refcounting frees
        immediately; the rare cycle (pandas frames, caught-exception
        tracebacks) is reclaimed by the periodic ``_maybe_gc`` sweep below,
        so sustained runs stay memory-bounded."""
        import gc

        gc.collect()
        gc.freeze()
        gc.disable()
        self._gc_tick = 0

    _GC_EVERY = 512  # batches (~1M rows) between explicit cycle sweeps

    def _maybe_gc(self):
        """Amortized cycle collection while gc stays disabled: one explicit
        ``gc.collect()`` every _GC_EVERY batches costs ~ms and bounds any
        cyclic garbage the hot loop produces (tests/ADVICE round 2)."""
        self._gc_tick += 1
        if self._gc_tick >= self._GC_EVERY:
            self._gc_tick = 0
            import gc

            gc.collect()


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
        self._freeze_state()

    def __call__(self, batch: pa.Table) -> pa.Table:
        from ..kernel.document import analyse, term_idf_key
        from ..kernel.npindex import district_bucket

        it = self.interpreter
        out = {k: [] for k in ("addr_id", "district_key", "town", "village",
                               "road", "road_num", "residual", "term_keys")}
        for addr_id, text in zip(batch.column("addr_id").to_pylist(),
                                 batch.column("text").to_pylist()):
            a = it.interpret(text)
            if a is None or a.city is None or a.district is None:
                continue
            a.id = addr_id
            apply_import_caps(a)  # persist-boundary caps (S5)
            doc = analyse(a)
            out["addr_id"].append(addr_id)
            out["district_key"].append(district_key(a))
            out["town"].append(a.town.name if a.town is not None else "")
            out["village"].append(a.village.name if a.village is not None else "")
            out["road"].append(a.road)
            out["road_num"].append(a.road_num)
            out["residual"].append(a.text)
            out["term_keys"].append([term_idf_key(t) for t in doc.terms])
        self._maybe_gc()
        buckets = [district_bucket(k) for k in out["district_key"]]
        return pa.table({
            "bucket": pa.array(buckets, pa.int32()),
            "addr_id": pa.array(out["addr_id"], pa.int64()),
            "district_key": pa.array(out["district_key"], pa.string()),
            "town": pa.array(out["town"], pa.string()),
            "village": pa.array(out["village"], pa.string()),
            "road": pa.array(out["road"], pa.string()),
            "road_num": pa.array(out["road_num"], pa.string()),
            "residual": pa.array(out["residual"], pa.string()),
            "term_keys": pa.array(out["term_keys"], pa.list_(pa.string())),
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
        self._freeze_state()

    def __call__(self, batch: pa.Table) -> pa.Table:
        batch = self._apply_prefilter(batch)
        it = self.interpreter
        out = {k: [] for k in ("conv_id", "turn_idx", "mention_idx", "role", "district_key",
                               "town", "village", "road", "road_num",
                               "residual", "least_region_id", "region_chain")}
        for conv_id, turn_idx, role, text in zip(
            batch.column("conv_id").to_pylist(),
            batch.column("turn_idx").to_pylist(),
            batch.column("role").to_pylist(),
            batch.column("text").to_pylist(),
        ):
            if not text:
                continue
            for mention_idx, m in enumerate(find_mentions(text, it)):
                a = m.addr
                least, chain = _region_ids(a)
                out["conv_id"].append(conv_id)
                out["turn_idx"].append(turn_idx)
                out["mention_idx"].append(mention_idx)
                out["role"].append(role)
                out["district_key"].append(district_key(a))
                out["town"].append(a.town.name if a.town is not None else "")
                out["village"].append(a.village.name if a.village is not None else "")
                out["road"].append(a.road)
                out["road_num"].append(a.road_num)
                out["residual"].append(a.text)
                out["least_region_id"].append(least)
                out["region_chain"].append(chain)
        self._maybe_gc()
        return pa.table({
            "conv_id": pa.array(out["conv_id"], pa.string()),
            "turn_idx": pa.array(out["turn_idx"], pa.int32()),
            "mention_idx": pa.array(out["mention_idx"], pa.int32()),
            "role": pa.array(out["role"], pa.string()),
            "district_key": pa.array(out["district_key"], pa.string()),
            "town": pa.array(out["town"], pa.string()),
            "village": pa.array(out["village"], pa.string()),
            "road": pa.array(out["road"], pa.string()),
            "road_num": pa.array(out["road_num"], pa.string()),
            "residual": pa.array(out["residual"], pa.string()),
            "least_region_id": pa.array(out["least_region_id"], pa.int64()),
            "region_chain": pa.array(out["region_chain"], pa.list_(pa.int64())),
        })
