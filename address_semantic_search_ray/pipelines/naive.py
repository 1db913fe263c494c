"""Single-process oracle twins for the non-SQL-expressible queries.

Each ``write_*`` function recomputes one operator's expected output with
plain loops and dicts — no Ray, no shared orchestration code — and writes it
to a parquet file that the static ``oracle_sql`` strings read back with
DuckDB. The driver then compares the distributed Ray pipeline against these
independently-derived tables (rows + schema + value hash), closing the
verification gap the rows-only check left open.

What is and is not independent, per operator:
- signature *definitions* (the minhash a/b constants, blake2b digest sizes,
  the simhash bit rule, the LSH plane seed) are the operator spec and are
  shared or re-derived identically;
- everything the Ray pipeline distributes — banding, bucket grouping,
  candidate pairing, verify joins, top-k reduces, per-conv canonicalization,
  accumulation — is recomputed here with sequential loops, so a partitioning
  / shuffle / ordering / dedup bug in the pipeline shows up as a mismatch.
  (The simhash precision bug fixed in round 2 — float64 promotion truncating
  signature bits — is exactly the class this layer catches.)

Everything is cached by an input-fingerprint marker: the naive pass runs once
per (sf, inputs) and only at correctness scale (it is O(corpus) Python).
"""

from __future__ import annotations

import hashlib
import os
import zlib

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq

WORK_ROOT = "/tmp/asr_entry_work"


def oracle_dir(sf: float) -> str:
    return os.path.join(WORK_ROOT, f"sf{sf:g}", "oracle")


def _fingerprint(*paths: str) -> str:
    # this module's own source is part of the key: any change to a twin's
    # definitions (e.g. the minhash multipliers) invalidates cached oracle
    # parquet automatically — a stale twin would silently pass a stale gate
    parts = [hashlib.blake2b(open(__file__, "rb").read(),
                             digest_size=8).hexdigest()]
    for p in paths:
        files = sorted(
            os.path.join(p, f) for f in os.listdir(p)) if os.path.isdir(p) else [p]
        for f in files:
            st = os.stat(f)
            parts.append(f"{f}:{st.st_size}:{st.st_mtime_ns}")
    return hashlib.blake2b("|".join(parts).encode(), digest_size=8).hexdigest()


def _cached(out_dir: str, name: str, fp: str) -> bool:
    marker = os.path.join(out_dir, f"_{name}.fp")
    if os.path.exists(marker) and open(marker).read() == fp and \
            os.path.exists(os.path.join(out_dir, f"{name}.parquet")):
        return True
    return False


def _mark(out_dir: str, name: str, fp: str) -> None:
    with open(os.path.join(out_dir, f"_{name}.fp"), "w") as f:
        f.write(fp)


# -- documents-table operators ----------------------------------------------

def _simhash64_naive(text: str) -> int:
    """Pure-python-int simhash (no numpy): the bit-accumulate rule applied
    one word at a time — deliberately a different implementation from
    stages.dedup.simhash64 (which this caught truncating bits via float64)."""
    acc = [0] * 64
    for w in text.split(" "):
        h = int.from_bytes(hashlib.blake2b(w.encode(), digest_size=8).digest(), "big")
        for i in range(64):
            acc[i] += 1 if (h >> i) & 1 else -1
    out = 0
    for i in range(64):
        if acc[i] > 0:
            out |= 1 << i
    return out


def write_simhash_sigs(documents_path: str, out_dir: str) -> None:
    """(doc_id, simhash) with the signature stored as the signed-int64 bit
    pattern, so DuckDB's ``bit_count(xor(a, b))`` is the Hamming distance."""
    fp = _fingerprint(documents_path)
    if _cached(out_dir, "simhash_sigs", fp):
        return
    t = pq.read_table(documents_path, columns=["doc_id", "text"])
    ids, sigs = [], []
    for doc_id, text in zip(t.column("doc_id").to_pylist(), t.column("text").to_pylist()):
        s = _simhash64_naive(text)
        ids.append(doc_id)
        sigs.append(s - (1 << 64) if s >= (1 << 63) else s)
    pq.write_table(pa.table({"doc_id": pa.array(ids, pa.int64()),
                             "simhash": pa.array(sigs, pa.int64())}),
                   os.path.join(out_dir, "simhash_sigs.parquet"))
    _mark(out_dir, "simhash_sigs", fp)


_N_MINHASH = 64
_N_BANDS = 8
_MERSENNE = (1 << 61) - 1
# 56-bit multipliers; the distributed side (stages/dedup.py) computes the
# same (a*x + b) mod M EXACTLY in uint64 via a split-multiply rotate, so the
# two implementations are bit-identical by construction, not just
# agreement-after-verify
_A = [int.from_bytes(hashlib.blake2b(b"a%d" % i, digest_size=7).digest(), "big") | 1
      for i in range(_N_MINHASH)]
_B = [int.from_bytes(hashlib.blake2b(b"b%d" % i, digest_size=7).digest(), "big")
      for i in range(_N_MINHASH)]


def _word_shingles(text: str, k: int = 3) -> set:
    words = text.split(" ")
    if len(words) < k:
        return {" ".join(words)}
    return {" ".join(words[i:i + k]) for i in range(len(words) - k + 1)}


def write_minhash_bands(documents_path: str, out_dir: str) -> None:
    """(doc_id, band_id, band_hash): per-doc minhash signature banded, all in
    python-int arithmetic. The SQL oracle derives candidate pairs and the
    exact shingle-Jaccard verify from this + the raw documents table."""
    fp = _fingerprint(documents_path)
    if _cached(out_dir, "minhash_bands", fp):
        return
    t = pq.read_table(documents_path, columns=["doc_id", "text"])
    per_band = _N_MINHASH // _N_BANDS
    ids, bands, hashes = [], [], []
    for doc_id, text in zip(t.column("doc_id").to_pylist(), t.column("text").to_pylist()):
        shingle_hashes = [zlib.crc32(s.encode()) for s in _word_shingles(text)]
        sig = [min((_A[i] * x + _B[i]) % _MERSENNE for x in shingle_hashes)
               for i in range(_N_MINHASH)]
        for b in range(_N_BANDS):
            seg = np.asarray(sig[b * per_band:(b + 1) * per_band], dtype=np.uint64)
            h = int.from_bytes(
                hashlib.blake2b(seg.tobytes(), digest_size=8).digest(), "big") >> 1
            ids.append(doc_id)
            bands.append(b)
            hashes.append(h)
    pq.write_table(pa.table({"doc_id": pa.array(ids, pa.int64()),
                             "band_id": pa.array(bands, pa.int64()),
                             "band_hash": pa.array(hashes, pa.int64())}),
                   os.path.join(out_dir, "minhash_bands.parquet"))
    _mark(out_dir, "minhash_bands", fp)


def write_fingerprints(documents_path: str, out_dir: str) -> None:
    """Expected winnowing fingerprints, recomputed with a fresh loop."""
    fp = _fingerprint(documents_path)
    if _cached(out_dir, "fingerprints", fp):
        return
    t = pq.read_table(documents_path, columns=["doc_id", "text"])
    ids, fps = [], []
    for doc_id, text in zip(t.column("doc_id").to_pylist(), t.column("text").to_pylist()):
        words = text.split(" ")
        n_grams = max(len(words) - 2, 1)
        grams = [zlib.crc32(" ".join(words[i:i + 3]).encode()) for i in range(n_grams)]
        if len(grams) < 4:
            val = min(grams)
        else:
            val = 0
            for i in range(len(grams) - 3):
                val ^= min(grams[i:i + 4])
        ids.append(doc_id)
        fps.append(val)
    pq.write_table(pa.table({"doc_id": pa.array(ids, pa.int64()),
                             "fingerprint": pa.array(fps, pa.int64())}),
                   os.path.join(out_dir, "fingerprints.parquet"))
    _mark(out_dir, "fingerprints", fp)


def write_lsh_topk(embeddings_path: str, out_dir: str, k: int = 5,
                   n_queries: int = 5, n_bits: int = 6) -> None:
    """Expected LSH-bucketed ANN result: bucket every vector by the shared
    plane signs (the plane seed is spec), then for each query vector probe
    only its own bucket with a plain cosine loop + (cos desc, vec_id asc)
    top-k — the Ray pipeline's partial/final reduce must agree."""
    from ..stages import vector as _vec

    fp = _fingerprint(embeddings_path, _vec.__file__)
    if _cached(out_dir, "lsh_topk", fp):
        return
    from ..stages.vector import lsh_planes

    t = pq.read_table(embeddings_path, columns=["vec_id", "embedding"])
    ids = t.column("vec_id").to_pylist()
    mat = np.stack([np.asarray(v, dtype=np.float64) for v in
                    t.column("embedding").to_pylist()])
    planes = lsh_planes(mat.shape[1], n_bits=n_bits)
    bits = (mat @ planes.T) > 0
    buckets = np.zeros(len(ids), dtype=np.int64)
    for b in range(n_bits):
        buckets |= bits[:, b].astype(np.int64) << b
    norms = np.linalg.norm(mat, axis=1)
    norms[norms == 0] = 1.0
    unit = mat / norms[:, None]

    rows = []
    for qi, qid in enumerate(ids):
        if qid >= n_queries:
            continue
        members = [i for i in range(len(ids))
                   if buckets[i] == buckets[qi] and ids[i] != qid]
        scored = sorted(((float(unit[qi] @ unit[i]), ids[i]) for i in members),
                        key=lambda p: (-p[0], p[1]))[:k]
        for rank, (cos, vid) in enumerate(scored, start=1):
            rows.append((qid, vid, round(cos, 6), rank))
    rows.sort()
    pq.write_table(pa.table({
        "query_id": pa.array([r[0] for r in rows], pa.int64()),
        "vec_id": pa.array([r[1] for r in rows], pa.int64()),
        "cos": pa.array([r[2] for r in rows], pa.float64()),
        "rank": pa.array([r[3] for r in rows], pa.int64()),
    }), os.path.join(out_dir, "lsh_topk.parquet"))
    _mark(out_dir, "lsh_topk", fp)


def write_lsh_buckets(embeddings_path: str, out_dir: str, n_bits: int = 4) -> None:
    """(vec_id, bucket): per-vector LSH bucket recomputed with a plain loop
    (plane seed is spec). The SQL oracle joins embeddings on equal buckets
    and re-does the cosine threshold itself."""
    from ..stages import vector as _vec

    fp = _fingerprint(embeddings_path, _vec.__file__) + f":{n_bits}"
    if _cached(out_dir, "lsh_buckets", fp):
        return
    from ..stages.vector import lsh_planes

    t = pq.read_table(embeddings_path, columns=["vec_id", "embedding"])
    ids = t.column("vec_id").to_pylist()
    vecs = t.column("embedding").to_pylist()
    planes = lsh_planes(len(vecs[0]), n_bits=n_bits)
    buckets = []
    for v in vecs:
        arr = np.asarray(v, dtype=np.float64)
        b = 0
        for bit in range(n_bits):
            if float(arr @ planes[bit]) > 0:
                b |= 1 << bit
        buckets.append(b)
    pq.write_table(pa.table({"vec_id": pa.array(ids, pa.int64()),
                             "bucket": pa.array(buckets, pa.int64())}),
                   os.path.join(out_dir, "lsh_buckets.parquet"))
    _mark(out_dir, "lsh_buckets", fp)


def write_ivf(embeddings_path: str, out_dir: str, n_queries: int = 5,
              nlist: int = 16, nprobe: int = 4) -> None:
    """(vec_id, list_id) inverted-file assignments + (query_id, list_id)
    probe lists, recomputed with plain loops (the k-means trainer is spec,
    shared). The SQL oracle joins these and re-does the per-query scan +
    top-k ranking itself in DuckDB."""
    from ..stages import vector as _vec

    fp = _fingerprint(embeddings_path, _vec.__file__) \
        + f":{n_queries}:{nlist}:{nprobe}"
    if _cached(out_dir, "ivf_assign", fp) and _cached(out_dir, "ivf_probes", fp):
        return
    from ..stages.vector import ivf_train

    t = pq.read_table(embeddings_path, columns=["vec_id", "embedding"])
    ids = t.column("vec_id").to_pylist()
    vecs = [np.asarray(v, dtype=np.float64) for v in t.column("embedding").to_pylist()]
    centroids = ivf_train(np.stack(vecs[:4096]), nlist=nlist)

    def _unit(v):
        n = float(np.linalg.norm(v))
        return v / (n if n else 1.0)

    assigns = []
    for v in vecs:
        u = _unit(v)
        best, best_s = 0, -2.0
        for c in range(len(centroids)):
            s = float(u @ centroids[c])
            if s > best_s:
                best, best_s = c, s
        assigns.append(best)
    pq.write_table(pa.table({"vec_id": pa.array(ids, pa.int64()),
                             "list_id": pa.array(assigns, pa.int64())}),
                   os.path.join(out_dir, "ivf_assign.parquet"))
    _mark(out_dir, "ivf_assign", fp)

    q_rows, l_rows = [], []
    for vid, v in zip(ids, vecs):
        if vid >= n_queries:
            continue
        u = _unit(v)
        sims = sorted(((float(u @ centroids[c]), -c) for c in range(len(centroids))),
                      reverse=True)
        for s, negc in sims[:nprobe]:
            q_rows.append(vid)
            l_rows.append(-negc)
    pq.write_table(pa.table({"query_id": pa.array(q_rows, pa.int64()),
                             "list_id": pa.array(l_rows, pa.int64())}),
                   os.path.join(out_dir, "ivf_probes.parquet"))
    _mark(out_dir, "ivf_probes", fp)


def write_pq_scores(embeddings_path: str, out_dir: str, n_queries: int = 5,
                    m: int = 16, ksub: int = 256) -> None:
    """Full (query, vec) product-quantization ADC score table recomputed
    with plain loops — per-vector codes by scanning every codebook entry,
    per-query LUT sums term by term (the per-subspace k-means trainer is
    spec, shared, like write_ivf). Scores round to 6 dp; the SQL oracle
    re-does the per-query ranking itself in DuckDB."""
    from ..stages import vector as _vec
    from ..stages.vector import pq_train

    # the shared-spec trainer's source is part of the key: retraining-
    # relevant changes to stages/vector.py invalidate the cached twin
    fp = _fingerprint(embeddings_path, _vec.__file__) \
        + f":{n_queries}:{m}:{ksub}"
    if _cached(out_dir, "pq_scores", fp):
        return

    t = pq.read_table(embeddings_path, columns=["vec_id", "embedding"])
    ids = t.column("vec_id").to_pylist()
    vecs = [np.asarray(v, dtype=np.float64)
            for v in t.column("embedding").to_pylist()]
    books = pq_train(np.stack(vecs[:4096]), m=m, ksub=ksub)
    dsub = books.shape[2]

    def _unit(v):
        n = float(np.linalg.norm(v))
        return v / (n if n else 1.0)

    codes = []
    for v in vecs:
        u = _unit(v)
        row = []
        for s in range(m):
            sv = u[s * dsub:(s + 1) * dsub]
            best, best_d = 0, None
            for c in range(ksub):
                dd = ((sv - books[s][c]) ** 2).sum()
                if best_d is None or dd < best_d:
                    best, best_d = c, dd
            row.append(best)
        codes.append(row)

    q_rows, v_rows, s_rows = [], [], []
    for qid, qv in zip(ids, vecs):
        if qid >= n_queries:
            continue
        u = _unit(qv)
        lut = [u[s * dsub:(s + 1) * dsub] @ books[s].T for s in range(m)]
        for vid, code in zip(ids, codes):
            sc = np.asarray([lut[s][code[s]] for s in range(m)],
                            dtype=np.float64).sum()
            q_rows.append(qid)
            v_rows.append(vid)
            s_rows.append(round(float(np.round(sc, 6)), 6))
    pq.write_table(pa.table({"query_id": pa.array(q_rows, pa.int64()),
                             "vec_id": pa.array(v_rows, pa.int64()),
                             "score": pa.array(s_rows, pa.float64())}),
                   os.path.join(out_dir, "pq_scores.parquet"))
    _mark(out_dir, "pq_scores", fp)


def write_kmeans(embeddings_path: str, out_dir: str, k: int = 8,
                 n_iters: int = 5) -> None:
    """Final spherical-k-means centroids recomputed single-process: same
    seed rule (k smallest vec_ids) and per-step rounding as the pipeline,
    but the per-cluster sums accumulate in a plain sequential per-row loop
    — the seam this twin verifies is the DISTRIBUTED per-shard partial-sum
    fold (assignment math is re-verified independently by the DuckDB
    oracle's argmax-cosine; normalize_rows is shared as spec, like
    ivf_train). Writes (cluster, centroid) for the SQL side to assign
    against."""
    from ..stages import vector as _vec

    fp = _fingerprint(embeddings_path, _vec.__file__) + f":{k}:{n_iters}"
    if _cached(out_dir, "kmeans_centroids", fp):
        return
    from ..stages.vector import normalize_rows

    t = pq.read_table(embeddings_path, columns=["vec_id", "embedding"])
    ids = np.asarray(t.column("vec_id").to_pylist(), dtype=np.int64)
    out_path = os.path.join(out_dir, "kmeans_centroids.parquet")
    if not len(ids):
        pq.write_table(pa.table({
            "cluster": pa.array([], pa.int64()),
            "centroid": pa.array([], pa.list_(pa.float64()))}), out_path)
        _mark(out_dir, "kmeans_centroids", fp)
        return
    mat = normalize_rows(
        np.stack(t.column("embedding").to_pandas().to_numpy()).astype(np.float64))
    kk = min(k, len(ids))
    cents = np.round(mat[np.argsort(ids, kind="stable")[:kk]], 7)
    for _ in range(n_iters):
        cu = normalize_rows(cents)
        assign = np.argmax(mat @ cu.T, axis=1)
        sums = np.zeros_like(cents)
        counts = np.zeros(kk, dtype=np.int64)
        for r in range(len(ids)):  # sequential adds: the reference order
            sums[assign[r]] += mat[r]
            counts[assign[r]] += 1
        nz = counts > 0
        new = cents.copy()
        new[nz] = np.round(normalize_rows(sums[nz] / counts[nz, None]), 7)
        cents = new
    pq.write_table(pa.table({
        "cluster": pa.array(np.arange(kk, dtype=np.int64), pa.int64()),
        "centroid": pa.array([row.tolist() for row in cents],
                             pa.list_(pa.float64()))}), out_path)
    _mark(out_dir, "kmeans_centroids", fp)


# -- KG / address-kernel operators ------------------------------------------

def write_kg_oracle(data_dir: str, out_dir: str, region_dict_path: str | None = None) -> None:
    """Expected kg_triples (via the sequential oracle pipeline) and
    kg_mentions (a fresh single-process scan of the transcripts)."""
    from ..kernel.interpreter import Interpreter
    from ..kernel.mentions import district_key, find_mentions
    from ..kernel.regions import RegionDict
    from .oracle import default_region_dict_path, run_oracle

    region_dict_path = region_dict_path or default_region_dict_path()
    transcripts_path = os.path.join(data_dir, "transcripts.parquet")
    addresses_path = os.path.join(data_dir, "addresses.parquet")
    fp = _fingerprint(transcripts_path, addresses_path, region_dict_path)
    if _cached(out_dir, "kg_triples", fp) and _cached(out_dir, "kg_mentions", fp):
        return

    triples = run_oracle(data_dir, region_dict_path)
    pq.write_table(triples, os.path.join(out_dir, "kg_triples.parquet"))
    _mark(out_dir, "kg_triples", fp)

    interpreter = Interpreter(RegionDict.from_parquet(region_dict_path))
    t = pq.read_table(transcripts_path, columns=["conv_id", "turn_idx", "role", "text"])
    cols: dict[str, list] = {k: [] for k in (
        "conv_id", "turn_idx", "mention_idx", "role", "district_key", "town",
        "village", "road", "road_num", "residual", "least_region_id")}
    for conv_id, turn_idx, role, text in zip(
        t.column("conv_id").to_pylist(), t.column("turn_idx").to_pylist(),
        t.column("role").to_pylist(), t.column("text").to_pylist(),
    ):
        if not text:
            continue
        for mention_idx, m in enumerate(find_mentions(text, interpreter)):
            a = m.addr
            least = a.least_region()
            cols["conv_id"].append(conv_id)
            cols["turn_idx"].append(turn_idx)
            cols["mention_idx"].append(mention_idx)
            cols["role"].append(role)
            cols["district_key"].append(district_key(a))
            cols["town"].append(a.town.name if a.town is not None else "")
            cols["village"].append(a.village.name if a.village is not None else "")
            cols["road"].append(a.road)
            cols["road_num"].append(a.road_num)
            cols["residual"].append(a.text)
            cols["least_region_id"].append(least.id if least is not None else 0)
    pq.write_table(pa.table({
        "conv_id": pa.array(cols["conv_id"], pa.string()),
        "turn_idx": pa.array(cols["turn_idx"], pa.int32()),
        "mention_idx": pa.array(cols["mention_idx"], pa.int32()),
        "role": pa.array(cols["role"], pa.string()),
        "district_key": pa.array(cols["district_key"], pa.string()),
        "town": pa.array(cols["town"], pa.string()),
        "village": pa.array(cols["village"], pa.string()),
        "road": pa.array(cols["road"], pa.string()),
        "road_num": pa.array(cols["road_num"], pa.string()),
        "residual": pa.array(cols["residual"], pa.string()),
        "least_region_id": pa.array(cols["least_region_id"], pa.int64()),
    }), os.path.join(out_dir, "kg_mentions.parquet"))
    _mark(out_dir, "kg_mentions", fp)


def write_town_mining(data_dir: str, out_dir: str, region_dict_path: str | None = None) -> None:
    """Expected E4 output: sequential mining over the address corpus, then the
    same promotion rule (seq ordered by name, id = parent*10000 + seq)."""
    from ..kernel.interpreter import Interpreter
    from ..kernel.regions import RegionDict
    from .oracle import default_region_dict_path

    region_dict_path = region_dict_path or default_region_dict_path()
    addresses_path = os.path.join(data_dir, "addresses.parquet")
    fp = _fingerprint(addresses_path, region_dict_path)
    if _cached(out_dir, "town_mining", fp):
        return
    interpreter = Interpreter(RegionDict.from_parquet(region_dict_path))
    t = pq.read_table(addresses_path, columns=["text"])
    by_district: dict[int, set] = {}
    for text in t.column("text").to_pylist():
        towns: dict = {}
        interpreter.extract_town_village_text(text, interpreter.visitor, towns)
        for did, names in towns.items():
            by_district.setdefault(did, set()).update(names)
    rows = []
    for did in sorted(by_district):
        for seq, name in enumerate(sorted(by_district[did]), start=1):
            rtype = 410 if name.endswith("村") else 400
            rows.append((did * 10000 + seq, did, rtype, name))
    pq.write_table(pa.table({
        "id": pa.array([r[0] for r in rows], pa.int64()),
        "parent_id": pa.array([r[1] for r in rows], pa.int64()),
        "type": pa.array([r[2] for r in rows], pa.int64()),
        "name": pa.array([r[3] for r in rows], pa.string()),
    }), os.path.join(out_dir, "town_mining.parquet"))
    _mark(out_dir, "town_mining", fp)


def write_regression(data_dir: str, out_dir: str, region_dict_path: str | None = None) -> None:
    """Expected E5 accuracy buckets: sequential corpus index build + per-row
    interpret/link/compare with plain counters."""
    from ..kernel.document import analyse
    from ..kernel.interpreter import Interpreter
    from ..kernel.mentions import district_key
    from ..kernel.regions import RegionDict
    from ..kernel.similarity import find_similar
    from ..sources.readers import parse_regression_line
    from .oracle import build_corpus_index, default_region_dict_path

    region_dict_path = region_dict_path or default_region_dict_path()
    addresses_path = os.path.join(data_dir, "addresses.parquet")
    csv_path = os.path.join(data_dir, "regression.csv")
    fp = _fingerprint(addresses_path, csv_path, region_dict_path)
    if _cached(out_dir, "regression", fp):
        return
    interpreter = Interpreter(RegionDict.from_parquet(region_dict_path))
    addresses = pq.read_table(addresses_path)
    index = build_corpus_index(addresses, interpreter)
    grid_by_addr = dict(zip(addresses.column("addr_id").to_pylist(),
                            addresses.column("grid_id").to_pylist()))
    hs = hf = ls = lf = zero = 0
    for line in open(csv_path, encoding="utf-8"):
        row = parse_regression_line(line)
        if row is None:
            continue
        a = interpreter.interpret(row["text"])
        linked_grid, sim = "", 0.0
        if a is not None and a.province is not None and a.city is not None \
                and a.district is not None:
            entry = index.get(district_key(a))
            if entry is not None:
                docs, idf = entry
                q = analyse(a, idf_lookup=idf, doc_id=-1)
                top = find_similar(q, docs, top_n=1)
                if top:
                    linked_grid = grid_by_addr.get(top[0][0], "")
                    sim = top[0][1]
        if sim <= 0:
            zero += 1
        elif sim >= 0.85:
            hs, hf = (hs + 1, hf) if linked_grid == row["grid_id"] else (hs, hf + 1)
        else:
            ls, lf = (ls + 1, lf) if linked_grid == row["grid_id"] else (ls, lf + 1)
    pq.write_table(pa.table({
        "hs": pa.array([hs], pa.int64()), "hf": pa.array([hf], pa.int64()),
        "ls": pa.array([ls], pa.int64()), "lf": pa.array([lf], pa.int64()),
        "zero": pa.array([zero], pa.int64()),
    }), os.path.join(out_dir, "regression.parquet"))
    _mark(out_dir, "regression", fp)


# -- correctness scale -------------------------------------------------------

MAX_NAIVE_SF = 0.02  # the naive pass is O(corpus) Python: correctness scales only


def write_links_explain(data_dir: str, out_dir: str, top_n: int = 2,
                        region_dict_path: str | None = None) -> None:
    """Expected kg_links_explain: a fresh single-process mention scan +
    explain-mode scoring (one row per candidate rank per matched term).
    The per-mention loop, candidate ordering, and row explosion are all
    recomputed sequentially here; the Ray side distributes them."""
    from ..kernel.document import doc_from_fields
    from ..kernel.interpreter import Interpreter
    from ..kernel.mentions import district_key, find_mentions
    from ..kernel.regions import RegionDict
    from ..kernel.similarity import find_similar_explain
    from .oracle import build_corpus_index, default_region_dict_path

    region_dict_path = region_dict_path or default_region_dict_path()
    transcripts_path = os.path.join(data_dir, "transcripts.parquet")
    addresses_path = os.path.join(data_dir, "addresses.parquet")
    fp = _fingerprint(transcripts_path, addresses_path, region_dict_path) + f":{top_n}"
    if _cached(out_dir, "kg_links_explain", fp):
        return

    interpreter = Interpreter(RegionDict.from_parquet(region_dict_path))
    index = build_corpus_index(
        pq.read_table(addresses_path, columns=["addr_id", "text"]), interpreter)

    t = pq.read_table(transcripts_path, columns=["conv_id", "turn_idx", "text"])
    cols: dict[str, list] = {k: [] for k in (
        "conv_id", "turn_idx", "mention_idx", "rank", "linked_addr", "score",
        "term_text", "term_type", "boost", "tfidf", "density", "coord")}
    for conv_id, turn_idx, text in zip(
        t.column("conv_id").to_pylist(), t.column("turn_idx").to_pylist(),
        t.column("text").to_pylist(),
    ):
        if not text:
            continue
        for mention_idx, m in enumerate(find_mentions(text, interpreter)):
            a = m.addr
            entry = index.get(district_key(a))
            if entry is None:
                continue
            docs, idf = entry
            q = doc_from_fields(
                -1, a.town.name if a.town is not None else "",
                a.village.name if a.village is not None else "",
                a.road, a.road_num, a.text, idf_lookup=idf)
            for rank, (doc_id, sim, matched) in enumerate(
                    find_similar_explain(q, docs, top_n=top_n)):
                for mt in matched:
                    cols["conv_id"].append(conv_id)
                    cols["turn_idx"].append(turn_idx)
                    cols["mention_idx"].append(mention_idx)
                    cols["rank"].append(rank)
                    cols["linked_addr"].append(doc_id)
                    cols["score"].append(round(sim, 6))
                    cols["term_text"].append(mt["text"])
                    cols["term_type"].append(mt["type"])
                    cols["boost"].append(mt["boost"])
                    cols["tfidf"].append(round(mt["tfidf"], 6))
                    cols["density"].append(round(mt["density"], 6))
                    cols["coord"].append(round(mt["coord"], 6))
    pq.write_table(pa.table({
        "conv_id": pa.array(cols["conv_id"], pa.string()),
        "turn_idx": pa.array(cols["turn_idx"], pa.int32()),
        "mention_idx": pa.array(cols["mention_idx"], pa.int32()),
        "rank": pa.array(cols["rank"], pa.int32()),
        "linked_addr": pa.array(cols["linked_addr"], pa.int64()),
        "score": pa.array(cols["score"], pa.float64()),
        "term_text": pa.array(cols["term_text"], pa.string()),
        "term_type": pa.array(cols["term_type"], pa.string()),
        "boost": pa.array(cols["boost"], pa.float64()),
        "tfidf": pa.array(cols["tfidf"], pa.float64()),
        "density": pa.array(cols["density"], pa.float64()),
        "coord": pa.array(cols["coord"], pa.float64()),
    }), os.path.join(out_dir, "kg_links_explain.parquet"))
    _mark(out_dir, "kg_links_explain", fp)


def write_hll_estimates(events_path: str, out_dir: str) -> None:
    """(event_type, n_users_est): sequential single-process HLL over each
    type's user ids — same kernel (stages/sketch.py) as the distributed
    operator, so the estimates are bit-identical, not tolerance-matched."""
    from ..stages import sketch
    from ..stages.sketch import estimate, fold_registers, register_updates

    fp = _fingerprint(events_path, sketch.__file__)
    if _cached(out_dir, "hll_users", fp):
        return
    t = pq.read_table(events_path, columns=["event_type", "user_id"])
    by_type: dict = {}
    for et, uid in zip(t.column("event_type").to_pylist(),
                       t.column("user_id").to_pylist()):
        by_type.setdefault(et, []).append(uid)
    types = sorted(by_type)
    ests = []
    for et in types:
        regs, rhos = register_updates(np.asarray(by_type[et], dtype=np.int64))
        ests.append(round(estimate(fold_registers(regs, rhos)), 4))
    pq.write_table(
        pa.table({"event_type": pa.array(types),
                  "n_users_est": pa.array(ests, pa.float64())}),
        os.path.join(out_dir, "hll_users.parquet"))
    _mark(out_dir, "hll_users", fp)


def write_bloom_unseen_users(events_path: str, out_dir: str,
                             step_a: str = "signup",
                             step_b: str = "purchase") -> None:
    """(user_id, maybe_seen): every distinct step_b user probed against the
    step_a Bloom filter — single-process fold + probe with the same
    kernel (stages/sketch.py) as the distributed operator; bitwise OR is
    associative and idempotent, so the filter and every probe are
    bit-identical. (No false negatives: 'absent' answers are certain; the
    sketch's false positives only shrink this list the same way on both
    sides.)"""
    from ..stages import sketch
    from ..stages.sketch import bloom_fold, bloom_probe

    fp = _fingerprint(events_path, sketch.__file__) + f":{step_a}:{step_b}:v2"
    if _cached(out_dir, "bloom_unseen_users", fp):
        return
    t = pq.read_table(events_path, columns=["event_type", "user_id"])
    et = np.asarray(t.column("event_type").to_pylist())
    ids = np.asarray(t.column("user_id").to_pylist(), dtype=np.int64)
    filt = bloom_fold(ids[et == step_a])
    probe_ids = np.unique(ids[et == step_b])
    seen = bloom_probe(filt, probe_ids)
    pq.write_table(
        pa.table({"user_id": pa.array(probe_ids, pa.int64()),
                  "maybe_seen": pa.array(seen, pa.bool_())}),
        os.path.join(out_dir, "bloom_unseen_users.parquet"))
    _mark(out_dir, "bloom_unseen_users", fp)


def write_cms_heavy_users(events_path: str, out_dir: str,
                          min_count: int = 50) -> None:
    """(user_id, n_est): single-process Count-Min fold + probe with the same
    kernel (stages/sketch.py) as the distributed operator — integer sums are
    associative, so the tables and estimates are bit-identical."""
    from ..stages import sketch
    from ..stages.sketch import cms_fold, cms_probe

    # min_count shapes the written table: it is part of the cache key (the
    # write_links_explain f':{top_n}' pattern) or a differently-thresholded
    # run would silently reuse a stale oracle
    fp = _fingerprint(events_path, sketch.__file__) + f":{min_count}"
    if _cached(out_dir, "cms_heavy_users", fp):
        return
    t = pq.read_table(events_path, columns=["user_id"])
    ids = np.asarray(t.column("user_id").to_pylist(), dtype=np.int64)
    table = cms_fold(ids)
    distinct = np.unique(ids)
    est = cms_probe(table, distinct)
    keep = est >= min_count
    pq.write_table(
        pa.table({"user_id": pa.array(distinct[keep], pa.int64()),
                  "n_est": pa.array(est[keep], pa.int64())}),
        os.path.join(out_dir, "cms_heavy_users.parquet"))
    _mark(out_dir, "cms_heavy_users", fp)
