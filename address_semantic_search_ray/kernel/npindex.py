"""Flat numpy similarity index: the zero-copy, shared-memory corpus index.

Round 1 replicated a Python-object corpus index (``Doc``/``Term`` graphs +
idf dicts, ~50 MB) into every actor of a 28-actor pool; the measured result
was LLC/memory-bus saturation and 8->32-CPU scaling efficiency of ~0.5. This
module re-expresses the whole index as flat numpy arrays so that:

- ``ray.put`` stores ONE copy in plasma and every actor's ``ray.get`` returns
  read-only zero-copy views — per-node index memory is O(1) in actor count;
- district scoring runs as vectorized numpy over all docs of the district at
  once instead of a Python loop per doc (the round-1 wall-time dominator on
  skewed districts with ~1k docs).

Exact-parity contract: ``score_district`` reproduces
``similarity.compute_doc_similarity`` (SimilarityComputer.java:456-550 —
text-term coord/density, per-type boost matrix, asymmetric cosine, RoadNum
fallback) BIT-FOR-BIT: accumulation follows the same query-term order, the
same multiplication association, and the same IEEE ops, so pipelines built on
either kernel emit identical triples (asserted by tests/test_npindex.py).

Term identity is a 64-bit blake2b of the term text (no per-actor vocab
dict). Build-side collisions across the corpus vocabulary raise; the
residual risk is a query-only term colliding with a corpus term
(~V/2^64 per term, negligible and deterministic).
"""

from __future__ import annotations

import hashlib

import numpy as np

from .document import MISSING_IDF
from .roadnum import translate_road_num
from .segment import simple_segment
from .types import TermType

# int8 term-type codes for the inverted index
T_TEXT, T_TOWN, T_VILLAGE, T_ROAD, T_ROAD_NUM = 0, 1, 2, 3, 4
_TYPE_CODE = {TermType.TEXT: T_TEXT, TermType.TOWN: T_TOWN,
              TermType.VILLAGE: T_VILLAGE, TermType.ROAD: T_ROAD,
              TermType.ROAD_NUM: T_ROAD_NUM}

BOOST_M, BOOST_L, BOOST_XL, BOOST_S, BOOST_XS = 1.0, 2.0, 4.0, 0.5, 0.25


def term_hash(text: str) -> int:
    return int.from_bytes(
        hashlib.blake2b(text.encode("utf-8"), digest_size=8).digest(), "big")


# district buckets of the hive-partitioned checkpoints, the sharded
# broadcast index and the linker's bucket LRU; writer and reader must agree
N_DISTRICT_BUCKETS = 64


def district_bucket(district_key: str,
                    n_buckets: int = N_DISTRICT_BUCKETS) -> int:
    """Stable bucket for a district key (shared by the hive-partitioned
    checkpoints and the sharded broadcast index — ONE partitioning function
    reused everywhere)."""
    import zlib

    return zlib.crc32(district_key.encode()) % n_buckets


class ShardedNpIndex:
    """Bucket-sharded broadcast index: one NpCorpusIndex per district bucket.

    Built distributed (one Ray task per bucket — pipelines/kg.py), each
    payload ``ray.put`` by its build task; every actor maps the same plasma
    buffers read-only. ``find_similar`` routes by district bucket, so lookup
    semantics are identical to one big index (districts never span buckets)."""

    __slots__ = ("indexes", "n_buckets")

    def __init__(self, indexes: dict[int, "NpCorpusIndex | None"], n_buckets: int):
        self.indexes = indexes
        self.n_buckets = n_buckets

    @classmethod
    def from_payloads(cls, payloads: dict[int, dict | None]) -> "ShardedNpIndex":
        return cls(
            {b: (NpCorpusIndex.from_payload(p) if p is not None else None)
             for b, p in payloads.items()},
            n_buckets=len(payloads),
        )

    def has_district(self, district_key: str) -> bool:
        idx = self.indexes.get(district_bucket(district_key, self.n_buckets))
        return idx is not None and idx.has_district(district_key)

    def find_similar(self, district_key: str, town: str, village: str,
                     road: str, road_num: str, residual: str,
                     top_n: int = 1) -> list[tuple[int, float]]:
        idx = self.indexes.get(district_bucket(district_key, self.n_buckets))
        if idx is None:
            return []
        return idx.find_similar(district_key, town, village, road, road_num,
                                residual, top_n=top_n)

    def _sub(self, district_key: str):
        idx = self.indexes.get(district_bucket(district_key, self.n_buckets))
        return idx if idx is not None and idx.has_district(district_key) else None

    def score_district(self, district_key: str, *args, **kw):
        idx = self._sub(district_key)
        return idx.score_district(district_key, *args, **kw) if idx else None

    def doc_id_at(self, district_key: str, local: int) -> int:
        sub = self._sub(district_key)
        if sub is None:  # mirror score_district's guard (ADVICE r4): a miss
            raise KeyError(f"district {district_key!r} not in any shard")
        return sub.doc_id_at(district_key, local)

    def explain_matched(self, district_key: str, *args, **kw) -> list[dict]:
        sub = self._sub(district_key)
        if sub is None:
            raise KeyError(f"district {district_key!r} not in any shard")
        return sub.explain_matched(district_key, *args, **kw)


def _concat_ranges(lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """Concatenate [lo_i, hi_i) ranges in order — a vectorized multi-arange."""
    lens = (hi - lo).astype(np.int64)
    mask = lens > 0
    lo2, lens2 = lo[mask].astype(np.int64), lens[mask]
    if len(lens2) == 0:
        return np.empty(0, dtype=np.int64)
    total = int(lens2.sum())
    steps = np.ones(total, dtype=np.int64)
    steps[0] = lo2[0]
    if len(lens2) > 1:
        ends = np.cumsum(lens2)[:-1]
        steps[ends] = lo2[1:] - (lo2[:-1] + lens2[:-1] - 1)
    return np.cumsum(steps)


def _query_terms(town: str, village: str, road: str, road_num: str,
                 residual: str, segment=simple_segment):
    """analyse() term order (SimilarityComputer.java:110-159) as plain
    tuples: (type_code, text). Text tokens deduped against all prior."""
    terms: list[tuple[int, str]] = []
    if town:
        terms.append((T_TOWN, town))
    if village:
        terms.append((T_VILLAGE, village))
    if road:
        terms.append((T_ROAD, road))
    if road_num:
        terms.append((T_ROAD_NUM, road_num))
    seen = {t for _, t in terms}
    for tok in (segment(residual) if residual else []):
        if tok in seen:
            continue
        seen.add(tok)
        terms.append((T_TEXT, tok))
    return terms


class NpCorpusIndex:
    """District-partitioned CSR similarity index over flat numpy arrays."""

    ARRAY_FIELDS = (
        "doc_ids", "has_town", "has_village", "town_h", "village_h", "road_h",
        "has_rn", "rn_value", "rn_idf",
        "doc_lo", "doc_hi", "inv_lo", "inv_hi", "key_lo", "key_hi",
        "inv_hash", "inv_doc", "inv_type", "inv_idf", "inv_txtpos",
        "key_hash", "key_idf",
    )

    def __init__(self, arrays: dict, district_keys: list[str]):
        for name in self.ARRAY_FIELDS:
            setattr(self, name, arrays[name])
        # raw road_num string per doc ("" when none) — only consumed by the
        # explain path (the RoadNum-fallback MatchedTerm reports the DOC's
        # own road_num text, which no hash can recover)
        self.rn_text = arrays.get("rn_text") or [""] * len(arrays["doc_ids"])
        self.district_keys = district_keys
        self.district_idx = {k: i for i, k in enumerate(district_keys)}
        self._views: dict[int, tuple] = {}  # per-district array views (cheap)
        self._py_views: dict[int, tuple] = {}  # scalar-path district structs
        # reusable per-call scratch (max district size): a fresh ~m-sized
        # allocation set per query is ~100 KB of page-touch traffic per score
        # — at 28 actors that is GB/s of pure allocator noise on the bus
        max_m = int((self.doc_hi - self.doc_lo).max()) if len(self.doc_lo) else 0
        self._s_qq = np.zeros(max_m, dtype=np.float64)
        self._s_qd = np.zeros(max_m, dtype=np.float64)
        self._s_dd = np.zeros(max_m, dtype=np.float64)
        self._s_cnt = np.zeros(max_m, dtype=np.int64)
        self._s_min = np.zeros(max_m, dtype=np.int64)
        self._s_max = np.zeros(max_m, dtype=np.int64)
        self._s_coord = np.ones(max_m, dtype=np.float64)
        self._s_dens = np.ones(max_m, dtype=np.float64)

    def _district_views(self, di: int) -> tuple:
        v = self._views.get(di)
        if v is None:
            dlo, dhi = int(self.doc_lo[di]), int(self.doc_hi[di])
            ilo, ihi = int(self.inv_lo[di]), int(self.inv_hi[di])
            klo, khi = int(self.key_lo[di]), int(self.key_hi[di])
            v = (dlo, dhi - dlo,
                 self.inv_hash[ilo:ihi], self.inv_doc[ilo:ihi],
                 self.inv_type[ilo:ihi], self.inv_idf[ilo:ihi],
                 self.inv_txtpos[ilo:ihi],
                 self.key_hash[klo:khi], self.key_idf[klo:khi],
                 self.town_h[dlo:dhi], self.village_h[dlo:dhi],
                 self.road_h[dlo:dhi], self.has_town[dlo:dhi],
                 self.has_village[dlo:dhi], self.has_rn[dlo:dhi],
                 self.rn_value[dlo:dhi], self.rn_idf[dlo:dhi])
            self._views[di] = v
        return v

    # -- construction ------------------------------------------------------

    @classmethod
    def from_tables(cls, docs_tbl, idf_tbl, segment=simple_segment) -> "NpCorpusIndex":
        """Build from the corpus doc-vector table (addr_id, district_key,
        town, village, road, road_num, residual) + idf table (district_key,
        term_key, idf). Preserves docs_tbl row order within each district
        (scoring-order ties follow index insertion order, matching the
        sequential corpus build in pipelines.oracle.build_corpus_index)."""
        idf_by_district: dict[str, dict[str, float]] = {}
        for dist, key, idf in zip(idf_tbl.column("district_key").to_pylist(),
                                  idf_tbl.column("term_key").to_pylist(),
                                  idf_tbl.column("idf").to_pylist()):
            idf_by_district.setdefault(dist, {})[key] = idf

        # group doc rows by district, preserving row order
        by_district: dict[str, list[tuple]] = {}
        for row in zip(docs_tbl.column("addr_id").to_pylist(),
                       docs_tbl.column("district_key").to_pylist(),
                       docs_tbl.column("town").to_pylist(),
                       docs_tbl.column("village").to_pylist(),
                       docs_tbl.column("road").to_pylist(),
                       docs_tbl.column("road_num").to_pylist(),
                       docs_tbl.column("residual").to_pylist()):
            by_district.setdefault(row[1], []).append(row)

        district_keys = list(by_district)
        doc_ids, has_town, has_village = [], [], []
        town_h, village_h, road_h = [], [], []
        has_rn, rn_value, rn_idf, rn_text = [], [], [], []
        doc_lo, doc_hi, inv_lo, inv_hi, key_lo, key_hi = [], [], [], [], [], []
        inv_hash, inv_doc, inv_type, inv_idf, inv_txtpos = [], [], [], [], []
        key_hash_all, key_idf_all = [], []
        hash_text: dict[int, str] = {}

        def _h(text: str) -> int:
            h = term_hash(text)
            prev = hash_text.setdefault(h, text)
            if prev != text:  # build-side collision: refuse silently-wrong scores
                raise ValueError(f"64-bit term-hash collision: {prev!r} vs {text!r}")
            return h

        for dist in district_keys:
            rows = by_district[dist]
            idf_map = idf_by_district.get(dist, {})
            doc_lo.append(len(doc_ids))
            inv_lo.append(len(inv_hash))
            key_lo.append(len(key_hash_all))
            inv_entries = []  # (hash, local_doc, type, idf, txtpos)
            for local, (addr_id, _d, town, village, road, road_num, residual) in enumerate(rows):
                doc_ids.append(addr_id)
                has_town.append(bool(town))
                has_village.append(bool(village))
                town_h.append(_h(town) if town else 0)
                village_h.append(_h(village) if village else 0)
                road_h.append(_h(road) if road else 0)
                terms = _query_terms(town, village, road, road_num, residual, segment)
                rnv = translate_road_num(road_num) if road_num else 0
                has_rn.append(bool(road_num))
                rn_text.append(road_num or "")
                rn_value.append(rnv)
                rn_idf.append(idf_map.get(f"{road}-{rnv}", 0.0) if road_num else 0.0)
                per_doc: dict[int, list] = {}
                for pos, (tcode, text) in enumerate(terms):
                    h = _h(text)
                    idf_key = f"{road}-{rnv}" if tcode == T_ROAD_NUM else text
                    idf = idf_map.get(idf_key, 0.0)
                    ent = per_doc.get(h)
                    if ent is None:
                        per_doc[h] = [tcode, idf, pos if tcode == T_TEXT else -1]
                    else:  # last write wins for type/idf; first TEXT pos kept
                        ent[0], ent[1] = tcode, idf
                        if tcode == T_TEXT and ent[2] < 0:
                            ent[2] = pos
                for h, (tcode, idf, txtpos) in per_doc.items():
                    inv_entries.append((h, local, tcode, idf, txtpos))
            inv_entries.sort(key=lambda e: (e[0], e[1]))
            for h, local, tcode, idf, txtpos in inv_entries:
                inv_hash.append(h)
                inv_doc.append(local)
                inv_type.append(tcode)
                inv_idf.append(idf)
                inv_txtpos.append(txtpos)
            for key in sorted(idf_map, key=term_hash):
                key_hash_all.append(term_hash(key))
                key_idf_all.append(idf_map[key])
            doc_hi.append(len(doc_ids))
            inv_hi.append(len(inv_hash))
            key_hi.append(len(key_hash_all))

        arrays = {
            "doc_ids": np.asarray(doc_ids, dtype=np.int64),
            "has_town": np.asarray(has_town, dtype=bool),
            "has_village": np.asarray(has_village, dtype=bool),
            "town_h": np.asarray(town_h, dtype=np.uint64),
            "village_h": np.asarray(village_h, dtype=np.uint64),
            "road_h": np.asarray(road_h, dtype=np.uint64),
            "has_rn": np.asarray(has_rn, dtype=bool),
            "rn_value": np.asarray(rn_value, dtype=np.int64),
            "rn_idf": np.asarray(rn_idf, dtype=np.float64),
            "doc_lo": np.asarray(doc_lo, dtype=np.int64),
            "doc_hi": np.asarray(doc_hi, dtype=np.int64),
            "inv_lo": np.asarray(inv_lo, dtype=np.int64),
            "inv_hi": np.asarray(inv_hi, dtype=np.int64),
            "key_lo": np.asarray(key_lo, dtype=np.int64),
            "key_hi": np.asarray(key_hi, dtype=np.int64),
            "inv_hash": np.asarray(inv_hash, dtype=np.uint64),
            "inv_doc": np.asarray(inv_doc, dtype=np.int64),
            "inv_type": np.asarray(inv_type, dtype=np.int8),
            "inv_idf": np.asarray(inv_idf, dtype=np.float64),
            "inv_txtpos": np.asarray(inv_txtpos, dtype=np.int64),
            "key_hash": np.asarray(key_hash_all, dtype=np.uint64),
            "key_idf": np.asarray(key_idf_all, dtype=np.float64),
            "rn_text": rn_text,
        }
        return cls(arrays, district_keys)

    # -- plasma round-trip -------------------------------------------------

    def to_payload(self) -> dict:
        """A plain dict of numpy arrays + key list for ``ray.put`` — each
        array is stored once in the object store; ``ray.get`` in every actor
        returns read-only zero-copy views of the same shared memory."""
        payload = {name: getattr(self, name) for name in self.ARRAY_FIELDS}
        payload["district_keys"] = self.district_keys
        payload["rn_text"] = self.rn_text
        return payload

    @classmethod
    def from_payload(cls, payload: dict) -> "NpCorpusIndex":
        return cls(payload, payload["district_keys"])

    # -- scoring -----------------------------------------------------------

    def has_district(self, district_key: str) -> bool:
        return district_key in self.district_idx

    # below this many docs the vectorized path is numpy-call-overhead-bound
    # (~40 small-kernel launches per query); the scalar path is ~5x faster
    SMALL_DISTRICT_MAX = 64

    def _district_py(self, di: int):
        """Lazy Python-native views of one district for the scalar scorer:
        (m, dmaps, key_idf, town_h, village_h, road_h, has_town, has_village,
        has_rn, rnv, rn_idf) where dmaps[d] maps term hash -> (type, idf,
        txtpos). Built once per district per actor; total size is bounded by
        the (small-side) corpus."""
        v = self._py_views.get(di)
        if v is None:
            dlo, dhi = int(self.doc_lo[di]), int(self.doc_hi[di])
            m = dhi - dlo
            ilo, ihi = int(self.inv_lo[di]), int(self.inv_hi[di])
            klo, khi = int(self.key_lo[di]), int(self.key_hi[di])
            dmaps = [{} for _ in range(m)]
            for h, d, tc, idf, tp in zip(
                self.inv_hash[ilo:ihi].tolist(), self.inv_doc[ilo:ihi].tolist(),
                self.inv_type[ilo:ihi].tolist(), self.inv_idf[ilo:ihi].tolist(),
                self.inv_txtpos[ilo:ihi].tolist(),
            ):
                dmaps[d][h] = (tc, idf, tp)
            key_idf = dict(zip(self.key_hash[klo:khi].tolist(),
                               self.key_idf[klo:khi].tolist()))
            v = (m, dmaps, key_idf,
                 self.town_h[dlo:dhi].tolist(), self.village_h[dlo:dhi].tolist(),
                 self.road_h[dlo:dhi].tolist(), self.has_town[dlo:dhi].tolist(),
                 self.has_village[dlo:dhi].tolist(), self.has_rn[dlo:dhi].tolist(),
                 self.rn_value[dlo:dhi].tolist(), self.rn_idf[dlo:dhi].tolist(),
                 list(self.rn_text[dlo:dhi]))
            self._py_views[di] = v
        return v

    def _score_district_scalar(self, di: int, town: str, village: str,
                               road: str, road_num: str, residual: str,
                               segment=simple_segment) -> list:
        """Scalar twin of the vectorized scorer for small districts.

        Bit-parity argument: float adds into each accumulator (sum_qq,
        sum_qd, sum_dd) happen in exactly the query-term order the
        vectorized path uses per doc (accumulators are independent, so
        interleaving across them is irrelevant); every boost/coord/density
        formula applies the same IEEE-754 double ops in the same
        association. Asserted bit-for-bit against the vectorized path AND
        the sequential kernel by tests/test_npindex*.py."""
        from math import sqrt

        (m, dmaps, key_idf, town_h, village_h, road_h, has_town_d,
         has_village_d, has_rn_d, rnv_d, rn_idf_d, _rn_text_d) = self._district_py(di)

        terms = _query_terms(town, village, road, road_num, residual, segment)
        if not terms:
            return [0.0] * m
        q_rnv = translate_road_num(road_num) if road_num else 0
        n_terms = len(terms)
        n_struct = 0
        while n_struct < n_terms and terms[n_struct][0] != T_TEXT:
            n_struct += 1
        q_text_count = n_terms - n_struct

        q_has_town = bool(town)
        q_has_village = bool(village)
        q_has_road = bool(road)
        road_gate = not q_has_town or not q_has_village
        q_town_h = term_hash(town) if town else 0
        q_village_h = term_hash(village) if village else 0
        q_road_h = term_hash(road) if road else 0

        hashes = [term_hash(t) for _, t in terms]
        qidfs = []
        for ti in range(n_terms):
            if ti < n_struct and terms[ti][0] == T_ROAD_NUM:
                kh = term_hash(f"{road}-{q_rnv}")
            else:
                kh = hashes[ti]
            qidfs.append(key_idf.get(kh, MISSING_IDF))

        int_max = 2147483647  # np.iinfo(int32).max, as in the vectorized path
        sims = [0.0] * m
        for d in range(m):
            dmap = dmaps[d]
            # -- phase 1: text-term coord/density ---------------------------
            coord = 1.0
            density = 1.0
            if q_text_count > 0:
                mc = 0
                mmin = int_max
                mmax = -1
                for ti in range(n_struct, n_terms):
                    ent = dmap.get(hashes[ti])
                    if ent is not None:
                        tp = ent[2]
                        if tp >= 0:
                            mc += 1
                            if tp < mmin:
                                mmin = tp
                            if tp > mmax:
                                mmax = tp
                coord = sqrt(mc * 1.0 / q_text_count) * 0.5 + 0.5
                if q_text_count >= 2 and mc >= 2:
                    density = sqrt(mc * 1.0 / (mmax - mmin + 1.0)) * 0.5 + 0.5

            d_has_town = has_town_d[d]
            d_town_h = town_h[d]
            d_village_h = village_h[d]
            d_road_h = road_h[d]
            d_rnv = rnv_d[d]
            town_eq = d_has_town and d_town_h == q_town_h

            sum_qq = 0.0
            sum_qd = 0.0
            sum_dd = 0.0
            # -- phase 2: structured query terms, in order ------------------
            for ti in range(n_struct):
                tcode = terms[ti][0]
                qidf = qidfs[ti]
                if tcode == T_TOWN:
                    qtf = qidf * (BOOST_L if d_has_town else BOOST_XS)
                elif tcode == T_VILLAGE:
                    qb = BOOST_XS
                    if q_has_village and q_has_town:
                        if has_village_d[d] and town_eq:
                            qb = BOOST_XL if d_village_h == q_village_h else BOOST_L
                        elif has_village_d[d] and d_has_town:
                            qb = BOOST_L
                    qtf = qidf * qb
                elif tcode == T_ROAD:
                    if road_gate and q_has_road:
                        qtf = qidf * (BOOST_L if d_road_h != 0 else BOOST_M)
                    else:
                        qtf = qidf
                else:  # T_ROAD_NUM
                    if road_gate and q_rnv > 0 and q_has_road:
                        hit = d_rnv > 0 and d_road_h == q_road_h
                        qtf = qidf * (3.0 if hit else BOOST_M)
                    else:
                        qtf = qidf
                sum_qq += qtf * qtf

                ent = dmap.get(hashes[ti])
                if ent is not None:
                    d_type, d_idf, _tp = ent
                    if d_type == T_TEXT:
                        dtf = d_idf * coord * density
                    elif d_type == T_TOWN:
                        dtf = d_idf * (BOOST_L if q_has_town else BOOST_XS)
                    elif d_type == T_VILLAGE:
                        db = BOOST_XS
                        if q_has_village and q_has_town:
                            if town_eq:
                                db = BOOST_XL if d_village_h == q_village_h else BOOST_L
                            elif d_has_town:
                                db = BOOST_S
                        dtf = d_idf * db
                    elif d_type == T_ROAD:
                        dtf = d_idf * (BOOST_L if (road_gate and q_has_road) else BOOST_M)
                    else:  # T_ROAD_NUM
                        db = BOOST_M
                        if road_gate and q_rnv > 0 and q_has_road:
                            if d_rnv > 0 and d_road_h == q_road_h:
                                if d_rnv == q_rnv:
                                    db = 3.0
                                else:
                                    db = (1.0 / sqrt(sqrt(abs(q_rnv - d_rnv) + 1.0))) * BOOST_L
                        dtf = d_idf * db
                    sum_qd += qtf * dtf
                    sum_dd += dtf * dtf
                elif tcode == T_ROAD_NUM and q_has_road \
                        and has_rn_d[d] and d_road_h == q_road_h:
                    # RoadNum fallback (java:513-517)
                    db = BOOST_M
                    if road_gate and q_rnv > 0:
                        if d_rnv > 0:
                            if d_rnv == q_rnv:
                                db = 3.0
                            else:
                                db = (1.0 / sqrt(sqrt(abs(q_rnv - d_rnv) + 1.0))) * BOOST_L
                    dtf = rn_idf_d[d] * db
                    sum_qd += qtf * dtf
                    sum_dd += dtf * dtf

            # -- phase 3: text query terms, in order ------------------------
            for ti in range(n_struct, n_terms):
                q = qidfs[ti]
                sum_qq += q * q
            for ti in range(n_struct, n_terms):
                ent = dmap.get(hashes[ti])
                if ent is not None:
                    d_type, d_idf, _tp = ent
                    if d_type == T_TEXT:
                        dtf = d_idf * coord * density
                    elif d_type == T_TOWN:
                        dtf = d_idf * (BOOST_L if q_has_town else BOOST_XS)
                    elif d_type == T_VILLAGE:
                        db = BOOST_XS
                        if q_has_village and q_has_town:
                            if town_eq:
                                db = BOOST_XL if d_village_h == q_village_h else BOOST_L
                            elif d_has_town:
                                db = BOOST_S
                        dtf = d_idf * db
                    elif d_type == T_ROAD:
                        dtf = d_idf * (BOOST_L if (road_gate and q_has_road) else BOOST_M)
                    else:  # T_ROAD_NUM
                        db = BOOST_M
                        if road_gate and q_rnv > 0 and q_has_road:
                            if d_rnv > 0 and d_road_h == q_road_h:
                                if d_rnv == q_rnv:
                                    db = 3.0
                                else:
                                    db = (1.0 / sqrt(sqrt(abs(q_rnv - d_rnv) + 1.0))) * BOOST_L
                        dtf = d_idf * db
                    qtf = qidfs[ti]
                    sum_qd += qtf * dtf
                    sum_dd += dtf * dtf

            if sum_dd != 0.0 and sum_qq != 0.0:
                sims[d] = sum_qd / sqrt(sum_qq * sum_dd)
        return sims

    def score_district(self, district_key: str, town: str, village: str,
                       road: str, road_num: str, residual: str,
                       segment=simple_segment) -> np.ndarray | list | None:
        """Similarity of the query against every doc of the district, in
        index order. Bit-identical to compute_doc_similarity per doc.
        Small districts take the scalar path (returns a list); large ones
        the vectorized path (returns an ndarray) — same values bit-for-bit."""
        di = self.district_idx.get(district_key)
        if di is None:
            return None
        if int(self.doc_hi[di] - self.doc_lo[di]) <= self.SMALL_DISTRICT_MAX:
            return self._score_district_scalar(di, town, village, road,
                                               road_num, residual, segment)
        return self._score_district_vec(di, town, village, road, road_num,
                                        residual, segment)

    def _score_district_vec(self, di: int, town: str, village: str,
                            road: str, road_num: str, residual: str,
                            segment=simple_segment) -> np.ndarray:
        (dlo, m, inv_hash, inv_doc, inv_type, inv_idf, inv_txtpos,
         key_hash, key_idf, town_hd, village_hd, road_hd, has_town_d,
         has_village_d, has_rn_d, rnv_d, rn_idf_d) = self._district_views(di)

        terms = _query_terms(town, village, road, road_num, residual, segment)
        if not terms:
            return np.zeros(m, dtype=np.float64)
        q_rnv = translate_road_num(road_num) if road_num else 0
        # structured terms come first in analyse() order; everything after the
        # first T_TEXT is T_TEXT — split so the text bulk can be batched while
        # per-doc float accumulation stays in exact query-term order
        n_struct = 0
        while n_struct < len(terms) and terms[n_struct][0] != T_TEXT:
            n_struct += 1
        hashes = np.array([term_hash(t) for _, t in terms], dtype=np.uint64)
        # query-side idf with the MISSING_IDF=4 fallback (document.py:131-133),
        # one vectorized searchsorted for all terms
        key_hashes = hashes.copy()
        for i in range(n_struct):
            if terms[i][0] == T_ROAD_NUM:
                key_hashes[i] = term_hash(f"{road}-{q_rnv}")
        kpos = np.searchsorted(key_hash, key_hashes)
        kpos_c = np.minimum(kpos, max(len(key_hash) - 1, 0))
        if len(key_hash):
            found = key_hash[kpos_c] == key_hashes
            qidfs = np.where(found, key_idf[kpos_c], MISSING_IDF)
        else:
            qidfs = np.full(len(terms), MISSING_IDF)

        lo_all = np.searchsorted(inv_hash, hashes, side="left")
        hi_all = np.searchsorted(inv_hash, hashes, side="right")

        # -- phase 1: text-term coord/density (java:461-498) ----------------
        # counts/min/max are associative ints: batch ALL text postings at once
        q_text_count = len(terms) - n_struct
        match_count = self._s_cnt[:m]
        match_count.fill(0)
        match_min = self._s_min[:m]
        match_min.fill(np.iinfo(np.int32).max)
        match_max = self._s_max[:m]
        match_max.fill(-1)
        txt_lo, txt_hi = lo_all[n_struct:], hi_all[n_struct:]
        txt_lens = (txt_hi - txt_lo).astype(np.int64)
        txt_idx = txt_docs = None
        if txt_lens.sum() > 0:
            txt_idx = _concat_ranges(txt_lo, txt_hi)
            txt_docs = inv_doc[txt_idx]
            tp = inv_txtpos[txt_idx]
            sel = tp >= 0
            d_pos = txt_docs[sel]
            tpos = tp[sel]
            match_count += np.bincount(d_pos, minlength=m)
            np.minimum.at(match_min, d_pos, tpos)
            np.maximum.at(match_max, d_pos, tpos)
        coord = self._s_coord[:m]
        coord.fill(1.0)
        density = self._s_dens[:m]
        density.fill(1.0)
        if q_text_count > 0:
            np.sqrt(match_count * 1.0 / q_text_count, out=coord)
            coord *= 0.5
            coord += 0.5
        if q_text_count >= 2:
            dense_sel = match_count >= 2
            if dense_sel.any():
                span = (match_max - match_min + 1).astype(np.float64)
                dens = np.sqrt(match_count * 1.0 / np.where(dense_sel, span, 1.0)) * 0.5 + 0.5
                np.copyto(density, dens, where=dense_sel)

        # -- phase 2: asymmetric cosine over query terms (java:507-549) -----
        # Per-doc accumulation strictly in query-term order => the float adds
        # happen in the same order as the sequential kernel (bit parity).
        # Structured terms (<=4, they precede all text terms) run one by one;
        # the text bulk is batched through ONE ordered np.add.at (ufunc.at
        # applies updates sequentially in index order, preserving term order).
        sum_qq = self._s_qq[:m]
        sum_qq.fill(0.0)
        sum_qd = self._s_qd[:m]
        sum_qd.fill(0.0)
        sum_dd = self._s_dd[:m]
        sum_dd.fill(0.0)
        q_has_town = bool(town)
        q_has_village = bool(village)
        q_has_road = bool(road)
        road_gate = not q_has_town or not q_has_village
        q_town_h = np.uint64(term_hash(town)) if town else np.uint64(0)
        q_village_h = np.uint64(term_hash(village)) if village else np.uint64(0)
        q_road_h = np.uint64(term_hash(road)) if road else np.uint64(0)

        def _doc_boost(nt_idx, nt_type, rn_idf_override=None):
            """Doc-side boosts for non-Text matched terms
            (get_boost_value(True, ...), java:198-255)."""
            db = np.empty(len(nt_idx), dtype=np.float64)
            db[nt_type == T_TOWN] = BOOST_L if q_has_town else BOOST_XS
            vsel = nt_type == T_VILLAGE
            if vsel.any():
                vi = nt_idx[vsel]
                vb = np.full(len(vi), BOOST_XS)
                if q_has_village and q_has_town:
                    town_eq = has_town_d[vi] & (town_hd[vi] == q_town_h)
                    vb = np.where(town_eq,
                                  np.where(village_hd[vi] == q_village_h,
                                           BOOST_XL, BOOST_L),
                                  vb)
                    vb = np.where(has_town_d[vi] & ~town_eq, BOOST_S, vb)
                db[vsel] = vb
            db[nt_type == T_ROAD] = (
                BOOST_L if (road_gate and q_has_road) else BOOST_M)
            nsel = nt_type == T_ROAD_NUM
            if nsel.any():
                ni = nt_idx[nsel]
                nb = np.full(len(ni), BOOST_M)
                if road_gate and q_rnv > 0 and q_has_road:
                    hit = (rnv_d[ni] > 0) & (road_hd[ni] == q_road_h)
                    eq = hit & (rnv_d[ni] == q_rnv)
                    diff = np.abs(q_rnv - rnv_d[ni]).astype(np.float64)
                    decay = (1.0 / np.sqrt(np.sqrt(diff + 1))) * BOOST_L
                    nb = np.where(hit, np.where(eq, 3.0, decay), nb)
                db[nsel] = nb
            return db

        # ---- structured query terms, in order ----
        for ti in range(n_struct):
            tcode = terms[ti][0]
            qidf = float(qidfs[ti])
            lo, hi = int(lo_all[ti]), int(hi_all[ti])
            if tcode == T_TOWN:
                # a TOWN query term implies qdoc.town; boost hinges on the doc
                qtf = qidf * np.where(has_town_d, BOOST_L, BOOST_XS)
            elif tcode == T_VILLAGE:
                qb = np.full(m, BOOST_XS)
                if q_has_village and q_has_town:
                    town_eq = has_town_d & (town_hd == q_town_h)
                    sub1 = has_village_d & town_eq
                    qb = np.where(sub1,
                                  np.where(village_hd == q_village_h, BOOST_XL, BOOST_L),
                                  qb)
                    sub2 = has_village_d & has_town_d & ~town_eq
                    qb = np.where(sub2, BOOST_L, qb)
                qtf = qidf * qb
            elif tcode == T_ROAD:
                if road_gate and q_has_road:
                    qtf = qidf * np.where(road_hd != 0, BOOST_L, BOOST_M)
                else:
                    qtf = np.float64(qidf)  # boost M
            else:  # T_ROAD_NUM
                if road_gate and q_rnv > 0 and q_has_road:
                    hit = (rnv_d > 0) & (road_hd == q_road_h)
                    qtf = qidf * np.where(hit, 3.0, BOOST_M)
                else:
                    qtf = np.float64(qidf)
            sum_qq += qtf * qtf

            d_idx = None
            if lo != hi:
                d_idx = inv_doc[lo:hi]
                d_type = inv_type[lo:hi]
                d_idf = inv_idf[lo:hi]
                dtf = np.empty(len(d_idx), dtype=np.float64)
                is_text = d_type == T_TEXT
                if is_text.any():
                    tt = d_idx[is_text]
                    dtf[is_text] = d_idf[is_text] * coord[tt] * density[tt]
                non_text = ~is_text
                if non_text.any():
                    dtf[non_text] = d_idf[non_text] * _doc_boost(
                        d_idx[non_text], d_type[non_text])
                qtf_at = qtf[d_idx] if isinstance(qtf, np.ndarray) else qtf
                sum_qd[d_idx] += qtf_at * dtf
                sum_dd[d_idx] += dtf * dtf

            # RoadNum fallback (java:513-517): unmatched ROAD_NUM query term
            # scores against the doc's own road_num when the roads agree
            if tcode == T_ROAD_NUM and q_has_road:
                fb = has_rn_d & (road_hd == q_road_h)
                if d_idx is not None:
                    fb = fb.copy()
                    fb[d_idx] = False
                if fb.any():
                    fi = np.nonzero(fb)[0]
                    db = np.full(len(fi), BOOST_M)
                    if road_gate and q_rnv > 0:
                        hit = rnv_d[fi] > 0  # roads equal by construction
                        eq = hit & (rnv_d[fi] == q_rnv)
                        diff = np.abs(q_rnv - rnv_d[fi]).astype(np.float64)
                        decay = (1.0 / np.sqrt(np.sqrt(diff + 1))) * BOOST_L
                        db = np.where(hit, np.where(eq, 3.0, decay), db)
                    dtf = rn_idf_d[fi] * db
                    qtf_at = qtf[fi] if isinstance(qtf, np.ndarray) else qtf
                    sum_qd[fi] += qtf_at * dtf
                    sum_dd[fi] += dtf * dtf

        # ---- text query terms, batched (boost M on the query side) ----
        # sum_qq: per-term scalar adds, in order (float adds don't reassociate)
        for ti in range(n_struct, len(terms)):
            q = float(qidfs[ti])
            sum_qq += q * q
        if txt_idx is not None:
            d_idx = txt_docs
            d_type = inv_type[txt_idx]
            d_idf = inv_idf[txt_idx]
            qtf_e = np.repeat(qidfs[n_struct:], txt_lens)
            dtf = np.empty(len(txt_idx), dtype=np.float64)
            is_text = d_type == T_TEXT
            if is_text.any():
                tt = d_idx[is_text]
                dtf[is_text] = d_idf[is_text] * coord[tt] * density[tt]
            non_text = ~is_text
            if non_text.any():
                dtf[non_text] = d_idf[non_text] * _doc_boost(
                    d_idx[non_text], d_type[non_text])
            # ufunc.at updates in place sequentially in input (= query-term)
            # order — bit-identical to the sequential kernel's per-term adds
            # (a bincount would re-associate: sum from zero, then one add)
            np.add.at(sum_qd, d_idx, qtf_e * dtf)
            np.add.at(sum_dd, d_idx, dtf * dtf)

        sims = np.zeros(m, dtype=np.float64)
        valid = (sum_dd != 0.0) & (sum_qq != 0.0)
        if valid.any():
            sims[valid] = sum_qd[valid] / np.sqrt(sum_qq[valid] * sum_dd[valid])
        return sims  # fresh array: scratch buffers are reused across calls

    def doc_id_at(self, district_key: str, local: int) -> int:
        """Global doc id of a district's ``local``-th doc (index order)."""
        di = self.district_idx[district_key]
        return int(self.doc_ids[int(self.doc_lo[di]) + local])

    _TYPE_CHAR = ("X", "T", "V", "R", "N")  # by T_* code (types.TermType)

    def explain_matched(self, district_key: str, local: int, town: str,
                        village: str, road: str, road_num: str, residual: str,
                        segment=simple_segment) -> list[dict]:
        """MatchedTerm records (text, type, boost, tfidf, density, coord) for
        ONE doc of a district, derived entirely from the flat arrays —
        value-equal to ``kernel.similarity.compute_doc_similarity_explain``'s
        matched list (``SimilarityComputer.java:456-550`` +
        ``MatchedTerm.java:3-45``): same query-term order, same boost
        branches, same IEEE multiply association (idf*boost*coord*density).
        The similarity itself comes from ``score_district`` (bit-equal), so
        the explain path needs NO python Doc objects — one broadcast index
        serves both scan and breakdown."""
        from math import sqrt

        di = self.district_idx[district_key]
        (m, dmaps, _key_idf, town_h, village_h, road_h, has_town_d,
         _has_village_d, has_rn_d, rnv_d, rn_idf_d, rn_text_d) = self._district_py(di)
        dmap = dmaps[local]

        terms = _query_terms(town, village, road, road_num, residual, segment)
        hashes = [term_hash(t) for _, t in terms]
        q_rnv = translate_road_num(road_num) if road_num else 0
        q_has_town, q_has_village = bool(town), bool(village)
        q_has_road = bool(road)
        road_gate = not q_has_town or not q_has_village
        q_town_h = term_hash(town) if town else 0
        q_village_h = term_hash(village) if village else 0
        q_road_h = term_hash(road) if road else 0

        # text-term coord/density (java:461-498) for THIS doc
        q_text_count = mc = 0
        mmin, mmax = 2147483647, -1
        for (tcode, _t), h in zip(terms, hashes):
            if tcode != T_TEXT:
                continue
            q_text_count += 1
            ent = dmap.get(h)
            if ent is not None and ent[2] >= 0:
                mc += 1
                tp = ent[2]
                if tp < mmin:
                    mmin = tp
                if tp > mmax:
                    mmax = tp
        coord_text = density_text = 1.0
        if q_text_count > 0:
            coord_text = sqrt(mc * 1.0 / q_text_count) * 0.5 + 0.5
        if q_text_count >= 2 and mc >= 2:
            density_text = sqrt(mc * 1.0 / (mmax - mmin + 1)) * 0.5 + 0.5

        d_has_town = has_town_d[local]
        town_eq = d_has_town and town_h[local] == q_town_h
        d_road_h = road_h[local]
        d_rnv = rnv_d[local]
        matched: list[dict] = []
        for (tcode, q_text), h in zip(terms, hashes):
            ent = dmap.get(h)
            if ent is not None:
                d_type, d_idf, _tp = ent
                d_text = q_text  # terms match by text
            elif (tcode == T_ROAD_NUM and q_has_road and has_rn_d[local]
                    and d_road_h == q_road_h):
                # RoadNum fallback (java:513-517): the matched term is the
                # DOC's own road_num
                d_type, d_idf, d_text = T_ROAD_NUM, rn_idf_d[local], rn_text_d[local]
            else:
                continue
            # doc-side boost — get_boost_value(True, ...), java:198-255
            if d_type == T_TEXT:
                db = BOOST_M
            elif d_type == T_TOWN:
                db = BOOST_L if q_has_town else BOOST_XS
            elif d_type == T_VILLAGE:
                db = BOOST_XS
                if q_has_village and q_has_town:
                    if town_eq:
                        db = BOOST_XL if village_h[local] == q_village_h else BOOST_L
                    elif d_has_town:
                        db = BOOST_S
            elif d_type == T_ROAD:
                db = BOOST_L if (road_gate and q_has_road) else BOOST_M
            else:  # T_ROAD_NUM
                db = BOOST_M
                if road_gate and q_rnv > 0 and q_has_road:
                    if d_rnv > 0 and d_road_h == q_road_h:
                        if d_rnv == q_rnv:
                            db = 3.0
                        else:
                            db = (1.0 / sqrt(sqrt(abs(q_rnv - d_rnv) + 1.0))) * BOOST_L
            is_text = d_type == T_TEXT
            coord = coord_text if is_text else 1.0
            density = density_text if is_text else 1.0
            matched.append({
                "text": d_text, "type": self._TYPE_CHAR[d_type], "boost": db,
                "tfidf": d_idf * db * coord * density,
                "density": density if is_text else -1.0,
                "coord": coord if is_text else -1.0,
            })
        return matched

    def find_similar(self, district_key: str, town: str, village: str,
                     road: str, road_num: str, residual: str,
                     top_n: int = 1) -> list[tuple[int, float]]:
        """Top-N (doc_id, similarity), reproducing TopN min-evict semantics:
        stable sort desc keeps the earliest doc on ties (similarity.py:175-201
        equivalence), drops sims <= 0."""
        sims = self.score_district(district_key, town, village, road,
                                   road_num, residual)
        if sims is None or len(sims) == 0:
            return []
        di = self.district_idx[district_key]
        dlo = int(self.doc_lo[di])
        if top_n == 1:
            # first-max wins == the reference's strictly-greater replacement,
            # including the early-exit-at-1.0 case
            if isinstance(sims, list):  # scalar (small-district) path
                best = 0
                s = sims[0]
                for i in range(1, len(sims)):
                    v = sims[i]
                    if v > s:
                        s = v
                        best = i
            else:
                best = int(np.argmax(sims))
                s = float(sims[best])
            return [(int(self.doc_ids[dlo + best]), s)] if s > 0 else []
        # top_n > 1: replicate TopN min-evict (which evicts the FIRST minimal
        # slot — not equivalent to a stable sort under ties) exactly
        from .similarity import TopN

        keeper = TopN(top_n)
        doc_ids = self.doc_ids
        if not isinstance(sims, list):
            sims = sims.tolist()
        for i, s in enumerate(sims):
            keeper.add(int(doc_ids[dlo + i]), s)
        return keeper.sorted_desc()
