"""Deduplication operators: exact, n-gram Jaccard, MinHash+LSH, SimHash.

Scale shapes (the part that must survive 100 TB):
- exact dedup: hash-partition on the content key (``groupby(text)``), keep the
  min id per group — no driver-side state;
- n-gram Jaccard: blocked by a cheap key (lang), pairwise only within blocks;
- MinHash+LSH: signature per doc inside ``map_batches`` -> explode to
  (band_id, band_hash, doc_id) rows -> ``groupby`` bands -> candidate pairs ->
  exact-Jaccard verify. The band groupby is the only shuffle, and it moves
  fixed-width signature rows, not documents;
- SimHash: 64-bit signature -> 4x16-bit segment bucketing (Hamming<=3 implies
  at least one equal segment) -> verify within buckets.

All hashes are crc32/blake2-based (stable across processes — never builtin
``hash``).
"""

from __future__ import annotations

import hashlib
import zlib

import numpy as np
import pandas as pd
import pyarrow as pa


def _arrow(df: pd.DataFrame) -> "pa.Table":
    """pandas -> metadata-free Arrow block (stages feeding a groupby must
    emit arrow: Ray's sort-shuffle is ~12x slower on pandas blocks)."""
    return pa.Table.from_pandas(df, preserve_index=False) \
        .replace_schema_metadata(None)

N_MINHASH = 64
N_BANDS = 8  # 8 rows per band
_MERSENNE = (1 << 61) - 1


def _word_shingles(text: str, k: int = 3) -> set:
    words = text.split(" ")
    if len(words) < k:
        return {" ".join(words)}
    return {" ".join(words[i:i + k]) for i in range(len(words) - k + 1)}


def exact_dedup_first(group: pd.DataFrame) -> pd.DataFrame:
    """Per content group keep the row with the smallest doc_id (D1 analog —
    the reference skips re-imports by raw-text hash, AddressPersister.java:95-101,
    but we key on the full string: no 32-bit collision bug)."""
    return group.nsmallest(1, "doc_id")


# -- MinHash ---------------------------------------------------------------

_A = np.array([int.from_bytes(hashlib.blake2b(b"a%d" % i, digest_size=7).digest(), "big") | 1
               for i in range(N_MINHASH)], dtype=np.uint64)
_B = np.array([int.from_bytes(hashlib.blake2b(b"b%d" % i, digest_size=7).digest(), "big")
               for i in range(N_MINHASH)], dtype=np.uint64)
# split a = a_hi*2^28 + a_lo so (a*x + b) mod M is EXACT in uint64 (a is 56
# bits, x = crc32 is 32 — the plain product wraps at 2^64 and silently
# diverges from the python-int twin in pipelines/naive.py):
#   a*x mod M = (rot28(a_hi*x mod M) + a_lo*x) mod M,   2^61 ≡ 1 (mod M)
# where rot28(v) = ((v & (2^33-1)) << 28) + (v >> 33) multiplies by 2^28
# mod M without overflow (every intermediate < 2^62).
_A_HI = (_A >> np.uint64(28)).astype(np.uint64)
_A_LO = (_A & np.uint64((1 << 28) - 1)).astype(np.uint64)
_MASK33 = np.uint64((1 << 33) - 1)


def _hash_matrix(hs: np.ndarray) -> np.ndarray:
    """(N_MINHASH, n) matrix of (a_i*x_j + b_i) mod MERSENNE, exact."""
    m = np.uint64(_MERSENNE)
    ax_hi = (_A_HI[:, None] * hs[None, :]) % m
    rot = ((ax_hi & _MASK33) << np.uint64(28)) + (ax_hi >> np.uint64(33))
    return (rot + _A_LO[:, None] * hs[None, :] % m + _B[:, None]) % m


def minhash_signature(text: str) -> np.ndarray:
    shingles = _word_shingles(text)
    hs = np.array([zlib.crc32(s.encode()) for s in shingles], dtype=np.uint64)
    return _hash_matrix(hs).min(axis=1)


def minhash_bands_batch(batch: pd.DataFrame) -> pd.DataFrame:
    """docs -> N_BANDS rows each (band_id, band_hash, doc_id).

    Signatures for the whole batch come from ONE (n_hash, total_shingles)
    universal-hash matrix + a segmented ``np.minimum.reduceat`` — value-
    identical to the per-doc ``minhash_signature`` (min is order-free), but
    the matrix setup cost is paid once per batch, not once per doc."""
    per_band = N_MINHASH // N_BANDS
    texts = batch["text"].tolist()
    counts = []
    chunks = []
    for t in texts:
        sh = _word_shingles(t)
        counts.append(len(sh))
        chunks.append(np.fromiter((zlib.crc32(s.encode()) for s in sh),
                                  dtype=np.uint64, count=len(sh)))
    if not chunks:
        return pd.DataFrame({"band_id": np.asarray([], dtype=np.int64),
                             "band_hash": np.asarray([], dtype=np.int64),
                             "doc_id": np.asarray([], dtype=np.int64)})
    hs = np.concatenate(chunks)
    vals = _hash_matrix(hs)
    starts = np.zeros(len(counts), dtype=np.int64)
    np.cumsum(np.asarray(counts[:-1], dtype=np.int64), out=starts[1:])
    sigs = np.minimum.reduceat(vals, starts, axis=1)  # (N_MINHASH, n_docs)
    sigs = np.ascontiguousarray(sigs.T)               # (n_docs, N_MINHASH)

    rows_band, rows_hash, rows_doc = [], [], []
    blake2b = hashlib.blake2b
    for doc_id, sig in zip(batch["doc_id"], sigs):
        for b in range(N_BANDS):
            seg = sig[b * per_band:(b + 1) * per_band]
            rows_band.append(b)
            rows_hash.append(int.from_bytes(
                blake2b(seg.tobytes(), digest_size=8).digest(), "big") >> 1)
            rows_doc.append(doc_id)
    return pd.DataFrame({"band_id": rows_band, "band_hash": rows_hash, "doc_id": rows_doc})


def band_candidate_pairs(group: pd.DataFrame) -> pd.DataFrame:
    """One (band_id, band_hash) bucket -> candidate pairs (a<b)."""
    ids = sorted(group["doc_id"].tolist())
    a, b = [], []
    for i in range(len(ids)):
        for j in range(i + 1, len(ids)):
            a.append(ids[i])
            b.append(ids[j])
    return pd.DataFrame({"doc_id_a": np.asarray(a, dtype=np.int64),
                         "doc_id_b": np.asarray(b, dtype=np.int64)})


def band_bucket_candidate_pairs(group: pd.DataFrame) -> pd.DataFrame:
    """One COARSE band bucket (a ``cogroup`` bucket of (band_hash, band_id))
    holding many exact band keys -> candidate pairs (a<b) for every key
    inside it.

    The per-key all-pairs loop runs inside ONE Ray group call: a distinct
    (band_id, band_hash) per ``map_groups`` group would pay Ray's ~5-15 ms
    per-group Python overhead across tens of thousands of near-singleton
    keys; a coarse bucket pays it once per bucket."""
    pairs = set()
    for _, g in group.groupby(["band_id", "band_hash"], sort=False):
        if len(g) < 2:
            continue
        ids = sorted(g["doc_id"].tolist())
        for i in range(len(ids)):
            for j in range(i + 1, len(ids)):
                pairs.add((ids[i], ids[j]))
    a_out = np.fromiter((p[0] for p in pairs), dtype=np.int64, count=len(pairs))
    b_out = np.fromiter((p[1] for p in pairs), dtype=np.int64, count=len(pairs))
    return pd.DataFrame({"doc_id_a": a_out, "doc_id_b": b_out})


def jaccard(text_a: str, text_b: str) -> float:
    sa, sb = _word_shingles(text_a), _word_shingles(text_b)
    inter = len(sa & sb)
    union = len(sa | sb)
    return inter / union if union else 0.0


# -- SimHash ---------------------------------------------------------------

def simhash64(text: str) -> int:
    """64-bit simhash over word hashes — exact integer math, vectorized over
    ALL words at once (one unpack + sum per doc instead of numpy ops per
    word; the per-word loop made simhash the slowest bench query)."""
    words = text.split(" ")
    hs = np.array([int.from_bytes(hashlib.blake2b(w.encode(), digest_size=8).digest(), "big")
                   for w in words], dtype=np.uint64)
    bits = (hs[:, None] >> np.arange(64, dtype=np.uint64)[None, :]) & np.uint64(1)
    acc = (2 * bits.astype(np.int64) - 1).sum(axis=0)
    out = 0
    for i in range(64):
        if acc[i] > 0:
            out |= 1 << i
    return out


def simhash_batch(batch: pd.DataFrame) -> pd.DataFrame:
    sigs = [simhash64(t) for t in batch["text"]]
    out = {"doc_id": batch["doc_id"], "simhash": np.asarray([s - (1 << 63) for s in sigs], dtype=np.int64)}
    # 4 x 16-bit segments: Hamming distance <= 3 guarantees one equal segment
    for seg in range(4):
        out[f"seg{seg}"] = np.asarray([(s >> (16 * seg)) & 0xFFFF for s in sigs], dtype=np.int64)
    return pd.DataFrame(out)


def hamming64(a: int, b: int) -> int:
    return bin((a ^ b) & 0xFFFFFFFFFFFFFFFF).count("1")


def seg_melt_batch(batch: pd.DataFrame) -> pd.DataFrame:
    """(doc_id, simhash, seg0..seg3) -> 4 rows (seg_idx, seg_val, doc_id,
    simhash): the melt that lets ONE groupby cover all four pigeonhole
    segment passes (instead of four separate shuffles)."""
    n = len(batch)
    ids = batch["doc_id"].to_numpy()
    sims = batch["simhash"].to_numpy()
    seg_idx = np.repeat(np.arange(4, dtype=np.int64), n)
    seg_val = np.concatenate([batch[f"seg{s}"].to_numpy() for s in range(4)])
    return _arrow(pd.DataFrame({
        "seg_idx": seg_idx,
        "seg_val": seg_val.astype(np.int64),
        "doc_id": np.tile(ids, 4).astype(np.int64),
        "simhash": np.tile(sims, 4).astype(np.int64),
    }))


def _popcount64(x: np.ndarray) -> np.ndarray:
    """Vectorized 64-bit popcount (SWAR) — exact, no 64x bit-unpack blowup."""
    x = x - ((x >> np.uint64(1)) & np.uint64(0x5555555555555555))
    x = (x & np.uint64(0x3333333333333333)) + \
        ((x >> np.uint64(2)) & np.uint64(0x3333333333333333))
    x = (x + (x >> np.uint64(4))) & np.uint64(0x0F0F0F0F0F0F0F0F)
    return ((x * np.uint64(0x0101010101010101)) >> np.uint64(56)).astype(np.int64)


# peak extra memory per bucket for the pairwise pass (~3 uint64 row-block
# matrices in flight); a hot 50k-doc bucket stays under ~100 MB instead of
# the tens of GB an n x n x 64 unpacked-bits array would need
_PAIR_BLOCK_BYTES = 32 << 20


def seg_pairs_vec(group: pd.DataFrame, max_hamming: int) -> pd.DataFrame:
    """One (seg_idx, seg_val) bucket -> (a<b) pairs with Hamming <= max.

    Vectorized xor + SWAR popcount over ROW BLOCKS of the pair matrix, so
    peak memory is bounded (~_PAIR_BLOCK_BYTES) however hot the bucket —
    no per-pair Python either way."""
    g = group.drop_duplicates("doc_id").sort_values("doc_id")
    ids = g["doc_id"].to_numpy()
    n = len(ids)
    if n < 2:
        return pd.DataFrame({"doc_id_a": np.asarray([], dtype=np.int64),
                             "doc_id_b": np.asarray([], dtype=np.int64),
                             "hamming": np.asarray([], dtype=np.int64)})
    hs = g["simhash"].to_numpy().astype(np.int64).view(np.uint64)
    block = max(1, _PAIR_BLOCK_BYTES // (n * 8 * 3))
    a_out: list[np.ndarray] = []
    b_out: list[np.ndarray] = []
    h_out: list[np.ndarray] = []
    for i0 in range(0, n - 1, block):
        i1 = min(i0 + block, n - 1)
        # rows i0..i1 against columns i0+1..n (upper triangle only)
        x = hs[i0:i1, None] ^ hs[None, i0 + 1:]
        d = _popcount64(x)
        ri, cj = np.nonzero(d <= max_hamming)
        ii = ri + i0
        jj = cj + i0 + 1
        keep = jj > ii
        if keep.any():
            a_out.append(ids[ii[keep]])
            b_out.append(ids[jj[keep]])
            h_out.append(d[ri[keep], cj[keep]])
    if not a_out:
        return _arrow(pd.DataFrame({
            "doc_id_a": np.asarray([], dtype=np.int64),
            "doc_id_b": np.asarray([], dtype=np.int64),
            "hamming": np.asarray([], dtype=np.int64)}))
    return _arrow(pd.DataFrame({
        "doc_id_a": np.concatenate(a_out).astype(np.int64),
        "doc_id_b": np.concatenate(b_out).astype(np.int64),
        "hamming": np.concatenate(h_out).astype(np.int64)}))


# -- word-set Jaccard (SQL-checkable variant) ------------------------------

def wordset_jaccard_pairs(group: pd.DataFrame, threshold: float) -> pd.DataFrame:
    """All pairs within one block (lang) with word-SET Jaccard >= threshold.
    Matches the oracle SQL exactly: split(' '), distinct, |∩|/|∪|."""
    ids = group["doc_id"].to_numpy()
    sets = [frozenset(t.split(" ")) for t in group["text"]]
    order = np.argsort(ids)
    a_out, b_out, j_out = [], [], []
    for ii in range(len(order)):
        i = order[ii]
        si = sets[i]
        for jj in range(ii + 1, len(order)):
            j = order[jj]
            sj = sets[j]
            inter = len(si & sj)
            union = len(si) + len(sj) - inter
            jac = inter / union if union else 0.0
            if jac >= threshold:
                a_out.append(int(ids[i]))
                b_out.append(int(ids[j]))
                j_out.append(round(jac, 6))
    return pd.DataFrame({"doc_id_a": np.asarray(a_out, dtype=np.int64),
                         "doc_id_b": np.asarray(b_out, dtype=np.int64),
                         "jac": np.asarray(j_out, dtype=np.float64)})


# -- char-n-gram Jaccard similarity join (prefix filter) --------------------

NGRAM_N = 5


def _char_shingles(text: str, n: int = NGRAM_N) -> set:
    return {text[i:i + n] for i in range(len(text) - n + 1)}


def ngram_jaccard(text_a: str, text_b: str, n: int = NGRAM_N) -> float:
    """Char-n-gram set Jaccard — the verify kernel AND the oracle formula."""
    sa, sb = _char_shingles(text_a, n), _char_shingles(text_b, n)
    inter = len(sa & sb)
    union = len(sa) + len(sb) - inter
    return inter / union if union else 0.0


def ngram_df_partial(batch: pd.DataFrame, n: int = NGRAM_N,
                     tokens_of=None) -> pd.DataFrame:
    """Per-batch partial document frequency of every distinct token
    (the pre-aggregate for the global df order the prefix filter sorts by).
    ``tokens_of`` overrides the char-n-gram tokenizer — the prefix-filter
    math is tokenizer-agnostic (any set-Jaccard join), so the word-set
    route reuses this with word tokens."""
    from collections import Counter

    tokens_of = tokens_of or (lambda t: _char_shingles(t, n))
    counts: Counter = Counter()
    for text in batch["text"]:
        counts.update(tokens_of(text))
    return pd.DataFrame({"shingle": list(counts.keys()),
                         "df": np.fromiter(counts.values(), dtype=np.int64,
                                           count=len(counts))})


def ngram_prefix_postings(batch: pd.DataFrame, df_map: dict, threshold: float,
                          n: int = NGRAM_N, cap: int | None = None,
                          tokens_of=None) -> pd.DataFrame:
    """(shingle, doc_id) postings for each doc's PREFIX shingles only.

    Prefix filtering (SSJoin/PPJoin): with every doc's shingle set sorted by
    one global total order — here (clamped df, shingle), rarest first — two
    docs with Jaccard >= t MUST share a shingle within their first
    ``|G| - ceil(t*|G|) + 1`` shingles, so only prefix postings need to
    shuffle. Rarity order makes hot shingles land in the suffix, keeping
    posting lists (and the quadratic pair expansion within them) short.

    ``cap`` bounds the broadcast for 100 TB vocabularies: ``df_map`` then
    holds ONLY the heavy head (df > cap — by pigeonhole at most
    total_postings/cap entries, a bound independent of vocabulary size) and
    every absent (light) shingle gets order key (cap, shingle) — below every
    heavy shingle, so hot shingles still sort LAST and posting lists for
    prefix shingles stay <= cap docs. Completeness needs only a globally
    consistent total order, which any clamp preserves. ``cap=None`` keeps
    the exact (df, shingle) order for full maps (tests/small corpora)."""
    tokens_of = tokens_of or (lambda t: _char_shingles(t, n))
    default = 1 if cap is None else cap
    shingles_out, ids_out = [], []
    for doc_id, text in zip(batch["doc_id"], batch["text"]):
        g = sorted(tokens_of(text),
                   key=lambda s: (df_map.get(s, default), s))
        if not g:
            continue
        # floor instead of ceil: a one-longer prefix is always safe
        p = len(g) - int(threshold * len(g)) + 1
        shingles_out.extend(g[:p])
        ids_out.extend([doc_id] * min(p, len(g)))
    return pd.DataFrame({"shingle": shingles_out,
                         "doc_id": np.asarray(ids_out, dtype=np.int64)})


def shingle_bucket_candidate_pairs(group: pd.DataFrame) -> pd.DataFrame:
    """One coarse shingle bucket -> candidate pairs (a<b) per exact shingle.
    Same Ray-group amortization trick as ``band_bucket_candidate_pairs``."""
    pairs = set()
    for _, g in group.groupby("shingle", sort=False):
        if len(g) < 2:
            continue
        ids = sorted(g["doc_id"].tolist())
        for i in range(len(ids)):
            for j in range(i + 1, len(ids)):
                pairs.add((ids[i], ids[j]))
    a_out = np.fromiter((p[0] for p in pairs), dtype=np.int64, count=len(pairs))
    b_out = np.fromiter((p[1] for p in pairs), dtype=np.int64, count=len(pairs))
    return pd.DataFrame({"doc_id_a": a_out, "doc_id_b": b_out})
