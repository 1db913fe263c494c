"""Char-n-gram Jaccard similarity join: both exact plans vs brute force.

The adaptive plan switch routes the driver's vocab-starved synthetic
documents through the dense block scan (median shingle df ~6% of docs), so
the prefix-filter path is exercised here on a df-SKEWED corpus (random hex
docs: median df == 1), which is the regime the 100 TB design targets.
"""

from __future__ import annotations

import os
import random

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq
import pytest

from address_semantic_search_ray.stages.dedup import _char_shingles
from tests.conftest import SF_SMALL


def _brute_force(ids, texts, threshold):
    sets = [_char_shingles(t) for t in texts]
    out = set()
    for i in range(len(ids)):
        for j in range(i + 1, len(ids)):
            inter = len(sets[i] & sets[j])
            union = len(sets[i]) + len(sets[j]) - inter
            jac = inter / union if union else 0.0
            if jac >= threshold:
                a, b = sorted((ids[i], ids[j]))
                out.add((a, b, round(jac, 6)))
    return out


def _result_set(ds):
    df = ds.to_pandas()
    return set(zip(df["doc_id_a"].astype(int), df["doc_id_b"].astype(int),
                   df["jac"].round(6)))


@pytest.fixture(scope="module")
def skewed_corpus(tmp_path_factory):
    """300 random-hex docs (shingles unique, median df=1) + 12 planted
    near-dup pairs at jac ~0.7-0.95."""
    rng = random.Random(7)
    texts = ["".join(rng.choice("0123456789abcdef") for _ in range(200))
             for _ in range(300)]
    for k in range(12):
        base = texts[k]
        pos = rng.randrange(0, 180)
        mutated = base[:pos] + rng.choice("ghijkl") + base[pos + 1:]
        texts.append(mutated)
    ids = list(range(len(texts)))
    d = tmp_path_factory.mktemp("ngram")
    path = os.path.join(str(d), "documents.parquet")
    pq.write_table(pa.table({"doc_id": pa.array(ids, pa.int64()),
                             "text": pa.array(texts, pa.string())}), path)
    return str(d), ids, texts


def test_prefix_filter_path_matches_brute_force(ray_session, skewed_corpus):
    from address_semantic_search_ray.pipelines.queries import dedup_ngram_jaccard

    sf_dir, ids, texts = skewed_corpus
    got = _result_set(dedup_ngram_jaccard(sf_dir, threshold=0.5))
    want = _brute_force(ids, texts, 0.5)
    assert len(want) >= 12  # the planted pairs are actually above threshold
    assert got == want


def test_dense_path_matches_brute_force(ray_session, skewed_corpus):
    from address_semantic_search_ray.pipelines.queries import _dense_pairs, _read

    sf_dir, ids, texts = skewed_corpus
    docs = _read(sf_dir, "documents", ["doc_id", "text"])
    got = _result_set(_dense_pairs(docs, _char_shingles, 0.5))
    assert got == _brute_force(ids, texts, 0.5)


def test_dense_scan_rows_follow_corpus_size(ray_session, skewed_corpus,
                                            monkeypatch):
    """The dense scan's block rows follow n_docs under a fixed scratch
    budget: 512 at sf0.1's 5k docs, fewer at 1M docs; a budget that cuts
    each batch into 7-row blocks finds the same pairs."""
    from address_semantic_search_ray.pipelines import queries as q

    budget = q.DENSE_SCAN_SCRATCH_BYTES
    assert q.dense_scan_rows(5_000, budget) == 512
    big = q.dense_scan_rows(1_000_000, budget)
    assert 1 <= big < 512 and big * 1_000_000 * 40 <= budget

    sf_dir, ids, texts = skewed_corpus
    monkeypatch.setattr(q, "DENSE_SCAN_SCRATCH_BYTES", 40 * len(ids) * 7)
    assert q.dense_scan_rows(len(ids), q.DENSE_SCAN_SCRATCH_BYTES) == 7
    docs = q._read(sf_dir, "documents", ["doc_id", "text"])
    got = _result_set(q._dense_pairs(docs, _char_shingles, 0.5))
    assert got == _brute_force(ids, texts, 0.5)


def test_adaptive_switch_routes_by_df_shape(skewed_corpus):
    """Median df=1 on the skewed corpus -> prefix; the driver's synthetic
    documents (median df ~6% of docs) -> dense."""
    from collections import Counter

    _, _, texts = skewed_corpus
    df: Counter = Counter()
    for t in texts:
        df.update(_char_shingles(t))
    med = float(np.median(np.fromiter(df.values(), dtype=np.int64)))
    assert med <= 0.01 * len(texts)  # routes prefix

    tbl = pq.read_table("/root/testdata/sf0.001/documents.parquet",
                        columns=["text"])
    df2: Counter = Counter()
    for t in tbl.column("text").to_pylist():
        df2.update(_char_shingles(t))
    med2 = float(np.median(np.fromiter(df2.values(), dtype=np.int64)))
    assert med2 > 0.01 * tbl.num_rows  # routes dense


def test_plan_chooser_routes_by_df_shape(ray_session, skewed_corpus,
                                         monkeypatch):
    """``set_similarity_join``'s one plan rule: the skewed corpus takes the
    prefix plan; both dedup tokenizers take the dense plan on the driver's
    documents."""
    from address_semantic_search_ray.pipelines import queries as q

    routes = []
    monkeypatch.setattr(q, "_dense_pairs", lambda *a: routes.append("dense"))
    monkeypatch.setattr(q, "_prefix_filter_pairs",
                        lambda *a: routes.append("prefix"))
    for sf_dir in (skewed_corpus[0], SF_SMALL):
        q.set_similarity_join(q._read(sf_dir, "documents", ["doc_id", "text"]),
                              _char_shingles, None, 0.5)
    q.dedup_wordset_jaccard(SF_SMALL)
    assert routes == ["prefix", "dense", "dense"]


def _uf_canonical(ids, texts, threshold):
    """Union-find over brute-force pairs -> {doc_id: min reachable id},
    only for docs in >=1 pair."""
    pairs = _brute_force(ids, texts, threshold)
    parent = {}

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for a, b, _ in pairs:
        parent.setdefault(a, a)
        parent.setdefault(b, b)
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[max(ra, rb)] = min(ra, rb)
    return {x: find(x) for x in parent}


def test_dedup_clusters_matches_union_find(ray_session, skewed_corpus):
    from address_semantic_search_ray.pipelines.queries import dedup_clusters

    sf_dir, ids, texts = skewed_corpus
    df = dedup_clusters(sf_dir, threshold=0.5).to_pandas()
    got = dict(zip(df["doc_id"].astype(int), df["canonical_id"].astype(int)))
    assert got == _uf_canonical(ids, texts, 0.5)


def test_dedup_clusters_propagates_multi_hop(ray_session, tmp_path):
    """B ~ A ~ C with jac(B, C) < threshold: the cluster closes only through
    label propagation (2 hops), not through any single pair."""
    rng = random.Random(11)
    s = "".join(rng.choice("0123456789abcdef") for _ in range(400))
    a = s
    b = "".join(rng.choice("ghijkl") for _ in range(90)) + s[90:]
    c = s[:300] + "".join(rng.choice("ghijkl") for _ in range(90)) + s[390:]
    texts = [a, b, c] + ["".join(rng.choice("0123456789abcdef")
                                 for _ in range(400)) for _ in range(40)]
    ids = list(range(len(texts)))
    path = os.path.join(str(tmp_path), "documents.parquet")
    pq.write_table(pa.table({"doc_id": pa.array(ids, pa.int64()),
                             "text": pa.array(texts, pa.string())}), path)

    want = _uf_canonical(ids, texts, 0.5)
    # the premise: A-B and A-C are edges, B-C is not
    pairs = {(x, y) for x, y, _ in _brute_force(ids, texts, 0.5)}
    assert (0, 1) in pairs and (0, 2) in pairs and (1, 2) not in pairs
    assert want == {0: 0, 1: 0, 2: 0}

    from address_semantic_search_ray.pipelines.queries import dedup_clusters

    df = dedup_clusters(str(tmp_path), threshold=0.5).to_pandas()
    got = dict(zip(df["doc_id"].astype(int), df["canonical_id"].astype(int)))
    assert got == want


from collections import Counter

from hypothesis import given, settings
from hypothesis import strategies as st

from address_semantic_search_ray.stages.dedup import ngram_prefix_postings
import pandas as pd


@settings(max_examples=200, deadline=None)
@given(
    texts=st.lists(
        st.text(alphabet=st.sampled_from("abcdef"), min_size=0, max_size=40),
        min_size=2, max_size=12),
    threshold=st.floats(min_value=0.05, max_value=0.95),
)
def test_prefix_filter_completeness_property(texts, threshold):
    """The prefix filter must NEVER lose a qualifying pair: any two docs
    with char-5-gram Jaccard >= t share at least one shingle that BOTH
    emitted as a prefix posting (tiny alphabet = worst case: heavy shingle
    sharing, short docs, empty docs, exact duplicates)."""
    df: Counter = Counter()
    sets = [_char_shingles(t) for t in texts]
    for s in sets:
        df.update(s)
    batch = pd.DataFrame({"doc_id": list(range(len(texts))), "text": texts})
    post = ngram_prefix_postings(batch, dict(df), threshold)
    emitted = {}
    for sh, d in zip(post["shingle"], post["doc_id"]):
        emitted.setdefault(int(d), set()).add(sh)
    for i in range(len(texts)):
        for j in range(i + 1, len(texts)):
            inter = len(sets[i] & sets[j])
            union = len(sets[i]) + len(sets[j]) - inter
            jac = inter / union if union else 0.0
            if jac >= threshold and union > 0:
                shared = emitted.get(i, set()) & emitted.get(j, set())
                assert shared, (texts[i], texts[j], jac, threshold)


@settings(max_examples=100, deadline=None)
@given(
    texts=st.lists(
        st.text(alphabet=st.sampled_from("abcdef"), min_size=0, max_size=40),
        min_size=2, max_size=12),
    threshold=st.floats(min_value=0.05, max_value=0.95),
)
def test_prefix_filter_completeness_capped_heavy_map(texts, threshold):
    """Completeness must survive the 100 TB broadcast bound: df_map holds
    ONLY the heavy head (df > cap) and absent shingles get order key
    (cap, shingle). cap=2 is aggressively small so most shingles are absent."""
    df: Counter = Counter()
    sets = [_char_shingles(t) for t in texts]
    for s in sets:
        df.update(s)
    cap = 2
    heavy = {s: c for s, c in df.items() if c > cap}
    batch = pd.DataFrame({"doc_id": list(range(len(texts))), "text": texts})
    post = ngram_prefix_postings(batch, heavy, threshold, cap=cap)
    emitted = {}
    for sh, d in zip(post["shingle"], post["doc_id"]):
        emitted.setdefault(int(d), set()).add(sh)
    for i in range(len(texts)):
        for j in range(i + 1, len(texts)):
            inter = len(sets[i] & sets[j])
            union = len(sets[i]) + len(sets[j]) - inter
            jac = inter / union if union else 0.0
            if jac >= threshold and union > 0:
                shared = emitted.get(i, set()) & emitted.get(j, set())
                assert shared, (texts[i], texts[j], jac, threshold)


def test_degenerate_corpus_short_texts(ray_session, tmp_path):
    """Texts shorter than the shingle window: no shingles, no pairs, no
    clusters — every stage must return empty cleanly (prefix path, since
    the df map is empty)."""
    texts = ["ab", "cd", "", "abcd", "x"]
    path = os.path.join(str(tmp_path), "documents.parquet")
    pq.write_table(pa.table({"doc_id": pa.array(range(len(texts)), pa.int64()),
                             "text": pa.array(texts, pa.string())}), path)
    from address_semantic_search_ray.pipelines.queries import (
        dedup_clusters, dedup_ngram_jaccard)

    assert dedup_ngram_jaccard(str(tmp_path)).to_pandas().empty
    assert dedup_clusters(str(tmp_path)).to_pandas().empty


def test_common_spans_detects_shared_prefix(ray_session, tmp_path):
    from address_semantic_search_ray.pipelines.queries import dedup_common_spans

    shared = "x" * 70
    tbl = pa.table({
        "doc_id": pa.array([1, 2, 3], pa.int64()),
        "text": pa.array([shared + " tail one", shared + " other tail",
                          "completely different and also quite long " * 3]),
    })
    pq.write_table(tbl, str(tmp_path / "documents.parquet"))
    got = dedup_common_spans(str(tmp_path)).to_pandas()
    # docs 1 and 2 share the width-64 window at offset 0; doc 3 shares none
    assert (got["n_docs"] == 2).all() and len(got) >= 1


def test_common_spans_short_docs_empty(ray_session, tmp_path):
    from address_semantic_search_ray.pipelines.queries import dedup_common_spans

    tbl = pa.table({"doc_id": pa.array([1, 2], pa.int64()),
                    "text": pa.array(["short", "also short"])})
    pq.write_table(tbl, str(tmp_path / "documents.parquet"))
    assert dedup_common_spans(str(tmp_path)).to_pandas().empty


def test_ngram_pair_memo_invalidates_on_corpus_change(ray_session, tmp_path):
    # the in-process pair-table memo keys on (path, size, mtime_ns,
    # threshold): rewriting the corpus must recompute, not replay
    import os
    import time

    from address_semantic_search_ray.pipelines.queries import dedup_ngram_jaccard

    base = "the quick brown fox jumps over the lazy dog and keeps running on"
    t1 = [base + " alpha", base + " alphb", "zzz completely different text"]
    tbl = pa.table({"doc_id": pa.array([1, 2, 3], pa.int64()),
                    "text": pa.array(t1)})
    path = str(tmp_path / "documents.parquet")
    pq.write_table(tbl, path)
    first = dedup_ngram_jaccard(str(tmp_path), threshold=0.5).to_pandas()
    assert set(zip(first["doc_id_a"], first["doc_id_b"])) == {(1, 2)}

    time.sleep(0.01)  # ensure a distinct mtime_ns
    tbl2 = pa.table({"doc_id": pa.array([1, 2, 3], pa.int64()),
                     "text": pa.array(["aaa", "bbb", "ccc"])})
    pq.write_table(tbl2, path)
    os.utime(path)
    second = dedup_ngram_jaccard(str(tmp_path), threshold=0.5).to_pandas()
    assert second.empty


def test_common_spans_short_first_block_schema(ray_session, tmp_path):
    # a leading all-short-text batch emits a ZERO-window block; its schema
    # must still be (h: string, ...) or downstream block unification breaks
    from address_semantic_search_ray.pipelines.queries import dedup_common_spans

    shared = "y" * 70
    texts = ["tiny"] * 1100 + [shared + " one", shared + " two"]
    tbl = pa.table({
        "doc_id": pa.array(range(len(texts)), pa.int64()),
        "text": pa.array(texts),
    })
    pq.write_table(tbl, str(tmp_path / "documents.parquet"))
    got = dedup_common_spans(str(tmp_path)).to_pandas()
    assert len(got) == 1 and int(got["n_docs"].iloc[0]) == 2


def test_wordset_dense_matches_grouped(ray_session):
    # the round-4 streamed-x-broadcast plan and the per-lang grouped
    # fallback must emit identical pair sets (same hash gate)
    from address_semantic_search_ray.pipelines.queries import (
        _read, dedup_wordset_jaccard)
    from address_semantic_search_ray.stages.dedup import wordset_jaccard_pairs

    sf = "/root/testdata/sf0.001"
    dense = dedup_wordset_jaccard(sf).to_pandas()
    grouped = (_read(sf, "documents", ["doc_id", "lang", "text"])
               .groupby("lang")
               .map_groups(lambda g: wordset_jaccard_pairs(g, 0.9),
                           batch_format="pandas").to_pandas())
    key = lambda df: set(zip(df["doc_id_a"].astype(int),
                             df["doc_id_b"].astype(int),
                             df["jac"].round(6)))
    assert key(dense) == key(grouped) and len(dense) == len(grouped)


def _wordset_plans(docs, threshold):
    """The word-set join's pair sets on each plan, called directly:
    (dense, prefix filter)."""
    from address_semantic_search_ray.pipelines.queries import (
        _dense_pairs, _lang_word_tokens, _prefix_filter_pairs, _token_df_agg,
        _wordset_sim)

    dense = _dense_pairs(docs, _lang_word_tokens, threshold).to_pandas()
    post = _prefix_filter_pairs(docs, _token_df_agg(docs, _lang_word_tokens),
                                docs.count(), _wordset_sim, threshold,
                                _lang_word_tokens).to_pandas()
    key = lambda df: set(zip(df["doc_id_a"].astype(int),
                             df["doc_id_b"].astype(int),
                             df["jac"].round(6)))
    assert len(dense) == len(key(dense)) and len(post) == len(key(post))
    return key(dense), key(post)


def _postings_matches_dense(monkeypatch, n_buckets=None):
    from address_semantic_search_ray.pipelines.queries import _wordset_docs
    from address_semantic_search_ray.stages import cogroup

    if n_buckets is not None:
        monkeypatch.setattr(cogroup, "N_COGROUP_BUCKETS", n_buckets)
    dense, post = _wordset_plans(_wordset_docs(SF_SMALL), 0.5)
    assert len(dense) > 0 and dense == post


def test_wordset_postings_route_matches_dense(ray_session, monkeypatch):
    """Round-4 verdict #1: the oversized-vocab plan is the PPJoin
    prefix filter over lang-qualified word tokens — called directly, it
    must emit the dense plan's exact pair table. At the default co-group
    bucket count a pair can come out of several shingle buckets, so verify
    must drop the copies."""
    _postings_matches_dense(monkeypatch)


def test_wordset_postings_route_one_bucket(ray_session, monkeypatch):
    """The same pair table with every co-group in one bucket."""
    _postings_matches_dense(monkeypatch, n_buckets=1)


@pytest.fixture
def two_lang_docs(tmp_path):
    """Docs 1 and 2 share a text but not a lang; jac(1, 3) = 0.8."""
    from address_semantic_search_ray.pipelines.queries import _wordset_docs

    texts = ["alpha beta gamma delta", "alpha beta gamma delta",
             "alpha beta gamma delta epsilon", "unrelated words here now"]
    langs = ["en", "fr", "en", "en"]
    pq.write_table(pa.table({"doc_id": pa.array([1, 2, 3, 4], pa.int64()),
                             "lang": pa.array(langs, pa.string()),
                             "text": pa.array(texts, pa.string())}),
                   str(tmp_path / "documents.parquet"))
    return _wordset_docs(str(tmp_path))


def test_wordset_postings_within_lang_only(ray_session, two_lang_docs):
    """Identical texts in different langs must NOT pair on the postings
    plan (lang-qualified posting keys make cross-lang candidates
    impossible)."""
    _, post = _wordset_plans(two_lang_docs, 0.75)
    assert {(a, b) for a, b, _ in post} == {(1, 3)}


def test_wordset_dense_within_lang_only(ray_session, two_lang_docs):
    """Nor on the dense plan: lang-qualified tokens give a cross-lang pair
    an empty intersection, so its Jaccard is 0."""
    dense, _ = _wordset_plans(two_lang_docs, 0.75)
    assert {(a, b) for a, b, _ in dense} == {(1, 3)}


def test_wordset_grouped_quadratic_branch_is_gone():
    """The per-lang all-pairs map_groups fallback (the round-4 'weak at
    scale' shape) must not exist in the operator's source anymore."""
    import inspect

    from address_semantic_search_ray.pipelines import queries

    src = inspect.getsource(queries.dedup_wordset_jaccard)
    assert "wordset_jaccard_pairs" not in src
    assert 'groupby("lang")' not in src


_HOLD_SCRIPT = """
import json, sys, time
import ray
ray.init(address="local", num_cpus=4, include_dashboard=False,
         logging_level="ERROR")
from address_semantic_search_ray.pipelines import queries as q
total = ray.cluster_resources()["CPU"]
held = {}
for name in ("dedup_wordset_jaccard", "dedup_ngram_jaccard",
             "dedup_clusters", "dedup_filter"):
    getattr(q, name)(sys.argv[1]).to_pandas()
    deadline = time.time() + 10
    while ray.available_resources().get("CPU", 0) < total \\
            and time.time() < deadline:
        time.sleep(0.2)
    held[name] = total - ray.available_resources().get("CPU", 0)
ray.shutdown()
print(json.dumps(held))
"""


def test_dedup_queries_release_cpus():
    """A finished dedup query holds no CPU, so the next query in the same
    session gets the whole cluster. A fresh Ray session (its own process,
    so no earlier test's state counts) runs the four dedup queries one
    after another; after each ``to_pandas()``, with no ``gc.collect()``,
    every CPU must be free again within 10 s."""
    import json
    import subprocess
    import sys

    repo = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    out = subprocess.run(
        [sys.executable, "-c", _HOLD_SCRIPT, SF_SMALL],
        cwd=repo, capture_output=True, text=True, timeout=600)
    assert out.returncode == 0, out.stderr[-2000:]
    held = json.loads(out.stdout.strip().splitlines()[-1])
    assert held == {name: 0 for name in held} and len(held) == 4, held
