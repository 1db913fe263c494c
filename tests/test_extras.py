"""Secondary pipelines: S1-S3 readers, E4 town mining, E5 regression harness,
explain-mode scoring, string-util Java-parity edges (StringUtilTest.java:13-25)."""

from __future__ import annotations

import os

import pytest

from address_semantic_search_ray.data.synth import ensure_dataset
from address_semantic_search_ray.kernel.stringutil import head, sub_from, sub_incl, tail
from address_semantic_search_ray.sources.readers import parse_regression_line


@pytest.fixture(scope="module")
def tiny_data():
    return ensure_dataset(0.001, root="/tmp/asr_synth_test")


def test_regression_line_parser():
    r = parse_regression_line('"O1","山东","青岛","市南区","宁夏路118号","01/02/2024 10:30:00","G1"')
    assert r["order_no"] == "O1"
    assert r["text"] == "山东青岛市南区宁夏路118号"
    assert r["grid_id"] == "G1"
    assert r["ts"].year == 2024
    # bad date -> 1900-01-01 default (RegressionTestImportWLData.java:119-124)
    r = parse_regression_line('"O2","a","b","c","d","bogus","G2"')
    assert r["ts"].year == 1900
    # malformed lines are dropped
    assert parse_regression_line("not,quoted,line") is None
    assert parse_regression_line('"too","few","fields"') is None


def test_readers_ray(ray_session, tiny_data, tmp_path):
    import ray.data as rd

    from address_semantic_search_ray.sources.readers import (
        read_address_lines, read_regression_csv, semicolon_to_text,
    )

    # S1: one address per line
    p = tmp_path / "addrs.txt"
    p.write_text("山东青岛市南区宁夏路1号\n广东广州从化区温泉镇新田村\n", encoding="utf-8")
    ds = read_address_lines(str(p))
    assert ds.count() == 2

    # S2: semicolon format concatenation
    sds = rd.from_items([{"text": "山东;青岛;市南区;宁夏路1号"}])
    out = sds.map_batches(semicolon_to_text, batch_format="pyarrow").take(1)
    assert out[0]["text"] == "山东青岛市南区宁夏路1号"

    # S3: the generated regression CSV parses end-to-end
    reg = read_regression_csv(os.path.join(tiny_data, "regression.csv"))
    rows = reg.take(5)
    assert all(r["grid_id"].startswith("G") for r in rows)


def test_town_mining(ray_session, tiny_data):
    import ray.data as rd

    from address_semantic_search_ray.pipelines.extras import mine_towns
    from address_semantic_search_ray.pipelines.oracle import default_region_dict_path
    from address_semantic_search_ray.stages.interpret import put_region_table

    region_ref = put_region_table(default_region_dict_path())
    texts = rd.read_parquet(os.path.join(tiny_data, "addresses.parquet"), columns=["text"])
    mined = mine_towns(texts, region_ref, concurrency=2).to_pandas()
    assert len(mined) > 0
    # promoted ids follow parent*10000+seq (AddressPersister.java:168-199)
    assert ((mined["id"] // 10000) == mined["parent_id"]).all()
    # type by suffix: 村 -> 410, 镇/乡 -> 400
    for _, row in mined.iterrows():
        assert row["type"] == (410 if row["name"].endswith("村") else 400)
    # the synthetic rural segments are among the mined names
    assert any(n.endswith("村") for n in mined["name"])


def test_regression_harness(ray_session, tiny_data):
    from address_semantic_search_ray.pipelines.extras import regression_accuracy

    buckets = regression_accuracy(tiny_data, concurrency=2)
    row = buckets.iloc[0]
    total = int(row["hs"] + row["hf"] + row["ls"] + row["lf"] + row["zero"])
    assert total > 0
    # linking a labeled variant back to its own corpus: high-sim hits dominate
    assert row["hs"] / total >= 0.7


def test_explain_mode(interpreter):
    from address_semantic_search_ray.kernel.document import analyse, term_idf_key
    from address_semantic_search_ray.kernel.similarity import (
        compute_doc_similarity, compute_idf, find_similar, find_similar_explain,
        stat_inverse_doc_refers,
    )

    texts = [
        "北京北京海淀区万寿路翠微西里13号楼1403室",
        "北京北京海淀区万寿路翠微北里89号2楼",
        "北京北京海淀区中关村南大街9号理想大厦",
    ]
    addrs = [interpreter.interpret(t) for t in texts]
    docs = [analyse(a, doc_id=i) for i, a in enumerate(addrs)]
    idf = compute_idf(len(docs), stat_inverse_doc_refers(docs))
    for d in docs:
        for t in d.terms:
            t.idf = idf.get(term_idf_key(t), 0.0)
    q = analyse(interpreter.interpret("北京市海淀区万寿路翠微西里13号楼"), idf_lookup=idf, doc_id=-1)
    explained = find_similar_explain(q, docs, top_n=2)
    plain = find_similar(q, docs, top_n=2)
    # same ranking + similarity as the fast path
    assert [(d, round(s, 12)) for d, s, _ in explained] == \
        [(d, round(s, 12)) for d, s in plain]
    # matched-term records carry boost/tfidf; text matches carry coord/density
    top_matches = explained[0][2]
    assert any(m["type"] == "X" and m["coord"] > 0 for m in top_matches)
    assert any(m["type"] == "R" and m["coord"] == -1.0 for m in top_matches)
    # explain sim equals the scalar kernel
    assert explained[0][1] == pytest.approx(compute_doc_similarity(q, docs[0]))


def test_stringutil_inclusive_edges():
    # StringUtil.java semantics (inclusive endIndex; begin<=0 passthrough)
    assert sub_incl("abcdef", 1, 3) == "bcd"
    assert sub_incl("abcdef", 0, 5) == "abcdef"
    assert sub_incl("abcdef", -2, 99) == "abcdef"
    assert sub_incl("abcdef", 4, 2) == ""
    assert sub_from("abcdef", 0) == "abcdef"
    assert sub_from("abcdef", -1) == "abcdef"
    assert sub_from("abcdef", 6) == ""
    assert head("abc", 5) == "abc"
    assert head("abc", 0) == ""
    assert tail("abcdef", 2) == "ef"
    assert tail("abc", 9) == "abc"


def test_jsonl_transcript_reader(ray_session, tmp_path):
    from address_semantic_search_ray.sources.readers import (
        TRANSCRIPT_COLUMNS, read_transcripts_jsonl,
    )

    p = tmp_path / "turns.jsonl"
    p.write_text(
        '{"conv_id": "c1", "turn_idx": 0, "role": "user", '
        '"text": "请把包裹寄到北京市海淀区中关村大街1号", "ts": "2024-01-01T08:00:00"}\n'
        '{"conv_id": "c1", "turn_idx": 1, "role": "assistant", "text": "好的"}\n',
        encoding="utf-8")
    ds = read_transcripts_jsonl(str(p))
    tbl = ds.take_all()
    assert len(tbl) == 2
    assert set(TRANSCRIPT_COLUMNS) <= set(tbl[0].keys())
    assert tbl[0]["turn_idx"] == 0 and tbl[0]["role"] == "user"
    assert tbl[1]["tool"] is None and tbl[1]["ts"] is None
    # the normalized schema feeds the mention stage directly
    import pyarrow as pa

    from address_semantic_search_ray.pipelines.oracle import default_region_dict_path
    from address_semantic_search_ray.stages.interpret import (
        MentionStage, per_block, put_region_table,
    )

    region_ref = put_region_table(default_region_dict_path())
    out = ds.map_batches(per_block(MentionStage, region_ref, batch_size=16),
                         batch_format="pyarrow", batch_size=None,
                         concurrency=1).take_all()
    assert len(out) == 1 and out[0]["district_key"].count("-") == 2


def test_jsonl_transcript_reader_iso_variants(ray_session, tmp_path):
    """ISO-8601 fractional seconds, 'Z', and offsets must all parse; zoned
    values normalize to UTC wall time."""
    from datetime import datetime

    from address_semantic_search_ray.sources.readers import read_transcripts_jsonl

    cases = [
        ("frac.jsonl", "2024-01-01T08:00:00.123456", datetime(2024, 1, 1, 8, 0, 0, 123456)),
        ("zulu.jsonl", "2024-01-01T08:00:00Z", datetime(2024, 1, 1, 8, 0, 0)),
        ("offs.jsonl", "2024-01-01T08:00:00+02:00", datetime(2024, 1, 1, 6, 0, 0)),
    ]
    for fname, ts, expected in cases:
        p = tmp_path / fname
        p.write_text('{"conv_id": "c1", "turn_idx": 0, "role": "user", '
                     f'"text": "hi", "ts": "{ts}"}}\n', encoding="utf-8")
        row = read_transcripts_jsonl(str(p)).take_all()[0]
        assert row["ts"] == expected, (ts, row["ts"])


def test_simhash_pair_blocks_match_unblocked():
    """The row-blocked SWAR popcount pass must find exactly the pairs the
    plain O(n^2)-memory computation finds, even with a tiny block size."""
    import numpy as np
    import pandas as pd

    from address_semantic_search_ray.stages import dedup as dd

    rng = np.random.default_rng(7)
    n = 300
    ids = np.arange(n, dtype=np.int64)
    hs = rng.integers(0, 2**63 - 1, size=n, dtype=np.int64)
    # plant near-dup clusters (low hamming)
    hs[10] = hs[20] = hs[30]
    hs[40] = hs[50] ^ 0b11  # hamming 2
    g = pd.DataFrame({"doc_id": ids, "simhash": hs,
                      "seg_idx": 0, "seg_val": 0})

    def naive(group, max_h):
        rows = []
        h = group["simhash"].to_numpy().astype(np.int64).view(np.uint64)
        for i in range(n):
            for j in range(i + 1, n):
                d = bin(int(h[i] ^ h[j])).count("1")
                if d <= max_h:
                    rows.append((i, j, d))
        return sorted(rows)

    for blk in (1 << 10, 1 << 20):
        old = dd._PAIR_BLOCK_BYTES
        dd._PAIR_BLOCK_BYTES = blk
        try:
            got = dd.seg_pairs_vec(g, 3)
        finally:
            dd._PAIR_BLOCK_BYTES = old
        got = got.to_pandas()  # seg_pairs_vec emits an Arrow shuffle block
        got_rows = sorted(zip(got["doc_id_a"], got["doc_id_b"], got["hamming"]))
        assert [(int(a), int(b), int(h)) for a, b, h in got_rows] == naive(g, 3)


@pytest.fixture(scope="module")
def kg_work(ray_session, tiny_data, tmp_path_factory):
    from address_semantic_search_ray.pipelines.kg import run_kg_pipeline

    return run_kg_pipeline(tiny_data, str(tmp_path_factory.mktemp("kgwork")),
                           concurrency=2)


def test_links_explain_matches_naive(ray_session, tiny_data, kg_work, tmp_path):
    """Distributed explain-mode linking == the single-process twin, row for
    row (order-insensitive), at sf0.001."""
    import pandas as pd
    import pyarrow.parquet as pq

    from address_semantic_search_ray.pipelines import naive
    from address_semantic_search_ray.pipelines.extras import links_explain

    got = links_explain(tiny_data, kg_work["mentions"], concurrency=2).to_pandas()

    out_dir = str(tmp_path / "oracle")
    os.makedirs(out_dir, exist_ok=True)
    naive.write_links_explain(tiny_data, out_dir)
    exp = pq.read_table(os.path.join(out_dir, "kg_links_explain.parquet")).to_pandas()

    assert len(got) == len(exp) > 0
    key = list(got.columns)
    g = got.sort_values(key, kind="stable").reset_index(drop=True)
    e = exp[key].sort_values(key, kind="stable").reset_index(drop=True)
    pd.testing.assert_frame_equal(g, e, check_dtype=False)


def test_side_pipelines_sharded_index_matches(ray_session, tiny_data, kg_work,
                                              monkeypatch):
    """The regression and explain linkers build their index through the KG
    pipeline's router: forcing its sharded side (distributed interpret +
    per-bucket build) gives the same output as the default single-task
    build."""
    import pandas as pd

    from address_semantic_search_ray.pipelines import kg
    from address_semantic_search_ray.pipelines.extras import (
        links_explain, regression_accuracy)

    def run():
        reg = regression_accuracy(tiny_data, concurrency=2)
        exp = links_explain(tiny_data, kg_work["mentions"], concurrency=2).to_pandas()
        return reg, exp.sort_values(list(exp.columns), kind="stable").reset_index(drop=True)

    reg, exp = run()
    sharded_builds = []
    build = kg.build_sharded_index_refs
    monkeypatch.setattr(kg, "build_sharded_index_refs",
                        lambda ds: sharded_builds.append(1) or build(ds))
    monkeypatch.setattr(kg, "SMALL_INDEX_OVERLAP_MAX_BYTES", 0)
    reg_sharded, exp_sharded = run()
    assert len(sharded_builds) == 2
    assert len(exp) > 0 and int(reg.iloc[0].sum()) > 0
    pd.testing.assert_frame_equal(reg_sharded, reg)
    pd.testing.assert_frame_equal(exp_sharded, exp)


def test_kg_entity_cooccurrence_matches_pandas_join(ray_session):
    """Co-mention edges vs an independent pandas self-join over the SAME
    pipeline triple table (the triple table itself is oracle-verified by
    kg_triples): distinct (conv, obj) under pred='mentions', pairs a<b,
    count of convs."""
    import itertools

    import pandas as pd
    import ray.data as rd

    from address_semantic_search_ray.pipelines.queries import (
        _kg_artifacts, kg_entity_cooccurrence)

    sf = "/root/testdata/sf0.001"
    got = (kg_entity_cooccurrence(sf).to_pandas()
           .sort_values(["obj_a", "obj_b"]).reset_index(drop=True))

    tri = rd.read_parquet(_kg_artifacts(sf)["triples"],
                          columns=["pred", "obj", "conv_id"]).to_pandas()
    ents = tri[tri["pred"] == "mentions"][["conv_id", "obj"]].drop_duplicates()
    rows = {}
    for _, sub in ents.groupby("conv_id"):
        for a, b in itertools.combinations(sorted(sub["obj"]), 2):
            rows[(a, b)] = rows.get((a, b), 0) + 1
    want = (pd.DataFrame([(a, b, n) for (a, b), n in rows.items()],
                         columns=["obj_a", "obj_b", "n_convs"])
            .sort_values(["obj_a", "obj_b"]).reset_index(drop=True))
    got["n_convs"] = got["n_convs"].astype(int)
    want["n_convs"] = want["n_convs"].astype(int)
    assert len(got) == len(want) > 0
    pd.testing.assert_frame_equal(got, want)
