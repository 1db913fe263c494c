"""End-to-end: Ray KG pipeline triples == single-process oracle triples.

This is the binding P/R gate (BASELINE.md): both sides share the kernel, so
the comparison isolates orchestration — partitioning, shuffles, stable turn
ordering, dedup. Also covers resume-from-checkpoint semantics.
"""

from __future__ import annotations

import gc
import glob
import shutil

import pyarrow.compute as pc
import pyarrow.parquet as pq
import pytest

from address_semantic_search_ray.data.synth import ensure_dataset
from address_semantic_search_ray.pipelines.oracle import run_oracle


@pytest.fixture(scope="module")
def tiny_data():
    return ensure_dataset(0.001, root="/tmp/asr_synth_test")


def _triple_set(table):
    return set(zip(
        table.column("subj").to_pylist(),
        table.column("pred").to_pylist(),
        table.column("obj").to_pylist(),
        table.column("conv_id").to_pylist(),
        table.column("turn_idx").to_pylist(),
        table.column("district_key").to_pylist(),
        [round(s, 9) for s in table.column("score").to_pylist()],
    ))


@pytest.fixture(scope="module")
def pipeline_result(ray_session, tiny_data, tmp_path_factory):
    from address_semantic_search_ray.pipelines.kg import run_kg_pipeline

    work = str(tmp_path_factory.mktemp("kgwork"))
    result = run_kg_pipeline(tiny_data, work, concurrency=2)
    return result


def test_triples_match_oracle(tiny_data, pipeline_result):
    oracle = run_oracle(tiny_data)
    ray_triples = pq.read_table(pipeline_result["triples"])
    o, r = _triple_set(oracle), _triple_set(ray_triples)
    missing = o - r
    extra = r - o
    precision = 1 - len(extra) / max(len(r), 1)
    recall = 1 - len(missing) / max(len(o), 1)
    assert precision >= 0.95 and recall >= 0.95, (
        f"P={precision:.3f} R={recall:.3f}; missing={list(missing)[:3]} extra={list(extra)[:3]}"
    )
    # both sides share the kernel: expect exact equality, not just >=0.95
    assert o == r


def test_per_turn_text_equality(tiny_data, pipeline_result):
    """Mentions checkpoint must reflect the source turns exactly: every
    (conv_id, turn_idx) it references exists in the input with the same text
    ordering (stable turn ordering invariant)."""
    transcripts = pq.read_table(tiny_data + "/transcripts.parquet",
                                columns=["conv_id", "turn_idx", "text"])
    turns = {(c, t): x for c, t, x in zip(
        transcripts.column("conv_id").to_pylist(),
        transcripts.column("turn_idx").to_pylist(),
        transcripts.column("text").to_pylist())}
    mentions = pq.read_table(pipeline_result["mentions"])
    for c, t, residual in zip(
        mentions.column("conv_id").to_pylist(),
        mentions.column("turn_idx").to_pylist(),
        mentions.column("residual").to_pylist(),
    ):
        assert (c, t) in turns
        # the mention's residual text must be a derivation of that exact turn
        assert residual == "" or any(ch in turns[(c, t)] for ch in residual[:3])


def test_linking_accuracy_vs_truth(tiny_data, pipeline_result):
    """Top-1 link recovers the embedded ground-truth address (>=0.9 of
    linkable mentions; small-district idf degeneracy is expected tail)."""
    truth = pq.read_table(tiny_data + "/mentions_truth.parquet")
    tt = {(c, t): a for c, t, a in zip(
        truth.column("conv_id").to_pylist(),
        truth.column("turn_idx").to_pylist(),
        truth.column("addr_id").to_pylist())}
    links = pq.read_table(pipeline_result["links"])
    hit = wrong = 0
    for c, t, linked in zip(
        links.column("conv_id").to_pylist(),
        links.column("turn_idx").to_pylist(),
        links.column("linked_addr").to_pylist(),
    ):
        want = tt.get((c, t))
        if want is None:
            continue
        if linked == want:
            hit += 1
        else:
            wrong += 1
    assert hit / max(hit + wrong, 1) >= 0.9


def test_resume_skips_completed_stages(ray_session, tiny_data, pipeline_result):
    from address_semantic_search_ray.pipelines.kg import run_kg_pipeline

    work = pipeline_result["triples"].rsplit("/", 1)[0]
    # rerun: everything skipped
    res2 = run_kg_pipeline(tiny_data, work, concurrency=2)
    assert all(m["skipped"] for m in res2["metrics"])
    # invalidate one mid-pipeline stage: only it and downstream rerun
    shutil.rmtree(pipeline_result["links"])
    res3 = run_kg_pipeline(tiny_data, work, concurrency=2)
    by_stage = {m["stage"]: m["skipped"] for m in res3["metrics"]}
    assert by_stage["doc_vectors"] and by_stage["idf"] and by_stage["mentions"]
    assert not by_stage["links"] and not by_stage["triples"]
    # and the re-built output still matches the oracle
    oracle = run_oracle(tiny_data)
    assert _triple_set(oracle) == _triple_set(pq.read_table(res3["triples"]))


def test_resume_reruns_after_code_change(ray_session, tiny_data, tmp_path, monkeypatch):
    """Stage fingerprints carry the code version: a resume under the same
    version skips every stage, and one under a new version reruns every
    stage instead of serving checkpoints written by older code."""
    from address_semantic_search_ray.pipelines import kg

    work = str(tmp_path / "work")
    monkeypatch.setattr(kg, "code_salt", lambda: "v1")
    first = kg.run_kg_pipeline(tiny_data, work, concurrency=2)
    assert not any(m["skipped"] for m in first["metrics"])
    same = kg.run_kg_pipeline(tiny_data, work, concurrency=2)
    assert all(m["skipped"] for m in same["metrics"])
    monkeypatch.setattr(kg, "code_salt", lambda: "v2")
    changed = kg.run_kg_pipeline(tiny_data, work, concurrency=2)
    assert [m["stage"] for m in changed["metrics"]] == [
        "doc_vectors", "idf", "mentions", "links", "triples"]
    assert not any(m["skipped"] for m in changed["metrics"])


def test_triples_invariant_under_bucket_counts(tiny_data, monkeypatch):
    """Both modes route link rows with ``route_link_rows`` into one bucket
    space sized by ``cogroup.group_count`` and finalize each route group
    with ``finalize_route_group``, so this in-process check (no Ray) pins
    for both that the count never changes the triples: counts 1, 7 and the
    default (forced through the one ``N_COGROUP_BUCKETS`` hook) give the
    same rows, equal to the oracle's, with every route in ``[0, n)``."""
    import pyarrow as pa

    from address_semantic_search_ray.pipelines import kg
    from address_semantic_search_ray.stages import cogroup, fused
    from address_semantic_search_ray.stages.interpret import region_state_bytes

    region = region_state_bytes(kg.default_region_dict_path())
    payload = kg._build_small_corpus_index_impl(
        tiny_data + "/addresses.parquet", region)
    stage = fused.MentionLinkTriplesStage(region, payload, 1)
    transcripts = pq.read_table(tiny_data + "/transcripts.parquet",
                                columns=["conv_id", "turn_idx", "role", "text"])
    linked = [stage._link_rows(pa.Table.from_batches([b]))
              for b in transcripts.to_batches(max_chunksize=256)]
    assert len(linked) > 1  # edges repeat across batches
    bound = cogroup.footer_rows(tiny_data + "/transcripts.parquet")

    runs = []
    for forced in (1, 7, None):
        monkeypatch.setattr(cogroup, "N_COGROUP_BUCKETS", forced)
        n = cogroup.group_count(bound)
        assert n == (forced or cogroup.group_count(0))
        routed = pa.concat_tables([fused.route_link_rows(rows, n)
                                   for rows in linked])
        routes = set(routed.column("route").to_pylist())
        assert routes <= set(range(n))
        groups = [routed.filter(pc.equal(routed.column("route"), r))
                  for r in sorted(routes)]
        # every group mixes both kinds once the space is shared
        if n == 1:
            kinds = set(groups[0].column("mention_idx").to_pylist())
            assert -1 in kinds and len(kinds) > 1
        triples = pa.concat_tables([fused.finalize_route_group(g)
                                    for g in groups])
        runs.append(sorted(zip(*[triples.column(c).to_pylist()
                                 for c in triples.column_names])))
        run_set = _triple_set(triples)
    assert runs[0] == runs[1] == runs[2]
    assert len(runs[0]) == len(run_set)  # finalize left no duplicate row
    assert run_set == _triple_set(run_oracle(tiny_data))


def test_mixed_route_group_finalizes_both_kinds():
    """One group holding mention rows and edge rows, as the shared bucket
    space makes them: edges (``mention_idx`` -1) dedup to part_of triples,
    mentions dedup per conversation in the oracle's order."""
    from address_semantic_search_ray.stages import fused

    rows = {
        "conv_id": ["c1", "c1", "c1", "c2"],
        "turn_idx": [0, 0, 1, 0],
        "mention_idx": [0, 1, 0, 0],
        "role": ["user", "user", "user", "agent"],
        "district_key": ["d1", "d1", "d1", "d2"],
        "least_region_id": [10, 10, 11, 20],
        "linked_addr": [5, 5, -1, 7],
        "score": [0.9, 0.8, 0.0, 0.7],
        "region_chain": [[10, 2, 1], [10, 2, 1], [11, 2, 1], [20, 3]],
    }
    routed = fused.route_link_rows(rows, 1)
    got = fused.finalize_route_group(routed)
    assert got.schema == fused.TRIPLE_SCHEMA
    triples = list(zip(got.column("subj").to_pylist(),
                       got.column("pred").to_pylist(),
                       got.column("obj").to_pylist(),
                       got.column("turn_idx").to_pylist()))
    assert triples == [
        ("conv:c1:user", "located_at", "region:10", 0),
        ("conv:c1", "mentions", "addr:5", 0),
        ("conv:c1:user", "located_at", "region:11", 1),
        ("conv:c1", "mentions", "addr:none", 1),
        ("conv:c2:agent", "located_at", "region:20", 0),
        ("conv:c2", "mentions", "addr:7", 0),
        ("region:10", "part_of", "region:2", -1),
        ("region:11", "part_of", "region:2", -1),
        ("region:2", "part_of", "region:1", -1),
        ("region:20", "part_of", "region:3", -1),
    ]


def test_both_modes_match_oracle_at_forced_counts(ray_session, tiny_data,
                                                  tmp_path, monkeypatch):
    """The count hook reaches both Ray plans: at 1 and 7 route groups the
    streaming and the checkpointed mode each emit the oracle's triples."""
    from address_semantic_search_ray.pipelines import kg
    from address_semantic_search_ray.stages import cogroup

    want = _triple_set(run_oracle(tiny_data))
    work = str(tmp_path / "work")
    for n in (1, 7):
        monkeypatch.setattr(cogroup, "N_COGROUP_BUCKETS", n)
        res = kg.run_kg_streaming(tiny_data, str(tmp_path / f"stream{n}"),
                                  concurrency=2)
        if n == 1:  # one group: one finalize call wrote every triple
            files = glob.glob(res["triples"] + "/*.parquet")
            assert sum(pq.read_metadata(f).num_rows > 0 for f in files) == 1
        assert _triple_set(pq.read_table(res["triples"])) == want
        res = kg.run_kg_pipeline(tiny_data, work, concurrency=2)
        assert not [m for m in res["metrics"]
                    if m["stage"] == "triples"][0]["skipped"]
        assert _triple_set(pq.read_table(res["triples"])) == want
        shutil.rmtree(res["triples"])  # the next count reruns triples only


def test_index_cache_key_salts_every_package_module(tmp_path, monkeypatch):
    """The corpus-index cache key changes with the source of any package
    module, among them ``stages/interpret.py`` and ``kernel/mentions.py``,
    which shape the cached payload. The edits go to copies of the
    package's sources, never to the package itself."""
    import glob
    import os

    from address_semantic_search_ray.pipelines import kg
    from address_semantic_search_ray.state import checkpoint

    addresses = tmp_path / "addresses.parquet"
    addresses.write_bytes(b"rows")  # the key reads only its size and mtime
    src = checkpoint.PACKAGE_ROOT
    keys = {}
    for name, edit in (("copy", None), ("interpret", "stages/interpret.py"),
                       ("mentions", "kernel/mentions.py")):
        root = tmp_path / name
        for path in glob.glob(os.path.join(src, "**", "*.py"), recursive=True):
            dst = root / os.path.relpath(path, src)
            dst.parent.mkdir(parents=True, exist_ok=True)
            shutil.copyfile(path, dst)
        if edit:
            with open(root / edit, "a") as f:
                f.write("\n# edited\n")
        monkeypatch.setattr(checkpoint, "PACKAGE_ROOT", str(root))
        keys[name] = kg._index_cache_path(str(addresses), "region")
    monkeypatch.undo()
    assert keys["copy"] == kg._index_cache_path(str(addresses), "region")
    assert len(set(keys.values())) == 3, keys


def test_links_invariant_under_memo_cap(tiny_data, pipeline_result, monkeypatch):
    """Every linker's memo only saves recomputation: with the link-memo cap
    at 1 (cleared on nearly every miss) the fused stage routes the same rows
    as at the default cap, and ``LinkStage`` links the ``mentions/``
    checkpoint to the same rows as the ``links/`` checkpoint. In-process,
    so the patched cap reaches the stages."""
    import pyarrow as pa

    from address_semantic_search_ray.pipelines import kg
    from address_semantic_search_ray.stages import fused, link
    from address_semantic_search_ray.stages.interpret import region_state_bytes

    region = region_state_bytes(kg.default_region_dict_path())
    payload = kg._build_small_corpus_index_impl(
        tiny_data + "/addresses.parquet", region)
    transcripts = pq.read_table(tiny_data + "/transcripts.parquet",
                                columns=["conv_id", "turn_idx", "role", "text"])
    mentions = pq.read_table(pipeline_result["mentions"])

    def rows(table):
        cols = [table.column(n).to_pylist() for n in table.column_names]
        return sorted(tuple(tuple(v) if isinstance(v, list) else v for v in r)
                      for r in zip(*cols))

    def routed_and_linked():
        stage = fused.MentionLinkTriplesStage(region, payload, 1)
        routed = pa.concat_tables(
            [stage(pa.Table.from_batches([b]))
             for b in transcripts.to_batches(max_chunksize=256)])
        linker = link.LinkStage(pipeline_result["doc_vectors"],
                                pipeline_result["idf"], 1)
        linked = pa.concat_tables(
            [linker(pa.Table.from_batches([b]))
             for b in mentions.to_batches(max_chunksize=128)])
        memo_sizes = [len(stage._link._memo), len(linker._link._memo)]
        return rows(routed), rows(linked), memo_sizes

    routed, linked, sizes = routed_and_linked()
    assert min(sizes) > 1  # the default-cap memos held many queries
    monkeypatch.setattr(link, "LINK_MEMO_MAX", 1)
    routed_1, linked_1, sizes_1 = routed_and_linked()
    assert max(sizes_1) <= 1
    assert routed_1 == routed
    assert linked_1 == linked == rows(pq.read_table(pipeline_result["links"]))


def test_streaming_mode_matches_checkpointed(ray_session, tiny_data, tmp_path_factory, pipeline_result):
    """Broadcast-index streaming mode must emit byte-identical triples."""
    from address_semantic_search_ray.pipelines.kg import run_kg_streaming

    out = str(tmp_path_factory.mktemp("kgstream"))
    res = run_kg_streaming(tiny_data, out, concurrency=2)
    a = pq.read_table(res["triples"])
    b = pq.read_table(pipeline_result["triples"])
    assert _triple_set(a) == _triple_set(b)


def test_stream_read_blocks_follow_input_rows():
    """A small input reads one block per task slot, so the sort and
    finalize behind the fused stage run one task each instead of six; a
    large one keeps STREAM_BLOCKS_PER_SLOT blocks per slot to balance the
    pool."""
    from address_semantic_search_ray.pipelines.kg import (
        STREAM_BLOCK_ROWS, STREAM_BLOCKS_PER_SLOT, stream_read_blocks,
    )

    assert stream_read_blocks(0, 1) == 1
    assert stream_read_blocks(10_000, 1) == 1
    assert stream_read_blocks(10_000, 4) == 4
    assert stream_read_blocks(3 * STREAM_BLOCK_ROWS, 1) == 3
    assert stream_read_blocks(10**12, 4) == 4 * STREAM_BLOCKS_PER_SLOT


def test_streaming_triples_invariant_under_block_layout(ray_session, tiny_data,
                                                        tmp_path, monkeypatch):
    """The fused stage's turn and link memos span one read block, so the
    triples must not depend on how the transcripts split into blocks: with
    blocks of a few hundred turns (several per task slot) the streaming job
    at 1 and 3 fused tasks emits the oracle's triples."""
    from address_semantic_search_ray.pipelines import kg

    n_turns = kg.footer_rows(tiny_data + "/transcripts.parquet")
    monkeypatch.setattr(kg, "STREAM_BLOCK_ROWS", 300)
    want = _triple_set(run_oracle(tiny_data))
    for conc in (1, 3):
        assert kg.stream_read_blocks(n_turns, conc) > conc
        res = kg.run_kg_streaming(tiny_data, str(tmp_path / f"c{conc}"),
                                  concurrency=conc)
        assert _triple_set(pq.read_table(res["triples"])) == want


def test_task_scoped_stages_leave_gc_as_found(tiny_data, monkeypatch):
    """No stage freezes or disables the collector for good: the
    single-task index build (cache off, so it builds) and a ``per_block``
    call of the fused stage each leave ``gc.isenabled()`` and the freeze
    count as they found them, whether gc was on or off."""
    import pyarrow as pa

    from address_semantic_search_ray.pipelines import kg
    from address_semantic_search_ray.stages import fused
    from address_semantic_search_ray.stages.interpret import (
        per_block, region_state_bytes,
    )

    monkeypatch.setenv("ASR_INDEX_CACHE", "off")
    region = region_state_bytes(kg.default_region_dict_path())
    transcripts = pq.read_table(tiny_data + "/transcripts.parquet",
                                columns=["conv_id", "turn_idx", "role", "text"])
    for enabled in (True, False):
        (gc.enable if enabled else gc.disable)()
        found = (enabled, gc.get_freeze_count())
        try:
            payload = kg._build_small_corpus_index_impl(
                tiny_data + "/addresses.parquet", region)
            assert (gc.isenabled(), gc.get_freeze_count()) == found
            task = per_block(fused.MentionLinkTriplesStage, region, payload,
                             1, 4, batch_size=256)
            assert task.__name__ == "MentionLinkTriplesStage"
            routed = pa.concat_tables(task(transcripts))
            assert (gc.isenabled(), gc.get_freeze_count()) == found
        finally:
            gc.enable()
    assert routed.num_rows > 0
    assert set(routed.column("route").to_pylist()) <= set(range(4))


_RELEASE_SCRIPT = """
import json, sys, time
import ray
ray.init(address="local", num_cpus=4, include_dashboard=False,
         logging_level="ERROR")
from address_semantic_search_ray.pipelines import kg, queries
from address_semantic_search_ray.pipelines.extras import (
    links_explain, regression_accuracy)
data, work, sf_small = sys.argv[1:4]
total = ray.cluster_resources()["CPU"]
held = {}

def check(name):
    deadline = time.time() + 5
    while ray.available_resources().get("CPU", 0) < total \\
            and time.time() < deadline:
        time.sleep(0.2)
    held[name] = total - ray.available_resources().get("CPU", 0)

res = kg.run_kg_pipeline(data, work + "/kg", concurrency=4, resume=False)
check("run_kg_pipeline")
regression_accuracy(data, concurrency=4)
check("regression_accuracy")
links_explain(data, res["mentions"], concurrency=4).to_pandas()
check("links_explain")
kg.SMALL_INDEX_OVERLAP_MAX_BYTES = 0
kg.run_kg_streaming(data, work + "/stream", concurrency=4)
check("run_kg_streaming")
queries.multimodal_wav_decode(sf_small).to_pandas()
check("multimodal_wav_decode")
queries.multimodal_ppm_resize(sf_small).to_pandas()
check("multimodal_ppm_resize")
ray.shutdown()
print(json.dumps(held))
"""


def test_finished_jobs_release_every_cpu(tiny_data, tmp_path):
    """No job holds a CPU after it returns, and none starves its own
    reads: in a fresh 4-CPU Ray session (its own process, so no earlier
    test's state counts) the checkpointed pipeline at ``concurrency=4``
    finishes, and after it, the regression and explain linkers, the
    streaming job on the sharded-index path and two multimodal decode
    queries, every CPU is free within 5 s, with no ``gc.collect()``
    anywhere. Every stateful stage runs as tasks (``per_block``); an actor
    pool would reserve all four CPUs for the job's life, so its upstream
    read never ran, and after the job held CPUs until a full gc."""
    import json
    import os
    import subprocess
    import sys

    from tests.conftest import SF_SMALL

    repo = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    out = subprocess.run(
        [sys.executable, "-c", _RELEASE_SCRIPT, tiny_data, str(tmp_path),
         SF_SMALL],
        cwd=repo, capture_output=True, text=True, timeout=420)
    assert out.returncode == 0, out.stderr[-2000:]
    held = json.loads(out.stdout.strip().splitlines()[-1])
    assert held == {name: 0 for name in held} and len(held) == 6, held


def test_streaming_distributed_corpus_path_matches(ray_session, tiny_data, tmp_path_factory,
                                                   pipeline_result, monkeypatch):
    """The big-corpus branch (distributed interpret + sharded per-bucket
    index build, no driver funnel) must emit the same triples as the
    small-corpus overlapped single-task branch."""
    from address_semantic_search_ray.pipelines import kg

    monkeypatch.setattr(kg, "SMALL_INDEX_OVERLAP_MAX_BYTES", 0)  # force sharded
    out = str(tmp_path_factory.mktemp("kgstream_dist"))
    res = kg.run_kg_streaming(tiny_data, out, concurrency=2)
    a = pq.read_table(res["triples"])
    b = pq.read_table(pipeline_result["triples"])
    assert _triple_set(a) == _triple_set(b)


def test_streaming_oversized_corpus_routes_to_checkpointed(ray_session, tiny_data,
                                                           tmp_path_factory,
                                                           pipeline_result, monkeypatch):
    """A corpus whose estimated index exceeds the broadcast budget must fall
    back to the checkpointed pipeline — and still produce the same triples."""
    from address_semantic_search_ray.pipelines import kg

    monkeypatch.setattr(kg, "BROADCAST_INDEX_MAX_BYTES", 0)
    out = str(tmp_path_factory.mktemp("kgstream_over"))
    res = kg.run_kg_streaming(tiny_data, out, concurrency=2)
    assert res.get("mode") == "checkpointed-fallback"
    a = pq.read_table(res["triples"])
    b = pq.read_table(pipeline_result["triples"])
    assert _triple_set(a) == _triple_set(b)


def test_estimate_index_bytes_tracks_measured(ray_session, tiny_data):
    """The footer-only estimator must bound the real payload size from above
    without absurd overshoot (x1..x3)."""
    import numpy as np

    from address_semantic_search_ray.pipelines import kg
    from address_semantic_search_ray.stages.interpret import put_region_table

    est = kg.estimate_index_bytes(tiny_data + "/addresses.parquet")
    region_ref = put_region_table(
        kg.default_region_dict_path())
    payload = kg._build_small_corpus_index_impl(
        tiny_data + "/addresses.parquet", region_ref)
    real = sum(a.nbytes for a in payload.values() if isinstance(a, np.ndarray))
    assert real <= est <= real * 3


def test_linker_pool_balances_under_district_skew(ray_session, tiny_data,
                                                  tmp_path, monkeypatch):
    """North-rule skew handling, asserted rather than argued: ONE district
    carries 90% of all mentions. The checkpointed link stage's shape —
    sort(district_key) clusters the hot key, the order-preserving
    repartition slices it into ``concurrency * 12`` blocks, one link call
    each — must spread the hot district: the calls' row counts are within
    2x of each other (the same effect salting would buy, without a second
    shuffle)."""
    import glob
    import os
    import uuid

    import pyarrow as pa

    from address_semantic_search_ray.kernel.interpreter import Interpreter
    from address_semantic_search_ray.kernel.regions import RegionDict
    from address_semantic_search_ray.pipelines import kg as kgmod
    from address_semantic_search_ray.pipelines.oracle import default_region_dict_path
    from address_semantic_search_ray.stages.link import LinkStage

    data_dir = str(tmp_path / "skewdata")
    os.makedirs(data_dir)
    # the synth addresses checkpoint is a multi-file dir: fold to one file
    addr_all = pq.read_table(os.path.join(tiny_data, "addresses.parquet"))
    pq.write_table(addr_all, os.path.join(data_dir, "addresses.parquet"))
    addr = addr_all.select(["text"])
    it = Interpreter(RegionDict.from_parquet(default_region_dict_path()))
    interpretable = []
    for t in addr.column("text").to_pylist():
        if not t:
            continue
        a = it.interpret(t)
        if a is not None and a.city is not None and a.district is not None:
            interpretable.append(t)
        if len(interpretable) >= 100:
            break
    hot, others = interpretable[0], interpretable[1:]
    n = 12000
    texts = [hot if i % 10 else others[(i // 10) % len(others)]
             for i in range(n)]
    pq.write_table(pa.table({
        "conv_id": pa.array([f"conv{i % 500}" for i in range(n)], pa.string()),
        "turn_idx": pa.array([i // 500 for i in range(n)], pa.int32()),
        "role": pa.array(["user"] * n, pa.string()),
        "text": pa.array(texts, pa.string()),
    }), os.path.join(data_dir, "transcripts.parquet"))

    cnt_dir = str(tmp_path / "cnt")
    os.makedirs(cnt_dir)

    class CountingLinker(LinkStage):
        """One per ``per_block`` call: records the rows of its call."""

        def __init__(self, *args):
            super().__init__(*args)
            self._path = os.path.join(cnt_dir, f"{uuid.uuid4().hex}.cnt")
            self._rows = 0

        def __call__(self, batch):
            self._rows += batch.num_rows
            with open(self._path, "w") as f:
                f.write(str(self._rows))
            return super().__call__(batch)

    monkeypatch.setattr(kgmod, "LinkStage", CountingLinker)
    concurrency = 2
    kgmod.run_kg_pipeline(data_dir, str(tmp_path / "work"),
                          concurrency=concurrency, link_batch_size=128,
                          resume=False)

    counts = [int(open(f).read())
              for f in glob.glob(os.path.join(cnt_dir, "*.cnt"))]
    assert sum(counts) >= n  # every turn carries >=1 mention by construction
    assert len(counts) == concurrency * 12, counts
    assert max(counts) <= 2.0 * min(counts), counts


def test_streaming_invariant_under_tiny_blocks(ray_session, tiny_data,
                                               tmp_path_factory,
                                               pipeline_result):
    """Block partitioning must not leak into results: forcing Ray Data to
    split the stream into ~64 KiB blocks (hundreds of blocks where the
    default makes a handful — the memory-bounded regime a 100 TB run lives
    in, where the object store spills rather than holding whole partitions)
    emits the same triples byte-for-byte."""
    from ray.data import DataContext

    from address_semantic_search_ray.pipelines.kg import run_kg_streaming

    ctx = DataContext.get_current()
    before = ctx.target_max_block_size
    ctx.target_max_block_size = 64 * 1024
    try:
        out = str(tmp_path_factory.mktemp("kgstream_tinyblocks"))
        res = run_kg_streaming(tiny_data, out, concurrency=2, batch_size=64)
        a = pq.read_table(res["triples"])
    finally:
        ctx.target_max_block_size = before
    b = pq.read_table(pipeline_result["triples"])
    assert _triple_set(a) == _triple_set(b)
