"""Driver contract for the Ray-Data address/KG engine.

``entry()`` runs the flagship KG pipeline on sf0.001; ``queries()`` exposes
the operator inventory (SURVEY.md §2 + training-data ops); ``oracle_sql()``
gives DuckDB equivalents with IDENTICAL column names/rounding.

Ray is initialised by the driver BEFORE this module is imported: nothing here
calls ``ray.init()`` / ``ray.shutdown()``.
"""

from __future__ import annotations

from collections.abc import Callable
from typing import Any

from address_semantic_search_ray.pipelines import queries as q

SF001_SYNTH = "/tmp/asr_synth/sf0.01"  # static path for the sf0.01 correctness run
SF001_WORK = "/tmp/asr_entry_work/sf0.01"
SF001_ORACLE = "/tmp/asr_entry_work/sf0.01/oracle"  # naive single-process twins


def _lang_id_sql() -> str:
    """Language-ID as pure SQL: per-language distinct-word/stopword overlap,
    first strictly-greater max (in sorted lang order) wins, 'unk' when all 0 —
    exactly the python heuristic in stages/text.py:lang_id_batch."""
    from address_semantic_search_ray.stages.text import LANG_PROFILES

    langs = sorted(LANG_PROFILES)
    score_cols = ",\n               ".join(
        "len(list_intersect(w, [{words}])) AS s_{lang}".format(
            words=", ".join(f"'{w}'" for w in sorted(LANG_PROFILES[lang])), lang=lang)
        for lang in langs)
    best = "greatest({})".format(", ".join(f"s_{lang}" for lang in langs))
    cases = "\n                 ".join(
        f"WHEN s_{lang} = {best} THEN '{lang}'" for lang in langs)
    return f"""
        WITH t AS (SELECT doc_id, list_distinct(string_split(text, ' ')) AS w
                   FROM documents),
             s AS (SELECT doc_id,
               {score_cols}
             FROM t)
        SELECT doc_id,
               CASE WHEN {best} = 0 THEN 'unk'
                 {cases}
               END AS lang_pred
        FROM s
    """


def entry() -> Any:
    """Flagship KG pipeline on sf0.001 synthetic transcripts -> triples Dataset."""
    return q.kg_triples("/root/testdata/sf0.001")


def queries() -> dict[str, Callable[[str], Any]]:
    # the correctness gate checks only the first 50 entries: the KG
    # flagship, the operators it has never verified, then the keyed
    # co-group folds; long-verified entries follow
    return {
        # KG-construction flagship
        "kg_triples": q.kg_triples,
        "kg_mentions": q.kg_mentions,
        "kg_region_degree": q.kg_region_degree,
        "kg_part_of_closure": q.kg_part_of_closure,
        "kg_located_at_rollup": q.kg_located_at_rollup,
        "kg_entity_cooccurrence": q.kg_entity_cooccurrence,
        "kg_conv_first_mentions": q.kg_conv_first_mentions,
        "kg_cooccur_triangles": q.kg_cooccur_triangles,
        "kg_region_pagerank": q.kg_region_pagerank,
        "kg_community_lpa": q.kg_community_lpa,
        "kg_link_prediction": q.kg_link_prediction,
        "kg_links_explain": q.kg_links_explain,
        "kg_idf": q.kg_idf,
        "kg_turn_stats": q.kg_turn_stats,
        # operators no gate run has verified yet
        "similarity_topk_pq": q.similarity_topk_pq,
        "embedding_kmeans": q.embedding_kmeans,
        "multimodal_wav_decode": q.multimodal_wav_decode,
        "multimodal_ppm_decode": q.multimodal_ppm_decode,
        "multimodal_ppm_resize": q.multimodal_ppm_resize,
        "events_cdc_compact": q.events_cdc_compact,
        "events_value_p95_hourly": q.events_value_p95_hourly,
        "orders_rollup": q.orders_rollup,
        "docs_bigram_lm": q.docs_bigram_lm,
        # keyed co-group folds (stages/cogroup.py)
        "asof_join_events_orders": q.asof_join_events_orders,
        "range_join_events_orders": q.range_join_events_orders,
        "orders_priority_semijoin": q.orders_priority_semijoin,
        "orders_shipping_priority": q.orders_shipping_priority,
        "nation_market_share": q.nation_market_share,
        "local_supplier_volume": q.local_supplier_volume,
        "supplier_revenue_top": q.supplier_revenue_top,
        "events_running_total": q.events_running_total,
        "events_sessionize": q.events_sessionize,
        "events_topk_hourly": q.events_topk_hourly,
        "events_distinct_users_hourly": q.events_distinct_users_hourly,
        "events_retention": q.events_retention,
        "events_funnel": q.events_funnel,
        "events_heavy_users_cms": q.events_heavy_users_cms,
        "events_unseen_users_bloom": q.events_unseen_users_bloom,
        "events_user_paths": q.events_user_paths,
        "dedup_wordset_jaccard": q.dedup_wordset_jaccard,
        "dedup_ngram_jaccard": q.dedup_ngram_jaccard,
        "dedup_minhash_lsh": q.dedup_minhash_lsh,
        "dedup_common_spans": q.dedup_common_spans,
        "dedup_clusters": q.dedup_clusters,
        "dedup_filter": q.dedup_filter,
        "docs_top_terms": q.docs_top_terms,
        "docs_tfidf": q.docs_tfidf,
        "docs_postings": q.docs_postings,
        "docs_vocab_growth": q.docs_vocab_growth,
        # relational core (sources, groupby-agg, sort/limit, broadcast join)
        "pricing_summary": q.pricing_summary,
        "topk_orders": q.topk_orders,
        "customer_nation_join": q.customer_nation_join,
        # stream-shaped windows
        "topk_per_group": q.topk_per_group,
        "events_hourly": q.events_hourly,
        "events_hopping": q.events_hopping,
        "events_zscore_hourly": q.events_zscore_hourly,
        "events_approx_users_hll": q.events_approx_users_hll,
        # dedup family
        "dedup_exact": q.dedup_exact,
        "dedup_simhash": q.dedup_simhash,
        "split_assign": q.split_assign,
        # text analysis
        "text_token_count": q.text_token_count,
        "text_quality": q.text_quality,
        "text_lang_id": q.text_lang_id,
        "text_fingerprint": q.text_fingerprint,
        "text_scrub_pii": q.text_scrub_pii,
        "text_repetition": q.text_repetition,
        "token_quantiles": q.token_quantiles,
        "decontaminate": q.decontaminate,
        "stratified_sample": q.stratified_sample,
        "docs_pack_sequences": q.docs_pack_sequences,
        "text_normalize": q.text_normalize,
        "docs_weighted_sample": q.docs_weighted_sample,
        "docs_c4_filter": q.docs_c4_filter,
        "lang_stats": q.lang_stats,
        # similarity search
        "similarity_topk": q.similarity_topk,
        "similarity_topk_lsh": q.similarity_topk_lsh,
        "similarity_topk_ivf": q.similarity_topk_ivf,
        "knn_graph": q.knn_graph,
        "embedding_near_dup": q.embedding_near_dup,
        "embedding_near_dup_lsh": q.embedding_near_dup_lsh,
        # multimodal plumbing
        "multimodal_image_meta": q.multimodal_image_meta,
        "multimodal_audio_frames": q.multimodal_audio_frames,
        # secondary reference pipelines
        "town_mining": q.town_mining,
        "regression_harness": q.regression_harness,
        "region_dic_export": q.region_dic_export,
    }


def oracle_sql() -> dict[str, str]:
    return {
        "pricing_summary": """
            SELECT l_returnflag, l_linestatus,
                   round(sum(l_quantity), 2) AS sum_qty,
                   round(sum(l_extendedprice), 2) AS sum_base_price,
                   round(sum(l_extendedprice * (1 - l_discount)), 2) AS sum_disc_price,
                   round(avg(l_quantity), 4) AS avg_qty,
                   count(*) AS n
            FROM lineitem GROUP BY l_returnflag, l_linestatus
        """,
        "multimodal_ppm_resize": """
            WITH d AS (SELECT doc_id, 8 + doc_id % 9 AS w,
                              8 + (doc_id * 7) % 13 AS h
                       FROM documents),
                 u AS (SELECT doc_id, w, h,
                              unnest(generate_series(0, 47)) AS k
                       FROM d),
                 m AS (SELECT doc_id, w, h, k % 3 AS c,
                              ((k // 12) * h) // 4 AS sy,
                              (((k // 3) % 4) * w) // 4 AS sx
                       FROM u),
                 v AS (SELECT doc_id, w, h, c,
                              (doc_id * 7 + ((sy * w + sx) * 3 + c) * 13)
                                  % 256 AS val
                       FROM m)
            SELECT doc_id, w AS width, h AS height,
                   4::BIGINT AS out_w, 4::BIGINT AS out_h,
                   sum(CASE WHEN c = 0 THEN val ELSE 0 END)::BIGINT AS rsum_r,
                   sum(CASE WHEN c = 1 THEN val ELSE 0 END)::BIGINT AS rsum_g,
                   sum(CASE WHEN c = 2 THEN val ELSE 0 END)::BIGINT AS rsum_b
            FROM v GROUP BY doc_id, w, h
        """,
        "topk_orders": """
            SELECT o_orderkey, o_totalprice FROM orders
            ORDER BY o_totalprice DESC, o_orderkey DESC LIMIT 10
        """,
        "customer_nation_join": """
            SELECT n.n_name, count(*) AS n_customers,
                   round(avg(c.c_acctbal), 4) AS avg_acctbal
            FROM customer c JOIN nation n ON c.c_nationkey = n.n_nationkey
            GROUP BY n.n_name
        """,
        "orders_priority_semijoin": """
            SELECT o_orderpriority, count(*)::BIGINT AS n_orders
            FROM orders o
            WHERE EXISTS (SELECT 1 FROM lineitem l
                          WHERE l.l_orderkey = o.o_orderkey
                            AND l.l_shipdate > o.o_orderdate)
            GROUP BY o_orderpriority
        """,
        "orders_shipping_priority": """
            WITH c AS (SELECT c_custkey FROM customer
                       WHERE c_mktsegment = 'BUILDING'),
                 r AS (SELECT l_orderkey,
                              round(sum(l_extendedprice * (1 - l_discount)), 2)
                                  AS revenue,
                              o_orderdate, o_orderpriority
                       FROM orders JOIN c ON o_custkey = c_custkey
                            JOIN lineitem ON l_orderkey = o_orderkey
                       WHERE o_orderdate < TIMESTAMP '1998-06-01'
                         AND l_shipdate > TIMESTAMP '1998-06-01'
                       GROUP BY 1, 3, 4)
            SELECT l_orderkey, revenue, epoch_us(o_orderdate) AS o_orderdate_us,
                   o_orderpriority
            FROM r ORDER BY revenue DESC, o_orderdate_us, l_orderkey LIMIT 10
        """,
        "nation_market_share": """
            WITH ck AS (
                SELECT c_custkey FROM customer c
                JOIN nation n ON c.c_nationkey = n.n_nationkey
                JOIN region r ON n.n_regionkey = r.r_regionkey
                WHERE r.r_name = 'ASIA'
            ),
            sn AS (
                SELECT s_suppkey, n_name FROM supplier s
                JOIN nation n ON s.s_nationkey = n.n_nationkey
            ),
            base AS (
                SELECT year(o.o_orderdate)::BIGINT AS o_year,
                       sn.n_name AS supp_nation,
                       l.l_extendedprice * (1 - l.l_discount) AS vol
                FROM lineitem l
                JOIN orders o ON l.l_orderkey = o.o_orderkey
                JOIN sn ON l.l_suppkey = sn.s_suppkey
                WHERE l.l_partkey IN (SELECT p_partkey FROM part
                                      WHERE p_type = 'PROMO')
                  AND o.o_custkey IN (SELECT c_custkey FROM ck)
            )
            SELECT o_year,
                   round(round(sum(CASE WHEN supp_nation = 'NATION_12'
                                        THEN vol ELSE 0 END), 2)
                         / round(sum(vol), 2), 6) AS mkt_share
            FROM base GROUP BY o_year
        """,
        "local_supplier_volume": """
            WITH nk AS (
                SELECT n_nationkey, n_name FROM nation
                JOIN region ON n_regionkey = r_regionkey
                WHERE r_name = 'ASIA'
            )
            SELECT n.n_name,
                   round(sum(l.l_extendedprice * (1 - l.l_discount)), 2)
                       AS revenue
            FROM customer c
            JOIN orders o ON c.c_custkey = o.o_custkey
            JOIN lineitem l ON l.l_orderkey = o.o_orderkey
            JOIN supplier s ON l.l_suppkey = s.s_suppkey
            JOIN nk n ON c.c_nationkey = n.n_nationkey
                     AND s.s_nationkey = n.n_nationkey
            WHERE o.o_orderdate >= TIMESTAMP '1996-01-01'
              AND o.o_orderdate < TIMESTAMP '1997-01-01'
            GROUP BY n.n_name
        """,
        "supplier_revenue_top": """
            WITH rev AS (
                SELECT l_suppkey,
                       round(sum(l_extendedprice * (1 - l_discount)), 2)
                           AS total_revenue
                FROM lineitem
                WHERE l_shipdate >= TIMESTAMP '1996-01-01'
                  AND l_shipdate < TIMESTAMP '1996-04-01'
                GROUP BY l_suppkey
            )
            SELECT s.s_suppkey, s.s_name, r.total_revenue
            FROM rev r JOIN supplier s ON s.s_suppkey = r.l_suppkey
            WHERE r.total_revenue = (SELECT max(total_revenue) FROM rev)
        """,
        "events_running_total": """
            SELECT event_id, user_id,
                   row_number() OVER w AS seq,
                   round(sum(value) OVER w, 6) AS running_value
            FROM events
            WINDOW w AS (PARTITION BY user_id ORDER BY ts, event_id
                         ROWS UNBOUNDED PRECEDING)
        """,
        "events_hourly": """
            SELECT event_type, strftime(date_trunc('hour', ts), '%Y-%m-%d %H:00:00') AS hour,
                   count(*) AS n, round(sum(value), 4) AS sum_value
            FROM events GROUP BY 1, 2
        """,
        "events_topk_hourly": """
            WITH t AS (
                SELECT strftime(date_trunc('hour', ts), '%Y-%m-%d %H:00:00') AS hour,
                       event_id, value,
                       row_number() OVER (PARTITION BY date_trunc('hour', ts)
                                          ORDER BY value DESC, event_id DESC) AS rn
                FROM events)
            SELECT hour, event_id, value FROM t WHERE rn <= 3
        """,
        "events_distinct_users_hourly": """
            SELECT event_type,
                   strftime(date_trunc('hour', ts), '%Y-%m-%d %H:00:00') AS hour,
                   count(DISTINCT user_id)::BIGINT AS n_users
            FROM events GROUP BY 1, 2
        """,
        "events_funnel": """
            WITH a AS (SELECT user_id, min(epoch_us(ts)) AS first_a
                       FROM events WHERE event_type = 'signup' GROUP BY user_id)
            SELECT a.user_id,
                   EXISTS (SELECT 1 FROM events b
                           WHERE b.event_type = 'purchase'
                             AND b.user_id = a.user_id
                             AND epoch_us(b.ts) >= a.first_a
                             AND epoch_us(b.ts) <= a.first_a + 604800000000
                          ) AS converted
            FROM a
        """,
        "events_zscore_hourly": """
            WITH h AS (SELECT event_type,
                              strftime(date_trunc('hour', ts), '%Y-%m-%d %H:00:00') AS hour,
                              count(*)::BIGINT AS n
                       FROM events GROUP BY 1, 2)
            SELECT event_type, hour, n,
                   round((n - avg(n) OVER (PARTITION BY event_type))
                         / stddev_samp(n) OVER (PARTITION BY event_type), 6) AS z
            FROM h
            QUALIFY count(*) OVER (PARTITION BY event_type) >= 2
                AND stddev_samp(n) OVER (PARTITION BY event_type) > 0
        """,
        "events_retention": """
            WITH ud AS (SELECT DISTINCT user_id,
                               strftime(date_trunc('day', ts), '%Y-%m-%d') AS day
                        FROM events),
                 c AS (SELECT user_id, min(day) AS cohort_day
                       FROM ud GROUP BY user_id)
            SELECT c.cohort_day, ud.day, count(*) AS n_users
            FROM ud JOIN c USING (user_id)
            GROUP BY 1, 2
        """,
        "events_hopping": """
            WITH w AS (SELECT event_type, value,
                              unnest([(epoch_us(ts) // 1000000 // 900 - i) * 900
                                      FOR i IN [0, 1, 2, 3]]) AS window_start_s
                       FROM events)
            SELECT event_type, window_start_s::BIGINT AS window_start_s,
                   count(*) AS n, round(sum(value), 4) AS sum_value
            FROM w GROUP BY 1, 2
        """,
        "range_join_events_orders": """
            SELECT e.event_id, e.user_id,
                   (SELECT count(*) FROM orders o
                    WHERE o.o_custkey = e.user_id
                      AND o.o_orderdate <= e.ts
                      AND o.o_orderdate >= e.ts - INTERVAL 30 DAY
                   )::BIGINT AS n_orders
            FROM events e
        """,
        "asof_join_events_orders": """
            WITH j AS (
                SELECT e.event_id, e.user_id, o.o_orderkey,
                       row_number() OVER (PARTITION BY e.event_id
                                          ORDER BY o.o_orderdate DESC,
                                                   o.o_orderkey DESC) AS rn
                FROM events e JOIN orders o
                  ON e.user_id = o.o_custkey AND o.o_orderdate <= e.ts)
            SELECT event_id, user_id, o_orderkey FROM j WHERE rn = 1
            UNION ALL
            SELECT e.event_id, e.user_id, -1 AS o_orderkey FROM events e
            WHERE NOT EXISTS (SELECT 1 FROM orders o
                              WHERE o.o_custkey = e.user_id
                                AND o.o_orderdate <= e.ts)
        """,
        "topk_per_group": """
            WITH r AS (
                SELECT c.c_mktsegment, o.o_orderkey, o.o_totalprice,
                       row_number() OVER (PARTITION BY c.c_mktsegment
                                          ORDER BY o.o_totalprice DESC,
                                                   o.o_orderkey DESC) AS rn
                FROM orders o JOIN customer c ON o.o_custkey = c.c_custkey)
            SELECT c_mktsegment, o_orderkey, o_totalprice FROM r WHERE rn <= 3
        """,
        "events_sessionize": """
            WITH g AS (
                SELECT user_id,
                       CASE WHEN ts - lag(ts) OVER (PARTITION BY user_id ORDER BY ts)
                                 > INTERVAL 30 MINUTE
                            OR lag(ts) OVER (PARTITION BY user_id ORDER BY ts) IS NULL
                            THEN 1 ELSE 0 END AS new_session
                FROM events)
            SELECT user_id, sum(new_session)::BIGINT AS n_sessions FROM g GROUP BY user_id
        """,
        "dedup_exact": """
            SELECT min(doc_id) AS doc_id, text FROM documents GROUP BY text
        """,
        "dedup_wordset_jaccard": """
            WITH t AS (SELECT doc_id, lang,
                              list_distinct(string_split(text, ' ')) AS w
                       FROM documents)
            SELECT a.doc_id AS doc_id_a, b.doc_id AS doc_id_b,
                   round(len(list_intersect(a.w, b.w))::DOUBLE
                         / len(list_distinct(list_concat(a.w, b.w))), 6) AS jac
            FROM t a JOIN t b ON a.lang = b.lang AND a.doc_id < b.doc_id
            WHERE len(list_intersect(a.w, b.w))::DOUBLE
                  / len(list_distinct(list_concat(a.w, b.w))) >= 0.9
        """,
        "dedup_ngram_jaccard": """
            WITH t AS (SELECT doc_id,
                              list_distinct(list_transform(
                                  generate_series(1, length(text) - 4),
                                  i -> substr(text, i, 5))) AS g
                       FROM documents)
            SELECT a.doc_id AS doc_id_a, b.doc_id AS doc_id_b,
                   round(len(list_intersect(a.g, b.g))::DOUBLE
                         / len(list_distinct(list_concat(a.g, b.g))), 6) AS jac
            FROM t a JOIN t b ON a.doc_id < b.doc_id
            WHERE len(list_intersect(a.g, b.g))::DOUBLE
                  / len(list_distinct(list_concat(a.g, b.g))) >= 0.5
        """,
        "dedup_clusters": """
            WITH RECURSIVE t AS (SELECT doc_id,
                          list_distinct(list_transform(
                              generate_series(1, length(text) - 4),
                              i -> substr(text, i, 5))) AS g
                   FROM documents),
            pairs AS (
                SELECT a.doc_id AS u, b.doc_id AS v
                FROM t a JOIN t b ON a.doc_id < b.doc_id
                WHERE len(list_intersect(a.g, b.g))::DOUBLE
                      / len(list_distinct(list_concat(a.g, b.g))) >= 0.5),
            edges AS (SELECT u, v FROM pairs UNION SELECT v, u FROM pairs),
            reach(u, v) AS (
                SELECT u, v FROM edges
                UNION
                SELECT r.u, e.v FROM reach r JOIN edges e ON r.v = e.u
                WHERE e.v <> r.u)
            SELECT u AS doc_id, least(u, min(v))::BIGINT AS canonical_id
            FROM reach GROUP BY u
        """,
        "dedup_filter": """
            WITH RECURSIVE t AS (SELECT doc_id,
                          list_distinct(list_transform(
                              generate_series(1, length(text) - 4),
                              i -> substr(text, i, 5))) AS g
                   FROM documents),
            pairs AS (
                SELECT a.doc_id AS u, b.doc_id AS v
                FROM t a JOIN t b ON a.doc_id < b.doc_id
                WHERE len(list_intersect(a.g, b.g))::DOUBLE
                      / len(list_distinct(list_concat(a.g, b.g))) >= 0.5),
            edges AS (SELECT u, v FROM pairs UNION SELECT v, u FROM pairs),
            reach(u, v) AS (
                SELECT u, v FROM edges
                UNION
                SELECT r.u, e.v FROM reach r JOIN edges e ON r.v = e.u
                WHERE e.v <> r.u),
            clusters AS (SELECT u AS doc_id, least(u, min(v))::BIGINT AS canonical_id
                         FROM reach GROUP BY u)
            SELECT d.doc_id FROM documents d
            WHERE d.doc_id NOT IN
                (SELECT doc_id FROM clusters WHERE doc_id <> canonical_id)
        """,
        "token_quantiles": """
            WITH t AS (SELECT lang, len(string_split(text, ' ')) AS n_tokens
                       FROM documents)
            SELECT lang, count(*)::BIGINT AS n_docs,
                   quantile_disc(n_tokens, 0.25)::BIGINT AS p25,
                   quantile_disc(n_tokens, 0.5)::BIGINT AS p50,
                   quantile_disc(n_tokens, 0.75)::BIGINT AS p75,
                   quantile_disc(n_tokens, 0.9)::BIGINT AS p90,
                   quantile_disc(n_tokens, 0.99)::BIGINT AS p99
            FROM t GROUP BY lang
        """,
        "split_assign": """
            SELECT doc_id,
                   (('0x' || substr(md5(doc_id::VARCHAR), 1, 8))::UBIGINT
                       % 100)::BIGINT AS bucket,
                   CASE WHEN ('0x' || substr(md5(doc_id::VARCHAR), 1, 8))::UBIGINT
                             % 100 < 90 THEN 'train'
                        WHEN ('0x' || substr(md5(doc_id::VARCHAR), 1, 8))::UBIGINT
                             % 100 < 95 THEN 'val'
                        ELSE 'test' END AS split
            FROM documents
        """,
        "decontaminate": """
            WITH s AS (SELECT doc_id,
                         (('0x' || substr(md5(doc_id::VARCHAR), 1, 8))::UBIGINT
                             % 100) AS b
                       FROM documents),
            w AS (SELECT doc_id, string_split(text, ' ') AS ws FROM documents),
            g AS (SELECT doc_id, list_distinct(list_transform(
                      generate_series(1, len(ws) - 12),
                      i -> array_to_string(ws[i:i+12], ' '))) AS g
                  FROM w WHERE len(ws) >= 13),
            bench AS (SELECT DISTINCT unnest(g.g) AS sh
                      FROM g JOIN s USING (doc_id) WHERE s.b >= 95),
            tr AS (SELECT g.doc_id,
                          CASE WHEN s.b < 90 THEN 'train' ELSE 'val' END AS split,
                          g.g
                   FROM g JOIN s USING (doc_id) WHERE s.b < 95),
            cont AS (SELECT DISTINCT t.doc_id
                     FROM (SELECT doc_id, unnest(g) AS sh FROM tr) t
                     JOIN bench USING (sh))
            SELECT doc_id, split,
                   doc_id IN (SELECT doc_id FROM cont) AS contaminated
            FROM tr
        """,
        "stratified_sample": """
            SELECT doc_id, lang FROM (
                SELECT doc_id, lang,
                       row_number() OVER (PARTITION BY lang
                           ORDER BY md5(doc_id::VARCHAR), doc_id) AS rn
                FROM documents) t
            WHERE rn <= 20
        """,
        "docs_top_terms": """
            WITH w AS (SELECT lang, unnest(string_split(text, ' ')) AS tok
                       FROM documents),
                 c AS (SELECT lang, tok, count(*)::BIGINT AS n
                       FROM w GROUP BY 1, 2),
                 r AS (SELECT lang, tok, n,
                              row_number() OVER (PARTITION BY lang
                                                 ORDER BY n DESC, tok) AS rank
                       FROM c)
            SELECT lang, tok, n, rank::BIGINT AS rank FROM r WHERE rank <= 10
        """,
        "text_repetition": """
            WITH w AS (SELECT doc_id, string_split(text, ' ') AS w FROM documents),
                 b AS (SELECT doc_id,
                              CASE WHEN len(w) < 2 THEN []::VARCHAR[]
                                   ELSE [w[i] || ' ' || w[i+1] FOR i IN range(1, len(w))]
                              END AS bigrams
                       FROM w)
            SELECT doc_id,
                   round(CASE WHEN len(bigrams) = 0 THEN 0.0
                              ELSE 1.0 - len(list_distinct(bigrams))::DOUBLE / len(bigrams)
                         END, 6) AS rep_bigram
            FROM b
        """,
        "docs_c4_filter": f"""
            WITH RECURSIVE lang AS ({{LANG_SQL}}),
            q AS (
                SELECT doc_id,
                       round(len(list_distinct(w))::DOUBLE / len(w), 6)
                           AS distinct_ratio,
                       round((length(text) - (len(w) - 1))::DOUBLE / len(w), 6)
                           AS mean_token_len,
                       len(w)::BIGINT AS n_tokens
                FROM (SELECT doc_id, text, string_split(text, ' ') AS w
                      FROM documents)
            ),
            t AS (SELECT doc_id,
                         list_distinct(list_transform(
                             generate_series(1, length(text) - 4),
                             i -> substr(text, i, 5))) AS g
                  FROM documents),
            pairs AS (
                SELECT a.doc_id AS u, b.doc_id AS v
                FROM t a JOIN t b ON a.doc_id < b.doc_id
                WHERE len(list_intersect(a.g, b.g))::DOUBLE
                      / len(list_distinct(list_concat(a.g, b.g))) >= 0.5),
            edges AS (SELECT u, v FROM pairs UNION SELECT v, u FROM pairs),
            reach(u, v) AS (
                SELECT u, v FROM edges
                UNION
                SELECT r.u, e.v FROM reach r JOIN edges e ON r.v = e.u
                WHERE e.v <> r.u),
            clusters AS (SELECT u AS doc_id,
                                least(u, min(v))::BIGINT AS canonical_id
                         FROM reach GROUP BY u)
            SELECT d.doc_id, l.lang_pred, q.n_tokens,
                   regexp_replace(regexp_replace(regexp_replace(d.text,
                       '[A-Za-z0-9._%+-]+@[A-Za-z0-9.-]+\\.[A-Za-z]{{2,}}',
                       '<EMAIL>', 'g'),
                       '\\+?[0-9][0-9()\\- ]{{7,}}[0-9]', '<PHONE>', 'g'),
                       '[0-9]{{6,}}', '<NUM>', 'g') AS text
            FROM documents d
            JOIN lang l ON l.doc_id = d.doc_id
            JOIN q ON q.doc_id = d.doc_id
            WHERE q.n_tokens BETWEEN 10 AND 1000
              AND q.distinct_ratio >= 0.3
              AND q.mean_token_len BETWEEN 2.0 AND 12.0
              AND l.lang_pred <> 'unk'
              AND d.doc_id NOT IN (SELECT doc_id FROM clusters
                                   WHERE doc_id <> canonical_id)
        """.replace("{LANG_SQL}", _lang_id_sql()),
        "text_scrub_pii": """
            SELECT doc_id,
                   regexp_replace(regexp_replace(regexp_replace(text,
                       '[A-Za-z0-9._%+-]+@[A-Za-z0-9.-]+\\.[A-Za-z]{2,}', '<EMAIL>', 'g'),
                       '\\+?[0-9][0-9()\\- ]{7,}[0-9]', '<PHONE>', 'g'),
                       '[0-9]{6,}', '<NUM>', 'g') AS text
            FROM documents
        """,
        "docs_vocab_growth": """
            WITH toks AS (
                SELECT doc_id,
                       unnest(list_distinct(string_split(text, ' '))) AS w
                FROM documents),
            firsts AS (SELECT w, min(doc_id) AS fd FROM toks GROUP BY 1),
            hist AS (SELECT fd AS doc_id, count(*)::BIGINT AS n_new
                     FROM firsts GROUP BY 1)
            SELECT d.doc_id,
                   sum(coalesce(h.n_new, 0))
                       OVER (ORDER BY d.doc_id)::BIGINT AS vocab_size
            FROM documents d LEFT JOIN hist h ON h.doc_id = d.doc_id
        """,
        "docs_weighted_sample": """
            WITH t AS (
                SELECT doc_id,
                       greatest(n_chars, 1)::BIGINT AS w,
                       ln(((('0x' || substr(md5(doc_id::VARCHAR), 1, 8))::UBIGINT
                            + 1)::DOUBLE) / 4294967296.0)
                           / greatest(n_chars, 1)::DOUBLE AS key
                FROM documents
            ), r AS (
                SELECT doc_id, w,
                       row_number() OVER (ORDER BY key DESC, doc_id) AS rank
                FROM t
            )
            SELECT doc_id, w, rank::BIGINT AS rank FROM r WHERE rank <= 20
        """,
        "docs_postings": """
            WITH f AS (SELECT doc_id, unnest(string_split(text, ' ')) AS term
                       FROM documents)
            SELECT term, count(DISTINCT doc_id)::BIGINT AS df,
                   count(*)::BIGINT AS tf, min(doc_id) AS first_doc
            FROM f WHERE term <> '' GROUP BY term
        """,
        "text_normalize": """
            WITH n AS (SELECT doc_id,
                              nfc_normalize(lower(regexp_replace(
                                  regexp_replace(text, '^\\s+|\\s+$', '', 'g'),
                                  '\\s+', ' ', 'g'))) AS norm_text
                       FROM documents)
            SELECT doc_id, norm_text, length(norm_text)::BIGINT AS n_chars_norm
            FROM n
        """,
        "docs_tfidf": """
            WITH toks AS (
                SELECT doc_id, unnest(string_split(text, ' ')) AS term
                FROM documents
            ), tf AS (
                SELECT doc_id, term, count(*)::BIGINT AS tf
                FROM toks GROUP BY doc_id, term
            ), df AS (
                SELECT term, count(DISTINCT doc_id)::BIGINT AS df
                FROM toks GROUP BY term
            ), n AS (SELECT count(*)::DOUBLE AS n FROM documents),
            scored AS (
                SELECT tf.doc_id, tf.term,
                       tf.tf * ln((SELECT n FROM n) / df.df) AS tfidf_raw,
                       row_number() OVER (
                           PARTITION BY tf.doc_id
                           ORDER BY tf.tf * ln((SELECT n FROM n) / df.df) DESC,
                                    tf.term) AS rank
                FROM tf JOIN df USING (term)
            )
            SELECT doc_id, term, round(tfidf_raw, 6) AS tfidf,
                   rank::BIGINT AS rank
            FROM scored WHERE rank <= 3
        """,
        "docs_pack_sequences": """
            SELECT doc_id,
                   n_tokens,
                   (running - n_tokens)::BIGINT AS start_tok,
                   ((running - n_tokens) // 512)::BIGINT AS bin_id
            FROM (
                SELECT doc_id,
                       len(string_split(text, ' '))::BIGINT AS n_tokens,
                       SUM(len(string_split(text, ' '))::BIGINT)
                           OVER (ORDER BY doc_id) AS running
                FROM documents
            )
        """,
        "text_token_count": """
            SELECT doc_id,
                   len(string_split(text, ' '))::BIGINT AS n_tokens,
                   length(text)::BIGINT AS n_chars,
                   len(regexp_extract_all(text, '[A-Za-z]+|[0-9]+|[^ \tA-Za-z0-9]'))::BIGINT AS n_bpeish
            FROM documents
        """,
        "text_quality": """
            WITH t AS (SELECT doc_id, text, string_split(text, ' ') AS w FROM documents)
            SELECT doc_id,
                   round(len(list_distinct(w))::DOUBLE / len(w), 6) AS distinct_ratio,
                   round((length(text) - (len(w) - 1))::DOUBLE / len(w), 6) AS mean_token_len
            FROM t
        """,
        "lang_stats": """
            SELECT lang, count(*) AS n_docs, round(avg(n_chars), 4) AS avg_chars
            FROM documents GROUP BY lang
        """,
        "knn_graph": """
            WITH s AS (SELECT a.vec_id, b.vec_id AS neighbor_id,
                              list_cosine_similarity(a.embedding::DOUBLE[],
                                                     b.embedding::DOUBLE[]) AS cos
                       FROM embeddings a, embeddings b
                       WHERE a.vec_id <> b.vec_id),
                 r AS (SELECT vec_id, neighbor_id, cos,
                              row_number() OVER (PARTITION BY vec_id
                                                 ORDER BY cos DESC, neighbor_id) AS rank
                       FROM s)
            SELECT vec_id, neighbor_id, round(cos, 6) AS cos, rank::BIGINT AS rank
            FROM r WHERE rank <= 5
        """,
        "similarity_topk": """
            WITH q AS (SELECT vec_id AS query_id, embedding AS qe FROM embeddings
                       WHERE vec_id < 5),
                 s AS (SELECT q.query_id, e.vec_id,
                              list_cosine_similarity(q.qe::DOUBLE[], e.embedding::DOUBLE[]) AS cos
                       FROM q, embeddings e WHERE e.vec_id <> q.query_id),
                 r AS (SELECT query_id, vec_id, cos,
                              row_number() OVER (PARTITION BY query_id
                                                 ORDER BY cos DESC, vec_id) AS rank
                       FROM s)
            SELECT query_id, vec_id, round(cos, 6) AS cos, rank
            FROM r WHERE rank <= 5
        """,
        "embedding_near_dup": """
            WITH n AS (SELECT vec_id, label,
                              list_transform(embedding, x -> x / sqrt(list_sum(
                                  list_transform(embedding, y -> y * y)))) AS e
                       FROM embeddings)
            SELECT a.vec_id AS vec_id_a, b.vec_id AS vec_id_b,
                   round(list_dot_product(a.e, b.e), 6) AS cos
            FROM n a JOIN n b ON a.label = b.label AND a.vec_id < b.vec_id
            WHERE list_dot_product(a.e, b.e) >= 0.35
        """,
        "multimodal_wav_decode": """
            WITH d AS (SELECT doc_id, 64 + doc_id % 129 AS n FROM documents),
                 u AS (SELECT doc_id, n,
                              unnest(generate_series(0, n - 1)) AS i
                       FROM d)
            SELECT doc_id, n AS n_samples, 8000::BIGINT AS sample_rate,
                   sum(abs(((doc_id * 31 + i * 17) % 65536) - 32768))::BIGINT
                       AS sum_abs
            FROM u GROUP BY doc_id, n
        """,
        "multimodal_ppm_decode": """
            WITH d AS (SELECT doc_id, 8 + doc_id % 9 AS w,
                              8 + (doc_id * 7) % 13 AS h
                       FROM documents),
                 u AS (SELECT doc_id, w, h,
                              unnest(generate_series(0, w * h * 3 - 1)) AS j
                       FROM d)
            SELECT doc_id, w AS width, h AS height,
                   sum(CASE WHEN j % 3 = 0
                            THEN (doc_id * 7 + j * 13) % 256 ELSE 0
                       END)::BIGINT AS sum_r,
                   sum(CASE WHEN j % 3 = 1
                            THEN (doc_id * 7 + j * 13) % 256 ELSE 0
                       END)::BIGINT AS sum_g,
                   sum(CASE WHEN j % 3 = 2
                            THEN (doc_id * 7 + j * 13) % 256 ELSE 0
                       END)::BIGINT AS sum_b
            FROM u GROUP BY doc_id, w, h
        """,
        "multimodal_image_meta": """
            SELECT doc_id,
                   octet_length(encode(text))::BIGINT AS n_bytes,
                   (64 + octet_length(encode(text)) % 577)::BIGINT AS width,
                   (64 + (octet_length(encode(text)) * 31) % 419)::BIGINT AS height
            FROM documents
        """,
        "kg_idf": f"""
            WITH dv AS (SELECT district_key, term_keys FROM read_parquet(
                            '{SF001_WORK}/doc_vectors/*/*.parquet', hive_partitioning=true)),
                 docs AS (SELECT district_key, unnest(term_keys) AS term_key FROM dv),
                 counts AS (SELECT district_key, count(*) AS n_docs FROM dv
                            GROUP BY district_key),
                 df AS (SELECT district_key, term_key, count(*) AS df FROM docs
                        GROUP BY district_key, term_key)
            SELECT d.district_key, d.term_key,
                   round(CASE WHEN regexp_full_match(d.term_key, '[0-9]+')
                               OR regexp_full_match(d.term_key, '[A-Za-z]+') THEN 2.0
                              ELSE greatest(ln(c.n_docs::DOUBLE / (d.df + 1)), 0) END,
                         6) AS idf
            FROM df d JOIN counts c USING (district_key)
        """,
        "region_dic_export": f"""
            WITH dv AS (SELECT road, road_num FROM read_parquet(
                            '{SF001_WORK}/doc_vectors/*/*.parquet', hive_partitioning=true)),
                 terms AS (
                    SELECT name AS term FROM read_parquet(
                        '/root/repo/address_semantic_search_ray/data/region_dict.parquet')
                    UNION
                    SELECT road FROM dv WHERE road <> ''
                    UNION
                    SELECT road || road_num FROM dv WHERE road <> '' AND road_num <> ''
                 )
            SELECT term, length(term)::BIGINT AS term_len FROM terms
            WHERE length(term) > 0
        """,
        "kg_turn_stats": f"""
            SELECT conv_id, count(*) AS n_turns,
                   min(epoch_us(ts)) AS first_ts_us, max(epoch_us(ts)) AS last_ts_us
            FROM read_parquet('{SF001_SYNTH}/transcripts.parquet/*.parquet')
            GROUP BY conv_id
        """,
        # -- naive-oracle-backed checks (pipelines/naive.py): each parquet
        # below is recomputed single-process with plain loops when the
        # matching queries() entry runs at correctness scale; the SQL re-does
        # the distributable part (pairing, verify, hamming) in DuckDB.
        "dedup_common_spans": """
            WITH s AS (SELECT DISTINCT doc_id, md5(substr(text, o, 64)) AS h
                       FROM documents,
                            UNNEST(range(1, length(text) - 64 + 2, 16)) AS t(o))
            SELECT h, count(*)::BIGINT AS n_docs
            FROM s GROUP BY h HAVING count(*) >= 2
        """,
        "dedup_simhash": f"""
            WITH s AS (SELECT doc_id, simhash
                       FROM read_parquet('{SF001_ORACLE}/simhash_sigs.parquet'))
            SELECT a.doc_id AS doc_id_a, b.doc_id AS doc_id_b,
                   bit_count(xor(a.simhash, b.simhash))::BIGINT AS hamming
            FROM s a JOIN s b ON a.doc_id < b.doc_id
            WHERE bit_count(xor(a.simhash, b.simhash)) <= 3
        """,
        "dedup_minhash_lsh": f"""
            WITH bands AS (SELECT * FROM
                               read_parquet('{SF001_ORACLE}/minhash_bands.parquet')),
                 cand AS (SELECT DISTINCT a.doc_id AS doc_id_a, b.doc_id AS doc_id_b
                          FROM bands a JOIN bands b
                            ON a.band_id = b.band_id AND a.band_hash = b.band_hash
                               AND a.doc_id < b.doc_id),
                 sh AS (SELECT doc_id,
                               CASE WHEN len(w) < 3 THEN [array_to_string(w, ' ')]
                                    ELSE list_distinct([array_to_string(w[i:i+2], ' ')
                                                        FOR i IN range(1, len(w) - 1)])
                               END AS s
                        FROM (SELECT doc_id, string_split(text, ' ') AS w
                              FROM documents)),
                 j AS (SELECT c.doc_id_a, c.doc_id_b,
                              len(list_intersect(sa.s, sb.s))::DOUBLE
                              / (len(sa.s) + len(sb.s)
                                 - len(list_intersect(sa.s, sb.s))) AS jac
                       FROM cand c JOIN sh sa ON sa.doc_id = c.doc_id_a
                                   JOIN sh sb ON sb.doc_id = c.doc_id_b)
            SELECT doc_id_a, doc_id_b, round(jac, 6) AS jac FROM j WHERE jac >= 0.7
        """,
        "similarity_topk_ivf": f"""
            WITH a AS (SELECT vec_id, list_id
                       FROM read_parquet('{SF001_ORACLE}/ivf_assign.parquet')),
                 p AS (SELECT query_id, list_id
                       FROM read_parquet('{SF001_ORACLE}/ivf_probes.parquet')),
                 n AS (SELECT vec_id,
                              list_transform(embedding, x -> x / sqrt(list_sum(
                                  list_transform(embedding, y -> y * y)))) AS e
                       FROM embeddings),
                 s AS (SELECT p.query_id, a.vec_id,
                              list_dot_product(nq.e, nv.e) AS cos
                       FROM p JOIN a ON a.list_id = p.list_id
                              JOIN n nv ON nv.vec_id = a.vec_id
                              JOIN n nq ON nq.vec_id = p.query_id
                       WHERE a.vec_id <> p.query_id),
                 r AS (SELECT query_id, vec_id, cos,
                              row_number() OVER (PARTITION BY query_id
                                                 ORDER BY cos DESC, vec_id) AS rank
                       FROM s)
            SELECT query_id, vec_id, round(cos, 6) AS cos, rank
            FROM r WHERE rank <= 5
        """,
        "similarity_topk_pq": f"""
            SELECT query_id, vec_id, score, rank FROM (
                SELECT query_id, vec_id, score,
                       row_number() OVER (PARTITION BY query_id
                                          ORDER BY score DESC, vec_id) AS rank
                FROM read_parquet('{SF001_ORACLE}/pq_scores.parquet')
                WHERE vec_id <> query_id
            ) WHERE rank <= 5
        """,
        "embedding_near_dup_lsh": f"""
            WITH b AS (SELECT vec_id, bucket
                       FROM read_parquet('{SF001_ORACLE}/lsh_buckets.parquet')),
                 n AS (SELECT e.vec_id, b.bucket,
                              list_transform(e.embedding, x -> x / sqrt(list_sum(
                                  list_transform(e.embedding, y -> y * y)))) AS e
                       FROM embeddings e JOIN b ON e.vec_id = b.vec_id)
            SELECT a.vec_id AS vec_id_a, c.vec_id AS vec_id_b,
                   round(list_dot_product(a.e, c.e), 6) AS cos
            FROM n a JOIN n c ON a.bucket = c.bucket AND a.vec_id < c.vec_id
            WHERE list_dot_product(a.e, c.e) >= 0.35
        """,
        "embedding_kmeans": f"""
            WITH c AS (SELECT cluster, centroid
                       FROM read_parquet('{SF001_ORACLE}/kmeans_centroids.parquet')),
                 s AS (SELECT e.vec_id, c.cluster,
                              list_cosine_similarity(e.embedding::DOUBLE[],
                                                      c.centroid) AS cos
                       FROM embeddings e CROSS JOIN c),
                 r AS (SELECT vec_id, cluster, cos,
                              row_number() OVER (PARTITION BY vec_id
                                                 ORDER BY cos DESC, cluster) AS rn
                       FROM s)
            SELECT vec_id, cluster, round(cos, 6) AS cos FROM r WHERE rn = 1
        """,
        "text_lang_id": _lang_id_sql(),
        "text_fingerprint": f"""
            SELECT doc_id, fingerprint
            FROM read_parquet('{SF001_ORACLE}/fingerprints.parquet')
        """,
        "similarity_topk_lsh": f"""
            SELECT query_id, vec_id, cos, rank
            FROM read_parquet('{SF001_ORACLE}/lsh_topk.parquet')
        """,
        "multimodal_audio_frames": """
            SELECT doc_id,
                   (greatest(octet_length(encode(text)) - 64, 0) // 128
                    + 1)::BIGINT AS n_frames
            FROM documents
        """,
        "events_heavy_users_cms": f"""
            SELECT user_id, n_est
            FROM read_parquet('{SF001_ORACLE}/cms_heavy_users.parquet')
        """,
        "events_approx_users_hll": f"""
            SELECT event_type, n_users_est
            FROM read_parquet('{SF001_ORACLE}/hll_users.parquet')
        """,
        "events_unseen_users_bloom": f"""
            SELECT user_id, maybe_seen
            FROM read_parquet('{SF001_ORACLE}/bloom_unseen_users.parquet')
        """,
        "kg_triples": f"""
            SELECT subj, pred, obj, conv_id, turn_idx, district_key, score
            FROM read_parquet('{SF001_ORACLE}/kg_triples.parquet')
        """,
        "kg_part_of_closure": f"""
            WITH RECURSIVE e AS (
                -- canonical forest: smallest parent per child (alias-split
                -- chains can give a child two parents at larger scales)
                SELECT subj, min(obj) AS obj
                FROM read_parquet('{SF001_ORACLE}/kg_triples.parquet')
                WHERE pred = 'part_of' GROUP BY subj
            ),
            closure(subj, ancestor, depth) AS (
                SELECT subj, obj, 1 FROM e
                UNION ALL
                SELECT c.subj, e.obj, c.depth + 1
                FROM closure c JOIN e ON c.ancestor = e.subj
            )
            SELECT subj, ancestor, depth::BIGINT AS depth FROM closure
        """,
        "kg_located_at_rollup": f"""
            WITH RECURSIVE e AS (
                SELECT subj, min(obj) AS obj
                FROM read_parquet('{SF001_ORACLE}/kg_triples.parquet')
                WHERE pred = 'part_of' GROUP BY subj
            ),
            closure(subj, ancestor) AS (
                SELECT subj, obj FROM e
                UNION ALL
                SELECT c.subj, e.obj FROM closure c JOIN e ON c.ancestor = e.subj
            ),
            direct AS (
                SELECT obj AS region, count(*)::BIGINT AS n
                FROM read_parquet('{SF001_ORACLE}/kg_triples.parquet')
                WHERE pred = 'located_at' GROUP BY 1
            ),
            contrib AS (
                SELECT region, n FROM direct
                UNION ALL
                SELECT c.ancestor AS region, d.n
                FROM closure c JOIN direct d ON d.region = c.subj
            )
            SELECT region, sum(n)::BIGINT AS n_located
            FROM contrib GROUP BY region
        """,
        "kg_region_degree": f"""
            SELECT obj, pred, count(*) AS n
            FROM read_parquet('{SF001_ORACLE}/kg_triples.parquet')
            GROUP BY 1, 2
        """,
        "kg_entity_cooccurrence": f"""
            WITH ents AS (
                SELECT DISTINCT conv_id, obj
                FROM read_parquet('{SF001_ORACLE}/kg_triples.parquet')
                WHERE pred = 'mentions'
            )
            SELECT a.obj AS obj_a, b.obj AS obj_b, count(*)::BIGINT AS n_convs
            FROM ents a JOIN ents b USING (conv_id)
            WHERE a.obj < b.obj
            GROUP BY 1, 2
        """,
        "events_cdc_compact": """
            SELECT user_id, epoch_us(ts) AS last_ts_us,
                   event_id AS last_event_id,
                   event_type AS last_event_type,
                   value AS last_value
            FROM (SELECT *, row_number() OVER (
                      PARTITION BY user_id
                      ORDER BY ts DESC, event_id DESC) AS rn
                  FROM events)
            WHERE rn = 1
        """,
        "events_user_paths": """
            WITH seq AS (
                SELECT user_id, event_type,
                       lag(event_type) OVER (
                           PARTITION BY user_id ORDER BY ts, event_id
                       ) AS from_type
                FROM events)
            SELECT from_type, event_type AS to_type, count(*)::BIGINT AS n
            FROM seq WHERE from_type IS NOT NULL GROUP BY 1, 2
        """,
        "events_value_p95_hourly": """
            SELECT event_type,
                   strftime(date_trunc('hour', ts), '%Y-%m-%d %H:00:00') AS hour,
                   count(*)::BIGINT AS n,
                   quantile_disc(value, 0.5) AS p50,
                   quantile_disc(value, 0.95) AS p95
            FROM events GROUP BY 1, 2
        """,
        "docs_bigram_lm": """
            WITH toks AS (
                SELECT doc_id, string_split(text, ' ') AS w FROM documents),
            idxs AS (
                SELECT doc_id, w,
                       unnest(generate_series(1, len(w) - 1)) AS i
                FROM toks),
            flat AS (SELECT doc_id, w[i] AS w1, w[i + 1] AS w2 FROM idxs),
            bgc AS (SELECT w1, w2, count(*) AS c FROM flat GROUP BY 1, 2),
            unic AS (SELECT w1, count(*) AS c1 FROM flat GROUP BY 1)
            SELECT f.doc_id, count(*)::BIGINT AS n_bigrams,
                   round(sum(ln(b.c) - ln(u.c1)) / count(*), 6) AS lm_score
            FROM flat f
            JOIN bgc b ON b.w1 = f.w1 AND b.w2 = f.w2
            JOIN unic u ON u.w1 = f.w1
            GROUP BY 1
        """,
        "orders_rollup": """
            SELECT coalesce(year, 'ALL') AS year,
                   coalesce(priority, 'ALL') AS priority,
                   count(*)::BIGINT AS n,
                   round(sum(o_totalprice), 2) AS revenue
            FROM (SELECT strftime(o_orderdate, '%Y') AS year,
                         o_orderpriority AS priority, o_totalprice
                  FROM orders)
            GROUP BY ROLLUP (year, priority)
        """,
        "kg_conv_first_mentions": f"""
            SELECT conv_id, obj, min(turn_idx)::BIGINT AS first_turn,
                   count(*)::BIGINT AS n_mentions
            FROM read_parquet('{SF001_ORACLE}/kg_triples.parquet')
            WHERE pred = 'mentions'
            GROUP BY 1, 2
        """,
        "kg_cooccur_triangles": f"""
            WITH ents AS (
                SELECT DISTINCT conv_id, obj
                FROM read_parquet('{SF001_ORACLE}/kg_triples.parquet')
                WHERE pred = 'mentions'
            ),
            pairs AS (
                SELECT a.obj AS s, b.obj AS t
                FROM ents a JOIN ents b USING (conv_id)
                WHERE a.obj < b.obj GROUP BY 1, 2
            ),
            tri AS (
                SELECT ab.s AS a, ab.t AS b, bc.t AS c
                FROM pairs ab
                JOIN pairs bc ON bc.s = ab.t
                JOIN pairs ac ON ac.s = ab.s AND ac.t = bc.t
            ),
            corners AS (
                SELECT a AS node FROM tri
                UNION ALL SELECT b FROM tri
                UNION ALL SELECT c FROM tri
            )
            SELECT n.node, coalesce(cnt.n, 0)::BIGINT AS n_triangles
            FROM (SELECT DISTINCT s AS node FROM
                    (SELECT s FROM pairs UNION ALL SELECT t FROM pairs)) n
            LEFT JOIN (SELECT node, count(*) AS n FROM corners GROUP BY 1) cnt
                USING (node)
        """,
        "kg_link_prediction": f"""
            WITH ents AS (
                SELECT DISTINCT conv_id, obj
                FROM read_parquet('{SF001_ORACLE}/kg_triples.parquet')
                WHERE pred = 'mentions'
            ),
            pairs AS (
                SELECT a.obj AS s, b.obj AS t
                FROM ents a JOIN ents b USING (conv_id)
                WHERE a.obj < b.obj GROUP BY 1, 2
            ),
            edges AS (
                SELECT s, t FROM pairs UNION ALL SELECT t AS s, s AS t FROM pairs
            ),
            deg AS (SELECT s AS node, count(*)::DOUBLE AS d
                    FROM edges GROUP BY 1),
            cand AS (
                SELECT e1.t AS u, e2.t AS v, e1.s AS w
                FROM edges e1 JOIN edges e2 ON e1.s = e2.s AND e1.t < e2.t
            ),
            aa AS (
                SELECT c.u AS obj_a, c.v AS obj_b,
                       round(sum(1.0 / ln(d.d)), 6) AS aa
                FROM cand c JOIN deg d ON d.node = c.w
                WHERE d.d >= 2 AND d.d <= 2000
                  AND NOT EXISTS (SELECT 1 FROM pairs p
                                  WHERE p.s = c.u AND p.t = c.v)
                GROUP BY 1, 2
            )
            SELECT obj_a, obj_b, aa FROM aa
            ORDER BY aa DESC, obj_a, obj_b LIMIT 20
        """,
        "kg_region_pagerank": f"""
            WITH ents AS (
                SELECT DISTINCT conv_id, obj
                FROM read_parquet('{SF001_ORACLE}/kg_triples.parquet')
                WHERE pred = 'mentions'
            ),
            pairs AS (
                SELECT a.obj AS s, b.obj AS t, count(*)::DOUBLE AS w
                FROM ents a JOIN ents b USING (conv_id)
                WHERE a.obj < b.obj GROUP BY 1, 2
            ),
            edges AS (
                SELECT s, t, w FROM pairs
                UNION ALL SELECT t AS s, s AS t, w FROM pairs
            ),
            nodes AS (SELECT DISTINCT s AS node FROM edges),
            nn AS (SELECT count(*)::DOUBLE AS n FROM nodes),
            wdeg AS (SELECT s AS node, sum(w) AS wd FROM edges GROUP BY 1),
            pr0 AS (SELECT node, 1.0 / (SELECT n FROM nn) AS rank FROM nodes),
            pr1 AS (
                SELECT e.t AS node, (1.0 - 0.85) / (SELECT n FROM nn)
                       + 0.85 * sum(p.rank * e.w / d.wd) AS rank
                FROM edges e JOIN pr0 p ON p.node = e.s
                             JOIN wdeg d ON d.node = e.s
                GROUP BY 1
            ),
            pr2 AS (
                SELECT e.t AS node, (1.0 - 0.85) / (SELECT n FROM nn)
                       + 0.85 * sum(p.rank * e.w / d.wd) AS rank
                FROM edges e JOIN pr1 p ON p.node = e.s
                             JOIN wdeg d ON d.node = e.s
                GROUP BY 1
            ),
            pr3 AS (
                SELECT e.t AS node, (1.0 - 0.85) / (SELECT n FROM nn)
                       + 0.85 * sum(p.rank * e.w / d.wd) AS rank
                FROM edges e JOIN pr2 p ON p.node = e.s
                             JOIN wdeg d ON d.node = e.s
                GROUP BY 1
            ),
            pr4 AS (
                SELECT e.t AS node, (1.0 - 0.85) / (SELECT n FROM nn)
                       + 0.85 * sum(p.rank * e.w / d.wd) AS rank
                FROM edges e JOIN pr3 p ON p.node = e.s
                             JOIN wdeg d ON d.node = e.s
                GROUP BY 1
            ),
            pr5 AS (
                SELECT e.t AS node, (1.0 - 0.85) / (SELECT n FROM nn)
                       + 0.85 * sum(p.rank * e.w / d.wd) AS rank
                FROM edges e JOIN pr4 p ON p.node = e.s
                             JOIN wdeg d ON d.node = e.s
                GROUP BY 1
            )
            SELECT node, round(rank, 6) AS rank FROM pr5
        """,
        "kg_community_lpa": f"""
            WITH ents AS (
                SELECT DISTINCT conv_id, obj
                FROM read_parquet('{SF001_ORACLE}/kg_triples.parquet')
                WHERE pred = 'mentions'
            ),
            pairs AS (
                SELECT a.obj AS s, b.obj AS t, count(*)::DOUBLE AS w
                FROM ents a JOIN ents b USING (conv_id)
                WHERE a.obj < b.obj GROUP BY 1, 2
            ),
            edges AS (
                SELECT s, t, w FROM pairs
                UNION ALL SELECT t AS s, s AS t, w FROM pairs
            ),
            lp0 AS (SELECT DISTINCT s AS node, s AS label FROM edges),
            lp1 AS (
                SELECT node, label FROM (
                    SELECT e.t AS node, l.label AS label,
                           row_number() OVER (
                               PARTITION BY e.t
                               ORDER BY sum(e.w) DESC, l.label) AS rn
                    FROM edges e JOIN lp0 l ON l.node = e.s
                    GROUP BY e.t, l.label
                ) WHERE rn = 1
            ),
            lp2 AS (
                SELECT node, label FROM (
                    SELECT e.t AS node, l.label AS label,
                           row_number() OVER (
                               PARTITION BY e.t
                               ORDER BY sum(e.w) DESC, l.label) AS rn
                    FROM edges e JOIN lp1 l ON l.node = e.s
                    GROUP BY e.t, l.label
                ) WHERE rn = 1
            )
            SELECT node, label AS community FROM lp2
        """,
        "kg_mentions": f"""
            SELECT conv_id, turn_idx, mention_idx, role, district_key, town,
                   village, road, road_num, residual, least_region_id
            FROM read_parquet('{SF001_ORACLE}/kg_mentions.parquet')
        """,
        "kg_links_explain": f"""
            SELECT * FROM read_parquet('{SF001_ORACLE}/kg_links_explain.parquet')
        """,
        "town_mining": f"""
            SELECT id, parent_id, type, name
            FROM read_parquet('{SF001_ORACLE}/town_mining.parquet')
        """,
        "regression_harness": f"""
            SELECT hs, hf, ls, lf, zero
            FROM read_parquet('{SF001_ORACLE}/regression.parquet')
        """,
    }
