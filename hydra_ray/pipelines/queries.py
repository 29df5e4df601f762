"""Driver-facing operator inventory: Ray pipelines + DuckDB oracle SQL.

Each entry implements one operator family from SURVEY.md §2 (or a
training-data op the north rule adds) over the driver's test tables,
idiomatic-Ray-Data style, with a matching ANSI-SQL oracle where the
semantics are SQL-expressible. Column names match the SQL exactly (the
driver hashes values after sorting columns by name).

Conventions:
  - every function takes ``sf_dir`` and returns a Dataset / Arrow table;
  - CATALOG_SQL reproduces hydra_ray.synth.catalog_from_documents in
    DuckDB so crawler-stage operators are oracle-checkable;
  - float outputs are rounded to 6 decimals on both sides.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

import ray
import ray.data as rd

from hydra_ray.functions.urls import canonicalize_batch
from hydra_ray.stages.spans import CHUNK, build_spans_batch, explode_spans_batch

# ---------------------------------------------------------------------------
# shared SQL fragments
# ---------------------------------------------------------------------------

# DuckDB rendering of synth.catalog_from_documents (same derivation)
CATALOG_SQL = """
    SELECT
        'ds-' || CAST(doc_id % 50 AS VARCHAR) AS dataset_id,
        md5('https://' ||
            CASE WHEN doc_id % 100 < 55 THEN 'static.data.example'
                 ELSE 'host' || lpad(CAST(doc_id % 20 AS VARCHAR), 2, '0') || '.data.example' END
            || '/res/' || CAST(doc_id AS VARCHAR) || '.' ||
            (['csv','json','geojson','parquet','xlsx','pdf'])[1 + doc_id % 6]) AS resource_id,
        'https://' ||
            CASE WHEN doc_id % 100 < 55 THEN 'static.data.example'
                 ELSE 'host' || lpad(CAST(doc_id % 20 AS VARCHAR), 2, '0') || '.data.example' END
            || '/res/' || CAST(doc_id AS VARCHAR) || '.' ||
            (['csv','json','geojson','parquet','xlsx','pdf'])[1 + doc_id % 6] AS url,
        (['csv','json','geojson','parquet','xlsx','pdf'])[1 + doc_id % 6] AS format,
        CASE WHEN doc_id % 100 < 55 THEN 'static.data.example'
             ELSE 'host' || lpad(CAST(doc_id % 20 AS VARCHAR), 2, '0') || '.data.example' END AS domain,
        doc_id % 97 = 0 AS priority
    FROM documents
"""


def _docs(sf_dir: str, columns=None) -> "rd.Dataset":
    return rd.read_parquet(f"{sf_dir}/documents.parquet", columns=columns)


def _catalog_ds(sf_dir: str) -> "rd.Dataset":
    """Synthesized catalog as a Dataset (canonicalized)."""
    from hydra_ray.synth import catalog_from_documents

    return (
        _docs(sf_dir, columns=["doc_id"])
        .map_batches(catalog_from_documents, batch_format="pyarrow")
        .map_batches(canonicalize_batch, batch_format="pyarrow")
    )


# ---------------------------------------------------------------------------
# crawler-stage operators (oracle-checkable)
# ---------------------------------------------------------------------------


def q_catalog_synth(sf_dir: str):
    """S1/M1: catalog derivation + canonicalize-and-hash stage."""
    ds = _catalog_ds(sf_dir)
    return ds.map_batches(
        lambda t: t.select(["dataset_id", "resource_id", "url", "format", "domain", "priority"]).append_column(
            "url_md5_col", t["url_md5"].combine_chunks() if isinstance(t["url_md5"], pa.ChunkedArray) else t["url_md5"]
        ),
        batch_format="pyarrow",
    )


ORACLE_CATALOG_SYNTH = f"""
    SELECT dataset_id, resource_id, url, format, domain, priority,
           md5(url) AS url_md5_col
    FROM ({CATALOG_SQL})
"""


def q_domain_counts(sf_dir: str):
    """A1/skew evidence: URLs per domain (grouped count, partial-agg)."""
    ds = _catalog_ds(sf_dir)

    def partial(t: pa.Table) -> pa.Table:
        g = t.group_by("domain").aggregate([("url", "count")])
        return g.rename_columns(["domain", "n_urls"])

    partials = ds.map_batches(partial, batch_format="pyarrow")
    from ray.data.aggregate import Sum

    return partials.groupby("domain").aggregate(Sum("n_urls", alias_name="n_urls"))


ORACLE_DOMAIN_COUNTS = f"""
    SELECT domain, count(*) AS n_urls FROM ({CATALOG_SQL}) GROUP BY domain
"""


def q_frontier_tiers(sf_dir: str):
    """O1: tier assignment on a fresh catalog (1=priority, 2=unchecked)."""
    ds = _catalog_ds(sf_dir)

    def tiers(t: pa.Table) -> pa.Table:
        tier = pc.if_else(t["priority"], pa.scalar(1), pa.scalar(2))
        return pa.table({"resource_id": t["resource_id"], "tier": pc.cast(tier, pa.int32())})

    return ds.map_batches(tiers, batch_format="pyarrow")


ORACLE_FRONTIER_TIERS = f"""
    SELECT resource_id, CAST(CASE WHEN priority THEN 1 ELSE 2 END AS INT) AS tier
    FROM ({CATALOG_SQL})
"""


def q_next_check_delays(sf_dir: str):
    """M18: the piecewise next-check delay, vectorized over event ages.

    age_hours = hours between the event and the newest event; delay =
    smallest CHECK_DELAYS entry >= age, capped at the maximum.
    """
    ds = rd.read_parquet(f"{sf_dir}/events.parquet", columns=["event_id", "ts"])
    import pyarrow.parquet as pq

    tmax = pq.read_table(f"{sf_dir}/events.parquet", columns=["ts"])["ts"]
    max_ts = pc.max(tmax).as_py()

    def delay(t: pa.Table) -> pa.Table:
        age_h = (
            (np.datetime64(max_ts, "us") - t["ts"].to_numpy(zero_copy_only=False))
            .astype("timedelta64[s]")
            .astype(np.float64)
            / 3600.0
        )
        delays = np.full(len(age_h), 720, dtype=np.int64)
        for d in (168, 24, 12):  # reverse order; smallest wins last
            delays[age_h <= d] = d
        return pa.table({"event_id": t["event_id"], "delay_hours": pa.array(delays)})

    return ds.map_batches(delay, batch_format="pyarrow")


ORACLE_NEXT_CHECK_DELAYS = """
    WITH m AS (SELECT max(ts) AS max_ts FROM events)
    SELECT event_id,
           CASE
             WHEN (epoch(max_ts) - epoch(ts)) / 3600.0 <= 12 THEN 12
             WHEN (epoch(max_ts) - epoch(ts)) / 3600.0 <= 24 THEN 24
             WHEN (epoch(max_ts) - epoch(ts)) / 3600.0 <= 168 THEN 168
             ELSE 720
           END AS delay_hours
    FROM events, m
"""


def q_excluded_filter(sf_dir: str):
    """M7: SQL-LIKE excluded patterns (pattern set includes one that
    matches synthesized geojson URLs to make the filter non-trivial)."""
    patterns = ["%geo.data.gouv.fr%", "%.pdf"]
    ds = _catalog_ds(sf_dir)

    def flt(t: pa.Table) -> pa.Table:
        mask = pa.array(np.ones(len(t), dtype=bool))
        for p in patterns:
            mask = pc.and_(mask, pc.invert(pc.match_like(t["url"], p)))
        return t.filter(mask).select(["resource_id", "url"])

    return ds.map_batches(flt, batch_format="pyarrow")


ORACLE_EXCLUDED_FILTER = f"""
    SELECT resource_id, url FROM ({CATALOG_SQL})
    WHERE url NOT LIKE '%geo.data.gouv.fr%' AND url NOT LIKE '%.pdf'
"""


# ---------------------------------------------------------------------------
# aggregate / join / window operators (reference A2-A6, J1/J2, O2-O4)
# ---------------------------------------------------------------------------


def q_pricing_summary(sf_dir: str):
    """A-family: multi-key grouped aggregate with derived measures
    (the engine's general grouped-aggregate path, partial-agg first)."""
    ds = rd.read_parquet(
        f"{sf_dir}/lineitem.parquet",
        columns=["l_returnflag", "l_linestatus", "l_quantity", "l_extendedprice", "l_discount"],
    )

    def revenue(t: pa.Table) -> pa.Table:
        disc_price = pc.multiply(t["l_extendedprice"], pc.subtract(pa.scalar(1.0), t["l_discount"]))
        return t.append_column("disc_price", disc_price)

    from hydra_ray.stages.agg import grouped_agg

    out = grouped_agg(
        ds.map_batches(revenue, batch_format="pyarrow"),
        keys=["l_returnflag", "l_linestatus"],
        aggs=[
            ("l_quantity", "sum", "sum_qty"),
            ("l_extendedprice", "sum", "sum_base_price"),
            ("disc_price", "sum", "sum_disc_price"),
            ("l_quantity", "count", "count_order"),
        ],
    )

    def rounded(t: pa.Table) -> pa.Table:
        for c in ("sum_qty", "sum_base_price", "sum_disc_price"):
            t = t.set_column(t.column_names.index(c), c, pc.round(t[c], 2))
        return t

    return out.map_batches(rounded, batch_format="pyarrow")


ORACLE_PRICING_SUMMARY = """
    SELECT l_returnflag, l_linestatus,
           round(sum(l_quantity), 2) AS sum_qty,
           round(sum(l_extendedprice), 2) AS sum_base_price,
           round(sum(l_extendedprice * (1 - l_discount)), 2) AS sum_disc_price,
           count(*) AS count_order
    FROM lineitem GROUP BY l_returnflag, l_linestatus
"""


def q_status_counts(sf_dir: str):
    """A4: per-status counts (orders as the catalog analogue)."""
    from ray.data.aggregate import Count

    ds = rd.read_parquet(f"{sf_dir}/orders.parquet", columns=["o_orderstatus"])
    return ds.groupby("o_orderstatus").aggregate(Count(alias_name="n"))


ORACLE_STATUS_COUNTS = "SELECT o_orderstatus, count(*) AS n FROM orders GROUP BY o_orderstatus"


def q_grouped_topk(sf_dir: str):
    """A2/O3: grouped count → sort desc → limit k."""
    from ray.data.aggregate import Count

    ds = rd.read_parquet(f"{sf_dir}/events.parquet", columns=["event_type"])
    return ds.groupby("event_type").aggregate(Count(alias_name="n")).sort("n", descending=True).limit(3)


ORACLE_GROUPED_TOPK = """
    SELECT event_type, count(*) AS n FROM events
    GROUP BY event_type ORDER BY n DESC, event_type LIMIT 3
"""


def q_latest_event_per_user(sf_dir: str):
    """J1/O2: latest row per key — hash-partition by user, then ONE
    vectorized sort + drop_duplicates per partition (stages/keyed.py),
    not a Python call per user."""
    from hydra_ray.stages.keyed import keyed_map_partitions

    ds = rd.read_parquet(f"{sf_dir}/events.parquet", columns=["user_id", "event_id", "ts"])

    def latest(df: pd.DataFrame) -> pd.DataFrame:
        df = df.sort_values(["ts", "event_id"], ascending=[False, False], kind="mergesort")
        return df.drop_duplicates("user_id", keep="first")

    return keyed_map_partitions(ds, ["user_id"], latest)


ORACLE_LATEST_EVENT_PER_USER = """
    SELECT user_id, event_id, ts FROM events
    QUALIFY row_number() OVER (PARTITION BY user_id ORDER BY ts DESC, event_id DESC) = 1
"""


def q_top2_events_per_user(sf_dir: str):
    """J2: top-2-per-key window (the change-detection check window)."""
    from hydra_ray.stages.keyed import keyed_map_partitions

    ds = rd.read_parquet(f"{sf_dir}/events.parquet", columns=["user_id", "event_id", "ts"])

    def top2(df: pd.DataFrame) -> pd.DataFrame:
        df = df.sort_values(
            ["user_id", "ts", "event_id"], ascending=[True, False, False], kind="mergesort"
        )
        rn = df.groupby("user_id", sort=False).cumcount().to_numpy() + 1
        df = df.assign(rn=rn.astype(np.int64))
        return df[df["rn"] <= 2]

    return keyed_map_partitions(ds, ["user_id"], top2)


ORACLE_TOP2_EVENTS_PER_USER = """
    SELECT user_id, event_id, ts,
           row_number() OVER (PARTITION BY user_id ORDER BY ts DESC, event_id DESC) AS rn
    FROM events
    QUALIFY rn <= 2
"""


def q_revenue_by_nation(sf_dir: str):
    """J-family: broadcast-small-side join (customer+nation broadcast via
    ray.put, orders streamed) → grouped sum."""
    import pyarrow.parquet as pq

    cust = pq.read_table(f"{sf_dir}/customer.parquet", columns=["c_custkey", "c_nationkey"])
    nation = pq.read_table(f"{sf_dir}/nation.parquet", columns=["n_nationkey", "n_name"])
    cust_df = cust.to_pandas().merge(
        nation.to_pandas(), left_on="c_nationkey", right_on="n_nationkey"
    )[["c_custkey", "n_name"]]
    lookup_ref = ray.put(
        (
            pa.array(cust_df["c_custkey"].to_numpy(), type=pa.int64()),
            pa.array(cust_df["n_name"], type=pa.string()),
        )
    )

    ds = rd.read_parquet(f"{sf_dir}/orders.parquet", columns=["o_custkey", "o_totalprice"])

    class JoinNation:
        def __init__(self):
            self.keys, self.names = ray.get(lookup_ref)

        def __call__(self, t: pa.Table) -> pa.Table:
            # vectorized hash probe: index_in + take, no per-row Python
            idx = pc.index_in(pc.cast(t["o_custkey"], pa.int64()), value_set=self.keys)
            names = pc.take(self.names, idx)
            return pa.table({"n_name": names, "o_totalprice": t["o_totalprice"]})

    from ray.data.aggregate import Sum

    out = (
        ds.map_batches(JoinNation, batch_format="pyarrow", concurrency=(1, 2))
        .groupby("n_name")
        .aggregate(Sum("o_totalprice", alias_name="revenue"))
    )
    return out.map_batches(
        lambda t: t.set_column(t.column_names.index("revenue"), "revenue", pc.round(t["revenue"], 2)),
        batch_format="pyarrow",
    )


ORACLE_REVENUE_BY_NATION = """
    SELECT n_name, round(sum(o_totalprice), 2) AS revenue
    FROM orders
    JOIN customer ON o_custkey = c_custkey
    JOIN nation ON c_nationkey = n_nationkey
    GROUP BY n_name
"""


def q_cors_stats_analogue(sf_dir: str):
    """A5: two-level aggregate — per-user any(value>threshold) → classify
    → counts (the CORS-stats shape)."""
    ds = rd.read_parquet(f"{sf_dir}/events.parquet", columns=["user_id", "value"])

    def partial(t: pa.Table) -> pa.Table:
        df = pd.DataFrame(
            {"user_id": t["user_id"].to_numpy(zero_copy_only=False), "hit": t["value"].to_numpy(zero_copy_only=False) > 50.0}
        )
        g = df.groupby("user_id", as_index=False)["hit"].any()
        return pa.Table.from_pandas(g, preserve_index=False)

    from ray.data.aggregate import Max

    per_user = (
        ds.map_batches(partial, batch_format="pyarrow")
        .groupby("user_id")
        .aggregate(Max("hit", alias_name="any_hit"))
    )

    def classify(t: pa.Table) -> pa.Table:
        cls = pc.if_else(pc.cast(t["any_hit"], pa.bool_()), pa.scalar("hit"), pa.scalar("quiet"))
        return pa.table({"class": cls})

    from ray.data.aggregate import Count

    return per_user.map_batches(classify, batch_format="pyarrow").groupby("class").aggregate(
        Count(alias_name="n_users")
    )


ORACLE_CORS_STATS_ANALOGUE = """
    WITH per_user AS (
        SELECT user_id, bool_or(value > 50.0) AS any_hit FROM events GROUP BY user_id
    )
    SELECT CASE WHEN any_hit THEN 'hit' ELSE 'quiet' END AS class, count(*) AS n_users
    FROM per_user GROUP BY 1
"""


def q_crawler_status_triptych(sf_dir: str):
    """A6: single-pass conditional sums (never/fresh/outdated analogue
    over order dates) — partial sums per block, one global reduce."""
    ds = rd.read_parquet(f"{sf_dir}/orders.parquet", columns=["o_orderdate"])
    cut1 = np.datetime64("1996-01-01", "us")
    cut2 = np.datetime64("1997-01-01", "us")

    def partial(t: pa.Table) -> pa.Table:
        d = t["o_orderdate"].to_numpy(zero_copy_only=False)
        return pa.table(
            {
                "n_old": pa.array([int((d < cut1).sum())], type=pa.int64()),
                "n_mid": pa.array([int(((d >= cut1) & (d < cut2)).sum())], type=pa.int64()),
                "n_new": pa.array([int((d >= cut2).sum())], type=pa.int64()),
            }
        )

    from hydra_ray.sources.store import ds_to_tables

    partials = ds.map_batches(partial, batch_format="pyarrow")
    merged = pa.concat_tables(ds_to_tables(partials), promote_options="default")
    return pa.table(
        {
            "n_old": pa.array([pc.sum(merged["n_old"]).as_py() or 0], type=pa.int64()),
            "n_mid": pa.array([pc.sum(merged["n_mid"]).as_py() or 0], type=pa.int64()),
            "n_new": pa.array([pc.sum(merged["n_new"]).as_py() or 0], type=pa.int64()),
        }
    )


ORACLE_CRAWLER_STATUS_TRIPTYCH = """
    SELECT CAST(sum(CASE WHEN o_orderdate < TIMESTAMP '1996-01-01' THEN 1 ELSE 0 END) AS BIGINT) AS n_old,
           CAST(sum(CASE WHEN o_orderdate >= TIMESTAMP '1996-01-01' AND o_orderdate < TIMESTAMP '1997-01-01' THEN 1 ELSE 0 END) AS BIGINT) AS n_mid,
           CAST(sum(CASE WHEN o_orderdate >= TIMESTAMP '1997-01-01' THEN 1 ELSE 0 END) AS BIGINT) AS n_new
    FROM orders
"""


def q_purge_retention(sf_dir: str):
    """O4: retention filter + compaction (count of survivors per type)."""
    from ray.data.aggregate import Count

    ds = rd.read_parquet(f"{sf_dir}/events.parquet", columns=["event_type", "ts"])
    cutoff = pa.scalar(np.datetime64("2024-01-15", "us").item(), type=pa.timestamp("us"))
    kept = ds.map_batches(
        lambda t: t.filter(pc.greater_equal(t["ts"], cutoff)), batch_format="pyarrow"
    )
    return kept.groupby("event_type").aggregate(Count(alias_name="n_kept"))


ORACLE_PURGE_RETENTION = """
    SELECT event_type, count(*) AS n_kept FROM events
    WHERE ts >= TIMESTAMP '2024-01-15' GROUP BY event_type
"""


def q_sessionize_events(sf_dir: str):
    """Streaming-shaped: tumbling 1h windows per user (groupby key +
    in-group windowing; the engine's window primitive)."""
    ds = rd.read_parquet(f"{sf_dir}/events.parquet", columns=["user_id", "ts", "value"])

    def windows(t: pa.Table) -> pa.Table:
        ts = t["ts"].to_numpy(zero_copy_only=False)
        win = (ts.astype("datetime64[s]").astype(np.int64) // 3600).astype(np.int64)
        return pa.table(
            {
                "user_id": t["user_id"],
                "window_id": pa.array(win),
                "value": t["value"],
            }
        )

    from hydra_ray.stages.agg import grouped_agg

    out = grouped_agg(
        ds.map_batches(windows, batch_format="pyarrow"),
        keys=["user_id", "window_id"],
        aggs=[("value", "count", "n_events"), ("value", "sum", "sum_value")],
    )
    return out.map_batches(
        lambda t: t.set_column(
            t.column_names.index("sum_value"), "sum_value", pc.round(t["sum_value"], 4)
        ),
        batch_format="pyarrow",
    )


ORACLE_SESSIONIZE_EVENTS = """
    SELECT user_id, CAST(floor(epoch(ts) / 3600) AS BIGINT) AS window_id,
           count(*) AS n_events, round(sum(value), 4) AS sum_value
    FROM events GROUP BY 1, 2
"""

# ---------------------------------------------------------------------------
# training-data operators: text analysis, dedup, similarity, spans, media
# ---------------------------------------------------------------------------


def q_text_stats(sf_dir: str):
    """Text stats (chars/tokens/digits), vectorized Arrow kernels."""
    from hydra_ray.stages.text import text_stats_batch

    return _docs(sf_dir, columns=["doc_id", "text"]).map_batches(
        text_stats_batch, batch_format="pyarrow"
    )


ORACLE_TEXT_STATS = r"""
    SELECT doc_id,
           length(text) AS n_chars,
           CAST(array_length(regexp_split_to_array(trim(text), '\s+')) AS BIGINT) AS n_tokens,
           length(regexp_replace(text, '[^0-9]', '', 'g')) AS n_digits
    FROM documents
"""


def q_lang_counts(sf_dir: str):
    from ray.data.aggregate import Count

    return (
        _docs(sf_dir, columns=["lang"]).groupby("lang").aggregate(Count(alias_name="n_docs"))
    )


ORACLE_LANG_COUNTS = "SELECT lang, count(*) AS n_docs FROM documents GROUP BY lang"


def q_token_totals_by_lang(sf_dir: str):
    """Corpus token counting per language (partial sums → tiny groupby)."""
    from ray.data.aggregate import Sum

    from hydra_ray.stages.text import text_stats_batch

    def partial(t: pa.Table) -> pa.Table:
        stats = text_stats_batch(t)
        return pa.table({"lang": t["lang"], "n_tokens": stats["n_tokens"]})

    return (
        _docs(sf_dir, columns=["doc_id", "text", "lang"])
        .map_batches(partial, batch_format="pyarrow")
        .groupby("lang")
        .aggregate(Sum("n_tokens", alias_name="total_tokens"))
    )


ORACLE_TOKEN_TOTALS_BY_LANG = r"""
    SELECT lang,
           CAST(sum(array_length(regexp_split_to_array(trim(text), '\s+'))) AS BIGINT) AS total_tokens
    FROM documents GROUP BY lang
"""


def q_quality_filter(sf_dir: str):
    """Quality gates (token band + digit-ratio cap)."""
    from hydra_ray.stages.text import quality_batch

    return _docs(sf_dir, columns=["doc_id", "text"]).map_batches(
        quality_batch, batch_format="pyarrow"
    )


ORACLE_QUALITY_FILTER = r"""
    WITH s AS (
        SELECT doc_id,
               length(text) AS n_chars,
               CAST(array_length(regexp_split_to_array(trim(text), '\s+')) AS BIGINT) AS n_tokens,
               length(regexp_replace(text, '[^0-9]', '', 'g')) AS n_digits
        FROM documents
    )
    SELECT doc_id, n_tokens,
           round(n_digits / greatest(n_chars, 1), 6) AS digit_ratio,
           (n_tokens >= 5 AND n_tokens <= 10000
            AND round(n_digits / greatest(n_chars, 1), 6) < 0.3) AS keep
    FROM s
"""


def q_dedup_exact(sf_dir: str):
    """Exact dedup: content hash → keep min doc_id (+ dupe count)."""
    from hydra_ray.stages.dedup import dedup_exact

    return dedup_exact(_docs(sf_dir, columns=["doc_id", "text"]))


ORACLE_DEDUP_EXACT = """
    SELECT min(doc_id) AS doc_id, md5(text) AS content_hash,
           count(*) - 1 AS n_dupes
    FROM documents GROUP BY md5(text)
"""


def q_span_explode(sf_dir: str):
    """Interleaved span-document build + explode (the input_hint table)."""
    ds = _docs(sf_dir, columns=["doc_id", "text"])
    return ds.map_batches(build_spans_batch, batch_format="pyarrow").map_batches(
        explode_spans_batch, batch_format="pyarrow"
    )


ORACLE_SPAN_EXPLODE = f"""
    WITH base AS (
        SELECT CAST(doc_id AS VARCHAR) AS doc_id, text,
               CAST(greatest(1, ceil(length(text)/{CHUNK}.0)) AS BIGINT) AS nchunks
        FROM documents
    ), chunks AS (
        SELECT doc_id, unnest(generate_series(0, nchunks - 1)) AS i, text FROM base
    ), chunks2 AS (
        SELECT doc_id, i, substring(text, i*{CHUNK}+1, {CHUNK}) AS chunk FROM chunks
    )
    SELECT doc_id, 'text' AS kind, chunk AS text, NULL AS media_ref,
           CAST(i + i//3 AS INT) AS "offset" FROM chunks2
    UNION ALL
    SELECT doc_id, 'media', NULL, 'media://' || doc_id || '/' || CAST(i AS VARCHAR),
           CAST(i + i//3 + 1 AS INT) FROM chunks2 WHERE i % 3 = 2
"""


def q_embedding_knn(sf_dir: str):
    """Brute-force cosine top-5 for query vectors (vec_id % 50 == 0)."""
    import pyarrow.parquet as pq

    from hydra_ray.stages.similarity import knn_bruteforce

    emb = pq.read_table(f"{sf_dir}/embeddings.parquet", columns=["vec_id", "embedding"])
    ids = emb["vec_id"].to_numpy(zero_copy_only=False).astype(np.int64)
    sel = ids % 50 == 0
    qmat = np.stack(emb["embedding"].to_pylist())[sel].astype(np.float64)
    ds = rd.read_parquet(f"{sf_dir}/embeddings.parquet", columns=["vec_id", "embedding"])
    # sim is dropped from the compared output: DuckDB evaluates cosine in
    # float32 over FLOAT[], we in float64 — 1e-7-level noise would flip a
    # 6-dp rounding. The verified signal is the (query, neighbor, rank)
    # ordering, which is stable for non-degenerate embeddings.
    return knn_bruteforce(ds, ids[sel], qmat, k=5).drop_columns(["sim"])


ORACLE_EMBEDDING_KNN = """
    SELECT q.vec_id AS query_id, n.vec_id AS neighbor_id,
           CAST(row_number() OVER (
               PARTITION BY q.vec_id
               ORDER BY list_cosine_similarity(q.embedding, n.embedding) DESC, n.vec_id
           ) AS BIGINT) AS rank
    FROM embeddings q, embeddings n
    WHERE q.vec_id % 50 = 0 AND n.vec_id != q.vec_id
    QUALIFY rank <= 5
"""


def q_embedding_nn(sf_dir: str):
    """Top-1 cosine neighbor for every vector (sim dropped, see knn)."""
    from hydra_ray.stages.similarity import nn_all

    return nn_all(
        rd.read_parquet(f"{sf_dir}/embeddings.parquet", columns=["vec_id", "embedding"])
    ).drop_columns(["sim"])


ORACLE_EMBEDDING_NN = """
    SELECT a.vec_id AS vec_id, b.vec_id AS nn_id
    FROM embeddings a, embeddings b
    WHERE a.vec_id != b.vec_id
    QUALIFY row_number() OVER (
        PARTITION BY a.vec_id
        ORDER BY list_cosine_similarity(a.embedding, b.embedding) DESC, b.vec_id
    ) = 1
"""


# -- rows-only entries (non-SQL-expressible; driver checks rows+schema) -----


def q_minhash_near_dups(sf_dir: str):
    """MinHash+LSH near-duplicate pairs (verified Jaccard >= 0.5)."""
    from hydra_ray.stages.dedup import dedup_minhash

    return dedup_minhash(_docs(sf_dir, columns=["doc_id", "text"]), threshold=0.5)


def q_simhash(sf_dir: str):
    from hydra_ray.stages.dedup import simhash_batch

    return _docs(sf_dir, columns=["doc_id", "text"]).map_batches(
        simhash_batch, batch_format="pyarrow"
    )


def q_ngram_jaccard(sf_dir: str):
    """Char-3-gram Jaccard pairs within source blocks (threshold 0.35)."""
    from hydra_ray.stages.dedup import ngram_jaccard_pairs

    return ngram_jaccard_pairs(
        _docs(sf_dir, columns=["doc_id", "text", "source"]), threshold=0.35
    )


def q_langid(sf_dir: str):
    """Stopword-profile language ID (actor pool)."""
    from hydra_ray.stages.text import LangId

    return _docs(sf_dir, columns=["doc_id", "text"]).map_batches(
        LangId, batch_format="pyarrow", concurrency=(1, 2)
    )


def q_fingerprint(sf_dir: str):
    from hydra_ray.stages.text import fingerprint_batch

    return _docs(sf_dir, columns=["doc_id", "text"]).map_batches(
        fingerprint_batch, batch_format="pyarrow"
    )


def q_knn_lsh(sf_dir: str):
    """LSH-bucketed approximate NN (scale path for similarity search)."""
    from hydra_ray.stages.similarity import knn_lsh

    # sim dropped from the compared output (rank ordering is the signal;
    # see q_embedding_knn note on float32-vs-float64 rounding)
    return knn_lsh(
        rd.read_parquet(f"{sf_dir}/embeddings.parquet", columns=["vec_id", "embedding"]),
        k=1,
        n_planes=6,
    ).drop_columns(["sim"])


def q_knn_ivf(sf_dir: str):
    """IVF (k-means inverted-file) approximate all-pairs NN ACCURACY
    gate — the auto-routed scale path for nn_all above
    BRUTE_FORCE_MAX_ROWS. nprobe=7/8 here because the synthetic
    embeddings are uniform (IVF's worst case: recall ≈
    nprobe/n_centroids); clustered real embeddings reach the same
    recall with nprobe ≪ n_centroids. k-means codebooks are not
    SQL-expressible, so instead of pinning neighbor ids the query
    measures recall against the exact brute-force answer on the same
    data and emits {n, recall_ok: recall ≥ 0.95}, which the oracle
    pins — an index whose recall drifts now FAILS the driver gate."""
    from hydra_ray.stages.similarity import knn_ivf

    ds = rd.read_parquet(f"{sf_dir}/embeddings.parquet", columns=["vec_id", "embedding"])
    approx = knn_ivf(ds, k=1, n_centroids=8, nprobe=7)
    return _ann_recall_gate(ds, approx, threshold=0.95)


def _ann_recall_gate(ds, approx, threshold: float) -> pd.DataFrame:
    """{n, recall_ok} for an ANN result vs the exact brute-force top-1
    on the same vectors. 'Found an equally-good neighbor' counts
    (approx sim within 1e-6 of the true best), so cosine ties never
    flake the gate."""
    from hydra_ray.stages.similarity import nn_all

    truth = nn_all(ds, brute_force_max=1 << 62)
    tdf = truth.to_pandas() if not isinstance(truth, pd.DataFrame) else truth
    adf = approx.to_pandas() if not isinstance(approx, pd.DataFrame) else approx
    # LEFT merge from truth: a query the index silently dropped counts
    # as a recall MISS (NaN sim_approx → False), not as absent from the
    # denominator — an index bug that returns no neighbor lowers recall.
    m = tdf[["vec_id", "sim"]].merge(
        adf[["vec_id", "sim"]], on="vec_id", how="left", suffixes=("_true", "_approx")
    )
    recall = float((m["sim_approx"] >= m["sim_true"] - 1e-6).fillna(False).mean())
    return pd.DataFrame(
        {"n": [len(tdf)], "recall_ok": [bool(recall >= threshold)]}
    )


ORACLE_ANN_RECALL = """
    SELECT count(*) AS n, TRUE AS recall_ok FROM embeddings
"""


def q_knn_hnsw(sf_dir: str):
    """Sharded-HNSW approximate all-pairs NN ACCURACY gate (stages/
    similarity.py::knn_hnsw — graph ANN, Malkov & Yashunin 2016; the
    third ANN family next to IVF and PQ). One actor per corpus shard
    builds an independent HNSW; queries fan out from map_batches tasks
    and merge their global top-k in place (no shuffle). Graph builds
    are not SQL-expressible, so like knn_ivf/knn_pq the query measures
    recall@1 against the exact brute-force answer and emits
    {n, recall_ok: recall ≥ 0.95}, which the oracle pins."""
    from hydra_ray.stages.similarity import knn_hnsw

    ds = rd.read_parquet(f"{sf_dir}/embeddings.parquet", columns=["vec_id", "embedding"])
    approx = knn_hnsw(ds, k=1, m=8, ef_construction=64, ef_search=48)
    return _ann_recall_gate(
        rd.read_parquet(f"{sf_dir}/embeddings.parquet", columns=["vec_id", "embedding"]),
        approx,
        threshold=0.95,
    )


def q_media_features(sf_dir: str):
    """Multimodal plumbing: spans → media refs → fetch → byte features."""
    from hydra_ray.stages.multimodal import MEDIA_BATCH_SIZE, MediaFeatures, MediaFetcher

    spans = (
        _docs(sf_dir, columns=["doc_id", "text"])
        .map_batches(build_spans_batch, batch_format="pyarrow")
        .map_batches(explode_spans_batch, batch_format="pyarrow")
    )
    media = spans.map_batches(
        lambda t: t.filter(pc.equal(t["kind"], "media")).select(["media_ref"]),
        batch_format="pyarrow",
    )
    return media.map_batches(
        MediaFetcher, batch_format="pyarrow", batch_size=MEDIA_BATCH_SIZE, concurrency=(1, 2)
    ).map_batches(
        MediaFeatures, batch_format="pyarrow", batch_size=MEDIA_BATCH_SIZE, concurrency=(1, 2)
    ).drop_columns(["features"])


def q_crawl_checks(sf_dir: str):
    """Three crawl iterations over the synthesized catalog, projected to
    the SQL-derivable check columns (id, url, domain, status, timeout).

    This pins the WHOLE crawl loop against a closed-form oracle: the
    seeded tiered selection order, the per-domain politeness window
    quotas (BACKOFF_NB_REQ per BACKOFF_PERIOD), the 429 cool-off and
    x-ratelimit rules over each domain's max-check_id latest check, the
    HEAD→GET retry statuses, and the mix64 check-id derivation — all
    reproduced in ORACLE_CRAWL_CHECKS from documents.doc_id alone. The
    full checks table (headers, checksums, payloads, span docs) stays
    covered by the e2e/soak/parity pytest suites."""
    import tempfile

    from hydra_ray.pipelines.crawl import CrawlEngine
    from hydra_ray.synth import catalog_from_documents

    workdir = tempfile.mkdtemp(prefix="hydra_ray_q_")
    eng = CrawlEngine(workdir, batch_size=200, actor_pools=False)
    seed = _docs(sf_dir, columns=["doc_id"]).map_batches(
        catalog_from_documents, batch_format="pyarrow"
    )
    eng.load_catalog(seed)
    eng.run(3)
    out = eng.checks.read_arrow(columns=["id", "url", "domain", "status", "timeout"])
    eng.shutdown()
    out = out.sort_by([("id", "ascending")])
    return pa.table(
        {
            "id": out["id"],
            "url": out["url"],
            "domain": out["domain"],
            # float64+NaN: nullable-int renders diverge from DuckDB's
            "status": pc.cast(out["status"], pa.float64()),
            "timeout": pc.fill_null(out["timeout"], False),
        }
    )


# ---------------------------------------------------------------------------
# registry
# ---------------------------------------------------------------------------

QUERIES = {
    "catalog_synth": q_catalog_synth,
    "domain_counts": q_domain_counts,
    "frontier_tiers": q_frontier_tiers,
    "next_check_delays": q_next_check_delays,
    "excluded_filter": q_excluded_filter,
    "pricing_summary": q_pricing_summary,
    "status_counts": q_status_counts,
    "grouped_topk": q_grouped_topk,
    "latest_event_per_user": q_latest_event_per_user,
    "top2_events_per_user": q_top2_events_per_user,
    "revenue_by_nation": q_revenue_by_nation,
    "cors_stats_analogue": q_cors_stats_analogue,
    "crawler_status_triptych": q_crawler_status_triptych,
    "purge_retention": q_purge_retention,
    "sessionize_events": q_sessionize_events,
    "text_stats": q_text_stats,
    "lang_counts": q_lang_counts,
    "token_totals_by_lang": q_token_totals_by_lang,
    "quality_filter": q_quality_filter,
    "dedup_exact": q_dedup_exact,
    "span_explode": q_span_explode,
    "embedding_knn": q_embedding_knn,
    "embedding_nn": q_embedding_nn,
    # rows-only (non-SQL-expressible)
    "minhash_near_dups": q_minhash_near_dups,
    "simhash": q_simhash,
    "ngram_jaccard": q_ngram_jaccard,
    "langid": q_langid,
    "fingerprint": q_fingerprint,
    "knn_lsh": q_knn_lsh,
    "knn_ivf": q_knn_ivf,
    "media_features": q_media_features,
    "crawl_checks": q_crawl_checks,
}

ORACLES = {
    "catalog_synth": ORACLE_CATALOG_SYNTH,
    "domain_counts": ORACLE_DOMAIN_COUNTS,
    "frontier_tiers": ORACLE_FRONTIER_TIERS,
    "next_check_delays": ORACLE_NEXT_CHECK_DELAYS,
    "excluded_filter": ORACLE_EXCLUDED_FILTER,
    "pricing_summary": ORACLE_PRICING_SUMMARY,
    "status_counts": ORACLE_STATUS_COUNTS,
    "grouped_topk": ORACLE_GROUPED_TOPK,
    "latest_event_per_user": ORACLE_LATEST_EVENT_PER_USER,
    "top2_events_per_user": ORACLE_TOP2_EVENTS_PER_USER,
    "revenue_by_nation": ORACLE_REVENUE_BY_NATION,
    "cors_stats_analogue": ORACLE_CORS_STATS_ANALOGUE,
    "crawler_status_triptych": ORACLE_CRAWLER_STATUS_TRIPTYCH,
    "purge_retention": ORACLE_PURGE_RETENTION,
    "sessionize_events": ORACLE_SESSIONIZE_EVENTS,
    "text_stats": ORACLE_TEXT_STATS,
    "lang_counts": ORACLE_LANG_COUNTS,
    "token_totals_by_lang": ORACLE_TOKEN_TOTALS_BY_LANG,
    "quality_filter": ORACLE_QUALITY_FILTER,
    "dedup_exact": ORACLE_DEDUP_EXACT,
    "span_explode": ORACLE_SPAN_EXPLODE,
    "embedding_knn": ORACLE_EMBEDDING_KNN,
    "embedding_nn": ORACLE_EMBEDDING_NN,
}


def q_purge_orphans(sf_dir: str):
    """J6/D3: anti-join — parsed-table names not referenced by any
    catalog row (the reference's orphan-table purge, cli/purge.py:36-80).
    'Parsed tables' = md5(url) of parseable-format rows plus synthetic
    legacy tables (doc_id % 11 == 0); orphans are exactly the legacy set.
    Broadcast the catalog key set, anti-filter in map_batches."""
    import pyarrow.parquet as pq

    from hydra_ray.synth import catalog_from_documents

    cat = catalog_from_documents(
        pq.read_table(f"{sf_dir}/documents.parquet", columns=["doc_id"])
    )
    catalog_keys = set(
        hashlib.md5(u.encode()).hexdigest() for u in cat["url"].to_pylist()
    )
    keys_ref = ray.put(pa.array(sorted(catalog_keys), type=pa.string()))

    def parsed_tables(t: pa.Table) -> pa.Table:
        doc_ids = t["doc_id"].to_numpy(zero_copy_only=False)
        names = []
        for d in doc_ids:
            d = int(d)
            if d % 6 in (0, 3, 4):  # csv / parquet / xlsx → parsed
                dom = (
                    "static.data.example"
                    if d % 100 < 55
                    else f"host{d % 20:02d}.data.example"
                )
                fmt = ["csv", "json", "geojson", "parquet", "xlsx", "pdf"][d % 6]
                names.append(hashlib.md5(f"https://{dom}/res/{d}.{fmt}".encode()).hexdigest())
            if d % 11 == 0:  # legacy table no longer in the catalog
                names.append(hashlib.md5(f"legacy://{d}".encode()).hexdigest())
        return pa.table({"parsing_table": pa.array(names, type=pa.string())})

    def anti_join(t: pa.Table) -> pa.Table:
        keys = ray.get(keys_ref)
        mask = pc.invert(pc.is_in(t["parsing_table"], value_set=keys))
        return t.filter(mask)

    return (
        _docs(sf_dir, columns=["doc_id"])
        .map_batches(parsed_tables, batch_format="pyarrow")
        .map_batches(anti_join, batch_format="pyarrow")
    )


ORACLE_PURGE_ORPHANS = f"""
    WITH parsed AS (
        SELECT md5(url) AS parsing_table FROM ({CATALOG_SQL}) WHERE format IN ('csv','parquet','xlsx')
        UNION ALL
        SELECT md5('legacy://' || CAST(doc_id AS VARCHAR)) FROM documents WHERE doc_id % 11 = 0
    ), catalog_tables AS (
        SELECT md5(url) AS parsing_table FROM ({CATALOG_SQL})
    )
    SELECT parsing_table FROM parsed
    WHERE parsing_table NOT IN (SELECT parsing_table FROM catalog_tables)
"""

QUERIES["purge_orphans"] = q_purge_orphans
ORACLES["purge_orphans"] = ORACLE_PURGE_ORPHANS


def q_geojson_features(sf_dir: str):
    """S9/S10/M11/M12: table → GeoJSON Feature rows (points derived
    deterministically from event values; properties = other columns)."""
    from hydra_ray.stages.geo import features_batch

    ds = rd.read_parquet(f"{sf_dir}/events.parquet", columns=["event_id", "user_id", "value"])

    def add_coords(t: pa.Table) -> pa.Table:
        v = t["value"].to_numpy(zero_copy_only=False)
        lat = np.round(np.mod(v, 180.0) - 90.0, 4)
        lon = np.round(np.mod(v * 2.0, 360.0) - 180.0, 4)
        return t.append_column("lat", pa.array(lat)).append_column("lon", pa.array(lon))

    geo = {"kind": "latlon_pair", "columns": ["lat", "lon"]}
    return ds.map_batches(add_coords, batch_format="pyarrow").map_batches(
        lambda t: features_batch(t.drop_columns(["value"]), geo), batch_format="pyarrow"
    )


def q_ogc_capabilities(sf_dir: str):
    """S14/M17: OGC GetCapabilities probing for WFS-style service URLs
    (deterministic synthetic capabilities; layer detection from query
    params). One row per probed service."""
    import json as _json

    from hydra_ray.config import config_override
    from hydra_ray.stages.ogc import analyse_ogc

    def probe(t: pa.Table) -> pa.Table:
        doc_ids = t["doc_id"].to_numpy(zero_copy_only=False)
        rows_id, rows_meta = [], []
        with config_override(OGC_ANALYSIS_ENABLED=True):
            for d in doc_ids:
                d = int(d)
                if d % 10 != 0:
                    continue
                url = f"https://geo{d % 7}.data.example/geoserver/wfs?service=wfs&typeName=ns:layer_{d % 13}"
                meta = analyse_ogc({"url": url, "format": "wfs"})
                rows_id.append(d)
                rows_meta.append(_json.dumps(meta, sort_keys=True))
        return pa.table(
            {
                "doc_id": pa.array(rows_id, type=pa.int64()),
                "ogc_metadata": pa.array(rows_meta, type=pa.string()),
            }
        )

    return _docs(sf_dir, columns=["doc_id"]).map_batches(probe, batch_format="pyarrow")


QUERIES["geojson_features"] = q_geojson_features
QUERIES["ogc_capabilities"] = q_ogc_capabilities


def q_url_key_parity(sf_dir: str):
    """Hash-derivation parity: the 60-bit url key (md5-prefix integer)
    computed by the canonicalize stage matches SQL exactly — the shard
    routing / cuckoo keying contract."""
    ds = _catalog_ds(sf_dir)

    def key60(t: pa.Table) -> pa.Table:
        md5s = t["url_md5"].to_pylist()
        keys = [int(h[:15], 16) for h in md5s]
        return pa.table(
            {
                "resource_id": t["resource_id"],
                "url_key60": pa.array(keys, type=pa.int64()),
            }
        )

    return ds.map_batches(key60, batch_format="pyarrow")


ORACLE_URL_KEY_PARITY = f"""
    SELECT resource_id,
           CAST(('0x' || substring(md5(url), 1, 15)) AS BIGINT) AS url_key60
    FROM ({CATALOG_SQL})
"""


def q_top_spenders(sf_dir: str):
    """Join + grouped sum + global top-k (A/O composite)."""
    import pyarrow.parquet as pq

    from hydra_ray.stages.agg import grouped_agg

    cust = pq.read_table(f"{sf_dir}/customer.parquet", columns=["c_custkey", "c_name"])
    lookup_ref = ray.put((pc.cast(cust["c_custkey"], pa.int64()).combine_chunks(), cust["c_name"].combine_chunks()))

    ds = rd.read_parquet(f"{sf_dir}/orders.parquet", columns=["o_custkey", "o_totalprice"])
    per_cust = grouped_agg(ds, keys=["o_custkey"], aggs=[("o_totalprice", "sum", "total_spent")])

    def topk(t: pa.Table) -> pa.Table:
        keys, cnames = ray.get(lookup_ref)
        idx = pc.index_in(pc.cast(t["o_custkey"], pa.int64()), value_set=keys)
        t = t.append_column("c_name", pc.take(cnames, idx))
        t = t.set_column(
            t.column_names.index("total_spent"), "total_spent", pc.round(t["total_spent"], 2)
        )
        import numpy as np_

        spent = t["total_spent"].to_numpy(zero_copy_only=False)
        keys = t["o_custkey"].to_numpy(zero_copy_only=False)
        order = np_.lexsort((keys, -spent))[:10]
        return t.take(pa.array(np_.sort(order))).select(["o_custkey", "c_name", "total_spent"])

    # per_cust is small (one row per customer) — single-partition topk
    return per_cust.repartition(1).map_batches(topk, batch_format="pyarrow")


ORACLE_TOP_SPENDERS = """
    SELECT o_custkey, c_name, round(sum(o_totalprice), 2) AS total_spent
    FROM orders JOIN customer ON o_custkey = c_custkey
    GROUP BY o_custkey, c_name
    ORDER BY total_spent DESC, o_custkey
    LIMIT 10
"""


def q_part_type_stats(sf_dir: str):
    from hydra_ray.stages.agg import grouped_agg

    ds = rd.read_parquet(f"{sf_dir}/part.parquet", columns=["p_type", "p_retailprice", "p_size"])
    out = grouped_agg(
        ds,
        keys=["p_type"],
        aggs=[
            ("p_retailprice", "sum", "sum_price"),
            ("p_size", "max", "max_size"),
            ("p_retailprice", "count", "n_parts"),
        ],
    )
    return out.map_batches(
        lambda t: t.set_column(t.column_names.index("sum_price"), "sum_price", pc.round(t["sum_price"], 2)),
        batch_format="pyarrow",
    )


ORACLE_PART_TYPE_STATS = """
    SELECT p_type, round(sum(p_retailprice), 2) AS sum_price,
           max(p_size) AS max_size, count(*) AS n_parts
    FROM part GROUP BY p_type
"""


def q_doc_length_histogram(sf_dir: str):
    """Bucketized length distribution (histogram shape over documents)."""
    from hydra_ray.stages.agg import grouped_agg

    ds = _docs(sf_dir, columns=["doc_id", "text"])

    def bucketize(t: pa.Table) -> pa.Table:
        n = pc.utf8_length(t["text"])
        bucket = pc.cast(pc.floor(pc.divide(pc.cast(n, pa.float64()), 200.0)), pa.int64())
        return pa.table({"bucket": bucket, "doc_id": t["doc_id"]})

    return grouped_agg(
        ds.map_batches(bucketize, batch_format="pyarrow"),
        keys=["bucket"],
        aggs=[("doc_id", "count", "n_docs")],
    )


ORACLE_DOC_LENGTH_HISTOGRAM = """
    SELECT CAST(floor(length(text) / 200.0) AS BIGINT) AS bucket, count(*) AS n_docs
    FROM documents GROUP BY 1
"""


def q_supplier_balances(sf_dir: str):
    """Small-side joins chained: supplier ⋈ nation ⋈ region → balances."""
    import pyarrow.parquet as pq

    nation = pq.read_table(f"{sf_dir}/nation.parquet")
    region = pq.read_table(f"{sf_dir}/region.parquet")
    n2r = dict(zip(nation["n_nationkey"].to_pylist(), nation["n_regionkey"].to_pylist()))
    r2name = dict(zip(region["r_regionkey"].to_pylist(), region["r_name"].to_pylist()))
    nkeys = sorted(n2r)
    lookup_ref = ray.put(
        (
            pa.array(nkeys, type=pa.int64()),
            pa.array([r2name[n2r[k]] for k in nkeys], type=pa.string()),
        )
    )

    ds = rd.read_parquet(f"{sf_dir}/supplier.parquet", columns=["s_nationkey", "s_acctbal"])

    def to_region(t: pa.Table) -> pa.Table:
        keys, names = ray.get(lookup_ref)
        idx = pc.index_in(pc.cast(t["s_nationkey"], pa.int64()), value_set=keys)
        return pa.table({"r_name": pc.take(names, idx), "s_acctbal": t["s_acctbal"]})

    from hydra_ray.stages.agg import grouped_agg

    out = grouped_agg(
        ds.map_batches(to_region, batch_format="pyarrow"),
        keys=["r_name"],
        aggs=[("s_acctbal", "sum", "total_balance"), ("s_acctbal", "count", "n_suppliers")],
    )
    return out.map_batches(
        lambda t: t.set_column(
            t.column_names.index("total_balance"), "total_balance", pc.round(t["total_balance"], 2)
        ),
        batch_format="pyarrow",
    )


ORACLE_SUPPLIER_BALANCES = """
    SELECT r_name, round(sum(s_acctbal), 2) AS total_balance, count(*) AS n_suppliers
    FROM supplier
    JOIN nation ON s_nationkey = n_nationkey
    JOIN region ON n_regionkey = r_regionkey
    GROUP BY r_name
"""


QUERIES["url_key_parity"] = q_url_key_parity
ORACLES["url_key_parity"] = ORACLE_URL_KEY_PARITY
QUERIES["top_spenders"] = q_top_spenders
ORACLES["top_spenders"] = ORACLE_TOP_SPENDERS
QUERIES["part_type_stats"] = q_part_type_stats
ORACLES["part_type_stats"] = ORACLE_PART_TYPE_STATS
QUERIES["doc_length_histogram"] = q_doc_length_histogram
ORACLES["doc_length_histogram"] = ORACLE_DOC_LENGTH_HISTOGRAM
QUERIES["supplier_balances"] = q_supplier_balances
ORACLES["supplier_balances"] = ORACLE_SUPPLIER_BALANCES


def q_dup_clusters(sf_dir: str):
    """Near-duplicate clusters: pair graph → connected components
    (cluster_id = min doc_id per component). Pairs come from the
    blocked n-gram-Jaccard op so the whole chain is oracle-checkable
    (the reference operator is the clustering, not the pair source;
    MinHash-sourced clusters are exercised by minhash_near_dups +
    tests)."""
    from hydra_ray.stages.dedup import duplicate_clusters, ngram_jaccard_pairs

    pairs = ngram_jaccard_pairs(
        _docs(sf_dir, columns=["doc_id", "text", "source"]), threshold=0.35
    ).to_pandas()
    return pa.Table.from_pandas(duplicate_clusters(pairs), preserve_index=False)


QUERIES["dup_clusters"] = q_dup_clusters


# ---------------------------------------------------------------------------
# round-2 oracles for previously rows-only queries
# ---------------------------------------------------------------------------

# n-gram sets per doc: whitespace-normalized text, char-3-grams
# (single-gram {t} when len(t) < 3, empty set for empty t)
_NGRAM_SETS_SQL = r"""
    norm AS (
        SELECT doc_id, source, regexp_replace(trim(text), '\s+', ' ', 'g') AS t
        FROM documents
    ),
    g1 AS (
        SELECT doc_id, source,
               CASE WHEN length(t) < 3 THEN t ELSE substring(t, i, 3) END AS g
        FROM (
            SELECT doc_id, source, t,
                   unnest(generate_series(1, greatest(length(t) - 2, 1))) AS i
            FROM norm WHERE t <> ''
        )
    ),
    gsets AS (
        SELECT n.doc_id, n.source,
               COALESCE(x.cnt, 0) AS n_grams, x.gs
        FROM norm n
        LEFT JOIN (
            SELECT doc_id, count(DISTINCT g) AS cnt, list(DISTINCT g) AS gs
            FROM g1 GROUP BY doc_id
        ) x USING (doc_id)
    ),
    ngram_pairs AS (
        SELECT a.doc_id AS doc_a, b.doc_id AS doc_b,
               COALESCE(len(list_intersect(a.gs, b.gs)), 0) AS inter,
               a.n_grams + b.n_grams AS tot
        FROM gsets a JOIN gsets b
          ON a.source = b.source AND a.doc_id < b.doc_id
    ),
    ngram_jac AS (
        SELECT doc_a, doc_b,
               CASE WHEN tot - inter = 0 THEN 1.0
                    ELSE inter * 1.0 / (tot - inter) END AS jac
        FROM ngram_pairs
    )
"""

ORACLE_NGRAM_JACCARD = f"""
    WITH {_NGRAM_SETS_SQL}
    SELECT doc_a, doc_b, round(jac, 6) AS jaccard
    FROM ngram_jac WHERE jac >= 0.35
"""

ORACLES["ngram_jaccard"] = ORACLE_NGRAM_JACCARD

ORACLE_DUP_CLUSTERS = f"""
    WITH RECURSIVE {_NGRAM_SETS_SQL},
    kept AS (SELECT doc_a, doc_b FROM ngram_jac WHERE jac >= 0.35),
    edges AS (
        SELECT doc_a AS u, doc_b AS v FROM kept
        UNION ALL
        SELECT doc_b AS u, doc_a AS v FROM kept
    ),
    nodes AS (SELECT DISTINCT u AS node FROM edges),
    comp(node, label) AS (
        SELECT node, node FROM nodes
        UNION
        SELECT e.v, c.label FROM comp c JOIN edges e ON e.u = c.node
    )
    SELECT node AS doc_id, min(label) AS cluster_id FROM comp GROUP BY node
"""

ORACLES["dup_clusters"] = ORACLE_DUP_CLUSTERS


def _langid_values_sql() -> str:
    from hydra_ray.stages.text import STOPWORDS

    rows = []
    for lang in sorted(STOPWORDS):
        for w in sorted(STOPWORDS[lang]):
            rows.append(f"('{lang}', '{w}')")
    return ", ".join(rows)


# tie-break parity with stages/text.py LangId: langs scanned in sorted
# order, a later lang needs a STRICTLY greater score → order by
# (score DESC, lang ASC); zero hits → 'und'
ORACLE_LANGID = rf"""
    WITH tok AS (
        SELECT doc_id, lower(unnest(regexp_split_to_array(trim(text), '\s+'))) AS w
        FROM documents
    ),
    sw(lang, w) AS (VALUES {_langid_values_sql()}),
    scores AS (
        SELECT t.doc_id, s.lang, count(*) AS score
        FROM tok t JOIN sw s ON t.w = s.w GROUP BY 1, 2
    ),
    best AS (
        SELECT doc_id, lang,
               row_number() OVER (PARTITION BY doc_id ORDER BY score DESC, lang ASC) AS rn
        FROM scores
    )
    SELECT d.doc_id, COALESCE(b.lang, 'und') AS lang_pred
    FROM documents d LEFT JOIN (SELECT doc_id, lang FROM best WHERE rn = 1) b USING (doc_id)
"""

ORACLES["langid"] = ORACLE_LANGID

# geojson feature string parity: DuckDB's DOUBLE→VARCHAR cast is
# shortest-round-trip, identical to Python repr, so the exact
# json.dumps(..., sort_keys=True) bytes are reproducible by concat
ORACLE_GEOJSON_FEATURES = """
    WITH coords AS (
        SELECT event_id, user_id,
               round(value % 180.0 - 90.0, 4) AS lat,
               round((value * 2.0) % 360.0 - 180.0, 4) AS lon
        FROM events
    )
    SELECT '{"geometry": {"coordinates": [' || CAST(lon AS VARCHAR) || ', '
           || CAST(lat AS VARCHAR) || '], "type": "Point"}, "properties": {"event_id": '
           || CAST(event_id AS VARCHAR) || ', "user_id": ' || CAST(user_id AS VARCHAR)
           || '}, "type": "Feature"}' AS feature
    FROM coords
"""

ORACLES["geojson_features"] = ORACLE_GEOJSON_FEATURES


def q_xlsx_inspect(sf_dir: str):
    """S4 (Excel ingestion): per batch, a deterministic workbook is
    built from the doc ids, round-tripped through the stdlib XLSX
    reader (sources/xlsx.py) and the shared csv-detective typing +
    smart_cast pipeline; the oracle computes the same typed values
    directly — verifying shared-string/bool/number decoding and the
    int/float/bool/date casts at value level."""
    from datetime import date as _date

    from hydra_ray.sources.xlsx import write_xlsx, xlsx_to_table

    ds = _docs(sf_dir, columns=["doc_id"])

    def batch_fn(t: pa.Table) -> pa.Table:
        ids = t["doc_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        rows: list[list] = [["id", "name", "score", "flag", "day"]]
        for d in ids:
            d = int(d)
            rows.append(
                [d, f"res-{d}", d * 0.5, d % 2 == 0, _date(2024, 1, 1 + d % 28).isoformat()]
            )
        tbl = xlsx_to_table(write_xlsx(rows))
        assert tbl["id"].type == pa.int64() and tbl["score"].type == pa.float64()
        assert tbl["flag"].type == pa.bool_() and tbl["day"].type == pa.date32()
        return tbl.set_column(
            tbl.column_names.index("day"), "day", pc.cast(tbl["day"], pa.string())
        )

    return ds.map_batches(batch_fn, batch_format="pyarrow")


ORACLE_XLSX_INSPECT = """
    SELECT doc_id AS id, 'res-' || CAST(doc_id AS VARCHAR) AS name,
           doc_id * 0.5 AS score, doc_id % 2 = 0 AS flag,
           strftime(DATE '2024-01-01' + CAST(doc_id % 28 AS INT), '%Y-%m-%d') AS day
    FROM documents
"""

QUERIES["xlsx_inspect"] = q_xlsx_inspect
ORACLES["xlsx_inspect"] = ORACLE_XLSX_INSPECT


def q_xls_inspect(sf_dir: str):
    """S4 (legacy Excel ingestion): same deterministic workbook as
    xlsx_inspect, but round-tripped through the stdlib BIFF8 writer +
    reader (sources/xls.py — CFB container, SST/LABELSST/RK/NUMBER/
    BOOLERR records) and the shared typing + smart_cast pipeline; the
    oracle computes the same typed values directly — verifying CFB
    stream chains, RK/NUMBER decoding and bool/date casts at value
    level."""
    from datetime import date as _date

    from hydra_ray.sources.xls import write_xls, xls_to_table

    ds = _docs(sf_dir, columns=["doc_id"])

    def batch_fn(t: pa.Table) -> pa.Table:
        ids = t["doc_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        rows: list[list] = [["id", "name", "score", "flag", "day"]]
        for d in ids:
            d = int(d)
            rows.append(
                [d, f"res-{d}", d * 0.5, d % 2 == 0, _date(2024, 1, 1 + d % 28).isoformat()]
            )
        tbl = xls_to_table(write_xls(rows))
        assert tbl["id"].type == pa.int64() and tbl["score"].type == pa.float64()
        assert tbl["flag"].type == pa.bool_() and tbl["day"].type == pa.date32()
        return tbl.set_column(
            tbl.column_names.index("day"), "day", pc.cast(tbl["day"], pa.string())
        )

    return ds.map_batches(batch_fn, batch_format="pyarrow")


QUERIES["xls_inspect"] = q_xls_inspect
ORACLES["xls_inspect"] = ORACLE_XLSX_INSPECT  # same logical table as xlsx_inspect


def q_ods_inspect(sf_dir: str):
    """S4 (OpenDocument ingestion — reference config_default.toml:63
    declares .ods a first-class size-capped format): same deterministic
    workbook as xlsx_inspect, round-tripped through the stdlib ODF
    reader (sources/ods.py — content.xml typed cells, column/row
    repeats) and the shared typing + smart_cast pipeline; the oracle
    computes the same typed values directly."""
    from datetime import date as _date

    from hydra_ray.sources.ods import ods_to_table, write_ods

    ds = _docs(sf_dir, columns=["doc_id"])

    def batch_fn(t: pa.Table) -> pa.Table:
        ids = t["doc_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        rows: list[list] = [["id", "name", "score", "flag", "day"]]
        for d in ids:
            d = int(d)
            rows.append(
                [d, f"res-{d}", d * 0.5, d % 2 == 0, _date(2024, 1, 1 + d % 28).isoformat()]
            )
        tbl = ods_to_table(write_ods(rows))
        assert tbl["id"].type == pa.int64() and tbl["score"].type == pa.float64()
        assert tbl["flag"].type == pa.bool_() and tbl["day"].type == pa.date32()
        return tbl.set_column(
            tbl.column_names.index("day"), "day", pc.cast(tbl["day"], pa.string())
        )

    return ds.map_batches(batch_fn, batch_format="pyarrow")


QUERIES["ods_inspect"] = q_ods_inspect
ORACLES["ods_inspect"] = ORACLE_XLSX_INSPECT  # same logical table as xlsx_inspect


def q_csv_profile(sf_dir: str):
    """csv-detective profile parity (reference csv_like/__init__.py:35-58
    output_profile=True): deterministic per-group CSV texts built from
    the events table are profiled through the full inspection pipeline
    (separator+type detection, failsafe casts, numeric min/max/mean/std,
    distinct/missing counts); the oracle recomputes each statistic in
    SQL over the same grouping."""
    from hydra_ray.stages.inspection import inspect_csv_text
    from hydra_ray.stages.keyed import keyed_map_partitions

    ds = rd.read_parquet(f"{sf_dir}/events.parquet", columns=["event_id", "user_id", "value"])

    def addgrp(t: pa.Table) -> pa.Table:
        uid = t["user_id"].to_numpy(zero_copy_only=False)
        return t.append_column("grp", pa.array((uid % 16).astype("int64")))

    def profile_group(df: pd.DataFrame) -> pd.DataFrame:
        out = []
        for grp, g in df.groupby("grp", sort=True):
            g = g.sort_values("event_id")
            lines = ["event_id,value,mixed"] + [
                f"{int(e)},{v!r},{_mixed_cell(int(e), float(v))}"
                for e, v in zip(g["event_id"], g["value"])
            ]
            rep = inspect_csv_text("\n".join(lines), output_profile=True)
            out.extend(_profile_rows(int(grp), rep))
        return pd.DataFrame(out, columns=_PROFILE_COLS)

    return keyed_map_partitions(
        ds.map_batches(addgrp, batch_format="pyarrow"), ["grp"], profile_group, num_parts=8
    )


def _mixed_cell(e: int, v: float) -> str:
    """Deterministic mixed-type cell: int literal on every third
    event_id, float repr otherwise — the csv-detective `score` (dominant
    type fraction over the 100-row detection sample) becomes a
    non-trivial, SQL-checkable value."""
    return str(e % 50) if e % 3 == 0 else repr(v)


_PROFILE_COLS = [
    "grp", "col_name", "col_min", "col_max", "col_mean", "col_std",
    "nb_distinct", "nb_missing", "score",
]


def _profile_rows(grp: int, rep: dict) -> list[tuple]:
    """Shared CSV/workbook profile row extraction — stats from the
    full-body profile, type `score` from the detection sample (both
    routes go through the same inspection report shape)."""
    rows = []
    for col in ("event_id", "value", "mixed"):
        p = rep["profile"][col]
        rows.append(
            (
                grp,
                col,
                float(p["min"]),
                float(p["max"]),
                float(p["mean"]),
                float(p["std"]),
                int(p["nb_distinct"]),
                int(p["nb_missing_values"]),
                float(rep["columns"][col]["score"]),
            )
        )
    return rows


ORACLE_CSV_PROFILE = """
    WITH g AS (SELECT user_id % 16 AS grp, event_id, value,
                      CASE WHEN event_id % 3 = 0
                           THEN CAST(event_id % 50 AS DOUBLE) ELSE value END AS mixed
               FROM events),
    sample AS (
        SELECT grp, event_id,
               row_number() OVER (PARTITION BY grp ORDER BY event_id) AS rn
        FROM g
    ),
    sc AS (
        SELECT grp,
               round(CAST(greatest(
                   sum(CASE WHEN event_id % 3 = 0 THEN 1 ELSE 0 END),
                   sum(CASE WHEN event_id % 3 = 0 THEN 0 ELSE 1 END)) AS DOUBLE)
                   / count(*), 3) AS mixed_score
        FROM sample WHERE rn <= 100 GROUP BY grp
    )
    SELECT grp, 'event_id' AS col_name,
           CAST(min(event_id) AS DOUBLE) AS col_min, CAST(max(event_id) AS DOUBLE) AS col_max,
           round(avg(event_id), 6) AS col_mean, round(stddev_pop(event_id), 6) AS col_std,
           count(DISTINCT event_id) AS nb_distinct, CAST(0 AS BIGINT) AS nb_missing,
           1.0 AS score
    FROM g GROUP BY grp
    UNION ALL
    SELECT grp, 'value', min(value), max(value), round(avg(value), 6),
           round(stddev_pop(value), 6), count(DISTINCT value), 0, 1.0
    FROM g GROUP BY grp
    UNION ALL
    SELECT g.grp, 'mixed', min(mixed), max(mixed), round(avg(mixed), 6),
           round(stddev_pop(mixed), 6), count(DISTINCT mixed), 0,
           any_value(s.mixed_score)
    FROM g JOIN sc s ON s.grp = g.grp GROUP BY g.grp
"""

QUERIES["csv_profile"] = q_csv_profile
ORACLES["csv_profile"] = ORACLE_CSV_PROFILE


def _le64_sql(hex16_expr: str) -> str:
    """SQL: little-endian uint64 from the first 16 hex chars of an
    expression (mirrors np.frombuffer(bytes[:8], '<u8'))."""
    h = hex16_expr
    return (
        f"CAST(('0x' || substr({h},15,2) || substr({h},13,2) || substr({h},11,2) || "
        f"substr({h},9,2) || substr({h},7,2) || substr({h},5,2) || substr({h},3,2) || "
        f"substr({h},1,2)) AS UBIGINT)"
    )


def _mulwrap_sql(col: str, c: int) -> str:
    """SQL: (col * c) mod 2^64 — 32-bit limb split in HUGEINT so the
    uint64 wraparound of splitmix64 is exact."""
    return (
        f"CAST((((CAST({col} AS HUGEINT) % 4294967296) * {c} + "
        f"(((CAST({col} AS HUGEINT) // 4294967296) * {c}) % 4294967296) * 4294967296) "
        f"% 18446744073709551616) AS UBIGINT)"
    )


_M61_SQL = (1 << 61) - 1

# SimHash parity: per-word md5 → little-endian uint64 → ±1 bit votes
# with multiplicity → bit set where votes > 0; empty-token filter
# mirrors str.split() semantics; uint64 → int64 two's complement.
ORACLE_SIMHASH = rf"""
    WITH words AS (
        SELECT doc_id, unnest(regexp_split_to_array(trim(text), '\s+')) AS w FROM documents
    ),
    wh AS (
        SELECT doc_id, {_le64_sql('md5(w)')} AS hv FROM words WHERE w <> ''
    ),
    bits AS (
        SELECT doc_id, b, CASE WHEN (hv >> b) & 1 = 1 THEN 1 ELSE -1 END AS vote
        FROM (SELECT doc_id, hv, unnest(generate_series(0, 63)) AS b FROM wh)
    ),
    votes AS (SELECT doc_id, b, sum(vote) AS v FROM bits GROUP BY 1, 2),
    sh AS (
        SELECT doc_id,
               sum(CASE WHEN v > 0 THEN CAST(CAST(1 AS UBIGINT) << CAST(b AS INT) AS HUGEINT)
                   ELSE 0 END) AS u
        FROM votes GROUP BY 1
    )
    SELECT d.doc_id,
           CAST(CASE WHEN COALESCE(s.u, 0) >= 9223372036854775808
                     THEN COALESCE(s.u, 0) - 18446744073709551616
                     ELSE COALESCE(s.u, 0) END AS BIGINT) AS simhash
    FROM documents d LEFT JOIN sh s USING (doc_id)
"""

ORACLES["simhash"] = ORACLE_SIMHASH

# Fingerprint parity: splitmix64 of the zero-padded first 8 utf-8
# bytes per token (exact uint64 wraparound via _mulwrap_sql), rolling
# polynomial sum(h_i * base^(n-1-i)) mod 2^61-1 with a recursive
# base-power table.
ORACLE_FINGERPRINT = rf"""
    WITH RECURSIVE toks AS (
        SELECT doc_id, regexp_split_to_array(trim(text), '\s+') AS arr FROM documents
    ),
    maxn AS (SELECT max(len(arr)) AS m FROM toks),
    pows(k, p) AS (
        SELECT 0, CAST(1 AS HUGEINT)
        UNION ALL
        SELECT k + 1, (p * 1000003) % {_M61_SQL} FROM pows WHERE k + 1 < (SELECT m FROM maxn)
    ),
    tok AS (
        SELECT doc_id, n, i, arr[i] AS w
        FROM (SELECT doc_id, len(arr) AS n, unnest(generate_series(1, len(arr))) AS i, arr
              FROM toks)
    ),
    t0 AS (
        SELECT doc_id, n, i, {_le64_sql("substr(rpad(hex(w), 16, '0'), 1, 16)")} AS x FROM tok
    ),
    t1 AS (SELECT doc_id, n, i, xor(x, x >> 30) AS a FROM t0),
    t2 AS (SELECT doc_id, n, i, {_mulwrap_sql('a', 0xBF58476D1CE4E5B9)} AS b FROM t1),
    t3 AS (SELECT doc_id, n, i, xor(b, b >> 27) AS c FROM t2),
    t4 AS (SELECT doc_id, n, i, {_mulwrap_sql('c', 0x94D049BB133111EB)} AS d FROM t3),
    t5 AS (SELECT doc_id, n, i, xor(d, d >> 31) AS h64 FROM t4),
    terms AS (
        SELECT t.doc_id, ((CAST(t.h64 AS HUGEINT) % {_M61_SQL}) * p.p) % {_M61_SQL} AS term
        FROM t5 t JOIN pows p ON p.k = t.n - t.i
    )
    SELECT doc_id, CAST(sum(term) % {_M61_SQL} AS BIGINT) AS fingerprint
    FROM terms GROUP BY doc_id
"""

ORACLES["fingerprint"] = ORACLE_FINGERPRINT

# media plumbing parity: synthetic payload size is md5-derived from the
# media_ref (multimodal.py synthetic_media_bytes); the span derivation
# mirrors ORACLE_SPAN_EXPLODE's media branch
ORACLE_MEDIA_FEATURES = f"""
    WITH base AS (
        SELECT CAST(doc_id AS VARCHAR) AS doc_id,
               CAST(greatest(1, ceil(length(text)/{CHUNK}.0)) AS BIGINT) AS nchunks
        FROM documents
    ), chunks AS (
        SELECT doc_id, unnest(generate_series(0, nchunks - 1)) AS i FROM base
    ), media AS (
        SELECT 'media://' || doc_id || '/' || CAST(i AS VARCHAR) AS media_ref
        FROM chunks WHERE i % 3 = 2
    )
    SELECT media_ref,
           CAST(256 + CAST(('0x' || substr(md5(media_ref), 1, 2)) AS INT) * 13 AS BIGINT) AS n_bytes
    FROM media
"""

ORACLES["media_features"] = ORACLE_MEDIA_FEATURES

# OGC probing parity: every capability field of the deterministic
# synthetic GetCapabilities document (stages/ogc.py) is md5-derived,
# so the sorted-key JSON is reproducible with string concat
ORACLE_OGC_CAPABILITIES = """
    WITH probes AS (
      SELECT doc_id,
             'https://geo' || CAST(doc_id % 7 AS VARCHAR)
             || '.data.example/geoserver/wfs?service=wfs&typeName=ns:layer_'
             || CAST(doc_id % 13 AS VARCHAR) AS url
      FROM documents WHERE doc_id % 10 = 0
    ), dg AS (
      SELECT doc_id, md5('wfs:' || url) AS h, CAST(doc_id % 13 AS VARCHAR) AS lyr FROM probes
    ), f AS (
      SELECT doc_id, lyr,
        1 + (CAST(('0x'||substr(h,1,2)) AS INT) % 5) AS n_layers,
        CAST(CAST(('0x'||substr(h,3,2)) AS INT) % 97 AS VARCHAR) AS lbase,
        CAST(('0x'||substr(h,5,2)) AS INT) % 3 AS vidx,
        1 + (CAST(('0x'||substr(h,7,2)) AS INT) % 2) AS n_crs,
        1 + (CAST(('0x'||substr(h,9,2)) AS INT) % 2) AS n_fmt,
        CAST(('0x'||substr(h,11,2)) AS INT) % 2 AS served
      FROM dg
    )
    SELECT doc_id,
      '{"crs": ["EPSG:4326"' || CASE WHEN n_crs = 2 THEN ', "EPSG:3857"' ELSE '' END || '], ' ||
      '"detected_layer": ' ||
        CASE WHEN served = 0 THEN '"ns:layer_' || lyr || '"' ELSE 'null' END || ', ' ||
      '"layers": ["ns:layer_' || lbase || '_0"' ||
         CASE WHEN n_layers >= 2 THEN ', "ns:layer_' || lbase || '_1"' ELSE '' END ||
         CASE WHEN n_layers >= 3 THEN ', "ns:layer_' || lbase || '_2"' ELSE '' END ||
         CASE WHEN n_layers >= 4 THEN ', "ns:layer_' || lbase || '_3"' ELSE '' END ||
         CASE WHEN n_layers >= 5 THEN ', "ns:layer_' || lbase || '_4"' ELSE '' END ||
         CASE WHEN served = 0 THEN ', "ns:layer_' || lyr || '"' ELSE '' END ||
      '], "output_formats": ["application/json"' || CASE WHEN n_fmt = 2 THEN ', "GML2"' ELSE '' END || '], ' ||
      '"service_type": "wfs", "version": "' ||
      CASE vidx WHEN 0 THEN '2.0.0' WHEN 1 THEN '1.1.0' ELSE '1.0.0' END || '"}' AS ogc_metadata
    FROM f
"""

ORACLES["ogc_capabilities"] = ORACLE_OGC_CAPABILITIES


def _knn_lsh_oracle_sql(n_planes: int = 6, dim: int = 64) -> str:
    """LSH bucket assignment with the hyperplane matrix inlined as
    double literals (repr round-trips exactly into DuckDB), exact
    cosine re-rank within buckets in DOUBLE precision; sim column is
    dropped on both sides (rank ordering is the verified signal)."""
    from hydra_ray.stages.similarity import hyperplanes

    planes = hyperplanes(dim, n_planes)

    def lit(row):
        return "[" + ", ".join(repr(float(x)) for x in row) + "]::DOUBLE[]"

    bucket_expr = " + ".join(
        f"(CASE WHEN list_inner_product(CAST(embedding AS DOUBLE[]), {lit(planes[b])}) > 0"
        f" THEN {1 << b} ELSE 0 END)"
        for b in range(n_planes)
    )
    return f"""
        WITH be AS (SELECT vec_id, embedding, {bucket_expr} AS bucket FROM embeddings)
        SELECT a.vec_id AS vec_id, b.vec_id AS nn_id
        FROM be a JOIN be b ON a.bucket = b.bucket AND a.vec_id != b.vec_id
        QUALIFY row_number() OVER (PARTITION BY a.vec_id
            ORDER BY list_cosine_similarity(CAST(a.embedding AS DOUBLE[]),
                                            CAST(b.embedding AS DOUBLE[])) DESC, b.vec_id) = 1
    """


ORACLES["knn_lsh"] = _knn_lsh_oracle_sql()


def q_cosine_near_dups(sf_dir: str):
    """Embedding-cosine near-duplicate pairs via multi-table LSH
    (stages/similarity.py::cosine_near_dups). Threshold 0.40 — the
    synthetic embeddings are i.i.d. uniform, so no pair reaches a
    real-corpus near-dup bar like 0.9 (max sim ≈ 0.51); recall at the
    0.9 bar with planted duplicates is asserted in
    tests/test_analysis/test_similarity.py."""
    from hydra_ray.stages.similarity import cosine_near_dups

    return cosine_near_dups(
        rd.read_parquet(f"{sf_dir}/embeddings.parquet", columns=["vec_id", "embedding"]),
        threshold=0.40,
        n_tables=4,
        n_planes=4,
    )


def _cosine_near_dups_oracle_sql(
    threshold: float = 0.40, n_tables: int = 4, n_planes: int = 4, dim: int = 64
) -> str:
    """The full multi-table LSH pipeline in SQL: per-table bucket
    assignment with the hyperplane matrices inlined as double literals,
    same-bucket candidate pairs (any table), double-precision cosine
    filter — byte-identical to the Ray path."""
    from hydra_ray.stages.similarity import hyperplanes

    def lit(row):
        return "[" + ", ".join(repr(float(x)) for x in row) + "]::DOUBLE[]"

    bucket_cols = []
    for t in range(n_tables):
        planes = hyperplanes(dim, n_planes, seed=5 + 7 * t)
        expr = " + ".join(
            f"(CASE WHEN list_inner_product(CAST(embedding AS DOUBLE[]), {lit(planes[b])}) > 0"
            f" THEN {1 << b} ELSE 0 END)"
            for b in range(n_planes)
        )
        bucket_cols.append(f"{expr} AS b{t}")
    same_bucket = " OR ".join(f"a.b{t} = b.b{t}" for t in range(n_tables))
    return f"""
        WITH be AS (SELECT vec_id, embedding, {", ".join(bucket_cols)} FROM embeddings)
        SELECT a.vec_id AS vec_a, b.vec_id AS vec_b
        FROM be a JOIN be b ON a.vec_id < b.vec_id AND ({same_bucket})
        WHERE list_cosine_similarity(CAST(a.embedding AS DOUBLE[]),
                                     CAST(b.embedding AS DOUBLE[])) >= {threshold!r}
    """


QUERIES["cosine_near_dups"] = q_cosine_near_dups
ORACLES["cosine_near_dups"] = _cosine_near_dups_oracle_sql()


def _mix64_ctes_sql(prefix: str, src: str, carry: str) -> str:
    """5 chained CTEs computing v = splitmix64(src) with pass-through
    columns ``carry`` — column-wise so no expression blowup."""
    c1, c2 = 0xBF58476D1CE4E5B9, 0x94D049BB133111EB
    return ",\n".join(
        [
            f"{prefix}_1 AS (SELECT {carry}, xor({src}, {src} >> 30) AS v FROM {prefix}_0)",
            f"{prefix}_2 AS (SELECT {carry}, {_mulwrap_sql('v', c1)} AS v FROM {prefix}_1)",
            f"{prefix}_3 AS (SELECT {carry}, xor(v, v >> 27) AS v FROM {prefix}_2)",
            f"{prefix}_4 AS (SELECT {carry}, {_mulwrap_sql('v', c2)} AS v FROM {prefix}_3)",
            f"{prefix}_5 AS (SELECT {carry}, xor(v, v >> 31) AS v FROM {prefix}_4)",
        ]
    )


def _mulwrap2_sql(x: str, y: str) -> str:
    """SQL: (x * y) mod 2^64 for two COLUMNS (numpy uint64 semantics)."""
    return (
        f"CAST((((CAST({x} AS HUGEINT) % 4294967296) * CAST({y} AS HUGEINT) + "
        f"(((CAST({x} AS HUGEINT) // 4294967296) * CAST({y} AS HUGEINT)) % 4294967296) * 4294967296) "
        f"% 18446744073709551616) AS UBIGINT)"
    )


def _minhash_oracle_sql(
    threshold: float = 0.5, src: str = "documents", pair_cond: str = ""
) -> str:
    """The ENTIRE MinHash-LSH near-dup pipeline in SQL: md5 token
    hashes (little-endian), splitmix64 3-shingles, 64 permutations with
    exact uint64 wraparound ((h*a + b) mod 2^64 mod 2^61-1 — numpy
    semantics, not exact-integer), min-signatures, 16×4 banding with the
    nested-mix64 band hash, bucket-collision candidate pairs, and true
    shingle-set Jaccard verification. Permutation params are inlined
    from the shared _perm_params so both sides stay in sync.
    Assumes every document has >= 3 tokens (holds for the test tables;
    asserted by the <3-token Python fallback never firing there)."""
    from hydra_ray.stages.dedup import _perm_params

    a, b = _perm_params()
    perm_vals = ", ".join(f"({k}, {int(a[k])}, {int(b[k])})" for k in range(64))
    m61 = _M61_SQL
    return f"""
WITH toks AS (
    SELECT doc_id, regexp_split_to_array(trim(text), '\\s+') AS arr FROM {src}
),
tok AS (
    SELECT doc_id, i, arr[i] AS w
    FROM (SELECT doc_id, unnest(generate_series(1, len(arr))) AS i, arr FROM toks)
),
th AS (
    SELECT doc_id, i, {_le64_sql('md5(w)')} AS h FROM tok
),
sm_0 AS (
    SELECT t0.doc_id, t0.i, t0.h AS h0, t1.h AS h1, t2.h AS h2
    FROM th t0
    JOIN th t1 ON t1.doc_id = t0.doc_id AND t1.i = t0.i + 1
    JOIN th t2 ON t2.doc_id = t0.doc_id AND t2.i = t0.i + 2
),
{_mix64_ctes_sql('sm', 'h2', 'doc_id, i, h0, h1')},
sn_0 AS (SELECT doc_id, i, h0, xor(v, h1) AS y FROM sm_5),
{_mix64_ctes_sql('sn', 'y', 'doc_id, i, h0')},
shingles AS (SELECT DISTINCT doc_id, xor(v, h0) AS s FROM sn_5),
sizes AS (SELECT doc_id, count(*) AS ns FROM shingles GROUP BY doc_id),
perms(k, pa, pb) AS (VALUES {perm_vals}),
sigs AS (
    SELECT doc_id, k,
           min(CAST((CAST({_mulwrap2_sql('s', 'pa')} AS HUGEINT) + pb)
                    % 18446744073709551616 AS HUGEINT) % {m61}) AS sig
    FROM shingles, perms GROUP BY 1, 2
),
bv_0 AS (
    SELECT doc_id, k // 4 AS band_id,
           max(CASE WHEN k % 4 = 0 THEN sig END) AS b0,
           max(CASE WHEN k % 4 = 1 THEN sig END) AS b1,
           max(CASE WHEN k % 4 = 2 THEN sig END) AS b2,
           CAST(max(CASE WHEN k % 4 = 3 THEN sig END) AS UBIGINT) AS v3
    FROM sigs GROUP BY 1, 2
),
c1_0 AS (SELECT doc_id, band_id, b0, b1, b2, v3 AS vv FROM bv_0),
{_mix64_ctes_sql('c1', 'vv', 'doc_id, band_id, b0, b1, b2')},
c2_0 AS (SELECT doc_id, band_id, b0, b1, xor(v, CAST(b2 AS UBIGINT)) AS vv FROM c1_5),
{_mix64_ctes_sql('c2', 'vv', 'doc_id, band_id, b0, b1')},
c3_0 AS (SELECT doc_id, band_id, b0, xor(v, CAST(b1 AS UBIGINT)) AS vv FROM c2_5),
{_mix64_ctes_sql('c3', 'vv', 'doc_id, band_id, b0')},
c4_0 AS (SELECT doc_id, band_id, xor(v, CAST(b0 AS UBIGINT)) AS vv FROM c3_5),
{_mix64_ctes_sql('c4', 'vv', 'doc_id, band_id')},
bands AS (SELECT doc_id, band_id, v AS band_hash FROM c4_5),
pairs AS (
    SELECT DISTINCT x.doc_id AS doc_a, y.doc_id AS doc_b
    FROM bands x JOIN bands y
      ON x.band_id = y.band_id AND x.band_hash = y.band_hash AND x.doc_id < y.doc_id
      {pair_cond}
),
verify AS (
    SELECT p.doc_a, p.doc_b,
           (SELECT count(*) FROM shingles sa JOIN shingles sb
             ON sa.s = sb.s AND sa.doc_id = p.doc_a AND sb.doc_id = p.doc_b) AS inter,
           za.ns AS na, zb.ns AS nb
    FROM pairs p JOIN sizes za ON za.doc_id = p.doc_a JOIN sizes zb ON zb.doc_id = p.doc_b
)
SELECT doc_a, doc_b,
       round(inter * 1.0 / (na + nb - inter), 6) AS jaccard
FROM verify
WHERE round(inter * 1.0 / (na + nb - inter), 6) >= {threshold}
"""


ORACLES["minhash_near_dups"] = _minhash_oracle_sql(threshold=0.5)


# ---------------------------------------------------------------------------
# Temporal operators: as-of join, range join, windowed aggregates
# ---------------------------------------------------------------------------

_EPOCH_1995_US = 788918400000000  # 1995-01-01 UTC in microseconds


def q_asof_latest_order(sf_dir: str):
    """As-of join (stages/joins.py::asof_join): for each event — with a
    derived activity time spanning the order history (event_id % 2400
    days after 1995-01-01, so matches vary per event) — the latest
    order of the same customer at or before that time. The orders side
    is first deduplicated per (custkey, orderdate) keeping max orderkey
    (as-of ties must be broken deterministically; see asof_join doc).
    Right-side keys are compared as DOUBLE so unmatched rows are NULL
    on both sides of the oracle."""
    from hydra_ray.stages.joins import asof_join

    events = rd.read_parquet(f"{sf_dir}/events.parquet", columns=["event_id", "user_id"])

    def derive_t(t: pa.Table) -> pa.Table:
        eid = t["event_id"].to_numpy(zero_copy_only=False)
        us = _EPOCH_1995_US + (eid % 2400) * 86_400_000_000
        return t.append_column("t", pa.array(us).cast(pa.timestamp("us")))

    left = events.map_batches(derive_t, batch_format="pyarrow")

    orders = rd.read_parquet(
        f"{sf_dir}/orders.parquet", columns=["o_orderkey", "o_custkey", "o_orderdate", "o_totalprice"]
    )

    def dedup_day(df: pd.DataFrame) -> pd.DataFrame:
        df = df.sort_values(["o_custkey", "o_orderdate", "o_orderkey"], kind="mergesort")
        return df.drop_duplicates(["o_custkey", "o_orderdate"], keep="last")

    from hydra_ray.stages.keyed import keyed_map_partitions

    right = keyed_map_partitions(orders, ["o_custkey"], dedup_day).map_batches(
        lambda t: t.rename_columns(
            ["o_orderkey", "user_id", "t", "o_totalprice"]
        ),
        batch_format="pyarrow",
    )

    joined = asof_join(left, right, by="user_id", on="t")

    def finish(t: pa.Table) -> pa.Table:
        return pa.table(
            {
                "event_id": t["event_id"],
                "user_id": t["user_id"],
                "o_orderkey": pc.cast(t["o_orderkey"], pa.float64()),
                "o_totalprice": t["o_totalprice"],
            }
        )

    return joined.map_batches(finish, batch_format="pyarrow")


ORACLE_ASOF_LATEST_ORDER = """
    WITH ev AS (
        SELECT event_id, user_id,
               make_timestamp(788918400000000 + (event_id % 2400) * 86400000000) AS t
        FROM events
    ),
    od AS (
        SELECT o_custkey, o_orderdate, o_orderkey, o_totalprice
        FROM orders
        QUALIFY row_number() OVER (PARTITION BY o_custkey, o_orderdate
                                   ORDER BY o_orderkey DESC) = 1
    )
    SELECT e.event_id, e.user_id,
           CAST(o.o_orderkey AS DOUBLE) AS o_orderkey, o.o_totalprice
    FROM ev e ASOF LEFT JOIN od o
      ON e.user_id = o.o_custkey AND e.t >= o.o_orderdate
"""

QUERIES["asof_latest_order"] = q_asof_latest_order
ORACLES["asof_latest_order"] = ORACLE_ASOF_LATEST_ORDER


def q_events_in_windows(sf_dir: str):
    """Range (interval) join (stages/joins.py::range_join): events
    against 8 overlapping 5-day promo windows (stride 4 days from
    2024-01-01) — broadcast interval side, a row can match two
    windows."""
    from hydra_ray.stages.joins import range_join

    base = 1704067200000000  # 2024-01-01 UTC us
    day = 86_400_000_000
    iv = pa.table(
        {
            "win_id": pa.array(range(8), type=pa.int64()),
            "start": pa.array([base + i * 4 * day for i in range(8)]).cast(pa.timestamp("us")),
            "end": pa.array([base + (i * 4 + 5) * day for i in range(8)]).cast(pa.timestamp("us")),
        }
    )
    ds = rd.read_parquet(f"{sf_dir}/events.parquet", columns=["event_id", "ts", "event_type"])
    out = range_join(ds, iv, t_col="ts")
    return out.map_batches(
        lambda t: t.select(["event_id", "event_type", "win_id"]), batch_format="pyarrow"
    )


ORACLE_EVENTS_IN_WINDOWS = """
    WITH w AS (
        SELECT i AS win_id,
               make_timestamp(1704067200000000 + i * 4 * 86400000000) AS s,
               make_timestamp(1704067200000000 + (i * 4 + 5) * 86400000000) AS e
        FROM (SELECT unnest(generate_series(0, 7)) AS i)
    )
    SELECT ev.event_id, ev.event_type, w.win_id
    FROM events ev JOIN w ON ev.ts >= w.s AND ev.ts < w.e
"""

QUERIES["events_in_windows"] = q_events_in_windows
ORACLES["events_in_windows"] = ORACLE_EVENTS_IN_WINDOWS


def q_windowed_event_stats(sf_dir: str):
    """Tumbling-window aggregate (stages/agg.py::windowed_agg): 6-hour
    windows × event_type, count + sum(value) — per-block partial
    aggregation ahead of the shuffle."""
    from hydra_ray.stages.agg import windowed_agg

    ds = rd.read_parquet(f"{sf_dir}/events.parquet", columns=["ts", "event_type", "value"])
    return windowed_agg(
        ds,
        t_col="ts",
        window_us=6 * 3600 * 1_000_000,
        keys=("event_type",),
        aggs=[("value", "count", "n_events"), ("value", "sum", "sum_value")],
    )


ORACLE_WINDOWED_EVENT_STATS = """
    SELECT make_timestamp((epoch_us(ts) // 21600000000) * 21600000000) AS window_start,
           event_type,
           count(*) AS n_events,
           sum(value) AS sum_value
    FROM events
    GROUP BY 1, 2
"""

QUERIES["windowed_event_stats"] = q_windowed_event_stats
ORACLES["windowed_event_stats"] = ORACLE_WINDOWED_EVENT_STATS


def q_sliding_window_stats(sf_dir: str):
    """Sliding-window aggregate: 12-hour windows sliding by 4 hours
    (each event lands in 3 windows — vectorized 3× expansion, still
    pre-aggregated per block)."""
    from hydra_ray.stages.agg import windowed_agg

    ds = rd.read_parquet(f"{sf_dir}/events.parquet", columns=["ts", "value"])
    return windowed_agg(
        ds,
        t_col="ts",
        window_us=12 * 3600 * 1_000_000,
        slide_us=4 * 3600 * 1_000_000,
        aggs=[("value", "count", "n_events"), ("value", "sum", "sum_value")],
    )


ORACLE_SLIDING_WINDOW_STATS = """
    SELECT make_timestamp(((epoch_us(ts) // 14400000000) - j) * 14400000000) AS window_start,
           count(*) AS n_events,
           sum(value) AS sum_value
    FROM events CROSS JOIN (SELECT unnest(generate_series(0, 2)) AS j)
    GROUP BY 1
"""

QUERIES["sliding_window_stats"] = q_sliding_window_stats
ORACLES["sliding_window_stats"] = ORACLE_SLIDING_WINDOW_STATS


def q_pmtiles_tiles(sf_dir: str):
    """S11 (GeoJSON → PMTiles): the full stdlib tiler over the same
    derived points as geojson_features — features → web-mercator tile
    assignment (stages/geo.py::lonlat_to_tile) → per-tile MVT encode →
    PMTiles v3 archive (sources/pmtiles.py) written under /tmp — then
    the archive is REOPENED and each tile's MVT layer decoded back;
    the compared output (zoom, tile_x, tile_y, n_features) therefore
    exercises header, Hilbert directory, MVT codec and the mercator
    math end-to-end against a pure-SQL mercator oracle."""
    import os
    import tempfile

    from hydra_ray.sources.pmtiles import decode_mvt_layer, read_pmtiles
    from hydra_ray.stages.geo import features_batch, features_to_pmtiles

    zoom = 5
    ds = rd.read_parquet(f"{sf_dir}/events.parquet", columns=["event_id", "user_id", "value"])

    def add_coords(t: pa.Table) -> pa.Table:
        v = t["value"].to_numpy(zero_copy_only=False)
        lat = np.round(np.mod(v, 180.0) - 90.0, 4)
        lon = np.round(np.mod(v * 2.0, 360.0) - 180.0, 4)
        return t.append_column("lat", pa.array(lat)).append_column("lon", pa.array(lon))

    geo = {"kind": "latlon_pair", "columns": ["lat", "lon"]}
    feats = ds.map_batches(add_coords, batch_format="pyarrow").map_batches(
        lambda t: features_batch(t, geo), batch_format="pyarrow"
    )
    out_path = os.path.join(tempfile.mkdtemp(prefix="pmtiles_q_"), "events.pmtiles")
    features_to_pmtiles(feats, out_path, zoom=zoom)

    arc = read_pmtiles(out_path)
    rows = [
        (z, x, y, len(decode_mvt_layer(blob)["features"]))
        for (z, x, y), blob in sorted(arc["tiles"].items())
    ]
    return pa.table(
        {
            "zoom": pa.array([r[0] for r in rows], type=pa.int64()),
            "tile_x": pa.array([r[1] for r in rows], type=pa.int64()),
            "tile_y": pa.array([r[2] for r in rows], type=pa.int64()),
            "n_features": pa.array([r[3] for r in rows], type=pa.int64()),
        }
    )


ORACLE_PMTILES_TILES = """
    WITH coords AS (
        SELECT round(value % 180.0 - 90.0, 4) AS lat,
               round((value * 2.0) % 360.0 - 180.0, 4) AS lon
        FROM events
    ),
    m AS (
        SELECT (lon + 180.0) / 360.0 * 32 AS xt,
               (1.0 - ln(tan(radians(greatest(least(lat, 85.0511), -85.0511)))
                         + 1.0 / cos(radians(greatest(least(lat, 85.0511), -85.0511)))) / pi())
                 / 2.0 * 32 AS yt
        FROM coords
    )
    SELECT 5 AS zoom,
           greatest(least(CAST(floor(xt) AS BIGINT), 31), 0) AS tile_x,
           greatest(least(CAST(floor(yt) AS BIGINT), 31), 0) AS tile_y,
           count(*) AS n_features
    FROM m
    GROUP BY 2, 3
"""

QUERIES["pmtiles_tiles"] = q_pmtiles_tiles
ORACLES["pmtiles_tiles"] = ORACLE_PMTILES_TILES


def q_duplicated_passages(sf_dir: str):
    """Passage-level dedup (stages/dedup.py::duplicated_passages):
    maximal per-doc spans of 5-token grams shared by >=2 documents."""
    from hydra_ray.stages.dedup import duplicated_passages

    return duplicated_passages(
        rd.read_parquet(f"{sf_dir}/documents.parquet", columns=["doc_id", "text"]),
        k=5,
        min_docs=2,
    )


ORACLE_DUPLICATED_PASSAGES = """
    WITH toks AS (SELECT doc_id, string_split(text, ' ') AS ts FROM documents),
    pos AS (SELECT doc_id, ts,
                   unnest(generate_series(1, greatest(len(ts) - 4, 0))) AS i
            FROM toks),
    grams AS (SELECT doc_id, i, array_to_string(ts[i:i+4], ' ') AS g FROM pos),
    dup AS (SELECT g FROM grams GROUP BY g HAVING count(DISTINCT doc_id) >= 2),
    hits AS (SELECT DISTINCT doc_id, i FROM grams WHERE g IN (SELECT g FROM dup)),
    isl AS (
        SELECT doc_id, i,
               sum(CASE WHEN i - lag_i <= 5 THEN 0 ELSE 1 END)
                 OVER (PARTITION BY doc_id ORDER BY i) AS grp
        FROM (SELECT doc_id, i,
                     lag(i) OVER (PARTITION BY doc_id ORDER BY i) AS lag_i
              FROM hits)
    )
    SELECT doc_id, min(i) AS start_tok, max(i) + 4 AS end_tok, count(*) AS n_grams
    FROM isl GROUP BY doc_id, grp
"""

QUERIES["duplicated_passages"] = q_duplicated_passages
ORACLES["duplicated_passages"] = ORACLE_DUPLICATED_PASSAGES


def q_chunk_documents(sf_dir: str):
    """LLM context-window chunking (stages/text.py::chunk_documents):
    32-token windows, 8-token overlap, last chunk clipped."""
    from hydra_ray.stages.text import chunk_documents

    return chunk_documents(
        rd.read_parquet(f"{sf_dir}/documents.parquet", columns=["doc_id", "text"]),
        max_tokens=32,
        overlap=8,
    )


ORACLE_CHUNK_DOCUMENTS = """
    WITH toks AS (SELECT doc_id, string_split(text, ' ') AS ts FROM documents),
    c AS (
        SELECT doc_id, ts, len(ts) AS n,
               unnest(generate_series(0,
                   CAST(greatest(ceil((len(ts) - 8.0) / 24.0), 1) AS BIGINT) - 1)) AS j
        FROM toks
    )
    SELECT doc_id, j AS chunk_id, j * 24 + 1 AS start_tok,
           least(j * 24 + 32, n) - j * 24 AS n_toks,
           array_to_string(ts[j*24+1 : least(j*24+32, n)], ' ') AS chunk
    FROM c
"""

QUERIES["chunk_documents"] = q_chunk_documents
ORACLES["chunk_documents"] = ORACLE_CHUNK_DOCUMENTS


def q_sample_per_group(sf_dir: str):
    """Deterministic stratified sampling (stages/text.py::
    sample_per_group): 5 docs per language by splitmix64(doc_id+17) —
    the seeded-rank ORDER BY random() replacement, reproduced bit-exact
    in SQL via the HUGEINT-limb splitmix64."""
    from hydra_ray.stages.text import sample_per_group

    out = sample_per_group(
        rd.read_parquet(f"{sf_dir}/documents.parquet", columns=["doc_id", "lang"]),
        key="lang",
        n=5,
        seed=17,
    )
    return out.map_batches(
        lambda t: t.select(["lang", "doc_id", "rank"]), batch_format="pyarrow"
    )


ORACLE_SAMPLE_PER_GROUP = f"""
    WITH sg_0 AS (SELECT doc_id, lang, CAST(doc_id + 17 AS UBIGINT) AS v FROM documents),
    {_mix64_ctes_sql("sg", "v", "doc_id, lang")}
    SELECT lang, doc_id,
           row_number() OVER (PARTITION BY lang ORDER BY v, doc_id) AS rank
    FROM sg_5
    QUALIFY row_number() OVER (PARTITION BY lang ORDER BY v, doc_id) <= 5
"""

QUERIES["sample_per_group"] = q_sample_per_group
ORACLES["sample_per_group"] = ORACLE_SAMPLE_PER_GROUP


def q_curate_corpus(sf_dir: str):
    """Composite training-data curation (pipelines/curate.py): quality
    gate → exact dedup → survivor semi-join → chunking → per-language
    stats, the whole chain reproduced step-for-step in the oracle."""
    from hydra_ray.pipelines.curate import curate_corpus

    return curate_corpus(
        rd.read_parquet(f"{sf_dir}/documents.parquet", columns=["doc_id", "text", "lang"])
    )


ORACLE_CURATE_CORPUS = r"""
    WITH q AS (
        SELECT doc_id, text, lang
        FROM (
            SELECT doc_id, text, lang,
                   CAST(array_length(regexp_split_to_array(trim(text), '\s+')) AS BIGINT) AS n_tokens,
                   round(length(regexp_replace(text, '[^0-9]', '', 'g'))
                         / greatest(length(text), 1), 6) AS digit_ratio
            FROM documents
        )
        WHERE n_tokens >= 5 AND n_tokens <= 10000 AND digit_ratio < 0.3
    ),
    surv AS (
        SELECT doc_id, text, lang FROM q
        QUALIFY row_number() OVER (PARTITION BY md5(text) ORDER BY doc_id) = 1
    ),
    toks AS (SELECT doc_id, lang, string_split(text, ' ') AS ts FROM surv),
    c AS (
        SELECT doc_id, lang, len(ts) AS n,
               unnest(generate_series(0,
                   CAST(greatest(ceil((len(ts) - 8.0) / 24.0), 1) AS BIGINT) - 1)) AS j
        FROM toks
    )
    SELECT lang,
           count(*) FILTER (j = 0) AS n_docs,
           count(*) AS n_chunks,
           CAST(sum(least(j * 24 + 32, n) - j * 24) AS BIGINT) AS sum_toks
    FROM c GROUP BY lang
"""

QUERIES["curate_corpus"] = q_curate_corpus
ORACLES["curate_corpus"] = ORACLE_CURATE_CORPUS


def q_media_decode(sf_dir: str):
    """Real media decode (sources/codecs.py): per doc a deterministic
    16×16 RGB image — pixel(r,c,k) = (doc_id*7 + r*31 + c*13 + k*97)
    % 256 — is PNG-ENCODED then decoded back through decode_image, and
    a 256-sample waveform — sample(i) = (doc_id*11 + i*37) % 2048 - 1024
    — round-trips WAV through decode_audio; the same frame also
    round-trips the BMP (24-bit rows) and GIF (LZW + color table)
    codecs, and a block-constant 16×16 grayscale frame — value
    (doc_id*19 + q*53) % 256 per 8×8 quadrant q — round-trips the
    baseline JPEG codec EXACTLY (quality=100 makes every quant step 1,
    so DC-only constant blocks survive Huffman+DCT bit-for-bit). All
    compared stats are computed from the DECODED arrays, so a single
    flipped bit anywhere in any of the five codecs fails the oracle."""
    from hydra_ray.sources.codecs import (
        encode_aiff,
        encode_au,
        encode_bmp,
        encode_gif,
        encode_jpeg,
        encode_png,
        encode_wav,
    )
    from hydra_ray.stages.multimodal import decode_audio, decode_image

    ds = _docs(sf_dir, columns=["doc_id"])

    def batch_fn(t: pa.Table) -> pa.Table:
        ids = t["doc_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        r = np.arange(16).reshape(16, 1, 1)
        c = np.arange(16).reshape(1, 16, 1)
        k = np.arange(3).reshape(1, 1, 3)
        i = np.arange(256)
        means = np.zeros((len(ids), 3), dtype=np.float64)
        means_bmp = np.zeros((len(ids), 3), dtype=np.float64)
        means_gif = np.zeros((len(ids), 3), dtype=np.float64)
        wav_mean = np.zeros(len(ids), dtype=np.float64)
        wav_peak = np.zeros(len(ids), dtype=np.int64)
        jpeg_mean = np.zeros(len(ids), dtype=np.float64)
        aiff_mean = np.zeros(len(ids), dtype=np.float64)
        au_peak = np.zeros(len(ids), dtype=np.int64)
        for j, d in enumerate(ids):
            img = ((int(d) * 7 + r * 31 + c * 13 + k * 97) % 256).astype(np.uint8)
            decoded = decode_image(encode_png(img, filter_type=int(d) % 5))
            means[j] = decoded.reshape(-1, 3).mean(axis=0)
            # the same frame through the BMP and GIF paths — all three
            # codecs are lossless, so all three means must agree with
            # the oracle's closed-form pixel expression
            means_bmp[j] = decode_image(encode_bmp(img)).reshape(-1, 3).mean(axis=0)
            means_gif[j] = decode_image(encode_gif(img)).reshape(-1, 3).mean(axis=0)
            gimg = np.zeros((16, 16), dtype=np.uint8)
            for q in range(4):
                v = (int(d) * 19 + q * 53) % 256
                gimg[(q // 2) * 8 : (q // 2) * 8 + 8, (q % 2) * 8 : (q % 2) * 8 + 8] = v
            jdec = decode_image(encode_jpeg(gimg, quality=100))
            assert jdec.shape == (16, 16)
            jpeg_mean[j] = jdec.astype(np.float64).mean()
            samples = ((int(d) * 11 + i * 37) % 2048 - 1024).astype(np.int16)
            arr, rate = decode_audio(encode_wav(samples, 16000))
            assert rate == 16000
            wav_mean[j] = arr[:, 0].astype(np.float64).mean()
            wav_peak[j] = np.abs(arr[:, 0].astype(np.int64)).max()
            # the same waveform through the AIFF and AU codecs — both
            # lossless big-endian PCM, so means/peaks must agree with
            # the WAV path (and with the oracle's closed form)
            aarr, arate = decode_audio(encode_aiff(samples, 16000))
            uarr, urate = decode_audio(encode_au(samples, 16000))
            assert arate == urate == 16000
            aiff_mean[j] = aarr[:, 0].astype(np.float64).mean()
            au_peak[j] = np.abs(uarr[:, 0].astype(np.int64)).max()
        return pa.table(
            {
                "doc_id": pa.array(ids),
                "mean_r": pa.array(np.round(means[:, 0], 6)),
                "mean_g": pa.array(np.round(means[:, 1], 6)),
                "mean_b": pa.array(np.round(means[:, 2], 6)),
                "mean_r_bmp": pa.array(np.round(means_bmp[:, 0], 6)),
                "mean_g_bmp": pa.array(np.round(means_bmp[:, 1], 6)),
                "mean_b_bmp": pa.array(np.round(means_bmp[:, 2], 6)),
                "mean_r_gif": pa.array(np.round(means_gif[:, 0], 6)),
                "mean_g_gif": pa.array(np.round(means_gif[:, 1], 6)),
                "mean_b_gif": pa.array(np.round(means_gif[:, 2], 6)),
                "wav_mean": pa.array(np.round(wav_mean, 6)),
                "wav_peak": pa.array(wav_peak),
                "jpeg_mean": pa.array(np.round(jpeg_mean, 6)),
                "aiff_mean": pa.array(np.round(aiff_mean, 6)),
                "au_peak": pa.array(au_peak),
            }
        )

    return ds.map_batches(batch_fn, batch_format="pyarrow")


ORACLE_MEDIA_DECODE = """
    WITH px AS (
        SELECT doc_id, k,
               avg(CAST((doc_id * 7 + r * 31 + c * 13 + k * 97) % 256 AS DOUBLE)) AS m
        FROM (SELECT doc_id,
                     unnest(generate_series(0, 15)) AS r
              FROM documents),
             (SELECT unnest(generate_series(0, 15)) AS c),
             (SELECT unnest(generate_series(0, 2)) AS k)
        GROUP BY doc_id, k
    ),
    wv AS (
        SELECT doc_id,
               avg(CAST((doc_id * 11 + i * 37) % 2048 - 1024 AS DOUBLE)) AS wm,
               max(abs((doc_id * 11 + i * 37) % 2048 - 1024)) AS wp
        FROM (SELECT doc_id, unnest(generate_series(0, 255)) AS i FROM documents)
        GROUP BY doc_id
    ),
    jp AS (
        SELECT doc_id,
               avg(CAST((doc_id * 19 + q * 53) % 256 AS DOUBLE)) AS jm
        FROM (SELECT doc_id, unnest(generate_series(0, 3)) AS q FROM documents)
        GROUP BY doc_id
    )
    SELECT p0.doc_id,
           round(p0.m, 6) AS mean_r, round(p1.m, 6) AS mean_g, round(p2.m, 6) AS mean_b,
           round(p0.m, 6) AS mean_r_bmp, round(p1.m, 6) AS mean_g_bmp,
           round(p2.m, 6) AS mean_b_bmp,
           round(p0.m, 6) AS mean_r_gif, round(p1.m, 6) AS mean_g_gif,
           round(p2.m, 6) AS mean_b_gif,
           round(w.wm, 6) AS wav_mean, CAST(w.wp AS BIGINT) AS wav_peak,
           round(j.jm, 6) AS jpeg_mean,
           round(w.wm, 6) AS aiff_mean, CAST(w.wp AS BIGINT) AS au_peak
    FROM px p0
    JOIN px p1 ON p1.doc_id = p0.doc_id AND p1.k = 1
    JOIN px p2 ON p2.doc_id = p0.doc_id AND p2.k = 2
    JOIN wv w ON w.doc_id = p0.doc_id
    JOIN jp j ON j.doc_id = p0.doc_id
    WHERE p0.k = 0
"""

QUERIES["media_decode"] = q_media_decode
ORACLES["media_decode"] = ORACLE_MEDIA_DECODE


def q_bpe_token_counts(sf_dir: str):
    """GPT-2-style pre-tokenizer counting (stages/text.py::
    bpe_token_count_batch) — the 'BPE-ish regex' half of the token-
    counting pair; identical RE2 semantics in pyarrow and DuckDB make
    the oracle exact per document."""
    from hydra_ray.stages.text import bpe_token_count_batch

    return _docs(sf_dir, columns=["doc_id", "text"]).map_batches(
        bpe_token_count_batch, batch_format="pyarrow"
    )


ORACLE_BPE_TOKEN_COUNTS = """
    SELECT doc_id,
           len(regexp_extract_all(text,
               '(?:''(?:s|d|m|t|ll|ve|re))| ?[[:alpha:]]+| ?[[:digit:]]+| ?[^ [:alpha:][:digit:]]+'
           )) AS n_bpe_tokens
    FROM documents
"""

QUERIES["bpe_token_counts"] = q_bpe_token_counts
ORACLES["bpe_token_counts"] = ORACLE_BPE_TOKEN_COUNTS


def q_curate_near_dup(sf_dir: str):
    """Full curation with near-dup removal: quality gate → exact dedup
    → MinHash-LSH near-dup pass (drop the higher doc_id of each
    verified pair, one anti-semi-join) → chunking → per-language stats.
    The oracle composes the entire MinHash SQL pipeline over the
    exact-dedup survivors."""
    from hydra_ray.pipelines.curate import curate_corpus

    return curate_corpus(
        rd.read_parquet(f"{sf_dir}/documents.parquet", columns=["doc_id", "text", "lang"]),
        near_dup_threshold=0.5,
    )


def _curate_near_dup_oracle_sql() -> str:
    pairs_sql = _minhash_oracle_sql(threshold=0.5, src="surv")
    return rf"""
    WITH q AS (
        SELECT doc_id, text, lang
        FROM (
            SELECT doc_id, text, lang,
                   CAST(array_length(regexp_split_to_array(trim(text), '\s+')) AS BIGINT) AS n_tokens,
                   round(length(regexp_replace(text, '[^0-9]', '', 'g'))
                         / greatest(length(text), 1), 6) AS digit_ratio
            FROM documents
        )
        WHERE n_tokens >= 5 AND n_tokens <= 10000 AND digit_ratio < 0.3
    ),
    surv AS (
        SELECT doc_id, text, lang FROM q
        QUALIFY row_number() OVER (PARTITION BY md5(text) ORDER BY doc_id) = 1
    ),
    nd_pairs AS ({pairs_sql}),
    kept AS (
        SELECT * FROM surv
        WHERE doc_id NOT IN (SELECT doc_b FROM nd_pairs)
    ),
    toks AS (SELECT doc_id, lang, string_split(text, ' ') AS ts FROM kept),
    c AS (
        SELECT doc_id, lang, len(ts) AS n,
               unnest(generate_series(0,
                   CAST(greatest(ceil((len(ts) - 8.0) / 24.0), 1) AS BIGINT) - 1)) AS j
        FROM toks
    )
    SELECT lang,
           count(*) FILTER (j = 0) AS n_docs,
           count(*) AS n_chunks,
           CAST(sum(least(j * 24 + 32, n) - j * 24) AS BIGINT) AS sum_toks
    FROM c GROUP BY lang
"""


QUERIES["curate_near_dup"] = q_curate_near_dup
ORACLES["curate_near_dup"] = _curate_near_dup_oracle_sql()


def q_grouped_quantiles(sf_dir: str):
    """Order statistics + exact distinct counts per key
    (stages/agg.py::grouped_stats): median and p90 of event value plus
    distinct users per event_type — the non-mergeable aggregate family
    (quantile_cont semantics match pandas linear interpolation)."""
    from hydra_ray.stages.agg import grouped_stats

    return grouped_stats(
        rd.read_parquet(f"{sf_dir}/events.parquet", columns=["event_type", "value", "user_id"]),
        key="event_type",
        value_col="value",
        quantiles=(0.5, 0.9),
        distinct_col="user_id",
    )


ORACLE_GROUPED_QUANTILES = """
    SELECT event_type,
           count(*) AS n,
           round(quantile_cont(value, 0.5), 6) AS q50,
           round(quantile_cont(value, 0.9), 6) AS q90,
           count(DISTINCT user_id) AS n_distinct
    FROM events
    GROUP BY event_type
"""

QUERIES["grouped_quantiles"] = q_grouped_quantiles
ORACLES["grouped_quantiles"] = ORACLE_GROUPED_QUANTILES


def q_hll_registers(sf_dir: str):
    """HyperLogLog sketch registers per event_type (stages/agg.py::
    hll_registers, p=6): the mergeable approximate-distinct shape —
    ≤64 rows per (key, block) cross the shuffle regardless of row
    count. Integer register maxima are bit-exact against the SQL
    replication of splitmix64 + leading-zero ranks (the ESTIMATE is
    float; accuracy is asserted in tests against exact distinct)."""
    from hydra_ray.stages.agg import hll_registers

    return hll_registers(
        rd.read_parquet(f"{sf_dir}/events.parquet", columns=["event_type", "user_id"]),
        key="event_type",
        col="user_id",
        p=6,
    )


ORACLE_HLL_REGISTERS = f"""
    WITH hr_0 AS (SELECT event_type, CAST(user_id AS UBIGINT) AS v FROM events),
    {_mix64_ctes_sql("hr", "v", "event_type")},
    rr AS (
        SELECT event_type,
               CAST(v // 288230376151711744 AS BIGINT) AS register,
               CAST((CAST(v AS HUGEINT) % 288230376151711744) * 64 AS UBIGINT) AS rest
        FROM hr_5
    )
    SELECT event_type, register,
           max(CASE WHEN rest = 0 THEN 59
                    ELSE 64 - (length(bin(rest)) - 1) END) AS max_rank
    FROM rr
    GROUP BY event_type, register
"""

QUERIES["hll_registers"] = q_hll_registers
ORACLES["hll_registers"] = ORACLE_HLL_REGISTERS


def q_repetition_stats(sf_dir: str):
    """Gopher-style within-doc repetition filters (stages/text.py::
    repetition_stats_batch): duplicate-3-gram fraction + top-2-gram
    token coverage per document."""
    from hydra_ray.stages.text import repetition_stats_batch

    return _docs(sf_dir, columns=["doc_id", "text"]).map_batches(
        repetition_stats_batch, batch_format="pyarrow"
    )


ORACLE_REPETITION_STATS = """
    WITH toks AS (SELECT doc_id, string_split(text, ' ') AS ts FROM documents),
    g3 AS (
        SELECT doc_id, count(*) AS total, count(DISTINCT g) AS uniq
        FROM (SELECT doc_id, array_to_string(ts[i:i+2], ' ') AS g
              FROM (SELECT doc_id, ts,
                           unnest(generate_series(1, greatest(len(ts) - 2, 0))) AS i
                    FROM toks))
        GROUP BY doc_id
    ),
    g2 AS (
        SELECT doc_id, max(c) AS best
        FROM (SELECT doc_id, g, count(*) AS c
              FROM (SELECT doc_id, array_to_string(ts[i:i+1], ' ') AS g
                    FROM (SELECT doc_id, ts,
                                 unnest(generate_series(1, greatest(len(ts) - 1, 0))) AS i
                          FROM toks))
              GROUP BY doc_id, g)
        GROUP BY doc_id
    ),
    n AS (SELECT doc_id, len(ts) AS n FROM toks)
    SELECT t.doc_id,
           COALESCE(round(1.0 - g3.uniq * 1.0 / g3.total, 6), 0.0) AS dup_3gram_frac,
           COALESCE(round(g2.best * 2.0 / n.n, 6), 0.0) AS top_2gram_frac
    FROM (SELECT doc_id FROM documents) t
    LEFT JOIN g3 USING (doc_id)
    LEFT JOIN g2 USING (doc_id)
    LEFT JOIN n USING (doc_id)
"""

QUERIES["repetition_stats"] = q_repetition_stats
ORACLES["repetition_stats"] = ORACLE_REPETITION_STATS


def q_cms_counts(sf_dir: str):
    """Count-min sketch counters over event user_ids (stages/agg.py::
    cms_counts, depth 4 × width 256) — the heavy-hitter sketch; counter
    table is bit-exact against the SQL splitmix64 replication (the
    min-query estimator is tested against exact counts in pytest)."""
    from hydra_ray.stages.agg import cms_counts

    return cms_counts(
        rd.read_parquet(f"{sf_dir}/events.parquet", columns=["user_id"]), col="user_id"
    )


ORACLE_CMS_COUNTS = f"""
    WITH cm_0 AS (
        SELECT d.d AS d, CAST(user_id AS UBIGINT) + d.s AS v
        FROM events
        CROSS JOIN (VALUES (0, 1000003), (1, 10007), (2, 2003), (3, 31)) d(d, s)
    ),
    {_mix64_ctes_sql("cm", "v", "d")}
    SELECT d, CAST(v % 256 AS BIGINT) AS w, count(*) AS count
    FROM cm_5 GROUP BY d, w
"""

QUERIES["cms_counts"] = q_cms_counts
ORACLES["cms_counts"] = ORACLE_CMS_COUNTS


def q_sampled_quantiles(sf_dir: str):
    """Bottom-k hash-sampled quantiles (stages/agg.py::
    sampled_quantiles, k=128, seed=5): the MERGEABLE quantile sketch —
    each block ships ≤k rows per key, vs grouped_stats' exact path that
    co-locates every row of a key. The splitmix64 rank makes the sample
    (and hence the estimates) parallelism-invariant and bit-exact
    reproducible in SQL."""
    from hydra_ray.stages.agg import sampled_quantiles

    return sampled_quantiles(
        rd.read_parquet(f"{sf_dir}/events.parquet", columns=["event_type", "value", "event_id"]),
        key="event_type",
        value_col="value",
        id_col="event_id",
        k=128,
        quantiles=(0.5, 0.9),
        seed=5,
    )


ORACLE_SAMPLED_QUANTILES = f"""
    WITH sq_0 AS (SELECT event_type, value, event_id,
                         CAST(event_id + 5 AS UBIGINT) AS v FROM events),
    {_mix64_ctes_sql("sq", "v", "event_type, value, event_id")},
    ranked AS (
        SELECT event_type, value,
               row_number() OVER (PARTITION BY event_type ORDER BY v, event_id) AS rn,
               count(*) OVER (PARTITION BY event_type) AS n
        FROM sq_5
    )
    SELECT event_type,
           any_value(n) AS n,
           count(*) AS n_sample,
           round(quantile_cont(value, 0.5), 6) AS q50,
           round(quantile_cont(value, 0.9), 6) AS q90
    FROM ranked WHERE rn <= 128
    GROUP BY event_type
"""

QUERIES["sampled_quantiles"] = q_sampled_quantiles
ORACLES["sampled_quantiles"] = ORACLE_SAMPLED_QUANTILES


def q_tdigest_quantiles(sf_dir: str):
    """t-digest quantile ACCURACY gate per event_type (stages/agg.py::
    tdigest_centroids δ=100 + tdigest_quantile): the classic mergeable
    quantile sketch — ≤δ centroids per (key, block) cross the shuffle.
    Raw estimates depend on block boundaries (true of every parallel
    t-digest), so instead of pinning values the query measures each
    estimate's TRUE rank with a second distributed pass over the data
    (count of values ≤ estimate, the estimates broadcast) and emits
    exact n, the bounded centroid count, and per-quantile
    |rank − q| ≤ 0.03 booleans — which the SQL oracle pins to TRUE.
    A sketch that drifts out of its error bound now FAILS the driver
    gate, not just the pytest invariants."""
    import ray as _ray

    from hydra_ray.stages.agg import grouped_agg, tdigest_centroids, tdigest_quantile

    qs = (0.01, 0.5, 0.9, 0.99)
    cents = tdigest_centroids(
        rd.read_parquet(f"{sf_dir}/events.parquet", columns=["event_type", "value"]),
        key="event_type",
        value_col="value",
        delta=100,
    )
    cents_df = cents.to_pandas()  # final sketch: ≤δ rows per key
    ncent_map = cents_df.groupby("event_type").size().to_dict()
    est = tdigest_quantile(cents_df, "event_type", qs)  # tiny: one row per key
    est_map = {
        r["event_type"]: [r[f"q{int(q * 100)}"] for q in qs] for _, r in est.iterrows()
    }
    est_ref = _ray.put(est_map)

    def rank_partial(t: pa.Table) -> pa.Table:
        em = _ray.get(est_ref)
        ks = t["event_type"].to_pylist()
        v = t["value"].to_numpy(zero_copy_only=False)
        out_k, out_le = [], {i: [] for i in range(len(qs))}
        import numpy as _np

        karr = _np.asarray(ks, dtype=object)
        for key, ests in em.items():
            m = karr == key
            if not m.any():
                continue
            out_k.append(key)
            for i, e in enumerate(ests):
                out_le[i].append(int((v[m] <= e).sum()))
        cols = {"event_type": pa.array(out_k, pa.string())}
        cols["n_part"] = pa.array(
            [int((karr == key).sum()) for key in out_k], pa.int64()
        )
        for i in range(len(qs)):
            cols[f"le{i}"] = pa.array(out_le[i], pa.int64())
        return pa.table(cols)

    ranks = grouped_agg(
        rd.read_parquet(f"{sf_dir}/events.parquet", columns=["event_type", "value"]).map_batches(
            rank_partial, batch_format="pyarrow"
        ),
        ["event_type"],
        [("n_part", "sum", "n")] + [(f"le{i}", "sum", f"le{i}") for i in range(len(qs))],
    ).to_pandas()

    rows = []
    for _, r in ranks.sort_values("event_type").iterrows():
        n = int(r["n"])
        row = {
            "event_type": r["event_type"],
            "n": n,
            "sketch_bounded": bool(ncent_map[r["event_type"]] <= 100),
        }
        for i, q in enumerate(qs):
            row[f"within_q{int(q * 100)}"] = bool(abs(int(r[f"le{i}"]) / n - q) <= 0.03)
        rows.append(row)
    return pd.DataFrame(rows)


ORACLE_TDIGEST_QUANTILES = """
    SELECT event_type, count(*) AS n,
           TRUE AS sketch_bounded,
           TRUE AS within_q1, TRUE AS within_q50,
           TRUE AS within_q90, TRUE AS within_q99
    FROM events GROUP BY event_type
"""

QUERIES["tdigest_quantiles"] = q_tdigest_quantiles
ORACLES["tdigest_quantiles"] = ORACLE_TDIGEST_QUANTILES


def q_workbook_profile(sf_dir: str):
    """csv-detective profile over the WORKBOOK route (reference runs
    csv_detective_routine on Excel content too,
    csv_like/__init__.py:161-217): the same per-group tables as
    csv_profile are written as real XLSX bytes, parsed back through the
    stdlib workbook reader, and profiled via the shared
    column_profile pipeline — the oracle is the same SQL as the CSV
    route, so the two routes are pinned to identical reports."""
    from hydra_ray.sources.xlsx import inspect_xlsx, write_xlsx
    from hydra_ray.stages.keyed import keyed_map_partitions

    ds = rd.read_parquet(f"{sf_dir}/events.parquet", columns=["event_id", "user_id", "value"])

    def addgrp(t: pa.Table) -> pa.Table:
        uid = t["user_id"].to_numpy(zero_copy_only=False)
        return t.append_column("grp", pa.array((uid % 16).astype("int64")))

    def profile_group(df: pd.DataFrame) -> pd.DataFrame:
        out = []
        for grp, g in df.groupby("grp", sort=True):
            g = g.sort_values("event_id")
            rows: list[list] = [["event_id", "value", "mixed"]]
            rows += [
                [int(e), float(v), (int(e) % 50 if int(e) % 3 == 0 else float(v))]
                for e, v in zip(g["event_id"], g["value"])
            ]
            rep = inspect_xlsx(write_xlsx(rows), output_profile=True)
            out.extend(_profile_rows(int(grp), rep))
        return pd.DataFrame(out, columns=_PROFILE_COLS)

    return keyed_map_partitions(
        ds.map_batches(addgrp, batch_format="pyarrow"), ["grp"], profile_group, num_parts=8
    )


QUERIES["workbook_profile"] = q_workbook_profile
ORACLES["workbook_profile"] = ORACLE_CSV_PROFILE  # same logical report as the CSV route


def q_decontaminate(sf_dir: str):
    """Benchmark decontamination (stages/dedup.py::decontaminate, the
    GPT-3 appendix-C recipe): docs with doc_id % 97 == 0 act as the
    held-out eval set; every other document is flagged when it shares
    an exact 5-token gram with any eval doc. Bench grams are collected
    once and ray.put-broadcast (eval sets are tiny); corpus scoring is
    one shuffle-free vectorized pass. The distributed semi-join
    fallback is pinned to this same output by
    test_dedup.py::test_decontaminate_paths_agree."""
    from hydra_ray.stages.dedup import decontaminate

    docs = _docs(sf_dir, columns=["doc_id", "text"])

    def split(is_bench: bool):
        def f(t: pa.Table) -> pa.Table:
            m = t["doc_id"].to_numpy(zero_copy_only=False) % 97 == 0
            return t.filter(pa.array(m if is_bench else ~m))

        return f

    bench = docs.map_batches(split(True), batch_format="pyarrow")
    corpus = docs.map_batches(split(False), batch_format="pyarrow")
    return decontaminate(corpus, bench, n=5)


ORACLE_DECONTAMINATE = """
    WITH bench AS (
        SELECT string_split(text, ' ') AS ts FROM documents WHERE doc_id % 97 = 0
    ),
    bg AS (
        SELECT DISTINCT array_to_string(ts[i:i+4], ' ') AS gram
        FROM (SELECT ts, unnest(generate_series(1, greatest(len(ts) - 4, 0))) AS i FROM bench)
    ),
    corpus AS (
        SELECT doc_id, string_split(text, ' ') AS ts FROM documents WHERE doc_id % 97 <> 0
    ),
    cg AS (
        SELECT DISTINCT doc_id, array_to_string(ts[i:i+4], ' ') AS gram
        FROM (SELECT doc_id, ts, unnest(generate_series(1, greatest(len(ts) - 4, 0))) AS i
              FROM corpus)
    ),
    hits AS (SELECT doc_id, count(*) AS n_overlap FROM cg JOIN bg USING (gram) GROUP BY doc_id)
    SELECT c.doc_id,
           COALESCE(h.n_overlap, 0) AS n_overlap,
           COALESCE(h.n_overlap, 0) > 0 AS contaminated
    FROM (SELECT doc_id FROM corpus) c
    LEFT JOIN hits h USING (doc_id)
"""

QUERIES["decontaminate"] = q_decontaminate
ORACLES["decontaminate"] = ORACLE_DECONTAMINATE


def q_bm25_search(sf_dir: str):
    """Okapi BM25 lexical retrieval (stages/search.py::bm25_search):
    distributed corpus stats (df/avgdl reduced from per-batch partials)
    + broadcast-model scoring, top-20 by integer micro-unit score. The
    lexical counterpart to stages/similarity.py's dense kNN; hydra has
    no retrieval layer — training-data-pipeline extension."""
    from hydra_ray.stages.search import bm25_search

    return bm25_search(
        _docs(sf_dir, columns=["doc_id", "text"]),
        "fast merge join stream window",
        top_n=20,
    )


from hydra_ray.stages.search import bm25_oracle_sql as _bm25_oracle_sql  # noqa: E402

QUERIES["bm25_search"] = q_bm25_search
ORACLES["bm25_search"] = _bm25_oracle_sql("fast merge join stream window", top_n=20)


def q_lm_perplexity(sf_dir: str):
    """Corpus-trained bigram-LM negative log-likelihood per document
    (stages/search.py::lm_perplexity) — the CCNet-style quality filter:
    add-k smoothed bigram model counted distributively, broadcast once,
    scored vectorized with order-invariant micro-unit sums."""
    from hydra_ray.stages.search import lm_perplexity

    return lm_perplexity(_docs(sf_dir, columns=["doc_id", "text"]))


from hydra_ray.stages.search import lm_perplexity_oracle_sql as _lm_oracle_sql  # noqa: E402

QUERIES["lm_perplexity"] = q_lm_perplexity
ORACLES["lm_perplexity"] = _lm_oracle_sql()


def q_exact_substr_dedup(sf_dir: str):
    """Exact-substring removal (stages/dedup.py::exact_substr_dedup):
    tokens covered by any 5-gram shared by >=2 docs are dropped and the
    cleaned text rebuilt — the output half of Lee et al. 2022's
    ExactSubstr dedup on top of duplicated_passages' span detection."""
    from hydra_ray.stages.dedup import exact_substr_dedup

    return exact_substr_dedup(
        _docs(sf_dir, columns=["doc_id", "text"]), k=5, min_docs=2
    )


ORACLE_EXACT_SUBSTR_DEDUP = """
    WITH toks AS (SELECT doc_id, string_split(text, ' ') AS ts FROM documents),
    pos AS (SELECT doc_id, ts,
                   unnest(generate_series(1, greatest(len(ts) - 4, 0))) AS i
            FROM toks),
    grams AS (SELECT doc_id, i, array_to_string(ts[i:i+4], ' ') AS g FROM pos),
    dup AS (SELECT g FROM grams GROUP BY g HAVING count(DISTINCT doc_id) >= 2),
    hits AS (SELECT DISTINCT doc_id, i FROM grams WHERE g IN (SELECT g FROM dup)),
    cov AS (SELECT DISTINCT doc_id, unnest(generate_series(i, i + 4)) AS p FROM hits),
    tok_rows AS (SELECT doc_id, ts,
                        unnest(generate_series(1, len(ts))) AS p
                 FROM toks),
    kept AS (
        SELECT t.doc_id, t.p, t.ts[t.p] AS w
        FROM tok_rows t
        LEFT JOIN cov c ON t.doc_id = c.doc_id AND t.p = c.p
        WHERE c.doc_id IS NULL
    )
    SELECT t.doc_id,
           coalesce(k.clean_text, '') AS clean_text,
           len(t.ts) AS n_tokens,
           len(t.ts) - coalesce(k.n_kept, 0) AS n_removed
    FROM toks t
    LEFT JOIN (
        SELECT doc_id, string_agg(w, ' ' ORDER BY p) AS clean_text,
               count(*) AS n_kept
        FROM kept GROUP BY doc_id
    ) k USING (doc_id)
"""

QUERIES["exact_substr_dedup"] = q_exact_substr_dedup
ORACLES["exact_substr_dedup"] = ORACLE_EXACT_SUBSTR_DEDUP


def q_temperature_mix(sf_dir: str):
    """Temperature-weighted corpus mixing (stages/text.py::
    temperature_mix): per-source quotas ∝ n_i^0.5 (integer micro-unit
    arithmetic), selection by seeded splitmix64 rank — deterministic
    multi-source sampling for training-mixture construction."""
    from hydra_ray.stages.text import temperature_mix

    out = temperature_mix(
        _docs(sf_dir, columns=["doc_id", "source"]),
        key="source",
        alpha=0.5,
        total_n=200,
        seed=23,
    )
    return out.map_batches(
        lambda t: t.select(["source", "doc_id", "rank", "quota"]),
        batch_format="pyarrow",
    )


ORACLE_TEMPERATURE_MIX = f"""
    WITH cnt AS (SELECT source, count(*) AS n FROM documents GROUP BY source),
    sv AS (SELECT source, n,
                  CAST(floor(pow(n, 0.5) * 1e6 + 0.5) AS BIGINT) AS s
           FROM cnt),
    qv AS (SELECT source,
                  CAST(floor(CAST(200 * s AS DOUBLE) / (SELECT sum(s) FROM sv)) AS BIGINT) AS quota
           FROM sv),
    tm_0 AS (SELECT doc_id, source, CAST(doc_id + 23 AS UBIGINT) AS v FROM documents),
    {_mix64_ctes_sql("tm", "v", "doc_id, source")},
    r AS (SELECT source, doc_id, v,
                 row_number() OVER (PARTITION BY source ORDER BY v, doc_id) AS rank
          FROM tm_5)
    SELECT r.source, r.doc_id, r.rank, qv.quota
    FROM r JOIN qv USING (source)
    WHERE r.rank <= qv.quota
"""

QUERIES["temperature_mix"] = q_temperature_mix
ORACLES["temperature_mix"] = ORACLE_TEMPERATURE_MIX


def q_embedding_centroids(sf_dir: str):
    """Per-label embedding centroids (stages/similarity.py::
    grouped_centroids): combiner-style per-batch partial sums in
    integer micro-units, long-form (label, dim, centroid, n)."""
    from hydra_ray.stages.similarity import grouped_centroids

    return grouped_centroids(
        rd.read_parquet(f"{sf_dir}/embeddings.parquet", columns=["label", "embedding"]),
        key="label",
    )


ORACLE_EMBEDDING_CENTROIDS = """
    WITH e AS (
        SELECT label,
               unnest(generate_series(1, len(embedding))) AS dim,
               unnest(embedding) AS x
        FROM embeddings
    )
    SELECT CAST(label AS BIGINT) AS label, dim,
           CAST(sum(CAST(floor(CAST(x AS DOUBLE) * 1e6 + 0.5) AS BIGINT)) AS DOUBLE)
               / 1e6 / count(*) AS centroid,
           count(*) AS n
    FROM e GROUP BY label, dim
"""

QUERIES["embedding_centroids"] = q_embedding_centroids
ORACLES["embedding_centroids"] = ORACLE_EMBEDDING_CENTROIDS


def q_audio_features(sf_dir: str):
    """Audio frame features (stages/multimodal.py::audio_features_batch)
    over per-doc deterministic 256-sample WAVs (same waveform family as
    media_decode): 4 frames × (RMS energy, zero-crossing count), the
    whole path running through the real WAV codec."""
    from hydra_ray.sources.codecs import encode_wav
    from hydra_ray.stages.multimodal import audio_features_batch

    ds = _docs(sf_dir, columns=["doc_id"])

    def make_wavs(t: pa.Table) -> pa.Table:
        ids = t["doc_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        i = np.arange(256)
        payloads = [
            encode_wav(((int(d) * 11 + i * 37) % 2048 - 1024).astype(np.int16), 16000)
            for d in ids
        ]
        return pa.table(
            {"doc_id": pa.array(ids), "payload": pa.array(payloads, type=pa.binary())}
        )

    return ds.map_batches(make_wavs, batch_format="pyarrow").map_batches(
        audio_features_batch, batch_format="pyarrow"
    )


ORACLE_AUDIO_FEATURES = """
    WITH s AS (
        SELECT doc_id, i, i // 64 AS frame,
               CAST((doc_id * 11 + i * 37) % 2048 - 1024 AS DOUBLE) AS x
        FROM (SELECT doc_id, unnest(generate_series(0, 255)) AS i FROM documents)
    ),
    z AS (
        SELECT doc_id, frame, i, x,
               lead(x) OVER (PARTITION BY doc_id, frame ORDER BY i) AS nx
        FROM s
    )
    SELECT doc_id, frame,
           floor(sqrt(sum(x * x) / 64.0) * 1e6 + 0.5) / 1e6 AS rms,
           CAST(sum(CASE WHEN nx IS NOT NULL AND ((x >= 0) <> (nx >= 0))
                         THEN 1 ELSE 0 END) AS BIGINT) AS zcr
    FROM z GROUP BY doc_id, frame
"""

QUERIES["audio_features"] = q_audio_features
ORACLES["audio_features"] = ORACLE_AUDIO_FEATURES


def q_pii_redact(sf_dir: str):
    """PII scrub (stages/text.py::pii_batch) over documents with
    deterministically injected emails / FR-style phone numbers / IPv4s
    (2 of every 3 docs get one of each; the word-soup base text has no
    digits or '@' so injection fully controls the truth). Counts are
    taken stepwise on the progressively-redacted string — that order is
    the operator contract and the oracle reproduces it."""
    from hydra_ray.stages.text import pii_batch

    ds = _docs(sf_dir, columns=["doc_id", "text"])

    def inject(t: pa.Table) -> pa.Table:
        ids = t["doc_id"].to_numpy(zero_copy_only=False)
        texts = t["text"].to_pylist()
        full = [
            txt
            if d % 3 == 0
            else (
                f"{txt} reach user{d}@mail-{d % 7}.org or "
                f"0{1 + d % 9} 23 45 67 89 at 10.{d % 256}.0.{d % 100}"
            )
            for d, txt in zip(ids, texts)
        ]
        return pa.table({"doc_id": pa.array(ids), "text": pa.array(full)})

    return ds.map_batches(inject, batch_format="pyarrow").map_batches(
        pii_batch, batch_format="pyarrow"
    )


ORACLE_PII_REDACT = """
    WITH t AS (
        SELECT doc_id,
               text || CASE WHEN doc_id % 3 = 0 THEN '' ELSE
                 ' reach user' || CAST(doc_id AS VARCHAR) || '@mail-'
                 || CAST(doc_id % 7 AS VARCHAR) || '.org or 0'
                 || CAST(1 + doc_id % 9 AS VARCHAR)
                 || ' 23 45 67 89 at 10.' || CAST(doc_id % 256 AS VARCHAR)
                 || '.0.' || CAST(doc_id % 100 AS VARCHAR) END AS s0
        FROM documents
    ),
    e AS (
        SELECT doc_id, s0,
               CAST(length(regexp_extract_all(s0,
                 '[A-Za-z0-9._%+-]+@[A-Za-z0-9.-]+\\.[A-Za-z]{2,}')) AS BIGINT) AS n_email,
               regexp_replace(s0,
                 '[A-Za-z0-9._%+-]+@[A-Za-z0-9.-]+\\.[A-Za-z]{2,}', '[EMAIL]', 'g') AS s1
        FROM t
    ),
    p AS (
        SELECT doc_id, n_email,
               CAST(length(regexp_extract_all(s1,
                 '\\b0[1-9](?:[ .-][0-9]{2}){4}\\b')) AS BIGINT) AS n_phone,
               regexp_replace(s1,
                 '\\b0[1-9](?:[ .-][0-9]{2}){4}\\b', '[PHONE]', 'g') AS s2
        FROM e
    )
    SELECT doc_id,
           regexp_replace(s2, '\\b(?:[0-9]{1,3}\\.){3}[0-9]{1,3}\\b',
                          '[IP]', 'g') AS text,
           n_email, n_phone,
           CAST(length(regexp_extract_all(s2,
             '\\b(?:[0-9]{1,3}\\.){3}[0-9]{1,3}\\b')) AS BIGINT) AS n_ipv4
    FROM p
"""


QUERIES["pii_redact"] = q_pii_redact
ORACLES["pii_redact"] = ORACLE_PII_REDACT


def q_image_dups(sf_dir: str):
    """Perceptual image dedup: deterministic 16x18 BMPs (groups of <=4
    consecutive doc_ids share one image via base = doc_id - doc_id%4),
    real BMP decode -> integer dHash (stages/multimodal.py::
    image_dhash_batch), then a dhash-keyed shuffle assigns each image
    the min doc_id of its hash group (rep) — the standard duplicate-
    image collapse, fully distributed via keyed_map_partitions."""
    from hydra_ray.sources.codecs import encode_bmp
    from hydra_ray.stages.keyed import keyed_map_partitions
    from hydra_ray.stages.multimodal import image_dhash_batch

    ds = _docs(sf_dir, columns=["doc_id"])
    H, W = 16, 18

    def make_bmps(t: pa.Table) -> pa.Table:
        ids = t["doc_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        y = np.arange(H)[:, None]
        x = np.arange(W)[None, :]
        payloads = []
        for d in ids:
            b = int(d) - int(d) % 4
            img = np.stack(
                [
                    (b * 7 + y * 31 + x * 13) % 256,
                    (b * 11 + y * 17 + x * 29) % 256,
                    (b * 13 + y * 23 + x * 37) % 256,
                ],
                axis=2,
            ).astype(np.uint8)
            payloads.append(encode_bmp(img))
        return pa.table(
            {"doc_id": pa.array(ids), "payload": pa.array(payloads, type=pa.binary())}
        )

    hashed = (
        ds.map_batches(make_bmps, batch_format="pyarrow")
        .map_batches(image_dhash_batch, batch_format="pyarrow")
        .select_columns(["doc_id", "dhash"])
    )

    def assign_rep(df):
        df = df.copy()
        df["rep"] = df.groupby("dhash", sort=False)["doc_id"].transform("min")
        return df

    return keyed_map_partitions(hashed, ["dhash"], assign_rep)


ORACLE_IMAGE_DUPS = """
    WITH px AS (
        SELECT d.doc_id, d.doc_id - d.doc_id % 4 AS b, y.y, x.x
        FROM documents d,
             (SELECT unnest(generate_series(0, 15)) AS y) y,
             (SELECT unnest(generate_series(0, 17)) AS x) x
    ),
    luma AS (
        SELECT doc_id, y // 2 AS gy, x // 2 AS gx,
               (299 * ((b * 7 + y * 31 + x * 13) % 256)
              + 587 * ((b * 11 + y * 17 + x * 29) % 256)
              + 114 * ((b * 13 + y * 23 + x * 37) % 256)) // 1000 AS v
        FROM px
    ),
    cells AS (
        SELECT doc_id, gy, gx, sum(v) AS s
        FROM luma GROUP BY doc_id, gy, gx
    ),
    bits AS (
        SELECT l.doc_id, l.gy * 8 + l.gx AS k,
               CASE WHEN l.s > r.s THEN 1 ELSE 0 END AS bit
        FROM cells l JOIN cells r
          ON l.doc_id = r.doc_id AND l.gy = r.gy AND r.gx = l.gx + 1
    ),
    hashes AS (
        SELECT doc_id,
               lpad(lower(hex(CAST(sum(CAST(bit AS HUGEINT)
                    * (CAST(1 AS HUGEINT) << CAST(k AS INTEGER))) AS UBIGINT))),
                    16, '0') AS dhash
        FROM bits GROUP BY doc_id
    )
    SELECT doc_id, dhash, min(doc_id) OVER (PARTITION BY dhash) AS rep
    FROM hashes
"""


QUERIES["image_dups"] = q_image_dups
ORACLES["image_dups"] = ORACLE_IMAGE_DUPS


def q_frame_sample(sf_dir: str):
    """Video-analogue frame sampling: per doc a deterministic animated
    GIF (2 + doc_id%4 grayscale 6x8 frames) runs through the real
    multi-frame codec (sources/codecs.py::decode_gif_frames) and
    stages/multimodal.py::frame_sample_batch keeps 3 uniformly-spaced
    frames with integer luma sums."""
    from hydra_ray.sources.codecs import encode_gif_frames
    from hydra_ray.stages.multimodal import frame_sample_batch

    ds = _docs(sf_dir, columns=["doc_id"])
    H, W = 6, 8

    def make_gifs(t: pa.Table) -> pa.Table:
        ids = t["doc_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        f = np.arange(6)[:, None, None]
        y = np.arange(H)[None, :, None]
        x = np.arange(W)[None, None, :]
        payloads = []
        for d in ids:
            nf = 2 + int(d) % 4
            v = ((int(d) * 5 + f[:nf] * 19 + y * 31 + x * 13) % 256).astype(np.uint8)
            payloads.append(encode_gif_frames(np.stack([v, v, v], axis=3)))
        return pa.table(
            {"doc_id": pa.array(ids), "payload": pa.array(payloads, type=pa.binary())}
        )

    return ds.map_batches(make_gifs, batch_format="pyarrow").map_batches(
        frame_sample_batch, batch_format="pyarrow"
    )


ORACLE_FRAME_SAMPLE = """
    WITH s AS (
        SELECT d.doc_id, 2 + d.doc_id % 4 AS n_frames, j.j,
               (j.j * (2 + d.doc_id % 4)) // 3 AS frame_idx
        FROM documents d, (SELECT unnest(generate_series(0, 2)) AS j) j
    ),
    px AS (
        SELECT s.doc_id, s.j, s.frame_idx, s.n_frames,
               1000 * ((s.doc_id * 5 + s.frame_idx * 19 + y.y * 31 + x.x * 13) % 256) AS lv
        FROM s,
             (SELECT unnest(generate_series(0, 5)) AS y) y,
             (SELECT unnest(generate_series(0, 7)) AS x) x
    )
    SELECT doc_id, j AS snum, frame_idx, n_frames,
           CAST(sum(lv) AS BIGINT) AS sum_luma
    FROM px GROUP BY doc_id, j, frame_idx, n_frames
"""


QUERIES["frame_sample"] = q_frame_sample
ORACLES["frame_sample"] = ORACLE_FRAME_SAMPLE


def q_model_score(sf_dir: str):
    """Hashed bag-of-words linear classifier (stages/text.py::
    HashedLinearScorer) — the batched-model-inference shape: weight
    table built once per actor in __init__, vectorized hashed-feature
    scoring per batch, integer arithmetic end-to-end so the oracle
    replays the exact splitmix64 → bucket → weight → sum pipeline."""
    from hydra_ray.stages.text import HashedLinearScorer

    ds = _docs(sf_dir, columns=["doc_id", "text"])
    return ds.map_batches(
        HashedLinearScorer,
        batch_format="pyarrow",
        concurrency=(1, 4),
        batch_size=256,
    )


ORACLE_MODEL_SCORE = rf"""
    WITH toks AS (
        SELECT doc_id, unnest(regexp_split_to_array(trim(text), '\s+')) AS w
        FROM documents
    ),
    m_0 AS (
        SELECT doc_id, {_le64_sql("substr(rpad(hex(w), 16, '0'), 1, 16)")} AS src
        FROM toks WHERE w <> ''
    ),
    {_mix64_ctes_sql('m', 'src', 'doc_id')},
    wts AS (
        SELECT doc_id,
               CAST((CAST(v % 1024 AS HUGEINT) * 2654435761) % 4294967296 % 21
                    AS BIGINT) - 10 AS w
        FROM m_5
    ),
    sc AS (SELECT doc_id, CAST(sum(w) AS BIGINT) AS score FROM wts GROUP BY doc_id)
    SELECT d.doc_id, COALESCE(s.score, 0) AS score,
           COALESCE(s.score, 0) > 0 AS keep
    FROM documents d LEFT JOIN sc s USING (doc_id)
"""


QUERIES["model_score"] = q_model_score
ORACLES["model_score"] = ORACLE_MODEL_SCORE


def q_pack_sequences(sf_dir: str):
    """Concat-and-chop sequence packing (stages/pack.py): token counts
    via the shared whitespace-token contract, then a distributed prefix
    sum (per-block sums to the driver, offsets broadcast back) assigns
    each doc its training-sequence id and offset at capacity 512."""
    from hydra_ray.stages.pack import pack_sequences
    from hydra_ray.stages.text import _tokens_arr

    ds = _docs(sf_dir, columns=["doc_id", "text"])

    def count_tokens(t: pa.Table) -> pa.Table:
        text = t["text"]
        if isinstance(text, pa.ChunkedArray):
            text = text.combine_chunks()
        n = pc.cast(pc.list_value_length(_tokens_arr(text)), pa.int64())
        return pa.table({"doc_id": t["doc_id"], "n_tokens": n})

    counted = ds.map_batches(count_tokens, batch_format="pyarrow")
    return pack_sequences(counted, capacity=512)


ORACLE_PACK_SEQUENCES = r"""
    WITH c AS (
        SELECT doc_id,
               CAST(len(regexp_split_to_array(trim(text), '\s+')) AS BIGINT) AS n_tokens
        FROM documents
    ),
    p AS (
        SELECT doc_id, n_tokens,
               COALESCE(sum(n_tokens) OVER (ORDER BY doc_id
                   ROWS BETWEEN UNBOUNDED PRECEDING AND 1 PRECEDING), 0) AS start
        FROM c
    )
    SELECT doc_id, n_tokens, CAST(start // 512 AS BIGINT) AS seq_id,
           CAST(start % 512 AS BIGINT) AS seq_offset
    FROM p
"""


QUERIES["pack_sequences"] = q_pack_sequences
ORACLES["pack_sequences"] = ORACLE_PACK_SEQUENCES


def q_shuffle_shards(sf_dir: str):
    """Deterministic global shuffle into training shards
    (stages/pack.py::shuffle_shards): shard = splitmix64(doc_id+99) %
    8, within-shard position = rank of the hash.  The seeded-rank
    ordering contract (reference ORDER BY random() replacement,
    crawler.py:120-134) applied to corpus layout; reproduced bit-exact
    in SQL via the HUGEINT-limb splitmix64."""
    from hydra_ray.stages.pack import shuffle_shards

    out = shuffle_shards(
        _docs(sf_dir, columns=["doc_id"]), n_shards=8, seed=99
    )
    return out.map_batches(
        lambda t: t.select(["doc_id", "shard", "pos"]), batch_format="pyarrow"
    )


ORACLE_SHUFFLE_SHARDS = f"""
    WITH ss_0 AS (SELECT doc_id, CAST(doc_id + 99 AS UBIGINT) AS v FROM documents),
    {_mix64_ctes_sql("ss", "v", "doc_id")}
    SELECT doc_id, CAST(v % 8 AS BIGINT) AS shard,
           row_number() OVER (PARTITION BY v % 8 ORDER BY v, doc_id) AS pos
    FROM ss_5
"""

QUERIES["shuffle_shards"] = q_shuffle_shards
ORACLES["shuffle_shards"] = ORACLE_SHUFFLE_SHARDS


def q_paragraph_dedup(sf_dir: str):
    """CCNet-style paragraph-level exact dedup (stages/dedup.py::
    paragraph_dedup): 4-token paragraph windows, corpus-wide
    first-occurrence-wins, surviving paragraphs reassembled in order.
    Both keyed shuffles (by paragraph text, then by doc) reproduced in
    SQL with window-function first-wins and ordered string_agg."""
    from hydra_ray.stages.dedup import paragraph_dedup

    return paragraph_dedup(
        _docs(sf_dir, columns=["doc_id", "text"]), para_words=4
    )


ORACLE_PARAGRAPH_DEDUP = r"""
    WITH toks AS (SELECT doc_id, string_split(text, ' ') AS ts FROM documents),
    p AS (
        SELECT doc_id, j,
               array_to_string(list_slice(ts, j * 4 + 1, j * 4 + 4), ' ') AS ptext
        FROM (SELECT doc_id, ts,
                     unnest(generate_series(0,
                         CAST(greatest(ceil(len(ts) / 4.0), 1) AS BIGINT) - 1)) AS j
              FROM toks)
    ),
    k AS (
        SELECT doc_id, j, ptext,
               row_number() OVER (PARTITION BY ptext ORDER BY doc_id, j) = 1 AS keep
        FROM p
    )
    SELECT doc_id,
           count(*) AS n_paras,
           CAST(count(*) FILTER (keep) AS BIGINT) AS n_kept,
           coalesce(string_agg(ptext, ' ' ORDER BY j) FILTER (keep), '') AS new_text
    FROM k GROUP BY doc_id
"""

QUERIES["paragraph_dedup"] = q_paragraph_dedup
ORACLES["paragraph_dedup"] = ORACLE_PARAGRAPH_DEDUP


def q_audio_companding(sf_dir: str):
    """G.711 μ-law/A-law AU round-trip (sources/codecs.py): per doc a
    deterministic full-range waveform — s(i) = ((doc_id*11 + i*37) %
    2048 - 1024) * 32, i<256, hitting every segment incl. the clip
    paths — is AU-encoded with encoding 1 (μ-law) and 27 (A-law),
    decoded back, and summarized as sum / peak / position-weighted sum
    of the DECODED samples.  The oracle reproduces both ITU-T
    quantizers in closed form (seg = floor(log2(biased)) arithmetic),
    so any flipped bit in encode, container, or decode fails the hash."""
    from hydra_ray.sources.codecs import encode_au
    from hydra_ray.stages.multimodal import decode_audio

    ds = _docs(sf_dir, columns=["doc_id"])

    def batch_fn(t: pa.Table) -> pa.Table:
        ids = t["doc_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        i = np.arange(256, dtype=np.int64)
        w = i + 1
        cols: dict[str, list] = {
            "ulaw_sum": [], "ulaw_peak": [], "ulaw_wsum": [],
            "alaw_sum": [], "alaw_peak": [], "alaw_wsum": [],
        }
        for d in ids:
            s = (((int(d) * 11 + i * 37) % 2048) - 1024) * 32
            s16 = s.astype(np.int16)
            for name, enc in (("ulaw", 1), ("alaw", 27)):
                arr, rate = decode_audio(encode_au(s16, 8000, encoding=enc))
                assert rate == 8000
                v = arr[:, 0].astype(np.int64)
                cols[f"{name}_sum"].append(int(v.sum()))
                cols[f"{name}_peak"].append(int(np.abs(v).max()))
                cols[f"{name}_wsum"].append(int((w * v).sum()))
        return pa.table({"doc_id": pa.array(ids), **{k: pa.array(v) for k, v in cols.items()}})

    return ds.map_batches(batch_fn, batch_format="pyarrow")


ORACLE_AUDIO_COMPANDING = r"""
    WITH s AS (
        SELECT doc_id, i,
               ((doc_id * 11 + i * 37) % 2048 - 1024) * 32 AS sv
        FROM (SELECT doc_id, unnest(generate_series(0, 255)) AS i FROM documents)
    ),
    u2 AS (
        SELECT doc_id, i, sv, x < 0 AS sg,
               least(least(abs(x), 8159) + 33, 8191) AS a
        FROM (SELECT doc_id, i, sv, CAST(floor(sv / 4.0) AS BIGINT) AS x FROM s)
    ),
    u3 AS (
        SELECT doc_id, i, sg, a,
               greatest(CAST(floor(log2(a)) AS BIGINT) - 5, 0) AS seg
        FROM u2
    ),
    uo AS (
        SELECT doc_id, i,
               CASE WHEN sg THEN 132 - t ELSE t - 132 END AS uout
        FROM (SELECT doc_id, i, sg,
                     ((a // CAST(power(2, seg + 1) AS BIGINT)) % 16 * 8 + 132)
                         * CAST(power(2, seg) AS BIGINT) AS t
              FROM u3)
    ),
    a2 AS (
        SELECT doc_id, i, x >= 0 AS pos,
               least(CASE WHEN x >= 0 THEN x ELSE -x - 1 END, 4095) AS a
        FROM (SELECT doc_id, i, CAST(floor(sv / 8.0) AS BIGINT) AS x FROM s)
    ),
    a3 AS (
        SELECT doc_id, i, pos, a,
               CASE WHEN a <= 31 THEN 0
                    ELSE CAST(floor(log2(greatest(a, 1))) AS BIGINT) - 4 END AS seg
        FROM a2
    ),
    a4 AS (
        SELECT doc_id, i, pos, seg,
               CASE WHEN seg < 1 THEN (a // 2) % 16
                    ELSE (a // CAST(power(2, seg) AS BIGINT)) % 16 END AS mant
        FROM a3
    ),
    ao AS (
        SELECT doc_id, i, CASE WHEN pos THEN t ELSE -t END AS aout
        FROM (SELECT doc_id, i, pos,
                     CASE WHEN seg = 0 THEN mant * 16 + 8
                          ELSE (mant * 16 + 264) * CAST(power(2, seg - 1) AS BIGINT)
                     END AS t
              FROM a4)
    )
    SELECT uo.doc_id,
           CAST(sum(uout) AS BIGINT) AS ulaw_sum,
           CAST(max(abs(uout)) AS BIGINT) AS ulaw_peak,
           CAST(sum((uo.i + 1) * uout) AS BIGINT) AS ulaw_wsum,
           CAST(sum(aout) AS BIGINT) AS alaw_sum,
           CAST(max(abs(aout)) AS BIGINT) AS alaw_peak,
           CAST(sum((uo.i + 1) * aout) AS BIGINT) AS alaw_wsum
    FROM uo JOIN ao ON ao.doc_id = uo.doc_id AND ao.i = uo.i
    GROUP BY uo.doc_id
"""

QUERIES["audio_companding"] = q_audio_companding
ORACLES["audio_companding"] = ORACLE_AUDIO_COMPANDING


def q_video_mjpeg(sf_dir: str):
    """Real video container path (sources/codecs.py::encode_avi_mjpeg /
    decode_avi_frames): per doc an AVI with 2 + doc_id%3 MJPEG frames —
    16×16 grayscale, 8×8 quadrant constants (doc_id*23 + f*41 + q*53)
    % 256, quality=100 so every frame survives the baseline JPEG codec
    bit-exact — then stages/multimodal.py::frame_sample_batch keeps 2
    uniformly-spaced frames with integer luma sums.  RIFF walker, JPEG
    Huffman/DCT, and the sampler all sit on the hashed path."""
    from hydra_ray.sources.codecs import encode_avi_mjpeg
    from hydra_ray.stages.multimodal import frame_sample_batch

    ds = _docs(sf_dir, columns=["doc_id"])

    def make_avis(t: pa.Table) -> pa.Table:
        ids = t["doc_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        payloads = []
        for d in ids:
            nf = 2 + int(d) % 3
            fr = np.zeros((nf, 16, 16), dtype=np.uint8)
            for f in range(nf):
                for q in range(4):
                    v = (int(d) * 23 + f * 41 + q * 53) % 256
                    fr[f, (q // 2) * 8 : (q // 2) * 8 + 8, (q % 2) * 8 : (q % 2) * 8 + 8] = v
            payloads.append(encode_avi_mjpeg(fr, fps=12, quality=100))
        return pa.table(
            {"doc_id": pa.array(ids), "payload": pa.array(payloads, type=pa.binary())}
        )

    return ds.map_batches(make_avis, batch_format="pyarrow").map_batches(
        lambda t: frame_sample_batch(t, n_samples=2), batch_format="pyarrow"
    )


ORACLE_VIDEO_MJPEG = """
    WITH s AS (
        SELECT d.doc_id, 2 + d.doc_id % 3 AS n_frames, j.j,
               (j.j * (2 + d.doc_id % 3)) // 2 AS frame_idx
        FROM documents d, (SELECT unnest(generate_series(0, 1)) AS j) j
    )
    SELECT doc_id, j AS snum, frame_idx, n_frames,
           CAST(sum(64000 * ((doc_id * 23 + frame_idx * 41 + q.q * 53) % 256))
                AS BIGINT) AS sum_luma
    FROM s, (SELECT unnest(generate_series(0, 3)) AS q) q
    GROUP BY doc_id, j, frame_idx, n_frames
"""

QUERIES["video_mjpeg"] = q_video_mjpeg
ORACLES["video_mjpeg"] = ORACLE_VIDEO_MJPEG


def q_orders_lineitem_join(sf_dir: str):
    """Large×large distributed equi-join (stages/joins.py::hash_join):
    lineitem LEFT JOIN a filtered orders slice (o_orderstatus='F') on
    the order key — both sides corpus-sized, one hash shuffle each, no
    broadcast; unmatched lineitems keep NULL order columns (nullable
    Int64 restore on the co-partition merge)."""
    from hydra_ray.stages.joins import hash_join

    li = rd.read_parquet(
        f"{sf_dir}/lineitem.parquet",
        columns=["l_orderkey", "l_linenumber", "l_quantity", "l_extendedprice"],
    )
    orders = rd.read_parquet(
        f"{sf_dir}/orders.parquet",
        columns=["o_orderkey", "o_custkey", "o_orderstatus", "o_totalprice"],
    )

    def prep_right(t: pa.Table) -> pa.Table:
        t = t.filter(pc.equal(t["o_orderstatus"], "F"))
        return t.rename_columns(
            ["l_orderkey", "o_custkey", "o_orderstatus", "o_totalprice"]
        )

    right = orders.map_batches(prep_right, batch_format="pyarrow")
    return hash_join(li, right, key="l_orderkey", how="left")


ORACLE_ORDERS_LINEITEM_JOIN = """
    SELECT l.l_orderkey, l.l_linenumber, l.l_quantity, l.l_extendedprice,
           o.o_custkey, o.o_orderstatus, o.o_totalprice
    FROM lineitem l
    LEFT JOIN (SELECT * FROM orders WHERE o_orderstatus = 'F') o
           ON o.o_orderkey = l.l_orderkey
"""

QUERIES["orders_lineitem_join"] = q_orders_lineitem_join
ORACLES["orders_lineitem_join"] = ORACLE_ORDERS_LINEITEM_JOIN


# 89-entry IMA step table inlined into the recursive oracle
_IMA_STEPS_SQL = "[7, 8, 9, 10, 11, 12, 13, 14, 16, 17, 19, 21, 23, 25, 28, 31, 34, 37, 41, 45, 50, 55, 60, 66, 73, 80, 88, 97, 107, 118, 130, 143, 157, 173, 190, 209, 230, 253, 279, 307, 337, 371, 408, 449, 494, 544, 598, 658, 724, 796, 876, 963, 1060, 1166, 1282, 1411, 1552, 1707, 1878, 2066, 2272, 2499, 2749, 3024, 3327, 3660, 4026, 4428, 4871, 5358, 5894, 6484, 7132, 7845, 8630, 9493, 10442, 11487, 12635, 13899, 15289, 16818, 18500, 20350, 22385, 24623, 27086, 29794, 32767]"


def q_audio_adpcm(sf_dir: str):
    """IMA ADPCM WAV round-trip (sources/codecs.py): per doc a 64-sample
    sawtooth — s(i) = ((doc_id*11 + i*37) % 2048 - 1024) * 8 — is
    encoded as WAVE_FORMAT_IMA_ADPCM (0x11, 4-bit nibbles, per-block
    predictor/step-index state), decoded back through the magic-routed
    decode_audio, and summarized from the DECODED samples.  The oracle
    replays the full sequential quantizer state machine in a RECURSIVE
    SQL CTE (64 state transitions per doc, step table inlined) — even
    an inherently sequential codec is bit-verifiable."""
    from hydra_ray.sources.codecs import encode_wav_adpcm
    from hydra_ray.stages.multimodal import decode_audio

    ds = _docs(sf_dir, columns=["doc_id"])

    def batch_fn(t: pa.Table) -> pa.Table:
        ids = t["doc_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        i = np.arange(64, dtype=np.int64)
        w = i + 1
        sums, peaks, wsums = [], [], []
        for d in ids:
            s = (((int(d) * 11 + i * 37) % 2048) - 1024) * 8
            arr, rate = decode_audio(encode_wav_adpcm(s.astype(np.int16), 8000))
            assert rate == 8000
            v = arr[:, 0].astype(np.int64)
            sums.append(int(v.sum()))
            peaks.append(int(np.abs(v).max()))
            wsums.append(int((w * v).sum()))
        return pa.table(
            {
                "doc_id": pa.array(ids),
                "adpcm_sum": pa.array(sums),
                "adpcm_peak": pa.array(peaks),
                "adpcm_wsum": pa.array(wsums),
            }
        )

    return ds.map_batches(batch_fn, batch_format="pyarrow")


ORACLE_AUDIO_ADPCM = """
    WITH RECURSIVE sig AS (
        SELECT doc_id, i, ((doc_id * 11 + i * 37) % 2048 - 1024) * 8 AS sv
        FROM (SELECT doc_id, unnest(generate_series(0, 63)) AS i FROM documents)
    ),
    st AS (
        SELECT doc_id, i, sv AS pred, 0 AS idx, sv AS dec
        FROM sig WHERE i = 0
      UNION ALL
        SELECT doc_id, i,
               greatest(-32768, least(32767,
                   CASE WHEN sign = 1 THEN pred - vp ELSE pred + vp END)) AS pred,
               greatest(0, least(88, idx +
                   CASE WHEN delta < 4 THEN -1 WHEN delta = 4 THEN 2
                        WHEN delta = 5 THEN 4 WHEN delta = 6 THEN 6 ELSE 8 END)) AS idx,
               greatest(-32768, least(32767,
                   CASE WHEN sign = 1 THEN pred - vp ELSE pred + vp END)) AS dec
        FROM (
            SELECT doc_id, i, pred, idx, sign,
                   b2 * 4 + b1 * 2 + b0 AS delta,
                   step // 8 + b2 * step + b1 * (step // 2) + b0 * (step // 4) AS vp
            FROM (
                SELECT *, CASE WHEN d - b2 * step - b1 * (step // 2) >= step // 4
                               THEN 1 ELSE 0 END AS b0
                FROM (
                    SELECT *, CASE WHEN d - b2 * step >= step // 2 THEN 1 ELSE 0 END AS b1
                    FROM (
                        SELECT st.doc_id, n.i, st.pred, st.idx,
                               CASE WHEN n.sv < st.pred THEN 1 ELSE 0 END AS sign,
                               abs(n.sv - st.pred) AS d,
                               STEPS_LIST[st.idx + 1] AS step,
                               CASE WHEN abs(n.sv - st.pred) >= STEPS_LIST[st.idx + 1]
                                    THEN 1 ELSE 0 END AS b2
                        FROM st JOIN sig n ON n.doc_id = st.doc_id AND n.i = st.i + 1
                    )
                )
            )
        )
    )
    SELECT doc_id,
           CAST(sum(dec) AS BIGINT) AS adpcm_sum,
           CAST(max(abs(dec)) AS BIGINT) AS adpcm_peak,
           CAST(sum((i + 1) * dec) AS BIGINT) AS adpcm_wsum
    FROM st GROUP BY doc_id
"""

QUERIES["audio_adpcm"] = q_audio_adpcm
ORACLES["audio_adpcm"] = ORACLE_AUDIO_ADPCM.replace("STEPS_LIST", _IMA_STEPS_SQL)


def q_bpe_train(sf_dir: str):
    """Corpus-scale BPE tokenizer training (stages/text.py::bpe_train):
    12 merge rules learned from the distinct-word frequency table —
    one corpus pass, then vocabulary-sized iterations with block-local
    pair pre-aggregation.  Iterative (each merge depends on the last),
    so no SQL oracle; pinned instead by the in-memory Sennrich
    reference parity test (test_textops.py) and deterministic
    tie-breaks (rows-only driver check)."""
    from hydra_ray.stages.text import bpe_train

    return bpe_train(_docs(sf_dir, columns=["text"]), n_merges=12)


QUERIES["bpe_train"] = q_bpe_train


def q_training_shards(sf_dir: str):
    """Flagship corpus→training-layout chain (pipelines/curate.py::
    training_shards): quality gate → exact dedup → semi-join →
    32/8-token chunking → capacity-256 concat-and-chop packing →
    splitmix64(seq_id+7)%4 shard assignment; the whole chain — window
    prefix sum and HUGEINT-limb hash included — replayed in SQL."""
    from hydra_ray.pipelines.curate import training_shards

    return training_shards(
        _docs(sf_dir, columns=["doc_id", "text"]),
        capacity=256,
        n_shards=4,
        seed=7,
    )


ORACLE_TRAINING_SHARDS = (
    r"""
    WITH q AS (
        SELECT doc_id, text
        FROM (
            SELECT doc_id, text,
                   CAST(array_length(regexp_split_to_array(trim(text), '\s+')) AS BIGINT) AS n_tokens,
                   round(length(regexp_replace(text, '[^0-9]', '', 'g'))
                         / greatest(length(text), 1), 6) AS digit_ratio
            FROM documents
        )
        WHERE n_tokens >= 5 AND n_tokens <= 10000 AND digit_ratio < 0.3
    ),
    surv AS (
        SELECT doc_id, text FROM q
        QUALIFY row_number() OVER (PARTITION BY md5(text) ORDER BY doc_id) = 1
    ),
    toks AS (SELECT doc_id, string_split(text, ' ') AS ts FROM surv),
    c AS (
        SELECT doc_id, len(ts) AS n,
               unnest(generate_series(0,
                   CAST(greatest(ceil((len(ts) - 8.0) / 24.0), 1) AS BIGINT) - 1)) AS j
        FROM toks
    ),
    ch AS (
        SELECT doc_id, j AS chunk_id,
               least(j * 24 + 32, n) - j * 24 AS n_toks,
               doc_id * 4096 + j AS ok
        FROM c
    ),
    p AS (
        SELECT doc_id, chunk_id, n_toks,
               COALESCE(sum(n_toks) OVER (ORDER BY ok
                   ROWS BETWEEN UNBOUNDED PRECEDING AND 1 PRECEDING), 0) AS start
        FROM ch
    ),
    sh_0 AS (
        SELECT doc_id, chunk_id, n_toks,
               CAST(start // 256 AS BIGINT) AS seq_id,
               CAST(start % 256 AS BIGINT) AS seq_offset,
               CAST(start // 256 + 7 AS UBIGINT) AS v
        FROM p
    ),
"""
    + _mix64_ctes_sql("sh", "v", "doc_id, chunk_id, n_toks, seq_id, seq_offset")
    + r"""
    SELECT doc_id, chunk_id, n_toks, seq_id, seq_offset,
           CAST(v % 4 AS BIGINT) AS shard
    FROM sh_5
"""
)

QUERIES["training_shards"] = q_training_shards
ORACLES["training_shards"] = ORACLE_TRAINING_SHARDS


def q_char_dup_spans(sf_dir: str):
    """Character-level ExactSubstr spans (stages/dedup.py::
    char_dup_spans): maximal per-doc char spans covered by a 30-char
    window occurring >= 2 times anywhere in the corpus — rolling-hash
    candidates, exact gram verify, island merge."""
    from hydra_ray.stages.dedup import char_dup_spans

    return char_dup_spans(
        rd.read_parquet(f"{sf_dir}/documents.parquet", columns=["doc_id", "text"]),
        L=30,
        min_occ=2,
    )


ORACLE_CHAR_DUP_SPANS = """
    WITH pos AS (
        SELECT doc_id, text,
               unnest(generate_series(1, greatest(length(text) - 29, 0))) AS p
        FROM documents
    ),
    grams AS (SELECT doc_id, p, substr(text, p, 30) AS g FROM pos),
    dup AS (SELECT g FROM grams GROUP BY g HAVING count(*) >= 2),
    hits AS (SELECT doc_id, p FROM grams WHERE g IN (SELECT g FROM dup)),
    isl AS (
        SELECT doc_id, p,
               sum(CASE WHEN p - lag_p <= 30 THEN 0 ELSE 1 END)
                 OVER (PARTITION BY doc_id ORDER BY p) AS grp
        FROM (SELECT doc_id, p,
                     lag(p) OVER (PARTITION BY doc_id ORDER BY p) AS lag_p
              FROM hits)
    )
    SELECT doc_id, min(p) AS start_chr, max(p) + 29 AS end_chr,
           count(*) AS n_windows
    FROM isl GROUP BY doc_id, grp
"""

QUERIES["char_dup_spans"] = q_char_dup_spans
ORACLES["char_dup_spans"] = ORACLE_CHAR_DUP_SPANS


def q_sa_dup_spans(sf_dir: str):
    """ExactSubstr spans via the distributed SUFFIX ARRAY (stages/
    suffix.py::sa_dup_spans — Lee et al. 2022 §4's actual formulation,
    prefix-doubling rank tables; round-3 verdict item 8): maximal
    per-doc char spans covered by a 20-char window occurring >= 3 times
    anywhere in the corpus. Window equality is decided by two integer
    rank lookups — no window text or hash ever enters a shuffle, so the
    result is exact by construction (different params than
    char_dup_spans on purpose: both paths stay independently gated)."""
    from hydra_ray.stages.suffix import sa_dup_spans

    return sa_dup_spans(
        rd.read_parquet(f"{sf_dir}/documents.parquet", columns=["doc_id", "text"]),
        min_len=20,
        min_occ=3,
    )


ORACLE_SA_DUP_SPANS = """
    WITH pos AS (
        SELECT doc_id, text,
               unnest(generate_series(1, greatest(length(text) - 19, 0))) AS p
        FROM documents
    ),
    grams AS (SELECT doc_id, p, substr(text, p, 20) AS g FROM pos),
    dup AS (SELECT g FROM grams GROUP BY g HAVING count(*) >= 3),
    hits AS (SELECT doc_id, p FROM grams WHERE g IN (SELECT g FROM dup)),
    isl AS (
        SELECT doc_id, p,
               sum(CASE WHEN p - lag_p <= 20 THEN 0 ELSE 1 END)
                 OVER (PARTITION BY doc_id ORDER BY p) AS grp
        FROM (SELECT doc_id, p,
                     lag(p) OVER (PARTITION BY doc_id ORDER BY p) AS lag_p
              FROM hits)
    )
    SELECT doc_id, min(p) AS start_chr, max(p) + 19 AS end_chr,
           count(*) AS n_windows
    FROM isl GROUP BY doc_id, grp
"""

QUERIES["sa_dup_spans"] = q_sa_dup_spans
ORACLES["sa_dup_spans"] = ORACLE_SA_DUP_SPANS


def q_c4_filter(sf_dir: str):
    """C4 line/page cleaning (Raffel et al. 2020 §2.2; stages/text.py::
    c4_filter_batch). The synthetic documents are single-line token
    streams, so the query first synthesizes deterministic line
    structure — 'batch' ends a sentence+line, 'stream' introduces a
    page-poisoning '{', 'window' becomes the line-dropping word
    'javascript' — with the SAME string replaces as the SQL oracle,
    then applies the vectorized filter. Shuffle-free map_batches."""
    import pyarrow.compute as pc

    from hydra_ray.stages.text import c4_filter_batch

    def pre(batch: pa.Table) -> pa.Table:
        t = batch["text"]
        if isinstance(t, pa.ChunkedArray):
            t = t.combine_chunks()
        t = pc.replace_substring(pc.fill_null(t, ""), pattern="batch", replacement="batch.\n")
        t = pc.replace_substring(t, pattern="stream", replacement="stream {")
        t = pc.replace_substring(t, pattern="window", replacement="javascript")
        return c4_filter_batch(batch.set_column(batch.schema.get_field_index("text"), "text", t))

    return _docs(sf_dir, columns=["doc_id", "text"]).map_batches(
        pre, batch_format="pyarrow"
    )


ORACLE_C4_FILTER = """
    WITH pre AS (
        SELECT doc_id,
               replace(replace(replace(COALESCE(text, ''),
                   'batch', 'batch.' || chr(10)),
                   'stream', 'stream {'),
                   'window', 'javascript') AS t
        FROM documents
    ),
    ls AS (SELECT doc_id, string_split(t, chr(10)) AS arr FROM pre),
    lines AS (
        SELECT doc_id, i, arr[i] AS ln
        FROM (SELECT doc_id, arr,
                     unnest(generate_series(1, len(arr))) AS i FROM ls)
    ),
    judged AS (
        SELECT doc_id, i, ln,
               (right(rtrim(ln, ' ' || chr(9) || chr(13) || chr(12) || chr(11)), 1)
                    IN ('.', '!', '?', '"'))
               AND len(regexp_split_to_array(trim(ln), '\\s+')) >= 3
               AND NOT contains(lower(ln), 'javascript') AS kept,
               contains(lower(ln), 'lorem ipsum') OR contains(ln, '{') AS poison
        FROM lines
    ),
    agg AS (
        SELECT doc_id,
               count(*) AS n_lines,
               count(*) FILTER (WHERE kept) AS n_kept,
               bool_or(poison) AS poisoned,
               string_agg(CASE WHEN kept THEN ln END, chr(10) ORDER BY i) AS joined
        FROM judged GROUP BY doc_id
    )
    SELECT doc_id, n_lines, n_kept,
           (NOT poisoned) AND n_kept >= 5 AS keep,
           CASE WHEN (NOT poisoned) AND n_kept >= 5
                THEN COALESCE(joined, '') ELSE '' END AS cleaned
    FROM agg
"""

QUERIES["c4_filter"] = q_c4_filter
ORACLES["c4_filter"] = ORACLE_C4_FILTER


def q_word_freq_topk(sf_dir: str):
    """Corpus vocabulary: distributed word count (the classic wordcount,
    Zipf-head extraction for tokenizer/vocab prep). Per-block explode +
    Arrow group_by partials → grouped_agg merge (one row per
    (word, block) over the shuffle, not one per token) → top-50 by
    count desc / word asc."""
    import pyarrow.compute as pc

    from hydra_ray.stages.agg import grouped_agg
    from hydra_ray.stages.text import _tokens_arr

    def explode(t: pa.Table) -> pa.Table:
        toks = _tokens_arr(pc.fill_null(t["text"].combine_chunks(), ""))
        flat = pc.list_flatten(toks)
        flat = flat.filter(pc.not_equal(flat, ""))
        return pa.table({"word": flat})

    counts = grouped_agg(
        _docs(sf_dir, columns=["text"]).map_batches(explode, batch_format="pyarrow"),
        ["word"],
        [("word", "count", "n")],
    )
    return counts.sort(["n", "word"], descending=[True, False]).limit(50)


ORACLE_WORD_FREQ_TOPK = r"""
    WITH toks AS (
        SELECT unnest(regexp_split_to_array(trim(COALESCE(text, '')), '\s+')) AS word
        FROM documents
    )
    SELECT word, count(*) AS n FROM toks WHERE word <> ''
    GROUP BY word ORDER BY n DESC, word LIMIT 50
"""

QUERIES["word_freq_topk"] = q_word_freq_topk
ORACLES["word_freq_topk"] = ORACLE_WORD_FREQ_TOPK


def q_normalize_text(sf_dir: str):
    """Unicode text normalization (NFC compose + lowercase) — the
    canonicalization pass every multilingual corpus runs before dedup/
    tokenization. The ASCII synthetic docs are first given deterministic
    work to do — combining acute accents after every 'a' (U+0301, NFC
    composes to 'á') and an uppercased 'THE' — with the SAME replaces
    as the SQL oracle. Shuffle-free vectorized map_batches; emits
    codepoint lengths before/after so composition is observable."""
    import pyarrow.compute as pc

    from hydra_ray.stages.text import normalize_text_batch

    def norm(batch: pa.Table) -> pa.Table:
        t = batch["text"]
        if isinstance(t, pa.ChunkedArray):
            t = t.combine_chunks()
        t = pc.replace_substring(pc.fill_null(t, ""), pattern="a", replacement="á")
        t = pc.replace_substring(t, pattern="the", replacement="THE")
        return normalize_text_batch(
            batch.set_column(batch.schema.get_field_index("text"), "text", t)
        )

    return _docs(sf_dir, columns=["doc_id", "text"]).map_batches(
        norm, batch_format="pyarrow"
    )


ORACLE_NORMALIZE_TEXT = """
    WITH pre AS (
        SELECT doc_id,
               replace(replace(COALESCE(text, ''), 'a', 'a' || chr(769)),
                       'the', 'THE') AS t
        FROM documents
    )
    SELECT doc_id,
           length(t) AS n_cp_raw,
           length(lower(nfc_normalize(t))) AS n_cp_norm,
           lower(nfc_normalize(t)) AS norm
    FROM pre
"""

QUERIES["normalize_text"] = q_normalize_text
ORACLES["normalize_text"] = ORACLE_NORMALIZE_TEXT


def q_table_profile(sf_dir: str):
    """Per-column profile of lineitem's numeric columns (stages/agg.py::
    table_profile): row/null counts, exact distinct, min/max — one
    combiner partial per (column, block), driver-side merge."""
    from hydra_ray.stages.agg import table_profile

    cols = [
        "l_orderkey", "l_partkey", "l_suppkey", "l_linenumber",
        "l_quantity", "l_extendedprice", "l_discount", "l_tax",
    ]
    return table_profile(
        rd.read_parquet(f"{sf_dir}/lineitem.parquet", columns=cols), cols
    )


ORACLE_TABLE_PROFILE = "\nUNION ALL\n".join(
    f"""SELECT '{c}' AS col_name, count(*) AS n_rows,
        count(*) - count({c}) AS n_null, count(DISTINCT {c}) AS n_distinct,
        CAST(min({c}) AS DOUBLE) AS min_val, CAST(max({c}) AS DOUBLE) AS max_val
        FROM lineitem"""
    for c in [
        "l_orderkey", "l_partkey", "l_suppkey", "l_linenumber",
        "l_quantity", "l_extendedprice", "l_discount", "l_tax",
    ]
)

QUERIES["table_profile"] = q_table_profile
ORACLES["table_profile"] = ORACLE_TABLE_PROFILE


def q_pagerank(sf_dir: str):
    """Integer fixed-point PageRank (stages/graph.py::pagerank — the
    engine's iterative-algorithm showcase; 10 iterations, bit-exact
    under any block split). The graph is synthesized deterministically
    from events: distinct edges (user_id % 101 → event_id % 101, no
    self-loops) — identical construction in the SQL oracle, which
    unrolls the same 10 integer iterations as chained CTEs."""
    from hydra_ray.stages.agg import grouped_agg
    from hydra_ray.stages.graph import pagerank

    def mk_edges(t: pa.Table) -> pa.Table:
        src = t["user_id"].to_numpy(zero_copy_only=False).astype(np.int64) % 101
        dst = t["event_id"].to_numpy(zero_copy_only=False).astype(np.int64) % 101
        keep = src != dst
        return pa.table({"src": pa.array(src[keep]), "dst": pa.array(dst[keep])})

    raw = rd.read_parquet(f"{sf_dir}/events.parquet", columns=["user_id", "event_id"]).map_batches(
        mk_edges, batch_format="pyarrow"
    )
    edges = grouped_agg(raw, ["src", "dst"], [("src", "count", "_n")]).drop_columns(["_n"])
    return pagerank(edges, iters=10)


def _pagerank_oracle(iters: int = 10, scale: int = 10**12) -> str:
    head = f"""
    WITH edges AS (
        SELECT DISTINCT user_id % 101 AS src, event_id % 101 AS dst
        FROM events WHERE user_id % 101 <> event_id % 101
    ),
    nodes AS (SELECT src AS node FROM edges UNION SELECT dst FROM edges),
    deg AS (SELECT src, count(*) AS outdeg FROM edges GROUP BY src),
    nn AS (SELECT count(*) AS n FROM nodes),
    pr0 AS (SELECT node, CAST({scale} // (SELECT n FROM nn) AS BIGINT) AS r FROM nodes)"""
    steps = []
    for k in range(1, iters + 1):
        steps.append(f""",
    pr{k} AS (
        SELECT n.node,
               CAST((15 * {scale}) // (100 * (SELECT n FROM nn))
                    + (85 * COALESCE(s.m, 0)) // 100 AS BIGINT) AS r
        FROM nodes n LEFT JOIN (
            SELECT e.dst AS node, sum(p.r // d.outdeg) AS m
            FROM edges e
            JOIN pr{k - 1} p ON p.node = e.src
            JOIN deg d ON d.src = e.src
            GROUP BY e.dst
        ) s ON s.node = n.node)""")
    return head + "".join(steps) + f"\n    SELECT node, r FROM pr{iters} ORDER BY node"


ORACLE_PAGERANK = _pagerank_oracle()

QUERIES["pagerank"] = q_pagerank
ORACLES["pagerank"] = ORACLE_PAGERANK


def q_tfidf_keywords(sf_dir: str):
    """Per-document keyword extraction (stages/text.py::tfidf_keywords):
    top-3 terms per doc by tf DESC, document-frequency ASC, term ASC —
    TF-IDF ranking made integer-exact (idf is monotone in df). One
    explode pass (tf is block-local — a doc is one row), a grouped_agg
    for df, one vocab broadcast, no row shuffle."""
    from hydra_ray.stages.text import tfidf_keywords

    return tfidf_keywords(_docs(sf_dir, columns=["doc_id", "text"]), k=3)


ORACLE_TFIDF_KEYWORDS = r"""
    WITH toks AS (
        SELECT doc_id,
               unnest(regexp_split_to_array(trim(COALESCE(text, '')), '\s+')) AS term
        FROM documents
    ),
    tf AS (
        SELECT doc_id, term, count(*) AS tf
        FROM toks WHERE term <> '' GROUP BY doc_id, term
    ),
    df AS (SELECT term, count(*) AS df FROM tf GROUP BY term)
    SELECT doc_id, term, tf, df, rank FROM (
        SELECT t.doc_id, t.term, t.tf, d.df,
               row_number() OVER (
                   PARTITION BY t.doc_id
                   ORDER BY t.tf DESC, d.df ASC, t.term ASC) AS rank
        FROM tf t JOIN df d USING (term))
    WHERE rank <= 3
"""

QUERIES["tfidf_keywords"] = q_tfidf_keywords
ORACLES["tfidf_keywords"] = ORACLE_TFIDF_KEYWORDS


def q_triangle_count(sf_dir: str):
    """Global triangle count (stages/graph.py::triangle_count) over the
    same deterministic events graph as `pagerank` (user_id % 101 →
    event_id % 101, no self-loops), treated as undirected with
    canonical (min, max) edges. Bitset wedge-intersection, fully
    vectorized, one broadcast of the adjacency bit-matrix."""
    from hydra_ray.stages.graph import triangle_count

    def mk_edges(t: pa.Table) -> pa.Table:
        src = t["user_id"].to_numpy(zero_copy_only=False).astype(np.int64) % 101
        dst = t["event_id"].to_numpy(zero_copy_only=False).astype(np.int64) % 101
        return pa.table({"src": pa.array(src), "dst": pa.array(dst)})

    raw = rd.read_parquet(f"{sf_dir}/events.parquet", columns=["user_id", "event_id"]).map_batches(
        mk_edges, batch_format="pyarrow"
    )
    return triangle_count(raw)


ORACLE_TRIANGLE_COUNT = """
    WITH e AS (
        SELECT DISTINCT least(user_id % 101, event_id % 101) AS u,
                        greatest(user_id % 101, event_id % 101) AS v
        FROM events WHERE user_id % 101 <> event_id % 101
    ),
    nodes AS (SELECT u AS node FROM e UNION SELECT v FROM e)
    SELECT (SELECT count(*) FROM nodes) AS n_nodes,
           (SELECT count(*) FROM e) AS n_edges,
           (SELECT count(*)
            FROM e a JOIN e b ON b.u = a.v
                     JOIN e c ON c.u = a.u AND c.v = b.v) AS n_triangles
"""

QUERIES["triangle_count"] = q_triangle_count
ORACLES["triangle_count"] = ORACLE_TRIANGLE_COUNT


def q_rollup_quantity(sf_dir: str):
    """GROUP BY ROLLUP(l_returnflag, l_linestatus) (stages/agg.py::
    rollup_agg): the data is scanned once at the finest level (combiner
    partials); coarser levels re-aggregate the finest RESULT. sum_qty is
    exact (integral-valued doubles)."""
    from hydra_ray.stages.agg import rollup_agg

    return rollup_agg(
        rd.read_parquet(
            f"{sf_dir}/lineitem.parquet",
            columns=["l_returnflag", "l_linestatus", "l_quantity"],
        ),
        ["l_returnflag", "l_linestatus"],
        [("l_quantity", "count", "n_rows"), ("l_quantity", "sum", "sum_qty")],
    )


ORACLE_ROLLUP_QUANTITY = """
    SELECT l_returnflag, l_linestatus,
           count(*) AS n_rows, sum(l_quantity) AS sum_qty
    FROM lineitem
    GROUP BY ROLLUP (l_returnflag, l_linestatus)
"""

QUERIES["rollup_quantity"] = q_rollup_quantity
ORACLES["rollup_quantity"] = ORACLE_ROLLUP_QUANTITY


def q_pivot_event_types(sf_dir: str):
    """Pivot: per user bucket (user_id % 7), one count column per event
    type + total — grouped_agg partials on (bucket, event_type), then a
    driver-side widen of the tiny (7 × 5)-combo result."""
    from hydra_ray.sources.store import ds_to_tables
    from hydra_ray.stages.agg import grouped_agg

    def mk(t: pa.Table) -> pa.Table:
        b = t["user_id"].to_numpy(zero_copy_only=False).astype(np.int64) % 7
        return pa.table({"bucket": pa.array(b), "event_type": t["event_type"]})

    long = grouped_agg(
        rd.read_parquet(f"{sf_dir}/events.parquet", columns=["user_id", "event_type"]).map_batches(
            mk, batch_format="pyarrow"
        ),
        ["bucket", "event_type"],
        [("event_type", "count", "n")],
    )
    parts = [t for t in ds_to_tables(long) if t.num_rows]
    tbl = pa.concat_tables(parts, promote_options="default").to_pandas()
    wide = tbl.pivot_table(index="bucket", columns="event_type", values="n", fill_value=0, aggfunc="sum")
    for et in ["click", "error", "purchase", "signup", "view"]:
        if et not in wide.columns:
            wide[et] = 0
    wide = wide[["click", "error", "purchase", "signup", "view"]].astype("int64")
    wide["total"] = wide.sum(axis=1)
    return wide.reset_index()


ORACLE_PIVOT_EVENT_TYPES = """
    SELECT user_id % 7 AS bucket,
           count(*) FILTER (WHERE event_type = 'click') AS click,
           count(*) FILTER (WHERE event_type = 'error') AS error,
           count(*) FILTER (WHERE event_type = 'purchase') AS purchase,
           count(*) FILTER (WHERE event_type = 'signup') AS signup,
           count(*) FILTER (WHERE event_type = 'view') AS view,
           count(*) AS total
    FROM events GROUP BY bucket
"""

QUERIES["pivot_event_types"] = q_pivot_event_types
ORACLES["pivot_event_types"] = ORACLE_PIVOT_EVENT_TYPES


def q_knn_pq(sf_dir: str):
    """Product-quantization ANN ACCURACY gate (stages/similarity.py::
    knn_pq): the memory-bound ANN scale path — corpus compressed to
    m=16 uint8 codes per vector, corpus-tiled asymmetric-distance scan
    per query block with a running top-R shortlist, exact fp32
    shortlist re-rank, zero shuffles. k-means codebooks are not
    SQL-expressible, so the query measures recall against the exact
    brute-force answer and emits {n, recall_ok: recall ≥ 0.85}
    (measured ≈0.98 on uniform vectors), which the oracle pins."""
    from hydra_ray.stages.similarity import knn_pq

    ds = rd.read_parquet(f"{sf_dir}/embeddings.parquet", columns=["vec_id", "embedding"])
    approx = knn_pq(ds, k=1)
    return _ann_recall_gate(ds, approx, threshold=0.85)


QUERIES["knn_pq"] = q_knn_pq
ORACLES["knn_pq"] = ORACLE_ANN_RECALL
ORACLES["knn_ivf"] = ORACLE_ANN_RECALL
QUERIES["knn_hnsw"] = q_knn_hnsw
ORACLES["knn_hnsw"] = ORACLE_ANN_RECALL


def q_bloom_semi_join(sf_dir: str):
    """Bloom-prefiltered semi-join (stages/joins.py::bloom_semi_join):
    lineitem rows whose order is status 'F' — the key set's 1 MB bitmap
    broadcasts once and definite-negative rows are dropped before the
    exact semi_join, which removes the false positives, so the result
    equals the plain IN-subquery."""
    from hydra_ray.stages.joins import bloom_semi_join

    keys = (
        rd.read_parquet(f"{sf_dir}/orders.parquet", columns=["o_orderkey", "o_orderstatus"])
        .filter(expr="o_orderstatus == 'F'")
        .map_batches(
            lambda t: pa.table({"l_orderkey": t["o_orderkey"]}), batch_format="pyarrow"
        )
    )
    left = rd.read_parquet(
        f"{sf_dir}/lineitem.parquet",
        columns=["l_orderkey", "l_linenumber", "l_quantity"],
    )
    return bloom_semi_join(left, keys, "l_orderkey")


ORACLE_BLOOM_SEMI_JOIN = """
    SELECT l_orderkey, l_linenumber, l_quantity
    FROM lineitem
    WHERE l_orderkey IN (SELECT o_orderkey FROM orders WHERE o_orderstatus = 'F')
"""

QUERIES["bloom_semi_join"] = q_bloom_semi_join
ORACLES["bloom_semi_join"] = ORACLE_BLOOM_SEMI_JOIN


def q_dataset_split(sf_dir: str):
    """Seeded deterministic train/val/test split (90/5/5) by splitmix64
    of the doc id — parallelism-invariant, reproducible, and bit-exact
    in SQL (same mixer reproduced with HUGEINT limbs — the numeric
    doc_id is the hash input). Returns per-split counts + token
    totals."""
    from hydra_ray.stages.agg import grouped_agg
    from hydra_ray.stages.text import _tokens_arr
    from hydra_ray.state.cuckoo import _mix64

    def tag(t: pa.Table) -> pa.Table:
        base = (
            t["doc_id"].to_pandas().astype(np.int64).to_numpy().astype(np.uint64)
        )
        h = _mix64(base) % np.uint64(100)
        split = np.where(h < 90, "train", np.where(h < 95, "val", "test"))
        text = t["text"]
        if isinstance(text, pa.ChunkedArray):
            text = text.combine_chunks()
        n_tok = pc.cast(pc.list_value_length(_tokens_arr(pc.fill_null(text, ""))), pa.int64())
        return pa.table({"split": pa.array(split, pa.string()), "n_tokens": n_tok})

    return grouped_agg(
        _docs(sf_dir, columns=["doc_id", "text"]).map_batches(tag, batch_format="pyarrow"),
        ["split"],
        [("n_tokens", "count", "n_docs"), ("n_tokens", "sum", "total_tokens")],
    )


ORACLE_DATASET_SPLIT = f"""
    WITH sp_0 AS (SELECT CAST(doc_id AS UBIGINT) AS v, text FROM documents),
    {_mix64_ctes_sql("sp", "v", "text")}
    SELECT split, count(*) AS n_docs,
           CAST(sum(array_length(regexp_split_to_array(trim(COALESCE(text, '')), '\\s+'))) AS BIGINT) AS total_tokens
    FROM (SELECT CASE WHEN v % 100 < 90 THEN 'train'
                      WHEN v % 100 < 95 THEN 'val'
                      ELSE 'test' END AS split, text
          FROM sp_5)
    GROUP BY split
"""

QUERIES["dataset_split"] = q_dataset_split
ORACLES["dataset_split"] = ORACLE_DATASET_SPLIT


def q_gopher_quality(sf_dir: str):
    """Full Gopher/MassiveText document-quality rule set (stages/
    text.py::gopher_quality_batch) with sandbox-calibrated thresholds
    (min_words=10, min_stopwords=1 — synthetic docs are ~25 tokens; the
    production defaults are the Rae et al. values). Shuffle-free, one
    vectorized pass."""
    from hydra_ray.stages.text import gopher_quality_batch

    return _docs(sf_dir, columns=["doc_id", "text"]).map_batches(
        lambda t: gopher_quality_batch(t, min_words=10, min_stopwords=1),
        batch_format="pyarrow",
    )


ORACLE_GOPHER_QUALITY = r"""
    WITH base AS (SELECT doc_id, COALESCE(text, '') AS t FROM documents),
    toks AS (
        SELECT doc_id, t, regexp_split_to_array(trim(t), '\s+') AS ts FROM base
    ),
    flat AS (SELECT doc_id, unnest(ts) AS w FROM toks),
    per AS (
        SELECT doc_id,
               count(*) FILTER (WHERE regexp_matches(w, '[a-zA-Z]')) AS n_alpha,
               count(*) FILTER (WHERE w IN
                   ('the','a','of','and','to','in','is','with')) AS n_stop
        FROM flat GROUP BY doc_id
    ),
    stats AS (
        SELECT doc_id,
               len(ts) AS n_words,
               greatest(len(ts), 1) AS nw,
               length(regexp_replace(t, '\s+', '', 'g')) AS tok_chars,
               length(t) - length(replace(t, '#', '')) AS n_hash,
               (length(t) - length(replace(t, '...', ''))) // 3 AS n_ell
        FROM toks
    )
    SELECT s.doc_id,
           s.n_words,
           round(s.tok_chars * 1.0 / s.nw, 6) AS mean_word_len,
           round((s.n_hash + s.n_ell) * 1.0 / s.nw, 6) AS symbol_ratio,
           round(COALESCE(p.n_alpha, 0) * 1.0 / s.nw, 6) AS frac_alpha,
           COALESCE(p.n_stop, 0) AS n_stop,
           (s.n_words >= 10 AND s.n_words <= 100000
            AND round(s.tok_chars * 1.0 / s.nw, 6) BETWEEN 3.0 AND 10.0
            AND round((s.n_hash + s.n_ell) * 1.0 / s.nw, 6) <= 0.1
            AND round(COALESCE(p.n_alpha, 0) * 1.0 / s.nw, 6) >= 0.8
            AND COALESCE(p.n_stop, 0) >= 1) AS keep
    FROM stats s LEFT JOIN per p USING (doc_id)
"""

QUERIES["gopher_quality"] = q_gopher_quality
ORACLES["gopher_quality"] = ORACLE_GOPHER_QUALITY


def q_jaccard_set_join(sf_dir: str):
    """All-pairs token-set similarity self-join at Jaccard ≥ 0.8
    (stages/dedup.py::jaccard_set_join — PPJoin prefix filtering:
    candidates bucketed only by each doc's rarest |s|−⌈t·s⌉+1 tokens
    under the global (df, token) order; sparse token-join verify with
    hot buckets split into chunk-pair tasks; pair dedup co-partition)."""
    from hydra_ray.stages.dedup import jaccard_set_join

    return jaccard_set_join(_docs(sf_dir, columns=["doc_id", "text"]), threshold=0.8)


ORACLE_JACCARD_SET_JOIN = r"""
    WITH toks AS (
        SELECT DISTINCT doc_id,
               unnest(regexp_split_to_array(trim(COALESCE(text, '')), '\s+')) AS w
        FROM documents
    ),
    toks_ne AS (SELECT doc_id, w FROM toks WHERE w <> ''),
    sizes AS (SELECT doc_id, count(*) AS s FROM toks_ne GROUP BY doc_id),
    inter AS (
        SELECT a.doc_id AS da, b.doc_id AS db, count(*) AS i
        FROM toks_ne a JOIN toks_ne b ON a.w = b.w AND a.doc_id < b.doc_id
        GROUP BY 1, 2
    )
    SELECT da, db, round(i * 1.0 / (sa.s + sb.s - i), 6) AS jaccard
    FROM inter
    JOIN sizes sa ON sa.doc_id = da
    JOIN sizes sb ON sb.doc_id = db
    WHERE i * 1.0 / (sa.s + sb.s - i) >= 0.8
"""

QUERIES["jaccard_set_join"] = q_jaccard_set_join
ORACLES["jaccard_set_join"] = ORACLE_JACCARD_SET_JOIN


def q_token_entropy(sf_dir: str):
    """Unigram Shannon entropy per document (stages/text.py::
    token_entropy_batch) — shuffle-free, one Arrow group_by per block."""
    from hydra_ray.stages.text import token_entropy_batch

    return _docs(sf_dir, columns=["doc_id", "text"]).map_batches(
        token_entropy_batch, batch_format="pyarrow"
    )


ORACLE_TOKEN_ENTROPY = r"""
    WITH toks AS (
        SELECT doc_id,
               unnest(regexp_split_to_array(trim(COALESCE(text, '')), '\s+')) AS w
        FROM documents
    ),
    tf AS (SELECT doc_id, w, count(*) AS c FROM toks GROUP BY doc_id, w),
    n AS (SELECT doc_id, CAST(sum(c) AS BIGINT) AS n_tokens FROM tf GROUP BY doc_id)
    SELECT n.doc_id, n.n_tokens,
           round(log2(greatest(n.n_tokens, 1))
                 - sum(c * log2(c)) / greatest(n.n_tokens, 1), 6) AS entropy
    FROM tf JOIN n USING (doc_id)
    GROUP BY n.doc_id, n.n_tokens
"""

QUERIES["token_entropy"] = q_token_entropy
ORACLES["token_entropy"] = ORACLE_TOKEN_ENTROPY


def q_pmi_bigrams(sf_dir: str):
    """Corpus collocations: top-40 adjacent-token bigrams by PMI
    (pointwise mutual information) among bigrams occurring ≥ 5 times.
    PMI = log2(c_xy · N_uni² / (N_bi · c_x · c_y)) — all counts from two
    grouped_agg partial passes (unigrams + adjacent bigrams); the
    driver ranks the post-aggregation result (vocab²-bounded, tiny).
    Deterministic order: pmi DESC (rounded 6 dp), then bigram ASC."""
    from hydra_ray.sources.store import ds_to_tables
    from hydra_ray.stages.agg import grouped_agg
    from hydra_ray.stages.text import _tokens_arr

    def unigrams(t: pa.Table) -> pa.Table:
        text = t["text"]
        if isinstance(text, pa.ChunkedArray):
            text = text.combine_chunks()
        toks = _tokens_arr(pc.fill_null(text, ""))
        flat = pc.list_flatten(toks)
        return pa.table({"w": flat}).filter(pc.not_equal(flat, ""))

    def bigrams(t: pa.Table) -> pa.Table:
        text = t["text"]
        if isinstance(text, pa.ChunkedArray):
            text = text.combine_chunks()
        toks = _tokens_arr(pc.fill_null(text, ""))
        lens = pc.list_value_length(toks).to_numpy(zero_copy_only=False)
        flat = np.asarray(pc.list_flatten(toks).to_pandas(), dtype=object)
        starts = np.concatenate([[0], np.cumsum(lens)[:-1]])
        keep = np.ones(len(flat), dtype=bool)
        ends = starts + lens - 1
        keep[ends[lens > 0]] = False  # last token of each doc opens no bigram
        left = flat[:-1][keep[:-1]] if len(flat) else flat
        right = flat[1:][keep[:-1]] if len(flat) else flat
        ok = (left != "") & (right != "")
        return pa.table(
            {
                "x": pa.array(left[ok], pa.string()),
                "y": pa.array(right[ok], pa.string()),
            }
        )

    docs = _docs(sf_dir, columns=["text"]).materialize()
    uni_ds = grouped_agg(
        docs.map_batches(unigrams, batch_format="pyarrow"), ["w"], [("w", "count", "c")]
    )
    bi_ds = grouped_agg(
        docs.map_batches(bigrams, batch_format="pyarrow"), ["x", "y"], [("x", "count", "c_xy")]
    )
    uni = pa.concat_tables([t for t in ds_to_tables(uni_ds) if t.num_rows]).to_pandas()
    bi = pa.concat_tables([t for t in ds_to_tables(bi_ds) if t.num_rows]).to_pandas()
    n_uni = int(uni["c"].sum())
    n_bi = int(bi["c_xy"].sum())
    cx = uni.set_index("w")["c"]
    bi = bi[bi["c_xy"] >= 5].copy()
    from hydra_ray.stages.text import round6

    bi["pmi"] = round6(
        np.log2(
            bi["c_xy"].to_numpy().astype(np.float64)
            * float(n_uni) * float(n_uni)
            / (
                float(n_bi)
                * cx.loc[bi["x"]].to_numpy().astype(np.float64)
                * cx.loc[bi["y"]].to_numpy().astype(np.float64)
            )
        )
    )
    bi = bi.sort_values(["pmi", "x", "y"], ascending=[False, True, True], kind="mergesort").head(40)
    return pa.Table.from_pandas(
        bi[["x", "y", "c_xy", "pmi"]].reset_index(drop=True), preserve_index=False
    )


ORACLE_PMI_BIGRAMS = r"""
    WITH toks AS (
        SELECT doc_id, regexp_split_to_array(trim(COALESCE(text, '')), '\s+') AS ts
        FROM documents
    ),
    uni AS (
        SELECT w, count(*) AS c FROM (
            SELECT unnest(ts) AS w FROM toks) WHERE w <> '' GROUP BY w
    ),
    bi AS (
        SELECT x, y, count(*) AS c_xy FROM (
            SELECT ts[i] AS x, ts[i + 1] AS y
            FROM (SELECT ts, unnest(generate_series(1, greatest(len(ts) - 1, 0))) AS i
                  FROM toks))
        WHERE x <> '' AND y <> '' GROUP BY x, y
    ),
    tot AS (SELECT (SELECT sum(c) FROM uni) AS n_uni, (SELECT sum(c_xy) FROM bi) AS n_bi)
    SELECT x, y, c_xy,
           round(log2(c_xy * n_uni * n_uni * 1.0 / (n_bi * ux.c * uy.c)), 6) AS pmi
    FROM bi, tot
    JOIN uni ux ON ux.w = x
    JOIN uni uy ON uy.w = y
    WHERE c_xy >= 5
    ORDER BY pmi DESC, x, y LIMIT 40
"""

QUERIES["pmi_bigrams"] = q_pmi_bigrams
ORACLES["pmi_bigrams"] = ORACLE_PMI_BIGRAMS


def q_event_funnel(sf_dir: str):
    """Funnel analysis over the events stream: per user, did a signup →
    click → purchase sequence occur IN ORDER (strictly increasing
    timestamps, event_id tiebreak)? Output: one row per funnel depth
    with the user count that reached it. Per-user step times are
    min-aggregates — grouped_agg partials, no row shuffle; the funnel
    fold runs on the (users × steps)-sized result."""
    from hydra_ray.sources.store import ds_to_tables
    from hydra_ray.stages.agg import grouped_agg

    steps = ["signup", "click", "purchase"]

    def prep(t: pa.Table) -> pa.Table:
        et = t["event_type"]
        if isinstance(et, pa.ChunkedArray):
            et = et.combine_chunks()
        keep = pc.is_in(et, value_set=pa.array(steps))
        ts_us = pc.cast(t["ts"], pa.int64()).to_numpy(zero_copy_only=False)
        eid = t["event_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        # sortable key: microseconds * 1000 + event_id tiebreak
        k = ts_us * 1000 + eid % 1000
        return pa.table(
            {"user_id": t["user_id"], "event_type": et, "k": pa.array(k)}
        ).filter(keep)

    mins = grouped_agg(
        rd.read_parquet(f"{sf_dir}/events.parquet", columns=["user_id", "event_type", "ts", "event_id"]).map_batches(
            prep, batch_format="pyarrow"
        ),
        ["user_id", "event_type"],
        [("k", "min", "first_k")],
    )
    tbl = pa.concat_tables([t for t in ds_to_tables(mins) if t.num_rows]).to_pandas()
    wide = tbl.pivot_table(index="user_id", columns="event_type", values="first_k", aggfunc="min")
    for c in steps:
        if c not in wide.columns:
            wide[c] = np.nan
    reached1 = wide["signup"].notna()
    reached2 = reached1 & wide["click"].notna() & (wide["click"] > wide["signup"])
    reached3 = reached2 & wide["purchase"].notna() & (wide["purchase"] > wide["click"])
    return pa.table(
        {
            "step": pa.array(steps, pa.string()),
            "depth": pa.array([1, 2, 3], pa.int64()),
            "n_users": pa.array(
                [int(reached1.sum()), int(reached2.sum()), int(reached3.sum())], pa.int64()
            ),
        }
    )


ORACLE_EVENT_FUNNEL = """
    WITH firsts AS (
        SELECT user_id, event_type,
               min(CAST(epoch_us(ts) AS BIGINT) * 1000 + event_id % 1000) AS k
        FROM events
        WHERE event_type IN ('signup', 'click', 'purchase')
        GROUP BY user_id, event_type
    ),
    wide AS (
        SELECT user_id,
               min(k) FILTER (WHERE event_type = 'signup') AS s,
               min(k) FILTER (WHERE event_type = 'click') AS c,
               min(k) FILTER (WHERE event_type = 'purchase') AS p
        FROM firsts GROUP BY user_id
    )
    SELECT * FROM (
        SELECT 'signup' AS step, 1 AS depth,
               count(*) FILTER (WHERE s IS NOT NULL) AS n_users FROM wide
        UNION ALL
        SELECT 'click', 2,
               count(*) FILTER (WHERE s IS NOT NULL AND c IS NOT NULL AND c > s) FROM wide
        UNION ALL
        SELECT 'purchase', 3,
               count(*) FILTER (WHERE s IS NOT NULL AND c IS NOT NULL AND c > s
                                  AND p IS NOT NULL AND p > c) FROM wide)
"""

QUERIES["event_funnel"] = q_event_funnel
ORACLES["event_funnel"] = ORACLE_EVENT_FUNNEL


def q_retention_cohorts(sf_dir: str):
    """Weekly retention cohorts: users grouped by first-activity week
    (integer epoch-week — no calendar ambiguity), counted as active per
    week offset. Two grouped_agg passes (first week per user; distinct
    user-week activity); the cohort × offset fold runs on the tiny
    post-aggregation result."""
    from hydra_ray.sources.store import ds_to_tables
    from hydra_ray.stages.agg import grouped_agg

    def weeks(t: pa.Table) -> pa.Table:
        us = pc.cast(t["ts"], pa.int64()).to_numpy(zero_copy_only=False)
        wk = us // (86_400_000_000 * 7)
        return pa.table({"user_id": t["user_id"], "week": pa.array(wk.astype(np.int64))})

    ev = rd.read_parquet(f"{sf_dir}/events.parquet", columns=["user_id", "ts"]).map_batches(
        weeks, batch_format="pyarrow"
    ).materialize()
    first = grouped_agg(ev, ["user_id"], [("week", "min", "cohort")])
    active = grouped_agg(ev, ["user_id", "week"], [("week", "count", "_n")])

    f = pa.concat_tables([t for t in ds_to_tables(first) if t.num_rows]).to_pandas()
    a = pa.concat_tables([t for t in ds_to_tables(active) if t.num_rows]).to_pandas()
    m = a.merge(f, on="user_id")
    m["offset"] = (m["week"] - m["cohort"]).astype("int64")
    out = (
        m.groupby(["cohort", "offset"], sort=True)["user_id"]
        .nunique()
        .rename("n_users")
        .reset_index()
    )
    out["n_users"] = out["n_users"].astype("int64")
    return pa.Table.from_pandas(out, preserve_index=False)


ORACLE_RETENTION_COHORTS = """
    WITH wk AS (
        SELECT user_id,
               CAST(epoch_us(ts) AS BIGINT) // (86400000000 * 7) AS week
        FROM events
    ),
    first AS (SELECT user_id, min(week) AS cohort FROM wk GROUP BY user_id)
    SELECT cohort, week - cohort AS "offset", count(DISTINCT user_id) AS n_users
    FROM wk JOIN first USING (user_id)
    GROUP BY cohort, week - cohort
"""

QUERIES["retention_cohorts"] = q_retention_cohorts
ORACLES["retention_cohorts"] = ORACLE_RETENTION_COHORTS


def q_price_histogram(sf_dir: str):
    """Fixed-width histogram of l_extendedprice (bin width 5000) —
    integer-exact bin assignment, combiner partials, one tiny merge."""
    from hydra_ray.stages.agg import grouped_agg

    def bins(t: pa.Table) -> pa.Table:
        x = t["l_extendedprice"].to_numpy(zero_copy_only=False)
        b = np.floor(x / 5000.0).astype(np.int64)
        return pa.table({"bin": pa.array(b)})

    return grouped_agg(
        rd.read_parquet(f"{sf_dir}/lineitem.parquet", columns=["l_extendedprice"]).map_batches(
            bins, batch_format="pyarrow"
        ),
        ["bin"],
        [("bin", "count", "n")],
    )


ORACLE_PRICE_HISTOGRAM = """
    SELECT CAST(floor(l_extendedprice / 5000.0) AS BIGINT) AS bin, count(*) AS n
    FROM lineitem GROUP BY 1
"""

QUERIES["price_histogram"] = q_price_histogram
ORACLES["price_histogram"] = ORACLE_PRICE_HISTOGRAM


def q_bpe_encode(sf_dir: str):
    """BPE tokenizer train→apply round trip (stages/text.py::bpe_train +
    bpe_encode): 12 merges learned from the corpus, then every document
    encoded with the broadcast merge table (unique-word memoization per
    block). Rows-only (iterative merges are not SQL-expressible);
    train/apply parity is pinned by tests."""
    from hydra_ray.stages.text import bpe_encode, bpe_train

    docs = _docs(sf_dir, columns=["doc_id", "text"]).materialize()
    merges = bpe_train(docs, n_merges=12)
    return bpe_encode(docs, merges)


QUERIES["bpe_encode"] = q_bpe_encode


def q_minhash_incremental(sf_dir: str):
    """Incremental (streaming) MinHash dedup: documents with numeric
    doc_id % 5 == 0 play the NEW crawl batch, the rest the existing
    corpus — only cross-side near-dup pairs are emitted and verified
    (stages/dedup.py dedup_minhash(cross_of=...)); same-side pairs
    never materialize, so corpus×corpus work is skipped. The full LSH
    pipeline including the side filter is reproduced in SQL."""
    from hydra_ray.stages.dedup import dedup_minhash

    def is_new(ids: np.ndarray) -> np.ndarray:
        return np.asarray([int(x) % 5 == 0 for x in ids], dtype=bool)

    return dedup_minhash(
        _docs(sf_dir, columns=["doc_id", "text"]), threshold=0.5, cross_of=is_new
    )


QUERIES["minhash_incremental"] = q_minhash_incremental
ORACLES["minhash_incremental"] = _minhash_oracle_sql(
    threshold=0.5,
    pair_cond="AND (CAST(x.doc_id AS BIGINT) % 5 = 0) <> (CAST(y.doc_id AS BIGINT) % 5 = 0)",
)


def q_grouped_mode(sf_dir: str):
    """Most-frequent event_type per user bucket (mode with count-desc /
    value-asc tiebreak) — grouped_agg partials on (bucket, event_type),
    then a vectorized rank on the combo-sized result."""
    from hydra_ray.sources.store import ds_to_tables
    from hydra_ray.stages.agg import grouped_agg

    def mk(t: pa.Table) -> pa.Table:
        b = t["user_id"].to_numpy(zero_copy_only=False).astype(np.int64) % 50
        return pa.table({"bucket": pa.array(b), "event_type": t["event_type"]})

    long = grouped_agg(
        rd.read_parquet(f"{sf_dir}/events.parquet", columns=["user_id", "event_type"]).map_batches(
            mk, batch_format="pyarrow"
        ),
        ["bucket", "event_type"],
        [("event_type", "count", "n")],
    )
    t = pa.concat_tables([x for x in ds_to_tables(long) if x.num_rows]).to_pandas()
    t = t.sort_values(["bucket", "n", "event_type"], ascending=[True, False, True], kind="mergesort")
    out = t.drop_duplicates("bucket").rename(columns={"event_type": "mode_event"})
    return pa.Table.from_pandas(out.reset_index(drop=True), preserve_index=False)


ORACLE_GROUPED_MODE = """
    SELECT bucket, mode_event, n FROM (
        SELECT user_id % 50 AS bucket, event_type AS mode_event,
               count(*) AS n,
               row_number() OVER (PARTITION BY user_id % 50
                                  ORDER BY count(*) DESC, event_type ASC) AS rn
        FROM events GROUP BY 1, 2)
    WHERE rn = 1
"""

QUERIES["grouped_mode"] = q_grouped_mode
ORACLES["grouped_mode"] = ORACLE_GROUPED_MODE


def q_price_outliers(sf_dir: str):
    """IQR outlier flags: lineitems whose extendedprice falls outside
    [q1 − 1.5·IQR, q3 + 1.5·IQR] of their l_returnflag group. Quantiles
    come from grouped_stats (pandas linear interpolation == DuckDB
    quantile_cont — proven parity); the per-group bounds broadcast and
    the flag pass is shuffle-free. Returns per-group outlier counts."""
    from hydra_ray.sources.store import ds_to_tables
    from hydra_ray.stages.agg import grouped_agg, grouped_stats

    li = rd.read_parquet(
        f"{sf_dir}/lineitem.parquet", columns=["l_returnflag", "l_extendedprice"]
    ).materialize()
    stats = pa.concat_tables(
        [t for t in ds_to_tables(grouped_stats(li, "l_returnflag", "l_extendedprice", quantiles=(0.25, 0.75))) if t.num_rows]
    ).to_pandas()
    bounds = {}
    for r in stats.itertuples(index=False):
        q1, q3 = r.q25, r.q75
        iqr = q3 - q1
        bounds[r.l_returnflag] = (q1 - 1.5 * iqr, q3 + 1.5 * iqr)
    import ray

    b_ref = ray.put(bounds)

    def flag(t: pa.Table) -> pa.Table:
        bd = ray.get(b_ref)
        flags = np.zeros(len(t), dtype=bool)
        keys = t["l_returnflag"].to_numpy(zero_copy_only=False)
        x = t["l_extendedprice"].to_numpy(zero_copy_only=False)
        for k, (lo, hi) in bd.items():
            m = keys == k
            flags[m] = (x[m] < lo) | (x[m] > hi)
        return pa.table({"l_returnflag": t["l_returnflag"], "is_outlier": pa.array(flags)})

    return grouped_agg(
        li.map_batches(flag, batch_format="pyarrow"),
        ["l_returnflag"],
        [("is_outlier", "count", "n_rows"), ("is_outlier", "sum", "n_outliers")],
    )


ORACLE_PRICE_OUTLIERS = """
    WITH q AS (
        SELECT l_returnflag,
               quantile_cont(l_extendedprice, 0.25) AS q1,
               quantile_cont(l_extendedprice, 0.75) AS q3
        FROM lineitem GROUP BY l_returnflag
    )
    SELECT l.l_returnflag, count(*) AS n_rows,
           CAST(sum(CASE WHEN l.l_extendedprice < q1 - 1.5 * (q3 - q1)
                           OR l.l_extendedprice > q3 + 1.5 * (q3 - q1)
                         THEN 1 ELSE 0 END) AS BIGINT) AS n_outliers
    FROM lineitem l JOIN q USING (l_returnflag)
    GROUP BY l.l_returnflag
"""

QUERIES["price_outliers"] = q_price_outliers
ORACLES["price_outliers"] = ORACLE_PRICE_OUTLIERS


def q_daily_active_users(sf_dir: str):
    """DAU: distinct users per epoch-day. Two grouped_agg passes — the
    first dedups (day, user) pairs (one row per pair per block over the
    wire), the second counts pairs per day. No row-level shuffle."""
    from hydra_ray.stages.agg import grouped_agg

    def days(t: pa.Table) -> pa.Table:
        us = pc.cast(t["ts"], pa.int64()).to_numpy(zero_copy_only=False)
        return pa.table(
            {
                "day": pa.array((us // 86_400_000_000).astype(np.int64)),
                "user_id": t["user_id"],
            }
        )

    pairs = grouped_agg(
        rd.read_parquet(f"{sf_dir}/events.parquet", columns=["user_id", "ts"]).map_batches(
            days, batch_format="pyarrow"
        ),
        ["day", "user_id"],
        [("user_id", "count", "_n")],
    )
    return grouped_agg(pairs, ["day"], [("user_id", "count", "dau")])


ORACLE_DAILY_ACTIVE_USERS = """
    SELECT CAST(epoch_us(ts) AS BIGINT) // 86400000000 AS day,
           count(DISTINCT user_id) AS dau
    FROM events GROUP BY 1
"""

QUERIES["daily_active_users"] = q_daily_active_users
ORACLES["daily_active_users"] = ORACLE_DAILY_ACTIVE_USERS


def q_monthly_order_growth(sf_dir: str):
    """Orders per epoch-month (30-day buckets) with month-over-month
    delta — grouped_agg partials plus a months-sized driver fold."""
    from hydra_ray.sources.store import ds_to_tables
    from hydra_ray.stages.agg import grouped_agg

    def months(t: pa.Table) -> pa.Table:
        us = pc.cast(t["o_orderdate"], pa.int64()).to_numpy(zero_copy_only=False)
        return pa.table({"month": pa.array((us // (86_400_000_000 * 30)).astype(np.int64))})

    counts = grouped_agg(
        rd.read_parquet(f"{sf_dir}/orders.parquet", columns=["o_orderdate"]).map_batches(
            months, batch_format="pyarrow"
        ),
        ["month"],
        [("month", "count", "n_orders")],
    )
    t = pa.concat_tables([x for x in ds_to_tables(counts) if x.num_rows]).to_pandas()
    t = t.sort_values("month").reset_index(drop=True)
    prev = t["n_orders"].shift(1)
    t["delta"] = (t["n_orders"] - prev).fillna(0).astype("int64")
    # growth vs previous month; NaN (first month) → emit as float64 NaN
    t["growth"] = np.where(
        prev.notna() & (prev > 0),
        np.floor(np.abs(t["n_orders"] / prev) * 1e6 + 0.5) / 1e6,
        np.nan,
    )
    return pa.Table.from_pandas(t, preserve_index=False)


ORACLE_MONTHLY_ORDER_GROWTH = """
    WITH m AS (
        SELECT CAST(epoch_us(o_orderdate) AS BIGINT) // (86400000000 * 30) AS month,
               count(*) AS n_orders
        FROM orders GROUP BY 1
    )
    SELECT month, n_orders,
           CAST(COALESCE(n_orders - lag(n_orders) OVER (ORDER BY month), 0) AS BIGINT) AS delta,
           round(n_orders * 1.0 / lag(n_orders) OVER (ORDER BY month), 6) AS growth
    FROM m
"""

QUERIES["monthly_order_growth"] = q_monthly_order_growth
ORACLES["monthly_order_growth"] = ORACLE_MONTHLY_ORDER_GROWTH


def q_brand_nation_volume(sf_dir: str):
    """Three-way star join: lineitem volume by part brand × supplier
    nation. Both dimension sides (part keys→brand, supplier→nation
    name) broadcast once via ray.put and attach with vectorized
    pc.index_in inside one lineitem pass; the aggregate is grouped_agg
    partials. Sum of l_quantity is integral-valued — exact at any
    order."""
    from hydra_ray.stages.agg import grouped_agg

    part = rd.read_parquet(f"{sf_dir}/part.parquet", columns=["p_partkey", "p_brand"]).to_pandas()
    supp = rd.read_parquet(f"{sf_dir}/supplier.parquet", columns=["s_suppkey", "s_nationkey"]).to_pandas()
    nation = rd.read_parquet(f"{sf_dir}/nation.parquet", columns=["n_nationkey", "n_name"]).to_pandas()
    supp = supp.merge(nation, left_on="s_nationkey", right_on="n_nationkey")
    pk = pa.array(part["p_partkey"].to_numpy())
    pb = pa.array(part["p_brand"].to_numpy(), pa.string())
    sk = pa.array(supp["s_suppkey"].to_numpy())
    sn = pa.array(supp["n_name"].to_numpy(), pa.string())
    dims_ref = ray.put((pk, pb, sk, sn))

    def attach(t: pa.Table) -> pa.Table:
        pkk, pbb, skk, snn = ray.get(dims_ref)
        brand = pbb.take(pc.index_in(t["l_partkey"].combine_chunks(), value_set=pkk))
        nat = snn.take(pc.index_in(t["l_suppkey"].combine_chunks(), value_set=skk))
        return pa.table(
            {"p_brand": brand, "n_name": nat, "l_quantity": t["l_quantity"]}
        )

    return grouped_agg(
        rd.read_parquet(
            f"{sf_dir}/lineitem.parquet", columns=["l_partkey", "l_suppkey", "l_quantity"]
        ).map_batches(attach, batch_format="pyarrow"),
        ["p_brand", "n_name"],
        [("l_quantity", "count", "n_items"), ("l_quantity", "sum", "sum_qty")],
    )


ORACLE_BRAND_NATION_VOLUME = """
    SELECT p.p_brand, n.n_name,
           count(*) AS n_items, sum(l.l_quantity) AS sum_qty
    FROM lineitem l
    JOIN part p ON p.p_partkey = l.l_partkey
    JOIN supplier s ON s.s_suppkey = l.l_suppkey
    JOIN nation n ON n.n_nationkey = s.s_nationkey
    GROUP BY p.p_brand, n.n_name
"""

QUERIES["brand_nation_volume"] = q_brand_nation_volume
ORACLES["brand_nation_volume"] = ORACLE_BRAND_NATION_VOLUME


def q_webp_roundtrip(sf_dir: str):
    """WebP-lossless round-trip (sources/webp.py — real VP8L bitstream:
    subtract-green transform, canonical prefix codes, 17/18 zero-run
    code-length coding): per doc a deterministic 10×10 RGB frame —
    pixel(r,c,k) = (doc_id*5 + r*17 + c*29 + k*71) % 256 — is
    VP8L-encoded then decoded back through the decode_image router; the
    compared stats (per-channel means + a position-weighted checksum)
    are computed from the DECODED array, so any flipped bit or pixel
    permutation anywhere in the codec fails the closed-form oracle."""
    from hydra_ray.sources.webp import encode_webp_lossless
    from hydra_ray.stages.multimodal import decode_image

    ds = _docs(sf_dir, columns=["doc_id"])

    def batch_fn(t: pa.Table) -> pa.Table:
        ids = t["doc_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        r = np.arange(10).reshape(10, 1, 1)
        c = np.arange(10).reshape(1, 10, 1)
        k = np.arange(3).reshape(1, 1, 3)
        wgt = (1 + r + 17 * c + 289 * k).astype(np.int64)
        means = np.zeros((len(ids), 3), dtype=np.float64)
        chk = np.zeros(len(ids), dtype=np.int64)
        for j, d in enumerate(ids):
            img = ((int(d) * 5 + r * 17 + c * 29 + k * 71) % 256).astype(np.uint8)
            dec = decode_image(encode_webp_lossless(img))
            assert dec.shape == (10, 10, 3)
            means[j] = dec.reshape(-1, 3).mean(axis=0)
            chk[j] = int((dec.astype(np.int64) * wgt).sum())
        return pa.table(
            {
                "doc_id": pa.array(ids),
                "wb_mean_r": pa.array(np.round(means[:, 0], 6)),
                "wb_mean_g": pa.array(np.round(means[:, 1], 6)),
                "wb_mean_b": pa.array(np.round(means[:, 2], 6)),
                "wb_chk": pa.array(chk),
            }
        )

    return ds.map_batches(batch_fn, batch_format="pyarrow")


ORACLE_WEBP_ROUNDTRIP = """
    WITH px AS (
        SELECT doc_id, k,
               avg(CAST((doc_id * 5 + r * 17 + c * 29 + k * 71) % 256 AS DOUBLE)) AS m,
               sum(CAST((doc_id * 5 + r * 17 + c * 29 + k * 71) % 256 AS BIGINT)
                   * (1 + r + 17 * c + 289 * k)) AS s
        FROM (SELECT doc_id, unnest(generate_series(0, 9)) AS r FROM documents),
             (SELECT unnest(generate_series(0, 9)) AS c),
             (SELECT unnest(generate_series(0, 2)) AS k)
        GROUP BY doc_id, k
    )
    SELECT p0.doc_id,
           round(p0.m, 6) AS wb_mean_r, round(p1.m, 6) AS wb_mean_g,
           round(p2.m, 6) AS wb_mean_b,
           CAST(p0.s + p1.s + p2.s AS BIGINT) AS wb_chk
    FROM px p0
    JOIN px p1 ON p1.doc_id = p0.doc_id AND p1.k = 1
    JOIN px p2 ON p2.doc_id = p0.doc_id AND p2.k = 2
    WHERE p0.k = 0
"""

QUERIES["webp_roundtrip"] = q_webp_roundtrip
ORACLES["webp_roundtrip"] = ORACLE_WEBP_ROUNDTRIP


def q_jpeg_progressive(sf_dir: str):
    """Progressive-JPEG round-trip (sources/codecs.py::
    encode_jpeg_progressive + the SOF2 decode path — spectral selection,
    successive approximation, DC/AC refinement scans; round-3 verdict
    item 7): per doc a 16×16 grayscale frame of four 8×8-constant
    blocks v(d,R,C) = (d*7 + R*31 + C*57) % 256 — block-constant inputs
    at quality 100 quantize to DC-only coefficients, so the 8-scan
    progressive round-trip is EXACT and the decoded stats (mean +
    position-weighted checksum) have a closed-form SQL oracle. Any
    refinement-bit or EOB desync anywhere in the codec shifts pixels
    and fails the hash."""
    from hydra_ray.sources.codecs import encode_jpeg_progressive
    from hydra_ray.stages.multimodal import decode_image

    ds = _docs(sf_dir, columns=["doc_id"])

    def batch_fn(t: pa.Table) -> pa.Table:
        ids = t["doc_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        r = np.arange(16).reshape(16, 1)
        c = np.arange(16).reshape(1, 16)
        wgt = (1 + r + 17 * c).astype(np.int64)
        means = np.zeros(len(ids), dtype=np.float64)
        chk = np.zeros(len(ids), dtype=np.int64)
        for j, d in enumerate(ids):
            img = ((int(d) * 7 + (r // 8) * 31 + (c // 8) * 57) % 256).astype(np.uint8)
            dec = decode_image(encode_jpeg_progressive(img, quality=100))
            assert dec.shape == (16, 16)
            means[j] = dec.astype(np.float64).mean()
            chk[j] = int((dec.astype(np.int64) * wgt).sum())
        return pa.table(
            {
                "doc_id": pa.array(ids),
                "jp_mean": pa.array(np.round(means, 6)),
                "jp_chk": pa.array(chk),
            }
        )

    return ds.map_batches(batch_fn, batch_format="pyarrow")


ORACLE_JPEG_PROGRESSIVE = """
    WITH px AS (
        SELECT doc_id,
               avg(CAST((doc_id * 7 + (r // 8) * 31 + (c // 8) * 57) % 256 AS DOUBLE)) AS m,
               sum(CAST((doc_id * 7 + (r // 8) * 31 + (c // 8) * 57) % 256 AS BIGINT)
                   * (1 + r + 17 * c)) AS s
        FROM (SELECT doc_id, unnest(generate_series(0, 15)) AS r FROM documents),
             (SELECT unnest(generate_series(0, 15)) AS c)
        GROUP BY doc_id
    )
    SELECT doc_id, round(m, 6) AS jp_mean, CAST(s AS BIGINT) AS jp_chk FROM px
"""

QUERIES["jpeg_progressive"] = q_jpeg_progressive
ORACLES["jpeg_progressive"] = ORACLE_JPEG_PROGRESSIVE


def q_jaccard_join_salted(sf_dir: str):
    """PPJoin self-join on a NON-degenerate corpus: every doc gains two
    pair-unique salt tokens (s<doc_id//2>x / s<doc_id//2>y), so at
    threshold 0.95 only consecutive-pair docs with identical base token
    sets match — J = (n+2)/(n+2) = 1 for them, and ≤ n/(n+4) ≤ 31/35
    < 0.95 for every cross pair (the base vocabulary has 31 words).
    At t=0.95 each doc's prefix is exactly its 2 globally-rarest
    tokens — the salts — so candidate buckets have ≤2 docs and the
    verify is output-sized: PPJoin's prefix filter doing its job. (The
    raw-corpus `jaccard_set_join` at t=0.8 is the stress case for the
    hot-bucket chunk-pair splitting; this query is the bench-headline
    representative of the op on realistic near-dup structure.)"""
    from hydra_ray.stages.dedup import jaccard_set_join

    def add_salt(t: pa.Table) -> pa.Table:
        ids = t["doc_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        text = t["text"].to_pylist()
        salted = [
            f"{s or ''} s{d // 2}x s{d // 2}y" for s, d in zip(text, ids)
        ]
        return pa.table({"doc_id": t["doc_id"], "text": pa.array(salted, pa.string())})

    ds = _docs(sf_dir, columns=["doc_id", "text"]).map_batches(
        add_salt, batch_format="pyarrow"
    )
    return jaccard_set_join(ds, threshold=0.95)


ORACLE_JACCARD_JOIN_SALTED = r"""
    WITH salted AS (
        SELECT doc_id,
               trim(COALESCE(text, '')) || ' s' || CAST(doc_id // 2 AS VARCHAR) || 'x s'
                   || CAST(doc_id // 2 AS VARCHAR) || 'y' AS text
        FROM documents
    ),
    toks AS (
        SELECT DISTINCT doc_id,
               unnest(regexp_split_to_array(trim(text), '\s+')) AS w
        FROM salted
    ),
    toks_ne AS (SELECT doc_id, w FROM toks WHERE w <> ''),
    sizes AS (SELECT doc_id, count(*) AS s FROM toks_ne GROUP BY doc_id),
    inter AS (
        SELECT a.doc_id AS da, b.doc_id AS db, count(*) AS i
        FROM toks_ne a JOIN toks_ne b ON a.w = b.w AND a.doc_id < b.doc_id
        GROUP BY 1, 2
    )
    SELECT da, db, round(i * 1.0 / (sa.s + sb.s - i), 6) AS jaccard
    FROM inter
    JOIN sizes sa ON sa.doc_id = da
    JOIN sizes sb ON sb.doc_id = db
    WHERE i * 1.0 / (sa.s + sb.s - i) >= 0.95
"""

QUERIES["jaccard_join_salted"] = q_jaccard_join_salted
ORACLES["jaccard_join_salted"] = ORACLE_JACCARD_JOIN_SALTED


def q_flac_roundtrip(sf_dir: str):
    """FLAC round-trip (sources/flac.py — real RFC 9639 bitstream:
    FIXED predictors, Rice residuals, frame CRC-8/CRC-16, STREAMINFO
    MD5): per doc a deterministic 600-sample stereo waveform —
    left(i) = (doc_id*13 + i*41) % 4096 - 2048, right(i) = (doc_id*7 +
    i*29) % 4096 - 2048 — is FLAC-encoded then decoded back through the
    decode_audio router; the compared stats (per-channel mean, peak and
    a position-weighted checksum) are computed from the DECODED
    samples, so any flipped bit in the codec fails the closed-form
    oracle."""
    from hydra_ray.sources.flac import encode_flac
    from hydra_ray.stages.multimodal import decode_audio

    ds = _docs(sf_dir, columns=["doc_id"])

    def batch_fn(t: pa.Table) -> pa.Table:
        ids = t["doc_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        i = np.arange(600, dtype=np.int64)
        wgt = 1 + (i % 97)
        mean_l = np.zeros(len(ids), dtype=np.float64)
        peak_r = np.zeros(len(ids), dtype=np.int64)
        chk = np.zeros(len(ids), dtype=np.int64)
        for j, d in enumerate(ids):
            left = ((int(d) * 13 + i * 41) % 4096 - 2048).astype(np.int16)
            right = ((int(d) * 7 + i * 29) % 4096 - 2048).astype(np.int16)
            blob = encode_flac(np.stack([left, right], axis=1), 16000, block_size=256)
            arr, rate = decode_audio(blob)
            assert rate == 16000 and arr.shape == (600, 2)
            mean_l[j] = arr[:, 0].astype(np.float64).mean()
            peak_r[j] = np.abs(arr[:, 1].astype(np.int64)).max()
            chk[j] = int((arr[:, 0].astype(np.int64) * wgt).sum())
        return pa.table(
            {
                "doc_id": pa.array(ids),
                "fl_mean_l": pa.array(np.round(mean_l, 6)),
                "fl_peak_r": pa.array(peak_r),
                "fl_chk": pa.array(chk),
            }
        )

    return ds.map_batches(batch_fn, batch_format="pyarrow")


ORACLE_FLAC_ROUNDTRIP = """
    WITH s AS (
        SELECT doc_id, i,
               (doc_id * 13 + i * 41) % 4096 - 2048 AS l,
               (doc_id * 7 + i * 29) % 4096 - 2048 AS r
        FROM (SELECT doc_id, unnest(generate_series(0, 599)) AS i FROM documents)
    )
    SELECT doc_id,
           round(avg(CAST(l AS DOUBLE)), 6) AS fl_mean_l,
           max(abs(r)) AS fl_peak_r,
           CAST(sum(l * (1 + i % 97)) AS BIGINT) AS fl_chk
    FROM s GROUP BY doc_id
"""

QUERIES["flac_roundtrip"] = q_flac_roundtrip
ORACLES["flac_roundtrip"] = ORACLE_FLAC_ROUNDTRIP


def _crawl_checks_oracle() -> str:
    """Closed-form SQL for the 3-iteration crawl checks log.

    Reproduces, from documents.doc_id alone: URL/domain synthesis, the
    60→64-bit url_key, the per-iteration seeded rank (frontier.py
    seeded_rank — signed-int64 ordering), tiered top-200 selection,
    per-domain quota application in crawl order (reserve():
    BACKOFF_NB_REQ=180 per 360 s window, 429 cool-off and the
    x-ratelimit remain/limit ≤ 0.1 rule evaluated on each domain's
    max-check_id latest check — NULLs preserved, which is why the
    latest row comes from row_number, not max_by), the synthetic
    response classes (md5-byte buckets incl. the HEAD→GET retry), and
    check_id = mix64(url_key ^ mix64(iteration ^ ID_SALT)) >> 1."""
    from hydra_ray.state.cuckoo import _mix64 as _m

    def m64(x: int) -> int:
        return int(_m(np.array([np.uint64(x)], dtype=np.uint64))[0])

    from hydra_ray.config import config as _cfg

    seed, id_salt_const = _cfg.ORDERING_SEED, 0xC0FFEE5EED
    rank_salt = [m64(seed ^ (i << 17)) for i in range(3)]
    id_salt = [m64(i ^ id_salt_const) for i in range(3)]

    chains = []
    for i in range(3):
        chains.append(
            f"r{i}_0 AS (SELECT url, xor(uk, CAST({rank_salt[i]} AS UBIGINT)) AS v FROM ckcat)"
        )
        chains.append(_mix64_ctes_sql(f"r{i}", "v", "url"))
        chains.append(
            f"rank{i} AS (SELECT url, CAST(v AS HUGEINT) - CASE WHEN v >= 9223372036854775808 "
            f"THEN 18446744073709551616 ELSE 0 END AS rk FROM r{i}_5)"
        )
        chains.append(
            f"i{i}_0 AS (SELECT url, xor(uk, CAST({id_salt[i]} AS UBIGINT)) AS v FROM ckcat)"
        )
        chains.append(_mix64_ctes_sql(f"i{i}", "v", "url"))
        chains.append(f"cid{i} AS (SELECT url, CAST(v >> 1 AS BIGINT) AS cid FROM i{i}_5)")

    return f"""
WITH base AS ({CATALOG_SQL}),
ckcat AS (
    SELECT url, domain, priority,
           CAST(('0x' || substr(md5(url), 1, 16)) AS UBIGINT) AS uk,
           CAST(('0x' || substr(md5(url), 1, 4)) AS INT) % 100 AS cls,
           CAST(('0x' || substr(md5(url), 9, 2)) AS INT) AS b4,
           CAST(('0x' || substr(md5(url), 11, 2)) AS INT) AS b5
    FROM base
),
{",".join(chains)},
props AS (
    SELECT c.url, c.domain, c.priority, c.cls,
           CASE WHEN c.cls < 84 THEN 200 WHEN c.cls < 89 THEN 404
                WHEN c.cls < 92 THEN 500 WHEN c.cls < 94 THEN NULL
                WHEN c.cls < 96 THEN 429 WHEN c.cls < 98 THEN NULL
                ELSE 200 END AS status,
           c.cls IN (92, 93) AS timeout,
           CASE WHEN c.cls < 84 AND c.b4 % 20 = 0
                THEN greatest(0, 100 - c.b5 % 110) END AS rl_remain,
           r0.rk AS rk0, r1.rk AS rk1, r2.rk AS rk2,
           d0.cid AS cid0, d1.cid AS cid1, d2.cid AS cid2
    FROM ckcat c
    JOIN rank0 r0 USING (url) JOIN rank1 r1 USING (url) JOIN rank2 r2 USING (url)
    JOIN cid0 d0 USING (url) JOIN cid1 d1 USING (url) JOIN cid2 d2 USING (url)
),
s0 AS (SELECT *, CASE WHEN priority THEN 1 ELSE 2 END AS tier FROM props),
sel0 AS (
    SELECT *, row_number() OVER (ORDER BY tier, rk0) AS rn FROM s0 QUALIFY rn <= 200
),
chk0 AS (
    SELECT *, row_number() OVER (PARTITION BY domain ORDER BY tier, rk0) AS dr FROM sel0
    QUALIFY dr <= 180
),
st0 AS (
    SELECT domain, n0, status AS last_status0, rl_remain AS rl0 FROM (
        SELECT domain, status, rl_remain,
               count(*) OVER (PARTITION BY domain) AS n0,
               row_number() OVER (PARTITION BY domain ORDER BY cid0 DESC) AS rr
        FROM chk0) WHERE rr = 1
),
e1 AS (SELECT p.* FROM props p LEFT JOIN chk0 c USING (url) WHERE c.url IS NULL),
sel1 AS (
    SELECT *, CASE WHEN priority THEN 1 ELSE 2 END AS tier,
           row_number() OVER (ORDER BY CASE WHEN priority THEN 1 ELSE 2 END, rk1) AS rn
    FROM e1 QUALIFY rn <= 200
),
q1 AS (
    SELECT domain,
           CASE WHEN last_status0 = 429 THEN 0
                WHEN rl0 IS NOT NULL AND rl0 <= 10 THEN 0
                ELSE greatest(0, 180 - n0) END AS quota
    FROM st0
),
chk1 AS (
    SELECT s.*, row_number() OVER (PARTITION BY s.domain ORDER BY s.tier, s.rk1) AS dr,
           COALESCE(q.quota, 180) AS quota
    FROM sel1 s LEFT JOIN q1 q USING (domain)
    QUALIFY dr <= quota
),
st1 AS (
    SELECT domain, n1, status AS last_status1, rl_remain AS rl1 FROM (
        SELECT domain, status, rl_remain,
               count(*) OVER (PARTITION BY domain) AS n1,
               row_number() OVER (PARTITION BY domain ORDER BY cid1 DESC) AS rr
        FROM chk1) WHERE rr = 1
),
e2 AS (
    SELECT p.* FROM props p
    LEFT JOIN chk0 a USING (url) LEFT JOIN chk1 b USING (url)
    WHERE a.url IS NULL AND b.url IS NULL
),
sel2 AS (
    SELECT *, CASE WHEN priority THEN 1 ELSE 2 END AS tier,
           row_number() OVER (ORDER BY CASE WHEN priority THEN 1 ELSE 2 END, rk2) AS rn
    FROM e2 QUALIFY rn <= 200
),
q2 AS (
    SELECT COALESCE(a.domain, b.domain) AS domain,
           CASE WHEN (CASE WHEN b.domain IS NOT NULL THEN b.last_status1
                           ELSE a.last_status0 END) = 429 THEN 0
                WHEN (CASE WHEN b.domain IS NOT NULL THEN b.rl1 ELSE a.rl0 END) IS NOT NULL
                     AND (CASE WHEN b.domain IS NOT NULL THEN b.rl1 ELSE a.rl0 END) <= 10 THEN 0
                ELSE greatest(0, 180 - COALESCE(a.n0, 0) - COALESCE(b.n1, 0)) END AS quota
    FROM st0 a FULL JOIN st1 b USING (domain)
),
chk2 AS (
    SELECT s.*, row_number() OVER (PARTITION BY s.domain ORDER BY s.tier, s.rk2) AS dr,
           COALESCE(q.quota, 180) AS quota
    FROM sel2 s LEFT JOIN q2 q USING (domain)
    QUALIFY dr <= quota
)
SELECT cid0 AS id, url, domain, CAST(status AS DOUBLE) AS status, timeout FROM chk0
UNION ALL
SELECT cid1, url, domain, CAST(status AS DOUBLE), timeout FROM chk1
UNION ALL
SELECT cid2, url, domain, CAST(status AS DOUBLE), timeout FROM chk2
ORDER BY id
"""


ORACLES["crawl_checks"] = _crawl_checks_oracle()


def q_span_dedup(sf_dir: str):
    """Span-granularity corpus dedup over the interleaved input_hint
    table (stages/spans.py::span_dedup): duplicate text chunks drop
    corpus-wide (first occurrence in (doc_id, offset) order wins, media
    spans always survive), docs are rebuilt as nested list<struct> rows
    with densely recomputed offsets, and the result is re-exploded for
    the compare. Two keyed shuffles (by span identity, then by doc) —
    the same scale shape as paragraph_dedup, but the rebuild emits the
    nested Arrow payload itself."""
    from hydra_ray.stages.spans import span_dedup

    ds = _docs(sf_dir, columns=["doc_id", "text"])
    return span_dedup(ds).map_batches(explode_spans_batch, batch_format="pyarrow")


ORACLE_SPAN_DEDUP = f"""
    WITH base AS (
        SELECT CAST(doc_id AS VARCHAR) AS doc_id, text,
               CAST(greatest(1, ceil(length(text)/{CHUNK}.0)) AS BIGINT) AS nchunks
        FROM documents
    ), chunks AS (
        SELECT doc_id, unnest(generate_series(0, nchunks - 1)) AS i, text FROM base
    ), chunks2 AS (
        SELECT doc_id, i, substring(text, i*{CHUNK}+1, {CHUNK}) AS chunk FROM chunks
    ), spans AS (
        SELECT doc_id, 'text' AS kind, chunk AS text, NULL AS media_ref,
               CAST(i + i//3 AS INT) AS off FROM chunks2
        UNION ALL
        SELECT doc_id, 'media', NULL,
               'media://' || doc_id || '/' || CAST(i AS VARCHAR),
               CAST(i + i//3 + 1 AS INT) FROM chunks2 WHERE i % 3 = 2
    ), marked AS (
        SELECT *, kind = 'media' OR row_number() OVER (
            PARTITION BY kind, text ORDER BY doc_id, off
        ) = 1 AS keep
        FROM spans
    )
    SELECT doc_id, kind, text, media_ref,
           CAST(row_number() OVER (PARTITION BY doc_id ORDER BY off) - 1 AS INT)
               AS "offset"
    FROM marked WHERE keep
"""

QUERIES["span_dedup"] = q_span_dedup
ORACLES["span_dedup"] = ORACLE_SPAN_DEDUP


def q_interleave_pack(sf_dir: str):
    """Greedy span-granularity sequence packing for multimodal training
    (stages/spans.py::interleave_pack): text spans cost their
    whitespace token count, media spans a fixed 16-token placeholder,
    sequences cap at 64 tokens and never cross docs. The greedy state
    is stepped vectorized across docs per span RANK inside one
    map_batches over nested doc rows (block-split-safe); the oracle is
    the identical state machine as a recursive CTE."""
    from hydra_ray.stages.spans import interleave_pack

    ds = _docs(sf_dir, columns=["doc_id", "text"])
    return interleave_pack(ds)


ORACLE_INTERLEAVE_PACK = f"""
    WITH RECURSIVE raw AS (
        SELECT CAST(doc_id AS VARCHAR) AS doc_id, text,
               CAST(greatest(1, ceil(length(text)/{CHUNK}.0)) AS BIGINT) AS nchunks
        FROM documents
    ), chunks AS (
        SELECT doc_id, unnest(generate_series(0, nchunks - 1)) AS i, text FROM raw
    ), chunks2 AS (
        SELECT doc_id, i, substring(text, i*{CHUNK}+1, {CHUNK}) AS chunk FROM chunks
    ), spans AS (
        SELECT doc_id, 'text' AS kind, chunk AS text, CAST(i + i//3 AS INT) AS off
        FROM chunks2
        UNION ALL
        SELECT doc_id, 'media', NULL, CAST(i + i//3 + 1 AS INT)
        FROM chunks2 WHERE i % 3 = 2
    ), base AS (
        SELECT doc_id, kind, off,
               CAST(CASE WHEN kind = 'media' THEN 16
                    ELSE array_length(regexp_split_to_array(trim(text), '\\s+'))
               END AS BIGINT) AS tok,
               row_number() OVER (PARTITION BY doc_id ORDER BY off) - 1 AS rn
        FROM spans
    ), state AS (
        SELECT doc_id, rn, off, kind, tok,
               CAST(0 AS BIGINT) AS seq, tok AS cur
        FROM base WHERE rn = 0
        UNION ALL
        SELECT b.doc_id, b.rn, b.off, b.kind, b.tok,
               CASE WHEN s.cur + b.tok > 64 THEN s.seq + 1 ELSE s.seq END,
               CASE WHEN s.cur + b.tok > 64 THEN b.tok ELSE s.cur + b.tok END
        FROM state s JOIN base b ON b.doc_id = s.doc_id AND b.rn = s.rn + 1
    )
    SELECT doc_id, off AS "offset", kind, tok AS tok_cost, seq AS seq_id FROM state
"""

QUERIES["interleave_pack"] = q_interleave_pack
ORACLES["interleave_pack"] = ORACLE_INTERLEAVE_PACK


def q_span_stats(sf_dir: str):
    """Per-doc modality/quality metrics over interleaved span docs
    (stages/spans.py::span_stats): span counts by kind, summed text
    token cost, and the quality-keep verdict (token-count window +
    media fraction <= 1/4 as the integer rule n_media*4 <= n_spans —
    no float compares in the gate). One embarrassingly-parallel
    map_batches; three reduceat segment sums per block."""
    from hydra_ray.stages.spans import span_stats

    return span_stats(_docs(sf_dir, columns=["doc_id", "text"]))


def _span_synthesis_ctes() -> str:
    """The shared span-construction CTEs (build_spans_batch contract):
    text → 256-char chunks, media span after every 3rd chunk, with the
    interleave offset. Ends with `spans(doc_id, kind, text, off)`."""
    return f"""
    base AS (
        SELECT CAST(doc_id AS VARCHAR) AS doc_id, text,
               CAST(greatest(1, ceil(length(text)/{CHUNK}.0)) AS BIGINT) AS nchunks
        FROM documents
    ), chunks AS (
        SELECT doc_id, unnest(generate_series(0, nchunks - 1)) AS i, text FROM base
    ), chunks2 AS (
        SELECT doc_id, i, substring(text, i*{CHUNK}+1, {CHUNK}) AS chunk FROM chunks
    ), spans AS (
        SELECT doc_id, 'text' AS kind, chunk AS text,
               CAST(i + i//3 AS INT) AS off FROM chunks2
        UNION ALL
        SELECT doc_id, 'media', NULL, CAST(i + i//3 + 1 AS INT)
        FROM chunks2 WHERE i % 3 = 2
    )"""


def _oracle_span_stats() -> str:
    from hydra_ray.stages.spans import MAX_DOC_TOKENS, MIN_DOC_TOKENS

    return f"""
    WITH {_span_synthesis_ctes()}, costs AS (
        SELECT doc_id, kind,
               CASE WHEN kind = 'media' THEN 0
                    ELSE array_length(regexp_split_to_array(trim(text), '\\s+'))
               END AS ttok
        FROM spans
    )
    SELECT doc_id,
           CAST(count(*) AS BIGINT) AS n_spans,
           CAST(count(*) FILTER (kind = 'media') AS BIGINT) AS n_media,
           CAST(sum(ttok) AS BIGINT) AS text_tokens,
           sum(ttok) BETWEEN {MIN_DOC_TOKENS} AND {MAX_DOC_TOKENS}
               AND count(*) FILTER (kind = 'media') * 4 <= count(*) AS keep
    FROM costs GROUP BY doc_id
"""


QUERIES["span_stats"] = q_span_stats
ORACLES["span_stats"] = _oracle_span_stats()


def q_interleaved_shards(sf_dir: str):
    """Flagship interleaved-corpus curation composite
    (stages/spans.py::interleaved_shards): corpus-wide span dedup →
    per-doc quality keep on the SURVIVING spans → greedy capacity-64
    interleave packing → splitmix64 shard assignment, one row per
    packed sequence. The whole chain — dedup first-wins, token-window
    keep rule, the greedy packing state machine, and the bit-exact
    splitmix64 shard hash — is reproduced in SQL below."""
    from hydra_ray.stages.spans import interleaved_shards

    return interleaved_shards(_docs(sf_dir, columns=["doc_id", "text"]))


def _oracle_interleaved_shards(n_shards: int = 8, seed: int = 1234) -> str:
    from hydra_ray.stages.spans import (
        MAX_DOC_TOKENS,
        MEDIA_TOKENS,
        MIN_DOC_TOKENS,
        PACK_CAPACITY,
    )

    return f"""
    WITH RECURSIVE {_span_synthesis_ctes()}, marked AS (
        SELECT *, kind = 'media' OR row_number() OVER (
            PARTITION BY kind, text ORDER BY doc_id, off
        ) = 1 AS keep
        FROM spans
    ), surv AS (
        SELECT doc_id, kind,
               row_number() OVER (PARTITION BY doc_id ORDER BY off) - 1 AS rn,
               CAST(CASE WHEN kind = 'media' THEN {MEDIA_TOKENS}
                    ELSE array_length(regexp_split_to_array(trim(text), '\\s+'))
               END AS BIGINT) AS tok
        FROM marked WHERE keep
    ), stats AS (
        SELECT doc_id,
               count(*) AS n_spans,
               count(*) FILTER (kind = 'media') AS n_media,
               sum(CASE WHEN kind = 'media' THEN 0 ELSE tok END) AS text_tokens
        FROM surv GROUP BY doc_id
    ), b AS (
        SELECT s.* FROM surv s JOIN stats st USING (doc_id)
        WHERE st.text_tokens BETWEEN {MIN_DOC_TOKENS} AND {MAX_DOC_TOKENS}
          AND st.n_media * 4 <= st.n_spans
    ), state AS (
        SELECT doc_id, rn, tok, CAST(0 AS BIGINT) AS seq, tok AS cur
        FROM b WHERE rn = 0
        UNION ALL
        SELECT x.doc_id, x.rn, x.tok,
               CASE WHEN s.cur + x.tok > {PACK_CAPACITY} THEN s.seq + 1 ELSE s.seq END,
               CASE WHEN s.cur + x.tok > {PACK_CAPACITY} THEN x.tok ELSE s.cur + x.tok END
        FROM state s JOIN b x ON x.doc_id = s.doc_id AND x.rn = s.rn + 1
    ), agg AS (
        SELECT doc_id, seq,
               CAST(count(*) AS BIGINT) AS n_spans,
               CAST(sum(tok) AS BIGINT) AS tok_total
        FROM state GROUP BY doc_id, seq
    ), sh_0 AS (
        SELECT doc_id, seq, n_spans, tok_total,
               CAST(CAST(doc_id AS UBIGINT) * 4096 + seq + {seed} AS UBIGINT) AS v
        FROM agg
    ),
    {_mix64_ctes_sql("sh", "v", "doc_id, seq, n_spans, tok_total")}
    SELECT doc_id, CAST(seq AS BIGINT) AS seq_id, n_spans, tok_total,
           CAST(v % {n_shards} AS BIGINT) AS shard
    FROM sh_5
"""


QUERIES["interleaved_shards"] = q_interleaved_shards
ORACLES["interleaved_shards"] = _oracle_interleaved_shards()


def q_span_dedup_incremental(sf_dir: str):
    """Incremental span dedup against an existing corpus
    (stages/spans.py::span_dedup_incremental) — the append-only
    documents contract: docs with doc_id%5==0 arrive as the NEW batch
    and are deduped against the rest of the corpus, which contributes
    only block-distinct chunk keys to the shuffle and is never
    rewritten. Result re-exploded for the compare."""
    from hydra_ray.stages.spans import span_dedup_incremental

    def split(rem: int, neq: bool):
        def f(t: pa.Table) -> pa.Table:
            ids = t["doc_id"].to_numpy(zero_copy_only=False)
            m = (ids % 5 != rem) if neq else (ids % 5 == rem)
            return t.filter(pa.array(m))

        return f

    new = _docs(sf_dir, columns=["doc_id", "text"]).map_batches(
        split(0, False), batch_format="pyarrow"
    )
    corpus = _docs(sf_dir, columns=["doc_id", "text"]).map_batches(
        split(0, True), batch_format="pyarrow"
    )
    return span_dedup_incremental(new, corpus).map_batches(
        explode_spans_batch, batch_format="pyarrow"
    )


ORACLE_SPAN_DEDUP_INCREMENTAL = f"""
    WITH nb AS (
        SELECT CAST(doc_id AS VARCHAR) AS doc_id, text,
               CAST(greatest(1, ceil(length(text)/{CHUNK}.0)) AS BIGINT) AS nchunks
        FROM documents WHERE doc_id % 5 = 0
    ), nc AS (
        SELECT doc_id, unnest(generate_series(0, nchunks - 1)) AS i, text FROM nb
    ), nc2 AS (
        SELECT doc_id, i, substring(text, i*{CHUNK}+1, {CHUNK}) AS chunk FROM nc
    ), nspans AS (
        SELECT doc_id, 'text' AS kind, chunk AS text, NULL AS media_ref,
               CAST(i + i//3 AS INT) AS off FROM nc2
        UNION ALL
        SELECT doc_id, 'media', NULL,
               'media://' || doc_id || '/' || CAST(i AS VARCHAR),
               CAST(i + i//3 + 1 AS INT) FROM nc2 WHERE i % 3 = 2
    ), cb AS (
        SELECT CAST(doc_id AS VARCHAR) AS doc_id, text,
               CAST(greatest(1, ceil(length(text)/{CHUNK}.0)) AS BIGINT) AS nchunks
        FROM documents WHERE doc_id % 5 <> 0
    ), cc AS (
        SELECT doc_id, unnest(generate_series(0, nchunks - 1)) AS i, text FROM cb
    ), ctext AS (
        SELECT DISTINCT substring(text, i*{CHUNK}+1, {CHUNK}) AS chunk FROM cc
    ), marked AS (
        SELECT *, kind = 'media' OR (
            row_number() OVER (PARTITION BY kind, text ORDER BY doc_id, off) = 1
            AND text NOT IN (SELECT chunk FROM ctext)
        ) AS keep
        FROM nspans
    )
    SELECT doc_id, kind, text, media_ref,
           CAST(row_number() OVER (PARTITION BY doc_id ORDER BY off) - 1 AS INT)
               AS "offset"
    FROM marked WHERE keep
"""

QUERIES["span_dedup_incremental"] = q_span_dedup_incremental
ORACLES["span_dedup_incremental"] = ORACLE_SPAN_DEDUP_INCREMENTAL


def q_span_near_dup(sf_dir: str):
    """Fuzzy span-granularity dedup over the interleaved input_hint
    table (stages/spans.py::span_near_dup): every text span becomes a
    MinHash-LSH document keyed by doc_id:offset, verified near-dup
    pairs (true shingle Jaccard >= 0.5) drop their larger key, and docs
    are rebuilt with dense offsets. Spans under shingle_k tokens have
    no full shingle, are never candidates and always survive (exactly
    the regime where the SQL oracle's 3-shingle self-joins are empty).
    The whole MinHash pipeline — md5 token hashes, splitmix64 shingles,
    64 exact-wraparound permutations, 16x4 banding, bucket-collision
    pairs, Jaccard verify — is the same SQL used by minhash_near_dups,
    parameterized over the span synthesis CTE."""
    from hydra_ray.stages.spans import explode_spans_batch, span_near_dup

    out = span_near_dup(_docs(sf_dir, columns=["doc_id", "text"]), threshold=0.5)
    return out.map_batches(explode_spans_batch, batch_format="pyarrow")


def _oracle_span_near_dup(threshold: float = 0.5) -> str:
    pairs_sql = _minhash_oracle_sql(threshold=threshold, src="sp")
    return f"""
    WITH base AS (
        SELECT CAST(doc_id AS VARCHAR) AS doc_id, text,
               CAST(greatest(1, ceil(length(text)/{CHUNK}.0)) AS BIGINT) AS nchunks
        FROM documents
    ), chunks AS (
        SELECT doc_id, unnest(generate_series(0, nchunks - 1)) AS i, text FROM base
    ), chunks2 AS (
        SELECT doc_id, i, substring(text, i*{CHUNK}+1, {CHUNK}) AS chunk FROM chunks
    ), spans AS (
        SELECT doc_id, 'text' AS kind, chunk AS text, NULL AS media_ref,
               CAST(i + i//3 AS INT) AS off FROM chunks2
        UNION ALL
        SELECT doc_id, 'media', NULL,
               'media://' || doc_id || '/' || CAST(i AS VARCHAR),
               CAST(i + i//3 + 1 AS INT) FROM chunks2 WHERE i % 3 = 2
    ), keyed AS (
        SELECT *, doc_id || ':' || lpad(CAST(off AS VARCHAR), 6, '0') AS sk,
               CASE WHEN kind = 'text'
                    THEN array_length(regexp_split_to_array(trim(text), '\\s+'))
                    ELSE 0 END AS ntok
        FROM spans
    ), sp AS (
        SELECT sk AS doc_id, text FROM keyed WHERE kind = 'text' AND ntok >= 3
    ), nd AS ({pairs_sql})
    SELECT doc_id, kind, text, media_ref,
           CAST(row_number() OVER (PARTITION BY doc_id ORDER BY off) - 1 AS INT)
               AS "offset"
    FROM keyed WHERE sk NOT IN (SELECT doc_b FROM nd)
"""


QUERIES["span_near_dup"] = q_span_near_dup
ORACLES["span_near_dup"] = _oracle_span_near_dup()


def q_parse_lifecycle(sf_dir: str):
    """VERDICT r4 #1: the parse/export lifecycle recorded on check rows —
    parsing_started_at/finished_at + "step:cause" parsing_error
    (reference utils/errors.py:113-135, csv_like/__init__.py:84-117),
    parquet/geojson/pmtiles artifact URL+size (analysis/exports.py:20-128)
    and ogc_metadata (ogc/__init__.py:80-248) — over a catalog that
    exercises every route: geo CSVs (geojson+pmtiles exports), ragged
    CSVs (copy-step parse failure), WFS endpoints (OGC capabilities) and
    plain CSVs (parquet export above MIN_LINES_FOR_PARQUET).

    Artifact byte sizes are not SQL-expressible; the oracle pins the
    ``*_ok`` booleans TRUE for every row whose export must exist (the
    knn/tdigest accuracy-gate pattern) and the URLs exactly."""
    import hashlib as _hl
    import tempfile

    import pyarrow.parquet as _pq

    from hydra_ray.pipelines.crawl import CrawlEngine

    doc_ids = _pq.read_table(f"{sf_dir}/documents.parquet", columns=["doc_id"])[
        "doc_id"
    ].to_numpy(zero_copy_only=False)
    urls, fmts = [], []
    for d in doc_ids:
        d = int(d)
        host = f"host{d % 20:02d}.data.example"
        r = d % 4
        if r == 0:
            urls.append(f"https://{host}/geo/{d}.csv")
            fmts.append("csv")
        elif r == 1:
            urls.append(f"https://{host}/ragged/{d}.csv")
            fmts.append("csv")
        elif r == 2:
            urls.append(
                f"https://geo{d % 7}.data.example/geoserver/{d}/wfs?service=wfs&typeName=ns:layer_{d % 13}"
            )
            fmts.append("wfs")
        else:
            urls.append(f"https://{host}/plain/{d}.csv")
            fmts.append("csv")
    n = len(urls)
    cat = pa.table(
        {
            "dataset_id": pa.array([f"ds-{int(d) % 50}" for d in doc_ids]),
            "resource_id": pa.array([_hl.md5(u.encode()).hexdigest() for u in urls]),
            "url": pa.array(urls),
            "type": pa.array(["main"] * n),
            "format": pa.array(fmts),
            "title": pa.array(["t"] * n),
            "deleted": pa.array([False] * n),
            "priority": pa.array([False] * n),
        }
    )
    workdir = tempfile.mkdtemp(prefix="hydra_ray_q_")
    eng = CrawlEngine(
        workdir,
        batch_size=n,
        actor_pools=False,
        politeness_kwargs={"backoff_nb_req": 10**9},
        analysis_config={
            "DB_TO_PARQUET": True,
            "MIN_LINES_FOR_PARQUET": 100,
            "DB_TO_GEOJSON": True,
            "GEOJSON_TO_PMTILES": True,
            "OGC_ANALYSIS_ENABLED": True,
        },
    )
    eng.load_catalog(cat)
    eng.run(1)
    t = eng.checks.read_arrow(
        columns=[
            "url",
            "parsing_error",
            "parsing_table",
            "parsing_started_at",
            "parsing_finished_at",
            "parquet_url",
            "parquet_size",
            "geojson_url",
            "geojson_size",
            "pmtiles_url",
            "pmtiles_size",
            "ogc_metadata",
        ]
    )
    eng.shutdown()
    t = t.filter(pc.is_valid(t["parsing_started_at"])).sort_by([("url", "ascending")])

    def ok(url_col: str, size_col: str):
        return pc.and_(
            pc.is_valid(t[url_col]), pc.greater(pc.fill_null(t[size_col], 0), 0)
        )

    return pa.table(
        {
            "url": t["url"],
            "parsing_error": t["parsing_error"],
            "parsing_table": t["parsing_table"],
            "parsing_started_at": t["parsing_started_at"],
            "parsing_finished_at": t["parsing_finished_at"],
            "parquet_url": t["parquet_url"],
            "parquet_ok": ok("parquet_url", "parquet_size"),
            "geojson_url": t["geojson_url"],
            "geojson_ok": ok("geojson_url", "geojson_size"),
            "pmtiles_url": t["pmtiles_url"],
            "pmtiles_ok": ok("pmtiles_url", "pmtiles_size"),
            "ogc_metadata": t["ogc_metadata"],
        }
    )


ORACLE_PARSE_LIFECYCLE = """
WITH cat AS (
  SELECT doc_id, doc_id % 4 AS route,
    CASE doc_id % 4
      WHEN 0 THEN 'https://host' || lpad(CAST(doc_id % 20 AS VARCHAR), 2, '0')
                  || '.data.example/geo/' || CAST(doc_id AS VARCHAR) || '.csv'
      WHEN 1 THEN 'https://host' || lpad(CAST(doc_id % 20 AS VARCHAR), 2, '0')
                  || '.data.example/ragged/' || CAST(doc_id AS VARCHAR) || '.csv'
      WHEN 2 THEN 'https://geo' || CAST(doc_id % 7 AS VARCHAR)
                  || '.data.example/geoserver/' || CAST(doc_id AS VARCHAR)
                  || '/wfs?service=wfs&typeName=ns:layer_'
                  || CAST(doc_id % 13 AS VARCHAR)
      ELSE 'https://host' || lpad(CAST(doc_id % 20 AS VARCHAR), 2, '0')
           || '.data.example/plain/' || CAST(doc_id AS VARCHAR) || '.csv'
    END AS url
  -- DISTINCT: the engine's URL-seen set drops duplicate doc_id rows
  FROM (SELECT DISTINCT doc_id FROM documents)
), props AS (
  SELECT url, route, doc_id,
    CAST(('0x' || substr(md5(url), 1, 4)) AS INT) % 100 AS cls,
    5 + (CAST(('0x' || substr(md5(url || '#0'), 1, 4)) AS INT) % 200) AS nrows
  FROM cat
), ok AS (
  -- fetch outcome classes (synth.synthetic_response): 200 OK below 84,
  -- bad-HEAD-then-GET-OK at 98-99; everything else never reaches analysis
  SELECT * FROM props WHERE cls < 84 OR cls >= 98
), ogc AS (
  SELECT url,
    '{"crs": ["EPSG:4326"' || CASE WHEN n_crs = 2 THEN ', "EPSG:3857"' ELSE '' END || '], ' ||
    '"detected_layer": ' ||
      CASE WHEN served = 0 THEN '"ns:layer_' || lyr || '"' ELSE 'null' END || ', ' ||
    '"layers": ["ns:layer_' || lbase || '_0"' ||
       CASE WHEN n_layers >= 2 THEN ', "ns:layer_' || lbase || '_1"' ELSE '' END ||
       CASE WHEN n_layers >= 3 THEN ', "ns:layer_' || lbase || '_2"' ELSE '' END ||
       CASE WHEN n_layers >= 4 THEN ', "ns:layer_' || lbase || '_3"' ELSE '' END ||
       CASE WHEN n_layers >= 5 THEN ', "ns:layer_' || lbase || '_4"' ELSE '' END ||
       CASE WHEN served = 0 THEN ', "ns:layer_' || lyr || '"' ELSE '' END ||
    '], "output_formats": ["application/json"' || CASE WHEN n_fmt = 2 THEN ', "GML2"' ELSE '' END || '], ' ||
    '"service_type": "wfs", "version": "' ||
    CASE vidx WHEN 0 THEN '2.0.0' WHEN 1 THEN '1.1.0' ELSE '1.0.0' END || '"}' AS meta
  FROM (
    SELECT url,
      1 + (CAST(('0x'||substr(h,1,2)) AS INT) % 5) AS n_layers,
      CAST(CAST(('0x'||substr(h,3,2)) AS INT) % 97 AS VARCHAR) AS lbase,
      CAST(('0x'||substr(h,5,2)) AS INT) % 3 AS vidx,
      1 + (CAST(('0x'||substr(h,7,2)) AS INT) % 2) AS n_crs,
      1 + (CAST(('0x'||substr(h,9,2)) AS INT) % 2) AS n_fmt,
      CAST(('0x'||substr(h,11,2)) AS INT) % 2 AS served,
      CAST(doc_id % 13 AS VARCHAR) AS lyr
    FROM (SELECT url, doc_id, md5('wfs:' || url) AS h FROM ok WHERE route = 2)
  )
)
SELECT
  o.url,
  CASE WHEN o.route = 1 THEN 'copy_records_to_table:row 3 has 4 cells, expected 3' END
      AS parsing_error,
  CASE WHEN o.route IN (0, 3) THEN md5(o.url) END AS parsing_table,
  TIMESTAMP '2026-01-01 00:00:00' AS parsing_started_at,
  TIMESTAMP '2026-01-01 00:00:00' AS parsing_finished_at,
  CASE WHEN o.route IN (0, 3) AND o.nrows >= 100
       THEN 'https://object-store.example/hydra-exports/' || md5(o.url) || '.parquet' END
      AS parquet_url,
  (o.route IN (0, 3) AND o.nrows >= 100) AS parquet_ok,
  CASE WHEN o.route = 0
       THEN 'https://object-store.example/hydra-exports/' || md5(o.url) || '.geojson' END
      AS geojson_url,
  (o.route = 0) AS geojson_ok,
  CASE WHEN o.route = 0
       THEN 'https://object-store.example/hydra-exports/' || md5(o.url) || '.pmtiles' END
      AS pmtiles_url,
  (o.route = 0) AS pmtiles_ok,
  g.meta AS ogc_metadata
FROM ok o LEFT JOIN ogc g USING (url)
ORDER BY o.url
"""


QUERIES["parse_lifecycle"] = q_parse_lifecycle
ORACLES["parse_lifecycle"] = ORACLE_PARSE_LIFECYCLE
