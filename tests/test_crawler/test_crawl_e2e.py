"""End-to-end crawl iterations against a scripted MockTransport
(mirrors reference tests/test_crawl/test_crawl.py status matrix and the
full E2E at :309-360, with aioresponses replaced by MockTransport)."""

import gzip
import hashlib
import json

import pyarrow as pa
import pytest

from hydra_ray.functions.urls import url_md5
from hydra_ray.pipelines.crawl import CrawlEngine

URL_OK = "https://site-ok.example/data.csv"
URL_404 = "https://site-404.example/gone.csv"
URL_TIMEOUT = "https://site-to.example/slow.csv"
URL_429 = "https://site-429.example/rl.csv"
URL_BADHEAD = "https://site-bh.example/page.csv"


def seed_table(urls):
    return pa.table(
        {
            "dataset_id": [f"ds-{i}" for i in range(len(urls))],
            "resource_id": [url_md5(u) for u in urls],
            "url": urls,
            "format": ["csv"] * len(urls),
        }
    )


def make_engine(factory, workdir, responses, urls, bodies=None, **kw):
    eng = factory(
        workdir,
        transport={"kind": "mock", "responses": responses, "bodies": bodies},
        batch_size=10,
        **kw,
    )
    eng.load_catalog(seed_table(urls))
    return eng


OK_HEADERS = {
    "content-type": "text/csv",
    "content-length": "1234",
    "last-modified": "Mon, 01 Jan 2024 00:00:00 GMT",
}


@pytest.mark.usefixtures("ray_session")
class TestCrawlE2E:
    def test_status_matrix(self, tmp_workdir, make_crawl_engine):
        responses = {
            ("head", URL_OK): {"kind": "ok", "status": 200, "headers": OK_HEADERS},
            ("head", URL_404): {"kind": "error", "status": 404, "headers": {}, "error": "Not Found"},
            ("head", URL_TIMEOUT): {"kind": "timeout"},
            ("head", URL_429): {"kind": "error", "status": 429, "headers": {}, "error": "Too Many Requests"},
        }
        urls = [URL_OK, URL_404, URL_TIMEOUT, URL_429]
        bodies = {URL_OK: b"id,name\n1,a\n2,b\n"}
        eng = make_engine(make_crawl_engine, tmp_workdir, responses, urls, bodies=bodies)
        stats = eng.run_iteration()
        assert stats == {
            "iteration": 0, "selected": 4, "backoff": 0,
            "ok": 1, "timeout": 1, "error": 2, "parsed": 1, "changed": 4,
        }
        checks = eng.checks.read_arrow()
        by_url = {u: i for i, u in enumerate(checks["url"].to_pylist())}
        assert checks["status"].to_pylist()[by_url[URL_OK]] == 200
        assert checks["status"].to_pylist()[by_url[URL_404]] == 404
        assert checks["status"].to_pylist()[by_url[URL_429]] == 429
        assert checks["timeout"].to_pylist()[by_url[URL_TIMEOUT]] is True
        assert checks["status"].to_pylist()[by_url[URL_TIMEOUT]] is None
        # domain extracted
        assert checks["domain"].to_pylist()[by_url[URL_OK]] == "site-ok.example"
        # ok row got analysed: checksum + mime + parsing table
        assert checks["checksum"].to_pylist()[by_url[URL_OK]] == hashlib.sha1(bodies[URL_OK]).hexdigest()
        assert checks["mime_type"].to_pylist()[by_url[URL_OK]] == "text/csv"
        assert checks["parsing_table"].to_pylist()[by_url[URL_OK]] == url_md5(URL_OK)

    def test_head_get_fallback(self, tmp_workdir, make_crawl_engine):
        # HEAD returns 200 but useless headers → engine must retry GET
        responses = {
            ("head", URL_BADHEAD): {"kind": "ok", "status": 200, "headers": {"content-type": "text/html", "content-length": "200"}},
            ("get", URL_BADHEAD): {"kind": "ok", "status": 200, "headers": OK_HEADERS},
        }
        eng = make_engine(make_crawl_engine, tmp_workdir, responses, [URL_BADHEAD])
        stats = eng.run_iteration()
        assert stats["ok"] == 1
        checks = eng.checks.read_arrow()
        headers = json.loads(checks["headers"].to_pylist()[0])
        assert headers["content-length"] == "1234"  # the GET's headers won

    def test_cors_probe_stored_only_on_success(self, tmp_workdir, make_crawl_engine):
        cors = {
            "status": 200,
            "allow-origin": "*",
            "allow-methods": "GET",
            "allow-headers": None,
            "expose-headers": None,
            "max-age": None,
            "allow-credentials": None,
        }
        responses = {
            ("head", URL_OK): {"kind": "ok", "status": 200, "headers": OK_HEADERS},
            ("options", URL_OK): cors,
            ("head", URL_404): {"kind": "error", "status": 404, "headers": {}, "error": "nf"},
        }
        eng = make_engine(make_crawl_engine, tmp_workdir, responses, [URL_OK, URL_404])
        eng.run_iteration()
        checks = eng.checks.read_arrow()
        by_url = {u: i for i, u in enumerate(checks["url"].to_pylist())}
        got = json.loads(checks["cors_headers"].to_pylist()[by_url[URL_OK]])
        assert got["allow-origin"] == "*"
        assert checks["cors_headers"].to_pylist()[by_url[URL_404]] is None

    def test_unchanged_second_check_no_payload(self, tmp_workdir, make_crawl_engine):
        responses = {
            ("head", URL_OK): {"kind": "ok", "status": 200, "headers": OK_HEADERS},
        }
        eng = make_engine(make_crawl_engine, tmp_workdir, responses, [URL_OK])
        s0 = eng.run_iteration()
        assert s0["changed"] == 1
        # force re-eligibility: next_check is 12h out, so advance far enough
        # by jumping iterations (12h = 720 virtual minutes)
        eng.iteration += 12 * 60  # virtual dt = 60s → 720 iterations = 12h
        s1 = eng.run_iteration()
        assert s1["selected"] == 1
        assert s1["changed"] == 0  # same status/headers → unchanged
        payloads = eng.payloads.read_arrow()
        kinds = payloads["kind"].to_pylist()
        # first check produced check+analysis payloads; second check none
        assert len([k for k in kinds if k == "check"]) == 1

    def test_priority_reset_after_check(self, tmp_workdir, make_crawl_engine):
        responses = {("head", URL_OK): {"kind": "ok", "status": 200, "headers": OK_HEADERS}}
        seed = seed_table([URL_OK]).set_column(
            0, "dataset_id", pa.array(["ds-0"])
        )
        eng = make_crawl_engine(tmp_workdir, transport={"kind": "mock", "responses": responses}, batch_size=10)
        seed = seed.append_column("priority", pa.array([True]))
        eng.load_catalog(seed)
        eng.run_iteration()
        cat = eng.catalog.read_arrow()
        assert cat["priority"].to_pylist() == [False]
        assert cat["status"].to_pylist() == [None]
        assert cat["last_status"].to_pylist() == [200]
        assert cat["last_check_id"].to_pylist()[0] is not None

    def test_error_rows_reset_status(self, tmp_workdir, make_crawl_engine):
        responses = {("head", URL_404): {"kind": "error", "status": 404, "headers": {}, "error": "nf"}}
        eng = make_engine(make_crawl_engine, tmp_workdir, responses, [URL_404])
        eng.run_iteration()
        cat = eng.catalog.read_arrow()
        assert cat["status"].to_pylist() == [None]
        assert cat["last_status"].to_pylist() == [404]


def _check_workbook_route(make_crawl_engine, workdir, fmt, mime):
    """Crawl 30 synthetic resources, every third one re-pointed at a
    ``.{fmt}`` URL with catalog format ``fmt``. Those resources download
    as workbooks: a parsed one carries the sniffed workbook ``mime``, a
    tables_index inspection report with the reader's engine mark and a
    span document."""
    import numpy as np

    from hydra_ray.synth import catalog_from_documents

    seed = catalog_from_documents(pa.table({"doc_id": pa.array(np.arange(30), type=pa.int64())}))
    pick = [i % 3 == 0 for i in range(seed.num_rows)]
    for col, alt in (("format", lambda f: fmt), ("url", lambda u: u.rsplit(".", 1)[0] + "." + fmt)):
        vals = [alt(v) if p else v for v, p in zip(seed[col].to_pylist(), pick)]
        seed = seed.set_column(seed.column_names.index(col), col, pa.array(vals))
    ids = {r for r, p in zip(seed["resource_id"].to_pylist(), pick) if p}
    eng = make_crawl_engine(workdir, batch_size=30)
    eng.load_catalog(seed)
    eng.run(1)
    checks = [r for r in eng.checks.read_arrow().to_pylist() if r["resource_id"] in ids]
    parsed = {r["resource_id"] for r in checks if r["parsing_table"]}
    assert parsed
    assert all(r["mime_type"] == mime for r in checks if r["resource_id"] in parsed)
    ti = eng.tables_index.read_arrow().to_pylist()
    engines = {r["resource_id"]: json.loads(r["csv_detective"])["engine"] for r in ti}
    assert {engines[r] for r in parsed} == {f"hydra-ray-{fmt}"}
    assert parsed <= set(eng.read_documents()["doc_id"].to_pylist())
    eng.shutdown()


@pytest.mark.usefixtures("ray_session")
def test_xls_resource_routes_through_biff_reader(tmp_path, make_crawl_engine):
    """A ``.xls`` resource parses through the BIFF reader in the analyse
    stage (S4 legacy-Excel route): the check carries the CFB mime and a
    parsing_table, its inspection report the xls engine mark."""
    _check_workbook_route(make_crawl_engine, str(tmp_path / "wd"), "xls", "application/vnd.ms-excel")


@pytest.mark.usefixtures("ray_session")
def test_ods_resource_routes_through_odf_reader(tmp_path, make_crawl_engine):
    """A ``.ods`` resource parses through the ODF reader in the analyse
    stage (S4 OpenDocument route, sources/ods.py): the check carries the
    ODS mime and a parsing_table, its inspection report the ods engine
    mark."""
    _check_workbook_route(
        make_crawl_engine, str(tmp_path / "wd"), "ods", "application/vnd.oasis.opendocument.spreadsheet"
    )


@pytest.mark.usefixtures("ray_session")
def test_one_download_per_resource(tmp_path, make_crawl_engine):
    """The same rows served as an xlsx, as CSV and as gzip'd CSV: each
    checksum is the sha1 of the bytes served, the mime is sniffed from
    them, the three parses agree, and the xlsx span text equals the CSV
    twin's. A body over its format's cap is refused even when its
    Content-Length is under the cap; a gzip body under the cap that
    inflates past it is hashed but refused at the parse."""
    from hydra_ray.config import config
    from hydra_ray.sources.xlsx import write_xlsx

    rows = [["id", "name", "value"]] + [[str(i), f"item-{i}", str(7 * i)] for i in range(12)]
    csv_text = "\n".join(",".join(r) for r in rows)
    served = {
        "https://wb.example/r.xlsx": ("xlsx", write_xlsx(rows)),
        "https://csv.example/r.csv": ("csv", csv_text.encode()),
        "https://gz.example/r.csv.gz": ("csv.gz", gzip.compress(csv_text.encode(), mtime=0)),
        "https://big.example/r.csv": ("csv", b"id,v\n" + b"1,2\n" * 2000),
        "https://bomb.example/r.csv.gz": ("csv.gz", gzip.compress(b"id,v\n" + b"1,2\n" * 20_000, mtime=0)),
    }
    urls = list(served)
    headers = {"content-type": "application/octet-stream", "content-length": "100"}
    eng = make_crawl_engine(
        str(tmp_path / "wd"),
        transport={
            "kind": "mock",
            "responses": {("head", u): {"kind": "ok", "status": 200, "headers": headers} for u in urls},
            "bodies": {u: body for u, (_f, body) in served.items()},
        },
        batch_size=10,
        # the octet-stream content type gives the xlsx the csvgz cap too
        analysis_config={"MAX_FILESIZE_ALLOWED": {**config.MAX_FILESIZE_ALLOWED, "csv": 4096, "csvgz": 16384}},
    )
    eng.load_catalog(
        pa.table(
            {
                "dataset_id": ["ds"] * len(urls),
                "resource_id": [url_md5(u) for u in urls],
                "url": urls,
                "format": [f for f, _b in served.values()],
            }
        )
    )
    eng.run_iteration()
    checks = {r["url"]: r for r in eng.checks.read_arrow().to_pylist()}
    for u in urls[:3]:
        assert checks[u]["checksum"] == hashlib.sha1(served[u][1]).hexdigest()
        assert checks[u]["analysis_error"] is None
        assert checks[u]["parsing_table"] == url_md5(u)
    assert checks[urls[0]]["mime_type"] == "application/vnd.openxmlformats-officedocument.spreadsheetml.sheet"
    assert checks[urls[2]]["mime_type"] == "application/gzip"
    big = checks[urls[3]]
    assert big["analysis_error"] == "File too large to download"
    assert big["checksum"] is None and big["parsing_table"] is None
    bomb = checks[urls[4]]
    assert len(served[urls[4]][1]) < 16384
    assert bomb["checksum"] == hashlib.sha1(served[urls[4]][1]).hexdigest()
    assert bomb["parsing_table"] is None
    assert bomb["parsing_error"] == "csv_detective:File too large to download"

    reports = {
        r["url"]: json.loads(r["csv_detective"]) for r in eng.tables_index.read_arrow().to_pylist()
    }
    assert reports[urls[0]]["engine"] == "hydra-ray-xlsx"
    shapes = [
        (rep["header"], {c: v["python_type"] for c, v in rep["columns"].items()})
        for rep in (reports[u] for u in urls[:3])
    ]
    assert shapes[0] == shapes[1] == shapes[2]
    assert shapes[0][1] == {"id": "int", "name": "string", "value": "int"}

    docs = {d["doc_id"]: d["spans"] for d in eng.read_documents().to_pylist()}
    span_text = {u: [s["text"] for s in docs[url_md5(u)]] for u in urls[:3]}
    assert span_text[urls[0]] == span_text[urls[1]] == span_text[urls[2]]
    assert "".join(span_text[urls[1]]).replace("\n", "") == csv_text.replace("\n", "")
    eng.shutdown()


def test_purge_documents_deletion_vectors(tmp_path, make_crawl_engine):
    """purge_documents removes a doc via a deletion-vector commit (no
    rewrite of the append-only documents log); read_documents excludes
    it immediately, compaction materializes the delete away, gc
    reclaims the sidecar."""
    urls = [URL_OK, "https://site-ok2.example/data.csv"]
    responses = {
        ("head", u): {"kind": "ok", "status": 200, "headers": OK_HEADERS} for u in urls
    }
    eng = make_engine(make_crawl_engine, str(tmp_path / "wd"), responses, urls)
    eng.run_iteration()
    docs = eng.read_documents()
    assert docs.num_rows == 2
    victim, survivor = sorted(docs["doc_id"].to_pylist())
    files_before = set(eng.documents.files())

    out = eng.purge_documents([victim])
    assert out["deleted_rows"] >= 1
    # append-only log untouched — only a deletion-vector commit
    assert set(eng.documents.files()) == files_before
    after = eng.read_documents()
    assert after["doc_id"].to_pylist() == [survivor]

    # a fresh engine handle (resume) sees the purge
    eng2 = make_crawl_engine(str(tmp_path / "wd"))
    assert eng2.read_documents()["doc_id"].to_pylist() == [survivor]

    # compaction materializes the delete; gc reclaims the sidecar
    eng2.compact_documents()
    assert eng2.documents.deleted_count() == 0
    eng2.gc()
    assert eng2.read_documents()["doc_id"].to_pylist() == [survivor]
    eng.shutdown()
    eng2.shutdown()


def test_purge_documents_deferred_equality_delete(tmp_path, make_crawl_engine):
    """purge_documents(defer=True): O(1) equality-delete commit — no
    sidecar written, reads exclude immediately, a RE-CRAWLED doc (newer
    file) is visible again (Iceberg sequence rule), compaction
    resolves."""
    import os

    urls = [URL_OK, "https://site-ok2.example/data.csv"]
    responses = {
        ("head", u): {"kind": "ok", "status": 200, "headers": OK_HEADERS} for u in urls
    }
    eng = make_engine(make_crawl_engine, str(tmp_path / "wd"), responses, urls)
    eng.run_iteration()
    victim, survivor = sorted(eng.read_documents()["doc_id"].to_pylist())

    out = eng.purge_documents([victim], defer=True)
    assert out == {"deferred": True, "keys": 1}
    assert not os.path.isdir(os.path.join(eng.documents.path, "deletes"))
    assert eng.read_documents()["doc_id"].to_pylist() == [survivor]

    # an unchanged re-check does NOT resurrect the purge (change
    # detection skips re-analysis, so no newer row appears); the
    # sequence rule for genuinely-new rows is pinned at store level
    # (TestEqualityDeletes.test_sequence_rule_later_rows_survive)
    eng.check_resource_now(victim)
    assert eng.read_documents()["doc_id"].to_pylist() == [survivor]
    docs = [survivor]

    eng.compact_documents()
    assert eng.documents.pending_eq_deletes() == []
    assert sorted(eng.read_documents()["doc_id"].to_pylist()) == docs
    eng.shutdown()


def test_read_documents_changelog_since_version(tmp_path, make_crawl_engine):
    """read_documents(since_version=cursor): the incremental-consumer
    contract — only documents touched after the cursor come back, at
    their current (max-_iter) state, reading only the new files."""
    urls = [URL_OK, "https://site-ok2.example/data.csv"]
    responses = {
        ("head", u): {"kind": "ok", "status": 200, "headers": OK_HEADERS} for u in urls
    }
    eng = make_engine(make_crawl_engine, str(tmp_path / "wd"), responses, urls)
    eng.run_iteration()
    all_docs = sorted(eng.read_documents()["doc_id"].to_pylist())
    assert len(all_docs) == 2
    cursor = eng.documents.latest_version()

    # nothing new past the cursor
    assert eng.read_documents(since_version=cursor).num_rows == 0

    # a new priority resource appears → exactly it comes back
    eng.transport_responses = responses  # (fixture transport is static)
    new_url = "https://site-ok3.example/data.csv"
    responses[("head", new_url)] = {"kind": "ok", "status": 200, "headers": OK_HEADERS}
    import hashlib

    rid = hashlib.md5(new_url.encode()).hexdigest()
    eng.insert_priority_resource(
        {"resource_id": rid, "dataset_id": "d", "url": new_url, "format": "csv"}
    )
    eng.run_iteration()
    delta = eng.read_documents(since_version=cursor)
    assert delta["doc_id"].to_pylist() == [rid]
    assert "_iter" not in delta.column_names
    # full read agrees
    assert sorted(eng.read_documents()["doc_id"].to_pylist()) == sorted(all_docs + [rid])
    eng.shutdown()
