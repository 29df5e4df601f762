"""End-to-end crawl iterations against a scripted MockTransport
(mirrors reference tests/test_crawl/test_crawl.py status matrix and the
full E2E at :309-360, with aioresponses replaced by MockTransport)."""

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


def make_engine(factory, workdir, responses, urls, **kw):
    eng = factory(
        workdir,
        transport={"kind": "mock", "responses": responses},
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
        eng = make_engine(make_crawl_engine, tmp_workdir, responses, urls)
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
        assert checks["checksum"].to_pylist()[by_url[URL_OK]]
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


@pytest.mark.usefixtures("ray_session")
def test_xls_resource_routes_through_biff_reader(tmp_path, make_crawl_engine):
    """A catalog row with format='xls' parses through the BIFF reader
    in the analyse stage (S4 legacy-Excel route): the check carries a
    parsing_table and an inspection report with the xls engine mark."""
    import numpy as np

    from hydra_ray.synth import catalog_from_documents

    docs = pa.table({"doc_id": pa.array(np.arange(30), type=pa.int64())})
    seed = catalog_from_documents(docs)
    fmt = pa.array(
        ["xls" if i % 3 == 0 else f for i, f in enumerate(seed["format"].to_pylist())]
    )
    seed = seed.set_column(seed.column_names.index("format"), "format", fmt)
    eng = make_crawl_engine(str(tmp_path / "wd"), batch_size=30)
    eng.load_catalog(seed)
    eng.run(1)
    checks = eng.checks.read_arrow()
    cat = eng.catalog.read_arrow(columns=["resource_id", "format"])
    xls_ids = {
        r for r, f in zip(cat["resource_id"].to_pylist(), cat["format"].to_pylist()) if f == "xls"
    }
    assert xls_ids
    got = 0
    docs_tbl = eng.read_documents()
    doc_ids = set(docs_tbl["doc_id"].to_pylist())
    for row in checks.to_pylist():
        if row["resource_id"] in xls_ids and row["parsing_table"]:
            got += 1
            assert row["resource_id"] in doc_ids  # span doc built from the workbook route
    assert got > 0
    eng.shutdown()


@pytest.mark.usefixtures("ray_session")
def test_ods_resource_routes_through_odf_reader(tmp_path, make_crawl_engine):
    """A catalog row with format='ods' parses through the ODF reader
    in the analyse stage (S4 OpenDocument route, sources/ods.py): the check carries a
    parsing_table and an inspection report with the ods engine mark."""
    import numpy as np

    from hydra_ray.synth import catalog_from_documents

    docs = pa.table({"doc_id": pa.array(np.arange(30), type=pa.int64())})
    seed = catalog_from_documents(docs)
    fmt = pa.array(
        ["ods" if i % 3 == 0 else f for i, f in enumerate(seed["format"].to_pylist())]
    )
    seed = seed.set_column(seed.column_names.index("format"), "format", fmt)
    eng = make_crawl_engine(str(tmp_path / "wd"), batch_size=30)
    eng.load_catalog(seed)
    eng.run(1)
    checks = eng.checks.read_arrow()
    cat = eng.catalog.read_arrow(columns=["resource_id", "format"])
    ods_ids = {
        r for r, f in zip(cat["resource_id"].to_pylist(), cat["format"].to_pylist()) if f == "ods"
    }
    assert ods_ids
    got = 0
    docs_tbl = eng.read_documents()
    doc_ids = set(docs_tbl["doc_id"].to_pylist())
    for row in checks.to_pylist():
        if row["resource_id"] in ods_ids and row["parsing_table"]:
            got += 1
            assert row["resource_id"] in doc_ids  # span doc built from the workbook route
    assert got > 0
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
