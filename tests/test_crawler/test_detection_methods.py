"""Header-driven change-detection methods end-to-end (reference
tests/test_crawl/test_crawl.py:362-575): which detection method wins for
given (previous, current) header combinations, observed through the
analysis payloads."""

import json

import pyarrow as pa
import pytest

from hydra_ray.functions.urls import url_md5

URL = "https://m.example/data.csv"


def run_two_checks(tmp_workdir, make_crawl_engine, first_headers, second_headers,
                   harvest_modified_at=None):
    # transports are reconstructed per task, so scripted *sequences* don't
    # survive across iterations — swap the whole mock spec between runs
    first = {("head", URL): {"kind": "ok", "status": 200, "headers": first_headers}}
    second = {("head", URL): {"kind": "ok", "status": 200, "headers": second_headers}}
    seed = {
        "dataset_id": ["ds-0"],
        "resource_id": [url_md5(URL)],
        "url": [URL],
        "format": ["csv"],
    }
    tbl = pa.table(seed)
    if harvest_modified_at is not None:
        tbl = tbl.append_column(
            "harvest_modified_at", pa.array([harvest_modified_at], type=pa.timestamp("us"))
        )
    eng = make_crawl_engine(
        tmp_workdir,
        transport={"kind": "mock", "responses": first},
        batch_size=10,
    )
    eng.load_catalog(tbl)
    eng.run_iteration()
    eng.transport = {"kind": "mock", "responses": second}
    eng.iteration += 12 * 60  # 12h later → due again
    eng.run_iteration()
    payloads = eng.payloads.read_arrow()
    methods = []
    for kind, pl in zip(payloads["kind"].to_pylist(), payloads["payload"].to_pylist()):
        if kind == "analysis":
            methods.append(json.loads(pl).get("analysis:last-modified-detection"))
    checks = eng.checks.read_arrow().sort_by("created_at")
    return methods, checks


CL = {"content-type": "text/csv", "content-length": "1000"}
CL2 = {"content-type": "text/csv", "content-length": "2000"}
LM1 = {**CL, "last-modified": "Mon, 01 Jan 2024 00:00:00 GMT"}
LM2 = {**CL, "last-modified": "Tue, 02 Jan 2024 00:00:00 GMT"}


@pytest.mark.usefixtures("ray_session")
class TestDetectionMethods:
    def test_first_check_uses_last_modified_header(self, tmp_workdir, make_crawl_engine):
        methods, _ = run_two_checks(tmp_workdir, make_crawl_engine, LM1, LM1)
        # first analysis: single check with last-modified → that method
        assert methods[0] == "last-modified-header"

    def test_changed_last_modified_wins(self, tmp_workdir, make_crawl_engine):
        methods, checks = run_two_checks(tmp_workdir, make_crawl_engine, LM1, LM2)
        assert methods[-1] == "last-modified-header"
        # detected_last_modified_at carries the parsed header date
        dlma = checks["detected_last_modified_at"].to_pylist()[-1]
        assert dlma is not None and dlma.day == 2

    def test_content_length_change_detected(self, tmp_workdir, make_crawl_engine):
        # no last-modified headers → content-length drives detection
        methods, _ = run_two_checks(tmp_workdir, make_crawl_engine, CL, CL2)
        assert methods[-1] == "content-length-header"

    def test_same_content_length_falls_back_to_checksum(self, tmp_workdir, make_crawl_engine):
        # identical headers, no prior detected date → NO_GUESS → download →
        # checksum identical (same synthetic body) → no further analysis
        methods, checks = run_two_checks(tmp_workdir, make_crawl_engine, CL, CL)
        # second check analysed nothing new: only the first analysis payload
        assert len(methods) == 1
        assert checks["checksum"].to_pylist()[0] == checks["checksum"].to_pylist()[1]

    def test_harvest_metadata_wins_over_headers(self, tmp_workdir, make_crawl_engine):
        from datetime import datetime

        methods, _ = run_two_checks(
            tmp_workdir,
            make_crawl_engine,
            LM1,
            LM2,
            harvest_modified_at=datetime(2024, 3, 1),
        )
        assert methods[-1] == "harvest-resource-metadata"
