"""Multi-epoch change detection end-to-end: re-checks against a world
whose content changed vs one that didn't (the analyse_resource change
chain driving next_check_at and detected_last_modified_at)."""

import numpy as np
import pyarrow as pa
import pytest

from hydra_ray.synth import catalog_from_documents, synthetic_response


def changing_and_stable_urls(n=300, epoch_a=0, epoch_b=1):
    """Split synthesized urls into (changed between epochs, unchanged)."""
    docs = pa.table({"doc_id": pa.array(np.arange(n), type=pa.int64())})
    cat = catalog_from_documents(docs)
    changed, stable = [], []
    for url in cat["url"].to_pylist():
        ra = synthetic_response(url, epoch=epoch_a)
        rb = synthetic_response(url, epoch=epoch_b)
        if ra.get("kind") == "ok" and rb.get("kind") == "ok":
            ha, hb = ra.get("headers", {}), rb.get("headers", {})
            if "content-length" in ha and "content-length" in hb:
                (changed if ha["content-length"] != hb["content-length"] else stable).append(url)
    return cat, changed, stable


@pytest.mark.usefixtures("ray_session")
def test_epoch_change_drives_detection(tmp_path, make_crawl_engine):
    cat, changed, stable = changing_and_stable_urls()
    assert changed and stable, "synthetic world must have both classes"

    eng = make_crawl_engine(
        str(tmp_path / "wd"),
        transport={"kind": "synthetic", "epoch": 0},
        batch_size=400,
        politeness_kwargs={"backoff_nb_req": 10**9},
    )
    eng.load_catalog(cat)
    s0 = eng.run_iteration()
    assert s0["changed"] == s0["selected"]  # first checks

    # 12h later the world is at epoch 1
    eng.transport = {"kind": "synthetic", "epoch": 1}
    eng.iteration += 12 * 60
    s1 = eng.run_iteration()
    assert s1["selected"] > 0

    checks = eng.checks.read_arrow().to_pandas()
    # for urls whose content-length changed, the second check must differ
    flips = 0
    for url in changed[:50]:
        rows = checks[checks["url"] == url].sort_values("created_at")
        if len(rows) == 2:
            assert rows.iloc[0]["headers"] != rows.iloc[1]["headers"]
            flips += 1
    assert flips > 0
    # stable urls: second check unchanged → long next_check delay
    import pandas as pd

    stables_checked = 0
    for url in stable[:50]:
        rows = checks[checks["url"] == url].sort_values("created_at")
        if len(rows) == 2:
            delay = rows.iloc[1]["next_check_at"] - rows.iloc[1]["created_at"]
            assert delay >= pd.Timedelta(hours=12)
            stables_checked += 1
    assert stables_checked > 0
