"""Actor-failure chaos (VERDICT r4 #5): ray.kill a state-pool actor
mid-iteration and assert the engine either fails cleanly at the
iteration boundary (nothing partially committed) or resumes
byte-identical from the last checkpoint — the north rule's
resumability beyond the driver kill+resume covered by test_soak.

Two actor classes exercised: PolitenessShard (killed between the sink
stage and the politeness commit — the worst window: txn part files are
already on disk but unregistered) and UrlSeenShard (killed before the
state checkpoint write).
"""

import numpy as np
import pyarrow as pa
import pytest
import ray

from hydra_ray.synth import catalog_from_documents

KW = dict(batch_size=40, politeness_kwargs={"backoff_nb_req": 10**9})
N_DOCS = 120
N_ITER = 4


def _checks_fingerprint(eng) -> list[str]:
    t = eng.checks.read_arrow(columns=["id", "url", "status", "timeout", "created_at"])
    rows = sorted(
        f"{i}|{u}|{s}|{to}|{c}"
        for i, u, s, to, c in zip(
            t["id"].to_pylist(),
            t["url"].to_pylist(),
            t["status"].to_pylist(),
            t["timeout"].to_pylist(),
            t["created_at"].to_pylist(),
        )
    )
    return rows


def _reference_run(tmp_path, make_crawl_engine):
    docs = pa.table({"doc_id": pa.array(np.arange(N_DOCS), type=pa.int64())})
    ref = make_crawl_engine(str(tmp_path / "ref"), **KW)
    ref.load_catalog(catalog_from_documents(docs))
    ref.run(N_ITER)
    fp = _checks_fingerprint(ref)
    ref.shutdown()
    return docs, fp


@pytest.mark.usefixtures("ray_session")
def test_politeness_shard_killed_mid_iteration(tmp_path, make_crawl_engine):
    docs, want = _reference_run(tmp_path, make_crawl_engine)
    eng = make_crawl_engine(str(tmp_path / "wd"), **KW)
    eng.load_catalog(catalog_from_documents(docs))
    eng.run(2)
    committed_iter = eng.iteration
    checks_before = eng.checks.count()

    # kill shard 0 right before the politeness commit: the sink stage
    # has already written its txn part files, nothing is registered yet
    orig = eng.politeness.record_agg

    def sabotage(records, now):
        ray.kill(eng.politeness.shards[0], no_restart=True)
        return orig(records, now)

    eng.politeness.record_agg = sabotage
    with pytest.raises(ray.exceptions.RayActorError):
        eng.run_iteration()

    # failure at the iteration boundary: the catalog cursor did not
    # advance (the sink's part files may already be registered — that
    # window is exactly what the idempotent rerun below must absorb)
    assert eng.iteration == committed_iter
    assert int(eng.catalog.meta().get("iteration", 0)) == committed_iter
    assert eng.checks.count() >= checks_before
    eng.shutdown()

    # resume from checkpoint with fresh actors → byte-identical end
    # state: the rerun re-registers content-named part files, which the
    # basename-idempotent commit absorbs instead of duplicating rows
    eng2 = make_crawl_engine(str(tmp_path / "wd"), **KW)
    assert eng2.iteration == committed_iter
    eng2.run(N_ITER - committed_iter)
    got = _checks_fingerprint(eng2)
    assert len(got) == len(set(got))  # no duplicated check rows
    assert got == want
    eng2.shutdown()


@pytest.mark.usefixtures("ray_session")
def test_urlseen_shard_killed_before_checkpoint(tmp_path, make_crawl_engine):
    docs, want = _reference_run(tmp_path, make_crawl_engine)
    eng = make_crawl_engine(str(tmp_path / "wd"), **KW)
    eng.load_catalog(catalog_from_documents(docs))
    eng.run(1)
    committed_iter = eng.iteration

    # the URL-seen shard dies mid-crawl; the failure surfaces when the
    # iteration checkpoint tries to persist shard state — BEFORE the
    # catalog manifest advances (crash-window ordering, crawl.py
    # _finish_iteration)
    ray.kill(eng.urlseen.shards[1], no_restart=True)
    with pytest.raises(ray.exceptions.RayActorError):
        eng.run_iteration()
    assert int(eng.catalog.meta().get("iteration", 0)) == committed_iter
    eng.shutdown()

    eng2 = make_crawl_engine(str(tmp_path / "wd"), **KW)
    assert eng2.iteration == committed_iter
    eng2.run(N_ITER - committed_iter)
    assert _checks_fingerprint(eng2) == want
    # the restored URL-seen state still dedups: reloading the same seed
    # catalog must not create duplicate rows
    n_before = eng2.catalog.count()
    eng2.load_catalog(catalog_from_documents(docs))
    assert eng2.catalog.count() == n_before
    eng2.shutdown()


@pytest.mark.usefixtures("ray_session")
def test_hnsw_shard_killed_fails_loud_and_retry_is_deterministic():
    """Third actor class (VERDICT r4 #5 asked for ≥2): an HNSW shard
    actor dying mid-query must surface as a RayActorError — never a
    silently absent candidate set (which would degrade recall with no
    signal) — and a from-scratch retry must return identical rows."""
    import pandas as pd
    import ray.data as rd

    from hydra_ray.stages.similarity import _HnswShard, _matrix_of, _normalize, knn_hnsw

    rng = np.random.default_rng(11)
    n, dim = 300, 16
    tbl = pa.table(
        {
            "vec_id": pa.array(np.arange(n), type=pa.int64()),
            "embedding": pa.array(list(rng.normal(size=(n, dim)).astype("float32"))),
        }
    )
    ds = rd.from_arrow(tbl).repartition(4)

    baseline = knn_hnsw(ds, k=1)
    retry = knn_hnsw(ds, k=1)
    pd.testing.assert_frame_equal(
        baseline.sort_values(["vec_id", "nn_id"]).reset_index(drop=True),
        retry.sort_values(["vec_id", "nn_id"]).reset_index(drop=True),
    )

    # the failure mode: a dead shard raises out of ray.get in the query
    # task; the merge never runs over a partial candidate set
    from hydra_ray.sources.store import ds_to_table_refs

    refs = ds_to_table_refs(ds)
    shard_cls = ray.remote(num_cpus=1)(_HnswShard)
    actor = shard_cls.remote(refs, 8, 64, "vec_id", "embedding")
    qm = _normalize(_matrix_of(tbl.slice(0, 4), "embedding"))
    qids = np.arange(4, dtype=np.int64)
    ray.get(actor.query.remote(qids, qm, 1, 48))  # alive: answers
    ray.kill(actor)
    # ray.kill is async (GCS RPC) while task submission goes direct to
    # the actor, so one query submitted immediately after the kill can
    # still be served. Poll: every pre-kill-delivery call must SUCCEED
    # (never a partial/empty candidate set) and the first post-delivery
    # call must raise RayActorError — the loud-failure contract.
    import time

    with pytest.raises(ray.exceptions.RayActorError):
        for _ in range(200):
            out = ray.get(actor.query.remote(qids, qm, 1, 48))
            # alive ⇒ full answer table (k=1 row per query), never partial
            assert out is not None and out.num_rows == len(qids)
            time.sleep(0.05)


@pytest.mark.usefixtures("ray_session")
def test_crash_rerun_with_shifted_block_boundaries(tmp_path, make_crawl_engine, monkeypatch):
    """The worst rerun window made worse: after the crash the sink's
    part files are already REGISTERED, and the rerun's dynamic block
    splitting cuts the same row set at different boundaries (ray 2.49
    re-cuts map outputs between runs). Simulated by merging the crashed
    attempt's committed parts into ONE content-named file via manifest
    surgery; a basename-skip commit would then duplicate every rerun
    row outside the first block (the merged file shares its min-id name
    with exactly one rerun part), while replace_tag supersedes the
    whole attempt."""
    import json
    import os

    import pyarrow.parquet as pq

    from hydra_ray.config import config

    # small fetch batches → the sink sees several blocks per iteration,
    # so the merged-file surgery below is a REAL boundary mismatch (a
    # single-block rerun is always basename-absorbed and proves nothing)
    monkeypatch.setattr(config, "FETCH_BATCH_SIZE", 16)

    docs, want = _reference_run(tmp_path, make_crawl_engine)
    eng = make_crawl_engine(str(tmp_path / "wd"), **KW)
    eng.load_catalog(catalog_from_documents(docs))
    eng.run(2)
    committed_iter = eng.iteration

    orig = eng.politeness.record_agg

    def sabotage(records, now):
        ray.kill(eng.politeness.shards[0], no_restart=True)
        return orig(records, now)

    eng.politeness.record_agg = sabotage
    with pytest.raises(ray.exceptions.RayActorError):
        eng.run_iteration()
    assert int(eng.catalog.meta().get("iteration", 0)) == committed_iter
    eng.shutdown()

    # manifest surgery on the checks table: collapse the crashed
    # attempt's registered parts into one merged block (min-id name)
    from hydra_ray.sources.store import VersionedTable

    vt = VersionedTable(str(tmp_path / "wd" / "checks"))
    manifest = vt._load_manifest()
    mpath = vt._manifest_path(manifest["version"])
    marker = f"txn-iter{committed_iter}-"
    tagged = [
        f for f in manifest["files"]
        if os.path.basename(os.path.dirname(f)).startswith(marker)
    ]
    # the crash window really registered MULTIPLE parts — the rerun
    # will cut the same rows differently once the merge below lands
    assert len(tagged) >= 2
    merged = pa.concat_tables([pq.read_table(f) for f in tagged])
    min_id = min(merged["id"].to_pylist()) & 0xFFFFFFFFFFFFFFFF
    merged_path = os.path.join(os.path.dirname(tagged[0]), f"part-{min_id:016x}.parquet")
    for f in tagged:
        os.remove(f)
    pq.write_table(merged, merged_path, compression="snappy")
    manifest["files"] = [f for f in manifest["files"] if f not in tagged] + [merged_path]
    manifest["file_versions"] = {
        f: v for f, v in (manifest.get("file_versions") or {}).items() if f not in tagged
    }
    manifest["file_versions"][merged_path] = manifest["version"]
    with open(mpath, "w") as f:
        json.dump(manifest, f)

    eng2 = make_crawl_engine(str(tmp_path / "wd"), **KW)
    assert eng2.iteration == committed_iter
    eng2.run(N_ITER - committed_iter)
    got = _checks_fingerprint(eng2)
    assert len(got) == len(set(got))  # boundary-straddling rows not duplicated
    assert got == want
    eng2.shutdown()
