"""Similarity search: exact nn_all, IVF/PQ/HNSW recall against it,
multimodal feature plumbing, partial-agg helper."""

import numpy as np
import pyarrow as pa
import pytest
import ray.data as rd

from hydra_ray.stages.similarity import nn_all


def embeddings(n=60, dim=16, seed=3):
    rng = np.random.default_rng(seed)
    m = rng.normal(size=(n, dim)).astype(np.float32)
    # plant a near-identical pair
    m[1] = m[0] + rng.normal(scale=0.01, size=dim).astype(np.float32)
    return pa.table(
        {
            "vec_id": pa.array(np.arange(n), type=pa.int64()),
            "embedding": pa.array([list(map(float, r)) for r in m], type=pa.list_(pa.float32())),
        }
    )


@pytest.mark.usefixtures("ray_session")
class TestSimilarity:
    def test_nn_all_finds_planted_pair(self):
        tbl = embeddings()
        out = nn_all(rd.from_arrow(tbl).repartition(3)).to_pandas().set_index("vec_id")
        assert out.loc[0, "nn_id"] == 1
        assert out.loc[1, "nn_id"] == 0

    def test_ivf_recall_vs_bruteforce_sf0001(self):
        """knn_ivf recall@1 >= 0.95 against exact brute force on the
        sf0.001 embeddings (uniform vectors — IVF's worst case, hence
        nprobe=7/8; clustered embeddings need far fewer probes)."""
        from hydra_ray.stages.similarity import knn_ivf

        path = "/root/testdata/sf0.001/embeddings.parquet"
        brute = (
            nn_all(rd.read_parquet(path, columns=["vec_id", "embedding"]))
            .to_pandas()
            .set_index("vec_id")["nn_id"]
        )
        ivf = (
            knn_ivf(
                rd.read_parquet(path, columns=["vec_id", "embedding"]),
                k=1,
                n_centroids=8,
                nprobe=7,
            )
            .to_pandas()
            .set_index("vec_id")["nn_id"]
        )
        assert len(ivf) == len(brute)  # every vector got a neighbor
        recall = float((brute.loc[ivf.index] == ivf).mean())
        assert recall >= 0.95, f"IVF recall {recall:.3f} < 0.95"

    def test_nn_all_auto_routes_to_ivf(self):
        """Above brute_force_max, nn_all returns the IVF result —
        same schema, full coverage, and the planted twin still found."""
        tbl = embeddings()
        out = nn_all(rd.from_arrow(tbl).repartition(3), brute_force_max=10)
        df = out.to_pandas().set_index("vec_id")
        assert set(df.columns) == {"nn_id", "sim"}
        assert df.loc[0, "nn_id"] == 1 and df.loc[1, "nn_id"] == 0


@pytest.mark.usefixtures("ray_session")
def test_media_pipeline_schema_and_determinism():
    from hydra_ray.stages.multimodal import MediaFeatures, MediaFetcher, decode_image

    refs = pa.table({"media_ref": [f"media://{i}/0" for i in range(5)]})
    fetched = MediaFetcher()(refs)
    assert fetched.schema.names == ["media_ref", "media_type", "payload"]
    assert fetched["payload"].type == pa.binary()
    feats = MediaFeatures()(fetched)
    assert feats.schema.names == ["media_ref", "n_bytes", "features"]
    feats2 = MediaFeatures()(MediaFetcher()(refs))
    assert feats.equals(feats2)
    with pytest.raises(NotImplementedError):
        decode_image(b"xxx")


@pytest.mark.usefixtures("ray_session")
def test_grouped_agg_matches_direct():
    from hydra_ray.stages.agg import grouped_agg

    t = pa.table(
        {
            "k": ["a", "b", "a", "b", "a"],
            "v": pa.array([1.0, 2.0, 3.0, 4.0, 5.0]),
        }
    )
    out = (
        grouped_agg(
            rd.from_arrow(t).repartition(3),
            keys=["k"],
            aggs=[("v", "sum", "sv"), ("v", "count", "n"), ("v", "min", "mn"), ("v", "max", "mx")],
        )
        .to_pandas()
        .set_index("k")
        .sort_index()
    )
    assert out.loc["a", "sv"] == 9.0 and out.loc["b", "sv"] == 6.0
    assert out.loc["a", "n"] == 3 and out.loc["b", "n"] == 2
    assert out.loc["a", "mn"] == 1.0 and out.loc["a", "mx"] == 5.0


def test_png_wav_codecs_roundtrip_all_filters():
    """Real media codecs (sources/codecs.py): PNG round-trips bit-exact
    under every scanline filter; WAV round-trips 16-bit PCM; non-native
    formats stay gated."""
    import numpy as np
    import pytest as _pytest

    from hydra_ray.sources.codecs import decode_png, encode_png, decode_wav, encode_wav
    from hydra_ray.stages.multimodal import decode_audio, decode_image

    rng = np.random.default_rng(5)
    img = rng.integers(0, 256, size=(7, 5, 3), dtype=np.uint8)
    for ft in range(5):
        assert (decode_image(encode_png(img, filter_type=ft)) == img).all()
    gray = rng.integers(0, 256, size=(4, 6, 1), dtype=np.uint8)
    assert (decode_png(encode_png(gray)) == gray).all()
    rgba = rng.integers(0, 256, size=(3, 3, 4), dtype=np.uint8)
    assert (decode_png(encode_png(rgba)) == rgba).all()

    s = rng.integers(-32768, 32767, size=(200, 2)).astype(np.int16)
    arr, rate = decode_audio(encode_wav(s, 44100))
    assert rate == 44100 and (arr == s).all()

    # JPEG is now a real codec (sources/codecs.py) — truncated bytes are a
    # parse error, not an unsupported format.
    with _pytest.raises(ValueError):
        decode_image(b"\xff\xd8\xffjpeg-bytes")
    with _pytest.raises(NotImplementedError):
        decode_audio(b"ID3mp3-bytes")
    assert decode_image(b"anything", decoder=lambda b: "injected") == "injected"


def test_image_dhash_semantics():
    """dHash: a left-to-right darkening gradient sets every bit; its
    mirror sets none; identical images collide, distinct ones don't."""
    import numpy as np
    import pyarrow as pa

    from hydra_ray.sources.codecs import encode_bmp
    from hydra_ray.stages.multimodal import image_dhash_batch

    grad = np.repeat(np.arange(18, 0, -1, dtype=np.uint8)[None, :] * 14, 16, axis=0)
    bright = np.stack([grad] * 3, axis=2)
    t = pa.table({
        "doc_id": pa.array([1, 2, 3], type=pa.int64()),
        "payload": pa.array(
            [encode_bmp(bright), encode_bmp(bright[:, ::-1]), encode_bmp(bright)],
            type=pa.binary(),
        ),
    })
    out = image_dhash_batch(t)["dhash"].to_pylist()
    assert out[0] == "f" * 16 and out[1] == "0" * 16
    assert out[0] == out[2]


def test_gif_animation_compositing_and_roundtrip():
    """Multi-frame GIF: encoder/decoder round-trip and sub-rectangle
    frame compositing onto the previous canvas."""
    import struct

    import numpy as np

    from hydra_ray.sources.codecs import (
        _lzw_encode_gif,
        decode_gif_frames,
        encode_gif_frames,
    )

    # hand-built: 2x2 screen, palette [black, red]; frame 1 all black,
    # frame 2 a 1x1 sub-rect at (1,1) painting red — decoder must
    # composite it over the previous canvas.
    out = bytearray(b"GIF89a")
    out += struct.pack("<HHBBB", 2, 2, 0x81, 0, 0)  # gct, 4 entries
    out += bytes([0, 0, 0, 255, 0, 0] + [0] * 6)  # 4-entry table
    for left, top, w, h, indices in [(0, 0, 2, 2, [0, 0, 0, 0]), (1, 1, 1, 1, [1])]:
        out += b"\x2c" + struct.pack("<HHHHB", left, top, w, h, 0)
        out.append(2)
        lzw = _lzw_encode_gif(2, np.array(indices))
        out.append(len(lzw))
        out += lzw + b"\x00"
    out += b"\x3b"
    frames = decode_gif_frames(bytes(out))
    assert frames.shape == (2, 2, 2, 3)
    assert (frames[0] == 0).all()
    exp = np.zeros((2, 2, 3), np.uint8)
    exp[1, 1] = (255, 0, 0)
    assert (frames[1] == exp).all()

    anim = np.zeros((4, 2, 2, 3), np.uint8)
    for f in range(4):
        anim[f] = f * 10
    assert (decode_gif_frames(encode_gif_frames(anim)) == anim).all()


def test_gif_disposal_restore_previous():
    """GCE disposal method 3: after the frame is emitted, its rect
    reverts to the pre-frame pixels, so a later frame composites over
    the RESTORED canvas — not over the disposed frame's paint."""
    import struct

    import numpy as np

    from hydra_ray.sources.codecs import _lzw_encode_gif, decode_gif_frames

    out = bytearray(b"GIF89a")
    out += struct.pack("<HHBBB", 2, 2, 0x81, 0, 0)  # 4-entry gct
    out += bytes([0, 0, 0, 255, 0, 0, 0, 255, 0, 0, 0, 255])
    specs = [
        (0, (0, 0, 2, 2), [0, 0, 0, 0]),  # frame 1: all black
        (3, (0, 0, 1, 1), [1]),  # frame 2: red at (0,0), restore-previous
        (0, (1, 1, 1, 1), [2]),  # frame 3: green at (1,1)
    ]
    for disposal, (left, top, w, h), indices in specs:
        out += b"\x21\xf9\x04" + bytes([disposal << 2]) + b"\x00\x00\x00\x00"
        out += b"\x2c" + struct.pack("<HHHHB", left, top, w, h, 0)
        out.append(2)
        lzw = _lzw_encode_gif(2, np.array(indices))
        out.append(len(lzw))
        out += lzw + b"\x00"
    out += b"\x3b"
    frames = decode_gif_frames(bytes(out))
    assert frames.shape == (3, 2, 2, 3)
    assert (frames[1][0, 0] == (255, 0, 0)).all()  # red painted in frame 2
    exp = np.zeros((2, 2, 3), np.uint8)
    exp[1, 1] = (0, 255, 0)
    assert (frames[2] == exp).all()  # (0,0) restored to black, green added


def test_pq_recall_vs_bruteforce_sf0001(ray_session):
    """knn_pq recall@1 >= 0.85 against exact brute force (PQ with m=8,
    ks=16 on 64-dim; ADC is lossy by design — the knob trade is
    documented) and the encode/scan plumbing is deterministic."""
    import ray.data as rd

    from hydra_ray.stages.similarity import knn_pq, nn_all

    path = "/root/testdata/sf0.001/embeddings.parquet"
    brute = (
        nn_all(rd.read_parquet(path, columns=["vec_id", "embedding"]))
        .to_pandas()
        .set_index("vec_id")["nn_id"]
        .sort_index()
    )
    pq = (
        knn_pq(rd.read_parquet(path, columns=["vec_id", "embedding"]), k=1)
        .to_pandas()
        .set_index("vec_id")["nn_id"]
        .sort_index()
    )
    recall = float((brute.loc[pq.index] == pq).mean())
    assert recall >= 0.85, f"PQ recall {recall:.3f} < 0.85"

    pq2 = (
        knn_pq(rd.read_parquet(path, columns=["vec_id", "embedding"]), k=1)
        .to_pandas()
        .set_index("vec_id")["nn_id"]
        .sort_index()
    )
    assert (pq == pq2).all()


class TestHnsw:
    def test_hnsw_recall_vs_bruteforce_sf0001(self):
        """Sharded-HNSW recall@1 >= 0.95 vs exact brute force on the
        sf0.001 embeddings (uniform vectors), across a shard split."""
        import pandas as pd

        from hydra_ray.stages.similarity import knn_hnsw, nn_all

        path = "/root/testdata/sf0.001/embeddings.parquet"
        truth = nn_all(rd.read_parquet(path, columns=["vec_id", "embedding"]))
        tdf = truth if isinstance(truth, pd.DataFrame) else truth.to_pandas()
        approx = knn_hnsw(
            rd.read_parquet(path, columns=["vec_id", "embedding"]).repartition(4),
            k=1,
        )
        assert len(approx) == len(tdf)  # every vector answered
        m = tdf[["vec_id", "sim"]].merge(
            approx[["vec_id", "sim"]], on="vec_id", how="left",
            suffixes=("_true", "_approx"),
        )
        recall = float((m["sim_approx"] >= m["sim_true"] - 1e-6).fillna(False).mean())
        assert recall >= 0.95, f"HNSW recall {recall:.3f} < 0.95"

    def test_hnsw_finds_planted_twin_topk(self):
        from hydra_ray.stages.similarity import knn_hnsw

        tbl = embeddings()
        out = knn_hnsw(rd.from_arrow(tbl).repartition(2), k=2).set_index("vec_id")
        assert out.loc[0, "nn_id"].iloc[0] == 1  # twin is rank 1
        assert out.loc[1, "nn_id"].iloc[0] == 0
        # k respected: at most 2 neighbors per query, no self matches
        per = out.groupby(level=0).size()
        assert (per <= 2).all()
        flat = out.reset_index()
        assert (flat["vec_id"] != flat["nn_id"]).all()

    def test_hnsw_graph_deterministic_levels(self):
        """Level assignment depends only on ids (seeded splitmix64), so
        two builds over the same (id, vector) set agree level for
        level."""
        import numpy as np

        from hydra_ray.stages.similarity import _HnswGraph, _normalize

        rng = np.random.default_rng(4)
        ids = np.arange(64, dtype=np.int64)
        vecs = _normalize(rng.normal(size=(64, 16)))
        g1 = _HnswGraph(ids, vecs, m=4, ef_construction=16)
        g2 = _HnswGraph(ids, vecs, m=4, ef_construction=16)
        assert (g1.levels == g2.levels).all()
        assert g1.entry == g2.entry
        assert g1.neighbors == g2.neighbors
