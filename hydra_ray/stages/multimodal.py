"""Multimodal (binary) column plumbing: fetch → decode → features.

Media payloads are opaque ``binary`` columns with typed metadata
(media_ref, media_type, n_bytes). The Ray-side plumbing — schema,
actor-pool signature, batch sizing for large payloads — is real and
tested. Codec status:

  - ``MediaFetcher``   : media_ref → deterministic synthetic bytes
                         (stands in for the S3/HTTP blob fetch)
  - ``decode_image``   : REAL for PNG (sources/codecs.py, stdlib zlib
                         decoder); other formats need an injected
                         decoder (Pillow absent — honestly gated)
  - ``decode_audio``   : REAL for 16-bit WAV (stdlib wave); other
                         codecs gated the same way
  - ``MediaFeatures``  : byte-histogram + size features (vectorized,
                         deterministic — the stand-in for a real
                         feature extractor / embedding model);
                         pixel/sample stats come from the decode path
                         (queries: media_decode)

Batches are kept small (MEDIA_BATCH_SIZE) so payload_bytes × batch ×
concurrency stays inside a worker heap — the knob that matters for
real image/video payloads.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pyarrow as pa

MEDIA_BATCH_SIZE = 64  # small on purpose: payloads are wide rows


def synthetic_media_bytes(media_ref: str, max_bytes: int = 4096) -> bytes:
    digest = hashlib.md5(media_ref.encode("utf-8", "surrogateescape")).digest()
    size = 256 + digest[0] * 13
    reps = -(-min(size, max_bytes) // 16)
    return (digest * reps)[: min(size, max_bytes)]


class MediaFetcher:
    """Actor-pool stage: media_ref → (media_ref, media_type, payload)."""

    def __init__(self, max_bytes: int = 4096):
        self.max_bytes = max_bytes

    def __call__(self, batch: pa.Table) -> pa.Table:
        refs = batch["media_ref"].to_pylist()
        payloads = [synthetic_media_bytes(r or "", self.max_bytes) for r in refs]
        types = ["image/synthetic"] * len(refs)
        return pa.table(
            {
                "media_ref": pa.array(refs, type=pa.string()),
                "media_type": pa.array(types, type=pa.string()),
                "payload": pa.array(payloads, type=pa.binary()),
            }
        )


def decode_image(payload: bytes, decoder=None):
    """Decode an image payload to an HxWxC uint8 array.

    PNG, BMP, GIF, JPEG (baseline SOF0 AND progressive SOF2) and
    lossless WebP (VP8L subset — sources/webp.py) decode natively
    (stdlib+numpy only: zlib scanline filters / BITMAPINFOHEADER rows /
    LZW + color tables / Huffman + IDCT with progressive scan
    accumulation / canonical-prefix-code VP8L). Other formats (lossy
    WebP, arithmetic-coded or hierarchical JPEG, …) need an injected
    ``decoder`` (e.g. PIL.Image.open) — those libs are not in this
    container, so they stay honestly gated."""
    if decoder is not None:
        return decoder(payload)
    head = bytes(payload[:8])
    if head == b"\x89PNG\r\n\x1a\n":
        from hydra_ray.sources.codecs import decode_png

        return decode_png(payload)
    if head[:2] == b"BM":
        from hydra_ray.sources.codecs import decode_bmp

        return decode_bmp(payload)
    if head[:4] == b"GIF8":
        from hydra_ray.sources.codecs import decode_gif

        return decode_gif(payload)
    if head[:2] == b"\xff\xd8":
        from hydra_ray.sources.codecs import decode_jpeg

        return decode_jpeg(payload)
    if head[:4] == b"RIFF" and bytes(payload[8:12]) == b"WEBP":
        from hydra_ray.sources.webp import decode_webp_lossless

        return decode_webp_lossless(payload)
    raise NotImplementedError(
        "PNG/BMP/GIF/baseline-JPEG/lossless-WebP decode natively; "
        "inject a decoder for other image formats"
    )


def decode_audio(payload: bytes, decoder=None):
    """Decode an audio payload to (int16 samples (n, channels), rate).
    WAV (stdlib wave), AIFF (big-endian PCM + 80-bit-extended rate),
    Sun AU (encoding 3) and FLAC (sources/flac.py — Rice/LPC lossless
    layer) decode natively; lossy codecs (MP3, AAC…) need an injected
    decoder (ffmpeg et al. absent from this container)."""
    if decoder is not None:
        return decoder(payload)
    head = bytes(payload[:4])
    if head == b"RIFF":
        from hydra_ray.sources.codecs import decode_wav, decode_wav_g711, wav_format_tag

        if wav_format_tag(payload) in (6, 7):
            return decode_wav_g711(payload)
        return decode_wav(payload)
    if head == b"FORM":
        from hydra_ray.sources.codecs import decode_aiff

        return decode_aiff(payload)
    if head == b".snd":
        from hydra_ray.sources.codecs import decode_au

        return decode_au(payload)
    if head == b"fLaC":
        from hydra_ray.sources.flac import decode_flac

        return decode_flac(payload)
    raise NotImplementedError(
        "WAV/AIFF/AU/FLAC decode natively; inject a decoder for lossy audio formats"
    )


class MediaFeatures:
    """Actor-pool stage: payload → deterministic feature vector
    (n_bytes + 8-bucket byte histogram). Stand-in for model inference;
    the batch/actor shape is identical to a real embedding stage."""

    N_BUCKETS = 8

    def __call__(self, batch: pa.Table) -> pa.Table:
        payloads = batch["payload"].to_pylist()
        n = len(payloads)
        n_bytes = np.zeros(n, dtype=np.int64)
        hist = np.zeros((n, self.N_BUCKETS), dtype=np.float32)
        for i, p in enumerate(payloads):
            buf = np.frombuffer(p or b"", dtype=np.uint8)
            n_bytes[i] = len(buf)
            if len(buf):
                counts, _ = np.histogram(buf, bins=self.N_BUCKETS, range=(0, 256))
                hist[i] = counts / len(buf)
        feat = pa.FixedSizeListArray.from_arrays(
            pa.array(hist.reshape(-1), type=pa.float32()), self.N_BUCKETS
        )
        return pa.table(
            {
                "media_ref": batch["media_ref"],
                "n_bytes": pa.array(n_bytes),
                "features": feat,
            }
        )


def image_dhash_batch(
    batch: pa.Table,
    grid: tuple[int, int] = (8, 9),
    payload_col: str = "payload",
    id_col: str = "doc_id",
) -> pa.Table:
    """Perceptual difference-hash (dHash) per image: decode → integer
    luma ((299R+587G+114B)//1000) → average-pool onto a ``grid[0]`` ×
    ``grid[1]`` grid → bit k set iff cell (gy,gx) is brighter than its
    right neighbour. All-integer pipeline, so the SQL oracle is exact.
    Image height/width must be multiples of the grid (the pooling is a
    reshape-sum, no resampling kernel to disagree over). Output adds
    ``dhash`` as a 16-hex-char string (64 bits for the default grid)."""
    gh, gw = grid
    hashes: list[str] = []
    for payload in batch[payload_col].to_pylist():
        img = decode_image(payload).astype(np.int64)
        h, w, _ = img.shape
        if h % gh or w % gw:
            raise ValueError(f"image {h}x{w} not divisible by grid {gh}x{gw}")
        luma = (299 * img[:, :, 0] + 587 * img[:, :, 1] + 114 * img[:, :, 2]) // 1000
        cells = luma.reshape(gh, h // gh, gw, w // gw).sum(axis=(1, 3))
        bits = (cells[:, :-1] > cells[:, 1:]).ravel()
        val = int(np.sum(bits.astype(np.uint64) << np.arange(bits.size, dtype=np.uint64)))
        hashes.append(f"{val:0{(bits.size + 3) // 4}x}")
    return batch.append_column("dhash", pa.array(hashes, type=pa.string()))


