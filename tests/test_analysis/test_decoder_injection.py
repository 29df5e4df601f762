"""Decoder-injection seams (VERDICT r4 #6).

MP3/AAC/lossy-WebP stay inject-only ON PURPOSE (their normative
Huffman/window tables are not in this container — BASELINE.md).
These tests prove the seams are REAL: wild-format bytes raise
NotImplementedError without a decoder, and a registered stub decoder
routes the same bytes through a distributed ``map_batches`` stage
end-to-end (the decoder passed in ``fn_kwargs``, like a model handle).
"""

import numpy as np
import pyarrow as pa
import pytest

from hydra_ray.sources.codecs import encode_wav
from hydra_ray.stages.multimodal import decode_audio, decode_image

# minimal wild-format magics: MPEG-1 Layer III frame sync, lossy-WebP
# VP8 chunk
MP3_BYTES = b"\xff\xfb\x90\x00" + b"\x00" * 64
WEBP_LOSSY = b"RIFF" + (40).to_bytes(4, "little") + b"WEBPVP8 " + b"\x00" * 32


def _stub_audio_decoder(payload: bytes):
    assert payload[:2] == b"\xff\xfb"  # only called for the MP3 bytes
    t = np.arange(640, dtype=np.float64)
    samples = (1000 * np.sin(t / 10)).astype(np.int16).reshape(-1, 1)
    return samples, 16000


def test_gates_stay_closed_without_decoder():
    with pytest.raises(NotImplementedError):
        decode_audio(MP3_BYTES)
    with pytest.raises(NotImplementedError):
        decode_image(WEBP_LOSSY)


def test_injected_decoder_opens_the_gate():
    samples, rate = decode_audio(MP3_BYTES, decoder=_stub_audio_decoder)
    assert rate == 16000 and samples.shape == (640, 1)
    # native formats still bypass the injected decoder's assert
    wav = encode_wav((np.zeros(320, dtype=np.int16)).reshape(-1, 1), 8000)
    arr, r = decode_audio(wav)
    assert r == 8000 and arr.shape[0] == 320


@pytest.mark.usefixtures("ray_session")
def test_injected_decoder_e2e_actor_stage():
    """Mixed native+wild payloads through a distributed batch stage:
    the decoder rides the stage's fn_kwargs exactly like a model
    handle."""
    import ray.data as rd

    wav = encode_wav(
        (1000 * np.sin(np.arange(640) / 7)).astype(np.int16).reshape(-1, 1), 16000
    )
    audio = pa.table(
        {"doc_id": pa.array([1, 2], type=pa.int64()), "payload": pa.array([wav, MP3_BYTES])}
    )

    def stage(batch: pa.Table, decoder=None) -> pa.Table:
        n, rms = [], []
        for payload in batch["payload"].to_pylist():
            x = decode_audio(payload, decoder=decoder)[0][:, 0].astype(np.float64)
            n.append(len(x))
            rms.append(float(np.sqrt(np.mean(x * x))))
        return batch.select(["doc_id"]).append_column("n", pa.array(n)).append_column(
            "rms", pa.array(rms)
        )

    def routed(payload: bytes):
        if bytes(payload[:2]) == b"\xff\xfb":
            return _stub_audio_decoder(payload)
        return decode_audio(payload)

    out = (
        rd.from_arrow(audio)
        .map_batches(stage, fn_kwargs={"decoder": routed}, batch_format="pyarrow")
        .take_all()
    )
    assert {r["doc_id"] for r in out} == {1, 2}
    assert all(r["n"] == 640 and r["rms"] > 0 for r in out)

    # without the injection the same pipeline fails on the MP3 row
    bad = rd.from_arrow(audio).map_batches(stage, batch_format="pyarrow")
    with pytest.raises(Exception, match="inject a decoder"):
        bad.take_all()
