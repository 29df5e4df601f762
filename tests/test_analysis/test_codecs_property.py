"""Property-based tests (hypothesis) for the stdlib binary codecs:
PMTiles varint/zigzag/directory/Hilbert and the BIFF .xls round-trip.

These codecs parse/emit byte-exact formats; fuzzing the value space is
the cheapest way to catch boundary bugs (7-bit varint seams, RK sign
bits, SST CONTINUE splits at odd offsets).
"""

import string

from hypothesis import given, settings
from hypothesis import strategies as st

from hydra_ray.sources.pmtiles import (
    _deserialize_directory,
    _read_varint,
    _serialize_directory,
    _unzigzag,
    _varint,
    _zigzag,
    hilbert_tile_id,
    tile_id_to_zxy,
)
from hydra_ray.sources.xls import read_xls_rows, write_xls

# keep hypothesis fast and deterministic (no wall-clock dependence)
_FAST = settings(max_examples=60, deadline=None)


@_FAST
@given(st.integers(min_value=0, max_value=2**64 - 1))
def test_varint_roundtrip(v):
    data = _varint(v)
    out, pos = _read_varint(data, 0)
    assert out == v and pos == len(data)


@_FAST
@given(st.integers(min_value=-(2**62), max_value=2**62 - 1))
def test_zigzag_roundtrip(v):
    assert _unzigzag(_zigzag(v)) == v


@_FAST
@given(
    st.integers(min_value=0, max_value=12),
    st.data(),
)
def test_hilbert_bijection(z, data):
    n = 1 << z
    x = data.draw(st.integers(min_value=0, max_value=n - 1))
    y = data.draw(st.integers(min_value=0, max_value=n - 1))
    assert tile_id_to_zxy(hilbert_tile_id(z, x, y)) == (z, x, y)


@_FAST
@given(
    st.lists(
        st.tuples(
            st.integers(min_value=0, max_value=2**40),
            st.integers(min_value=0, max_value=2**30),
            st.integers(min_value=1, max_value=2**20),
            st.integers(min_value=1, max_value=16),
        ),
        min_size=1,
        max_size=50,
    )
)
def test_directory_roundtrip(raw_entries):
    # ids must be strictly increasing (delta encoding assumes sorted)
    entries = []
    last = -1
    for tid, off, ln, run in sorted(raw_entries):
        if tid <= last:
            tid = last + 1
        last = tid
        entries.append((tid, off, ln, run))
    assert _deserialize_directory(_serialize_directory(entries)) == entries


_CELL_TEXT = st.text(
    alphabet=string.ascii_letters + string.digits + " éàüßøñ漢字-_.,;",
    max_size=40,
)
_CELL = st.one_of(
    _CELL_TEXT,
    st.integers(min_value=-(2**28), max_value=2**28),
    st.floats(allow_nan=False, allow_infinity=False, width=32),
    st.booleans(),
)


def _latin1able(s: str) -> bool:
    try:
        s.encode("latin-1")
        return True
    except UnicodeEncodeError:
        return False


@settings(max_examples=30, deadline=None)
@given(
    st.lists(st.lists(_CELL, min_size=1, max_size=6), min_size=1, max_size=8),
)
def test_xls_roundtrip_property(rows):
    from hydra_ray.sources.xls import write_xls_biff5

    width = max(len(r) for r in rows)
    rows = [list(r) + [""] * (width - len(r)) for r in rows]
    out = read_xls_rows(write_xls(rows))
    # the legacy BIFF5 writer ('Book' stream, inline LABEL strings)
    # must read back identically through the biff8=False branches —
    # when every cell is latin-1 encodable (BIFF5 has no unicode)
    if all(
        not isinstance(v, str) or _latin1able(v) for r in rows for v in r
    ):
        assert read_xls_rows(write_xls_biff5(rows)) == out

    def expect(v):
        if isinstance(v, bool):
            return "true" if v else "false"
        if isinstance(v, int):
            return str(v)
        if isinstance(v, float):
            f = float(v)
            return str(int(f)) if f == int(f) and abs(f) < 1e15 else repr(f)
        return str(v)

    # the fixture writer emits a record for every cell (empty strings
    # included), so the read-back grid is dense
    assert out == [[expect(v) for v in r] for r in rows]


@_FAST
@given(st.data())
def test_bmp_roundtrip_property(data):
    import numpy as np

    from hydra_ray.sources.codecs import decode_bmp, encode_bmp

    h = data.draw(st.integers(min_value=1, max_value=12))
    w = data.draw(st.integers(min_value=1, max_value=12))  # odd widths hit row padding
    seed = data.draw(st.integers(min_value=0, max_value=2**31))
    img = np.random.default_rng(seed).integers(0, 256, (h, w, 3), dtype=np.uint8)
    assert np.array_equal(decode_bmp(encode_bmp(img)), img)


@_FAST
@given(st.data())
def test_gif_roundtrip_property(data):
    """LZW encode/decode round-trip across palette sizes (hits code
    width growth seams at 2/4/8... entries and repeat-heavy chains)."""
    import numpy as np

    from hydra_ray.sources.codecs import decode_gif, encode_gif

    h = data.draw(st.integers(min_value=1, max_value=24))
    w = data.draw(st.integers(min_value=1, max_value=24))
    ncolors = data.draw(st.sampled_from([1, 2, 3, 4, 5, 16, 17, 128, 256]))
    seed = data.draw(st.integers(min_value=0, max_value=2**31))
    rng = np.random.default_rng(seed)
    pal = rng.integers(0, 256, (ncolors, 3), dtype=np.uint8)
    pal = np.unique(pal, axis=0)  # palette must be distinct colors
    idx = rng.integers(0, len(pal), (h, w))
    img = pal[idx]
    assert np.array_equal(decode_gif(encode_gif(img)), img)


def test_gif_lzw_table_reset_path():
    """A 128x128 random 256-color frame drives the LZW table to 4096
    entries and through the CLEAR/reset seam."""
    import numpy as np

    from hydra_ray.sources.codecs import decode_gif, encode_gif

    rng = np.random.default_rng(7)
    pal = rng.integers(0, 256, (256, 3), dtype=np.uint8)
    pal = pal[np.unique(pal, axis=0, return_index=True)[1]]
    img = pal[rng.integers(0, len(pal), (128, 128))]
    assert np.array_equal(decode_gif(encode_gif(img)), img)


def test_gif_interlaced_decode():
    """Interlace flag: rows written in 8/8/4/2 passes are reordered."""
    import numpy as np

    from hydra_ray.sources.codecs import decode_gif, encode_gif

    img = np.zeros((16, 4, 3), dtype=np.uint8)
    img[:, :, 0] = np.arange(16)[:, None]  # row-identifying color
    # build an interlaced variant by permuting rows into 8/8/4/2 pass
    # order and setting the flag; decode must invert the permutation
    order = np.concatenate([np.arange(0, 16, 8), np.arange(4, 16, 8),
                            np.arange(2, 16, 4), np.arange(1, 16, 2)])
    permuted = encode_gif(img[order])
    pb = bytearray(permuted)
    # image descriptor starts after header(6)+LSD(7)+GCT; find 0x2C
    pos = 13 + (2 << (pb[10] & 0x07)) * 3
    assert pb[pos] == 0x2C
    pb[pos + 9] |= 0x40  # interlace flag
    out = decode_gif(bytes(pb))
    assert np.array_equal(out, img)


# --- JPEG (baseline sequential) ---------------------------------------------

from hydra_ray.sources.codecs import decode_jpeg, encode_jpeg  # noqa: E402


@_FAST
@given(
    st.lists(st.integers(min_value=0, max_value=255), min_size=4, max_size=4),
)
def test_jpeg_block_constant_grayscale_roundtrips_exactly(vals):
    import numpy as np

    img = np.zeros((16, 16), dtype=np.uint8)
    for q, v in enumerate(vals):
        img[(q // 2) * 8 : (q // 2) * 8 + 8, (q % 2) * 8 : (q % 2) * 8 + 8] = v
    out = decode_jpeg(encode_jpeg(img, quality=100))
    assert out.shape == (16, 16)
    assert np.array_equal(out, img)


@_FAST
@given(st.integers(min_value=0, max_value=2**32 - 1))
def test_jpeg_color_roundtrip_psnr(seed):
    import numpy as np

    rng = np.random.default_rng(seed)
    # smooth image (JPEG's design domain): low-freq gradients + offset
    h, w = int(rng.integers(9, 40)), int(rng.integers(9, 40))
    yy, xx = np.mgrid[0:h, 0:w]
    img = np.stack(
        [
            (yy * 255 // max(h - 1, 1)),
            (xx * 255 // max(w - 1, 1)),
            ((yy + xx) * 255 // max(h + w - 2, 1)),
        ],
        axis=-1,
    ).astype(np.uint8)
    dec = decode_jpeg(encode_jpeg(img, quality=95))
    assert dec.shape == img.shape
    mse = float(np.mean((dec.astype(np.float64) - img.astype(np.float64)) ** 2))
    psnr = 99.0 if mse == 0 else 10 * np.log10(255.0**2 / mse)
    assert psnr > 30.0, (h, w, psnr)


def test_jpeg_nonmultiple_of_8_and_gray_shapes():
    import numpy as np

    img = np.arange(13 * 19, dtype=np.uint8).reshape(13, 19) % 256
    dec = decode_jpeg(encode_jpeg(img, quality=100))
    assert dec.shape == (13, 19)
    # q=100 on smooth ramps is near-lossless
    assert np.abs(dec.astype(int) - img.astype(int)).max() <= 2


def test_jpeg_decoder_rejects_garbage():
    import pytest

    with pytest.raises(ValueError):
        decode_jpeg(b"not a jpeg at all")


def test_decode_image_routes_jpeg_magic():
    import numpy as np

    from hydra_ray.stages.multimodal import decode_image

    img = np.full((8, 8), 77, dtype=np.uint8)
    out = decode_image(encode_jpeg(img, quality=100))
    assert np.array_equal(out, img)


def test_aiff_au_roundtrip_and_sniffing():
    """AIFF (80-bit-extended rate field) and Sun AU round-trip 16-bit
    PCM bit-exact at odd rates/channel counts, and decode_audio routes
    by magic bytes."""
    import numpy as np

    from hydra_ray.sources.codecs import (
        _f80_decode,
        _f80_encode,
        decode_aiff,
        decode_au,
        encode_aiff,
        encode_au,
    )
    from hydra_ray.stages.multimodal import decode_audio

    for rate in (1, 8000, 11025, 44100, 48000, 192000):
        assert _f80_decode(_f80_encode(rate)) == rate

    rng = np.random.default_rng(2)
    s = rng.integers(-32768, 32767, size=(101, 2)).astype(np.int16)
    for enc in (encode_aiff, encode_au):
        arr, rate = decode_audio(enc(s, 22050))
        assert rate == 22050 and (arr == s).all()
    mono = s[:, 0]  # odd byte count exercises the IFF pad byte
    arr, _ = decode_aiff(encode_aiff(mono[:33], 8000))
    assert (arr[:, 0] == mono[:33]).all()
    arr, _ = decode_au(encode_au(mono, 8000))
    assert (arr[:, 0] == mono).all()


def test_g711_companding_matches_audioop_exhaustively():
    """Our vectorized G.711 μ-law/A-law must equal CPython's audioop
    tables on EVERY int16 input and every 8-bit code."""
    import numpy as np

    audioop = __import__("audioop")  # stdlib until 3.13; present here
    from hydra_ray.sources.codecs import (
        alaw_decode,
        alaw_encode,
        ulaw_decode,
        ulaw_encode,
    )

    all16 = np.arange(-32768, 32768, dtype=np.int16)
    raw = all16.tobytes()
    assert (
        ulaw_encode(all16) == np.frombuffer(audioop.lin2ulaw(raw, 2), np.uint8)
    ).all()
    assert (
        alaw_encode(all16) == np.frombuffer(audioop.lin2alaw(raw, 2), np.uint8)
    ).all()
    codes = np.arange(256, dtype=np.uint8)
    assert (
        ulaw_decode(codes)
        == np.frombuffer(audioop.ulaw2lin(codes.tobytes(), 2), np.int16)
    ).all()
    assert (
        alaw_decode(codes)
        == np.frombuffer(audioop.alaw2lin(codes.tobytes(), 2), np.int16)
    ).all()


def test_au_companded_container_roundtrip():
    """AU encodings 1/27 route through the G.711 quantizers; decode of
    an encode is idempotent (re-encoding the decoded signal reproduces
    the same codes)."""
    import numpy as np

    from hydra_ray.sources.codecs import decode_au, encode_au
    from hydra_ray.stages.multimodal import decode_audio

    rng = np.random.default_rng(11)
    s = rng.integers(-32768, 32768, size=300).astype(np.int16)
    for enc in (1, 27):
        blob = encode_au(s, 8000, encoding=enc)
        arr, rate = decode_au(blob)
        assert rate == 8000 and arr.shape == (300, 1)
        # quantizer idempotence
        again, _ = decode_au(encode_au(arr[:, 0], 8000, encoding=enc))
        assert (again == arr).all()
        # the magic-byte router sees the same result
        routed, _ = decode_audio(blob)
        assert (routed == arr).all()
    # PCM path still lossless
    arr, _ = decode_au(encode_au(s, 8000, encoding=3))
    assert (arr[:, 0] == s).all()


def test_g711_wav_variants_agree_with_au():
    """WAV wFormatTag 6/7 payloads decode to exactly the same samples
    as the matching AU encodings (same quantizer, different container),
    via the magic+tag router."""
    import numpy as np

    from hydra_ray.sources.codecs import encode_au, encode_wav_g711
    from hydra_ray.stages.multimodal import decode_audio

    rng = np.random.default_rng(9)
    s = rng.integers(-32768, 32768, 256).astype(np.int16)
    for alaw, au_enc in ((False, 1), (True, 27)):
        wv, rate = decode_audio(encode_wav_g711(s, 8000, alaw=alaw))
        au, _ = decode_audio(encode_au(s, 8000, encoding=au_enc))
        assert rate == 8000 and (wv == au).all()


# --------------------------------------------------------------------------
# WebP lossless (VP8L): random images through encode → decode must be
# pixel-exact (exercises canonical prefix codes, 17/18 zero-run
# code-length coding, simple codes, subtract-green inversion)
# --------------------------------------------------------------------------

@_FAST
@given(st.data())
def test_webp_lossless_roundtrip(data):
    import numpy as np

    from hydra_ray.sources.webp import decode_webp_lossless, encode_webp_lossless

    h = data.draw(st.integers(min_value=1, max_value=12))
    w = data.draw(st.integers(min_value=1, max_value=12))
    nch = data.draw(st.sampled_from([2, 3, 4]))  # 2 → grayscale input
    seed = data.draw(st.integers(min_value=0, max_value=2**31))
    palette = data.draw(st.sampled_from([2, 5, 256]))  # simple + normal codes
    rng = np.random.default_rng(seed)
    vals = rng.integers(0, 256, size=palette).astype(np.uint8)
    shape = (h, w) if nch == 2 else (h, w, nch)
    img = vals[rng.integers(0, palette, size=shape)]
    out = decode_webp_lossless(encode_webp_lossless(img))
    exp = np.stack([img] * 3, axis=-1) if nch == 2 else img
    if exp.shape[-1] == 4 and bool((exp[..., 3] == 255).all()):
        exp = exp[..., :3]
    assert out.shape == exp.shape
    assert (out == exp).all()


@settings(max_examples=20, deadline=None)
@given(
    st.lists(st.lists(_CELL, min_size=1, max_size=5), min_size=2, max_size=6),
)
def test_xls_biff5_typed_table_equality(rows):
    """Random sheets through the BIFF5 writer must produce the same
    TYPED Arrow table (inspection + smart_cast) as the BIFF8 route —
    not just the same strings (VERDICT r2 fuzz-breadth item)."""
    from hydra_ray.sources.xls import write_xls, write_xls_biff5, xls_to_table

    if not all(not isinstance(v, str) or _latin1able(v) for r in rows for v in r):
        return  # BIFF5 has no unicode — writer is latin-1 only
    width = max(len(r) for r in rows)
    rows = [list(r) + [""] * (width - len(r)) for r in rows]
    # header row must be strings for the typed-table path
    header = [f"c{i}" for i in range(width)]
    t8 = xls_to_table(write_xls([header] + rows))
    t5 = xls_to_table(write_xls_biff5([header] + rows))
    assert t8.schema == t5.schema
    assert t8.equals(t5)


# --------------------------------------------------------------------------
# FLAC: random waveforms through encode → decode must be sample-exact
# (exercises FIXED predictors 0-2, Rice coding, escapes, CRC-8/16,
# UTF-8 coded frame numbers, multi-frame streams, STREAMINFO MD5)
# --------------------------------------------------------------------------

@_FAST
@given(st.data())
def test_flac_roundtrip(data):
    import numpy as np

    from hydra_ray.sources.flac import decode_flac, encode_flac

    n = data.draw(st.integers(min_value=1, max_value=3000))
    nch = data.draw(st.sampled_from([1, 2]))
    seed = data.draw(st.integers(min_value=0, max_value=2**31))
    kind = data.draw(st.sampled_from(["rand", "smooth", "const", "extreme"]))
    bsz = data.draw(st.sampled_from([192, 256, 1024]))
    rng = np.random.default_rng(seed)
    shape = (n,) if nch == 1 else (n, nch)
    if kind == "rand":
        s = rng.integers(-32768, 32768, size=shape).astype(np.int16)
    elif kind == "smooth":
        s = np.cumsum(rng.integers(-50, 51, size=shape), axis=0).astype(np.int16)
    elif kind == "const":
        s = np.full(shape, int(rng.integers(-32768, 32768)), np.int16)
    else:
        s = rng.choice(np.array([-32768, 32767, 0], np.int16), size=shape)
    out, rate = decode_flac(encode_flac(s, 16000, block_size=bsz))
    exp = s[:, None] if s.ndim == 1 else s
    assert rate == 16000
    assert out.shape == exp.shape
    assert (out == exp).all()


# --- JPEG (progressive SOF2) -------------------------------------------------

from hydra_ray.sources.codecs import (  # noqa: E402
    _HUFF_AC_LUMA,
    _HUFF_DC_LUMA,
    _BitWriter,
    _ZIGZAG,
    _huff_codes,
    _magnitude,
    encode_jpeg_progressive,
)


@_FAST
@given(st.integers(min_value=0, max_value=2**32 - 1))
def test_jpeg_progressive_equals_baseline_dense(seed):
    """decode(progressive) must be pixel-identical to decode(baseline):
    identical forward DCT/quant, so any spectral-selection or
    successive-approximation defect shows as a pixel diff. Dense random
    images stress refinement correction bits."""
    import numpy as np

    rng = np.random.default_rng(seed)
    h, w = int(rng.integers(8, 34)), int(rng.integers(8, 34))
    gray = bool(rng.integers(0, 2))
    q = int(rng.choice([50, 75, 90, 100]))
    shape = (h, w) if gray else (h, w, 3)
    img = rng.integers(0, 256, size=shape).astype(np.uint8)
    base = decode_jpeg(encode_jpeg(img, quality=q))
    prog = decode_jpeg(encode_jpeg_progressive(img, quality=q))
    assert np.array_equal(base, prog), (h, w, gray, q)


@_FAST
@given(st.integers(min_value=0, max_value=2**32 - 1))
def test_jpeg_progressive_equals_baseline_smooth(seed):
    """Smooth gradients quantize to long AC zero runs — exercises the
    ZRL and EOB paths of the refinement scans specifically."""
    import numpy as np

    rng = np.random.default_rng(seed)
    h, w = int(rng.integers(16, 50)), int(rng.integers(16, 50))
    yy, xx = np.mgrid[0:h, 0:w]
    img = ((yy * int(rng.integers(1, 5)) + xx * int(rng.integers(1, 5))) % 256).astype(
        np.uint8
    )
    q = int(rng.choice([40, 85, 95]))
    base = decode_jpeg(encode_jpeg(img, quality=q))
    prog = decode_jpeg(encode_jpeg_progressive(img, quality=q))
    assert np.array_equal(base, prog), (h, w, q)


def test_jpeg_progressive_block_constant_q100_lossless():
    import numpy as np

    img = np.zeros((16, 16), dtype=np.uint8)
    for q, v in enumerate([200, 13, 255, 0]):
        img[(q // 2) * 8 : (q // 2) * 8 + 8, (q % 2) * 8 : (q % 2) * 8 + 8] = v
    out = decode_jpeg(encode_jpeg_progressive(img, quality=100))
    assert np.array_equal(out, img)


def test_jpeg_progressive_general_eob_run_decodes():
    """Hand-built SOF2 bitstream with a real EOBn (n>1) symbol — our
    encoder caps at EOB1 (Annex K has no EOBn codes), so this pins the
    decoder's general EOB-run path with a custom Huffman table:
    two all-DC blocks closed by one EOB2."""
    import numpy as np

    a, b = 200, 50  # block-constant values -> DC-only at unit quant
    img = np.zeros((8, 16), dtype=np.uint8)
    img[:, :8] = a
    img[:, 8:] = b

    out = bytearray()
    out += b"\xff\xd8"
    out += b"\xff\xdb" + (67).to_bytes(2, "big") + bytes([0]) + bytes([1] * 64)
    # SOF2, 8x16 grayscale, 1 component 1x1
    out += b"\xff\xc2" + (11).to_bytes(2, "big") + bytes([8])
    out += (8).to_bytes(2, "big") + (16).to_bytes(2, "big") + bytes([1, 1, 0x11, 0])
    # Annex-K DC table
    bits, vals = _HUFF_DC_LUMA
    out += b"\xff\xc4" + (19 + len(vals)).to_bytes(2, "big") + bytes([0x00])
    out += bytes(bits) + bytes(vals)
    # DC first scan (Ss=0 Se=0 Ah=0 Al=0)
    out += b"\xff\xda" + (8).to_bytes(2, "big") + bytes([1, 1, 0x00, 0, 0, 0x00])
    dc = _huff_codes(*_HUFF_DC_LUMA)
    bw = _BitWriter()
    pred = 0
    for v in (8 * (a - 128), 8 * (b - 128)):  # unit quant: DC = 8*(value-128)
        cat, mbits = _magnitude(v - pred)
        pred = v
        code, ln = dc[cat]
        bw.write(code, ln)
        if cat:
            bw.write(mbits, cat)
    bw.flush()
    out += bw.buf
    # custom AC table: single symbol 0x10 (EOBn, r=1) with a 1-bit code
    out += b"\xff\xc4" + (20).to_bytes(2, "big") + bytes([0x10])
    out += bytes([1] + [0] * 15) + bytes([0x10])
    # AC first scan (Ss=1 Se=63 Ah=0 Al=0): EOB2 covers both blocks
    out += b"\xff\xda" + (8).to_bytes(2, "big") + bytes([1, 1, 0x00, 1, 63, 0x00])
    bw = _BitWriter()
    bw.write(0, 1)  # the EOBn symbol (code 0, length 1)
    bw.write(0, 1)  # 1 extra bit: eobrun = 2 + 0 -> this block + 1 more
    bw.flush()
    out += bw.buf
    out += b"\xff\xd9"

    dec = decode_jpeg(bytes(out))
    assert np.array_equal(dec, img)


def test_jpeg_corrupt_streams_raise_not_hang():
    """Truncation and zeroed segment lengths must raise (ValueError /
    NotImplementedError / decode error), never loop or crash the
    interpreter — the crawler feeds decode_jpeg wild bytes."""
    import numpy as np
    import pytest

    img = (np.arange(256, dtype=np.uint8).reshape(16, 16))
    good = bytearray(encode_jpeg_progressive(img, quality=90))
    # zeroed segment length on the first marker after SOI
    bad = bytearray(good)
    bad[4:6] = b"\x00\x00"
    with pytest.raises(Exception):
        decode_jpeg(bytes(bad))
    # truncations at various depths decode-or-raise, never hang
    for cut in (8, 40, len(good) // 2, len(good) - 3):
        try:
            decode_jpeg(bytes(good[:cut]))
        except Exception:
            pass
