"""Pure-stdlib media codecs: PNG (zlib chunks) and WAV (wave module).

The reference treats media as opaque blobs; the training-data brief
asks for decode / feature-extract stages with the codec gated on
"image/audio libs aren't in this container". PNG and WAV need no
external libs — PNG is zlib-compressed filtered scanlines and WAV is a
RIFF header the stdlib ``wave`` module already parses — so these two
formats get REAL decoders; JPEG/MP4/etc. remain honestly gated in
stages/multimodal.py.

Supported PNG subset (covers everything the encoder here emits and the
common RGB/RGBA/grayscale 8-bit files): bit depth 8, color types 0
(gray), 2 (RGB), 6 (RGBA), no interlacing, all five scanline filters
(None/Sub/Up/Average/Paeth).
"""

from __future__ import annotations

import io
import struct
import wave
import zlib

import numpy as np

_PNG_SIG = b"\x89PNG\r\n\x1a\n"
_CHANNELS = {0: 1, 2: 3, 6: 4}
_COLOR_TYPE = {1: 0, 3: 2, 4: 6}


def _paeth(a: int, b: int, c: int) -> int:
    p = a + b - c
    pa_, pb, pc = abs(p - a), abs(p - b), abs(p - c)
    if pa_ <= pb and pa_ <= pc:
        return a
    return b if pb <= pc else c


def decode_png(data: bytes) -> np.ndarray:
    """PNG bytes → uint8 array (H, W, C). Raises ValueError on
    non-PNG input or unsupported variants."""
    if data[:8] != _PNG_SIG:
        raise ValueError("not a PNG file")
    pos = 8
    width = height = None
    channels = None
    idat = bytearray()
    while pos + 8 <= len(data):
        length = struct.unpack_from(">I", data, pos)[0]
        ctype = data[pos + 4 : pos + 8]
        body = data[pos + 8 : pos + 8 + length]
        pos += 12 + length  # length + type + body + crc
        if ctype == b"IHDR":
            width, height, bit_depth, color_type, _comp, _filt, interlace = struct.unpack(
                ">IIBBBBB", body
            )
            if bit_depth != 8:
                raise ValueError(f"unsupported PNG bit depth {bit_depth}")
            if color_type not in _CHANNELS:
                raise ValueError(f"unsupported PNG color type {color_type}")
            if interlace:
                raise ValueError("interlaced PNG not supported")
            channels = _CHANNELS[color_type]
        elif ctype == b"IDAT":
            idat += body
        elif ctype == b"IEND":
            break
    if width is None or not idat:
        raise ValueError("PNG missing IHDR/IDAT")
    raw = zlib.decompress(bytes(idat))
    stride = width * channels
    if len(raw) != height * (stride + 1):
        raise ValueError("PNG scanline payload size mismatch")
    out = np.zeros((height, stride), dtype=np.uint8)
    prev = np.zeros(stride, dtype=np.int64)
    for r in range(height):
        ftype = raw[r * (stride + 1)]
        line = np.frombuffer(
            raw, dtype=np.uint8, count=stride, offset=r * (stride + 1) + 1
        ).astype(np.int64)
        if ftype == 0:
            cur = line
        elif ftype == 2:  # Up
            cur = (line + prev) & 0xFF
        elif ftype in (1, 3, 4):  # Sub / Average / Paeth: sequential in x
            cur = np.zeros(stride, dtype=np.int64)
            for x in range(stride):
                a = cur[x - channels] if x >= channels else 0
                b = prev[x]
                if ftype == 1:
                    cur[x] = (line[x] + a) & 0xFF
                elif ftype == 3:
                    cur[x] = (line[x] + (a + b) // 2) & 0xFF
                else:
                    c = prev[x - channels] if x >= channels else 0
                    cur[x] = (line[x] + _paeth(a, b, c)) & 0xFF
        else:
            raise ValueError(f"unknown PNG filter {ftype}")
        out[r] = cur.astype(np.uint8)
        prev = cur
    return out.reshape(height, width, channels)


def encode_png(arr: np.ndarray, filter_type: int = 0) -> bytes:
    """uint8 (H, W) or (H, W, C in {1,3,4}) → PNG bytes. filter_type
    applies the chosen scanline filter to every row (0/1/2/3/4) — used
    by tests to exercise every unfilter branch in decode_png."""
    arr = np.asarray(arr, dtype=np.uint8)
    if arr.ndim == 2:
        arr = arr[:, :, None]
    h, w, ch = arr.shape
    if ch not in _COLOR_TYPE:
        raise ValueError(f"unsupported channel count {ch}")
    flat = arr.reshape(h, w * ch).astype(np.int64)
    lines = bytearray()
    prev = np.zeros(w * ch, dtype=np.int64)
    for r in range(h):
        cur = flat[r]
        if filter_type == 0:
            filt = cur
        elif filter_type == 2:
            filt = (cur - prev) & 0xFF
        else:
            filt = np.zeros(w * ch, dtype=np.int64)
            for x in range(w * ch):
                a = cur[x - ch] if x >= ch else 0
                b = prev[x]
                if filter_type == 1:
                    filt[x] = (cur[x] - a) & 0xFF
                elif filter_type == 3:
                    filt[x] = (cur[x] - (a + b) // 2) & 0xFF
                elif filter_type == 4:
                    c = prev[x - ch] if x >= ch else 0
                    filt[x] = (cur[x] - _paeth(a, b, c)) & 0xFF
                else:
                    raise ValueError(f"unknown filter {filter_type}")
        lines.append(filter_type)
        lines += filt.astype(np.uint8).tobytes()
        prev = cur

    def chunk(ctype: bytes, body: bytes) -> bytes:
        return (
            struct.pack(">I", len(body))
            + ctype
            + body
            + struct.pack(">I", zlib.crc32(ctype + body) & 0xFFFFFFFF)
        )

    ihdr = struct.pack(">IIBBBBB", w, h, 8, _COLOR_TYPE[ch], 0, 0, 0)
    return (
        _PNG_SIG
        + chunk(b"IHDR", ihdr)
        + chunk(b"IDAT", zlib.compress(bytes(lines)))
        + chunk(b"IEND", b"")
    )


def decode_bmp(data: bytes) -> np.ndarray:
    """BMP bytes → uint8 (H, W, 3) RGB. Supports the common
    BITMAPINFOHEADER uncompressed 24/32-bit layouts (top-down or
    bottom-up); alpha is dropped."""
    if data[:2] != b"BM":
        raise ValueError("not a BMP file")
    pix_off = struct.unpack_from("<I", data, 10)[0]
    width, height = struct.unpack_from("<ii", data, 18)
    bpp = struct.unpack_from("<H", data, 28)[0]
    compression = struct.unpack_from("<I", data, 30)[0]
    if compression != 0 or bpp not in (24, 32):
        raise ValueError(f"unsupported BMP (bpp={bpp}, compression={compression})")
    nch = bpp // 8
    stride = (width * nch + 3) // 4 * 4
    h = abs(height)
    rows = np.frombuffer(data, dtype=np.uint8, count=h * stride, offset=pix_off)
    img = rows.reshape(h, stride)[:, : width * nch].reshape(h, width, nch)
    if height > 0:  # bottom-up storage
        img = img[::-1]
    return np.ascontiguousarray(img[:, :, 2::-1])  # BGR(A) → RGB


def encode_bmp(arr: np.ndarray) -> bytes:
    """uint8 (H, W, 3) RGB → 24-bit uncompressed bottom-up BMP."""
    arr = np.asarray(arr, dtype=np.uint8)
    if arr.ndim != 3 or arr.shape[2] != 3:
        raise ValueError("encode_bmp expects (H, W, 3) RGB")
    h, w, _ = arr.shape
    stride = (w * 3 + 3) // 4 * 4
    rows = np.zeros((h, stride), dtype=np.uint8)
    rows[:, : w * 3] = arr[::-1, :, ::-1].reshape(h, w * 3)  # bottom-up BGR
    body = rows.tobytes()
    header = b"BM" + struct.pack("<IHHI", 54 + len(body), 0, 0, 54)
    dib = struct.pack("<IiiHHIIiiII", 40, w, h, 1, 24, 0, len(body), 2835, 2835, 0, 0)
    return header + dib + body


def _lzw_decode_gif(min_code_size: int, data: bytes, n_pixels: int) -> np.ndarray:
    """GIF-variant LZW: LSB-first variable-width codes with CLEAR/EOI
    and the 12-bit table cap."""
    clear, eoi = 1 << min_code_size, (1 << min_code_size) + 1

    def fresh():
        return {i: (i,) for i in range(clear)}

    table = fresh()
    next_code = eoi + 1
    code_size = min_code_size + 1
    out: list[int] = []
    prev: tuple[int, ...] | None = None
    acc = bits = 0
    for byte in data:
        acc |= byte << bits
        bits += 8
        while bits >= code_size:
            code = acc & ((1 << code_size) - 1)
            acc >>= code_size
            bits -= code_size
            if code == clear:
                table = fresh()
                next_code = eoi + 1
                code_size = min_code_size + 1
                prev = None
                continue
            if code == eoi:
                return np.array(out[:n_pixels], dtype=np.uint16)
            if prev is None:
                entry = table[code]
            elif code in table:
                entry = table[code]
            elif code == next_code:
                entry = prev + (prev[0],)
            else:
                raise ValueError("corrupt GIF LZW stream")
            out.extend(entry)
            if prev is not None and next_code < 4096:
                table[next_code] = prev + (entry[0],)
                next_code += 1
                if next_code == (1 << code_size) and code_size < 12:
                    code_size += 1
            prev = entry
    return np.array(out[:n_pixels], dtype=np.uint16)


def _lzw_encode_gif(min_code_size: int, indices: np.ndarray) -> bytes:
    clear, eoi = 1 << min_code_size, (1 << min_code_size) + 1
    out = bytearray()
    acc = bits = 0

    def emit(code: int, width: int):
        nonlocal acc, bits
        acc |= code << bits
        bits += width
        while bits >= 8:
            out.append(acc & 0xFF)
            acc >>= 8
            bits -= 8

    table: dict[tuple[int, ...], int] = {(i,): i for i in range(clear)}
    next_code = eoi + 1
    code_size = min_code_size + 1
    emit(clear, code_size)
    prev: tuple[int, ...] = ()
    for v in indices.tolist():
        cur = prev + (v,)
        if cur in table:
            prev = cur
            continue
        emit(table[prev], code_size)
        if next_code < 4096:
            # the decoder lags one table entry behind the encoder, so
            # the width grows just BEFORE adding the entry whose value
            # is 2^size (the decoder grows after adding it)
            if next_code == (1 << code_size) and code_size < 12:
                code_size += 1
            table[cur] = next_code
            next_code += 1
        else:  # table full: reset (decoder mirrors on CLEAR)
            emit(clear, code_size)
            table = {(i,): i for i in range(clear)}
            next_code = eoi + 1
            code_size = min_code_size + 1
        prev = (v,)
    if prev:
        emit(table[prev], code_size)
    emit(eoi, code_size)
    if bits:
        out.append(acc & 0xFF)
    return bytes(out)


def decode_gif_frames(data: bytes) -> np.ndarray:
    """GIF87a/89a bytes → uint8 (F, H, W, 3) RGB — ALL frames, composited
    onto the logical screen. Handles global/local color tables,
    interlacing, sub-rectangle frames, GCE transparency and disposal
    methods 0/1 (leave), 2 (restore background) and 3 (restore
    previous)."""
    if data[:6] not in (b"GIF87a", b"GIF89a"):
        raise ValueError("not a GIF file")
    sw, sh, packed, bg, _ar = struct.unpack_from("<HHBBB", data, 6)
    pos = 13
    gct = None
    if packed & 0x80:
        n = 2 << (packed & 0x07)
        gct = np.frombuffer(data, dtype=np.uint8, count=n * 3, offset=pos).reshape(n, 3)
        pos += n * 3
    bg_rgb = gct[bg] if gct is not None and bg < len(gct) else np.zeros(3, np.uint8)
    canvas = np.broadcast_to(bg_rgb, (sh, sw, 3)).copy()
    frames: list[np.ndarray] = []
    transparent = -1  # GCE transparent index for the NEXT frame, or -1
    disposal = 0
    while pos < len(data):
        block = data[pos]
        if block == 0x21:  # extension: label + sub-blocks
            label = data[pos + 1]
            pos += 2
            if label == 0xF9 and data[pos] >= 4:  # graphic control
                gpacked = data[pos + 1]
                disposal = (gpacked >> 2) & 0x07
                transparent = data[pos + 4] if gpacked & 0x01 else -1
            while data[pos]:
                pos += data[pos] + 1
            pos += 1
        elif block == 0x2C:  # image descriptor
            left, top, w, h, ipacked = struct.unpack_from("<HHHHB", data, pos + 1)
            pos += 10
            table = gct
            if ipacked & 0x80:
                n = 2 << (ipacked & 0x07)
                table = np.frombuffer(data, dtype=np.uint8, count=n * 3, offset=pos).reshape(n, 3)
                pos += n * 3
            if table is None:
                raise ValueError("GIF image without a color table")
            min_code = data[pos]
            pos += 1
            stream = bytearray()
            while data[pos]:
                ln = data[pos]
                stream += data[pos + 1 : pos + 1 + ln]
                pos += ln + 1
            pos += 1
            idx = _lzw_decode_gif(min_code, bytes(stream), w * h)
            if len(idx) < w * h:
                raise ValueError("GIF pixel data truncated")
            idx = idx.reshape(h, w)
            if ipacked & 0x40:  # interlaced: 8/8/4/2-row passes
                rows = np.concatenate(
                    [np.arange(0, h, 8), np.arange(4, h, 8), np.arange(2, h, 4), np.arange(1, h, 2)]
                )
                out = np.empty_like(idx)
                out[rows] = idx
                idx = out
            region = canvas[top : top + h, left : left + w]
            prev_region = region.copy() if disposal == 3 else None
            painted = table[idx]
            if transparent >= 0:
                painted = np.where((idx == transparent)[:, :, None], region, painted)
            region[:] = painted
            frames.append(canvas.copy())
            if disposal == 2:  # restore background in the frame's rect
                canvas[top : top + h, left : left + w] = bg_rgb
            elif disposal == 3:  # restore the rect to its pre-frame pixels
                region[:] = prev_region
            transparent, disposal = -1, 0
        elif block == 0x3B:
            break
        else:
            raise ValueError(f"unknown GIF block 0x{block:02x}")
    if not frames:
        raise ValueError("GIF contains no image data")
    return np.stack(frames)


def decode_gif(data: bytes) -> np.ndarray:
    """GIF bytes → uint8 (H, W, 3) RGB of the first frame."""
    return decode_gif_frames(data)[0]


def encode_gif_frames(frames: np.ndarray, delay_cs: int = 10) -> bytes:
    """uint8 (F, H, W, 3) RGB with ≤256 distinct colors across ALL
    frames → animated GIF89a bytes: one global color table, a NETSCAPE
    loop extension, and per-frame graphic-control (delay) + full-frame
    image descriptors."""
    frames = np.asarray(frames, dtype=np.uint8)
    if frames.ndim != 4 or frames.shape[3] != 3:
        raise ValueError("encode_gif_frames expects (F, H, W, 3) RGB")
    f, h, w, _ = frames.shape
    flat = frames.reshape(-1, 3)
    palette, idx = np.unique(flat, axis=0, return_inverse=True)
    if len(palette) > 256:
        raise ValueError(f"GIF needs ≤256 colors, got {len(palette)}")
    depth = max(1, (len(palette) - 1).bit_length())  # table size 2^depth
    n = 1 << depth
    gct = np.zeros((n, 3), dtype=np.uint8)
    gct[: len(palette)] = palette
    min_code = max(2, depth)
    out = bytearray(b"GIF89a")
    out += struct.pack("<HHBBB", w, h, 0x80 | ((depth - 1) & 0x07), 0, 0)
    out += gct.tobytes()
    if f > 1:  # NETSCAPE2.0 infinite-loop extension
        out += b"\x21\xff\x0bNETSCAPE2.0\x03\x01\x00\x00\x00"
    idx = idx.reshape(f, h * w)
    for fi in range(f):
        if f > 1:
            out += b"\x21\xf9\x04\x00" + struct.pack("<HB", delay_cs, 0) + b"\x00"
        out += b"\x2c" + struct.pack("<HHHHB", 0, 0, w, h, 0)
        out.append(min_code)
        lzw = _lzw_encode_gif(min_code, idx[fi].astype(np.int64))
        for i in range(0, len(lzw), 255):
            chunk = lzw[i : i + 255]
            out.append(len(chunk))
            out += chunk
        out += b"\x00"
    out += b"\x3b"
    return bytes(out)


def encode_gif(arr: np.ndarray) -> bytes:
    """uint8 (H, W, 3) RGB with ≤256 distinct colors → GIF89a bytes
    (single frame, global color table, LZW-compressed)."""
    arr = np.asarray(arr, dtype=np.uint8)
    if arr.ndim != 3 or arr.shape[2] != 3:
        raise ValueError("encode_gif expects (H, W, 3) RGB")
    return encode_gif_frames(arr[None])


def decode_wav(data: bytes) -> tuple[np.ndarray, int]:
    """WAV bytes → (int16 samples shaped (n, channels), sample_rate)."""
    with wave.open(io.BytesIO(data), "rb") as wf:
        if wf.getsampwidth() != 2:
            raise ValueError("only 16-bit PCM WAV supported")
        frames = wf.readframes(wf.getnframes())
        arr = np.frombuffer(frames, dtype="<i2").reshape(-1, wf.getnchannels())
        return arr.copy(), wf.getframerate()


def encode_wav(samples: np.ndarray, rate: int = 16000) -> bytes:
    """int16 (n,) or (n, channels) → WAV bytes."""
    samples = np.asarray(samples, dtype="<i2")
    if samples.ndim == 1:
        samples = samples[:, None]
    buf = io.BytesIO()
    with wave.open(buf, "wb") as wf:
        wf.setnchannels(samples.shape[1])
        wf.setsampwidth(2)
        wf.setframerate(rate)
        wf.writeframes(samples.tobytes())
    return buf.getvalue()


# ---------------------------------------------------------------------------
# JPEG (baseline sequential DCT, ITU T.81) — stdlib + numpy only.
#
# Encoder: 4:4:4 (or single-component grayscale), Annex-K quantization
# tables scaled by libjpeg's quality formula, Annex-K Huffman tables.
# Decoder: baseline SOF0, arbitrary sampling factors up to 2x2,
# multiple DQT/DHT segments, restart markers, byte unstuffing.
# quality=100 scales every quant step to 1, which makes block-constant
# grayscale images round-trip EXACTLY (DC = 8*(v-128) is an integer,
# every AC quantizes to 0) — the property the media_decode oracle uses.
# ---------------------------------------------------------------------------

_ZIGZAG = np.array([
     0,  1,  8, 16,  9,  2,  3, 10, 17, 24, 32, 25, 18, 11,  4,  5,
    12, 19, 26, 33, 40, 48, 41, 34, 27, 20, 13,  6,  7, 14, 21, 28,
    35, 42, 49, 56, 57, 50, 43, 36, 29, 22, 15, 23, 30, 37, 44, 51,
    58, 59, 52, 45, 38, 31, 39, 46, 53, 60, 61, 54, 47, 55, 62, 63,
], dtype=np.int64)

_Q_LUMA = np.array([
    16, 11, 10, 16, 24, 40, 51, 61, 12, 12, 14, 19, 26, 58, 60, 55,
    14, 13, 16, 24, 40, 57, 69, 56, 14, 17, 22, 29, 51, 87, 80, 62,
    18, 22, 37, 56, 68, 109, 103, 77, 24, 35, 55, 64, 81, 104, 113, 92,
    49, 64, 78, 87, 103, 121, 120, 101, 72, 92, 95, 98, 112, 100, 103, 99,
], dtype=np.int64).reshape(8, 8)

_Q_CHROMA = np.array([
    17, 18, 24, 47, 99, 99, 99, 99, 18, 21, 26, 66, 99, 99, 99, 99,
    24, 26, 56, 99, 99, 99, 99, 99, 47, 66, 99, 99, 99, 99, 99, 99,
    99, 99, 99, 99, 99, 99, 99, 99, 99, 99, 99, 99, 99, 99, 99, 99,
    99, 99, 99, 99, 99, 99, 99, 99, 99, 99, 99, 99, 99, 99, 99, 99,
], dtype=np.int64).reshape(8, 8)

# Annex K Huffman specs: (BITS counts[1..16], HUFFVAL list)
_HUFF_DC_LUMA = (
    [0, 1, 5, 1, 1, 1, 1, 1, 1, 0, 0, 0, 0, 0, 0, 0],
    list(range(12)),
)
_HUFF_DC_CHROMA = (
    [0, 3, 1, 1, 1, 1, 1, 1, 1, 1, 1, 0, 0, 0, 0, 0],
    list(range(12)),
)
_HUFF_AC_LUMA = (
    [0, 2, 1, 3, 3, 2, 4, 3, 5, 5, 4, 4, 0, 0, 1, 0x7D],
    [
        0x01, 0x02, 0x03, 0x00, 0x04, 0x11, 0x05, 0x12, 0x21, 0x31, 0x41, 0x06,
        0x13, 0x51, 0x61, 0x07, 0x22, 0x71, 0x14, 0x32, 0x81, 0x91, 0xA1, 0x08,
        0x23, 0x42, 0xB1, 0xC1, 0x15, 0x52, 0xD1, 0xF0, 0x24, 0x33, 0x62, 0x72,
        0x82, 0x09, 0x0A, 0x16, 0x17, 0x18, 0x19, 0x1A, 0x25, 0x26, 0x27, 0x28,
        0x29, 0x2A, 0x34, 0x35, 0x36, 0x37, 0x38, 0x39, 0x3A, 0x43, 0x44, 0x45,
        0x46, 0x47, 0x48, 0x49, 0x4A, 0x53, 0x54, 0x55, 0x56, 0x57, 0x58, 0x59,
        0x5A, 0x63, 0x64, 0x65, 0x66, 0x67, 0x68, 0x69, 0x6A, 0x73, 0x74, 0x75,
        0x76, 0x77, 0x78, 0x79, 0x7A, 0x83, 0x84, 0x85, 0x86, 0x87, 0x88, 0x89,
        0x8A, 0x92, 0x93, 0x94, 0x95, 0x96, 0x97, 0x98, 0x99, 0x9A, 0xA2, 0xA3,
        0xA4, 0xA5, 0xA6, 0xA7, 0xA8, 0xA9, 0xAA, 0xB2, 0xB3, 0xB4, 0xB5, 0xB6,
        0xB7, 0xB8, 0xB9, 0xBA, 0xC2, 0xC3, 0xC4, 0xC5, 0xC6, 0xC7, 0xC8, 0xC9,
        0xCA, 0xD2, 0xD3, 0xD4, 0xD5, 0xD6, 0xD7, 0xD8, 0xD9, 0xDA, 0xE1, 0xE2,
        0xE3, 0xE4, 0xE5, 0xE6, 0xE7, 0xE8, 0xE9, 0xEA, 0xF1, 0xF2, 0xF3, 0xF4,
        0xF5, 0xF6, 0xF7, 0xF8, 0xF9, 0xFA,
    ],
)
_HUFF_AC_CHROMA = (
    [0, 2, 1, 2, 4, 4, 3, 4, 7, 5, 4, 4, 0, 1, 2, 0x77],
    [
        0x00, 0x01, 0x02, 0x03, 0x11, 0x04, 0x05, 0x21, 0x31, 0x06, 0x12, 0x41,
        0x51, 0x07, 0x61, 0x71, 0x13, 0x22, 0x32, 0x81, 0x08, 0x14, 0x42, 0x91,
        0xA1, 0xB1, 0xC1, 0x09, 0x23, 0x33, 0x52, 0xF0, 0x15, 0x62, 0x72, 0xD1,
        0x0A, 0x16, 0x24, 0x34, 0xE1, 0x25, 0xF1, 0x17, 0x18, 0x19, 0x1A, 0x26,
        0x27, 0x28, 0x29, 0x2A, 0x35, 0x36, 0x37, 0x38, 0x39, 0x3A, 0x43, 0x44,
        0x45, 0x46, 0x47, 0x48, 0x49, 0x4A, 0x53, 0x54, 0x55, 0x56, 0x57, 0x58,
        0x59, 0x5A, 0x63, 0x64, 0x65, 0x66, 0x67, 0x68, 0x69, 0x6A, 0x73, 0x74,
        0x75, 0x76, 0x77, 0x78, 0x79, 0x7A, 0x82, 0x83, 0x84, 0x85, 0x86, 0x87,
        0x88, 0x89, 0x8A, 0x92, 0x93, 0x94, 0x95, 0x96, 0x97, 0x98, 0x99, 0x9A,
        0xA2, 0xA3, 0xA4, 0xA5, 0xA6, 0xA7, 0xA8, 0xA9, 0xAA, 0xB2, 0xB3, 0xB4,
        0xB5, 0xB6, 0xB7, 0xB8, 0xB9, 0xBA, 0xC2, 0xC3, 0xC4, 0xC5, 0xC6, 0xC7,
        0xC8, 0xC9, 0xCA, 0xD2, 0xD3, 0xD4, 0xD5, 0xD6, 0xD7, 0xD8, 0xD9, 0xDA,
        0xE2, 0xE3, 0xE4, 0xE5, 0xE6, 0xE7, 0xE8, 0xE9, 0xEA, 0xF2, 0xF3, 0xF4,
        0xF5, 0xF6, 0xF7, 0xF8, 0xF9, 0xFA,
    ],
)


def _dct_matrix() -> np.ndarray:
    x = np.arange(8)
    u = x.reshape(8, 1)
    m = np.cos((2 * x + 1) * u * np.pi / 16) / 2.0
    m[0, :] *= 1.0 / np.sqrt(2.0)
    return m


def _quality_scale(table: np.ndarray, quality: int) -> np.ndarray:
    quality = min(max(int(quality), 1), 100)
    s = 5000 // quality if quality < 50 else 200 - 2 * quality
    q = (table * s + 50) // 100
    return np.clip(q, 1, 255)


def _huff_codes(bits: list[int], vals: list[int]) -> dict[int, tuple[int, int]]:
    """symbol -> (code, length) per T.81 C.2."""
    out: dict[int, tuple[int, int]] = {}
    code = 0
    k = 0
    for length in range(1, 17):
        for _ in range(bits[length - 1]):
            out[vals[k]] = (code, length)
            code += 1
            k += 1
        code <<= 1
    return out


class _BitWriter:
    def __init__(self):
        self.buf = bytearray()
        self.acc = 0
        self.nbits = 0

    def write(self, code: int, length: int):
        self.acc = (self.acc << length) | (code & ((1 << length) - 1))
        self.nbits += length
        while self.nbits >= 8:
            self.nbits -= 8
            byte = (self.acc >> self.nbits) & 0xFF
            self.buf.append(byte)
            if byte == 0xFF:
                self.buf.append(0x00)  # byte stuffing

    def flush(self):
        if self.nbits:
            pad = 8 - self.nbits
            self.write((1 << pad) - 1, pad)  # pad with 1s


def _magnitude(v: int) -> tuple[int, int]:
    """(category, appended bits) for a DC diff / AC value per F.1.2."""
    if v == 0:
        return 0, 0
    a = abs(v)
    cat = a.bit_length()
    bits = v if v > 0 else v + (1 << cat) - 1
    return cat, bits


def encode_jpeg(arr: np.ndarray, quality: int = 90) -> bytes:
    """Baseline JFIF encode of an HxW (grayscale) or HxWx3 (RGB) uint8
    array; 4:4:4, Annex-K Huffman tables. quality=100 -> unit quant
    tables (block-constant grayscale inputs round-trip exactly)."""
    gray = arr.ndim == 2
    h, w = arr.shape[:2]
    m = _dct_matrix()
    qt_l = _quality_scale(_Q_LUMA, quality)
    if gray:
        planes = [arr.astype(np.float64)]
        qts = [qt_l]
        qsel = [0]
    else:
        rgb = arr.astype(np.float64)
        r, g, b = rgb[..., 0], rgb[..., 1], rgb[..., 2]
        y = 0.299 * r + 0.587 * g + 0.114 * b
        cb = -0.168736 * r - 0.331264 * g + 0.5 * b + 128.0
        cr = 0.5 * r - 0.418688 * g - 0.081312 * b + 128.0
        planes = [y, cb, cr]
        qt_c = _quality_scale(_Q_CHROMA, quality)
        qts = [qt_l, qt_c]
        qsel = [0, 1, 1]

    dc_tabs = [_huff_codes(*_HUFF_DC_LUMA), _huff_codes(*_HUFF_DC_CHROMA)]
    ac_tabs = [_huff_codes(*_HUFF_AC_LUMA), _huff_codes(*_HUFF_AC_CHROMA)]

    bh, bw = -(-h // 8), -(-w // 8)
    coeffs = []  # per component: (bh, bw, 64) zigzag-quantized ints
    for ci, plane in enumerate(planes):
        padded = np.pad(plane, ((0, bh * 8 - h), (0, bw * 8 - w)), mode="edge") - 128.0
        blocks = padded.reshape(bh, 8, bw, 8).transpose(0, 2, 1, 3)
        dct = np.einsum("ux,ijxy,vy->ijuv", m, blocks, m)
        q = np.floor(dct / qts[qsel[ci]] + 0.5).astype(np.int64)
        coeffs.append(q)

    bw_writer = _BitWriter()
    pred = [0] * len(planes)
    zz = _ZIGZAG
    for by in range(bh):
        for bx in range(bw):
            for ci in range(len(planes)):
                tab = 0 if ci == 0 else 1
                block = coeffs[ci][by, bx].reshape(64)[zz]
                diff = int(block[0]) - pred[ci]
                pred[ci] = int(block[0])
                cat, bits = _magnitude(diff)
                code, ln = dc_tabs[tab][cat]
                bw_writer.write(code, ln)
                if cat:
                    bw_writer.write(bits, cat)
                run = 0
                nz = np.nonzero(block[1:])[0]
                last_nz = nz[-1] + 1 if len(nz) else 0
                for i in range(1, last_nz + 1):
                    v = int(block[i])
                    if v == 0:
                        run += 1
                        continue
                    while run > 15:
                        code, ln = ac_tabs[tab][0xF0]  # ZRL
                        bw_writer.write(code, ln)
                        run -= 16
                    cat, bits = _magnitude(v)
                    code, ln = ac_tabs[tab][(run << 4) | cat]
                    bw_writer.write(code, ln)
                    bw_writer.write(bits, cat)
                    run = 0
                if last_nz < 63:
                    code, ln = ac_tabs[tab][0x00]  # EOB
                    bw_writer.write(code, ln)
    bw_writer.flush()

    out = bytearray()
    out += b"\xff\xd8"  # SOI
    out += b"\xff\xe0" + (16).to_bytes(2, "big") + b"JFIF\x00\x01\x01\x00\x00\x01\x00\x01\x00\x00"
    for ti, qt in enumerate(qts):
        out += b"\xff\xdb" + (67).to_bytes(2, "big") + bytes([ti])
        out += bytes(int(x) for x in qt.reshape(64)[zz])
    ncomp = len(planes)
    out += b"\xff\xc0" + (8 + 3 * ncomp).to_bytes(2, "big") + bytes([8])
    out += h.to_bytes(2, "big") + w.to_bytes(2, "big") + bytes([ncomp])
    for ci in range(ncomp):
        out += bytes([ci + 1, 0x11, qsel[ci]])
    specs = [
        (0x00, _HUFF_DC_LUMA), (0x10, _HUFF_AC_LUMA),
        (0x01, _HUFF_DC_CHROMA), (0x11, _HUFF_AC_CHROMA),
    ][: 2 if gray else 4]
    for tc_th, (bits, vals) in specs:
        out += b"\xff\xc4" + (19 + len(vals)).to_bytes(2, "big") + bytes([tc_th])
        out += bytes(bits) + bytes(vals)
    out += b"\xff\xda" + (6 + 2 * ncomp).to_bytes(2, "big") + bytes([ncomp])
    for ci in range(ncomp):
        out += bytes([ci + 1, 0x00 if ci == 0 else 0x11])
    out += bytes([0, 63, 0])
    out += bw_writer.buf
    out += b"\xff\xd9"  # EOI
    return bytes(out)


def encode_jpeg_progressive(arr: np.ndarray, quality: int = 90) -> bytes:
    """Progressive (SOF2) JFIF encode of an HxW (grayscale) or HxWx3
    (RGB) uint8 array; 4:4:4, Annex-K Huffman tables. The scan script
    exercises BOTH progressive mechanisms — spectral selection (AC
    bands 1-5 / 6-63) and successive approximation (DC Al 1→0, AC Al
    2→1→0 with refinement scans):

        1. DC first, interleaved          (Ss=0 Se=0  Ah=0 Al=1)
        2. per comp: AC 1-5  first        (Ah=0 Al=2)
        3. per comp: AC 6-63 first        (Ah=0 Al=2)
        4. per comp: AC 1-5  refinement   (Ah=2 Al=1)
        5. per comp: AC 6-63 refinement   (Ah=2 Al=1)
        6. per comp: AC 1-5  refinement   (Ah=1 Al=0)
        7. per comp: AC 6-63 refinement   (Ah=1 Al=0)
        8. DC refinement, interleaved     (Ah=1 Al=0)

    EOB runs are capped at EOB1 because Annex K defines no EOBn>1
    symbols (a valid, just less compact, choice); the decoder handles
    general EOB runs. Same forward DCT/quant arithmetic as
    `encode_jpeg`, so decode(progressive) == decode(baseline) pixel for
    pixel (pinned by test)."""
    gray = arr.ndim == 2
    h, w = arr.shape[:2]
    m = _dct_matrix()
    qt_l = _quality_scale(_Q_LUMA, quality)
    if gray:
        planes = [arr.astype(np.float64)]
        qts = [qt_l]
        qsel = [0]
    else:
        rgb = arr.astype(np.float64)
        r, g, b = rgb[..., 0], rgb[..., 1], rgb[..., 2]
        y = 0.299 * r + 0.587 * g + 0.114 * b
        cb = -0.168736 * r - 0.331264 * g + 0.5 * b + 128.0
        cr = 0.5 * r - 0.418688 * g - 0.081312 * b + 128.0
        planes = [y, cb, cr]
        qts = [qt_l, _quality_scale(_Q_CHROMA, quality)]
        qsel = [0, 1, 1]

    dc_tabs = [_huff_codes(*_HUFF_DC_LUMA), _huff_codes(*_HUFF_DC_CHROMA)]
    ac_tabs = [_huff_codes(*_HUFF_AC_LUMA), _huff_codes(*_HUFF_AC_CHROMA)]

    bh, bw = -(-h // 8), -(-w // 8)
    zz = _ZIGZAG
    coeffs = []  # per component: (bh*bw, 64) in ZIGZAG order
    for ci, plane in enumerate(planes):
        padded = np.pad(plane, ((0, bh * 8 - h), (0, bw * 8 - w)), mode="edge") - 128.0
        blocks = padded.reshape(bh, 8, bw, 8).transpose(0, 2, 1, 3)
        dct = np.einsum("ux,ijxy,vy->ijuv", m, blocks, m)
        q = np.floor(dct / qts[qsel[ci]] + 0.5).astype(np.int64)
        coeffs.append(q.reshape(bh * bw, 64)[:, zz])

    ncomp = len(planes)

    def scan_dc_first(bwr: _BitWriter, al: int):
        pred = [0] * ncomp
        for bi in range(bh * bw):
            for ci in range(ncomp):
                v = int(coeffs[ci][bi, 0]) >> al  # arithmetic point transform
                diff = v - pred[ci]
                pred[ci] = v
                cat, bits = _magnitude(diff)
                code, ln = dc_tabs[0 if ci == 0 else 1][cat]
                bwr.write(code, ln)
                if cat:
                    bwr.write(bits, cat)

    def scan_dc_refine(bwr: _BitWriter, al: int):
        for bi in range(bh * bw):
            for ci in range(ncomp):
                bwr.write((int(coeffs[ci][bi, 0]) >> al) & 1, 1)

    def scan_ac_first(bwr: _BitWriter, ci: int, ss: int, se: int, al: int):
        tab = ac_tabs[0 if ci == 0 else 1]
        for bi in range(bh * bw):
            run = 0
            for k in range(ss, se + 1):
                v = int(coeffs[ci][bi, k])
                t = abs(v) >> al
                if t == 0:
                    run += 1
                    continue
                while run > 15:
                    code, ln = tab[0xF0]
                    bwr.write(code, ln)
                    run -= 16
                cat, bits = _magnitude(t if v > 0 else -t)
                code, ln = tab[(run << 4) | cat]
                bwr.write(code, ln)
                bwr.write(bits, cat)
                run = 0
            if run:
                code, ln = tab[0x00]  # EOB (= EOB1)
                bwr.write(code, ln)

    def scan_ac_refine(bwr: _BitWriter, ci: int, ss: int, se: int, al: int):
        """Mirrors libjpeg encode_mcu_AC_refine: correction bits buffer
        until the next emitted symbol (ZRL at every ≥16-zero run before
        a nonzero value, newly-significant (r<<4)|1 + sign, or the
        final EOB); zeros past the last newly-significant coefficient
        fold into the EOB."""
        tab = ac_tabs[0 if ci == 0 else 1]

        def flush(bits: list[int]):
            for bit in bits:
                bwr.write(bit, 1)
            bits.clear()

        for bi in range(bh * bw):
            blk = coeffs[ci][bi]
            kex = ss - 1  # last newly-significant index in the band
            for k in range(ss, se + 1):
                if (abs(int(blk[k])) >> al) == 1:
                    kex = k
            pending: list[int] = []
            run = 0
            for k in range(ss, se + 1):
                v = int(blk[k])
                t = abs(v) >> al
                if t == 0:
                    run += 1
                    continue
                while run > 15 and k <= kex:
                    code, ln = tab[0xF0]
                    bwr.write(code, ln)
                    flush(pending)
                    run -= 16
                if t > 1:  # history-nonzero: one correction bit
                    pending.append(t & 1)
                    continue
                # t == 1: newly significant (k <= kex by construction)
                code, ln = tab[(run << 4) | 1]
                bwr.write(code, ln)
                bwr.write(1 if v > 0 else 0, 1)
                flush(pending)
                run = 0
            if run > 0 or pending:  # decoder still expects a symbol
                code, ln = tab[0x00]
                bwr.write(code, ln)
                flush(pending)

    out = bytearray()
    out += b"\xff\xd8"
    out += b"\xff\xe0" + (16).to_bytes(2, "big") + b"JFIF\x00\x01\x01\x00\x00\x01\x00\x01\x00\x00"
    for ti, qt in enumerate(qts):
        out += b"\xff\xdb" + (67).to_bytes(2, "big") + bytes([ti])
        out += bytes(int(x) for x in qt.reshape(64)[zz])
    out += b"\xff\xc2" + (8 + 3 * ncomp).to_bytes(2, "big") + bytes([8])
    out += h.to_bytes(2, "big") + w.to_bytes(2, "big") + bytes([ncomp])
    for ci in range(ncomp):
        out += bytes([ci + 1, 0x11, qsel[ci]])
    specs = [
        (0x00, _HUFF_DC_LUMA), (0x10, _HUFF_AC_LUMA),
        (0x01, _HUFF_DC_CHROMA), (0x11, _HUFF_AC_CHROMA),
    ][: 2 if gray else 4]
    for tc_th, (bits, vals) in specs:
        out += b"\xff\xc4" + (19 + len(vals)).to_bytes(2, "big") + bytes([tc_th])
        out += bytes(bits) + bytes(vals)

    def sos(entries: list[tuple[int, int, int]], ss: int, se: int, ah: int, al: int, body_fn):
        nonlocal out
        out += b"\xff\xda" + (6 + 2 * len(entries)).to_bytes(2, "big") + bytes([len(entries)])
        for cid, td, ta in entries:
            out += bytes([cid, (td << 4) | ta])
        out += bytes([ss, se, (ah << 4) | al])
        bwr = _BitWriter()
        body_fn(bwr)
        bwr.flush()
        out += bwr.buf

    all_dc = [(ci + 1, 0 if ci == 0 else 1, 0) for ci in range(ncomp)]
    sos(all_dc, 0, 0, 0, 1, lambda b: scan_dc_first(b, 1))
    for first_al, (ah, al) in ((True, (0, 2)), (False, (2, 1)), (False, (1, 0))):
        for ci in range(ncomp):
            ta = 0 if ci == 0 else 1
            for ss, se in ((1, 5), (6, 63)):
                if first_al:
                    sos([(ci + 1, 0, ta)], ss, se, ah, al,
                        lambda b, ci=ci, ss=ss, se=se, al=al: scan_ac_first(b, ci, ss, se, al))
                else:
                    sos([(ci + 1, 0, ta)], ss, se, ah, al,
                        lambda b, ci=ci, ss=ss, se=se, al=al: scan_ac_refine(b, ci, ss, se, al))
    sos(all_dc, 0, 0, 1, 0, lambda b: scan_dc_refine(b, 0))
    out += b"\xff\xd9"
    return bytes(out)


class _BitReader:
    def __init__(self, data: bytes):
        self.data = data
        self.pos = 0
        self.acc = 0
        self.nbits = 0

    def _fill(self):
        while self.nbits <= 24:
            if self.pos >= len(self.data):
                self.acc = (self.acc << 8) | 0
                self.nbits += 8
                continue
            byte = self.data[self.pos]
            self.pos += 1
            if byte == 0xFF:
                nxt = self.data[self.pos] if self.pos < len(self.data) else 0
                if nxt == 0x00:
                    self.pos += 1  # stuffed
                else:
                    # marker: rewind and feed zeros (caller handles RST)
                    self.pos -= 1
                    self.acc = (self.acc << 8) | 0
                    self.nbits += 8
                    continue
            self.acc = (self.acc << 8) | byte
            self.nbits += 8

    def read(self, n: int) -> int:
        if n == 0:
            return 0
        self._fill()
        self.nbits -= n
        v = (self.acc >> self.nbits) & ((1 << n) - 1)
        return v

    def align_to_marker(self):
        self.acc = 0
        self.nbits = 0
        while self.pos + 1 < len(self.data) and not (
            self.data[self.pos] == 0xFF and self.data[self.pos + 1] != 0x00
        ):
            self.pos += 1


def _huff_decode_table(bits: list[int], vals: list[int]) -> dict[tuple[int, int], int]:
    return {(ln, code): sym for sym, (code, ln) in _huff_codes(bits, vals).items()}


def _read_symbol(br: _BitReader, table: dict[tuple[int, int], int]) -> int:
    code = 0
    for ln in range(1, 17):
        code = (code << 1) | br.read(1)
        sym = table.get((ln, code))
        if sym is not None:
            return sym
    raise ValueError("bad huffman code")


def _extend(v: int, cat: int) -> int:
    if cat == 0:
        return 0
    return v if v >= (1 << (cat - 1)) else v - (1 << cat) + 1


class _JpegScanState:
    """Per-scan entropy-decode state shared by the block decoders."""

    __slots__ = ("br", "htabs", "pred", "eobrun")

    def __init__(self, br: "_BitReader", htabs: dict):
        self.br = br
        self.htabs = htabs
        self.pred: dict[int, int] = {}
        self.eobrun = 0

    def reset(self):
        self.pred = {k: 0 for k in self.pred}
        self.eobrun = 0


def _decode_dc(st: _JpegScanState, coef: np.ndarray, cid: int, td: int, ah: int, al: int):
    if ah == 0:
        sym = _read_symbol(st.br, st.htabs[(0, td)])
        st.pred[cid] += _extend(st.br.read(sym), sym)
        coef[0] = st.pred[cid] << al
    elif st.br.read(1):
        coef[0] |= 1 << al


def _decode_ac_first(
    st: _JpegScanState, coef: np.ndarray, ta: int, ss: int, se: int, al: int
):
    """AC coefficients of one block, first scan (Ah=0) — also the
    baseline AC path (ss=1, se=63, al=0: EOB-run symbols beyond EOB1
    simply never occur in baseline streams)."""
    if st.eobrun > 0:
        st.eobrun -= 1
        return
    br = st.br
    tab = st.htabs[(1, ta)]
    k = ss
    while k <= se:
        sym = _read_symbol(br, tab)
        run, cat = sym >> 4, sym & 0xF
        if cat == 0:
            if run == 15:  # ZRL
                k += 16
                continue
            st.eobrun = (1 << run) - 1
            if run:
                st.eobrun += br.read(run)
            break
        k += run
        if k > se:
            break
        coef[k] = _extend(br.read(cat), cat) << al
        k += 1


def _decode_ac_refine(
    st: _JpegScanState, coef: np.ndarray, ta: int, ss: int, se: int, al: int
):
    """AC successive-approximation refinement (T.81 G.1.2.3 / libjpeg
    decode_mcu_AC_refine): one correction bit per already-nonzero
    coefficient passed; size-1 symbols place newly-significant ±1<<Al."""
    br = st.br
    p1 = 1 << al
    m1 = -1 << al
    k = ss
    if st.eobrun == 0:
        while k <= se:
            sym = _read_symbol(br, st.htabs[(1, ta)])
            run, cat = sym >> 4, sym & 0xF
            if cat == 0:
                if run < 15:
                    st.eobrun = 1 << run
                    if run:
                        st.eobrun += br.read(run)
                    break
                val = 0  # ZRL: skip 16 zero-history coefficients
            else:  # cat is 1 by construction in refinement scans
                val = p1 if br.read(1) else m1
            while k <= se:
                c = int(coef[k])
                if c != 0:
                    if br.read(1) and (c & p1) == 0:
                        coef[k] = c + (p1 if c > 0 else m1)
                else:
                    if run == 0:
                        break
                    run -= 1
                k += 1
            if val and k <= se:
                coef[k] = val
            k += 1
    if st.eobrun > 0:
        while k <= se:
            c = int(coef[k])
            if c != 0 and br.read(1) and (c & p1) == 0:
                coef[k] = c + (p1 if c > 0 else m1)
            k += 1
        st.eobrun -= 1


def decode_jpeg(data: bytes) -> np.ndarray:
    """JFIF decode to HxW (grayscale) or HxWx3 (RGB) uint8. Supports
    baseline SOF0 and progressive SOF2 (spectral selection + successive
    approximation, DC/AC first and refinement scans, EOB runs),
    sampling factors up to 2x2, restart intervals, multi-scan DHT
    redefinition. All scans accumulate into per-component coefficient
    buffers (zigzag order); dequantize + IDCT run once, vectorized over
    every block, after EOI."""
    if data[:2] != b"\xff\xd8":
        raise ValueError("not a JPEG")
    pos = 2
    qtabs: dict[int, np.ndarray] = {}
    htabs: dict[tuple[int, int], dict] = {}
    comps: list[tuple[int, int, int, int]] = []  # (id, h, v, tq)
    h = w = 0
    restart = 0
    progressive = False
    coefs: dict[int, np.ndarray] = {}  # cid -> (nby_alloc, nbx_alloc, 64) zigzag
    dims: dict[int, tuple[int, int, int, int]] = {}  # cid -> (nby, nbx, alloc_by, alloc_bx)
    hmax = vmax = 1
    mcux = mcuy = 0
    saw_scan = False

    while pos < len(data):
        if data[pos] != 0xFF:
            pos += 1
            continue
        marker = data[pos + 1]
        pos += 2
        if marker in (0xD8, 0x01) or 0xD0 <= marker <= 0xD7:
            continue
        if marker == 0xD9:
            break
        seglen = int.from_bytes(data[pos : pos + 2], "big")
        if seglen < 2:
            raise ValueError("corrupt JPEG segment length")
        body = data[pos + 2 : pos + seglen]
        if marker == 0xDB:
            i = 0
            while i < len(body):
                pq, tq = body[i] >> 4, body[i] & 0xF
                i += 1
                if pq:
                    vals = np.frombuffer(body[i : i + 128], dtype=">u2").astype(np.int64)
                    i += 128
                else:
                    vals = np.frombuffer(body[i : i + 64], dtype=np.uint8).astype(np.int64)
                    i += 64
                qt = np.zeros(64, dtype=np.int64)
                qt[_ZIGZAG] = vals
                qtabs[tq] = qt.reshape(8, 8)
        elif marker == 0xC4:
            i = 0
            while i < len(body):
                tc, th = body[i] >> 4, body[i] & 0xF
                bits = list(body[i + 1 : i + 17])
                nv = sum(bits)
                vals = list(body[i + 17 : i + 17 + nv])
                htabs[(tc, th)] = _huff_decode_table(bits, vals)
                i += 17 + nv
        elif marker in (0xC0, 0xC2):
            progressive = marker == 0xC2
            h = int.from_bytes(body[1:3], "big")
            w = int.from_bytes(body[3:5], "big")
            nc = body[5]
            comps = []
            for ci in range(nc):
                cid, hv, tq = body[6 + 3 * ci], body[7 + 3 * ci], body[8 + 3 * ci]
                comps.append((cid, hv >> 4, hv & 0xF, tq))
            hmax = max(c[1] for c in comps)
            vmax = max(c[2] for c in comps)
            mcux = -(-w // (8 * hmax))
            mcuy = -(-h // (8 * vmax))
            for cid, ch, cv, _ in comps:
                aby, abx = mcuy * cv, mcux * ch
                cw = -(-w * ch // hmax)
                chh = -(-h * cv // vmax)
                dims[cid] = (-(-chh // 8), -(-cw // 8), aby, abx)
                coefs[cid] = np.zeros((aby, abx, 64), dtype=np.int64)
        elif marker in (0xC1, 0xC3, 0xC5, 0xC6, 0xC7, 0xC9, 0xCA, 0xCB):
            raise NotImplementedError("only SOF0 baseline / SOF2 progressive supported")
        elif marker == 0xDD:
            restart = int.from_bytes(body[:2], "big")
        elif marker == 0xDA:
            if not comps:
                raise ValueError("SOS before SOF")
            ns = body[0]
            scan = []
            for si in range(ns):
                cs, tds = body[1 + 2 * si], body[2 + 2 * si]
                scan.append((cs, tds >> 4, tds & 0xF))
            ss, se = body[1 + 2 * ns], body[2 + 2 * ns]
            ahal = body[3 + 2 * ns]
            ah, al = ahal >> 4, ahal & 0xF
            if not progressive:
                ss, se, ah, al = 0, 63, 0, 0
            pos += seglen
            br = _BitReader(data[pos:])
            st = _JpegScanState(br, htabs)
            st.pred = {cid: 0 for cid, *_ in comps}
            comp_by_id = {c[0]: c for c in comps}

            def maybe_restart(n_units: int):
                if restart and n_units and n_units % restart == 0:
                    br.align_to_marker()
                    if (
                        br.pos + 1 < len(br.data)
                        and br.data[br.pos] == 0xFF
                        and 0xD0 <= br.data[br.pos + 1] <= 0xD7
                    ):
                        br.pos += 2
                    st.reset()

            if len(scan) > 1 or (not progressive and len(comps) > 1):
                # interleaved: MCU order (progressive: DC scans only)
                n_mcu = 0
                for my in range(mcuy):
                    for mx in range(mcux):
                        maybe_restart(n_mcu)
                        n_mcu += 1
                        for cs, td, ta in scan:
                            cid, ch, cv, _ = comp_by_id[cs]
                            for by in range(cv):
                                for bx in range(ch):
                                    coef = coefs[cid][my * cv + by, mx * ch + bx]
                                    if ss == 0:
                                        _decode_dc(st, coef, cid, td, ah, al)
                                    if se > 0 and not progressive:
                                        _decode_ac_first(st, coef, ta, 1, 63, 0)
            else:
                # non-interleaved: the component's own block raster
                cs, td, ta = scan[0]
                cid, ch, cv, _ = comp_by_id[cs]
                nby, nbx, _, _ = dims[cid]
                n_units = 0
                for by in range(nby):
                    for bx in range(nbx):
                        maybe_restart(n_units)
                        n_units += 1
                        coef = coefs[cid][by, bx]
                        if ss == 0:
                            _decode_dc(st, coef, cid, td, ah, al)
                            if se > 0:  # baseline single-component scan
                                _decode_ac_first(st, coef, ta, 1, se, al)
                        elif ah == 0:
                            _decode_ac_first(st, coef, ta, ss, se, al)
                        else:
                            _decode_ac_refine(st, coef, ta, ss, se, al)
            saw_scan = True
            br.align_to_marker()
            pos += br.pos
            continue
        pos += seglen

    if not saw_scan or not comps:
        raise ValueError("truncated JPEG")

    m = _dct_matrix()
    out_planes = []
    for cid, ch, cv, tq in comps:
        zz = coefs[cid]
        aby, abx = zz.shape[:2]
        nat = np.zeros_like(zz)
        nat[..., _ZIGZAG] = zz
        deq = nat.reshape(aby, abx, 8, 8).astype(np.float64) * qtabs[tq]
        pix = np.matmul(np.matmul(m.T, deq), m) + 128.0
        p = pix.transpose(0, 2, 1, 3).reshape(aby * 8, abx * 8)
        p = np.repeat(np.repeat(p, vmax // cv, axis=0), hmax // ch, axis=1)
        out_planes.append(p[:h, :w])
    if len(out_planes) == 1:
        return np.clip(np.floor(out_planes[0] + 0.5), 0, 255).astype(np.uint8)
    y, cb, cr = out_planes
    r = y + 1.402 * (cr - 128.0)
    g = y - 0.344136 * (cb - 128.0) - 0.714136 * (cr - 128.0)
    b = y + 1.772 * (cb - 128.0)
    rgb = np.stack([r, g, b], axis=-1)
    return np.clip(np.floor(rgb + 0.5), 0, 255).astype(np.uint8)


def _f80_encode(rate: int) -> bytes:
    """Integer sample rate → IEEE 754 80-bit extended float (the AIFF
    COMM sampleRate field): 15-bit exponent biased 16383, explicit
    integer bit, 64-bit mantissa."""
    if rate <= 0:
        raise ValueError("sample rate must be positive")
    e = rate.bit_length() - 1
    mant = rate << (63 - e)
    return struct.pack(">HQ", 16383 + e, mant)


def _f80_decode(b: bytes) -> int:
    exp_sign, mant = struct.unpack(">HQ", b)
    e = (exp_sign & 0x7FFF) - 16383
    if exp_sign & 0x8000 or not mant:
        raise ValueError("bad AIFF sample rate")
    return mant >> (63 - e) if e <= 63 else mant << (e - 63)


def encode_aiff(samples: np.ndarray, rate: int = 16000) -> bytes:
    """int16 (n,) or (n, channels) → AIFF bytes (big-endian PCM,
    COMM with 80-bit-extended sample rate, SSND)."""
    samples = np.asarray(samples, dtype=np.int16)
    if samples.ndim == 1:
        samples = samples[:, None]
    n, ch = samples.shape
    comm = struct.pack(">HIH", ch, n, 16) + _f80_encode(int(rate))
    data = samples.astype(">i2").tobytes()
    ssnd = struct.pack(">II", 0, 0) + data
    body = b"AIFF" + b"COMM" + struct.pack(">I", len(comm)) + comm
    body += b"SSND" + struct.pack(">I", len(ssnd)) + ssnd
    if len(ssnd) % 2:
        body += b"\x00"  # IFF chunks are word-aligned
    return b"FORM" + struct.pack(">I", len(body)) + body


def decode_aiff(data: bytes) -> tuple[np.ndarray, int]:
    """AIFF bytes → (int16 samples shaped (n, channels), sample_rate)."""
    if data[:4] != b"FORM" or data[8:12] != b"AIFF":
        raise ValueError("not an AIFF file")
    pos, ch, nframes, rate, pcm = 12, None, None, None, None
    while pos + 8 <= len(data):
        cid = data[pos : pos + 4]
        (clen,) = struct.unpack_from(">I", data, pos + 4)
        body = data[pos + 8 : pos + 8 + clen]
        if cid == b"COMM":
            ch, nframes, bits = struct.unpack_from(">HIH", body, 0)
            if bits != 16:
                raise ValueError("only 16-bit AIFF supported")
            rate = _f80_decode(body[8:18])
        elif cid == b"SSND":
            off, _blk = struct.unpack_from(">II", body, 0)
            pcm = body[8 + off :]
        pos += 8 + clen + (clen & 1)
    if ch is None or pcm is None:
        raise ValueError("AIFF missing COMM or SSND chunk")
    arr = np.frombuffer(pcm, dtype=">i2", count=nframes * ch).reshape(-1, ch)
    return arr.astype(np.int16), rate


def encode_au(samples: np.ndarray, rate: int = 16000, encoding: int = 3) -> bytes:
    """int16 (n,) or (n, channels) → Sun AU bytes.  Encodings: 3 =
    16-bit linear PCM big-endian, 1 = G.711 μ-law, 27 = G.711 A-law
    (8-bit companded, the classic telephony AU payloads)."""
    samples = np.asarray(samples, dtype=np.int16)
    if samples.ndim == 1:
        samples = samples[:, None]
    if encoding == 3:
        data = samples.astype(">i2").tobytes()
    elif encoding == 1:
        data = ulaw_encode(samples).tobytes()
    elif encoding == 27:
        data = alaw_encode(samples).tobytes()
    else:
        raise ValueError(f"unsupported AU encoding {encoding}")
    return (
        b".snd"
        + struct.pack(">IIIII", 24, len(data), encoding, int(rate), samples.shape[1])
        + data
    )


def decode_au(data: bytes) -> tuple[np.ndarray, int]:
    """Sun AU bytes → (int16 samples shaped (n, channels), sample_rate).
    Encoding 3 (16-bit PCM) passes through; 1 (μ-law) and 27 (A-law)
    expand through the G.711 decoders."""
    if data[:4] != b".snd":
        raise ValueError("not an AU file")
    off, size, enc, rate, ch = struct.unpack_from(">IIIII", data, 4)
    pcm = data[off : off + size]
    if enc == 3:
        arr = np.frombuffer(pcm, dtype=">i2").reshape(-1, ch)
    elif enc == 1:
        arr = ulaw_decode(np.frombuffer(pcm, dtype=np.uint8)).reshape(-1, ch)
    elif enc == 27:
        arr = alaw_decode(np.frombuffer(pcm, dtype=np.uint8)).reshape(-1, ch)
    else:
        raise ValueError(f"unsupported AU encoding {enc}")
    return arr.astype(np.int16), rate


# --- G.711 companding (μ-law / A-law), the classic Sun AU encodings ---
# Vectorized re-derivation of the ITU-T G.711 quantizers (reference
# behavior: udata-hydra stores raw bodies; telephony AU resources are
# encoding 1/27).  Bit-for-bit equal to CPython's audioop tables —
# tests/test_analysis/test_codecs.py checks all 65536 int16 inputs.


def ulaw_encode(samples: np.ndarray) -> np.ndarray:
    """int16 linear PCM → μ-law codes (uint8), G.711 encode."""
    x = np.asarray(samples, dtype=np.int64) >> 2  # 14-bit domain
    mask = np.where(x < 0, 0x7F, 0xFF)
    a = np.minimum(np.abs(x), 8159) + 33
    seg = np.maximum(np.floor(np.log2(a)).astype(np.int64) - 5, 0)
    over = seg >= 8
    seg = np.minimum(seg, 7)
    mant = (a >> (seg + 1)) & 0xF
    uval = (seg << 4) | np.where(over, 0xF, mant)
    return ((np.where(over, 0x7F, uval)) ^ mask).astype(np.uint8)


def ulaw_decode(codes: np.ndarray) -> np.ndarray:
    """μ-law codes (uint8) → int16 linear PCM, G.711 decode."""
    u = ~np.asarray(codes, dtype=np.int64) & 0xFF
    t = (((u & 0xF) << 3) + 0x84) << ((u >> 4) & 7)
    return np.where(u & 0x80, 0x84 - t, t - 0x84).astype(np.int16)


def alaw_encode(samples: np.ndarray) -> np.ndarray:
    """int16 linear PCM → A-law codes (uint8), G.711 encode."""
    x = np.asarray(samples, dtype=np.int64) >> 3  # 13-bit domain
    mask = np.where(x >= 0, 0xD5, 0x55)
    a = np.where(x >= 0, x, -x - 1)
    over = a > 0xFFF
    a = np.minimum(a, 0xFFF)
    seg = np.where(
        a <= 0x1F, 0, np.floor(np.log2(np.maximum(a, 1))).astype(np.int64) - 4
    )
    mant = np.where(seg < 1, (a >> 1) & 0xF, (a >> seg) & 0xF)
    aval = (seg << 4) | np.where(over, 0xF, mant)
    return (np.where(over, 0x7F, aval) ^ mask).astype(np.uint8)


def alaw_decode(codes: np.ndarray) -> np.ndarray:
    """A-law codes (uint8) → int16 linear PCM, G.711 decode."""
    c = (np.asarray(codes, dtype=np.int64) ^ 0x55) & 0xFF
    seg = (c >> 4) & 7
    t = (c & 0xF) << 4
    t = np.where(seg == 0, t + 8, ((t + 0x108) << np.maximum(seg - 1, 0)))
    return np.where(c & 0x80, t, -t).astype(np.int16)


def wav_format_tag(data: bytes) -> int:
    """Peek the fmt-chunk wFormatTag of a RIFF/WAVE payload (1 = PCM,
    6/7 = G.711 A-/μ-law); raises ValueError if no fmt chunk."""
    if data[:4] != b"RIFF" or data[8:12] != b"WAVE":
        raise ValueError("not a WAV file")
    pos = 12
    while pos + 8 <= len(data):
        cid = data[pos : pos + 4]
        (clen,) = struct.unpack_from("<I", data, pos + 4)
        if cid == b"fmt ":
            return struct.unpack_from("<H", data, pos + 8)[0]
        pos += 8 + clen + (clen & 1)
    raise ValueError("WAV missing fmt chunk")


def encode_wav_g711(samples: np.ndarray, rate: int = 8000, alaw: bool = False) -> bytes:
    """int16 mono (n,) → RIFF/WAVE with wFormatTag 7 (μ-law) or 6
    (A-law): 8-bit companded payload, the telephony WAV variant."""
    samples = np.asarray(samples, dtype=np.int16).ravel()
    payload = (alaw_encode(samples) if alaw else ulaw_encode(samples)).tobytes()
    tag = 6 if alaw else 7
    fmt = struct.pack("<HHIIHH", tag, 1, rate, rate, 1, 8)
    body = b"WAVE"
    body += b"fmt " + struct.pack("<I", len(fmt)) + fmt
    body += b"fact" + struct.pack("<II", 4, samples.size)
    body += b"data" + struct.pack("<I", len(payload)) + payload
    if len(payload) % 2:
        body += b"\x00"
    return b"RIFF" + struct.pack("<I", len(body)) + body


def decode_wav_g711(data: bytes) -> tuple[np.ndarray, int]:
    """RIFF/WAVE format 6/7 → (int16 (n,1), rate) via the G.711
    expanders."""
    if data[:4] != b"RIFF" or data[8:12] != b"WAVE":
        raise ValueError("not a WAV file")
    pos, rate, tag, payload = 12, None, None, None
    while pos + 8 <= len(data):
        cid = data[pos : pos + 4]
        (clen,) = struct.unpack_from("<I", data, pos + 4)
        if cid == b"fmt ":
            tag, ch, rate = struct.unpack_from("<HHI", data, pos + 8)
            if ch != 1:
                raise ValueError("only mono G.711 WAV supported")
        elif cid == b"data":
            payload = data[pos + 8 : pos + 8 + clen]
        pos += 8 + clen + (clen & 1)
    if tag not in (6, 7) or payload is None:
        raise ValueError("not a G.711 WAV")
    codes = np.frombuffer(payload, dtype=np.uint8)
    arr = alaw_decode(codes) if tag == 6 else ulaw_decode(codes)
    return arr[:, None], rate
