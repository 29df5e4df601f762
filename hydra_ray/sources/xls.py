"""Minimal stdlib legacy-Excel (.xls / BIFF) reader + fixture writer.

The reference ingests legacy .xls workbooks as a first-class tabular
source through xlrd (utils/reader.py:19-70, engine="xlrd";
data_formats/csv_like/__init__.py:161-217 routes them into the same
csv-detective inspection). xlrd is not in this container, but the BIFF
container is fully documented (MS-CFB + MS-XLS): this module parses it
with ``struct`` + ``zipfile``-free stdlib only.

Two layers:

  1. A Compound File Binary (CFB / OLE2) container parser — header,
     DIFAT→FAT chains, directory entries, regular-stream and
     mini-stream (miniFAT) reads — that locates the ``Workbook``
     (BIFF8) or ``Book`` (BIFF5) stream.
  2. A BIFF record parser for the workbook globals (SST with CONTINUE
     splitting, BOUNDSHEET) and the first worksheet substream
     (LABELSST / LABEL / NUMBER / RK / MULRK / BOOLERR / FORMULA with
     cached values + trailing STRING records).

All values surface as STRINGS: the rows join the crawl block's CSV
texts and XLSX/ODS sheets as a ``Sheet`` in the one batched
inspect/cast sweep (stages/inspection.py), so an .xls, its .xlsx twin
and its CSV twin produce the identical typed table.

Not supported (documented limitation, mirrors the xlsx module):
style-driven serial-number dates (numFmt resolution) and formula
evaluation — the cached formula value is used. Encrypted (FilePass)
workbooks raise.
"""

from __future__ import annotations

import struct

import pyarrow as pa

from hydra_ray.stages.inspection import Sheet, inspect_sheet, sheet_to_table

# CFB sector-chain sentinels
_ENDOFCHAIN = 0xFFFFFFFE
_FREESECT = 0xFFFFFFFF
_NOSTREAM = 0xFFFFFFFF

_CFB_SIG = b"\xd0\xcf\x11\xe0\xa1\xb1\x1a\xe1"


# ---------------------------------------------------------------------------
# CFB (OLE2) container
# ---------------------------------------------------------------------------


def _chain(fat: list[int], start: int) -> list[int]:
    out, sect, seen = [], start, set()
    while sect not in (_ENDOFCHAIN, _FREESECT) and sect < len(fat):
        if sect in seen:
            raise ValueError("cyclic CFB sector chain")
        seen.add(sect)
        out.append(sect)
        sect = fat[sect]
    return out


class _Cfb:
    def __init__(self, data: bytes):
        if data[:8] != _CFB_SIG:
            raise ValueError("not a CFB (OLE2) file")
        (self.sector_shift,) = struct.unpack_from("<H", data, 30)
        (self.mini_shift,) = struct.unpack_from("<H", data, 32)
        (n_fat,) = struct.unpack_from("<I", data, 44)
        (first_dir,) = struct.unpack_from("<I", data, 48)
        (self.mini_cutoff,) = struct.unpack_from("<I", data, 56)
        (first_minifat,) = struct.unpack_from("<I", data, 60)
        (n_minifat,) = struct.unpack_from("<I", data, 64)
        (first_difat,) = struct.unpack_from("<I", data, 68)
        (n_difat,) = struct.unpack_from("<I", data, 72)
        self.data = data
        self.ssz = 1 << self.sector_shift
        self.msz = 1 << self.mini_shift

        # DIFAT: 109 header entries + chained DIFAT sectors
        difat = list(struct.unpack_from("<109I", data, 76))
        sect = first_difat
        for _ in range(n_difat):
            if sect in (_ENDOFCHAIN, _FREESECT):
                break
            raw = self._sector(sect)
            ids = struct.unpack(f"<{self.ssz // 4}I", raw)
            difat.extend(ids[:-1])
            sect = ids[-1]
        fat_sectors = [s for s in difat[:n_fat] if s not in (_ENDOFCHAIN, _FREESECT)]
        fat_raw = b"".join(self._sector(s) for s in fat_sectors)
        self.fat = list(struct.unpack(f"<{len(fat_raw) // 4}I", fat_raw))

        dir_raw = b"".join(self._sector(s) for s in _chain(self.fat, first_dir))
        self.entries = []
        for off in range(0, len(dir_raw), 128):
            ent = dir_raw[off : off + 128]
            if len(ent) < 128:
                break
            (name_len,) = struct.unpack_from("<H", ent, 64)
            obj_type = ent[66]
            if obj_type == 0 or name_len < 2:
                continue
            name = ent[: name_len - 2].decode("utf-16le", errors="replace")
            (start,) = struct.unpack_from("<I", ent, 116)
            (size,) = struct.unpack_from("<Q", ent, 120)
            if self.sector_shift == 9:
                size &= 0xFFFFFFFF  # v3: only the low 32 bits are valid
            self.entries.append({"name": name, "type": obj_type, "start": start, "size": size})

        root = next(e for e in self.entries if e["type"] == 5)
        mini_container = b"".join(self._sector(s) for s in _chain(self.fat, root["start"]))
        self.mini_container = mini_container[: root["size"]]
        minifat_raw = b"".join(self._sector(s) for s in _chain(self.fat, first_minifat))
        self.minifat = list(struct.unpack(f"<{len(minifat_raw) // 4}I", minifat_raw))

    def _sector(self, idx: int) -> bytes:
        off = (idx + 1) * self.ssz  # header occupies one full sector
        return self.data[off : off + self.ssz]

    def _mini_sector(self, idx: int) -> bytes:
        off = idx * self.msz
        return self.mini_container[off : off + self.msz]

    def stream(self, name: str) -> bytes | None:
        ent = next((e for e in self.entries if e["type"] == 2 and e["name"] == name), None)
        if ent is None:
            return None
        if ent["size"] < self.mini_cutoff:
            raw = b"".join(self._mini_sector(s) for s in _chain(self.minifat, ent["start"]))
        else:
            raw = b"".join(self._sector(s) for s in _chain(self.fat, ent["start"]))
        return raw[: ent["size"]]


# ---------------------------------------------------------------------------
# BIFF records
# ---------------------------------------------------------------------------

_BOF = 0x0809
_EOF = 0x000A
_SST = 0x00FC
_CONTINUE = 0x003C
_BOUNDSHEET = 0x0085
_FILEPASS = 0x002F
_LABELSST = 0x00FD
_LABEL = 0x0204
_NUMBER = 0x0203
_RK = 0x027E
_MULRK = 0x00BD
_BOOLERR = 0x0205
_FORMULA = 0x0006
_STRING = 0x0207
_RSTRING = 0x00D6


def _records(data: bytes, pos: int = 0):
    n = len(data)
    while pos + 4 <= n:
        op, ln = struct.unpack_from("<HH", data, pos)
        yield op, data[pos + 4 : pos + 4 + ln], pos
        pos += 4 + ln


class _SstCursor:
    """Reads XLUnicodeStrings from an SST record + its CONTINUE chunks.

    Character payloads split at a chunk boundary restart with a fresh
    option byte (MS-XLS 2.5.293); counts/runs/ext bytes continue raw."""

    def __init__(self, chunks: list[bytes]):
        self.chunks = chunks
        self.ci = 0
        self.off = 0

    def _advance(self) -> bool:
        while self.ci < len(self.chunks) and self.off >= len(self.chunks[self.ci]):
            self.ci += 1
            self.off = 0
        return self.ci < len(self.chunks)

    def eof(self) -> bool:
        return not self._advance()

    def read_raw(self, n: int) -> bytes:
        out = bytearray()
        while n > 0 and self._advance():
            chunk = self.chunks[self.ci]
            take = min(n, len(chunk) - self.off)
            out += chunk[self.off : self.off + take]
            self.off += take
            n -= take
        if n:
            raise ValueError("truncated SST stream")
        return bytes(out)

    def read_string(self) -> str:
        (cch,) = struct.unpack("<H", self.read_raw(2))
        grbit = self.read_raw(1)[0]
        high = grbit & 0x01
        n_runs = 0
        cb_ext = 0
        if grbit & 0x08:  # fRichSt
            (n_runs,) = struct.unpack("<H", self.read_raw(2))
        if grbit & 0x04:  # fExtSt
            (cb_ext,) = struct.unpack("<i", self.read_raw(4))
        parts: list[str] = []
        remaining = cch
        while remaining:
            if not self._advance():
                raise ValueError("truncated SST string")
            chunk = self.chunks[self.ci]
            avail = len(chunk) - self.off
            if avail == 0:
                continue
            width = 2 if high else 1
            take = min(remaining, avail // width)
            if take == 0:
                # char payload split with an odd byte left — per spec the
                # writer splits at char boundaries; skip to next chunk
                self.ci += 1
                self.off = 0
                high = self.read_raw(1)[0] & 0x01
                continue
            raw = chunk[self.off : self.off + take * width]
            self.off += take * width
            parts.append(raw.decode("utf-16le" if high else "latin-1"))
            remaining -= take
            if remaining and self.off >= len(chunk):
                # continued into the next chunk: fresh option byte
                self.ci += 1
                self.off = 0
                high = self.read_raw(1)[0] & 0x01
        if n_runs:
            self.read_raw(4 * n_runs)
        if cb_ext:
            self.read_raw(cb_ext)
        return "".join(parts)


def _parse_sst(chunks: list[bytes]) -> list[str]:
    cur = _SstCursor(chunks)
    _total, unique = struct.unpack("<ii", cur.read_raw(8))
    return [cur.read_string() for _ in range(unique)]


def _biff8_string(data: bytes, off: int, short: bool = False) -> tuple[str, int]:
    """XLUnicodeString inside a single record: (text, bytes consumed)."""
    if short:
        cch = data[off]
        off += 1
    else:
        (cch,) = struct.unpack_from("<H", data, off)
        off += 2
    grbit = data[off]
    off += 1
    n_runs = 0
    cb_ext = 0
    if grbit & 0x08:
        (n_runs,) = struct.unpack_from("<H", data, off)
        off += 2
    if grbit & 0x04:
        (cb_ext,) = struct.unpack_from("<i", data, off)
        off += 4
    if grbit & 0x01:
        text = data[off : off + 2 * cch].decode("utf-16le")
        off += 2 * cch
    else:
        text = data[off : off + cch].decode("latin-1")
        off += cch
    return text, off + 4 * n_runs + cb_ext


def _rk_value(v: int) -> float:
    if v & 0x02:  # integer
        num = v >> 2
        if num & 0x20000000:
            num -= 0x40000000
        val = float(num)
    else:
        val = struct.unpack("<d", b"\x00\x00\x00\x00" + struct.pack("<I", v & 0xFFFFFFFC))[0]
    return val / 100.0 if v & 0x01 else val


def _num_str(v: float) -> str:
    """Number → string matching the xlsx writer's <v> serialization
    (ints bare, floats via repr) so the typed twin tables agree."""
    if v == int(v) and abs(v) < 1e15:
        return str(int(v))
    return repr(v)


def read_xls_rows(data: bytes) -> list[list[str]]:
    """XLS (BIFF8/BIFF5) bytes → dense rows of strings (first sheet)."""
    cfb = _Cfb(data)
    stream = cfb.stream("Workbook") or cfb.stream("Book")
    if stream is None:
        raise ValueError("no Workbook/Book stream in CFB container")

    # --- globals substream: version, SST, sheet offsets ---
    biff8 = True
    sst: list[str] = []
    sheet_offsets: list[int] = []
    sst_chunks: list[bytes] = []
    collecting_sst = False
    for op, payload, _pos in _records(stream):
        if op == _BOF:
            (vers,) = struct.unpack_from("<H", payload, 0)
            biff8 = vers >= 0x0600
        elif op == _FILEPASS:
            raise ValueError("encrypted .xls workbooks are not supported")
        elif op == _SST:
            sst_chunks = [payload]
            collecting_sst = True
            continue
        elif op == _CONTINUE and collecting_sst:
            sst_chunks.append(payload)
            continue
        elif op == _BOUNDSHEET:
            (ply_pos,) = struct.unpack_from("<I", payload, 0)
            sheet_type = payload[5]
            if sheet_type == 0:  # worksheet
                sheet_offsets.append(ply_pos)
        elif op == _EOF:
            break
        collecting_sst = False
    if sst_chunks:
        sst = _parse_sst(sst_chunks)
    if not sheet_offsets:
        return []

    # --- first worksheet substream ---
    cells: dict[tuple[int, int], str] = {}
    pending_formula: tuple[int, int] | None = None
    for op, payload, _pos in _records(stream, sheet_offsets[0]):
        if op == _EOF:
            break
        if op == _LABELSST:
            row, col, _xf, isst = struct.unpack_from("<HHHI", payload, 0)
            cells[(row, col)] = sst[isst] if isst < len(sst) else ""
        elif op in (_LABEL, _RSTRING):
            row, col, _xf = struct.unpack_from("<HHH", payload, 0)
            if biff8:
                text, _ = _biff8_string(payload, 6)
            else:
                (cch,) = struct.unpack_from("<H", payload, 6)
                text = payload[8 : 8 + cch].decode("latin-1")
            cells[(row, col)] = text
        elif op == _NUMBER:
            row, col, _xf, val = struct.unpack_from("<HHHd", payload, 0)
            cells[(row, col)] = _num_str(val)
        elif op == _RK:
            row, col, _xf, rk = struct.unpack_from("<HHHI", payload, 0)
            cells[(row, col)] = _num_str(_rk_value(rk))
        elif op == _MULRK:
            row, col_first = struct.unpack_from("<HH", payload, 0)
            (col_last,) = struct.unpack_from("<H", payload, len(payload) - 2)
            for i in range(col_last - col_first + 1):
                (rk,) = struct.unpack_from("<I", payload, 4 + i * 6 + 2)
                cells[(row, col_first + i)] = _num_str(_rk_value(rk))
        elif op == _BOOLERR:
            row, col, _xf, val, is_err = struct.unpack_from("<HHHBB", payload, 0)
            if not is_err:
                cells[(row, col)] = "true" if val else "false"
        elif op == _FORMULA:
            row, col, _xf = struct.unpack_from("<HHH", payload, 0)
            cached = payload[6:14]
            if cached[6:8] == b"\xff\xff":
                kind = cached[0]
                if kind == 0:  # string result in the following STRING record
                    pending_formula = (row, col)
                elif kind == 1:
                    cells[(row, col)] = "true" if cached[2] else "false"
                elif kind == 3:
                    cells[(row, col)] = ""
                # kind == 2 (error): leave the cell blank
            else:
                (val,) = struct.unpack("<d", cached)
                cells[(row, col)] = _num_str(val)
        elif op == _STRING and pending_formula is not None:
            if biff8:
                text, _ = _biff8_string(payload, 0)
            else:
                (cch,) = struct.unpack_from("<H", payload, 0)
                text = payload[2 : 2 + cch].decode("latin-1")
            cells[pending_formula] = text
            pending_formula = None

    if not cells:
        return []
    n_rows = max(r for r, _ in cells) + 1
    n_cols = max(c for _, c in cells) + 1
    return [[cells.get((r, c), "") for c in range(n_cols)] for r in range(n_rows)]


def inspect_xls(
    data: bytes,
    sample_rows: int = 100,
    rows: list[list[str]] | None = None,
    output_profile: bool = False,
) -> dict:
    """Inspection report in the exact shape of inspect_csv_text (a
    one-sheet batch; engine marks the BIFF source)."""
    if rows is None:
        rows = read_xls_rows(data)
    return inspect_sheet(Sheet(rows, "hydra-ray-xls"), sample_rows, output_profile)


def xls_to_table(
    data: bytes, inspection: dict | None = None, rows: list[list[str]] | None = None
) -> pa.Table:
    """XLS bytes → typed Arrow table via the batched cast sweep."""
    if rows is None:
        rows = read_xls_rows(data)
    return sheet_to_table(Sheet(rows, "hydra-ray-xls"), inspection)


# ---------------------------------------------------------------------------
# writer (fixtures / tests only — minimal BIFF8 in a minimal CFB)
# ---------------------------------------------------------------------------

_REC_MAX = 8224  # max BIFF record payload before CONTINUE


def _rec(op: int, payload: bytes) -> bytes:
    return struct.pack("<HH", op, len(payload)) + payload


def _ser_string(s: str) -> bytes:
    """XLUnicodeString (16-bit cch) for SST / inline use."""
    try:
        raw = s.encode("latin-1")
        return struct.pack("<HB", len(s), 0) + raw
    except UnicodeEncodeError:
        return struct.pack("<HB", len(s), 1) + s.encode("utf-16le")


def _build_sst(strings: list[str]) -> bytes:
    """SST record (+ CONTINUE records), splitting character payloads at
    chunk boundaries with a re-emitted option byte when needed."""
    records: list[bytearray] = [bytearray(struct.pack("<ii", len(strings), len(strings)))]

    def room() -> int:
        return _REC_MAX - len(records[-1])

    for s in strings:
        ser = _ser_string(s)
        header_len = 3  # cch + grbit
        if room() < header_len + 2:  # need space for at least one char
            records.append(bytearray())
        if len(ser) <= room():
            records[-1] += ser
            continue
        # split the char payload across CONTINUE records
        high = ser[2] & 0x01
        width = 2 if high else 1
        records[-1] += ser[:3]
        body = ser[3:]
        while body:
            if room() < width:
                records.append(bytearray([high]))
            take = (min(len(body), room()) // width) * width
            records[-1] += body[:take]
            body = body[take:]
    out = _rec(_SST, bytes(records[0]))
    for cont in records[1:]:
        out += _rec(_CONTINUE, bytes(cont))
    return out


def _build_workbook_stream(rows: list[list[object]]) -> bytes:
    shared: list[str] = []
    shared_idx: dict[str, int] = {}
    cell_recs: list[bytes] = []
    for ri, row in enumerate(rows):
        for ci, val in enumerate(row):
            if isinstance(val, bool):
                cell_recs.append(_rec(_BOOLERR, struct.pack("<HHHBB", ri, ci, 0, int(val), 0)))
            elif isinstance(val, int) and -(2**29) <= val < 2**29:
                rk = ((val << 2) & 0xFFFFFFFC) | 0x02
                cell_recs.append(_rec(_RK, struct.pack("<HHHI", ri, ci, 0, rk)))
            elif isinstance(val, (int, float)):
                cell_recs.append(_rec(_NUMBER, struct.pack("<HHHd", ri, ci, 0, float(val))))
            else:
                s = "" if val is None else str(val)
                if s not in shared_idx:
                    shared_idx[s] = len(shared)
                    shared.append(s)
                cell_recs.append(_rec(_LABELSST, struct.pack("<HHHI", ri, ci, 0, shared_idx[s])))

    bof_globals = _rec(_BOF, struct.pack("<HHHHII", 0x0600, 0x0005, 0, 0, 0, 0))
    bof_sheet = _rec(_BOF, struct.pack("<HHHHII", 0x0600, 0x0010, 0, 0, 0, 0))
    sheet = bof_sheet + b"".join(cell_recs) + _rec(_EOF, b"")
    sst = _build_sst(shared)
    name = "Sheet1".encode("latin-1")
    bs_payload_len = 4 + 2 + 2 + len(name)  # pos + grbit + cch/grbit + chars
    globals_len = (
        len(bof_globals)
        + len(sst)
        + 4
        + bs_payload_len  # BOUNDSHEET record
        + 4  # EOF record
    )
    boundsheet = _rec(
        _BOUNDSHEET,
        struct.pack("<IH", globals_len, 0) + bytes([len(name), 0]) + name,
    )
    return bof_globals + sst + boundsheet + _rec(_EOF, b"") + sheet


def _write_cfb(stream_name: str, stream: bytes) -> bytes:
    """Single-stream CFB container. Streams < 4096 bytes go through the
    mini-stream (exercising the reader's miniFAT path); larger streams
    use regular 512-byte sectors."""
    ssz = 512

    def pad(b: bytes, unit: int) -> bytes:
        rem = len(b) % unit
        return b if rem == 0 else b + b"\x00" * (unit - rem)

    use_mini = len(stream) < 4096
    if use_mini:
        mini = pad(stream, 64)
        n_mini = len(mini) // 64
        minifat = list(range(1, n_mini)) + [_ENDOFCHAIN]
        minifat_raw = pad(struct.pack(f"<{len(minifat)}I", *minifat), ssz)
        # sectors after FAT+DIR: [miniFAT][ministream...]
        payload_sectors = [minifat_raw[i : i + ssz] for i in range(0, len(minifat_raw), ssz)]
        padded_mini = pad(mini, ssz)
        payload_sectors += [padded_mini[i : i + ssz] for i in range(0, len(padded_mini), ssz)]
    else:
        reg = pad(stream, ssz)
        payload_sectors = [reg[i : i + ssz] for i in range(0, len(reg), ssz)]

    # iterate to find the number of FAT sectors
    n_dir = 1
    n_payload = len(payload_sectors)
    n_fat = 1
    while True:
        total = n_fat + n_dir + n_payload
        need = (total * 4 + ssz - 1) // ssz
        if need <= n_fat:
            break
        n_fat = need
    if n_fat > 109:
        raise ValueError("fixture CFB writer supports <= 109 FAT sectors (~7 MB)")

    # sector layout: [0..n_fat-1]=FAT, [n_fat]=dir, then payload
    dir_sector = n_fat
    first_payload = n_fat + 1
    fat = [0xFFFFFFFD] * n_fat + [_ENDOFCHAIN]  # FAT sectors + dir (1 sector)
    if use_mini:
        minifat_sector = first_payload
        mini_first = first_payload + 1
        fat.append(_ENDOFCHAIN)  # miniFAT chain (1 sector)
        n_mini_sectors = n_payload - 1
        for i in range(n_mini_sectors):
            fat.append(mini_first + i + 1 if i < n_mini_sectors - 1 else _ENDOFCHAIN)
        root_start, root_size = mini_first, len(pad(stream, 64))
        entry_start, entry_size = 0, len(stream)
        first_minifat, n_minifat_sectors = minifat_sector, 1
    else:
        for i in range(n_payload):
            fat.append(first_payload + i + 1 if i < n_payload - 1 else _ENDOFCHAIN)
        root_start, root_size = _ENDOFCHAIN, 0
        entry_start, entry_size = first_payload, len(stream)
        first_minifat, n_minifat_sectors = _ENDOFCHAIN, 0
    fat_raw = pad(struct.pack(f"<{len(fat)}I", *fat), ssz)
    fat_raw = fat_raw + b"\xff" * (n_fat * ssz - len(fat_raw))

    def dir_entry(name: str, obj_type: int, start: int, size: int, child: int = _NOSTREAM) -> bytes:
        raw_name = (name + "\x00").encode("utf-16le")
        ent = bytearray(128)
        ent[: len(raw_name)] = raw_name
        struct.pack_into("<H", ent, 64, len(raw_name))
        ent[66] = obj_type
        ent[67] = 1  # black
        struct.pack_into("<III", ent, 68, _NOSTREAM, _NOSTREAM, child)
        struct.pack_into("<I", ent, 116, start)
        struct.pack_into("<Q", ent, 120, size)
        return bytes(ent)

    directory = (
        dir_entry("Root Entry", 5, root_start, root_size, child=1)
        + dir_entry(stream_name, 2, entry_start, entry_size)
        + b"\x00" * 64
        + b"\xff" * 0
    )
    directory = directory.ljust(ssz, b"\x00")

    header = bytearray(512)
    header[:8] = _CFB_SIG
    struct.pack_into("<H", header, 24, 0x003E)  # minor
    struct.pack_into("<H", header, 26, 0x0003)  # major (v3)
    struct.pack_into("<H", header, 28, 0xFFFE)  # little-endian
    struct.pack_into("<H", header, 30, 9)  # 512-byte sectors
    struct.pack_into("<H", header, 32, 6)  # 64-byte mini sectors
    struct.pack_into("<I", header, 44, n_fat)
    struct.pack_into("<I", header, 48, dir_sector)
    struct.pack_into("<I", header, 56, 4096)
    struct.pack_into("<I", header, 60, first_minifat)
    struct.pack_into("<I", header, 64, n_minifat_sectors)
    struct.pack_into("<I", header, 68, _ENDOFCHAIN)  # no DIFAT sectors
    struct.pack_into("<I", header, 72, 0)
    difat = [_FREESECT] * 109
    for i in range(n_fat):
        difat[i] = i
    struct.pack_into("<109I", header, 76, *difat)

    return bytes(header) + fat_raw + directory + b"".join(payload_sectors)


def write_xls(rows: list[list[object]]) -> bytes:
    """Rows (str/int/float/bool) → minimal single-sheet BIFF8 .xls bytes.
    Strings go through the SST (LABELSST cells), small ints use RK,
    other numbers NUMBER, bools BOOLERR — exercising every cell-record
    decoder in read_xls_rows."""
    return _write_cfb("Workbook", _build_workbook_stream(rows))


def _build_biff5_stream(rows: list[list[object]]) -> bytes:
    """BIFF5 workbook stream: BOF version 0x0500, no SST — strings are
    inline LABEL records (cch + latin-1 chars), BOUNDSHEET uses the
    byte-counted short string without a unicode options byte.  Numbers
    and bools share the BIFF8 record layouts."""
    cell_recs: list[bytes] = []
    for ri, row in enumerate(rows):
        for ci, val in enumerate(row):
            if isinstance(val, bool):
                cell_recs.append(
                    _rec(_BOOLERR, struct.pack("<HHHBB", ri, ci, 0, int(val), 0))
                )
            elif isinstance(val, int) and -(2**29) <= val < 2**29:
                rk = ((val << 2) & 0xFFFFFFFC) | 0x02
                cell_recs.append(_rec(_RK, struct.pack("<HHHI", ri, ci, 0, rk)))
            elif isinstance(val, (int, float)):
                cell_recs.append(
                    _rec(_NUMBER, struct.pack("<HHHd", ri, ci, 0, float(val)))
                )
            else:
                s = "" if val is None else str(val)
                raw = s.encode("latin-1", "replace")
                cell_recs.append(
                    _rec(
                        _LABEL,
                        struct.pack("<HHHH", ri, ci, 0, len(raw)) + raw,
                    )
                )

    bof_globals = _rec(_BOF, struct.pack("<HHHH", 0x0500, 0x0005, 0, 0))
    bof_sheet = _rec(_BOF, struct.pack("<HHHH", 0x0500, 0x0010, 0, 0))
    sheet = bof_sheet + b"".join(cell_recs) + _rec(_EOF, b"")
    name = "Sheet1".encode("latin-1")
    bs_payload_len = 4 + 2 + 1 + len(name)  # pos + grbit + cch + chars
    globals_len = len(bof_globals) + 4 + bs_payload_len + 4
    boundsheet = _rec(
        _BOUNDSHEET,
        struct.pack("<IH", globals_len, 0) + bytes([len(name)]) + name,
    )
    return bof_globals + boundsheet + _rec(_EOF, b"") + sheet


def write_xls_biff5(rows: list[list[object]]) -> bytes:
    """Rows (str/int/float/bool) → single-sheet legacy BIFF5 .xls bytes
    in a 'Book' CFB stream — the pre-97 Excel format the reader's
    biff8=False branches exist for."""
    return _write_cfb("Book", _build_biff5_stream(rows))
