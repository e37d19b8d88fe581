"""Readers/writers for trace CSV files and portable graymap (PGM) images.

All readers reject malformed input with positioned errors; writers produce
byte-stable output (fixed formats, no locale dependence).
"""
from __future__ import annotations

import io
import os
import re
import tempfile
from collections.abc import Iterable

import numpy as np

from .core import GazeTrace, SampledSignal
from .errors import ParameterError, ParseError
from .params import LABEL_NAMES, NAME_LABELS, MovementLabel, decode_utf8

# Each CSV format's numeric columns: header name, name in errors, number
# format. The first is the time, written in ms; a label ends each line.
_TIME = ("t_ms", "timestamp", ".3f")
_VELOCITY_COLUMNS = (_TIME, ("velocity_deg_s", "velocity", ".6g"))
_GAZE_COLUMNS = (_TIME, ("x_px", "x coordinate", ".3f"), ("y_px", "y coordinate", ".3f"))
VELOCITY_HEADER = ",".join([name for name, _, _ in _VELOCITY_COLUMNS] + ["label"])
GAZE_HEADER = ",".join([name for name, _, _ in _GAZE_COLUMNS] + ["label"])
# CSV label name by label value.
_LABEL_NAME = tuple(LABEL_NAMES[label] for label in MovementLabel)


def atomic_write_text(path: str, text: str) -> None:
    atomic_write_bytes(path, text.encode("utf-8"))


def atomic_write_bytes(path: str, data: bytes) -> None:
    """Write via temp-then-rename so errors never leave partial output. The
    file gets the mode a plain open() gives, 0o666 less the umask, where
    mkstemp's temp file has 0o600."""
    umask = os.umask(0)  # read by setting it, and restored at once
    os.umask(umask)
    d = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=d, prefix=".gazeforge-", suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as fh:
            os.fchmod(fh.fileno(), 0o666 & ~umask)
            fh.write(data)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _parse_label(token: str, row: int) -> MovementLabel:
    try:
        return NAME_LABELS[token]
    except KeyError:
        raise ParseError(f"unknown label {token!r}", f"row {row}") from None


def velocity_csv_bytes(signal: SampledSignal) -> bytes:
    return _csv_bytes(_VELOCITY_COLUMNS, [signal.timestamps, signal.velocities], signal.labels)


def write_velocity_csv(path: str, signal: SampledSignal) -> None:
    atomic_write_bytes(path, velocity_csv_bytes(signal))


# --- CSV number formatting ---
#
# A CSV is built as one byte matrix, a column per byte of a line and a row
# per line; every field has its own block of columns, and the bytes a
# shorter value leaves unused hold _PAD, which one mask drops at the end.
# The matrix is filled transposed, one contiguous array per column. Each
# number becomes a correctly rounded fixed-point integer spelled out through
# a digit table. A row whose rounding the float product cannot settle
# (within a few ulps of a tie, or too large), or whose value the fixed
# notation does not cover, is formatted by format() with its column's spec
# instead, so the bytes are always format()'s.

_PAD = 0  # a byte no CSV line contains; a digit byte times 0 is _PAD
_CSV_BLOCK_ROWS = 16384
# Hundreds, tens and units digit of 0..999 as ASCII. The tables are built
# without numpy arithmetic, whose first use maps more of numpy's code into
# every process that imports this module.
_DIGITS3 = (
    np.frombuffer("".join(f"{i:03d}" for i in range(1000)).encode(), dtype=np.uint8)
    .reshape(1000, 3)
    .T.copy()
)
_POW10 = np.array([10**k for k in range(19)], dtype=np.int64)
_F10 = np.array([float(10**k) for k in range(23)])  # exact doubles
# Lower bounds of the decades of .6g's fixed notation, 1e-4 to 1e5. The
# doubles of 1e-4 to 1e-1 lie above the powers of ten they stand for, so a
# comparison with them finds the exact decade.
_G_DECADES = np.array([float(f"1e{e}") for e in range(-4, 6)])
_LABEL_WIDTH = max(map(len, _LABEL_NAME))
_LABEL_BYTES = np.array(
    [list(name.encode().ljust(_LABEL_WIDTH, b"\0")) for name in _LABEL_NAME],
    dtype=np.uint8,
).T


def _put_digits(q: np.ndarray, out: np.ndarray) -> None:
    """Write the ASCII digits of non-negative int64 values into the columns
    ``out`` (one row per digit, most significant first), zero-filled."""
    hi = len(out)
    while hi > 0:
        q, r = np.divmod(q, 1000)
        for k in range(max(hi - 3, 0), hi):
            out[k] = _DIGITS3[k - hi + 3].take(r)
        hi -= 3


def _drop_leading_zeros(q: np.ndarray, out: np.ndarray) -> None:
    """Pad the leading zeros of the integers ``q`` written in ``out``,
    keeping the units digit."""
    w = len(out)
    for k in range(w - 1):
        out[k] *= q >= _POW10[w - 1 - k]


def _rounded(y: np.ndarray, ok: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``y`` rounded to int64 where ``ok``, and the mask of values to format
    by f-string: not ``ok``, or so close to a tie that the rounding error of
    the product ``y`` could put it on the wrong side (or exactly on it)."""
    y = np.where(ok, y, 0.0)
    slow = ~ok | (np.abs(y - np.floor(y) - 0.5) <= 4.0 * np.spacing(y))
    return np.rint(y).astype(np.int64), slow


def _fixed3(v: np.ndarray):
    """``f"{v:.3f}"`` of each value: (width, fill, slow), where ``fill(out)``
    writes the padded bytes into ``width`` columns and ``slow`` marks the
    rows to format by f-string (non-finite, ``|v|·1000 >= 2**52``, or near a
    tie)."""
    with np.errstate(over="ignore"):
        y = np.abs(v) * 1000.0
    q, slow = _rounded(y, y < 2.0**52)
    ip, frac = np.divmod(q, 1000)
    digits = len(str(int(ip.max(initial=0))))

    def fill(out: np.ndarray) -> None:
        out[0] = np.signbit(v) * ord("-")
        _put_digits(ip, out[1 : 1 + digits])
        _drop_leading_zeros(ip, out[1 : 1 + digits])
        out[1 + digits] = ord(".")
        _put_digits(frac, out[2 + digits :])

    return digits + 5, fill, slow


def _general6(v: np.ndarray):
    """``f"{v:.6g}"`` of each value, as :func:`_fixed3` returns it; the
    f-string rows are those other than zero outside 1e-4 <= |v| < 1e6 (.6g
    writes them with an exponent), those near a tie, and those that round up
    to the next decade."""
    a = np.abs(v)
    fixed = (a >= 1e-4) & (a < 1e6)
    # 6 significant digits: 5 - e decimals in decade e (10**e <= |v| < 10**(e+1)).
    decimals = np.where(fixed, 10 - np.searchsorted(_G_DECADES, a, side="right"), 0)
    q, slow = _rounded(a * _F10[decimals], fixed | (a == 0.0))
    slow |= q >= _POW10[6]
    ip, frac = np.divmod(q * _POW10[9 - decimals], _POW10[9])  # 9 decimals
    # Decimals left once trailing zeros go; q >= 1e5 has at most 5 of them,
    # and q == 0 comes with decimals 0.
    kept = decimals - sum(q % _POW10[k] == 0 for k in range(1, 6))

    def fill(out: np.ndarray) -> None:
        out[0] = np.signbit(v) * ord("-")
        _put_digits(ip, out[1:7])
        _drop_leading_zeros(ip, out[1:7])
        out[7] = (kept > 0) * ord(".")
        _put_digits(frac, out[8:])
        for k in range(9):
            out[8 + k] *= kept > k

    return 17, fill, slow


def _csv_bytes(table: tuple, values: list, labels: np.ndarray) -> bytes:
    """The CSV of the columns of ``table`` (``values``, the time in s) and the
    labels; the rows a field marks are formatted by ``format()``. Built in
    blocks of rows, so that the temporaries stay small."""
    specs = [spec for _, _, spec in table]
    formatters = [{".3f": _fixed3, ".6g": _general6}[spec] for spec in specs]
    with np.errstate(over="ignore"):  # as Python floats: inf past the largest float
        values = [values[0] * 1000.0, *values[1:]]
    parts = [",".join([name for name, _, _ in table] + ["label\n"]).encode("ascii")]
    for lo in range(0, len(labels), _CSV_BLOCK_ROWS):
        hi = lo + _CSV_BLOCK_ROWS
        fields = [fmt(v[lo:hi]) for fmt, v in zip(formatters, values)]
        width = sum(w + 1 for w, _, _ in fields) + _LABEL_WIDTH + 1
        out = np.empty((width, len(labels[lo:hi])), dtype=np.uint8)
        col = 0
        for w, fill, _ in fields:
            fill(out[col : col + w])
            out[col + w] = ord(",")
            col += w + 1
        for k in range(_LABEL_WIDTH):
            out[col + k] = _LABEL_BYTES[k].take(labels[lo:hi])
        out[-1] = ord("\n")
        flat = out.T.ravel()
        body = flat[flat != _PAD].tobytes()
        slow = np.flatnonzero(np.logical_or.reduce([s for _, _, s in fields]))
        if len(slow):
            lines = body.split(b"\n")
            for i in slow.tolist():
                row = [format(float(v[lo + i]), spec) for spec, v in zip(specs, values)]
                lines[i] = ",".join([*row, _LABEL_NAME[labels[lo + i]]]).encode("ascii")
            body = b"\n".join(lines)
        parts.append(body)
    return b"".join(parts)


def _read_rows(text: str, header: str, n_fields: int) -> Iterable[tuple[int, list[str]]]:
    lines = text.splitlines()
    if not lines:
        raise ParseError("empty file", "row 1")
    if lines[0].strip() != header:
        raise ParseError(
            f"bad header: expected {header!r}, got {lines[0].strip()!r}", "row 1"
        )
    for i, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue
        fields = line.split(",")
        if len(fields) != n_fields:
            raise ParseError(
                f"expected {n_fields} comma-separated fields, got {len(fields)}",
                f"row {i}",
            )
        yield i, [f.strip() for f in fields]


def _parse_float(token: str, row: int, what: str) -> float:
    # float() also takes "1_0" and non-ASCII digits; the file format does not.
    if "_" in token or not token.isascii():
        raise ParseError(f"invalid {what} {token!r}", f"row {row}")
    try:
        v = float(token)
    except ValueError:
        raise ParseError(f"invalid {what} {token!r}", f"row {row}") from None
    if not np.isfinite(v):
        raise ParseError(f"non-finite {what} {token!r}", f"row {row}")
    return v


def _increasing_timestamps(ts: list[float], rows: list[int]) -> np.ndarray:
    """Timestamps as an array; raises at the first row not after its
    predecessor."""
    if not ts:
        raise ParseError("no data rows", "row 2")
    ts_arr = np.array(ts)
    bad = np.flatnonzero(np.diff(ts_arr) <= 0)
    if len(bad):
        raise ParseError(
            "timestamps not strictly increasing", f"row {rows[bad[0] + 1]}"
        )
    return ts_arr


def _columns_by_rows(
    text: str, header: str, what: tuple[str, ...]
) -> tuple[np.ndarray, list[np.ndarray], np.ndarray]:
    """Timestamps (s), the other numeric columns and the labels, parsed row
    by row; raises the positioned ParseError of the first bad row."""
    cols: list[list[float]] = [[] for _ in what]
    ls, rows = [], []
    for row, fields in _read_rows(text, header, len(what) + 1):
        for col, token, name in zip(cols, fields, what):
            col.append(_parse_float(token, row, name))
        ls.append(int(_parse_label(fields[-1], row)))
        rows.append(row)
    ts = [t / 1000.0 for t in cols[0]]
    ts_arr = _increasing_timestamps(ts, rows)
    return ts_arr, [np.array(c) for c in cols[1:]], np.array(ls)


# --- CSV decoding ---
#
# The fast reader takes a file of printable ASCII, tabs and LF or CRLF line
# ends; any other file goes to the row loop, which positions the error.
# numpy's C reader, np.loadtxt, parses the lines after the header into
# n_fields - 1 float64 values, converted as float() does (but, as in the
# row loop, without "1_0"), and a label field of _LABEL_WORD bytes. It
# rejects a line of blanks, which the row loop skips: such lines are dropped
# and the body read again. A file it rejects, or with a non-finite value or
# timestamps that do not increase, goes to the row loop. A label is matched
# as the integer of its word. Each label is shorter than the word, so a
# field that fills it, which loadtxt may have cut, matches none; a field
# that matches none is read again from its line, stripped.

_CSV_PLAIN = bytes(range(32, 127)) + b"\t\n\r"
# A line of blanks, with the newline that ends the line before it.
_BLANK_LINE = re.compile(rb"\n[ \t]+(?=\n|\Z)")
_LABEL_WORD = 8
# Each label's bytes as a little-endian integer, by label value.
_LABEL_KEYS = tuple(int.from_bytes(name.encode(), "little") for name in _LABEL_NAME)


def _loadtxt(body: bytes, n_fields: int) -> np.ndarray | None:
    """The lines of ``body`` as records of a "values" and a "label" field, or
    None for a body that np.loadtxt rejects."""
    dtype = [("values", "f8", (n_fields - 1,)), ("label", f"S{_LABEL_WORD}")]
    try:
        return np.loadtxt(io.BytesIO(body), dtype=dtype, delimiter=",", comments=None, ndmin=1)
    except ValueError:
        return None


def _decode_columns(
    data: bytes, header: str, n_fields: int
) -> tuple[np.ndarray, list[np.ndarray], np.ndarray] | None:
    """What :func:`_columns_by_rows` returns for the text of ``data``, or None
    for a file it does not take (see above) or would reject."""
    if data.translate(None, _CSV_PLAIN):
        return None
    if b"\r" in data:
        data = data.replace(b"\r\n", b"\n")
        if b"\r" in data:
            return None
    first = data.find(b"\n")
    if first < 0 or data[:first].strip() != header.encode():
        return None
    body = data[first:]
    if body.isspace():
        return None  # no data rows
    table = _loadtxt(body, n_fields)
    if table is None and _BLANK_LINE.search(body):
        body = _BLANK_LINE.sub(b"", body)
        table = _loadtxt(body, n_fields)
    if table is None:
        return None
    values = table["values"]
    ts = values[:, 0] / 1000.0
    if not np.isfinite(values).all() or (np.diff(ts) <= 0).any():
        return None
    keys = table["label"].view("<u8")
    labels = np.select([keys == key for key in _LABEL_KEYS], range(len(_LABEL_KEYS)), -1)
    missed = np.flatnonzero(labels < 0).tolist()
    if missed:
        lines = [line for line in body.split(b"\n") if line]  # loadtxt's rows
        for i in missed:
            label = NAME_LABELS.get(lines[i].rsplit(b",", 1)[1].decode().strip())
            if label is None:
                return None
            labels[i] = label
    return ts, [values[:, c].copy() for c in range(1, n_fields - 1)], labels


def _read_columns(data: bytes, table: tuple) -> tuple[np.ndarray, list[np.ndarray], np.ndarray]:
    header = ",".join([name for name, _, _ in table] + ["label"])
    what = tuple(name for _, name, _ in table)
    return _decode_columns(data, header, len(what) + 1) or _columns_by_rows(
        decode_utf8(data), header, what
    )


def read_velocity_csv_bytes(data: bytes) -> SampledSignal:
    ts, (vs,), ls = _read_columns(data, _VELOCITY_COLUMNS)
    return SampledSignal(ts, vs, ls)


def read_velocity_csv(path: str) -> SampledSignal:
    with open(path, "rb") as fh:
        return read_velocity_csv_bytes(fh.read())


def gaze_csv_bytes(trace: GazeTrace) -> bytes:
    return _csv_bytes(_GAZE_COLUMNS, [trace.timestamps, trace.x, trace.y], trace.labels)


def write_gaze_csv(path: str, trace: GazeTrace) -> None:
    atomic_write_bytes(path, gaze_csv_bytes(trace))


def read_gaze_csv_bytes(data: bytes, pixels_per_degree: float = 30.0) -> GazeTrace:
    """The gaze trace of ``data``, on an image just large enough for its
    samples: ``ceil(max) + 1`` pixels in each direction."""
    ts, (xs, ys), ls = _read_columns(data, _GAZE_COLUMNS)
    width, height = int(np.ceil(xs.max())) + 1, int(np.ceil(ys.max())) + 1
    return GazeTrace(ts, xs, ys, ls, width, height, pixels_per_degree)


def read_gaze_csv(path: str, pixels_per_degree: float = 30.0) -> GazeTrace:
    with open(path, "rb") as fh:
        return read_gaze_csv_bytes(fh.read(), pixels_per_degree)


# --- Portable graymap (P2 ASCII / P5 binary) ---

MAX_PGM_DIM = 1 << 16


# One PNM token: the whitespace and '#' comments before it, then the token,
# a run of other bytes. The token is empty only at the end of the data.
_PNM_TOKEN = re.compile(rb"(?:[ \t\r\n]|#[^\r\n]*)*([^ \t\r\n#]*)")


def _pnm_token(data: bytes, pos: int, what: str) -> tuple[bytes, int, int]:
    """The token after ``pos``, where it starts and where it ends."""
    m = _PNM_TOKEN.match(data, pos)
    start, end = m.span(1)
    if start == end:
        raise ParseError(f"missing {what}", f"byte {start}")
    return m[1], start, end


def _pnm_integer(data: bytes, pos: int, what: str, lo: int, hi: int) -> tuple[int, int]:
    """The integer token after ``pos``, in [lo, hi], and where it ends."""
    tok, start, end = _pnm_token(data, pos, what)
    try:
        if b"_" in tok:  # int() takes "1_0"; the file format does not
            raise ValueError
        v = int(tok)
    except ValueError:
        raise ParseError(f"invalid {what} {tok!r}", f"byte {start}") from None
    if not lo <= v <= hi:
        raise ParseError(f"{what} {v} out of range [{lo}, {hi}]", f"byte {start}")
    return v, end


# The two P2 body decoders take (data, pos, n, maxval). A pixel takes at least
# a byte, so neither allocates more pixels than the body from pos has bytes.
_P2_BLOCK_BYTES = 1 << 16  # more than 7, the most digits of a block number
_P2_PLAIN = b"0123456789 \t\r\n"


def _windows(u: np.ndarray, size: int) -> np.ndarray:
    """Item i is the ``size`` bytes of ``u`` from byte i."""
    dtype = "<u8" if size == 8 else np.dtype((np.void, size))
    return np.ndarray((len(u) - size + 1,), dtype, u, strides=(1,))


def _digit_words(v: np.ndarray) -> np.ndarray:
    """The number spelled by each little-endian word of ``v``, whose bytes
    are ASCII digits or 0 for a 0: its bytes are combined in pairs, then
    fours, then eights."""
    v = v & 0x0F0F0F0F0F0F0F0F
    v = (v * 2561) >> 8
    v = ((v & 0x00FF00FF00FF00FF) * 6553601) >> 16
    return ((v & 0x0000FFFF0000FFFF) * 42949672960001) >> 32


def _p2_digit_pixels(data: bytes, pos: int, n: int, maxval: int) -> np.ndarray | None:
    """P2 pixels decoded in blocks of about ``_P2_BLOCK_BYTES`` cut at
    whitespace, when the body from ``pos`` is exactly n numbers of at most
    7 digits, none above maxval, separated by whitespace; else None. Each
    number is read from the 8 bytes up to its end, leading zeros included."""
    if n > len(data) - pos:
        return None
    values = np.empty(n)
    done = 0
    while pos < len(data):
        end = min(pos + _P2_BLOCK_BYTES, len(data))
        cut = end
        while cut < len(data) and data[cut] >= 48 and data[cut - 1] >= 48:
            cut -= 1  # back to whitespace, so that no number spans blocks
            if end - cut > 7:
                return None
        block = data[pos:cut]
        pos = cut
        if block.translate(None, _P2_PLAIN):
            return None
        # Whitespace around the block, and 8 bytes before every number's end.
        u = np.frombuffer(b"".join([b" " * 8, block, b" "]), dtype=np.uint8)
        digit = u >= 48
        ends = np.flatnonzero(digit[:-1] > digit[1:]) + 1
        w = _windows(u, 8).take(ends - 8)  # take copies 8 bytes per block byte first
        # Digits have bit 4 set and whitespace does not, so the highest
        # flag of the whitespace bytes marks the byte before the number;
        # -1 for a window of 8 digits.
        before = (np.frexp(~w & 0x1010101010101010)[1] - 5) // 8
        if done + len(ends) > n or before.min(initial=0) < 0:
            return None
        shift = (8 * before + 8).astype(np.uint64)
        v = _digit_words(w >> shift << shift)
        if v.max(initial=0) > maxval:
            return None
        values[done : done + len(v)] = v
        done += len(v)
    return values if done == n else None


def _p2_token_pixels(data: bytes, pos: int, n: int, maxval: int) -> np.ndarray:
    """P2 pixels read token by token, raising at the first fault; a body of
    fewer than n bytes runs out of tokens before its array is full."""
    values = np.empty(min(n, len(data) - pos))
    for i in range(n):
        values[i], pos = _pnm_integer(data, pos, "pixel value", 0, maxval)
    start = _PNM_TOKEN.match(data, pos).start(1)
    if start < len(data):
        raise ParseError("trailing data after pixels", f"byte {start}")
    return values


def read_pgm_bytes(data: bytes) -> np.ndarray:
    """Decode a P2/P5 graymap into a float grid normalized by maxval."""
    magic, _, pos = _pnm_token(data, 0, "magic number")
    if magic not in (b"P2", b"P5"):
        raise ParseError(f"bad magic {magic!r} (expected P2 or P5)", "byte 0")
    width, pos = _pnm_integer(data, pos, "width", 1, MAX_PGM_DIM)
    height, pos = _pnm_integer(data, pos, "height", 1, MAX_PGM_DIM)
    maxval, pos = _pnm_integer(data, pos, "maxval", 1, 65535)
    n = width * height
    if magic == b"P2":
        values = _p2_digit_pixels(data, pos, n, maxval)
        if values is None:  # long numbers, or a fault the token decoder positions
            values = _p2_token_pixels(data, pos, n, maxval)
        values /= float(maxval)  # both P2 paths make a new array: divide in place
    else:
        # Exactly one whitespace byte separates the header from the payload.
        if pos >= len(data) or data[pos : pos + 1] not in b" \t\r\n":
            raise ParseError("missing separator before binary payload", f"byte {pos}")
        pos += 1
        bpp = 1 if maxval < 256 else 2
        need = n * bpp
        payload = data[pos : pos + need]
        if len(payload) < need:
            raise ParseError(
                f"truncated payload: need {need} bytes, have {len(payload)}",
                f"byte {pos + len(payload)}",
            )
        if len(data) > pos + need:
            raise ParseError("trailing data after payload", f"byte {pos + need}")
        raw = np.frombuffer(payload, dtype=">u2" if bpp == 2 else np.uint8)
        # A maxval of 255 or 65535 admits every value of the sample type.
        if maxval < (1 << 8 * bpp) - 1 and raw.max(initial=0) > maxval:
            bad = int(np.argmax(raw > maxval))
            raise ParseError(
                f"pixel value {int(raw[bad])} exceeds maxval {maxval}",
                f"byte {pos + bad * bpp}",
            )
        # Integers convert to doubles exactly: the bits of astype, then divide.
        values = np.divide(raw, float(maxval))
    return values.reshape(height, width)


def read_pgm(path: str) -> np.ndarray:
    with open(path, "rb") as fh:
        return read_pgm_bytes(fh.read())


def pgm_bytes(grid: np.ndarray) -> bytes:
    """Encode a [0,1] grid as binary P5 with maxval 255 (round half up)."""
    grid = np.asarray(grid, dtype=float)
    if grid.ndim != 2:
        raise ParameterError(f"grid must be 2D, got shape {grid.shape}")
    h, w = grid.shape
    q = np.floor(np.clip(grid, 0.0, 1.0) * 255.0 + 0.5).astype(np.uint8)
    return b"P5\n%d %d\n255\n" % (w, h) + q.tobytes()


def write_pgm(path: str, grid: np.ndarray) -> None:
    atomic_write_bytes(path, pgm_bytes(grid))
