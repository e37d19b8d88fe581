"""Readers/writers for trace CSV files and portable graymap (PGM) images.

All readers reject malformed input with positioned errors; writers produce
byte-stable output (fixed formats, no locale dependence).
"""
from __future__ import annotations

import os
import tempfile
from collections.abc import Iterable

import numpy as np

from .core import LABEL_NAMES, NAME_LABELS, MovementLabel
from .errors import ParseError
from .mapping import GazeTrace
from .resampler import SampledSignal

VELOCITY_HEADER = "t_ms,velocity_deg_s,label"
GAZE_HEADER = "t_ms,x_px,y_px,label"
# CSV label name by label value.
_LABEL_NAME = tuple(LABEL_NAMES[label] for label in MovementLabel)


def atomic_write_text(path: str, text: str) -> None:
    atomic_write_bytes(path, text.encode("utf-8"))


def atomic_write_bytes(path: str, data: bytes) -> None:
    """Write via temp-then-rename so errors never leave partial output."""
    d = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=d, prefix=".gazeforge-", suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as fh:
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


def velocity_csv_text(signal: SampledSignal) -> str:
    return _velocity_csv_bytes(signal).decode("ascii")


def _velocity_csv_bytes(signal: SampledSignal) -> bytes:
    def row(i: int) -> str:
        t, v = float(signal.timestamps[i]), float(signal.velocities[i])
        return f"{t * 1000.0:.3f},{v:.6g},{_LABEL_NAME[signal.labels[i]]}"

    with np.errstate(over="ignore"):  # as the f-string: inf past the largest float
        t_ms = signal.timestamps * 1000.0
    columns = [(_fixed3, t_ms), (_general6, signal.velocities)]
    return _csv_bytes(VELOCITY_HEADER, columns, signal.labels, row)


def write_velocity_csv(path: str, signal: SampledSignal) -> None:
    atomic_write_bytes(path, _velocity_csv_bytes(signal))


# --- CSV number formatting ---
#
# A CSV is built as one byte matrix, a column per byte of a line and a row
# per line; every field has its own block of columns, and the bytes a
# shorter value leaves unused hold _PAD, which one mask drops at the end.
# The matrix is filled transposed, one contiguous array per column. Each
# number becomes a correctly rounded fixed-point integer spelled out through
# a digit table. A row whose rounding the float product cannot settle
# (within a few ulps of a tie, or too large), or whose value the fixed
# notation does not cover, is formatted by the f-string instead, so the
# bytes are always the f-string's.

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
_F10 = np.array([float(10**k) for k in range(10)])  # exact doubles
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


def _csv_bytes(header: str, columns: list, labels: np.ndarray, row) -> bytes:
    """The CSV of the numeric ``columns`` (pairs of :func:`_fixed3` or
    :func:`_general6` and the values) and the labels, one line per row;
    ``row(i)`` is the f-string line of row ``i``, used for the rows a field
    marks. Built in blocks of rows, so that the temporaries stay small."""
    parts = [header.encode("ascii") + b"\n"]
    for lo in range(0, len(labels), _CSV_BLOCK_ROWS):
        hi = lo + _CSV_BLOCK_ROWS
        fields = [fmt(values[lo:hi]) for fmt, values in columns]
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
                lines[i] = row(lo + i).encode("ascii")
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


def _columns_fast(
    text: str, header: str, n_fields: int
) -> tuple[np.ndarray, list[np.ndarray], np.ndarray] | None:
    """What :func:`_columns_by_rows` returns for a well-formed file, parsed
    a column at a time with the same ``float``; None for anything the row
    loop would reject, so that it reads the text again and positions the
    error."""
    lines = text.splitlines()
    if not lines or lines[0].strip() != header:
        return None
    data = [line for line in lines[1:] if line.strip()]
    if not data or any(line.count(",") != n_fields - 1 for line in data):
        return None
    tokens = ",".join(data).split(",")
    try:
        cols = [
            np.array(list(map(float, tokens[k::n_fields])))
            for k in range(n_fields - 1)
        ]
        labels = np.array(
            [NAME_LABELS[tok.strip()] for tok in tokens[n_fields - 1 :: n_fields]]
        )
    except (ValueError, KeyError):
        return None
    if not all(np.isfinite(c).all() for c in cols):
        return None
    ts = cols[0] / 1000.0
    if (np.diff(ts) <= 0).any():
        return None
    return ts, cols[1:], labels


def _read_columns(
    text: str, header: str, what: tuple[str, ...]
) -> tuple[np.ndarray, list[np.ndarray], np.ndarray]:
    return _columns_fast(text, header, len(what) + 1) or _columns_by_rows(
        text, header, what
    )


def read_velocity_csv_text(text: str) -> SampledSignal:
    ts, (vs,), ls = _read_columns(text, VELOCITY_HEADER, ("timestamp", "velocity"))
    return SampledSignal(ts, vs, ls)


def read_velocity_csv(path: str) -> SampledSignal:
    with open(path, "r", newline="") as fh:
        return read_velocity_csv_text(fh.read())


def gaze_csv_text(trace: GazeTrace) -> str:
    return _gaze_csv_bytes(trace).decode("ascii")


def _gaze_csv_bytes(trace: GazeTrace) -> bytes:
    def row(i: int) -> str:
        t, x, y = float(trace.timestamps[i]), float(trace.x[i]), float(trace.y[i])
        return f"{t * 1000.0:.3f},{x:.3f},{y:.3f},{_LABEL_NAME[trace.labels[i]]}"

    with np.errstate(over="ignore"):  # as the f-string: inf past the largest float
        t_ms = trace.timestamps * 1000.0
    columns = [(_fixed3, t_ms), (_fixed3, trace.x), (_fixed3, trace.y)]
    return _csv_bytes(GAZE_HEADER, columns, trace.labels, row)


def write_gaze_csv(path: str, trace: GazeTrace) -> None:
    atomic_write_bytes(path, _gaze_csv_bytes(trace))


def read_gaze_csv_text(
    text: str,
    width: int = 0,
    height: int = 0,
    pixels_per_degree: float = 30.0,
) -> GazeTrace:
    ts, (xs, ys), ls = _read_columns(
        text, GAZE_HEADER, ("timestamp", "x coordinate", "y coordinate")
    )
    if width == 0:
        width = int(np.ceil(xs.max())) + 1
    if height == 0:
        height = int(np.ceil(ys.max())) + 1
    return GazeTrace(ts, xs, ys, ls, width, height, pixels_per_degree)


def read_gaze_csv(path: str, **kwargs) -> GazeTrace:
    with open(path, "r", newline="") as fh:
        return read_gaze_csv_text(fh.read(), **kwargs)


# --- Portable graymap (P2 ASCII / P5 binary) ---

MAX_PGM_DIM = 1 << 16


class _PgmScanner:
    """Tokenizer for PNM headers: whitespace separated, '#' comments."""

    def __init__(self, data: bytes):
        self.data = data
        self.pos = 0

    def skip_ws(self) -> None:
        while self.pos < len(self.data):
            c = self.data[self.pos : self.pos + 1]
            if c in b" \t\r\n":
                self.pos += 1
            elif c == b"#":
                while self.pos < len(self.data) and self.data[self.pos : self.pos + 1] not in b"\r\n":
                    self.pos += 1
            else:
                return

    def token(self, what: str) -> bytes:
        self.skip_ws()
        start = self.pos
        while self.pos < len(self.data) and self.data[self.pos : self.pos + 1] not in b" \t\r\n#":
            self.pos += 1
        if self.pos == start:
            raise ParseError(f"missing {what}", f"byte {start}")
        return self.data[start : self.pos]

    def integer(self, what: str, lo: int, hi: int) -> int:
        self.skip_ws()
        start = self.pos
        tok = self.token(what)
        try:
            v = int(tok)
        except ValueError:
            raise ParseError(f"invalid {what} {tok!r}", f"byte {start}") from None
        if not lo <= v <= hi:
            raise ParseError(f"{what} {v} out of range [{lo}, {hi}]", f"byte {start}")
        return v


def _p2_plain_pixels(body: bytes, n: int, maxval: int) -> np.ndarray | None:
    """P2 pixels parsed by numpy when ``body`` is exactly n in-range decimal
    numbers separated by whitespace; None for anything else (comments,
    signs, other bytes, a wrong count), which the scanner then reads and
    positions the error of."""
    if body.translate(None, b"0123456789 \t\r\n"):
        return None
    values = np.fromstring(body, dtype=float, sep=" ")
    # Whitespace alone parses as [-1.0], hence the lower bound.
    if len(values) != n or values.min() < 0 or values.max() > maxval:
        return None
    return values


def read_pgm_bytes(data: bytes) -> np.ndarray:
    """Decode a P2/P5 graymap into a float grid normalized by maxval."""
    sc = _PgmScanner(data)
    magic = sc.token("magic number")
    if magic not in (b"P2", b"P5"):
        raise ParseError(f"bad magic {magic!r} (expected P2 or P5)", "byte 0")
    width = sc.integer("width", 1, MAX_PGM_DIM)
    height = sc.integer("height", 1, MAX_PGM_DIM)
    maxval = sc.integer("maxval", 1, 65535)
    n = width * height
    if magic == b"P2":
        values = _p2_plain_pixels(data[sc.pos :], n, maxval)
        if values is None:
            values = np.empty(n, dtype=float)
            for i in range(n):
                values[i] = sc.integer("pixel value", 0, maxval)
            sc.skip_ws()
            if sc.pos < len(sc.data):
                raise ParseError("trailing data after pixels", f"byte {sc.pos}")
    else:
        # Exactly one whitespace byte separates the header from the payload.
        if sc.pos >= len(data) or data[sc.pos : sc.pos + 1] not in b" \t\r\n":
            raise ParseError("missing separator before binary payload", f"byte {sc.pos}")
        sc.pos += 1
        bpp = 1 if maxval < 256 else 2
        need = n * bpp
        payload = data[sc.pos : sc.pos + need]
        if len(payload) < need:
            raise ParseError(
                f"truncated payload: need {need} bytes, have {len(payload)}",
                f"byte {sc.pos + len(payload)}",
            )
        if len(data) > sc.pos + need:
            raise ParseError("trailing data after payload", f"byte {sc.pos + need}")
        dtype = ">u2" if bpp == 2 else np.uint8
        values = np.frombuffer(payload, dtype=dtype).astype(float)
        if values.max(initial=0) > maxval:
            bad = int(np.argmax(values > maxval))
            raise ParseError(
                f"pixel value {int(values[bad])} exceeds maxval {maxval}",
                f"byte {sc.pos + bad * bpp}",
            )
    values /= float(maxval)  # a new array on every path, so divide in place
    return values.reshape(height, width)


def read_pgm(path: str) -> np.ndarray:
    with open(path, "rb") as fh:
        return read_pgm_bytes(fh.read())


def pgm_bytes(grid: np.ndarray) -> bytes:
    """Encode a [0,1] grid as binary P5 with maxval 255 (round half up)."""
    grid = np.asarray(grid, dtype=float)
    if grid.ndim != 2:
        raise ParseError("grid must be 2D")
    h, w = grid.shape
    q = np.floor(np.clip(grid, 0.0, 1.0) * 255.0 + 0.5).astype(np.uint8)
    return b"P5\n%d %d\n255\n" % (w, h) + q.tobytes()


def write_pgm(path: str, grid: np.ndarray) -> None:
    atomic_write_bytes(path, pgm_bytes(grid))
