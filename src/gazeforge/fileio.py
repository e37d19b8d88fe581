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
    lines = [VELOCITY_HEADER]
    for t, v, lab in zip(
        signal.timestamps.tolist(), signal.velocities.tolist(), signal.labels.tolist()
    ):
        lines.append(f"{t * 1000.0:.3f},{v:.6g},{_LABEL_NAME[lab]}")
    return "\n".join(lines) + "\n"


def write_velocity_csv(path: str, signal: SampledSignal) -> None:
    atomic_write_text(path, velocity_csv_text(signal))


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
    lines = [GAZE_HEADER]
    for t, x, y, lab in zip(
        trace.timestamps.tolist(), trace.x.tolist(), trace.y.tolist(), trace.labels.tolist()
    ):
        lines.append(f"{t * 1000.0:.3f},{x:.3f},{y:.3f},{_LABEL_NAME[lab]}")
    return "\n".join(lines) + "\n"


def write_gaze_csv(path: str, trace: GazeTrace) -> None:
    atomic_write_text(path, gaze_csv_text(trace))


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
