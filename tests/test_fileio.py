"""CSV and PGM round-trips, a malformed-input corpus with positions,
mutated PGM files, and the memory the decoders may take."""
from __future__ import annotations

import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gazeforge import fileio
from gazeforge.errors import ParseError
from gazeforge.fileio import (
    gaze_csv_bytes,
    pgm_bytes,
    read_gaze_csv,
    read_gaze_csv_bytes,
    read_pgm,
    read_pgm_bytes,
    read_velocity_csv,
    read_velocity_csv_bytes,
    velocity_csv_bytes,
    write_gaze_csv,
    write_pgm,
    write_velocity_csv,
)
from gazeforge.mapping import GazeTrace
from gazeforge.params import MovementLabel
from gazeforge.resampler import SampledSignal

from conftest import p2_header

F = MovementLabel.FIXATION
S = MovementLabel.SACCADE


def make_signal(n=5):
    return SampledSignal(
        np.arange(1, n + 1) / 100.0,
        np.linspace(0.0, 400.0, n),
        np.array(([F] * (n // 2) + [S] * n)[:n], dtype=np.uint8),
    )


def make_trace(n=5):
    return GazeTrace(
        np.arange(1, n + 1) / 100.0,
        np.linspace(10.0, 200.0, n),
        np.linspace(20.0, 100.0, n),
        np.full(n, F, dtype=np.uint8),
        640, 480, 30.0,
    )


# --- round trips ---

def test_velocity_csv_round_trip():
    sig = make_signal(20)
    back = read_velocity_csv_bytes(velocity_csv_bytes(sig))
    assert np.allclose(back.timestamps, sig.timestamps, atol=1e-6)
    assert np.allclose(back.velocities, sig.velocities, rtol=1e-5)
    assert np.array_equal(back.labels, sig.labels)


def test_velocity_csv_file_round_trip(tmp_path):
    sig = make_signal(7)
    path = str(tmp_path / "v.csv")
    write_velocity_csv(path, sig)
    back = read_velocity_csv(path)
    assert len(back) == 7
    assert np.array_equal(back.labels, sig.labels)


def test_velocity_csv_text_stable():
    sig = make_signal(3)
    assert velocity_csv_bytes(sig) == velocity_csv_bytes(sig)
    assert velocity_csv_bytes(sig).startswith(b"t_ms,velocity_deg_s,label\n")


def test_gaze_csv_round_trip():
    tr = make_trace(10)
    back = read_gaze_csv_bytes(gaze_csv_bytes(tr))
    assert np.allclose(back.x, tr.x, atol=1e-3)
    assert np.allclose(back.y, tr.y, atol=1e-3)
    assert np.array_equal(back.labels, tr.labels)
    # The size is derived from the samples: ceil(max) + 1 in each direction.
    assert back.width == 201 and back.height == 101


def test_gaze_header_format():
    assert gaze_csv_bytes(make_trace(1)).startswith(b"t_ms,x_px,y_px,label\n")


@pytest.mark.parametrize("maxval", [255])
def test_pgm_binary_round_trip(tmp_path, maxval):
    rng = np.random.default_rng(0)
    grid = rng.random((17, 23))
    path = str(tmp_path / "m.pgm")
    write_pgm(path, grid)
    back = read_pgm(path)
    assert back.shape == (17, 23)
    assert np.all(np.abs(back - grid) <= 0.5 / 255 + 1e-12)


def test_pgm_ascii_parse():
    data = b"P2\n# comment\n3 2\n255\n0 128 255\n10 20 30\n"
    grid = read_pgm_bytes(data)
    assert grid.shape == (2, 3)
    assert grid[0, 1] == pytest.approx(128 / 255)
    assert grid[0, 2] == 1.0


def test_pgm_16bit_big_endian():
    data = b"P5\n2 1\n65535\n" + (1000).to_bytes(2, "big") + (65535).to_bytes(2, "big")
    grid = read_pgm_bytes(data)
    assert grid[0, 0] == pytest.approx(1000 / 65535)
    assert grid[0, 1] == 1.0


def test_pgm_writer_quantization_round_half_up():
    grid = np.array([[0.0, 0.5 / 255, 1.0]])
    payload = pgm_bytes(grid).split(b"255\n", 1)[1]
    assert list(payload) == [0, 1, 255]


# --- malformed corpus ---

BAD_VELOCITY = [
    ("", "row 1"),
    ("wrong,header,here\n1,2,FIX\n", "row 1"),
    ("t_ms,velocity_deg_s,label\n", "row 2"),
    ("t_ms,velocity_deg_s,label\n1.0,2.0\n", "row 2"),
    ("t_ms,velocity_deg_s,label\n1.0,2.0,FIX,extra\n", "row 2"),
    ("t_ms,velocity_deg_s,label\nabc,2.0,FIX\n", "row 2"),
    ("t_ms,velocity_deg_s,label\n1.0,xyz,FIX\n", "row 2"),
    ("t_ms,velocity_deg_s,label\n1.0,nan,FIX\n", "row 2"),
    ("t_ms,velocity_deg_s,label\n1.0,inf,FIX\n", "row 2"),
    ("t_ms,velocity_deg_s,label\n1.0,2.0,BLINK\n", "row 2"),
    ("t_ms,velocity_deg_s,label\n1.0,2.0,FIX\n1.0,3.0,FIX\n", "row 3"),
    ("t_ms,velocity_deg_s,label\n2.0,2.0,FIX\n1.0,3.0,FIX\n", "row 3"),
    ("t_ms,velocity_deg_s,label\n1.0,2.0,FIX\n2.0,3.0,SACC\nbad,4.0,SP\n", "row 4"),
    # blank lines are skipped but still counted in row positions
    ("t_ms,velocity_deg_s,label\n1.0,2.0,FIX\n\n0.5,3.0,FIX\n", "row 4"),
    # float() takes these; the file format does not
    ("t_ms,velocity_deg_s,label\n1.0,1_0.5,FIX\n", "invalid velocity '1_0.5' (at row 2)"),
    ("t_ms,velocity_deg_s,label\n\u0661\u0662,1,FIX\n", "invalid timestamp '\u0661\u0662' (at row 2)"),
]


@pytest.mark.parametrize("text,where", BAD_VELOCITY)
def test_malformed_velocity_csv(text, where):
    with pytest.raises(ParseError) as e:
        read_velocity_csv_bytes(text.encode("utf-8", "surrogatepass"))
    assert where in str(e.value)


BAD_GAZE = [
    ("x,y\n", "row 1"),
    ("t_ms,x_px,y_px,label\n1.0,2.0,3.0\n", "row 2"),
    ("t_ms,x_px,y_px,label\n1.0,oops,3.0,FIX\n", "row 2"),
    ("t_ms,x_px,y_px,label\n1.0,2.0,oops,FIX\n", "row 2"),
    ("t_ms,x_px,y_px,label\n1.0,2.0,3.0,NOPE\n", "row 2"),
    ("t_ms,x_px,y_px,label\n", "row 2"),
    # time going back: the full positioned message
    ("t_ms,x_px,y_px,label\n10.0,1.0,1.0,FIX\n5.0,2.0,2.0,FIX\n",
     "timestamps not strictly increasing (at row 3)"),
    ("t_ms,x_px,y_px,label\n1.0,1.0,1.0,FIX\n1.0,2.0,2.0,FIX\n", "row 3"),
    ("t_ms,x_px,y_px,label\n1.0,1.0,1.0,FIX\n\n\n0.5,2.0,2.0,FIX\n", "row 5"),
    ("t_ms,x_px,y_px,label\n1.0,1_0.5,3.0,FIX\n", "invalid x coordinate '1_0.5' (at row 2)"),
    ("t_ms,x_px,y_px,label\n1.0,2.0,\u0663,FIX\n", "invalid y coordinate '\u0663' (at row 2)"),
]


@pytest.mark.parametrize("text,where", BAD_GAZE)
def test_malformed_gaze_csv(text, where):
    with pytest.raises(ParseError) as e:
        read_gaze_csv_bytes(text.encode("utf-8", "surrogatepass"))
    assert where in str(e.value)


BAD_PGM = [
    (b"", "magic"),
    (b"P3\n2 2\n255\n", "magic"),
    (b"P5\n", "width"),
    (b"P5\n0 2\n255\n", "out of range"),
    (b"P5\n2 -1\n255\n", "out of range"),
    (b"P5\n2 2\n0\n", "out of range"),
    (b"P5\n2 2\n70000\n", "out of range"),
    (b"P5\nab 2\n255\n", "invalid width"),
    (b"P5\n2 2\n255\n" + b"\x00" * 3, "truncated"),
    (b"P5\n2 2\n255\n" + b"\x00" * 5, "trailing"),
    (b"P5\n2 2\n100\n" + bytes([0, 50, 100, 200]), "exceeds maxval"),
    (b"P2\n2 1\n255\n0\n", "missing pixel value"),
    (b"P2\n2 1\n255\n0 300\n", "out of range"),
    (b"P2\n2 1\n255\n0 1 2\n", "trailing"),
    (b"P2\n2 1\n255\n0 x\n", "invalid pixel value"),
    (b"P2\n2 1\n255\n0 1_0\n", "invalid pixel value b'1_0' (at byte 13)"),
    (b"P2\n2 1\n2_55\n0 1\n", "invalid maxval b'2_55' (at byte 7)"),
    (b"P5\n2 1\n2_55\n\x00\x01", "invalid maxval b'2_55' (at byte 7)"),
    # int() strips a vertical tab or a form feed; a PGM number has neither.
    (b"P2 1 1 255 2\x0b", "invalid pixel value b'2\\x0b' (at byte 11)"),
    (b"P2 1 1 255 \x0c2", "invalid pixel value b'\\x0c2' (at byte 11)"),
    (b"P5 1 1 255\x0b\n\x07", "invalid maxval b'255\\x0b' (at byte 7)"),
]


@pytest.mark.parametrize("data,needle", BAD_PGM)
def test_malformed_pgm(data, needle):
    with pytest.raises(ParseError) as e:
        read_pgm_bytes(data)
    assert needle in str(e.value)


def test_pgm_error_reports_byte_offset():
    with pytest.raises(ParseError) as e:
        read_pgm_bytes(b"P5\nab 2\n255\n")
    assert "byte 3" in str(e.value)


# --- mutated PGM files ---

_PGM_FILES = [
    b"P2\n3 2\n255\n0 128 255\n10 20 30\n",
    b"P2 # size next\n2 2 65535\n1 65535 # a pixel\n007 9",
    b"P5\n3 2\n255\n" + bytes([0, 128, 255, 10, 20, 30]),
    b"P5 2 1 65535\n\x01\x02\xff\xfe",
]
# Digits, the separators, comments and what int() takes or rejects around them.
_MUTATION_BYTES = list(b"0123456789 \t\r\n#_+-\x0b\xffP")


@st.composite
def _mutated_pgm(draw) -> bytes:
    """A small valid PGM file with 1-3 bytes replaced, inserted or deleted."""
    data = bytearray(draw(st.sampled_from(_PGM_FILES)))
    for _ in range(draw(st.integers(1, 3))):
        op = draw(st.sampled_from(["replace", "insert", "delete"]))
        i = draw(st.integers(0, len(data) - (op != "insert")))
        if op == "delete":
            del data[i]
        else:
            data[i : i + (op == "replace")] = bytes([draw(st.sampled_from(_MUTATION_BYTES))])
    return bytes(data)


@pytest.mark.filterwarnings("error::DeprecationWarning")
@settings(max_examples=400, deadline=None)
@given(_mutated_pgm())
def test_mutated_pgm_decodes_or_raises_a_positioned_error(data):
    try:
        grid = read_pgm_bytes(data)
        assert grid.ndim == 2 and grid.dtype == float
    except ParseError as e:
        at = re.search(r" \(at byte (\d+)\)$", str(e))
        assert at and 0 <= int(at[1]) <= len(data)
    # The two P2 body decoders agree wherever the fast decoder decodes.
    header = p2_header(data)
    if header is not None:
        fast = fileio._p2_plain_pixels(data, *header)
        if fast is not None:
            assert fast.tobytes() == fileio._p2_token_pixels(data, *header).tobytes()


def test_p2_declaring_more_pixels_than_bytes_allocates_none_of_them():
    # 65536 x 65536 pixels would take 32 GiB as doubles; the 6 bytes of body
    # hold 3 of them.
    data = b"P2\n65536 65536\n255\n0 1 2\n"
    tracemalloc.start()
    try:
        with pytest.raises(ParseError) as e:
            read_pgm_bytes(data)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert str(e.value) == "missing pixel value (at byte 25)"
    assert peak < 1e6


def test_atomic_write_leaves_no_temp_files(tmp_path):
    path = tmp_path / "out.csv"
    write_velocity_csv(str(path), make_signal())
    leftovers = [p for p in tmp_path.iterdir() if p.name != "out.csv"]
    assert leftovers == []


@pytest.mark.parametrize("read", [read_velocity_csv, read_gaze_csv])
@pytest.mark.parametrize("body, row, offset", [
    (b"\r\n\n1,\xc3\xa9\xff", 3, 7),  # CRLF and a blank line; a valid é first
    (b"\n1,2\n\xff", 3, 5),  # the first byte of a line
    (b"\xff", 1, 0),
])
def test_non_utf8_csv_reports_row_and_byte(tmp_path, read, body, row, offset):
    path = tmp_path / "bad.csv"
    header = b"t_ms,velocity_deg_s,label" if read is read_velocity_csv else b"t_ms,x_px,y_px,label"
    path.write_bytes(header + body)
    with pytest.raises(ParseError) as e:
        read(str(path))
    byte = len(header) + offset
    assert str(e.value).endswith(f"invalid UTF-8 byte 0xff (at row {row}, byte {byte})")


# --- memory ---

def _traced_peak(fn, *args) -> int:
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.filterwarnings("error::DeprecationWarning")
@pytest.mark.parametrize("digits, comment, sep", [
    ("{}", False, "\n"),
    ("{:04d}", False, "\n"),
    ("{:08d}", False, "\n"),
    ("{}", True, "\n"),
    ("{:04d}", True, "\n"),
    ("{:08d}", True, "\n"),
    ("{}", False, " "),
])
def test_p2_decode_peak_memory_is_bounded(digits, comment, sep):
    # The body is decoded in blocks into the one array that is returned,
    # also when its numbers are zero-padded, it holds a comment or it is a
    # single line.
    pixels = np.random.default_rng(0).integers(0, 256, (768, 1024))
    lines = [" ".join(map(digits.format, row)) for row in pixels.tolist()]
    if comment:
        lines.insert(400, "# a comment inside the body")
    data = b"P2\n1024 768\n255\n" + sep.join(lines).encode() + b"\n"
    peak = _traced_peak(read_pgm_bytes, data)
    assert peak <= 1.5 * pixels.size * 8


def test_gaze_reader_peak_memory_is_bounded(tmp_path):
    # 54,000 rows, about 1.6 MB of text; the row-at-a-time reader took 22.5 MB.
    n = 54_000
    rng = np.random.default_rng(1)
    trace = GazeTrace(
        np.cumsum(rng.uniform(0.003, 0.004, n)), rng.uniform(0, 1024, n),
        rng.uniform(0, 768, n), rng.integers(0, 4, n).astype(np.uint8), 1024, 768, 30.0,
    )
    path = str(tmp_path / "gaze.csv")
    write_gaze_csv(path, trace)
    assert _traced_peak(read_gaze_csv, path) <= 22.5e6
