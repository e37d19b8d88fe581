"""Shared test helpers."""
from __future__ import annotations

import numpy as np
import pytest

from gazeforge import fileio
from gazeforge.core import RandomSource
from gazeforge.errors import ParseError
from gazeforge.params import BoundedDistribution


class ScriptedRng:
    """RandomSource stand-in replaying scripted draws, for hand oracles."""

    def __init__(self, uniforms=(), normals=()):
        self._u = list(uniforms)
        self._n = list(normals)

    def uniform(self):
        return self._u.pop(0)

    def normal(self):
        return self._n.pop(0)

    def uniforms(self, n):
        return np.array([self.uniform() for _ in range(n)])

    def normals(self, n):
        return np.array([self.normal() for _ in range(n)])


@pytest.fixture
def rng():
    return RandomSource(12345)


def fixed(v: float) -> BoundedDistribution:
    return BoundedDistribution.fixed(v)


def blob_frame(seed: int, h: int = 480, w: int = 640, blobs: int = 10) -> np.ndarray:
    """Gaussian blobs over a faint noise floor, quantized to 8 bits and scaled
    to [0, 1] as a decoded P5 frame is."""
    rng = np.random.default_rng(seed)
    ys, xs = np.arange(h, dtype=float)[:, None], np.arange(w, dtype=float)
    img = 0.08 * rng.random((h, w))
    for _ in range(blobs):
        bx, by = rng.uniform(0.05, 0.95) * w, rng.uniform(0.05, 0.95) * h
        sigma = rng.uniform(0.01, 0.05) * w
        g = np.exp(-0.5 * ((xs - bx) / sigma) ** 2) * np.exp(-0.5 * ((ys - by) / sigma) ** 2)
        img += rng.uniform(0.3, 1.0) * g
    return np.floor(img / img.max() * 255.0 + 0.5) / 255.0


def p2_header(data: bytes):
    """(pos, n, maxval) after the header of a P2 file, read by the PNM token
    reader; None for any other file or a header it rejects."""
    try:
        magic, _, pos = fileio._pnm_token(data, 0, "magic number")
        width, pos = fileio._pnm_integer(data, pos, "width", 1, fileio.MAX_PGM_DIM)
        height, pos = fileio._pnm_integer(data, pos, "height", 1, fileio.MAX_PGM_DIM)
        maxval, pos = fileio._pnm_integer(data, pos, "maxval", 1, 65535)
    except ParseError:
        return None
    return (pos, width * height, maxval) if magic == b"P2" else None
