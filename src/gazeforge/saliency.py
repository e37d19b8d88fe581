"""Spectral-residual saliency maps and local-maxima fixation targets."""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .core import RandomSource
from .errors import ParameterError

WORKING_WIDTH = 64  # downscale width used by the spectral-residual method


@dataclass
class SaliencyMap:
    """Normalized scalar conspicuity field over a stimulus image."""

    values: np.ndarray  # row-major, in [0, 1]

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        if self.values.ndim != 2:
            raise ParameterError("saliency map must be a 2D grid")

    @property
    def height(self) -> int:
        return self.values.shape[0]

    @property
    def width(self) -> int:
        return self.values.shape[1]


@dataclass
class TargetSet:
    """Candidate fixation targets (x, y, weight) inside a stimulus."""

    points: list[tuple[float, float, float]] = field(default_factory=list)
    width: int = 0
    height: int = 0

    def __len__(self) -> int:
        return len(self.points)


def _resize(img: np.ndarray, out_h: int, out_w: int) -> np.ndarray:
    """Bilinear resize to an exact output shape."""
    from scipy import ndimage  # deferred: costly to import

    h, w = img.shape
    if (h, w) == (out_h, out_w):
        return img.copy()
    ys = np.linspace(0, h - 1, out_h)
    xs = np.linspace(0, w - 1, out_w)
    grid = np.meshgrid(ys, xs, indexing="ij")
    return ndimage.map_coordinates(img, grid, order=1, mode="nearest")


def spectral_residual(image: np.ndarray) -> SaliencyMap:
    """Spectral-residual saliency of a grayscale image.

    Downscale to 64 px width, take the log-amplitude spectrum, subtract its
    3x3 box smoothing, invert with the original phase, square, smooth, and
    upscale back. Constant images have no residual structure and yield the
    all-zero map.
    """
    img = np.asarray(image, dtype=float)
    if img.ndim != 2 or img.size == 0:
        raise ParameterError("image must be a non-empty 2D grayscale grid")
    h, w = img.shape
    if h < 8 or w < 8:
        raise ParameterError(f"image must be at least 8x8 px, got {w}x{h}")
    if float(img.max() - img.min()) < 1e-12:
        return SaliencyMap(np.zeros((h, w)))
    from scipy import ndimage  # deferred: costly to import

    if w > WORKING_WIDTH:
        sh = max(int(round(h * WORKING_WIDTH / w)), 8)
        small = _resize(img, sh, WORKING_WIDTH)
    else:
        small = img

    spec = np.fft.fft2(small)
    amp = np.abs(spec)
    phase = np.angle(spec)
    # Relative amplitude floor keeps the residual invariant under intensity
    # scaling of the input.
    eps = 1e-12 * max(float(amp.max()), 1e-300)
    log_amp = np.log(amp + eps)
    residual = log_amp - ndimage.uniform_filter(log_amp, size=3, mode="wrap")
    sal = np.abs(np.fft.ifft2(np.exp(residual + 1j * phase))) ** 2
    sal = ndimage.gaussian_filter(sal, sigma=1.0, mode="wrap")
    sal = _resize(sal, h, w)
    sal = np.clip(sal, 0.0, None)
    m = float(sal.max())
    if m > 1e-12:
        sal = sal / m
    else:
        sal = np.zeros_like(sal)
    return SaliencyMap(sal)


def local_maxima(
    smap: SaliencyMap, min_distance: float = 0.0, threshold: float = 0.0
) -> TargetSet:
    """Pixels strictly above their 8-neighborhood with value >= threshold,
    thinned greedily so kept points are at least min_distance apart."""
    if min_distance < 0:
        raise ParameterError("min_distance must be >= 0")
    v = smap.values
    h, w = v.shape
    padded = np.pad(v, 1, mode="constant", constant_values=-np.inf)
    center = padded[1:-1, 1:-1]
    is_max = np.ones((h, w), dtype=bool)
    for dy in (-1, 0, 1):
        for dx in (-1, 0, 1):
            if dy == 0 and dx == 0:
                continue
            is_max &= center > padded[1 + dy : 1 + dy + h, 1 + dx : 1 + dx + w]
    is_max &= center >= threshold
    ys, xs = np.nonzero(is_max)
    # Descending value, ties by row-major index.
    order = sorted(range(len(ys)), key=lambda i: (-v[ys[i], xs[i]], ys[i] * w + xs[i]))
    kept: list[tuple[float, float, float]] = []
    for i in order:
        y, x = float(ys[i]), float(xs[i])
        if all(
            math.hypot(x - kx, y - ky) >= min_distance for kx, ky, _ in kept
        ):
            kept.append((x, y, float(v[int(y), int(x)])))
    return TargetSet(kept, width=w, height=h)


def jitter_targets(targets: TargetSet, radius: float, rng: RandomSource) -> TargetSet:
    """Each target emits its original point plus one uniform point within the
    disc of the given radius, clamped to the image bounds."""
    if radius < 0:
        raise ParameterError("jitter radius must be >= 0")
    w, h = targets.width, targets.height
    out: list[tuple[float, float, float]] = []
    for x, y, wt in targets.points:
        out.append((x, y, wt))
        ang = 2.0 * math.pi * rng.uniform()
        r = radius * math.sqrt(rng.uniform())
        jx = min(max(x + r * math.cos(ang), 0.0), max(w - 1, 0))
        jy = min(max(y + r * math.sin(ang), 0.0), max(h - 1, 0))
        out.append((jx, jy, wt))
    return TargetSet(out, width=w, height=h)
