"""Spectral-residual saliency maps and local-maxima fixation targets."""
from __future__ import annotations

import math

import numpy as np

from .core import RandomSource, TargetSet
from .errors import ParameterError
from .params import record

WORKING_WIDTH = 64  # downscale width used by the spectral-residual method
_RESIZE_BLOCK_ROWS = 32  # output rows per block of the bilinear resize
_CELLS_PER_BLOCK = 128  # upscale cells computed at once by image_targets
# Above this share of the cells, computing them costs image_targets more
# than the full map does (about 6 ms either way at 1/5 on a 640x480 frame).
_MAX_CELL_SHARE = 1 / 8
_NEIGHBOURS = np.array([(dy, dx) for dy in (-1, 0, 1) for dx in (-1, 0, 1) if dy or dx])


@record
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


def _bilinear_axis(n: int, m: int):
    """Source neighbours and weights for m points spread over [0, n-1]."""
    c = np.linspace(0, n - 1, m)
    lo = np.floor(c)
    w0 = 1.0 - (c - lo)
    i0 = lo.astype(np.intp)
    return i0, np.minimum(i0 + 1, n - 1), w0, 1.0 - w0


def _resize(img: np.ndarray, out_h: int, out_w: int) -> np.ndarray:
    """Bilinear resize to an exact output shape; corners sample corners.

    Bit-identical to SciPy's ``map_coordinates(order=1, mode="nearest")``
    on the same ``linspace`` grid, which fixes the arithmetic order: the
    lower weight is ``w0 = 1 - (c - floor(c))`` and the upper ``1 - w0``
    (not the fractional part); the upper neighbour is clamped to the last
    index; each corner term is ``(v * wy) * wx``; the terms are summed v00,
    v01, v10, v11 in that order onto +0.0 (so an all -0.0 sum comes out
    +0.0). Applying the row weight to whole source rows before the column
    gather gives the same products.

    A narrowing resize is one ``_corner_sum`` over the output grid. A
    widening one relies on the ``linspace`` grid never decreasing, so
    neither do the column neighbours ``x0`` and ``x1``: gathering them is
    repeating each source column as often as it occurs. Its output is
    computed ``_RESIZE_BLOCK_ROWS`` rows at a time into one preallocated
    array; every output element still gets the same four products summed
    in the same order, so blocking changes no bit.
    """
    h, w = img.shape
    if (h, w) == (out_h, out_w):
        return img.copy()
    rows, cols = _bilinear_axis(h, out_h), _bilinear_axis(w, out_w)
    if out_w < w:
        return _corner_sum(img, [a[:, None] for a in rows], cols)
    (y0, y1, wy0, wy1), (x0, x1, wx0, wx1) = rows, cols
    n0 = np.bincount(x0, minlength=w)
    n1 = np.bincount(x1, minlength=w)
    out = np.empty((out_h, out_w))
    term = np.empty((min(_RESIZE_BLOCK_ROWS, out_h), out_w))
    for a in range(0, out_h, _RESIZE_BLOCK_ROWS):
        b = min(a + _RESIZE_BLOCK_ROWS, out_h)
        o, t = out[a:b], term[: b - a]
        r0 = img[y0[a:b]] * wy0[a:b, None]
        r1 = img[y1[a:b]] * wy1[a:b, None]
        np.multiply(np.repeat(r0, n0, axis=1), wx0, out=o)
        np.multiply(np.repeat(r0, n1, axis=1), wx1, out=t)
        o += t
        np.multiply(np.repeat(r1, n0, axis=1), wx0, out=t)
        o += t
        np.multiply(np.repeat(r1, n1, axis=1), wx1, out=t)
        o += t
        o += 0.0
    return out


def _corner_sum(s: np.ndarray, rows, cols) -> np.ndarray:
    """The corner terms of ``_resize`` summed in its order; rows = (y0, y1,
    wy0, wy1) are source rows and weights, cols the columns, broadcast."""
    (y0, y1, wy0, wy1), (x0, x1, wx0, wx1) = rows, cols
    return (
        (s[y0, x0] * wy0) * wx0
        + (s[y0, x1] * wy0) * wx1
        + (s[y1, x0] * wy1) * wx0
        + (s[y1, x1] * wy1) * wx1
        + 0.0
    )


def _wrap_lines(x: np.ndarray, axis: int, r: int) -> np.ndarray:
    """x with `axis` moved first and extended by r wrapped lines per side."""
    n = x.shape[axis]
    return np.moveaxis(np.take(x, np.arange(-r, n + r) % n, axis=axis), axis, 0)


def _box3_wrap(x: np.ndarray) -> np.ndarray:
    """3x3 mean with periodic borders, axis 0 then axis 1.

    Bit-identical to SciPy's ``uniform_filter(size=3, mode="wrap")``:
    a running sum that starts as ``((0.0 + x[-1]) + x[0]) + x[1]`` and adds
    ``x[i+1] - x[i-2]`` per step (a sequential ``cumsum``), each sum divided
    by 3 afterwards.
    """
    for axis in (0, 1):
        n = x.shape[axis]
        e = _wrap_lines(x, axis, 1)  # e[i + 1] is line i
        steps = np.empty((n,) + e.shape[1:])
        steps[0] = ((0.0 + e[0]) + e[1]) + e[2]
        np.subtract(e[3:], e[: n - 1], out=steps[1:])
        s = np.cumsum(steps, axis=0)
        s /= 3.0
        x = np.moveaxis(s, 0, axis)
    return x


def _gauss1_wrap(x: np.ndarray) -> np.ndarray:
    """Gaussian smoothing, sigma 1 and radius 4, periodic borders, per axis.

    Bit-identical to SciPy's ``gaussian_filter(sigma=1, mode="wrap")``:
    the kernel is ``phi(k) = exp(-0.5 k^2)`` over k = -4..4 divided by its
    sum, and each output starts at ``x[i] * phi(0)`` and adds
    ``(x[i-j] + x[i+j]) * phi(j)`` for j = 4, 3, 2, 1 in that order.
    """
    k = np.arange(-4, 5)
    phi = np.exp(-0.5 * k**2)
    phi = phi / phi.sum()
    for axis in (0, 1):
        n = x.shape[axis]
        e = _wrap_lines(x, axis, 4)  # e[i + 4] is line i
        out = e[4 : 4 + n] * phi[4]
        for j in (4, 3, 2, 1):
            out += (e[4 - j : 4 - j + n] + e[4 + j : 4 + j + n]) * phi[4 + j]
        x = np.moveaxis(out, 0, axis)
    return x


def _checked(image: np.ndarray) -> np.ndarray:
    img = np.asarray(image, dtype=float)
    if img.ndim != 2 or img.size == 0:
        raise ParameterError("image must be a non-empty 2D grayscale grid")
    h, w = img.shape
    if h < 8 or w < 8:
        raise ParameterError(f"image must be at least 8x8 px, got {w}x{h}")
    return img


def _is_constant(img: np.ndarray) -> bool:
    """max - min < 1e-12. Rounded subtraction is monotone, so a first row
    that spans 1e-12 already settles it without reading the rest."""
    if float(img[0].max() - img[0].min()) >= 1e-12:
        return False
    return float(img.max() - img.min()) < 1e-12


def _small_map(img: np.ndarray) -> np.ndarray:
    """Spectral residual of img at the working width, before the upscale."""
    h, w = img.shape
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
    residual = log_amp - _box3_wrap(log_amp)
    sal = np.abs(np.fft.ifft2(np.exp(residual + 1j * phase))) ** 2
    return _gauss1_wrap(sal)


def _full_map(small: np.ndarray, h: int, w: int) -> SaliencyMap:
    sal = _resize(small, h, w)  # a new array, so the steps below work in place
    np.clip(sal, 0.0, None, out=sal)
    m = float(sal.max())
    if m > 1e-12:
        sal /= m
    else:
        sal.fill(0.0)
    return SaliencyMap(sal)


def spectral_residual(image: np.ndarray) -> SaliencyMap:
    """Spectral-residual saliency of a grayscale image.

    Downscale to 64 px width, take the log-amplitude spectrum, subtract its
    3x3 box smoothing, invert with the original phase, square, smooth, and
    upscale back. Constant images have no residual structure and yield the
    all-zero map.

    The resize and the two periodic filters are numpy code that repeats the
    arithmetic order of the SciPy 1.17 image filters they replace (see each
    helper), so maps keep their bytes and no longer depend on the installed
    SciPy.
    """
    img = _checked(image)
    h, w = img.shape
    if _is_constant(img):
        return SaliencyMap(np.zeros((h, w)))
    return _full_map(_small_map(img), h, w)


class _Cells:
    """The bilinear upscale of a small map to h x w, split into cells.

    Cell (a, b) holds the output pixels whose lower source neighbours are
    row a and column b; it is a block of consecutive rows and columns,
    since the source coordinates never decrease. Each axis keeps the
    neighbours and weights of ``_bilinear_axis`` and where each cell's run
    of output lines starts and ends.
    """

    def __init__(self, small: np.ndarray, h: int, w: int):
        self.small = small
        self.rows = _bilinear_axis(small.shape[0], h)
        self.cols = _bilinear_axis(small.shape[1], w)
        self.row_runs = _runs(self.rows[0], small.shape[0])
        self.col_runs = _runs(self.cols[0], small.shape[1])

    def bounds(self) -> np.ndarray:
        """An upper bound of each cell's values.

        A value sums four corners times weights in [0, 1] that add up to 1
        but for rounding, so with corners >= 0 it is at most the largest
        corner times 1 + 1e-12, far above what 7 roundings add; the 1e-300
        covers the absolute rounding of products that underflow.
        """
        p = np.pad(self.small, ((0, 1), (0, 1)), mode="edge")
        top = np.maximum(p[:-1, :-1], p[:-1, 1:])
        corners = np.maximum(top, np.maximum(p[1:, :-1], p[1:, 1:]))
        return corners * (1.0 + 1e-12) + 1e-300

    def values(self, cy: np.ndarray, cx: np.ndarray) -> np.ndarray:
        """Upscaled values of cells (cy, cx), one block per cell.

        A block holds the longest run of each axis plus one line on each
        side; its pixels outside the cell read -inf, so every block is
        framed by -inf.
        """
        ys, yin = _cell_lines(self.row_runs, cy)
        xs, xin = _cell_lines(self.col_runs, cx)
        # A cell's four corners are the same at all its pixels.
        y0, x0 = cy[:, None, None], cx[:, None, None]
        y1 = np.minimum(y0 + 1, self.small.shape[0] - 1)
        x1 = np.minimum(x0 + 1, self.small.shape[1] - 1)
        wy = [a[ys][:, :, None] for a in self.rows[2:]]
        wx = [a[xs][:, None, :] for a in self.cols[2:]]
        v = _corner_sum(self.small, (y0, y1, *wy), (x0, x1, *wx))
        v[~(yin[:, :, None] & xin[:, None, :])] = -np.inf
        return v

    def at(self, y: np.ndarray, x: np.ndarray) -> np.ndarray:
        """Upscaled values at pixels (y, x)."""
        return _corner_sum(self.small, [a[y] for a in self.rows], [a[x] for a in self.cols])


def _runs(i0: np.ndarray, n: int):
    """Start and end of the run of each source index 0..n-1 in sorted i0,
    and the output lines of a block: the longest run and one on each side."""
    src = np.arange(n)
    start, end = np.searchsorted(i0, src, "left"), np.searchsorted(i0, src, "right")
    return start, end, np.arange(-1, int((end - start).max()) + 1)


def _cell_lines(runs, c: np.ndarray):
    """Output lines of the blocks of cells c, and which belong to the cell."""
    start, end, block = runs
    first = start[c][:, None]
    lines = first + block
    own = (lines >= first) & (lines < end[c][:, None])
    return np.where(own, lines, first), own


def _chunks(cy: np.ndarray, cx: np.ndarray):
    """Cells (cy, cx) in groups of ``_CELLS_PER_BLOCK``; at least one group."""
    for i in range(0, max(len(cy), 1), _CELLS_PER_BLOCK):
        yield cy[i : i + _CELLS_PER_BLOCK], cx[i : i + _CELLS_PER_BLOCK]


def _largest(cells: _Cells, cy: np.ndarray, cx: np.ndarray) -> float:
    return max(float(cells.values(a, b).max()) for a, b in _chunks(cy, cx))


def _block_maxima(
    cells: _Cells, cy: np.ndarray, cx: np.ndarray, m: float, threshold: float
):
    """Pixels of cells (cy, cx) whose value over m is >= threshold and above
    their four edge neighbours in the cell: (rows, columns, values)."""
    v = cells.values(cy, cx)
    v /= m
    center = v[:, 1:-1, 1:-1]
    bh, bw = center.shape[1:]
    is_max = center >= threshold
    for dy, dx in ((-1, 0), (0, -1), (0, 1), (1, 0)):
        is_max &= center > v[:, 1 + dy : 1 + dy + bh, 1 + dx : 1 + dx + bw]
    at, r, c = np.nonzero(is_max)
    return cells.row_runs[0][cy[at]] + r, cells.col_runs[0][cx[at]] + c, center[at, r, c]


def image_targets(
    image: np.ndarray, min_distance: float = 0.0, threshold: float = 0.0
) -> TargetSet:
    """``local_maxima(spectral_residual(image), min_distance, threshold)``,
    computing the upscaled map only in the cells that can reach threshold.

    The small map is finite and >= 0, so ``_Cells.bounds`` bounds every
    cell, and every upscaled value is >= +0, which the full map's clip
    leaves as it is. The cells with the largest bound give a value L <= the
    map maximum m; only cells bounded by >= L can hold m, so computing them
    makes m exact. A pixel of a cell with ``bound / m < threshold`` is
    below threshold (division by m is monotone, rounding too), so only the
    other cells can hold targets. Their pixels are tested against their
    edge neighbours inside the cell first (-inf outside it); the few that
    pass are tested again against all 8 neighbours, computed where they
    lie. Ordering and thinning are those of ``local_maxima``.

    Takes the full map where there is no upscale (w <= 64), for a constant
    image, for a small map with a non-finite value, where the map maximum
    is <= 1e-12, and where more than ``_MAX_CELL_SHARE`` of the cells can
    hold a target: there the full map is the cheaper one.
    """
    img = _checked(image)
    h, w = img.shape
    if w <= WORKING_WIDTH or _is_constant(img):
        return local_maxima(spectral_residual(img), min_distance, threshold)
    small = _small_map(img)
    picked = _salient_cells(small, h, w, threshold)
    if picked is None:
        return local_maxima(_full_map(small, h, w), min_distance, threshold)
    cells, m, salient = picked
    found = [_block_maxima(cells, cy, cx, m, threshold) for cy, cx in _chunks(*salient)]
    ys, xs, vals = (np.concatenate(a) for a in zip(*found))
    # Again, against all 8 neighbours, also those outside the cell.
    ny, nx = ys + _NEIGHBOURS[:, :1], xs + _NEIGHBOURS[:, 1:]
    inside = (ny >= 0) & (ny < h) & (nx >= 0) & (nx < w)
    near = np.full(ny.shape, -np.inf)
    near[inside] = cells.at(ny[inside], nx[inside]) / m
    keep = (vals > near).all(axis=0)
    return _thin(ys[keep], xs[keep], vals[keep], w, h, min_distance)


def _salient_cells(small: np.ndarray, h: int, w: int, threshold: float):
    """The cells of the upscale of small to h x w, its maximum m and the
    cells whose bound over m reaches threshold; None where ``image_targets``
    takes the full map."""
    if not (small.min() >= 0.0 and small.max() < math.inf):  # NaN fails both
        return None
    cells = _Cells(small, h, w)
    bound = cells.bounds()
    top = _largest(cells, *np.nonzero(bound == bound.max()))
    m = _largest(cells, *np.nonzero(bound >= top))
    if not m > 1e-12:
        return None
    salient = np.nonzero(bound / m >= threshold)
    if len(salient[0]) > _MAX_CELL_SHARE * bound.size:
        return None
    return cells, m, salient


def local_maxima(
    smap: SaliencyMap, min_distance: float = 0.0, threshold: float = 0.0
) -> TargetSet:
    """Pixels strictly above their 8-neighborhood with value >= threshold,
    thinned greedily (see ``_thin``) so kept points are at least
    min_distance apart.

    The map is framed by -inf. The threshold and the four edge-neighbour
    comparisons are made densely; the four diagonal ones only for the
    pixels that pass them, by flat index into the framed map. These are the
    float comparisons of a dense 8-neighbour test (a NaN pixel is never a
    maximum and beats no neighbour; NaN beside a pixel keeps it from being
    one), and ``np.flatnonzero`` lists the survivors in row-major order.
    """
    v = smap.values
    h, w = v.shape
    # Row-major over the framed map, pixel (y, x) is at (y + 1) * fw + x + 1.
    # One flat run from the first pixel to the last covers every pixel and
    # the frame columns between rows; a -inf frame value beats no neighbour.
    fw = w + 2
    framed = np.full((h + 2, fw), -np.inf)
    framed[1:-1, 1:-1] = v
    flat = framed.ravel()
    n = max(h * fw - 2, 0)
    center = flat[fw + 1 : fw + 1 + n]
    is_max = center >= threshold
    beats = np.empty(n, dtype=bool)
    for off in (-fw, -1, 1, fw):
        np.greater(center, flat[fw + 1 + off : fw + 1 + off + n], out=beats)
        is_max &= beats
    at = np.flatnonzero(is_max)
    at += fw + 1
    vals = flat[at]
    diag = np.ones(len(at), dtype=bool)
    for off in (-fw - 1, -fw + 1, fw - 1, fw + 1):
        diag &= vals > flat[at + off]
    at, vals = at[diag], vals[diag]
    ys, xs = np.divmod(at, fw)
    return _thin(ys - 1, xs - 1, vals, w, h, min_distance)


def _thin(
    ys: np.ndarray, xs: np.ndarray, vals: np.ndarray, w: int, h: int,
    min_distance: float,
) -> TargetSet:
    """Targets among the candidate pixels (ys, xs) of values vals.

    Candidates are visited by descending value, ties by row-major index; a
    candidate is kept when ``math.hypot`` to every kept point is
    >= min_distance. Kept points are bucketed in a grid of min_distance
    cells and only the 5x5 block of cells around a candidate is checked:
    anything farther is more than min_distance away even after rounding of
    the cell index, so each candidate costs O(1) instead of O(kept).
    """
    if min_distance < 0:
        raise ParameterError("min_distance must be >= 0")
    order = np.lexsort((ys * w + xs, -vals))
    cands = zip(
        xs[order].astype(float).tolist(),
        ys[order].astype(float).tolist(),
        vals[order].tolist(),
    )
    if min_distance <= 1.0:
        # Distinct pixels are at least 1 apart: every candidate is kept.
        return TargetSet(list(cands), width=w, height=h)
    # An infinite or NaN distance keeps only the first candidate, as the
    # comparison fails against any kept point; one cell holds them all.
    cell = min_distance if math.isfinite(min_distance) else math.inf
    grid: dict[tuple[int, int], list[tuple[float, float]]] = {}
    kept: list[tuple[float, float, float]] = []
    for x, y, val in cands:
        cx, cy = math.floor(x / cell), math.floor(y / cell)
        if all(
            math.hypot(x - kx, y - ky) >= min_distance
            for gy in range(cy - 2, cy + 3)
            for gx in range(cx - 2, cx + 3)
            for kx, ky in grid.get((gx, gy), ())
        ):
            kept.append((x, y, val))
            grid.setdefault((cx, cy), []).append((x, y))
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
