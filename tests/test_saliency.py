"""Spectral-residual saliency and local-maxima target extraction."""
from __future__ import annotations

import math

import numpy as np
import pytest

from gazeforge import saliency
from gazeforge.errors import ParameterError
from gazeforge.saliency import (
    SaliencyMap,
    TargetSet,
    jitter_targets,
    local_maxima,
    spectral_residual,
)


def brute_force_maxima(values, threshold=0.0):
    """Exhaustive 8-neighbor scan, the independent oracle."""
    h, w = values.shape
    out = set()
    for y in range(h):
        for x in range(w):
            v = values[y, x]
            if v < threshold:
                continue
            ok = True
            for dy in (-1, 0, 1):
                for dx in (-1, 0, 1):
                    if dy == 0 and dx == 0:
                        continue
                    ny, nx = y + dy, x + dx
                    if 0 <= ny < h and 0 <= nx < w and values[ny, nx] >= v:
                        ok = False
            if ok:
                out.add((x, y))
    return out


def test_constant_image_yields_zero_map():
    m = spectral_residual(np.full((64, 64), 0.5))
    assert m.values.max() <= 1e-6


_ROWS = [
    np.full(9, 0.5),
    np.full(9, np.nan),
    np.full(9, np.inf),
    np.full(9, -np.inf),
    np.r_[0.5, np.nan, np.full(7, 0.5)],
    np.r_[np.inf, np.full(8, 0.5)],
    0.5 + np.arange(9) * 1e-14,  # spans less than 1e-12
    np.r_[np.full(8, 0.5), 0.5 + 1e-12],
    np.r_[np.full(8, -0.0), 0.0],
    np.random.default_rng(0).random(9),
]


@pytest.mark.parametrize("first", range(len(_ROWS)))
def test_is_constant_matches_the_two_pass_definition(first):
    # The first row alone answers when it spans 1e-12; the rows after it
    # must not change that answer, NaN and +-inf included.
    for rest in _ROWS:
        img = np.vstack([_ROWS[first], np.tile(rest, (8, 1))])
        with np.errstate(invalid="ignore"):
            want = float(img.max() - img.min()) < 1e-12
            assert saliency._is_constant(img) == want


def test_impulse_peak_localized_within_3px():
    img = np.zeros((64, 64))
    img[20, 40] = 1.0
    m = spectral_residual(img)
    iy, ix = np.unravel_index(np.argmax(m.values), m.values.shape)
    assert math.hypot(ix - 40, iy - 20) <= 3.0


def test_two_identical_blobs_near_equal_maxima():
    img = np.zeros((64, 64))
    yy, xx = np.mgrid[0:64, 0:64]
    for cx, cy in ((16, 32), (48, 32)):
        img += np.exp(-(((xx - cx) ** 2 + (yy - cy) ** 2) / (2 * 2.0**2)))
    m = spectral_residual(img)
    left = m.values[:, :32].max()
    right = m.values[:, 32:].max()
    ratio = left / right
    assert 0.8 <= ratio <= 1.25


def test_map_normalized_and_finite():
    rng = np.random.default_rng(0)
    m = spectral_residual(rng.random((48, 80)))
    assert np.all(np.isfinite(m.values))
    assert 0.0 <= m.values.min() and m.values.max() == pytest.approx(1.0)


def test_scale_invariant_argmax():
    rng = np.random.default_rng(1)
    img = rng.random((40, 64))
    a = spectral_residual(img)
    b = spectral_residual(img * 37.5)
    assert np.argmax(a.values) == np.argmax(b.values)


def test_deterministic():
    rng = np.random.default_rng(2)
    img = rng.random((32, 32))
    assert np.array_equal(spectral_residual(img).values, spectral_residual(img).values)


def test_too_small_image_rejected():
    with pytest.raises(ParameterError):
        spectral_residual(np.zeros((4, 4)))


@pytest.mark.parametrize("seed", range(20))
def test_local_maxima_matches_bruteforce(seed):
    values = np.random.default_rng(seed).random((32, 32))
    got = {(x, y) for x, y, _ in local_maxima(SaliencyMap(values)).points}
    assert got == brute_force_maxima(values)


def test_single_peak_single_target():
    v = np.zeros((16, 16))
    v[5, 9] = 1.0
    ts = local_maxima(SaliencyMap(v), threshold=0.5)
    assert ts.points == [(9.0, 5.0, 1.0)]


def test_min_distance_suppression():
    v = np.zeros((16, 32))
    v[8, 10] = 1.0
    v[8, 15] = 0.9  # 5 px away
    ts = local_maxima(SaliencyMap(v), min_distance=10.0, threshold=0.5)
    assert ts.points == [(10.0, 8.0, 1.0)]


def test_kept_points_pairwise_distant():
    values = np.random.default_rng(5).random((64, 64))
    ts = local_maxima(SaliencyMap(values), min_distance=7.0)
    pts = [(x, y) for x, y, _ in ts.points]
    for i in range(len(pts)):
        for j in range(i + 1, len(pts)):
            assert math.dist(pts[i], pts[j]) >= 7.0


def test_threshold_filters_low_maxima():
    v = np.zeros((16, 16))
    v[4, 4] = 0.3
    v[10, 10] = 0.9
    ts = local_maxima(SaliencyMap(v), threshold=0.5)
    assert {(x, y) for x, y, _ in ts.points} == {(10.0, 10.0)}


def test_jitter_radius_zero_duplicates_in_place(rng):
    ts = TargetSet([(3.0, 4.0, 0.5)], width=10, height=10)
    out = jitter_targets(ts, 0.0, rng)
    assert out.points == [(3.0, 4.0, 0.5), (3.0, 4.0, 0.5)]


def test_jitter_within_radius_and_doubles_count(rng):
    pts = [(float(x), float(y), 1.0) for x in (5, 20) for y in (5, 20)]
    ts = TargetSet(pts, width=30, height=30)
    out = jitter_targets(ts, 5.0, rng)
    assert len(out) == 2 * len(ts)
    for (ox, oy, _), (jx, jy, _) in zip(out.points[::2], out.points[1::2]):
        assert math.hypot(jx - ox, jy - oy) <= 5.0 + 1e-9


def test_jitter_clamped_to_bounds(rng):
    ts = TargetSet([(0.0, 0.0, 1.0)], width=20, height=20)
    for _ in range(50):
        out = jitter_targets(ts, 5.0, rng)
        _, (jx, jy, _) = out.points
        assert 0.0 <= jx <= 19.0 and 0.0 <= jy <= 19.0
