"""Noise injection: exact counts, placement, magnitudes."""
from __future__ import annotations

import numpy as np
import pytest

from gazeforge.core import RandomSource
from gazeforge.errors import ParameterError
from gazeforge.noise import inject_noise
from gazeforge.params import (
    MODE_ADD,
    BoundedDistribution,
    DistKind,
    MovementLabel,
    NoiseSpec,
)
from gazeforge.resampler import SampledSignal

from conftest import fixed

U = BoundedDistribution.uniform
N = BoundedDistribution.normal
NOISE = MovementLabel.NOISE


def make_signal(n, value=5.0):
    return SampledSignal(
        np.arange(1, n + 1) / 1000.0,
        np.full(n, value),
        np.zeros(n, dtype=np.uint8),
    )


def spec(**kw):
    p = dict(
        fraction=0.1,
        location_dist=DistKind.UNIFORM,
        magnitude=U(100.0, 300.0),
    )
    p.update(kw)
    return NoiseSpec(**p)


def test_fraction_zero_identity(rng):
    sig = make_signal(500)
    out = inject_noise(sig, spec(fraction=0.0), rng)
    assert np.array_equal(out.velocities, sig.velocities)
    assert np.array_equal(out.labels, sig.labels)
    assert np.array_equal(out.timestamps, sig.timestamps)


def test_ten_percent_of_600_is_exactly_60(rng):
    out = inject_noise(make_signal(600), spec(fraction=0.10), rng)
    assert int(np.count_nonzero(out.labels == NOISE)) == 60


def test_full_overwrite_with_zero_magnitude(rng):
    out = inject_noise(make_signal(50), spec(fraction=1.0, magnitude=fixed(0.0)), rng)
    assert np.all(out.velocities == 0.0)
    assert np.all(out.labels == NOISE)


def test_untouched_samples_bit_identical(rng):
    sig = make_signal(400)
    sig.velocities[:] = np.linspace(0, 10, 400)
    out = inject_noise(sig, spec(), rng)
    keep = out.labels != NOISE
    assert np.array_equal(out.velocities[keep], sig.velocities[keep])
    assert np.array_equal(out.labels[keep], sig.labels[keep])
    assert np.array_equal(out.timestamps, sig.timestamps)


def test_exact_count_property():
    for seed in range(20):
        n = 37 + seed * 13
        frac = (seed % 10) / 10.0
        out = inject_noise(
            make_signal(n), spec(fraction=frac), RandomSource(seed)
        )
        assert int(np.count_nonzero(out.labels == NOISE)) == int(round(frac * n))


def test_uniform_placement_flat_histogram():
    n, runs, k = 50, 10_000, 5
    counts = np.zeros(n)
    sp = spec(fraction=k / n)
    for seed in range(runs):
        out = inject_noise(make_signal(n), sp, RandomSource(seed))
        counts[out.labels == NOISE] += 1
    p = k / n
    expected = runs * p
    sigma = np.sqrt(runs * p * (1 - p))
    assert np.all(np.abs(counts - expected) <= 3.5 * sigma)


def test_normal_placement_concentrates_mid_signal():
    n, runs = 101, 2000
    counts = np.zeros(n)
    sp = spec(fraction=0.05, location_dist=DistKind.NORMAL)
    for seed in range(runs):
        out = inject_noise(make_signal(n), sp, RandomSource(seed))
        counts[out.labels == NOISE] += 1
    mid = counts[40:61].mean()
    edges = (counts[:10].mean() + counts[-10:].mean()) / 2
    assert mid > edges


def test_uniform_magnitudes_spread_wider_than_normal():
    lo, hi = 100.0, 300.0
    mags_u, mags_n = [], []
    for seed in range(300):
        out = inject_noise(
            make_signal(200, value=0.0),
            spec(fraction=0.2, magnitude=U(lo, hi)),
            RandomSource(seed),
        )
        mags_u.extend(out.velocities[out.labels == NOISE])
        out = inject_noise(
            make_signal(200, value=0.0),
            spec(fraction=0.2, magnitude=N(lo, hi, (hi - lo) / 6.0)),
            RandomSource(seed),
        )
        mags_n.extend(out.velocities[out.labels == NOISE])
    assert np.var(mags_u) >= np.var(mags_n)


def test_burst_runs_are_contiguous(rng):
    out = inject_noise(
        make_signal(300), spec(fraction=0.1, burst_length=10, magnitude=fixed(0.0)), rng
    )
    idx = np.flatnonzero(out.labels == NOISE)
    assert len(idx) == 30
    runs = np.split(idx, np.flatnonzero(np.diff(idx) > 1) + 1)
    assert all(len(r) >= 1 and np.all(np.diff(r) == 1) for r in runs)
    assert max(len(r) for r in runs) <= 10


def test_add_mode_offsets_velocity(rng):
    out = inject_noise(
        make_signal(100, value=5.0),
        spec(fraction=0.5, mode=MODE_ADD, magnitude=fixed(2.0)),
        rng,
    )
    assert np.all(out.velocities[out.labels == NOISE] == 7.0)


def test_invalid_fraction_rejected():
    with pytest.raises(ParameterError):
        spec(fraction=1.5)
    with pytest.raises(ParameterError):
        spec(fraction=-0.1)
