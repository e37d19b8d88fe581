"""Resampling to constant and fluctuating target rates."""
from __future__ import annotations

import itertools
import math

import numpy as np
import pytest

from gazeforge import resampler
from gazeforge.core import RandomSource, SampledSignal, sample_bounded_many
from gazeforge.errors import ParameterError
from gazeforge.params import BoundedDistribution, MovementLabel, RateSpec
from gazeforge.resampler import resample

from conftest import fixed

U = BoundedDistribution.uniform
N = BoundedDistribution.normal

F = MovementLabel.FIXATION
S = MovementLabel.SACCADE


def profile(velocities, base_rate=1000.0, labels=None):
    v = np.asarray(velocities, dtype=float)
    if labels is None:
        labels = np.zeros(len(v), dtype=np.uint8)
    return SampledSignal.at_rate(base_rate, v, np.asarray(labels))


def test_constant_60hz_over_one_second(rng):
    prof = profile(np.arange(1000.0))
    out = resample(prof, RateSpec(fixed(60.0)), rng)
    assert len(out) == 60
    assert np.allclose(out.timestamps, np.arange(1, 61) / 60.0, atol=1e-9)


def test_constant_signal_preserved_exactly(rng):
    prof = profile(np.full(2000, 7.25))
    out = resample(prof, RateSpec(U(50.0, 70.0)), rng)
    assert np.all(out.velocities == 7.25)


def test_hand_oracle_windows():
    # Base [1..6] at 6 Hz, constant 2 Hz: windows of three samples.
    prof = profile([1, 2, 3, 4, 5, 6], base_rate=6.0)
    out = resample(prof, RateSpec(fixed(2.0)), RandomSource(0))
    assert np.allclose(out.velocities, [2.0, 5.0])
    assert np.allclose(out.timestamps, [0.5, 1.0])


def test_global_mean_preserved_for_tiling_windows(rng):
    prof = profile(np.sin(np.arange(1000)) ** 2)
    out = resample(prof, RateSpec(fixed(100.0)), rng)  # 10 base samples per window
    assert abs(out.velocities.mean() - prof.velocities.mean()) <= 1e-9 * abs(
        prof.velocities.mean()
    )


def test_dynamic_rate_gap_bounds(rng):
    prof = profile(np.zeros(100_000))
    out = resample(prof, RateSpec(U(50.0, 70.0)), rng)
    gaps = np.diff(np.concatenate(([0.0], out.timestamps)))
    assert gaps.min() >= 1.0 / 70.0 - 1e-12
    assert gaps.max() <= 1.0 / 50.0 + 1e-12


@pytest.mark.parametrize("dist", [U(50.0, 70.0), N(50.0, 70.0, 5.0)])
def test_mean_rate_near_midpoint(dist):
    prof = profile(np.zeros(100_000))  # 100 s at 1000 Hz
    out = resample(prof, RateSpec(dist), RandomSource(17))
    mean_rate = len(out) / out.timestamps[-1]
    assert abs(mean_rate - 60.0) / 60.0 < 0.02


def test_output_duration_close_to_input(rng):
    prof = profile(np.zeros(997))
    out = resample(prof, RateSpec(U(50.0, 70.0)), rng)
    assert len(prof) / prof.base_rate - out.timestamps[-1] <= 1.0 / 50.0 + 1e-9


def test_majority_label_and_tie_break(rng):
    labels = [F, S, S, S, S, F]  # window of 6: S majority
    prof = profile([0] * 6, base_rate=6.0, labels=labels)
    out = resample(prof, RateSpec(fixed(1.0)), rng)
    assert out.labels[0] == S
    labels = [F, F, F, S, S, S]  # tie: latest tied sample wins
    prof = profile([0] * 6, base_rate=6.0, labels=labels)
    out = resample(prof, RateSpec(fixed(1.0)), RandomSource(0))
    assert out.labels[0] == S


def test_labels_preserved_per_window(rng):
    labels = [F] * 500 + [S] * 500
    prof = profile(np.zeros(1000), labels=labels)
    out = resample(prof, RateSpec(fixed(100.0)), rng)
    assert list(out.labels[:50]) == [int(F)] * 50
    assert list(out.labels[50:]) == [int(S)] * 50


def test_rate_above_base_rejected(rng):
    prof = profile(np.zeros(100))
    with pytest.raises(ParameterError):
        resample(prof, RateSpec(U(500.0, 2000.0)), rng)


def test_empty_profile_rejected(rng):
    prof = SampledSignal.at_rate(1000.0, np.array([]), np.array([], dtype=np.uint8))
    with pytest.raises(ParameterError):
        resample(prof, RateSpec(fixed(60.0)), rng)


def test_signal_without_base_rate_rejected(rng):
    sig = SampledSignal(np.arange(1, 101) / 1000.0, np.zeros(100), np.zeros(100))
    with pytest.raises(ParameterError, match="base rate"):
        resample(sig, RateSpec(fixed(60.0)), rng)


LONG = 2_000_000  # base samples; a running-sum clock failed after 334,586


def _exact_length(n, base_rate, rate):
    """Windows whose end floor(k * base_rate / rate + slack) stays within n,
    in exact rational arithmetic."""
    from fractions import Fraction

    limit = (n + 1 - Fraction(resampler._INDEX_EPS)) * Fraction(rate) / Fraction(base_rate)
    return math.ceil(limit) - 1


@pytest.mark.parametrize("base_rate,rate", [
    (250.0, 250.0), (500.0, 500.0), (1000.0, 1000.0), (997.3, 997.3),
    (1000.0, 333.3), (1000.0, 997.3),
])
def test_fixed_rate_clock_does_not_drift(base_rate, rate):
    prof = profile(np.zeros(LONG), base_rate)
    out = resample(prof, RateSpec(fixed(rate)), RandomSource(0))
    assert len(out) == _exact_length(LONG, base_rate, rate)
    k = np.arange(1, len(out) + 1)
    assert np.max(np.abs(out.timestamps - k / rate)) <= np.spacing(out.timestamps[-1])


def test_fluctuating_rate_length_is_exact():
    # The clock sums 1 / rate in floats; exact sums of the same draws, as
    # integers in units of 2**-70 s, give the same number of windows.
    base_rate, spec = 1000.0, RateSpec(U(250.0, 1000.0))
    out = resample(profile(np.zeros(LONG), base_rate), spec, RandomSource(5))
    draws = sample_bounded_many(spec.rate, len(out) + 1, RandomSource(5))
    scale = 2**70
    ends = itertools.accumulate(int(x * scale) for x in (1.0 / draws).tolist())
    limit = (LONG + 1 - resampler._INDEX_EPS) / base_rate * scale
    assert sum(1 for t in ends if t < limit) == len(out)
