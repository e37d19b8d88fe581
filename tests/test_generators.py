"""Velocity-profile generators: fixation, saccade (Gamma), pursuit (sigmoid)."""
from __future__ import annotations

import numpy as np
import pytest
from scipy import integrate

from gazeforge.core import RandomSource
from gazeforge.errors import ParameterError
from gazeforge.generators import (
    assemble,
    gamma_profile,
    gamma_tail,
    gen_fixation,
    gen_pursuit,
    gen_saccade,
    skew_to_shape,
)
from gazeforge.params import (
    BoundedDistribution,
    FixationParams,
    MovementLabel,
    PursuitParams,
    PursuitTrend,
    SaccadeParams,
)

from conftest import ScriptedRng, fixed

U = BoundedDistribution.uniform
N = BoundedDistribution.normal


def default_fix(**kw):
    p = dict(duration=U(0.2, 0.3), base_velocity=0.0, consistency=fixed(0.0))
    p.update(kw)
    return FixationParams(**p)


def default_sac(**kw):
    p = dict(
        duration=U(0.03, 0.08),
        peak_velocity=U(300.0, 500.0),
        skewness=U(0.6, 1.0),
        consistency=fixed(0.0),
    )
    p.update(kw)
    return SaccadeParams(**p)


def default_sp(**kw):
    p = dict(
        duration=fixed(1.0),
        velocity=fixed(20.0),
        onset_duration=fixed(0.2),
        trend=PursuitTrend.CONSTANT,
        trend_end_velocity=fixed(20.0),
        consistency=fixed(0.0),
    )
    p.update(kw)
    return PursuitParams(**p)


# --- fixations ---

def test_fixation_sample_count_exact(rng):
    prof = gen_fixation(default_fix(duration=fixed(0.1)), 1000.0, rng)
    assert len(prof) == 100
    assert all(prof.labels == MovementLabel.FIXATION)


def test_fixation_zero_consistency_zero_base(rng):
    prof = gen_fixation(default_fix(), 1000.0, rng)
    assert np.all(prof.velocities == 0.0)


def test_fixation_normal_consistency_bounded(rng):
    # Amplitude 1 deg/s, normal with std 2 (heavily clamped), base 0:
    # the profile stays in [0, 1] deg/s.
    p = default_fix(consistency=N(0.0, 1.0, 2.0))
    prof = gen_fixation(p, 1000.0, rng)
    assert prof.velocities.min() >= 0.0
    assert prof.velocities.max() <= 1.0
    assert prof.velocities.std() > 0.0


def test_fixation_zero_length_rejected(rng):
    with pytest.raises(ParameterError):
        gen_fixation(default_fix(duration=fixed(0.0001)), 1000.0, rng)


# --- saccades ---

def test_gamma_profile_peak_exact():
    for shape in (1.0, 2.5, 4.0, 16.0):
        v = gamma_profile(200, shape, 432.1)
        assert v.max() == pytest.approx(432.1, rel=1e-12)


def test_saccade_peaks_within_bounds():
    for seed in range(300):
        prof = gen_saccade(default_sac(), 1000.0, RandomSource(seed))
        assert 300.0 <= prof.velocities.max() <= 500.0


def test_saccade_fixed_skew_max_equals_drawn_peak():
    # skew min == max, jitter 0, degenerate peak bounds: max is the peak.
    p = default_sac(peak_velocity=fixed(400.0), skewness=fixed(1.0))
    prof = gen_saccade(p, 1000.0, RandomSource(2))
    assert prof.velocities.max() == pytest.approx(400.0, rel=1e-6)


def test_saccade_mode_position_matches_analytic():
    # skew 1 -> shape 4; discrete argmax within 2 samples of the mode.
    shape = skew_to_shape(1.0)
    assert shape == 4.0
    n = 100
    v = gamma_profile(n, shape, 100.0)
    expected = (n - 1) * (shape - 1.0) / gamma_tail(shape)
    assert abs(int(np.argmax(v)) - expected) <= 2


def test_saccade_unimodal_before_jitter():
    for skew in (0.5, 1.0, 1.5):
        v = gamma_profile(300, skew_to_shape(skew), 400.0)
        peak = int(np.argmax(v))
        assert np.all(np.diff(v[: peak + 1]) > 0)
        assert np.all(np.diff(v[peak:]) < 0)


def test_saccade_boundaries_below_one_percent_of_peak():
    for skew in (0.5, 1.0, 1.5):
        v = gamma_profile(500, skew_to_shape(skew), 400.0)
        assert v[0] <= 4.0 and v[-1] <= 4.0


def test_saccade_length_peak_coupling():
    # With the peak draw held fixed, peak grows with the duration draw.
    def run(u_len):
        p = default_sac(skewness=fixed(1.0))
        rng = ScriptedRng(uniforms=[u_len, 0.9, 0.0] + [0.0] * 200)
        return gen_saccade(p, 1000.0, rng).velocities.max()

    peaks = [run(u) for u in (0.1, 0.4, 0.7, 1.0 - 1e-9)]
    assert all(b >= a for a, b in zip(peaks, peaks[1:]))


def test_saccade_profile_skewness_quadrature():
    for skew in (0.5, 1.0, 2.0):
        v = gamma_profile(1000, skew_to_shape(skew), 400.0)
        x = np.arange(len(v), dtype=float)
        w = v / integrate.trapezoid(v, x)
        m = integrate.trapezoid(x * w, x)
        var = integrate.trapezoid((x - m) ** 2 * w, x)
        third = integrate.trapezoid((x - m) ** 3 * w, x)
        assert abs(third / var**1.5 - skew) / skew < 0.02


def test_saccade_extreme_skew_rejected(rng):
    with pytest.raises(ParameterError) as e:
        gen_saccade(default_sac(skewness=fixed(5.0)), 1000.0, rng)
    assert "5" in str(e.value)


def test_saccade_nonnegative_with_jitter():
    p = default_sac(consistency=N(0.0, 50.0, 30.0))
    for seed in range(20):
        prof = gen_saccade(p, 1000.0, RandomSource(seed))
        assert np.all(prof.velocities >= 0.0)
        assert np.all(np.isfinite(prof.velocities))


# --- smooth pursuits ---

def test_pursuit_midpoint_is_half_plateau(rng):
    prof = gen_pursuit(default_sp(), 1000.0, rng)
    # onset 0.2 s at 1000 Hz: sample times (i+1) ms, midpoint at index 99
    assert prof.velocities[99] == pytest.approx(10.0, abs=1e-9)


def test_pursuit_onset_monotone_and_reaches_99pct(rng):
    prof = gen_pursuit(default_sp(), 1000.0, rng)
    onset = prof.velocities[:200]
    assert np.all(np.diff(onset) >= 0)
    assert onset[-1] >= 0.99 * 20.0 * (1 - 1e-12)


def test_pursuit_constant_trend(rng):
    prof = gen_pursuit(default_sp(), 1000.0, rng)
    assert np.all(prof.velocities[200:] == 20.0)


def test_pursuit_linear_decreasing_oracle(rng):
    # 30 -> 10 deg/s over the trend; check the half-way value.
    p = default_sp(
        duration=fixed(1.2),
        onset_duration=fixed(0.2),
        velocity=fixed(30.0),
        trend=PursuitTrend.LINEAR_DECREASING,
        trend_end_velocity=fixed(10.0),
    )
    prof = gen_pursuit(p, 1000.0, rng)
    trend = prof.velocities[200:]
    assert len(trend) == 1000
    slope_per_sample = (10.0 - 30.0) / (len(trend) - 1)
    assert trend[0] == 30.0 and trend[-1] == 10.0
    assert abs(trend[500] - 20.0) <= abs(slope_per_sample)


def test_pursuit_swaps_draws_for_trend_direction(rng):
    p = default_sp(
        duration=fixed(1.0),
        onset_duration=fixed(0.1),
        velocity=fixed(10.0),
        trend=PursuitTrend.LINEAR_DECREASING,
        trend_end_velocity=fixed(30.0),
    )
    prof = gen_pursuit(p, 1000.0, rng)
    trend = prof.velocities[100:]
    assert trend[0] == 30.0 and trend[-1] == 10.0


def test_pursuit_onset_redraw_exhaustion(rng):
    p = default_sp(duration=fixed(0.1), onset_duration=fixed(0.2))
    with pytest.raises(ParameterError):
        gen_pursuit(p, 1000.0, rng)


def test_pursuit_onset_redraw_recovers():
    p = default_sp(duration=fixed(0.5), onset_duration=U(0.3, 0.7))
    prof = gen_pursuit(p, 1000.0, RandomSource(0))
    assert len(prof) == 500


# --- assembly ---

def test_assemble_singleton_matches_fixation():
    a = gen_fixation(default_fix(), 1000.0, RandomSource(9))
    b = assemble(
        [MovementLabel.FIXATION], default_fix(), default_sac(), default_sp(),
        1000.0, RandomSource(9),
    )
    assert np.array_equal(a.velocities, b.velocities)
    assert np.array_equal(a.labels, b.labels)


def test_assemble_label_runs_in_order(rng):
    seq = [MovementLabel.FIXATION, MovementLabel.SACCADE, MovementLabel.FIXATION]
    prof = assemble(seq, default_fix(), default_sac(), default_sp(), 1000.0, rng)
    changes = np.flatnonzero(np.diff(prof.labels)) + 1
    runs = [prof.labels[0]] + [prof.labels[i] for i in changes]
    assert runs == [int(t) for t in seq]


def test_assemble_sample_count_sums_segments(rng):
    # Fixed durations 0.2 + 0.05 + 0.2 s at 1000 Hz -> 450 samples.
    fix = default_fix(duration=fixed(0.2))
    sac = default_sac(duration=fixed(0.05))
    seq = [MovementLabel.FIXATION, MovementLabel.SACCADE, MovementLabel.FIXATION]
    prof = assemble(seq, fix, sac, default_sp(), 1000.0, rng)
    assert len(prof) == 450


def test_assemble_error_names_segment(rng):
    sac = default_sac(skewness=fixed(9.0))
    with pytest.raises(ParameterError) as e:
        assemble(
            [MovementLabel.FIXATION, MovementLabel.SACCADE],
            default_fix(), sac, default_sp(), 1000.0, rng,
        )
    assert "segment 1" in str(e.value)
