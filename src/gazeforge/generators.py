"""Velocity-profile generators for fixations, saccades and smooth pursuits.

Saccades follow a Gamma-shaped velocity profile whose asymmetry is set by a
skewness parameter (shape = (2/skew)^2). The profile's support ends at a
closed-form tail point (``gamma_tail``) and its density is normalized at the
analytic mode, so no special function is needed. Smooth pursuit onsets
follow a logistic ramp pinned to 1% / 99% of the plateau at its endpoints.
"""
from __future__ import annotations

import math
from dataclasses import replace

import numpy as np

from .core import RandomSource, SampledSignal, sample_bounded, sample_bounded_many
from .errors import ParameterError
from .params import (
    MAX_GAMMA_SHAPE,
    MIN_SKEWNESS,
    BoundedDistribution,
    FixationParams,
    MovementLabel,
    PursuitParams,
    PursuitTrend,
    SaccadeParams,
)

# The standard normal quantile of 1 - 1e-7. gamma_tail puts the end of a
# saccade's Gamma support near the 1 - 1e-7 quantile: the nominal 0.999
# quantile leaves ~10% skewness bias after truncation, while this tail keeps
# profile skewness within 0.05% of the request and the boundary velocity far
# below 1% of the peak.
_GAMMA_TAIL_Z = 5.199337582192817

_ONSET_STEEPNESS = 2.0 * math.log(99.0)  # times 1/onset_duration


def _zero_centered(dist: BoundedDistribution) -> BoundedDistribution:
    """Interpret non-negative consistency bounds as a symmetric amplitude.

    Bounds given with min >= 0 describe the fluctuation amplitude c; draws
    come from [-c, +c] around zero. Signed bounds (min < 0) are used as-is.
    """
    if dist.min >= 0:
        return BoundedDistribution(dist.kind, -dist.max, dist.max, dist.std)
    return dist


def _consistency_draws(dist: BoundedDistribution, n: int, rng: RandomSource) -> np.ndarray:
    return sample_bounded_many(_zero_centered(dist), n, rng)


def _segment_length(duration: float, base_rate: float, what: str) -> int:
    samples = duration * base_rate
    if not math.isfinite(samples):
        raise ParameterError(
            f"{what}: duration {duration:.6g} s at {base_rate:.6g} Hz gives no "
            "finite sample count"
        )
    n = int(round(samples))
    if n < 1:
        raise ParameterError(
            f"{what}: duration {duration:.6g} s at {base_rate:.6g} Hz yields "
            "zero samples"
        )
    return n


def gen_fixation(
    p: FixationParams,
    base_rate: float,
    rng: RandomSource,
) -> SampledSignal:
    """Fixation: base drift velocity plus per-sample fluctuation, floored at 0."""
    n = _segment_length(sample_bounded(p.duration, rng), base_rate, "fixation")
    v = np.maximum(0.0, p.base_velocity + _consistency_draws(p.consistency, n, rng))
    labels = np.full(n, MovementLabel.FIXATION, dtype=np.uint8)
    return SampledSignal.at_rate(base_rate, v, labels)


def gamma_tail(shape: float) -> float:
    """End of the saccade profile's support for the unit-scale Gamma(shape)
    law: the Cornish-Fisher expansion (Cornish & Fisher, 1938), to its
    constant term, of the 1 - 1e-7 quantile. For shapes in
    [1, MAX_GAMMA_SHAPE] the mass beyond it lies between 1.0e-7 and 3.5e-7."""
    z = _GAMMA_TAIL_Z
    return shape + z * math.sqrt(shape) + (z * z - 1.0) / 3.0


def shape_for_mode_ratio(ratio: float) -> float:
    """Inverse of the profile's mode position: the shape k >= 1 whose mode
    k - 1 lies at the fraction ratio (in [0, 1)) of [0, gamma_tail(k)].
    With s = sqrt(k), (k - 1) = ratio gamma_tail(k) is the quadratic
    (1 - ratio) s^2 - ratio z s - (1 + ratio (z^2 - 1) / 3) = 0, whose
    positive root is taken."""
    z = _GAMMA_TAIL_Z
    a, b, c = 1.0 - ratio, ratio * z, 1.0 + ratio * (z * z - 1.0) / 3.0
    root = (b + math.sqrt(b * b + 4.0 * a * c)) / (2.0 * a)
    return root * root


def gamma_profile(n: int, shape: float, peak: float) -> np.ndarray:
    """Jitter-free Gamma-shaped velocity profile with exact peak.

    The Gamma density (shape k in [1, MAX_GAMMA_SHAPE]) is evaluated on n
    points spanning [0, gamma_tail(k)], relative to its value at the mode
    k - 1, and normalized by its discrete maximum so the profile attains
    `peak` exactly.
    """
    if not 1.0 <= shape <= MAX_GAMMA_SHAPE:
        raise ParameterError(
            f"gamma shape {shape:.6g} outside [1, {MAX_GAMMA_SHAPE:.6g}]"
        )
    if n < 2:
        raise ParameterError("saccade needs at least 2 samples")
    x = np.linspace(0.0, gamma_tail(shape), n)
    # (k - 1) log(x) - x less its value at the mode, (k - 1) log(k - 1) -
    # (k - 1), with 0 log 0 = 0 when k == 1. The log and the exp are libm's
    # per element: numpy's SIMD kernels can differ from them in the last bit.
    k1 = float(shape) - 1.0
    xlogy = np.zeros(n)
    at_mode = 0.0
    if k1 != 0.0:
        xlogy[0] = -np.inf  # x[0] == 0
        xlogy[1:] = [k1 * math.log(v) for v in x[1:].tolist()]
        at_mode = k1 * math.log(k1) - k1
    g = np.array([math.exp(v) for v in (xlogy - x - at_mode).tolist()])
    return peak * g / g.max()


def skew_to_shape(skew: float) -> float:
    """Invert the Gamma skewness identity (skewness = 2/sqrt(shape)) for
    skewness in [MIN_SKEWNESS, 2], whose shapes are [1, MAX_GAMMA_SHAPE]."""
    if not MIN_SKEWNESS <= skew <= 2.0:
        raise ParameterError(
            f"skewness {skew:.6g} outside [{MIN_SKEWNESS:.6g}, 2] (Gamma shape "
            f"in [1, {MAX_GAMMA_SHAPE:.6g}])"
        )
    return (2.0 / skew) ** 2


def _normalized_position(value: float, dist: BoundedDistribution) -> float:
    if dist.max == dist.min:
        return 1.0
    return (value - dist.min) / (dist.max - dist.min)


def gen_saccade(
    p: SaccadeParams,
    base_rate: float,
    rng: RandomSource,
) -> SampledSignal:
    """Saccade: Gamma-shaped profile with duration-coupled peak velocity.

    The normalized duration and peak draws are multiplied, so shorter
    saccades are limited to lower maximal velocities.
    """
    dur = sample_bounded(p.duration, rng)
    u_len = _normalized_position(dur, p.duration)
    peak_raw = sample_bounded(p.peak_velocity, rng)
    u_vel = _normalized_position(peak_raw, p.peak_velocity)
    peak = p.peak_velocity.min + (u_len * u_vel) * (
        p.peak_velocity.max - p.peak_velocity.min
    )
    skew = sample_bounded(p.skewness, rng)
    shape = skew_to_shape(skew)
    n = _segment_length(dur, base_rate, "saccade")
    if n < 2:
        raise ParameterError("saccade duration too short for two samples")
    v = gamma_profile(n, shape, peak)
    v = np.maximum(0.0, v + _consistency_draws(p.consistency, n, rng))
    labels = np.full(n, MovementLabel.SACCADE, dtype=np.uint8)
    return SampledSignal.at_rate(base_rate, v, labels)


MAX_ONSET_REDRAWS = 100


def gen_pursuit(
    p: PursuitParams,
    base_rate: float,
    rng: RandomSource,
) -> SampledSignal:
    """Smooth pursuit: logistic onset up to the plateau, then a constant or
    linear trend phase.

    An onset draw at or above the drawn duration is redrawn, at most
    MAX_ONSET_REDRAWS times; after that the onset is drawn once from the
    part of its range below the duration, which is impossible (and raises)
    only when onset_duration.min is not below it.
    """
    dur = sample_bounded(p.duration, rng)
    onset = sample_bounded(p.onset_duration, rng)
    attempts = 0
    while onset >= dur:
        attempts += 1
        if attempts > MAX_ONSET_REDRAWS:
            if p.onset_duration.min >= dur:
                raise ParameterError(
                    "pursuit onset duration could not be drawn below the total "
                    f"duration in {MAX_ONSET_REDRAWS} attempts"
                )
            # A duration draw close to onset_duration.min leaves few onset
            # draws below it. Rounding in the draw could still reach dur,
            # hence the clamp.
            below = math.nextafter(dur, -math.inf)
            capped = replace(p.onset_duration, max=below)
            onset = min(sample_bounded(capped, rng), below)
            break
        onset = sample_bounded(p.onset_duration, rng)
    n = _segment_length(dur, base_rate, "smooth pursuit")
    n_on = min(int(round(onset * base_rate)), n)
    plateau = sample_bounded(p.velocity, rng)
    end = plateau
    if p.trend != PursuitTrend.CONSTANT:
        end = sample_bounded(p.trend_end_velocity, rng)
        # Swap the draws if their ordering contradicts the trend direction;
        # the onset then ramps to the swapped plateau so phases stay joined.
        if p.trend == PursuitTrend.LINEAR_DECREASING and end > plateau:
            plateau, end = end, plateau
        if p.trend == PursuitTrend.LINEAR_INCREASING and end < plateau:
            plateau, end = end, plateau

    v = np.empty(n, dtype=float)
    if n_on > 0:
        # Sample times (i+1)*dt so the last onset sample sits exactly at the
        # (grid-snapped) onset duration, where the logistic reaches 0.99.
        # The exp is libm's per element, as in gamma_profile.
        t_on = n_on / base_rate
        a = _ONSET_STEEPNESS / t_on
        t = (np.arange(1, n_on + 1)) / base_rate
        e = [math.exp(u) for u in (-a * (t - t_on / 2.0)).tolist()]
        v[:n_on] = plateau / (1.0 + np.array(e))
    m = n - n_on
    if m > 0:
        if p.trend == PursuitTrend.CONSTANT:
            v[n_on:] = plateau
        elif m == 1:
            v[n_on:] = end
        else:
            v[n_on:] = np.linspace(plateau, end, m)
    v = np.maximum(0.0, v + _consistency_draws(p.consistency, n, rng))
    labels = np.full(n, MovementLabel.SMOOTH_PURSUIT, dtype=np.uint8)
    return SampledSignal.at_rate(base_rate, v, labels)


def assemble(
    seq: list[MovementLabel],
    fix: FixationParams,
    sac: SaccadeParams,
    sp: PursuitParams,
    base_rate: float,
    rng: RandomSource,
) -> SampledSignal:
    """Generate and concatenate one segment per sequence entry, in order."""
    if not seq:
        raise ParameterError("sequence must be non-empty")
    if not 0.0 < base_rate < math.inf:
        raise ParameterError(f"base_rate must be finite and > 0, got {base_rate}")
    parts = []
    for i, label in enumerate(seq):
        try:
            if label == MovementLabel.FIXATION:
                parts.append(gen_fixation(fix, base_rate, rng))
            elif label == MovementLabel.SACCADE:
                parts.append(gen_saccade(sac, base_rate, rng))
            elif label == MovementLabel.SMOOTH_PURSUIT:
                parts.append(gen_pursuit(sp, base_rate, rng))
            else:
                raise ParameterError(f"cannot generate segment of type {label.name}")
        except ParameterError as e:
            raise ParameterError(f"segment {i} ({label.name}): {e}") from e
    return SampledSignal.concat(parts)
