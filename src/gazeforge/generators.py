"""Velocity-profile generators for fixations, saccades and smooth pursuits.

Saccades follow a Gamma-shaped velocity profile whose asymmetry is set by a
skewness parameter (shape = (2/skew)^2). The Gamma quantile and log-Gamma
come from the pure-Python port in ``_gamma``, which returns SciPy's bits, so
no SciPy is needed at run time. Smooth pursuit onsets follow a logistic ramp
pinned to 1% / 99% of the plateau at its endpoints.
"""
from __future__ import annotations

import functools
import math
from dataclasses import replace

import numpy as np

from ._gamma import gammaincinv, lgam
from .core import RandomSource, SampledSignal, sample_bounded, sample_bounded_many
from .errors import ParameterError
from .params import (
    BoundedDistribution,
    FixationParams,
    MovementLabel,
    PursuitParams,
    PursuitTrend,
    SaccadeParams,
)

# Upper end of the Gamma support used for a saccade segment. The nominal
# choice of the 0.999 quantile leaves ~10% skewness bias after truncation;
# the 1 - 1e-6 quantile keeps profile skewness within 0.1% of the request
# while the boundary velocity stays far below 1% of the peak.
GAMMA_TAIL_QUANTILE = 1.0 - 1e-6

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
    n = int(round(duration * base_rate))
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


@functools.lru_cache(maxsize=4096)
def gamma_tail(shape: float) -> float:
    """GAMMA_TAIL_QUANTILE quantile of the unit-scale Gamma(shape) law, for
    1 <= shape <= MAX_GAMMA_SHAPE."""
    return gammaincinv(float(shape), GAMMA_TAIL_QUANTILE)


def gamma_profile(n: int, shape: float, peak: float) -> np.ndarray:
    """Jitter-free Gamma-shaped velocity profile with exact peak.

    The Gamma density (shape k >= 1) is evaluated on n points spanning
    [0, tail quantile] and normalized by its discrete maximum so the
    profile attains `peak` exactly.
    """
    if not np.isfinite(shape) or shape < 1.0:
        raise ParameterError(
            f"gamma shape {shape:.6g} < 1 (skewness too large); profile "
            "would be unbounded at onset"
        )
    if n < 2:
        raise ParameterError("saccade needs at least 2 samples")
    x = np.linspace(0.0, gamma_tail(shape), n)
    # (shape - 1) * log(x) per element with libm's log, as SciPy's xlogy
    # computes it (np.log can differ in the last bit); 0 when shape == 1.
    k1 = float(shape) - 1.0
    xlogy = np.zeros(n)
    if k1 != 0.0:
        xlogy[0] = -np.inf  # x[0] == 0
        xlogy[1:] = [k1 * math.log(v) for v in x[1:].tolist()]
    g = np.exp(xlogy - x - lgam(float(shape)))  # Gamma density
    m = g.max()
    if not np.isfinite(m) or m <= 0:
        raise ParameterError(f"degenerate gamma density for shape {shape:.6g}")
    return peak * g / m


def skew_to_shape(skew: float) -> float:
    """Invert the Gamma skewness identity (skewness = 2/sqrt(shape))."""
    if skew <= 0 or not np.isfinite(skew):
        raise ParameterError(f"skewness must be finite and > 0, got {skew}")
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
    try:
        v = gamma_profile(n, shape, peak)
    except ParameterError as e:
        raise ParameterError(f"saccade skewness draw {skew:.6g}: {e}") from e
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
        t_on = n_on / base_rate
        a = _ONSET_STEEPNESS / t_on
        t = (np.arange(1, n_on + 1)) / base_rate
        v[:n_on] = plateau / (1.0 + np.exp(-a * (t - t_on / 2.0)))
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
    if base_rate <= 0:
        raise ParameterError("base_rate must be > 0")
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
