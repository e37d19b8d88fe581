"""Velocity-profile generators for fixations, saccades and smooth pursuits.

Saccades follow a Gamma-shaped velocity profile whose asymmetry is set by a
skewness parameter (shape = (2/skew)^2). The profile's support ends at a
closed-form tail point (``gamma_tail``) and its density is normalized at the
analytic mode, so no special function is needed. Smooth pursuit onsets
follow a logistic ramp pinned to 1% / 99% of the plateau at its endpoints.
"""
from __future__ import annotations

import math

import numpy as np

from .core import RandomSource, SampledSignal, bounded_values, sample_bounded, unit_draws
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
    replace,
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


def _ramp(n: np.ndarray) -> np.ndarray:
    """0.0, 1.0, ..., n[k] - 1 for each k, concatenated."""
    ends = np.add.accumulate(n)
    return np.arange(ends[-1] if len(n) else 0, dtype=float) - (ends - n).repeat(n)


def _linspaces(start: np.ndarray, stop: np.ndarray, n: np.ndarray) -> np.ndarray:
    """``np.linspace(start[k], stop[k], n[k])`` bit for bit, but ``[stop[k]]`` at n[k] == 1."""
    div = np.maximum(n - 1, 1)
    delta = stop - start
    step = delta / div
    i = _ramp(n)
    y = i * step.repeat(n)
    if np.count_nonzero(step) < len(step):  # underflow: i / div * delta
        flat = (step == 0.0).repeat(n)
        y[flat] = i[flat] / div.repeat(n)[flat] * delta.repeat(n)[flat]
    y += start.repeat(n)
    y[np.add.accumulate(n) - 1] = stop
    return y


def _fixation_draws(p: FixationParams, base_rate: float, rng: RandomSource) -> tuple:
    return (_segment_length(sample_bounded(p.duration, rng), base_rate, "fixation"),)


def gen_fixation(p: FixationParams, base_rate: float, rng: RandomSource) -> SampledSignal:
    """Fixation: base drift velocity plus per-sample fluctuation, floored at 0."""
    return _one_segment(MovementLabel.FIXATION, p, base_rate, rng)


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
    return gamma_profiles(np.array([n], dtype=np.intp), [float(shape)], [peak])


def gamma_profiles(n: np.ndarray, shape, peak) -> np.ndarray:
    """``gamma_profile(n[k], shape[k], peak[k])`` for each k, concatenated:
    one pass over all profiles, with the same bits."""
    x = _linspaces(np.zeros(len(n)), np.array([gamma_tail(k) for k in shape]), n)
    # (k - 1) log(x) - x less its value at the mode, (k - 1) log(k - 1) -
    # (k - 1), with 0 log 0 = 0 when k == 1. The log and the exp are libm's
    # per element: numpy's SIMD kernels can differ from them in the last bit.
    k1 = [k - 1.0 for k in shape]
    at_mode = [k * math.log(k) - k if k else 0.0 for k in k1]
    k1_x, at_mode, peak = np.array([k1, at_mode, peak]).repeat(n, axis=1)
    starts = np.add.accumulate(n) - n
    xs = np.where(x > 0.0, x, 1.0)  # x == 0 only at the starts, set below
    xlogy = k1_x * np.fromiter(map(math.log, xs.tolist()), float, len(x))
    xlogy[starts] = [-math.inf if k else 0.0 for k in k1]
    xlogy -= x
    xlogy -= at_mode
    g = np.fromiter(map(math.exp, xlogy.tolist()), float, len(x))
    return peak * g / np.maximum.reduceat(g, starts).repeat(n)


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


def _saccade_draws(p: SaccadeParams, base_rate: float, rng: RandomSource) -> tuple:
    dur = sample_bounded(p.duration, rng)
    u_len = _normalized_position(dur, p.duration)
    peak_raw = sample_bounded(p.peak_velocity, rng)
    u_vel = _normalized_position(peak_raw, p.peak_velocity)
    peak = p.peak_velocity.min + (u_len * u_vel) * (
        p.peak_velocity.max - p.peak_velocity.min
    )
    shape = skew_to_shape(sample_bounded(p.skewness, rng))
    n = _segment_length(dur, base_rate, "saccade")
    if n < 2:
        raise ParameterError("saccade duration too short for two samples")
    return n, shape, peak


def gen_saccade(p: SaccadeParams, base_rate: float, rng: RandomSource) -> SampledSignal:
    """Saccade: Gamma-shaped profile with duration-coupled peak velocity.

    The normalized duration and peak draws are multiplied, so shorter
    saccades are limited to lower maximal velocities.
    """
    return _one_segment(MovementLabel.SACCADE, p, base_rate, rng)


MAX_ONSET_REDRAWS = 100


def _pursuit_draws(p: PursuitParams, base_rate: float, rng: RandomSource) -> tuple:
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
    return n, n_on, plateau, end


def _pursuits(p: PursuitParams, base_rate: float, n, n_on, plateau, end) -> np.ndarray:
    # Onset times (i+1)*dt: the last onset sample sits at the (grid-snapped) onset
    # duration, where the logistic (libm's exp) reaches 0.99. Constant: end == plateau.
    n_on, plateau, end = np.array(n_on, dtype=np.intp), np.array(plateau), np.array(end)
    ramps, trend = n_on > 0, n > n_on
    k = n_on[ramps]
    t_on = k / base_rate
    t = (_ramp(k) + 1.0) / base_rate - (t_on / 2.0).repeat(k)
    u = (-(_ONSET_STEEPNESS / t_on)).repeat(k) * t
    e = np.fromiter(map(math.exp, u.tolist()), float, len(u))
    v = np.empty(n.sum())
    onset = _ramp(n) < n_on.repeat(n)
    v[onset] = plateau[ramps].repeat(k) / (1.0 + e)
    v[~onset] = _linspaces(plateau[trend], end[trend], (n - n_on)[trend])
    return v


def gen_pursuit(p: PursuitParams, base_rate: float, rng: RandomSource) -> SampledSignal:
    """Smooth pursuit: logistic onset up to the plateau, then a constant or
    linear trend phase.

    An onset draw at or above the drawn duration is redrawn, at most
    MAX_ONSET_REDRAWS times; after that the onset is drawn once from the
    part of its range below the duration, which is impossible (and raises)
    only when onset_duration.min is not below it.
    """
    return _one_segment(MovementLabel.SMOOTH_PURSUIT, p, base_rate, rng)


# Per movement type: a segment's draws before its consistency draws, as a
# tuple (n, ...); and the noise-free velocities of segments from those tuples.
_KINDS = {
    MovementLabel.FIXATION: (_fixation_draws, lambda p, rate, n: p.base_velocity),
    MovementLabel.SACCADE: (_saccade_draws, lambda p, rate, *segs: gamma_profiles(*segs)),
    MovementLabel.SMOOTH_PURSUIT: (_pursuit_draws, _pursuits),
}


def _velocities(label, p, base_rate: float, segments: list[tuple], c: np.ndarray) -> np.ndarray:
    """``max(0, base + consistency)`` of ``segments``, in place on their unit draws ``c``."""
    n, *columns = zip(*segments)
    c = bounded_values(_zero_centered(p.consistency), c)
    c += _KINDS[label][1](p, base_rate, np.array(n, dtype=np.intp), *columns)
    return np.maximum(0.0, c, out=c)


def _one_segment(label, p, base_rate: float, rng: RandomSource) -> SampledSignal:
    seg = _KINDS[label][0](p, base_rate, rng)
    v = _velocities(label, p, base_rate, [seg], unit_draws(p.consistency.kind, seg[0], rng))
    return SampledSignal.at_rate(base_rate, v, np.full(len(v), label, dtype=np.uint8))


def assemble(seq: list[MovementLabel], fix: FixationParams, sac: SaccadeParams,
             sp: PursuitParams, base_rate: float, rng: RandomSource) -> SampledSignal:
    """Generate and concatenate one segment per sequence entry, in order.

    Phase 1 takes every draw in sequence order (a segment's scalar draws, then
    its consistency draws) and raises a segment's ParameterError as its
    generator would. Phase 2 builds each movement type once over all its
    segments with the per-element arithmetic of the one-segment generators
    (calls of the same kernels) and libm's log and exp: the same bits and draws.
    """
    if not seq:
        raise ParameterError("sequence must be non-empty")
    if not 0.0 < base_rate < math.inf:
        raise ParameterError(f"base_rate must be finite and > 0, got {base_rate}")
    params = dict(zip(_KINDS, (fix, sac, sp)))
    segments: dict[MovementLabel, list[tuple]] = {label: [] for label in params}
    draws = []
    for i, label in enumerate(seq):
        try:
            if label not in params:
                raise ParameterError(f"cannot generate segment of type {label.name}")
            seg = _KINDS[label][0](params[label], base_rate, rng)
            draws.append(unit_draws(params[label].consistency.kind, seg[0], rng))
        except ParameterError as e:
            raise ParameterError(f"segment {i} ({label.name}): {e}") from e
        segments[label].append(seg)
    labels = np.repeat(np.array(seq, dtype=np.uint8), [len(d) for d in draws])
    v = np.concatenate(draws)  # the one velocity array, written type by type
    del draws
    for label, segs in segments.items():
        if segs:
            at = labels == label
            v[at] = _velocities(label, params[label], base_rate, segs, v[at])
    return SampledSignal.at_rate(base_rate, v, labels)
