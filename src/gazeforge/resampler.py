"""Resampling of base-rate velocity signals to static or fluctuating rates.

Each output sample averages all base samples in the half-open window since
the previous sampling position, which mimics how eye trackers integrate over
their (possibly varying) frame interval.
"""
from __future__ import annotations

import copy
import math

import numpy as np

from .core import RandomSource, SampledSignal, sample_bounded_many
from .errors import ParameterError
from .params import RateSpec

# Slack (in base-sample index units) for window boundary comparisons, so a
# sample landing exactly on a window edge is counted once.
_INDEX_EPS = 1e-6


def _window_ends(n: int, base_rate: float, spec: RateSpec, rng: RandomSource):
    """Output clock times and base-sample window bounds ``lo <= i < hi``.

    Draws the rates in one batch on a copy of ``rng``, finds where the
    sampling loop stops, then advances ``rng`` by exactly the draws that
    loop makes, the stopping draw included.
    """
    # Every rate is at most rate.max, so m draws reach past the profile end
    # (the retry covers rounding in the running sum on huge profiles).
    m = math.ceil(n / base_rate * spec.rate.max) + 2
    fixed = spec.rate.min == spec.rate.max
    while True:
        r = sample_bounded_many(spec.rate, m, copy.deepcopy(rng))
        if fixed:  # k / rate: a running sum's rounding would drift
            t = np.arange(1, m + 1) / spec.rate.min
        else:
            t = np.cumsum(1.0 / r)  # sequential sums, as t_prev + 1/r
        hi = np.floor(t * base_rate + _INDEX_EPS)
        lo = np.concatenate(([0.0], hi[:-1]))
        stops = np.flatnonzero((hi >= n) | (hi <= lo))
        if len(stops):
            break
        m *= 2
    k = int(stops[0])
    sample_bounded_many(spec.rate, k + 1, rng)
    if hi[k] <= lo[k]:
        raise ParameterError(
            f"empty resampling window at t={t[k]:.6g} s: the clock's rounding "
            f"left no base sample in it at {r[k]:.6g} Hz"
        )
    # A window ending exactly at the profile end is kept; one past it is not.
    end = k + 1 if hi[k] == n else k
    if end == 0:
        raise ParameterError(
            f"profile of {n / base_rate:.6g} s ends before the first output sample "
            f"at t={t[0]:.6g} s"
        )
    return t[:end], lo[:end].astype(np.intp), hi[:end].astype(np.intp)


def _window_means(v: np.ndarray, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """Per-window ``v[lo:hi].mean()``, bit for bit.

    Windows are gathered into one 2-D block per width, whose row means sum
    in the same (pairwise) order as a 1-D ``.mean()``.
    """
    widths = hi - lo
    means = np.empty(len(lo))
    order = np.argsort(widths, kind="stable")
    groups = np.split(order, np.flatnonzero(np.diff(widths[order])) + 1)
    for sel in groups:
        if len(sel):
            means[sel] = v[lo[sel, None] + np.arange(widths[sel[0]])].mean(axis=1)
    return means


def _majority(labels: np.ndarray, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """Majority label per window; ties go to the label of the latest tied
    base sample."""
    best = np.zeros(len(lo), dtype=np.uint8)
    best_count = np.full(len(lo), -1)
    best_last = np.full(len(lo), -1)
    for lab in np.flatnonzero(np.bincount(labels)):
        at = np.flatnonzero(labels == lab)
        upto_hi = np.searchsorted(at, hi)
        count = upto_hi - np.searchsorted(at, lo)
        # Meaningless where count is 0; such a label never wins a window,
        # since every window holds at least one sample.
        last = at[upto_hi - 1]
        wins = (count > best_count) | ((count == best_count) & (last > best_last))
        best[wins] = lab
        best_count[wins] = count[wins]
        best_last[wins] = last[wins]
    return best


def _window_labels(labels: np.ndarray, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """:func:`_majority`'s labels; a window inside one label run needs no vote."""
    runs = np.flatnonzero(labels[1:] != labels[:-1]) + 1  # where each later run starts
    first, last = np.searchsorted(runs, lo, "right"), np.searchsorted(runs, hi - 1, "right")
    mixed = np.flatnonzero(first != last)
    best = labels[lo]
    best[mixed] = _majority(labels, lo[mixed], hi[mixed])
    return best


def resample(
    profile: SampledSignal, spec: RateSpec, rng: RandomSource
) -> SampledSignal:
    """Resample a base-rate profile to the target rate spec.

    Base sample i represents the interval ending at (i+1)/base_rate. Each
    output sample at clock t_curr is the mean over base samples in
    (t_prev, t_curr]; its label is the window's majority label, ties broken
    by the latest base sample.

    One rate is drawn per output sample, plus the draw that ends sampling
    (the first window reaching past the profile end, which is dropped). A
    profile that ends before the first output sample raises ParameterError.
    At a fixed rate the k-th clock time is k / rate; at a fluctuating rate
    clock times are running sums of 1/rate taken left to right. Each
    window mean equals numpy's ``.mean()`` of that window alone, so the
    result does not depend on how the windows are computed together.
    """
    n = len(profile)
    if profile.base_rate is None:
        raise ParameterError("can only resample a signal at a base rate")
    if n == 0:
        raise ParameterError("cannot resample an empty profile")
    if spec.rate.max > profile.base_rate:
        raise ParameterError(
            f"target rate max {spec.rate.max:.6g} Hz exceeds base rate "
            f"{profile.base_rate:.6g} Hz"
        )
    t, lo, hi = _window_ends(n, profile.base_rate, spec, rng)
    return SampledSignal(
        t,
        _window_means(profile.velocities, lo, hi),
        _window_labels(profile.labels, lo, hi),
    )
