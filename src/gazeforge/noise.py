"""Noise injection: overwrite a fixed fraction of samples with noise velocities."""
from __future__ import annotations

import numpy as np

from .core import RandomSource, SampledSignal, sample_bounded_many
from .params import MODE_ADD, DistKind, MovementLabel, NoiseSpec


def _draw_index(n: int, dist: DistKind, rng: RandomSource) -> int:
    if dist == DistKind.UNIFORM:
        return min(int(rng.uniform() * n), n - 1)
    # Normal placement: centered mid-signal with std n/4, clamped.
    idx = int(round(n / 2.0 + (n / 4.0) * rng.normal()))
    return min(max(idx, 0), n - 1)


def _select_indices(n: int, k: int, spec: NoiseSpec, rng: RandomSource) -> list[int]:
    """Exactly k distinct indices; collisions are re-drawn, with a
    deterministic sweep fallback so selection always terminates."""
    chosen: set[int] = set()
    burst = spec.burst_length
    attempts = 0
    max_attempts = 200 * max(n, 1)
    while len(chosen) < k and attempts < max_attempts:
        attempts += 1
        if burst == 1:
            idx = _draw_index(n, spec.location_dist, rng)
            if idx in chosen:
                continue
            chosen.add(idx)
        else:
            run = min(burst, k - len(chosen))
            start = _draw_index(n, spec.location_dist, rng)
            start = min(start, n - run)
            block = range(start, start + run)
            if any(i in chosen for i in block):
                continue
            chosen.update(block)
    if len(chosen) < k:
        for i in range(n):
            if i not in chosen:
                chosen.add(i)
                if len(chosen) == k:
                    break
    return sorted(chosen)


def inject_noise(
    signal: SampledSignal, spec: NoiseSpec, rng: RandomSource
) -> SampledSignal:
    """Overwrite round(fraction*N) samples with noise draws; all other samples
    are returned unchanged. Affected samples are relabeled NOISE."""
    out = signal.copy()
    n = len(signal)
    k = int(round(spec.fraction * n))
    if k == 0:
        return out
    indices = _select_indices(n, k, spec, rng)
    # One magnitude per index in index order, as drawn one at a time.
    mags = sample_bounded_many(spec.magnitude, len(indices), rng)
    if spec.mode == MODE_ADD:
        s = out.velocities[indices] + mags
        mags = np.where(s > 0.0, s, 0.0)  # max(0.0, s), also for -0.0 and NaN
    out.velocities[indices] = mags
    out.labels[indices] = MovementLabel.NOISE
    return out
