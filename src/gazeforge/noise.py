"""Noise injection: overwrite a fixed fraction of samples with noise velocities."""
from __future__ import annotations

import numpy as np

from .core import RandomSource, SampledSignal, sample_bounded_many
from .params import MODE_ADD, DistKind, MovementLabel, NoiseSpec


def _draw_indices(n: int, m: int, dist: DistKind, rng: RandomSource) -> np.ndarray:
    if dist == DistKind.UNIFORM:
        return np.minimum((rng.uniforms(m) * n).astype(np.intp), n - 1)
    # Normal placement: centered mid-signal with std n/4, rounded, clamped.
    idx = np.rint(n / 2.0 + (n / 4.0) * rng.normals(m)).astype(np.intp)
    return np.clip(idx, 0, n - 1)


def _select_indices(n: int, k: int, spec: NoiseSpec, rng: RandomSource) -> list[int]:
    """Exactly k distinct indices; collisions are re-drawn, with a
    deterministic sweep fallback so selection always terminates. Each round
    draws as one block the fewest attempts that could complete the
    selection; only its last draw can, so the draws are those of one attempt
    at a time."""
    chosen: set[int] = set()
    burst = spec.burst_length
    attempts = 0
    max_attempts = 200 * max(n, 1)
    while len(chosen) < k and attempts < max_attempts:
        m = min(-(-(k - len(chosen)) // burst), max_attempts - attempts)
        attempts += m
        starts = _draw_indices(n, m, spec.location_dist, rng).tolist()
        if burst == 1:
            chosen.update(starts)
            continue
        for start in starts:
            run = min(burst, k - len(chosen))
            start = min(start, n - run)
            block = range(start, start + run)
            if not any(i in chosen for i in block):
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
