"""Bounded draws, label runs, the data types the stages share, and the seeded
randomness contract.

All stochastic quantities in the simulator are drawn through
:func:`sample_bounded` from a :class:`~gazeforge.params.BoundedDistribution`,
so that every draw is clamped to explicit bounds and fully reproducible from
a single seed.
"""
from __future__ import annotations

import numpy as np

from .errors import MappingError, ParameterError
from .params import BoundedDistribution, DistKind, MovementLabel, record
from .params import LABEL_NAMES  # noqa: F401  (perfbench imports it from core)

MASK64 = (1 << 64) - 1


def effective_labels(labels: np.ndarray) -> np.ndarray:
    """Assign each NOISE sample the movement type of its surrounding run.

    NOISE takes the label of the last real sample before it; leading NOISE
    takes the first real label.
    """
    labels = np.asarray(labels)
    real = labels != int(MovementLabel.NOISE)
    if not real.any():
        raise MappingError("signal contains only noise samples")
    # Index of the latest real sample at or before each position; leading
    # NOISE points at the first real sample.
    first = int(np.argmax(real))
    src = np.where(real, np.arange(len(labels)), first)
    np.maximum.accumulate(src, out=src)
    return labels[src]


def label_runs(labels: np.ndarray) -> list[tuple[int, int, int]]:
    """(start, end, label) for each maximal constant run; end is exclusive."""
    labels = np.asarray(labels)
    n = len(labels)
    if n == 0:
        return []
    bounds = [0, *(np.flatnonzero(labels[1:] != labels[:-1]) + 1).tolist(), n]
    return [
        (start, end, int(labels[start])) for start, end in zip(bounds, bounds[1:])
    ]


def window_means(v: np.ndarray, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
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


class RandomSource:
    """Seeded PRNG wrapper (PCG64).

    A single RandomSource is single-owner: the same seed and the same call
    sequence yield the same draws. Derived sources for independent sub-tasks
    come from :meth:`derive`, which mixes integer keys into the seed material
    deterministically.
    """

    def __init__(self, seed: int):
        self.seed = int(seed) & MASK64
        self._gen = np.random.Generator(np.random.PCG64(self.seed))

    def uniform(self) -> float:
        """One draw in [0, 1)."""
        return float(self._gen.random())

    def uniforms(self, n: int) -> np.ndarray:
        return self._gen.random(n)

    def normal(self) -> float:
        """One unit-normal draw."""
        return float(self._gen.standard_normal())

    def normals(self, n: int) -> np.ndarray:
        return self._gen.standard_normal(n)

    def shuffle(self, items: list) -> None:
        self._gen.shuffle(items)

    def derive(self, *keys: int) -> "RandomSource":
        """Independent child source determined by (seed, keys)."""
        ss = np.random.SeedSequence([self.seed, *[int(k) & MASK64 for k in keys]])
        child = RandomSource.__new__(RandomSource)
        child.seed = int(ss.generate_state(1, np.uint64)[0])
        child._gen = np.random.Generator(np.random.PCG64(ss))
        return child


def sample_bounded(dist: BoundedDistribution, rng: RandomSource) -> float:
    """Draw one value from ``dist``, guaranteed inside [dist.min, dist.max]."""
    if dist.min == dist.max:
        # Consume one draw anyway so the draw sequence does not depend on
        # whether bounds happen to be degenerate.
        if dist.kind == DistKind.UNIFORM:
            rng.uniform()
        else:
            rng.normal()
        return dist.min
    if dist.kind == DistKind.UNIFORM:
        return dist.min + rng.uniform() * (dist.max - dist.min)
    mu = 0.5 * (dist.min + dist.max)
    v = mu + dist.std * rng.normal()
    return min(max(v, dist.min), dist.max)


def unit_draws(kind: DistKind, n: int, rng: RandomSource) -> np.ndarray:
    """The n uniforms or unit normals, by ``kind``, of :func:`sample_bounded_many`."""
    return rng.uniforms(n) if kind == DistKind.UNIFORM else rng.normals(n)


def bounded_values(dist: BoundedDistribution, u: np.ndarray) -> np.ndarray:
    """:func:`sample_bounded_many`'s values from its :func:`unit_draws` ``u``, in place."""
    if dist.min == dist.max:
        u.fill(dist.min)
    elif dist.kind == DistKind.UNIFORM:
        u *= dist.max - dist.min
        u += dist.min
    else:
        u *= dist.std
        u += 0.5 * (dist.min + dist.max)
        np.clip(u, dist.min, dist.max, out=u)
    return u


def sample_bounded_many(dist: BoundedDistribution, n: int, rng: RandomSource) -> np.ndarray:
    """Vectorized :func:`sample_bounded` (same per-draw semantics)."""
    return bounded_values(dist, unit_draws(dist.kind, n, rng))


class SampledSignal:
    """Velocity samples (deg/s) with movement labels and timestamps (s).

    A signal at a fixed base rate, made by :meth:`at_rate`, keeps that exact
    rate, which :func:`~gazeforge.resampler.resample` needs (``1/(1/997.3)``
    is not 997.3). Its timestamps, (i+1)/base_rate for sample i, are
    computed when they are first read. Any other signal has ``base_rate``
    None.
    """

    base_rate: float | None = None

    def __init__(self, timestamps, velocities, labels):
        # timestamps is None only for a signal made by at_rate.
        self._timestamps = None if timestamps is None else np.asarray(timestamps, dtype=float)
        self.velocities = np.asarray(velocities, dtype=float)
        self.labels = np.asarray(labels, dtype=np.uint8)
        n = len(self.velocities)
        if len(self.labels) != n or timestamps is not None and len(self._timestamps) != n:
            raise ParameterError("signal arrays must have equal length")

    @classmethod
    def at_rate(cls, base_rate: float, velocities, labels) -> "SampledSignal":
        if not base_rate > 0:
            raise ParameterError(f"base_rate must be > 0, got {base_rate}")
        signal = cls(None, velocities, labels)
        signal.base_rate = base_rate
        return signal

    @property
    def timestamps(self) -> np.ndarray:
        if self._timestamps is None:
            self._timestamps = np.arange(1, len(self) + 1) / self.base_rate
        return self._timestamps

    def __len__(self) -> int:
        return len(self.velocities)

    def copy(self) -> "SampledSignal":
        v, labels = self.velocities.copy(), self.labels.copy()
        if self.base_rate is None:
            return SampledSignal(self.timestamps.copy(), v, labels)
        return SampledSignal.at_rate(self.base_rate, v, labels)


@record
class GazeTrace:
    """Timestamped 2D gaze samples (px) with movement labels."""

    timestamps: np.ndarray
    x: np.ndarray
    y: np.ndarray
    labels: np.ndarray
    width: int
    height: int
    pixels_per_degree: float

    def __post_init__(self):
        self.timestamps = np.asarray(self.timestamps, dtype=float)
        self.x = np.asarray(self.x, dtype=float)
        self.y = np.asarray(self.y, dtype=float)
        self.labels = np.asarray(self.labels, dtype=np.uint8)
        n = len(self.timestamps)
        if not (len(self.x) == len(self.y) == len(self.labels) == n):
            raise ParameterError("gaze trace arrays must have equal length")

    def __len__(self) -> int:
        return len(self.timestamps)


@record
class TargetSet:
    """Candidate fixation targets (x, y, weight) inside a stimulus."""

    points: list[tuple[float, float, float]] = []  # a fresh list per instance
    width: int = 0
    height: int = 0

    def __len__(self) -> int:
        return len(self.points)
