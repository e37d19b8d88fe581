"""Bounded draws, label runs, signal types and the seeded randomness contract.

All stochastic quantities in the simulator are drawn through
:func:`sample_bounded` from a :class:`~gazeforge.params.BoundedDistribution`,
so that every draw is clamped to explicit bounds and fully reproducible from
a single seed.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import MappingError, ParameterError
from .params import BoundedDistribution, DistKind, MovementLabel
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


def sample_bounded_many(dist: BoundedDistribution, n: int, rng: RandomSource) -> np.ndarray:
    """Vectorized :func:`sample_bounded` (same per-draw semantics)."""
    if dist.min == dist.max:
        if dist.kind == DistKind.UNIFORM:
            rng.uniforms(n)
        else:
            rng.normals(n)
        return np.full(n, dist.min, dtype=float)
    if dist.kind == DistKind.UNIFORM:
        return dist.min + rng.uniforms(n) * (dist.max - dist.min)
    mu = 0.5 * (dist.min + dist.max)
    return np.clip(mu + dist.std * rng.normals(n), dist.min, dist.max)


@dataclass
class VelocityProfile:
    """Uniformly sampled velocity magnitude signal with per-sample labels."""

    base_rate: float
    velocities: np.ndarray
    labels: np.ndarray  # dtype uint8, MovementLabel values

    def __post_init__(self):
        if self.base_rate <= 0:
            raise ParameterError(f"base_rate must be > 0, got {self.base_rate}")
        self.velocities = np.asarray(self.velocities, dtype=float)
        self.labels = np.asarray(self.labels, dtype=np.uint8)
        if self.velocities.shape != self.labels.shape:
            raise ParameterError("velocities and labels must have equal length")

    def __len__(self) -> int:
        return len(self.velocities)

    @classmethod
    def concat(cls, parts: list["VelocityProfile"]) -> "VelocityProfile":
        if not parts:
            raise ParameterError("cannot concatenate zero profiles")
        rate = parts[0].base_rate
        for p in parts:
            if p.base_rate != rate:
                raise ParameterError("profiles have differing base rates")
        return cls(
            rate,
            np.concatenate([p.velocities for p in parts]),
            np.concatenate([p.labels for p in parts]),
        )
