"""Shared test helpers."""
from __future__ import annotations

import numpy as np
import pytest

from gazeforge.core import RandomSource
from gazeforge.params import BoundedDistribution


class ScriptedRng:
    """RandomSource stand-in replaying scripted draws, for hand oracles."""

    def __init__(self, uniforms=(), normals=()):
        self._u = list(uniforms)
        self._n = list(normals)

    def uniform(self):
        return self._u.pop(0)

    def normal(self):
        return self._n.pop(0)

    def uniforms(self, n):
        return np.array([self.uniform() for _ in range(n)])

    def normals(self, n):
        return np.array([self.normal() for _ in range(n)])


@pytest.fixture
def rng():
    return RandomSource(12345)


def fixed(v: float) -> BoundedDistribution:
    return BoundedDistribution.fixed(v)
