"""Bounded-distribution sampling, seeded randomness and the shared types."""
from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gazeforge import core, mapping, resampler, saliency
from gazeforge.core import RandomSource, SampledSignal, sample_bounded, sample_bounded_many
from gazeforge.errors import ParameterError
from gazeforge.params import BoundedDistribution, DistKind

from conftest import ScriptedRng


def test_degenerate_bounds_exact(rng):
    dist = BoundedDistribution.uniform(5.0, 5.0)
    assert sample_bounded(dist, rng) == 5.0
    dist = BoundedDistribution.normal(5.0, 5.0, 3.0)
    assert sample_bounded(dist, rng) == 5.0


def test_uniform_is_affine_map_of_unit_draw():
    dist = BoundedDistribution.uniform(0.0, 1.0)
    assert sample_bounded(dist, ScriptedRng(uniforms=[0.25])) == 0.25
    dist = BoundedDistribution.uniform(10.0, 30.0)
    assert sample_bounded(dist, ScriptedRng(uniforms=[0.5])) == 20.0


def test_normal_mean_at_midpoint_of_bounds():
    # Clamping at symmetric bounds preserves the mean; Monte-Carlo oracle.
    dist = BoundedDistribution.normal(0.0, 10.0, 2.0)
    rng = RandomSource(7)
    draws = sample_bounded_many(dist, 100_000, rng)
    assert abs(draws.mean() - 5.0) < 0.05


def test_normal_wide_bounds_std_within_2pct():
    std = 3.0
    dist = BoundedDistribution.normal(5.0 - 10 * std, 5.0 + 10 * std, std)
    draws = sample_bounded_many(dist, 100_000, RandomSource(11))
    assert abs(draws.std() - std) / std < 0.02


def test_unit_primitives_statistics():
    rng = RandomSource(3)
    u = rng.uniforms(100_000)
    assert u.min() >= 0.0 and u.max() < 1.0
    n = RandomSource(4).normals(100_000)
    assert abs(n.mean()) < 0.02
    assert abs(n.var() - 1.0) < 0.01


@given(
    lo=st.floats(-1e3, 1e3),
    span=st.floats(0, 1e3),
    std=st.floats(0, 100),
    kind=st.sampled_from([DistKind.UNIFORM, DistKind.NORMAL]),
    seed=st.integers(0, 2**32),
)
@settings(max_examples=200, deadline=None)
def test_samples_always_within_bounds(lo, span, std, kind, seed):
    dist = BoundedDistribution(kind, lo, lo + span, std)
    rng = RandomSource(seed)
    for _ in range(5):
        v = sample_bounded(dist, rng)
        assert dist.min <= v <= dist.max


@pytest.mark.parametrize(
    "lo,hi,std",
    [(1.0, 0.0, 0.0), (0.0, 1.0, -1.0)],
)
def test_invalid_parameters_rejected(lo, hi, std):
    with pytest.raises(ParameterError):
        BoundedDistribution(DistKind.NORMAL, lo, hi, std)


def test_equal_seeds_equal_draws():
    a, b = RandomSource(99), RandomSource(99)
    assert [a.uniform() for _ in range(50)] == [b.uniform() for _ in range(50)]
    assert list(a.normals(50)) == list(b.normals(50))


def test_different_seeds_differ():
    assert RandomSource(1).uniform() != RandomSource(2).uniform()


def test_derive_is_deterministic_and_independent():
    a = RandomSource(5).derive(3, 7)
    b = RandomSource(5).derive(3, 7)
    c = RandomSource(5).derive(3, 8)
    assert a.uniform() == b.uniform()
    assert a.uniform() != c.uniform()


def test_shared_types_resolve_from_the_stages_that_use_them():
    assert resampler.SampledSignal is core.SampledSignal
    assert mapping.GazeTrace is core.GazeTrace
    assert saliency.TargetSet is mapping.TargetSet is core.TargetSet


def test_base_rate_signal_keeps_its_rate_and_derives_timestamps():
    sig = SampledSignal.at_rate(997.3, [1.0, 2.0, 3.0], [0, 1, 2])
    assert sig.base_rate == 997.3  # not 1 / (1 / 997.3)
    assert sig.timestamps.tobytes() == (np.arange(1, 4) / 997.3).tobytes()
    assert SampledSignal([0.1, 0.2, 0.3], [1.0, 2.0, 3.0], [0, 1, 2]).base_rate is None


@pytest.mark.parametrize("rate", [0.0, -5.0, float("nan")])
def test_at_rate_rejects_a_rate_that_is_not_positive(rate):
    with pytest.raises(ParameterError, match="base_rate"):
        SampledSignal.at_rate(rate, [1.0], [0])


def test_signal_arrays_must_have_equal_length():
    with pytest.raises(ParameterError, match="equal length"):
        SampledSignal([0.1], [1.0, 2.0], [0, 0])
    with pytest.raises(ParameterError, match="equal length"):
        SampledSignal.at_rate(100.0, [1.0, 2.0], [0])


def test_copy_keeps_the_kind_of_signal_and_owns_its_arrays():
    for sig in (SampledSignal.at_rate(50.0, [1.0, 2.0], [0, 1]),
                SampledSignal([0.5, 0.7], [1.0, 2.0], [0, 1])):
        out = sig.copy()
        out.velocities[0] = out.labels[0] = 9
        assert (sig.velocities[0], sig.labels[0]) == (1.0, 0)
        assert out.base_rate == sig.base_rate
        assert out.timestamps.tobytes() == sig.timestamps.tobytes()
