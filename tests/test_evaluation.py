"""Re-simulation of labeled runs, the saccade shape fit and squared-error
statistics."""
from __future__ import annotations

import numpy as np
import pytest
from scipy.stats import gamma as sp_gamma

from gazeforge import evaluation, generators
from gazeforge.core import RandomSource, label_runs
from gazeforge.errors import ParameterError
from gazeforge.evaluation import (
    _estimated_shape,
    _mode_index,
    _root,
    evaluate_dataset,
    fit_shape_for_peak_index,
)
from gazeforge.generators import GAMMA_TAIL_QUANTILE, gamma_profile, gen_saccade, skew_to_shape
from gazeforge.params import BoundedDistribution, MovementLabel, SaccadeParams

from conftest import fixed

F = MovementLabel.FIXATION
S = MovementLabel.SACCADE
SP = MovementLabel.SMOOTH_PURSUIT
NOISE = MovementLabel.NOISE


def resimulate(label, seg, z):
    """Reference re-simulation of one labeled run ``seg``: a saccade as the
    Gamma profile fitted to its peak and peak index, a fixation or pursuit
    as its mean and ddof-1 std applied to the unit normals ``z`` (one row
    per repeat), clipped to 10 std around the mean and at 0."""
    n = len(seg)
    if label == S:
        idx = int(np.argmax(seg))
        if n < 2:
            return np.full(n, seg[idx])
        return gamma_profile(n, fit_shape_for_peak_index(n, idx)[0], seg[idx])
    mu = seg.mean()
    sd = seg.std(ddof=1) if n > 1 else 0.0
    return np.maximum(0.0, np.clip(mu + sd * z, mu - 10.0 * sd, mu + 10.0 * sd))


def block_normals(rng, i, repeats, n):
    """Random stream v2: the i-th segment's repeats as one block of normals
    from the i-th derived stream, one row per repeat."""
    return rng.derive(i).normals(repeats * n).reshape(repeats, n)


def evaluate_dataset_loop(velocities, labels, rng, repeats, normals=block_normals):
    """Pooled errors of every non-noise run in run order, re-simulated one
    repeat per loop turn with the rows of ``normals(rng, i, repeats, n)``
    for the i-th run."""
    pooled = {}
    runs = [(s, e, MovementLabel(lab)) for s, e, lab in label_runs(labels) if lab != NOISE]
    for i, (start, end, label) in enumerate(runs):
        seg = velocities[start:end]
        for z in normals(rng, i, repeats, len(seg)):
            pooled.setdefault(label, []).append((resimulate(label, seg, z) - seg) ** 2)
    return {label: np.concatenate(chunks) for label, chunks in pooled.items()}


def assert_matches_reference(velocities, labels, seed, repeats):
    velocities = np.asarray(velocities, dtype=float)
    got = evaluate_dataset(velocities, labels, RandomSource(seed), repeats).pooled
    want = evaluate_dataset_loop(velocities, labels, RandomSource(seed), repeats)
    assert list(got) == list(want)
    for label in want:
        assert got[label].tobytes() == want[label].tobytes(), label
    return got


def test_extract_fixation_mean_std():
    v = np.array([1.0, 2.0, 3.0, 4.0])
    got = assert_matches_reference(v, np.full(4, F, dtype=np.uint8), 3, 5)
    z = RandomSource(3).derive(0).normals(20).reshape(5, 4)
    sim = np.maximum(0.0, 2.5 + np.std(v, ddof=1) * z)  # 10 std never clips
    assert np.allclose(got[F], ((sim - v) ** 2).ravel(), rtol=1e-12, atol=0.0)


def test_extract_saccade_peak_and_index():
    v = np.array([10.0, 50.0, 400.0, 80.0, 5.0])
    got = assert_matches_reference(v, np.full(5, S, dtype=np.uint8), 0, 2)
    # No error at the peak: the profile reproduces it exactly, at index 2.
    assert got[S][2] == got[S][7] == 0.0


def test_extract_skips_noise_runs():
    labels = np.array([F, F, NOISE, NOISE, S, S, S], dtype=np.uint8)
    got = assert_matches_reference(np.arange(1.0, 8.0), labels, 4, 3)
    assert {label: len(e) for label, e in got.items()} == {F: 6, S: 9}


def test_extract_splits_runs_in_order():
    labels = np.array([F] * 3 + [S] * 4 + [F] * 2 + [SP] * 5, dtype=np.uint8)
    v = np.random.default_rng(2).uniform(1.0, 300.0, 14)
    got = assert_matches_reference(v, labels, 6, 2)
    assert [(label, len(e)) for label, e in got.items()] == [(F, 10), (S, 8), (SP, 10)]


def test_extract_length_mismatch_rejected():
    with pytest.raises(ParameterError, match="equal length"):
        evaluate_dataset(np.zeros(3), np.zeros(4, dtype=np.uint8), RandomSource(0))


@pytest.mark.parametrize("length,peak_index", [(50, 5), (50, 20), (100, 3), (200, 150)])
def test_fitted_shape_reproduces_peak_index(length, peak_index):
    shape, exact = fit_shape_for_peak_index(length, peak_index)
    assert exact
    v = gamma_profile(length, shape, 100.0)
    assert abs(int(np.argmax(v)) - peak_index) <= 1


def test_fitted_shape_mode_oracle():
    # Independent check: the fitted shape's analytic mode position equals
    # the requested index.
    shape, _ = fit_shape_for_peak_index(80, 25)
    x_end = sp_gamma.ppf(GAMMA_TAIL_QUANTILE, shape)
    assert 79 * (shape - 1.0) / x_end == pytest.approx(25.0, abs=1e-6)


def test_peak_at_zero_gives_shape_one():
    shape, exact = fit_shape_for_peak_index(50, 0)
    assert shape == 1.0 and exact


# (length, peak index) of saccade runs: two and three samples, early, middle
# and late peaks, and peaks at the last sample, which no shape reaches.
FIT_CORPUS = [
    (2, 1), (3, 1), (5, 3), (12, 4), (30, 2), (30, 15), (30, 28), (60, 18), (80, 25),
    (100, 3), (200, 150), (301, 150), (1000, 999), (5000, 1), (5000, 4999),
]


def _full_bracket_fit(length, peak_index):
    """The fit as the solver gives it from the whole shape range."""
    def f(k):
        return _mode_index(k, length) - peak_index

    if f(1e8) < 0:
        return 1e8, False
    shape = _root(f, 1.0 + 1e-9, 1e8, xtol=1e-9, rtol=1e-12)
    return shape, abs(_mode_index(shape, length) - peak_index) <= 1.0


def test_shape_fits_count_tail_quantiles(monkeypatch):
    # Each uncached tail quantile is one gammaincinv call; from the whole
    # range [1 + 1e-9, 1e8] this corpus takes 165 of them.
    calls = []
    real = generators.gammaincinv
    monkeypatch.setattr(generators, "gammaincinv", lambda a, p: calls.append(a) or real(a, p))
    generators.gamma_tail.cache_clear()
    try:
        fits = [fit_shape_for_peak_index(n, k) for n, k in FIT_CORPUS]
    finally:
        generators.gamma_tail.cache_clear()
    assert len(calls) == 75
    for (n, k), (shape, exact) in zip(FIT_CORPUS, fits):
        want, want_exact = _full_bracket_fit(n, k)
        assert exact == want_exact
        assert abs(shape - want) <= 1e-9 + 1e-12 * want, (n, k)


def test_root_keeps_bracket_ends_and_iteration_limit():
    # An end where f is 0 is the root; too few steps raise.
    def f(x):
        return x**3 - 2 * x - 5

    assert _root(lambda x: x - 1.0, 1.0, 3.0, xtol=1e-9, rtol=1e-12) == 1.0
    assert _root(lambda x: x - 3.0, 1.0, 3.0, xtol=1e-9, rtol=1e-12) == 3.0
    assert _root(f, 2.0, 3.0, xtol=1e-9, rtol=1e-12) == pytest.approx(2.0945514815, abs=1e-9)
    for maxiter in (0, 2):
        with pytest.raises(RuntimeError):
            _root(f, 2.0, 3.0, xtol=1e-9, rtol=1e-12, maxiter=maxiter)


def test_shape_fit_falls_back_to_the_whole_range(monkeypatch):
    # An estimate whose 5 % bracket misses the root, below or above it, gives
    # the bits of the whole-range fit.
    # (Half the estimate, at least 1, misses only roots above 1.05.)
    estimated_shape = evaluation._estimated_shape
    for factor in (0.5, 2.0):
        monkeypatch.setattr(
            evaluation, "_estimated_shape",
            lambda ratio: max(1.0, factor * estimated_shape(ratio)),
        )
        for n, k in FIT_CORPUS:
            want = _full_bracket_fit(n, k)
            if factor > 1 or want[0] > 1.1:
                assert fit_shape_for_peak_index(n, k) == want


def test_estimated_shape_is_within_the_bracket():
    for length in (3, 7, 20, 51, 300, 4000):
        for peak_index in {1, max(1, length // 5), length // 2, length - 2}:
            shape, exact = _full_bracket_fit(length, peak_index)
            if not exact:  # a peak no shape reaches: the fit stops at 1e8
                continue
            estimate = _estimated_shape(peak_index / (length - 1))
            assert abs(estimate / shape - 1.0) < 0.04, (length, peak_index)


def test_simulated_saccade_matches_descriptor():
    # On a run that is 0 but for its peak, the errors give the simulation:
    # sim = sqrt(error) off the peak and 350 - sqrt(error) at it.
    v = np.zeros(60)
    v[18] = 350.0
    err = evaluate_dataset(v, np.full(60, S, dtype=np.uint8), RandomSource(0), 1).pooled[S]
    sim = np.sqrt(err)
    sim[18] = 350.0 - sim[18]
    assert len(sim) == 60
    assert sim.max() == pytest.approx(350.0, rel=1e-9)
    assert abs(int(np.argmax(sim)) - 18) <= 1


def test_squared_error_hand_values():
    # A two-sample saccade peaking at its end is [0, peak]; a one-sample
    # fixation is its own value.
    v = np.array([2.0, 5.0, 99.0, 7.0])
    labels = np.array([S, S, NOISE, F], dtype=np.uint8)
    got = evaluate_dataset(v, labels, RandomSource(0), repeats=2).pooled
    assert np.array_equal(got[S], [4.0, 0.0, 4.0, 0.0])
    assert np.array_equal(got[F], [0.0, 0.0])


def test_squared_error_shape_mismatch():
    with pytest.raises(ParameterError, match="equal length"):
        evaluate_dataset(np.zeros(5), np.zeros(3, dtype=np.uint8), RandomSource(0))


def make_dataset():
    rng = np.random.default_rng(11)
    v = np.concatenate([
        np.abs(rng.normal(2.0, 0.5, 200)),
        gamma_profile(60, 4.0, 420.0),
        np.abs(rng.normal(15.0, 1.0, 300)),
        gamma_profile(40, 6.0, 310.0),
        np.abs(rng.normal(1.5, 0.4, 150)),
    ])
    labels = np.concatenate([
        np.full(200, F), np.full(60, S), np.full(300, SP),
        np.full(40, S), np.full(150, F),
    ]).astype(np.uint8)
    return v, labels


def test_evaluate_covers_all_types():
    v, labels = make_dataset()
    s = evaluate_dataset(v, labels, RandomSource(1), repeats=3)
    assert set(s.per_type) == {F, S, SP}


def test_evaluate_pooled_counts():
    v, labels = make_dataset()
    s = evaluate_dataset(v, labels, RandomSource(1), repeats=3)
    assert s.per_type[F].count == 3 * (200 + 150)
    assert s.per_type[S].count == 3 * (60 + 40)
    assert s.per_type[SP].count == 3 * 300


def test_evaluate_deterministic():
    v, labels = make_dataset()
    a = evaluate_dataset(v, labels, RandomSource(5), repeats=2)
    b = evaluate_dataset(v, labels, RandomSource(5), repeats=2)
    for lab in a.pooled:
        assert np.array_equal(a.pooled[lab], b.pooled[lab])


def test_saccade_error_near_zero_for_model_generated():
    # A saccade that IS a Gamma profile must be re-simulated almost exactly.
    v = gamma_profile(80, 4.0, 400.0)
    labels = np.full(80, S, dtype=np.uint8)
    s = evaluate_dataset(v, labels, RandomSource(0), repeats=1)
    rmse = np.sqrt(s.per_type[S].mean)
    assert rmse <= 0.01 * 400.0


def test_stats_ordering_invariants():
    v, labels = make_dataset()
    s = evaluate_dataset(v, labels, RandomSource(2), repeats=2)
    for st in s.per_type.values():
        assert st.min <= st.whisker_low <= st.q1 <= st.median <= st.q3
        assert st.q3 <= st.whisker_high <= st.max
        iqr = st.q3 - st.q1
        assert st.whisker_high <= st.q3 + 1.5 * iqr + 1e-12
        assert st.whisker_low >= st.q1 - 1.5 * iqr - 1e-12


def test_invalid_repeats_rejected():
    with pytest.raises(ParameterError):
        evaluate_dataset(np.zeros(5), np.zeros(5, dtype=np.uint8), RandomSource(0), repeats=0)


def test_whiskers_hand_oracle():
    # One fixation of 9 constant samples plus a forced spread via repeats is
    # overkill; instead exercise _stats indirectly through a dataset whose
    # errors we can bound: constant zero fixation, zero std -> all errors 0.
    v = np.zeros(10)
    labels = np.full(10, F, dtype=np.uint8)
    s = evaluate_dataset(v, labels, RandomSource(3), repeats=2)
    st = s.per_type[F]
    assert st.mean == st.median == st.min == st.max == 0.0


@pytest.mark.parametrize("skew", [0.6, 0.8, 1.0, 1.5])
def test_shape_fit_recovers_generated_skewness(skew):
    # Round trip: jitter-free saccades of 30-80 ms at 1000 Hz, fitted from
    # their length and argmax alone. Over seeds 0-199 the fitted / generated
    # shape ratio spanned 0.862-1.201 (widest at skewness 1.5, whose short
    # rise leaves the argmax few samples to place the mode) with medians
    # 0.999-1.031.
    spec = SaccadeParams(
        duration=BoundedDistribution.uniform(0.03, 0.08),
        peak_velocity=BoundedDistribution.uniform(200.0, 600.0),
        skewness=fixed(skew), consistency=fixed(0.0),
    )
    ratios = []
    for seed in range(200):
        v = gen_saccade(spec, 1000.0, RandomSource(seed)).velocities
        shape, exact = fit_shape_for_peak_index(len(v), int(np.argmax(v)))
        assert exact
        ratios.append(shape / skew_to_shape(skew))
    assert 0.85 <= min(ratios) and max(ratios) <= 1.21
    assert abs(np.median(ratios) - 1.0) <= 0.04
