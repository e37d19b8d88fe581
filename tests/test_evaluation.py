"""Descriptor extraction, re-simulation and squared-error statistics."""
from __future__ import annotations

import numpy as np
import pytest
from scipy.stats import gamma as sp_gamma

from gazeforge import evaluation, generators
from gazeforge.core import RandomSource, label_runs
from gazeforge.errors import ParameterError
from gazeforge.evaluation import (
    SegmentDescriptor,
    _brentq,
    _descriptor,
    _estimated_shape,
    _mode_index,
    evaluate_dataset,
    fit_shape_for_peak_index,
    simulate_from_descriptor,
    squared_error,
)
from gazeforge.generators import GAMMA_TAIL_QUANTILE, gamma_profile
from gazeforge.params import MovementLabel

F = MovementLabel.FIXATION
S = MovementLabel.SACCADE
SP = MovementLabel.SMOOTH_PURSUIT
NOISE = MovementLabel.NOISE


def extract_descriptors(velocities, labels) -> list[SegmentDescriptor]:
    """Reference: one descriptor per contiguous label run; noise runs are
    skipped."""
    velocities = np.asarray(velocities, dtype=float)
    labels = np.asarray(labels)
    if len(velocities) != len(labels):
        raise ParameterError("velocities and labels must have equal length")
    return [
        _descriptor(MovementLabel(lab), velocities[start:end])
        for start, end, lab in label_runs(labels)
        if lab != NOISE
    ]


def test_extract_fixation_mean_std():
    v = np.array([1.0, 2.0, 3.0, 4.0])
    d = extract_descriptors(v, np.full(4, F))
    assert len(d) == 1
    assert d[0].label == F and d[0].length == 4
    assert d[0].mean_velocity == pytest.approx(2.5)
    assert d[0].std_velocity == pytest.approx(np.std(v, ddof=1))


def test_extract_saccade_peak_and_index():
    v = np.array([10.0, 50.0, 400.0, 80.0, 5.0])
    d = extract_descriptors(v, np.full(5, S))
    assert d[0].peak_velocity == 400.0 and d[0].peak_index == 2


def test_extract_skips_noise_runs():
    labels = np.array([F, F, NOISE, NOISE, S, S, S])
    v = np.arange(7.0)
    d = extract_descriptors(v, labels)
    assert [x.label for x in d] == [F, S]


def test_extract_splits_runs_in_order():
    labels = np.array([F] * 3 + [S] * 4 + [F] * 2 + [SP] * 5)
    d = extract_descriptors(np.zeros(14), labels)
    assert [(x.label, x.length) for x in d] == [(F, 3), (S, 4), (F, 2), (SP, 5)]


def test_extract_length_mismatch_rejected():
    with pytest.raises(ParameterError):
        extract_descriptors(np.zeros(3), np.zeros(4))


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
    """The fit as Brent's method gives it from the whole shape range."""
    def f(k):
        return _mode_index(k, length) - peak_index

    if f(1e8) < 0:
        return 1e8, False
    shape = _brentq(f, 1.0 + 1e-9, 1e8, xtol=1e-9, rtol=1e-12)
    return shape, abs(_mode_index(shape, length) - peak_index) <= 1.0


def test_shape_fits_count_tail_quantiles(monkeypatch):
    # Each uncached tail quantile is one gammaincinv call; from the whole
    # range [1 + 1e-9, 1e8] this corpus takes 248 of them.
    calls = []
    real = generators.gammaincinv
    monkeypatch.setattr(generators, "gammaincinv", lambda a, p: calls.append(a) or real(a, p))
    generators.gamma_tail.cache_clear()
    try:
        fits = [fit_shape_for_peak_index(n, k) for n, k in FIT_CORPUS]
    finally:
        generators.gamma_tail.cache_clear()
    assert len(calls) == 77
    for (n, k), (shape, exact) in zip(FIT_CORPUS, fits):
        want, want_exact = _full_bracket_fit(n, k)
        assert exact == want_exact
        assert abs(shape - want) <= 1e-9 + 1e-12 * want, (n, k)


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


def test_simulated_saccade_matches_descriptor(rng):
    d = SegmentDescriptor(S, 60, peak_velocity=350.0, peak_index=18)
    sim = simulate_from_descriptor(d, rng)
    assert len(sim) == 60
    assert sim.max() == pytest.approx(350.0, rel=1e-9)
    assert abs(int(np.argmax(sim)) - 18) <= 1


def test_simulated_fixation_matches_moments():
    d = SegmentDescriptor(F, 20_000, mean_velocity=3.0, std_velocity=0.5)
    sim = simulate_from_descriptor(d, RandomSource(7))
    assert sim.mean() == pytest.approx(3.0, abs=0.02)
    assert sim.std(ddof=1) == pytest.approx(0.5, rel=0.05)
    assert np.all(sim >= 0.0)


def test_squared_error_hand_values():
    got = squared_error([1.0, 2.0, 5.0], [1.0, 4.0, 2.0])
    assert np.array_equal(got, [0.0, 4.0, 9.0])


def test_squared_error_shape_mismatch():
    with pytest.raises(ParameterError):
        squared_error(np.zeros(3), np.zeros(5))


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
