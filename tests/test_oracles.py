"""Vectorized helpers checked bit for bit against their scalar reference loops.

The loops below are the original per-sample implementations of the label
segmentation and velocity extraction used by mapping, remap and
evaluation. The fast versions must return identical bytes and raise the
same errors. The Gamma helpers are checked against ``scipy.stats.gamma``,
which they replace.
"""
from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.stats import gamma as sp_gamma

from gazeforge.core import MovementLabel, RandomSource
from gazeforge.errors import MappingError, ParameterError
from gazeforge.evaluation import (
    _mode_index,
    evaluate_dataset,
    extract_descriptors,
    simulate_from_descriptor,
    squared_error,
)
from gazeforge.generators import GAMMA_TAIL_QUANTILE, gamma_profile, gamma_tail
from gazeforge.mapping import (
    GazeTrace,
    _effective_labels,
    _label_runs,
    extract_velocities,
)

NOISE = int(MovementLabel.NOISE)


# --- reference loops ---

def effective_labels_loop(labels: np.ndarray) -> np.ndarray:
    out = labels.copy()
    noise = MovementLabel.NOISE
    last = None
    for i in range(len(out)):
        if out[i] != noise:
            last = out[i]
        elif last is not None:
            out[i] = last
    first = None
    for lab in out:
        if lab != noise:
            first = lab
            break
    if first is None:
        raise MappingError("signal contains only noise samples")
    for i in range(len(out)):
        if out[i] == noise:
            out[i] = first
        else:
            break
    return out


def label_runs_loop(labels: np.ndarray) -> list[tuple[int, int, int]]:
    runs = []
    start = 0
    for i in range(1, len(labels) + 1):
        if i == len(labels) or labels[i] != labels[start]:
            runs.append((start, i, int(labels[start])))
            start = i
    return runs


def extract_velocities_loop(trace: GazeTrace) -> np.ndarray:
    n = len(trace)
    if n < 2:
        raise ParameterError("need at least 2 samples to compute velocities")
    t, x, y = trace.timestamps, trace.x, trace.y
    v = np.empty(n)
    for i in range(n):
        a = max(i - 1, 0)
        b = min(i + 1, n - 1)
        dt = t[b] - t[a]
        if dt <= 0:
            raise ParameterError(f"non-increasing timestamps at sample {i}")
        v[i] = math.hypot(x[b] - x[a], y[b] - y[a]) / dt / trace.pixels_per_degree
    return v


def evaluate_dataset_loop(velocities, labels, rng, repeats):
    """Pooled errors with every segment re-described and re-simulated
    `repeats` times."""
    pooled = {}
    seg_index = 0
    for start, end, lab in label_runs_loop(labels):
        label = MovementLabel(lab)
        if label == MovementLabel.NOISE:
            continue
        seg = velocities[start:end]
        descr = extract_descriptors(seg, labels[start:end])[0]
        for rep in range(repeats):
            sim = simulate_from_descriptor(descr, rng.derive(seg_index, rep))
            pooled.setdefault(label, []).append(squared_error(sim.velocities, seg))
        seg_index += 1
    return {label: np.concatenate(chunks) for label, chunks in pooled.items()}


def outcome(fn, *args):
    """(result, None) or (None, (error type, message)) of fn(*args)."""
    try:
        return fn(*args), None
    except (MappingError, ParameterError) as e:
        return None, (type(e), str(e))


# --- label arrays: lengths 0, 1 and n, with NOISE at either end or throughout ---

_label = st.integers(0, 3)
label_arrays = st.one_of(
    st.just([]),
    st.lists(_label, min_size=1, max_size=1),
    st.lists(_label, min_size=2, max_size=60),
    st.tuples(
        st.integers(0, 5), st.lists(_label, max_size=30), st.integers(0, 5)
    ).map(lambda p: [NOISE] * p[0] + p[1] + [NOISE] * p[2]),
    st.integers(1, 10).map(lambda n: [NOISE] * n),
    st.lists(st.sampled_from([0, 3]), min_size=1, max_size=40),
).map(lambda xs: np.array(xs, dtype=np.uint8))


def _edge_examples(test):
    """Pin the edge cases: empty, all-NOISE, NOISE at either end, one sample."""
    for labels in ([], [NOISE], [NOISE] * 4, [NOISE, NOISE, 1, 0], [0, 1, NOISE, NOISE], [2]):
        test = example(np.array(labels, dtype=np.uint8))(test)
    return test


@settings(max_examples=300, deadline=None)
@given(label_arrays)
@_edge_examples
def test_effective_labels_matches_loop(labels):
    got, got_err = outcome(_effective_labels, labels)
    want, want_err = outcome(effective_labels_loop, labels)
    assert got_err == want_err
    if want_err is None:
        assert got.dtype == want.dtype
        assert got.tobytes() == want.tobytes()


@settings(max_examples=300, deadline=None)
@given(label_arrays)
@_edge_examples
def test_label_runs_matches_loop(labels):
    got = _label_runs(labels)
    want = label_runs_loop(labels)
    assert got == want
    assert all(type(v) is int for run in got for v in run)


# --- velocity extraction ---

_coord = st.floats(-1e4, 1e4, allow_nan=False, allow_infinity=False)


@st.composite
def traces(draw):
    n = draw(st.integers(0, 40))
    if draw(st.booleans()):
        steps = draw(st.lists(st.floats(1e-4, 0.1), min_size=n, max_size=n))
        t = np.cumsum(steps) if n else np.zeros(0)
    else:  # may repeat or go back in time
        t = np.array(draw(st.lists(st.floats(0.0, 1.0), min_size=n, max_size=n)))
    x = np.array(draw(st.lists(_coord, min_size=n, max_size=n)))
    y = np.array(draw(st.lists(_coord, min_size=n, max_size=n)))
    ppd = draw(st.floats(0.5, 100.0))
    return GazeTrace(t, x, y, np.zeros(n, dtype=np.uint8), 100, 100, ppd)


@settings(max_examples=300, deadline=None)
@given(traces())
def test_extract_velocities_matches_loop(trace):
    with np.errstate(over="ignore"):  # tiny dts may overflow to inf in both
        got, got_err = outcome(extract_velocities, trace)
        want, want_err = outcome(extract_velocities_loop, trace)
    assert got_err == want_err
    if want_err is None:
        assert got.dtype == want.dtype
        assert got.tobytes() == want.tobytes()


def test_extract_velocities_names_first_bad_sample():
    t = np.array([0.01, 0.02, 0.02, 0.03, 0.01, 0.05])
    trace = GazeTrace(t, np.arange(6.0), np.zeros(6), np.zeros(6), 10, 10, 1.0)
    with pytest.raises(ParameterError, match="at sample 3$"):
        extract_velocities(trace)
    assert outcome(extract_velocities, trace)[1] == outcome(extract_velocities_loop, trace)[1]


# --- Gamma helpers against scipy.stats.gamma ---

GAMMA_SHAPES = [1.0, 1.0 + 1e-9, 2.0, 1e8] + list(
    np.random.default_rng(2018).uniform(1.0, 60.0, 25)
) + list(10.0 ** np.random.default_rng(1808).uniform(0.0, 8.0, 15))


def _bits(x) -> bytes:
    return np.asarray(x, dtype=float).tobytes()


def _profile_with_stats(n: int, shape: float, peak: float) -> np.ndarray:
    x_end = float(sp_gamma.ppf(GAMMA_TAIL_QUANTILE, shape))
    g = sp_gamma.pdf(np.linspace(0.0, x_end, n), shape)
    return peak * g / g.max()


@pytest.mark.parametrize("shape", GAMMA_SHAPES)
def test_gamma_tail_equals_stats_ppf(shape):
    assert _bits(gamma_tail(shape)) == _bits(float(sp_gamma.ppf(GAMMA_TAIL_QUANTILE, shape)))


@pytest.mark.parametrize("shape", GAMMA_SHAPES)
@pytest.mark.parametrize("n", [2, 17, 250])
def test_gamma_profile_equals_stats(shape, n):
    assert _bits(gamma_profile(n, shape, 432.1)) == _bits(_profile_with_stats(n, shape, 432.1))


@pytest.mark.parametrize("shape", GAMMA_SHAPES)
@pytest.mark.parametrize("length", [2, 40, 301])
def test_mode_index_equals_stats(shape, length):
    x_end = float(sp_gamma.ppf(GAMMA_TAIL_QUANTILE, shape))
    want = (length - 1) * (shape - 1.0) / x_end
    assert _bits(_mode_index(shape, length)) == _bits(want)


# --- evaluation: one simulation per saccade ---

@settings(max_examples=60, deadline=None)
@given(
    st.lists(st.tuples(st.integers(0, 3), st.integers(1, 30)), min_size=1, max_size=12),
    st.integers(1, 4),
    st.integers(0, 2**32),
)
def test_evaluate_dataset_matches_loop(runs, repeats, seed):
    labels = np.concatenate([np.full(n, lab, dtype=np.uint8) for lab, n in runs])
    if not np.any(labels != NOISE):
        labels[0] = 0
    velocities = np.random.default_rng(seed).uniform(0.0, 500.0, len(labels))
    got = evaluate_dataset(velocities, labels, RandomSource(seed), repeats).pooled
    want = evaluate_dataset_loop(velocities, labels, RandomSource(seed), repeats)
    assert list(got) == list(want)
    for label in want:
        assert got[label].tobytes() == want[label].tobytes()
