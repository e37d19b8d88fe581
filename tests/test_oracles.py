"""Vectorized helpers checked bit for bit against their scalar reference loops.

The loops below are the original per-sample implementations of the label
segmentation and velocity extraction used by mapping, remap and
evaluation, of the fluctuating-rate resampler, and of the token-by-token
P2 pixel decode, of the greedy local-maxima thinning, of the row-by-row
CSV readers and f-string CSV writers, of the weighted target choice, of
the pursuit onset redraws, of ``assemble`` one segment at a time, of the
noise placement with one draw per attempt and the noise magnitudes, of the
nearest-frame scan and of the gaze placement along a movement run and in a
fixation without dispersion, and of ``map_to_gaze`` one run at a time (the
per-point walk and the per-run movement path that it called). The sequence builder is held to its one-step repair of
ordering rules wherever that repair gave a valid sequence, and to the builder
that scanned the rule list for each forced follower and required predecessor
everywhere: the same sequence or error, and the next draw. The fast versions must return identical bytes, raise
the same errors and, for ``assemble``, the resampler, the noise, the gaze
placement and ``map_to_gaze``, leave the random stream at the same place. The byte decoders of the CSV
readers are also held to the earlier str-based fast path, kept here as a
reference, and the partition quantiles of remap and evaluate to
``np.median`` and ``np.percentile``.
Random stream v2 draws the fixation walk and the evaluate simulations in
blocks. The evaluate loop (in test_evaluation) takes the same blocks a
repeat at a time, bit for bit; the stream v1 loops are statistical
references: two-sample KS tests on the walk's steps and radii and on the
pooled errors.
The saccade profile is checked against ``scipy.stats.gamma``'s density, its
closed-form tail against the mass ``scipy.special.gammaincc`` puts beyond
it, and its skewness against the requested one; the closed-form shape fit
against ``scipy.optimize.brentq`` within the solver's tolerance and by the
round trip through the profile's argmax; and the saliency resize and
periodic filters (and ``spectral_residual`` built on them) against the
``scipy.ndimage`` calls they replace, bit for bit on uint64 views;
``image_targets``, which computes only the map cells that can hold a
target, against ``local_maxima`` of the full ``spectral_residual`` map.
"""
from __future__ import annotations

import itertools
import math
import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from scipy import ndimage
from scipy import special as sp_special
from scipy.optimize import brentq as sp_brentq
from scipy.stats import gamma as sp_gamma
from scipy.stats import ks_2samp

from gazeforge import fileio, generators, noise, resampler, saliency, sequence
from gazeforge.core import (
    RandomSource,
    effective_labels,
    label_runs,
    sample_bounded,
)
from gazeforge.errors import ConstraintError, MappingError, ParameterError, ParseError
from gazeforge.evaluation import (
    _quartiles,
    evaluate_dataset,
    fit_shape_for_peak_index,
)
from gazeforge.fileio import MAX_PGM_DIM, _pnm_integer, _pnm_token, read_pgm_bytes
from gazeforge.generators import (
    MAX_ONSET_REDRAWS,
    gamma_profile,
    gamma_tail,
    skew_to_shape,
)
from gazeforge.mapping import (
    GazeTrace,
    SceneTargets,
    _median,
    _paths,
    _progress,
    _walks,
    extract_velocities,
    fixation_centroids,
    fixation_walk,
    map_to_gaze,
)
from gazeforge.params import (
    MAX_GAMMA_SHAPE,
    MIN_SKEWNESS,
    MODE_ADD,
    MODE_REPLACE,
    NAME_LABELS,
    BoundedDistribution,
    DistKind,
    FixationParams,
    MappingParams,
    MovementLabel,
    NoiseSpec,
    OrderingRule,
    PursuitParams,
    PursuitTrend,
    RateSpec,
    SaccadeParams,
    SequenceSpec,
)
from gazeforge.resampler import SampledSignal
from gazeforge.saliency import TargetSet
from conftest import blob_frame, p2_header
from test_evaluation import evaluate_dataset_loop

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
        if not dt > 0:
            raise ParameterError(f"non-increasing timestamps at sample {i}")
        v[i] = math.hypot(x[b] - x[a], y[b] - y[a]) / dt / trace.pixels_per_degree
    return v


def repeat_normals(rng, i, repeats, n):
    """Random stream v1: one derived stream per segment and repeat."""
    return np.stack([rng.derive(i, rep).normals(n) for rep in range(repeats)])


def window_label_loop(labels: np.ndarray) -> int:
    counts = np.bincount(labels)
    best = counts.max()
    tied = set(np.flatnonzero(counts == best))
    if len(tied) == 1:
        return int(tied.pop())
    # Tie: take the label of the latest base sample carrying a tied label.
    for lab in labels[::-1]:
        if int(lab) in tied:
            return int(lab)
    return int(labels[-1])


def resample_loop(profile, spec, rng):
    """One rate draw, window and output sample per loop turn; the clock is
    k / rate at a fixed rate and a running sum of 1 / rate otherwise."""
    n = len(profile)
    if n == 0:
        raise ParameterError("cannot resample an empty profile")
    if spec.rate.max > profile.base_rate:
        raise ParameterError(
            f"target rate max {spec.rate.max:.6g} Hz exceeds base rate "
            f"{profile.base_rate:.6g} Hz"
        )
    ts, vs, ls = [], [], []
    t_prev = 0.0
    lo = 0
    fixed = spec.rate.min == spec.rate.max
    while True:
        r = sample_bounded(spec.rate, rng)
        t_curr = (len(ts) + 1) / r if fixed else t_prev + 1.0 / r
        hi = int(np.floor(t_curr * profile.base_rate + resampler._INDEX_EPS))
        if hi > n:
            if not ts:
                raise ParameterError(
                    f"profile of {n / profile.base_rate:.6g} s ends before the first "
                    f"output sample at t={t_curr:.6g} s"
                )
            break
        if hi <= lo:
            raise ParameterError(
                f"empty resampling window at t={t_curr:.6g} s: the clock's "
                f"rounding left no base sample in it at {r:.6g} Hz"
            )
        ts.append(t_curr)
        vs.append(float(profile.velocities[lo:hi].mean()))
        ls.append(window_label_loop(profile.labels[lo:hi]))
        t_prev = t_curr
        lo = hi
        if hi == n:
            break
    return resampler.SampledSignal(np.array(ts), np.array(vs), np.array(ls))


def read_p2_loop(data: bytes) -> np.ndarray:
    """P2 decode reading every pixel through the PNM token reader."""
    magic, _, pos = _pnm_token(data, 0, "magic number")
    if magic != b"P2":
        raise ParseError(f"bad magic {magic!r} (expected P2 or P5)", "byte 0")
    width, pos = _pnm_integer(data, pos, "width", 1, MAX_PGM_DIM)
    height, pos = _pnm_integer(data, pos, "height", 1, MAX_PGM_DIM)
    maxval, pos = _pnm_integer(data, pos, "maxval", 1, 65535)
    values = []
    for _ in range(width * height):
        v, pos = _pnm_integer(data, pos, "pixel value", 0, maxval)
        values.append(v)
    start = fileio._PNM_TOKEN.match(data, pos).start(1)
    if start < len(data):
        raise ParseError("trailing data after pixels", f"byte {start}")
    return np.array(values, dtype=float).reshape(height, width) / float(maxval)


def outcome(fn, *args):
    """(result, None) or (None, (error type, message)) of fn(*args)."""
    try:
        return fn(*args), None
    except (MappingError, ParameterError, ParseError) as e:
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
    got, got_err = outcome(effective_labels, labels)
    want, want_err = outcome(effective_labels_loop, labels)
    assert got_err == want_err
    if want_err is None:
        assert got.dtype == want.dtype
        assert got.tobytes() == want.tobytes()


@settings(max_examples=300, deadline=None)
@given(label_arrays)
@_edge_examples
def test_label_runs_matches_loop(labels):
    got = label_runs(labels)
    want = label_runs_loop(labels)
    assert got == want
    assert all(type(v) is int for run in got for v in run)


# --- fixation centroids ---

def fixation_centroids_loop(trace: GazeTrace) -> TargetSet:
    """One ``.mean()`` of x and of y per fixation run."""
    pts = []
    for start, end, label in label_runs(effective_labels(trace.labels)):
        if label == MovementLabel.FIXATION:
            pts.append((float(trace.x[start:end].mean()), float(trace.y[start:end].mean()), 1.0))
    return TargetSet(pts, width=trace.width, height=trace.height)


def _runs(rng) -> list[int]:
    """Labels of runs of 1 to 420 samples, cycling FIX, SACC, SP, with a lead
    of NOISE and NOISE bursts inside runs."""
    lengths = np.concatenate([rng.integers(1, 9, 30), rng.integers(9, 130, 10),
                              rng.integers(300, 421, 4)])
    labels = [NOISE] * int(rng.integers(1, 4))
    for i, length in enumerate(rng.permutation(lengths)):
        labels += [i % 3] * int(length)
        if rng.random() < 0.3:
            labels[-1:-1] = [NOISE] * int(rng.integers(1, 5))
    return labels


@pytest.mark.parametrize("labels", [
    *(pytest.param(seed, id=f"mixed{seed}") for seed in range(5)),
    pytest.param([0], id="one-sample"),
    pytest.param([NOISE] * 3 + [0] * 5, id="noise-then-one-run"),
    pytest.param([0] * 10000, id="one-long-run"),
    pytest.param([1] * 7, id="no-fixation"),
    pytest.param([NOISE, 0, NOISE, 1, NOISE, 0], id="noise-everywhere"),
])
def test_fixation_centroids_match_loop(labels):
    rng = np.random.default_rng(labels if isinstance(labels, int) else len(labels))
    if isinstance(labels, int):
        labels = _runs(rng)
    n = len(labels)
    # Coordinates of mixed magnitude, so that a change of summation order shows.
    x, y = (rng.uniform(-1e4, 1e4, n) * 10.0 ** rng.integers(-6, 7, n) for _ in "xy")
    trace = GazeTrace(np.arange(n) / 250.0, x, y, np.array(labels, dtype=np.uint8), 64, 48, 30.0)
    got, want = fixation_centroids(trace), fixation_centroids_loop(trace)
    assert (got.width, got.height) == (want.width, want.height)
    assert np.array(got.points).tobytes() == np.array(want.points).tobytes()
    assert all(type(v) is float for p in got.points for v in p)


# --- velocity extraction ---

_coord = st.floats(-1e4, 1e4, allow_nan=False, allow_infinity=False)


@st.composite
def traces(draw):
    n = draw(st.integers(0, 40))
    if draw(st.booleans()):
        steps = draw(st.lists(st.floats(1e-4, 0.1), min_size=n, max_size=n))
        t = np.cumsum(steps) if n else np.zeros(0)
    else:  # may repeat, go back in time or be NaN
        t = np.array(draw(st.lists(
            st.one_of(st.floats(0.0, 1.0), st.just(math.nan)), min_size=n, max_size=n
        )))
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


@pytest.mark.parametrize("t, sample", [
    ([0.01, 0.02, math.nan, 0.04], 1),
    ([math.nan, math.nan], 0),
])
def test_extract_velocities_rejects_nan_timestamps(t, sample):
    # NaN compares False with 0, so a `dt <= 0` check let it through.
    trace = GazeTrace(np.array(t), np.arange(len(t), dtype=float), np.zeros(len(t)),
                      np.zeros(len(t)), 10, 10, 1.0)
    with pytest.raises(ParameterError, match=f"non-increasing timestamps at sample {sample}$"):
        extract_velocities(trace)
    assert outcome(extract_velocities, trace)[1] == outcome(extract_velocities_loop, trace)[1]


# --- resampling: batched rate draws, per-width window means, label counts ---

@st.composite
def rate_specs(draw, base_rate):
    lo = draw(st.one_of(
        st.floats(base_rate / 60.0, base_rate / 9.0),  # windows of 9+ samples
        st.floats(base_rate / 9.0, base_rate),
    ))
    hi = draw(st.floats(lo, base_rate))
    kind = draw(st.sampled_from(["uniform", "normal", "fixed", "base"]))
    if kind == "uniform":
        dist = BoundedDistribution.uniform(lo, hi)
    elif kind == "normal":
        dist = BoundedDistribution.normal(lo, hi, draw(st.floats(0.0, base_rate)))
    elif kind == "fixed":
        dist = BoundedDistribution.fixed(lo)
    else:
        dist = BoundedDistribution.fixed(base_rate)
    return RateSpec(dist)


@st.composite
def resample_cases(draw):
    base_rate = draw(st.sampled_from([1000.0, 500.0, 250.0, 997.3, 60.0, 1.5]))
    n = draw(st.one_of(st.just(1), st.integers(1, 40), st.integers(41, 1500)))
    seed = draw(st.integers(0, 2**32))
    data = np.random.default_rng(seed)
    pattern = draw(st.sampled_from(["random", "two", "alternating", "runs"]))
    if pattern == "random":
        labels = data.integers(0, 4, n)
    elif pattern == "two":  # many exact ties between two labels
        labels = data.choice(draw(st.sampled_from([[0, 1], [1, 3], [2, 0]])), n)
    elif pattern == "alternating":
        labels = np.arange(n) % draw(st.integers(2, 4))
    else:
        labels = np.repeat(data.integers(0, 4, n), data.integers(1, 12, n))[:n]
    velocities = data.normal(0.0, 100.0, n) * data.uniform(0.0, 1e3, n)
    profile = SampledSignal.at_rate(base_rate, velocities, labels.astype(np.uint8))
    return profile, draw(rate_specs(base_rate)), seed


def _assert_resample_matches_loop(profile, spec, seed):
    got_rng, want_rng = RandomSource(seed), RandomSource(seed)
    got, got_err = outcome(resampler.resample, profile, spec, got_rng)
    want, want_err = outcome(resample_loop, profile, spec, want_rng)
    assert got_err == want_err
    if want_err is None:
        for name in ("timestamps", "velocities", "labels"):
            a, b = getattr(got, name), getattr(want, name)
            assert a.dtype == b.dtype
            assert a.tobytes() == b.tobytes(), name
    assert got_rng.uniform() == want_rng.uniform()


@settings(max_examples=400, deadline=None)
@given(resample_cases())
def test_resample_matches_loop(case):
    _assert_resample_matches_loop(*case)


@pytest.mark.parametrize("width", [1, 2, 7, 8, 9, 16, 127, 128, 129, 1000])
def test_resample_long_windows_match_loop(width):
    # Window sums of 8 or more samples are pairwise inside numpy.
    n = width * 7 + 3
    velocities = np.random.default_rng(width).lognormal(0.0, 3.0, n)
    profile = SampledSignal.at_rate(1000.0, velocities, (np.arange(n) % 3).astype(np.uint8))
    spec = RateSpec(BoundedDistribution.fixed(1000.0 / width))
    _assert_resample_matches_loop(profile, spec, width)


def test_resample_empty_window_error_matches_loop(monkeypatch):
    # The window edge slack keeps windows non-empty at any rate up to the
    # base rate; a negative slack reaches the error branch whenever the
    # first draw is clamped to the base rate, which about a third of the
    # seeds below do.
    monkeypatch.setattr(resampler, "_INDEX_EPS", -1e-6)
    profile = SampledSignal.at_rate(64.0, np.ones(50), np.zeros(50, dtype=np.uint8))
    spec = RateSpec(BoundedDistribution.normal(32.0, 64.0, 64.0))
    for seed in range(20):
        _assert_resample_matches_loop(profile, spec, seed)
    with pytest.raises(ParameterError, match="empty resampling window"):
        resampler.resample(profile, spec, RandomSource(1))


def _assert_window_labels_match_loop(labels: np.ndarray, widths) -> None:
    hi = np.cumsum(widths)
    lo = hi - widths
    got = resampler._window_labels(labels, lo, hi)
    want = [window_label_loop(labels[a:b]) for a, b in zip(lo.tolist(), hi.tolist())]
    assert got.dtype == np.uint8
    assert got.tolist() == want


@pytest.mark.parametrize("width", [1, 2, 3, 4, 5, 8])
@pytest.mark.parametrize("period", [2, 3, 4])
def test_window_labels_with_a_change_at_every_sample_match_loop(width, period):
    # Labels change at every base sample, so every window wider than one
    # sample reaches the vote; width 2 over two labels and width 4 over
    # four are 2-way and 4-way ties, which go to the latest tied sample.
    n = 12 * width * period + 1
    rng = np.random.default_rng(width * 10 + period)
    for labels in (np.arange(n) % period, (np.arange(n) + 1) % period):
        _assert_window_labels_match_loop(labels.astype(np.uint8), np.full(n // width, width))
    # A random label at each sample that differs from the one before.
    labels = np.cumsum(rng.integers(1, 4, n)) % 4
    widths = rng.integers(1, 2 * width + 1, n)
    widths = widths[: np.searchsorted(np.cumsum(widths), n, "right")]
    _assert_window_labels_match_loop(labels.astype(np.uint8), widths)


@pytest.mark.parametrize("pair", [(0, 1), (1, 0), (3, 2), (0, 3)])
def test_window_labels_ties_match_loop(pair):
    # 2-way ties in windows of 2, 4 and 6 samples, 4-way ties of 4 and 8,
    # and windows whose first and last samples share a label that loses.
    a, b = pair
    two = np.array([a, b, b, a, a, a, b, b, a, b, a, b], dtype=np.uint8)
    for widths in ([2] * 6, [4, 4, 4], [6, 6], [2, 4, 6], [1, 3, 2, 6]):
        _assert_window_labels_match_loop(two, np.array(widths))
    order = [a, b] + [lab for lab in range(4) if lab not in pair]
    four = np.array(order * 2 + order[::-1] * 2, dtype=np.uint8)
    for widths in ([4] * 4, [8, 8], [2, 4, 4, 6], [16]):
        _assert_window_labels_match_loop(four, np.array(widths))
    ends = np.array([a, b, b, b, a, b, a, a, a, b], dtype=np.uint8)
    _assert_window_labels_match_loop(ends, np.array([5, 5]))


@pytest.mark.parametrize("scale", [1, 4])
def test_window_labels_vote_only_across_label_changes(monkeypatch, scale):
    # Counted work: a window inside one label run takes its label, so the
    # windows that reach the majority vote are at most the label changes,
    # at n and at 4n base samples alike.
    voted = []
    majority = resampler._majority
    monkeypatch.setattr(resampler, "_majority", lambda labels, lo, hi: (
        voted.append(len(lo)), majority(labels, lo, hi))[1])
    rng = np.random.default_rng(scale)
    n = 20_000 * scale
    labels = np.repeat(rng.integers(0, 4, n), rng.integers(1, 400, n))[:n].astype(np.uint8)
    profile = SampledSignal.at_rate(1000.0, rng.normal(0.0, 1.0, n), labels)
    spec = RateSpec(BoundedDistribution.uniform(250.0, 300.0))
    out = resampler.resample(profile, spec, RandomSource(scale))
    changes = int(np.count_nonzero(labels[1:] != labels[:-1]))
    assert len(out) > n // 5
    assert 0 < sum(voted) <= changes


# --- P2 decode: numpy fast path against the token reader ---

P2_CORPUS = [
    b"P2\n3 2\n255\n0 128 255\n10 20 30\n",
    b"P2\n3 2\n255\r\n0\t128 255\r\n10  20\n\n30",
    b"P2 # header comment\n2 1 255 1 2",
    b"P2\n3 1\n255\n1 # comment between pixels\n2 3\n",
    b"P2\n2 1\n255\n1 2 # trailing comment",
    b"P2\n2 1\n255\n1 2#",
    b"P2\n2 1\n255\n1\x0b2\n",
    b"P2\n2 1\n255\n1 \x0c2\n",
    b"P2\n2 1\n255\n1 2\x0b",
    b"P2\n2 1\n255\n+5 6\n",
    b"P2\n2 1\n255\n-0 6\n",
    b"P2\n2 1\n255\n1_0 6\n",
    b"P2\n2 1\n255\n-1 6\n",
    b"P2\n3 1\n255\n007 000 0255\n",
    b"P2\n2 1\n65535\n65535 0\n",
    b"P2\n2 1\n65535\n65536 0\n",
    b"P2\n2 1\n255\n0 256\n",
    b"P2\n2 1\n255\n0 99999999999999999999999999\n",
    b"P2\n2 1\n255\n0\n",
    b"P2\n2 1\n255\n",
    b"P2\n2 1\n255",
    b"P2\n1 1\n255\n \n",
    b"P2\n1 1\n255\n  ",
    b"P2\n2 1\n255\n0 1 2\n",
    b"P2\n2 1\n255\n0 1 x\n",
    b"P2\n2 1\n255\n0 x\n",
    b"P2\n2 1\n255\n0 1.5\n",
    b"P2\n2 1\n255\n0 1e2\n",
    b"P2\n2 1\n255\n0 \xd9\xa3\n",
    b"P2\n2 1\n255\n0 1\x00",
    b"P2\n2 1\n2_55\n0 1\n",
    b"P2\n3 1\n1\n0 1 1\n",
    b"P2\n3 1\n1\n0 1 2\n",
    b"P2\n2 1\n1\n01 1\n",
    b"P2\n3 1\n255\n0255 255 0\n",
    b"P2\n3 1\n255\n0256 255 0\n",
    b"P2\n3 1\n65535\n65535 00001 9\n",
    b"P2\n2 1\n65535\n065535 1\n",
    b"P2\n2 1\n65535\n99999 1\n",
    b"P2\n3 1\n65535\n0065535 00000001 0000000\n",
    b"P2\n2 1\n255\n0000255\n00000255\n",
    b"P2\n2 1\n65535\n9999999 1\n",
    b"P2\n2 1\n65535\n99999999 1\n",
    b"P2\n1 1\n255\n7",
    b"P2\n1 1\n255\n7\n",
    b"P2\n1 1\n255\n\n\t \r\n",
    b"P2\n1 1\n255\n",
    b"P2 1 1 255 255",
    b"P2\n1 1 # size\n255 # maxval\n# body\n9 # the pixel\n",
    b"P2\n1 1\n255#c\n9\n",
    b"P2\n2 1\n255\n9#c\n8\n",
    b"P2\n3 1\n255\n1 2#c 3\n4",
    b"P2\n2 1\n255\n1#\n2",
    b"P2\n2 1\n255 \n\n",
    b"P2\n2 1\n255\n1" + b" " * 40 + b"2\n",
    b"P2\n2 1\n255\n1\n" + b"\r\n" * 20 + b"2",
    b"P2\n2 1\n255\n1\n# " + b"c" * 30 + b"\n2\n",
    b"P2\n2 1\n255\n1\n#" + b" c" * 20 + b"\n2 # c c c c\n",
    b"P2\n2 1\n255\n" + b"0" * 19 + b"7 " + b"0" * 29 + b"9\n",
    b"P2\n2 1\n255\n" + b"9" * 20 + b" 1\n",
    b"P2\n2 1\n255\n1" + b"0" * 29 + b" 1\n",
    b"P2\n2 1\n255\n9223372036854775807 1\n",
    b"P2\n2 1\n255\n18446744073709551617 1\n",
    b"P2\r2 2\r255\r1 2 # c\r3\r4\r",
    b"P2\n2 2\n255\r1 2\r3 4",
]


def _assert_p2_matches_loop(data):
    got, got_err = outcome(read_pgm_bytes, data)
    want, want_err = outcome(read_p2_loop, data)
    assert got_err == want_err
    if want_err is None:
        assert got.dtype == want.dtype
        assert got.tobytes() == want.tobytes()
    # The fast decoder takes every body the token reader accepts whose tokens
    # are unsigned digit runs, of any length and between any comments, and
    # nothing it rejects.
    header = p2_header(data)
    if header is None:
        return
    pos, n, maxval = header
    fast = fileio._p2_plain_pixels(data, pos, n, maxval)
    tokens = re.split(rb"[ \t\r\n]+", re.sub(rb"#[^\r\n]*", b" ", data[pos:]))
    plain = all(re.fullmatch(rb"[0-9]*", tok) for tok in tokens)
    if want_err is None and plain:
        assert fast is not None and (fast / maxval).tobytes() == want.tobytes()
    if want_err is not None or not plain:
        assert fast is None


# numpy warns where np.fromstring stops before the end of its string.
_no_deprecation = pytest.mark.filterwarnings("error::DeprecationWarning")


@_no_deprecation
@pytest.mark.parametrize("data", P2_CORPUS)
def test_p2_decode_matches_scanner(data):
    _assert_p2_matches_loop(data)


_P2_SEPARATORS = [
    b" ", b"\n", b"\t", b"\r\n", b"  ", b" \n ", b"\x0b", b"\x0c", b" #c\n", b"#c 1\r", b"\r",
]


@_no_deprecation
@settings(max_examples=300, deadline=None)
@given(
    st.integers(1, 6),
    st.integers(1, 4),
    st.sampled_from([1, 15, 255, 256, 65535]),
    st.integers(-1, 1),
    st.data(),
)
def test_p2_decode_matches_scanner_generated(width, height, maxval, extra, data):
    _assert_p2_matches_loop(_p2_file(width, height, maxval, extra, data))


@_no_deprecation
@pytest.mark.parametrize("block", [1, 2, 8, 9, 10, 13])
@pytest.mark.parametrize("data", P2_CORPUS)
def test_p2_decode_matches_scanner_at_block_edges(block, data, monkeypatch):
    # Blocks of a few bytes put an edge at or inside almost every number and
    # comment, and leave blocks of whitespace alone.
    monkeypatch.setattr(fileio, "_P2_BLOCK_BYTES", block)
    _assert_p2_matches_loop(data)


@_no_deprecation
@settings(max_examples=200, deadline=None)
@given(
    st.integers(1, 20),
    st.integers(1, 6),
    st.integers(1, 4),
    st.sampled_from([1, 9, 255, 65535]),
    st.integers(-1, 1),
    st.data(),
)
def test_p2_decode_matches_scanner_generated_at_block_edges(
    block, width, height, maxval, extra, data
):
    file = _p2_file(width, height, maxval, extra, data)
    original = fileio._P2_BLOCK_BYTES
    fileio._P2_BLOCK_BYTES = block
    try:
        _assert_p2_matches_loop(file)
    finally:
        fileio._P2_BLOCK_BYTES = original


@_no_deprecation
@pytest.mark.parametrize("maxval, scale, digits, comment", [
    (255, 1, "{}", False),
    (65535, 257, "{}", False),
    (65535, 257, "{:07d}", False),
    (255, 1, "{:08d}", False),
    (255, 1, "{:012d}", False),
    (255, 1, "{}", True),
], ids=["plain", "16-bit", "7-digit", "8-digit", "12-digit", "comment"])
def test_p2_large_image_decodes_on_the_fast_path(maxval, scale, digits, comment, monkeypatch):
    # 1024 x 768, several full blocks with numbers across their edges. Each
    # body must decode on the fast path: the token decoder, which reads one
    # number per Python call, raises here.
    def token_pixels(*args):
        raise AssertionError("the token decoder ran")

    monkeypatch.setattr(fileio, "_p2_token_pixels", token_pixels)
    rng = np.random.default_rng(5)
    pixels = rng.integers(0, 256, (768, 1024))
    lines = [" ".join(map(digits.format, row)) for row in (pixels * scale).tolist()]
    if comment:
        lines.insert(300, "# a comment, 1 2 3, inside the body")
    data = b"P2\n1024 768\n%d\n" % maxval + "\n".join(lines).encode() + b"\n"
    got = read_pgm_bytes(data)
    want = (pixels * scale).astype(float) / maxval
    assert got.dtype == want.dtype and got.tobytes() == want.tobytes()


def _p2_file(width, height, maxval, extra, data) -> bytes:
    count = max(width * height + extra, 0)
    values = data.draw(st.lists(st.integers(0, maxval + 2), min_size=count, max_size=count))
    rare = data.draw(st.booleans())
    seps = _P2_SEPARATORS if rare else _P2_SEPARATORS[:6]
    body = b""
    for v in values:
        zeros = b"0" * data.draw(st.sampled_from([0, 0, 0, 1, 3, 6]))
        body += data.draw(st.sampled_from(seps)) + zeros + b"%d" % v
    body += data.draw(st.sampled_from([b"", b"\n", b" \n"]))
    return b"P2\n%d %d\n%d\n" % (width, height, maxval) + body


# --- the saccade profile against scipy.stats.gamma and scipy.special ---

GAMMA_SHAPES = [1.0, math.nextafter(1.0, 2.0), 1.0 + 1e-9, 2.0, 1e8] + list(
    np.random.default_rng(2018).uniform(1.0, 60.0, 25)
) + list(10.0 ** np.random.default_rng(1808).uniform(0.0, 8.0, 15))

uniform_shapes = st.floats(1.0, 12.0)
log_uniform_shapes = st.floats(0.0, 8.0).map(lambda e: min(10.0 ** e, MAX_GAMMA_SHAPE))
gamma_shapes = st.one_of(uniform_shapes, log_uniform_shapes)


def _assert_tail_mass_in_band(shape: float) -> None:
    mass = sp_special.gammaincc(shape, gamma_tail(shape))
    assert 1e-7 <= mass <= 1e-6, (shape, mass)


@pytest.mark.parametrize("shape", GAMMA_SHAPES)
def test_gamma_tail_mass_in_band_at_shape(shape):
    _assert_tail_mass_in_band(shape)


def test_gamma_tail_mass_in_band_on_a_grid():
    # The Cornish-Fisher tail leaves between 1.0e-7 (shape 1e8) and 3.5e-7
    # (shape 1) of the Gamma mass beyond it.
    for shape in 10.0 ** np.linspace(0.0, 8.0, 801):
        _assert_tail_mass_in_band(shape)


@settings(max_examples=300, deadline=None)
@given(gamma_shapes)
def test_gamma_tail_mass_in_band(shape):
    _assert_tail_mass_in_band(shape)


@pytest.mark.parametrize("shape", GAMMA_SHAPES)
@pytest.mark.parametrize("n", [2, 17, 250])
def test_gamma_profile_matches_stats_pdf(shape, n):
    # The density relative to its mode, on the same grid, agrees with
    # scipy.stats.gamma's pdf scaled to the same peak.
    peak = 432.1
    g = sp_gamma.pdf(np.linspace(0.0, gamma_tail(shape), n), shape)
    got = gamma_profile(n, shape, peak)
    np.testing.assert_allclose(got, peak * g / g.max(), rtol=1e-6, atol=1e-300)


def gamma_profile_libm(n: int, shape: float, peak: float) -> list[float]:
    """gamma_profile's formula one float at a time, libm's log and exp."""
    k1 = shape - 1.0
    at_mode = k1 * math.log(k1) - k1 if k1 else 0.0
    g = []
    for x in np.linspace(0.0, gamma_tail(shape), n).tolist():
        xlogy = 0.0 if not k1 else -math.inf if not x else k1 * math.log(x)
        g.append(math.exp(xlogy - x - at_mode))
    return [peak * v / max(g) for v in g]


@pytest.mark.parametrize("shape", [1.0, 1.5, 4.0, 11.1, 100.0, 1e4])
@pytest.mark.parametrize("length", [2, 40, 80, 301])
def test_gamma_profile_matches_libm_bit_for_bit(shape, length):
    # numpy's SIMD exp differs from libm's in the last bit on some CPUs; the
    # profile must not depend on which kernel numpy dispatches.
    got = gamma_profile(length, shape, 432.1)
    assert got.tolist() == gamma_profile_libm(length, shape, 432.1)


@pytest.mark.parametrize("base_rate", [250.0, 1000.0])
def test_pursuit_onset_matches_libm_bit_for_bit(base_rate):
    # The onset logistic one float at a time with libm's exp, over onset
    # durations of 0.02-0.3 s; numpy's SIMD exp differs from it in the last
    # bit on some CPUs.
    U = BoundedDistribution.uniform
    for onset in np.linspace(0.02, 0.3, 57).tolist():
        p = PursuitParams(
            U(0.5, 0.5), U(27.3, 27.3), U(onset, onset), PursuitTrend.CONSTANT,
            U(27.3, 27.3), U(0.0, 0.0),
        )
        got = generators.gen_pursuit(p, base_rate, RandomSource(0)).velocities
        n_on = int(round(onset * base_rate))
        t_on = n_on / base_rate
        a = generators._ONSET_STEEPNESS / t_on
        want = [27.3 / (1.0 + math.exp(-a * ((i + 1) / base_rate - t_on / 2.0)))
                for i in range(n_on)]
        assert got[:n_on].tolist() == want


@pytest.mark.parametrize("shape", GAMMA_SHAPES)
@pytest.mark.parametrize("length", [2, 40, 301])
def test_gamma_profile_peaks_at_the_fitted_mode_index(shape, length):
    # The shape fit inverts the mode index (length - 1)(k - 1)/gamma_tail(k);
    # the profile's discrete maximum is at one of the two samples around it.
    mode = (length - 1) * (shape - 1.0) / gamma_tail(shape)
    got = int(np.argmax(gamma_profile(length, shape, 1.0)))
    assert math.floor(mode) <= got <= math.ceil(mode), (mode, got)


@pytest.mark.parametrize("skew", [0.1, 0.3, 0.6, 1.0, 1.5, 2.0])
def test_gamma_profile_skewness(skew):
    # The profile read as a density over its sample index has the requested
    # skewness within 0.1 % (0.05 % at most on this grid).
    v = gamma_profile(20000, skew_to_shape(skew), 1.0)
    x = np.arange(len(v), dtype=float)
    w = v / v.sum()
    mean = (x * w).sum()
    var = ((x - mean) ** 2 * w).sum()
    got = ((x - mean) ** 3 * w).sum() / var**1.5
    assert abs(got - skew) <= 1e-3 * skew


@pytest.mark.parametrize("shape", [
    math.nextafter(1.0, 0.0), 0.5, math.nextafter(MAX_GAMMA_SHAPE, math.inf), 1e9,
    1.65e17, math.inf, -math.inf, math.nan,
])
def test_gamma_profile_rejects_shapes_outside_domain(shape):
    with pytest.raises(ParameterError, match="outside"):
        gamma_profile(40, shape, 400.0)


def test_shape_fit_round_trip():
    # Every exact fit of every length 2-400 puts the profile's argmax within
    # one sample of the requested peak.
    for length in range(2, 401):
        for peak_index in range(length):
            shape, exact = fit_shape_for_peak_index(length, peak_index)
            if exact:
                got = int(np.argmax(gamma_profile(length, shape, 1.0)))
                assert abs(got - peak_index) <= 1, (length, peak_index, shape)
            else:
                assert (shape, peak_index) == (MAX_GAMMA_SHAPE, length - 1)


# --- evaluation: one block per segment against the simulation per repeat ---

@settings(max_examples=60, deadline=None)
@given(
    st.lists(st.tuples(st.integers(0, 3), st.integers(1, 30)), min_size=1, max_size=12),
    st.integers(1, 4),
    st.integers(0, 2**32),
)
def test_evaluate_dataset_matches_loop(runs, repeats, seed):
    """Same types in the same order and, with the same stream v2 normals,
    the same errors bit for bit as one re-simulation per loop turn."""
    labels = np.concatenate([np.full(n, lab, dtype=np.uint8) for lab, n in runs])
    if not np.any(labels != NOISE):
        labels[0] = 0
    velocities = np.random.default_rng(seed).uniform(0.0, 500.0, len(labels))
    got = evaluate_dataset(velocities, labels, RandomSource(seed), repeats).pooled
    want = evaluate_dataset_loop(velocities, labels, RandomSource(seed), repeats)
    assert list(got) == list(want)
    for label in want:
        samples = np.count_nonzero(labels == label)
        assert len(got[label]) == len(want[label]) == repeats * samples
        assert np.all(got[label] >= 0.0)
        assert got[label].tobytes() == want[label].tobytes(), label


def test_evaluate_dataset_errors_follow_the_loops_distribution():
    """Two-sample KS test per movement type: the pooled squared errors of one
    block of normals per segment against one derived stream per repeat
    (stream v1), on segments whose spread sets the errors' scale."""
    rng = np.random.default_rng(7)
    runs = [(0, 40, 4.0, 1.5), (1, 12, 300.0, 80.0), (2, 60, 20.0, 4.0), (3, 5, 50.0, 50.0),
            (0, 25, 2.0, 0.5), (2, 33, 12.0, 2.0), (0, 70, 6.0, 3.0)] * 3
    labels = np.concatenate([np.full(n, lab, dtype=np.uint8) for lab, n, _, _ in runs])
    velocities = np.concatenate([rng.normal(mu, sd, n) for _, n, mu, sd in runs])
    got = evaluate_dataset(velocities, labels, RandomSource(11), 100).pooled
    want = evaluate_dataset_loop(velocities, labels, RandomSource(12), 100, repeat_normals)
    for label in (MovementLabel.FIXATION, MovementLabel.SMOOTH_PURSUIT):
        assert len(got[label]) == len(want[label])
        assert ks_2samp(got[label], want[label]).pvalue > 1e-3, label


def test_evaluate_dataset_fixation_and_pursuit_means_match_the_expectation():
    """Analytic oracle. A FIX or SP run with sample mean mu and ddof-1 std s
    is re-simulated as mu + s*z, so a sample x has expected squared error
    E[(mu + s*z - x)^2] = s^2 + (x - mu)^2, with variance
    4 s^2 (x - mu)^2 + 2 s^4. On runs far from the clip at mu +- 10 s and at
    0, the pooled mean is therefore sum n (s^2 + s0^2) / sum n, where s0^2 is
    the run's variance over n, within 5 standard errors."""
    data, repeats = np.random.default_rng(9), 200
    runs = [(lab, int(data.integers(20, 80)), mu) for _ in range(10)
            for mu in (100.0, 130.0) for lab in (0, 2)]  # 40 runs, labels alternate
    labels = np.concatenate([np.full(n, lab, dtype=np.uint8) for lab, n, _ in runs])
    velocities = np.concatenate([data.normal(mu, 2.0, n) for _, n, mu in runs])
    assert len(label_runs(labels)) == len(runs)
    got = evaluate_dataset(velocities, labels, RandomSource(9), repeats).per_type
    for label in (MovementLabel.FIXATION, MovementLabel.SMOOTH_PURSUIT):
        expect, var, total = 0.0, 0.0, 0
        for start, end, lab in label_runs(labels):
            if lab == label:
                x = velocities[start:end]
                s2, d2 = x.var(ddof=1), (x - x.mean()) ** 2
                expect += np.sum(s2 + d2)
                var += np.sum(4.0 * s2 * d2 + 2.0 * s2 * s2)
                total += end - start
        se = np.sqrt(var / (total * repeats)) / np.sqrt(total)
        assert abs(got[label].mean - expect / total) <= 5.0 * se, label


# --- saliency: numpy kernels against scipy.ndimage, grid thinning against the loop ---

def resize_ndimage(img: np.ndarray, out_h: int, out_w: int) -> np.ndarray:
    h, w = img.shape
    if (h, w) == (out_h, out_w):
        return img.copy()
    ys = np.linspace(0, h - 1, out_h)
    xs = np.linspace(0, w - 1, out_w)
    grid = np.meshgrid(ys, xs, indexing="ij")
    return ndimage.map_coordinates(img, grid, order=1, mode="nearest")


def spectral_residual_ndimage(image: np.ndarray) -> np.ndarray:
    img = np.asarray(image, dtype=float)
    h, w = img.shape
    if float(img.max() - img.min()) < 1e-12:
        return np.zeros((h, w))
    if w > saliency.WORKING_WIDTH:
        sh = max(int(round(h * saliency.WORKING_WIDTH / w)), 8)
        small = resize_ndimage(img, sh, saliency.WORKING_WIDTH)
    else:
        small = img
    spec = np.fft.fft2(small)
    amp = np.abs(spec)
    phase = np.angle(spec)
    eps = 1e-12 * max(float(amp.max()), 1e-300)
    log_amp = np.log(amp + eps)
    residual = log_amp - ndimage.uniform_filter(log_amp, size=3, mode="wrap")
    sal = np.abs(np.fft.ifft2(np.exp(residual + 1j * phase))) ** 2
    sal = ndimage.gaussian_filter(sal, sigma=1.0, mode="wrap")
    sal = resize_ndimage(sal, h, w)
    sal = np.clip(sal, 0.0, None)
    m = float(sal.max())
    return sal / m if m > 1e-12 else np.zeros_like(sal)


def local_maxima_loop(smap, min_distance=0.0, threshold=0.0):
    if min_distance < 0:
        raise ParameterError("min_distance must be >= 0")
    v = smap.values
    h, w = v.shape
    padded = np.pad(v, 1, mode="constant", constant_values=-np.inf)
    center = padded[1:-1, 1:-1]
    is_max = np.ones((h, w), dtype=bool)
    for dy in (-1, 0, 1):
        for dx in (-1, 0, 1):
            if dy == 0 and dx == 0:
                continue
            is_max &= center > padded[1 + dy : 1 + dy + h, 1 + dx : 1 + dx + w]
    is_max &= center >= threshold
    ys, xs = np.nonzero(is_max)
    order = sorted(range(len(ys)), key=lambda i: (-v[ys[i], xs[i]], ys[i] * w + xs[i]))
    kept = []
    for i in order:
        y, x = float(ys[i]), float(xs[i])
        if all(math.hypot(x - kx, y - ky) >= min_distance for kx, ky, _ in kept):
            kept.append((x, y, float(v[int(y), int(x)])))
    return saliency.TargetSet(kept, width=w, height=h)


def assert_same_bits(got: np.ndarray, want: np.ndarray) -> None:
    assert got.shape == want.shape
    assert got.dtype == want.dtype == np.float64
    assert np.array_equal(
        np.ascontiguousarray(got).view(np.uint64),
        np.ascontiguousarray(want).view(np.uint64),
    )


def _mixed_magnitudes(rng, shape) -> np.ndarray:
    """Signed values from 1e-200 to 1e200, with some -0.0 and +0.0."""
    x = rng.normal(size=shape) * 10.0 ** rng.uniform(-200.0, 200.0, shape)
    x[rng.random(shape) < 0.1] = -0.0
    x[rng.random(shape) < 0.05] = 0.0
    return x


@st.composite
def resize_cases(draw):
    h, w = draw(st.integers(8, 200)), draw(st.integers(8, 200))

    def out_side(n):
        how = draw(st.sampled_from(["same", "up", "down", "ratio"]))
        if how == "same":
            return n
        if how == "up":
            return min(n * draw(st.integers(2, 5)), 600)
        if how == "down":
            return max(n // draw(st.integers(2, 9)), 1)
        return max(int(n * draw(st.floats(0.13, 3.7))), 1)

    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if draw(st.booleans()):
        img = _mixed_magnitudes(rng, (h, w))
    else:
        img = rng.uniform(-1.0, 1.0, (h, w))
    return img, out_side(h), out_side(w)


@settings(max_examples=150, deadline=None)
@given(resize_cases())
def test_resize_matches_map_coordinates(case):
    img, out_h, out_w = case
    assert_same_bits(saliency._resize(img, out_h, out_w), resize_ndimage(img, out_h, out_w))


@pytest.mark.parametrize("shape, out", [
    ((48, 64), (480, 640)), ((8, 8), (8, 8)), ((8, 200), (1, 1)), ((200, 8), (3, 600)),
    ((768, 1024), (48, 64)), ((9, 10), (17, 19)),
    # the upscale of a 1024x768 stimulus; a row count below, at and above
    # one block; a single source row or column; a downscale that repeats
    # most source columns zero times
    ((48, 64), (768, 1024)), ((48, 64), (31, 640)), ((48, 64), (32, 640)),
    ((48, 64), (33, 640)), ((1, 64), (480, 640)), ((48, 1), (480, 640)),
    ((480, 640), (48, 64)),
])
def test_resize_fixed_shapes_match_map_coordinates(shape, out):
    rng = np.random.default_rng(sum(shape) + sum(out))
    for img in (rng.random(shape), _mixed_magnitudes(rng, shape), np.full(shape, -0.0)):
        assert_same_bits(saliency._resize(img, *out), resize_ndimage(img, *out))


_finite = st.floats(-1e200, 1e200, allow_nan=False, allow_infinity=False)


@st.composite
def filter_inputs(draw):
    h, w = draw(st.integers(1, 40)), draw(st.integers(1, 40))
    kind = draw(st.sampled_from(["hypothesis", "mixed", "constant_rows", "signed_zero"]))
    if kind == "hypothesis":
        return draw(arrays(np.float64, (h, w), elements=_finite))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    x = _mixed_magnitudes(rng, (h, w))
    if kind == "constant_rows":
        for r in range(0, h, 2):
            x[r] = draw(_finite)
    elif kind == "signed_zero":
        x[rng.random((h, w)) < 0.7] = -0.0
    return x


@settings(max_examples=300, deadline=None)
@given(filter_inputs())
def test_box3_wrap_matches_uniform_filter(x):
    assert_same_bits(saliency._box3_wrap(x), ndimage.uniform_filter(x, size=3, mode="wrap"))


@settings(max_examples=300, deadline=None)
@given(filter_inputs())
def test_gauss1_wrap_matches_gaussian_filter(x):
    assert_same_bits(
        saliency._gauss1_wrap(x), ndimage.gaussian_filter(x, sigma=1.0, mode="wrap")
    )


@pytest.mark.parametrize("fill", [-0.0, 0.0, -3.5, 1e-200, -1e200])
def test_filters_on_constant_arrays_match_ndimage(fill):
    x = np.full((9, 12), fill)
    assert_same_bits(saliency._box3_wrap(x), ndimage.uniform_filter(x, size=3, mode="wrap"))
    assert_same_bits(
        saliency._gauss1_wrap(x), ndimage.gaussian_filter(x, sigma=1.0, mode="wrap")
    )


@st.composite
def stimulus_images(draw):
    h, w = draw(st.integers(8, 160)), draw(st.integers(8, 160))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kind = draw(st.sampled_from(["uniform", "pgm", "signed", "blob"]))
    if kind == "uniform":
        return rng.random((h, w))
    if kind == "pgm":
        return np.round(rng.random((h, w)) * 255.0) / 255.0
    if kind == "signed":
        return rng.normal(size=(h, w)) * 1e3 - 500.0
    img = np.zeros((h, w))
    img[h // 3 : h // 3 + 3, w // 2 : w // 2 + 4] = 1.0
    return img


@settings(max_examples=120, deadline=None)
@given(stimulus_images())
@example(np.random.default_rng(0).random((48, 64)))  # w == 64: no downscale
@example(np.random.default_rng(1).random((48, 65)))
@example(np.random.default_rng(2).random((8, 8)))
@example(np.full((20, 90), 0.25))  # constant: the all-zero map
def test_spectral_residual_matches_ndimage_pipeline(img):
    assert_same_bits(saliency.spectral_residual(img).values, spectral_residual_ndimage(img))


def test_spectral_residual_large_image_matches_ndimage_pipeline():
    img = np.round(np.random.default_rng(7).random((480, 640)) * 255.0) / 255.0
    assert_same_bits(saliency.spectral_residual(img).values, spectral_residual_ndimage(img))


@pytest.mark.parametrize("shape", [(8, 8), (48, 64), (48, 65), (150, 200)])
def test_spectral_residual_leaves_its_input_unchanged(shape):
    # w <= 64 runs the FFT on the caller's array itself, w > 64 on a resize.
    img = np.random.default_rng(sum(shape)).random(shape)
    before = img.copy()
    got = saliency.spectral_residual(img)
    assert_same_bits(img, before)
    assert not np.shares_memory(got.values, img)


MIN_DISTANCES = [0.0, 0.5, 1.0, math.sqrt(2.0), 2.0, 7.3]
_SPECIAL_PIXELS = np.array([math.nan, math.inf, -math.inf, 0.0, -0.0])


@st.composite
def saliency_maps(draw):
    h, w = draw(st.integers(1, 40)), draw(st.integers(1, 40))
    layout = draw(st.sampled_from(["grid", "grid", "row", "column"]))
    if layout == "row":
        h = 1
    elif layout == "column":
        w = 1
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kind = draw(st.sampled_from(["ties", "uniform", "special", "constant"]))
    if kind == "constant":
        fill = draw(st.sampled_from([0.0, -0.0, 0.5, math.nan, math.inf, -math.inf]))
        return saliency.SaliencyMap(np.full((h, w), fill))
    if kind == "uniform":
        values = rng.random((h, w))
    else:
        values = rng.integers(0, draw(st.integers(1, 6)), (h, w)) / 5.0  # ties
    if kind == "special":  # NaN, +-inf and +-0.0 pixels among the ties
        hit = rng.random((h, w)) < draw(st.sampled_from([0.05, 0.3, 0.7]))
        values[hit] = rng.choice(_SPECIAL_PIXELS, int(hit.sum()))
    return saliency.SaliencyMap(values)


@settings(max_examples=500, deadline=None)
@given(
    saliency_maps(),
    st.one_of(st.sampled_from(MIN_DISTANCES), st.floats(0.0, 30.0)),
    # 2.0 and inf are above every finite map value: no finite candidate
    st.sampled_from([0.0, 0.2, 0.5, 0.99, -math.inf, -1.0, math.nan, 2.0, math.inf]),
)
def test_local_maxima_matches_loop(smap, min_distance, threshold):
    got = saliency.local_maxima(smap, min_distance, threshold)
    want = local_maxima_loop(smap, min_distance, threshold)
    assert (got.points, got.width, got.height) == (want.points, want.width, want.height)


@pytest.mark.parametrize("min_distance", MIN_DISTANCES + [3.0, 100.0, math.inf, math.nan])
def test_local_maxima_noise_map_matches_loop(min_distance):
    smap = saliency.SaliencyMap(np.random.default_rng(11).random((60, 60)))
    got = saliency.local_maxima(smap, min_distance, 0.1)
    want = local_maxima_loop(smap, min_distance, 0.1)
    assert (got.points, got.width, got.height) == (want.points, want.width, want.height)


@pytest.mark.parametrize("threshold", [-math.inf, -1.0, 0.0, math.nan, "max", "above_max"])
def test_local_maxima_thresholds_on_noise_map_match_loop(threshold):
    values = np.random.default_rng(12).random((50, 70))
    if threshold == "max":
        threshold = float(values.max())
    elif threshold == "above_max":  # no candidates at all
        threshold = math.nextafter(float(values.max()), math.inf)
    smap = saliency.SaliencyMap(values)
    got = saliency.local_maxima(smap, 0.0, threshold)
    want = local_maxima_loop(smap, 0.0, threshold)
    assert (got.points, got.width, got.height) == (want.points, want.width, want.height)
    assert (len(got) == 0) == (math.isnan(threshold) or threshold > values.max())


def test_local_maxima_negative_distance_error_matches_loop():
    smap = saliency.SaliencyMap(np.zeros((4, 4)))
    assert outcome(saliency.local_maxima, smap, -1.0) == outcome(local_maxima_loop, smap, -1.0)


# --- image targets from the salient cells only, against the full map ---

def targets_of_full_map(image, min_distance, threshold):
    return saliency.local_maxima(saliency.spectral_residual(image), min_distance, threshold)


def assert_same_image_targets(image, min_distance, threshold):
    with np.errstate(all="ignore"):  # non-finite pixels warn on both paths
        got = outcome(saliency.image_targets, image, min_distance, threshold)
        want = outcome(targets_of_full_map, image, min_distance, threshold)
    assert got == want


TARGET_THRESHOLDS = [-math.inf, 0.0, 0.1, 0.5, 1.0, math.nan]
TARGET_DISTANCES = [0.0, 3.5, 10.0, math.inf]


@st.composite
def target_images(draw):
    """8 to 120 rows, 8 to 200 columns: w <= 64 keeps the full map."""
    h, w = draw(st.integers(8, 120)), draw(st.integers(8, 200))
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    kind = draw(st.sampled_from(["blob", "noise", "quantized", "impulse", "constant", "special"]))
    if kind == "blob":
        return blob_frame(seed, h, w, blobs=draw(st.integers(1, 6)))
    if kind == "noise":
        return rng.random((h, w))
    if kind == "quantized":
        return rng.integers(0, draw(st.integers(2, 6)), (h, w)) / 5.0
    if kind == "constant":
        return np.full((h, w), draw(st.sampled_from([0.0, 0.5, 1.0])))
    img = np.zeros((h, w))
    img[rng.integers(h), rng.integers(w)] = 1.0
    if kind == "special":  # NaN or +-inf pixels: non-finite small maps
        hit = rng.random((h, w)) < draw(st.sampled_from([0.001, 0.05]))
        img[hit] = rng.choice([math.nan, math.inf, -math.inf], int(hit.sum()))
    return img


@settings(max_examples=150, deadline=None)
@given(
    target_images(),
    st.sampled_from(TARGET_DISTANCES),
    st.sampled_from(TARGET_THRESHOLDS),
)
@example(np.random.default_rng(0).random((48, 64)), 3.5, 0.1)  # w == 64
@example(np.random.default_rng(1).random((48, 65)), 3.5, 0.1)
@example(np.full((20, 90), 0.25), 0.0, -math.inf)  # constant: no targets
@example(np.random.default_rng(2).random((30, 90)), -1.0, 0.1)  # negative distance
def test_image_targets_match_full_map(image, min_distance, threshold):
    assert_same_image_targets(image, min_distance, threshold)


@pytest.mark.parametrize("threshold", TARGET_THRESHOLDS)
def test_image_targets_of_blob_frame_match_full_map(threshold):
    image = blob_frame(3)
    for min_distance in TARGET_DISTANCES:
        assert_same_image_targets(image, min_distance, threshold)


def test_image_targets_with_nonfinite_pixels_match_full_map():
    image = blob_frame(4, 120, 160)
    for fill in (math.nan, math.inf, -math.inf):
        bad = image.copy()
        bad[50, 70] = fill
        assert_same_image_targets(bad, 3.5, 0.1)


@pytest.mark.parametrize("threshold", [0.1, 0.0, -math.inf])
def test_image_targets_compute_only_the_cells_that_can_hold_targets(monkeypatch, threshold):
    # Counted work: the pixels of every cell that _Cells.values computes, and
    # of the full map where image_targets takes it instead.
    area, full = {}, []
    values, full_map = saliency._Cells.values, saliency._full_map

    def counted(cells, cy, cx):
        rows = cells.row_runs[1] - cells.row_runs[0]
        cols = cells.col_runs[1] - cells.col_runs[0]
        for a, b in zip(cy.tolist(), cx.tolist()):
            area[a, b] = int(rows[a] * cols[b])
        return values(cells, cy, cx)

    def counted_full(small, h, w):
        full.append(h * w)
        return full_map(small, h, w)

    image = blob_frame(5)
    want = targets_of_full_map(image, 10.0, threshold)
    monkeypatch.setattr(saliency._Cells, "values", counted)
    monkeypatch.setattr(saliency, "_full_map", counted_full)
    got = saliency.image_targets(image, 10.0, threshold)
    assert got.points == want.points and len(got) > 0
    if threshold > 0:
        assert 0 < sum(area.values()) < 0.1 * image.size and full == []
    else:  # every cell can hold a target: the full map is the cheaper one
        assert full == [image.size]


# --- saccade shape fit: the closed form against scipy.optimize.brentq ---

@settings(max_examples=200, deadline=None)
@given(st.integers(2, 5000).flatmap(
    lambda n: st.tuples(st.just(n), st.integers(1, n - 1))
))
@example((2, 1))
@example((5000, 4999))
@example((5000, 1))
@example((301, 150))
def test_shape_fit_matches_scipy_brentq(case):
    # The closed form lies within the solver's tolerance of SciPy's root of
    # the profile's mode index over the whole shape range, with the same
    # exact flag; a peak no shape reaches (SciPy finds no sign change) falls
    # back to the largest shape.
    length, peak_index = case

    def f(k):
        return (length - 1) * (k - 1.0) / gamma_tail(k) - peak_index

    shape, exact = fit_shape_for_peak_index(length, peak_index)
    xtol, rtol = 1e-9, 1e-12
    try:
        want = sp_brentq(f, 1.0 + 1e-9, 1e8, xtol=xtol, rtol=rtol)
    except ValueError:
        assert (shape, exact) == (1e8, False)
        return
    assert abs(shape - want) <= xtol + rtol * want
    assert exact == (abs(f(want)) <= 1.0)


# --- CSV readers: the byte decoder against the row loop ---

def read_velocity_csv_loop(text: str) -> SampledSignal:
    ts, vs, ls, rows = [], [], [], []
    for row, (t_ms, v, lab) in fileio._read_rows(text, fileio.VELOCITY_HEADER, 3):
        ts.append(fileio._parse_float(t_ms, row, "timestamp") / 1000.0)
        vs.append(fileio._parse_float(v, row, "velocity"))
        ls.append(int(fileio._parse_label(lab, row)))
        rows.append(row)
    ts_arr = fileio._increasing_timestamps(ts, rows)
    return SampledSignal(ts_arr, np.array(vs), np.array(ls))


def read_gaze_csv_loop(text: str) -> GazeTrace:
    ts, xs, ys, ls, rows = [], [], [], [], []
    for row, (t_ms, x, y, lab) in fileio._read_rows(text, fileio.GAZE_HEADER, 4):
        ts.append(fileio._parse_float(t_ms, row, "timestamp") / 1000.0)
        xs.append(fileio._parse_float(x, row, "x coordinate"))
        ys.append(fileio._parse_float(y, row, "y coordinate"))
        ls.append(int(fileio._parse_label(lab, row)))
        rows.append(row)
    ts_arr = fileio._increasing_timestamps(ts, rows)
    width = int(np.ceil(max(xs))) + 1
    height = int(np.ceil(max(ys))) + 1
    return GazeTrace(ts_arr, np.array(xs), np.array(ys), np.array(ls), width, height, 30.0)


def columns_fast_reference(text: str, header: str, n_fields: int):
    """The earlier str fast path of the readers: the columns of a file it
    takes, parsed with ``float`` a column at a time, or None. It predates
    the rejection of "1_0" and non-ASCII digits, so it still takes them."""
    lines = text.splitlines()
    if not lines or lines[0].strip() != header:
        return None
    data = [line for line in lines[1:] if line.strip()]
    if not data or any(line.count(",") != n_fields - 1 for line in data):
        return None
    tokens = ",".join(data).split(",")
    try:
        cols = [
            np.array(list(map(float, tokens[k::n_fields])))
            for k in range(n_fields - 1)
        ]
        labels = np.array(
            [NAME_LABELS[tok.strip()] for tok in tokens[n_fields - 1 :: n_fields]]
        )
    except (ValueError, KeyError):
        return None
    if not all(np.isfinite(c).all() for c in cols):
        return None
    ts = cols[0] / 1000.0
    if (np.diff(ts) <= 0).any():
        return None
    return ts, cols[1:], labels


VELOCITY_WHAT = ("timestamp", "velocity")
GAZE_WHAT = ("timestamp", "x coordinate", "y coordinate")
_PLAIN_TEXT = set(map(chr, range(32, 127))) | set("\t\n\r")


def _assert_same_columns(got, want) -> None:
    for g, w in zip([got[0], *got[1], got[2]], [want[0], *want[1], want[2]]):
        assert g.dtype == w.dtype and g.tobytes() == w.tobytes()


def _assert_reader_matches_loop(kind: str, text: str) -> None:
    if kind == "velocity":
        header, what = fileio.VELOCITY_HEADER, VELOCITY_WHAT
        new, old = fileio.read_velocity_csv_bytes, read_velocity_csv_loop
        fields = ("timestamps", "velocities", "labels")
    else:
        header, what = fileio.GAZE_HEADER, GAZE_WHAT
        new, old = fileio.read_gaze_csv_bytes, read_gaze_csv_loop
        fields = ("timestamps", "x", "y", "labels")
    data = text.encode("utf-8", "surrogatepass")
    got, got_err = outcome(new, data)
    want, want_err = outcome(old, text)
    assert got_err == want_err
    # The byte decoder takes exactly the files of printable ASCII, tabs and
    # LF or CRLF line ends that the row loop accepts.
    fast = fileio._decode_columns(data, header, len(what) + 1)
    plain = set(text) <= _PLAIN_TEXT and "\r" not in text.replace("\r\n", "")
    assert (fast is not None) == (want_err is None and plain)
    if want_err is None:
        if kind == "gaze":
            assert (got.width, got.height) == (want.width, want.height)
        for name in fields:
            g, w = np.asarray(getattr(got, name)), np.asarray(getattr(want, name))
            assert g.dtype == w.dtype and g.tobytes() == w.tobytes(), name
        slow = fileio._columns_by_rows(text, header, what)
        assert slow[0].dtype == np.float64 and slow[2].dtype == np.int64
        if fast is not None:
            _assert_same_columns(fast, slow)
        reference = columns_fast_reference(text, header, len(what) + 1)
        if reference is not None:
            _assert_same_columns(reference, slow)


VH = fileio.VELOCITY_HEADER
GH = fileio.GAZE_HEADER
VELOCITY_CORPUS = [
    f"{VH}\n1,2.5,FIX\n2,300,SACC\n3,20,SP\n4,0,NOISE\n",
    f"{VH}\r\n1,2.5,FIX\r\n2,300,SACC\r\n",
    f"{VH}\n1,2.5,FIX\x0b2,3,FIX\x0c3,4,FIX\x1c4,5,FIX\x1d5,6,FIX\x1e6,7,FIX\x85"
    "7,8,FIX\u20288,9,FIX\u20299,1,FIX",
    f"{VH}\n\n1,2,FIX\n   \n2,3,FIX\n\t\n",
    f"{VH}\n1,2,FIX",
    f"{VH}\n",
    f"{VH}\n\n  \n",
    "",
    "\n",
    f" {VH} \n1,2,FIX\n",
    f"\ufeff{VH}\n1,2,FIX\n",
    "t_ms,velocity,label\n1,2,FIX\n",
    f"{VH}\n1,2,FIX,\n",
    f"{VH}\n1,,FIX\n",
    f"{VH}\n,2,FIX\n",
    f"{VH}\n1,2,\n",
    f"{VH}\n 1.5 , 2 , FIX \n",
    f"{VH}\n\xa01.5\xa0,2\u2003,\u3000FIX\n",
    f"{VH}\n1_0,2,FIX\n",
    f"{VH}\n1__0,2,FIX\n",
    f"{VH}\n+1,-0,FIX\n",
    f"{VH}\n1,nan,FIX\n",
    f"{VH}\nnan,1,FIX\n",
    f"{VH}\n1,inf,FIX\n",
    f"{VH}\n1,-Infinity,FIX\n",
    f"{VH}\n1,1e400,FIX\n",
    f"{VH}\n1e400,1,FIX\n",
    f"{VH}\n1,1e-400,FIX\n",
    f"{VH}\n\u0661,\u0662.5,FIX\n2,3,FIX\n",  # Arabic-Indic digits
    f"{VH}\n1,0x10,FIX\n",
    f"{VH}\n1,2,fix\n",
    f"{VH}\n1,2,Fix\n",
    f"{VH}\n1,2, FIX\t\n",
    f"{VH}\n1,2,FIXATION\n",
    f"{VH}\n1,2,\x00FIX\n",
    f"{VH}\n1,2\n3,4,5,FIX\n",  # 2 and 4 fields: 6 in all
    f"{VH}\n1,2\nFIX,3,4,FIX\n",
    f"{VH}\n1,2,FIX\n2,3,FIX,4\n",
    f"{VH}\n2,1,FIX\n1,1,FIX\n",
    f"{VH}\n1,1,FIX\n\n\n0.5,1,FIX\n",  # time going back after blank rows
    f"{VH}\n1,1,FIX\n1,1,FIX\n",
    f"{VH}\n1,1,FIX\n1.0000000000000001,1,FIX\n",  # same double
    f"{VH}\n4.9e-324,1,FIX\n9.9e-324,1,FIX\n",  # equal once divided by 1000
    f"{VH}\n-5,1,FIX\n-4,1,FIX\n",
    f"{VH}\n1e308,1,FIX\n1.7e308,1,FIX\n",
    f"{VH}\n1,-0.000,FIX\n2,-0,SACC\n3,0.000,SP\n4,-0.0,NOISE\n",
    f"{VH}\n007.500,0001,FIX\n08,00.10,FIX\n0009.0,-000,FIX\n",
    f"{VH}\n1,123456789012345,FIX\n2,12345678901234.5,FIX\n3,-0.123456789012345,FIX\n",
    f"{VH}\n1,1234567890123456,FIX\n2,123456789012345.6,FIX\n3,-1.234567890123456,FIX\n",
    f"{VH}\n1,9007199254740993,FIX\n2,900719925474099.3,FIX\n3,9007199254740.991,FIX\n",
    f"{VH}\n1,12345678901234567890,FIX\n2,0000000000000000000001,FIX\n",
    f"{VH}\n1,0.1234567890123456789012,FIX\n2,0.12345678901234567890123,FIX\n",
    f"{VH}\n1,0.0000000000000000000001,FIX\n2,-0.00000000000000000000001,FIX\n",
    f"{VH}\n1,1e-05,FIX\n2,1.23457e+06,SACC\n3,-2.5E-3,SP\n4,1e22,FIX\n",
    f"{VH}\n+5,+5,FIX\n6,.5,FIX\n7,5.,FIX\n8,-.5,FIX\n9,-5.,FIX\n",
    f"{VH}\n1,-,FIX\n",
    f"{VH}\n1,.,FIX\n",
    f"{VH}\n1,1..5,FIX\n",
    f"{VH}\n1,12.3.4,FIX\n",
    f"{VH}\n1,1.5.,FIX\n",
    f"{VH}\n1,--1,FIX\n",
    f"{VH}\n1,1-,FIX\n",
    f"{VH}\n1,1.-5,FIX\n",
    f"{VH}\n1,1_0.5,FIX\n",
    f"{VH}\n1,\u0661\u0662,FIX\n",
    f"{VH} \r\n 1 , 2.5 ,\tFIX \r\n\r\n2,3,SACC",
    f"{VH}\n1,2,FIX\r\n2,3,SACC\n3,4,SP\r\n",
    f"{VH}\n1,2,FIX\r\r\n",
    f"{VH}\n1,2,SP\n2,3,NOISE\n3,4,SACC\n4,5,FIX\n",
    f"{VH}\n1,2,NOISEX\n",
    f"{VH}\n1,2,NOIS\n",
    f"{VH}\n1,2,FIXFIXFIX\n",
    f"{VH}\n1,2,FIX\n\x7f\n",
    f"{VH}\n1,2,FIX\n2,3,FIX\x1f\n",
    f"{VH}\n1,2,FIX\n,\n",
    f"{VH}\n1,2,FIX\n,,\n",
    f"{VH}\n1,2,FIX\n\n\n\n",
    f"{VH}\n1,2,FIX\nFIX\n2,3,FIX\n",  # a line without a comma
    f"{VH}\n7\n",
    # Labels that fill the decoder's 8-byte label field or run past it.
    f"{VH}\n1,2,  FIX   \n2,3,FIX     \n3,4,   NOISE  \n4,5,SACC    \n",
    f"{VH}\n1,2,FIX{' ' * 13}Z\n",  # its first 8 bytes strip to a label
    f"{VH}\n \t \n1,2,FIX\n2,3,SP\n\t  ",  # blank first and last data lines
    f"{VH}\r\n  \r\n1,2,FIX\r\n\t\r\n",
]
GAZE_CORPUS = [
    f"{GH}\n1,10,20,FIX\n2,11.5,21,SACC\n3,12,22,SP\n4,13,23,NOISE\n",
    f"{GH}\r\n1,10,20,FIX\r\n\r\n2,11,21,FIX",
    f"{GH}\n1,10,20,FIX\x0b2,11,21,FIX\x0c3,12,22,FIX\x1c4,1,1,FIX\u20285,2,2,FIX",
    f"{GH}\n\n1,10,20,FIX\n \t \n2,11,21,FIX\n\n",
    f"{GH}\n",
    f"{GH}\n\n",
    f"{GH} \n1,10,20,FIX\n",
    f"{VH}\n1,10,FIX\n",
    f"{GH}\n1,10,20,FIX,\n",
    f"{GH}\n1,10,,FIX\n",
    f"{GH}\n1, 10.5 , 20 ,FIX\n",
    f"{GH}\n1,1_0,20,FIX\n",
    f"{GH}\n1,+10,-0.0,FIX\n",
    f"{GH}\n1,nan,20,FIX\n",
    f"{GH}\n1,10,inf,FIX\n",
    f"{GH}\n1,10,1e400,FIX\n",
    f"{GH}\n1,\u0661\u0660,20,FIX\n",
    f"{GH}\n1,10,20,sacc\n",
    f"{GH}\n1,10,20,  SP  \n",
    f"{GH}\n1,10,20,NOISE \n2,-3.5,-7,FIX\n",
    f"{GH}\n1,10,20\nFIX,2,11,21,FIX\n",  # 3 and 5 fields: 8 in all
    f"{GH}\n1,10,20,FIX,FIX\n2,11,FIX\n",
    f"{GH}\n1,10,20\n2,11,21,FIX\n",
    f"{GH}\n10,10,20,FIX\n5,11,21,FIX\n",
    f"{GH}\n10,10,20,FIX\n10,11,21,FIX\n",
    f"{GH}\n1,1,1,FIX\n\n\n0,1,1,FIX\n",  # time going back after blank rows
    f"{GH}\n1,0.2,0.7,FIX\n2,1e-300,-1e-300,FIX\n",
    f"{GH}\n1,1e300,2,FIX\n",
    f"\ufeff{GH}\n1,10,20,FIX\n",
    f"{GH}\n1,-0.000,-0.000,FIX\n2.000,0007.250,-00.5,SP\n",
    f"{GH}\n1,123456789012.345,1234567890123.456,FIX\n",
    f"{GH}\n1,1e-05,1.23457e+06,FIX\n2,+5,.5,SACC\n3,5.,-5.,SP\n",
    f"{GH}\n1,1_0.5,20,FIX\n",
    f"{GH}\n1,10,\u0661\u0662,FIX\n",
    f"{GH} \r\n 1 , 10 , 20 , SACC \r\n\r\n2,11,21,NOISE",
    f"{GH}\n1,10,20,FIX\n2,11,21,SACC\n3,12,22,SP\n4,13,23,NOISE",
    f"{GH}\n1,10,20,FIX\n2,11,21,FIXATION\n",
    f"{GH}\n1,10,20,FIX\n2,11,21,FI\n",
    f"{GH}\n1,10,20,FIX\n2,11,21\n3,12,22,SP,\n",
    f"{GH}\n1,10,20,FIX\n,,,\n",
    f"{GH}\n1,10,20,FIX\n \t2 \n",
    # Labels that fill the decoder's 8-byte label field or run past it.
    f"{GH}\n1,10,20,  FIX   \n2,11,21,FIX     \n3,12,22,   NOISE  \n4,13,23,    SP  \n",
    f"{GH}\n1,10,20,FIX{' ' * 13}Z\n",  # its first 8 bytes strip to a label
    f"{GH}\n\t\n1,10,20,FIX\n2,11,21,SP\n  \n",  # blank first and last data lines
]


@pytest.mark.parametrize("text", VELOCITY_CORPUS)
def test_velocity_reader_matches_row_loop(text):
    _assert_reader_matches_loop("velocity", text)


@pytest.mark.parametrize("text", GAZE_CORPUS)
def test_gaze_reader_matches_row_loop(text):
    _assert_reader_matches_loop("gaze", text)


_CSV_LABEL_NAMES = ["FIX", "SACC", "SP", "NOISE"]
_CSV_NUMBERS = st.one_of(
    st.floats(-1e6, 1e6, allow_nan=False).map(repr),
    st.floats(-1e6, 1e6, allow_nan=False).map(lambda v: f"{v:.3f}"),
    st.integers(-10**6, 10**6).map(str),
    st.floats(allow_nan=True, allow_infinity=True).map(repr),
    st.sampled_from(
        ["", " 1 ", "1_0", "+2", "1e400", "x", "-0", ".5", "5.", "1e-320", "12.3.4", "-"]
    ),
)


@st.composite
def csv_files(draw, n_fields):
    header = fileio.VELOCITY_HEADER if n_fields == 3 else fileio.GAZE_HEADER
    n = draw(st.integers(1, 40))
    steps = draw(st.lists(st.floats(1e-3, 50.0), min_size=n, max_size=n))
    start = draw(st.floats(-1e4, 1e4))
    times = (start + np.cumsum(steps)).tolist()
    lines = [header]
    for t in times:
        if draw(st.integers(0, 9)) == 0:
            lines.append(draw(st.sampled_from(["", " ", "\t"])))
        values = [f"{t:.3f}" if draw(st.booleans()) else repr(t)]
        values += [
            f"{v:.6g}" for v in draw(st.lists(
                st.floats(-1e4, 1e4, allow_nan=False), min_size=n_fields - 2,
                max_size=n_fields - 2,
            ))
        ]
        values.append(draw(st.sampled_from(_CSV_LABEL_NAMES)))
        lines.append(",".join(values))
    if draw(st.booleans()):
        # One corrupted field, row or separator.
        row = draw(st.integers(1, len(lines) - 1))
        fields = lines[row].split(",")
        how = draw(st.integers(0, 3))
        if how == 0 and len(fields) > 1:
            col = draw(st.integers(0, len(fields) - 2))
            fields[col] = draw(_CSV_NUMBERS)
        elif how == 1:
            fields[-1] = draw(st.sampled_from(["fix", " SP", "SACC ", "", "N0ISE"]))
        elif how == 2:
            fields.insert(draw(st.integers(0, len(fields))), draw(_CSV_NUMBERS))
        else:
            del fields[draw(st.integers(0, len(fields) - 1))]
        lines[row] = ",".join(fields)
    end = draw(st.sampled_from(["\n", "\r\n", "\r"]))
    return end.join(lines) + draw(st.sampled_from(["", end]))


@settings(max_examples=300, deadline=None)
@given(csv_files(3))
def test_velocity_reader_matches_row_loop_generated(text):
    _assert_reader_matches_loop("velocity", text)


@settings(max_examples=300, deadline=None)
@given(csv_files(4))
def test_gaze_reader_matches_row_loop_generated(text):
    _assert_reader_matches_loop("gaze", text)


@st.composite
def written_files(draw, kind):
    """The writers' text for increasing timestamps and hypothesis columns."""
    values, other, labels = draw(writer_columns())
    steps = draw(arrays(np.float64, len(values), elements=st.floats(1e-3, 50.0)))
    ts = draw(st.floats(-1e4, 1e4)) + np.cumsum(steps)
    if kind == "velocity":
        return fileio.velocity_csv_bytes(SampledSignal(ts, values, labels)).decode()
    return fileio.gaze_csv_bytes(GazeTrace(ts, values, other, labels, 64, 64, 30.0)).decode()


@settings(max_examples=150, deadline=None)
@given(written_files("velocity"))
def test_velocity_reader_matches_row_loop_on_written_files(text):
    _assert_reader_matches_loop("velocity", text)


@settings(max_examples=150, deadline=None)
@given(written_files("gaze"))
def test_gaze_reader_matches_row_loop_on_written_files(text):
    _assert_reader_matches_loop("gaze", text)


@pytest.mark.parametrize("kind", ["velocity", "gaze"])
def test_readers_match_row_loop_on_70000_written_rows(kind):
    n = 70_000
    rng = np.random.default_rng(70)
    ts = np.cumsum(rng.uniform(1e-3, 5e-3, n))
    values = np.resize(WRITER_CORPUS[np.isfinite(WRITER_CORPUS)], n) * rng.choice([1.0, 1e-3], n)
    labels = rng.integers(0, len(_CSV_LABEL_NAMES), n).astype(np.uint8)
    if kind == "velocity":
        text = fileio.velocity_csv_bytes(SampledSignal(ts, values, labels)).decode()
    else:
        text = fileio.gaze_csv_bytes(GazeTrace(ts, values, values[::-1].copy(), labels, 64, 64, 30.0)).decode()
    _assert_reader_matches_loop(kind, text)


# --- CSV writers: the byte matrix against the f-string per row ---

def velocity_csv_text_loop(signal: SampledSignal) -> str:
    lines = [fileio.VELOCITY_HEADER]
    for t, v, lab in zip(
        signal.timestamps.tolist(), signal.velocities.tolist(), signal.labels.tolist()
    ):
        lines.append(f"{t * 1000.0:.3f},{v:.6g},{_CSV_LABEL_NAMES[lab]}")
    return "\n".join(lines) + "\n"


def gaze_csv_text_loop(trace: GazeTrace) -> str:
    lines = [fileio.GAZE_HEADER]
    for t, x, y, lab in zip(
        trace.timestamps.tolist(), trace.x.tolist(), trace.y.tolist(), trace.labels.tolist()
    ):
        lines.append(f"{t * 1000.0:.3f},{x:.3f},{y:.3f},{_CSV_LABEL_NAMES[lab]}")
    return "\n".join(lines) + "\n"


def _assert_writers_match_loops(a: np.ndarray, b: np.ndarray, labels: np.ndarray) -> None:
    """Both writers on every pairing of the columns a and b (as timestamps,
    values and coordinates), byte for byte against the f-string loops."""
    for ts, vs in ((a, b), (b, a), (a / 1000.0, b)):
        signal = SampledSignal(ts, vs, labels)
        assert fileio.velocity_csv_bytes(signal).decode() == velocity_csv_text_loop(signal)
        trace = GazeTrace(ts, vs, a, labels, 64, 64, 30.0)
        assert fileio.gaze_csv_bytes(trace).decode() == gaze_csv_text_loop(trace)


_TINY = 5e-324
WRITER_CORPUS = np.array([
    # odd multiples of 1/16: exact .3f ties, rounded half to even
    0.0625, 0.1875, -0.0625, 1.0625, 100000.5, 123456.5, 2.5, 0.5,
    0.0, -0.0, -1e-9, -0.0004, -0.0005, -0.0006, -1.0,
    # the edges of .6g's fixed notation and of its decades
    1e-4, math.nextafter(1e-4, 0.0), math.nextafter(1e-4, 1.0), 999999.5, 999999.4, 1e6,
    math.nextafter(1e6, 0.0), 9.999995, 9.9999949, 0.00099999951, 0.001, 0.1, 1e5,
    math.nextafter(1e5, 0.0), 99999.95, 99999.75, 1.00000049999,
    2.0**53 / 1000.0, 2.0**52 / 1000.0, math.nextafter(2.0**52 / 1000.0, 0.0), 2.0**60,
    math.inf, -math.inf, math.nan, _TINY, -_TINY, 2.2250738585072014e-308, 1e-300, 1e300,
])


@pytest.mark.parametrize("n", [0, 1, 70_000])
def test_writers_match_loops_on_the_corpus(n):
    rng = np.random.default_rng(n)
    values = np.resize(WRITER_CORPUS, n)
    noise = rng.uniform(-1e4, 1e4, n)
    labels = np.resize(np.arange(len(_CSV_LABEL_NAMES), dtype=np.uint8), n)
    _assert_writers_match_loops(values, noise, labels)


@pytest.mark.parametrize("label", range(len(_CSV_LABEL_NAMES)))
def test_writers_match_loops_on_every_label(label):
    labels = np.full(len(WRITER_CORPUS), label, dtype=np.uint8)
    _assert_writers_match_loops(WRITER_CORPUS, WRITER_CORPUS[::-1].copy(), labels)


_WRITER_FLOATS = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True),
    st.floats(-1e7, 1e7),
    st.floats(-1e-3, 1e-3),
    st.integers(-10**7, 10**7).map(lambda k: k / 16.0),
    st.integers(-10**9, 10**9).map(lambda k: (2 * k + 1) / 2000.0),
    st.tuples(st.integers(10**5, 10**6), st.integers(-12, 2)).map(
        lambda p: (p[0] + 0.5) * 10.0 ** p[1]
    ),
    st.sampled_from(WRITER_CORPUS.tolist()),
)


@st.composite
def writer_columns(draw):
    n = draw(st.integers(0, 30))
    a = draw(arrays(np.float64, n, elements=_WRITER_FLOATS))
    b = draw(arrays(np.float64, n, elements=_WRITER_FLOATS))
    labels = draw(arrays(np.uint8, n, elements=st.integers(0, len(_CSV_LABEL_NAMES) - 1)))
    return a, b, labels


@settings(max_examples=150, deadline=None)
@given(writer_columns())
def test_writers_match_loops_generated(columns):
    _assert_writers_match_loops(*columns)


# --- target choice: running sums and searchsorted against the scalar loop ---

def choose_target_loop(targets, rng):
    weights = [max(p[2], 0.0) for p in targets.points]
    total = sum(weights)
    u = rng.uniform()
    if total <= 0:
        return targets.points[min(int(u * len(targets)), len(targets) - 1)]
    u *= total
    acc = 0.0
    for p, w in zip(targets.points, weights):
        acc += w
        if u < acc:
            return p
    return targets.points[-1]


class _FixedUniform:
    """A stand-in stream whose every uniform draw is u."""

    def __init__(self, u: float):
        self.u = u

    def uniform(self) -> float:
        return self.u


_WEIGHTS = st.one_of(
    st.sampled_from([0.0, -0.0, -1.0, 1.0, 0.1, 0.2, 0.3, math.nan, math.inf, -math.inf]),
    st.floats(-10.0, 10.0),
    st.floats(0.0, 1e300),
)
_UNIFORMS = st.one_of(
    st.floats(0.0, 1.0, exclude_max=True),
    st.sampled_from([0.0, 0.5, 1.0 - 2**-53, 1.0 - 2**-52, 0.1, 1 / 3]),
)


@settings(max_examples=500, deadline=None)
@given(st.lists(_WEIGHTS, min_size=1, max_size=12), _UNIFORMS)
@example([0.0, 0.0, 0.0], 0.5)
@example([-1.0, -2.0], 0.99)
@example([1.0, 0.0, 0.0], 1.0 - 2**-53)
@example([0.1, 0.2, 0.3], 1.0 - 2**-53)
@example([0.1, 0.2, 0.3, 0.0], 0.5)
@example([1.0, math.nan, 1.0], 0.2)
@example([math.inf, 1.0], 0.0)
@example([1.0, math.inf, 1.0], 0.3)
def test_choose_target_matches_loop(weights, u):
    targets = TargetSet([(float(i), 0.0, w) for i, w in enumerate(weights)], 64, 64)
    want = choose_target_loop(targets, _FixedUniform(u))
    assert SceneTargets.from_static(targets).choose(0.0, _FixedUniform(u)) is want


@settings(max_examples=100, deadline=None)
@given(st.lists(st.floats(0.0, 5.0), min_size=1, max_size=8), st.integers(0, 2**32))
def test_choose_target_on_a_stream_matches_loop(weights, seed):
    targets = TargetSet([(float(i), 0.0, w) for i, w in enumerate(weights)], 64, 64)
    scene = SceneTargets.from_static(targets)
    a, b = RandomSource(seed), RandomSource(seed)
    for _ in range(20):
        assert scene.choose(0.0, a) is choose_target_loop(targets, b)


# --- gaze placement: array arithmetic and one batch of draws against the loops ---

def place_movement_run_loop(signal, start, end, origin, dest, p, rng, xs, ys):
    """The per-sample placement of a saccade or pursuit run."""
    ts = signal.timestamps
    t_before = float(ts[start - 1]) if start > 0 else 0.0
    dts = np.diff(ts[start - 1 : end]) if start > 0 else np.diff(
        np.concatenate(([t_before], ts[start:end]))
    )
    steps = signal.velocities[start:end] * dts * p.pixels_per_degree
    cum = np.cumsum(np.maximum(steps, 0.0))
    total = float(cum[-1])
    n = end - start
    if total > 0:
        progress = cum / total
    else:
        progress = np.arange(1, n + 1) / n
    ox, oy = origin
    dx, dy = dest[0] - ox, dest[1] - oy
    dist = math.hypot(dx, dy)
    if dist > 0:
        ux, uy = dx / dist, dy / dist
    else:
        ux, uy = 0.0, 0.0
    perp_x, perp_y = -uy, ux
    for j in range(n):
        prog = float(progress[j])
        px = ox + prog * dx
        py = oy + prog * dy
        amp = p.max_path_deviation * 2.0 * min(prog, 1.0 - prog)
        if amp > 0:
            off = (2.0 * rng.uniform() - 1.0) * amp
            px += off * perp_x
            py += off * perp_y
        xs[start + j] = px
        ys[start + j] = py
    xs[end - 1] = dest[0]
    ys[end - 1] = dest[1]


def fixation_walk_loop(center, n, dispersion, rng):
    """The stream v1 walk: a uniform then a normal per point (the last pair
    unused); it loops without drawing when dispersion is 0."""
    cx, cy = center
    px, py = cx, cy
    pts = []
    for _ in range(n):
        pts.append((px, py))
        if dispersion == 0:
            continue
        ang = 2.0 * math.pi * rng.uniform()
        step = min(abs(rng.normal()) * (dispersion / 3.0), dispersion / 2.0)
        nx = px + step * math.cos(ang) + 0.1 * (cx - px)
        ny = py + step * math.sin(ang) + 0.1 * (cy - py)
        d = math.hypot(nx - cx, ny - cy)
        if d > dispersion:
            nx = cx + (nx - cx) * dispersion / d
            ny = cy + (ny - cy) * dispersion / d
        px, py = nx, ny
    return pts


_POINT = st.floats(0.0, 640.0)


@st.composite
def movement_runs(draw):
    total = draw(st.integers(1, 50))
    start = draw(st.sampled_from([0, draw(st.integers(0, total - 1))]))
    end = draw(st.sampled_from([start + 1, draw(st.integers(start + 1, total))]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    ts = np.cumsum(rng.uniform(0.001, 0.02, total))
    v = rng.uniform(0.0, 600.0, total)
    speed = draw(st.sampled_from(["positive", "zero", "some_zero", "some_negative"]))
    if speed == "zero":  # total path 0: even progress
        v[:] = 0.0
    elif speed == "some_zero":
        v[rng.random(total) < 0.5] = 0.0
    elif speed == "some_negative":  # negative steps are clipped to 0
        v[rng.random(total) < 0.3] *= -1.0
    origin = (draw(_POINT), draw(_POINT))
    dest = origin if draw(st.booleans()) else (draw(_POINT), draw(_POINT))
    deviation = draw(st.one_of(st.sampled_from([0.0, 1e-300, 3.0, 15.0]), st.floats(0.0, 50.0)))
    p = MappingParams(draw(st.sampled_from([1.0, 30.0, 57.3])), deviation)
    signal = SampledSignal(ts, v, np.full(total, int(MovementLabel.SACCADE)))
    return signal, start, end, origin, dest, p


@settings(max_examples=400, deadline=None)
@given(movement_runs(), st.integers(0, 2**32))
def test_place_movement_run_matches_loop(run, seed):
    signal, start, end, origin, dest, p = run
    a, b = RandomSource(seed), RandomSource(seed)
    fill = np.random.default_rng(seed).random(len(signal))  # samples outside the run
    xs, ys = fill.copy(), fill[::-1].copy()
    want_x, want_y = fill.copy(), fill[::-1].copy()
    # The steps of the whole signal, as map_to_gaze computes them once.
    steps = signal.velocities * np.diff(signal.timestamps, prepend=0.0) * p.pixels_per_degree
    n = np.array([end - start])
    progress, amp = _progress(steps[start:end], n, p.max_path_deviation)
    u = a.uniforms(int(np.count_nonzero(amp > 0)))
    xs[start:end], ys[start:end] = _paths(
        progress, amp, u, n, np.array([origin]), np.array([dest])).T
    place_movement_run_loop(signal, start, end, origin, dest, p, b, want_x, want_y)
    assert_same_bits(xs, want_x)
    assert_same_bits(ys, want_y)
    assert a.uniform() == b.uniform()


@pytest.mark.parametrize("dispersion", [0.0, 4.0])
@pytest.mark.parametrize("n", [1, 2, 37])
def test_fixation_walk_matches_loop(dispersion, n):
    """Without dispersion, bit for bit with the loop, and nothing drawn.
    With it, stream v2 draws n - 1 uniforms, then n - 1 normals, and
    nothing else; the walk starts at the center and stays in the disc. Its
    distribution is checked against the loop's below."""
    center = (12.5, 40.25)
    for seed in range(5):
        a, b = RandomSource(seed), RandomSource(seed)
        got = fixation_walk(center, n, dispersion, a)
        want = fixation_walk_loop(center, n, dispersion, RandomSource(seed))
        assert len(got) == len(want) == n
        assert got[0] == want[0] == center
        if dispersion == 0:
            assert got == want
        else:
            b.uniforms(n - 1)
            b.normals(n - 1)
            r = [math.hypot(x - center[0], y - center[1]) for x, y in got]
            assert max(r) <= dispersion * (1 + 1e-12)
        assert a.uniform() == b.uniform()


def _walk_statistics(walk, seeds, center=(12.5, 40.25), dispersion=4.0):
    """Length and angle of the first step of a 2-point walk (taken from the
    center, so it is the drawn step itself) and radius of the last point of
    a 25-point walk, per seed: independent samples, where the points of one
    walk are not. Also checks that every point lies in the disc."""
    steps, angles, radii = [], [], []
    for seed in seeds:
        (x0, y0), (x1, y1) = walk(center, 2, dispersion, RandomSource(seed))
        steps.append(math.hypot(x1 - x0, y1 - y0))
        angles.append(math.atan2(y1 - y0, x1 - x0))
        if seed % 3 == 0:
            pts = np.array(walk(center, 25, dispersion, RandomSource(seed)))
            r = np.hypot(pts[:, 0] - center[0], pts[:, 1] - center[1])
            assert np.all(r <= dispersion * (1 + 1e-12))
            radii.append(r[-1])
    return steps, angles, radii


def test_fixation_walk_follows_the_loops_distribution():
    """Stream v2 draws the walk's uniforms and normals in two blocks, so it
    cannot match the interleaved loop bit for bit: two-sample KS tests on
    step length, step angle and walk radius instead."""
    got = _walk_statistics(fixation_walk, range(9000))
    want = _walk_statistics(fixation_walk_loop, range(10_000, 19_000))
    for name, g, w in zip(("step", "angle", "radius"), got, want):
        assert ks_2samp(g, w).pvalue > 1e-3, name


# --- map_to_gaze: every draw first, then all walks together, then every movement run ---

def walk_xy_loop(center, n, dispersion, rng):
    """The x and the y of the stream v2 walk, one point at a time, as
    map_to_gaze and fixation_walk computed it for one run."""
    if n < 1:
        raise ParameterError("fixation walk needs n >= 1")
    if dispersion < 0:
        raise ParameterError("dispersion must be >= 0")
    cx, cy = center
    if dispersion == 0:
        return [cx] * n, [cy] * n
    angs = (2.0 * math.pi * rng.uniforms(n - 1)).tolist()
    steps = np.minimum(np.abs(rng.normals(n - 1)) * (dispersion / 3.0), dispersion / 2.0)
    sx = (steps * np.fromiter(map(math.cos, angs), float, n - 1)).tolist()
    sy = (steps * np.fromiter(map(math.sin, angs), float, n - 1)).tolist()
    xs, ys = [cx], [cy]
    px, py = cx, cy
    for dx, dy in zip(sx, sy):
        nx = px + dx + 0.1 * (cx - px)
        ny = py + dy + 0.1 * (cy - py)
        d = math.hypot(nx - cx, ny - cy)
        if d > dispersion:
            nx = cx + (nx - cx) * dispersion / d
            ny = cy + (ny - cy) * dispersion / d
        xs.append(nx)
        ys.append(ny)
        px, py = nx, ny
    return xs, ys


def movement_path_loop(steps, origin, dest, p, rng):
    """The x and the y of one saccade or pursuit run from origin to dest,
    whose samples advance by the given steps (pixels)."""
    cum = np.cumsum(np.maximum(steps, 0.0))
    total = float(cum[-1])
    n = len(steps)
    progress = cum / total if total > 0 else np.arange(1, n + 1) / n
    ox, oy = origin
    dx, dy = dest[0] - ox, dest[1] - oy
    dist = math.hypot(dx, dy)
    ux, uy = (dx / dist, dy / dist) if dist > 0 else (0.0, 0.0)
    px = ox + progress * dx
    py = oy + progress * dy
    amp = p.max_path_deviation * 2.0 * np.minimum(progress, 1.0 - progress)
    dev = amp > 0
    off = (2.0 * rng.uniforms(int(np.count_nonzero(dev))) - 1.0) * amp[dev]
    px[dev] += off * -uy
    py[dev] += off * ux
    px[-1], py[-1] = dest
    return px, py


def map_to_gaze_loop(signal, targets, p, rng):
    """map_to_gaze one run at a time: each run takes its draws and then its
    points; the targets come from the scalar choice loop."""
    if len(signal) == 0:
        raise MappingError("cannot map an empty signal")
    width, height = targets.bounds
    ts = signal.timestamps
    steps = signal.velocities * np.diff(ts, prepend=0.0) * p.pixels_per_degree
    xs, ys = np.empty(len(signal)), np.empty(len(signal))
    cur = None
    for start, end, label in label_runs_loop(effective_labels_loop(signal.labels)):
        t_end = float(ts[end - 1])
        if label == MovementLabel.FIXATION:
            center = choose_target_loop(targets.at(t_end), rng)[:2]
            xs[start:end], ys[start:end] = walk_xy_loop(
                center, end - start, p.fixation_dispersion, rng)
        else:
            if cur is None:
                cur = choose_target_loop(targets.at(float(ts[start])), rng)[:2]
            dest = choose_target_loop(targets.at(t_end), rng)[:2]
            xs[start:end], ys[start:end] = movement_path_loop(
                steps[start:end], cur, dest, p, rng)
        cur = (xs[end - 1], ys[end - 1])
    np.clip(xs, 0.0, max(width - 1, 0), out=xs)
    np.clip(ys, 0.0, max(height - 1, 0), out=ys)
    return GazeTrace(ts.copy(), xs, ys, signal.labels.copy(), width, height,
                     p.pixels_per_degree)


class _LongSteps:
    """A stream whose normals are all 3 or more, so that every walk step
    has its longest length, dispersion / 2, and about a quarter of the
    points land outside the disc; its uniforms are a seeded generator's."""

    def __init__(self, seed: int):
        self.gen = np.random.default_rng(seed)

    def uniform(self) -> float:
        return float(self.gen.random())

    def uniforms(self, n: int) -> np.ndarray:
        return self.gen.random(n)

    def normals(self, n: int) -> np.ndarray:
        return 3.0 + 6.0 * self.gen.random(n)


F, S, P, N = (MovementLabel.FIXATION, MovementLabel.SACCADE, MovementLabel.SMOOTH_PURSUIT,
              MovementLabel.NOISE)
_DISPERSIONS = [0.0, 5e-324, 1e-120, 2e-13, 0.5, 10.0, 40.0, 1e120]
_DEVIATIONS = [0.0, 1e-300, 3.0, 15.0]


def _gaze_scene(data, frames: int) -> SceneTargets:
    """1-7 targets per frame with weights that are positive, all zero or
    some negative, one frame every 0.2 s."""
    def frame():
        k = int(data.integers(1, 8))
        w = data.choice([0.0, 1.0, 2.5, -1.0], k) if data.random() < 0.5 else data.random(k)
        xy = data.uniform(0.0, [640.0, 480.0], (k, 2))
        return TargetSet([(x, y, v) for (x, y), v in zip(xy.tolist(), w.tolist())], 640, 480)
    return SceneTargets.from_frames([(0.2 * i, frame()) for i in range(frames)], 5.0)


def _assert_map_to_gaze_matches_loop(runs, dispersion, deviation, frames, seed,
                                     stream=RandomSource) -> None:
    """runs: (label, length) in signal order."""
    data = np.random.default_rng(seed)
    labels = np.repeat([label for label, _ in runs], [n for _, n in runs]).astype(np.uint8)
    ts = np.cumsum(data.uniform(0.001, 0.02, len(labels)))
    v = data.uniform(0.0, 600.0, len(labels))
    v[data.random(len(labels)) < 0.1] = 0.0
    v[data.random(len(labels)) < 0.05] *= -1.0
    signal = SampledSignal(ts, v, labels)
    scene = _gaze_scene(data, frames)
    p = MappingParams(30.0, deviation, dispersion)
    a, b = stream(seed), stream(seed)
    got, got_err = outcome(map_to_gaze, signal, scene, p, a)
    want, want_err = outcome(map_to_gaze_loop, signal, scene, p, b)
    assert got_err == want_err
    if want_err is None:
        for column in ("timestamps", "x", "y"):
            assert_same_bits(getattr(got, column), getattr(want, column))
        assert got.labels.tobytes() == want.labels.tobytes()
        assert (got.width, got.height, got.pixels_per_degree) == (640, 480, 30.0)
    assert a.uniform() == b.uniform()


@settings(max_examples=300, deadline=None)
@given(st.lists(st.tuples(st.sampled_from([F, F, S, P, N]), st.integers(1, 12)),
                min_size=1, max_size=60),
       st.one_of(st.none(), st.tuples(st.integers(0, 60), st.integers(100, 3000))),
       st.sampled_from(_DISPERSIONS), st.sampled_from(_DEVIATIONS),
       st.sampled_from([1, 1, 4]), st.integers(0, 2**32 - 1))
def test_map_to_gaze_matches_loop(runs, long_fixation, dispersion, deviation, frames, seed):
    """Generated signals: leading NOISE, any first run, runs of 1 and 2
    samples, all NOISE, and at times one long fixation among short runs."""
    if long_fixation is not None:
        runs.insert(min(long_fixation[0], len(runs)), (F, long_fixation[1]))
    _assert_map_to_gaze_matches_loop(runs, dispersion, deviation, frames, seed)


_GAZE_RUNS = {
    "leading noise, the first run moves": [(N, 3), (S, 5), (F, 4), (P, 6), (F, 1)],
    "runs of 1 and 2 samples": [(P, 2), (S, 1), (F, 2), (N, 2), (F, 1), (S, 2), (P, 1)],
    "one long fixation": [(F, 3), (S, 4)] * 40 + [(F, 5000)] + [(S, 2), (F, 7)] * 40,
    "120 walks of 40-48 samples": [(F, 40 + i % 9) if i % 2 else (S, 3) for i in range(240)],
    "only fixations": [(F, 30)],
    "no fixation": [(P, 4), (S, 9), (N, 1), (P, 2)],
}


@pytest.mark.parametrize("dispersion", _DISPERSIONS)
@pytest.mark.parametrize("deviation", [0.0, 1e-300, 15.0])
@pytest.mark.parametrize("runs", list(_GAZE_RUNS.values()), ids=list(_GAZE_RUNS))
def test_map_to_gaze_cases_match_loop(runs, dispersion, deviation):
    for seed, frames in ((0, 1), (1, 4)):
        _assert_map_to_gaze_matches_loop(runs, dispersion, deviation, frames, seed)


@pytest.mark.parametrize("dispersion", [2e-13, 0.5, 10.0, 40.0])
@pytest.mark.parametrize("runs", list(_GAZE_RUNS.values()), ids=list(_GAZE_RUNS))
def test_map_to_gaze_with_long_steps_matches_loop(runs, dispersion):
    """Every walk step at its longest, which clamps the most points onto the
    disc's edge."""
    for seed, frames in ((2, 1), (3, 4)):
        _assert_map_to_gaze_matches_loop(runs, dispersion, 15.0, frames, seed, _LongSteps)


@pytest.mark.parametrize("labels", [[], [N], [N, N, N]])
def test_map_to_gaze_errors_match_loop(labels):
    """An empty signal and one of NOISE alone raise before any draw."""
    runs = [(label, 1) for label in labels]
    _assert_map_to_gaze_matches_loop(runs, 10.0, 15.0, 1, 0)


class _FixedDraws:
    """A stand-in stream that hands out the given uniforms and normals."""

    def __init__(self, u, z):
        self.u, self.z = u, z

    def uniforms(self, n):
        return self.u[:n]

    def normals(self, n):
        return self.z[:n]


@pytest.mark.parametrize("dispersion", [5e-324, 1e-120, 2e-13, 0.5, 10.0, 1e120])
@pytest.mark.parametrize("lengths", [[1, 2, 3], [2] * 40, [60] * 50, [1, 700] + [5] * 100,
                                     [20_000] + [3] * 200])
def test_walks_clamping_at_the_longest_steps_match_loop(lengths, dispersion):
    """Normals of 3 or more give every step its longest length, dispersion
    / 2, which clamps the most points onto the disc's edge: 22-28 % of them
    (a step cannot leave the disc from the center, and the pull draws each
    point in)."""
    data = np.random.default_rng(len(lengths))
    centers = data.uniform(100.0, 500.0, (len(lengths), 2))
    n = np.array(lengths)
    u = data.random(int(n.sum() - len(n)))
    z = data.choice([-1.0, 1.0], len(u)) * data.uniform(3.0, 9.0, len(u))
    got = _walks(centers, n, dispersion, u, z)
    split = np.cumsum(n - 1)[:-1]
    want = [walk_xy_loop(center, k, dispersion, _FixedDraws(ui, zi)) for center, k, ui, zi
            in zip(centers.tolist(), lengths, np.split(u, split), np.split(z, split))]
    assert_same_bits(got[:, 0], np.concatenate([x for x, _ in want]))
    assert_same_bits(got[:, 1], np.concatenate([y for _, y in want]))
    if len(u) > 100 and 0.5 <= dispersion < 1e100:
        r = np.hypot(*(got - centers.repeat(n, axis=0)).T)
        assert np.count_nonzero(np.abs(r - dispersion) <= 1e-12 * dispersion) > 0.2 * len(u)


def _landing(point, center, u, z, dispersion):
    """The offset from the center at which the loop's walk step from point
    lands, before any clamp."""
    angle = 2.0 * math.pi * u
    length = min(abs(z) * (dispersion / 3.0), dispersion / 2.0)
    x = point[0] + length * math.cos(angle) + 0.1 * (center[0] - point[0])
    y = point[1] + length * math.sin(angle) + 0.1 * (center[1] - point[1])
    return x - center[0], y - center[1]


@pytest.mark.parametrize("dispersion", [0.5, 3.0, 10.0])
def test_walks_at_the_disc_edge_match_loop(dispersion):
    """Walks whose last step lands as near the disc's edge as the floats
    allow, half just inside it and half just outside: two longest steps
    outward, then a direction bisected over the loop's own arithmetic until
    the landing radius (libm's hypot) crosses the dispersion. The 200 walks
    take every step together, through the edge test before hypot; with
    centers near 0 some landings just outside have x^2 + y^2 <= dispersion^2."""
    data = np.random.default_rng(7)
    centers, u, z = data.uniform(0.0, 1.0, (200, 2)), [], []
    for k, center in enumerate(centers.tolist()):
        out = float(data.random())
        point = center
        for _ in range(2):
            ox, oy = _landing(point, center, out, 3.0, dispersion)
            point = (center[0] + ox, center[1] + oy)
        inside, outside = out + 0.5, out
        while (mid := 0.5 * (inside + outside)) not in (inside, outside):
            if math.hypot(*_landing(point, center, mid % 1.0, 3.0, dispersion)) > dispersion:
                outside = mid
            else:
                inside = mid
        u += [out, out, (outside if k % 2 else inside) % 1.0]
        z += [3.0] * 3
    n = np.full(len(centers), 4)
    got = _walks(centers, n, dispersion, np.array(u), np.array(z))
    want = [walk_xy_loop(c, 4, dispersion, _FixedDraws(np.array(u[3 * k : 3 * k + 3]),
                                                         np.array(z[3 * k : 3 * k + 3])))
            for k, c in enumerate(centers.tolist())]
    assert_same_bits(got[:, 0], np.concatenate([x for x, _ in want]))
    assert_same_bits(got[:, 1], np.concatenate([y for _, y in want]))


@pytest.mark.parametrize("dispersion", [0.0, 5e-324, 2e-13, 4.0, 1e120])
@pytest.mark.parametrize("n", [1, 2, 3, 37, 2000])
def test_fixation_walk_is_the_loop_walk(dispersion, n):
    """fixation_walk is a one-walk call of the walk kernel: the per-point
    loop's points, bit for bit, and its draws."""
    center = (12.5, 40.25)
    a, b = RandomSource(n), RandomSource(n)
    got = np.array(fixation_walk(center, n, dispersion, a))
    want_x, want_y = walk_xy_loop(center, n, dispersion, b)
    assert_same_bits(got[:, 0], np.array(want_x, dtype=float))
    assert_same_bits(got[:, 1], np.array(want_y, dtype=float))
    assert a.uniform() == b.uniform()


# --- pursuit onset: 100 redraws, then one draw below the duration ---

def consistency_draws_loop(dist, n, rng):
    """A segment's fluctuation one draw at a time; bounds with min >= 0 are
    an amplitude c, drawn from [-c, c]."""
    if dist.min >= 0:
        dist = BoundedDistribution(dist.kind, -dist.max, dist.max, dist.std)
    return np.array([sample_bounded(dist, rng) for _ in range(n)], dtype=float)


def pursuit_loop(p, base_rate, rng, capped=True):
    """One pursuit segment's velocities; with ``capped`` False, the onset
    redraws raise after 100 draws, as they once did."""
    dur = sample_bounded(p.duration, rng)
    onset = sample_bounded(p.onset_duration, rng)
    attempts = 0
    while onset >= dur:
        attempts += 1
        if attempts > MAX_ONSET_REDRAWS:
            if not capped or p.onset_duration.min >= dur:
                raise ParameterError(
                    "pursuit onset duration could not be drawn below the total "
                    f"duration in {MAX_ONSET_REDRAWS} attempts"
                )
            below = math.nextafter(dur, -math.inf)
            kind, lo, std = p.onset_duration.kind, p.onset_duration.min, p.onset_duration.std
            onset = min(sample_bounded(BoundedDistribution(kind, lo, below, std), rng), below)
            break
        onset = sample_bounded(p.onset_duration, rng)
    n = generators._segment_length(dur, base_rate, "smooth pursuit")
    n_on = min(int(round(onset * base_rate)), n)
    plateau = sample_bounded(p.velocity, rng)
    end = plateau
    if p.trend != PursuitTrend.CONSTANT:
        end = sample_bounded(p.trend_end_velocity, rng)
        if p.trend == PursuitTrend.LINEAR_DECREASING and end > plateau:
            plateau, end = end, plateau
        if p.trend == PursuitTrend.LINEAR_INCREASING and end < plateau:
            plateau, end = end, plateau
    v = np.empty(n, dtype=float)
    if n_on > 0:
        t_on = n_on / base_rate
        a = generators._ONSET_STEEPNESS / t_on
        t = (np.arange(1, n_on + 1)) / base_rate
        e = [math.exp(u) for u in (-a * (t - t_on / 2.0)).tolist()]
        v[:n_on] = plateau / (1.0 + np.array(e))
    m = n - n_on
    if m > 0:
        if p.trend == PursuitTrend.CONSTANT:
            v[n_on:] = plateau
        elif m == 1:
            v[n_on:] = end
        else:
            v[n_on:] = np.linspace(plateau, end, m)
    return np.maximum(0.0, v + consistency_draws_loop(p.consistency, n, rng))


def gen_pursuit_loop(p, base_rate, rng):
    """The pursuit generator that raised after 100 onset redraws."""
    v = pursuit_loop(p, base_rate, rng, capped=False)
    labels = np.full(len(v), MovementLabel.SMOOTH_PURSUIT, dtype=np.uint8)
    return SampledSignal.at_rate(base_rate, v, labels)


@pytest.mark.parametrize("onset, trend", [
    (BoundedDistribution.uniform(0.199, 0.4), PursuitTrend.CONSTANT),
    (BoundedDistribution.normal(0.199, 0.4, 0.1), PursuitTrend.LINEAR_INCREASING),
])
def test_pursuit_onset_never_exhausts_and_keeps_old_draws(onset, trend):
    U = BoundedDistribution.uniform
    p = PursuitParams(
        U(0.2, 0.4), U(10.0, 30.0), onset, trend, U(5.0, 40.0), U(0.0, 2.0)
    )
    old_failures = 0
    for seed in range(2000):
        a, b = RandomSource(seed), RandomSource(seed)
        got = generators.gen_pursuit(p, 1000.0, a)  # never raises
        want, err = outcome(gen_pursuit_loop, p, 1000.0, b)
        if err is not None:
            old_failures += 1
            assert 200 <= len(got) <= 400
            continue
        assert got.velocities.tobytes() == want.velocities.tobytes()
        assert got.labels.tobytes() == want.labels.tobytes()
        assert a.uniform() == b.uniform()
    if onset.kind == DistKind.UNIFORM:
        assert old_failures == 12  # seeds on which the old loop gave up


def test_pursuit_onset_fallback_draws_one_onset_below_the_duration():
    U = BoundedDistribution.uniform
    p = PursuitParams(
        U(0.2, 0.4), U(10.0, 30.0), U(0.199, 0.4), PursuitTrend.CONSTANT,
        U(5.0, 40.0), U(0.0, 2.0),
    )
    seed = 150  # the old loop gave up on this seed
    assert outcome(gen_pursuit_loop, p, 1000.0, RandomSource(seed))[1] is not None
    a, b = RandomSource(seed), RandomSource(seed)
    got = generators.gen_pursuit(p, 1000.0, a)
    dur = sample_bounded(p.duration, b)
    for _ in range(MAX_ONSET_REDRAWS + 1):
        assert sample_bounded(p.onset_duration, b) >= dur
    below = math.nextafter(dur, -math.inf)
    onset = sample_bounded(BoundedDistribution.uniform(0.199, below), b)
    assert onset < dur
    plateau = sample_bounded(p.velocity, b)
    n_on = int(round(onset * 1000.0))
    assert got.velocities[n_on - 1] == pytest.approx(0.99 * plateau, abs=2.0)
    b.uniforms(len(got))  # consistency draws
    assert a.uniform() == b.uniform()


def test_pursuit_onset_at_or_above_every_duration_still_raises():
    U = BoundedDistribution.uniform
    p = PursuitParams(
        U(0.2, 0.3), U(20.0, 20.0), U(0.3, 0.5), PursuitTrend.CONSTANT,
        U(20.0, 20.0), U(0.0, 0.0),
    )
    for seed in range(5):
        got = outcome(generators.gen_pursuit, p, 1000.0, RandomSource(seed))
        assert got == outcome(gen_pursuit_loop, p, 1000.0, RandomSource(seed))
        assert got[1] is not None


# --- assemble: each movement type built once against one segment at a time ---

def fixation_loop(p, base_rate, rng):
    n = generators._segment_length(sample_bounded(p.duration, rng), base_rate, "fixation")
    return np.maximum(0.0, p.base_velocity + consistency_draws_loop(p.consistency, n, rng))


def saccade_loop(p, base_rate, rng):
    dur = sample_bounded(p.duration, rng)
    u_len = generators._normalized_position(dur, p.duration)
    peak_raw = sample_bounded(p.peak_velocity, rng)
    u_vel = generators._normalized_position(peak_raw, p.peak_velocity)
    peak = p.peak_velocity.min + (u_len * u_vel) * (p.peak_velocity.max - p.peak_velocity.min)
    shape = skew_to_shape(sample_bounded(p.skewness, rng))
    n = generators._segment_length(dur, base_rate, "saccade")
    if n < 2:
        raise ParameterError("saccade duration too short for two samples")
    v = np.array(gamma_profile_libm(n, shape, peak))
    return np.maximum(0.0, v + consistency_draws_loop(p.consistency, n, rng))


SEGMENT_LOOPS = {
    MovementLabel.FIXATION: fixation_loop,
    MovementLabel.SACCADE: saccade_loop,
    MovementLabel.SMOOTH_PURSUIT: pursuit_loop,
}


def assemble_loop(seq, fix, sac, sp, base_rate, rng):
    """The assemble that generated one segment at a time, in sequence order,
    and concatenated them."""
    if not seq:
        raise ParameterError("sequence must be non-empty")
    if not 0.0 < base_rate < math.inf:
        raise ParameterError(f"base_rate must be finite and > 0, got {base_rate}")
    params = {MovementLabel.FIXATION: fix, MovementLabel.SACCADE: sac,
              MovementLabel.SMOOTH_PURSUIT: sp}
    parts = []
    for i, label in enumerate(seq):
        try:
            if label not in params:
                raise ParameterError(f"cannot generate segment of type {label.name}")
            parts.append(SEGMENT_LOOPS[label](params[label], base_rate, rng))
        except ParameterError as e:
            raise ParameterError(f"segment {i} ({label.name}): {e}") from e
    labels = np.repeat(np.array(seq, dtype=np.uint8), [len(v) for v in parts])
    return SampledSignal.at_rate(base_rate, np.concatenate(parts), labels)


def _dists(lo: float, hi: float):
    """Uniform, normal and fixed distributions inside [lo, hi]."""
    def build(args):
        a, b, std, kind = args
        a, b = min(a, b), max(a, b)
        if kind == "uniform":
            return BoundedDistribution.uniform(a, b)
        if kind == "normal":
            return BoundedDistribution.normal(a, b, std)
        return BoundedDistribution.fixed(a)
    return st.tuples(st.floats(lo, hi), st.floats(lo, hi), st.floats(0.0, hi - lo),
                     st.sampled_from(["uniform", "normal", "fixed"])).map(build)


@st.composite
def assemble_cases(draw):
    def consistency():
        return draw(st.one_of(_dists(0.0, 30.0), _dists(-20.0, 10.0)))
    # The last choice of each duration, onset and skewness often fails.
    fix_duration = st.one_of(_dists(0.004, 0.3), _dists(0.004, 0.3), _dists(0.0002, 0.005))
    fix = FixationParams(draw(fix_duration), draw(st.floats(0.0, 40.0)), consistency())
    skewness = draw(st.one_of(
        st.sampled_from([BoundedDistribution.fixed(2.0), BoundedDistribution.fixed(MIN_SKEWNESS),
                         BoundedDistribution.uniform(MIN_SKEWNESS, 2.0)]),  # shapes 1 and 1e8
        _dists(0.05, 2.0), _dists(0.05, 2.0), _dists(1e-4, 2.5),
    ))
    sac_duration = st.one_of(_dists(0.008, 0.1), _dists(0.008, 0.1), _dists(0.0005, 0.01))
    sac = SaccadeParams(draw(sac_duration), draw(_dists(0.0, 800.0)), skewness, consistency())
    onset = st.one_of(_dists(0.002, 0.15), _dists(0.002, 0.15), _dists(0.002, 0.6))
    sp = PursuitParams(draw(_dists(0.02, 0.5)), draw(_dists(0.0, 40.0)), draw(onset),
                       draw(st.sampled_from(list(PursuitTrend))), draw(_dists(0.0, 40.0)),
                       consistency())
    types = [MovementLabel.FIXATION, MovementLabel.SACCADE, MovementLabel.SMOOTH_PURSUIT]
    labels = st.sampled_from(types * 10 + [MovementLabel.NOISE])
    seq = draw(st.lists(labels, min_size=1, max_size=12))
    base_rate = draw(st.one_of(st.sampled_from([250.0, 1000.0, 2000.0]), st.floats(250, 2000)))
    return seq, fix, sac, sp, base_rate, draw(st.integers(0, 2**32))


def _assert_assemble_matches_loop(seq, fix, sac, sp, base_rate, seed) -> None:
    a, b = RandomSource(seed), RandomSource(seed)
    got, got_err = outcome(generators.assemble, seq, fix, sac, sp, base_rate, a)
    want, want_err = outcome(assemble_loop, seq, fix, sac, sp, base_rate, b)
    assert got_err == want_err
    if want_err is None:
        assert got.base_rate == base_rate
        assert got.velocities.tobytes() == want.velocities.tobytes()
        assert got.labels.tobytes() == want.labels.tobytes()
    assert a.uniform() == b.uniform()


@settings(max_examples=400, deadline=None)
@given(assemble_cases())
def test_assemble_matches_loop(case):
    _assert_assemble_matches_loop(*case)


@settings(max_examples=150, deadline=None)
@given(assemble_cases())
def test_assemble_one_segment_generators_match_loop(case):
    seq, fix, sac, sp, base_rate, seed = case
    for gen, loop, p in ((generators.gen_fixation, fixation_loop, fix),
                         (generators.gen_saccade, saccade_loop, sac),
                         (generators.gen_pursuit, pursuit_loop, sp)):
        a, b = RandomSource(seed), RandomSource(seed)
        got, got_err = outcome(gen, p, base_rate, a)
        want, want_err = outcome(loop, p, base_rate, b)
        assert got_err == want_err
        if want_err is None:
            assert got.velocities.tobytes() == want.tobytes()
        assert a.uniform() == b.uniform()


def test_assemble_with_onset_redraws_and_capped_draws_matches_loop(monkeypatch):
    # Onset draws at or above the duration are redrawn; seed 150 exhausts
    # the 100 redraws of its first pursuit and takes the capped draw.
    U = BoundedDistribution.uniform
    capped = []
    sample = generators.sample_bounded
    monkeypatch.setattr(generators, "sample_bounded", lambda dist, rng: (
        capped.append(dist.max < 0.4 and dist.min == 0.199), sample(dist, rng))[1])
    sp = PursuitParams(U(0.2, 0.4), U(10.0, 30.0), U(0.199, 0.4),
                       PursuitTrend.LINEAR_DECREASING, U(5.0, 40.0), U(0.0, 2.0))
    fix = FixationParams(U(0.1, 0.2), 1.0, U(0.0, 1.0))
    sac = SaccadeParams(U(0.02, 0.06), U(100.0, 500.0), U(0.4, 2.0), U(0.0, 5.0))
    F, S, P = MovementLabel.FIXATION, MovementLabel.SACCADE, MovementLabel.SMOOTH_PURSUIT
    for seed in [150, *range(40)]:
        _assert_assemble_matches_loop([P, F, S, P, P, F, S, P], fix, sac, sp, 1000.0, seed)
    assert sum(capped) >= 1


@pytest.mark.parametrize("seq, base_rate", [
    ([], 1000.0), ([MovementLabel.FIXATION], 0.0), ([MovementLabel.SACCADE], math.nan),
    ([MovementLabel.SMOOTH_PURSUIT], math.inf), ([MovementLabel.NOISE], 500.0),
])
def test_assemble_argument_errors_match_loop(seq, base_rate):
    U = BoundedDistribution.uniform
    fix = FixationParams(U(0.1, 0.2), 1.0, U(0.0, 1.0))
    sac = SaccadeParams(U(0.02, 0.06), U(100.0, 500.0), U(0.4, 2.0), U(0.0, 5.0))
    sp = PursuitParams(U(0.2, 0.4), U(10.0, 30.0), U(0.05, 0.1), PursuitTrend.CONSTANT,
                       U(5.0, 40.0), U(0.0, 2.0))
    _assert_assemble_matches_loop(seq, fix, sac, sp, base_rate, 3)


def test_assemble_saccade_grids_match_np_linspace():
    # The saccade grid of every segment at once, against np.linspace(0, tail, n).
    rng = np.random.default_rng(0)
    n = np.concatenate([[2, 3, 4, 5, 7, 8, 9, 16, 17, 255, 256, 4097],
                        rng.integers(2, 5000, 2000)])
    shape = np.concatenate([[1.0, MAX_GAMMA_SHAPE, 4.0, 1.5] * 3,
                            10.0 ** rng.uniform(0.0, 8.0, 2000)])
    tail = np.array([gamma_tail(k) for k in shape.tolist()])
    got = generators._linspaces(np.zeros(len(n)), tail, n.astype(np.intp))
    want = np.concatenate([np.linspace(0.0, t, m) for t, m in zip(tail.tolist(), n.tolist())])
    assert got.tobytes() == want.tobytes()


_TREND_ENDS = st.one_of(st.floats(0.0, 1e3), st.sampled_from([0.0, 5e-324, 1e-320, 2.2e-308, 9.0]))


@settings(max_examples=400, deadline=None)
@given(st.lists(st.tuples(st.integers(1, 300), _TREND_ENDS, _TREND_ENDS), min_size=1, max_size=9))
@example([(1, 3.0, 5.0), (2, 4.0, 4.0), (3, 5e-324, 0.0), (5, 0.0, 1e-320), (4, 7.0, 7.0)])
def test_assemble_trend_grids_match_np_linspace(segments):
    # The trend phases of many pursuits at once, against np.linspace(plateau,
    # end, m), which is [end] for m == 1; equal ends and subnormal steps
    # take np.linspace's i / div * delta.
    m, start, stop = (np.array(c) for c in zip(*segments))
    got = generators._linspaces(start, stop, m.astype(np.intp))
    want = [np.linspace(a, b, k) if k > 1 else np.array([b]) for k, a, b in segments]
    assert got.tobytes() == np.concatenate(want).tobytes()


# --- noise: blocks of placement draws and one batch of magnitudes against a draw at a time ---

def draw_index_loop(n: int, dist: DistKind, rng) -> int:
    if dist == DistKind.UNIFORM:
        return min(int(rng.uniform() * n), n - 1)
    idx = int(round(n / 2.0 + (n / 4.0) * rng.normal()))
    return min(max(idx, 0), n - 1)


def select_indices_loop(n: int, k: int, spec: NoiseSpec, rng) -> list[int]:
    """Noise placement with one draw per attempt."""
    chosen: set[int] = set()
    burst = spec.burst_length
    attempts = 0
    max_attempts = 200 * max(n, 1)
    while len(chosen) < k and attempts < max_attempts:
        attempts += 1
        if burst == 1:
            idx = draw_index_loop(n, spec.location_dist, rng)
            if idx in chosen:
                continue
            chosen.add(idx)
        else:
            run = min(burst, k - len(chosen))
            start = draw_index_loop(n, spec.location_dist, rng)
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


def inject_noise_loop(signal, spec, rng):
    out = signal.copy()
    n = len(signal)
    k = int(round(spec.fraction * n))
    if k == 0:
        return out
    for i in select_indices_loop(n, k, spec, rng):
        mag = sample_bounded(spec.magnitude, rng)
        if spec.mode == MODE_REPLACE:
            out.velocities[i] = mag
        else:
            out.velocities[i] = max(0.0, out.velocities[i] + mag)
        out.labels[i] = MovementLabel.NOISE
    return out


NOISE_MAGNITUDES = [
    BoundedDistribution.uniform(100.0, 300.0),
    BoundedDistribution.uniform(-40.0, 10.0),
    BoundedDistribution.normal(-30.0, 30.0, 20.0),
    BoundedDistribution.fixed(0.0),
    BoundedDistribution.normal(-5.0, -5.0, 1.0),
]


@pytest.mark.parametrize("mode", [MODE_REPLACE, MODE_ADD])
@pytest.mark.parametrize("magnitude", NOISE_MAGNITUDES)
@pytest.mark.parametrize("burst", [1, 3])
@pytest.mark.parametrize("location", [DistKind.UNIFORM, DistKind.NORMAL])
def test_inject_noise_matches_loop(mode, magnitude, burst, location):
    for seed in range(4):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 200))
        v = rng.uniform(-20.0, 400.0, n)
        v[rng.random(n) < 0.1] = -0.0
        v[rng.random(n) < 0.05] = math.nan
        signal = SampledSignal(np.arange(1, n + 1) / 250.0, v, rng.integers(0, 3, n))
        spec = NoiseSpec(float(rng.uniform(0.0, 0.6)), location, magnitude, mode, burst)
        a, b = RandomSource(seed), RandomSource(seed)
        got = noise.inject_noise(signal, spec, a)
        want = inject_noise_loop(signal, spec, b)
        assert_same_bits(got.velocities, want.velocities)
        assert got.labels.tobytes() == want.labels.tobytes()
        assert a.uniform() == b.uniform()


class _ConstantDraws:
    """Every uniform is u and every normal z; counts the draws taken."""

    def __init__(self, u: float, z: float):
        self.u, self.z, self.taken = u, z, 0

    def uniform(self):
        return self.uniforms(1)[0]

    def normal(self):
        return self.normals(1)[0]

    def uniforms(self, n):
        self.taken += n
        return np.full(n, self.u)

    def normals(self, n):
        self.taken += n
        return np.full(n, self.z)


def _assert_select_indices_match_loop(n, k, spec, rng, loop_rng) -> None:
    got = noise._select_indices(n, k, spec, rng)
    assert got == select_indices_loop(n, k, spec, loop_rng)
    assert len(got) == k


@pytest.mark.parametrize("burst", [1, 2, 7])
@pytest.mark.parametrize("location", [DistKind.UNIFORM, DistKind.NORMAL])
@pytest.mark.parametrize("fraction", [0.01, 0.05, 0.3, 0.7, 0.95, 1.0])
def test_select_indices_match_loop(location, fraction, burst):
    # Bursts at high fractions run into the 200 n attempts, which the loop
    # takes one at a time: their signals stay short.
    spec = NoiseSpec(fraction, location, BoundedDistribution.fixed(0.0), burst_length=burst)
    for seed, n in enumerate([1, 2, 3, 5, 17, 200] + ([1000, 3001] if burst == 1 else [60])):
        k = int(round(fraction * n))
        a, b = RandomSource(seed), RandomSource(seed)
        _assert_select_indices_match_loop(n, k, spec, a, b)
        assert a.uniform() == b.uniform()


@pytest.mark.parametrize("location, u, z", [
    (DistKind.UNIFORM, 0.0, 0.0), (DistKind.UNIFORM, 0.999, 0.0),
    (DistKind.NORMAL, 0.0, -100.0), (DistKind.NORMAL, 0.0, 0.3),
])
@pytest.mark.parametrize("n", [1, 2, 3, 7])
@pytest.mark.parametrize("burst", [1, 3])
def test_select_indices_attempt_cap_and_sweep_match_loop(location, u, z, n, burst):
    # Draws that always give one start exhaust the 200 n attempts unless the
    # first attempt completes the selection; the sweep then takes the lowest
    # free indices. Both take every attempt.
    spec = NoiseSpec(1.0, location, BoundedDistribution.fixed(0.0), burst_length=burst)
    for k in range(1, n + 1):
        a, b = _ConstantDraws(u, z), _ConstantDraws(u, z)
        _assert_select_indices_match_loop(n, k, spec, a, b)
        assert a.taken == b.taken == (1 if k <= burst else 200 * n)


# --- dynamic targets: binary search against the nearest-frame scan ---

def scene_at_loop(scene: SceneTargets, time: float) -> TargetSet:
    return min(scene.frames, key=lambda ft: abs(ft[0] - time))[1]


def _scene(times: list[float]) -> SceneTargets:
    return SceneTargets.from_frames(
        [(t, TargetSet([(float(i), 0.0, 1.0)], 8, 8)) for i, t in enumerate(times)], 1.0
    )


def _assert_at_matches_scan(times: list[float], queries: list[float]) -> None:
    scene = _scene(times)
    for q in queries:
        assert scene.at(q) is scene_at_loop(scene, q), (times, q)


def _probe_times(times: list[float]) -> list[float]:
    """Every frame time, the midpoints and the floats beside them, and
    times before the first and after the last frame."""
    mids = [a + (b - a) / 2 for a, b in zip(times, times[1:])]
    near = [math.nextafter(t, d) for t in times + mids for d in (-math.inf, math.inf)]
    ends = [times[0] - 1.0, times[0] - 1e17, times[-1] + 1.0, times[-1] + 1e17]
    return times + mids + near + ends + [math.inf, -math.inf, math.nan]


_FRAME_TIMES = st.lists(
    st.one_of(
        st.integers(-50, 50).map(float),
        st.floats(-1e3, 1e3),
        st.integers(-8, 8).map(lambda k: 1e17 + 16.0 * k),
    ),
    min_size=1, max_size=12, unique=True,
).map(sorted)


@settings(max_examples=300, deadline=None)
@given(_FRAME_TIMES, st.lists(st.floats(allow_nan=True, allow_infinity=True), max_size=5))
@example([0.0], [0.0, -1.0, 1.0])
@example([0.0, 1.0, 2.0, 3.0], [1e17, -1e17, 0.5, 1.5, 2.5])
@example([1e17, 1e17 + 16.0, 1e17 + 32.0], [0.0, 1e17 + 8.0, 1e17 + 24.0, 2e17])
@example([-1.0, 1e17], [5e16, 5e16 + 8.0])
def test_scene_targets_at_matches_scan(times, queries):
    _assert_at_matches_scan(times, _probe_times(times) + queries)


def test_scene_targets_at_matches_scan_on_many_frames():
    times = [i / 30.0 for i in range(1000)]
    queries = np.random.default_rng(0).uniform(-1.0, 35.0, 2000).tolist()
    _assert_at_matches_scan(times, queries + _probe_times(times[:50]))


# --- quantiles: one partition against np.percentile and np.median ---

def _bits(x) -> bytes:
    return np.asarray(x, dtype=float).tobytes()


QUANTILE_ARRAYS = [
    [3.5], [-0.0], [math.inf], [math.nan],
    [1.0, 2.0], [2.0, 1.0], [-0.0, 0.0], [0.0, -0.0], [-0.0, -0.0], [1.0, math.inf],
    [-math.inf, math.inf], [math.inf, math.inf], [1.0, math.nan], [-math.nan, 1.0],
    [1.0, 2.0, 3.0], [1.0, 2.0, 3.0, 4.0], [5.0, 1.0, 4.0, 2.0, 3.0],
    [1.0, 1.0, 1.0, 2.0], [2.0, 2.0, 2.0], [0.0, 1.0, math.inf], [-math.inf, 0.0, 1.0],
    [1.0, math.inf, math.inf, 2.0], [1e308, 1.7e308, 1.7e308, 1e308],
    [0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7], [5e-324, 0.0, -5e-324, 1e-300],
]


def _assert_quantiles_match_numpy(values) -> None:
    a = np.array(values, dtype=float)
    with np.errstate(all="ignore"):  # inf - inf, and sums past the largest float
        assert _bits(_quartiles(a)) == _bits(np.percentile(a, [25, 50, 75]))
        assert _bits(_median(a)) == _bits(np.median(a))


@pytest.mark.parametrize("values", QUANTILE_ARRAYS)
def test_quantiles_match_numpy(values):
    _assert_quantiles_match_numpy(values)


@settings(max_examples=400, deadline=None)
@given(st.lists(
    st.one_of(
        st.floats(allow_nan=False),
        st.floats(0.0, 10.0),
        st.sampled_from([0.0, -0.0, 1.0, math.inf, -math.inf, math.nan]),
    ),
    min_size=1, max_size=60,
))
def test_quantiles_match_numpy_generated(values):
    _assert_quantiles_match_numpy(values)


@pytest.mark.parametrize("n", [999, 1000, 20_001])
def test_quantiles_match_numpy_on_squared_errors(n):
    rng = np.random.default_rng(n)
    errors = (rng.normal(size=n) * rng.lognormal(0.0, 3.0, n)) ** 2
    _assert_quantiles_match_numpy(errors.tolist())


# --- sequence: the rule table against the rule scans, and the one-step repair ---

def forced_follower_loop(prev, rules):
    if prev is None:
        return None
    for rule in rules:
        if rule.kind == OrderingRule.AFTER_EACH and rule.first == prev:
            return rule.second
    return None


def required_predecessor_loop(t, rules):
    for rule in rules:
        if rule.kind == OrderingRule.BEFORE and rule.second == t:
            return rule.first
    return None


def placed_loop(t, prev, rules):
    for _ in sequence.MOVEMENT_TYPES:
        pred = required_predecessor_loop(t, rules)
        if pred is None or pred == prev:
            return t
        t = pred
    return t


def feasible_loop(candidate, prev, remaining, rules):
    rem = dict(remaining)
    cur = placed_loop(candidate, prev, rules)
    seen = set()
    while True:
        if rem[cur] == 0:
            return False
        rem[cur] -= 1
        nxt = forced_follower_loop(cur, rules)
        if nxt is None or cur in seen:
            break
        seen.add(cur)
        cur = nxt
    tail = cur
    for rule in rules:
        if rule.kind == OrderingRule.AFTER_EACH:
            if rem[rule.second] < rem[rule.first]:
                return False
        else:
            slack = 1 if tail == rule.first else 0
            if rem[rule.first] < rem[rule.second] - slack:
                return False
    return True


def validate_counts_loop(counts, rules):
    for rule in rules:
        if rule.kind == OrderingRule.AFTER_EACH:
            if counts.get(rule.second, 0) < counts.get(rule.first, 0):
                raise ConstraintError(
                    f"rule '{rule}' unsatisfiable: not enough "
                    f"{rule.second.name} for {rule.first.name}",
                    rule,
                )
        else:
            if counts.get(rule.first, 0) < counts.get(rule.second, 0):
                raise ConstraintError(
                    f"rule '{rule}' unsatisfiable: not enough "
                    f"{rule.first.name} for {rule.second.name}",
                    rule,
                )


def build_sequence_loop(spec, rng):
    """The builder that scanned the rule list for each forced follower and
    required predecessor, and checked the counts against each rule twice:
    up front, and at the end of each feasibility check."""
    rules = spec.constraints
    if spec.explicit is not None:
        violated = sequence.find_violation(spec.explicit, rules)
        if violated is not None:
            raise ConstraintError(
                f"explicit sequence violates rule '{violated}'", violated
            )
        return list(spec.explicit)

    seq = []
    if spec.counts is not None:
        remaining = {t: int(spec.counts.get(t, 0)) for t in sequence.MOVEMENT_TYPES}
        validate_counts_loop(remaining, rules)
        while sum(remaining.values()) > 0:
            prev = seq[-1] if seq else None
            t = forced_follower_loop(prev, rules)
            if t is None:
                cands = [
                    c
                    for c in sequence.MOVEMENT_TYPES
                    if remaining[c] > 0 and feasible_loop(c, prev, remaining, rules)
                ]
                if not cands:
                    raise ConstraintError(
                        "no movement type can be placed without violating a rule"
                    )
                weights = [float(remaining[c]) for c in cands]
                t = placed_loop(sequence._weighted_choice(cands, weights, rng), prev, rules)
            else:
                assert remaining[t] > 0, "_feasible kept a count for each forced follower"
            seq.append(t)
            remaining[t] -= 1
    else:
        # Length mode: equal probability per type each draw.
        while len(seq) < spec.length:
            prev = seq[-1] if seq else None
            t = forced_follower_loop(prev, rules)
            if t is None:
                t = sequence._weighted_choice(list(sequence.MOVEMENT_TYPES), [1.0, 1.0, 1.0], rng)
                t = placed_loop(t, prev, rules)
            seq.append(t)
        # The last type's chain of forced followers ends the sequence.
        for _ in sequence.MOVEMENT_TYPES:
            t = forced_follower_loop(seq[-1], rules)
            if t is None:
                break
            seq.append(t)
    violated = sequence.find_violation(seq, rules)
    if violated is not None:
        raise ConstraintError(f"generated sequence violates '{violated}'", violated)
    return seq


def feasible_one_step(candidate, prev, remaining, rules):
    """The feasibility check that repaired a draw by one required predecessor."""
    rem = dict(remaining)
    placed = candidate
    pred = required_predecessor_loop(candidate, rules)
    if pred is not None and prev != pred:
        if rem[pred] == 0:
            return False
        placed = pred
    rem[placed] -= 1
    seen = set()
    cur = placed
    while True:
        nxt = forced_follower_loop(cur, rules)
        if nxt is None or cur in seen:
            break
        seen.add(cur)
        if rem[nxt] == 0:
            return False
        rem[nxt] -= 1
        cur = nxt
    tail = cur
    for rule in rules:
        if rule.kind == OrderingRule.AFTER_EACH:
            if rem[rule.second] < rem[rule.first]:
                return False
        else:
            slack = 1 if tail == rule.first else 0
            if rem[rule.first] < rem[rule.second] - slack:
                return False
    return True


def build_sequence_one_step(spec, rng):
    """The builder that placed one required predecessor for a draw, and one
    forced follower after the last type of a length-mode sequence."""
    rules = spec.constraints
    types = sequence.MOVEMENT_TYPES
    if spec.counts is not None:
        counts = {t: int(spec.counts.get(t, 0)) for t in types}
        validate_counts_loop(counts, rules)
        seq = []
        remaining = dict(counts)
        while sum(remaining.values()) > 0:
            prev = seq[-1] if seq else None
            forced = forced_follower_loop(prev, rules)
            if forced is not None:
                if remaining[forced] == 0:
                    raise ConstraintError(
                        f"rule requires a {forced.name} after {prev.name} but none remain"
                    )
                seq.append(forced)
                remaining[forced] -= 1
                continue
            cands = [
                t for t in types
                if remaining[t] > 0 and feasible_one_step(t, prev, remaining, rules)
            ]
            if not cands:
                raise ConstraintError("no movement type can be placed without violating a rule")
            t = sequence._weighted_choice(cands, [float(remaining[c]) for c in cands], rng)
            pred = required_predecessor_loop(t, rules)
            if pred is not None and prev != pred:
                seq.append(pred)
                remaining[pred] -= 1
            else:
                seq.append(t)
                remaining[t] -= 1
        violated = sequence.find_violation(seq, rules)
        if violated is not None:
            raise ConstraintError(f"generated sequence violates '{violated}'", violated)
        return seq
    seq = []
    while len(seq) < spec.length:
        prev = seq[-1] if seq else None
        forced = forced_follower_loop(prev, rules)
        if forced is not None:
            seq.append(forced)
            continue
        t = sequence._weighted_choice(list(types), [1.0, 1.0, 1.0], rng)
        pred = required_predecessor_loop(t, rules)
        seq.append(pred if pred is not None and prev != pred else t)
    forced = forced_follower_loop(seq[-1], rules)
    if forced is not None:
        seq.append(forced)
    return seq


def sequence_outcome(build, spec, seed):
    try:
        return build(spec, RandomSource(seed)), None
    except ConstraintError as e:
        return None, str(e)


_SINGLE_RULES = [
    OrderingRule(kind, a, b)
    for kind in (OrderingRule.AFTER_EACH, OrderingRule.BEFORE)
    for a in sequence.MOVEMENT_TYPES
    for b in sequence.MOVEMENT_TYPES
    if a != b
]
RULE_SETS = [[]] + [[r] for r in _SINGLE_RULES] + [
    [a, b] for i, a in enumerate(_SINGLE_RULES) for b in _SINGLE_RULES[i + 1 :]
]
SEQUENCE_SIZES = [(3, 3, 3), (1, 3, 3), (2, 2, 1), (4, 1, 2), (0, 3, 2), 1, 5, 20]


def _rules_id(rules) -> str:
    return "+".join(f"{r.kind}-{r.first.name}-{r.second.name}" for r in rules) or "none"


@pytest.mark.parametrize("rules", RULE_SETS, ids=_rules_id)
def test_build_sequence_matches_one_step_repair_where_it_was_valid(rules):
    for size in SEQUENCE_SIZES:
        if isinstance(size, int):
            spec = SequenceSpec(length=size, constraints=rules)
        else:
            spec = SequenceSpec(counts=dict(zip(sequence.MOVEMENT_TYPES, size)), constraints=rules)
        for seed in range(10):
            got, got_err = sequence_outcome(sequence.build_sequence, spec, seed)
            want, want_err = sequence_outcome(build_sequence_one_step, spec, seed)
            if got_err is None:
                assert sequence.find_violation(got, rules) is None
            if want_err is None and sequence.find_violation(want, rules) is None:
                assert got == want, (size, seed)
            elif len(rules) < 2:
                assert (got, got_err) == (want, want_err), (size, seed)


def _sequence_and_next_draw(build, spec, seed):
    rng = RandomSource(seed)
    try:
        got = build(spec, rng), None, None
    except ConstraintError as e:
        got = None, str(e), e.rule
    return got, rng.uniform()


# No rule, each single rule and every ordered pair of two of them.
ORDERED_RULE_SETS = [[]] + [[r] for r in _SINGLE_RULES] + [
    [a, b] for a in _SINGLE_RULES for b in _SINGLE_RULES if a is not b
]
SEQUENCE_SPECS = [
    {"counts": dict(zip(sequence.MOVEMENT_TYPES, counts))}
    for counts in itertools.product(range(4), repeat=3) if sum(counts)
] + [{"length": n} for n in range(1, 8)]


@pytest.mark.parametrize("seed", range(3))
def test_build_sequence_matches_rule_scans(seed):
    # The same sequence, or the same error message and rule, and the stream
    # left at the same place.
    for rules in ORDERED_RULE_SETS:
        for kw in SEQUENCE_SPECS:
            spec = SequenceSpec(constraints=rules, **kw)
            got = _sequence_and_next_draw(sequence.build_sequence, spec, seed)
            want = _sequence_and_next_draw(build_sequence_loop, spec, seed)
            assert got == want, (_rules_id(rules), kw)
