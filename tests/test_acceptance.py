"""Acceptance gate: one test per release criterion, each printing a verdict.

Run with `pytest -s tests/test_acceptance.py` to see one PASS/FAIL line per
criterion.
"""
from __future__ import annotations

import functools

import numpy as np
import pytest
from scipy import integrate

from gazeforge.cli import main
from gazeforge.core import RandomSource
from gazeforge.evaluation import evaluate_dataset
from gazeforge.fileio import (
    pgm_bytes,
    read_pgm_bytes,
    read_velocity_csv_bytes,
    velocity_csv_bytes,
)
from gazeforge.generators import (
    gamma_profile,
    gen_fixation,
    gen_pursuit,
    gen_saccade,
    skew_to_shape,
)
from gazeforge.mapping import SceneTargets, map_to_gaze
from gazeforge.noise import inject_noise
from gazeforge.resampler import SampledSignal, resample
from gazeforge.saliency import SaliencyMap, TargetSet, local_maxima, spectral_residual
from gazeforge.sequence import build_sequence, find_violation
from gazeforge.errors import ParseError
from gazeforge.params import (
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

from conftest import fixed
from test_evaluation import assert_matches_reference
from test_saliency import brute_force_maxima

U = BoundedDistribution.uniform
F = MovementLabel.FIXATION
S = MovementLabel.SACCADE
SP = MovementLabel.SMOOTH_PURSUIT


def criterion(num, name):
    """Print a PASS/FAIL verdict line for the wrapped acceptance check."""

    def deco(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"criterion {num:2d} ({name}): FAIL")
                raise
            print(f"criterion {num:2d} ({name}): PASS")

        return wrapper

    return deco


@criterion(1, "saccade peak fidelity")
def test_saccade_peak_fidelity():
    p = SaccadeParams(
        duration=U(0.03, 0.08),
        peak_velocity=U(300.0, 500.0),
        skewness=U(0.6, 1.0),
        consistency=fixed(0.0),
    )
    rng = RandomSource(1001)
    for _ in range(1000):
        prof = gen_saccade(p, 1000.0, rng)
        m = prof.velocities.max()
        assert 300.0 <= m <= 500.0
    # jitter-free with degenerate peak bounds: profile max == drawn peak
    p2 = SaccadeParams(
        duration=U(0.05, 0.05),
        peak_velocity=fixed(437.5),
        skewness=fixed(1.0),
        consistency=fixed(0.0),
    )
    prof = gen_saccade(p2, 1000.0, RandomSource(5))
    assert abs(prof.velocities.max() - 437.5) / 437.5 <= 1e-6


@criterion(2, "gamma shape oracle")
def test_gamma_shape_oracle():
    for skew in (0.5, 1.0, 2.0):
        v = gamma_profile(1000, skew_to_shape(skew), 400.0)
        x = np.arange(len(v), dtype=float)
        w = v / integrate.trapezoid(v, x)
        m = integrate.trapezoid(x * w, x)
        var = integrate.trapezoid((x - m) ** 2 * w, x)
        third = integrate.trapezoid((x - m) ** 3 * w, x)
        got = third / var**1.5
        assert abs(got - skew) / skew < 0.02


@criterion(3, "sigmoid pursuit onset")
def test_sigmoid_onset():
    p = PursuitParams(
        duration=fixed(1.0),
        velocity=fixed(20.0),
        onset_duration=fixed(0.2),
        trend=PursuitTrend.CONSTANT,
        trend_end_velocity=fixed(20.0),
        consistency=fixed(0.0),
    )
    prof = gen_pursuit(p, 1000.0, RandomSource(3))
    onset = prof.velocities[:200]
    assert np.all(np.diff(onset) >= 0)
    assert abs(prof.velocities[99] - 10.0) <= 1e-9  # midpoint = plateau/2
    assert onset[-1] >= 0.99 * 20.0 * (1 - 1e-12)


@criterion(4, "resampler rates")
def test_resampler_rates():
    rng = RandomSource(4)
    prof = SampledSignal.at_rate(
        1000.0, np.full(1000, 3.25), np.zeros(1000, dtype=np.uint8)
    )
    out = resample(prof, RateSpec(fixed(60.0)), rng)
    assert len(out) == 60
    assert np.all(out.velocities == 3.25)  # constant preserved exactly
    long = SampledSignal.at_rate(
        1000.0, np.zeros(100_000), np.zeros(100_000, dtype=np.uint8)
    )
    dyn = resample(long, RateSpec(U(50.0, 70.0)), RandomSource(44))
    gaps = np.diff(np.concatenate(([0.0], dyn.timestamps)))
    assert gaps.min() >= 1.0 / 70.0 - 1e-12
    assert gaps.max() <= 1.0 / 50.0 + 1e-12
    mean_rate = len(dyn) / dyn.timestamps[-1]
    assert abs(mean_rate - 60.0) / 60.0 < 0.02


@criterion(5, "noise sample count")
def test_noise_count():
    sig = SampledSignal(
        np.arange(1, 601) / 1000.0,
        np.linspace(0, 5, 600),
        np.zeros(600, dtype=np.uint8),
    )
    spec = NoiseSpec(0.10, DistKind.UNIFORM, U(100.0, 300.0))
    out = inject_noise(sig, spec, RandomSource(55))
    assert int(np.count_nonzero(out.labels == MovementLabel.NOISE)) == 60
    passthrough = inject_noise(
        sig, NoiseSpec(0.0, DistKind.UNIFORM, U(100.0, 300.0)), RandomSource(55)
    )
    assert np.array_equal(passthrough.velocities, sig.velocities)
    assert np.array_equal(passthrough.labels, sig.labels)
    assert np.array_equal(passthrough.timestamps, sig.timestamps)


@criterion(6, "sequence weighting and rules")
def test_sequence_rules():
    # Weighted first draw: remaining {F:1, S:3} -> P(S first) = 0.75.
    spec = SequenceSpec(counts={F: 1, S: 3})
    rng = RandomSource(66)
    n = 100_000
    hits = sum(build_sequence(spec, rng)[0] == S for _ in range(n))
    p = hits / n
    sigma = np.sqrt(0.75 * 0.25 / n)
    assert abs(p - 0.75) <= 3 * sigma
    # 10^4 random constrained specs all satisfy their rules.
    types = [F, S, SP]
    meta = np.random.default_rng(660)
    rng2 = RandomSource(661)
    for _ in range(10_000):
        counts = {t: int(meta.integers(1, 5)) for t in types}
        a, b = meta.choice(3, size=2, replace=False)
        kind = OrderingRule.AFTER_EACH if meta.random() < 0.5 else OrderingRule.BEFORE
        rule = OrderingRule(kind, types[a], types[b])
        if kind == OrderingRule.AFTER_EACH and counts[types[b]] < counts[types[a]]:
            counts[types[b]] = counts[types[a]]
        if kind == OrderingRule.BEFORE and counts[types[a]] < counts[types[b]]:
            counts[types[a]] = counts[types[b]]
        sp = SequenceSpec(counts=counts, constraints=[rule])
        seq = build_sequence(sp, rng2)
        assert find_violation(seq, [rule]) is None


@criterion(7, "mapping exactness")
def test_mapping_exactness():
    meta = np.random.default_rng(77)
    pts = [(20.0, 30.0, 1.0), (160.0, 40.0, 1.0), (90.0, 150.0, 1.0)]
    scene = SceneTargets.from_static(TargetSet(pts, width=200, height=200))
    targets = {(x, y) for x, y, _ in pts}
    for i in range(10_000):
        n_fix = int(meta.integers(3, 8))
        n_move = int(meta.integers(4, 12))
        move = S if meta.random() < 0.5 else SP
        labels = np.concatenate(
            [np.full(n_fix, F), np.full(n_move, move), np.full(n_fix, F)]
        ).astype(np.uint8)
        v = np.where(labels == F, 1.0, 250.0)
        sig = SampledSignal(np.arange(1, len(v) + 1) / 250.0, v, labels)
        dev = float(meta.random() * 10.0)
        disp = float(meta.random() * 8.0)
        params = MappingParams(
            pixels_per_degree=25.0,
            max_path_deviation=dev,
            fixation_dispersion=disp,
        )
        tr = map_to_gaze(sig, scene, params, RandomSource(7000 + i))
        end = n_fix + n_move - 1
        assert min(
            np.hypot(tr.x[end] - tx, tr.y[end] - ty) for tx, ty in targets
        ) <= 1e-6
        # fixation samples within dispersion of their run's target
        for sl in (slice(0, n_fix), slice(n_fix + n_move, None)):
            xs, ys = tr.x[sl], tr.y[sl]
            assert min(
                np.max(np.hypot(xs - tx, ys - ty)) for tx, ty in targets
            ) <= disp + 1e-9
        # perpendicular deviation along the movement run
        ox, oy = tr.x[n_fix - 1], tr.y[n_fix - 1]
        dx, dy = tr.x[end] - ox, tr.y[end] - oy
        norm = np.hypot(dx, dy)
        if norm > 0:
            ux, uy = dx / norm, dy / norm
            px = tr.x[n_fix : end + 1] - ox
            py = tr.y[n_fix : end + 1] - oy
            perp = np.abs(-uy * px + ux * py)
            assert perp.max() <= dev + 1e-9


@criterion(8, "saliency local-maxima oracle")
def test_saliency_oracle():
    for seed in range(100):
        values = np.random.default_rng(seed).random((32, 32))
        got = {(x, y) for x, y, _ in local_maxima(SaliencyMap(values)).points}
        assert got == brute_force_maxima(values)
    img = np.zeros((64, 64))
    img[20, 40] = 1.0
    m = spectral_residual(img)
    iy, ix = np.unravel_index(np.argmax(m.values), m.values.shape)
    assert np.hypot(ix - 40, iy - 20) <= 3.0


@criterion(9, "evaluation round-trip")
def test_evaluation_round_trip():
    # evaluate re-simulates a generated fixation from its own mean and std,
    # and a generated saccade from its own peak and peak index.
    fix = gen_fixation(
        FixationParams(
            duration=fixed(5.0), base_velocity=2.0,
            consistency=BoundedDistribution.normal(0.0, 1.0, 0.3),
        ),
        1000.0,
        RandomSource(91),
    )
    assert abs(fix.velocities.mean() - 2.0) / 2.0 <= 0.05
    assert_matches_reference(fix.velocities, fix.labels, 91, 3)
    sac = gen_saccade(
        SaccadeParams(
            duration=fixed(0.06), peak_velocity=fixed(420.0),
            skewness=fixed(1.0), consistency=fixed(0.0),
        ),
        1000.0,
        RandomSource(92),
    )
    errors = assert_matches_reference(sac.velocities, sac.labels, 92, 1)[S]
    assert errors[int(np.argmax(sac.velocities))] == 0.0  # the peak, in place
    # A self-evaluation scores below a shuffled control.
    rng = np.random.default_rng(93)
    v = np.concatenate([
        np.abs(rng.normal(2.0, 0.5, 300)),
        gamma_profile(60, 4.0, 420.0),
        np.abs(rng.normal(15.0, 1.5, 400)),
        gamma_profile(45, 6.0, 360.0),
        np.abs(rng.normal(1.8, 0.4, 250)),
    ])
    labels = np.concatenate([
        np.full(300, F), np.full(60, S), np.full(400, SP),
        np.full(45, S), np.full(250, F),
    ]).astype(np.uint8)
    own = evaluate_dataset(v, labels, RandomSource(94), repeats=10)
    shuffled = v.copy()
    np.random.default_rng(95).shuffle(shuffled)
    ctrl = evaluate_dataset(shuffled, labels, RandomSource(94), repeats=10)
    for lab in (F, S, SP):
        assert own.per_type[lab].median < ctrl.per_type[lab].median


@criterion(10, "pipeline determinism")
def test_pipeline_determinism(tmp_path):
    import json

    stim = tmp_path / "stim.pgm"
    img = np.random.default_rng(100).random((48, 64)) * 0.2
    img[10:16, 12:18] = 1.0
    img[30:36, 40:46] = 0.9
    stim.write_bytes(pgm_bytes(img))

    def pipeline(tag, seed):
        vel = str(tmp_path / f"v{tag}.csv")
        gaze = str(tmp_path / f"g{tag}.csv")
        summ = str(tmp_path / f"s{tag}.csv")
        gen = tmp_path / f"gen{tag}.json"
        gen.write_text(json.dumps({"mode": "velocity", "seed": seed}))
        assert main(["generate", "--config", str(gen), "--output", vel]) == 0
        mp = tmp_path / f"map{tag}.json"
        mp.write_text(json.dumps({
            "mode": "map_static", "seed": seed,
            "paths": {"stimulus": str(stim), "velocity_input": vel},
        }))
        assert main(["map", "--config", str(mp), "--output", gaze]) == 0
        ev = tmp_path / f"ev{tag}.json"
        ev.write_text(json.dumps({
            "mode": "evaluate", "seed": seed, "paths": {"real_data": vel},
        }))
        assert main(["evaluate", "--config", str(ev), "--output", summ]) == 0
        return tuple(open(p, "rb").read() for p in (vel, gaze, summ))

    assert pipeline("a", 123) == pipeline("b", 123)
    assert pipeline("c", 124) != pipeline("a", 123)


@criterion(11, "serialization round-trips")
def test_io_round_trips():
    sig = SampledSignal(
        np.arange(1, 31) / 60.0,
        np.linspace(0.0, 450.0, 30),
        np.array([F] * 10 + [S] * 10 + [SP] * 10, dtype=np.uint8),
    )
    back = read_velocity_csv_bytes(velocity_csv_bytes(sig))
    assert np.allclose(back.timestamps, sig.timestamps, atol=1e-6)
    assert np.allclose(back.velocities, sig.velocities, rtol=1e-5)
    assert np.array_equal(back.labels, sig.labels)
    grid = np.random.default_rng(110).random((19, 27))
    dec = read_pgm_bytes(pgm_bytes(grid))
    assert np.all(np.abs(dec - grid) <= 0.5 / 255 + 1e-12)
    # malformed corpus: every case rejected with a positioned error
    from test_fileio import BAD_GAZE, BAD_PGM, BAD_VELOCITY
    from gazeforge.fileio import read_gaze_csv_bytes

    cases = (
        [(read_velocity_csv_bytes, t.encode("utf-8", "surrogatepass")) for t, _ in BAD_VELOCITY]
        + [(read_gaze_csv_bytes, t.encode("utf-8", "surrogatepass")) for t, _ in BAD_GAZE]
        + [(read_pgm_bytes, d) for d, _ in BAD_PGM]
    )
    assert len(cases) >= 20
    for reader, payload in cases:
        with pytest.raises(ParseError) as e:
            reader(payload)
        assert "(at " in str(e.value)
