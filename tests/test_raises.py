"""Every ``raise`` of the package's stage modules and file readers, one
table row each.

Each row calls a public function with an input that reaches one raise and
asserts the class and the full message, with its position for a file's
error; a raise that no public input reaches names, in its row, the check
that makes it unreachable, and its call gets round that check. An AST scan
of each module fails on a raise whose class and message template has no
row, and on a row whose template no longer appears in the source, so a new
raise comes with its test and an unreachable one leaves the table with its
code. A re-raise and a bare ``raise ValueError`` that its own function
catches make no error of their own and have no row.
"""
from __future__ import annotations

import ast
import math
import re
from pathlib import Path

import numpy as np
import pytest

from gazeforge import core, evaluation, fileio, generators, mapping, resampler, saliency, sequence
from gazeforge.core import (
    GazeTrace,
    RandomSource,
    SampledSignal,
    TargetSet,
    effective_labels,
)
from gazeforge.errors import ConstraintError, MappingError, ParameterError, ParseError
from gazeforge.evaluation import evaluate_dataset, fit_shape_for_peak_index
from gazeforge.fileio import (
    GAZE_HEADER,
    VELOCITY_HEADER,
    pgm_bytes,
    read_gaze_csv_bytes,
    read_pgm_bytes,
    read_velocity_csv_bytes,
)
from gazeforge.generators import (
    assemble,
    gamma_profile,
    gen_fixation,
    gen_pursuit,
    gen_saccade,
    skew_to_shape,
)
from gazeforge.mapping import (
    SceneTargets,
    extract_velocities,
    fixation_walk,
    map_to_gaze,
    remap_real,
)
from gazeforge.params import (
    MIN_SKEWNESS,
    BoundedDistribution,
    MappingParams,
    MovementLabel,
    OrderingRule,
    RateSpec,
    SequenceSpec,
)
from gazeforge.resampler import resample
from gazeforge.saliency import SaliencyMap, jitter_targets, local_maxima, spectral_residual
from gazeforge.sequence import build_sequence

from conftest import fixed
from test_generators import default_fix, default_sac, default_sp

F = MovementLabel.FIXATION
S = MovementLabel.SACCADE
SP = MovementLabel.SMOOTH_PURSUIT
AFTER, BEFORE = OrderingRule.AFTER_EACH, OrderingRule.BEFORE


def _assemble(seq, fix=None, sac=None, sp=None, base_rate=1000.0):
    return assemble(seq, fix or default_fix(), sac or default_sac(), sp or default_sp(),
                    base_rate, RandomSource(0))


def _signal(n: int, base_rate: float = 64.0) -> SampledSignal:
    return SampledSignal.at_rate(base_rate, np.ones(n), np.zeros(n, dtype=np.uint8))


def _resample_without_slack():
    # No public input reaches the empty window: resample rejects a rate
    # above the base rate, and the _INDEX_EPS slack keeps every window at
    # such a rate non-empty. A negative slack opens the branch.
    original = resampler._INDEX_EPS
    resampler._INDEX_EPS = -1e-6
    try:
        resample(_signal(50), RateSpec(BoundedDistribution.normal(32.0, 64.0, 64.0)),
                 RandomSource(1))
    finally:
        resampler._INDEX_EPS = original


def _velocity(text: str):
    return read_velocity_csv_bytes(f"{VELOCITY_HEADER}\n{text}".encode())


def _gaze(text: str):
    return read_gaze_csv_bytes(f"{GAZE_HEADER}\n{text}".encode())


ONE_TARGET = TargetSet([(4.0, 4.0, 1.0)], 8, 8)


def _labeled(ts, labels) -> SampledSignal:
    return SampledSignal(ts, np.ones(len(labels)), labels)


def _trace(ts, labels) -> GazeTrace:
    n = len(labels)
    return GazeTrace(ts, np.arange(n, dtype=float), np.zeros(n), labels, 8, 8, 30.0)


def _map(signal, frames):
    return map_to_gaze(signal, SceneTargets(frames), MappingParams(), RandomSource(0))


def _remap(trace, mode="same_stimulus"):
    return remap_real(trace, mode, MappingParams(), RandomSource(0))


def _sequence(rules, counts=None, **spec):
    rules = [OrderingRule(kind, first, second) for kind, first, second in rules]
    spec = SequenceSpec(counts=counts and dict(zip((F, S, SP), counts)), constraints=rules, **spec)
    return build_sequence(spec, RandomSource(0))


def _sequence_without_feasibility():
    # No public input reaches a forced follower that has run out: _feasible
    # places each candidate's chain of forced followers before it is drawn,
    # and a chain that loops is never feasible (56,322 specs of 1-3 rules
    # with counts 0-3, seeds 0-2, never raised it). A _feasible that takes
    # every type opens the branch; seed 0 draws the SACCADE before the
    # FIXATION, with the SMOOTH_PURSUIT left.
    original = sequence._feasible
    sequence._feasible = lambda *args: True
    try:
        _sequence([(AFTER, F, S)], (1, 1, 1))
    finally:
        sequence._feasible = original


# (message template as written in the source, with each {field} as {},
#  class, call, message) by module.
RAISES = {
    generators: [
        ("{}: duration {} s at {} Hz yields zero samples", ParameterError,
         lambda: gen_fixation(default_fix(duration=fixed(1e-4)), 1000.0, RandomSource(0)),
         "fixation: duration 0.0001 s at 1000 Hz yields zero samples"),
        ("{}: duration {} s at {} Hz gives no finite sample count", ParameterError,
         lambda: gen_pursuit(default_sp(), math.nan, RandomSource(0)),
         "smooth pursuit: duration 1 s at nan Hz gives no finite sample count"),
        ("gamma shape {} outside [1, {}]", ParameterError,
         lambda: gamma_profile(10, 1e9, 1.0),
         "gamma shape 1e+09 outside [1, 1e+08]"),
        ("saccade needs at least 2 samples", ParameterError,
         lambda: gamma_profile(1, 2.0, 1.0),
         "saccade needs at least 2 samples"),
        ("skewness {} outside [{}, 2] (Gamma shape in [1, {}])", ParameterError,
         lambda: skew_to_shape(1e-200),
         "skewness 1e-200 outside [0.0002, 2] (Gamma shape in [1, 1e+08])"),
        ("saccade duration too short for two samples", ParameterError,
         lambda: gen_saccade(default_sac(duration=fixed(0.001)), 1000.0, RandomSource(0)),
         "saccade duration too short for two samples"),
        ("pursuit onset duration could not be drawn below the total duration in {} attempts",
         ParameterError,
         lambda: gen_pursuit(default_sp(duration=fixed(0.1), onset_duration=fixed(0.2)),
                             1000.0, RandomSource(0)),
         "pursuit onset duration could not be drawn below the total duration in 100 attempts"),
        ("sequence must be non-empty", ParameterError,
         lambda: _assemble([]),
         "sequence must be non-empty"),
        ("base_rate must be finite and > 0, got {}", ParameterError,
         lambda: _assemble([F], base_rate=0.0),
         "base_rate must be finite and > 0, got 0.0"),
        ("cannot generate segment of type {}", ParameterError,
         lambda: _assemble([MovementLabel.NOISE]),
         "segment 0 (NOISE): cannot generate segment of type NOISE"),
        ("segment {} ({}): {}", ParameterError,
         lambda: _assemble([F, S], sac=default_sac(duration=fixed(0.001))),
         "segment 1 (SACCADE): saccade duration too short for two samples"),
    ],
    evaluation: [
        ("saccade run must have at least 2 samples", ParameterError,
         lambda: fit_shape_for_peak_index(1, 0),
         "saccade run must have at least 2 samples"),
        ("repeats must be >= 1", ParameterError,
         lambda: evaluate_dataset(np.zeros(3), np.zeros(3, dtype=np.uint8), RandomSource(0), 0),
         "repeats must be >= 1"),
        ("velocities and labels must have equal length", ParameterError,
         lambda: evaluate_dataset(np.zeros(3), np.zeros(4, dtype=np.uint8), RandomSource(0)),
         "velocities and labels must have equal length"),
    ],
    fileio: [
        ("unknown label {}", ParseError,
         lambda: _velocity("1,2,FIXATION\n"),
         "unknown label 'FIXATION' (at row 2)"),
        ("empty file", ParseError,
         lambda: read_velocity_csv_bytes(b""),
         "empty file (at row 1)"),
        ("bad header: expected {}, got {}", ParseError,
         lambda: read_velocity_csv_bytes(b"t,v,label\n1,2,FIX\n"),
         "bad header: expected 't_ms,velocity_deg_s,label', got 't,v,label' (at row 1)"),
        ("expected {} comma-separated fields, got {}", ParseError,
         lambda: _gaze("1,2,3,FIX\n2,3,FIX\n"),
         "expected 4 comma-separated fields, got 3 (at row 3)"),
        ("invalid {} {}", ParseError,
         lambda: _velocity("1,1_0,FIX\n"),
         "invalid velocity '1_0' (at row 2)"),
        ("invalid {} {}", ParseError,
         lambda: _gaze("1,2,x,FIX\n"),
         "invalid y coordinate 'x' (at row 2)"),
        ("non-finite {} {}", ParseError,
         lambda: _velocity("1,2,FIX\n2,nan,FIX\n"),
         "non-finite velocity 'nan' (at row 3)"),
        ("no data rows", ParseError,
         lambda: _velocity("\n"),
         "no data rows (at row 2)"),
        ("timestamps not strictly increasing", ParseError,
         lambda: _velocity("2,1,FIX\n\n1,1,FIX\n"),
         "timestamps not strictly increasing (at row 4)"),
        ("missing {}", ParseError,
         lambda: read_pgm_bytes(b"P5 4 "),
         "missing height (at byte 5)"),
        ("invalid {} {}", ParseError,
         lambda: read_pgm_bytes(b"P5 x 1 255\n\0"),
         "invalid width b'x' (at byte 3)"),
        ("{} {} out of range [{}, {}]", ParseError,
         lambda: read_pgm_bytes(b"P5 1 1 0\n\0"),
         "maxval 0 out of range [1, 65535] (at byte 7)"),
        ("bad magic {} (expected P2 or P5)", ParseError,
         lambda: read_pgm_bytes(b"P6 1 1 255\n\0"),
         "bad magic b'P6' (expected P2 or P5) (at byte 0)"),
        ("trailing data after pixels", ParseError,
         lambda: read_pgm_bytes(b"P2 1 1 255\n7 8\n"),
         "trailing data after pixels (at byte 13)"),
        ("missing separator before binary payload", ParseError,
         lambda: read_pgm_bytes(b"P5 1 1 255"),
         "missing separator before binary payload (at byte 10)"),
        ("truncated payload: need {} bytes, have {}", ParseError,
         lambda: read_pgm_bytes(b"P5 2 1 255\n\0"),
         "truncated payload: need 2 bytes, have 1 (at byte 12)"),
        ("trailing data after payload", ParseError,
         lambda: read_pgm_bytes(b"P5 1 1 255\n\0\0"),
         "trailing data after payload (at byte 12)"),
        ("pixel value {} exceeds maxval {}", ParseError,
         lambda: read_pgm_bytes(b"P5 2 1 100\n\0\xff"),
         "pixel value 255 exceeds maxval 100 (at byte 12)"),
        ("grid must be 2D, got shape {}", ParameterError,
         lambda: pgm_bytes(np.zeros(3)),
         "grid must be 2D, got shape (3,)"),
    ],
    saliency: [
        ("saliency map must be a 2D grid", ParameterError,
         lambda: SaliencyMap(np.zeros(3)),
         "saliency map must be a 2D grid"),
        ("image must be a non-empty 2D grayscale grid", ParameterError,
         lambda: spectral_residual(np.zeros((0, 9))),
         "image must be a non-empty 2D grayscale grid"),
        ("image must be at least 8x8 px, got {}x{}", ParameterError,
         lambda: spectral_residual(np.zeros((7, 9))),
         "image must be at least 8x8 px, got 9x7"),
        ("min_distance must be >= 0", ParameterError,
         lambda: local_maxima(SaliencyMap(np.zeros((3, 3))), -1.0),
         "min_distance must be >= 0"),
        ("jitter radius must be >= 0", ParameterError,
         lambda: jitter_targets(TargetSet(), -1.0, RandomSource(0)),
         "jitter radius must be >= 0"),
    ],
    core: [
        ("signal contains only noise samples", MappingError,
         lambda: effective_labels(np.full(3, int(MovementLabel.NOISE))),
         "signal contains only noise samples"),
        ("signal arrays must have equal length", ParameterError,
         lambda: SampledSignal([0.1], [1.0, 2.0], [0, 0]),
         "signal arrays must have equal length"),
        ("base_rate must be > 0, got {}", ParameterError,
         lambda: SampledSignal.at_rate(0.0, [1.0], [0]),
         "base_rate must be > 0, got 0.0"),
        ("cannot concatenate zero signals", ParameterError,
         lambda: SampledSignal.concat([]),
         "cannot concatenate zero signals"),
        ("signals have differing or no base rates", ParameterError,
         lambda: SampledSignal.concat([_signal(2), _signal(2, 100.0)]),
         "signals have differing or no base rates"),
        ("gaze trace arrays must have equal length", ParameterError,
         lambda: GazeTrace([0.1], [1.0], [1.0, 2.0], [0], 8, 8, 30.0),
         "gaze trace arrays must have equal length"),
    ],
    resampler: [
        ("empty resampling window at t={} s: the clock's rounding left no base "
         "sample in it at {} Hz",
         ParameterError, _resample_without_slack,
         "empty resampling window at t=0.015625 s: the clock's rounding left no base sample "
         "in it at 64 Hz"),
        ("can only resample a signal at a base rate", ParameterError,
         lambda: resample(SampledSignal([0.1], [1.0], [0]),
                          RateSpec(BoundedDistribution.fixed(10.0)), RandomSource(0)),
         "can only resample a signal at a base rate"),
        ("cannot resample an empty profile", ParameterError,
         lambda: resample(_signal(0), RateSpec(BoundedDistribution.fixed(10.0)), RandomSource(0)),
         "cannot resample an empty profile"),
        ("target rate max {} Hz exceeds base rate {} Hz", ParameterError,
         lambda: resample(_signal(5), RateSpec(BoundedDistribution.fixed(100.0)), RandomSource(0)),
         "target rate max 100 Hz exceeds base rate 64 Hz"),
    ],
    mapping: [
        ("a scene needs at least one frame", ParameterError,
         lambda: SceneTargets([]),
         "a scene needs at least one frame"),
        ("frame times must be strictly increasing", ParameterError,
         lambda: SceneTargets([(0.0, ONE_TARGET), (0.0, ONE_TARGET)]),
         "frame times must be strictly increasing"),
        ("fixation walk needs n >= 1", ParameterError,
         lambda: fixation_walk((0.0, 0.0), 0, 1.0, RandomSource(0)),
         "fixation walk needs n >= 1"),
        ("dispersion must be >= 0", ParameterError,
         lambda: fixation_walk((0.0, 0.0), 1, -1.0, RandomSource(0)),
         "dispersion must be >= 0"),
        # A first run that is no fixation also takes a target at its start,
        # from the frame in effect then.
        ("empty target set", MappingError,
         lambda: _map(_labeled([0.0, 0.5, 1.0], [S, S, F]),
                      [(0.0, TargetSet([], 8, 8)), (0.5, ONE_TARGET)]),
         "empty target set"),
        ("cannot map an empty signal", MappingError,
         lambda: _map(_labeled([], []), [(0.0, ONE_TARGET)]),
         "cannot map an empty signal"),
        ("no fixation targets available at t={} s", MappingError,
         lambda: _map(_labeled([0.5, 1.0], [F, F]), [(0.0, TargetSet([], 8, 8))]),
         "no fixation targets available at t=1 s"),
        ("need at least 2 samples to compute velocities", ParameterError,
         lambda: extract_velocities(_trace([0.0], [F])),
         "need at least 2 samples to compute velocities"),
        ("non-increasing timestamps at sample {}", ParameterError,
         lambda: extract_velocities(_trace([0.0, 0.1, 0.1, 0.1], [F] * 4)),
         "non-increasing timestamps at sample 2"),
        ("unknown remap mode {}", ParameterError,
         lambda: _remap(_trace([0.0, 0.1], [F, F]), "other"),
         "unknown remap mode 'other'"),
        ("real trace too short to remap", ParameterError,
         lambda: _remap(_trace([0.0], [F])),
         "real trace too short to remap"),
        ("same-stimulus remap requires at least one fixation", MappingError,
         lambda: _remap(_trace([0.0, 0.1], [S, S])),
         "same-stimulus remap requires at least one fixation"),
        ("new-stimulus remap requires a target set", ParameterError,
         lambda: _remap(_trace([0.0, 0.1], [F, F]), "new_stimulus"),
         "new-stimulus remap requires a target set"),
        # NaN timestamps pass extract_velocities' check; the CSV readers
        # reject them.
        ("real trace has no positive inter-sample intervals", ParameterError,
         lambda: _remap(_trace([math.nan, math.nan], [F, F])),
         "real trace has no positive inter-sample intervals"),
    ],
    sequence: [
        ("rule '{}' unsatisfiable: not enough {} for {}", ConstraintError,
         lambda: _sequence([(AFTER, F, S)], (2, 1, 0)),
         "rule 'after each FIXATION a SACCADE' unsatisfiable: not enough SACCADE for FIXATION"),
        ("rule '{}' unsatisfiable: not enough {} for {}", ConstraintError,
         lambda: _sequence([(BEFORE, F, S)], (1, 2, 0)),
         "rule 'before each SACCADE a FIXATION' unsatisfiable: not enough FIXATION for SACCADE"),
        ("explicit sequence violates rule '{}'", ConstraintError,
         lambda: _sequence([(AFTER, F, S)], explicit=[F, F]),
         "explicit sequence violates rule 'after each FIXATION a SACCADE'"),
        ("no movement type can be placed without violating a rule", ConstraintError,
         lambda: _sequence([(AFTER, F, S), (AFTER, S, F)], (1, 1, 0)),
         "no movement type can be placed without violating a rule"),
        ("rule requires a {} after {} but none remain", ConstraintError,
         _sequence_without_feasibility,
         "rule requires a SACCADE after FIXATION but none remain"),
        # Rules that contradict each other for one type; seed 0 draws it.
        ("generated sequence violates '{}'", ConstraintError,
         lambda: _sequence([(AFTER, S, F), (AFTER, S, SP)], length=1),
         "generated sequence violates 'after each SACCADE a SMOOTH_PURSUIT'"),
    ],
}
ROWS = [row for rows in RAISES.values() for row in rows]


def _template(node: ast.Raise) -> str:
    arg = node.exc.args[0]
    if isinstance(arg, ast.Constant):
        return arg.value
    return "".join(v.value if isinstance(v, ast.Constant) else "{}" for v in arg.values)


def _source_raises(module) -> list[tuple[str, str]]:
    """(class name, message template) of each raise that makes an error."""
    tree = ast.parse(Path(module.__file__).read_text(encoding="utf-8"))
    return [(n.exc.func.id, _template(n)) for n in ast.walk(tree)
            if isinstance(n, ast.Raise) and isinstance(n.exc, ast.Call)]


@pytest.mark.parametrize("module", RAISES, ids=lambda m: m.__name__)
def test_every_raise_has_a_row(module):
    rows = [(cls.__name__, t) for t, cls, _, _ in RAISES[module]]
    assert sorted(_source_raises(module)) == sorted(rows)


def _assert_raises(template, cls, call, message) -> None:
    with pytest.raises(cls) as e:
        call()
    assert type(e.value) is cls
    assert str(e.value) == message
    pattern = ".+".join(re.escape(part) for part in template.split("{}"))
    assert re.search(pattern, message)


@pytest.mark.parametrize("template, cls, call, message", ROWS, ids=[t for t, _, _, _ in ROWS])
def test_raise(template, cls, call, message):
    _assert_raises(template, cls, call, message)


@pytest.mark.parametrize("base_rate", [math.nan, math.inf])
@pytest.mark.parametrize("generate", [
    lambda r: gen_fixation(default_fix(), r, RandomSource(0)),
    lambda r: gen_saccade(default_sac(), r, RandomSource(0)),
    lambda r: gen_pursuit(default_sp(), r, RandomSource(0)),
    lambda r: _assemble([F, S, SP], base_rate=r),
], ids=["fixation", "saccade", "pursuit", "assemble"])
def test_non_finite_base_rate_is_a_parameter_error(generate, base_rate):
    with pytest.raises(ParameterError, match="finite"):
        generate(base_rate)


@pytest.mark.parametrize("skew", [1e-300, 1e-200, 1e-5, 0.0, -1.0, 2.5, math.inf, math.nan])
def test_skewness_outside_the_shape_range_is_named(skew):
    with pytest.raises(ParameterError, match=re.escape(f"skewness {skew:.6g} outside")):
        skew_to_shape(skew)


@pytest.mark.parametrize("skew", [1e-300, 1e-200, 1e-5, 2.5])
def test_saccade_skewness_draw_outside_the_shape_range_is_named(skew):
    # A library-built SaccadeParams takes any positive skewness; the config
    # check rejects these at load.
    with pytest.raises(ParameterError, match=re.escape(f"skewness {skew:.6g} outside")):
        gen_saccade(default_sac(skewness=fixed(skew)), 1000.0, RandomSource(0))


def test_skewness_range_ends_map_to_the_shape_range_ends():
    assert skew_to_shape(MIN_SKEWNESS) == 1e8
    assert skew_to_shape(2.0) == 1.0
    for skew in (MIN_SKEWNESS, 0.1, 0.6, 1.0, 1.5, 2.0):
        assert skew_to_shape(skew) == (2.0 / skew) ** 2
