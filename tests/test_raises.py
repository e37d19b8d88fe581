"""Every ``raise`` of the signal generators and of evaluate, one table row each.

Each row calls a public function with an input that reaches one raise and
asserts the class and the full message. An AST scan of ``generators.py``
and ``evaluation.py`` fails on a raise whose message template has no row,
and on a row whose template no longer appears in the source, so a new raise
comes with its test and an unreachable one leaves the table with its code.
"""
from __future__ import annotations

import ast
import math
import re
from pathlib import Path

import numpy as np
import pytest

from gazeforge import evaluation, generators
from gazeforge.core import RandomSource
from gazeforge.errors import ParameterError
from gazeforge.evaluation import evaluate_dataset, fit_shape_for_peak_index
from gazeforge.generators import (
    assemble,
    gamma_profile,
    gen_fixation,
    gen_pursuit,
    gen_saccade,
    skew_to_shape,
)
from gazeforge.params import MIN_SKEWNESS, MovementLabel

from conftest import fixed
from test_generators import default_fix, default_sac, default_sp

F = MovementLabel.FIXATION
S = MovementLabel.SACCADE
SP = MovementLabel.SMOOTH_PURSUIT


def _assemble(seq, fix=None, sac=None, sp=None, base_rate=1000.0):
    return assemble(seq, fix or default_fix(), sac or default_sac(), sp or default_sp(),
                    base_rate, RandomSource(0))


# (message template as written in the source, with each {field} as {},
#  call, message). Every row raises ParameterError.
RAISES = [
    ("{}: duration {} s at {} Hz yields zero samples",
     lambda: gen_fixation(default_fix(duration=fixed(1e-4)), 1000.0, RandomSource(0)),
     "fixation: duration 0.0001 s at 1000 Hz yields zero samples"),
    ("{}: duration {} s at {} Hz gives no finite sample count",
     lambda: gen_pursuit(default_sp(), math.nan, RandomSource(0)),
     "smooth pursuit: duration 1 s at nan Hz gives no finite sample count"),
    ("gamma shape {} outside [1, {}]",
     lambda: gamma_profile(10, 1e9, 1.0),
     "gamma shape 1e+09 outside [1, 1e+08]"),
    ("saccade needs at least 2 samples",
     lambda: gamma_profile(1, 2.0, 1.0),
     "saccade needs at least 2 samples"),
    ("skewness {} outside [{}, 2] (Gamma shape in [1, {}])",
     lambda: skew_to_shape(1e-200),
     "skewness 1e-200 outside [0.0002, 2] (Gamma shape in [1, 1e+08])"),
    ("saccade duration too short for two samples",
     lambda: gen_saccade(default_sac(duration=fixed(0.001)), 1000.0, RandomSource(0)),
     "saccade duration too short for two samples"),
    ("pursuit onset duration could not be drawn below the total duration in {} attempts",
     lambda: gen_pursuit(default_sp(duration=fixed(0.1), onset_duration=fixed(0.2)),
                         1000.0, RandomSource(0)),
     "pursuit onset duration could not be drawn below the total duration in 100 attempts"),
    ("sequence must be non-empty",
     lambda: _assemble([]),
     "sequence must be non-empty"),
    ("base_rate must be finite and > 0, got {}",
     lambda: _assemble([F], base_rate=0.0),
     "base_rate must be finite and > 0, got 0.0"),
    ("cannot generate segment of type {}",
     lambda: _assemble([MovementLabel.NOISE]),
     "segment 0 (NOISE): cannot generate segment of type NOISE"),
    ("segment {} ({}): {}",
     lambda: _assemble([F, S], sac=default_sac(duration=fixed(0.001))),
     "segment 1 (SACCADE): saccade duration too short for two samples"),
    ("saccade run must have at least 2 samples",
     lambda: fit_shape_for_peak_index(1, 0),
     "saccade run must have at least 2 samples"),
    ("repeats must be >= 1",
     lambda: evaluate_dataset(np.zeros(3), np.zeros(3, dtype=np.uint8), RandomSource(0), 0),
     "repeats must be >= 1"),
    ("velocities and labels must have equal length",
     lambda: evaluate_dataset(np.zeros(3), np.zeros(4, dtype=np.uint8), RandomSource(0)),
     "velocities and labels must have equal length"),
]


def _template(node: ast.Raise) -> str:
    arg = node.exc.args[0]
    if isinstance(arg, ast.Constant):
        return arg.value
    return "".join(v.value if isinstance(v, ast.Constant) else "{}" for v in arg.values)


def _source_templates() -> list[str]:
    out = []
    for module in (generators, evaluation):
        tree = ast.parse(Path(module.__file__).read_text(encoding="utf-8"))
        out += [_template(n) for n in ast.walk(tree) if isinstance(n, ast.Raise)]
    return out


def test_every_raise_has_a_row():
    assert sorted(_source_templates()) == sorted(t for t, _, _ in RAISES)


@pytest.mark.parametrize("template, call, message", RAISES, ids=[t for t, _, _ in RAISES])
def test_raise(template, call, message):
    with pytest.raises(ParameterError) as e:
        call()
    assert type(e.value) is ParameterError
    assert str(e.value) == message
    pattern = ".+".join(re.escape(part) for part in template.split("{}"))
    assert re.search(pattern, message)


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
