"""Run configuration: JSON schema, strict validation, defaults.

Unknown keys are hard errors (with a nearest-key suggestion) so parameter
typos never silently fall back to defaults.
"""
from __future__ import annotations

import difflib
import json
import math
import os
from dataclasses import dataclass

from .core import BoundedDistribution, DistKind, MovementLabel
from .errors import ParseError, ValidationError
from .generators import (
    MAX_GAMMA_SHAPE,
    MIN_SKEWNESS,
    FixationParams,
    PursuitParams,
    PursuitTrend,
    SaccadeParams,
)
from .mapping import MappingParams, REMAP_NEW_STIMULUS, REMAP_SAME_STIMULUS
from .noise import MODE_ADD, MODE_REPLACE, NoiseSpec
from .resampler import RateSpec
from .sequence import OrderingRule, SequenceSpec

MODES = ("velocity", "map_static", "map_dynamic", "remap", "evaluate", "saliency")

_LABEL_KEYS = {
    "fixation": MovementLabel.FIXATION,
    "saccade": MovementLabel.SACCADE,
    "smooth_pursuit": MovementLabel.SMOOTH_PURSUIT,
}
_DIST_KINDS = {"uniform": DistKind.UNIFORM, "normal": DistKind.NORMAL}
_TRENDS = {t.value: t for t in PursuitTrend}


def _check_keys(obj: dict, allowed: set[str], path: str) -> None:
    for key in obj:
        if key not in allowed:
            hint = difflib.get_close_matches(key, allowed, n=1)
            msg = f"unknown key {key!r}"
            if hint:
                msg += f" (did you mean {hint[0]!r}?)"
            raise ValidationError(msg, path or "<root>")


def _expect(obj: dict, key: str, types, path: str, default=None, required=False):
    if key not in obj:
        if required:
            raise ValidationError("missing required key", f"{path}{key}")
        return default
    v = obj[key]
    if types is float and isinstance(v, int) and not isinstance(v, bool):
        v = float(v)
    if not isinstance(v, types) or isinstance(v, bool) and types is not bool:
        raise ValidationError(
            f"expected {getattr(types, '__name__', types)}, got {type(v).__name__}",
            f"{path}{key}",
        )
    # JSON's NaN and Infinity tokens parse; no setting can run with them.
    if types is float and not math.isfinite(v):
        raise ValidationError(f"must be finite, got {v!r}", f"{path}{key}")
    return v


def _dist(obj, path: str, default: BoundedDistribution | None = None) -> BoundedDistribution:
    if obj is None:
        if default is not None:
            return default
        raise ValidationError("missing required distribution", path)
    if not isinstance(obj, dict):
        raise ValidationError("distribution must be an object", path)
    _check_keys(obj, {"kind", "min", "max", "std"}, path)
    kind_name = _expect(obj, "kind", str, path + ".", default="uniform")
    if kind_name not in _DIST_KINDS:
        hint = difflib.get_close_matches(kind_name, _DIST_KINDS, n=1)
        msg = f"unknown distribution kind {kind_name!r}"
        if hint:
            msg += f" (did you mean {hint[0]!r}?)"
        raise ValidationError(msg, path + ".kind")
    lo = _expect(obj, "min", float, path + ".", required=True)
    hi = _expect(obj, "max", float, path + ".", required=True)
    std = _expect(obj, "std", float, path + ".", default=0.0)
    try:
        return BoundedDistribution(_DIST_KINDS[kind_name], lo, hi, std)
    except Exception as e:
        raise ValidationError(str(e), path) from e


@dataclass
class Paths:
    stimulus: str | None = None
    saliency_map: str | None = None
    frames_dir: str | None = None
    real_data: str | None = None
    velocity_input: str | None = None
    output: str | None = None
    targets_output: str | None = None
    errors_output: str | None = None


@dataclass
class MappingConfig:
    params: MappingParams
    min_target_distance: float
    target_threshold: float
    remap_mode: str
    frame_rate: float


@dataclass
class RunConfig:
    mode: str
    seed: int
    base_rate_hz: float
    sequence: SequenceSpec
    fixation: FixationParams
    saccade: SaccadeParams
    pursuit: PursuitParams
    rate: RateSpec
    noise: NoiseSpec
    mapping: MappingConfig
    paths: Paths


_DEFAULT_FIX = FixationParams(
    duration=BoundedDistribution.uniform(0.2, 0.4),
    base_velocity=0.0,
    consistency=BoundedDistribution.normal(0.0, 1.0, 2.0),
)
_DEFAULT_SAC = SaccadeParams(
    duration=BoundedDistribution.uniform(0.03, 0.08),
    peak_velocity=BoundedDistribution.uniform(300.0, 500.0),
    skewness=BoundedDistribution.uniform(0.6, 1.0),
    consistency=BoundedDistribution.fixed(0.0),
)
_DEFAULT_SP = PursuitParams(
    duration=BoundedDistribution.uniform(0.5, 1.0),
    velocity=BoundedDistribution.uniform(10.0, 30.0),
    onset_duration=BoundedDistribution.uniform(0.1, 0.2),
    trend=PursuitTrend.CONSTANT,
    trend_end_velocity=BoundedDistribution.uniform(5.0, 40.0),
    consistency=BoundedDistribution.fixed(0.0),
)


def _sequence(obj, path: str) -> SequenceSpec:
    if obj is None:
        obj = {"counts": {"fixation": 5, "saccade": 5}}
    _check_keys(obj, {"counts", "length", "constraints", "explicit"}, path)
    counts = None
    if "counts" in obj:
        raw = _expect(obj, "counts", dict, path + ".", required=True)
        _check_keys(raw, set(_LABEL_KEYS), path + ".counts")
        counts = {}
        for k, lab in _LABEL_KEYS.items():
            if k in raw:
                counts[lab] = _expect(raw, k, int, path + ".counts.", required=True)
    length = _expect(obj, "length", int, path + ".")
    explicit = None
    if "explicit" in obj:
        raw = _expect(obj, "explicit", list, path + ".", required=True)
        explicit = []
        for i, name in enumerate(raw):
            if name not in _LABEL_KEYS:
                raise ValidationError(
                    f"unknown movement type {name!r}", f"{path}.explicit[{i}]"
                )
            explicit.append(_LABEL_KEYS[name])
    rules = []
    for i, r in enumerate(obj.get("constraints", [])):
        rpath = f"{path}.constraints[{i}]"
        if not isinstance(r, dict):
            raise ValidationError("constraint must be an object", rpath)
        _check_keys(r, {"kind", "first", "second"}, rpath)
        kind = _expect(r, "kind", str, rpath + ".", required=True)
        if kind not in (OrderingRule.AFTER_EACH, OrderingRule.BEFORE):
            raise ValidationError(f"unknown rule kind {kind!r}", rpath + ".kind")
        names = {}
        for fkey in ("first", "second"):
            name = _expect(r, fkey, str, rpath + ".", required=True)
            if name not in _LABEL_KEYS:
                raise ValidationError(
                    f"unknown movement type {name!r}", f"{rpath}.{fkey}"
                )
            names[fkey] = _LABEL_KEYS[name]
        try:
            rules.append(OrderingRule(kind, names["first"], names["second"]))
        except Exception as e:
            raise ValidationError(str(e), rpath) from e
    try:
        return SequenceSpec(
            counts=counts, constraints=rules, explicit=explicit, length=length
        )
    except Exception as e:
        raise ValidationError(str(e), path) from e


def _wrap(path: str, fn, *args, **kwargs):
    try:
        return fn(*args, **kwargs)
    except ValidationError:
        raise
    except Exception as e:
        raise ValidationError(str(e), path) from e


def read_config(text: str) -> RunConfig:
    """Parse and fully validate a JSON config document."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as e:
        raise ParseError(f"invalid JSON: {e.msg}", f"line {e.lineno} col {e.colno}") from e
    if not isinstance(doc, dict):
        raise ValidationError("config document must be a JSON object", "<root>")
    _check_keys(
        doc,
        {
            "mode", "seed", "base_rate_hz", "sequence", "fixation", "saccade",
            "pursuit", "sampling", "noise", "mapping", "paths",
        },
        "",
    )
    mode = _expect(doc, "mode", str, "", default="velocity")
    if mode not in MODES:
        hint = difflib.get_close_matches(mode, MODES, n=1)
        msg = f"unknown mode {mode!r}"
        if hint:
            msg += f" (did you mean {hint[0]!r}?)"
        raise ValidationError(msg, "mode")
    seed = _expect(doc, "seed", int, "", default=0)
    base_rate = _expect(doc, "base_rate_hz", float, "", default=1000.0)
    if base_rate <= 0:
        raise ValidationError("must be > 0", "base_rate_hz")

    seq = _sequence(doc.get("sequence"), "sequence")

    fx = doc.get("fixation", {})
    _check_keys(fx, {"duration", "base_velocity", "consistency"}, "fixation")
    fixation = _wrap(
        "fixation",
        FixationParams,
        duration=_dist(fx.get("duration"), "fixation.duration", _DEFAULT_FIX.duration),
        base_velocity=_expect(fx, "base_velocity", float, "fixation.", default=0.0),
        consistency=_dist(
            fx.get("consistency"), "fixation.consistency", _DEFAULT_FIX.consistency
        ),
    )

    sc = doc.get("saccade", {})
    _check_keys(sc, {"duration", "peak_velocity", "skewness", "consistency"}, "saccade")
    saccade = _wrap(
        "saccade",
        SaccadeParams,
        duration=_dist(sc.get("duration"), "saccade.duration", _DEFAULT_SAC.duration),
        peak_velocity=_dist(
            sc.get("peak_velocity"), "saccade.peak_velocity", _DEFAULT_SAC.peak_velocity
        ),
        skewness=_dist(sc.get("skewness"), "saccade.skewness", _DEFAULT_SAC.skewness),
        consistency=_dist(
            sc.get("consistency"), "saccade.consistency", _DEFAULT_SAC.consistency
        ),
    )
    # A skewness above 2 gives a Gamma shape (2/skew)^2 below 1, which has no
    # finite peak, one below 2e-4 a shape above MAX_GAMMA_SHAPE, and a saccade
    # needs two samples; all would fail by seed.
    if saccade.skewness.max > 2.0:
        raise ValidationError(
            f"{saccade.skewness.max:.6g} must be <= 2 (Gamma shape >= 1)",
            "saccade.skewness.max",
        )
    if saccade.skewness.min < MIN_SKEWNESS:
        raise ValidationError(
            f"{saccade.skewness.min:.6g} must be >= {MIN_SKEWNESS:.6g} (Gamma "
            f"shape <= {MAX_GAMMA_SHAPE:.6g})",
            "saccade.skewness.min",
        )
    if int(round(saccade.duration.min * base_rate)) < 2:
        raise ValidationError(
            f"{saccade.duration.min:.6g} s gives fewer than 2 samples at "
            f"base_rate_hz {base_rate:.6g}",
            "saccade.duration.min",
        )

    sp = doc.get("pursuit", {})
    _check_keys(
        sp,
        {"duration", "velocity", "onset_duration", "trend", "trend_end_velocity",
         "consistency"},
        "pursuit",
    )
    trend_name = _expect(sp, "trend", str, "pursuit.", default="constant")
    if trend_name not in _TRENDS:
        hint = difflib.get_close_matches(trend_name, _TRENDS, n=1)
        msg = f"unknown trend {trend_name!r}"
        if hint:
            msg += f" (did you mean {hint[0]!r}?)"
        raise ValidationError(msg, "pursuit.trend")
    pursuit = _wrap(
        "pursuit",
        PursuitParams,
        duration=_dist(sp.get("duration"), "pursuit.duration", _DEFAULT_SP.duration),
        velocity=_dist(sp.get("velocity"), "pursuit.velocity", _DEFAULT_SP.velocity),
        onset_duration=_dist(
            sp.get("onset_duration"), "pursuit.onset_duration",
            _DEFAULT_SP.onset_duration,
        ),
        trend=_TRENDS[trend_name],
        trend_end_velocity=_dist(
            sp.get("trend_end_velocity"), "pursuit.trend_end_velocity",
            _DEFAULT_SP.trend_end_velocity,
        ),
        consistency=_dist(
            sp.get("consistency"), "pursuit.consistency", _DEFAULT_SP.consistency
        ),
    )
    # A duration draw at or below every onset draw can never finish its onset.
    if pursuit.onset_duration.min >= pursuit.duration.min:
        raise ValidationError(
            f"{pursuit.onset_duration.min:.6g} s must be below "
            f"pursuit.duration.min {pursuit.duration.min:.6g} s",
            "pursuit.onset_duration.min",
        )

    sa = doc.get("sampling", {})
    _check_keys(sa, {"rate"}, "sampling")
    rate = _wrap(
        "sampling.rate",
        RateSpec,
        _dist(sa.get("rate"), "sampling.rate", BoundedDistribution.fixed(base_rate)),
    )
    if rate.rate.max > base_rate:
        raise ValidationError(
            f"max {rate.rate.max:.6g} Hz exceeds base_rate_hz {base_rate:.6g}",
            "sampling.rate",
        )

    no = doc.get("noise", {})
    _check_keys(
        no, {"fraction", "location_dist", "magnitude", "mode", "burst_length"}, "noise"
    )
    loc_name = _expect(no, "location_dist", str, "noise.", default="uniform")
    if loc_name not in _DIST_KINDS:
        raise ValidationError(f"unknown distribution kind {loc_name!r}", "noise.location_dist")
    noise_mode = _expect(no, "mode", str, "noise.", default=MODE_REPLACE)
    if noise_mode not in (MODE_REPLACE, MODE_ADD):
        raise ValidationError(f"must be replace|add, got {noise_mode!r}", "noise.mode")
    noise = _wrap(
        "noise",
        NoiseSpec,
        fraction=_expect(no, "fraction", float, "noise.", default=0.0),
        location_dist=_DIST_KINDS[loc_name],
        magnitude=_dist(
            no.get("magnitude"), "noise.magnitude",
            BoundedDistribution.uniform(0.0, 300.0),
        ),
        mode=noise_mode,
        burst_length=_expect(no, "burst_length", int, "noise.", default=1),
    )

    mp = doc.get("mapping", {})
    _check_keys(
        mp,
        {"pixels_per_degree", "max_path_deviation", "fixation_dispersion",
         "target_jitter_px", "min_target_distance", "target_threshold",
         "remap_mode", "frame_rate"},
        "mapping",
    )
    remap_mode = _expect(mp, "remap_mode", str, "mapping.", default=REMAP_SAME_STIMULUS)
    if remap_mode not in (REMAP_SAME_STIMULUS, REMAP_NEW_STIMULUS):
        raise ValidationError(
            f"must be same_stimulus|new_stimulus, got {remap_mode!r}",
            "mapping.remap_mode",
        )
    mapping = MappingConfig(
        params=_wrap(
            "mapping",
            MappingParams,
            pixels_per_degree=_expect(
                mp, "pixels_per_degree", float, "mapping.", default=30.0
            ),
            max_path_deviation=_expect(
                mp, "max_path_deviation", float, "mapping.", default=0.0
            ),
            fixation_dispersion=_expect(
                mp, "fixation_dispersion", float, "mapping.", default=0.0
            ),
            target_jitter_px=_expect(
                mp, "target_jitter_px", float, "mapping.", default=5.0
            ),
        ),
        min_target_distance=_expect(
            mp, "min_target_distance", float, "mapping.", default=10.0
        ),
        target_threshold=_expect(mp, "target_threshold", float, "mapping.", default=0.1),
        remap_mode=remap_mode,
        frame_rate=_expect(mp, "frame_rate", float, "mapping.", default=30.0),
    )
    if mapping.frame_rate <= 0:
        raise ValidationError("must be > 0", "mapping.frame_rate")
    if mapping.min_target_distance < 0:
        raise ValidationError("must be >= 0", "mapping.min_target_distance")

    pt = doc.get("paths", {})
    allowed_paths = {
        "stimulus", "saliency_map", "frames_dir", "real_data", "velocity_input",
        "output", "targets_output", "errors_output",
    }
    _check_keys(pt, allowed_paths, "paths")
    paths = Paths(
        **{k: _expect(pt, k, str, "paths.") for k in allowed_paths}
    )

    return RunConfig(
        mode=mode, seed=seed, base_rate_hz=base_rate, sequence=seq,
        fixation=fixation, saccade=saccade, pursuit=pursuit, rate=rate,
        noise=noise, mapping=mapping, paths=paths,
    )


# Inputs each mode must be able to open at load time.
_MODE_INPUTS = {
    "velocity": (),
    "map_static": ("stimulus", "saliency_map", "velocity_input"),
    "map_dynamic": ("frames_dir", "velocity_input"),
    "remap": ("real_data",),
    "evaluate": ("real_data",),
    "saliency": ("stimulus",),
}

_MODE_REQUIRED = {
    "map_dynamic": ("frames_dir",),
    "remap": ("real_data",),
    "evaluate": ("real_data",),
    "saliency": ("stimulus",),
}


def check_paths(cfg: RunConfig) -> None:
    """Referenced input files must exist for the selected mode."""
    for key in _MODE_REQUIRED.get(cfg.mode, ()):
        if getattr(cfg.paths, key) is None:
            raise ValidationError(f"required for mode {cfg.mode!r}", f"paths.{key}")
    if cfg.mode == "map_static" and not (
        cfg.paths.stimulus or cfg.paths.saliency_map
    ):
        raise ValidationError(
            "map_static needs paths.stimulus or paths.saliency_map", "paths"
        )
    for key in _MODE_INPUTS.get(cfg.mode, ()):
        p = getattr(cfg.paths, key)
        if p is not None and not os.path.exists(p):
            raise ValidationError(f"file not found: {p}", f"paths.{key}")

