"""Run configuration: JSON schema, strict validation, defaults.

One table, :data:`SCHEMA`, names every key of every section with its reader
and default. Unknown keys are hard errors (with a nearest-key suggestion) so
parameter typos never silently fall back to defaults; a key given as
``null`` reads as absent.
"""
from __future__ import annotations

import json
import math
import os
import re
import sys

from .errors import ParameterError, ParseError, ValidationError
from .params import (
    MAX_GAMMA_SHAPE,
    MIN_SKEWNESS,
    MODE_ADD,
    MODE_REPLACE,
    REMAP_NEW_STIMULUS,
    REMAP_SAME_STIMULUS,
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
    decode_utf8,
    fields,
    record,
)

# The accepted values of the root key mode; the subcommand decides the run.
MODES = ("velocity", "map_static", "map_dynamic", "remap", "evaluate", "saliency")
ENV_SEED = "GAZEFORGE_SEED"
# The most samples a float64 array can index: the ceiling on a segment's
# length and on evaluate's --repeats.
MAX_SAMPLES = sys.maxsize // 8

_LABEL_KEYS = {
    "fixation": MovementLabel.FIXATION,
    "saccade": MovementLabel.SACCADE,
    "smooth_pursuit": MovementLabel.SMOOTH_PURSUIT,
}
_DIST_KINDS = {"uniform": DistKind.UNIFORM, "normal": DistKind.NORMAL}
_REQUIRED = object()  # default of a key that has none


def _one_of(name, choices, what: str, path: str):
    """``choices[name]``, or a ValidationError at ``path`` naming the closest
    choice."""
    if not isinstance(name, str):
        raise ValidationError(f"expected str, got {type(name).__name__}", path)
    if name in choices:
        return choices[name]
    import difflib  # only to word the error: it costs every run's start-up

    msg = f"unknown {what} {name!r}"
    hint = difflib.get_close_matches(name, choices, n=1)
    if hint:
        msg += f" (did you mean {hint[0]!r}?)"
    raise ValidationError(msg, path)


def _typed(v, types, path: str):
    if types is float and isinstance(v, int) and not isinstance(v, bool):
        try:
            v = float(v)
        except OverflowError:  # as JSON's 1e400 parses: past the largest float
            v = math.inf if v > 0 else -math.inf
    if not isinstance(v, types) or isinstance(v, bool) and types is not bool:
        raise ValidationError(
            f"expected {types.__name__}, got {type(v).__name__}", path
        )
    # JSON's NaN and Infinity tokens parse; no setting can run with them.
    if types is float and not math.isfinite(v):
        raise ValidationError(f"must be finite, got {v!r}", path)
    return v


def _read(obj, spec: dict, path: str) -> dict:
    """The keys of ``spec`` read from the object ``obj`` at ``path``.

    ``spec`` maps each key to ``(reader, default)``. A reader is a type, a
    dict of the allowed names, or a function of (value, path) such as
    :func:`_dist`. A missing or ``null`` key (or object) takes its default.
    """
    where = path or "<root>"
    obj = {} if obj is None else _typed(obj, dict, where)
    for key in obj:
        _one_of(key, spec, "key", where)
    out = {}
    for key, (reader, default) in spec.items():
        value, at = obj.get(key), (f"{path}.{key}" if path else key)
        if value is None:
            if default is _REQUIRED:
                raise ValidationError("missing required key", at)
            out[key] = default
        elif isinstance(reader, dict):
            out[key] = _one_of(value, reader, key, at)
        elif isinstance(reader, type):
            out[key] = _typed(value, reader, at)
        else:
            out[key] = reader(value, at)
    return out


def _build(cls, path: str, **kwargs):
    try:
        return cls(**kwargs)
    except ParameterError as e:
        raise ValidationError(str(e), path) from e


_DIST = {
    "kind": (_DIST_KINDS, DistKind.UNIFORM),
    "min": (float, _REQUIRED),
    "max": (float, _REQUIRED),
    "std": (float, 0.0),
}


def _dist(obj, path: str) -> BoundedDistribution:
    return _build(BoundedDistribution, path, **_read(obj, _DIST, path))


@record
class Paths:
    stimulus: str | None = None
    saliency_map: str | None = None
    frames_dir: str | None = None
    real_data: str | None = None
    velocity_input: str | None = None
    output: str | None = None
    targets_output: str | None = None
    errors_output: str | None = None


# Section -> key -> (reader, default); the section "" holds the root scalars.
SCHEMA = {
    "": {
        "mode": ({m: m for m in MODES}, "velocity"),
        "seed": (int, 0),
        "base_rate_hz": (float, 1000.0),
    },
    "sequence": {
        "counts": (dict, None),
        "length": (int, None),
        "constraints": (list, ()),
        "explicit": (list, None),
    },
    "fixation": {
        "duration": (_dist, BoundedDistribution.uniform(0.2, 0.4)),
        "base_velocity": (float, 0.0),
        "consistency": (_dist, BoundedDistribution.normal(0.0, 1.0, 2.0)),
    },
    "saccade": {
        "duration": (_dist, BoundedDistribution.uniform(0.03, 0.08)),
        "peak_velocity": (_dist, BoundedDistribution.uniform(300.0, 500.0)),
        "skewness": (_dist, BoundedDistribution.uniform(0.6, 1.0)),
        "consistency": (_dist, BoundedDistribution.fixed(0.0)),
    },
    "pursuit": {
        "duration": (_dist, BoundedDistribution.uniform(0.5, 1.0)),
        "velocity": (_dist, BoundedDistribution.uniform(10.0, 30.0)),
        "onset_duration": (_dist, BoundedDistribution.uniform(0.1, 0.2)),
        "trend": ({t.value: t for t in PursuitTrend}, PursuitTrend.CONSTANT),
        "trend_end_velocity": (_dist, BoundedDistribution.uniform(5.0, 40.0)),
        "consistency": (_dist, BoundedDistribution.fixed(0.0)),
    },
    "sampling": {"rate": (_dist, None)},  # None: a fixed rate of base_rate_hz
    "noise": {
        "fraction": (float, 0.0),
        "location_dist": (_DIST_KINDS, DistKind.UNIFORM),
        "magnitude": (_dist, BoundedDistribution.uniform(0.0, 300.0)),
        "mode": ({m: m for m in (MODE_REPLACE, MODE_ADD)}, MODE_REPLACE),
        "burst_length": (int, 1),
    },
    "mapping": {
        **{f.name: (float, f.default) for f in fields(MappingParams)},
        "min_target_distance": (float, 10.0),
        "target_threshold": (float, 0.1),
        "remap_mode": (
            {m: m for m in (REMAP_SAME_STIMULUS, REMAP_NEW_STIMULUS)},
            REMAP_SAME_STIMULUS,
        ),
        "frame_rate": (float, 30.0),
    },
    "paths": {f.name: (str, None) for f in fields(Paths)},
}
# The root object: its scalars, then each section as an object.
_ROOT = {**SCHEMA[""], **{name: (dict, None) for name in SCHEMA if name}}

_SCENE = ("stimulus", "saliency_map")  # a static scene: its image, or its map
_ROOT_READS = ("mode", "seed")
_SIGNAL_READS = ("base_rate_hz", "sequence", "fixation", "saccade", "pursuit", "sampling", "noise")
_WALK_READS = (
    "mapping.pixels_per_degree", "mapping.max_path_deviation",
    "mapping.fixation_dispersion",
)
_TARGET_READS = (
    "mapping.min_target_distance", "mapping.target_threshold",
    "mapping.target_jitter_px",
)
# Subcommand -> (the root keys, sections and section.key entries it reads
# besides the paths it needs; those paths, each a tuple of keys one of which
# must be set). Its --help lists both, then paths.output, which every
# subcommand needs. remap under new_stimulus also needs _SCENE.
COMMANDS = {
    "generate": ((*_ROOT_READS, *_SIGNAL_READS), ()),
    "map": (
        (*_ROOT_READS, *_SIGNAL_READS, *_WALK_READS, *_TARGET_READS,
         "mapping.frame_rate", "paths.velocity_input"),
        ((*_SCENE, "frames_dir"),),
    ),
    "remap": (
        (*_ROOT_READS, "mapping.remap_mode", *_WALK_READS, *_TARGET_READS,
         "paths.stimulus", "paths.saliency_map"),
        (("real_data",),),
    ),
    "saliency": ((*_ROOT_READS, *_TARGET_READS, "paths.targets_output"), (("stimulus",),)),
    "evaluate": ((*_ROOT_READS, "paths.errors_output"), (("real_data",),)),
}
_RULE = {
    "kind": ({k: k for k in (OrderingRule.AFTER_EACH, OrderingRule.BEFORE)}, _REQUIRED),
    "first": (_LABEL_KEYS, _REQUIRED),
    "second": (_LABEL_KEYS, _REQUIRED),
}


@record
class MappingConfig:
    params: MappingParams
    min_target_distance: float
    target_threshold: float
    remap_mode: str
    frame_rate: float


@record
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


def _section(root: dict, name: str) -> dict:
    return _read(root[name], SCHEMA[name], name)


def _sequence(obj) -> SequenceSpec:
    if obj is None:
        obj = {"counts": {"fixation": 5, "saccade": 5}}
    seq = _read(obj, SCHEMA["sequence"], "sequence")
    if seq["counts"] is not None:
        counts = _read(
            seq["counts"], dict.fromkeys(_LABEL_KEYS, (int, None)), "sequence.counts"
        )
        seq["counts"] = {
            _LABEL_KEYS[k]: n for k, n in counts.items() if n is not None
        }
    if seq["explicit"] is not None:
        seq["explicit"] = [
            _one_of(name, _LABEL_KEYS, "movement type", f"sequence.explicit[{i}]")
            for i, name in enumerate(seq["explicit"])
        ]
    rules = []
    for i, rule in enumerate(seq["constraints"]):
        at = f"sequence.constraints[{i}]"
        rules.append(_build(OrderingRule, at, **_read(rule, _RULE, at)))
    seq["constraints"] = rules
    return _build(SequenceSpec, "sequence", **seq)


def _document(text: str) -> dict:
    """The JSON object of ``text``; a parse failure is a positioned ParseError."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as e:
        raise ParseError(f"invalid JSON: {e.msg}", f"line {e.lineno} col {e.colno}") from e
    except ValueError as e:  # int() of more than sys.get_int_max_str_digits()
        limit = sys.get_int_max_str_digits()
        # The first integer token past the limit: strings and floats pass.
        tokens = re.finditer(r'"(?:[^"\\]|\\.)*"|-?([0-9]+)([.eE][-+.eE0-9]*)?', text)
        at = next(m.start(1) for m in tokens if m[1] and not m[2] and len(m[1]) > limit)
        line = text.count("\n", 0, at) + 1
        raise ParseError(f"integer of more than {limit} digits", f"line {line}") from e
    except RecursionError as e:  # the parser recurses once per nesting level
        depth, deepest = 0, (0, 0)  # (depth, -offset) of its first deepest bracket
        for m in re.finditer(r'"(?:[^"\\]|\\.)*"|[][{}]', text):
            depth += (m[0] in "[{") - (m[0] in "]}")
            deepest = max(deepest, (depth, -m.start()))
        line = text.count("\n", 0, -deepest[1]) + 1
        raise ParseError(f"nested {deepest[0]} levels deep", f"line {line}") from e
    if not isinstance(doc, dict):
        raise ValidationError("config document must be a JSON object", "<root>")
    return doc


def _apply_override(doc: dict, item: str) -> None:
    if "=" not in item:
        raise ValidationError(f"override {item!r} must be KEY.PATH=VALUE")
    key, raw = item.split("=", 1)
    parts = key.strip().split(".")
    try:
        value = json.loads(raw)
    except (ValueError, RecursionError):  # not JSON, an integer too long to
        value = raw  # read, or nested too deeply: the text
    node = doc
    for p in parts[:-1]:
        if node.get(p) is None:
            node[p] = {}
        node = node[p]
        if not isinstance(node, dict):
            raise ValidationError("cannot descend into non-object", key)
    node[parts[-1]] = value


def load_config(data: bytes, command: str, *, sets=(), seed: int | None = None,
                env_seed: str | None = None, output: str | None = None) -> RunConfig:
    """The config file ``data`` with each ``KEY.PATH=VALUE`` of ``sets``, the
    seed (``seed``, else ``env_seed``, the text of ENV_SEED, else the file's)
    and ``output`` as paths.output; checked, with its inputs and the paths
    that the subcommand ``command`` needs."""
    doc = _document(decode_utf8(data, json=True))
    for item in sets:
        _apply_override(doc, item)
    if seed is not None:
        doc["seed"] = seed
    elif env_seed is not None:
        try:
            doc["seed"] = int(env_seed)
        except ValueError:
            raise ValidationError(f"{ENV_SEED} must be an integer", "seed")
    if output is not None:
        if doc.get("paths") is None:
            doc["paths"] = {}
        if isinstance(doc["paths"], dict):  # _validate rejects any other value
            doc["paths"]["output"] = output
    cfg = _validate(doc)
    check_paths(cfg)
    _check_needs(cfg, command)
    return cfg


def read_config(text: str) -> RunConfig:
    """Parse and fully validate a JSON config document."""
    return _validate(_document(text))


def _validate(doc: dict) -> RunConfig:
    root = _read(doc, _ROOT, "")
    base_rate = root["base_rate_hz"]
    if base_rate <= 0:
        raise ValidationError("must be > 0", "base_rate_hz")

    seq = _sequence(root["sequence"])
    fixation = _build(FixationParams, "fixation", **_section(root, "fixation"))
    saccade = _build(SaccadeParams, "saccade", **_section(root, "saccade"))
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
    if saccade.duration.min * base_rate < 1.5:  # rounds to fewer than 2 samples
        raise ValidationError(
            f"{saccade.duration.min:.6g} s gives fewer than 2 samples at "
            f"base_rate_hz {base_rate:.6g}",
            "saccade.duration.min",
        )

    pursuit = _build(PursuitParams, "pursuit", **_section(root, "pursuit"))
    for name, params in (("fixation", fixation), ("saccade", saccade), ("pursuit", pursuit)):
        if params.duration.max * base_rate > MAX_SAMPLES:  # an inf product too
            raise ValidationError(
                f"{params.duration.max:.6g} s gives more than {MAX_SAMPLES:.3g} samples "
                f"at base_rate_hz {base_rate:.6g}",
                f"{name}.duration.max",
            )
    for name, params in (("fixation", fixation), ("pursuit", pursuit)):
        if round(params.duration.min * base_rate) < 1:  # as generators._segment_length counts
            raise ValidationError(
                f"{params.duration.min:.6g} s gives zero samples at "
                f"base_rate_hz {base_rate:.6g}",
                f"{name}.duration.min",
            )
    # A duration draw at or below every onset draw can never finish its onset.
    if pursuit.onset_duration.min >= pursuit.duration.min:
        raise ValidationError(
            f"{pursuit.onset_duration.min:.6g} s must be below "
            f"pursuit.duration.min {pursuit.duration.min:.6g} s",
            "pursuit.onset_duration.min",
        )

    rate = _section(root, "sampling")["rate"] or BoundedDistribution.fixed(base_rate)
    rate = _build(RateSpec, "sampling.rate", rate=rate)
    if rate.rate.max > base_rate:
        raise ValidationError(
            f"max {rate.rate.max:.6g} Hz exceeds base_rate_hz {base_rate:.6g}",
            "sampling.rate",
        )

    noise = _build(NoiseSpec, "noise", **_section(root, "noise"))

    mp = _section(root, "mapping")
    params = {f.name: mp.pop(f.name) for f in fields(MappingParams)}
    mapping = MappingConfig(params=_build(MappingParams, "mapping", **params), **mp)
    if mapping.frame_rate <= 0:
        raise ValidationError("must be > 0", "mapping.frame_rate")
    if mapping.min_target_distance < 0:
        raise ValidationError("must be >= 0", "mapping.min_target_distance")
    if mapping.target_threshold > 1:  # every saliency map is scaled to [0, 1]
        raise ValidationError("must be <= 1", "mapping.target_threshold")

    return RunConfig(
        mode=root["mode"], seed=root["seed"], base_rate_hz=base_rate, sequence=seq,
        fixation=fixation, saccade=saccade, pursuit=pursuit, rate=rate,
        noise=noise, mapping=mapping, paths=Paths(**_section(root, "paths")),
    )


def check_paths(cfg: RunConfig) -> None:
    """Every input path that is set exists and is of its kind; the subcommand
    decides whether paths.saliency_map is a file or a folder (_check_needs)."""
    kinds = {"stimulus": "file", "saliency_map": None, "frames_dir": "folder",
             "real_data": "file", "velocity_input": "file"}
    for key, kind in kinds.items():
        p = getattr(cfg.paths, key)
        if p is not None and not os.path.exists(p):
            raise ValidationError(f"file not found: {p}", f"paths.{key}")
        if p is not None and kind and os.path.isdir(p) != (kind == "folder"):
            raise ValidationError(f"must be a {kind}: {p}", f"paths.{key}")


def frame_names(folder: str) -> list[str]:
    """The PGM frames of ``folder``, in frame order."""
    return sorted(f for f in os.listdir(folder) if f.lower().endswith((".pgm", ".pnm")))


def _check_needs(cfg: RunConfig, command: str) -> None:
    """The paths ``command`` needs are set, each output it writes names a file
    in an existing folder, a paths.frames_dir it reads holds PGM frames, and
    a paths.saliency_map it reads is a folder of frame maps beside
    paths.frames_dir, else a map file."""
    paths, (reads, needs) = cfg.paths, COMMANDS[command]
    if command == "remap" and cfg.mapping.remap_mode == REMAP_NEW_STIMULUS:
        needs += (_SCENE,)
    for keys in (*needs, ("output",)):
        if not any(getattr(paths, key) for key in keys):
            at = " or ".join(f"paths.{key}" for key in keys)
            raise ValidationError(f"{command} needs {at}", f"paths.{keys[0]}")
    for key in ("output", "targets_output", "errors_output"):
        p = getattr(paths, key)
        if p and (key == "output" or f"paths.{key}" in reads):
            if os.path.isdir(p):
                raise ValidationError(f"must be a file, not a folder: {p}", f"paths.{key}")
            if not os.path.isdir(os.path.dirname(os.path.abspath(p))):
                raise ValidationError(f"its folder does not exist: {p}", f"paths.{key}")
    if command == "map" and paths.frames_dir and not frame_names(paths.frames_dir):
        raise ValidationError(f"no PGM frames in {paths.frames_dir}", "paths.frames_dir")
    if paths.saliency_map and any("saliency_map" in keys for keys in needs):
        dynamic = command == "map" and bool(paths.frames_dir)
        if os.path.isdir(paths.saliency_map) != dynamic:
            kind = "a folder beside paths.frames_dir" if dynamic else "a file"
            raise ValidationError(f"must be {kind}", "paths.saliency_map")
