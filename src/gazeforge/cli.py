"""Command-line interface: config-driven pipeline with flag overrides."""
from __future__ import annotations

import argparse
import json
import os
import sys

import numpy as np

from . import config as config_mod
from .config import MappingConfig, RunConfig
from .core import LABEL_NAMES, MovementLabel, RandomSource
from .errors import (
    ConstraintError,
    GazeforgeError,
    MappingError,
    ParseError,
    ValidationError,
)
from .evaluation import DEFAULT_REPEATS, evaluate_dataset
from .fileio import (
    atomic_write_text,
    decode_utf8,
    read_gaze_csv,
    read_pgm,
    read_velocity_csv,
    write_gaze_csv,
    write_pgm,
    write_velocity_csv,
)
from .generators import assemble
from .mapping import REMAP_NEW_STIMULUS, SceneTargets, map_to_gaze, remap_real
from .noise import inject_noise
from .resampler import SampledSignal, resample
from .saliency import SaliencyMap, TargetSet, jitter_targets, local_maxima, spectral_residual
from .sequence import build_sequence

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_IO = 3
EXIT_NUMERIC = 4

ENV_SEED = "GAZEFORGE_SEED"


def _apply_override(doc: dict, item: str) -> None:
    if "=" not in item:
        raise ValidationError(f"override {item!r} must be KEY.PATH=VALUE")
    key, raw = item.split("=", 1)
    parts = key.strip().split(".")
    try:
        value = json.loads(raw)
    except json.JSONDecodeError:
        value = raw
    node = doc
    for p in parts[:-1]:
        nxt = node.get(p)
        if nxt is None:
            nxt = {}
            node[p] = nxt
        if not isinstance(nxt, dict):
            raise ValidationError(f"cannot descend into non-object", key)
        node = nxt
    node[parts[-1]] = value


def _load_config(args) -> RunConfig:
    try:
        with open(args.config, "rb") as fh:
            doc = json.loads(decode_utf8(fh.read(), json=True))
    except json.JSONDecodeError as e:
        raise ParseError(f"invalid JSON: {e.msg}", f"line {e.lineno} col {e.colno}")
    except OSError as e:
        raise ParseError(f"cannot read config: {e}")
    if not isinstance(doc, dict):
        raise ValidationError("config document must be a JSON object", "<root>")
    for item in args.set or []:
        _apply_override(doc, item)
    if args.seed is not None:
        doc["seed"] = args.seed
    elif ENV_SEED in os.environ:
        try:
            doc["seed"] = int(os.environ[ENV_SEED])
        except ValueError:
            raise ValidationError(f"{ENV_SEED} must be an integer", "seed")
    if args.output is not None:
        if doc.get("paths") is None:
            doc["paths"] = {}
        if isinstance(doc["paths"], dict):  # read_config rejects any other value
            doc["paths"]["output"] = args.output
    cfg = config_mod.read_config(json.dumps(doc))
    config_mod.check_paths(cfg)
    if not cfg.paths.output:
        raise ValidationError("required for this subcommand", "paths.output")
    return cfg


def generate_signal(cfg: RunConfig) -> SampledSignal:
    """sequence -> generators -> resampler -> noise."""
    rng = RandomSource(cfg.seed)
    seq = build_sequence(cfg.sequence, rng.derive(1))
    profile = assemble(
        seq, cfg.fixation, cfg.saccade, cfg.pursuit, cfg.base_rate_hz, rng.derive(2)
    )
    signal = resample(profile, cfg.rate, rng.derive(3))
    return inject_noise(signal, cfg.noise, rng.derive(4))


def _summary(signal: SampledSignal) -> str:
    parts = []
    for lab in MovementLabel:
        n = int(np.count_nonzero(signal.labels == lab))
        if n:
            parts.append(f"{LABEL_NAMES[lab]}={n}")
    dur = float(signal.timestamps[-1]) if len(signal) else 0.0
    return f"{len(signal)} samples, {dur:.3f} s ({', '.join(parts)})"


def cmd_generate(args) -> int:
    cfg = _load_config(args)
    out = cfg.paths.output
    signal = generate_signal(cfg)
    write_velocity_csv(out, signal)
    print(f"generate: {_summary(signal)} -> {out}")
    return EXIT_OK


def _static_targets(cfg: RunConfig, rng: RandomSource) -> SceneTargets:
    if cfg.paths.saliency_map and not os.path.isdir(cfg.paths.saliency_map):
        smap = SaliencyMap(read_pgm(cfg.paths.saliency_map))
    elif cfg.paths.stimulus:
        smap = spectral_residual(read_pgm(cfg.paths.stimulus))
    else:
        raise ValidationError("need paths.stimulus or paths.saliency_map", "paths")
    return SceneTargets.from_static(_targets_from_map(smap, cfg.mapping, rng))


def _targets_from_map(
    smap: SaliencyMap, mcfg: MappingConfig, rng: RandomSource
) -> TargetSet:
    targets = local_maxima(
        smap, mcfg.min_target_distance, mcfg.target_threshold
    )
    if len(targets) == 0:
        raise MappingError("saliency map yields no fixation targets")
    return jitter_targets(targets, mcfg.params.target_jitter_px, rng)


def _dynamic_targets(cfg: RunConfig, rng: RandomSource) -> SceneTargets:
    frames_dir = cfg.paths.frames_dir
    names = sorted(
        f for f in os.listdir(frames_dir) if f.lower().endswith((".pgm", ".pnm"))
    )
    if not names:
        raise ValidationError(f"no PGM frames in {frames_dir}", "paths.frames_dir")
    precomputed = cfg.paths.saliency_map if (
        cfg.paths.saliency_map and os.path.isdir(cfg.paths.saliency_map)
    ) else None
    frames = []
    for i, name in enumerate(names):
        if precomputed:
            mapfile = os.path.join(precomputed, name)
            smap = SaliencyMap(read_pgm(mapfile))
        else:
            smap = spectral_residual(read_pgm(os.path.join(frames_dir, name)))
        t = i / cfg.mapping.frame_rate
        frames.append((t, _targets_from_map(smap, cfg.mapping, rng)))
    return SceneTargets.from_frames(frames, cfg.mapping.frame_rate)


def cmd_map(args) -> int:
    cfg = _load_config(args)
    out = cfg.paths.output
    rng = RandomSource(cfg.seed)
    if cfg.paths.velocity_input:
        signal = read_velocity_csv(cfg.paths.velocity_input)
    else:
        signal = generate_signal(cfg)
    if cfg.mode == "map_dynamic" or cfg.paths.frames_dir:
        targets = _dynamic_targets(cfg, rng.derive(10))
    else:
        targets = _static_targets(cfg, rng.derive(10))
    trace = map_to_gaze(signal, targets, cfg.mapping.params, rng.derive(11))
    write_gaze_csv(out, trace)
    print(f"map: {len(trace)} samples over {trace.width}x{trace.height} px -> {out}")
    return EXIT_OK


def cmd_remap(args) -> int:
    cfg = _load_config(args)
    out = cfg.paths.output
    rng = RandomSource(cfg.seed)
    real = read_gaze_csv(
        cfg.paths.real_data, pixels_per_degree=cfg.mapping.params.pixels_per_degree
    )
    new_targets = None
    if cfg.mapping.remap_mode == REMAP_NEW_STIMULUS:
        new_targets = _static_targets(cfg, rng.derive(10))
    trace = remap_real(
        real, cfg.mapping.remap_mode, cfg.mapping.params, rng.derive(11), new_targets
    )
    write_gaze_csv(out, trace)
    print(f"remap: {len(trace)} samples -> {out}")
    return EXIT_OK


def cmd_saliency(args) -> int:
    cfg = _load_config(args)
    out = cfg.paths.output
    rng = RandomSource(cfg.seed)
    smap = spectral_residual(read_pgm(cfg.paths.stimulus))
    write_pgm(out, smap.values)
    msg = f"saliency: {smap.width}x{smap.height} map -> {out}"
    if cfg.paths.targets_output:
        targets = _targets_from_map(smap, cfg.mapping, rng.derive(10))
        lines = ["x_px,y_px,weight"]
        for x, y, w in targets.points:
            lines.append(f"{x:.3f},{y:.3f},{w:.6g}")
        atomic_write_text(cfg.paths.targets_output, "\n".join(lines) + "\n")
        msg += f", {len(targets)} targets -> {cfg.paths.targets_output}"
    print(msg)
    return EXIT_OK


def cmd_evaluate(args) -> int:
    cfg = _load_config(args)
    out = cfg.paths.output
    rng = RandomSource(cfg.seed)
    real = read_velocity_csv(cfg.paths.real_data)
    summary = evaluate_dataset(
        real.velocities, real.labels, rng, repeats=args.repeats
    )
    lines = ["type,stat,value"]
    for lab, st in summary.per_type.items():
        name = LABEL_NAMES[lab]
        for stat in (
            "count", "mean", "median", "q1", "q3",
            "whisker_low", "whisker_high", "min", "max",
        ):
            lines.append(f"{name},{stat},{getattr(st, stat):.6g}")
    atomic_write_text(out, "\n".join(lines) + "\n")
    msg = f"evaluate: {len(summary.per_type)} movement types -> {out}"
    if cfg.paths.errors_output:
        err_lines = []
        for lab, errs in summary.pooled.items():
            for e in errs:
                err_lines.append(f"{e:.6g}")
        atomic_write_text(cfg.paths.errors_output, "\n".join(err_lines) + "\n")
        msg += f", pooled errors -> {cfg.paths.errors_output}"
    print(msg)
    return EXIT_OK


# The root keys, sections and section.key entries each subcommand reads; its
# help lists them with the key names of config.SCHEMA.
_ROOT_READS = ("mode", "seed", "base_rate_hz")
_SIGNAL_READS = ("sequence", "fixation", "saccade", "pursuit", "sampling", "noise")
_WALK_READS = (
    "mapping.pixels_per_degree", "mapping.max_path_deviation",
    "mapping.fixation_dispersion",
)
_TARGET_READS = (
    "mapping.min_target_distance", "mapping.target_threshold",
    "mapping.target_jitter_px",
)
_READS = {
    "generate": (*_ROOT_READS, *_SIGNAL_READS, "paths.output"),
    "map": (
        *_ROOT_READS, *_SIGNAL_READS, *_WALK_READS, *_TARGET_READS,
        "mapping.frame_rate", "paths.stimulus", "paths.saliency_map",
        "paths.frames_dir", "paths.velocity_input", "paths.output",
    ),
    "remap": (
        *_ROOT_READS, "mapping.remap_mode", *_WALK_READS, *_TARGET_READS,
        "paths.real_data", "paths.stimulus", "paths.saliency_map", "paths.output",
    ),
    "saliency": (
        *_ROOT_READS, *_TARGET_READS, "paths.stimulus", "paths.output",
        "paths.targets_output",
    ),
    "evaluate": (*_ROOT_READS, "paths.real_data", "paths.output", "paths.errors_output"),
}


def _help_keys(reads: tuple[str, ...]) -> str:
    """The dotted config keys of ``reads``, each section expanded to its keys."""
    keys = []
    for entry in reads:
        if entry in config_mod.SCHEMA:
            keys += [f"{entry}.{key}" for key in config_mod.SCHEMA[entry]]
        else:
            keys.append(entry)
    return "Config keys read: " + ", ".join(keys)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gazeforge",
        description="Deterministic eye-movement velocity and gaze data simulator.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    handlers = {
        "generate": ("generate a labeled velocity CSV", cmd_generate),
        "map": ("map a velocity signal to a gaze CSV over a stimulus", cmd_map),
        "remap": ("re-generate gaze data from a real labeled trace", cmd_remap),
        "saliency": ("compute a saliency map and fixation targets", cmd_saliency),
        "evaluate": ("squared-error evaluation against labeled real data", cmd_evaluate),
    }
    for name, (help_text, fn) in handlers.items():
        p = sub.add_parser(name, help=help_text, epilog=_help_keys(_READS[name]))
        p.add_argument("--config", required=True, help="JSON config file")
        p.add_argument("--seed", type=int, default=None,
                       help=f"seed override (beats {ENV_SEED} and the config)")
        p.add_argument("--set", action="append", metavar="KEY.PATH=VALUE",
                       help="config override, repeatable")
        p.add_argument("--output", default=None, help="output path override")
        if name == "evaluate":
            p.add_argument("--repeats", type=int, default=DEFAULT_REPEATS,
                           help="simulations per segment")
        p.set_defaults(handler=fn)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.handler(args)
    except (ValidationError, ConstraintError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_CONFIG
    except (ParseError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_IO
    except GazeforgeError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
