"""Command-line interface: config-driven pipeline with flag overrides."""
from __future__ import annotations

import os
import sys
from typing import TYPE_CHECKING

from . import config as config_mod
from .config import ENV_SEED, MAX_SAMPLES, MappingConfig, RunConfig
from .errors import (
    ConstraintError,
    GazeforgeError,
    MappingError,
    ParseError,
    ValidationError,
)
from .params import DEFAULT_REPEATS, LABEL_NAMES, REMAP_NEW_STIMULUS, MovementLabel, fields

# numpy and the stage modules load inside the subcommand that runs them, so a
# config error or --help exits without paying for them.
if TYPE_CHECKING:
    import argparse
    from .core import RandomSource, SampledSignal, TargetSet
    from .mapping import SceneTargets
    Outputs = tuple[dict[str, bytes], str]  # what a subcommand writes, and prints

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_IO = 3
EXIT_NUMERIC = 4


def _load_config(args) -> RunConfig:
    try:
        with open(args.config, "rb") as fh:
            data = fh.read()
    except OSError as e:
        raise ParseError(f"cannot read config: {e}")
    return config_mod.load_config(
        data, args.command, sets=args.set or (), seed=args.seed,
        env_seed=os.environ.get(ENV_SEED), output=args.output,
    )


def generate_signal(cfg: RunConfig, rng: RandomSource) -> SampledSignal:
    """sequence -> generators -> resampler -> noise, from the run's root stream."""
    from .generators import assemble
    from .noise import inject_noise
    from .resampler import resample
    from .sequence import build_sequence

    seq = build_sequence(cfg.sequence, rng.derive(1))
    profile = assemble(
        seq, cfg.fixation, cfg.saccade, cfg.pursuit, cfg.base_rate_hz, rng.derive(2)
    )
    signal = resample(profile, cfg.rate, rng.derive(3))
    return inject_noise(signal, cfg.noise, rng.derive(4))


def _summary(signal: SampledSignal) -> str:
    import numpy as np

    parts = []
    for lab in MovementLabel:
        n = int(np.count_nonzero(signal.labels == lab))
        if n:
            parts.append(f"{LABEL_NAMES[lab]}={n}")
    dur = float(signal.timestamps[-1]) if len(signal) else 0.0
    return f"{len(signal)} samples, {dur:.3f} s ({', '.join(parts)})"


def _generate(cfg: RunConfig, rng: RandomSource, repeats: int) -> Outputs:
    from .fileio import velocity_csv_bytes

    out = cfg.paths.output
    signal = generate_signal(cfg, rng)
    return {out: velocity_csv_bytes(signal)}, f"generate: {_summary(signal)} -> {out}"


def _jittered(found: TargetSet, mcfg: MappingConfig, rng: RandomSource) -> TargetSet:
    """The fixation targets from a map's local maxima; none is an error."""
    from .saliency import jitter_targets

    if len(found) == 0:
        raise MappingError("saliency map yields no fixation targets")
    return jitter_targets(found, mcfg.params.target_jitter_px, rng)


def _scene_targets(cfg: RunConfig, dynamic: bool, rng: RandomSource) -> SceneTargets:
    """Targets of paths.stimulus or of each frame in paths.frames_dir, from the
    image's saliency or paths.saliency_map (a file, or a folder of frame maps).
    An image's map is never written, so only its cells that can hold a target
    are computed."""
    from .fileio import read_pgm
    from .mapping import SceneTargets
    from .saliency import SaliencyMap, image_targets, local_maxima

    paths, mcfg, rate = cfg.paths, cfg.mapping, cfg.mapping.frame_rate
    if dynamic:
        names = config_mod.frame_names(paths.frames_dir)
        folder = paths.saliency_map or paths.frames_dir
        entries = [(i / rate, os.path.join(folder, name)) for i, name in enumerate(names)]
    else:
        entries = [(0.0, paths.saliency_map or paths.stimulus)]
    frames = []
    for t, path in entries:
        grid = read_pgm(path)
        if paths.saliency_map:
            found = local_maxima(
                SaliencyMap(grid), mcfg.min_target_distance, mcfg.target_threshold
            )
        else:
            found = image_targets(grid, mcfg.min_target_distance, mcfg.target_threshold)
        frames.append((t, _jittered(found, mcfg, rng)))
    return SceneTargets.from_frames(frames, rate)


def _map(cfg: RunConfig, rng: RandomSource, repeats: int) -> Outputs:
    from .fileio import gaze_csv_bytes, read_velocity_csv
    from .mapping import map_to_gaze

    out = cfg.paths.output
    # Targets first, so a stimulus without any fails before the signal is made;
    # both draw from their own derived streams, so the order keeps the bytes.
    targets = _scene_targets(cfg, bool(cfg.paths.frames_dir), rng.derive(10))
    if cfg.paths.velocity_input:
        signal = read_velocity_csv(cfg.paths.velocity_input)
    else:
        signal = generate_signal(cfg, rng)
    trace = map_to_gaze(signal, targets, cfg.mapping.params, rng.derive(11))
    msg = f"map: {len(trace)} samples over {trace.width}x{trace.height} px -> {out}"
    return {out: gaze_csv_bytes(trace)}, msg


def _remap(cfg: RunConfig, rng: RandomSource, repeats: int) -> Outputs:
    from .fileio import gaze_csv_bytes, read_gaze_csv
    from .mapping import remap_real

    out = cfg.paths.output
    real = read_gaze_csv(
        cfg.paths.real_data, pixels_per_degree=cfg.mapping.params.pixels_per_degree
    )
    new_targets = None
    if cfg.mapping.remap_mode == REMAP_NEW_STIMULUS:
        new_targets = _scene_targets(cfg, False, rng.derive(10))
    trace = remap_real(
        real, cfg.mapping.remap_mode, cfg.mapping.params, rng.derive(11), new_targets
    )
    return {out: gaze_csv_bytes(trace)}, f"remap: {len(trace)} samples -> {out}"


def _saliency(cfg: RunConfig, rng: RandomSource, repeats: int) -> Outputs:
    from .fileio import pgm_bytes, read_pgm
    from .saliency import local_maxima, spectral_residual

    out, mcfg = cfg.paths.output, cfg.mapping
    smap = spectral_residual(read_pgm(cfg.paths.stimulus))
    files = {out: pgm_bytes(smap.values)}
    msg = f"saliency: {smap.width}x{smap.height} map -> {out}"
    if cfg.paths.targets_output:
        found = local_maxima(smap, mcfg.min_target_distance, mcfg.target_threshold)
        targets = _jittered(found, mcfg, rng.derive(10))
        lines = ["x_px,y_px,weight"]
        for x, y, w in targets.points:
            lines.append(f"{x:.3f},{y:.3f},{w:.6g}")
        files[cfg.paths.targets_output] = ("\n".join(lines) + "\n").encode()
        msg += f", {len(targets)} targets -> {cfg.paths.targets_output}"
    return files, msg


def _evaluate(cfg: RunConfig, rng: RandomSource, repeats: int) -> Outputs:
    from .evaluation import evaluate_dataset
    from .fileio import read_velocity_csv

    out = cfg.paths.output
    real = read_velocity_csv(cfg.paths.real_data)
    summary = evaluate_dataset(
        real.velocities, real.labels, rng, repeats=repeats
    )
    lines = ["type,stat,value"]
    for lab, st in summary.per_type.items():
        name = LABEL_NAMES[lab]
        for stat in fields(st):
            lines.append(f"{name},{stat.name},{getattr(st, stat.name):.6g}")
    files = {out: ("\n".join(lines) + "\n").encode()}
    msg = f"evaluate: {len(summary.per_type)} movement types -> {out}"
    if cfg.paths.errors_output:
        err_lines = [f"{e:.6g}" for errs in summary.pooled.values() for e in errs.tolist()]
        files[cfg.paths.errors_output] = ("\n".join(err_lines) + "\n").encode()
        msg += f", pooled errors -> {cfg.paths.errors_output}"
    return files, msg


SUBCOMMANDS = {
    "generate": ("generate a labeled velocity CSV", _generate),
    "map": ("map a velocity signal to a gaze CSV over a stimulus", _map),
    "remap": ("re-generate gaze data from a real labeled trace", _remap),
    "saliency": ("compute a saliency map and fixation targets", _saliency),
    "evaluate": ("squared-error evaluation against labeled real data", _evaluate),
}


def run(command: str, cfg: RunConfig, rng: RandomSource,
        repeats: int = DEFAULT_REPEATS) -> Outputs:
    """Subcommand ``command``'s outputs, each path mapped to its bytes in write
    order, and its summary line. It writes and prints nothing."""
    return SUBCOMMANDS[command][1](cfg, rng, repeats)


def _repeats(text: str) -> int:
    """The value of ``--repeats``: checked while the arguments are parsed,
    before numpy or the data file loads."""
    import argparse

    try:
        n = int(text)
    except ValueError:
        n = 0  # not an integer: refused with the range below
    if not 1 <= n <= MAX_SAMPLES:
        raise argparse.ArgumentTypeError(
            f"expected an integer from 1 to {MAX_SAMPLES}, got {text!r}"
        )
    return n


def _help_keys(name: str) -> str:
    """The dotted config keys that subcommand ``name`` reads, each section
    expanded to its keys, the paths it needs last."""
    reads, needs = config_mod.COMMANDS[name]
    keys = []
    for entry in (*reads, *(f"paths.{k}" for ks in (*needs, ("output",)) for k in ks)):
        if entry in config_mod.SCHEMA:
            keys += [f"{entry}.{key}" for key in config_mod.SCHEMA[entry]]
        else:
            keys.append(entry)
    return "Config keys read: " + ", ".join(keys)


def build_parser() -> argparse.ArgumentParser:
    import argparse  # only main parses arguments; a library import skips it

    parser = argparse.ArgumentParser(
        prog="gazeforge",
        description="Deterministic eye-movement velocity and gaze data simulator.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, _) in SUBCOMMANDS.items():
        p = sub.add_parser(name, help=help_text, epilog=_help_keys(name))
        p.add_argument("--config", required=True, help="JSON config file")
        p.add_argument("--seed", type=int, default=None,
                       help=f"seed override (beats {ENV_SEED} and the config)")
        p.add_argument("--set", action="append", metavar="KEY.PATH=VALUE",
                       help="config override, repeatable")
        p.add_argument("--output", default=None, help="output path override")
        if name == "evaluate":
            p.add_argument("--repeats", type=_repeats, default=DEFAULT_REPEATS,
                           help=f"simulations per segment, 1 to {MAX_SAMPLES} "
                                f"(default {DEFAULT_REPEATS})")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    # numpy's OpenBLAS starts a worker thread per CPU as it loads, and the
    # CLI calls no BLAS routine (tests/test_import_cost.py keeps it so): ask
    # for none before a subcommand loads numpy. OpenBLAS reads the variable
    # only then, and a value the caller set is kept.
    if "numpy" not in sys.modules:
        os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
    try:
        cfg = _load_config(args)
        from .core import RandomSource
        from .fileio import atomic_write_bytes

        repeats = getattr(args, "repeats", DEFAULT_REPEATS)
        files, line = run(args.command, cfg, RandomSource(cfg.seed), repeats)
        for path, data in files.items():  # after run: a failed run wrote none
            atomic_write_bytes(path, data)
        print(line)
    except (GazeforgeError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        if isinstance(e, (ValidationError, ConstraintError)):
            return EXIT_CONFIG
        return EXIT_IO if isinstance(e, (ParseError, OSError)) else EXIT_NUMERIC
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
