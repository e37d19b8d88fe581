"""gazeforge's subcommands rebuilt from the library's public calls, one span
per call, for the traced run (see traced.py).

This mirrors ``gazeforge.cli`` for the config paths the benchmark's
workloads use and refuses the others, so a byte comparison with the CLI's
outputs proves the traced run measured the same program.
"""
from __future__ import annotations

import json
import os

import numpy as np

from gazeforge import config, fileio, mapping, saliency
from gazeforge.core import LABEL_NAMES, MovementLabel, RandomSource
from gazeforge.evaluation import DEFAULT_REPEATS, evaluate_dataset
from gazeforge.generators import assemble
from gazeforge.noise import inject_noise
from gazeforge.resampler import resample
from gazeforge.sequence import build_sequence


class Unsupported(Exception):
    """The config takes a CLI path the traced composition does not rebuild."""


def _runs(labels: np.ndarray) -> np.ndarray:
    """Start index of each maximal run of equal labels."""
    return np.concatenate(([0], np.flatnonzero(np.diff(labels)) + 1))


def _size(tr, name: str, path: str, rows: int) -> None:
    tr.count(f"{name}_bytes", os.path.getsize(path))
    tr.count(f"{name}_rows", rows)


def _read_pgm(tr, path: str) -> np.ndarray:
    with open(path, "rb") as fh:
        magic = fh.read(2).decode("ascii", "replace").lower()
    name = f"fileio.read_pgm_{magic}"
    grid = tr.call(name, fileio.read_pgm, path)
    _size(tr, name, path, grid.shape[0])
    return grid


def _write(tr, name: str, fn, path: str, data, rows: int) -> None:
    tr.call(name, fn, path, data)
    _size(tr, name, path, rows)


def _signal(tr, cfg):
    rng = RandomSource(cfg.seed)
    seq = tr.call("sequence.build_sequence", build_sequence, cfg.sequence, rng.derive(1))
    profile = tr.call("generators.assemble", assemble, seq, cfg.fixation, cfg.saccade,
                      cfg.pursuit, cfg.base_rate_hz, rng.derive(2))
    clean = tr.call("resampler.resample", resample, profile, cfg.rate, rng.derive(3))
    signal = tr.call("noise.inject_noise", inject_noise, clean, cfg.noise, rng.derive(4))
    tr.count("sequence.segments", len(seq))
    tr.count("generators.base_samples", len(profile))
    tr.count("resampler.out_samples", len(clean))
    tr.count("noise.samples", int(np.count_nonzero(signal.labels == MovementLabel.NOISE)))
    return signal


def _saliency(tr, grid):
    smap = tr.call("saliency.spectral_residual", saliency.spectral_residual, grid)
    tr.count("saliency.pixels", smap.values.size)
    return smap


def _targets(tr, smap, mcfg, rng):
    found = tr.call("saliency.local_maxima", saliency.local_maxima, smap,
                    mcfg.min_target_distance, mcfg.target_threshold)
    if len(found) == 0:
        raise Unsupported("saliency map yields no fixation targets")
    jittered = tr.call("saliency.jitter_targets", saliency.jitter_targets, found,
                       mcfg.params.target_jitter_px, rng)
    tr.count("saliency.targets_before_jitter", len(found))
    tr.count("saliency.targets_after_jitter", len(jittered))
    return jittered


def load(tr, path: str, output: str | None):
    """The CLI's config loading without overrides (the benchmark uses none)."""
    with open(path) as fh:
        doc = json.load(fh)
    if output is not None:
        doc.setdefault("paths", {})["output"] = output
    cfg = tr.call("config.read_config", config.read_config, json.dumps(doc))
    config.check_paths(cfg)
    return cfg


def generate(tr, cfg, repeats=None) -> None:
    signal = _signal(tr, cfg)
    _write(tr, "fileio.write_velocity_csv", fileio.write_velocity_csv, cfg.paths.output,
           signal, len(signal))


def map_(tr, cfg, repeats=None) -> None:
    if cfg.paths.velocity_input or cfg.paths.saliency_map:
        raise Unsupported("traced map covers generated signals over stimuli only")
    rng = RandomSource(cfg.seed)
    signal = _signal(tr, cfg)
    trng = rng.derive(10)
    if cfg.mode == "map_dynamic" or cfg.paths.frames_dir:
        names = sorted(f for f in os.listdir(cfg.paths.frames_dir)
                       if f.lower().endswith((".pgm", ".pnm")))
        frames = []
        for i, name in enumerate(names):
            smap = _saliency(tr, _read_pgm(tr, os.path.join(cfg.paths.frames_dir, name)))
            frames.append((i / cfg.mapping.frame_rate, _targets(tr, smap, cfg.mapping, trng)))
        scene = mapping.SceneTargets.from_frames(frames, cfg.mapping.frame_rate)
    else:
        smap = _saliency(tr, _read_pgm(tr, cfg.paths.stimulus))
        scene = mapping.SceneTargets.from_static(_targets(tr, smap, cfg.mapping, trng))
    trace = tr.call("mapping.map_to_gaze", mapping.map_to_gaze, signal, scene,
                    cfg.mapping.params, rng.derive(11))
    tr.count("mapping.gaze_samples", len(trace))
    tr.count("mapping.label_runs", len(_runs(signal.labels)))
    _write(tr, "fileio.write_gaze_csv", fileio.write_gaze_csv, cfg.paths.output, trace,
           len(trace))


def saliency_(tr, cfg, repeats=None) -> None:
    rng = RandomSource(cfg.seed)
    smap = _saliency(tr, _read_pgm(tr, cfg.paths.stimulus))
    _write(tr, "fileio.write_pgm", fileio.write_pgm, cfg.paths.output, smap.values,
           smap.height)
    if cfg.paths.targets_output:
        targets = _targets(tr, smap, cfg.mapping, rng.derive(10))
        lines = ["x_px,y_px,weight"]
        lines += [f"{x:.3f},{y:.3f},{w:.6g}" for x, y, w in targets.points]
        _write(tr, "fileio.write_text", fileio.atomic_write_text,
               cfg.paths.targets_output, "\n".join(lines) + "\n", len(targets))


def remap(tr, cfg, repeats=None) -> None:
    if cfg.mapping.remap_mode != mapping.REMAP_SAME_STIMULUS:
        raise Unsupported("traced remap covers same_stimulus only")
    rng = RandomSource(cfg.seed)
    path = cfg.paths.real_data
    real = tr.call("fileio.read_gaze_csv", fileio.read_gaze_csv, path,
                   pixels_per_degree=cfg.mapping.params.pixels_per_degree)
    _size(tr, "fileio.read_gaze_csv", path, len(real))
    trace = tr.call("mapping.remap_real", mapping.remap_real, real, cfg.mapping.remap_mode,
                    cfg.mapping.params, rng.derive(11), None)
    tr.count("mapping.gaze_samples", len(trace))
    tr.count("mapping.label_runs", len(_runs(real.labels)))
    _write(tr, "fileio.write_gaze_csv", fileio.write_gaze_csv, cfg.paths.output, trace,
           len(trace))


def evaluate(tr, cfg, repeats=None) -> None:
    if cfg.paths.errors_output:
        raise Unsupported("traced evaluate covers the summary output only")
    repeats = DEFAULT_REPEATS if repeats is None else repeats
    path = cfg.paths.real_data
    real = tr.call("fileio.read_velocity_csv", fileio.read_velocity_csv, path)
    _size(tr, "fileio.read_velocity_csv", path, len(real))
    summary = tr.call("evaluation.evaluate_dataset", evaluate_dataset, real.velocities,
                      real.labels, RandomSource(cfg.seed), repeats=repeats)
    starts = _runs(real.labels)
    segments = int(np.count_nonzero(real.labels[starts] != MovementLabel.NOISE))
    tr.count("evaluation.segments", segments)
    tr.count("evaluation.simulations", segments * repeats)
    tr.count("evaluation.pooled_errors", sum(len(v) for v in summary.pooled.values()))
    lines = ["type,stat,value"]
    for lab, st in summary.per_type.items():
        for stat in ("count", "mean", "median", "q1", "q3",
                     "whisker_low", "whisker_high", "min", "max"):
            lines.append(f"{LABEL_NAMES[lab]},{stat},{getattr(st, stat):.6g}")
    _write(tr, "fileio.write_text", fileio.atomic_write_text, cfg.paths.output,
           "\n".join(lines) + "\n", len(lines) - 1)


COMMANDS = {"generate": generate, "map": map_, "saliency": saliency_, "remap": remap,
            "evaluate": evaluate}
