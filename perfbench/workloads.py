"""Seeded inputs and invocation plans for the benchmark workloads.

Inputs are made here with numpy alone, never with gazeforge, so a change to
gazeforge's output bytes leaves the benchmark's inputs unchanged. The same
seed and scale give byte-identical files.

Every workload runs its CLI invocations from an operation directory that sits
beside ``inputs/``; configs therefore name inputs as ``../inputs/...`` and
outputs as bare file names.
"""
from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

NOISE_FRACTION = 0.05
STIM_W, STIM_H = 640, 480
SCENE_W, SCENE_H = 1024, 768
PX_PER_DEG = 30.0


@dataclass
class Invocation:
    """One CLI call: ``gazeforge <command> --config <config> <args>``."""

    command: str
    config: str  # relative to the operation directory
    args: list[str] = field(default_factory=list)
    outputs: list[str] = field(default_factory=list)  # files it writes


@dataclass
class Workload:
    name: str
    invocations: list[Invocation]
    sizes: dict = field(default_factory=dict)
    inputs: dict = field(default_factory=dict)  # relative path -> sha256


WORKLOADS = ("synth_scanpath", "scene_frames", "real_replay")


def _n(count: int, scale: float, lo: int = 1) -> int:
    return max(lo, int(round(count * scale)))


# --- images ---------------------------------------------------------------


def _blob_image(rng: np.random.Generator, w: int, h: int, blobs: np.ndarray) -> np.ndarray:
    """Sum of separable Gaussian blobs (x, y, sigma, amplitude) over a faint
    noise floor, quantized to 8 bits."""
    xs = np.arange(w, dtype=float)
    ys = np.arange(h, dtype=float)
    img = 0.08 * rng.random((h, w))
    for bx, by, sig, amp in blobs:
        gx = np.exp(-0.5 * ((xs - bx) / sig) ** 2)
        gy = np.exp(-0.5 * ((ys - by) / sig) ** 2)
        img += amp * np.outer(gy, gx)
    img /= img.max()
    return np.floor(img * 255.0 + 0.5).astype(np.uint8)


def _random_blobs(rng: np.random.Generator, w: int, h: int, n: int) -> np.ndarray:
    return np.column_stack(
        [
            rng.uniform(0.05 * w, 0.95 * w, n),
            rng.uniform(0.05 * h, 0.95 * h, n),
            rng.uniform(0.01 * w, 0.05 * w, n),
            rng.uniform(0.3, 1.0, n),
        ]
    )


def _p5(img: np.ndarray) -> bytes:
    h, w = img.shape
    return b"P5\n%d %d\n255\n" % (w, h) + img.tobytes()


def _p2(img: np.ndarray) -> bytes:
    """ASCII graymap, 16 values per line to keep lines short."""
    h, w = img.shape
    flat = img.reshape(-1).astype(str)
    pad = (-len(flat)) % 16
    rows = np.concatenate([flat, np.full(pad, "", dtype=flat.dtype)]).reshape(-1, 16)
    body = "\n".join(" ".join(r).rstrip() for r in rows)
    return b"P2\n%d %d\n255\n" % (w, h) + body.encode("ascii") + b"\n"


# --- recording-like traces -------------------------------------------------


def _segments(rng: np.random.Generator, pairs: int, pursuits: int) -> list[str]:
    """A fixation, then saccades and pursuits in seeded order, each followed
    by a fixation. The composition is fixed so that every seed asks the
    program for the same amount of work."""
    steps = np.array(["SACC"] * pairs + ["SP"] * pursuits)
    rng.shuffle(steps)
    seq = ["FIX"]
    for step in steps:
        seq += [str(step), "FIX"]
    return seq


_DURATION = {"FIX": (0.2, 0.4), "SACC": (0.03, 0.08), "SP": (0.5, 1.0)}


def _sample_times(rng: np.random.Generator, seq: list[str], n: int):
    """Exactly n sample times (s) at a jittered 250-300 Hz, and the sample
    index where each segment starts (plus the end). Segment lengths follow
    the drawn durations, rescaled to add up to n."""
    raw = np.array([rng.uniform(*_DURATION[lab]) for lab in seq])
    share = raw * (n - 3 * len(seq)) / raw.sum()  # at least 3 samples each
    counts = np.floor(share).astype(int) + 3
    counts[np.argsort(share - np.floor(share))[::-1][: n - counts.sum()]] += 1
    ts = np.cumsum(1.0 / rng.uniform(250.0, 300.0, n))
    bounds = np.concatenate(([0], np.cumsum(counts)))
    return ts, bounds


def _noise_mask(rng: np.random.Generator, n: int) -> np.ndarray:
    """Exactly round(NOISE_FRACTION * n) samples in bursts of 5-30."""
    k = int(round(NOISE_FRACTION * n))
    lengths = []
    while sum(lengths) < k:
        lengths.append(int(rng.integers(5, 31)))
    lengths[-1] -= sum(lengths) - k
    lengths = [x for x in lengths if x > 0]
    # Spread the n - k clean samples over the gaps around the bursts.
    cuts = np.sort(rng.integers(0, n - k + 1, len(lengths)))
    mask = np.zeros(n, dtype=bool)
    pos_shift = 0
    for cut, length in zip(cuts, lengths):
        start = int(cut) + pos_shift
        mask[start : start + length] = True
        pos_shift += length
    return mask


def _gaze_recording(rng: np.random.Generator, n: int, pairs: int, pursuits: int) -> bytes:
    seq = _segments(rng, pairs, pursuits)
    ts, bounds = _sample_times(rng, seq, n)
    targets = np.column_stack(
        [rng.uniform(40, STIM_W - 40, 30), rng.uniform(40, STIM_H - 40, 30)]
    )
    xs = np.empty(n)
    ys = np.empty(n)
    labels = np.empty(n, dtype=object)
    cur = targets[0].copy()
    for lab, a, b in zip(seq, bounds[:-1], bounds[1:]):
        m = b - a
        labels[a:b] = lab
        if lab == "FIX":
            xs[a:b] = cur[0] + rng.normal(0.0, 3.0, m)
            ys[a:b] = cur[1] + rng.normal(0.0, 3.0, m)
        elif lab == "SACC":
            dest = targets[rng.integers(len(targets))]
            prog = 0.5 - 0.5 * np.cos(np.pi * np.arange(1, m + 1) / m)
            xs[a:b] = cur[0] + prog * (dest[0] - cur[0])
            ys[a:b] = cur[1] + prog * (dest[1] - cur[1])
            cur = dest.copy()
        else:
            speed = rng.uniform(10.0, 30.0) * PX_PER_DEG
            ang = rng.uniform(0.0, 2.0 * np.pi)
            t = ts[a:b] - ts[a]
            xs[a:b] = cur[0] + speed * t * np.cos(ang)
            ys[a:b] = cur[1] + speed * t * np.sin(ang)
            cur = np.array([xs[b - 1], ys[b - 1]])
        cur = np.clip(cur, 0.0, [STIM_W - 1, STIM_H - 1])
    noise = _noise_mask(rng, n)
    xs[noise] = rng.uniform(0.0, STIM_W - 1, int(noise.sum()))
    ys[noise] = rng.uniform(0.0, STIM_H - 1, int(noise.sum()))
    labels[noise] = "NOISE"
    np.clip(xs, 0.0, STIM_W - 1, out=xs)
    np.clip(ys, 0.0, STIM_H - 1, out=ys)
    lines = ["t_ms,x_px,y_px,label"]
    lines += [
        f"{t * 1000.0:.3f},{x:.3f},{y:.3f},{lab}"
        for t, x, y, lab in zip(ts, xs, ys, labels)
    ]
    return ("\n".join(lines) + "\n").encode("ascii")


def _velocity_recording(rng: np.random.Generator, n: int, pairs: int, pursuits: int) -> bytes:
    seq = _segments(rng, pairs, pursuits)
    ts, bounds = _sample_times(rng, seq, n)
    vs = np.empty(n)
    labels = np.empty(n, dtype=object)
    for lab, a, b in zip(seq, bounds[:-1], bounds[1:]):
        m = b - a
        labels[a:b] = lab
        if lab == "FIX":
            vs[a:b] = np.abs(rng.normal(0.5, 0.3, m))
        elif lab == "SACC":
            peak_at = rng.uniform(0.2, 0.6) * (m - 1)
            width = max(m / 4.0, 1.0)
            shape = np.exp(-0.5 * ((np.arange(m) - peak_at) / width) ** 2)
            vs[a:b] = rng.uniform(300.0, 500.0) * shape / shape.max()
        else:
            vs[a:b] = np.abs(rng.normal(rng.uniform(10.0, 30.0), 2.0, m))
    noise = _noise_mask(rng, n)
    vs[noise] = rng.uniform(0.0, 300.0, int(noise.sum()))
    labels[noise] = "NOISE"
    lines = ["t_ms,velocity_deg_s,label"]
    lines += [
        f"{t * 1000.0:.3f},{v:.6g},{lab}" for t, v, lab in zip(ts, vs, labels)
    ]
    return ("\n".join(lines) + "\n").encode("ascii")


# --- configs ---------------------------------------------------------------


def _signal_config(seed: int, mode: str, fix: int, sacc: int, sp: int) -> dict:
    return {
        "mode": mode,
        "seed": seed,
        "base_rate_hz": 1000.0,
        "sequence": {
            "counts": {"fixation": fix, "saccade": sacc, "smooth_pursuit": sp},
            "constraints": [
                {"kind": "after_each", "first": "saccade", "second": "fixation"}
            ],
        },
        "sampling": {"rate": {"kind": "uniform", "min": 250.0, "max": 300.0}},
        "noise": {"fraction": NOISE_FRACTION, "burst_length": 1},
        "mapping": {
            "pixels_per_degree": PX_PER_DEG,
            "max_path_deviation": 15.0,
            "fixation_dispersion": 10.0,
        },
    }


def _config_bytes(doc: dict) -> bytes:
    return (json.dumps(doc, indent=2, sort_keys=True) + "\n").encode("ascii")


# --- workloads -------------------------------------------------------------


def make_inputs(name: str, seed: int, inputs_dir: Path, scale: float = 1.0) -> Workload:
    """Write the workload's inputs into ``inputs_dir`` and return its plan.

    ``scale`` shrinks every size for the benchmark's self-test; the measured
    runs use 1.0.
    """
    if name not in WORKLOADS:
        raise ValueError(f"unknown workload {name!r} (choose from {', '.join(WORKLOADS)})")
    rng = np.random.default_rng([seed, WORKLOADS.index(name)])
    inputs_dir.mkdir(parents=True, exist_ok=True)
    files: dict[str, bytes] = {}

    if name == "synth_scanpath":
        fix, sacc, sp = _n(450, scale, 2), _n(400, scale), _n(50, scale)
        cfg = _signal_config(seed, "map_static", fix, sacc, sp)
        cfg["paths"] = {"stimulus": "../inputs/stimulus.pgm"}
        files["synth.json"] = _config_bytes(cfg)
        files["stimulus.pgm"] = _p5(
            _blob_image(rng, STIM_W, STIM_H, _random_blobs(rng, STIM_W, STIM_H, 14))
        )
        invocations = [
            Invocation("generate", "../inputs/synth.json", ["--output", "velocity.csv"],
                       ["velocity.csv"]),
            Invocation("map", "../inputs/synth.json", ["--output", "gaze.csv"],
                       ["gaze.csv"]),
        ]
        sizes = {"segments": fix + sacc + sp, "base_rate_hz": 1000,
                 "rate_hz": [250, 300], "stimulus": [STIM_W, STIM_H, "P5"]}

    elif name == "scene_frames":
        n_frames = _n(40, scale, 2)
        sw, sh = _n(SCENE_W, scale ** 0.5, 64), _n(SCENE_H, scale ** 0.5, 48)
        files["scene.pgm"] = _p2(_blob_image(rng, sw, sh, _random_blobs(rng, sw, sh, 16)))
        sal = {"mode": "saliency", "seed": seed,
               "paths": {"stimulus": "../inputs/scene.pgm", "output": "saliency.pgm",
                         "targets_output": "targets.csv"}}
        files["saliency.json"] = _config_bytes(sal)
        blobs = _random_blobs(rng, STIM_W, STIM_H, 10)
        drift = rng.normal(0.0, 4.0, (len(blobs), 2))
        for i in range(n_frames):
            moved = blobs.copy()
            moved[:, :2] += i * drift
            moved[:, 0] = np.clip(moved[:, 0], 0, STIM_W - 1)
            moved[:, 1] = np.clip(moved[:, 1], 0, STIM_H - 1)
            files[f"frames/frame_{i:03d}.pgm"] = _p5(_blob_image(rng, STIM_W, STIM_H, moved))
        cfg = _signal_config(seed, "map_dynamic", _n(20, scale, 2), _n(18, scale), _n(2, scale))
        cfg["mapping"]["frame_rate"] = 5.0
        cfg["paths"] = {"frames_dir": "../inputs/frames", "output": "gaze.csv"}
        files["frames.json"] = _config_bytes(cfg)
        invocations = [
            Invocation("saliency", "../inputs/saliency.json", [],
                       ["saliency.pgm", "targets.csv"]),
            Invocation("map", "../inputs/frames.json", [], ["gaze.csv"]),
        ]
        sizes = {"scene": [sw, sh, "P2"], "frames": n_frames,
                 "frame": [STIM_W, STIM_H, "P5"], "segments": sum(
                     cfg["sequence"]["counts"].values())}

    else:
        gaze_rows, vel_rows = _n(54_000, scale, 200), _n(18_000, scale, 200)
        files["recording.csv"] = _gaze_recording(
            rng, gaze_rows, _n(400, scale, 2), _n(50, scale))
        files["labeled_velocity.csv"] = _velocity_recording(
            rng, vel_rows, _n(135, scale, 2), _n(17, scale))
        remap = {"mode": "remap", "seed": seed,
                 "mapping": {"remap_mode": "same_stimulus",
                             "pixels_per_degree": PX_PER_DEG,
                             "max_path_deviation": 15.0, "fixation_dispersion": 10.0},
                 "paths": {"real_data": "../inputs/recording.csv",
                           "output": "remapped.csv"}}
        evaluate = {"mode": "evaluate", "seed": seed,
                    "paths": {"real_data": "../inputs/labeled_velocity.csv",
                              "output": "summary.csv"}}
        files["remap.json"] = _config_bytes(remap)
        files["evaluate.json"] = _config_bytes(evaluate)
        invocations = [
            Invocation("remap", "../inputs/remap.json", [], ["remapped.csv"]),
            Invocation("evaluate", "../inputs/evaluate.json", ["--repeats", "10"],
                       ["summary.csv"]),
        ]
        sizes = {"gaze_rows": gaze_rows, "velocity_rows": vel_rows, "repeats": 10}

    digests = {}
    for rel, data in sorted(files.items()):
        path = inputs_dir / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_bytes(data)
        digests[rel] = hashlib.sha256(data).hexdigest()
    sizes["scale"] = scale
    return Workload(name, invocations, sizes, digests)
