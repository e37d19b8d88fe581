"""Golden output digests: the byte-level behaviour contract of the CLI.

Each case runs ``gazeforge.cli.main`` in-process on a tiny config and
asserts the sha256 of every file it writes. The inputs (stimulus, frames,
real gaze and velocity recordings) are built here from fixed numpy seeds
and fixed-format text, so they do not depend on gazeforge itself.

A change that alters any output byte on purpose must update the digests
below in the same change and say what changed and why in CHANGES.md.
``python tests/test_golden.py`` (with gazeforge importable, e.g.
``PYTHONPATH=src``) prints the digest tables of the code as it is, ready to
paste over ``GOLDEN`` and ``STREAMS``, and names the cases that differ from
them on stderr.
"""
from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest

from gazeforge.cli import EXIT_OK, main, run
from gazeforge.config import load_config
from gazeforge.core import RandomSource
from gazeforge.fileio import pgm_bytes
from gazeforge.params import DEFAULT_REPEATS

# numpy version the digests were recorded with. A mismatch is reported next
# to a failing digest, since another numpy may legitimately change bytes.
# SciPy is not used at run time, so its version does not matter.
RECORDED_WITH = {"numpy": "2.4.6"}

GOLDEN = {
    "generate_normal_burst": {
        "out.csv": "88e30c237d1922055b640463956dfac0343634248f4a6fd87b463ef27b31395e",
    },
    "generate_decreasing_add": {
        "out.csv": "384ad2a62d59999ebf536f11879f8746f5bd61871b39953bd74662f4057dd706",
    },
    "map_static": {
        "out.csv": "1b9f73deff68e2e9aadf1b2391396a5b2cc3f74f35902add4650f7b350ab8368",
    },
    "map_static_velocity_input": {
        "out.csv": "27e20c41938946a9bbc3852ccaa9f8c603e7ca1b591b2bc40f4bd16c2b9d5439",
    },
    "map_dynamic": {
        "out.csv": "bfbd892f09e4cae16d191b69197ac0cc3db4b25817372141589b4c39533450f3",
    },
    "map_dynamic_wide": {
        "out.csv": "fd3f0b12d325af2ddfc969bb5f34f7b425ea5d42b2e5b488c8cd83df49a8252d",
    },
    "remap_same_stimulus": {
        "out.csv": "25e169a31cddc05018bd7a6150a27bab3646c5d044b70d1e094849e7cb14f1b7",
    },
    "remap_new_stimulus": {
        "out.csv": "f9020a0681ec474d0695f03b27ed48bc7ef072216a4b0f8a26447abc5a697a62",
    },
    "saliency_targets": {
        "out.pgm": "aae1f7ba89ecd3cf815ebcd9fec8b30e8ebdb0cb82dbbf6d44aef8c29bc2f24f",
        "targets.csv": "409e622427b1f5ba9189527aeaaf8baa8389ca78d84d38f8193929d2bc0304ab",
    },
    "saliency_targets_wide": {
        "out.pgm": "1c7eca356111c038c9659c8e278b09802f04abceb9d7f731e4dda5bec2a306d9",
        "targets.csv": "9d4ba1a69b28354d8af03acfbcbf6bc7e0c1ed0845751c56bf38a12867347e48",
    },
    "evaluate_errors": {
        "out.csv": "80499eab9bbe60bdec09baaab8fc743e2532f34ce62a2f74e4cde8c543876e27",
        "errors.csv": "a27a17cd8c5e76a6329bf4f4b8f9a82986888c556c6b32c74d0071330f94fcd1",
    },
}

# sha256 of the first STREAM_DRAWS draws of each RandomSource method, and of
# the seeds of derive(0..63), at three seeds, recorded with RECORDED_WITH.
# numpy keeps the streams of its bit generators stable across versions, but
# not those of Generator methods (NEP 19): a numpy that moves one fails here
# with the method's name, beside the GOLDEN digests it moves.
STREAM_DRAWS = 4096
STREAMS = {
    0: {
        "uniform": "aa9bb9894ce5a1a9e2f183a9a8d24fc56ab08564622e2e3eea1a3c2be2374b79",
        "uniforms": "aa9bb9894ce5a1a9e2f183a9a8d24fc56ab08564622e2e3eea1a3c2be2374b79",
        "normal": "0aa947cff2e6ca729d80e01c3fdaa3944c384c31d8730941131a86999933ee2c",
        "normals": "0aa947cff2e6ca729d80e01c3fdaa3944c384c31d8730941131a86999933ee2c",
        "shuffle": "ace1a62d39782d75f8bd898a72b16429aa74ddda07d9e7406b8d0666e6fa96b6",
        "derive": "f26f2a1be05c07b398ec2e505f0aa5310d8dc76dfc9e55843324f96ed147d0b8",
    },
    7: {
        "uniform": "acef2bbac32a079e9230e5635c7721054b85c6e6d1ec52e330704c789e5aa555",
        "uniforms": "acef2bbac32a079e9230e5635c7721054b85c6e6d1ec52e330704c789e5aa555",
        "normal": "50ba75a1b3193fe6f9d5ba29f4ff848b0085ac9269361a3de7114b26d010bc7c",
        "normals": "50ba75a1b3193fe6f9d5ba29f4ff848b0085ac9269361a3de7114b26d010bc7c",
        "shuffle": "d796848d27b8e0ac916094168416103d61c95d984883d4a45cd5bb9d410bb38a",
        "derive": "f8680fcbc5a2ab85a8bef61de7f730d7fa58ade06740b06a5a9f445a478b6959",
    },
    2**64 - 1: {
        "uniform": "bca722f5788c56df4ddac7cce085f612a971c35036cec669fb3d8a8396c2c4c1",
        "uniforms": "bca722f5788c56df4ddac7cce085f612a971c35036cec669fb3d8a8396c2c4c1",
        "normal": "a028392297544a7cc45378ecf1901998f165fb0055c0e1db13dc5d52654c659a",
        "normals": "a028392297544a7cc45378ecf1901998f165fb0055c0e1db13dc5d52654c659a",
        "shuffle": "ace9b61cc791e71c064d816dbc906c1ca69019f830adec1892b164441d3dfb6b",
        "derive": "d05f629374192e1ecb621e3c443b6a2515d81a5634ee09a830b7405f557cab03",
    },
}

SEQUENCE = {
    "counts": {"fixation": 6, "saccade": 5, "smooth_pursuit": 2},
    "constraints": [{"kind": "after_each", "first": "saccade", "second": "fixation"}],
}


def _stimulus(seed: int, size=(48, 64)) -> bytes:
    rng = np.random.default_rng(seed)
    img = rng.random(size) * 0.2
    img[10:16, 8:14] = 1.0
    img[30:36, 45:51] = 0.9
    img[20:25, 30:34] = 0.7
    return pgm_bytes(img)


def _labels_and_speeds(seed: int) -> tuple[list[str], list[float]]:
    """A labeled recording: leading and trailing NOISE, fixations, saccades
    (peaks at the first, a middle and the last sample) and pursuits."""
    rng = np.random.default_rng(seed)
    runs = [
        ("NOISE", 3), ("FIX", 40), ("SACC", 12), ("FIX", 35), ("NOISE", 2),
        ("FIX", 20), ("SACC", 9), ("SP", 45), ("SACC", 7), ("FIX", 30),
        ("SACC", 15), ("FIX", 25), ("SP", 30), ("NOISE", 4),
    ]
    labels: list[str] = []
    speeds: list[float] = []
    sacc_peak = {0: 0, 1: 3, 2: 6, 3: 14}  # by saccade ordinal
    n_sacc = 0
    for name, n in runs:
        u = rng.random(n)
        if name == "FIX":
            v = 2.0 + 3.0 * u
        elif name == "SP":
            v = 15.0 + 5.0 * u
        elif name == "NOISE":
            v = 400.0 * u
        else:
            peak = sacc_peak[n_sacc]
            n_sacc += 1
            v = np.array(
                [300.0 * math.exp(-0.5 * ((i - peak) / 2.5) ** 2) for i in range(n)]
            ) + u
        labels.extend([name] * n)
        speeds.extend(float(x) for x in v)
    return labels, speeds


def _real_gaze_csv(seed: int) -> str:
    """Gaze rows at 4 ms whose positions follow the labeled speeds."""
    labels, speeds = _labels_and_speeds(seed)
    rng = np.random.default_rng(seed + 1)
    x, y = 20.0, 30.0
    lines = ["t_ms,x_px,y_px,label"]
    for i, (lab, v) in enumerate(zip(labels, speeds)):
        ang = 2.0 * math.pi * float(rng.random())
        step = min(v * 0.004 * 0.5, 4.0)
        x = min(max(x + step * math.cos(ang), 0.0), 63.0)
        y = min(max(y + step * math.sin(ang), 0.0), 47.0)
        lines.append(f"{4.0 * (i + 1):.3f},{x:.3f},{y:.3f},{lab}")
    return "\n".join(lines) + "\n"


def _real_velocity_csv(seed: int) -> str:
    labels, speeds = _labels_and_speeds(seed)
    lines = ["t_ms,velocity_deg_s,label"]
    for i, (lab, v) in enumerate(zip(labels, speeds)):
        lines.append(f"{(i + 1):.3f},{v:.6g},{lab}")
    return "\n".join(lines) + "\n"


def _case(name: str, tmp_path):
    """(argv, config doc) of one golden case; inputs are written to tmp_path."""
    stim = tmp_path / "stim.pgm"
    stim.write_bytes(_stimulus(3))
    base = {"seed": 11, "sequence": SEQUENCE}
    if name == "generate_normal_burst":
        doc = dict(
            base, mode="velocity",
            saccade={
                "peak_velocity": {"kind": "normal", "min": 300, "max": 600, "std": 80},
                "skewness": {"min": 0.6, "max": 1.2},
            },
            pursuit={"trend": "linear_increasing"},
            sampling={"rate": {"min": 250, "max": 300}},
            noise={
                "fraction": 0.08, "burst_length": 3, "location_dist": "normal",
                "magnitude": {"min": 100, "max": 300},
            },
        )
        return ["generate"], doc
    if name == "generate_decreasing_add":
        doc = dict(
            base, mode="velocity", seed=5,
            pursuit={
                "trend": "linear_decreasing",
                "velocity": {"min": 10, "max": 30},
                "trend_end_velocity": {"min": 5, "max": 25},
            },
            fixation={"duration": {"kind": "normal", "min": 0.1, "max": 0.3, "std": 0.05}},
            sampling={"rate": {"kind": "normal", "min": 120, "max": 200, "std": 30}},
            noise={"fraction": 0.05, "mode": "add", "magnitude": {"min": 20, "max": 50}},
        )
        return ["generate"], doc
    mapping = {"max_path_deviation": 3.0, "fixation_dispersion": 4.0}
    if name == "map_static":
        doc = dict(
            base, mode="map_static", mapping=mapping,
            sampling={"rate": {"min": 250, "max": 300}},
            noise={"fraction": 0.05, "burst_length": 2},
            paths={"stimulus": str(stim)},
        )
        return ["map"], doc
    if name == "map_static_velocity_input":
        vel = tmp_path / "vel.csv"
        vel.write_text(_real_velocity_csv(21))
        doc = dict(
            base, mode="map_static", mapping=mapping,
            paths={"stimulus": str(stim), "velocity_input": str(vel)},
        )
        return ["map"], doc
    if name in ("map_dynamic", "map_dynamic_wide"):
        # The wide frames are downscaled to the 64 px working width and
        # upscaled back in blocks of rows, the last one partial.
        size = (120, 160) if name == "map_dynamic_wide" else (48, 64)
        frames = tmp_path / "frames"
        frames.mkdir()
        for i in range(3):
            (frames / f"frame{i:03d}.pgm").write_bytes(_stimulus(10 + i, size))
        doc = dict(
            base, mode="map_dynamic",
            mapping=dict(mapping, frame_rate=2.0),
            sampling={"rate": {"min": 100, "max": 140}},
            paths={"frames_dir": str(frames)},
        )
        return ["map"], doc
    if name in ("remap_same_stimulus", "remap_new_stimulus"):
        real = tmp_path / "real.csv"
        real.write_text(_real_gaze_csv(31))
        mode = name[len("remap_"):]
        paths = {"real_data": str(real)}
        if mode == "new_stimulus":
            paths["stimulus"] = str(stim)
        doc = dict(
            base, mode="remap", mapping=dict(mapping, remap_mode=mode), paths=paths
        )
        return ["remap"], doc
    if name == "saliency_targets_wide":
        stim.write_bytes(_stimulus(4, (150, 200)))
        doc = dict(
            base, mode="saliency",
            paths={"stimulus": str(stim), "targets_output": str(tmp_path / "targets.csv")},
        )
        return ["saliency"], doc
    if name == "saliency_targets":
        doc = dict(
            base, mode="saliency",
            mapping={"min_target_distance": 4.0, "target_threshold": 0.05},
            paths={"stimulus": str(stim), "targets_output": str(tmp_path / "targets.csv")},
        )
        return ["saliency"], doc
    if name == "evaluate_errors":
        real = tmp_path / "real.csv"
        real.write_text(_real_velocity_csv(41))
        doc = dict(
            base, mode="evaluate",
            paths={"real_data": str(real), "errors_output": str(tmp_path / "errors.csv")},
        )
        return ["evaluate", "--repeats", "3"], doc
    raise KeyError(name)


def _output(name: str, tmp_path) -> Path:
    return tmp_path / ("out.pgm" if name.startswith("saliency_targets") else "out.csv")


def _digests(name: str, tmp_path) -> dict[str, str]:
    argv, doc = _case(name, tmp_path)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(doc))
    code = main(argv + ["--config", str(cfg), "--output", str(_output(name, tmp_path))])
    assert code == EXIT_OK
    return {
        fname: hashlib.sha256((tmp_path / fname).read_bytes()).hexdigest()
        for fname in GOLDEN[name]
    }


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_golden_digest(name, tmp_path, capsys):
    got = _digests(name, tmp_path)
    running = {"numpy": np.__version__}
    assert got == GOLDEN[name], (
        f"output bytes of {name!r} changed; digests recorded with "
        f"{RECORDED_WITH}, running {running}"
    )


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_run_returns_the_golden_bytes_and_writes_nothing(name, tmp_path, capsys):
    # cli.run is main without the writes and the print: the same bytes per
    # path, the output first, the line main prints, and no file touched.
    argv, doc = _case(name, tmp_path)
    out = _output(name, tmp_path)
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(doc))
    cfg = load_config(cfg_path.read_bytes(), argv[0], output=str(out))
    repeats = int(argv[argv.index("--repeats") + 1]) if "--repeats" in argv else DEFAULT_REPEATS
    before = sorted(tmp_path.rglob("*"))
    files, line = run(argv[0], cfg, RandomSource(cfg.seed), repeats)
    assert sorted(tmp_path.rglob("*")) == before
    assert next(iter(files)) == str(out)
    got = {
        str(Path(path).relative_to(tmp_path)): hashlib.sha256(data).hexdigest()
        for path, data in files.items()
    }
    assert got == GOLDEN[name]
    capsys.readouterr()
    assert main(argv + ["--config", str(cfg_path), "--output", str(out)]) == EXIT_OK
    assert capsys.readouterr().out == line + "\n"


def _stream_digests(seed: int) -> dict[str, str]:
    """sha256 of each method's draws from a fresh RandomSource(seed)."""
    n = STREAM_DRAWS

    def shuffled(rng):
        items = list(range(n))
        rng.shuffle(items)
        return items

    draws = {
        "uniform": lambda rng: [rng.uniform() for _ in range(n)],
        "uniforms": lambda rng: rng.uniforms(n),
        "normal": lambda rng: [rng.normal() for _ in range(n)],
        "normals": lambda rng: rng.normals(n),
        "shuffle": shuffled,
        "derive": lambda rng: [rng.derive(k).seed for k in range(64)],
    }
    dtypes = {"shuffle": np.int64, "derive": np.uint64}
    return {
        method: hashlib.sha256(
            np.asarray(draw(RandomSource(seed)), dtype=dtypes.get(method, float)).tobytes()
        ).hexdigest()
        for method, draw in draws.items()
    }


@pytest.mark.parametrize("seed", sorted(STREAMS))
def test_stream_fingerprints(seed):
    got = _stream_digests(seed)
    moved = [method for method in STREAMS[seed] if got[method] != STREAMS[seed][method]]
    assert not moved, (
        f"RandomSource stream of {', '.join(moved)} moved at seed {seed}; "
        f"recorded with {RECORDED_WITH}, running numpy {np.__version__}"
    )


def _print_table() -> int:
    """Print GOLDEN and STREAMS as the code computes them now; return how
    many cases differ from the recorded tables."""
    changed = []
    print("GOLDEN = {")
    for name in GOLDEN:
        with tempfile.TemporaryDirectory() as tmp:
            with contextlib.redirect_stdout(io.StringIO()):  # the CLI's report
                got = _digests(name, Path(tmp))
        print(f'    "{name}": {{')
        for fname, digest in got.items():
            print(f'        "{fname}": "{digest}",')
        print("    },")
        if got != GOLDEN[name]:
            changed.append(name)
    print("}")
    print("STREAMS = {")
    for seed in STREAMS:
        got = _stream_digests(seed)
        print(f"    {seed}: {{")
        for method, digest in got.items():
            print(f'        "{method}": "{digest}",')
        print("    },")
        if got != STREAMS[seed]:
            changed.append(f"STREAMS[{seed}]")
    print("}")
    print(f"# numpy {np.__version__}; recorded with {RECORDED_WITH}", file=sys.stderr)
    for name in changed:
        print(f"# differs from the record: {name}", file=sys.stderr)
    if not changed:
        print("# every case matches the record", file=sys.stderr)
    return len(changed)


if __name__ == "__main__":
    sys.exit(1 if _print_table() else 0)
