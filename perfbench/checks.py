"""Output checks for one measured operation, using gazeforge's own readers.

Each check returns a list of problems; an empty list means the invocation's
outputs are correct. Run-to-run byte identity is checked by the caller.
"""
from __future__ import annotations

import re
from pathlib import Path

import numpy as np

from gazeforge.core import MovementLabel
from gazeforge.errors import GazeforgeError
from gazeforge.fileio import read_gaze_csv, read_pgm, read_velocity_csv

from workloads import NOISE_FRACTION, STIM_H, STIM_W

_SUMMARY = {
    "generate": re.compile(r"^generate: (\d+) samples"),
    "map": re.compile(r"^map: (\d+) samples over (\d+)x(\d+) px"),
    "remap": re.compile(r"^remap: (\d+) samples"),
    "saliency": re.compile(r"^saliency: (\d+)x(\d+) map -> \S+, (\d+) targets"),
    "evaluate": re.compile(r"^evaluate: (\d+) movement types"),
}


def _noise(labels: np.ndarray, n: int) -> list[str]:
    got = int(np.count_nonzero(labels == MovementLabel.NOISE))
    want = int(round(NOISE_FRACTION * n))
    return [] if got == want else [f"NOISE count {got}, expected round(0.05*{n})={want}"]


def _increasing(ts: np.ndarray) -> list[str]:
    return [] if np.all(np.diff(ts) > 0) else ["timestamps not strictly increasing"]


def _gaze(path: Path, rows: int, width: int, height: int) -> list[str]:
    trace = read_gaze_csv(str(path))
    problems = [] if len(trace) == rows else [f"{path.name}: {len(trace)} rows, stdout says {rows}"]
    inside = ((trace.x >= 0) & (trace.x <= width - 1)
              & (trace.y >= 0) & (trace.y <= height - 1))
    if not inside.all():
        problems.append(f"{path.name}: {int((~inside).sum())} samples outside {width}x{height}")
    return problems + _increasing(trace.timestamps) + _noise(trace.labels, len(trace))


def check(command: str, stdout: str, op_dir: Path, outputs: list[str]) -> list[str]:
    """Problems with one invocation's stdout summary and output files."""
    m = _SUMMARY[command].match(stdout.strip().splitlines()[-1] if stdout.strip() else "")
    if not m:
        return [f"{command}: unexpected stdout {stdout.strip()!r}"]
    nums = [int(g) for g in m.groups()]
    try:
        if command == "generate":
            sig = read_velocity_csv(str(op_dir / outputs[0]))
            problems = [] if len(sig) == nums[0] else [f"{len(sig)} rows, stdout says {nums[0]}"]
            return problems + _increasing(sig.timestamps) + _noise(sig.labels, len(sig))
        if command == "map":
            if (nums[1], nums[2]) != (STIM_W, STIM_H):
                return [f"map over {nums[1]}x{nums[2]}, expected {STIM_W}x{STIM_H}"]
            return _gaze(op_dir / outputs[0], nums[0], STIM_W, STIM_H)
        if command == "remap":
            return _gaze(op_dir / outputs[0], nums[0], STIM_W, STIM_H)
        if command == "saliency":
            width, height, n_targets = nums
            grid = read_pgm(str(op_dir / outputs[0]))
            problems = [] if grid.shape == (height, width) else [
                f"saliency map shape {grid.shape}, stdout says {width}x{height}"]
            rows = (op_dir / outputs[1]).read_text().splitlines()
            if rows[0] != "x_px,y_px,weight" or len(rows) - 1 != n_targets:
                problems.append(f"targets file has {len(rows) - 1} rows, stdout says {n_targets}")
            pts = np.array([[float(v) for v in r.split(",")] for r in rows[1:]]).reshape(-1, 3)
            if not ((pts[:, 0] >= 0) & (pts[:, 0] <= width - 1)
                    & (pts[:, 1] >= 0) & (pts[:, 1] <= height - 1)).all():
                problems.append("targets outside the image")
            return problems
        # evaluate
        rows = (op_dir / outputs[0]).read_text().splitlines()
        types = {r.split(",")[0] for r in rows[1:]}
        problems = [] if rows[0] == "type,stat,value" else ["bad summary header"]
        if types != {"FIX", "SACC", "SP"} or len(types) != nums[0]:
            problems.append(f"summary lists {sorted(types)}, stdout says {nums[0]} types")
        if len(rows) - 1 != 9 * len(types):
            problems.append(f"summary has {len(rows) - 1} rows, expected {9 * len(types)}")
        return problems
    except (GazeforgeError, OSError, ValueError, IndexError) as e:
        return [f"{command}: cannot re-read output: {e}"]
