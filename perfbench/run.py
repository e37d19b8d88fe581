#!/usr/bin/env python3
"""End-to-end benchmark of the gazeforge command-line tool.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from anywhere; it uses the ``src/`` tree beside this directory. It
writes the workload's inputs from the seed (workloads.py), then runs the
real CLI as fresh subprocesses, one at a time, and checks every output.

``--trace 0`` times the set-up of a fresh interpreter a few times, then
repeats the workload operation (all of its CLI invocations in sequence)
until ``--seconds`` of operations have run, and reports medians of the
end-to-end metrics. ``--trace 1`` runs the operation once through the CLI
and once through traced.py, which rebuilds it from public library calls
with a span around each, and reports per-layer self times and counts.

The last stdout line is one JSON object: correct, attempted, failed and
metrics. A fuller record (environment, input digests, every sample, spans)
goes to perfbench/.work/results/.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = HERE / ".work"

SETUP_REPEATS = 3
TIME_LIMIT_S = 170.0  # the whole run, set-up and checks included

END_TO_END = [
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("cpu_s", "s"),
    ("peak_rss_mb", "MB"),
    ("ok_ratio", "ratio"),
]

ALL3 = "all three workloads"
SYN, SCN, REAL = "synth_scanpath", "scene_frames", "real_replay"

# (metric, unit, the end-to-end metric and workloads it should move)
PER_LAYER = [
    ("cli.import_s", "s", f"setup_s on {ALL3}"),
    ("cli.generate_s", "s", f"wall_s on {SYN}"),
    ("cli.map_s", "s", f"wall_s on {SYN} and {SCN}"),
    ("cli.saliency_s", "s", f"wall_s on {SCN}"),
    ("cli.remap_s", "s", f"wall_s on {REAL}"),
    ("cli.evaluate_s", "s", f"wall_s on {REAL}"),
    ("config.read_config_s", "s", f"setup_s on {ALL3}"),
    ("sequence.build_sequence_s", "s", f"wall_s on {SYN}; nothing on {SCN}, {REAL}"),
    ("sequence.segments", "count", "work done by build_sequence"),
    ("generators.assemble_s", "s", f"wall_s on {SYN}; nothing on {SCN}, {REAL}"),
    ("generators.base_samples", "count", "work done by assemble"),
    ("resampler.resample_s", "s", f"wall_s on {SYN}; nothing on {SCN}, {REAL}"),
    ("resampler.out_samples", "count", "work done by resample"),
    ("resampler.out_per_base", "ratio", "output samples per base sample"),
    ("noise.inject_noise_s", "s", f"wall_s on {SYN}; nothing on {SCN}, {REAL}"),
    ("noise.samples", "count", "samples relabeled NOISE"),
    ("saliency.spectral_residual_s", "s", f"wall_s on {SCN}; slightly on {SYN}"),
    ("saliency.local_maxima_s", "s", f"wall_s on {SCN}; slightly on {SYN}"),
    ("saliency.jitter_targets_s", "s", f"wall_s on {SCN}; slightly on {SYN}"),
    ("saliency.pixels", "count", "pixels of saliency maps computed"),
    ("saliency.targets_before_jitter", "count", "local maxima kept"),
    ("saliency.targets_after_jitter", "count", "targets handed to mapping"),
    ("mapping.map_to_gaze_s", "s", f"wall_s on {SYN} and {SCN}"),
    ("mapping.remap_real_s", "s", f"wall_s on {REAL} (includes its inner map_to_gaze)"),
    ("mapping.gaze_samples", "count", "gaze samples produced"),
    ("mapping.label_runs", "count", "label runs in the mapped signals"),
    ("evaluation.evaluate_dataset_s", "s", f"wall_s and cpu_s on {REAL} only"),
    ("evaluation.segments", "count", "labeled segments evaluated"),
    ("evaluation.simulations", "count", "segments x repeats"),
    ("evaluation.pooled_errors", "count", "squared errors pooled"),
]
_FILEIO = [
    ("read_pgm_p2", f"wall_s on {SCN}"),
    ("read_pgm_p5", f"wall_s on {SCN}; slightly on {SYN}"),
    ("write_velocity_csv", f"wall_s on {SYN}"),
    ("write_gaze_csv", f"wall_s on {SYN} and {REAL}; slightly on {SCN}"),
    ("write_pgm", f"wall_s on {SCN}"),
    ("write_text", f"wall_s on {SCN} and {REAL}, barely"),
    ("read_gaze_csv", f"wall_s on {REAL} only"),
    ("read_velocity_csv", f"wall_s on {REAL} only"),
]
for _name, _moves in _FILEIO:
    PER_LAYER += [
        (f"fileio.{_name}_s", "s", _moves),
        (f"fileio.{_name}_bytes", "bytes", f"bytes moved by {_name}"),
        (f"fileio.{_name}_rows", "count", f"rows moved by {_name}"),
    ]
PER_LAYER.append(("trace.overhead_ratio", "ratio", "traced over untraced wall time, minus 1"))


# --- child processes --------------------------------------------------------


@dataclass
class Child:
    returncode: int
    wall_s: float
    cpu_s: float
    peak_rss_mb: float
    stdout: str
    stderr: str


class Children:
    """Runs one child at a time and reaps it with wait4 for its own rusage."""

    def __init__(self, deadline: float):
        self.deadline = deadline
        self.env = {k: v for k, v in os.environ.items() if k != "GAZEFORGE_SEED"}
        self.env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p)

    def run(self, argv: list[str], cwd: Path) -> Child:
        out_path, err_path = cwd / ".child.out", cwd / ".child.err"
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(argv, cwd=cwd, env=self.env, stdout=out, stderr=err)
            timer = threading.Timer(max(self.deadline - start, 1.0), proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                timer.cancel()
            wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        child = Child(proc.returncode, wall, usage.ru_utime + usage.ru_stime,
                      usage.ru_maxrss / 1024.0, out_path.read_text(errors="replace"),
                      err_path.read_text(errors="replace"))
        out_path.unlink()
        err_path.unlink()
        return child


# --- one operation ------------------------------------------------------------


@dataclass
class Operation:
    wall_s: float
    cpu_s: float
    peak_rss_mb: float
    invocation_s: dict[str, float]
    outputs: dict[str, str]  # file -> sha256
    problems: list[str] = field(default_factory=list)


def _digests(op_dir: Path, wl) -> dict[str, str]:
    out = {}
    for inv in wl.invocations:
        for name in inv.outputs:
            path = op_dir / name
            out[name] = hashlib.sha256(path.read_bytes()).hexdigest() if path.exists() else ""
    return out


def run_operation(children: Children, wl, op_dir: Path, tamper=None) -> Operation:
    """All of the workload's CLI invocations in sequence, then the checks.

    ``tamper`` (self-test only) edits the outputs before they are checked.
    """
    import checks

    op_dir.mkdir(parents=True)
    done = []
    start = time.perf_counter()
    for inv in wl.invocations:
        argv = [sys.executable, "-m", "gazeforge.cli", inv.command, "--config", inv.config,
                *inv.args]
        done.append((inv, children.run(argv, op_dir)))
        if done[-1][1].returncode != 0:
            break
    wall = time.perf_counter() - start
    if tamper is not None:
        tamper(op_dir)
    problems = []
    for inv, child in done:
        if child.returncode != 0:
            problems.append(f"{inv.command} exited {child.returncode}: "
                            f"{child.stderr.strip()[-400:]}")
        else:
            problems += checks.check(inv.command, child.stdout, op_dir, inv.outputs)
    return Operation(
        wall_s=wall,
        cpu_s=sum(c.cpu_s for _, c in done),
        peak_rss_mb=max(c.peak_rss_mb for _, c in done),
        invocation_s={inv.command: c.wall_s for inv, c in done},
        outputs=_digests(op_dir, wl),
        problems=problems,
    )


# --- the two kinds of run -----------------------------------------------------

SETUP_CODE = """
import sys
import gazeforge.cli
from gazeforge import config
for path in sys.argv[1:]:
    with open(path) as fh:
        config.check_paths(config.read_config(fh.read()))
"""


def measured_run(children: Children, wl, work: Path, seconds: float, record: dict,
                 tamper=None):
    setup_dir = work / "setup"
    setup_dir.mkdir()
    configs = sorted({inv.config for inv in wl.invocations})
    setups, problems = [], []
    for _ in range(SETUP_REPEATS):
        child = children.run([sys.executable, "-c", SETUP_CODE, *configs], setup_dir)
        setups.append(child.wall_s)
        if child.returncode != 0:
            problems.append(f"set-up exited {child.returncode}: {child.stderr.strip()[-400:]}")

    ops: list[Operation] = []
    while not ops or (sum(op.wall_s for op in ops) < seconds
                      and time.perf_counter() < children.deadline - 2 * ops[0].wall_s - 10):
        op_dir = work / f"op{len(ops)}"
        op = run_operation(children, wl, op_dir, tamper)
        if ops and op.outputs != ops[0].outputs:
            op.problems.append("outputs differ from the first operation with this seed")
        ops.append(op)
        shutil.rmtree(op_dir)

    failed = sum(1 for op in ops if op.problems)
    samples = {
        "setup_s": setups,
        "wall_s": [op.wall_s for op in ops],
        "cpu_s": [op.cpu_s for op in ops],
        "peak_rss_mb": [op.peak_rss_mb for op in ops],
    }
    metrics = {name: statistics.median(values) for name, values in samples.items()}
    metrics["ok_ratio"] = (len(ops) - failed) / len(ops)
    record["samples"] = samples
    record["operations"] = [op.__dict__ for op in ops]
    record["problems"] = problems + [p for op in ops for p in op.problems]
    return metrics, len(ops), failed, not problems


def self_times(spans: list[dict]) -> dict[str, float]:
    """Per span name, total duration minus the time its child spans cover."""
    own = [s["end"] - s["start"] for s in spans]
    for s in spans:
        if s["parent"] is not None:
            own[s["parent"]] -= s["end"] - s["start"]
    totals: dict[str, float] = {}
    for s, t in zip(spans, own):
        totals[s["name"]] = totals.get(s["name"], 0.0) + t
    return totals


def traced_run(children: Children, wl, work: Path, record: dict):
    cli_dir, traced_dir = work / "cli", work / "traced"
    cli = run_operation(children, wl, cli_dir)
    traced_dir.mkdir()
    times: dict[str, float] = {}
    counts: dict[str, float] = {}
    spans_by_call, problems, traced_wall = [], [], 0.0
    for i, inv in enumerate(wl.invocations):
        spans_path = work / f"spans{i}.json"
        argv = [sys.executable, str(HERE / "traced.py"), str(spans_path), inv.command,
                "--config", inv.config, *inv.args]
        child = children.run(argv, traced_dir)
        traced_wall += child.wall_s
        if child.returncode != 0:
            problems.append(f"traced {inv.command} exited {child.returncode}: "
                            f"{child.stderr.strip()[-400:]}")
            continue
        data = json.loads(spans_path.read_text())
        spans_by_call.append({"command": inv.command, **data})
        for name, t in self_times(data["spans"]).items():
            times[name] = times.get(name, 0.0) + t
        for name, n in data["counts"].items():
            counts[name] = counts.get(name, 0) + n
    traced_out = _digests(traced_dir, wl)
    if traced_out != cli.outputs:
        differ = sorted(k for k in cli.outputs if traced_out.get(k) != cli.outputs[k])
        problems.append(f"traced outputs differ from the CLI's: {', '.join(differ)}")

    metrics = {}
    for name, unit, _ in PER_LAYER:
        base = name[: -len("_s")] if unit == "s" else name
        if name.startswith("cli.") and name != "cli.import_s":
            metrics[name] = cli.invocation_s.get(base[len("cli."):], 0.0)
        elif unit == "s":
            metrics[name] = times.get(base, 0.0)
        else:
            metrics[name] = counts.get(name, 0)
    base_samples = counts.get("generators.base_samples", 0)
    metrics["resampler.out_per_base"] = (
        counts.get("resampler.out_samples", 0) / base_samples if base_samples else 0.0)
    metrics["trace.overhead_ratio"] = traced_wall / cli.wall_s - 1.0
    record["operations"] = [cli.__dict__]
    record["traced"] = {"wall_s": traced_wall, "outputs": traced_out, "calls": spans_by_call}
    record["problems"] = cli.problems + problems
    failed = int(bool(cli.problems)) + int(bool(problems))
    return metrics, 2, failed, True


# --- environment ----------------------------------------------------------


def _git_commit() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def environment(args, wl) -> dict:
    import numpy
    import scipy

    cpu = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "memory_mb": os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES") // 2**20,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "git_commit": _git_commit(),
        "workload": wl.name,
        "seed": args.seed,
        "sizes": wl.sizes,
        "inputs_sha256": wl.inputs,
        "threads_env": {k: v for k, v in os.environ.items() if k.endswith("_NUM_THREADS")},
        "python_env": {k: v for k, v in os.environ.items() if k.startswith("PYTHON")},
        "children": "one at a time",
    }


# --- main -------------------------------------------------------------------


def parse_args(argv):
    from workloads import WORKLOADS

    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--scale", type=float, default=1.0,
                   help="shrink every input size (self-test only)")
    return p.parse_args(argv)


def benchmark(args, tamper=None) -> dict:
    """One run; returns the result object printed as the last stdout line."""
    from workloads import make_inputs

    deadline = time.perf_counter() + TIME_LIMIT_S
    WORK.mkdir(exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    work = WORK / f"{tag}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    try:
        wl = make_inputs(args.workload, args.seed, work / "inputs", args.scale)
        record = {"environment": environment(args, wl)}
        children = Children(deadline)
        if args.trace:
            metrics, attempted, failed, ok = traced_run(children, wl, work, record)
            units = {name: unit for name, unit, _ in PER_LAYER}
            record["moves"] = {name: moves for name, _, moves in PER_LAYER}
        else:
            metrics, attempted, failed, ok = measured_run(
                children, wl, work, args.seconds, record, tamper)
            units = dict(END_TO_END)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    record["metrics"] = metrics
    results = WORK / "results"
    results.mkdir(exist_ok=True)
    (results / f"{tag}.json").write_text(json.dumps(record, indent=1, default=str) + "\n")
    return {
        "correct": ok and failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units},
        "record": record,
    }


def main(argv: list[str]) -> int:
    args = parse_args(argv)
    if not (SRC / "gazeforge" / "cli.py").is_file():
        print(f"error: no gazeforge sources at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    result = benchmark(args)
    record = result.pop("record")
    for problem in record["problems"]:
        print(f"problem: {problem}")
    samples = record.get("samples", {})  # traced runs report single figures
    for name, m in result["metrics"].items():
        n = len(samples.get(name, samples.get("wall_s", [None])))
        print(f"{name}: {m['value']:.6g} {m['unit']} (n={n})")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
