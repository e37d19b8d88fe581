#!/usr/bin/env python3
"""Self-test of the benchmark at a tiny input size (about a minute).

    python3 perfbench/selftest.py

Checks that one command prints every metric BENCHMARK.json declares, by
name and with its unit, on every workload, traced and untraced; that a
corrupted output counts as a failed operation; and that without the
program's sources the benchmark exits non-zero and prints no result.
"""
from __future__ import annotations

import json
import shutil
import subprocess
import sys
from argparse import Namespace
from pathlib import Path

import run
from workloads import WORKLOADS

SCALE = "0.02"


def _result(argv: list[str], cwd: Path) -> tuple[int, dict | None]:
    proc = subprocess.run([sys.executable, *argv], cwd=cwd, capture_output=True, text=True,
                          timeout=180)
    lines = proc.stdout.strip().splitlines()
    try:
        return proc.returncode, json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        return proc.returncode, None


def check_metrics(spec: dict) -> None:
    for workload in WORKLOADS:
        for trace, section in ((0, "end_to_end"), (1, "per_layer")):
            code, res = _result(["perfbench/run.py", "--workload", workload, "--seed", "1",
                                 "--seconds", "1", "--trace", str(trace), "--scale", SCALE],
                                run.ROOT)
            where = f"{workload} --trace {trace}"
            assert code == 0 and res is not None, f"{where}: exit {code}, no result"
            assert set(res) == {"correct", "attempted", "failed", "metrics"}, where
            assert res["correct"] and res["failed"] == 0 and res["attempted"] >= 1, (where, res)
            want = {m["name"]: m["unit"] for m in spec[section]}
            got = {k: v["unit"] for k, v in res["metrics"].items()}
            assert got == want, f"{where}: metrics {sorted(got)} != {sorted(want)}"
            assert all(isinstance(v["value"], (int, float)) for v in res["metrics"].values())
            print(f"ok  {where}: {len(got)} metrics")


def _truncate_first_output(op_dir: Path) -> None:
    outputs = sorted(p for p in op_dir.iterdir() if not p.name.startswith("."))
    data = outputs[0].read_bytes()
    outputs[0].write_bytes(data[:-10])


def check_corruption() -> None:
    sys.path.insert(0, str(run.SRC))
    for workload in WORKLOADS:
        args = Namespace(workload=workload, seed=2, seconds=1.0, trace=0, scale=float(SCALE))
        res = run.benchmark(args, tamper=_truncate_first_output)
        assert not res["correct"], workload
        assert res["failed"] == res["attempted"] >= 1, (workload, res["failed"])
        assert res["metrics"]["ok_ratio"]["value"] == 0.0, workload
        print(f"ok  {workload}: corrupted output counted as failed "
              f"({res['record']['problems'][0][:70]})")


def check_bare_directory() -> None:
    bare = run.WORK / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(run.HERE, bare / "perfbench", ignore=shutil.ignore_patterns(".work"))
    shutil.copy(run.ROOT / "BENCHMARK.json", bare)
    try:
        code, res = _result(["perfbench/run.py", "--workload", WORKLOADS[0], "--seed", "1",
                             "--seconds", "1", "--trace", "0"], bare)
    finally:
        shutil.rmtree(bare)
    assert code != 0 and res is None, (code, res)
    print(f"ok  without sources: exit {code}, no result")


def main() -> int:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    declared = [(m["name"], m["unit"]) for m in spec["per_layer"]]
    assert declared == [(n, u) for n, u, _ in run.PER_LAYER], "per_layer out of date"
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == run.END_TO_END
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    check_bare_directory()
    check_corruption()
    check_metrics(spec)
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
