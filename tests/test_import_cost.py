"""Cold start of the CLI: no subcommand loads SciPy.

Every CLI run pays its import time. ``scipy.stats`` alone takes about a
second, ``scipy.special`` about half of one and ``scipy.optimize`` about a
third. The package needs none of them at run time: the saccade profile ends
at a closed-form tail point and is normalized at its analytic mode, the
shape fit in ``evaluate`` solves a quadratic, and the saliency maps are
computed with numpy alone. SciPy is a test-only dependency, the oracle the
profile, the fit and the saliency kernels are checked against.

Each subcommand runs on a tiny golden-case config in a fresh interpreter
and must leave no ``scipy`` module in ``sys.modules``; a source scan finds
no SciPy import anywhere in the package.

Neither may a subcommand load ``numpy.ma`` (13-17 ms): ``np.median`` and
``np.percentile`` import it, so remap and evaluate take their quantiles
from ``np.partition`` instead. Nor may ``import gazeforge.cli`` load
``difflib``, which only words the "did you mean" hint of a config error.

Nor may anything that stops before a stage runs load numpy (about 250 ms of
a 350 ms start): ``import gazeforge`` or ``gazeforge.cli``, the config
check, ``--help``, an ``evaluate --repeats`` out of range and every exit-2
config error. The config check reads only ``params``, the numpy-free
vocabulary of the run, and each subcommand imports the stage modules it
runs; the gazeforge modules that each golden case loads are pinned below.

A second source scan keeps each module's private names its own: no module
imports a ``_``-prefixed name from a sibling.

numpy's OpenBLAS starts a worker thread per CPU as it loads, a start-up
cost every CLI child paid and none used. The package calls no BLAS
routine, so ``cli.main`` asks for none before a subcommand loads numpy: a
CLI child runs on one thread unless the caller set
``OPENBLAS_NUM_THREADS``, and importing the package or loading a config
leaves ``os.environ`` alone. A third source scan keeps the premise: no
module calls a BLAS-backed numpy function or uses ``@``.
"""
from __future__ import annotations

import ast
import json
import os
import re
import subprocess
import sys

import pytest

import gazeforge
from test_golden import _case

# Expression for the scipy modules that are loaded; each run prints it last.
_LOADED = "sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.'))"
_MASKED = "sorted(m for m in sys.modules if m == 'numpy.ma' or m.startswith('numpy.ma.'))"
_NUMPY = "'numpy' in sys.modules"
_GAZEFORGE = "sorted(m[10:] for m in sys.modules if m.startswith('gazeforge.'))"


def _python(code: str, env=None):
    src = os.path.dirname(os.path.dirname(os.path.abspath(gazeforge.__file__)))
    env = dict(os.environ if env is None else env)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", "import json, sys\n" + code], env=env,
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def test_cli_import_loads_no_heavy_scipy_module():
    assert _python(f"import gazeforge.cli\nprint(json.dumps({_LOADED}))\n") == []


def test_cli_import_loads_no_difflib():
    assert _python("import gazeforge.cli\nprint(json.dumps('difflib' in sys.modules))\n") is False


def _run_case(case: str, tmp_path, *exprs: str) -> list:
    """The values of ``exprs`` after the golden case ``case`` ran in a fresh
    interpreter."""
    argv, doc = _case(case, tmp_path)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(doc))
    out = tmp_path / ("out.pgm" if argv[0] == "saliency" else "out.csv")
    argv = argv + ["--config", str(cfg), "--output", str(out)]
    return _python(
        "from gazeforge.cli import main\n"
        f"assert main({argv!r}) == 0\n"
        f"print(json.dumps([{', '.join(exprs)}]))\n"
    )


# The scipy modules each subcommand may load: none.
@pytest.mark.parametrize("case, expected", [
    ("saliency_targets", ()),
    ("remap_same_stimulus", ()),
    ("generate_normal_burst", ()),
    ("map_static", ()),
    ("evaluate_errors", ()),
    ("remap_new_stimulus", ()),
])
def test_subcommand_scipy_footprint(case, expected, tmp_path):
    got, masked = _run_case(case, tmp_path, _LOADED, _MASKED)
    assert got == sorted(expected)
    assert masked == []


def test_package_exports_load_on_first_use():
    names, numpy_loaded, missing = _python(
        "import gazeforge\n"
        f"loaded = {_NUMPY}\n"
        "from gazeforge import *\n"
        "from gazeforge import evaluate_dataset\n"
        "missing = [n for n in gazeforge.__all__ if n not in globals()]\n"
        "print(json.dumps([len(gazeforge.__all__), loaded, missing]))\n"
    )
    assert (names, numpy_loaded, missing) == (39, False, [])  # all 39, resolved
    for module in ("cli", "config", "evaluation", "fileio", "params", "saliency"):
        assert getattr(gazeforge, module).__name__ == f"gazeforge.{module}"
    assert set(gazeforge.__all__) <= set(dir(gazeforge))
    with pytest.raises(AttributeError):
        gazeforge.no_such_name


def test_names_the_benchmark_imports_stay_where_it_imports_them():
    from gazeforge.core import LABEL_NAMES, MovementLabel, RandomSource  # noqa: F401
    from gazeforge.evaluation import DEFAULT_REPEATS
    from gazeforge.mapping import REMAP_SAME_STIMULUS
    from gazeforge.params import DEFAULT_REPEATS as repeats, REMAP_SAME_STIMULUS as same

    assert (DEFAULT_REPEATS, REMAP_SAME_STIMULUS) == (repeats, same)


def test_cli_import_and_config_check_load_no_numpy(tmp_path):
    # What the benchmark's set-up child does, then the CLI's own loader.
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"seed": 3, "paths": {"output": str(tmp_path / "o.csv")}}))
    assert _python(
        "import gazeforge.cli\n"
        "from gazeforge import config\n"
        f"text = open({str(cfg)!r}).read()\n"
        "config.check_paths(config.read_config(text))\n"
        "config.load_config(text.encode(), 'generate', seed=5)\n"
        f"print(json.dumps({_NUMPY}))\n"
    ) is False


@pytest.mark.parametrize("command", ["generate", "map", "remap", "saliency", "evaluate"])
def test_help_loads_no_numpy(command):
    assert _python(
        "from gazeforge.cli import main\n"
        "try:\n"
        f"    main([{command!r}, '--help'])\n"
        "except SystemExit as e:\n"
        "    assert e.code == 0\n"
        f"print(json.dumps({_NUMPY}))\n"
    ) is False


def test_repeats_out_of_range_exits_before_numpy():
    assert _python(
        "from gazeforge.cli import main\n"
        "codes = []\n"
        "for repeats in ('0', '-1', str(10**20)):\n"
        "    try:\n"
        "        main(['evaluate', '--config', 'missing.json', '--repeats', repeats])\n"
        "    except SystemExit as e:\n"
        "        codes.append(e.code)\n"
        f"print(json.dumps([codes, {_NUMPY}]))\n"
    ) == [[2, 2, 2], False]


@pytest.mark.parametrize("command, doc", [
    ("generate", {"fixation": {"duration": {"min": 0.5, "max": 0.2}}}),
    ("generate", {"fixaton": {}}),  # a misspelt key: the difflib hint
    ("generate", {"fixation": {"duration": {"min": 0.1, "max": 1e300}}}),
    ("map", {"paths": {"frames_dir": "frames"}}),  # holds no PGM frame
    ("remap", {}),  # no paths.real_data
    ("evaluate", {"paths": {"real_data": "missing.csv"}}),
])
def test_config_error_exits_before_numpy(command, doc, tmp_path):
    (tmp_path / "frames").mkdir()
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(doc))
    code, numpy_loaded = _python(
        f"import os\nos.chdir({str(tmp_path)!r})\n"
        "from gazeforge.cli import main\n"
        f"code = main([{command!r}, '--config', 'cfg.json', '--output', 'o.csv'])\n"
        f"print(json.dumps([code, {_NUMPY}]))\n"
    )
    assert (code, numpy_loaded) == (2, False)
    assert not (tmp_path / "o.csv").exists()


# The gazeforge modules each subcommand loads: the stage modules it runs and
# their imports. The types that pass between stages (SampledSignal,
# GazeTrace, TargetSet) live in core, so fileio, which every subcommand
# loads, brings in no stage module.
_COMMON = ["cli", "config", "core", "errors", "fileio", "params"]
_SIGNAL = ["generators", "noise", "resampler", "sequence"]
_SCENE = ["mapping", "saliency"]


@pytest.mark.parametrize("case, extra", [
    ("saliency_targets", ["saliency"]),
    ("remap_same_stimulus", ["mapping"]),
    ("remap_new_stimulus", _SCENE),
    ("map_static_velocity_input", _SCENE),
    ("generate_normal_burst", _SIGNAL),
    ("map_static", _SIGNAL + _SCENE),
    ("map_dynamic", _SIGNAL + _SCENE),
    ("evaluate_errors", ["evaluation", "generators"]),
])
def test_subcommand_module_footprint(case, extra, tmp_path):
    assert _run_case(case, tmp_path, _GAZEFORGE) == [sorted(_COMMON + extra)]


def _sources():
    pkg = os.path.dirname(os.path.abspath(gazeforge.__file__))
    for root, _, names in os.walk(pkg):
        for name in sorted(names):
            if name.endswith(".py"):
                path = os.path.join(root, name)
                with open(path, encoding="utf-8") as fh:
                    yield os.path.relpath(path, pkg), fh.read()


def test_no_module_imports_scipy():
    pattern = re.compile(r"^\s*(from|import)\s+scipy\b", re.M)
    assert [name for name, text in _sources() if pattern.search(text)] == []


def test_no_module_imports_a_private_name_of_a_sibling():
    offenders = []
    for name, text in _sources():
        for node in ast.walk(ast.parse(text)):
            if isinstance(node, ast.ImportFrom) and (
                node.level or (node.module or "").startswith("gazeforge")
            ):
                offenders += [
                    f"{name}: {alias.name}" for alias in node.names
                    if alias.name.startswith("_")
                ]
    assert offenders == []


# numpy entry points that call BLAS, as attribute, imported or module names.
_BLAS = {"dot", "matmul", "linalg", "einsum", "inner", "vdot", "tensordot"}


def test_no_module_calls_blas():
    offenders = []
    for name, text in _sources():
        for node in ast.walk(ast.parse(text)):
            if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.MatMult):
                what = "@"
            elif isinstance(node, ast.Attribute) and node.attr in _BLAS:
                what = node.attr
            elif isinstance(node, ast.alias) and _BLAS & set(node.name.split(".")):
                what = node.name
            elif isinstance(node, ast.ImportFrom) and _BLAS & set((node.module or "").split(".")):
                what = node.module
            else:
                continue
            offenders.append(f"{name}:{node.lineno}: {what}")
    assert offenders == [], (
        "CLI children run numpy's BLAS on one thread; see the note in "
        "gazeforge.cli.main before calling it"
    )


_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")


def _env_without_thread_vars(**extra) -> dict:
    env = {k: v for k, v in os.environ.items() if k not in _THREAD_VARS}
    env.update(extra)
    return env


@pytest.mark.parametrize("extra, threads", [({}, 1), ({"OPENBLAS_NUM_THREADS": "2"}, 2)])
def test_cli_child_starts_no_blas_threads(extra, threads, tmp_path):
    import numpy as np

    if not os.path.isdir("/proc/self/task"):
        pytest.skip("no /proc/self/task to count threads in")
    if len(os.sched_getaffinity(0)) < 2:
        pytest.skip("one CPU: OpenBLAS starts no worker thread")
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    if "openblas" not in json.dumps(blas).lower():
        pytest.skip("numpy is not built with OpenBLAS")
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(
        {"seed": 3, "sequence": {"counts": {"fixation": 4, "saccade": 3, "smooth_pursuit": 1}}}
    ))
    argv = ["generate", "--config", str(cfg), "--output", str(tmp_path / "o.csv")]
    seen = _python(
        "import os\n"
        "from gazeforge.cli import main\n"
        f"assert main({argv!r}) == 0\n"
        "print(json.dumps(len(os.listdir('/proc/self/task'))))\n",
        env=_env_without_thread_vars(**extra),
    )
    assert seen == threads


def test_library_imports_leave_the_environment_alone(tmp_path):
    doc = {"seed": 3, "paths": {"output": str(tmp_path / "o.csv")}}
    assert _python(
        "import os\n"
        "before = dict(os.environ)\n"
        "import gazeforge.cli\n"
        "from gazeforge import config\n"
        f"config.load_config({json.dumps(doc).encode()!r}, 'generate', seed=5)\n"
        "print(json.dumps(dict(os.environ) == before))\n",
        env=_env_without_thread_vars(),
    ) is True
