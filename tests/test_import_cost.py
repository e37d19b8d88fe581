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
Nor may ``import gazeforge.cli`` and a config check load ``dataclasses``
(with the ``inspect``, ``ast`` and ``dis`` it pulls in, and an ``exec`` per
method of every class) or ``argparse``, which only ``cli.main`` needs. The
value types are ``params.record`` classes; a table pins the behaviour they
share with the dataclasses they replace, and a source scan finds no
``dataclasses`` import, ``exec`` or ``eval`` in the package.

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


def test_cli_import_and_config_check_load_no_dataclasses_inspect_or_argparse(tmp_path):
    # The benchmark's set-up child: no class is built through exec.
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"seed": 3, "sequence": {"counts": {"fixation": 4}}}))
    assert _python(
        "import gazeforge.cli\n"
        "from gazeforge import config\n"
        f"config.check_paths(config.read_config(open({str(cfg)!r}).read()))\n"
        "print(json.dumps([m for m in ('dataclasses', 'inspect', 'argparse') "
        "if m in sys.modules]))\n"
    ) == []


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


def test_no_module_imports_dataclasses_or_calls_exec_or_eval():
    offenders = []
    for name, text in _sources():
        for node in ast.walk(ast.parse(text)):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                modules = [node.module or ""]
            elif isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
                modules = [f"{node.func.id}()"]
            else:
                continue
            offenders += [f"{name}:{node.lineno}: {m}" for m in modules
                          if m.split(".")[0] == "dataclasses" or m in ("exec()", "eval()")]
    assert offenders == []


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


# --- the value types ----------------------------------------------------------

def _record_table():
    """(type, its field values in order, the defaults among them, a valid
    change of one field, a change that __post_init__ refuses and its message)."""
    import numpy as np

    from gazeforge import config
    from gazeforge.core import GazeTrace, TargetSet
    from gazeforge.evaluation import ErrorSummary, TypeStats
    from gazeforge.mapping import SceneTargets
    from gazeforge.params import (
        BoundedDistribution as BD, DistKind, FixationParams, MappingParams, MovementLabel,
        NoiseSpec, OrderingRule, PursuitParams, PursuitTrend, RateSpec, SaccadeParams,
        SequenceSpec,
    )
    from gazeforge.saliency import SaliencyMap

    FIX, SACC = MovementLabel.FIXATION, MovementLabel.SACCADE
    dist, zero = BD.uniform(0.1, 0.2), BD.fixed(0.0)
    rule = OrderingRule(OrderingRule.AFTER_EACH, SACC, FIX)
    run = config.read_config('{"seed": 3}')
    targets = TargetSet([(1.0, 2.0, 1.0)], 4, 3)
    one = np.array([0.5])
    return [
        (BD, dict(kind=DistKind.NORMAL, min=0.0, max=2.0, std=0.5), dict(std=0.0),
         dict(std=1.0), dict(min=3.0), "distribution min 3.0 exceeds max 2.0"),
        (OrderingRule, dict(kind="before", first=FIX, second=SACC), {},
         dict(kind="after_each"), dict(second=FIX), "ordering rule types must differ"),
        # counts defaults to None too, but a spec needs counts, length or explicit.
        (SequenceSpec, dict(counts={FIX: 2}, constraints=[rule], explicit=None, length=None),
         dict(constraints=[], explicit=None, length=None), dict(counts={FIX: 3}),
         dict(counts={FIX: -1}), "sequence counts must be non-negative"),
        (FixationParams, dict(duration=dist, base_velocity=1.0, consistency=zero), {},
         dict(base_velocity=2.0), dict(base_velocity=-1.0),
         "fixation.base_velocity must be >= 0"),
        (SaccadeParams, dict(duration=dist, peak_velocity=dist, skewness=dist, consistency=zero),
         {}, dict(consistency=dist), dict(skewness=zero), "saccade.skewness must have min > 0"),
        (PursuitParams, dict(duration=dist, velocity=dist, onset_duration=dist,
                             trend=PursuitTrend.CONSTANT, trend_end_velocity=dist,
                             consistency=zero),
         {}, dict(trend=PursuitTrend.LINEAR_INCREASING), dict(onset_duration=zero),
         "pursuit.onset_duration must have min > 0"),
        (RateSpec, dict(rate=BD.uniform(250.0, 300.0)), {}, dict(rate=dist), dict(rate=zero),
         "sampling rate must have min > 0"),
        (NoiseSpec, dict(fraction=0.1, location_dist=DistKind.NORMAL, magnitude=dist,
                         mode="add", burst_length=2),
         dict(mode="replace", burst_length=1), dict(fraction=0.2), dict(fraction=1.5),
         "noise fraction must be in [0,1], got 1.5"),
        (MappingParams, dict(pixels_per_degree=20.0, max_path_deviation=1.0,
                             fixation_dispersion=2.0, target_jitter_px=3.0),
         dict(pixels_per_degree=30.0, max_path_deviation=0.0, fixation_dispersion=0.0,
              target_jitter_px=5.0),
         dict(target_jitter_px=4.0), dict(pixels_per_degree=0.0),
         "pixels_per_degree must be > 0"),
        (config.Paths, {k: f"{k}.x" for k in (
            "stimulus", "saliency_map", "frames_dir", "real_data", "velocity_input",
            "output", "targets_output", "errors_output")},
         dict.fromkeys(("stimulus", "saliency_map", "frames_dir", "real_data",
                        "velocity_input", "output", "targets_output", "errors_output")),
         dict(output="o.csv"), None, None),
        (config.MappingConfig, dict(params=MappingParams(), min_target_distance=10.0,
                                    target_threshold=0.1, remap_mode="same_stimulus",
                                    frame_rate=30.0),
         {}, dict(frame_rate=25.0), None, None),
        (config.RunConfig, {k: getattr(run, k) for k in (
            "mode", "seed", "base_rate_hz", "sequence", "fixation", "saccade", "pursuit",
            "rate", "noise", "mapping", "paths")},
         {}, dict(seed=4), None, None),
        (GazeTrace, dict(timestamps=np.array([0.0]), x=one, y=one,
                         labels=np.array([0], dtype=np.uint8), width=4, height=3,
                         pixels_per_degree=30.0),
         {}, dict(width=5), dict(x=np.array([1.0, 2.0])),
         "gaze trace arrays must have equal length"),
        (TargetSet, dict(points=[(1.0, 2.0, 1.0)], width=4, height=3),
         dict(points=[], width=0, height=0), dict(height=2), None, None),
        (TypeStats, dict(count=3, mean=1.0, median=1.0, q1=0.5, q3=1.5, whisker_low=0.0,
                         whisker_high=2.0, min=0.0, max=2.0),
         {}, dict(count=4), None, None),
        (ErrorSummary, dict(per_type={}, pooled={}), {}, dict(pooled={FIX: one}), None, None),
        (SceneTargets, dict(frames=[(0.0, targets)], frame_rate=30.0), dict(frame_rate=0.0),
         dict(frame_rate=25.0), dict(frames=[]), "a scene needs at least one frame"),
        (SaliencyMap, dict(values=np.array([[0.5]])), {}, dict(values=np.array([[0.25]])),
         dict(values=one), "saliency map must be a 2D grid"),
    ]


_FROZEN = {"BoundedDistribution", "OrderingRule", "FixationParams", "SaccadeParams",
           "PursuitParams", "RateSpec", "NoiseSpec", "MappingParams", "TypeStats"}


def test_record_table_names_every_value_type():
    names = [row[0].__name__ for row in _record_table()]
    assert len(names) == len(set(names)) == 18
    assert _FROZEN <= set(names)


@pytest.mark.parametrize("index", range(18))
def test_record_type_behaves_as_its_dataclass(index):
    from gazeforge.errors import ParameterError
    from gazeforge.params import fields, replace

    cls, values, defaults, change, bad, message = _record_table()[index]
    obj = cls(**values)
    assert [f.name for f in fields(cls)] == [f.name for f in fields(obj)] == list(values)
    assert all(getattr(obj, n) is v or getattr(obj, n) == v for n, v in values.items())
    # Positional binding, and refused bindings.
    assert cls(*values.values()) == obj
    first = next(iter(values))
    for args, kwargs in [((*values.values(), None), {}), ((), {**values, "no_such": 1}),
                         ((values[first],), values)]:
        with pytest.raises(TypeError):
            cls(*args, **kwargs)
    if not defaults:
        with pytest.raises(TypeError):
            cls(*list(values.values())[1:])
    # Defaults, and a fresh list for each instance.
    a, b = (cls(**{n: v for n, v in values.items() if n not in defaults}) for _ in "ab")
    assert {n: getattr(a, n) for n in defaults} == defaults
    for n, default in defaults.items():
        if isinstance(default, list):
            assert getattr(a, n) is not getattr(b, n)
            getattr(a, n).append(None)
            assert getattr(b, n) == [] and cls.__dict__.get(n, []) == []
    # Equality, replace and repr.
    changed = replace(obj, **change)
    assert changed != obj and changed.__class__ is cls
    assert replace(changed, **{n: values[n] for n in change}) == obj
    assert {n: getattr(changed, n) is getattr(obj, n) for n in values if n not in change} == {
        n: True for n in values if n not in change}
    assert (obj == object()) is False and (obj != object()) is True
    shown = ", ".join(f"{n}={getattr(obj, n)!r}" for n in values)
    assert repr(obj) == f"{cls.__qualname__}({shown})"
    # Hashing and assignment: frozen types are immutable and hashable.
    if cls.__name__ in _FROZEN:
        assert hash(obj) == hash(cls(**values))
        for act in (lambda: setattr(obj, first, values[first]), lambda: delattr(obj, first)):
            with pytest.raises(AttributeError):
                act()
        assert getattr(obj, first) is values[first]
    else:
        with pytest.raises(TypeError):
            hash(obj)
        setattr(changed, first, values[first])
        assert getattr(changed, first) is values[first]
    # __post_init__ runs on construction and on replace, with its messages.
    if bad is not None:
        with pytest.raises(ParameterError) as info:
            replace(obj, **bad)
        assert str(info.value) == message
