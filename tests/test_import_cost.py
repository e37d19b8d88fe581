"""Cold start of the CLI: no subcommand loads SciPy.

Every CLI run pays its import time. ``scipy.stats`` alone takes about a
second, ``scipy.special`` about half of one and ``scipy.optimize`` about a
third. The package needs none of them at run time: the saccade profile's
Gamma quantile and log-Gamma are a port of SciPy's kernels (``_gamma``),
the shape fit in ``evaluate`` a port of ``brentq``, and the saliency maps
are computed with numpy alone. SciPy is a test-only dependency, the oracle
those ports are checked against.

Each subcommand runs on a tiny golden-case config in a fresh interpreter
and must leave no ``scipy`` module in ``sys.modules``; a source scan finds
no SciPy import anywhere in the package.

Neither may a subcommand load ``numpy.ma`` (13-17 ms): ``np.median`` and
``np.percentile`` import it, so remap and evaluate take their quantiles
from ``np.partition`` instead. Nor may ``import gazeforge.cli`` load
``difflib``, which only words the "did you mean" hint of a config error.

A second source scan keeps each module's private names its own: no module
imports a ``_``-prefixed name from a sibling.
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


def _python(code: str):
    src = os.path.dirname(os.path.dirname(os.path.abspath(gazeforge.__file__)))
    env = dict(os.environ)
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
    argv, doc = _case(case, tmp_path)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(doc))
    out = tmp_path / ("out.pgm" if argv[0] == "saliency" else "out.csv")
    argv = argv + ["--config", str(cfg), "--output", str(out)]
    got, masked = _python(
        "from gazeforge.cli import main\n"
        f"assert main({argv!r}) == 0\n"
        f"print(json.dumps([{_LOADED}, {_MASKED}]))\n"
    )
    assert got == sorted(expected)
    assert masked == []


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
