"""Cold start and SciPy footprint of each CLI subcommand.

Every CLI run pays its import time. ``scipy.stats`` alone takes about a
second, ``scipy.special`` about half of one and ``scipy.optimize`` about a
third. Importing the CLI loads no SciPy at all; each subcommand then loads
only what it computes with:

- ``saliency`` and ``remap`` in ``same_stimulus`` mode: no SciPy (saliency
  maps are computed with numpy alone);
- ``generate``, ``map`` and ``evaluate``: ``scipy.special`` for the Gamma
  saccade profile (``evaluate`` fits its shapes with a port of ``brentq``,
  so it loads no ``scipy.optimize``).

No module of the package imports ``scipy.optimize`` at all.

Each subcommand runs on a tiny golden-case config in a fresh interpreter.
Its first-level ``scipy.*`` modules must equal those that importing the
expected subpackages loads by itself, so a stray import of any other
subpackage (``ndimage``, ``stats``, ...) fails.
"""
from __future__ import annotations

import json
import os
import re
import subprocess
import sys

import pytest

import gazeforge
from test_golden import _case

HEAVY = ("scipy.stats", "scipy.optimize", "scipy.ndimage", "scipy.special")

# Expression for which scipy modules are loaded; each run prints it last.
_LOADED = (
    "{'scipy': 'scipy' in sys.modules, 'subs': sorted("
    "{m.split('.')[1] for m in sys.modules if m.startswith('scipy.')})}"
)


def _python(code: str) -> dict:
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
    code = (
        "import gazeforge.cli\n"
        f"print(json.dumps([m for m in {HEAVY!r} if m in sys.modules]))\n"
    )
    assert _python(code) == []


@pytest.fixture(scope="module")
def footprints() -> dict[tuple[str, ...], list[str]]:
    """First-level scipy modules loaded by importing only the given
    subpackages, in a fresh interpreter."""
    special = _python(f"import scipy.special\nprint(json.dumps({_LOADED}))\n")
    return {("special",): special["subs"]}


@pytest.mark.parametrize("case, expected", [
    ("saliency_targets", ()),
    ("remap_same_stimulus", ()),
    ("generate_normal_burst", ("special",)),
    ("map_static", ("special",)),
    ("evaluate_errors", ("special",)),
])
def test_subcommand_scipy_footprint(case, expected, tmp_path, footprints):
    argv, doc = _case(case, tmp_path)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(doc))
    out = tmp_path / ("out.pgm" if argv[0] == "saliency" else "out.csv")
    argv = argv + ["--config", str(cfg), "--output", str(out)]
    got = _python(
        "from gazeforge.cli import main\n"
        f"assert main({argv!r}) == 0\n"
        f"print(json.dumps({_LOADED}))\n"
    )
    if not expected:
        assert got == {"scipy": False, "subs": []}
    else:
        assert got == {"scipy": True, "subs": footprints[expected]}


def test_no_module_imports_scipy_optimize():
    pkg = os.path.dirname(os.path.abspath(gazeforge.__file__))
    pattern = re.compile(r"^\s*(from\s+scipy\s+import\s+.*\boptimize\b|"
                         r"(from|import)\s+scipy\.optimize\b)", re.M)
    offenders = []
    for root, _, names in os.walk(pkg):
        for name in sorted(names):
            if name.endswith(".py"):
                path = os.path.join(root, name)
                with open(path, encoding="utf-8") as fh:
                    if pattern.search(fh.read()):
                        offenders.append(os.path.relpath(path, pkg))
    assert offenders == []
