"""Cold start: importing the CLI must not load any scipy subpackage.

Every CLI run pays its import time. ``scipy.stats`` alone takes about a
second and ``scipy.special`` about half of one; the Gamma helpers,
``scipy.optimize`` and ``scipy.ndimage`` are imported only by the functions
that need them.
"""
from __future__ import annotations

import json
import os
import subprocess
import sys

import gazeforge

HEAVY = ("scipy.stats", "scipy.optimize", "scipy.ndimage", "scipy.special")


def test_cli_import_loads_no_heavy_scipy_module():
    src = os.path.dirname(os.path.dirname(os.path.abspath(gazeforge.__file__)))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    code = (
        "import json, sys\n"
        "import gazeforge.cli\n"
        f"print(json.dumps([m for m in {HEAVY!r} if m in sys.modules]))\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == []
