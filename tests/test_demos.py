"""Every demo script runs to completion.

The demos call the public API the way a reader would, so a change that
removes or renames part of it shows up here.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def test_all_demos_found():
    assert len(DEMOS) == 7


@pytest.mark.parametrize("script", DEMOS, ids=lambda p: p.name)
def test_demo_runs(script):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    out = subprocess.run([sys.executable, str(script)], capture_output=True, text=True,
                         env=env, cwd=ROOT, timeout=300)
    assert out.returncode == 0, out.stdout[-2000:] + out.stderr[-2000:]
