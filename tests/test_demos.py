"""Each script under ``demos/`` runs to completion against ``src/``."""

import os
import pathlib
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
DEMOS = ("classify_random.py", "endpoint_f2.py", "series_and_exponents.py",
         "splitting_bi.py")


@pytest.mark.parametrize("script", DEMOS)
def test_demo_exits_zero(script):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, str(ROOT / "demos" / script)],
                          env=env, cwd=ROOT, capture_output=True, text=True,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr
