"""Each script under ``demos/``, and README's library examples, run to
completion against ``src/``."""

import os
import pathlib
import re
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


def test_readme_python_blocks_run():
    # the second block reads the first's nsys, so both share a namespace
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    blocks = re.findall(r"```python\n(.*?)```", text, re.DOTALL)
    assert len(blocks) == 2
    namespace = {}
    for block in blocks:
        exec(compile(block, "README.md", "exec"), namespace)
    assert namespace["rep"].class_label == "BI"
    assert 1 <= namespace["fit"].p_hat <= 3
