"""The quick demos run to completion against the current API."""

import os
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

# 04 and 05 take about 20 s and 35 s at one BLAS thread, so the suite leaves them out
QUICK_DEMOS = ("01_tensors_and_gradients.py", "02_data_and_missingness.py",
               "03_train_and_evaluate.py")


@pytest.mark.parametrize("name", QUICK_DEMOS)
def test_demo_exits_zero(name, tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (os.path.join(ROOT, "src"), env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, os.path.join(ROOT, "demos", name)],
                          cwd=tmp_path, env=env, capture_output=True, text=True,
                          timeout=600)
    assert proc.returncode == 0, proc.stderr[-2000:]
