"""The demo scripts run to the end. Each is copied into a temporary directory
and run there in a child process, with TMPDIR pointed there too, so nothing
is written into the checkout.

``03_pretrain_and_probe.py`` is left out: it takes about 13 s, and the
acceptance criteria already run its pretrain-and-probe path. ``04`` runs
without ``--ablate``, its metrics part only."""

import os
import shutil
import subprocess
import sys

import pytest

ROOT = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..")


@pytest.mark.parametrize("demo", ["01_autodiff_and_adamw.py",
                                  "02_feature_targets.py",
                                  "04_metrics_and_ablation.py"])
def test_demo_runs_to_the_end(tmp_path, demo):
    shutil.copy(os.path.join(ROOT, "demos", demo), tmp_path)
    path = os.pathsep.join(filter(None, [os.path.join(ROOT, "src"),
                                         os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path, TMPDIR=str(tmp_path))
    out = subprocess.run([sys.executable, demo], cwd=tmp_path, env=env,
                         capture_output=True, text=True, timeout=120)
    assert out.returncode == 0, out.stderr
    assert "Traceback" not in out.stdout + out.stderr
