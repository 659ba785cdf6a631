"""Every demo script runs to completion.

Each script runs the way a reader runs it, `python demos/<name>.py` in a
fresh interpreter with the sources on PYTHONPATH, and must exit 0. TMPDIR
points under the test's tmp_path, because 06_cli_artifacts.py writes its
artifacts through tempfile.mkdtemp.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def test_demos_are_found():
    assert [p.name[:3] for p in DEMOS] == ["01_", "02_", "03_", "04_", "05_", "06_"]


@pytest.mark.parametrize("script", DEMOS, ids=lambda p: p.stem)
def test_demo_exits_cleanly(script, tmp_path):
    path = os.pathsep.join(p for p in (str(ROOT / "src"), os.environ.get("PYTHONPATH")) if p)
    env = dict(os.environ, PYTHONPATH=path, TMPDIR=str(tmp_path))
    proc = subprocess.run([sys.executable, str(script)], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr[-2000:]
