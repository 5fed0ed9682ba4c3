"""Demos 01–04 run to completion in a fresh process, each in well under 2 s.

``test_imports.py`` only parses the demos, so an API change that keeps a
name but changes its return (as ``rnea`` returning the forces alone did)
would break a demo unseen.  Demo 05 integrates two 10 s closed loops
(about 4 s) and is left to a run by hand: ``PYTHONPATH=src python
demos/05_tracking_control.py``.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("0[1-4]_*.py"))


def test_four_demos_are_run():
    assert [p.name[:2] for p in DEMOS] == ["01", "02", "03", "04"]


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.stem)
def test_demo_exits_0(demo, tmp_path):
    # the working directory is a scratch one: demo 01 writes its maps there
    path = [str(ROOT / "src"), os.environ.get("PYTHONPATH")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path)))
    done = subprocess.run([sys.executable, str(demo)], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    assert done.stdout
