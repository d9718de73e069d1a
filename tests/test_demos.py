"""The demo scripts run to completion.

``demos/03_cps_training.py`` is left out: it trains for about 16 s, and
every call it makes (``train_cps``, ``train_supervised``, ``ablate``,
``rows_to_csv``) is already covered by acceptance criteria 08-10.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize(
    "demo", ["01_boost_pipeline.py", "02_regional_votes.py", "04_generalization_bounds.py"]
)
def test_demo_exits_zero(demo, tmp_path):
    temp = tmp_path / "tmp"
    temp.mkdir()
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), TMPDIR=str(temp))
    proc = subprocess.run(
        [sys.executable, str(ROOT / "demos" / demo)],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout
    assert not any(temp.iterdir()), "the demo left files in the temp directory"
