"""Every demo prints exactly its recorded output (tests/demo_outputs/<name>.txt)."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


@pytest.mark.parametrize("demo", DEMOS, ids=lambda path: path.stem)
def test_demo_prints_its_recorded_output(demo):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    result = subprocess.run([sys.executable, str(demo)], cwd=ROOT, env=env,
                            capture_output=True, timeout=60)
    assert result.returncode == 0, result.stderr.decode()
    expected = (ROOT / "tests" / "demo_outputs" / f"{demo.stem}.txt").read_bytes()
    assert result.stdout == expected
