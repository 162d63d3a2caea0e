"""The scripted demos run to completion and print their headline lines.
delivery_sweep.py is left out: it takes about a minute."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("script, headlines", [
    ("cluster_formation.py", ["role assignments after formation:", "elections held: ",
                              "wrote cluster_formation.svg"]),
    ("head_failover.py", ["baseline (lowest-id election, no secondary)",
                          "enhanced (weighted election + secondary head)",
                          "last packet's path 4->3: [4, "]),
])
def test_demo_runs(script, headlines, tmp_path):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    done = subprocess.run([sys.executable, str(ROOT / "demos" / script)], cwd=tmp_path,
                          env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    for line in headlines:
        assert line in done.stdout, done.stdout
