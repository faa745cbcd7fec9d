"""The fast demos run end to end as scripts.

Demos 01, 03 and 04 take about a second together; 03 drives cycle
enumeration, spectra and Gram checks.  Demo 06 (about 2 s) runs the Riesz
chain of the registry entry riesz3.  Demos 02 and 05 take several seconds
each and are left to manual runs.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("demo", ["01_hadamard_duality.py", "03_w_cycles_and_spectrum.py",
                                  "04_transfer_operator.py", "06_riesz_product.py"])
def test_demo_exits_zero(tmp_path, demo):
    # run in tmp_path: demo 04 writes a CSV into its working directory
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, str(ROOT / "demos" / demo)], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
