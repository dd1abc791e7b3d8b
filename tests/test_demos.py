"""Every demo runs to completion."""

import subprocess
import sys
from pathlib import Path

import pytest

from conftest import child_env

DEMOS = Path(__file__).resolve().parent.parent / "demos"


@pytest.mark.parametrize("demo", ["01_groups_and_haar", "02_lattices_and_bupus",
                                  "03_amalgam_norms", "04_weights_and_doubling",
                                  "05_convolution_algebra", "06_axb_mixed_norms",
                                  "07_operator_norms"])
def test_discretization_demos_run(tmp_path, demo):
    r = subprocess.run([sys.executable, str(DEMOS / f"{demo}.py")],
                       capture_output=True, text=True, cwd=tmp_path,
                       env=child_env())
    assert r.returncode == 0, r.stderr
