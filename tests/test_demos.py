import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))

# sha256 of each demo's stdout; the demos are deterministic, so any change to
# a printed verdict, module or matrix shows up here
DEMO_STDOUT_SHA256 = {
    "01_modules_over_zn": "471c4e655beafc2b5b6993c7753ab237eda780fd26cedfa96099a8eeafc9124d",
    "02_quivers_and_rootedness": "595e0a3c85da7275d3af003e206e66862ada341844275ca7572bfea0747ff341",
    "03_representations_and_canonical_maps": "2c506f2ab8bd970fffab2f71a797973ad89229e1d8ab4351a0477e822f4ebe42",
    "04_purity_and_the_nonpure_fixture": "26cf5c3572db601c4774f9de730ef370e69895ad2562ec34fa61b784749caac4",
    "05_classification": "b016aea54c6cb2cae1f4f114bf53f1ae6f171f76539f532ea6ddc7874d3eed58",
    "06_gorenstein_certificates": "7235cf345aa8c3cd67d2d161ef921da4c7adbc42d3516cccf2f289b85416773c",
    "07_verification_harness": "2c0e9d78669f3c24e409f75c8426a10e353f0f406fb151bec9233232e23a264d",
}


def test_all_demos_found():
    assert len(DEMOS) == 7


@pytest.mark.parametrize(
    "demo, stdout_sha256",
    [pytest.param(d, DEMO_STDOUT_SHA256.get(d.stem), id=d.stem) for d in DEMOS],
)
def test_demo_runs(demo, stdout_sha256):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, str(demo)], env=env, capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    assert hashlib.sha256(proc.stdout.encode()).hexdigest() == stdout_sha256
