"""The CLI's outputs on the shipped demos are pinned byte for byte.

Each golden under ``tests/golden/`` is the stdout or the ``--json`` file of
one CLI run; a change that means to keep the outputs must keep these bytes.
The demo's 51x51 normalized sweep pins its CSV by SHA-256 (88,247 bytes).

Planar sweeps are left out on purpose: their cells come from numpy's
``power`` and ``hypot``, whose last bit may differ between numpy builds and
CPUs, so a byte golden would pin the platform rather than the program. The
normalized sweep runs on Python floats alone, so its bytes are portable.
"""

import hashlib
from pathlib import Path

import pytest

from wastefigure.cli import main

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "golden"

pytestmark = pytest.mark.filterwarnings("ignore::wastefigure.ApproximationRegimeWarning")

GRID_CSV_SHA256 = "a95dff17b51b4e53e456e58d5ec4fd1ac99c9e17576d9481e046da7295060fbe"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    assert code == 0, captured.err
    return captured.out


@pytest.mark.parametrize("kind", ["cascade", "link", "relay", "fwa"])
def test_demo_outputs(kind, capsys, tmp_path):
    report = tmp_path / "report.json"
    out = run(capsys, kind, str(ROOT / "scenarios" / f"{kind}.json"), "--json", str(report))
    assert out == (GOLDEN / f"{kind}.stdout").read_text(encoding="utf-8")
    assert report.read_bytes() == (GOLDEN / f"{kind}.json").read_bytes()


def test_normalized_sweep_outputs(capsys, tmp_path):
    report, region = tmp_path / "report.json", tmp_path / "region.csv"
    out = run(
        capsys, "fwa", str(ROOT / "scenarios" / "fwa.json"),
        "--grid", "51", "51", "--csv", str(region), "--json", str(report),
    )
    assert out == (GOLDEN / "fwa_grid51.stdout").read_text(encoding="utf-8")
    assert report.read_bytes() == (GOLDEN / "fwa_grid51.json").read_bytes()
    csv = region.read_bytes()
    assert len(csv) == 88_247
    assert hashlib.sha256(csv).hexdigest() == GRID_CSV_SHA256
