"""The determinism contract across versions: outputs held against the sha256
of the bytes an earlier version wrote, kept in `golden.json` by command and
seed. A change that means to alter an output updates the table with it.

The CSV bytes depend on LAPACK's SVD and numpy's float formatting, so a
mismatch prints the numpy version and build configuration (BLAS among it):
a new machine is then not mistaken for a defect."""

import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

from artifact.cli import main

GOLDEN = json.loads((Path(__file__).parent / "golden.json").read_text())


@pytest.mark.parametrize("seed, digest", GOLDEN["gen-data --n 5000"].items())
def test_gen_data_writes_the_recorded_bytes(tmp_path, seed, digest):
    assert main(["--seed", seed, "--out", str(tmp_path), "gen-data", "--n", "5000"]) == 0
    got = hashlib.sha256((tmp_path / "dataset.csv").read_bytes()).hexdigest()
    if got != digest:
        print(f"numpy {np.__version__}")
        np.show_config()
    assert got == digest, f"gen-data --n 5000 at seed {seed}: dataset.csv's sha256 moved"
