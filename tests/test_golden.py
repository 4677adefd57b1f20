"""The determinism contract across versions: outputs held against the sha256
of the bytes an earlier version wrote, kept in `golden.json` by command and
seed, or by output file and by stdout for the CLI command list that
`test_workers` runs at each worker count. A change that means to alter an
output updates the table with it.

The CSV bytes depend on LAPACK's SVD and numpy's float formatting, so a
mismatch prints the numpy version and build configuration (BLAS among it):
a new machine is then not mistaken for a defect."""

import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

from artifact.cli import main

from test_workers import _COMMANDS

GOLDEN = json.loads((Path(__file__).parent / "golden.json").read_text())


def _digest(data):
    return hashlib.sha256(data).hexdigest()


def _explain(got, want, what):
    if got != want:
        print(f"numpy {np.__version__}")
        np.show_config()
    assert got == want, f"{what}: the sha256 moved"


@pytest.mark.parametrize("seed, digest", GOLDEN["gen-data --n 5000"].items())
def test_gen_data_writes_the_recorded_bytes(tmp_path, seed, digest):
    assert main(["--seed", seed, "--out", str(tmp_path), "gen-data", "--n", "5000"]) == 0
    got = _digest((tmp_path / "dataset.csv").read_bytes())
    _explain(got, digest, f"gen-data --n 5000 at seed {seed}, dataset.csv")


def test_cli_commands_write_the_recorded_bytes(monkeypatch, tmp_path, capsys):
    # every output file and the stdout of each command of the list; the
    # sidecar without its timestamp, dumped with sorted keys
    monkeypatch.chdir(tmp_path)
    Path("scenario.json").write_text(json.dumps({"pair12": "equal", "n": 200}))
    printed = {}
    for command in _COMMANDS:
        assert main(["--out", "out", *command]) == 0
        printed[command[0]] = _digest(capsys.readouterr().out.encode())
    got = {path.name: _digest(path.read_bytes()) for path in sorted(Path("out").iterdir())}
    meta = json.loads(Path("out", "dataset.meta.json").read_text())
    del meta["generated_at"]
    got["dataset.meta.json"] = _digest(json.dumps(meta, sort_keys=True).encode())
    _explain(got, GOLDEN["cli commands"], "the CLI command list's outputs")
    _explain(printed, GOLDEN["cli stdout"], "the CLI command list's stdout")
