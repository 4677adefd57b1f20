"""The table of recorded output digests, `golden.json`, the one way to
hold an output against it, and the command list it records (`cli_runs`).

The table keeps, by command and seed or by output file and by stdout, the
sha256 of the bytes an earlier version wrote. A change that means to alter
an output updates the table with it. The CSV bytes depend on LAPACK's SVD
and numpy's float formatting, so the table also records the numpy version
and BLAS they were written with, and a mismatch sets those beside the
running ones: a new machine is then not mistaken for a defect."""

import contextlib
import hashlib
import io
import json
from pathlib import Path

import numpy as np
import pytest

from artifact import workers
from artifact.cli import main

GOLDEN = json.loads((Path(__file__).parent / "golden.json").read_text())


def digest(data):
    return hashlib.sha256(data).hexdigest()


def machine():
    """The numpy version and the BLAS name and version of this process."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"numpy": np.__version__, "blas": f"{blas['name']} {blas['version']}"}


def hold(got, want, what):
    assert got == want, "\n".join([f"{what}: the sha256 moved"] + [
        f"  {key}: recorded {GOLDEN['machine'][key]}, running {value}" for key, value in machine().items()])


# Each command reads what the earlier ones wrote; gen-data writes seed 0's 5000 rows.
COMMANDS = [
    ("gen-data", "--n", "5000"),
    ("tune", "--data", "out/dataset.csv", "--mapping", "f1", "--n-iter", "20"),
    ("train", "--data", "out/dataset.csv", "--mapping", "f1", "--weighting", "distance",
     "--metric", "manhattan"),
    ("evaluate", "--model", "out/model-f1.json", "--data", "out/dataset.csv"),
    ("apply", "--model", "out/model-f1.json", "--scenario", "scenario.json"),
    ("sweep", "--sizes", "200,400"),
    ("oracle-check", "--draws", "1", "--t-final", "1e3", "--n-traj", "20"),
]


def cli_runs(tmp_path_factory):
    """{n: (output file digests, stdout digests)} of COMMANDS through `cli.main`
    at n = 1, 2, 3 workers and the machine's count; the sidecar without `generated_at`."""
    runs = {}
    for n in sorted({1, 2, 3, workers.count()}):
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(workers, "count", lambda n=n: n)
            patch.chdir(tmp_path_factory.mktemp(f"workers-{n}"))
            Path("scenario.json").write_text(json.dumps({"pair12": "equal", "n": 200}))
            printed = {}
            for command in COMMANDS:
                with contextlib.redirect_stdout(io.StringIO()) as out:
                    assert main(["--out", "out", *command]) == 0
                printed[command[0]] = digest(out.getvalue().encode())
            files = {path.name: digest(path.read_bytes()) for path in sorted(Path("out").iterdir())}
            meta = json.loads(Path("out", "dataset.meta.json").read_text())
        del meta["generated_at"]
        files["dataset.meta.json"] = digest(json.dumps(meta, sort_keys=True).encode())
        runs[n] = files, printed
    return runs
