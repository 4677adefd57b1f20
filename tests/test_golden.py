"""The determinism contract end to end and across versions: CLI outputs
held against the digests in `golden.json` (see `golden.py`), the command
list (`golden.run_commands`) at every worker count."""

import pytest

from artifact.cli import main
from golden import GOLDEN, digest, hold


@pytest.mark.parametrize("seed, want", GOLDEN["gen-data --n 5000"].items())
def test_gen_data_writes_the_recorded_bytes(tmp_path, seed, want):
    assert main(["--seed", seed, "--out", str(tmp_path), "gen-data", "--n", "5000"]) == 0
    hold(digest((tmp_path / "dataset.csv").read_bytes()), want, f"gen-data --n 5000 at seed {seed}, dataset.csv")


def test_cli_commands_write_the_recorded_bytes(cli_runs):
    # at each worker count, this machine's among them
    for n, (files, printed) in cli_runs.items():
        hold(files, GOLDEN["cli commands"], f"the CLI command list's outputs at {n} worker(s)")
        hold(printed, GOLDEN["cli stdout"], f"the CLI command list's stdout at {n} worker(s)")
