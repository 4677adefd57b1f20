import contextlib
import sys

import numpy as np
import pytest

from artifact import workers
from artifact.data import generate

pytest.register_assert_rewrite("golden")  # a mismatch then shows which digests moved


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    # acceptance verdicts would otherwise be swallowed by fd-level capture
    mod = sys.modules.get("test_acceptance")
    lines = getattr(mod, "VERDICTS", None)
    if lines:
        terminalreporter.section("acceptance verdicts")
        for line in lines:
            terminalreporter.write_line(line)


@pytest.fixture(scope="session")
def small_dataset():
    # 600 samples is enough to exercise every split/label path and keeps
    # the learner tests under a second each.
    return generate(600, seed=7)


@pytest.fixture(scope="session")
def small_xy(small_dataset):
    return small_dataset.train


@pytest.fixture(scope="session")
def cli_runs(tmp_path_factory):
    # one run per worker count, read by both test_golden and test_workers
    from golden import cli_runs  # after the assertion-rewrite registration
    return cli_runs(tmp_path_factory)


@contextlib.contextmanager
def worker_count(n):
    """`artifact.workers` at n workers with a pool of its own, shut down on
    exit. `_executor` sizes its pool once, at first use, so a pool kept
    from another count would run the jobs on that count's threads. On a
    clean exit the pool must hold n - 1 threads, or not exist at n = 1."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(workers, "count", lambda: n)
        patch.setattr(workers, "_pool", None)
        try:
            yield
            if n < 2:
                assert workers._pool is None
            else:
                assert workers._pool._max_workers == n - 1
        finally:
            if workers._pool is not None:
                workers._pool.shutdown()


@pytest.fixture()
def rng():
    return np.random.default_rng(1234)


def random_params(rng, coherent=True):
    """One operating point drawn from the documented training windows."""
    from artifact.engine import EngineParams

    return EngineParams(
        t_c=rng.uniform(0.4, 2.5),
        t_h=rng.uniform(3.0, 4.5),
        t_l=rng.uniform(1.0, 7.0),
        p_c=rng.uniform(0.0, 1.0) if coherent else 0.0,
        p_h=rng.uniform(0.0, 1.0) if coherent else 0.0,
    )
