"""Results do not depend on the worker count.

Every test runs the same work with the pool patched to 1, 2 and 3
workers and requires the same bits each time: one worker runs every job
inline, in order, as the serial loop did. `test_golden` holds the same
CLI runs as here against their recorded bytes.
"""

import json
import os
import subprocess
import sys
import threading
from functools import partial
from pathlib import Path

import numpy as np
import pytest

from artifact import counting, knn, workers
from artifact.data import generate, write_csv
from artifact.errors import DomainError
from artifact.engine import EngineParams, build_generators
from artifact.knn import DISTANCE_METRICS, HyperSpace, fit, random_search

COUNTS = (1, 2, 3)


def _at_each_count(monkeypatch, call):
    """call() at every worker count of COUNTS."""
    results = []
    for n in COUNTS:
        monkeypatch.setattr(workers, "count", lambda n=n: n)
        results.append(call())
    return results


def test_spans_cover_the_range_in_even_parts():
    assert workers.spans(7, 3) == [slice(0, 2), slice(2, 4), slice(4, 7)]
    assert workers.spans(2, 3) == [slice(0, 0), slice(0, 1), slice(1, 2)]


@pytest.mark.parametrize("n", COUNTS)
def test_the_earliest_failing_job_raises(monkeypatch, n):
    # the serial loop stops at job 1; on the pool job 3 may fail first in
    # time, and job 1's exception is still the one raised
    monkeypatch.setattr(workers, "count", lambda: n)
    ran = []

    def job(i):
        ran.append(i)
        if i in (1, 3):
            raise ValueError(f"job {i}")

    with pytest.raises(ValueError, match="^job 1$"):
        workers.run(partial(job, i) for i in range(5))
    if n == 1:
        assert ran == [0, 1]
    else:
        assert sorted(ran) == [0, 1, 2, 3, 4]


# Each of n outer jobs waits until every worker holds one, the calling
# thread and each pool thread, then calls `run` itself; the inner jobs
# record the thread they ran on. Printed: per outer job, its thread, then
# the (index, thread) of its inner jobs in the order they ran.
NESTED = """
import json, sys, threading
from functools import partial
from artifact import workers

n = int(sys.argv[1])
workers.count = lambda: n
everyone = threading.Barrier(n, timeout=20)
seen = {}

def inner(i, j):
    seen[i].append((j, threading.get_ident()))

def outer(i):
    seen[i] = []
    everyone.wait()
    workers.run(partial(inner, i, j) for j in range(4))
    seen[i].insert(0, threading.get_ident())

workers.run(partial(outer, i) for i in range(n))
print(json.dumps([seen[i] for i in range(n)] + [threading.get_ident()]))
"""


@pytest.mark.parametrize("n", (2, 3))
def test_a_job_may_call_run(n):
    # in a child process, so that a deadlock fails the test instead of
    # hanging the suite
    src = Path(workers.__file__).resolve().parents[1]
    try:
        out = subprocess.run([sys.executable, "-c", NESTED, str(n)], capture_output=True, text=True,
                             timeout=30, check=True, env={**os.environ, "PYTHONPATH": str(src)}).stdout
    except subprocess.TimeoutExpired:
        pytest.fail(f"a nested run at {n} workers did not end within 30 s")
    *jobs, caller = json.loads(out)
    threads = [thread for thread, *_ in jobs]
    assert caller in threads and len(set(threads)) == n  # the caller and every pool thread
    for thread, *inner in jobs:  # inline: on the job's own thread, in order
        assert inner == [[j, thread] for j in range(4)]


def _sheet_problem(rng, n_train=3000):
    """Training rows on the sheet c3 == c1, c4 == c2, part of them on a
    dyadic lattice, and on-sheet, off-sheet and tied queries: lattice
    points and midpoints, which sit at equal distances from several rows."""
    grid = np.stack(np.meshgrid(np.arange(52, 65), np.arange(52, 65)), axis=-1).reshape(-1, 2) / 64
    c = np.vstack([grid, grid[:20], rng.uniform(0.8, 1.0, (n_train - len(grid) - 20, 2))])
    labels = rng.integers(0, 4, n_train)
    on = rng.uniform(0.8, 1.0, (900, 2))
    tied = np.vstack([grid[::3], grid[1::3] + 1 / 128])
    off = rng.uniform(0.8, 1.0, (60, 4))
    return np.hstack([c, c]), labels, np.vstack([np.hstack([on, on]), np.hstack([tied, tied]), off])


@pytest.mark.parametrize("metric", DISTANCE_METRICS)
def test_neighbor_tables_do_not_depend_on_the_worker_count(monkeypatch, rng, metric):
    train, labels, queries = _sheet_problem(rng)
    model = fit(train, labels, k=3, weighting="distance", metric=metric)
    # a small call too, whose last round holds fewer blocks than workers
    cases = (queries, queries[-70:])
    tables = _at_each_count(monkeypatch, lambda: [knn._neighbors(model, q) for q in cases])
    assert set(tables[0][0][2].tolist()) == {0, 1, 2}  # every strip round answers some
    for got in tables[1:]:
        assert [a.tobytes() for t in got for a in t] == [a.tobytes() for t in tables[0] for a in t]


def _search(train, labels):
    """The trials and vote fallbacks of one seeded search."""
    result = random_search(train, labels, HyperSpace(k_range=tuple(range(1, 31))), n_iter=40, seed=3)
    return result.trials, result.vote_fallbacks


def test_random_search_does_not_depend_on_the_worker_count(monkeypatch, rng):
    train, labels, _ = _sheet_problem(rng, 1500)
    results = _at_each_count(monkeypatch, partial(_search, train, labels))
    assert results[0][1] > 0
    assert results[1:] == results[:1] * 2


@pytest.mark.parametrize("n", COUNTS)
def test_random_search_raises_the_earliest_tables_exception(monkeypatch, rng, n):
    # two of the ten (fold, metric) tables fail; the serial loop stops at
    # fold 1's manhattan table, so its exception is raised at any count
    monkeypatch.setattr(workers, "count", lambda: n)
    train, labels, _ = _sheet_problem(rng, 600)
    splits = knn.fold_splits(len(train), 5, 3)
    table = threading.local()  # the table this thread is scoring, named by its fit
    fit, winners = knn.fit, knn._winners_for

    def naming_fit(features, *args, metric, **kwargs):
        fold = next(i for i, (rest, _) in enumerate(splits) if np.array_equal(features, train[rest]))
        table.name = f"fold {fold} {metric}"
        return fit(features, *args, metric=metric, **kwargs)

    def failing_winners(*args):
        if table.name in ("fold 1 manhattan", "fold 3 euclidean"):
            raise DomainError(table.name)
        return winners(*args)

    monkeypatch.setattr(knn, "fit", naming_fit)
    monkeypatch.setattr(knn, "_winners_for", failing_winners)
    with pytest.raises(DomainError, match="^fold 1 manhattan$"):
        random_search(train, labels, n_iter=40, seed=3)


def test_steady_states_do_not_depend_on_the_worker_count(monkeypatch, rng):
    n = 300
    varied = np.column_stack([rng.uniform(0.4, 2.5, n), rng.uniform(3.0, 4.5, n),
                              rng.uniform(1.0, 7.0, n), rng.uniform(0.9, 1.0, (n, 2))])
    l0 = build_generators(varied, EngineParams(), "legacy-conserving")[0]

    def solve():
        rho, failures = counting.steady_states(l0)
        return rho.tobytes(), {i: (type(e), str(e)) for i, e in failures.items()}

    results = _at_each_count(monkeypatch, solve)
    failures = results[0][1]
    assert {msg.split(" [")[0] for _, msg in failures.values()} == {"unphysical populations"}
    for parts in (2, 3):  # failing rows in every part of the split stack
        for rows in workers.spans(n, parts):
            assert any(rows.start <= i < rows.stop for i in failures)
    assert results[1:] == results[:1] * 2


def test_generated_csv_does_not_depend_on_the_worker_count(monkeypatch, tmp_path):
    def csv_bytes():
        write_csv(generate(5000, seed=42), tmp_path / "dataset.csv")
        return (tmp_path / "dataset.csv").read_bytes()

    results = _at_each_count(monkeypatch, csv_bytes)
    assert results[1:] == results[:1] * 2


def test_cli_outputs_do_not_depend_on_the_worker_count(cli_runs):
    # all files and stdout, sidecar timestamp aside; holds under any numpy or BLAS
    runs = list(cli_runs.values())
    assert sorted(runs[0][0]) == ["class-metrics.csv", "confusion.txt", "dataset.csv", "dataset.meta.json",
                                  "model-f1.json", "scenario-result.json", "sweep.csv", "sweep.dat", "tuning-f1.json"]
    assert runs[1:] == runs[:1] * (len(runs) - 1)


def test_every_job_runs_once_under_contention(monkeypatch, rng):
    # more workers than CPUs, switching threads as often as the
    # interpreter allows: a job taken twice or lost shows in `ran`, and a
    # block written over by another in the neighbour table
    train, labels, queries = _sheet_problem(rng, 1000)
    model = fit(train, labels, k=3, metric="manhattan")
    monkeypatch.setattr(workers, "count", lambda: 1)
    want = knn._neighbors(model, queries)
    monkeypatch.setattr(workers, "count", lambda: 8)
    monkeypatch.setattr(workers, "_pool", None)  # a pool of its own, sized to 8
    monkeypatch.setattr(knn, "_BLOCK_ELEMS", 1)  # 16-row blocks, many of them
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        ran = []
        workers.run(partial(ran.append, i) for i in range(5000))
        got = knn._neighbors(model, queries)
    finally:
        sys.setswitchinterval(interval)
        workers._pool.shutdown()
    assert sorted(ran) == list(range(5000))
    assert [a.tobytes() for a in got] == [a.tobytes() for a in want]


def test_random_search_under_contention(monkeypatch, rng):
    # ten tables as jobs on eight workers, each table's blocks run inline
    train, labels, _ = _sheet_problem(rng, 1000)
    monkeypatch.setattr(workers, "count", lambda: 1)
    want = _search(train, labels)
    monkeypatch.setattr(workers, "count", lambda: 8)
    monkeypatch.setattr(workers, "_pool", None)  # a pool of its own, sized to 8
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        got = _search(train, labels)
    finally:
        sys.setswitchinterval(interval)
        workers._pool.shutdown()
    assert want[1] > 0
    assert got == want
