"""The benchmark's per-layer spans still attach to the program.

`perfbench/spans.py` wraps functions by name and reads counters from
their arguments and results. A renamed function shows up as absent and a
changed signature as uncounted; either would silently zero a per-layer
metric, so both must stay empty.
"""

import importlib
import importlib.util
from pathlib import Path

import numpy as np
import pytest

from artifact import cli, counting, data, engine, fdcheck, knn

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


@pytest.fixture()
def tracer():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    for mod, _, _ in spans.TARGETS:
        importlib.import_module(f"artifact.{mod}")
    return spans.Tracer()


def test_knn_spans_attach_and_count(tracer, rng):
    x = rng.uniform(size=(120, 4))
    y = rng.integers(0, 4, size=120)
    model = knn.fit(x[:100], y[:100], k=5, weighting="distance", metric="manhattan")
    with tracer.root():
        knn.predict_batch(model, x[100:])
    assert tracer.absent == []
    assert tracer.uncounted == set()
    assert tracer.counts["knn.distance_pairs"] == 20 * 100
    assert tracer.counts["knn.queries"] == 20
    assert tracer.summary()["knn._votes_for"]["calls"] == 1

    tracer.counts.clear()
    space = knn.HyperSpace(k_range=(1, 2, 3))
    with tracer.root():
        knn.random_search(x, y, space, n_iter=len(space.combos()), seed=2)
    assert tracer.absent == []
    assert tracer.uncounted == set()
    # one neighbor table per metric and fold: held-out rows x training rows
    pairs = sum(len(held) * len(rest) for rest, held in knn.fold_splits(120, 5, 2))
    assert tracer.counts["knn.distance_pairs"] == len(knn.DISTANCE_METRICS) * pairs
    assert tracer.counts["knn.ranked_slots"] == len(knn.DISTANCE_METRICS) * 3 * 120
    # the tracer put the original functions back
    assert knn._distance_block.__module__ == "artifact.knn"


def test_knn_spans_count_the_pairs_of_the_strip_route(tracer, monkeypatch):
    # sheet-shaped f1 rows (c3 == c1, c4 == c2): most queries are answered
    # from a strip of the training rows, and the counters see every block
    ds = data.generate(3000, seed=11)
    (x, y), (xv, _) = ds.train, ds.validation
    model = knn.fit(x, y, k=5, weighting="distance", metric="manhattan")
    assert model.copies == (0, 1, 0, 1)
    computed = []
    kernel = knn._distance_block

    def counted(*args):
        out = kernel(*args)
        computed.append(out.size)
        return out

    monkeypatch.setattr(knn, "_distance_block", counted)
    want = knn.predict_batch(model, xv)
    monkeypatch.undo()
    with tracer.root():
        got = knn.predict_batch(model, xv)
    assert got.tobytes() == want.tobytes()
    assert tracer.absent == []
    assert tracer.uncounted == set()
    assert tracer.counts["knn.distance_pairs"] == sum(computed) < len(xv) * len(x)
    assert tracer.counts["knn.queries"] == len(xv)


def test_physics_spans_attach_on_an_fd_draw(tracer):
    # one draw of the oracle workload: a generator, its cumulants and
    # the finite-difference oracle on the same generator (the cumulants
    # solve their steady state as a stack, not through `steady_state`)
    params = engine.EngineParams(t_c=1.1, t_h=3.9, t_l=2.5, p_c=0.4, p_h=0.7)
    with tracer.root():
        gen = engine.build_generator(params)
        j, fd = counting.cumulants(gen), fdcheck.fd_cumulants(gen)
    assert tracer.absent == []
    assert tracer.uncounted == set()
    calls = {name: row["calls"] for name, row in tracer.summary().items()}
    for name in ("engine.build_generator", "counting.cumulants", "fdcheck.fd_cumulants"):
        assert calls.get(name, 0) >= 1, name
    np.testing.assert_allclose(fd, j, rtol=1e-8)


def test_trajectory_spans_attach_on_an_oracle_check(tracer, tmp_path, capsys):
    argv = ["--seed", "0", "--out", str(tmp_path), "oracle-check",
            "--draws", "1", "--t-final", "50", "--n-traj", "5"]
    with tracer.root():
        assert cli.main(argv) == 0
    assert "worst |z|" in capsys.readouterr().out
    assert tracer.absent == []
    assert tracer.uncounted == set()
    calls = {name: row["calls"] for name, row in tracer.summary().items()}
    for name in ("trajectories.simulate", "trajectories.compare_with_analytic", "counting.cumulants",
                 "counting.steady_state"):
        assert calls.get(name, 0) >= 1, name
    assert tracer.counts["trajectories.simulate.lanes"] == 5
