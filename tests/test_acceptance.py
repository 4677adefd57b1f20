"""Acceptance gate: ten criteria, one printed verdict line each, and the
50k seed-42 dataset's CSV held against its recorded digest.

Heavy artifacts (the 50k dataset, the three tuned pipelines) are built
once in module fixtures and shared by the criteria that need them.
Verdict lines are collected in VERDICTS and echoed after the run by a
terminal-summary hook, so they stay visible under pytest's capture.
"""

import time

import numpy as np
import pytest

from artifact.counting import cumulants, exchange_moment_ratios
from artifact.data import generate, write_csv
from artifact.engine import TRACE_VECTOR, build_generator
from artifact.experiments import evaluate_untuned, run_pipeline, run_scenario, scenario_suite
from artifact.fdcheck import fd_cumulants
from artifact.knn import fit, predict_batch, predict_proba_batch
from artifact.metrics import class_metrics
from artifact.trajectories import compare_with_analytic

from conftest import random_params
from golden import GOLDEN, digest, hold
from knn_reference import ref_predict, ref_proba

pytestmark = pytest.mark.acceptance

_T = {}  # wall-clock bookkeeping shared across criteria


VERDICTS = []  # echoed by the pytest_terminal_summary hook in conftest


def _verdict(num, name, ok, detail=""):
    tag = "PASS" if ok else "FAIL"
    line = f"ACCEPTANCE {num:>2} [{name}]: {tag}"
    if detail:
        line += f"  -- {detail}"
    VERDICTS.append(line)
    print("\n" + line, flush=True)


def _report(text):
    print(text, flush=True)


@pytest.fixture(scope="module")
def big_dataset():
    t0 = time.perf_counter()
    ds = generate(50_000, seed=42)
    _T["gen"] = time.perf_counter() - t0
    return ds


@pytest.fixture(scope="module")
def pipelines(big_dataset):
    t0 = time.perf_counter()
    runs = {m: run_pipeline(m, big_dataset, seed=42, n_iter=60) for m in ("f1", "f2", "f3")}
    untuned = evaluate_untuned("f1", big_dataset)
    _T["pipelines"] = time.perf_counter() - t0
    return runs, untuned


def test_criterion_01_spectral_invariant():
    rng = np.random.default_rng(1)
    t0 = time.perf_counter()
    worst_eig = 0.0
    worst_trace = 0.0
    for _ in range(1000):
        params = random_params(rng)
        for variant in ("consistent", "legacy-conserving"):
            gen = build_generator(params, variant)
            eigs = np.linalg.eigvals(gen.l0)
            worst_eig = max(worst_eig, float(np.min(np.abs(eigs))))
            worst_trace = max(worst_trace, float(np.max(np.abs(TRACE_VECTOR @ gen.l0))))
    wall = time.perf_counter() - t0
    ok = worst_eig < 1e-10 and worst_trace < 1e-12 and wall < 5.0
    _verdict(1, "spectral invariant", ok,
             f"max |zero eigenvalue| {worst_eig:.2e}, max trace residual {worst_trace:.2e}, {wall:.1f}s")
    assert worst_eig < 1e-10
    assert worst_trace < 1e-12
    assert wall < 5.0


def _timed(spent, route, gen):
    t0 = time.perf_counter()
    out = route(gen)
    spent[route] += 1e3 * (time.perf_counter() - t0)
    return out


def test_criterion_02_cumulant_oracle_equivalence():
    rng = np.random.default_rng(2)
    t0 = time.perf_counter()
    worst = 0.0
    spent = {cumulants: 0.0, fd_cumulants: 0.0}  # each route's ms, timed apart
    for _ in range(1000):
        gen = build_generator(random_params(rng))
        j, fd = [_timed(spent, route, gen) for route in spent]
        rel = np.max(np.abs(fd - j) / np.maximum(np.abs(j), 1e-12))
        worst = max(worst, float(rel))
    wall = time.perf_counter() - t0
    ok = worst < 1e-6 and wall < 30.0
    _verdict(2, "cumulant oracle equivalence", ok,
             f"worst relative deviation {worst:.2e} over 1000 draws, {wall:.1f}s "
             f"(mean per draw: cumulants {spent[cumulants] / 1000:.3f} ms, "
             f"fd_cumulants {spent[fd_cumulants] / 1000:.3f} ms)")
    assert worst < 1e-6
    assert wall < 30.0


def test_criterion_03_trajectory_validation():
    rng = np.random.default_rng(3)
    t0 = time.perf_counter()
    worst = 0.0
    rows = []
    for i in range(5):
        params = random_params(rng, coherent=False)
        row = compare_with_analytic(params, t_final=1e5, n_traj=200, seed=300 + i)
        worst = max(worst, row["z_mean"], row["z_var"])
        rows.append(f"draw {i}: z_mean={row['z_mean']:.2f} z_var={row['z_var']:.2f}")
    wall = time.perf_counter() - t0
    ok = worst < 3.0 and wall < 300.0
    _verdict(3, "trajectory validation", ok,
             f"worst |z| {worst:.2f} across 5 draws (t_final=1e5, n_traj=200), {wall:.0f}s")
    assert worst < 3.0, "; ".join(rows)
    assert wall < 300.0


def test_criterion_04_baseline_identity():
    rng = np.random.default_rng(4)
    ok = True
    for _ in range(100):
        feats = exchange_moment_ratios(random_params(rng, coherent=False))
        if not np.all(feats == 1.0):
            ok = False
            break
    _verdict(4, "baseline identity", ok,
             "all feature ratios bitwise 1.0 at zero coherence over 100 draws")
    assert ok


def test_criterion_05_feature_range(big_dataset):
    x = big_dataset.features
    inside_envelope = bool(np.all((x >= 0.70) & (x <= 1.05)))
    window_frac = float(np.mean(np.all((x >= 0.76) & (x <= 1.01), axis=1)))
    ok = inside_envelope and window_frac >= 0.95
    _verdict(5, "feature range reproduction", ok,
             f"50k samples in [{x.min():.4f}, {x.max():.4f}], "
             f"window fraction {window_frac:.4f} (needs >= 0.95), generated in {_T['gen']:.1f}s")
    assert inside_envelope
    assert window_frac >= 0.95


def test_criterion_06_classifier_accuracy(pipelines):
    runs, untuned = pipelines
    targets = {"f1": 82.16, "f2": 82.11, "f3": 82.82}
    details = []
    ok = True
    for mapping, target in targets.items():
        res = runs[mapping]
        hp = res.search.best
        details.append(
            f"{mapping}: {res.val_accuracy:.2f}% (target {target}+-4, "
            f"k={hp.k}/{hp.weighting}/{hp.metric} reported-not-asserted)"
        )
        ok = ok and abs(res.val_accuracy - target) <= 4.0
    ok = ok and abs(untuned - 80.59) <= 4.0
    details.append(f"untuned f1: {untuned:.2f}% (target 80.59+-4)")
    wall = _T["gen"] + _T["pipelines"]
    details.append(f"{wall:.0f}s total")
    ok = ok and wall < 600.0
    _verdict(6, "classifier accuracy", ok, "; ".join(details))
    for mapping, target in targets.items():
        assert abs(runs[mapping].val_accuracy - target) <= 4.0, mapping
    assert abs(untuned - 80.59) <= 4.0
    assert wall < 600.0


def test_criterion_07_per_class_pattern(big_dataset, pipelines):
    runs, _ = pipelines
    ok = True
    details = []
    for mapping in ("f1", "f2", "f3"):
        f = class_metrics(runs[mapping].chi)[:, 2]
        details.append(f"{mapping}: F = " + "/".join(f"{v:.2f}" for v in f))
        ordered = f[0] > f[3] > f[2] > f[1]
        bands = abs(f[0] - 93.0) <= 3.0 and abs(f[1] - 69.0) <= 5.0
        ok = ok and ordered and bands
    # when c3 and c4 repeat c1 and c2, f1 counts each of f3's distance terms twice
    copies = fit(big_dataset.features, big_dataset.labels, k=1).copies
    same = ["no", "yes"]
    _verdict(7, "per-class metric pattern", ok,
             "; ".join(details) + " (need F0>F3>F2>F1, F0 in 93+-3, F1 in 69+-5); "
             f"bitwise on all {len(big_dataset)} rows: c3 == c1 {same[copies[2] == 0]}, "
             f"c4 == c2 {same[copies[3] == 1]}")
    assert ok, (
        "per-class F pattern not reproduced: " + "; ".join(details)
        + " -- in this feature geometry class 3 is the best-resolved class, "
          "not class 0; see the verdict detail"
    )


def test_criterion_08_application_study(pipelines):
    runs, _ = pipelines
    expected_winner = {"equal": 0, "greater": 0, "less": 3}
    failures = []
    total = 0
    for mapping in ("f1", "f2", "f3"):
        model = runs[mapping].model
        for spec in scenario_suite(mapping, seed=42):
            res = run_scenario(model, spec)
            total += 1
            want = expected_winner[spec.pair12]
            line = (f"{mapping} pair12={spec.pair12:<7} pair34={spec.pair34:<7} "
                    f"winner={res.winner} unit-counts={list(res.unit_counts)}")
            _report("  " + line)
            if res.winner != want:
                failures.append(line + f" (expected {want})")
    ok = not failures
    _verdict(8, "application study", ok,
             f"{total - len(failures)}/{total} scenario winners match the qualitative law; "
             "unit counts above are the soft checks")
    assert ok, f"{len(failures)} of {total} scenario cases disagree: " + " | ".join(failures[:4])


def test_criterion_09_ml_oracle_exactness():
    rng = np.random.default_rng(9)
    worst_norm = 0.0
    mismatches = 0
    cases = 0
    for n in (37, 250, 1000):
        train_x = rng.uniform(0.7, 1.1, size=(n, 4)).round(2)
        train_y = rng.integers(0, 4, size=n)
        query = rng.uniform(0.7, 1.1, size=(64, 4)).round(2)
        query[0] = train_x[0]   # exact match
        train_x[1] = train_x[0]  # duplicated training row
        for k in (1, 5, 17, n):
            for weighting in ("uniform", "distance"):
                for metric in ("euclidean", "manhattan"):
                    model = fit(train_x, train_y, k=k, weighting=weighting, metric=metric)
                    got = predict_batch(model, query)
                    proba = predict_proba_batch(model, query)
                    for i, q in enumerate(query):
                        cases += 1
                        ref = ref_proba(train_x, train_y, q, k, weighting, metric)
                        if (got[i] != ref_predict(train_x, train_y, q, k, weighting, metric)
                                or not np.array_equal(proba[i], ref)):
                            mismatches += 1
                    worst_norm = max(worst_norm, float(np.max(np.abs(proba.sum(axis=1) - 1.0))))
    ok = mismatches == 0 and worst_norm < 1e-12
    _verdict(9, "ml oracle exactness", ok,
             f"{mismatches} mismatches over {cases} reference predictions; "
             f"worst probability normalization error {worst_norm:.2e}")
    assert mismatches == 0
    assert worst_norm < 1e-12


def test_criterion_10_determinism(tmp_path):
    from artifact.cli import main

    outs = []
    for name in ("run1", "run2"):
        out = tmp_path / name
        assert main(["--seed", "11", "--out", str(out), "gen-data", "--n", "600"]) == 0
        assert main(["--out", str(out), "train", "--data", str(out / "dataset.csv"),
                     "--mapping", "f2", "--k", "5"]) == 0
        assert main(["--out", str(out), "evaluate",
                     "--model", str(out / "model-f2.json"),
                     "--data", str(out / "dataset.csv")]) == 0
        assert main(["--seed", "11", "--out", str(out), "sweep",
                     "--mapping", "f3", "--sizes", "200,400"]) == 0
        outs.append(out)

    names = ("dataset.csv", "class-metrics.csv", "sweep.csv")
    same = {n: (outs[0] / n).read_bytes() == (outs[1] / n).read_bytes() for n in names}
    ok = all(same.values())
    _verdict(10, "determinism", ok,
             "byte-identical across two seeded runs: "
             + ", ".join(f"{n}={'yes' if v else 'NO'}" for n, v in same.items()))
    assert ok


def test_big_dataset_writes_the_recorded_bytes(big_dataset, tmp_path):
    # the bytes `gen-data --n 50000` writes at seed 42
    write_csv(big_dataset, tmp_path / "dataset.csv")
    hold(digest((tmp_path / "dataset.csv").read_bytes()), GOLDEN["gen-data --n 50000"]["42"],
         "write_csv of the 50k seed-42 dataset")
