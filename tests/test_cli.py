import json

import pytest

from artifact.cli import main


def run(*argv):
    return main(list(argv))


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    """A tmpdir with a small generated dataset and a fixed-hyper model."""
    root = tmp_path_factory.mktemp("cli")
    assert run("--seed", "5", "--out", str(root), "gen-data", "--n", "300") == 0
    assert run("--out", str(root), "train", "--data", str(root / "dataset.csv"),
               "--mapping", "f3", "--k", "3") == 0
    return root


def test_gen_data_writes_csv_and_sidecar(workdir, capsys):
    assert (workdir / "dataset.csv").exists()
    assert (workdir / "dataset.meta.json").exists()
    meta = json.loads((workdir / "dataset.meta.json").read_text())
    assert meta["n"] == 300 and meta["seed"] == 5


def test_gen_data_is_byte_deterministic(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    assert run("--seed", "9", "--out", str(a), "gen-data", "--n", "120") == 0
    assert run("--seed", "9", "--out", str(b), "gen-data", "--n", "120") == 0
    assert (a / "dataset.csv").read_bytes() == (b / "dataset.csv").read_bytes()
    assert run("--seed", "10", "--out", str(b), "gen-data", "--n", "120") == 0
    assert (a / "dataset.csv").read_bytes() != (b / "dataset.csv").read_bytes()


def test_train_writes_model(workdir, capsys):
    path = workdir / "model-f3.json"
    assert path.exists()
    doc = json.loads(path.read_text())
    assert doc["schema"] == "knn-model/1"
    assert doc["k"] == 3


def test_tune_reports_best(workdir, capsys):
    cfg = workdir / "cfg.json"
    cfg.write_text(json.dumps({"space": {"k_range": [1, 3, 5]}}))
    code = run("--out", str(workdir), "--config", str(cfg), "tune",
               "--data", str(workdir / "dataset.csv"), "--mapping", "f3",
               "--n-iter", "6")
    assert code == 0
    out = capsys.readouterr().out
    assert "best: k=" in out
    doc = json.loads((workdir / "tuning-f3.json").read_text())
    assert len(doc["trials"]) == 6
    assert doc["best_score"] == max(t["score"] for t in doc["trials"])


def test_evaluate_writes_reports(workdir, capsys):
    code = run("--out", str(workdir), "evaluate",
               "--model", str(workdir / "model-f3.json"),
               "--data", str(workdir / "dataset.csv"))
    assert code == 0
    out = capsys.readouterr().out
    assert "validation accuracy:" in out
    assert (workdir / "confusion.txt").read_text().startswith("pred\\true")
    lines = (workdir / "class-metrics.csv").read_text().splitlines()
    assert lines[0] == "class,precision,recall,f_score,mcc"
    assert len(lines) == 5


def test_apply_scenario(workdir, capsys):
    scen = workdir / "scenario.json"
    scen.write_text(json.dumps({"pair12": "equal", "n": 80, "seed": 2}))
    code = run("--out", str(workdir), "apply",
               "--model", str(workdir / "model-f3.json"),
               "--scenario", str(scen))
    assert code == 0
    out = capsys.readouterr().out
    assert "winner: class" in out
    doc = json.loads((workdir / "scenario-result.json").read_text())
    assert doc["spec"]["pair12"] == "equal"
    assert len(doc["unit_counts"]) == 4
    assert doc["winner"] == doc["unit_counts"].index(max(doc["unit_counts"]))


def test_sweep_command(tmp_path, capsys):
    out = tmp_path / "o"
    code = run("--seed", "3", "--out", str(out), "sweep",
               "--mapping", "f3", "--sizes", "60,120")
    assert code == 0
    csv = (out / "sweep.csv").read_text()
    assert csv.splitlines()[0] == "n,knn_accuracy,tree_accuracy"
    assert (out / "sweep.dat").read_text().splitlines()[0].startswith("#")


def test_oracle_check_smoke(capsys):
    code = run("--seed", "1", "oracle-check", "--draws", "1",
               "--t-final", "500", "--n-traj", "12")
    assert code == 0
    out = capsys.readouterr().out
    assert "worst |z|" in out


# --- failure modes ----------------------------------------------------------------

def test_exit_code_validation(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text("{broken")
    code = run("--config", str(cfg), "--out", str(tmp_path), "gen-data", "--n", "5")
    assert code == 2
    assert "config" in capsys.readouterr().err


def test_exit_code_missing_file(tmp_path, capsys):
    code = run("--out", str(tmp_path), "evaluate",
               "--model", str(tmp_path / "nope.json"),
               "--data", str(tmp_path / "nope.csv"))
    assert code == 2


def test_exit_code_numerical(workdir, tmp_path, capsys):
    # an impossible strict inequality surfaces as the numerical exit code
    scen = tmp_path / "bad.json"
    scen.write_text(json.dumps({
        "pair12": "greater", "n": 5,
        "ranges": [[0.9, 0.9], [0.9, 0.9], [0.8, 1.0], [0.8, 1.0]],
    }))
    code = run("--out", str(tmp_path), "apply",
               "--model", str(workdir / "model-f3.json"),
               "--scenario", str(scen))
    assert code == 3
    assert "acceptance rate" in capsys.readouterr().err


def test_argparse_rejects_unknown_mapping(workdir, capsys):
    with pytest.raises(SystemExit) as exc:
        run("train", "--data", str(workdir / "dataset.csv"), "--mapping", "f9")
    assert exc.value.code == 2


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        run("--version")
    assert exc.value.code == 0
    import artifact

    assert artifact.__version__ in capsys.readouterr().out


def _run_with_config(workdir, tmp_path, cfg, command):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    extra = {"train": ["--data", str(workdir / "dataset.csv"), "--mapping", "f3", "--k", "3"],
             "tune": ["--data", str(workdir / "dataset.csv"), "--mapping", "f3", "--n-iter", "2"],
             "gen-data": ["--n", "20"],
             "sweep": ["--mapping", "f3", "--sizes", "60"]}[command]
    return run("--out", str(tmp_path), "--config", str(path), command, *extra)


@pytest.mark.parametrize("cfg,command,key", [
    ({"zscor": True}, "train", "zscor"),
    ({"space": {"k_range": [1, 3], "k_rang": [5]}}, "tune", "k_rang"),
    ({"variant": "consistent"}, "gen-data", "variant"),
], ids=["top-level", "space", "variant"])
def test_config_rejects_unknown_keys(workdir, tmp_path, capsys, cfg, command, key):
    assert _run_with_config(workdir, tmp_path, cfg, command) == 2
    assert repr(key) in capsys.readouterr().err


@pytest.mark.parametrize("cfg,command,key", [
    ({"zscore": "no"}, "train", "zscore"),
    ({"zscore": 1}, "tune", "zscore"),
    ({"train_frac": "0.7"}, "gen-data", "train_frac"),
    ({"train_frac": True}, "gen-data", "train_frac"),
    ({"folds": "3"}, "sweep", "folds"),
    ({"folds": 3.0}, "sweep", "folds"),
    ({"ranges": {"t_c": [1]}}, "gen-data", "t_c"),
    ({"ranges": {"t_c": 5}}, "gen-data", "t_c"),
    ({"ranges": {"t_c": [0.5, "1"]}}, "gen-data", "t_c"),
    ({"ranges": [[0.5, 1.0]]}, "gen-data", "ranges"),
    ({"space": {"k_range": "abc"}}, "tune", "k_range"),
    ({"space": {"k_range": [1.5]}}, "tune", "k_range"),
    ({"space": {"k_range": 5}}, "tune", "k_range"),
    ({"space": {"metrics": "euclidean"}}, "tune", "metrics"),
], ids=["zscore-string", "zscore-int", "train-frac-string", "train-frac-bool", "folds-string",
        "folds-float", "range-one-number", "range-scalar", "range-string-bound", "ranges-list",
        "k-range-string", "k-range-fraction", "k-range-scalar", "metrics-string"])
def test_config_rejects_bad_values(workdir, tmp_path, capsys, cfg, command, key):
    assert _run_with_config(workdir, tmp_path, cfg, command) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and key in err


def _truncate(doc, name):
    doc[name] = doc[name][:-1]


@pytest.mark.parametrize("edit", [
    lambda doc: _truncate(doc, "labels"),
    lambda doc: doc["features"][0].__setitem__(0, float("nan")),
    lambda doc: doc["features"][1].__setitem__(1, float("inf")),
    lambda doc: doc["scale"].__setitem__(0, 0.0),
    lambda doc: doc["shift"].append(0.0),
    lambda doc: _truncate(doc, "scale"),
    lambda doc: doc.__setitem__("feature_subset", [0, 9]),
    lambda doc: doc.__setitem__("feature_subset", [-1, -1]),
    lambda doc: doc.__setitem__("feature_subset", [0.5, 1]),
], ids=["length-mismatch", "nan-feature", "inf-feature", "zero-scale", "shift-width", "scale-width",
        "subset-beyond-width", "subset-negative", "subset-fraction"])
def test_bad_model_file_exits_2(workdir, tmp_path, capsys, edit):
    doc = json.loads((workdir / "model-f3.json").read_text())
    edit(doc)
    path = tmp_path / "model.json"
    path.write_text(json.dumps(doc))
    code = run("--out", str(tmp_path), "evaluate", "--model", str(path),
               "--data", str(workdir / "dataset.csv"))
    assert code == 2
    assert "error:" in capsys.readouterr().err
