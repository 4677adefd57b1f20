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


@pytest.mark.parametrize("argv, message", [
    (["tune", "--mapping", "f3", "--n-iter", "0"], "n_iter must be >= 1"),
    (["sweep", "--mapping", "f3", "--sizes", "60,abc"], "--sizes must be comma-separated integers"),
], ids=["tune-no-trials", "sweep-size-not-a-number"])
def test_bad_counts_exit_2(workdir, tmp_path, capsys, argv, message):
    if argv[0] == "tune":
        argv += ["--data", str(workdir / "dataset.csv")]
    assert run("--out", str(tmp_path), *argv) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error:") and message in captured.err
    assert captured.out == "" and not any(tmp_path.iterdir())


def test_oracle_check_smoke(capsys):
    code = run("--seed", "1", "oracle-check", "--draws", "1",
               "--t-final", "500", "--n-traj", "12")
    assert code == 0
    out = capsys.readouterr().out
    assert "worst |z|" in out


# --- failure modes ----------------------------------------------------------------

@pytest.mark.parametrize("t_final", ["inf", "nan", "0"])
def test_oracle_check_rejects_bad_horizon(t_final, capsys):
    code = run("--seed", "1", "oracle-check", "--draws", "1",
               "--t-final", t_final, "--n-traj", "12")
    assert code == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error:") and "t_final must be finite and positive" in captured.err
    assert captured.out == ""  # rejected before the table header


def test_oracle_check_rejects_too_few_trajectories(capsys):
    code = run("--seed", "1", "oracle-check", "--draws", "1",
               "--t-final", "10", "--n-traj", "2")
    assert code == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error:") and "n_traj >= 3" in captured.err
    assert captured.out == ""


@pytest.mark.parametrize("draws", ["0", "-3"])
def test_oracle_check_rejects_no_draws(draws, capsys):
    code = run("--seed", "1", "oracle-check", "--draws", draws,
               "--t-final", "500", "--n-traj", "12")
    assert code == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error:") and "--draws must be >= 1" in captured.err
    assert captured.out == ""


@pytest.mark.parametrize("sidecar, message", [
    ("[1]", "dataset.meta.json must be a JSON object"),
    ("null", "dataset.meta.json must be a JSON object"),
    ("{broken", "malformed sidecar"),
], ids=["[1]", "null", "not-json"])
def test_sidecar_not_an_object_exits_2(workdir, tmp_path, capsys, sidecar, message):
    data = tmp_path / "dataset.csv"
    data.write_text((workdir / "dataset.csv").read_text())
    (tmp_path / "dataset.meta.json").write_text(sidecar)
    code = run("--out", str(tmp_path), "train", "--data", str(data), "--mapping", "f3", "--k", "3")
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and message in err


@pytest.mark.parametrize("tau", [float("nan"), float("inf")])
def test_sidecar_bad_tau_exits_2(workdir, tmp_path, capsys, tau):
    data = tmp_path / "dataset.csv"
    data.write_text((workdir / "dataset.csv").read_text())
    meta = json.loads((workdir / "dataset.meta.json").read_text())
    meta["fixed"]["tau"] = tau
    (tmp_path / "dataset.meta.json").write_text(json.dumps(meta))
    code = run("--out", str(tmp_path), "train", "--data", str(data), "--mapping", "f3", "--k", "3")
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "tau must be finite and non-negative" in err


def test_exit_code_validation(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text("{broken")
    code = run("--config", str(cfg), "--out", str(tmp_path), "gen-data", "--n", "5")
    assert code == 2
    assert "config" in capsys.readouterr().err


@pytest.mark.parametrize("bad", ["config", "dataset", "sidecar", "model", "scenario",
                                 "sidecar-directory"])
def test_unreadable_input_exits_2(workdir, tmp_path, capsys, bad):
    # a file that is not UTF-8, or a directory where the sidecar goes
    inputs, out = tmp_path / "in", tmp_path / "out"
    inputs.mkdir()
    for name in ("dataset.csv", "dataset.meta.json", "model-f3.json"):
        (inputs / name).write_bytes((workdir / name).read_bytes())
    (inputs / "cfg.json").write_text('{"folds": 3}')
    (inputs / "scenario.json").write_text(json.dumps({"pair12": "equal", "n": 20}))
    if bad == "sidecar-directory":
        (inputs / "dataset.meta.json").unlink()
        (inputs / "dataset.meta.json").mkdir()
    else:
        path = inputs / {"config": "cfg.json", "dataset": "dataset.csv", "sidecar": "dataset.meta.json",
                         "model": "model-f3.json", "scenario": "scenario.json"}[bad]
        path.write_bytes(b"\xff" + path.read_bytes())
    data, model = str(inputs / "dataset.csv"), str(inputs / "model-f3.json")
    argv = {"config": ["--config", str(inputs / "cfg.json"), "gen-data", "--n", "20"],
            "dataset": ["train", "--data", data, "--mapping", "f3"],
            "model": ["evaluate", "--model", model, "--data", data],
            "scenario": ["apply", "--model", model, "--scenario", str(inputs / "scenario.json")]}
    argv["sidecar"] = argv["sidecar-directory"] = argv["dataset"]
    assert run("--out", str(out), *argv[bad]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error: cannot read ")
    assert captured.out == "" and not out.exists()


@pytest.mark.parametrize("text, key", [
    ('{"folds": 3, "folds": 9}', "folds"),
    ('{"space": {"k_range": [1, 3], "k_range": [5]}}', "k_range"),
], ids=["top-level", "space"])
def test_config_refuses_a_repeated_key(tmp_path, capsys, text, key):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(text)
    assert run("--config", str(cfg), "--out", str(tmp_path / "o"), "gen-data", "--n", "20") == 2
    captured = capsys.readouterr()
    assert captured.err.startswith(f"error: malformed config: repeated key {key!r}")
    assert captured.out == "" and not (tmp_path / "o").exists()


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
             "evaluate": ["--model", str(workdir / "model-f3.json"),
                          "--data", str(workdir / "dataset.csv")],
             "gen-data": ["--n", "20"],
             "sweep": ["--mapping", "f3", "--sizes", "60"]}[command]
    return run("--out", str(tmp_path), "--config", str(path), command, *extra)


@pytest.mark.parametrize("cfg,command,key", [
    ({"zscor": True}, "train", "zscor"),
    ({"space": {"k_range": [1, 3], "k_rang": [5]}}, "tune", "k_rang"),
    ({"variant": "consistent"}, "gen-data", "variant"),
    ({"ranges": {"t_x": [0.5, 1.0]}}, "gen-data", "t_x"),
], ids=["top-level", "space", "variant", "ranges"])
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
    ({"space": {"k_range": [3, 3], "weightings": ["uniform"], "metrics": ["euclidean"]}},
     "tune", "k_range"),
    ({"space": {"weightings": ["distance", "distance"]}}, "tune", "weightings"),
    ({"space": []}, "tune", "space"),
    ({"space": None}, "tune", "space"),
    ({"space": 0}, "tune", "space"),
    ({"space": ""}, "tune", "space"),
    ({"space": False}, "tune", "space"),
    ({"space": "{}"}, "tune", "space"),
    # every key is checked at load, also one the command does not read
    ({"ranges": 5}, "train", "ranges"),
    ({"space": [1]}, "evaluate", "space"),
    ({"train_frac": 7}, "tune", "train_frac"),
    ({"space": {"weightings": ["gaussian"]}}, "tune", "weightings"),
    ({"space": {"metrics": ["cosine"]}}, "tune", "metrics"),
    ([1], "train", "config must be a JSON object"),
], ids=["zscore-string", "zscore-int", "train-frac-string", "train-frac-bool", "folds-string",
        "folds-float", "range-one-number", "range-scalar", "range-string-bound", "ranges-list",
        "k-range-string", "k-range-fraction", "k-range-scalar", "metrics-string",
        "k-range-duplicate", "weightings-duplicate", "space-empty-list", "space-null",
        "space-zero", "space-empty-string", "space-false", "space-json-text", "unread-ranges", "unread-space",
        "unread-train-frac", "weightings-unknown", "metrics-unknown", "config-list"])
def test_config_rejects_bad_values(workdir, tmp_path, capsys, cfg, command, key):
    assert _run_with_config(workdir, tmp_path, cfg, command) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error:") and key in captured.err
    assert captured.out == "" and [p.name for p in tmp_path.iterdir()] == ["cfg.json"]


@pytest.mark.parametrize("folds", [1, 0, -3])
@pytest.mark.parametrize("command", ["tune", "sweep"])
def test_config_rejects_too_few_folds(workdir, tmp_path, capsys, monkeypatch, command, folds):
    from artifact import cli

    def no_generate(*args, **kwargs):
        raise AssertionError("config must be rejected before any dataset is generated")

    monkeypatch.setattr(cli, "run_size_sweep", no_generate)
    assert _run_with_config(workdir, tmp_path, {"folds": folds}, command) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "'folds' must be >= 2" in err
    assert not (tmp_path / "sweep.csv").exists() and not (tmp_path / "tuning-f3.json").exists()


def test_tune_takes_folds_from_config(workdir, tmp_path):
    data = str(workdir / "dataset.csv")

    def tuning(name, cfg):
        out = tmp_path / name
        argv = ["--out", str(out)]
        if cfg is not None:
            (tmp_path / f"{name}.json").write_text(json.dumps(cfg))
            argv += ["--config", str(tmp_path / f"{name}.json")]
        assert run(*argv, "tune", "--data", data, "--mapping", "f3", "--n-iter", "4") == 0
        return (out / "tuning-f3.json").read_bytes()

    default = tuning("default", None)
    assert tuning("config-ten", {"folds": 10}) != default
    assert tuning("config-five", {"folds": 5}) == default


def test_tune_has_no_folds_flag(workdir, capsys):
    with pytest.raises(SystemExit) as exc:
        run("tune", "--data", str(workdir / "dataset.csv"), "--mapping", "f3", "--folds", "5")
    assert exc.value.code == 2


@pytest.mark.parametrize("command", ["gen-data", "tune", "sweep", "oracle-check"])
def test_negative_seed_exits_2(workdir, tmp_path, capsys, command):
    extra = {"gen-data": ["--n", "20"],
             "tune": ["--data", str(workdir / "dataset.csv"), "--mapping", "f3", "--n-iter", "2"],
             "sweep": ["--mapping", "f3", "--sizes", "60"],
             "oracle-check": ["--draws", "1", "--t-final", "500", "--n-traj", "12"]}[command]
    assert run("--seed", "-1", "--out", str(tmp_path / "o"), command, *extra) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error:") and "--seed must be >= 0" in captured.err
    assert captured.out == "" and not (tmp_path / "o").exists()


@pytest.mark.parametrize("command", ["gen-data", "train", "gen-data-subdir"])
def test_unwritable_output_exits_2(workdir, tmp_path, capsys, command):
    blocker = tmp_path / "file"
    blocker.write_text("")
    argv = {"gen-data": ["--out", str(blocker), "gen-data", "--n", "20"],
            "train": ["--out", str(blocker), "train", "--data", str(workdir / "dataset.csv"),
                      "--mapping", "f3", "--k", "3"],
            "gen-data-subdir": ["--out", str(tmp_path), "gen-data", "--n", "20",
                                "--name", "sub/x"]}[command]
    assert run(*argv) == 2
    assert capsys.readouterr().err.startswith("error: cannot write ")
    assert [p.name for p in tmp_path.iterdir()] == ["file"]


@pytest.mark.parametrize("name", ["", ".", "..", "../x", "sub/x", "x/", "absolute"])
def test_gen_data_name_must_be_a_plain_file_name(tmp_path, capsys, name):
    out = tmp_path / "o" / "p"
    if name == "absolute":  # a writable place outside --out
        name = str(tmp_path / "x")
    assert run("--out", str(out), "gen-data", "--n", "20", "--name", name) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error: cannot write ") and "--name must be" in captured.err
    assert captured.out == "" and list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("train_frac", [0.0001, 0.9999])
def test_gen_data_rejects_an_empty_split(tmp_path, capsys, train_frac):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"train_frac": train_frac}))
    assert run("--config", str(cfg), "--out", str(tmp_path), "gen-data", "--n", "50") == 2
    assert "empty" in capsys.readouterr().err
    assert not (tmp_path / "dataset.csv").exists()


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
    lambda doc: doc.__setitem__("feature_subset", [0]),
    lambda doc: doc.__setitem__("feature_subset", [-1, -1]),
    lambda doc: doc.__setitem__("feature_subset", [0.5, 1]),
    lambda doc: doc.__setitem__("labels", [v + 0.5 for v in doc["labels"]]),
    lambda doc: doc["labels"].__setitem__(0, 2**70),
    lambda doc: doc.__setitem__("features", [[str(v) for v in row] for row in doc["features"]]),
    lambda doc: doc.__setitem__("scale", [True] * len(doc["scale"])),
    lambda doc: doc["shift"].__setitem__(0, str(doc["shift"][0])),
], ids=["length-mismatch", "nan-feature", "inf-feature", "zero-scale", "shift-width", "scale-width",
        "subset-beyond-width", "subset-narrower", "subset-negative", "subset-fraction", "label-fraction",
        "label-overflow", "string-features", "bool-scale", "string-shift"])
def test_bad_model_file_exits_2(workdir, tmp_path, capsys, edit):
    doc = json.loads((workdir / "model-f3.json").read_text())
    edit(doc)
    path = tmp_path / "model.json"
    path.write_text(json.dumps(doc))
    code = run("--out", str(tmp_path), "evaluate", "--model", str(path),
               "--data", str(workdir / "dataset.csv"))
    assert code == 2
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("metric, big", [("euclidean", 1e200), ("manhattan", 1e308)])
def test_train_refuses_overflowing_features(tmp_path, capsys, metric, big):
    # c1 = c3 = +-big on every other row: distances between them pass the float range
    assert run("--seed", "1", "--out", str(tmp_path), "gen-data", "--n", "40") == 0
    path = tmp_path / "dataset.csv"
    lines = path.read_text().splitlines()
    for i in range(1, len(lines), 2):
        cells = lines[i].split(",")
        cells[0] = cells[2] = repr(big if i % 4 == 1 else -big)
        lines[i] = ",".join(cells)
    path.write_text("\n".join(lines) + "\n")
    capsys.readouterr()
    code = run("--out", str(tmp_path), "train", "--data", str(path), "--mapping", "f1",
               "--k", "3", "--metric", metric, "--weighting", "distance")
    assert code == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error:") and "overflow" in captured.err
    assert captured.out == "" and not (tmp_path / "model-f1.json").exists()


@pytest.mark.parametrize("name, bad", [("features", "0.93"), ("scale", True)])
def test_apply_rejects_model_without_json_numbers(workdir, tmp_path, capsys, name, bad):
    doc = json.loads((workdir / "model-f3.json").read_text())
    doc[name] = [[bad] * len(row) for row in doc[name]] if name == "features" else [bad] * len(doc[name])
    path = tmp_path / "model.json"
    path.write_text(json.dumps(doc))
    scen = tmp_path / "scenario.json"
    scen.write_text(json.dumps({"pair12": "equal", "n": 20, "seed": 2}))
    code = run("--out", str(tmp_path), "apply", "--model", str(path), "--scenario", str(scen))
    assert code == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error:") and f"{name} must hold JSON numbers" in captured.err
