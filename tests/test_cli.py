import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import artifact
from artifact.cli import main
from model_doc import decode, put, reencode


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
    assert doc["schema"] == "knn-model/2"
    assert doc["k"] == 3


def test_train_is_byte_deterministic(workdir, tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    for out in (a, b):
        assert run("--seed", "4", "--out", str(out), "train", "--data", str(workdir / "dataset.csv"),
                   "--mapping", "f2", "--k", "7", "--weighting", "distance") == 0
    assert (a / "model-f2.json").read_bytes() == (b / "model-f2.json").read_bytes()
    assert (a / "model-f2.json").read_bytes().startswith(b'{"schema": "knn-model/2"')


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
    assert type(doc["vote_fallbacks"]) is int and doc["vote_fallbacks"] >= 0


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


@pytest.mark.parametrize("edit, message", [
    pytest.param(lambda doc: reencode(doc, "labels", lambda a: a[:-1]),
                 "labels must be one per training row", id="length-mismatch"),
    pytest.param(lambda doc: reencode(doc, "features", put((0, 0), np.nan)),
                 "training features must be finite", id="nan-feature"),
    pytest.param(lambda doc: reencode(doc, "features", put((1, 1), np.inf)),
                 "training features must be finite", id="inf-feature"),
    pytest.param(lambda doc: reencode(doc, "scale", put(0, 0.0)),
                 "scale nonzero", id="zero-scale"),
    pytest.param(lambda doc: reencode(doc, "shift", lambda a: np.append(a, 0.0)),
                 "shift and scale must hold 2 entries", id="shift-width"),
    pytest.param(lambda doc: reencode(doc, "scale", lambda a: a[:-1]),
                 "shift and scale must hold 2 entries", id="scale-width"),
    pytest.param(lambda doc: doc.__setitem__("feature_subset", [0, 9]),
                 "exceeds the dataset's", id="subset-beyond-width"),
    pytest.param(lambda doc: doc.__setitem__("feature_subset", [0]),
                 "feature matrix width must match", id="subset-narrower"),
    pytest.param(lambda doc: doc.__setitem__("feature_subset", [-1, -1]),
                 "feature subset must be non-negative integers", id="subset-negative"),
    pytest.param(lambda doc: doc.__setitem__("feature_subset", [0.5, 1]),
                 "feature subset must be non-negative integers", id="subset-fraction"),
    pytest.param(lambda doc: doc.__setitem__("feature_subset", 2),
                 "malformed model document", id="subset-not-a-list"),
    pytest.param(lambda doc: reencode(doc, "labels", lambda a: a + 0.5, "<f8"),
                 "labels dtype must be '|i1', got '<f8'", id="label-fraction"),
    pytest.param(lambda doc: reencode(doc, "labels", lambda a: a.astype(np.int64) + 2**40, "<i8"),
                 "labels dtype must be '|i1', got '<i8'", id="label-overflow"),
    pytest.param(lambda doc: reencode(doc, "labels", put(0, 4)),
                 "labels must lie in [0, 4)", id="label-beyond-classes"),
    pytest.param(lambda doc: reencode(doc, "labels", put(1, -1)),
                 "labels must lie in [0, 4)", id="label-negative"),
    pytest.param(lambda doc: reencode(doc, "scale", lambda a: a != 0.0),
                 "scale dtype must be '<f8', got '|b1'", id="bool-scale"),
    pytest.param(lambda doc: reencode(doc, "shift", lambda a: a.astype(str)),
                 "shift dtype must be '<f8', got '<U", id="string-shift"),
    pytest.param(lambda doc: reencode(doc, "features", lambda a: a, "<f4"),
                 "features dtype must be '<f8', got '<f4'", id="float32-features"),
    pytest.param(lambda doc: reencode(doc, "features", lambda a: a, ">f8"),
                 "features dtype must be '<f8', got '>f8'", id="big-endian-features"),
    pytest.param(lambda doc: doc["features"].pop("dtype"),
                 "model document missing field 'dtype'", id="missing-dtype"),
    pytest.param(lambda doc: reencode(doc, "features", np.ravel),
                 "features must be 2-D, got shape", id="flat-features"),
    pytest.param(lambda doc: doc["features"].__setitem__("shape", [-1, 2]),
                 "features shape must be a list of non-negative integers", id="shape-negative"),
    pytest.param(lambda doc: doc["labels"].__setitem__("shape", [True]),
                 "labels shape must be a list of non-negative integers", id="shape-bool"),
    pytest.param(lambda doc: doc["shift"].__setitem__("shape", [2.0]),
                 "shift shape must be a list of non-negative integers", id="shape-fraction"),
    pytest.param(lambda doc: doc["scale"].__setitem__("shape", 2),
                 "scale shape must be a list of non-negative integers", id="shape-not-a-list"),
    pytest.param(lambda doc: doc["features"].__setitem__("data", decode(doc, "features").tolist()),
                 "features data must be a base64 string, got list", id="string-features"),
    pytest.param(lambda doc: doc["scale"].__setitem__("data", 1.0),
                 "scale data must be a base64 string, got float", id="data-not-a-string"),
    pytest.param(lambda doc: doc["features"].__setitem__("data", "!" + doc["features"]["data"][1:]),
                 "features data is not base64", id="data-stray-character"),
    pytest.param(lambda doc: doc["shift"].__setitem__("data", doc["shift"]["data"].rstrip("=")),
                 "shift data is not base64", id="data-bad-padding"),
    pytest.param(lambda doc: doc["features"].__setitem__("data", doc["features"]["data"][:-8]),
                 "features data holds", id="truncated-data"),
    pytest.param(lambda doc: doc.__setitem__("shift", decode(doc, "shift").tolist()),
                 "model shift must be a JSON object", id="inline-list-shift"),
    pytest.param(lambda doc: doc["labels"].__setitem__("order", "C"),
                 "unknown model labels key 'order'", id="unknown-array-key"),
])
def test_bad_model_file_exits_2(workdir, tmp_path, capsys, edit, message):
    doc = json.loads((workdir / "model-f3.json").read_text())
    edit(doc)
    path = tmp_path / "model.json"
    path.write_text(json.dumps(doc))
    code = run("--out", str(tmp_path), "evaluate", "--model", str(path),
               "--data", str(workdir / "dataset.csv"))
    assert code == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error:") and message in captured.err
    assert captured.out == ""


@pytest.mark.parametrize("schema", ["knn-model/1", "knn-model/3", None])
def test_model_of_another_schema_exits_2(workdir, tmp_path, capsys, schema):
    # a knn-model/1 file held its arrays as JSON lists; it is not converted
    doc = json.loads((workdir / "model-f3.json").read_text())
    for name in ("features", "labels", "shift", "scale"):
        doc[name] = decode(doc, name).tolist()
    doc["schema"] = schema
    path = tmp_path / "model.json"
    path.write_text(json.dumps(doc))
    code = run("--out", str(tmp_path), "evaluate", "--model", str(path),
               "--data", str(workdir / "dataset.csv"))
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error: expected schema 'knn-model/2', got ")
    assert repr(schema) in err and "re-run train" in err


@pytest.mark.parametrize("key", ["schema ", "Features", "version"])
def test_model_with_an_unknown_key_exits_2(workdir, tmp_path, capsys, key):
    doc = json.loads((workdir / "model-f3.json").read_text())
    doc[key] = doc.get(key.strip().lower(), 1)
    path = tmp_path / "model.json"
    path.write_text(json.dumps(doc))
    code = run("--out", str(tmp_path), "evaluate", "--model", str(path),
               "--data", str(workdir / "dataset.csv"))
    assert code == 2
    assert capsys.readouterr().err.startswith(f"error: unknown model document key {key!r}")


def test_one_parser_serves_every_call(tmp_path, capsys):
    # the parser is built once per process: no call, failed or not, may
    # leave state that a later call sees. Each run is compared with a
    # lone run in a fresh process: the CSV, and stdout past its path line.
    def gen(*argv, out):
        assert run(*argv, "--out", str(tmp_path / out), "gen-data", "--n", "40") == 0
        return (tmp_path / out / "dataset.csv").read_bytes(), capsys.readouterr().out.split("\n")[1:]

    fresh = subprocess.run(
        [sys.executable, "-c", "import sys; from artifact.cli import main; sys.exit(main(sys.argv[1:]))",
         "--out", str(tmp_path / "fresh"), "gen-data", "--n", "40"],
        check=True, capture_output=True, text=True,
        env={"PYTHONPATH": str(Path(artifact.__file__).parents[1])})
    alone = (tmp_path / "fresh" / "dataset.csv").read_bytes(), fresh.stdout.split("\n")[1:]
    with pytest.raises(SystemExit) as exc:
        run("gen-data", "--n", "forty")
    assert exc.value.code == 2 and "invalid int value: 'forty'" in capsys.readouterr().err
    assert gen(out="after-error") == alone
    with pytest.raises(SystemExit) as exc:
        run("--version")
    assert exc.value.code == 0 and capsys.readouterr().out == f"{artifact.__version__}\n"
    assert gen(out="after-version") == alone
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"train_frac": 0.5}))
    assert gen("--config", str(cfg), "--seed", "9", out="configured")[0] != alone[0]
    assert gen(out="after-config") == alone
    meta = json.loads((tmp_path / "after-config" / "dataset.meta.json").read_text())
    assert meta["seed"] == 0 and meta["train_frac"] == 0.7


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
    # an array's data must be base64 text: neither a non-base64 string nor a JSON value
    doc = json.loads((workdir / "model-f3.json").read_text())
    doc[name]["data"] = bad
    path = tmp_path / "model.json"
    path.write_text(json.dumps(doc))
    scen = tmp_path / "scenario.json"
    scen.write_text(json.dumps({"pair12": "equal", "n": 20, "seed": 2}))
    code = run("--out", str(tmp_path), "apply", "--model", str(path), "--scenario", str(scen))
    assert code == 2
    captured = capsys.readouterr()
    assert captured.err.startswith(f"error: {name} data ") and "base64" in captured.err
