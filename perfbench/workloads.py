"""The four workloads: set-up, one timed operation, and its checks.

Each workload is a closed loop with one client: the next operation starts
when the previous one has returned. Operations call the documented
commands in-process through `artifact.cli.main(argv)`, or public functions
where no command exists. Inputs come from the workload seed; the program
sees only that seed and the scenario files written here.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import re
import traceback
from pathlib import Path
from time import perf_counter

import numpy as np

from artifact import cli, counting, data, engine, experiments, fdcheck, knn

import reference

FEATURE_ENVELOPE = (0.70, 1.05)   # acceptance 5
# Largest route difference seen between the SVD null space and a dense
# solve is 2.7e-10 relative; this tolerance sits ~40x above it.
FEATURE_RTOL = 1e-8
FD_RTOL = 1e-6                    # acceptance 2
Z_LIMIT = 3.0                     # acceptance 3
CSV_HEADER = "c1,c2,c3,c4,label,t_c,t_h,t_l,p_c,p_h,split"


def run_cli(argv):
    """(exit code, captured stdout, seconds) of one in-process command."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        t0 = perf_counter()
        try:
            code = cli.main([str(a) for a in argv])
        except SystemExit as exc:  # argparse rejects its input this way
            code = exc.code if isinstance(exc.code, int) else 2
        except Exception:  # a crash is a failed operation; the loop goes on
            code = -1
            out.write(traceback.format_exc())
        seconds = perf_counter() - t0
    return code, out.getvalue(), seconds


def digest(path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def load_csv(path):
    """Columns of a dataset CSV, parsed here from the documented format."""
    lines = Path(path).read_text().splitlines()
    if not lines or lines[0] != CSV_HEADER:
        raise ValueError(f"{path}: unexpected header")
    rows = [line.split(",") for line in lines[1:] if line]
    num = np.array([r[:10] for r in rows], dtype=float)
    return {
        "x": num[:, :4],
        "y": num[:, 4].astype(np.intp),
        "params": num[:, 5:10],
        "train": np.array([r[10] == "train" for r in rows]),
    }


def engine_params(row, fixed):
    t_c, t_h, t_l, p_c, p_h = (float(v) for v in row)
    return engine.EngineParams(t_c=t_c, t_h=t_h, t_l=t_l, p_c=p_c, p_h=p_h, **fixed)


class Workload:
    name = ""
    setups = 3      # set-up repetitions; setup_s is their median
    min_ops = 2     # at least two, so every run repeats an output it can compare
    interpreter_share: float   # weight of the interpreter kernel in hostspeed.HostSpeed.factor

    def __init__(self, seed: int, work: Path, tracer=None):
        self.seed = seed
        self.work = work
        self.tracer = tracer
        self.rng = np.random.default_rng(seed)   # spot-check picks and fd draws
        self.attempted = 0
        self.failed = 0
        self.failures = []
        self.setup_spans = []   # (start, end) of each set-up
        self.op_spans = []      # (start, end) of each operation's timed section
        self.op_traced = []     # whether each operation ran traced
        self.timings = {"call": [], "rate": []}   # (operation index, value)
        self.extra = {}                        # per-layer values the trace cannot see
        self.first = {}                        # first output of each kind, for repeats
        self._bad = set()

    # -- bookkeeping -----------------------------------------------------
    def expect(self, ok, label, message):
        if not ok:
            self._bad.add(label)
            self.failures.append(f"{label}: {message}")
        return ok

    def cli(self, label, argv):
        code, out, seconds = run_cli(argv)
        self.attempted += 1
        self.expect(code == 0, label, f"exit code {code}: {out[-400:]}")
        return code == 0, out, seconds

    def close_op(self):
        self.failed += len(self._bad)
        self._bad = set()

    def same_as_first(self, key, value, label):
        """Determinism: a repeated input gives the output first seen for it."""
        first = self.first.setdefault(key, value)
        return self.expect(first == value, label, f"{key} differs from its first run")

    def guarded(self, label, check, *args):
        """Run a check; output it cannot even read fails the operation."""
        try:
            check(*args)
        except (OSError, ValueError, KeyError, IndexError, TypeError) as exc:
            self.expect(False, label, f"unreadable output: {exc!r}")

    def check_reference(self, model, queries, label):
        """Predictions and probabilities equal the scalar reference bit for bit."""
        proba = knn.predict_proba_batch(model, queries)
        preds = knn.predict_batch(model, queries)
        for q, p, c in zip(queries, proba, preds):
            ref = reference.model_proba(model, q)
            if not self.expect(np.array_equal(p, ref) and c == int(np.argmax(ref)), label,
                               f"query {q.tolist()}: {p.tolist()} / class {c}, "
                               f"reference {ref.tolist()}"):
                break

    def record(self, kind, value):
        """A timing of the current operation: seconds of one call, or items per second."""
        self.timings[kind].append((len(self.op_spans) - 1, value))

    @contextlib.contextmanager
    def timed(self, traced):
        """The timed section of one operation."""
        ctx = self.tracer.root() if traced else contextlib.nullcontext()
        span = [0.0, 0.0]
        self.op_spans.append(span)
        self.op_traced.append(traced)
        with ctx:
            span[0] = perf_counter()
            yield
            span[1] = perf_counter()

    # -- phases ----------------------------------------------------------
    def run_setup(self, k):
        d = self.work / f"setup-{k}"
        d.mkdir(parents=True, exist_ok=True)
        t0 = perf_counter()
        self.setup(k, d)
        self.setup_spans.append((t0, perf_counter()))
        self.close_op()

    def setup(self, k, d):
        raise NotImplementedError

    def op(self, i, traced):
        raise NotImplementedError

    def named(self, m) -> dict:
        """The workload's end-to-end metrics under their workload-specific names."""
        raise NotImplementedError


class GenData(Workload):
    name = "gen-data"
    n = 500
    min_ops = 108   # so that call_p90_ms has ten calls beyond it
    spot_rows = 64
    interpreter_share = 1.0

    def setup(self, k, d):
        # A warm-up call: first-call costs leave the timed calls.
        self.cli("setup", ["--seed", self.seed, "--out", d, "gen-data", "--n", self.n])

    def op(self, i, traced):
        d = self.work / "op"
        with self.timed(traced):
            ok, _, seconds = self.cli("gen-data", ["--seed", self.seed, "--out", d,
                                                   "gen-data", "--n", self.n])
        self.record("call", seconds)
        self.record("rate", self.n / seconds)
        if ok:
            self.guarded("gen-data", self.check, d / "dataset.csv")
        self.close_op()

    def named(self, m):
        return {"gen_samples_per_s": m["items_per_s"]}

    def check(self, csv):
        label = "gen-data"
        first = "dataset.csv digest" not in self.first
        self.same_as_first("dataset.csv digest", digest(csv), label)
        meta = json.loads(csv.with_suffix(".meta.json").read_text())
        self.extra["data.generate.accept_ratio"] = self.n / (self.n + meta["redraws"])
        if not first:
            return   # the same bytes as the first operation's, which was checked in full
        cols = load_csv(csv)
        x = cols["x"]
        self.expect(x.shape == (self.n, 4), label, f"{x.shape[0]} rows, expected {self.n}")
        lo, hi = FEATURE_ENVELOPE
        self.expect(bool(np.all(np.isfinite(x)) and np.all((x >= lo) & (x <= hi))), label,
                    f"features outside [{lo}, {hi}]: [{x.min()}, {x.max()}]")
        copy = csv.with_name("roundtrip.csv")
        data.write_csv(data.read_csv(csv), copy)
        self.expect(copy.read_bytes() == csv.read_bytes(), label,
                    "CSV does not round-trip through read_csv/write_csv")
        for r in self.rng.choice(len(x), size=self.spot_rows, replace=False):
            c = reference.exchange_features(engine, engine_params(cols["params"][r], meta["fixed"]),
                                            meta["variant"])
            want = np.array([c[0], c[1], c[0], c[1]])
            err = float(np.max(np.abs(x[r] - want) / np.abs(want)))
            if not self.expect(err <= FEATURE_RTOL, label,
                               f"row {r}: features off the reference by {err:.2e}"):
                break


class Tune(Workload):
    name = "tune"
    n = 5_000
    spot_queries = 8
    checked_in_full = False
    n_queries = 0
    interpreter_share = 0.1

    def setup(self, k, d):
        self.cli("setup", ["--seed", self.seed, "--out", d, "gen-data", "--n", self.n])
        self.same_as_first("setup dataset.csv digest", digest(d / "dataset.csv"), "setup")

    def op(self, i, traced):
        d = self.work / "op"
        csv = self.work / "setup-0" / "dataset.csv"
        with self.timed(traced):
            ok_t, _, tune_s = self.cli("tune", ["--seed", self.seed, "--out", d, "tune",
                                               "--data", csv, "--mapping", "f1", "--n-iter", 60])
            doc = json.loads((d / "tuning-f1.json").read_text()) if ok_t else None
            t0 = perf_counter()
            if doc is not None:
                hp = doc["best"]
                self.cli("train", ["--out", d, "train", "--data", csv, "--mapping", "f1",
                                   "--k", hp["k"], "--weighting", hp["weighting"],
                                   "--metric", hp["metric"]])
                self.cli("evaluate", ["--out", d, "evaluate", "--model", d / "model-f1.json",
                                      "--data", csv])
            train_eval_s = perf_counter() - t0
        self.record("call", tune_s)
        if doc is not None and not self._bad:
            cols = load_csv(csv)
            # train scores both splits, evaluate the validation split
            self.n_queries = len(cols["train"]) + int(np.sum(~cols["train"]))
            self.record("rate", self.n_queries / train_eval_s)
            self.guarded("evaluate", self.check, d, doc, cols)
        self.close_op()

    def named(self, m):
        rate = m["items_per_s"]
        return {"tune_s": m["call_p50_ms"] / 1e3, "train_eval_s": self.n_queries / rate if rate else 0.0}

    def check(self, d, doc, cols):
        outputs = {"tuning-f1.json": "tune", "model-f1.json": "train", "confusion.txt": "evaluate"}
        for name, label in outputs.items():
            self.same_as_first(name, (d / name).read_bytes(), label)
        chi = np.array([line.split()[1:] for line in
                        (d / "confusion.txt").read_text().splitlines()[1:]], dtype=int)
        self.expect(chi.sum() == np.sum(~cols["train"]), "evaluate",
                    f"confusion matrix counts {chi.sum()} validation rows")
        if self.checked_in_full:
            return   # outputs equal the first cycle's, which was checked in full
        self.checked_in_full = True
        tr = cols["train"]
        hp = doc["best"]
        score = knn.kfold_accuracy(cols["x"][tr], cols["y"][tr], k=hp["k"],
                                   weighting=hp["weighting"], metric=hp["metric"],
                                   folds=5, seed=self.seed)
        self.expect(score == doc["best_score"], "tune",
                    f"kfold_accuracy gives {score!r}, tune reported {doc['best_score']!r}")
        model = knn.model_from_json((d / "model-f1.json").read_text())
        rows = np.concatenate([self.rng.choice(np.flatnonzero(~tr), self.spot_queries, replace=False),
                               self.rng.choice(np.flatnonzero(tr), self.spot_queries, replace=False)])
        self.check_reference(model, cols["x"][rows][:, list(model.feature_subset)], "train")


class Apply(Workload):
    name = "apply"
    n = 5_000
    min_ops = 108
    spot_queries = 6
    interpreter_share = 0.4

    def setup(self, k, d):
        self.cli("setup", ["--seed", self.seed, "--out", d, "gen-data", "--n", self.n])
        self.cli("setup", ["--out", d, "train", "--data", d / "dataset.csv", "--mapping", "f1",
                           "--k", 29, "--metric", "manhattan", "--weighting", "distance"])
        self.same_as_first("setup dataset.csv digest", digest(d / "dataset.csv"), "setup")
        self.same_as_first("setup model digest", digest(d / "model-f1.json"), "setup")
        self.specs = experiments.scenario_suite("f1", n=200, seed=9 * self.seed)
        for j, spec in enumerate(self.specs):
            (d / f"scenario-{j}.json").write_text(json.dumps(spec.to_dict()) + "\n")

    def op(self, i, traced):
        j = i % len(self.specs)
        src = self.work / "setup-0"
        d = self.work / f"apply-{j}"
        with self.timed(traced):
            ok, _, seconds = self.cli("apply", ["--out", d, "apply", "--model", src / "model-f1.json",
                                                "--scenario", src / f"scenario-{j}.json"])
        self.record("call", seconds)
        self.record("rate", self.specs[j].n / seconds)
        if ok:
            self.guarded("apply", self.check, j, d / "scenario-result.json", src / "model-f1.json")
        self.close_op()

    def named(self, m):
        return {"apply_p50_ms": m["call_p50_ms"], "apply_p90_ms": m["call_p90_ms"],
                "apply_queries_per_s": m["items_per_s"]}

    def check(self, j, path, model_path):
        text = path.read_text()
        res = json.loads(text)
        counts = np.array(res["unit_counts"])
        proba = np.array(res["mean_proba"])
        self.expect(len(counts) == 4 and counts.min() >= 0 and counts.sum() <= self.specs[j].n
                    and abs(proba.sum() - 1.0) < 1e-12 and res["winner"] == int(np.argmax(counts)),
                    "apply", f"scenario {j}: inconsistent result {res}")
        key = f"scenario-{j} result"
        if key in self.first:
            self.same_as_first(key, text, "apply")
            return
        self.first[key] = text
        model = knn.model_from_json(model_path.read_text())
        x = experiments.sample_scenario_features(self.specs[j], model.features.shape[1])
        full = knn.predict_proba_batch(model, x)
        self.expect(np.array_equal((full == 1.0).sum(axis=0), counts)
                    and full.mean(axis=0).tolist() == res["mean_proba"], "apply",
                    f"scenario {j}: result differs from predict_proba_batch")
        rows = self.rng.choice(len(x), self.spot_queries, replace=False)
        self.check_reference(model, x[rows], "apply")


class Oracle(Workload):
    name = "oracle"
    cli_seed = 0       # see README: oracle-check runs at one fixed seed
    check_draws = 2    # oracle-check draws per operation
    n_traj = 200       # trajectories per oracle-check draw
    draws = 10         # fd draws per operation
    interpreter_share = 0.8

    def setup(self, k, d):
        self.cli("setup", ["--seed", self.cli_seed, "--out", d, "oracle-check", "--draws", 1,
                           "--t-final", "1e3", "--n-traj", 200])

    def op(self, i, traced):
        rng = self.rng
        pairs = []
        with self.timed(traced):
            ok, out, seconds = self.cli("oracle-check", [
                "--seed", self.cli_seed, "--out", self.work / "op", "oracle-check",
                "--draws", self.check_draws, "--t-final", "2.5e3", "--n-traj", self.n_traj])
            for _ in range(self.draws):
                t0 = perf_counter()
                params = engine.EngineParams(
                    t_c=rng.uniform(0.4, 2.5), t_h=rng.uniform(3.0, 4.5),
                    t_l=rng.uniform(1.0, 7.0), p_c=rng.uniform(0.0, 1.0),
                    p_h=rng.uniform(0.0, 1.0))
                gen = engine.build_generator(params)
                pairs.append((counting.cumulants(gen), fdcheck.fd_cumulants(gen)))
                self.record("call", perf_counter() - t0)
        self.record("rate", self.check_draws * self.n_traj / seconds)
        if ok:
            self.same_as_first("oracle-check output", out, "oracle-check")
            m = re.search(r"worst \|z\| = (\S+) over (\d+) draws", out)
            self.expect(m is not None and float(m.group(1)) < Z_LIMIT
                        and int(m.group(2)) == self.check_draws,
                        "oracle-check", f"z gate: {m.group(0) if m else out[-300:]}")
        self.close_op()
        for j, fd in pairs:
            self.attempted += 1
            rel = float(np.max(np.abs(fd - j) / np.maximum(np.abs(j), 1e-12)))
            self.expect(rel < FD_RTOL, "fd draw", f"fd vs perturbative deviation {rel:.2e}")
            self.close_op()

    def named(self, m):
        return {"oracle_check_s": self.check_draws * self.n_traj / m["items_per_s"],
                "fd_draws_per_s": 1e3 / m["call_p50_ms"]}


WORKLOADS = {w.name: w for w in (GenData, Tune, Apply, Oracle)}
