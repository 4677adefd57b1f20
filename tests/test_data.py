import json
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import artifact.data as data_mod
from artifact.data import (
    CSV_HEADER,
    DEFAULT_RANGES,
    Dataset,
    ParamRanges,
    generate,
    meta_path,
    read_csv,
    write_csv,
)
from artifact.engine import EngineParams
from artifact.errors import (
    DegenerateSampleError,
    DomainError,
    GenerationQualityError,
    ParseError,
    ValidationError,
)

import loop_reference


def _columns(ds):
    return ds.features, ds.labels, ds.params


def _same_columns(a, b):
    return all(np.array_equal(x, y) for x, y in zip(_columns(a), _columns(b)))


# --- labels -----------------------------------------------------------------

def test_label_quartiles():
    p_h = [0.0, 0.24999, 0.25, 0.49, 0.50, 0.74, 0.75, 1.0]
    # a boundary belongs to the upper bin; the last bin absorbs 1.0
    assert data_mod._labels_of(p_h).tolist() == [0, 0, 1, 1, 2, 2, 3, 3]


def test_label_domain():
    for p_h in (-0.01, 1.01):
        with pytest.raises(DomainError, match="p_h"):
            Dataset(np.ones((1, 4)), [3], [[1.0, 3.5, 2.0, 0.1, p_h]], [True])


# --- ranges -----------------------------------------------------------------

def test_default_ranges():
    r = DEFAULT_RANGES
    assert r.t_c == (0.4, 2.5)
    assert r.t_h == (3.0, 4.5)
    assert r.t_l == (1.0, 7.0)
    assert r.p_c == (0.0, 0.3)
    assert r.p_h == (0.0, 1.0)
    assert ParamRanges.from_dict(r.to_dict()) == r


def test_range_validation():
    with pytest.raises(DomainError):
        ParamRanges(t_c=(2.5, 0.4))  # reversed
    with pytest.raises(DomainError):
        ParamRanges(t_h=(0.0, 4.5))  # temperature lower bound not positive
    with pytest.raises(DomainError):
        ParamRanges(p_h=(0.0, 1.5))  # outside [0, 1]


# --- generation --------------------------------------------------------------

def test_generate_contract(small_dataset):
    ds = small_dataset
    assert len(ds) == 600
    assert ds.in_train.dtype == bool and ds.in_train.shape == (600,)
    assert np.count_nonzero(ds.in_train) == 420  # 70% split
    assert len(ds.train[1]) == 420 and len(ds.validation[1]) == 180
    x = ds.features
    assert x.shape == (600, 4) and ds.labels.shape == (600,) and ds.params.shape == (600, 5)
    assert np.all(np.isfinite(x))
    assert ds.meta["seed"] == 7 and ds.meta["n"] == 600
    assert ds.meta["redraws"] == 0


def test_generate_deterministic(small_dataset):
    again = generate(600, seed=7)
    assert _same_columns(again, small_dataset)
    assert np.array_equal(again.in_train, small_dataset.in_train)


def test_label_balance(small_dataset):
    # labels follow a uniform p_h, so the four quartile bins should be
    # statistically even; 600 draws keep each within a few sigma of 150
    counts = np.bincount(small_dataset.labels, minlength=4)
    assert counts.sum() == 600
    assert counts.min() > 100 and counts.max() < 200


def test_labels_recomputable_from_params(small_dataset):
    ds = small_dataset
    for i in range(50):
        assert ds.labels[i] == data_mod._labels_of(ds.params[i, 4])


def test_samples_nest_across_sizes():
    # per-sample substreams: a shorter dataset is a prefix of a longer one
    a = generate(40, seed=31)
    b = generate(80, seed=31)
    assert all(np.array_equal(x[:40], y) for x, y in zip(_columns(b), _columns(a)))


def test_generate_validation():
    with pytest.raises(DomainError):
        generate(0, seed=1)
    with pytest.raises(DomainError):
        generate(10, seed=1, train_frac=1.0)


@pytest.mark.parametrize("n,seed,name", [
    (10, -1, "seed"), (10, 1.5, "seed"), (10, True, "seed"), (10, "3", "seed"),
    (10.0, 1, "n"), (True, 1, "n"), (0, 1, "n"), (2**32, 1, "n"),
])
def test_generate_checks_n_and_seed(n, seed, name):
    value = {"n": n, "seed": seed}[name]
    with pytest.raises(DomainError, match=f"^{name} must be .*, got {re.escape(repr(value))}$") as err:
        generate(n, seed=seed)
    assert err.value.exit_code == 2


def test_generate_takes_numpy_integers(small_dataset):
    assert _same_columns(generate(np.int64(600), seed=np.uint8(7)), small_dataset)


_SEEDS = [0, 1, 42, 2**32 - 1, 2**32, 2**64 + 1, 2**99 + 12345]


@pytest.mark.parametrize("seed", _SEEDS)
@pytest.mark.parametrize("n", [1, 7, 1000])
def test_substreams_match_numpy(seed, n):
    # child i's draws are numpy's default_rng on SeedSequence(seed) child i,
    # across calls and on a subset of rows in any order
    children = np.random.SeedSequence(seed).spawn(n + 1)
    rngs = [np.random.default_rng(c) for c in children[:n]]
    streams = data_mod._Substreams(seed, n)
    rows = np.arange(n)
    got = np.concatenate([streams.random(rows, 5), streams.random(rows, 5)], axis=1)
    assert np.array_equal(got, np.array([g.random(10) for g in rngs]))
    subset = np.random.default_rng(n).permutation(n)[:max(1, n // 3)]
    assert np.array_equal(streams.random(subset, 3), np.array([rngs[i].random(3) for i in subset]))
    if n > 1:  # the split draws from child n
        perm = np.random.default_rng(children[n]).permutation(n)
        assert np.flatnonzero(generate(n, seed=seed).in_train).tolist() == sorted(perm[:round(0.7 * n)])


@pytest.mark.parametrize("n,train_frac,split", [
    (50, 0.0001, "training"), (50, 0.0099, "training"), (50, 0.9999, "validation"),
    (1, 0.7, "validation"), (1, 0.3, "training"),
])
def test_generate_rejects_an_empty_split(n, train_frac, split):
    with pytest.raises(DomainError, match=f"empty {split} split"):
        generate(n, seed=1, train_frac=train_frac)


def test_generate_keeps_both_splits_at_the_edges():
    # one row is enough on either side
    assert generate(50, seed=1, train_frac=0.011).in_train.sum() == 1
    assert generate(50, seed=1, train_frac=0.989).in_train.sum() == 49


def test_generation_quality_budget(monkeypatch):
    # force every draw to look degenerate; the 10% budget must trip
    def always_degenerate(varied, fixed):
        return np.ones((len(varied), 4)), {i: DegenerateSampleError("forced") for i in range(len(varied))}

    monkeypatch.setattr(data_mod, "exchange_moment_ratios_batch", always_degenerate)
    with pytest.raises(GenerationQualityError):
        generate(50, seed=0)


def test_generate_matches_loop_reference():
    # one batch of builds and SVDs reproduces the per-sample loop bit for bit
    ds = generate(320, seed=11)
    feats, labels, params, redraws = loop_reference.generate_columns(320, DEFAULT_RANGES, seed=11)
    assert np.array_equal(ds.features, feats)
    assert np.array_equal(ds.labels, labels)
    assert np.array_equal(ds.params, params)
    assert ds.meta["redraws"] == redraws


def test_batch_rows_do_not_change_output(monkeypatch, small_dataset):
    # the stacked solves run in slices of _BATCH_ROWS; any slicing gives the same dataset
    monkeypatch.setattr(data_mod, "_BATCH_ROWS", 7)
    assert _same_columns(generate(600, seed=7), small_dataset)


def test_partial_redraw_matches_loop_reference(monkeypatch):
    # rounds of the batch: all 300 first attempts, then the failed rows;
    # the positions below index into each round's rows
    forced = {0: [3, 7, 150, 299], 1: [1, 3], 2: [0]}
    real = data_mod.exchange_moment_ratios_batch
    rounds = []

    def flaky(varied, fixed):
        feats, failures = real(varied, fixed)
        failures.update({i: DegenerateSampleError("forced") for i in forced.get(len(rounds), [])})
        rounds.append(len(varied))
        return feats, failures

    monkeypatch.setattr(data_mod, "exchange_moment_ratios_batch", flaky)
    ds = generate(300, seed=5)
    # sample i's attempt a fails: round 0 fails 3, 7, 150, 299; round 1
    # runs those four and fails 7 and 299; round 2 runs 7 and 299, fails 7
    fails = {(3, 0), (7, 0), (150, 0), (299, 0), (7, 1), (299, 1), (7, 2)}
    feats, labels, params, redraws = loop_reference.generate_columns(
        300, DEFAULT_RANGES, seed=5, fail=lambda i, attempt: (i, attempt) in fails)
    assert rounds == [300, 4, 2, 1]
    assert ds.meta["redraws"] == redraws == 7
    assert np.array_equal(ds.features, feats)
    assert np.array_equal(ds.labels, labels)
    assert np.array_equal(ds.params, params)
    first = loop_reference.generate_columns(300, DEFAULT_RANGES, seed=5)[2]
    redrawn = np.any(ds.params != first, axis=1)
    assert np.flatnonzero(redrawn).tolist() == [3, 7, 150, 299]


def _one_row(features=(1.0, 1.0, 1.0, 1.0), label=3, params=(1.0, 3.5, 2.0, 0.0, 0.8)):
    return Dataset(np.array([features]), np.array([label]), np.array([params]), np.array([True]))


def test_sample_validation():
    _one_row()  # consistent row
    with pytest.raises(ValidationError):
        _one_row(features=(1.0, 1.0, 1.0))  # wrong arity
    with pytest.raises(ValidationError, match="finite"):
        _one_row(features=(1.0, 1.0, 1.0, float("nan")))
    with pytest.raises(ValidationError, match="inconsistent"):
        _one_row(label=1)  # label contradicts p_h
    with pytest.raises(DomainError, match="t_c"):
        _one_row(params=(-1.0, 3.5, 2.0, 0.0, 0.8))
    with pytest.raises(DomainError, match="p_c"):
        _one_row(params=(1.0, 3.5, 2.0, 1.5, 0.8))


def test_dataset_columns_are_frozen(small_dataset):
    with pytest.raises(ValueError):
        small_dataset.features[0, 0] = 2.0
    with pytest.raises(ValueError):
        small_dataset.labels[0] = 0
    with pytest.raises(ValueError):
        small_dataset.in_train[0] = False


def test_dataset_partition_enforced():
    # one split flag per row: a split column of the wrong length is rejected
    ds = generate(6, seed=3)
    with pytest.raises(ValidationError):
        Dataset(ds.features, ds.labels, ds.params, ds.in_train[:-1])
    with pytest.raises(ValidationError):
        Dataset(ds.features, ds.labels, ds.params, np.append(ds.in_train, True))


# --- csv round trip -----------------------------------------------------------

def test_write_read_round_trip(tmp_path, small_dataset):
    p = tmp_path / "ds.csv"
    write_csv(small_dataset, p)
    back = read_csv(p)
    assert _same_columns(back, small_dataset)  # %.17g is lossless
    assert np.array_equal(back.in_train, small_dataset.in_train)
    assert back.meta["seed"] == small_dataset.meta["seed"]


def test_write_is_byte_deterministic(tmp_path, small_dataset):
    p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
    write_csv(small_dataset, p1)
    write_csv(small_dataset, p2)
    assert p1.read_bytes() == p2.read_bytes()
    # the only timestamp lives in the sidecar, not the csv
    assert b"generated_at" not in p1.read_bytes()
    assert "generated_at" in json.loads(meta_path(p1).read_text())


def test_csv_header_layout(tmp_path, small_dataset):
    p = tmp_path / "ds.csv"
    write_csv(small_dataset, p)
    lines = p.read_text().splitlines()
    assert lines[0] == CSV_HEADER
    assert len(lines) == 601
    assert lines[1].split(",")[10] in ("train", "val")


def test_read_csv_error_reporting(tmp_path):
    p = tmp_path / "bad.csv"

    p.write_text("c1,c2,nope\n")
    with pytest.raises(ParseError, match="header"):
        read_csv(p)

    p.write_text(CSV_HEADER + "\n1.0,1.0,1.0\n")
    with pytest.raises(ParseError, match="line 2"):
        read_csv(p)

    p.write_text(CSV_HEADER + "\n1,1,1,1,0,1,3.5,2,0,0.1,train\n1,1,1,1,0,1,3.5,2,0,0.1,test\n")
    with pytest.raises(ParseError, match="line 3"):
        read_csv(p)

    p.write_text(CSV_HEADER + "\n1,1,1,1,zero,1,3.5,2,0,0.1,train\n")
    with pytest.raises(ParseError, match="line 2"):
        read_csv(p)

    # an infinite temperature on line 3 (t_l column)
    p.write_text(CSV_HEADER + "\n1,1,1,1,0,1,3.5,2,0,0.1,train\n1,1,1,1,0,1,3.5,inf,0,0.1,val\n")
    with pytest.raises(ParseError, match="line 3.*t_l"):
        read_csv(p)

    with pytest.raises(ParseError):
        read_csv(tmp_path / "missing.csv")


def test_write_csv_maps_write_errors(tmp_path, small_dataset):
    with pytest.raises(ValidationError, match="cannot write .*missing"):
        write_csv(small_dataset, tmp_path / "missing" / "a.csv")
    (tmp_path / "a.csv").mkdir()  # a directory where the CSV should go
    with pytest.raises(ValidationError, match="cannot write"):
        write_csv(small_dataset, tmp_path / "a.csv")


def test_read_csv_rejects_inconsistent_label(tmp_path):
    # label column must match the recomputed quartile of p_h
    p = tmp_path / "bad.csv"
    p.write_text(CSV_HEADER + "\n1,1,1,1,3,1,3.5,2,0,0.1,train\n")
    with pytest.raises(ParseError, match="line 2"):
        read_csv(p)


def test_read_csv_without_sidecar(tmp_path, small_dataset):
    p = tmp_path / "ds.csv"
    write_csv(small_dataset, p)
    meta_path(p).unlink()
    back = read_csv(p)
    assert back.meta == {}
    assert np.array_equal(back.features[0], small_dataset.features[0])


def test_read_csv_reports_earliest_bad_line(tmp_path):
    p = tmp_path / "bad.csv"
    good = "1,1,1,1,0,1,3.5,2,0,0.1,train\n"
    # a row that parses but fails validation, before a line that does not parse
    p.write_text(CSV_HEADER + "\n" + good + "1,1,1,1,3,1,3.5,2,0,0.1,train\n1,1,1\n")
    with pytest.raises(ParseError, match="line 3: label 3 inconsistent with p_h=0.1"):
        read_csv(p)
    p.write_text(CSV_HEADER + "\n" + good + "\n" + "1,1,1,1,0,-1,3.5,2,0,0.1,val\n")
    with pytest.raises(ParseError, match="line 4: t_c must be positive, got -1.0"):
        read_csv(p)
    p.write_text(CSV_HEADER + "\n" + good + "1,1,1,nan,0,1,3.5,2,0,0.1,val\n")
    with pytest.raises(ParseError, match=r"line 3: features must be 4 finite values, got \(1.0, 1.0, 1.0, nan\)"):
        read_csv(p)
    p.write_text(CSV_HEADER + "\n" + good + "1,1,1,1,99999999999999999999,1,3.5,2,0,0.1,val\n")
    with pytest.raises(ParseError, match="line 3"):
        read_csv(p)
    # the sidecar's fixed constants are validated with the first row
    p.write_text(CSV_HEADER + "\n" + good)
    meta_path(p).write_text(json.dumps({"fixed": {"r": -1.0}}))
    with pytest.raises(ParseError, match="line 2: r must be positive"):
        read_csv(p)
    meta_path(p).write_text(json.dumps({"fixed": {"tau": float("nan")}}))
    with pytest.raises(ParseError, match="line 2: tau must be finite and non-negative, got nan"):
        read_csv(p)
    meta_path(p).write_text(json.dumps({"fixed": {"bogus": 1.0}}))
    with pytest.raises(ParseError, match="line 2"):
        read_csv(p)
    for name, value in (("e_a", float("inf")), ("e1", float("-inf"))):
        meta_path(p).write_text(json.dumps({"fixed": {name: value}}))
        with pytest.raises(ParseError, match=f"line 2: {name} must be finite, got {value}"):
            read_csv(p)
    # a sidecar that is valid JSON but not an object is named, not crashed on
    for doc in ([1], None, "fixed", 3):
        meta_path(p).write_text(json.dumps(doc))
        with pytest.raises(ParseError, match=r"sidecar .*bad\.meta\.json must be a JSON object") as exc:
            read_csv(p)
        assert exc.value.exit_code == 2


_finite = st.floats(allow_nan=False, allow_infinity=False)


@st.composite
def datasets(draw, min_n=0):
    n = draw(st.integers(min_n, 12))
    feats = draw(st.lists(st.tuples(*[_finite] * 4), min_size=n, max_size=n))
    temps = st.floats(min_value=0.0, exclude_min=True, allow_nan=False, allow_infinity=False)
    strength = st.floats(min_value=0.0, max_value=1.0)
    params = draw(st.lists(st.tuples(temps, temps, temps, strength, strength), min_size=n, max_size=n))
    train = draw(st.lists(st.booleans(), min_size=n, max_size=n))
    return Dataset(np.reshape(feats, (n, 4)), data_mod._labels_of([p[4] for p in params]),
                   np.reshape(params, (n, 5)), np.array(train, dtype=bool), {"seed": 1})


@settings(max_examples=60, deadline=None)
@given(ds=datasets())
def test_csv_round_trip_property(tmp_path_factory, ds):
    d = tmp_path_factory.mktemp("rt")
    write_csv(ds, d / "a.csv")
    back = read_csv(d / "a.csv")
    for x, y in zip(_columns(back) + (back.in_train,), _columns(ds) + (ds.in_train,)):
        assert x.dtype == y.dtype and x.tobytes() == y.tobytes()  # bitwise, signed zeros included
    assert back.meta == ds.meta
    write_csv(back, d / "b.csv")
    assert (d / "b.csv").read_bytes() == (d / "a.csv").read_bytes()


def _outcome(read, path):
    """Columns (dtype, shape, bytes) and meta of a read, or its error text."""
    try:
        ds = read(path)
    except ParseError as exc:
        return str(exc)
    return [(c.dtype.str, c.shape, c.tobytes()) for c in _columns(ds) + (ds.in_train,)], ds.meta


_BAD_CELLS = ("", "x", "1_0", " 2 ", "nan", "inf", "-1", "99999999999999999999")


@settings(max_examples=200, deadline=None)
@given(ds=datasets(min_n=1), data=st.data())
def test_read_csv_matches_line_reference(tmp_path_factory, ds, data):
    p = tmp_path_factory.mktemp("bad") / "a.csv"
    write_csv(ds, p)
    lines = p.read_text().splitlines()
    for _ in range(data.draw(st.integers(1, 2), label="corruptions")):
        at = data.draw(st.integers(1, len(lines) - 1), label="line")
        cells = lines[at].split(",")
        j = data.draw(st.integers(0, len(cells) - 1), label="cell")
        kind = data.draw(st.sampled_from(["cell", "tag", "add", "remove", "blank", "label"]))
        if kind == "cell":
            cells[j] = data.draw(st.sampled_from(_BAD_CELLS))
        elif kind == "tag":
            cells[-1] = data.draw(st.sampled_from(["test", "Train", "train ", "val\t"]))
        elif kind == "add":
            cells.insert(j, "1")
        elif kind == "remove":
            del cells[j]
        elif kind == "label" and len(cells) == 11 and cells[4] in ("0", "1", "2", "3"):
            cells[4] = str((int(cells[4]) + 1) % 4)
        if kind == "blank":
            lines.insert(at, data.draw(st.sampled_from(["", " ", "\t", "  \t "])))
        else:
            lines[at] = ",".join(cells)
    p.write_text("\n".join(lines) + "\n")
    assert _outcome(read_csv, p) == _outcome(loop_reference.read_csv_lines, p)


def test_valid_files_skip_the_line_parser(tmp_path, small_dataset, monkeypatch):
    p = tmp_path / "ds.csv"
    write_csv(small_dataset, p)

    def unexpected(raw, lineno):
        raise AssertionError(f"line {lineno} parsed alone")

    monkeypatch.setattr(data_mod, "_parse_line", unexpected)
    assert _same_columns(read_csv(p), small_dataset)


def test_read_csv_accepts_the_grammar_of_float_and_int(tmp_path):
    p = tmp_path / "g.csv"
    p.write_text(CSV_HEADER + "\n1_0, 2 ,+3,1E0, +2 ,1_0,3.5,2,0,0.6,train\n")
    ds = read_csv(p)
    assert ds.features.tolist() == [[10.0, 2.0, 3.0, 1.0]]
    assert ds.labels.tolist() == [2]
    assert ds.params.tolist() == [[10.0, 3.5, 2.0, 0.0, 0.6]]
    assert _outcome(read_csv, p) == _outcome(loop_reference.read_csv_lines, p)
    # int() takes no exponent and no fraction, in the label column only
    for label in ("2E0", "2.0"):
        p.write_text(CSV_HEADER + f"\n1,1,1,1,{label},1,3.5,2,0,0.6,train\n")
        with pytest.raises(ParseError, match=f"line 2: invalid literal for int.*'{label}'"):
            read_csv(p)


def test_read_csv_reads_crlf_line_endings(tmp_path, small_dataset):
    p, crlf = tmp_path / "lf.csv", tmp_path / "crlf.csv"
    write_csv(small_dataset, p)
    crlf.write_bytes(p.read_bytes().replace(b"\n", b"\r\n"))
    back = read_csv(crlf)
    assert _same_columns(back, small_dataset)
    assert np.array_equal(back.in_train, small_dataset.in_train)


@pytest.mark.parametrize("text", [CSV_HEADER, CSV_HEADER + "\n", CSV_HEADER + "\n\n \n\t\n"])
def test_read_csv_header_only_gives_an_empty_dataset(tmp_path, text):
    p = tmp_path / "empty.csv"
    p.write_text(text)
    ds = read_csv(p)
    assert len(ds) == 0
    assert (ds.features.shape, ds.labels.shape, ds.params.shape, ds.in_train.shape) == ((0, 4), (0,), (0, 5), (0,))
    assert (ds.features.dtype, ds.labels.dtype, ds.params.dtype, ds.in_train.dtype) == (float, np.intp, float, bool)


def test_read_csv_validation_error_beats_a_later_label_overflow(tmp_path):
    p = tmp_path / "bad.csv"
    good = "1,1,1,1,0,1,3.5,2,0,0.1,train\n"
    overflow = "1,1,1,1,99999999999999999999,1,3.5,2,0,0.1,val\n"
    p.write_text(CSV_HEADER + "\n" + good + "1,1,1,1,3,1,3.5,2,0,0.1,train\n" + good + overflow)
    with pytest.raises(ParseError, match="line 3: label 3 inconsistent with p_h=0.1"):
        read_csv(p)
    p.write_text(CSV_HEADER + "\n" + good + good + good + overflow)
    with pytest.raises(ParseError, match="line 5: Python int too large to convert to C long"):
        read_csv(p)


def test_read_csv_numbers_lines_by_newlines_only(tmp_path):
    # \x85 and a form feed break a line for str.splitlines, not in a CSV:
    # they stay in their cell, where float() takes them as padding, like
    # a space, and the split tag refuses them
    p = tmp_path / "bad.csv"
    good = "1,1,1,1,0,1,3.5,2,0,0.1,train"
    bad_label = "1,1,1,1,3,1,3.5,2,0,0.1,train"
    for text, message in [
        (f"{good}\x85\n{good}\n{bad_label}\n", r"line 2: split tag .* got 'train\\x85'"),
        (f"1,1,1,1,0,1,3.5,2,0,0.1\x85,train\n{good}\n{bad_label}\n",
         "line 4: label 3 inconsistent with p_h=0.1"),
        (f"{good}\n1,1,1,1,0,1,3.5\f2,2,0,0.1,train\n", r"line 3: could not convert .*'3.5\\x0c2'"),
        (f"{good}\n1,1,1,1,0,1,3.5,2\f,0,0.1,val\f\n", r"line 3: split tag .* got 'val\\x0c'"),
    ]:
        p.write_text(f"{CSV_HEADER}\n{text}")
        with pytest.raises(ParseError, match=message):
            read_csv(p)
        assert _outcome(read_csv, p) == _outcome(loop_reference.read_csv_lines, p)


@pytest.mark.parametrize("sidecar, message", [
    (b'{"fixed": {"tau": 1.0}}\xff', "cannot read sidecar .*a.meta.json: 'utf-8' codec"),
    (None, "cannot read sidecar .*a.meta.json: .*Is a directory"),
    (b'{"fixed": {}, "fixed": {"tau": 1.0}}', r"malformed sidecar .*: repeated key 'fixed'"),
    (b"[" * 100_000, "malformed sidecar .*: maximum recursion depth"),
], ids=["not-utf8", "directory", "repeated-key", "deep-nesting"])
def test_read_csv_refuses_an_unreadable_sidecar(tmp_path, sidecar, message):
    p = tmp_path / "a.csv"
    p.write_text(CSV_HEADER + "\n1,1,1,1,0,1,3.5,2,0,0.1,train\n")
    if sidecar is None:
        meta_path(p).mkdir()
    else:
        meta_path(p).write_bytes(sidecar)
    with pytest.raises(ParseError, match=message):
        read_csv(p)


def test_read_csv_counts_cells_per_line(tmp_path):
    # a line one cell short, then one a cell long: their cells still
    # align into valid columns, but the short line is the bad one
    p = tmp_path / "bad.csv"
    p.write_text(CSV_HEADER + "\n1,1,1,1,0,1,3.5,2,0,0.1\ntrain,1,1,1,1,0,1,3.5,2,0,0.1,val\n")
    with pytest.raises(ParseError, match="line 2: expected 11 columns, got 10"):
        read_csv(p)
