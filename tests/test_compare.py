import importlib.util
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parents[1] / "bench" / "compare.py"
_SPEC = importlib.util.spec_from_file_location("compare", _PATH)
compare = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(compare)


@pytest.mark.parametrize("better, gap, wins", [("lower", 0.5, 5), ("higher", -0.5, 0)])
def test_summary_reads_the_parent_spread_and_the_wins(better, gap, wins):
    s = compare.summary([1.0, 2.0, 3.0, 4.0, 5.0], [0.5, 1.0, 2.0, 3.0, 4.0], better)
    assert (s["parent"], s["q1"], s["q3"], s["change"]) == (3.0, 2.0, 4.0, 2.0)
    assert s["move"] == pytest.approx(-1.0 / 3.0)
    assert s["gap_iqr"] == gap and s["wins"] == wins


def test_summary_of_one_pair_has_no_spread():
    s = compare.summary([2.0], [1.0], "lower")
    assert (s["parent"], s["q1"], s["q3"], s["wins"]) == (2.0, 2.0, 2.0, 1)
    assert s["gap_iqr"] != s["gap_iqr"]  # NaN: no spread to measure the gap in


def test_the_checkouts_lie_at_paths_of_equal_length():
    assert len({len(side) for side in compare.SIDES}) == 1


_BENCH = {"command": ["python3", "perfbench/run.py"], "run_seconds": 15,
          "end_to_end": [{"name": "call_p50_ms", "better": "lower"}]}


def _doc(ms):
    return {"correct": True, "failed": 0, "metrics": {"call_p50_ms": {"value": ms}}}


def test_a_failed_run_ends_the_series_and_keeps_the_completed_pairs(monkeypatch):
    calls = []
    docs = iter([_doc(2.0), _doc(1.0), _doc(1.5), None])
    monkeypatch.setattr(compare, "run", lambda tree, argv: calls.append((tree, argv)) or next(docs))
    results, ok = compare.pairs(_BENCH, {"parent": "P", "change": "C"}, "apply", 5, 7)
    assert not ok and len(calls) == 4
    assert [tree for tree, _ in calls] == ["P", "C", "C", "P"]  # the first side alternates
    assert calls[0][1] == ["python3", "perfbench/run.py", "--workload", "apply", "--seed", "7",
                           "--seconds", "15", "--trace", "0"]
    assert calls[2][1][5] == "8"
    assert results == {"parent": [_doc(2.0)], "change": [_doc(1.0)]}


def test_an_incorrect_run_fails_the_series(monkeypatch):
    bad = dict(_doc(1.0), correct=False)
    docs = iter([_doc(2.0), bad])
    monkeypatch.setattr(compare, "run", lambda tree, argv: next(docs))
    results, ok = compare.pairs(_BENCH, {"parent": "P", "change": "C"}, "apply", 1, 1)
    assert not ok and results["change"] == [bad]


def test_work_that_holds_a_checkout_is_refused(tmp_path, capsys):
    (tmp_path / "change").mkdir()
    with pytest.raises(SystemExit) as exit_:
        compare.main(["HEAD", "--workload", "apply", "--work", str(tmp_path)])
    assert exit_.value.code == 2 and "already holds" in capsys.readouterr().err
