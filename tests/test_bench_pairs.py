"""The summary of tools/bench_pairs.py, on synthetic runs; no benchmark is run."""

import importlib.util
from pathlib import Path

import pytest


def _bench_pairs():
    path = Path(__file__).resolve().parent.parent / "tools" / "bench_pairs.py"
    spec = importlib.util.spec_from_file_location("bench_pairs", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _run(seed, wall, rss, correct=True):
    return {"seed": seed, "correct": correct, "metrics": {"wall_s": wall, "peak_rss_mb": rss}}


def test_summary_counts_wins_ties_and_failed_runs():
    bench = _bench_pairs()
    parent = [_run(i, w, r) for i, (w, r) in enumerate([(1.0, 40.0), (2.0, 40.0), (3.0, 40.0), (4.0, 40.0),
                                                        (5.0, 40.0)])]
    change = [_run(0, 0.5, 40.0), _run(1, 2.0, 39.0), _run(2, 2.5, 41.0), _run(3, 4.5, 40.0),
              _run(4, 4.0, 39.5, correct=False)]
    summary = bench.summarize([("wall_s", "lower"), ("peak_rss_mb", "lower"), ("setup_s", "lower")],
                              parent, change)
    wall, rss = summary["metrics"]["wall_s"], summary["metrics"]["peak_rss_mb"]
    assert wall["parent_median"] == 3.0 and wall["change_median"] == 2.5
    assert (wall["parent_q1"], wall["parent_q3"], wall["parent_iqr"]) == (2.0, 4.0, 2.0)
    assert wall["change_wins"] == 3 and wall["pairs"] == 5  # pair 1 ties, pair 3 loses
    assert rss["change_wins"] == 2 and rss["parent_iqr"] == 0.0  # two ties, one loss
    assert "setup_s" not in summary["metrics"]  # no run reported it
    assert summary["not_correct"] == [{"side": "change", **change[4]}]


def test_summary_reads_higher_is_better_and_one_pair():
    bench = _bench_pairs()
    summary = bench.summarize([("rate", "higher")], [{"seed": 0, "correct": True, "metrics": {"rate": 2.0}}],
                              [{"seed": 0, "correct": True, "metrics": {"rate": 3.0}}])
    assert summary["metrics"]["rate"] == pytest.approx(dict(
        parent_median=2.0, change_median=3.0, parent_q1=2.0, parent_q3=2.0, parent_iqr=0.0,
        change_wins=1, pairs=1))
    assert summary["not_correct"] == []


def test_end_to_end_metrics_are_the_benchmarks():
    assert [name for name, _ in _bench_pairs().end_to_end_metrics()] == ["wall_s", "setup_s", "peak_rss_mb"]
