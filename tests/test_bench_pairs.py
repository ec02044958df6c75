"""The paired-benchmark driver's summary arithmetic, on fixed numbers; the
benchmark itself never runs here."""
import importlib.util
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parent.parent / "scripts" / "bench_pairs.py"
_SPEC = importlib.util.spec_from_file_location("bench_pairs", _PATH)
bench_pairs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench_pairs)


def test_seed_lists():
    assert bench_pairs.seed_list("21-25") == [21, 22, 23, 24, 25]
    assert bench_pairs.seed_list("3,7-8,30") == [3, 7, 8, 30]


def test_quartiles_interpolate_between_sorted_values():
    assert bench_pairs.quartiles([4.0, 1.0, 3.0, 2.0, 5.0]) == {"q1": 2.0, "median": 3.0, "q3": 4.0}
    assert bench_pairs.quartiles([1.0, 2.0, 3.0, 4.0]) == {"q1": 1.75, "median": 2.5, "q3": 3.25}
    assert bench_pairs.quartiles([7.0]) == {"q1": 7.0, "median": 7.0, "q3": 7.0}


def test_wins_follow_each_metric_direction_and_ties_count_for_neither():
    runs = [
        {"parent": {"rate": 10.0, "latency": 2.0}, "change": {"rate": 12.0, "latency": 2.0}},
        {"parent": {"rate": 11.0, "latency": 3.0}, "change": {"rate": 11.0, "latency": 1.0}},
        {"parent": {"rate": 9.0, "latency": 1.0}, "change": {"rate": 8.0, "latency": 4.0}},
        {"parent": {"rate": 10.0, "latency": 2.0}, "change": {"rate": 13.0, "latency": 1.5}},
    ]
    summary = bench_pairs.summarize(runs, {"rate": "higher", "latency": "lower", "absent": "lower"})
    assert set(summary) == {"rate", "latency"}  # a metric no run reports is left out
    rate, latency = summary["rate"], summary["latency"]
    assert rate["wins"] == {"parent": 1, "change": 2} and rate["pairs"] == 4
    assert latency["wins"] == {"parent": 1, "change": 2}
    assert rate["parent"] == {"q1": 9.75, "median": 10.0, "q3": 10.25}
    assert rate["change"]["median"] == pytest.approx(11.5)
    assert latency["better"] == "lower" and latency["change"]["q3"] == pytest.approx(2.5)
