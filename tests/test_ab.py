"""The statistics of ``tools/ab.py`` on fixed numbers."""
import importlib.util
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parent.parent / "tools" / "ab.py"
_SPEC = importlib.util.spec_from_file_location("ab", _PATH)
ab = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(ab)

METRICS = {
    "wall_s": {"name": "wall_s", "better": "lower", "bound": 0.25},
    "steps_per_s": {"name": "steps_per_s", "better": "higher", "bound": 0.25},
}


def test_quartiles_interpolate_as_numpy_percentile():
    # numpy.percentile([1, 2, 3, 4], [25, 50, 75]) is 1.75, 2.5, 3.25.
    assert ab.quartiles([4.0, 1.0, 3.0, 2.0]) == (1.75, 2.5, 3.25)
    assert ab.quartiles([5.0, 1.0, 3.0]) == (2.0, 3.0, 4.0)
    assert ab.quartiles([7.0]) == (7.0, 7.0, 7.0)


def test_a_lower_metric_that_falls_in_every_pair_is_a_gain():
    parent = [10.0, 11.0, 12.0, 13.0, 14.0, 10.5, 11.5, 12.5, 13.5, 14.5]
    change = [p - 3.0 for p in parent]
    got = ab.compare(parent, change, "lower", 0.1)
    assert got["change_better"] == "10/10"
    assert got["parent"] == {"median": 12.25, "q1": 11.125, "q3": 13.375}
    assert got["change"]["median"] == 9.25
    assert got["relative_change"] == pytest.approx(-3.0 / 12.25)
    assert got["resolved"] and got["gain_met"] and got["within_bound"]


def test_a_gain_needs_nine_tenths_of_the_pairs_and_a_gap_wider_than_the_parent_spread():
    parent = [10.0] * 9 + [20.0]
    # Better in 8 of 10 pairs, by far more than the parent's quartile spread.
    change = [5.0] * 8 + [10.0, 20.0]
    got = ab.compare(parent, change, "lower")
    assert got["change_better"] == "8/10" and got["resolved"] and not got["gain_met"]
    assert "within_bound" not in got
    # Better in every pair, but by less than the parent's quartile spread (2.5).
    parent = [10.0, 12.0, 14.0, 16.0, 18.0]
    got = ab.compare(parent, [p - 1.0 for p in parent], "lower")
    assert got["change_better"] == "5/5" and not got["resolved"] and not got["gain_met"]


def test_ties_count_for_neither_side_and_direction_follows_better():
    parent = [1.0, 2.0, 3.0, 4.0]
    change = [1.0, 3.0, 2.0, 4.0]
    assert ab.compare(parent, change, "lower")["change_better"] == "1/4"
    assert ab.compare(parent, change, "higher")["change_better"] == "1/4"
    faster = ab.compare([100.0, 100.0], [130.0, 130.0], "higher", 0.25)
    assert faster["gain_met"] and faster["within_bound"]
    slower = ab.compare([100.0, 100.0], [70.0, 70.0], "higher", 0.25)
    assert slower["change_better"] == "0/2" and not slower["within_bound"]
    assert not ab.compare([1.0, 1.0], [1.3, 1.3], "lower", 0.25)["within_bound"]
    assert ab.compare([1.0, 1.0], [1.2, 1.2], "lower", 0.25)["within_bound"]


def test_summarize_pairs_the_runs_that_report_a_metric():
    def summary(**values):
        return {"metrics": {k.replace("__", "."): {"value": v, "unit": ""} for k, v in values.items()}}

    runs = [
        {"parent": summary(a__wall_s=2.0, b__wall_s=1.0), "change": summary(a__wall_s=1.0, b__wall_s=1.0)},
        {"parent": summary(a__wall_s=4.0), "change": summary(a__wall_s=3.0, b__wall_s=9.0)},
        {"parent": summary(), "change": summary(a__wall_s=0.5)},  # a failed parent run
    ]
    table = ab.summarize(runs, "all", METRICS)
    assert table["a"]["wall_s"]["runs"] == {"parent": [2.0, 4.0], "change": [1.0, 3.0]}
    assert table["a"]["wall_s"]["change_better"] == "2/2"
    assert table["b"]["wall_s"]["runs"] == {"parent": [1.0], "change": [1.0]}
    # One workload's run reports its metrics without the workload's name.
    single = [{"parent": summary(steps_per_s=2.0, setup_s=1.0), "change": summary(steps_per_s=3.0, setup_s=1.0)}]
    table = ab.summarize(single, "simulate", METRICS)
    assert list(table) == ["simulate"] and list(table["simulate"]) == ["steps_per_s"]
    assert table["simulate"]["steps_per_s"]["relative_change"] == 0.5
