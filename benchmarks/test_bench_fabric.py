"""Bench-harness tests for the sweep (fabric scheduling-overhead) suite.

A tiny no-op grid (milliseconds) exercises the timing harness — a real
coordinator, a real file-lease transport and a real in-process worker —
plus the cross-check that the fabric's outcomes canonically match the
bare engine's.  The gating tests pin that a sweep baseline point rides
the same regression machinery as the other suites: missing points,
diverged results, mismatched grid sizes, efficiency drops beyond
tolerance and efficiency below the 0.002 floor all fail the check.
"""

import pytest

from repro import bench
from repro.bench import (
    SCHEMA,
    Point,
    Workload,
    default_points,
    gate,
    run_bench,
    run_point,
)

TINY_GRID = Point("sweep", "noop", 8)


def sweep_points(**options):
    return [p for p in default_points(**options) if p.suite == "sweep"]


class TestSweepPoints:
    def test_fabric_throughput_and_matching_results(self):
        record = run_point(TINY_GRID, repeats=1)
        assert record["rate"] > 0
        assert record["reference_wall_s"] > 0
        assert record["stats_match"] is True
        assert record["speedup"] is not None and record["speedup"] > 0
        assert record["suite"] == "sweep"
        assert record["key"] == "sweep/noop@8"
        assert record["cycles"] == 8
        assert record["unit"] == "points/sec"

    def test_reference_skippable(self):
        record = run_point(TINY_GRID, reference=False, repeats=1)
        assert record["reference_wall_s"] is None
        assert record["speedup"] is None
        assert record["stats_match"] is None
        assert record["rate"] > 0

    def test_unknown_workload_rejected(self):
        with pytest.raises(ValueError, match="unknown bench workload"):
            run_point(Point("sweep", "warp-drive", 8), repeats=1)

    def test_default_points_scale_with_a_floor(self):
        assert [p.key for p in sweep_points()] == ["sweep/noop@64"]
        assert [p.key for p in sweep_points(scale=0.5)] == [
            "sweep/noop@32"
        ]
        # the floor keeps a micro-scale run a real grid, not one point
        assert sweep_points(scale=0.01)[0].size == 8

    def test_run_bench_tags_the_suite(self):
        document = run_bench(
            [TINY_GRID], reference=False, repeats=1,
            collect_metrics=False,
        )
        assert document["schema"] == SCHEMA == 5
        assert document["suites"] == ["sweep"]
        assert [p["suite"] for p in document["points"]] == ["sweep"]

    def test_record_keeps_four_significant_figures(self, monkeypatch):
        """An efficiency of 0.00555 is recorded as such, not rounded up
        to 0.006 — above the 0.0056 line a 0.008 baseline gates at."""

        def side():
            return (lambda: None), (lambda _result: (8, ()))

        monkeypatch.setitem(
            bench.WORKLOADS, ("sweep", "fixed"),
            Workload("sweep", "fixed", 8, 8, "points/sec",
                     lambda point: (side, side)),
        )
        # fast side: 0 -> 1 s; reference side: 0 -> 0.00555 s
        ticks = iter([0.0, 1.0, 0.0, 0.00555])
        monkeypatch.setattr(bench.time, "perf_counter",
                            lambda: next(ticks))
        record = run_point(Point("sweep", "fixed", 8), repeats=1)
        assert record["speedup"] == 0.00555
        assert record["wall_s"] == 1.0

    def test_metrics_replay_counts_fabric_traffic(self):
        document = run_bench(
            [TINY_GRID], reference=False, repeats=1,
            collect_metrics=True,
        )
        metrics = document["points"][0]["metrics"]
        assert metrics["fabric.points_executed"] == 8
        assert metrics["fabric.items_claimed"] >= 1
        assert metrics["fabric.results"] == 8


class TestSweepGating:
    def _documents(self, **current_overrides):
        base_point = {
            "suite": "sweep", "key": "sweep/noop@32", "cycles": 32,
            "speedup": 0.008, "stats_match": True,
        }
        current_point = dict(base_point)
        current_point.update(current_overrides)
        baseline = {
            "schema": SCHEMA, "python": "3.11.7", "repeats": 5,
            "suites": ["sweep"], "points": [base_point],
        }
        current = {
            "schema": SCHEMA, "python": "3.11.7", "repeats": 5,
            "suites": ["sweep"], "points": [current_point],
        }
        return current, baseline

    def test_matching_run_passes(self):
        current, baseline = self._documents()
        assert gate(current, baseline) == []

    def test_efficiency_drop_beyond_tolerance_fails(self):
        current, baseline = self._documents(speedup=0.004)
        problems = gate(
            current, baseline, tolerance=0.30
        )
        assert len(problems) == 1
        assert "fell below" in problems[0]

    def test_grid_size_mismatch_names_the_sweep_flag(self):
        current, baseline = self._documents(
            key="sweep/noop@32", cycles=64
        )
        problems = gate(current, baseline)
        assert len(problems) == 1
        assert "--scale" in problems[0]
        assert "measured at size 64" in problems[0]

    def test_efficiency_below_floor_fails_within_tolerance(self):
        """The sweep point is held to 0.002 of bare-engine throughput
        whatever its baseline says."""
        current, baseline = self._documents(workload="noop",
                                            speedup=0.0019)
        baseline["points"][0].update(workload="noop", speedup=0.0019)
        problems = gate(current, baseline, tolerance=0.30)
        assert len(problems) == 1
        assert "0.002x floor" in problems[0]

    def test_noc_only_run_skips_sweep_points(self):
        current, baseline = self._documents()
        current["suites"] = ["noc"]
        current["points"] = []
        assert gate(current, baseline) == []
