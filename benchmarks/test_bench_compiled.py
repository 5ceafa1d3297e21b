"""Bench-harness tests for the compiled suite and the baseline reader.

Tiny workloads (milliseconds) exercise the timing/cross-check plumbing;
the schema tests pin backward compatibility: a schema-2 baseline file
(the shape committed before the compiled suite existed) must keep
loading and gating, and a future schema must be refused rather than
silently half-checked.
"""

import json
from pathlib import Path

import pytest

from repro.bench import (
    SCHEMA,
    Point,
    default_points,
    gate,
    load_baseline,
    run_bench,
    run_point,
)

TINY_BATCH = Point("compiled", "fault-batch", 2)
TINY_RING = Point("compiled", "ringosc", 64)


def compiled_keys(**options):
    return [p.key for p in default_points(**options)
            if p.suite == "compiled"]


class TestCompiledPoints:
    def test_fault_batch_reports_lanes_and_matching_stats(self):
        record = run_point(TINY_BATCH, repeats=1)
        assert record["lanes"] == 64
        assert record["stats_match"] is True
        assert record["speedup"] is not None and record["speedup"] > 0
        assert record["rate"] > 0
        assert record["unit"] == "lane-steps/sec"
        assert record["suite"] == "compiled"
        assert record["key"] == "compiled/fault-batch@2"
        assert record["cycles"] == 2

    def test_ringosc_is_single_lane(self):
        record = run_point(TINY_RING, repeats=1)
        assert record["lanes"] == 1
        assert record["stats_match"] is True
        assert record["speedup"] is not None

    def test_reference_skippable(self):
        record = run_point(TINY_RING, reference=False, repeats=1)
        assert record["reference_wall_s"] is None
        assert record["speedup"] is None
        assert record["stats_match"] is None

    def test_default_points_cover_the_acceptance_gates(self):
        assert compiled_keys() == ["compiled/fault-batch@12",
                                   "compiled/ringosc@20000"]
        assert compiled_keys(scale=0.5) == ["compiled/fault-batch@6",
                                             "compiled/ringosc@10000"]

    def test_unknown_workload_rejected(self):
        with pytest.raises(ValueError, match="unknown bench workload"):
            run_point(Point("compiled", "warp-drive", 1), repeats=1)

    def test_run_bench_tags_the_suite(self):
        document = run_bench([TINY_RING], reference=False, repeats=1)
        assert document["schema"] == SCHEMA == 5
        assert document["suites"] == ["compiled"]
        assert [p["suite"] for p in document["points"]] == ["compiled"]


class TestSchemaCompatibility:
    def _schema2_document(self):
        """The exact shape committed before the compiled suite."""
        return {
            "schema": 2,
            "python": "3.11.7",
            "repeats": 5,
            "suites": ["noc", "gate"],
            "points": [
                {
                    "suite": "noc",
                    "key": "4x4@0.1/uniform/xy/vc1/I3",
                    "cycles": 300,
                    "speedup": 4.9,
                    "stats_match": True,
                },
                {
                    "suite": "gate",
                    "key": "gate/serializer-i3@12",
                    "workload": "serializer-i3",
                    "cycles": 12,
                    "speedup": 2.0,
                    "stats_match": True,
                },
            ],
        }

    def test_schema2_file_still_loads(self, tmp_path):
        path = tmp_path / "old.json"
        path.write_text(json.dumps(self._schema2_document()))
        assert load_baseline(str(path))["schema"] == 2

    def test_committed_schema5_baseline_loads(self):
        path = Path(__file__).resolve().parent / "baseline_bench.json"
        assert load_baseline(str(path))["schema"] == 5

    def test_schema4_file_still_loads(self, tmp_path):
        document = json.loads(
            (Path(__file__).resolve().parent / "baseline_bench.json")
            .read_text()
        )
        document["schema"] = 4
        path = tmp_path / "old.json"
        path.write_text(json.dumps(document))
        assert load_baseline(str(path))["schema"] == 4

    @pytest.mark.parametrize("document", [
        # a sweep artifact summary: an object, but no bench points
        "../tests/baselines/mesh-design-space/summary.json",
        {"schema": 4},
        [{"key": "4x4@0.1/uniform/xy/vc1/I3", "speedup": 5.0}],
    ], ids=["sweep-summary", "no-points", "json-list"])
    def test_non_bench_document_refused(self, tmp_path, document):
        if isinstance(document, str):
            path = Path(__file__).resolve().parent / document
        else:
            path = tmp_path / "other.json"
            path.write_text(json.dumps(document))
        with pytest.raises(ValueError, match="not a bench document"):
            load_baseline(str(path))

    def test_newer_schema_refused(self, tmp_path):
        path = tmp_path / "future.json"
        path.write_text(json.dumps({"schema": SCHEMA + 1, "points": []}))
        with pytest.raises(ValueError, match="newer than the supported"):
            load_baseline(str(path))

    def test_compiled_only_run_checked_against_schema2_baseline(self):
        """A schema-2 baseline has no compiled points: nothing to gate,
        nothing to flag — old files keep working as-is."""
        current = {
            "schema": SCHEMA,
            "python": "3.11.7",
            "suites": ["compiled"],
            "points": [{
                "suite": "compiled",
                "key": "compiled/ringosc@64",
                "cycles": 64,
                "speedup": 1.2,
                "stats_match": True,
            }],
        }
        assert gate(
            current, self._schema2_document()
        ) == []

    def test_schema3_baseline_gates_compiled_points(self):
        baseline = self._schema2_document()
        baseline["schema"] = 3
        baseline["suites"] = ["noc", "gate", "compiled"]
        baseline["points"].append({
            "suite": "compiled",
            "key": "compiled/fault-batch@6",
            "cycles": 6,
            "lanes": 64,
            "speedup": 50.0,
            "stats_match": True,
        })
        current = {
            "schema": SCHEMA,
            "python": "3.11.7",
            "suites": ["compiled"],
            "points": [{
                "suite": "compiled",
                "key": "compiled/fault-batch@6",
                "cycles": 6,
                "lanes": 64,
                "speedup": 5.0,  # collapsed vs the 50x baseline
                "stats_match": True,
            }],
        }
        problems = gate(current, baseline)
        assert len(problems) == 1
        assert "fell below" in problems[0]

    def test_compiled_size_mismatch_names_the_right_knob(self):
        baseline = self._schema2_document()
        baseline["points"].append({
            "suite": "compiled",
            "key": "compiled/fault-batch@6",
            "cycles": 6,
            "speedup": 50.0,
            "stats_match": True,
        })
        current = {
            "schema": SCHEMA,
            "python": "3.11.7",
            "suites": ["compiled"],
            "points": [{
                "suite": "compiled",
                "key": "compiled/fault-batch@6",
                "cycles": 99,
                "speedup": 50.0,
                "stats_match": True,
            }],
        }
        problems = gate(current, baseline)
        assert len(problems) == 1
        assert "--scale" in problems[0]
