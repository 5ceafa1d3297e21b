"""Tests for the ``repro bench`` subcommand and the bench harness."""

import json
import sys

import pytest

from repro.__main__ import main
from repro.bench import (
    WORKLOADS,
    Point,
    _measure,
    counters,
    default_points,
    gate,
    profile,
    run_point,
)

#: tiny workload: 2x2 mesh, 60 cycles — milliseconds per kernel
TINY = ["--mesh", "2", "--rates", "0.1", "--cycles", "60", "--repeats", "1"]


def noc_point(mesh_size, injection_rate, cycles=1500):
    return Point("noc", "mesh", cycles, mesh_size=mesh_size,
                 injection_rate=injection_rate)


def suite_points(suite, **options):
    return [p for p in default_points(**options) if p.suite == suite]


class TestBenchHarness:
    def test_run_point_reports_speedup_and_matching_stats(self):
        point = noc_point(2, 0.1, cycles=60)
        record = run_point(point, reference=True, repeats=1)
        assert record["rate"] > 0
        assert record["reference_wall_s"] > 0
        # 4 significant figures per recorded float
        assert record["speedup"] == pytest.approx(
            record["reference_wall_s"] / record["wall_s"], rel=2e-3
        )
        assert record["stats_match"] is True
        assert counters(point)["noc.flits_delivered"] > 0

    def test_reference_skippable(self):
        record = run_point(noc_point(2, 0.1, cycles=60), reference=False,
                           repeats=1)
        assert record["reference_wall_s"] is None
        assert record["speedup"] is None
        assert record["stats_match"] is None

    def test_default_points_cover_the_acceptance_gates(self):
        keys = [p.key for p in default_points(cycles=300)]
        assert "8x8@0.02/uniform/xy/vc1/I3" in keys
        assert "8x8@0.35/uniform/xy/vc1/I3" in keys

    def test_point_key_stable(self):
        assert noc_point(4, 0.1).key == "4x4@0.1/uniform/xy/vc1/I3"

    def test_profile_point_names_the_kernel(self):
        text = profile(noc_point(2, 0.1, cycles=40))
        assert "step" in text
        assert "function calls" in text


class TestBaselineCheck:
    def _doc(self, speedup, key="2x2@0.1/uniform/xy/vc1/I3",
             stats_match=True):
        return {
            "schema": 1,
            "points": [{
                "key": key,
                "speedup": speedup,
                "stats_match": stats_match,
            }],
        }

    def test_clean_when_within_tolerance(self):
        problems = gate(
            self._doc(3.0), self._doc(3.5), tolerance=0.30
        )
        assert problems == []

    def test_regression_reported(self):
        problems = gate(
            self._doc(2.0), self._doc(4.0), tolerance=0.30
        )
        assert len(problems) == 1
        assert "fell below" in problems[0]

    def test_missing_point_reported(self):
        problems = gate(
            self._doc(3.0, key="other"), self._doc(3.0), tolerance=0.30
        )
        assert any("missing" in p for p in problems)

    def test_diverged_stats_reported(self):
        problems = gate(
            self._doc(5.0, stats_match=False), self._doc(3.0),
            tolerance=0.30,
        )
        assert any("diverged" in p for p in problems)

    def test_interpreter_mismatch_reported(self):
        """Speedup ratios are only comparable within one CPython
        major.minor — a baseline from another interpreter must refuse."""
        current = self._doc(3.0)
        baseline = self._doc(3.0)
        current["python"] = "3.12.1"
        baseline["python"] = "3.11.7"
        problems = gate(current, baseline,
                                          tolerance=0.30)
        assert any("interpreter mismatch" in p for p in problems)
        # patch releases of the same minor are fine
        current["python"] = "3.11.2"
        assert gate(current, baseline,
                                      tolerance=0.30) == []

    def test_tolerance_outside_unit_interval_rejected(self):
        """A tolerance of 1 or more turns every floor into zero or less:
        a 0.01x point would pass against a 5x baseline."""
        with pytest.raises(ValueError, match="outside"):
            gate(self._doc(0.01), self._doc(5.0), tolerance=1.5)
        for tolerance in ("1.5", "1", "-0.1"):
            with pytest.raises(SystemExit):
                main(["bench", *TINY, "--tolerance", tolerance])

    def test_cycle_count_mismatch_reported(self):
        """Speedups measured over different cycle counts are not
        comparable — the check must refuse rather than gate them."""
        current = self._doc(3.0)
        baseline = self._doc(3.0)
        current["points"][0]["cycles"] = 1500
        baseline["points"][0]["cycles"] = 300
        problems = gate(current, baseline,
                                          tolerance=0.30)
        assert any("cycles" in p for p in problems)


class TestBenchCli:
    def test_bench_writes_json(self, tmp_path, capsys):
        out = tmp_path / "bench.json"
        rc = main(["bench", *TINY, "--json", str(out)])
        assert rc == 0
        document = json.loads(out.read_text())
        assert document["schema"] == 5
        assert document["suites"] == ["noc"]
        (point,) = document["points"]
        assert point["suite"] == "noc"
        assert point["speedup"] > 0
        assert point["stats_match"] is True
        assert "cycles/sec" in capsys.readouterr().out

    def test_bench_self_check_passes(self, tmp_path, capsys):
        """The ``--check`` wiring against a fixed baseline: it names the
        TINY point at its size and interpreter, with a speedup bar far
        below any real timing, so this passes whatever the host's load.
        Gating live timings is the CI bench job's business."""
        out = tmp_path / "bench.json"
        assert main(["bench", *TINY, "--json", str(out)]) == 0
        (point,) = json.loads(out.read_text())["points"]
        baseline = tmp_path / "baseline.json"
        baseline.write_text(json.dumps({
            "schema": 5,
            "python": sys.version.split()[0],
            "suites": ["noc"],
            "points": [{
                "key": "2x2@0.1/uniform/xy/vc1/I3",
                "suite": "noc",
                "cycles": 60,
                "speedup": 0.01,
                "stats_match": True,
            }],
        }))
        assert point["key"] == "2x2@0.1/uniform/xy/vc1/I3"
        capsys.readouterr()
        assert main(["bench", *TINY, "--check", str(baseline)]) == 0
        assert "within 30% of" in capsys.readouterr().out

    def test_bench_check_fails_on_regression(self, tmp_path, capsys):
        out = tmp_path / "bench.json"
        assert main(["bench", *TINY, "--json", str(out)]) == 0
        doctored = json.loads(out.read_text())
        for point in doctored["points"]:
            point["speedup"] = point["speedup"] * 100  # unreachable bar
        out.write_text(json.dumps(doctored))
        rc = main(["bench", *TINY, "--check", str(out)])
        assert rc == 1
        assert "bench regression" in capsys.readouterr().err

    def test_bench_profile_smoke(self, capsys):
        rc = main(["bench", *TINY, "--profile"])
        assert rc == 0
        assert "cProfile" in capsys.readouterr().out

    def test_bench_profile_picks_most_loaded_point(self, capsys):
        rc = main([
            "bench", "--mesh", "2,3", "--rates", "0.05,0.2",
            "--cycles", "40", "--repeats", "1", "--no-reference",
            "--profile",
        ])
        assert rc == 0
        out = capsys.readouterr().out
        assert "cProfile of the optimized kernel (3x3@0.2/" in out

    def test_bench_fast_caps_cycles(self, tmp_path):
        out = tmp_path / "bench.json"
        rc = main([
            "bench", "--mesh", "2", "--rates", "0.1",
            "--cycles", "5000", "--fast", "--json", str(out),
        ])
        assert rc == 0
        (point,) = json.loads(out.read_text())["points"]
        assert point["cycles"] == 300

    def test_bench_no_reference(self, tmp_path):
        out = tmp_path / "bench.json"
        rc = main(["bench", *TINY, "--no-reference", "--json", str(out)])
        assert rc == 0
        (point,) = json.loads(out.read_text())["points"]
        assert point["speedup"] is None

    def test_bench_rejects_bad_cycles(self):
        with pytest.raises(SystemExit):
            main(["bench", "--cycles", "0"])

    def test_bench_rejects_malformed_mesh_and_rates(self):
        with pytest.raises(SystemExit):
            main(["bench", "--mesh", "4x4"])
        with pytest.raises(SystemExit):
            main(["bench", "--mesh", ","])
        with pytest.raises(SystemExit):
            main(["bench", "--mesh", "2", "--rates", "fast"])
        with pytest.raises(SystemExit):
            main(["bench", "--mesh", "2", "--rates", "1.5"])

    def test_workload_flags_apply_without_mesh(self, tmp_path):
        """--routing/--vcs/... must reshape the default points rather
        than being silently ignored when --mesh/--rates are absent."""
        out = tmp_path / "bench.json"
        rc = main([
            "bench", "--routing", "west_first", "--vcs", "2",
            "--kind", "I2", "--pattern", "transpose",
            "--cycles", "40", "--repeats", "1", "--no-reference",
            "--json", str(out),
        ])
        assert rc == 0
        points = json.loads(out.read_text())["points"]
        assert {p["routing"] for p in points} == {"west_first"}
        assert {p["n_vcs"] for p in points} == {2}
        assert {p["kind"] for p in points} == {"I2"}
        assert {p["pattern"] for p in points} == {"transpose"}
        # the default mesh x rate gate points are preserved
        assert {(p["mesh_size"], p["injection_rate"]) for p in points} \
            == {(4, 0.10), (8, 0.02), (8, 0.35)}

    def test_committed_baseline_matches_default_points(self):
        """The checked-in baseline must gate the default --fast points
        of every suite (guards against the baseline going stale when
        points change)."""
        from pathlib import Path

        baseline_path = (
            Path(__file__).resolve().parent.parent
            / "benchmarks" / "baseline_bench.json"
        )
        baseline = json.loads(baseline_path.read_text())
        assert {p["key"] for p in baseline["points"]} == {
            p.key for p in default_points(fast=True)
        }
        assert all(p["speedup"] is not None for p in baseline["points"])


class TestGateSuiteHarness:
    def test_run_gate_point_cross_checks_kernels(self):
        point = Point("gate", "serializer-i3", 4)
        record = run_point(point, reference=True, repeats=1)
        assert record["rate"] > 0
        assert record["reference_wall_s"] > 0
        assert record["stats_match"] is True
        assert record["speedup"] == pytest.approx(
            record["reference_wall_s"] / record["wall_s"], rel=2e-3
        )
        metrics = counters(point)
        assert metrics["sim.events_executed"] > 0
        # synchronizers re-drive the values their flops hold
        assert metrics["sim.drives_elided"] > 0

    @pytest.mark.parametrize(
        "workload", ["serializer-i2", "fourphase-chain", "ringosc"]
    )
    def test_other_workloads_match_reference(self, workload):
        size = 2000 if workload == "ringosc" else 4
        record = run_point(
            Point("gate", workload, size), reference=True, repeats=1
        )
        assert record["stats_match"] is True

    @pytest.mark.parametrize("workload,size", [
        ("serializer-i3", 4), ("serializer-i2", 4),
        ("fourphase-chain", 4), ("ringosc", 2000),
    ])
    def test_work_counted_in_seed_kernel_events(self, workload, size):
        """Both sides of a gate row report the same work: the optimized
        kernel's executed, cancelled and elided events add up to the
        seed kernel's executed ones."""
        point = Point("gate", workload, size)
        fast, slow = WORKLOADS["gate", workload].build(point)
        assert _measure(fast)[1] == _measure(slow)[1]

    def test_gate_point_key_stable(self):
        assert Point("gate", "serializer-i3", 24).key == \
            "gate/serializer-i3@24"

    def test_default_gate_points_cover_the_acceptance_gate(self):
        points = suite_points("gate")
        assert points[0].workload == "serializer-i3"
        assert {p.workload for p in points} == {
            "serializer-i3", "serializer-i2", "fourphase-chain", "ringosc",
        }
        # --fast halves the workloads but never below the floor
        fast = suite_points("gate", scale=0.01)
        assert all(p.size >= 4 for p in fast)

    def test_unknown_workload_rejected(self):
        with pytest.raises(ValueError, match="unknown bench workload"):
            run_point(Point("gate", "warp-drive", 4), repeats=1)

    def test_profile_gate_point_names_the_kernel(self):
        text = profile(Point("gate", "serializer-i3", 4))
        assert "run" in text
        assert "function calls" in text


class TestGateSuiteCli:
    GATE_TINY = ["--suite", "gate", "--scale", "0.01", "--repeats", "1"]

    def test_gate_suite_writes_json(self, tmp_path, capsys):
        out = tmp_path / "bench.json"
        rc = main(["bench", *self.GATE_TINY, "--json", str(out)])
        assert rc == 0
        document = json.loads(out.read_text())
        assert document["suites"] == ["gate"]
        assert {p["suite"] for p in document["points"]} == {"gate"}
        assert all(p["stats_match"] for p in document["points"])
        assert "events/sec" in capsys.readouterr().out

    def _easy_baseline(self, document):
        """Drop the recorded speedups to a floor any machine clears —
        these tests exercise the check plumbing, not timing stability
        (micro-sized workloads are too noisy to self-gate at 30 %)."""
        for point in document["points"]:
            point["speedup"] = 0.01
        return document

    def test_gate_suite_self_check_passes(self, tmp_path):
        out = tmp_path / "bench.json"
        assert main(["bench", *self.GATE_TINY, "--json", str(out)]) == 0
        baseline = self._easy_baseline(json.loads(out.read_text()))
        out.write_text(json.dumps(baseline))
        assert main(["bench", *self.GATE_TINY, "--check", str(out)]) == 0

    def test_gate_check_skips_foreign_suite_points(self, tmp_path):
        """A gate-only run checked against a combined baseline must not
        flag the absent noc points (and vice versa)."""
        out = tmp_path / "bench.json"
        assert main(["bench", *self.GATE_TINY, "--json", str(out)]) == 0
        combined = self._easy_baseline(json.loads(out.read_text()))
        combined["points"].append({
            "suite": "noc",
            "key": "4x4@0.1/uniform/xy/vc1/I3",
            "speedup": 99.0,  # would regress if it were checked
            "cycles": 300,
            "stats_match": True,
        })
        out.write_text(json.dumps(combined))
        assert main(["bench", *self.GATE_TINY, "--check", str(out)]) == 0

    def test_gate_check_fails_on_regression(self, tmp_path, capsys):
        out = tmp_path / "bench.json"
        assert main(["bench", *self.GATE_TINY, "--json", str(out)]) == 0
        doctored = json.loads(out.read_text())
        for point in doctored["points"]:
            point["speedup"] = point["speedup"] * 100
        out.write_text(json.dumps(doctored))
        rc = main(["bench", *self.GATE_TINY, "--check", str(out)])
        assert rc == 1
        assert "bench regression" in capsys.readouterr().err

    def test_suite_all_runs_every_suite(self, tmp_path):
        out = tmp_path / "bench.json"
        rc = main([
            "bench", "--suite", "all", "--mesh", "2", "--rates", "0.1",
            "--cycles", "40", "--scale", "0.01",
            "--repeats", "1", "--no-reference", "--json", str(out),
        ])
        assert rc == 0
        document = json.loads(out.read_text())
        assert document["suites"] == [
            "noc", "gate", "compiled", "sweep",
        ]
        assert {p["suite"] for p in document["points"]} == {
            "noc", "gate", "compiled", "sweep",
        }

    def test_gate_profile_smoke(self, capsys):
        rc = main(["bench", *self.GATE_TINY, "--no-reference", "--profile"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "cProfile of the optimized kernel (gate/serializer-i3@" in out

    def test_mesh_flags_rejected_for_gate_suite(self):
        with pytest.raises(SystemExit):
            main(["bench", "--suite", "gate", "--mesh", "2"])

    def test_bad_gate_scale_rejected(self):
        with pytest.raises(SystemExit):
            main(["bench", "--suite", "gate", "--scale", "0"])

    def test_committed_baseline_is_schema_5_with_every_suite(self):
        """The committed baseline must gate every suite's speedups."""
        from pathlib import Path

        baseline = json.loads(
            (Path(__file__).resolve().parent.parent
             / "benchmarks" / "baseline_bench.json").read_text()
        )
        assert baseline["schema"] == 5
        assert set(baseline["suites"]) == {
            "noc", "gate", "compiled", "sweep",
        }
        by_suite = {}
        for point in baseline["points"]:
            by_suite.setdefault(point["suite"], []).append(point)
        assert len(by_suite["noc"]) == 3
        assert len(by_suite["gate"]) == 4
        assert len(by_suite["compiled"]) == 2
        assert len(by_suite["sweep"]) == 1
        # the committed fabric point: --fast grid of the no-op workload
        # (one in-process worker), dispatch efficiency recorded as the
        # gateable speedup ratio
        (sweep_point,) = by_suite["sweep"]
        assert sweep_point["cycles"] == 32
        assert sweep_point["workload"] == "noop"
        assert sweep_point["unit"] == "points/sec"
        assert sweep_point["lanes"] == 1
        assert 0 < sweep_point["speedup"] < 1.0
        gate_keys = {p["workload"] for p in by_suite["gate"]}
        assert "serializer-i3" in gate_keys
        # the perf acceptance gates: >= 8x aggregate lanes/sec on the
        # 64-lane fault batch, >= 1x on the single-lane ring oscillator
        compiled = {p["workload"]: p for p in by_suite["compiled"]}
        assert compiled["fault-batch"]["lanes"] == 64
        assert compiled["fault-batch"]["speedup"] >= 8.0
        assert compiled["ringosc"]["lanes"] == 1
        assert compiled["ringosc"]["speedup"] >= 1.0
        # every committed point carries a gateable speedup + clean stats
        for point in baseline["points"]:
            assert point["speedup"] > 0
            assert point["stats_match"] is True

    def test_gate_scale_rejected_for_noc_suite(self):
        with pytest.raises(SystemExit):
            main(["bench", "--suite", "noc", "--scale", "2.0"])


def floor_document(*points):
    """A bench document of ``(suite, workload, speedup)`` points."""
    return {
        "schema": 5, "python": "3.11.7",
        "suites": sorted({suite for suite, _w, _s in points}),
        "points": [
            {"suite": suite, "workload": workload, "speedup": speedup,
             "key": f"{suite}/{workload}@6", "cycles": 6,
             "stats_match": True}
            for suite, workload, speedup in points
        ],
    }


class TestCompiledSuiteCli:
    COMPILED_TINY = [
        "--suite", "compiled", "--scale", "0.005", "--repeats", "1",
    ]

    def test_compiled_suite_writes_json(self, tmp_path, capsys):
        out = tmp_path / "bench.json"
        rc = main(["bench", *self.COMPILED_TINY, "--json", str(out)])
        assert rc == 0
        document = json.loads(out.read_text())
        assert document["suites"] == ["compiled"]
        points = {p["workload"]: p for p in document["points"]}
        assert set(points) == {"fault-batch", "ringosc"}
        assert all(p["stats_match"] for p in points.values())
        assert "lane-steps/sec" in capsys.readouterr().out

    def test_min_compiled_speedup_gate_passes(self):
        document = floor_document(("compiled", "fault-batch", 4.0),
                                  ("compiled", "ringosc", 1.0))
        assert gate(document, {"points": []}) == []

    def test_min_compiled_speedup_gate_fails(self):
        """The 64-lane batch is held to 4x; the single-lane ring
        oscillator only to 1x, not to the batch floor."""
        document = floor_document(("compiled", "fault-batch", 3.9),
                                  ("compiled", "ringosc", 2.0))
        problems = gate(document, {"points": []})
        assert len(problems) == 1
        assert "fault-batch" in problems[0]
        assert "4x floor" in problems[0]
        # ... even when the baseline's own speedup would allow it
        document = floor_document(("compiled", "ringosc", 0.95))
        problems = gate(document, document)
        assert len(problems) == 1
        assert "1x floor" in problems[0]

    def test_min_compiled_speedup_needs_a_reference(self, tmp_path,
                                                    capsys):
        """--check applies the floors even where the baseline has no
        matching points, so a run without speedups cannot pass."""
        baseline = tmp_path / "empty.json"
        baseline.write_text(json.dumps({"schema": 5, "points": []}))
        rc = main(["bench", *self.COMPILED_TINY, "--no-reference",
                   "--check", str(baseline)])
        assert rc == 1
        err = capsys.readouterr().err
        assert "compiled/fault-batch@2: no speedup recorded" in err
        assert "compiled/ringosc@100: no speedup recorded" in err

    def test_compiled_flags_rejected_for_other_suites(self):
        with pytest.raises(SystemExit):
            main(["bench", "--suite", "noc", "--scale", "0.5"])
        with pytest.raises(SystemExit):
            main(["bench", "--suite", "compiled", "--scale", "0"])
        # the per-suite flags are gone; their floors are constants
        with pytest.raises(SystemExit):
            main(["bench", "--suite", "compiled",
                  "--min-compiled-speedup", "4"])

    def test_mesh_flags_rejected_for_compiled_suite(self):
        with pytest.raises(SystemExit):
            main(["bench", "--suite", "compiled", "--mesh", "2"])

    def test_fast_halves_compiled_scale(self, tmp_path):
        out = tmp_path / "bench.json"
        rc = main(["bench", "--suite", "compiled", "--fast",
                   "--repeats", "1", "--no-reference",
                   "--json", str(out)])
        assert rc == 0
        document = json.loads(out.read_text())
        keys = {p["key"] for p in document["points"]}
        assert keys == {"compiled/fault-batch@6",
                        "compiled/ringosc@10000"}
