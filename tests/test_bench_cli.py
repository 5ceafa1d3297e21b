"""Tests for the ``repro bench`` subcommand and the bench harness.

Tiny workloads (milliseconds) exercise the timing, cross-check and
gating plumbing of every suite; timing stability is the CI bench
job's business.
"""

import itertools
import json
import sys
from pathlib import Path

import pytest

from repro import bench
from repro.__main__ import main
from repro.bench import (
    SCHEMA,
    WORKLOADS,
    Point,
    Workload,
    _measure,
    counters,
    default_points,
    gate,
    load_baseline,
    profile,
    run_bench,
    run_point,
)

#: tiny workload: 2x2 mesh, 60 cycles — milliseconds per kernel
TINY = ["--mesh", "2", "--rates", "0.1", "--cycles", "60", "--repeats", "1"]

#: the committed baseline the CI bench job gates against
BASELINE = (Path(__file__).resolve().parent.parent
            / "benchmarks" / "baseline_bench.json")


def noc_point(mesh_size, injection_rate, cycles=1500):
    return Point("noc", "mesh", cycles, mesh_size=mesh_size,
                 injection_rate=injection_rate)


#: one point per suite, milliseconds each
TINY_POINTS = {
    "noc": noc_point(2, 0.1, cycles=60),
    "gate": Point("gate", "serializer-i3", 4),
    "compiled": Point("compiled", "ringosc", 64),
    "sweep": Point("sweep", "noop", 8),
}
SUITES = tuple(TINY_POINTS)


def floor_document(*points):
    """A bench document of ``(suite, workload, speedup)`` points."""
    return {
        "schema": SCHEMA, "python": "3.11.7",
        "suites": sorted({suite for suite, _w, _s in points}),
        "points": [
            {"suite": suite, "workload": workload, "speedup": speedup,
             "key": f"{suite}/{workload}@6", "cycles": 6,
             "stats_match": True}
            for suite, workload, speedup in points
        ],
    }


@pytest.fixture(autouse=True)
def no_round_time(monkeypatch):
    """Run each side exactly ``repeats`` times: these tests check the
    plumbing, not the timing, so they spend no :data:`bench.ROUND_S`."""
    monkeypatch.setattr(bench, "ROUND_S", 0.0)


class TestEverySuite:
    @pytest.mark.parametrize("suite", SUITES)
    def test_reference_skippable(self, suite):
        record = run_point(TINY_POINTS[suite], reference=False, repeats=1)
        assert record["reference_wall_s"] is None
        assert record["speedup"] is None
        assert record["stats_match"] is None
        assert record["rate"] > 0

    @pytest.mark.parametrize("suite", SUITES)
    def test_unknown_workload_rejected(self, suite):
        with pytest.raises(ValueError, match="unknown bench workload"):
            run_point(Point(suite, "warp-drive", 8), repeats=1)

    @pytest.mark.parametrize("suite", SUITES)
    def test_run_bench_tags_the_suite(self, suite):
        document = run_bench([TINY_POINTS[suite]], reference=False,
                             repeats=1, collect_metrics=False)
        assert document["schema"] == SCHEMA == 5
        assert document["suites"] == [suite]
        assert [p["suite"] for p in document["points"]] == [suite]

    @pytest.mark.parametrize("suite,options,keys", [
        # the nominal 4x4 point, the 8x8 acceptance gates and the
        # adaptive-routing point
        ("noc", {"cycles": 300}, ["4x4@0.1/uniform/xy/I3",
                                  "8x8@0.02/uniform/xy/I3",
                                  "8x8@0.35/uniform/xy/I3",
                                  "8x8@0.15/uniform/west_first/I3"]),
        ("gate", {}, ["gate/serializer-i3@144", "gate/serializer-i2@96",
                      "gate/fourphase-chain@40", "gate/ringosc@40000"]),
        # scaling never goes below a row's floor
        ("gate", {"scale": 0.01}, ["gate/serializer-i3@4",
                                   "gate/serializer-i2@4",
                                   "gate/fourphase-chain@4",
                                   "gate/ringosc@400"]),
        ("compiled", {}, ["compiled/fault-batch@12",
                          "compiled/ringosc@20000"]),
        ("compiled", {"scale": 0.5}, ["compiled/fault-batch@6",
                                      "compiled/ringosc@10000"]),
        ("sweep", {}, ["sweep/noop@128"]),
        ("sweep", {"scale": 0.5}, ["sweep/noop@64"]),
        # the floor keeps a micro-scale run a real grid, not one point
        ("sweep", {"scale": 0.01}, ["sweep/noop@8"]),
    ], ids=["noc", "gate", "gate-floor", "compiled", "compiled-half",
            "sweep", "sweep-half", "sweep-floor"])
    def test_default_points(self, suite, options, keys):
        assert [p.key for p in default_points(**options)
                if p.suite == suite] == keys


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

    def test_sides_take_turns_until_round_time_passed(self, monkeypatch):
        """Each side runs once per turn, and turns go on past
        ``repeats`` until ``repeats`` x ``ROUND_S`` of wall time passed."""
        calls = []

        def side(tag):
            def build():
                calls.append(tag)
                return (lambda: None), (lambda _result: (1, tag))
            return build

        monkeypatch.setattr(bench, "ROUND_S", 2.5)
        clock = itertools.count()  # one second per reading
        monkeypatch.setattr(bench.time, "monotonic", lambda: next(clock))
        best = bench._best([side("fast"), side("ref")], repeats=1)
        # deadline 2.5: turns start at t = 0 (repeats), 1 and 2
        assert calls == ["fast", "ref"] * 3
        assert [fingerprint for _w, _n, fingerprint in best] == \
            ["fast", "ref"]

    def test_point_key_stable(self):
        assert noc_point(4, 0.1).key == "4x4@0.1/uniform/xy/I3"

    def test_profile_point_names_the_kernel(self):
        text = profile(noc_point(2, 0.1, cycles=40))
        assert "step" in text
        assert "function calls" in text


class TestBaselineCheck:
    def _doc(self, speedup, key="2x2@0.1/uniform/xy/I3",
             stats_match=True):
        return {
            "schema": SCHEMA,
            "suites": ["noc"],
            "points": [{
                "suite": "noc",
                "workload": "mesh",
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
        problems = gate(current, baseline, tolerance=0.30)
        assert any("interpreter mismatch" in p for p in problems)
        # patch releases of the same minor are fine
        current["python"] = "3.11.2"
        assert gate(current, baseline, tolerance=0.30) == []

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
        problems = gate(current, baseline, tolerance=0.30)
        assert any("cycles" in p for p in problems)

    @pytest.mark.parametrize("suite,workload,speedup", [
        ("compiled", "fault-batch", 50.0), ("sweep", "noop", 0.008),
    ], ids=["compiled", "sweep"])
    def test_size_mismatch_names_the_scale_flag(self, suite, workload,
                                                speedup):
        baseline = floor_document((suite, workload, speedup))
        current = floor_document((suite, workload, speedup))
        current["points"][0]["cycles"] = 64
        problems = gate(current, baseline)
        assert len(problems) == 1
        assert "--scale" in problems[0]
        assert "measured at size 64" in problems[0]

    def test_committed_schema5_baseline_loads(self):
        assert load_baseline(str(BASELINE))["schema"] == 5

    @pytest.mark.parametrize("document", [
        # a sweep artifact summary: an object, but no bench points
        "baselines/mesh-design-space/summary.json",
        {"schema": SCHEMA},
        [{"key": "4x4@0.1/uniform/xy/I3", "speedup": 5.0}],
    ], ids=["sweep-summary", "no-points", "json-list"])
    def test_non_bench_document_refused(self, tmp_path, document):
        if isinstance(document, str):
            path = Path(__file__).resolve().parent / document
        else:
            path = tmp_path / "other.json"
            path.write_text(json.dumps(document))
        with pytest.raises(ValueError, match="not a bench document"):
            load_baseline(str(path))

    @pytest.mark.parametrize("schema", [SCHEMA - 1, SCHEMA + 1],
                             ids=["older", "newer"])
    def test_other_schema_refused_by_name(self, tmp_path, schema):
        """Only this schema is gated: the committed baseline under any
        other schema number is refused, and the error names it."""
        document = json.loads(BASELINE.read_text())
        document["schema"] = schema
        path = tmp_path / "other.json"
        path.write_text(json.dumps(document))
        with pytest.raises(ValueError, match=f"has schema {schema}, "):
            load_baseline(str(path))


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
                "key": "2x2@0.1/uniform/xy/I3",
                "suite": "noc",
                "cycles": 60,
                "speedup": 0.01,
                "stats_match": True,
            }],
        }))
        assert point["key"] == "2x2@0.1/uniform/xy/I3"
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
        # the cap is 300 cycles of an 8x8 mesh in node-cycles
        assert point["cycles"] == 300 * 64 // (2 * 2)

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
        """--routing/--kind/... must reshape the default points rather
        than being silently ignored when --mesh/--rates are absent."""
        out = tmp_path / "bench.json"
        rc = main([
            "bench", "--routing", "west_first",
            "--kind", "I2", "--pattern", "transpose",
            "--cycles", "40", "--repeats", "1", "--no-reference",
            "--json", str(out),
        ])
        assert rc == 0
        points = json.loads(out.read_text())["points"]
        assert {p["routing"] for p in points} == {"west_first"}
        assert {p["kind"] for p in points} == {"I2"}
        assert {p["pattern"] for p in points} == {"transpose"}
        # the default mesh x rate gate points are preserved
        assert {(p["mesh_size"], p["injection_rate"]) for p in points} \
            == {(4, 0.10), (8, 0.02), (8, 0.35), (8, 0.15)}

    def test_points_keep_their_routing_without_flag(self, tmp_path):
        out = tmp_path / "bench.json"
        rc = main([
            "bench", "--suite", "noc", "--cycles", "20", "--repeats", "1",
            "--no-reference", "--json", str(out),
        ])
        assert rc == 0
        points = json.loads(out.read_text())["points"]
        assert [p["routing"] for p in points] == [
            "xy", "xy", "xy", "west_first",
        ]

    def test_committed_baseline_matches_default_points(self):
        """The checked-in baseline must gate the default --fast points
        of every suite (guards against the baseline going stale when
        points change)."""
        baseline = json.loads(BASELINE.read_text())
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
            "key": "4x4@0.1/uniform/xy/I3",
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
        """The committed baseline must load and gate every suite's
        speedups."""
        baseline = load_baseline(str(BASELINE))
        assert baseline["schema"] == 5
        assert set(baseline["suites"]) == {
            "noc", "gate", "compiled", "sweep",
        }
        by_suite = {}
        for point in baseline["points"]:
            by_suite.setdefault(point["suite"], []).append(point)
        assert len(by_suite["noc"]) == 4
        assert len(by_suite["gate"]) == 4
        assert len(by_suite["compiled"]) == 2
        assert len(by_suite["sweep"]) == 1
        # the committed fabric point: --fast grid of the no-op workload
        # (one in-process worker), dispatch efficiency recorded as the
        # gateable speedup ratio
        (sweep_point,) = by_suite["sweep"]
        assert sweep_point["cycles"] == 64
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

    def test_fault_batch_reports_lanes_and_matching_stats(self):
        record = run_point(Point("compiled", "fault-batch", 2), repeats=1)
        assert record["lanes"] == 64
        assert record["stats_match"] is True
        assert record["speedup"] is not None and record["speedup"] > 0
        assert record["rate"] > 0
        assert record["unit"] == "lane-steps/sec"
        assert record["suite"] == "compiled"
        assert record["key"] == "compiled/fault-batch@2"
        assert record["cycles"] == 2

    def test_ringosc_is_single_lane(self):
        record = run_point(TINY_POINTS["compiled"], repeats=1)
        assert record["lanes"] == 1
        assert record["stats_match"] is True
        assert record["speedup"] is not None

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


class TestSweepSuite:
    """The fabric's scheduling overhead: a real coordinator, file-lease
    transport and in-process worker on a no-op grid, cross-checked
    canonically against the bare engine, and gated like every suite."""

    def test_fabric_throughput_and_matching_results(self):
        record = run_point(TINY_POINTS["sweep"], repeats=1)
        assert record["rate"] > 0
        assert record["reference_wall_s"] > 0
        assert record["stats_match"] is True
        assert record["speedup"] is not None and record["speedup"] > 0
        assert record["suite"] == "sweep"
        assert record["key"] == "sweep/noop@8"
        assert record["cycles"] == 8
        assert record["unit"] == "points/sec"

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
            [TINY_POINTS["sweep"]], reference=False, repeats=1,
            collect_metrics=True,
        )
        metrics = document["points"][0]["metrics"]
        assert metrics["fabric.points_executed"] == 8
        assert metrics["fabric.items_claimed"] >= 1
        assert metrics["fabric.results"] == 8

    def test_matching_run_passes(self):
        document = floor_document(("sweep", "noop", 0.008))
        assert gate(document, document) == []

    def test_efficiency_drop_beyond_tolerance_fails(self):
        problems = gate(floor_document(("sweep", "noop", 0.004)),
                        floor_document(("sweep", "noop", 0.008)),
                        tolerance=0.30)
        assert len(problems) == 1
        assert "fell below" in problems[0]

    def test_efficiency_below_floor_fails_within_tolerance(self):
        """The sweep point is held to 0.002 of bare-engine throughput
        whatever its baseline says."""
        document = floor_document(("sweep", "noop", 0.0019))
        problems = gate(document, document, tolerance=0.30)
        assert len(problems) == 1
        assert "0.002x floor" in problems[0]

    def test_noc_only_run_skips_sweep_points(self):
        current = {"schema": SCHEMA, "python": "3.11.7",
                   "suites": ["noc"], "points": []}
        assert gate(current, floor_document(("sweep", "noop", 0.008))) \
            == []
