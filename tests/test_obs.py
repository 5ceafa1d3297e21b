"""Observability layer: registry, point records, progress, analytics.

Covers the obs contract end to end: metric primitives and deterministic
snapshots, the no-op guarantee when collection is disabled (the kernels
must leave the registry untouched), the per-point records of the
``telemetry.json`` snapshot, the progress renderer under an injected
clock, the ``repro telemetry`` analytics, and the CLI-level invariant
that ``--progress`` changes no artifact byte.
"""

import io
import json
import os

import pytest

from repro.__main__ import main
from repro.obs import analyze, metrics, progress
from repro.runner import engine, registry, sweep
from repro.store import codec, journal


@pytest.fixture(autouse=True)
def _pristine_registry():
    """Each test sees a disabled, empty registry and leaves one behind."""
    prior = metrics.REGISTRY.enabled
    metrics.REGISTRY.reset()
    metrics.REGISTRY.enabled = False
    os.environ.pop(metrics.ENV_FLAG, None)
    yield
    metrics.REGISTRY.reset()
    metrics.REGISTRY.enabled = prior
    os.environ.pop(metrics.ENV_FLAG, None)


class _AllOk:
    """Minimal stand-in for a passing ExperimentResult (``outcome.ok``
    reads only ``all_ok``)."""

    all_ok = True


def _outcome(params=(), error="", duration=None, t_mono=None,
             obs_metrics=None, scenario="table1", result="default"):
    request = engine.RunRequest(scenario_id=scenario, params=tuple(params))
    out = engine.RunOutcome(request=request, error=error)
    if result == "default":
        result = None if error else _AllOk()
    out.result = result
    out.duration_s = duration
    out.t_mono = t_mono
    out.metrics = dict(obs_metrics or {})
    return out


# ----------------------------------------------------------------------
class TestRegistry:
    def test_counter_gauge_histogram(self):
        reg = metrics.MetricsRegistry(enabled=True)
        reg.counter("a").inc()
        reg.counter("a").inc(4)
        reg.gauge("g").set(7)
        hist = reg.histogram("h", (1, 4, 8))
        for value in (0, 1, 2, 9):
            hist.observe(value)
        snap = reg.snapshot()
        assert snap["counter:a"] == 5
        assert snap["gauge:g"] == 7
        assert snap["hist:h"] == [[1, 4, 8], [2, 1, 0, 1]]

    def test_snapshot_keys_sorted_and_json_stable(self):
        reg = metrics.MetricsRegistry(enabled=True)
        reg.counter("z").inc()
        reg.counter("a").inc()
        reg.gauge("m").set(1)
        snap = reg.snapshot()
        assert list(snap) == sorted(snap)
        assert json.dumps(snap, sort_keys=True) == json.dumps(
            reg.snapshot(), sort_keys=True
        )

    def test_histogram_bounds_fixed_at_creation(self):
        reg = metrics.MetricsRegistry(enabled=True)
        reg.histogram("h", (1, 2))
        reg.histogram("h", (1, 2))  # same bounds: fine
        with pytest.raises(ValueError, match="already exists"):
            reg.histogram("h", (1, 2, 3))
        with pytest.raises(ValueError, match="ascending"):
            reg.histogram("bad", (2, 1))

    def test_snapshot_delta_semantics(self):
        reg = metrics.MetricsRegistry(enabled=True)
        reg.counter("c").inc(3)
        reg.gauge("g").set(10)
        before = reg.snapshot()
        reg.counter("c").inc(2)
        reg.gauge("g").set(4)
        after = reg.snapshot()
        delta = metrics.snapshot_delta(before, after)
        assert delta["counter:c"] == 2           # counters subtract
        assert delta["gauge:g"] == 4             # gauges report levels

    def test_snapshot_delta_omits_unchanged(self):
        reg = metrics.MetricsRegistry(enabled=True)
        reg.counter("touched").inc()
        reg.counter("untouched").inc(5)
        before = reg.snapshot()
        reg.counter("touched").inc()
        delta = metrics.snapshot_delta(before, reg.snapshot())
        assert "counter:untouched" not in delta
        assert delta == {"counter:touched": 1}

    def test_reset_and_is_empty(self):
        reg = metrics.MetricsRegistry(enabled=True)
        assert reg.is_empty()
        reg.counter("c").inc()
        assert not reg.is_empty()
        reg.reset()
        assert reg.is_empty()
        assert reg.enabled  # reset leaves the flag alone

    def test_enable_exports_env_flag_for_spawned_workers(self):
        metrics.enable()
        assert metrics.REGISTRY.enabled
        assert os.environ[metrics.ENV_FLAG] == "1"
        metrics.disable()
        assert not metrics.REGISTRY.enabled
        assert metrics.ENV_FLAG not in os.environ

    def test_collecting_restores_prior_state(self):
        assert not metrics.REGISTRY.enabled
        with metrics.collecting(reset=True) as reg:
            assert reg is metrics.REGISTRY
            assert reg.enabled
            reg.counter("c").inc()
        assert not metrics.REGISTRY.enabled
        # contents survive; only the flag is restored
        assert metrics.REGISTRY.counters() == {"c": 1}


# ----------------------------------------------------------------------
class TestKernelsNoOpWhenDisabled:
    """The disabled registry must stay byte-for-byte untouched: any
    metric object created here means an instrumentation site dropped
    its ``if _OBS.enabled`` guard."""

    def test_event_kernel(self):
        from repro.sim import Simulator

        sim = Simulator()
        count = 0

        def tick():
            nonlocal count
            count += 1
            if count < 200:
                sim.schedule(1, tick)

        sim.schedule(1, tick)
        sim.run()
        assert count == 200
        assert metrics.REGISTRY.is_empty()

    def test_noc_kernel(self, monkeypatch):
        from repro import bench
        from repro.bench import Point, run_point

        monkeypatch.setattr(bench, "ROUND_S", 0.0)  # one run is enough
        point = Point("noc", "mesh", 40, mesh_size=2, injection_rate=0.2)
        run_point(point, reference=False, repeats=1)
        assert metrics.REGISTRY.is_empty()

    def test_compiled_backend(self):
        from repro.compiled import MASK, compile_component
        from repro.elements.ringosc import RingOscillator
        from repro.sim import Simulator

        sim = Simulator()
        enable = sim.signal("en")
        osc = RingOscillator(sim, enable, stages=5)
        circuit = compile_component(osc)
        circuit.poke(enable, MASK)
        circuit.settle()
        circuit.tick(16)
        assert metrics.REGISTRY.is_empty()


class TestKernelsCountWhenEnabled:
    def test_event_kernel_counters(self):
        from repro.sim import Simulator

        with metrics.collecting(reset=True) as reg:
            sim = Simulator()
            count = 0

            def tick():
                nonlocal count
                count += 1
                if count < 300:
                    sim.schedule(5, tick)

            sim.schedule(5, tick)
            sim.run()
            counters = reg.counters()
        assert counters["sim.events_executed"] >= 300
        # the very first schedule() predates run(), so it is part of
        # the entry live-set, not of the scheduled-during-run delta
        assert counters["sim.events_scheduled"] >= 299

    def test_elided_drive_counters(self):
        """No-op inertial drives issued while running are published in
        bulk when run() returns: 3 re-drives of a held value, of which
        one is revived by a later set."""
        from repro.sim import Simulator

        with metrics.collecting(reset=True) as reg:
            sim = Simulator()
            nets = [sim.signal(f"n{i}") for i in range(3)]

            def redrive():
                for net in nets:
                    net.drive(0, 100)

            sim.schedule(5, redrive)
            sim.schedule(50, lambda: nets[0].set(1))
            sim.run()
            counters = reg.counters()
        assert counters["sim.drives_elided"] == 2
        assert counters["sim.shadows_revived"] == 1
        assert nets[0].value == 0  # the revived apply restored it

    def test_noc_kernel_counters(self):
        from repro.bench import Point
        from repro.bench import counters as replay_counters

        point = Point("noc", "mesh", 60, mesh_size=2, injection_rate=0.2)
        counters = replay_counters(point)
        assert counters["noc.cycles"] == 60
        assert counters["noc.flits_routed"] > 0
        assert counters["noc.credit_accruals"] > 0

    def test_compiled_backend_counters(self):
        from repro.compiled import MASK, compile_component
        from repro.elements.ringosc import RingOscillator
        from repro.sim import Simulator

        with metrics.collecting(reset=True) as reg:
            sim = Simulator()
            enable = sim.signal("en")
            osc = RingOscillator(sim, enable, stages=5)
            circuit = compile_component(osc)
            circuit.poke(enable, MASK)
            circuit.settle()
            circuit.tick(16)
            counters = reg.counters()
            snap = reg.snapshot()
        assert counters["compiled.circuits"] == 1
        assert counters["compiled.settles"] >= 17  # settle + 16 ticks
        assert counters["compiled.settle_rounds"] >= counters[
            "compiled.settles"
        ]
        assert snap["gauge:compiled.lanes"] == 64


# ----------------------------------------------------------------------
class TestPointRecord:
    def test_point_record_error_cluster_line(self):
        error = (
            "Traceback (most recent call last):\n"
            '  File "x.py", line 1, in run\n'
            "ValueError: kaboom\n"
        )
        record = sweep.point_record(_outcome(error=error))
        assert record["raised"] is True
        assert record["error"] == "ValueError: kaboom"

    def test_point_record_carries_metrics_delta(self):
        record = sweep.point_record(
            _outcome(obs_metrics={"counter:sim.events_executed": 9})
        )
        assert record["metrics"] == {"counter:sim.events_executed": 9}
        assert "metrics" not in sweep.point_record(_outcome())


# ----------------------------------------------------------------------
class _FakeClock:
    def __init__(self, start=100.0):
        self.now = start

    def __call__(self):
        return self.now


class _TtyStream(io.StringIO):
    def isatty(self):
        return True


class TestSweepProgress:
    def _bar(self, total, stream, clock, **kwargs):
        return progress.SweepProgress(
            total, stream=stream, clock=clock, heartbeat=False, **kwargs
        )

    def test_render_contents(self):
        clock = _FakeClock()
        bar = self._bar(84, io.StringIO(), clock)
        clock.now += 16.0
        for _ in range(37):
            bar.point_done()
        for _ in range(3):
            bar.point_done(ok=False)
        text = bar.render()
        assert "sweep 40/84 (47%)" in text
        assert "pt/s" in text
        assert "eta" in text
        assert "3 failed" in text

    def test_cached_points_reported(self):
        bar = self._bar(4, io.StringIO(), _FakeClock())
        bar.point_done(cached=True)
        bar.point_done()
        assert "1 cached" in bar.render()

    def test_non_tty_rate_limited_log_lines(self):
        clock = _FakeClock()
        stream = io.StringIO()
        bar = self._bar(10, stream, clock, log_interval=5.0)
        bar.point_done()                  # first emit goes out
        clock.now += 1.0
        bar.point_done()                  # suppressed: inside interval
        clock.now += 6.0
        bar.point_done()                  # emitted again
        bar.close()                       # final state always emitted
        lines = stream.getvalue().splitlines()
        assert len(lines) == 3
        assert all("\r" not in line for line in lines)
        assert lines[-1].startswith("sweep 3/10")
        assert "took" not in lines[-1]    # unfinished sweep has no total

    def test_tty_rewrites_one_line(self):
        clock = _FakeClock()
        stream = _TtyStream()
        bar = self._bar(2, stream, clock)
        bar.point_done()
        clock.now += 2.0
        bar.point_done()
        bar.close()
        raw = stream.getvalue()
        assert raw.count("\r") == 3       # every update redraws
        assert raw.endswith("\n")         # close terminates the line
        assert "took" in raw.splitlines()[-1]

    def test_display_failure_never_raises(self):
        class Broken(io.StringIO):
            def write(self, *_a):
                raise OSError("tty went away")

        bar = self._bar(1, Broken(), _FakeClock())
        bar.point_done()
        bar.close()  # swallowed: the sweep must not die for a display


# ----------------------------------------------------------------------
class TestAnalyze:
    def _snapshot(self, tmp_path, jobs=2):
        points = [
            sweep.point_record(_outcome(
                params=(("m", 2),), duration=1.0, t_mono=101.0,
                obs_metrics={"counter:noc.cycles": 10,
                             "gauge:noc.links_in_flight": 3})),
            sweep.point_record(_outcome(
                params=(("m", 4),), duration=3.0, t_mono=104.0,
                obs_metrics={"counter:noc.cycles": 32})),
            sweep.point_record(_outcome(
                params=(("m", 8),), duration=0.5, t_mono=104.5),
                store_hit=True),
            sweep.point_record(_outcome(
                params=(("m", 16),), error="Boom: x\nValueError: y",
                duration=0.25, t_mono=104.75)),
        ]
        path = tmp_path / sweep.SNAPSHOT_FILENAME
        path.write_text(json.dumps({
            "version": 1, "command": "sweep",
            "scenario": "mesh-design-space", "jobs": jobs,
            "points": points, "store_hits": 1, "failures": 1,
        }))
        return path

    def test_report_from_snapshot(self, tmp_path):
        report = analyze.summarize(self._snapshot(tmp_path))
        assert report.scenario == "mesh-design-space"
        assert report.jobs == 2
        assert report.total == 4
        assert len(report.failed) == 1
        assert report.store_hits == 1
        assert report.store_hit_ratio == pytest.approx(0.25)
        assert report.total_duration_s == pytest.approx(4.75)
        # wall span: earliest start 100.0 (101 - 1), last end 104.75
        assert report.wall_span_s == pytest.approx(4.75)
        assert report.utilization == pytest.approx(0.5)
        assert report.slowest(2) == [("m=4", 3.0), ("m=2", 1.0)]
        assert report.failure_clusters() == [("ValueError: y", 1, "m=16")]
        assert report.counter_rollup() == {"noc.cycles": 42}

    def test_render_and_exports(self, tmp_path):
        report = analyze.summarize(self._snapshot(tmp_path))
        text = report.render()
        assert "4 total, 1 failed" in text
        assert "1/4 hits" in text
        assert "noc.cycles" in text
        doc = report.to_json()
        assert doc["points"] == 4
        assert doc["counters"] == {"noc.cycles": 42}
        csv_text = report.to_csv()
        assert csv_text.splitlines()[0] == (
            "scenario,point,ok,store_hit,duration_s"
        )
        assert len(csv_text.splitlines()) == 5

    def test_summarize_prefers_snapshot_over_journal(self, tmp_path):
        self._snapshot(tmp_path)
        jwriter = journal.Journal(journal.journal_path(tmp_path))
        jwriter.start("other-scenario", "beef")
        report = analyze.summarize(tmp_path)
        assert report.scenario == "mesh-design-space"
        assert report.has_store_info

    def test_snapshot_without_points_list_reads_journal(self, tmp_path):
        """A snapshot holding a point count, not records, describes no
        point: the journal is read instead."""
        registry.load_builtin()
        (tmp_path / sweep.SNAPSHOT_FILENAME).write_text(json.dumps(
            {"version": 1, "command": "sweep", "points": 1}))
        jwriter = journal.Journal(journal.journal_path(tmp_path))
        jwriter.start("table1", "beef")
        jwriter.append(_outcome(duration=2.5, t_mono=50.0, result=None))
        report = analyze.summarize(tmp_path)
        assert report.source == str(journal.journal_path(tmp_path))
        assert report.total == 1
        with pytest.raises(analyze.TelemetryError):
            analyze.summarize(tmp_path / sweep.SNAPSHOT_FILENAME)

    def test_journal_fallback_carries_durations(self, tmp_path):
        registry.load_builtin()
        jwriter = journal.Journal(journal.journal_path(tmp_path))
        jwriter.start("table1", "beef")
        jwriter.append(_outcome(duration=2.5, t_mono=50.0, result=None))
        report = analyze.summarize(tmp_path)
        assert not report.has_store_info
        assert report.store_hit_ratio is None
        assert report.total_duration_s == pytest.approx(2.5)
        assert "store:" not in report.render()

    def test_journal_fallback_reports_utilization_unknown(self, tmp_path):
        """The journal records no width, so two points that overlapped
        in time give no utilization figure (busy 2 s over a 1.5 s span
        would read 100% as one job)."""
        registry.load_builtin()
        jwriter = journal.Journal(journal.journal_path(tmp_path))
        jwriter.start("table1", "beef")
        for index, end in enumerate((51.0, 51.5)):
            jwriter.append(_outcome(params=(("seed", index),),
                                    duration=1.0, t_mono=end,
                                    result=None))
        report = analyze.summarize(tmp_path)
        assert report.jobs is None
        assert report.wall_span_s == pytest.approx(1.5)
        assert report.utilization is None
        assert report.to_json()["utilization"] is None
        text = report.render()
        assert "utilization unknown" in text
        assert "%" not in text

    def test_missing_dir_raises(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            analyze.summarize(tmp_path)


# ----------------------------------------------------------------------
SWEEP_ARGS = [
    "sweep", "compiled-fault-campaign", "--fast",
    "--param", "seed=1,2,3",
]


def _deterministic_tree(base):
    """Artifact bytes under the deterministic contract: telemetry
    excluded (volatile by design), journal canonicalized."""
    tree = {}
    for p in sorted(base.rglob("*")):
        if not p.is_file() or p.name == sweep.SNAPSHOT_FILENAME:
            continue
        rel = p.relative_to(base)
        if p.name == journal.FILENAME:
            tree[rel] = journal.canonical_bytes(p)
        else:
            tree[rel] = p.read_bytes()
    return tree


class TestCliTelemetry:
    def test_progress_leaves_artifacts_byte_identical(
        self, tmp_path, capsys
    ):
        plain = tmp_path / "plain"
        shown = tmp_path / "shown"
        assert main(SWEEP_ARGS + ["--out", str(plain)]) == 0
        assert main(
            SWEEP_ARGS + ["--out", str(shown), "--progress"]
        ) == 0
        capsys.readouterr()
        plain_tree = _deterministic_tree(plain)
        shown_tree = _deterministic_tree(shown)
        assert plain_tree.keys() == shown_tree.keys()
        assert plain_tree == shown_tree
        # the snapshot exists in both runs; --progress only adds metrics
        for base in (plain, shown):
            assert (base / sweep.SNAPSHOT_FILENAME).exists()

    def test_sweep_snapshot_holds_one_record_per_grid_point(
        self, tmp_path, capsys
    ):
        """The journal is the only per-point log; the snapshot holds
        one timed point record per grid point, in request order."""
        out = tmp_path / "out"
        assert main(SWEEP_ARGS + ["--out", str(out), "--progress"]) == 0
        capsys.readouterr()
        assert [p.name for p in out.glob("*.jsonl")] == [journal.FILENAME]
        snapshot = json.loads((out / sweep.SNAPSHOT_FILENAME).read_text())
        assert snapshot["command"] == "sweep"
        assert snapshot["scenario"] == "compiled-fault-campaign"
        assert snapshot["jobs"] == 1
        points = snapshot["points"]
        assert [p["kind"] for p in points] == ["point"] * 3
        assert [p["params"] for p in points] == [
            [["seed", seed]] for seed in (1, 2, 3)
        ]
        assert all(p["duration_s"] is not None for p in points)
        assert all(p["t_mono"] is not None for p in points)
        # --progress enabled metrics, so kernel counters reached a point
        assert any(p.get("metrics") for p in points)
        assert snapshot["counters"]["counter:compiled.settles"] > 0

    def test_telemetry_subcommand_renders(self, tmp_path, capsys):
        out = tmp_path / "out"
        assert main(SWEEP_ARGS + ["--out", str(out), "--progress"]) == 0
        capsys.readouterr()
        assert main(["telemetry", str(out)]) == 0
        text = capsys.readouterr().out
        assert "points:    3 total, 0 failed" in text
        assert "slowest points:" in text
        assert "compiled.settles" in text

    def test_telemetry_subcommand_json_and_csv(self, tmp_path, capsys):
        out = tmp_path / "out"
        assert main(SWEEP_ARGS + ["--out", str(out)]) == 0
        capsys.readouterr()
        assert main(["telemetry", str(out), "--json", "-"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["points"] == 3
        csv_path = tmp_path / "points.csv"
        assert main(["telemetry", str(out), "--csv", str(csv_path)]) == 0
        rows = csv_path.read_text().splitlines()
        assert rows[0] == "scenario,point,ok,store_hit,duration_s"
        assert len(rows) == 4

    def test_telemetry_subcommand_missing_dir_errors(self, tmp_path):
        with pytest.raises(SystemExit):
            main(["telemetry", str(tmp_path / "nowhere")])

    def test_run_out_writes_snapshot(self, tmp_path, capsys):
        out = tmp_path / "run-out"
        assert main(["run", "table1", "--fast", "--out", str(out)]) == 0
        capsys.readouterr()
        doc = json.loads((out / sweep.SNAPSHOT_FILENAME).read_text())
        assert doc["command"] == "run"
        assert doc["jobs"] == 1
        assert len(doc["points"]) == 1
        assert doc["points"][0]["duration_s"] is not None

    def test_telemetry_subcommand_reads_run_snapshot(self, tmp_path,
                                                     capsys):
        out = tmp_path / "run-out"
        assert main(["run", "table1", "table2", "--fast",
                     "--out", str(out)]) == 0
        capsys.readouterr()
        assert main(["telemetry", str(out)]) == 0
        text = capsys.readouterr().out
        assert "scenario:  table1, table2" in text
        assert "points:    2 total, 0 failed" in text
        # the run's points are told apart by scenario, not params
        assert "table1: default" in text
        # a run reads no store, so the report claims no store hits
        assert "store:" not in text

    def test_list_verbose_reports_capabilities(self, capsys):
        assert main(["list", "--verbose"]) == 0
        text = capsys.readouterr().out
        assert "batchable (seed, up to 16 per call)" in text
        assert "batchable (n_faults, up to 4 per call)" in text
        assert "compilable (depth" in text
        assert "not compilable" in text


# ----------------------------------------------------------------------
class TestEngineDurations:
    def test_outcomes_carry_wall_clock(self):
        registry.load_builtin()
        request = engine.RunRequest.create("table1", fast=True)
        outcome = engine.execute([request])[0]
        assert outcome.ok
        assert outcome.duration_s is not None and outcome.duration_s > 0
        assert outcome.t_mono is not None
        assert outcome.metrics == {}  # registry disabled: no delta

    def test_outcomes_carry_metrics_delta_when_enabled(self):
        registry.load_builtin()
        with metrics.collecting(reset=True):
            request = engine.RunRequest.create(
                "compiled-fault-campaign", {"seed": 1}, fast=True
            )
            outcome = engine.execute([request])[0]
        assert outcome.metrics
        assert outcome.metrics["counter:compiled.circuits"] >= 1

    def test_codec_round_trips_volatile_sideband(self):
        registry.load_builtin()
        outcome = _outcome(
            params=(("seed", 1),), duration=1.5, t_mono=9.0,
            obs_metrics={"counter:x": 3},
            scenario="compiled-fault-campaign", result=None,
        )
        back = codec.outcome_from_record(codec.outcome_to_record(outcome))
        assert back.duration_s == pytest.approx(1.5)
        assert back.t_mono == pytest.approx(9.0)
        assert back.metrics == {"counter:x": 3}

    def test_strip_volatile_removes_only_sideband(self):
        record = {"scenario": "s", "duration_s": 1.0, "t_mono": 2.0,
                  "metrics": {"counter:x": 1}, "fast": True}
        stripped = codec.strip_volatile(record)
        assert stripped == {"scenario": "s", "fast": True}
        assert "duration_s" in record  # original untouched

    def test_journal_canonical_bytes_identical_across_runs(self, tmp_path):
        registry.load_builtin()
        request = engine.RunRequest.create("table1", fast=True)
        paths = []
        for name in ("a", "b"):
            outcome = engine.execute([request])[0]
            path = journal.journal_path(tmp_path / name)
            writer = journal.Journal(path)
            writer.start("table1", "feed")
            writer.append(outcome)
            paths.append(path)
        raw_a, raw_b = (p.read_bytes() for p in paths)
        assert raw_a != raw_b or b"duration_s" in raw_a
        assert journal.canonical_bytes(paths[0]) == journal.canonical_bytes(
            paths[1]
        )
        assert b"duration_s" not in journal.canonical_bytes(paths[0])
