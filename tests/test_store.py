"""Tests for the result store, sweep journal and regression diffing."""

import json

import pytest

from repro.__main__ import main
from repro.obs import telemetry as obs_telemetry
from repro.runner import engine, registry, sweep
from repro.store import codec, diff, journal, store


@pytest.fixture(autouse=True)
def _builtin():
    registry.load_builtin()


def _mesh_requests(sizes=(2, 3), cycles=100):
    sc = registry.get("mesh-design-space")
    return sweep.build_requests(
        sc, axes={"mesh_size": list(sizes)}, fixed={"cycles": cycles}
    )


# ----------------------------------------------------------------------
class TestCodec:
    def test_success_roundtrip_is_loss_free(self):
        outcome = engine.execute(_mesh_requests(sizes=(2,)))[0]
        restored = codec.outcome_from_record(
            json.loads(json.dumps(codec.outcome_to_record(outcome)))
        )
        assert restored.request == outcome.request
        assert restored.ok == outcome.ok
        assert restored.resolved_params == outcome.resolved_params
        # byte-for-byte: the artifact writer cannot tell them apart
        assert restored.result.to_csv() == outcome.result.to_csv()
        assert restored.result.checks_csv() == outcome.result.checks_csv()
        assert restored.result.render() == outcome.result.render()

    def test_failure_roundtrip_keeps_traceback(self):
        request = engine.RunRequest(scenario_id="x")
        outcome = engine.RunOutcome(
            request=request, error="Traceback ...\nKaboom"
        )
        restored = codec.outcome_from_record(
            codec.outcome_to_record(outcome)
        )
        assert restored.error == outcome.error
        assert restored.result is None
        assert not restored.ok

    def test_non_result_payload_rejected(self):
        outcome = engine.RunOutcome(
            request=engine.RunRequest(scenario_id="x"), result=object()
        )
        with pytest.raises(TypeError, match="ExperimentResult"):
            codec.outcome_to_record(outcome)


# ----------------------------------------------------------------------
class TestRunStore:
    def test_put_get_roundtrip(self, tmp_path):
        outcome = engine.execute(_mesh_requests(sizes=(2,)))[0]
        cache = store.RunStore(tmp_path)
        assert outcome.request not in cache
        key = cache.put(outcome)
        assert outcome.request in cache
        assert len(cache) == 1
        restored = cache.get(outcome.request)
        assert restored.request == outcome.request
        assert restored.result.to_csv() == outcome.result.to_csv()
        record = next(iter(cache.records()))
        assert record["key"] == key
        assert record["point"].startswith("cycles=100_mesh_size=2-")

    def test_key_depends_on_code_fingerprint(self, tmp_path):
        request = _mesh_requests(sizes=(2,))[0]
        current = store.RunStore(tmp_path)
        other_code = store.RunStore(tmp_path, fingerprint="0123456789abcdef")
        assert current.key(request) != other_code.key(request)

    def test_stale_code_never_served(self, tmp_path):
        outcome = engine.execute(_mesh_requests(sizes=(2,)))[0]
        store.RunStore(tmp_path, fingerprint="aaaa").put(outcome)
        assert store.RunStore(
            tmp_path, fingerprint="bbbb"
        ).get(outcome.request) is None

    def test_key_depends_on_params_and_fast(self, tmp_path):
        cache = store.RunStore(tmp_path)
        a, b = _mesh_requests(sizes=(2, 3))
        assert cache.key(a) != cache.key(b)
        fast = engine.RunRequest(a.scenario_id, a.params, fast=True)
        assert cache.key(a) != cache.key(fast)

    def test_failed_outcome_rejected(self, tmp_path):
        bad = engine.RunOutcome(
            request=engine.RunRequest(scenario_id="x"), error="boom"
        )
        with pytest.raises(ValueError, match="refusing to store"):
            store.RunStore(tmp_path).put(bad)


# ----------------------------------------------------------------------
class TestJournal:
    def test_write_then_load(self, tmp_path):
        outcomes = engine.execute(_mesh_requests(sizes=(2, 3)))
        path = journal.journal_path(tmp_path)
        writer = journal.Journal(path)
        writer.start("mesh-design-space")
        for outcome in outcomes:
            writer.append(outcome)
        header, loaded = journal.load(path)
        assert header["scenario"] == "mesh-design-space"
        assert header["fingerprint"] == store.code_fingerprint()
        assert [o.request for o in loaded] == [
            o.request for o in outcomes
        ]
        assert all(o.ok for o in loaded)

    def test_torn_tail_dropped_and_truncated(self, tmp_path):
        outcomes = engine.execute(_mesh_requests(sizes=(2, 3)))
        path = journal.journal_path(tmp_path)
        writer = journal.Journal(path)
        writer.start("mesh-design-space")
        writer.append(outcomes[0])
        intact = path.read_bytes()
        with path.open("ab") as fh:
            fh.write(b'{"kind": "outcome", "scen')  # killed mid-write
        header, loaded = journal.recover(path)
        assert len(loaded) == 1
        assert path.read_bytes() == intact

    def test_headerless_journal_rejected(self, tmp_path):
        path = tmp_path / "journal.jsonl"
        path.write_text('{"kind": "outcome"}\n')
        with pytest.raises(journal.JournalError, match="header"):
            journal.load(path)

    def test_empty_journal_rejected(self, tmp_path):
        path = tmp_path / "journal.jsonl"
        path.write_text("")
        with pytest.raises(journal.JournalError):
            journal.load(path)


# ----------------------------------------------------------------------
def _summary_tree(tmp_path, name, runs, tables=None):
    """Write a synthetic artifact tree for diff tests."""
    base = tmp_path / name
    base.mkdir(parents=True, exist_ok=True)
    (base / "summary.json").write_text(
        json.dumps({"runs": runs}, indent=2, sort_keys=True)
    )
    for rel, text in (tables or {}).items():
        path = base / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text)
    return base


def _run_record(point="p1", ok=True, measured=10.0, tolerance=0.05,
                rows_csv=None):
    record = {
        "scenario": "demo", "point": point, "params": {}, "fast": False,
        "ok": ok,
        "checks": [{
            "name": "throughput", "measured": measured, "paper": 10.0,
            "tolerance": tolerance, "mode": "two_sided",
            "error": 0.0, "ok": ok,
        }],
    }
    if rows_csv:
        record["rows_csv"] = rows_csv
    return record


class TestDiff:
    def test_identical_trees_not_regressed(self, tmp_path):
        old = _summary_tree(tmp_path, "old", [_run_record()])
        new = _summary_tree(tmp_path, "new", [_run_record()])
        report = diff.diff_trees(old, new)
        assert not report.regressed
        assert report.points_compared == 1
        assert "no regressions" in report.render()

    def test_new_failure_detected(self, tmp_path):
        old = _summary_tree(tmp_path, "old", [_run_record(ok=True)])
        new = _summary_tree(tmp_path, "new", [_run_record(ok=False)])
        report = diff.diff_trees(old, new)
        assert report.new_failures == [("demo", "p1")]
        assert report.regressed

    def test_fix_is_not_a_regression(self, tmp_path):
        old = _summary_tree(tmp_path, "old", [_run_record(ok=False)])
        new = _summary_tree(tmp_path, "new", [_run_record(ok=True)])
        report = diff.diff_trees(old, new)
        assert report.fixed == [("demo", "p1")]
        assert not report.regressed

    def test_removed_point_is_a_regression(self, tmp_path):
        old = _summary_tree(
            tmp_path, "old", [_run_record("p1"), _run_record("p2")]
        )
        new = _summary_tree(tmp_path, "new", [_run_record("p1")])
        report = diff.diff_trees(old, new)
        assert report.removed == [("demo", "p2")]
        assert report.regressed

    def test_added_point_is_informational(self, tmp_path):
        old = _summary_tree(tmp_path, "old", [_run_record("p1")])
        new = _summary_tree(
            tmp_path, "new", [_run_record("p1"), _run_record("p2")]
        )
        report = diff.diff_trees(old, new)
        assert report.added == [("demo", "p2")]
        assert not report.regressed

    def test_check_drift_beyond_tolerance(self, tmp_path):
        old = _summary_tree(tmp_path, "old", [_run_record(measured=10.0)])
        new = _summary_tree(tmp_path, "new", [_run_record(measured=12.0)])
        report = diff.diff_trees(old, new)
        assert len(report.check_drift) == 1
        drift = report.check_drift[0]
        assert drift.check == "throughput"
        assert drift.drift == pytest.approx(0.2)
        assert report.regressed

    def test_removed_check_is_a_regression(self, tmp_path):
        """Dropping a check from a scenario must not slip through the
        gate as silently reduced coverage."""
        old = _summary_tree(tmp_path, "old", [_run_record()])
        stripped = _run_record()
        stripped["checks"] = []
        new = _summary_tree(tmp_path, "new", [stripped])
        report = diff.diff_trees(old, new)
        assert report.removed_checks == [(("demo", "p1"), "throughput")]
        assert report.regressed
        assert "REMOVED CHECKS" in report.render()

    def test_drift_tolerance_override(self, tmp_path):
        old = _summary_tree(tmp_path, "old", [_run_record(measured=10.0)])
        new = _summary_tree(tmp_path, "new", [_run_record(measured=12.0)])
        report = diff.diff_trees(old, new, drift_tolerance=0.5)
        assert not report.check_drift
        assert not report.regressed

    def test_row_deltas_resolved_from_csvs(self, tmp_path):
        old = _summary_tree(
            tmp_path, "old",
            [_run_record(rows_csv="demo/p1.rows.csv")],
            tables={"demo/p1.rows.csv": "a,b\n1,2\n"},
        )
        new = _summary_tree(
            tmp_path, "new",
            [_run_record(rows_csv="demo/p1.rows.csv")],
            tables={"demo/p1.rows.csv": "a,b\n1,5\n"},
        )
        report = diff.diff_trees(old, new)
        assert len(report.row_deltas) == 1
        delta = report.row_deltas[0]
        assert (delta.column, delta.old, delta.new) == ("b", "2", "5")
        # table drift alone is informational; checks gate regressions
        assert not report.regressed

    def test_numerically_equal_cells_not_reported(self, tmp_path):
        old = _summary_tree(
            tmp_path, "old",
            [_run_record(rows_csv="demo/p1.rows.csv")],
            tables={"demo/p1.rows.csv": "a\n1.0\n"},
        )
        new = _summary_tree(
            tmp_path, "new",
            [_run_record(rows_csv="demo/p1.rows.csv")],
            tables={"demo/p1.rows.csv": "a\n1\n"},
        )
        assert diff.diff_trees(old, new).row_deltas == []

    def test_missing_summary_raises(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            diff.load_summary(tmp_path / "nope")


# ----------------------------------------------------------------------
SWEEP_ARGS = [
    "sweep", "mesh-design-space",
    "--param", "mesh_size=2,3,4",
    "--set", "cycles=100",
]


def _tree(base):
    """Every file's bytes; journals are canonicalized first (their
    volatile duration/timestamp side-band differs between identical
    runs by design — the deterministic contract is the projection).
    Telemetry files are all side-band, so their *presence* is compared
    but their timing-laden bytes are not."""
    tree = {}
    telemetry_names = {
        obs_telemetry.STREAM_FILENAME, obs_telemetry.SNAPSHOT_FILENAME,
    }
    for p in base.rglob("*"):
        if not p.is_file():
            continue
        if p.name == journal.FILENAME:
            tree[p.relative_to(base)] = journal.canonical_bytes(p)
        elif p.name in telemetry_names:
            tree[p.relative_to(base)] = b"<telemetry>"
        else:
            tree[p.relative_to(base)] = p.read_bytes()
    return tree


class TestCliSweepDurability:
    def test_failure_traceback_reaches_summary_json(
        self, tmp_path, capsys
    ):
        """A raising grid point must surface in summary.json, not
        vanish: injection_rate=2.0 fails TrafficConfig validation
        inside the scenario."""
        out = tmp_path / "out"
        assert main(SWEEP_ARGS[:2] + [
            "--param", "injection_rate=0.1,2.0",
            "--set", "mesh_size=2", "--set", "cycles=50",
            "--out", str(out),
        ]) == 1
        summary = json.loads((out / "summary.json").read_text())
        by_ok = {run["ok"]: run for run in summary["runs"]}
        assert by_ok[True]["params"]["injection_rate"] == 0.1
        failed = by_ok[False]
        assert "Traceback" in failed["error"]
        assert "injection rate must be in [0, 1]" in failed["error"]
        # the journal carries the same traceback for resume
        _, journaled = journal.load(journal.journal_path(out))
        assert any("Traceback" in o.error for o in journaled)

    def test_kill_then_resume_byte_identical(
        self, tmp_path, capsys, monkeypatch
    ):
        full = tmp_path / "full"
        assert main(SWEEP_ARGS + ["--out", str(full)]) == 0

        # kill the sweep after two completed points
        killed = tmp_path / "killed"
        real = engine.execute_item
        calls = []

        def dying(item):
            if len(calls) == 2:
                raise KeyboardInterrupt
            calls.append(item)
            return real(item)

        monkeypatch.setattr(engine, "execute_item", dying)
        with pytest.raises(KeyboardInterrupt):
            main(SWEEP_ARGS + ["--out", str(killed)])
        assert len(calls) == 2
        assert not (killed / "summary.json").exists()  # died mid-sweep

        # resume executes only the remaining point ...
        resumed = []
        monkeypatch.setattr(
            engine, "execute_item",
            lambda item: (resumed.append(item[1]), real(item))[1],
        )
        assert main(SWEEP_ARGS + ["--resume", str(killed)]) == 0
        assert [r.params_dict()["mesh_size"] for r in resumed] == [4]

        # ... and the artifact tree (journal included) is identical
        assert _tree(killed) == _tree(full)

    def test_resume_ignores_stale_journal(
        self, tmp_path, capsys, monkeypatch
    ):
        """A journal written by different code must not be trusted."""
        out = tmp_path / "out"
        assert main(SWEEP_ARGS + ["--out", str(out)]) == 0
        jpath = journal.journal_path(out)
        lines = jpath.read_text().splitlines()
        header = json.loads(lines[0])
        header["fingerprint"] = "0" * 16
        jpath.write_text("\n".join([json.dumps(header)] + lines[1:]) + "\n")

        executed = []
        real = engine.execute_item
        monkeypatch.setattr(
            engine, "execute_item",
            lambda item: (executed.append(item[1]), real(item))[1],
        )
        assert main(SWEEP_ARGS + ["--resume", str(out)]) == 0
        assert len(executed) == 3  # every point re-ran
        err = capsys.readouterr().err
        assert "different scenario or code version" in err

    def test_resume_headerless_journal_reruns_all(
        self, tmp_path, capsys
    ):
        """A kill during Journal.start() leaves an empty journal; that
        is still a resumable state, not a usage error."""
        out = tmp_path / "out"
        out.mkdir()
        journal.journal_path(out).write_text("")
        assert main(SWEEP_ARGS[:2] + [
            "--param", "mesh_size=2", "--set", "cycles=50",
            "--resume", str(out),
        ]) == 0
        assert "no usable header" in capsys.readouterr().err
        assert (out / "summary.json").exists()
        header, loaded = journal.load(journal.journal_path(out))
        assert header["scenario"] == "mesh-design-space"
        assert len(loaded) == 1

    def test_resume_conflicting_out_rejected(self, tmp_path):
        with pytest.raises(SystemExit) as exc:
            main(SWEEP_ARGS + [
                "--resume", str(tmp_path / "a"),
                "--out", str(tmp_path / "b"),
            ])
        assert exc.value.code == 2

    def test_store_reuses_points_across_sweeps(
        self, tmp_path, capsys, monkeypatch
    ):
        cache_dir = tmp_path / "cache"
        first = tmp_path / "first"
        assert main(SWEEP_ARGS + [
            "--out", str(first), "--store", str(cache_dir),
        ]) == 0

        executed = []
        real = engine.execute_item
        monkeypatch.setattr(
            engine, "execute_item",
            lambda item: (executed.append(item[1]), real(item))[1],
        )
        second = tmp_path / "second"
        assert main(SWEEP_ARGS + [
            "--out", str(second), "--store", str(cache_dir),
        ]) == 0
        assert executed == []  # every point served from the store
        assert _tree(second) == _tree(first)


class TestCommittedBaseline:
    @pytest.mark.parametrize("scenario_id", [
        pytest.param("mesh-design-space", id="design-space"),
        pytest.param("gals-mesh", id="gals-mesh"),
        pytest.param("traffic-hotspot", id="hotspot"),
        pytest.param("traffic-transpose", id="transpose"),
        pytest.param("traffic-bit-complement", id="bit-complement"),
    ])
    def test_fresh_sweep_matches_committed_baseline(self, tmp_path,
                                                    scenario_id):
        """The regression-gate baselines in tests/baselines must track
        the code: when a change intentionally shifts sweep results,
        regenerate the baseline (see tests/baselines/README.md)."""
        from pathlib import Path

        from repro.runner import artifacts

        baseline = Path(__file__).parent / "baselines" / scenario_id
        requests = sweep.build_requests(
            registry.get(scenario_id),
            axes={"mesh_size": [2, 3]}, fixed={"cycles": 200},
        )
        fresh = tmp_path / "fresh"
        artifacts.write_artifacts(engine.execute(requests), fresh)
        report = diff.diff_trees(baseline, fresh)
        assert not report.regressed, report.render()
        assert report.added == [] and report.row_deltas == []

    def test_fresh_fault_injection_sweep_matches_committed_baseline(
        self, tmp_path
    ):
        """The west-first baseline: the fault-injection scenario routes
        adaptively, so this tree pins the switch's adaptive arbitration
        (see tests/baselines/README.md)."""
        from pathlib import Path

        from repro.runner import artifacts

        baseline = Path(__file__).parent / "baselines" / "fault-injection"
        requests = sweep.build_requests(
            registry.get("fault-injection"),
            axes={
                "mesh_size": [4, 6],
                "n_faults": [0, 3],
                "injection_rate": [0.10, 0.15],
            },
            fixed={"cycles": 200},
        )
        fresh = tmp_path / "fresh"
        artifacts.write_artifacts(engine.execute(requests), fresh)
        report = diff.diff_trees(baseline, fresh)
        assert not report.regressed, report.render()
        assert report.added == [] and report.row_deltas == []


    def test_fault_injection_batched_order_matches_committed_baseline(
        self, tmp_path
    ):
        """The same grid with ``n_faults`` innermost packs into batch
        groups (the hook shares each group's healthy run) and runs on a
        2-job pool: it must reproduce the committed baseline exactly,
        per-point CSVs byte for byte."""
        from pathlib import Path

        from repro.runner import artifacts

        baseline = Path(__file__).parent / "baselines" / "fault-injection"
        requests = sweep.build_requests(
            registry.get("fault-injection"),
            axes={
                "mesh_size": [4, 6],
                "injection_rate": [0.10, 0.15],
                "n_faults": [0, 3],
            },
            fixed={"cycles": 200},
        )
        assert "batch" in {kind for kind, _ in engine.plan_items(requests)}
        fresh = tmp_path / "fresh"
        artifacts.write_artifacts(engine.execute(requests, jobs=2), fresh)
        report = diff.diff_trees(baseline, fresh)
        assert not report.regressed, report.render()
        assert report.added == [] and report.row_deltas == []
        committed = sorted((baseline / "fault-injection").iterdir())
        assert [f.name for f in committed] == sorted(
            f.name for f in (fresh / "fault-injection").iterdir()
        )
        for csv in committed:
            assert (fresh / "fault-injection" / csv.name).read_bytes() \
                == csv.read_bytes(), csv.name

    def test_fresh_paper_run_matches_committed_baseline(self, tmp_path,
                                                        capsys):
        """The nine paper scenarios, gate-level links included: a fresh
        ``repro run --out`` must reproduce every committed file byte
        for byte (``telemetry.json`` holds timings and is not
        committed; see tests/baselines/README.md)."""
        from pathlib import Path

        baseline = Path(__file__).parent / "baselines" / "paper"
        fresh = tmp_path / "fresh"
        assert main(["run", "--out", str(fresh)]) == 0
        capsys.readouterr()
        committed = sorted(
            p.relative_to(baseline)
            for p in baseline.rglob("*") if p.is_file()
        )
        written = sorted(
            p.relative_to(fresh) for p in fresh.rglob("*")
            if p.is_file() and p.name != "telemetry.json"
        )
        assert written == committed
        for rel in committed:
            assert (fresh / rel).read_bytes() == (baseline / rel).read_bytes(), \
                str(rel)


class TestCliDiffAndHistory:
    def test_diff_identical_sweeps_exit_zero(self, tmp_path, capsys):
        a, b = tmp_path / "a", tmp_path / "b"
        small = SWEEP_ARGS[:2] + [
            "--param", "mesh_size=2", "--set", "cycles=50",
        ]
        assert main(small + ["--out", str(a)]) == 0
        assert main(small + ["--out", str(b)]) == 0
        assert main(["diff", str(a), str(b)]) == 0
        assert "no regressions" in capsys.readouterr().out

    def test_diff_regression_exits_nonzero(self, tmp_path, capsys):
        old = _summary_tree(tmp_path, "old", [_run_record(measured=10.0)])
        new = _summary_tree(tmp_path, "new", [_run_record(measured=12.0)])
        assert main(["diff", str(old), str(new)]) == 1
        out = capsys.readouterr().out
        assert "check drift beyond tolerance" in out
        assert "REGRESSED" in out

    def test_diff_drift_tolerance_flag(self, tmp_path, capsys):
        old = _summary_tree(tmp_path, "old", [_run_record(measured=10.0)])
        new = _summary_tree(tmp_path, "new", [_run_record(measured=12.0)])
        assert main([
            "diff", str(old), str(new), "--drift-tolerance", "0.5",
        ]) == 0

    def test_diff_missing_tree_exits_2(self, tmp_path):
        with pytest.raises(SystemExit) as exc:
            main(["diff", str(tmp_path / "a"), str(tmp_path / "b")])
        assert exc.value.code == 2

    def test_history_lists_stored_runs(self, tmp_path, capsys):
        cache_dir = tmp_path / "cache"
        assert main(SWEEP_ARGS[:2] + [
            "--param", "mesh_size=2,3", "--set", "cycles=50",
            "--store", str(cache_dir),
        ]) == 0
        capsys.readouterr()
        assert main(["history", str(cache_dir)]) == 0
        out = capsys.readouterr().out
        assert "2 stored run(s)" in out
        assert "mesh-design-space" in out
        assert store.code_fingerprint() in out

    def test_history_scenario_filter(self, tmp_path, capsys):
        cache_dir = tmp_path / "cache"
        assert main(SWEEP_ARGS[:2] + [
            "--param", "mesh_size=2", "--set", "cycles=50",
            "--store", str(cache_dir),
        ]) == 0
        capsys.readouterr()
        assert main([
            "history", str(cache_dir), "--scenario", "no-such-id",
        ]) == 0
        assert "0 stored run(s)" in capsys.readouterr().out

    def test_history_missing_store_exits_2(self, tmp_path):
        with pytest.raises(SystemExit) as exc:
            main(["history", str(tmp_path / "nope")])
        assert exc.value.code == 2
