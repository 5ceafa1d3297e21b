"""Tests for the sweep pipeline, :func:`repro.runner.sweep.run_sweep`.

One small grid runs serially, on a ``jobs=2`` pool and on a one-worker
fabric; all three must leave byte-identical artifacts and canonically
identical journals.  A sweep killed mid-run and resumed must equal an
uninterrupted one, a store-backed rerun must execute nothing, and the
store must be written exactly once per executed point — also when the
points ran on fabric workers.
"""

import functools
import json
import threading

import pytest

from repro.__main__ import main
from repro.fabric import (
    FileTransport,
    fabric_executor,
    plan_fabric,
    run_fabric_sweep,
    run_worker,
)
from repro.obs import analyze as obs_analyze
from repro.runner import engine, registry, sweep
from repro.store import RunStore, codec
from repro.store.journal import canonical_bytes, journal_path


@pytest.fixture(autouse=True)
def _builtin():
    registry.load_builtin()


def _mesh_grid():
    return sweep.build_requests(
        registry.get("mesh-design-space"),
        axes={"mesh_size": [2, 3], "injection_rate": [0.05, 0.25]},
        fixed={"cycles": 100},
    )


def _noop_grid(n):
    return [
        engine.RunRequest.create("sweep-noop", {"point": i})
        for i in range(n)
    ]


def _outputs(out_dir):
    """Every deterministic output: artifacts byte for byte, the journal
    through its canonical projection, telemetry not at all."""
    files = {}
    for path in sorted(p for p in out_dir.rglob("*") if p.is_file()):
        rel = path.relative_to(out_dir).as_posix()
        if rel.startswith("telemetry."):
            continue
        files[rel] = (canonical_bytes(path) if rel == "journal.jsonl"
                      else path.read_bytes())
    return files


class _Killed(Exception):
    """Stands in for a kill: raised from inside the sink chain."""


def _dies_after(count):
    """A serial executor that 'dies' once ``count`` points finished."""

    def execute(remaining, on_outcome):
        done = []

        def sink(outcome):
            on_outcome(outcome)
            done.append(outcome)
            if len(done) == count:
                raise _Killed

        return engine.execute(remaining, on_outcome=sink)

    return execute


def _recording(calls):
    """The serial executor, noting which requests it was handed."""

    def execute(remaining, on_outcome):
        calls.append(list(remaining))
        return engine.execute(remaining, on_outcome=on_outcome)

    return execute


class TestRunSweep:
    def test_serial_pool_and_fabric_outputs_identical(self, tmp_path):
        requests = _mesh_grid()
        executors = {
            "serial": None,
            "pool": functools.partial(engine.execute, jobs=2),
            "fabric": fabric_executor(
                None, "mesh-design-space", workers=1, timeout=120.0,
            ),
        }
        trees = {}
        for name, execute in executors.items():
            run = sweep.run_sweep(
                "mesh-design-space", requests, execute,
                out_dir=tmp_path / name,
                jobs=1 if name == "serial" else 2,
            )
            assert run.executed == len(requests)
            assert run.failures == 0
            trees[name] = _outputs(tmp_path / name)
        assert "summary.json" in trees["serial"]
        assert "journal.jsonl" in trees["serial"]
        assert sum(rel.endswith(".csv") for rel in trees["serial"]) == 8
        assert trees["pool"] == trees["serial"]
        assert trees["fabric"] == trees["serial"]

    def test_killed_then_resumed_equals_uninterrupted(self, tmp_path):
        requests = _mesh_grid()
        sweep.run_sweep("mesh-design-space", requests,
                        out_dir=tmp_path / "whole")
        killed = tmp_path / "killed"
        with pytest.raises(_Killed):
            sweep.run_sweep("mesh-design-space", requests, _dies_after(1),
                            out_dir=killed)
        # the kill also tore the line being written
        with journal_path(killed).open("ab") as fh:
            fh.write(b'{"kind": "outco')
        calls = []
        run = sweep.run_sweep("mesh-design-space", requests,
                              _recording(calls), out_dir=killed,
                              resume=True)
        assert (run.journaled, run.executed) == (1, len(requests) - 1)
        assert calls == [requests[1:]]
        assert _outputs(killed) == _outputs(tmp_path / "whole")

    def test_killed_sweep_leaves_no_snapshot(self, tmp_path):
        """A snapshot describes a finished run: a rerun drops the old
        one before any point, so a killed sweep is read from its
        journal."""
        requests = _noop_grid(3)
        out = tmp_path / "out"
        sweep.run_sweep("sweep-noop", requests, out_dir=out)
        assert (out / sweep.SNAPSHOT_FILENAME).exists()
        with pytest.raises(_Killed):
            sweep.run_sweep("sweep-noop", requests, _dies_after(1),
                            out_dir=out)
        assert not (out / sweep.SNAPSHOT_FILENAME).exists()
        report = obs_analyze.summarize(out)
        assert report.source == str(journal_path(out))
        assert (report.total, report.jobs) == (1, None)

    def test_store_backed_rerun_executes_nothing(self, tmp_path):
        requests = _mesh_grid()
        store = tmp_path / "store"
        first = sweep.run_sweep("mesh-design-space", requests,
                                out_dir=tmp_path / "first", store=store)
        assert first.executed == len(requests)
        calls = []
        again = sweep.run_sweep("mesh-design-space", requests,
                                _recording(calls),
                                out_dir=tmp_path / "again", store=store)
        assert calls == [[]]
        assert (again.executed, again.store_hits) == (0, len(requests))
        assert _outputs(tmp_path / "again") == _outputs(tmp_path / "first")
        snapshot = json.loads(
            (tmp_path / "again" / sweep.SNAPSHOT_FILENAME).read_text())
        assert snapshot["store_hits"] == len(requests)
        assert [p["store_hit"] for p in snapshot["points"]] == (
            [True] * len(requests))

    def test_fabric_stores_each_executed_point_once(self, tmp_path,
                                                    monkeypatch):
        puts = []
        real_put = RunStore.put

        def counting_put(self, outcome):
            puts.append(outcome.request)
            return real_put(self, outcome)

        monkeypatch.setattr(RunStore, "put", counting_put)

        def in_process_fabric(fabric_dir):
            # the worker runs as a thread, so its puts (if it made any)
            # would be counted beside the pipeline's
            def execute(remaining, on_outcome):
                if not remaining:
                    return []
                worker = threading.Thread(
                    target=run_worker, args=(fabric_dir,),
                    kwargs=dict(worker_id="wk-t", lease_ttl=10.0,
                                poll_s=0.01, plan_timeout=30.0),
                    daemon=True,
                )
                worker.start()
                result = run_fabric_sweep(
                    fabric_dir, "sweep-noop", remaining, poll_s=0.01,
                    timeout=60.0, on_outcome=on_outcome,
                )
                worker.join(timeout=30.0)
                assert not worker.is_alive(), "worker thread never exited"
                return result.outcomes

            return execute

        requests = _noop_grid(6)
        store = tmp_path / "store"
        run = sweep.run_sweep(
            "sweep-noop", requests, in_process_fabric(tmp_path / "f1"),
            out_dir=tmp_path / "out1", store=store,
        )
        assert run.executed == len(requests)
        assert sorted(puts, key=repr) == sorted(requests, key=repr)
        rerun = sweep.run_sweep(
            "sweep-noop", requests, in_process_fabric(tmp_path / "f2"),
            out_dir=tmp_path / "out2", store=store,
        )
        assert rerun.executed == 0
        assert len(puts) == len(requests)


class TestFabricPlan:
    def test_plan_naming_a_store_still_loads(self, tmp_path):
        """Plans once carried a ``store`` path for workers to write;
        such a plan still loads, and the worker writes no store."""
        transport = FileTransport(tmp_path / "fabric")
        requests = _noop_grid(4)
        plan = plan_fabric(transport, "sweep-noop", requests)
        assert "store" not in plan
        transport.write_plan(dict(plan, store=str(tmp_path / "store")))
        assert plan_fabric(transport, "sweep-noop", requests)["store"]
        stats = run_worker(transport, worker_id="wk-old", once=True)
        assert stats.published == len(requests)
        assert not (tmp_path / "store").exists()


class TestFabricTelemetry:
    def test_workers_sweep_records_the_worker_count(self, tmp_path,
                                                     capsys):
        out = tmp_path / "out"
        code = main([
            "sweep", "sweep-noop", "--param", "point=0,1,2,3,4,5",
            "--workers", "2", "--out", str(out),
        ])
        assert code == 0, capsys.readouterr().err
        assert "fabric: 6 points via" in capsys.readouterr().out
        fabric = json.loads((out / sweep.SNAPSHOT_FILENAME).read_text())
        assert fabric["jobs"] == 2
        assert obs_analyze.summarize(out).jobs == 2
        # past its width and timings, the snapshot is the serial run's
        serial = tmp_path / "serial"
        assert main([
            "sweep", "sweep-noop", "--param", "point=0,1,2,3,4,5",
            "--out", str(serial),
        ]) == 0
        plain = json.loads((serial / sweep.SNAPSHOT_FILENAME).read_text())
        assert plain["jobs"] == 1

        def projection(doc):
            doc = {k: v for k, v in doc.items() if k != "jobs"}
            doc["points"] = [codec.strip_volatile(p) for p in doc["points"]]
            return doc

        assert projection(fabric) == projection(plain)
