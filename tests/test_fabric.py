"""Tests for the distributed sweep fabric.

Covers the layers separately and then together: the file-lease
protocol (claim / renew / stale takeover / idempotent publish), the
journal merge-and-rewrite primitives the fabric's byte-identity
contract rests on, and the coordinator + worker loop end to end —
including the case the fabric exists for: a worker SIGKILLed
mid-lease, its item re-leased, and the finished sweep still
byte-identical to a serial run.
"""

import json
import os
import signal
import subprocess
import sys
import threading
import time

import pytest

from repro.fabric import (
    FabricError,
    FileTransport,
    LeaseRecord,
    plan_fabric,
    run_fabric_sweep,
    run_worker,
)
from repro.fabric.coordinator import _worker_env
from repro.fabric.transport import item_id
from repro.obs import analyze as obs_analyze
from repro.runner import engine, registry, sweep
from repro.store import codec
from repro.store import journal as journal_mod
from repro.store.journal import Journal
from repro.store.store import request_key


@pytest.fixture(autouse=True)
def _builtin():
    registry.load_builtin()


def _grid(n):
    """``n`` points of the no-op scenario (16-lane batch items)."""
    return [
        engine.RunRequest.create("sweep-noop", {"point": i})
        for i in range(n)
    ]


def _canonical(outcomes):
    return [
        json.dumps(
            codec.strip_volatile(codec.outcome_to_record(o)),
            sort_keys=True,
        )
        for o in outcomes
    ]


# ----------------------------------------------------------------------
class TestLeaseProtocol:
    def test_claim_is_exclusive(self, tmp_path):
        transport = FileTransport(tmp_path)
        lease = transport.try_claim("item-000000", "wk-a", ttl=30.0)
        assert lease is not None and lease.attempt == 1
        assert transport.try_claim("item-000000", "wk-b", ttl=30.0) is None

    def test_renew_requires_ownership(self, tmp_path):
        transport = FileTransport(tmp_path)
        transport.try_claim("item-000000", "wk-a", ttl=30.0)
        assert transport.renew("item-000000", "wk-a", ttl=30.0) is True
        assert transport.renew("item-000000", "wk-b", ttl=30.0) is False

    def test_release_by_stranger_keeps_lease(self, tmp_path):
        transport = FileTransport(tmp_path)
        transport.try_claim("item-000000", "wk-a", ttl=30.0)
        transport.release("item-000000", "wk-b")
        assert transport.lease("item-000000").owner == "wk-a"
        transport.release("item-000000", "wk-a")
        assert transport.lease("item-000000") is None

    def test_stale_lease_takeover(self, tmp_path):
        transport = FileTransport(tmp_path)
        # a worker that died long ago: deadline safely past the grace
        dead = LeaseRecord(
            item="item-000000", owner="wk-dead",
            deadline=time.time() - 60.0, attempt=1,
        )
        transport._write_atomic(
            transport._lease_path("item-000000"), dead.to_json()
        )
        taken = transport.try_claim("item-000000", "wk-b", ttl=30.0)
        assert taken is not None
        assert taken.owner == "wk-b"
        assert taken.attempt == 2
        assert transport.lease("item-000000").owner == "wk-b"

    def test_live_lease_not_taken_over(self, tmp_path):
        transport = FileTransport(tmp_path)
        transport.try_claim("item-000000", "wk-a", ttl=30.0)
        assert transport.try_claim("item-000000", "wk-b", ttl=1.0) is None

    def test_concurrent_claims_have_one_winner(self, tmp_path):
        """Racing claimers of a fresh item: exactly one wins.  A lease
        file seen before its record is in it would read as stale debris
        and hand the item to a second claimer."""
        # switch threads often so claims interleave inside try_claim
        previous = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        transport = FileTransport(tmp_path)
        n_threads, n_items = 8, 40
        start = threading.Barrier(n_threads, timeout=30.0)
        owners = {item_id(i): [] for i in range(n_items)}

        def claimer(worker):
            for item in owners:
                start.wait()
                if transport.try_claim(item, worker, ttl=30.0) is not None:
                    owners[item].append(worker)

        threads = [
            threading.Thread(target=claimer, args=(f"wk-{t}",))
            for t in range(n_threads)
        ]
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60.0)
        finally:
            sys.setswitchinterval(previous)
        assert not any(thread.is_alive() for thread in threads)
        assert {item: len(won) for item, won in owners.items()} == {
            item: 1 for item in owners
        }
        for item, (winner,) in owners.items():
            assert transport.lease(item).owner == winner

    def test_publish_is_idempotent_first_wins(self, tmp_path):
        transport = FileTransport(tmp_path)
        assert transport.publish_result(7, {"who": "first"}) is True
        assert transport.publish_result(7, {"who": "second"}) is False
        assert transport.read_result(7) == {"who": "first"}
        assert transport.result_indices() == {7}

    def test_corrupt_lease_reads_as_absent(self, tmp_path):
        transport = FileTransport(tmp_path)
        path = transport._lease_path("item-000000")
        path.parent.mkdir(parents=True)
        path.write_text("not json{")
        assert transport.lease("item-000000") is None
        # and the slot is claimable despite the debris
        assert transport.try_claim(
            "item-000000", "wk-a", ttl=30.0
        ) is not None


# ----------------------------------------------------------------------
class TestPlan:
    def test_plan_roundtrip_and_reuse(self, tmp_path):
        transport = FileTransport(tmp_path)
        requests = _grid(20)
        plan = plan_fabric(transport, "sweep-noop", requests)
        # 20 points, 16 lanes: one full batch and one remainder
        assert [len(i["indices"]) for i in plan["items"]] == [16, 4]
        again = plan_fabric(transport, "sweep-noop", requests)
        assert again == plan

    def test_different_grid_rejected(self, tmp_path):
        transport = FileTransport(tmp_path)
        plan_fabric(transport, "sweep-noop", _grid(4))
        with pytest.raises(FabricError, match="different plan"):
            plan_fabric(transport, "sweep-noop", _grid(5))


# ----------------------------------------------------------------------
class TestJournalPrimitives:
    def _outcomes(self, n=3):
        return engine.execute(_grid(n), jobs=1)

    def test_rewrite_matches_incremental_append(self, tmp_path):
        outcomes = self._outcomes()
        appended = Journal(tmp_path / "a.jsonl")
        appended.start("sweep-noop", "fp")
        for outcome in outcomes:
            appended.append(outcome)
        rewritten = Journal(tmp_path / "b.jsonl")
        rewritten.rewrite("sweep-noop", outcomes, "fp")
        assert (
            appended.path.read_bytes() == rewritten.path.read_bytes()
        )

    def test_merge_segments_first_segment_wins(self, tmp_path):
        outcomes = self._outcomes(3)
        seg_a = Journal(tmp_path / "a" / "journal.jsonl")
        seg_a.path.parent.mkdir(parents=True)
        seg_a.start("sweep-noop", "fp")
        seg_a.append(outcomes[0])
        seg_a.append(outcomes[1])
        seg_b = Journal(tmp_path / "b" / "journal.jsonl")
        seg_b.path.parent.mkdir(parents=True)
        seg_b.start("sweep-noop", "fp")
        seg_b.append(outcomes[1])  # duplicate of a's point
        seg_b.append(outcomes[2])
        merged = journal_mod.merge_segments(
            [seg_a.path, seg_b.path]
        )
        assert len(merged) == 3
        keys = {request_key(o.request) for o in outcomes}
        assert set(merged) == keys

    def test_merge_skips_unreadable_segment(self, tmp_path):
        outcomes = self._outcomes(2)
        good = Journal(tmp_path / "good" / "journal.jsonl")
        good.path.parent.mkdir(parents=True)
        good.start("sweep-noop", "fp")
        for outcome in outcomes:
            good.append(outcome)
        bad = tmp_path / "bad" / "journal.jsonl"
        bad.parent.mkdir(parents=True)
        bad.write_text("torn garbage\n")
        merged = journal_mod.merge_segments([bad, good.path])
        assert len(merged) == 2


# ----------------------------------------------------------------------
class TestFabricSweep:
    def _worker_thread(self, transport, wid, **kwargs):
        kwargs.setdefault("lease_ttl", 10.0)
        kwargs.setdefault("poll_s", 0.01)
        kwargs.setdefault("plan_timeout", 30.0)
        thread = threading.Thread(
            target=run_worker,
            args=(transport,),
            kwargs=dict(worker_id=wid, **kwargs),
            daemon=True,
        )
        thread.start()
        return thread

    def _coordinator_thread(self, transport, requests, box):
        """A monitoring coordinator (no workers of its own); its
        result lands in ``box["result"]``."""
        thread = threading.Thread(
            target=lambda: box.update(result=run_fabric_sweep(
                transport, "sweep-noop", requests,
                workers=0, poll_s=0.01, timeout=30.0,
            )),
            daemon=True,
        )
        thread.start()
        return thread

    def test_two_workers_match_serial_engine(self, tmp_path):
        requests = _grid(40)
        serial = engine.execute(requests, jobs=1)
        transport = FileTransport(tmp_path)
        threads = [
            self._worker_thread(transport, f"wk-t{i}") for i in range(2)
        ]
        seen = []
        result = run_fabric_sweep(
            transport, "sweep-noop", requests,
            workers=0, poll_s=0.01, timeout=60.0,
            on_outcome=seen.append,
        )
        for thread in threads:
            thread.join(timeout=10.0)
        # return order is request order; callback saw each point once
        assert _canonical(result.outcomes) == _canonical(serial)
        assert sorted(_canonical(seen)) == sorted(_canonical(serial))
        # both workers left a journal segment behind, and it is their
        # only per-point record
        assert len(transport.segment_journals()) == 2
        assert sorted(p.name for p in tmp_path.glob("workers/*/*")) == [
            "journal.jsonl", "journal.jsonl",
        ]

    def test_worker_takes_over_expired_lease(self, tmp_path):
        requests = _grid(4)  # one batch item
        transport = FileTransport(tmp_path)
        plan_fabric(transport, "sweep-noop", requests)
        dead = LeaseRecord(
            item=item_id(0), owner="wk-dead",
            deadline=time.time() - 60.0, attempt=1,
        )
        transport._write_atomic(
            transport._lease_path(item_id(0)), dead.to_json()
        )
        stats = run_worker(
            transport, worker_id="wk-live", once=True, lease_ttl=10.0
        )
        assert stats.claimed == 1
        assert stats.takeovers == 1
        assert stats.executed_points == 4
        assert transport.result_indices() == {0, 1, 2, 3}

    def test_coordinator_salvages_journaled_work(self, tmp_path):
        requests = _grid(4)  # one batch item
        outcomes = engine.execute(requests, jobs=1)
        transport = FileTransport(tmp_path)
        plan_fabric(transport, "sweep-noop", requests)
        # the "dead" worker journaled everything but only published
        # points 1-3 before dying mid-lease
        segment = Journal(
            transport.worker_dir("wk-dead") / "journal.jsonl"
        )
        segment.start("sweep-noop", "fp")
        for outcome in outcomes:
            segment.append(outcome)
        for index in (1, 2, 3):
            record = codec.outcome_to_record(outcomes[index])
            record["key"] = request_key(outcomes[index].request)
            transport.publish_result(index, record)
        dead = LeaseRecord(
            item=item_id(0), owner="wk-dead",
            deadline=time.time() - 60.0, attempt=1,
        )
        transport._write_atomic(
            transport._lease_path(item_id(0)), dead.to_json()
        )
        result = run_fabric_sweep(
            transport, "sweep-noop", requests,
            workers=0, poll_s=0.01, timeout=30.0,
        )
        assert result.salvaged == 1
        assert result.expired_leases == 1
        assert _canonical(result.outcomes) == _canonical(outcomes)
        # the coordinator salvages but never deletes a lease
        assert transport.lease(item_id(0)) == dead

    def test_quarantine_fires_while_coordinator_runs(self, tmp_path):
        """The coordinator salvages for an expired lease once and leaves
        the record, attempt count and all, for the next claim to take
        over, so a poisoned item is still quarantined."""
        from repro.obs import metrics

        requests = _grid(1)
        transport = FileTransport(tmp_path)
        plan_fabric(transport, "sweep-noop", requests)
        dead = LeaseRecord(
            item=item_id(0), owner="wk-dead",
            deadline=time.time() - 60.0, attempt=2,
        )
        transport._write_atomic(
            transport._lease_path(item_id(0)), dead.to_json()
        )
        box = {}
        with metrics.collecting(reset=True) as registry_:
            coordinator = self._coordinator_thread(transport, requests, box)
            deadline = time.monotonic() + 10.0
            while registry_.counter("fabric.expired_leases").value < 1:
                assert time.monotonic() < deadline, "lease never seen"
                time.sleep(0.01)
            assert transport.lease(item_id(0)) == dead
            stats = run_worker(
                transport, worker_id="wk-live", once=True,
                lease_ttl=10.0, quarantine_after=2,
            )
            coordinator.join(timeout=30.0)
        assert not coordinator.is_alive()
        assert stats.takeovers == 1
        assert stats.quarantined == 1
        assert box["result"].expired_leases == 1
        assert box["result"].outcomes[0].error.startswith(
            "quarantined: item-000000 killed 2 executor(s)"
        )

    def test_workers_busy_gauge_counts_owners_of_live_leases(
        self, tmp_path
    ):
        from repro.obs import metrics

        requests = _grid(20)  # two items
        transport = FileTransport(tmp_path)
        plan_fabric(transport, "sweep-noop", requests)
        assert transport.try_claim(item_id(0), "wk-a", ttl=30.0)
        dead = LeaseRecord(
            item=item_id(1), owner="wk-dead",
            deadline=time.time() - 60.0, attempt=1,
        )
        transport._write_atomic(
            transport._lease_path(item_id(1)), dead.to_json()
        )
        box = {}
        with metrics.collecting(reset=True) as registry_:
            coordinator = self._coordinator_thread(transport, requests, box)
            deadline = time.monotonic() + 10.0
            while registry_.gauge("fabric.leased").value != 2:
                assert time.monotonic() < deadline, "no gauge export"
                time.sleep(0.01)
            time.sleep(0.1)  # past the poll that set the gauge
            # one live owner; the expired lease's owner is not busy
            assert registry_.gauge("fabric.workers_busy").value == 1
            transport.release(item_id(0), "wk-a")
            run_worker(transport, worker_id="wk-live", once=True,
                       lease_ttl=10.0)
            coordinator.join(timeout=30.0)
        assert not coordinator.is_alive()
        assert len(box["result"].outcomes) == 20

    def test_worker_claims_the_costliest_item_first(self, tmp_path):
        # three batch items in grid order 2x2, 4x4, 3x3; the plan keeps
        # that order, the worker's first claim is the 4x4 group
        requests = sweep.build_requests(
            registry.get("fault-injection"),
            axes={"mesh_size": [2, 4, 3], "n_faults": [0, 1]},
            fixed={"cycles": 200},
        )
        transport = FileTransport(tmp_path)
        plan = plan_fabric(transport, "fault-injection", requests)
        assert [item["indices"] for item in plan["items"]] == [
            [0, 1], [2, 3], [4, 5],
        ]
        stats = run_worker(
            transport, worker_id="wk-lpt", max_items=1, lease_ttl=10.0
        )
        assert stats.claimed == 1
        assert transport.result_indices() == {2, 3}

    def test_duplicate_execution_publishes_once(self, tmp_path):
        # one batch item covering indices 0-3; index 0 was already
        # published (a racing worker got there first), so the item is
        # still "missing" and gets re-executed — but the re-publish of
        # index 0 must lose to the existing record
        requests = _grid(4)
        transport = FileTransport(tmp_path)
        plan_fabric(transport, "sweep-noop", requests)
        outcome = engine.execute(requests[:1], jobs=1)[0]
        record = codec.outcome_to_record(outcome)
        record["key"] = request_key(outcome.request)
        record["worker"] = "wk-first"
        transport.publish_result(0, record)
        stats = run_worker(transport, worker_id="wk-b", once=True)
        assert stats.executed_points == 4
        assert stats.published == 3
        assert stats.duplicate_results == 1
        assert transport.read_result(0)["worker"] == "wk-first"
        assert transport.result_indices() == {0, 1, 2, 3}

    def test_telemetry_aggregates_worker_segments(self, tmp_path):
        requests = _grid(20)  # two items: one per worker (mostly)
        transport = FileTransport(tmp_path)
        threads = [
            self._worker_thread(transport, f"wk-t{i}") for i in range(2)
        ]
        run_fabric_sweep(
            transport, "sweep-noop", requests,
            workers=0, poll_s=0.01, timeout=60.0,
        )
        for thread in threads:
            thread.join(timeout=30.0)
            # a straggler would keep appending to its telemetry
            # segment while summarize() reads it — fail loudly instead
            assert not thread.is_alive(), "worker thread never exited"
        report = obs_analyze.summarize(tmp_path)
        assert report.total == 20
        assert report.jobs == len(report.worker_rows)
        assert sum(r["points"] for r in report.worker_rows) == 20
        assert "workers" in report.to_json()
        assert report.to_csv().splitlines()[0].endswith(",worker")

    def test_telemetry_reads_valid_prefix_of_damaged_segment(
        self, tmp_path
    ):
        outcomes = engine.execute(_grid(3), jobs=1)
        transport = FileTransport(tmp_path)
        for wid, points in (("wk-a", outcomes[:1]), ("wk-b", outcomes)):
            segment = Journal(transport.worker_dir(wid) / "journal.jsonl")
            segment.start("sweep-noop", "fp")
            for outcome in points:
                segment.append(outcome)
        # bit rot in wk-b's second point: it and the point after it
        # are dropped, as salvage drops them
        path = transport.worker_dir("wk-b") / "journal.jsonl"
        lines = path.read_text().splitlines(keepends=True)
        lines[2] = lines[2].replace('"sweep-noop"', '"sweep-nope"')
        path.write_text("".join(lines))
        # a worker killed before its header contributes no row
        (transport.worker_dir("wk-c") / "journal.jsonl").write_text("")
        report = obs_analyze.summarize(tmp_path)
        assert [(r["worker"], r["points"]) for r in report.worker_rows] == [
            ("wk-a", 1), ("wk-b", 1),
        ]
        assert report.jobs == 2
        assert report.points[0]["duration_s"] == outcomes[0].duration_s


# ----------------------------------------------------------------------
_CRASH_ONCE_WORKER = """\
import os, signal, sys, time

sys.path.insert(0, sys.argv[3])
from repro.fabric.transport import FileTransport, item_id
from repro.fabric.worker import run_worker

root, marker = sys.argv[1], sys.argv[2]
if os.path.exists(marker):
    # the respawn: behave like a normal worker and finish the plan
    run_worker(root, lease_ttl=5.0, poll_s=0.05, plan_timeout=30.0)
    sys.exit(0)
with open(marker, "w") as fh:
    fh.write("crashed\\n")
transport = FileTransport(root)
while transport.read_plan() is None:
    time.sleep(0.05)
# die holding a short lease: the classic mid-item worker death
transport.try_claim(item_id(0), "wk-doomed", 0.2)
os.kill(os.getpid(), signal.SIGKILL)
"""


class TestWorkerDeathRecovery:
    def test_sigkilled_worker_is_replaced_and_item_releases(
        self, tmp_path
    ):
        """SIGKILL a worker holding a lease: the supervisor respawns
        the slot, the respawned worker takes the expired lease over,
        and the finished sweep matches a serial run exactly."""
        import subprocess

        script = tmp_path / "crash_once_worker.py"
        script.write_text(_CRASH_ONCE_WORKER)
        marker = tmp_path / "crashed.marker"
        fabric_dir = tmp_path / "fabric"
        fabric_dir.mkdir()
        from pathlib import Path

        src_root = str(Path(engine.__file__).resolve().parents[2])
        env = _worker_env()

        def spawn(index):
            return subprocess.Popen(
                [
                    sys.executable, str(script), str(fabric_dir),
                    str(marker), src_root,
                ],
                env=env,
                stdout=subprocess.DEVNULL,
            )

        requests = _grid(20)
        serial = engine.execute(requests, jobs=1)
        result = run_fabric_sweep(
            fabric_dir, "sweep-noop", requests,
            workers=1, lease_ttl=0.5, poll_s=0.05, timeout=120.0,
            spawn=spawn,
        )
        assert marker.exists()  # the first incarnation really died
        assert result.worker_restarts >= 1
        # the respawned worker took the dead worker's lease over and
        # released it after publishing: nothing is left leased and the
        # doomed worker published nothing
        transport = FileTransport(fabric_dir)
        assert transport.leases() == {}
        record = transport.read_result(0)
        assert record["worker"] != "wk-doomed"
        assert _canonical(result.outcomes) == _canonical(serial)

    def test_failed_sweep_leaves_no_worker_running(self, tmp_path):
        """A sweep that raises (here: its timeout) still stops every
        worker it spawned before returning."""
        procs = []

        def spawn(index):
            proc = subprocess.Popen(
                [sys.executable, "-c", "import time; time.sleep(120)"]
            )
            procs.append(proc)
            return proc

        with pytest.raises(FabricError, match="incomplete"):
            run_fabric_sweep(
                tmp_path, "sweep-noop", _grid(4),
                workers=2, poll_s=0.05, timeout=0.5, spawn=spawn,
            )
        assert len(procs) == 2
        assert all(proc.poll() is not None for proc in procs)
