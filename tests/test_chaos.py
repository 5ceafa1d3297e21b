"""Tests for the chaos engineering layer.

Covers the seeded fault schedule grammar and its determinism, the
deterministic retry policy, fault injection through
:class:`ChaosTransport`, the integrity checksums on journal lines /
store objects / published results, the fencing and quarantine paths in
the worker, ``repro fsck``'s corruption-class matrix, and — the point
of it all — a whole coordinator+worker run under a seeded fault
schedule finishing byte-identical to a serial run, twice.
"""

import json
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

from repro.chaos import ChaosSpecError, RetryPolicy, parse_spec, policy_from_env
from repro.chaos.transport import ChaosTransport
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
from repro.fabric.worker import _LeaseRenewer
from repro.obs import metrics
from repro.runner import engine, registry
from repro.store import codec
from repro.store import journal as journal_mod
from repro.store.fsck import QUARANTINE_DIRNAME, fsck_tree
from repro.store.journal import Journal
from repro.store.store import RunStore, request_key


@pytest.fixture(autouse=True)
def _builtin():
    registry.load_builtin()


def _grid(n):
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
class TestChaosSpec:
    def test_parse_full_grammar(self):
        policy = parse_spec(
            "7:worker.item=die#3,transport.claim=race@0.5,"
            "transport.publish=stall:0.25"
        )
        assert policy.seed == 7
        die, race, stall = policy.rules
        assert (die.seam, die.fault, die.nth) == ("worker.item", "die", 3)
        assert (race.fault, race.prob) == ("race", 0.5)
        assert (stall.fault, stall.arg) == ("stall", 0.25)

    @pytest.mark.parametrize("bad", [
        "no-seed-directive",
        "x:worker.item=die",          # bad seed
        "1:",                          # no directives
        "1:bogus.seam=io",             # unknown seam
        "1:worker.item=io",            # fault not allowed at seam
        "1:transport.claim=race@1.5",  # probability out of range
        "1:worker.item=die#0",         # nth must be >= 1
        "1:worker.item=die@x",         # unparseable probability
    ])
    def test_bad_specs_rejected(self, bad):
        with pytest.raises(ChaosSpecError):
            parse_spec(bad)

    def test_nth_fires_exactly_once(self):
        policy = parse_spec("3:worker.item=die#2")
        fired = [policy.fire("worker.item") for _ in range(6)]
        assert [r is not None for r in fired] == [
            False, True, False, False, False, False
        ]
        assert policy.injected == [("worker.item", "die", 2)]

    def test_probabilistic_schedule_is_seed_deterministic(self):
        draws = []
        for _ in range(2):
            policy = parse_spec("11:transport.claim=race@0.3")
            draws.append([
                policy.fire("transport.claim") is not None
                for _ in range(50)
            ])
        assert draws[0] == draws[1]
        assert any(draws[0]) and not all(draws[0])
        # a different seed gives a different schedule
        other = parse_spec("12:transport.claim=race@0.3")
        assert draws[0] != [
            other.fire("transport.claim") is not None for _ in range(50)
        ]

    def test_seams_draw_from_independent_streams(self):
        # consulting one seam must not perturb another's schedule
        lone = parse_spec("5:transport.claim=race@0.3")
        mixed = parse_spec(
            "5:transport.claim=race@0.3,transport.renew=fail@0.3"
        )
        lone_draws = []
        mixed_draws = []
        for _ in range(40):
            lone_draws.append(lone.fire("transport.claim") is not None)
            mixed.fire("transport.renew")  # interleaved traffic
            mixed_draws.append(
                mixed.fire("transport.claim") is not None
            )
        assert lone_draws == mixed_draws

    def test_policy_from_env(self):
        assert policy_from_env({}) is None
        policy = policy_from_env({"REPRO_CHAOS": "9:worker.item=hang"})
        assert policy is not None and policy.seed == 9
        with pytest.raises(ChaosSpecError):
            policy_from_env({"REPRO_CHAOS": "junk"})

    def test_describe_round_trips(self):
        spec = "7:worker.item=die#3,transport.claim=race@0.2"
        assert parse_spec(parse_spec(spec).describe()).describe() \
            == parse_spec(spec).describe()


# ----------------------------------------------------------------------
class TestRetryPolicy:
    def test_delays_are_deterministic_and_bounded(self):
        policy = RetryPolicy(attempts=5, base_delay=0.1, max_delay=0.8,
                             jitter=0.25, seed=1)
        delays = [policy.delay(i, key="k") for i in range(1, 6)]
        assert delays == [policy.delay(i, key="k") for i in range(1, 6)]
        for attempt, delay in enumerate(delays, start=1):
            nominal = min(0.8, 0.1 * 2 ** (attempt - 1))
            assert nominal * 0.75 <= delay <= nominal * 1.25
        # different call sites get different jitter, same bounds
        assert delays != [policy.delay(i, key="other") for i in range(1, 6)]

    def test_transient_failure_retried_then_succeeds(self):
        calls = []
        slept = []

        def flaky():
            calls.append(1)
            if len(calls) < 3:
                raise OSError("transient")
            return "ok"

        policy = RetryPolicy(attempts=4, base_delay=0.01)
        assert policy.call(flaky, sleep=slept.append) == "ok"
        assert len(calls) == 3
        assert len(slept) == 2

    def test_exhaustion_reraises_last_error(self):
        policy = RetryPolicy(attempts=3, base_delay=0.001)

        def always():
            raise OSError("still broken")

        with pytest.raises(OSError, match="still broken"):
            policy.call(always, sleep=lambda _s: None)

    def test_non_retryable_exception_passes_through(self):
        policy = RetryPolicy(attempts=3)

        def boom():
            raise ValueError("logic bug")

        with pytest.raises(ValueError):
            policy.call(boom, sleep=lambda _s: None)


# ----------------------------------------------------------------------
class TestChaosTransport:
    def test_injected_io_error_and_passthrough(self, tmp_path):
        inner = FileTransport(tmp_path)
        bus = ChaosTransport(inner, parse_spec("1:transport.claim=io#1"))
        with pytest.raises(OSError, match="chaos"):
            bus.try_claim(item_id(0), "wk", 5.0)
        lease = bus.try_claim(item_id(0), "wk", 5.0)  # second hit: clean
        assert lease is not None and lease.owner == "wk"
        # FileTransport extras delegate through the wrapper
        assert bus.root == inner.root
        assert bus.worker_dir("wk").is_dir()

    def test_claim_race_loses_without_touching_disk(self, tmp_path):
        inner = FileTransport(tmp_path)
        bus = ChaosTransport(inner, parse_spec("1:transport.claim=race#1"))
        assert bus.try_claim(item_id(0), "wk", 5.0) is None
        assert inner.lease(item_id(0)) is None  # nothing was written

    def test_renew_fail_reports_lost_ownership(self, tmp_path):
        inner = FileTransport(tmp_path)
        bus = ChaosTransport(inner, parse_spec("1:transport.renew=fail#1"))
        assert inner.try_claim(item_id(0), "wk", 5.0) is not None
        assert bus.renew(item_id(0), "wk", 5.0) is False
        assert bus.renew(item_id(0), "wk", 5.0) is True

    def test_torn_publish_then_retry_overwrites_debris(self, tmp_path):
        inner = FileTransport(tmp_path)
        bus = ChaosTransport(inner,
                             parse_spec("1:transport.publish=torn#1"))
        record = codec.attach_hash({"kind": "x", "value": 1})
        with pytest.raises(OSError, match="torn"):
            bus.publish_result(0, dict(record))
        # the tear left unreadable debris occupying the result path
        assert inner._result_path(0).exists()
        assert inner.read_result(0) is None
        # the worker's retry path: publish again — the hardened
        # FileTransport overwrites corrupt debris instead of treating
        # it as an existing result
        assert bus.publish_result(0, dict(record)) is True
        assert inner.read_result(0)["value"] == 1

    def test_duplicate_publish_stays_idempotent(self, tmp_path):
        inner = FileTransport(tmp_path)
        bus = ChaosTransport(inner, parse_spec("1:transport.publish=dup#1"))
        record = codec.attach_hash({"kind": "x", "value": 1})
        assert bus.publish_result(0, dict(record)) is True
        assert inner.read_result(0)["value"] == 1

    def test_corrupt_result_not_overwritten_when_valid(self, tmp_path):
        # idempotency is preserved for *valid* existing records
        inner = FileTransport(tmp_path)
        first = codec.attach_hash({"kind": "x", "value": 1})
        second = codec.attach_hash({"kind": "x", "value": 2})
        assert inner.publish_result(0, first) is True
        assert inner.publish_result(0, second) is False
        assert inner.read_result(0)["value"] == 1


# ----------------------------------------------------------------------
class TestChecksums:
    def test_attach_verify_and_tamper(self):
        record = codec.attach_hash({"a": 1, "b": "x"})
        assert codec.verify_hash(record) is True
        record["a"] = 2
        assert codec.verify_hash(record) is False
        assert codec.verify_hash({"a": 1}) is None  # pre-checksum record

    def test_volatile_fields_do_not_affect_hash(self):
        base = codec.attach_hash({"a": 1})
        noisy = codec.attach_hash({"a": 1, "duration_s": 9.9,
                                   "t_mono": 123.0})
        assert base[codec.CHECKSUM_FIELD] == noisy[codec.CHECKSUM_FIELD]
        assert codec.verify_hash(noisy) is True

    def test_journal_lines_carry_verifying_checksums(self, tmp_path):
        outcomes = engine.execute(_grid(3), jobs=1)
        writer = Journal(tmp_path / "journal.jsonl")
        writer.start("sweep-noop", "fp")
        for outcome in outcomes:
            writer.append(outcome)
        lines = writer.path.read_text().splitlines()
        for line in lines[1:]:
            entry = json.loads(line)
            assert codec.verify_hash(entry) is True
        _, loaded = journal_mod.load(writer.path)
        assert len(loaded) == 3

    def test_journal_read_stops_at_checksum_mismatch(self, tmp_path):
        outcomes = engine.execute(_grid(3), jobs=1)
        writer = Journal(tmp_path / "journal.jsonl")
        writer.start("sweep-noop", "fp")
        for outcome in outcomes:
            writer.append(outcome)
        lines = writer.path.read_text().splitlines(keepends=True)
        # scribble inside line 2 (first outcome), keeping valid JSON
        entry = json.loads(lines[1])
        entry["error"] = "tampered"
        lines[1] = json.dumps(entry, sort_keys=True) + "\n"
        writer.path.write_text("".join(lines))
        _, loaded = journal_mod.load(writer.path)
        assert loaded == []  # damage boundary: nothing after is trusted

    def test_store_self_heals_bit_flipped_payload(self, tmp_path):
        outcomes = engine.execute(_grid(1), jobs=1)
        store = RunStore(tmp_path)
        key = store.put(outcomes[0])
        path = store._object_path(key)
        raw = path.read_text()
        path.write_text(raw.replace('"point"', '"paint"', 1))
        assert store.get(outcomes[0].request) is None  # miss, not poison
        store.put(outcomes[0])  # recompute-and-replace heals the object
        assert store.get(outcomes[0].request) is not None

    def test_corrupt_lease_counted_in_registry(self, tmp_path):
        transport = FileTransport(tmp_path)
        transport._lease_path(item_id(0)).parent.mkdir(
            parents=True, exist_ok=True
        )
        transport._lease_path(item_id(0)).write_text("{not json")
        prior = metrics.REGISTRY.enabled
        metrics.REGISTRY.reset()
        metrics.REGISTRY.enabled = True
        try:
            assert transport.lease(item_id(0)) is None
            counters = metrics.REGISTRY.counters()
            assert counters.get("fabric.corrupt_records", 0) == 1
        finally:
            metrics.REGISTRY.reset()
            metrics.REGISTRY.enabled = prior


# ----------------------------------------------------------------------
class TestRenewerAndFencing:
    def test_lost_renewal_sets_abort_flag(self, tmp_path):
        inner = FileTransport(tmp_path)
        bus = ChaosTransport(inner, parse_spec("1:transport.renew=fail#1"))
        assert inner.try_claim(item_id(0), "wk", 0.15) is not None
        with _LeaseRenewer(bus, item_id(0), "wk", 0.15) as renewer:
            deadline = time.monotonic() + 5.0
            while not renewer.lost.is_set():
                assert time.monotonic() < deadline, "lost flag never set"
                time.sleep(0.01)
        assert renewer.lost.is_set()
        assert not renewer.leaked

    def test_transient_renew_error_is_not_a_loss(self, tmp_path):
        inner = FileTransport(tmp_path)
        bus = ChaosTransport(inner, parse_spec("1:transport.renew=io#1"))
        assert inner.try_claim(item_id(0), "wk", 0.15) is not None
        with _LeaseRenewer(bus, item_id(0), "wk", 0.15) as renewer:
            time.sleep(0.25)  # at least two renew ticks
        assert not renewer.lost.is_set()

    def test_wedged_renew_thread_is_recorded_not_joined_forever(self):
        gate = threading.Event()

        class Wedged:
            def renew(self, item, owner, ttl):
                gate.wait(30.0)
                return True

        renewer = _LeaseRenewer(Wedged(), item_id(0), "wk", 0.15,
                                join_timeout=0.2)
        with renewer:
            time.sleep(0.1)  # let the thread enter the wedged renew
        assert renewer.leaked
        gate.set()  # unwedge so the daemon thread exits

    def test_fenced_worker_never_publishes(self, tmp_path):
        # the acceptance scenario: kill renewal via a takeover race —
        # the executor hangs, the lease is stolen mid-execution, and
        # the original worker must abort between execution and publish
        requests = _grid(1)
        transport = FileTransport(tmp_path)
        plan_fabric(transport, "sweep-noop", requests)
        policy = parse_spec("1:worker.item=hang:0.8")
        done = {}

        def victim():
            done["stats"] = run_worker(
                transport, worker_id="wk-victim", once=True,
                lease_ttl=30.0, chaos=policy,
            )

        thread = threading.Thread(target=victim, daemon=True)
        thread.start()
        deadline = time.monotonic() + 5.0
        while transport.lease(item_id(0)) is None:
            assert time.monotonic() < deadline, "victim never claimed"
            time.sleep(0.01)
        # steal the lease while the victim's executor hangs: expire
        # its record, then take it over the one way leases change hands
        expired = LeaseRecord(item=item_id(0), owner="wk-victim",
                              deadline=time.time() - 60.0)
        transport._write_atomic(
            transport._lease_path(item_id(0)), expired.to_json()
        )
        stolen = transport.try_claim(item_id(0), "wk-thief", 60.0)
        assert stolen is not None and stolen.attempt == 2
        thread.join(timeout=10.0)
        assert not thread.is_alive()
        stats = done["stats"]
        assert stats.fenced == 1
        assert stats.published == 0  # the loser aborted cleanly
        assert transport.result_indices() == set()
        # the fenced work stayed journaled (salvageable)...
        merged = journal_mod.merge_segments(transport.segment_journals())
        assert len(merged) == 1
        # ...and first-publisher-wins: the thief's record sticks
        outcome = engine.execute(requests, jobs=1)[0]
        record = codec.outcome_to_record(outcome)
        record["key"] = request_key(outcome.request)
        record["worker"] = "wk-thief"
        assert transport.publish_result(0, codec.attach_hash(record))
        assert transport.read_result(0)["worker"] == "wk-thief"


# ----------------------------------------------------------------------
class TestQuarantineAndTimeout:
    def test_poisoned_item_quarantined_as_structured_failure(
        self, tmp_path
    ):
        requests = _grid(1)
        transport = FileTransport(tmp_path)
        plan_fabric(transport, "sweep-noop", requests)
        # the lease record says two executors already died on this item
        dead = LeaseRecord(item=item_id(0), owner="wk-dead",
                           deadline=time.time() - 60.0, attempt=2)
        transport._write_atomic(
            transport._lease_path(item_id(0)), dead.to_json()
        )
        stats = run_worker(
            transport, worker_id="wk-live", once=True,
            lease_ttl=10.0, quarantine_after=2,
        )
        assert stats.quarantined == 1
        assert stats.published == 1
        record = transport.read_result(0)
        assert record["error"].startswith("quarantined:")
        assert "killed 2 executor(s)" in record["error"]
        assert codec.verify_hash(record) is True
        # the sweep completes gracefully around the quarantined point
        result = run_fabric_sweep(
            transport, "sweep-noop", requests,
            workers=0, poll_s=0.01, timeout=30.0,
        )
        assert result.outcomes[0].error.startswith("quarantined:")

    def _expire_lease(self, transport, attempt):
        dead = LeaseRecord(item=item_id(0), owner="wk-dead",
                           deadline=time.time() - 60.0, attempt=attempt)
        transport._write_atomic(
            transport._lease_path(item_id(0)), dead.to_json()
        )

    def _journal_dead_owner(self, transport, outcomes):
        segment = Journal(
            transport.worker_dir("wk-dead") / "journal.jsonl"
        )
        segment.start("sweep-noop", "fp")
        for outcome in outcomes:
            segment.append(outcome)

    def test_takeover_salvages_journaled_work_before_quarantine(
        self, tmp_path
    ):
        """The dead owner journaled the point's success: a takeover
        publishes it and never quarantines the finished work."""
        requests = _grid(1)
        outcomes = engine.execute(requests, jobs=1)
        transport = FileTransport(tmp_path)
        plan_fabric(transport, "sweep-noop", requests)
        self._journal_dead_owner(transport, outcomes)
        self._expire_lease(transport, attempt=2)
        stats = run_worker(
            transport, worker_id="wk-live", once=True,
            lease_ttl=10.0, quarantine_after=2,
        )
        assert stats.quarantined == 0
        assert stats.executed_points == 0
        record = transport.read_result(0)
        assert record["worker"] == "salvage"
        assert record["error"] == ""
        assert transport.lease(item_id(0)) is None  # handed back
        result = run_fabric_sweep(
            transport, "sweep-noop", requests,
            workers=0, poll_s=0.01, timeout=30.0,
        )
        assert _canonical(result.outcomes) == _canonical(outcomes)

    def test_takeover_quarantines_only_unjournaled_points(self, tmp_path):
        requests = _grid(4)  # one batch item
        outcomes = engine.execute(requests, jobs=1)
        transport = FileTransport(tmp_path)
        plan_fabric(transport, "sweep-noop", requests)
        self._journal_dead_owner(transport, outcomes[:2])
        self._expire_lease(transport, attempt=2)
        stats = run_worker(
            transport, worker_id="wk-live", once=True,
            lease_ttl=10.0, quarantine_after=2,
        )
        assert stats.quarantined == 1
        errors = [transport.read_result(i)["error"] for i in range(4)]
        assert errors[:2] == ["", ""]
        assert all(e.startswith("quarantined:") for e in errors[2:])
        # the live segment records only the two quarantined points, so
        # the salvaged successes are not also counted as failures
        _, live = journal_mod.load(
            transport.worker_dir("wk-live") / "journal.jsonl"
        )
        assert [dict(o.request.params)["point"] for o in live] == [2, 3]
        assert all(o.error.startswith("quarantined:") for o in live)
        assert stats.executed_points == 2
        assert stats.errors == 2

    def test_point_timeout_journals_structured_failure(self, tmp_path):
        requests = _grid(1)
        transport = FileTransport(tmp_path)
        plan_fabric(transport, "sweep-noop", requests)
        policy = parse_spec("1:worker.item=hang:5")
        stats = run_worker(
            transport, worker_id="wk-slow", once=True, lease_ttl=10.0,
            point_timeout=0.2, chaos=policy,
        )
        assert stats.timeouts == 1
        record = transport.read_result(0)
        assert record["error"].startswith("point timeout:")
        assert transport.leases() == {}  # released after publishing

    def test_second_attempt_executes_normally(self, tmp_path):
        # one prior death is below the quarantine threshold: takeover
        # re-executes and publishes the real result
        requests = _grid(1)
        transport = FileTransport(tmp_path)
        plan_fabric(transport, "sweep-noop", requests)
        dead = LeaseRecord(item=item_id(0), owner="wk-dead",
                           deadline=time.time() - 60.0, attempt=1)
        transport._write_atomic(
            transport._lease_path(item_id(0)), dead.to_json()
        )
        stats = run_worker(
            transport, worker_id="wk-live", once=True,
            lease_ttl=10.0, quarantine_after=2,
        )
        assert stats.quarantined == 0
        assert stats.takeovers == 1
        assert transport.read_result(0)["error"] == ""


# ----------------------------------------------------------------------
class TestChaosEndToEnd:
    def _chaos_spawn(self, fabric_dir, spec):
        env = _worker_env()

        def spawn(index):
            return subprocess.Popen(
                [
                    sys.executable, "-m", "repro", "worker",
                    str(fabric_dir), "--lease-ttl", "0.5",
                    "--poll", "0.05", "--chaos", spec,
                    # keep quarantine out of the way: every takeover
                    # re-executes, so the recovered tree is the serial
                    # tree no matter how the deaths interleave
                    "--quarantine-after", "9",
                ],
                env=env,
                stdout=subprocess.DEVNULL,
            )

        return spawn

    def _run_once(self, fabric_dir, requests, spec):
        return run_fabric_sweep(
            fabric_dir, "sweep-noop", requests,
            workers=1, lease_ttl=0.5, poll_s=0.05, timeout=120.0,
            spawn=self._chaos_spawn(fabric_dir, spec),
        )

    def test_seeded_die_chaos_replays_byte_identical(self, tmp_path):
        # every worker incarnation dies mid-item on its second lease:
        # after the durable journal append, before publication — the
        # window salvage and takeover exist for.  The sweep must still
        # finish, twice, canonically identical to a serial run.
        requests = _grid(40)  # 3 batch-packed work items
        serial = engine.execute(requests, jobs=1)
        spec = "7:worker.item=die#2"
        canon = []
        restarts = []
        for run in ("a", "b"):
            fabric_dir = tmp_path / f"fabric-{run}"
            fabric_dir.mkdir()
            result = self._run_once(fabric_dir, requests, spec)
            canon.append(_canonical(result.outcomes))
            restarts.append(result.worker_restarts)
        assert canon[0] == _canonical(serial)
        assert canon[0] == canon[1]  # same seed ⇒ same recovered tree
        assert all(r >= 1 for r in restarts)  # the chaos really fired

    def test_corrupt_journal_chaos_still_converges(self, tmp_path):
        # scribbled journal appends damage the worker's segment but the
        # published results stay authoritative; fsck then repairs the
        # segments without touching anything valid
        requests = _grid(40)
        serial = engine.execute(requests, jobs=1)
        fabric_dir = tmp_path / "fabric"
        fabric_dir.mkdir()
        result = self._run_once(
            fabric_dir, requests,
            "5:journal.append=corrupt#3,transport.claim=race@0.2",
        )
        assert _canonical(result.outcomes) == _canonical(serial)
        report = fsck_tree(fabric_dir)
        assert report.ok
        assert any(i.kind in ("corrupt-line", "torn-tail")
                   for i in report.issues)
        assert fsck_tree(fabric_dir).clean  # second pass: nothing left

    def test_restart_exhaustion_surfaces_first_failure(self, tmp_path):
        # satellite: a worker dying max_restarts+1 times must raise the
        # supervisor's failure out of the coordinator, not hang it
        fabric_dir = tmp_path / "fabric"
        fabric_dir.mkdir()

        def spawn(index):
            return subprocess.Popen(
                [sys.executable, "-c", "import sys; sys.exit(3)"],
            )

        start = time.monotonic()
        with pytest.raises(FabricError, match="died 3 times"):
            run_fabric_sweep(
                fabric_dir, "sweep-noop", _grid(4),
                workers=1, lease_ttl=0.5, poll_s=0.05, timeout=60.0,
                max_restarts=2, spawn=spawn,
            )
        assert time.monotonic() - start < 30.0


# ----------------------------------------------------------------------
class TestFsck:
    def _sweep_tree(self, tmp_path, n=3):
        out = tmp_path / "out"
        outcomes = engine.execute(_grid(n), jobs=1)
        writer = Journal(journal_mod.journal_path(out))
        writer.start("sweep-noop", "fp")
        for outcome in outcomes:
            writer.append(outcome)
        return out, outcomes

    def test_clean_tree_is_clean(self, tmp_path):
        out, _ = self._sweep_tree(tmp_path)
        report = fsck_tree(out)
        assert report.clean and report.ok
        assert report.records_checked >= 4

    def test_torn_tail_truncated_without_data_loss(self, tmp_path):
        out, outcomes = self._sweep_tree(tmp_path)
        path = journal_mod.journal_path(out)
        with path.open("ab") as fh:
            fh.write(b'{"kind": "outcome", "half')
        report = fsck_tree(out)
        assert [i.kind for i in report.issues] == ["torn-tail"]
        assert report.ok
        _, loaded = journal_mod.load(path)
        assert _canonical(loaded) == _canonical(outcomes)
        # the torn bytes were preserved, not destroyed
        debris = list((out / QUARANTINE_DIRNAME).iterdir())
        assert len(debris) == 1
        assert b'"half' in debris[0].read_bytes()

    def test_interior_corruption_quarantined_tail_kept(self, tmp_path):
        # unlike load()'s stop-at-damage rule, fsck rescues the valid
        # lines *after* a corrupt interior line
        out, outcomes = self._sweep_tree(tmp_path, n=4)
        path = journal_mod.journal_path(out)
        lines = path.read_text().splitlines(keepends=True)
        lines[2] = lines[2][:20] + "\xff\xff" + lines[2][22:]
        path.write_text("".join(lines))
        _, before = journal_mod.load(path)
        assert len(before) == 1  # readers stop at the damage...
        report = fsck_tree(out)
        assert report.ok
        assert [i.kind for i in report.issues] == ["corrupt-line"]
        _, after = journal_mod.load(path)
        assert len(after) == 3  # ...fsck kept the tail lines too

    def test_bit_flipped_store_payload_quarantined(self, tmp_path):
        outcomes = engine.execute(_grid(2), jobs=1)
        store = RunStore(tmp_path / "store")
        keys = [store.put(o) for o in outcomes]
        victim = store._object_path(keys[0])
        victim.write_text(
            victim.read_text().replace('"sweep-noop"', '"sweep-nope"', 1)
        )
        report = fsck_tree(tmp_path / "store")
        assert report.ok
        assert [i.kind for i in report.issues] == ["bad-checksum"]
        assert not victim.exists()  # moved to quarantine, not deleted
        assert list((tmp_path / "store" / QUARANTINE_DIRNAME).iterdir())
        # the untouched object survived
        assert store.get(outcomes[1].request) is not None
        assert store.get(outcomes[0].request) is None

    def test_truncated_result_record_quarantined(self, tmp_path):
        fabric = tmp_path / "fabric"
        transport = FileTransport(fabric)
        plan_fabric(transport, "sweep-noop", _grid(2))
        outcome = engine.execute(_grid(2), jobs=1)[0]
        record = codec.attach_hash(codec.outcome_to_record(outcome))
        transport.publish_result(0, record)
        # a truncated (torn) second record
        path = transport._result_path(1)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(record)[:25])
        report = fsck_tree(fabric)
        assert report.ok
        assert [i.kind for i in report.issues] == ["corrupt-result"]
        assert transport.read_result(0) is not None
        assert not path.exists()

    def test_stale_lease_debris_cleared(self, tmp_path):
        fabric = tmp_path / "fabric"
        transport = FileTransport(fabric)
        requests = _grid(20)
        plan = plan_fabric(transport, "sweep-noop", requests)
        assert len(plan["items"]) == 2
        done = plan["items"][0]["indices"]
        # every point of item 0 published: its lease is debris
        outcomes = engine.execute(requests, jobs=1)
        for index in done:
            record = codec.outcome_to_record(outcomes[index])
            record["key"] = request_key(outcomes[index].request)
            transport.publish_result(index, codec.attach_hash(record))
        assert transport.try_claim(item_id(0), "wk-done", 300.0)
        # an expired lease of an unfinished item holds its attempt
        # count (what quarantines a poisoned item), so it must survive
        dead = LeaseRecord(item=item_id(1), owner="wk-dead",
                           deadline=time.time() - 120.0, attempt=2)
        transport._write_atomic(
            transport._lease_path(item_id(1)), dead.to_json()
        )
        # unreadable lease debris (writer died mid-write)
        debris = transport._lease_path(item_id(2))
        debris.write_text('{"item": "item-0000')
        # a live lease that must survive
        assert transport.try_claim("item-000099", "wk-live", 300.0)
        report = fsck_tree(fabric)
        assert report.ok
        kinds = sorted(i.kind for i in report.issues)
        assert kinds == ["lease-debris", "stale-lease"]
        assert transport.lease(item_id(0)) is None
        assert transport.lease(item_id(1)) == dead
        assert not debris.exists()
        assert transport.lease("item-000099") is not None

    def test_corrupt_telemetry_line_quarantined(self, tmp_path):
        from repro.obs.telemetry import TelemetryWriter, read_stream

        out = tmp_path / "out"
        outcomes = engine.execute(_grid(2), jobs=1)
        writer = TelemetryWriter(out / "telemetry.jsonl")
        writer.start("sweep-noop", "fp", jobs=1)
        for outcome in outcomes:
            writer.append_point(outcome)
        lines = writer.path.read_text().splitlines(keepends=True)
        lines[1] = '{"kind": "mystery"}\n'
        writer.path.write_text("".join(lines))
        report = fsck_tree(out)
        assert report.ok
        assert [i.kind for i in report.issues] == ["corrupt-line"]
        header, entries = read_stream(writer.path)
        assert header["kind"] == "header"
        assert [e["kind"] for e in entries] == ["point"]

    def test_dry_run_reports_without_touching(self, tmp_path):
        out, _ = self._sweep_tree(tmp_path)
        path = journal_mod.journal_path(out)
        with path.open("ab") as fh:
            fh.write(b"torn")
        before = path.read_bytes()
        report = fsck_tree(out, repair=False)
        assert not report.clean and not report.ok
        assert all(i.action == "reported" for i in report.issues)
        assert path.read_bytes() == before
        assert not (out / QUARANTINE_DIRNAME).exists()

    def test_cli_exit_codes(self, tmp_path):
        from repro.__main__ import main

        out, _ = self._sweep_tree(tmp_path)
        assert main(["fsck", str(out)]) == 0
        path = journal_mod.journal_path(out)
        with path.open("ab") as fh:
            fh.write(b"torn")
        assert main(["fsck", str(out), "--dry-run"]) == 1
        assert main(["fsck", str(out)]) == 0  # repaired
        assert main(["fsck", str(out)]) == 0  # and stays clean
