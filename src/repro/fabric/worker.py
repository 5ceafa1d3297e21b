"""The fabric worker loop: claim a lease, execute, publish, repeat.

A worker attaches to a fabric directory, waits for the coordinator's
plan, then scans for work items whose results are not yet published,
costliest first (:func:`repro.runner.engine.dispatch_order`).
For each one it wins a lease on, it executes the item through the
ordinary sweep engine — a batch-packed item runs through the compiled
backend's lane packing exactly as ``--jobs 1`` would — while a
background thread renews the lease so a *live* worker never loses it.
Every outcome is appended to the worker's own journal segment (durable
before publication: a worker killed between append and publish leaves
a salvageable record) and published into the shared results; the
coordinator's sweep pipeline is the one writer of the run store.  The
segment is the worker's only record of its points: ``repro telemetry``
reads their timings from it.

A lease won from an expired owner (attempt > 1) is a takeover: the
worker first publishes whatever of the item the dead owners journaled
(:meth:`~repro.fabric.transport.FileTransport.salvage`), and hands the
lease straight back if that completed the item.  Publication is
idempotent, so a worker that re-executes a point another worker
already half-finished is harmless: the first published record wins
and both are canonically identical.

Robustness seams layered on top of that happy path:

* transient transport faults are retried with deterministic backoff
  (:class:`~repro.chaos.retry.RetryPolicy`);
* a lost lease renewal raises the renewer's ``lost`` flag, and the
  worker re-verifies ownership *between execution and publish* — a
  fenced worker never publishes over a takeover's results (its journal
  segment keeps the work salvageable);
* a work item may carry a wall-clock ``point_timeout``; an executor
  that blows it is abandoned and the points journal as structured
  ``point timeout`` failures;
* an item whose lease attempt count says it already killed
  ``quarantine_after`` executors, and whose points salvage did not
  complete, is *quarantined*: journaled and published as a structured
  failure without being executed, so one poisoned point cannot wedge
  the whole sweep;
* under ``REPRO_CHAOS`` (see :mod:`repro.chaos`) the worker wraps its
  transport in a fault-injecting decorator and honors ``worker.item``
  (die/hang) and ``journal.append`` (corrupt) crash points — the same
  seed replays the same faults.
"""

from __future__ import annotations

import os
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Tuple, Union

from ..runner import engine, registry
from ..store import codec
from ..store import journal as journal_mod
from ..store.journal import Journal
from ..store.store import code_fingerprint, request_key
from ..obs.metrics import REGISTRY
from .transport import (
    FabricError,
    FileTransport,
    decode_requests,
    item_id,
    worker_identity,
)

#: a point that already killed this many executors is not tried again
DEFAULT_QUARANTINE_AFTER = 2

#: exit status of a chaos-injected worker death (mirrors SIGKILL's 137
#: so the crew's restart accounting treats it like a real kill)
CHAOS_EXIT_STATUS = 137


@dataclass
class WorkerStats:
    """What one worker run did, for logs and tests."""

    worker_id: str
    claimed: int = 0
    takeovers: int = 0
    executed_points: int = 0
    published: int = 0
    duplicate_results: int = 0
    errors: int = 0
    fenced: int = 0
    quarantined: int = 0
    timeouts: int = 0
    publish_failures: int = 0
    scenario: str = ""
    extra: Dict[str, object] = field(default_factory=dict)

    def summary(self) -> str:
        text = (
            f"worker {self.worker_id}: {self.claimed} leases "
            f"({self.takeovers} takeovers), {self.executed_points} points, "
            f"{self.published} published, "
            f"{self.duplicate_results} duplicates, {self.errors} errors"
        )
        if self.fenced or self.quarantined or self.timeouts:
            text += (
                f", {self.fenced} fenced, {self.quarantined} quarantined, "
                f"{self.timeouts} timeouts"
            )
        return text


def _result_record(outcome: engine.RunOutcome,
                   worker_id: str) -> Dict[str, object]:
    """The published form of one outcome: codec record + key + worker,
    stamped with its integrity checksum."""
    record = codec.outcome_to_record(outcome)
    record["key"] = request_key(outcome.request)
    record["worker"] = worker_id
    return codec.attach_hash(record)


class _LeaseRenewer:
    """Background heartbeat for one held lease.

    A renewal that reports ownership lost sets :attr:`lost` — the abort
    flag the worker checks between execution and publish (fencing).  A
    transient renew *error* is not a loss: the deadline still has most
    of a TTL of slack, so the renewer just tries again next tick.
    """

    def __init__(self, transport: FileTransport, item: str, owner: str,
                 ttl: float, join_timeout: float = 5.0) -> None:
        self._transport = transport
        self._item = item
        self._owner = owner
        self._ttl = ttl
        self._join_timeout = join_timeout
        self._stop = threading.Event()
        self.lost = threading.Event()
        self.leaked = False
        self._thread = threading.Thread(
            target=self._loop, name=f"lease-renew:{item}", daemon=True
        )

    def _loop(self) -> None:
        interval = max(0.05, self._ttl / 3.0)
        while not self._stop.wait(interval):
            try:
                renewed = self._transport.renew(
                    self._item, self._owner, self._ttl
                )
            except OSError:
                continue  # transient; retry on the next tick
            if not renewed:
                self.lost.set()
                if REGISTRY.enabled:
                    REGISTRY.counter("fabric.leases_lost").inc()
                return
        # one final renewal is pointless: the executor releases next

    def __enter__(self) -> "_LeaseRenewer":
        self._thread.start()
        return self

    def __exit__(self, *exc_info) -> None:
        self._stop.set()
        self._thread.join(timeout=self._join_timeout)
        if self._thread.is_alive():
            # a renew call wedged in a syscall: don't block the worker on
            # it.  The thread is daemonized and re-checks the stop event
            # before every renew, so it can never renew again after this
            # point — the lease simply expires; record the leak instead
            # of silently abandoning the thread.
            self.leaked = True
            if REGISTRY.enabled:
                REGISTRY.counter("fabric.renewer_leaks").inc()


def _open_journal(
    transport: FileTransport, worker_id: str, scenario_id: str,
    fingerprint: str
) -> Journal:
    """The per-worker journal segment, resumable after a crash."""
    journal = Journal(transport.worker_dir(worker_id) / "journal.jsonl")
    if journal.path.exists():
        # same worker id re-attached (restart): drop any torn tail,
        # then keep appending
        journal_mod.recover(journal.path)
    else:
        journal.start(scenario_id, fingerprint)
    return journal


def _execute_guarded(
    work: engine.WorkItem,
    point_timeout: Optional[float],
    hang_s: Optional[float],
) -> Tuple[Optional[List[engine.RunOutcome]], bool]:
    """Run one work item, optionally under a wall-clock timeout.

    Returns ``(outcomes, timed_out)``.  With a timeout the item runs on
    a daemon thread; blowing the deadline abandons the executor (it can
    finish into the void — results are discarded) and returns
    ``(None, True)``.  ``hang_s`` is the chaos hang: the executor stalls
    *after* computing, before handing results back, which is how a
    wedged simulation looks from the outside.
    """
    if point_timeout is None and hang_s is None:
        return engine.execute_item(work), False
    box: List[object] = []

    def target() -> None:
        try:
            result: object = engine.execute_item(work)
        except BaseException as exc:  # surfaced to the caller below
            result = exc
        if hang_s:
            time.sleep(hang_s)
        box.append(result)

    thread = threading.Thread(
        target=target, name="fabric-executor", daemon=True
    )
    thread.start()
    thread.join(point_timeout)
    if thread.is_alive():
        return None, True
    result = box[0]
    if isinstance(result, BaseException):
        raise result
    return result, False


def _scribble_last_line(path: Path) -> None:
    """Chaos ``journal.append=corrupt``: flip bytes inside the line just
    appended, keeping the trailing newline — the in-place bit-rot shape
    that checksums (not torn-tail truncation) must catch."""
    with path.open("r+b") as fh:
        fh.seek(0, os.SEEK_END)
        size = fh.tell()
        if size > 16:
            fh.seek(size - 10)
            fh.write(b"\xffCHAOS\xff")


def run_worker(
    fabric: Union[str, Path, FileTransport],
    worker_id: Optional[str] = None,
    lease_ttl: float = 20.0,
    poll_s: float = 0.5,
    plan_timeout: float = 60.0,
    once: bool = False,
    max_items: Optional[int] = None,
    point_timeout: Optional[float] = None,
    quarantine_after: int = DEFAULT_QUARANTINE_AFTER,
    chaos: Optional[object] = None,
    retry: Optional[object] = None,
) -> WorkerStats:
    """Attach to a fabric and execute leased work until the plan is done.

    ``once`` makes a single claim pass and returns (tests and cron-style
    drivers); ``max_items`` caps how many leases this worker will
    execute (the dead-worker tests use ``max_items=1`` to stop a worker
    mid-plan).  ``chaos`` is an explicit
    :class:`~repro.chaos.policy.ChaosPolicy` (default: parsed from the
    ``REPRO_CHAOS`` environment variable); ``retry`` an explicit
    :class:`~repro.chaos.retry.RetryPolicy`.  Raises
    :class:`FabricError` if no plan appears within ``plan_timeout``
    seconds or the plan's code fingerprint does not match this worker's
    checkout.
    """
    # lazy imports: repro.chaos.transport imports this package
    from ..chaos.policy import policy_from_env
    from ..chaos.retry import RetryPolicy
    from ..chaos.transport import ChaosTransport

    transport = (FileTransport(fabric) if isinstance(fabric, (str, Path))
                 else fabric)
    policy = chaos if chaos is not None else policy_from_env(os.environ)
    # ``bus`` takes the protocol calls (through the chaos decorator when
    # there is one); ``transport`` is the plain FileTransport underneath
    bus = transport
    if isinstance(transport, ChaosTransport):
        transport = transport.inner
    elif policy is not None:
        bus = ChaosTransport(transport, policy)
    retry_policy: RetryPolicy = retry if retry is not None else RetryPolicy()
    wid = worker_id or worker_identity()
    stats = WorkerStats(worker_id=wid)

    deadline = time.monotonic() + plan_timeout
    plan = None
    while plan is None:
        try:
            plan = bus.read_plan()
        except OSError:
            plan = None  # transient transport fault: poll again
        if plan is not None:
            break
        if time.monotonic() >= deadline:
            raise FabricError(
                f"no fabric plan appeared in {transport.root} within "
                f"{plan_timeout:.0f}s"
            )
        time.sleep(min(poll_s, 0.2))

    registry.load_builtin()
    fingerprint = code_fingerprint()
    if plan.get("fingerprint") != fingerprint:
        raise FabricError(
            f"fabric plan was made from code fingerprint "
            f"{plan.get('fingerprint')}, this worker runs {fingerprint}; "
            f"refusing to mix results from different code"
        )
    scenario_id = str(plan["scenario"])
    stats.scenario = scenario_id
    requests = decode_requests(plan)
    items: List[dict] = list(plan["items"])
    groups = [[requests[idx] for idx in item["indices"]] for item in items]
    works: List[engine.WorkItem] = [
        ("batch", group) if item["kind"] == "batch" else ("one", group[0])
        for item, group in zip(items, groups)
    ]
    # claims scan the items costliest first, the order the pool
    # dispatches in; the plan itself keeps grid order
    claim_order = engine.dispatch_order(works)

    journal = _open_journal(transport, wid, scenario_id, fingerprint)

    while True:
        published = transport.result_indices()
        missing = [
            i for i in claim_order
            if any(idx not in published for idx in items[i]["indices"])
        ]
        if not missing:
            break
        progressed = False
        for index in missing:
            if max_items is not None and stats.claimed >= max_items:
                return stats
            try:
                lease = retry_policy.call(
                    bus.try_claim, item_id(index), wid, lease_ttl,
                    key=f"{wid}:claim:{index}",
                )
            except OSError:
                continue  # persistent claim failure: try other items
            if lease is None:
                continue
            item = items[index]
            published = transport.result_indices()
            # a takeover first publishes what the dead owners
            # journaled, before anything executes or quarantines
            if lease.attempt > 1 and transport.salvage(
                {request_key(r): idx
                 for r, idx in zip(groups[index], item["indices"])},
                published,
            ):
                published = transport.result_indices()
            if all(idx in published for idx in item["indices"]):
                # the missing-scan was stale (another worker finished
                # this item between our scan and our claim) or salvage
                # completed it — executing it again would only produce
                # duplicates, so hand the lease straight back
                transport.release(item_id(index), wid)
                progressed = True
                continue
            stats.claimed += 1
            if lease.attempt > 1:
                stats.takeovers += 1
            if REGISTRY.enabled:
                REGISTRY.counter("fabric.items_claimed").inc()
                if lease.attempt > 1:
                    REGISTRY.counter("fabric.takeovers").inc()
            group, work = groups[index], works[index]
            indices = item["indices"]
            renewer: Optional[_LeaseRenewer] = None
            die_pending = False
            if lease.attempt > quarantine_after:
                # this item's previous owners died mid-execution
                # quarantine_after times; executing it again would
                # kill us too — record the failure of the points
                # salvage left unpublished and move on
                stats.quarantined += 1
                if REGISTRY.enabled:
                    REGISTRY.counter("fabric.quarantined").inc()
                indices = [idx for idx in indices if idx not in published]
                outcomes = engine.failed_outcomes(
                    [requests[idx] for idx in indices],
                    f"quarantined: {item_id(index)} killed "
                    f"{lease.attempt - 1} executor(s); not retrying",
                )
            else:
                hang_s: Optional[float] = None
                if policy is not None:
                    rule = policy.fire("worker.item")
                    if rule is not None and rule.fault == "die":
                        die_pending = True
                    elif rule is not None and rule.fault == "hang":
                        hang_s = rule.arg
                with _LeaseRenewer(bus, item_id(index), wid,
                                   lease_ttl) as renewer:
                    outcomes, timed_out = _execute_guarded(
                        work, point_timeout, hang_s
                    )
                if timed_out:
                    stats.timeouts += 1
                    if REGISTRY.enabled:
                        REGISTRY.counter("fabric.point_timeouts").inc()
                    outcomes = engine.failed_outcomes(
                        group,
                        f"point timeout: exceeded "
                        f"{point_timeout:g}s wall clock; "
                        f"executor abandoned",
                    )
            # durable first: journal before publication, so a crash
            # in the publish loop leaves a salvageable segment
            for outcome in outcomes:
                journal.append(outcome)
                if policy is not None:
                    rule = policy.fire("journal.append")
                    if rule is not None and rule.fault == "corrupt":
                        _scribble_last_line(journal.path)
                stats.executed_points += 1
                if REGISTRY.enabled:
                    REGISTRY.counter("fabric.points_executed").inc()
                if outcome.error:
                    stats.errors += 1
            if die_pending:
                # chaos crash point: after the durable append, before
                # publication — the exact window the salvage path and
                # lease takeover exist for
                os._exit(CHAOS_EXIT_STATUS)
            # fencing: re-verify ownership between execution and
            # publish.  A lost renewal (or a takeover visible in the
            # lease record) means another worker may already be
            # re-executing this item — publishing now could overwrite
            # nothing (publication is idempotent) but racing is
            # pointless: abort, keep the journaled work salvageable.
            current = transport.lease(item_id(index))
            if renewer is not None and (
                renewer.lost.is_set()
                or current is None
                or current.owner != wid
            ):
                stats.fenced += 1
                if REGISTRY.enabled:
                    REGISTRY.counter("fabric.fenced").inc()
                try:
                    transport.release(item_id(index), wid)
                except OSError:
                    pass
                progressed = True
                continue
            for idx, outcome in zip(indices, outcomes):
                try:
                    fresh = retry_policy.call(
                        bus.publish_result, idx,
                        _result_record(outcome, wid),
                        key=f"{wid}:publish:{idx}",
                    )
                except OSError:
                    # persistently unpublishable: the outcome is
                    # journaled, so the coordinator's salvage pass
                    # still completes the point
                    stats.publish_failures += 1
                    if REGISTRY.enabled:
                        REGISTRY.counter(
                            "fabric.publish_failures"
                        ).inc()
                    continue
                if fresh:
                    stats.published += 1
                else:
                    stats.duplicate_results += 1
                    if REGISTRY.enabled:
                        REGISTRY.counter(
                            "fabric.duplicate_results"
                        ).inc()
            try:
                retry_policy.call(
                    bus.release, item_id(index), wid,
                    key=f"{wid}:release:{index}",
                )
            except OSError:
                pass  # the lease will expire on its own
            progressed = True
        if once:
            break
        if not progressed:
            # everything missing is leased elsewhere: wait for the
            # owners to publish or their leases to expire
            time.sleep(poll_s)
    return stats
