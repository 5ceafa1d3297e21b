"""The fabric coordinator: plan, lease, supervise, merge.

``run_fabric_sweep`` is the whole coordinator side of a distributed
sweep.  It seeds the shared directory with the plan (grid requests in
canonical order plus the engine's batch-packed work items), optionally
spawns local ``repro worker`` subprocesses, then sits in a monitor loop
that wakes every ``poll_s`` to:

* ingest newly published results the moment they land (the
  ``on_outcome`` callback fires in completion order, exactly like the
  local engine's);
* salvage: once per expired lease record it sees (the owner stopped
  renewing), scan every worker's journal segment for outcomes that
  were journaled but never published, and publish them — work a
  worker finished in its last instants is never re-executed.  The
  coordinator never deletes a lease: the next worker to claim the
  item takes the expired record over, attempt count and all;
* export fabric gauges/counters (leased, workers busy, results,
  expired leases) when telemetry is enabled;
* poll the local workers and respawn one that died, up to
  ``max_restarts`` times per slot.

When every grid point has a published result, the outcomes are
reassembled in request order and handed back; the caller (the sweep
pipeline) journals and writes artifacts through the same code path a
local run uses, so the finished artifact tree is byte-identical to
``repro sweep --jobs 1``.
"""

from __future__ import annotations

import os
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Set, Tuple, Union

from ..obs.metrics import REGISTRY
from ..runner import engine
from ..runner.engine import RunOutcome, RunRequest
from ..store import codec
from ..store.store import code_fingerprint, request_key
from .transport import FabricError, FileTransport, encode_requests

#: how many times a dead local worker is relaunched before giving up
DEFAULT_MAX_RESTARTS = 3


@dataclass
class FabricSweep:
    """What a fabric run produced and what it took to get there."""

    outcomes: List[RunOutcome] = field(default_factory=list)
    workers_spawned: int = 0
    worker_restarts: int = 0
    expired_leases: int = 0
    salvaged: int = 0
    corrupt_results: int = 0

    def summary(self) -> str:
        text = (
            f"fabric: {len(self.outcomes)} points via "
            f"{self.workers_spawned} spawned workers "
            f"({self.worker_restarts} restarts, "
            f"{self.expired_leases} expired leases, "
            f"{self.salvaged} salvaged)"
        )
        if self.corrupt_results:
            text += f", {self.corrupt_results} corrupt results discarded"
        return text


def plan_fabric(
    transport: FileTransport,
    scenario_id: str,
    requests: Sequence[RunRequest],
    fingerprint: str = "",
) -> Dict[str, object]:
    """Seed (or validate and reuse) the fabric plan.

    The plan pins the grid in canonical order and the engine's
    batch-packed work items, so every worker leases identical units.
    A fabric directory that already holds a plan must hold *this*
    plan — same scenario, fingerprint, and requests — which makes
    re-running a coordinator against a half-finished directory a
    resume, not a corruption.  An existing plan's other fields are
    ignored, so a plan that still names a run store loads as well.
    """
    requests = list(requests)
    fingerprint = fingerprint or code_fingerprint()
    index_of = {request: i for i, request in enumerate(requests)}
    items = []
    for kind, payload in engine.plan_items(requests):
        group = [payload] if kind == "one" else list(payload)
        items.append(
            {"kind": kind, "indices": [index_of[r] for r in group]}
        )
    plan: Dict[str, object] = {
        "kind": "fabric-plan",
        "version": 1,
        "scenario": scenario_id,
        "fingerprint": fingerprint,
        "requests": encode_requests(requests),
        "items": items,
    }
    existing = transport.read_plan()
    if existing is not None:
        for field_name in ("scenario", "fingerprint", "requests"):
            if existing.get(field_name) != plan[field_name]:
                raise FabricError(
                    f"fabric directory already holds a different plan "
                    f"({field_name} mismatch); use a fresh directory"
                )
        return existing
    transport.write_plan(plan)
    return plan


def _worker_command(
    fabric_root: Path,
    lease_ttl: float,
    point_timeout: Optional[float] = None,
    quarantine_after: Optional[int] = None,
) -> List[str]:
    command = [
        sys.executable, "-m", "repro", "worker", str(fabric_root),
        "--lease-ttl", str(lease_ttl),
    ]
    if point_timeout is not None:
        command += ["--point-timeout", str(point_timeout)]
    if quarantine_after is not None:
        command += ["--quarantine-after", str(quarantine_after)]
    return command


def _worker_env() -> Dict[str, str]:
    """The spawned worker's environment: ours, plus the package root on
    ``PYTHONPATH`` so ``-m repro`` resolves even under bare pytest."""
    env = dict(os.environ)
    pkg_root = str(Path(__file__).resolve().parents[2])
    existing = env.get("PYTHONPATH", "")
    paths = existing.split(os.pathsep) if existing else []
    if pkg_root not in paths:
        env["PYTHONPATH"] = os.pathsep.join([pkg_root] + paths)
    return env


class _WorkerCrew:
    """Local worker subprocesses, one per slot, polled by the monitor loop.

    :meth:`poll` respawns a slot whose worker exited non-zero, until
    that slot has died more than ``max_restarts`` times.
    """

    def __init__(self, count: int, spawn: Callable[[int], subprocess.Popen],
                 max_restarts: int) -> None:
        self._spawn = spawn
        self._max_restarts = max_restarts
        self.restarts = 0
        self._deaths = [0] * count
        self._procs: List[subprocess.Popen] = []
        try:
            for index in range(count):
                self._procs.append(spawn(index))
        except BaseException:
            self.shutdown()  # no worker outlives a failed start
            raise
        self.spawned = count

    def poll(self) -> bool:
        """Respawn dead workers; ``True`` once every slot exited cleanly.

        Raises :class:`FabricError` for a slot out of restarts.
        """
        for index, proc in enumerate(self._procs):
            rc = proc.poll()
            if not rc:  # still running (None) or finished cleanly (0)
                continue
            self._deaths[index] += 1
            self.restarts += 1
            if REGISTRY.enabled:
                REGISTRY.counter("fabric.worker_restarts").inc()
            if self._deaths[index] > self._max_restarts:
                raise FabricError(
                    f"fabric worker {index} died {self._deaths[index]} "
                    f"times (last exit code {rc}); giving up on this slot"
                )
            self._procs[index] = self._spawn(index)
            self.spawned += 1
        return all(proc.poll() == 0 for proc in self._procs)

    def shutdown(self) -> None:
        """Terminate every live worker; kill any that will not stop."""
        live = [proc for proc in self._procs if proc.poll() is None]
        for proc in live:
            proc.terminate()
        for proc in live:
            try:
                proc.wait(timeout=5.0)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()


def _decode_result(record: Optional[Dict[str, object]]
                   ) -> Optional[RunOutcome]:
    """The outcome a published result record holds, or None for debris:
    an unreadable record, one that fails its checksum, or parseable
    JSON that is not a result record (an old writer's debris)."""
    if record is None or codec.verify_hash(record) is False:
        return None
    try:
        return codec.outcome_from_record(record)
    except (KeyError, TypeError, ValueError):
        return None


def run_fabric_sweep(
    fabric: Union[str, Path, FileTransport, None],
    scenario_id: str,
    requests: Sequence[RunRequest],
    workers: int = 0,
    lease_ttl: float = 20.0,
    poll_s: float = 0.25,
    on_outcome: Optional[Callable[[RunOutcome], None]] = None,
    timeout: Optional[float] = None,
    max_restarts: int = DEFAULT_MAX_RESTARTS,
    spawn: Optional[Callable[[int], subprocess.Popen]] = None,
    point_timeout: Optional[float] = None,
    quarantine_after: Optional[int] = None,
    retry: Optional[object] = None,
) -> FabricSweep:
    """Run ``requests`` through the fabric; outcomes in request order.

    ``workers > 0`` spawns that many local ``repro worker`` daemons
    (restarted on death up to ``max_restarts`` times each); with
    ``workers == 0`` the coordinator only plans and monitors, and
    externally attached workers — other hosts on a shared mount —
    do the executing.  ``fabric=None`` runs the spawned workers over a
    private temporary directory, removed afterwards.  ``spawn``
    overrides how a worker subprocess is launched (tests use it to
    inject crashing workers).
    ``point_timeout``/``quarantine_after`` are forwarded to spawned
    workers; ``retry`` is the coordinator's own
    :class:`~repro.chaos.retry.RetryPolicy` for transient transport
    faults.
    """
    from ..chaos.retry import RetryPolicy

    if fabric is None:
        if workers < 1:
            raise FabricError("a private fabric needs spawned workers")
        with tempfile.TemporaryDirectory(prefix="repro-fabric-") as tmp:
            return run_fabric_sweep(
                tmp, scenario_id, requests, workers=workers,
                lease_ttl=lease_ttl, poll_s=poll_s, on_outcome=on_outcome,
                timeout=timeout, max_restarts=max_restarts, spawn=spawn,
                point_timeout=point_timeout,
                quarantine_after=quarantine_after, retry=retry,
            )
    retry_policy = retry if retry is not None else RetryPolicy()
    transport = (FileTransport(fabric) if isinstance(fabric, (str, Path))
                 else fabric)
    requests = list(requests)
    sweep = FabricSweep()
    if not requests:
        return sweep
    retry_policy.call(
        plan_fabric, transport, scenario_id, requests, key="plan",
    )
    key_to_index = {
        request_key(request): i for i, request in enumerate(requests)
    }
    total = len(requests)
    by_index: Dict[int, RunOutcome] = {}
    #: expired lease records already salvaged for, by (item, deadline)
    seen_expired: Set[Tuple[str, float]] = set()

    crew: Optional[_WorkerCrew] = None
    if workers > 0:
        if spawn is None:
            command = _worker_command(
                transport.root, lease_ttl,
                point_timeout=point_timeout,
                quarantine_after=quarantine_after,
            )
            env = _worker_env()

            def spawn(index: int) -> subprocess.Popen:  # noqa: F811
                return subprocess.Popen(
                    command, env=env, stdout=subprocess.DEVNULL
                )

        crew = _WorkerCrew(workers, spawn, max_restarts)

    start = time.monotonic()
    try:
        while True:
            fresh = transport.result_indices() - by_index.keys()
            for index in sorted(fresh):
                outcome = _decode_result(transport.read_result(index))
                if outcome is None:
                    # the index is listed but its record is torn or
                    # corrupt debris at the result path.  Leaving it
                    # would wedge the sweep (the scan would skip it
                    # forever while workers see it as published) —
                    # discard so it is republished.
                    if transport.discard_result(index):
                        sweep.corrupt_results += 1
                        if REGISTRY.enabled:
                            REGISTRY.counter(
                                "fabric.corrupt_results"
                            ).inc()
                    continue
                by_index[index] = outcome
                if REGISTRY.enabled:
                    REGISTRY.counter("fabric.results").inc()
                if on_outcome is not None:
                    on_outcome(outcome)
            if len(by_index) >= total:
                break

            leases = transport.leases()
            now = time.time()
            expired = {
                (lease.item, lease.deadline) for lease in leases.values()
                if lease.expired(now)
            } - seen_expired
            if expired:
                # the owners went quiet: rescue their journaled work;
                # the next claim of each item takes its lease over
                seen_expired |= expired
                sweep.expired_leases += len(expired)
                sweep.salvaged += transport.salvage(
                    key_to_index, set(by_index)
                )
                if REGISTRY.enabled:
                    REGISTRY.counter("fabric.expired_leases").inc(
                        len(expired)
                    )
            if REGISTRY.enabled:
                REGISTRY.gauge("fabric.leased").set(len(leases))
                REGISTRY.gauge("fabric.completed").set(len(by_index))
                REGISTRY.gauge("fabric.workers_busy").set(len({
                    lease.owner for lease in leases.values()
                    if not lease.expired(now)
                }))

            if crew is not None and crew.poll():
                # one more ingest pass: they may have published
                # everything and exited cleanly between our scans
                if transport.result_indices() >= set(range(total)):
                    continue
                # last resort: a worker that exhausted its publish
                # retries exits with the work journaled but not
                # published — rescue those segments before giving up
                salvaged = transport.salvage(key_to_index, set(by_index))
                if salvaged:
                    sweep.salvaged += salvaged
                    continue
                raise FabricError(
                    "every fabric worker exited but "
                    f"{total - len(by_index)} points remain unpublished"
                )
            if timeout is not None and time.monotonic() - start > timeout:
                raise FabricError(
                    f"fabric sweep incomplete after {timeout:.0f}s: "
                    f"{len(by_index)}/{total} points published"
                )
            time.sleep(poll_s)
    finally:
        if crew is not None:
            crew.shutdown()
            sweep.workers_spawned = crew.spawned
            sweep.worker_restarts = crew.restarts

    sweep.outcomes = [by_index[i] for i in range(total)]
    return sweep


def fabric_executor(fabric: Union[str, Path, None], scenario_id: str,
                    **options) -> Callable[..., List[RunOutcome]]:
    """:func:`run_fabric_sweep` with ``options`` as a ``run_sweep``
    executor; it also prints the fabric's one-line summary."""

    def execute(requests, on_outcome=None) -> List[RunOutcome]:
        result = run_fabric_sweep(fabric, scenario_id, requests,
                                  on_outcome=on_outcome, **options)
        print(result.summary())
        return result.outcomes

    return execute
