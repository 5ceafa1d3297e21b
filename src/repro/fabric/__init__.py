"""Distributed sweep fabric: coordinator-leased grid execution.

The sweep engine's ``--jobs N`` ceiling is one ``multiprocessing.Pool``
on one host.  This package graduates it to a small work-leasing
service built entirely from seams that already existed — picklable
:class:`~repro.runner.engine.RunRequest` values and the append-only
journal with torn-tail recovery:

* :mod:`repro.fabric.dispatch` — capacity-limited deferred dispatch
  (the ``cs/later.py`` pattern): submit work, at most ``capacity``
  callables run at once, the rest queue FIFO;
* :mod:`repro.fabric.transport` — the lease protocol.  The abstract
  surface is :class:`Transport`; the one implementation is
  :class:`FileTransport`, lease records and published results as
  atomic files in a shared directory (a socket transport can slot in
  behind the same surface later);
* :mod:`repro.fabric.worker` — the ``repro worker <dir>`` daemon loop:
  claim a lease, execute the work item through the existing engine
  (batch packing included), stream a per-worker journal + telemetry
  segment, publish results, repeat;
* :mod:`repro.fabric.coordinator` — plans the grid, seeds the lease
  queue, optionally spawns local workers, monitors heartbeats, breaks
  expired leases so dead workers' points get re-leased, salvages
  journaled-but-unpublished outcomes, and merges everything back into
  the canonical grid-order artifacts — byte-identical to
  ``repro sweep --jobs 1``.

Failure handling throughout (retry/backoff, publish fencing, point
quarantine, integrity checksums) is exercised deterministically by the
seeded fault schedules in :mod:`repro.chaos` and audited offline by
``repro fsck``.
"""

from .dispatch import CapacityDispatcher, Deferred
from .transport import (
    FabricError,
    FileTransport,
    LeaseRecord,
    Transport,
    worker_identity,
)
from .worker import WorkerStats, run_worker
from .coordinator import (FabricSweep, fabric_executor, plan_fabric,
                          run_fabric_sweep)

__all__ = [
    "CapacityDispatcher",
    "Deferred",
    "FabricError",
    "FabricSweep",
    "FileTransport",
    "LeaseRecord",
    "Transport",
    "WorkerStats",
    "fabric_executor",
    "plan_fabric",
    "run_fabric_sweep",
    "run_worker",
    "worker_identity",
]
