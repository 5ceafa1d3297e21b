"""Distributed sweep fabric: coordinator-leased grid execution.

The sweep engine's ``--jobs N`` ceiling is one ``multiprocessing.Pool``
on one host.  This package graduates it to a small work-leasing
service built entirely from seams that already existed — picklable
:class:`~repro.runner.engine.RunRequest` values and the append-only
journal with torn-tail recovery:

* :mod:`repro.fabric.transport` — the lease protocol:
  :class:`FileTransport` keeps lease records and published results as
  atomic files in a shared directory;
* :mod:`repro.fabric.worker` — the ``repro worker <dir>`` daemon loop:
  claim a lease, execute the work item through the existing engine
  (batch packing included), append to a per-worker journal segment,
  publish results, repeat.  Taking over an expired lease is the one
  way an item changes hands, and a takeover salvages the dead owner's
  journaled points before it quarantines or executes;
* :mod:`repro.fabric.coordinator` — plans the grid, optionally spawns
  local workers and respawns the ones that die, salvages
  journaled-but-unpublished outcomes when a lease expires, and merges
  everything back into the canonical grid-order artifacts —
  byte-identical to ``repro sweep --jobs 1``.

Failure handling throughout (retry/backoff, publish fencing, point
quarantine, integrity checksums) is exercised deterministically by the
seeded fault schedules in :mod:`repro.chaos` and audited offline by
``repro fsck``.
"""

from .transport import (FabricError, FileTransport, LeaseRecord,
                        worker_identity)
from .worker import WorkerStats, run_worker
from .coordinator import (FabricSweep, fabric_executor, plan_fabric,
                          run_fabric_sweep)

__all__ = [
    "FabricError",
    "FabricSweep",
    "FileTransport",
    "LeaseRecord",
    "WorkerStats",
    "fabric_executor",
    "plan_fabric",
    "run_fabric_sweep",
    "run_worker",
    "worker_identity",
]
