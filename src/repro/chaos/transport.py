"""A fault-injecting decorator over :class:`FileTransport`.

Wrap a :class:`~repro.fabric.transport.FileTransport` and a
:class:`~repro.chaos.policy.ChaosPolicy`; every call at a named seam
first consults the policy and may raise an injected ``OSError``,
stall, lose a claim race, report a lost lease, tear a result write, or
publish a duplicate — then (unless the fault preempts it) delegates to
the inner transport.  Calls without a seam pass straight through.  The
wrapper changes *when* calls fail, never *what* a successful call
does, so everything the fabric recovers to under chaos is still
protocol-legal.
"""

from __future__ import annotations

import json
import time
from typing import Dict, Optional

from ..fabric.transport import FileTransport, LeaseRecord
from .policy import ChaosPolicy, ChaosRule


class ChaosTransport:
    """Inject policy-scheduled faults in front of ``inner``."""

    def __init__(self, inner: FileTransport, policy: ChaosPolicy) -> None:
        self.inner = inner
        self.policy = policy

    def __getattr__(self, name: str):
        # everything without a fault seam (leases, salvage,
        # result_indices, worker_dir, root, ...) is the inner call
        return getattr(self.inner, name)

    # ------------------------------------------------------------------
    def _consult(self, seam: str) -> Optional[ChaosRule]:
        rule = self.policy.fire(seam)
        if rule is None:
            return None
        if rule.fault == "stall":
            time.sleep(rule.arg or 0.0)
            return None
        if rule.fault == "io":
            raise OSError(
                f"chaos[{seam}]: injected transient IOError "
                f"(hit {self.policy.hits(seam)})"
            )
        return rule

    # -- plan ----------------------------------------------------------
    def read_plan(self) -> Optional[Dict[str, object]]:
        self._consult("transport.read_plan")
        return self.inner.read_plan()

    # -- leases --------------------------------------------------------
    def try_claim(self, item: str, owner: str,
                  ttl: float) -> Optional[LeaseRecord]:
        rule = self._consult("transport.claim")
        if rule is not None and rule.fault == "race":
            return None  # somebody else "won" this claim
        return self.inner.try_claim(item, owner, ttl)

    def renew(self, item: str, owner: str, ttl: float) -> bool:
        rule = self._consult("transport.renew")
        if rule is not None and rule.fault == "fail":
            return False  # lease "taken over" under us
        return self.inner.renew(item, owner, ttl)

    def release(self, item: str, owner: str) -> None:
        self._consult("transport.release")
        self.inner.release(item, owner)

    # -- results -------------------------------------------------------
    def publish_result(self, index: int,
                       record: Dict[str, object]) -> bool:
        rule = self._consult("transport.publish")
        if rule is not None and rule.fault == "torn":
            self._tear(index, record)
            raise OSError(
                f"chaos[transport.publish]: write torn mid-record "
                f"for index {index}"
            )
        if rule is not None and rule.fault == "dup":
            first = self.inner.publish_result(index, record)
            self.inner.publish_result(index, record)
            return first
        return self.inner.publish_result(index, record)

    def _tear(self, index: int, record: Dict[str, object]) -> None:
        """Leave half a record at the result path, non-atomically."""
        path = self.inner._result_path(index)
        path.parent.mkdir(parents=True, exist_ok=True)
        payload = json.dumps(record, sort_keys=True)
        path.write_text(payload[: max(4, len(payload) // 2)],
                        encoding="utf-8")

    def read_result(self, index: int) -> Optional[Dict[str, object]]:
        self._consult("transport.read_result")
        return self.inner.read_result(index)
