"""Deterministic chaos engineering for the sweep fabric.

Seeded fault schedules (:mod:`.policy`), deterministic retry/backoff
(:mod:`.retry`), and :class:`ChaosTransport` (:mod:`.transport`), a
fault-injecting decorator over the fabric's
:class:`~repro.fabric.transport.FileTransport`.  Same seed, same
workload ⇒ same injected faults ⇒ same recovered artifacts — failure
handling becomes a replayable, CI-gated property instead of a
rare-event hope.
"""

from .policy import (
    ENV_VAR,
    SEAMS,
    ChaosPolicy,
    ChaosRule,
    ChaosSpecError,
    parse_spec,
    policy_from_env,
)
from .retry import RetryPolicy

__all__ = [
    "ENV_VAR",
    "SEAMS",
    "ChaosPolicy",
    "ChaosRule",
    "ChaosSpecError",
    "ChaosTransport",
    "RetryPolicy",
    "parse_spec",
    "policy_from_env",
]


def __getattr__(name: str):
    # ChaosTransport pulls in repro.fabric; load it lazily so importing
    # repro.chaos from inside the fabric package cannot cycle.
    if name == "ChaosTransport":
        from .transport import ChaosTransport

        return ChaosTransport
    raise AttributeError(name)
