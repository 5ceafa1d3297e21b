"""Deterministic fault schedules keyed by named seams.

A :class:`ChaosPolicy` is a seeded, replayable description of *which*
faults fire *where*.  Durability seams (transport calls, the worker item
loop, journal appends) consult the policy by name; the policy answers
with a fault directive or ``None``.  Because every seam draws from its
own ``random.Random(f"{seed}:{seam}")`` stream and keeps its own hit
counter, the schedule depends only on the seed and on how many times
each seam fires — never on wall clock, thread timing, or what the other
seams did.  Running the same workload under the same spec therefore
injects the same faults, which is what makes whole coordinator+worker
chaos runs replayable.

Spec grammar (also accepted via the ``REPRO_CHAOS`` environment
variable)::

    <seed>:<directive>[,<directive>...]
    directive := <seam>=<fault>[:<arg>][@<prob> | #<nth>]

Examples::

    7:transport.claim=race@0.2
    7:worker.item=die#3,journal.append=corrupt#2
    11:transport.renew=fail#2,transport.publish=torn#1

``@p`` fires independently with probability ``p`` on every hit of the
seam; ``#n`` fires on exactly the nth hit.  With neither, the fault
fires on every hit.
"""

from __future__ import annotations

import random
import threading
from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Tuple

from ..obs.metrics import REGISTRY

ENV_VAR = "REPRO_CHAOS"

#: Seams a spec may target, and the faults each one understands.  The
#: table is the contract between the spec grammar and the injection
#: sites in ``fabric/`` — an unknown seam or an unsupported fault is a
#: spec error, not a silent no-op.
SEAMS: Mapping[str, frozenset] = {
    "transport.read_plan": frozenset({"io", "stall"}),
    "transport.claim": frozenset({"io", "stall", "race"}),
    "transport.renew": frozenset({"io", "stall", "fail"}),
    "transport.release": frozenset({"io", "stall"}),
    "transport.publish": frozenset({"io", "stall", "torn", "dup"}),
    "transport.read_result": frozenset({"io", "stall"}),
    "worker.item": frozenset({"die", "hang"}),
    "journal.append": frozenset({"corrupt"}),
}

#: Faults whose ``arg`` is a duration in seconds (and its default).
_TIMED_FAULTS = {"stall": 0.05, "hang": 1.0}


class ChaosSpecError(ValueError):
    """Raised for a malformed or out-of-contract chaos spec."""


@dataclass(frozen=True)
class ChaosRule:
    """One parsed directive: inject ``fault`` at ``seam``."""

    seam: str
    fault: str
    arg: Optional[float] = None
    prob: Optional[float] = None
    nth: Optional[int] = None

    def describe(self) -> str:
        text = f"{self.seam}={self.fault}"
        if self.arg is not None:
            text += f":{self.arg:g}"
        if self.prob is not None:
            text += f"@{self.prob:g}"
        if self.nth is not None:
            text += f"#{self.nth}"
        return text


def _parse_directive(text: str) -> ChaosRule:
    if "=" not in text:
        raise ChaosSpecError(f"directive {text!r} is not <seam>=<fault>")
    seam, _, rhs = text.partition("=")
    seam = seam.strip()
    if seam not in SEAMS:
        known = ", ".join(sorted(SEAMS))
        raise ChaosSpecError(f"unknown seam {seam!r} (known: {known})")
    prob: Optional[float] = None
    nth: Optional[int] = None
    if "@" in rhs:
        rhs, _, tail = rhs.partition("@")
        try:
            prob = float(tail)
        except ValueError:
            raise ChaosSpecError(f"bad probability {tail!r} in {text!r}") from None
        if not 0.0 < prob <= 1.0:
            raise ChaosSpecError(f"probability {prob} outside (0, 1] in {text!r}")
    elif "#" in rhs:
        rhs, _, tail = rhs.partition("#")
        try:
            nth = int(tail)
        except ValueError:
            raise ChaosSpecError(f"bad hit index {tail!r} in {text!r}") from None
        if nth < 1:
            raise ChaosSpecError(f"hit index must be >= 1 in {text!r}")
    fault, _, argtext = rhs.partition(":")
    fault = fault.strip()
    if fault not in SEAMS[seam]:
        allowed = ", ".join(sorted(SEAMS[seam]))
        raise ChaosSpecError(
            f"seam {seam!r} does not support fault {fault!r} (allowed: {allowed})"
        )
    arg: Optional[float] = None
    if argtext:
        try:
            arg = float(argtext)
        except ValueError:
            raise ChaosSpecError(f"bad argument {argtext!r} in {text!r}") from None
        if arg < 0:
            raise ChaosSpecError(f"argument must be >= 0 in {text!r}")
    elif fault in _TIMED_FAULTS:
        arg = _TIMED_FAULTS[fault]
    return ChaosRule(seam=seam, fault=fault, arg=arg, prob=prob, nth=nth)


def parse_spec(spec: str) -> "ChaosPolicy":
    """Parse ``<seed>:<directive>[,...]`` into a :class:`ChaosPolicy`."""

    if ":" not in spec:
        raise ChaosSpecError(f"spec {spec!r} is not <seed>:<directives>")
    head, _, body = spec.partition(":")
    try:
        seed = int(head)
    except ValueError:
        raise ChaosSpecError(f"bad seed {head!r} in {spec!r}") from None
    rules = [_parse_directive(part) for part in body.split(",") if part.strip()]
    if not rules:
        raise ChaosSpecError(f"spec {spec!r} has no directives")
    return ChaosPolicy(seed=seed, rules=rules)


def policy_from_env(environ: Mapping[str, str]) -> Optional["ChaosPolicy"]:
    """Build a policy from ``REPRO_CHAOS`` if set, else ``None``."""

    spec = environ.get(ENV_VAR, "").strip()
    if not spec:
        return None
    return parse_spec(spec)


@dataclass
class ChaosPolicy:
    """A seeded fault schedule consulted by name at each seam.

    ``fire(seam)`` counts the hit and returns the first matching rule
    that triggers on it, or ``None``.  Thread-safe: worker code consults
    seams from both the item loop and the lease-renewal thread.
    """

    seed: int
    rules: List[ChaosRule]
    _hits: Dict[str, int] = field(default_factory=dict, repr=False)
    _rng: Dict[str, random.Random] = field(default_factory=dict, repr=False)
    _lock: threading.Lock = field(default_factory=threading.Lock, repr=False)
    #: (seam, fault, hit_index) log of every injected fault, in order.
    injected: List[Tuple[str, str, int]] = field(default_factory=list)

    def _seam_rng(self, seam: str) -> random.Random:
        rng = self._rng.get(seam)
        if rng is None:
            # str seeding hashes via sha512 — stable across processes
            # and PYTHONHASHSEED, unlike hash().
            rng = self._rng[seam] = random.Random(f"{self.seed}:{seam}")
        return rng

    def fire(self, seam: str) -> Optional[ChaosRule]:
        with self._lock:
            hit = self._hits.get(seam, 0) + 1
            self._hits[seam] = hit
            chosen: Optional[ChaosRule] = None
            for rule in self.rules:
                if rule.seam != seam:
                    continue
                if rule.nth is not None:
                    triggered = hit == rule.nth
                elif rule.prob is not None:
                    # Draw exactly once per hit per probabilistic rule so
                    # the stream position depends only on the hit count.
                    triggered = self._seam_rng(seam).random() < rule.prob
                else:
                    triggered = True
                if triggered and chosen is None:
                    chosen = rule
            if chosen is not None:
                self.injected.append((seam, chosen.fault, hit))
        if chosen is not None and REGISTRY.enabled:
            REGISTRY.counter("chaos.injected").inc()
            REGISTRY.counter(f"chaos.injected.{chosen.fault}").inc()
        return chosen

    def hits(self, seam: str) -> int:
        with self._lock:
            return self._hits.get(seam, 0)

    def describe(self) -> str:
        return f"{self.seed}:" + ",".join(rule.describe() for rule in self.rules)
