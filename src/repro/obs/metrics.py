"""Process-wide metrics registry: counters, gauges, histograms.

One :data:`REGISTRY` instance exists per process, **disabled** by
default.  The contract with the kernels' hot paths is strict: an
instrumentation site may cost at most a single attribute check when
the registry is disabled::

    from ..obs.metrics import REGISTRY as _OBS
    ...
    if _OBS.enabled:            # the whole disabled-path cost
        _OBS.counter("sim.events_executed").inc(executed)

Publishing therefore happens at *coarse* boundaries (the end of a
kernel ``run()``, a compiled ``settle()`` phase, one sweep point) —
never inside per-event or per-cycle loops, which keep their existing
plain-integer counters and hand the registry deltas in bulk.

:func:`enable` flips the flag in place (cached references stay valid)
and exports ``REPRO_TELEMETRY=1`` so spawn-start worker processes,
which re-import this module instead of inheriting the parent's memory,
come up enabled too.  Fork-start workers inherit the flag directly.

Snapshots are deterministic: flat ``{"kind:name": value}`` dicts with
sorted keys, so two identical runs serialize identically and
:func:`snapshot_delta` can subtract monotonic metrics point-to-point.
"""

from __future__ import annotations

import bisect
import os
from contextlib import contextmanager
from typing import Dict, Iterator, List, Sequence, Tuple

#: environment variable that enables the registry at import time (how
#: spawn-start sweep workers inherit the parent's opt-in)
ENV_FLAG = "REPRO_TELEMETRY"

_TRUE = frozenset({"1", "true", "yes", "on"})


class Counter:
    """Monotonically increasing integer total."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0

    def inc(self, n: int = 1) -> None:
        self.value += n


class Gauge:
    """Last-written value (set sizes, depths, occupancies)."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0

    def set(self, value) -> None:
        self.value = value


class Histogram:
    """Fixed-bucket histogram: counts of observations per upper bound.

    ``bounds`` are inclusive upper edges in ascending order; one
    overflow bucket catches everything beyond the last edge.  Bounds
    are fixed at creation — re-requesting the histogram with different
    bounds is an error, which keeps snapshots comparable across the
    whole process lifetime.
    """

    __slots__ = ("bounds", "counts", "count", "total")

    def __init__(self, bounds: Sequence[float]) -> None:
        edges = tuple(bounds)
        if not edges:
            raise ValueError("histogram needs at least one bucket bound")
        if list(edges) != sorted(edges) or len(set(edges)) != len(edges):
            raise ValueError(
                f"histogram bounds must be strictly ascending, got {edges}"
            )
        self.bounds: Tuple[float, ...] = edges
        self.counts: List[int] = [0] * (len(edges) + 1)
        self.count = 0
        self.total = 0.0

    def observe(self, value: float) -> None:
        self.counts[bisect.bisect_left(self.bounds, value)] += 1
        self.count += 1
        self.total += value


class MetricsRegistry:
    """Named metrics of three kinds, keyed once and cached forever.

    ``enabled`` is public and checked by every instrumentation site;
    everything else is get-or-create accessors plus deterministic
    snapshot/reset.
    """

    __slots__ = ("enabled", "_counters", "_gauges", "_hists")

    def __init__(self, enabled: bool = False) -> None:
        self.enabled = enabled
        self._counters: Dict[str, Counter] = {}
        self._gauges: Dict[str, Gauge] = {}
        self._hists: Dict[str, Histogram] = {}

    # ------------------------------------------------------------------
    def counter(self, name: str) -> Counter:
        metric = self._counters.get(name)
        if metric is None:
            metric = self._counters[name] = Counter()
        return metric

    def gauge(self, name: str) -> Gauge:
        metric = self._gauges.get(name)
        if metric is None:
            metric = self._gauges[name] = Gauge()
        return metric

    def histogram(self, name: str,
                  bounds: Sequence[float]) -> Histogram:
        metric = self._hists.get(name)
        if metric is None:
            metric = self._hists[name] = Histogram(bounds)
        elif metric.bounds != tuple(bounds):
            raise ValueError(
                f"histogram {name!r} already exists with bounds "
                f"{metric.bounds}, requested {tuple(bounds)}"
            )
        return metric

    # ------------------------------------------------------------------
    def snapshot(self) -> Dict[str, object]:
        """Flat, deterministic view of every metric.

        Keys are ``counter:<name>``, ``gauge:<name>`` and
        ``hist:<name>`` (``[bounds..., counts...]`` is unambiguous
        because bounds have fixed length ``len(counts) - 1``), sorted
        so serialization is reproducible.
        """
        out: Dict[str, object] = {}
        for name in sorted(self._counters):
            out[f"counter:{name}"] = self._counters[name].value
        for name in sorted(self._gauges):
            out[f"gauge:{name}"] = self._gauges[name].value
        for name in sorted(self._hists):
            h = self._hists[name]
            out[f"hist:{name}"] = [list(h.bounds), list(h.counts)]
        return out

    def counters(self) -> Dict[str, int]:
        """Just the counter totals, by bare name (sorted)."""
        return {
            name: self._counters[name].value
            for name in sorted(self._counters)
        }

    def reset(self) -> None:
        """Drop every metric (the enabled flag is left alone)."""
        self._counters.clear()
        self._gauges.clear()
        self._hists.clear()

    def is_empty(self) -> bool:
        return not (
            self._counters or self._gauges or self._hists
        )


def snapshot_delta(
    before: Dict[str, object], after: Dict[str, object]
) -> Dict[str, object]:
    """What changed between two snapshots of the same registry.

    Counters subtract; gauges and histograms report
    the ``after`` state (a gauge is a level, not a flow).  Metrics
    that did not move are omitted, so a point that never touched a
    subsystem carries no keys for it.
    """
    delta: Dict[str, object] = {}
    for key, value in after.items():
        prev = before.get(key)
        if prev == value:
            continue
        if key.startswith("counter:"):
            delta[key] = value - (prev or 0)
        else:
            delta[key] = value
    return delta


#: the process-wide registry every instrumentation site checks
REGISTRY = MetricsRegistry(
    enabled=os.environ.get(ENV_FLAG, "").strip().lower() in _TRUE
)


def enable() -> None:
    """Turn metrics collection on, for this process and its workers."""
    REGISTRY.enabled = True
    os.environ[ENV_FLAG] = "1"


def disable() -> None:
    REGISTRY.enabled = False
    os.environ.pop(ENV_FLAG, None)


@contextmanager
def collecting(reset: bool = False) -> Iterator[MetricsRegistry]:
    """Enable the registry for one block; restore the prior state after.

    ``reset=True`` clears the registry first so the block observes
    deltas from zero (the bench harness uses this to attribute counter
    deltas to one timing point).  The previous enabled state — not the
    previous contents — is restored on exit.
    """
    prior = REGISTRY.enabled
    if reset:
        REGISTRY.reset()
    REGISTRY.enabled = True
    try:
        yield REGISTRY
    finally:
        REGISTRY.enabled = prior
