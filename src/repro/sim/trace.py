"""Waveform tracing and activity accounting.

Two consumers need visibility into simulated nets:

* debugging — :class:`Tracer` records (time, value) pairs per signal and
  renders a compact ASCII waveform, enough to eyeball a handshake;
* the power model — :class:`ActivityMonitor` snapshots transition counts
  over a measurement window and reports per-group switched energy.

Signals are grouped by the module that created them (each link module
registers its nets under its own group name), which is what lets the
Fig 14 power-breakdown experiment split consumption by component.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Sequence

from .signal import Signal


class Tracer:
    """Records value changes on selected signals for later inspection."""

    def __init__(self) -> None:
        self.signals: list[Signal] = []

    def watch(self, *items: object) -> None:
        """Start tracing the given :class:`Signal`/:class:`Bus` objects.

        Duck-typed on the bus/signal shape (a bus carries ``signals``, a
        signal carries ``enable_trace``) so nets from the frozen seed
        kernel (:mod:`repro.sim.reference`) trace identically.
        """
        for item in items:
            bits = getattr(item, "signals", None)
            if bits is not None:
                for sig in bits:
                    sig.enable_trace()
                    self.signals.append(sig)
            elif hasattr(item, "enable_trace"):
                item.enable_trace()
                self.signals.append(item)
            else:
                raise TypeError(f"cannot trace {item!r}")

    def history(self, signal: Signal) -> List[tuple[int, int]]:
        """The (time_ps, value) change list of a watched signal."""
        if signal.trace is None:
            raise ValueError(f"{signal.name} is not being traced")
        return list(signal.trace)

    def render(self, until_ps: int, step_ps: int = 100) -> str:
        """ASCII waveform of all watched signals up to ``until_ps``."""
        lines = []
        width = max((len(s.name) for s in self.signals), default=4)
        for sig in self.signals:
            samples = _sample(sig.trace or [], until_ps, step_ps)
            wave = "".join("▔" if v else "▁" for v in samples)
            lines.append(f"{sig.name:>{width}} {wave}")
        return "\n".join(lines)


def _sample(trace: Sequence[tuple[int, int]], until: int, step: int) -> List[int]:
    samples = []
    value = trace[0][1] if trace else 0
    idx = 0
    for t in range(0, until, step):
        while idx < len(trace) and trace[idx][0] <= t:
            value = trace[idx][1]
            idx += 1
        samples.append(value)
    return samples


class ActivityMonitor:
    """Transition/energy accounting over named groups of signals.

    Groups mirror the paper's Fig 14 component split: a link assembly
    registers its nets under e.g. ``"sync_to_async"``, ``"serializer"``,
    ``"buffers"``, ``"deserializer"``, ``"async_to_sync"``.
    """

    def __init__(self) -> None:
        self._groups: Dict[str, list[Signal]] = {}
        self._baseline: Dict[int, int] = {}

    def add(self, group: str, *items: object) -> None:
        """Register signals/buses under ``group`` (duck-typed like
        :meth:`Tracer.watch`, so reference-kernel nets monitor too)."""
        bucket = self._groups.setdefault(group, [])
        for item in items:
            bits = getattr(item, "signals", None)
            if bits is not None:
                bucket.extend(bits)
            elif hasattr(item, "enable_trace"):
                bucket.append(item)
            elif isinstance(item, Iterable):
                for sub in item:
                    self.add(group, sub)
            else:
                raise TypeError(f"cannot monitor {item!r}")

    @property
    def groups(self) -> List[str]:
        return list(self._groups)

    # ------------------------------------------------------------------
    def snapshot(self) -> None:
        """Mark the start of a measurement window."""
        self._baseline = {
            id(sig): sig.transitions
            for bucket in self._groups.values()
            for sig in bucket
        }

    def transitions(self, group: Optional[str] = None) -> int:
        """Transitions since :meth:`snapshot` (all groups if None)."""
        total = 0
        buckets = (
            [self._groups[group]] if group is not None else self._groups.values()
        )
        for bucket in buckets:
            for sig in bucket:
                total += sig.transitions - self._baseline.get(id(sig), 0)
        return total

    def switched_energy_fj(self, group: Optional[str] = None,
                           energy_per_transition_fj: float = 1.0) -> float:
        """Capacitance-weighted switched energy since the snapshot.

        Each signal contributes ``transitions * cap_ff *
        energy_per_transition_fj`` — the per-transition scale comes from
        the technology model, ``cap_ff`` from the net's relative weight.
        """
        total = 0.0
        buckets = (
            [self._groups[group]] if group is not None else self._groups.values()
        )
        for bucket in buckets:
            for sig in bucket:
                delta = sig.transitions - self._baseline.get(id(sig), 0)
                total += delta * sig.cap_ff * energy_per_transition_fj
        return total
