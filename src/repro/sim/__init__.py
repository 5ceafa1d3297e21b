"""Discrete-event simulation substrate.

Everything in the reproduction runs on this kernel: gate-level circuit
models, behavioural link models, and the synchronous NoC substrate.

Public surface:

* :class:`Simulator` — integer-picosecond event wheel
* :class:`Signal` / :class:`Bus` — nets with activity counters
* :class:`Process` / :func:`spawn` + wait conditions — coroutine testbenches
* :class:`Clock` — the single slow switch clock of the paper
* :class:`Tracer` / :class:`ActivityMonitor` — waveforms and power inputs
"""

from .kernel import (
    NS,
    PS,
    US,
    SimulationError,
    Simulator,
    mhz_period_ps,
    ns,
)
from .signal import Bus, Signal
from .process import (
    Delay,
    Edge,
    FallingEdge,
    Process,
    RisingEdge,
    WaitValue,
    spawn,
)
from .clock import Clock
from .trace import ActivityMonitor, Tracer
from .vcd import write_vcd

__all__ = [
    "NS",
    "PS",
    "US",
    "SimulationError",
    "Simulator",
    "mhz_period_ps",
    "ns",
    "Bus",
    "Signal",
    "Delay",
    "Edge",
    "FallingEdge",
    "Process",
    "RisingEdge",
    "WaitValue",
    "spawn",
    "Clock",
    "ActivityMonitor",
    "Tracer",
    "write_vcd",
]
