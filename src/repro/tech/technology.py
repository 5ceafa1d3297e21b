"""Technology description: delays, energies, geometry, areas.

A :class:`Technology` instance is the single source of every
process-dependent constant used by the reproduction:

* primitive gate/cell delays (picoseconds) — drive the gate-level models;
* handshake macro-delays (the T* constants of the paper's Section V
  equations) — drive the behavioural models and analytical throughput;
* metal geometry (METAL6 width/gap) — drives the Fig 11 wire-area model;
* module areas (µm²) — drive Tables 1 and 2;
* power coefficients — drive the Figs 12–14 analytical power model and
  scale the activity-based simulation estimate.

The calibrated 0.12 µm instance lives in :mod:`repro.tech.st012`; every
constant there is annotated with whether it is *quoted by the paper* or
*fitted/estimated* (and against which published data point).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Dict


@dataclass(frozen=True)
class GateDelays:
    """Propagation delays of primitive cells, in picoseconds."""

    inv: int = 11
    nand2: int = 20
    nor2: int = 22
    and2: int = 31
    or2: int = 33
    xor2: int = 45
    mux2: int = 40
    #: Muller C-element input-to-output delay
    celement: int = 45
    #: David cell set/reset-to-output delay
    davidcell: int = 50
    #: transparent latch D→Q (latch open)
    latch_dq: int = 50
    #: transparent latch enable→Q
    latch_en: int = 55
    #: edge-triggered flip-flop clock→Q
    dff_clk_q: int = 90
    #: flip-flop setup time
    dff_setup: int = 50

    def scaled(self, factor: float) -> "GateDelays":
        """All delays multiplied by ``factor`` (technology scaling)."""
        return GateDelays(
            **{
                name: max(1, round(getattr(self, name) * factor))
                for name in self.__dataclass_fields__
            }
        )


@dataclass(frozen=True)
class HandshakeTimings:
    """The T* macro-delays of the paper's Section V delay equations.

    All values in picoseconds.  ``t_p_per_segment`` is the wire
    propagation delay of one inter-buffer segment (the paper's worked
    example uses Tp = 0 because its simulation was gate level).
    """

    # shared
    t_p_per_segment: int = 0
    t_nextflit: int = 500

    # per-transfer (I2) constants — Fig 15
    t_reqreq: int = 150
    t_reqack: int = 200
    t_ackack: int = 150
    t_ackout_i2: int = 250
    #: effective control-path delay of one wire-buffer latch controller,
    #: calibrated so the gate-level I2 link's slice cycle matches the
    #: Section V per-transfer equation built from the four constants above
    t_wire_buffer_ctl: int = 212

    # per-word (I3) constants — Fig 16 / worked example
    t_inv: int = 11
    t_validwordack: int = 700
    t_ackout_i3: int = 1400
    t_burst: int = 1100


@dataclass(frozen=True)
class MetalGeometry:
    """Routing-layer geometry for the wire-area model (Fig 11)."""

    #: minimum metal width, µm (paper: METAL6 MetW = 0.44)
    met_w_um: float = 0.44
    #: minimum metal gap, µm (paper: METAL6 MetG = 0.46)
    met_g_um: float = 0.46


@dataclass(frozen=True)
class ModuleAreas:
    """Cell areas of each link module, µm² (Tables 1 and 2)."""

    sync_buffer: float = 3966.0
    sync_to_async: float = 9408.0
    async_to_sync: float = 6710.0
    serializer_i2: float = 869.0
    wire_buffer_i2: float = 294.0
    deserializer_i2: float = 1030.0
    serializer_i3: float = 940.0
    wire_buffer_i3: float = 40.0
    deserializer_i3: float = 1178.0


@dataclass(frozen=True)
class PowerCoefficients:
    """Coefficients of the analytical power model (µW, MHz).

    The model for each component is::

        P = p_static + p_per_mhz * f_clk + usage * p_data_per_mhz * f_clk

    where ``f_clk`` is the switch clock in MHz and ``usage`` the fraction
    of time the link is occupied (the paper reports 50 %).  See
    :mod:`repro.analysis.power` for how components combine into the
    Fig 12–14 results and :mod:`repro.tech.st012` for the calibration.
    """

    # synchronous pipeline buffer stage (32-bit register + clock load)
    sync_buf_static: float = 79.7
    sync_buf_per_mhz: float = 0.600
    sync_buf_data_per_mhz: float = 0.959

    # domain-conversion interfaces (sum of synch→asynch and asynch→synch)
    conv_static: float = 251.5
    conv_per_mhz: float = 1.075
    conv_data_per_mhz: float = 1.420

    # serializer + deserializer, per-transfer flavour (I2)
    serdes_i2_static: float = 88.0
    serdes_i2_data_per_mhz: float = 0.600

    # serializer + deserializer, per-word flavour (I3): shift-register
    # deserializer latches all four registers per slice → more data power
    serdes_i3_static: float = 138.0
    serdes_i3_data_per_mhz: float = 1.000

    # asynchronous wire buffer, per stage
    async_buf_i2_static: float = 8.5
    async_buf_i2_data_per_mhz: float = 0.240
    async_buf_i3_static: float = 1.25
    async_buf_i3_data_per_mhz: float = 0.020

    #: energy scale for the activity-based estimate, fJ per (cap-weighted)
    #: transition; calibrated so the simulated I1 link at 100 MHz / 8
    #: buffers matches the paper's 1498 µW.
    energy_per_transition_fj: float = 1.0


@dataclass(frozen=True)
class Technology:
    """A complete technology description."""

    name: str
    feature_nm: int
    gates: GateDelays = field(default_factory=GateDelays)
    handshake: HandshakeTimings = field(default_factory=HandshakeTimings)
    metal: MetalGeometry = field(default_factory=MetalGeometry)
    areas: ModuleAreas = field(default_factory=ModuleAreas)
    power: PowerCoefficients = field(default_factory=PowerCoefficients)
    #: wire propagation delay per millimetre of routed wire, ps/mm
    wire_delay_ps_per_mm: float = 60.0
    #: notes on where each constant comes from
    provenance: Dict[str, str] = field(default_factory=dict)

    def with_handshake(self, handshake: HandshakeTimings) -> "Technology":
        return replace(self, handshake=handshake)

    def wire_delay_ps(self, length_um: float) -> int:
        """Propagation delay of a wire of ``length_um`` micrometres."""
        if length_um < 0:
            raise ValueError(f"wire length must be non-negative: {length_um}")
        return round(self.wire_delay_ps_per_mm * length_um / 1000.0)
