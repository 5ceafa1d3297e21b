"""Calibrated STMicroelectronics 0.12 µm technology instance.

Every constant below is tagged with its provenance:

``[paper]``
    quoted directly in Ogg et al., DATE 2008.
``[fit:<target>]``
    fitted so that the analytical model reproduces the cited published
    data point(s).
``[est]``
    estimate consistent with the paper's qualitative statements; the
    published totals constrain the *sum* but not the split.

Calibration chain (each step's arithmetic is given inline; the fitted
literals below are its rounded results):

* Fig 12 gives the I1 power at 100 MHz for 2 and 8 buffers
  (372 / 1498 µW) → per-stage power at 100 MHz = 187.7 µW, negligible
  fixed offset.
* Fig 13 gives I1 at 300 MHz / 8 buffers (3229 µW) → per-stage 403.6 µW
  → linear-in-f fit: stage = 79.7 + 1.0797·f(µW, MHz) at 50 % usage;
  split 0.600·f clock + 0.5·0.959·f data + 79.7 static.
* Fig 12 I2 (589→712 µW) → 20.5 µW per async buffer (matches Fig 14's
  82 µW for 4 buffers) and 548 µW base; I3 (623→637 µW) → 2.33 µW per
  buffer (matches Fig 14's 9 µW) and 618 µW base.
* Fig 13 I3 at 300 MHz / 8 buffers (1110 µW) → the frequency-dependent
  part of the conversion interfaces = 2.365 µW/MHz.
* Table 2 fixes the I2 module areas exactly; Table 1 totals fix the
  synchronous buffer area (15864/4 = 3966 µm²) and the *sum* of the I3
  serializer/buffer/deserializer areas (18396 − 9408 − 6710 = 2278 µm²).
"""

from __future__ import annotations

from .technology import (
    GateDelays,
    HandshakeTimings,
    MetalGeometry,
    ModuleAreas,
    PowerCoefficients,
    Technology,
)

_PROVENANCE = {
    "gates.inv": "[paper] Tinv = 0.011 ns from the ST 0.12 CORE9GPLL datasheet",
    "gates.*": "[est] typical CORE9GPLL-class delays, chosen so the "
    "gate-level I3 link lands on the Section V worked-example cycle time",
    "handshake.t_validwordack": "[paper] ~0.7 ns from simulation",
    "handshake.t_ackout_i3": "[paper] ~1.4 ns from simulation",
    "handshake.t_burst": "[paper] ~1.1 ns from simulation",
    "handshake.t_p_per_segment": "[paper] Tp = 0 (gate-level simulation)",
    "handshake.i2": "[est] per-transfer constants sized from C-element/"
    "latch-controller delays; the paper gives the equation but no values",
    "metal": "[paper] METAL6 MetW = 0.44 µm, MetG = 0.46 µm",
    "areas.sync_buffer": "[fit:Table1] 15864 µm² / 4 buffers",
    "areas.i2_modules": "[paper] Table 2",
    "areas.i3_modules": "[est] split of the Table 1 I3 remainder "
    "(2278 µm²) across serializer/buffers/deserializer",
    "power.sync": "[fit:Fig12+Fig13] I1 points 372/1498/3229 µW",
    "power.conv": "[fit:Fig12+Fig13+Fig14] base power of I2/I3 minus "
    "ser/des estimate; f-slope from I3 1110 µW at 300 MHz",
    "power.serdes": "[est] split constrained by Fig 14 (conversion "
    "dominates; I3 shift-register deserializer > I2 mux deserializer)",
    "power.async_buf": "[fit:Fig12+Fig14] I2 20.5 µW/buffer (82 µW @ 4), "
    "I3 2.3 µW/buffer (9 µW @ 4)",
}


def st012() -> Technology:
    """The calibrated 0.12 µm technology used throughout the repo."""
    return Technology(
        name="ST 0.12um CORE9GPLL (calibrated)",
        feature_nm=120,
        gates=GateDelays(
            inv=11,
            nand2=20,
            nor2=22,
            and2=31,
            or2=33,
            xor2=45,
            mux2=40,
            celement=45,
            davidcell=50,
            latch_dq=50,
            latch_en=55,
            dff_clk_q=90,
            dff_setup=50,
        ),
        handshake=HandshakeTimings(
            t_p_per_segment=0,
            t_nextflit=500,
            t_reqreq=150,
            t_reqack=200,
            t_ackack=150,
            t_ackout_i2=250,
            t_wire_buffer_ctl=212,
            t_inv=11,
            t_validwordack=700,
            t_ackout_i3=1400,
            t_burst=1100,
        ),
        metal=MetalGeometry(met_w_um=0.44, met_g_um=0.46),
        areas=ModuleAreas(
            sync_buffer=3966.0,
            sync_to_async=9408.0,
            async_to_sync=6710.0,
            serializer_i2=869.0,
            wire_buffer_i2=294.0,
            deserializer_i2=1030.0,
            serializer_i3=940.0,
            wire_buffer_i3=40.0,
            deserializer_i3=1178.0,
        ),
        power=PowerCoefficients(
            sync_buf_static=79.7,
            sync_buf_per_mhz=0.600,
            sync_buf_data_per_mhz=0.959,
            conv_static=251.5,
            conv_per_mhz=1.075,
            conv_data_per_mhz=1.420,
            serdes_i2_static=88.0,
            serdes_i2_data_per_mhz=0.600,
            serdes_i3_static=138.0,
            serdes_i3_data_per_mhz=1.000,
            async_buf_i2_static=8.5,
            async_buf_i2_data_per_mhz=0.240,
            async_buf_i3_static=1.25,
            async_buf_i3_data_per_mhz=0.020,
            energy_per_transition_fj=1.0,
        ),
        wire_delay_ps_per_mm=60.0,
        provenance=dict(_PROVENANCE),
    )
