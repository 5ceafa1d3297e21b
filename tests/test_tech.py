"""Unit tests for the technology model and 0.12 µm calibration."""

import pytest

from repro.tech import (
    GateDelays,
    HandshakeTimings,
    Technology,
    st012,
)


class TestGateDelays:
    def test_defaults_are_positive(self):
        delays = GateDelays()
        for name in delays.__dataclass_fields__:
            assert getattr(delays, name) > 0

    def test_scaled_multiplies_all(self):
        delays = GateDelays()
        scaled = delays.scaled(2.0)
        assert scaled.inv == 2 * delays.inv
        assert scaled.dff_clk_q == 2 * delays.dff_clk_q

    def test_scaled_floors_at_one(self):
        delays = GateDelays(inv=1)
        assert delays.scaled(0.01).inv == 1

    def test_frozen(self):
        delays = GateDelays()
        with pytest.raises(AttributeError):
            delays.inv = 5  # type: ignore[misc]


class TestMetalGeometry:
    def test_paper_metal6_values(self):
        met = st012().metal
        assert met.met_w_um == pytest.approx(0.44)
        assert met.met_g_um == pytest.approx(0.46)


class TestSt012:
    def test_feature_size(self):
        assert st012().feature_nm == 120

    def test_paper_inverter_delay(self):
        """Tinv = 0.011 ns from the ST CORE9GPLL datasheet."""
        tech = st012()
        assert tech.gates.inv == 11
        assert tech.handshake.t_inv == 11

    def test_paper_i3_handshake_constants(self):
        hs = st012().handshake
        assert hs.t_validwordack == 700
        assert hs.t_ackout_i3 == 1400
        assert hs.t_burst == 1100
        assert hs.t_p_per_segment == 0

    def test_paper_table2_areas(self):
        areas = st012().areas
        assert areas.sync_to_async == 9408.0
        assert areas.serializer_i2 == 869.0
        assert areas.wire_buffer_i2 == 294.0
        assert areas.deserializer_i2 == 1030.0
        assert areas.async_to_sync == 6710.0

    def test_table1_totals_recoverable(self):
        areas = st012().areas
        i2_total = (
            areas.sync_to_async
            + areas.serializer_i2
            + 4 * areas.wire_buffer_i2
            + areas.deserializer_i2
            + areas.async_to_sync
        )
        assert i2_total == pytest.approx(19_193.0)
        i3_total = (
            areas.sync_to_async
            + areas.serializer_i3
            + 4 * areas.wire_buffer_i3
            + areas.deserializer_i3
            + areas.async_to_sync
        )
        assert i3_total == pytest.approx(18_396.0)
        assert 4 * areas.sync_buffer == pytest.approx(15_864.0)

    def test_provenance_is_annotated(self):
        tech = st012()
        assert any("[paper]" in v for v in tech.provenance.values())
        assert any("[fit" in v for v in tech.provenance.values())
        assert any("[est]" in v for v in tech.provenance.values())

    def test_instances_are_independent(self):
        a = st012()
        b = st012()
        assert a is not b
        assert a.areas == b.areas


class TestTechnologyHelpers:
    def test_wire_delay(self):
        tech = st012()
        assert tech.wire_delay_ps(1000.0) == 60  # 60 ps/mm default
        assert tech.wire_delay_ps(0.0) == 0

    def test_wire_delay_rejects_negative(self):
        with pytest.raises(ValueError):
            st012().wire_delay_ps(-1.0)

    def test_with_handshake_replaces(self):
        tech = st012()
        from dataclasses import replace

        fast = tech.with_handshake(replace(tech.handshake, t_burst=550))
        assert fast.handshake.t_burst == 550
        assert tech.handshake.t_burst == 1100

    def test_default_technology_construction(self):
        tech = Technology(name="generic", feature_nm=90)
        assert tech.gates.inv > 0
        assert isinstance(tech.handshake, HandshakeTimings)
