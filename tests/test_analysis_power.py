"""Unit tests for the power models (Figs 12–14)."""

import pytest

from repro.analysis import (
    buffer_sweep,
    link_power_uw,
    measure_link_activity,
    power_breakdown,
    power_saving_percent,
)
from repro.tech import st012


class TestAnalyticalPowerAnchors:
    """Every power number the paper publishes, within 2 %."""

    @pytest.mark.parametrize(
        "kind,n,freq,paper",
        [
            ("I1", 2, 100, 372.0),
            ("I1", 8, 100, 1498.0),
            ("I1", 8, 300, 3229.0),
            ("I2", 2, 100, 589.0),
            ("I2", 8, 100, 712.0),
            ("I3", 2, 100, 623.0),
            ("I3", 8, 100, 637.0),
            ("I3", 8, 300, 1110.0),
        ],
    )
    def test_published_point(self, kind, n, freq, paper):
        value = link_power_uw(st012(), kind, n, freq, usage=0.5)
        assert value == pytest.approx(paper, rel=0.02)

    def test_headline_65_percent_saving(self):
        saving = power_saving_percent(st012())
        assert saving == pytest.approx(65.0, abs=2.0)

    def test_i1_growth_300_percent(self):
        tech = st012()
        growth = (
            link_power_uw(tech, "I1", 8, 100) / link_power_uw(tech, "I1", 2, 100)
        )
        assert growth == pytest.approx(4.0, rel=0.03)  # +300 %

    def test_i2_growth_20_percent(self):
        tech = st012()
        growth = (
            link_power_uw(tech, "I2", 8, 100) / link_power_uw(tech, "I2", 2, 100)
        )
        assert growth == pytest.approx(1.20, abs=0.03)

    def test_i3_growth_2_percent(self):
        tech = st012()
        growth = (
            link_power_uw(tech, "I3", 8, 100) / link_power_uw(tech, "I3", 2, 100)
        )
        assert growth == pytest.approx(1.02, abs=0.01)


class TestPowerShape:
    def test_sync_crossover_at_small_buffer_count(self):
        """With few buffers the synchronous link is cheaper (paper text)."""
        tech = st012()
        assert (link_power_uw(tech, "I1", 2, 100)
                < link_power_uw(tech, "I2", 2, 100))
        assert (link_power_uw(tech, "I1", 8, 100)
                > link_power_uw(tech, "I2", 8, 100))

    def test_sync_power_scales_with_frequency(self):
        tech = st012()
        assert (link_power_uw(tech, "I1", 4, 300)
                > 2 * link_power_uw(tech, "I1", 4, 100))

    def test_usage_increases_power(self):
        tech = st012()
        assert (link_power_uw(tech, "I3", 4, 100, usage=1.0)
                > link_power_uw(tech, "I3", 4, 100, usage=0.25))

    def test_validation(self):
        tech = st012()
        with pytest.raises(ValueError):
            link_power_uw(tech, "I3", 4, 100, usage=1.5)
        with pytest.raises(ValueError):
            link_power_uw(tech, "I3", 0, 100)
        with pytest.raises(ValueError):
            link_power_uw(tech, "I9", 4, 100)


class TestBreakdown:
    def test_fig14_buffer_bars(self):
        tech = st012()
        i2 = power_breakdown(tech, "I2", 4, 100, 0.5)
        i3 = power_breakdown(tech, "I3", 4, 100, 0.5)
        assert i2["Buffers"] == pytest.approx(82.0, rel=0.02)
        assert i3["Buffers"] == pytest.approx(9.0, rel=0.05)

    def test_conversion_dominates_async_links(self):
        tech = st012()
        for kind in ("I2", "I3"):
            bars = power_breakdown(tech, kind, 4, 100, 0.5)
            conv = bars["Asynch Synch Conv."]
            assert conv > bars["Ser/Des"]
            assert conv > bars["Buffers"]

    def test_i3_serdes_exceeds_i2_serdes(self):
        """Shift-register deserializer clocks all registers per slice."""
        tech = st012()
        i2 = power_breakdown(tech, "I2", 4, 100, 0.5)["Ser/Des"]
        i3 = power_breakdown(tech, "I3", 4, 100, 0.5)["Ser/Des"]
        assert i3 > i2

    def test_i1_power_is_all_buffers(self):
        bars = power_breakdown(st012(), "I1", 4, 100, 0.5)
        assert bars["Ser/Des"] == 0.0
        assert bars["Asynch Synch Conv."] == 0.0
        assert bars["Buffers"] > 0

    def test_i2_i3_totals_similar(self):
        """Paper: 'overall power used is similar' at 4 buffers."""
        tech = st012()
        i2 = sum(power_breakdown(tech, "I2", 4, 100, 0.5).values())
        i3 = sum(power_breakdown(tech, "I3", 4, 100, 0.5).values())
        assert i2 == pytest.approx(i3, rel=0.05)


class TestBufferSweep:
    def test_curve_labels(self):
        curves = buffer_sweep(st012(), 100)
        assert set(curves) == {"I1-Synch", "I2-Asynch", "I3-Asynch"}

    def test_points_are_pairs(self):
        curves = buffer_sweep(st012(), 100, buffer_counts=(2, 8))
        assert curves["I1-Synch"][0][0] == 2
        assert curves["I1-Synch"][1][0] == 8


class TestActivityMeasurement:
    """Gate-level shape checks (the non-analytical power path)."""

    def test_i2_buffers_switch_much_more_than_i3(self):
        i2 = measure_link_activity("I2", n_flits=12)
        i3 = measure_link_activity("I3", n_flits=12)
        assert i2.per_flit("buffers") > 3 * i3.per_flit("buffers")

    def test_i1_buffer_activity_grows_with_count(self):
        a2 = measure_link_activity("I1", n_buffers=2, n_flits=12)
        a8 = measure_link_activity("I1", n_buffers=8, n_flits=12)
        assert a8.per_flit("buffers") > 2 * a2.per_flit("buffers")

    def test_async_buffer_activity_flat_with_count(self):
        """I3's repeater activity per flit grows only mildly with
        stations (wire capacitance), unlike I1's register stages."""
        a2 = measure_link_activity("I3", n_buffers=2, n_flits=12)
        a8 = measure_link_activity("I3", n_buffers=8, n_flits=12)
        i1_2 = measure_link_activity("I1", n_buffers=2, n_flits=12)
        i1_8 = measure_link_activity("I1", n_buffers=8, n_flits=12)
        def total_per_flit(report):
            return sum(report.switched_by_group.values()) / report.flits

        i3_growth = total_per_flit(a8) / total_per_flit(a2)
        i1_growth = total_per_flit(i1_8) / total_per_flit(i1_2)
        assert i3_growth < i1_growth

    def test_report_fields(self):
        report = measure_link_activity("I3", n_flits=8)
        assert report.kind == "I3"
        assert report.flits == 8
        assert sum(report.switched_by_group.values()) > 0
        assert set(report.transitions_by_group) == set(
            report.switched_by_group
        )
