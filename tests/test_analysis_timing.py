"""Unit tests for the Section V delay equations."""

import pytest

from repro.analysis import per_transfer_cycle_delay, per_word_cycle_delay
from repro.tech import HandshakeTimings, st012


class TestPerWordEquation:
    def test_paper_worked_example(self):
        """Tp=0, Tinv=0.011, Tburst=1.1, Tvwa=0.7, Tao=1.4 →
        D = 8·0.011 + 0.7 + 1.4 + 1.1 = 3.288 ns (paper prints 3.21)."""
        est = per_word_cycle_delay(st012().handshake)
        assert est.cycle_delay_ns == pytest.approx(3.288, abs=0.001)
        assert est.mflits == pytest.approx(304.1, rel=0.001)

    def test_matches_published_value_within_3_percent(self):
        est = per_word_cycle_delay(st012().handshake)
        assert est.cycle_delay_ns == pytest.approx(3.21, rel=0.03)
        assert est.mflits == pytest.approx(311.0, rel=0.03)

    def test_segment_count_generalizes(self):
        """k buffers → 2(k+1) Tp terms; k=4 recovers the paper's 10."""
        timings = HandshakeTimings(t_p_per_segment=100, t_inv=0,
                                   t_validwordack=0, t_ackout_i3=0, t_burst=0)
        est = per_word_cycle_delay(timings, n_buffers=4)
        assert est.cycle_delay_ps == 10 * 100

    def test_inverter_count_generalizes(self):
        """k stations × 2 inverters; k=4 recovers the paper's 8 Tinv."""
        timings = HandshakeTimings(t_p_per_segment=0, t_inv=11,
                                   t_validwordack=0, t_ackout_i3=0, t_burst=0)
        est = per_word_cycle_delay(timings, n_buffers=4)
        assert est.cycle_delay_ps == 8 * 11

    def test_wire_delay_hurts_once_per_word(self):
        base = per_word_cycle_delay(st012().handshake)
        slow = per_word_cycle_delay(
            HandshakeTimings(t_p_per_segment=100), n_buffers=4
        )
        fast = per_word_cycle_delay(
            HandshakeTimings(t_p_per_segment=0), n_buffers=4
        )
        assert slow.cycle_delay_ps - fast.cycle_delay_ps == 1000
        assert base.mflits > 0

    def test_input_validation(self):
        with pytest.raises(ValueError):
            per_word_cycle_delay(st012().handshake, n_slices=0)


class TestPerTransferEquation:
    def test_default_constants(self):
        """4 slices × (Treqreq+Treqack+Tackack+Tackout) + Tnextflit."""
        est = per_transfer_cycle_delay(st012().handshake)
        assert est.cycle_delay_ps == 4 * (150 + 200 + 150 + 250) + 500
        assert est.mflits == pytest.approx(285.7, rel=0.001)

    def test_wire_delay_hurts_once_per_slice(self):
        slow = per_transfer_cycle_delay(
            HandshakeTimings(t_p_per_segment=100), n_slices=4, n_buffers=4
        )
        fast = per_transfer_cycle_delay(
            HandshakeTimings(t_p_per_segment=0), n_slices=4, n_buffers=4
        )
        # 4 slices × 4 segments × 100 ps
        assert slow.cycle_delay_ps - fast.cycle_delay_ps == 1600

    def test_more_slices_cost_linearly(self):
        t = st012().handshake
        d4 = per_transfer_cycle_delay(t, n_slices=4).cycle_delay_ps
        d8 = per_transfer_cycle_delay(t, n_slices=8).cycle_delay_ps
        per_slice = 150 + 200 + 150 + 250
        assert d8 - d4 == 4 * per_slice

    def test_input_validation(self):
        with pytest.raises(ValueError):
            per_transfer_cycle_delay(st012().handshake, n_buffers=0)


class TestCrossoverProperties:
    def test_per_word_beats_per_transfer_with_long_wires(self):
        """Section IV motivation: per-transfer acks pay the wire four
        times per word, word-level acks only twice in total."""
        timings = HandshakeTimings(t_p_per_segment=500)
        i2 = per_transfer_cycle_delay(timings)
        i3 = per_word_cycle_delay(timings)
        assert i3.mflits > i2.mflits

    def test_per_word_beats_per_transfer_at_default_constants(self):
        t = st012().handshake
        assert (per_word_cycle_delay(t).mflits
                > per_transfer_cycle_delay(t).mflits)

