"""Tests for HE op accounting."""

from repro.bfv.counters import (
    BARRETT_INT_MULTS,
    GLOBAL_COUNTERS,
    HARVEY_INT_MULTS,
    OpCounters,
    counting,
)


class TestOpCounters:
    def test_int_mults_formula(self):
        counters = OpCounters(modmuls=10, butterflies=4)
        assert counters.int_mults == 10 * BARRETT_INT_MULTS + 4 * HARVEY_INT_MULTS

    def test_add_ntt_butterflies(self):
        counters = OpCounters()
        counters.add_ntt(1024, count=2)
        assert counters.ntt == 2
        assert counters.butterflies == 2 * 512 * 10

    def test_snapshot_diff(self):
        counters = OpCounters()
        counters.he_mult = 3
        snap = counters.snapshot()
        counters.he_mult = 7
        counters.add_modmuls(5)
        delta = counters.diff(snap)
        assert delta.he_mult == 4
        assert delta.modmuls == 5

    def test_snapshot_is_independent(self):
        counters = OpCounters(he_add=1)
        snap = counters.snapshot()
        counters.he_add = 99
        assert snap.he_add == 1

    def test_reset(self):
        counters = OpCounters(he_mult=5, modmuls=10)
        counters.reset()
        assert counters.he_mult == 0
        assert counters.modmuls == 0


class TestGlobalCounting:
    def test_counting_context(self):
        with counting() as delta:
            GLOBAL_COUNTERS.he_add += 2
        assert delta().he_add == 2
