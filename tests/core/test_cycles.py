"""Tests for cycle/timestamp arithmetic (repro.core.cycles)."""

import numpy as np
import pytest

from repro.core.cycles import ModuloCycles, UnboundedCycles


class TestUnbounded:
    def test_encode_identity(self):
        arith = UnboundedCycles()
        assert arith.encode(12345) == 12345

    def test_encode_array_copies(self):
        # the server freezes encode_array's result read-only and shares it
        # across cycles, so it must never alias the live control state —
        # under either arithmetic, including values the encoding leaves alone
        for arith in (UnboundedCycles(), ModuloCycles(4)):
            src = np.array([1, 2, 3], dtype=np.int64)
            out = arith.encode_array(src)
            assert not np.shares_memory(out, src)
            out[0] = 99
            assert src[0] == 1


class TestModulo:
    def test_window(self):
        assert ModuloCycles(8).window == 256
        assert ModuloCycles(4).window == 16

    def test_encode_wraps(self):
        arith = ModuloCycles(4)
        assert arith.encode(16) == 0
        assert arith.encode(17) == 1

    def test_encode_array_wraps(self):
        arith = ModuloCycles(4)
        out = arith.encode_array(np.array([15, 16, 33]))
        assert list(out) == [15, 0, 1]
        # elementwise ``encode`` is the oracle, on values straddling
        # multiples of the window (int64, as the control state stores them)
        for bits in (2, 4, 8):
            arith = ModuloCycles(bits)
            cycles = [0] + [
                arith.window * k + d for k in (1, 2, 3, 1000, 2**40) for d in (-1, 0, 1)
            ]
            out = arith.encode_array(np.array(cycles, dtype=np.int64))
            assert out.dtype == np.int64
            assert out.tolist() == [arith.encode(c) for c in cycles]

    def test_agrees_with_unbounded_within_window(self):
        arith = ModuloCycles(4)  # window 16
        plain = UnboundedCycles()
        reference = 100
        for a in range(reference - 15, reference + 1):
            for b in range(reference - 15, reference + 1):
                assert arith.less_encoded_absolute(
                    arith.encode(a), b, reference=reference
                ) == plain.less_encoded_absolute(a, b, reference=reference), (a, b)

    def test_wraparound_comparison(self):
        # absolute cycles 250 and 258 with window 256: 258 travels as 2
        arith = ModuloCycles(8)
        now = 258
        assert arith.less_encoded_absolute(arith.encode(250), 258, reference=now)
        assert not arith.less_encoded_absolute(arith.encode(258), 250, reference=now)

    def test_anchor_is_most_recent(self):
        # a residue decodes to the most recent cycle <= reference with it:
        # at reference 18, residue 3 is cycle 3 (19 is ahead), residue 2
        # is cycle 18
        arith = ModuloCycles(4)
        assert arith.less_encoded_absolute(3, 4, reference=18)
        assert not arith.less_encoded_absolute(3, 3, reference=18)
        assert arith.less_encoded_absolute(2, 19, reference=18)
        assert not arith.less_encoded_absolute(2, 18, reference=18)


class TestLessEncodedAbsolute:
    """Wire entry vs. an absolute cycle the client holds.

    The hypothesis oracle: throughout the paper's legal regime — the
    control entry committed within one window of the reference cycle —
    the modulo comparison must agree exactly with unbounded arithmetic
    on the underlying absolute cycles, including at the doze boundary.
    """

    def test_unbounded_is_plain_comparison(self):
        arith = UnboundedCycles()
        assert arith.less_encoded_absolute(3, 7, reference=100)
        assert not arith.less_encoded_absolute(7, 3, reference=100)

    def test_exhaustive_small_window(self):
        arith = ModuloCycles(3)  # window 8
        for reference in range(8, 40):
            for entry in range(reference - 7, reference + 1):
                for cycle in range(0, reference + 9):
                    assert arith.less_encoded_absolute(
                        arith.encode(entry), cycle, reference=reference
                    ) == (entry < cycle), (entry, cycle, reference)

    def test_wrap_gap_entry_stays_conservative(self):
        # an entry exactly one window old must not alias forward: the
        # old re-anchoring of *both* operands accepted reads here
        arith = ModuloCycles(3)  # window 8
        reference = 100
        entry = reference - 8  # outside the legal regime by one cycle
        # anchored to `reference` the residue looks like cycle 100, so
        # the comparison is conservative (False), never a false accept
        assert not arith.less_encoded_absolute(
            arith.encode(entry), entry + 1, reference=reference
        )

    def test_doze_boundary_still_sound(self):
        # a client that dozed window-1 cycles: its first read's cycle is
        # the oldest absolute it compares; entries within the window
        # still order correctly against it
        arith = ModuloCycles(4)  # window 16
        reference = 200
        first_read = reference - 15
        for entry in range(reference - 15, reference + 1):
            assert arith.less_encoded_absolute(
                arith.encode(entry), first_read, reference=reference
            ) == (entry < first_read)


class TestModuloOracleProperty:
    def test_matches_unbounded_across_legal_regime(self):
        from hypothesis import given, settings, strategies as st

        @settings(max_examples=300, deadline=None)
        @given(st.data())
        def run(data):
            bits = data.draw(st.integers(1, 10))
            arith = ModuloCycles(bits)
            plain = UnboundedCycles(bits)
            window = arith.window
            reference = data.draw(st.integers(0, 4 * window + 100))
            # the legal regime: entries commit within one window of the
            # snapshot that carries them
            entry = reference - data.draw(st.integers(0, min(window - 1, reference)))
            cycle = data.draw(st.integers(0, reference + window))
            assert arith.less_encoded_absolute(
                arith.encode(entry), cycle, reference=reference
            ) == plain.less_encoded_absolute(entry, cycle, reference=reference)
            assert plain.less_encoded_absolute(
                entry, cycle, reference=reference
            ) == (entry < cycle)

        run()
