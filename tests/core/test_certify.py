"""Tests for serialization certificates (repro.core.certify)."""

import pytest
from hypothesis import assume, given, settings

from repro.core.approx import approx_report
from repro.core.certify import (
    CertificationError,
    certify_history,
    reader_certificate,
    update_certificate,
    verify_reader_certificate,
    verify_update_certificate,
)
from repro.core.model import parse_history
from repro.core.serialgraph import is_conflict_serializable
from tests.core.test_properties import histories

EXAMPLE_1 = "r1[IBM] w2[IBM] c2 r3[IBM] r3[Sun] w4[Sun] c4 r1[Sun] c1 c3"


class TestUpdateCertificate:
    def test_witness_verifies(self):
        h = parse_history("w1[x] c1 r2[x] w2[y] c2 r3[y] w3[z] c3")
        order = update_certificate(h)
        assert verify_update_certificate(h, order)

    def test_wrong_order_rejected_by_replay(self):
        h = parse_history("w1[x] c1 r2[x] w2[y] c2")
        assert verify_update_certificate(h, ("t1", "t2"))
        assert not verify_update_certificate(h, ("t2", "t1"))

    def test_wrong_membership_rejected(self):
        h = parse_history("w1[x] c1")
        assert not verify_update_certificate(h, ("t1", "t9"))

    def test_nonserializable_has_no_certificate(self):
        h = parse_history("r1[x] r2[x] w1[x] w2[x] c1 c2")
        with pytest.raises(CertificationError):
            update_certificate(h)

    def test_final_writes_checked(self):
        # both orders reproduce reads-from (no reads), but only one gets
        # the final write of x right
        h = parse_history("w1[x] c1 w2[x] c2")
        assert verify_update_certificate(h, ("t1", "t2"))
        assert not verify_update_certificate(h, ("t2", "t1"))


class TestReaderCertificate:
    def test_example_1_witnesses(self):
        h = parse_history(EXAMPLE_1)
        for reader in ("t1", "t3"):
            order = reader_certificate(h, reader)
            assert order[-1] == reader or reader in order
            assert verify_reader_certificate(h, reader, order)

    def test_readers_see_different_orders(self):
        """The heart of update consistency: each reader's witness is a
        different serial order of the updates."""
        h = parse_history(EXAMPLE_1)
        cert = certify_history(h)
        # t1 depends on t4 only; t3 on t2 only — disjoint live sets
        assert set(cert.reader_orders["t1"]) == {"t1", "t4"}
        assert set(cert.reader_orders["t3"]) == {"t3", "t2"}

    def test_cyclic_reader_has_no_witness(self):
        h = parse_history("r3[x] w1[x] c1 r2[x] w2[y] c2 r3[y] c3")
        with pytest.raises(CertificationError):
            reader_certificate(h, "t3")
        with pytest.raises(CertificationError):
            certify_history(h)

    def test_bad_witness_rejected(self):
        h = parse_history("w1[x] c1 r2[x] c2")
        assert verify_reader_certificate(h, "t2", ("t1", "t2"))
        assert not verify_reader_certificate(h, "t2", ("t2", "t1"))
        assert not verify_reader_certificate(h, "t2", ("t1",))


class TestCertifyHistory:
    def test_bundles_everything(self):
        h = parse_history(EXAMPLE_1)
        cert = certify_history(h)
        assert verify_update_certificate(h, cert.update_order)
        for reader, order in cert.reader_orders.items():
            assert verify_reader_certificate(h, reader, order)


#: six interleaved serializable histories over objects 0..3, one per seed
#: 0-5 of a strict-2PL run of four random read/write programs; in four of
#: them the update transactions interleave, so APPROX and the certifier
#: take the non-serial-log path (``ApproxReport.serial_updates``)
INTERLEAVED_2PL = [
    "r2[2] r3[1] r1[3] w1[0] c3@1 w2[1] c1@2 c2@3 w4[2] c4@4",
    "w4[3] r4[2] r1[0] c4@1 c1@2 r3[3] c3@3 w2[3] w2[1] c2@4",
    "w3[0] w4[3] c3@1 r1[0] c1@2 c4@3 r2[2] c2@4",
    "w4[1] c4@1 r1[1] c1@2 w2[3] w2[2] w3[1] r2[0] c2@3 w3[0] r3[3] c3@4",
    "r1[2] r2[3] c1@1 r2[0] w3[2] r3[0] c2@2 w3[3] c3@3 r4[2] c4@4",
    "w2[0] r4[1] c4@1 w2[1] w1[2] r2[3] c2@2 w1[3] w1[1] c1@3 w3[1] w3[3] c3@4",
]


class TestSerializableHistoriesCertify:
    """A conflict-serializable history always certifies, and the replay
    checker agrees with the certificate it is given."""

    @staticmethod
    def _certifies(history):
        cert = certify_history(history)
        assert verify_update_certificate(history, cert.update_order)
        for reader, order in cert.reader_orders.items():
            assert verify_reader_certificate(history, reader, order)

    @pytest.mark.parametrize(
        "text", INTERLEAVED_2PL, ids=[f"seed{i}" for i in range(len(INTERLEAVED_2PL))]
    )
    def test_pinned_interleavings_certify(self, text):
        history = parse_history(text)
        assert history.to_notation() == text
        assert is_conflict_serializable(history)
        self._certifies(history)

    def test_pinned_interleavings_hold_the_non_serial_side(self):
        serial = [approx_report(parse_history(t)).serial_updates for t in INTERLEAVED_2PL]
        assert serial == [False, True, False, False, True, False]

    @settings(max_examples=150, deadline=None)
    @given(histories())
    def test_serializable_histories_certify(self, history):
        assume(is_conflict_serializable(history))
        self._certifies(history)
