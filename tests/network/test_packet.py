"""Unit tests for packet representation."""

import pytest

from repro.network import Packet, PacketKind


def test_packet_fields():
    p = Packet(src=0, dst=1, kind=PacketKind.BARRIER, size_bytes=16, payload=7)
    assert p.src == 0 and p.dst == 1
    assert p.payload == 7
    assert p.latency is None


def test_unknown_kind_rejected():
    with pytest.raises(ValueError):
        Packet(0, 1, "mystery", 8)


def test_negative_size_rejected():
    with pytest.raises(ValueError):
        Packet(0, 1, PacketKind.ACK, -1)


def test_latency_computed_after_delivery():
    p = Packet(0, 1, PacketKind.DATA, 8)
    p.sent_at = 10.0
    p.delivered_at = 12.5
    assert p.latency == pytest.approx(2.5)


def test_all_kinds_constructible():
    for kind in PacketKind.ALL:
        Packet(0, 1, kind, 8)
