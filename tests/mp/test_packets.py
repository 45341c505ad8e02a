"""The packet header codec the sock channel frames with: a packet written by
one endpoint and read by its peer comes back field for field."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.mp.channels.sock import LEAD, SockChannel, ring_mapping
from repro.mp.packets import CTS, DATA, EAGER, FIN, RTS, Packet
from repro.simtime import CostModel, VirtualClock

FIELDS = ("ptype", "src", "dst", "tag", "comm_id", "op_id", "offset", "total", "sync", "ts",
          "seq", "crc")


def _cross(pkt: Packet) -> Packet:
    """``pkt`` sent by rank 0 to rank 1 (its ``dst``) over one ring; the
    packet rank 1 reads, after checking the frame's length."""
    mapping = ring_mapping(2, 4096)
    c0, c1 = (SockChannel(r, VirtualClock(), CostModel(), mapping, 2) for r in range(2))
    nbytes = len(pkt.payload)
    c0.send_packet(pkt)
    assert len(c1._rx[0].ring) == LEAD + nbytes
    (got,) = c1.recv_packets()
    return got


class TestFraming:
    def test_roundtrip(self):
        pkt = Packet(
            ptype=EAGER, src=0, dst=1, tag=7, comm_id=2, op_id=33,
            offset=0, total=5, sync=True, seq=4, crc=0xDEADBEEF, payload=b"hello",
        )
        decoded = _cross(pkt)
        for attr in FIELDS:
            assert getattr(decoded, attr) == getattr(pkt, attr)
        assert decoded.payload == b"hello"

    def test_empty_payload(self):
        pkt = Packet(ptype=CTS, src=1, dst=1, op_id=9)
        decoded = _cross(pkt)
        assert decoded.op_id == 9 and decoded.payload == b""

    def test_kind_names(self):
        assert Packet(ptype=RTS, src=0, dst=1).kind == "RTS"
        assert Packet(ptype=DATA, src=0, dst=1).kind == "DATA"
        assert Packet(ptype=FIN, src=0, dst=1).kind == "FIN"
        assert Packet(ptype=99, src=0, dst=1).kind == "?99"


@settings(max_examples=60, deadline=None)
@given(
    ptype=st.sampled_from([EAGER, RTS, CTS, DATA, FIN]),
    src=st.integers(-(1 << 31), (1 << 31) - 1),
    tag=st.integers(-1, 1 << 20),
    op_id=st.integers(0, 1 << 40),
    offset=st.integers(0, 1 << 40),
    sync=st.booleans(),
    seq=st.integers(-1, 1 << 40),
    crc=st.integers(0, 0xFFFFFFFF),
    payload=st.binary(max_size=256),
)
def test_framing_roundtrip_property(ptype, src, tag, op_id, offset, sync, seq, crc, payload):
    pkt = Packet(
        ptype=ptype, src=src, dst=1, tag=tag, op_id=op_id, offset=offset,
        total=len(payload), sync=sync, seq=seq, crc=crc, payload=payload,
    )
    decoded = _cross(pkt)
    for attr in FIELDS:  # ts as the sender stamped it
        assert getattr(decoded, attr) == getattr(pkt, attr)
    assert decoded.payload == payload
