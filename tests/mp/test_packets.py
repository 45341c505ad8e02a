"""The packet header codec the sock channel frames with."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.mp.packets import CTS, DATA, EAGER, FIN, HEADER_SIZE, RTS, Packet


class TestFraming:
    def test_roundtrip(self):
        pkt = Packet(
            ptype=EAGER, src=0, dst=1, tag=7, comm_id=2, op_id=33,
            offset=0, total=5, sync=True, ts=123.5, payload=b"hello",
        )
        head = pkt.pack_header(len(pkt.payload))
        assert len(head) == HEADER_SIZE
        decoded, plen = Packet.unpack_header(memoryview(head))
        assert plen == 5
        decoded.payload = pkt.payload
        for attr in ("ptype", "src", "dst", "tag", "comm_id", "op_id", "offset", "total", "sync", "ts"):
            assert getattr(decoded, attr) == getattr(pkt, attr)
        assert decoded.payload == b"hello"

    def test_empty_payload(self):
        pkt = Packet(ptype=CTS, src=1, dst=0, op_id=9)
        decoded, plen = Packet.unpack_header(pkt.pack_header(0))
        assert plen == 0 and decoded.op_id == 9 and decoded.payload == b""

    def test_kind_names(self):
        assert Packet(ptype=RTS, src=0, dst=1).kind == "RTS"
        assert Packet(ptype=DATA, src=0, dst=1).kind == "DATA"
        assert Packet(ptype=FIN, src=0, dst=1).kind == "FIN"
        assert Packet(ptype=99, src=0, dst=1).kind == "?99"


@settings(max_examples=60, deadline=None)
@given(
    ptype=st.sampled_from([EAGER, RTS, CTS, DATA, FIN]),
    src=st.integers(0, 1000),
    dst=st.integers(0, 1000),
    tag=st.integers(-1, 1 << 20),
    op_id=st.integers(0, 1 << 40),
    offset=st.integers(0, 1 << 40),
    sync=st.booleans(),
    ts=st.floats(min_value=0, max_value=1e15, allow_nan=False),
    payload=st.binary(max_size=256),
)
def test_framing_roundtrip_property(ptype, src, dst, tag, op_id, offset, sync, ts, payload):
    pkt = Packet(
        ptype=ptype, src=src, dst=dst, tag=tag, op_id=op_id, offset=offset,
        total=len(payload), sync=sync, ts=ts, payload=payload,
    )
    head = pkt.pack_header(len(payload))
    assert len(head) == HEADER_SIZE
    decoded, plen = Packet.unpack_header(head)
    assert plen == len(payload)
    assert decoded.ptype == ptype
    assert decoded.src == src and decoded.dst == dst
    assert decoded.tag == tag and decoded.op_id == op_id
    assert decoded.offset == offset and decoded.sync == sync
    assert decoded.ts == ts
