"""The proc substrate's wire format: length-framed control + packet frames.

Everything that crosses a real process boundary — MPI packets, the boot
handshake, results, failure notices — travels as a frame stream, packets
over a shared-memory ring per peer and the rest over the router socket:

    [u32 length] [u8 ftype] [i32 arg] [body ...]

``length`` covers ``ftype + arg + body``.  ``PKT`` bodies reuse the
split-frame packet serializer from the sock channel
(:meth:`repro.mp.packets.Packet.encode` /
:meth:`~repro.mp.packets.Packet.decode_header`), so a leased
:class:`~repro.mp.buffers.WireView` payload is consumed at the frame
write — the wire-crossing discipline the simulated channels follow.
``arg`` is the destination rank for ``PKT``, which a ring's consumer
checks against its own.  Every defect a decoder here can meet — an
impossible length, a short header, a torn payload — is a ``ValueError``:
the one type the channel and the router act on.

Control frames:

``HELLO``   worker -> router: "rank ``arg`` is connected";
``GO``      router -> worker: every rank connected (``arg`` = world size)
            — the barrier-at-boot the substrate owns;
``RESULT``  worker -> launcher: rank ``arg``'s main returned (pickled body);
``ERROR``   worker -> launcher: rank ``arg``'s main raised (pickled
            ``(type_name, message, traceback_text)`` body);
``DEAD``    router -> worker: rank ``arg``'s process died without a BYE —
            the transport-level failure verdict that surfaces as
            :class:`~repro.mp.errors.MpiErrProcFailed` above;
``BYE``     worker -> router: rank ``arg`` is finished and closing cleanly.
"""

from __future__ import annotations

import struct
from typing import Iterator

from repro.mp.packets import HEADER_SIZE, Packet

#: frame types
PKT = 1
HELLO = 2
GO = 3
RESULT = 4
ERROR = 5
DEAD = 6
BYE = 7

_FRAME = struct.Struct("<IBi")
_PREFIX_SIZE = 4
_HEAD_SIZE = _FRAME.size - _PREFIX_SIZE

#: refuse frames beyond this size (a corrupted length prefix must not
#: allocate gigabytes); generous for 256 KiB rendezvous chunks
MAX_FRAME = 64 << 20


def encode_frame(ftype: int, arg: int, body: bytes | bytearray | memoryview = b"") -> bytes:
    """One wire-ready frame; ``body`` is copied once, straight into it."""
    return b"".join((_FRAME.pack(_HEAD_SIZE + len(body), ftype, arg), body))


def decode_packet_body(body: bytes) -> Packet:
    """Rebuild a :class:`Packet` from a PKT frame body."""
    if len(body) < HEADER_SIZE:
        raise ValueError(f"torn packet frame: {len(body)}-byte body, no header")
    pkt, plen = Packet.decode_header(body[:HEADER_SIZE])
    if len(body) != HEADER_SIZE + plen:
        raise ValueError(f"torn packet frame: payload {len(body) - HEADER_SIZE} of {plen} bytes")
    pkt.payload = body[HEADER_SIZE:]
    return pkt


class FrameReader:
    """Incremental frame decoder over a byte stream.

    Feed it whatever the socket or the ring gave; it yields every complete
    frame and keeps the tail of a torn frame for the next feed — the proc
    analogue of the sock channel's partial-frame decode state.
    """

    __slots__ = ("_buf",)

    def __init__(self) -> None:
        self._buf = bytearray()

    def feed(self, data: bytes) -> Iterator[tuple[int, int, bytes]]:
        """Yield ``(ftype, arg, body)`` for each completed frame."""
        buf = self._buf
        buf += data
        while len(buf) >= _FRAME.size:
            length, ftype, arg = _FRAME.unpack_from(buf)
            if not _HEAD_SIZE <= length <= MAX_FRAME:
                raise ValueError(f"frame length {length} outside [{_HEAD_SIZE}, MAX_FRAME]")
            end = _PREFIX_SIZE + length
            if len(buf) < end:
                return
            with memoryview(buf) as mv:
                body = bytes(mv[_FRAME.size:end])
            del buf[:end]
            yield ftype, arg, body
