"""The proc substrate's wire format: length-framed control + packet frames.

Everything that crosses a real process boundary — MPI packets, the boot
handshake, results, failure notices — travels as a frame stream, packets
over a shared-memory ring per peer and the rest over the router socket:

    [u32 length] [u8 ftype] [i32 arg] [body ...]

``length`` covers ``ftype + arg + body``.  A ``PKT`` body is the packet
header (:meth:`repro.mp.packets.Packet.pack_header`) then the payload; the
sock channel writes both straight into a peer's ring — a leased
:class:`~repro.mp.buffers.WireView` payload from its own view, consumed at
that write — and decodes them straight out of it
(:class:`~repro.mp.channels.sock.RingReader`), so these frames never pass
through :class:`FrameReader`.  ``arg`` is the destination rank for
``PKT``, which a ring's consumer checks against its own.  Every defect a
decoder here can meet — an impossible length, a short header, a torn
payload — is a ``ValueError``: the one type the channel and the router act
on.

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

#: frame types
PKT = 1
HELLO = 2
GO = 3
RESULT = 4
ERROR = 5
DEAD = 6
BYE = 7

#: a frame's fixed prefix: ``length``, ``ftype``, ``arg``
PREFIX = struct.Struct("<IBi")
#: the ``length`` field itself, which ``length`` does not count
LENGTH_SIZE = 4
#: the bytes ``length`` counts before the body
_HEAD_SIZE = PREFIX.size - LENGTH_SIZE

#: refuse frames beyond this size (a corrupted length prefix must not
#: allocate gigabytes); generous for 256 KiB rendezvous chunks
MAX_FRAME = 64 << 20


def encode_frame(ftype: int, arg: int, body: bytes | bytearray | memoryview = b"") -> bytes:
    """One wire-ready frame; ``body`` is copied once, straight into it."""
    return b"".join((PREFIX.pack(_HEAD_SIZE + len(body), ftype, arg), body))


class FrameReader:
    """Incremental frame decoder over a byte stream.

    Feed it whatever the control socket gave; it yields every complete
    frame and keeps the tail of a torn frame for the next feed.
    """

    __slots__ = ("_buf",)

    def __init__(self) -> None:
        self._buf = bytearray()

    def feed(self, data: bytes) -> Iterator[tuple[int, int, bytes]]:
        """Yield ``(ftype, arg, body)`` for each completed frame."""
        buf = self._buf
        buf += data
        while len(buf) >= PREFIX.size:
            length, ftype, arg = PREFIX.unpack_from(buf)
            if not _HEAD_SIZE <= length <= MAX_FRAME:
                raise ValueError(f"frame length {length} outside [{_HEAD_SIZE}, MAX_FRAME]")
            end = LENGTH_SIZE + length
            if len(buf) < end:
                return
            with memoryview(buf) as mv:
                body = bytes(mv[PREFIX.size:end])
            del buf[:end]
            yield ftype, arg, body
