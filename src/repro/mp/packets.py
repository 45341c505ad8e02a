"""Wire packets and the eager/rendezvous protocol constants.

CH3 moves five packet kinds:

* ``EAGER``   — small message, header + full payload in one packet;
* ``RTS``     — request-to-send, announces a large message (rendezvous);
* ``CTS``     — clear-to-send, the receiver matched and is ready.  On a
  channel that grants (``rndv_caps()``: shm, ib) it also names the
  receiver's latched buffer: ``tag`` is the grant id (negative, a key in
  the fabric's window registry) and ``total`` the bytes that may be
  written, ``min(message, buffer)``; both are 0 on every other channel;
* ``DATA``    — one packetized chunk of a rendezvous payload (channels that
  do not grant, and every channel under a ``FaultyChannel``);
* ``FIN``     — a completion notice, in one of two directions told apart by
  ``tag``: receiver → sender with ``tag == 0`` says a synchronous send was
  matched; sender → receiver with ``tag`` = the grant id says the granted
  put of ``total`` bytes has landed (``op_id`` is the send's, as on DATA).

The reliability sublayer (``repro.mp.reliability``) adds two more:

* ``ACK``     — cumulative acknowledgement of a link's sequence stream;
* ``PING``    — heartbeat probe for dead-peer detection (sequenced, so a
  live peer's ack doubles as a liveness proof);
* ``FAILN``   — failure notification: a rank that declared a peer dead
  gossips the verdict (``op_id`` carries the dead rank), so ranks with no
  direct link to the failure learn it too (ULFM-style propagation — a
  collective participant waiting on a live-but-aborted neighbour would
  otherwise hang).

The one-sided window subsystem (``repro.mp.win``) adds the RMA family:
``PUT``/``GET``/``GETRESP``/``ACC`` move window data when a channel has no
native RMA path (the emulation lowering), and ``WSYNC``/``WPOST``/
``WCOMPLETE``/``WLOCK``/``WLOCKGRANT``/``WUNLOCK``/``WUNLOCKACK`` carry
the epoch synchronization (fence, post/start/complete/wait, passive
lock/unlock).  Target-side handling of all of these lives in the CH3
device's poll path, so the async progress tick — not the target
application — drives completion.

The ring transport of real processes frames these onto a byte ring (the
frame, and its check of ``ptype`` against the names below, are
:mod:`repro.mp.channels.sock`'s); the in-memory transport of simulated
worlds passes them as objects through a queue per rank.  ``ts`` carries
the virtual-clock arrival timestamp (ignored in wall-clock mode).
``seq`` is the per-link (src, dst) sequence number (-1 when the packet is
unsequenced) and ``crc`` a CRC32 over the protocol-relevant header fields
plus the payload; both are 0-cost until a reliability layer seals the
packet.
"""

from __future__ import annotations

import struct
import zlib
from dataclasses import dataclass

EAGER = 1
RTS = 2
CTS = 3
DATA = 4
FIN = 5
ACK = 6
PING = 7
FAILN = 8

# One-sided (RMA) window protocol.  ``tag`` carries the window id on all
# of these; ``offset`` is the byte offset into the *target* window.
PUT = 9  # origin -> target: land payload into the window at offset
GET = 10  # origin -> target: request ``total`` bytes from offset
GETRESP = 11  # target -> origin: GET reply (op_id correlates)
ACC = 12  # origin -> target: element-wise accumulate into the window
WSYNC = 13  # fence closure: op_id carries the emulated-op count owed
WPOST = 14  # PSCW: target posted an exposure epoch toward origin
WCOMPLETE = 15  # PSCW: origin completed; op_id carries the op count owed
WLOCK = 16  # passive: lock request (sync flag: exclusive)
WLOCKGRANT = 17  # passive: target's device granted the lock
WUNLOCK = 18  # passive: unlock; op_id carries the op count owed
WUNLOCKACK = 19  # passive: target's device released + all ops landed

_NAMES = {
    EAGER: "EAGER",
    RTS: "RTS",
    CTS: "CTS",
    DATA: "DATA",
    FIN: "FIN",
    ACK: "ACK",
    PING: "PING",
    FAILN: "FAILN",
    PUT: "PUT",
    GET: "GET",
    GETRESP: "GETRESP",
    ACC: "ACC",
    WSYNC: "WSYNC",
    WPOST: "WPOST",
    WCOMPLETE: "WCOMPLETE",
    WLOCK: "WLOCK",
    WLOCKGRANT: "WLOCKGRANT",
    WUNLOCK: "WUNLOCK",
    WUNLOCKACK: "WUNLOCKACK",
}

#: the header fields covered by the checksum — everything the protocol
#: layers act on.  ``ts`` is excluded: channels stamp it after sealing.
_CRC_FIELDS = struct.Struct("<BiiiiqqqBq")


@dataclass
class Packet:
    ptype: int
    src: int
    dst: int
    tag: int = 0  # RMA: window id; CTS/FIN: grant id (0: none)
    comm_id: int = 0
    op_id: int = 0  # sender-side request id (rendezvous correlation)
    offset: int = 0  # DATA: byte offset into the destination buffer
    total: int = 0  # message length in bytes (granted CTS/FIN: writable/landed)
    sync: bool = False  # EAGER/RTS: sender wants a FIN back (MPI_Ssend)
    ts: float = 0.0  # virtual-clock arrival time
    seq: int = -1  # per-link sequence number (-1: unsequenced)
    crc: int = 0  # CRC32 seal (0: unsealed)
    #: payload bytes — either an owned immutable snapshot (``bytes``) or a
    #: ``memoryview`` of the sender's latched buffer, which ``send_packet``
    #: consumes before it returns
    payload: bytes | memoryview = b""

    @property
    def kind(self) -> str:
        return _NAMES.get(self.ptype, f"?{self.ptype}")

    # -- payload ownership -----------------------------------------------------

    def payload_mv(self) -> memoryview:
        """The payload window, without materializing a copy."""
        p = self.payload
        return p if type(p) is memoryview else memoryview(p)

    def freeze_payload(self) -> bytes:
        """Materialize the payload into owned bytes.

        Channels call this at the wire crossing (copy into the "shared
        segment", stash for retransmit); after it the packet can be held
        indefinitely without aliasing the sender's buffer.
        """
        p = self.payload
        if type(p) is not bytes:
            self.payload = p = bytes(p)
        return p

    # -- integrity (reliability sublayer) -------------------------------------

    def compute_crc(self) -> int:
        head = _CRC_FIELDS.pack(
            self.ptype,
            self.src,
            self.dst,
            self.tag,
            self.comm_id,
            self.op_id,
            self.offset,
            self.total,
            1 if self.sync else 0,
            self.seq,
        )
        # crc32 accepts any C-contiguous buffer: seal straight over the
        # view, no materialized copy.
        return zlib.crc32(self.payload_mv(), zlib.crc32(head)) & 0xFFFFFFFF

    def seal(self) -> "Packet":
        """Stamp the CRC over the current header fields and payload."""
        self.crc = self.compute_crc()
        return self

    def intact(self) -> bool:
        """True when the seal matches (or the packet was never sealed)."""
        return self.crc == 0 or self.crc == self.compute_crc()

    def clone(self) -> "Packet":
        """A shallow copy.  The payload object is shared: for ``bytes``
        that is free (immutable); for a ``memoryview`` both packets alias
        the sender's buffer, so whichever consumer holds the content past
        ``send_packet`` must :meth:`freeze_payload` first."""
        return Packet(
            ptype=self.ptype,
            src=self.src,
            dst=self.dst,
            tag=self.tag,
            comm_id=self.comm_id,
            op_id=self.op_id,
            offset=self.offset,
            total=self.total,
            sync=self.sync,
            ts=self.ts,
            seq=self.seq,
            crc=self.crc,
            payload=self.payload,
        )

    def __repr__(self) -> str:
        return (
            f"<Pkt {self.kind} {self.src}->{self.dst} tag={self.tag} "
            f"op={self.op_id} off={self.offset} total={self.total} "
            f"seq={self.seq} len={len(self.payload)}>"
        )
