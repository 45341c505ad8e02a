"""Request objects: one state machine for every nonblocking operation.

Every operation the stack tracks — eager and rendezvous point-to-point,
reliability-backed retransmitted sends, object transport, scheduled
collectives — is a :class:`Request` driven through one lifecycle::

    INIT ──► QUEUED ──► ACTIVE ──► COMPLETE
      │         │          │  ├──► FAILED     (peer declared dead)
      └─────────┴──────────┘  └──► CANCELLED  (MPI_Cancel on a recv)

``QUEUED`` means the operation is parked waiting for a remote event (a
rendezvous send waiting for CTS, a posted receive waiting for its match);
``ACTIVE`` means the transport is moving bytes.  Eager sends may skip
QUEUED entirely; tiny operations may pass INIT → ACTIVE → COMPLETE in one
call.  Transitions are emitted on the rank's hook spine (``req_transition``)
when the request was created by a wired engine.

A request's ``in_flight`` predicate is exactly what Motor's conditional
pin registers with the collector (paper §4.3): during the mark phase the
GC asks "is the underlying transport operation still ongoing?" and pins
the buffer only if the answer is yes.
"""

from __future__ import annotations

import itertools
import threading
from typing import Callable

from repro.mp.buffers import BufferDesc
from repro.mp.errors import MpiErrRequest
from repro.mp.hooks import NULL_SPINE
from repro.mp.status import Status

_ids = itertools.count(1)

SEND = "send"
RECV = "recv"
COLL = "coll"

#: request lifecycle states
INIT = "init"
QUEUED = "queued"
ACTIVE = "active"
COMPLETE = "complete"
FAILED = "failed"
CANCELLED = "cancelled"


class Request:
    """One outstanding operation (point-to-point or collective)."""

    __slots__ = (
        "op_id",
        "kind",
        "buf",
        "peer",
        "tag",
        "comm_id",
        "total",
        "state",
        "completed",  # terminal: the transport will never touch the buffer again
        "status",
        "bytes_moved",
        "on_complete",
        "_lock",
        "freed",
        "sync",
        # rendezvous-send progress, folded in from CH3's old _SendState:
        "cursor",   # next byte offset to stream
        "cleared",  # CTS received; streaming may proceed
        "wdst",     # world-rank destination (peer stays communicator-local)
        "hooks",    # the creating engine's spine; NULL_SPINE outside a wired stack
    )

    def __init__(
        self,
        kind: str,
        buf: BufferDesc | None,
        peer: int,
        tag: int,
        comm_id: int,
        total: int,
        sync: bool = False,
        hooks=None,
    ) -> None:
        self.op_id = next(_ids)
        self.kind = kind
        self.buf = buf
        self.peer = peer
        self.tag = tag
        self.comm_id = comm_id
        self.total = total
        self.state = INIT
        self.completed = False
        self.status = Status()
        self.bytes_moved = 0
        self.on_complete: list[Callable[["Request"], None]] = []
        self._lock = threading.Lock()
        self.freed = False
        #: synchronous-mode send (MPI_Ssend): completes only on match
        self.sync = sync
        self.cursor = 0
        self.cleared = False
        self.wdst = -1
        self.hooks = NULL_SPINE if hooks is None else hooks

    # -- state ---------------------------------------------------------------

    @property
    def started(self) -> bool:
        """True once the transport has actually begun moving bytes (the
        paper's deferred-pinning decision hinges on this)."""
        return self.state not in (INIT, QUEUED)

    def in_flight(self) -> bool:
        """True while the transport may still touch the buffer."""
        return not self.completed

    def mark_queued(self) -> None:
        """Park the operation on a remote event (match / CTS)."""
        if self.state == INIT:
            self.state = QUEUED
            for cb in self.hooks.req_transition:
                cb(self, INIT, QUEUED)

    def activate(self) -> None:
        """The transport has started moving this operation's bytes."""
        old = self.state
        if old == INIT or old == QUEUED:
            self.state = ACTIVE
            for cb in self.hooks.req_transition:
                cb(self, old, ACTIVE)

    def _finish(self, terminal: str, status: Status | None = None) -> bool:
        with self._lock:
            if self.completed:
                return False
            old = self.state
            if status is not None:
                self.status = status
            self.state = terminal
            self.completed = True
            for cb in self.hooks.req_transition:
                cb(self, old, terminal)
        for cb in self.on_complete:
            cb(self)
        return True

    def complete(self, status: Status | None = None) -> None:
        self._finish(COMPLETE, status)

    def fail(self, status: Status | None = None) -> None:
        """Terminal failure (peer death); ``status.error`` names the cause."""
        self._finish(FAILED, status)

    def cancel(self) -> None:
        """Terminal cancellation (only receives can be cancelled)."""
        self.status.cancelled = True
        self._finish(CANCELLED)

    # -- bookkeeping ---------------------------------------------------------

    def check_usable(self) -> None:
        if self.freed:
            raise MpiErrRequest(f"request {self.op_id} already freed")

    def free(self) -> None:
        self.freed = True
        self.buf = None

    def describe(self) -> str:
        """A human label for the call this request stands for (used by the
        repro.analyze deadlock reports: 'Recv(src=ANY_SOURCE, tag=7)')."""
        if self.kind == RECV:
            src = "ANY_SOURCE" if self.peer == -1 else str(self.peer)
            tag = "ANY_TAG" if self.tag == -1 else str(self.tag)
            return f"Recv(src={src}, tag={tag})"
        if self.kind == SEND:
            return f"Send(dst={self.peer}, tag={self.tag})"
        return f"{self.kind}()"

    def __repr__(self) -> str:
        return (
            f"<Request #{self.op_id} {self.kind} peer={self.peer} "
            f"tag={self.tag} {self.state}>"
        )
