"""The proc substrate's rendezvous point: boot, results and death notices.

MatlabMPI demonstrated that real MPI programs run fine over a pure
userspace transport built on ordinary OS facilities, the fabric a passive
shared medium.  The proc substrate follows it: packets move between
workers over shared-memory rings (:mod:`repro.mp.channels.proc`), and the
launcher's :class:`PacketRouter` keeps only the **control plane**, a
loopback TCP star with one stream socket per worker.  One connection per
worker keeps the boot handshake trivial (no O(N^2) mesh wiring, no port
exchange) and gives the launcher a transport-level failure detector for
free — a worker socket reaching EOF before its ``BYE`` means the OS
process died, and the router gossips a ``DEAD`` frame to every survivor,
which their channels surface as
:class:`~repro.mp.errors.MpiErrProcFailed`.

The router owns:

* the **boot barrier**: ``GO`` is broadcast only once all ``world_size``
  ranks have said ``HELLO``, so no rank's main starts until every rank
  is reachable;
* **results**: ``RESULT``/``ERROR`` frames are collected for the launcher;
* **liveness**: ``DEAD`` verdicts are broadcast to survivors.

It relays no data: a packet frame arriving here is a protocol violation,
handled like a corrupt stream (the connection is closed, its rank
declared dead).  Everything runs on one daemon thread multiplexed with
``selectors``.
"""

from __future__ import annotations

import selectors
import socket
import threading

from repro.mp.channels.wire import (
    BYE,
    DEAD,
    ERROR,
    GO,
    HELLO,
    RESULT,
    FrameReader,
    encode_frame,
)

_RECV_CHUNK = 1 << 18


class _Conn:
    """One worker connection's router-side state."""

    __slots__ = ("sock", "reader", "rank", "bye")

    def __init__(self, sock: socket.socket) -> None:
        self.sock = sock
        self.reader = FrameReader()
        self.rank: int | None = None
        self.bye = False


class PacketRouter:
    """Boot barrier, result collection and death gossip for a world.

    ``start()`` spins the selector thread; ``stop()`` is idempotent and
    joins it.  All public accessors are safe from other threads.
    """

    def __init__(self, world_size: int, host: str = "127.0.0.1") -> None:
        self.world_size = world_size
        self._listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        self._listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        self._listener.bind((host, 0))
        self._listener.listen(world_size + 4)
        self._listener.setblocking(False)
        #: (host, port) workers connect to
        self.address: tuple[str, int] = self._listener.getsockname()
        self._sel = selectors.DefaultSelector()
        self._conns: dict[socket.socket, _Conn] = {}
        self._by_rank: dict[int, _Conn] = {}
        self._lock = threading.Lock()
        #: rank -> ("result" | "error", body bytes)
        self._results: dict[int, tuple[str, bytes]] = {}
        self._dead: set[int] = set()
        self._go_sent = False
        self._stop_rd, self._stop_wr = socket.socketpair()
        self._stop_rd.setblocking(False)
        self._stopping = False
        self._thread: threading.Thread | None = None
        #: PKT frames relayed; 0 since the data plane moved to the rings
        self.frames_forwarded = 0

    # -- lifecycle ---------------------------------------------------------------

    def start(self) -> None:
        if self._thread is not None:
            return
        self._thread = threading.Thread(
            target=self._run, name=f"pkt-router:{self.address[1]}", daemon=True
        )
        self._thread.start()

    def stop(self) -> None:
        """Idempotent teardown: wake the selector, join, close everything."""
        if self._stopping:
            return
        self._stopping = True
        try:
            self._stop_wr.send(b"x")
        except OSError:
            pass
        if self._thread is not None:
            self._thread.join(timeout=5.0)
            self._thread = None
        for conn in list(self._conns.values()):
            self._close_conn(conn, announce=False)
        for s in (self._listener, self._stop_rd, self._stop_wr):
            try:
                s.close()
            except OSError:
                pass

    # -- cross-thread accessors -----------------------------------------------

    def results_snapshot(self) -> dict[int, tuple[str, bytes]]:
        with self._lock:
            return dict(self._results)

    def dead_snapshot(self) -> set[int]:
        with self._lock:
            return set(self._dead)

    # -- selector thread ---------------------------------------------------------

    def _run(self) -> None:
        self._sel.register(self._listener, selectors.EVENT_READ, "accept")
        self._sel.register(self._stop_rd, selectors.EVENT_READ, "stop")
        while not self._stopping:
            for key, _events in self._sel.select(timeout=0.5):
                if key.data == "stop":
                    return
                if key.data == "accept":
                    self._accept()
                    continue
                self._readable(key.data)

    def _accept(self) -> None:
        try:
            sock, _addr = self._listener.accept()
        except OSError:
            return
        sock.setblocking(False)
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        conn = _Conn(sock)
        self._conns[sock] = conn
        self._sel.register(sock, selectors.EVENT_READ, conn)

    def _readable(self, conn: _Conn) -> None:
        try:
            data = conn.sock.recv(_RECV_CHUNK)
        except BlockingIOError:
            return
        except OSError:
            self._close_conn(conn)
            return
        if not data:
            self._close_conn(conn)
            return
        try:
            for ftype, arg, body in conn.reader.feed(data):
                self._dispatch(conn, ftype, arg, body)
        except ValueError:
            # corrupted stream or a non-control frame: treat the worker as gone
            self._close_conn(conn)

    def _dispatch(self, conn: _Conn, ftype: int, arg: int, body: bytes) -> None:
        if ftype == HELLO:
            conn.rank = arg
            self._by_rank[arg] = conn
            if not self._go_sent and len(self._by_rank) >= self.world_size:
                self._go_sent = True
                go = encode_frame(GO, self.world_size)
                for c in self._by_rank.values():
                    self._send(c, go)
        elif ftype in (RESULT, ERROR):
            with self._lock:
                self._results[arg] = (
                    "result" if ftype == RESULT else "error",
                    body,
                )
        elif ftype == BYE:
            conn.bye = True
        else:
            # PKT above all: packets cross the rings, never the launcher
            raise ValueError(f"frame type {ftype} is not a control frame")

    def _send(self, conn: _Conn, frame: bytes) -> None:
        # a connection carries one GO and a DEAD per peer, nine bytes each:
        # far below any socket buffer, so a write that cannot complete at
        # once means the worker is gone
        try:
            conn.sock.sendall(frame)
        except OSError:
            self._close_conn(conn)

    def _close_conn(self, conn: _Conn, announce: bool = True) -> None:
        sock = conn.sock
        if sock in self._conns:
            del self._conns[sock]
            try:
                self._sel.unregister(sock)
            except (KeyError, ValueError, OSError):
                pass
        try:
            sock.close()
        except OSError:
            pass
        rank = conn.rank
        if rank is not None and self._by_rank.get(rank) is conn:
            del self._by_rank[rank]
            # clean departure = announced BYE after delivering a successful
            # result.  Anything else — a hard crash (EOF, no BYE) or an
            # errored rank (ERROR frame) — leaves peers with messages that
            # will never come, so gossip DEAD and let their waits raise
            # MpiErrProcFailed instead of spinning to the launch timeout.
            with self._lock:
                entry = self._results.get(rank)
            clean = conn.bye and entry is not None and entry[0] == "result"
            if announce and not clean:
                with self._lock:
                    self._dead.add(rank)
                verdict = encode_frame(DEAD, rank)
                for c in list(self._by_rank.values()):
                    self._send(c, verdict)
