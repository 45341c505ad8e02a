"""ADI-level message matching: posted-receive and unexpected queues.

MPI matching semantics: a receive matches the *earliest* message from a
matching (source, tag, communicator), with MPI_ANY_SOURCE / MPI_ANY_TAG
wildcards on the receive side only; order between a given pair on a given
communicator is non-overtaking.

Unlike MPICH2's linearly-searched FIFOs, both queues here are indexed by
``(comm, source, tag)`` buckets, each bucket a FIFO of ``(seq, item)``
entries stamped from one shared arrival counter.  An exact-key lookup is
O(1); a wildcard lookup compares the *head* sequence number of each
candidate bucket and takes the global minimum, which reproduces the exact
FIFO order a linear scan would have found (the head of every bucket is
its oldest entry, and the oldest entry overall is the oldest of the
heads).  Posted receives additionally bucket by their own wildcard
selectors, so an arriving message probes at most four buckets.
"""

from __future__ import annotations

import itertools
from collections import deque
from dataclasses import dataclass

from repro.mp.buffers import NativeMemory
from repro.mp.hooks import NULL_SPINE
from repro.mp.request import Request

ANY_SOURCE = -1
ANY_TAG = -1


@dataclass
class UnexpectedMsg:
    """A message that arrived before its receive was posted."""

    src: int
    tag: int
    comm_id: int
    total: int
    #: eager: payload staged in native memory. rendezvous: None (RTS only).
    staged: NativeMemory | None
    #: sender-side op id (needed to send CTS for rendezvous)
    send_op_id: int
    eager: bool = True
    #: virtual-clock arrival timestamp (merged when consumed)
    ts: float = 0.0


def _match(src_sel: int, tag_sel: int, comm_sel: int, src: int, tag: int, comm_id: int) -> bool:
    return (
        comm_sel == comm_id
        and (src_sel == ANY_SOURCE or src_sel == src)
        and (tag_sel == ANY_TAG or tag_sel == tag)
    )


class MessageQueues:
    """The device's two matching queues for one rank."""

    #: the rank's hook spine (shared by wire_engine); emits wildcard_scan
    hooks = NULL_SPINE

    def __init__(self) -> None:
        #: shared arrival stamp: total order across both queues' buckets
        self._seq = itertools.count()
        #: (comm_id, src_sel, tag_sel) -> FIFO of (seq, Request)
        self._posted: dict[tuple[int, int, int], deque] = {}
        #: (comm_id, src, tag) -> FIFO of (seq, UnexpectedMsg)
        self._unexpected: dict[tuple[int, int, int], deque] = {}
        self.posted_count = 0
        self.unexpected_count = 0

    # -- posted receives ----------------------------------------------------

    def post_recv(self, req: Request) -> None:
        key = (req.comm_id, req.peer, req.tag)
        self._posted.setdefault(key, deque()).append((next(self._seq), req))
        self.posted_count += 1

    def match_posted(self, src: int, tag: int, comm_id: int) -> Request | None:
        """Arriving message looks for its receive (recv side has wildcards).

        The message's (src, tag) are concrete, so only four selector
        buckets can possibly hold a match; the oldest head wins.
        """
        best = None
        best_key = None
        for key in (
            (comm_id, src, tag),
            (comm_id, src, ANY_TAG),
            (comm_id, ANY_SOURCE, tag),
            (comm_id, ANY_SOURCE, ANY_TAG),
        ):
            bucket = self._posted.get(key)
            if bucket and (best is None or bucket[0][0] < best[0]):
                best = bucket[0]
                best_key = key
        if best is None:
            return None
        bucket = self._posted[best_key]
        bucket.popleft()
        if not bucket:
            del self._posted[best_key]
        self.posted_count -= 1
        return best[1]

    def cancel_posted(self, req: Request) -> bool:
        key = (req.comm_id, req.peer, req.tag)
        bucket = self._posted.get(key)
        if bucket is None:
            return False
        for entry in bucket:
            if entry[1] is req:
                bucket.remove(entry)
                if not bucket:
                    del self._posted[key]
                self.posted_count -= 1
                return True
        return False

    def iter_posted(self):
        """Every posted receive, unordered (hot-path interest scan)."""
        for bucket in self._posted.values():
            for _, req in bucket:
                yield req

    @property
    def posted(self) -> list[Request]:
        """All posted receives in posting order (tests, failure sweep)."""
        entries = [e for bucket in self._posted.values() for e in bucket]
        entries.sort()
        return [req for _, req in entries]

    # -- unexpected messages ----------------------------------------------------

    def add_unexpected(self, msg: UnexpectedMsg) -> None:
        key = (msg.comm_id, msg.src, msg.tag)
        self._unexpected.setdefault(key, deque()).append((next(self._seq), msg))
        self.unexpected_count += 1

    def _candidate_buckets(self, src_sel: int, tag_sel: int, comm_sel: int):
        """Bucket keys that could hold a match for a receive's selectors."""
        if src_sel != ANY_SOURCE and tag_sel != ANY_TAG:
            key = (comm_sel, src_sel, tag_sel)
            return (key,) if key in self._unexpected else ()
        return tuple(
            key
            for key in self._unexpected
            if _match(src_sel, tag_sel, comm_sel, key[1], key[2], key[0])
        )

    def match_unexpected(self, src_sel: int, tag_sel: int, comm_sel: int) -> UnexpectedMsg | None:
        """A newly posted receive (or probe) looks for an earlier arrival."""
        cbs = self.hooks.wildcard_scan
        if cbs and src_sel == ANY_SOURCE:
            # A wildcard receive scanning a queue holding messages from
            # more than one source is the textbook nondeterministic match;
            # report every matching message's source in arrival order.
            entries = sorted(
                (seq, msg.src)
                for key in self._candidate_buckets(src_sel, tag_sel, comm_sel)
                for seq, msg in self._unexpected[key]
            )
            sources = [src for _, src in entries]
            for cb in cbs:
                cb(tag_sel, comm_sel, sources)
        if not self.unexpected_count:
            return None  # nothing arrived early: no bucket to look in
        best = None
        best_key = None
        for key in self._candidate_buckets(src_sel, tag_sel, comm_sel):
            bucket = self._unexpected[key]
            if bucket and (best is None or bucket[0][0] < best[0]):
                best = bucket[0]
                best_key = key
        if best is None:
            return None
        bucket = self._unexpected[best_key]
        bucket.popleft()
        if not bucket:
            del self._unexpected[best_key]
        self.unexpected_count -= 1
        return best[1]

    def peek_unexpected(self, src_sel: int, tag_sel: int, comm_sel: int) -> UnexpectedMsg | None:
        """Probe without consuming."""
        best = None
        for key in self._candidate_buckets(src_sel, tag_sel, comm_sel):
            bucket = self._unexpected[key]
            if bucket and (best is None or bucket[0][0] < best[0]):
                best = bucket[0]
        return None if best is None else best[1]

    @property
    def unexpected(self) -> list[UnexpectedMsg]:
        """All unexpected messages in arrival order (tests, diagnostics)."""
        entries = [e for bucket in self._unexpected.values() for e in bucket]
        entries.sort()
        return [msg for _, msg in entries]

    def __repr__(self) -> str:
        return (
            f"<MessageQueues posted={self.posted_count} "
            f"unexpected={self.unexpected_count}>"
        )
