"""The PAL facade — the virtual subset-Windows API the runtime calls.

Each rank owns one :class:`PAL` instance wrapping the shared kernel objects
(events).  The two backends reproduce the asymmetry the paper notes
in §5.4: the Windows PAL is a thin pass-through, while the UNIX PAL has to
emulate Win32 semantics and is therefore thicker (every call pays a larger
surcharge on the virtual clock).

The MPICH2 port to the PAL (paper §7.1) needed a handful of Win32 calls the
PAL did not support; we reproduce that by keeping an explicit whitelist of
supported calls plus a small set of *extensions* that the Motor port added.
Calling an unsupported API raises, as it would have failed to link.
"""

from __future__ import annotations

import threading
import time

from repro.pal.events import Event
from repro.simtime import Clock, CostModel, WallClock


class PalError(RuntimeError):
    """An unsupported or failed PAL call."""


#: Win32-ish calls the stock PAL supports (subset relevant to this system).
_BASE_API = frozenset(
    {
        "CreateEvent",
        "SetEvent",
        "ResetEvent",
        "WaitForSingleObject",
        "Sleep",
        "GetTickCount",
        "QueryPerformanceCounter",
        "EnterCriticalSection",
        "LeaveCriticalSection",
        "VirtualAlloc",
        "VirtualFree",
    }
)

#: Calls MPICH2's Windows code base needed that the PAL lacked; the Motor
#: port *extended* the PAL with these (paper §7.1: "the PAL was extended by
#: a small handful of functions").
_MOTOR_EXTENSIONS = frozenset(
    {
        "InterlockedExchange",
    }
)

#: Calls MPICH2 used that remained unsupported and had to be *mapped* to
#: PAL-supported equivalents; the sock channel's IOCP calls stay below the
#: PAL entirely.
UNSUPPORTED_IN_PAL = frozenset(
    {
        "CreateIoCompletionPort",
        "GetQueuedCompletionStatus",
        "PostQueuedCompletionStatus",
        "WSASend",
        "WSARecv",
    }
)


class PAL:
    """Per-rank Platform Adaptation Layer facade."""

    BACKENDS = ("windows", "unix")

    def __init__(
        self,
        backend: str = "windows",
        clock: Clock | None = None,
        costs: CostModel | None = None,
        extensions_enabled: bool = True,
    ) -> None:
        if backend not in self.BACKENDS:
            raise PalError(f"unknown PAL backend {backend!r}")
        self.backend = backend
        self.clock = clock if clock is not None else WallClock()
        self.costs = costs if costs is not None else CostModel()
        self._api = set(_BASE_API)
        if extensions_enabled:
            self._api |= _MOTOR_EXTENSIONS
        self.call_counts: dict[str, int] = {}

    # -- bookkeeping ---------------------------------------------------------

    def _enter(self, api: str) -> None:
        if api in UNSUPPORTED_IN_PAL:
            raise PalError(
                f"{api} is not part of the PAL; the sock channel must call "
                "the OS directly (below the PAL), as Motor does"
            )
        if api not in self._api:
            raise PalError(f"PAL does not implement {api}")
        self.call_counts[api] = self.call_counts.get(api, 0) + 1
        if self.backend == "windows":
            self.clock.charge(self.costs.pal_call_thin_ns)
        else:
            self.clock.charge(self.costs.pal_call_thick_ns)

    def supports(self, api: str) -> bool:
        return api in self._api

    # -- events ----------------------------------------------------------------

    def create_event(self, manual_reset: bool = True, initial: bool = False, name: str = "") -> Event:
        self._enter("CreateEvent")
        return Event(manual_reset=manual_reset, initial=initial, name=name)

    def set_event(self, event: Event) -> None:
        self._enter("SetEvent")
        event.set()

    def reset_event(self, event: Event) -> None:
        self._enter("ResetEvent")
        event.reset()

    def wait_for_single_object(self, event: Event, timeout_ms: float | None = None) -> bool:
        self._enter("WaitForSingleObject")
        timeout = None if timeout_ms is None else timeout_ms / 1e3
        return event.wait(timeout)

    # -- time ----------------------------------------------------------------

    def sleep(self, ms: float) -> None:
        self._enter("Sleep")
        if self.clock.virtual:
            self.clock.charge(ms * 1e6)
        else:
            time.sleep(ms / 1e3)

    def get_tick_count(self) -> int:
        self._enter("GetTickCount")
        return int(self.clock.now() / 1e6)

    def query_performance_counter(self) -> float:
        self._enter("QueryPerformanceCounter")
        return self.clock.now()

    # -- sync --------------------------------------------------------------------

    def create_critical_section(self) -> threading.RLock:
        # CRITICAL_SECTION init has no dedicated PAL entry; Enter/Leave do.
        return threading.RLock()

    def enter_critical_section(self, cs: threading.RLock) -> None:
        self._enter("EnterCriticalSection")
        cs.acquire()

    def leave_critical_section(self, cs: threading.RLock) -> None:
        self._enter("LeaveCriticalSection")
        cs.release()

    # -- virtual memory (used by the native MPI core for staging buffers) ----

    def virtual_alloc(self, nbytes: int) -> bytearray:
        self._enter("VirtualAlloc")
        if nbytes < 0:
            raise PalError("VirtualAlloc: negative size")
        return bytearray(nbytes)

    def virtual_free(self, block: bytearray) -> None:
        self._enter("VirtualFree")
        del block[:]

    # -- Motor extensions -----------------------------------------------------

    def interlocked_exchange(self, cell: list, value) -> object:
        self._enter("InterlockedExchange")
        old = cell[0]
        cell[0] = value
        return old
