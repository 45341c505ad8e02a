"""MPI error classes (the MPI_ERR_* taxonomy, raised as exceptions)."""

from __future__ import annotations


class MpiError(Exception):
    """Base of all MPI-layer failures."""

    mpi_class = "MPI_ERR_OTHER"


class MpiErrRank(MpiError):
    mpi_class = "MPI_ERR_RANK"


class MpiErrTag(MpiError):
    mpi_class = "MPI_ERR_TAG"


class MpiErrCount(MpiError):
    mpi_class = "MPI_ERR_COUNT"


class MpiErrType(MpiError):
    mpi_class = "MPI_ERR_TYPE"


class MpiErrComm(MpiError):
    mpi_class = "MPI_ERR_COMM"


class MpiErrBuffer(MpiError):
    mpi_class = "MPI_ERR_BUFFER"


class MpiErrTruncate(MpiError):
    """Receive buffer too small for the matched message."""

    mpi_class = "MPI_ERR_TRUNCATE"


class MpiErrRequest(MpiError):
    mpi_class = "MPI_ERR_REQUEST"


class MpiErrPending(MpiError):
    mpi_class = "MPI_ERR_PENDING"


class MpiErrRoot(MpiError):
    mpi_class = "MPI_ERR_ROOT"


class MpiErrInternal(MpiError):
    mpi_class = "MPI_ERR_INTERN"


class MpiErrTimeout(MpiError):
    """A bounded wait expired before the request completed."""

    mpi_class = "MPI_ERR_TIMEOUT"


class MpiErrDeadlock(MpiErrTimeout):
    """Every hosted rank waits and nothing is in flight: no wait can end.

    The inproc scheduler's verdict (:class:`repro.simtime.sched.Baton`);
    the message names each rank's blocked wait.
    """


class MpiErrRma(MpiError):
    """One-sided window misuse: bad window handle, out-of-range access,
    or an epoch-discipline error the window layer cannot tolerate."""

    mpi_class = "MPI_ERR_RMA_SYNC"


class MpiErrProcFailed(MpiError):
    """A peer process is dead (ULFM MPI_ERR_PROC_FAILED)."""

    mpi_class = "MPI_ERR_PROC_FAILED"

    def __init__(self, *args, failed: frozenset = frozenset()) -> None:
        super().__init__(*args)
        #: the ranks known dead when the error was raised
        self.failed = frozenset(failed)


class MpiFatalError(MpiError):
    """An error on a communicator whose handler is MPI_ERRORS_ARE_FATAL.

    A real MPI would abort the job; here the engine is marked aborted and
    this exception unwinds the rank so the harness can observe it.
    """

    mpi_class = "MPI_ERR_OTHER"


#: per-communicator error handlers (MPI-2 §4.13)
ERRORS_ARE_FATAL = "errors-are-fatal"
ERRORS_RETURN = "errors-return"
