"""MPI_T-style performance variables: counters and histograms.

"MPI Progress For All" (Zhou et al.) argues that progress behaviour must
be *observable without being perturbed*; MPI_T does this with performance
variables ("pvars") that live inside the library and are read on demand.
This module is that idea for the whole Motor stack:

* **Counter** — monotonically increasing event count
  (``mp.ch3.eager_sends``, ``rel.retransmits``);
* **Histogram** — power-of-two bucketed distribution
  (``mp.ch3.msg_bytes``).

Names are dotted paths, ``<subsystem>.<component>.<variable>``, so a
merged cluster report can group them.  A registry is cheap to write to
(dict lookup + integer add) and is owned by exactly one rank thread, so
no locking is needed; cross-rank aggregation happens by snapshot/merge
(see :mod:`repro.obs.aggregate`), never by sharing.

Pull-model pvars: subsystems that already keep their own counters (the
CH3 device's ``stats`` dict, the reliability layer, the collector's
``GcStats``) are exported by registering a *provider* — a callable
returning ``{name: value}`` that the registry invokes at snapshot time.
The hot path pays nothing; the value is read when somebody looks, which
is exactly how MPI_T_pvar_read behaves.
"""

from __future__ import annotations

from typing import Callable


class Counter:
    """A monotonically increasing count."""

    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0

    def inc(self, n: int = 1) -> None:
        self.value += n


class Histogram:
    """Power-of-two bucketed distribution (bucket key = bit_length)."""

    __slots__ = ("name", "count", "total", "min", "max", "buckets")

    def __init__(self, name: str) -> None:
        self.name = name
        self.count = 0
        self.total = 0.0
        self.min: float | None = None
        self.max: float | None = None
        #: bucket exponent -> count; value v lands in bucket int(v).bit_length()
        self.buckets: dict[int, int] = {}

    def observe(self, v: float) -> None:
        self.count += 1
        self.total += v
        if self.min is None or v < self.min:
            self.min = v
        if self.max is None or v > self.max:
            self.max = v
        b = int(v).bit_length() if v > 0 else 0
        self.buckets[b] = self.buckets.get(b, 0) + 1

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0


class MetricsRegistry:
    """One rank's pvar namespace."""

    def __init__(self) -> None:
        self._counters: dict[str, Counter] = {}
        self._hists: dict[str, Histogram] = {}
        self._providers: list[Callable[[], dict[str, float]]] = []

    # -- push-model pvars ---------------------------------------------------

    def counter(self, name: str) -> Counter:
        c = self._counters.get(name)
        if c is None:
            c = self._counters[name] = Counter(name)
        return c

    def histogram(self, name: str) -> Histogram:
        h = self._hists.get(name)
        if h is None:
            h = self._hists[name] = Histogram(name)
        return h

    # -- pull-model pvars ---------------------------------------------------

    def register_provider(self, fn: Callable[[], dict[str, float]]) -> None:
        """Register a callable read at snapshot time (MPI_T_pvar_read)."""
        self._providers.append(fn)

    # -- snapshot ------------------------------------------------------------

    def snapshot(self) -> dict:
        """A JSON-serialisable view of every pvar, providers included."""
        counters = {n: c.value for n, c in self._counters.items()}
        for fn in self._providers:
            for name, value in fn().items():
                # provider values win only additively: a provider restating
                # a pushed name accumulates rather than silently replacing
                counters[name] = counters.get(name, 0) + value
        return {
            "counters": counters,
            "hists": {
                n: {
                    "count": h.count,
                    "total": h.total,
                    "min": h.min,
                    "max": h.max,
                    "buckets": {str(k): v for k, v in h.buckets.items()},
                }
                for n, h in self._hists.items()
            },
        }
