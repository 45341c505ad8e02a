"""The Motor virtual machine: runtime + Message Passing Core, integrated.

One ``MotorVM`` per rank.  Construction wires the integrations the paper
describes:

* the MPI progress engine's polling-wait yields to this runtime's
  safepoint (so FCalls never stall a needed collection, §7.1);
* the pinning policy reads this runtime's generation boundaries and
  registers conditional pins with this runtime's collector (§7.4);
* the OO buffer pool is swept by this runtime's collector (§7.5).
"""

from __future__ import annotations

from typing import Any, Callable

from repro.cluster.world import RankContext
from repro.motor.buffers import BufferPool
from repro.motor.mpcore import MessagePassingCore
from repro.motor.pinpolicy import PinningPolicy
from repro.motor.serialization import MotorSerializer
from repro.motor.system_mp import MotorCommunicator
from repro.mp.hooks import wire_vm
from repro.runtime.proxy import ManagedProxy
from repro.runtime.runtime import ManagedRuntime, RuntimeConfig


class MotorVM:
    """A complete Motor instance for one rank."""

    def __init__(
        self,
        ctx: RankContext,
        runtime_config: RuntimeConfig | None = None,
        visited: str = "linear",
        pinning_policy_enabled: bool = True,
    ) -> None:
        self.ctx = ctx
        self.engine = ctx.engine
        self.runtime = ManagedRuntime(
            runtime_config, clock=ctx.clock, costs=ctx.world.costs
        )
        # Integration point 1: the ported MPICH2 polling-wait yields to the
        # garbage collector.
        self.engine.progress.yield_fn = self.runtime.safepoint.poll

        self.serializer = MotorSerializer(self.runtime, visited=visited)
        self.pool = BufferPool(self.runtime)
        self.policy = PinningPolicy(self.runtime, enabled=pinning_policy_enabled)
        self.core = MessagePassingCore(
            self.runtime, self.engine, self.serializer, self.pool, self.policy
        )
        # Integration point 2: System.MP reaches the core through FCalls.
        self.fcall = self.runtime.gate("fcall")
        #: one hook spine for the whole rank: the engine's spine, extended
        #: over the collector, pin policy, serializer and FCall gate
        #: (repro.mp.hooks)
        self.hooks = wire_vm(self)
        self.comm_world = MotorCommunicator(self, self.engine.comm_world)

    # -- managed-environment conveniences -----------------------------------------

    def define_class(self, name, fields, base=None, transportable_class=False):
        return self.runtime.define_class(
            name, fields, base=base, transportable_class=transportable_class
        )

    def new(self, type_name, **init) -> ManagedProxy:
        return ManagedProxy(self.runtime, self.runtime.new(type_name, **init))

    def new_array(self, elem_type: str, length: int, values=None) -> ManagedProxy:
        return ManagedProxy(
            self.runtime, self.runtime.new_array(elem_type, length, values)
        )

    def proxy(self, ref) -> ManagedProxy:
        return ManagedProxy(self.runtime, ref)

    def collect(self, gen: int = 0) -> None:
        self.runtime.collect(gen)

    # -- MPI-2 dynamic process management ------------------------------------------

    def spawn(self, child_main: Callable, nprocs: int) -> MotorCommunicator:
        """Spawn ``nprocs`` Motor children; returns the intercommunicator.

        The child's ``ctx.session`` is its own MotorVM and
        ``ctx.parent_comm`` (wrapped) reaches the parents.
        """
        inter = self.ctx.world.spawn(
            self.ctx, child_main, nprocs, session_factory=motor_session
        )
        return MotorCommunicator(self, inter)

    def parent_comm(self) -> MotorCommunicator | None:
        if self.ctx.parent_comm is None:
            return None
        return MotorCommunicator(self, self.ctx.parent_comm)


def motor_session(ctx: RankContext, **kw: Any) -> MotorVM:
    """Session factory for :func:`repro.cluster.mpiexec`."""
    return MotorVM(ctx, **kw)
