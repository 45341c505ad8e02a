"""Cost model for the virtual clock.

All figures are nanoseconds, calibrated so the virtual-clock figures land in
the same decade as the paper's 2006 Pentium M numbers (tens of microseconds
for a small-message ping-pong iteration, single-digit milliseconds at
256 KiB).  Absolute values are *not* the claim; the ratios between call
mechanisms, pinning disciplines and serializers are, and those ratios are
taken from the paper's measurements and the SSCLI/MPICH2 literature it
cites:

* FCall vs. P/Invoke — FCalls are internally trusted and skip marshalling
  and security checks (paper §5.1), so the FCall gate is roughly an order
  of magnitude cheaper per call than P/Invoke, and JNI costs slightly more
  than P/Invoke (per-call JNIEnv indirection).
* Pinning — a pin/unpin pair costs on the order of a microsecond; the
  paper's footnote 4 notes SSCLI *fastchecked* builds make pinning several
  times more expensive than *free* builds, which is why [7] measured a
  larger pinning overhead than the authors did.
* Transport — MPICH2 sock channel over loopback: ~25 us one-way latency,
  ~100 MB/s effective bandwidth, eager/rendezvous switch at 128 KiB.
* Serializers — Motor's custom serializer is the cheapest per object; the
  commercial .NET binary serializer is noticeably faster than the SSCLI
  one (visible in the paper's Figure 10); Java serialization sits between
  the two and exhibits a mid-range "bump".
"""

from __future__ import annotations

from dataclasses import dataclass, replace


@dataclass(frozen=True)
class HostProfile:
    """A hosting runtime for a message-passing binding.

    The same binding code (e.g. the Indiana wrapper) behaves differently
    when hosted by the SSCLI free build, the SSCLI fastchecked build or the
    commercial .NET runtime; a profile captures those differences as
    multipliers over the base :class:`CostModel`.
    """

    name: str
    #: multiplier on managed-side per-call work (gates, bookkeeping)
    runtime_mult: float = 1.0
    #: multiplier on pin/unpin cost (fastchecked builds pin expensively)
    pin_mult: float = 1.0
    #: per-object cost of the host's standard binary serializer (ns)
    serializer_per_obj_ns: float = 4500.0
    #: per-byte cost of the host's standard binary serializer (ns)
    serializer_per_byte_ns: float = 2.0
    #: which managed-to-native gate the host's bindings use
    gate: str = "pinvoke"


@dataclass(frozen=True)
class LinkProfile:
    """What a packet costs on one interconnect: a row of :data:`LINK_PROFILES`.

    A row is fractions of the sock-channel figures in :class:`CostModel`,
    so the ``sock`` row is all ones.  Both transports price every packet
    from its link's row with one formula (``Channel._stamp_and_charge``);
    neither has a constant of its own.
    """

    #: one-way latency and per-byte time of a packet, relative to sock
    latency_fraction: float
    per_byte_fraction: float
    #: per-byte time of a native one-sided op: one memory traversal — no
    #: enqueue+drain pair, no header processing, no target-side completion.
    #: None: the link has no one-sided path (windows and large messages
    #: then travel as packets)
    rma_per_byte_fraction: float | None
    #: payloads of at most ``inline_max`` bytes ride the work request
    #: itself: their latency is multiplied by ``inline_discount``
    inline_max: int = 0
    inline_discount: float = 1.0
    #: memory registration: ns per new buffer region (0 = none needed) and
    #: the registration cache's granularity, a 'page'
    registration_ns: float = 0.0
    registration_page: int = 4096


@dataclass
class CostModel:
    """Calibrated primitive costs (nanoseconds) for virtual-clock runs."""

    # --- managed-to-native call gates (per call) -------------------------
    fcall_ns: float = 250.0
    pinvoke_base_ns: float = 3400.0
    pinvoke_per_arg_ns: float = 150.0
    pinvoke_security_ns: float = 900.0
    jni_base_ns: float = 20000.0
    jni_per_arg_ns: float = 200.0

    # --- garbage collector / pinning (per operation) ---------------------
    pin_ns: float = 450.0
    #: size-proportional pin cost (the transport must be able to address
    #: the pinned range; registration-style work scales with the buffer)
    pin_per_kb_ns: float = 280.0
    unpin_ns: float = 450.0
    conditional_pin_register_ns: float = 120.0
    generation_check_ns: float = 60.0
    gc_mark_pin_check_ns: float = 90.0

    # --- managed heap ------------------------------------------------------
    alloc_ns: float = 120.0
    copy_per_byte_ns: float = 0.5

    # --- transport (sock channel over loopback) --------------------------
    message_latency_ns: float = 24_000.0
    per_byte_ns: float = 9.5
    packet_overhead_ns: float = 1_500.0
    rendezvous_handshake_ns: float = 46_000.0
    eager_threshold: int = 128 * 1024
    packet_size: int = 16 * 1024
    posting_ns: float = 1_200.0  # queueing/matching work per message
    #: cadence of the async progress task on the rank's clock (progress
    #: mode "async"); roughly an MPICH progress-thread wakeup interval
    async_poll_period_ns: float = 5_000.0

    # --- Motor custom serializer ------------------------------------------
    motor_ser_per_obj_ns: float = 620.0
    motor_deser_per_obj_ns: float = 730.0
    motor_ser_per_byte_ns: float = 0.9
    #: cost of one comparison in the *linear* visited-object record; the
    #: quadratic blow-up above ~2048 objects in Figure 10 comes from here
    visited_linear_cmp_ns: float = 2.2
    visited_hash_probe_ns: float = 70.0

    # --- Java-style serializer (mpiJava OBJECT datatype) -----------------
    java_ser_per_obj_ns: float = 2_600.0
    java_ser_per_byte_ns: float = 2.2
    #: the consistent mid-range "bump" the paper observed (Figure 10)
    java_bump_lo: int = 64
    java_bump_hi: int = 512
    java_bump_per_obj_ns: float = 3_200.0
    #: Java's recursive writeObject overflows its stack past this many
    #: list elements (the paper's series stops at 1024 objects)
    java_recursion_limit: int = 512

    # --- pure-managed transport (JMPI over RMI) ---------------------------
    rmi_call_ns: float = 130_000.0
    rmi_per_byte_ns: float = 14.0

    # --- PAL -----------------------------------------------------------------
    pal_call_thin_ns: float = 80.0
    pal_call_thick_ns: float = 260.0

    # --- observability layer (repro.obs) ----------------------------------
    #: attached-but-disabled probe: the branch-and-return residue the A11
    #: ablation bounds at <=5% of a ping-pong iteration
    obs_hook_ns: float = 4.0
    obs_counter_ns: float = 15.0
    obs_event_ns: float = 150.0
    obs_span_ns: float = 400.0  # start/end pair, charged at start

    # --- sanitizer (repro.analyze) -----------------------------------------
    #: per-operation registry update (send/recv post bookkeeping)
    san_check_ns: float = 120.0

    def scaled(self, **overrides: float) -> "CostModel":
        """A copy of this model with selected fields overridden."""
        return replace(self, **overrides)

    # Convenience formulas -------------------------------------------------

    def gate_cost(self, gate: str, nargs: int, profile: "HostProfile | None" = None) -> float:
        """Per-call cost of a managed-to-native gate with ``nargs`` args."""
        mult = profile.runtime_mult if profile is not None else 1.0
        if gate == "fcall":
            return self.fcall_ns * mult
        if gate == "pinvoke":
            return (
                self.pinvoke_base_ns
                + self.pinvoke_per_arg_ns * nargs
                + self.pinvoke_security_ns
            ) * mult
        if gate == "jni":
            return (self.jni_base_ns + self.jni_per_arg_ns * nargs) * mult
        raise ValueError(f"unknown gate {gate!r}")

    def wire_cost(self, nbytes: int) -> float:
        """One-way transport cost of an ``nbytes`` message (eager path)."""
        npackets = max(1, -(-nbytes // self.packet_size))
        return (
            self.message_latency_ns
            + self.per_byte_ns * nbytes
            + self.packet_overhead_ns * npackets
        )


#: Hosting profiles used by the baselines (paper §8 test matrix).
HOST_PROFILES: dict[str, HostProfile] = {
    # The authors' own host: SSCLI "free" (optimised) build.
    "sscli-free": HostProfile(
        name="sscli-free",
        runtime_mult=1.0,
        pin_mult=1.0,
        serializer_per_obj_ns=4_600.0,
        serializer_per_byte_ns=2.6,
        gate="pinvoke",
    ),
    # Footnote 4: fastchecked builds impose a much larger pinning overhead,
    # which explains the bigger pinning cost reported in [7].
    "sscli-fastchecked": HostProfile(
        name="sscli-fastchecked",
        runtime_mult=1.35,
        pin_mult=4.0,
        serializer_per_obj_ns=6_200.0,
        serializer_per_byte_ns=3.4,
        gate="pinvoke",
    ),
    # Commercial .NET v1.1: faster runtime, much faster binary serializer
    # (the paper remarks on the .NET vs SSCLI serializer gap in Figure 10).
    "dotnet": HostProfile(
        name="dotnet",
        runtime_mult=0.62,
        pin_mult=0.8,
        serializer_per_obj_ns=2_600.0,
        serializer_per_byte_ns=1.2,
        gate="pinvoke",
    ),
    # Sun JDK 1.5 hosting mpiJava via JNI.
    "jvm": HostProfile(
        name="jvm",
        runtime_mult=1.1,
        pin_mult=1.2,
        serializer_per_obj_ns=2_600.0,
        serializer_per_byte_ns=2.2,
        gate="jni",
    ),
}


#: The interconnects, by ``channel=`` name (``ssm`` is a table of two of
#: them: :class:`repro.mp.channels.mem.LinkTable`).
LINK_PROFILES: dict[str, LinkProfile] = {
    # Motor's own configuration, MPICH2's sock channel over loopback: the
    # CostModel's transport figures as they stand, and no one-sided path.
    "sock": LinkProfile(
        latency_fraction=1.0,
        per_byte_fraction=1.0,
        rma_per_byte_fraction=None,
    ),
    # MPICH2's shm channel: a quarter of the socket latency, twice the
    # effective bandwidth.
    "shm": LinkProfile(
        latency_fraction=0.25,
        per_byte_fraction=0.5,
        rma_per_byte_fraction=0.2,
    ),
    # The paper's future-work port (§9), RDMA-flavoured: ~2 us instead of
    # ~24 us, a ~1 GB/s-class fabric, tiny payloads inline, and a
    # registration cost for every buffer region the HCA has not seen.
    "ib": LinkProfile(
        latency_fraction=0.08,
        per_byte_fraction=0.12,
        rma_per_byte_fraction=0.06,
        inline_max=220,
        inline_discount=0.6,
        registration_ns=18_000.0,
    ),
}
