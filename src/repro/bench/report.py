"""The experiment table, paper-claim checking and EXPERIMENTS.md generation.

Every quantitative claim the paper's evaluation makes is encoded here as
a checkable predicate over the regenerated series, and ``EXPERIMENTS`` —
the one place an experiment is declared — joins each runner of
:mod:`repro.bench.figures` to its claims, its paper section and its
smoke membership.  ``build_report`` runs the table, evaluates the claims
and renders the paper-vs-measured record that EXPERIMENTS.md carries.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import truediv
from typing import Callable

from repro.bench import figures
from repro.bench.figures import BUFFER, TREE, Experiment, Sweep
from repro.bench.harness import SeriesSet, mean
from repro.workloads.pingpong import FIG9_SIZES


#: version of the machine-readable bench summary layout (BENCH_smoke.json
#: and BENCH_recovery.json); bump when consumers must re-parse
BENCH_SCHEMA_VERSION = 1


def run_metadata() -> dict:
    """Provenance stamped into every bench JSON artifact."""
    import datetime
    import os
    import platform
    import subprocess

    meta = {
        "generated_at": datetime.datetime.now(datetime.timezone.utc).isoformat(
            timespec="seconds"
        ),
        "python": platform.python_version(),
        "platform": platform.platform(),
    }
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"],
            capture_output=True, text=True, timeout=5,
            cwd=os.path.dirname(os.path.abspath(__file__)),
        ).stdout.strip()
        meta["commit"] = commit or None
    except Exception:
        meta["commit"] = None
    return meta


@dataclass
class ClaimResult:
    claim: str
    paper: str
    measured: str
    holds: bool


def _ratio_pct(a: float, b: float) -> float:
    return (a / b - 1.0) * 100.0


Check = Callable[[SeriesSet], list[ClaimResult]]


def mean_ratio(
    num: str, den: str, claim: str, paper: str, measured: str,
    ok: Callable[[float], bool], of: Callable[[float, float], float] = truediv,
) -> Check:
    """The claim ``ok(mean over x of of(num[x], den[x]))``; ``measured`` formats it."""

    def check(s: SeriesSet) -> list[ClaimResult]:
        a, b = s.series[num], s.series[den]
        v = mean(of(a[x], b[x]) for x in s.xs())
        return [ClaimResult(claim, paper, measured.format(v), ok(v))]

    return check


def claims(*checks: Check) -> Check:
    """One experiment's claims, in order."""
    return lambda s: [c for check in checks for c in check(s)]


def check_fig9(s: SeriesSet) -> list[ClaimResult]:
    out = []
    xs = s.xs()
    motor = s.series["Motor"]
    sscli = s.series["Indiana SSCLI"]
    # ordering claim
    order_ok = all(
        s.value("C++", x) <= s.value("Motor", x) <= s.value("Indiana .NET", x)
        <= s.value("Indiana SSCLI", x) <= s.value("Java", x)
        for x in xs
    )
    out.append(
        ClaimResult(
            claim="series ordering per iteration",
            paper="C++ < Motor < Indiana .NET < Indiana SSCLI < Java",
            measured="same ordering at every buffer size" if order_ok else "ordering differs",
            holds=order_ok,
        )
    )
    ratios = {x: _ratio_pct(sscli[x], motor[x]) for x in xs}
    peak = max(ratios.values())
    avg = mean(ratios.values())
    big = mean(v for x, v in ratios.items() if x > 65536)
    out.append(
        ClaimResult(
            claim="Motor vs Indiana-SSCLI, peak",
            paper="16%",
            measured=f"{peak:.1f}%",
            holds=10.0 <= peak <= 22.0,
        )
    )
    out.append(
        ClaimResult(
            claim="Motor vs Indiana-SSCLI, average over all sizes",
            paper="8%",
            measured=f"{avg:.1f}%",
            holds=5.0 <= avg <= 13.0,
        )
    )
    out.append(
        ClaimResult(
            claim="Motor vs Indiana-SSCLI, average above 64 KiB",
            paper="3%",
            measured=f"{big:.1f}%",
            holds=1.0 <= big <= 6.0,
        )
    )
    return out


def check_fig10(s: SeriesSet) -> list[ClaimResult]:
    out = []
    xs = s.xs()
    motor = s.series["Motor"]
    below = [x for x in xs if x < 2048]
    best_below = all(
        motor[x] <= min(v for name, pts in s.series.items() if name != "Motor"
                        for xx, v in pts.items() if xx == x and v is not None)
        for x in below
    )
    out.append(
        ClaimResult(
            claim="Motor fastest below 2048 objects",
            paper="best for object counts < 2048",
            measured="Motor lowest at every point below 2048" if best_below else "not lowest somewhere",
            holds=best_below,
        )
    )
    # degradation: Motor grows superlinearly past 2048 (linear visited record)
    degr = motor[8192] / motor[2048] if motor.get(8192) and motor.get(2048) else 0
    out.append(
        ClaimResult(
            claim="Motor degrades beyond 2048 objects (linear visited record)",
            paper="poorer results for large numbers of objects",
            measured=f"{degr:.1f}x from 2048 to 8192 objects (4x would be linear)",
            holds=degr > 5.0,
        )
    )
    java = s.series["mpiJava"]
    stopped = all(java.get(x) is None for x in xs if x > 1024) and java.get(1024) is not None
    out.append(
        ClaimResult(
            claim="mpiJava series stops at 1024 objects",
            paper="longer lists caused a stack overflow in Java serialization",
            measured="no data points above 1024 objects" if stopped else "points exist above 1024",
            holds=stopped,
        )
    )
    dotnet, sscli = s.series["Indiana (.NET)"], s.series["Indiana (SSCLI)"]
    gap = mean(_ratio_pct(sscli[x], dotnet[x]) for x in xs if sscli.get(x) and dotnet.get(x))
    out.append(
        ClaimResult(
            claim=".NET serializer faster than SSCLI serializer",
            paper="interesting ... difference in performance of the .Net and SSCLI serialization mechanisms",
            measured=f"SSCLI slower by {gap:.0f}% on average",
            holds=gap > 30.0,
        )
    )
    # the mpiJava bump: mid-range points sit above the line interpolated
    # between the small- and large-count ends
    if java.get(32) and java.get(1024) and java.get(256):
        import math

        lo, hi = math.log(java[32]), math.log(java[1024])
        interp = math.exp(lo + (hi - lo) * (math.log(256 / 32) / math.log(1024 / 32)))
        bump = _ratio_pct(java[256], interp)
        out.append(
            ClaimResult(
                claim="mpiJava mid-range bump",
                paper="the bump in mpiJava is consistent",
                measured=f"256-object point {bump:+.0f}% vs log-log interpolation",
                holds=bump > 5.0,
            )
        )
    return out


def check_ablate_calls(s: SeriesSet) -> list[ClaimResult]:
    f = mean(s.series["FCall"].values())
    p = mean(s.series["P/Invoke"].values())
    j = mean(s.series["JNI"].values())
    return [
        ClaimResult(
            claim="FCall much cheaper than P/Invoke and JNI",
            paper="FCalls ... are more efficient than P/Invoke calls because they do not have parameter marshalling and security checks (§5.1)",
            measured=f"FCall {f:.0f} ns, P/Invoke {p:.0f} ns, JNI {j:.0f} ns per call",
            holds=f * 5 < p and p < j,
        )
    ]


def check_ablate_buildtype(s: SeriesSet) -> list[ClaimResult]:
    free = mean(s.series["sscli-free"].values())
    fast = mean(s.series["sscli-fastchecked"].values())
    return [
        ClaimResult(
            claim="fastchecked pinning much more expensive than free builds",
            paper="fastchecked builds ... impose a greater pinning overhead than the Free build (footnote 4)",
            measured=f"fastchecked/free pin cost ratio {fast / free:.1f}x",
            holds=fast / free > 2.0,
        )
    ]


def check_ablate_visited(s: SeriesSet) -> list[ClaimResult]:
    lin = s.series["linear"]
    hsh = s.series["hashed"]
    big = max(x for x in s.xs() if lin.get(x) and hsh.get(x))
    small = min(s.xs())
    return [
        ClaimResult(
            claim="hashed visited record fixes the large-N degradation",
            paper="will be improved when we implement an efficient structure to record objects visited (§8)",
            measured=(
                f"at {big} objects linear/hashed = {lin[big] / hsh[big]:.1f}x; "
                f"at {small} objects = {lin[small] / hsh[small]:.2f}x"
            ),
            holds=lin[big] / hsh[big] > 1.5 and lin[small] / hsh[small] < 1.2,
        )
    ]


def check_ablate_protocol(s: SeriesSet) -> list[ClaimResult]:
    lo = s.series["eager@16K"]
    hi = s.series["eager@128K"]
    mid = 65536  # between the two thresholds
    return [
        ClaimResult(
            claim="threshold placement moves the rendezvous knee",
            paper="implicit in MPICH2's protocol design (§6)",
            measured=(
                f"at 64 KiB: eager@16K {lo[mid]:.0f} us vs eager@128K {hi[mid]:.0f} us"
            ),
            holds=lo[mid] > hi[mid],
        )
    ]


def check_ablate_pal(s: SeriesSet) -> list[ClaimResult]:
    win = mean(s.series["windows"].values())
    unix = mean(s.series["unix"].values())
    return [
        ClaimResult(
            claim="UNIX PAL thicker than Windows PAL",
            paper="the Windows implementation is thin, while ... the UNIX PAL, is thicker (§5.4)",
            measured=f"unix/windows per-call cost ratio {unix / win:.1f}x",
            holds=unix / win > 1.5,
        )
    ]


def check_ablate_interconnect(s: SeriesSet) -> list[ClaimResult]:
    xs = s.xs()
    faster = all(
        s.value("Motor / ib", x) < s.value("Motor / sock", x) for x in xs
    )
    gaps_ok = all(
        s.value("Motor / ib", x) / s.value("C++ / ib", x) < 1.25 for x in xs
    )
    return [
        ClaimResult(
            claim="channel swap ports the whole stack",
            paper="the layered architecture will allow us to port Motor to other interconnects (§9)",
            measured=(
                "Motor runs unmodified over ib, faster at every size"
                if faster
                else "ib not faster somewhere"
            ),
            holds=faster,
        ),
        ClaimResult(
            claim="Motor stays close to native on the new interconnect",
            paper="implicit: the integration overhead is interconnect-independent",
            measured="Motor within 25% of native C++ over ib at every size"
            if gaps_ok
            else "gap exceeded 25%",
            holds=gaps_ok,
        ),
    ]


def check_ablate_copies(s: SeriesSet) -> list[ClaimResult]:
    eager = s.series["eager-matched"]
    rndv = s.series["rendezvous"]
    unexp = s.series["eager-unexpected"]
    granted = s.series["rendezvous / shm"]
    e_peak = max(eager.values())
    r_peak = max(rndv.values())
    u_exact = all(abs(v - 2.0) < 1e-9 for v in unexp.values())
    return [
        ClaimResult(
            claim="matched eager delivers with at most one copy per byte",
            paper="zero-copy data plane: the packet's wire view lands straight in the posted buffer",
            measured=f"copies/byte peak {e_peak:.3f}",
            holds=e_peak <= 1.0,
        ),
        ClaimResult(
            claim="rendezvous lands with at most one copy per byte",
            paper="zero-copy data plane: DATA chunks window the latched source buffer",
            measured=f"copies/byte peak {r_peak:.3f}",
            holds=r_peak <= 1.0,
        ),
        ClaimResult(
            claim="unexpected eager pays exactly the one staging copy",
            paper="zero-copy data plane: stage + deliver = exactly 2 copies per byte",
            measured=", ".join(f"{v:.3f}" for v in unexp.values()) + " copies/byte",
            holds=u_exact,
        ),
        ClaimResult(
            claim="a put-capable channel lands a rendezvous with 0.0 copies per "
                  "byte; the packet plane pays exactly 1.0",
            paper="rendezvous by grant (Liu et al.): the CTS names the posted "
                  "buffer and the sender writes it",
            measured=f"copies/byte: shm peak {max(granted.values()):.3f}, "
                     f"sock floor {min(rndv.values()):.3f}",
            holds=max(granted.values()) == 0.0 and min(rndv.values()) == r_peak == 1.0,
        ),
    ]


def check_ablate_checkpoint(s: SeriesSet) -> list[ClaimResult]:
    base = s.series["baseline"]
    ckpt = s.series["checkpointed"]
    # gate the recommended cadence; shorter cadences are informational
    gate_x = 200 if 200 in base else max(base)
    ratio = ckpt[gate_x] / base[gate_x]
    worst = max(ckpt[x] / base[x] for x in s.xs())
    return [
        ClaimResult(
            claim="fault-free coordinated checkpointing is nearly free",
            paper="robustness extension: <=2% elapsed overhead at the "
            "recommended cadence (one checkpoint per 200 units)",
            measured=f"checkpointed/baseline ratio {ratio:.4f}x at "
            f"ckpt_every={gate_x} (worst cadence {worst:.4f}x)",
            holds=ratio <= 1.02,
        )
    ]


def check_ablate_progress(s: SeriesSet) -> list[ClaimResult]:
    ranks = s.xs()
    p_ov = s.series["polled-overlap"]
    a_ov = s.series["async-overlap"]
    p_el = s.series["polled-elapsed-ms"]
    a_el = s.series["async-elapsed-ms"]
    p_w = s.series["polled-wait-ms"]
    a_w = s.series["async-wait-ms"]
    ident = s.series["results-identical"]
    a_mean = sum(a_ov.values()) / len(a_ov)
    speedup = (sum(p_el.values()) / len(p_el)) / (sum(a_el.values()) / len(a_el))
    return [
        ClaimResult(
            claim="async progress overlaps communication with compute",
            paper="MPI Progress For All: progression must not depend on the "
            "caller entering the library",
            measured=f"overlap ratio polled {max(p_ov.values()):.2f} -> async "
            f"mean {a_mean:.2f} (per rank "
            + ", ".join(f"{a_ov[r]:.2f}" for r in ranks)
            + ")",
            holds=max(p_ov.values()) == 0.0 and a_mean >= 0.4,
        ),
        ClaimResult(
            claim="overlap shortens the run: compute hides the wire time",
            paper="elapsed drops toward max(compute, comm); blocked-in-wait "
            "time collapses",
            measured=f"elapsed polled/async {speedup:.2f}x; blocked ms "
            f"{sum(p_w.values()):.2f} -> {sum(a_w.values()):.2f}",
            holds=speedup >= 1.15,
        ),
        ClaimResult(
            claim="async progression changes when traffic moves, not results",
            paper="identical numerical results in both progress modes",
            measured="identical on every rank"
            if all(v == 1.0 for v in ident.values())
            else "results differ between modes",
            holds=all(v == 1.0 for v in ident.values()),
        ),
    ]


def check_ablate_rma(s: SeriesSet) -> list[ClaimResult]:
    ranks = s.xs()
    speedup = s.series["speedup"]
    n_copied = s.series["native-rma-copied-bytes"]
    e_copied = s.series["emulated-rma-copied-bytes"]
    n_moved = s.series["native-bytes-moved"]
    e_moved = s.series["emulated-bytes-moved"]
    n_emu_ops = s.series["native-emulated-ops"]
    e_nat_ops = s.series["emulated-native-ops"]
    ident = s.series["digests-identical"]
    return [
        ClaimResult(
            claim="native window path beats emulation at large windows",
            paper="one-sided ops that bypass the target's message path "
            "(MPICH2-over-IB RMA): direct writes vs packetised lowering",
            measured="epoch speedup per rank "
            + ", ".join(f"{speedup[r]:.2f}x" for r in ranks),
            holds=all(v >= 2.0 for v in speedup.values()),
        ),
        ClaimResult(
            claim="native RMA moves every byte with zero payload copies",
            paper="the window write lands in place; no staging, no landing "
            "memcpy",
            measured=f"native copied {sum(n_copied.values()):.0f} B of "
            f"{sum(n_moved.values()):.0f} B moved; "
            f"{sum(n_emu_ops.values()):.0f} ops fell back to emulation",
            holds=sum(n_copied.values()) == 0.0
            and sum(n_moved.values()) > 0.0
            and sum(n_emu_ops.values()) == 0.0,
        ),
        ClaimResult(
            claim="emulation pays exactly one landing copy per byte",
            paper="the packet plane stages each chunk and memcpys it into "
            "the exposed window",
            measured=f"emulated copied {sum(e_copied.values()):.0f} B of "
            f"{sum(e_moved.values()):.0f} B moved; "
            f"{sum(e_nat_ops.values()):.0f} ops took the native path",
            holds=all(e_copied[r] == e_moved[r] and e_moved[r] > 0.0 for r in ranks)
            and sum(e_nat_ops.values()) == 0.0,
        ),
        ClaimResult(
            claim="the two arms compute bit-identical grids",
            paper="the fast path changes where bytes travel, not what "
            "arrives",
            measured="digests identical on every rank"
            if all(v == 1.0 for v in ident.values())
            else "grid digests differ between arms",
            holds=all(v == 1.0 for v in ident.values()),
        ),
    ]




_FAST_PATH_SIZES = [4, 1024, 65536, 262144]

#: the experiment table, in EXPERIMENTS.md order: every figure and ablation
#: is declared here and nowhere else
EXPERIMENTS: dict[str, Experiment] = {e.id: e for e in (
    Experiment(
        "fig9", "Figure 9: regular MPI ping-pong",
        "Ping-pong comparison of regular MPI operations", "§8",
        # the paper's series labels, mapped to our adapter names
        Sweep(BUFFER, [
            ("Java", "mpijava", {}),
            ("Indiana SSCLI", "indiana-sscli", {}),
            ("Indiana .NET", "indiana-dotnet", {}),
            ("Motor", "motor", {}),
            ("C++", "cpp", {}),
        ]),
        check_fig9,
        notes=("expected shape: C++ fastest, Motor second, then Indiana .NET, "
               "Indiana SSCLI, Java (paper Figure 9)",),
    ),
    Experiment(
        "fig10", "Figure 10: object-tree ping-pong",
        "Ping-pong transport of a linked list of objects", "§8",
        Sweep(TREE, [
            ("Motor", "motor", {}),
            ("mpiJava", "mpijava", {}),
            ("Indiana (.NET)", "indiana-dotnet", {}),
            ("Indiana (SSCLI)", "indiana-sscli", {}),
        ]),
        check_fig10,
        notes=("mpiJava stops at 1024 objects: longer lists overflow the Java "
               "serializer's stack (paper Figure 10 caption)",
               "Motor is fastest below 2048 objects and degrades beyond it: the "
               "linear visited-object record (paper §8)"),
    ),
    Experiment(
        "ablate-calls", "A1: call mechanisms",
        "Managed-to-native call gate cost", "§5.1",
        figures.ablate_calls, check_ablate_calls,
        notes=("FCalls skip marshalling and security checks (paper §5.1); the gap "
               "is the per-MPI-call overhead wrapper bindings pay",),
    ),
    Experiment(
        "ablate-pinning", "A2: pinning policy",
        "Pinning policy vs per-operation pinning (Motor)", "§4.3/§7.4",
        Sweep(BUFFER, [("policy", "motor", {}), ("pin-always", "motor-pin-always", {})],
              quick=[4, 256, 4096, 65536, 262144]),
        mean_ratio(
            "pin-always", "policy", "pinning policy beats pin-per-operation",
            "pinning is performed only when necessary, reducing overhead (§8)",
            "pin-always slower by {:.1f}% on average", lambda pct: pct > 1.0, of=_ratio_pct,
        ),
        notes=("the policy skips elder-generation objects and defers young pins to "
               "the polling-wait (paper §7.4)",),
    ),
    Experiment(
        "ablate-buildtype", "A3: build-type pinning cost",
        "Pin/unpin pair cost by host build type", "footnote 4",
        figures.ablate_buildtype, check_ablate_buildtype,
        notes=("fastchecked builds pin several times more expensively than free "
               "builds — why [7] measured a larger pinning overhead (footnote 4)",),
    ),
    Experiment(
        "ablate-visited", "A4: visited structure",
        "Visited-object record: linear (paper) vs hashed (future work)", "§8",
        Sweep(TREE, [("linear", "motor", {}), ("hashed", "motor-hashed", {})],
              quick=[2, 64, 512, 2048, 8192]),
        check_ablate_visited,
        notes=("the hashed record removes the quadratic search the paper blames "
               "for Motor's degradation above 2048 objects (§8)",),
    ),
    Experiment(
        "ablate-split", "A5: split vs atomic serialization",
        "Object-array scatter preparation: split vs atomic", "§2.4",
        figures.ablate_split,
        mean_ratio(
            "standard-atomic", "motor-split",
            "split representation beats N separate serializations",
            "inefficient considering a custom serialization mechanism could ... "
            "create a split representation (§2.4)",
            "atomic approach slower by {:.0f}% on average", lambda pct: pct > 20.0, of=_ratio_pct,
        ),
        notes=("atomic serializers must create N new sub-arrays and serialize them "
               "individually (paper §2.4); the split representation is one pass",),
    ),
    Experiment(
        "ablate-protocol", "A6: eager/rendezvous crossover",
        "Eager/rendezvous threshold and the curve knee (native)", "§6",
        Sweep(BUFFER, [
            ("eager@16K", "cpp", {"eager_threshold": 16 * 1024}),
            ("eager@128K", "cpp", {"eager_threshold": 128 * 1024}),
        ], quick=[16384, 65536, 131072, 262144], full=FIG9_SIZES[8:]),
        check_ablate_protocol,
        notes=("messages above the threshold pay the RTS/CTS handshake; moving the "
               "threshold moves the knee (MPICH2 protocol, paper §6)",),
    ),
    Experiment(
        "ablate-pure-managed", "A7: pure managed MPI",
        "Pure managed MPI (JMPI/RMI) vs Motor vs native", "§2.1",
        Sweep(BUFFER, [("C++", "cpp", {}), ("Motor", "motor", {}), ("JMPI", "jmpi", {})],
              quick=_FAST_PATH_SIZES),
        mean_ratio(
            "JMPI", "Motor", "pure managed MPI is much slower",
            "completely portable ... but offers relatively low performance (§2.1)",
            "JMPI {:.1f}x Motor on average", lambda r: r > 2.0,
        ),
        notes=("pure managed implementations are portable but slow (paper §2.1): "
               "every transfer is serialized through the RMI stack",),
    ),
    Experiment(
        "ablate-pal", "A8: PAL backend thickness",
        "PAL backend cost: thin Windows vs thick UNIX emulation", "§5.4",
        figures.ablate_pal, check_ablate_pal,
        notes=("porting the runtime = re-implementing the PAL; the UNIX PAL pays "
               "Win32-emulation overhead on every call (paper §5.4)",),
    ),
    # The future-work interconnect port (paper §9).  Motor and the native
    # baseline run unmodified over the RDMA-flavoured ``ib`` channel; only
    # the channel changed, and the Motor-vs-native gap stays small while
    # absolute times drop.
    Experiment(
        "ablate-interconnect", "A9: interconnect port (future work)",
        "Channel swap: sock vs ib, same stack above", "§9",
        Sweep(BUFFER, [
            ("C++ / sock", "cpp", {"channel": "sock"}),
            ("Motor / sock", "motor", {"channel": "sock"}),
            ("C++ / ib", "cpp", {"channel": "ib"}),
            ("Motor / ib", "motor", {"channel": "ib"}),
        ], quick=[4, 4096, 65536], full=FIG9_SIZES[::4]),
        check_ablate_interconnect,
        notes=("'The layered Motor architecture will allow us to port Motor to "
               "other platforms and interconnects' (paper §9) — nothing above the "
               "five-function channel interface changed",),
    ),
    # The reliability sublayer's fault-free cost.  Seq/CRC sealing, ack
    # generation and retransmit bookkeeping run on every packet once
    # ``reliable`` is on; over a fault-free wire the whole sublayer should
    # be close to free (the target is a <=5% mean slowdown on the Figure 9
    # ping-pong), which is what makes it acceptable to enable whenever a
    # fault plan is present.
    Experiment(
        "ablate-reliability", "A10: reliability sublayer overhead",
        "Reliability sublayer overhead on a fault-free wire (native)", "extension: robustness",
        Sweep(BUFFER, [
            ("baseline", "cpp", {"reliable": False}),
            ("reliable", "cpp", {"reliable": True}),
        ], quick=_FAST_PATH_SIZES),
        mean_ratio(
            "reliable", "baseline", "reliability sublayer is nearly free on a fault-free wire",
            "robustness extension: seq/CRC/ack costs <=5% on the Figure 9 ping-pong",
            "reliable/baseline mean ratio {:.3f}x", lambda r: r <= 1.05,
        ),
        notes=("acks are piggy-backed per poll batch and CRC32 is a single zlib "
               "call, so the sublayer prices in as noise; faults are what cost "
               "(retransmit timeouts), not the insurance",),
        smoke=True,
    ),
    # The observability layer's cost on the fast path.  Three configurations
    # of the same ping-pong: no instrumentation, hooks attached but disabled
    # (how a production run would ship — every hot-path guard is crossed but
    # nothing records), and full recording.  The claim is that
    # attached-but-disabled instrumentation costs <=5% (it is a handful of
    # ``is not None`` tests per message), so leaving the hooks compiled in is
    # free; recording costs whatever the pvar and span bookkeeping genuinely
    # costs, which A11 also shows.
    Experiment(
        "ablate-obs", "A11: observability layer overhead",
        "Observability layer overhead on the ping-pong fast path (native)",
        "extension: observability",
        Sweep(BUFFER, [
            ("baseline", "cpp", {"observe": None}),
            ("obs-disabled", "cpp", {"observe": "disabled"}),
            ("obs-enabled", "cpp", {"observe": "enabled"}),
        ], quick=_FAST_PATH_SIZES),
        claims(
            mean_ratio(
                "obs-disabled", "baseline", "attached-but-disabled instrumentation is nearly free",
                "observability extension: inert hooks cost <=5% on the Figure 9 ping-pong",
                "disabled/baseline mean ratio {:.3f}x", lambda r: r <= 1.05,
            ),
            mean_ratio(
                "obs-enabled", "baseline", "full recording stays in the same order of magnitude",
                "observability extension: enabled recording costs <=50% on the ping-pong",
                "enabled/baseline mean ratio {:.3f}x", lambda r: r <= 1.50,
            ),
        ),
        notes=("pvars are pull-model (read at snapshot time, MPI_T-style), so the "
               "progress loop carries no probe at all; disabled hooks cost one "
               "branch per message event, which prices in as noise",),
        smoke=True,
    ),
    # The runtime sanitizer's cost on the fast path.  Same three-way shape
    # as A11: no sanitizer, sanitizer attached but disabled (every ``san is
    # not None`` guard is crossed and every rank view early-returns), and
    # full checking (registry updates, CRC snapshots).  The claim the acceptance criteria bound is the middle
    # column: a detached/disabled sanitizer must price within 1% of the
    # baseline, so the hooks can stay compiled into the device and progress
    # engine permanently.
    Experiment(
        "ablate-sanitize", "A12: runtime sanitizer overhead",
        "Runtime sanitizer overhead on the ping-pong fast path (native)", "extension: analyzer",
        Sweep(BUFFER, [
            ("baseline", "cpp", {"sanitize": None}),
            ("san-disabled", "cpp", {"sanitize": "disabled"}),
            ("san-enabled", "cpp", {"sanitize": "enabled"}),
        ], quick=_FAST_PATH_SIZES),
        claims(
            mean_ratio(
                "san-disabled", "baseline",
                "a detached (disabled) sanitizer is free on the fast path",
                "analyzer extension: inert san hooks cost <=1% on the Figure 9 ping-pong",
                "disabled/baseline mean ratio {:.3f}x", lambda r: r <= 1.01,
            ),
            mean_ratio(
                "san-enabled", "baseline", "full checking stays in the same order of magnitude",
                "analyzer extension: enabled checking costs <=50% on the ping-pong",
                "enabled/baseline mean ratio {:.3f}x", lambda r: r <= 1.50,
            ),
        ),
        notes=("disabled rank views early-return before touching the shared core, "
               "so the residue is one attribute test plus one enabled test per "
               "message event; enabled runs pay registry locking, CRC snapshots "
               "and a deadlock sweep each idle-wait backoff",),
        smoke=True,
    ),
    # The hook spine's residue on an unobserved run.  The unified spine
    # replaced per-module ``obs``/``san`` attributes with one compiled
    # dispatcher: every emit site is a slot load plus a falsy check on an
    # empty tuple.  Three configurations of the ping-pong: nothing ever
    # attached (baseline), observer and sanitizer attached then immediately
    # detached (``"detached"`` — the emit sites cross an empty spine that
    # once held subscribers), and both attached but disabled (the
    # subscribers are dispatched to and early-return).  The acceptance bound
    # is the middle column: a detached spine must price within 1% of never
    # having attached at all.
    Experiment(
        "ablate-spine", "A13: hook spine residue",
        "Hook spine residue on the ping-pong fast path (native)", "extension: hook spine",
        Sweep(BUFFER, [
            ("baseline", "cpp", {"observe": None, "sanitize": None}),
            ("spine-detached", "cpp", {"observe": "detached", "sanitize": "detached"}),
            ("attached-disabled", "cpp", {"observe": "disabled", "sanitize": "disabled"}),
        ], quick=_FAST_PATH_SIZES),
        claims(
            mean_ratio(
                "spine-detached", "baseline", "a detached hook spine leaves no measurable residue",
                "spine refactor: empty dispatch tuples cost <=1% on the Figure 9 ping-pong",
                "detached/baseline mean ratio {:.3f}x", lambda r: r <= 1.01,
            ),
            mean_ratio(
                "attached-disabled", "baseline",
                "attached-but-disabled observer+sanitizer stay nearly free",
                "spine refactor: early-returning subscribers cost <=5% together",
                "disabled/baseline mean ratio {:.3f}x", lambda r: r <= 1.05,
            ),
        ),
        notes=("detached dispatch tuples are empty, so each emit site costs one "
               "attribute load and one truth test — indistinguishable from never "
               "wiring the spine; disabled subscribers add the bound-method call "
               "and an early return per subscribed event",),
        smoke=True,
    ),
    Experiment(
        "ablate-copies", "A14: copy accounting per delivery path",
        "Copy accounting: receiver copies per byte moved", "extension: zero-copy data plane",
        figures.ablate_copies, check_ablate_copies,
        notes=("matched eager and rendezvous land at <=1 copy per byte (the wire "
               "view windows the latched source buffer); unexpected eager pays "
               "exactly one extra staging copy (stage + deliver = 2); over shm "
               "the sender's granted put lands a rendezvous with no copy at all",),
        smoke=True,
    ),
    Experiment(
        "ablate-checkpoint", "A15: coordinated checkpoint overhead",
        "Coordinated checkpoint overhead on a fault-free run", "extension: recovery",
        figures.ablate_checkpoint, check_ablate_checkpoint,
        notes=("the dominant term is not protocol chatter but the drain to a "
               "consistent cut (one batch of scheduling skew per checkpoint), "
               "so the premium shrinks as the cadence grows",),
        smoke=True,
    ),
    Experiment(
        "ablate-progress", "A16: polled vs. async progress overlap",
        "Progress modes: polled vs. async on compute+communicate", "extension: async progress",
        figures.ablate_progress, check_ablate_progress,
        notes=("async progress defers clock merges for packets handled during "
               "compute (the arrival lands when the data is consumed), so the "
               "rendezvous stream's wire time hides under the charges instead of "
               "serialising after them",),
        smoke=True,
    ),
    Experiment(
        "ablate-rma", "A17: one-sided windows native vs emulated",
        "One-sided windows: native channel RMA vs emulation", "extension: one-sided windows",
        figures.ablate_rma, check_ablate_rma, smoke=True,
    ),
)}

Result = tuple[Experiment, SeriesSet, list[ClaimResult]]


def run_experiment(exp_id: str, quick: bool = True) -> tuple[SeriesSet, list[ClaimResult]]:
    exp = EXPERIMENTS[exp_id]
    series = exp.run(quick)
    return series, exp.check(series)


def run_table(quick: bool = True, experiments: list[str] | None = None) -> list[Result]:
    """Run rows of the table (all of them by default), in the order given."""
    ids = experiments or list(EXPERIMENTS)
    return [(EXPERIMENTS[i], *run_experiment(i, quick)) for i in ids]


def render_claims(claims: list[ClaimResult]) -> str:
    lines = []
    for c in claims:
        mark = "HOLDS" if c.holds else "DIFFERS"
        lines.append(f"[{mark}] {c.claim}")
        lines.append(f"    paper:    {c.paper}")
        lines.append(f"    measured: {c.measured}")
    return "\n".join(lines)


def render_sections(results: list[Result]) -> str:
    """EXPERIMENTS.md's data section: one series table and claim block per row."""
    parts = []
    for exp, series, claims in results:
        parts.append(f"## {exp.heading}\n")
        parts.append("```")
        parts.append(series.render_table().rstrip())
        parts.append("```\n")
        if claims:
            parts.append("```")
            parts.append(render_claims(claims))
            parts.append("```\n")
    return "\n".join(parts)


def render_summary(results: list[Result]) -> str:
    """EXPERIMENTS.md's summary: the count and one table row per claim."""
    rows = [(exp, c) for exp, _series, claims in results for c in claims]
    lines = [
        f"Summary: **{sum(c.holds for _e, c in rows)} of {len(rows)} claims hold.**",
        "",
        "| Experiment | Claim | Paper | Measured | Verdict |",
        "|---|---|---|---|---|",
    ]
    for exp, c in rows:
        cells = (
            f"{exp.heading.partition(':')[0]} ({exp.section})", c.claim, c.paper,
            c.measured, "HOLDS" if c.holds else "DIFFERS",
        )
        lines.append("| " + " | ".join(x.replace("|", "\\|") for x in cells) + " |")
    return "\n".join(lines) + "\n"


def build_report(quick: bool = True, experiments: list[str] | None = None) -> str:
    """Run experiments and render the EXPERIMENTS.md body."""
    return render_sections(run_table(quick, experiments))


SUMMARY_BEGIN = "<!-- claim summary: generated by `python -m repro.bench write-experiments` -->\n"
SUMMARY_END = "<!-- end of claim summary -->\n"
DATA_HEADING = "# Regenerated series and claim checks\n"


def rewrite_experiments_md(current: str, results: list[Result]) -> str:
    """EXPERIMENTS.md with its two generated parts replaced: the claim
    summary between the markers (inserted before the data heading when a
    file has none) and everything after the data heading; the prose
    around them is kept."""
    head, _, rest = current.partition(DATA_HEADING)[0].partition(SUMMARY_BEGIN)
    prose = rest.partition(SUMMARY_END)[2]
    return (
        head + SUMMARY_BEGIN + "\n" + render_summary(results) + "\n" + SUMMARY_END
        + prose + DATA_HEADING + "\n" + render_sections(results)
    )
