"""The static pass: System.MP checks over IL assemblies (MA-S00..S11).

The paper's safety claim is that Motor verifies message-passing programs
*before* they run (§4).  This module is the analyzer's one IL
interpreter: it executes each verified method symbolically, once per
**rank predicate**, flowing *values* — affine integers, the class or
element type behind a ``newobj``/``newarr`` reference, request handles,
the window epoch — through stack, locals and args:

* ``MP.Rank()`` / ``MP.Size()`` results are the symbols of an affine
  domain (``a*rank + b*size + c``), so peers like ``1 - rank`` or roots
  like ``size - 1`` stay precise;
* a branch whose condition depends on those symbols *splits the path*,
  refining its predicate (``rank == 0`` / ``rank != 0``); branches on
  unknown data fork without refinement; unsatisfiable predicates are
  pruned against a small rank/size sample grid;
* each surviving path yields a **communication summary**: the ordered
  collective sequence, pt2pt endpoints with affine peer+tag, buffer
  stores, and request lifetimes (create → wait/test);
* every ``MP.*`` ``callintern`` keeps one **site entry** per method: its
  argument values and window epoch, joined over every walk that reached
  it (equal values stay, unequal ones keep only their verification
  type).  Blocks no path enters — a rank branch pruned on the sample
  grid, the dead side of a constant branch, a fork past the path budget
  — are walked once for their sites alone, so every reachable site is
  checked.

Five rules read the site entries:

* **MA-S01** — a reference-bearing class (or reference-array) reaches a
  raw transfer's buffer argument.  The binding would raise
  ``ObjectModelViolation`` at run time (§4.2.1); the object transport
  (``MP.OSend``/``MP.ORecv``) is the fix.
* **MA-S02** — the site disagrees with the declared call-signature table
  (:data:`repro.motor.system_mp.MP_CALLSIGS`): wrong arity, wrong use of
  the return value, or an argument of the wrong kind.
* **MA-S03** — a send whose tag (and peer, when a world size is given)
  can never be matched by any receive in the assembly.
* **MA-S04** — a ``callintern`` naming an ``MP.*`` internal that does not
  exist.
* **MA-S11** — a one-sided op (``MP.WinPut``/``WinGet``/``WinAccumulate``)
  reachable with every window epoch *definitely closed*: ``MP.WinFence``
  toggles the epoch, ``MP.WinFree`` closes it, and paths that disagree
  join to unknown, so only sites no path opened an epoch for are
  flagged — the static shadow of the runtime MA-R06.

A statically unknown value (a join of disagreeing paths, a method
parameter, a field load) is compatible with everything, so clean
programs stay clean.  **MA-S00** marks a method that failed baseline IL
verification; it is not interpreted.

Six rules consume the path summaries:

* **MA-S05** — rank-disjoint paths with different collective sequences
  (static deadlock at the first divergence);
* **MA-S06** — a statically matched send/recv pair disagreeing on
  element type or truncating the payload;
* **MA-S07** — a store into a buffer between its nonblocking post and
  the Wait that completes it (static MA-R03);
* **MA-S08** — a request handle reaching method exit un-waited;
* **MA-S09** — a cycle of blocking operations in the concretized
  send/recv graph (head-to-head ``Ssend``/``Recv``);
* **MA-S10** — a wildcard receive with more than one statically matched
  candidate in flight (static MA-R02).

Matching-based rules (S06/S09/S10) come from a deterministic **matching
simulation** of the summaries over concrete small worlds (the declared
``world_size``, else sizes 2 and 3): each rank follows the first path
whose predicate it satisfies; sends/receives/collectives advance under
MPI matching semantics; a global stall with a cycle of blocked pt2pt
operations is a static deadlock.  Everything is conservative: paths cut
by the loop bound or the path budget, or ops with non-affine endpoints,
disable the rules that would need them rather than guess.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from repro.analyze.cfg import CFG, build_cfg
from repro.analyze.findings import Finding, Report, finding_from_diagnostic
from repro.il.assembly import Assembly, ILMethod
from repro.il.opcodes import OPCODES, T_FLOAT, T_INT, T_OBJ
from repro.il.verifier import VerifyError, parse_intern, verify_method
from repro.motor.system_mp import (
    CAT_COLLECTIVE,
    CAT_PT2PT,
    CAT_RANKQUERY,
    CAT_REQUEST,
    KIND_BUFFER,
    KIND_INT,
    MP_CALLSIGS,
    ROLE_BUFFER,
    ROLE_HANDLE,
    ROLE_PEER,
    ROLE_TAG,
)
from repro.mp.matching import ANY_SOURCE, ANY_TAG
from repro.runtime.typesys import PRIMITIVES

#: Raw (memory-layout) transports whose payload types must agree at a
#: match; the O-prefixed object transport carries its own type metadata.
_RAW_OPS = {"MP.Send", "MP.Ssend", "MP.Isend", "MP.Recv", "MP.Irecv"}
_SEND_OPS = {"MP.Send", "MP.Ssend", "MP.Isend", "MP.OSend"}
_RECV_OPS = {"MP.Recv", "MP.Irecv", "MP.ORecv"}
#: Returning internals whose result is an object (the rest give an int,
#: a request handle, or — Rank/Size — an affine symbol).
_OBJ_RESULTS = {"MP.ORecv", "MP.OBcast", "MP.WinCreate"}

#: Paths enumerated per method before forks are walked for coverage only.
MAX_PATHS = 64
#: Times one path may enter a block before it is cut (the loop bound).
MAX_BLOCK_VISITS = 2

# ---------------------------------------------------------------------------
# The affine rank/size domain
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Affine:
    """The symbolic integer ``a*rank + b*size + c``."""

    a: int = 0  # rank coefficient
    b: int = 0  # size coefficient
    c: int = 0  # constant

    def eval(self, rank: int, size: int) -> int:
        return self.a * rank + self.b * size + self.c

    @property
    def const(self) -> int | None:
        return self.c if self.a == 0 and self.b == 0 else None

    def __add__(self, other: "Affine") -> "Affine":
        return Affine(self.a + other.a, self.b + other.b, self.c + other.c)

    def __sub__(self, other: "Affine") -> "Affine":
        return Affine(self.a - other.a, self.b - other.b, self.c - other.c)

    def __neg__(self) -> "Affine":
        return Affine(-self.a, -self.b, -self.c)

    def scaled(self, k: int) -> "Affine":
        return Affine(self.a * k, self.b * k, self.c * k)

    def __str__(self) -> str:
        parts = []
        if self.a:
            parts.append("rank" if self.a == 1 else f"{self.a}*rank")
        if self.b:
            parts.append("size" if self.b == 1 else f"{self.b}*size")
        if self.c or not parts:
            parts.append(str(self.c))
        return " + ".join(parts).replace("+ -", "- ")


RANK = Affine(a=1)
SIZE = Affine(b=1)


def const(c: int) -> Affine:
    return Affine(c=c)


_NEGATE = {"==": "!=", "!=": "==", "<": ">=", ">=": "<", ">": "<=", "<=": ">"}
_EVAL = {
    "==": lambda v: v == 0,
    "!=": lambda v: v != 0,
    "<": lambda v: v < 0,
    ">=": lambda v: v >= 0,
    ">": lambda v: v > 0,
    "<=": lambda v: v <= 0,
}


@dataclass(frozen=True)
class Cmp:
    """The symbolic boolean ``diff OP 0``."""

    diff: Affine
    op: str

    def negate(self) -> "Cmp":
        return Cmp(self.diff, _NEGATE[self.op])

    def eval(self, rank: int, size: int) -> bool:
        return _EVAL[self.op](self.diff.eval(rank, size))

    @property
    def rank_dependent(self) -> bool:
        return self.diff.a != 0 or self.diff.b != 0

    def __str__(self) -> str:
        return f"{self.diff} {self.op} 0"


Predicate = tuple  # tuple[Cmp, ...]


def pred_sat(pred: Predicate, rank: int, size: int) -> bool:
    return all(c.eval(rank, size) for c in pred)


def render_pred(pred: Predicate) -> str:
    return " and ".join(str(c) for c in pred) if pred else "all ranks"


# ---------------------------------------------------------------------------
# Abstract values and communication events
# ---------------------------------------------------------------------------

#: Value = (tag, info).  Tags: "i" (info Affine | Cmp | None), "f",
#: "o" (info Buf | None), "h" (info request uid | None), "?".
_UNKNOWN = ("?", None)
#: Each tag's verification type (a handle is a reference).
_VTYPE = {"i": T_INT, "f": T_FLOAT, "o": T_OBJ, "h": T_OBJ, "?": "?"}


def _join(a: tuple, b: tuple) -> tuple:
    """Equal values stay; unequal ones keep only a shared tag."""
    if a == b:
        return a
    return (a[0] if a[0] == b[0] else "?", None)


@dataclass(frozen=True)
class Buf:
    """An allocation-site buffer identity flowing through the method."""

    kind: str  # "array" | "class"
    elem: str | None  # element type (arrays) / class name (objects)
    uid: int  # per-path serial: distinct allocations stay distinct
    site: int  # allocating pc
    length: Affine | None = None


@dataclass(frozen=True)
class Event:
    """One communication-relevant action on a path, in program order."""

    kind: str  # "coll" | "send" | "recv" | "wait" | "test" | "store"
    name: str  # MP.* internal (or the storing opcode)
    pc: int
    method: str
    peer: Affine | None = None
    tag: Affine | None = None
    buf: int | None = None  # buffer uid
    elem: str | None = None
    count: Affine | None = None
    req: int | None = None  # request uid for create/wait/test
    sync: bool = False
    blocking: bool = True


@dataclass
class Site:
    """One ``MP.*`` callintern, joined over every walk that reached it."""

    name: str
    arity: int
    returns: bool
    #: argument values; an allocation is kept as ("class"|"array", name)
    args: tuple
    epoch: str | None  # "closed" | "open" | None (walks disagree)


@dataclass
class MPSite:
    """A send or receive site with its constant peer and tag (MA-S03)."""

    method: str
    pc: int
    name: str
    peer: int | None
    tag: int | None


@dataclass
class Path:
    """One rank-predicated execution of a method, summarized."""

    pred: Predicate
    events: tuple[Event, ...]
    truncated: bool = False  # loop bound cut this path short
    escaped: frozenset = frozenset()  # request uids that left the method
    serials: int = 0  # uids consumed (for splicing into callers)

    def collectives(self) -> tuple[Event, ...]:
        return tuple(e for e in self.events if e.kind == "coll")


@dataclass
class Summary:
    """All explored paths of one method, and its call-site entries."""

    method: str
    paths: list[Path] = field(default_factory=list)
    complete: bool = True  # False when the path budget truncated the set
    sites: dict[int, Site] = field(default_factory=dict)  # pc -> entry


# ---------------------------------------------------------------------------
# The rank-symbolic interpreter
# ---------------------------------------------------------------------------


class RankFlow:
    """Path-splitting abstract interpreter over an assembly's methods."""

    def __init__(
        self,
        asm: Assembly,
        world_size: int | None,
        report: Report,
        *,
        verified: set[str] | None = None,
    ) -> None:
        self.asm = asm
        self.report = report
        self.world_size = world_size
        self.sizes = [world_size] if world_size else [2, 3]
        self.verified = verified if verified is not None else set(asm.methods)
        self._summaries: dict[str, Summary] = {}
        self._in_progress: dict[str, Summary] = {}
        self._cfgs: dict[str, CFG] = {}

    # -- plumbing -----------------------------------------------------------

    def _samples(self):
        for size in self.sizes:
            for rank in range(size):
                yield rank, size

    def _satisfiable(self, pred: Predicate) -> bool:
        return any(pred_sat(pred, r, n) for r, n in self._samples())

    def _finding(self, rule: str, method: str, pc: int, message: str, **details) -> None:
        self.report.add(
            Finding(
                rule=rule,
                message=message,
                assembly=self.asm.name,
                method=method,
                pc=pc,
                details=tuple(sorted(details.items())),
            )
        )

    # -- summarization ------------------------------------------------------

    def summarize(self, method: ILMethod) -> Summary:
        """Enumerate the method's rank-predicated paths (memoized)."""
        cached = self._summaries.get(method.name)
        if cached is not None:
            return cached
        if method.name in self._in_progress:
            # recursion: contribute nothing, poison completeness
            return Summary(method.name, [Path((), (), truncated=True)], complete=False)
        summary = self._in_progress[method.name] = Summary(method.name)
        try:
            self._explore(method, summary)
        finally:
            del self._in_progress[method.name]
        self._summaries[method.name] = summary
        return summary

    def _cfg(self, method: ILMethod) -> CFG:
        cfg = self._cfgs.get(method.name)
        if cfg is None:
            cfg = self._cfgs[method.name] = build_cfg(method)
        return cfg

    def _explore(self, method: ILMethod, summary: Summary) -> None:
        cfg = self._cfg(method)
        init_state = _State(
            stack=[],
            locs=[_UNKNOWN] * method.nlocals,
            args=[_UNKNOWN] * method.nparams,
            serial=0,
            escaped=set(),
        )
        walk = _Walk(summary, [_Frame(cfg.entry, init_state, (), [], {})])
        while walk.frames:
            self._run_path(method, cfg, walk.frames.pop(), walk)
        self._cover(method, cfg, walk)

    def _cover(self, method: ILMethod, cfg: CFG, walk: "_Walk") -> None:
        """Walk once each block no path entered, for its call sites only.

        Not a :class:`Path`: it follows every CFG edge out of a block
        (conditions unrefined), records site entries, and stops at any
        block some walk has already entered.
        """
        while walk.pruned:
            start, st = walk.pruned.pop()
            while start not in walk.seen:
                walk.seen.add(start)
                block = cfg.blocks[start]
                for pc in block.pcs():
                    instr = method.code[pc]
                    if instr.op in ("brtrue", "brfalse", "switch"):
                        st.stack.pop()
                    elif instr.op not in ("br", "ret"):
                        self._step(method, pc, instr, st, [])
                if not block.succs:
                    break
                for succ in block.succs[1:]:
                    walk.prune(succ, st)
                start = block.succs[0]

    def _run_path(self, method: ILMethod, cfg: CFG, frame: "_Frame", walk: "_Walk") -> None:
        """Drive one path until ret / loop cut, pushing forks onto the walk."""
        summary = walk.summary
        block_start = frame.block
        st = frame.state
        pred = frame.pred
        events = frame.events
        visits = frame.visits
        while True:
            count = visits.get(block_start, 0)
            if count >= MAX_BLOCK_VISITS:
                summary.paths.append(
                    Path(pred, tuple(events), truncated=True,
                         escaped=frozenset(st.escaped), serials=st.serial)
                )
                return
            visits[block_start] = count + 1
            walk.seen.add(block_start)
            block = cfg.blocks[block_start]
            for pc in block.pcs():
                instr = method.code[pc]
                op = instr.op
                if op == "ret":
                    escaped = set(st.escaped)
                    if method.returns and st.stack:
                        top = st.stack[-1]
                        if top[0] == "h" and top[1] is not None:
                            escaped.add(top[1])
                    summary.paths.append(
                        Path(pred, tuple(events), escaped=frozenset(escaped),
                             serials=st.serial)
                    )
                    return
                if op in ("brtrue", "brfalse"):
                    cond = st.stack.pop()
                    taken = method.labels[instr.operand]
                    fallthrough = pc + 1
                    split = self._branch_split(cond, op)
                    if split is None:
                        # data-dependent: fork both ways, same predicate
                        walk.fork(taken, st, pred, events, visits)
                        block_start = fallthrough
                        break
                    if isinstance(split, bool):
                        block_start, dead = (taken, fallthrough) if split else (fallthrough, taken)
                        walk.prune(dead, st)
                        break
                    taken_pred = self._refine(pred, split)
                    fall_pred = self._refine(pred, split.negate())
                    take_ok = taken_pred is not None
                    fall_ok = fall_pred is not None
                    if take_ok and fall_ok:
                        walk.fork(taken, st, taken_pred, events, visits)
                        pred = fall_pred
                        block_start = fallthrough
                    elif take_ok:
                        walk.prune(fallthrough, st)
                        pred = taken_pred
                        block_start = taken
                    elif fall_ok:
                        walk.prune(taken, st)
                        pred = fall_pred
                        block_start = fallthrough
                    else:  # contradictory either way: drop the path
                        return
                    break
                if op == "br":
                    block_start = method.labels[instr.operand]
                    break
                if op == "switch":
                    st.stack.pop()
                    targets = [
                        method.labels[label.strip()]
                        for label in str(instr.operand).split(",")
                    ]
                    for target in targets:
                        walk.fork(target, st, pred, events, visits)
                    block_start = pc + 1
                    break
                self._step(method, pc, instr, st, events)
            else:
                # fell through the block without a terminator
                block_start = block.end

    # -- branch conditions --------------------------------------------------

    def _branch_split(self, cond, op: str):
        """None (unknown fork), bool (decided), or the Cmp for the taken edge."""
        tag, info = cond
        if tag != "i" or info is None:
            return None
        if isinstance(info, Affine):
            k = info.const
            if k is not None:
                taken = k != 0
                return taken if op == "brtrue" else not taken
            cmp = Cmp(info, "!=")
        else:
            cmp = info
        return cmp if op == "brtrue" else cmp.negate()

    def _refine(self, pred: Predicate, cmp: Cmp) -> Predicate | None:
        if cmp in pred:
            return pred
        new = (*pred, cmp)
        return new if self._satisfiable(new) else None

    # -- single instruction -------------------------------------------------

    def _step(self, method: ILMethod, pc: int, instr, st: "_State", events: list) -> None:
        op = instr.op
        stack = st.stack
        if op == "ldc.i4":
            stack.append(("i", const(instr.operand)))
        elif op == "ldc.r8":
            stack.append(("f", None))
        elif op == "ldnull":
            stack.append(("o", None))
        elif op == "ldloc":
            stack.append(st.locs[instr.operand])
        elif op == "stloc":
            st.locs[instr.operand] = stack.pop()
        elif op == "ldarg":
            stack.append(st.args[instr.operand])
        elif op == "starg":
            st.args[instr.operand] = stack.pop()
        elif op == "dup":
            stack.append(stack[-1])
        elif op == "pop":
            stack.pop()
        elif op == "newobj":
            uid = st.new_serial()
            stack.append(("o", Buf("class", instr.operand, uid, pc)))
        elif op == "newarr":
            length = self._as_affine(stack.pop())
            uid = st.new_serial()
            stack.append(("o", Buf("array", instr.operand, uid, pc, length)))
        elif op in ("add", "sub", "neg"):
            self._arith(op, stack)
        elif op == "mul":
            rhs, lhs = stack.pop(), stack.pop()
            la, ra = self._as_affine(lhs), self._as_affine(rhs)
            out = None
            if la is not None and ra is not None:
                if la.const is not None:
                    out = ra.scaled(la.const)
                elif ra.const is not None:
                    out = la.scaled(ra.const)
            stack.append(("i", out) if out is not None else ("i", None))
        elif op in ("ceq", "clt", "cgt"):
            self._compare(op, stack)
        elif op == "conv.i8":
            val = stack.pop()
            stack.append(val if val[0] == "i" else ("i", None))
        elif op == "stelem":
            value = stack.pop()
            stack.pop()  # index
            arr = stack.pop()
            if value[0] == "h" and value[1] is not None:
                st.escaped.add(value[1])
            self._store(arr, op, pc, method, events)
        elif op == "stfld":
            value = stack.pop()
            obj = stack.pop()
            if value[0] == "h" and value[1] is not None:
                st.escaped.add(value[1])
            self._store(obj, op, pc, method, events)
        elif op == "ldelem":
            stack.pop()  # index
            arr = stack.pop()
            elem = arr[1].elem if arr[0] == "o" and isinstance(arr[1], Buf) else None
            if elem in ("int32", "int64"):
                stack.append(("i", None))
            elif elem in ("float32", "float64"):
                stack.append(("f", None))
            else:
                stack.append(_UNKNOWN)
        elif op == "call":
            self._splice_call(method, pc, instr.operand, st, events)
        elif op == "callintern":
            self._intern(method, pc, instr.operand, st, events)
        else:
            spec = OPCODES[op]
            if spec.pops:
                del stack[len(stack) - len(spec.pops):]
            for p in spec.pushes:
                if p == T_INT:
                    stack.append(("i", None))
                elif p == T_FLOAT:
                    stack.append(("f", None))
                elif p == T_OBJ:
                    stack.append(("o", None))
                else:
                    stack.append(_UNKNOWN)

    def _arith(self, op: str, stack: list) -> None:
        if op == "neg":
            val = stack.pop()
            aff = self._as_affine(val)
            if aff is not None:
                stack.append(("i", -aff))
            else:
                stack.append((val[0], None) if val[0] in ("i", "f") else _UNKNOWN)
            return
        rhs, lhs = stack.pop(), stack.pop()
        la, ra = self._as_affine(lhs), self._as_affine(rhs)
        if la is not None and ra is not None:
            stack.append(("i", la + ra if op == "add" else la - ra))
        elif lhs[0] == "f" or rhs[0] == "f":
            stack.append(("f", None))
        else:
            stack.append(("i", None))

    def _compare(self, op: str, stack: list) -> None:
        rhs, lhs = stack.pop(), stack.pop()
        la, ra = self._as_affine(lhs), self._as_affine(rhs)
        if la is not None and ra is not None:
            diff = la - ra
            cmp_op = {"ceq": "==", "clt": "<", "cgt": ">"}[op]
            stack.append(("i", Cmp(diff, cmp_op)))
            return
        # comparing a prior comparison against 0/1 keeps the symbol alive
        if op == "ceq":
            for a, b in ((lhs, rhs), (rhs, lhs)):
                if a[0] == "i" and isinstance(a[1], Cmp) and b[0] == "i":
                    k = b[1].const if isinstance(b[1], Affine) else None
                    if k == 0:
                        stack.append(("i", a[1].negate()))
                        return
                    if k == 1:
                        stack.append(("i", a[1]))
                        return
        stack.append(("i", None))

    def _as_affine(self, value) -> Affine | None:
        return value[1] if value[0] == "i" and isinstance(value[1], Affine) else None

    def _store(self, target, op: str, pc: int, method: ILMethod, events: list) -> None:
        if target[0] == "o" and isinstance(target[1], Buf):
            events.append(Event("store", op, pc, method.name, buf=target[1].uid))

    # -- calls --------------------------------------------------------------

    def _splice_call(self, method: ILMethod, pc: int, callee_name: str,
                     st: "_State", events: list) -> None:
        callee = self.asm.methods[callee_name]
        callee_args = []
        if callee.nparams:
            callee_args = st.stack[len(st.stack) - callee.nparams:]
            del st.stack[len(st.stack) - callee.nparams:]
        # a handle passed down may be waited by the callee: it escapes
        for val in callee_args:
            if val[0] == "h" and val[1] is not None:
                st.escaped.add(val[1])
        if callee.returns:
            st.stack.append(_UNKNOWN)
        if callee_name not in self.verified:
            events.append(Event("hole", callee_name, pc, method.name))
            return
        sub = self.summarize(callee)
        if all(not p.events and not p.truncated for p in sub.paths) and sub.complete:
            return  # pure helper: nothing to splice
        # Splicing every (caller-path x callee-path) product would
        # explode, so a callee's events inline only when the callee has a
        # single path (no rank branching of its own); anything richer
        # becomes an *event hole* — an explicit "unknown communication
        # happened here" marker the rules treat conservatively.
        if len(sub.paths) == 1 and sub.complete:
            sub_path = sub.paths[0]
            offset = st.serial
            st.serial += sub_path.serials
            for ev in sub_path.events:
                events.append(self._offset_event(ev, offset))
            if sub_path.truncated:
                events.append(Event("hole", callee_name, pc, method.name))
        else:
            events.append(Event("hole", callee_name, pc, method.name))

    def _offset_event(self, ev: Event, offset: int) -> Event:
        changes = {}
        if ev.buf is not None:
            changes["buf"] = ev.buf + offset
        if ev.req is not None:
            changes["req"] = ev.req + offset
        return replace(ev, **changes) if changes else ev

    def _intern(self, method: ILMethod, pc: int, operand: str,
                st: "_State", events: list) -> None:
        try:
            name, arity, returns = parse_intern(operand)
        except ValueError:
            return
        vals = st.stack[len(st.stack) - arity:] if arity else []
        if arity:
            del st.stack[len(st.stack) - arity:]
        sig = MP_CALLSIGS.get(name)
        if name.startswith("MP."):
            self._record_site(method, pc, name, arity, returns, vals, st.epoch)
            rma = sig.rma if sig is not None else None
            if rma == "fence":
                st.epoch = "open" if st.epoch == "closed" else "closed"
            elif rma == "free":
                st.epoch = "closed"
        if sig is None or arity != len(sig.args) or returns != sig.returns:
            # unknown or malformed (MA-S02/S04 report those): unknown result
            if returns:
                st.stack.append(_UNKNOWN)
            return
        if sig.category == CAT_RANKQUERY:
            st.stack.append(("i", RANK if sig.query == "rank" else SIZE))
            return
        if sig.category == CAT_COLLECTIVE:
            events.append(Event("coll", name, pc, method.name))
        elif sig.category == CAT_PT2PT:
            peer_i = sig.role_index(ROLE_PEER)
            tag_i = sig.role_index(ROLE_TAG)
            buf_i = sig.role_index(ROLE_BUFFER)
            peer = self._as_affine(vals[peer_i]) if peer_i is not None else None
            tag = self._as_affine(vals[tag_i]) if tag_i is not None else None
            buf = elem = length = None
            if buf_i is not None and vals[buf_i][0] == "o" and isinstance(vals[buf_i][1], Buf):
                b = vals[buf_i][1]
                buf = b.uid
                length = b.length
                elem = b.elem if b.kind == "array" else None
            req = None
            if sig.creates_request:
                req = st.new_serial()
                st.stack.append(("h", req))
            events.append(Event(
                sig.direction, name, pc, method.name, peer=peer, tag=tag,
                buf=buf, elem=elem, count=length, req=req,
                sync=sig.sync, blocking=sig.blocking,
            ))
        elif sig.category == CAT_REQUEST:
            hval = vals[sig.role_index(ROLE_HANDLE)]
            req = hval[1] if hval[0] == "h" else None
            kind = "wait" if sig.completes_request else "test"
            events.append(Event(kind, name, pc, method.name, req=req))
        if returns and not sig.creates_request:
            st.stack.append(("o", None) if name in _OBJ_RESULTS else ("i", None))

    def _record_site(self, method: ILMethod, pc: int, name: str, arity: int,
                     returns: bool, vals: list, epoch: str) -> None:
        """Join one walk's arguments and epoch into the site's entry."""
        args = tuple(
            (v[0], (v[1].kind, v[1].elem)) if isinstance(v[1], Buf) else v
            for v in vals
        )
        sites = self._in_progress[method.name].sites
        site = sites.get(pc)
        if site is None:
            sites[pc] = Site(name, arity, returns, args, epoch)
            return
        site.args = tuple(_join(a, b) for a, b in zip(site.args, args))
        if site.epoch != epoch:
            site.epoch = None

    # ------------------------------------------------------------------
    # Per-site rules: MA-S01, MA-S02, MA-S04, MA-S11; MA-S03's matcher
    # ------------------------------------------------------------------

    def _buffer_violation(self, info) -> str | None:
        """A human message if *info* names a reference-bearing buffer."""
        if info is None:
            return None
        kind, elem = info
        if kind == "array":
            return f"array of reference type {elem!r}" if elem not in PRIMITIVES else None
        cls = self.asm.classes.get(elem)
        if cls is not None and any(ftype not in PRIMITIVES for _f, ftype, _t in cls.fields):
            return f"instance of {elem!r} has reference fields"
        return None

    def check_sites(self, summary: Summary) -> list[MPSite]:
        """Check each site entry once; returns its sends and receives."""
        ends: list[MPSite] = []
        for pc, site in sorted(summary.sites.items()):
            name = site.name
            sig = MP_CALLSIGS.get(name)
            if sig is None:
                self._finding("MA-S04", summary.method, pc,
                              f"unknown System.MP internal {name!r}", name=name)
                continue
            if site.arity != len(sig.args) or site.returns != sig.returns:
                declared = f"{name}/{site.arity}{':r' if site.returns else ''}"
                self._finding(
                    "MA-S02", summary.method, pc,
                    f"{name} declared as {declared}, "
                    f"signature is {sig.intern} ({sig.doc})",
                    declared=declared, expected=sig.intern,
                )
            else:
                self._check_args(summary.method, pc, site, sig)
                if name in _SEND_OPS or name in _RECV_OPS:
                    peer_at = 1 if name != "MP.ORecv" else 0
                    peer, tag = (self._as_affine(v) for v in site.args[peer_at:peer_at + 2])
                    ends.append(MPSite(
                        summary.method, pc, name,
                        peer.const if peer is not None else None,
                        tag.const if tag is not None else None,
                    ))
            if sig.rma == "op" and site.epoch == "closed":
                self._finding(
                    "MA-S11", summary.method, pc,
                    f"{name} reachable with every window epoch closed: no "
                    "WinFence (or other epoch open) dominates this site — the "
                    "runtime would report MA-R06 here",
                    name=name,
                )
        return ends

    def _check_args(self, method: str, pc: int, site: Site, sig) -> None:
        for i, (kind, value) in enumerate(zip(sig.args, site.args)):
            vt = _VTYPE[value[0]]
            if vt != "?" and vt != (T_INT if kind == KIND_INT else T_OBJ):
                # buffers, object-graph arguments and handles are references
                self._finding(
                    "MA-S02", method, pc,
                    f"{site.name} argument {i} expects kind {kind!r}, "
                    f"found verification type {vt!r}",
                    argument=i, kind=kind,
                )
            elif kind == KIND_BUFFER and value[0] == "o":
                why = self._buffer_violation(value[1])
                if why is not None:
                    self._finding(
                        "MA-S01", method, pc,
                        f"{site.name} buffer argument: {why}; use the O-prefixed "
                        "object transport instead",
                        buffer=str(value[1]),
                    )

    def match_sites(self, sites: list[MPSite]) -> None:
        """MA-S03: sends no receive can match, and peers outside the world."""
        world_size = self.world_size
        sends = [s for s in sites if s.name in _SEND_OPS]
        recvs = [s for s in sites if s.name in _RECV_OPS]
        for s in sends:
            if world_size is not None and s.peer is not None and not (
                0 <= s.peer < world_size
            ):
                self._finding(
                    "MA-S03", s.method, s.pc,
                    f"{s.name} to peer {s.peer} outside world 0..{world_size - 1}",
                )
                continue
            if not any(_tag_compatible(s.tag, r.tag) for r in recvs):
                self._finding(
                    "MA-S03", s.method, s.pc,
                    f"{s.name} with tag {s.tag} has no receive in the assembly "
                    "with a compatible tag",
                    tag=s.tag,
                )
        for r in recvs:
            if (
                world_size is not None
                and r.peer is not None
                and r.peer != ANY_SOURCE
                and not (0 <= r.peer < world_size)
            ):
                self._finding(
                    "MA-S03", r.method, r.pc,
                    f"{r.name} from peer {r.peer} outside world 0..{world_size - 1}",
                )

    # ------------------------------------------------------------------
    # Path-local rules: MA-S07 (in-flight store), MA-S08 (request leak)
    # ------------------------------------------------------------------

    def check_path_local(self, summary: Summary) -> None:
        """Request-lifetime rules over each path of one method."""
        for path in summary.paths:
            open_windows: dict[int, Event] = {}  # req -> posting event
            created: dict[int, Event] = {}
            discharged: set[int] = set()
            for ev in path.events:
                if ev.kind == "hole":
                    # the callee could wait/complete anything: forgive all
                    discharged.update(created)
                    open_windows.clear()
                elif ev.kind in ("send", "recv") and ev.req is not None:
                    created[ev.req] = ev
                    if ev.buf is not None:
                        open_windows[ev.req] = ev
                elif ev.kind == "wait":
                    if ev.req is None:  # unknown handle: forgive all
                        discharged.update(created)
                        open_windows.clear()
                    else:
                        discharged.add(ev.req)
                        open_windows.pop(ev.req, None)
                elif ev.kind == "test":
                    # Test discharges the leak rule but does NOT end the
                    # in-flight window: the buffer stays pinned until the
                    # operation actually completed (MA-R03 semantics).
                    if ev.req is None:
                        discharged.update(created)
                    else:
                        discharged.add(ev.req)
                elif ev.kind == "store":
                    for post in open_windows.values():
                        if post.buf == ev.buf:
                            self._finding(
                                "MA-S07", ev.method, ev.pc,
                                f"store into the buffer of {post.name}@{post.pc} "
                                "while the nonblocking transfer is in flight "
                                "(static MA-R03)",
                                posted_at=post.pc, op=post.name,
                            )
            if path.truncated:
                continue  # a cut path may still wait later
            for req, ev in created.items():
                if req not in discharged and req not in path.escaped:
                    self._finding(
                        "MA-S08", ev.method, ev.pc,
                        f"{ev.name} request is never completed by Wait or "
                        "Test on some path through the method",
                        op=ev.name,
                    )

    # ------------------------------------------------------------------
    # MA-S05: collective sequence divergence across rank-disjoint paths
    # ------------------------------------------------------------------

    def _rank_disjoint(self, p1: Predicate, p2: Predicate) -> bool:
        """Can two DIFFERENT ranks of one world follow p1 and p2?"""
        for size in self.sizes:
            ranks1 = [r for r in range(size) if pred_sat(p1, r, size)]
            ranks2 = [r for r in range(size) if pred_sat(p2, r, size)]
            if any(r1 != r2 for r1 in ranks1 for r2 in ranks2):
                return True
        return False

    def check_divergence(self, summary: Summary) -> None:
        """Compare collective sequences across the entry's rank paths."""
        paths = [
            p for p in summary.paths
            if not p.truncated and not any(e.kind == "hole" for e in p.events)
        ]
        for i, a in enumerate(paths):
            colls_a = a.collectives()
            names_a = [e.name for e in colls_a]
            for b in paths[i + 1:]:
                if a.pred == b.pred:
                    continue  # a data-dependent fork, not a rank split
                colls_b = b.collectives()
                names_b = [e.name for e in colls_b]
                if names_a == names_b:
                    continue
                if not self._rank_disjoint(a.pred, b.pred):
                    continue
                k = 0
                while (k < len(names_a) and k < len(names_b)
                       and names_a[k] == names_b[k]):
                    k += 1
                if k < len(names_a) and k < len(names_b):
                    what = (f"position {k} is {names_a[k]} on one path "
                            f"but {names_b[k]} on the other")
                    anchor = colls_a[k]
                elif k < len(names_a):
                    what = f"{names_a[k]} at position {k} has no counterpart"
                    anchor = colls_a[k]
                else:
                    what = f"{names_b[k]} at position {k} has no counterpart"
                    anchor = colls_b[k]
                self._finding(
                    "MA-S05", anchor.method, anchor.pc,
                    "collective sequences diverge across rank-disjoint "
                    f"paths [{render_pred(a.pred)}] vs [{render_pred(b.pred)}]: "
                    f"{what}",
                    seq_a=",".join(names_a), seq_b=",".join(names_b),
                )
                return  # one divergence per entry: the first is the deadlock

    # ------------------------------------------------------------------
    # Matching simulation: MA-S06, MA-S09, MA-S10
    # ------------------------------------------------------------------

    def _choose_path(self, summary: Summary, rank: int, size: int) -> Path | None:
        """The unique concrete path of *rank*, or None when unsimulatable."""
        sats = [p for p in summary.paths if pred_sat(p.pred, rank, size)]
        if len(sats) != 1:
            return None  # ambiguous (data-dependent fork) or missing
        path = sats[0]
        if path.truncated:
            return None
        for ev in path.events:
            if ev.kind == "hole":
                return None
            if ev.kind in ("send", "recv") and (ev.peer is None or ev.tag is None):
                return None  # non-affine endpoint: cannot concretize
        return path

    def simulate(self, summary: Summary) -> None:
        """Concretize the entry over each small world and run matching."""
        if not summary.complete:
            return  # the path budget dropped paths; rank->path is unreliable
        for size in self.sizes:
            self._simulate_world(summary, size)

    def _simulate_world(self, summary: Summary, size: int) -> None:
        paths: list[Path] = []
        for rank in range(size):
            path = self._choose_path(summary, rank, size)
            if path is None:
                return
            paths.append(path)
        sim = _WorldSim(self, size, paths)
        sim.run()

    # S06/S09/S10 emitters, called back from _WorldSim ------------------

    def _report_mismatch(self, msg: "_Msg", recv: Event, rcount, relem) -> None:
        if msg.event.name not in _RAW_OPS or recv.name not in _RAW_OPS:
            return  # the object transport carries its own type metadata
        if msg.elem is not None and relem is not None and msg.elem != relem:
            self._finding(
                "MA-S06", recv.method, recv.pc,
                f"{msg.event.name}@{msg.event.pc} sends {msg.elem} elements "
                f"into a {relem} receive buffer",
                send_elem=msg.elem, recv_elem=relem, send_pc=msg.event.pc,
            )
            return
        if msg.count is not None and rcount is not None and rcount < msg.count:
            self._finding(
                "MA-S06", recv.method, recv.pc,
                f"{msg.event.name}@{msg.event.pc} sends {msg.count} elements "
                f"into a {rcount}-element receive buffer (truncation)",
                send_count=msg.count, recv_count=rcount, send_pc=msg.event.pc,
            )

    def _report_wildcard(self, recv: Event, candidates: int) -> None:
        self._finding(
            "MA-S10", recv.method, recv.pc,
            f"wildcard {recv.name} has more than one statically matched "
            "send in flight; the match is timing-dependent (static MA-R02)",
            candidates=candidates,
        )

    def _report_cycle(self, cycle: list[int], events: dict[int, Event]) -> None:
        first = min(cycle)
        ring = "->".join(str(r) for r in cycle + [cycle[0]])
        ops = ", ".join(
            f"rank {r}: {events[r].name}@{events[r].pc}" for r in cycle
        )
        self._finding(
            "MA-S09", events[first].method, events[first].pc,
            f"cyclic blocking dependency among ranks {ring} ({ops}); "
            "every member waits on another member",
            cycle=ring,
        )


@dataclass
class _State:
    stack: list
    locs: list
    args: list
    serial: int
    escaped: set
    epoch: str = "closed"  # the window epoch: "closed" | "open"

    def copy(self) -> "_State":
        return _State(
            list(self.stack), list(self.locs), list(self.args),
            self.serial, set(self.escaped), self.epoch,
        )

    def new_serial(self) -> int:
        uid = self.serial
        self.serial += 1
        return uid


@dataclass
class _Frame:
    block: int
    state: _State
    pred: Predicate
    events: list
    visits: dict


@dataclass
class _Walk:
    """One method's enumeration: pending forks and block coverage."""

    summary: Summary
    frames: list[_Frame]
    seen: set = field(default_factory=set)  # blocks any walk entered
    pruned: list = field(default_factory=list)  # (block, state) no path took

    def fork(self, block: int, st: _State, pred: Predicate, events: list,
             visits: dict) -> None:
        """Queue a path from *block*, or past the budget a coverage walk."""
        if len(self.summary.paths) + len(self.frames) + 1 < MAX_PATHS:
            self.frames.append(_Frame(block, st.copy(), pred, list(events), dict(visits)))
        else:
            self.summary.complete = False
            self.prune(block, st)

    def prune(self, block: int, st: _State) -> None:
        """An edge no path follows: walk its block later if none does."""
        if block not in self.seen:
            self.pruned.append((block, st.copy()))


def _tag_compatible(send_tag: int | None, recv_tag: int | None) -> bool:
    if send_tag is None or recv_tag is None:
        return True
    return recv_tag == ANY_TAG or recv_tag == send_tag


# ---------------------------------------------------------------------------
# The concrete matching simulation (MA-S06 / MA-S09 / MA-S10)
# ---------------------------------------------------------------------------


@dataclass
class _Msg:
    """One in-flight message in the simulated world."""

    src: int
    dst: int
    tag: int
    elem: str | None
    count: int | None
    sync: bool
    event: Event
    consumed: bool = False


@dataclass
class _PostedRecv:
    """A nonblocking receive posted by Irecv, awaiting a match."""

    rank: int
    peer: int
    tag: int
    event: Event
    matched: _Msg | None = None


class _RankState:
    __slots__ = ("idx", "reqs", "pending", "posted")

    def __init__(self) -> None:
        self.idx = 0
        #: req uid -> ("send", _Msg | None) | ("recv", _PostedRecv)
        self.reqs: dict[int, tuple] = {}
        self.pending: list[_PostedRecv] = []
        self.posted: set[int] = set()  # event indices whose Ssend is posted


class _WorldSim:
    """Deterministic matching simulation of one concrete world.

    Each rank replays its chosen path's events under MPI matching
    semantics: eager sends deliver immediately, synchronous sends block
    until consumed, receives consume the oldest matching message,
    collectives advance only when every rank sits at the same one.  A
    global stall with a cycle of blocked pt2pt operations is MA-S09;
    matches themselves feed MA-S06 (type/length) and MA-S10 (wildcard
    ambiguity).  Unsimulatable worlds were filtered by the caller, so
    everything here is concrete integers.
    """

    def __init__(self, rf: RankFlow, size: int, paths: list[Path]) -> None:
        self.rf = rf
        self.size = size
        self.paths = paths
        self.msgs: list[_Msg] = []  # global post order (FIFO matching)
        self.ranks = [_RankState() for _ in range(size)]

    # -- matching -----------------------------------------------------------

    def _candidates(self, rank: int, peer: int, tag: int) -> list[_Msg]:
        return [
            m for m in self.msgs
            if not m.consumed and m.dst == rank
            and (peer == ANY_SOURCE or m.src == peer)
            and (tag == ANY_TAG or m.tag == tag)
        ]

    def _try_match(self, rank: int, peer: int, tag: int, ev: Event) -> _Msg | None:
        found = self._candidates(rank, peer, tag)
        if not found:
            return None
        if (peer == ANY_SOURCE or tag == ANY_TAG) and len(found) > 1:
            self.rf._report_wildcard(ev, len(found))
        msg = found[0]
        msg.consumed = True
        rcount = ev.count.eval(rank, self.size) if ev.count is not None else None
        self.rf._report_mismatch(msg, ev, rcount, ev.elem)
        return msg

    # -- the scheduler ------------------------------------------------------

    def run(self) -> None:
        total = sum(len(p.events) for p in self.paths)
        max_rounds = 4 * (total + 2)
        for _ in range(max_rounds):
            progressed = self._match_pending()
            for rank in range(self.size):
                progressed |= self._advance(rank)
            progressed |= self._advance_collectives()
            if all(self._done(r) for r in range(self.size)):
                return
            if not progressed:
                self._diagnose_stall()
                return
        # round bound hit: give up silently (conservative)

    def _done(self, rank: int) -> bool:
        return self.ranks[rank].idx >= len(self.paths[rank].events)

    def _current(self, rank: int) -> Event | None:
        if self._done(rank):
            return None
        return self.paths[rank].events[self.ranks[rank].idx]

    def _match_pending(self) -> bool:
        progressed = False
        for rank in range(self.size):
            for posted in self.ranks[rank].pending:
                if posted.matched is None:
                    msg = self._try_match(rank, posted.peer, posted.tag, posted.event)
                    if msg is not None:
                        posted.matched = msg
                        progressed = True
        return progressed

    def _post(self, rank: int, ev: Event) -> _Msg | None:
        """Put a send on the wire; None when the peer is out of range
        (MA-S03's territory — dropped rather than simulated)."""
        dst = ev.peer.eval(rank, self.size)
        if not 0 <= dst < self.size:
            return None
        msg = _Msg(
            src=rank,
            dst=dst,
            tag=ev.tag.eval(rank, self.size),
            elem=ev.elem,
            count=ev.count.eval(rank, self.size) if ev.count is not None else None,
            sync=ev.sync,
            event=ev,
        )
        self.msgs.append(msg)
        return msg

    def _advance(self, rank: int) -> bool:
        """One scheduling step for *rank*; True when it made progress."""
        st = self.ranks[rank]
        ev = self._current(rank)
        if ev is None or ev.kind == "coll":
            return False  # done, or parked at a collective
        if ev.kind == "send":
            if not ev.blocking:  # Isend: post and go
                st.reqs[ev.req] = ("send", self._post(rank, ev))
                st.idx += 1
                return True
            if ev.sync:  # Ssend: post once, then block until consumed
                if st.idx not in st.posted:
                    st.posted.add(st.idx)
                    msg = self._post(rank, ev)
                    if msg is None:  # dropped: do not block forever
                        st.idx += 1
                    return True
                msg = next(
                    (m for m in self.msgs
                     if m.event is ev and m.src == rank and not m.consumed),
                    None,
                )
                if msg is None:  # consumed: the handshake completed
                    st.idx += 1
                    return True
                return False
            self._post(rank, ev)  # eager Send: fire and forget
            st.idx += 1
            return True
        if ev.kind == "recv":
            peer = ev.peer.eval(rank, self.size)
            tag = ev.tag.eval(rank, self.size)
            if not ev.blocking:  # Irecv: park the receive, keep going
                posted = _PostedRecv(rank, peer, tag, ev)
                st.pending.append(posted)
                st.reqs[ev.req] = ("recv", posted)
                st.idx += 1
                return True
            if self._try_match(rank, peer, tag, ev) is not None:
                st.idx += 1
                return True
            return False
        if ev.kind == "wait":
            if ev.req is None or ev.req not in st.reqs:
                st.idx += 1  # unknown handle: assume it completes
                return True
            what, obj = st.reqs[ev.req]
            done = (
                obj is None  # dropped out-of-range send
                or (what == "send" and obj.consumed)
                or (what == "recv" and obj.matched is not None)
            )
            if done:
                st.idx += 1
                return True
            return False
        # test / store: local, always advances
        st.idx += 1
        return True

    def _advance_collectives(self) -> bool:
        current = [self._current(r) for r in range(self.size)]
        if any(c is None or c.kind != "coll" for c in current):
            return False
        names = {c.name for c in current}
        if len(names) != 1:
            # divergence: MA-S05's pairwise check owns this diagnosis
            return False
        for rank in range(self.size):
            self.ranks[rank].idx += 1
        return True

    # -- stall diagnosis (MA-S09) -------------------------------------------

    def _blocked_on(self, rank: int) -> int | None:
        """Which rank must act for *rank* to advance, if determinable."""
        ev = self._current(rank)
        if ev is None or ev.kind == "coll":
            return None  # done / divergence: not a pt2pt cycle member
        if ev.kind == "send" and ev.sync:
            dst = ev.peer.eval(rank, self.size)
            return dst if 0 <= dst < self.size else None
        if ev.kind == "recv":
            src = ev.peer.eval(rank, self.size)
            if src == ANY_SOURCE or not 0 <= src < self.size:
                return None  # a wildcard could be fed by anyone
            return src
        if ev.kind == "wait" and ev.req is not None and ev.req in self.ranks[rank].reqs:
            what, obj = self.ranks[rank].reqs[ev.req]
            if what == "send" and obj is not None:
                return obj.dst
            if what == "recv" and obj is not None and obj.peer != ANY_SOURCE:
                return obj.peer if 0 <= obj.peer < self.size else None
        return None

    def _diagnose_stall(self) -> None:
        edges: dict[int, int] = {}
        blocked_at: dict[int, Event] = {}
        for rank in range(self.size):
            target = self._blocked_on(rank)
            if target is not None:
                edges[rank] = target
                blocked_at[rank] = self._current(rank)
        # each node has at most one out-edge: walk until a repeat
        seen_global: set[int] = set()
        for start in edges:
            if start in seen_global:
                continue
            trail: list[int] = []
            index: dict[int, int] = {}
            cur = start
            while cur in edges and cur not in index:
                index[cur] = len(trail)
                trail.append(cur)
                cur = edges[cur]
            seen_global.update(trail)
            if cur in index:  # closed a cycle
                cycle = trail[index[cur]:]
                if len(cycle) >= 2:  # never a self-loop
                    self.rf._report_cycle(cycle, blocked_at)
                    return


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------


def run_rankflow(
    asm: Assembly,
    methods: list[ILMethod],
    world_size: int | None,
    report: Report,
) -> None:
    """The MA-S01..S11 rules over the verified *methods* of *asm*.

    Site rules (S01/S02/S04/S11) and path-local rules (S07/S08) run on
    every method's own summary, S03 on the sends and receives of all of
    them; the whole-program rules (S05 divergence, the S06/S09/S10
    matching simulation) run on the program entry — ``main`` when
    present, else each method treated as its own entry.
    """
    rf = RankFlow(asm, world_size, report, verified={m.name for m in methods})
    summaries = {m.name: rf.summarize(m) for m in methods}
    rf.match_sites([end for s in summaries.values() for end in rf.check_sites(s)])
    for summary in summaries.values():
        rf.check_path_local(summary)
    entries = ["main"] if "main" in summaries else list(summaries)
    for entry in entries:
        rf.check_divergence(summaries[entry])
        rf.simulate(summaries[entry])


def analyze_assembly(
    asm: Assembly, world_size: int | None = None, report: Report | None = None
) -> Report:
    """Run the static System.MP pass over every method of *asm*.

    Methods failing baseline IL verification are reported as MA-S00 and
    skipped.  When *world_size* is given, constant peers are also checked
    against the world's rank range.
    """
    report = report if report is not None else Report()
    verified: list[ILMethod] = []
    for m in asm.methods.values():
        try:
            verify_method(asm, m)
        except VerifyError as exc:
            report.add(finding_from_diagnostic(exc.diagnostic, "MA-S00"))
            continue
        verified.append(m)
    run_rankflow(asm, verified, world_size, report)
    return report
