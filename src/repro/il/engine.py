"""IL execution: a baseline interpreter and a closure-compiling JIT.

The JIT pre-decodes every instruction into a Python closure (operand
resolution, field lookup and branch targets are done once, at compile
time) and runs a dispatch loop; the interpreter re-dispatches on the
opcode string every step.  Both engines share one semantics function per
opcode family and must agree on every verified method — a property the
test suite checks differentially.

Jitted code polls the safepoint on every backward branch ("the jitted
code periodically polls to yield itself to garbage collection", paper
§5.2), so a loop in managed code cannot starve the collector.
"""

from __future__ import annotations

import math
from typing import Any, Callable

from repro.il.assembly import Assembly, ILMethod
from repro.il.verifier import parse_intern, verify_assembly
from repro.runtime.handles import ObjRef
from repro.runtime.runtime import ManagedRuntime


class ILRuntimeError(Exception):
    """A managed execution fault (bad operand, null deref, div by zero)."""


def _trunc_div(a, b):
    if isinstance(a, int) and isinstance(b, int):
        if b == 0:
            raise ILRuntimeError("integer division by zero")
        return int(math.trunc(a / b)) if abs(a) < (1 << 52) else _bigtrunc(a, b)
    return a / b


def _bigtrunc(a: int, b: int) -> int:
    q = abs(a) // abs(b)
    return q if (a >= 0) == (b >= 0) else -q


def _trunc_rem(a, b):
    if isinstance(a, int) and isinstance(b, int):
        if b == 0:
            raise ILRuntimeError("integer remainder by zero")
        return a - b * _trunc_div(a, b)
    return math.fmod(a, b)


_BINOPS: dict[str, Callable[[Any, Any], Any]] = {
    "add": lambda a, b: a + b,
    "sub": lambda a, b: a - b,
    "mul": lambda a, b: a * b,
    "div": _trunc_div,
    "rem": _trunc_rem,
    "and": lambda a, b: a & b,
    "or": lambda a, b: a | b,
    "xor": lambda a, b: a ^ b,
    "shl": lambda a, b: a << b,
    "shr": lambda a, b: a >> b,
    "ceq": lambda a, b: 1 if a == b else 0,
    "cgt": lambda a, b: 1 if a > b else 0,
    "clt": lambda a, b: 1 if a < b else 0,
}


class Frame:
    __slots__ = ("args", "locals", "stack")

    def __init__(self, args: tuple, nlocals: int) -> None:
        self.args = list(args)
        self.locals = [0] * nlocals
        self.stack: list = []


class ExecutionEngine:
    """Runs verified IL methods against a managed runtime."""

    def __init__(
        self,
        runtime: ManagedRuntime,
        assembly: Assembly,
        internals: dict[str, Callable] | None = None,
        mode: str = "jit",
        verify: bool = True,
    ) -> None:
        if mode not in ("jit", "interp"):
            raise ValueError(f"unknown engine mode {mode!r}")
        self.runtime = runtime
        self.assembly = assembly
        self.internals = dict(internals or {})
        self.mode = mode
        if verify:
            verify_assembly(assembly)
        assembly.load_types_into(runtime)
        self._compiled: dict[str, list[Callable]] = {}
        self.safepoint_polls = 0

    # ------------------------------------------------------------------ public

    def call(self, method_name: str, *args) -> Any:
        method = self.assembly.method(method_name)
        if len(args) != method.nparams:
            raise ILRuntimeError(
                f"{method_name} takes {method.nparams} args, got {len(args)}"
            )
        if self.mode == "jit":
            return self._run_jit(method, args)
        return self._run_interp(method, args)

    # ------------------------------------------------------------------ shared helpers

    def _field_access(self, obj, field: str, clsfield: str):
        if obj is None or (isinstance(obj, ObjRef) and obj.is_null):
            raise ILRuntimeError(f"ldfld/stfld {clsfield} on null reference")
        return obj

    def _do_stfld(self, obj: ObjRef, field: str, value) -> None:
        rt = self.runtime
        mt = rt.type_of(obj)
        fd = mt.fields_by_name.get(field)
        if fd is None:
            raise ILRuntimeError(f"{mt.name} has no field {field!r}")
        if fd.is_ref:
            rt.set_ref(obj, field, value)
        else:
            rt.set_field(obj, field, value)

    def _do_stelem(self, arr: ObjRef, idx: int, value) -> None:
        rt = self.runtime
        if rt.type_of(arr).element_is_ref:
            rt.set_elem_ref(arr, idx, value)
        else:
            rt.set_elem(arr, idx, value)

    def _intern(self, name: str) -> Callable:
        """What ``callintern name`` calls (the JIT asks once, at compile
        time): the registered internal, else a stand-in raising if it runs."""
        fn = self.internals.get(name)
        if fn is None:

            def missing(*_args):
                raise ILRuntimeError(f"no internal call {name!r} registered")

            return missing
        return fn

    # ------------------------------------------------------------------ interpreter

    def _run_interp(self, method: ILMethod, args: tuple) -> Any:
        rt = self.runtime
        frame = Frame(args, method.nlocals)
        stack = frame.stack
        code = method.code
        pc = 0
        while True:
            instr = code[pc]
            op = instr.op
            if op == "ret":
                return stack.pop() if method.returns else None
            if op == "br":
                target = method.target(instr.operand)
                if target <= pc:
                    self.safepoint_polls += 1
                    rt.safepoint.poll()
                pc = target
                continue
            if op == "switch":
                idx = stack.pop()
                labels = [x.strip() for x in str(instr.operand).split(",")]
                if 0 <= idx < len(labels):
                    target = method.target(labels[idx])
                    if target <= pc:
                        self.safepoint_polls += 1
                        rt.safepoint.poll()
                    pc = target
                    continue
                pc += 1
                continue
            if op in ("brtrue", "brfalse"):
                cond = stack.pop()
                taken = (cond != 0) if op == "brtrue" else (cond == 0)
                if taken:
                    target = method.target(instr.operand)
                    if target <= pc:
                        self.safepoint_polls += 1
                        rt.safepoint.poll()
                    pc = target
                    continue
                pc += 1
                continue
            bin_fn = _BINOPS.get(op)
            if bin_fn is not None:
                b = stack.pop()
                a = stack.pop()
                stack.append(bin_fn(a, b))
            elif op == "nop":
                pass
            elif op == "pop":
                stack.pop()
            elif op == "dup":
                stack.append(stack[-1])
            elif op in ("ldc.i4", "ldc.r8"):
                stack.append(instr.operand)
            elif op == "ldnull":
                stack.append(None)
            elif op == "ldloc":
                stack.append(frame.locals[instr.operand])
            elif op == "stloc":
                frame.locals[instr.operand] = stack.pop()
            elif op == "ldarg":
                stack.append(frame.args[instr.operand])
            elif op == "starg":
                frame.args[instr.operand] = stack.pop()
            elif op == "neg":
                stack.append(-stack.pop())
            elif op == "not":
                stack.append(~stack.pop())
            elif op == "conv.i8":
                stack.append(int(stack.pop()))
            elif op == "conv.r8":
                stack.append(float(stack.pop()))
            elif op == "call":
                callee = self.assembly.method(instr.operand)
                nargs = callee.nparams
                call_args = stack[len(stack) - nargs :]
                del stack[len(stack) - nargs :]
                result = self._run_interp(callee, tuple(call_args))
                if callee.returns:
                    stack.append(result)
            elif op == "callintern":
                name, arity, returns = parse_intern(instr.operand)
                call_args = stack[len(stack) - arity :]
                del stack[len(stack) - arity :]
                result = self._intern(name)(*call_args)
                if returns:
                    stack.append(result)
            elif op == "newobj":
                stack.append(rt.new(instr.operand))
            elif op == "ldfld":
                _cls, _, field = instr.operand.partition("::")
                obj = stack.pop()
                self._field_access(obj, field, instr.operand)
                stack.append(rt.get_field(obj, field))
            elif op == "stfld":
                value = stack.pop()
                obj = stack.pop()
                _cls, _, field = instr.operand.partition("::")
                self._field_access(obj, field, instr.operand)
                self._do_stfld(obj, field, value)
            elif op == "newarr":
                length = stack.pop()
                stack.append(rt.new_array(instr.operand, length))
            elif op == "ldlen":
                stack.append(rt.array_length(stack.pop()))
            elif op == "ldelem":
                idx = stack.pop()
                arr = stack.pop()
                stack.append(rt.get_elem(arr, idx))
            elif op == "stelem":
                value = stack.pop()
                idx = stack.pop()
                arr = stack.pop()
                self._do_stelem(arr, idx, value)
            else:  # pragma: no cover - verifier rejects unknown ops
                raise ILRuntimeError(f"unhandled opcode {op}")
            pc += 1

    # ------------------------------------------------------------------ JIT

    def _run_jit(self, method: ILMethod, args: tuple) -> Any:
        compiled = self._compiled.get(method.name)
        if compiled is None:
            compiled = self._compile(method)
            self._compiled[method.name] = compiled
        frame = Frame(args, method.nlocals)
        pc = 0
        n = len(compiled)
        while 0 <= pc < n:
            pc = compiled[pc](frame)
        if pc == -1:
            return frame.stack.pop() if method.returns else None
        raise ILRuntimeError(f"{method.name}: control flow escaped ({pc})")

    def _compile(self, method: ILMethod) -> list[Callable]:
        """Compile each instruction into a closure returning the next pc."""
        rt = self.runtime
        engine = self
        out: list[Callable] = []
        for pc, instr in enumerate(method.code):
            op = instr.op
            nxt = pc + 1
            if op == "ret":

                def c_ret(frame, *, _=None) -> int:  # noqa: ARG001
                    return -1

                out.append(c_ret)
            elif op == "br":
                target = method.target(instr.operand)
                backward = target <= pc

                def c_br(frame, *, _t=target, _b=backward) -> int:  # noqa: ARG001
                    if _b:
                        engine.safepoint_polls += 1
                        rt.safepoint.poll()
                    return _t

                out.append(c_br)
            elif op == "switch":
                labels = [x.strip() for x in str(instr.operand).split(",")]
                targets = [method.target(lb) for lb in labels]
                backwards = [t <= pc for t in targets]

                def c_switch(frame, *, _t=tuple(targets), _b=tuple(backwards), _n=nxt) -> int:
                    idx = frame.stack.pop()
                    if 0 <= idx < len(_t):
                        if _b[idx]:
                            engine.safepoint_polls += 1
                            rt.safepoint.poll()
                        return _t[idx]
                    return _n

                out.append(c_switch)
            elif op in ("brtrue", "brfalse"):
                target = method.target(instr.operand)
                backward = target <= pc
                want_true = op == "brtrue"

                def c_cbr(frame, *, _t=target, _b=backward, _w=want_true, _n=nxt) -> int:
                    cond = frame.stack.pop()
                    if (cond != 0) == _w:
                        if _b:
                            engine.safepoint_polls += 1
                            rt.safepoint.poll()
                        return _t
                    return _n

                out.append(c_cbr)
            elif op in _BINOPS:
                fn = _BINOPS[op]

                def c_bin(frame, *, _f=fn, _n=nxt) -> int:
                    s = frame.stack
                    b = s.pop()
                    a = s.pop()
                    s.append(_f(a, b))
                    return _n

                out.append(c_bin)
            elif op == "nop":
                out.append(lambda frame, *, _n=nxt: _n)
            elif op == "pop":

                def c_pop(frame, *, _n=nxt) -> int:
                    frame.stack.pop()
                    return _n

                out.append(c_pop)
            elif op == "dup":

                def c_dup(frame, *, _n=nxt) -> int:
                    frame.stack.append(frame.stack[-1])
                    return _n

                out.append(c_dup)
            elif op in ("ldc.i4", "ldc.r8"):

                def c_ldc(frame, *, _v=instr.operand, _n=nxt) -> int:
                    frame.stack.append(_v)
                    return _n

                out.append(c_ldc)
            elif op == "ldnull":

                def c_ldnull(frame, *, _n=nxt) -> int:
                    frame.stack.append(None)
                    return _n

                out.append(c_ldnull)
            elif op == "ldloc":

                def c_ldloc(frame, *, _i=instr.operand, _n=nxt) -> int:
                    frame.stack.append(frame.locals[_i])
                    return _n

                out.append(c_ldloc)
            elif op == "stloc":

                def c_stloc(frame, *, _i=instr.operand, _n=nxt) -> int:
                    frame.locals[_i] = frame.stack.pop()
                    return _n

                out.append(c_stloc)
            elif op == "ldarg":

                def c_ldarg(frame, *, _i=instr.operand, _n=nxt) -> int:
                    frame.stack.append(frame.args[_i])
                    return _n

                out.append(c_ldarg)
            elif op == "starg":

                def c_starg(frame, *, _i=instr.operand, _n=nxt) -> int:
                    frame.args[_i] = frame.stack.pop()
                    return _n

                out.append(c_starg)
            elif op == "neg":

                def c_neg(frame, *, _n=nxt) -> int:
                    frame.stack.append(-frame.stack.pop())
                    return _n

                out.append(c_neg)
            elif op == "not":

                def c_not(frame, *, _n=nxt) -> int:
                    frame.stack.append(~frame.stack.pop())
                    return _n

                out.append(c_not)
            elif op == "conv.i8":

                def c_ci(frame, *, _n=nxt) -> int:
                    frame.stack.append(int(frame.stack.pop()))
                    return _n

                out.append(c_ci)
            elif op == "conv.r8":

                def c_cr(frame, *, _n=nxt) -> int:
                    frame.stack.append(float(frame.stack.pop()))
                    return _n

                out.append(c_cr)
            elif op == "call":
                callee_name = instr.operand
                callee = self.assembly.method(callee_name)
                nargs = callee.nparams
                returns = callee.returns

                def c_call(frame, *, _name=callee_name, _na=nargs, _r=returns, _n=nxt) -> int:
                    s = frame.stack
                    call_args = s[len(s) - _na :]
                    del s[len(s) - _na :]
                    result = engine.call(_name, *call_args)
                    if _r:
                        s.append(result)
                    return _n

                out.append(c_call)
            elif op == "callintern":
                name, arity, returns = parse_intern(instr.operand)

                def c_intern(frame, *, _fn=self._intern(name), _a=arity, _r=returns,
                             _n=nxt) -> int:
                    s = frame.stack
                    call_args = s[len(s) - _a :]
                    del s[len(s) - _a :]
                    result = _fn(*call_args)
                    if _r:
                        s.append(result)
                    return _n

                out.append(c_intern)
            elif op == "newobj":
                mt = rt.registry.resolve(instr.operand)

                def c_new(frame, *, _mt=mt, _n=nxt) -> int:
                    frame.stack.append(rt.new(_mt))
                    return _n

                out.append(c_new)
            elif op == "ldfld":
                _cls, _, field = instr.operand.partition("::")

                def c_ldfld(frame, *, _f=field, _full=instr.operand, _n=nxt) -> int:
                    obj = frame.stack.pop()
                    engine._field_access(obj, _f, _full)
                    frame.stack.append(rt.get_field(obj, _f))
                    return _n

                out.append(c_ldfld)
            elif op == "stfld":
                _cls, _, field = instr.operand.partition("::")

                def c_stfld(frame, *, _f=field, _full=instr.operand, _n=nxt) -> int:
                    value = frame.stack.pop()
                    obj = frame.stack.pop()
                    engine._field_access(obj, _f, _full)
                    engine._do_stfld(obj, _f, value)
                    return _n

                out.append(c_stfld)
            elif op == "newarr":

                def c_newarr(frame, *, _t=instr.operand, _n=nxt) -> int:
                    frame.stack.append(rt.new_array(_t, frame.stack.pop()))
                    return _n

                out.append(c_newarr)
            elif op == "ldlen":

                def c_ldlen(frame, *, _n=nxt) -> int:
                    frame.stack.append(rt.array_length(frame.stack.pop()))
                    return _n

                out.append(c_ldlen)
            elif op == "ldelem":

                def c_ldelem(frame, *, _n=nxt) -> int:
                    idx = frame.stack.pop()
                    arr = frame.stack.pop()
                    frame.stack.append(rt.get_elem(arr, idx))
                    return _n

                out.append(c_ldelem)
            elif op == "stelem":

                def c_stelem(frame, *, _n=nxt) -> int:
                    value = frame.stack.pop()
                    idx = frame.stack.pop()
                    arr = frame.stack.pop()
                    engine._do_stelem(arr, idx, value)
                    return _n

                out.append(c_stelem)
            else:  # pragma: no cover - verifier rejects unknown ops
                raise ILRuntimeError(f"cannot compile opcode {op}")
        return out
