"""Differential property test: interpreter and JIT agree on verified code.

Random straight-line arithmetic programs are generated, verified, and run
on both engines; any divergence is an engine bug.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.il import ExecutionEngine, ILRuntimeError, assemble, VerifyError
from repro.runtime import ManagedRuntime

# straight-line op pool: each entry is (ops, net stack effect) over ints
_OPS = [
    ("add", -1),
    ("sub", -1),
    ("mul", -1),
    ("xor", -1),
    ("and", -1),
    ("or", -1),
    ("cgt", -1),
    ("clt", -1),
    ("ceq", -1),
    ("dup", +1),
    ("neg", 0),
    ("not", 0),
]


@st.composite
def straightline_program(draw) -> str:
    """A verified-by-construction arithmetic method over 2 args."""
    lines = ["ldarg 0", "ldarg 1"]
    depth = 2
    n = draw(st.integers(min_value=0, max_value=30))
    for _ in range(n):
        choices = [(op, eff) for op, eff in _OPS if depth + eff >= 1 and (eff != -1 or depth >= 2)]
        # occasionally push a constant
        if depth < 6 and draw(st.booleans()):
            lines.append(f"ldc.i4 {draw(st.integers(-100, 100))}")
            depth += 1
            continue
        op, eff = draw(st.sampled_from(choices))
        lines.append(op)
        depth += eff
    while depth > 1:
        lines.append("add")
        depth -= 1
    lines.append("ret")
    body = "\n    ".join(lines)
    return f".method m(a, b) returns {{\n    {body}\n}}"


@settings(max_examples=80, deadline=None)
@given(
    src=straightline_program(),
    a=st.integers(min_value=-(2**31), max_value=2**31),
    b=st.integers(min_value=-(2**31), max_value=2**31),
)
def test_interp_and_jit_agree(src, a, b):
    asm = assemble(src)
    jit = ExecutionEngine(ManagedRuntime(), asm, mode="jit")
    interp = ExecutionEngine(ManagedRuntime(), asm, mode="interp")
    assert jit.call("m", a, b) == interp.call("m", a, b)


@settings(max_examples=40, deadline=None)
@given(
    n=st.integers(min_value=0, max_value=60),
    step=st.integers(min_value=1, max_value=7),
)
def test_loop_agreement(n, step):
    src = f"""
    .method m(n) returns {{
        .locals 2
        ldc.i4 0
        stloc 0
        ldc.i4 0
        stloc 1
    top:
        ldloc 1
        ldarg 0
        clt
        brfalse out
        ldloc 0
        ldloc 1
        ldc.i4 3
        mul
        add
        stloc 0
        ldloc 1
        ldc.i4 {step}
        add
        stloc 1
        br top
    out:
        ldloc 0
        ret
    }}
    """
    asm = assemble(src)
    jit = ExecutionEngine(ManagedRuntime(), asm, mode="jit")
    interp = ExecutionEngine(ManagedRuntime(), asm, mode="interp")
    assert jit.call("m", n) == interp.call("m", n)


@settings(max_examples=60, deadline=None)
@given(
    seq=st.lists(st.sampled_from(["pop", "dup", "ldc", "add", "ret_early"]), max_size=12)
)
def test_verifier_consistency_with_engines(seq):
    """Whatever the verifier accepts, both engines run without internal
    faults; whatever it rejects, we never execute."""
    lines = []
    for tok in seq:
        if tok == "ldc":
            lines.append("ldc.i4 1")
        elif tok == "ret_early":
            lines.append("ldc.i4 0")
            lines.append("ret")
        else:
            lines.append(tok)
    lines += ["ldc.i4 0", "ret"]
    src = ".method m() returns {\n" + "\n".join(lines) + "\n}"
    asm = assemble(src)
    try:
        jit = ExecutionEngine(ManagedRuntime(), asm, mode="jit")
    except VerifyError:
        return  # rejected: nothing more to check
    interp = ExecutionEngine(ManagedRuntime(), asm, mode="interp")
    try:
        r1 = jit.call("m")
    except ILRuntimeError as exc:  # pragma: no cover - would be a bug
        raise AssertionError(f"verified method faulted in jit: {exc}") from exc
    r2 = interp.call("m")
    assert r1 == r2


def test_conversions_and_wide_division_agree():
    """``conv.r8``/``conv.i8`` and ``div`` past 2**52, where a float
    quotient would round: both engines truncate toward zero, exactly."""
    src = """
    .method m(a, b) returns {
        ldarg 0
        ldarg 1
        div
        ldarg 0
        conv.r8
        conv.i8
        ldarg 0
        sub
        add
        ret
    }
    """
    asm = assemble(src)
    jit = ExecutionEngine(ManagedRuntime(), asm, mode="jit")
    interp = ExecutionEngine(ManagedRuntime(), asm, mode="interp")
    for a, b in (((1 << 60) + 1, 3), (-(1 << 60) - 1, 3), ((1 << 60) + 1, -3), (7, -2)):
        quotient = abs(a) // abs(b) * (1 if (a < 0) == (b < 0) else -1)
        want = quotient + int(float(a)) - a
        assert jit.call("m", a, b) == interp.call("m", a, b) == want
