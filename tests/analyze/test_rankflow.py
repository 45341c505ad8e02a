"""The rank-symbolic message-flow pass (repro.analyze.rankflow).

The buggy/clean demo pairs under examples/analyze/ are covered by
test_buggy_examples; here we drive the engine directly with *variant*
programs per rule (size-coefficient divergence, count mismatch,
recv/recv cycles, ANY_TAG races), plus the machinery itself: the
symbolic domain, path dedup, loop truncation, the fork budget,
interprocedural splicing and recursion poisoning.
"""

import pytest

from repro.analyze import analyze_assembly
from repro.analyze.findings import Report
from repro.analyze.rankflow import (
    MAX_PATHS,
    RANK,
    SIZE,
    Affine,
    Cmp,
    RankFlow,
    const,
    pred_sat,
    render_pred,
)
from repro.il import assemble

pytestmark = pytest.mark.analyze


def _analyze(il: str, world_size=2):
    return analyze_assembly(assemble(il, name="t"), world_size=world_size)


# ---------------------------------------------------------------------------
# The symbolic domain: a*rank + b*size + c and comparisons against zero
# ---------------------------------------------------------------------------


class TestAffine:
    def test_arithmetic(self):
        assert (RANK + const(2)).eval(3, 4) == 5
        assert (SIZE - RANK).eval(1, 3) == 2
        assert (-RANK).eval(2, 4) == -2
        assert RANK.scaled(3) == Affine(a=3)

    def test_const_projection(self):
        assert const(5).const == 5
        assert RANK.const is None
        assert (SIZE - SIZE).const == 0

    def test_rendering(self):
        assert str(RANK + const(1)) == "rank + 1"
        assert str(Affine()) == "0"
        assert "size" in str(SIZE)


class TestCmp:
    def test_eval_is_comparison_against_zero(self):
        assert Cmp(RANK, "==").eval(0, 2)
        assert not Cmp(RANK, "==").eval(1, 2)
        assert Cmp(RANK - SIZE, "<").eval(1, 2)

    def test_negate_round_trips(self):
        c = Cmp(RANK - const(1), "<")
        assert c.negate().op == ">="
        assert c.negate().negate() == c

    def test_rank_dependence(self):
        assert Cmp(RANK, "<").rank_dependent
        assert Cmp(SIZE, ">").rank_dependent
        assert not Cmp(const(1), "==").rank_dependent

    def test_pred_sat_conjunction(self):
        pred = (Cmp(RANK, "=="), Cmp(SIZE - const(2), "=="))
        assert pred_sat(pred, 0, 2)
        assert not pred_sat(pred, 1, 2)
        assert not pred_sat(pred, 0, 3)

    def test_render_pred(self):
        assert render_pred(()) == "all ranks"
        assert "rank" in render_pred((Cmp(RANK, "=="),))


# ---------------------------------------------------------------------------
# Per-rule variants (the examples/ demos are the canonical TP/TN corpus;
# these exercise different triggers of the same rules)
# ---------------------------------------------------------------------------

# MA-S05 via a *size* coefficient: the last rank skips the barrier.
S05_BUGGY = """
.method main() returns {
    callintern MP.Rank/0:r
    callintern MP.Size/0:r
    sub
    ldc.i4 1
    add
    brfalse last
    callintern MP.Barrier/0
last:
    ldc.i4 0
    ret
}
"""

S05_CLEAN = """
.method main() returns {
    callintern MP.Rank/0:r
    callintern MP.Size/0:r
    sub
    ldc.i4 1
    add
    brfalse last
    ldc.i4 7
    pop
last:
    callintern MP.Barrier/0
    ldc.i4 0
    ret
}
"""

# MA-S06 via a *length* mismatch (the demo pair mismatches the type).
S06_BUGGY = """
.method main() returns {
    callintern MP.Rank/0:r
    brtrue receiver
    ldc.i4 8
    newarr int32
    ldc.i4 1
    ldc.i4 2
    callintern MP.Send/3
    ldc.i4 0
    ret
receiver:
    ldc.i4 4
    newarr int32
    ldc.i4 0
    ldc.i4 2
    callintern MP.Recv/3:r
    pop
    ldc.i4 0
    ret
}
"""

S06_CLEAN = S06_BUGGY.replace("ldc.i4 4\n    newarr", "ldc.i4 8\n    newarr")

# MA-S09 via a pure recv/recv cycle (the demo pair uses Ssend exchange).
S09_BUGGY = """
.method main() returns {
    callintern MP.Rank/0:r
    brtrue other
    ldc.i4 4
    newarr int32
    ldc.i4 1
    ldc.i4 1
    callintern MP.Recv/3:r
    pop
    ldc.i4 0
    ret
other:
    ldc.i4 4
    newarr int32
    ldc.i4 0
    ldc.i4 1
    callintern MP.Recv/3:r
    pop
    ldc.i4 0
    ret
}
"""

S09_CLEAN = """
.method main() returns {
    callintern MP.Rank/0:r
    brtrue other
    ldc.i4 4
    newarr int32
    ldc.i4 1
    ldc.i4 1
    callintern MP.Recv/3:r
    pop
    ldc.i4 0
    ret
other:
    ldc.i4 4
    newarr int32
    ldc.i4 0
    ldc.i4 1
    callintern MP.Send/3
    ldc.i4 0
    ret
}
"""

# MA-S10 via ANY_TAG (the demo pair uses ANY_SOURCE): two same-source
# sends with different tags are both in flight when the wildcard
# receive picks one.
S10_BUGGY = """
.method main() returns {
    callintern MP.Rank/0:r
    brtrue sender
    callintern MP.Barrier/0
    ldc.i4 4
    newarr int32
    ldc.i4 1
    ldc.i4 -1
    callintern MP.Recv/3:r
    pop
    ldc.i4 4
    newarr int32
    ldc.i4 1
    ldc.i4 -1
    callintern MP.Recv/3:r
    pop
    ldc.i4 0
    ret
sender:
    ldc.i4 4
    newarr int32
    ldc.i4 0
    ldc.i4 3
    callintern MP.Send/3
    ldc.i4 4
    newarr int32
    ldc.i4 0
    ldc.i4 4
    callintern MP.Send/3
    callintern MP.Barrier/0
    ldc.i4 0
    ret
}
"""

# The fixed twin receives with explicit tags, in the posted order.
S10_CLEAN = S10_BUGGY.replace("ldc.i4 -1", "ldc.i4 3", 1).replace(
    "ldc.i4 -1", "ldc.i4 4", 1
)

VARIANTS = [
    ("MA-S05", S05_BUGGY, S05_CLEAN, None),  # None: sample both 2 and 3
    ("MA-S06", S06_BUGGY, S06_CLEAN, 2),
    ("MA-S09", S09_BUGGY, S09_CLEAN, 2),
    ("MA-S10", S10_BUGGY, S10_CLEAN, 2),
]


class TestRuleVariants:
    @pytest.mark.parametrize("rule,buggy,clean,world", VARIANTS)
    def test_buggy_variant_trips_exactly_its_rule(self, rule, buggy, clean, world):
        report = _analyze(buggy, world_size=world)
        assert report.by_rule(rule), report.render_text()
        assert set(report.counts()) == {rule}, report.render_text()

    @pytest.mark.parametrize("rule,buggy,clean,world", VARIANTS)
    def test_clean_variant_is_clean(self, rule, buggy, clean, world):
        report = _analyze(clean, world_size=world)
        assert not report.findings, report.render_text()


# ---------------------------------------------------------------------------
# Engine machinery
# ---------------------------------------------------------------------------

# Two paths (fork on a statically-unknown array element) reach the same
# dropped Irecv: ONE finding, with a paths count of 2.
DEDUP_IL = """
.method main() returns {
    .locals 2
    ldc.i4 4
    newarr int32
    stloc 1
    ldc.i4 8
    newarr int32
    ldc.i4 0
    ldc.i4 6
    callintern MP.Irecv/3:r
    pop
    ldloc 1
    ldc.i4 0
    ldelem
    brtrue skip
skip:
    ldc.i4 0
    ret
}
"""

# A loop whose trip count is unknown: every deep path is truncated at
# the block-visit bound, the shallow exits agree, and no rule fires on
# the cut evidence.
TRUNCATED_LOOP = """
.method main() returns {
    .locals 2
    ldc.i4 4
    newarr int32
    stloc 1
    ldloc 1
    ldc.i4 0
    ldelem
    stloc 0
top:
    ldloc 0
    brfalse done
    callintern MP.Barrier/0
    ldloc 0
    ldc.i4 1
    sub
    stloc 0
    br top
done:
    ldc.i4 0
    ret
}
"""

# The collective lives in a single-path helper: divergence is only
# visible once the callee's events splice into the caller's paths.
SPLICED_DIVERGENCE = """
.method sync() returns {
    callintern MP.Barrier/0
    ldc.i4 0
    ret
}
.method main() returns {
    callintern MP.Rank/0:r
    brtrue done
    call sync
    pop
done:
    ldc.i4 0
    ret
}
"""

# The request handle is passed down to a helper that waits on it: the
# handle escapes and MA-S08 must stay quiet.
ESCAPED_HANDLE = """
.method finish(r) returns {
    ldarg 0
    callintern MP.Wait/1
    ldc.i4 0
    ret
}
.method main() returns {
    callintern MP.Rank/0:r
    brtrue other
    ldc.i4 8
    newarr int32
    ldc.i4 1
    ldc.i4 6
    callintern MP.Irecv/3:r
    call finish
    pop
other:
    ldc.i4 0
    ret
}
"""

# Self-recursion: the cycle is cut with a poisoned (incomplete) summary
# and the caller sees an event hole, which every rule forgives.
RECURSIVE = """
.method loop(n) returns {
    ldarg 0
    brfalse done
    callintern MP.Barrier/0
    ldarg 0
    ldc.i4 1
    sub
    call loop
    ret
done:
    ldc.i4 0
    ret
}
.method main() returns {
    ldc.i4 3
    call loop
    pop
    ldc.i4 0
    ret
}
"""


def _many_forks(n: int) -> str:
    lines = [
        ".method main() returns {",
        "    .locals 1",
        "    ldc.i4 4",
        "    newarr int32",
        "    stloc 0",
    ]
    for k in range(n):
        lines += [
            "    ldloc 0",
            "    ldc.i4 0",
            "    ldelem",
            f"    brtrue L{k}",
            f"L{k}:",
        ]
    lines += ["    ldc.i4 0", "    ret", "}"]
    return "\n".join(lines)


class TestEngine:
    def test_identical_findings_across_paths_dedup_with_count(self):
        report = _analyze(DEDUP_IL)
        leaks = report.by_rule("MA-S08")
        assert len(leaks) == 1, report.render_text()
        assert dict(leaks[0].details)["paths"] == 2
        assert len(report.findings) == 1

    def test_truncated_loop_paths_stay_silent(self):
        asm = assemble(TRUNCATED_LOOP, name="t")
        rf = RankFlow(asm, 2, Report())
        summary = rf.summarize(asm.methods["main"])
        assert any(p.truncated for p in summary.paths)
        report = _analyze(TRUNCATED_LOOP)
        assert not report.findings, report.render_text()

    def test_fork_budget_bounds_path_explosion(self):
        # 2^10 potential paths against a budget of 64: exploration must
        # stop at the cap, mark the summary incomplete, and stay silent.
        il = _many_forks(10)
        asm = assemble(il, name="t")
        rf = RankFlow(asm, 2, Report())
        summary = rf.summarize(asm.methods["main"])
        assert not summary.complete
        assert len(summary.paths) <= MAX_PATHS
        report = _analyze(il)
        assert not report.findings, report.render_text()

    def test_summaries_are_memoized(self):
        asm = assemble(S05_BUGGY, name="t")
        rf = RankFlow(asm, 2, Report())
        first = rf.summarize(asm.methods["main"])
        assert rf.summarize(asm.methods["main"]) is first

    def test_divergence_through_spliced_callee(self):
        report = _analyze(SPLICED_DIVERGENCE)
        assert report.by_rule("MA-S05"), report.render_text()

    def test_handle_escaping_to_callee_is_not_a_leak(self):
        report = _analyze(ESCAPED_HANDLE)
        assert not report.findings, report.render_text()

    def test_recursion_terminates_and_stays_conservative(self):
        report = _analyze(RECURSIVE)
        assert not report.findings, report.render_text()
