"""Static pass: every MA-S rule fires on its trigger, and clean IL is clean."""

import pathlib

import pytest

from repro.analyze import analyze_assembly
from repro.analyze.cfg import build_cfg
from repro.analyze.findings import Report
from repro.analyze.gate import discover_il_units
from repro.analyze.rankflow import RankFlow
from repro.il import assemble
from repro.il.verifier import verify_method

pytestmark = pytest.mark.analyze

REPO_ROOT = pathlib.Path(__file__).parent.parent.parent


def _analyze(source: str, world_size=2):
    return analyze_assembly(assemble(source, name="t"), world_size=world_size)


REF_CLASS = """
.class Node transportable {
    int32[] data transportable
    Node next transportable
}
"""

FLAT_CLASS = """
.class Pair transportable {
    int32 a transportable
    float64 b transportable
}
"""

CLEAN = """
.method main() returns {
    .locals 1
    callintern MP.Rank/0:r
    brtrue follower
    ldc.i4 8
    newarr float64
    stloc 0
    ldloc 0
    ldc.i4 1
    ldc.i4 5
    callintern MP.Send/3
    callintern MP.Barrier/0
    ldc.i4 0
    ret
follower:
    ldc.i4 8
    newarr float64
    stloc 0
    ldloc 0
    ldc.i4 0
    ldc.i4 5
    callintern MP.Recv/3:r
    callintern MP.Barrier/0
    ret
}
"""


class TestCleanPrograms:
    def test_clean_send_recv_pair(self):
        assert not _analyze(CLEAN).findings

    def test_flat_class_is_a_legal_raw_buffer(self):
        src = FLAT_CLASS + """
.method main() returns {
    newobj Pair
    ldc.i4 1
    ldc.i4 5
    callintern MP.Send/3
    ldc.i4 8
    newarr int32
    ldc.i4 1
    ldc.i4 5
    callintern MP.Recv/3:r
    ret
}
"""
        assert not _analyze(src).findings

    def test_osend_of_linked_class_is_clean(self):
        src = REF_CLASS + """
.method main() returns {
    newobj Node
    ldc.i4 1
    ldc.i4 5
    callintern MP.OSend/3
    ldc.i4 1
    ldc.i4 5
    callintern MP.ORecv/2:r
    pop
    ldc.i4 0
    ret
}
"""
        assert not _analyze(src).findings


class TestMAS00VerifyFailure:
    def test_broken_method_reported_not_raised(self):
        src = """
.method bad() returns {
    add
    ret
}
"""
        rep = _analyze(src)
        hits = rep.by_rule("MA-S00")
        assert hits and hits[0].method == "bad"

    def test_other_methods_still_checked(self):
        src = REF_CLASS + """
.method bad() returns {
    add
    ret
}

.method worse() returns {
    newobj Node
    ldc.i4 1
    ldc.i4 5
    callintern MP.Send/3
    ldc.i4 0
    ret
}
"""
        rep = _analyze(src)
        assert rep.by_rule("MA-S00")
        assert rep.by_rule("MA-S01")


class TestMAS01RawRefTransfer:
    def test_linked_class_send_rejected(self):
        src = REF_CLASS + """
.method main() returns {
    newobj Node
    ldc.i4 1
    ldc.i4 5
    callintern MP.Send/3
    ldc.i4 0
    ret
}
"""
        hits = _analyze(src).by_rule("MA-S01")
        assert hits
        assert "Node" in hits[0].message
        assert hits[0].method == "main" and hits[0].pc is not None

    def test_ref_array_send_rejected(self):
        src = REF_CLASS + """
.method main() returns {
    ldc.i4 4
    newarr Node
    ldc.i4 1
    ldc.i4 5
    callintern MP.Send/3
    ldc.i4 0
    ret
}
"""
        assert _analyze(src).by_rule("MA-S01")

    def test_transitive_ref_through_value_flow(self):
        # the bad object flows through a local before reaching the send
        src = REF_CLASS + """
.method main() returns {
    .locals 1
    newobj Node
    stloc 0
    ldloc 0
    ldc.i4 1
    ldc.i4 5
    callintern MP.Isend/3:r
    pop
    ldc.i4 0
    ret
}
"""
        assert _analyze(src).by_rule("MA-S01")


class TestMAS02SignatureMismatch:
    def test_wrong_arity(self):
        src = """
.method main() returns {
    ldc.i4 1
    callintern MP.Barrier/1
    ldc.i4 0
    ret
}
"""
        hits = _analyze(src).by_rule("MA-S02")
        assert hits and "MP.Barrier/0" in hits[0].message

    def test_ignored_return_flag(self):
        src = """
.method main() returns {
    callintern MP.Rank/0
    ldc.i4 0
    ret
}
"""
        assert _analyze(src).by_rule("MA-S02")

    def test_int_where_buffer_expected(self):
        src = """
.method main() returns {
    ldc.i4 42
    ldc.i4 1
    ldc.i4 5
    callintern MP.Send/3
    ldc.i4 0
    ret
}
"""
        assert _analyze(src).by_rule("MA-S02")


class TestMAS03UnmatchedSend:
    def test_send_tag_without_receive(self):
        src = """
.method main() returns {
    ldc.i4 8
    newarr int32
    ldc.i4 1
    ldc.i4 99
    callintern MP.Send/3
    ldc.i4 0
    ret
}
"""
        hits = _analyze(src).by_rule("MA-S03")
        assert hits

    def test_peer_out_of_world_range(self):
        src = """
.method main() returns {
    ldc.i4 8
    newarr int32
    ldc.i4 9
    ldc.i4 5
    callintern MP.Send/3
    ldc.i4 8
    newarr int32
    ldc.i4 0
    ldc.i4 5
    callintern MP.Recv/3:r
    ret
}
"""
        assert _analyze(src, world_size=2).by_rule("MA-S03")
        # without a declared world size the peer range is unknowable
        assert not _analyze(src, world_size=None).by_rule("MA-S03")


class TestMAS04UnknownInternal:
    def test_unknown_mp_internal(self):
        src = """
.method main() returns {
    callintern MP.Bogus/0
    ldc.i4 0
    ret
}
"""
        hits = _analyze(src).by_rule("MA-S04")
        assert hits and "MP.Bogus" in hits[0].message

    def test_non_mp_internals_are_not_our_business(self):
        src = """
.method main() returns {
    callintern rank/0:r
    ret
}
"""
        assert not _analyze(src).findings


# ---------------------------------------------------------------------------
# Sites no enumerated path reaches are still checked
# ---------------------------------------------------------------------------

#: A send on a rank branch the sample grid (sizes 2 and 3) prunes.
RANK_FIVE = REF_CLASS + """
.method main() returns {
    callintern MP.Rank/0:r
    ldc.i4 5
    ceq
    brfalse done
    newobj Node
    ldc.i4 1
    ldc.i4 5
    callintern MP.Send/3
done:
    ldc.i4 0
    ret
}
"""


def _forked_sends(n: int) -> str:
    """*n* data forks, each with a reference-bearing send when taken."""
    lines = [REF_CLASS, ".method main() returns {", "    .locals 1",
             "    ldc.i4 4", "    newarr int32", "    stloc 0"]
    for k in range(n):
        lines += [
            "    ldloc 0", "    ldc.i4 0", "    ldelem", f"    brtrue T{k}",
            f"    br J{k}", f"T{k}:", "    newobj Node", "    ldc.i4 1",
            "    ldc.i4 5", "    callintern MP.Send/3", f"J{k}:",
        ]
    lines += ["    ldc.i4 0", "    ret", "}"]
    return "\n".join(lines)


#: 70 forks: past the 64-path budget.
FORKED_SENDS = _forked_sends(70)

#: A typed result of each kind used where another is expected.
AGREE_AS_BUFFER = """
.method main() returns {
    ldc.i4 1
    callintern MP.Agree/1:r
    ldc.i4 1
    ldc.i4 5
    callintern MP.Send/3
    ldc.i4 0
    ret
}
"""

RESTORE_AS_BUFFER = """
.method main() returns {
    callintern MP.Restore/0:r
    ldc.i4 1
    ldc.i4 5
    callintern MP.Send/3
    ldc.i4 0
    ret
}
"""

WINDOW_AS_PEER = """
.method main() returns {
    ldc.i4 8
    newarr float64
    ldc.i4 8
    newarr float64
    callintern MP.WinCreate/1:r
    ldc.i4 5
    callintern MP.Send/3
    ldc.i4 0
    ret
}
"""


#: A data fork that joins before the send: a Node allocated on each side.
JOINED_BUFFER = REF_CLASS + """
.method main() returns {
    .locals 2
    ldc.i4 4
    newarr int32
    stloc 1
    ldloc 1
    ldc.i4 0
    ldelem
    brtrue other
    newobj Node
    stloc 0
    br send
other:
    newobj Node
    stloc 0
send:
    ldloc 0
    ldc.i4 1
    ldc.i4 5
    callintern MP.Send/3
    ldc.i4 0
    ret
}
"""

#: A data fork on whose one side FENCE runs, joining before a put.
JOINED_EPOCH = """
.method main() returns {
    .locals 3
    ldc.i4 8
    newarr float64
    stloc 0
    ldloc 0
    callintern MP.WinCreate/1:r
    stloc 1
    ldc.i4 4
    newarr int32
    stloc 2
    ldloc 2
    ldc.i4 0
    ldelem
    brtrue put
FENCE
put:
    ldloc 1
    ldloc 0
    ldc.i4 1
    ldc.i4 0
    callintern MP.WinPut/4
    ldc.i4 0
    ret
}
"""


class TestSiteEntriesJoinWalks:
    def test_buffers_join_by_class(self):
        # two allocations are distinct objects, but one class: still MA-S01
        assert len(_analyze(JOINED_BUFFER).by_rule("MA-S01")) == 1

    @pytest.mark.parametrize("fence,hits", [
        ("    ldloc 1\n    callintern MP.WinFence/1", 0), ("", 1),
    ])
    def test_epochs_join_to_unknown(self, fence, hits):
        report = _analyze(JOINED_EPOCH.replace("FENCE", fence))
        assert len(report.by_rule("MA-S11")) == hits


class TestEveryReachableSite:
    @pytest.mark.parametrize("world_size", [None, 8])
    def test_pruned_rank_branch_is_checked(self, world_size):
        hits = _analyze(RANK_FIVE, world_size=world_size).by_rule("MA-S01")
        assert len(hits) == 1 and "Node" in hits[0].message

    def test_forks_past_the_path_budget_are_checked(self):
        hits = _analyze(FORKED_SENDS).by_rule("MA-S01")
        assert len(hits) == 70
        assert len({f.pc for f in hits}) == 70

    @pytest.mark.parametrize(
        "source", [AGREE_AS_BUFFER, RESTORE_AS_BUFFER, WINDOW_AS_PEER],
        ids=["agree-buffer", "restore-buffer", "window-peer"],
    )
    def test_typed_results_reach_the_signature_check(self, source):
        hits = _analyze(source).by_rule("MA-S02")
        assert len(hits) == 1 and "argument" in hits[0].message


#: Every gate unit, and the programs above.
COVERAGE_PROGRAMS = [(u.name, u.source) for u in discover_il_units(str(REPO_ROOT))] + [
    ("rank_five", RANK_FIVE), ("forked_sends", FORKED_SENDS),
    ("agree_as_buffer", AGREE_AS_BUFFER), ("restore_as_buffer", RESTORE_AS_BUFFER),
    ("window_as_peer", WINDOW_AS_PEER), ("joined_buffer", JOINED_BUFFER),
]


@pytest.mark.parametrize("name,source", COVERAGE_PROGRAMS,
                         ids=[n for n, _ in COVERAGE_PROGRAMS])
def test_every_reachable_mp_site_has_an_entry(name, source):
    asm = assemble(source, name=name)
    for method in asm.methods.values():
        verify_method(asm, method)
    rf = RankFlow(asm, None, Report())
    for method in asm.methods.values():
        summary = rf.summarize(method)
        cfg = build_cfg(method)
        reached, todo = set(), [cfg.entry]
        while todo:
            start = todo.pop()
            if start not in reached:
                reached.add(start)
                todo.extend(cfg.blocks[start].succs)
        for start in reached:
            for pc in cfg.blocks[start].pcs():
                instr = method.code[pc]
                if instr.op == "callintern" and str(instr.operand).startswith("MP."):
                    assert pc in summary.sites, (method.name, pc, instr.operand)
