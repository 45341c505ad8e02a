"""CFG construction over IL method bodies (repro.analyze.cfg)."""

import pytest

from repro.analyze.cfg import build_cfg
from repro.il import assemble
from repro.il.verifier import instruction_successors

pytestmark = pytest.mark.analyze


def _method(source: str, name: str = "main"):
    return assemble(source, name="t").methods[name]


STRAIGHT = """
.method main() returns {
    ldc.i4 1
    ldc.i4 2
    add
    ret
}
"""

DIAMOND = """
.method main() returns {
    .locals 1
    ldc.i4 1
    brtrue yes
    ldc.i4 10
    stloc 0
    br join
yes:
    ldc.i4 20
    stloc 0
join:
    ldloc 0
    ret
}
"""

class TestBuildCfg:
    def test_straight_line_is_one_block(self):
        cfg = build_cfg(_method(STRAIGHT))
        assert list(cfg.blocks) == [0]
        block = cfg.blocks[0]
        assert (block.start, block.end) == (0, 4)
        assert block.succs == ()  # ret terminates

    def test_diamond_shape(self):
        cfg = build_cfg(_method(DIAMOND))
        # entry, both arms, join
        assert len(cfg.blocks) == 4
        entry = cfg.blocks[cfg.entry]
        assert len(entry.succs) == 2

    def test_blocks_partition_the_code(self):
        method = _method(DIAMOND)
        cfg = build_cfg(method)
        covered = sorted(pc for b in cfg.blocks.values() for pc in b.pcs())
        assert covered == list(range(len(method.code)))

    def test_edges_agree_with_verifier_seam(self):
        method = _method(DIAMOND)
        cfg = build_cfg(method)
        for block in cfg.blocks.values():
            expected = tuple(
                s for s in instruction_successors(method, block.terminator)
                if s < len(method.code)
            )
            assert block.succs == expected
