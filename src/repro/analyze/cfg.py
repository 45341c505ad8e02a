"""Control-flow graphs over :class:`~repro.il.assembly.ILMethod` bodies.

The CFG is the substrate under the analyzer's path walk: basic
blocks are maximal straight-line instruction runs, edges come from the
verifier's branch-target seam
(:func:`repro.il.verifier.instruction_successors`), so the analyzer and
the verifier can never disagree about where control goes.

Build one with :func:`build_cfg` on a *verified* method — the builder
assumes labels resolve and control cannot fall off the end, which the
verifier has already established.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.il.assembly import ILMethod
from repro.il.verifier import instruction_successors


@dataclass
class BasicBlock:
    """A maximal single-entry straight-line run ``code[start:end]``."""

    start: int
    end: int  # exclusive: pc of the first instruction NOT in the block
    succs: tuple[int, ...] = ()  # successor block start pcs

    @property
    def terminator(self) -> int:
        """pc of the block's last instruction."""
        return self.end - 1

    def pcs(self) -> range:
        return range(self.start, self.end)


@dataclass
class CFG:
    """Basic blocks of one method, keyed by their start pc."""

    method: ILMethod
    blocks: dict[int, BasicBlock] = field(default_factory=dict)
    entry: int = 0


def build_cfg(method: ILMethod) -> CFG:
    """Partition a verified method into basic blocks and wire the edges."""
    code = method.code
    n = len(code)
    # Leaders: entry, every branch target, every instruction after a
    # terminator or branch.
    leaders = {0}
    for pc in range(n):
        succs = instruction_successors(method, pc)
        spec = code[pc].spec
        if spec.is_branch or spec.is_terminator or code[pc].op == "ret":
            leaders.update(s for s in succs if s < n)
            if pc + 1 < n:
                leaders.add(pc + 1)

    starts = sorted(leaders)
    cfg = CFG(method)
    for i, start in enumerate(starts):
        end = starts[i + 1] if i + 1 < len(starts) else n
        cfg.blocks[start] = BasicBlock(start, end)

    for block in cfg.blocks.values():
        block.succs = tuple(
            s for s in instruction_successors(method, block.terminator) if s < n
        )
    return cfg
