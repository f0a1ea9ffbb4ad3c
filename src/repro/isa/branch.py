"""Branch taxonomy used across the simulator.

The categories mirror Section 2.4 of the paper.  Only *direct* branches and
returns are eligible for shadow decoding: their targets are computable from
the program counter and instruction bytes alone (or, for returns, from the
return address stack), without execution-time register state.
"""

from __future__ import annotations

import enum


class BranchKind(enum.Enum):
    """Classification of control-transfer instructions.

    ``NOT_BRANCH`` is included so that every decoded instruction carries a
    kind and callers never need a separate "is this a branch" sentinel.
    """

    NOT_BRANCH = "not_branch"
    DIRECT_COND = "DirectCond"
    DIRECT_UNCOND = "DirectUnCond"
    CALL = "Call"
    RETURN = "Return"
    INDIRECT_UNCOND = "IndirectUnCond"
    INDIRECT_CALL = "IndirectCall"

    @property
    def is_branch(self) -> bool:
        return self is not BranchKind.NOT_BRANCH

    @property
    def is_direct(self) -> bool:
        """True when the target is encoded in the instruction bytes."""
        return self in _DIRECT

    @property
    def is_indirect(self) -> bool:
        return self in _INDIRECT

    @property
    def is_conditional(self) -> bool:
        return self is BranchKind.DIRECT_COND

    @property
    def is_unconditional(self) -> bool:
        return self.is_branch and self is not BranchKind.DIRECT_COND

    @property
    def is_call(self) -> bool:
        return self in (BranchKind.CALL, BranchKind.INDIRECT_CALL)

    @property
    def sbb_eligible(self) -> bool:
        """True when Skia's shadow decoder may capture this branch.

        Per Section 2.4, only branches whose target is determined from the
        PC plus an encoded offset (direct unconditional jumps and calls) or
        from recent calls (returns) are viable; conditional branches are
        excluded because the predictor would still need a direction, and
        indirect branches because the target needs register state.
        """
        return self in SBB_ELIGIBLE


#: The kinds :attr:`BranchKind.sbb_eligible` accepts, for hot loops
#: that test membership directly.
SBB_ELIGIBLE = frozenset(
    {BranchKind.DIRECT_UNCOND, BranchKind.CALL, BranchKind.RETURN}
)

_DIRECT = frozenset(
    {BranchKind.DIRECT_COND, BranchKind.DIRECT_UNCOND, BranchKind.CALL}
)
_INDIRECT = frozenset({BranchKind.INDIRECT_UNCOND, BranchKind.INDIRECT_CALL})

#: Branch kinds as reported in the paper's Figure 6 breakdown.
REPORTED_KINDS = (
    BranchKind.DIRECT_COND,
    BranchKind.DIRECT_UNCOND,
    BranchKind.CALL,
    BranchKind.RETURN,
    BranchKind.INDIRECT_UNCOND,
    BranchKind.INDIRECT_CALL,
)
