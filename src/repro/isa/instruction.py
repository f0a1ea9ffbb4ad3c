"""Instruction data model.

Two views exist:

* :class:`Instruction` -- a branch the *encoder* produces: an abstract
  instruction with a concrete encoding, placed at an address by the layout
  engine (the ground truth the workload generator knows).  Non-branch
  fillers are bare encodings in their block's byte run, not objects.
* :class:`DecodedInstruction` -- what the *decoder* recovers from raw
  bytes: length/kind/target only, which is all any front-end structure is
  allowed to see.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.isa.branch import BranchKind


@dataclass(frozen=True)
class DecodedInstruction:
    """Result of decoding bytes at one offset.

    ``target`` is the absolute target address for *direct* branches (the
    decoder computes ``pc + length + rel``); ``None`` for everything else,
    including returns and indirect branches whose targets need runtime
    state.
    """

    pc: int
    length: int
    kind: BranchKind
    target: int | None = None
    mnemonic: str = "op"

    def __post_init__(self) -> None:
        if not 1 <= self.length:
            raise ValueError(f"non-positive instruction length {self.length}")

    @property
    def end(self) -> int:
        """Address of the byte just past this instruction."""
        return self.pc + self.length

    @property
    def is_branch(self) -> bool:
        return self.kind.is_branch


@dataclass(slots=True)
class Instruction:
    """An encoder-side branch: bytes plus ground-truth metadata.

    ``target_label`` names a basic block whose final address is patched
    into the relative immediate once layout is complete.  Each basic
    block holds one, as its terminator; slotted, as a generated workload
    program holds up to 20k of them.
    """

    encoding: bytearray
    kind: BranchKind = BranchKind.NOT_BRANCH
    target_label: int | None = None
    rel_width: int = 0
    rel_offset: int = 0
    mnemonic: str = "op"
    pc: int = field(default=-1)

    @property
    def length(self) -> int:
        return len(self.encoding)

    @property
    def is_branch(self) -> bool:
        return self.kind.is_branch

    def patch_relative(self, target_address: int) -> None:
        """Write the PC-relative displacement to ``target_address``.

        Requires ``pc`` to be assigned (layout done).  Raises
        :class:`OverflowError` if the displacement does not fit the
        encoded immediate width, so the caller can re-encode with a wider
        form.
        """
        if self.pc < 0:
            raise RuntimeError("patch_relative before layout assigned a pc")
        if self.rel_width == 0:
            raise RuntimeError(f"{self.mnemonic} has no relative field")
        rel = target_address - (self.pc + self.length)
        limit = 1 << (8 * self.rel_width - 1)
        if not -limit <= rel < limit:
            raise OverflowError(
                f"rel{8 * self.rel_width} displacement {rel} out of range"
            )
        raw = rel & ((1 << (8 * self.rel_width)) - 1)
        self.encoding[self.rel_offset:self.rel_offset + self.rel_width] = (
            raw.to_bytes(self.rel_width, "little")
        )
