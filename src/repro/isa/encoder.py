"""Instruction encoder / assembler.

The workload generator asks this module for two things:

* **filler** encodings of a *chosen byte length* (1-15), so code images
  get a realistic instruction-length mix -- immediates and displacements
  are filled with random bytes, which is what makes head shadow decoding
  genuinely ambiguous.  A filler is bare bytes, not an
  :class:`~repro.isa.instruction.Instruction`: the generator appends it
  to its block's byte run, and nothing ever patches or relocates it;
* **branch** instructions in every form the paper cares about: rel8/rel32
  conditional jumps, rel8/rel32 unconditional jumps, rel32 calls, 1- and
  3-byte returns, and register/memory indirect jumps and calls.  These
  are :class:`~repro.isa.instruction.Instruction` objects, one per block
  terminator.

Relative immediates are left as zeros; the layout pass patches them via
:meth:`repro.isa.instruction.Instruction.patch_relative` once block
addresses are known.
"""

from __future__ import annotations

import random
from typing import Callable, Sequence

from repro.isa.branch import BranchKind
from repro.isa.instruction import Instruction
from repro.isa.opcodes import MAX_INSTRUCTION_LENGTH

#: Safe one-byte opcodes used for L=1 fillers and sampling variety.
_ONE_BYTE_OPS = (0x90, 0x50, 0x51, 0x53, 0x55, 0x58, 0x5B, 0x5D, 0x99, 0xC9, 0xF8, 0xFC)

#: ModRM-format opcodes (no immediate) used for register/memory fillers.
_MODRM_OPS = (0x01, 0x03, 0x09, 0x0B, 0x21, 0x23, 0x29, 0x2B, 0x31, 0x33,
              0x39, 0x3B, 0x85, 0x88, 0x89, 0x8A, 0x8B, 0x8D)

#: Prefixes that are always legal to prepend to a filler.
_SAFE_PREFIXES = (0x66, 0x2E, 0x3E, 0x36, 0x48, 0x4C, 0x41, 0x44, 0xF3)


def _modrm(mod: int, reg: int, rm: int) -> int:
    return ((mod & 3) << 6) | ((reg & 7) << 3) | (rm & 7)


# ----------------------------------------------------------------------
# Draws.  Every helper takes ``g = rng.getrandbits`` and consumes the
# Mersenne-Twister stream exactly as the ``random.Random`` method it
# stands for (CPython's ``_randbelow_with_getrandbits``: draw
# ``n.bit_length()`` bits, redraw until below ``n``), so programs are
# the same bytes either way; only the wrapper frames of ``randrange``,
# ``choice`` and ``_randbelow`` are gone.  The fixed-range helpers
# inline that loop with their constant bit count.
# ----------------------------------------------------------------------

def randbelow(g: Callable[[int], int], n: int) -> int:
    """``rng.randrange(n)``; ``n`` must be positive.

    ``randbelow(g, 256)`` is a 9-bit draw with rejection, and
    ``randbelow(g, 1)`` redraws one bit until it is 0, as in CPython.
    """
    k = n.bit_length()
    r = g(k)
    while r >= n:
        r = g(k)
    return r


def choice(g: Callable[[int], int], options: Sequence):
    """``rng.choice(options)`` for a non-empty ``options``."""
    return options[randbelow(g, len(options))]


def _reg(g: Callable[[int], int]) -> int:
    """``rng.randrange(8)``: a 4-bit draw, redrawn while >= 8."""
    r = g(4)
    while r >= 8:
        r = g(4)
    return r


def _rm_not4(g: Callable[[int], int]) -> int:
    """An rm field that selects no SIB byte (anything but 4): from
    ``rng.randrange(7)``, a 3-bit draw redrawn while 7."""
    r = g(3)
    while r == 7:
        r = g(3)
    return r if r < 4 else r + 1


def _byte(g: Callable[[int], int]) -> int:
    """``rng.randrange(256)``: a 9-bit draw, redrawn while >= 256."""
    r = g(9)
    while r >= 256:
        r = g(9)
    return r


def _imm(g: Callable[[int], int], width: int) -> bytearray:
    """``width`` bytes of ``rng.randrange(256)``."""
    out = bytearray(width)
    for i in range(width):
        r = g(9)
        while r >= 256:
            r = g(9)
        out[i] = r
    return out


def _sib(g: Callable[[int], int]) -> int:
    """A SIB byte with base != 5, so the mod==0 disp32 special case is
    not triggered: ``rng.randrange(256)`` redrawn while base == 5."""
    r = g(9)
    while r >= 256 or (r & 0x7) == 5:
        r = g(9)
    return r


class Encoder:
    """Stateless instruction factory (all randomness comes from the rng)."""

    # ------------------------------------------------------------------
    # Fillers
    # ------------------------------------------------------------------

    def filler(self, rng: random.Random, length: int) -> bytearray:
        """The encoding of a non-branch instruction of exactly ``length``
        bytes: the longest base encoding that fits, padded with
        prefixes."""
        if not 1 <= length <= MAX_INSTRUCTION_LENGTH:
            raise ValueError(f"filler length {length} outside 1..{MAX_INSTRUCTION_LENGTH}")
        g = rng.getrandbits
        encoding = choice(g, _FILLER_BODIES[length])(g)
        if len(encoding) < length:
            encoding = bytearray([choice(g, _SAFE_PREFIXES)
                                  for _ in range(length - len(encoding))]
                                 ) + encoding
        return encoding

    # ------------------------------------------------------------------
    # Direct branches
    # ------------------------------------------------------------------

    def cond_branch(self, rng: random.Random, target_label: int,
                    wide: bool = False) -> Instruction:
        """``jcc rel8`` (2B) or ``0x0F jcc rel32`` (6B)."""
        cc = randbelow(rng.getrandbits, 16)
        if wide:
            encoding = bytearray([0x0F, 0x80 + cc, 0, 0, 0, 0])
            rel_offset, rel_width = 2, 4
        else:
            encoding = bytearray([0x70 + cc, 0])
            rel_offset, rel_width = 1, 1
        return Instruction(encoding=encoding, kind=BranchKind.DIRECT_COND,
                           target_label=target_label, rel_width=rel_width,
                           rel_offset=rel_offset, mnemonic="jcc")

    def uncond_jmp(self, rng: random.Random, target_label: int,
                   wide: bool = True) -> Instruction:
        """``jmp rel32`` (5B) or ``jmp rel8`` (2B)."""
        if wide:
            encoding = bytearray([0xE9, 0, 0, 0, 0])
            rel_offset, rel_width = 1, 4
        else:
            encoding = bytearray([0xEB, 0])
            rel_offset, rel_width = 1, 1
        return Instruction(encoding=encoding, kind=BranchKind.DIRECT_UNCOND,
                           target_label=target_label, rel_width=rel_width,
                           rel_offset=rel_offset, mnemonic="jmp")

    def call(self, rng: random.Random, target_label: int) -> Instruction:
        """``call rel32`` (5B)."""
        encoding = bytearray([0xE8, 0, 0, 0, 0])
        return Instruction(encoding=encoding, kind=BranchKind.CALL,
                           target_label=target_label, rel_width=4,
                           rel_offset=1, mnemonic="call")

    def ret(self, rng: random.Random, with_imm: bool = False) -> Instruction:
        """``ret`` (1B) or ``ret imm16`` (3B)."""
        if with_imm:
            encoding = bytearray([0xC2]) + _imm(rng.getrandbits, 2)
        else:
            encoding = bytearray([0xC3])
        return Instruction(encoding=encoding, kind=BranchKind.RETURN,
                           mnemonic="ret")

    # ------------------------------------------------------------------
    # Indirect branches
    # ------------------------------------------------------------------

    def indirect_jmp(self, rng: random.Random, memory: bool = False) -> Instruction:
        return self._ff_group(rng, reg=4, memory=memory,
                              kind=BranchKind.INDIRECT_UNCOND, mnemonic="jmp r/m")

    def indirect_call(self, rng: random.Random, memory: bool = False) -> Instruction:
        return self._ff_group(rng, reg=2, memory=memory,
                              kind=BranchKind.INDIRECT_CALL, mnemonic="call r/m")

    def _ff_group(self, rng: random.Random, reg: int, memory: bool,
                  kind: BranchKind, mnemonic: str) -> Instruction:
        g = rng.getrandbits
        if memory:
            # mod=2 rm!=4: FF /reg [reg+disp32] -> 6 bytes.
            modrm = _modrm(2, reg, _rm_not4(g))
            encoding = bytearray([0xFF, modrm]) + _imm(g, 4)
        else:
            modrm = _modrm(3, reg, _reg(g))
            encoding = bytearray([0xFF, modrm])
        return Instruction(encoding=encoding, kind=kind, mnemonic=mnemonic)


# ----------------------------------------------------------------------
# Filler body builders, grouped by exact encoded length.  Each takes
# ``g = rng.getrandbits``; draws happen in argument order.
# ----------------------------------------------------------------------

_IMM8_OPS = (0x04, 0x0C, 0x24, 0x2C, 0x34, 0x3C, 0xA8, 0x6A, 0xB0, 0xB3, 0xB7)
_ESCAPE_OPS = (0xB6, 0xB7, 0xBE, 0xBF, 0xAF, 0x1F)
_MOFFS_OPS = (0xA0, 0xA1, 0xA2, 0xA3)


def _body_1(g) -> bytearray:
    return bytearray([choice(g, _ONE_BYTE_OPS)])


def _body_2_imm8(g) -> bytearray:
    return bytearray([choice(g, _IMM8_OPS), _byte(g)])


def _body_2_modrm_reg(g) -> bytearray:
    return bytearray([choice(g, _MODRM_OPS), _modrm(3, _reg(g), _reg(g))])


def _body_3_modrm_disp8(g) -> bytearray:
    return bytearray([choice(g, _MODRM_OPS), _modrm(1, _reg(g), _rm_not4(g)),
                      _byte(g)])


def _body_3_grp1_imm8(g) -> bytearray:
    return bytearray([0x83, _modrm(3, _reg(g), _reg(g)), _byte(g)])


def _body_3_escape_modrm(g) -> bytearray:
    return bytearray([0x0F, choice(g, _ESCAPE_OPS),
                      _modrm(3, _reg(g), _reg(g))])


def _body_4_modrm_sib_disp8(g) -> bytearray:
    return bytearray([choice(g, _MODRM_OPS), _modrm(1, _reg(g), 4), _sib(g),
                      _byte(g)])


def _body_4_escape_disp8(g) -> bytearray:
    return bytearray([0x0F, choice(g, _ESCAPE_OPS),
                      _modrm(1, _reg(g), _rm_not4(g)), _byte(g)])


def _body_5_mov_imm32(g) -> bytearray:
    return bytearray([0xB8 + _reg(g)]) + _imm(g, 4)


def _body_5_push_imm32(g) -> bytearray:
    return bytearray(b"\x68") + _imm(g, 4)


def _body_5_escape_sib_disp8(g) -> bytearray:
    return bytearray([0x0F, choice(g, _ESCAPE_OPS), _modrm(1, _reg(g), 4),
                      _sib(g), _byte(g)])


def _body_6_grp1_imm32(g) -> bytearray:
    return bytearray([0x81, _modrm(3, _reg(g), _reg(g))]) + _imm(g, 4)


def _body_6_modrm_disp32(g) -> bytearray:
    return (bytearray([choice(g, _MODRM_OPS),
                       _modrm(2, _reg(g), _rm_not4(g))])
            + _imm(g, 4))


def _body_7_modrm_sib_disp32(g) -> bytearray:
    return (bytearray([choice(g, _MODRM_OPS), _modrm(2, _reg(g), 4), _sib(g)])
            + _imm(g, 4))


def _body_7_grp1_disp8_imm32(g) -> bytearray:
    return (bytearray([0x81, _modrm(1, _reg(g), _rm_not4(g)), _byte(g)])
            + _imm(g, 4))


def _body_8_grp1_sib_disp8_imm32(g) -> bytearray:
    return (bytearray([0x81, _modrm(1, _reg(g), 4), _sib(g), _byte(g)])
            + _imm(g, 4))


def _body_9_moffs(g) -> bytearray:
    return bytearray([choice(g, _MOFFS_OPS)]) + _imm(g, 8)


def _body_10_grp1_disp32_imm32(g) -> bytearray:
    return (bytearray([0x81, _modrm(2, _reg(g), _rm_not4(g))])
            + _imm(g, 4) + _imm(g, 4))


def _body_11_grp1_sib_disp32_imm32(g) -> bytearray:
    return (bytearray([0x81, _modrm(2, _reg(g), 4), _sib(g)])
            + _imm(g, 4) + _imm(g, 4))


#: Builders indexed by the exact body length they encode.
_BODY_BUILDERS: tuple[tuple, ...] = (
    (),
    (_body_1,),
    (_body_2_imm8, _body_2_modrm_reg),
    (_body_3_modrm_disp8, _body_3_grp1_imm8, _body_3_escape_modrm),
    (_body_4_modrm_sib_disp8, _body_4_escape_disp8),
    (_body_5_mov_imm32, _body_5_push_imm32, _body_5_escape_sib_disp8),
    (_body_6_grp1_imm32, _body_6_modrm_disp32),
    (_body_7_modrm_sib_disp32, _body_7_grp1_disp8_imm32),
    (_body_8_grp1_sib_disp8_imm32,),
    (_body_9_moffs,),
    (_body_10_grp1_disp32_imm32,),
    (_body_11_grp1_sib_disp32_imm32,),
)
#: Builders for a filler of each length (index 0 unused): the longest
#: bodies that fit, with the rest of the length made up by prefixes.
_FILLER_BODIES = tuple(_BODY_BUILDERS[min(length, len(_BODY_BUILDERS) - 1)]
                       for length in range(MAX_INSTRUCTION_LENGTH + 1))
