"""Instruction-set definition: encodings, register names, traps, the
semantics table and disassembly.

32-bit fixed-width instructions, little-endian in memory. Three formats:

* R-type: ``op=0 | rs | rt | rd | shamt | funct``
* I-type: ``op | rs | rt | imm16``
* J-type: ``op | target26``

Branches use a signed 16-bit *word* offset relative to the instruction
after the branch. Jumps replace the low 28 bits of the next PC, keeping
the top 4 bits — the R3000 region limit central to §3 of the paper.
"""

from __future__ import annotations

from typing import (Callable, Dict, Iterator, List, NamedTuple, Optional,
                    Tuple)

# ---------------------------------------------------------------------------
# registers
# ---------------------------------------------------------------------------

REG_NAMES: List[str] = [
    "zero", "at", "v0", "v1", "a0", "a1", "a2", "a3",
    "t0", "t1", "t2", "t3", "t4", "t5", "t6", "t7",
    "s0", "s1", "s2", "s3", "s4", "s5", "s6", "s7",
    "t8", "t9", "k0", "k1", "gp", "sp", "fp", "ra",
]

REG_ZERO = 0
REG_AT = 1
REG_V0 = 2
REG_V1 = 3
REG_A0 = 4
REG_A1 = 5
REG_A2 = 6
REG_A3 = 7
REG_GP = 28
REG_SP = 29
REG_FP = 30
REG_RA = 31

_REG_NUMBERS: Dict[str, int] = {}
for _i, _name in enumerate(REG_NAMES):
    _REG_NUMBERS[_name] = _i
    _REG_NUMBERS[f"r{_i}"] = _i
    _REG_NUMBERS[f"${_name}"] = _i
    _REG_NUMBERS[f"${_i}"] = _i


def register_number(name: str) -> int:
    """Resolve a register name (``a0``, ``$a0``, ``r4``, ``$4``) to 0..31."""
    try:
        return _REG_NUMBERS[name.lower()]
    except KeyError:
        raise ValueError(f"unknown register {name!r}") from None


# ---------------------------------------------------------------------------
# opcodes and functs
# ---------------------------------------------------------------------------

OP_SPECIAL = 0x00
OP_REGIMM = 0x01
OP_J = 0x02
OP_JAL = 0x03
OP_BEQ = 0x04
OP_BNE = 0x05
OP_BLEZ = 0x06
OP_BGTZ = 0x07
OP_ADDI = 0x08
OP_SLTI = 0x0A
OP_SLTIU = 0x0B
OP_ANDI = 0x0C
OP_ORI = 0x0D
OP_XORI = 0x0E
OP_LUI = 0x0F
OP_LB = 0x20
OP_LH = 0x21
OP_LW = 0x23
OP_LBU = 0x24
OP_LHU = 0x25
OP_SB = 0x28
OP_SH = 0x29
OP_SW = 0x2B

FN_SLL = 0x00
FN_SRL = 0x02
FN_SRA = 0x03
FN_SLLV = 0x04
FN_SRLV = 0x06
FN_SRAV = 0x07
FN_JR = 0x08
FN_JALR = 0x09
FN_SYSCALL = 0x0C
FN_BREAK = 0x0D
FN_MUL = 0x18
FN_DIV = 0x1A
FN_REM = 0x1B
FN_ADD = 0x20
FN_SUB = 0x22
FN_AND = 0x24
FN_OR = 0x25
FN_XOR = 0x26
FN_NOR = 0x27
FN_SLT = 0x2A
FN_SLTU = 0x2B

RT_BLTZ = 0x00
RT_BGEZ = 0x01

JUMP_REGION_BITS = 28  # j/jal reach: 2**28 bytes = 256 MiB


# ---------------------------------------------------------------------------
# encoding
# ---------------------------------------------------------------------------

def encode_r(funct: int, rd: int = 0, rs: int = 0, rt: int = 0,
             shamt: int = 0) -> int:
    """Encode an R-type instruction."""
    return ((rs & 31) << 21) | ((rt & 31) << 16) | ((rd & 31) << 11) \
        | ((shamt & 31) << 6) | (funct & 0x3F)


def encode_i(op: int, rs: int = 0, rt: int = 0, imm: int = 0) -> int:
    """Encode an I-type instruction (immediate truncated to 16 bits)."""
    return ((op & 0x3F) << 26) | ((rs & 31) << 21) | ((rt & 31) << 16) \
        | (imm & 0xFFFF)


def encode_j(op: int, target26: int) -> int:
    """Encode a J-type instruction from a pre-shifted 26-bit field."""
    return ((op & 0x3F) << 26) | (target26 & 0x3FFFFFF)


def jump_field(address: int) -> int:
    """The 26-bit field encoding *address* (must be word-aligned)."""
    return (address >> 2) & 0x3FFFFFF


def jump_target(pc: int, target26: int) -> int:
    """Resolve a J-type field at *pc* to an absolute target address."""
    return ((pc + 4) & 0xF0000000) | (target26 << 2)


def jump_reachable(pc: int, target: int) -> bool:
    """True if a j/jal at *pc* can reach *target* (same 256 MiB region)."""
    return ((pc + 4) & 0xF0000000) == (target & 0xF0000000)


def branch_offset(pc: int, target: int) -> int:
    """Signed word offset for a branch at *pc* to *target*."""
    delta = target - (pc + 4)
    if delta % 4:
        raise ValueError("branch target not word aligned")
    return delta >> 2


# ---------------------------------------------------------------------------
# traps
# ---------------------------------------------------------------------------

class Trap(Exception):
    """A synchronous event requiring kernel service."""

    def __init__(self, pc: int) -> None:
        super().__init__(f"{type(self).__name__} at pc=0x{pc:08x}")
        self.pc = pc


class SyscallTrap(Trap):
    """The program executed ``syscall``."""


class BreakTrap(Trap):
    """The program executed ``break`` (used as an explicit halt/abort)."""


class ArithmeticTrap(Trap):
    """Integer divide or remainder by zero."""


# ---------------------------------------------------------------------------
# the semantics table
# ---------------------------------------------------------------------------
#
# One row per instruction: mnemonic, operand syntax, control-flow
# class and a Python-source semantic template. Both CPU execution tiers
# (repro.hw.translate), the assembler (repro.hw.asm), the disassembler
# below and the static checks (repro.analyze.cfg, .sharing and
# .sanitize) read these rows; none of them has another copy of what an
# instruction is or does.
#
# The syntax lists the operands in assembly order, each naming the field
# it fills: registers ``rd rs rt``, the shift amount ``sa``, the 16-bit
# immediate as ``imm`` (unsigned, shown in hex) or ``simm`` (signed),
# the memory operand ``simm(rs)``, a branch's ``label`` (a pc-relative
# word offset in ``simm``) and a jump's ``tgt`` (the 26-bit field).
#
# Templates are expressions over ``r`` (the register list), the decoded
# fields ``rs rt rd sa imm tgt``, the pre-sign-extended immediate
# ``simm``, the instruction's ``pc``, the fall-through ``npc`` and the
# TEMPLATE_NAMES below. ``M`` is the 32-bit mask and ``B`` the sign bit,
# so ``((x ^ B) - B)`` reads register ``x`` as a signed value. What the
# expression means depends on the row's control-flow class and memory
# column:
#
# * FALL: the value written to ``dst``; for a load, computed from the
#   loaded value ``v``; for a store, the value stored at
#   ``(r[rs] + simm) & M``;
# * BRANCH: the taken condition (the target is ``npc + (simm << 2)``);
# * JUMP and INDIRECT: the target address (a linking row writes ``npc``
#   to ``dst``);
# * TRAP: the name of the trap raised at ``pc``.

FALL = "fall"          # execution continues at npc
BRANCH = "branch"      # conditional, pc-relative
JUMP = "jump"          # j/jal: absolute within the 256 MiB region
INDIRECT = "indirect"  # jr/jalr: through a register
TRAP = "trap"          # syscall/break: the kernel takes over


class OpInfo(NamedTuple):
    """One row of the semantics table."""

    mnemonic: str
    syntax: str                 # operands, e.g. "rt, simm(rs)" (see above)
    flow: str                   # FALL, BRANCH, JUMP, INDIRECT or TRAP
    dst: Optional[str]          # register written: "rd", "rt" or "31"
    sem: str                    # semantic template (see above)
    mem: Optional[Tuple[str, int]] = None   # ("load"|"store", size)

    @property
    def links(self) -> bool:
        """A call: a transfer that leaves a return address behind."""
        return self.flow in (JUMP, INDIRECT) and self.dst is not None

    @property
    def operands(self) -> Tuple[str, ...]:
        """The syntax split into its operands."""
        return tuple(self.syntax.split(", ")) if self.syntax else ()


_SIGNED_RS = "((r[rs] ^ B) - B)"
_SIGNED_RT = "((r[rt] ^ B) - B)"

#: SPECIAL (op 0) rows, by funct.
FUNCTS: Dict[int, OpInfo] = {
    FN_SLL: OpInfo("sll", "rd, rt, sa", FALL, "rd", "(r[rt] << sa) & M"),
    FN_SRL: OpInfo("srl", "rd, rt, sa", FALL, "rd", "r[rt] >> sa"),
    FN_SRA: OpInfo("sra", "rd, rt, sa", FALL, "rd",
                   f"({_SIGNED_RT} >> sa) & M"),
    FN_SLLV: OpInfo("sllv", "rd, rt, rs", FALL, "rd",
                    "(r[rt] << (r[rs] & 31)) & M"),
    FN_SRLV: OpInfo("srlv", "rd, rt, rs", FALL, "rd",
                    "r[rt] >> (r[rs] & 31)"),
    FN_SRAV: OpInfo("srav", "rd, rt, rs", FALL, "rd",
                    f"({_SIGNED_RT} >> (r[rs] & 31)) & M"),
    FN_JR: OpInfo("jr", "rs", INDIRECT, None, "r[rs]"),
    FN_JALR: OpInfo("jalr", "rd, rs", INDIRECT, "rd", "r[rs]"),
    FN_SYSCALL: OpInfo("syscall", "", TRAP, None, "SyscallTrap"),
    FN_BREAK: OpInfo("break", "", TRAP, None, "BreakTrap"),
    FN_MUL: OpInfo("mul", "rd, rs, rt", FALL, "rd", "(r[rs] * r[rt]) & M"),
    # Divide by zero traps (``_fpe``); the quotient truncates toward
    # zero and the remainder takes the dividend's sign.
    FN_DIV: OpInfo("div", "rd, rs, rt", FALL, "rd",
                   f"int({_SIGNED_RS} / {_SIGNED_RT}) & M "
                   f"if r[rt] else _fpe(pc)"),
    FN_REM: OpInfo("rem", "rd, rs, rt", FALL, "rd",
                   f"_rem({_SIGNED_RS}, {_SIGNED_RT}) & M "
                   f"if r[rt] else _fpe(pc)"),
    FN_ADD: OpInfo("add", "rd, rs, rt", FALL, "rd", "(r[rs] + r[rt]) & M"),
    FN_SUB: OpInfo("sub", "rd, rs, rt", FALL, "rd", "(r[rs] - r[rt]) & M"),
    FN_AND: OpInfo("and", "rd, rs, rt", FALL, "rd", "r[rs] & r[rt]"),
    FN_OR: OpInfo("or", "rd, rs, rt", FALL, "rd", "r[rs] | r[rt]"),
    FN_XOR: OpInfo("xor", "rd, rs, rt", FALL, "rd", "r[rs] ^ r[rt]"),
    FN_NOR: OpInfo("nor", "rd, rs, rt", FALL, "rd", "~(r[rs] | r[rt]) & M"),
    FN_SLT: OpInfo("slt", "rd, rs, rt", FALL, "rd",
                   "1 if (r[rs] ^ B) < (r[rt] ^ B) else 0"),
    FN_SLTU: OpInfo("sltu", "rd, rs, rt", FALL, "rd",
                    "1 if r[rs] < r[rt] else 0"),
}

#: REGIMM (op 1) rows, by the rt field. The CPU executes any rt other
#: than RT_BLTZ as bgez (see :func:`lookup`).
REGIMM: Dict[int, OpInfo] = {
    RT_BLTZ: OpInfo("bltz", "rs, label", BRANCH, None, f"{_SIGNED_RS} < 0"),
    RT_BGEZ: OpInfo("bgez", "rs, label", BRANCH, None, f"{_SIGNED_RS} >= 0"),
}

#: Every other row, by primary opcode.
OPCODES: Dict[int, OpInfo] = {
    OP_J: OpInfo("j", "tgt", JUMP, None, "(npc & 0xF0000000) | (tgt << 2)"),
    OP_JAL: OpInfo("jal", "tgt", JUMP, "31",
                   "(npc & 0xF0000000) | (tgt << 2)"),
    OP_BEQ: OpInfo("beq", "rs, rt, label", BRANCH, None, "r[rs] == r[rt]"),
    OP_BNE: OpInfo("bne", "rs, rt, label", BRANCH, None, "r[rs] != r[rt]"),
    OP_BLEZ: OpInfo("blez", "rs, label", BRANCH, None, f"{_SIGNED_RS} <= 0"),
    OP_BGTZ: OpInfo("bgtz", "rs, label", BRANCH, None, f"{_SIGNED_RS} > 0"),
    OP_ADDI: OpInfo("addi", "rt, rs, simm", FALL, "rt", "(r[rs] + simm) & M"),
    OP_SLTI: OpInfo("slti", "rt, rs, simm", FALL, "rt",
                    f"1 if {_SIGNED_RS} < simm else 0"),
    OP_SLTIU: OpInfo("sltiu", "rt, rs, simm", FALL, "rt",
                     "1 if r[rs] < (simm & M) else 0"),
    OP_ANDI: OpInfo("andi", "rt, rs, imm", FALL, "rt", "r[rs] & imm"),
    OP_ORI: OpInfo("ori", "rt, rs, imm", FALL, "rt", "r[rs] | imm"),
    OP_XORI: OpInfo("xori", "rt, rs, imm", FALL, "rt", "r[rs] ^ imm"),
    OP_LUI: OpInfo("lui", "rt, imm", FALL, "rt", "(imm << 16) & M"),
    OP_LB: OpInfo("lb", "rt, simm(rs)", FALL, "rt",
                  "((v ^ 0x80) - 0x80) & M", ("load", 1)),
    OP_LH: OpInfo("lh", "rt, simm(rs)", FALL, "rt",
                  "((v ^ 0x8000) - 0x8000) & M", ("load", 2)),
    OP_LW: OpInfo("lw", "rt, simm(rs)", FALL, "rt", "v", ("load", 4)),
    OP_LBU: OpInfo("lbu", "rt, simm(rs)", FALL, "rt", "v", ("load", 1)),
    OP_LHU: OpInfo("lhu", "rt, simm(rs)", FALL, "rt", "v", ("load", 2)),
    OP_SB: OpInfo("sb", "rt, simm(rs)", FALL, None, "r[rt] & 0xFF",
                  ("store", 1)),
    OP_SH: OpInfo("sh", "rt, simm(rs)", FALL, None, "r[rt] & 0xFFFF",
                  ("store", 2)),
    OP_SW: OpInfo("sw", "rt, simm(rs)", FALL, None, "r[rt]", ("store", 4)),
}


def _fpe(pc: int) -> int:
    raise ArithmeticTrap(pc)


def _rem(a: int, b: int) -> int:
    return a - int(a / b) * b


#: The names templates use besides the fields, ``r``, ``v`` and ``int``.
TEMPLATE_NAMES = {
    "M": 0xFFFFFFFF, "B": 0x80000000,
    "_fpe": _fpe, "_rem": _rem,
    "SyscallTrap": SyscallTrap, "BreakTrap": BreakTrap,
}


def lookup(word: int) -> Optional[OpInfo]:
    """The table row the CPU executes for *word*, or None if it raises
    :class:`InvalidInstructionError` instead. A REGIMM word executes as
    bltz when its rt field is RT_BLTZ and as bgez for any other rt, even
    one :data:`REGIMM` has no row for."""
    op = (word >> 26) & 0x3F
    if op == OP_SPECIAL:
        return FUNCTS.get(word & 0x3F)
    if op == OP_REGIMM:
        return REGIMM[RT_BLTZ if (word >> 16) & 31 == RT_BLTZ else RT_BGEZ]
    return OPCODES.get(op)


def rows() -> Iterator[Tuple[int, OpInfo]]:
    """Every row with the bits its encoding fixes: the opcode, plus the
    funct of a SPECIAL row or the rt field of a REGIMM row."""
    for funct, row in FUNCTS.items():
        yield (OP_SPECIAL << 26) | funct, row
    for rt, row in REGIMM.items():
        yield (OP_REGIMM << 26) | (rt << 16), row
    for op, row in OPCODES.items():
        yield op << 26, row


# ---------------------------------------------------------------------------
# disassembly
# ---------------------------------------------------------------------------

def _simm(word: int) -> int:
    return ((word & 0xFFFF) ^ 0x8000) - 0x8000


#: How each syntax operand reads back from a word at some pc.
_OPERAND_TEXT: Dict[str, Callable[[int, int], str]] = {
    "rd": lambda word, pc: REG_NAMES[(word >> 11) & 31],
    "rs": lambda word, pc: REG_NAMES[(word >> 21) & 31],
    "rt": lambda word, pc: REG_NAMES[(word >> 16) & 31],
    "sa": lambda word, pc: str((word >> 6) & 31),
    "imm": lambda word, pc: f"0x{word & 0xFFFF:x}",
    "simm": lambda word, pc: str(_simm(word)),
    "simm(rs)": lambda word, pc:
        f"{_simm(word)}({REG_NAMES[(word >> 21) & 31]})",
    "label": lambda word, pc: f"0x{pc + 4 + (_simm(word) << 2):x}",
    "tgt": lambda word, pc: f"0x{jump_target(pc, word & 0x3FFFFFF):x}",
}


#: Each syntax's operand formatters, in order.
_FORMATTERS = {row.syntax: tuple(_OPERAND_TEXT[operand]
                                 for operand in row.operands)
               for _bits, row in rows()}


def disassemble_word(word: int, pc: int = 0) -> str:
    """Best-effort one-line disassembly of *word* at address *pc*."""
    if word == 0:
        return "nop"
    row = lookup(word)
    if row is None:
        return f".word 0x{word:08x}"
    if not row.syntax:
        return row.mnemonic
    operands = [text(word, pc) for text in _FORMATTERS[row.syntax]]
    return f"{row.mnemonic} {', '.join(operands)}"
