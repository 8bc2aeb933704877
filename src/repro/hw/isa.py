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

from typing import Dict, List, NamedTuple, Optional, Tuple

from repro.util.bits import sign_extend

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
# One row per instruction: mnemonic, format, control-flow class and a
# Python-source semantic template. Both CPU execution tiers
# (repro.hw.translate), the disassembler below and the CFG lint
# (repro.analyze.cfg) read these rows; the CPU has no other copy of
# what an instruction does.
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
    fmt: str                    # "R", "I" or "J"
    flow: str                   # FALL, BRANCH, JUMP, INDIRECT or TRAP
    dst: Optional[str]          # register written: "rd", "rt" or "31"
    sem: str                    # semantic template (see above)
    mem: Optional[Tuple[str, int]] = None   # ("load"|"store", size)

    @property
    def links(self) -> bool:
        """A call: a transfer that leaves a return address behind."""
        return self.flow in (JUMP, INDIRECT) and self.dst is not None


_SIGNED_RS = "((r[rs] ^ B) - B)"
_SIGNED_RT = "((r[rt] ^ B) - B)"

#: SPECIAL (op 0) rows, by funct.
FUNCTS: Dict[int, OpInfo] = {
    FN_SLL: OpInfo("sll", "R", FALL, "rd", "(r[rt] << sa) & M"),
    FN_SRL: OpInfo("srl", "R", FALL, "rd", "r[rt] >> sa"),
    FN_SRA: OpInfo("sra", "R", FALL, "rd", f"({_SIGNED_RT} >> sa) & M"),
    FN_SLLV: OpInfo("sllv", "R", FALL, "rd",
                    "(r[rt] << (r[rs] & 31)) & M"),
    FN_SRLV: OpInfo("srlv", "R", FALL, "rd", "r[rt] >> (r[rs] & 31)"),
    FN_SRAV: OpInfo("srav", "R", FALL, "rd",
                    f"({_SIGNED_RT} >> (r[rs] & 31)) & M"),
    FN_JR: OpInfo("jr", "R", INDIRECT, None, "r[rs]"),
    FN_JALR: OpInfo("jalr", "R", INDIRECT, "rd", "r[rs]"),
    FN_SYSCALL: OpInfo("syscall", "R", TRAP, None, "SyscallTrap"),
    FN_BREAK: OpInfo("break", "R", TRAP, None, "BreakTrap"),
    FN_MUL: OpInfo("mul", "R", FALL, "rd", "(r[rs] * r[rt]) & M"),
    # Divide by zero traps (``_fpe``); the quotient truncates toward
    # zero and the remainder takes the dividend's sign.
    FN_DIV: OpInfo("div", "R", FALL, "rd",
                   f"int({_SIGNED_RS} / {_SIGNED_RT}) & M "
                   f"if r[rt] else _fpe(pc)"),
    FN_REM: OpInfo("rem", "R", FALL, "rd",
                   f"_rem({_SIGNED_RS}, {_SIGNED_RT}) & M "
                   f"if r[rt] else _fpe(pc)"),
    FN_ADD: OpInfo("add", "R", FALL, "rd", "(r[rs] + r[rt]) & M"),
    FN_SUB: OpInfo("sub", "R", FALL, "rd", "(r[rs] - r[rt]) & M"),
    FN_AND: OpInfo("and", "R", FALL, "rd", "r[rs] & r[rt]"),
    FN_OR: OpInfo("or", "R", FALL, "rd", "r[rs] | r[rt]"),
    FN_XOR: OpInfo("xor", "R", FALL, "rd", "r[rs] ^ r[rt]"),
    FN_NOR: OpInfo("nor", "R", FALL, "rd", "~(r[rs] | r[rt]) & M"),
    FN_SLT: OpInfo("slt", "R", FALL, "rd",
                   "1 if (r[rs] ^ B) < (r[rt] ^ B) else 0"),
    FN_SLTU: OpInfo("sltu", "R", FALL, "rd", "1 if r[rs] < r[rt] else 0"),
}

#: REGIMM (op 1) rows, by the rt field. The CPU executes any rt other
#: than RT_BLTZ as bgez (see :func:`lookup`).
REGIMM: Dict[int, OpInfo] = {
    RT_BLTZ: OpInfo("bltz", "I", BRANCH, None, f"{_SIGNED_RS} < 0"),
    RT_BGEZ: OpInfo("bgez", "I", BRANCH, None, f"{_SIGNED_RS} >= 0"),
}

#: Every other row, by primary opcode.
OPCODES: Dict[int, OpInfo] = {
    OP_J: OpInfo("j", "J", JUMP, None, "(npc & 0xF0000000) | (tgt << 2)"),
    OP_JAL: OpInfo("jal", "J", JUMP, "31",
                   "(npc & 0xF0000000) | (tgt << 2)"),
    OP_BEQ: OpInfo("beq", "I", BRANCH, None, "r[rs] == r[rt]"),
    OP_BNE: OpInfo("bne", "I", BRANCH, None, "r[rs] != r[rt]"),
    OP_BLEZ: OpInfo("blez", "I", BRANCH, None, f"{_SIGNED_RS} <= 0"),
    OP_BGTZ: OpInfo("bgtz", "I", BRANCH, None, f"{_SIGNED_RS} > 0"),
    OP_ADDI: OpInfo("addi", "I", FALL, "rt", "(r[rs] + simm) & M"),
    OP_SLTI: OpInfo("slti", "I", FALL, "rt",
                    f"1 if {_SIGNED_RS} < simm else 0"),
    OP_SLTIU: OpInfo("sltiu", "I", FALL, "rt",
                     "1 if r[rs] < (simm & M) else 0"),
    OP_ANDI: OpInfo("andi", "I", FALL, "rt", "r[rs] & imm"),
    OP_ORI: OpInfo("ori", "I", FALL, "rt", "r[rs] | imm"),
    OP_XORI: OpInfo("xori", "I", FALL, "rt", "r[rs] ^ imm"),
    OP_LUI: OpInfo("lui", "I", FALL, "rt", "(imm << 16) & M"),
    OP_LB: OpInfo("lb", "I", FALL, "rt", "((v ^ 0x80) - 0x80) & M",
                  ("load", 1)),
    OP_LH: OpInfo("lh", "I", FALL, "rt", "((v ^ 0x8000) - 0x8000) & M",
                  ("load", 2)),
    OP_LW: OpInfo("lw", "I", FALL, "rt", "v", ("load", 4)),
    OP_LBU: OpInfo("lbu", "I", FALL, "rt", "v", ("load", 1)),
    OP_LHU: OpInfo("lhu", "I", FALL, "rt", "v", ("load", 2)),
    OP_SB: OpInfo("sb", "I", FALL, None, "r[rt] & 0xFF", ("store", 1)),
    OP_SH: OpInfo("sh", "I", FALL, None, "r[rt] & 0xFFFF", ("store", 2)),
    OP_SW: OpInfo("sw", "I", FALL, None, "r[rt]", ("store", 4)),
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


# ---------------------------------------------------------------------------
# disassembly
# ---------------------------------------------------------------------------

_R_NAMES = {funct: row.mnemonic for funct, row in FUNCTS.items()}
_I_NAMES = {op: row.mnemonic for op, row in OPCODES.items()
            if row.fmt == "I"}

_LOADSTORE_OPS = {op for op, row in OPCODES.items() if row.mem}
_BRANCH2_OPS = {OP_BEQ, OP_BNE}      # the branches that compare two registers
_BRANCH1_OPS = {OP_BLEZ, OP_BGTZ}


def disassemble_word(word: int, pc: int = 0) -> str:
    """Best-effort one-line disassembly of *word* at address *pc*."""
    op = (word >> 26) & 0x3F
    rs = (word >> 21) & 31
    rt = (word >> 16) & 31
    rd = (word >> 11) & 31
    shamt = (word >> 6) & 31
    funct = word & 0x3F
    imm = word & 0xFFFF
    simm = sign_extend(imm, 16)
    n = REG_NAMES

    if word == 0:
        return "nop"
    if op == OP_SPECIAL:
        name = _R_NAMES.get(funct)
        if name is None:
            return f".word 0x{word:08x}"
        if funct in (FN_SLL, FN_SRL, FN_SRA):
            return f"{name} {n[rd]}, {n[rt]}, {shamt}"
        if funct in (FN_SLLV, FN_SRLV, FN_SRAV):
            return f"{name} {n[rd]}, {n[rt]}, {n[rs]}"
        if funct == FN_JR:
            return f"jr {n[rs]}"
        if funct == FN_JALR:
            return f"jalr {n[rd]}, {n[rs]}"
        if funct in (FN_SYSCALL, FN_BREAK):
            return name
        return f"{name} {n[rd]}, {n[rs]}, {n[rt]}"
    if op == OP_REGIMM:
        target = pc + 4 + (simm << 2)
        name = lookup(word).mnemonic
        return f"{name} {n[rs]}, 0x{target:x}"
    if op in (OP_J, OP_JAL):
        target = jump_target(pc, word & 0x3FFFFFF)
        return f"{OPCODES[op].mnemonic} 0x{target:x}"
    name = _I_NAMES.get(op)
    if name is None:
        return f".word 0x{word:08x}"
    if op in _BRANCH2_OPS:
        target = pc + 4 + (simm << 2)
        return f"{name} {n[rs]}, {n[rt]}, 0x{target:x}"
    if op in _BRANCH1_OPS:
        target = pc + 4 + (simm << 2)
        return f"{name} {n[rs]}, 0x{target:x}"
    if op == OP_LUI:
        return f"lui {n[rt]}, 0x{imm:x}"
    if op in _LOADSTORE_OPS:
        return f"{name} {n[rt]}, {simm}({n[rs]})"
    if op in (OP_ANDI, OP_ORI, OP_XORI):
        return f"{name} {n[rt]}, {n[rs]}, 0x{imm:x}"
    return f"{name} {n[rt]}, {n[rs]}, {simm}"
