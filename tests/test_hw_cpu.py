"""CPU interpreter tests: run tiny programs bare-metal and check state.

Programs are assembled, manually placed at fixed addresses (no linker —
these tests sit below it), and run until a trap.
"""

import itertools
import random

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.errors import (
    AlignmentError,
    ExecutionBudgetExceeded,
    HardwareError,
    InvalidInstructionError,
)
from repro.hw.asm import assemble
from repro.hw.cpu import ArithmeticTrap, BreakTrap, Cpu, SyscallTrap, Trap
from repro.hw import isa
from repro.objfile.format import RelocType
from repro.util.bits import hi16, lo16
from repro.vm.address_space import (
    MAP_SHARED,
    PROT_RW,
    PROT_RWX,
    AddressSpace,
)
from repro.vm.faults import PageFaultError
from repro.vm.pages import MemoryObject, PhysicalMemory

TEXT = 0x1000
DATA = 0x3000


def run_program(source: str, max_instructions: int = 10000):
    """Assemble, place, and run until syscall; returns (cpu, space)."""
    obj = assemble(source)
    addresses = {}
    for symbol in obj.symbols.values():
        if symbol.section == "text":
            addresses[symbol.name] = TEXT + symbol.value
        elif symbol.section == "data":
            addresses[symbol.name] = DATA + symbol.value
        elif symbol.section == "bss":
            addresses[symbol.name] = DATA + 0x800 + symbol.value
    text = bytearray(obj.text)
    data = bytearray(obj.data)
    for reloc in obj.relocations:
        target = addresses[reloc.symbol] + reloc.addend
        buf = text if reloc.section == "text" else data
        word = int.from_bytes(buf[reloc.offset: reloc.offset + 4], "little")
        if reloc.type is RelocType.HI16:
            word = (word & 0xFFFF0000) | hi16(target)
        elif reloc.type is RelocType.LO16:
            word = (word & 0xFFFF0000) | lo16(target)
        elif reloc.type is RelocType.WORD32:
            word = target
        elif reloc.type is RelocType.JUMP26:
            word = (word & 0xFC000000) | ((target >> 2) & 0x3FFFFFF)
        buf[reloc.offset: reloc.offset + 4] = word.to_bytes(4, "little")

    pm = PhysicalMemory()
    space = AddressSpace(pm)
    space.map(TEXT, 0x1000, prot=PROT_RWX)
    space.map(DATA, 0x1000, prot=PROT_RWX)
    space.map(0x7F000000, 0x10000, prot=PROT_RWX)
    space.write_bytes(TEXT, bytes(text))
    space.write_bytes(DATA, bytes(data))
    cpu = Cpu(space)
    cpu.pc = TEXT
    cpu.regs[isa.REG_SP] = 0x7F00FFF0
    try:
        cpu.run(max_instructions)
    except SyscallTrap:
        pass
    return cpu, space


class TestArithmetic:
    def test_add_sub(self):
        cpu, _ = run_program("""
            .text
            li t0, 40
            li t1, 2
            add t2, t0, t1
            sub t3, t0, t1
            syscall
        """)
        assert cpu.regs[10] == 42
        assert cpu.regs[11] == 38

    def test_wraparound(self):
        cpu, _ = run_program("""
            .text
            li t0, 0xFFFFFFFF
            addi t0, t0, 1
            syscall
        """)
        assert cpu.regs[8] == 0

    def test_mul_div_rem(self):
        cpu, _ = run_program("""
            .text
            li t0, -7
            li t1, 2
            mul t2, t0, t1
            div t3, t0, t1
            rem t4, t0, t1
            syscall
        """)
        assert cpu.regs[10] == 0xFFFFFFF2  # -14
        assert cpu.regs[11] == 0xFFFFFFFD  # -3 (truncation toward zero)
        assert cpu.regs[12] == 0xFFFFFFFF  # -1

    def test_divide_by_zero_traps(self):
        with pytest.raises(ArithmeticTrap):
            run_program(".text\nli t0, 1\nli t1, 0\ndiv t2, t0, t1")

    def test_logic_ops(self):
        cpu, _ = run_program("""
            .text
            li t0, 0xF0F0
            li t1, 0x0FF0
            and t2, t0, t1
            or  t3, t0, t1
            xor t4, t0, t1
            nor t5, t0, t1
            syscall
        """)
        assert cpu.regs[10] == 0x00F0
        assert cpu.regs[11] == 0xFFF0
        assert cpu.regs[12] == 0xFF00
        assert cpu.regs[13] == 0xFFFF000F

    def test_shifts(self):
        cpu, _ = run_program("""
            .text
            li t0, 0x80000000
            srl t1, t0, 4
            sra t2, t0, 4
            li t3, 1
            sll t4, t3, 31
            syscall
        """)
        assert cpu.regs[9] == 0x08000000
        assert cpu.regs[10] == 0xF8000000
        assert cpu.regs[12] == 0x80000000

    def test_slt_signed_vs_unsigned(self):
        cpu, _ = run_program("""
            .text
            li t0, -1
            li t1, 1
            slt t2, t0, t1
            sltu t3, t0, t1
            syscall
        """)
        assert cpu.regs[10] == 1   # -1 < 1 signed
        assert cpu.regs[11] == 0   # 0xFFFFFFFF > 1 unsigned

    def test_zero_register_immutable(self):
        cpu, _ = run_program(".text\nli zero, 42\nsyscall")
        assert cpu.regs[0] == 0


class TestControlFlow:
    def test_loop_sum(self):
        cpu, _ = run_program("""
            .text
            li t0, 10
            li t1, 0
        loop:
            add t1, t1, t0
            addi t0, t0, -1
            bgtz t0, loop
            syscall
        """)
        assert cpu.regs[9] == 55

    def test_jal_sets_ra_and_jr_returns(self):
        cpu, _ = run_program("""
            .text
            jal fn
            li t5, 7
            syscall
        fn:
            li t4, 3
            jr ra
        """)
        assert cpu.regs[12] == 3
        assert cpu.regs[13] == 7

    def test_jalr(self):
        cpu, _ = run_program("""
            .text
            la t0, fn
            jalr ra, t0
            syscall
        fn:
            li t4, 9
            jr ra
        """)
        assert cpu.regs[12] == 9

    def test_bltz_bgez(self):
        cpu, _ = run_program("""
            .text
            li t0, -5
            bltz t0, neg
            li t1, 0
            syscall
        neg:
            li t1, 1
            bgez zero, done
            li t1, 2
        done:
            syscall
        """)
        assert cpu.regs[9] == 1

    def test_backward_branch_near_zero_wraps_pc(self):
        """Regression: a taken backward branch whose target arithmetic
        goes below zero must wrap mod 2^32, never set a negative PC."""
        pm = PhysicalMemory()
        space = AddressSpace(pm)
        space.map(0, 0x1000, prot=PROT_RWX)
        # beq zero, zero, -16  (offset -64 bytes from pc 0 -> -60)
        word = isa.encode_i(isa.OP_BEQ, imm=(-16) & 0xFFFF)
        space.write_bytes(0, word.to_bytes(4, "little"))
        cpu = Cpu(space)
        cpu.pc = 0
        cpu.step()
        assert cpu.pc == (4 - 64) & 0xFFFFFFFF  # 0xFFFFFFC4, not -60
        assert cpu.pc >= 0

    def test_backward_regimm_branch_near_zero_wraps_pc(self):
        pm = PhysicalMemory()
        space = AddressSpace(pm)
        space.map(0, 0x1000, prot=PROT_RWX)
        # bltz t0, -16 with t0 negative: taken, target wraps.
        word = isa.encode_i(isa.OP_REGIMM, rs=8, rt=isa.RT_BLTZ,
                            imm=(-16) & 0xFFFF)
        space.write_bytes(0, word.to_bytes(4, "little"))
        cpu = Cpu(space)
        cpu.pc = 0
        cpu.regs[8] = 0xFFFFFFFF  # -1
        cpu.step()
        assert cpu.pc == (4 - 64) & 0xFFFFFFFF
        assert cpu.pc >= 0

    def test_beq_bne(self):
        cpu, _ = run_program("""
            .text
            li t0, 4
            li t1, 4
            beq t0, t1, eq
            li t2, 0
            syscall
        eq:
            bne t0, zero, done
            li t2, 1
        done:
            li t2, 2
            syscall
        """)
        assert cpu.regs[10] == 2


class TestMemoryAccess:
    def test_load_store_word(self):
        cpu, space = run_program("""
            .text
            la t0, slot
            li t1, 0xCAFE
            sw t1, 0(t0)
            lw t2, 0(t0)
            syscall
            .data
        slot: .word 0
        """)
        assert cpu.regs[10] == 0xCAFE

    def test_byte_and_half_access(self):
        cpu, _ = run_program("""
            .text
            la t0, bytes
            lbu t1, 0(t0)
            lb  t2, 1(t0)
            lhu t3, 2(t0)
            lh  t4, 2(t0)
            syscall
            .data
        bytes: .byte 0x7F, 0xFF
            .half 0x8000
        """)
        assert cpu.regs[9] == 0x7F
        assert cpu.regs[10] == 0xFFFFFFFF
        assert cpu.regs[11] == 0x8000
        assert cpu.regs[12] == 0xFFFF8000

    def test_sb_sh(self):
        cpu, space = run_program("""
            .text
            la t0, slot
            li t1, 0xAABBCCDD
            sw t1, 0(t0)
            li t2, 0x11
            sb t2, 0(t0)
            li t3, 0x2233
            sh t3, 2(t0)
            lw t4, 0(t0)
            syscall
            .data
        slot: .word 0
        """)
        assert cpu.regs[12] == 0x2233CC11

    def test_misaligned_word_access(self):
        with pytest.raises(AlignmentError):
            run_program(".text\nli t0, 0x3001\nlw t1, 0(t0)")

    def test_unmapped_access_faults_restartably(self):
        """The fault must leave the PC at the faulting instruction."""
        source = ".text\nli t0, 0x500000\nlw t1, 0(t0)\nsyscall"
        obj = assemble(source)
        pm = PhysicalMemory()
        space = AddressSpace(pm)
        space.map(TEXT, 0x1000, prot=PROT_RWX)
        space.write_bytes(TEXT, bytes(obj.text))
        cpu = Cpu(space)
        cpu.pc = TEXT
        with pytest.raises(PageFaultError) as info:
            cpu.run()
        faulting_pc = cpu.pc
        assert info.value.address == 0x500000
        # Map the page, restart: the instruction must now succeed.
        space.map(0x500000, 0x1000, prot=PROT_RWX)
        space.store_word(0x500000, 99)
        assert cpu.pc == faulting_pc
        with pytest.raises(SyscallTrap):
            cpu.run()
        assert cpu.regs[9] == 99


class TestTraps:
    def test_break(self):
        with pytest.raises(BreakTrap):
            run_program(".text\nbreak")

    def test_invalid_instruction(self):
        source = ".text\n.word 0\n"
        obj = assemble(".text\nnop")
        pm = PhysicalMemory()
        space = AddressSpace(pm)
        space.map(TEXT, 0x1000, prot=PROT_RWX)
        space.write_bytes(TEXT, b"\x3f\x00\x00\x00")  # bad funct
        cpu = Cpu(space)
        cpu.pc = TEXT
        with pytest.raises(InvalidInstructionError):
            cpu.step()
        del source, obj

    def test_budget_exhaustion(self):
        with pytest.raises(ExecutionBudgetExceeded):
            run_program(".text\nspin: b spin", max_instructions=100)

    def test_instruction_count(self):
        cpu, _ = run_program(".text\nnop\nnop\nnop\nsyscall")
        assert cpu.instructions_executed == 3

    def test_misaligned_pc(self):
        cpu = Cpu(AddressSpace(PhysicalMemory()))
        cpu.pc = 0x1002
        with pytest.raises(AlignmentError):
            cpu.step()


# ---------------------------------------------------------------------------
# translated blocks against the plain interpreter
# ---------------------------------------------------------------------------

UNMAPPED = 0x5000
_SCRATCH = list(range(8, 16))         # t0..t7: what the body computes with
_COUNTER, _DATA_BASE, _NEXT = 25, 16, 19
_LIMIT = 3000
_KINDS = (["alu"] * 3 + ["alui"] * 3 + ["load", "store"] * 2
          + ["branch"] * 2 + ["jump", "indirect", "late"])
_ALU_FUNCTS = [funct for funct, row in isa.FUNCTS.items()
               if row.flow == isa.FALL]
_ALU_OPS = [op for op, row in isa.OPCODES.items()
            if row.flow == isa.FALL and row.mem is None]
_LOADS = [op for op, row in isa.OPCODES.items()
          if row.mem and row.mem[0] == "load"]
_STORES = [op for op, row in isa.OPCODES.items()
           if row.mem and row.mem[0] == "store"]
_BRANCHES = [isa.OP_BEQ, isa.OP_BNE, isa.OP_BLEZ, isa.OP_BGTZ]


def _late_access(draw, size: int, reg) -> list:
    """Four instructions: a data access that, in the loop's last few
    iterations only, is redirected (branch-free, so inside whatever
    block holds it) to the unmapped page, to a misaligned address, or
    into the loop's own text."""
    at = isa.REG_AT
    late = isa.encode_i(isa.OP_SLTI, rs=_COUNTER, rt=at,
                        imm=draw(st.integers(1, 10)))
    shift = isa.encode_r(isa.FN_SLL, rd=at, rt=at, shamt=13)  # 0x2000
    where = draw(st.sampled_from(["hole", "misaligned", "text"]))
    if where == "hole":          # DATA + 0x2000 = UNMAPPED
        op = draw(st.sampled_from(_LOADS + _STORES))
        return [late, shift,
                isa.encode_r(isa.FN_ADD, rd=at, rs=at, rt=_DATA_BASE),
                isa.encode_i(op, rs=at, rt=draw(reg),
                             imm=draw(st.integers(0, 1023)) * 4)]
    if where == "misaligned":    # DATA + 1
        op = draw(st.sampled_from([isa.OP_LW, isa.OP_LH, isa.OP_LHU,
                                   isa.OP_SW, isa.OP_SH]))
        return [late, isa.encode_r(isa.FN_SLL, rd=at, rt=at),
                isa.encode_r(isa.FN_ADD, rd=at, rs=at, rt=_DATA_BASE),
                isa.encode_i(op, rs=at, rt=draw(reg),
                             imm=draw(st.integers(0, 1023)) * 4)]
    # DATA - 0x2000 = TEXT: overwrite one of the loop's words with a nop
    return [late, shift,
            isa.encode_r(isa.FN_SUB, rd=at, rs=_DATA_BASE, rt=at),
            isa.encode_i(isa.OP_SW, rs=at, rt=0,
                         imm=4 * draw(st.integers(0, size + 1)))]


@st.composite
def _programs(draw):
    """A loop of random instructions: ALU work, loads and stores on a
    data page, forward and backward branches, forward jumps, and
    accesses that fault, trap or rewrite the loop's own text once its
    blocks are hot. The body never writes the loop counter, ``at`` or
    the base registers."""
    kinds = draw(st.lists(st.sampled_from(_KINDS), min_size=1,
                          max_size=12))
    size = len(kinds) + 3 * kinds.count("late")
    reg = st.sampled_from(_SCRATCH)
    src = st.sampled_from([0] + _SCRATCH * 3)
    body: list = []
    for kind in kinds:
        index = len(body)
        if kind == "alu":
            body.append(isa.encode_r(
                draw(st.sampled_from(_ALU_FUNCTS)),
                rd=draw(st.sampled_from([0] + _SCRATCH)), rs=draw(src),
                rt=draw(src), shamt=draw(st.integers(0, 31))))
        elif kind == "alui":
            body.append(isa.encode_i(
                draw(st.sampled_from(_ALU_OPS)), rs=draw(src),
                rt=draw(reg), imm=draw(st.integers(0, 0xFFFF))))
        elif kind in ("load", "store"):
            op = draw(st.sampled_from(_LOADS if kind == "load"
                                      else _STORES))
            body.append(isa.encode_i(op, rs=_DATA_BASE, rt=draw(reg),
                                     imm=draw(st.integers(0, 1023)) * 4))
        elif kind == "late":
            body += _late_access(draw, size, reg)
        elif kind == "branch":
            skip = draw(st.integers(-index - 1, size - index - 1))
            body.append(isa.encode_i(
                draw(st.sampled_from(_BRANCHES)), rs=draw(src),
                rt=draw(src), imm=skip & 0xFFFF))
        elif kind == "jump":
            target = TEXT + 4 * draw(st.integers(index + 1, size))
            op = draw(st.sampled_from([isa.OP_J, isa.OP_JAL]))
            body.append(isa.encode_j(op, isa.jump_field(target)))
        else:
            # Continue the loop through a register holding its tail.
            body.append(isa.encode_r(
                draw(st.sampled_from([isa.FN_JR, isa.FN_JALR])),
                rd=draw(reg), rs=_NEXT))
    assert len(body) == size
    tail = [isa.encode_i(isa.OP_ADDI, rs=_COUNTER, rt=_COUNTER,
                         imm=0xFFFF),
            isa.encode_i(isa.OP_BGTZ, rs=_COUNTER,
                         imm=(-size - 2) & 0xFFFF),
            isa.encode_r(isa.FN_SYSCALL)]
    regs = [0] * 32
    for index in _SCRATCH:
        regs[index] = draw(st.integers(0, 0xFFFFFFFF))
    regs[_COUNTER] = draw(st.integers(30, 60))
    regs[_DATA_BASE], regs[_NEXT] = DATA, TEXT + 4 * size
    return body + tail, regs, draw(st.integers(0, 2 ** 32 - 1))


def _execute(program, budgets=None):
    """Run *program* to its syscall, a fatal trap or _LIMIT
    instructions; the first fault on the unmapped page maps it and
    restarts the instruction. With *budgets*, each step gets the next
    budget (capped at what is left of the limit)."""
    words, regs, seed = program
    space = AddressSpace(PhysicalMemory(), tlb_enabled=True)
    space.map(TEXT, 0x1000, prot=PROT_RWX)
    space.map(DATA, 0x1000, prot=PROT_RW)
    space.write_bytes(TEXT, b"".join(w.to_bytes(4, "little")
                                     for w in words))
    space.write_bytes(DATA, random.Random(seed).randbytes(0x1000))
    cpu = Cpu(space)
    cpu.pc = TEXT
    cpu.regs[:] = regs
    outcome = "limit"
    while cpu.instructions_executed < _LIMIT:
        try:
            if budgets is None:
                cpu.step()
            else:
                cpu.step(min(next(budgets),
                             _LIMIT - cpu.instructions_executed))
        except PageFaultError as fault:
            if fault.address >> 12 == UNMAPPED >> 12 \
                    and not space.is_mapped(UNMAPPED):
                space.map(UNMAPPED, 0x1000, prot=PROT_RW)
                continue
            outcome = f"fault 0x{fault.address:x}"
            break
        except (Trap, HardwareError) as error:
            outcome = f"{type(error).__name__}: {error}"
            break
    memory = b"".join(
        space.read_bytes(page, 0x1000, force=True)
        for page in (TEXT, DATA, UNMAPPED) if space.is_mapped(page))
    return {"outcome": outcome, "regs": list(cpu.regs), "pc": cpu.pc,
            "instructions": cpu.instructions_executed,
            "tlb_hits": space.tlb_hits, "memory": memory,
            "translated": len(space.physmem.translations)}


class TestTranslatedBlocks:
    @settings(max_examples=60, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(program=_programs(),
           budgets=st.lists(st.integers(1, 40), min_size=1, max_size=8))
    def test_blocks_match_single_steps(self, program, budgets):
        stepped = _execute(program)
        blocked = _execute(program, itertools.cycle(budgets))
        assert stepped.pop("translated") == 0
        blocked.pop("translated")
        assert blocked == stepped

    # Hot loops (t9 counts the iterations down from 40) whose last
    # iterations do something a translated block must reproduce exactly.
    _HOT_LOOPS = {
        "plain": ("""
            top: lw t0, 0(s0)
                 add t1, t1, t0
                 sw t1, 4(s0)
                 addi t9, t9, -1
                 bgtz t9, top
                 syscall
            """, "SyscallTrap"),
        # the fifth instruction of the block faults on an unmapped page
        "fault": ("""
            top: lw t0, 0(s0)
                 slti at, t9, 3
                 sll at, at, 13
                 add at, at, s0
                 lw t1, 8(at)
                 add t2, t2, t1
                 addi t9, t9, -1
                 bgtz t9, top
                 syscall
            """, "SyscallTrap"),
        # the block's fourth instruction turns its sixth into a nop
        "self-modifying": ("""
            top: slti at, t9, 3
                 sll at, at, 13
                 sub at, s0, at
                 sw zero, 20(at)
                 addi t3, t3, 1
                 addi t2, t2, 1
                 addi t9, t9, -1
                 bgtz t9, top
                 syscall
            """, "SyscallTrap"),
        "misaligned": ("""
            top: addi t3, t3, 1
                 slti at, t9, 3
                 add at, at, s0
                 lw t1, 0(at)
                 addi t9, t9, -1
                 bgtz t9, top
                 syscall
            """, "AlignmentError"),
    }

    @pytest.mark.parametrize("name", sorted(_HOT_LOOPS))
    def test_hot_loop_runs_translated(self, name):
        source, outcome = self._HOT_LOOPS[name]
        text = bytes(assemble(".text\n" + source).text)
        words = [int.from_bytes(text[at: at + 4], "little")
                 for at in range(0, len(text), 4)]
        regs = [0] * 32
        regs[_COUNTER], regs[_DATA_BASE] = 40, DATA
        program = (words, regs, 1)
        stepped = _execute(program)
        assert stepped.pop("translated") == 0
        assert stepped["outcome"].startswith(outcome)
        for budgets in ([1000], [7, 3, 1, 12]):
            blocked = _execute(program, itertools.cycle(budgets))
            assert blocked.pop("translated") >= 1
            assert blocked == stepped

    def test_frame_mapped_at_two_addresses(self):
        """A block bakes in its PCs, so the one text frame mapped
        executable at two addresses needs a block per address: the loop
        warmed at the first address must branch within the second when
        run there."""
        text = bytes(assemble(""".text
            top: lw t0, 0(s0)
                 add t1, t1, t0
                 addi t9, t9, -1
                 bgtz t9, top
                 syscall
            """).text)
        alias = 0x8000

        def run(budget):
            physmem = PhysicalMemory()
            space = AddressSpace(physmem, tlb_enabled=True)
            code = MemoryObject(physmem, name="text")
            code.write(0, text)
            for base in (TEXT, alias):
                space.map(base, 0x1000, memobj=code, prot=PROT_RWX,
                          flags=MAP_SHARED)
            space.map(DATA, 0x1000, prot=PROT_RW)
            space.store_word(DATA, 7)
            cpu = Cpu(space)
            states = []
            for base in (TEXT, alias):
                cpu.pc, cpu.regs[_COUNTER], cpu.regs[_DATA_BASE] = \
                    base, 40, DATA
                with pytest.raises(SyscallTrap):
                    for _ in range(_LIMIT):
                        cpu.step(budget)
                states.append((cpu.pc, list(cpu.regs),
                               cpu.instructions_executed, space.tlb_hits))
            return states, {pc for pc, _ in physmem.translations}

        stepped, leaders = run(1)
        assert not leaders
        assert [state[0] for state in stepped] == [TEXT + 16, alias + 16]
        blocked, leaders = run(1000)
        assert {TEXT, alias} <= leaders
        assert blocked == stepped
