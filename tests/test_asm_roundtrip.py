"""Property tests tying the assembler, disassembler, and CPU together."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.hw import isa
from repro.hw.asm import assemble
from repro.hw.cpu import Cpu, SyscallTrap
from repro.util.bits import to_signed32
from repro.vm.address_space import AddressSpace, PROT_RWX
from repro.vm.pages import PhysicalMemory

ROWS = [row for _bits, row in isa.rows()]

registers = st.sampled_from(isa.REG_NAMES)

#: Source text and disassembly for one drawn value of each syntax operand
#: other than the ``label``/``tgt`` targets.
OPERANDS = {
    "rd": registers.map(lambda name: (name, name)),
    "rs": registers.map(lambda name: (name, name)),
    "rt": registers.map(lambda name: (name, name)),
    "sa": st.integers(0, 31).map(lambda n: (str(n), str(n))),
    "imm": st.integers(0, 0xFFFF).map(lambda n: (f"0x{n:x}", f"0x{n:x}")),
    "simm": st.integers(-32768, 32767).map(lambda n: (str(n), str(n))),
    "simm(rs)": st.tuples(st.integers(-32768, 32767), registers).map(
        lambda pair: (f"{pair[0]}({pair[1]})", f"{pair[0]}({pair[1]})")),
}


class TestAssembleDisassemble:
    """Every row of the ISA table assembles from its syntax, disassembles
    back to the same line, and decodes to itself."""

    @pytest.mark.parametrize("row", ROWS, ids=[r.mnemonic for r in ROWS])
    @settings(max_examples=25)
    @given(data=st.data())
    def test_row_roundtrip(self, row, data):
        # A five-word text: the instruction at word `at`, label L at
        # word `to`, nops elsewhere.
        at = data.draw(st.integers(0, 4))
        to = data.draw(st.integers(0, 4))
        source, shown = [], []
        for operand in row.operands:
            if operand in ("label", "tgt"):
                source.append("L")
                shown.append(f"0x{4 * to:x}")
            else:
                text, disassembly = data.draw(OPERANDS[operand])
                source.append(text)
                shown.append(disassembly)
        line = " ".join([row.mnemonic, ", ".join(source)]).strip()
        lines = ["nop"] * 5
        lines[at] = line
        lines[to] = "L: " + lines[to]
        obj = assemble(".text\n" + "\n".join(lines))

        word = int.from_bytes(obj.text[4 * at: 4 * at + 4], "little")
        if "tgt" in row.operands:
            # The JUMP26 relocation the linker would apply.
            (reloc,) = obj.relocations
            assert reloc.offset == 4 * at and reloc.symbol == "L"
            word |= isa.jump_field(obj.symbols["L"].value)
        expected = " ".join([row.mnemonic, ", ".join(shown)]).strip()
        assert isa.disassemble_word(word, 4 * at) == \
            (expected if word else "nop")
        assert isa.lookup(word) is row


def _run_fragment(body: str, max_instructions: int = 200) -> Cpu:
    obj = assemble(f".text\n{body}\nsyscall\n")
    pm = PhysicalMemory()
    space = AddressSpace(pm)
    space.map(0x1000, 0x2000, prot=PROT_RWX)
    space.write_bytes(0x1000, bytes(obj.text))
    cpu = Cpu(space)
    cpu.pc = 0x1000
    with pytest.raises(SyscallTrap):
        cpu.run(max_instructions)
    return cpu


class TestCpuArithmeticProperties:
    @settings(max_examples=40)
    @given(st.integers(min_value=-(2**31), max_value=2**31 - 1),
           st.integers(min_value=-(2**31), max_value=2**31 - 1))
    def test_add_matches_python(self, a, b):
        cpu = _run_fragment(f"li t0, {a}\nli t1, {b}\nadd t2, t0, t1")
        assert to_signed32(cpu.regs[10]) == to_signed32(a + b)

    @settings(max_examples=40)
    @given(st.integers(min_value=-(2**31), max_value=2**31 - 1),
           st.integers(min_value=-(2**31), max_value=2**31 - 1))
    def test_slt_matches_python(self, a, b):
        cpu = _run_fragment(f"li t0, {a}\nli t1, {b}\nslt t2, t0, t1")
        assert cpu.regs[10] == (1 if a < b else 0)

    @settings(max_examples=40)
    @given(st.integers(min_value=-(2**20), max_value=2**20),
           st.integers(min_value=1, max_value=2**20))
    def test_div_rem_identity(self, a, b):
        cpu = _run_fragment(
            f"li t0, {a}\nli t1, {b}\n"
            f"div t2, t0, t1\nrem t3, t0, t1"
        )
        quotient = to_signed32(cpu.regs[10])
        remainder = to_signed32(cpu.regs[11])
        assert quotient * b + remainder == a
        assert abs(remainder) < b

    @settings(max_examples=40)
    @given(st.integers(min_value=0, max_value=0xFFFFFFFF),
           st.integers(min_value=0, max_value=31))
    def test_variable_shift_matches_immediate(self, value, amount):
        cpu = _run_fragment(
            f"li t0, {value}\nli t1, {amount}\n"
            f"sllv t2, t0, t1\nsll t3, t0, {amount}\n"
            f"srlv t4, t0, t1\nsrl t5, t0, {amount}"
        )
        assert cpu.regs[10] == cpu.regs[11]
        assert cpu.regs[12] == cpu.regs[13]

    @settings(max_examples=30)
    @given(st.lists(st.integers(min_value=-100, max_value=100),
                    min_size=1, max_size=8))
    def test_stack_push_pop_order(self, values):
        pushes = "".join(
            f"li t0, {v}\naddi sp, sp, -4\nsw t0, 0(sp)\n"
            for v in values
        )
        pops = "".join(
            f"lw s{i}, 0(sp)\naddi sp, sp, 4\n"
            for i in range(min(len(values), 8))
        )
        body = "li sp, 0x2800\n" + pushes + pops
        cpu = _run_fragment(body, max_instructions=500)
        for i, value in enumerate(reversed(values[-8:])):
            assert to_signed32(cpu.regs[16 + i]) == value
