"""Assembler tests: directives, instructions, pseudo-ops, relocations."""

import pytest

from repro.errors import AssemblerError
from repro.hw.asm import assemble
from repro.hw.isa import disassemble_word
from repro.objfile.format import (
    RelocType,
    SEC_BSS,
    SEC_DATA,
    SEC_TEXT,
    SymBinding,
)


def relocs_of(obj, rtype):
    return [r for r in obj.relocations if r.type is rtype]


class TestSections:
    def test_text_data_bss_sizes(self):
        obj = assemble("""
            .text
            nop
            nop
            .data
            .word 1, 2, 3
            .bss
            .space 64
        """)
        assert len(obj.text) == 8
        assert len(obj.data) == 12
        assert obj.bss_size == 64

    def test_data_values_little_endian(self):
        obj = assemble(".data\n.word 0x11223344")
        assert bytes(obj.data) == b"\x44\x33\x22\x11"

    def test_half_and_byte(self):
        obj = assemble(".data\n.byte 1, 2\n.half 0x0304")
        # .half aligns to 2 first
        assert bytes(obj.data) == b"\x01\x02\x04\x03"

    def test_asciiz(self):
        obj = assemble('.data\n.asciiz "hi\\n"')
        assert bytes(obj.data) == b"hi\n\x00"

    def test_ascii_without_nul(self):
        obj = assemble('.data\n.ascii "ab"')
        assert bytes(obj.data) == b"ab"

    def test_align(self):
        obj = assemble(".data\n.byte 1\n.align 8\n.byte 2")
        assert len(obj.data) == 9
        assert obj.data[8] == 2

    def test_align_requires_power_of_two(self):
        with pytest.raises(AssemblerError):
            assemble(".data\n.align 3")

    def test_word_in_bss_rejected(self):
        with pytest.raises(AssemblerError):
            assemble(".bss\n.word 5")

    def test_instruction_outside_text_rejected(self):
        with pytest.raises(AssemblerError):
            assemble(".data\nnop")

    def test_comm(self):
        obj = assemble(".comm buffer, 128")
        assert obj.bss_size >= 128
        sym = obj.symbols["buffer"]
        assert sym.section == SEC_BSS
        assert sym.binding is SymBinding.GLOBAL


class TestAlignment:
    def test_instruction_after_byte_aligns(self):
        obj = assemble(".text\n.byte 1\nmain: addi t0, t0, 1")
        assert len(obj.text) == 8
        assert obj.symbols["main"].value == 4
        word = int.from_bytes(obj.text[4:8], "little")
        assert disassemble_word(word, 4) == "addi t0, t0, 1"

    def test_label_before_word_names_aligned_offset(self):
        obj = assemble(".data\n.byte 1\nx: .word 5")
        assert obj.symbols["x"].value == 4
        assert obj.data[4:8] == (5).to_bytes(4, "little")

    def test_label_on_own_line_before_half(self):
        obj = assemble(".data\n.byte 1\ny:\n.half 7")
        assert obj.symbols["y"].value == 2
        assert obj.data[2:4] == (7).to_bytes(2, "little")

    def test_label_before_byte_or_align_stays(self):
        obj = assemble(".data\n.byte 1\nz: .align 4\n.word 3")
        assert obj.symbols["z"].value == 1


class TestSymbols:
    def test_local_vs_global(self):
        obj = assemble("""
            .text
            .globl entry
        entry:
            nop
        helper:
            nop
        """)
        assert obj.symbols["entry"].binding is SymBinding.GLOBAL
        assert obj.symbols["helper"].binding is SymBinding.LOCAL

    def test_label_values(self):
        obj = assemble(".text\nnop\nL1:\nnop\nL2: nop")
        assert obj.symbols["L1"].value == 4
        assert obj.symbols["L2"].value == 8

    def test_duplicate_label_rejected(self):
        with pytest.raises(AssemblerError):
            assemble(".text\nx:\nnop\nx:\nnop")

    def test_undefined_reference_recorded(self):
        obj = assemble(".text\njal external_fn")
        assert "external_fn" in obj.undefined_symbols()

    def test_entry_directive(self):
        obj = assemble(".text\n.entry start\nstart: nop\n.globl start")
        assert obj.entry_symbol == "start"

    def test_heap_directive(self):
        obj = assemble(".heap 4096\n.heap 96")
        assert obj.heap_size == 4192

    def test_module_and_searchdir(self):
        obj = assemble("""
            .module shared1.o, dynamic_public
            .module helper.o
            .searchdir /shared/lib
        """)
        assert ("shared1.o", "dynamic_public") in \
            obj.link_info.dynamic_modules
        assert ("helper.o", "dynamic_public") in \
            obj.link_info.dynamic_modules
        assert obj.link_info.search_path == ["/shared/lib"]


class TestRelocations:
    def test_la_emits_hi_lo(self):
        obj = assemble(".text\nla a0, target")
        hi = relocs_of(obj, RelocType.HI16)
        lo = relocs_of(obj, RelocType.LO16)
        assert len(hi) == 1 and len(lo) == 1
        assert hi[0].symbol == "target"
        assert lo[0].offset == hi[0].offset + 4

    def test_jal_emits_jump26(self):
        obj = assemble(".text\njal fn")
        jumps = relocs_of(obj, RelocType.JUMP26)
        assert len(jumps) == 1
        assert jumps[0].symbol == "fn"

    def test_word_symbol_emits_word32(self):
        obj = assemble(".data\nptr: .word some_symbol + 8")
        words = relocs_of(obj, RelocType.WORD32)
        assert len(words) == 1
        assert words[0].symbol == "some_symbol"
        assert words[0].addend == 8

    def test_local_jump_also_relocated(self):
        """Even local jump targets need relocations: the final address
        is unknown until the module is placed."""
        obj = assemble(".text\nstart: nop\njal start")
        assert len(relocs_of(obj, RelocType.JUMP26)) == 1

    def test_symbol_addressed_load_expands(self):
        obj = assemble(".text\nlw t0, counter")
        assert len(obj.text) == 8  # lui + lw
        assert len(relocs_of(obj, RelocType.HI16)) == 1
        assert len(relocs_of(obj, RelocType.LO16)) == 1

    def test_symbol_addressed_store_expands(self):
        obj = assemble(".text\nsw t0, counter")
        assert len(obj.text) == 8


class TestPseudoInstructions:
    def test_li_small_is_one_instruction(self):
        assert len(assemble(".text\nli t0, 100").text) == 4
        assert len(assemble(".text\nli t0, -5").text) == 4
        assert len(assemble(".text\nli t0, 0xFFFF").text) == 4

    def test_li_large_is_two_instructions(self):
        for value in (0x12345678, 2**32 - 1, -2**31):
            assert len(assemble(f".text\nli t0, {value}").text) == 8

    def test_move_and_nop(self):
        obj = assemble(".text\nmove t0, t1\nnop")
        assert len(obj.text) == 8

    def test_branch_pseudos(self):
        obj = assemble("""
            .text
        top:
            beqz t0, top
            bnez t1, top
            b top
        """)
        assert len(obj.text) == 12

    def test_ret(self):
        obj = assemble(".text\nret")
        assert len(obj.text) == 4

    def test_char_literal(self):
        obj = assemble(".text\nli t0, 'A'")
        assert obj.text[0:2] == (65).to_bytes(2, "little")


class TestErrors:
    def test_unknown_instruction(self):
        with pytest.raises(AssemblerError):
            assemble(".text\nfrobnicate t0")

    def test_unknown_directive(self):
        with pytest.raises(AssemblerError):
            assemble(".frobnicate 1")

    def test_immediate_overflow(self):
        with pytest.raises(AssemblerError):
            assemble(".text\naddi t0, t0, 40000")

    def test_branch_to_external_rejected(self):
        with pytest.raises(AssemblerError):
            assemble(".text\nbeqz t0, external_label")

    def test_branch_to_data_rejected(self):
        with pytest.raises(AssemblerError):
            assemble(".text\nb d\n.data\nd: .word 0")

    @pytest.mark.parametrize("value", [2**32, -2**31 - 1])
    def test_li_outside_32_bits(self, value):
        with pytest.raises(AssemblerError):
            assemble(f".text\nli t0, {value}")

    def test_operand_count(self):
        with pytest.raises(AssemblerError):
            assemble(".text\nadd t0, t1")

    def test_bad_register(self):
        with pytest.raises(AssemblerError):
            assemble(".text\nadd q7, t0, t1")

    def test_error_carries_line_number(self):
        with pytest.raises(AssemblerError) as info:
            assemble(".text\nnop\nbogus t0")
        assert info.value.line == 3

    def test_comments_ignored(self):
        obj = assemble("""
            .text           # section
            nop             ; a comment too
            # whole-line comment
        """)
        assert len(obj.text) == 4
