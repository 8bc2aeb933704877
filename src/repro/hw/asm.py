"""A two-pass assembler producing HOF relocatable objects.

Supported syntax (MIPS-gas flavoured)::

            .text
            .globl  main
            .entry  main
    main:   addi    sp, sp, -8
            sw      ra, 0(sp)
            la      a0, message     # lui/ori pair with HI16/LO16 relocs
            jal     report          # JUMP26 reloc
            lw      ra, 0(sp)
            addi    sp, sp, 8
            jr      ra

            .data
    message:
            .asciiz "hello"
    table:  .word   main, message+4 # WORD32 relocs
            .bss
    buffer: .space  4096

Directives: ``.text .data .bss .globl .entry .word .half .byte .ascii
.asciiz .space .align .comm .heap .module .searchdir``. The last three are
Hemlock extensions: ``.heap`` requests per-segment heap slack for
``shmalloc``; ``.module``/``.searchdir`` embed a module list and search
path in the template, the hooks scoped linking builds on (§3).

Real instructions are encoded from their rows in :mod:`repro.hw.isa`,
whose operand syntax says which field each operand fills.
Pseudo-instructions: ``li la move nop b beqz bnez call ret``, one-operand
``jalr rs`` (``jalr ra, rs``), and symbol-addressed loads/stores (``lw
rt, sym`` expands to a ``lui``/``lw`` pair through the assembler
temporary); each expands to real instructions encoded the same way.
Instructions, ``.word`` and ``.half`` align themselves, and a label
directly before one of them names the aligned offset.

References to symbols not defined in the file become undefined symbols
with relocations; local labels are kept as LOCAL symbols so relocations
against them survive into the link step.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

from repro.errors import AssemblerError
from repro.hw import isa
from repro.objfile.format import (
    ObjectFile,
    Relocation,
    RelocType,
    SEC_BSS,
    SEC_DATA,
    SEC_TEXT,
    Symbol,
    SymBinding,
)
from repro.util.bits import fits_signed, fits_unsigned


@dataclass
class _Insn:
    """A parsed instruction pending encoding in pass 2."""

    section: str
    offset: int
    mnemonic: str
    operands: List[str]
    line: int
    size: int


@dataclass
class _Data:
    """A parsed data directive pending emission in pass 2."""

    section: str
    offset: int
    directive: str
    args: List[str]
    line: int
    size: int


@dataclass
class _State:
    """Assembler state threaded through both passes."""

    section: str = SEC_TEXT
    offsets: Dict[str, int] = field(
        default_factory=lambda: {SEC_TEXT: 0, SEC_DATA: 0, SEC_BSS: 0}
    )
    labels: Dict[str, Tuple[str, int]] = field(default_factory=dict)
    globals_: List[str] = field(default_factory=list)
    sizes: Dict[str, int] = field(default_factory=dict)
    kinds: Dict[str, str] = field(default_factory=dict)
    entry: Optional[str] = None
    statements: List[object] = field(default_factory=list)
    heap_size: int = 0
    modules: List[Tuple[str, str]] = field(default_factory=list)
    searchdirs: List[str] = field(default_factory=list)


def assemble(source: str, name: str = "a.o") -> ObjectFile:
    """Assemble *source* into a relocatable :class:`ObjectFile`."""
    return _Assembler(source, name).assemble()


class _Assembler:
    def __init__(self, source: str, name: str) -> None:
        self.source = source
        self.obj = ObjectFile(name)
        self.state = _State()

    # ------------------------------------------------------------------
    # pass 1: parse, size, and place
    # ------------------------------------------------------------------

    def assemble(self) -> ObjectFile:
        for line_no, raw in enumerate(self.source.splitlines(), start=1):
            self._parse_line(raw, line_no)
        self._build_symbols()
        self._emit_all()
        self.obj.bss_size = self.state.offsets[SEC_BSS]
        self.obj.heap_size = self.state.heap_size
        self.obj.entry_symbol = self.state.entry
        self.obj.link_info.dynamic_modules = list(self.state.modules)
        self.obj.link_info.search_path = list(self.state.searchdirs)
        return self.obj

    def _parse_line(self, raw: str, line_no: int) -> None:
        line = _strip_comment(raw).strip()
        while line:
            head, sep, rest = line.partition(":")
            if sep and _is_label(head.strip()) and not _in_quotes(raw, head):
                self._define_label(head.strip(), line_no)
                line = rest.strip()
            else:
                break
        if not line:
            return
        parts = line.split(None, 1)
        mnemonic = parts[0].lower()
        rest = parts[1] if len(parts) > 1 else ""
        if mnemonic.startswith("."):
            self._directive(mnemonic, rest, line_no)
        else:
            self._instruction(mnemonic, rest, line_no)

    def _define_label(self, label: str, line_no: int) -> None:
        state = self.state
        if label in state.labels:
            raise AssemblerError(f"label {label!r} redefined", line_no)
        state.labels[label] = (state.section, state.offsets[state.section])

    def _advance(self, size: int) -> int:
        offset = self.state.offsets[self.state.section]
        self.state.offsets[self.state.section] = offset + size
        return offset

    def _align(self, alignment: int, line_no: int) -> None:
        if alignment & (alignment - 1):
            raise AssemblerError(
                f"alignment {alignment} is not a power of two", line_no
            )
        section = self.state.section
        offset = self.state.offsets[section]
        padded = (offset + alignment - 1) & ~(alignment - 1)
        if padded != offset:
            pad = padded - offset
            if section != SEC_BSS:
                self.state.statements.append(
                    _Data(section, offset, ".space", [str(pad)], line_no, pad)
                )
            self.state.offsets[section] = padded

    def _self_align(self, alignment: int, line_no: int) -> None:
        """Align for a statement that needs it. As in MIPS gas, a label
        naming the unaligned offset names the statement instead."""
        state = self.state
        section = state.section
        if not state.offsets[section] & (alignment - 1):
            return
        unaligned = (section, state.offsets[section])
        self._align(alignment, line_no)
        for label, location in state.labels.items():
            if location == unaligned:
                state.labels[label] = (section, state.offsets[section])

    def _directive(self, directive: str, rest: str, line_no: int) -> None:
        state = self.state
        if directive in (".text", ".data", ".bss"):
            state.section = directive[1:]
            return
        if directive in (".globl", ".global"):
            for symbol in _split_commas(rest):
                state.globals_.append(symbol)
            return
        if directive == ".entry":
            state.entry = rest.strip()
            return
        if directive == ".heap":
            state.heap_size += _parse_number(rest.strip(), line_no)
            return
        if directive == ".module":
            args = _split_commas(rest)
            if not 1 <= len(args) <= 2:
                raise AssemblerError(".module takes name[, class]", line_no)
            sclass = args[1] if len(args) == 2 else "dynamic_public"
            state.modules.append((args[0], sclass))
            return
        if directive == ".searchdir":
            state.searchdirs.append(rest.strip())
            return
        if directive == ".size":
            args = _split_commas(rest)
            if len(args) != 2:
                raise AssemblerError(".size takes name, bytes", line_no)
            state.sizes[args[0]] = _parse_number(args[1], line_no)
            return
        if directive == ".type":
            args = _split_commas(rest)
            if len(args) != 2:
                raise AssemblerError(".type takes name, kind", line_no)
            state.kinds[args[0]] = args[1]
            return
        if directive == ".align":
            self._align(_parse_number(rest.strip(), line_no), line_no)
            return
        if directive == ".comm":
            args = _split_commas(rest)
            if len(args) != 2:
                raise AssemblerError(".comm takes name, size", line_no)
            size = _parse_number(args[1], line_no)
            saved = state.section
            state.section = SEC_BSS
            self._align(4, line_no)
            state.labels[args[0]] = (SEC_BSS, state.offsets[SEC_BSS])
            state.globals_.append(args[0])
            self._advance(size)
            state.section = saved
            return

        if directive in (".word", ".half", ".byte", ".ascii", ".asciiz",
                         ".space"):
            if state.section == SEC_BSS and directive != ".space":
                raise AssemblerError(
                    f"{directive} not allowed in .bss", line_no
                )
            if directive == ".word":
                self._self_align(4, line_no)
                args = _split_commas(rest)
                size = 4 * len(args)
            elif directive == ".half":
                self._self_align(2, line_no)
                args = _split_commas(rest)
                size = 2 * len(args)
            elif directive == ".byte":
                args = _split_commas(rest)
                size = len(args)
            elif directive in (".ascii", ".asciiz"):
                text = _parse_string(rest.strip(), line_no)
                args = [text]
                size = len(text.encode("latin-1"))
                if directive == ".asciiz":
                    size += 1
            else:  # .space
                args = [rest.strip()]
                size = _parse_number(rest.strip(), line_no)
            offset = self._advance(size)
            if state.section != SEC_BSS:
                state.statements.append(
                    _Data(state.section, offset, directive, args, line_no,
                          size)
                )
            return
        raise AssemblerError(f"unknown directive {directive!r}", line_no)

    def _instruction(self, mnemonic: str, rest: str, line_no: int) -> None:
        if self.state.section != SEC_TEXT:
            raise AssemblerError(
                f"instruction {mnemonic!r} outside .text", line_no
            )
        operands = _split_commas(rest)
        size = self._insn_size(mnemonic, operands, line_no)
        self._self_align(4, line_no)
        offset = self._advance(size)
        self.state.statements.append(
            _Insn(SEC_TEXT, offset, mnemonic, operands, line_no, size)
        )

    def _insn_size(self, mnemonic: str, operands: List[str],
                   line_no: int) -> int:
        if mnemonic == "li":
            if len(operands) != 2:
                raise AssemblerError("li takes rt, imm", line_no)
            value = _parse_number(operands[1], line_no)
            if not -2**31 <= value < 2**32:
                raise AssemblerError(
                    f"li value {value} does not fit in 32 bits", line_no)
            if fits_signed(value, 16) or fits_unsigned(value, 16):
                return 4
            return 8
        if mnemonic == "la" or _symbol_access(mnemonic, operands):
            return 8
        return 4

    # ------------------------------------------------------------------
    # symbols
    # ------------------------------------------------------------------

    def _build_symbols(self) -> None:
        state = self.state
        for label, (section, value) in state.labels.items():
            binding = (SymBinding.GLOBAL if label in state.globals_
                       else SymBinding.LOCAL)
            self.obj.add_symbol(Symbol(label, section, value, binding,
                                       size=state.sizes.get(label, 0),
                                       kind=state.kinds.get(label, "")))
        for name in state.globals_:
            if name not in state.labels:
                # Exported but not defined here: an undefined global the
                # linker must resolve (or a .comm already handled).
                self.obj.reference(name)

    # ------------------------------------------------------------------
    # pass 2: emit
    # ------------------------------------------------------------------

    def _emit_all(self) -> None:
        text = bytearray(self.state.offsets[SEC_TEXT])
        data = bytearray(self.state.offsets[SEC_DATA])
        buffers = {SEC_TEXT: text, SEC_DATA: data}
        for statement in self.state.statements:
            if isinstance(statement, _Insn):
                self._emit_insn(statement, buffers[statement.section])
            else:
                self._emit_data(statement, buffers[statement.section])
        self.obj.text = text
        self.obj.data = data

    def _emit_data(self, stmt: _Data, buf: bytearray) -> None:
        offset = stmt.offset
        if stmt.directive == ".space":
            return  # already zero
        if stmt.directive in (".ascii", ".asciiz"):
            encoded = stmt.args[0].encode("latin-1")
            if stmt.directive == ".asciiz":
                encoded += b"\x00"
            buf[offset: offset + len(encoded)] = encoded
            return
        width = {".word": 4, ".half": 2, ".byte": 1}[stmt.directive]
        for arg in stmt.args:
            value = self._data_value(arg, stmt, offset, width)
            buf[offset: offset + width] = (value & ((1 << (8 * width)) - 1)) \
                .to_bytes(width, "little")
            offset += width

    def _data_value(self, arg: str, stmt: _Data, offset: int,
                    width: int) -> int:
        if _looks_numeric(arg):
            return _parse_number(arg, stmt.line)
        symbol, addend = _split_sym_addend(arg, stmt.line)
        if width != 4:
            raise AssemblerError(
                f"symbol reference {arg!r} must be word-sized", stmt.line
            )
        self._note_reference(symbol)
        self.obj.relocations.append(
            Relocation(stmt.section, offset, RelocType.WORD32, symbol,
                       addend)
        )
        return 0

    def _emit_insn(self, stmt: _Insn, buf: bytearray) -> None:
        words = self._encode(stmt)
        offset = stmt.offset
        for word in words:
            buf[offset: offset + 4] = word.to_bytes(4, "little")
            offset += 4
        if offset - stmt.offset != stmt.size:
            raise AssemblerError(
                f"internal: size mismatch for {stmt.mnemonic}", stmt.line
            )

    def _need(self, stmt: _Insn, count: int) -> List[str]:
        if len(stmt.operands) != count:
            raise AssemblerError(
                f"{stmt.mnemonic} takes {count} operand(s), got "
                f"{len(stmt.operands)}", stmt.line
            )
        return stmt.operands

    def _encode(self, stmt: _Insn) -> List[int]:
        """The words of *stmt*: one real instruction, or the real
        instructions a pseudo-instruction expands to."""
        m = stmt.mnemonic
        if m == "li":
            return self._li(stmt)
        if m == "la":
            rt, ref = self._need(stmt, 2)
            self._hi_lo(ref, stmt)
            return [self._real("lui", [rt, "0"], stmt),
                    self._real("ori", [rt, rt, "0"], stmt)]
        if stmt.size == 8:
            # The other two-word form pass 1 sized: the symbol-addressed
            # lw rt, sym is lui at, %hi(sym); lw rt, %lo(sym)(at).
            rt, ref = self._need(stmt, 2)
            self._hi_lo(ref, stmt)
            return [self._real("lui", ["at", "0"], stmt),
                    self._real(m, [rt, "0(at)"], stmt)]
        alias = _ALIASES.get(m)
        if alias is not None:
            real, count, template = alias
            operands = self._need(stmt, count)
            return [self._real(real, [operands[t] if isinstance(t, int)
                                      else t for t in template], stmt)]
        if m == "jalr" and len(stmt.operands) == 1:
            return [self._real("jalr", ["ra", stmt.operands[0]], stmt)]
        return [self._real(m, stmt.operands, stmt)]

    def _real(self, mnemonic: str, operands: List[str],
              stmt: _Insn) -> int:
        """Encode one real instruction from its table row."""
        entry = _REAL.get(mnemonic)
        if entry is None:
            raise AssemblerError(f"unknown instruction {mnemonic!r}",
                                 stmt.line)
        word, fields = entry
        if len(operands) != len(fields):
            raise AssemblerError(
                f"{mnemonic} takes {len(fields)} operand(s), got "
                f"{len(operands)}", stmt.line
            )
        for parse, text in zip(fields, operands):
            word |= parse(self, text, stmt)
        return word

    def _li(self, stmt: _Insn) -> List[int]:
        rt, text = self._need(stmt, 2)
        value = _parse_number(text, stmt.line)
        if fits_signed(value, 16):
            return [self._real("addi", [rt, "zero", text], stmt)]
        if fits_unsigned(value, 16):
            return [self._real("ori", [rt, "zero", text], stmt)]
        value &= 0xFFFFFFFF
        return [self._real("lui", [rt, str(value >> 16)], stmt),
                self._real("ori", [rt, rt, str(value & 0xFFFF)], stmt)]

    def _hi_lo(self, ref: str, stmt: _Insn) -> None:
        """HI16/LO16 relocations for a two-word pseudo-instruction."""
        symbol, addend = _split_sym_addend(ref, stmt.line)
        self._note_reference(symbol)
        self.obj.relocations.append(
            Relocation(SEC_TEXT, stmt.offset, RelocType.HI16, symbol, addend)
        )
        self.obj.relocations.append(
            Relocation(SEC_TEXT, stmt.offset + 4, RelocType.LO16, symbol,
                       addend)
        )

    def _branch_offset(self, target: str, stmt: _Insn) -> int:
        location = self.state.labels.get(target)
        if location is None:
            raise AssemblerError(
                f"branch target {target!r} is not a local label "
                f"(use jal/j for external control transfer)", stmt.line
            )
        section, value = location
        if section != SEC_TEXT:
            raise AssemblerError(
                f"branch target {target!r} is not in .text", stmt.line
            )
        offset = (value - (stmt.offset + 4)) >> 2
        if not fits_signed(offset, 16):
            raise AssemblerError("branch out of range", stmt.line)
        return offset

    def _note_reference(self, symbol: str) -> None:
        if symbol not in self.state.labels:
            self.obj.reference(symbol)


# ---------------------------------------------------------------------------
# the instruction table
# ---------------------------------------------------------------------------
#
# One parser per syntax operand of repro.hw.isa: each reads the operand
# text and returns its bits, placed in the word.

_Field = Callable[[_Assembler, str, _Insn], int]


def _register(shift: int) -> _Field:
    def parse(asm: _Assembler, text: str, stmt: _Insn) -> int:
        try:
            return isa.register_number(text) << shift
        except ValueError as exc:
            raise AssemblerError(str(exc), stmt.line) from None
    return parse


_rs = _register(21)


def _shift_amount(asm: _Assembler, text: str, stmt: _Insn) -> int:
    value = _parse_number(text, stmt.line)
    if not 0 <= value < 32:
        raise AssemblerError("shift amount out of range", stmt.line)
    return value << 6


def _immediate(signed: bool) -> _Field:
    fits = fits_signed if signed else fits_unsigned

    def parse(asm: _Assembler, text: str, stmt: _Insn) -> int:
        value = _parse_number(text, stmt.line)
        if not fits(value, 16):
            raise AssemblerError(f"immediate {value} out of range",
                                 stmt.line)
        return value & 0xFFFF
    return parse


def _memory(asm: _Assembler, text: str, stmt: _Insn) -> int:
    """``offset(base)``, ``(base)``, or an absolute address off ``zero``."""
    offset_text, paren, base_text = text.partition("(")
    base = _rs(asm, base_text.rstrip(")"), stmt) if paren else 0
    offset = _parse_number(offset_text, stmt.line) if offset_text.strip() \
        else 0
    if not fits_signed(offset, 16):
        raise AssemblerError("load/store offset out of range", stmt.line)
    return base | (offset & 0xFFFF)


def _label(asm: _Assembler, text: str, stmt: _Insn) -> int:
    return asm._branch_offset(text, stmt) & 0xFFFF


def _jump_target(asm: _Assembler, text: str, stmt: _Insn) -> int:
    symbol, addend = _split_sym_addend(text, stmt.line)
    asm._note_reference(symbol)
    asm.obj.relocations.append(
        Relocation(SEC_TEXT, stmt.offset, RelocType.JUMP26, symbol, addend)
    )
    return 0


_OPERAND_FIELDS: Dict[str, _Field] = {
    "rd": _register(11), "rs": _rs, "rt": _register(16),
    "sa": _shift_amount,
    "imm": _immediate(signed=False), "simm": _immediate(signed=True),
    "simm(rs)": _memory, "label": _label, "tgt": _jump_target,
}

#: Every real instruction: the bits its row fixes and its operand parsers.
_REAL: Dict[str, Tuple[int, Tuple[_Field, ...]]] = {
    row.mnemonic: (bits, tuple(_OPERAND_FIELDS[operand]
                               for operand in row.operands))
    for bits, row in isa.rows()
}
_MEMORY = frozenset(row.mnemonic for _bits, row in isa.rows() if row.mem)

#: Pseudo-instructions that are one real instruction with some operands
#: fixed: name -> (real mnemonic, operand count, operands), an int in
#: the operands standing for that operand of the pseudo-instruction.
_ALIASES: Dict[str, Tuple[str, int, Tuple[object, ...]]] = {
    "nop": ("sll", 0, ("zero", "zero", "0")),
    "move": ("or", 2, (0, 1, "zero")),
    "b": ("beq", 1, ("zero", "zero", 0)),
    "beqz": ("beq", 2, (0, "zero", 1)),
    "bnez": ("bne", 2, (0, "zero", 1)),
    "call": ("jal", 1, (0,)),
    "ret": ("jr", 0, ("ra",)),
}


def _symbol_access(mnemonic: str, operands: List[str]) -> bool:
    """A load or store addressed by symbol: ``lw rt, sym``."""
    return mnemonic in _MEMORY and len(operands) == 2 \
        and "(" not in operands[1] and not _looks_numeric(operands[1])


# ---------------------------------------------------------------------------
# lexical helpers
# ---------------------------------------------------------------------------

def _strip_comment(line: str) -> str:
    out = []
    in_string = False
    for ch in line:
        if ch == '"':
            in_string = not in_string
        if ch in "#;" and not in_string:
            break
        out.append(ch)
    return "".join(out)


def _in_quotes(line: str, before: str) -> bool:
    index = line.find(before)
    return index >= 0 and line[:index].count('"') % 2 == 1


def _is_label(text: str) -> bool:
    if not text:
        return False
    return (text[0].isalpha() or text[0] in "._$") and all(
        ch.isalnum() or ch in "._$" for ch in text
    )


def _split_commas(text: str) -> List[str]:
    if not text.strip():
        return []
    parts: List[str] = []
    depth = 0
    in_string = False
    current = []
    for ch in text:
        if ch == '"':
            in_string = not in_string
        if ch == "(" and not in_string:
            depth += 1
        if ch == ")" and not in_string:
            depth -= 1
        if ch == "," and depth == 0 and not in_string:
            parts.append("".join(current).strip())
            current = []
        else:
            current.append(ch)
    parts.append("".join(current).strip())
    return [p for p in parts if p]


def _looks_numeric(text: str) -> bool:
    text = text.strip()
    if not text:
        return False
    if text[0] in "+-":
        text = text[1:]
    return text[:2].lower() == "0x" or text[:1].isdigit() or (
        len(text) >= 3 and text[0] == "'"
    )


def _parse_number(text: str, line: int) -> int:
    text = text.strip()
    try:
        if len(text) >= 3 and text.startswith("'") and text.endswith("'"):
            body = text[1:-1]
            if body == "\\n":
                return 10
            if body == "\\t":
                return 9
            if body == "\\0":
                return 0
            if len(body) == 1:
                return ord(body)
            raise ValueError(text)
        return int(text, 0)
    except ValueError:
        raise AssemblerError(f"bad number {text!r}", line) from None


def _split_sym_addend(text: str, line: int) -> Tuple[str, int]:
    text = text.strip()
    for sep in "+-":
        index = text.rfind(sep)
        if index > 0:
            symbol = text[:index].strip()
            if not _is_label(symbol):
                continue
            addend = _parse_number(text[index:].replace(" ", ""), line)
            return symbol, addend
    if not _is_label(text):
        raise AssemblerError(f"bad symbol reference {text!r}", line)
    return text, 0


def _parse_string(text: str, line: int) -> str:
    if len(text) < 2 or not text.startswith('"') or not text.endswith('"'):
        raise AssemblerError(f"bad string literal {text}", line)
    body = text[1:-1]
    out = []
    i = 0
    while i < len(body):
        ch = body[i]
        if ch == "\\" and i + 1 < len(body):
            escape = body[i + 1]
            mapped = {"n": "\n", "t": "\t", "0": "\0", "\\": "\\",
                      '"': '"'}.get(escape)
            if mapped is None:
                raise AssemblerError(f"bad escape \\{escape}", line)
            out.append(mapped)
            i += 2
        else:
            out.append(ch)
            i += 1
    return "".join(out)
