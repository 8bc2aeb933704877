"""The CPU's two execution tiers, generated from the semantics table.

Every row of :mod:`repro.hw.isa`'s table carries a Python-source
template of what the instruction does. This module turns the rows into
code; it holds no instruction semantics of its own.

* **Cold tier.** One handler per row, built once at import.
  :func:`decode` maps an instruction word to ``(handler, fields)``, and
  ``handler(cpu, space, pc, fields)`` executes that one instruction and
  returns the next PC. Loads and stores go through the address space's
  word, half-word and byte accessors.
* **Hot tier.** :func:`compile_block` concatenates a straight-line run
  of one code page (:func:`block_length`) into a single function
  ``block(cpu, space, budget)`` with every field, PC and constant a
  literal.
  Word loads and stores inline the address space's TLB fast path; any
  other access goes through the same address-space methods the cold
  tier calls.

A block is indistinguishable from stepping its instructions one by one
with the cold tier:

* it runs from its first instruction to its end, or stops early once
  *budget* instructions have completed (checked before each instruction
  after the first), or right after a store that took the slow path (a
  store that clears a frame's decoded-instruction cache is always sent
  down the slow path, so a block never runs past a store into its own
  text);
* on any exception it leaves ``pc`` at the raising instruction, counts
  only the instructions that completed, and re-raises; registers are
  written in program order, so they are already architectural;
* it adds to ``space.tlb_hits`` one hit per instruction fetched plus one
  per data access served by the inline fast path, exactly the count the
  cold tier's per-instruction fetch and ``load_word``/``store_word``
  make.
"""

from __future__ import annotations

import re
import struct
from typing import Callable, Dict, List, Optional, Tuple

from repro.errors import AlignmentError, InvalidInstructionError
from repro.hw import isa
from repro.vm.address_space import PROT_READ, PROT_WRITE
from repro.vm.layout import PAGE_SHIFT, PAGE_SIZE

M = isa.TEMPLATE_NAMES["M"]
B = isa.TEMPLATE_NAMES["B"]

_WORD = struct.Struct("<I")

# Decoded fields, in the order handlers unpack them.
_FIELD_NAMES = ("rs", "rt", "rd", "sa", "imm", "simm", "tgt", "w")

Handler = Callable[..., int]
Block = Callable[..., None]


def _leave(cpu, space, pc: int, count: int, hits: int) -> None:
    """Stop a block early: *count* instructions completed and *hits*
    data accesses took the inline TLB fast path."""
    cpu.pc = pc
    cpu.instructions_executed += count
    cpu.decode_hits += count
    space.tlb_hits += count + hits


_NAMESPACE = dict(
    isa.TEMPLATE_NAMES, AlignmentError=AlignmentError, _leave=_leave,
    _unpack=_WORD.unpack_from, _pack=_WORD.pack_into)


def _define(source: str, name: str):
    scope: dict = {}
    exec(compile(source, f"<{name}>", "exec"), _NAMESPACE, scope)
    return scope[name]


def _fields(word: int) -> Tuple[int, ...]:
    """The decoded fields of *word*, in ``_FIELD_NAMES`` order."""
    imm = word & 0xFFFF
    return ((word >> 21) & 31, (word >> 16) & 31, (word >> 11) & 31,
            (word >> 6) & 31, imm, imm - ((imm & 0x8000) << 1),
            word & 0x3FFFFFF, word)


# ---------------------------------------------------------------------------
# code generation shared by both tiers
# ---------------------------------------------------------------------------
#
# A tier is a substitution: the cold tier leaves the field names as they
# are (they are the handler's locals); the hot tier binds each name to a
# literal, so ``r[rs]`` becomes ``r[5]`` and ``M`` becomes 4294967295.

_NAMES = re.compile(r"\b(rs|rt|rd|sa|imm|simm|tgt|pc|npc|M|B)\b")


def _binder(values: Optional[Dict[str, int]]) -> Callable[[str], str]:
    if values is None:
        return lambda text: text

    def bind(text: str) -> str:
        def literal(match) -> str:
            value = values[match.group(1)]
            return f"({value})" if value < 0 else str(value)
        return _NAMES.sub(literal, text)
    return bind


def _write(dst: str, value: str, bind, hot: bool) -> List[str]:
    """Write *value* to register *dst*; register 0 stays zero."""
    index = bind(dst)
    if not hot:
        return [f"if {dst}: r[{dst}] = {value}" if not dst.isdigit()
                else f"r[{dst}] = {value}"]
    if index == "0":
        return []
    return [f"r[{index}] = {value}"]


def _address_lines(size: int, bind) -> List[str]:
    lines = [bind("a = (r[rs] + simm) & M")]
    if size > 1:
        lines.append(f"if a & {size - 1}: raise AlignmentError(a, {size})")
    return lines


def _memory_lines(row: isa.OpInfo, bind, hot: bool,
                  exit_after: List[str]) -> List[str]:
    kind, size = row.mem
    lines = _address_lines(size, bind)
    if kind == "load":
        if size == 4 and hot:
            lines += [
                f"e = tlb.get(a >> {PAGE_SHIFT})",
                f"if e is not None and e[1] & {PROT_READ}:",
                "    h += 1",
                f"    v = _unpack(e[0], a & {PAGE_SIZE - 1})[0]",
                "else:",
                "    v = space.load_word(a)",
            ]
        else:
            method = {1: "load_byte", 2: "load_half", 4: "load_word"}[size]
            lines.append(f"v = space.{method}(a)")
        return lines + _write("rt", bind(row.sem), bind, hot)
    value = bind(row.sem)
    if size == 4:
        slow = [f"space.store_word(a, {value})"]
    elif size == 2:
        slow = [f"space.write_bytes(a, ({value}).to_bytes(2, 'little'))"]
    else:
        slow = [f"space.write_bytes(a, bytes([{value}]))"]
    if not hot:
        return lines + slow
    if size != 4:
        return lines + slow + exit_after
    return lines + [
        f"e = tlb.get(a >> {PAGE_SHIFT})",
        f"if e is not None and e[1] & {PROT_WRITE} and not e[2].decode:",
        "    h += 1",
        f"    _pack(e[0], a & {PAGE_SIZE - 1}, {value})",
        "else:",
    ] + ["    " + line for line in slow + exit_after]


def _fall_lines(row: isa.OpInfo, bind, hot: bool,
                exit_after: List[str]) -> List[str]:
    """The effects of a FALL row (everything but moving the PC)."""
    if row.mem is not None:
        return _memory_lines(row, bind, hot, exit_after)
    value = bind(row.sem)
    if hot:
        # A write to register 0 still evaluates the value: it may trap.
        return _write(row.dst, value, bind, hot) or [value]
    return [f"v = {value}"] + _write(row.dst, "v", bind, hot)


# ---------------------------------------------------------------------------
# cold tier
# ---------------------------------------------------------------------------

def _cold_source(name: str, row: isa.OpInfo) -> str:
    bind = _binder(None)
    body: List[str] = []
    if row.flow == isa.FALL:
        body = _fall_lines(row, bind, False, []) + ["return npc"]
    elif row.flow == isa.BRANCH:
        body = [f"return (npc + (simm << 2)) & M if {row.sem} else npc"]
    elif row.flow == isa.JUMP:
        body = _write(row.dst, "npc", bind, False) if row.dst else []
        body.append(f"return {row.sem}")
    elif row.flow == isa.INDIRECT:
        body = [f"t = {row.sem}",
                "if t & 3: raise AlignmentError(t, 4)"]
        if row.dst:
            body += _write(row.dst, "npc", bind, False)
        body.append("return t")
    else:
        body = [f"raise {row.sem}(pc)"]
    head = [f"def {name}(cpu, space, pc, f):",
            f"    {', '.join(_FIELD_NAMES)} = f",
            "    r = cpu.regs",
            "    npc = (pc + 4) & M"]
    return "\n".join(head + ["    " + line for line in body]) + "\n"


def _cold(row: isa.OpInfo) -> Handler:
    name = f"cold_{row.mnemonic}"
    return _define(_cold_source(name, row), name)


def _invalid(cpu, space, pc: int, f: Tuple[int, ...]) -> int:
    raise InvalidInstructionError(pc, f[-1])


_COLD: Dict[isa.OpInfo, Handler] = {
    row: _cold(row) for _bits, row in isa.rows()}


def decode(word: int) -> Tuple[Handler, Tuple[int, ...]]:
    """The cold-tier handler for *word* and the fields it is called
    with; a word that is no instruction gets a handler that raises
    :class:`InvalidInstructionError`."""
    row = isa.lookup(word)
    return (_invalid if row is None else _COLD[row]), _fields(word)


# ---------------------------------------------------------------------------
# hot tier
# ---------------------------------------------------------------------------

#: Sub-word stores always take the slow path, after which a block stops.
_SLOW_STORES = (("store", 1), ("store", 2))


def block_length(data, offset: int) -> int:
    """Instructions in the straight-line run starting at page offset
    *offset* of *data*: it takes every falling-through instruction and
    ends with the first branch, jump or sub-word store (included),
    before the first trap or invalid word, or at the page end."""
    length = 0
    for at in range(offset, PAGE_SIZE, 4):
        row = isa.lookup(_WORD.unpack_from(data, at)[0])
        if row is None or row.flow == isa.TRAP:
            break
        length += 1
        if row.flow != isa.FALL or row.mem in _SLOW_STORES:
            break
    return length


def _block_source(words: bytes, base: int) -> str:
    """Python source of the block translating *words* placed at *base*."""
    body: List[str] = []
    count = len(words) // 4
    for index in range(count):
        pc = base + 4 * index
        npc = (pc + 4) & M
        word = _WORD.unpack_from(words, 4 * index)[0]
        row = isa.lookup(word)
        values = dict(zip(_FIELD_NAMES, _fields(word)))
        values.update(pc=pc, npc=npc, M=M, B=B)
        bind = _binder(values)
        body.append(f"# {pc:#010x}  {isa.disassemble_word(word, pc)}")
        if index:
            body.append(f"if budget == {index}: "
                        f"return _leave(cpu, space, {pc}, {index}, h)")
        body.append(f"i = {index}")
        if row.flow == isa.FALL:
            body += _fall_lines(
                row, bind, True,
                [f"return _leave(cpu, space, {npc}, {index + 1}, h)"])
            if index == count - 1:
                body.append(f"cpu.pc = {npc}")
        elif row.flow == isa.BRANCH:
            target = (npc + (values["simm"] << 2)) & M
            body.append(f"cpu.pc = {target} if {bind(row.sem)} else {npc}")
        elif row.flow == isa.JUMP:
            if row.dst:
                body += _write(row.dst, str(npc), bind, True)
            body.append(f"cpu.pc = {bind(row.sem)}")
        else:  # INDIRECT
            body += [f"t = {bind(row.sem)}",
                     "if t & 3: raise AlignmentError(t, 4)"]
            if row.dst:
                body += _write(row.dst, str(npc), bind, True)
            body.append("cpu.pc = t")
    lines = ["def block(cpu, space, budget):",
             "    r = cpu.regs",
             "    tlb = space.tlb",
             "    h = 0",
             "    try:"]
    lines += ["        " + line for line in body]
    lines += ["    except BaseException:",
              f"        cpu.pc = {base} + 4 * i",
              "        cpu.instructions_executed += i",
              "        cpu.decode_hits += i + 1",
              "        space.tlb_hits += i + 1 + h",
              "        raise",
              f"    cpu.instructions_executed += {count}",
              f"    cpu.decode_hits += {count}",
              f"    space.tlb_hits += {count} + h"]
    return "\n".join(lines) + "\n"


def compile_block(words: bytes, base: int) -> Block:
    """Translate the straight-line run *words* placed at *base* (see
    :func:`block_length`) into one function ``block(cpu, space,
    budget)`` that executes at most *budget* of them."""
    return _define(_block_source(words, base), "block")
