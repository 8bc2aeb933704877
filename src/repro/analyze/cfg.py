"""Check 3 — CFG and dead-code analysis (CFG001..CFG005).

Decodes the text section with the :mod:`repro.hw.isa` semantics table
(validity and control-flow class per instruction), carves it into basic
blocks, and walks reachability from every entry point: the
entry symbol, every defined text symbol (functions are callable from
other modules, locals label branch targets), and every symbol a
relocation can materialize as a function pointer.

Reported:

* ``CFG001`` — a block no entry point can reach (alignment padding —
  runs of zero words — is recognized and skipped);
* ``CFG002`` — control flow can run off the end of text, or a decoded
  branch/jump targets bytes outside text;
* ``CFG003`` — a transfer lands in the *middle* of a branch-island
  thunk: islands are three-instruction atoms (``lui at / ori at / jr
  at``); entering one halfway jumps through a half-built address;
* ``CFG004`` — an island no call site targets (orphaned thunk);
* ``CFG005`` — a word in text that decodes as no instruction (inline
  data; advisory, and the block is excluded from dead-code reporting).

Works on templates (jump targets recovered from JUMP26 relocations) and
on placed images (targets decoded from the patched words).
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple

from repro.hw import isa
from repro.linker.branch_islands import ISLAND_PREFIX, ISLAND_SIZE
from repro.objfile.format import ObjectFile, RelocType, SEC_ABS, SEC_TEXT
from repro.util.bits import sign_extend
from repro.analyze.context import LintContext
from repro.analyze.report import Report, finding

ISLAND_RE = re.compile(rf"^{ISLAND_PREFIX}\d+__")

@dataclass
class _Insn:
    """One decoded word: control-flow role and static targets."""

    offset: int
    word: int
    valid: bool = True
    ends_block: bool = False
    falls_through: bool = True
    targets: List[int] = field(default_factory=list)  # text offsets


@dataclass
class _Block:
    start: int
    end: int  # exclusive
    reachable: bool = False

    def offsets(self) -> range:
        return range(self.start, self.end, 4)


def check_cfg(obj: ObjectFile, context: LintContext,
              report: Report) -> None:
    text = bytes(obj.text)
    if not text or len(text) % 4:
        return
    base = obj.layout[SEC_TEXT].base if SEC_TEXT in obj.layout else 0
    jump_relocs = {
        reloc.offset: reloc for reloc in obj.relocations
        if reloc.section == SEC_TEXT and reloc.type is RelocType.JUMP26
    }

    insns = _decode(obj, text, base, jump_relocs, report)
    islands = _island_spans(obj, text)
    roots = _entry_roots(obj, text, base)
    blocks = _build_blocks(insns, roots, islands)
    _mark_reachable(blocks, insns, roots)

    _report_island_entries(obj, insns, islands, report)
    _report_orphan_islands(obj, insns, islands, jump_relocs, report)
    _report_fall_off_and_escapes(obj, insns, blocks, text, report)
    _report_unreachable(obj, insns, blocks, report)


# ---------------------------------------------------------------------------
# decoding
# ---------------------------------------------------------------------------


def _decode(obj: ObjectFile, text: bytes, base: int,
            jump_relocs: Dict[int, object],
            report: Report) -> Dict[int, _Insn]:
    insns: Dict[int, _Insn] = {}
    data_run_start: Optional[int] = None
    for offset in range(0, len(text), 4):
        word = int.from_bytes(text[offset: offset + 4], "little")
        insn = _Insn(offset, word)
        if not _word_decodes(word):
            insn.valid = False
            insn.ends_block = True
            insn.falls_through = False
            if data_run_start is None:
                data_run_start = offset
                report.add(finding(
                    "CFG005", obj.name,
                    f"word 0x{word:08x} does not decode; treating the "
                    f"run from here as inline data",
                    section=SEC_TEXT, offset=offset,
                ))
        else:
            data_run_start = None
            _classify(insn, base, obj, jump_relocs)
        insns[offset] = insn
    return insns


def _word_decodes(word: int) -> bool:
    # Stricter than the CPU, which runs any REGIMM rt as bltz or bgez.
    if (word >> 26) & 0x3F == isa.OP_REGIMM:
        return (word >> 16) & 31 in isa.REGIMM
    return isa.lookup(word) is not None


def _classify(insn: _Insn, base: int, obj: ObjectFile,
              jump_relocs: Dict[int, object]) -> None:
    word, offset = insn.word, insn.offset
    row = isa.lookup(word)
    if row.flow == isa.INDIRECT:
        # Target unknowable; an indirect call (jalr) returns here.
        insn.ends_block = True
        insn.falls_through = row.links
    elif row.flow == isa.BRANCH:
        insn.ends_block = True
        simm = sign_extend(word & 0xFFFF, 16)
        insn.targets.append(offset + 4 + (simm << 2))
    elif row.flow == isa.JUMP:
        insn.ends_block = True
        insn.falls_through = row.links  # calls return
        reloc = jump_relocs.get(offset)
        if reloc is not None:
            target = _reloc_target_offset(obj, reloc, base)
            if target is not None:
                insn.targets.append(target)
            return  # unresolved external: no static target
        target = isa.jump_target(base + offset, word & 0x3FFFFFF)
        insn.targets.append(target - base)


def _reloc_target_offset(obj: ObjectFile, reloc, base: int
                         ) -> Optional[int]:
    symbol = obj.symbols.get(reloc.symbol)
    if symbol is None or not symbol.defined:
        return None
    if symbol.section == SEC_TEXT:
        return symbol.value + reloc.addend
    if symbol.section == SEC_ABS:
        return symbol.value + reloc.addend - base
    return None


# ---------------------------------------------------------------------------
# entries, islands, blocks
# ---------------------------------------------------------------------------


def _entry_roots(obj: ObjectFile, text: bytes, base: int) -> Set[int]:
    roots: Set[int] = set()

    def note(value: int) -> None:
        if 0 <= value < len(text) and value % 4 == 0:
            roots.add(value)

    for symbol in obj.symbols.values():
        if not symbol.defined:
            continue
        if symbol.section == SEC_TEXT:
            note(symbol.value)
        elif symbol.section == SEC_ABS:
            note(symbol.value - base)
    # Function pointers: relocations (in any section) that materialize
    # the address of a text symbol make that symbol callable.
    for reloc in obj.relocations:
        symbol = obj.symbols.get(reloc.symbol)
        if symbol is not None and symbol.defined \
                and symbol.section == SEC_TEXT:
            note(symbol.value + reloc.addend)
    return roots


def _island_spans(obj: ObjectFile, text: bytes) -> Dict[str, Tuple[int, int]]:
    """name -> (start, end) text-offset span of each branch island."""
    spans: Dict[str, Tuple[int, int]] = {}
    base = obj.layout[SEC_TEXT].base if SEC_TEXT in obj.layout else 0
    for symbol in obj.symbols.values():
        if not ISLAND_RE.match(symbol.name) or not symbol.defined:
            continue
        if symbol.section == SEC_TEXT:
            start = symbol.value
        elif symbol.section == SEC_ABS:
            start = symbol.value - base
        else:
            continue
        if 0 <= start and start + ISLAND_SIZE <= len(text):
            spans[symbol.name] = (start, start + ISLAND_SIZE)
    return spans


def _build_blocks(insns: Dict[int, _Insn], roots: Set[int],
                  islands: Dict[str, Tuple[int, int]]) -> List[_Block]:
    leaders: Set[int] = {0} | set(roots)
    for start, _end in islands.values():
        leaders.add(start)
    for insn in insns.values():
        for target in insn.targets:
            if target in insns:
                leaders.add(target)
        if insn.ends_block and insn.offset + 4 in insns:
            leaders.add(insn.offset + 4)
    ordered = sorted(leaders)
    end_of_text = max(insns) + 4 if insns else 0
    blocks = []
    for index, start in enumerate(ordered):
        end = ordered[index + 1] if index + 1 < len(ordered) \
            else end_of_text
        blocks.append(_Block(start, end))
    return blocks


def _mark_reachable(blocks: List[_Block], insns: Dict[int, _Insn],
                    roots: Set[int]) -> None:
    by_start = {block.start: block for block in blocks}

    def block_of(offset: int) -> Optional[_Block]:
        for block in blocks:
            if block.start <= offset < block.end:
                return block
        return None

    frontier = [by_start[root] for root in roots if root in by_start]
    seen = set(id(block) for block in frontier)
    while frontier:
        block = frontier.pop()
        block.reachable = True
        succs: List[int] = []
        for offset in block.offsets():
            insn = insns[offset]
            if not insn.valid:
                break  # inline data stops the walk
            if insn.ends_block or offset + 4 >= block.end:
                succs.extend(t for t in insn.targets if t in insns)
                if insn.falls_through:
                    succs.append(offset + 4)
                break
        for succ in succs:
            nxt = by_start.get(succ) or block_of(succ)
            if nxt is not None and id(nxt) not in seen:
                seen.add(id(nxt))
                frontier.append(nxt)


# ---------------------------------------------------------------------------
# findings
# ---------------------------------------------------------------------------


def _report_island_entries(obj: ObjectFile, insns: Dict[int, _Insn],
                           islands: Dict[str, Tuple[int, int]],
                           report: Report) -> None:
    interiors = {
        interior: name
        for name, (start, end) in islands.items()
        for interior in range(start + 4, end, 4)
    }
    for insn in insns.values():
        for target in insn.targets:
            name = interiors.get(target)
            if name is not None:
                report.add(finding(
                    "CFG003", obj.name,
                    f"transfer at text+0x{insn.offset:x} lands mid-island "
                    f"(text+0x{target:x}, inside {name}); the thunk's "
                    f"address register would be half-loaded",
                    section=SEC_TEXT, offset=insn.offset, symbol=name,
                ))


def _report_orphan_islands(obj: ObjectFile, insns: Dict[int, _Insn],
                           islands: Dict[str, Tuple[int, int]],
                           jump_relocs, report: Report) -> None:
    targeted: Set[int] = set()
    for insn in insns.values():
        targeted.update(insn.targets)
    referenced_labels = {
        reloc.symbol for reloc in obj.relocations
        if reloc.type is RelocType.JUMP26
    }
    for name, (start, _end) in sorted(islands.items()):
        if start in targeted or name in referenced_labels:
            continue
        report.add(finding(
            "CFG004", obj.name,
            f"branch island {name} at text+0x{start:x} is never "
            f"targeted by any call site",
            section=SEC_TEXT, offset=start, symbol=name,
        ))


def _report_fall_off_and_escapes(obj: ObjectFile, insns: Dict[int, _Insn],
                                 blocks: List[_Block], text: bytes,
                                 report: Report) -> None:
    for block in blocks:
        if not block.reachable:
            continue
        for offset in block.offsets():
            insn = insns[offset]
            if not insn.valid:
                break
            for target in insn.targets:
                if not (0 <= target < len(text)):
                    report.add(finding(
                        "CFG002", obj.name,
                        f"transfer at text+0x{offset:x} targets "
                        f"text{target:+#x}, outside the section",
                        section=SEC_TEXT, offset=offset,
                    ))
            if insn.ends_block or offset + 4 >= block.end:
                if insn.falls_through and offset + 4 >= len(text):
                    report.add(finding(
                        "CFG002", obj.name,
                        f"execution falls off the end of text after "
                        f"text+0x{offset:x} (no terminator)",
                        section=SEC_TEXT, offset=offset,
                    ))
                break


def _report_unreachable(obj: ObjectFile, insns: Dict[int, _Insn],
                        blocks: List[_Block], report: Report) -> None:
    for block in blocks:
        if block.reachable:
            continue
        words = [insns[offset] for offset in block.offsets()]
        if all(insn.word == 0 for insn in words):
            continue  # alignment padding between merged modules
        if any(not insn.valid for insn in words):
            continue  # inline data: already covered by CFG005
        report.add(finding(
            "CFG001", obj.name,
            f"basic block text+0x{block.start:x}..0x{block.end:x} is "
            f"unreachable from every entry point",
            section=SEC_TEXT, offset=block.start,
        ))
