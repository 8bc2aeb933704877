"""Check 6 — cross-sharing-class pointer analysis (SAN001..SAN004).

The paper's public segments live at one global address in every domain,
so an address stored *into* one is read back verbatim by every sharer.
A pointer into private memory (an executable's own data, a stack frame,
a COW page) means something different — or nothing at all — in every
other process. The dynamic sanitizer (repro.sanitize) catches such
pointers being *dereferenced*; this pass catches them being *planted*,
statically, before the image ever runs.

The analysis is a per-function linear abstract interpretation over the
object's text. Registers carry a provenance class:

* ``pub``   — materialized (HI16/LO16 pair) from a symbol the scope
  chain resolves into the public SFS range;
* ``priv``  — materialized from a symbol resolving *outside* it;
* ``stack`` — derived from ``sp``;
* ``ret``   — the return value of a callee whose summary says it
  returns a private pointer;
* ``arg k`` — the function's own k-th incoming argument.

Interprocedural facts come from one summary pass over every function:
``publishes`` (the argument indices a function stores through a public
base) and ``returns_private``. The checker then rescans and flags:

* ``SAN001`` — a store writes a *private* pointer through a *public*
  base (the direct plant);
* ``SAN002`` — a call passes a private pointer to a callee that
  publishes that argument (the escape);
* ``SAN003`` — a callee's returned private pointer is stored through a
  public base (the laundered plant);
* ``SAN004`` — a stack-derived address is stored through a public base
  (advisory: legal for intra-run scratch, lethal across domains).

The transfer is read off the :mod:`repro.hw.isa` row of each word: a
branch, jump or indirect transfer resets the state, a linking jump is a
call, a ``syscall`` ends ``v0``/``v1`` (the kernel writes both), a word
store is checked, and every other write clears its destination —
except the provenance carriers ``lui ori addi add or``.

Provenance never flows through memory and dies at every control-flow
join, so a register the analysis cannot prove private stays unknown —
the pass is deliberately false-positive-free on runtime-computed
pointers (shmalloc results, pointer chasing) at the cost of missing
them; those are the dynamic sanitizer's job.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple

from repro.hw import isa
from repro.linker.branch_islands import ISLAND_PREFIX
from repro.objfile.format import (
    ObjectFile,
    RelocType,
    SEC_TEXT,
)
from repro.vm.layout import is_public_address
from repro.analyze.context import LintContext
from repro.analyze.report import Report, Severity, finding, register_codes

register_codes({
    # -- cross-sharing-class pointer analysis --------------------------
    "SAN001": (Severity.ERROR,
               "private pointer stored through a public-segment base"),
    "SAN002": (Severity.ERROR,
               "private pointer escapes through a publishing callee"),
    "SAN003": (Severity.ERROR,
               "callee-returned private pointer stored into a public "
               "segment"),
    "SAN004": (Severity.WARNING,
               "stack-derived address stored into a public segment"),
})

_NARGS = 4          # a0..a3
_STORE_WORD = ("store", 4)
#: Caller-saved registers clobbered by a call: at, v0/v1, a0..a3,
#: t0..t9, ra.
_CALLER_SAVED = tuple(
    [isa.REG_AT, isa.REG_V0, isa.REG_V1]
    + list(range(isa.REG_A0, isa.REG_A0 + _NARGS))
    + list(range(8, 16)) + [24, 25, isa.REG_RA]
)

# Provenance lattice values (None = unknown).
_PUB = "pub"
_PRIV = "priv"
_STACK = "stack"
_RET = "ret"
_ARG = "arg"
_HI = "hi"
_POINTERISH = frozenset({_PUB, _PRIV, _STACK, _RET, _ARG})


@dataclass
class _Summary:
    """What a function does with pointers, as seen from a call site."""

    publishes: Set[int] = field(default_factory=set)
    returns_private: bool = False


@dataclass
class _Func:
    name: str
    start: int
    end: int


def check_sanitize(obj: ObjectFile, context: LintContext,
                   report: Report) -> None:
    """Run the cross-sharing-class pointer analysis over *obj*."""
    text = bytes(obj.text)
    if len(text) < 4:
        return
    relocs = _reloc_index(obj)
    funcs = _functions(obj, len(text))
    summaries: Dict[str, _Summary] = {}
    for func in funcs:
        summaries[func.name] = _scan(obj, context, text, relocs, func,
                                     summaries={}, report=None)
    for func in funcs:
        _scan(obj, context, text, relocs, func, summaries=summaries,
              report=report)


# ---------------------------------------------------------------------------
# structure discovery
# ---------------------------------------------------------------------------


def _reloc_index(obj: ObjectFile) -> Dict[int, List]:
    """Text relocations keyed by site offset."""
    index: Dict[int, List] = {}
    for reloc in obj.relocations:
        if reloc.section == SEC_TEXT:
            index.setdefault(reloc.offset, []).append(reloc)
    return index


def _functions(obj: ObjectFile, text_len: int) -> List[_Func]:
    """Function extents from the defined text symbols, islands excluded.

    An object with no text symbols is analyzed as one anonymous
    function starting at offset 0.
    """
    starts: List[Tuple[int, str]] = []
    for name, symbol in obj.symbols.items():
        if not symbol.defined or symbol.section != SEC_TEXT:
            continue
        if name.startswith(ISLAND_PREFIX):
            continue
        starts.append((symbol.value, name))
    if not starts:
        return [_Func("<text>", 0, text_len)]
    starts.sort()
    if starts[0][0] != 0:
        starts.insert(0, (0, "<text>"))
    out: List[_Func] = []
    for index, (start, name) in enumerate(starts):
        end = starts[index + 1][0] if index + 1 < len(starts) \
            else text_len
        out.append(_Func(name, start, end))
    return out


def _resolve(obj: ObjectFile, context: LintContext,
             symbol: str) -> Optional[int]:
    """The absolute address *symbol* will have, if statically known."""
    address = context.resolve(symbol)
    if address is not None:
        return address
    entry = obj.symbols.get(symbol)
    if entry is None or not entry.defined:
        return None
    layout = obj.layout.get(entry.section) if obj.layout else None
    if layout is None:
        return None
    return layout.base + entry.value


# ---------------------------------------------------------------------------
# the linear abstract interpretation
# ---------------------------------------------------------------------------


def _scan(obj: ObjectFile, context: LintContext, text: bytes,
          relocs: Dict[int, List], func: _Func,
          summaries: Dict[str, _Summary],
          report: Optional[Report]) -> _Summary:
    """One pass over *func*; returns its summary.

    With *report* set, also emits findings (using *summaries* for the
    interprocedural checks). Register state is reset at every
    control-flow instruction, so provenance only survives straight-line
    code — unknown never flags, which keeps the pass FP-free.
    """
    state: List[Optional[Tuple]] = [None] * 32
    for k in range(_NARGS):
        state[isa.REG_A0 + k] = (_ARG, k)
    summary = _Summary()
    offset = func.start
    while offset + 4 <= func.end:
        word = int.from_bytes(text[offset: offset + 4], "little")
        row = isa.lookup(word)
        rs = (word >> 21) & 31
        rt = (word >> 16) & 31
        rd = (word >> 11) & 31
        if row is None:
            _reset(state)  # the CPU traps: nothing falls through
        elif row.flow == isa.TRAP:
            # The kernel's results; everything else survives a syscall.
            state[isa.REG_V0] = state[isa.REG_V1] = None
        elif row.flow == isa.JUMP and row.links:
            _call(obj, state, summary, summaries, report, func, offset,
                  relocs.get(offset))
        elif row.flow != isa.FALL:
            if row.flow == isa.INDIRECT and rs == isa.REG_RA:
                value = state[isa.REG_V0]
                if value is not None and value[0] == _PRIV:
                    summary.returns_private = True
            _reset(state)
        elif row.mem == _STORE_WORD:
            _check_store(obj, func, report, summary, offset,
                         base=state[rs], value=state[rt])
        elif row.mnemonic == "lui":
            state[rt] = _lui(relocs.get(offset))
        elif row.mnemonic == "ori":
            state[rt] = _ori(obj, context, state[rs], relocs.get(offset))
        elif row.mnemonic == "addi":
            state[rt] = (_STACK,) if rs == isa.REG_SP \
                else _keep_pointer(state[rs])
        elif row.mnemonic in ("add", "or"):
            state[rd] = _sum(state, rs, rt)
        elif row.dst is not None:
            state[rd if row.dst == "rd" else rt] = None
        state[isa.REG_ZERO] = None
        offset += 4
    return summary


def _sum(state: List[Optional[Tuple]], rs: int,
         rt: int) -> Optional[Tuple]:
    """``add``/``or``: a pointer plus zero, or anything plus ``sp``."""
    if rs == isa.REG_SP or rt == isa.REG_SP:
        return (_STACK,)
    if rt == isa.REG_ZERO:
        return _keep_pointer(state[rs])
    if rs == isa.REG_ZERO:
        return _keep_pointer(state[rt])
    return None


def _lui(site_relocs: Optional[List]) -> Optional[Tuple]:
    if site_relocs:
        for reloc in site_relocs:
            if reloc.type is RelocType.HI16:
                return (_HI, reloc.symbol)
    return None


def _ori(obj: ObjectFile, context: LintContext,
         upper: Optional[Tuple],
         site_relocs: Optional[List]) -> Optional[Tuple]:
    if site_relocs:
        for reloc in site_relocs:
            if reloc.type is not RelocType.LO16:
                continue
            if upper is None or upper[0] != _HI \
                    or upper[1] != reloc.symbol:
                return None
            address = _resolve(obj, context, reloc.symbol)
            if address is None:
                return None
            address = (address + reloc.addend) & 0xFFFFFFFF
            kind = _PUB if is_public_address(address) else _PRIV
            return (kind, reloc.symbol, address)
    return _keep_pointer(upper)


def _keep_pointer(value: Optional[Tuple]) -> Optional[Tuple]:
    """Pointer arithmetic preserves provenance; anything else drops it."""
    if value is not None and value[0] in _POINTERISH:
        return value
    return None


def _reset(state: List[Optional[Tuple]]) -> None:
    for reg in range(32):
        state[reg] = None


def _call(obj: ObjectFile, state: List[Optional[Tuple]],
          summary: _Summary, summaries: Dict[str, _Summary],
          report: Optional[Report], func: _Func, offset: int,
          site_relocs: Optional[List]) -> None:
    callee = None
    if site_relocs:
        for reloc in site_relocs:
            if reloc.type is RelocType.JUMP26:
                callee = reloc.symbol
                break
    callee_summary = summaries.get(callee) if callee else None
    if report is not None and callee_summary is not None:
        for k in sorted(callee_summary.publishes):
            value = state[isa.REG_A0 + k]
            if value is not None and value[0] == _PRIV:
                report.add(finding(
                    "SAN002", obj.name,
                    f"{func.name} passes private pointer "
                    f"{value[1]!r} (0x{value[2]:08x}) as argument "
                    f"{k} to {callee!r}, which stores that argument "
                    f"into a public segment",
                    section=SEC_TEXT, offset=offset,
                    symbol=value[1],
                ))
    for reg in _CALLER_SAVED:
        state[reg] = None
    if callee_summary is not None and callee_summary.returns_private:
        state[isa.REG_V0] = (_RET, callee)


def _check_store(obj: ObjectFile, func: _Func,
                 report: Optional[Report], summary: _Summary,
                 offset: int, base: Optional[Tuple],
                 value: Optional[Tuple]) -> None:
    if base is None or base[0] != _PUB:
        return
    if value is not None and value[0] == _ARG:
        summary.publishes.add(value[1])
    if report is None or value is None:
        return
    if value[0] == _PRIV:
        report.add(finding(
            "SAN001", obj.name,
            f"{func.name} stores private pointer {value[1]!r} "
            f"(0x{value[2]:08x}) through public base {base[1]!r}; "
            f"the address is per-process but the segment is shared",
            section=SEC_TEXT, offset=offset, symbol=value[1],
        ))
    elif value[0] == _RET:
        report.add(finding(
            "SAN003", obj.name,
            f"{func.name} stores the private pointer returned by "
            f"{value[1]!r} through public base {base[1]!r}",
            section=SEC_TEXT, offset=offset, symbol=value[1],
        ))
    elif value[0] == _STACK:
        report.add(finding(
            "SAN004", obj.name,
            f"{func.name} stores a stack-derived address through "
            f"public base {base[1]!r}; the frame is gone (or someone "
            f"else's) in every other sharer",
            section=SEC_TEXT, offset=offset,
        ))
