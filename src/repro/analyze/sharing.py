"""Check 5 — sharing-class checker (SHR001..SHR003).

Enforces the Table 1 semantics of the four sharing classes:

* ``SHR001`` — a store instruction whose LO16 relocation materializes
  the address of a symbol *defined in text*. Text is mapped read-only
  and — for public modules — shared by every process; the store would
  fault (or worse, under a permissive mapping, corrupt every sharer).
* ``SHR002`` — a public SEGMENT whose retained relocation the scope
  chain resolves to a *private* address. Public segments are mapped at
  the same address in every domain, so patching one with an address
  that means something different per process breaks the invariant the
  SFS range exists to provide.
* ``SHR003`` — one module requested under two different sharing classes
  in the same link_info. The loader honours the first entry; the second
  was almost certainly a mistake (and would silently change semantics
  if the order moved).
"""

from __future__ import annotations

from typing import Dict

from repro.hw import isa
from repro.objfile.format import (
    ObjectFile,
    ObjectKind,
    RelocType,
    SEC_TEXT,
)
from repro.vm.layout import is_public_address
from repro.analyze.context import LintContext
from repro.analyze.report import Report, finding, format_reloc


def check_sharing(obj: ObjectFile, context: LintContext,
                  report: Report) -> None:
    _check_stores_into_text(obj, context, report)
    _check_private_patches(obj, context, report)
    _check_class_conflicts(obj, report)


def _check_stores_into_text(obj: ObjectFile, context: LintContext,
                            report: Report) -> None:
    text = bytes(obj.text)
    for reloc in obj.relocations:
        if reloc.type is not RelocType.LO16 or reloc.section != SEC_TEXT:
            continue
        if reloc.offset < 0 or reloc.offset + 4 > len(text):
            continue  # REL003 territory
        word = int.from_bytes(text[reloc.offset: reloc.offset + 4],
                              "little")
        row = isa.lookup(word)
        if row is None or row.mem is None or row.mem[0] != "store":
            continue
        symbol = obj.symbols.get(reloc.symbol)
        in_text = (symbol is not None and symbol.defined
                   and symbol.section == SEC_TEXT)
        if not in_text:
            # Placed images carry no section tags; fall back to the
            # chain's knowledge of which exports live in text.
            in_text = any(
                reloc.symbol in module.text_symbols
                for module in context.all_modules()
            )
        if in_text:
            report.add(finding(
                "SHR001", obj.name,
                f"store at text+0x{reloc.offset:x} writes through "
                f"{format_reloc(reloc)}, which addresses read-only text",
                section=SEC_TEXT, offset=reloc.offset,
                symbol=reloc.symbol,
            ))


def _check_private_patches(obj: ObjectFile, context: LintContext,
                           report: Report) -> None:
    if obj.kind is not ObjectKind.SEGMENT:
        return
    if context.expect_public is False:
        return  # private segments may patch private addresses freely
    if context.expect_public is None and not _placed_public(obj):
        return
    seen: Dict[str, int] = {}
    for reloc in obj.relocations:
        if reloc.symbol in seen:
            continue
        address = context.resolve(reloc.symbol)
        if address is None:
            continue
        seen[reloc.symbol] = address
        if not is_public_address(address):
            report.add(finding(
                "SHR002", obj.name,
                f"public segment would patch {reloc.symbol!r} with "
                f"private address 0x{address:08x}; the patched bytes "
                f"are shared but the address is per-process",
                section=reloc.section, offset=reloc.offset,
                symbol=reloc.symbol,
            ))


def _placed_public(obj: ObjectFile) -> bool:
    text = obj.layout.get(SEC_TEXT) if obj.layout else None
    return text is not None and is_public_address(text.base)


def _check_class_conflicts(obj: ObjectFile, report: Report) -> None:
    seen: Dict[str, str] = {}
    for name, sclass in obj.link_info.dynamic_modules:
        earlier = seen.setdefault(name, sclass)
        if earlier != sclass:
            report.add(finding(
                "SHR003", obj.name,
                f"module {name!r} requested as both {earlier!r} and "
                f"{sclass!r}; the loader honours the first entry",
                symbol=name,
            ))
