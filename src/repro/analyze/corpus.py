"""The seeded broken-object corpus — one object per diagnostic code.

Each :class:`CorpusEntry` is a minimal hand-built object (plus the
context it must be analyzed under) engineered so that running the full
pipeline produces its diagnostic code **exactly once**. CI's
``lint-objects`` job replays the corpus and fails if any code stops
firing, fires twice, or a healthy in-tree build starts firing at all —
the regression net that keeps the catalogue honest.

Also usable directly::

    PYTHONPATH=src python -m repro.analyze          # corpus self-test
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

from repro.hw import isa
from repro.linker.branch_islands import ISLAND_PREFIX
from repro.objfile.format import (
    ObjectFile,
    ObjectKind,
    Relocation,
    RelocType,
    SEC_ABS,
    SEC_BSS,
    SEC_DATA,
    SEC_TEXT,
    SEC_UNDEF,
    SectionLayout,
    Symbol,
    SymBinding,
)
from repro.analyze.context import LintContext, ScopeModule
from repro.analyze.pipeline import analyze_object

_JR_RA = isa.encode_r(isa.FN_JR, rs=isa.REG_RA)
_NOP = 0
_ADDI = isa.encode_i(isa.OP_ADDI, rs=0, rt=isa.REG_V0, imm=1)
_LUI_AT = isa.encode_i(isa.OP_LUI, rt=isa.REG_AT, imm=0)
_ORI_AT = isa.encode_i(isa.OP_ORI, rs=isa.REG_AT, rt=isa.REG_AT, imm=0)
_SW_AT = isa.encode_i(isa.OP_SW, rs=isa.REG_AT, rt=isa.REG_V0, imm=0)
_JR_AT = isa.encode_r(isa.FN_JR, rs=isa.REG_AT)


@dataclass
class CorpusEntry:
    """One broken object and the context that exposes its defect."""

    code: str
    title: str
    obj: ObjectFile
    context: LintContext

    def analyze(self):
        return analyze_object(self.obj, self.context)


def broken_objects() -> List[CorpusEntry]:
    """The full corpus, one entry per catalogue code, REL001..SAN004."""
    return [
        _rel001(), _rel002(), _rel003(), _rel004(), _rel005(), _rel006(),
        _sym001(), _sym002(), _sym003(),
        _cfg001(), _cfg002(), _cfg003(), _cfg004(), _cfg005(),
        _lay001(), _lay002(), _lay003(), _lay004(),
        _shr001(), _shr002(), _shr003(),
        _san001(), _san002(), _san003(), _san004(),
    ]


# ---------------------------------------------------------------------------
# builders
# ---------------------------------------------------------------------------


def _obj(name: str, words, kind: ObjectKind = ObjectKind.RELOCATABLE
         ) -> ObjectFile:
    """An object whose text is *words*, with global ``f`` at offset 0."""
    obj = ObjectFile(name, kind=kind)
    for word in words:
        obj.text.extend(int(word).to_bytes(4, "little"))
    obj.symbols["f"] = Symbol("f", SEC_TEXT, 0)
    return obj


def _undef(obj: ObjectFile, name: str) -> None:
    obj.symbols[name] = Symbol(name, SEC_UNDEF, 0)


def _island(obj: ObjectFile, offset: int, target: str = "far") -> str:
    label = f"{ISLAND_PREFIX}0__{target}"
    obj.symbols[label] = Symbol(label, SEC_TEXT, offset, SymBinding.LOCAL)
    return label


# ---------------------------------------------------------------------------
# relocation validator
# ---------------------------------------------------------------------------


def _rel001() -> CorpusEntry:
    obj = _obj("rel001.o", [_LUI_AT, _JR_RA])
    _undef(obj, "x")
    obj.relocations = [Relocation(SEC_TEXT, 0, RelocType.HI16, "x")]
    return CorpusEntry("REL001", "HI16 with no LO16 partner", obj,
                       LintContext())


def _rel002() -> CorpusEntry:
    obj = _obj("rel002.o", [_ORI_AT, _JR_RA])
    _undef(obj, "x")
    obj.relocations = [Relocation(SEC_TEXT, 0, RelocType.LO16, "x")]
    return CorpusEntry("REL002", "orphaned LO16", obj, LintContext())


def _rel003() -> CorpusEntry:
    obj = _obj("rel003.o", [_JR_RA])
    obj.bss_size = 8
    _undef(obj, "x")
    obj.relocations = [Relocation(SEC_BSS, 0, RelocType.WORD32, "x")]
    return CorpusEntry("REL003", "relocation site in byte-less bss", obj,
                       LintContext())


def _rel004() -> CorpusEntry:
    obj = _obj("rel004.o", [isa.encode_j(isa.OP_JAL, 0), _JR_RA])
    _undef(obj, "far")
    obj.relocations = [Relocation(SEC_TEXT, 0, RelocType.JUMP26, "far")]
    return CorpusEntry("REL004", "far call needing an island", obj,
                       LintContext())


def _rel005() -> CorpusEntry:
    obj = _obj("rel005", [isa.encode_j(isa.OP_JAL, 0), _JR_RA],
               kind=ObjectKind.EXECUTABLE)
    _undef(obj, "far")
    obj.relocations = [Relocation(SEC_TEXT, 0, RelocType.JUMP26, "far")]
    obj.layout[SEC_TEXT] = SectionLayout(SEC_TEXT, 0x0040_0000, 8)
    return CorpusEntry("REL005", "JUMP26 retained in a placed image", obj,
                       LintContext())


def _rel006() -> CorpusEntry:
    obj = _obj("rel006.o", [_JR_RA])
    obj.data.extend(bytes(8))
    obj.symbols["g"] = Symbol("g", SEC_DATA, 0)
    obj.relocations = [
        Relocation(SEC_DATA, 0, RelocType.WORD32, "g", addend=0x100),
    ]
    return CorpusEntry("REL006", "WORD32 addend out of bounds", obj,
                       LintContext())


# ---------------------------------------------------------------------------
# symbol-resolution audit
# ---------------------------------------------------------------------------


def _sym001() -> CorpusEntry:
    obj = _obj("sym001.o", [_JR_RA])
    _undef(obj, "missing")
    context = LintContext(
        scope_levels=[[ScopeModule("libc", exports={"printf": 0x100})]],
        closed_world=True,
    )
    return CorpusEntry("SYM001", "unresolvable undefined symbol", obj,
                       context)


def _sym002() -> CorpusEntry:
    obj = _obj("sym002.o", [_JR_RA])
    context = LintContext(scope_levels=[[
        ScopeModule("liba", exports={"dup": 0x100}),
        ScopeModule("libb", exports={"dup": 0x200}),
    ]])
    return CorpusEntry("SYM002", "duplicate export at one level", obj,
                       context)


def _sym003() -> CorpusEntry:
    obj = _obj("sym003.o", [_JR_RA])
    obj.symbols["dup"] = Symbol("dup", SEC_TEXT, 0)
    context = LintContext(scope_levels=[[
        ScopeModule("outer", exports={"dup": 0x100}),
    ]])
    return CorpusEntry("SYM003", "inner definition shadows outer", obj,
                       context)


# ---------------------------------------------------------------------------
# CFG / dead code
# ---------------------------------------------------------------------------


def _cfg001() -> CorpusEntry:
    obj = _obj("cfg001.o", [_JR_RA, _ADDI])  # addi is unreachable
    return CorpusEntry("CFG001", "unreachable block", obj, LintContext())


def _cfg002() -> CorpusEntry:
    obj = _obj("cfg002.o", [_ADDI, _ADDI])  # no terminator
    return CorpusEntry("CFG002", "falls off end of text", obj,
                       LintContext())


def _cfg003() -> CorpusEntry:
    obj = _obj("cfg003.o", [
        isa.encode_j(isa.OP_JAL, 8 >> 2),    # island entry: fine
        isa.encode_j(isa.OP_J, 12 >> 2),     # island middle: broken
        _LUI_AT, _ORI_AT, _JR_AT,            # the island, offset 8
    ])
    _island(obj, 8)
    return CorpusEntry("CFG003", "jump into island middle", obj,
                       LintContext())


def _cfg004() -> CorpusEntry:
    obj = _obj("cfg004.o", [_JR_RA, _LUI_AT, _ORI_AT, _JR_AT])
    _island(obj, 4)
    return CorpusEntry("CFG004", "orphaned island", obj, LintContext())


def _cfg005() -> CorpusEntry:
    obj = _obj("cfg005.o", [_JR_RA, 0xFFFF_FFFF])
    return CorpusEntry("CFG005", "undecodable word", obj, LintContext())


# ---------------------------------------------------------------------------
# layout audit
# ---------------------------------------------------------------------------


def _lay001() -> CorpusEntry:
    obj = _obj("lay001", [_JR_RA], kind=ObjectKind.EXECUTABLE)
    obj.layout[SEC_TEXT] = SectionLayout(SEC_TEXT, 0x7FFF_0000, 4)
    return CorpusEntry("LAY001", "placed in no architected region", obj,
                       LintContext())


def _lay002() -> CorpusEntry:
    obj = _obj("lay002", [_JR_RA], kind=ObjectKind.SEGMENT)
    obj.layout[SEC_TEXT] = SectionLayout(SEC_TEXT, 0x3000_0000, 4)
    context = LintContext(
        addrmap_entries=[(0x3000_0000, 0x10000, 42)],
        expect_public=True,
    )
    return CorpusEntry("LAY002", "overlaps a live segment", obj, context)


def _lay003() -> CorpusEntry:
    obj = _obj("lay003", [_JR_RA, _NOP, _NOP, _NOP],
               kind=ObjectKind.EXECUTABLE)
    obj.data.extend(bytes(8))
    obj.layout[SEC_TEXT] = SectionLayout(SEC_TEXT, 0x0040_0000, 16)
    obj.layout[SEC_DATA] = SectionLayout(SEC_DATA, 0x0040_0008, 8)
    return CorpusEntry("LAY003", "self-overlapping sections", obj,
                       LintContext())


def _lay004() -> CorpusEntry:
    obj = _obj("lay004", [_JR_RA], kind=ObjectKind.EXECUTABLE)
    obj.data.extend(bytes(8))
    obj.bss_size = 8
    obj.layout[SEC_TEXT] = SectionLayout(SEC_TEXT, 0x0040_0000, 4)
    obj.layout[SEC_DATA] = SectionLayout(SEC_DATA, 0x1000_0000, 8)
    obj.layout[SEC_BSS] = SectionLayout(SEC_BSS, 0x1002_0000, 8)
    return CorpusEntry("LAY004", "data+bss beyond the gp window", obj,
                       LintContext())


# ---------------------------------------------------------------------------
# sharing classes
# ---------------------------------------------------------------------------


def _shr001() -> CorpusEntry:
    obj = _obj("shr001.o", [_LUI_AT, _SW_AT, _JR_RA])
    obj.symbols["w"] = Symbol("w", SEC_TEXT, 0)
    obj.relocations = [
        Relocation(SEC_TEXT, 0, RelocType.HI16, "w"),
        Relocation(SEC_TEXT, 4, RelocType.LO16, "w"),
    ]
    return CorpusEntry("SHR001", "store through a text address", obj,
                       LintContext())


def _shr002() -> CorpusEntry:
    obj = _obj("shr002", [_JR_RA], kind=ObjectKind.SEGMENT)
    obj.data.extend(bytes(8))
    obj.layout[SEC_TEXT] = SectionLayout(SEC_TEXT, 0x3000_0000, 4)
    obj.layout[SEC_DATA] = SectionLayout(SEC_DATA, 0x3000_1000, 8)
    _undef(obj, "priv")
    obj.relocations = [Relocation(SEC_DATA, 0, RelocType.WORD32, "priv")]
    context = LintContext(
        scope_levels=[[
            ScopeModule("app", exports={"priv": 0x1000_0000}),
        ]],
        expect_public=True,
    )
    return CorpusEntry("SHR002", "public segment patched private", obj,
                       context)


def _shr003() -> CorpusEntry:
    obj = _obj("shr003.o", [_JR_RA])
    obj.link_info.dynamic_modules = [
        ("libx", "dynamic_public"),
        ("libx", "dynamic_private"),
    ]
    return CorpusEntry("SHR003", "conflicting sharing classes", obj,
                       LintContext())


# ---------------------------------------------------------------------------
# cross-sharing-class pointer analysis
# ---------------------------------------------------------------------------

_SAN_EXPORTS = {"pubseg": 0x3000_0100, "privptr": 0x1000_0040}

_LUI_V0 = isa.encode_i(isa.OP_LUI, rt=isa.REG_V0, imm=0)
_ORI_V0 = isa.encode_i(isa.OP_ORI, rs=isa.REG_V0, rt=isa.REG_V0, imm=0)
_LUI_A0 = isa.encode_i(isa.OP_LUI, rt=isa.REG_A0, imm=0)
_ORI_A0 = isa.encode_i(isa.OP_ORI, rs=isa.REG_A0, rt=isa.REG_A0, imm=0)
_SW_A0_AT = isa.encode_i(isa.OP_SW, rs=isa.REG_AT, rt=isa.REG_A0, imm=0)
_T0 = 8
_ADDI_T0_SP = isa.encode_i(isa.OP_ADDI, rs=isa.REG_SP, rt=_T0, imm=16)
_SW_T0_AT = isa.encode_i(isa.OP_SW, rs=isa.REG_AT, rt=_T0, imm=0)


def _san_context() -> LintContext:
    return LintContext(scope_levels=[[
        ScopeModule("env", exports=dict(_SAN_EXPORTS)),
    ]])


def _pair(obj: ObjectFile, offset: int, symbol: str) -> None:
    """A HI16/LO16 relocation pair at *offset* / *offset*+4."""
    obj.relocations.append(
        Relocation(SEC_TEXT, offset, RelocType.HI16, symbol))
    obj.relocations.append(
        Relocation(SEC_TEXT, offset + 4, RelocType.LO16, symbol))


def _san001() -> CorpusEntry:
    obj = _obj("san001.o", [
        _LUI_AT, _ORI_AT,       # at  <- &pubseg (public base)
        _LUI_V0, _ORI_V0,       # v0  <- &privptr (private address)
        _SW_AT,                 # sw v0, 0(at): plants it
        _JR_RA,
    ])
    _undef(obj, "pubseg")
    _undef(obj, "privptr")
    _pair(obj, 0, "pubseg")
    _pair(obj, 8, "privptr")
    return CorpusEntry("SAN001", "private pointer planted in public "
                       "segment", obj, _san_context())


def _san002() -> CorpusEntry:
    obj = _obj("san002.o", [
        _LUI_A0, _ORI_A0,                     # a0 <- &privptr
        isa.encode_j(isa.OP_JAL, 16 >> 2),    # publish(a0)
        _JR_RA,
        # publish, offset 16: stores its argument through &pubseg
        _LUI_AT, _ORI_AT,
        _SW_A0_AT,
        _JR_RA,
    ])
    obj.symbols["publish"] = Symbol("publish", SEC_TEXT, 16)
    _undef(obj, "pubseg")
    _undef(obj, "privptr")
    _pair(obj, 0, "privptr")
    _pair(obj, 16, "pubseg")
    obj.relocations.append(
        Relocation(SEC_TEXT, 8, RelocType.JUMP26, "publish"))
    return CorpusEntry("SAN002", "private pointer escapes through "
                       "publishing callee", obj, _san_context())


def _san003() -> CorpusEntry:
    obj = _obj("san003.o", [
        isa.encode_j(isa.OP_JAL, 20 >> 2),    # v0 <- mkpriv()
        _LUI_AT, _ORI_AT,                     # at <- &pubseg
        _SW_AT,                               # sw v0, 0(at)
        _JR_RA,
        # mkpriv, offset 20: returns &privptr
        _LUI_V0, _ORI_V0,
        _JR_RA,
    ])
    obj.symbols["mkpriv"] = Symbol("mkpriv", SEC_TEXT, 20)
    _undef(obj, "pubseg")
    _undef(obj, "privptr")
    _pair(obj, 4, "pubseg")
    _pair(obj, 20, "privptr")
    obj.relocations.append(
        Relocation(SEC_TEXT, 0, RelocType.JUMP26, "mkpriv"))
    return CorpusEntry("SAN003", "laundered private pointer stored "
                       "public", obj, _san_context())


def _san004() -> CorpusEntry:
    obj = _obj("san004.o", [
        _LUI_AT, _ORI_AT,       # at <- &pubseg
        _ADDI_T0_SP,            # t0 <- sp + 16
        _SW_T0_AT,              # sw t0, 0(at)
        _JR_RA,
    ])
    _undef(obj, "pubseg")
    _pair(obj, 0, "pubseg")
    return CorpusEntry("SAN004", "stack address stored public", obj,
                       _san_context())


# ---------------------------------------------------------------------------
# self-test
# ---------------------------------------------------------------------------


def run_self_test(strict: bool = False) -> List[str]:
    """Analyze the corpus; return a list of failure strings (empty = ok).

    With *strict*, additionally require that no entry produces ERROR
    findings under codes *other* than its own — the corpus stays
    surgically minimal.
    """
    failures: List[str] = []
    for entry in broken_objects():
        report = entry.analyze()
        hits = report.count(entry.code)
        if hits != 1:
            failures.append(
                f"{entry.code} ({entry.title}): fired {hits}x, want 1"
            )
        if strict:
            stray = [f for f in report.errors if f.code != entry.code]
            if stray:
                failures.append(
                    f"{entry.code}: stray errors {[f.code for f in stray]}"
                )
    return failures
