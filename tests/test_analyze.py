"""repro.analyze: the reprolint checks, the corpus, and the link gates."""

import pytest

from repro import boot
from repro.apps.presto.runtime import SHARED_DATA_SOURCE, WORKER_SOURCE
from repro.bench.workloads import make_shell
from repro.errors import LinkError, LintError
from repro.hw.asm import assemble
from repro.linker.branch_islands import count_far_jumps
from repro.linker.classes import SharingClass
from repro.linker.lds import LinkRequest, store_object
from repro.linker.ldl import Ldl
from repro.linker.segments import read_segment_meta, update_segment_meta
from repro.objfile.archive import Archive
from repro.objfile.format import (
    ObjectFile,
    ObjectKind,
    Relocation,
    RelocType,
    SEC_TEXT,
)
from repro.session import Session
from repro.toyc import compile_source
from repro.tools.cli import UsageError, reprolint_main
from repro.analyze import (
    CATALOG,
    LintContext,
    Report,
    ScopeModule,
    Severity,
    analyze_object,
    broken_objects,
    finding,
    format_reloc,
    format_site,
    run_self_test,
)

from tests.test_linker_lds import MAIN_CALLS_SHARED, SHARED_MODULE, put
from tests.test_linker_scoped import diamond

# A main that never returns control: reachable flow runs off the end of
# text, which the CFG check classifies as CFG002 (an ERROR) — the shape
# the lds gate must refuse to write to disk.
BROKEN_MAIN = """
        .text
        .globl main
main:
        li v0, 7
"""


def not_defined_in(obj):
    """The lds/ldl branch-island predicate, spelled out for tests."""
    def needs_island(symbol):
        entry = obj.symbols.get(symbol)
        return entry is None or not entry.defined
    return needs_island


# ---------------------------------------------------------------------------
# report model
# ---------------------------------------------------------------------------


class TestReportModel:
    def test_severity_is_ordered(self):
        assert Severity.INFO < Severity.WARNING < Severity.ERROR
        assert str(Severity.ERROR) == "error"

    def test_catalog_codes_are_stable_shapes(self):
        assert len(CATALOG) == 40
        for code, (severity, title) in CATALOG.items():
            assert code[:3] in ("REL", "SYM", "CFG", "LAY", "SHR", "DSK",
                                "SAN")
            assert code[3:].isdigit() and len(code) == 6
            assert isinstance(severity, Severity)
            assert title

    def test_finding_takes_catalog_severity(self):
        item = finding("REL001", "m.o", "lonely half",
                       section="text", offset=8, symbol="g")
        assert item.severity is Severity.ERROR
        assert item.site() == "text+0x8"
        assert "REL001 error:" in str(item)
        assert "[g]" in str(item)

    def test_format_site_spellings(self):
        assert format_site("text", 0x14) == "text+0x14"
        assert format_site("text", 0x14, 0x400014) == "0x00400014"
        assert format_site("bss", None) == "bss"
        assert format_site("", None) == "-"

    def test_format_reloc_with_codes(self):
        reloc = Relocation(SEC_TEXT, 4, RelocType.JUMP26, "fn", 8)
        assert format_reloc(reloc) == "JUMP26 fn+0x8"
        assert format_reloc(reloc, ["REL004"]) == "JUMP26 fn+0x8 [REL004]"

    def test_report_queries_and_render(self):
        report = Report(subject="m.o")
        report.add(finding("SYM003", "m.o", "shadowed", symbol="x"))
        report.add(finding("REL001", "m.o", "broken", section="text",
                           offset=0))
        assert report.count("REL001") == 1
        assert report.codes() == ["REL001", "SYM003"]
        assert report.max_severity is Severity.ERROR
        rendered = report.render()
        lines = rendered.splitlines()
        assert lines[0].startswith("REL001")  # worst first
        assert lines[-1] == "m.o: 2 finding(s) (1 error, 0 warning, 1 info)"
        # min_severity filters the listing but not the tally.
        quiet = report.render(Severity.WARNING)
        assert "SYM003" not in quiet.splitlines()[0]

    def test_raise_if_thresholds(self):
        report = Report(subject="m.o")
        report.add(finding("CFG001", "m.o", "dead code"))
        report.raise_if(Severity.ERROR)  # warnings pass the gate
        with pytest.raises(LintError) as err:
            report.raise_if(Severity.WARNING)
        assert "m.o" in str(err.value)
        assert err.value.findings


# ---------------------------------------------------------------------------
# the seeded broken-object corpus: every code fires, exactly once
# ---------------------------------------------------------------------------


class TestCorpus:
    # DSK* codes fire on disk images (see tests/test_disk.py), not on
    # linker objects, so the broken-object corpus excludes them.
    @pytest.mark.parametrize(
        "code",
        sorted(c for c in CATALOG if not c.startswith("DSK")),
        ids=sorted(c for c in CATALOG if not c.startswith("DSK")),
    )
    def test_each_code_fires_exactly_once(self, code):
        entries = [e for e in broken_objects() if e.code == code]
        assert len(entries) == 1, f"no corpus entry for {code}"
        report = entries[0].analyze()
        assert report.count(code) == 1, report.render()

    def test_strict_self_test_is_clean(self):
        assert run_self_test(strict=True) == []


class TestSanTransfer:
    # The kernel writes v0 and v1 on every syscall, so after one v1 no
    # longer holds &privptr when it is stored.
    @pytest.mark.parametrize("between, plants", [("nop", 1),
                                                 ("syscall", 0)])
    def test_v1_plant_across(self, between, plants):
        obj = assemble(f"""
                .text
                .globl f
        f:      la      v1, privptr
                addi    v0, zero, 4
                {between}
                la      at, pubseg
                sw      v1, 0(at)
                jr      ra
        """, "plant.o")
        context = LintContext(scope_levels=[[ScopeModule("env", exports={
            "pubseg": 0x3000_0100, "privptr": 0x1000_0040})]])
        report = analyze_object(obj, context, only=["sanitize"])
        assert report.count("SAN001") == plants


# ---------------------------------------------------------------------------
# relocation checks on real toolchain output
# ---------------------------------------------------------------------------


class TestRelocationsOnRealObjects:
    def test_clean_hi_lo_pair_not_flagged(self):
        obj = assemble("""
            .text
            .globl fn
        fn:
            la t0, counter
            lw v0, 0(t0)
            jr ra
            .data
            .globl counter
        counter: .word 0
        """, "m.o")
        report = analyze_object(obj)
        assert report.count("REL001") == 0
        assert report.count("REL002") == 0

    @pytest.mark.parametrize("source,name", [
        (MAIN_CALLS_SHARED, "main.o"),
        (SHARED_MODULE, "shared.o"),
    ])
    def test_far_jump_agreement_on_assembly(self, source, name):
        obj = assemble(source, name)
        report = analyze_object(obj)
        assert report.count("REL004") == \
            count_far_jumps(obj, not_defined_in(obj))

    def test_far_jump_agreement_on_toyc_modules(self):
        """Satellite: REL004 == count_far_jumps on toyc-built modules."""
        objects = [
            compile_source(SHARED_DATA_SOURCE.format(nitems=4),
                           "shared_data.o"),
            compile_source(WORKER_SOURCE.format(nitems=4), "worker.o"),
        ]
        flagged_any = False
        for obj in objects:
            report = analyze_object(obj)
            expected = count_far_jumps(obj, not_defined_in(obj))
            assert report.count("REL004") == expected, obj.name
            flagged_any = flagged_any or expected > 0
        # The worker calls extern semaphore routines, so the cross-check
        # exercised a non-zero count.
        assert flagged_any


# ---------------------------------------------------------------------------
# symbol audit over real scope-chain shapes (fixtures from
# test_linker_scoped: the same DAGs scope_chain itself is tested on)
# ---------------------------------------------------------------------------


def levels_from_diamond():
    leaf, left, right, root = diamond()
    def scope(module):
        return ScopeModule(module.name, exports=module.exports())
    return [
        [scope(leaf)],
        [scope(left), scope(right)],
        [scope(root)],
    ]


class TestSymbolAudit:
    def test_duplicate_within_one_level(self):
        obj = assemble(".text\n.globl f\nf:\njr ra", "m.o")
        context = LintContext(scope_levels=levels_from_diamond())
        report = analyze_object(obj, context, only=["symbols"])
        dups = report.by_code("SYM002")
        assert len(dups) == 1 and dups[0].symbol == "dup"

    def test_own_definition_shadows_outer_export(self):
        obj = assemble(".text\n.globl deep\ndeep:\njr ra", "m.o")
        context = LintContext(scope_levels=levels_from_diamond())
        report = analyze_object(obj, context, only=["symbols"])
        shadows = report.by_code("SYM003")
        assert any(f.symbol == "deep" for f in shadows)

    def test_unresolved_only_in_closed_world(self):
        obj = assemble(
            ".text\n.globl f\nf:\njal nowhere\njr ra", "m.o"
        )
        levels = levels_from_diamond()
        open_world = LintContext(scope_levels=levels)
        assert analyze_object(
            obj, open_world, only=["symbols"]
        ).count("SYM001") == 0
        closed = LintContext(scope_levels=levels, closed_world=True)
        report = analyze_object(obj, closed, only=["symbols"])
        assert [f.symbol for f in report.by_code("SYM001")] == ["nowhere"]

    def test_unknown_module_disarms_closed_world(self):
        obj = assemble(
            ".text\n.globl f\nf:\njal nowhere\njr ra", "m.o"
        )
        levels = levels_from_diamond()
        levels[1].append(ScopeModule("mystery", exports=None))
        context = LintContext(scope_levels=levels, closed_world=True)
        assert analyze_object(
            obj, context, only=["symbols"]
        ).count("SYM001") == 0


# ---------------------------------------------------------------------------
# clean in-tree builds produce zero errors end to end
# ---------------------------------------------------------------------------


class TestCleanBuilds:
    def test_static_link_executable_and_template_lint_clean(
            self, system, kernel, shell, dirs):
        put(kernel, shell, "/src/main.o", MAIN_CALLS_SHARED)
        put(kernel, shell, "/src/shared.o", SHARED_MODULE)
        system.lds.link(
            shell,
            [LinkRequest("/src/main.o"), LinkRequest("/src/shared.o")],
            output="/bin/a",
            verify=True,  # the gate itself must pass
        )
        out = reprolint_main(kernel, shell,
                             ["--strict", "/bin/a", "/src/main.o",
                              "/src/shared.o"])
        assert "0 error" in out

    def test_dynamic_public_segment_lints_clean(self, system, kernel,
                                                shell, dirs):
        put(kernel, shell, "/shared/lib/shared.o", SHARED_MODULE)
        put(kernel, shell, "/src/main.o", MAIN_CALLS_SHARED)
        result = system.lds.link(
            shell,
            [LinkRequest("/src/main.o"),
             LinkRequest("shared.o", SharingClass.DYNAMIC_PUBLIC)],
            output="/src/main",
            search_dirs=["/shared/lib"],
            verify=True,
        )
        proc = kernel.create_machine_process("p", result.executable)
        assert kernel.run_until_exit(proc) == 5
        # The run created the public segment; lint it as a file.
        out = reprolint_main(kernel, shell,
                             ["--strict", "/shared/lib/shared"])
        assert "0 error" in out


# ---------------------------------------------------------------------------
# the lds gate
# ---------------------------------------------------------------------------


class TestLdsGate:
    def test_broken_link_raises_and_writes_nothing(self, system, kernel,
                                                   shell, dirs):
        put(kernel, shell, "/src/broken.o", BROKEN_MAIN)
        with pytest.raises(LintError) as err:
            system.lds.link(shell, [LinkRequest("/src/broken.o")],
                            output="/bin/broken", verify=True)
        assert any("CFG002" in line for line in err.value.findings)
        assert not kernel.vfs.exists("/bin/broken")

    def test_gate_off_by_default(self, system, kernel, shell, dirs):
        put(kernel, shell, "/src/broken.o", BROKEN_MAIN)
        with Session().run():
            system.lds.link(shell, [LinkRequest("/src/broken.o")],
                            output="/bin/broken")
        assert kernel.vfs.exists("/bin/broken")

    def test_env_variable_arms_the_gate(self):
        with Session.from_env({"REPRO_LINT": "1"}).run():
            system = boot()
            kernel = system.kernel
            shell = make_shell(kernel)
            kernel.vfs.makedirs("/src")
            kernel.vfs.makedirs("/bin")
            put(kernel, shell, "/src/broken.o", BROKEN_MAIN)
            with pytest.raises(LintError):
                system.lds.link(shell, [LinkRequest("/src/broken.o")],
                                output="/bin/broken")

    def test_explicit_off_overrides_env(self):
        with Session.from_env({"REPRO_LINT": "1"}).run():
            system = boot()
            kernel = system.kernel
            shell = make_shell(kernel)
            kernel.vfs.makedirs("/src")
            kernel.vfs.makedirs("/bin")
            put(kernel, shell, "/src/broken.o", BROKEN_MAIN)
            system.lds.link(shell, [LinkRequest("/src/broken.o")],
                            output="/bin/broken", verify=False)
        assert kernel.vfs.exists("/bin/broken")


# ---------------------------------------------------------------------------
# the ldl gates
# ---------------------------------------------------------------------------


COUNTER = """
        .text
        .globl bump
bump:
        la t0, counter
        lw v0, 0(t0)
        addi t1, v0, 1
        sw t1, 0(t0)
        jr ra
        .data
        .globl counter
counter: .word 0
"""


def bootstrap_ldl(kernel, shell, verify):
    ldl = Ldl(kernel, shell, verify=verify)
    root = ObjectFile("root", ObjectKind.EXECUTABLE)
    root.link_info.search_path = ["/shared/lib"]
    ldl.bootstrap(root)
    return ldl


class TestLdlGate:
    def test_clean_public_module_passes(self, kernel, shell, dirs):
        put(kernel, shell, "/shared/lib/counter.o", COUNTER)
        ldl = bootstrap_ldl(kernel, shell, verify=True)
        module = ldl.ensure_module("counter.o",
                                   SharingClass.DYNAMIC_PUBLIC, ldl.root)
        assert module.path == "/shared/lib/counter"

    def test_corrupt_public_meta_refused_before_mapping(self, kernel,
                                                        shell, dirs):
        put(kernel, shell, "/shared/lib/counter.o", COUNTER)
        creator = bootstrap_ldl(kernel, make_shell(kernel), verify=False)
        creator.ensure_module("counter.o", SharingClass.DYNAMIC_PUBLIC,
                              creator.root)
        # Corrupt the on-disk metadata the way a buggy tool would: a
        # JUMP26 retained in a placed image can never be resolved
        # in-region (REL005).
        meta, _base, _length = read_segment_meta(
            kernel, shell, "/shared/lib/counter")
        meta.relocations.append(
            Relocation(SEC_TEXT, 0, RelocType.JUMP26, "faraway"))
        update_segment_meta(kernel, shell, "/shared/lib/counter", meta)

        victim = bootstrap_ldl(kernel, make_shell(kernel), verify=True)
        with pytest.raises(LintError) as err:
            victim.ensure_module("counter.o",
                                 SharingClass.DYNAMIC_PUBLIC, victim.root)
        assert any("REL005" in line for line in err.value.findings)
        # An unverified ldl still maps it (the gate, not the mapper,
        # is what refused).
        tolerant = bootstrap_ldl(kernel, make_shell(kernel), verify=False)
        module = tolerant.ensure_module(
            "counter.o", SharingClass.DYNAMIC_PUBLIC, tolerant.root)
        assert module is not None

    def test_broken_private_template_refused(self, kernel, shell, dirs):
        # A template whose LO16 reloc was dropped: the surviving HI16
        # half can never be patched coherently (REL001).
        obj = assemble(COUNTER, "bad.o")
        obj.relocations = [r for r in obj.relocations
                           if r.type is not RelocType.LO16]
        del obj.symbols["counter"]  # keep the HI16 target unresolved
        store_object(kernel, shell, "/shared/lib/bad.o", obj)
        ldl = bootstrap_ldl(kernel, shell, verify=True)
        with pytest.raises(LintError) as err:
            ldl.ensure_module("bad.o", SharingClass.DYNAMIC_PRIVATE,
                              ldl.root)
        assert any("REL001" in line for line in err.value.findings)

    def test_clean_private_module_passes(self, kernel, shell, dirs):
        put(kernel, shell, "/shared/lib/counter.o", COUNTER)
        ldl = bootstrap_ldl(kernel, shell, verify=True)
        module = ldl.ensure_module("counter.o",
                                   SharingClass.DYNAMIC_PRIVATE, ldl.root)
        assert module is not None


# ---------------------------------------------------------------------------
# the gate is free in simulated time
# ---------------------------------------------------------------------------


class TestGateCycleNeutrality:
    def _run_workload(self, verify):
        system = boot(verify=verify)
        kernel = system.kernel
        shell = make_shell(kernel)
        kernel.vfs.makedirs("/shared/lib")
        kernel.vfs.makedirs("/src")
        put(kernel, shell, "/shared/lib/shared.o", SHARED_MODULE)
        put(kernel, shell, "/src/main.o", MAIN_CALLS_SHARED)
        result = system.lds.link(
            shell,
            [LinkRequest("/src/main.o"),
             LinkRequest("shared.o", SharingClass.DYNAMIC_PUBLIC)],
            output="/src/main",
            search_dirs=["/shared/lib"],
        )
        proc = kernel.create_machine_process("p", result.executable)
        assert kernel.run_until_exit(proc) == 5
        return kernel.clock.cycles, dict(kernel.clock.by_category)

    def test_verification_charges_zero_cycles(self):
        cycles_off, categories_off = self._run_workload(verify=False)
        cycles_on, categories_on = self._run_workload(verify=True)
        assert cycles_on == cycles_off  # bit-identical simulated time
        assert categories_on == categories_off


# ---------------------------------------------------------------------------
# the reprolint CLI
# ---------------------------------------------------------------------------


class TestReprolintCli:
    def test_lints_a_template(self, kernel, shell, dirs):
        put(kernel, shell, "/src/main.o", MAIN_CALLS_SHARED)
        out = reprolint_main(kernel, shell, ["/src/main.o"])
        assert "/src/main.o" in out
        assert "REL004" in out  # the advisory far-call note

    def test_quiet_hides_info_findings(self, kernel, shell, dirs):
        put(kernel, shell, "/src/main.o", MAIN_CALLS_SHARED)
        out = reprolint_main(kernel, shell, ["--quiet", "/src/main.o"])
        assert "REL004" not in out.splitlines()[0]
        assert "finding(s)" in out

    def test_strict_tolerates_info(self, kernel, shell, dirs):
        put(kernel, shell, "/src/main.o", MAIN_CALLS_SHARED)
        reprolint_main(kernel, shell, ["--strict", "/src/main.o"])

    def test_error_finding_raises(self, kernel, shell, dirs):
        obj = assemble(COUNTER, "bad.o")
        obj.relocations = [r for r in obj.relocations
                           if r.type is not RelocType.LO16]
        store_object(kernel, shell, "/src/bad.o", obj)
        with pytest.raises(LintError):
            reprolint_main(kernel, shell, ["/src/bad.o"])

    def test_only_restricts_categories(self, kernel, shell, dirs):
        obj = assemble(COUNTER, "bad.o")
        obj.relocations = [r for r in obj.relocations
                           if r.type is not RelocType.LO16]
        store_object(kernel, shell, "/src/bad.o", obj)
        # The defect is a relocation defect; skipping that category
        # passes, selecting it fails.
        reprolint_main(kernel, shell,
                       ["--only", "symbols,layout", "/src/bad.o"])
        with pytest.raises(LintError):
            reprolint_main(kernel, shell,
                           ["--only", "relocations", "/src/bad.o"])

    def test_lints_archive_members(self, kernel, shell, dirs):
        archive = Archive("lib.a")
        archive.add(assemble(SHARED_MODULE, "shared.o"))
        archive.add(assemble(MAIN_CALLS_SHARED, "main.o"))
        kernel.vfs.write_whole("/src/lib.a", archive.to_bytes(),
                               shell.uid)
        out = reprolint_main(kernel, shell, ["/src/lib.a"])
        assert "REL004" in out  # main.o's far call, found inside the .a

    def test_lints_segment_file(self, kernel, shell, dirs):
        put(kernel, shell, "/shared/lib/counter.o", COUNTER)
        ldl = bootstrap_ldl(kernel, shell, verify=False)
        ldl.ensure_module("counter.o", SharingClass.DYNAMIC_PUBLIC,
                          ldl.root)
        out = reprolint_main(kernel, shell,
                             ["--strict", "/shared/lib/counter"])
        assert "0 error" in out

    def test_usage_errors(self, kernel, shell, dirs):
        with pytest.raises(UsageError):
            reprolint_main(kernel, shell, [])
        with pytest.raises(UsageError):
            reprolint_main(kernel, shell,
                           ["--only", "nonsense", "/src/x.o"])

    def test_non_object_file_rejected(self, kernel, shell, dirs):
        kernel.vfs.write_whole("/src/notes.txt", b"hello world, no magic",
                               shell.uid)
        with pytest.raises(LinkError):
            reprolint_main(kernel, shell, ["/src/notes.txt"])
