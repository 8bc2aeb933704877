"""Software-TLB semantics: the fast path must be invisible.

The TLB caches vpn -> (frame bytes, effective prot) per address space
and the decoded-instruction cache lives on each frame. Both are pure
host-speed optimizations: every test here checks that no observable
behavior — values read, faults raised, isolation after fork, simulated
cycle totals — differs between TLB on, TLB off, and the pre-TLB seed.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro import boot
from repro.bench.workloads import (
    build_module_fanout,
    fanout_expected_exit,
    make_shell,
)
from repro.hw.asm import assemble
from repro.hw.cpu import Cpu, SyscallTrap
from repro.session import Session
from repro.trace import EventKind, Tracer, set_tracer, tracing
from repro.trace.export import top_report
from repro.vm.address_space import (
    AddressSpace,
    MAP_SHARED,
    PROT_READ,
    PROT_RW,
    PROT_RWX,
)
from repro.vm.faults import PageFaultError
from repro.vm.layout import PAGE_SHIFT, PAGE_SIZE
from repro.vm.pages import MemoryObject, PhysicalMemory

# Seed cycle totals for the E2 workload, captured before the TLB
# existed (same pins as tests/test_trace.py). The TLB must never move
# these — it may only change host wall-clock.
SEED_E2_LAZY_TOTAL = 584_767
SEED_E2_EAGER_TOTAL = 1_614_169

BASE = 0x10000


@pytest.fixture
def pm():
    return PhysicalMemory()


@pytest.fixture
def space(pm):
    return AddressSpace(pm, "tlb-test", tlb_enabled=True)


@pytest.fixture
def tlb_on():
    """Force the process-wide default on (kernel-created address spaces
    follow it), so these tests mean the same under REPRO_TLB=0."""
    with Session(tlb=True).run():
        yield


class TestFastPath:
    def test_load_fills_then_hits(self, space):
        space.map(BASE, PAGE_SIZE, prot=PROT_RW)
        space.store_word(BASE, 0xC0FFEE)
        assert space.tlb_fills == 1
        hits = space.tlb_hits
        assert space.load_word(BASE) == 0xC0FFEE
        assert space.load_word(BASE + 4) == 0
        assert space.tlb_hits == hits + 2
        assert space.tlb_fills == 1          # same page, one entry

    def test_store_fast_path_updates_frame(self, space):
        space.map(BASE, PAGE_SIZE, prot=PROT_RW)
        space.store_word(BASE, 1)            # slow path, fills
        space.store_word(BASE, 2)            # fast path
        assert space.tlb_hits >= 1
        assert space.read_bytes(BASE, 4) == (2).to_bytes(4, "little")

    def test_fetch_requires_exec_in_entry(self, space):
        space.map(BASE, PAGE_SIZE, prot=PROT_RW)
        space.store_word(BASE, 7)            # cached without PROT_EXEC
        with pytest.raises(PageFaultError):
            space.fetch_word(BASE)           # hit must not grant exec

    def test_disabled_tlb_never_fills(self, pm):
        space = AddressSpace(pm, "no-tlb", tlb_enabled=False)
        space.map(BASE, PAGE_SIZE, prot=PROT_RW)
        space.store_word(BASE, 1)
        assert space.load_word(BASE) == 1
        assert not space.tlb
        assert space.tlb_stats() == {
            "hits": 0, "misses": 0, "fills": 0, "invalidations": 0,
            "flushes": 0, "entries": 0,
        }

    def test_toggle_off_flushes(self, space):
        space.map(BASE, PAGE_SIZE, prot=PROT_RW)
        space.store_word(BASE, 1)
        assert space.tlb
        space.set_tlb_enabled(False)
        assert not space.tlb
        assert space.load_word(BASE) == 1    # slow path still works

    def test_default_toggle(self, pm):
        with Session(tlb=False).run():
            assert AddressSpace(pm).tlb_enabled is False
        with Session(tlb=True).run():
            assert AddressSpace(pm).tlb_enabled is True
        assert Session.from_env({"REPRO_TLB": "0"}).tlb is False


class TestInvalidation:
    def test_unmap_drops_cached_translation(self, space):
        space.map(BASE, PAGE_SIZE, prot=PROT_RW)
        space.store_word(BASE, 9)
        space.unmap(BASE, PAGE_SIZE)
        with pytest.raises(PageFaultError):
            space.load_word(BASE)
        assert space.tlb_invalidations >= 1

    def test_mprotect_readonly_faults_cached_write(self, space):
        """The headline coherence bug the TLB must not introduce: a
        writable translation cached before mprotect(PROT_READ) must not
        let a later store slip past the new protection."""
        space.map(BASE, PAGE_SIZE, prot=PROT_RW)
        space.store_word(BASE, 1)            # warm writable entry
        space.mprotect(BASE, PAGE_SIZE, PROT_READ)
        with pytest.raises(PageFaultError) as info:
            space.store_word(BASE, 2)
        assert info.value.present is True
        assert space.load_word(BASE) == 1    # reads still fine

    def test_mprotect_partial_range_precision(self, space):
        space.map(BASE, 4 * PAGE_SIZE, prot=PROT_RW)
        for page in range(4):
            space.store_word(BASE + page * PAGE_SIZE, page)
        space.mprotect(BASE + PAGE_SIZE, PAGE_SIZE, PROT_READ)
        space.store_word(BASE, 10)           # untouched page still cached
        with pytest.raises(PageFaultError):
            space.store_word(BASE + PAGE_SIZE, 11)

    def test_fork_isolates_despite_warm_parent_tlb(self, pm):
        """A writable parent translation cached before fork must not let
        a post-fork store leak into the COW-sharing child."""
        parent = AddressSpace(pm, "parent", tlb_enabled=True)
        parent.map(BASE, PAGE_SIZE, prot=PROT_RW)
        parent.store_word(BASE, 111)
        parent.store_word(BASE, 111)         # ensure warm, writable entry
        assert parent.tlb_hits >= 1
        child = parent.fork("child")
        parent.store_word(BASE, 222)         # must COW-break, not leak
        assert child.load_word(BASE) == 111
        child.store_word(BASE, 333)
        assert parent.load_word(BASE) == 222

    def test_child_cow_entry_is_write_protected(self, pm):
        parent = AddressSpace(pm, "parent", tlb_enabled=True)
        parent.map(BASE, PAGE_SIZE, prot=PROT_RW)
        parent.store_word(BASE, 5)
        child = parent.fork("child")
        assert child.load_word(BASE) == 5    # warms child entry (COW, r/o)
        child.store_word(BASE, 6)            # slow path, breaks COW
        assert parent.load_word(BASE) == 5

    def test_shared_mapping_stays_coherent(self, pm):
        mo = MemoryObject(pm, size=PAGE_SIZE, name="seg")
        a = AddressSpace(pm, "a", tlb_enabled=True)
        b = AddressSpace(pm, "b", tlb_enabled=True)
        for s in (a, b):
            s.map(BASE, PAGE_SIZE, memobj=mo, prot=PROT_RW,
                  flags=MAP_SHARED)
        a.store_word(BASE, 1)
        assert b.load_word(BASE) == 1        # both now cached
        a.store_word(BASE, 2)                # fast path in a
        assert b.load_word(BASE) == 2        # b's entry aliases the frame
        mo.write(0, (3).to_bytes(4, "little"))
        assert a.load_word(BASE) == 3        # file writes too

    def test_truncate_invalidates_watchers(self, pm):
        mo = MemoryObject(pm, size=2 * PAGE_SIZE, name="file")
        space = AddressSpace(pm, "m", tlb_enabled=True)
        space.map(BASE, 2 * PAGE_SIZE, memobj=mo, prot=PROT_RW,
                  flags=MAP_SHARED)
        space.store_word(BASE + PAGE_SIZE, 0xAA)   # warm page 1
        vpn = (BASE + PAGE_SIZE) >> PAGE_SHIFT
        assert vpn in space.tlb
        flushes = space.tlb_flushes
        mo.truncate(PAGE_SIZE)               # frees page 1's frame
        assert vpn not in space.tlb          # watcher was flushed
        assert space.tlb_flushes == flushes + 1

    def test_replace_page_invalidates_watchers(self, pm):
        mo = MemoryObject(pm, size=PAGE_SIZE, name="file")
        space = AddressSpace(pm, "m", tlb_enabled=True)
        space.map(BASE, PAGE_SIZE, memobj=mo, prot=PROT_RW,
                  flags=MAP_SHARED)
        space.store_word(BASE, 1)
        mo.replace_page(0, pm.alloc((42).to_bytes(4, "little")))
        # The cached translation named the old frame; it must be gone.
        assert (BASE >> PAGE_SHIFT) not in space.tlb


TEXT = 0x1000


def _bare_cpu(source: str, pm=None):
    obj = assemble(source)
    pm = pm or PhysicalMemory()
    space = AddressSpace(pm, "smc", tlb_enabled=True)
    space.map(TEXT, PAGE_SIZE, prot=PROT_RWX)
    space.write_bytes(TEXT, bytes(obj.text))
    cpu = Cpu(space)
    cpu.pc = TEXT
    return cpu, space


class TestSelfModifyingText:
    def test_patched_text_redecodes(self):
        """The ldl path: text that already executed (so its decode cache
        is warm) is patched in place via the kernel's force-write; the
        next execution must see the new instructions."""
        cpu, space = _bare_cpu(".text\nli t0, 1\nsyscall")
        with pytest.raises(SyscallTrap):
            cpu.run(10)
        assert cpu.regs[8] == 1
        frame = space.tlb[TEXT >> PAGE_SHIFT][2]
        assert frame.decode                  # cache is warm
        patched = assemble(".text\nli t0, 2\nsyscall")
        space.write_bytes(TEXT, bytes(patched.text), force=True)
        assert not frame.decode              # write cleared it
        cpu.pc = TEXT
        with pytest.raises(SyscallTrap):
            cpu.run(10)
        assert cpu.regs[8] == 2

    def test_store_word_patch_redecodes(self):
        """Word-granular patching (patch_reloc_in_memory / PLT slot
        fixups use store_word(force=True)) must also invalidate."""
        cpu, space = _bare_cpu(".text\nli t0, 1\nsyscall")
        with pytest.raises(SyscallTrap):
            cpu.run(10)
        word = int.from_bytes(
            bytes(assemble(".text\nli t0, 7").text[:4]), "little")
        space.store_word(TEXT, word, force=True)
        cpu.pc = TEXT
        with pytest.raises(SyscallTrap):
            cpu.run(10)
        assert cpu.regs[8] == 7

    def test_lazy_link_plt_patching_end_to_end(self, tlb_on):
        """Full stack: lazy linking patches PLT jump slots in mapped text
        at fault time, then re-executes them. With the TLB and decode
        cache on, the run must still produce the right exit code — and
        must actually have exercised the caches."""
        system = boot(lazy=True)
        kernel = system.kernel
        shell = make_shell(kernel)
        graph = build_module_fanout(kernel, shell, width=4, used=3,
                                    module_dir="/shared/fan")
        proc = kernel.create_machine_process("p", graph.executable)
        code = kernel.run_until_exit(proc)
        assert code == fanout_expected_exit(3)
        space = proc.address_space
        assert space.tlb_hits > 0
        # The workload is link-dominated (few repeated pcs), but every
        # decoded instruction went through the cache — and the PLT
        # patches forced re-decodes rather than stale hits.
        assert proc.cpu.decode_misses > 0

    def test_kernel_loop_hits_decode_cache(self, tlb_on):
        """A looping machine process must actually reuse decoded
        instructions across iterations."""
        system = boot()
        kernel = system.kernel
        shell = make_shell(kernel)
        from repro.linker.lds import LinkRequest, store_object
        obj = assemble("""
            .text
            .globl main
        main:
            li t0, 50
            move v0, zero
        loop:
            add v0, v0, t0
            addi t0, t0, -1
            bgtz t0, loop
            andi v0, v0, 0xFF
            jr ra
        """, "loop.o")
        store_object(kernel, shell, "/loop.o", obj)
        result = system.lds.link(shell, [LinkRequest("/loop.o")],
                                 output="/loop")
        proc = kernel.create_machine_process("loop", result.executable)
        code = kernel.run_until_exit(proc)
        assert code == (50 * 51 // 2) & 0xFF
        assert proc.cpu.decode_hits > 100
        assert proc.address_space.tlb_hits > 100


class _FakeClock:
    def __init__(self) -> None:
        self.cycles = 0


class TestStatsAndTrace:
    def test_flush_emits_trace_event(self, space):
        tracer = Tracer(_FakeClock())
        set_tracer(tracer)
        try:
            space.map(BASE, PAGE_SIZE, prot=PROT_RW)
            space.store_word(BASE, 1)
            space.tlb_flush("test")
        finally:
            set_tracer(None)
        (event,) = [e for e in tracer.events()
                    if e.kind is EventKind.TLB]
        assert event.name == "flush:test"
        assert event.value == 1

    def test_destroy_publishes_counters(self, space):
        space.map(BASE, PAGE_SIZE, prot=PROT_RW)
        space.store_word(BASE, 1)
        space.load_word(BASE)
        tracer = Tracer(_FakeClock())
        set_tracer(tracer)
        try:
            space.destroy()
        finally:
            set_tracer(None)
        names = {e.name: e.value for e in tracer.events()}
        assert names["tlb:hits"] == space.tlb_hits
        assert names["tlb:fills"] == space.tlb_fills

    def test_top_report_has_tlb_section(self):
        """The reprotrace top-N report aggregates the TLB counters the
        address spaces publish when they are destroyed."""
        with Session(tlb=True).run():
            system = boot()
            with tracing(system.kernel) as tracer:
                kernel = system.kernel
                shell = make_shell(kernel)
                graph = build_module_fanout(kernel, shell, width=3,
                                            used=2,
                                            module_dir="/shared/fan")
                proc = kernel.create_machine_process(
                    "p", graph.executable)
                kernel.run_until_exit(proc)
        report = top_report(tracer, top=5)
        assert "software-TLB traffic" in report
        assert "tlb:hits" in report


class TestCycleIdentity:
    """The TLB must be invisible to the deterministic clock — totals
    pinned to the pre-TLB seed, with the TLB forced on and forced off."""

    def _run_fanout(self, lazy: bool) -> int:
        system = boot(lazy=lazy)
        kernel = system.kernel
        shell = make_shell(kernel)
        graph = build_module_fanout(kernel, shell, width=12, used=1,
                                    module_dir="/shared/fan")
        start = kernel.clock.snapshot()
        proc = kernel.create_machine_process("p", graph.executable)
        code = kernel.run_until_exit(proc)
        total = kernel.clock.delta(start)
        assert code == fanout_expected_exit(1)
        return total

    @pytest.mark.parametrize("enabled", [True, False])
    def test_e2_totals_match_seed(self, enabled):
        with Session(tlb=enabled).run():
            assert self._run_fanout(lazy=True) == SEED_E2_LAZY_TOTAL
            assert self._run_fanout(lazy=False) == SEED_E2_EAGER_TOTAL


# A mirrored-pair property test: drive one TLB-enabled and one
# TLB-disabled address space through the same operation sequence and
# demand identical observable behavior (values, faults) at every step.

_PAGES = 4
_OPS = st.one_of(
    st.tuples(st.just("map"), st.integers(0, _PAGES - 1)),
    st.tuples(st.just("unmap"), st.integers(0, _PAGES - 1)),
    st.tuples(st.just("protect_ro"), st.integers(0, _PAGES - 1)),
    st.tuples(st.just("protect_rw"), st.integers(0, _PAGES - 1)),
    st.tuples(st.just("store"), st.integers(0, _PAGES * PAGE_SIZE // 4 - 1),
              st.integers(0, 0xFFFFFFFF)),
    st.tuples(st.just("load"), st.integers(0, _PAGES * PAGE_SIZE // 4 - 1)),
    st.tuples(st.just("fork_write"), st.integers(0, _PAGES - 1)),
)


class _Mirror:
    """One side of the pair: an address space plus its fork children."""

    def __init__(self, enabled: bool) -> None:
        self.pm = PhysicalMemory()
        self.space = AddressSpace(self.pm, "mirror", tlb_enabled=enabled)
        self.mapped = set()

    def apply(self, op):
        space = self.space
        kind = op[0]
        try:
            if kind == "map":
                space.map(BASE + op[1] * PAGE_SIZE, PAGE_SIZE,
                          prot=PROT_RW)
                self.mapped.add(op[1])
            elif kind == "unmap":
                space.unmap(BASE + op[1] * PAGE_SIZE, PAGE_SIZE)
                self.mapped.discard(op[1])
            elif kind == "protect_ro":
                space.mprotect(BASE + op[1] * PAGE_SIZE, PAGE_SIZE,
                               PROT_READ)
            elif kind == "protect_rw":
                space.mprotect(BASE + op[1] * PAGE_SIZE, PAGE_SIZE,
                               PROT_RW)
            elif kind == "store":
                space.store_word(BASE + op[1] * 4, op[2])
            elif kind == "load":
                return ("value", space.load_word(BASE + op[1] * 4))
            elif kind == "fork_write":
                child = space.fork()
                child.store_word(BASE + op[1] * PAGE_SIZE, 0xDEAD)
                snap = child.read_bytes(BASE + op[1] * PAGE_SIZE, 8)
                child.destroy()
                return ("child", snap)
        except (PageFaultError, Exception) as exc:
            return ("raise", type(exc).__name__)
        return ("ok",)

    def snapshot(self):
        out = []
        for page in sorted(self.mapped):
            out.append(self.space.read_bytes(
                BASE + page * PAGE_SIZE, PAGE_SIZE, force=True))
        return out


class TestMirrorProperty:
    @settings(max_examples=60, deadline=None)
    @given(st.lists(_OPS, max_size=40))
    def test_tlb_on_off_equivalence(self, ops):
        on, off = _Mirror(True), _Mirror(False)
        for op in ops:
            assert on.apply(op) == off.apply(op)
        assert on.snapshot() == off.snapshot()
        assert not (set(on.space.tlb) -
                    {BASE // PAGE_SIZE + p for p in range(_PAGES)})
