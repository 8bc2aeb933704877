"""Kernel tests: clock, processes, scheduling, faults, termination."""

import pytest

from repro.errors import KernelError, NoSuchProcessError
from repro.hw.asm import assemble
from repro.kernel.kernel import Kernel
from repro.kernel.process import ProcessState
from repro.kernel.signals import Signal
from repro.kernel.timing import Clock, CostModel
from repro.linker.baseline_ld import link_static
from repro.runtime.libshared import attach_runtime
from repro.session import Session
from repro.vm.faults import AccessKind, PageFaultError


class TestClock:
    def test_categories_accumulate(self):
        clock = Clock()
        clock.syscall()
        clock.syscall()
        clock.copy(100)
        assert clock.by_category["syscalls"] == 2 * clock.costs.syscall
        assert clock.by_category["copies"] == 25
        assert clock.cycles == clock.by_category["syscalls"] + 25

    def test_copy_rounds_up_to_words(self):
        clock = Clock()
        clock.copy(1)
        assert clock.by_category["copies"] == 1

    def test_report_mentions_categories(self):
        clock = Clock()
        clock.page_fault()
        assert "faults" in clock.report()

    def test_custom_cost_model(self):
        clock = Clock(CostModel(syscall=7))
        clock.syscall()
        assert clock.cycles == 7


def _exit_program(code):
    source = f"""
        .text
        .globl main
    main:
        li v0, {code}
        jr ra
    """
    return link_static([assemble(source, "main.o")])


class TestProcesses:
    def test_machine_process_runs_to_exit(self):
        kernel = Kernel()
        proc = kernel.create_machine_process("p", _exit_program(7))
        assert kernel.run_until_exit(proc) == 7
        assert proc.state is ProcessState.ZOMBIE

    def test_pids_are_unique_and_increasing(self):
        kernel = Kernel()
        a = kernel.create_machine_process("a", _exit_program(0))
        b = kernel.create_machine_process("b", _exit_program(0))
        assert b.pid == a.pid + 1

    def test_process_lookup(self):
        kernel = Kernel()
        proc = kernel.create_machine_process("p", _exit_program(0))
        assert kernel.process(proc.pid) is proc
        with pytest.raises(NoSuchProcessError):
            kernel.process(999)

    def test_native_process_result(self):
        kernel = Kernel()

        def body(_kernel, proc):
            proc.stdout.extend(b"hi")
            yield
            return 42

        proc = kernel.create_native_process("n", body)
        assert kernel.run_until_exit(proc) == 0
        assert proc.native.result == 42
        assert proc.stdout_text() == "hi"

    def test_native_process_error_terminates(self):
        kernel = Kernel()

        def body(_kernel, _proc):
            yield
            raise_error()

        def raise_error():
            from repro.errors import SyscallError

            raise SyscallError("ENOENT", "synthetic")

        proc = kernel.create_native_process("n", body)
        kernel.run_until_exit(proc)
        assert proc.exit_code == -1
        assert "ENOENT" in proc.death_reason

    def test_schedule_runs_everything(self):
        kernel = Kernel()
        procs = [kernel.create_machine_process(f"p{i}", _exit_program(i))
                 for i in range(5)]
        kernel.schedule()
        assert [p.exit_code for p in procs] == list(range(5))

    def test_round_robin_interleaves(self):
        kernel = Kernel()
        order = []

        def make_body(tag):
            def body(_kernel, _proc):
                for _ in range(3):
                    order.append(tag)
                    yield
            return body

        kernel.create_native_process("a", make_body("a"))
        kernel.create_native_process("b", make_body("b"))
        kernel.schedule()
        assert order[:4] == ["a", "b", "a", "b"]

    def test_terminate_releases_memory(self):
        kernel = Kernel()
        proc = kernel.create_machine_process("p", _exit_program(0))
        assert kernel.physmem.allocated > 0
        kernel.run_until_exit(proc)
        assert kernel.physmem.allocated == 0


class TestFaults:
    def test_unhandled_fault_kills(self):
        source = """
            .text
            .globl main
        main:
            li t0, 0x20000000
            lw t1, 0(t0)
            jr ra
        """
        kernel = Kernel()
        image = link_static([assemble(source, "m.o")])
        proc = kernel.create_machine_process("p", image)
        kernel.run_until_exit(proc)
        assert proc.exit_code == -1
        assert "SIGSEGV" in proc.death_reason
        assert "0x20000000" in proc.death_reason

    def test_handler_resolves_and_restarts(self):
        source = """
            .text
            .globl main
        main:
            li t0, 0x20000000
            lw t1, 0(t0)
            move v0, t1
            jr ra
        """
        kernel = Kernel()
        image = link_static([assemble(source, "m.o")])
        proc = kernel.create_machine_process("p", image)

        def handler(process, info):
            if info.address != 0x20000000:
                return False
            process.address_space.map(0x20000000, 4096, prot=0x7)
            process.address_space.store_word(0x20000000, 123, force=True)
            return True

        proc.push_handler(Signal.SIGSEGV, handler)
        assert kernel.run_until_exit(proc) == 123

    def test_handler_chain_order(self):
        kernel = Kernel()
        proc = kernel.create_machine_process("p", _exit_program(0))
        calls = []

        def first(_process, _info):
            calls.append("first")
            return False

        def second(_process, _info):
            calls.append("second")
            return True

        proc.append_handler(Signal.SIGSEGV, first)
        proc.append_handler(Signal.SIGSEGV, second)
        fault = PageFaultError(0x1234, AccessKind.READ, present=False)
        assert kernel.deliver_fault(proc, fault)
        assert calls == ["first", "second"]

    def test_fault_loop_detected(self):
        source = """
            .text
            .globl main
        main:
            li t0, 0x20000000
            lw t1, 0(t0)
            jr ra
        """
        kernel = Kernel()
        image = link_static([assemble(source, "m.o")])
        proc = kernel.create_machine_process("p", image)
        # A handler that claims success but never fixes anything.
        proc.push_handler(Signal.SIGSEGV, lambda _p, _i: True)
        kernel.run_until_exit(proc)
        assert proc.exit_code == -1
        assert "fault loop" in proc.death_reason

    def _redirecting_fault_loop(self, tlb: bool) -> dict:
        """A loop whose body faults after one completed instruction on
        every iteration; the handler restarts the body instead of
        fixing the access, until the counter runs out."""
        source = """
            .text
            .globl main
        main:
            li t0, 100
            li t2, 0x20000000
        top:
            addi t0, t0, -1
            lw t1, 0(t2)
            move v0, t1
            jr ra
        """
        with Session(tlb=tlb).run():
            kernel = Kernel()
            proc = kernel.create_machine_process(
                "p", link_static([assemble(source, "m.o")]))
            faults = []

            def handler(process, info):
                faults.append(info.pc)
                cpu = process.cpu
                if cpu.regs[8]:            # t0: iterations left
                    cpu.pc = info.pc - 4   # back to top
                else:
                    process.address_space.map(0x20000000, 4096, prot=0x7)
                    process.address_space.store_word(0x20000000, 77,
                                                     force=True)
                return True

            proc.push_handler(Signal.SIGSEGV, handler)
            kernel.run_until_exit(proc)
            return {"exit": proc.exit_code, "reason": proc.death_reason,
                    "faults": len(faults),
                    "instructions": proc.cpu.instructions_executed,
                    "cycles": kernel.clock.cycles,
                    "by_category": dict(kernel.clock.by_category)}

    def test_faults_after_progress_do_not_count_as_a_loop(self):
        """Regression: a step that completes instructions and then
        faults made progress, so it resets the fault streak. Otherwise
        a translated loop body that faults after its first instruction
        would be killed as a fault loop after 64 iterations."""
        translated = self._redirecting_fault_loop(tlb=True)
        interpreted = self._redirecting_fault_loop(tlb=False)
        assert translated["exit"] == 77, translated["reason"]
        assert translated["faults"] == 100
        assert translated == interpreted

    def test_run_with_faults_native(self):
        kernel = Kernel()
        attach_runtime(kernel)

        def body(_kernel, proc):
            proc.address_space.map(0x20000000, 4096, prot=0x7)
            yield
            return None

        proc = kernel.create_native_process("n", body)

        def fixer(process, info):
            process.address_space.store_word(info.address, 55, force=True)
            process.address_space.mprotect(info.address & ~0xFFF, 4096,
                                           0x7)
            return True

        # No mapping at 0x21000000: handler creates one on demand.
        def mapper(process, info):
            process.address_space.map(info.address & ~0xFFF, 4096,
                                      prot=0x7)
            return True

        proc.push_handler(Signal.SIGSEGV, mapper)
        value = kernel.run_with_faults(
            proc, lambda: proc.address_space.load_word(0x21000000)
        )
        assert value == 0
        del fixer

    def test_deadlock_detection(self):
        kernel = Kernel()

        def body(k, proc):
            yield
            k.semaphores.get(1, 0).p(proc)  # blocks forever

        kernel.create_native_process("n", body)
        with pytest.raises(KernelError):
            kernel.schedule()


class TestMachineTraps:
    def test_break_kills(self):
        source = ".text\n.globl main\nmain:\nbreak\n"
        kernel = Kernel()
        proc = kernel.create_machine_process(
            "p", link_static([assemble(source, "m.o")])
        )
        kernel.run_until_exit(proc)
        assert "break" in proc.death_reason

    def test_divide_by_zero_kills(self):
        source = """
            .text
            .globl main
        main:
            li t0, 1
            div t1, t0, zero
            jr ra
        """
        kernel = Kernel()
        proc = kernel.create_machine_process(
            "p", link_static([assemble(source, "m.o")])
        )
        kernel.run_until_exit(proc)
        assert "SIGFPE" in proc.death_reason
