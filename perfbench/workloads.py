"""The four benchmark workloads.

Each workload turns ``--seed`` into inputs on the host, then drives the
simulator only through public entry points:

* ``setup()`` boots and prepares a fresh machine (timed as ``setup_s``);
* ``run(state)`` is the timed phase (``run_s``);
* ``exact(state)`` reads the exact outputs pinned for the default seed;
* ``check(state, reference)`` judges the outputs afterwards and returns
  a list of problems;
* ``oracle()`` runs once per benchmark run, outside any timing, and
  returns the *reference* an independent implementation gives (or
  ``None``).

Every workload is a closed loop with one client: the runner starts the
next repetition only after the previous one ended. ``tiny=True`` shrinks
each workload for the self-test; the timed figures use the full sizes.
"""

from __future__ import annotations

import random
from types import SimpleNamespace
from typing import Dict, List, Optional

from repro import boot
from repro.apps.presto import PrestoApp
from repro.apps.rwho.cluster import run_cluster_rwho, synth_statuses
from repro.bench.workloads import fanout_expected_exit, make_shell
from repro.disk import BlockDevice
from repro.disk.fsck import fsck
from repro.hw.asm import assemble
from repro.linker.classes import SharingClass
from repro.linker.lds import Lds, LinkRequest, store_object
from repro.net import Cluster
from repro.toyc import compile_source

_MAIN_HEAD = """
        .text
        .globl  main
main:
        addi    sp, sp, -8
        sw      ra, 0(sp)
        move    s0, zero
"""

_MAIN_TAIL = """        move    v0, s0
        lw      ra, 0(sp)
        addi    sp, sp, 8
        jr      ra
"""


def _main_source(callees: List[str]) -> str:
    """``main`` calls each of *callees* in order and returns the sum."""
    calls = "".join(f"        jal     {name}\n        add     s0, s0, v0\n"
                    for name in callees)
    return _MAIN_HEAD + calls + _MAIN_TAIL


class Workload:
    name = ""
    why = ""

    def kernels(self, state) -> list:
        return [state.kernel]

    def sim_cycles(self, state, work: int) -> int:
        """The workload's simulated time; by default its total work."""
        return work

    def exact(self, state) -> Dict[str, object]:
        """Exact per-seed outputs of the timed phase (read before
        ``check``), pinned for the default seed."""
        return {}

    def oracle(self):
        return None


class Fanout(Workload):
    """The E2 module fanout on a volatile lazy boot (link-bound)."""

    name = "fanout"
    why = ("E2 fanout, width 64 used 64, lazy boot: link-bound "
           "(linker, objfile parses, fs reads), almost no ISA work")
    module_dir = "/shared/fan"
    build_dir = "/usr/fanout"

    def __init__(self, seed: int, tiny: bool = False) -> None:
        self.width = self.used = 8 if tiny else 64
        self.order = list(range(self.used))
        random.Random(seed).shuffle(self.order)

    @staticmethod
    def _module_source(index: int, module_dir: str) -> str:
        return f"""
        .searchdir {module_dir}
        .text
        .globl  func_{index}
func_{index}:
        addi    sp, sp, -8
        sw      ra, 0(sp)
        jal     helper_{index}
        addi    v0, v0, {index}
        lw      ra, 0(sp)
        addi    sp, sp, 8
        jr      ra
"""

    @staticmethod
    def _helper_source(index: int) -> str:
        return f"""
        .text
        .globl  helper_{index}
helper_{index}:
        li      v0, {100 + index}
        jr      ra
"""

    def setup(self):
        kernel = boot(lazy=True).kernel
        shell = make_shell(kernel)
        kernel.vfs.makedirs(self.module_dir, shell.uid)
        kernel.vfs.makedirs(self.build_dir, shell.uid)
        requests = []
        for index in range(self.width):
            store_object(kernel, shell, f"{self.module_dir}/mod{index}.o",
                         assemble(self._module_source(index,
                                                      self.module_dir),
                                  f"mod{index}.o"))
            store_object(kernel, shell,
                         f"{self.module_dir}/helper_{index}.o",
                         assemble(self._helper_source(index),
                                  f"helper_{index}.o"))
            requests.append(LinkRequest(f"mod{index}.o",
                                        SharingClass.DYNAMIC_PUBLIC))
        main_path = f"{self.build_dir}/main.o"
        store_object(kernel, shell, main_path, assemble(
            _main_source([f"func_{index}" for index in self.order]),
            "main.o"))
        result = Lds(kernel).link(
            shell,
            [LinkRequest(main_path, SharingClass.STATIC_PRIVATE)] + requests,
            output=f"{self.build_dir}/main",
            search_dirs=[self.module_dir],
        )
        return SimpleNamespace(kernel=kernel, executable=result.executable)

    def run(self, state) -> None:
        kernel = state.kernel
        proc = kernel.create_machine_process("p", state.executable)
        state.exit = kernel.run_until_exit(proc)

    def check(self, state, reference=None) -> List[str]:
        expected = fanout_expected_exit(self.used)
        if state.exit != expected:
            return [f"exit {state.exit} != expected {expected}"]
        return []

    def exact(self, state):
        return {"exit": state.exit}


class Presto(Workload):
    """E12 Presto on 4 simulated cores (interpreter/VM/SMP-bound)."""

    name = "presto"
    why = ("E12 Presto, 8 workers x 64 items x 600 iterations on 4 cores: "
           "ISA interpreter, VM/TLB and SMP-bound")
    ncores = 4

    def __init__(self, seed: int, tiny: bool = False) -> None:
        # The app has no input to vary without a program change, so the
        # item set is fixed and the seed is unused.
        del seed
        self.nitems = 16 if tiny else 64
        self.nworkers = 2 if tiny else 8
        self.compute_iters = 20 if tiny else 600
        self.full = not tiny

    def setup(self):
        kernel = boot(ncores=self.ncores).kernel
        shell = make_shell(kernel)
        app = PrestoApp(kernel, shell, nitems=self.nitems,
                        compute_iters=self.compute_iters)
        return SimpleNamespace(kernel=kernel, app=app,
                               elapsed=kernel.clock.elapsed)

    def run(self, state) -> None:
        state.result = state.app.run_instance(nworkers=self.nworkers)

    def sim_cycles(self, state, work: int) -> int:
        return state.kernel.clock.elapsed - state.elapsed

    def check(self, state, reference=None) -> List[str]:
        problems = []
        result = state.result
        if result.total != state.app.expected_total():
            problems.append(f"total {result.total} != "
                            f"{state.app.expected_total()}")
        per_worker = tuple(result.per_worker_items)
        if sum(per_worker) != self.nitems:
            problems.append(f"per-worker items {per_worker} do not sum "
                            f"to {self.nitems}")
        if self.full and per_worker != (8,) * 8:
            problems.append(f"per-worker items {per_worker} != (8,)*8")
        return problems

    def exact(self, state):
        return {"total": state.result.total,
                "per_worker": list(state.result.per_worker_items)}


class Rwho(Workload):
    """E10 clustered rwho over the shared-segment implementation."""

    name = "rwho"
    why = ("E10 rwho, 8 nodes, 2048 hosts, shm, readers on 1/3/5/7: "
           "net, coherence and runtime views; no ISA code")
    readers = [1, 3, 5, 7]
    max_rounds = 500_000

    def __init__(self, seed: int, tiny: bool = False) -> None:
        self.nnodes = 4 if tiny else 8
        self.readers = [1, 3] if tiny else list(self.readers)
        self.statuses = synth_statuses(64 if tiny else 2048)
        random.Random(seed).shuffle(self.statuses)
        self.cluster_seed = seed

    def setup(self):
        return SimpleNamespace(cluster=Cluster(self.nnodes,
                                               seed=self.cluster_seed))

    def kernels(self, state) -> list:
        return [machine.kernel for machine in state.cluster.machines]

    def run(self, state) -> None:
        state.result = run_cluster_rwho(state.cluster, self.statuses, "shm",
                                        readers=self.readers,
                                        max_rounds=self.max_rounds)
        state.cluster.shutdown()

    def oracle(self) -> Dict[int, str]:
        """The file implementation's reader outputs for the same fleet:
        an independent path (per-host files and RPCs, no segment)."""
        cluster = Cluster(self.nnodes, seed=self.cluster_seed)
        result = run_cluster_rwho(cluster, self.statuses, "file",
                                  readers=self.readers,
                                  max_rounds=self.max_rounds)
        cluster.shutdown()
        return result["outputs"]

    def check(self, state, reference: Optional[Dict[int, str]] = None
              ) -> List[str]:
        problems = []
        outputs = state.result["outputs"]
        for node in self.readers:
            text = outputs.get(node)
            if text is None:
                problems.append(f"reader {node} produced no output")
                continue
            listed = text.count("\n") + 1
            if listed != len(self.statuses):
                problems.append(f"reader {node} listed {listed} hosts")
            elif reference is not None and text != reference.get(node):
                problems.append(f"reader {node} differs from the file "
                                f"implementation")
        return problems

    def exact(self, state):
        result = state.result
        return {"frames_sent": result["frames_sent"],
                "bytes_sent": result["bytes_sent"],
                "by_kind": dict(sorted(result["by_kind"].items()))}


class Build(Workload):
    """The toolchain write path onto a mounted, journaled disk."""

    name = "build"
    why = ("Toy C compile, assemble and lds link of 64 C + 512 asm modules "
           "onto a journaled disk: toyc, asm, objfile writes, disk")
    src_dir = "/src/build"

    C_SOURCE = """
int ctab_{i}[8];
int cfunc_{i}(int x) {{
    int k;
    int acc = 0;
    for (k = 0; k < 8; k = k + 1) {{
        ctab_{i}[k] = x + k * {i};
        acc = acc + ctab_{i}[k];
    }}
    return acc - 8 * x - 28 * {i} + {i};
}}
"""

    ASM_SOURCE = """
        .text
        .globl  afunc_{i}
afunc_{i}:
        li      v0, {value}
        jr      ra
"""

    def __init__(self, seed: int, tiny: bool = False) -> None:
        ncsrc, nasm = (4, 16) if tiny else (64, 512)
        self.modules = [("c", i) for i in range(ncsrc)] \
            + [("a", i) for i in range(nasm)]
        random.Random(seed).shuffle(self.modules)
        self.device_seed = seed
        # cfunc_i returns i (the loop's sum cancels); afunc_i returns i%7.
        self.expected_exit = sum(i if kind == "c" else i % 7
                                 for kind, i in self.modules)

    def setup(self):
        device = BlockDevice(nblocks=32768, seed=self.device_seed)
        kernel = boot(disk=device).kernel
        shell = make_shell(kernel)
        kernel.vfs.makedirs(self.src_dir, shell.uid)
        return SimpleNamespace(kernel=kernel, shell=shell, device=device)

    def run(self, state) -> None:
        kernel, shell = state.kernel, state.shell
        requests = []
        for kind, index in self.modules:
            name = f"{kind}{index}.o"
            if kind == "c":
                obj = compile_source(self.C_SOURCE.format(i=index), name)
            else:
                obj = assemble(self.ASM_SOURCE.format(i=index,
                                                      value=index % 7), name)
            path = f"{self.src_dir}/{name}"
            store_object(kernel, shell, path, obj)
            requests.append(LinkRequest(path, SharingClass.STATIC_PRIVATE))
        main_path = f"{self.src_dir}/main.o"
        store_object(kernel, shell, main_path, assemble(
            _main_source([f"{kind}func_{index}"
                          for kind, index in self.modules]), "main.o"))
        Lds(kernel).link(
            shell,
            [LinkRequest(main_path, SharingClass.STATIC_PRIVATE)] + requests,
            output=f"{self.src_dir}/prog")
        kernel.shutdown()

    def check(self, state, reference=None) -> List[str]:
        problems = [f"fsck: {finding}" for finding in fsck(state.device)]
        # Recover the image on a fresh machine and run what was linked.
        kernel = boot(disk=state.device).kernel
        proc = kernel.spawn(f"{self.src_dir}/prog")
        state.exit = kernel.run_until_exit(proc)
        if state.exit != self.expected_exit:
            problems.append(f"exit {state.exit} != expected "
                            f"{self.expected_exit}")
        return problems

    def exact(self, state):
        return {"journal_records": state.kernel.disk.journal.records_written,
                "device_writes": state.device.writes}


WORKLOADS = {cls.name: cls for cls in (Fanout, Presto, Rwho, Build)}
