"""Per-layer host-time tracing, installed from outside the program.

The tracer wraps public entry points of each ``repro`` layer (and a few
private ones that are the only door into a layer, such as the assembler
class behind ``repro.hw.asm.assemble``) while a traced repetition runs,
and restores the originals afterwards. Nothing inside ``src/`` knows it
is being traced, so the simulated clock cannot see it: a traced run must
charge exactly the cycles of an untraced one, and the runner checks that.

Each wrapped call is a span. A layer's *self time* is the wall time of
its spans minus the time of the spans they called, so nested calls
(``Cpu.step`` -> ``AddressSpace.load_word``) are charged once, to the
innermost layer. Per-instruction entry points (``Cpu.step`` and the word
accessors) only add to a count and a time; coarser spans are also kept
in memory as ``(id, parent, entry, start, end)`` rows, up to a cap, and
written out when the run ends.
"""

from __future__ import annotations

import importlib
import inspect
import time
from typing import Callable, Dict, List, Optional, Tuple

#: Layers in report order; ``other`` collects native process bodies
#: (application code) and everything outside any wrapped entry point.
LAYERS = ("hw", "vm", "kernel", "linker", "objfile", "fs", "sfs", "net",
          "coherence", "runtime", "toyc", "asm", "disk", "other")

#: (layer, "module:Owner", methods, per_instruction). ``"*"`` wraps every
#: public plain function defined on the class itself.
ENTRIES: Tuple[Tuple[str, str, Tuple[str, ...], bool], ...] = (
    ("hw", "repro.hw.cpu:Cpu", ("step",), True),
    ("vm", "repro.vm.address_space:AddressSpace",
     ("load_word", "store_word", "fetch_word"), True),
    ("vm", "repro.vm.address_space:AddressSpace", ("*",), False),
    ("kernel", "repro.kernel.kernel:Kernel",
     ("run_slice", "schedule", "run_until_exit", "create_machine_process",
      "spawn", "exec_image", "fork", "terminate", "deliver_fault",
      "run_with_faults", "sync", "shutdown"), False),
    ("kernel", "repro.kernel.syscalls:Syscalls", ("*",), False),
    ("kernel", "repro.kernel.smp:SmpCoordinator", ("*",), False),
    ("linker", "repro.linker.lds:Lds", ("link",), False),
    ("linker", "repro.linker.ldl:Ldl", ("*",), False),
    ("objfile", "repro.objfile.format:ObjectFile",
     ("from_bytes", "to_bytes"), False),
    ("fs", "repro.fs.vfs:Vfs", ("*",), False),
    ("fs", "repro.fs.vfs:OpenFile", ("*",), False),
    ("fs", "repro.fs.filesystem:Filesystem", ("*",), False),
    ("sfs", "repro.sfs.sharedfs:SharedFilesystem", ("*",), False),
    ("sfs", "repro.sfs.addrmap:LinearAddressMap", ("*",), False),
    ("sfs", "repro.sfs.addrmap:BTreeAddressMap", ("*",), False),
    ("net", "repro.net.link:Nic", ("*",), False),
    ("net", "repro.net.link:Fabric", ("*",), False),
    ("net", "repro.net.cluster:Cluster", ("*",), False),
    ("net", "repro.net.cluster:Machine", ("step_round",), False),
    ("coherence", "repro.net.coherence:CoherenceAgent", ("*",), False),
    ("coherence", "repro.net.coherence:SegmentDirectory", ("*",), False),
    ("runtime", "repro.runtime.views:Mem", ("*",), False),
    ("runtime", "repro.runtime.views:StructDef", ("*",), False),
    ("runtime", "repro.runtime.views:StructView", ("*",), False),
    ("runtime", "repro.runtime.shmalloc:SegmentHeap", ("*",), False),
    ("runtime", "repro.runtime.shmalloc:ArenaHeap", ("*",), False),
    ("runtime", "repro.runtime.libshared:HemlockRuntime",
     ("*", "_segv_handler"), False),
    ("toyc", "repro.toyc.compiler", ("compile_to_assembly",), False),
    ("asm", "repro.hw.asm:_Assembler", ("assemble",), False),
    ("disk", "repro.disk.journal:Journal", ("*",), False),
    ("disk", "repro.disk.blockdev:BlockDevice", ("*",), False),
    ("disk", "repro.disk.mount:DiskStore", ("*",), False),
)

#: Classes whose instances are collected while tracing, so their public
#: stats can be read after the run.
REGISTRIES = {
    "cpu": "repro.hw.cpu:Cpu",
    "space": "repro.vm.address_space:AddressSpace",
    "ldl": "repro.linker.ldl:Ldl",
    "cluster": "repro.net.cluster:Cluster",
    "journal": "repro.disk.journal:Journal",
}

#: Spans kept per traced run; past the cap only counts and times grow.
SPAN_CAP = 200_000

_clock = time.perf_counter


def _resolve(target: str):
    module_name, _, owner = target.partition(":")
    module = importlib.import_module(module_name)
    return getattr(module, owner) if owner else module


def _methods(owner, names: Tuple[str, ...]) -> List[str]:
    if "*" not in names:
        return list(names)
    found = [name for name, raw in vars(owner).items()
             if not name.startswith("_")
             and inspect.isfunction(raw)
             and not inspect.isgeneratorfunction(raw)]
    return found + [name for name in names if name != "*"]


class LayerTracer:
    """Wraps the entry points in :data:`ENTRIES`; see the module doc."""

    def __init__(self) -> None:
        self.names: List[str] = []         # "Owner.method" per entry
        self.layer_of: List[int] = []      # LAYERS index per entry
        self.calls: List[int] = []
        self.self_s: List[float] = []
        self.registry: Dict[str, list] = {key: [] for key in REGISTRIES}
        self.images: set = set()           # distinct parsed object images
        self.bytes_read = 0
        self.bytes_written = 0
        self.spans: List[tuple] = []
        self.spans_dropped = 0
        self.recording = False
        self._stack: List[float] = []      # child time per open span
        self._ids: List[int] = [0]         # open span ids (0 = root)
        self._next_id = 1
        self._saved: List[tuple] = []

    # -- install / remove ------------------------------------------------

    def install(self) -> None:
        for layer, target, names, hot in ENTRIES:
            owner = _resolve(target)
            for name in _methods(owner, names):
                self._patch(owner, name, layer, hot)
        for key, target in REGISTRIES.items():
            self._patch_init(_resolve(target), self.registry[key])
        self._patch_native_bodies()

    def remove(self) -> None:
        for owner, name, raw in reversed(self._saved):
            setattr(owner, name, raw)
        self._saved.clear()

    def reset(self) -> None:
        """Zero every count, time and span (between set-up and the timed
        phase); registries keep the objects set-up created."""
        for index in range(len(self.calls)):
            self.calls[index] = 0
            self.self_s[index] = 0.0
        self.images.clear()
        self.bytes_read = self.bytes_written = 0
        self.spans.clear()
        self.spans_dropped = 0
        self._next_id = 1

    # -- results -----------------------------------------------------------

    def layer_self_s(self) -> Dict[str, float]:
        totals = dict.fromkeys(LAYERS, 0.0)
        for index, seconds in enumerate(self.self_s):
            totals[LAYERS[self.layer_of[index]]] += seconds
        return totals

    def tally(self, owner: str = "*", method: str = "*"
              ) -> Tuple[int, float]:
        """(calls, self seconds) over the entries ``Owner.method`` that
        match; ``"*"`` matches any owner or method."""
        calls, seconds = 0, 0.0
        for index, entry in enumerate(self.names):
            entry_owner, _, entry_method = entry.partition(".")
            if owner in ("*", entry_owner) and method in ("*", entry_method):
                calls += self.calls[index]
                seconds += self.self_s[index]
        return calls, seconds

    def span_rows(self) -> List[dict]:
        return [{"id": sid, "parent": parent, "entry": self.names[index],
                 "layer": LAYERS[self.layer_of[index]],
                 "start": start, "end": end}
                for sid, parent, index, start, end in self.spans]

    # -- wrappers ------------------------------------------------------------

    def _new_entry(self, layer: str, name: str) -> int:
        self.names.append(name)
        self.layer_of.append(LAYERS.index(layer))
        self.calls.append(0)
        self.self_s.append(0.0)
        return len(self.names) - 1

    def _patch(self, owner, name: str, layer: str, hot: bool) -> None:
        if any(saved[0] is owner and saved[1] == name
               for saved in self._saved):
            return  # already wrapped by an earlier, more specific entry
        raw = vars(owner)[name]
        label = f"{owner.__name__.rpartition('.')[2]}.{name}"
        index = self._new_entry(layer, label)
        observe = self._observer(label)
        if isinstance(raw, classmethod):
            wrapped = classmethod(self._wrap(raw.__func__, index, hot,
                                             observe))
        elif isinstance(raw, staticmethod):
            wrapped = staticmethod(self._wrap(raw.__func__, index, hot,
                                              observe))
        else:
            wrapped = self._wrap(raw, index, hot, observe)
        self._saved.append((owner, name, raw))
        setattr(owner, name, wrapped)

    def _observer(self, label: str) -> Optional[Callable]:
        if label == "ObjectFile.from_bytes":
            def parsed(args, _result):
                data = args[1]
                offset = args[2] if len(args) > 2 else 0
                self.images.add((hash(bytes(data)), offset))
            return parsed
        if label == "Filesystem.read_file":
            def read(_args, result):
                self.bytes_read += len(result)
            return read
        if label == "Filesystem.write_file":
            def written(_args, result):
                self.bytes_written += result
            return written
        return None

    def _wrap(self, fn: Callable, index: int, hot: bool,
              observe: Optional[Callable]) -> Callable:
        stack = self._stack
        calls = self.calls
        self_s = self.self_s
        clock = _clock

        if hot:
            def counted(*args, **kwargs):
                start = clock()
                stack.append(0.0)
                try:
                    return fn(*args, **kwargs)
                finally:
                    elapsed = clock() - start
                    self_s[index] += elapsed - stack.pop()
                    calls[index] += 1
                    if stack:
                        stack[-1] += elapsed
            return counted

        ids = self._ids
        spans = self.spans

        def span(*args, **kwargs):
            sid = 0
            if self.recording:
                if self._next_id <= SPAN_CAP:
                    sid = self._next_id
                    self._next_id += 1
                else:
                    self.spans_dropped += 1
            parent = ids[-1]
            ids.append(sid or parent)
            start = clock()
            stack.append(0.0)
            try:
                result = fn(*args, **kwargs)
                if observe is not None:
                    observe(args, result)
                return result
            finally:
                end = clock()
                elapsed = end - start
                self_s[index] += elapsed - stack.pop()
                calls[index] += 1
                ids.pop()
                if stack:
                    stack[-1] += elapsed
                if sid:
                    spans.append((sid, parent, index, start, end))
        return span

    def _patch_init(self, owner, instances: list) -> None:
        raw = vars(owner)["__init__"]

        def init(obj, *args, **kwargs):
            raw(obj, *args, **kwargs)
            instances.append(obj)

        self._saved.append((owner, "__init__", raw))
        owner.__init__ = init

    def _patch_native_bodies(self) -> None:
        """Native process bodies are application code: charge each resume
        to ``other`` so it does not land in the kernel's self time."""
        from repro.kernel.kernel import Kernel

        raw = vars(Kernel)["create_native_process"]
        index = self._new_entry("other", "native_body.resume")
        resume = self._wrap(next, index, hot=True, observe=None)

        def traced_body(body):
            def run(kernel, proc):
                generator = body(kernel, proc)
                while True:
                    try:
                        value = resume(generator)
                    except StopIteration as stop:
                        return stop.value
                    yield value
            return run

        def create_native_process(kernel, name, body, *args, **kwargs):
            return raw(kernel, name, traced_body(body), *args, **kwargs)

        self._saved.append((Kernel, "create_native_process", raw))
        Kernel.create_native_process = create_native_process
