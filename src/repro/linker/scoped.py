"""Scope-chain helpers for scoped linking (§3, Figure 2).

"When a module M is brought in, its undefined references are first
resolved against the external symbols of modules found on M's own module
list and search path. If this step is not completely successful,
consideration moves up to the module(s) that caused M to be loaded in —
M's 'parent' ... and so on. The linking structure of a program can be
viewed as a DAG in which children can search up from their current
position to the root, but never down."

This module provides the pure pieces: breadth-first ancestor iteration
over the DAG, and export peeking — reading just the symbol table of an
on-disk template or segment to decide whether it can satisfy a symbol,
without instantiating it. Each distinct symbol table is parsed once per
boot (:attr:`Kernel.export_tables`); the reads themselves always run.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Optional, TYPE_CHECKING

from repro.errors import ObjectFormatError, SimulationError
from repro.fs.vfs import O_RDONLY
from repro.kernel.kernel import Kernel
from repro.kernel.process import Process
from repro.linker.segments import TRAILER, TRAILER_MAGIC
from repro.objfile.format import ObjectFile

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.linker.ldl import LoadedModule


def scope_chain(module: "LoadedModule") -> Iterator["LoadedModule"]:
    """Yield *module*, then its parents, grandparents, ... (BFS, dedup).

    Children search up toward the root, never down.
    """
    seen = {id(module)}
    frontier: List["LoadedModule"] = [module]
    while frontier:
        next_frontier: List["LoadedModule"] = []
        for node in frontier:
            yield node
            for parent in node.parents:
                if id(parent) not in seen:
                    seen.add(id(parent))
                    next_frontier.append(parent)
        frontier = next_frontier


def peek_exports(kernel: Kernel, proc: Process,
                 path: str) -> Optional[Dict[str, int]]:
    """Defined global symbols of the module file at *path*, or None if
    the file is not a module.

    For templates the values are section offsets (only the *names*
    matter to the caller); for segment files they are absolute
    addresses. This reads symbol tables through the ordinary file
    interface without creating or mapping anything.
    """
    sys = kernel.syscalls
    try:
        fd = sys.open(proc, path, O_RDONLY)
    except SimulationError:
        return None
    try:
        size = sys.fstat(proc, fd).st_size
        if size < 4:
            return None
        if path.endswith(".o"):
            return _exports_of(kernel, sys.pread(proc, fd, 0, size))
        if size < TRAILER.size:
            return None
        trailer = sys.pread(proc, fd, size - TRAILER.size, TRAILER.size)
        magic, image_len, meta_len, _reserved = TRAILER.unpack(trailer)
        if magic != TRAILER_MAGIC:
            return None
        return _exports_of(kernel, sys.pread(proc, fd, image_len, meta_len))
    finally:
        sys.close(proc, fd)


def _exports_of(kernel: Kernel, data: bytes) -> Optional[Dict[str, int]]:
    """Defined globals of the object image *data*, parsed once per boot.

    The memo is keyed by the bytes the simulated read returned, so a
    file rewritten in place, or a read the fault injector truncated or
    bit-flipped, is simply a miss. Bytes that do not parse are not kept:
    a damaged read is unique, so keeping it would only hold memory. The
    caller gets its own copy.
    """
    exports = kernel.export_tables.get(data)
    if exports is None:
        try:
            obj = ObjectFile.from_bytes(data)
        except ObjectFormatError:
            return None
        exports = {s.name: s.value for s in obj.defined_globals()}
        kernel.export_tables[data] = exports
    return dict(exports)
