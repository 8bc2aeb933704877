"""ldl — the lazy, scoped dynamic linker (§2, §3).

At program start-up (invoked from the special crt0), ldl:

1. uses the saved search strategy to locate every dynamic module named
   at static link time — LD_LIBRARY_PATH *now* first, then everywhere
   lds searched;
2. creates a new instance of each dynamic private module, and of each
   dynamic public module that does not yet exist (creation from the
   template is serialized with a file lock);
3. maps static public modules and all dynamic modules into the address
   space — modules that still contain undefined references are mapped
   *without access permissions*, so the first touch faults;
4. resolves undefined references from the main load image to objects in
   the dynamic modules (even though lds never knew which symbols those
   modules would export).

When a lazily mapped module faults, :meth:`Ldl.handle_fault` resolves
its retained relocations using *scoped* resolution — the module's own
module list and search path first, then its parents' up the DAG — and
only then makes the pages accessible. Resolution may map further modules
(possibly inaccessibly), giving the recursive chain of Figure 2.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.errors import (
    FilesystemError,
    InjectedFaultError,
    LinkError,
    ModuleNotFoundLinkError,
    SyscallError,
)
from repro.fs.path import basename
from repro.fs.vfs import O_RDONLY, O_RDWR
from repro.kernel.kernel import Kernel
from repro.kernel.process import Process
from repro.kernel.syscalls import FLOCK_EX, FLOCK_UN
from repro.linker.branch_islands import insert_branch_islands
from repro.linker.classes import SharingClass
from repro.linker.module import ModuleImage, patch_reloc_in_memory
from repro.linker.scoped import peek_exports, scope_chain
from repro.linker.searchpath import SearchPath
from repro.linker.segments import (
    create_public_module,
    module_path_for_template,
    read_segment_meta,
    update_segment_meta,
)
from repro.objfile.format import ObjectFile
from repro.trace import tracer as _trace
from repro.trace.events import EventKind
from repro.util.bits import align_up
from repro.vm.address_space import MAP_PRIVATE, MAP_SHARED, PROT_NONE, \
    PROT_RWX
from repro.vm.layout import PAGE_SIZE, PRIVATE_DYNAMIC_BASE

# Bounded retry budget for *transient* faults (injected or otherwise)
# hit while locating/mapping modules. Each retry charges a doubling
# backoff wait to the clock, so the recovery cost is deterministic.
LDL_MAX_RETRIES = 4


@dataclass
class LdlStats:
    """Counters the lazy-linking benchmarks report."""

    modules_mapped: int = 0
    modules_created: int = 0
    modules_linked: int = 0
    relocs_patched: int = 0
    scope_lookups: int = 0
    directory_scans: int = 0
    faults_serviced: int = 0
    transient_retries: int = 0


class LoadedModule:
    """One node of the linking DAG."""

    def __init__(self, name: str, path: Optional[str], meta: ObjectFile,
                 base: int, image_len: int, sharing: SharingClass,
                 is_root: bool = False) -> None:
        self.name = name
        self.path = path              # None for the root / anon privates
        self.meta = meta
        self.base = base
        self.image_len = image_len
        self.sharing = sharing
        self.is_root = is_root
        self.parents: List["LoadedModule"] = []
        self.accessible = is_root
        self.linked = is_root and not meta.relocations
        self._exports: Optional[Dict[str, int]] = None

    def exports(self) -> Dict[str, int]:
        """name -> absolute address of every defined global."""
        if self._exports is None:
            self._exports = {s.name: s.value
                             for s in self.meta.defined_globals()}
        return self._exports

    def add_parent(self, parent: "LoadedModule") -> None:
        if parent is not self and parent not in self.parents:
            self.parents.append(parent)

    def contains(self, address: int) -> bool:
        for section in self.meta.layout.values():
            if section.size and section.base <= address < section.end:
                return True
        return False

    @property
    def module_list(self) -> List[Tuple[str, str]]:
        return self.meta.link_info.dynamic_modules

    @property
    def search_dirs(self) -> List[str]:
        return self.meta.link_info.search_path

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<LoadedModule {self.name!r} base=0x{self.base:08x} "
            f"{self.sharing.value} linked={self.linked} "
            f"accessible={self.accessible}>"
        )


class Ldl:
    """The per-process dynamic linker state."""

    def __init__(self, kernel: Kernel, proc: Process,
                 lazy: bool = True, scoped: bool = True,
                 verify: Optional[bool] = None) -> None:
        self.kernel = kernel
        self.proc = proc
        self.lazy = lazy
        # scoped=False ablates scoped linking: every module's undefined
        # references resolve against the single root scope, the way a
        # traditional flat-namespace linker behaves. Name collisions
        # then bind to whatever the *root* sees first, not to the
        # module's own subsystem (see benchmark A6).
        self.scoped = scoped
        # verify arms the reprolint gate: every module is statically
        # verified *before* it is mapped, and an ERROR finding raises
        # LintError instead of mapping a broken image. None defers to
        # the current session's lint switch. The gate analyzes only
        # metadata/images already held in memory — no syscalls, so it
        # adds zero simulated cycles.
        if verify is None:
            from repro.analyze.pipeline import lint_enabled_default

            verify = lint_enabled_default()
        self.verify = verify
        self.stats = LdlStats()
        self.root: Optional[LoadedModule] = None
        self._by_path: Dict[str, LoadedModule] = {}
        self._modules: List[LoadedModule] = []
        self._private_cursor = PRIVATE_DYNAMIC_BASE

    # ------------------------------------------------------------------
    # start-up
    # ------------------------------------------------------------------

    def bootstrap(self, executable: ObjectFile) -> LoadedModule:
        """Run the crt0-time phase for *executable* (already loaded)."""
        run_search = SearchPath.for_run_time(
            self.proc.getenv("LD_LIBRARY_PATH"),
            executable.link_info.search_path,
        )
        # Per-process working copy: resolving retained relocations is
        # process-local state and must not bleed into other execs of the
        # same image.
        meta = executable.clone()
        root = LoadedModule(executable.name, None, meta, 0, 0,
                            SharingClass.STATIC_PRIVATE, is_root=True)
        # The root's run-time search path replaces the saved static one.
        root.meta.link_info.search_path = list(run_search.directories)
        self.root = root
        self._modules.append(root)

        for name, class_name in executable.link_info.dynamic_modules:
            sharing = SharingClass.parse(class_name)
            try:
                self.ensure_module(name, sharing, root)
            except ModuleNotFoundLinkError:
                # lds already warned; the reference faults at use.
                continue

        # Resolve undefined references from the main load image to
        # objects in the dynamic modules.
        self._resolve_retained(root)
        root.linked = True

        if not self.lazy:
            self.link_everything()
        return root

    def link_everything(self) -> None:
        """Eager mode: resolve every loaded module transitively."""
        progress = True
        while progress:
            progress = False
            for module in list(self._modules):
                if not module.linked:
                    self.link_module(module)
                    progress = True

    # ------------------------------------------------------------------
    # locating and instantiating modules
    # ------------------------------------------------------------------

    def ensure_module(self, name: str, sharing: SharingClass,
                      parent: LoadedModule) -> LoadedModule:
        """Bring module *name* into the address space as a child of
        *parent* (deduplicated by path: the DAG, not a tree)."""
        search = self._search_for(parent)
        if sharing is SharingClass.STATIC_PUBLIC:
            # lds recorded the module's absolute path.
            module = self._map_public_path(name)
        elif sharing is SharingClass.DYNAMIC_PUBLIC:
            module = self._ensure_dynamic_public(name, search)
        elif sharing is SharingClass.DYNAMIC_PRIVATE:
            module = self._ensure_dynamic_private(name, search)
        else:
            raise LinkError(
                f"{name!r}: static private modules cannot be loaded at "
                f"run time"
            )
        module.add_parent(parent)
        return module

    def ensure_module_from_path(self, path: str,
                                parent: LoadedModule) -> LoadedModule:
        """Instantiate whatever module lives at *path* (scope scans).

        Segment files map as public modules. Templates instantiate
        according to their location: on the shared partition they become
        (or join) the corresponding public module; elsewhere they become
        a private instance.
        """
        if not path.endswith(".o"):
            module = self._map_public_path(path)
        elif self._on_sfs(path):
            module = self._ensure_dynamic_public(path,
                                                 self._search_for(parent))
        else:
            module = self._ensure_dynamic_private(path,
                                                  self._search_for(parent))
        module.add_parent(parent)
        return module

    def _search_for(self, module: LoadedModule) -> SearchPath:
        return SearchPath(list(module.search_dirs))

    def _ensure_dynamic_public(self, name: str,
                               search: SearchPath) -> LoadedModule:
        vfs = self.kernel.vfs
        module_name = name[:-2] if name.endswith(".o") else name
        module_path = search.find(vfs, module_name, self.proc.uid,
                                  self.proc.cwd)
        if module_path is not None and not module_path.endswith(".o"):
            return self._map_public_path(module_path)
        template_name = name if name.endswith(".o") else name + ".o"
        template_path = search.find(vfs, template_name, self.proc.uid,
                                    self.proc.cwd)
        if template_path is None:
            raise ModuleNotFoundLinkError(name, search.directories)
        module_path = self._create_public(template_path)
        return self._map_public_path(module_path)

    def _with_retry(self, operation):
        """Run *operation*, retrying transient faults with deterministic
        exponential backoff (cycles charged via ``Clock.backoff``)."""
        attempt = 0
        while True:
            try:
                return operation()
            except InjectedFaultError as error:
                if not error.transient or attempt >= LDL_MAX_RETRIES:
                    raise
                attempt += 1
                self.stats.transient_retries += 1
                self.kernel.clock.backoff(attempt)
                injector = self.kernel.injector
                if injector is not None:
                    injector.note_retry()

    def _create_public(self, template_path: str) -> str:
        return self._with_retry(
            lambda: self._create_public_once(template_path))

    def _create_public_once(self, template_path: str) -> str:
        """Create a public module from its template, under a file lock
        ("Ldl uses file locking to synchronize the creation of shared
        segments")."""
        injector = self.kernel.injector
        if injector is not None:
            injector.on_link(self.proc, "create_public", template_path)
        sys = self.kernel.syscalls
        module_path = module_path_for_template(template_path)
        lock_fd = sys.open(self.proc, template_path, O_RDONLY)
        try:
            sys.flock(self.proc, lock_fd, FLOCK_EX)
            try:
                if self.kernel.vfs.exists(module_path, self.proc.uid):
                    return module_path  # someone beat us to it
                # Note: when the template name is a symlink (the Presto
                # temp-directory trick of §4), the module is created in
                # the directory holding the *symlink*, giving each
                # application instance its own copy of the shared data.
                template = self._load_template(template_path)
                create_public_module(self.kernel, self.proc, template,
                                     module_path)
                self.stats.modules_created += 1
                return module_path
            finally:
                sys.flock(self.proc, lock_fd, FLOCK_UN)
        finally:
            sys.close(self.proc, lock_fd)

    def _map_public_path(self, module_path: str) -> LoadedModule:
        existing = self._by_path.get(module_path)
        if existing is not None:
            return existing
        return self._with_retry(
            lambda: self._map_public_once(module_path))

    def _map_public_once(self, module_path: str) -> LoadedModule:
        injector = self.kernel.injector
        if injector is not None:
            injector.on_link(self.proc, "map_public", module_path)
        meta, base, image_len = read_segment_meta(self.kernel, self.proc,
                                                  module_path)
        if self.verify:
            self._verify_public(meta, base, module_path)
        sys = self.kernel.syscalls
        fd = sys.open(self.proc, module_path, O_RDWR)
        try:
            prot = PROT_NONE if (self.lazy and meta.relocations) \
                else PROT_RWX
            sys.mmap(self.proc, base, image_len, prot, MAP_SHARED, fd,
                     name=module_path)
        finally:
            sys.close(self.proc, fd)
        module = LoadedModule(basename(module_path), module_path, meta,
                              base, image_len, SharingClass.DYNAMIC_PUBLIC)
        module.accessible = prot != PROT_NONE
        module.linked = not meta.relocations
        self._register(module_path, module)
        if not self.lazy and not module.linked:
            self.link_module(module)
        return module

    def _ensure_dynamic_private(self, name: str,
                                search: SearchPath) -> LoadedModule:
        template_name = name if name.endswith(".o") else name + ".o"
        template_path = search.find(self.kernel.vfs, template_name,
                                    self.proc.uid, self.proc.cwd)
        if template_path is None:
            raise ModuleNotFoundLinkError(name, search.directories)
        key = f"private:{template_path}"
        existing = self._by_path.get(key)
        if existing is not None:
            return existing

        template = self._load_template(template_path)
        insert_branch_islands(
            template,
            lambda symbol: not _defined_in(template, symbol),
        )
        image = ModuleImage(template, basename(template_path))
        base = self._private_cursor
        total = image.layout_contiguous(base)
        size = align_up(max(total, PAGE_SIZE), PAGE_SIZE)
        self._private_cursor += size + PAGE_SIZE  # guard page gap
        image.apply_relocations()
        meta = image.to_segment_meta()
        if self.verify:
            self._verify_private(image.obj, image.name)

        sys = self.kernel.syscalls
        sys.mmap(self.proc, base, size, PROT_RWX, MAP_PRIVATE,
                 name=f"private:{image.name}")
        self.proc.address_space.write_bytes(base, image.image_bytes(),
                                            force=True)
        module = LoadedModule(image.name, None, meta, base, size,
                              SharingClass.DYNAMIC_PRIVATE)
        if meta.relocations and self.lazy:
            sys.mprotect(self.proc, base, size, PROT_NONE)
            module.accessible = False
        else:
            module.accessible = True
            module.linked = not meta.relocations
        self._register(key, module)
        if not self.lazy and not module.linked:
            self.link_module(module)
        return module

    # ------------------------------------------------------------------
    # the reprolint gate (REPRO_LINT=1 / verify=True)
    # ------------------------------------------------------------------

    def _verify_public(self, meta: ObjectFile, base: int,
                       module_path: str) -> None:
        """Gate a public segment before mapping it at its agreed base."""
        from repro.analyze.context import LintContext
        from repro.analyze.pipeline import verify_image

        context = LintContext(
            addrmap_entries=self.kernel.sfs.addrmap.entries(),
            self_base=base,
            expect_public=True,
        )
        verify_image(meta, context, subject=module_path)

    def _verify_private(self, placed: ObjectFile, name: str) -> None:
        """Gate a private instance before it is mapped and written."""
        from repro.analyze.context import LintContext
        from repro.analyze.pipeline import verify_image

        context = LintContext(expect_public=False)
        verify_image(placed, context, subject=name)

    def _register(self, key: str, module: LoadedModule) -> None:
        self._by_path[key] = module
        self._modules.append(module)
        self.stats.modules_mapped += 1
        tracer = _trace.TRACER
        if tracer.enabled:
            tracer.emit(EventKind.MAP, name=f"module:{module.name}",
                        pid=self.proc.pid, addr=module.base,
                        value=module.image_len)

    def _load_template(self, path: str) -> ObjectFile:
        from repro.linker.lds import load_template

        return self._with_retry(
            lambda: load_template(self.kernel, self.proc, path))

    def _on_sfs(self, path: str) -> bool:
        try:
            fs, _ = self.kernel.vfs.resolve(path, self.proc.uid,
                                            cwd=self.proc.cwd)
        except FilesystemError:
            return False
        return fs is self.kernel.sfs

    # ------------------------------------------------------------------
    # linking (relocation resolution)
    # ------------------------------------------------------------------

    def link_module(self, module: LoadedModule) -> None:
        """Resolve *module*'s retained relocations and make it
        accessible. May map further modules (lazily) on the way."""
        if module.linked:
            if not module.accessible:
                self._make_accessible(module)
            return
        tracer = _trace.TRACER
        if tracer.enabled:
            with tracer.span(EventKind.LINK_RESOLVE,
                             name=f"link:{module.name}",
                             pid=self.proc.pid, addr=module.base):
                self._resolve_retained(module)
        else:
            self._resolve_retained(module)
        module.linked = True
        if not module.accessible:
            self._make_accessible(module)
        self.stats.modules_linked += 1
        if module.sharing is SharingClass.DYNAMIC_PUBLIC and module.path:
            # Persist resolution state so other processes need not redo it.
            update_segment_meta(self.kernel, self.proc, module.path,
                                module.meta)

    def _resolve_retained(self, module: LoadedModule) -> None:
        remaining = []
        tracer = _trace.TRACER
        for reloc in module.meta.relocations:
            address = self.scoped_resolve(module, reloc.symbol)
            if address is None:
                remaining.append(reloc)
                continue
            if tracer.enabled:
                tracer.emit(EventKind.LINK_RESOLVE, name=reloc.symbol,
                            pid=self.proc.pid, addr=address)
            section = module.meta.layout[reloc.section]
            patch_reloc_in_memory(self.proc.address_space, section.base,
                                  reloc, address + reloc.addend,
                                  module.name)
            self.stats.relocs_patched += 1
        module.meta.relocations = remaining

    def _make_accessible(self, module: LoadedModule) -> None:
        if module.is_root or module.accessible:
            return
        self.kernel.syscalls.mprotect(self.proc, module.base,
                                      module.image_len, PROT_RWX)
        module.accessible = True

    # ------------------------------------------------------------------
    # scoped resolution (§3 "Scoped Linking")
    # ------------------------------------------------------------------

    def scoped_resolve(self, module: LoadedModule,
                       symbol: str) -> Optional[int]:
        """Resolve *symbol* for *module*: its own scope first, then up
        the DAG toward the root. None if undefined at the root.

        In flat-namespace mode (``scoped=False``) every module resolves
        from the root's scope only.
        """
        if not self.scoped and self.root is not None:
            self.stats.scope_lookups += 1
            return self._resolve_in_scope(self.root, symbol)
        for scope in scope_chain(module):
            self.stats.scope_lookups += 1
            address = self._resolve_in_scope(scope, symbol)
            if address is not None:
                return address
        return None

    def _resolve_in_scope(self, scope: LoadedModule,
                          symbol: str) -> Optional[int]:
        # The scope's own exports (the main program's, when the search
        # reaches the root) ...
        address = scope.exports().get(symbol)
        if address is not None:
            return address
        # ... then modules explicitly on its module list ...
        for name, class_name in scope.module_list:
            try:
                child = self.ensure_module(
                    name, SharingClass.parse(class_name), scope
                )
            except ModuleNotFoundLinkError:
                continue
            address = child.exports().get(symbol)
            if address is not None:
                return address
        # ... then modules found on its search path.
        for directory in scope.search_dirs:
            hit = self._scan_directory(directory, symbol, scope)
            if hit is not None:
                return hit
        return None

    def _scan_directory(self, directory: str, symbol: str,
                        scope: LoadedModule) -> Optional[int]:
        vfs = self.kernel.vfs
        self.stats.directory_scans += 1
        try:
            names = self._with_retry(
                lambda: self.kernel.syscalls.listdir(self.proc, directory))
        except (SyscallError, FilesystemError) as error:
            if isinstance(error, InjectedFaultError):
                raise  # exhausted retries: surface, don't swallow
            return None  # absent/unreadable directory: skip this scope
        # Prefer already-instantiated segments over raw templates so we
        # join existing public modules rather than re-instantiating.
        ordered = sorted(names, key=lambda n: (n.endswith(".o"), n))
        for name in ordered:
            path = directory.rstrip("/") + "/" + name
            try:
                if vfs.stat(path, self.proc.uid, follow=True,
                            cwd=self.proc.cwd).st_type.value != "file":
                    continue
            except FilesystemError:
                continue
            exports = peek_exports(self.kernel, self.proc, path)
            if exports is None or symbol not in exports:
                continue
            try:
                module = self.ensure_module_from_path(path, scope)
            except ModuleNotFoundLinkError:
                continue  # vanished between listdir and instantiation
            address = module.exports().get(symbol)
            if address is not None:
                return address
        return None

    # ------------------------------------------------------------------
    # fault servicing
    # ------------------------------------------------------------------

    def handle_fault(self, address: int) -> bool:
        """Lazy-linking half of the SIGSEGV handler: if *address* lies in
        a module set up for lazy linking, link it and report resolved."""
        module = self.module_at(address)
        if module is None:
            return False
        if module.accessible and module.linked:
            return False  # a genuine protection error, not our fault
        self.stats.faults_serviced += 1
        self.link_module(module)
        return True

    def module_at(self, address: int) -> Optional[LoadedModule]:
        for module in self._modules:
            if not module.is_root and module.contains(address):
                return module
        return None

    def modules(self) -> List[LoadedModule]:
        return list(self._modules)

    def forget(self, path: str) -> None:
        """Drop linker state for a destroyed segment.

        Public modules are destroyed explicitly (§5 Garbage Collection);
        a later segment may reuse the same inode and hence the same
        address, so stale LoadedModule records must not shadow it.
        """
        victims = [m for m in self._modules if m.path == path]
        for module in victims:
            self._modules.remove(module)
        for key in [k for k, m in self._by_path.items() if m in victims]:
            del self._by_path[key]


def _defined_in(obj: ObjectFile, symbol: str) -> bool:
    entry = obj.symbols.get(symbol)
    return entry is not None and entry.defined
